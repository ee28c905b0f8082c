"""Command-line surface: validation, classification, synthesis, simulation, metrics.

Exit codes: 0 success, 1 usage error, 2 invalid model or spec, 3 no detection
policy exists (a valid analysis outcome, not a failure), 4 runtime contract
breach.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
from typing import Sequence

from . import models
from .errors import ContractError, DetectionError, ModelError
from .graphs import mec_decompose, model_graph
from .models import Mmdp, mmdp_to_json, parse_mmdp
from .policy import DetectionPolicy, parse_policy, policy_to_json

# Each command imports only the modules it runs: these names bind on first use,
# so only ``simulate`` and ``bc`` load numpy, and neither loads synthesis.
_LAZY = {
    **dict.fromkeys(("bounds_csv", "curve_csv", "error_bounds_multi", "pairwise_bc_curve"), "analysis"),
    **dict.fromkeys(("bi_apd", "classify_pairs"), "binary"),
    **dict.fromkeys(("general_apd", "pairwise_isa"), "general"),
    **dict.fromkeys(("gen_grid", "gen_recsys", "grid_spec_from_json", "recsys_spec_from_json"), "scenarios"),
    **dict.fromkeys(("batch_summary", "simulate", "trace_to_csv"), "simulate"),
}

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_NO_POLICY = 3
EXIT_CONTRACT = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mdpdetect", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model file against the schema and invariants")
    p.add_argument("model")

    p = sub.add_parser("classify", help="informative/revealing pairs and states")
    p.add_argument("model")
    p.add_argument("--out", default="-")

    p = sub.add_parser("mec", help="maximal end components of a model's structure")
    p.add_argument("model")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--model", dest="model_index", type=int, default=None)
    group.add_argument("--informative", action="store_true")
    p.add_argument("--out", default="-")

    p = sub.add_parser("synthesize", help="decide existence and synthesize a detection policy")
    p.add_argument("model")
    p.add_argument("--initial", default=None)
    p.add_argument("--out", default="-")
    p.add_argument("--diagnostics", default=None)

    p = sub.add_parser("simulate", help="run seeded detection episodes")
    p.add_argument("model")
    p.add_argument("policy")
    p.add_argument("--truth", type=int, default=None)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threshold", type=float, default=0.98)
    p.add_argument("--max-steps", type=int, default=10_000)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--out", default="-")

    p = sub.add_parser("bc", help="Bhattacharyya curves / error bounds under a policy")
    p.add_argument("model")
    p.add_argument("policy")
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--pair", default=None, help="i,j (1-based model indices)")
    p.add_argument("--bounds", default=None, help="q1,..,qN:theta1,..,thetaN")
    p.add_argument("--out", default="-")

    p = sub.add_parser("gen", help="generate a scenario model")
    p.add_argument("kind", choices=("grid", "recsys"))
    p.add_argument("spec")
    p.add_argument("--out", default="-")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ModelError as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ContractError as exc:
        print(f"contract breach: {exc}", file=sys.stderr)
        return EXIT_CONTRACT
    except DetectionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "validate":
        _load_mmdp(args.model)  # parse_mmdp raises ModelError naming every violation
        print("valid")
        return EXIT_OK

    if args.command == "classify":
        _bind("binary", "general")
        mmdp = _load_mmdp(args.model)
        if mmdp.n == 2:
            cls = classify_pairs(mmdp.models[0], mmdp.models[1])
            payload = {
                "informative_pairs": sorted(cls.kept_informative_pairs),
                "revealing_pairs": sorted(cls.revealing_pairs),
                "revealing_states": sorted(cls.states_labeled("revealing")),
                "informative_states": sorted(cls.states_labeled("informative")),
                "chosen_revealing_action": dict(sorted(cls.chosen_revealing.items())),
            }
        else:
            payload = {
                "pairwise_isa": {
                    f"{i},{j}": sorted(pairwise_isa(mmdp, i, j))
                    for i in range(1, mmdp.n + 1)
                    for j in range(i + 1, mmdp.n + 1)
                }
            }
        _write(args.out, _json(payload))
        return EXIT_OK

    if args.command == "mec":
        _bind("binary")
        mmdp = _load_mmdp(args.model)
        if args.informative:
            if mmdp.n != 2:
                raise ModelError("--informative applies to binary models only")
            listing = bi_apd(mmdp).diagnostics["informative_mecs"]
        else:
            index = args.model_index if args.model_index is not None else 1
            listing = [c.as_dict() for c in mec_decompose(model_graph(mmdp, index))]
        _write(args.out, _json(listing))
        return EXIT_OK

    if args.command == "synthesize":
        _bind("general")
        # the model is freed before the policy text is built, which sets the process's peak memory
        outcome = general_apd(_load_mmdp(args.model), initial=args.initial)
        # a failed run removes the diagnostics file if it created it
        made = args.diagnostics not in (None, "-") and not os.path.lexists(args.diagnostics)
        if args.diagnostics:
            _write(args.diagnostics, _json(outcome.diagnostics))
        if not outcome.exists:
            print("no detection policy exists from the requested initial state", file=sys.stderr)
            return EXIT_NO_POLICY
        try:
            _write(args.out, policy_to_json(outcome.policy))
        except _UsageError:
            if made:
                os.remove(args.diagnostics)
            raise
        return EXIT_OK

    if args.command == "simulate":
        _bind("simulate")
        mmdp = _load_mmdp(args.model)
        policy = _load_policy(args.policy, mmdp)
        if args.trials is None:
            if args.truth is None:
                raise _UsageError("--truth is required for a single trace")
            trace = simulate(
                mmdp, args.truth, policy, seed=args.seed,
                max_steps=args.max_steps, threshold=args.threshold,
            )
            _write(args.out, trace_to_csv(trace))
        else:
            summary = batch_summary(
                mmdp, policy, trials=args.trials, seed=args.seed, truth=args.truth,
                max_steps=args.max_steps, threshold=args.threshold,
            )
            _write(args.out, _json(summary))
        return EXIT_OK

    if args.command == "bc":
        _bind("analysis")
        mmdp = _load_mmdp(args.model)
        if args.pair and args.bounds and mmdp.n > 2:
            raise _UsageError(
                f"--bounds needs the curves of every pair of the {mmdp.n} models, not --pair"
            )
        policy = _load_policy(args.policy, mmdp)
        pairs = None
        if args.pair:
            pairs = [_parse_pair(args.pair)]
        curves = pairwise_bc_curve(mmdp, policy, horizon=args.horizon, pairs=pairs)
        if args.bounds:
            q, theta = _parse_priors(args.bounds, mmdp.n)
            rows = []
            for t in range(args.horizon + 1):
                b = [[0.0] * mmdp.n for _ in range(mmdp.n)]
                for (i, j), curve in curves.items():
                    b[i - 1][j - 1] = b[j - 1][i - 1] = curve.values[t]
                rows.append((t, error_bounds_multi(b, q, theta)))
            _write(args.out, bounds_csv(rows))
        else:
            _write(args.out, curve_csv(curves))
        return EXIT_OK

    if args.command == "gen":
        _bind("scenarios")
        raw = _read(args.spec)
        if args.kind == "grid":
            mmdp = gen_grid(grid_spec_from_json(raw))
        else:
            mmdp = gen_recsys(recsys_spec_from_json(raw))
        _write(args.out, mmdp_to_json(mmdp))
        return EXIT_OK

    raise _UsageError(f"unknown command {args.command!r}")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_LAZY[name]}", __package__), name)
    return value


def _bind(*modules: str) -> None:
    """Bind here every name of ``_LAZY`` from ``modules``, keeping a binding made from outside."""
    for name in _LAZY.keys() - globals().keys():
        if _LAZY[name] in modules:
            __getattr__(name)


def _load_mmdp(path: str):
    return parse_mmdp(_read(path))


def _load_policy(path: str, mmdp: Mmdp) -> DetectionPolicy:
    """The policy file at ``path``; an active set that is empty or names a model
    outside ``1..n``, or a state or action it plays that the model lacks, is a breach.
    """
    policy = parse_policy(_read(path))
    offered = {s: frozenset(acts) for s, acts in mmdp.actions.items()}
    # each (state, actions) pair is checked once: components share their action sets
    checked: set[tuple] = set()
    for key, entry in policy.entries.items():
        if not entry.active or entry.active[0] < 1 or entry.active[-1] > mmdp.n:
            raise ContractError(
                f"policy entry {key} keeps models {list(entry.active)}, not a nonempty subset of 1..{mmdp.n}"
            )
        plays = [(entry.entry_state, ()), *((s, (a,)) for s, a in entry.reach.items())]
        plays += [item for mec in entry.mecs for item in mec.actions.items()]
        for play in plays:
            if play in checked:
                continue
            s, acts = play
            if s not in offered:
                raise ContractError(f"policy entry {key} names {s!r}, which is not a model state")
            if not offered[s].issuperset(acts):
                a = min(set(acts) - offered[s])
                raise ContractError(f"policy entry {key} plays {a!r} at {s!r}, which does not offer it")
            checked.add(play)
    return policy


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _UsageError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


def _json(payload) -> str:
    """JSON text as ``json.dumps(payload, indent=2, sort_keys=True)`` writes it, plus a newline."""
    return models._json(payload, "") + "\n"


def _parse_pair(raw: str) -> tuple[int, int]:
    try:
        i, j = (int(x) for x in raw.split(","))
    except ValueError as exc:
        raise _UsageError(f"--pair must look like 'i,j', got {raw!r}") from exc
    if i == j:
        raise _UsageError("--pair needs two distinct model indices")
    return (min(i, j), max(i, j))


def _parse_priors(raw: str, n: int) -> tuple[list[float], list[float]]:
    parts = raw.split(":")
    if len(parts) != 2:
        raise _UsageError("--bounds must look like 'q1,..,qN:theta1,..,thetaN'")
    try:
        q = [float(x) for x in parts[0].split(",")]
        theta = [float(x) for x in parts[1].split(",")]
    except ValueError as exc:
        raise _UsageError(f"--bounds contains a non-number: {raw!r}") from exc
    if len(q) != n or len(theta) != n:
        raise _UsageError(f"--bounds needs {n} entries on each side")
    return q, theta


if __name__ == "__main__":
    sys.exit(main())
