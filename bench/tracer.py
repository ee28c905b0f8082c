"""Per-layer spans and counters around mdpdetect, installed from outside the package.

The tracer replaces module-level names of mdpdetect with timing wrappers.
Where a module imported a name from another module (``mec_decompose`` inside
``binary`` and ``general``, ``_binary_synthesis`` inside ``general``, the
CLI's imports), the name is wrapped in the importing module, because that is
the binding the caller looks up. Spans nest: a span's self time is its
duration minus the time of the spans it caused.

Run as a script, it executes one ``mdpdetect`` CLI command under the tracer:

    python3 bench/tracer.py TRACE_OUT.json -- synthesize model.json --out policy.json

and writes the trace to TRACE_OUT.json. The environment variable
``BENCH_SPAWN_TIME`` (the parent's ``time.time()`` just before it started
this process) gives the start-up time: interpreter plus package import.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import Counter
from typing import Any, Callable


class Tracer:
    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [total_s, self_s, calls]
        self.counters: Counter[str] = Counter()
        self.pairs: set[tuple[int, ...]] = set()
        self._open: list[float] = []  # child time accumulated by each open span

    def timed(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                children = self._open.pop()
                rec = self.spans.setdefault(name, [0.0, 0.0, 0])
                rec[0] += duration
                rec[1] += duration - children
                rec[2] += 1
                if self._open:
                    self._open[-1] += duration
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, fn: Callable, after: Callable) -> Callable:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            after(args, result)
            return result

        return wrapper

    def dump(self) -> dict:
        counters = dict(self.counters)
        counters["binary.synthesis_distinct_pairs"] = len(self.pairs)
        return {"spans": self.spans, "counters": counters}


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every mdpdetect module the benchmark drives."""
    mod = {name: importlib.import_module(f"mdpdetect.{name}") for name in (
        "cli", "scenarios", "models", "policy", "general", "binary", "graphs", "simulate", "analysis",
    )}
    c = tracer.counters

    def wrap(module: str, attr: str, span: str, after: Callable | None = None) -> None:
        setattr(mod[module], attr, tracer.timed(span, getattr(mod[module], attr), after))

    def count(module: str, attr: str, after: Callable) -> None:
        setattr(mod[module], attr, tracer.counted(getattr(mod[module], attr), after))

    def parsed_bytes(args: tuple, _result: Any) -> None:
        if isinstance(args[0], str):
            c["models.parse_bytes"] += len(args[0].encode("utf-8"))

    def policy_entries(args: tuple, _result: Any) -> None:
        c["policy.entries"] += len(args[0].entries)

    def memo(_args: tuple, outcome: Any) -> None:
        cache = outcome.diagnostics.get("cache", {})
        c["general.memo_hits"] += cache.get("hits", 0)
        c["general.memo_misses"] += cache.get("misses", 0)

    def level(_args: tuple, result: Any) -> None:
        c["general.explored_states"] += len(result[2]["explored"])

    def pair(args: tuple, _result: Any) -> None:
        tracer.pairs.add(tuple(args[3]))

    def mec_input(args: tuple, _result: Any) -> None:
        c["graphs.mec_input_states"] += len(args[0].states)

    def episode(_args: tuple, trace: Any) -> None:
        c["simulate.episodes"] += 1
        c["simulate.steps"] += trace.steps[-1].t

    def mc_trials(args: tuple, _result: Any) -> None:
        c["simulate.mc_trials"] += args[3]

    def bc_pairs(_args: tuple, curves: Any) -> None:
        c["analysis.bc_pairs"] += len(curves)

    def expand(_args: tuple, _result: Any) -> None:
        c["analysis.expand_calls"] += 1

    wrap("cli", "gen_recsys", "scenarios.gen")
    wrap("cli", "gen_grid", "scenarios.gen")
    wrap("cli", "mmdp_to_json", "models.serialize")
    wrap("cli", "parse_mmdp", "models.parse", parsed_bytes)
    wrap("models", "parse_mmdp", "models.parse", parsed_bytes)
    wrap("cli", "policy_to_json", "policy.serialize", policy_entries)
    wrap("cli", "parse_policy", "policy.parse")
    wrap("policy", "parse_policy", "policy.parse")
    wrap("cli", "general_apd", "general.apd", memo)
    wrap("general", "_general_level", "general.level", level)
    wrap("general", "_binary_synthesis", "binary.synthesis", pair)
    wrap("binary", "_binary_synthesis", "binary.synthesis", pair)
    wrap("binary", "preprocess", "binary.preprocess")
    wrap("binary", "classify_pairs", "binary.classify")
    wrap("general", "classify_pairs", "binary.classify")
    for module in ("binary", "general"):
        wrap(module, "mec_decompose", "graphs.mec", mec_input)
        wrap(module, "almost_sure_reach_set", "graphs.reach")
        wrap(module, "reach_policy", "graphs.reach_policy")
    wrap("cli", "batch_summary", "simulate.batch")
    count("simulate", "simulate", episode)
    wrap("simulate", "monte_carlo_error", "simulate.mc", mc_trials)
    wrap("cli", "pairwise_bc_curve", "analysis.bc_curve", bc_pairs)
    count("analysis", "_expand_aug", expand)


def startup_seconds() -> float:
    return time.time() - float(os.environ["BENCH_SPAWN_TIME"])


def main(argv: list[str]) -> int:
    out, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py TRACE_OUT.json -- <mdpdetect arguments>")
    cli = importlib.import_module("mdpdetect.cli")
    startup = startup_seconds()
    tracer = Tracer()
    install(tracer)
    code = cli.main(cli_args)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"startup_s": startup, **tracer.dump()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
