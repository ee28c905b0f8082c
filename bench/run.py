#!/usr/bin/env python3
"""The mdpdetect benchmark: the CLI pipeline and the Monte-Carlo sandwich, checked.

    python3 bench/run.py --workload recsys-10x6 --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from ./src.
Each workload runs whole rounds of the same operations, each operation once
per CPU at the same time (two lanes), until ``--seconds`` have passed (at
least one round): ``mdpdetect gen
-> synthesize -> simulate --trials -> bc`` as separate CLI processes, then
``monte_carlo_error`` on the synthesized policy in a worker process (the
library call has no CLI). On recsys-10x6 the worker also runs the
Monte-Carlo sandwich: ``monte_carlo_error`` at t = 5 and 10 on the two-state
``sqrt_half`` pair and on ten seeded random four-state pairs under the
uniform stationary policy.

Every output is checked by bench/checks.py, which does not use mdpdetect,
and negative cases show that those checks catch a fault. The last line of
standard output is the JSON result; with ``--trace 1`` the metrics are the
per-layer figures of bench/tracer.py instead of the end-to-end ones.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "work"
RUN_LIMIT_S = 170  # every child is stopped by then, so a run ends within 180 s
# Chance that a correct program fails any statistical check of one run.
FALSE_ALARM = 1e-9
THRESHOLD = 0.98  # the CLI's default MAP stopping threshold
SANDWICH_T = (5, 10)  # Monte-Carlo sandwich horizons
SANDWICH_TRIALS = 1000
# One lane per CPU, at most two: on a shared host each CPU runs fast or slow
# for seconds at a time, independently of the other, so two copies of an
# operation at once average two CPUs' states in the time of one.
CPUS = sorted(os.sched_getaffinity(0))[:2]
# About the wall time of one bench/reference.py process alone on a fast CPU
# of the machine the README's figures come from; timed metrics are scaled to
# this speed.
REFERENCE_S = 0.30

# The children get the caller's environment; only this process pins its
# numpy to one thread, so checks between stages leave no busy threads behind.
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p
)}
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"

import checks  # noqa: E402  (after the thread pinning above)


@dataclass(frozen=True)
class Workload:
    name: str
    states: int
    models: int
    trials: int  # simulate --trials
    horizon: int  # bc --horizon
    mc_t: tuple[int, ...]  # monte_carlo_error horizons
    mc_trials: int
    gen: str  # scenario kind for `mdpdetect gen`
    enum_depth: int = 0  # exact enumeration depth for policies with several entries
    # The Monte-Carlo sandwich: sqrt_half and this many seeded random binary
    # pairs (none when 0), one call per case.
    random_pairs: int = 0
    setup_repeats: int = 3
    # Processes per round of synthesize, simulate and bc, and calls per
    # Monte-Carlo case on the synthesized policy. On a shared machine one
    # unchanged process takes up to 20% more or less time from one start to
    # the next, so each timed figure is a mean over several samples.
    stage_reps: tuple[int, int, int] = (1, 1, 1)
    mc_repeats: int = 1


WORKLOADS = {
    w.name: w for w in (
        Workload("recsys-10x6", states=111, models=6, trials=400, horizon=40,
                 mc_t=(3,), mc_trials=4000, gen="recsys", enum_depth=3, random_pairs=10,
                 setup_repeats=1, stage_reps=(2, 3, 2), mc_repeats=4),
        Workload("grid-40x40", states=1600, models=2, trials=400, horizon=300,
                 mc_t=(300,), mc_trials=200, gen="grid", setup_repeats=5,
                 stage_reps=(3, 1, 2), mc_repeats=3),
    )
}

END_TO_END = {
    "setup_s": "s", "synthesize_s": "s", "simulate_s": "s", "bc_s": "s",
    "pipeline_s": "s", "mc_trials_per_s": "trials/s", "peak_rss_mb": "MB",
}


def _total(name):
    return lambda spans, c: spans.get(name, (0.0, 0.0, 0))[0]


def _self(name):
    return lambda spans, c: spans.get(name, (0.0, 0.0, 0))[1]


def _calls(name):
    return lambda spans, c: spans.get(name, (0.0, 0.0, 0))[2]


def _count(name):
    return lambda spans, c: c.get(name, 0)


def _per(span, counter, scale=1e6):
    return lambda spans, c: (
        scale * spans.get(span, (0.0,))[0] / c[counter] if c.get(counter) else 0.0
    )


# name -> (unit, value from one round's merged spans and counters)
PER_LAYER = {
    "cli.startup_s": ("s", _count("cli.startup_s")),
    "scenarios.gen_s": ("s", _total("scenarios.gen")),
    "models.serialize_s": ("s", _total("models.serialize")),
    "models.parse_s": ("s", _total("models.parse")),
    "models.parse_bytes": ("bytes", _count("models.parse_bytes")),
    "policy.serialize_s": ("s", _total("policy.serialize")),
    "policy.parse_s": ("s", _total("policy.parse")),
    "policy.entries": ("count", _count("policy.entries")),
    "general.apd_s": ("s", _total("general.apd")),
    "general.level_self_s": ("s", _self("general.level")),
    "general.level_calls": ("count", _calls("general.level")),
    "general.explored_states": ("count", _count("general.explored_states")),
    "general.memo_hits": ("count", _count("general.memo_hits")),
    "general.memo_misses": ("count", _count("general.memo_misses")),
    "binary.synthesis_self_s": ("s", _self("binary.synthesis")),
    "binary.synthesis_calls": ("count", _calls("binary.synthesis")),
    "binary.synthesis_distinct_pairs": ("count", _count("binary.synthesis_distinct_pairs")),
    "binary.preprocess_s": ("s", _total("binary.preprocess")),
    "binary.preprocess_calls": ("count", _calls("binary.preprocess")),
    "binary.classify_s": ("s", _total("binary.classify")),
    "binary.classify_calls": ("count", _calls("binary.classify")),
    "graphs.mec_s": ("s", _total("graphs.mec")),
    "graphs.mec_calls": ("count", _calls("graphs.mec")),
    "graphs.mec_input_states": ("count", _count("graphs.mec_input_states")),
    "graphs.reach_s": ("s", _total("graphs.reach")),
    "graphs.reach_calls": ("count", _calls("graphs.reach")),
    "graphs.reach_policy_s": ("s", _total("graphs.reach_policy")),
    "simulate.batch_s": ("s", _total("simulate.batch")),
    "simulate.episodes": ("count", _count("simulate.episodes")),
    "simulate.steps": ("count", _count("simulate.steps")),
    "simulate.us_per_step": ("us", _per("simulate.batch", "simulate.steps")),
    "simulate.mc_s": ("s", _total("simulate.mc")),
    "simulate.mc_trials": ("count", _count("simulate.mc_trials")),
    "simulate.us_per_trial": ("us", _per("simulate.mc", "simulate.mc_trials")),
    "analysis.bc_curve_s": ("s", _total("analysis.bc_curve")),
    "analysis.bc_pairs": ("count", _count("analysis.bc_pairs")),
    "analysis.expand_calls": ("count", _count("analysis.expand_calls")),
}


def sqrt_half_doc() -> dict:
    """One informative self-loop; B(t) = 2^(-t/2) in closed form."""
    states = ["s", "u"]
    return {
        "states": states, "actions": {"s": ["a"], "u": ["a"]}, "initial": "s",
        "models": [
            {"name": "M1", "delta": [_d("s", "a", "s", 1.0), _d("u", "a", "u", 1.0)]},
            {"name": "M2", "delta": [_d("s", "a", "s", 0.5), _d("s", "a", "u", 0.5), _d("u", "a", "u", 1.0)]},
        ],
    }


def random_pair_doc(rng: random.Random) -> dict:
    """Four states, one or two actions each; both models share every support."""
    states = [f"s{i}" for i in range(4)]
    actions = {s: [f"a{j}" for j in range(rng.randint(1, 2))] for s in states}
    deltas: tuple[list, list] = ([], [])
    for s in states:
        for a in actions[s]:
            x, y = rng.sample(states, 2)
            p = rng.uniform(0.2, 0.8)
            q = p
            if rng.random() < 0.6:
                q = min(0.95, max(0.05, p + rng.choice((-1, 1)) * rng.uniform(0.1, 0.15)))
            for delta, w in zip(deltas, (p, q)):
                delta += [_d(s, a, x, w), _d(s, a, y, 1.0 - w)]
    return {
        "states": states, "actions": actions, "initial": "s0",
        "models": [{"name": "M1", "delta": deltas[0]}, {"name": "M2", "delta": deltas[1]}],
    }


def _d(s: str, a: str, t: str, p: float) -> dict:
    return {"from": s, "action": a, "to": t, "p": p}


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Run:
    def __init__(self, w: Workload, seed: int, trace: bool):
        self.w, self.seed, self.trace = w, seed, trace
        self.dir = WORK / w.name
        # The untraced run runs every operation once per CPU at the same time,
        # each copy pinned to its CPU and working in its own lane directory.
        self.cpus = CPUS[:1] if trace else CPUS
        self.lanes = [self.dir / f"lane{i}" for i in range(len(self.cpus))]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.setup: list[float] = []
        self.rounds: list[list[Path]] = []  # per complete round: its trace files
        self.samples: dict[str, list[float]] = {}  # stage -> wall times of its processes
        self.mc_calls: dict[int, list[float]] = {}  # Monte-Carlo case -> seconds of its calls
        self.mc_trials: dict[int, int] = {}  # Monte-Carlo case -> trials per call
        self.mc_gauges: dict[int, list[float]] = {}  # Monte-Carlo case -> reference time around each call
        self.reference: dict = {}  # independent values, computed once per distinct output
        self.entries: dict | None = None  # the synthesized policy, once checked
        self.seen: dict[str, str] = {}  # output kind -> sha256 of the first output
        self.last_mc: tuple[list, list] | None = None
        self.gauge_s: list[float] = []  # wall times of bench/reference.py in this run
        self.peak_rss_kb = 0  # largest peak resident memory of the program's children
        self.deadline = time.monotonic() + RUN_LIMIT_S

    # -- operations ---------------------------------------------------------

    def cli(self, args: Callable[[Path], list[str]], trace_out: Path | None) -> list[float] | None:
        """One CLI process per lane, ``args(lane)`` its arguments; their wall times,
        or None when one failed."""
        self.gauge()
        cmds = []
        for lane in self.lanes:
            if trace_out is None:
                cmds.append([sys.executable, "-m", "mdpdetect.cli", *args(lane)])
            else:
                cmds.append([sys.executable, str(BENCH / "tracer.py"), str(trace_out), "--", *args(lane)])
        return self.operations(cmds, args(self.lanes[0])[0], 1)

    def operations(self, cmds: list[list[str]], what: str, count: int) -> list[float] | None:
        """Run one command per lane; each counts as ``count`` operations."""
        self.attempted += count * len(cmds)
        results = self._spawn(cmds)
        for code, err, _ in results:
            if code != 0:
                self.failed += count
                print(f"{what} exited {code}: {err.strip()[-500:]}", file=sys.stderr)
        return None if any(code != 0 for code, _, _ in results) else [e for _, _, e in results]

    def gauge(self) -> None:
        """Time the fixed reference job, once per lane at the same time, before an
        operation of the untraced run."""
        for _ in range(0 if self.trace else 1):
            for code, err, elapsed in self._spawn(
                    [[sys.executable, str(BENCH / "reference.py")]] * len(self.lanes), program=False):
                if code != 0:
                    self.problems.append(f"reference job exited {code}: {err.strip()[-300:]}")
                else:
                    self.gauge_s.append(elapsed)

    def _spawn(self, cmds: list[list[str]], program: bool = True) -> list[tuple[int | None, str, float]]:
        """Start command i in lane i, pinned to CPU i, all at once, and wait for all:
        exit code (None when it timed out), standard error and wall time of each.
        The peak resident memory of the program's children (not the reference
        job's) is kept."""
        env = {**CHILD_ENV, "BENCH_SPAWN_TIME": repr(time.time())}
        errs = [open(lane / "stderr.txt", "w+", encoding="utf-8") for lane in self.lanes[:len(cmds)]]
        procs: list[subprocess.Popen] = []
        timed_out: list[bool] = []
        ended: dict[int, tuple[int | None, float]] = {}

        def kill_all() -> None:
            timed_out.append(True)
            for proc in procs:
                proc.kill()  # a no-op for a child already reaped (its returncode is set)

        timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), kill_all)
        try:
            start = time.perf_counter()
            for cmd, err, cpu in zip(cmds, errs, self.cpus):
                procs.append(subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=err))
                os.sched_setaffinity(procs[-1].pid, {cpu})
            timer.start()
            by_pid = {proc.pid: k for k, proc in enumerate(procs)}
            while len(ended) < len(procs):
                # wait4 on any child, unlike Popen.wait, gives each child's own
                # end time and rusage whatever order they end in
                pid, status, usage = os.wait4(-1, 0)
                if pid not in by_pid:
                    continue
                k = by_pid[pid]
                procs[k].returncode = os.waitstatus_to_exitcode(status)
                ended[k] = (procs[k].returncode, time.perf_counter() - start)
                if program:
                    self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        except BaseException:  # SIGTERM or Ctrl-C: stop the children before leaving
            for proc in procs:
                if proc.returncode is None:
                    proc.kill()
                    proc.wait()
            raise
        finally:
            timer.cancel()
            texts = []
            for err in errs:
                err.seek(0)
                texts.append(err.read())
                err.close()
        if timed_out:
            return [(None, "timed out", ended[k][1]) for k in range(len(procs))]
        return [(ended[k][0], texts[k], ended[k][1]) for k in range(len(procs))]

    def check(self, what: str, problems: list[str]) -> None:
        self.problems += [f"{what}: {p}" for p in problems[:5]]

    def same_bytes(self, kind: str, path: Path) -> None:
        """Outputs of identical operations repeat byte for byte across lanes and rounds."""
        digest = _sha(path)
        if self.seen.setdefault(kind, digest) != digest:
            self.problems.append(f"{kind}: bytes differ from an earlier output")

    # -- set-up -------------------------------------------------------------

    def prepare(self) -> None:
        w = self.w
        for lane in self.lanes:
            lane.mkdir()
        if w.random_pairs:
            (self.dir / "sqrt-half.json").write_text(json.dumps(sqrt_half_doc()))
            rng = random.Random(self.seed)
            for k in range(w.random_pairs):
                (self.dir / f"pair{k}.json").write_text(json.dumps(random_pair_doc(rng)))
        spec = BENCH / "specs" / f"{w.name}.json"
        for _ in range(w.setup_repeats):
            elapsed = self.cli(lambda lane: ["gen", w.gen, str(spec), "--out", str(lane / "setup-model.json")], None)
            if elapsed is not None:
                self.setup += elapsed
                self.samples.setdefault("gen", []).extend(elapsed)
                for lane in self.lanes:
                    self.same_bytes("gen", lane / "setup-model.json")
        if self.setup:
            self.model = checks.load_model((self.lanes[0] / "setup-model.json").read_text())
            self.check("gen", checks.check_model(self.model, w.states, w.models))

    # -- one round ----------------------------------------------------------

    def round(self, r: int) -> None:
        w = self.w
        traces: list[Path] = []

        def traced(stage: str) -> Path | None:
            if not self.trace:
                return None
            traces.append(self.lanes[0] / f"trace-r{r}-{stage}.json")
            return traces[-1]

        reps = (1, 1, 1) if self.trace else w.stage_reps
        spec = str(BENCH / "specs" / f"{w.name}.json")
        stages: list[tuple[str, int, Callable[[Path], list[str]]]] = [
            ("gen", 1, lambda d: ["gen", w.gen, spec, "--out", str(d / "model.json")]),
            ("synthesize", reps[0], lambda d: ["synthesize", str(d / "model.json"), "--out", str(d / "policy.json")]),
            ("simulate", reps[1], lambda d: [
                "simulate", str(d / "model.json"), str(d / "policy.json"), "--seed", str(self.seed),
                "--trials", str(w.trials), "--out", str(d / "batch.json")]),
            ("bc", reps[2], lambda d: [
                "bc", str(d / "model.json"), str(d / "policy.json"), "--horizon", str(w.horizon),
                "--out", str(d / "bc.csv")]),
        ]
        for k, (stage, count, args) in enumerate(stages):
            for done in range(count):
                elapsed = self.cli(args, traced(stage))
                if elapsed is None:  # later operations need this output: count them as failed
                    later = sum(c for _, c, _ in stages[k + 1:])
                    skipped = (count - done - 1 + later + len(self.mc_cases(self.lanes[0]))) * len(self.lanes)
                    self.attempted += skipped
                    self.failed += skipped
                    return
                self.samples.setdefault(stage, []).extend(elapsed)
                for lane in self.lanes:
                    getattr(self, f"check_{stage}")(lane)
        if self.monte_carlo(traced("mc")):
            self.rounds.append(traces)

    def check_gen(self, lane: Path) -> None:
        self.same_bytes("gen", lane / "model.json")

    def check_synthesize(self, lane: Path) -> None:
        path = lane / "policy.json"
        self.same_bytes("synthesize", path)
        if self.entries is not None:  # same bytes as the policy already checked
            return
        self.entries = checks.load_policy(path.read_text())
        self.check("policy", checks.check_policy(self.model, self.entries))
        self.reference["bc"], self.reference["b_at"] = self.independent_bc()

    def independent_bc(self) -> tuple[dict, dict]:
        """Reference curves for the bc check, and B at each Monte-Carlo horizon."""
        w = self.w
        if len(self.entries) == 1:
            (entry,) = self.entries.values()
            table = checks.flatten_single_entry(self.model, entry)
            curve = checks.bc_matrix_curve(self.model, table, (1, 2), max(w.horizon, *w.mc_t))
            return {(1, 2): curve[: w.horizon + 1]}, {t: {(1, 2): curve[t]} for t in w.mc_t}
        curves, problems = checks.bc_enumerated(self.model, self.entries, w.enum_depth)
        self.check("enumeration", problems)
        return curves, {t: {p: v[t] for p, v in curves.items()} for t in w.mc_t}

    def check_simulate(self, lane: Path) -> None:
        path = lane / "batch.json"
        self.same_bytes("simulate", path)
        summary = json.loads(path.read_text())
        self.check("simulate", checks.check_batch(
            summary, self.w.trials, self.w.models, THRESHOLD, self.delta()))

    def check_bc(self, lane: Path) -> None:
        curves = checks.parse_bc_csv((lane / "bc.csv").read_text())
        self.curves = curves
        self.check("bc", self.bc_problems(curves))

    def bc_problems(self, curves: dict) -> list[str]:
        n = self.w.models
        return checks.check_curve_shape(curves, self.w.horizon, n * (n - 1) // 2) + \
            checks.check_curve_values(curves, self.reference["bc"])

    # -- Monte Carlo ----------------------------------------------------------

    def mc_cases(self, lane: Path) -> list[dict]:
        """The Monte-Carlo cases of one round in a lane; their seeds derive from the
        workload seed, so every lane's estimates agree."""
        w = self.w
        repeats = 1 if self.trace else w.mc_repeats
        cases = [{"model": str(lane / "model.json"), "policy": str(lane / "policy.json"), "t": t,
                  "trials": w.mc_trials, "repeats": repeats} for t in w.mc_t]
        if w.random_pairs:
            pairs = [self.dir / "sqrt-half.json"] + [self.dir / f"pair{k}.json" for k in range(w.random_pairs)]
            cases += [{"model": str(m), "policy": None, "t": t, "trials": SANDWICH_TRIALS,
                       "repeats": 1} for m in pairs for t in SANDWICH_T]
        for k, case in enumerate(cases):
            case["seed"] = self.seed * 1000 + k
        return cases

    def mc_bounds(self, case: dict) -> tuple[float, float]:
        if case["policy"] is not None:
            return checks.error_bounds(self.reference["b_at"][case["t"]], self.w.models)
        key = ("uniform", case["model"])
        if key not in self.reference:
            model = checks.load_model(Path(case["model"]).read_text())
            table = {s: {a: 1.0 / len(acts) for a in acts} for s, acts in model.actions.items()}
            curve = checks.bc_matrix_curve(model, table, (1, 2), max(SANDWICH_T))
            if case["model"].endswith("sqrt-half.json"):
                closed = [2.0 ** (-t / 2) for t in range(len(curve))]
                self.check("sqrt_half closed form", checks.check_curve_values(
                    {(1, 2): curve}, {(1, 2): closed}))
            self.reference[key] = curve
        return checks.error_bounds({(1, 2): self.reference[key][case["t"]]}, 2)

    def monte_carlo(self, trace_out: Path | None) -> bool:
        cmds, jobs = [], []
        for lane in self.lanes:
            cases = self.mc_cases(lane)
            job, out = lane / "mc-job.json", lane / "mc-result.json"
            job.write_text(json.dumps({"cases": cases}))
            cmds.append([sys.executable, str(BENCH / "mc_worker.py"), str(job), str(out)]
                        + (["--trace"] if trace_out is not None else []))
            jobs.append((cases, out))
        self.gauge()
        if self.operations(cmds, "mc_worker", len(jobs[0][0])) is None:
            return False
        complete = True
        for cases, out in jobs:
            result = json.loads(out.read_text())
            if trace_out is not None:
                shutil.copy(out, trace_out)
            estimates = []
            for k, (case, outcome) in enumerate(zip(cases, result["cases"])):
                if "error" in outcome:
                    self.failed += 1
                    print(f"monte_carlo_error failed: {outcome['error']}", file=sys.stderr)
                    continue
                lower, upper = self.mc_bounds(case)
                self.check(f"mc {Path(case['model']).name} t={case['t']}", checks.check_sandwich(
                    outcome["estimate"], case["trials"], lower, upper, self.delta()))
                self.mc_calls.setdefault(k, []).extend(outcome["seconds"])
                self.mc_gauges.setdefault(k, []).extend(outcome.get("gauge_s", []))
                self.mc_trials[k] = case["trials"]
                estimates.append(outcome["estimate"])
            if self.seen.setdefault("mc", repr(estimates)) != repr(estimates):
                self.problems.append("mc: estimates differ from an earlier output")
            self.last_mc = (cases, result["cases"])
            complete = complete and len(estimates) == len(cases)
        return complete

    def delta(self) -> float:
        """Bonferroni share of FALSE_ALARM for each statistical check of a run. Lanes
        and rounds repeat the same seeds, so they add no further chances."""
        return FALSE_ALARM / (1 + len(self.mc_cases(self.lanes[0])))

    # -- negative cases -----------------------------------------------------

    def negative_cases(self) -> None:
        """Faults planted in this run's outputs; each check must catch its fault."""
        if not self.rounds or self.entries is None:
            return
        caught: dict[str, bool] = {}
        entries = self.entries
        # a sub-entry that a played transition leads to, else the initial entry
        required = checks.referenced_entries(self.model, entries)
        victim = required[-1] if required else (tuple(range(1, self.w.models + 1)), self.model.initial)
        pruned = {k: e for k, e in entries.items() if k != victim}
        caught["policy entry removed"] = bool(checks.check_policy(self.model, pruned))
        for key, e in entries.items():
            comps = [k for k, c in enumerate(e.components) if len(c) >= 2]
            if comps:
                broken = copy.deepcopy(entries)
                comp = broken[key].components[comps[0]]
                del comp[max(s for s in comp if s != e.state)]
                caught["component action leaving its component"] = bool(
                    checks.check_policy(self.model, broken))
                break
        cases, outcomes = self.last_mc or ([], [])
        case, outcome = (cases[0], outcomes[0]) if cases else ({}, {})
        if "estimate" in outcome:
            lower, upper = self.mc_bounds(case)
            lo = checks.binomial_limit(lower, case["trials"], self.delta(), upper=False)
            hi = checks.binomial_limit(upper, case["trials"], self.delta(), upper=True)
            moved = lo - 0.01 if lo >= 0.01 else hi + 0.01
            caught["MC estimate outside the sandwich"] = bool(
                checks.check_sandwich(moved, case["trials"], lower, upper, self.delta()))
        raised = {p: list(v) for p, v in self.curves.items()}
        first = min(raised)
        raised[first][min(2, self.w.horizon)] += 1e-6
        caught["bc value raised"] = bool(self.bc_problems(raised))
        for name, ok in caught.items():
            if not ok:
                self.problems.append(f"negative case not caught: {name}")
        print(f"negative cases caught: {sum(caught.values())}/{len(caught)} ({', '.join(caught)})")

    # -- results ------------------------------------------------------------

    def end_to_end(self) -> tuple[dict[str, float], dict[str, float]]:
        """Means over the run's samples of each timed operation, as measured and at
        the reference speed: times scaled by REFERENCE_S over the run's mean
        reference time, throughput by its inverse. Means, not medians: a CPU
        switches between a fast and a slow state, and a median of a few samples
        jumps between the two."""
        if not self.rounds or not self.setup or not self.gauge_s:
            raise SystemExit("no complete round: nothing to report")
        stage = {s: statistics.fmean(v) for s, v in self.samples.items()}
        wall = {
            "setup_s": statistics.fmean(self.setup),
            "synthesize_s": stage["synthesize"],
            "simulate_s": stage["simulate"],
            "bc_s": stage["bc"],
            "pipeline_s": sum(stage.values()),
            "mc_trials_per_s": sum(self.mc_trials.values()) / sum(
                statistics.fmean(v) for v in self.mc_calls.values()),
            "reference_s": statistics.fmean(self.gauge_s),
        }
        scale = REFERENCE_S / wall["reference_s"]
        scaled = {k: v * scale for k, v in wall.items() if k not in ("reference_s", "mc_trials_per_s")}
        # Monte-Carlo calls run in one process per lane, between reference jobs
        # timed in that process: each call is scaled by the ones around it.
        scaled["mc_trials_per_s"] = sum(self.mc_trials.values()) / sum(
            statistics.fmean(s * REFERENCE_S / g for s, g in zip(v, self.mc_gauges[c]))
            for c, v in self.mc_calls.items())
        scaled["peak_rss_mb"] = self.peak_rss_kb / 1024.0
        return scaled, wall

    def per_layer(self) -> dict[str, float]:
        per_round = []
        for traces in self.rounds:
            spans: dict[str, list] = {}
            counters: dict[str, int] = {}
            startups = []
            for path in traces:
                data = json.loads(path.read_text())
                if not path.name.endswith("-mc.json"):
                    startups.append(data["startup_s"])
                for name, rec in data["spans"].items():
                    acc = spans.setdefault(name, [0.0, 0.0, 0])
                    for k in range(3):
                        acc[k] += rec[k]
                for name, v in data["counters"].items():
                    counters[name] = counters.get(name, 0) + v
            counters["cli.startup_s"] = statistics.median(startups)
            per_round.append({name: f(spans, counters) for name, (_, f) in PER_LAYER.items()})
        if not per_round:
            raise SystemExit("no complete round: nothing to report")
        return {name: statistics.median(v[name] for v in per_round) for name in per_round[0]}


def preflight() -> None:
    """The package must import from this checkout's src/ before anything is timed."""
    probe = "import mdpdetect.cli, sys; print(sys.modules['mdpdetect'].__file__)"
    proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, env=CHILD_ENV,
                          capture_output=True, text=True, timeout=60)
    where = Path(proc.stdout.strip() or "/nonexistent").resolve()
    if proc.returncode != 0 or ROOT / "src" not in where.parents:
        print(f"mdpdetect does not import from {ROOT / 'src'}: {proc.stderr.strip()[-300:]}",
              file=sys.stderr)
        sys.exit(2)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # SIGTERM unwinds like Ctrl-C, so _spawn kills and reaps the running child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    preflight()
    run = Run(WORKLOADS[args.workload], args.seed, bool(args.trace))
    shutil.rmtree(run.dir, ignore_errors=True)
    run.dir.mkdir(parents=True)

    run.prepare()
    # Whole rounds; another one only when it should end within --seconds.
    start = time.perf_counter()
    r = 0
    while r == 0 or (time.perf_counter() - start) * (r + 1) / r <= args.seconds:
        run.round(r)
        r += 1
    run.negative_cases()
    for p in run.problems:
        print(f"CHECK FAILED {p}", file=sys.stderr)

    print(f"samples (s): {json.dumps({**run.samples, 'mc': list(run.mc_calls.values()), 'reference': run.gauge_s})}")
    if run.trace:
        values, units = run.per_layer(), {k: u for k, (u, _) in PER_LAYER.items()}
    else:
        values, wall = run.end_to_end()
        units = END_TO_END
        print(f"wall (as measured): {json.dumps(wall)}")
    metrics = {k: {"value": values[k], "unit": units[k]} for k in sorted(values)}
    print(f"rounds: {r}")
    print(json.dumps({"correct": not run.problems, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
