"""Run ``monte_carlo_error`` cases from a job file; the library call has no CLI.

    python3 bench/mc_worker.py JOB.json RESULT.json [--trace]

JOB.json holds ``{"cases": [{"model": path, "policy": path or null, "t": t,
"trials": n, "seed": s, "repeats": k}, ...]}``. A case without a policy file
runs under the uniform stationary policy. The worker parses every model and
builds every policy, then calls ``monte_carlo_error`` ``k`` times per case,
timing each call; the seeded calls must return the same estimate. Without
``--trace`` it also times reference.py's job in this process before the
first call and after every GAUGE_EVERY calls, and gives each call the mean
of the two reference times around it, so that run.py can correct the call
for the speed of the CPU at that moment. With ``--trace`` the layer spans of
tracer.py are recorded instead.
"""

from __future__ import annotations

import gc
import importlib
import json
import sys
import time

import reference

GAUGE_EVERY = 4  # Monte-Carlo calls between two in-process reference jobs


def main(argv: list[str]) -> int:
    job_path, out_path, *flags = argv
    models = importlib.import_module("mdpdetect.models")
    policy_mod = importlib.import_module("mdpdetect.policy")
    simulate = importlib.import_module("mdpdetect.simulate")
    tracer = None
    result: dict = {}
    if "--trace" in flags:
        import tracer as tracing

        result["startup_s"] = tracing.startup_seconds()
        tracer = tracing.Tracer()
        tracing.install(tracer)

    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    texts = {}
    for case in job["cases"]:
        for path in (case["model"], case["policy"]):
            if path is not None and path not in texts:
                with open(path, encoding="utf-8") as fh:
                    texts[path] = fh.read()

    mmdps = {path: models.parse_mmdp(texts[path]) for path in {c["model"] for c in job["cases"]}}
    policies = [
        policy_mod.parse_policy(texts[c["policy"]]) if c["policy"] is not None
        else policy_mod.stationary_uniform_policy(mmdps[c["model"]])
        for c in job["cases"]
    ]

    gauges: list[float] = []
    after: list[list[int]] = []  # per case: for each call, the index of the last gauge before it

    def gauge() -> None:
        if tracer is None:
            gc.disable()  # so that the job's time does not depend on the size of mdpdetect's heap
            start = time.perf_counter()
            reference.main()
            gauges.append(time.perf_counter() - start)
            gc.enable()

    gauge()
    calls = 0
    outcomes = []
    for case, policy in zip(job["cases"], policies):
        estimates, seconds = set(), []
        after.append([])
        try:
            for _ in range(case["repeats"]):
                start = time.perf_counter()
                estimates.add(simulate.monte_carlo_error(
                    mmdps[case["model"]], policy, case["t"], case["trials"], case["seed"]
                ))
                seconds.append(time.perf_counter() - start)
                after[-1].append(len(gauges) - 1)
                calls += 1
                if calls % GAUGE_EVERY == 0:
                    gauge()
        except Exception as exc:  # one failed case is counted, the others still run
            outcomes.append({"error": repr(exc)})
            continue
        if len(estimates) != 1:
            outcomes.append({"error": f"seeded calls disagree: {sorted(estimates)}"})
            continue
        (estimate, stderr), = estimates
        outcomes.append({"estimate": estimate, "stderr": stderr, "seconds": seconds})
    if calls % GAUGE_EVERY:
        gauge()
    if tracer is None:
        for outcome, marks in zip(outcomes, after):
            if "seconds" in outcome:
                outcome["gauge_s"] = [(gauges[g] + gauges[g + 1]) / 2 for g in marks]
    result["cases"] = outcomes
    if tracer is not None:
        result.update(tracer.dump())
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
