"""A fixed pure-Python job that gauges the machine's speed during a run.

    python3 bench/reference.py

It never imports mdpdetect and does the same work on every call: start the
interpreter, JSON round trips, dict and set building and float loops over a
small table, then scattered reads over a few hundred thousand objects, which
miss the caches the way the CLI stages' large models do. run.py times it
as its own process before every timed operation of a run and scales the CLI
times by the run's mean reference time; mc_worker.py runs it in-process
between Monte-Carlo calls (see README.md, "Speed correction").
"""

from __future__ import annotations

import json
import random


def main() -> None:
    rng = random.Random(12345)
    rows = [
        {"from": f"s{i}", "to": [f"s{rng.randrange(600)}" for _ in range(4)],
         "p": [rng.random() for _ in range(4)]}
        for i in range(2000)
    ]
    text = json.dumps({"rows": rows})
    acc = 0.0
    for _ in range(2):
        doc = json.loads(text)
        table: dict[tuple[str, str], float] = {}
        seen: set[str] = set()
        for row in doc["rows"]:
            for t, p in zip(row["to"], row["p"]):
                table[(row["from"], t)] = table.get((row["from"], t), 0.0) + p
                seen.add(t)
        for k in range(8):
            for v in table.values():
                acc += v * 0.5 if k % 2 else -v * 0.5
        text = json.dumps({"rows": doc["rows"], "seen": sorted(seen)})
    if not -1.0 < acc < 1.0:  # each odd pass cancels the even pass before it
        raise SystemExit(f"reference job went wrong: {acc}")

    cells = {f"c{i}": (i % 7, float(i)) for i in range(60_000)}
    keys = list(cells)
    rng.shuffle(keys)
    total = 0
    for _ in range(2):
        for key in keys:
            total += cells[key][0]
    if total != 2 * sum(i % 7 for i in range(60_000)):
        raise SystemExit(f"reference job went wrong: {total}")


if __name__ == "__main__":
    main()
