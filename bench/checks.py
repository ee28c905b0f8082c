"""Checks of mdpdetect outputs that do not use mdpdetect.

Everything here reads the model, policy, CSV and JSON files the CLI writes and
recomputes what it can from them: the policy's structural properties, the
Bhattacharyya coefficients by square-root-kernel matrix powers or by exact
enumeration of short histories, the MAP error bounds, and the statistical
limits a correct Monte-Carlo estimate or simulation batch stays within.
Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# Absolute tolerance between two routes to the same coefficient. The program
# sums in hash-dependent order, so bytes differ between processes, but values
# agree to a few ulps.
BC_ATOL = 1e-12


# ---------------------------------------------------------------------------
# Models and policies as plain data
# ---------------------------------------------------------------------------


@dataclass
class Model:
    states: list[str]
    actions: dict[str, list[str]]
    initial: str
    n: int
    # (state, action) -> successor -> per-model probabilities (index 0 = model 1)
    rows: dict[tuple[str, str], dict[str, list[float]]]
    # (state, action) -> [(successor, bit set of the models allowing it; bit k-1 = model k)]
    masks: dict[tuple[str, str], list[tuple[str, int]]]


def load_model(text: str) -> Model:
    doc = json.loads(text)
    n = len(doc["models"])
    rows: dict[tuple[str, str], dict[str, list[float]]] = {}
    for k, m in enumerate(doc["models"]):
        for d in m["delta"]:
            succ = rows.setdefault((d["from"], d["action"]), {})
            succ.setdefault(d["to"], [0.0] * n)[k] = float(d["p"])
    masks = {
        sa: [(s2, sum(1 << k for k, p in enumerate(probs) if p > 0.0)) for s2, probs in succ.items()]
        for sa, succ in rows.items()
    }
    return Model(doc["states"], doc["actions"], doc["initial"], n, rows, masks)


def check_model(model: Model, states: int, models: int) -> list[str]:
    problems = []
    if len(model.states) != states:
        problems.append(f"model has {len(model.states)} states, expected {states}")
    if model.n != models:
        problems.append(f"model file has {model.n} models, expected {models}")
    for s in model.states:
        for a in model.actions[s]:
            succ = model.rows.get((s, a), {})
            for k in range(model.n):
                total = sum(p[k] for p in succ.values())
                if abs(total - 1.0) > 1e-9:
                    problems.append(f"row ({s}, {a}) of model {k + 1} sums to {total!r}")
    return problems


@dataclass
class Entry:
    active: tuple[int, ...]
    state: str
    reach: dict[str, str]
    components: list[dict[str, list[str]]]


def load_policy(text: str) -> dict[tuple[tuple[int, ...], str], Entry]:
    entries = {}
    for raw in json.loads(text)["entries"]:
        e = Entry(
            tuple(raw["active"]), raw["entry_state"], dict(raw["reach"]),
            [dict(c["states"]) for c in raw["mecs"]],
        )
        entries[(e.active, e.state)] = e
    return entries


def _bits(active: tuple[int, ...]) -> int:
    return sum(1 << (k - 1) for k in active)


def _models(bits: int) -> tuple[int, ...]:
    return tuple(k + 1 for k in range(bits.bit_length()) if bits >> k & 1)


def _component_of(entry: Entry, s: str) -> int | None:
    for k, comp in enumerate(entry.components):
        if s in comp:
            return k
    return None


def _played(entry: Entry, s: str) -> list[str]:
    k = _component_of(entry, s)
    if k is not None:
        return entry.components[k][s]
    return [entry.reach[s]] if s in entry.reach else []


def check_policy(model: Model, entries: dict[tuple[tuple[int, ...], str], Entry]) -> list[str]:
    """Structural properties every synthesized entry ``(A, s0)`` must have.

    1. Transitions that all of ``A`` allow stay inside the entry's reach
       domain and components, and a component's inside the component.
    2. A transition leaving at least two of ``A`` alive has an entry for
       ``(survivors, successor)``.
    3. Every component holds, for every pair in ``A``, an action whose two
       rows differ.
    4. Every reach state has a path under its played action to a component
       or to an elimination.
    """
    problems: list[str] = []

    full = tuple(range(1, model.n + 1))
    if (full, model.initial) not in entries:
        problems.append(f"no entry for the initial configuration {full}, {model.initial!r}")
    for (active, s0), e in sorted(entries.items()):
        tag = f"entry {list(active)}@{s0}"
        malformed = []
        if len(active) < 2 or list(active) != sorted(set(active)) or active[-1] > model.n:
            malformed.append(f"{tag}: malformed active set")
        owners: dict[str, int] = {}
        for k, comp in enumerate(e.components):
            for s, acts in comp.items():
                if s in owners:
                    malformed.append(f"{tag}: state {s!r} lies in two components")
                owners[s] = k
                if not acts or any(a not in model.actions.get(s, ()) for a in acts):
                    malformed.append(f"{tag}: component actions {acts} invalid at {s!r}")
        for s, a in e.reach.items():
            if a not in model.actions.get(s, ()):
                malformed.append(f"{tag}: reach action {a!r} invalid at {s!r}")
        if malformed:
            problems.extend(malformed)
            continue
        domain = set(e.reach) | set(owners)
        if s0 not in domain:
            problems.append(f"{tag}: entry state outside the reach domain and components")
        abits = _bits(active)
        exits: set[str] = set()  # states with an eliminating successor
        for s in sorted(domain):
            comp = owners.get(s)
            for a in _played(e, s):
                for s2, mask in model.masks[(s, a)]:
                    sub = mask & abits
                    if sub == abits:
                        if comp is not None and owners.get(s2) != comp:
                            problems.append(f"{tag}: component action ({s}, {a}) leaves to {s2!r}")
                        elif s2 not in domain:
                            problems.append(f"{tag}: ({s}, {a}) leaves the domain to {s2!r}")
                    elif sub:
                        exits.add(s)
                        if sub & (sub - 1) and (_models(sub), s2) not in entries:
                            problems.append(f"{tag}: no entry for {list(_models(sub))}@{s2} after ({s}, {a})")
        pairs = [(i, j) for x, i in enumerate(active) for j in active[x + 1:]]
        for k, comp in enumerate(e.components):
            for i, j in pairs:
                if not any(
                    _rows_differ(model.rows[(s, a)], i, j) for s, acts in comp.items() for a in acts
                ):
                    problems.append(f"{tag}: component {k} has no action telling {i} from {j}")
        good = set(owners) | exits
        changed = True
        while changed:
            changed = False
            for s in e.reach:
                if s in good:
                    continue
                a = e.reach[s]
                if any(s2 in good and mask & abits == abits for s2, mask in model.masks[(s, a)]):
                    good.add(s)
                    changed = True
        for s in sorted(set(e.reach) - good):
            problems.append(f"{tag}: reach state {s!r} leads neither to a component nor to an elimination")
    return problems


def referenced_entries(model: Model, entries: dict[tuple[tuple[int, ...], str], Entry]) -> list:
    """Entry keys that a played transition of another entry leads to, sorted."""
    keys = set()
    for (active, _), e in entries.items():
        abits = _bits(active)
        for s in set(e.reach) | {s for c in e.components for s in c}:
            for a in _played(e, s):
                for s2, mask in model.masks[(s, a)]:
                    sub = mask & abits
                    if sub != abits and sub & (sub - 1):
                        keys.add((_models(sub), s2))
    return sorted(k for k in keys if k in entries)


def _rows_differ(succ: dict[str, list[float]], i: int, j: int) -> bool:
    return any(abs(p[i - 1] - p[j - 1]) > 1e-12 for p in succ.values())


# ---------------------------------------------------------------------------
# Bhattacharyya coefficients
# ---------------------------------------------------------------------------


def parse_bc_csv(text: str) -> dict[tuple[int, int], list[float]]:
    lines = text.strip().splitlines()
    header = lines[0].split(",")
    names = [(1, 2)] if header == ["t", "B"] else [
        tuple(int(x) for x in h.split("_")[1:]) for h in header[1:]
    ]
    curves: dict[tuple[int, int], list[float]] = {p: [] for p in names}
    for t, line in enumerate(lines[1:]):
        cells = line.split(",")
        if int(cells[0]) != t:
            raise ValueError(f"bc CSV row {t} is labelled {cells[0]}")
        for p, cell in zip(names, cells[1:]):
            curves[p].append(float(cell))
    return curves


def check_curve_shape(curves: dict[tuple[int, int], list[float]], horizon: int, pairs: int) -> list[str]:
    """Curves start at 1, never increase, and stay in [0, 1]."""
    problems = []
    if len(curves) != pairs:
        problems.append(f"bc has {len(curves)} pairs, expected {pairs}")
    for p, v in curves.items():
        if len(v) != horizon + 1:
            problems.append(f"B_{p}: {len(v)} values, expected {horizon + 1}")
            continue
        if abs(v[0] - 1.0) > BC_ATOL:
            problems.append(f"B_{p}(0) = {v[0]!r}, expected 1")
        for t in range(horizon):
            if v[t + 1] > v[t] + BC_ATOL:
                problems.append(f"B_{p} increases at t={t}: {v[t]!r} -> {v[t + 1]!r}")
        if any(not -BC_ATOL <= x <= 1.0 + BC_ATOL for x in v):
            problems.append(f"B_{p} leaves [0, 1]")
    return problems


def check_curve_values(
    curves: dict[tuple[int, int], list[float]], reference: dict[tuple[int, int], list[float]]
) -> list[str]:
    """Every reference value (any prefix of the horizon) is matched within BC_ATOL."""
    problems = []
    for p, ref in reference.items():
        got = curves.get(p)
        if got is None:
            problems.append(f"B_{p} missing")
            continue
        for t, r in enumerate(ref):
            if abs(got[t] - r) > BC_ATOL:
                problems.append(f"B_{p}({t}) = {got[t]!r}, independent value {r!r}")
                break
    return problems


def flatten_single_entry(model: Model, entry: Entry) -> dict[str, dict[str, float]]:
    """Stationary table of a one-entry policy: components uniform, reach deterministic."""
    table = {s: {a: 1.0} for s, a in entry.reach.items()}
    for comp in entry.components:
        for s, acts in comp.items():
            table[s] = {a: 1.0 / len(acts) for a in acts}
    return table


def bc_matrix_curve(
    model: Model, table: dict[str, dict[str, float]], pair: tuple[int, int], horizon: int
) -> list[float]:
    """B(0..horizon) as sums of rows of powers of the square-root-kernel matrix."""
    index = {s: k for k, s in enumerate(model.states)}
    i, j = pair[0] - 1, pair[1] - 1
    w = np.zeros((len(model.states), len(model.states)))
    for s, dist in table.items():
        for a, pa in dist.items():
            for s2, p in model.rows[(s, a)].items():
                w[index[s], index[s2]] += pa * math.sqrt(p[i] * p[j])
    v = np.zeros(len(model.states))
    v[index[model.initial]] = 1.0
    values = [1.0]
    for _ in range(horizon):
        v = v @ w
        values.append(float(v.sum()))
    return values


def bc_enumerated(
    model: Model, entries: dict[tuple[tuple[int, ...], str], Entry], depth: int
) -> tuple[dict[tuple[int, int], list[float]], list[str]]:
    """B_ij(0..depth) for every pair by enumerating every history under the composite policy.

    The controller is replayed from the policy file: it enters the entry of
    the models still possible, commits to the first component it arrives in,
    and randomizes uniformly there; before that it plays the reach action.
    """
    n = model.n
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    totals = {p: [0.0] * (depth + 1) for p in pairs}
    problems: list[str] = []
    full = tuple(range(1, n + 1))
    start = entries.get((full, model.initial))
    if start is None:
        return totals, ["no initial entry"]
    stack = [(0, start, _component_of(start, model.initial), model.initial, 1.0, [1.0] * n)]
    while stack:
        t, entry, comp, s, weight, probs = stack.pop()
        for i, j in pairs:
            totals[(i, j)][t] += weight * math.sqrt(probs[i - 1] * probs[j - 1])
        if t == depth:
            continue
        if comp is not None:
            acts = entry.components[comp].get(s, [])
            dist = [(a, 1.0 / len(acts)) for a in acts]
        else:
            dist = [(entry.reach[s], 1.0)] if s in entry.reach else []
        if not dist:
            problems.append(f"policy plays nothing at {s!r} in entry {list(entry.active)}@{entry.state}")
            continue
        for a, pa in dist:
            for s2, ps in model.rows[(s, a)].items():
                nxt = [p * q for p, q in zip(probs, ps)]
                alive = tuple(k + 1 for k in range(n) if nxt[k] > 0.0)
                if len(alive) < 2:
                    continue
                if alive == entry.active:
                    stack.append((t + 1, entry, comp if comp is not None else _component_of(entry, s2), s2, weight * pa, nxt))
                    continue
                sub = entries.get((alive, s2))
                if sub is None:
                    problems.append(f"no entry for {list(alive)}@{s2}")
                    continue
                stack.append((t + 1, sub, _component_of(sub, s2), s2, weight * pa, nxt))
    return totals, problems


# ---------------------------------------------------------------------------
# MAP error bounds and statistical limits
# ---------------------------------------------------------------------------


def error_bounds(b: dict[tuple[int, int], float], n: int) -> tuple[float, float]:
    """Bhattacharyya bounds on the MAP error for n equiprobable hypotheses.

    lower = 1/2 max_k sum_{i != k} min(theta_i, theta_k) B_ik^2 and
    upper = sum_{i < j} sqrt(theta_i theta_j) B_ij (clamped to 1); for n = 2
    they are B^2/4 and B/2.
    """
    theta = 1.0 / n
    lower = 0.5 * max(
        sum(theta * b[(min(i, k), max(i, k))] ** 2 for i in range(1, n + 1) if i != k)
        for k in range(1, n + 1)
    )
    upper = sum(theta * v for v in b.values())
    return lower, min(upper, 1.0)


def _kl(x: float, p: float) -> float:
    def term(a: float, b: float) -> float:
        return 0.0 if a == 0.0 else a * math.log(a / b)
    return term(x, p) + term(1.0 - x, 1.0 - p)


def binomial_limit(p: float, n: int, delta: float, upper: bool) -> float:
    """Chernoff limit for a mean of n Bernoulli(p) draws.

    Returns x with P(mean >= x) <= delta (upper) or P(mean <= x) <= delta
    (lower), from P <= exp(-n KL(x || p)).
    """
    target = math.log(1.0 / delta) / n
    if upper:
        if p >= 1.0 or _kl(1.0, p) < target:
            return 1.0
        lo, hi = p, 1.0
    else:
        if p <= 0.0 or _kl(0.0, p) < target:
            return 0.0
        lo, hi = 0.0, p
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (_kl(mid, p) < target) == upper:
            lo = mid
        else:
            hi = mid
    return hi if upper else lo


def check_sandwich(estimate: float, trials: int, lower: float, upper: float, delta: float) -> list[str]:
    """The estimate lies within the bounds widened by the Chernoff limits."""
    lo = binomial_limit(lower, trials, delta, upper=False)
    hi = binomial_limit(upper, trials, delta, upper=True)
    if lo <= estimate <= hi:
        return []
    return [f"MC estimate {estimate!r} outside [{lo:.6g}, {hi:.6g}] (bounds [{lower:.6g}, {upper:.6g}], {trials} trials)"]


def check_batch(summary: dict, trials: int, n: int, threshold: float, delta: float) -> list[str]:
    """A `simulate --trials` summary under the MAP stopping rule, truth drawn from the prior.

    Given a stop at the threshold, the MAP choice is wrong with probability
    at most 1 - threshold, so the errors among threshold stops are dominated
    by a binomial count.
    """
    problems = []
    reasons = summary["stop_reasons"]
    if summary["trials"] != trials or sum(reasons.values()) != trials:
        problems.append(f"batch accounts for {sum(reasons.values())} of {trials} trials")
    if reasons.get("undetectable", 0):
        problems.append(f"{reasons['undetectable']} episodes stopped undetectable")
    per_truth = summary["per_truth"]
    if sorted(per_truth) != [str(k) for k in range(1, n + 1)]:
        problems.append(f"per_truth keys {sorted(per_truth)}")
    elif sum(v["runs"] for v in per_truth.values()) != trials:
        problems.append("per_truth runs do not add up to the trials")
    stops = reasons.get("threshold", 0)
    if stops:
        errors = round(stops * (1.0 - summary["threshold_accuracy"]))
        limit = binomial_limit(1.0 - threshold, stops, delta, upper=True)
        if errors / stops >= limit:
            problems.append(f"{errors} errors among {stops} threshold stops, limit {limit:.4g}")
    return problems
