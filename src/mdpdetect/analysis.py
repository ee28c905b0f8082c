"""Quantitative detection metrics.

Two independent routes compute the Bhattacharyya coefficient of a binary pair
under a stationary policy: exhaustive history enumeration (the oracle, capped
horizon) and powers of the per-step square-root-kernel matrix (uncapped).
Composite memory policies get an exact dynamic program over the augmented
controller state. MAP error bounds come in binary and multi-hypothesis forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import ContractError, HorizonCapError, ModelError
from .models import Mdp, Mmdp
from .policy import ActiveSet, DetectionPolicy, active_set, survivors

StationaryPolicy = Mapping[str, Mapping[str, float]]

EXACT_HORIZON_CAP = 10


@dataclass(frozen=True)
class BcCurve:
    """Coefficient values B(0..horizon) for one model pair under one policy."""

    values: tuple[float, ...]
    pair: tuple[int, int] = (1, 2)
    policy_id: str = ""

    def check(self) -> list[str]:
        problems = []
        if not self.values or abs(self.values[0] - 1.0) > 1e-12:
            problems.append("curve must start at 1")
        for t in range(len(self.values) - 1):
            if self.values[t + 1] > self.values[t] + 1e-12:
                problems.append(f"curve increases at t={t}")
        if any(not -1e-12 <= v <= 1.0 + 1e-12 for v in self.values):
            problems.append("curve leaves [0, 1]")
        return problems


@dataclass(frozen=True)
class BcMatrix:
    """Square-root-kernel matrix W of a binary pair under a stationary policy.

    W[i, j] sums, over the actions the policy plays at state i, the action
    probability times the square root of the product of the two transition
    probabilities into j. B(t) is the initial row of W^t summed.
    """

    matrix: np.ndarray
    states: tuple[str, ...]
    initial: str
    policy_id: str = ""

    def bc_value(self, t: int) -> float:
        if t < 0:
            raise ModelError("horizon must be nonnegative")
        v = np.zeros(len(self.states))
        v[self.states.index(self.initial)] = 1.0
        for _ in range(t):
            v = v @ self.matrix
        return float(v.sum())

    def bc_curve(self, horizon: int) -> BcCurve:
        v = np.zeros(len(self.states))
        v[self.states.index(self.initial)] = 1.0
        values = [1.0]
        for _ in range(horizon):
            v = v @ self.matrix
            values.append(float(v.sum()))
        return BcCurve(values=tuple(values), policy_id=self.policy_id)

    def power_radius(self, iterations: int = 200) -> float:
        """Power-iteration estimate of the spectral radius."""
        x = np.ones(len(self.states))
        ratio = 0.0
        for _ in range(iterations):
            y = x @ self.matrix
            norm = float(np.abs(y).sum())
            if norm == 0.0:
                return 0.0
            ratio = norm / float(np.abs(x).sum())
            x = y / norm
        return ratio


def bc_exact(
    m1: Mdp, m2: Mdp, policy: StationaryPolicy, t: int, cap: int = EXACT_HORIZON_CAP
) -> float:
    """B(t) by exhaustive enumeration of histories over the union of supports.

    Serves as the independent oracle for :func:`bc_matrix`; refuses horizons
    above ``cap``.
    """
    if isinstance(policy, DetectionPolicy):
        raise ModelError("history enumeration needs a stationary policy table")
    if t < 0:
        raise ModelError("horizon must be nonnegative")
    if t > cap:
        raise HorizonCapError(f"horizon {t} exceeds the enumeration cap {cap}")

    compiled: dict[str, list[tuple[float, list[tuple[str, float, float]]]]] = {}
    for s in m1.states:
        rows = []
        for a, pa in policy.get(s, {}).items():
            if pa <= 0.0:
                continue
            r1, r2 = m1.row(s, a), m2.row(s, a)
            succs = [(s2, r1.get(s2, 0.0), r2.get(s2, 0.0)) for s2 in sorted(set(r1) | set(r2))]
            rows.append((pa, succs))
        compiled[s] = rows

    total = 0.0
    stack = [(m1.initial, 1.0, 1.0, t)]
    while stack:
        s, p1, p2, rem = stack.pop()
        if rem == 0:
            total += math.sqrt(p1 * p2)
            continue
        for pa, succs in compiled[s]:
            for s2, q1, q2 in succs:
                n1 = p1 * pa * q1
                n2 = p2 * pa * q2
                if n1 > 0.0 and n2 > 0.0:
                    stack.append((s2, n1, n2, rem - 1))
                # histories where one side already has probability zero
                # contribute zero to every extension
    return total


def bc_matrix(m1: Mdp, m2: Mdp, policy: StationaryPolicy, policy_id: str = "") -> BcMatrix:
    """The matrix route to B(t); exact for any horizon, no cap."""
    if isinstance(policy, DetectionPolicy):
        raise ModelError("matrix construction needs a stationary policy table")
    states = m1.states
    index = {s: i for i, s in enumerate(states)}
    w = np.zeros((len(states), len(states)))
    for s in states:
        si = index[s]
        for a, pa in policy.get(s, {}).items():
            if pa <= 0.0:
                continue
            r1, r2 = m1.row(s, a), m2.row(s, a)
            for s2 in set(r1) & set(r2):
                w[si, index[s2]] += pa * math.sqrt(r1[s2] * r2[s2])
    return BcMatrix(matrix=w, states=states, initial=m1.initial, policy_id=policy_id)


@dataclass(frozen=True)
class ErrorBounds:
    """MAP error-probability bounds; ``upper`` is the raw (possibly > 1) value."""

    lower: float
    upper: float

    @property
    def upper_clamped(self) -> float:
        return min(self.upper, 1.0)


def error_bounds_binary(b: float, q: float, theta: float) -> ErrorBounds:
    """Two-hypothesis bounds from one coefficient value and the two priors."""
    if not 0.0 < q < 1.0 or not 0.0 < theta < 1.0:
        raise ModelError("priors must lie strictly inside (0, 1)")
    if not -1e-12 <= b <= 1.0 + 1e-12:
        raise ModelError(f"coefficient {b} outside [0, 1]")
    lower = 0.5 * min(theta, 1.0 - theta) * b * b
    upper = max(
        math.sqrt((1.0 - q) / q) * theta,
        math.sqrt(q / (1.0 - q)) * (1.0 - theta),
    ) * b
    return ErrorBounds(lower=lower, upper=upper)


def error_bounds_multi(
    bc: Sequence[Sequence[float]] | np.ndarray,
    q: Sequence[float],
    theta: Sequence[float],
) -> ErrorBounds:
    """Multi-hypothesis bounds from the pairwise coefficient matrix.

    Reduces exactly to the binary bounds when there are two hypotheses.
    """
    b = np.asarray(bc, dtype=float)
    n = len(q)
    if b.shape != (n, n) or len(theta) != n:
        raise ModelError(f"coefficient matrix shape {b.shape} does not match {n} priors")
    _validate_prior_vector(q, "estimated priors")
    _validate_prior_vector(theta, "true priors")
    lower = 0.5 * max(
        sum(min(theta[i], theta[k]) * b[i, k] ** 2 for i in range(n) if i != k)
        for k in range(n)
    )
    upper = max(theta[i] / q[i] for i in range(n)) * sum(
        math.sqrt(q[i] * q[j]) * b[i, j] for i in range(n) for j in range(i + 1, n)
    )
    return ErrorBounds(lower=float(lower), upper=float(upper))


def _validate_prior_vector(p: Sequence[float], what: str) -> None:
    if any(x <= 0.0 for x in p):
        raise ModelError(f"{what}: entries must be strictly positive")
    if abs(sum(p) - 1.0) > 1e-9:
        raise ModelError(f"{what}: entries sum to {sum(p)!r}, expected 1")


# ---------------------------------------------------------------------------
# Coefficient curves under composite memory policies.
#
# The controller state (policy entry, committed component, model state) makes
# the composite policy memoryless, so the square-root mass of every history
# can be accumulated per augmented state, one exact forward step at a time.
# ---------------------------------------------------------------------------

_Aug = tuple[tuple[ActiveSet, str], int | None, str]


def pairwise_bc_curve(
    mmdp: Mmdp,
    policy: DetectionPolicy,
    horizon: int,
    pairs: Sequence[tuple[int, int]] | None = None,
    cap: int | None = None,
) -> dict[tuple[int, int], BcCurve]:
    """Exact B_ij(t) for t = 0..horizon per unordered model pair.

    The dynamic program is uncapped by default; pass ``cap`` to bound the
    horizon explicitly.
    """
    if horizon < 0:
        raise ModelError("horizon must be nonnegative")
    if cap is not None and horizon > cap:
        raise HorizonCapError(f"horizon {horizon} exceeds the requested cap {cap}")
    if pairs is None:
        pairs = [
            (i, j) for i in range(1, mmdp.n + 1) for j in range(i + 1, mmdp.n + 1)
        ]
    full = active_set(range(1, mmdp.n + 1))
    start = _canonical_aug(policy, (full, mmdp.initial), None, mmdp.initial)
    curves: dict[tuple[int, int], BcCurve] = {}
    for (i, j) in pairs:
        if i == j:
            raise ModelError("coefficient pairs need two distinct model indices")
        expand_cache: dict[_Aug, list[tuple[_Aug, float]]] = {}
        mass: dict[_Aug, float] = {start: 1.0}
        values = [1.0]
        for _ in range(horizon):
            nxt: dict[_Aug, float] = {}
            for aug, w in mass.items():
                table = expand_cache.get(aug)
                if table is None:
                    table = _expand_aug(mmdp, policy, (i, j), aug)
                    expand_cache[aug] = table
                for tgt, wt in table:
                    nxt[tgt] = nxt.get(tgt, 0.0) + w * wt
            mass = nxt
            values.append(sum(mass.values()))
        curves[(i, j)] = BcCurve(values=tuple(values), pair=(i, j), policy_id="synthesized")
    return curves


def _canonical_aug(
    policy: DetectionPolicy, entry_key: tuple[ActiveSet, str], mec_index: int | None, state: str
) -> _Aug:
    entry = policy.entries.get(entry_key)
    if entry is None:
        raise ContractError(f"policy has no entry for {entry_key}")
    if mec_index is None:
        mec_index = entry.committed_mec(state)
    return (entry_key, mec_index, state)


def _expand_aug(
    mmdp: Mmdp, policy: DetectionPolicy, pair: tuple[int, int], aug: _Aug
) -> list[tuple[_Aug, float]]:
    entry_key, mec_index, s = aug
    entry = policy.entries[entry_key]
    active = entry.active
    if mec_index is not None:
        dist = list(entry.mecs[mec_index].distribution(s).items())
    else:
        a = entry.reach.get(s)
        if a is None:
            raise ContractError(
                f"policy entry {entry_key} covers neither reach nor component at {s!r}"
            )
        dist = [(a, 1.0)]
    mi, mj = mmdp.model(pair[0]), mmdp.model(pair[1])
    out: list[tuple[_Aug, float]] = []
    for a, pa in dist:
        ri, rj = mi.row(s, a), mj.row(s, a)
        # sorted, so that the summation order does not follow the hash seed
        for s2 in sorted(set(ri) | set(rj)):
            w = pa * math.sqrt(ri.get(s2, 0.0) * rj.get(s2, 0.0))
            if w == 0.0:
                continue
            new_active = survivors(mmdp, active, s, a, s2)
            if new_active == active:
                tgt = _canonical_aug(policy, entry_key, mec_index, s2)
            else:
                tgt = _canonical_aug(policy, (new_active, s2), None, s2)
            out.append((tgt, w))
    return out


@dataclass(frozen=True)
class DecayFit:
    """Least-squares geometric-decay fit of a coefficient curve."""

    rate: float
    r_squared: float
    degenerate: bool


def decay_fit(curve: BcCurve | Sequence[float], window: tuple[int, int] | None = None) -> DecayFit:
    """Fit log B(t) = log c + t log rate over an inclusive t-window.

    Defaults to the second half of the curve to skip the initial transient.
    Zero values in the window mean detection is already certain: rate 0 with
    the degenerate flag. A flat window has no measurable slope quality: the
    fitted rate is returned with the degenerate flag.
    """
    values = curve.values if isinstance(curve, BcCurve) else tuple(curve)
    if window is None:
        window = (len(values) // 2, len(values) - 1)
    lo, hi = window
    if not 0 <= lo < hi <= len(values) - 1:
        raise ModelError(f"window {window} does not fit a curve of length {len(values)}")
    ys = values[lo : hi + 1]
    if min(ys) <= 0.0:
        return DecayFit(rate=0.0, r_squared=float("nan"), degenerate=True)
    xs = np.arange(lo, hi + 1, dtype=float)
    logs = np.log(np.asarray(ys, dtype=float))
    slope, intercept = np.polyfit(xs, logs, 1)
    residuals = logs - (slope * xs + intercept)
    ss_res = float(np.sum(residuals**2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    if ss_tot <= 1e-30:
        return DecayFit(rate=float(np.exp(slope)), r_squared=float("nan"), degenerate=True)
    return DecayFit(
        rate=float(np.exp(slope)), r_squared=1.0 - ss_res / ss_tot, degenerate=False
    )


def curve_csv(curves: Mapping[tuple[int, int], BcCurve] | BcCurve) -> str:
    """Curves as CSV: ``t,B`` for one pair, one ``B_i_j`` column per pair otherwise."""
    if isinstance(curves, BcCurve):
        curves = {curves.pair: curves}
    keys = sorted(curves)
    if len(keys) == 1:
        header = "t,B"
    else:
        header = "t," + ",".join(f"B_{i}_{j}" for (i, j) in keys)
    horizon = len(curves[keys[0]].values)
    lines = [header]
    for t in range(horizon):
        row = [str(t)] + [repr(curves[k].values[t]) for k in keys]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def bounds_csv(rows: Sequence[tuple[int, ErrorBounds]]) -> str:
    """Bounds as CSV: ``t,lower,upper_raw,upper_clamped``."""
    lines = ["t,lower,upper_raw,upper_clamped"]
    for t, bounds in rows:
        lines.append(
            f"{t},{bounds.lower!r},{bounds.upper!r},{bounds.upper_clamped!r}"
        )
    return "\n".join(lines) + "\n"
