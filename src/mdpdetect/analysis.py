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
from .models import Mdp, Mmdp, _left_sum
from .policy import ActiveSet, DetectionPolicy, active_set, members

StationaryPolicy = Mapping[str, Mapping[str, float]]

EXACT_HORIZON_CAP = 10


@dataclass(frozen=True)
class BcCurve:
    """Coefficient values B(0..horizon) for one model pair under one policy."""

    values: tuple[float, ...]
    pair: tuple[int, int] = (1, 2)

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

    def bc_value(self, t: int) -> float:
        return self.bc_curve(t).values[-1]

    def bc_curve(self, horizon: int) -> BcCurve:
        if horizon < 0:
            raise ModelError("horizon must be nonnegative")
        v = np.zeros(len(self.states))
        v[self.states.index(self.initial)] = 1.0
        values = [1.0]
        for _ in range(horizon):
            v = v @ self.matrix
            values.append(float(v.sum()))
        return BcCurve(values=tuple(values))

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


def bc_matrix(m1: Mdp, m2: Mdp, policy: StationaryPolicy) -> BcMatrix:
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
    return BcMatrix(matrix=w, states=states, initial=m1.initial)


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

    Reduces exactly to the binary bounds when there are two hypotheses. The
    square matrix fixes the number of hypotheses; ``q`` and ``theta`` must
    each be a distribution over that many.
    """
    try:
        b = np.asarray(bc, dtype=float)
    except ValueError:  # rows of different lengths, or an entry that is not a number
        raise ModelError("coefficient matrix: expected a square matrix of numbers") from None
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ModelError(f"coefficient matrix: expected a square matrix, got shape {b.shape}")
    n = len(b)
    if q is None or theta is None:  # _check_priors would read None as uniform
        raise ModelError(f"{'estimated' if q is None else 'true'} priors: expected {n} entries, got None")
    q = _check_priors(q, n, "estimated priors")
    theta = _check_priors(theta, n, "true priors")
    lower = 0.5 * max(
        _left_sum(min(theta[i], theta[k]) * b[i, k] ** 2 for i in range(n) if i != k)
        for k in range(n)
    )
    upper = max(theta[i] / q[i] for i in range(n)) * _left_sum(
        math.sqrt(q[i] * q[j]) * b[i, j] for i in range(n) for j in range(i + 1, n)
    )
    return ErrorBounds(lower=float(lower), upper=float(upper))


def _check_priors(priors: Sequence[float] | None, n: int, what: str) -> tuple[float, ...]:
    """``priors`` as ``n`` floats, uniform when ``None``; ``ModelError`` unless a distribution."""
    if priors is None:
        return tuple(1.0 / n for _ in range(n))
    priors = tuple(float(p) for p in priors)
    if len(priors) != n:
        raise ModelError(f"{what}: expected {n} entries, got {len(priors)}")
    if not all(map(math.isfinite, priors)):  # a NaN fails neither check below
        raise ModelError(f"{what}: entries must be finite, got {priors!r}")
    if any(p <= 0.0 for p in priors):
        raise ModelError(f"{what}: entries must be strictly positive")
    total = _left_sum(priors)
    if abs(total - 1.0) > 1e-9:
        raise ModelError(f"{what}: entries sum to {total!r}, expected 1")
    return priors


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
) -> dict[tuple[int, int], BcCurve]:
    """Exact B_ij(t) for t = 0..horizon per unordered model pair, with no horizon cap.

    The DP runs on the controller table of ``_compiled``, the one the
    lockstep kernel of ``simulate`` plays, over every augmented state the
    policy can reach: their successors do not depend on the pair. It runs
    one pair at a time, in the given order, on that pair's own edge weights.
    Each step is one sparse pass that sums in a fixed order: sources in the
    order the previous step first touched them, each source's edges in
    action and successor order, and B(t) over the masses in first-touch
    order. Which edges a step takes, and in what order, depends only on that
    first-touch order of its sources, so a step whose order recurs reuses
    the edge layout built for it (see ``_pair_curves``). Raises the error of
    the first pair that fails.
    """
    if horizon < 0:
        raise ModelError("horizon must be nonnegative")
    if pairs is None:
        pairs = [
            (i, j) for i in range(1, mmdp.n + 1) for j in range(i + 1, mmdp.n + 1)
        ]
    for (i, j) in pairs:
        if i == j:
            raise ModelError("coefficient pairs need two distinct model indices")
        mmdp.model(i), mmdp.model(j)  # ModelError for an index outside 1..n
    values = _pair_curves(mmdp, _compiled(mmdp, policy), pairs, horizon)
    return {
        (i, j): BcCurve(values=tuple(v), pair=(i, j))
        for (i, j), v in zip(pairs, values)
    }


def _pair_curves(
    mmdp: Mmdp, table: _CompiledController, pairs: Sequence[tuple[int, int]], horizon: int
) -> list[list[float]]:
    """B(0..horizon) per pair on the edges of ``table``, one pair after another.

    A pair's edges are the slot entries of ``table`` in summation order,
    state by state, each weighing ``pa * sqrt(P_i * P_j)`` as the scalar
    recurrence computes it: ``P_i`` read from ``mmdp.rows.lik``, and
    ``pa = 1 / count`` the probability of the action. Zero weights are
    dropped. A negative target ``-(k + 1)`` raises ``table.errors[k]`` when
    the DP takes the edge: an edge into a state the policy has no entry for
    raises on entering it, and the one weight-0 edge out of a state where
    ``_expand_aug`` finds no move on leaving it. Before its DP, a pair
    raises ``ModelError`` at the first slot entry, in slot order, where
    ``P_i`` or ``P_j`` is negative or the weight is not finite, as a
    hand-built row can make them.

    A step's layout ``(source, to, w, next rows)`` depends only on the live
    rows in first-touch order, not on their mass. That order is periodic
    once every reachable row is live (period 1 on recsys, 2 on a grid), so
    the layouts of the last two steps are kept by order and reused; another
    step builds its own. Either way the step sums the same terms in the same
    order, and B(t) folds its masses left to right from 0.0 with ``np.cumsum``,
    the numpy form of ``models._left_sum``, so every B(t) is a float. The
    first pair in the given order whose DP fails raises.
    """
    size = len(table.augs)
    slot, entry = _segments(table.lo, table.size)
    source = np.repeat(np.arange(size), table.count)[slot]
    lik = mmdp.rows.lik[entry].T
    pa = 1.0 / table.count[source]
    raises = np.array([exc is not None for exc in table.errors])
    stuck = np.flatnonzero(raises & (table.halt == _MAX_STEPS))
    allowed = table.target >= 0
    into = np.where((raises & (table.halt != _MAX_STEPS))[table.target], -1 - table.target, table.target)
    curves = []
    for i, j in pairs:
        with np.errstate(invalid="ignore", over="ignore"):
            weight = pa * np.sqrt(lik[i - 1] * lik[j - 1])
        bad = (lik[i - 1] < 0.0) | (lik[j - 1] < 0.0) | ~np.isfinite(weight)
        if bad.any():
            e = int(np.argmax(bad))
            m = i if not 0.0 <= lik[i - 1, e] < math.inf else j
            raise ModelError(
                f"model {m} gives transition ({table.augs[source[e]][2]}, {table.actions[slot[e]]}, "
                f"{mmdp.rows.successors[entry[e]]}) the mass {float(lik[m - 1, e])!r}, "
                f"so pair ({i}, {j}) weighs it {float(weight[e])!r}"
            )
        # the pair's edges, state by state, with the one edge of each state with no move in its place
        edge = np.flatnonzero((weight != 0.0) & allowed)
        at = np.searchsorted(source[edge], stuck)
        row = np.insert(source[edge], at, stuck)
        target = np.insert(into[edge], at, -1 - stuck)
        weight = np.insert(weight[edge], at, 0.0)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(row, minlength=size))))
        rows = np.zeros(1, np.intp)  # live rows, first-touch order
        mass = np.ones(1)
        values = [1.0]
        kept: dict[bytes, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        for _ in range(horizon):
            layout = kept.get(key := rows.tobytes())
            if layout is None:
                # the edges of the live rows, row by row, each row's in summation order
                lo = indptr[rows]
                src, pos = _segments(lo, indptr[rows + 1] - lo)
                to = target[pos]
                if (to < 0).any():
                    raise table.errors[-to[np.argmax(to < 0)] - 1]
                # targets in first-touch order
                first = np.full(size, len(to))
                np.minimum.at(first, to, np.arange(len(to)))
                touched = np.flatnonzero(first < len(to))
                layout = src, to, weight[pos], touched[np.argsort(first[touched])]
                if len(kept) == 2:
                    del kept[next(iter(kept))]
                kept[key] = layout
            src, to, w, rows = layout
            # bincount adds each target's terms one after another, in input order
            mass = np.bincount(to, weights=mass[src] * w, minlength=size)[rows]
            values.append(float(np.cumsum(mass)[-1]) + 0.0 if len(mass) else 0.0)
        curves.append(values)
    return curves


def _segments(lo: np.ndarray, size: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each position of the runs ``lo[i] .. lo[i] + size[i]``, run after run, and its run ``i``."""
    run = np.repeat(np.arange(len(lo)), size)
    return run, np.arange(len(run)) + np.repeat(lo - (np.cumsum(size) - size), size)


def _expand_aug(
    mmdp: Mmdp, policy: DetectionPolicy, aug: _Aug
) -> list[tuple[str, float, tuple[int, int, tuple[int, ...]], list[_Aug | None]]]:
    """The controller's move at one augmented state: each action it plays, with its row and targets.

    ``(action, probability, (lo, size, last), targets)`` per action of the
    component's distribution (in sorted order) or the one reach action, where
    ``(lo, size, last)`` is row (state, action) of ``mmdp.rows`` and entry
    ``lo + j`` leads to ``targets[j]`` by its model mask: ``None`` where no
    model allows it, a state of the same entry where every active model does,
    and else ``((models left, s2), component, s2)``, with no component when
    the policy has no entry for that key. Raises ``ContractError`` wherever
    the controller has no move: no reach action and no component, a state
    outside the committed one, an empty component distribution, or an action
    some active model lacks.
    """
    entry_key, mec_index, s = aug
    entry = policy.entries[entry_key]
    if mec_index is None:
        a = entry.reach.get(s)
        if a is None:
            raise ContractError(
                f"policy entry {entry_key} covers neither reach nor component at {s!r}"
            )
        dist = [(a, 1.0)]
    else:
        mec = entry.mecs[mec_index]
        if s not in mec.states:
            raise ContractError(
                f"policy entry {entry_key} leaves its component {mec_index} at {s!r}"
            )
        dist = mec.distribution(s).items()
        if not dist:
            raise ContractError(
                f"policy entry {entry_key} plays nothing at {s!r} in its component {mec_index}"
            )
    active = entry.active
    amask = sum({1 << (i - 1) for i in active})  # an edge whose mask holds it keeps every model
    rows, mec_of = mmdp.rows, entry.mec_of
    moves = []
    for a, p in dist:
        row = lo, size, _ = rows.row(s, a)
        targets: list[_Aug | None] = []
        offered = 0
        for mask, s2 in zip(rows.masks[lo : lo + size], rows.successors[lo : lo + size]):
            offered |= mask
            if mask & amask == amask and mask:
                targets.append((entry_key, mec_of.get(s2) if mec_index is None else mec_index, s2))
            elif not mask:  # no model allows s2
                targets.append(None)
            else:
                found = policy.entries.get(key := (members(mask, active), s2))
                targets.append((key, None if found is None else found.mec_of.get(s2), s2))
        if offered & amask != amask:
            raise ContractError(f"policy entry {entry_key} plays {a!r} at {s!r}, which does not offer it")
        moves.append((a, p, row, targets))
    return moves


# the stop codes of the lockstep kernel, and the reason each one names
_THRESHOLD, _MAX_STEPS, _UNDETECTABLE = 0, 1, 2
STOP_REASONS = ("threshold", "max_steps", "undetectable")


def _compiled(mmdp: Mmdp, policy: DetectionPolicy) -> _CompiledController:
    """The controller table of ``policy`` on ``mmdp``, which bc and the lockstep kernel read.

    The table kept on ``mmdp`` when it was compiled for this very policy
    object; otherwise one is compiled and kept in its place. The one check
    of the start, for bc and the lockstep kernel alike: raises
    ``ContractError("policy has no entry for the initial configuration
    <key>")`` when the policy has no entry for it.
    """
    # one read of the slot: another thread may replace its pair at any time
    held = mmdp._controller[0] if mmdp._controller else None
    if held is not None and held[0] is policy:
        return held[1]
    key = (active_set(range(1, mmdp.n + 1)), mmdp.initial)
    entry = policy.entries.get(key)
    if entry is None:
        raise ContractError(f"policy has no entry for the initial configuration {key}")
    table = _CompiledController(mmdp, policy, (key, entry.committed_mec(key[1]), key[1]))
    mmdp._controller[:] = [(policy, table)]
    return table


class _CompiledController:
    """A detection policy compiled into flat tables over the augmented states it can reach.

    The augmented states ``(entry key, committed component, state)`` that the
    controller can reach from ``start`` are numbered breadth first from
    ``start`` (0), each new one as ``_expand_aug`` names it. A move to a
    new active set the policy has no entry for leads to the state
    ``((active set, s), None, s)``, one per such entry key. State ``k`` has
    ``count[k]`` action slots from ``first[k]``, in sorted action order;
    ``count[k]`` is 0 where a trial stops: at a lone survivor, at a state
    without an entry, or where ``_expand_aug`` finds no move. ``errors[k]``
    is ``ContractError("policy has no entry for <key>")`` where the policy
    has no entry for the key of state ``k`` (the table's one test of it),
    the ``ContractError`` of ``_expand_aug`` where it finds no move, and
    ``None`` elsewhere. ``halt[k]`` is the stop code of a trial that plays no
    step from ``k`` although the policy may act there: ``_THRESHOLD`` at a
    lone survivor, ``_UNDETECTABLE`` at any other state without an entry and
    ``_MAX_STEPS`` elsewhere. Slot ``g`` holds the row ``lo[g]``,
    ``size[g]``, ``last[g]`` of (state, action) in ``mmdp.rows``, and the
    state each of its successors leads to by the row's model masks, as
    ``target[tlo[g] + j]`` (-1 for a successor no model allows), so
    ``target`` lists the successors of every slot in turn.

    Two padded tables serve the lockstep kernel's searches, each a running
    sum in item order with ``+inf`` past the items and a width padded to a
    multiple of 8, so a search is one flat gather, one compare and one
    count of bytes: ``act_cdf[k, c]`` sums the action probabilities of
    state ``k``'s slots up to its slot ``c``, and ``step_cdf[g * n + m, j]``
    sums model ``m + 1``'s probabilities of slot ``g``'s successors up to
    its ``j``-th (``mmdp.rows.lik`` from ``lo[g]``, 0.0 for a successor
    outside the model's row), ``n`` being the number of models. Every array
    is read-only, and ``augs``, ``errors`` and ``actions`` are tuples: calls
    on the same model and policy share the table.
    """

    def __init__(self, mmdp: Mmdp, policy: DetectionPolicy, start: _Aug) -> None:
        augs: list[_Aug] = [start]
        errors: list[ContractError | None] = [None]
        index: dict[_Aug | None, int] = {start: 0, None: -1}  # -1: no model allows it
        actions: list[str] = []  # per slot, for error messages
        count, halt = [], []
        act_p, lo, size, last, target = [], [], [], [], []
        # augs grows as new targets are numbered, so the loop visits them breadth first
        for k, aug in enumerate(augs):
            moves = []
            if len(aug[0][0]) == 1:
                halt.append(_THRESHOLD)
            elif errors[k] is not None:
                halt.append(_UNDETECTABLE)
            else:
                halt.append(_MAX_STEPS)
                try:
                    moves = _expand_aug(mmdp, policy, aug)
                except ContractError as exc:  # no move here: the trial stops
                    errors[k] = exc
            # the slots in distribution order, which is action order; each
            # new target is numbered where an edge first reaches it
            count.append(len(moves))
            for a, p, (row_lo, row_size, row_last), keys in moves:
                for key in keys:
                    number = index.get(key)
                    if number is None:
                        number = index[key] = len(augs)
                        augs.append(key)
                        errors.append(None if key[0] in policy.entries
                                      else ContractError(f"policy has no entry for {key[0]}"))
                    target.append(number)
                act_p.append(p)
                lo.append(row_lo)
                size.append(row_size)
                last.append(row_last)
                actions.append(a)
        self.augs, self.errors, self.actions = tuple(augs), tuple(errors), tuple(actions)
        self.count = np.array(count, np.intp)
        self.first = np.cumsum(self.count) - self.count
        self.halt = np.array(halt, np.int8)
        self.act_cdf = _running_sums(np.array(act_p, float)[:, None], self.first, self.count)
        self.lo = np.array(lo, np.intp)
        self.size = np.array(size, np.intp)
        self.last = np.array(last, np.intp).reshape(len(last), mmdp.n)
        self.tlo = np.cumsum(self.size) - self.size  # each slot lists its row's successors
        self.target = np.array(target, np.intp)
        self.step_cdf = _running_sums(mmdp.rows.lik, self.lo, self.size)
        for array in (self.count, self.first, self.halt, self.act_cdf, self.lo, self.size,
                      self.last, self.tlo, self.target, self.step_cdf):
            array.setflags(write=False)


def _running_sums(values: np.ndarray, lo: np.ndarray, size: np.ndarray) -> np.ndarray:
    """``out[i * c + m, k]``: the running sum of column ``m`` of the ``c`` columns of
    ``values`` over the run ``lo[i] .. lo[i] + size[i]`` up to its ``k``-th row,
    ``+inf`` for ``k >= size[i]``.

    One addition per row in run order, as a running total gives it. The
    width is the longest run's, padded with ``+inf`` to a multiple of 8, so
    a row's comparison with a number reads as whole ``uint64`` words.
    """
    run, pos = _segments(lo, size)
    out = np.zeros((len(lo), values.shape[1], -(-size.max(initial=0) // 8) * 8))
    out[run, :, pos - lo[run]] = values[pos]
    out = np.cumsum(out, axis=2)
    out.transpose(0, 2, 1)[np.arange(out.shape[2]) >= size[:, None]] = np.inf
    return out.reshape(len(lo) * values.shape[1], out.shape[2])


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
