"""Policy execution, Bayesian belief updates, and seeded Monte-Carlo batches.

Policies run on the original models. Detection terminals never appear at
runtime: the events they stand for surface as observed transitions of zero
likelihood under some models, which zero those posteriors exactly and shrink
the active set. The random streams are counter-based (Philox keyed per
trial), so trials are independent and reproducible in any execution order.
The kernel computes Philox4x64-10 itself, for every live trial in one array
pass, and its uniforms equal those of ``trial_rng`` bit for bit.
Every episode runs on one kernel, ``_lockstep``: a single trace of
``simulate`` is one trial of it, and Monte Carlo and the batches of
``batch_summary`` advance all their trials in lockstep, with the results a
trial-by-trial loop would give. The kernel reads its moves from the
controller table of ``analysis._compiled``, over every augmented state the
policy can reach from the initial one, which the coefficient curves of
``pairwise_bc_curve`` read too: it picks each action and each successor
from the table's padded running sums, with one gather, one compare and one
count for all live trials. The table is compiled once per model and
policy and kept on the model: the first call on a pair pays for the whole
pass, and repeat calls with the same policy object, such as the horizons of
``monte_carlo_curve`` or a bc run after Monte Carlo, compile nothing.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .analysis import STOP_REASONS, _MAX_STEPS, _THRESHOLD, _UNDETECTABLE, _check_priors, _compiled
from .errors import ContractError, ImpossibleObservationError, ModelError
from .models import _MASK64, Mmdp, _left_sum
from .policy import DetectionPolicy

_BLOCK = 64  # uniforms a lockstep trial draws from its stream at a time at least (a multiple of 4)
_WIDE = 4096  # counters a block covers at least, when few trials are live
_CHUNK = 8192  # counters of one Philox pass at most, which keeps its temporaries in cache


@dataclass(frozen=True)
class BeliefState:
    """Posterior probabilities over the candidate models."""

    probs: tuple[float, ...]

    def check(self) -> list[str]:
        problems = []
        if any(p < 0.0 for p in self.probs):
            problems.append("negative posterior entry")
        total = _left_sum(self.probs)
        if abs(total - 1.0) > 1e-9:
            problems.append(f"posteriors sum to {total!r}")
        return problems


@dataclass(frozen=True)
class TraceStep:
    t: int
    state: str
    action: str | None
    beliefs: tuple[float, ...]


@dataclass(frozen=True)
class Trace:
    """One simulated run: seeded, with the belief vector at every step."""

    seed: int
    truth: int
    steps: tuple[TraceStep, ...]
    stop_reason: str  # "threshold" | "max_steps" | "undetectable"


def belief_update(b: BeliefState, s: str, a: str, s_next: str, mmdp: Mmdp) -> BeliefState:
    """Posterior after observing the transition (s, a, s_next).

    Models assigning the observed transition probability zero drop to an
    exact posterior of zero and can never re-enter the active set.
    """
    weighted = [p * m.prob(s, a, s_next) for p, m in zip(b.probs, mmdp.models)]
    denom = _left_sum(weighted)
    if denom <= 0.0:
        raise ImpossibleObservationError(
            f"transition ({s}, {a}, {s_next}) is impossible under the current belief support"
        )
    return BeliefState(probs=tuple([w / denom for w in weighted]))


def map_decide(b: BeliefState | Sequence[float]) -> int:
    """Maximum-a-posteriori model index (1-based); ties go to the smaller index."""
    probs = b.probs if isinstance(b, BeliefState) else tuple(b)
    best = 0
    for i in range(1, len(probs)):
        if probs[i] > probs[best]:
            best = i
    return best + 1


def _key(word: int, n: int) -> np.ndarray:
    """``n`` copies of ``word`` modulo 2**64, as ``uint64`` key words."""
    return np.full(n, word & _MASK64, np.uint64)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and the low words of the 128-bit products ``m * x``, from 32-bit halves."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & np.uint64(0xFFFFFFFF), x >> np.uint64(32)
    mid = x_hi * m_lo + (x_lo * m_lo >> np.uint64(32))
    lo_hi = x_lo * m_hi + (mid & np.uint64(0xFFFFFFFF))
    return x_hi * m_hi + (mid >> np.uint64(32)) + (lo_hi >> np.uint64(32)), x * np.uint64(m)


def _philox(k0: np.ndarray, k1: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """The uniforms of Philox4x64-10 under every key ``(k0[i], k1[i])`` at each counter.

    ``k0`` and ``k1`` are ``uint64`` columns, ``counters`` a ``uint64`` row of
    first counter words (the other three are 0). Row ``i`` holds the four
    doubles of each counter in turn, ``(w >> 11) * 2**-53`` of each output
    word ``w``, as numpy's ``Philox`` and ``Generator.random`` make them.
    """
    zero = np.zeros((1, 1), np.uint64)
    c0, c1, c2, c3 = counters[None, :], zero, zero, zero
    for r in range(10):  # the key takes a Weyl step before every round but the first
        hi0, lo0 = _mulhilo(0xD2E7470EE14C6C93, c0)
        hi1, lo1 = _mulhilo(0xCA5A826395121157, c2)
        w0, w1 = (np.uint64(r * w & _MASK64) for w in (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B))
        c0, c1, c2, c3 = hi1 ^ c1 ^ (k0 + w0), lo1, hi0 ^ c3 ^ (k1 + w1), lo0
    words = np.stack([c0, c1, c2, c3], axis=-1).reshape(len(k0), -1)
    return (words >> np.uint64(11)) * 2.0**-53


def _check_stops(threshold: float, max_steps: int) -> None:
    if not 0.5 < threshold < 1.0:
        raise ModelError(f"threshold must lie in (0.5, 1), got {threshold}")
    if max_steps < 0:
        raise ModelError(f"max_steps must be nonnegative, got {max_steps}")


def simulate(
    mmdp: Mmdp,
    truth: int,
    policy: DetectionPolicy,
    seed: int,
    max_steps: int = 10_000,
    threshold: float = 0.98,
    priors: Sequence[float] | None = None,
) -> Trace:
    """Run one seeded detection episode against the ground-truth model.

    Stops when the top posterior reaches ``threshold``, at ``max_steps``, or
    when the policy has no entry for the reached (active set, state)
    configuration ("undetectable continuation"). The episode is one trial of
    ``_lockstep`` on the stream ``trial_rng(seed, 0)``.
    """
    _check_stops(threshold, max_steps)
    beliefs = _check_priors(priors, mmdp.n, "priors")
    mmdp.model(truth)  # ModelError for an index outside 1..n
    path: list[tuple[str, str, str, list[float]]] = []
    final, _, stop_code = _lockstep(
        mmdp, policy, _Streams(_key(seed, 1), _key(0, 1), 2 * max_steps), np.array([truth - 1]),
        beliefs, max_steps, threshold, path,
    )
    steps = [TraceStep(t, s, a, tuple(b)) for t, (s, a, _, b) in enumerate(path)]
    # the final state is the last successor, or the initial one before any step
    state = path[-1][2] if path else mmdp.initial
    steps.append(TraceStep(len(path), state, None, tuple(final[0].tolist())))
    return Trace(seed, truth, tuple(steps), STOP_REASONS[stop_code[0]])


def monte_carlo_error(
    mmdp: Mmdp,
    policy: DetectionPolicy,
    t: int,
    trials: int,
    seed: int,
    q: Sequence[float] | None = None,
    theta: Sequence[float] | None = None,
) -> tuple[float, float]:
    """Empirical MAP error at horizon ``t`` with its binomial standard error.

    Ground truth is drawn from ``theta`` per trial; the decision applies the
    MAP rule with estimated priors ``q`` after ``t`` observed steps. Once a
    single model remains active the decision is settled (the survivor is the
    truth), so the trial ends early.
    """
    if trials < 100:
        raise ContractError(f"need at least 100 trials, got {trials}")
    q = _check_priors(q, mmdp.n, "estimated priors")
    theta = _check_priors(theta, mmdp.n, "true priors")
    if t < 0:
        raise ModelError("horizon must be nonnegative")
    truth, beliefs, _, _ = _monte_carlo_trials(mmdp, policy, t, trials, seed, q, theta)
    # np.argmax takes the first maximum: ties go to the smaller index, as in map_decide
    errors = int(np.count_nonzero(np.argmax(beliefs, axis=1) != truth))
    estimate = errors / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, stderr


def monte_carlo_curve(
    mmdp: Mmdp,
    policy: DetectionPolicy,
    horizons: Sequence[int],
    trials: int,
    seed: int,
    q: Sequence[float] | None = None,
    theta: Sequence[float] | None = None,
) -> list[tuple[int, float, float]]:
    """``(t, estimate, stderr)`` of ``monte_carlo_error`` at each horizon ``t`` of ``horizons``.

    The empirical MAP-error curve of one policy over time, the Monte-Carlo
    counterpart of the coefficient curves and their bounds. Every horizon
    plays the same seeded trials, so the horizons are compared on common
    random numbers, and the controller is compiled once for the whole curve.
    """
    return [(t, *monte_carlo_error(mmdp, policy, t, trials, seed, q, theta)) for t in horizons]


def _monte_carlo_trials(
    mmdp: Mmdp,
    policy: DetectionPolicy,
    t: int,
    trials: int,
    seed: int,
    q: tuple[float, ...],
    theta: tuple[float, ...],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The 0-based truth of every Monte-Carlo trial, and what ``_lockstep`` returns.

    Trial ``i`` draws its truth from the first uniform of its stream
    ``trial_rng(seed, i)`` and then plays ``t`` steps at most on the rest of
    it, with no threshold.
    """
    streams = _Streams(_key(seed, trials), np.arange(trials, dtype=np.uint64), 1 + 2 * t)
    truth = _draw_truth(streams.next(), theta)
    return (truth, *_lockstep(mmdp, policy, streams, truth, q, t))


def _draw_truth(u: np.ndarray, theta: Sequence[float]) -> np.ndarray:
    """The 0-based model each uniform picks from ``theta``.

    The models run in ``str`` order ("10" before "2"); a uniform picks the
    first one whose running sum exceeds it, and the last takes any remainder.
    """
    n = len(theta)
    order = sorted(range(n), key=lambda i: str(i + 1))
    cdf = np.fromiter(itertools.accumulate(theta[i] for i in order), float, n)
    return np.asarray(order)[np.minimum(np.searchsorted(cdf, u, side="right"), n - 1)]


def _lockstep(
    mmdp: Mmdp,
    policy: DetectionPolicy,
    streams: _Streams,
    truth: np.ndarray,
    beliefs: Sequence[float],
    max_steps: int,
    threshold: float | None = None,
    path: list[tuple[str, str, str, list[float]]] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The final beliefs, the stop step and the stop code of every trial.

    Trial ``i`` plays against the 0-based model ``truth[i]`` from the initial
    beliefs ``beliefs``, on the uniforms ``streams`` draws for it. All live
    trials advance one step at a time, as arrays, and each one plays the
    episode it would play alone on its own stream: one uniform picks the
    action and one the successor, each the first item whose running sum
    exceeds it (the last item takes any remainder), and the belief update
    sums the weighted likelihoods model by model, as ``belief_update`` does.
    A model leaves the active set only when it gives an observed transition
    probability zero. Every step played appends, per live trial in trial
    order, its state, action, successor and pre-step beliefs to ``path``
    when given.

    Before every step a trial stops, in this order: as "threshold" when its
    top posterior reaches ``threshold`` (never, without one) or one model is
    left active; as "undetectable" at a new active set the policy has no
    entry for; as "max_steps" after ``max_steps`` steps; and as
    "undetectable" at a state where ``_expand_aug`` finds no move. The codes
    index ``STOP_REASONS``. An impossible observation, or an action the
    truth has no row for, is raised after every trial with a smaller index
    has finished, as a trial-by-trial run would raise it.

    The moves come from the controller table of ``analysis._compiled``, which
    alone checks that the policy has an entry for the start (its
    ``ContractError`` is raised before any trial plays). A search counts the
    running sums at most the uniform in one padded row of the table,
    ``act_cdf[state]`` for the action and ``step_cdf[slot, truth]`` for the
    successor, and clamps the count to the last item. A step searches the
    action slots only when some live trial has a choice between two or more;
    the action's uniform is drawn either way.
    """
    table = _compiled(mmdp, policy)
    rows = mmdp.rows
    trials = len(truth)
    final = np.tile(np.asarray(beliefs, float), (trials, 1))
    stop_step = np.zeros(trials, np.intp)
    stop_code = np.zeros(trials, np.int8)

    # the trials still running, in trial order, with their augmented state,
    # beliefs and truth
    live = np.arange(trials)
    state = np.zeros(trials, np.intp)  # the start
    b = final.copy()
    tr = np.asarray(truth)
    failed: dict[int, BaseException] = {}

    def stop(keep: np.ndarray, code: int | np.ndarray, step: int) -> np.ndarray:
        """Keep the live trials in ``keep`` that a trial-by-trial run would still reach.

        The others stop at ``step`` with their ``code`` (never read for a trial
        that failed), and their beliefs are final. Returns the mask applied.
        """
        nonlocal live, state, b, tr
        if failed:
            keep &= live < min(failed)
        gone = live[~keep]
        final[gone] = b[~keep]
        stop_step[gone] = step
        stop_code[gone] = code if np.isscalar(code) else code[~keep]
        live, state, b, tr = live[keep], state[keep], b[keep], tr[keep]
        streams.keep(keep)
        return keep

    for step in range(max_steps + 1):
        if threshold is not None and len(live):
            below = b.max(axis=1) < threshold
            if not below.all():
                stop(below, _THRESHOLD, step)
        if not len(live):
            break
        if step == max_steps:
            stop(np.zeros(len(live), bool), table.halt[state], step)
            break
        count = table.count[state]
        if count.min() == 0:
            # a lone survivor, a missing entry, or else no move at the state
            halt = table.halt[state]
            code = np.where(halt == _MAX_STEPS, _UNDETECTABLE, halt)
            count = count[stop(count > 0, code, step)]
        u, slot = streams.next(), table.first[state]  # drawn even without a choice: streams stay aligned
        if count.max(initial=1) > 1:  # some trial chooses between slots
            slot = slot + _pick(table.act_cdf, state, u, count - 1)
        # every model of the entry has a successor; an eliminated truth may have no row
        last = table.last[slot, tr]
        if (last < 0).any():
            k = int(np.flatnonzero(last < 0)[0])  # stop() drops every later trial
            s, a = table.augs[state[k]][2], table.actions[slot[k]]
            failed[int(live[k])] = ModelError(f"model {tr[k] + 1} has no row at ({s}, {a})")
            keep = stop(last >= 0, _MAX_STEPS, step)
            slot, last = slot[keep], last[keep]
        j = _pick(table.step_cdf, (slot, tr), streams.next(), last)
        entry = table.lo[slot] + j
        weighted = b * rows.lik[entry]
        denom = weighted[:, 0].copy()
        for m in range(1, mmdp.n):
            denom += weighted[:, m]
        if (denom <= 0.0).any():
            k = int(np.flatnonzero(denom <= 0.0)[0])  # stop() drops every later trial
            s, a, s_next = table.augs[state[k]][2], table.actions[slot[k]], rows.successors[entry[k]]
            failed[int(live[k])] = ImpossibleObservationError(
                f"transition ({s}, {a}, {s_next}) is impossible under the current belief support"
            )
            keep = stop(denom > 0.0, _MAX_STEPS, step)
            weighted, denom, slot, j = weighted[keep], denom[keep], slot[keep], j[keep]
        if path is not None:
            path.extend(zip(
                [table.augs[k][2] for k in state.tolist()],
                [table.actions[g] for g in slot.tolist()],
                [rows.successors[e] for e in (table.lo[slot] + j).tolist()],
                b.tolist(),
            ))
        b = weighted / denom[:, None]
        state = table.target[table.tlo[slot] + j]
    if failed:
        raise failed[min(failed)]
    return final, stop_step, stop_code


def _pick(cdf: np.ndarray, at: np.ndarray | tuple, u: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Per trial, how many of its running sums ``cdf[at]`` are at most its ``u``, clamped to its ``last``.

    On nondecreasing sums that is the first item whose sum exceeds ``u``;
    the ``+inf`` padding never counts.
    """
    return np.minimum((cdf[at] <= u[:, None]).sum(1), last)


class _Streams:
    """The uniforms of the live trials, drawn from each trial's own stream in blocks.

    Trial ``i`` draws from the stream ``trial_rng`` gives the ``uint64`` key
    ``(k0[i], k1[i])``, at most ``need`` uniforms in all. Every live trial has
    drawn as many as every other, so one position serves them all, and one
    pass of ``_philox`` over at most ``_CHUNK`` counters at a time fills the
    next block of every live trial. When few trials are live the block
    widens to about ``_WIDE`` counters a pass: the streams are counter-based,
    so the uniforms do not depend on the width.
    """

    def __init__(self, k0: np.ndarray, k1: np.ndarray, need: int) -> None:
        self.k0, self.k1, self.need = k0, k1, need
        self.block = np.empty((len(k0), 0))
        self.pos = 0
        self.drawn = 0

    def next(self) -> np.ndarray:
        """One uniform per live trial: its stream's next."""
        if self.pos == self.block.shape[1]:
            n = len(self.k0)
            width = min(max(_BLOCK, -(-_WIDE // max(n, 1)) * 4), self.need - self.drawn)
            start = self.drawn // 4 + 1
            counters = np.arange(start, start + -(-width // 4), dtype=np.uint64)
            self.block = np.empty((n, width))
            rows = max(1, _CHUNK // len(counters))
            for i in range(0, n, rows):
                k0, k1 = self.k0[i:i + rows, None], self.k1[i:i + rows, None]
                self.block[i:i + rows] = _philox(k0, k1, counters)[:, :width]
            self.drawn += width
            self.pos = 0
        self.pos += 1
        return self.block[:, self.pos - 1]

    def keep(self, keep: np.ndarray) -> None:
        self.k0, self.k1, self.block = self.k0[keep], self.k1[keep], self.block[keep]


def trace_to_csv(trace: Trace) -> str:
    """CSV rows ``t,state,action,b_1,...,b_N`` (empty action on the final row).

    A state or action name holding a comma, a double quote or a line break is
    quoted as RFC 4180 says; every other name is written as it is.
    """
    n = len(trace.steps[0].beliefs)
    header = "t,state,action," + ",".join(f"b_{i + 1}" for i in range(n))
    lines = [header]
    for step in trace.steps:
        beliefs = ",".join(repr(b) for b in step.beliefs)
        lines.append(f"{step.t},{_csv_field(step.state)},{_csv_field(step.action or '')},{beliefs}")
    return "\n".join(lines) + "\n"


_NEEDS_QUOTES = re.compile(r'[,"\r\n]').search


def _csv_field(name: str) -> str:
    return '"' + name.replace('"', '""') + '"' if _NEEDS_QUOTES(name) else name


def batch_summary(
    mmdp: Mmdp,
    policy: DetectionPolicy,
    trials: int,
    seed: int,
    truth: int | None = None,
    max_steps: int = 10_000,
    threshold: float = 0.98,
    priors: Sequence[float] | None = None,
) -> dict:
    """Seeded batch of simulations with per-truth accuracy and stop statistics.

    Truth is fixed when given, otherwise drawn per trial from ``priors``
    (uniform by default), trial ``i`` from the stream ``trial_rng(seed ^
    0x9E3779B97F4A7C15, i)``. Trial ``i`` then plays the episode ``simulate``
    plays with seed ``seed + i``; all trials run in lockstep, and the results
    merge deterministically in trial order.
    """
    if trials < 1:
        raise ModelError(f"trials must be at least 1, got {trials}")
    priors_t = _check_priors(priors, mmdp.n, "priors")
    _check_stops(threshold, max_steps)
    index = np.arange(trials, dtype=np.uint64)
    if truth is None:
        truth_keys = _key(seed ^ 0x9E3779B97F4A7C15, trials)
        truths = _draw_truth(_Streams(truth_keys, index, 1).next(), priors_t)
    else:
        mmdp.model(truth)  # ModelError for an index outside 1..n
        truths = np.full(trials, truth - 1)
    # trial i plays on the key (seed + i, 0), modulo 2**64
    streams = _Streams(_key(seed, trials) + index, _key(0, trials), 2 * max_steps)
    beliefs, stop_step, stop_code = _lockstep(
        mmdp, policy, streams, truths, priors_t, max_steps, threshold
    )
    # np.argmax takes the first maximum: ties go to the smaller index, as in map_decide
    correct = np.argmax(beliefs, axis=1) == truths
    at_threshold = stop_code == _THRESHOLD
    per_truth = {}
    for i in range(mmdp.n):
        runs = truths == i
        n_runs = int(np.count_nonzero(runs))
        stops = int(np.count_nonzero(runs & at_threshold))
        right = int(np.count_nonzero(runs & at_threshold & correct))
        per_truth[str(i + 1)] = {
            "runs": n_runs,
            "threshold_stops": stops,
            "threshold_accuracy": right / stops if stops else None,
            "mean_stop_time": int(stop_step[runs].sum()) / n_runs if n_runs else None,
        }
    estimate = (trials - int(np.count_nonzero(correct))) / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    stop_reasons = {
        reason: int(np.count_nonzero(stop_code == code)) for code, reason in enumerate(STOP_REASONS)
    }
    threshold_stops = stop_reasons["threshold"]
    total_correct = int(np.count_nonzero(at_threshold & correct))
    return {
        "trials": trials,
        "seed": seed,
        "error_estimate": estimate,
        "error_stderr": stderr,
        "stop_reasons": stop_reasons,
        "threshold_stop_fraction": threshold_stops / trials,
        "threshold_accuracy": (total_correct / threshold_stops) if threshold_stops else None,
        "per_truth": per_truth,
    }
