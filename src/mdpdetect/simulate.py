"""Policy execution, Bayesian belief updates, and seeded Monte-Carlo batches.

Policies run on the original models. Detection terminals never appear at
runtime: the events they stand for surface as observed transitions of zero
likelihood under some models, which zero those posteriors exactly and shrink
the active set. The random streams are counter-based (Philox keyed per
trial), so trials are independent and reproducible in any execution order.
Every episode runs on one kernel, ``_lockstep``: a single trace of
``simulate`` is one trial of it, and Monte Carlo and the batches of
``batch_summary`` advance all their trials in lockstep over a controller
table compiled for just the augmented states they reach, with the results a
trial-by-trial loop would give.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from .analysis import _Aug, _canonical_aug, _expand_aug
from .errors import ContractError, ImpossibleObservationError, ModelError
from .models import Mmdp
from .policy import DetectionPolicy, PolicyEntry, active_set, members

_MASK64 = (1 << 64) - 1
_BLOCK = 64  # uniforms a lockstep trial draws from its stream at a time (a multiple of 4)
# the action count of an augmented state not compiled yet, and of one where
# choosing the action raises
_UNCOMPILED = -1
_FAILS = -2
# stop codes of the lockstep kernel, indexing STOP_REASONS
_THRESHOLD, _MAX_STEPS, _UNDETECTABLE = 0, 1, 2
STOP_REASONS = ("threshold", "max_steps", "undetectable")


@dataclass(frozen=True)
class BeliefState:
    """Posterior probabilities over the candidate models."""

    probs: tuple[float, ...]

    def check(self) -> list[str]:
        problems = []
        if any(p < 0.0 for p in self.probs):
            problems.append("negative posterior entry")
        if abs(sum(self.probs) - 1.0) > 1e-9:
            problems.append(f"posteriors sum to {sum(self.probs)!r}")
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
    # in model order, on every Python version (since 3.12, sum() compensates)
    denom = 0.0
    for w in weighted:
        denom += w
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


def trial_rng(seed: int, stream: int) -> np.random.Generator:
    """Independent counter-based stream for (seed, stream index)."""
    return np.random.Generator(np.random.Philox(key=(seed & _MASK64, stream & _MASK64)))


def _philox_key(seed: int, stream: int) -> np.ndarray:
    """The key ``trial_rng(seed, stream)`` gives Philox.

    numpy converts the pair as an array, through float64 when a component is
    2**63 or more, so such a component loses its low bits.
    """
    return np.asarray((seed & _MASK64, stream & _MASK64)).astype(np.uint64)


class _Rekeyed:
    """One Philox generator that plays, in turn, the streams of ``trial_rng``.

    Setting a key through the generator's state costs a fraction of building
    a new generator for every stream.
    """

    def __init__(self) -> None:
        self.rng = np.random.Generator(np.random.Philox(0))
        self._counter = np.zeros(4, np.uint64)
        self._state: dict[str, Any] = {
            "bit_generator": "Philox",
            "state": {"counter": self._counter, "key": None},
            "buffer": np.zeros(4, np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def at(self, key: np.ndarray, drawn: int = 0) -> np.random.Generator:
        """The stream with Philox key ``key`` once ``drawn`` uniforms are taken.

        ``drawn`` is a multiple of 4: each counter step yields four uniforms.
        """
        self._counter[0] = drawn // 4
        self._state["state"]["key"] = key
        self.rng.bit_generator.state = self._state
        return self.rng


def _check_priors(priors: Sequence[float] | None, n: int, what: str) -> tuple[float, ...]:
    if priors is None:
        return tuple(1.0 / n for _ in range(n))
    priors = tuple(float(p) for p in priors)
    if len(priors) != n:
        raise ModelError(f"{what}: expected {n} entries, got {len(priors)}")
    if any(p <= 0.0 for p in priors):
        raise ModelError(f"{what}: entries must be strictly positive")
    if abs(sum(priors) - 1.0) > 1e-9:
        raise ModelError(f"{what}: entries sum to {sum(priors)!r}, expected 1")
    return priors


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
        mmdp, policy, _Streams([_philox_key(seed, 0)], 2 * max_steps), np.array([truth - 1]),
        beliefs, max_steps, threshold, path,
    )
    steps = [TraceStep(t, s, a, tuple(b)) for t, (s, a, _, b) in enumerate(path)]
    # the final state is the last successor: a trial that stops at a new
    # active set without an entry sits at a compiled state with no name
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
    truth, beliefs, _, _ = _monte_carlo_trials(mmdp, policy, t, trials, seed, q, theta)
    # np.argmax takes the first maximum: ties go to the smaller index, as in map_decide
    errors = int(np.count_nonzero(np.argmax(beliefs, axis=1) != truth))
    estimate = errors / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, stderr


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
    streams = _Streams([_philox_key(seed, i) for i in range(trials)], 1 + 2 * t)
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
    "undetectable" at a state where the policy has no action. The codes
    index ``STOP_REASONS``. An error inside an episode is raised after every
    trial with a smaller index has finished, as a trial-by-trial run would
    raise it.
    """
    full = active_set(range(1, mmdp.n + 1))
    if policy.entry(full, mmdp.initial) is None:
        raise ContractError(
            f"policy has no entry for the initial configuration ({full}, {mmdp.initial!r})"
        )
    table = _CompiledController(
        mmdp, policy, _canonical_aug(policy, (full, mmdp.initial), None, mmdp.initial)
    )
    rows = mmdp.sampling
    trials = len(truth)
    final = np.tile(np.asarray(beliefs, float), (trials, 1))
    stop_step = np.zeros(trials, np.intp)
    stop_code = np.zeros(trials, np.int8)

    # the trials still running, in trial order, with their augmented state,
    # beliefs and truth
    live = np.arange(trials)
    state = np.full(trials, table.start)
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

    def record(where: np.ndarray, error: Callable[[int], BaseException]) -> None:
        for k in np.flatnonzero(where).tolist():
            failed.setdefault(int(live[k]), error(k))

    def impossible(k: int) -> BaseException:
        s, a, s_next = (
            table.augs[state[k]][2], table.actions[slot[k]], rows.successors[entry[k]]
        )
        return ImpossibleObservationError(
            f"transition ({s}, {a}, {s_next}) is impossible under the current belief support"
        )

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
        if (count == _UNCOMPILED).any():
            table.compile(sorted(set(state[count == _UNCOMPILED].tolist())))
            count = table.count[state]
        if count.min() <= 0:
            record(count == _FAILS, lambda k: table.errors[state[k]])
            # a lone survivor, a missing entry, or else no action at the state
            halt = table.halt[state]
            code = np.where(halt == _MAX_STEPS, _UNDETECTABLE, halt)
            count = count[stop(count > 0, code, step)]
        first = table.first[state]
        slot = first + np.minimum(_below(table.act_cdf, first, count, streams.next()), count - 1)
        last = table.last[slot, tr]
        u = streams.next()
        if (last < 0).any():
            record(last < 0, lambda k: AssertionError("cannot sample from an empty distribution"))
            keep = stop(last >= 0, _MAX_STEPS, step)
            slot, last, u = slot[keep], last[keep], u[keep]
        lo = table.lo[slot]
        j = np.minimum(_below(rows.cdf, lo, table.size[slot], u, tr), last)
        entry = lo + j
        weighted = b * rows.lik[entry]
        denom = weighted[:, 0].copy()
        for m in range(1, mmdp.n):
            denom += weighted[:, m]
        if (denom <= 0.0).any():
            record(denom <= 0.0, impossible)
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


def _below(
    cdf: np.ndarray,
    lo: np.ndarray,
    size: np.ndarray,
    u: np.ndarray,
    column: np.ndarray | None = None,
) -> np.ndarray:
    """Per trial, how many of its ``size`` CDF values from ``lo`` are at most its ``u``.

    That is the index of the first value above ``u``, since each run of
    values is nondecreasing. A 2-D ``cdf`` is read in the trial's ``column``.
    """
    row = np.repeat(np.arange(len(lo)), size)
    pos = np.arange(len(row)) + np.repeat(lo - (np.cumsum(size) - size), size)
    values = cdf[pos] if column is None else cdf[pos, column[row]]
    return np.bincount(row[values <= u[row]], minlength=len(lo))


class _Streams:
    """The uniforms of the live trials, drawn from each trial's own stream in blocks.

    Trial ``i`` draws from the Philox stream with key ``keys[i]``, at most
    ``need`` uniforms in all. Every live trial has drawn as many as every
    other, so one position serves them all, and one rekeyed generator resumes
    each stream in turn.
    """

    def __init__(self, keys: list[np.ndarray], need: int) -> None:
        self.keys = keys
        self.stream = _Rekeyed()
        self.need = need
        self.ids = np.arange(len(keys))
        self.block = np.empty((len(keys), 0))
        self.pos = 0
        self.drawn = 0

    def next(self) -> np.ndarray:
        """One uniform per live trial: its stream's next."""
        if self.pos == self.block.shape[1]:
            width = min(_BLOCK, self.need - self.drawn)
            at, keys, drawn = self.stream.at, self.keys, self.drawn
            rows = [at(keys[i], drawn).random(width) for i in self.ids.tolist()]
            self.block = np.array(rows).reshape(len(rows), width)
            self.drawn += width
            self.pos = 0
        self.pos += 1
        return self.block[:, self.pos - 1]

    def keep(self, keep: np.ndarray) -> None:
        self.ids, self.block = self.ids[keep], self.block[keep]


class _CompiledController:
    """A detection policy compiled into flat tables, one augmented state at a time.

    The augmented states ``(entry key, committed component, state)`` of
    ``analysis`` are numbered as trials reach them; 0 stands for every
    configuration in which a trial stops because the policy has no entry for
    its new active set of two or more models. A lone survivor the policy has
    no entry for is the state ``((survivor,), None, s)``. State ``k`` has
    ``count[k]`` action slots from ``first[k]``, in sorted action order;
    ``count[k]`` is 0 where a trial stops (a lone survivor, or no action at
    the state), ``_FAILS`` where choosing the action raises ``errors[k]``,
    and ``_UNCOMPILED`` until a trial needs it. ``halt[k]`` is the stop code
    of a trial that plays no step from ``k`` although the policy may act
    there: ``_THRESHOLD`` at a lone survivor, ``_UNDETECTABLE`` at 0 and
    ``_MAX_STEPS`` elsewhere. Slot ``g`` holds the action's running sum
    ``act_cdf[g]``, the row ``lo[g]``, ``size[g]``, ``last[g]`` of (state,
    action) in ``rows``, and the state each of its successors leads to, as
    ``target[tlo[g] + j]``.
    """

    def __init__(self, mmdp: Mmdp, policy: DetectionPolicy, start: _Aug) -> None:
        self.mmdp, self.policy, self.rows = mmdp, policy, mmdp.sampling
        self.augs: list[_Aug | None] = [None]
        self.index: dict[_Aug, int] = {}
        self.errors: dict[int, BaseException] = {}
        self.actions: list[str] = []  # per slot, for error messages
        self.count = np.zeros(1, np.intp)
        self.first = np.zeros(1, np.intp)
        self.halt = np.full(1, _UNDETECTABLE, np.int8)
        self.act_cdf = np.empty(0)
        self.lo = np.empty(0, np.intp)
        self.size = np.empty(0, np.intp)
        self.last = np.empty((0, mmdp.n), np.intp)
        self.tlo = np.empty(0, np.intp)
        self.target = np.empty(0, np.intp)
        self.targets = 0  # entries of target in use
        self._new: list[int] = []  # initial counts of the states numbered since the last compile
        self.start = self._number(start)
        self.compile([])

    def _number(self, aug: _Aug | Exception | None) -> int:
        """The index of a target state, numbering it on first sight."""
        if aug is None or isinstance(aug, Exception):
            return 0
        k = self.index.get(aug)
        if k is None:
            k = self.index[aug] = len(self.augs)
            self.augs.append(aug)
            self._new.append(0 if len(aug[0][0]) == 1 else _UNCOMPILED)
        return k

    def _store(self, name: str, at: int, values: Sequence) -> None:
        """Write ``values`` into column ``name`` from row ``at``, doubling its room as needed."""
        column = getattr(self, name)
        end = at + len(values)
        if end > len(column):
            grown = np.empty((max(end, 2 * len(column)),) + column.shape[1:], column.dtype)
            grown[:at] = column[:at]
            setattr(self, name, column := grown)
        if len(values):
            column[at:end] = values

    def compile(self, ks: list[int]) -> None:
        """Compile the states ``ks``: their action slots and the targets of their successors."""
        mmdp, policy, rows, index = self.mmdp, self.policy, self.rows, self.index
        new0, g0, t0 = len(self.augs) - len(self._new), len(self.actions), self.targets
        counts, firsts = [], []
        act_cdf, lo, size, last, tlo, target = [], [], [], [], [], []
        t_end = t0
        for k in ks:
            aug = self.augs[k]
            entry_key, mec_index, s = aug
            try:
                dist = sorted(_action_distribution(policy.entries[entry_key], mec_index, s))
            except Exception as exc:  # re-raised for the first trial that needs an action here
                self.errors[k] = exc
                counts.append(_FAILS)
                firsts.append(0)
                continue
            edges = {
                (a, s2): tgt
                # every successor: no mask in a support row is 0
                for a, _, s2, tgt in (_expand_aug(mmdp, policy, aug, bool) if dist else ())
            }
            for (a, s2), tgt in edges.items():
                if isinstance(tgt, ContractError):
                    left = members(mmdp.support_masks(s, a)[s2], entry_key[0])
                    if len(left) == 1:  # stops as a lone survivor, entry or not
                        edges[a, s2] = ((left, s2), None, s2)
            counts.append(len(dist))
            firsts.append(g0 + len(act_cdf))
            act_cdf.extend(itertools.accumulate([p for _, p in dist]))
            for a, _ in dist:
                row_lo, row_size, row_last = rows.row(s, a)
                lo.append(row_lo)
                size.append(row_size)
                last.append(row_last)
                tlo.append(t_end)
                t_end += row_size
                for s2 in rows.successors[row_lo : row_lo + row_size]:
                    tgt = edges.get((a, s2))
                    k2 = index.get(tgt)
                    target.append(self._number(tgt) if k2 is None else k2)
                self.actions.append(a)
        self._store("act_cdf", g0, act_cdf)
        self._store("lo", g0, lo)
        self._store("size", g0, size)
        self._store("last", g0, np.array(last, np.intp).reshape(len(last), mmdp.n))
        self._store("tlo", g0, tlo)
        self._store("target", t0, target)
        self.targets = t_end
        self._store("count", new0, self._new)
        self._store("halt", new0, [_THRESHOLD if c == 0 else _MAX_STEPS for c in self._new])
        self._store("first", new0, [0] * len(self._new))
        self._new = []
        self.count[ks] = counts
        self.first[ks] = firsts


def _action_distribution(
    entry: PolicyEntry, mec_index: int | None, state: str
) -> list[tuple[str, float]]:
    """The action distribution of the controller at ``state``; empty where it has no action.

    A component that offers no action at one of its states is an error,
    raised for the first trial that needs an action there.
    """
    if mec_index is not None:
        frag = entry.mecs[mec_index]
        if state not in frag.mec.states:
            return []
        dist = list(frag.distribution(state).items())
        if not dist:
            raise AssertionError("cannot sample from an empty distribution")
        return dist
    a = entry.reach.get(state)
    return [] if a is None else [(a, 1.0)]


def trace_to_csv(trace: Trace) -> str:
    """CSV rows ``t,state,action,b_1,...,b_N`` (empty action on the final row)."""
    n = len(trace.steps[0].beliefs)
    header = "t,state,action," + ",".join(f"b_{i + 1}" for i in range(n))
    lines = [header]
    for step in trace.steps:
        beliefs = ",".join(repr(b) for b in step.beliefs)
        lines.append(f"{step.t},{step.state},{step.action or ''},{beliefs}")
    return "\n".join(lines) + "\n"


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
    if truth is None:
        keys = [_philox_key(seed ^ 0x9E3779B97F4A7C15, i) for i in range(trials)]
        truths = _draw_truth(_Streams(keys, 1).next(), priors_t)
    else:
        mmdp.model(truth)  # ModelError for an index outside 1..n
        truths = np.full(trials, truth - 1)
    streams = _Streams([_philox_key(seed + i, 0) for i in range(trials)], 2 * max_steps)
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
