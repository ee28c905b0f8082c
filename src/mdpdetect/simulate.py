"""Policy execution, Bayesian belief updates, and seeded Monte-Carlo batches.

Policies run on the original models. Detection terminals never appear at
runtime: the events they stand for surface as observed transitions of zero
likelihood under some models, which zero those posteriors exactly and shrink
the active set. The random streams are counter-based (Philox keyed by
(seed, trial index)), so trials are independent and reproducible in any
execution order: Monte Carlo advances all its trials in lockstep, over a
controller table compiled for just the augmented states they reach, and
gets the results a trial-by-trial loop would.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .analysis import _Aug, _canonical_aug, _expand_aug
from .errors import ContractError, ImpossibleObservationError, ModelError
from .models import Mmdp
from .policy import ActiveSet, DetectionPolicy, PolicyEntry, active_set, survivors

_MASK64 = (1 << 64) - 1
_BLOCK = 64  # uniforms a Monte-Carlo trial draws from its stream at a time
# the action count of an augmented state not compiled yet, and of one where
# choosing the action raises
_UNCOMPILED = -1
_FAILS = -2


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
    return BeliefState(probs=_update(b.probs, s, a, s_next, mmdp))


def _update(
    probs: tuple[float, ...], s: str, a: str, s_next: str, mmdp: Mmdp
) -> tuple[float, ...]:
    weighted = [p * m.prob(s, a, s_next) for p, m in zip(probs, mmdp.models)]
    # in model order, on every Python version (since 3.12, sum() compensates)
    denom = 0.0
    for w in weighted:
        denom += w
    if denom <= 0.0:
        raise ImpossibleObservationError(
            f"transition ({s}, {a}, {s_next}) is impossible under the current belief support"
        )
    return tuple([w / denom for w in weighted])


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


def _sample(items: Iterable[tuple[str, float]], rng: np.random.Generator) -> str:
    u = rng.random()
    acc = 0.0
    last = None
    for value, p in sorted(items):
        acc += p
        last = value
        if u < acc:
            return value
    assert last is not None, "cannot sample from an empty distribution"
    return last


class _Controller:
    """Execution state of a detection policy: active set, entry, committed component."""

    def __init__(self, policy: DetectionPolicy, mec_weights: Mapping[str, float] | None = None):
        self.policy = policy
        self.mec_weights = mec_weights
        self.entry: PolicyEntry | None = None
        self.mec_index: int | None = None

    def enter(self, active: ActiveSet, state: str) -> bool:
        self.entry = self.policy.entry(active, state)
        if self.entry is None:
            return False
        self.mec_index = self.entry.committed_mec(state)
        return True

    def arrive(self, state: str) -> None:
        # Commitment is permanent per active set; only an uncommitted
        # controller may lock onto a component.
        if self.entry is not None and self.mec_index is None:
            self.mec_index = self.entry.committed_mec(state)

    def action_distribution(self, state: str) -> list[tuple[str, float]]:
        dist = _action_distribution(self.entry, self.mec_index, state)
        if dist and self.mec_index is not None and self.mec_weights is not None:
            weighted = {a: self.mec_weights.get(a, 0.0) for a, _ in dist}
            total = sum(weighted.values())
            if total > 0.0:
                return [(a, w / total) for a, w in weighted.items() if w > 0.0]
        return dist


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


def _episode(
    mmdp: Mmdp,
    truth: int,
    controller: _Controller,
    rng: np.random.Generator,
    beliefs: tuple[float, ...],
    max_steps: int,
    threshold: float,
    steps: list[TraceStep] | None = None,
) -> tuple[str, int, str, tuple[float, ...]]:
    """Run one episode from the initial state against model ``truth``.

    Stops, checked in this order before every step: when the top posterior
    reaches ``threshold`` or one model remains ("threshold"; a lone survivor
    holds posterior 1), when the policy has no entry for a new active set
    ("undetectable"), at ``max_steps`` ("max_steps"), and when the policy has
    no action at the current state ("undetectable"). A model leaves the active
    set only when it gives an observed transition probability zero. Appends
    every played step to ``steps`` when given. Returns the stop reason, the
    number of steps played, the final state and the final beliefs.
    """
    truth_model = mmdp.model(truth)
    active = active_set(range(1, mmdp.n + 1))
    state = mmdp.initial
    if not controller.enter(active, state):
        raise ContractError(
            f"policy has no entry for the initial configuration ({active}, {state!r})"
        )
    entered = True
    t = 0
    while True:
        if max(beliefs) >= threshold or len(active) == 1:
            return "threshold", t, state, beliefs
        if not entered:
            if not controller.enter(active, state):
                return "undetectable", t, state, beliefs
            entered = True
        if t >= max_steps:
            return "max_steps", t, state, beliefs
        dist = controller.action_distribution(state)
        if not dist:
            return "undetectable", t, state, beliefs
        action = _sample(dist, rng)
        succ = _sample(truth_model.row(state, action).items(), rng)
        if steps is not None:
            steps.append(TraceStep(t=t, state=state, action=action, beliefs=beliefs))
        beliefs = _update(beliefs, state, action, succ, mmdp)
        # a positive posterior implies a positive likelihood, so only a zero
        # posterior (an eliminated or an underflowed model) needs the support
        remaining = survivors(mmdp, active, state, action, succ) if 0.0 in beliefs else active
        state = succ
        t += 1
        if remaining == active:
            controller.arrive(state)
        else:
            active = remaining
            entered = False


def simulate(
    mmdp: Mmdp,
    truth: int,
    policy: DetectionPolicy,
    seed: int,
    max_steps: int = 10_000,
    threshold: float = 0.98,
    priors: Sequence[float] | None = None,
    mec_weights: Mapping[str, float] | None = None,
) -> Trace:
    """Run one seeded detection episode against the ground-truth model.

    Stops when the top posterior reaches ``threshold``, at ``max_steps``, or
    when the policy has no entry for the reached (active set, state)
    configuration ("undetectable continuation").
    """
    if not 0.5 < threshold < 1.0:
        raise ModelError(f"threshold must lie in (0.5, 1), got {threshold}")
    beliefs = _check_priors(priors, mmdp.n, "priors")
    steps: list[TraceStep] = []
    stop, t, state, beliefs = _episode(
        mmdp, truth, _Controller(policy, mec_weights), trial_rng(seed, 0), beliefs,
        max_steps, threshold, steps,
    )
    steps.append(TraceStep(t=t, state=state, action=None, beliefs=beliefs))
    return Trace(seed=seed, truth=truth, steps=tuple(steps), stop_reason=stop)


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
    truth, beliefs = _lockstep(mmdp, policy, t, trials, seed, q, theta)
    # np.argmax takes the first maximum: ties go to the smaller index, as in map_decide
    errors = int(np.count_nonzero(np.argmax(beliefs, axis=1) != truth))
    estimate = errors / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, stderr


def _lockstep(
    mmdp: Mmdp,
    policy: DetectionPolicy,
    t: int,
    trials: int,
    seed: int,
    q: tuple[float, ...],
    theta: tuple[float, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """The 0-based truth and the final beliefs of every Monte-Carlo trial.

    All live trials advance one step at a time, as arrays, and each one plays
    exactly the episode ``_episode`` plays on its own stream ``trial_rng(seed,
    trial)`` with threshold infinity: the truth is drawn first, over the
    models in ``str`` order ("10" before "2"), then one uniform picks the
    action and one the successor, each the first item whose running sum
    exceeds it (the last item takes any remainder). The belief update sums
    the weighted likelihoods model by model, as ``_update`` does. A
    trial stops after ``t`` steps, on a lone survivor, on an active set the
    policy has no entry for, and at a state where it has no action. An error
    inside an episode is raised after every trial with a smaller index has
    finished, as a trial-by-trial run would raise it.
    """
    streams = _Streams(seed, trials, 1 + 2 * t)
    order = sorted(range(mmdp.n), key=lambda i: str(i + 1))
    theta_cdf = np.fromiter(itertools.accumulate(theta[i] for i in order), float, mmdp.n)
    drawn = np.searchsorted(theta_cdf, streams.next(), side="right")
    truth = np.asarray(order)[np.minimum(drawn, mmdp.n - 1)]
    beliefs = np.tile(np.asarray(q), (trials, 1))

    full = active_set(range(1, mmdp.n + 1))
    if policy.entry(full, mmdp.initial) is None:
        raise ContractError(
            f"policy has no entry for the initial configuration ({full}, {mmdp.initial!r})"
        )
    table = _CompiledController(
        mmdp, policy, _canonical_aug(policy, (full, mmdp.initial), None, mmdp.initial)
    )
    rows = mmdp.sampling

    # the trials still running, in trial order, with their augmented state,
    # beliefs and truth
    live = np.arange(trials)
    state = np.full(trials, table.start)
    b = beliefs.copy()
    tr = truth
    failed: dict[int, BaseException] = {}

    def drop(keep: np.ndarray) -> np.ndarray:
        """Keep the live trials in ``keep`` that a trial-by-trial run would still reach.

        Returns the mask applied; the beliefs of the others are final.
        """
        nonlocal live, state, b, tr
        if failed:
            keep &= live < min(failed)
        beliefs[live[~keep]] = b[~keep]
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

    for _ in range(t):
        if not len(live):
            break
        count = table.count[state]
        if (count == _UNCOMPILED).any():
            table.compile(sorted(set(state[count == _UNCOMPILED].tolist())))
            count = table.count[state]
        if count.min() <= 0:
            record(count == _FAILS, lambda k: table.errors[state[k]])
            count = count[drop(count > 0)]
        first = table.first[state]
        slot = first + np.minimum(_below(table.act_cdf, first, count, streams.next()), count - 1)
        last = table.last[slot, tr]
        u = streams.next()
        if (last < 0).any():
            record(last < 0, lambda k: AssertionError("cannot sample from an empty distribution"))
            keep = drop(last >= 0)
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
            keep = drop(denom > 0.0)
            weighted, denom, slot, j = weighted[keep], denom[keep], slot[keep], j[keep]
        b = weighted / denom[:, None]
        state = table.target[table.tlo[slot] + j]
    beliefs[live] = b
    if failed:
        raise failed[min(failed)]
    return truth, beliefs


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

    Trial ``i`` draws from ``trial_rng(seed, i)``, at most ``need`` uniforms in
    all. Every live trial has drawn as many as every other, so one position
    serves them all. A stream is kept only while it has more to give.
    """

    def __init__(self, seed: int, trials: int, need: int) -> None:
        self.seed = seed
        self.need = need
        self.ids = np.arange(trials)
        self.rngs: dict[int, np.random.Generator] = {}
        self.block = np.empty((trials, 0))
        self.pos = 0
        self.drawn = 0

    def next(self) -> np.ndarray:
        """One uniform per live trial: its stream's next."""
        if self.pos == self.block.shape[1]:
            width = min(_BLOCK, self.need - self.drawn)
            rows, rngs = [], {}
            for i in self.ids.tolist():
                rng = self.rngs[i] if self.drawn else trial_rng(self.seed, i)
                rows.append(rng.random(width))
                if self.drawn + width < self.need:
                    rngs[i] = rng
            self.block = np.array(rows).reshape(len(rows), width)
            self.rngs = rngs
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
    its new active set. State ``k`` has ``count[k]`` action slots from
    ``first[k]``, in sorted action order; ``count[k]`` is 0 where a trial stops
    (a lone survivor, or no action at the state), ``_FAILS`` where choosing
    the action raises ``errors[k]``, and ``_UNCOMPILED`` until a trial needs
    it. Slot ``g`` holds the action's running sum ``act_cdf[g]``, the row
    ``lo[g]``, ``size[g]``, ``last[g]`` of (state, action) in ``rows``, and
    the state each of its successors leads to, as ``target[tlo[g] + j]``.
    """

    def __init__(self, mmdp: Mmdp, policy: DetectionPolicy, start: _Aug) -> None:
        self.mmdp, self.policy, self.rows = mmdp, policy, mmdp.sampling
        self.augs: list[_Aug | None] = [None]
        self.index: dict[_Aug, int] = {}
        self.errors: dict[int, BaseException] = {}
        self.actions: list[str] = []  # per slot, for error messages
        self.count = np.zeros(1, np.intp)
        self.first = np.zeros(1, np.intp)
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
        self._store("first", new0, [0] * len(self._new))
        self._new = []
        self.count[ks] = counts
        self.first[ks] = firsts


def _action_distribution(
    entry: PolicyEntry, mec_index: int | None, state: str
) -> list[tuple[str, float]]:
    """The action distribution of the controller at ``state``; empty where it has no action.

    A component that offers no action at one of its states is an error, the
    one ``_sample`` raises for an empty distribution.
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
    (uniform by default). Results merge deterministically in trial order.
    """
    priors_t = _check_priors(priors, mmdp.n, "priors")
    theta_items = [(str(i + 1), p) for i, p in enumerate(priors_t)]
    per_truth: dict[int, dict[str, int]] = {
        i: {"runs": 0, "threshold_stops": 0, "threshold_correct": 0, "stop_time_total": 0}
        for i in range(1, mmdp.n + 1)
    }
    errors = 0
    stop_reasons = {"threshold": 0, "max_steps": 0, "undetectable": 0}
    for trial in range(trials):
        if truth is None:
            tr = int(_sample(theta_items, trial_rng(seed ^ 0x9E3779B97F4A7C15, trial)))
        else:
            tr = truth
        trace = simulate(
            mmdp, tr, policy, seed=seed + trial, max_steps=max_steps,
            threshold=threshold, priors=priors,
        )
        decided = map_decide(trace.steps[-1].beliefs)
        stats = per_truth[tr]
        stats["runs"] += 1
        stats["stop_time_total"] += trace.steps[-1].t
        stop_reasons[trace.stop_reason] += 1
        if trace.stop_reason == "threshold":
            stats["threshold_stops"] += 1
            stats["threshold_correct"] += int(decided == tr)
        if decided != tr:
            errors += 1
    estimate = errors / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    threshold_stops = stop_reasons["threshold"]
    total_correct = sum(s["threshold_correct"] for s in per_truth.values())
    return {
        "trials": trials,
        "seed": seed,
        "error_estimate": estimate,
        "error_stderr": stderr,
        "stop_reasons": stop_reasons,
        "threshold_stop_fraction": threshold_stops / trials,
        "threshold_accuracy": (total_correct / threshold_stops) if threshold_stops else None,
        "per_truth": {
            str(i): {
                "runs": s["runs"],
                "threshold_stops": s["threshold_stops"],
                "threshold_accuracy": (
                    s["threshold_correct"] / s["threshold_stops"] if s["threshold_stops"] else None
                ),
                "mean_stop_time": (s["stop_time_total"] / s["runs"]) if s["runs"] else None,
            }
            for i, s in per_truth.items()
        },
    }
