"""Policy execution, Bayesian belief updates, and seeded Monte-Carlo batches.

Policies run on the original models. Detection terminals never appear at
runtime: the events they stand for surface as observed transitions of zero
likelihood under some models, which zero those posteriors exactly and shrink
the active set. The random streams are counter-based (Philox keyed by
(seed, trial index)), so trials are independent and reproducible in any
execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ContractError, ImpossibleObservationError, ModelError
from .models import Mmdp
from .policy import ActiveSet, DetectionPolicy, PolicyEntry, active_set, survivors

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class BeliefState:
    """Posterior probabilities over the candidate models."""

    probs: tuple[float, ...]

    @property
    def active(self) -> ActiveSet:
        return tuple(i + 1 for i, p in enumerate(self.probs) if p > 0.0)

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
    denom = sum(weighted)
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

    def action_distribution(self, state: str) -> list[tuple[str, float]] | None:
        if self.entry is None:
            return None
        if self.mec_index is not None:
            frag = self.entry.mecs[self.mec_index]
            if state not in frag.mec.states:
                return None
            dist = frag.distribution(state)
            if self.mec_weights is not None:
                weighted = {a: self.mec_weights.get(a, 0.0) for a in dist}
                total = sum(weighted.values())
                if total > 0.0:
                    return [(a, w / total) for a, w in weighted.items() if w > 0.0]
            return list(dist.items())
        a = self.entry.reach.get(state)
        if a is None:
            return None
        return [(a, 1.0)]


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
        if dist is None:
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
    theta_items = [(str(i + 1), p) for i, p in enumerate(theta)]

    errors = 0
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        truth = int(_sample(theta_items, rng))
        _, _, _, beliefs = _episode(mmdp, truth, _Controller(policy, None), rng, q, t, math.inf)
        if map_decide(beliefs) != truth:
            errors += 1
    estimate = errors / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, stderr


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
