"""Shared fixtures: reference models, random instance generators, graph oracles."""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
from collections import deque
from functools import cached_property, reduce
from operator import add
from typing import Any, Iterable, Mapping

import numpy as np
import pytest
from hypothesis import settings

from mdpdetect import general
from mdpdetect.analysis import _MAX_STEPS, BcCurve, _compiled
from mdpdetect.binary import (
    INFORMATIVE,
    NEUTRAL,
    PLAIN,
    REVEALING,
    PreprocessedPair,
    SaClassification,
    _check_shared_structure,
    _decide,
    preprocess,
)
from mdpdetect.errors import ContractError, HorizonCapError, ImpossibleObservationError, ModelError
from mdpdetect.graphs import (
    Mec,
    SupportGraph,
    almost_sure_reach_set,
    bit_indices,
    mec_decompose,
    reachable_states,
)
from mdpdetect.models import (
    PROB_SUM_TOL,
    ROW_EQ_TOL,
    Mdp,
    Mmdp,
    actions_at,
    fresh_name,
    serialize_mmdp,
    support,
    trial_rng,
)
from mdpdetect.policy import DetectionPolicy, PolicyEntry, active_set, members, serialize_policy
from mdpdetect.simulate import Trace, TraceStep, _check_priors, map_decide

# every property test runs the same examples on every run, however long they take
settings.register_profile("mdpdetect", deadline=None, derandomize=True, database=None)
settings.load_profile("mdpdetect")


def mk_mdp(states, actions, kernel, initial, name="M"):
    return Mdp(
        states=tuple(states),
        actions={s: tuple(a) for s, a in actions.items()},
        kernel={k: dict(v) for k, v in kernel.items()},
        initial=initial,
        name=name,
    )


def example1_mmdp(initial="1"):
    """Seven-state reference pair: two informative pairs, one revealing state."""
    states = [str(i) for i in range(1, 8)]
    actions = {
        "1": ("a1",),
        "2": ("a2", "b2"),
        "3": ("a3",),
        "4": ("a4",),
        "5": ("a5", "b5"),
        "6": ("a6",),
        "7": ("a7",),
    }
    common = {
        ("2", "a2"): {"2": 0.2, "5": 0.3, "6": 0.5},
        ("3", "a3"): {"3": 0.5, "4": 0.5},
        ("4", "a4"): {"3": 0.5, "4": 0.5},
        ("6", "a6"): {"6": 1.0},
        ("7", "a7"): {"7": 1.0},
    }
    k1 = dict(common)
    k1[("1", "a1")] = {"2": 0.7, "3": 0.3}
    k1[("2", "b2")] = {"2": 0.5, "5": 0.5}
    k1[("5", "a5")] = {"5": 0.7, "7": 0.3}
    k1[("5", "b5")] = {"5": 1.0}
    k2 = dict(common)
    k2[("1", "a1")] = {"2": 0.4, "3": 0.6}
    k2[("2", "b2")] = {"2": 0.5, "6": 0.5}
    k2[("5", "a5")] = {"5": 0.3, "7": 0.7}
    k2[("5", "b5")] = {"7": 1.0}
    m1 = mk_mdp(states, actions, k1, initial, "M1")
    m2 = mk_mdp(states, actions, k2, initial, "M2")
    return Mmdp(models=(m1, m2))


@pytest.fixture
def example1():
    return example1_mmdp()


def sqrt_half_mmdp():
    """One informative self-loop: B(t) = (1/2)^(t/2) in closed form."""
    states = ("s", "u")
    actions = {"s": ("a",), "u": ("a",)}
    m1 = mk_mdp(states, actions, {("s", "a"): {"s": 1.0}, ("u", "a"): {"u": 1.0}}, "s", "M1")
    m2 = mk_mdp(
        states, actions, {("s", "a"): {"s": 0.5, "u": 0.5}, ("u", "a"): {"u": 1.0}}, "s", "M2"
    )
    return Mmdp(models=(m1, m2))


def identical_mmdp(n_models=2, initial="x"):
    """All models equal: nothing is detectable."""
    states = ("x", "y")
    actions = {"x": ("a", "b"), "y": ("a",)}
    kernel = {
        ("x", "a"): {"x": 0.5, "y": 0.5},
        ("x", "b"): {"x": 1.0},
        ("y", "a"): {"x": 1.0},
    }
    models = tuple(mk_mdp(states, actions, kernel, initial, f"M{i+1}") for i in range(n_models))
    return Mmdp(models=models)


def rng_for(seed):
    return np.random.Generator(np.random.Philox(key=(seed, 0)))


def random_transition_system(rng, n_states=6, max_actions=3) -> TransitionSystem:
    states = tuple(f"s{i}" for i in range(n_states))
    actions = {}
    triples = set()
    for s in states:
        count = int(rng.integers(1, max_actions + 1))
        acts = tuple(f"a{j}" for j in range(count))
        actions[s] = acts
        for a in acts:
            n_succ = int(rng.integers(1, 3))
            succs = rng.choice(n_states, size=n_succ, replace=False)
            for t in succs:
                triples.add((s, a, states[int(t)]))
    return TransitionSystem(states=states, actions=actions, transitions=frozenset(triples))


def random_binary_mmdp(rng, n_states=5, max_actions=2, informative_share=0.6) -> Mmdp:
    """Shared-support pair; a random share of rows differ in their masses."""
    states = tuple(f"s{i}" for i in range(n_states))
    actions = {}
    k1, k2 = {}, {}
    for i, s in enumerate(states):
        count = int(rng.integers(1, max_actions + 1))
        acts = tuple(f"a{j}" for j in range(count))
        actions[s] = acts
        for a in acts:
            other = int(rng.integers(0, n_states - 1))
            if other >= i:
                other += 1
            succs = (s if rng.random() < 0.5 else states[other], states[int(rng.integers(0, n_states))])
            succs = tuple(dict.fromkeys(succs))
            if len(succs) == 1:
                row1 = {succs[0]: 1.0}
                row2 = {succs[0]: 1.0}
            else:
                p = float(rng.uniform(0.2, 0.8))
                row1 = {succs[0]: p, succs[1]: 1.0 - p}
                if rng.random() < informative_share:
                    shift = float(rng.uniform(0.1, min(0.15, p - 0.05, 0.95 - p)))
                    q = p + shift if rng.random() < 0.5 else p - shift
                    row2 = {succs[0]: q, succs[1]: 1.0 - q}
                else:
                    row2 = dict(row1)
            k1[(s, a)] = row1
            k2[(s, a)] = row2
    m1 = mk_mdp(states, actions, k1, states[0], "M1")
    m2 = mk_mdp(states, actions, k2, states[0], "M2")
    return Mmdp(models=(m1, m2))


def random_detectable_binary(rng, n_states=5) -> Mmdp:
    """Strongly connected shared-support pair with at least one informative row.

    A directed cycle through all states keeps the whole space one end
    component, so synthesis succeeds from every initial state.
    """
    states = tuple(f"s{i}" for i in range(n_states))
    actions = {s: ("a0",) if rng.random() < 0.5 else ("a0", "a1") for s in states}
    k1, k2 = {}, {}
    for i, s in enumerate(states):
        for a in actions[s]:
            nxt = states[(i + 1) % n_states]
            extra = states[int(rng.integers(0, n_states))]
            p = float(rng.uniform(0.3, 0.7))
            if extra == nxt:
                row1 = {nxt: 1.0}
                row2 = {nxt: 1.0}
            else:
                row1 = {nxt: p, extra: 1.0 - p}
                q = p + (0.2 if p < 0.5 else -0.2)
                row2 = {nxt: q, extra: 1.0 - q} if rng.random() < 0.7 else dict(row1)
            k1[(s, a)] = row1
            k2[(s, a)] = row2
    # force one genuinely informative pair
    s0 = states[0]
    a0 = actions[s0][0]
    nxt = states[1 % n_states]
    k1[(s0, a0)] = {s0: 0.6, nxt: 0.4}
    k2[(s0, a0)] = {s0: 0.3, nxt: 0.7}
    m1 = mk_mdp(states, actions, k1, states[0], "M1")
    m2 = mk_mdp(states, actions, k2, states[0], "M2")
    return Mmdp(models=(m1, m2))


def random_multi_mmdp(rng, n_models=3, n_states=5, reveal_share=0.25) -> Mmdp:
    """Shared skeleton with informative mass differences and occasional
    identity-revealing support drops."""
    states = tuple(f"s{i}" for i in range(n_states))
    actions = {s: ("a0",) if rng.random() < 0.6 else ("a0", "a1") for s in states}
    kernels = [dict() for _ in range(n_models)]
    for i, s in enumerate(states):
        for a in actions[s]:
            nxt = states[(i + 1) % n_states]
            extra = states[int(rng.integers(0, n_states))]
            succs = tuple(dict.fromkeys((nxt, extra)))
            if len(succs) == 1:
                for k in kernels:
                    k[(s, a)] = {succs[0]: 1.0}
                continue
            cut = None
            if rng.random() < reveal_share:
                cut = int(rng.integers(0, n_models))
            for m, k in enumerate(kernels):
                if m == cut:
                    k[(s, a)] = {succs[0]: 1.0}
                else:
                    p = float(rng.uniform(0.25, 0.75))
                    k[(s, a)] = {succs[0]: p, succs[1]: 1.0 - p}
    models = tuple(
        mk_mdp(states, actions, kernels[m], states[0], f"M{m+1}") for m in range(n_models)
    )
    return Mmdp(models=models)


def random_sparse_cut_mmdp(rng, n_models=3, n_states=5) -> Mmdp:
    """Shared rows whose masses differ between models on a few rows only, some of
    which cut a successor from one model's support (an explicit 0.0 stays in the row)."""
    states = tuple(f"s{i}" for i in range(n_states))
    actions = {s: tuple(f"a{j}" for j in range(int(rng.integers(1, 3)))) for s in states}
    kernels = [dict() for _ in range(n_models)]
    for s in states:
        for a in actions[s]:
            picks = rng.integers(0, n_states, size=int(rng.integers(1, 4)))
            succs = tuple(dict.fromkeys(states[int(t)] for t in picks))
            base = rng.uniform(0.2, 1.0, size=len(succs))
            for k in kernels:
                w = base.copy()
                if len(succs) > 1 and rng.random() < 0.15:
                    w = rng.uniform(0.2, 1.0, size=len(succs))
                if len(succs) > 1 and rng.random() < 0.15:
                    w[int(rng.integers(0, len(succs)))] = 0.0
                w = w / w.sum()
                k[(s, a)] = {t: float(p) for t, p in zip(succs, w)}
    models = tuple(
        mk_mdp(states, actions, kernels[m], states[0], f"M{m+1}") for m in range(n_models)
    )
    return Mmdp(models=models)


def renamed(mmdp, state, action) -> Mmdp:
    """``mmdp`` with each state ``s`` renamed ``state(s)`` and each action ``a`` renamed ``action(a)``."""

    def rename(m):
        return Mdp(
            states=tuple(map(state, m.states)),
            actions={state(s): tuple(map(action, acts)) for s, acts in m.actions.items()},
            kernel={
                (state(s), action(a)): {state(t): p for t, p in row.items()}
                for (s, a), row in m.kernel.items()
            },
            initial=state(m.initial),
            name=m.name,
        )

    return Mmdp(models=tuple(map(rename, mmdp.models)))


def random_stationary_policy(rng, mmdp) -> dict:
    table = {}
    for s in mmdp.states:
        acts = mmdp.actions[s]
        weights = rng.uniform(0.2, 1.0, size=len(acts))
        weights = weights / weights.sum()
        table[s] = {a: float(w) for a, w in zip(acts, weights)}
    return table


# ---------------------------------------------------------------------------
# The string-keyed support structure that the oracles and the frozen graph
# references below take, the structures the package built in that form before
# it read every graph from the support rows, and the interning that turns one
# into the `SupportGraph` the kernels of `mdpdetect.graphs` run on.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TransitionSystem:
    """Qualitative structure: which transitions are possible at all."""

    states: tuple[str, ...]
    actions: Mapping[str, tuple[str, ...]]
    transitions: frozenset[tuple[str, str, str]]

    @cached_property
    def successors(self) -> dict[tuple[str, str], frozenset[str]]:
        succ: dict[tuple[str, str], set[str]] = {
            (s, a): set() for s in self.states for a in self.actions.get(s, ())
        }
        for (s, a, t) in self.transitions:
            succ[(s, a)].add(t)
        return {k: frozenset(v) for k, v in succ.items()}


def induced_system(mdp: Mdp) -> TransitionSystem:
    """The unique transition system carrying the support of the kernel."""
    triples = set()
    for s in mdp.states:
        for a in mdp.actions.get(s, ()):
            for t in support(mdp.row(s, a)):
                triples.add((s, a, t))
    return TransitionSystem(
        states=mdp.states, actions=dict(mdp.actions), transitions=frozenset(triples)
    )


def informative_graph(pair: PreprocessedPair) -> SupportGraph:
    """Union support of the two rewritten kernels (mixture-weight independent), interned."""
    m1, m2 = pair.m1, pair.m2
    names = tuple(sorted(m1.states))
    index = {s: i for i, s in enumerate(names)}
    actions: list[str] = []
    first: list[int] = []
    succ: list[int] = []
    for s in names:
        first.append(len(actions))
        for a in sorted(m1.actions[s]):
            bits = 0
            for row in (m1.row(s, a), m2.row(s, a)):
                for t, p in row.items():
                    if p > 0.0:
                        bits |= 1 << index[t]
            actions.append(a)
            succ.append(bits)
    first.append(len(actions))
    return SupportGraph(names, index, actions, first, succ, (1 << len(names)) - 1)


def informative_system(pair: PreprocessedPair) -> TransitionSystem:
    """Union support of the two rewritten kernels (mixture-weight independent)."""
    graph = informative_graph(pair)
    names, actions, first, succ = graph.names, graph.actions, graph.first, graph.succ
    triples = {
        (names[i], actions[r], names[j])
        for i in bit_indices(graph.domain)
        for r in range(first[i], first[i + 1])
        for j in bit_indices(succ[r])
    }
    return TransitionSystem(
        states=pair.m1.states, actions=dict(pair.m1.actions), transitions=frozenset(triples)
    )


def graph_of(ts: TransitionSystem) -> SupportGraph:
    """The states of ``ts`` interned in sorted order, each state's rows in sorted action order."""
    names = tuple(sorted(set(ts.states)))
    index = {s: i for i, s in enumerate(names)}
    outside = 1 << len(names)
    successors = ts.successors
    actions: list[str] = []
    first: list[int] = []
    succ: list[int] = []
    for s in names:
        first.append(len(actions))
        for a in sorted(ts.actions.get(s, ())):
            bits = 0
            for t in successors[(s, a)]:
                bits |= 1 << index[t] if t in index else outside
            actions.append(a)
            succ.append(bits)
    first.append(len(actions))
    return SupportGraph(names, index, actions, first, succ, outside - 1)


def system_of(graph: SupportGraph) -> TransitionSystem:
    """The string-keyed system of the states in ``graph.domain``.

    A successor outside the domain goes to one added sink state, which has
    no actions and which no caller takes as a target.
    """
    names, actions, first, succ, domain = graph.names, graph.actions, graph.first, graph.succ, graph.domain
    held = bit_indices(domain)
    sink = fresh_name("sink", names)
    acts: dict[str, tuple[str, ...]] = {}
    triples = set()
    for i in held:
        acts[names[i]] = tuple(actions[first[i] : first[i + 1]])
        for r in range(first[i], first[i + 1]):
            for j in bit_indices(succ[r]):
                triples.add((names[i], actions[r], names[j] if domain >> j & 1 else sink))
    return TransitionSystem(
        states=(*(names[i] for i in held), sink), actions=acts, transitions=frozenset(triples)
    )


# ---------------------------------------------------------------------------
# Independent oracles for the graph layer.
# ---------------------------------------------------------------------------


def oracle_mecs(ts: TransitionSystem):
    """All maximal end components by exhaustive state-subset enumeration."""
    states = list(ts.states)
    succ = ts.successors
    components = []
    for r in range(1, len(states) + 1):
        for subset in itertools.combinations(states, r):
            inside = set(subset)
            acts = {
                s: {a for a in ts.actions.get(s, ()) if succ[(s, a)] and succ[(s, a)] <= inside}
                for s in subset
            }
            if any(not acts[s] for s in subset):
                continue
            if not _strongly_connected(subset, acts, succ):
                continue
            components.append((frozenset(subset), {s: frozenset(acts[s]) for s in subset}))
    maximal = []
    for states_a, acts_a in components:
        dominated = False
        for states_b, acts_b in components:
            if (states_a, acts_a) == (states_b, acts_b):
                continue
            if states_a <= states_b and all(acts_a[s] <= acts_b[s] for s in states_a):
                dominated = True
                break
        if not dominated:
            maximal.append((states_a, {s: acts_a[s] for s in states_a}))
    return sorted(maximal, key=lambda c: sorted(c[0]))


def oracle_map_error(mmdp, policy, t, q, theta, cap=6):
    """The exact MAP error after ``t`` steps, by enumerating every history of length at most ``t``.

    Histories run on the controller table of ``_compiled``: each slot is
    played with probability ``1 / count`` (the value the bc DP uses),
    each model's probability of the history is carried from ``rows.lik``, and
    the beliefs start at ``q`` and are updated with the lockstep kernel's
    arithmetic (``b * lik``, a denominator summed model by model, then a
    division). A history stops at a state with ``count == 0``. The error sums
    ``theta[k] * P_k(h)`` over every model ``k`` that the MAP rule (the first
    maximum) does not pick. Refuses horizons above ``cap``.
    """
    if t > cap:
        raise HorizonCapError(f"horizon {t} exceeds the enumeration cap {cap}")
    table, lik = _compiled(mmdp, policy), mmdp.rows.lik
    error = 0.0
    stack = [(0, np.ones(mmdp.n), np.asarray(q, float), t)]
    while stack:
        k, prob, b, left = stack.pop()
        count = int(table.count[k])
        if left == 0 or count == 0:
            pick = int(np.argmax(b))
            error += sum(theta[m] * prob[m] for m in range(mmdp.n) if m != pick)
            continue
        for g in range(table.first[k], table.first[k] + count):
            for j in range(table.size[g]):
                row = lik[table.lo[g] + j]
                weighted = b * row
                denom = weighted[0]
                for m in range(1, mmdp.n):
                    denom += weighted[m]
                if denom > 0.0:  # else no model with a positive belief allows the entry
                    stack.append((int(table.target[table.tlo[g] + j]), prob * row / count, weighted / denom, left - 1))
    return error


def binomial_limit(p: float, n: int, delta: float, upper: bool) -> float:
    """Chernoff limit for a mean of n Bernoulli(p) draws (a copy of ``bench/checks.py``'s,
    which still divides by zero at p = 0 with ``upper`` and at p = 1 without).

    Returns x with P(mean >= x) <= delta (upper) or P(mean <= x) <= delta
    (lower), from P <= exp(-n KL(x || p)). At p = 0 every mean is 0, and at
    p = 1 every mean is 1, so either limit is p there.
    """
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    target = math.log(1.0 / delta) / n
    if upper:
        if _kl(1.0, p) < target:
            return 1.0
        lo, hi = p, 1.0
    else:
        if _kl(0.0, p) < target:
            return 0.0
        lo, hi = 0.0, p
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if (_kl(mid, p) < target) == upper:
            lo = mid
        else:
            hi = mid
    return hi if upper else lo


def _kl(x: float, p: float) -> float:
    def term(a: float, b: float) -> float:
        return 0.0 if a == 0.0 else a * math.log(a / b)
    return term(x, p) + term(1.0 - x, 1.0 - p)


def _strongly_connected(subset, acts, succ):
    inside = set(subset)
    for start in subset:
        seen = {start}
        frontier = deque([start])
        while frontier:
            x = frontier.popleft()
            for a in acts[x]:
                for t in succ[(x, a)]:
                    if t in inside and t not in seen:
                        seen.add(t)
                        frontier.append(t)
        if seen != inside:
            return False
    return True


def oracle_almost_sure_reach(ts: TransitionSystem, targets) -> frozenset:
    """Membership by enumerating every deterministic stationary policy.

    A state qualifies when, under some policy (with targets absorbing), no
    state from which the targets are unreachable can be reached.
    """
    targets = frozenset(targets)
    states = list(ts.states)
    succ = ts.successors
    choices = [ts.actions.get(s, ()) for s in states]
    winners = set(targets)
    for assignment in itertools.product(*choices):
        chain = {}
        for s, a in zip(states, assignment):
            chain[s] = frozenset() if s in targets else succ[(s, a)]
        can_reach = set(targets)
        changed = True
        while changed:
            changed = False
            for s in states:
                if s not in can_reach and chain[s] & can_reach:
                    can_reach.add(s)
                    changed = True
        doomed = {s for s in states if s not in can_reach}
        for s in states:
            if s in winners:
                continue
            seen = {s}
            frontier = deque([s])
            ok = s not in doomed
            while frontier and ok:
                x = frontier.popleft()
                for t in chain[x]:
                    if t in doomed:
                        ok = False
                        break
                    if t not in seen:
                        seen.add(t)
                        frontier.append(t)
            if ok:
                winners.add(s)
    return frozenset(winners)


def chain_reach_probability(rows, targets, tol=1e-13, max_iter=200000):
    """Hitting probabilities of ``targets`` for a Markov chain given as sparse rows."""
    states = sorted(rows)
    targets = frozenset(targets)
    h = {s: 1.0 if s in targets else 0.0 for s in states}
    for _ in range(max_iter):
        delta = 0.0
        for s in states:
            if s in targets:
                continue
            val = sum(p * h[t] for t, p in rows[s].items())
            delta = max(delta, abs(val - h[s]))
            h[s] = val
        if delta < tol:
            break
    return h


# ---------------------------------------------------------------------------
# Frozen reference for the graph layer: the string-keyed MEC refinement,
# almost-sure reach fixpoint and reach policy that the bitset kernels of
# `mdpdetect.graphs` replaced, kept verbatim so that their component order,
# reach sets, tie-breaks and errors stay the contract.
# ---------------------------------------------------------------------------


def reference_mec_decompose(ts: TransitionSystem) -> tuple[Mec, ...]:
    """The unique set of maximal end components of ``ts``.

    Standard SCC-refinement: starting from the full state set, repeatedly
    drop actions whose support leaves the current block, drop states with no
    actions left, and split blocks into strongly connected components until
    nothing changes. Surviving blocks are exactly the MECs.
    """
    succ = ts.successors
    initial_block = sorted(ts.states)
    work = deque()
    work.append((initial_block, {s: set(ts.actions.get(s, ())) for s in initial_block}))
    result = []
    while work:
        block, acts = work.popleft()
        members = set(block)
        changed = True
        while changed:
            changed = False
            for s in list(members):
                keep = {a for a in acts[s] if succ[(s, a)] <= members}
                if keep != acts[s]:
                    acts[s] = keep
                    changed = True
                if not keep:
                    members.discard(s)
                    del acts[s]
                    changed = True
        if not members:
            continue
        edges = {s: sorted({t for a in acts[s] for t in succ[(s, a)]}) for s in members}
        sccs = _reference_sccs(sorted(members), edges)
        if len(sccs) == 1 and len(sccs[0]) == len(members):
            result.append(Mec(members, acts))
        else:
            for comp in sccs:
                work.append((sorted(comp), {s: set(acts[s]) for s in comp}))
    result.sort(key=lambda c: sorted(c.states))
    return tuple(result)


def _reference_sccs(
    nodes: list[str], edges: Mapping[str, list[str]]
) -> list[list[str]]:
    """Iterative Tarjan over the given adjacency lists."""
    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = 0
    for root in nodes:
        if root in index:
            continue
        call: list[tuple[str, int]] = [(root, 0)]
        while call:
            node, ei = call.pop()
            if ei == 0:
                index[node] = low[node] = counter
                counter += 1
                stack.append(node)
                on_stack.add(node)
            advanced = False
            neighbors = edges[node]
            while ei < len(neighbors):
                nxt = neighbors[ei]
                ei += 1
                if nxt not in index:
                    call.append((node, ei))
                    call.append((nxt, 0))
                    advanced = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            if advanced:
                continue
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)
            if call:
                parent = call[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def reference_almost_sure_reach_set(ts: TransitionSystem, targets: Iterable[str]) -> frozenset[str]:
    """States from which some policy reaches ``targets`` with probability one.

    Double fixpoint: within a shrinking candidate set U, keep the states that
    can reach the targets using only actions whose full support stays in U.
    """
    target_set = frozenset(targets)
    unknown = target_set - set(ts.states)
    if unknown:
        raise ContractError(f"targets outside the state space: {sorted(unknown)}")
    succ = ts.successors
    preds: dict[str, list[tuple[str, str]]] = {s: [] for s in ts.states}
    for (s, a), dests in succ.items():
        for t in dests:
            preds[t].append((s, a))

    candidate = set(ts.states)
    while True:
        reached = set(target_set)
        frontier = deque(target_set)
        while frontier:
            t = frontier.popleft()
            for (s, a) in preds[t]:
                if s in reached or s not in candidate:
                    continue
                if succ[(s, a)] <= candidate:
                    reached.add(s)
                    frontier.append(s)
        if reached == candidate:
            return frozenset(reached)
        candidate = reached


def reference_reach_policy(
    ts: TransitionSystem, targets: Iterable[str], rmax: Iterable[str]
) -> dict[str, str]:
    """Deterministic state -> action table reaching ``targets`` with probability one on ``rmax``.

    Requires ``rmax == almost_sure_reach_set(ts, targets)``. At each state of
    ``rmax`` minus the targets, picks the admissible action (support inside
    ``rmax``) of minimal BFS distance to the targets, ties broken by action
    identifier order.
    """
    target_set = frozenset(targets)
    rmax_set = frozenset(rmax)
    succ = ts.successors
    admissible: dict[str, list[str]] = {}
    for s in sorted(rmax_set - target_set):
        admissible[s] = [a for a in sorted(ts.actions.get(s, ())) if succ[(s, a)] <= rmax_set]
        if not admissible[s]:
            raise ContractError(
                f"no admissible action at {s!r}: rmax is not an almost-sure reach set"
            )

    # Multi-source backward BFS over admissible edges.
    dist: dict[str, int] = {t: 0 for t in target_set}
    frontier = deque(target_set)
    preds: dict[str, list[str]] = {s: [] for s in ts.states}
    for s, acts in admissible.items():
        for a in acts:
            for t in succ[(s, a)]:
                preds[t].append(s)
    while frontier:
        t = frontier.popleft()
        for s in preds[t]:
            if s not in dist:
                dist[s] = dist[t] + 1
                frontier.append(s)

    table: dict[str, str] = {}
    for s, acts in admissible.items():
        if s not in dist:
            raise ContractError(
                f"state {s!r} cannot reach the targets: rmax is not an almost-sure reach set"
            )
        best = None
        best_d = None
        for a in acts:
            d = 1 + min(dist.get(t, len(ts.states) + 1) for t in succ[(s, a)])
            if best_d is None or d < best_d:
                best, best_d = a, d
        assert best is not None and best_d == dist[s]
        table[s] = best
    return table


def reference_uniform_policy(mec: Mec) -> dict[str, dict[str, float]]:
    """The in-component distributions of every state of ``mec``, as the
    ``mec_uniform_policy`` wrapper built them before ``Mec.distribution``
    replaced it: uniform over the sorted enabled actions."""
    return {
        s: {a: 1.0 / len(mec.actions[s]) for a in sorted(mec.actions[s])}
        for s in sorted(mec.states)
    }


# ---------------------------------------------------------------------------
# Frozen reference for the pair classification: the key-union tolerance test
# and the labelling that `classify_pairs` ran before it stopped at the first
# difference and passed exactly equal rows, kept so that its labels on explicit
# zeros, one-sided keys, tolerance edges and NaN stay the contract.
# ---------------------------------------------------------------------------


def reference_rows_equal(r1: Mapping[str, float], r2: Mapping[str, float]) -> bool:
    keys = set(r1) | set(r2)
    return all(abs(r1.get(k, 0.0) - r2.get(k, 0.0)) <= ROW_EQ_TOL for k in keys)


def reference_classify_pairs(m1: Mdp, m2: Mdp) -> SaClassification:
    """Label every (state, action) pair of a shared-structure model pair."""
    _check_shared_structure(m1, m2)
    pair_labels: dict[tuple[str, str], str] = {}
    state_labels: dict[str, str] = {}
    chosen: dict[str, str] = {}
    for s in m1.states:
        revealing_actions = []
        informative_here = False
        for a in m1.actions[s]:
            r1, r2 = m1.row(s, a), m2.row(s, a)
            if not any(p > 0.0 and r2.get(t, 0.0) > 0.0 for t, p in r1.items()):
                pair_labels[(s, a)] = REVEALING
                revealing_actions.append(a)
            elif not reference_rows_equal(r1, r2):
                pair_labels[(s, a)] = INFORMATIVE
                informative_here = True
            else:
                pair_labels[(s, a)] = NEUTRAL
        if revealing_actions:
            state_labels[s] = REVEALING
            chosen[s] = min(revealing_actions)
        elif informative_here:
            state_labels[s] = INFORMATIVE
        else:
            state_labels[s] = PLAIN
    return SaClassification(pair_labels=pair_labels, state_labels=state_labels, chosen_revealing=chosen)


# ---------------------------------------------------------------------------
# An existence oracle for any number of models that shares no structure with
# `general_apd`: one almost-sure reach on the product of states and active sets.
# ---------------------------------------------------------------------------


def oracle_product_exists(mmdp: Mmdp, initial: str) -> bool:
    """Whether detection from ``initial`` exists, decided on the belief-support product.

    The product's states are ``(s, A)`` for the active sets ``A`` of at least
    two models reachable from ``(initial, all models)``, plus one absorbing
    ``WIN``. Row ``(s, a)`` at ``(s, A)`` moves, for every successor ``t`` of
    the union support over ``A``, to ``(t, {i in A : P_i(s, a, t) > 0})``, or
    to ``WIN`` when that set holds one model. The targets are ``WIN`` and
    every end component, which lies inside one layer ``A``, that holds an
    informative row of every model pair of ``A``. Detection exists iff
    ``(initial, all models)`` reaches the targets with probability one.
    """
    win = "WIN"  # the other product states are JSON lists

    def name(s: str, active: tuple[int, ...]) -> str:
        return json.dumps([s, list(active)])

    full = tuple(range(1, mmdp.n + 1))
    actions: dict[str, tuple[str, ...]] = {win: ("stay",)}
    triples = {(win, "stay", win)}
    layer: dict[str, tuple[str, tuple[int, ...]]] = {}
    queue = deque([(initial, full)])
    seen = {(initial, full)}
    while queue:
        s, active = queue.popleft()
        here = name(s, active)
        layer[here] = (s, active)
        actions[here] = tuple(mmdp.actions[s])
        for a in actions[here]:
            rows = {i: mmdp.model(i).row(s, a) for i in active}
            for t in sorted({t for row in rows.values() for t, p in row.items() if p > 0.0}):
                sub = tuple(i for i in active if rows[i].get(t, 0.0) > 0.0)
                if len(sub) == 1:
                    triples.add((here, a, win))
                    continue
                triples.add((here, a, name(t, sub)))
                if (t, sub) not in seen:
                    seen.add((t, sub))
                    queue.append((t, sub))
    graph = graph_of(TransitionSystem(states=(win, *layer), actions=actions, transitions=frozenset(triples)))
    informative = {
        (i, j): reference_classify_pairs(mmdp.model(i), mmdp.model(j)).informative_pairs
        for i, j in itertools.combinations(full, 2)
    }
    targets = {win}
    for c in mec_decompose(graph):
        if win in c.states:
            continue
        active = layer[next(iter(c.states))][1]
        pairs = {(layer[q][0], a) for q in c.states for a in c.actions[q]}
        if all(pairs & informative[ij] for ij in itertools.combinations(active, 2)):
            targets |= c.states
    return name(initial, full) in almost_sure_reach_set(graph, targets)


# ---------------------------------------------------------------------------
# Frozen reference for the pair decision: the rewritten model pair built by
# `preprocess` and read back into bits, the composition that synthesis used
# before it read the pair graph from the support rows, kept so that its reach
# sets and components, and the report `bi_apd` writes from them, stay the
# contract.
# ---------------------------------------------------------------------------


def reference_pair_decision(m1, m2):
    """The initial-state-independent decision of the model pair ``(m1, m2)``."""
    pair = preprocess(m1, m2)
    graph = informative_graph(pair)
    isa_rows = graph.row_bits(pair.isa)
    return _decide(graph, (isa_rows,), frozenset({pair.bot1, pair.bot2}))


def reference_pair_report(m1, m2, initial):
    """The diagnostics of ``bi_apd`` on the model pair ``(m1, m2)`` from ``initial``.

    ``isa`` and the revealing pairs come from the rewritten pair; an
    undetectable ``initial`` also names the non-informative components it
    reaches in the rewritten pair's union support.
    """
    pair = preprocess(m1, m2)
    decision = reference_pair_decision(m1, m2)
    report = {
        "active": [1, 2],
        "initial": initial,
        "rmax": sorted(decision.rmax),
        "mecs": [c.as_dict() for c in decision.components],
        "informative_mecs": [c.as_dict() for c in decision.informative],
        "isa": sorted(pair.isa_original),
        "revealing_pairs": sorted(pair.classification.revealing_pairs),
    }
    if initial not in decision.rmax:
        reachable = reachable_states(informative_graph(pair), initial)
        report["witness_noninformative_mecs"] = [
            c.as_dict()
            for c in decision.components
            if c not in decision.informative and not reachable.isdisjoint(c.states)
        ]
    return report


# ---------------------------------------------------------------------------
# Frozen synthesis level: one breadth-first search, MEC decomposition and reach
# fixpoint per subproblem (active set, entry state), the level `general_apd`
# ran before it decided each active set once over every state. Patched in for
# `general._general_level`, it recurses through `general._solve`.
# ---------------------------------------------------------------------------


def frozen_general_level(ctx, active, initial):
    rows, frame = ctx.mmdp.rows, ctx.frame
    names, row_actions, groups = rows.names, rows.actions, rows.groups
    bot0, bot1 = len(names), len(names) + 1
    active_mask = sum(1 << (i - 1) for i in active)

    succ = [0] * len(row_actions) + [1 << bot0, 1 << bot1]
    start = rows.index[initial]
    explored = 1 << start
    queue = deque([start])
    recursion_jobs = deque()
    terminal_edges = []
    sub_entries = {}

    def settle(r, s, s2, sub, flag):
        succ[r] |= 1 << (bot1 if flag else bot0)
        terminal_edges.append({
            "state": names[s], "action": row_actions[r], "successor": names[s2],
            "support": list(sub), "flag": flag,
        })

    while queue:
        s = queue.popleft()
        for r, here in groups[s]:
            agree = 0
            partial = []
            for mask, bits in here:
                mask &= active_mask
                if mask == active_mask:
                    agree |= bits
                elif mask:
                    partial.append((mask, bits))
            succ[r] = agree
            new = agree & ~explored
            if new:
                explored |= new
                queue.extend(bit_indices(new))
            if not partial:
                continue
            for s2, mask in sorted((s2, mask) for mask, bits in partial for s2 in bit_indices(bits)):
                sub = members(mask, active)
                if len(sub) == 1:
                    settle(r, s, s2, sub, flag=1)
                elif len(sub) == 2:
                    exists, entries, _ = general._solve(ctx, sub, names[s2])
                    if exists:
                        sub_entries.update(entries)
                    settle(r, s, s2, sub, flag=1 if exists else 0)
                else:
                    recursion_jobs.append((sub, r, s, s2))

    while recursion_jobs:
        sub, r, s, s2 = recursion_jobs.popleft()
        exists, entries, _ = general._solve(ctx, sub, names[s2])
        if exists:
            sub_entries.update(entries)
        settle(r, s, s2, sub, flag=1 if exists else 0)

    graph = frame.over(succ, explored | 1 << bot0 | 1 << bot1)
    good = 1 << len(frame.actions) - 1  # the one row of the good terminal
    needs = [ctx.informative_rows(i, j) | good for k, i in enumerate(active) for j in active[k + 1 :]]
    decision = _decide(graph, needs, frozenset(frame.names[bot0:]))
    entry = PolicyEntry(active, initial, decision.reach, decision.mecs) if initial in decision.rmax else None
    diagnostics = {
        "active": list(active),
        "initial": initial,
        "rmax": sorted(decision.rmax),
        "mecs": list(decision.components),
        "informative_mecs": list(decision.informative),
        "explored": [names[i] for i in bit_indices(explored)],
        "terminal_edges": terminal_edges,
    }
    if entry is None:
        return False, {}, diagnostics
    entries = dict(sub_entries)
    entries[(active, initial)] = entry
    return True, entries, diagnostics


# ---------------------------------------------------------------------------
# The moves the controller refuses, taken out of a policy so that the frozen
# references below, which predate the rule, find no move where the library
# finds none.
# ---------------------------------------------------------------------------


def sanitized(mmdp, policy):
    """``policy`` without the moves that ``analysis._expand_aug`` refuses, or ``policy``
    itself when it has none.

    A move is refused where some model of the entry's active set has no
    positive successor under a played action. Such a reach action is
    dropped. So is every component state whose played distribution is empty
    or holds such an action, together with that state's reach action, so
    that a controller arriving there finds no move at all.
    """

    def refused(active, s, a):
        return any(not any(p > 0.0 for p in mmdp.model(i).row(s, a).values()) for i in active)

    entries, changed = {}, False
    for key, entry in policy.entries.items():
        mecs, dropped = [], set()
        for mec in entry.mecs:
            bad = {
                s for s in mec.states
                if not mec.distribution(s)
                or any(refused(entry.active, s, a) for a in mec.distribution(s))
            }
            dropped |= bad
            mecs.append(Mec(mec.states - bad, {s: a for s, a in mec.actions.items() if s not in bad}))
        reach = {
            s: a for s, a in entry.reach.items()
            if s not in dropped and not refused(entry.active, s, a)
        }
        changed = changed or bool(dropped) or len(reach) < len(entry.reach)
        entries[key] = dataclasses.replace(entry, reach=reach, mecs=tuple(mecs))
    return DetectionPolicy(entries=entries) if changed else policy


# ---------------------------------------------------------------------------
# Frozen reference for the coefficient-curve DP: the per-pair dictionary
# recurrence that `analysis.pairwise_bc_curve` replaced, kept verbatim so that
# its values, its summation order and its errors stay the contract. Only its
# fold of B(t) changed: a left fold from 0.0 in place of the builtin `sum`,
# which compensates float sums from Python 3.12 and gave the int 0 for a pair
# whose mass has left every state.
# ---------------------------------------------------------------------------


def reference_pairwise_bc_curve(mmdp, policy, horizon, pairs=None, cap=None):
    if horizon < 0:
        raise ModelError("horizon must be nonnegative")
    if cap is not None and horizon > cap:
        raise HorizonCapError(f"horizon {horizon} exceeds the requested cap {cap}")
    if pairs is None:
        pairs = [
            (i, j) for i in range(1, mmdp.n + 1) for j in range(i + 1, mmdp.n + 1)
        ]
    full = active_set(range(1, mmdp.n + 1))
    if (full, mmdp.initial) not in policy.entries:  # the start text of the compile
        raise ContractError(f"policy has no entry for the initial configuration {(full, mmdp.initial)}")
    start = _reference_canonical_aug(policy, (full, mmdp.initial), None, mmdp.initial)
    curves = {}
    for (i, j) in pairs:
        if i == j:
            raise ModelError("coefficient pairs need two distinct model indices")
        expand_cache = {}
        mass = {start: 1.0}
        values = [1.0]
        for _ in range(horizon):
            nxt = {}
            for aug, w in mass.items():
                table = expand_cache.get(aug)
                if table is None:
                    table = _reference_expand_aug(mmdp, policy, (i, j), aug)
                    expand_cache[aug] = table
                for tgt, wt in table:
                    nxt[tgt] = nxt.get(tgt, 0.0) + w * wt
            mass = nxt
            total = 0.0
            for w in mass.values():  # sum() as it added floats before Python 3.12
                total += w
            values.append(total)
        curves[(i, j)] = BcCurve(values=tuple(values), pair=(i, j))
    return curves


def _reference_canonical_aug(policy, entry_key, mec_index, state):
    entry = policy.entries.get(entry_key)
    if entry is None:
        raise ContractError(f"policy has no entry for {entry_key}")
    if mec_index is None:
        mec_index = entry.committed_mec(state)
    return (entry_key, mec_index, state)


def _reference_expand_aug(mmdp, policy, pair, aug):
    entry_key, mec_index, s = aug
    entry = policy.entries[entry_key]
    active = entry.active
    if mec_index is not None:
        # the uniform rule as frozen: a state outside the component is a KeyError
        dist = list(reference_uniform_policy(entry.mecs[mec_index])[s].items())
    else:
        a = entry.reach.get(s)
        if a is None:
            raise ContractError(
                f"policy entry {entry_key} covers neither reach nor component at {s!r}"
            )
        dist = [(a, 1.0)]
    mi, mj = mmdp.model(pair[0]), mmdp.model(pair[1])
    out = []
    for a, pa in dist:
        ri, rj = mi.row(s, a), mj.row(s, a)
        for s2 in sorted(set(ri) | set(rj)):
            w = pa * math.sqrt(ri.get(s2, 0.0) * rj.get(s2, 0.0))
            if w == 0.0:
                continue
            new_active = reference_survivors(mmdp, active, s, a, s2)
            if new_active == active:
                tgt = _reference_canonical_aug(policy, entry_key, mec_index, s2)
            else:
                tgt = _reference_canonical_aug(policy, (new_active, s2), None, s2)
            out.append((tgt, w))
    return out


# ---------------------------------------------------------------------------
# The sparse step loop of `analysis._pair_curves` as it was when every step
# rebuilt its edge layout and advanced all pairs at once, on the all-pairs
# edge table of the retired `analysis._pair_edges`, both frozen verbatim but
# for the fold of each pair's masses, which starts from 0.0 as the library's
# does, so a fully separated pair reads 0.0: the reference for the per-pair
# DP and the layouts it keeps and reuses. It shares only the compiled
# controller table with the library.
# ---------------------------------------------------------------------------


def frozen_pair_curves(mmdp, table, pairs, horizon):
    size, n_pairs = len(table.augs), len(pairs)
    indptr, target, weight = _frozen_pair_edges(mmdp, table, pairs)
    rows = np.arange(n_pairs, dtype=np.intp) * size  # live rows, first-touch order
    mass = np.ones(n_pairs)
    values = [[1.0] for _ in range(n_pairs)]
    failed = {}
    for _ in range(horizon):
        # the edges of the live rows, row by row, each row's in summation order
        lo = indptr[rows]
        source, pos = _frozen_segments(lo, indptr[rows + 1] - lo)
        to = target[pos]
        term = mass[source] * weight[pos]
        bad = np.flatnonzero(to < 0)
        if len(bad):
            for b in bad.tolist():
                failed.setdefault(int(rows[source[b]]) // size, table.errors[-to[b] - 1])
            keep = ~np.isin(rows[source] // size, list(failed))
            to, term = to[keep], term[keep]
        # targets in first-touch order; bincount adds each target's terms
        # one after another, in input order
        first = np.full(n_pairs * size, len(to))
        np.minimum.at(first, to, np.arange(len(to)))
        touched = np.flatnonzero(first < len(to))
        rows = touched[np.argsort(first[touched])]
        mass = np.bincount(to, weights=term, minlength=n_pairs * size)[rows]
        cut = np.searchsorted(rows // size, np.arange(n_pairs + 1)).tolist()
        masses = mass.tolist()
        for p in range(n_pairs):
            values[p].append(reduce(add, masses[cut[p] : cut[p + 1]], 0.0))
    if failed:
        raise failed[min(failed)]
    return values


def _frozen_pair_edges(mmdp, table, pairs):
    size, n_pairs = len(table.augs), len(pairs)
    mi = np.array([i - 1 for i, _ in pairs], dtype=np.intp)
    mj = np.array([j - 1 for _, j in pairs], dtype=np.intp)
    slot, entry = _frozen_segments(table.lo, table.size)
    source = np.repeat(np.arange(size), table.count)[slot]
    lik = mmdp.rows.lik[entry].T
    weight = (1.0 / table.count[source]) * np.sqrt(lik[mi] * lik[mj])
    # a successor no model allows weighs 0.0 unless a hand-built row holds a NaN or a negative
    pair, edge = np.nonzero((weight != 0.0) & (table.target >= 0))
    raises = np.array([exc is not None for exc in table.errors])
    tgt = table.target[edge]
    target = np.where((raises & (table.halt != _MAX_STEPS))[tgt], -1 - tgt, pair * size + tgt)
    row = pair * size + source[edge]
    # the one edge of each row at a state with no move, in its place among the rows
    stuck = np.add.outer(np.arange(n_pairs) * size, np.flatnonzero(raises & (table.halt == _MAX_STEPS)))
    at = np.searchsorted(row, stuck.ravel())
    row = np.insert(row, at, stuck.ravel())
    target = np.insert(target, at, -1 - stuck.ravel() % size)
    weight = np.insert(weight[pair, edge], at, 0.0)
    return np.concatenate(([0], np.cumsum(np.bincount(row, minlength=n_pairs * size)))), target, weight


def _frozen_segments(lo, size):
    run = np.repeat(np.arange(len(lo)), size)
    return run, np.arange(len(run)) + np.repeat(lo - (np.cumsum(size) - size), size)


# ---------------------------------------------------------------------------
# The single trace and the trial-by-trial Monte-Carlo and batch loops, frozen
# as the reference for the lockstep kernel of ``simulate``,
# ``monte_carlo_error`` and ``batch_summary``, with their own controller,
# episode, sampling rule and belief update. They share only the trial
# streams, the prior checks, the MAP rule and the trace records with the
# library.
# ---------------------------------------------------------------------------


def reference_simulate(mmdp, truth, policy, seed, max_steps=10_000, threshold=0.98, priors=None):
    """``simulate`` as it ran its own episode loop, one Python step at a time."""
    if not 0.5 < threshold < 1.0:
        raise ModelError(f"threshold must lie in (0.5, 1), got {threshold}")
    if max_steps < 0:
        raise ModelError(f"max_steps must be nonnegative, got {max_steps}")
    beliefs = _check_priors(priors, mmdp.n, "priors")
    steps = []
    reason, _, _ = _reference_episode(
        mmdp, truth, _ReferenceController(policy), trial_rng(seed, 0), beliefs, max_steps,
        threshold, steps,
    )
    return Trace(seed=seed, truth=truth, steps=tuple(steps), stop_reason=reason)


def reference_monte_carlo_error(
    mmdp, policy, t, trials, seed, q=None, theta=None, outcomes=None, stops=None
):
    """``monte_carlo_error`` as it ran trial by trial; appends each trial's
    (truth, final beliefs) to ``outcomes`` and its (stop reason, steps
    played) to ``stops`` when given."""
    if trials < 100:
        raise ContractError(f"need at least 100 trials, got {trials}")
    q = _check_priors(q, mmdp.n, "estimated priors")
    theta = _check_priors(theta, mmdp.n, "true priors")
    theta_items = [(str(i + 1), p) for i, p in enumerate(theta)]

    errors = 0
    for trial in range(trials):
        rng = trial_rng(seed, trial)
        truth = int(_reference_sample(theta_items, rng))
        reason, steps, beliefs = _reference_episode(
            mmdp, truth, _ReferenceController(policy), rng, q, t, math.inf
        )
        if outcomes is not None:
            outcomes.append((truth, beliefs))
        if stops is not None:
            stops.append((reason, steps))
        if map_decide(beliefs) != truth:
            errors += 1
    estimate = errors / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return estimate, stderr


def reference_batch_summary(
    mmdp, policy, trials, seed, truth=None, max_steps=10_000, threshold=0.98, priors=None
):
    """``batch_summary`` as it ran trial by trial, one ``simulate`` episode per trial."""
    priors_t = _check_priors(priors, mmdp.n, "priors")
    theta_items = [(str(i + 1), p) for i, p in enumerate(priors_t)]
    per_truth = {
        i: {"runs": 0, "threshold_stops": 0, "threshold_correct": 0, "stop_time_total": 0}
        for i in range(1, mmdp.n + 1)
    }
    errors = 0
    stop_reasons = {"threshold": 0, "max_steps": 0, "undetectable": 0}
    for trial in range(trials):
        if truth is None:
            tr = int(_reference_sample(theta_items, trial_rng(seed ^ 0x9E3779B97F4A7C15, trial)))
        else:
            tr = truth
        trace = reference_simulate(mmdp, tr, policy, seed + trial, max_steps, threshold, priors)
        reason, t, beliefs = trace.stop_reason, trace.steps[-1].t, trace.steps[-1].beliefs
        decided = map_decide(beliefs)
        stats = per_truth[tr]
        stats["runs"] += 1
        stats["stop_time_total"] += t
        stop_reasons[reason] += 1
        if reason == "threshold":
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


def _reference_sample(items, rng):
    u = rng.random()
    acc = 0.0
    last = None
    for value, p in sorted(items):
        acc += p
        last = value
        if u < acc:
            return value
    if last is None:  # the library's assert, which pytest would rewrite here
        raise AssertionError("cannot sample from an empty distribution")
    return last


class _ReferenceController:
    def __init__(self, policy):
        self.policy = policy
        self.entry = None
        self.mec_index = None

    def enter(self, active, state):
        self.entry = self.policy.entry(active, state)
        if self.entry is None:
            return False
        self.mec_index = self.entry.committed_mec(state)
        return True

    def arrive(self, state):
        if self.entry is not None and self.mec_index is None:
            self.mec_index = self.entry.committed_mec(state)

    def action_distribution(self, state):
        if self.entry is None:
            return None
        if self.mec_index is not None:
            mec = self.entry.mecs[self.mec_index]
            if state not in mec.states:
                return None
            return list(mec.distribution(state).items())
        a = self.entry.reach.get(state)
        if a is None:
            return None
        return [(a, 1.0)]


def _reference_update(probs, s, a, s_next, mmdp):
    weighted = [p * m.prob(s, a, s_next) for p, m in zip(probs, mmdp.models)]
    denom = 0.0
    for w in weighted:  # sum() as it added floats before Python 3.12
        denom += w
    if not math.isfinite(denom):  # a non-finite mass of a hand-built row
        raise ModelError(f"the weighted likelihoods of transition ({s}, {a}, {s_next}) sum to {denom!r}")
    if denom <= 0.0:
        raise ImpossibleObservationError(
            f"transition ({s}, {a}, {s_next}) is impossible under the current belief support"
        )
    return tuple([w / denom for w in weighted])


def _reference_episode(mmdp, truth, controller, rng, beliefs, max_steps, threshold, steps=None):
    """The stop reason, the steps played and the final beliefs of one episode.

    Appends every played step, and then the final row, to ``steps`` as
    ``TraceStep`` records when given.
    """
    truth_model = mmdp.model(truth)
    active = active_set(range(1, mmdp.n + 1))
    state = mmdp.initial
    if not controller.enter(active, state):
        raise ContractError(
            f"policy has no entry for the initial configuration ({active}, {state!r})"
        )

    def stop(reason):
        if steps is not None:
            steps.append(TraceStep(t=t, state=state, action=None, beliefs=beliefs))
        return reason, t, beliefs

    entered = True
    t = 0
    while True:
        if max(beliefs) >= threshold or len(active) == 1:
            return stop("threshold")
        if not entered:
            if not controller.enter(active, state):
                return stop("undetectable")
            entered = True
        if t >= max_steps:
            return stop("max_steps")
        dist = controller.action_distribution(state)
        if dist is None:
            return stop("undetectable")
        action = _reference_sample(dist, rng)
        succ = _reference_sample(truth_model.row(state, action).items(), rng)
        if steps is not None:
            steps.append(TraceStep(t=t, state=state, action=action, beliefs=beliefs))
        beliefs = _reference_update(beliefs, state, action, succ, mmdp)
        remaining = reference_survivors(mmdp, active, state, action, succ) if 0.0 in beliefs else active
        state = succ
        t += 1
        if remaining == active:
            controller.arrive(state)
        else:
            active = remaining
            entered = False


# ---------------------------------------------------------------------------
# Frozen policy reader: the parser that checked every component state's action
# list on its own and gave each state its own set, and the check of a parsed
# policy against the model that the CLI ran on every play of every entry. The
# reader that checks each distinct list and play once must give equal entries
# and the same messages.
# ---------------------------------------------------------------------------


def reference_parse_policy(document) -> DetectionPolicy:
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ModelError(f"policy document is not valid JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, Mapping) or not isinstance(doc.get("entries"), list):
        raise ModelError("policy document: expected {'entries': [...]}")
    entries: dict = {}
    for i, raw in enumerate(doc["entries"]):
        path = f"entries[{i}]"
        if not isinstance(raw, Mapping):
            raise ModelError(f"{path}: expected an object")
        active_raw = raw.get("active")
        if not isinstance(active_raw, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in active_raw
        ):
            raise ModelError(f"{path}.active: expected an array of integers")
        entry_state = raw.get("entry_state")
        if not isinstance(entry_state, str):
            raise ModelError(f"{path}.entry_state: expected a string")
        reach = raw.get("reach", {})
        if not isinstance(reach, Mapping) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in reach.items()
        ):
            raise ModelError(f"{path}.reach: expected a string-to-string object")
        mecs_raw = raw.get("mecs", [])
        if not isinstance(mecs_raw, list):
            raise ModelError(f"{path}.mecs: expected an array")
        mecs = []
        for j, mec_raw in enumerate(mecs_raw):
            mpath = f"{path}.mecs[{j}]"
            states = mec_raw.get("states") if isinstance(mec_raw, Mapping) else None
            if not isinstance(states, Mapping) or not all(
                isinstance(s, str) and isinstance(acts, list) and acts
                and all(isinstance(a, str) for a in acts)
                for s, acts in states.items()
            ):
                raise ModelError(f"{mpath}.states: expected state -> nonempty action list")
            mecs.append(Mec(states.keys(), states))
        key = (active_set(active_raw), entry_state)
        if key in entries:
            raise ModelError(f"{path}: duplicate entry for active set {list(key[0])} at {entry_state!r}")
        entries[key] = PolicyEntry(
            active=key[0], entry_state=entry_state, reach=dict(reach), mecs=tuple(mecs)
        )
    return DetectionPolicy(entries=entries)


def reference_check_policy(policy: DetectionPolicy, mmdp: Mmdp) -> None:
    offered = {s: frozenset(acts) for s, acts in mmdp.actions.items()}
    for key, entry in policy.entries.items():
        plays = [(entry.entry_state, ()), *((s, (a,)) for s, a in entry.reach.items())]
        plays += [item for mec in entry.mecs for item in mec.actions.items()]
        for s, acts in plays:
            if s not in offered:
                raise ContractError(f"policy entry {key} names {s!r}, which is not a model state")
            if not offered[s].issuperset(acts):
                a = min(set(acts) - offered[s])
                raise ContractError(f"policy entry {key} plays {a!r} at {s!r}, which does not offer it")


# ---------------------------------------------------------------------------
# Frozen writers of the model and policy files: json's indent encoder over the
# serialized documents, which the direct writers of `mdpdetect.models` and
# `mdpdetect.policy` replaced and must match byte for byte.
# ---------------------------------------------------------------------------


def reference_mmdp_to_json(mmdp: Mmdp) -> str:
    return json.dumps(serialize_mmdp(mmdp), indent=2, sort_keys=True) + "\n"


def reference_policy_to_json(policy: DetectionPolicy) -> str:
    return json.dumps(serialize_policy(policy), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Frozen row tables: the support masks and the sampling rows an `Mmdp` built
# row by row on first use, and the support rows synthesis read, which the one
# row table `Mmdp.rows` replaced and must match row for row; and the
# elimination rule read from those masks.
# ---------------------------------------------------------------------------


def reference_support_masks(mmdp: Mmdp, state: str, action: str) -> dict[str, int]:
    acc: dict[str, int] = {}
    for bit, m in enumerate(mmdp.models):
        for succ, p in m.row(state, action).items():
            if p > 0.0:
                acc[succ] = acc.get(succ, 0) | 1 << bit
    return {t: acc[t] for t in sorted(acc)}


def reference_survivors(mmdp: Mmdp, active, s: str, a: str, s2: str) -> tuple[int, ...]:
    """The models of ``active`` that give the transition (s, a, s2) positive probability."""
    mask = reference_support_masks(mmdp, s, a).get(s2, 0)
    return tuple([i for i in active if mask >> (i - 1) & 1])


class ReferenceSupportRows:
    """States interned in sorted order, rows numbered in sorted action order, and
    each state's rows, in declared action order, as one successor bitset per model mask."""

    def __init__(self, mmdp):
        self.names = tuple(sorted(mmdp.states))
        self.index = index = {s: i for i, s in enumerate(self.names)}
        actions, first, groups = [], [], []
        for s in self.names:
            row = {a: len(actions) + k for k, a in enumerate(sorted(mmdp.actions[s]))}
            first.append(len(actions))
            actions.extend(row)
            here = []
            for a in mmdp.actions[s]:
                by_mask = {}
                for t, mask in reference_support_masks(mmdp, s, a).items():
                    if t not in index:
                        raise ModelError(f"row ({s}, {a}) moves to {t!r}, which is not a state")
                    by_mask[mask] = by_mask.get(mask, 0) | 1 << index[t]
                here.append((row[a], tuple(sorted(by_mask.items()))))
            groups.append(tuple(here))
        first.append(len(actions))
        self.actions, self.first, self.groups = tuple(actions), tuple(first), tuple(groups)


class ReferenceSamplingRows:
    """Rows appended as they are first asked for; the arrays regrow as needed."""

    def __init__(self, models):
        self.models = models
        self.index = {}
        self.successors = []
        self.lik = np.empty((64, len(models)))
        self.cdf = np.empty((64, len(models)))

    def row(self, state, action):
        found = self.index.get((state, action))
        if found is None:
            rows = [m.row(state, action) for m in self.models]
            successors = sorted(set().union(*rows))
            lik = [[r.get(t, 0.0) for r in rows] for t in successors]
            lo, size = len(self.successors), len(successors)
            if lo + size > len(self.lik):
                room = max(2 * len(self.lik), lo + size)
                for name in ("lik", "cdf"):
                    column = np.empty((room, len(self.models)))
                    column[:lo] = getattr(self, name)[:lo]
                    setattr(self, name, column)
            if size:
                self.lik[lo : lo + size] = lik
                self.cdf[lo : lo + size] = list(zip(*(itertools.accumulate(c) for c in zip(*lik))))
            self.successors.extend(successors)
            last = tuple([successors.index(max(r)) if r else -1 for r in rows])
            found = self.index[(state, action)] = (lo, size, last)
        return found


# ---------------------------------------------------------------------------
# Frozen compile of the controller table: `analysis._CompiledController` as it
# numbered its states with one `_expand_aug` call per state that plays, with a
# lookup of the target per edge, kept verbatim (the component of a state is
# found by a scan of the entry's components, as `committed_mec` found it) so
# that every array, state, action and error of the table stays the contract.
# ---------------------------------------------------------------------------


def reference_compile_start(policy, mmdp):
    """The start state of the frozen compile, or the ``ContractError`` of its lookup."""
    full = active_set(range(1, mmdp.n + 1))
    if (full, mmdp.initial) not in policy.entries:  # the start text of the compile
        raise ContractError(f"policy has no entry for the initial configuration {(full, mmdp.initial)}")
    return _frozen_canonical_aug(policy, (full, mmdp.initial), None, mmdp.initial)


def _frozen_canonical_aug(policy, entry_key, mec_index, state):
    entry = policy.entries.get(entry_key)
    if entry is None:
        raise ContractError(f"policy has no entry for {entry_key}")
    if mec_index is None:
        mec_index = next((k for k, mec in enumerate(entry.mecs) if state in mec.states), None)
    return (entry_key, mec_index, state)


def _frozen_expand_aug(mmdp, policy, aug):
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
        dist = list(mec.distribution(s).items())
        if not dist:
            raise ContractError(
                f"policy entry {entry_key} plays nothing at {s!r} in its component {mec_index}"
            )
    active = entry.active
    rows = mmdp.rows
    edges = []
    for a, _ in dist:
        lo, size, _ = rows.row(s, a)
        offered = 0
        for e in range(lo, lo + size):
            mask, s2 = rows.masks[e], rows.successors[e]
            if not mask:  # no model allows s2
                continue
            offered |= mask
            new_active = reference_members(mask, active)
            try:
                if new_active == active:
                    tgt = _frozen_canonical_aug(policy, entry_key, mec_index, s2)
                else:
                    tgt = _frozen_canonical_aug(policy, (new_active, s2), None, s2)
            except ContractError as exc:
                tgt = exc
            edges.append((e, s2, mask, tgt))
        if reference_members(offered, active) != active:
            raise ContractError(f"policy entry {entry_key} plays {a!r} at {s!r}, which does not offer it")
    return dist, edges


def reference_members(mask, active):
    return tuple([i for i in active if mask >> (i - 1) & 1])


# the stop codes of the lockstep kernel, as the frozen compile writes them
_FROZEN_THRESHOLD, _FROZEN_MAX_STEPS, _FROZEN_UNDETECTABLE = 0, 1, 2


class ReferenceCompiledController:
    def __init__(self, mmdp, policy, start):
        rows = mmdp.rows
        augs = [start]
        errors = [None]
        index = {start: 0}
        actions = []  # per slot, for error messages
        count, first, halt = [], [], []
        act_cdf, lo, size, last, tlo, target = [], [], [], [], [], []
        # augs grows as new targets are numbered, so the loop visits them breadth first
        for k, aug in enumerate(augs):
            dist, edges = [], []
            if len(aug[0][0]) == 1:
                halt.append(_FROZEN_THRESHOLD)
            elif errors[k] is not None:
                halt.append(_FROZEN_UNDETECTABLE)
            else:
                halt.append(_FROZEN_MAX_STEPS)
                try:
                    dist, edges = _frozen_expand_aug(mmdp, policy, aug)
                except ContractError as exc:  # no move here: the trial stops
                    errors[k] = exc
            targets = {}  # per entry of ``rows``
            for e, s2, mask, tgt in edges:
                exc = None
                if isinstance(tgt, ContractError):
                    exc, tgt = tgt, ((reference_members(mask, aug[0][0]), s2), None, s2)
                if tgt not in index:
                    index[tgt] = len(augs)
                    augs.append(tgt)
                    errors.append(exc)
                targets[e] = index[tgt]
            dist = sorted(dist)
            count.append(len(dist))
            first.append(len(act_cdf))
            act_cdf.extend(itertools.accumulate([p for _, p in dist]))
            for a, _ in dist:
                row_lo, row_size, row_last = rows.row(aug[2], a)
                lo.append(row_lo)
                size.append(row_size)
                last.append(row_last)
                tlo.append(len(target))
                target.extend(targets.get(e, -1) for e in range(row_lo, row_lo + row_size))
                actions.append(a)
        self.augs, self.errors, self.actions = tuple(augs), tuple(errors), tuple(actions)
        self.count = np.array(count, np.intp)
        self.first = np.array(first, np.intp)
        self.halt = np.array(halt, np.int8)
        self.act_cdf = np.array(act_cdf, float)
        self.lo = np.array(lo, np.intp)
        self.size = np.array(size, np.intp)
        self.last = np.array(last, np.intp).reshape(len(last), mmdp.n)
        self.tlo = np.array(tlo, np.intp)
        self.target = np.array(target, np.intp)


# ---------------------------------------------------------------------------
# Frozen model load: `parse_mmdp` (its walk and `validate_mmdp`'s report) and
# the row table `Rows` with its run-time view (`lik`, `cdf` and the rows of
# `row()`, built together by `__getattr__`), kept verbatim as they were before
# the row table read its probabilities in the same pass as its masks, so that
# every parsed model, row table field and `ModelError` text stays the contract.
# ---------------------------------------------------------------------------


class FrozenRows:
    """The row table: masks in the first pass, the run-time view in a second."""

    def __init__(self, mmdp: Mmdp) -> None:
        self._models = models = mmdp.models
        self.names = tuple(sorted(mmdp.states))
        self.index = {s: i for i, s in enumerate(self.names)}
        keys: list[tuple[str, str]] = []
        first = []
        for s in self.names:
            first.append(len(keys))
            keys += [(s, a) for a in sorted(mmdp.actions.get(s, ()))]
        first.append(len(keys))
        self.first, self.actions = tuple(first), tuple([a for _, a in keys])
        self._keys = list(dict.fromkeys(keys + [key for m in models for key in m.kernel]))
        self.successors: list[str] = []
        self.masks: list[int] = []
        self._lo = [0]  # row r's entries are _lo[r] .. _lo[r + 1]
        kernels = [(1 << bit, m.kernel) for bit, m in enumerate(models)]
        for key in self._keys:
            acc: dict[str, int] = {}
            for bit, kernel in kernels:
                for t, p in kernel.get(key, {}).items():
                    acc[t] = acc.get(t, 0) | (bit if p > 0.0 else 0)
            order = sorted(acc)
            self.successors.extend(order)
            self.masks.extend([acc[t] for t in order])
            self._lo.append(len(self.successors))

    def row(self, state: str, action: str) -> tuple[int, int, tuple[int, ...]]:
        """``(lo, size, last)`` of row (state, action)."""
        return self._index.get((state, action), (0, 0, (-1,) * len(self._models)))

    @cached_property
    def groups(self) -> tuple[tuple[tuple[int, tuple[tuple[int, int], ...]], ...], ...]:
        """The view of synthesis, built on first use.

        Raises ``ModelError`` for a state without an action list, or for a
        row that moves outside the states.
        """
        declared, index, first, lo = self._models[0].actions, self.index, self.first, self._lo
        groups = []
        for i, s in enumerate(self.names):
            here = []
            for a in actions_at(declared, s):
                r = self.actions.index(a, first[i], first[i + 1])
                by_mask: dict[int, int] = {}
                for t, mask in zip(self.successors[lo[r] : lo[r + 1]], self.masks[lo[r] : lo[r + 1]]):
                    if mask:
                        if t not in index:  # name the first the models list
                            t = next(t for m in self._models for t, p in m.row(s, a).items()
                                     if p > 0.0 and t not in index)
                            raise ModelError(f"row ({s}, {a}) moves to {t!r}, which is not a state")
                        by_mask[mask] = by_mask.get(mask, 0) | 1 << index[t]
                here.append((r, tuple(sorted(by_mask.items()))))
            groups.append(tuple(here))
        return tuple(groups)

    def __getattr__(self, name: str) -> Any:
        # the view of run time: lik, cdf and the rows of row(), built together
        if name not in ("lik", "cdf", "_index"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        import numpy as np  # only run time needs numpy; synthesis runs without it

        models, successors, lo = self._models, self.successors, self._lo
        probs: list[float] = []  # per entry: every model's probability
        by_key = {}
        for key, start, end in zip(self._keys, lo, lo[1:]):
            here = [m.kernel.get(key, {}) for m in models]
            row = successors[start:end]
            by_key[key] = (start, end - start, tuple([row.index(max(p)) if p else -1 for p in here]))
            probs.extend([p.get(t, 0.0) for t in row for p in here])
        self.lik = np.array(probs, float).reshape(-1, len(models))
        # each row's running sums, one addition per entry in row order
        self.cdf = self.lik.copy()
        pos = np.arange(len(successors)) - np.repeat(lo[:-1], np.diff(lo))
        for j in range(1, pos.max(initial=0) + 1):
            e = np.flatnonzero(pos == j)
            self.cdf[e] += self.cdf[e - 1]
        self.lik.setflags(write=False)
        self.cdf.setflags(write=False)
        self._index = by_key
        return getattr(self, name)


def frozen_validate_mmdp(mmdp: Mmdp) -> list[str]:
    """Report every invariant violation; an empty report means valid."""
    problems: list[str] = []
    if mmdp.n < 2:
        problems.append(f"an MMDP needs at least 2 models, got {mmdp.n}")
    base = mmdp.models[0]
    for m in mmdp.models:
        problems.extend(_frozen_validate_mdp(m))
    for m in mmdp.models[1:]:
        if m.states != base.states:
            problems.append(f"shared-structure violation: states of {m.name} differ from {base.name}")
        else:
            for s in base.states:
                if m.actions.get(s) != base.actions.get(s):
                    problems.append(f"shared-structure violation at state {s}")
        if m.initial != base.initial:
            problems.append(f"shared-structure violation: initial of {m.name} differs from {base.name}")
    return problems


def _frozen_validate_mdp(m: Mdp) -> list[str]:
    problems: list[str] = []
    state_set = set(m.states)
    if len(state_set) != len(m.states):
        problems.append(f"model {m.name}: duplicate state identifiers")
    if m.initial not in state_set:
        problems.append(f"model {m.name}: initial state {m.initial!r} not in states")
    for s in m.states:
        acts = m.actions.get(s, ())
        if not acts:
            problems.append(f"model {m.name}: state {s} has no actions")
        if len(set(acts)) != len(acts):
            problems.append(f"model {m.name}: duplicate actions at state {s}")
    for (s, a) in m.kernel:
        if s not in state_set:
            problems.append(f"model {m.name}: kernel row at unknown state {s!r}")
        elif a not in m.actions.get(s, ()):
            problems.append(f"model {m.name}: kernel row at ({s}, {a}) but {a!r} not in actions({s})")
    for s in m.states:
        for a in m.actions.get(s, ()):
            row = m.kernel.get((s, a))
            if row is None:
                problems.append(f"model {m.name}: missing distribution at ({s}, {a})")
                continue
            total = 0.0
            for succ, p in row.items():
                if succ not in state_set:
                    problems.append(f"model {m.name}: dangling successor {succ!r} at ({s}, {a})")
                if not 0.0 <= p <= 1.0:
                    problems.append(f"model {m.name}: probability {p} outside [0,1] at ({s}, {a})")
                total += p
            if abs(total - 1.0) > PROB_SUM_TOL:
                problems.append(
                    f"model {m.name}: distribution at ({s}, {a}) sums to {total!r}"
                    f" (expected 1 within {PROB_SUM_TOL})"
                )
    return problems


def frozen_parse_mmdp(document: str | Mapping[str, Any]) -> Mmdp:
    """Parse and validate a model document; raise ModelError with the offending path."""
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ModelError(f"document is not valid JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, Mapping):
        raise ModelError("document: expected a JSON object")

    states = _frozen_expect_str_list(doc, "states")
    actions_raw = _frozen_expect(doc, "actions", Mapping, "object")
    actions: dict[str, tuple[str, ...]] = {}
    for s, acts in actions_raw.items():
        if not isinstance(acts, list) or not all(isinstance(a, str) for a in acts):
            raise ModelError(f"actions[{s!r}]: expected a list of strings")
        actions[s] = tuple(acts)
    initial = _frozen_expect(doc, "initial", str, "string")
    models_raw = _frozen_expect(doc, "models", list, "array")
    if not models_raw:
        raise ModelError("models: expected a nonempty array")

    models = []
    for mi, mraw in enumerate(models_raw):
        path = f"models[{mi}]"
        if not isinstance(mraw, Mapping):
            raise ModelError(f"{path}: expected an object")
        name = mraw.get("name", f"M{mi + 1}")
        if not isinstance(name, str):
            raise ModelError(f"{path}.name: expected a string")
        delta = mraw.get("delta")
        if not isinstance(delta, list):
            raise ModelError(f"{path}.delta: expected an array")
        kernel: dict[tuple[str, str], dict[str, float]] = {}
        for ei, entry in enumerate(delta):
            # a plain object with plain string and number fields passes without
            # the checks below, which name the entry's path in their messages
            plain = type(entry) is dict
            if plain:
                src, act, dst = entry.get("from"), entry.get("action"), entry.get("to")
                p = entry.get("p")
                plain = (
                    type(src) is str and type(act) is str and type(dst) is str
                    and type(p) in (float, int)
                )
            if not plain:
                src, act, dst, p = _frozen_check_delta_entry(entry, f"{path}.delta[{ei}]")
            row = kernel.setdefault((src, act), {})
            if dst in row:
                raise ModelError(f"{path}.delta[{ei}]: duplicate entry for ({src}, {act}, {dst})")
            if p != 0.0:
                row[dst] = float(p)
        models.append(
            Mdp(states=tuple(states), actions=actions, kernel=kernel, initial=initial, name=name)
        )

    mmdp = Mmdp(models=tuple(models))
    report = frozen_validate_mmdp(mmdp)
    if report:
        raise ModelError("invalid model: " + "; ".join(report))
    return mmdp


def _frozen_check_delta_entry(entry: Any, epath: str) -> tuple[str, str, str, int | float]:
    if not isinstance(entry, Mapping):
        raise ModelError(f"{epath}: expected an object")
    src = _frozen_expect(entry, "from", str, "string", epath)
    act = _frozen_expect(entry, "action", str, "string", epath)
    dst = _frozen_expect(entry, "to", str, "string", epath)
    p = entry.get("p")
    if not isinstance(p, (int, float)) or isinstance(p, bool):
        raise ModelError(f"{epath}.p: expected a number")
    return src, act, dst, p


def _frozen_expect(doc: Mapping, key: str, typ: type, typename: str, prefix: str = "") -> Any:
    path = f"{prefix}.{key}" if prefix else key
    if key not in doc:
        raise ModelError(f"{path}: missing required field")
    value = doc[key]
    if typ is str and isinstance(value, bool):
        raise ModelError(f"{path}: expected a {typename}")
    if not isinstance(value, typ):
        raise ModelError(f"{path}: expected a {typename}")
    return value


def _frozen_expect_str_list(doc: Mapping, key: str) -> list[str]:
    value = _frozen_expect(doc, key, list, "array")
    if not all(isinstance(x, str) for x in value):
        raise ModelError(f"{key}: expected an array of strings")
    return value
