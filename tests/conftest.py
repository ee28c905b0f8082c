"""Shared fixtures: reference models, random instance generators, graph oracles."""

from __future__ import annotations

import itertools
import math
from collections import deque
from typing import Iterable, Mapping

import numpy as np
import pytest
from hypothesis import settings

from mdpdetect.analysis import BcCurve
from mdpdetect.errors import ContractError, HorizonCapError, ImpossibleObservationError, ModelError
from mdpdetect.graphs import Mec, PartialDeterministicPolicy
from mdpdetect.models import Mdp, Mmdp, TransitionSystem
from mdpdetect.policy import active_set, survivors
from mdpdetect.simulate import Trace, TraceStep, _check_priors, map_decide, trial_rng

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
    return TransitionSystem(
        states=states, actions=actions, transitions=frozenset(triples), initial=states[0]
    )


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


def random_stationary_policy(rng, mmdp) -> dict:
    table = {}
    for s in mmdp.states:
        acts = mmdp.actions[s]
        weights = rng.uniform(0.2, 1.0, size=len(acts))
        weights = weights / weights.sum()
        table[s] = {a: float(w) for a, w in zip(acts, weights)}
    return table


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
) -> PartialDeterministicPolicy:
    """Deterministic policy reaching ``targets`` with probability one on ``rmax``.

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
    return PartialDeterministicPolicy(table=table)


# ---------------------------------------------------------------------------
# Frozen reference for the coefficient-curve DP: the per-pair dictionary
# recurrence that `analysis.pairwise_bc_curve` replaced, kept verbatim so that
# its values, its summation order and its errors stay the contract.
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
            values.append(sum(mass.values()))
        curves[(i, j)] = BcCurve(values=tuple(values), pair=(i, j), policy_id="synthesized")
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
        dist = list(entry.mecs[mec_index].distribution(s).items())
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
            new_active = survivors(mmdp, active, s, a, s2)
            if new_active == active:
                tgt = _reference_canonical_aug(policy, entry_key, mec_index, s2)
            else:
                tgt = _reference_canonical_aug(policy, (new_active, s2), None, s2)
            out.append((tgt, w))
    return out


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
            frag = self.entry.mecs[self.mec_index]
            if state not in frag.mec.states:
                return None
            return list(frag.distribution(state).items())
        a = self.entry.reach.get(state)
        if a is None:
            return None
        return [(a, 1.0)]


def _reference_update(probs, s, a, s_next, mmdp):
    weighted = [p * m.prob(s, a, s_next) for p, m in zip(probs, mmdp.models)]
    denom = 0.0
    for w in weighted:  # sum() as it added floats before Python 3.12
        denom += w
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
        remaining = survivors(mmdp, active, state, action, succ) if 0.0 in beliefs else active
        state = succ
        t += 1
        if remaining == active:
            controller.arrive(state)
        else:
            active = remaining
            entered = False
