"""Graph layer: MEC decomposition, almost-sure reachability, policy fragments."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpdetect.binary import informative_mdp, informative_structure, preprocess
from mdpdetect.errors import ContractError
from mdpdetect.graphs import (
    Mec,
    SupportGraph,
    almost_sure_reach_set,
    mec_decompose,
    mec_uniform_policy,
    reach_policy,
)
from mdpdetect.models import TransitionSystem

from conftest import (
    chain_reach_probability,
    example1_mmdp,
    oracle_almost_sure_reach,
    oracle_mecs,
    random_detectable_binary,
    random_transition_system,
    reference_almost_sure_reach_set,
    reference_mec_decompose,
    reference_reach_policy,
    rng_for,
)


def _ts(states, actions, triples, initial):
    return TransitionSystem(
        states=tuple(states),
        actions={s: tuple(a) for s, a in actions.items()},
        transitions=frozenset(triples),
        initial=initial,
    )


def _e1_structure():
    mmdp = example1_mmdp()
    pair = preprocess(mmdp.models[0], mmdp.models[1])
    return pair, informative_structure(pair)


def test_mec_single_self_loop():
    ts = _ts(("s",), {"s": ("a",)}, {("s", "a", "s")}, "s")
    (mec,) = mec_decompose(ts)
    assert mec.states == {"s"}
    assert mec.actions["s"] == {"a"}


def test_mec_example1_informative_structure():
    pair, ts = _e1_structure()
    mecs = mec_decompose(ts)
    state_sets = sorted(sorted(c.states) for c in mecs)
    assert state_sets == sorted(
        [["3", "4"], ["6"], ["7"], [pair.bot1], [pair.bot2]]
    )


def test_mec_matches_subset_enumeration_oracle():
    for seed in range(12):
        ts = random_transition_system(rng_for(seed), n_states=6, max_actions=2)
        got = sorted(
            (
                (frozenset(c.states), {s: c.actions[s] for s in c.states})
                for c in mec_decompose(ts)
            ),
            key=lambda c: sorted(c[0]),
        )
        expected = oracle_mecs(ts)
        assert [(set(s), a) for s, a in got] == [(set(s), a) for s, a in expected]


def test_mec_output_independent_of_state_order():
    for seed in range(6):
        ts = random_transition_system(rng_for(40 + seed), n_states=6)
        rng = rng_for(1000 + seed)
        perm = list(ts.states)
        rng.shuffle(perm)
        rename = {s: f"z{i}" for i, s in enumerate(perm)}
        ts2 = _ts(
            [rename[s] for s in ts.states],
            {rename[s]: ts.actions[s] for s in ts.states},
            {(rename[s], a, rename[t]) for (s, a, t) in ts.transitions},
            rename[ts.initial],
        )
        got = {frozenset(rename[s] for s in c.states) for c in mec_decompose(ts)}
        direct = {frozenset(c.states) for c in mec_decompose(ts2)}
        assert got == direct


def test_mecs_disjoint_and_unmergeable():
    for seed in range(8):
        ts = random_transition_system(rng_for(70 + seed), n_states=6)
        mecs = mec_decompose(ts)
        seen = set()
        for c in mecs:
            assert seen.isdisjoint(c.states)
            seen |= c.states
        succ = ts.successors
        for a_idx in range(len(mecs)):
            for b_idx in range(a_idx + 1, len(mecs)):
                union = mecs[a_idx].states | mecs[b_idx].states
                acts = {
                    s: {a for a in ts.actions.get(s, ()) if succ[(s, a)] and succ[(s, a)] <= union}
                    for s in union
                }
                if any(not acts[s] for s in union):
                    continue
                from conftest import _strongly_connected

                assert not _strongly_connected(union, acts, succ)


def test_reach_set_trivial_targets_all_states():
    ts = random_transition_system(rng_for(3))
    assert almost_sure_reach_set(ts, ts.states) == frozenset(ts.states)


def test_reach_set_example1_membership():
    pair, ts = _e1_structure()
    rmax = almost_sure_reach_set(ts, {pair.bot1, pair.bot2})
    assert "2" in rmax
    assert "1" not in rmax
    assert rmax == frozenset({"2", "5", pair.bot1, pair.bot2})


def test_reach_set_example1_cross_checked_by_value_iteration():
    # quantitative confirmation on the half-blend kernel
    pair, ts = _e1_structure()
    blend = informative_mdp(pair, 0.5)
    targets = {pair.bot1, pair.bot2}
    values = {s: 1.0 if s in targets else 0.0 for s in blend.states}
    for _ in range(400):
        for s in blend.states:
            if s in targets:
                continue
            values[s] = max(
                sum(p * values[t] for t, p in blend.row(s, a).items())
                for a in blend.actions[s]
            )
    rmax = almost_sure_reach_set(ts, targets)
    for s in blend.states:
        assert (values[s] > 1 - 1e-9) == (s in rmax), s


def test_reach_set_matches_policy_enumeration_oracle():
    for seed in range(10):
        ts = random_transition_system(rng_for(200 + seed), n_states=6, max_actions=2)
        rng = rng_for(300 + seed)
        k = int(rng.integers(1, 3))
        targets = {ts.states[int(i)] for i in rng.choice(len(ts.states), size=k, replace=False)}
        got = almost_sure_reach_set(ts, targets)
        assert got == oracle_almost_sure_reach(ts, targets)


def test_reach_set_monotone_in_targets():
    for seed in range(8):
        ts = random_transition_system(rng_for(500 + seed), n_states=6)
        rng = rng_for(600 + seed)
        small = {ts.states[int(rng.integers(0, len(ts.states)))]}
        big = small | {ts.states[int(rng.integers(0, len(ts.states)))]}
        assert almost_sure_reach_set(ts, small) <= almost_sure_reach_set(ts, big)


def test_reach_policy_example1_plays_b2():
    pair, ts = _e1_structure()
    targets = {pair.bot1, pair.bot2}
    rmax = almost_sure_reach_set(ts, targets)
    fragment = reach_policy(ts, targets, rmax)
    assert fragment.table["2"] == "b2"
    assert fragment.table["5"] == "b5"
    assert fragment.domain == {"2", "5"}
    # targets get no assignment
    assert pair.bot1 not in fragment.table


def test_reach_policy_supports_stay_inside_rmax():
    for seed in range(10):
        mmdp = random_detectable_binary(rng_for(700 + seed))
        pair = preprocess(mmdp.models[0], mmdp.models[1])
        ts = informative_structure(pair)
        targets = frozenset(
            s for c in mec_decompose(ts) if any(p in c for p in pair.isa) for s in c.states
        )
        rmax = almost_sure_reach_set(ts, targets)
        fragment = reach_policy(ts, targets, rmax)
        for s, a in fragment.table.items():
            assert ts.successors[(s, a)] <= rmax, (s, a)


def test_reach_policy_reaches_with_probability_one():
    for seed in range(8):
        ts = random_transition_system(rng_for(900 + seed), n_states=6, max_actions=2)
        rng = rng_for(950 + seed)
        targets = {ts.states[int(i)] for i in rng.choice(len(ts.states), size=2, replace=False)}
        rmax = almost_sure_reach_set(ts, targets)
        if not (rmax - targets):
            continue
        fragment = reach_policy(ts, targets, rmax)
        # materialize a compatible chain: uniform over the chosen action's support
        rows = {}
        for s in rmax:
            if s in targets:
                rows[s] = {s: 1.0}
            else:
                succs = sorted(ts.successors[(s, fragment.table[s])])
                rows[s] = {t: 1.0 / len(succs) for t in succs}
        h = chain_reach_probability(rows, targets)
        for s in rmax:
            assert h[s] > 1 - 1e-9, (seed, s)


def test_reach_policy_contract_breach_reported():
    ts = _ts(
        ("a", "b"),
        {"a": ("go",), "b": ("stay",)},
        {("a", "go", "b"), ("b", "stay", "b")},
        "a",
    )
    with pytest.raises(ContractError):
        reach_policy(ts, targets={"a"}, rmax=frozenset({"a", "b"}))


def test_mec_uniform_point_mass_and_halves():
    mec1 = Mec({"3", "4"}, {"3": {"a3"}, "4": {"a4"}})
    frag = mec_uniform_policy(mec1)
    assert frag.distribution("3") == {"a3": 1.0}
    mec2 = Mec({"x"}, {"x": {"a", "b"}})
    assert mec_uniform_policy(mec2).distribution("x") == {"a": 0.5, "b": 0.5}
    mec3 = Mec({"x"}, {"x": {"a", "b", "c"}})
    dist = mec_uniform_policy(mec3).distribution("x")
    assert all(abs(p - 1.0 / 3.0) <= 1e-15 for p in dist.values())


def test_mec_uniform_visits_every_pair():
    # every state-action pair of the component shows up within 10^4 steps
    ts = _ts(
        ("p", "q", "r"),
        {"p": ("u", "v"), "q": ("u",), "r": ("u", "w", "x")},
        {
            ("p", "u", "q"),
            ("p", "v", "r"),
            ("q", "u", "r"),
            ("r", "u", "p"),
            ("r", "w", "q"),
            ("r", "x", "r"),
        },
        "p",
    )
    (mec,) = mec_decompose(ts)
    assert mec.states == {"p", "q", "r"}
    frag = mec_uniform_policy(mec)
    rng = np.random.Generator(np.random.Philox(key=(11, 0)))
    succ = ts.successors
    state = "p"
    seen = set()
    for _ in range(10_000):
        dist = frag.distribution(state)
        actions = sorted(dist)
        a = actions[int(rng.choice(len(actions), p=[dist[x] for x in actions]))]
        seen.add((state, a))
        succs = sorted(succ[(state, a)])
        state = succs[int(rng.integers(0, len(succs)))]
    expected = {(s, a) for s in mec.states for a in mec.actions[s]}
    assert seen == expected


@st.composite
def _structures(draw):
    """A random transition system, some of whose states lose their actions and
    some of which nothing leads to, with the states listed in any order."""
    base = random_transition_system(
        rng_for(draw(st.integers(0, 10_000))),
        n_states=draw(st.integers(2, 12)),
        max_actions=draw(st.integers(1, 3)),
    )
    bare = draw(st.sets(st.sampled_from(base.states), max_size=3))
    unreached = [f"u{k}" for k in range(draw(st.integers(0, 2)))]
    states = draw(st.permutations((*base.states, *unreached)))
    actions = {s: acts for s, acts in base.actions.items() if s not in bare}
    triples = {(s, a, t) for (s, a, t) in base.transitions if s not in bare}
    for u in unreached:
        actions[u] = ("b",)
        triples.add((u, "b", draw(st.sampled_from(states))))
    return _ts(states, actions, triples, states[0])


def _outcome(fn, *args):
    """What ``fn`` returns, or the type and text of the ContractError it raises."""
    try:
        return fn(*args)
    except ContractError as exc:
        return ("ContractError", str(exc))


@settings(max_examples=400)
@given(_structures(), st.data())
def test_kernels_match_the_frozen_string_kernels(ts, data):
    got, expected = mec_decompose(ts), reference_mec_decompose(ts)
    assert [(c.states, c.actions) for c in got] == [(c.states, c.actions) for c in expected]
    graph = SupportGraph.of(ts)
    for c in got:
        assert c.rows == graph.row_bits(c.pairs())

    targets = data.draw(st.sets(st.sampled_from(ts.states)))
    rmax = reference_almost_sure_reach_set(ts, targets)
    assert almost_sure_reach_set(ts, targets) == rmax
    table = reach_policy(ts, targets, rmax).table
    assert list(table.items()) == list(reference_reach_policy(ts, targets, rmax).table.items())

    # contract breaches: a target outside the state space, a set that is not the reach set
    outside = (*targets, "nowhere")
    assert _outcome(almost_sure_reach_set, ts, outside) == _outcome(
        reference_almost_sure_reach_set, ts, outside
    )
    wrong = data.draw(st.sets(st.sampled_from(ts.states)))
    got_policy = _outcome(reach_policy, ts, targets, wrong)
    expected_policy = _outcome(reference_reach_policy, ts, targets, wrong)
    if isinstance(expected_policy, tuple):
        assert got_policy == expected_policy
    else:
        assert list(got_policy.table.items()) == list(expected_policy.table.items())
