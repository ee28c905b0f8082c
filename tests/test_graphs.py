"""Graph layer: MEC decomposition, almost-sure reachability, reach tables, in-component choice."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpdetect.binary import informative_mdp, preprocess
from mdpdetect.cli import main
from mdpdetect.errors import ContractError, ModelError
from mdpdetect.graphs import (
    Mec,
    almost_sure_reach_set,
    bit_indices,
    mec_decompose,
    model_graph,
    reach_policy,
)
from mdpdetect.models import mmdp_to_json
from mdpdetect.policy import parse_policy

from conftest import (
    TransitionSystem,
    chain_reach_probability,
    example1_mmdp,
    graph_of,
    induced_system,
    informative_graph,
    informative_system,
    oracle_almost_sure_reach,
    oracle_mecs,
    random_binary_mmdp,
    random_detectable_binary,
    random_multi_mmdp,
    random_transition_system,
    reference_almost_sure_reach_set,
    reference_mec_decompose,
    reference_reach_policy,
    reference_uniform_policy,
    rng_for,
    system_of,
)


def _ts(states, actions, triples):
    return TransitionSystem(
        states=tuple(states),
        actions={s: tuple(a) for s, a in actions.items()},
        transitions=frozenset(triples),
    )


def _e1_structure():
    mmdp = example1_mmdp()
    pair = preprocess(mmdp.models[0], mmdp.models[1])
    return pair, informative_graph(pair)


def test_mec_single_self_loop():
    ts = _ts(("s",), {"s": ("a",)}, {("s", "a", "s")})
    (mec,) = mec_decompose(graph_of(ts))
    assert mec.states == {"s"}
    assert mec.actions["s"] == {"a"}


def test_equal_components_are_one_set_member():
    """Components compare and hash by their action tables, whatever container built them."""
    one = Mec(("x", "y"), {"x": ("a", "b"), "y": ("a",)})
    same = Mec(["y", "x"], {"y": ["a"], "x": ["b", "a"]})
    other = Mec(("x", "y"), {"x": ("a",), "y": ("a",)})
    assert one == same and hash(one) == hash(same)
    assert len({one, same, other}) == 2


def test_mec_example1_informative_structure():
    pair, graph = _e1_structure()
    mecs = mec_decompose(graph)
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
                for c in mec_decompose(graph_of(ts))
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
        )
        got = {frozenset(rename[s] for s in c.states) for c in mec_decompose(graph_of(ts))}
        direct = {frozenset(c.states) for c in mec_decompose(graph_of(ts2))}
        assert got == direct


def test_mecs_disjoint_and_unmergeable():
    for seed in range(8):
        ts = random_transition_system(rng_for(70 + seed), n_states=6)
        mecs = mec_decompose(graph_of(ts))
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
    assert almost_sure_reach_set(graph_of(ts), ts.states) == frozenset(ts.states)


def test_reach_set_example1_membership():
    pair, graph = _e1_structure()
    rmax = almost_sure_reach_set(graph, {pair.bot1, pair.bot2})
    assert "2" in rmax
    assert "1" not in rmax
    assert rmax == frozenset({"2", "5", pair.bot1, pair.bot2})


def test_reach_set_example1_cross_checked_by_value_iteration():
    # quantitative confirmation on the half-blend kernel
    pair, graph = _e1_structure()
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
    rmax = almost_sure_reach_set(graph, targets)
    for s in blend.states:
        assert (values[s] > 1 - 1e-9) == (s in rmax), s


def test_reach_set_matches_policy_enumeration_oracle():
    for seed in range(10):
        ts = random_transition_system(rng_for(200 + seed), n_states=6, max_actions=2)
        rng = rng_for(300 + seed)
        k = int(rng.integers(1, 3))
        targets = {ts.states[int(i)] for i in rng.choice(len(ts.states), size=k, replace=False)}
        got = almost_sure_reach_set(graph_of(ts), targets)
        assert got == oracle_almost_sure_reach(ts, targets)


def test_reach_set_monotone_in_targets():
    for seed in range(8):
        ts = random_transition_system(rng_for(500 + seed), n_states=6)
        rng = rng_for(600 + seed)
        small = {ts.states[int(rng.integers(0, len(ts.states)))]}
        big = small | {ts.states[int(rng.integers(0, len(ts.states)))]}
        graph = graph_of(ts)
        assert almost_sure_reach_set(graph, small) <= almost_sure_reach_set(graph, big)


def test_reach_policy_example1_plays_b2():
    pair, graph = _e1_structure()
    targets = {pair.bot1, pair.bot2}
    rmax = almost_sure_reach_set(graph, targets)
    table = reach_policy(graph, targets, rmax)
    assert table["2"] == "b2"
    assert table["5"] == "b5"
    assert set(table) == {"2", "5"}
    # targets get no assignment
    assert pair.bot1 not in table


def test_reach_policy_supports_stay_inside_rmax():
    for seed in range(10):
        mmdp = random_detectable_binary(rng_for(700 + seed))
        pair = preprocess(mmdp.models[0], mmdp.models[1])
        ts = informative_system(pair)
        graph = graph_of(ts)
        isa_rows = graph.row_bits(pair.isa)
        targets = frozenset(s for c in mec_decompose(graph) if c.rows & isa_rows for s in c.states)
        rmax = almost_sure_reach_set(graph, targets)
        table = reach_policy(graph, targets, rmax)
        for s, a in table.items():
            assert ts.successors[(s, a)] <= rmax, (s, a)


def test_reach_policy_reaches_with_probability_one():
    for seed in range(8):
        ts = random_transition_system(rng_for(900 + seed), n_states=6, max_actions=2)
        rng = rng_for(950 + seed)
        targets = {ts.states[int(i)] for i in rng.choice(len(ts.states), size=2, replace=False)}
        graph = graph_of(ts)
        rmax = almost_sure_reach_set(graph, targets)
        if not (rmax - targets):
            continue
        table = reach_policy(graph, targets, rmax)
        # materialize a compatible chain: uniform over the chosen action's support
        rows = {}
        for s in rmax:
            if s in targets:
                rows[s] = {s: 1.0}
            else:
                succs = sorted(ts.successors[(s, table[s])])
                rows[s] = {t: 1.0 / len(succs) for t in succs}
        h = chain_reach_probability(rows, targets)
        for s in rmax:
            assert h[s] > 1 - 1e-9, (seed, s)


def test_reach_policy_contract_breach_reported():
    ts = _ts(
        ("a", "b"),
        {"a": ("go",), "b": ("stay",)},
        {("a", "go", "b"), ("b", "stay", "b")},
    )
    with pytest.raises(ContractError):
        reach_policy(graph_of(ts), targets={"a"}, rmax=frozenset({"a", "b"}))


def test_mec_uniform_point_mass_and_halves():
    mec1 = Mec({"3", "4"}, {"3": {"a3"}, "4": {"a4"}})
    assert mec1.distribution("3") == {"a3": 1.0}
    mec2 = Mec({"x"}, {"x": {"a", "b"}})
    assert mec2.distribution("x") == {"a": 0.5, "b": 0.5}
    mec3 = Mec({"x"}, {"x": {"a", "b", "c"}})
    dist = mec3.distribution("x")
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
    )
    (mec,) = mec_decompose(graph_of(ts))
    assert mec.states == {"p", "q", "r"}
    rng = np.random.Generator(np.random.Philox(key=(11, 0)))
    succ = ts.successors
    state = "p"
    seen = set()
    for _ in range(10_000):
        dist = mec.distribution(state)
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
    return _ts(states, actions, triples)


def _outcome(fn, *args):
    """What ``fn`` returns, or the type and text of the ContractError it raises."""
    try:
        return fn(*args)
    except ContractError as exc:
        return ("ContractError", str(exc))


@settings(max_examples=400)
@given(_structures(), st.data())
def test_kernels_match_the_frozen_string_kernels(ts, data):
    graph = graph_of(ts)
    got, expected = mec_decompose(graph), reference_mec_decompose(ts)
    assert [(c.states, c.actions) for c in got] == [(c.states, c.actions) for c in expected]
    for c in got:
        assert c.rows == graph.row_bits((s, a) for s in c.states for a in c.actions[s])

    targets = data.draw(st.sets(st.sampled_from(ts.states)))
    rmax = reference_almost_sure_reach_set(ts, targets)
    assert almost_sure_reach_set(graph, targets) == rmax
    table = reach_policy(graph, targets, rmax)
    assert list(table.items()) == list(reference_reach_policy(ts, targets, rmax).items())

    # contract breaches: a target outside the state space, a set that is not the reach set
    outside = (*targets, "nowhere")
    assert _outcome(almost_sure_reach_set, graph, outside) == _outcome(
        reference_almost_sure_reach_set, ts, outside
    )
    wrong = data.draw(st.sets(st.sampled_from(ts.states)))
    got_policy = _outcome(reach_policy, graph, targets, wrong)
    expected_policy = _outcome(reference_reach_policy, ts, targets, wrong)
    if isinstance(expected_policy, tuple):
        assert got_policy == expected_policy
    else:
        assert list(got_policy.items()) == list(expected_policy.items())


@settings(max_examples=400)
@given(_structures(), st.data())
def test_kernels_match_the_frozen_string_kernels_on_a_sub_domain(ts, data):
    """Every synthesis level runs on a graph whose domain is smaller than its names.
    On a strict sub-domain the kernels answer what the frozen kernels answer on the
    sub-system in which every successor outside the domain goes to one action-less,
    non-target sink."""
    full = graph_of(ts)
    held = data.draw(
        st.sets(st.sampled_from(full.names), min_size=1, max_size=len(full.names) - 1)
    )
    graph = full.over(full.succ, full.bits(held))
    sub = system_of(graph)
    assert set(sub.states) - held == {"sink"}

    got, expected = mec_decompose(graph), reference_mec_decompose(sub)
    assert [(c.states, c.actions) for c in got] == [(c.states, c.actions) for c in expected]
    for c in got:
        assert c.rows == graph.row_bits((s, a) for s in c.states for a in c.actions[s])

    targets = data.draw(st.sets(st.sampled_from(sorted(held))))
    rmax = reference_almost_sure_reach_set(sub, targets)
    assert almost_sure_reach_set(graph, targets) == rmax
    table = reach_policy(graph, targets, rmax)
    assert list(table.items()) == list(reference_reach_policy(sub, targets, rmax).items())


def _distributions(mec):
    return {s: mec.distribution(s) for s in sorted(mec.states)}


def _same_distributions(got, expected):
    """Equal values in the same key order, at every state."""
    assert list(got) == list(expected)
    assert [list(d.items()) for d in got.values()] == [list(d.items()) for d in expected.values()]


_names = st.text("abxyz_1", min_size=1, max_size=3)


@settings(max_examples=200)
@given(_structures(), st.dictionaries(_names, st.lists(_names, min_size=1, max_size=4), max_size=5))
def test_component_distribution_matches_the_frozen_uniform_rule(ts, states):
    """``Mec.distribution`` plays what ``mec_uniform_policy`` built: on the
    components of random systems, and on components read from a policy file,
    whose action lists may repeat an action and come in any order."""
    for mec in mec_decompose(graph_of(ts)):
        _same_distributions(_distributions(mec), reference_uniform_policy(mec))
    doc = {"entries": [{"active": [1, 2], "entry_state": "s", "mecs": [{"states": states}]}]}
    (entry,) = parse_policy(doc).entries.values()
    (mec,) = entry.mecs
    _same_distributions(_distributions(mec), reference_uniform_policy(mec))


def _listing_text(components):
    return json.dumps(components, indent=2, sort_keys=True) + "\n"


def _fields(graph):
    return (graph.names, dict(graph.index), list(graph.actions), list(graph.first),
            list(graph.succ), graph.domain)


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["binary", "multi"]),
       n_models=st.integers(2, 4))
def test_mec_listings_match_the_frozen_string_structures(seed, kind, n_models):
    """``model_graph`` is the frozen induced structure of the model, interned,
    field by field; ``mec --model k`` lists its components, and ``mec
    --informative`` lists the components of the frozen rewritten pair that
    hold an informative row."""
    rng = rng_for(seed)
    n_states = int(rng.integers(2, 7))
    if kind == "binary":
        mmdp = random_binary_mmdp(rng, n_states=n_states)
    else:
        mmdp = random_multi_mmdp(rng, n_models=n_models, n_states=n_states, reveal_share=0.5)
    with tempfile.TemporaryDirectory() as tmp:
        model, out = Path(tmp) / "model.json", Path(tmp) / "out.json"
        model.write_text(mmdp_to_json(mmdp))

        def listing(*flags):
            code = main(["mec", str(model), *flags, "--out", str(out)])
            return code, out.read_text() if code == 0 else None

        for k in range(1, mmdp.n + 1):
            graph = graph_of(induced_system(mmdp.model(k)))
            assert _fields(model_graph(mmdp, k)) == _fields(graph)
            expected = [c.as_dict() for c in mec_decompose(graph)]
            assert listing("--model", str(k)) == (0, _listing_text(expected))
        for k in (0, mmdp.n + 1):
            with pytest.raises(ModelError, match=rf"^model index {k} outside 1\.\.{mmdp.n}$"):
                model_graph(mmdp, k)
        if mmdp.n == 2:
            pair = preprocess(*mmdp.models)
            graph = informative_graph(pair)
            isa_rows = graph.row_bits(pair.isa)
            expected = [c.as_dict() for c in mec_decompose(graph) if c.rows & isa_rows]
            assert listing("--informative") == (0, _listing_text(expected))
        else:
            assert listing("--informative") == (2, None)


def _set_bits(x):
    return [i for i in range(x.bit_length()) if x >> i & 1]


def test_bit_indices_on_edge_words():
    """0, powers of two and all-ones words, around the byte and word sizes and at the bench's widths."""
    widths = (1, 2, 7, 8, 9, 63, 64, 65, 113, 1602, 2000)
    for x in (0, *(1 << w - 1 for w in widths), *((1 << w) - 1 for w in widths)):
        assert bit_indices(x) == _set_bits(x), x


@settings(max_examples=400, derandomize=True)
@given(
    width=st.integers(1, 2000),
    density=st.sampled_from([0.01, 0.05, 0.1, 0.124, 0.126, 0.2, 0.5, 0.9, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_bit_indices_match_the_set_bits(width, density, seed):
    """Both forms, sparse (fewer than one bit in eight) and dense, list the set bits in order."""
    rng = np.random.default_rng(seed)
    bits = np.flatnonzero(rng.random(width) < density).tolist()
    x = sum(1 << i for i in bits) | 1 << width - 1
    assert bit_indices(x) == _set_bits(x)
