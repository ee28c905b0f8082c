"""Binary pipeline: classification, preprocessing, structure, synthesis."""

import dataclasses
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpdetect.binary import (
    INFORMATIVE,
    NEUTRAL,
    PLAIN,
    REVEALING,
    _binary_synthesis,
    _pair_graph,
    _terminal_frame,
    bi_apd,
    classify_pairs,
    informative_mdp,
    preprocess,
    rows_equal,
)
from mdpdetect.errors import ModelError
from mdpdetect.graphs import bit_indices, mec_decompose
from mdpdetect.models import ROW_EQ_TOL, Mdp, Mmdp, support, validate_mmdp
from mdpdetect.simulate import monte_carlo_error, simulate

from conftest import (
    example1_mmdp,
    identical_mmdp,
    induced_system,
    informative_graph,
    informative_system,
    mk_mdp,
    random_binary_mmdp,
    random_detectable_binary,
    random_multi_mmdp,
    random_sparse_cut_mmdp,
    reference_classify_pairs,
    reference_pair_decision,
    reference_pair_report,
    reference_rows_equal,
    rng_for,
    sqrt_half_mmdp,
)


def test_classify_example1(example1):
    cls = classify_pairs(*example1.models)
    assert cls.pair_labels[("1", "a1")] == INFORMATIVE
    assert cls.pair_labels[("2", "b2")] == INFORMATIVE
    assert cls.pair_labels[("2", "a2")] == NEUTRAL
    assert cls.pair_labels[("5", "b5")] == REVEALING
    # raw label of (5, a5) is informative, but the state is revealing, so the
    # pair disappears from the preprocessed pair set
    assert cls.pair_labels[("5", "a5")] == INFORMATIVE
    assert cls.state_labels["5"] == REVEALING
    assert cls.state_labels["1"] == INFORMATIVE
    assert cls.state_labels["2"] == INFORMATIVE
    assert cls.state_labels["3"] == PLAIN
    assert cls.chosen_revealing == {"5": "b5"}


def test_classify_identical_models():
    mmdp = identical_mmdp()
    cls = classify_pairs(*mmdp.models)
    assert set(cls.pair_labels.values()) == {NEUTRAL}
    assert set(cls.state_labels.values()) == {PLAIN}


def test_classify_constructed_supports():
    states = ("s", "1", "2", "3")
    actions = {"s": ("a", "b"), "1": ("z",), "2": ("z",), "3": ("z",)}
    loops = {("1", "z"): {"1": 1.0}, ("2", "z"): {"2": 1.0}, ("3", "z"): {"3": 1.0}}
    m1 = mk_mdp(
        states, actions,
        {("s", "a"): {"1": 0.5, "2": 0.5}, ("s", "b"): {"1": 0.3, "2": 0.7}, **loops},
        "s",
    )
    m2 = mk_mdp(
        states, actions,
        {("s", "a"): {"3": 1.0}, ("s", "b"): {"1": 0.7, "2": 0.3}, **loops},
        "s",
    )
    cls = classify_pairs(m1, m2)
    assert cls.pair_labels[("s", "a")] == REVEALING  # supports {1,2} vs {3}
    assert cls.pair_labels[("s", "b")] == INFORMATIVE  # same support, different masses


_NAN = float("nan")
_TOL_UP = math.nextafter(ROW_EQ_TOL, 1.0)
# explicit zeros of both signs, the tolerance and its next float up (as a
# difference from 0.0 and, nearly, from 0.5), NaN, both infinities and a
# negative mass
_MASSES = st.one_of(
    st.sampled_from(
        (0.0, -0.0, 0.25, 0.5, 1.0, ROW_EQ_TOL, _TOL_UP, 0.5 + ROW_EQ_TOL, 0.5 + _TOL_UP, _NAN, math.inf,
         -0.25, -math.inf)
    ),
    st.builds(float, st.just("nan")),  # a NaN that is not the shared object
)
_ROWS = st.dictionaries(st.sampled_from("tuvw"), _MASSES, max_size=4)


@st.composite
def _row_pairs(draw):
    """Two rows over the same successor names: the same dict, an equal copy, an edit, or unrelated."""
    r1 = draw(_ROWS)
    how = draw(st.sampled_from(["same", "copy", "edit", "fresh"]))
    if how == "same":
        return r1, r1
    if how == "fresh":
        return r1, draw(_ROWS)
    r2 = dict(r1)
    if how == "edit":
        for t in draw(st.sets(st.sampled_from(sorted(r1)))) if r1 else ():
            del r2[t]
        r2.update(draw(_ROWS))
    return r1, r2


def test_rows_equal_tolerance_edges():
    assert rows_equal({"t": 0.0}, {"t": ROW_EQ_TOL})
    assert rows_equal({}, {"t": ROW_EQ_TOL}) and rows_equal({"t": -ROW_EQ_TOL}, {})
    assert not rows_equal({"t": 0.0}, {"t": _TOL_UP})
    assert not rows_equal({"u": 1.0}, {"u": 1.0, "t": _TOL_UP})
    nan_row = {"t": 0.5, "u": _NAN}
    assert not rows_equal(nan_row, nan_row)  # a NaN difference is a difference
    assert not rows_equal({"t": math.inf}, {"t": math.inf})


@settings(max_examples=400)
@given(st.lists(st.lists(_row_pairs(), min_size=1, max_size=3), min_size=1, max_size=4))
def test_classification_matches_the_frozen_labels(states_rows):
    """Pair labels, state labels and chosen revealing actions equal those of the frozen
    key-union classification, on hand-built rows with explicit zeros, one-sided keys,
    tolerance edges, NaN, infinite and negative masses and rows that are one dict; and
    the pair graph read from the model masks is the union support of ``preprocess``'s
    rewrite on the same rows."""
    # the successor names are states too, each with a self-loop both models share
    states = (*(f"s{k}" for k in range(len(states_rows))), *"tuvw")
    actions = {s: tuple(f"a{j}" for j in range(len(rows))) for s, rows in zip(states, states_rows)}
    kernels: tuple[dict, dict] = ({}, {})
    for t in "tuvw":
        actions[t] = ("loop",)
        kernels[0][(t, "loop")] = kernels[1][(t, "loop")] = {t: 1.0}
    for s, rows in zip(states, states_rows):
        for a, (r1, r2) in zip(actions[s], rows):
            kernels[0][(s, a)], kernels[1][(s, a)] = r1, r2
            assert rows_equal(r1, r2) == reference_rows_equal(r1, r2)
            assert rows_equal(r2, r1) == reference_rows_equal(r2, r1)
    m1, m2 = (Mdp(states=states, actions=actions, kernel=k, initial=states[0]) for k in kernels)
    got, expected = classify_pairs(m1, m2), reference_classify_pairs(m1, m2)
    for field in ("pair_labels", "state_labels", "chosen_revealing"):
        assert list(getattr(got, field).items()) == list(getattr(expected, field).items())
    _assert_pair_graph_matches_the_rewrite(Mmdp(models=(m1, m2)), 1, 2)


def test_classify_requires_shared_structure(example1):
    import dataclasses

    m2 = example1.models[1]
    hacked = dict(m2.actions)
    hacked["2"] = ("a2",)
    with pytest.raises(ModelError):
        classify_pairs(example1.models[0], dataclasses.replace(m2, actions=hacked))


def test_preprocess_example1_rows(example1):
    pair = preprocess(*example1.models)
    m1p = pair.m1
    assert m1p.row("5", "b5") == {pair.bot1: 1.0}
    assert m1p.row("2", "b2") == {"2": 0.5, pair.bot1: 0.5}
    assert pair.m2.row("2", "b2") == {"2": 0.5, pair.bot2: 0.5}
    # revealing state keeps exactly the chosen action
    assert m1p.actions["5"] == ("b5",)
    assert ("5", "a5") not in m1p.kernel
    # neutral rows copied unchanged
    assert m1p.row("2", "a2") == example1.models[0].row("2", "a2")
    # terminals absorbing in both models
    for m in (pair.m1, pair.m2):
        assert m.row(pair.bot1, m.actions[pair.bot1][0]) == {pair.bot1: 1.0}
        assert m.row(pair.bot2, m.actions[pair.bot2][0]) == {pair.bot2: 1.0}
    # the preprocessed pair is itself a valid MMDP
    assert validate_mmdp(Mmdp(models=(pair.m1, pair.m2))) == []


def test_preprocess_example1_edge_set_matches_reference():
    pair = preprocess(*example1_mmdp().models)
    got = set()
    for s in pair.m1.states:
        for a in pair.m1.actions[s]:
            for t in support(pair.m1.row(s, a)):
                got.add((s, a, t))
    b1, b2 = pair.bot1, pair.bot2
    expected = {
        ("1", "a1", "2"), ("1", "a1", "3"),
        ("2", "a2", "2"), ("2", "a2", "5"), ("2", "a2", "6"),
        ("2", "b2", "2"), ("2", "b2", b1),
        ("3", "a3", "3"), ("3", "a3", "4"),
        ("4", "a4", "3"), ("4", "a4", "4"),
        ("5", "b5", b1),
        ("6", "a6", "6"), ("7", "a7", "7"),
        (b1, f"a_{b1}", b1), (b2, f"a_{b2}", b2),
    }
    assert got == expected


def test_preprocess_isa_includes_terminal_pairs(example1):
    pair = preprocess(*example1.models)
    assert pair.isa_original == {("1", "a1"), ("2", "b2")}
    assert pair.isa == pair.isa_original | pair.terminal_pairs


def _random_labeled_pair(rng, n_states):
    """A model pair whose rows are equal, equal within or just beyond the row
    tolerance, disjoint, or overlapping, so every label occurs."""
    states = tuple(f"s{i}" for i in range(n_states))
    actions = {s: tuple(f"a{j}" for j in range(int(rng.integers(1, 4)))) for s in states}
    kernels = ({}, {})

    def row():
        succs = rng.choice(states, size=int(rng.integers(1, min(4, n_states + 1))), replace=False).tolist()
        weights = rng.uniform(0.1, 1.0, size=len(succs))
        return dict(zip(succs, (weights / weights.sum()).tolist()))

    for s in states:
        for a in actions[s]:
            r1 = row()
            kind = rng.integers(0, 4)
            if kind == 0:  # equal, or moved by a multiple of the tolerance
                r2 = dict(r1)
                if len(r2) > 1:
                    x, y = list(r2)[:2]
                    shift = ROW_EQ_TOL * float(rng.choice([0.5, 3.0]))
                    r2[x] += shift
                    r2[y] -= shift
            elif kind == 1:  # disjoint wherever the state space leaves room
                rest = [t for t in states if t not in r1]
                r2 = {rest[0]: 1.0} if rest else dict(r1)
            else:
                r2 = row()
            kernels[0][(s, a)] = r1
            kernels[1][(s, a)] = r2
    return tuple(mk_mdp(states, actions, k, states[0], f"M{m + 1}") for m, k in enumerate(kernels))


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["labeled", "binary", "multi"]))
def test_preprocess_isa_matches_the_rewritten_classification(seed, kind):
    """``isa`` is what classifying the rewritten pair yields, plus the terminals."""
    rng = rng_for(seed)
    n_states = int(rng.integers(2, 7))
    if kind == "labeled":
        m1, m2 = _random_labeled_pair(rng, n_states)
    elif kind == "binary":
        m1, m2 = random_binary_mmdp(rng, n_states=n_states).models
    else:
        m1, m2 = random_multi_mmdp(rng, n_models=2, n_states=n_states, reveal_share=0.6).models
    pair = preprocess(m1, m2)
    assert pair.isa == classify_pairs(pair.m1, pair.m2).informative_pairs | pair.terminal_pairs


def test_preprocess_reroutes_disjoint_mass():
    states = ("s", "x", "y", "z")
    actions = {"s": ("a",), "x": ("z",), "y": ("z",), "z": ("z",)}
    loops = {("x", "z"): {"x": 1.0}, ("y", "z"): {"y": 1.0}, ("z", "z"): {"z": 1.0}}
    m1 = mk_mdp(states, actions, {("s", "a"): {"x": 0.4, "y": 0.6}, **loops}, "s")
    m2 = mk_mdp(states, actions, {("s", "a"): {"x": 0.4, "z": 0.6}, **loops}, "s")
    pair = preprocess(m1, m2)
    assert pair.m1.row("s", "a") == {"x": 0.4, pair.bot1: 0.6}
    assert pair.m2.row("s", "a") == {"x": 0.4, pair.bot2: 0.6}
    for m in (pair.m1, pair.m2):
        assert abs(sum(m.row("s", "a").values()) - 1.0) < 1e-9


def test_preprocess_identical_models_adds_unreachable_terminals():
    mmdp = identical_mmdp()
    pair = preprocess(*mmdp.models)
    assert pair.isa == pair.terminal_pairs
    # original rows untouched
    for (s, a), row in mmdp.models[0].kernel.items():
        assert pair.m1.row(s, a) == row
    ts = informative_system(pair)
    reachable_terminals = {
        t for (_, _, t) in ts.transitions if t in (pair.bot1, pair.bot2)
    }
    assert reachable_terminals <= {pair.bot1, pair.bot2}
    assert not any(
        t in (pair.bot1, pair.bot2) and s not in (pair.bot1, pair.bot2)
        for (s, _, t) in ts.transitions
    )


def test_informative_structure_example1(example1):
    pair = preprocess(*example1.models)
    ts = informative_system(pair)
    assert ("2", "b2", pair.bot1) in ts.transitions
    assert ("2", "b2", pair.bot2) in ts.transitions
    # every transition leaves a state by an action it offers, and every action moves
    assert all(succ and succ <= set(ts.states) for succ in ts.successors.values())


def test_informative_structure_identical_is_original_plus_terminals():
    mmdp = identical_mmdp()
    pair = preprocess(*mmdp.models)
    ts = informative_system(pair)
    base = induced_system(mmdp.models[0])
    terminal_loops = {
        (pair.bot1, f"a_{pair.bot1}", pair.bot1),
        (pair.bot2, f"a_{pair.bot2}", pair.bot2),
    }
    assert ts.transitions == base.transitions | terminal_loops


@pytest.mark.parametrize("gamma", [0.0, 1.0, -0.5, 1.5, math.nan])
def test_informative_mdp_refuses_a_gamma_outside_the_open_unit_interval(example1, gamma):
    with pytest.raises(ModelError, match=r"gamma must lie in \(0, 1\)"):
        informative_mdp(preprocess(*example1.models), gamma)


@pytest.mark.parametrize("change", [{"states": ("ghost",)}, {"initial": "ghost"}], ids=["states", "initial"])
def test_classify_pairs_refuses_models_that_do_not_share_states(example1, change):
    with pytest.raises(ModelError, match="model pair does not share states and initial state"):
        classify_pairs(example1.models[0], dataclasses.replace(example1.models[1], **change))


def test_informative_structure_gamma_independent(example1):
    pair = preprocess(*example1.models)
    supports = []
    for gamma in (0.3, 0.7):
        blend = informative_mdp(pair, gamma)
        supports.append(
            {
                (s, a, t)
                for (s, a), row in blend.kernel.items()
                for t in support(row)
            }
        )
    assert supports[0] == supports[1]
    assert supports[0] == set(informative_system(pair).transitions)


def test_informative_mecs_example1_only_terminals(example1):
    pair = preprocess(*example1.models)
    mecs = bi_apd(example1).diagnostics["informative_mecs"]
    assert sorted(sorted(c) for c in mecs) == sorted([[pair.bot1], [pair.bot2]])


def test_informative_mecs_recurrent_informative_loop():
    states = ("p", "q")
    actions = {"p": ("a",), "q": ("b",)}
    m1 = mk_mdp(states, actions, {("p", "a"): {"p": 0.6, "q": 0.4}, ("q", "b"): {"p": 1.0}}, "p")
    m2 = mk_mdp(states, actions, {("p", "a"): {"p": 0.2, "q": 0.8}, ("q", "b"): {"p": 1.0}}, "p")
    mecs = bi_apd(Mmdp(models=(m1, m2))).diagnostics["informative_mecs"]
    assert {"p": ["a"], "q": ["b"]} in mecs


def _random_mmdp(rng, kind):
    """A random model pair (``labeled``, ``binary``) or 2 to 4 models (``multi``)."""
    n_states = int(rng.integers(2, 7))
    if kind == "labeled":
        return Mmdp(models=_random_labeled_pair(rng, n_states))
    if kind == "binary":
        return random_binary_mmdp(rng, n_states=n_states)
    n_models = int(rng.integers(2, 5))
    return random_multi_mmdp(rng, n_models=n_models, n_states=n_states, reveal_share=0.5)


def _model_pairs(mmdp):
    return list(itertools.combinations(range(1, mmdp.n + 1), 2))


def _pair_graph_of(mmdp, i, j):
    rows, cls = mmdp.rows, classify_pairs(mmdp.model(i), mmdp.model(j))
    frame = _terminal_frame(rows, ("bot1", "bot2"))
    return _pair_graph(rows, frame, (i, j), frame.row_bits(cls.informative_pairs))


def _enabled_rows(graph):
    """{(state, action): successor names} of ``graph``, where a successor outside the
    graph counts as none and a row with no successor left is not enabled."""
    out = {}
    for i in bit_indices(graph.domain):
        for r in range(graph.first[i], graph.first[i + 1]):
            succ = frozenset(graph.names[k] for k in bit_indices(graph.succ[r] & graph.domain))
            if succ:
                out[(graph.names[i], graph.actions[r])] = succ
    return out


def _row_pairs(graph, rows):
    """The (state, action) pairs of the row bitset ``rows`` of ``graph``."""
    return {
        (graph.names[i], graph.actions[r])
        for i in range(len(graph.names))
        for r in range(graph.first[i], graph.first[i + 1])
        if rows >> r & 1
    }


def _assert_pair_graph_matches_the_rewrite(mmdp, i, j):
    graph, isa_rows = _pair_graph_of(mmdp, i, j)
    pair = preprocess(mmdp.model(i), mmdp.model(j))
    expected = informative_graph(pair)
    assert graph.names[-2:] == (pair.bot1, pair.bot2)
    assert sorted(graph.states) == sorted(expected.states)
    assert _enabled_rows(graph) == _enabled_rows(expected)
    assert _row_pairs(graph, isa_rows) == _row_pairs(expected, expected.row_bits(pair.isa))


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["labeled", "binary", "multi"]))
def test_pair_graph_matches_the_rewritten_pair(seed, kind):
    """Synthesis's pair graph is the union support of ``preprocess``'s rewritten pair."""
    mmdp = _random_mmdp(rng_for(seed), kind)
    for i, j in _model_pairs(mmdp):
        _assert_pair_graph_matches_the_rewrite(mmdp, i, j)


def test_pair_graph_ignores_explicit_zero_successors():
    states = ("s", "t", "x", "y", "z")
    actions = {"s": ("a", "b"), "t": ("c",), "x": ("z",), "y": ("z",), "z": ("z",)}
    loops = {(u, "z"): {u: 1.0} for u in ("x", "y", "z")}
    m1 = mk_mdp(
        states, actions,
        {
            ("s", "a"): {"x": 0.4, "y": 0.6, "z": 0.0},
            ("s", "b"): {"x": 1.0, "y": 0.0},
            ("t", "c"): {"x": 1.0, "y": 0.0},
            **loops,
        },
        "s",
    )
    m2 = mk_mdp(
        states, actions,
        {("s", "a"): {"x": 0.4, "z": 0.6}, ("s", "b"): {"x": 1.0}, ("t", "c"): {"y": 1.0}, **loops},
        "s",
    )
    mmdp = Mmdp(models=(m1, m2))
    cls = classify_pairs(m1, m2)
    assert [cls.pair_labels[p] for p in (("s", "a"), ("s", "b"), ("t", "c"))] == [
        INFORMATIVE, NEUTRAL, REVEALING,
    ]
    graph, _ = _pair_graph_of(mmdp, 1, 2)
    bot1, bot2 = graph.names[-2:]
    rows = _enabled_rows(graph)
    assert rows[("s", "a")] == {"x", bot1, bot2}
    assert rows[("s", "b")] == {"x"}
    assert rows[("t", "c")] == {bot1, bot2}
    _assert_pair_graph_matches_the_rewrite(mmdp, 1, 2)


def test_pair_graph_neutral_row_keeps_the_union_support():
    states = ("s", "x", "y")
    actions = {"s": ("a",), "x": ("z",), "y": ("z",)}
    loops = {("x", "z"): {"x": 1.0}, ("y", "z"): {"y": 1.0}}
    m1 = mk_mdp(states, actions, {("s", "a"): {"x": 1.0}, **loops}, "s")
    m2 = mk_mdp(
        states, actions, {("s", "a"): {"x": 1.0 - ROW_EQ_TOL / 2, "y": ROW_EQ_TOL / 2}, **loops}, "s"
    )
    mmdp = Mmdp(models=(m1, m2))
    assert classify_pairs(m1, m2).pair_labels[("s", "a")] == NEUTRAL
    graph, isa_rows = _pair_graph_of(mmdp, 1, 2)
    assert _enabled_rows(graph)[("s", "a")] == {"x", "y"}
    bot1, bot2 = graph.names[-2:]
    assert _row_pairs(graph, isa_rows) == {(bot1, f"a_{bot1}"), (bot2, f"a_{bot2}")}
    _assert_pair_graph_matches_the_rewrite(mmdp, 1, 2)


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["labeled", "binary", "multi"]))
def test_pair_decision_matches_frozen_reference(seed, kind):
    """Reach set, reach table and components equal the decision taken on
    ``informative_graph(preprocess(...))``, and so does every entry built from them."""
    mmdp = _random_mmdp(rng_for(seed), kind)
    frame = _terminal_frame(mmdp.rows, ("bot1", "bot2"))
    for pair in _model_pairs(mmdp):
        m_i, m_j = mmdp.model(pair[0]), mmdp.model(pair[1])
        decisions = {}
        informative = frame.row_bits(classify_pairs(m_i, m_j).informative_pairs)
        _binary_synthesis(mmdp, frame, mmdp.initial, pair, decisions, informative)
        got, ref = decisions[pair], reference_pair_decision(m_i, m_j)
        assert (got.rmax, got.reach, got.mecs, got.components, got.informative) == (
            ref.rmax, ref.reach, ref.mecs, ref.components, ref.informative,
        )
        for s in mmdp.states:
            assert _binary_synthesis(mmdp, frame, s, pair, {pair: got}, informative) == _binary_synthesis(
                mmdp, frame, s, pair, {pair: ref}, informative
            )


def test_bi_apd_reports_the_reference_diagnostics():
    """From every state of every model pair, ``bi_apd`` reports what the rewritten pair
    built by ``preprocess`` gives: its reach set, components, ``isa`` and revealing
    pairs, and for an undetectable state the non-informative components it reaches."""
    witnessed = detectable = 0
    for seed in range(40):
        rng = rng_for(3100 + seed)
        instances = [_random_mmdp(rng, kind) for kind in ("labeled", "binary", "multi")]
        instances.append(random_sparse_cut_mmdp(rng, n_models=2 + seed % 3, n_states=3 + seed % 5))
        for mmdp in instances:
            for i, j in _model_pairs(mmdp):
                m_i, m_j = mmdp.model(i), mmdp.model(j)
                for s in mmdp.states:
                    diagnostics = bi_apd(Mmdp(models=(m_i, m_j)), s).diagnostics
                    assert diagnostics == reference_pair_report(m_i, m_j, s), (seed, i, j, s)
                    witnessed += bool(diagnostics.get("witness_noninformative_mecs"))
                    detectable += "witness_noninformative_mecs" not in diagnostics
    assert witnessed >= 100 and detectable >= 100


def test_bi_apd_example1_decisions():
    assert bi_apd(example1_mmdp(initial="1")).exists is False
    outcome = bi_apd(example1_mmdp(initial="2"))
    assert outcome.exists is True
    entry = outcome.policy.entries[((1, 2), "2")]
    assert entry.reach["2"] == "b2"
    assert entry.mecs == ()  # only terminal components are informative here


def test_bi_apd_initial_override(example1):
    assert bi_apd(example1, initial="2").exists is True
    assert bi_apd(example1, initial="1").exists is False


def test_bi_apd_identical_models_undetectable():
    outcome = bi_apd(identical_mmdp())
    assert outcome.exists is False
    assert outcome.policy is None


def test_bi_apd_failure_exhibits_noninformative_witness():
    outcome = bi_apd(example1_mmdp(initial="1"))
    witnesses = outcome.diagnostics["witness_noninformative_mecs"]
    assert witnesses, "a reachable non-informative component must be exhibited"
    assert {"3": ["a3"], "4": ["a4"]} in witnesses


def test_bi_apd_diagnostics_fields(example1):
    outcome = bi_apd(example1, initial="2")
    diag = outcome.diagnostics
    assert diag["isa"] == [("1", "a1"), ("2", "b2")]
    assert diag["revealing_pairs"] == [("5", "b5")]
    assert "2" in diag["rmax"] and "1" not in diag["rmax"]
    assert outcome.exists == (diag["initial"] in diag["rmax"])


def test_bi_apd_rejects_unknown_initial(example1):
    # the terminals are states of the pair graph, not of the model
    for initial in ("ghost", "bot1", "bot2"):
        with pytest.raises(ModelError, match="unknown initial state"):
            bi_apd(example1, initial=initial)


def test_bi_apd_rejects_non_binary():
    with pytest.raises(ModelError):
        bi_apd(identical_mmdp(n_models=3))


def test_policy_plays_revealing_action_at_revealing_states():
    # every synthesized policy assigns the chosen revealing action wherever a
    # revealing state enters the reach table
    for seed in range(6):
        mmdp = random_detectable_binary(rng_for(2000 + seed))
        outcome = bi_apd(mmdp)
        if not outcome.exists:
            continue
        cls = classify_pairs(*mmdp.models)
        (entry,) = outcome.policy.entries.values()
        for s, a in entry.reach.items():
            if cls.state_labels.get(s) == REVEALING:
                assert a == cls.chosen_revealing[s]
    # Example 1 pins the concrete case: state 5 is revealing and in the reach table
    outcome = bi_apd(example1_mmdp(initial="2"))
    entry = outcome.policy.entries[((1, 2), "2")]
    assert entry.reach["5"] == "b5"


def test_detectable_runs_visit_isa_or_collapse():
    mmdp = example1_mmdp(initial="2")
    outcome = bi_apd(mmdp)
    pair = preprocess(*mmdp.models)
    isa = pair.isa_original
    for seed in range(50):
        for truth in (1, 2):
            trace = simulate(
                mmdp, truth, outcome.policy, seed=seed, max_steps=200,
                threshold=1 - 1e-12,
            )
            visited_isa = any(
                (step.state, step.action) in isa for step in trace.steps if step.action
            )
            collapsed = any(b == 0.0 for b in trace.steps[-1].beliefs)
            assert visited_isa or collapsed


def test_map_error_decreases_with_horizon():
    # closed-form instance: strict decrease
    mmdp = sqrt_half_mmdp()
    from mdpdetect.policy import stationary_uniform_policy

    policy = stationary_uniform_policy(mmdp)
    err5, _ = monte_carlo_error(mmdp, policy, t=5, trials=1500, seed=7)
    err10, _ = monte_carlo_error(mmdp, policy, t=10, trials=1500, seed=7)
    assert err10 < err5
    # synthesized policy on a detectable instance: paired long-horizon check
    mmdp = random_detectable_binary(rng_for(4242))
    outcome = bi_apd(mmdp)
    assert outcome.exists
    err50, _ = monte_carlo_error(mmdp, outcome.policy, t=50, trials=600, seed=11)
    err200, _ = monte_carlo_error(mmdp, outcome.policy, t=200, trials=600, seed=11)
    assert err200 <= err50


def test_synthesized_policy_error_below_matrix_bound():
    # the flattened policy reproduces the composite execution from the entry
    # state, so the matrix-route coefficient bounds the empirical MAP error
    from mdpdetect.analysis import bc_matrix, error_bounds_binary
    from mdpdetect.policy import entry_as_stationary

    for seed in (1, 5, 9):
        mmdp = random_detectable_binary(rng_for(6200 + seed))
        outcome = bi_apd(mmdp)
        assert outcome.exists
        (entry,) = outcome.policy.entries.values()
        table = entry_as_stationary(entry, mmdp)
        w = bc_matrix(*mmdp.models, table)
        for t in (5, 15):
            bounds = error_bounds_binary(min(w.bc_value(t), 1.0), 0.5, 0.5)
            est, se = monte_carlo_error(mmdp, outcome.policy, t=t, trials=2000, seed=seed)
            assert est <= min(bounds.upper, 1.0) + 3 * se, (seed, t)


def test_bi_apd_outcome_gamma_free(example1):
    # the pipeline consumes only supports; any blend yields the same structure,
    # hence identical decisions from both initial states
    pair = preprocess(*example1.models)
    reference = set(informative_system(pair).transitions)
    for gamma in (0.1, 0.5, 0.9):
        blend = informative_mdp(pair, gamma)
        blended_support = {
            (s, a, t) for (s, a), row in blend.kernel.items() for t in support(row)
        }
        assert blended_support == reference
