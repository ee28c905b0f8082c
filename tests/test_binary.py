"""Binary pipeline: classification, preprocessing, structure, synthesis."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpdetect.binary import (
    INFORMATIVE,
    NEUTRAL,
    PLAIN,
    REVEALING,
    bi_apd,
    classify_pairs,
    informative_mdp,
    informative_mecs,
    informative_structure,
    preprocess,
)
from mdpdetect.errors import ModelError
from mdpdetect.graphs import mec_decompose
from mdpdetect.models import ROW_EQ_TOL, Mmdp, induced_transition_system, support, validate_mmdp
from mdpdetect.simulate import monte_carlo_error, simulate

from conftest import (
    example1_mmdp,
    identical_mmdp,
    mk_mdp,
    random_binary_mmdp,
    random_detectable_binary,
    random_multi_mmdp,
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
    ts = informative_structure(pair)
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
    ts = informative_structure(pair)
    assert ("2", "b2", pair.bot1) in ts.transitions
    assert ("2", "b2", pair.bot2) in ts.transitions
    assert ts.validate() == []


def test_informative_structure_identical_is_original_plus_terminals():
    mmdp = identical_mmdp()
    pair = preprocess(*mmdp.models)
    ts = informative_structure(pair)
    base = induced_transition_system(mmdp.models[0])
    terminal_loops = {
        (pair.bot1, f"a_{pair.bot1}", pair.bot1),
        (pair.bot2, f"a_{pair.bot2}", pair.bot2),
    }
    assert ts.transitions == base.transitions | terminal_loops


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
    assert supports[0] == set(informative_structure(pair).transitions)


def test_informative_mecs_example1_only_terminals(example1):
    pair = preprocess(*example1.models)
    ts = informative_structure(pair)
    mecs = informative_mecs(ts, pair.isa)
    state_sets = sorted(sorted(c.states) for c in mecs)
    assert state_sets == sorted([[pair.bot1], [pair.bot2]])


def test_informative_mecs_recurrent_informative_loop():
    states = ("p", "q")
    actions = {"p": ("a",), "q": ("b",)}
    m1 = mk_mdp(states, actions, {("p", "a"): {"p": 0.6, "q": 0.4}, ("q", "b"): {"p": 1.0}}, "p")
    m2 = mk_mdp(states, actions, {("p", "a"): {"p": 0.2, "q": 0.8}, ("q", "b"): {"p": 1.0}}, "p")
    pair = preprocess(m1, m2)
    ts = informative_structure(pair)
    mecs = informative_mecs(ts, pair.isa)
    assert {frozenset({"p", "q"})} <= {c.states for c in mecs}


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


def test_bi_apd_rejects_non_binary():
    with pytest.raises(ModelError):
        bi_apd(identical_mmdp(n_models=3))


def test_policy_plays_revealing_action_at_revealing_states():
    # every synthesized policy assigns the chosen revealing action wherever a
    # revealing state enters the reach fragment
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
    # Example 1 pins the concrete case: state 5 is revealing and in the fragment
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
    reference = set(informative_structure(pair).transitions)
    for gamma in (0.1, 0.5, 0.9):
        blend = informative_mdp(pair, gamma)
        blended_support = {
            (s, a, t) for (s, a), row in blend.kernel.items() for t in support(row)
        }
        assert blended_support == reference
