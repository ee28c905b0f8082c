"""Multi-model synthesis: pairwise sets, the shared-structure base case, BFS + recursion."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpdetect.binary import bi_apd
from mdpdetect.errors import ModelError
from mdpdetect.general import general_apd, pairwise_isa
from mdpdetect.models import Mmdp, induced_transition_system
from mdpdetect.simulate import map_decide, simulate

from conftest import (
    example1_mmdp,
    identical_mmdp,
    mk_mdp,
    oracle_almost_sure_reach,
    oracle_mecs,
    random_binary_mmdp,
    random_multi_mmdp,
    rng_for,
)


def _triple_from_example1():
    base = example1_mmdp().models[0]
    import dataclasses

    kernel3 = dict(base.kernel)
    kernel3[("1", "a1")] = {"2": 0.5, "3": 0.5}
    m3 = dataclasses.replace(base, kernel=kernel3, name="M3")
    m2 = dataclasses.replace(base, name="M2")
    return Mmdp(models=(base, m2, m3))


def test_pairwise_isa_constructed_triple():
    mmdp = _triple_from_example1()
    assert pairwise_isa(mmdp, 1, 2) == frozenset()
    assert pairwise_isa(mmdp, 1, 3) == {("1", "a1")}
    assert pairwise_isa(mmdp, 2, 3) == {("1", "a1")}


def test_pairwise_isa_identical_models_empty():
    mmdp = identical_mmdp(n_models=3)
    for i in range(1, 4):
        for j in range(i + 1, 4):
            assert pairwise_isa(mmdp, i, j) == frozenset()


def test_pairwise_isa_rejects_equal_indices():
    with pytest.raises(ModelError):
        pairwise_isa(identical_mmdp(3), 2, 2)


def _shared_structure_triple(rows_mu):
    """Transient start feeding a two-state recurrent component.

    ``rows_mu`` gives the (x, u) row per model; every other row is common.
    """
    states = ("s0", "x", "y")
    actions = {"s0": ("g",), "x": ("u",), "y": ("v",)}
    models = []
    for m, row in enumerate(rows_mu):
        kernel = {
            ("s0", "g"): {"x": 0.5, "y": 0.5},
            ("x", "u"): dict(row),
            ("y", "v"): {"x": 1.0},
        }
        models.append(mk_mdp(states, actions, kernel, "s0", f"M{m+1}"))
    return Mmdp(models=tuple(models))


def test_base_case_missing_pair_coverage_fails():
    # recurrent component separates (1,2) and (1,3) but never (2,3)
    mmdp = _shared_structure_triple(
        [{"x": 0.5, "y": 0.5}, {"x": 0.3, "y": 0.7}, {"x": 0.3, "y": 0.7}]
    )
    outcome = general_apd(mmdp)
    assert outcome.exists is False


def test_base_case_identical_models_fail():
    outcome = general_apd(identical_mmdp(n_models=3))
    assert outcome.exists is False


def test_base_case_pairwise_distinct_component_succeeds():
    mmdp = _shared_structure_triple(
        [{"x": 0.2, "y": 0.8}, {"x": 0.5, "y": 0.5}, {"x": 0.8, "y": 0.2}]
    )
    outcome = general_apd(mmdp)
    assert outcome.exists is True
    entry = outcome.policy.entries[((1, 2, 3), "s0")]
    assert entry.reach == {"s0": "g"}
    assert len(entry.mecs) == 1
    assert entry.mecs[0].mec.states == {"x", "y"}


@st.composite
def _same_support_mmdps(draw):
    """3-4 models on one support structure; rows differ only in their masses."""
    n_models = draw(st.integers(3, 4))
    states = tuple(f"s{i}" for i in range(draw(st.integers(2, 5))))
    actions = {s: tuple(f"a{j}" for j in range(draw(st.integers(1, 2)))) for s in states}
    kernels = [{} for _ in range(n_models)]
    for s in states:
        for a in actions[s]:
            succ = sorted(draw(st.sets(st.sampled_from(states), min_size=1, max_size=2)))
            for kernel in kernels:
                if len(succ) == 1:
                    kernel[(s, a)] = {succ[0]: 1.0}
                else:
                    p = draw(st.sampled_from((0.25, 0.5, 0.75)))
                    kernel[(s, a)] = {succ[0]: p, succ[1]: 1.0 - p}
    return Mmdp(
        models=tuple(
            mk_mdp(states, actions, k, states[0], f"M{m+1}") for m, k in enumerate(kernels)
        )
    )


def _oracle_same_support_decision(mmdp):
    """Detection exists iff the initial state almost surely reaches a component
    that separates every model pair by some differing row."""
    models = mmdp.models
    ts = induced_transition_system(models[0])
    pairs = [(i, j) for i in range(mmdp.n) for j in range(i + 1, mmdp.n)]
    targets = set()
    for states, acts in oracle_mecs(ts):
        members = [(s, a) for s in states for a in acts[s]]
        if all(any(models[i].row(*p) != models[j].row(*p) for p in members) for i, j in pairs):
            targets |= states
    return ts.initial in oracle_almost_sure_reach(ts, targets)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(_same_support_mmdps())
def test_general_same_support_decision_matches_oracles(mmdp):
    assert general_apd(mmdp).exists == _oracle_same_support_decision(mmdp)


def _recursive_instance():
    """Identity-revealing split at the start plus a pairwise-informative component.

    Model 3 cannot produce (s0, g, r); observing it leaves the {1, 2}
    subproblem from r, where the (r, h) rows stay distinguishable.
    """
    states = ("s0", "x", "y", "r", "w")
    actions = {"s0": ("g",), "x": ("u",), "y": ("v",), "r": ("h",), "w": ("z",)}
    common = {("y", "v"): {"x": 1.0}, ("w", "z"): {"r": 1.0}}
    k1 = {
        ("s0", "g"): {"x": 0.5, "r": 0.5},
        ("x", "u"): {"x": 0.5, "y": 0.5},
        ("r", "h"): {"r": 0.6, "w": 0.4},
        **common,
    }
    k2 = {
        ("s0", "g"): {"x": 0.5, "r": 0.5},
        ("x", "u"): {"x": 0.3, "y": 0.7},
        ("r", "h"): {"r": 0.4, "w": 0.6},
        **common,
    }
    k3 = {
        ("s0", "g"): {"x": 1.0},
        ("x", "u"): {"x": 0.7, "y": 0.3},
        ("r", "h"): {"r": 0.5, "w": 0.5},
        **common,
    }
    return Mmdp(
        models=(
            mk_mdp(states, actions, k1, "s0", "M1"),
            mk_mdp(states, actions, k2, "s0", "M2"),
            mk_mdp(states, actions, k3, "s0", "M3"),
        )
    )


def test_general_identical_models_undetectable():
    outcome = general_apd(identical_mmdp(n_models=3))
    assert outcome.exists is False
    assert outcome.policy is None


def test_general_recursive_instance_structure():
    mmdp = _recursive_instance()
    outcome = general_apd(mmdp)
    assert outcome.exists is True
    keys = set(outcome.policy.entries)
    assert keys == {((1, 2, 3), "s0"), ((1, 2), "r")}
    top = outcome.policy.entries[((1, 2, 3), "s0")]
    assert top.reach == {"s0": "g"}
    assert [frag.mec.states for frag in top.mecs] == [frozenset({"x", "y"})]
    sub = outcome.policy.entries[((1, 2), "r")]
    assert any(frag.mec.states == frozenset({"r", "w"}) for frag in sub.mecs)
    # diagnostics record the identity-revealing terminal edge
    edges = outcome.diagnostics["terminal_edges"]
    assert any(
        e["state"] == "s0" and e["successor"] == "r" and e["support"] == [1, 2] and e["flag"] == 1
        for e in edges
    )


def test_general_recursive_instance_detects_all_truths():
    mmdp = _recursive_instance()
    outcome = general_apd(mmdp)
    for truth in (1, 2, 3):
        for seed in range(10):
            trace = simulate(mmdp, truth, outcome.policy, seed=seed, max_steps=5000)
            assert trace.stop_reason == "threshold", (truth, seed)
            assert map_decide(trace.steps[-1].beliefs) == truth


def test_general_matches_binary_on_two_models():
    for seed in range(50):
        mmdp = random_binary_mmdp(rng_for(3000 + seed), n_states=5)
        a = bi_apd(mmdp)
        b = general_apd(mmdp)
        assert a.exists == b.exists
        if a.exists:
            assert a.policy.entries == b.policy.entries


def test_general_pairwise_necessity():
    found_true = 0
    for seed in range(30):
        mmdp = random_multi_mmdp(rng_for(4000 + seed), n_models=3)
        outcome = general_apd(mmdp)
        if not outcome.exists:
            continue
        found_true += 1
        for i in range(1, 4):
            for j in range(i + 1, 4):
                pair = Mmdp(models=(mmdp.model(i), mmdp.model(j)))
                assert bi_apd(pair).exists, (seed, i, j)
    assert found_true >= 3, "generator should yield detectable triples"


def test_general_memoization_on_off_identical():
    checked = 0
    for seed in range(20):
        n_models = 3 + (seed % 2)
        mmdp = random_multi_mmdp(rng_for(5000 + seed), n_models=n_models, n_states=6)
        on = general_apd(mmdp, memoize=True)
        off = general_apd(mmdp, memoize=False)
        assert on.exists == off.exists
        if on.exists:
            assert on.policy.entries == off.policy.entries
        assert off.diagnostics["cache"] == {"hits": 0, "misses": 0}
        checked += 1
    assert checked == 20


def test_general_cache_hits_on_repeated_subproblems():
    # the same (subset, state) subproblem reached via two different actions
    states = ("s0", "m", "n")
    actions = {"s0": ("g1", "g2"), "m": ("u",), "n": ("v",)}
    common = {
        ("m", "u"): {"m": 0.5, "n": 0.5},
        ("n", "v"): {"m": 1.0},
    }
    def build(drop_in_g):
        k1 = {("s0", "g1"): {"m": 1.0}, ("s0", "g2"): {"m": 1.0}, **common}
        k2 = {
            ("s0", "g1"): {"m": 0.5, "n": 0.5},
            ("s0", "g2"): {"m": 0.5, "n": 0.5},
            ("m", "u"): {"m": 0.3, "n": 0.7},
            ("n", "v"): {"m": 1.0},
        }
        k3 = {
            ("s0", "g1"): {"m": 0.5, "n": 0.5},
            ("s0", "g2"): {"m": 0.5, "n": 0.5},
            ("m", "u"): {"m": 0.7, "n": 0.3},
            ("n", "v"): {"m": 1.0},
        }
        return Mmdp(
            models=(
                mk_mdp(states, actions, k1, "s0", "M1"),
                mk_mdp(states, actions, k2, "s0", "M2"),
                mk_mdp(states, actions, k3, "s0", "M3"),
            )
        )

    mmdp = build(True)
    outcome = general_apd(mmdp)
    # (s0, g1, n) and (s0, g2, n) both spawn the ({2, 3}, n) subproblem
    assert outcome.diagnostics["cache"]["hits"] >= 1


def test_general_all_partial_successors_at_initial():
    # every transition out of the start is identity-revealing; the explored
    # region is the start alone and detection settles in one observed step
    states = ("s0", "x1", "x2", "x3")
    actions = {"s0": ("g",), "x1": ("z",), "x2": ("z",), "x3": ("z",)}
    loops = {("x1", "z"): {"x1": 1.0}, ("x2", "z"): {"x2": 1.0}, ("x3", "z"): {"x3": 1.0}}
    kernels = [
        {("s0", "g"): {"x1": 1.0}, **loops},
        {("s0", "g"): {"x2": 1.0}, **loops},
        {("s0", "g"): {"x3": 1.0}, **loops},
    ]
    mmdp = Mmdp(
        models=tuple(
            mk_mdp(states, actions, k, "s0", f"M{m+1}") for m, k in enumerate(kernels)
        )
    )
    outcome = general_apd(mmdp)
    assert outcome.exists is True
    assert outcome.diagnostics["explored"] == ["s0"]
    assert all(e["flag"] == 1 and len(e["support"]) == 1 for e in outcome.diagnostics["terminal_edges"])
    entry = outcome.policy.entries[((1, 2, 3), "s0")]
    assert entry.reach == {"s0": "g"}
    for truth in (1, 2, 3):
        trace = simulate(mmdp, truth, outcome.policy, seed=truth)
        assert trace.steps[-1].t == 1
        assert map_decide(trace.steps[-1].beliefs) == truth


def test_general_rejects_single_model():
    with pytest.raises(ModelError):
        general_apd(Mmdp(models=(identical_mmdp().models[0],)))


def test_general_unknown_initial_rejected():
    with pytest.raises(ModelError):
        general_apd(_recursive_instance(), initial="ghost")
