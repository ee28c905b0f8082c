"""Multi-model synthesis: pairwise sets, the shared-structure base case, BFS + recursion."""

import json
from collections import Counter
from functools import reduce
from operator import or_
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpdetect import binary, general
from mdpdetect.binary import bi_apd
from mdpdetect.cli import _json, main
from mdpdetect.errors import ModelError
from mdpdetect.general import general_apd, pairwise_isa
from mdpdetect.graphs import Mec, SupportGraph, mec_decompose
from mdpdetect.models import Mmdp, mmdp_to_json
from mdpdetect.policy import policy_to_json
from mdpdetect.scenarios import GridSpec, RecSysSpec, gen_grid, gen_recsys
from mdpdetect.simulate import map_decide, simulate

from conftest import (
    example1_mmdp,
    frozen_general_level,
    identical_mmdp,
    induced_system,
    mk_mdp,
    oracle_almost_sure_reach,
    oracle_mecs,
    oracle_product_exists,
    random_binary_mmdp,
    random_multi_mmdp,
    random_sparse_cut_mmdp,
    reference_almost_sure_reach_set,
    reference_classify_pairs,
    reference_mec_decompose,
    reference_pair_decision,
    reference_reach_policy,
    renamed,
    rng_for,
    system_of,
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
    assert entry.mecs[0].states == {"x", "y"}


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
    ts = induced_system(models[0])
    pairs = [(i, j) for i in range(mmdp.n) for j in range(i + 1, mmdp.n)]
    targets = set()
    for states, acts in oracle_mecs(ts):
        members = [(s, a) for s in states for a in acts[s]]
        if all(any(models[i].row(*p) != models[j].row(*p) for p in members) for i, j in pairs):
            targets |= states
    return mmdp.initial in oracle_almost_sure_reach(ts, targets)


@settings(max_examples=80)
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
    assert [mec.states for mec in top.mecs] == [frozenset({"x", "y"})]
    sub = outcome.policy.entries[((1, 2), "r")]
    assert any(mec.states == frozenset({"r", "w"}) for mec in sub.mecs)
    # diagnostics record the identity-revealing terminal edge
    edges = outcome.diagnostics["terminal_edges"]
    assert any(
        e["state"] == "s0" and e["successor"] == "r" and e["support"] == [1, 2] and e["flag"] == 1
        for e in edges
    )
    assert outcome.diagnostics["cache"] == {"hits": 0, "misses": 2}


def test_general_classifies_each_model_pair_once(monkeypatch):
    calls = []
    for module in (binary, general):
        def counting(m1, m2, *args, _classify=module.classify_pairs, **kwargs):
            calls.append((m1.name, m2.name))
            return _classify(m1, m2, *args, **kwargs)

        monkeypatch.setattr(module, "classify_pairs", counting)
    instances = [_recursive_instance()]
    instances += [random_multi_mmdp(rng_for(seed), n_models=4, n_states=6) for seed in range(20)]
    for mmdp in instances:
        calls.clear()
        general_apd(mmdp)
        # each pair of original kernels once; synthesis classifies no rewritten pair
        assert calls and Counter(calls).most_common(1)[0][1] == 1, Counter(calls)


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


@pytest.mark.parametrize("n_models", [3, 4])
def test_general_pair_entries_match_fresh_binary_synthesis(n_models):
    """A binary subproblem is solved once per model pair and reused for every
    initial state; each result must equal a fresh single-initial ``bi_apd``."""
    compared = settled = 0
    for seed in range(60):
        mmdp = random_multi_mmdp(rng_for(500 + seed), n_models=n_models, n_states=6)
        outcome = general_apd(mmdp)

        def fresh(pair, initial):
            return bi_apd(Mmdp((mmdp.model(pair[0]), mmdp.model(pair[1]))), initial=initial)

        for edge in outcome.diagnostics["terminal_edges"]:
            if len(edge["support"]) == 2:
                assert edge["flag"] == int(fresh(edge["support"], edge["successor"]).exists)
                settled += 1
        if not outcome.exists:
            continue
        pair_entries = [e for (active, _), e in outcome.policy.entries.items() if len(active) == 2]
        for entry in pair_entries:
            reference = fresh(entry.active, entry.entry_state)
            assert reference.exists
            (expected,) = reference.policy.entries.values()
            assert (entry.entry_state, entry.reach, entry.mecs) == (
                expected.entry_state,
                expected.reach,
                expected.mecs,
            )
            compared += 1
        # the entries of one pair share its decision's read-only reach table
        assert len({id(e.reach) for e in pair_entries}) == len({e.active for e in pair_entries})
    assert compared >= 10
    if n_models == 3:  # with 4 models, pairs settle only below the top level
        assert settled >= 10


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


def _two_alike_and_a_leak():
    """M1 and M3 loop at ``s0``; M2 moves from ``s0`` to the absorbing ``t`` with probability 0.5."""
    states, actions = ("s0", "t"), {"s0": ("a",), "t": ("a",)}
    loop, leak, stay = {"s0": 1.0}, {"s0": 0.5, "t": 0.5}, {"t": 1.0}
    return Mmdp(models=tuple(
        mk_mdp(states, actions, {("s0", "a"): row, ("t", "a"): stay}, "s0", f"M{m + 1}")
        for m, row in enumerate((loop, leak, loop))
    ))


def test_two_models_alike_everywhere_are_undetectable_as_a_pair():
    mmdp = _two_alike_and_a_leak()
    assert bi_apd(Mmdp(models=(mmdp.model(1), mmdp.model(3)))).exists is False


@pytest.mark.xfail(strict=True, reason=(
    "a level counts the exit only M2 can take as reachable under M1 and M3 too, "
    "so it answers that detection exists"
))
def test_no_detection_among_three_when_two_are_alike_everywhere():
    """No policy tells M1 from M3, so none detects among all three models."""
    assert general_apd(_two_alike_and_a_leak()).exists is False


def _seed_103_among_three():
    """Models 1, 2 and 4 of a random sparse-cut instance; 1 and 4 are alike from ``s0``."""
    m4 = random_sparse_cut_mmdp(np.random.default_rng(103), n_models=4, n_states=6)
    return Mmdp(models=(m4.model(1), m4.model(2), m4.model(4)))


def test_the_alike_pair_of_the_seed_103_instance_is_undetectable():
    mmdp = _seed_103_among_three()
    assert bi_apd(Mmdp(models=(mmdp.model(1), mmdp.model(3))), initial="s0").exists is False


@pytest.mark.xfail(strict=True, reason=(
    "a level counts exits that only some active models can take as reachable under "
    "the others too, so it answers that detection exists"
))
def test_no_detection_among_three_of_the_seed_103_instance():
    """No policy tells its models 1 and 4 apart from ``s0``, so none detects among the three."""
    assert general_apd(_seed_103_among_three(), initial="s0").exists is False


def test_decisions_keep_the_components_of_the_informative_rule():
    """Every decision of a pair or a level keeps exactly the components the detection
    condition calls informative: for a pair, those holding an informative row of the
    rewritten pair; for a level, the good terminal and those holding an informative row
    of every active pair, read from a classification of each pair of its own."""
    calls = Counter()
    levels: list = []
    decide, level = binary._decide, general._level

    def recorded_level(ctx, decisions, active):
        levels.append(active)
        try:
            return level(ctx, decisions, active)
        finally:
            levels.pop()

    def checked(graph, needs, terminals):
        decision = decide(graph, needs, terminals)
        if len(needs) == 1:
            (isa_rows,) = needs
            assert isa_rows >> len(graph.actions) - 2 == 3  # both terminal rows
            kept = [c for c in decision.components if c.rows & isa_rows != 0]
            calls["pair"] += 1
        else:
            active = levels[-1]
            pair_rows = [
                graph.row_bits(pairwise_isa(mmdp, i, j))
                for k, i in enumerate(active) for j in active[k + 1 :]
            ]
            good = frozenset({graph.names[-1]})
            kept = [
                c for c in decision.components
                if c.states == good or all(c.rows & rows_ij for rows_ij in pair_rows)
            ]
            calls["level"] += 1
            calls["level kept more than the good terminal"] += len(kept) > 1
        assert list(decision.informative) == kept
        calls["rejected"] += len(kept) < len(decision.components)
        return decision

    with (
        mock.patch.object(binary, "_decide", checked),
        mock.patch.object(general, "_decide", checked),
        mock.patch.object(general, "_level", recorded_level),
    ):
        for seed in range(320):
            n_models, n_states = 2 + seed % 4, 2 + seed % 5
            if seed // 4 % 2:
                mmdp = random_multi_mmdp(rng_for(7000 + seed), n_models=n_models, n_states=n_states)
            else:
                mmdp = random_sparse_cut_mmdp(rng_for(7000 + seed), n_models=n_models, n_states=n_states)
            for s in mmdp.states:
                if n_models == 2:
                    bi_apd(mmdp, initial=s)
                else:
                    general_apd(mmdp, initial=s, memoize=seed % 3 != 0)
    # the runs decided pairs and levels, and some decisions dropped components
    assert min(calls.values()) > 0, calls


def _outputs_from_every_state(mmdp):
    """The policy JSON (None without a policy) and the diagnostics JSON from each initial state."""
    out = []
    for s in mmdp.states:
        outcome = general_apd(mmdp, initial=s)
        policy = policy_to_json(outcome.policy) if outcome.exists else None
        out.append((policy, _json(outcome.diagnostics)))
    return out


@settings(max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), n_models=st.integers(2, 4), n_states=st.integers(2, 6))
def test_general_apd_matches_the_reference_pair_decision(seed, n_models, n_states):
    """Policy JSON and diagnostics, from every initial state, are those of a run whose
    pair decisions come from the frozen ``preprocess`` composition."""
    mmdp = random_multi_mmdp(rng_for(seed), n_models=n_models, n_states=n_states, reveal_share=0.6)
    got = _outputs_from_every_state(mmdp)
    pair_decision, seeded = binary._pair_decision, []

    def from_reference(mmdp_, frame, active, decisions, classification):
        if active not in decisions:
            i, j = active
            decisions[active] = reference_pair_decision(mmdp_.model(i), mmdp_.model(j))
            seeded.append(active)
        return pair_decision(mmdp_, frame, active, decisions, classification)

    with (
        mock.patch.object(binary, "_pair_decision", from_reference),
        mock.patch.object(general, "_pair_decision", from_reference),
    ):
        assert _outputs_from_every_state(mmdp) == got
    # a run over three or more models reaches a pair only after an elimination
    assert seeded or n_models > 2


def test_synthesis_never_builds_the_rewritten_pair(monkeypatch, tmp_path):
    """Synthesis reads each pair from the support rows, and so does the CLI's
    ``mec --informative``; only the tests build the rewritten pair."""

    def refuse(*args, **kwargs):
        raise AssertionError("synthesis built the rewritten model pair")

    monkeypatch.setattr(binary, "preprocess", refuse)
    # the patch is live
    with pytest.raises(AssertionError, match="rewritten model pair"):
        binary.preprocess(*example1_mmdp().models)
    assert general_apd(_recursive_instance()).exists
    assert general_apd(gen_recsys(RecSysSpec(item_count=5, type_count=4, seed=0))).exists
    assert bi_apd(example1_mmdp(initial="2")).exists
    assert bi_apd(gen_grid(GridSpec(width=5, height=5, goal_region=frozenset({(4, 4)})))).exists
    model = tmp_path / "example1.json"
    model.write_text(mmdp_to_json(example1_mmdp()))
    assert main(["mec", str(model), "--informative", "--out", str(tmp_path / "patched.json")]) == 0
    monkeypatch.undo()
    assert main(["mec", str(model), "--informative", "--out", str(tmp_path / "imec.json")]) == 0
    assert (tmp_path / "patched.json").read_bytes() == (tmp_path / "imec.json").read_bytes()


def _frozen_mec_decompose(graph):
    mecs = reference_mec_decompose(system_of(graph))
    for c in mecs:
        c.rows = graph.row_bits((s, a) for s in c.states for a in c.actions[s])
    return mecs


def _frozen_reach_set(graph, targets):
    return reference_almost_sure_reach_set(system_of(graph), targets)


def _frozen_reach_policy(graph, targets, rmax):
    return reference_reach_policy(system_of(graph), targets, rmax)


@settings(max_examples=80)
@given(seed=st.integers(0, 2**32 - 1), n_models=st.integers(2, 4), n_states=st.integers(2, 6),
       kind=st.sampled_from(["multi", "sparse", "binary"]))
def test_general_apd_matches_a_run_on_the_frozen_kernels(seed, n_models, n_states, kind):
    """Policy JSON and diagnostics, from every initial state, are those of a run whose
    fixpoints and pair classifications come from the frozen string kernels."""
    rng = rng_for(seed)
    if kind == "multi":
        mmdp = random_multi_mmdp(rng, n_models=n_models, n_states=n_states, reveal_share=0.5)
    elif kind == "sparse":
        mmdp = random_sparse_cut_mmdp(rng, n_models=n_models, n_states=n_states)
    else:
        mmdp = random_binary_mmdp(rng, n_states=n_states)
    got = _outputs_from_every_state(mmdp)
    with (
        mock.patch.object(binary, "mec_decompose", _frozen_mec_decompose),
        mock.patch.object(binary, "almost_sure_reach_set", _frozen_reach_set),
        mock.patch.object(binary, "reach_policy", _frozen_reach_policy),
        mock.patch.object(binary, "classify_pairs", reference_classify_pairs),
        mock.patch.object(general, "classify_pairs", reference_classify_pairs),
    ):
        assert _outputs_from_every_state(mmdp) == got


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), n_models=st.integers(2, 5), n_states=st.integers(2, 7),
       kind=st.sampled_from(["sparse", "sparse", "multi"]))
def test_general_apd_existence_matches_the_product_oracle(seed, n_models, n_states, kind):
    """Detection exists from a state exactly when the belief-support product reaches
    its targets with probability one from that state and all models."""
    rng = rng_for(seed)
    if kind == "sparse":
        mmdp = random_sparse_cut_mmdp(rng, n_models=n_models, n_states=n_states)
    else:
        mmdp = random_multi_mmdp(rng, n_models=n_models, n_states=n_states, reveal_share=0.5)
    for s in mmdp.states:
        assert general_apd(mmdp, initial=s).exists == oracle_product_exists(mmdp, s), s


def test_product_oracle_sees_both_outcomes():
    """The oracle's instances hold detectable and undetectable states alike."""
    seen = Counter()
    for seed in range(40):
        mmdp = random_sparse_cut_mmdp(rng_for(seed), n_models=2 + seed % 4, n_states=3 + seed % 5)
        seen.update(oracle_product_exists(mmdp, s) for s in mmdp.states)
    assert seen[True] >= 20 and seen[False] >= 20
    e1 = example1_mmdp()
    assert [oracle_product_exists(e1, s) for s in e1.states] == [
        general_apd(e1, initial=s).exists for s in e1.states
    ]


def _reported_components(diagnostics):
    return sum(
        len(diagnostics.get(key, ()))
        for key in ("mecs", "informative_mecs", "witness_noninformative_mecs")
    )


@pytest.mark.parametrize("n_models", [2, 3, 4])
def test_components_are_listed_only_for_the_root(monkeypatch, n_models):
    """Only the root's diagnostics reach the output: a run spells out exactly the
    components the root reports, however many levels and pairs it decides."""
    as_dict, calls = Mec.as_dict, []

    def counted(self):
        calls.append(self)
        return as_dict(self)

    monkeypatch.setattr(Mec, "as_dict", counted)
    decisions = levels = witnesses = 0
    for seed in range(12):
        mmdp = random_sparse_cut_mmdp(rng_for(900 + seed), n_models=n_models, n_states=6)
        mmdp = renamed(mmdp, lambda s: f"q{s}", str.upper)
        for s in mmdp.states:
            del calls[:]
            decide = mock.Mock(wraps=binary._decide)
            with mock.patch.object(binary, "_decide", decide), mock.patch.object(general, "_decide", decide):
                outcome = general_apd(mmdp, initial=s)
            decisions += decide.call_count
            levels += 1
            witnesses += len(outcome.diagnostics.get("witness_noninformative_mecs", ()))
            assert len(calls) == _reported_components(outcome.diagnostics)
            assert all(isinstance(c, dict) for c in outcome.diagnostics["mecs"])
    # with three or more models, the runs decided levels and pairs below their roots;
    # with two, some roots name the components an undetectable state reaches
    assert decisions > levels if n_models > 2 else decisions == levels and witnesses > 0


def _run_on_level(mmdp, initial, level):
    """Each level key's existence and entry, the policy JSON and the diagnostics JSON of a
    run from ``initial`` whose synthesis levels are ``level``."""
    keys = {}

    def recorded(ctx, active, initial_):
        result = level(ctx, active, initial_)
        keys[(active, initial_)] = (result[0], result[1].get((active, initial_)))
        return result

    with mock.patch.object(general, "_general_level", recorded):
        outcome = general_apd(mmdp, initial=initial)
    policy = policy_to_json(outcome.policy) if outcome.exists else None
    return keys, policy, _json(outcome.diagnostics)


@settings(max_examples=600)
@given(seed=st.integers(0, 2**32 - 1), n_models=st.integers(2, 5), n_states=st.integers(2, 7),
       kind=st.sampled_from(["sparse", "renamed", "multi"]))
def test_general_levels_match_the_frozen_level(seed, n_models, n_states, kind):
    """Every key's existence and entry, the policy file and the root's diagnostics, from
    every initial state, are those of the frozen level that searched and decided each key
    on its own. The sparse instances keep explicit 0.0 entries; the renamed ones reverse
    the state order."""
    rng = rng_for(seed)
    if kind == "multi":
        mmdp = random_multi_mmdp(rng, n_models=n_models, n_states=n_states, reveal_share=0.5)
    else:
        mmdp = random_sparse_cut_mmdp(rng, n_models=n_models, n_states=n_states)
        if kind == "renamed":
            mmdp = renamed(mmdp, lambda s: chr(ord("z") - int(s[1:])), str.upper)
    for s in mmdp.states:
        got = _run_on_level(mmdp, s, general._general_level)
        assert got == _run_on_level(mmdp, s, frozen_general_level), s


def test_general_memo_off_shares_no_decision_across_subproblems():
    """Without the memo, each subproblem decides its active set afresh, so the memo-off
    run stays an independent check of everything the memo shares. With the memo, each
    active set is decided once."""
    repeated = 0
    for seed in range(10):
        mmdp = random_multi_mmdp(rng_for(5000 + seed), n_models=4 + seed % 2, n_states=6)
        for memoize in (True, False):
            with (
                mock.patch.object(general, "_solve", wraps=general._solve) as solve,
                mock.patch.object(general, "_level", wraps=general._level) as level,
                mock.patch.object(binary, "_pair_graph", wraps=binary._pair_graph) as pair_graph,
            ):
                general_apd(mmdp, memoize=memoize)
            keys = Counter(c.args[1] for c in solve.call_args_list)
            decided = Counter(c.args[2] for c in level.call_args_list + pair_graph.call_args_list)
            if memoize:
                assert set(decided.values()) == {1}
            else:
                assert all(decided[active] >= n for active, n in keys.items())
                repeated += any(n > 1 for n in keys.values())
    assert repeated >= 5


def test_general_runs_no_witness_walk():
    """Only ``bi_apd`` reports the non-informative components an undetectable state
    reaches, so no pair subproblem below a ``general_apd`` root walks to them."""
    walk = mock.Mock(wraps=binary.reachable_states)
    synthesis, undetectable = general._binary_synthesis, []

    def recorded(*args, **kwargs):
        result = synthesis(*args, **kwargs)
        if result is None:
            undetectable.append(args[2:4])
        return result

    with (
        mock.patch.object(binary, "reachable_states", walk),
        mock.patch.object(general, "_binary_synthesis", recorded),
    ):
        for seed in range(30):
            mmdp = random_sparse_cut_mmdp(rng_for(1700 + seed), n_models=3 + seed % 3, n_states=6)
            for s in mmdp.states:
                general_apd(mmdp, initial=s)
        assert walk.call_count == 0
        assert len(undetectable) >= 10
        assert "witness_noninformative_mecs" in bi_apd(example1_mmdp(initial="1")).diagnostics
        assert walk.call_count == 1


# State names that the detection terminals of a pair (bot1, bot2) and of a
# general level (botg0, botg1) would take, and names in the same sort order
# that collide with none of them.
_COLLIDING = ("bot1", "bot1_", "bot2", "botg0", "botg1")
_CLEAR = ("c1", "c1_", "c2", "cg0", "cg1")


def _named(mmdp, names):
    """``mmdp`` with state ``s<i>`` renamed ``names[i]`` for each i below ``len(names)``."""
    return renamed(mmdp, lambda s: names[int(s[1:])] if int(s[1:]) < len(names) else s, str)


def _colliding_policy(text):
    """A policy file of the ``_CLEAR`` states with the ``_COLLIDING`` names instead."""
    rename = dict(zip(_CLEAR, _COLLIDING))

    def state(s):
        return rename.get(s, s)

    doc = json.loads(text)
    for entry in doc["entries"]:
        entry["entry_state"] = state(entry["entry_state"])
        entry["reach"] = {state(s): a for s, a in entry["reach"].items()}
        for mec in entry["mecs"]:
            mec["states"] = {state(s): acts for s, acts in mec["states"].items()}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_terminals_take_names_no_state_has():
    """States that bear the names the terminals would take give the same
    answer and the same policy file, up to renaming, as states named in the
    same order that collide with nothing; no terminal of the diagnostics takes
    a state's name."""
    cases = collided = 0
    for seed in range(160):
        rng = rng_for(4200 + seed)
        n_models, n_states = 2 + seed % 3, 3 + seed % 5
        kind = seed % 3
        if kind == 0:
            mmdp = random_binary_mmdp(rng, n_states=n_states)
        elif kind == 1:
            mmdp = random_multi_mmdp(rng, n_models=n_models, n_states=n_states)
        else:
            mmdp = random_sparse_cut_mmdp(rng, n_models=n_models, n_states=n_states)
        colliding, clear = _named(mmdp, _COLLIDING), _named(mmdp, _CLEAR)
        for k, s in enumerate(mmdp.states):
            got = general_apd(colliding, initial=colliding.states[k])
            want = general_apd(clear, initial=clear.states[k])
            assert got.exists == want.exists, (seed, s)
            if got.exists:
                assert policy_to_json(got.policy) == _colliding_policy(policy_to_json(want.policy)), (seed, s)
            terminals = {
                t for mec in got.diagnostics["mecs"] for t, acts in mec.items() if acts == [f"a_{t}"]
            }
            assert len(terminals) == 2 and terminals.isdisjoint(colliding.states), (seed, s, terminals)
            collided += any(t.endswith("_") for t in terminals)
            cases += 1
    assert cases == 800 and collided >= 700, (cases, collided)


def _decomposed_graphs(mmdp, initials):
    """Every graph that synthesis from each of ``initials`` decomposes: its levels and pairs."""
    graphs, decompose = [], binary.mec_decompose

    def record(graph):
        graphs.append(graph)
        return decompose(graph)

    with mock.patch.object(binary, "mec_decompose", record):
        for s in initials:
            general_apd(mmdp, initial=s)
    return graphs


def _assert_seeded_decompositions_match_the_reference(graphs):
    """Each graph's seed keeps its promise, and the graph decomposes, with its seed and
    without, into the frozen string kernel's components. Returns how many states were seeded."""
    seeded = 0
    for graph in graphs:
        assert graph.seed is not None  # a run over three or more models seeds every graph
        for i, out in graph.seed.items():
            rows = range(graph.first[i], graph.first[i + 1])
            assert out == reduce(or_, [graph.succ[r] for r in rows], 0)
            assert out & ~graph.domain == 0
        seeded += len(graph.seed)
        bare = SupportGraph(graph.names, graph.index, graph.actions, graph.first, graph.succ, graph.domain)
        assert bare.seed is None
        expected = [(c.states, c.actions) for c in reference_mec_decompose(system_of(graph))]
        for got in (mec_decompose(graph), mec_decompose(bare)):
            assert [(c.states, c.actions) for c in got] == expected
            for c in got:
                assert c.rows == graph.row_bits((s, a) for s in c.states for a in c.actions[s])
    return seeded


@settings(max_examples=300, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), n_models=st.integers(3, 5), n_states=st.integers(2, 6),
       kind=st.sampled_from(["multi", "sparse"]))
def test_seeded_mec_decomposition_matches_the_reference_on_every_level_and_pair(
    seed, n_models, n_states, kind
):
    rng = rng_for(seed)
    if kind == "multi":
        mmdp = random_multi_mmdp(rng, n_models=n_models, n_states=n_states)
    else:
        mmdp = random_sparse_cut_mmdp(rng, n_models=n_models, n_states=n_states)
    _assert_seeded_decompositions_match_the_reference(_decomposed_graphs(mmdp, mmdp.states))


@pytest.mark.parametrize("items, types", [(5, 4), (6, 5)])
def test_seeded_mec_decomposition_matches_the_reference_on_recsys(items, types):
    mmdp = gen_recsys(RecSysSpec(item_count=items, type_count=types, seed=0))
    graphs = _decomposed_graphs(mmdp, [mmdp.initial])
    seeded = _assert_seeded_decompositions_match_the_reference(graphs)
    # nearly every state's rows are shared by every graph
    assert seeded > 0.8 * sum(len(g.names) - 2 for g in graphs), (seeded, len(graphs))
