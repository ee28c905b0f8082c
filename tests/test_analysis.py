"""Quantitative metrics: coefficient routes, error bounds, decay fits."""

import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mdpdetect.analysis
from mdpdetect.analysis import (
    BcCurve,
    BcMatrix,
    bc_exact,
    bc_matrix,
    bounds_csv,
    curve_csv,
    decay_fit,
    error_bounds_binary,
    error_bounds_multi,
    _compiled,
    _expand_aug,
    pairwise_bc_curve,
)
from mdpdetect.binary import bi_apd
from mdpdetect.cli import main
from mdpdetect.errors import ContractError, HorizonCapError, ModelError
from mdpdetect.general import general_apd
from mdpdetect.graphs import Mec
from mdpdetect.models import Mmdp, mmdp_to_json
from mdpdetect.policy import (
    DetectionPolicy,
    PolicyEntry,
    entry_as_stationary,
    policy_to_json,
    stationary_uniform_policy,
)
from mdpdetect.scenarios import RecSysSpec, gen_recsys
from mdpdetect.simulate import batch_summary, monte_carlo_error, simulate

from conftest import (
    FrozenRows,
    binomial_limit,
    example1_mmdp,
    frozen_pair_curves,
    identical_mmdp,
    mk_mdp,
    oracle_map_error,
    random_binary_mmdp,
    random_detectable_binary,
    random_multi_mmdp,
    random_sparse_cut_mmdp,
    random_stationary_policy,
    ReferenceCompiledController,
    reference_compile_start,
    reference_pairwise_bc_curve,
    rng_for,
    sanitized,
    sqrt_half_mmdp,
)
from test_general import _recursive_instance


def _uniform_table(mmdp):
    return {
        s: {a: 1.0 / len(mmdp.actions[s]) for a in mmdp.actions[s]} for s in mmdp.states
    }


def test_bc_exact_identical_models_is_one():
    mmdp = identical_mmdp()
    table = _uniform_table(mmdp)
    for t in (0, 1, 4, 7):
        assert bc_exact(*mmdp.models, table, t) == pytest.approx(1.0, abs=1e-12)


def test_bc_exact_sqrt_half_closed_form():
    mmdp = sqrt_half_mmdp()
    table = _uniform_table(mmdp)
    assert bc_exact(*mmdp.models, table, 1) == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert bc_exact(*mmdp.models, table, 5) == pytest.approx(math.sqrt(0.5) ** 5, abs=1e-12)


def test_bc_exact_cap_enforced():
    mmdp = sqrt_half_mmdp()
    with pytest.raises(HorizonCapError, match="10"):
        bc_exact(*mmdp.models, _uniform_table(mmdp), 11)


def test_bc_exact_matches_matrix_on_example1(example1):
    table = _uniform_table(example1)
    w = bc_matrix(*example1.models, table)
    assert bc_exact(*example1.models, table, 3) == pytest.approx(w.bc_value(3), abs=1e-10)


def test_bc_matrix_identical_models_is_stochastic():
    mmdp = identical_mmdp()
    table = _uniform_table(mmdp)
    w = bc_matrix(*mmdp.models, table)
    assert np.allclose(w.matrix.sum(axis=1), 1.0)
    curve = w.bc_curve(6)
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in curve.values)


def test_bc_matrix_rejects_a_negative_horizon(example1):
    """The curve refuses a negative horizon, as ``bc_value``, ``bc_exact`` and ``pairwise_bc_curve`` do."""
    table = _uniform_table(example1)
    w = bc_matrix(*example1.models, table)
    exact = partial(bc_exact, *example1.models, table)
    curves = partial(pairwise_bc_curve, example1, stationary_uniform_policy(example1))
    for call in (w.bc_curve, w.bc_value, exact, curves):
        with pytest.raises(ModelError, match="horizon must be nonnegative"):
            call(-3)
    assert w.bc_curve(0).values == (1.0,)


@pytest.mark.parametrize("values, problems", [
    ((), ["curve must start at 1"]),
    ((0.5, 0.25), ["curve must start at 1"]),
    ((1.0, 0.5, 0.75), ["curve increases at t=1"]),
    ((1.0, -0.5), ["curve leaves [0, 1]"]),
    ((1.0, 1.5), ["curve increases at t=0", "curve leaves [0, 1]"]),
])
def test_bc_curve_check_names_each_problem(values, problems):
    assert BcCurve(values=values).check() == problems


def test_bc_matrix_sqrt_half_structure():
    mmdp = sqrt_half_mmdp()
    w = bc_matrix(*mmdp.models, _uniform_table(mmdp))
    s = w.states.index("s")
    u = w.states.index("u")
    assert w.matrix[s, s] == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert w.matrix[s, u] == 0.0
    assert w.matrix[u, s] == 0.0
    curve = w.bc_curve(8)
    for t, v in enumerate(curve.values):
        assert v == pytest.approx(math.sqrt(0.5) ** t, abs=1e-12)


def test_bc_matrix_matches_enumeration_on_random_instances():
    for seed in range(25):
        rng = rng_for(6000 + seed)
        mmdp = random_binary_mmdp(rng, n_states=5, max_actions=2)
        table = random_stationary_policy(rng, mmdp)
        t = int(rng.integers(4, 9))
        w = bc_matrix(*mmdp.models, table)
        assert bc_exact(*mmdp.models, table, t) == pytest.approx(
            w.bc_value(t), abs=1e-10
        ), seed


def test_bc_routes_skip_actions_of_probability_zero(example1):
    """A policy action listed with probability 0.0 leaves both routes unchanged."""
    table = {s: {example1.actions[s][0]: 1.0} for s in example1.states}
    padded = {s: {**dict.fromkeys(example1.actions[s], 0.0), **row} for s, row in table.items()}
    assert padded != table  # some state offers a second action
    w, padded_w = (bc_matrix(*example1.models, policy) for policy in (table, padded))
    assert np.array_equal(padded_w.matrix, w.matrix)
    for t in range(5):
        assert bc_exact(*example1.models, padded, t) == bc_exact(*example1.models, table, t)


def test_power_radius_of_a_zero_matrix_is_zero():
    assert BcMatrix(matrix=np.zeros((2, 2)), states=("x", "y"), initial="x").power_radius() == 0.0


def test_bc_matrix_invariants():
    for seed in range(20):
        rng = rng_for(6500 + seed)
        mmdp = random_binary_mmdp(rng, n_states=6, max_actions=3)
        table = random_stationary_policy(rng, mmdp)
        w = bc_matrix(*mmdp.models, table)
        assert np.all(w.matrix >= 0.0)
        assert np.all(w.matrix <= 1.0 + 1e-12)
        assert np.all(w.matrix.sum(axis=1) <= 1.0 + 1e-12)
        assert w.power_radius() <= 1.0 + 1e-9


def test_bc_curve_monotone_under_random_policies():
    for seed in range(30):
        rng = rng_for(7000 + seed)
        mmdp = random_binary_mmdp(rng, n_states=6, max_actions=3)
        table = random_stationary_policy(rng, mmdp)
        curve = bc_matrix(*mmdp.models, table).bc_curve(10)
        assert curve.check() == []


def test_bc_matrix_rejects_detection_policy(example1):
    outcome = bi_apd(example1, initial="2")
    with pytest.raises(ModelError):
        bc_matrix(*example1.models, outcome.policy)
    with pytest.raises(ModelError):
        bc_exact(*example1.models, outcome.policy, 3)


def test_error_bounds_binary_reference_values():
    b = math.sqrt(0.5)
    bounds = error_bounds_binary(b, 0.5, 0.5)
    assert bounds.lower == pytest.approx(0.125, abs=1e-9)
    assert bounds.upper == pytest.approx(0.35355339, abs=1e-8)
    zero = error_bounds_binary(0.0, 0.3, 0.6)
    assert (zero.lower, zero.upper) == (0.0, 0.0)
    unit = error_bounds_binary(1.0, 0.5, 0.5)
    assert unit.lower == pytest.approx(0.25)
    assert unit.upper == pytest.approx(0.5)


def test_error_bounds_binary_rejects_bad_priors():
    with pytest.raises(ModelError):
        error_bounds_binary(0.5, 0.0, 0.5)
    with pytest.raises(ModelError):
        error_bounds_binary(0.5, 0.5, 1.0)
    with pytest.raises(ModelError):
        error_bounds_binary(1.5, 0.5, 0.5)


def test_error_bounds_multi_reference_values():
    b = [[0.0, 0.5, 0.5], [0.5, 0.0, 0.5], [0.5, 0.5, 0.0]]
    q = [1 / 3] * 3
    bounds = error_bounds_multi(b, q, q)
    assert bounds.lower == pytest.approx(1 / 12, abs=1e-9)
    assert bounds.upper == pytest.approx(0.5, abs=1e-9)
    zero = error_bounds_multi([[0.0, 0.0], [0.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
    assert (zero.lower, zero.upper) == (0.0, 0.0)


def test_error_bounds_multi_upper_can_exceed_one_and_clamps():
    b = [[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]]
    q = [1 / 3] * 3
    bounds = error_bounds_multi(b, q, q)
    assert bounds.upper == pytest.approx(1.0 + 1e-16, abs=1e-9) or bounds.upper > 0.99
    b4 = [[0.0] + [1.0] * 3] + [[1.0] * 4 for _ in range(3)]
    for row_i, row in enumerate(b4):
        row[row_i] = 0.0
    q4 = [0.25] * 4
    bounds4 = error_bounds_multi(b4, q4, q4)
    assert bounds4.upper > 1.0
    assert bounds4.upper_clamped == 1.0


def test_error_bounds_multi_reduces_to_binary():
    rng = rng_for(8000)
    for _ in range(1000):
        b = float(rng.uniform(0.0, 1.0))
        multi = error_bounds_multi([[0.0, b], [b, 0.0]], [0.5, 0.5], [0.5, 0.5])
        binary = error_bounds_binary(b, 0.5, 0.5)
        assert abs(multi.lower - binary.lower) <= 1e-14
        assert abs(multi.upper - binary.upper) <= 1e-14


def test_error_bounds_multi_validates_input():
    with pytest.raises(ModelError):
        error_bounds_multi([[0.0, 0.5]], [0.5, 0.5], [0.5, 0.5])
    with pytest.raises(ModelError):
        error_bounds_multi([[0.0, 0.5], [0.5, 0.0]], [0.5, 0.5], [0.7, 0.4])


_SQUARE = [[0.0, 0.5], [0.5, 0.0]]


@pytest.mark.parametrize("bc, q, theta, message", [
    (_SQUARE, (0.5, 0.25, 0.25), (0.5, 0.5), r"^estimated priors: expected 2 entries, got 3$"),
    (_SQUARE, (0.5, 0.5), (0.5, 0.25, 0.25), r"^true priors: expected 2 entries, got 3$"),
    ([[0.0, 0.5, 0.5], [0.5, 0.0, 0.5]], (0.5, 0.5), (0.5, 0.5),
     r"^coefficient matrix: expected a square matrix, got shape \(2, 3\)$"),
    ([[0.0, 0.5], [0.5]], (0.5, 0.5), (0.5, 0.5), r"^coefficient matrix: expected a square matrix of numbers$"),
    (_SQUARE, None, (0.5, 0.5), r"^estimated priors: expected 2 entries, got None$"),
    (_SQUARE, (0.5, 0.5), None, r"^true priors: expected 2 entries, got None$"),
])
def test_error_bounds_multi_names_the_argument_at_fault(bc, q, theta, message):
    """The matrix fixes the number of hypotheses; a prior of another length, or
    none at all, is reported under its own name, not as a matrix fault."""
    with pytest.raises(ModelError, match=message):
        error_bounds_multi(bc, q, theta)


def test_pairwise_curve_identical_models_constant_one():
    mmdp = identical_mmdp()
    policy = stationary_uniform_policy(mmdp)
    curves = pairwise_bc_curve(mmdp, policy, horizon=8)
    assert list(curves) == [(1, 2)]
    assert all(v == pytest.approx(1.0, abs=1e-12) for v in curves[(1, 2)].values)


def test_pairwise_curve_example1_halves():
    mmdp = example1_mmdp(initial="2")
    outcome = bi_apd(mmdp)
    curves = pairwise_bc_curve(mmdp, outcome.policy, horizon=10)
    values = curves[(1, 2)].values
    assert values[0] == 1.0
    for t, v in enumerate(values):
        assert v == pytest.approx(0.5**t, abs=1e-12)
    assert values[1] < 1.0  # strict decrease forced by the informative pair at t=0
    assert curves[(1, 2)].check() == []


def _oracle_pair_bc(mmdp, policy, pair, horizon):
    """History enumeration over the augmented chain, independent of the DP."""
    i, j = pair
    mi, mj = mmdp.model(i), mmdp.model(j)
    full = tuple(range(1, mmdp.n + 1))
    totals = [0.0] * (horizon + 1)

    def resolve(key, state):
        entry = policy.entries[key]
        return entry.committed_mec(state)

    def rec(key, mec_idx, state, weight, t):
        totals[t] += weight
        if t == horizon:
            return
        entry = policy.entries[key]
        if mec_idx is not None:
            dist = sorted(entry.mecs[mec_idx].distribution(state).items())
        else:
            dist = [(entry.reach[state], 1.0)]
        for a, pa in dist:
            ri, rj = mi.row(state, a), mj.row(state, a)
            for s2 in sorted(set(ri) | set(rj)):
                w = pa * math.sqrt(ri.get(s2, 0.0) * rj.get(s2, 0.0))
                if w == 0.0:
                    continue
                alive = tuple(
                    k for k in key[0] if mmdp.model(k).prob(state, a, s2) > 0.0
                )
                if alive == key[0]:
                    nxt_key, nxt_mec = key, mec_idx
                    if nxt_mec is None:
                        nxt_mec = resolve(nxt_key, s2)
                else:
                    nxt_key = (alive, s2)
                    nxt_mec = resolve(nxt_key, s2)
                rec(nxt_key, nxt_mec, s2, weight * w, t + 1)

    start_key = (full, mmdp.initial)
    rec(start_key, resolve(start_key, mmdp.initial), mmdp.initial, 1.0, 0)
    return totals


def test_pairwise_curve_matches_history_enumeration():
    cases = []
    mmdp = example1_mmdp(initial="2")
    cases.append((mmdp, bi_apd(mmdp).policy, [(1, 2)]))
    tri = _recursive_instance()
    cases.append((tri, general_apd(tri).policy, [(1, 2), (1, 3), (2, 3)]))
    for mmdp, policy, pairs in cases:
        curves = pairwise_bc_curve(mmdp, policy, horizon=6, pairs=pairs)
        for pair in pairs:
            expected = _oracle_pair_bc(mmdp, policy, pair, 6)
            for t, v in enumerate(curves[pair].values):
                assert v == pytest.approx(expected[t], abs=1e-10), (pair, t)


def test_pairwise_curves_nonincreasing_on_recursive_instance():
    tri = _recursive_instance()
    policy = general_apd(tri).policy
    for curve in pairwise_bc_curve(tri, policy, horizon=25).values():
        assert curve.check() == []


def test_pairwise_curve_rejects_bad_pairs_before_any_work():
    mmdp = example1_mmdp(initial="2")
    policy = bi_apd(mmdp).policy
    for pairs in ([(1, 9)], [(0, 1)], [(2, 2)], [(1, 2), (2, 3)]):
        for horizon in (0, 3):
            with pytest.raises(ModelError):
                pairwise_bc_curve(mmdp, policy, horizon, pairs=pairs)
    # the pairs are checked before the policy is consulted
    with pytest.raises(ModelError, match=r"model index 9 outside 1\.\.2"):
        pairwise_bc_curve(mmdp, DetectionPolicy(entries={}), 0, pairs=[(1, 9)])


def test_pairwise_curve_reports_the_first_state_it_cannot_expand():
    # from s0 the policy reaches x and y at once and covers neither of them
    states = ("s0", "x", "y")
    actions = {s: ("a",) for s in states}
    kernels = [
        {("s0", "a"): {"x": p, "y": 1.0 - p}, ("x", "a"): {"x": 1.0}, ("y", "a"): {"y": 1.0}}
        for p in (0.3, 0.6)
    ]
    mmdp = Mmdp(models=tuple(mk_mdp(states, actions, k, "s0", f"M{i}") for i, k in enumerate(kernels)))
    policy = DetectionPolicy(entries={((1, 2), "s0"): PolicyEntry((1, 2), "s0", reach={"s0": "a"})})
    assert pairwise_bc_curve(mmdp, policy, 1)[(1, 2)].values == (1.0, math.sqrt(0.18) + math.sqrt(0.28))
    with pytest.raises(ContractError, match="at 'x'"):
        reference_pairwise_bc_curve(mmdp, policy, 2)
    with pytest.raises(ContractError, match="at 'x'"):
        pairwise_bc_curve(mmdp, policy, 2)


def _random_instance(rng, kind, n_states):
    if kind == "binary":
        return random_binary_mmdp(rng, n_states=n_states)
    make = random_sparse_cut_mmdp if kind.startswith("sparse") else random_multi_mmdp
    return make(rng, n_models=int(kind[-1]), n_states=n_states)


_KINDS = st.sampled_from(["binary", "multi3", "multi4"])
_POLICY_KINDS = st.sampled_from(["synthesized", "uniform", "synthesized elsewhere", "truncated"])


def _curve_case(seed, kind, policy_kind):
    """A random instance, a policy to run on it, and the generator that drew them.

    A policy synthesized on a different instance over the same state names,
    or one with part of its reach tables removed, drives the DP into states
    its entries do not cover, so the error paths and their order are
    exercised too.
    """
    rng = rng_for(seed)
    n_states = int(rng.integers(4, 7))
    mmdp = _random_instance(rng, kind, n_states)
    if policy_kind == "uniform":
        policy = stationary_uniform_policy(mmdp)
    else:
        source = mmdp if policy_kind != "synthesized elsewhere" else _random_instance(rng, kind, n_states)
        policy = general_apd(source).policy or DetectionPolicy(entries={})
    if policy_kind == "truncated":
        policy = DetectionPolicy(entries={
            key: dataclasses.replace(e, reach={s: a for s, a in e.reach.items() if rng.random() < 0.7})
            for key, e in policy.entries.items()
        })
    return rng, mmdp, policy


def _assert_compile_matches_frozen(mmdp, policy):
    """The same controller table, or the same error, as the frozen compile.

    Returns the frozen table's errors, or the error it raised.
    """
    try:
        expected = ReferenceCompiledController(mmdp, policy, reference_compile_start(policy, mmdp))
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            _compiled(mmdp, policy)
        assert str(raised.value) == str(exc)
        return exc
    table = _compiled(mmdp, policy)
    assert (table.augs, table.actions) == (expected.augs, expected.actions)
    assert [repr(e) for e in table.errors] == [repr(e) for e in expected.errors]
    for name in ("count", "first", "halt", "lo", "size", "last", "tlo", "target"):
        got, want = getattr(table, name), getattr(expected, name)
        assert (got.dtype, got.shape, got.tolist()) == (want.dtype, want.shape, want.tolist()), name
        assert not got.flags.writeable, name
    # the padded search tables: each state's action sums and each slot's row
    # sums, bit for bit as the frozen flat sums and the frozen row table's, +inf past them
    width = expected.count.max(initial=0)
    assert table.act_cdf.shape == (len(expected.augs), width)
    for k, (first, count) in enumerate(zip(expected.first.tolist(), expected.count.tolist())):
        want = np.concatenate((expected.act_cdf[first : first + count], np.full(width - count, np.inf)))
        assert table.act_cdf[k].tobytes() == want.tobytes(), k
    frozen_cdf, width = FrozenRows(mmdp).cdf, expected.size.max(initial=0)
    assert table.step_cdf.shape == (len(expected.lo), mmdp.n, width)
    for g, (lo, size) in enumerate(zip(expected.lo.tolist(), expected.size.tolist())):
        want = np.concatenate((frozen_cdf[lo : lo + size], np.full((width - size, mmdp.n), np.inf)))
        assert table.step_cdf[g].T.tobytes() == want.tobytes(), g
    for array in (table.act_cdf, table.step_cdf):
        assert array.dtype == np.float64 and not array.flags.writeable
    return expected.errors


_COMPILE_POLICY_KINDS = (
    "synthesized", "synthesized elsewhere", "sanitized", "uniform", "truncated", "pruned",
)


def _compile_case(seed, kind, policy_kind):
    """A random instance and a policy to compile on it.

    A policy synthesized elsewhere plays actions some active model lacks;
    a sanitized one has those moves removed; a truncated one lacks part of
    its reach tables, and a pruned one some of its entries, so that
    targets without an entry occur beside those eliminated models lead to.
    """
    kinds = {"sanitized": "synthesized elsewhere", "pruned": "synthesized"}
    rng, mmdp, policy = _curve_case(seed, kind, kinds.get(policy_kind, policy_kind))
    if policy_kind == "sanitized":
        policy = sanitized(mmdp, policy)
    if policy_kind == "pruned":
        full = tuple(range(1, mmdp.n + 1))
        policy = DetectionPolicy(entries={
            key: e for key, e in policy.entries.items() if key[0] == full or rng.random() < 0.5
        })
    return mmdp, policy


@settings(max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=_KINDS,
    policy_kind=st.sampled_from(_COMPILE_POLICY_KINDS),
)
def test_compiled_controller_matches_frozen_compile(seed, kind, policy_kind):
    """Every array, state, action and error of the table as the frozen compile gives them."""
    _assert_compile_matches_frozen(*_compile_case(seed, kind, policy_kind))


def test_frozen_compile_sweep_meets_every_refusal():
    """Seeded cases of every kind, which between them refuse a move for each reason."""
    messages = []
    for seed in range(40):
        for kind in ("binary", "multi3", "multi4"):
            for policy_kind in _COMPILE_POLICY_KINDS:
                errors = _assert_compile_matches_frozen(*_compile_case(seed, kind, policy_kind))
                if not isinstance(errors, Exception):
                    messages += [str(e) for e in errors if e is not None]
    for reason in ("which does not offer it", "policy has no entry for", "covers neither reach"):
        assert any(reason in m for m in messages), reason


def test_compile_matches_frozen_where_an_active_model_lacks_a_played_row():
    """Model 3 has no row for ``b`` at ``x``, which models 1 and 2 offer, and never moves to ``y``."""
    states, actions = ("s0", "x", "y"), {"s0": ("a",), "x": ("a", "b"), "y": ("a",)}
    loops = {("x", "a"): {"x": 1.0}, ("y", "a"): {"y": 1.0}}
    shared = {**loops, ("s0", "a"): {"x": 0.5, "y": 0.5}, ("x", "b"): {"x": 0.5, "y": 0.5}}
    kernels = (shared, shared, {**loops, ("s0", "a"): {"x": 1.0}})
    mmdp = Mmdp(models=tuple(mk_mdp(states, actions, k, "s0", f"M{i}") for i, k in enumerate(kernels, 1)))
    errors = [str(e) for e in _assert_compile_matches_frozen(mmdp, stationary_uniform_policy(mmdp))]
    assert "policy entry ((1, 2, 3), 's0') plays 'b' at 'x', which does not offer it" in errors
    assert "policy has no entry for ((1, 2), 'y')" in errors


def test_compile_without_an_entry_for_the_start():
    mmdp = identical_mmdp()
    policy = DetectionPolicy(entries={})
    error = _assert_compile_matches_frozen(mmdp, policy)
    assert str(error) == "policy has no entry for the initial configuration ((1, 2), 'x')"


@settings(max_examples=240)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=_KINDS,
    policy_kind=_POLICY_KINDS,
    horizon=st.sampled_from([0, 1, 7, 30]),
    single_pair=st.booleans(),
)
def test_pairwise_curve_matches_frozen_reference(seed, kind, policy_kind, horizon, single_pair):
    """Same values, same CSV bytes and the same errors as the frozen per-pair DP."""
    rng, mmdp, policy = _curve_case(seed, kind, policy_kind)
    pairs = None
    if single_pair:
        i, j = sorted(rng.choice(np.arange(1, mmdp.n + 1), size=2, replace=False).tolist())
        pairs = [(i, j) if rng.random() < 0.5 else (j, i)]
    _assert_curve_matches_reference(mmdp, policy, horizon, pairs)


@settings(max_examples=120, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=_KINDS,
    policy_kind=_POLICY_KINDS,
    horizon=st.sampled_from([1, 7, 30]),
)
def test_pairwise_curve_on_a_table_monte_carlo_compiled_matches_frozen_reference(
    seed, kind, policy_kind, horizon
):
    """bc reads the controller table that Monte Carlo compiled first on the same objects."""
    _, mmdp, policy = _curve_case(seed, kind, policy_kind)
    try:
        monte_carlo_error(mmdp, policy, horizon, 100, seed)
    except ContractError:  # no entry for the initial configuration: nothing is compiled
        assert mmdp._controller == []
    else:
        assert mmdp._controller[0][0] is policy
    _assert_curve_matches_reference(mmdp, policy, horizon, None)


def _assert_curve_matches_reference(mmdp, policy, horizon, pairs):
    """``pairwise_bc_curve`` against the frozen per-pair DP, errors included.

    The reference runs on ``sanitized(mmdp, policy)``, so it fails where the
    controller refuses a move; the message is compared wherever the policy
    holds no such move.
    """
    clean = sanitized(mmdp, policy)
    try:
        expected = reference_pairwise_bc_curve(mmdp, clean, horizon, pairs)
    except KeyError as exc:
        # the reference's bare lookup of a state outside the committed
        # component is a contract breach at that state
        with pytest.raises(ContractError) as raised:
            pairwise_bc_curve(mmdp, policy, horizon, pairs)
        assert type(raised.value) is ContractError
        if clean is policy:
            assert str(raised.value).endswith(f"at {exc.args[0]!r}")
        else:
            assert f" at {exc.args[0]!r}" in str(raised.value)
        return
    except ContractError as exc:
        with pytest.raises(ContractError) as raised:
            pairwise_bc_curve(mmdp, policy, horizon, pairs)
        assert type(raised.value) is type(exc)
        if clean is policy:
            assert str(raised.value) == str(exc)
        return
    curves = pairwise_bc_curve(mmdp, policy, horizon, pairs)
    assert list(curves) == list(expected)
    for key, curve in curves.items():
        assert curve == expected[key]
    assert curve_csv(curves) == curve_csv(expected)


def _assert_curve_matches_frozen_loop(mmdp, policy, horizon, pairs=None):
    """``pairwise_bc_curve`` against the frozen step loop on the same table: the
    same ``repr`` of every value, or the same exception type and message.
    """
    keys = pairs or [(i, j) for i in range(1, mmdp.n + 1) for j in range(i + 1, mmdp.n + 1)]
    try:
        values = frozen_pair_curves(mmdp, _compiled(mmdp, policy), keys, horizon)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            pairwise_bc_curve(mmdp, policy, horizon, pairs)
        assert (type(raised.value), str(raised.value)) == (type(exc), str(exc))
        return
    expected = {key: BcCurve(values=tuple(v), pair=key) for key, v in zip(keys, values)}
    assert repr(pairwise_bc_curve(mmdp, policy, horizon, pairs)) == repr(expected)


@settings(max_examples=320, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["binary", "multi2", "multi3", "multi4", "multi5", "sparse3", "sparse5"]),
    policy_kind=st.sampled_from(_COMPILE_POLICY_KINDS),
    horizon=st.sampled_from(range(61)),
    which_pairs=st.sampled_from(["all", "one", "some"]),
)
def test_pairwise_curve_matches_the_frozen_step_loop(seed, kind, policy_kind, horizon, which_pairs):
    """Reused edge layouts sum what the frozen loop's rebuilt ones sum, and fail where it fails.

    Pruned policies lack some entries below the root, so a pair can fail
    mid-horizon while the others go on.
    """
    mmdp, policy = _compile_case(seed, kind, policy_kind)
    everything = [(i, j) for i in range(1, mmdp.n + 1) for j in range(i + 1, mmdp.n + 1)]
    rng = rng_for(seed)
    pairs = {
        "all": None,
        "one": [everything[int(rng.integers(len(everything)))][::-1]],
        "some": [everything[k] for k in rng.permutation(len(everything))[: max(1, len(everything) // 2)]],
    }[which_pairs]
    _assert_curve_matches_frozen_loop(mmdp, policy, horizon, pairs)


def _ring(period, lead=0):
    """Three models on a ring ``r0 .. r{period-1}`` that each leave for ``leak`` at their own rate.

    Once the ring is entered, the live rows are ``leak`` and one ring state,
    so their first-touch order has the ring's period. With ``lead`` set, a
    path ``p0 .. p{lead-1}`` leads to the ring, and at its end the first two
    models may also move to ``y``, where the uniform policy has no entry for
    their active set: pair (1, 2) fails at step ``lead`` and the other pairs
    go on round the ring.
    """
    path, ring = [f"p{k}" for k in range(lead)], [f"r{k}" for k in range(period)]
    states = (*path, *ring, "leak", "y")
    kernels = []
    for m, stay in enumerate((0.5, 0.7, 0.9)):
        kernel = {("leak", "a"): {"leak": 1.0}, ("y", "a"): {"y": 1.0}}
        for k, s in enumerate(path):
            kernel[(s, "a")] = {(path + ring)[k + 1]: 1.0}
        if path and m < 2:
            kernel[(path[-1], "a")] = {"r0": 0.5, "y": 0.5}
        for k, s in enumerate(ring):
            kernel[(s, "a")] = {ring[(k + 1) % period]: stay, "leak": 1.0 - stay}
        kernels.append(kernel)
    actions = {s: ("a",) for s in states}
    start = states[0]
    return Mmdp(models=tuple(mk_mdp(states, actions, k, start, f"M{i}") for i, k in enumerate(kernels, 1)))


@pytest.mark.parametrize("period, layouts_built", [(1, 2), (2, 3), (3, 12)])
def test_pairwise_curve_reuses_the_layouts_of_a_periodic_order(monkeypatch, period, layouts_built):
    """A live-row order of period 1 or 2 reuses its layouts from its second
    turn on; period 3 outruns the two kept layouts and builds one every step.
    """
    mmdp = _ring(period)
    policy = stationary_uniform_policy(mmdp)
    _assert_curve_matches_frozen_loop(mmdp, policy, 12)
    segments = mdpdetect.analysis._segments
    built = []
    monkeypatch.setattr(mdpdetect.analysis, "_segments", lambda *a: built.append(1) or segments(*a))
    pairwise_bc_curve(mmdp, policy, 12)
    assert len(built) == 1 + layouts_built  # one for the edge table of _pair_edges


@pytest.mark.parametrize("period", [1, 2, 3])
def test_pairwise_curve_fails_mid_horizon_as_the_frozen_loop_does(period):
    """A pair that fails at step 4 fails the call, whatever the others reuse after it."""
    mmdp = _ring(period, lead=4)
    policy = stationary_uniform_policy(mmdp)
    for horizon in (3, 4, 5, 12, 30):
        _assert_curve_matches_frozen_loop(mmdp, policy, horizon)
    assert pairwise_bc_curve(mmdp, policy, 3)[(1, 2)].values == (1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ContractError, match=r"no entry for \(\(1, 2\), 'y'\)"):
        pairwise_bc_curve(mmdp, policy, 4)


def test_decay_fit_exact_geometric():
    values = tuple(math.sqrt(0.5) ** t for t in range(41))
    fit = decay_fit(BcCurve(values=values), window=(10, 40))
    assert not fit.degenerate
    assert fit.rate == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_decay_fit_constant_curve_degenerate():
    fit = decay_fit(BcCurve(values=(1.0,) * 21))
    assert fit.degenerate
    assert fit.rate == pytest.approx(1.0)
    assert math.isnan(fit.r_squared)


def test_decay_fit_zero_values_report_rate_zero():
    fit = decay_fit((1.0, 0.5, 0.0, 0.0, 0.0), window=(1, 4))
    assert fit.degenerate
    assert fit.rate == 0.0


def test_decay_fit_window_validation():
    with pytest.raises(ModelError):
        decay_fit((1.0, 0.5), window=(1, 1))


def test_decay_fit_synthesized_policy_curves():
    for seed in (1, 2, 3):
        mmdp = random_detectable_binary(rng_for(9000 + seed))
        outcome = bi_apd(mmdp)
        assert outcome.exists
        (entry,) = outcome.policy.entries.values()
        table = entry_as_stationary(entry, mmdp)
        curve = bc_matrix(*mmdp.models, table).bc_curve(40)
        fit = decay_fit(curve, window=(10, 40))
        assert not fit.degenerate
        assert fit.rate < 1.0 - 1e-6
        assert fit.r_squared >= 0.99


def test_csv_emitters():
    curve = BcCurve(values=(1.0, 0.5, 0.25), pair=(1, 2))
    text = curve_csv(curve)
    assert text.splitlines()[0] == "t,B"
    assert text.splitlines()[1] == "0,1.0"
    both = curve_csv({(1, 2): curve, (1, 3): curve})
    assert both.splitlines()[0] == "t,B_1_2,B_1_3"
    bounds = bounds_csv([(0, error_bounds_binary(1.0, 0.5, 0.5))])
    assert bounds.splitlines()[0] == "t,lower,upper_raw,upper_clamped"
    assert bounds.splitlines()[1] == "0,0.25,0.5,0.5"


_PRIOR_CALLS = {
    "simulate": lambda mmdp, policy, priors: simulate(mmdp, 1, policy, seed=0, priors=priors),
    "batch_summary": lambda mmdp, policy, priors: batch_summary(mmdp, policy, 4, 0, priors=priors),
    "monte_carlo_error q": lambda mmdp, policy, priors: monte_carlo_error(mmdp, policy, 3, 100, 0, q=priors),
    "monte_carlo_error theta": lambda mmdp, policy, priors: monte_carlo_error(
        mmdp, policy, 3, 100, 0, theta=priors
    ),
    "error_bounds_multi": lambda mmdp, policy, priors: error_bounds_multi(
        [[1.0, 0.5], [0.5, 1.0]], priors, (0.5, 0.5)
    ),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("where", [*_PRIOR_CALLS, "bc --bounds"])
def test_non_finite_priors_are_refused(where, bad, tmp_path, capsys):
    # a NaN passes both the positivity and the sum check on its own
    mmdp = example1_mmdp(initial="2")
    policy = bi_apd(mmdp).policy
    priors = (bad, 1.0)
    if where in _PRIOR_CALLS:
        with pytest.raises(ModelError, match="entries must be finite"):
            _PRIOR_CALLS[where](mmdp, policy, priors)
        return
    model, policy_path, out = tmp_path / "model.json", tmp_path / "policy.json", tmp_path / "b.csv"
    model.write_text(mmdp_to_json(mmdp))
    policy_path.write_text(policy_to_json(policy))
    args = ["bc", str(model), str(policy_path), "--horizon", "2", "--out", str(out)]
    assert main([*args, "--bounds", f"{bad},1:0.5,0.5"]) == 2
    assert "entries must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("priors, message", [
    ((0.5, 0.25, 0.25), "expected 2 entries, got 3"),
    ((1.0,), "expected 2 entries, got 1"),
    ((0.0, 1.0), "entries must be strictly positive"),
    ((1.5, -0.5), "entries must be strictly positive"),
])
@pytest.mark.parametrize("where", list(_PRIOR_CALLS))
def test_priors_of_the_wrong_length_or_sign_are_refused(where, priors, message):
    mmdp = example1_mmdp(initial="2")
    with pytest.raises(ModelError, match=message):
        _PRIOR_CALLS[where](mmdp, bi_apd(mmdp).policy, priors)


@pytest.mark.parametrize("actions", [{}, {"x": ()}], ids=["missing", "empty"])
def test_a_component_state_without_actions_plays_nothing(actions):
    """A hand-built component whose state lists no actions is a missing move, not a KeyError."""
    mmdp = identical_mmdp()
    entry = PolicyEntry((1, 2), "x", reach={}, mecs=(Mec(("x",), actions),))
    policy = DetectionPolicy(entries={((1, 2), "x"): entry})
    with pytest.raises(ContractError, match=r"plays nothing at 'x' in its component 0"):
        _expand_aug(mmdp, policy, (((1, 2), "x"), 0, "x"))


_MAP_TRIALS = 2000


def _map_error_case(seed, kind, n_models, random_priors):
    """A random instance of ``kind`` with ``n_models`` models (2 for a binary one) and priors ``(q, theta)``."""
    rng = rng_for(seed)
    n_states = int(rng.integers(3, 6))
    if kind == "binary":
        mmdp = random_binary_mmdp(rng, n_states=n_states)
    else:
        make = random_sparse_cut_mmdp if kind == "sparse" else random_multi_mmdp
        mmdp = make(rng, n_models=n_models, n_states=n_states)
    priors = []
    for _ in range(2):
        w = rng.uniform(0.1, 1.0, size=mmdp.n) if random_priors else np.ones(mmdp.n)
        priors.append(tuple((w / w.sum()).tolist()))
    return mmdp, *priors


def _assert_exact_error_between_bounds_and_monte_carlo(mmdp, policy, q, theta, seed):
    """At t = 1..4 the exact MAP error lies (a) within the bounds of the bc curves and
    (b) within the Chernoff limits, at a false-alarm rate of 1e-9, of Monte Carlo."""
    curves = pairwise_bc_curve(mmdp, policy, 4)
    for t in range(1, 5):
        exact = oracle_map_error(mmdp, policy, t, q, theta)
        b = np.zeros((mmdp.n, mmdp.n))
        for (i, j), curve in curves.items():
            b[i - 1, j - 1] = b[j - 1, i - 1] = curve.values[t]
        bounds = error_bounds_multi(b, q, theta)
        assert bounds.lower - 1e-12 <= exact <= bounds.upper + 1e-12, (t, exact, bounds)
        estimate, _ = monte_carlo_error(mmdp, policy, t, _MAP_TRIALS, seed, q, theta)
        if exact == 0.0:  # no history the policy plays leads the MAP rule astray
            assert estimate == 0.0, t
            continue
        lo = binomial_limit(exact, _MAP_TRIALS, 1e-9, upper=False)
        hi = binomial_limit(exact, _MAP_TRIALS, 1e-9, upper=True)
        assert lo <= estimate <= hi, (t, exact, estimate)


@settings(max_examples=300, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["binary", "multi", "sparse"]),
    n_models=st.integers(3, 5),
    random_priors=st.booleans(),
)
def test_exact_map_error_of_synthesized_policies_meets_bc_bounds_and_monte_carlo(
    seed, kind, n_models, random_priors
):
    mmdp, q, theta = _map_error_case(seed, kind, n_models, random_priors)
    policy = general_apd(mmdp).policy
    if policy is not None:
        _assert_exact_error_between_bounds_and_monte_carlo(mmdp, policy, q, theta, seed)


@settings(max_examples=100, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), random_priors=st.booleans())
def test_exact_map_error_of_the_uniform_baseline_meets_bc_bounds_and_monte_carlo(seed, random_priors):
    """Binary instances only: bc of the baseline on three or more models stops at a missing entry."""
    mmdp, q, theta = _map_error_case(seed, "binary", 2, random_priors)
    _assert_exact_error_between_bounds_and_monte_carlo(mmdp, stationary_uniform_policy(mmdp), q, theta, seed)


@pytest.mark.xfail(strict=True, raises=ContractError, reason=(
    "the one-entry baseline has no entry for the active set left once a played "
    "transition eliminates a model outside the pair, so bc stops where Monte Carlo runs"
))
def test_bc_runs_the_uniform_baseline_on_three_models():
    mmdp = gen_recsys(RecSysSpec(item_count=5, type_count=3, seed=0))
    policy = stationary_uniform_policy(mmdp)
    monte_carlo_error(mmdp, policy, 5, 200, 1)  # the same policy plays to the end here
    assert set(pairwise_bc_curve(mmdp, policy, 10)) == {(1, 2), (1, 3), (2, 3)}


def test_exact_map_error_refuses_a_horizon_above_its_cap():
    mmdp = sqrt_half_mmdp()
    with pytest.raises(HorizonCapError):
        oracle_map_error(mmdp, bi_apd(mmdp).policy, 3, (0.5, 0.5), (0.5, 0.5), cap=2)


@pytest.mark.parametrize("upper", [True, False])
def test_binomial_limit_is_p_where_every_draw_is_the_same(upper):
    """At p = 0 and p = 1 every mean equals p, so both Chernoff limits are p; inside,
    the limits stay on their side of p and close in on it as n grows."""
    assert binomial_limit(0.0, 100, 1e-9, upper=upper) == 0.0
    assert binomial_limit(1.0, 100, 1e-9, upper=upper) == 1.0
    for p in (1e-300, 0.3, 1.0 - 1e-12):
        wide, narrow = (binomial_limit(p, n, 1e-9, upper=upper) for n in (100, 10**6))
        assert (p <= narrow <= wide) if upper else (wide <= narrow <= p)
