"""Runtime: belief updates, MAP rule, policy execution, Monte-Carlo batches."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpdetect.analysis import error_bounds_binary
from mdpdetect.binary import bi_apd
from mdpdetect.errors import ContractError, ImpossibleObservationError, ModelError
from mdpdetect.general import general_apd
from mdpdetect.graphs import Mec, MecUniformPolicy
from mdpdetect.models import Mmdp
from mdpdetect.policy import (
    DetectionPolicy,
    PolicyEntry,
    single_entry_policy,
    stationary_uniform_policy,
    survivors,
)
from mdpdetect.simulate import (
    STOP_REASONS,
    BeliefState,
    _check_priors,
    _monte_carlo_trials,
    _philox_key,
    _Rekeyed,
    batch_summary,
    belief_update,
    map_decide,
    monte_carlo_error,
    simulate,
    trace_to_csv,
    trial_rng,
)

from conftest import (
    example1_mmdp,
    identical_mmdp,
    mk_mdp,
    random_binary_mmdp,
    random_detectable_binary,
    reference_batch_summary,
    reference_monte_carlo_error,
    reference_simulate,
    rng_for,
    sqrt_half_mmdp,
)
from test_analysis import _random_instance
from test_general import _recursive_instance


def test_belief_update_example1_values(example1):
    b = belief_update(BeliefState((0.5, 0.5)), "1", "a1", "2", example1)
    assert b.probs[0] == pytest.approx(7 / 11, abs=1e-12)
    assert b.probs[1] == pytest.approx(4 / 11, abs=1e-12)
    assert b.check() == []


def test_belief_update_revealing_transition_collapses(example1):
    b = belief_update(BeliefState((0.5, 0.5)), "5", "b5", "5", example1)
    assert b.probs == (1.0, 0.0)  # an exact zero: model 2 gives (5, b5, 5) probability zero
    assert survivors(example1, (1, 2), "5", "b5", "5") == (1,)


def test_belief_update_equal_likelihoods_keep_belief(example1):
    b = belief_update(BeliefState((0.3, 0.7)), "2", "a2", "6", example1)
    assert b.probs[0] == pytest.approx(0.3, abs=1e-12)
    assert b.probs[1] == pytest.approx(0.7, abs=1e-12)


def test_belief_update_impossible_observation(example1):
    with pytest.raises(ImpossibleObservationError):
        belief_update(BeliefState((1.0, 0.0)), "5", "b5", "7", example1)


def test_belief_zero_entries_stay_zero(example1):
    b = belief_update(BeliefState((0.5, 0.5)), "5", "b5", "5", example1)
    b2 = belief_update(b, "2", "a2", "2", example1)
    assert b2.probs == (1.0, 0.0)


def test_map_decide_rules():
    assert map_decide((0.64, 0.36)) == 1
    assert map_decide((0.5, 0.5)) == 1  # tie resolves to the smaller index
    assert map_decide((0.2, 0.3, 0.5)) == 3
    assert map_decide(BeliefState((0.1, 0.9))) == 2


def test_simulate_is_deterministic():
    mmdp = example1_mmdp(initial="2")
    policy = bi_apd(mmdp).policy
    t1 = simulate(mmdp, 1, policy, seed=99)
    t2 = simulate(mmdp, 1, policy, seed=99)
    assert t1 == t2
    t3 = simulate(mmdp, 1, policy, seed=100)
    assert t1 != t3


def test_simulate_example1_plays_b2_until_collapse():
    mmdp = example1_mmdp(initial="2")
    policy = bi_apd(mmdp).policy
    for seed in range(20):
        trace = simulate(mmdp, 1, policy, seed=seed)
        assert trace.stop_reason == "threshold"
        *body, last = trace.steps
        for step in body:
            if step.state == "2":
                assert step.action == "b2"
        assert last.beliefs == (1.0, 0.0)
        assert map_decide(last.beliefs) == 1
        # the collapse event is the move into the support only model 1 allows
        assert last.state == "5"


def test_simulate_identical_models_never_moves_belief():
    mmdp = identical_mmdp()
    policy = stationary_uniform_policy(mmdp)
    trace = simulate(mmdp, 2, policy, seed=5, max_steps=50)
    assert trace.stop_reason == "max_steps"
    for step in trace.steps:
        assert step.beliefs == (0.5, 0.5)


def test_simulate_belief_support_never_grows():
    mmdp = _recursive_instance()
    policy = general_apd(mmdp).policy
    for seed in range(15):
        for truth in (1, 2, 3):
            trace = simulate(mmdp, truth, policy, seed=seed)
            support_sizes = [sum(1 for b in s.beliefs if b > 0) for s in trace.steps]
            assert all(a >= b for a, b in zip(support_sizes, support_sizes[1:]))
            for s in trace.steps:
                assert all(b >= 0 for b in s.beliefs)
                assert sum(s.beliefs) == pytest.approx(1.0, abs=1e-9)


def test_simulate_active_set_switch_uses_new_entry():
    mmdp = _recursive_instance()
    policy = general_apd(mmdp).policy
    saw_switch = False
    for seed in range(30):
        trace = simulate(mmdp, 1, policy, seed=seed)
        states = [s.state for s in trace.steps]
        if "r" in states:
            saw_switch = True
            # after entering r, model 3 is eliminated and the pair entry takes over
            idx = states.index("r")
            assert trace.steps[idx].beliefs[2] == 0.0
    assert saw_switch


def test_simulate_undetectable_when_entry_missing():
    mmdp = _recursive_instance()
    policy = general_apd(mmdp).policy
    pruned = DetectionPolicy(
        entries={k: v for k, v in policy.entries.items() if k != ((1, 2), "r")}
    )
    reasons = set()
    for seed in range(30):
        reasons.add(simulate(mmdp, 1, pruned, seed=seed, max_steps=300).stop_reason)
    assert "undetectable" in reasons


def _underflow_triple():
    """Three self-loop rates at s; the 0.9 model's posterior underflows under truth 1."""
    states = ("s", "u")
    actions = {"s": ("a",), "u": ("a",)}
    models = tuple(
        mk_mdp(states, actions, {("s", "a"): {"s": p, "u": 1.0 - p}, ("u", "a"): {"s": 1.0}},
               "s", f"M{m + 1}")
        for m, p in enumerate((0.5, 0.51, 0.9))
    )
    return Mmdp(models=models)


def test_simulate_underflowed_posterior_does_not_eliminate_a_model():
    # every transition is possible under all three models, so none may leave
    # the active set, even once its posterior rounds to 0.0
    mmdp = _underflow_triple()
    outcome = general_apd(mmdp)
    assert outcome.exists
    underflowed = False
    for seed in range(5):
        trace = simulate(mmdp, 1, outcome.policy, seed=seed)
        assert trace.stop_reason != "undetectable", seed
        underflowed |= trace.steps[-1].beliefs[2] == 0.0
    assert underflowed, "the instance no longer reaches a zero posterior"


def test_simulate_missing_initial_entry_is_contract_breach():
    mmdp = identical_mmdp()
    with pytest.raises(ContractError):
        simulate(mmdp, 1, DetectionPolicy(entries={}), seed=0)


def test_simulate_threshold_validation():
    mmdp = identical_mmdp()
    policy = stationary_uniform_policy(mmdp)
    with pytest.raises(ModelError):
        simulate(mmdp, 1, policy, seed=0, threshold=0.4)


def test_simulate_martingale_mean_belief():
    mmdp = sqrt_half_mmdp()
    policy = stationary_uniform_policy(mmdp)
    t_probe = 4
    n = 1200
    acc = [0.0, 0.0]
    for seed in range(n):
        truth = 1 if (seed * 2654435761 % 2**32) / 2**32 < 0.5 else 2
        trace = simulate(
            mmdp, truth, policy, seed=seed, max_steps=t_probe, threshold=1 - 1e-12
        )
        final = trace.steps[-1].beliefs
        acc[0] += final[0]
        acc[1] += final[1]
    mean = [a / n for a in acc]
    sigma = 0.5 / math.sqrt(n)
    assert abs(mean[0] - 0.5) <= 3 * sigma + 0.02
    assert abs(mean[1] - 0.5) <= 3 * sigma + 0.02


def test_monte_carlo_identical_models_is_half():
    mmdp = identical_mmdp()
    policy = stationary_uniform_policy(mmdp)
    est, se = monte_carlo_error(mmdp, policy, t=5, trials=2000, seed=21)
    assert abs(est - 0.5) <= 3 * se


def test_monte_carlo_pure_revealing_is_zero():
    states = ("s", "x", "y")
    actions = {"s": ("a",), "x": ("z",), "y": ("z",)}
    k1 = {("s", "a"): {"x": 1.0}, ("x", "z"): {"x": 1.0}, ("y", "z"): {"y": 1.0}}
    k2 = {("s", "a"): {"y": 1.0}, ("x", "z"): {"x": 1.0}, ("y", "z"): {"y": 1.0}}
    mmdp = Mmdp(models=(mk_mdp(states, actions, k1, "s", "M1"), mk_mdp(states, actions, k2, "s", "M2")))
    policy = stationary_uniform_policy(mmdp)
    est, _ = monte_carlo_error(mmdp, policy, t=1, trials=500, seed=13)
    assert est == 0.0


def test_monte_carlo_sqrt_half_respects_bounds():
    mmdp = sqrt_half_mmdp()
    policy = stationary_uniform_policy(mmdp)
    t = 5
    b_t = math.sqrt(0.5) ** t
    bounds = error_bounds_binary(b_t, 0.5, 0.5)
    est, se = monte_carlo_error(mmdp, policy, t=t, trials=10_000, seed=4)
    assert est >= bounds.lower - 3 * se
    assert est <= min(bounds.upper, 1.0) + 3 * se


def test_monte_carlo_argument_validation():
    mmdp = identical_mmdp()
    policy = stationary_uniform_policy(mmdp)
    with pytest.raises(ContractError):
        monte_carlo_error(mmdp, policy, t=3, trials=10, seed=0)
    with pytest.raises(ModelError):
        monte_carlo_error(mmdp, policy, t=3, trials=100, seed=0, q=(0.9, 0.2))


def _assert_monte_carlo_matches_reference(mmdp, policy, t, trials, seed, q=None, theta=None):
    """The same estimate, or the same error, as the frozen trial-by-trial loop.

    The truths and the final beliefs of every trial are compared too, bit for
    bit, so that a change in the order of the belief sums shows even where it
    moves no MAP decision, and so are the stop reason and step of the kernel. Returns the reference's outcomes, or its error.
    """
    outcomes, stops = [], []
    try:
        expected = reference_monte_carlo_error(
            mmdp, policy, t, trials, seed, q, theta, outcomes, stops
        )
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            monte_carlo_error(mmdp, policy, t, trials, seed, q, theta)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
        return exc
    assert monte_carlo_error(mmdp, policy, t, trials, seed, q, theta) == expected
    q, theta = _check_priors(q, mmdp.n, "q"), _check_priors(theta, mmdp.n, "theta")
    truth, beliefs, stop_step, stop_code = _monte_carlo_trials(
        mmdp, policy, t, trials, seed, q, theta
    )
    assert (truth + 1).tolist() == [tr for tr, _ in outcomes]
    assert beliefs.tolist() == [list(b) for _, b in outcomes]
    # without a threshold only a lone survivor stops a trial as "threshold"
    assert [(STOP_REASONS[c], k) for c, k in zip(stop_code, stop_step.tolist())] == stops
    return outcomes


def _random_priors(rng, n):
    weights = rng.uniform(0.05, 1.0, size=n)
    return tuple((weights / weights.sum()).tolist())


@settings(max_examples=240)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["binary", "multi3", "multi4"]),
    policy_kind=st.sampled_from(["synthesized", "uniform", "synthesized elsewhere", "truncated"]),
    t=st.sampled_from([0, 1, 7, 30]),
    random_priors=st.booleans(),
)
def test_monte_carlo_matches_frozen_reference(seed, kind, policy_kind, t, random_priors):
    """The lockstep kernel against the trial-by-trial loop it replaced.

    A policy synthesized on a different instance over the same state names,
    or one with part of its reach tables removed, sends trials to states
    and rows its entries do not cover, so stops and errors are exercised too.
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
    q = theta = None
    if random_priors:
        q, theta = _random_priors(rng, mmdp.n), _random_priors(rng, mmdp.n)
    _assert_monte_carlo_matches_reference(mmdp, policy, t, 100, int(rng.integers(0, 2**31)), q, theta)


@pytest.mark.parametrize("seed", range(3))
def test_monte_carlo_matches_reference_over_several_uniform_blocks(seed):
    """Shared supports eliminate no model, so every trial plays all 100 steps
    and draws 201 uniforms, more than one block."""
    mmdp = random_binary_mmdp(rng_for(80_000 + seed), n_states=5)
    outcomes = _assert_monte_carlo_matches_reference(mmdp, stationary_uniform_policy(mmdp), 100, 100, seed)
    assert not isinstance(outcomes, Exception)


# Keys at the edges of numpy's conversion of the key pair: components of
# 2**63 and more pass through float64, MASK64 rounds up past 2**64, and
# negative or wider ints are masked first.
_EDGE_KEYS = (0, 1, 12345, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64, -1, -(2**63))


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
def test_rekeyed_stream_matches_trial_rng_on_edge_keys():
    stream = _Rekeyed()
    for seed in (*_EDGE_KEYS, 7 ^ 0x9E3779B97F4A7C15):
        for index in (0, 5, 2**63, 2**64 - 1, -1):
            expected = trial_rng(seed, index).random(70)
            key = _philox_key(seed, index)
            assert stream.at(key).random(70).tolist() == expected.tolist(), (seed, index)
            assert stream.at(key, 64).random(6).tolist() == expected[64:].tolist(), (seed, index)


def test_monte_carlo_draws_the_truth_in_string_order():
    """With 11 models the truth draw runs over "1", "10", "11", "2", ..., "9"."""
    mmdp = identical_mmdp(n_models=11)
    theta = tuple(i / 66 for i in range(1, 12))
    q = tuple(reversed(theta))
    outcomes = _assert_monte_carlo_matches_reference(
        mmdp, stationary_uniform_policy(mmdp), 7, 400, 3, q, theta
    )
    order = sorted(range(1, 12), key=str)
    cdf = np.cumsum([theta[i - 1] for i in order])
    in_int_order = np.cumsum(theta)
    for trial, (truth, _) in enumerate(outcomes):
        u = trial_rng(3, trial).random()
        assert truth == order[int(np.searchsorted(cdf, u, side="right"))]
    # the integer order would have drawn other truths
    assert [tr for tr, _ in outcomes] != [
        1 + int(np.searchsorted(in_int_order, trial_rng(3, k).random(), side="right"))
        for k in range(400)
    ]


def test_monte_carlo_ties_go_to_the_next_item():
    """A uniform equal to a running sum picks the next item: truth, action and successor.

    The priors, the action weights and the successor probabilities of trial
    0 are set to the very uniforms its stream draws.
    """
    seed = 11
    u_truth, u_action, u_succ = trial_rng(seed, 0).random(3)
    states = ("s", "x", "y")
    actions = {"s": ("a", "b"), "x": ("z",), "y": ("z",)}
    loops = {("x", "z"): {"x": 1.0}, ("y", "z"): {"y": 1.0}}
    k1 = {**loops, ("s", "a"): {"x": 0.5, "y": 0.5}, ("s", "b"): {"x": 0.3, "y": 0.7}}
    k2 = {**loops, ("s", "a"): {"x": 0.6, "y": 0.4}, ("s", "b"): {"x": u_succ, "y": 1.0 - u_succ}}
    mmdp = Mmdp(models=(mk_mdp(states, actions, k1, "s", "M1"), mk_mdp(states, actions, k2, "s", "M2")))
    mec = Mec(states, actions)
    probs = {"s": {"a": u_action, "b": 1.0 - u_action}, "x": {"z": 1.0}, "y": {"z": 1.0}}
    policy = single_entry_policy(PolicyEntry((1, 2), "s", reach={}, mecs=(MecUniformPolicy(mec, probs),)))
    theta = (u_truth, 1.0 - u_truth)
    outcomes = _assert_monte_carlo_matches_reference(mmdp, policy, 1, 100, seed, theta=theta)
    # trial 0: truth 2, action b, successor y
    assert outcomes[0] == (2, (0.7 / (0.7 + (1.0 - u_succ)), (1.0 - u_succ) / (0.7 + (1.0 - u_succ))))


def _leaky(mmdp):
    """Every row keeps 0.9 of its mass and ends in a successor no model allows.

    A trial then fails with an impossible observation at about one step in
    ten, at whichever state and action it has reached.
    """
    return Mmdp(models=tuple(
        dataclasses.replace(m, kernel={
            key: {**{s2: 0.9 * p for s2, p in row.items()}, "~": 0.0} for key, row in m.kernel.items()
        })
        for m in mmdp.models
    ))


@pytest.mark.parametrize("kind", ["binary", "multi3", "multi4"])
def test_monte_carlo_raises_the_error_of_the_lowest_failing_trial(kind):
    raised = set()
    for seed in range(4):
        rng = rng_for(70_000 + seed)
        mmdp = _leaky(_random_instance(rng, kind, 5))
        error = _assert_monte_carlo_matches_reference(
            mmdp, stationary_uniform_policy(mmdp), 30, 100, seed
        )
        assert isinstance(error, ImpossibleObservationError)
        raised.add(str(error))
    assert len(raised) > 1


def test_monte_carlo_checks_its_arguments_in_order():
    mmdp = identical_mmdp()
    policy = stationary_uniform_policy(mmdp)
    for args in [
        (3, 99, 0, (0.9, 0.2), (0.9, 0.2)),  # too few trials
        (3, 100, 0, (0.9, 0.2), (0.9, 0.2)),  # then q
        (3, 100, 0, None, (0.9, 0.2)),  # then theta
    ]:
        _assert_monte_carlo_matches_reference(mmdp, policy, *args)
    error = _assert_monte_carlo_matches_reference(mmdp, DetectionPolicy(entries={}), 3, 100, 0)
    assert isinstance(error, ContractError)
    assert str(error) == "policy has no entry for the initial configuration ((1, 2), 'x')"


def test_trace_csv_layout():
    mmdp = example1_mmdp(initial="2")
    policy = bi_apd(mmdp).policy
    trace = simulate(mmdp, 1, policy, seed=0)
    text = trace_to_csv(trace)
    lines = text.splitlines()
    assert lines[0] == "t,state,action,b_1,b_2"
    assert lines[1].startswith("0,2,b2,0.5,0.5")
    assert lines[-1].split(",")[2] == ""  # no action on the final row


def test_trace_invariants_against_truth_kernel():
    mmdp = _recursive_instance()
    policy = general_apd(mmdp).policy
    for truth in (1, 2, 3):
        truth_model = mmdp.model(truth)
        trace = simulate(mmdp, truth, policy, seed=truth * 31)
        beliefs = trace.steps[0].beliefs
        for prev, nxt in zip(trace.steps, trace.steps[1:]):
            assert truth_model.prob(prev.state, prev.action, nxt.state) > 0.0
            beliefs = belief_update(
                BeliefState(beliefs), prev.state, prev.action, nxt.state, mmdp
            ).probs
            assert nxt.beliefs == beliefs


def test_committed_component_is_never_left():
    mmdp = _recursive_instance()
    policy = general_apd(mmdp).policy
    top = policy.entries[((1, 2, 3), "s0")]
    (frag,) = top.mecs
    for seed in range(20):
        trace = simulate(mmdp, 3, policy, seed=seed, threshold=1 - 1e-9, max_steps=300)
        inside = False
        for step in trace.steps:
            if step.state in frag.mec.states:
                inside = True
            elif inside:
                # model 3 admits no active-set change, so commitment is final
                raise AssertionError(f"left the committed component at {step}")


def test_batch_summary_deterministic_and_shaped():
    mmdp = example1_mmdp(initial="2")
    policy = bi_apd(mmdp).policy
    a = batch_summary(mmdp, policy, trials=40, seed=17)
    b = batch_summary(mmdp, policy, trials=40, seed=17)
    assert a == b
    assert a["trials"] == 40
    assert set(a["per_truth"]) == {"1", "2"}
    assert a["threshold_stop_fraction"] == 1.0
    assert a["threshold_accuracy"] == 1.0


def _assert_batch_matches_reference(mmdp, policy, trials, seed, **kwargs):
    """The same summary, or the same error, as the frozen trial-by-trial batch.

    Returns the reference's summary, or its error.
    """
    try:
        expected = reference_batch_summary(mmdp, policy, trials, seed, **kwargs)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            batch_summary(mmdp, policy, trials, seed, **kwargs)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
        return exc
    assert batch_summary(mmdp, policy, trials, seed, **kwargs) == expected
    return expected


def _random_case(rng, kind, policy_kind):
    """A random instance and a policy to play on it.

    The policy is synthesized on the instance or on another one over the same
    state names, or is that with part of its reach tables removed, or is the
    uniform one.
    """
    n_states = int(rng.integers(4, 7))
    if kind == "detectable":
        mmdp = random_detectable_binary(rng, n_states=n_states)
    else:
        mmdp = _random_instance(rng, kind, n_states)
    if policy_kind == "uniform":
        return mmdp, stationary_uniform_policy(mmdp)
    source = mmdp
    if policy_kind == "synthesized elsewhere":
        source = _random_instance(rng, "binary" if kind == "detectable" else kind, n_states)
    policy = general_apd(source).policy or DetectionPolicy(entries={})
    if policy_kind == "truncated":
        policy = DetectionPolicy(entries={
            key: dataclasses.replace(e, reach={s: a for s, a in e.reach.items() if rng.random() < 0.7})
            for key, e in policy.entries.items()
        })
    return mmdp, policy


# 2**63 - 3 with 40 trials makes ``seed + trial`` cross 2**63 mid-batch
_BATCH_SEEDS = (1, -3, 2**63 + 5, 2**64 - 1, 2**63 - 3)


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@settings(max_examples=240)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["binary", "multi3", "multi4", "detectable"]),
    policy_kind=st.sampled_from(["synthesized", "uniform", "synthesized elsewhere", "truncated"]),
    fixed_truth=st.booleans(),
    random_priors=st.booleans(),
    threshold=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
    max_steps=st.integers(0, 6),
    batch_seed=st.sampled_from(_BATCH_SEEDS),
)
def test_batch_matches_frozen_reference(
    seed, kind, policy_kind, fixed_truth, random_priors, threshold, max_steps, batch_seed
):
    """The lockstep batch against the trial-by-trial loop it replaced.

    Short episodes and thresholds down to 0.5 make every stop reason occur;
    foreign and truncated policies exercise missing entries and errors.
    """
    rng = rng_for(seed)
    mmdp, policy = _random_case(rng, kind, policy_kind)
    truth = int(rng.integers(1, mmdp.n + 1)) if fixed_truth else None
    priors = _random_priors(rng, mmdp.n) if random_priors else None
    _assert_batch_matches_reference(
        mmdp, policy, 40, batch_seed, truth=truth, max_steps=max_steps, threshold=threshold,
        priors=priors,
    )


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("pruned", [False, True])
def test_batch_matches_reference_on_every_stop_reason(pruned):
    """Each stop reason, and a stop on the priors alone at t = 0, against the reference.

    Seeds of 2**63 and more give every trial of a batch the same rounded key,
    so the reasons are counted over all seeds together.
    """
    recursive = _recursive_instance()
    policy = general_apd(recursive).policy
    if pruned:
        policy = DetectionPolicy(
            entries={k: v for k, v in policy.entries.items() if k != ((1, 2), "r")}
        )
    example = example1_mmdp(initial="2")
    reasons = set()
    for batch_seed in _BATCH_SEEDS:
        for mmdp, pol, kwargs in [
            (recursive, policy, {"max_steps": 300}),
            (recursive, policy, {"max_steps": 3, "threshold": 0.6}),
            (example, bi_apd(example).policy, {"priors": (0.95, 0.05), "threshold": 0.9}),
        ]:
            summary = _assert_batch_matches_reference(mmdp, pol, 40, batch_seed, **kwargs)
            reasons |= {r for r, k in summary["stop_reasons"].items() if k}
            if "priors" in kwargs:
                assert summary["stop_reasons"]["threshold"] == 40
                assert summary["per_truth"]["1"]["mean_stop_time"] == 0.0
    assert "undetectable" in reasons if pruned else "undetectable" not in reasons
    assert {"threshold", "max_steps"} <= reasons


@pytest.mark.parametrize("kind", ["binary", "multi3", "multi4"])
def test_batch_raises_the_error_of_the_lowest_failing_trial(kind):
    raised = set()
    for seed in range(4):
        rng = rng_for(70_000 + seed)
        mmdp = _leaky(_random_instance(rng, kind, 5))
        error = _assert_batch_matches_reference(
            mmdp, stationary_uniform_policy(mmdp), 40, seed, max_steps=30
        )
        assert isinstance(error, ImpossibleObservationError)
        raised.add(str(error))
    assert len(raised) > 1


def test_batch_checks_its_arguments_in_order():
    mmdp = identical_mmdp()
    policy = stationary_uniform_policy(mmdp)
    for kwargs, message in [
        ({"priors": (0.9, 0.2), "threshold": 0.4, "truth": 7}, "priors: entries sum to"),
        ({"threshold": 0.4, "max_steps": -1, "truth": 7}, "threshold must lie in (0.5, 1), got 0.4"),
        ({"max_steps": -1, "truth": 7}, "max_steps must be nonnegative, got -1"),
        ({"truth": 7}, "model index 7 outside 1..2"),
    ]:
        error = _assert_batch_matches_reference(mmdp, policy, 10, 0, **kwargs)
        assert isinstance(error, ModelError)
        assert str(error).startswith(message)
    error = _assert_batch_matches_reference(mmdp, DetectionPolicy(entries={}), 10, 0)
    assert isinstance(error, ContractError)
    assert str(error) == "policy has no entry for the initial configuration ((1, 2), 'x')"
    # a check the trial-by-trial loop lacked: the trial count, first
    for trials, kwargs, message in [
        (0, {"priors": (0.9, 0.2)}, "trials must be at least 1, got 0"),
        (-3, {}, "trials must be at least 1, got -3"),
    ]:
        with pytest.raises(ModelError) as raised:
            batch_summary(mmdp, policy, trials, 0, **kwargs)
        assert str(raised.value) == message
    # zero steps is a valid limit: every trial stops before its first step
    summary = batch_summary(mmdp, policy, 10, 0, max_steps=0)
    assert summary["stop_reasons"] == {"threshold": 0, "max_steps": 10, "undetectable": 0}


def test_simulate_rejects_a_negative_step_limit():
    mmdp = identical_mmdp()
    policy = stationary_uniform_policy(mmdp)
    with pytest.raises(ModelError, match="max_steps must be nonnegative, got -1"):
        simulate(mmdp, 1, policy, seed=0, max_steps=-1)
    trace = simulate(mmdp, 1, policy, seed=0, max_steps=0)
    assert (trace.stop_reason, len(trace.steps)) == ("max_steps", 1)


def test_batch_underflowed_posterior_does_not_eliminate_a_model():
    """The episodes of the simulate underflow test, as one batch: trial ``i``
    plays seed ``i``, and one of them ends with a posterior of 0.0."""
    mmdp = _underflow_triple()
    policy = general_apd(mmdp).policy
    summary = _assert_batch_matches_reference(mmdp, policy, 5, 0, truth=1)
    assert summary["stop_reasons"]["undetectable"] == 0


def _assert_simulate_matches_reference(mmdp, truth, policy, seed, **kwargs):
    """The same trace and CSV bytes, or the same error, as the frozen episode loop.

    Returns the reference's trace, or its error.
    """
    try:
        expected = reference_simulate(mmdp, truth, policy, seed, **kwargs)
    except Exception as exc:
        with pytest.raises(type(exc)) as raised:
            simulate(mmdp, truth, policy, seed, **kwargs)
        assert type(raised.value) is type(exc)
        assert str(raised.value) == str(exc)
        return exc
    trace = simulate(mmdp, truth, policy, seed, **kwargs)
    assert trace == expected
    assert trace_to_csv(trace) == trace_to_csv(expected)
    return expected


_TRACE_SEEDS = (1, -3, 2**63 + 5, 2**64 - 1)


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@settings(max_examples=300)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["binary", "multi3", "multi4", "detectable"]),
    policy_kind=st.sampled_from(["synthesized", "uniform", "synthesized elsewhere", "truncated"]),
    leaky=st.booleans(),
    random_priors=st.booleans(),
    threshold=st.floats(0.5, 1.0, exclude_min=True, exclude_max=True),
    max_steps=st.integers(0, 6),
    trace_seed=st.sampled_from(_TRACE_SEEDS),
)
def test_simulate_matches_frozen_reference(
    seed, kind, policy_kind, leaky, random_priors, threshold, max_steps, trace_seed
):
    """One trial of the lockstep kernel against the episode loop it replaced.

    Short episodes and thresholds down to 0.5 make every stop reason occur;
    foreign and truncated policies, and rows that leak into a successor no
    model allows, exercise missing entries and errors.
    """
    rng = rng_for(seed)
    mmdp, policy = _random_case(rng, kind, policy_kind)
    if leaky:
        mmdp = _leaky(mmdp)
    truth = int(rng.integers(1, mmdp.n + 1))
    priors = _random_priors(rng, mmdp.n) if random_priors else None
    _assert_simulate_matches_reference(
        mmdp, truth, policy, trace_seed, max_steps=max_steps, threshold=threshold, priors=priors
    )


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@pytest.mark.parametrize("pruned", [False, True])
def test_simulate_matches_reference_on_every_stop_reason(pruned):
    """Each stop reason, a stop on the priors alone at t = 0, and a trace ending
    at a new active set the policy has no entry for, against the reference."""
    recursive = _recursive_instance()
    policy = general_apd(recursive).policy
    if pruned:
        policy = DetectionPolicy(
            entries={k: v for k, v in policy.entries.items() if k != ((1, 2), "r")}
        )
    example = example1_mmdp(initial="2")
    reasons = set()
    for trace_seed in (*_TRACE_SEEDS, *range(20)):
        for mmdp, pol, truth, kwargs in [
            (recursive, policy, 1 + trace_seed % 3, {"max_steps": 300}),
            (recursive, policy, 1 + trace_seed % 3, {"max_steps": 3, "threshold": 0.6}),
            (example, bi_apd(example).policy, 1, {"priors": (0.95, 0.05), "threshold": 0.9}),
        ]:
            trace = _assert_simulate_matches_reference(mmdp, truth, pol, trace_seed, **kwargs)
            reasons.add(trace.stop_reason)
            if "priors" in kwargs:
                assert (trace.stop_reason, len(trace.steps)) == ("threshold", 1)
            if trace.stop_reason == "undetectable":
                assert trace.steps[-1].state == "r"
    assert "undetectable" in reasons if pruned else "undetectable" not in reasons
    assert {"threshold", "max_steps"} <= reasons


def test_simulate_checks_its_arguments_in_order():
    mmdp = identical_mmdp()
    policy = stationary_uniform_policy(mmdp)
    for truth, kwargs, message in [
        (7, {"threshold": 0.4, "max_steps": -1, "priors": (0.9, 0.2)},
         "threshold must lie in (0.5, 1), got 0.4"),
        (7, {"max_steps": -1, "priors": (0.9, 0.2)}, "max_steps must be nonnegative, got -1"),
        (7, {"priors": (0.9, 0.2)}, "priors: entries sum to"),
        (7, {}, "model index 7 outside 1..2"),
    ]:
        error = _assert_simulate_matches_reference(mmdp, truth, policy, 0, **kwargs)
        assert isinstance(error, ModelError)
        assert str(error).startswith(message)
    error = _assert_simulate_matches_reference(mmdp, 7, DetectionPolicy(entries={}), 0)
    assert isinstance(error, ModelError)
    error = _assert_simulate_matches_reference(mmdp, 1, DetectionPolicy(entries={}), 0)
    assert isinstance(error, ContractError)
    assert str(error) == "policy has no entry for the initial configuration ((1, 2), 'x')"


def _check_support_elimination(mmdp, trace):
    """Whether the trace reached a single model consistent with its observations.

    At every row the models with a positive posterior lie among those that
    give the observed prefix positive probability, read from the kernels'
    supports; and the trace ends at the first row where only one is left.
    """
    consistent = set(range(1, mmdp.n + 1))
    for row, nxt in itertools.zip_longest(trace.steps, trace.steps[1:]):
        positive = {m for m, p in enumerate(row.beliefs, 1) if p > 0.0}
        assert positive <= consistent, row
        if len(consistent) == 1:
            assert nxt is None, f"played on from {row} with a lone consistent model"
            assert trace.stop_reason == "threshold"
            return True
        if nxt is not None:
            consistent = {
                m for m in consistent
                if mmdp.model(m).prob(row.state, row.action, nxt.state) > 0.0
            }
    return False


@pytest.mark.filterwarnings("ignore:invalid value encountered in cast:RuntimeWarning")
@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["binary", "multi3", "multi4", "detectable"]),
    uniform=st.booleans(),
    trace_seed=st.integers(-(2**63), 2**63 - 1),
)
def test_simulate_eliminates_models_by_support_alone(seed, kind, uniform, trace_seed):
    """The run-time active set is the set of models the observed prefix allows."""
    rng = rng_for(seed)
    mmdp, policy = _random_case(rng, kind, "uniform" if uniform else "synthesized")
    policy = policy if policy.entries else stationary_uniform_policy(mmdp)  # none synthesized
    truth = int(rng.integers(1, mmdp.n + 1))
    trace = simulate(mmdp, truth, policy, trace_seed, max_steps=40, threshold=1 - 1e-9)
    _check_support_elimination(mmdp, trace)


def test_support_elimination_check_reaches_a_lone_model():
    """The property above is not vacuous: revealing transitions leave one model."""
    mmdp = example1_mmdp(initial="2")
    policy = bi_apd(mmdp).policy
    assert all(
        _check_support_elimination(mmdp, simulate(mmdp, truth, policy, seed, threshold=1 - 1e-12))
        for truth in (1, 2) for seed in range(10)
    )
