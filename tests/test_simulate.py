"""Runtime: belief updates, MAP rule, policy execution, Monte-Carlo batches."""

import csv
import dataclasses
import importlib
import io
import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpdetect.analysis import _compiled, error_bounds_binary, pairwise_bc_curve
from mdpdetect.binary import bi_apd
from mdpdetect.errors import ContractError, ImpossibleObservationError, ModelError
from mdpdetect.general import general_apd
from mdpdetect.graphs import Mec
from mdpdetect.models import Mmdp, mmdp_to_json, parse_mmdp, trial_rng, validate_mmdp
from mdpdetect.policy import (
    DetectionPolicy,
    PolicyEntry,
    members,
    parse_policy,
    single_entry_policy,
    stationary_uniform_policy,
)
from mdpdetect.simulate import (
    STOP_REASONS,
    BeliefState,
    _check_priors,
    _monte_carlo_trials,
    _Streams,
    batch_summary,
    belief_update,
    map_decide,
    monte_carlo_curve,
    monte_carlo_error,
    simulate,
    trace_to_csv,
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
    renamed,
    rng_for,
    sanitized,
    sqrt_half_mmdp,
)
from test_analysis import _random_instance
from test_cli import _fork_mmdp, _fork_policy
from test_general import _recursive_instance


@pytest.mark.parametrize("probs, problems", [
    ((0.25, 0.75), []),
    ((1.5, -0.5), ["negative posterior entry"]),
    ((0.5, 0.25), ["posteriors sum to 0.75"]),
    ((-0.5, 0.25), ["negative posterior entry", "posteriors sum to -0.25"]),
])
def test_belief_state_check_names_each_problem(probs, problems):
    assert BeliefState(probs).check() == problems


def test_belief_update_example1_values(example1):
    b = belief_update(BeliefState((0.5, 0.5)), "1", "a1", "2", example1)
    assert b.probs[0] == pytest.approx(7 / 11, abs=1e-12)
    assert b.probs[1] == pytest.approx(4 / 11, abs=1e-12)
    assert b.check() == []


def test_belief_update_revealing_transition_collapses(example1):
    b = belief_update(BeliefState((0.5, 0.5)), "5", "b5", "5", example1)
    assert b.probs == (1.0, 0.0)  # an exact zero: model 2 gives (5, b5, 5) probability zero
    rows = example1.rows
    lo, size, _ = rows.row("5", "b5")
    (mask,) = [rows.masks[e] for e in range(lo, lo + size) if rows.successors[e] == "5"]
    assert members(mask, (1, 2)) == (1,)


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

    The reference plays ``sanitized(mmdp, policy)``. The truths and the final
    beliefs of every trial are compared too, bit for bit, so that a change in
    the order of the belief sums shows even where it moves no MAP decision,
    and so are the stop reason and step of the kernel. Returns the
    reference's outcomes, or its error.
    """
    outcomes, stops = [], []
    try:
        expected = reference_monte_carlo_error(
            mmdp, sanitized(mmdp, policy), t, trials, seed, q, theta, outcomes, stops
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


# Keys at the edges of a 64-bit word: components of 2**63 and more, which a
# conversion through float64 would round, values next to 2**64, and negative
# or wider ints, which are masked first.
_EDGE_KEYS = (0, 1, 12345, 2**53 + 1, 2**63 - 1, 2**63, 2**63 + 1, 2**64 - 1, 2**64, -1, -(2**63))
_EDGE_STREAMS = (0, 5, 2**63, 2**64 - 1, -1)


def _stream_block(seeds, indices, offset, width, need=None):
    """The uniforms ``offset .. offset + width`` that ``_Streams`` gives each trial.

    Trial ``i`` has the key ``(seeds[i], indices[i])`` modulo 2**64 and draws
    ``need`` uniforms at most (``offset + width`` by default), which sets
    how wide a block it draws at a time.
    """
    mask = (1 << 64) - 1
    streams = _Streams(
        np.array([s & mask for s in seeds], np.uint64),
        np.array([i & mask for i in indices], np.uint64),
        offset + width if need is None else need,
    )
    streams.drawn = offset
    return np.column_stack([streams.next() for _ in range(width)])


@pytest.mark.parametrize("chunk", [None, 5])
def test_streams_match_trial_rng_on_edge_keys(chunk, monkeypatch):
    """All edge keys side by side, in one pass of counters or in passes of one or two trials.

    With ``chunk`` 5 a pass holds at most 5 counters, or one trial. 600
    uniforms take three blocks of these 60 trials.
    """
    if chunk is not None:
        monkeypatch.setattr(importlib.import_module("mdpdetect.simulate"), "_CHUNK", chunk)
    keys = list(itertools.product((*_EDGE_KEYS, 7 ^ 0x9E3779B97F4A7C15), _EDGE_STREAMS))
    expected = np.array([trial_rng(seed, index).random(664) for seed, index in keys])
    seeds, indices = zip(*keys)
    for offset in (0, 64):
        for width in (70, 7, 600):
            block = _stream_block(seeds, indices, offset, width)
            assert block.tolist() == expected[:, offset:offset + width].tolist(), (offset, width)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    seed=st.integers(-(2**65), 2**65),
    index=st.integers(-(2**64), 2**65),
    trials=st.integers(1, 300),
    offset=st.integers(0, 60).map(lambda k: 4 * k),
    width=st.integers(1, 300),
    extra=st.integers(0, 20_000),
)
def test_streams_match_trial_rng(seed, index, trials, offset, width, extra):
    """Trials on neighbouring streams, whatever the width of their blocks.

    The width depends on how many trials are live and how many uniforms
    each may still draw; with 64 trials or more a block is narrower than
    the longest stretch drawn here.
    """
    indices = [index + k for k in range(trials)]
    expected = [trial_rng(seed, i).random(offset + width)[offset:].tolist() for i in indices]
    block = _stream_block([seed] * trials, indices, offset, width, offset + width + extra)
    assert block.tolist() == expected


def test_philox_key_is_seed_and_stream_modulo_2_to_the_64():
    """Every key word is exact, so each seed and stream below 2**64 has its own stream."""
    mask = (1 << 64) - 1
    for seed in (*_EDGE_KEYS, 7 ^ 0x9E3779B97F4A7C15):
        for index in _EDGE_STREAMS:
            key = trial_rng(seed, index).bit_generator.state["state"]["key"]
            assert key.tolist() == [seed & mask, index & mask], (seed, index)
    # seeds that a float64 conversion would merge with their neighbours or with 0
    firsts = {trial_rng(s, 0).random() for s in (-1, 0, 2**63 + 1, 2**63 + 2)}
    assert len(firsts) == 4


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


class _Weighted(Mec):
    """A component that plays fixed action weights instead of the uniform choice."""

    __slots__ = ("weights",)

    def __init__(self, weights):
        super().__init__(weights, weights)
        self.weights = weights

    def distribution(self, state):
        return self.weights[state]


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
    weights = {"s": {"a": u_action, "b": 1.0 - u_action}, "x": {"z": 1.0}, "y": {"z": 1.0}}
    policy = single_entry_policy(PolicyEntry((1, 2), "s", reach={}, mecs=(_Weighted(weights),)))
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


def test_monte_carlo_rejects_a_negative_horizon_after_its_other_arguments():
    mmdp = identical_mmdp()
    policy = stationary_uniform_policy(mmdp)
    for args, error, message in [
        ((-1, 99, 0, (0.9, 0.2), (0.9, 0.2)), ContractError, "need at least 100 trials, got 99"),
        ((-1, 100, 0, (0.9, 0.2), (0.9, 0.2)), ModelError, "estimated priors: entries sum to"),
        ((-1, 100, 0, None, (0.9, 0.2)), ModelError, "true priors: entries sum to"),
        ((-1, 100, 0), ModelError, "horizon must be nonnegative"),
    ]:
        with pytest.raises(error) as raised:
            monte_carlo_error(mmdp, policy, *args)
        assert str(raised.value).startswith(message)
    # the text pairwise_bc_curve uses, and before the policy is consulted
    with pytest.raises(ModelError) as raised:
        monte_carlo_error(mmdp, DetectionPolicy(entries={}), -1, 100, 0)
    assert str(raised.value) == "horizon must be nonnegative"


def test_trace_csv_layout():
    mmdp = example1_mmdp(initial="2")
    policy = bi_apd(mmdp).policy
    trace = simulate(mmdp, 1, policy, seed=0)
    text = trace_to_csv(trace)
    lines = text.splitlines()
    assert lines[0] == "t,state,action,b_1,b_2"
    assert lines[1].startswith("0,2,b2,0.5,0.5")
    assert lines[-1].split(",")[2] == ""  # no action on the final row


def test_trace_csv_quotes_names_that_need_it():
    # a parsed model whose initial state holds a comma
    names = {"2": "a,b", "5": 'say "x"', "6": "two\nlines", "b2": "go,now"}
    mmdp = parse_mmdp(mmdp_to_json(renamed(example1_mmdp(initial="2"), lambda s: names.get(s, s),
                                           lambda a: names.get(a, a))))
    assert mmdp.initial == "a,b"
    policy = bi_apd(mmdp).policy
    seen = set()
    for truth, seed in itertools.product((1, 2), range(4)):
        trace = simulate(mmdp, truth, policy, seed=seed)
        text = trace_to_csv(trace)
        rows = list(csv.reader(io.StringIO(text, newline="")))
        assert [len(row) for row in rows] == [5] * (len(trace.steps) + 1)
        assert [row[1] for row in rows[1:]] == [step.state for step in trace.steps]
        assert [row[2] for row in rows[1:]] == [step.action or "" for step in trace.steps]
        assert text.splitlines()[1].startswith('0,"a,b",')
        seen.update(step.state for step in trace.steps)
        seen.update(step.action for step in trace.steps)
    assert set(names.values()) <= seen


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
    (mec,) = top.mecs
    for seed in range(20):
        trace = simulate(mmdp, 3, policy, seed=seed, threshold=1 - 1e-9, max_steps=300)
        inside = False
        for step in trace.steps:
            if step.state in mec.states:
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
    """The same summary, or the same error, as the frozen trial-by-trial batch
    on ``sanitized(mmdp, policy)``.

    Returns the reference's summary, or its error.
    """
    try:
        expected = reference_batch_summary(mmdp, sanitized(mmdp, policy), trials, seed, **kwargs)
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


def test_batch_episode_keys_wrap_past_2_to_the_64():
    """Trials 3, 4 and 5 of seed 2**64 - 3 play the episodes of seeds 0, 1 and 2."""
    mmdp = example1_mmdp(initial="2")
    policy = bi_apd(mmdp).policy
    summary = _assert_batch_matches_reference(mmdp, policy, 6, 2**64 - 3)
    assert summary["trials"] == 6 and summary["stop_reasons"]["threshold"] > 0
    for seed in range(3):
        assert simulate(mmdp, 1, policy, 2**64 + seed) == dataclasses.replace(
            simulate(mmdp, 1, policy, seed), seed=2**64 + seed
        )


@pytest.mark.parametrize("pruned", [False, True])
def test_batch_matches_reference_on_every_stop_reason(pruned):
    """Each stop reason, and a stop on the priors alone at t = 0, against the reference.

    The reasons are counted over all seeds together.
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


def _lockstep_calls(monkeypatch):
    """The truths each ``_lockstep`` call plays against, with its result, call by call."""
    module = importlib.import_module("mdpdetect.simulate")
    lockstep, calls = module._lockstep, []

    def recording(mmdp, policy, streams, truth, *args):
        result = lockstep(mmdp, policy, streams, truth, *args)
        calls.append((tuple(truth.tolist()), result))
        return result

    monkeypatch.setattr(module, "_lockstep", recording)
    return calls


def test_batch_draws_other_truths_for_every_seed(monkeypatch):
    """Each seed keys the truth stream ``seed ^ 0x9E3779B97F4A7C15`` exactly.

    Through float64, seeds 0..1023 all gave that stream one key, and so one
    truth vector.
    """
    calls = _lockstep_calls(monkeypatch)
    mmdp = identical_mmdp()
    policy = stationary_uniform_policy(mmdp)
    for seed in range(1024):
        batch_summary(mmdp, policy, 40, seed, max_steps=0)
    assert len({truths for truths, _ in calls}) == 1024


def test_batch_past_2_to_the_63_plays_a_stream_per_trial(monkeypatch):
    """Trial ``i`` plays the stream of seed ``seed + i`` even where that is 2**63 or more.

    Through float64, the 40 seeds from 2**63 + 5 rounded to one key, and so
    to one episode played 40 times.
    """
    calls = _lockstep_calls(monkeypatch)
    mmdp = example1_mmdp(initial="2")
    summary = _assert_batch_matches_reference(mmdp, bi_apd(mmdp).policy, 40, 2**63 + 5, truth=1)
    assert summary["stop_reasons"]["threshold"] == 40
    ((_, (_, stop_step, _)),) = calls
    assert len(set(stop_step.tolist())) > 1


def _compiles(monkeypatch):
    """The policies ``_CompiledController`` is built for, one per compile."""
    module = importlib.import_module("mdpdetect.analysis")
    compiled, built = module._CompiledController, []

    class Counting(compiled):
        def __init__(self, mmdp, policy, start):
            built.append(policy)
            super().__init__(mmdp, policy, start)

    monkeypatch.setattr(module, "_CompiledController", Counting)
    return built


def test_the_controller_is_compiled_once_per_model_and_policy(monkeypatch):
    built = _compiles(monkeypatch)
    mmdp = example1_mmdp(initial="2")
    policy = bi_apd(mmdp).policy
    for t in (0, 5, 30):
        monte_carlo_error(mmdp, policy, t, 100, seed=t)
    batch_summary(mmdp, policy, 40, seed=1)
    simulate(mmdp, 1, policy, seed=2)
    assert built == [policy]
    # a policy equal by value is another object: the slot holds one policy at a time
    twin = DetectionPolicy(entries=dict(policy.entries))
    assert twin == policy
    simulate(mmdp, 1, twin, seed=2)
    simulate(mmdp, 1, twin, seed=3)
    assert [id(p) for p in built] == [id(policy), id(twin)]
    simulate(mmdp, 1, policy, seed=2)
    assert [id(p) for p in built] == [id(policy), id(twin), id(policy)]
    # another model compiles its own table
    simulate(example1_mmdp(initial="2"), 1, policy, seed=2)
    assert len(built) == 4


def test_bc_and_monte_carlo_share_one_compile(monkeypatch):
    built = _compiles(monkeypatch)
    mmdp = example1_mmdp(initial="2")
    policy = bi_apd(mmdp).policy
    curves = pairwise_bc_curve(mmdp, policy, 20)
    monte_carlo_error(mmdp, policy, 5, 100, seed=1)
    batch_summary(mmdp, policy, 40, seed=1)
    assert pairwise_bc_curve(mmdp, policy, 20) == curves
    assert built == [policy]


def test_monte_carlo_curve_compiles_once_for_every_horizon(monkeypatch):
    horizons, q, theta = (0, 3, 10, 40), (0.3, 0.7), (0.6, 0.4)
    policy = bi_apd(example1_mmdp(initial="2")).policy
    # each horizon on a model of its own, so each call compiles its own table
    cold = [
        (t, *monte_carlo_error(example1_mmdp(initial="2"), policy, t, 200, 9, q, theta))
        for t in horizons
    ]
    built = _compiles(monkeypatch)
    assert monte_carlo_curve(example1_mmdp(initial="2"), policy, horizons, 200, 9, q, theta) == cold
    assert built == [policy]


def test_a_policy_without_the_initial_entry_is_refused_on_every_call(monkeypatch):
    built = _compiles(monkeypatch)
    mmdp = identical_mmdp()
    policy = DetectionPolicy(entries={})
    for _ in range(2):
        with pytest.raises(ContractError, match="initial configuration"):
            monte_carlo_error(mmdp, policy, 3, 100, seed=0)
        with pytest.raises(ContractError, match="initial configuration"):
            batch_summary(mmdp, policy, 10, seed=0)
        with pytest.raises(ContractError, match="initial configuration"):
            simulate(mmdp, 1, policy, seed=0)
    assert built == []
    assert mmdp._controller == []


def test_a_compiled_controller_is_read_only():
    mmdp = example1_mmdp(initial="2")
    policy = bi_apd(mmdp).policy
    simulate(mmdp, 1, policy, seed=0)
    ((held, table),) = mmdp._controller
    assert held is policy
    arrays = {k: v for k, v in vars(table).items() if isinstance(v, np.ndarray)}
    assert set(arrays) == {
        "count", "first", "halt", "act_cdf", "lo", "size", "last", "tlo", "target", "step_cdf"
    }
    for array in arrays.values():
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[0]
    assert isinstance(table.augs, tuple) and isinstance(table.actions, tuple)
    assert isinstance(table.errors, tuple) and len(table.errors) == len(table.augs)


def test_an_action_the_truth_has_no_row_for_fails_the_trial():
    """Model 1 is eliminated at z, where it has no row, and the policy plays on there.

    Model 1's row (s, a) stores z with probability 0.0 as its last successor
    and sums to 0.5, so the remainder moves to z and eliminates model 1,
    which is still the truth. The kernel once read the row before (z, a)
    there, and played z -> x, which no model allows.
    """
    states = ("s", "x", "z")
    actions = {s: ("a",) for s in states}
    kernels = [
        {("s", "a"): {"x": 0.5, "z": 0.0}, ("x", "a"): {"x": 1.0}},
        {("s", "a"): {"x": 0.5, "z": 0.5}, ("x", "a"): {"x": 1.0}, ("z", "a"): {"z": 1.0}},
        {("s", "a"): {"x": 0.5, "z": 0.5}, ("x", "a"): {"x": 1.0}, ("z", "a"): {"z": 1.0}},
    ]
    mmdp = Mmdp(models=tuple(mk_mdp(states, actions, k, "s", f"M{i}") for i, k in enumerate(kernels)))
    policy = DetectionPolicy(entries={
        ((1, 2, 3), "s"): PolicyEntry((1, 2, 3), "s", reach={"s": "a"}),
        ((2, 3), "z"): PolicyEntry((2, 3), "z", reach={"z": "a"}),
    })
    message = r"^model 1 has no row at \(z, a\)$"
    with pytest.raises(ModelError, match=message):
        simulate(mmdp, 1, policy, seed=1)
    # seed 0 moves to x instead, where the policy has no move
    trace = simulate(mmdp, 1, policy, seed=0)
    assert [(step.state, step.action) for step in trace.steps] == [("s", "a"), ("x", None)]
    with pytest.raises(ModelError, match=message):
        batch_summary(mmdp, policy, 8, 0, truth=1)


def _outcome(call):
    try:
        return call()
    except (ContractError, ImpossibleObservationError) as exc:
        return type(exc), str(exc)


def _played(model, policy, truth):
    """A Monte-Carlo estimate, batch JSON and a trace CSV, or the error each call
    raises; each call plays on the model ``model()`` gives."""
    return [
        _outcome(lambda: monte_carlo_error(model(), policy, 7, 100, 5)),
        _outcome(lambda: json.dumps(
            batch_summary(model(), policy, 40, 3, max_steps=6, threshold=0.9), sort_keys=True
        )),
        _outcome(lambda: trace_to_csv(
            simulate(model(), truth, policy, 11, max_steps=6, threshold=0.9)
        )),
    ]


def _assert_warm_equals_cold(mmdp, policy, truth):
    """Calls on one parsed model, after the first compile, give the bytes calls on a
    freshly parsed model give each, and so does the frozen trial-by-trial loop."""
    text = mmdp_to_json(mmdp)
    cold = _played(lambda: parse_mmdp(text), policy, truth)
    warm = parse_mmdp(text)
    assert [_played(lambda: warm, policy, truth) for _ in range(3)] == [cold] * 3
    reference = sanitized(mmdp, policy)
    assert cold == [
        _outcome(lambda: reference_monte_carlo_error(mmdp, reference, 7, 100, 5)),
        _outcome(lambda: json.dumps(
            reference_batch_summary(mmdp, reference, 40, 3, max_steps=6, threshold=0.9),
            sort_keys=True,
        )),
        _outcome(lambda: trace_to_csv(
            reference_simulate(mmdp, truth, reference, 11, max_steps=6, threshold=0.9)
        )),
    ]


def test_warm_results_equal_cold_ones_on_example1():
    mmdp = example1_mmdp(initial="2")
    _assert_warm_equals_cold(mmdp, bi_apd(mmdp).policy, 1)
    for initial in ("1", "2"):
        mmdp = example1_mmdp(initial=initial)
        _assert_warm_equals_cold(mmdp, stationary_uniform_policy(mmdp), 2)


@settings(max_examples=60, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["binary", "multi3", "multi4", "detectable"]),
    policy_kind=st.sampled_from(["synthesized", "uniform", "synthesized elsewhere", "truncated"]),
)
def test_warm_results_equal_cold_ones_on_random_instances(seed, kind, policy_kind):
    """Also for the sanitized policy, which the kernel compiles as a policy of its own."""
    rng = rng_for(seed)
    mmdp, policy = _random_case(rng, kind, policy_kind)
    truth = int(rng.integers(1, mmdp.n + 1))
    _assert_warm_equals_cold(mmdp, policy, truth)
    _assert_warm_equals_cold(mmdp, sanitized(mmdp, policy), truth)


def _empty_component_case():
    """Three models, and a policy whose entry for models 2 and 3 cannot act.

    At ``s`` the action ``go`` stays at ``s`` under model 1, while models 2
    and 3 may move to ``u``, which rules model 1 out. The entry for (2, 3) at
    ``u`` commits to a component that holds ``u`` but lists no actions there.
    """
    states, actions = ("s", "u"), {"s": ("go",), "u": ("stay",)}
    rows = ({"s": 1.0}, {"s": 0.5, "u": 0.5}, {"s": 0.4, "u": 0.6})
    mmdp = Mmdp(models=tuple(
        mk_mdp(states, actions, {("s", "go"): row, ("u", "stay"): {"u": 1.0}}, "s", f"M{k}")
        for k, row in enumerate(rows, 1)
    ))
    empty = Mec(("u",), {})
    policy = DetectionPolicy(entries={
        ((1, 2, 3), "s"): PolicyEntry((1, 2, 3), "s", reach={"s": "go"}),
        ((2, 3), "u"): PolicyEntry((2, 3), "u", reach={}, mecs=(empty,)),
    })
    return mmdp, policy


def test_an_empty_component_stops_only_the_trials_that_reach_it():
    """A component that plays nothing at ``u`` is a missing move there, like any other.

    No trial under truth 1 reaches ``u``, so its episodes equal the frozen
    reference on the policy as it is. Under truth 2 a trial that reaches
    ``u`` stops there as "undetectable", and the coefficient DP raises
    ``ContractError`` once a pair's mass reaches ``u``.
    """
    mmdp, policy = _empty_component_case()
    assert sanitized(mmdp, policy) is not policy
    for seed in range(10):
        assert simulate(mmdp, 1, policy, seed) == reference_simulate(mmdp, 1, policy, seed)
    assert batch_summary(mmdp, policy, 40, 0, truth=1) == reference_batch_summary(
        mmdp, policy, 40, 0, truth=1
    )
    traces = [_assert_simulate_matches_reference(mmdp, 2, policy, seed) for seed in range(10)]
    stopped = [trace for trace in traces if trace.stop_reason == "undetectable"]
    assert stopped and all(trace.steps[-1].state == "u" for trace in stopped)
    summary = _assert_batch_matches_reference(mmdp, policy, 40, 0, truth=2)
    assert summary["stop_reasons"]["undetectable"] > 0
    _assert_batch_matches_reference(mmdp, policy, 40, 0, priors=(0.9, 0.05, 0.05))
    assert len(pairwise_bc_curve(mmdp, policy, 1)[(2, 3)].values) == 2
    with pytest.raises(ContractError, match=r"plays nothing at 'u'"):
        pairwise_bc_curve(mmdp, policy, 2)


@pytest.mark.parametrize("mecs, reach", [
    ([], {"s0": "zz"}),
    ([{"s0": ["a", "zz"], "x": ["a"], "y": ["a"]}], {}),
])
def test_an_unoffered_action_is_a_missing_move(mecs, reach):
    """A policy that plays ``zz`` at ``s0``, which the model does not offer.

    The coefficient DP once dropped the mass of ``zz``, a false claim of
    detection: B = 1, 0, 0, ... for the reach action, and B(1) = 0.477 for
    the component. The episodes once raised ``AssertionError``. Both now
    find no move at ``s0``.
    """
    mmdp, policy = _fork_mmdp(), parse_policy(_fork_policy(reach, mecs))
    assert pairwise_bc_curve(mmdp, policy, 0)[(1, 2)].values == (1.0,)
    with pytest.raises(ContractError, match=r"plays 'zz' at 's0', which does not offer it$"):
        pairwise_bc_curve(mmdp, policy, 3)
    for truth in (1, 2):
        trace = _assert_simulate_matches_reference(mmdp, truth, policy, truth)
        assert (trace.stop_reason, len(trace.steps)) == ("undetectable", 1)
    summary = _assert_batch_matches_reference(mmdp, policy, 40, 0)
    assert summary["stop_reasons"] == {"threshold": 0, "max_steps": 0, "undetectable": 40}
    _assert_monte_carlo_matches_reference(mmdp, policy, 3, 100, 0)
    _, _, stop_step, stop_code = _monte_carlo_trials(mmdp, policy, 3, 100, 0, (0.5, 0.5), (0.5, 0.5))
    assert set(stop_code.tolist()) == {STOP_REASONS.index("undetectable")}
    assert not stop_step.any()


def test_a_model_without_the_row_of_a_played_action_is_a_missing_move():
    """Model 2 of a hand-built instance has no row for ``b`` at ``x``.

    Under the uniform policy the controller has no move at ``x`` while model 2
    is active: the coefficient DP raises there, and a trace that reaches
    ``x`` stops there, where truth 2 once raised ``AssertionError``.
    """
    states, actions = ("s0", "x", "y"), {"s0": ("a",), "x": ("a", "b"), "y": ("a",)}
    loops = {("x", "a"): {"x": 1.0}, ("y", "a"): {"y": 1.0}}
    k1 = {**loops, ("s0", "a"): {"x": 0.3, "y": 0.7}, ("x", "b"): {"x": 1.0}}
    k2 = {**loops, ("s0", "a"): {"x": 0.6, "y": 0.4}}
    mmdp = Mmdp(models=(mk_mdp(states, actions, k1, "s0", "M1"), mk_mdp(states, actions, k2, "s0", "M2")))
    assert validate_mmdp(mmdp) == ["model M2: missing distribution at (x, b)"]
    policy = stationary_uniform_policy(mmdp)
    assert pairwise_bc_curve(mmdp, policy, 1)[(1, 2)].values == (1.0, math.sqrt(0.18) + math.sqrt(0.28))
    with pytest.raises(ContractError, match=r"plays 'b' at 'x', which does not offer it$"):
        pairwise_bc_curve(mmdp, policy, 2)
    traces = [_assert_simulate_matches_reference(mmdp, 2, policy, seed, max_steps=20) for seed in range(10)]
    assert {(trace.stop_reason, trace.steps[-1].state) for trace in traces} == {
        ("undetectable", "x"), ("max_steps", "y")
    }


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
    """The same trace and CSV bytes, or the same error, as the frozen episode loop
    on ``sanitized(mmdp, policy)``.

    Returns the reference's trace, or its error.
    """
    try:
        expected = reference_simulate(mmdp, truth, sanitized(mmdp, policy), seed, **kwargs)
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


def _corridor_instance(reveal=False):
    """A corridor of one-action states ``s0 → s1 → s2`` into a two-action component ``{c, d}``.

    With ``reveal`` the first step already tells the models apart: model 1
    moves to ``s1`` and model 2 to ``s2``.
    """
    states = ("s0", "s1", "s2", "c", "d")
    actions = {"s0": ("a",), "s1": ("a",), "s2": ("a",), "c": ("l", "r"), "d": ("l", "r")}
    shared = {
        ("s0", "a"): {"s1": 1.0}, ("s1", "a"): {"s2": 1.0}, ("s2", "a"): {"c": 1.0},
        ("c", "r"): {"c": 0.5, "d": 0.5}, ("d", "l"): {"c": 1.0},
    }
    k1 = {**shared, ("c", "l"): {"c": 0.7, "d": 0.3}, ("d", "r"): {"c": 0.2, "d": 0.8}}
    k2 = {**shared, ("c", "l"): {"c": 0.4, "d": 0.6}, ("d", "r"): {"c": 0.5, "d": 0.5}}
    if reveal:
        k2[("s0", "a")] = {"s2": 1.0}
    return Mmdp(models=(mk_mdp(states, actions, k1, "s0", "M1"), mk_mdp(states, actions, k2, "s0", "M2")))


def _action_searches(monkeypatch):
    """Per ``_pick`` call on the controller's per-state action table, how many trials it searched."""
    module = importlib.import_module("mdpdetect.simulate")
    pick, searched = module._pick, []

    def recording(cdf, at, u, last):
        if cdf.ndim == 2:  # act_cdf; step_cdf has a model axis too
            searched.append(len(u))
        return pick(cdf, at, u, last)

    monkeypatch.setattr(module, "_pick", recording)
    return searched


def test_the_action_search_runs_only_where_a_trial_has_a_choice(monkeypatch):
    """Trials cross three one-action states before a component with two actions at each state.

    The kernel skips the action search on the corridor and searches in the
    component, and every result equals the frozen trial-by-trial loops.
    """
    mmdp = _corridor_instance()
    policy = general_apd(mmdp).policy
    entry = policy.entry((1, 2), "s0")
    assert entry.reach == {"s0": "a", "s1": "a", "s2": "a"} and len(entry.mecs) == 1
    searched = _action_searches(monkeypatch)
    _assert_monte_carlo_matches_reference(mmdp, policy, 3, 100, 5)
    assert searched == []  # three steps on the corridor: no trial has a choice
    _assert_monte_carlo_matches_reference(mmdp, policy, 12, 100, 5)
    # nine steps in the component, where every trial chooses, for the
    # estimate and again for the outcomes the helper compares
    assert searched == [100] * 18
    for seed in range(4):
        _assert_simulate_matches_reference(mmdp, 1 + seed % 2, policy, seed, max_steps=20)
    summary = _assert_batch_matches_reference(mmdp, policy, 40, 3, max_steps=30, threshold=0.9)
    assert summary["stop_reasons"]["threshold"] > 0


@pytest.mark.parametrize("case", ["no move", "lone survivor"])
def test_every_live_trial_stops_at_the_same_step(case, monkeypatch):
    """All trials stop together, leaving the step with no live trial and no action slots.

    Without a reach action at ``s2`` every trial finds no move there after
    two steps; on the revealing corridor every trial keeps one model after
    its first step.
    """
    if case == "no move":
        mmdp = _corridor_instance()
        policy = general_apd(mmdp).policy
        policy = DetectionPolicy(entries={
            key: dataclasses.replace(e, reach={s: a for s, a in e.reach.items() if s != "s2"})
            for key, e in policy.entries.items()
        })
        reason, step = "undetectable", 2
    else:
        mmdp = _corridor_instance(reveal=True)
        policy = stationary_uniform_policy(mmdp)
        reason, step = "threshold", 1
    searched = _action_searches(monkeypatch)
    outcomes = _assert_monte_carlo_matches_reference(mmdp, policy, 10, 100, 7)
    assert not isinstance(outcomes, Exception)
    stops = _monte_carlo_trials(mmdp, policy, 10, 100, 7, (0.5, 0.5), (0.5, 0.5))[2:]
    assert stops[0].tolist() == [step] * 100
    assert [STOP_REASONS[c] for c in stops[1]] == [reason] * 100
    summary = _assert_batch_matches_reference(mmdp, policy, 40, 2, max_steps=10)
    assert summary["stop_reasons"][reason] == 40
    for seed in range(3):
        trace = _assert_simulate_matches_reference(mmdp, 1 + seed % 2, policy, seed, max_steps=10)
        assert (trace.stop_reason, len(trace.steps)) == (reason, step + 1)
    assert searched == []


def _skewed_instance():
    """Three models whose row at ``(s0, a)`` has 44 successors in all, beside rows of one or two.

    Model 1 lists ``w00 .. w41`` with ``w05`` at an explicit 0.0, so its row is
    short (41/42 of the mass) and its last successor takes the rest; model 2
    lists ``w02 .. w43`` and model 3 ``w00 .. w41`` again with other masses, so
    the last successor differs by model. At ``y`` model 3 lists a key the
    others lack. Every other row keeps one support for all models.
    """
    wide = [f"w{i:02d}" for i in range(44)]
    states = ("s0", "x", "y", *wide)
    actions = {"s0": ("a", "b"), "x": ("a", "b"), "y": ("a",), **{w: ("a",) for w in wide}}
    kernels = []
    for m in range(3):
        keys = wide[2:] if m == 1 else wide[:42]
        row = {w: (0.0 if m == 0 and w == "w05" else (1.0 + m * (i % 3)) / 42) for i, w in enumerate(keys)}
        if m == 2:
            row = {w: p / sum(row.values()) for w, p in row.items()}
        kernel = {
            ("s0", "a"): row,
            ("s0", "b"): {"x": 0.5, "y": 0.5} if m != 1 else {"x": 0.3, "y": 0.7},
            ("x", "a"): {"s0": 1.0},
            ("x", "b"): {"x": 0.2 + 0.2 * m, "y": 0.8 - 0.2 * m},
            ("y", "a"): {"s0": 0.9, "y": 0.1} if m == 2 else {"s0": 1.0},
            **{(w, "a"): {"s0": 0.5 + 0.1 * m, "x": 0.5 - 0.1 * m} for w in wide},
        }
        kernels.append(kernel)
    return Mmdp(models=tuple(mk_mdp(states, actions, k, "s0", f"M{m}") for m, k in enumerate(kernels, 1)))


def test_a_wide_row_beside_narrow_ones_plays_as_the_reference_loops():
    """The padded tables of a 44-wide row and rows of one or two successors, with a
    short row, a 0.0 entry and a last successor that differs by model."""
    mmdp = _skewed_instance()
    lo, size, last = mmdp.rows.row("s0", "a")
    assert (size, last) == (44, (41, 43, 41))
    for policy in (stationary_uniform_policy(mmdp), general_apd(mmdp).policy):
        table = _compiled(mmdp, policy)
        assert table.step_cdf.shape[2] == 44 and table.size.min() == 1
        for seed in range(3):
            outcomes = _assert_monte_carlo_matches_reference(mmdp, policy, 40, 200, seed)
            assert not isinstance(outcomes, Exception)
            _assert_batch_matches_reference(mmdp, policy, 60, seed, max_steps=40, threshold=0.9)
            for truth in (1, 2, 3):
                _assert_simulate_matches_reference(mmdp, truth, policy, seed, max_steps=60)
