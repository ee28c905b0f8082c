"""Model core: parsing, validation, serialization, row tables."""

import dataclasses
import gc
import json
import math
import tracemalloc
from types import MappingProxyType
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpdetect.analysis import _compiled, _running_sums
from mdpdetect.binary import bi_apd
from mdpdetect.errors import ModelError
from mdpdetect.general import general_apd
from mdpdetect.graphs import Mec, bit_indices, model_graph
from mdpdetect.models import (
    History,
    Mmdp,
    mmdp_to_json,
    parse_mmdp,
    serialize_mmdp,
    support,
    validate_mmdp,
)
from mdpdetect.policy import (
    DetectionPolicy,
    PolicyEntry,
    active_set,
    entry_as_stationary,
    parse_policy,
    policy_to_json,
    stationary_uniform_policy,
)
from mdpdetect.scenarios import RecSysSpec, gen_recsys

from conftest import (
    FrozenRows,
    ReferenceSamplingRows,
    ReferenceSupportRows,
    example1_mmdp,
    frozen_parse_mmdp,
    mk_mdp,
    random_binary_mmdp,
    random_multi_mmdp,
    random_sparse_cut_mmdp,
    reference_mmdp_to_json,
    reference_policy_to_json,
    reference_support_masks,
    renamed,
    rng_for,
)
from test_simulate import _leaky


MINIMAL_DOC = {
    "states": ["x"],
    "actions": {"x": ["a"]},
    "initial": "x",
    "models": [
        {"name": "M1", "delta": [{"from": "x", "action": "a", "to": "x", "p": 1.0}]},
        {"name": "M2", "delta": [{"from": "x", "action": "a", "to": "x", "p": 1.0}]},
    ],
}


def test_parse_minimal_self_loop():
    mmdp = parse_mmdp(json.dumps(MINIMAL_DOC))
    assert mmdp.n == 2
    assert mmdp.states == ("x",)
    assert mmdp.models[0].row("x", "a") == {"x": 1.0}
    assert validate_mmdp(mmdp) == []


def test_parse_example1_document(example1):
    doc = serialize_mmdp(example1)
    parsed = parse_mmdp(json.dumps(doc))
    assert parsed.states == example1.states
    assert parsed.models[0].row("1", "a1") == {"2": 0.7, "3": 0.3}
    assert parsed.models[1].row("5", "b5") == {"7": 1.0}


def test_parse_drops_zero_probability_entries():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["models"][0]["delta"].append({"from": "x", "action": "a", "to": "x2", "p": 0.0})
    doc["states"].append("x2")
    doc["actions"]["x2"] = ["a"]
    for m in doc["models"]:
        m["delta"].append({"from": "x2", "action": "a", "to": "x2", "p": 1.0})
    mmdp = parse_mmdp(doc)
    assert "x2" not in mmdp.models[0].row("x", "a")
    assert support(mmdp.models[0].row("x", "a")) == {"x"}


def test_parse_probability_sum_violation_names_row():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["models"][0]["delta"][0]["p"] = 0.99
    with pytest.raises(ModelError, match=r"M1.*\(x, a\).*0\.99"):
        parse_mmdp(doc)


@pytest.mark.parametrize(
    "mutate, path_fragment",
    [
        (lambda d: d.pop("states"), "states"),
        (lambda d: d["models"][0]["delta"][0].pop("p"), "models[0].delta[0].p"),
        (lambda d: d["models"][0]["delta"][0].update(p="high"), "models[0].delta[0].p"),
        (lambda d: d["models"][1].pop("delta"), "models[1].delta"),
        (lambda d: d.update(actions=[]), "actions"),
    ],
)
def test_parse_schema_violations_name_offending_path(mutate, path_fragment):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    mutate(doc)
    with pytest.raises(ModelError) as err:
        parse_mmdp(doc)
    assert path_fragment in str(err.value)


@pytest.mark.parametrize(
    "entry, message",
    [
        (["x", "a", "x", 1.0], "models[0].delta[0]: expected an object"),
        ({"from": True, "action": "a", "to": "x", "p": "high"}, "models[0].delta[0].from: expected a string"),
        ({"from": "x", "action": 3, "to": "x", "p": 1.0}, "models[0].delta[0].action: expected a string"),
        ({"from": "x", "action": "a", "p": 1.0}, "models[0].delta[0].to: missing required field"),
        ({"from": "x", "action": "a", "to": "x", "p": True}, "models[0].delta[0].p: expected a number"),
        ({"from": "x", "action": "a", "to": "x"}, "models[0].delta[0].p: expected a number"),
    ],
)
def test_parse_delta_entry_messages_in_check_order(entry, message):
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["models"][0]["delta"][0] = entry
    with pytest.raises(ModelError) as err:
        parse_mmdp(doc)
    assert str(err.value) == message


def test_parse_accepts_delta_entries_that_are_not_dicts():
    class Name(str):
        pass

    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["models"][0]["delta"][0] = MappingProxyType({"from": Name("x"), "action": "a", "to": "x", "p": 1})
    mmdp = parse_mmdp(doc)
    assert mmdp.models[0].row("x", "a") == {"x": 1.0}
    assert serialize_mmdp(mmdp) == serialize_mmdp(parse_mmdp(MINIMAL_DOC))


def test_parse_duplicate_delta_entry_rejected():
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["models"][0]["delta"].append({"from": "x", "action": "a", "to": "x", "p": 0.5})
    with pytest.raises(ModelError, match="duplicate"):
        parse_mmdp(doc)


def test_sampling_rows_lay_out_every_model_over_the_sorted_successors(example1):
    rows = example1.rows
    lo, size, last = rows.row("2", "b2")  # M1: 2 -> 0.5, 5 -> 0.5; M2: 2 -> 0.5, 6 -> 0.5
    assert rows.successors[lo : lo + size] == ["2", "5", "6"]
    assert rows.lik[lo : lo + size].tolist() == [[0.5, 0.5], [0.5, 0.0], [0.0, 0.5]]
    table = _compiled(example1, stationary_uniform_policy(example1))
    g = table.lo.tolist().index(lo)  # the uniform controller plays b2 at 2
    assert table.step_cdf[2 * g : 2 * g + 2, :size].T.tolist() == [[0.5, 0.5], [1.0, 0.5], [1.0, 1.0]]
    assert (table.step_cdf[2 * g : 2 * g + 2, size:] == np.inf).all()
    assert last == (1, 2)
    assert rows.row("2", "b2") == (lo, size, last)  # built once
    _, size2, last2 = rows.row("2", "nope")  # no model has the pair: an empty row
    assert (size2, last2) == (0, (-1, -1))


@settings(max_examples=80, derandomize=True)
@given(
    n_models=st.integers(2, 4),
    n_states=st.integers(2, 6),
    leaky=st.booleans(),
    undeclared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_sampling_table_matches_the_frozen_lazy_rows(n_models, n_states, leaky, undeclared, seed):
    """Row for row what the lazy caches built, whatever the layout.

    Covers rows ending in an explicit ``"~": 0.0`` (``_leaky``), a kernel row
    under an action no state declares, in one model only, and pairs no model
    has.
    """
    mmdp = random_multi_mmdp(rng_for(seed), n_models=n_models, n_states=n_states)
    if leaky:
        mmdp = _leaky(mmdp)
    if undeclared:
        first = mmdp.models[0]
        kernel = {**first.kernel, ("s0", "zz"): {"s1": 0.5, "s0": 0.5}}
        mmdp = Mmdp(models=(dataclasses.replace(first, kernel=kernel), *mmdp.models[1:]))
    rows, frozen = mmdp.rows, ReferenceSamplingRows(mmdp.models)
    known = {(s, a) for s in mmdp.states for a in mmdp.actions[s]}
    known.update(key for m in mmdp.models for key in m.kernel)
    for s, a in [*sorted(known), ("s0", "nope"), ("nowhere", "a0")]:
        lo, size, last = rows.row(s, a)
        flo, fsize, flast = frozen.row(s, a)
        assert (size, last) == (fsize, flast)
        successors = rows.successors[lo : lo + size]
        assert successors == frozen.successors[flo : flo + fsize]
        masks = reference_support_masks(mmdp, s, a)
        assert rows.masks[lo : lo + size] == [masks.get(t, 0) for t in successors]
        assert rows.lik[lo : lo + size].tolist() == frozen.lik[flo : flo + fsize].tolist()
        sums = _running_sums(rows.lik, np.array([lo]), np.array([size]))
        assert sums.shape == (n_models, -(-size // 8) * 8)
        assert sums[:, :size].T.tolist() == frozen.cdf[flo : flo + fsize].tolist()
        assert (sums[:, size:] == np.inf).all()
    # the known rows, each once, and nothing else
    total = sum(rows.row(s, a)[1] for s, a in known)
    assert len(rows.successors) == len(rows.masks) == len(rows.lik) == total
    with pytest.raises(ValueError, match="read-only"):
        rows.lik[0, 0] = 0.5


@settings(max_examples=120, derandomize=True)
@given(
    n_models=st.integers(2, 4),
    n_states=st.integers(2, 6),
    rename=st.booleans(),
    leaky=st.booleans(),
    undeclared=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_table_matches_the_frozen_support_rows(n_models, n_states, rename, leaky, undeclared, seed):
    """The fields synthesis reads equal those of the support rows it read before.

    Covers states and actions that sort out of declared order
    (``renamed``), rows ending in an explicit ``"~": 0.0`` (``_leaky``), and
    kernel rows no state declares, at a state and outside the states.
    """
    mmdp = random_multi_mmdp(rng_for(seed), n_models=n_models, n_states=n_states)
    if rename:
        mmdp = renamed(mmdp, lambda s: f"q{9 - int(s[1:])}", {"a0": "z", "a1": "a"}.get)
    if leaky:
        mmdp = _leaky(mmdp)
    if undeclared:
        first, s0 = mmdp.models[0], mmdp.states[0]
        kernel = {**first.kernel, (s0, "zz"): {s0: 1.0}, ("nowhere", "a0"): {"nowhere": 1.0}}
        mmdp = Mmdp(models=(dataclasses.replace(first, kernel=kernel), *mmdp.models[1:]))
    rows, frozen = mmdp.rows, ReferenceSupportRows(mmdp)
    assert (rows.names, rows.index, rows.first) == (frozen.names, frozen.index, frozen.first)
    assert (rows.actions, rows.groups) == (frozen.actions, frozen.groups)


@pytest.mark.parametrize("n_models", [2, 3])
def test_a_state_without_an_action_list_is_a_model_error(n_models):
    """A hand-built, unvalidated instance whose state ``y`` has no entry in ``actions``.

    Synthesis, the model writers and the policies built from the model's
    actions refuse it, naming the state; run time reads ``y`` as a state
    with no rows of its own, as the frozen lazy rows do.
    """
    kernel = {("x", "a"): {"x": 0.5, "y": 0.5}, ("y", "a"): {"y": 1.0}}
    mm = Mmdp(models=tuple(mk_mdp(("x", "y"), {"x": ("a",)}, kernel, "x") for _ in range(n_models)))
    played = PolicyEntry(active_set(range(1, n_models + 1)), "x", reach={"x": "a"})
    for entry in [
        lambda m: model_graph(m, 1), general_apd, serialize_mmdp, mmdp_to_json,
        stationary_uniform_policy, lambda m: entry_as_stationary(played, m),
    ] + [bi_apd] * (n_models == 2):
        with pytest.raises(ModelError, match="state 'y' has no entry in actions"):
            entry(mm)
    rows, i = mm.rows, mm.rows.index["y"]
    assert rows.first[i] == rows.first[i + 1] == len(rows.actions)
    lo, size, last = rows.row("y", "a")
    assert (size, last) == ReferenceSamplingRows(mm.models).row("y", "a")[1:]
    assert rows.successors[lo : lo + size] == ["y"]


def test_roundtrip_is_identity(example1):
    text = mmdp_to_json(example1)
    parsed = parse_mmdp(text)
    assert serialize_mmdp(parsed) == serialize_mmdp(example1)
    # probabilities survive bit-exactly through JSON text
    again = parse_mmdp(mmdp_to_json(parsed))
    for m_a, m_b in zip(parsed.models, again.models):
        assert m_a.kernel == m_b.kernel


def test_roundtrip_random_instances():
    for seed in range(10):
        mmdp = random_binary_mmdp(rng_for(seed))
        assert serialize_mmdp(parse_mmdp(mmdp_to_json(mmdp))) == serialize_mmdp(mmdp)


# name fragments json escapes: non-ASCII (also beyond the BMP), quotes,
# backslashes, slashes, control characters, a line separator and commas
_AFFIX = st.text(
    st.sampled_from(["é", "Ω", "\U0001f600", '"', "\\", "/", "\x00", "\x1f", "\n", "\u2028", ",", "a"]),
    max_size=4,
)


def _with_probability(mmdp, p):
    """``mmdp`` with every certain row giving the int 1, or with ``states[0]`` added at ``p`` to every row."""
    first = mmdp.states[0]

    def edit(row):
        if p == 1:
            return {t: 1 if q == 1.0 else q for t, q in row.items()}
        return row if first in row else {**row, first: p}

    return Mmdp(models=tuple(
        dataclasses.replace(m, kernel={k: edit(row) for k, row in m.kernel.items()}) for m in mmdp.models
    ))


def _side_entries(mmdp):
    """A policy of entries with an empty reach, with no components, and with neither."""
    s, t = mmdp.states[0], mmdp.states[-1]
    component = Mec((s,), {s: mmdp.actions[s]})
    entries = (
        PolicyEntry(active=(1,), entry_state=s, reach={}, mecs=(component,)),
        PolicyEntry(active=(2,), entry_state=s, reach={t: mmdp.actions[t][0]}),
        PolicyEntry(active=(1, 2), entry_state=t, reach={}),
    )
    return DetectionPolicy(entries={(e.active, e.entry_state): e for e in entries})


def _shared_action_lists(mmdp):
    """Several entries whose components give many states the same action list."""
    whole = Mec(mmdp.states, {s: mmdp.actions[s] for s in mmdp.states})
    head = Mec(mmdp.states[:2], {s: mmdp.actions[s][:1] for s in mmdp.states[:2]})
    entries = [
        PolicyEntry(active=active, entry_state=s, reach={t: mmdp.actions[t][-1]}, mecs=(whole, head))
        for active in ((1,), (1, 2)) for s, t in zip(mmdp.states, reversed(mmdp.states))
    ]
    return DetectionPolicy(entries={(e.active, e.entry_state): e for e in entries})


def _check_writers(mmdp, policies, round_trip=True):
    text = mmdp_to_json(mmdp)
    assert text == reference_mmdp_to_json(mmdp)
    if round_trip:
        assert serialize_mmdp(parse_mmdp(text)) == serialize_mmdp(mmdp)
    for policy in policies:
        text = policy_to_json(policy)
        assert text == reference_policy_to_json(policy)
        if round_trip:
            assert parse_policy(text).entries == policy.entries


@settings(max_examples=150)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["binary", "multi"]),
    prefix=_AFFIX,
    suffix=_AFFIX,
    odd_probability=st.sampled_from([None, 1, 5e-324, 1e-17]),
)
def test_writers_match_json_dumps(seed, kind, prefix, suffix, odd_probability):
    """The model and policy writers give json.dumps(..., indent=2, sort_keys=True) byte for byte.

    On random instances with escaped names and odd probabilities, their
    synthesized policies, the uniform baseline and hand-built entries, some
    of whose components share action lists; every file parses back to what
    was written.
    """
    rng = rng_for(seed)
    mmdp = random_binary_mmdp(rng) if kind == "binary" else random_multi_mmdp(rng, n_models=3)
    mmdp = renamed(mmdp, lambda s: prefix + s + suffix, lambda a: suffix + a + prefix)
    if odd_probability is not None:
        mmdp = _with_probability(mmdp, odd_probability)
    assert validate_mmdp(mmdp) == []
    policies = [
        stationary_uniform_policy(mmdp), _side_entries(mmdp), _shared_action_lists(mmdp),
        DetectionPolicy(entries={}),
    ]
    outcome = general_apd(mmdp)
    if outcome.exists:
        policies.append(outcome.policy)
    _check_writers(mmdp, policies)


def _two_state(kernel, states=("x", "y"), actions=None, name="M1"):
    actions = {s: ("a",) for s in states} if actions is None else actions
    return mk_mdp(states, actions, kernel, states[0], name)


@pytest.mark.parametrize("models", [
    # unvalidated: a state without actions, and a model with an empty kernel
    (_two_state({("x", "a"): {"x": 1.0}}, actions={"x": ("a",), "y": ()}),
     _two_state({}, actions={"x": ("a",), "y": ()}, name="M2")),
    # values json renders its own way: ints and bools, NaN and infinities, a
    # numpy float, names that are not strings
    (_two_state({("x", "a"): {"x": 1, "y": True}, ("y", "a"): {"x": float("nan")}}, name=3),
     _two_state({("x", "a"): {"x": float("inf")}, ("y", "a"): {"y": float("-inf")}}, name=None)),
    (_two_state({("x", "a"): {"y": np.float64(0.25)}, ("y", "a"): {"x": -0.0}}, name=["M", 2.5]),
     _two_state({("x", "a"): {"x": 1.0}}, name="M2")),
    (_two_state({(9, "a"): {10: 1.0}, (10, "a"): {9: 0.5, 10: 0.5}}, states=(10, 9)),
     _two_state({(9, "a"): {9: 1.0}, (10, "a"): {10: 1.0}}, states=(10, 9), name="M2")),
    (_two_state({(None, "a"): {None: 1.0}}, states=(None,)),),
    (_two_state({(True, "a"): {True: 1.0}}, states=(True,)),),
    (_two_state({(float("nan"), "a"): {}}, states=(float("nan"),)),),
])
def test_writers_match_json_dumps_on_values_outside_the_schema(models):
    mmdp = Mmdp(models=models)
    # a component state without an actions entry is written with no actions,
    # which the parser refuses
    entry = PolicyEntry(active=(1,), entry_state="s", reach={}, mecs=(Mec(mmdp.states[:1], {}),))
    bare = DetectionPolicy(entries={((1,), "s"): entry})
    _check_writers(mmdp, [stationary_uniform_policy(mmdp), bare], round_trip=False)
    refusal = r"^entries\[0\]\.mecs\[0\]\.states: expected state -> nonempty action list$"
    with pytest.raises(ModelError, match=refusal):
        parse_policy(policy_to_json(bare))


def test_writers_refuse_what_json_refuses():
    mmdp = Mmdp(models=(_two_state({("x", "a"): {"x": 1.0}}, name=object()),))
    for write in (mmdp_to_json, reference_mmdp_to_json):
        with pytest.raises(TypeError):
            write(mmdp)


@pytest.mark.parametrize("state", [("x", 1), b"x"], ids=["tuple", "bytes"])
def test_the_model_writer_refuses_a_key_with_the_text_json_gives(state):
    """A state name json cannot write as an object key stops the writer with json's own message."""
    mmdp = Mmdp(models=(_two_state({(state, "a"): {state: 1.0}}, states=(state,)),))
    with pytest.raises(TypeError) as expected:
        json.dumps({state: 0})
    assert str(expected.value).startswith("keys must be str, int, float, bool or None")
    with pytest.raises(TypeError) as refused:
        mmdp_to_json(mmdp)
    assert str(refused.value) == str(expected.value)


def test_writers_keep_equal_values_of_different_types_apart():
    """The writers render each distinct piece once, but values that compare
    equal and print differently are never one piece: ``1 == 1.0 == True``,
    ``0.0 == -0.0``, NaN, and components that are equal but list other states."""
    one, nan, inf = np.float64(1.0), float("nan"), float("inf")
    rows = [  # the rows of (x, a) and (y, a) in each model
        ({"x": 0.5, "y": 0.5}, {"x": 1.0}),
        ({"x": 0.5, "y": 0.5}, {"x": 1}),
        ({"x": True}, {"x": one, "y": 0.0}),
        ({"x": 1.0, "y": -0.0}, {"x": True}),
        ({"x": 1, "y": nan}, {"x": nan, "y": 0.0}),
        ({"x": inf, "y": -inf}, {"x": -0.0, "y": 1.0}),
    ]
    models = [
        _two_state({("x", "a"): first, ("y", "a"): second}, name=f"M{i}")
        for i, (first, second) in enumerate(rows)
    ]
    # successor and state names that are equal to a name of another type
    models += [
        _two_state({("x", "a"): {1: 1.0}, ("y", "a"): {1: 1.0}}),
        _two_state({("x", "a"): {True: 1.0}, ("y", "a"): {1.0: 1.0}}),
        _two_state({(1, "a"): {"x": 1.0}}, states=(1, 2)),
        _two_state({(True, "a"): {"x": 1.0}}, states=(True, 2)),
    ]
    for order in (models, models[::-1]):
        mmdp = Mmdp(models=tuple(order))
        assert mmdp_to_json(mmdp) == reference_mmdp_to_json(mmdp)

    # `both` equals `head` (components compare their action tables only) but
    # also lists a state without actions; `shared` is one object in three entries
    head = Mec(("x",), {"x": ("a",)})
    both = Mec(("x", "y"), {"x": ("a",)})
    assert both == head
    shared = Mec(("x", "y"), {"x": ("a", "b"), "y": ("b",)})
    typed = [Mec(("x",), {"x": (1,)}), Mec(("y",), {"y": (True,)}), Mec(("x",), {"x": (1.0,)})]
    entries = [
        PolicyEntry(active=(1,), entry_state="x", reach={}, mecs=(head, shared)),
        PolicyEntry(active=(2,), entry_state="x", reach={}, mecs=(shared, both)),
        PolicyEntry(active=(1, 2), entry_state="x", reach={"y": "a"}, mecs=(both, head, shared)),
        PolicyEntry(active=(1, 2), entry_state="y", reach={}, mecs=tuple(typed)),
        PolicyEntry(active=(3,), entry_state="y", reach={}, mecs=tuple(typed[::-1])),
    ]
    for order in (entries, entries[::-1]):
        policy = DetectionPolicy(entries={(e.active, e.entry_state): e for e in order})
        assert policy_to_json(policy) == reference_policy_to_json(policy)


def test_model_writer_peaks_below_two_and_a_half_times_its_text():
    """The model file is joined once from shared pieces, not copied through nested joins."""
    mmdp = gen_recsys(RecSysSpec(item_count=10, type_count=6, seed=0))
    tracemalloc.start()
    try:
        text = mmdp_to_json(mmdp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * len(text), (peak, len(text))


def test_validate_clean_example(example1):
    assert validate_mmdp(example1) == []


def test_validate_reports_action_disagreement(example1):
    m2 = example1.models[1]
    hacked_actions = dict(m2.actions)
    hacked_actions["2"] = ("a2",)
    bad = Mmdp(models=(example1.models[0], dataclasses.replace(m2, actions=hacked_actions)))
    report = validate_mmdp(bad)
    assert any("shared-structure violation at state 2" in line for line in report)


def test_validate_reports_dangling_successor(example1):
    m1 = example1.models[0]
    kernel = dict(m1.kernel)
    kernel[("6", "a6")] = {"ghost": 1.0}
    bad = Mmdp(models=(dataclasses.replace(m1, kernel=kernel), example1.models[1]))
    report = validate_mmdp(bad)
    assert any("dangling successor" in line for line in report)


@pytest.mark.parametrize(
    "field, value, fragment",
    [
        ("initial", "nope", "initial state"),
        ("states", ("1", "1"), "duplicate state"),
    ],
)
def test_validate_single_field_mutations(example1, field, value, fragment):
    m1 = example1.models[0]
    bad_m1 = dataclasses.replace(m1, **{field: value})
    report = validate_mmdp(Mmdp(models=(bad_m1, example1.models[1])))
    assert any(fragment in line for line in report)


def test_validate_rejects_single_model(example1):
    report = validate_mmdp(Mmdp(models=(example1.models[0],)))
    assert any("at least 2 models" in line for line in report)


def test_validate_probability_range():
    m = mk_mdp(("x",), {"x": ("a",)}, {("x", "a"): {"x": 1.5}}, "x")
    report = validate_mmdp(Mmdp(models=(m, m)))
    assert any("outside [0,1]" in line for line in report)
    assert any("sums to" in line for line in report)


def test_actions_listed_for_a_name_that_is_not_a_state_are_refused_last():
    """Every other violation keeps its message and place; this one comes after them all."""
    doc = json.loads(json.dumps(MINIMAL_DOC))
    doc["actions"]["zz"] = ["a"]
    with pytest.raises(ModelError) as err:
        parse_mmdp(doc)
    assert str(err.value) == (
        "invalid model: model M1: actions listed for 'zz', which is not a state; "
        "model M2: actions listed for 'zz', which is not a state"
    )
    doc["models"][1]["delta"][0]["p"] = 0.5
    with pytest.raises(ModelError) as err:
        parse_mmdp(doc)
    assert str(err.value).startswith("invalid model: model M2: distribution at (x, a) sums to 0.5")
    assert str(err.value).endswith("; model M2: actions listed for 'zz', which is not a state")
    # hand-built, one model only
    m = mk_mdp(("x",), {"x": ("a",)}, {("x", "a"): {"x": 1.0}}, "x")
    hacked = dataclasses.replace(m, actions={"x": ("a",), "y": ("a",)}, name="M2")
    report = validate_mmdp(Mmdp(models=(m, hacked)))
    assert report == ["model M2: actions listed for 'y', which is not a state"]


def _edits(doc, pick):
    """Single-field changes of ``doc`` by name; ``pick`` chooses the model, entry and state they change."""
    k = pick % len(doc["models"])
    delta = doc["models"][k]["delta"]
    i = pick % len(delta)
    entry, state = delta[i], doc["states"][pick % len(doc["states"])]
    other, p = doc["states"][(pick + 1) % len(doc["states"])], delta[i]["p"]
    return {
        "none": lambda: None,
        "states type": lambda: doc.update(states="s0"),
        "state type": lambda: doc["states"].__setitem__(0, 0),
        "actions type": lambda: doc.update(actions=[]),
        "action list type": lambda: doc["actions"].__setitem__(state, "a0"),
        "initial type": lambda: doc.update(initial=True),
        "models type": lambda: doc.update(models={}),
        "no models": lambda: doc.update(models=[]),
        "one model": lambda: doc.update(models=doc["models"][:1]),
        "model type": lambda: doc["models"].__setitem__(k, []),
        "name type": lambda: doc["models"][k].update(name=5),
        "no name": lambda: doc["models"][k].pop("name"),
        "delta type": lambda: doc["models"][k].update(delta={}),
        "entry not an object": lambda: delta.__setitem__(i, [entry["from"], entry["action"], entry["to"], p]),
        "no from": lambda: entry.pop("from"),
        "no action": lambda: entry.pop("action"),
        "no to": lambda: entry.pop("to"),
        "no p": lambda: entry.pop("p"),
        "from type": lambda: entry.update({"from": 1}),
        "action type": lambda: entry.update(action=None),
        "to type": lambda: entry.update(to=["s0"]),
        "p type": lambda: entry.update(p=str(p)),
        "p bool": lambda: entry.update(p=True),
        "p nan": lambda: entry.update(p=math.nan),
        "p inf": lambda: entry.update(p=math.inf),
        "p -inf": lambda: entry.update(p=-math.inf),
        "p negative": lambda: entry.update(p=-p),
        "p above 1": lambda: entry.update(p=p + 1.0),
        "p int": lambda: entry.update(p=round(p)),
        "sum off by 5e-10": lambda: entry.update(p=p + 5e-10),
        "sum off by 2e-9": lambda: entry.update(p=p + 2e-9),
        "explicit zero": lambda: delta.append({**entry, "to": other, "p": 0.0}),
        "duplicate entry": lambda: delta.append(dict(entry)),
        "undeclared action": lambda: delta.append({**entry, "action": "zz"}),
        "unknown state": lambda: delta.append({**entry, "from": "nowhere"}),
        "dangling successor": lambda: entry.update(to="nowhere"),
        "missing row": lambda: doc["models"][k].update(
            delta=[e for e in delta if (e["from"], e["action"]) != (entry["from"], entry["action"])]
        ),
        "actions for a non-state": lambda: doc["actions"].update(zz=["a0"]),
        "state without actions": lambda: doc["actions"].__setitem__(state, []),
        "state missing from actions": lambda: doc["actions"].pop(state),
        "duplicate action": lambda: doc["actions"][state].append(doc["actions"][state][0]),
        "duplicate state": lambda: doc["states"].append(state),
        "unknown initial": lambda: doc.update(initial="nowhere"),
    }


_MUTATIONS = sorted(_edits(serialize_mmdp(example1_mmdp()), 0))


def _expected_load(doc):
    """The frozen parse's model or its ``ModelError`` text, plus the one refusal it lacked."""
    try:
        mmdp, message = frozen_parse_mmdp(doc), None
    except ModelError as exc:
        mmdp, message = None, str(exc)
    if message is None or message.startswith("invalid model: "):
        names = [m.get("name", f"M{i + 1}") for i, m in enumerate(doc["models"])]
        extra = [f"model {name}: actions listed for {s!r}, which is not a state"
                 for name in names for s in doc["actions"] if s not in doc["states"]]
        if extra:
            report = [message.removeprefix("invalid model: ")] if message else []
            mmdp, message = None, "invalid model: " + "; ".join(report + extra)
    return mmdp, message


def _assert_same_tables(rows, frozen, mmdp):
    """Every field of ``rows`` equals the frozen table's, ``groups`` or its error included."""
    assert (rows.names, rows.index, rows.first) == (frozen.names, frozen.index, frozen.first)
    assert rows.actions == frozen.actions
    assert (rows.successors, rows.masks, rows._lo) == (frozen.successors, frozen.masks, frozen._lo)
    keys = {(s, a) for s in mmdp.states for a in mmdp.actions.get(s, ())}
    keys.update(key for m in mmdp.models for key in m.kernel)
    for key in [*sorted(keys), (mmdp.states[0], "nope"), ("nowhere", "a0")]:
        assert rows.row(*key) == frozen.row(*key), key
    assert rows.lik.dtype == frozen.lik.dtype and rows.lik.shape == frozen.lik.shape
    assert np.array_equal(rows.lik, frozen.lik, equal_nan=True)
    assert not rows.lik.flags.writeable
    # every row's running sums as a compiled controller's step_cdf holds a slot's, +inf past the row
    lo = np.array(rows._lo)
    sums = _running_sums(rows.lik, lo[:-1], np.diff(lo))
    assert sums.shape[1] % 8 == 0
    sums = sums.reshape(len(lo) - 1, mmdp.n, sums.shape[1]).transpose(0, 2, 1)
    inside = np.arange(sums.shape[1]) < np.diff(lo)[:, None]
    assert np.array_equal(sums[inside], frozen.cdf, equal_nan=True)
    assert (sums[~inside] == np.inf).all()
    try:
        expected = frozen.groups
    except ModelError as exc:
        with pytest.raises(ModelError) as err:
            rows.groups
        assert str(err.value) == str(exc)
    else:
        assert rows.groups == expected


@settings(max_examples=600, derandomize=True)
@given(
    kind=st.sampled_from(["binary", "multi", "sparse cut"]),
    n_models=st.integers(2, 5),
    n_states=st.integers(2, 6),
    mutation=st.sampled_from(_MUTATIONS),
    pick=st.integers(0, 2**16),
    as_text=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_parse_and_table_match_the_frozen_load(kind, n_models, n_states, mutation, pick, as_text, seed):
    """Each document loads to the frozen parse's model and row table, or fails with its message.

    The one difference is the refusal of an action list for a name that is
    not a state, whose message comes after every other.
    """
    rng = rng_for(seed)
    if kind == "binary":
        mmdp = random_binary_mmdp(rng, n_states=n_states)
    elif kind == "multi":
        mmdp = random_multi_mmdp(rng, n_models=n_models, n_states=n_states)
    else:
        mmdp = random_sparse_cut_mmdp(rng, n_models=n_models, n_states=n_states)
    doc = serialize_mmdp(mmdp)
    _edits(doc, pick)[mutation]()
    document = json.dumps(doc) if as_text else doc
    expected, message = _expected_load(json.loads(document) if as_text else doc)
    try:
        got, got_message = parse_mmdp(document), None
    except ModelError as exc:
        got, got_message = None, str(exc)
    assert got_message == message
    if expected is not None:
        assert got == expected
        _assert_same_tables(got.rows, FrozenRows(expected), expected)


def _odd_rows(mmdp, rng):
    """``mmdp`` with rows a parse never gives: unsorted keys, masses of 0.0, negative, NaN, infinite
    or int, keys and rows in one model only, empty rows, rows at undeclared actions or unknown states."""
    odd = [0.0, -0.25, math.nan, math.inf, 1, 0]
    models = []
    for k, m in enumerate(mmdp.models):
        kernel = {}
        for key, row in m.kernel.items():
            items = list(row.items())
            if rng.random() < 0.5:
                items.reverse()
            if rng.random() < 0.2:
                items[int(rng.integers(0, len(items)))] = (items[0][0], odd[int(rng.integers(0, len(odd)))])
            if rng.random() < 0.15:
                items.append((f"only{k}", float(rng.random())))
            if rng.random() < 0.05:
                items = []
            if rng.random() < 0.05 and k:
                continue  # a row the first model has and this one lacks
            kernel[key] = dict(items)
        if rng.random() < 0.3:
            kernel[(mmdp.states[0], f"zz{k}")] = {mmdp.states[-1]: 1.0}
        if rng.random() < 0.2:
            kernel[("nowhere", "a0")] = {"nowhere": 0.5, mmdp.states[0]: 0.5}
        models.append(dataclasses.replace(m, kernel=kernel))
    return Mmdp(models=tuple(models))


@settings(max_examples=300, derandomize=True)
@given(
    kind=st.sampled_from(["binary", "multi", "sparse cut"]),
    n_models=st.integers(2, 5),
    n_states=st.integers(2, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_row_table_of_odd_hand_built_rows_matches_the_frozen_table(kind, n_models, n_states, seed):
    """The one row pass gives the frozen masks, ``last`` and ``lik`` on any row contents,
    and the running sums of ``lik`` the frozen ``cdf``."""
    rng = rng_for(seed)
    if kind == "binary":
        mmdp = random_binary_mmdp(rng, n_states=n_states)
    elif kind == "multi":
        mmdp = random_multi_mmdp(rng, n_models=n_models, n_states=n_states)
    else:
        mmdp = random_sparse_cut_mmdp(rng, n_models=n_models, n_states=n_states)
    odd = _odd_rows(mmdp, rng)
    _assert_same_tables(odd.rows, FrozenRows(odd), odd)


def _triples(graph):
    """The (state, action, successor) triples of the rows of ``graph``."""
    names, actions, first, succ = graph.names, graph.actions, graph.first, graph.succ
    return {
        (names[i], actions[r], names[j])
        for i in bit_indices(graph.domain)
        for r in range(first[i], first[i + 1])
        for j in bit_indices(succ[r])
    }


def _closed(graph):
    """Every row of the system has a successor, and every successor is a state of the system."""
    rows = range(graph.first[0], graph.first[-1])
    return all(graph.succ[r] != 0 and graph.succ[r] & ~graph.domain == 0 for r in rows)


def test_induced_transition_system_example1(example1):
    graph = model_graph(example1, 1)
    assert ("1", "a1", "2") in _triples(graph)
    assert ("1", "a1", "3") in _triples(graph)
    assert len(graph.states) == 7
    assert _closed(graph)


def test_induced_transition_system_deterministic_chain():
    m = mk_mdp(
        ("s1", "s2"),
        {"s1": ("a",), "s2": ("a",)},
        {("s1", "a"): {"s2": 1.0}, ("s2", "a"): {"s2": 1.0}},
        "s1",
    )
    mmdp = Mmdp(models=(m, dataclasses.replace(m, name="M2")))
    for k in (1, 2):
        assert _triples(model_graph(mmdp, k)) == {("s1", "a", "s2"), ("s2", "a", "s2")}


def test_induced_transition_system_matches_support_oracle():
    for seed in range(8):
        mmdp = random_binary_mmdp(rng_for(100 + seed), n_states=4)
        for k, m in enumerate(mmdp.models, start=1):
            triples = _triples(model_graph(mmdp, k))
            expected = set()
            for (s, a), row in m.kernel.items():
                for t, p in row.items():
                    if p > 0:
                        expected.add((s, a, t))
            assert triples == expected
            # exactly one triple per nonzero kernel entry
            assert len(triples) == sum(
                1 for row in m.kernel.values() for p in row.values() if p > 0
            )


@pytest.mark.parametrize("entry", [lambda mm: model_graph(mm, 1), general_apd, bi_apd])
def test_a_successor_outside_the_states_is_a_model_error(entry):
    """A hand-built, unvalidated pair whose row moves to a state it does not declare."""
    actions = {"x": ("a",), "y": ("a",)}
    loops = {("x", "a"): {"y": 1.0}, ("y", "a"): {"y": 1.0}}
    ghost = {("x", "a"): {"ghost": 1.0}, ("y", "a"): {"y": 1.0}}
    mm = Mmdp(models=(mk_mdp(("x", "y"), actions, loops, "x"), mk_mdp(("x", "y"), actions, ghost, "x")))
    with pytest.raises(ModelError, match=r"row \(x, a\) moves to 'ghost'"):
        entry(mm)
    with pytest.raises(ModelError):
        parse_mmdp(mmdp_to_json(mm))


def test_history_invariants(example1):
    h = History(states=("1", "2"), actions=("a1",))
    assert h.check(example1.models[0]) == []
    assert h.horizon == 1 and History(states=("1",)).horizon == 0
    bad_start = History(states=("2",), actions=())
    assert bad_start.check(example1.models[0])
    with pytest.raises(ModelError):
        History(states=("1",), actions=("a1",))
    wrong_action = History(states=("1", "2"), actions=("b9",))
    assert any("unavailable" in p for p in wrong_action.check(example1.models[0]))


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("parse, good, bad", [
    (parse_mmdp, mmdp_to_json(example1_mmdp()), '{"states": ["x"]}'),
    (parse_policy, policy_to_json(bi_apd(example1_mmdp(initial="2")).policy), '{"entries": [{"active": 1}]}'),
])
def test_parsers_leave_the_collector_as_they_found_it(parse, good, bad, enabled):
    """The parsers pause the cyclic garbage collector while they run, and leave it
    on or off as the caller had it, whether they return or raise."""
    paused, loads = [], json.loads

    def recorded(text):
        paused.append(not gc.isenabled())
        return loads(text)

    try:
        gc.enable() if enabled else gc.disable()
        with mock.patch("json.loads", recorded):
            parse(good)
            assert gc.isenabled() is enabled
            with pytest.raises(ModelError):
                parse(bad)
            assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert paused == [True, True]


def test_parsed_kernels_hold_one_string_per_state_name():
    """Every row-key state and every successor of a parsed kernel is the state's own
    name object in ``states``, however the decoder built the entries' names."""
    mmdp = gen_recsys(RecSysSpec(item_count=4, type_count=3, seed=0))
    for document in (mmdp_to_json(mmdp), json.loads(mmdp_to_json(mmdp))):
        parsed = parse_mmdp(document)
        name = {s: s for s in parsed.states}
        for m in parsed.models:
            for (s, _), row in m.kernel.items():
                assert s is name[s]
                assert all(t is name[t] for t in row)
        assert all(s is name[s] for s in parsed.rows.names)


def _shuffled_delta(doc, rng, duplicate):
    """``doc`` with each model's entries in a random order, so rows come split apart and
    out of order; with ``duplicate``, one entry of positive mass listed again in its model."""
    for m in doc["models"]:
        delta = m["delta"]
        if duplicate:
            positive = [entry for entry in delta if entry["p"] != 0.0]
            delta.append(dict(positive[int(rng.integers(0, len(positive)))]))
        m["delta"] = [delta[i] for i in rng.permutation(len(delta))]
    return doc


@settings(max_examples=200, derandomize=True)
@given(
    kind=st.sampled_from(["binary", "multi", "sparse cut"]),
    n_models=st.integers(2, 4),
    n_states=st.integers(2, 6),
    duplicate=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_rows_split_apart_and_out_of_order_parse_as_the_frozen_parse(kind, n_models, n_states, duplicate, seed):
    """A document whose entries are shuffled parses equal to the frozen parse, and a
    duplicate entry anywhere gives the frozen parse's message."""
    rng = rng_for(seed)
    if kind == "binary":
        mmdp = random_binary_mmdp(rng, n_states=n_states)
    elif kind == "multi":
        mmdp = random_multi_mmdp(rng, n_models=n_models, n_states=n_states)
    else:
        mmdp = random_sparse_cut_mmdp(rng, n_models=n_models, n_states=n_states)
    document = json.dumps(_shuffled_delta(serialize_mmdp(mmdp), rng, duplicate))
    try:
        expected, message = frozen_parse_mmdp(document), None
    except ModelError as exc:
        expected, message = None, str(exc)
    try:
        got, got_message = parse_mmdp(document), None
    except ModelError as exc:
        got, got_message = None, str(exc)
    assert got_message == message
    assert got == expected
    assert (message is not None and "duplicate entry" in message) == duplicate
