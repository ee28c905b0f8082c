"""Model core: parsing, validation, serialization, induced structure."""

import dataclasses
import json
from types import MappingProxyType

import pytest

from mdpdetect.errors import ModelError
from mdpdetect.models import (
    History,
    Mmdp,
    induced_transition_system,
    mmdp_to_json,
    parse_mmdp,
    serialize_mmdp,
    support,
    validate_mmdp,
)

from conftest import example1_mmdp, mk_mdp, random_binary_mmdp, rng_for


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
    rows = example1.sampling
    lo, size, last = rows.row("2", "b2")  # M1: 2 -> 0.5, 5 -> 0.5; M2: 2 -> 0.5, 6 -> 0.5
    assert rows.successors[lo : lo + size] == ["2", "5", "6"]
    assert rows.lik[lo : lo + size].tolist() == [[0.5, 0.5], [0.5, 0.0], [0.0, 0.5]]
    assert rows.cdf[lo : lo + size].tolist() == [[0.5, 0.5], [1.0, 0.5], [1.0, 1.0]]
    assert last == (1, 2)
    assert rows.row("2", "b2") == (lo, size, last)  # built once
    lo2, size2, last2 = rows.row("2", "nope")
    assert (lo2, size2, last2) == (lo + size, 0, (-1, -1))


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


def test_induced_transition_system_example1(example1):
    ts = induced_transition_system(example1.models[0])
    assert ("1", "a1", "2") in ts.transitions
    assert ("1", "a1", "3") in ts.transitions
    assert len(ts.states) == 7
    assert ts.validate() == []


def test_induced_transition_system_deterministic_chain():
    m = mk_mdp(
        ("s1", "s2"),
        {"s1": ("a",), "s2": ("a",)},
        {("s1", "a"): {"s2": 1.0}, ("s2", "a"): {"s2": 1.0}},
        "s1",
    )
    ts = induced_transition_system(m)
    assert ts.transitions == frozenset({("s1", "a", "s2"), ("s2", "a", "s2")})


def test_induced_transition_system_matches_support_oracle():
    for seed in range(8):
        mmdp = random_binary_mmdp(rng_for(100 + seed), n_states=4)
        m = mmdp.models[0]
        ts = induced_transition_system(m)
        expected = set()
        for (s, a), row in m.kernel.items():
            for t, p in row.items():
                if p > 0:
                    expected.add((s, a, t))
        assert set(ts.transitions) == expected
        # exactly one triple per nonzero kernel entry
        assert len(ts.transitions) == sum(
            1 for row in m.kernel.values() for p in row.values() if p > 0
        )


def test_history_invariants(example1):
    h = History(states=("1", "2"), actions=("a1",))
    assert h.check(example1.models[0]) == []
    bad_start = History(states=("2",), actions=())
    assert bad_start.check(example1.models[0])
    with pytest.raises(ModelError):
        History(states=("1",), actions=("a1",))
    wrong_action = History(states=("1", "2"), actions=("b9",))
    assert any("unavailable" in p for p in wrong_action.check(example1.models[0]))
