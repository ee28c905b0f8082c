"""Policy container: canonical active sets, JSON round trip, flattening."""

import copy
import json
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpdetect.analysis import error_bounds_binary
from mdpdetect.binary import bi_apd
from mdpdetect.errors import ModelError
from mdpdetect.general import general_apd
from mdpdetect.graphs import Mec, bit_indices
from mdpdetect.policy import (
    DetectionPolicy,
    PolicyEntry,
    active_set,
    entry_as_stationary,
    members,
    parse_policy,
    policy_to_json,
    stationary_uniform_policy,
)
from mdpdetect.scenarios import RecSysSpec, gen_recsys

from conftest import (
    example1_mmdp,
    identical_mmdp,
    random_multi_mmdp,
    random_sparse_cut_mmdp,
    reference_parse_policy,
    rng_for,
)
from test_general import _recursive_instance


def test_committed_mec_is_the_first_component_holding_the_state():
    """Hand-built components may overlap; a state commits to the first one that holds it."""
    entry = PolicyEntry((1, 2), "x", reach={"x": "a"}, mecs=(
        Mec(("y",), {"y": ("a",)}), Mec(("x", "y"), {"x": ("a",), "y": ("b",)}), Mec(("x",), {"x": ("b",)}),
    ))
    assert [entry.committed_mec(s) for s in ("x", "y", "z")] == [1, 0, None]


def test_active_set_canonicalization():
    assert active_set([3, 1, 2, 1]) == (1, 2, 3)
    assert active_set((2,)) == (2,)


@settings(max_examples=60)
@given(st.integers(3, 4), st.integers(2, 6), st.integers(0, 2**32 - 1))
def test_survivors_match_the_kernel_supports(n_models, n_states, seed):
    """``members`` of the model masks of the support rows, the masks synthesis
    reads, keeps exactly the active models that allow a successor."""
    mmdp = random_multi_mmdp(rng_for(seed), n_models=n_models, n_states=n_states)
    subsets = [c for k in range(1, n_models + 1) for c in combinations(range(1, n_models + 1), k)]
    rows = mmdp.rows
    assert rows.names == tuple(sorted(mmdp.states))
    for i, s in enumerate(rows.names):
        assert rows.actions[rows.first[i] : rows.first[i + 1]] == tuple(sorted(mmdp.actions[s]))
        assert [rows.actions[r] for r, _ in rows.groups[i]] == list(mmdp.actions[s])
        for r, groups in rows.groups[i]:
            a = rows.actions[r]
            masks = [mask for mask, _ in groups]
            assert masks == sorted(set(masks)) and 0 not in masks
            mask_of = {rows.names[j]: mask for mask, bits in groups for j in bit_indices(bits)}
            assert len(mask_of) == sum(len(bit_indices(bits)) for _, bits in groups)
            # every state, so also successors that no active model allows
            for s2 in mmdp.states:
                for active in subsets:
                    expected = tuple(k for k in active if mmdp.model(k).prob(s, a, s2) > 0.0)
                    assert members(mask_of.get(s2, 0), active) == expected


def test_policy_json_round_trip_binary():
    policy = bi_apd(example1_mmdp(initial="2")).policy
    parsed = parse_policy(policy_to_json(policy))
    assert parsed.entries == policy.entries


def test_policy_json_round_trip_recursive():
    policy = general_apd(_recursive_instance()).policy
    parsed = parse_policy(policy_to_json(policy))
    assert parsed.entries == policy.entries
    # byte-stable serialization
    assert policy_to_json(parsed) == policy_to_json(policy)


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ('{"entries": [{"active": "no"}]}', "active"),
        ('{"entries": [{"active": [1, 2]}]}', "entry_state"),
        ('{"entries": [{"active": [1, 2], "entry_state": "s", "reach": 3}]}', "reach"),
        (
            '{"entries": [{"active": [1, 2], "entry_state": "s", "reach": {},'
            ' "mecs": [{"states": {"s": []}}]}]}',
            "states",
        ),
        ("[]", "entries"),
        ('{"entries": [{"active": [1, 2], "entry_state": "s", "mecs": 5}]}', r"entries\[0\]\.mecs: "),
        (
            '{"entries": [{"active": [1, 2], "entry_state": "s",'
            ' "mecs": [{"states": {"c0_0": ["move", 3]}}]}]}',
            r"entries\[0\]\.mecs\[0\]\.states: ",
        ),
    ],
)
def test_policy_json_validation(doc, fragment):
    with pytest.raises(ModelError, match=fragment):
        parse_policy(doc)


@pytest.mark.parametrize("active", [[1, 2], [2, 1]])
def test_parse_policy_rejects_a_duplicate_entry(active):
    doc = json.loads(policy_to_json(bi_apd(example1_mmdp(initial="2")).policy))
    (entry,) = doc["entries"]
    doc["entries"].append({**entry, "active": active, "reach": {}})
    with pytest.raises(ModelError, match=r"entries\[1\]: duplicate entry for active set \[1, 2\] at '2'"):
        parse_policy(doc)


def test_stationary_uniform_policy_shape():
    mmdp = identical_mmdp()
    policy = stationary_uniform_policy(mmdp)
    (entry,) = policy.entries.values()
    assert entry.active == (1, 2)
    assert entry.reach == {}
    (mec,) = entry.mecs
    assert mec.states == set(mmdp.states)
    assert mec.distribution("x") == {"a": 0.5, "b": 0.5}


def test_entry_as_stationary_covers_every_state():
    mmdp = example1_mmdp(initial="2")
    (entry,) = bi_apd(mmdp).policy.entries.values()
    table = entry_as_stationary(entry, mmdp)
    assert set(table) == set(mmdp.states)
    assert table["2"] == {"b2": 1.0}
    assert table["5"] == {"b5": 1.0}
    for s, dist in table.items():
        assert sum(dist.values()) == pytest.approx(1.0)
        for a in dist:
            assert a in mmdp.actions[s]


def test_error_bounds_sandwich_property():
    rng = rng_for(123)
    for _ in range(300):
        b = float(rng.uniform(0.0, 1.0))
        q = float(rng.uniform(0.05, 0.95))
        theta = float(rng.uniform(0.05, 0.95))
        bounds = error_bounds_binary(b, q, theta)
        assert bounds.lower <= min(bounds.upper, 1.0) + 1e-12


# ---------------------------------------------------------------------------
# The reader checks each distinct component action list once and shares one
# set among the states that list it; it must read every document as the frozen
# reader of `conftest` does.
# ---------------------------------------------------------------------------


def _read_with(parse, document):
    """What ``parse`` makes of ``document``: its entries in file order with their
    component state sets, or the message of the ``ModelError`` it raises."""
    try:
        policy = parse(document)
    except ModelError as exc:
        return "invalid", str(exc)
    return "parsed", [(key, entry, [mec.states for mec in entry.mecs]) for key, entry in policy.entries.items()]


def _synthesized_document(mmdp):
    """The entries synthesized from every initial state of ``mmdp``, as one policy document."""
    entries = {}
    for s in mmdp.states:
        outcome = general_apd(mmdp, initial=s)
        if outcome.exists:
            entries.update(outcome.policy.entries)
    return json.loads(policy_to_json(DetectionPolicy(entries)))


def _random_instance(seed, n_models, n_states, sparse):
    rng = rng_for(seed)
    if sparse:
        return random_sparse_cut_mmdp(rng, n_models=n_models, n_states=n_states)
    return random_multi_mmdp(rng, n_models=n_models, n_states=n_states, reveal_share=0.5)


def _component_states(doc):
    """Every (component states object, state) of ``doc``, in file order."""
    return [(mec["states"], s) for e in doc["entries"] for mec in e["mecs"] for s in mec["states"]]


def _replace_key(mapping, old, new):
    """``mapping`` with key ``old`` renamed ``new`` in place, keeping its position."""
    items = list(mapping.items())
    mapping.clear()
    mapping.update((new if k == old else k, v) for k, v in items)


def _malformed_variants(doc, pick):
    """Mutations of ``doc`` that the reader must refuse, each with its name; a kind
    that ``doc`` has no place for is left out."""
    variants = []
    spots = _component_states(doc)
    if spots:
        def at(kind, value_of):
            mutated = copy.deepcopy(doc)
            states, s = pick.choice(_component_states(mutated))
            value = value_of(list(states[s]))
            if kind == "non-string state key":
                _replace_key(states, s, value)
            else:
                states[s] = value
            variants.append((kind, mutated))

        at("emptied list", lambda acts: [])
        bad = [3, None, True, 1.5, ["a0"], {"a0": 1}]
        at("non-string action", lambda acts: [*acts[:1], pick.choice(bad), *acts[1:]])
        at("non-list value", lambda acts: pick.choice(
            [tuple(acts), "".join(acts), acts[0], dict.fromkeys(acts), None]
        ))
        at("non-string state key", lambda acts: pick.choice([3, None, ("s0",), 1.5]))
        if len(spots) > 1:
            first = pick.randrange(len(spots) - 1)
            mutated = copy.deepcopy(doc)
            where = _component_states(mutated)
            good = list(where[first][0][where[first][1]])
            states, s = where[pick.randrange(first + 1, len(where))]
            states[s] = pick.choice([tuple(good), [*good, 3], [*good[:-1], None], [*good, ["a0"]]])
            variants.append(("bad list after an identical good list", mutated))
    if doc["entries"]:
        mutated = copy.deepcopy(doc)
        entry = copy.deepcopy(pick.choice(mutated["entries"]))
        entry["active"] = entry["active"][::-1]
        entry["reach"] = {}
        mutated["entries"].insert(pick.randrange(len(mutated["entries"]) + 1), entry)
        variants.append(("duplicate entry", mutated))
    return variants


@settings(max_examples=440)
@given(seed=st.integers(0, 2**32 - 1), n_models=st.integers(2, 5), n_states=st.integers(2, 6),
       sparse=st.booleans())
def test_parse_policy_matches_the_frozen_reader(seed, n_models, n_states, sparse):
    """Synthesized policy files, and every malformed mutation of them, read as the
    frozen reader reads them: equal entries in the same order, or the same message.
    Equal component action sets come out as one object."""
    doc = _synthesized_document(_random_instance(seed, n_models, n_states, sparse))
    pick = random.Random(seed)
    # a reordered list is still valid, and shares the set of its sorted twin
    if _component_states(doc):
        states, s = pick.choice(_component_states(doc))
        states[s] = states[s][::-1]
    for document in (json.dumps(doc), doc):
        got = _read_with(parse_policy, document)
        assert got[0] == "parsed" and got == _read_with(reference_parse_policy, document)
    sets = [acts for entry in parse_policy(doc).entries.values() for mec in entry.mecs
            for acts in mec.actions.values()]
    assert len({id(acts) for acts in sets}) == len(set(sets))
    for kind, mutated in _malformed_variants(doc, pick):
        got = _read_with(parse_policy, mutated)
        assert got[0] == "invalid", kind
        assert got == _read_with(reference_parse_policy, mutated), kind


def test_a_parsed_policy_holds_one_object_per_distinct_action_set():
    """On recsys 10×6, 15,700 component states list 7 distinct action sets; the
    parsed policy holds each set once, shared by every state that lists it."""
    mmdp = gen_recsys(RecSysSpec(item_count=10, type_count=6, seed=0))
    policy = parse_policy(policy_to_json(general_apd(mmdp).policy))
    sets = [acts for entry in policy.entries.values() for mec in entry.mecs for acts in mec.actions.values()]
    assert len(sets) == 15_700 and len(set(sets)) == 7
    assert len({id(acts) for acts in sets}) == len(set(sets))
