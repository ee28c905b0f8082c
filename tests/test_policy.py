"""Policy container: canonical active sets, JSON round trip, flattening."""

import json
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
    PolicyEntry,
    active_set,
    entry_as_stationary,
    members,
    parse_policy,
    policy_to_json,
    stationary_uniform_policy,
)

from conftest import example1_mmdp, identical_mmdp, random_multi_mmdp, rng_for
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
