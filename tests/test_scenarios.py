"""Scenario generators: grid surveillance and sequential recommendation."""

import pytest

from mdpdetect.binary import bi_apd, classify_pairs
from mdpdetect.errors import ModelError
from mdpdetect.general import pairwise_isa
from mdpdetect.models import serialize_mmdp, trial_rng, validate_mmdp
from mdpdetect.scenarios import (
    GridSpec,
    RecSysSpec,
    gen_grid,
    gen_recsys,
    grid_spec_from_json,
    recsys_profile,
    recsys_spec_from_json,
)


def paper_grid_spec(side=5):
    return GridSpec(
        width=side,
        height=side,
        obstacles=frozenset({(1, 1), (3, 1)}),
        goal_region=frozenset({(3, 3), (4, 3), (3, 4), (4, 4)}),
        initial=(0, 0),
    )


def test_grid_three_by_three_fixture():
    spec = GridSpec(
        width=3,
        height=3,
        obstacles=frozenset({(1, 1)}),
        goal_region=frozenset({(2, 2)}),
        initial=(0, 0),
    )
    mmdp = gen_grid(spec)
    assert validate_mmdp(mmdp) == []
    normal, intruder = mmdp.models
    # corner cell: both neighbors strictly closer to the goal
    assert normal.row("c0_0", "move") == {"c1_0": 0.5, "c0_1": 0.5}
    # edge cell: one closer neighbor (weight 2) and one farther (weight 1)
    got = normal.row("c1_0", "move")
    assert got["c2_0"] == pytest.approx(2 / 3)
    assert got["c0_0"] == pytest.approx(1 / 3)
    # goal cell without in-region neighbors folds the leftover mass into stay
    passive = {"c2_2": 0.85, "c1_2": 0.075, "c2_1": 0.075}
    active = {"c2_2": 0.65, "c1_2": 0.175, "c2_1": 0.175}
    for a in ("observe", "surveil"):
        assert normal.row("c2_2", a) == pytest.approx(passive)
    assert intruder.row("c2_2", "observe") == pytest.approx(passive)
    assert intruder.row("c2_2", "surveil") == pytest.approx(active)
    for m in mmdp.models:
        for row in m.kernel.values():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-12)


def test_grid_generator_is_deterministic():
    a = serialize_mmdp(gen_grid(paper_grid_spec()))
    b = serialize_mmdp(gen_grid(paper_grid_spec()))
    assert a == b


def test_grid_paper_probabilities_synthesize():
    mmdp = gen_grid(paper_grid_spec())
    cls = classify_pairs(*mmdp.models)
    surveil_pairs = {p for p in cls.informative_pairs if p[1] == "surveil"}
    assert surveil_pairs, "surveillance rows must separate the two types"
    outcome = bi_apd(mmdp)
    assert outcome.exists is True


def test_grid_equal_probabilities_undetectable():
    spec = GridSpec(
        width=4,
        height=4,
        goal_region=frozenset({(3, 3)}),
        p_stay_active=0.35,
        p_leave_active=0.15,
        initial=(0, 0),
    )
    mmdp = gen_grid(spec)
    assert mmdp.models[0].kernel == mmdp.models[1].kernel
    assert bi_apd(mmdp).exists is False


@pytest.mark.parametrize(
    "spec, fragment",
    [
        (GridSpec(width=3, height=3, goal_region=frozenset()), "empty goal region"),
        (
            GridSpec(
                width=3,
                height=3,
                obstacles=frozenset({(1, 0), (1, 1), (1, 2)}),
                goal_region=frozenset({(2, 2)}),
            ),
            "unreachable",
        ),
        (
            GridSpec(width=3, height=3, goal_region=frozenset({(2, 2)}), initial=(9, 9)),
            "initial cell",
        ),
        (
            GridSpec(width=3, height=3, goal_region=frozenset({(2, 2)}), p_stay=1.5),
            "outside",
        ),
        (
            GridSpec(width=3, height=3, goal_region=frozenset({(2, 2)}), obstacles=frozenset({(2, 2)})),
            "disjoint",
        ),
    ],
)
def test_grid_degenerate_specs_rejected(spec, fragment):
    with pytest.raises(ModelError, match=fragment):
        gen_grid(spec)


@pytest.mark.parametrize(
    "width, height, obstacles, cell",
    [
        (3, 3, [(1, 0), (0, 1), (1, 2), (2, 1)], (0, 0)),
        (5, 3, [(1, 0), (0, 1), (3, 0), (4, 1), (2, 1), (2, 2)], (0, 0)),
        (7, 7, [(1, 0), (0, 1), (6, 5), (5, 6), (3, 2), (2, 3), (4, 3), (3, 4)], (0, 0)),
        # row order names (4, 0); column order would name (0, 2)
        (5, 3, [(3, 0), (4, 1), (0, 1), (1, 2)], (4, 0)),
    ],
)
def test_grid_with_several_isolated_cells_names_the_same_one(width, height, obstacles, cell):
    """The message names the first isolated cell in row order, the order of the states."""
    spec = GridSpec(width=width, height=height, obstacles=frozenset(obstacles), goal_region=frozenset({(1, 1)}))
    with pytest.raises(ModelError) as raised:
        gen_grid(spec)
    assert str(raised.value) == f"degenerate spec: free cell {cell} has no free neighbor"


def test_recsys_paper_scale_state_count():
    mmdp = gen_recsys(RecSysSpec(item_count=10, type_count=6, seed=0))
    assert len(mmdp.states) == 111
    assert mmdp.n == 6
    assert validate_mmdp(mmdp) == []


def test_recsys_deterministic():
    spec = RecSysSpec(item_count=5, type_count=3, seed=42)
    assert serialize_mmdp(gen_recsys(spec)) == serialize_mmdp(gen_recsys(spec))


def test_recsys_identical_when_degenerate():
    spec = RecSysSpec(
        item_count=4,
        type_count=2,
        seed=3,
        alpha=0.0,
        distinct_rankings=False,
        revealing_rows=False,
    )
    mmdp = gen_recsys(spec)
    assert mmdp.models[0].kernel == mmdp.models[1].kernel
    assert bi_apd(mmdp).exists is False


def test_recsys_row_audit_against_profile():
    spec = RecSysSpec(item_count=4, type_count=3, seed=1)
    mmdp = gen_recsys(spec)
    profile = recsys_profile(spec)
    items = profile.items
    v_sorted = sorted(profile.v, reverse=True)

    def successor(state, item):
        if state == "start":
            return f"s_{item}"
        parts = state.split("_")[1:]
        kept = parts[-1] if len(parts) == 2 else parts[0]
        return f"s_{kept}_{item}"

    checked_revealing = 0
    for k, model in enumerate(mmdp.models):
        base = {items[profile.rankings[k][r]]: v_sorted[r] for r in range(4)}
        lowest = items[profile.rankings[k][-1]]
        for s in mmdp.states:
            for a in items:
                expected = {it: m for it, m in base.items()}
                target = expected[a] * (1.0 + profile.alpha)
                scale = (1.0 - target) / (1.0 - expected[a])
                expected = {it: m * scale for it, m in expected.items() if it != a}
                expected[a] = target
                if profile.revealing.get(k) == (s, a):
                    expected.pop(lowest, None)
                    checked_revealing += 1
                total = sum(expected.values())
                expected = {
                    successor(s, it): m / total for it, m in expected.items() if m > 0
                }
                got = model.row(s, a)
                assert got == pytest.approx(expected, abs=1e-12), (k, s, a)
    assert checked_revealing == 3


def test_recsys_profile_has_its_own_draws_for_every_seed():
    """Seeds that a float64 key conversion would merge give distinct profiles."""
    profiles = {recsys_profile(RecSysSpec(item_count=4, type_count=3, seed=s)).v
                for s in (-1, 0, 2**63 + 1, 2**63 + 2)}
    assert len(profiles) == 4


@pytest.mark.parametrize("seed", [0, 1, 7, -1, 2**63 + 1, 2**64 - 1, 2**64 + 5])
def test_recsys_profile_draws_from_the_trial_stream_of_its_seed(seed):
    """The profile's simplex point, mixing weight and first ranking are, to the last
    bit, the draws of ``trial_rng(seed, 0)`` in that order."""
    profile = recsys_profile(RecSysSpec(item_count=6, type_count=3, seed=seed))
    rng = trial_rng(seed, 0)
    raw = rng.exponential(1.0, 6)
    v = raw / raw.sum()
    assert profile.v == tuple(v.tolist())
    assert profile.alpha == rng.uniform(0.0, 1.0 / float(v.max()) - 1.0)
    assert profile.rankings[0] == tuple(rng.permutation(6).tolist())


def test_recsys_exactly_one_revealing_row_per_type():
    spec = RecSysSpec(item_count=4, type_count=3, seed=1)
    mmdp = gen_recsys(spec)
    revealing_rows = set()
    base = mmdp.models[0]
    for s in mmdp.states:
        for a in base.actions[s]:
            supports = {frozenset(m.row(s, a)) for m in mmdp.models}
            if len(supports) > 1:
                revealing_rows.add((s, a))
    assert len(revealing_rows) == 3
    for m in mmdp.models:
        for row in m.kernel.values():
            assert sum(row.values()) == pytest.approx(1.0, abs=1e-9)


def test_recsys_every_pair_informative():
    mmdp = gen_recsys(RecSysSpec(item_count=5, type_count=3, seed=0))
    for i in range(1, 4):
        for j in range(i + 1, 4):
            assert pairwise_isa(mmdp, i, j)


def test_recsys_paper_scale_every_pair_informative():
    mmdp = gen_recsys(RecSysSpec(item_count=10, type_count=6, seed=0))
    for i in range(1, 7):
        for j in range(i + 1, 7):
            assert pairwise_isa(mmdp, i, j), (i, j)


def test_recsys_alpha_validation():
    with pytest.raises(ModelError, match="alpha"):
        gen_recsys(RecSysSpec(item_count=4, type_count=2, seed=0, alpha=50.0))
    with pytest.raises(ModelError):
        gen_recsys(RecSysSpec(item_count=2, type_count=2, seed=0))
    with pytest.raises(ModelError):
        gen_recsys(RecSysSpec(item_count=4, type_count=2, seed=0, history_length=3))


def test_spec_json_parsing():
    grid = grid_spec_from_json(
        '{"width": 3, "height": 3, "goal_region": [[2, 2]], "obstacles": [[1, 1]]}'
    )
    assert grid.goal_region == frozenset({(2, 2)})
    assert grid.p_stay == 0.35
    rec = recsys_spec_from_json('{"item_count": 10, "type_count": 6, "seed": 0}')
    assert rec.alpha is None
    with pytest.raises(ModelError, match="missing required field"):
        recsys_spec_from_json('{"item_count": 10}')
    with pytest.raises(ModelError, match="goal_region"):
        grid_spec_from_json('{"width": 3, "height": 3, "goal_region": [[2]]}')
    # a mapping built in Python may hold a value JSON cannot spell
    with pytest.raises(ModelError, match=r"width: expected an integer, got \{3\}$"):
        grid_spec_from_json({"width": {3}, "height": 3, "goal_region": [[2, 2]]})
