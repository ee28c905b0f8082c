"""Deterministic generators for the two experiment families.

Both generators are pure functions of their spec (plus seed): identical
inputs produce identical models, entry for entry.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import MISSING, dataclass, field, fields
from typing import Any, Mapping, Sequence

from .errors import ModelError
from .models import Mdp, Mmdp, _decode, _left_sum, trial_rng

Cell = tuple[int, int]

OBSERVE = "observe"
SURVEIL = "surveil"
MOVE = "move"


@dataclass(frozen=True)
class GridSpec:
    """Grid-world surveillance scenario over two agent types.

    Outside the goal region both types follow the same biased random walk
    toward the region. Inside it, two monitoring actions are available; the
    normal type ignores them, the intruder swaps its stay/leave masses under
    active surveillance.
    """

    width: int
    height: int
    obstacles: frozenset[Cell] = field(default=frozenset())
    goal_region: frozenset[Cell] = field(default=frozenset())
    p_stay: float = 0.35
    p_leave: float = 0.15
    p_stay_active: float = 0.15
    p_leave_active: float = 0.35
    initial: Cell = (0, 0)


def cell_id(cell: Cell) -> str:
    return f"c{cell[0]}_{cell[1]}"


def gen_grid(spec: GridSpec) -> Mmdp:
    """Two-model MMDP (normal, intruder) over the free cells of the grid."""
    _validate_grid(spec)
    # the states, row by row; a degenerate spec names its first isolated cell in this order
    free = [
        (x, y)
        for y in range(spec.height)
        for x in range(spec.width)
        if (x, y) not in spec.obstacles
    ]
    free_set = set(free)
    goal = spec.goal_region  # in bounds and free, as validated

    def neighbors(c: Cell) -> list[Cell]:
        x, y = c
        return [n for n in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)) if n in free_set]

    for c in free:
        if not neighbors(c):
            raise ModelError(f"degenerate spec: free cell {c} has no free neighbor")
    seen = {spec.initial}
    frontier = deque([spec.initial])
    while frontier:
        for n in neighbors(frontier.popleft()):
            if n not in seen:
                seen.add(n)
                frontier.append(n)
    if not seen & goal:
        raise ModelError("degenerate spec: goal region unreachable from the initial cell")

    def region_distance(c: Cell) -> int:
        return min(abs(c[0] - g[0]) + abs(c[1] - g[1]) for g in goal)

    def walk_row(c: Cell) -> dict[str, float]:
        ns = neighbors(c)
        d = region_distance(c)
        weights = [2.0 if region_distance(n) < d else 1.0 for n in ns]
        total = _left_sum(weights)
        return {cell_id(n): w / total for n, w in zip(ns, weights)}

    def region_row(c: Cell, stay: float, leave: float) -> dict[str, float]:
        ns = neighbors(c)
        outside = [n for n in ns if n not in goal]
        inside = [n for n in ns if n in goal]
        rest = 1.0 - stay - leave
        row = {cell_id(c): stay}
        if outside:
            for n in outside:
                row[cell_id(n)] = row.get(cell_id(n), 0.0) + leave / len(outside)
        else:
            row[cell_id(c)] += leave
        if inside:
            for n in inside:
                row[cell_id(n)] = row.get(cell_id(n), 0.0) + rest / len(inside)
        else:
            row[cell_id(c)] += rest
        return {s: p for s, p in row.items() if p > 0.0}

    states = tuple(cell_id(c) for c in free)
    actions = {
        cell_id(c): ((OBSERVE, SURVEIL) if c in goal else (MOVE,)) for c in free
    }
    kernels: tuple[dict, dict] = ({}, {})
    for c in free:
        sid = cell_id(c)
        if c in goal:
            passive = region_row(c, spec.p_stay, spec.p_leave)
            active = region_row(c, spec.p_stay_active, spec.p_leave_active)
            kernels[0][(sid, OBSERVE)] = dict(passive)
            kernels[0][(sid, SURVEIL)] = dict(passive)
            kernels[1][(sid, OBSERVE)] = dict(passive)
            kernels[1][(sid, SURVEIL)] = active
        else:
            row = walk_row(c)
            kernels[0][(sid, MOVE)] = dict(row)
            kernels[1][(sid, MOVE)] = dict(row)

    init = cell_id(spec.initial)
    normal = Mdp(states=states, actions=actions, kernel=kernels[0], initial=init, name="normal")
    intruder = Mdp(states=states, actions=actions, kernel=kernels[1], initial=init, name="intruder")
    return Mmdp(models=(normal, intruder))


def _validate_grid(spec: GridSpec) -> None:
    if spec.width < 1 or spec.height < 1:
        raise ModelError("grid dimensions must be positive")

    def in_bounds(c: Cell) -> bool:
        return 0 <= c[0] < spec.width and 0 <= c[1] < spec.height

    for name, cells in (("obstacles", spec.obstacles), ("goal_region", spec.goal_region)):
        for c in cells:
            if not in_bounds(c):
                raise ModelError(f"{name} cell {c} outside the {spec.width}x{spec.height} grid")
    if spec.obstacles & spec.goal_region:
        raise ModelError("goal region and obstacles must be disjoint")
    if not spec.goal_region:
        raise ModelError("degenerate spec: empty goal region")
    for p in (spec.p_stay, spec.p_leave, spec.p_stay_active, spec.p_leave_active):
        if not 0.0 <= p <= 1.0:
            raise ModelError(f"probability {p} outside [0, 1]")
    if spec.p_stay + spec.p_leave > 1.0 + 1e-12:
        raise ModelError("p_stay + p_leave exceeds 1")
    if spec.p_stay_active + spec.p_leave_active > 1.0 + 1e-12:
        raise ModelError("p_stay_active + p_leave_active exceeds 1")
    if not in_bounds(spec.initial) or spec.initial in spec.obstacles:
        raise ModelError(f"initial cell {spec.initial} must be a free in-bounds cell")


@dataclass(frozen=True)
class RecSysSpec:
    """Sequential recommendation scenario over several customer types.

    States are purchase histories of length at most two. Each type ranks the
    items; recommending an item boosts its purchase probability by the factor
    (1 + alpha). One seeded row per type zeroes the mass of that type's
    lowest-ranked item, giving each type an identity-revealing transition.
    """

    item_count: int
    type_count: int
    seed: int
    alpha: float | None = None
    history_length: int = 2
    distinct_rankings: bool = True
    revealing_rows: bool = True


@dataclass(frozen=True)
class RecsysProfile:
    """The seeded draws behind one generated recommender instance."""

    items: tuple[str, ...]
    v: tuple[float, ...]
    alpha: float
    alpha_bound: float
    rankings: tuple[tuple[int, ...], ...]
    revealing: Mapping[int, tuple[str, str]]  # 0-based type index -> (state, action)


def _histories(items: Sequence[str]) -> list[tuple[str, ...]]:
    out: list[tuple[str, ...]] = [()]
    out += [(a,) for a in items]
    out += [(a, b) for a in items for b in items]
    return out


def _state_id(h: tuple[str, ...]) -> str:
    return "start" if not h else "s_" + "_".join(h)


def recsys_profile(spec: RecSysSpec) -> RecsysProfile:
    """Replay the generator's seeded draws without building the models."""
    if spec.item_count < 3:
        raise ModelError("need at least 3 items")
    if spec.type_count < 2:
        raise ModelError("need at least 2 customer types")
    if spec.history_length != 2:
        raise ModelError("only purchase histories of length 2 are supported")

    rng = trial_rng(spec.seed, 0)
    items = tuple(f"i{k}" for k in range(spec.item_count))

    # Uniform simplex point via exponential spacings.
    raw = rng.exponential(scale=1.0, size=spec.item_count)
    v = raw / raw.sum()
    alpha_bound = 1.0 / float(v.max()) - 1.0
    alpha = spec.alpha
    if alpha is None:
        alpha = float(rng.uniform(0.0, alpha_bound))
    if not 0.0 <= alpha <= alpha_bound:
        raise ModelError(
            f"alpha {alpha} outside the admissible range [0, {alpha_bound}]"
        )

    rankings: list[tuple[int, ...]] = []
    if spec.distinct_rankings:
        seen_perm: set[tuple[int, ...]] = set()
        while len(rankings) < spec.type_count:
            perm = tuple(int(x) for x in rng.permutation(spec.item_count))
            if perm not in seen_perm:
                seen_perm.add(perm)
                rankings.append(perm)
    else:
        perm = tuple(int(x) for x in rng.permutation(spec.item_count))
        rankings = [perm] * spec.type_count

    revealing: dict[int, tuple[str, str]] = {}
    if spec.revealing_rows:
        eligible = [_state_id(h) for h in _histories(items) if h]
        used: set[tuple[str, str]] = set()
        for k in range(spec.type_count):
            while True:
                s = eligible[int(rng.integers(0, len(eligible)))]
                a = items[int(rng.integers(0, spec.item_count))]
                if (s, a) not in used:
                    used.add((s, a))
                    revealing[k] = (s, a)
                    break
    return RecsysProfile(
        items=items,
        v=tuple(float(x) for x in v),
        alpha=alpha,
        alpha_bound=alpha_bound,
        rankings=tuple(rankings),
        revealing=revealing,
    )


def gen_recsys(spec: RecSysSpec) -> Mmdp:
    profile = recsys_profile(spec)
    items = profile.items
    alpha = profile.alpha
    revealing = profile.revealing

    histories = _histories(items)
    states = tuple(map(_state_id, histories))
    state_of = dict(zip(histories, states))
    # each state's successor by the item bought: the history of its last two purchases
    after = [{it: state_of[(h + (it,))[-2:]] for it in items} for h in histories]

    # Per type: purchase distribution over items, then the recommended boost.
    v_sorted = sorted(profile.v, reverse=True)
    base: list[dict[str, float]] = []
    for perm in profile.rankings:
        base.append({items[perm[r]]: v_sorted[r] for r in range(spec.item_count)})

    def boosted(k: int, rec: str) -> dict[str, float]:
        p = base[k]
        pr = p[rec]
        target = pr * (1.0 + alpha)
        scale = (1.0 - target) / (1.0 - pr)
        row = {it: mass * scale for it, mass in p.items() if it != rec}
        row[rec] = target
        row = {it: m for it, m in row.items() if m > 0.0}
        total = _left_sum(row.values())
        return {it: m / total for it, m in row.items()}

    boost_table = [{a: boosted(k, a) for a in items} for k in range(spec.type_count)]

    actions = {s: tuple(items) for s in states}
    models = []
    for k in range(spec.type_count):
        kernel: dict[tuple[str, str], dict[str, float]] = {}
        lowest = items[profile.rankings[k][-1]]
        for s, succ in zip(states, after):
            for a in items:
                item_row = boost_table[k][a]
                if revealing.get(k) == (s, a):
                    if item_row.get(lowest, 0.0) <= 0.0:
                        raise ModelError(
                            "alpha at its upper bound collapses the revealing row; "
                            "choose a smaller alpha"
                        )
                    item_row = {it: m for it, m in item_row.items() if it != lowest}
                    total = _left_sum(item_row.values())
                    item_row = {it: m / total for it, m in item_row.items()}
                kernel[(s, a)] = dict(zip(map(succ.__getitem__, item_row), item_row.values()))
        models.append(
            Mdp(states=states, actions=actions, kernel=kernel, initial="start", name=f"type{k + 1}")
        )
    return Mmdp(models=tuple(models))


# ---------------------------------------------------------------------------
# Spec documents (JSON) for the CLI.
# ---------------------------------------------------------------------------


def grid_spec_from_json(doc: str | Mapping[str, Any]) -> GridSpec:
    return _spec_from_json(GridSpec, doc, "grid spec")


def recsys_spec_from_json(doc: str | Mapping[str, Any]) -> RecSysSpec:
    return _spec_from_json(RecSysSpec, doc, "recsys spec")


def _spec_from_json(cls: type, doc: str | Mapping[str, Any], spec: str) -> Any:
    """The spec dataclass ``cls`` read from the JSON object ``doc``.

    Each field present is checked by the reader of its annotation; an absent
    one takes the dataclass default. ``ModelError`` names ``spec`` and the
    field, also for a field ``cls`` does not have.
    """
    data = _decode(doc, "spec")
    if not isinstance(data, Mapping):
        raise ModelError("spec: expected a JSON object")
    known = {f.name for f in fields(cls)}
    for name in data:
        if name not in known:
            raise ModelError(f"{spec}: unknown field {name!r}")
    values = {}
    for f in fields(cls):
        if f.name in data:
            values[f.name] = _READERS[f.type](data[f.name], f"{spec}: {f.name}")
        elif f.default is MISSING:
            raise ModelError(f"{spec}: missing required field {f.name!r}")
    return cls(**values)


def _int(raw: Any, path: str) -> int:
    """An integral JSON number; a boolean is not one."""
    if isinstance(raw, bool) or not (isinstance(raw, int) or type(raw) is float and raw.is_integer()):
        raise ModelError(f"{path}: expected an integer, got {_json_text(raw)}")
    return int(raw)


def _float(raw: Any, path: str) -> float:
    """A JSON number as a float; a boolean is not one."""
    if not isinstance(raw, bool) and isinstance(raw, (int, float)):
        try:
            return float(raw)
        except OverflowError:
            pass
    raise ModelError(f"{path}: expected a number, got {_json_text(raw)}")


def _bool(raw: Any, path: str) -> bool:
    if not isinstance(raw, bool):
        raise ModelError(f"{path}: expected true or false, got {_json_text(raw)}")
    return raw


def _json_text(raw: Any) -> str:
    """``raw`` spelt as JSON, as a spec file holds it; ``repr`` where JSON has no spelling."""
    try:
        return json.dumps(raw)
    except (TypeError, ValueError):  # a Python object handed in as a spec, or a cycle
        return repr(raw)


def _cell(raw: Any, path: str) -> Cell:
    if (
        not isinstance(raw, Sequence)
        or len(raw) != 2
        or not all(isinstance(x, int) and not isinstance(x, bool) for x in raw)
    ):
        raise ModelError(f"{path}: expected a [x, y] integer pair")
    return (raw[0], raw[1])


def _cells(raw: Any, path: str) -> frozenset[Cell]:
    if not isinstance(raw, list):
        raise ModelError(f"{path}: expected an array of [x, y] pairs")
    return frozenset(_cell(c, f"{path}[{i}]") for i, c in enumerate(raw))


# the reader of each annotation the spec dataclasses use
_READERS = {
    "int": _int,
    "float": _float,
    "float | None": lambda raw, path: None if raw is None else _float(raw, path),
    "bool": _bool,
    "Cell": _cell,
    "frozenset[Cell]": _cells,
}
