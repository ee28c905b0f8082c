"""Core model types: MDPs, multi-model MDPs, transition systems, histories.

State and action identifiers are strings at the API and file level; numeric
code (matrix construction, simulation) interns them to dense indices where it
matters. Kernel rows are sparse: entries with probability zero are dropped at
parse time, so the support of a row is exactly its key set.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Any, Iterable, Mapping

import numpy as np

from .errors import ModelError

# Tolerance for a kernel row to count as a probability distribution.
PROB_SUM_TOL = 1e-9
# Tolerance below which two distributions are considered equal entrywise.
ROW_EQ_TOL = 1e-12

Row = Mapping[str, float]


def support(row: Row) -> frozenset[str]:
    """Successors with strictly positive probability."""
    return frozenset(s for s, p in row.items() if p > 0.0)


@dataclass(frozen=True)
class Mdp:
    """A finite MDP: states, per-state action sets, sparse kernel, initial state.

    Values are immutable after construction; construction itself does not
    validate (see :func:`validate_mmdp`), so invalid instances can be built
    and inspected.
    """

    states: tuple[str, ...]
    actions: Mapping[str, tuple[str, ...]]
    kernel: Mapping[tuple[str, str], Row]
    initial: str
    name: str = "M"

    @cached_property
    def state_index(self) -> dict[str, int]:
        return {s: i for i, s in enumerate(self.states)}

    def row(self, state: str, action: str) -> Row:
        return self.kernel.get((state, action), {})

    def prob(self, state: str, action: str, succ: str) -> float:
        return self.kernel.get((state, action), {}).get(succ, 0.0)


@dataclass(frozen=True)
class Mmdp:
    """An ordered set of candidate MDPs over one shared structure skeleton."""

    models: tuple[Mdp, ...]
    _masks: dict[tuple[str, str], Mapping[str, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def n(self) -> int:
        return len(self.models)

    @property
    def states(self) -> tuple[str, ...]:
        return self.models[0].states

    @property
    def actions(self) -> Mapping[str, tuple[str, ...]]:
        return self.models[0].actions

    @property
    def initial(self) -> str:
        return self.models[0].initial

    def model(self, index: int) -> Mdp:
        """Model by 1-based index (model 1 is ``models[0]``)."""
        if not 1 <= index <= self.n:
            raise ModelError(f"model index {index} outside 1..{self.n}")
        return self.models[index - 1]

    def support_masks(self, state: str, action: str) -> Mapping[str, int]:
        """Successor -> bitmask of the models giving it positive probability at (state, action).

        Bit ``i - 1`` stands for model ``i``; successors no model allows are
        absent, and the keys come in sorted order. Each row is built on first
        use and kept, read-only.
        """
        masks = self._masks.get((state, action))
        if masks is None:
            acc: dict[str, int] = {}
            for bit, m in enumerate(self.models):
                for succ, p in m.row(state, action).items():
                    if p > 0.0:
                        acc[succ] = acc.get(succ, 0) | 1 << bit
            masks = MappingProxyType({t: acc[t] for t in sorted(acc)})
            self._masks[(state, action)] = masks
        return masks

    @cached_property
    def support_rows(self) -> SupportRows:
        """The shared support structure over interned states, built on first use."""
        return SupportRows(self)

    @cached_property
    def sampling(self) -> SamplingRows:
        """Every model's rows laid out for sampling successors, each built on first use."""
        return SamplingRows(self.models)


class SupportRows:
    """The support structure the models share, over states interned to bit positions.

    ``names[i]`` is the state of bit ``i`` of a state bitset, in sorted name
    order, so ascending bits visit the states in sorted order; ``index`` maps
    names back. Row ``r`` is one (state, action) pair: state ``i`` owns rows
    ``first[i] .. first[i + 1]``, in sorted action order, and ``actions[r]``
    names the action. ``groups[i]`` lists state ``i``'s rows in its declared
    action order as ``(r, ((mask, successors), ...))``: the row's successors
    as one bitset per model bitmask of :meth:`Mmdp.support_masks`, masks
    ascending. Read-only once built.
    """

    def __init__(self, mmdp: Mmdp) -> None:
        self.names = tuple(sorted(mmdp.states))
        self.index = {s: i for i, s in enumerate(self.names)}
        actions: list[str] = []
        first: list[int] = []
        groups = []
        for s in self.names:
            row = {a: len(actions) + k for k, a in enumerate(sorted(mmdp.actions[s]))}
            first.append(len(actions))
            actions.extend(row)
            here = []
            for a in mmdp.actions[s]:
                by_mask: dict[int, int] = {}
                for t, mask in mmdp.support_masks(s, a).items():
                    by_mask[mask] = by_mask.get(mask, 0) | 1 << self.index[t]
                here.append((row[a], tuple(sorted(by_mask.items()))))
            groups.append(tuple(here))
        first.append(len(actions))
        self.actions, self.first, self.groups = tuple(actions), tuple(first), tuple(groups)


class SamplingRows:
    """The rows of all models at each (state, action), over their sorted successors.

    Row (state, action) covers the sorted union of the models' row keys, as
    entries ``lo .. lo + size`` of ``successors``, ``lik`` and ``cdf``:
    ``lik[e, m]`` is model ``m + 1``'s probability of successor ``e`` and
    ``cdf[e, m]`` its running sum from ``lo``. A successor outside the model's
    row adds 0.0, so the sums at the model's own successors are those of its
    sorted items. ``last[m]`` is the position of the model's last own
    successor, which takes any remainder, or -1 for an empty row. Rows are
    appended as they are first asked for, and never change; the arrays are
    replaced as they grow.
    """

    def __init__(self, models: tuple[Mdp, ...]) -> None:
        self.models = models
        self.index: dict[tuple[str, str], tuple[int, int, tuple[int, ...]]] = {}
        self.successors: list[str] = []
        self.lik = np.empty((64, len(models)))
        self.cdf = np.empty((64, len(models)))

    def row(self, state: str, action: str) -> tuple[int, int, tuple[int, ...]]:
        """``(lo, size, last)`` of row (state, action)."""
        found = self.index.get((state, action))
        if found is None:
            rows = [m.row(state, action) for m in self.models]
            successors = sorted(set().union(*rows))
            lik = [[r.get(t, 0.0) for r in rows] for t in successors]
            lo, size = len(self.successors), len(successors)
            if lo + size > len(self.lik):
                room = max(2 * len(self.lik), lo + size)
                for name in ("lik", "cdf"):
                    column = np.empty((room, len(self.models)))
                    column[:lo] = getattr(self, name)[:lo]
                    setattr(self, name, column)
            if size:
                self.lik[lo : lo + size] = lik
                self.cdf[lo : lo + size] = list(zip(*(itertools.accumulate(c) for c in zip(*lik))))
            self.successors.extend(successors)
            last = tuple([successors.index(max(r)) if r else -1 for r in rows])
            found = self.index[(state, action)] = (lo, size, last)
        return found


@dataclass(frozen=True)
class TransitionSystem:
    """Qualitative structure: which transitions are possible at all."""

    states: tuple[str, ...]
    actions: Mapping[str, tuple[str, ...]]
    transitions: frozenset[tuple[str, str, str]]
    initial: str

    @cached_property
    def successors(self) -> dict[tuple[str, str], frozenset[str]]:
        succ: dict[tuple[str, str], set[str]] = {
            (s, a): set() for s in self.states for a in self.actions.get(s, ())
        }
        for (s, a, t) in self.transitions:
            succ[(s, a)].add(t)
        return {k: frozenset(v) for k, v in succ.items()}

    def validate(self) -> list[str]:
        problems = []
        state_set = set(self.states)
        if self.initial not in state_set:
            problems.append(f"initial state {self.initial!r} not in states")
        for (s, a, t) in self.transitions:
            if s not in state_set or t not in state_set:
                problems.append(f"transition ({s},{a},{t}) touches unknown state")
            elif a not in self.actions.get(s, ()):
                problems.append(f"transition ({s},{a},{t}) uses unknown action")
        for (s, a), succ in self.successors.items():
            if not succ:
                problems.append(f"action {a!r} at state {s!r} has no outgoing transition")
        return problems


@dataclass(frozen=True)
class History:
    """Alternating state-action sequence s_0, a_0, s_1, ..., s_t."""

    states: tuple[str, ...]
    actions: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if len(self.states) != len(self.actions) + 1:
            raise ModelError("history needs exactly one more state than actions")

    @property
    def horizon(self) -> int:
        return len(self.actions)

    def check(self, mdp: Mdp) -> list[str]:
        """List invariant violations of this history relative to ``mdp``."""
        problems = []
        if self.states[0] != mdp.initial:
            problems.append(f"history starts at {self.states[0]!r}, not the initial state")
        for tau, a in enumerate(self.actions):
            if a not in mdp.actions.get(self.states[tau], ()):
                problems.append(f"action {a!r} unavailable at step {tau}")
        return problems


def induced_transition_system(mdp: Mdp) -> TransitionSystem:
    """The unique transition system carrying the support of the kernel."""
    triples = set()
    for s in mdp.states:
        for a in mdp.actions.get(s, ()):
            for t in support(mdp.row(s, a)):
                triples.add((s, a, t))
    return TransitionSystem(
        states=mdp.states,
        actions=dict(mdp.actions),
        transitions=frozenset(triples),
        initial=mdp.initial,
    )


def validate_mmdp(mmdp: Mmdp) -> list[str]:
    """Report every invariant violation; an empty report means valid."""
    problems: list[str] = []
    if mmdp.n < 2:
        problems.append(f"an MMDP needs at least 2 models, got {mmdp.n}")
    base = mmdp.models[0]
    for m in mmdp.models:
        problems.extend(_validate_mdp(m))
    for m in mmdp.models[1:]:
        if m.states != base.states:
            problems.append(f"shared-structure violation: states of {m.name} differ from {base.name}")
        else:
            for s in base.states:
                if m.actions.get(s) != base.actions.get(s):
                    problems.append(f"shared-structure violation at state {s}")
        if m.initial != base.initial:
            problems.append(f"shared-structure violation: initial of {m.name} differs from {base.name}")
    return problems


def _validate_mdp(m: Mdp) -> list[str]:
    problems: list[str] = []
    state_set = set(m.states)
    if len(state_set) != len(m.states):
        problems.append(f"model {m.name}: duplicate state identifiers")
    if m.initial not in state_set:
        problems.append(f"model {m.name}: initial state {m.initial!r} not in states")
    for s in m.states:
        acts = m.actions.get(s, ())
        if not acts:
            problems.append(f"model {m.name}: state {s} has no actions")
        if len(set(acts)) != len(acts):
            problems.append(f"model {m.name}: duplicate actions at state {s}")
    for (s, a) in m.kernel:
        if s not in state_set:
            problems.append(f"model {m.name}: kernel row at unknown state {s!r}")
        elif a not in m.actions.get(s, ()):
            problems.append(f"model {m.name}: kernel row at ({s}, {a}) but {a!r} not in actions({s})")
    for s in m.states:
        for a in m.actions.get(s, ()):
            row = m.kernel.get((s, a))
            if row is None:
                problems.append(f"model {m.name}: missing distribution at ({s}, {a})")
                continue
            total = 0.0
            for succ, p in row.items():
                if succ not in state_set:
                    problems.append(f"model {m.name}: dangling successor {succ!r} at ({s}, {a})")
                if not 0.0 <= p <= 1.0:
                    problems.append(f"model {m.name}: probability {p} outside [0,1] at ({s}, {a})")
                total += p
            if abs(total - 1.0) > PROB_SUM_TOL:
                problems.append(
                    f"model {m.name}: distribution at ({s}, {a}) sums to {total!r}"
                    f" (expected 1 within {PROB_SUM_TOL})"
                )
    return problems


# ---------------------------------------------------------------------------
# JSON parsing / serialization
#
# Schema:
#   {"states": [...], "actions": {"<state>": ["<a>", ...]},
#    "initial": "<state>",
#    "models": [{"name": "M1", "delta": [{"from": s, "action": a, "to": s2, "p": x}, ...]}, ...]}
# Omitted (from, action, to) triples mean probability 0.
# ---------------------------------------------------------------------------


def parse_mmdp(document: str | Mapping[str, Any]) -> Mmdp:
    """Parse and validate a model document; raise ModelError with the offending path."""
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ModelError(f"document is not valid JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, Mapping):
        raise ModelError("document: expected a JSON object")

    states = _expect_str_list(doc, "states")
    actions_raw = _expect(doc, "actions", Mapping, "object")
    actions: dict[str, tuple[str, ...]] = {}
    for s, acts in actions_raw.items():
        if not isinstance(acts, list) or not all(isinstance(a, str) for a in acts):
            raise ModelError(f"actions[{s!r}]: expected a list of strings")
        actions[s] = tuple(acts)
    initial = _expect(doc, "initial", str, "string")
    models_raw = _expect(doc, "models", list, "array")
    if not models_raw:
        raise ModelError("models: expected a nonempty array")

    models = []
    for mi, mraw in enumerate(models_raw):
        path = f"models[{mi}]"
        if not isinstance(mraw, Mapping):
            raise ModelError(f"{path}: expected an object")
        name = mraw.get("name", f"M{mi + 1}")
        if not isinstance(name, str):
            raise ModelError(f"{path}.name: expected a string")
        delta = mraw.get("delta")
        if not isinstance(delta, list):
            raise ModelError(f"{path}.delta: expected an array")
        kernel: dict[tuple[str, str], dict[str, float]] = {}
        for ei, entry in enumerate(delta):
            # a plain object with plain string and number fields passes without
            # the checks below, which name the entry's path in their messages
            plain = type(entry) is dict
            if plain:
                src, act, dst = entry.get("from"), entry.get("action"), entry.get("to")
                p = entry.get("p")
                plain = (
                    type(src) is str and type(act) is str and type(dst) is str
                    and type(p) in (float, int)
                )
            if not plain:
                src, act, dst, p = _check_delta_entry(entry, f"{path}.delta[{ei}]")
            row = kernel.setdefault((src, act), {})
            if dst in row:
                raise ModelError(f"{path}.delta[{ei}]: duplicate entry for ({src}, {act}, {dst})")
            if p != 0.0:
                row[dst] = float(p)
        models.append(
            Mdp(states=tuple(states), actions=actions, kernel=kernel, initial=initial, name=name)
        )

    mmdp = Mmdp(models=tuple(models))
    report = validate_mmdp(mmdp)
    if report:
        raise ModelError("invalid model: " + "; ".join(report))
    return mmdp


def serialize_mmdp(mmdp: Mmdp) -> dict[str, Any]:
    """Inverse of :func:`parse_mmdp`; parse(serialize(m)) reproduces ``m`` exactly."""
    base = mmdp.models[0]
    out: dict[str, Any] = {
        "states": list(base.states),
        "actions": {s: list(base.actions[s]) for s in base.states},
        "initial": base.initial,
        "models": [],
    }
    for m in mmdp.models:
        delta = []
        for s in m.states:
            for a in m.actions[s]:
                row = m.row(s, a)
                for t in sorted(row):
                    delta.append({"from": s, "action": a, "to": t, "p": row[t]})
        out["models"].append({"name": m.name, "delta": delta})
    return out


def mmdp_to_json(mmdp: Mmdp) -> str:
    return json.dumps(serialize_mmdp(mmdp), indent=2, sort_keys=True) + "\n"


def _check_delta_entry(entry: Any, epath: str) -> tuple[str, str, str, int | float]:
    if not isinstance(entry, Mapping):
        raise ModelError(f"{epath}: expected an object")
    src = _expect(entry, "from", str, "string", epath)
    act = _expect(entry, "action", str, "string", epath)
    dst = _expect(entry, "to", str, "string", epath)
    p = entry.get("p")
    if not isinstance(p, (int, float)) or isinstance(p, bool):
        raise ModelError(f"{epath}.p: expected a number")
    return src, act, dst, p


def _expect(doc: Mapping, key: str, typ: type, typename: str, prefix: str = "") -> Any:
    path = f"{prefix}.{key}" if prefix else key
    if key not in doc:
        raise ModelError(f"{path}: missing required field")
    value = doc[key]
    if typ is str and isinstance(value, bool):
        raise ModelError(f"{path}: expected a {typename}")
    if not isinstance(value, typ):
        raise ModelError(f"{path}: expected a {typename}")
    return value


def _expect_str_list(doc: Mapping, key: str) -> list[str]:
    value = _expect(doc, key, list, "array")
    if not all(isinstance(x, str) for x in value):
        raise ModelError(f"{key}: expected an array of strings")
    return value


def fresh_name(base: str, taken: Iterable[str]) -> str:
    """A name starting with ``base`` that does not collide with ``taken``."""
    taken = set(taken)
    name = base
    while name in taken:
        name += "_"
    return name
