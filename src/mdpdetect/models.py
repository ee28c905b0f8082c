"""Core model types: MDPs, multi-model MDPs and the rows they share, histories.

State and action identifiers are strings at the API and file level; numeric
code (matrix construction, simulation) interns them to dense indices where it
matters. Kernel rows are sparse: entries with probability zero are dropped at
parse time, so the support of a row is exactly its key set.
"""

from __future__ import annotations

import gc
import json
import math
from dataclasses import dataclass, field
from functools import cached_property, partial, reduce, wraps
from itertools import repeat
from operator import add, lt
from typing import Any, Iterable, Mapping

from .errors import ModelError

# Tolerance for a kernel row to count as a probability distribution.
PROB_SUM_TOL = 1e-9
# Tolerance below which two distributions are considered equal entrywise.
ROW_EQ_TOL = 1e-12

Row = Mapping[str, float]

_MASK64 = (1 << 64) - 1

_positive = partial(lt, 0.0)  # p > 0.0


def _left_sum(xs: Iterable[float]) -> float:
    """``xs`` added left to right, as ``sum()`` did before Python 3.12 compensated float sums."""
    return reduce(add, xs, 0)


def actions_at(actions: Mapping[str, tuple[str, ...]], state: str) -> tuple[str, ...]:
    """``actions[state]``; ``ModelError`` for a state without an entry, as synthesis raises."""
    if state not in actions:
        raise ModelError(f"state {state!r} has no entry in actions")
    return actions[state]


def support(row: Row) -> frozenset[str]:
    """Successors with strictly positive probability."""
    return frozenset(s for s, p in row.items() if p > 0.0)


def trial_rng(seed: int, stream: int) -> Any:
    """Independent counter-based stream for (seed, stream index), a ``numpy.random.Generator``.

    The Philox4x64-10 generator keyed ``(seed, stream)``, both modulo 2**64
    as exact ``uint64`` words, so every seed and stream index below 2**64
    has its own stream. The recommender profile draws from
    ``trial_rng(seed, 0)``; the lockstep kernel of ``simulate`` computes
    these very streams itself, bit for bit, without ``numpy.random``.
    """
    import numpy as np

    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


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

    def row(self, state: str, action: str) -> Row:
        return self.kernel.get((state, action), {})

    def prob(self, state: str, action: str, succ: str) -> float:
        return self.kernel.get((state, action), {}).get(succ, 0.0)


@dataclass(frozen=True)
class Mmdp:
    """An ordered set of candidate MDPs over one shared structure skeleton.

    Read-only once built. The model keeps what it derives on first use:
    :attr:`rows`, the one row table of synthesis and run time, and the
    controller table that ``simulate`` or ``pairwise_bc_curve`` last
    compiled, with the policy it was compiled for.
    """

    models: tuple[Mdp, ...]
    # at most one (policy, compiled controller) pair, replaced whole and never
    # emptied once set; the table indexes ``rows``
    _controller: list[tuple[Any, Any]] = field(
        default_factory=list, init=False, repr=False, compare=False
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

    @cached_property
    def rows(self) -> Rows:
        """The one row table of synthesis and run time, built on first use."""
        return Rows(self)


class Rows:
    """The rows the models share, over states interned to bit positions.

    ``names[i]`` is the state of bit ``i`` of a state bitset, in sorted name
    order, so ascending bits visit the states in sorted order; ``index`` maps
    names back. Row ``r`` is one (state, action) pair: state ``i`` owns rows
    ``first[i] .. first[i + 1]``, in sorted action order, and ``actions[r]``
    names the action; the pairs some model's kernel has but no state
    declares come after them. Row (state, action) covers the sorted union of
    the models' row keys, as entries ``lo .. lo + size`` of ``successors``
    and ``masks``, where ``(lo, size, last) = row(state, action)``; any
    other pair is an empty row. ``masks[e]`` has bit ``m - 1`` set where
    model ``m`` gives successor ``e`` positive probability: the one rule by
    which synthesis and run time eliminate a model. ``last[m]`` is the
    position of model ``m + 1``'s last own successor, which takes any
    remainder, or -1 for an empty row.

    One pass over the rows builds all of this together with every model's
    probability of each entry, read per row with C-level calls (0.0 for a
    successor outside the model's row); the masks are then read off those
    probabilities. Where the models' rows share one key set, as nearly all
    rows of a generated model do, every model's ``last`` is the row's last
    entry; only the other rows look up each model's largest key.

    Each reader builds its own view on first use. Synthesis reads
    ``groups``: ``groups[i]`` lists state ``i``'s rows in its declared action
    order as ``(r, ((mask, successors), ...))``, the row's successors as one
    bitset per model mask, masks ascending. Run time reads :meth:`row` and,
    with numpy, ``lik`` and ``cdf``, which wrap the pass's probabilities:
    ``lik[e, m]`` is model ``m + 1``'s probability of entry ``e`` and
    ``cdf[e, m]`` the running sum from ``lo``. A successor outside the
    model's row adds 0.0, so the sums at the model's own successors are
    those of its sorted items. Read-only once built; ``lik`` and ``cdf`` are
    not writable.
    """

    def __init__(self, mmdp: Mmdp) -> None:
        self._models = models = mmdp.models
        self.names = tuple(sorted(mmdp.states))
        self.index = {s: i for i, s in enumerate(self.names)}
        keys: list[tuple[str, str]] = []
        first = []
        for s in self.names:
            first.append(len(keys))
            keys += [(s, a) for a in sorted(mmdp.actions.get(s, ()))]
        first.append(len(keys))
        self.first, self.actions = tuple(first), tuple([a for _, a in keys])
        self.successors: list[str] = []
        self._lo = [0]  # row r's entries are _lo[r] .. _lo[r + 1]
        self._index: dict[tuple[str, str], tuple[int, int, tuple[int, ...]]] = {}
        self._columns: list[list[Any]] = [[] for _ in models]  # model m + 1's probability of each entry
        empty: Row = {}
        for key in dict.fromkeys(keys + [key for m in models for key in m.kernel]):
            here = [m.kernel.get(key, empty) for m in models]
            order = sorted(here[0])
            listed = [list(r) == order for r in here]  # a row listing its keys in sorted order
            if all(listed) or all([r.keys() == here[0].keys() for r in here]):
                last = (len(order) - 1,) * len(models)
            else:  # the models' rows differ in their keys
                order = sorted(set().union(*here))
                listed = [list(r) == order for r in here]
                last = tuple([order.index(max(r)) if r else -1 for r in here])
            for column, r, s in zip(self._columns, here, listed):
                column += r.values() if s else map(r.get, order, repeat(0.0))
            self._index[key] = (len(self.successors), len(order), last)
            self.successors += order
            self._lo.append(len(self.successors))
        # a model's bit is cleared where its probability is not p > 0.0: 0.0, outside its row, negative or NaN
        self.masks = [(1 << len(models)) - 1] * len(self.successors)
        for bit, column in enumerate(self._columns):
            if not all(map(_positive, column)):
                for e, p in enumerate(column):
                    if not p > 0.0:
                        self.masks[e] &= ~(1 << bit)

    def row(self, state: str, action: str) -> tuple[int, int, tuple[int, ...]]:
        """``(lo, size, last)`` of row (state, action)."""
        return self._index.get((state, action), (0, 0, (-1,) * len(self._models)))

    @cached_property
    def groups(self) -> tuple[tuple[tuple[int, tuple[tuple[int, int], ...]], ...], ...]:
        """The view of synthesis, built on first use.

        Raises ``ModelError`` for a state without an action list, or for a
        row that moves outside the states.
        """
        declared, index, first, lo = self._models[0].actions, self.index, self.first, self._lo
        groups = []
        for i, s in enumerate(self.names):
            here = []
            for a in actions_at(declared, s):
                r = self.actions.index(a, first[i], first[i + 1])
                by_mask: dict[int, int] = {}
                for t, mask in zip(self.successors[lo[r] : lo[r + 1]], self.masks[lo[r] : lo[r + 1]]):
                    if mask:
                        if t not in index:  # name the first the models list
                            t = next(t for m in self._models for t, p in m.row(s, a).items()
                                     if p > 0.0 and t not in index)
                            raise ModelError(f"row ({s}, {a}) moves to {t!r}, which is not a state")
                        by_mask[mask] = by_mask.get(mask, 0) | 1 << index[t]
                here.append((r, tuple(sorted(by_mask.items()))))
            groups.append(tuple(here))
        return tuple(groups)

    @cached_property
    def lik(self) -> Any:
        """The run-time view of probabilities, built on first use; loads numpy."""
        import numpy as np  # only run time needs numpy; synthesis runs without it

        columns = np.array(self._columns, float, order="F")  # laid out entry by entry, so .T is lik
        columns.setflags(write=False)
        del self._columns  # the array holds the probabilities now
        return columns.T

    @cached_property
    def cdf(self) -> Any:
        """The run-time view of running sums, built on first use; loads numpy."""
        import numpy as np

        # each row's running sums, one addition per entry in row order
        cdf, lo = self.lik.copy(), self._lo
        pos = np.arange(len(self.successors)) - np.repeat(lo[:-1], np.diff(lo))
        for j in range(1, pos.max(initial=0) + 1):
            e = np.flatnonzero(pos == j)
            cdf[e] += cdf[e - 1]
        cdf.setflags(write=False)
        return cdf


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
    for m in mmdp.models:
        known = set(m.states)
        problems.extend(
            f"model {m.name}: actions listed for {s!r}, which is not a state"
            for s in m.actions if s not in known
        )
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


def _collector_paused(parse):
    """``parse`` run with the cyclic garbage collector paused, the caller's setting restored after.

    A parse builds only acyclic containers, so the collector passes that its
    allocations would trigger find nothing to free; their cost grows with
    the file.
    """

    @wraps(parse)
    def paused(document):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return parse(document)
        finally:
            if enabled:
                gc.enable()

    return paused


def _decode(document: Any, what: str) -> Any:
    """``document`` decoded if it is JSON text, else as given; ``ModelError`` names ``what``."""
    if not isinstance(document, str):
        return document
    try:
        return json.loads(document)
    except json.JSONDecodeError as exc:
        raise ModelError(f"{what} is not valid JSON: {exc}") from exc


@_collector_paused
def parse_mmdp(document: str | Mapping[str, Any]) -> Mmdp:
    """Parse and validate a model document; raise ModelError with the offending path.

    Every ``from`` and ``to`` name of a state becomes the one string object
    of that state in ``states``, so the kernels hold one copy per name. The
    walk keeps the row dict of the previous entry while the entries share
    their ``(from, action)``, and looks the row up again otherwise, so rows
    listed out of order or split apart parse the same.
    """
    doc = _decode(document, "document")
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

    # each state name as the one string object of ``states``; a kernel built
    # from the decoded names would hold a separate copy per delta entry
    interned = {s: s for s in states}
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
        last: tuple[Any, Any] = (None, None)  # the (from, action) of the previous entry
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
            if src != last[0] or act != last[1]:
                last = (interned.get(src, src), act)
                row = kernel.setdefault(last, {})
            if dst in row:
                raise ModelError(f"{path}.delta[{ei}]: duplicate entry for ({src}, {act}, {dst})")
            if p != 0.0:
                row[interned.get(dst, dst)] = float(p)
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
        "actions": {s: list(actions_at(base.actions, s)) for s in base.states},
        "initial": base.initial,
        "models": [],
    }
    for m in mmdp.models:
        delta = []
        for s in m.states:
            for a in actions_at(m.actions, s):
                row = m.row(s, a)
                for t in sorted(row):
                    delta.append({"from": s, "action": a, "to": t, "p": row[t]})
        out["models"].append({"name": m.name, "delta": delta})
    return out


def mmdp_to_json(mmdp: Mmdp) -> str:
    """The model file: :func:`serialize_mmdp` as indented JSON text with sorted keys.

    Byte for byte ``json.dumps(serialize_mmdp(mmdp), indent=2,
    sort_keys=True) + "\\n"``, written straight from the models; the oracle
    tests in ``tests/test_models.py`` hold it to that. One loop over models,
    states, actions and sorted successors writes every entry; three caches,
    kept for one call, render each piece once: the fields before ``"p"`` of
    each (state, action) of string names, each string successor name, and
    each float probability. Other names and probabilities go through
    :func:`_json` every time, so values that compare equal but print
    differently (``1 == 1.0 == True``, ``0.0 == -0.0``) never share a piece.
    """
    base = mmdp.models[0]
    actions = {s: list(actions_at(base.actions, s)) for s in base.states}
    # an entry of ``delta`` sits at depth 4 and its fields at depth 5
    pad = " " * 10
    mid = f',\n{pad}"to": '
    sep = "\n        },\n        "
    heads: dict[tuple[str, str], str] = {}
    names: dict[str, str] = {}
    masses = _Masses()
    parts = [
        '{\n  "actions": ', _json(actions, "  "),
        ',\n  "initial": ', _json(base.initial, "  "),
        ',\n  "models": [\n    ',
    ]
    for m in mmdp.models:
        parts.append('{\n      "delta": [\n        ')
        opening = len(parts)
        for s in m.states:
            for a in actions_at(m.actions, s):
                head = heads.get((s, a))
                if head is None:
                    head = f'{{\n{pad}"action": {_json(a, pad)},\n{pad}"from": {_json(s, pad)},\n{pad}"p": '
                    if type(s) is str and type(a) is str:
                        heads[s, a] = head
                row = m.row(s, a)
                for t in sorted(row):
                    succ = names.get(t)
                    if succ is None:
                        succ = _json(t, pad)
                        if type(t) is str:
                            names[t] = succ
                    p = row[t]
                    parts += head, masses[p] if type(p) is float else _json(p, pad), mid, succ, sep
        # the last entry closes the array; with no entries, the array is empty
        parts[-1] = "\n        }\n      ]" if len(parts) > opening else '{\n      "delta": []'
        parts += ',\n      "name": ', _json(m.name, " " * 6), "\n    },\n    "
    parts[-1] = "\n    }\n  ]"
    parts += ',\n  "states": ', _json(list(base.states), "  "), "\n}\n"
    return "".join(parts)


class _Masses(dict):
    """The text of each probability of type ``float``, rendered on first use.

    Only nonzero finite values are kept, as ``0.0 == -0.0`` would share a
    key; ints, bools and float subclasses never reach this table, as
    ``1 == 1.0 == True`` would too.
    """

    def __missing__(self, p: float) -> str:
        text = _json(p, "")
        if p and math.isfinite(p):
            self[p] = text
        return text


# ---------------------------------------------------------------------------
# JSON text as ``json.dumps(..., indent=2, sort_keys=True)`` writes it.
#
# Each helper returns a value's text for a value nested at indent ``pad``:
# lines inside it are indented by ``pad`` plus two spaces, and its closing
# bracket by ``pad``. json encodes in C only without ``indent``, so the model
# and policy writers use these instead; strings still go through json's own
# C escaper, and floats through ``float.__repr__`` as in json.
# ---------------------------------------------------------------------------

_string = json.encoder.encode_basestring_ascii
_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(value: Any, pad: str) -> str:
    """Any JSON value, as json writes it."""
    if isinstance(value, str):
        return _string(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NONFINITE.get(text, text)
    if isinstance(value, dict):
        inner = pad + "  "
        return _object([(k, _json(v, inner)) for k, v in sorted(value.items())], pad)
    if isinstance(value, (list, tuple)):
        try:
            items = list(map(_string, value))  # the usual array of names
        except TypeError:
            inner = pad + "  "
            items = [_json(v, inner) for v in value]
        return _array(items, pad)
    return json.dumps(value)  # None, a bool or an int; a TypeError for anything else


def _array(items: list[str], pad: str, brackets: str = "[]") -> str:
    """An array of the written ``items``, or with ``brackets="{}"`` an object of written fields."""
    if not items:
        return brackets
    inner = pad + "  "
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{brackets[1]}"


def _object(fields: list[tuple[Any, str]], pad: str) -> str:
    """An object of ``(key, written value)`` fields, in the order given."""
    return _array([f"{_key(k)}: {text}" for k, text in fields], pad, "{}")


def _key(key: Any) -> str:
    """An object key, as json writes it."""
    if isinstance(key, str):
        return _string(key)
    if key is None or isinstance(key, (int, float)):  # bools are ints
        return _string(_json(key, ""))
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


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
