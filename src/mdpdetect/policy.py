"""Composite detection policies: per active-model-subset reach + in-component phases.

A policy is a table keyed by (active set, entry state). Each entry carries a
deterministic reach table and the informative end components found at that
level, in which it randomizes uniformly (:meth:`Mec.distribution`). Execution
semantics live in ``analysis._expand_aug`` and ``analysis._CompiledController``,
which :mod:`mdpdetect.simulate` and ``pairwise_bc_curve`` both read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Mapping

from .errors import ModelError
from .graphs import Mec
from .models import Mmdp, _collector_paused, _decode, _json, _object, actions_at

ActiveSet = tuple[int, ...]  # sorted 1-based model indices


def active_set(indices: Iterable[int]) -> ActiveSet:
    """Canonical (sorted, deduplicated) encoding of a model-index subset."""
    return tuple(sorted(set(indices)))


def members(mask: int, active: ActiveSet) -> ActiveSet:
    """The models of ``active`` whose bit (``i - 1`` for model ``i``) is set in ``mask``.

    The one rule that eliminates a model: by support, never by the size of a
    posterior. Synthesis and run time apply it to the same model masks,
    those of :attr:`Mmdp.rows`.
    """
    return tuple([i for i in active if mask >> (i - 1) & 1])


@dataclass(frozen=True)
class PolicyEntry:
    """The policy while ``active`` models remain, entered at ``entry_state``.

    ``reach`` plays one action per state until the run enters a component of
    ``mecs``; it then randomizes uniformly inside that component.
    """

    active: ActiveSet
    entry_state: str
    reach: Mapping[str, str]
    mecs: tuple[Mec, ...] = field(default=())

    def committed_mec(self, state: str) -> int | None:
        """Index of the first informative component containing ``state``, if any."""
        return self.mec_of.get(state)

    @cached_property
    def mec_of(self) -> dict[str, int]:
        """Each component state's :meth:`committed_mec`, built on first use: the entry is read-only."""
        return {s: k for k in reversed(range(len(self.mecs))) for s in self.mecs[k].states}


@dataclass(frozen=True)
class DetectionPolicy:
    """Memory policy: one entry per (active set, entry state) pair.

    Read-only once built: ``simulate`` and ``pairwise_bc_curve`` keep the
    controller they compile for a policy on the model and reuse it whenever
    the same policy object plays again, so a policy changed in place would
    play its old moves.
    """

    entries: Mapping[tuple[ActiveSet, str], PolicyEntry]

    def entry(self, active: ActiveSet, entry_state: str) -> PolicyEntry | None:
        return self.entries.get((active, entry_state))


def single_entry_policy(entry: PolicyEntry) -> DetectionPolicy:
    return DetectionPolicy(entries={(entry.active, entry.entry_state): entry})


def stationary_uniform_policy(mmdp: Mmdp) -> DetectionPolicy:
    """Uniform-over-all-actions baseline wrapped as a DetectionPolicy.

    The whole state space is wrapped in a single pseudo-component so the
    runtime randomizes uniformly forever. Useful as a passive baseline and in
    bound checks; makes no detection claim.
    """
    mec = Mec(mmdp.states, {s: actions_at(mmdp.actions, s) for s in mmdp.states})
    entry = PolicyEntry(
        active=active_set(range(1, mmdp.n + 1)),
        entry_state=mmdp.initial,
        reach={},
        mecs=(mec,),
    )
    return single_entry_policy(entry)


def entry_as_stationary(entry: PolicyEntry, mmdp: Mmdp) -> dict[str, dict[str, float]]:
    """Flatten one policy entry into a stationary Markovian action table.

    Component states randomize uniformly over the enabled actions of the
    component they commit to (:attr:`PolicyEntry.mec_of`, the first that
    holds them, as the controller plays), reach states play their
    deterministic action, and every other state falls back to its first
    action (unreachable under the policy from the entry state).
    """
    table = {s: {actions_at(mmdp.actions, s)[0]: 1.0} for s in mmdp.states}
    for s, a in entry.reach.items():
        if s in table:
            table[s] = {a: 1.0}
    for s, k in entry.mec_of.items():
        if s in table:
            table[s] = entry.mecs[k].distribution(s)
    return table


# ---------------------------------------------------------------------------
# JSON wire format:
#   {"entries": [{"active": [...], "entry_state": s,
#                 "reach": {s: a, ...},
#                 "mecs": [{"states": {s: [a, ...], ...}}, ...]}, ...]}
# ---------------------------------------------------------------------------


def serialize_policy(policy: DetectionPolicy) -> dict[str, Any]:
    entries = []
    for key in sorted(policy.entries, key=lambda k: (k[0], k[1])):
        e = policy.entries[key]
        entries.append(
            {
                "active": list(e.active),
                "entry_state": e.entry_state,
                "reach": {s: e.reach[s] for s in sorted(e.reach)},
                "mecs": [{"states": mec.as_dict()} for mec in e.mecs],
            }
        )
    return {"entries": entries}


def policy_to_json(policy: DetectionPolicy) -> str:
    """The policy file: :func:`serialize_policy` as indented JSON text with sorted keys.

    Byte for byte ``json.dumps(serialize_policy(policy), indent=2,
    sort_keys=True) + "\\n"``, written straight from the entries and their
    components by the JSON helpers of :mod:`mdpdetect.models`; the oracle
    tests in ``tests/test_models.py`` hold it to that. Each component is
    written once however many entries list it, and the file is joined once
    from the list of pieces.
    """
    # An entry sits at depth 2, its fields at depth 3 and a component at depth 4
    components: dict[int, str] = {}  # by the component's id: equal ones may differ in states
    lists: dict[frozenset[str], str] = {}
    parts = ['{\n  "entries": ', "[\n    "]
    for key in sorted(policy.entries):
        e = policy.entries[key]
        parts += (
            '{\n      "active": ', _json(list(e.active), " " * 6),
            ',\n      "entry_state": ', _json(e.entry_state, " " * 6),
            ',\n      "mecs": ', "[\n        ",
        )
        for mec in e.mecs:
            text = components.get(id(mec))
            if text is None:
                text = components[id(mec)] = _component_json(mec, lists)
            parts += text, ",\n        "
        parts[-1] = "\n      ]" if e.mecs else "[]"
        reach = [(s, _json(a, " " * 8)) for s, a in sorted(e.reach.items())]
        parts += ',\n      "reach": ', _object(reach, " " * 6), "\n    },\n    "
    parts[-1] = "\n    }\n  ]\n}\n" if policy.entries else "[]\n}\n"
    return "".join(parts)


def _component_json(mec: Mec, lists: dict[frozenset[str], str]) -> str:
    """One item of an entry's ``mecs`` array, at depth 4.

    ``lists`` holds the text of each action set of strings already written:
    components share few distinct action lists.
    """
    # the action list of a component state sits at depth 6
    states = []
    for s in sorted(mec.states):
        acts = mec.actions.get(s, frozenset())
        text = lists.get(acts)
        if text is None:
            text = _json(sorted(acts), " " * 12)
            if set(map(type, acts)) <= _STR:  # 1, 1.0 and True would share a key
                lists[acts] = text
        states.append((s, text))
    return _object([("states", _object(states, " " * 10))], " " * 8)


_STR = {str}


@_collector_paused
def parse_policy(document: str | Mapping[str, Any]) -> DetectionPolicy:
    """Parse and check a policy document; raise ModelError with the offending path."""
    doc = _decode(document, "policy document")
    if not isinstance(doc, Mapping) or not isinstance(doc.get("entries"), list):
        raise ModelError("policy document: expected {'entries': [...]}")
    entries: dict[tuple[ActiveSet, str], PolicyEntry] = {}
    known: dict[tuple[str, ...] | frozenset[str], frozenset[str]] = {}
    for i, raw in enumerate(doc["entries"]):
        path = f"entries[{i}]"
        if not isinstance(raw, Mapping):
            raise ModelError(f"{path}: expected an object")
        active_raw = raw.get("active")
        if not isinstance(active_raw, list) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in active_raw
        ):
            raise ModelError(f"{path}.active: expected an array of integers")
        entry_state = raw.get("entry_state")
        if not isinstance(entry_state, str):
            raise ModelError(f"{path}.entry_state: expected a string")
        reach = raw.get("reach", {})
        if not isinstance(reach, Mapping) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in reach.items()
        ):
            raise ModelError(f"{path}.reach: expected a string-to-string object")
        mecs_raw = raw.get("mecs", [])
        if not isinstance(mecs_raw, list):
            raise ModelError(f"{path}.mecs: expected an array")
        mecs = []
        for j, mec_raw in enumerate(mecs_raw):
            states = mec_raw.get("states") if isinstance(mec_raw, Mapping) else None
            actions = _component_actions(states, known)
            if actions is None:
                raise ModelError(f"{path}.mecs[{j}].states: expected state -> nonempty action list")
            mecs.append(Mec(actions.keys(), actions))
        key = (active_set(active_raw), entry_state)
        if key in entries:
            raise ModelError(f"{path}: duplicate entry for active set {list(key[0])} at {entry_state!r}")
        entries[key] = PolicyEntry(
            active=key[0], entry_state=entry_state, reach=dict(reach), mecs=tuple(mecs)
        )
    return DetectionPolicy(entries=entries)


def _component_actions(states: Any, known: dict) -> dict[str, frozenset[str]] | None:
    """Each state's action set from a component's ``states`` object; None unless
    it maps strings to nonempty lists of strings.

    ``known`` holds the sets of the lists already checked, keyed by the list as
    a tuple and by the set itself (a tuple never equals a set), so each distinct
    list is checked once and equal sets are one object: a policy lists the same
    few action sets at thousands of component states.
    """
    if not isinstance(states, Mapping):
        return None
    actions = {}
    for s, acts in states.items():
        if not isinstance(s, str) or not isinstance(acts, list):
            return None
        listed = tuple(acts)
        try:
            shared = known.get(listed)
        except TypeError:  # an unhashable item, so not a string
            return None
        if shared is None:
            if not acts or not all(isinstance(a, str) for a in acts):
                return None
            shared = frozenset(acts)
            shared = known[listed] = known.setdefault(shared, shared)
        actions[s] = shared
    return actions
