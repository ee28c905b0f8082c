"""Composite detection policies: per active-model-subset reach + in-component phases.

A policy is a table keyed by (active set, entry state). Each entry carries a
deterministic reach fragment and a list of uniform in-component fragments over
the informative end components found at that level. Execution semantics live
in :mod:`mdpdetect.simulate`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping

from .errors import ModelError
from .graphs import Mec, MecUniformPolicy, mec_uniform_policy
from .models import Mmdp

ActiveSet = tuple[int, ...]  # sorted 1-based model indices


def active_set(indices: Iterable[int]) -> ActiveSet:
    """Canonical (sorted, deduplicated) encoding of a model-index subset."""
    return tuple(sorted(set(indices)))


def survivors(mmdp: Mmdp, active: ActiveSet, s: str, a: str, s2: str) -> ActiveSet:
    """The models of ``active`` that give the transition (s, a, s2) positive probability.

    This is the only rule by which a candidate model is eliminated, at
    synthesis time and at run time alike: by support, never by the size of
    a posterior.
    """
    models = mmdp.models
    key = (s, a)
    return tuple([i for i in active if models[i - 1].kernel.get(key, {}).get(s2, 0.0) > 0.0])


@dataclass(frozen=True)
class PolicyEntry:
    """Policy fragments used while ``active`` models remain, entered at ``entry_state``."""

    active: ActiveSet
    entry_state: str
    reach: Mapping[str, str]
    mecs: tuple[MecUniformPolicy, ...] = field(default=())

    def committed_mec(self, state: str) -> int | None:
        """Index of the informative component containing ``state``, if any."""
        for k, frag in enumerate(self.mecs):
            if state in frag.mec.states:
                return k
        return None


@dataclass(frozen=True)
class DetectionPolicy:
    """Memory policy: one entry per (active set, entry state) pair."""

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
    mec = Mec(mmdp.states, {s: mmdp.actions[s] for s in mmdp.states})
    entry = PolicyEntry(
        active=active_set(range(1, mmdp.n + 1)),
        entry_state=mmdp.initial,
        reach={},
        mecs=(mec_uniform_policy(mec),),
    )
    return single_entry_policy(entry)


def entry_as_stationary(entry: PolicyEntry, mmdp: Mmdp) -> dict[str, dict[str, float]]:
    """Flatten one policy entry into a stationary Markovian action table.

    Component states randomize uniformly over the enabled actions, reach
    states play their deterministic action, and every other state falls back
    to its first action (unreachable under the policy from the entry state).
    """
    table: dict[str, dict[str, float]] = {}
    for s in mmdp.states:
        table[s] = {mmdp.actions[s][0]: 1.0}
    for s, a in entry.reach.items():
        if s in table:
            table[s] = {a: 1.0}
    for frag in entry.mecs:
        for s in frag.mec.states:
            if s in table:
                table[s] = dict(frag.distribution(s))
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
                "mecs": [{"states": frag.mec.as_dict()} for frag in e.mecs],
            }
        )
    return {"entries": entries}


def policy_to_json(policy: DetectionPolicy) -> str:
    return json.dumps(serialize_policy(policy), indent=2, sort_keys=True) + "\n"


def parse_policy(document: str | Mapping[str, Any]) -> DetectionPolicy:
    if isinstance(document, str):
        try:
            doc = json.loads(document)
        except json.JSONDecodeError as exc:
            raise ModelError(f"policy document is not valid JSON: {exc}") from exc
    else:
        doc = document
    if not isinstance(doc, Mapping) or not isinstance(doc.get("entries"), list):
        raise ModelError("policy document: expected {'entries': [...]}")
    entries: dict[tuple[ActiveSet, str], PolicyEntry] = {}
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
        mecs = []
        for j, mec_raw in enumerate(raw.get("mecs", [])):
            mpath = f"{path}.mecs[{j}]"
            states = mec_raw.get("states") if isinstance(mec_raw, Mapping) else None
            if not isinstance(states, Mapping) or not all(
                isinstance(s, str) and isinstance(acts, list) and acts for s, acts in states.items()
            ):
                raise ModelError(f"{mpath}.states: expected state -> nonempty action list")
            mecs.append(mec_uniform_policy(Mec(states.keys(), states)))
        entry = PolicyEntry(
            active=active_set(active_raw),
            entry_state=entry_state,
            reach=dict(reach),
            mecs=tuple(mecs),
        )
        entries[(entry.active, entry.entry_state)] = entry
    return DetectionPolicy(entries=entries)
