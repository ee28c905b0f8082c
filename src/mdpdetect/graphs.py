"""Qualitative graph algorithms on transition systems.

Everything here ignores probability values: maximal end components,
almost-sure reachability, and the two policy fragments (deterministic reach
policy, uniform in-component policy) are all functions of the support
structure alone.

The algorithms run on a :class:`SupportGraph`, whose states are interned to
bit positions: a set of states is one Python ``int``, and "the support of a
row stays inside U" is ``succ & ~U == 0``. :func:`mec_decompose`,
:func:`almost_sure_reach_set` and :func:`reach_policy` take a
``TransitionSystem`` (interned on the spot) or a ``SupportGraph``, and answer
in state and action names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import ContractError
from .models import TransitionSystem


def bit_indices(bits: int) -> list[int]:
    """The positions of the set bits of ``bits``, ascending."""
    return [i for i, c in enumerate(bin(bits)[:1:-1]) if c == "1"]


class SupportGraph:
    """A transition system over states interned to bit positions.

    ``names[i]`` is the state of bit ``i`` and ``index`` maps names back. The
    rows (state-action pairs) of state ``i`` are ``first[i] .. first[i + 1]``,
    in sorted action order: row ``r`` plays ``actions[r]`` and moves to the
    states of the bitset ``succ[r]``. The system holds the states of the
    bitset ``domain``; the rows of the other states are ignored. A successor
    outside ``names`` is bit ``len(names)``, which no domain holds.
    """

    __slots__ = ("names", "index", "actions", "first", "succ", "domain")

    def __init__(
        self,
        names: tuple[str, ...],
        index: Mapping[str, int],
        actions: Sequence[str],
        first: Sequence[int],
        succ: Sequence[int],
        domain: int,
    ) -> None:
        self.names = names
        self.index = index
        self.actions = actions
        self.first = first
        self.succ = succ
        self.domain = domain

    @classmethod
    def of(cls, ts: TransitionSystem | SupportGraph) -> SupportGraph:
        """``ts`` itself if it is interned already, else its states interned in sorted order."""
        if isinstance(ts, SupportGraph):
            return ts
        names = tuple(sorted(set(ts.states)))
        index = {s: i for i, s in enumerate(names)}
        outside = 1 << len(names)
        successors = ts.successors
        actions: list[str] = []
        first: list[int] = []
        succ: list[int] = []
        for s in names:
            first.append(len(actions))
            for a in sorted(ts.actions.get(s, ())):
                bits = 0
                for t in successors[(s, a)]:
                    bits |= 1 << index[t] if t in index else outside
                actions.append(a)
                succ.append(bits)
        first.append(len(actions))
        return cls(names, index, actions, first, succ, outside - 1)

    def over(self, succ: Sequence[int], domain: int) -> SupportGraph:
        """The same states and rows with other successor sets and another domain."""
        return SupportGraph(self.names, self.index, self.actions, self.first, succ, domain)

    @property
    def states(self) -> tuple[str, ...]:
        """The names of the states of the system, in bit order."""
        return tuple([self.names[i] for i in bit_indices(self.domain)])

    def bits(self, states: Iterable[str]) -> int:
        """The bitset of ``states``; each must belong to the system."""
        out = 0
        for s in states:
            out |= 1 << self.index[s]
        return out

    def row_bits(self, pairs: Iterable[tuple[str, str]]) -> int:
        """The bitset of the rows of the (state, action) ``pairs``."""
        out = 0
        for s, a in pairs:
            i = self.index[s]
            out |= 1 << self.actions.index(a, self.first[i], self.first[i + 1])
        return out

    def triples(self) -> Iterable[tuple[str, str, str]]:
        """Every transition (state, action, successor) of the system."""
        names, actions, first, succ = self.names, self.actions, self.first, self.succ
        for i in bit_indices(self.domain):
            for r in range(first[i], first[i + 1]):
                for j in bit_indices(succ[r]):
                    yield (names[i], actions[r], names[j])

    def _holds(self, state: str) -> bool:
        i = self.index.get(state)
        return i is not None and self.domain >> i & 1 == 1


class Mec:
    """An end component: a state set plus, per state, the enabled action subset.

    Closure (every enabled action's successors stay inside) and strong
    connectivity are guaranteed by construction in :func:`mec_decompose`.
    A component found in a :class:`SupportGraph` also keeps its pairs as the
    graph's row bitset ``rows``; it is None otherwise.
    """

    __slots__ = ("states", "actions", "rows", "_key")

    def __init__(
        self,
        states: Iterable[str],
        actions: Mapping[str, Iterable[str]],
        rows: int | None = None,
    ):
        self.states = frozenset(states)
        self.actions: dict[str, frozenset[str]] = {
            s: frozenset(acts) for s, acts in actions.items()
        }
        self.rows = rows
        self._key = tuple(sorted((s, tuple(sorted(a))) for s, a in self.actions.items()))

    def pairs(self) -> Iterable[tuple[str, str]]:
        for s in sorted(self.states):
            for a in sorted(self.actions[s]):
                yield (s, a)

    def __contains__(self, item: object) -> bool:
        if isinstance(item, tuple) and len(item) == 2:
            s, a = item
            return s in self.states and a in self.actions.get(s, frozenset())
        return item in self.states

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Mec) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"Mec({sorted(self.states)})"

    def as_dict(self) -> dict[str, list[str]]:
        return {s: sorted(self.actions[s]) for s in sorted(self.states)}


@dataclass(frozen=True)
class PartialDeterministicPolicy:
    """Deterministic state -> action map on an explicit domain."""

    table: Mapping[str, str]

    @property
    def domain(self) -> frozenset[str]:
        return frozenset(self.table)

    def action(self, state: str) -> str:
        return self.table[state]


@dataclass(frozen=True)
class MecUniformPolicy:
    """Uniform randomization over the enabled actions of one end component."""

    mec: Mec
    probs: Mapping[str, Mapping[str, float]]

    def distribution(self, state: str) -> Mapping[str, float]:
        return self.probs[state]


def mec_decompose(ts: TransitionSystem | SupportGraph) -> tuple[Mec, ...]:
    """The unique set of maximal end components of ``ts``, ordered by their sorted states.

    Standard SCC refinement: starting from the full state set, repeatedly
    drop actions whose support leaves the current block, drop states with no
    actions left, and split blocks along their strongly connected components
    until nothing changes. Surviving blocks are exactly the MECs.
    """
    g = SupportGraph.of(ts)
    names, actions, first, succ = g.names, g.actions, g.first, g.succ
    result = []
    work = [g.domain]
    while work:
        block = work.pop()
        while True:  # the states with an action whose support stays in the block
            kept = 0
            for i in bit_indices(block):
                for r in range(first[i], first[i + 1]):
                    if not succ[r] & ~block:
                        kept |= 1 << i
                        break
            if kept == block:
                break
            block = kept
        if not block:
            continue
        post = {}
        for i in bit_indices(block):
            out = 0
            for r in range(first[i], first[i + 1]):
                if not succ[r] & ~block:
                    out |= succ[r]
            post[i] = out
        components = _components(block, post)
        if len(components) > 1:
            work.extend(components)
            continue
        acts: dict[str, list[str]] = {}
        rows = 0
        for i in bit_indices(block):
            acts[names[i]] = kept_here = []
            for r in range(first[i], first[i + 1]):
                if not succ[r] & ~block:
                    kept_here.append(actions[r])
                    rows |= 1 << r
        result.append(Mec(acts.keys(), acts, rows))
    result.sort(key=lambda c: sorted(c.states))
    return tuple(result)


def _components(block: int, post: Mapping[int, int]) -> list[int]:
    """The strongly connected components of ``block``, by forward-backward search.

    ``post[i]`` is the set of states an edge leads to from state ``i``, all
    inside ``block``. The component of a pivot is the states it reaches that
    also reach it; the states it reaches and the states it does not are each
    a union of the other components.
    """
    found = []
    work = [block]
    while work:
        rest = work.pop()
        pivot = rest & -rest
        forward = frontier = pivot
        while frontier:
            nxt = 0
            for i in bit_indices(frontier):
                nxt |= post[i]
            frontier = nxt & rest & ~forward
            forward |= frontier
        component = pivot
        grew = True
        while grew:
            grew = False
            for i in bit_indices(forward & ~component):
                if post[i] & component:
                    component |= 1 << i
                    grew = True
        found.append(component)
        work.extend(part for part in (forward & ~component, rest & ~forward) if part)
    return found


def almost_sure_reach_set(
    ts: TransitionSystem | SupportGraph, targets: Iterable[str]
) -> frozenset[str]:
    """States from which some policy reaches ``targets`` with probability one.

    Double fixpoint: within a shrinking candidate set U, keep the states that
    can reach the targets using only actions whose full support stays in U.
    """
    g = SupportGraph.of(ts)
    target_bits = _target_bits(g, frozenset(targets))
    first, succ = g.first, g.succ
    rows = [(1 << i, succ[r]) for i in bit_indices(g.domain) for r in range(first[i], first[i + 1])]
    candidate = g.domain
    while True:
        live = [(bit, t) for bit, t in rows if bit & candidate and not t & ~candidate]
        reached = target_bits
        grew = True
        while grew:
            grew = False
            rest = []
            for bit, t in live:
                if bit & reached:
                    continue
                if t & reached:
                    reached |= bit
                    grew = True
                else:
                    rest.append((bit, t))
            live = rest
        if reached == candidate:
            return frozenset([g.names[i] for i in bit_indices(reached)])
        candidate = reached


def reach_policy(
    ts: TransitionSystem | SupportGraph, targets: Iterable[str], rmax: Iterable[str]
) -> PartialDeterministicPolicy:
    """Deterministic policy reaching ``targets`` with probability one on ``rmax``.

    Requires ``rmax == almost_sure_reach_set(ts, targets)``. At each state of
    ``rmax`` minus the targets, picks the admissible action (support inside
    ``rmax``) of minimal BFS distance to the targets, ties broken by action
    identifier order.
    """
    g = SupportGraph.of(ts)
    target_set = frozenset(targets)
    target_bits = _target_bits(g, target_set)
    names, actions, first, succ = g.names, g.actions, g.first, g.succ
    rmax_set = frozenset(rmax)
    stuck = [s for s in rmax_set - target_set if not g._holds(s)]
    rmax_bits = g.bits(rmax_set.difference(stuck))
    admissible: dict[int, list[int]] = {}
    for i in bit_indices(rmax_bits & ~target_bits):
        rows = [r for r in range(first[i], first[i + 1]) if not succ[r] & ~rmax_bits]
        if rows:
            admissible[i] = rows
        else:
            stuck.append(names[i])
    if stuck:
        raise ContractError(
            f"no admissible action at {min(stuck)!r}: rmax is not an almost-sure reach set"
        )

    # Backward BFS over admissible edges, one distance layer at a time; a
    # state's action is its first admissible one into the previous layer.
    choice: dict[int, int] = {}
    layer = target_bits
    while layer and admissible:
        nxt = 0
        for i, rows in list(admissible.items()):
            for r in rows:
                if succ[r] & layer:
                    choice[i] = r
                    nxt |= 1 << i
                    del admissible[i]
                    break
        layer = nxt
    if admissible:
        far = min(names[i] for i in admissible)
        raise ContractError(
            f"state {far!r} cannot reach the targets: rmax is not an almost-sure reach set"
        )
    table = sorted((names[i], actions[r]) for i, r in choice.items())
    return PartialDeterministicPolicy(table=dict(table))


def _target_bits(g: SupportGraph, targets: frozenset[str]) -> int:
    """The bitset of ``targets``, which must be states of ``g``."""
    unknown = [s for s in targets if not g._holds(s)]
    if unknown:
        raise ContractError(f"targets outside the state space: {sorted(unknown)}")
    return g.bits(targets)


def reachable_states(ts: TransitionSystem | SupportGraph, start: str) -> frozenset[str]:
    """The states reachable from ``start`` under any actions, ``start`` included."""
    g = SupportGraph.of(ts)
    first, succ = g.first, g.succ
    seen = frontier = 1 << g.index[start]
    while frontier:
        nxt = 0
        for i in bit_indices(frontier):
            for r in range(first[i], first[i + 1]):
                nxt |= succ[r]
        frontier = nxt & g.domain & ~seen
        seen |= frontier
    return frozenset([g.names[i] for i in bit_indices(seen)])


def mec_uniform_policy(mec: Mec) -> MecUniformPolicy:
    """Uniform distribution over the enabled actions at each member state."""
    probs = {
        s: {a: 1.0 / len(mec.actions[s]) for a in sorted(mec.actions[s])}
        for s in sorted(mec.states)
    }
    return MecUniformPolicy(mec=mec, probs=probs)
