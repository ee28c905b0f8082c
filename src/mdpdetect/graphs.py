"""Qualitative graph algorithms on the support structure.

Everything here ignores probability values: maximal end components,
almost-sure reachability, the deterministic reach table and the uniform
choice inside a component (:meth:`Mec.distribution`) are all functions of the
support structure alone.

The algorithms run on a :class:`SupportGraph`, whose states are interned to
bit positions: a set of states is one Python ``int``, and "the support of a
row stays inside U" is ``succ & ~U == 0``. Synthesis builds its graphs from
:attr:`Mmdp.rows`, and :func:`model_graph` reads one model's support
from the same rows. :func:`mec_decompose`, :func:`almost_sure_reach_set` and
:func:`reach_policy` answer in state and action names.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress
from operator import or_
from typing import Iterable, Mapping, Sequence

from .errors import ContractError
from .models import Mmdp


# the digits of a binary string as the bytes 0 and 1
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def bit_indices(bits: int) -> list[int]:
    """The positions of the set bits of ``bits``, ascending.

    A sparse set, such as a search frontier over many states, is walked one
    bit at a time; a dense one, such as a level's domain, through its binary
    string, whose reversed digits select the positions at C level.
    """
    if bits.bit_count() * 8 < bits.bit_length():
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out
    return list(compress(range(bits.bit_length()), bin(bits)[:1:-1].encode().translate(_DIGITS)))


class SupportGraph:
    """A support structure over states interned to bit positions.

    ``names[i]`` is the state of bit ``i`` and ``index`` maps names back. The
    rows (state-action pairs) of state ``i`` are ``first[i] .. first[i + 1]``,
    in sorted action order: row ``r`` plays ``actions[r]`` and moves to the
    states of the bitset ``succ[r]``. The system holds the states of the
    bitset ``domain``; the rows of the other states are ignored. A successor
    outside ``names`` is bit ``len(names)``, which no domain holds.

    ``seed`` is None or a dict over some states of the domain: ``seed[i]``
    is the union of the successor sets of every row of state ``i``, which
    lies in the domain. Whoever sets it promises that those rows keep those
    successors in this graph and in every graph :meth:`over` makes from it;
    :func:`mec_decompose` then starts from it instead of reading the rows.
    """

    __slots__ = ("names", "index", "actions", "first", "succ", "domain", "seed")

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
        self.seed: dict[int, int] | None = None

    def over(self, succ: Sequence[int], domain: int) -> SupportGraph:
        """The same states, rows and seed with other successor sets and another domain."""
        graph = SupportGraph(self.names, self.index, self.actions, self.first, succ, domain)
        graph.seed = self.seed
        return graph

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

    def _holds(self, state: str) -> bool:
        i = self.index.get(state)
        return i is not None and self.domain >> i & 1 == 1


def model_graph(mmdp: Mmdp, model: int) -> SupportGraph:
    """The support of model ``model`` (1-based), read from :attr:`Mmdp.rows`.

    Row ``r`` moves to the successors of every mask group of ``r`` that holds
    the model's bit.
    """
    mmdp.model(model)  # the ModelError of an index outside 1..n
    rows, bit = mmdp.rows, 1 << model - 1
    succ = [0] * len(rows.actions)
    for here in rows.groups:
        for r, groups in here:
            for mask, bits in groups:
                if mask & bit:
                    succ[r] |= bits
    domain = (1 << len(rows.names)) - 1
    return SupportGraph(rows.names, rows.index, rows.actions, rows.first, succ, domain)


class Mec:
    """An end component: a state set plus, per state, the enabled action subset.

    Closure (every enabled action's successors stay inside) and strong
    connectivity are guaranteed by construction in :func:`mec_decompose`,
    which also keeps the component's pairs as its graph's row bitset
    ``rows``; ``rows`` is None only for a parsed or hand-built component. A
    detection policy plays :meth:`distribution` inside it.
    """

    __slots__ = ("states", "actions", "rows")

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

    def distribution(self, state: str) -> dict[str, float]:
        """Uniform over the enabled actions at ``state``, in sorted order; empty if it has none."""
        acts = sorted(self.actions.get(state, ()))
        return dict.fromkeys(acts, 1.0 / len(acts)) if acts else {}

    def _key(self) -> tuple:
        return tuple(sorted((s, tuple(sorted(a))) for s, a in self.actions.items()))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Mec) and self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return f"Mec({sorted(self.states)})"

    def as_dict(self) -> dict[str, list[str]]:
        return {s: sorted(self.actions.get(s, ())) for s in sorted(self.states)}


def mec_decompose(g: SupportGraph) -> tuple[Mec, ...]:
    """The unique set of maximal end components of ``g``, ordered by their sorted states.

    Standard SCC refinement: starting from the full state set, repeatedly
    drop actions whose support leaves the current block, drop states with no
    actions left, and split blocks along their strongly connected components
    until nothing changes. Surviving blocks are exactly the MECs.

    Each state carries the rows that stay in its block and the union of
    their successors (``post``) from round to round and into the blocks a
    split makes: a block's rows are a subset of its parent's, and a state
    whose ``post`` stays inside the smaller block keeps both unchanged. The
    first round starts from ``g.seed`` when it is set, so a seeded state
    whose successor union stays inside keeps all its rows without reading
    them. After a block's first round its states are the keys of the rows
    it kept, and later rounds walk those.
    """
    names, actions, first, succ = g.names, g.actions, g.first, g.succ
    result = []
    work: list[tuple[int, dict[int, Sequence[int]], dict[int, int]]] = [(g.domain, {}, g.seed or {})]
    while work:
        block, closed, post = work.pop()
        states: Iterable[int] = bit_indices(block)
        while True:  # the states with an action whose support stays in the block
            kept, kept_rows, kept_post, leaves = 0, {}, {}, ~block
            for i in states:
                rows = closed.get(i) or range(first[i], first[i + 1])
                out = post.get(i)
                if out is None or out & leaves:
                    rows = [r for r in rows if not succ[r] & leaves]
                    out = reduce(or_, map(succ.__getitem__, rows), 0)
                if rows:
                    kept |= 1 << i
                    kept_rows[i] = rows
                    kept_post[i] = out
            states = closed = kept_rows
            post = kept_post
            if kept == block:
                break
            block = kept
        if not block:
            continue
        components = _components(block, post)
        if len(components) > 1:
            work.extend((c, closed, post) for c in components)
            continue
        acts: dict[str, list[str]] = {}
        row_bits = 0
        for i, rows in closed.items():
            acts[names[i]] = [actions[r] for r in rows]
            for r in rows:
                row_bits |= 1 << r
        result.append(Mec(acts.keys(), acts, row_bits))
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


def almost_sure_reach_set(g: SupportGraph, targets: Iterable[str]) -> frozenset[str]:
    """States from which some policy reaches ``targets`` with probability one.

    Double fixpoint: within a shrinking candidate set U, keep the states that
    can reach the targets using only actions whose full support stays in U.
    The sweeps visit only the rows of states outside the targets, which
    ``reached`` holds from the start. Since U only shrinks, each outer round
    filters the rows the previous round kept, not the full list.
    """
    target_bits = _target_bits(g, frozenset(targets))
    first, succ = g.first, g.succ
    rows = [
        (1 << i, succ[r])
        for i in bit_indices(g.domain & ~target_bits)
        for r in range(first[i], first[i + 1])
    ]
    candidate = g.domain
    while True:
        live = rows = [(bit, t) for bit, t in rows if bit & candidate and not t & ~candidate]
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


def reach_policy(g: SupportGraph, targets: Iterable[str], rmax: Iterable[str]) -> dict[str, str]:
    """Deterministic state -> action table reaching ``targets`` with probability one on ``rmax``.

    Requires ``rmax == almost_sure_reach_set(g, targets)``. At each state of
    ``rmax`` minus the targets, picks the admissible action (support inside
    ``rmax``) of minimal BFS distance to the targets, ties broken by action
    identifier order. The table lists the states in sorted order.
    """
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
    return dict(sorted((names[i], actions[r]) for i, r in choice.items()))


def _target_bits(g: SupportGraph, targets: frozenset[str]) -> int:
    """The bitset of ``targets``, which must be states of ``g``."""
    unknown = [s for s in targets if not g._holds(s)]
    if unknown:
        raise ContractError(f"targets outside the state space: {sorted(unknown)}")
    return g.bits(targets)


def reachable_states(g: SupportGraph, start: str) -> frozenset[str]:
    """The states reachable from ``start`` under any actions, ``start`` included."""
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
