"""Detection synthesis for three or more candidate models.

The algorithm explores, breadth-first, the states reachable while every
active model agrees a transition is possible. A transition possible in only a
strict subset of the active models ends the current level: it either settles
detection outright (one survivor), or spawns a subproblem for the surviving
subset from the successor state, solved recursively with memoization. The
explored region plus two terminal states ("subdetection succeeds" / "fails")
forms a transition system on which the binary machinery decides existence.

That region is closed under every action, and end components and almost-sure
reachability of a closed sub-system are those of the whole system restricted
to it. So each active set's level is decided once, over every state, and the
level of ``(active, initial)`` is that decision restricted to the states
explored from ``initial``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from .binary import (
    ApdOutcome,
    _binary_synthesis,
    _decide,
    _Decision,
    _pair_decision,
    _start,
    _terminal_frame,
    bi_apd,
    classify_pairs,
)
from .errors import ModelError
# The synthesis tail in ``binary`` calls almost_sure_reach_set, mec_decompose
# and reach_policy; they stay bound here because bench/tracer.py wraps them
# in both modules.
from .graphs import (  # noqa: F401
    Mec,
    SupportGraph,
    almost_sure_reach_set,
    bit_indices,
    mec_decompose,
    reach_policy,
)
from .models import Mmdp, Rows
from .policy import ActiveSet, DetectionPolicy, PolicyEntry, active_set, members

PairSet = frozenset[tuple[str, str]]


def pairwise_isa(mmdp: Mmdp, i: int, j: int) -> PairSet:
    """Informative pairs of the (i, j) model pair, on the original kernels."""
    if i == j:
        raise ModelError("pairwise classification needs two distinct model indices")
    return classify_pairs(mmdp.model(i), mmdp.model(j)).informative_pairs


def general_apd(mmdp: Mmdp, initial: str | None = None, memoize: bool = True) -> ApdOutcome:
    """Decide and synthesize detection for any number of candidate models."""
    if mmdp.n == 2:
        return bi_apd(mmdp, initial)
    if mmdp.n < 2:
        raise ModelError(f"need at least 2 models, got {mmdp.n}")
    initial = _start(mmdp, initial)
    ctx = _Context(mmdp=mmdp, memoize=memoize)
    full = active_set(range(1, mmdp.n + 1))
    exists, entries, diagnostics = _solve(ctx, full, initial)
    # only the root's components are spelled out
    diagnostics = {
        **diagnostics,
        "mecs": [c.as_dict() for c in diagnostics["mecs"]],
        "informative_mecs": [c.as_dict() for c in diagnostics["informative_mecs"]],
        "cache": {"hits": ctx.hits, "misses": ctx.misses},
    }
    policy = DetectionPolicy(entries=entries) if exists else None
    return ApdOutcome(exists=exists, policy=policy, diagnostics=diagnostics)


# An edge that rules out some active model: (state, row, successor, surviving models).
_Edge = tuple[int, int, int, ActiveSet]
# A state's part of a level: the successors its rows move to while every active
# model agrees (a bitset, and in the order the rows reach them first), then its
# edges that rule some active model out, in row and successor order.
_Step = tuple[int, tuple[int, ...], tuple[_Edge, ...]]


@dataclass
class _Context:
    """Shared state of one synthesis run: the subproblem memo, the informative rows
    of every model pair on its original kernels, and the initial-state-independent
    decision and the :func:`_step` of each state of every active set decided so far."""

    mmdp: Mmdp
    memoize: bool
    memo: dict[tuple[ActiveSet, str], tuple[bool, dict, dict]] = field(default_factory=dict)
    decisions: dict[ActiveSet, _Decision] = field(default_factory=dict)
    steps: dict[ActiveSet, tuple[_Step, ...]] = field(default_factory=dict)
    informative: dict[ActiveSet, int] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def informative_rows(self, i: int, j: int) -> int:
        """The rows informative for the (i, j) pair: one classification per pair, shared
        by the level tests and the binary pipeline, which both read the rows of ``frame``."""
        key = active_set((i, j))
        cached = self.informative.get(key)
        if cached is None:
            cached = self.informative[key] = self.frame.row_bits(pairwise_isa(self.mmdp, *key))
        return cached

    def key_decisions(self) -> dict[ActiveSet, _Decision]:
        """The decisions one subproblem may read and add to: the run's when memoizing,
        otherwise a fresh table, so that no decision is shared across subproblems."""
        return self.decisions if self.memoize else {}

    @cached_property
    def frame(self) -> SupportGraph:
        """The states and rows of every level and every model pair's graph, with no successors yet.

        The models' states and rows come first; then the terminal states
        "subdetection fails" (bit n) and "succeeds" (bit n + 1), each with one
        self-loop action. A pair's graph puts its own two terminals at those
        bits and rows; a pair below the root reports nothing and its entry
        drops the terminals, so their names never reach an output.

        Its seed holds the successor union and the row list of each state of
        :attr:`plain`, whose rows every level graph and every pair graph share.
        """
        frame = _terminal_frame(self.mmdp.rows, ("botg0", "botg1"))
        frame.seed = {s: step[0] for s, step in enumerate(self.plain[1]) if step is not None}
        frame.seed_rows = {s: list(range(frame.first[s], frame.first[s + 1])) for s in frame.seed}
        return frame

    @cached_property
    def plain(self) -> tuple[list[int], list[_Step | None]]:
        """What every level shares: the states whose rows each have one successor set,
        the same for all models.

        Returns the successor sets of a level with those states' rows filled in
        and every other row empty, and the :func:`_step` of each such state
        (None for every other state).
        """
        rows = self.mmdp.rows
        everyone = active_set(range(1, self.mmdp.n + 1))
        full = (1 << self.mmdp.n) - 1
        n = len(rows.names)
        succ = [0] * len(rows.actions) + [1 << n, 1 << n + 1]
        steps: list[_Step | None] = []
        for s, here in enumerate(rows.groups):
            if all(len(groups) == 1 and groups[0][0] == full for _, groups in here):
                steps.append(_step(rows, everyone, s, succ))
            else:
                steps.append(None)
        return succ, steps


def _solve(
    ctx: _Context, active: ActiveSet, initial: str
) -> tuple[bool, dict[tuple[ActiveSet, str], PolicyEntry], dict[str, Any]]:
    """Memoized dispatch on the active-set size."""
    key = (active, initial)
    if ctx.memoize:
        if key in ctx.memo:
            ctx.hits += 1
            return ctx.memo[key]
        ctx.misses += 1
    if len(active) == 2:
        entry = _binary_synthesis(
            ctx.mmdp, ctx.frame, initial, active, ctx.key_decisions(), ctx.informative_rows(*active)
        )
        # a pair below the root reports nothing
        result = (False, {}, {}) if entry is None else (True, {(active, initial): entry}, {})
    else:
        result = _general_level(ctx, active, initial)
    if ctx.memoize:
        ctx.memo[key] = result
    return result


def _decision(ctx: _Context, decisions: dict[ActiveSet, _Decision], active: ActiveSet) -> _Decision:
    """The decision of ``active`` over every state: a pair's, or a level's."""
    if len(active) == 2:
        return _pair_decision(ctx.mmdp, ctx.frame, active, decisions, ctx.informative_rows(*active))
    level = decisions.get(active)
    if level is None:
        level = decisions[active] = _level(ctx, decisions, active)
    return level


def _level(ctx: _Context, decisions: dict[ActiveSet, _Decision], active: ActiveSet) -> _Decision:
    """The level of ``active`` over every state, decided once; its steps go to ``ctx.steps``.

    Every row keeps the successors all active models allow. A successor that
    rules out some active model moves to "succeeds" when its survivors detect
    from it (a lone survivor always does; a set of survivors when the
    successor lies in their own decision's reach set) and to "fails"
    otherwise. The decisions of the survivors come from ``decisions``.

    A component is informative when its rows meet each active pair's
    informative rows or the row of "succeeds": "succeeds" is one, and so is
    every component informative for every active pair.
    """
    frame = ctx.frame
    plain_succ, plain_steps = ctx.plain
    succ = list(plain_succ)
    steps = ctx.steps[active] = tuple([
        _step(ctx.mmdp.rows, active, s, succ) if step is None else step
        for s, step in enumerate(plain_steps)
    ])
    fails, succeeds = 1 << len(frame.names) - 2, 1 << len(frame.names) - 1
    for _, _, state_edges in steps:
        for _, r, s2, sub in state_edges:
            detects = len(sub) == 1 or frame.names[s2] in _decision(ctx, decisions, sub).rmax
            succ[r] |= succeeds if detects else fails
    graph = frame.over(succ, (1 << len(frame.names)) - 1)
    good = 1 << len(frame.actions) - 1  # the one row of "succeeds"
    needs = [ctx.informative_rows(i, j) | good for k, i in enumerate(active) for j in active[k + 1 :]]
    return _decide(graph, needs, frozenset(frame.names[-2:]))


def _step(rows: Rows, active: ActiveSet, s: int, succ: list[int]) -> _Step:
    """State ``s``'s part of the level of ``active``; writes into ``succ`` the successors
    each of its rows moves to while every active model agrees."""
    active_mask = sum(1 << (i - 1) for i in active)
    post = 0
    order: dict[int, None] = {}
    edges: list[_Edge] = []
    for r, groups in rows.groups[s]:
        agree = 0
        partial = []
        for mask, bits in groups:
            mask &= active_mask
            if mask == active_mask:
                agree |= bits
            elif mask:
                partial.append((mask, bits))
        post |= agree
        succ[r] = agree
        order.update(dict.fromkeys(bit_indices(agree)))
        # successors some active model rules out, in successor order
        for s2, mask in sorted((s2, mask) for mask, bits in partial for s2 in bit_indices(bits)):
            edges.append((s, r, s2, members(mask, active)))
    return post, tuple(order), tuple(edges)


def _general_level(
    ctx: _Context, active: ActiveSet, initial: str
) -> tuple[bool, dict[tuple[ActiveSet, str], PolicyEntry], dict[str, Any]]:
    """The BFS + recursion level of ``(active, initial)`` for ``len(active) >= 3``.

    The BFS walks the level of ``active`` from ``initial`` over the rows
    every active model agrees on and collects each edge that rules some active
    model out. The edges to a lone survivor or a pair are then settled in the
    order found, before those to larger sets. The explored states and the
    terminals are closed under every action, so the entry and the diagnostics
    are the level's, restricted to them.
    """
    level = _decision(ctx, ctx.key_decisions(), active)
    steps = ctx.steps[active]
    names, index = ctx.frame.names, ctx.frame.index
    start = index[initial]
    explored = 1 << start
    queue: deque[int] = deque([start])
    edges: list[_Edge] = []
    while queue:
        post, order, state_edges = steps[queue.popleft()]
        new = post & ~explored
        if new:
            explored |= new
            queue.extend([t for t in order if new >> t & 1])
        edges.extend(state_edges)

    terminal_edges: list[dict[str, Any]] = []
    sub_entries: dict[tuple[ActiveSet, str], PolicyEntry] = {}
    for s, r, s2, sub in sorted(edges, key=lambda edge: len(edge[3]) > 2):
        exists = len(sub) == 1
        if not exists:
            assert len(sub) < len(active), "active sets must shrink on recursion"
            exists, entries, _ = _solve(ctx, sub, names[s2])
            sub_entries.update(entries)
        terminal_edges.append({
            "state": names[s], "action": ctx.frame.actions[r], "successor": names[s2],
            "support": list(sub), "flag": int(exists),
        })

    inside = explored | 3 << len(names) - 2  # and the two terminals

    def held(c: Mec) -> bool:
        """Whether the component lies inside: end components do not straddle a closed set."""
        return inside >> index[next(iter(c.states))] & 1 == 1

    diagnostics: dict[str, Any] = {
        "active": list(active),
        "initial": initial,
        "rmax": sorted(s for s in level.rmax if inside >> index[s] & 1),
        "mecs": [c for c in level.components if held(c)],
        "informative_mecs": [c for c in level.informative if held(c)],
        "explored": [names[i] for i in bit_indices(explored)],
        "terminal_edges": terminal_edges,
    }
    if initial not in level.rmax:
        return False, {}, diagnostics
    reach = {s: a for s, a in level.reach.items() if inside >> index[s] & 1}
    sub_entries[(active, initial)] = PolicyEntry(active, initial, reach, tuple(filter(held, level.mecs)))
    return True, sub_entries, diagnostics
