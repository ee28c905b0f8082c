"""Detection synthesis for three or more candidate models.

The algorithm explores, breadth-first, the states reachable while every
active model agrees a transition is possible. A transition possible in only a
strict subset of the active models ends the current level: it either settles
detection outright (one survivor), or spawns a subproblem for the surviving
subset from the successor state, solved recursively with memoization. The
explored region plus two terminal states ("subdetection succeeds" / "fails")
forms a transition system on which the binary machinery decides existence.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any

from .binary import (
    ApdOutcome,
    SaClassification,
    _binary_synthesis,
    _build,
    _decide,
    _Decision,
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
from .models import Mmdp, fresh_name
from .policy import ActiveSet, DetectionPolicy, PolicyEntry, active_set, members

PairSet = frozenset[tuple[str, str]]


def pairwise_isa(mmdp: Mmdp, i: int, j: int) -> PairSet:
    """Informative pairs of the (i, j) model pair, on the original kernels."""
    if i == j:
        raise ModelError("pairwise classification needs two distinct model indices")
    return classify_pairs(mmdp.model(i), mmdp.model(j)).informative_pairs


def general_apd(mmdp: Mmdp, initial: str | None = None, memoize: bool = True) -> ApdOutcome:
    """Decide and synthesize detection for any number of candidate models."""
    if mmdp.n < 2:
        raise ModelError(f"need at least 2 models, got {mmdp.n}")
    if initial is None:
        initial = mmdp.initial
    if initial not in mmdp.models[0].state_index:
        raise ModelError(f"unknown initial state {initial!r}")
    if mmdp.n == 2:
        return bi_apd(mmdp, initial)

    ctx = _Context(mmdp=mmdp, memoize=memoize)
    full = active_set(range(1, mmdp.n + 1))
    exists, entries, diagnostics = _solve(ctx, full, initial, depth=0)
    diagnostics = dict(diagnostics)
    diagnostics["cache"] = {"hits": ctx.hits, "misses": ctx.misses}
    policy = DetectionPolicy(entries=entries) if exists else None
    return ApdOutcome(exists=exists, policy=policy, diagnostics=diagnostics)


@dataclass
class _Context:
    """Shared state of one synthesis run: the subproblem memo, the classification of
    every model pair on its original kernels with its informative rows, and the
    initial-state-independent decision of every model pair solved so far."""

    mmdp: Mmdp
    memoize: bool
    memo: dict[tuple[ActiveSet, str], tuple[bool, dict, dict]] = field(default_factory=dict)
    classifications: dict[ActiveSet, SaClassification] = field(default_factory=dict)
    decisions: dict[ActiveSet, _Decision] = field(default_factory=dict)
    informative: dict[ActiveSet, int] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def classification(self, i: int, j: int) -> SaClassification:
        """One classification per pair, shared by the level tests and the binary pipeline."""
        key = active_set((i, j))
        cached = self.classifications.get(key)
        if cached is None:
            cached = self.classifications[key] = classify_pairs(
                self.mmdp.model(key[0]), self.mmdp.model(key[1])
            )
        return cached

    def informative_rows(self, i: int, j: int) -> int:
        """The rows of ``frame`` that are informative for the (i, j) pair."""
        key = active_set((i, j))
        cached = self.informative.get(key)
        if cached is None:
            pairs = self.classification(i, j).informative_pairs
            cached = self.informative[key] = self.frame.row_bits(pairs)
        return cached

    @cached_property
    def frame(self) -> SupportGraph:
        """The states and rows of every level, with no successors yet.

        The models' states and rows come first; then the terminal states
        "subdetection fails" (bit n) and "succeeds" (bit n + 1), each with one
        self-loop action.
        """
        rows = self.mmdp.support_rows
        n, r = len(rows.names), len(rows.actions)
        bot0 = fresh_name("botg0", rows.names)
        bot1 = fresh_name("botg1", (*rows.names, bot0))
        return SupportGraph(
            names=(*rows.names, bot0, bot1),
            index={**rows.index, bot0: n, bot1: n + 1},
            actions=(*rows.actions, f"a_{bot0}", f"a_{bot1}"),
            first=(*rows.first, r + 1, r + 2),
            succ=(),
            domain=0,
        )


def _solve(
    ctx: _Context, active: ActiveSet, initial: str, depth: int
) -> tuple[bool, dict[tuple[ActiveSet, str], PolicyEntry], dict[str, Any]]:
    """Memoized dispatch on the active-set size."""
    assert depth <= ctx.mmdp.n - 2, "recursion deeper than the model count allows"
    key = (active, initial)
    if ctx.memoize:
        if key in ctx.memo:
            ctx.hits += 1
            return ctx.memo[key]
        ctx.misses += 1
    if len(active) == 2:
        i, j = active
        exists, entry, diagnostics = _binary_synthesis(
            ctx.mmdp.model(i), ctx.mmdp.model(j), initial, active, ctx.decisions,
            ctx.classification(i, j),
        )
        entries = {(active, initial): entry} if entry is not None else {}
        result = (exists, entries, diagnostics)
    else:
        result = _general_level(ctx, active, initial, depth)
    if ctx.memoize:
        ctx.memo[key] = result
    return result


def _general_level(
    ctx: _Context, active: ActiveSet, initial: str, depth: int
) -> tuple[bool, dict[tuple[ActiveSet, str], PolicyEntry], dict[str, Any]]:
    """One BFS + recursion level of the synthesis for ``len(active) >= 3``."""
    rows, frame = ctx.mmdp.support_rows, ctx.frame
    names, row_actions = rows.names, rows.actions
    bot0, bot1 = len(names), len(names) + 1
    active_mask = sum(1 << (i - 1) for i in active)

    # succ[r]: the successors of row r in this level's structure
    succ = [0] * len(row_actions) + [1 << bot0, 1 << bot1]
    start = rows.index[initial]
    explored = 1 << start
    queue: deque[int] = deque([start])
    recursion_jobs: deque[tuple[ActiveSet, int, int, int]] = deque()
    terminal_edges: list[dict[str, Any]] = []
    sub_entries: dict[tuple[ActiveSet, str], PolicyEntry] = {}

    def settle(r: int, s: int, s2: int, sub: ActiveSet, flag: int) -> None:
        succ[r] |= 1 << (bot1 if flag else bot0)
        terminal_edges.append({
            "state": names[s], "action": row_actions[r], "successor": names[s2],
            "support": list(sub), "flag": flag,
        })

    while queue:
        s = queue.popleft()
        for r, groups in rows.groups[s]:
            agree = 0
            partial = []
            for mask, bits in groups:
                mask &= active_mask
                if mask == active_mask:
                    agree |= bits
                elif mask:
                    partial.append((mask, bits))
            succ[r] = agree
            new = agree & ~explored
            if new:
                explored |= new
                queue.extend(bit_indices(new))
            if not partial:
                continue
            # successors some active model rules out, in successor order
            for s2, mask in sorted((s2, mask) for mask, bits in partial for s2 in bit_indices(bits)):
                sub = members(mask, active)
                if len(sub) == 1:
                    settle(r, s, s2, sub, flag=1)
                elif len(sub) == 2:
                    exists, entries, _ = _solve(ctx, sub, names[s2], depth + 1)
                    if exists:
                        sub_entries.update(entries)
                    settle(r, s, s2, sub, flag=1 if exists else 0)
                else:
                    recursion_jobs.append((sub, r, s, s2))

    while recursion_jobs:
        sub, r, s, s2 = recursion_jobs.popleft()
        assert len(sub) < len(active), "active sets must shrink on recursion"
        exists, entries, _ = _solve(ctx, sub, names[s2], depth + 1)
        if exists:
            sub_entries.update(entries)
        settle(r, s, s2, sub, flag=1 if exists else 0)

    graph = frame.over(succ, explored | 1 << bot0 | 1 << bot1)
    pair_rows = [ctx.informative_rows(i, j) for k, i in enumerate(active) for j in active[k + 1 :]]
    good = frozenset({frame.names[bot1]})

    def is_informative(c: Mec) -> bool:
        """The good terminal, or a component informative for every active pair."""
        return c.states == good or all(c.rows & rows_ij for rows_ij in pair_rows)

    entry, diagnostics = _build(
        _decide(graph, is_informative, frozenset(frame.names[bot0:])), initial, active
    )
    diagnostics["explored"] = [names[i] for i in bit_indices(explored)]
    diagnostics["terminal_edges"] = terminal_edges
    if entry is None:
        return False, {}, diagnostics
    entries = dict(sub_entries)
    entries[(active, initial)] = entry
    return True, entries, diagnostics
