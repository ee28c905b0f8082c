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
from typing import Any

from .binary import ApdOutcome, _binary_synthesis, _decide_and_build, bi_apd, classify_pairs
from .errors import ModelError
# The synthesis tail in ``binary`` calls almost_sure_reach_set, mec_decompose
# and reach_policy; they stay bound here because bench/tracer.py wraps them
# in both modules.
from .graphs import Mec, almost_sure_reach_set, mec_decompose, reach_policy  # noqa: F401
from .models import Mmdp, TransitionSystem, fresh_name, support
from .policy import ActiveSet, DetectionPolicy, PolicyEntry, active_set, survivors

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
    """Shared state of one synthesis run: the subproblem memo and the pairwise sets."""

    mmdp: Mmdp
    memoize: bool
    memo: dict[tuple[ActiveSet, str], tuple[bool, dict, dict]] = field(default_factory=dict)
    isa_cache: dict[tuple[int, int], PairSet] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def isa(self, i: int, j: int) -> PairSet:
        key = (min(i, j), max(i, j))
        cached = self.isa_cache.get(key)
        if cached is None:
            cached = self.isa_cache[key] = pairwise_isa(self.mmdp, *key)
        return cached


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
            ctx.mmdp.model(i), ctx.mmdp.model(j), initial, active
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
    models = {i: ctx.mmdp.model(i) for i in active}
    base = next(iter(models.values()))
    bot0 = fresh_name("botg0", base.states)
    bot1 = fresh_name("botg1", (*base.states, bot0))
    a_bot0, a_bot1 = f"a_{bot0}", f"a_{bot1}"

    explored: set[str] = {initial}
    queue: deque[str] = deque([initial])
    triples: set[tuple[str, str, str]] = {(bot0, a_bot0, bot0), (bot1, a_bot1, bot1)}
    recursion_jobs: deque[tuple[ActiveSet, tuple[str, str, str]]] = deque()
    terminal_edges: list[dict[str, Any]] = []
    sub_entries: dict[tuple[ActiveSet, str], PolicyEntry] = {}

    def settle(edge: tuple[str, str, str], sub: ActiveSet, flag: int) -> None:
        s, a, s2 = edge
        triples.add((s, a, bot1 if flag else bot0))
        terminal_edges.append(
            {"state": s, "action": a, "successor": s2, "support": list(sub), "flag": flag}
        )

    while queue:
        s = queue.popleft()
        for a in base.actions[s]:
            union_succ: set[str] = set()
            for m in models.values():
                union_succ |= support(m.row(s, a))
            for s2 in sorted(union_succ):
                sub = survivors(ctx.mmdp, active, s, a, s2)
                if sub == active:
                    triples.add((s, a, s2))
                    if s2 not in explored:
                        explored.add(s2)
                        queue.append(s2)
                elif len(sub) == 1:
                    settle((s, a, s2), sub, flag=1)
                elif len(sub) == 2:
                    exists, entries, _ = _solve(ctx, sub, s2, depth + 1)
                    if exists:
                        sub_entries.update(entries)
                    settle((s, a, s2), sub, flag=1 if exists else 0)
                else:
                    recursion_jobs.append((sub, (s, a, s2)))

    while recursion_jobs:
        sub, edge = recursion_jobs.popleft()
        assert len(sub) < len(active), "active sets must shrink on recursion"
        exists, entries, _ = _solve(ctx, sub, edge[2], depth + 1)
        if exists:
            sub_entries.update(entries)
        settle(edge, sub, flag=1 if exists else 0)

    ts_states = (*sorted(explored), bot0, bot1)
    ts_actions: dict[str, tuple[str, ...]] = {s: base.actions[s] for s in explored}
    ts_actions[bot0] = (a_bot0,)
    ts_actions[bot1] = (a_bot1,)
    ts = TransitionSystem(
        states=ts_states, actions=ts_actions, transitions=frozenset(triples), initial=initial
    )

    pairs = [(i, j) for k, i in enumerate(active) for j in active[k + 1 :]]

    def is_informative(c: Mec) -> bool:
        """The good terminal, or a component informative for every active pair."""
        if c.states == {bot1}:
            return True
        member_pairs = list(c.pairs())
        return all(any(p in ctx.isa(i, j) for p in member_pairs) for (i, j) in pairs)

    entry, diagnostics = _decide_and_build(
        ts, is_informative, initial, active, frozenset({bot0, bot1})
    )
    diagnostics["explored"] = sorted(explored)
    diagnostics["terminal_edges"] = terminal_edges
    if entry is None:
        return False, {}, diagnostics
    entries = dict(sub_entries)
    entries[(active, initial)] = entry
    return True, entries, diagnostics
