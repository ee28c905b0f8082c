"""Binary detection pipeline.

Stages, in order: classify every state-action pair of the two candidate
kernels, rewrite the pair (single action at revealing states, detection
terminals absorbing the identity-revealing mass), take the union support
structure, keep the end components that contain an informative pair, and
decide almost-sure reachability of those components from the initial state.
The decision and the synthesized policy depend only on the support
structure, never on the mixture weight used to blend the two kernels.

Synthesis reads the rewritten structure straight from the model masks of
the shared row table (:attr:`Mmdp.rows`) and the bitset of the pair's
informative rows, without building the rewritten models;
``mdpdetect mec --informative`` lists the informative components synthesis
finds. :func:`preprocess` is the explicit form of the rewrite, with its
probabilities, and :func:`informative_mdp` blends it; the tests check
synthesis against them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping, Sequence

from .errors import ModelError
from .graphs import (
    Mec,
    SupportGraph,
    almost_sure_reach_set,
    mec_decompose,
    reach_policy,
    reachable_states,
)
from .models import ROW_EQ_TOL, Mdp, Mmdp, Rows, _left_sum, actions_at, fresh_name
from .policy import ActiveSet, DetectionPolicy, PolicyEntry, active_set, single_entry_policy

REVEALING = "revealing"
INFORMATIVE = "informative"
NEUTRAL = "neutral"
PLAIN = "plain"


@dataclass(frozen=True)
class SaClassification:
    """Per-pair and per-state labels for one binary model pair."""

    pair_labels: Mapping[tuple[str, str], str]
    state_labels: Mapping[str, str]
    chosen_revealing: Mapping[str, str]

    @cached_property
    def informative_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset(p for p, lab in self.pair_labels.items() if lab == INFORMATIVE)

    @property
    def kept_informative_pairs(self) -> frozenset[tuple[str, str]]:
        """The informative pairs at states that are not revealing: those the rewrite keeps.

        The rewrite makes no other pair of the original states informative.
        :func:`preprocess` takes ``isa`` from here, and the reports of
        :func:`bi_apd` and ``mdpdetect classify`` list it. Synthesis does not
        read it: ``_pair_graph`` drops the revealing states' rows itself.
        """
        return frozenset(p for p in self.informative_pairs if self.state_labels[p[0]] != REVEALING)

    @property
    def revealing_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset(p for p, lab in self.pair_labels.items() if lab == REVEALING)

    def states_labeled(self, label: str) -> frozenset[str]:
        return frozenset(s for s, lab in self.state_labels.items() if lab == label)


def rows_equal(r1: Mapping[str, float], r2: Mapping[str, float]) -> bool:
    """Whether every successor's mass differs by at most ``ROW_EQ_TOL``; a missing key is 0.0.

    Walks ``r1``, then the keys only ``r2`` has, and stops at the first
    difference. A NaN difference is a difference.
    """
    for t, p in r1.items():
        if not abs(p - r2.get(t, 0.0)) <= ROW_EQ_TOL:
            return False
    for t, q in r2.items():
        if t not in r1 and not abs(q) <= ROW_EQ_TOL:
            return False
    return True


def classify_pairs(m1: Mdp, m2: Mdp) -> SaClassification:
    """Label every (state, action) pair of a shared-structure model pair.

    A pair is revealing when the two supports are disjoint, informative when
    the distributions differ but the supports intersect, neutral otherwise.
    A state is revealing when some action there is revealing; informative
    when it is not revealing and some action there is informative.

    Reads both kernels directly; a row is revealing when the walk of its
    ``m1`` entries finds no successor both models give positive mass, and
    :func:`rows_equal` tells a neutral row from an informative one.
    """
    _check_shared_structure(m1, m2)
    pair_labels: dict[tuple[str, str], str] = {}
    state_labels: dict[str, str] = {}
    chosen: dict[str, str] = {}
    row1, row2, empty = m1.kernel.get, m2.kernel.get, {}
    for s in m1.states:
        revealing_actions = []
        informative_here = False
        for a in m1.actions[s]:
            key = (s, a)
            r1, r2 = row1(key, empty), row2(key, empty)
            for t, p in r1.items():
                if p > 0.0 and r2.get(t, 0.0) > 0.0:
                    break
            else:
                pair_labels[key] = REVEALING
                revealing_actions.append(a)
                continue
            if not rows_equal(r1, r2):
                pair_labels[key] = INFORMATIVE
                informative_here = True
            else:
                pair_labels[key] = NEUTRAL
        if revealing_actions:
            state_labels[s] = REVEALING
            chosen[s] = min(revealing_actions)
        elif informative_here:
            state_labels[s] = INFORMATIVE
        else:
            state_labels[s] = PLAIN
    return SaClassification(pair_labels=pair_labels, state_labels=state_labels, chosen_revealing=chosen)


@dataclass(frozen=True)
class PreprocessedPair:
    """The rewritten pair over the extended state space with detection terminals.

    Action identifiers are preserved, so retained pairs map back to the
    original pairs unchanged. ``isa`` holds the informative pairs of the
    rewritten pair (those of the original pair at states that are not
    revealing) plus the two terminal self-loop pairs.
    """

    m1: Mdp
    m2: Mdp
    bot1: str
    bot2: str
    isa: frozenset[tuple[str, str]]
    classification: SaClassification

    @property
    def terminal_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset({(self.bot1, self.m1.actions[self.bot1][0]), (self.bot2, self.m2.actions[self.bot2][0])})

    @property
    def isa_original(self) -> frozenset[tuple[str, str]]:
        """Informative pairs over the original states (terminals excluded)."""
        return self.isa - self.terminal_pairs


def preprocess(m1: Mdp, m2: Mdp) -> PreprocessedPair:
    """Rewrite a binary pair for synthesis.

    Revealing states retain exactly one (the chosen) revealing action, whose
    mass is redirected entirely to the respective terminal. At informative
    pairs, the positive mass each model puts outside the common support moves
    to its terminal, so a terminal is reached exactly when the model masks of
    :attr:`Mmdp.rows` say so. Neutral rows are copied unchanged.
    """
    cls = classify_pairs(m1, m2)
    bot1 = fresh_name("bot1", m1.states)
    bot2 = fresh_name("bot2", (*m1.states, bot1))
    a_bot1 = f"a_{bot1}"
    a_bot2 = f"a_{bot2}"

    states = (*m1.states, bot1, bot2)
    actions: dict[str, tuple[str, ...]] = {}
    for s in m1.states:
        if cls.state_labels[s] == REVEALING:
            actions[s] = (cls.chosen_revealing[s],)
        else:
            actions[s] = m1.actions[s]
    actions[bot1] = (a_bot1,)
    actions[bot2] = (a_bot2,)

    kernels: tuple[dict[tuple[str, str], dict[str, float]], ...] = ({}, {})
    bots = (bot1, bot2)
    for s in m1.states:
        for a in actions[s]:
            rows = (m1.row(s, a), m2.row(s, a))
            label = cls.pair_labels[(s, a)]
            if label == REVEALING:
                for i in range(2):
                    kernels[i][(s, a)] = {bots[i]: 1.0}
            elif label == INFORMATIVE:
                common = {t for t, p in rows[0].items() if p > 0.0 and rows[1].get(t, 0.0) > 0.0}
                for i in range(2):
                    new_row = {t: p for t, p in rows[i].items() if t in common}
                    outside = [p for t, p in rows[i].items() if t not in common and p > 0.0]
                    rerouted = _left_sum(outside)
                    if rerouted > 0.0:
                        new_row[bots[i]] = rerouted
                    kernels[i][(s, a)] = new_row
            else:
                for i in range(2):
                    kernels[i][(s, a)] = dict(rows[i])
    for i in range(2):
        for bot, a_bot in ((bot1, a_bot1), (bot2, a_bot2)):
            kernels[i][(bot, a_bot)] = {bot: 1.0}

    m1p = Mdp(states=states, actions=actions, kernel=kernels[0], initial=m1.initial, name=f"{m1.name}^p")
    m2p = Mdp(states=states, actions=actions, kernel=kernels[1], initial=m2.initial, name=f"{m2.name}^p")
    # what classifying the rewritten pair would find
    isa = cls.kept_informative_pairs | {(bot1, a_bot1), (bot2, a_bot2)}
    return PreprocessedPair(m1=m1p, m2=m2p, bot1=bot1, bot2=bot2, isa=isa, classification=cls)


def informative_mdp(pair: PreprocessedPair, gamma: float) -> Mdp:
    """Materialize the gamma-blend of the rewritten kernels (oracle helper)."""
    if not 0.0 < gamma < 1.0:
        raise ModelError(f"gamma must lie in (0, 1), got {gamma}")
    kernel: dict[tuple[str, str], dict[str, float]] = {}
    for s in pair.m1.states:
        for a in pair.m1.actions[s]:
            r1, r2 = pair.m1.row(s, a), pair.m2.row(s, a)
            row: dict[str, float] = {}
            for t in set(r1) | set(r2):
                row[t] = gamma * r1.get(t, 0.0) + (1.0 - gamma) * r2.get(t, 0.0)
            kernel[(s, a)] = row
    return Mdp(
        states=pair.m1.states,
        actions=dict(pair.m1.actions),
        kernel=kernel,
        initial=pair.m1.initial,
        name=f"blend({gamma})",
    )


@dataclass(frozen=True)
class ApdOutcome:
    """Result of a synthesis run: decision, policy (when one exists), diagnostics."""

    exists: bool
    policy: DetectionPolicy | None
    diagnostics: dict[str, Any]


def bi_apd(mmdp: Mmdp, initial: str | None = None) -> ApdOutcome:
    """Decide and synthesize detection for a binary MMDP.

    Returns ``exists = True`` exactly when the initial state lies in the
    almost-sure reach set of the informative end components of the rewritten
    structure; the policy then reaches those components with probability one
    and randomizes uniformly inside them.
    """
    if mmdp.n != 2:
        raise ModelError(f"binary synthesis needs exactly 2 models, got {mmdp.n}")
    initial = _start(mmdp, initial)
    classification = classify_pairs(*mmdp.models)
    frame, pair, decisions = _terminal_frame(mmdp.rows, ("bot1", "bot2")), active_set((1, 2)), {}
    informative = frame.row_bits(classification.informative_pairs)
    entry = _binary_synthesis(mmdp, frame, initial, pair, decisions, informative)
    exists, decision = entry is not None, decisions[pair]
    diagnostics: dict[str, Any] = {
        "active": list(pair),
        "initial": initial,
        "rmax": sorted(decision.rmax),
        "mecs": [c.as_dict() for c in decision.components],
        "informative_mecs": [c.as_dict() for c in decision.informative],
        "isa": sorted(classification.kept_informative_pairs),
        "revealing_pairs": sorted(classification.revealing_pairs),
    }
    if not exists:
        # the non-informative components the initial state reaches explain the failure
        reachable = reachable_states(_pair_graph(mmdp.rows, frame, pair, informative)[0], initial)
        diagnostics["witness_noninformative_mecs"] = [
            c.as_dict()
            for c in decision.components
            if not reachable.isdisjoint(c.states) and c not in decision.informative
        ]
    policy = single_entry_policy(entry) if exists else None
    return ApdOutcome(exists=exists, policy=policy, diagnostics=diagnostics)


def _start(mmdp: Mmdp, initial: str | None) -> str:
    """The entry state of a synthesis run: ``initial``, or the model's by default."""
    if initial is None:
        initial = mmdp.initial
    if initial not in mmdp.rows.index:
        raise ModelError(f"unknown initial state {initial!r}")
    return initial


def _binary_synthesis(
    mmdp: Mmdp,
    frame: SupportGraph,
    initial: str,
    active: ActiveSet,
    decisions: dict[ActiveSet, _Decision],
    informative: int,
) -> PolicyEntry | None:
    """Full binary pipeline for the model pair ``active``: the entry for ``initial``,
    or None when no policy exists.

    The pair's decision comes from :func:`_pair_decision`; only the entry
    depends on ``initial``. Detection exists exactly when ``initial`` lies in
    the reach set.
    """
    decision = _pair_decision(mmdp, frame, active, decisions, informative)
    if initial not in decision.rmax:
        return None
    return PolicyEntry(active, initial, decision.reach, decision.mecs)


def _pair_decision(
    mmdp: Mmdp,
    frame: SupportGraph,
    active: ActiveSet,
    decisions: dict[ActiveSet, _Decision],
    informative: int,
) -> _Decision:
    """The decision of the model pair ``active``, looked up in ``decisions`` and stored there on a miss.

    ``frame`` is a :func:`_terminal_frame` of the models' support rows and
    ``informative`` the bitset of the pair's informative rows on its original kernels.
    The decision does not depend on the initial state, so one pass over a
    model pair serves every initial state.
    """
    decision = decisions.get(active)
    if decision is None:
        graph, isa_rows = _pair_graph(mmdp.rows, frame, active, informative)
        decision = decisions[active] = _decide(graph, (isa_rows,), frozenset(frame.names[-2:]))
    return decision


def _terminal_frame(rows: Rows, bases: tuple[str, str]) -> SupportGraph:
    """The states and rows of ``rows`` plus two terminal states, with no successors yet.

    The terminals take fresh names from ``bases``, bits n and n + 1, and one
    self-loop row each (``a_<name>``), rows R and R + 1 for R rows in ``rows``.
    """
    n, r = len(rows.names), len(rows.actions)
    bot0 = fresh_name(bases[0], rows.names)
    bot1 = fresh_name(bases[1], (*rows.names, bot0))
    return SupportGraph(
        names=(*rows.names, bot0, bot1),
        index={**rows.index, bot0: n, bot1: n + 1},
        actions=(*rows.actions, f"a_{bot0}", f"a_{bot1}"),
        first=(*rows.first, r + 1, r + 2),
        succ=(),
        domain=0,
    )


def _pair_graph(
    rows: Rows, frame: SupportGraph, pair: ActiveSet, informative: int
) -> tuple[SupportGraph, int]:
    """The union support of the rewritten model ``pair``, read from the ``groups`` of ``rows``.

    Returns the graph over ``frame`` and its ``isa`` rows: the ``informative``
    rows at states that are not revealing, and the two terminal rows. The
    graph is the union support of the two kernels :func:`preprocess` builds,
    with the terminals at bits n and n + 1. A row is revealing when no
    successor's model mask holds both models. A state's lowest-numbered
    revealing row, the chosen one, moves to both terminals, and the rows the
    rewrite drops move outside the graph (bit ``len(names)``), where no kernel
    keeps them. An informative row keeps the successors both models allow,
    plus the terminal of each model that puts mass elsewhere; a neutral row
    keeps the union support.
    """
    n, r_end = len(rows.names), len(rows.actions)
    bot1, bot2, outside = 1 << n, 1 << n + 1, 1 << n + 2
    mask_i, mask_j = 1 << pair[0] - 1, 1 << pair[1] - 1
    succ = [outside] * r_end + [bot1, bot2]
    isa_rows = 3 << r_end
    for here in rows.groups:
        split = []
        for r, groups in here:
            common = only_i = only_j = 0
            for mask, bits in groups:
                if mask & mask_i:
                    if mask & mask_j:
                        common |= bits
                    else:
                        only_i |= bits
                elif mask & mask_j:
                    only_j |= bits
            split.append((r, common, only_i, only_j))
        revealing = [r for r, common, _, _ in split if not common]
        if revealing:
            succ[min(revealing)] = bot1 | bot2
            continue
        for r, common, only_i, only_j in split:
            if informative >> r & 1:
                isa_rows |= 1 << r
                succ[r] = common | (bot1 if only_i else 0) | (bot2 if only_j else 0)
            else:
                succ[r] = common | only_i | only_j
    return frame.over(succ, outside - 1), isa_rows


@dataclass(frozen=True)
class _Decision:
    """The part of a synthesis level that does not depend on the initial state.

    An entry state in ``rmax`` gets the ``reach`` table and the informative
    components ``mecs``, in which the policy randomizes uniformly. Every entry
    of the decision shares both, read-only. ``components`` holds every end
    component of the level's graph and ``informative`` those it accepts,
    terminals included: the lists a root reports.
    """

    rmax: frozenset[str]
    reach: Mapping[str, str]
    mecs: tuple[Mec, ...]
    components: tuple[Mec, ...]
    informative: tuple[Mec, ...]


def _decide(graph: SupportGraph, needs: Sequence[int], terminals: frozenset[str]) -> _Decision:
    """The first step of the tail that ends every synthesis level.

    Keeps the informative end components of ``graph``, those whose rows meet
    every row bitset in ``needs``, takes their almost-sure reach set and the
    policy that reaches them. The ``terminals`` of ``graph`` stand for settled
    detection outcomes, so they appear neither in the reach table nor among
    the runtime components.
    """
    mecs = mec_decompose(graph)
    inf_mecs = tuple(c for c in mecs if all(c.rows & rows for rows in needs))
    targets = frozenset(s for c in inf_mecs for s in c.states)
    rmax = almost_sure_reach_set(graph, targets)
    reach = reach_policy(graph, targets, rmax)
    return _Decision(
        rmax=rmax,
        reach={s: a for s, a in reach.items() if s not in terminals},
        mecs=tuple(c for c in inf_mecs if terminals.isdisjoint(c.states)),
        components=mecs,
        informative=inf_mecs,
    )


def _check_shared_structure(m1: Mdp, m2: Mdp) -> None:
    if m1.states != m2.states or m1.initial != m2.initial:
        raise ModelError("model pair does not share states and initial state")
    for s in m1.states:
        if m1.actions.get(s) != m2.actions.get(s):
            raise ModelError(f"model pair disagrees on actions at state {s}")
        actions_at(m1.actions, s)  # ModelError for a state without an entry
