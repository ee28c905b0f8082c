"""Binary detection pipeline.

Stages, in order: classify every state-action pair of the two candidate
kernels, rewrite the pair into its preprocessed form (single action at
revealing states, detection terminals absorbing the identity-revealing mass),
take the union support structure, keep the end components that contain an
informative pair, and decide almost-sure reachability of those components
from the initial state. The decision and the synthesized policy depend only
on the support structure, never on the mixture weight used to blend the two
kernels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Mapping

from .errors import ModelError
from .graphs import (
    Mec,
    MecUniformPolicy,
    SupportGraph,
    almost_sure_reach_set,
    mec_decompose,
    mec_uniform_policy,
    reach_policy,
    reachable_states,
)
from .models import ROW_EQ_TOL, Mdp, Mmdp, TransitionSystem, fresh_name, support
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
    def revealing_pairs(self) -> frozenset[tuple[str, str]]:
        return frozenset(p for p, lab in self.pair_labels.items() if lab == REVEALING)

    def states_labeled(self, label: str) -> frozenset[str]:
        return frozenset(s for s, lab in self.state_labels.items() if lab == label)


def rows_equal(r1: Mapping[str, float], r2: Mapping[str, float], atol: float = ROW_EQ_TOL) -> bool:
    keys = set(r1) | set(r2)
    return all(abs(r1.get(k, 0.0) - r2.get(k, 0.0)) <= atol for k in keys)


def classify_pairs(m1: Mdp, m2: Mdp, atol: float = ROW_EQ_TOL) -> SaClassification:
    """Label every (state, action) pair of a shared-structure model pair.

    A pair is revealing when the two supports are disjoint, informative when
    the distributions differ but the supports intersect, neutral otherwise.
    A state is revealing when some action there is revealing; informative
    when it is not revealing and some action there is informative.
    """
    _check_shared_structure(m1, m2)
    pair_labels: dict[tuple[str, str], str] = {}
    state_labels: dict[str, str] = {}
    chosen: dict[str, str] = {}
    for s in m1.states:
        revealing_actions = []
        informative_here = False
        for a in m1.actions[s]:
            r1, r2 = m1.row(s, a), m2.row(s, a)
            if support(r1).isdisjoint(support(r2)):
                pair_labels[(s, a)] = REVEALING
                revealing_actions.append(a)
            elif not rows_equal(r1, r2, atol):
                pair_labels[(s, a)] = INFORMATIVE
                informative_here = True
            else:
                pair_labels[(s, a)] = NEUTRAL
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


def preprocess(
    m1: Mdp,
    m2: Mdp,
    atol: float = ROW_EQ_TOL,
    classification: SaClassification | None = None,
) -> PreprocessedPair:
    """Rewrite a binary pair for synthesis.

    Revealing states retain exactly one (the chosen) revealing action, whose
    mass is redirected entirely to the respective terminal. At informative
    pairs, the mass each model puts outside the common support moves to its
    terminal. Neutral rows are copied unchanged. A caller that already holds
    ``classify_pairs(m1, m2, atol)`` passes it as ``classification``.
    """
    cls = classification if classification is not None else classify_pairs(m1, m2, atol)
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
                common = support(rows[0]) & support(rows[1])
                for i in range(2):
                    new_row = {t: p for t, p in rows[i].items() if t in common}
                    rerouted = sum(p for t, p in rows[i].items() if t not in common)
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
    # what classifying the rewritten pair would find: the rewrite keeps the
    # informative pairs of states that are not revealing informative, and
    # makes no other pair informative
    isa = frozenset(p for p in cls.informative_pairs if cls.state_labels[p[0]] != REVEALING)
    isa |= {(bot1, a_bot1), (bot2, a_bot2)}
    return PreprocessedPair(m1=m1p, m2=m2p, bot1=bot1, bot2=bot2, isa=isa, classification=cls)


def informative_graph(pair: PreprocessedPair) -> SupportGraph:
    """Union support of the two rewritten kernels (mixture-weight independent), interned."""
    m1, m2 = pair.m1, pair.m2
    names = tuple(sorted(m1.states))
    index = {s: i for i, s in enumerate(names)}
    actions: list[str] = []
    first: list[int] = []
    succ: list[int] = []
    for s in names:
        first.append(len(actions))
        for a in sorted(m1.actions[s]):
            bits = 0
            for row in (m1.row(s, a), m2.row(s, a)):
                for t, p in row.items():
                    if p > 0.0:
                        bits |= 1 << index[t]
            actions.append(a)
            succ.append(bits)
    first.append(len(actions))
    return SupportGraph(names, index, actions, first, succ, (1 << len(names)) - 1)


def informative_structure(pair: PreprocessedPair) -> TransitionSystem:
    """Union support of the two rewritten kernels (mixture-weight independent)."""
    return TransitionSystem(
        states=pair.m1.states,
        actions=dict(pair.m1.actions),
        transitions=frozenset(informative_graph(pair).triples()),
        initial=pair.m1.initial,
    )


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


def informative_mecs(ts: TransitionSystem, isa: frozenset[tuple[str, str]]) -> tuple[Mec, ...]:
    """End components of ``ts`` containing at least one pair from ``isa``."""
    return tuple(c for c in mec_decompose(ts) if any(p in c for p in isa))


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
    if initial is None:
        initial = mmdp.initial
    exists, entry, diagnostics = _binary_synthesis(
        mmdp.models[0], mmdp.models[1], initial, active_set((1, 2)), {}
    )
    policy = single_entry_policy(entry) if entry is not None else None
    return ApdOutcome(exists=exists, policy=policy, diagnostics=diagnostics)


def _binary_synthesis(
    m1: Mdp,
    m2: Mdp,
    initial: str,
    active: ActiveSet,
    decisions: dict[ActiveSet, _Decision],
    classification: SaClassification | None = None,
) -> tuple[bool, PolicyEntry | None, dict[str, Any]]:
    """Full binary pipeline; returns (exists, policy entry, diagnostics).

    Only the last step depends on ``initial``: the rest is looked up in
    ``decisions`` under ``active`` and stored there on a miss, so one pass
    over a model pair serves every initial state. ``classification``, when
    given, is the pair's classification on its original kernels.
    """
    if initial not in m1.state_index:
        raise ModelError(f"unknown initial state {initial!r}")
    decision = decisions.get(active)
    if decision is None:
        pair = preprocess(m1, m2, classification=classification)
        graph = informative_graph(pair)
        isa_rows = graph.row_bits(pair.isa)
        decision = decisions[active] = _decide(
            graph,
            lambda c: c.rows & isa_rows != 0,
            frozenset({pair.bot1, pair.bot2}),
            {
                "isa": tuple(sorted(pair.isa_original)),
                "revealing_pairs": tuple(sorted(pair.classification.revealing_pairs)),
            },
            witness=True,
        )
    entry, diagnostics = _build(decision, initial, active)
    return entry is not None, entry, diagnostics


@dataclass(frozen=True)
class _Decision:
    """The part of a synthesis level that does not depend on the initial state.

    An entry state in ``rmax`` gets the ``reach`` table and the component
    fragments ``mecs``. ``diagnostics`` holds the lists every entry reports.
    ``graph``, when kept, serves the walk that finds the non-informative
    components an undetectable initial state reaches.
    """

    rmax: frozenset[str]
    reach: Mapping[str, str]
    mecs: tuple[MecUniformPolicy, ...]
    diagnostics: Mapping[str, tuple]
    graph: SupportGraph | None


def _decide(
    graph: SupportGraph,
    is_informative: Callable[[Mec], bool],
    terminals: frozenset[str],
    extra: Mapping[str, tuple] | None = None,
    witness: bool = False,
) -> _Decision:
    """The first step of the tail that ends every synthesis level.

    Keeps the end components of ``graph`` that ``is_informative`` accepts, takes
    their almost-sure reach set and the policy that reaches them. The
    ``terminals`` of ``graph`` stand for settled detection outcomes, so they
    appear neither in the reach table nor among the runtime components.
    ``extra`` diagnostics are reported after the common ones; ``witness``
    keeps what the witness walk of :func:`_build` needs.
    """
    mecs = mec_decompose(graph)
    inf_mecs = tuple(c for c in mecs if is_informative(c))
    targets = frozenset(s for c in inf_mecs for s in c.states)
    rmax = almost_sure_reach_set(graph, targets)
    fragment = reach_policy(graph, targets, rmax)
    return _Decision(
        rmax=rmax,
        reach={s: a for s, a in fragment.table.items() if s not in terminals},
        mecs=tuple(mec_uniform_policy(c) for c in inf_mecs if terminals.isdisjoint(c.states)),
        diagnostics={
            "rmax": tuple(sorted(rmax)),
            "mecs": tuple(c.as_dict() for c in mecs),
            "informative_mecs": tuple(c.as_dict() for c in inf_mecs),
            **(extra or {}),
        },
        graph=graph if witness else None,
    )


def _build(
    decision: _Decision, initial: str, active: ActiveSet
) -> tuple[PolicyEntry | None, dict[str, Any]]:
    """The last step of every synthesis: the entry for ``initial`` when detection exists.

    Detection exists exactly when ``initial`` lies in the reach set. Returns
    the entry (None when no policy exists) and the diagnostics, which then
    name the non-informative components reachable from ``initial`` when the
    decision kept its graph.
    """
    diagnostics: dict[str, Any] = {"active": list(active), "initial": initial}
    for key, values in decision.diagnostics.items():
        diagnostics[key] = list(values)
    if initial not in decision.rmax:
        if decision.graph is not None:
            reachable = reachable_states(decision.graph, initial)
            diagnostics["witness_noninformative_mecs"] = [
                c
                for c in diagnostics["mecs"]
                if c not in diagnostics["informative_mecs"] and not reachable.isdisjoint(c)
            ]
        return None, diagnostics
    entry = PolicyEntry(
        active=active,
        entry_state=initial,
        reach=dict(decision.reach),
        mecs=decision.mecs,
    )
    return entry, diagnostics


def _check_shared_structure(m1: Mdp, m2: Mdp) -> None:
    if m1.states != m2.states or m1.initial != m2.initial:
        raise ModelError("model pair does not share states and initial state")
    for s in m1.states:
        if m1.actions.get(s) != m2.actions.get(s):
            raise ModelError(f"model pair disagrees on actions at state {s}")
