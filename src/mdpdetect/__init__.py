"""Detection-policy synthesis and analysis for multi-model MDPs.

Given a finite family of candidate MDPs over one state/action skeleton, this
package decides whether a control policy can identify the ground-truth model
from a single observed history with vanishing error, synthesizes such a
policy when one exists, and quantifies detection quality via Bhattacharyya
coefficients, MAP error bounds, and seeded Bayesian simulation.
"""

from .analysis import (
    BcCurve,
    BcMatrix,
    DecayFit,
    ErrorBounds,
    bc_exact,
    bc_matrix,
    decay_fit,
    error_bounds_binary,
    error_bounds_multi,
    pairwise_bc_curve,
)
from .binary import (
    ApdOutcome,
    PreprocessedPair,
    SaClassification,
    bi_apd,
    classify_pairs,
    informative_mdp,
    informative_mecs,
    informative_structure,
    preprocess,
)
from .errors import (
    ContractError,
    DetectionError,
    HorizonCapError,
    ImpossibleObservationError,
    ModelError,
)
from .general import general_apd, pairwise_isa
from .graphs import (
    Mec,
    MecUniformPolicy,
    PartialDeterministicPolicy,
    SupportGraph,
    almost_sure_reach_set,
    mec_decompose,
    mec_uniform_policy,
    reach_policy,
)
from .models import (
    History,
    Mdp,
    Mmdp,
    TransitionSystem,
    induced_transition_system,
    mmdp_to_json,
    parse_mmdp,
    serialize_mmdp,
    validate_mmdp,
)
from .policy import (
    DetectionPolicy,
    PolicyEntry,
    active_set,
    entry_as_stationary,
    parse_policy,
    policy_to_json,
    serialize_policy,
    stationary_uniform_policy,
)
from .scenarios import GridSpec, RecSysSpec, gen_grid, gen_recsys
from .simulate import (
    BeliefState,
    Trace,
    TraceStep,
    batch_summary,
    belief_update,
    map_decide,
    monte_carlo_error,
    simulate,
    trace_to_csv,
    trial_rng,
)

__all__ = [
    "active_set", "almost_sure_reach_set", "ApdOutcome", "batch_summary", "bc_exact",
    "bc_matrix", "BcCurve", "BcMatrix", "belief_update", "BeliefState", "bi_apd",
    "classify_pairs", "ContractError", "decay_fit", "DecayFit", "DetectionError",
    "DetectionPolicy", "entry_as_stationary", "error_bounds_binary", "error_bounds_multi",
    "ErrorBounds", "gen_grid", "gen_recsys", "general_apd", "GridSpec", "History",
    "HorizonCapError", "ImpossibleObservationError", "induced_transition_system",
    "informative_mdp", "informative_mecs", "informative_structure", "map_decide", "Mdp", "Mec",
    "mec_decompose", "mec_uniform_policy", "MecUniformPolicy", "Mmdp", "mmdp_to_json",
    "ModelError", "monte_carlo_error", "pairwise_bc_curve", "pairwise_isa", "parse_mmdp",
    "parse_policy", "PartialDeterministicPolicy", "policy_to_json", "PolicyEntry", "preprocess",
    "PreprocessedPair", "reach_policy", "RecSysSpec", "SaClassification", "serialize_mmdp",
    "serialize_policy", "simulate", "stationary_uniform_policy", "SupportGraph", "Trace",
    "trace_to_csv", "TraceStep", "TransitionSystem", "trial_rng", "validate_mmdp",
]

__version__ = "0.1.0"
