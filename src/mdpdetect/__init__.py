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

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
