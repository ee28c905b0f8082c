"""Detection-policy synthesis and analysis for multi-model MDPs.

Given a finite family of candidate MDPs over one state/action skeleton, this
package decides whether a control policy can identify the ground-truth model
from a single observed history with vanishing error, synthesizes such a
policy when one exists, and quantifies detection quality via Bhattacharyya
coefficients, MAP error bounds, and seeded Bayesian simulation.
"""

import importlib as _importlib
import sys as _sys
import types as _types

from .errors import (
    ContractError,
    DetectionError,
    HorizonCapError,
    ImpossibleObservationError,
    ModelError,
)
from .graphs import (
    Mec,
    SupportGraph,
    almost_sure_reach_set,
    mec_decompose,
    model_graph,
    reach_policy,
)
from .models import (
    History,
    Mdp,
    Mmdp,
    mmdp_to_json,
    parse_mmdp,
    serialize_mmdp,
    trial_rng,
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

__all__ = [
    "active_set", "almost_sure_reach_set", "ApdOutcome", "batch_summary", "bc_exact", "bc_matrix",
    "BcCurve", "BcMatrix", "belief_update", "BeliefState", "bi_apd", "classify_pairs",
    "ContractError", "decay_fit", "DecayFit", "DetectionError", "DetectionPolicy",
    "entry_as_stationary", "error_bounds_binary", "error_bounds_multi", "ErrorBounds", "gen_grid",
    "gen_recsys", "general_apd", "GridSpec", "History", "HorizonCapError",
    "ImpossibleObservationError", "informative_mdp", "map_decide", "Mdp", "Mec", "mec_decompose",
    "Mmdp", "mmdp_to_json", "model_graph", "ModelError", "monte_carlo_curve", "monte_carlo_error",
    "pairwise_bc_curve", "pairwise_isa", "parse_mmdp", "parse_policy", "policy_to_json",
    "PolicyEntry", "preprocess", "PreprocessedPair", "reach_policy", "RecSysSpec",
    "SaClassification", "serialize_mmdp", "serialize_policy", "simulate",
    "stationary_uniform_policy", "SupportGraph", "Trace", "trace_to_csv", "TraceStep",
    "trial_rng", "validate_mmdp",
]

__version__ = "0.1.0"

# The synthesis, scenario and numpy-backed names load on first use (PEP 562):
# validation, synthesis and the grid generator run without numpy, and the
# run-time commands without the synthesis and scenario modules.
_LAZY = {
    **dict.fromkeys((
        "ApdOutcome", "PreprocessedPair", "SaClassification", "bi_apd", "classify_pairs",
        "informative_mdp", "preprocess",
    ), "binary"),
    **dict.fromkeys(("general_apd", "pairwise_isa"), "general"),
    **dict.fromkeys(("GridSpec", "RecSysSpec", "gen_grid", "gen_recsys"), "scenarios"),
    **dict.fromkeys((
        "BcCurve", "BcMatrix", "DecayFit", "ErrorBounds", "bc_exact", "bc_matrix", "decay_fit",
        "error_bounds_binary", "error_bounds_multi", "pairwise_bc_curve",
    ), "analysis"),
    **dict.fromkeys((
        "BeliefState", "Trace", "TraceStep", "batch_summary", "belief_update", "map_decide",
        "monte_carlo_curve", "monte_carlo_error", "simulate", "trace_to_csv",
    ), "simulate"),
}
_MODULES = ("analysis", "binary", "general", "scenarios")


def __getattr__(name: str):
    if name in _MODULES:
        return _importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_importlib.import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_MODULES})


class _Package(_types.ModuleType):
    """Keeps ``mdpdetect.simulate`` the function once the submodule of that name is imported.

    The import system binds a loaded submodule as an attribute of its
    package; for ``simulate`` that binding would shadow the public function.
    """

    def __setattr__(self, name: str, value) -> None:
        if not (name == "simulate" and isinstance(value, _types.ModuleType)):
            super().__setattr__(name, value)


_sys.modules[__name__].__class__ = _Package
