"""Population states with misspecified learners: solvers, stability
analyses, worked environments, and a population learning simulator.

The core objects are ``StageEnv`` (the objective environment), ``Model``
(a group's parametrized family of subjective consequence kernels), and
``Zeitgeist`` (one self-confirming population state).  ``enumerate_ez``
finds all such states, ``verify_ez`` certifies one independently, and
the stability module asks whether a resident model survives invasion by
another.  ``catalog`` builds the worked environments and ``learning``
runs the agent-based cross-check.
"""

__version__ = "0.1.0"

from .games import (
    DenseKernel,
    FitnessWeights,
    MonitoringStructure,
    StageEnv,
    best_response_indices,
    stackelberg,
    symmetric_nash,
)
from .inference import (
    ARGMIN_TOL,
    DataContext,
    MinimizerResult,
    kl_divergence,
    kl_minimizers,
    scale_kl,
    weighted_kl,
)
from .models import (
    IdentifiabilityReport,
    Model,
    Parameter,
    check_identifiability,
    illusion_of_control_model,
    minimal_correct_model,
    singleton_model,
)
from .solver import (
    SituationOutcome,
    SituationProblem,
    Zeitgeist,
    conditional_fitness,
    enumerate_ez,
    enumerate_situation_ez,
    fitness,
    render_summaries,
    situation_fitness,
    verify_ez,
    zeitgeist_summary,
)
from .stability import (
    DEFAULT_EPS_LIST,
    ReversalResult,
    SeparationResult,
    StabilityVerdict,
    StableSharesResult,
    classify_stability,
    detect_reversal,
    first_ez_selector,
    scan_stable_shares,
    singleton_fragility_check,
    stable_shares,
)
from .learning import (
    ComparisonReport,
    LearningTrajectory,
    Policy,
    SimConfig,
    compare_to_ez,
    run_learning,
)
from .config import (
    ConfigError,
    load_env,
    load_model,
    load_sim,
    save_env,
    save_model,
    save_sim,
)

__all__ = [
    "__version__",
    "ARGMIN_TOL", "DEFAULT_EPS_LIST",
    "StageEnv", "DenseKernel", "MonitoringStructure", "FitnessWeights",
    "best_response_indices", "symmetric_nash", "stackelberg",
    "DataContext", "MinimizerResult", "kl_divergence", "scale_kl",
    "weighted_kl", "kl_minimizers",
    "Model", "Parameter", "IdentifiabilityReport", "check_identifiability",
    "minimal_correct_model", "singleton_model", "illusion_of_control_model",
    "Zeitgeist", "SituationOutcome", "SituationProblem",
    "enumerate_situation_ez", "enumerate_ez",
    "verify_ez", "fitness", "situation_fitness", "conditional_fitness",
    "zeitgeist_summary", "render_summaries",
    "StabilityVerdict", "classify_stability", "ReversalResult",
    "detect_reversal", "StableSharesResult", "scan_stable_shares",
    "stable_shares", "first_ez_selector", "SeparationResult",
    "singleton_fragility_check",
    "SimConfig", "Policy", "LearningTrajectory", "run_learning",
    "ComparisonReport", "compare_to_ez",
    "ConfigError", "load_env", "save_env", "load_model", "save_model",
    "load_sim", "save_sim",
]
