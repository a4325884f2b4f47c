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
    TOL,
    DenseKernel,
    MonitoringStructure,
    StageEnv,
    best_response_indices,
    stackelberg,
    symmetric_nash,
)
from .inference import (
    DataContext,
    MinimizerResult,
    kl_divergence,
    kl_minimizers,
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
    match_payoffs,
    verify_ez,
)
from .stability import (
    DEFAULT_EPS_LIST,
    ReversalResult,
    SeparationResult,
    StabilityVerdict,
    StableSharesResult,
    affine_stable_shares,
    classify_stability,
    detect_reversal,
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
    "TOL", "DEFAULT_EPS_LIST",
    "StageEnv", "DenseKernel", "MonitoringStructure",
    "best_response_indices", "symmetric_nash", "stackelberg",
    "DataContext", "MinimizerResult", "kl_divergence", "kl_minimizers",
    "Model", "Parameter", "IdentifiabilityReport", "check_identifiability",
    "minimal_correct_model", "singleton_model", "illusion_of_control_model",
    "Zeitgeist", "SituationOutcome", "SituationProblem",
    "enumerate_situation_ez", "enumerate_ez",
    "verify_ez", "fitness", "match_payoffs", "conditional_fitness",
    "StabilityVerdict", "classify_stability", "ReversalResult",
    "detect_reversal", "StableSharesResult", "stable_shares",
    "affine_stable_shares", "SeparationResult",
    "singleton_fragility_check",
    "SimConfig", "Policy", "LearningTrajectory", "run_learning",
    "ComparisonReport", "compare_to_ez",
    "ConfigError", "load_env", "save_env", "load_model", "save_model",
    "load_sim", "save_sim",
]
