"""Mach-Zehnder which-path duality and joint measurability of unsharp qubit observables."""

from .errors import (
    BadDimension,
    DegenerateFidelity,
    DimensionMismatch,
    InvalidArgument,
    InvalidEffect,
    InvalidInstance,
    InvalidState,
    MZDualityError,
    NotHermitian,
    NotMeasurable,
    NotUnitary,
    ScenarioError,
)
from .linalg import (
    EigDecomposition,
    hermitian_eig,
    kron,
    partial_trace_detector,
    trace_norm,
)
from .qubit import (
    QubitState,
    bloch_to_matrix,
    matrix_to_bloch,
    random_detector_state,
    random_pure_detector_state,
    random_qubit_state,
    random_unitary,
)
from .mzi import (
    DualityReport,
    MZISetup,
    Strategy,
    StrategyStats,
    distinguishability,
    duality_report,
    joint_observable,
    max_distinguishability,
    optimal_strategy,
    outcome_probabilities,
    sample_outcomes,
    strategy_stats,
    tightness_gap,
)
from .jointmeas import (
    JMInstance,
    JMVerdict,
    JointCandidate,
    build_candidate,
    construct_joint,
    feasibility_oracle,
    instance_from_setup,
    jm_criterion,
    jm_margin,
    positivity_check,
    random_instance,
)
from .qubit_detector import (
    QubitDetectorAnalysis,
    analysis_from_states,
    gap_slope_empirical,
    gap_slope_prediction,
    optimal_projective_qubit,
    purity_identity_residual,
)

__version__ = "0.1.0"
