"""Robust covariance estimation and exact subspace recovery.

The package fits Tyler's M-estimator of scatter by fixed-point
iteration, recovers low-dimensional inlier subspaces from its top
eigenspace, verifies the combinatorial conditions that govern when that
works, and measures it all on seeded synthetic data.
"""

from .estimator import (
    BreakdownError,
    EstimateResult,
    EstimatorConfig,
    IterationRecord,
    NotSPDError,
    Termination,
    check_points,
    ensure_symmetric,
    estimate,
    fixed_point_step,
    objective,
    quadratic_forms,
)
from .experiments import (
    convergence_run,
    exact_recovery_sweep,
    noise_sweep,
    recovery_trial,
)
from .oracles import (
    ConditionReport,
    majorization_gap,
    recovery_condition,
    uniqueness_condition,
)
from .subspace import (
    AmbiguousSubspaceWarning,
    Subspace,
    recovery_error,
    span_of_points,
    subspace_members,
    top_d_subspace,
)
from .synthetic import (
    SyntheticModel,
    general_position_check,
    generate,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "AmbiguousSubspaceWarning",
    "BreakdownError",
    "ConditionReport",
    "EstimateResult",
    "EstimatorConfig",
    "IterationRecord",
    "NotSPDError",
    "Subspace",
    "SyntheticModel",
    "Termination",
    "check_points",
    "convergence_run",
    "ensure_symmetric",
    "estimate",
    "exact_recovery_sweep",
    "fixed_point_step",
    "general_position_check",
    "generate",
    "majorization_gap",
    "noise_sweep",
    "objective",
    "quadratic_forms",
    "recovery_condition",
    "recovery_error",
    "recovery_trial",
    "span_of_points",
    "subspace_members",
    "top_d_subspace",
    "uniqueness_condition",
]
