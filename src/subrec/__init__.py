"""Robust covariance estimation and exact subspace recovery.

The package fits Tyler's M-estimator of scatter by fixed-point
iteration, recovers low-dimensional inlier subspaces from its top
eigenspace, verifies the combinatorial conditions that govern when that
works, and measures it all on seeded synthetic data.  A small
affine-invariant geometry toolkit for SPD matrices backs the
convexity-related diagnostics.
"""

from .estimator import (
    BreakdownError,
    EstimateResult,
    EstimatorConfig,
    IterationRecord,
    Termination,
    check_points,
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
from .geometry import (
    NotSPDError,
    ensure_symmetric,
    geodesic,
    geometric_mean,
    sym_eigendecompose,
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
    pca_subspace,
    recovery_error,
    span_of_points,
    subspace_members,
    top_d_subspace,
)
from .synthetic import (
    SyntheticModel,
    general_position_check,
    generate,
    spherical_projection,
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
    "geodesic",
    "geometric_mean",
    "majorization_gap",
    "noise_sweep",
    "objective",
    "pca_subspace",
    "quadratic_forms",
    "recovery_condition",
    "recovery_error",
    "recovery_trial",
    "spherical_projection",
    "span_of_points",
    "subspace_members",
    "sym_eigendecompose",
    "top_d_subspace",
    "uniqueness_condition",
]
