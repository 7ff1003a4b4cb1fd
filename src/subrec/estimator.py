"""Tyler's M-estimator of scatter: objective, fixed-point update, full solver.

The estimator minimizes

    F(sigma) = mean_x log(x' inv(sigma) x) + log(det(sigma)) / D

over trace-one SPD matrices.  ``F`` is invariant to scaling of
``sigma`` and, up to an additive constant that does not depend on
``sigma``, to the magnitudes of the data points.  The minimizer is
found by the fixed-point iteration

    sigma_next = sum_x (x x' / (x' inv(sigma) x)),  renormalized to trace 1,

started from ``identity / D``.  On data sets dominated by a low-rank
inlier structure the iterates drift toward a singular matrix whose top
eigenspace is the inlier subspace; the solver reports that outcome
through its breakdown handling instead of failing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg import lapack
from scipy.linalg.blas import get_blas_funcs

from .geometry import SPD_RTOL, NotSPDError, ensure_symmetric

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
    "Termination",
    "BreakdownError",
    "EstimatorConfig",
    "IterationRecord",
    "EstimateResult",
    "check_points",
    "quadratic_forms",
    "objective",
    "fixed_point_step",
    "estimate",
]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 1000

# Data whose largest entry is outside [2**-_SAFE_EXPONENT, 2**_SAFE_EXPONENT]
# is rescaled by a power of two before the solve: the quadratic forms grow
# with the square of the data and would overflow or underflow at the extremes.
_SAFE_EXPONENT = 256

# Every dense BLAS/LAPACK call of the solver goes to SciPy's library.  The
# numpy and scipy wheels each bundle their own OpenBLAS, each with its own
# worker pool; after a call, a pool's workers spin for a while, so
# alternating between the two libraries makes each call compete with the
# other pool's idle workers (about a third of an iteration at D=200).
_TRMM, _SYRK, _DOT = get_blas_funcs(("trmm", "syrk", "dot"), dtype=np.float64)
_POTRF = lapack.dpotrf
_TRTRI = lapack.dtrtri
_SYEVD = lapack.dsyevd


class Termination(str, Enum):
    """How a solver run ended."""

    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    BREAKDOWN = "breakdown"


class BreakdownError(RuntimeError):
    """The iterate can no longer be used as an SPD matrix in floating point."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Solver knobs.

    Attributes
    ----------
    tol : float
        Stop when the relative Frobenius step
        ``|sigma_k - sigma_{k-1}|_F / |sigma_k|_F`` falls below this.
    max_iter : int
        Iteration cap.
    """

    tol: float = DEFAULT_TOL
    max_iter: int = DEFAULT_MAX_ITER

    def __post_init__(self):
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")


@dataclass(frozen=True)
class IterationRecord:
    """Diagnostics for one produced iterate."""

    k: int
    objective: float
    rel_step: float
    eig_min: float


@dataclass
class EstimateResult:
    """Outcome of a solver run.

    ``sigma`` is the last finite usable iterate (trace one, symmetric).
    ``trace`` holds one :class:`IterationRecord` per produced iterate,
    so ``len(trace) == iterations``.
    """

    sigma: np.ndarray
    termination: Termination
    iterations: int
    trace: list[IterationRecord]


def check_points(data):
    """Validate a data set and return it as a float ``(N, D)`` array.

    Rejects non-2d input, empty axes, non-finite entries, and zero rows
    (a zero point has an undefined direction and breaks every quadratic
    form the estimator relies on).
    """
    points = np.asarray(data, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"expected a 2-d array of row points, got ndim={points.ndim}")
    n, dim = points.shape
    if n < 1 or dim < 1:
        raise ValueError(f"data must contain at least one point, got shape {points.shape}")
    if not np.all(np.isfinite(points)):
        raise ValueError("data has non-finite entries")
    # exact, unlike a row norm, whose squares underflow for tiny points
    zero_rows = ~points.any(axis=1)
    if zero_rows.any():
        bad = int(np.flatnonzero(zero_rows)[0])
        raise ValueError(f"data contains the zero point at row {bad}")
    return points


def _rescaled(points):
    """``(points * 2**-e, e)`` with ``e`` the exponent that brings the
    largest entry into [1/2, 1), or ``(points, 0)`` when that entry is in
    the safe range.

    A power of two scales every quadratic form by its exact square, so
    the trace-one moment, and with it every iterate, is unchanged; the
    cost drops by exactly ``2 e ln 2``.
    """
    exponent = math.frexp(max(points.max(), -points.min()))[1]
    if abs(exponent) <= _SAFE_EXPONENT:
        return points, 0
    return np.ldexp(points, -exponent), exponent


def _factor(sigma, points, who, work):
    """Cholesky factor of ``sigma`` and the quadratic forms; errors name ``who``."""
    sigma = ensure_symmetric(sigma)
    dim = points.shape[1]
    if sigma.shape[0] != dim:
        raise ValueError(
            f"shape mismatch: sigma is {sigma.shape[0]}-dimensional, data is {dim}-dimensional"
        )
    lower = _cholesky(sigma)
    q = None if lower is None else _quad_forms(lower, points, work)
    if q is None:
        raise NotSPDError(f"{who}: sigma is not positive definite")
    return lower, q


def _cholesky(sigma):
    """Fortran-ordered lower Cholesky factor of ``sigma``, or None when the
    factorization fails (sigma is not positive definite in floating point)."""
    lower, info = _POTRF(sigma, lower=1, clean=1)
    return lower if info == 0 else None


def _quad_forms(lower, points, work):
    """``x' inv(sigma) x`` for every row, as ``|inv(L) x|^2`` for the
    Cholesky factor L of sigma, or None when L cannot be inverted.

    ``work`` is scratch shaped like ``points``; the product overwrites it.
    """
    # OpenBLAS multiplies by a triangular matrix about twice as fast as it
    # solves with one on the same N right-hand sides (D = 200, N = 40 000),
    # which pays for inverting the factor (D^3/3 flops).  The product is
    # Fortran-ordered, so the column sums below add each point's squares
    # in a fixed order.
    inverse, info = _TRTRI(lower, lower=1)
    if info:
        return None
    y = work.T
    np.copyto(y, points.T)
    y = _TRMM(1.0, inverse, y, lower=1, overwrite_b=1)
    # overflow to inf is a handled breakdown signal downstream, not
    # worth a warning here
    with np.errstate(over="ignore"):
        np.multiply(y, y, out=y)
    return np.add.reduce(y, axis=0)


def _singular(q):
    """A nonpositive or non-finite form: sigma is singular in floating point."""
    return not (q.min() > 0.0 and q.max() < math.inf)


def _log_det(lower):
    return 2.0 * np.add.reduce(np.log(lower.diagonal()))


def _moment(points, q, work):
    """Trace-one ``sum_x x x' / q_x``, or None when its trace is not positive.

    ``work`` is scratch shaped like ``points``.
    """
    # syrk fills the lower triangle of S S' for S = points / sqrt(q), at
    # half a general product's flops; its upper triangle is zero, so the
    # mirror S S' + (S S')' with the diagonal halved is exact and symmetric
    scaled = np.divide(points, np.sqrt(q)[:, None], out=work)
    weighted = _SYRK(1.0, scaled.T, lower=1)
    weighted = weighted + weighted.T
    weighted.ravel("K")[:: weighted.shape[0] + 1] *= 0.5
    total = float(weighted.trace())
    if not 0.0 < total < math.inf:
        return None
    weighted /= total
    return weighted


def quadratic_forms(sigma, data):
    """Evaluate ``x' inv(sigma) x`` for every row ``x`` of ``data``."""
    points = check_points(data)
    return _factor(sigma, points, "quadratic_forms", np.empty_like(points))[1]


def objective(sigma, data):
    """Value of the estimator's cost at ``sigma``.

    Parameters
    ----------
    sigma : ndarray, shape (D, D)
        Numerically positive definite matrix.  Any overall scale is
        accepted; the cost itself is scale invariant.
    data : array_like, shape (N, D)
        Row points, none of them zero.

    Returns
    -------
    float
        ``mean(log(x' inv(sigma) x)) + log(det(sigma)) / D``.
    """
    points, exponent = _rescaled(check_points(data))
    lower, q = _factor(sigma, points, "objective", np.empty_like(points))
    if _singular(q):
        raise NotSPDError("objective: nonpositive quadratic form, sigma is numerically singular")
    # fsum's correctly rounded total keeps the value independent of the
    # data ordering, bit for bit
    cost = float(math.fsum(np.log(q)) / points.shape[0] + _log_det(lower) / points.shape[1])
    return cost + 2.0 * exponent * math.log(2.0) if exponent else cost


def fixed_point_step(sigma, data):
    """One update of the fixed-point iteration, renormalized to trace one.

    Returns the symmetric trace-one matrix proportional to
    ``sum_x x x' / (x' inv(sigma) x)``.  The cost never increases along
    this update.

    Raises
    ------
    NotSPDError
        If ``sigma`` is not numerically positive definite.
    BreakdownError
        If some quadratic form comes out nonpositive or non-finite, the
        floating-point signal that the iteration has hit a singular
        limit.
    """
    points, _ = _rescaled(check_points(data))
    work = np.empty_like(points)
    _, q = _factor(sigma, points, "fixed_point_step", work)
    if _singular(q):
        raise BreakdownError("fixed_point_step: nonpositive quadratic form")
    step = _moment(points, q, work)
    if step is None:
        raise BreakdownError("fixed_point_step: update has no positive trace")
    return step


def estimate(data, config=None, observer=None):
    """Run the fixed-point iteration from ``identity / D`` to termination.

    Parameters
    ----------
    data : array_like, shape (N, D)
        Row points, none of them zero.
    config : EstimatorConfig, optional
        Stopping rule; defaults to ``tol=1e-8, max_iter=1000``.
    observer : callable, optional
        Called as ``observer(sigma, record)`` once per produced iterate,
        with the iterate itself and its :class:`IterationRecord`.  Each
        iterate is a fresh array that the solver never writes again, so
        the observer may keep it without a copy; it must not modify it.

    Returns
    -------
    EstimateResult
        Final iterate, termination reason, iteration count, and a
        per-iteration trace of ``(k, objective, rel_step, eig_min)``.
        The objective entries never increase and the final relative
        step is below ``tol`` exactly when the run converged.

    Notes
    -----
    Breakdown is a successful termination: when the iterates collapse
    toward a singular matrix (the exact-recovery regime), the result
    carries the last finite usable iterate, whose top eigenspace is the
    recovered subspace.  It stops there once an iterate fails the SPD
    threshold (eig_min <= 1e-14 * eig_max) or the next update cannot be
    formed (no positive trace, failed eigensolve, factorization or
    inversion of the factor, singular forms).  When the forms are
    singular already at ``identity / D``, as when one row is more than
    about 1e160 times smaller than the largest and its form underflows
    to 0, the run stops after 0 iterations with ``identity / D``, whose
    eigenspace recovers nothing.

    Data whose largest entry is beyond about 1e77 or below about 1e-77
    is first multiplied by the power of two that brings that entry into
    [1/2, 1); the iterates and objective values are those of the given
    data.
    """
    points, exponent = _rescaled(check_points(data))
    if config is None:
        config = EstimatorConfig()
    n, dim = points.shape

    # scratch for every solve and moment of this call; local, because
    # sweeps may run estimates on several threads at once
    work = np.empty_like(points)
    sigma = np.eye(dim) / dim
    _, q = _factor(sigma, points, "estimate", work)
    trace: list[IterationRecord] = []
    if _singular(q):
        # a row far smaller than the largest: its form at I/D underflows
        # to 0, so not even the first update exists
        return EstimateResult(sigma, Termination.BREAKDOWN, 0, trace)
    termination = Termination.MAX_ITERATIONS
    iterations = 0

    # the private kernel, not the public entry points, whose re-validation
    # of data and sigma costs a third of an iteration on small problems.
    # Small iterations are mostly call overhead, so each step is the
    # cheapest call with the same bits: sqrt(d.d) is how np.linalg.norm
    # takes a Frobenius norm, add.reduce / n is np.mean without its wrapper.
    # A failed eigensolve, factorization or inversion ends the run as a
    # breakdown.
    for k in range(1, config.max_iter + 1):
        candidate = _moment(points, q, work)
        if candidate is not None:
            diff = (candidate - sigma).ravel()
            flat = candidate.ravel()
            rel_step = math.sqrt(_DOT(diff, diff)) / math.sqrt(_DOT(flat, flat))
            vals, _, info = _SYEVD(candidate, compute_v=0, lower=1)
            lower = None if info else _cholesky(candidate)
            q = None if lower is None else _quad_forms(lower, points, work)
        if candidate is None or q is None or _singular(q):
            # keep the previous iterate, the last one finite arithmetic could use
            termination = Termination.BREAKDOWN
            break

        # add.reduce, not objective()'s fsum, which is three times slower
        cost = float(np.add.reduce(np.log(q)) / n + _log_det(lower) / dim)
        if exponent:
            # the cost of the given data, not of the rescaled one
            cost += 2.0 * exponent * math.log(2.0)
        sigma = candidate
        iterations = k
        record = IterationRecord(k, cost, rel_step, float(vals[0]))
        trace.append(record)
        if observer is not None:
            observer(sigma, record)

        if rel_step < config.tol:
            termination = Termination.CONVERGED
            break
        if vals[0] <= SPD_RTOL * vals[-1]:
            termination = Termination.BREAKDOWN
            break

    return EstimateResult(
        sigma=sigma, termination=termination, iterations=iterations, trace=trace
    )
