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

import contextlib
import ctypes
import math
import os
import threading
from dataclasses import dataclass
from enum import Enum
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np
import scipy

__all__ = [
    "DEFAULT_TOL",
    "DEFAULT_MAX_ITER",
    "Termination",
    "BreakdownError",
    "NotSPDError",
    "EstimatorConfig",
    "IterationRecord",
    "EstimateResult",
    "ensure_symmetric",
    "quadratic_forms",
    "objective",
    "fixed_point_step",
    "estimate",
]

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 1000

# Relative asymmetry above this is an error, below it is absorbed by averaging.
SYMMETRY_RTOL = 1e-12
# A symmetric matrix counts as numerically positive definite when
# eig_min > SPD_RTOL * eig_max.
SPD_RTOL = 1e-14

# A row whose largest entry is outside [2**-(_SAFE_EXPONENT + 1),
# 2**_SAFE_EXPONENT) is scaled by a power of two before use (_prepare): its
# quadratic forms grow with the square of the row and would overflow or
# underflow at the extremes.
_SAFE_EXPONENT = 256
# Row squared norms in [D * _LOW_NORM, _HIGH_NORM) leave every row's largest
# entry in that range: _prepare then scales nothing.
_LOW_NORM = 2.0 ** (-2 * _SAFE_EXPONENT - 2)
_HIGH_NORM = 2.0 ** (2 * _SAFE_EXPONENT)

# Rows per block of the pass over the data (_pass), fixed so that the
# moment's sum is split at the same rows on every call.  Picked from a
# sweep of 1024 to 8192 rows at D = 20 to 200 (BENCH_blocked.json); a
# multiple of 24, for which OpenBLAS's dtrmm on one thread rounds every
# column of a block as it does in one call over all rows (4096 does not).
_BLOCK = 1536

# A trace-one C = L L' has eig_min / eig_max >= 1 / trace(inv(C)) = 1 / |inv(L)|_F^2.
# Below this bound that ratio is over 1e4 * SPD_RTOL, which dsyev, backward
# stable to about D eps eig_max, cannot read as collapsed: estimate skips it.
_EIGENSOLVE_AT = 1.0 / (1e4 * SPD_RTOL)

# A pass over data with D * D * rows of a block below this runs on one SciPy
# BLAS thread: at N = 20 000 one won up to D = 44, two from 48 (BENCH_threads.json).
_ONE_THREAD_BELOW = 3 * 2**20


def _linalg_extension(name):
    """SciPy's compiled module ``scipy.linalg.<name>``, loaded from its file."""
    directory = os.path.join(scipy.__path__[0], "linalg")
    finder = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(f"scipy.linalg.{name}")
    if spec is None:
        raise ImportError(f"no compiled module {name} in {directory}")
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# Every dense BLAS/LAPACK call of the solver goes to SciPy's library.  The
# numpy and scipy wheels each bundle their own OpenBLAS, each with its own
# worker pool; after a call, a pool's workers spin for a while, so
# alternating between the two libraries makes each call compete with the
# other pool's idle workers (about a third of an iteration at D=200).  Per-step
# calls pass arguments positionally: keywords cost the wrappers 0.3-1 us each.
# The two compiled modules load without the Python layer of scipy.linalg
# (about 0.3 s of start-up; the top-level import also finds the DLLs on
# Windows); a later ``import scipy.linalg`` hands out these same functions.
_fblas, _flapack = _linalg_extension("_fblas"), _linalg_extension("_flapack")
_TRMM, _SYRK, _GEMV, _DOT = _fblas.dtrmm, _fblas.dsyrk, _fblas.dgemv, _fblas.ddot
_POTRF, _TRTRI, _SYEV = _flapack.dpotrf, _flapack.dtrtri, _flapack.dsyev


class _OneBlasThread:
    """Holds SciPy's OpenBLAS at one thread while entered.  The count is
    process-wide: of overlapping holders the first saves it, the last restores it."""

    def __init__(self, get, put):
        self.get, self.put, self.lock, self.holders = get, put, threading.Lock(), 0

    def __enter__(self):
        with self.lock:
            if not self.holders:
                self.saved = self.get()
                self.put(1)
            self.holders += 1

    def __exit__(self, *exc_info):
        with self.lock:
            self.holders -= 1
            if not self.holders:
                self.put(self.saved)


def _one_blas_thread():
    """A :class:`_OneBlasThread` for the OpenBLAS that the SciPy wheel bundles
    in ``scipy.libs``, or None where that library or its symbols are missing."""
    libs = os.path.join(os.path.dirname(scipy.__path__[0]), "scipy.libs")
    try:
        name = min(f for f in os.listdir(libs) if f.startswith("libscipy_openblas"))
        lib = ctypes.CDLL(os.path.join(libs, name))
        get, put = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
    except (OSError, ValueError, AttributeError):  # no directory, no library, no symbol
        return None
    return _OneBlasThread(get, put)  # ctypes' default int result and argument


_ONE_BLAS_THREAD = _one_blas_thread()


def _blas_threads(n, dim):
    """The one-thread hold for a pass over (n, dim) data below the cut, else a no-op."""
    small = dim * dim * min(n, _BLOCK) < _ONE_THREAD_BELOW
    return _ONE_BLAS_THREAD if small and _ONE_BLAS_THREAD else contextlib.nullcontext()


def _check_number(name, value, least=None, integer=True):
    """Reject bools, non-integers (non-numbers if not ``integer``) and values below ``least``."""
    kinds = (int, np.integer) if integer else (int, float, np.integer, np.floating)
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _real_array(value, name):
    """``value`` as a float array; complex input, which the cast cuts to its real part, raises."""
    array = np.asarray(value)
    if array.dtype.kind == "c":
        raise ValueError(f"{name} must be real, got {array.dtype}")
    return np.asarray(array, dtype=float)


class Termination(str, Enum):
    """How a solver run ended."""

    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"
    BREAKDOWN = "breakdown"


class BreakdownError(RuntimeError):
    """The iterate can no longer be used as an SPD matrix in floating point."""


class NotSPDError(ValueError):
    """A matrix that had to be positive definite is not (numerically)."""


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
        _check_number("tol", self.tol, integer=False)
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        _check_number("max_iter", self.max_iter, least=1)


@dataclass(frozen=True)
class IterationRecord:
    """Diagnostics for one produced iterate: its index, cost and relative step."""

    k: int
    objective: float
    rel_step: float


@dataclass
class EstimateResult:
    """Outcome of a solver run.

    ``sigma`` is the last finite usable iterate (trace one, symmetric).
    """

    sigma: np.ndarray
    termination: Termination
    iterations: int


def _validate(data):
    """``(points, top)``: the data as a float ``(N, D)`` array and each row's
    largest magnitude, or None for ``top`` when the row norms show that
    :func:`_prepare` scales no row.  Complex or non-2d input, empty axes,
    non-finite entries and zero rows (a zero point has no direction and
    breaks every quadratic form) are rejected."""
    points = _real_array(data, "data")
    if points.ndim != 2:
        raise ValueError(f"expected a 2-d array of row points, got ndim={points.ndim}")
    n, dim = points.shape
    if n < 1 or dim < 1:
        raise ValueError(f"data must contain at least one point, got shape {points.shape}")
    # numpy's own loop, not BLAS, in one pass: an overflow gives inf without
    # a warning and NaN fails both comparisons, so norms in range also mean
    # finite data without a zero row
    norms = np.einsum("ij,ij->i", points, points)
    if dim * _LOW_NORM <= norms.min() and norms.max() < _HIGH_NORM:
        return points, None
    # NaN and +-inf propagate into a row's largest magnitude; a zero row
    # gives 0, unlike a norm, whose squares underflow for tiny rows
    top = np.maximum(points.max(axis=1), -points.min(axis=1))
    if not (top.max() < math.inf and top.min() > 0.0):
        if not np.isfinite(points).all():
            raise ValueError("data has non-finite entries")
        raise ValueError(f"data contains the zero point at row {np.argmin(top)}")
    return points, top


def _prepare(data):
    """Validate the data and scale its rows: ``(prepared, offset)``.

    ``prepared`` is each row ``x`` of the validated float array
    :func:`_validate` returns, times ``2**-e_x``.  Every row takes the
    exponent ``E`` of the largest entry when ``|E| > _SAFE_EXPONENT`` (the
    largest entry in ``[2**(E-1), 2**E)``), else 0; a row whose largest
    entry is still below ``2**-(_SAFE_EXPONENT + 1)`` takes its own, which
    brings that entry into [1/2, 1).  Every prepared row's largest entry
    is then in ``[2**-(_SAFE_EXPONENT + 1), 2**_SAFE_EXPONENT)``.  A power
    of two scales the row's forms by its exact square, which changes no
    update and no iterate; the cost of the data is the cost of
    ``prepared`` plus ``offset = 2 ln 2 mean(e_x)``.  ``prepared`` is
    the validated array itself when no row is scaled.
    """
    points, top = _validate(data)
    if top is None:
        return points, 0.0
    exponents = np.frexp(top)[1]
    shift = math.frexp(top.max())[1]
    shift = shift if abs(shift) > _SAFE_EXPONENT else 0
    exponents = np.where(exponents - shift < -_SAFE_EXPONENT, exponents, shift)
    if not exponents.any():
        return points, 0.0
    offset = 2.0 * float(exponents.mean()) * math.log(2.0)
    return np.ldexp(points, -exponents[:, None]), offset


def ensure_symmetric(mat):
    """Return the symmetrized copy of ``mat``, rejecting real asymmetry.

    Parameters
    ----------
    mat : ndarray, shape (D, D)
        Square matrix with finite entries.

    Returns
    -------
    ndarray, shape (D, D)
        ``(mat + mat.T) / 2``, which is exactly symmetric entrywise.

    Raises
    ------
    ValueError
        If ``mat`` is complex or not square, has non-finite entries, or deviates
        from symmetry by more than ``SYMMETRY_RTOL`` (1e-12) in relative
        Frobenius norm.
    """
    mat = _real_array(mat, "matrix")
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    # Frobenius norms in numpy's own loops: np.linalg.norm's BLAS dot costs
    # more on small matrices and runs on numpy's OpenBLAS, whose worker
    # pool the solver's SciPy calls would then compete with.  einsum gives
    # inf on an overflow without a warning.
    scale = math.sqrt(np.einsum("ij,ij->", mat, mat))
    if not scale < math.inf and not np.isfinite(mat).all():  # inf or NaN, not an overflow
        raise ValueError("matrix has non-finite entries")
    # Outside [2**-256, 2**256) the squares below overflow, or lose bits to
    # underflow near the threshold; a nonzero matrix is then checked and
    # averaged as a copy whose largest entry is in [1/2, 1), exact both ways.
    # Inside, scale is positive unless the matrix is zero.
    if not 2.0**-256 <= scale < 2.0**256 and mat.any():
        shift = math.frexp(np.abs(mat).max())[1]
        return np.ldexp(ensure_symmetric(np.ldexp(mat, -shift)), shift)
    asym = mat - mat.T
    drift = math.sqrt(np.add.reduce(np.square(asym, out=asym), axis=None))
    if drift > SYMMETRY_RTOL * scale:
        raise ValueError(
            f"matrix is not symmetric (relative asymmetry {drift / scale:.3e})"
        )
    return (mat + mat.T) / 2.0


def _factor(sigma, points, who, moment=False):
    """Cholesky factor of ``sigma`` and :func:`_pass` on its inverse; errors name ``who``."""
    sigma = ensure_symmetric(sigma)
    dim = points.shape[1]
    if sigma.shape[0] != dim:
        raise ValueError(
            f"shape mismatch: sigma is {sigma.shape[0]}-dimensional, data is {dim}-dimensional"
        )
    # the callers check the forms and the moment
    with _blas_threads(*points.shape), np.errstate(all="ignore"):
        factors = _cholesky(sigma)
        if factors is None:
            raise NotSPDError(f"{who}: sigma is not positive definite")
        return (factors[0], *_pass(factors[1], points, moment, *_scratch(*points.shape)))


def _cholesky(sigma):
    """``(lower, inverse)``: the Fortran-ordered lower Cholesky factor L of
    ``sigma`` and inv(L), or None when the factorization or the inversion
    fails (sigma is not positive definite in floating point)."""
    lower, info = _POTRF(sigma, 1, 1)  # lower=1, clean=1
    if info:
        return None
    inverse, info = _TRTRI(lower, lower=1)
    return None if info else (lower, inverse)


def _pass(inverse, points, moment, q, scratch, ones):
    """One pass over the data for the inverse of sigma's Cholesky factor L:
    ``(q, step)``.

    ``q`` holds ``x' inv(sigma) x`` for every row, as ``|inv(L) x|^2``
    (squares summed by ``dgemv``).  ``step`` is the trace-one
    ``sum_x x x' / q_x``, None when its trace is not positive or when
    ``moment`` is false.  Forms that are not in (0, inf) leave ``step``
    meaningless: the caller checks ``q`` before it uses ``step``.  The forms
    go into ``q``, each block's products into ``scratch`` (:func:`_scratch`).
    """
    # OpenBLAS multiplies by a triangular matrix about twice as fast as it
    # solves with one on the same N right-hand sides (D = 200, N = 40 000),
    # which pays for inverting the factor (D^3/3 flops).  The column sums
    # of the squared product are a BLAS product with the vector ``ones``,
    # summed in an order fixed at a fixed thread count (see _blas_threads).  The
    # rows go in blocks of _BLOCK, each one's forms and moment terms made
    # while it is in cache.
    n, dim = points.shape
    columns = points.T
    weighted = None
    for start in range(0, n, _BLOCK):
        rows = columns[:, start : start + _BLOCK]
        block = scratch[:, : rows.shape[1]]  # leading columns: Fortran-contiguous
        block[...] = rows
        # side, lower, trans_a, diag, overwrite_b: in place on the block
        y = _TRMM(1.0, inverse, block, 0, 1, 0, 0, 1)
        np.multiply(y, y, out=y)  # an overflow warns unless the caller ignores it
        # beta, y, offx, incx, offy, incy, trans, overwrite_y: the sums of
        # y's columns, written into q from row start on
        _GEMV(1.0, y, ones, 0.0, q, 0, 1, start, 1, 1, 1)
        if moment:
            # syrk adds the lower triangle of S S' for S = rows / sqrt(q) to
            # its own, at half a general product's flops (beta, c, trans,
            # lower, overwrite_c); the first block's product is a fresh array
            np.divide(rows, np.sqrt(q[start : start + y.shape[1]]), out=block)
            weighted = _SYRK(1.0, block, 0.0 if weighted is None else 1.0, weighted, 0, 1, 1)
    # the upper triangle is zero, so the mirror of the normalized triangle,
    # with the diagonal halved, is exact
    total = weighted.trace() if moment else math.nan
    if not 0.0 < total < math.inf:
        return q, None
    weighted /= total
    weighted += weighted.T
    weighted.ravel("K")[:: dim + 1] *= 0.5
    return q, weighted


def _scratch(n, dim):
    """Forms, block and ones of :func:`_pass`; zero forms: a BLAS scaling q by 0 reads no NaN."""
    return np.zeros(n), np.empty((dim, min(n, _BLOCK)), order="F"), np.ones(dim)


def _singular(q):
    """A nonpositive or non-finite form: sigma is singular in floating point."""
    return not (q.min() > 0.0 and q.max() < math.inf)


def _log_det(lower):
    return 2.0 * np.add.reduce(np.log(lower.diagonal()))


def quadratic_forms(sigma, data):
    """Evaluate ``x' inv(sigma) x`` for every row ``x`` of ``data``."""
    return _factor(sigma, _validate(data)[0], "quadratic_forms")[1]


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
    points, offset = _prepare(data)
    lower, q, _ = _factor(sigma, points, "objective")
    if _singular(q):
        raise NotSPDError("objective: nonpositive quadratic form, sigma is numerically singular")
    # fsum's correctly rounded total keeps the value independent of the
    # data ordering, bit for bit
    n, dim = points.shape
    return float(math.fsum(np.log(q)) / n + _log_det(lower) / dim) + offset


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
    points, _ = _prepare(data)
    _, q, step = _factor(sigma, points, "fixed_point_step", moment=True)
    if _singular(q):
        raise BreakdownError("fixed_point_step: nonpositive quadratic form")
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
        with the iterate itself and its :class:`IterationRecord`, under the
        caller's numpy error state.  Each iterate is a fresh array that the
        solver never writes again, so the observer may keep it without a
        copy; it must not modify it.  The records' objective values never
        increase, and the last record's relative step is below ``tol``
        exactly when the run converged.  Without an observer the solver
        computes no cost and builds no record.

    Returns
    -------
    EstimateResult
        Final iterate, termination reason and iteration count.

    Notes
    -----
    Breakdown is a successful termination: when the iterates collapse
    toward a singular matrix (the exact-recovery regime), the result
    carries the last finite usable iterate, whose top eigenspace is the
    recovered subspace.  It stops there once an iterate fails the SPD
    threshold (eig_min <= 1e-14 * eig_max) or the next update cannot be
    formed (no positive trace, failed eigensolve, factorization or
    inversion of the factor, singular forms).  The eigensolve runs only
    when the inverted Cholesky factor L cannot rule out the threshold:
    ``|inv(L)|_F^2 = trace(inv(sigma))`` bounds eig_max / eig_min, and
    below 1e10 the iterate is not collapsed.  An observer changes nothing
    the solver computes, only the cost and record it is handed.

    The solve runs on the data with each row scaled by a power of two:
    every row when the largest entry is beyond about 1e77 or below about
    1e-77, and each row whose largest entry would still be below about
    1e-77 by its own.  No form at ``identity / D`` is then 0 or inf.  The
    iterates and objective values are those of the given data.

    Each iteration reads the data once, in blocks of a fixed number of
    rows B: one pass makes an iterate's quadratic forms and, unless the
    run stops at that iterate, the next iterate.  A solve allocates its
    scratch once, the forms, one (D, B) array and D ones, not a copy of the data.

    Below ``D * D * min(N, B)`` = 3 * 2**20 the solve, like the one-call
    helpers, runs on one SciPy BLAS thread and then restores the caller's
    count.  The count is process-wide: while a small call runs, a larger
    solve on another thread runs on one thread too, so its bits are fixed
    at a fixed count only when no small call overlaps it (README).
    """
    if config is None:
        config = EstimatorConfig()
    elif not isinstance(config, EstimatorConfig):
        raise ValueError(f"config must be an EstimatorConfig, got {type(config).__name__}")
    points, offset = _prepare(data)
    n, dim = points.shape
    buffers = _scratch(n, dim)

    # the loop checks every result itself, so numpy's warnings are off in
    # one scope per call; the observer runs under the caller's error state
    caller = np.geterr()
    with _blas_threads(n, dim), np.errstate(all="ignore"):
        sigma = np.eye(dim) / dim
        candidate = _pass(_cholesky(sigma)[1], points, True, *buffers)[1]
        termination = Termination.MAX_ITERATIONS
        iterations = 0

        # the private kernel, not the public entry points, whose re-validation
        # of data and sigma costs a third of an iteration on small problems.
        # Small iterations are mostly call overhead, so each step is a cheap
        # call: sqrt(d.d) is how np.linalg.norm takes a Frobenius norm,
        # add.reduce / n is np.mean without its wrapper.  The pass that makes
        # an iterate's forms also makes the next iterate, unless the loop
        # stops at this one.  A failed eigensolve, factorization or inversion
        # ends the run as a breakdown.
        for k in range(1, config.max_iter + 1):
            factors = None if candidate is None else _cholesky(candidate)
            log_sum = math.nan
            if factors is not None:
                lower, inverse = factors
                # symmetric, so the memory order does not change the sequence
                diff = (candidate - sigma).ravel("K")
                flat = candidate.ravel("K")
                rel_step = math.sqrt(_DOT(diff, diff)) / math.sqrt(_DOT(flat, flat))
                entries = inverse.ravel("K")  # zero above the diagonal: |.|^2 = trace(inv(C))
                collapsed, info = False, 0
                if not _DOT(entries, entries) < _EIGENSOLVE_AT:
                    vals, _, info = _SYEV(candidate, 0, 1)  # compute_v=0, lower=1
                    collapsed = vals[0] <= SPD_RTOL * vals[-1]
                converged = rel_step < config.tol
                last = converged or collapsed or k == config.max_iter
                if not info:
                    q, following = _pass(inverse, points, not last, *buffers)
                    # finite exactly when every form is in (0, inf): log(0) = -inf, log(-1) = nan
                    log_sum = np.add.reduce(np.log(q))
            if not math.isfinite(log_sum):
                # keep the previous iterate, the last one finite arithmetic could use
                termination = Termination.BREAKDOWN
                break

            sigma, candidate = candidate, following
            iterations = k
            if observer is not None:
                # add.reduce, not objective()'s fsum, which is three times slower
                # the cost of the given data, not of the prepared one
                cost = float(log_sum / n + _log_det(lower) / dim) + offset
                with np.errstate(**caller):
                    observer(sigma, IterationRecord(k, cost, rel_step))

            if converged:
                termination = Termination.CONVERGED
                break
            if collapsed:
                termination = Termination.BREAKDOWN
                break

    return EstimateResult(sigma=sigma, termination=termination, iterations=iterations)
