"""Affine-invariant geometry on symmetric positive definite matrices.

All operations work on plain ``(D, D)`` numpy arrays.  Matrix functions
(square root, fractional powers) are evaluated through a symmetric
eigendecomposition: eigensolve, transform the eigenvalues, recompose.
Inputs are symmetrized on entry when the asymmetry is small numerical
drift and rejected otherwise.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "NotSPDError",
    "ensure_symmetric",
    "sym_eigendecompose",
    "geodesic",
    "geometric_mean",
]

# Relative asymmetry above this is an error, below it is absorbed by averaging.
SYMMETRY_RTOL = 1e-12
# A symmetric matrix counts as numerically positive definite when
# eig_min > SPD_RTOL * eig_max.
SPD_RTOL = 1e-14


class NotSPDError(ValueError):
    """A matrix that had to be positive definite is not (numerically)."""


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
        If ``mat`` is not square, has non-finite entries, or deviates
        from symmetry by more than ``SYMMETRY_RTOL`` (1e-12) in relative
        Frobenius norm.
    """
    mat = np.asarray(mat, dtype=float)
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


def sym_eigendecompose(mat):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Parameters
    ----------
    mat : ndarray, shape (D, D)
        Symmetric matrix (small asymmetry is averaged away).

    Returns
    -------
    eigenvalues : ndarray, shape (D,)
        Real eigenvalues sorted in descending order.
    eigenvectors : ndarray, shape (D, D)
        Orthonormal eigenvectors as columns, ``eigenvectors[:, i]``
        matching ``eigenvalues[i]``.
    """
    mat = ensure_symmetric(mat)
    vals, vecs = np.linalg.eigh(mat)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def _spd_eigendecompose(mat, what):
    """Eigendecompose and verify numerical positive definiteness."""
    vals, vecs = sym_eigendecompose(mat)
    if vals[0] <= 0.0 or vals[-1] <= SPD_RTOL * vals[0]:
        raise NotSPDError(
            f"{what}: matrix is not numerically positive definite "
            f"(eig_min={vals[-1]:.3e}, eig_max={vals[0]:.3e})"
        )
    return vals, vecs


def _recompose(vals, vecs):
    out = (vecs * vals) @ vecs.T
    return (out + out.T) / 2.0


def geodesic(s1, s2, t):
    """Point on the affine-invariant geodesic from ``s1`` to ``s2``.

    Evaluates ``s1^(1/2) (s1^(-1/2) s2 s1^(-1/2))^t s1^(1/2)`` for a
    parameter ``t`` in ``[0, 1]``.

    Parameters
    ----------
    s1, s2 : ndarray, shape (D, D)
        Numerically positive definite endpoints.
    t : float
        Position along the curve; 0 gives ``s1``, 1 gives ``s2``.

    Returns
    -------
    ndarray, shape (D, D)
        SPD matrix on the curve.
    """
    t = float(t)
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"geodesic parameter must lie in [0, 1], got {t}")
    s1 = ensure_symmetric(s1)
    s2 = ensure_symmetric(s2)
    if s1.shape != s2.shape:
        raise ValueError(f"shape mismatch: {s1.shape} vs {s2.shape}")
    vals, vecs = _spd_eigendecompose(s1, "geodesic")
    root = _recompose(np.sqrt(vals), vecs)
    inv_root = _recompose(1.0 / np.sqrt(vals), vecs)
    middle = inv_root @ s2 @ inv_root
    middle = (middle + middle.T) / 2.0
    vals, vecs = _spd_eigendecompose(middle, "geodesic")
    powered = _recompose(vals**t, vecs)
    out = root @ powered @ root
    return (out + out.T) / 2.0


def geometric_mean(s1, s2):
    """Geodesic midpoint of two SPD matrices.

    The unique SPD matrix ``m`` with ``m @ inv(s1) @ m == s2``; its log
    determinant is the average of the endpoints' log determinants, and
    it is symmetric in its arguments.
    """
    return geodesic(s1, s2, 0.5)
