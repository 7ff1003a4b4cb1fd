"""Linear subspaces: orthonormal bases, projectors, and recovery error.

A subspace is identified with its orthogonal projector, so the natural
error between two of them is the Frobenius distance of projectors,
which is basis independent.
"""

from __future__ import annotations

import warnings
from functools import cached_property

import numpy as np

from .estimator import _check_number, _prepare, ensure_symmetric

__all__ = [
    "AmbiguousSubspaceWarning",
    "Subspace",
    "top_d_subspace",
    "recovery_error",
    "subspace_members",
    "span_of_points",
]

# Basis Gram deviation up to this is re-orthonormalized, beyond it rejected.
ORTHONORMALITY_TOL = 1e-8
# Eigenvalues closer than this across the cut, relative to the largest
# eigenvalue magnitude, make the subspace ambiguous.
EIGENGAP_TOL = 1e-12
# A point belongs to a subspace when its residual is below this, relative
# to its norm.
MEMBERSHIP_RTOL = 1e-9
# Singular values below this fraction of the largest do not count toward
# numerical rank.
RANK_RTOL = 1e-10


class AmbiguousSubspaceWarning(UserWarning):
    """The eigenvalues across the requested cut are (numerically) equal."""


class Subspace:
    """A ``dim``-dimensional linear subspace of R^``ambient_dim``.

    Parameters
    ----------
    basis : ndarray, shape (ambient_dim, dim)
        Columns spanning the subspace.  They must be orthonormal up to
        a Gram deviation of 1e-8; visible drift is repaired with a QR
        factorization, larger deviations raise ``ValueError``.
        Deviation at working precision is left alone, so a stored basis
        reads back bit for bit.
    """

    def __init__(self, basis):
        basis = np.asarray(basis, dtype=float)
        if basis.ndim != 2:
            raise ValueError(f"basis must be 2-d, got ndim={basis.ndim}")
        ambient, dim = basis.shape
        if not 1 <= dim <= ambient:
            raise ValueError(
                f"need 1 <= dim <= ambient_dim, got basis shape {basis.shape}"
            )
        if not np.all(np.isfinite(basis)):
            raise ValueError("basis has non-finite entries")
        gram = basis.T @ basis
        deviation = np.linalg.norm(gram - np.eye(dim))
        if deviation > ORTHONORMALITY_TOL:
            raise ValueError(
                f"basis columns are not orthonormal (Gram deviation {deviation:.3e})"
            )
        if deviation > 1e-12:
            basis, _ = np.linalg.qr(basis)
        self.basis = basis

    @property
    def ambient_dim(self):
        return self.basis.shape[0]

    @property
    def dim(self):
        return self.basis.shape[1]

    @cached_property
    def projector(self):
        """Orthogonal projector onto the subspace, exactly symmetric."""
        proj = self.basis @ self.basis.T
        return (proj + proj.T) / 2.0

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient_dim={self.ambient_dim})"


def _eigendecompose(mat):
    """Eigenvalues of a symmetric matrix, descending, and their orthonormal
    eigenvectors as columns; small asymmetry is averaged away."""
    vals, vecs = np.linalg.eigh(ensure_symmetric(mat))
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def top_d_subspace(sigma, d):
    """Span of the top ``d`` eigenvectors of a symmetric matrix.

    Warns with :class:`AmbiguousSubspaceWarning` when the eigenvalues on
    either side of the cut agree to within 1e-12 of the largest
    eigenvalue magnitude, in which case the returned span is an
    arbitrary resolution of a genuinely ambiguous choice.  The test is
    relative, so it gives the same verdict for ``sigma`` at any scale.
    """
    _check_number("d", d)
    vals, vecs = _eigendecompose(sigma)
    ambient = vals.shape[0]
    if not 1 <= d <= ambient:
        raise ValueError(f"need 1 <= d <= {ambient}, got d={d}")
    if d < ambient and vals[d - 1] - vals[d] <= EIGENGAP_TOL * np.abs(vals).max():
        warnings.warn(
            f"eigenvalues {d} and {d + 1} agree to within {EIGENGAP_TOL:g} of the largest; "
            "the top eigenspace is not well defined",
            AmbiguousSubspaceWarning,
            stacklevel=2,
        )
    return Subspace(vecs[:, :d])


def recovery_error(s1, s2):
    """Frobenius distance between the projectors of two subspaces.

    Basis independent.  For equal-dimension subspaces this equals
    ``sqrt(2 d - 2 |b1' b2|_F^2)`` and ranges from 0 (same subspace)
    to ``sqrt(2 d)`` (orthogonal subspaces).
    """
    if s1.ambient_dim != s2.ambient_dim:
        raise ValueError(
            f"ambient dimensions differ: {s1.ambient_dim} vs {s2.ambient_dim}"
        )
    return float(np.linalg.norm(s1.projector - s2.projector))


def _rank(s):
    """Numerical rank of one set of descending singular values, or of each
    set in a stack: the count above ``RANK_RTOL`` times the largest."""
    return np.count_nonzero(s > RANK_RTOL * s[..., :1], axis=-1)


def _members(points, basis, scratch=None):
    """Rows of prepared ``points`` whose residual off the span of ``basis`` is at
    most ``MEMBERSHIP_RTOL`` times their norm; one mask per basis in a stack.
    The temporaries of S rank-r bases go in the first ``S N (r + D + 1)``
    floats of ``scratch``, a flat array a caller may reuse, or of a new one."""
    n, dim = points.shape
    stack, rank = basis.shape[:-2], basis.shape[-1]
    size = n * basis[..., 0, 0].size
    if scratch is None:
        scratch = np.empty(size * (rank + dim + 1))
    coords = scratch[: size * rank].reshape(*stack, n, rank)
    residual = scratch[size * rank : size * (rank + dim)].reshape(*stack, n, dim)
    norms = scratch[size * (rank + dim) : size * (rank + dim + 1)].reshape(*stack, n)
    np.matmul(points, basis, out=coords)
    np.matmul(coords, np.swapaxes(basis, -1, -2), out=residual)
    np.subtract(points, residual, out=residual)
    # np.linalg.norm's own route, in place
    np.multiply(residual, residual, out=residual)
    np.sqrt(np.add.reduce(residual, axis=-1, out=norms), out=norms)
    return norms <= MEMBERSHIP_RTOL * np.linalg.norm(points, axis=1)


def subspace_members(points, subspace):
    """Boolean mask of the rows of ``points`` lying in the subspace.

    A row counts as a member when its residual against the subspace is
    at most ``MEMBERSHIP_RTOL`` (1e-9) times its norm.  The test is
    invariant to each row's scale, so rows at extreme scales are compared
    after an exact power-of-two scaling of each, where their squared
    norms neither overflow nor underflow.
    """
    return _prepared_members(_prepare(points)[0], subspace)


def _prepared_members(points, subspace):
    """:func:`subspace_members` of rows :func:`_prepare` has already scaled."""
    if not isinstance(subspace, Subspace):
        raise ValueError(f"subspace must be a Subspace, got {type(subspace).__name__}")
    if points.shape[1] != subspace.ambient_dim:
        raise ValueError(
            f"points live in dimension {points.shape[1]}, "
            f"subspace in {subspace.ambient_dim}"
        )
    return _members(points, subspace.basis)


def span_of_points(points):
    """Numerical span of a set of row points.

    Returns ``(rank, basis)`` where ``basis`` has shape
    ``(ambient_dim, rank)`` with orthonormal columns.  Rank counts the
    singular values above 1e-10 times the largest one; a rank of zero
    (all rows zero) returns an empty basis.  Zero rows are allowed;
    non-finite entries raise ``ValueError``.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(f"expected a 2-d array of row points, got ndim={points.ndim}")
    if not np.isfinite(points).all():
        raise ValueError("points have non-finite entries")
    u, s, _ = np.linalg.svd(points.T, full_matrices=False)
    rank = int(_rank(s))
    return rank, u[:, :rank]
