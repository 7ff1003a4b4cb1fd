"""Seeded synthetic data sets: subspace inliers plus cube outliers.

Inliers are standard gaussian inside a chosen subspace, outliers are
uniform in the unit cube of the ambient space, and an optional
isotropic gaussian perturbation can be added to every point.  All draws
come from numpy's default PCG64 generator seeded with the model's seed,
so a model reproduces its data set bit for bit on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimator import _check_number, _prepare
from .oracles import _subset_chunks, iter_subsets
from .subspace import Subspace, _prepared_members, _rank

__all__ = [
    "SyntheticModel",
    "generate",
    "general_position_check",
]


@dataclass(frozen=True)
class SyntheticModel:
    """Recipe for one synthetic data set.

    Attributes
    ----------
    ambient_dim : int
        Dimension of the ambient space.
    subspace_dim : int
        Dimension of the inlier subspace, between 1 and ``ambient_dim``.
        A pure-outlier set is requested with ``n_inliers=0``, not with a
        zero-dimensional subspace.
    n_inliers, n_outliers : int
        Point counts; at least one point in total.
    noise : float
        Standard deviation of the isotropic gaussian added to every
        point; 0 leaves points exact.
    seed : int
        Seed of the generator stream.
    rotate : bool
        With the default ``False`` the inlier subspace is the span of
        the first ``subspace_dim`` coordinates.  With ``True`` it is a
        seeded random rotation of that span.
    """

    ambient_dim: int
    subspace_dim: int
    n_inliers: int
    n_outliers: int
    noise: float = 0.0
    seed: int = 0
    rotate: bool = False

    def __post_init__(self):
        least = {"ambient_dim": 1, "subspace_dim": 1, "n_inliers": 0, "n_outliers": 0, "seed": 0}
        for name, low in least.items():
            _check_number(name, getattr(self, name), low)
        _check_number("noise", self.noise, integer=False)
        if not isinstance(self.rotate, (bool, np.bool_)):
            raise ValueError(f"rotate must be a bool, got {self.rotate!r}")
        if not 1 <= self.subspace_dim <= self.ambient_dim:
            raise ValueError(
                f"need 1 <= subspace_dim <= ambient_dim, got "
                f"subspace_dim={self.subspace_dim}, ambient_dim={self.ambient_dim}"
            )
        if self.n_inliers + self.n_outliers < 1:
            raise ValueError("the data set must contain at least one point")
        if not (np.isfinite(self.noise) and self.noise >= 0.0):
            raise ValueError(f"noise must be finite and nonnegative, got {self.noise}")


def generate(model):
    """Draw the data set described by ``model``.

    Returns
    -------
    points : ndarray, shape (n_inliers + n_outliers, ambient_dim)
        Inlier rows first, then outlier rows, filled into one array.
    truth : Subspace
        The inlier subspace.

    Notes
    -----
    The stream order is fixed: rotation basis (if ``rotate``), inlier
    gaussians, outlier uniforms, then the noise for all points, row by
    row, when ``noise > 0``.  Tests and experiments rely on this order,
    so a given model is bit-reproducible.
    """
    rng = np.random.default_rng(model.seed)
    ambient, dim, n_in = model.ambient_dim, model.subspace_dim, model.n_inliers
    basis = np.eye(ambient)[:, :dim]
    if model.rotate:
        q, r = np.linalg.qr(rng.standard_normal((ambient, ambient)))
        # fix the sign convention so the rotation is a deterministic
        # function of the gaussian draw
        basis = (q * np.sign(np.diag(r)))[:, :dim]
    points = np.empty((n_in + model.n_outliers, ambient))
    np.matmul(rng.standard_normal((n_in, dim)), basis.T, out=points[:n_in])
    rng.random(out=points[n_in:])
    if model.noise > 0.0:  # 16 Ki values a block, not a second (N, D) array
        rows = max(1, (1 << 14) // ambient)
        for block in np.split(points, range(rows, len(points), rows)):
            block += model.noise * rng.standard_normal(block.shape)
    return points, Subspace(basis)


def general_position_check(data, truth, seed=0):
    """Check the in-subspace/off-subspace points for degenerate subsets.

    Splits the data by membership in ``truth``, maps members to their
    coordinates inside the subspace and the rest to coordinates in its
    orthogonal complement, and verifies that every k-subset on each
    side spans k dimensions (k up to the side's dimension).  Subset
    enumeration is exhaustive up to 1e5 subsets per size, after which
    1e4 random subsets are tested instead, making a pass probabilistic.
    Each row is first scaled by a power of two as :func:`~subrec.estimator.estimate`
    scales it, so the ranks depend on the rows' directions alone.
    """
    _check_number("seed", seed, least=0)
    points, _ = _prepare(data)
    inside = _prepared_members(points, truth)  # checks the type and dimensions
    member_coords = points[inside] @ truth.basis
    complement = np.linalg.qr(truth.basis, mode="complete")[0][:, truth.dim :]
    rest_coords = points[~inside] @ complement

    rng = np.random.default_rng(seed)
    return _all_subsets_full_rank(member_coords, rng) and _all_subsets_full_rank(
        rest_coords, rng
    )


def _all_subsets_full_rank(coords, rng):
    n, dim = coords.shape
    for k in range(1, min(n, dim) + 1):
        _, subsets = iter_subsets(n, [k], rng=rng)
        for chunk in _subset_chunks(subsets):
            for _, idx in chunk:
                s = np.linalg.svd(coords[idx], compute_uv=False)
                if np.any(_rank(s) < k):
                    return False
    return True
