"""A short tour of the curved geometry on positive definite matrices.

Covariance-like matrices do not form a vector space: the midpoint of
two of them in the straight-line sense can be badly conditioned, and
straight lines ignore how inversion warps scale.  The library works
with the affine-invariant metric instead, where the natural path
between matrices is a geodesic and the midpoint is the matrix geometric
mean.  This script walks through the identities that path satisfies.
"""

import numpy as np

from subrec.geometry import geodesic, geometric_mean

rng = np.random.default_rng(42)


def random_spd(dim, spread=2.0):
    basis = rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(basis)
    eigs = np.exp(rng.uniform(-spread, spread, size=dim))
    return (q * eigs) @ q.T


def main():
    a = random_spd(4)
    b = random_spd(4)

    print("=== geodesic ===")
    print("gamma(0) == A     :", np.linalg.norm(geodesic(a, b, 0.0) - a))
    print("gamma(1) == B     :", np.linalg.norm(geodesic(a, b, 1.0) - b))
    # a geodesic's own midpoint halves it again: gamma(1/4) lies halfway
    # from A to gamma(1/2)
    half = geodesic(a, b, 0.5)
    print(
        "gamma(1/4) vs half of gamma(1/2):",
        np.linalg.norm(geodesic(a, b, 0.25) - geodesic(a, half, 0.5)),
    )

    print()
    print("=== geometric mean ===")
    mean = geometric_mean(a, b)
    print("midpoint == mean  :", np.linalg.norm(half - mean))
    det_lhs = np.linalg.det(mean) ** 2
    det_rhs = np.linalg.det(a) * np.linalg.det(b)
    print("det(mean)^2       :", det_lhs)
    print("det(A) det(B)     :", det_rhs)
    # the mean of a matrix and the identity is its square root
    root = geometric_mean(a, np.eye(4))
    print("mean(A, I)^2 vs A :", np.linalg.norm(root @ root - a))


if __name__ == "__main__":
    main()
