"""Frozen examples and identities for the reference geodesic midpoint.

The cost's convexity tests compare the cost at two SPD matrices with its
value at their affine-invariant midpoint, ``reference.geometric_mean``;
these checks pin that midpoint down.
"""

import math

import numpy as np

from reference import geometric_mean, random_spd

SQRT3 = math.sqrt(3.0)
# hand value: eigenvalues of [[2,1],[1,2]] are 3 and 1, so the square
# root has entries (sqrt(3) +/- 1) / 2
SQRT_2112 = np.array(
    [[(SQRT3 + 1) / 2, (SQRT3 - 1) / 2], [(SQRT3 - 1) / 2, (SQRT3 + 1) / 2]]
)


def test_geodesic_examples():
    # I to diag(4, 1) is in test_geometric_mean_examples
    two_one = np.array([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(geometric_mean(two_one, np.eye(2)), SQRT_2112, atol=1e-12)


def test_spd_sqrt_examples():
    # the square root of a is the midpoint of the geodesic from I to a
    def sqrt(a):
        return geometric_mean(np.eye(len(a)), a)

    np.testing.assert_allclose(sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)
    np.testing.assert_allclose(sqrt(np.array([[2.0, 1.0], [1.0, 2.0]])), SQRT_2112, atol=1e-14)
    np.testing.assert_allclose(sqrt(np.eye(3)), np.eye(3), atol=1e-15)


def test_geometric_mean_examples():
    mean = geometric_mean(np.eye(2), np.diag([4.0, 1.0]))
    np.testing.assert_allclose(mean, np.diag([2.0, 1.0]), atol=1e-12)
    # determinant identity: 1 * 4 == 2 ** 2
    assert abs(np.linalg.det(mean) ** 2 - 4.0) < 1e-10
    s = random_spd(np.random.default_rng(6), 3)
    np.testing.assert_allclose(geometric_mean(s, s), s, atol=1e-10)


def test_geometric_mean_identities():
    """Determinant identity, the congruence (Riccati) identity, symmetry."""
    rng = np.random.default_rng(7)
    for _ in range(20):
        s1 = random_spd(rng, 3)
        s2 = random_spd(rng, 3)
        mean = geometric_mean(s1, s2)
        logdets = [np.linalg.slogdet(m)[1] for m in (s1, s2, mean)]
        assert abs(logdets[0] + logdets[1] - 2.0 * logdets[2]) < 1e-10
        riccati = mean @ np.linalg.inv(s1) @ mean
        assert np.linalg.norm(riccati - s2) <= 1e-9 * max(np.linalg.norm(s2), 1.0)
        assert np.linalg.norm(mean - geometric_mean(s2, s1)) < 1e-10


def test_midpoint_quadratic_form_inequality():
    # log x'S1x + log x'S2x >= 2 log x'Mx for the midpoint M
    rng = np.random.default_rng(8)
    for _ in range(50):
        dim = int(rng.integers(2, 5))
        s1 = random_spd(rng, dim)
        s2 = random_spd(rng, dim)
        mean = geometric_mean(s1, s2)
        x = rng.standard_normal(dim)
        lhs = math.log(x @ s1 @ x) + math.log(x @ s2 @ x)
        rhs = 2.0 * math.log(x @ mean @ x)
        assert lhs >= rhs - 1e-10
