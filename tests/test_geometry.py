"""Frozen examples and metric identities for the SPD geometry toolkit."""

import math

import numpy as np
import pytest

from reference import random_spd
from subrec.geometry import (
    NotSPDError,
    ensure_symmetric,
    geodesic,
    geometric_mean,
    sym_eigendecompose,
)

SQRT3 = math.sqrt(3.0)
# hand value: eigenvalues of [[2,1],[1,2]] are 3 and 1, so the square
# root has entries (sqrt(3) +/- 1) / 2
SQRT_2112 = np.array(
    [[(SQRT3 + 1) / 2, (SQRT3 - 1) / 2], [(SQRT3 - 1) / 2, (SQRT3 + 1) / 2]]
)


def test_ensure_symmetric_absorbs_drift():
    mat = np.array([[1.0, 0.5 + 1e-15], [0.5, 2.0]])
    out = ensure_symmetric(mat)
    assert np.array_equal(out, out.T)
    np.testing.assert_allclose(out, [[1.0, 0.5], [0.5, 2.0]], atol=1e-14)


def test_ensure_symmetric_rejects_real_asymmetry():
    with pytest.raises(ValueError, match="not symmetric"):
        ensure_symmetric(np.array([[1.0, 0.3], [0.0, 1.0]]))
    # the squares overflow at 1e200 and underflow at 1e-200; the check
    # still sees the relative asymmetry of 0.471
    for scale in (1e200, 1e-200):
        with pytest.raises(ValueError, match=r"relative asymmetry 4\.714e-01"):
            ensure_symmetric(np.array([[1.0, 0.0], [0.5, 1.0]]) * scale)


def test_ensure_symmetric_rejects_nonsquare_and_nonfinite():
    with pytest.raises(ValueError, match="square"):
        ensure_symmetric(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="non-finite"):
        ensure_symmetric(np.array([[1.0, np.nan], [np.nan, 1.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        ensure_symmetric(np.array([[1.0, 0.0], [0.0, -np.inf]]))


def test_ensure_symmetric_accepts_squares_that_overflow():
    # finite entries whose squares overflow are not "non-finite"; the
    # drift is checked on a power-of-two scaled copy, without a warning
    mat = np.array([[1e200, 3e199], [3e199 * (1 + 1e-15), 1e200]])
    out = ensure_symmetric(mat)
    assert out.tobytes() == ((mat + mat.T) / 2.0).tobytes()
    # mat + mat.T itself would overflow here
    huge = np.diag([1.7e308, 1.0])
    assert ensure_symmetric(huge).tobytes() == huge.tobytes()


def test_eigendecompose_diagonal():
    vals, vecs = sym_eigendecompose(np.diag([0.1, 0.7, 0.2]))
    np.testing.assert_allclose(vals, [0.7, 0.2, 0.1], atol=1e-15)
    # columns are signed identity columns picking out positions 1, 2, 0
    expected = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
    np.testing.assert_allclose(np.abs(vecs), expected, atol=1e-15)


def test_eigendecompose_hand_2x2():
    vals, vecs = sym_eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(vals, [3.0, 1.0], atol=1e-14)
    # eigenvectors are (1,1)/sqrt(2) and (1,-1)/sqrt(2) up to sign
    assert abs(abs(vecs[:, 0] @ np.array([1.0, 1.0]) / math.sqrt(2)) - 1) < 1e-14
    assert abs(abs(vecs[:, 1] @ np.array([1.0, -1.0]) / math.sqrt(2)) - 1) < 1e-14


def test_eigendecompose_identity_reconstruction_only():
    # repeated eigenvalues leave the eigenvectors free, so only the
    # reconstruction and orthonormality are checkable
    vals, vecs = sym_eigendecompose(np.eye(4))
    np.testing.assert_allclose(vals, np.ones(4), atol=1e-15)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(4), atol=1e-12)
    np.testing.assert_allclose((vecs * vals) @ vecs.T, np.eye(4), atol=1e-12)


def test_eigendecompose_random_roundtrip():
    rng = np.random.default_rng(10)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        mat = rng.standard_normal((dim, dim))
        mat = (mat + mat.T) / 2.0
        vals, vecs = sym_eigendecompose(mat)
        assert np.all(np.diff(vals) <= 0.0)
        scale = max(np.linalg.norm(mat), 1e-300)
        assert np.linalg.norm((vecs * vals) @ vecs.T - mat) <= 1e-12 * scale
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(dim), atol=1e-12)


def test_geodesic_examples():
    np.testing.assert_allclose(
        geodesic(np.eye(2), np.diag([4.0, 1.0]), 0.5), np.diag([2.0, 1.0]), atol=1e-12
    )
    two_one = np.array([[2.0, 1.0], [1.0, 2.0]])
    np.testing.assert_allclose(geodesic(two_one, np.eye(2), 0.5), SQRT_2112, atol=1e-12)


def test_spd_sqrt_examples():
    # the square root of a is the midpoint of the geodesic from I to a
    def sqrt(a):
        return geodesic(np.eye(len(a)), a, 0.5)

    np.testing.assert_allclose(sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)
    np.testing.assert_allclose(sqrt(np.array([[2.0, 1.0], [1.0, 2.0]])), SQRT_2112, atol=1e-14)
    np.testing.assert_allclose(sqrt(np.eye(3)), np.eye(3), atol=1e-15)


def test_geodesic_endpoints_and_spdness():
    rng = np.random.default_rng(5)
    s1 = random_spd(rng, 4)
    s2 = random_spd(rng, 4)
    scale = max(np.linalg.norm(s1), np.linalg.norm(s2))
    assert np.linalg.norm(geodesic(s1, s2, 0.0) - s1) <= 1e-10 * scale
    assert np.linalg.norm(geodesic(s1, s2, 1.0) - s2) <= 1e-10 * scale
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        point = geodesic(s1, s2, t)
        assert np.array_equal(point, point.T)
        vals = np.linalg.eigvalsh(point)
        assert vals[0] > 1e-14 * vals[-1]


def test_geodesic_commuting_diagonal_is_elementwise_power():
    d1 = np.diag([1.0, 4.0, 0.25])
    d2 = np.diag([9.0, 1.0, 4.0])
    for t in (0.25, 0.5, 0.75):
        expected = np.diag(np.diag(d1) ** (1 - t) * np.diag(d2) ** t)
        np.testing.assert_allclose(geodesic(d1, d2, t), expected, atol=1e-12)


def test_geodesic_rejects_non_spd():
    for bad in (np.diag([1.0, -1.0]), np.diag([1.0, 1e-20])):
        with pytest.raises(NotSPDError, match="^geodesic: "):
            geodesic(bad, np.eye(2), 0.5)
        with pytest.raises(NotSPDError, match="^geodesic: "):
            geometric_mean(np.eye(2), bad)


def test_geodesic_rejects_bad_parameter():
    s = np.eye(2)
    for t in (-0.1, 1.1, 2.0):
        with pytest.raises(ValueError, match="lie in"):
            geodesic(s, s, t)


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
