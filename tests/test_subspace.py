"""Subspace construction, eigendecomposition, projector algebra, and the
raw-moment (PCA) baseline."""

import math
import warnings

import numpy as np
import pytest

from reference import random_points
from subrec.estimator import estimate
from subrec.subspace import (
    AmbiguousSubspaceWarning,
    Subspace,
    _eigendecompose,
    _members,
    recovery_error,
    span_of_points,
    subspace_members,
    top_d_subspace,
)
from subrec.synthetic import SyntheticModel, generate

E1_R2 = Subspace([[1.0], [0.0]])
E2_R2 = Subspace([[0.0], [1.0]])


def rotated_basis(basis, rng):
    """Right-multiply by a random orthogonal matrix; same subspace."""
    dim = basis.shape[1]
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    return basis @ q


# -------------------------------------------------------------------- Subspace


def test_subspace_construction_and_projector():
    sub = Subspace(np.eye(4)[:, :2])
    assert sub.ambient_dim == 4 and sub.dim == 2
    proj = sub.projector
    assert np.array_equal(proj, proj.T)
    np.testing.assert_allclose(proj @ proj, proj, atol=1e-12)
    np.testing.assert_allclose(sub.basis.T @ sub.basis, np.eye(2), atol=1e-12)


def test_subspace_repairs_small_drift():
    basis = np.eye(3)[:, :2] + 1e-10 * np.ones((3, 2))
    sub = Subspace(basis)
    np.testing.assert_allclose(sub.basis.T @ sub.basis, np.eye(2), atol=1e-12)


@pytest.mark.parametrize(
    "basis, match",
    [
        (np.ones(3), "2-d"),
        (np.ones((3, 2)), "orthonormal"),
        (np.empty((3, 0)), "1 <= dim"),
        (np.ones((2, 3)), "1 <= dim"),
        (np.array([[np.nan], [0.0]]), "non-finite"),
    ],
)
def test_subspace_rejects(basis, match):
    with pytest.raises(ValueError, match=match):
        Subspace(basis)


# ------------------------------------------------------------ eigendecompose


def test_eigendecompose_diagonal():
    vals, vecs = _eigendecompose(np.diag([0.1, 0.7, 0.2]))
    np.testing.assert_allclose(vals, [0.7, 0.2, 0.1], atol=1e-15)
    # columns are signed identity columns picking out positions 1, 2, 0
    expected = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
    np.testing.assert_allclose(np.abs(vecs), expected, atol=1e-15)


def test_eigendecompose_hand_2x2():
    vals, vecs = _eigendecompose(np.array([[2.0, 1.0], [1.0, 2.0]]))
    np.testing.assert_allclose(vals, [3.0, 1.0], atol=1e-14)
    # eigenvectors are (1,1)/sqrt(2) and (1,-1)/sqrt(2) up to sign
    assert abs(abs(vecs[:, 0] @ np.array([1.0, 1.0]) / math.sqrt(2)) - 1) < 1e-14
    assert abs(abs(vecs[:, 1] @ np.array([1.0, -1.0]) / math.sqrt(2)) - 1) < 1e-14


def test_eigendecompose_identity_reconstruction_only():
    # repeated eigenvalues leave the eigenvectors free, so only the
    # reconstruction and orthonormality are checkable
    vals, vecs = _eigendecompose(np.eye(4))
    np.testing.assert_allclose(vals, np.ones(4), atol=1e-15)
    np.testing.assert_allclose(vecs.T @ vecs, np.eye(4), atol=1e-12)
    np.testing.assert_allclose((vecs * vals) @ vecs.T, np.eye(4), atol=1e-12)


def test_eigendecompose_random_roundtrip():
    rng = np.random.default_rng(10)
    for _ in range(20):
        dim = int(rng.integers(2, 7))
        mat = rng.standard_normal((dim, dim))
        mat = (mat + mat.T) / 2.0
        vals, vecs = _eigendecompose(mat)
        assert np.all(np.diff(vals) <= 0.0)
        scale = max(np.linalg.norm(mat), 1e-300)
        assert np.linalg.norm((vecs * vals) @ vecs.T - mat) <= 1e-12 * scale
        np.testing.assert_allclose(vecs.T @ vecs, np.eye(dim), atol=1e-12)


# -------------------------------------------------------------- top_d_subspace


def test_top_d_diagonal_examples():
    one = top_d_subspace(np.diag([0.7, 0.2, 0.1]), 1)
    assert recovery_error(one, Subspace([[1.0], [0.0], [0.0]])) < 1e-12
    two = top_d_subspace(np.diag([0.5, 0.3, 0.15, 0.05]), 2)
    assert recovery_error(two, Subspace(np.eye(4)[:, :2])) < 1e-12


def test_top_d_after_collinear_run():
    data = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [0.3, 1.0], [-0.2, 1.0]])
    sigma = estimate(data).sigma
    assert recovery_error(top_d_subspace(sigma, 1), E1_R2) < 1e-6


def test_top_d_projector_roundtrip():
    rng = np.random.default_rng(50)
    for _ in range(10):
        ambient = int(rng.integers(3, 8))
        dim = int(rng.integers(1, ambient))
        q, _ = np.linalg.qr(rng.standard_normal((ambient, ambient)))
        sub = Subspace(q[:, :dim])
        back = top_d_subspace(sub.projector, dim)
        assert recovery_error(back, sub) < 1e-10


def test_top_d_warns_on_tied_eigenvalues():
    tied = np.diag([0.5, 0.3, 0.3, 0.1])
    for scale in (1.0, 1e-60):
        with pytest.warns(AmbiguousSubspaceWarning):
            top_d_subspace(tied * scale, 2)
    # the gap is judged relative to the largest eigenvalue, not against 1e-12
    with warnings.catch_warnings():
        warnings.simplefilter("error", AmbiguousSubspaceWarning)
        top_d_subspace(np.diag([3.0, 2.0, 1.0]) * 1e-60, 1)


def test_top_d_range_errors():
    with pytest.raises(ValueError, match="1 <= d"):
        top_d_subspace(np.eye(3), 0)
    with pytest.raises(ValueError, match="1 <= d"):
        top_d_subspace(np.eye(3), 4)
    # True would index the eigenvalues as a mask, 1.5 fail with an IndexError
    for bad in (True, 1.5, "1", np.float64(1.0)):
        with pytest.raises(ValueError, match="d must be an integer"):
            top_d_subspace(np.eye(3), bad)
    assert top_d_subspace(np.diag([3.0, 2.0, 1.0]), np.int64(2)).dim == 2


# -------------------------------------------------------------- recovery_error


def test_recovery_error_examples():
    assert recovery_error(E1_R2, E1_R2) == 0.0
    assert abs(recovery_error(E1_R2, E2_R2) - math.sqrt(2.0)) < 1e-12
    angled = Subspace([[math.cos(math.pi / 4)], [math.sin(math.pi / 4)]])
    assert abs(recovery_error(E1_R2, angled) - 1.0) < 1e-12
    # general lines at angle theta sit at sqrt(2) * sin(theta)
    theta = 0.3
    line = Subspace([[math.cos(theta)], [math.sin(theta)]])
    assert abs(recovery_error(E1_R2, line) - math.sqrt(2.0) * math.sin(theta)) < 1e-12


def test_recovery_error_basis_independence():
    rng = np.random.default_rng(51)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    s1 = Subspace(q[:, :2])
    s2 = Subspace(q[:, 1:3])
    base = recovery_error(s1, s2)
    spun = recovery_error(
        Subspace(rotated_basis(s1.basis, rng)), Subspace(rotated_basis(s2.basis, rng))
    )
    assert abs(base - spun) < 1e-12
    assert abs(base - recovery_error(s2, s1)) < 1e-12


def test_recovery_error_algebraic_identity():
    """err^2 == 2 d - 2 |b1' b2|_F^2 for equal-dimension subspaces."""
    rng = np.random.default_rng(52)
    for _ in range(10):
        q1, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        q2, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        s1, s2 = Subspace(q1[:, :3]), Subspace(q2[:, :3])
        err = recovery_error(s1, s2)
        cross = np.linalg.norm(s1.basis.T @ s2.basis) ** 2
        assert abs(err**2 - (2 * 3 - 2 * cross)) < 1e-10


def test_recovery_error_dimension_mismatch():
    with pytest.raises(ValueError, match="ambient"):
        recovery_error(E1_R2, Subspace([[1.0], [0.0], [0.0]]))


# ------------------------------------------------------- raw-moment baseline


def test_pca_moment_example():
    data = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    # moment matrix diag(2, 0.5), top direction e1
    assert recovery_error(top_d_subspace(data.T @ data / len(data), 1), E1_R2) < 1e-12


def test_pca_exact_low_rank():
    rng = np.random.default_rng(53)
    coords = random_points(rng, 30, 2)
    data = np.column_stack([coords, np.zeros((30, 3))])
    truth = Subspace(np.eye(5)[:, :2])
    assert recovery_error(top_d_subspace(data.T @ data / len(data), 2), truth) < 1e-9


def test_pca_loses_to_the_estimator_on_contaminated_data():
    model = SyntheticModel(
        ambient_dim=10, subspace_dim=5, n_inliers=120, n_outliers=100, seed=0
    )
    points, truth = generate(model)
    tyler_err = recovery_error(top_d_subspace(estimate(points).sigma, 5), truth)
    pca_err = recovery_error(top_d_subspace(points.T @ points / len(points), 5), truth)
    assert pca_err > tyler_err


# ------------------------------------------------- members and spans of points


def test_subspace_members_mask():
    points = np.array([[1.0, 0.0], [2.0, 1e-12], [0.0, 1.0], [1.0, 1.0]])
    # the squared norms would underflow or overflow at the extreme scales
    for scale in (1.0, 1e-170, 1e160):
        mask = subspace_members(points * scale, E1_R2)
        assert mask.tolist() == [True, True, False, False]
    # one tiny row beside unit rows: both of its norms would underflow to 0
    mask = subspace_members(np.array([[1.0, 0.0], [0.0, 1e-170], [2.0, 1.0]]), E1_R2)
    assert mask.tolist() == [True, False, False]


@pytest.mark.parametrize("dim, stack", [(3, ()), (5, (40,)), (9, (7,)), (200, (3,))])
def test_members_in_scratch_match_the_norm_route(dim, stack):
    # rows at residual ratios around MEMBERSHIP_RTOL = 1e-9, on both sides of
    # it: the in-place route gives np.linalg.norm's masks, also in a reused
    # scratch array full of NaN
    rng = np.random.default_rng(dim)
    rank = dim // 2
    basis, _ = np.linalg.qr(rng.standard_normal((*stack, dim, rank)))
    inside = rng.standard_normal((60, rank)) @ basis.reshape(-1, dim, rank)[0].T
    points = inside + rng.uniform(0.5e-9, 2e-9, (60, 1)) * rng.standard_normal((60, dim)) * (
        np.linalg.norm(inside, axis=1, keepdims=True) / math.sqrt(dim)
    )
    residual = points - (points @ basis) @ np.swapaxes(basis, -1, -2)
    expected = np.linalg.norm(residual, axis=-1) <= 1e-9 * np.linalg.norm(points, axis=1)
    assert 0 < expected.sum() < expected.size
    scratch = np.full(2 * 60 * dim * math.prod(stack), np.nan)
    for mask in (_members(points, basis), _members(points, basis, scratch)):
        assert np.array_equal(mask, expected)


def test_span_of_points_ranks():
    rank, basis = span_of_points(np.array([[1.0, 0.0], [2.0, 0.0]]))
    assert rank == 1 and basis.shape == (2, 1)
    assert abs(abs(basis[0, 0]) - 1.0) < 1e-12
    rank, basis = span_of_points(np.array([[1.0, 0.0], [1.0, 1e-14]]))
    assert rank == 1
    rank, basis = span_of_points(np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert rank == 2
    rank, basis = span_of_points(np.zeros((2, 3)))
    assert rank == 0 and basis.shape == (3, 0)
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="non-finite entries"):
            span_of_points(np.array([[bad, 1.0], [1.0, 0.0]]))
