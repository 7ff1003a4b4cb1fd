"""Generator determinism, the planted-subspace contract, position checks."""

import tracemalloc

import numpy as np
import pytest
from reference import stacked_generate

from subrec import estimator, subspace, synthetic
from subrec.estimator import fixed_point_step, objective
from subrec.subspace import Subspace, span_of_points
from subrec.synthetic import SyntheticModel, general_position_check, generate


def residuals(points, subspace):
    return np.linalg.norm(points - points @ subspace.projector, axis=1)


def test_pure_inliers_are_rank_d():
    model = SyntheticModel(ambient_dim=3, subspace_dim=1, n_inliers=4, n_outliers=0)
    points, truth = generate(model)
    assert points.shape == (4, 3)
    rank, _ = span_of_points(points)
    assert rank == 1
    assert np.all(residuals(points, truth) <= 1e-12)


def test_pure_outliers_live_in_the_cube():
    model = SyntheticModel(ambient_dim=3, subspace_dim=1, n_inliers=0, n_outliers=5)
    points, _ = generate(model)
    assert points.shape == (5, 3)
    assert np.all((points >= 0.0) & (points <= 1.0))


def test_reference_model_contract():
    """The (120, 100, 10, 5) instance used throughout the experiments."""
    model = SyntheticModel(
        ambient_dim=10, subspace_dim=5, n_inliers=120, n_outliers=100, seed=42
    )
    points, truth = generate(model)
    assert points.shape == (220, 10)
    assert truth.ambient_dim == 10 and truth.dim == 5
    # inliers come first and lie on the subspace exactly
    assert np.all(residuals(points[:120], truth) <= 1e-12)
    # outliers stay in the unit cube before noise
    assert np.all((points[120:] >= 0.0) & (points[120:] <= 1.0))
    rank, _ = span_of_points(points)
    assert rank == 10


def test_seed_determinism_is_bitwise():
    model = SyntheticModel(
        ambient_dim=6, subspace_dim=2, n_inliers=15, n_outliers=10, noise=0.01, seed=9
    )
    first, t1 = generate(model)
    second, t2 = generate(model)
    assert np.array_equal(first, second)
    assert np.array_equal(t1.basis, t2.basis)
    different, _ = generate(
        SyntheticModel(
            ambient_dim=6, subspace_dim=2, n_inliers=15, n_outliers=10, noise=0.01, seed=10
        )
    )
    assert not np.array_equal(first, different)


@pytest.mark.parametrize("seed", [0, 1, 7])
@pytest.mark.parametrize(
    "shape",
    [
        # (ambient_dim, subspace_dim, n_inliers, n_outliers, noise, rotate)
        (10, 5, 120, 100, 0.0, False),
        (6, 2, 15, 10, 0.01, True),
        (5, 2, 8, 0, 0.0, True),
        (4, 1, 0, 9, 1e-3, False),
        (1, 1, 3, 2, 0.5, False),
        (1, 1, 4, 0, 0.0, True),
        (7, 7, 10, 5, 0.1, True),
        (60, 20, 1500, 1500, 1e-2, True),
        # noise drawn in several row blocks, the last one short
        (3, 2, 9000, 8000, 1e-3, True),
    ],
)
def test_generate_matches_the_stacking_path(shape, seed):
    ambient, dim, n_in, n_out, noise, rotate = shape
    model = SyntheticModel(ambient, dim, n_in, n_out, noise=noise, seed=seed, rotate=rotate)
    points, truth = generate(model)
    ref_points, ref_truth = stacked_generate(model)
    assert points.shape == ref_points.shape
    assert points.tobytes() == ref_points.tobytes()
    assert truth.basis.tobytes() == ref_truth.basis.tobytes()
    # NumPy integers and floats are accepted and draw the same data
    typed = SyntheticModel(
        np.int64(ambient), np.int32(dim), np.uint16(n_in), np.int64(n_out),
        noise=np.float64(noise), seed=np.uint32(seed), rotate=np.bool_(rotate),
    )
    assert generate(typed)[0].tobytes() == points.tobytes()


def test_generate_holds_one_copy_of_the_data():
    model = SyntheticModel(50, 10, 2000, 2000, seed=5)
    tracemalloc.start()
    try:
        points, _ = generate(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert points.shape == (4000, 50)
    assert peak < 1.5 * points.nbytes


def test_generate_with_noise_holds_one_copy_of_the_data():
    model = SyntheticModel(50, 10, 2000, 2000, noise=0.01, seed=5)
    tracemalloc.start()
    try:
        points, _ = generate(model)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert points.shape == (4000, 50)
    assert peak < 1.5 * points.nbytes


def test_rotated_subspace():
    model = SyntheticModel(
        ambient_dim=6, subspace_dim=2, n_inliers=20, n_outliers=5, seed=3, rotate=True
    )
    points, truth = generate(model)
    # not axis aligned, yet the inliers still sit on it exactly
    axis_aligned = Subspace(np.eye(6)[:, :2])
    assert np.linalg.norm(truth.projector - axis_aligned.projector) > 0.1
    assert np.all(residuals(points[:20], truth) <= 1e-12)


def test_inlier_block_rank_is_min_of_count_and_dim():
    model = SyntheticModel(ambient_dim=7, subspace_dim=4, n_inliers=3, n_outliers=0, seed=1)
    points, _ = generate(model)
    rank, _ = span_of_points(points)
    assert rank == 3
    model = SyntheticModel(ambient_dim=7, subspace_dim=4, n_inliers=9, n_outliers=0, seed=1)
    points, _ = generate(model)
    rank, _ = span_of_points(points)
    assert rank == 4


def test_outliers_are_anisotropic():
    # the cube's mean is (0.5, ..., 0.5), not the origin
    model = SyntheticModel(ambient_dim=3, subspace_dim=1, n_inliers=0, n_outliers=200, seed=6)
    points, _ = generate(model)
    mean = points.mean(axis=0)
    assert np.all(np.abs(mean - 0.5) < 0.1)
    assert np.all(mean > 0.3)


def test_noise_touches_every_point():
    clean_model = SyntheticModel(
        ambient_dim=4, subspace_dim=2, n_inliers=10, n_outliers=10, seed=2
    )
    noisy_model = SyntheticModel(
        ambient_dim=4, subspace_dim=2, n_inliers=10, n_outliers=10, noise=1e-3, seed=2
    )
    clean, truth = generate(clean_model)
    noisy, _ = generate(noisy_model)
    # same underlying draw, so every single point moves by about eps
    shifts = np.linalg.norm(noisy - clean, axis=1)
    assert np.all(shifts > 0.0)
    assert np.all(shifts < 1e-2)
    assert np.all(residuals(noisy[:10], truth) > 0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(ambient_dim=0, subspace_dim=1, n_inliers=1, n_outliers=0),
        dict(ambient_dim=3, subspace_dim=0, n_inliers=1, n_outliers=0),
        dict(ambient_dim=3, subspace_dim=4, n_inliers=1, n_outliers=0),
        dict(ambient_dim=3, subspace_dim=1, n_inliers=-1, n_outliers=2),
        dict(ambient_dim=3, subspace_dim=1, n_inliers=0, n_outliers=0),
        dict(ambient_dim=3, subspace_dim=1, n_inliers=1, n_outliers=0, noise=-0.1),
        # a non-integer count or seed would fail only in generate, a bool
        # count or noise would run as 1
        dict(ambient_dim=10.5, subspace_dim=1, n_inliers=1, n_outliers=0),
        dict(ambient_dim=3, subspace_dim=1, n_inliers=2.5, n_outliers=0),
        dict(ambient_dim=3, subspace_dim=1, n_inliers=1, n_outliers=0, seed=1.5),
        dict(ambient_dim=3, subspace_dim=True, n_inliers=1, n_outliers=0),
        dict(ambient_dim=3, subspace_dim=1, n_inliers=1, n_outliers=0, noise=True),
        dict(ambient_dim=3, subspace_dim=1, n_inliers=1, n_outliers=0, noise="0.1"),
        dict(ambient_dim=3, subspace_dim=1, n_inliers=1, n_outliers=0, seed=-1),
        # any truthy rotate would rotate
        dict(ambient_dim=4, subspace_dim=2, n_inliers=5, n_outliers=5, rotate="no"),
        dict(ambient_dim=4, subspace_dim=2, n_inliers=5, n_outliers=5, rotate=1),
        dict(ambient_dim=4, subspace_dim=2, n_inliers=5, n_outliers=5, rotate=None),
    ],
)
def test_model_validation(kwargs):
    with pytest.raises(ValueError):
        SyntheticModel(**kwargs)


# --------------------------------------------------- projection onto the sphere


def test_spherical_projection_leaves_the_update_alone():
    rng = np.random.default_rng(61)
    points = rng.standard_normal((30, 4))
    sigma = np.eye(4) / 4
    base = fixed_point_step(sigma, points)
    projected = fixed_point_step(sigma, points / np.linalg.norm(points, axis=1)[:, None])
    assert np.linalg.norm(base - projected) < 1e-12


def test_spherical_projection_shifts_cost_by_data_constant():
    # the cost is not literally invariant: projecting moves it by a
    # constant that depends only on the point norms, never on sigma
    rng = np.random.default_rng(62)
    points = rng.standard_normal((25, 3))
    sigma = np.eye(3) / 3
    norms = np.linalg.norm(points, axis=1)
    shift = 2.0 * np.mean(np.log(norms))
    diff = objective(sigma, points / norms[:, None]) - objective(sigma, points)
    assert abs(diff + shift) < 1e-12


# ----------------------------------------------------- general position check


def test_general_position_scalar_projections():
    points = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0]])
    truth = Subspace([[1.0], [0.0]])
    assert general_position_check(points, truth)


def test_general_position_rejects_duplicate_outliers():
    truth = Subspace([[1.0], [0.0], [0.0]])
    points = np.array(
        [[1.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 1.0, 2.0]]
    )
    assert not general_position_check(points, truth)
    with pytest.raises(ValueError, match="points live in dimension 2, subspace in 3"):
        general_position_check(points[:, :2], truth)
    # None would draw from fresh entropy, so a randomized check would not repeat
    for bad, message in [
        (None, "seed must be an integer"),
        (2.5, "seed must be an integer"),
        (True, "seed must be an integer"),
        (-1, "seed must be at least 0"),
    ]:
        with pytest.raises(ValueError, match=message):
            general_position_check(points, truth, seed=bad)


def test_general_position_prepares_the_data_once(monkeypatch):
    # the member mask is taken on the rows the check has already scaled
    calls = []

    def counted(data):
        calls.append(1)
        return estimator._prepare(data)

    for module in (synthetic, subspace):
        monkeypatch.setattr(module, "_prepare", counted)
    points, truth = generate(SyntheticModel(4, 2, 6, 4, seed=3))
    points[0] *= 1e-200
    assert general_position_check(points, truth)
    assert len(calls) == 1


def test_general_position_on_generated_data():
    model = SyntheticModel(
        ambient_dim=10, subspace_dim=5, n_inliers=20, n_outliers=20, seed=7
    )
    points, truth = generate(model)
    assert general_position_check(points, truth)
    # a row 1e-200 times smaller has the same direction; unscaled, its
    # coordinates would fail the rank test of every subset holding it
    points, truth = generate(SyntheticModel(4, 2, 6, 4, seed=3))
    assert general_position_check(points, truth)
    points[0] *= 1e-200
    assert general_position_check(points, truth)
