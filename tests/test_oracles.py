"""Certificate checks: subset enumeration, both conditions, the descent gap."""

import warnings

import numpy as np
import pytest
from reference import (
    pointwise_gap,
    random_points,
    random_spd,
    subset_loop_uniqueness,
    subset_loop_violations,
)

from subrec.estimator import NotSPDError, fixed_point_step, objective, quadratic_forms
from subrec.oracles import (
    _CHUNK,
    EXHAUSTIVE_LIMIT,
    RANDOM_SUBSETS,
    iter_subsets,
    majorization_gap,
    recovery_condition,
    uniqueness_condition,
)
from subrec.subspace import Subspace, subspace_members
from subrec.synthetic import SyntheticModel, generate

COLLINEAR = np.array(
    [[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [0.3, 1.0], [-0.2, 1.0]]
)
E1 = Subspace([[1.0], [0.0]])
EXTREME_SCALES = (1e160, 1e-170)


def assert_same_report(report, expected):
    """Equal verdicts and counts, and a witness basis equal bit for bit."""
    assert (report.holds, report.method, report.fraction) == (
        expected.holds, expected.method, expected.fraction
    )
    assert (report.threshold, report.member_count) == (
        expected.threshold, expected.member_count
    )
    if expected.witness is None:
        assert report.witness is None
    else:
        assert report.witness.basis.shape == expected.witness.basis.shape
        assert report.witness.basis.tobytes() == expected.witness.basis.tobytes()


# ------------------------------------------------------------ subset iterator


def test_iter_subsets_exhaustive():
    method, subsets = iter_subsets(5, [1, 2])
    listed = list(subsets)
    assert method == "exhaustive"
    assert len(listed) == 5 + 10
    assert listed[:5] == [(0,), (1,), (2,), (3,), (4,)]
    assert len(set(listed)) == len(listed)


def test_iter_subsets_filters_impossible_sizes():
    method, subsets = iter_subsets(3, [0, 5, 2])
    assert method == "exhaustive"
    assert list(subsets) == [(0, 1), (0, 2), (1, 2)]


def test_iter_subsets_empty():
    method, subsets = iter_subsets(3, [])
    assert method == "exhaustive"
    assert list(subsets) == []


def test_iter_subsets_randomized():
    # comb(30, 15) is far past the exhaustive budget
    assert 30 * 29 * 28 * 27 > EXHAUSTIVE_LIMIT
    method, subsets = iter_subsets(30, [15], rng=np.random.default_rng(0))
    listed = list(subsets)
    assert method == "randomized"
    assert len(listed) == RANDOM_SUBSETS
    for idx in listed[:50]:
        assert len(idx) == 15
        assert len(set(idx)) == 15
        assert all(0 <= i < 30 for i in idx)


def test_iter_subsets_randomized_repeats_per_seed():
    # the sample is a function of the seed alone, drawn chunk by chunk
    def draw(seed):
        return list(iter_subsets(90, range(1, 4), rng=np.random.default_rng(seed))[1])

    first = draw(7)
    assert len(first) == RANDOM_SUBSETS
    assert draw(7) == first
    assert draw(8) != first
    for idx in first:
        assert 1 <= len(idx) <= 3
        assert len(set(idx)) == len(idx)
        assert all(type(i) is int and 0 <= i < 90 for i in idx)


def test_iter_subsets_randomized_is_uniform():
    # bounds fixed before the run, each about five standard deviations:
    # 10 000 draws over three sizes give counts of mean 3 333 and sd 47;
    # the sizes sum to 20 000 with sd 82; each of 90 indices is in a
    # size-k subset with probability k/90, so about 222 times, sd 15
    method, subsets = iter_subsets(90, [1, 2, 3], rng=np.random.default_rng(11))
    assert method == "randomized"
    listed = list(subsets)
    sizes = np.bincount([len(idx) for idx in listed], minlength=4)[1:]
    assert np.all(np.abs(sizes - RANDOM_SUBSETS / 3) < 250)
    assert abs(sizes @ [1, 2, 3] - 2 * RANDOM_SUBSETS) < 400
    hits = np.bincount([i for idx in listed for i in idx], minlength=90)
    assert hits.shape == (90,)
    assert np.all(np.abs(hits - 2 * RANDOM_SUBSETS / 90) < 75)


def test_iter_subsets_randomized_needs_rng():
    with pytest.raises(ValueError, match="rng"):
        iter_subsets(30, [15])


# ------------------------------------------------------- uniqueness condition


def test_uniqueness_fails_on_two_axis_points():
    # each point alone sits on a line holding exactly its 1/2 share
    points = np.array([[1.0, 0.0], [0.0, 1.0]])
    report = uniqueness_condition(points)
    assert not report.holds
    assert report.method == "exhaustive"
    assert report.fraction == 0.5
    assert report.threshold == 0.5
    assert report.member_count == 1
    # the witness is independently recheckable
    recount = int(np.count_nonzero(subspace_members(points, report.witness)))
    assert recount == report.member_count


def test_uniqueness_holds_with_a_third_direction():
    points = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    report = uniqueness_condition(points)
    assert report.holds
    assert report.method == "exhaustive"
    assert report.witness is None


def test_uniqueness_witnesses_a_heavy_line():
    # the verdict does not depend on the data's scale
    for scale in (1.0,) + EXTREME_SCALES:
        report = uniqueness_condition(COLLINEAR * scale)
        assert not report.holds
        assert report.fraction == 0.6
        assert report.threshold == 0.5
        assert report.member_count == 3
        basis = report.witness.basis
        assert basis.shape == (2, 1)
        assert abs(abs(basis[0, 0]) - 1.0) < 1e-12
        assert abs(basis[1, 0]) < 1e-12


def test_uniqueness_randomized_on_larger_set():
    # 20 points in 8 dimensions: subset count overflows the exhaustive
    # budget, so the check switches to sampling
    points = np.random.default_rng(5).standard_normal((20, 8))
    report = uniqueness_condition(points, seed=1)
    assert report.method == "randomized"
    assert report.holds
    # None would draw from fresh entropy, so the check would not repeat
    for bad, message in [
        (None, "seed must be an integer"),
        (2.5, "seed must be an integer"),
        (True, "seed must be an integer"),
        (-1, "seed must be at least 0"),
    ]:
        with pytest.raises(ValueError, match=message):
            uniqueness_condition(points, seed=bad)


def test_uniqueness_matches_subset_loop_on_seeded_sets():
    # (D, N) gaussian sets: exhaustive ones whose chunks cross from one
    # subset size to the next, and one randomized set, whose chunks mix
    # sizes throughout; then recovery sets, which violate the condition
    for i, (dim, n) in enumerate([(2, 8), (3, 11), (4, 14), (5, 12), (4, 90)]):
        points = np.random.default_rng(400 + i).standard_normal((n, dim))
        expected = subset_loop_uniqueness(points, seed=i)
        assert expected.holds
        assert_same_report(uniqueness_condition(points, seed=i), expected)
    for seed in range(6):
        points, _ = generate(SyntheticModel(4, 2, 6, 4, seed=seed, rotate=True))
        expected = subset_loop_uniqueness(points, seed=seed)
        assert not expected.holds
        assert_same_report(uniqueness_condition(points, seed=seed), expected)


def test_uniqueness_matches_subset_loop_on_rank_deficient_subsets():
    # duplicated and collinear points give subsets whose rank is below
    # their size.  In the first set no line holds more than 2 of the 12
    # points, no plane 4, no hyperplane 6, so it holds; in the second
    # the plane of a and b holds 6 points, its 2/4 share, and the first
    # violator is the pair (6, 8), right after the rank-1 duplicate pair
    rng = np.random.default_rng(410)
    base = rng.standard_normal((8, 4))
    holding = np.vstack([base, base[:2], 2.0 * base[2:4]])
    a, b = base[:2]
    plane = np.vstack([base[2:], a, a, b, 2.0 * b, a + b, a - b])
    for points, holds in ((holding, True), (plane, False)):
        expected = subset_loop_uniqueness(points)
        assert expected.holds is holds
        assert_same_report(uniqueness_condition(points), expected)
    assert expected.member_count == 6 and expected.witness.dim == 2


def test_uniqueness_finds_a_violator_past_the_first_chunk():
    # 18 of 24 points on a hyperplane of R^4 reach its 3/4 share; no line
    # or plane holds its share, so the first violator is the first
    # 3-subset, after all 24 + 276 smaller subsets
    rng = np.random.default_rng(420)
    points = rng.standard_normal((24, 4))
    points[:18, 3] = 0.0
    position, expected = next(subset_loop_violations(points)[1])
    assert position == 300 > _CHUNK
    assert expected.member_count == 18
    assert_same_report(uniqueness_condition(points), expected)


def test_uniqueness_picks_the_earliest_of_two_rank_groups():
    # a line holding 23 of 90 points inside a hyperplane holding 68:
    # spans of rank 1 and of rank 3 both violate, and the sampled order
    # puts one or the other first within the first chunk.  With seed 8
    # the first violator is two points of the line, a 2-subset of rank 1.
    # The seeds were found by a search over the sampled stream; a change
    # to the sampling needs a new search
    rng = np.random.default_rng(0)
    points = np.vstack([
        np.outer(rng.uniform(0.5, 2.0, 23), [1.0, 0.0, 0.0, 0.0]),
        np.hstack([rng.standard_normal((45, 3)), np.zeros((45, 1))]),
        rng.standard_normal((22, 4)),
    ])
    for seed, first_dim in ((0, 3), (3, 1), (8, 1)):
        method, violations = subset_loop_violations(points, seed)
        assert method == "randomized"
        in_chunk = []
        for position, report in violations:
            if position >= _CHUNK:
                break
            in_chunk.append(report)
        assert in_chunk[0].witness.dim == first_dim
        assert {report.witness.dim for report in in_chunk} == {1, 3}
        assert_same_report(uniqueness_condition(points, seed=seed), in_chunk[0])


# --------------------------------------------------------- recovery condition


def test_recovery_holds_for_collinear_majority():
    # the squared norms would underflow or overflow at the extreme scales
    sets = [COLLINEAR * scale for scale in (1.0, *EXTREME_SCALES)]
    # one row far below the unit rows still counts by its direction
    sets.append(COLLINEAR * np.array([[1e-170], [1.0], [1.0], [1.0], [1.0]]))
    for data in sets:
        report = recovery_condition(data, E1)
        assert report.holds
        assert report.fraction == 0.6
        assert report.threshold == 0.5
        assert report.member_count == 3
        assert report.witness is E1


def test_recovery_fails_below_the_ratio():
    model = SyntheticModel(
        ambient_dim=10, subspace_dim=5, n_inliers=80, n_outliers=100, seed=0
    )
    points, truth = generate(model)
    report = recovery_condition(points, truth)
    assert not report.holds
    assert report.member_count == 80
    assert abs(report.fraction - 80 / 180) < 1e-15


def test_recovery_holds_above_the_ratio():
    model = SyntheticModel(
        ambient_dim=10, subspace_dim=5, n_inliers=120, n_outliers=100, seed=0
    )
    points, truth = generate(model)
    report = recovery_condition(points, truth)
    assert report.holds
    assert report.member_count == 120
    assert abs(report.fraction - 120 / 220) < 1e-15


def test_recovery_boundary_is_not_enough():
    # exactly half the points on a line in the plane: the inequality is
    # strict, so this does not certify recovery
    points = np.array([[1.0, 0.0], [2.0, 0.0], [0.4, 1.0], [1.0, -1.0]])
    report = recovery_condition(points, E1)
    assert not report.holds
    assert report.fraction == 0.5
    assert report.threshold == 0.5


def test_recovery_rejects_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension"):
        recovery_condition(np.eye(3), E1)


# ------------------------------------------------------------ majorization gap


def test_gap_vanishes_at_the_anchor():
    rng = np.random.default_rng(70)
    for _ in range(10):
        sigma = random_spd(rng, 3)
        data = random_points(rng, 12, 3)
        for scale in (1.0,) + EXTREME_SCALES:
            assert abs(majorization_gap(sigma, sigma, data * scale)) < 1e-10


def test_gap_is_nonnegative():
    rng = np.random.default_rng(71)
    for _ in range(100):
        dim = int(rng.integers(2, 5))
        sigma = random_spd(rng, dim)
        anchor = random_spd(rng, dim)
        data = random_points(rng, 4 * dim, dim)
        assert majorization_gap(sigma, anchor, data) >= -1e-30
    # pairs near an iterate, where a difference of two O(1) costs would
    # cancel to rounding noise of either sign; every per-point term is
    # nonnegative, and -1e-30 leaves room for one rounding of log near 1
    for _ in range(25):
        for dim in range(2, 6):
            data = random_points(rng, 4 * dim, dim)
            anchor = np.eye(dim) / dim
            for _ in range(3):
                anchor = fixed_point_step(anchor, data)
            for eps in (1e-6, 1e-8, 1e-10):
                p = rng.standard_normal((dim, dim))
                sigma = anchor + eps * (p + p.T) * anchor.diagonal().min()
                assert majorization_gap(sigma, anchor, data) >= -1e-30


def test_gap_matches_pointwise_route():
    rng = np.random.default_rng(72)
    for _ in range(25):
        dim = int(rng.integers(2, 5))
        sigma = random_spd(rng, dim)
        anchor = random_spd(rng, dim)
        data = random_points(rng, 4 * dim, dim)
        via_points = pointwise_gap(sigma, anchor, data)
        # the gap does not depend on the data's scale
        for scale in (1.0,) + EXTREME_SCALES:
            via_surrogate = majorization_gap(sigma, anchor, data * scale)
            assert abs(via_surrogate - via_points) < 1e-10 * max(1.0, abs(via_points))


def test_gap_bounds_the_descent_of_one_update():
    # the surrogate anchored at the current iterate is minimized by the
    # weighted moment scaled to match the cost's normalization, and the
    # update is that matrix renormalized to unit trace.  The cost is
    # scale independent while the surrogate is not, so the descent
    # bound reads off the gap at the minimizer's own scale.
    rng = np.random.default_rng(73)
    for _ in range(20):
        dim = int(rng.integers(2, 5))
        anchor = random_spd(rng, dim)
        data = random_points(rng, 5 * dim, dim)
        q = quadratic_forms(anchor, data)
        moment = (data / q[:, None]).T @ data / data.shape[0]
        minimizer = dim * (moment + moment.T) / 2.0
        new = fixed_point_step(anchor, data)
        assert np.linalg.norm(minimizer / np.trace(minimizer) - new) < 1e-12
        drop = objective(anchor, data) - objective(new, data)
        gap = majorization_gap(minimizer, anchor, data)
        assert gap >= -1e-10
        assert drop >= gap - 1e-10
    # the identity and its first update on a small recovery set, whose
    # forms overflow or underflow at the extreme scales
    points, _ = generate(SyntheticModel(4, 2, 6, 4, seed=0))
    anchor = np.eye(4) / 4
    new = fixed_point_step(anchor, points)
    gap = majorization_gap(new, anchor, points)
    assert gap > 0.0
    for scale in EXTREME_SCALES:
        assert abs(majorization_gap(new, anchor, points * scale) - gap) < 1e-14


@pytest.mark.parametrize("dim, n", [(2, 5), (3, 11), (4, 13), (4, 90), (5, 12), (8, 40)])
def test_gap_repeats_bit_for_bit_at_power_of_two_scales(dim, n):
    # data times 2**600 or 2**-600 takes the whole-array shift, which
    # scales both forms of every point by one exact power of four and
    # leaves every ratio, and so the gap, unchanged in every bit
    rng = np.random.default_rng(700 + dim * n)
    data = random_points(rng, n, dim)
    anchor = np.eye(dim) / dim
    pairs = [(fixed_point_step(anchor, data), anchor), (random_spd(rng, dim), random_spd(rng, dim))]
    for sigma, anchor in pairs + [(anchor, pairs[0][0])]:
        expected = majorization_gap(sigma, anchor, data)
        for k in (600, -600):
            assert majorization_gap(sigma, anchor, data * 2.0**k) == expected


def test_gap_rejects_singular_anchor():
    anchor = np.diag([1.0, 1e-320])
    data = np.array([[0.0, 1.0]])
    with pytest.raises(ValueError, match="singular"):
        majorization_gap(np.eye(2) / 2, anchor, data)


def test_gap_rejects_a_mean_that_overflows():
    # an anchor near the largest double makes three forms about 1e-154,
    # three ratios about 8e307 and their sum overflows: rejected, and
    # without a warning
    anchor = np.diag([8e307, 1.0])
    data = [[1e77, 0.0], [1e77, 0.0], [1e77, 0.0], [0.0, 1.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="gap is not finite"):
            majorization_gap(np.eye(2), anchor, data)


def test_gap_propagates_bad_sigma():
    data = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(NotSPDError):
        majorization_gap(np.diag([1.0, -1.0]), np.eye(2) / 2, data)
