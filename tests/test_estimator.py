"""Estimator tests: hand examples, dual-route oracles, solver behavior."""

import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import subrec.estimator
from reference import (
    geometric_mean,
    inv_estimate,
    inv_objective,
    inv_quadratic_forms,
    inv_step,
    longdouble_quadratic_forms,
    per_row_prepared,
    random_points,
    random_spd,
)
from subrec.estimator import (
    SPD_RTOL,
    BreakdownError,
    EstimatorConfig,
    NotSPDError,
    Termination,
    _validate,
    ensure_symmetric,
    estimate,
    fixed_point_step,
    objective,
    quadratic_forms,
)
from subrec.experiments import exact_recovery_sweep
from subrec.oracles import majorization_gap
from subrec.subspace import Subspace, recovery_error, span_of_points, top_d_subspace
from subrec.synthetic import SyntheticModel, generate

# three collinear inliers on span{e1} plus two outliers: inlier
# fraction 3/5 is above the 1/2 transition, so the iterates collapse
# onto the line
COLLINEAR = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [0.3, 1.0], [-0.2, 1.0]])
# two collinear points plus three generic ones: fraction 2/5 is below
# the transition and the minimizer is an interior SPD matrix
INTERIOR = np.array([[1.0, 0.0], [2.0, 0.0], [0.3, 1.0], [-0.2, 1.0], [0.7, -0.6]])
THREE_POINTS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

# rows per block of the solver's pass over the data
_BLOCK = subrec.estimator._BLOCK

E1 = Subspace([[1.0], [0.0]])


def standard_basis(dim):
    return np.eye(dim)


def one_pass(inverse, points, moment):
    """The solver's pass over ``points`` with fresh forms, block and ones arrays."""
    return subrec.estimator._pass(
        inverse, points, moment, *subrec.estimator._scratch(*points.shape)
    )


def observed(data, config=None):
    """``(result, records)``: an estimate and the records its observer received."""
    records = []
    result = estimate(data, config, observer=lambda sigma, rec: records.append(rec))
    return result, records


# ---------------------------------------------------------------- data intake


def test_check_points_accepts_lists():
    out = _validate([[1, 2], [3, 4]])[0]
    assert out.dtype == float and out.shape == (2, 2)


@pytest.mark.parametrize(
    "bad, match",
    [
        (np.ones(3), "2-d"),
        (np.empty((0, 2)), "at least one point"),
        (np.array([[1.0, np.inf]]), "non-finite"),
        (np.array([[1.0, 1.0], [0.0, 0.0]]), "zero point at row 1"),
        # row 0's squares underflow, but only row 1 is zero
        (np.array([[1e-170, -1e-170], [0.0, -0.0]]), "zero point at row 1"),
        # the only defect is a -inf, which the largest entry does not show
        (np.array([[1.0, 2.0], [-np.inf, 0.5]]), "non-finite"),
        # a zero row and a NaN: the NaN is reported, as it always was
        (np.array([[0.0, 0.0], [1.0, np.nan]]), "non-finite"),
        (np.array([[1.0, np.nan], [0.0, 0.0]]), "non-finite"),
        # a cast to float would keep the real part alone
        (np.ones((4, 2)) + 1j, "must be real, got complex128"),
        ([[1.0, 2.0], [3.0, 1j]], "must be real"),
    ],
)
def test_check_points_rejects(bad, match):
    with pytest.raises(ValueError, match=match):
        _validate(bad)[0]
    # every entry point validates the same way
    with pytest.raises(ValueError, match=match):
        estimate(bad)


@pytest.mark.parametrize("scale", [1e-200, 1.0, 1e200])
def test_check_points_returns_the_data_unscaled(scale):
    # the solver rescales extreme data internally; _validate does not
    data = random_points(np.random.default_rng(32), 9, 3) * scale
    out = _validate(data)[0]
    assert out.tobytes() == data.tobytes()
    assert _validate(data.tolist())[0].tobytes() == data.tobytes()


def test_check_points_makes_no_copy_of_extreme_data():
    # the validation ends before the scaling: at a scale that _prepare
    # rescales, _validate still allocates no (N, D) array
    data = random_points(np.random.default_rng(34), 4000, 50) * 1e200
    tracemalloc.start()
    try:
        out = _validate(data)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out is data
    assert peak < data.nbytes / 2


def _prepare_cases():
    rng = np.random.default_rng(33)
    unit = random_points(rng, 13, 4)
    cases = {f"scale-2^{e}": unit * 2.0**e for e in (0, 600, -600)}
    for factor in (1e-200, 1e-300):
        for e in (0, 600):
            data = unit * 2.0**e
            data[0] *= factor
            cases[f"row-{factor:g}-at-2^{e}"] = data
    data = unit.copy()
    data[0] = [5e-324, 0.0, -0.0, 0.0]
    cases["row-5e-324"] = data
    cases["rows-2^-1000-to-2^1000"] = np.ldexp(
        random_points(rng, 11, 3), np.arange(-1000, 1001, 200)[:, None]
    )
    cases["D-1"] = np.array([[3.0], [-1e-300], [5e-324], [2.0**-257], [1.5]])
    # squared norms one ulp either side of the bounds D * 2**-514 and
    # 2**512 at D = 2
    below = 2.0**-257 * (1.0 - 2.0**-53)
    cases["norm-below-low"] = np.array([[1.0, 2.0], [below, 2.0**-257]])
    cases["norm-above-low"] = np.array([[1.0, 2.0], [2.0**-257, 2.0**-257 * (1.0 + 2.0**-52)]])
    below = 2.0**256 * (1.0 - 2.0**-53)
    cases["norm-below-high"] = np.array([[1.0, 2.0], [below, math.sqrt(2.0**459)]])
    cases["norm-above-high"] = np.array([[1.0, 2.0], [below, math.sqrt(2.0**461)]])
    return cases


PREPARE_CASES = _prepare_cases()


@pytest.mark.parametrize("case", list(PREPARE_CASES))
def test_prepare_matches_the_per_row_rule(case):
    data = PREPARE_CASES[case]
    if case.startswith("norm-"):
        _, side, bound = case.split("-")
        bound = {"low": 2.0 * 2.0**-514, "high": 2.0**512}[bound]
        toward = {"below": 0.0, "above": math.inf}[side]
        assert np.einsum("ij,ij->i", data, data)[1] == np.nextafter(bound, toward)
    assert _validate(data)[0] is data
    prepared, offset = subrec.estimator._prepare(data)
    expected, expected_offset = per_row_prepared(data)
    assert prepared.tobytes() == expected.tobytes()
    assert offset.hex() == expected_offset.hex()
    # no copy when no row is scaled
    assert (prepared is data) == (expected.tobytes() == data.tobytes())


# ------------------------------------------------------------ ensure_symmetric


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


# a Hermitian matrix: a cast to float would keep its real part, I / 3, alone
COMPLEX_SIGMA = np.eye(3) / 3 + 0.1j * np.array([[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
REAL_SIGMA = np.eye(3) / 3
SPANNING_POINTS = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0]])


@pytest.mark.parametrize(
    "call, kind",
    [
        (lambda: objective(COMPLEX_SIGMA, SPANNING_POINTS), "matrix"),
        (lambda: fixed_point_step(COMPLEX_SIGMA, SPANNING_POINTS), "matrix"),
        (lambda: quadratic_forms(COMPLEX_SIGMA, SPANNING_POINTS), "matrix"),
        (lambda: majorization_gap(COMPLEX_SIGMA, REAL_SIGMA, SPANNING_POINTS), "matrix"),
        (lambda: majorization_gap(REAL_SIGMA, COMPLEX_SIGMA, SPANNING_POINTS), "matrix"),
        (lambda: top_d_subspace(COMPLEX_SIGMA, 1), "matrix"),
        (lambda: ensure_symmetric(COMPLEX_SIGMA), "matrix"),
        (lambda: Subspace(np.eye(3)[:, :2] + 0j), "basis"),
        (lambda: span_of_points(SPANNING_POINTS * 1j), "points"),
    ],
    ids=[
        "objective", "fixed_point_step", "quadratic_forms", "majorization_gap-sigma",
        "majorization_gap-anchor", "top_d_subspace", "ensure_symmetric", "Subspace",
        "span_of_points",
    ],
)
def test_complex_arrays_are_rejected_at_every_entry(call, kind):
    # one intake for every array argument, data, sigma, anchor, basis and points
    with pytest.raises(ValueError, match=f"^{kind} must be real, got complex128$"):
        call()


def test_ensure_symmetric_accepts_squares_that_overflow():
    # finite entries whose squares overflow are not "non-finite"; the
    # drift is checked on a power-of-two scaled copy, without a warning
    mat = np.array([[1e200, 3e199], [3e199 * (1 + 1e-15), 1e200]])
    out = ensure_symmetric(mat)
    assert out.tobytes() == ((mat + mat.T) / 2.0).tobytes()
    # mat + mat.T itself would overflow here
    huge = np.diag([1.7e308, 1.0])
    assert ensure_symmetric(huge).tobytes() == huge.tobytes()


# ------------------------------------------------------------------- objective


@pytest.mark.parametrize("dim", [2, 5, 8])
def test_objective_standard_basis_is_zero(dim):
    # each log term is log(D), the log-det term is -log(D)
    assert abs(objective(np.eye(dim) / dim, standard_basis(dim))) < 1e-12


def test_objective_hand_value():
    value = objective(np.diag([0.5, 0.5]), THREE_POINTS)
    assert abs(value - math.log(2.0) / 3.0) < 1e-14


def test_objective_scale_invariance():
    rng = np.random.default_rng(30)
    sigma = random_spd(rng, 4)
    data = random_points(rng, 20, 4)
    base = objective(sigma, data)
    for c in (1e-6, 1e-3, 1.0, 1e3, 1e6):
        assert abs(objective(c * sigma, data) - base) <= 1e-10
    # a sigma whose entries sum past the largest double is accepted too
    assert abs(objective(np.diag([1.7e308, 1.0]), np.eye(2))) <= 1e-12


def test_objective_matches_inverse_route():
    rng = np.random.default_rng(31)
    for _ in range(30):
        dim = int(rng.integers(2, 7))
        n = int(rng.integers(dim + 1, 40))
        sigma = random_spd(rng, dim)
        data = random_points(rng, n, dim)
        mine = objective(sigma, data)
        ref = inv_objective(sigma, data)
        assert abs(mine - ref) <= 1e-10 * max(1.0, abs(ref))


def test_objective_errors():
    data = np.array([[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(NotSPDError):
        objective(np.diag([1.0, 0.0]), data)
    with pytest.raises(ValueError, match="mismatch"):
        objective(np.eye(3), data)
    with pytest.raises(ValueError, match="zero point"):
        objective(np.eye(2), np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="not symmetric"):
        objective(np.array([[1.0, 0.4], [0.0, 1.0]]), data)


def test_quadratic_forms_match_inverse_route():
    rng = np.random.default_rng(32)
    sigma = random_spd(rng, 5)
    data = random_points(rng, 25, 5)
    mine = quadratic_forms(sigma, data)
    ref = inv_quadratic_forms(sigma, data)
    np.testing.assert_allclose(mine, ref, rtol=1e-10)
    assert np.all(mine > 0.0)


def test_quadratic_forms_accurate_at_ill_conditioned_sigma():
    # the forms go through an explicit inverse of the Cholesky factor;
    # near the singular limit of the iterates they must still match a
    # wider-precision forward substitution on that same factor, for
    # points inside the dominant eigenspace and for generic points
    rng = np.random.default_rng(36)
    dim = 10
    for _ in range(60):
        basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        spread = 10.0 ** rng.uniform(4.0, 14.0)
        sigma = (basis * np.geomspace(1.0 / spread, 1.0, dim)) @ basis.T
        sigma = (sigma + sigma.T) / 2.0
        top = int(rng.integers(1, dim))
        inside = rng.standard_normal((10, top)) @ basis[:, dim - top:].T
        data = np.vstack([inside, random_points(rng, 10, dim)])
        ref = longdouble_quadratic_forms(scipy.linalg.cholesky(sigma, lower=True), data)
        rel = np.abs(quadratic_forms(sigma, data) - ref) / ref
        assert float(rel.max()) <= 1e-12


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
@pytest.mark.parametrize("n, dim", [(1, 1), (1, 4), (5, 1), (7, 3), (3_000, 60)])
def test_quadratic_forms_on_edge_shapes(n, dim, layout):
    # the column sums are a BLAS matrix-vector product, whose wrapper
    # reads shapes wrong most easily where an axis has length 1
    rng = np.random.default_rng(40)
    sigma = random_spd(rng, dim)
    data = random_points(rng, n, dim)
    if layout == "F":
        data = np.asfortranarray(data)
    elif layout == "strided":
        wide = np.zeros((2 * n, 3 * dim))
        wide[::2, ::3] = data
        data = wide[::2, ::3]
    ref = longdouble_quadratic_forms(scipy.linalg.cholesky(sigma, lower=True), data)
    mine = quadratic_forms(sigma, data)
    assert mine.shape == (n,)
    assert float((np.abs(mine - ref) / ref).max()) <= 1e-12


# ------------------------------------------------------------ fixed_point_step


@pytest.mark.parametrize("dim", [2, 4, 6])
def test_step_standard_basis_fixed_point(dim):
    out = fixed_point_step(np.eye(dim) / dim, standard_basis(dim))
    np.testing.assert_allclose(out, np.eye(dim) / dim, atol=1e-15)


def test_step_hand_value():
    # weights 2, 2, 4 give the weighted sum [[3/4, 1/4], [1/4, 3/4]],
    # whose trace-normalized form is [[1/2, 1/6], [1/6, 1/2]]
    out = fixed_point_step(np.eye(2) / 2, THREE_POINTS)
    np.testing.assert_allclose(out, [[0.5, 1 / 6], [1 / 6, 0.5]], atol=1e-14)


def test_step_point_magnitude_cancels():
    doubled = THREE_POINTS.copy()
    doubled[2] = [2.0, 2.0]
    base = fixed_point_step(np.eye(2) / 2, THREE_POINTS)
    moved = fixed_point_step(np.eye(2) / 2, doubled)
    assert np.linalg.norm(base - moved) < 1e-12


def test_step_output_contract():
    rng = np.random.default_rng(33)
    for _ in range(100):
        dim = int(rng.integers(2, 6))
        sigma = random_spd(rng, dim)
        sigma = sigma / np.trace(sigma)
        data = random_points(rng, int(rng.integers(dim + 1, 30)), dim)
        out = fixed_point_step(sigma, data)
        assert np.array_equal(out, out.T)
        assert abs(np.trace(out) - 1.0) <= 1e-12
        assert np.all(np.linalg.eigvalsh(out) > 0.0)
        # monotone descent, the core property of the update
        assert objective(out, data) <= objective(sigma, data) + 1e-12


@pytest.mark.parametrize(
    "n, dim",
    [(5, 1), (3, 2), (220, 10), (3000, 60), (4, 6), (_BLOCK + 1, 3), (2 * _BLOCK + 3, 20)],
)
def test_step_is_bit_symmetric_with_unit_trace(n, dim):
    # the moment is built from one triangle, summed over row blocks, and
    # mirrored; with fewer points than dimensions the step is singular but
    # still returned
    rng = np.random.default_rng(37)
    for _ in range(5):
        sigma = random_spd(rng, dim)
        out = fixed_point_step(sigma, random_points(rng, n, dim))
        assert np.array_equal(out, out.T)
        assert abs(np.trace(out) - 1.0) <= 1e-15
        assert np.linalg.matrix_rank(out) == min(n, dim)


@pytest.mark.parametrize("n", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3])
@pytest.mark.parametrize("dim", [1, 3, 20])
def test_blocked_pass_matches_one_block(monkeypatch, n, dim):
    # the pass walks the rows in blocks of _BLOCK; each block's forms are
    # those of a one-block pass over its rows alone, and the moment, summed
    # block by block, is the one-block moment up to rounding
    rng = np.random.default_rng(n + dim)
    points = random_points(rng, n, dim)
    _, inverse = subrec.estimator._cholesky(random_spd(rng, dim))
    q, step = one_pass(inverse, points, True)
    assert np.array_equal(step, step.T)
    assert abs(np.trace(step) - 1.0) <= 1e-15
    parts = [one_pass(inverse, points[i : i + _BLOCK], False)[0] for i in range(0, n, _BLOCK)]
    assert np.array_equal(q, np.concatenate(parts))
    monkeypatch.setattr(subrec.estimator, "_BLOCK", n)
    q_one, step_one = one_pass(inverse, points, True)
    # OpenBLAS's dtrmm may round the last columns of a call, or of one
    # thread's share of it, in another order, so a form can differ from
    # the one-block form in its last bit
    assert np.all(np.abs(q - q_one) <= 4 * np.finfo(float).eps * q_one)
    assert np.abs(step - step_one).max() <= 1e-14 * np.abs(step_one).max()


@pytest.mark.parametrize("n, dim", [(7, 3), (2 * _BLOCK + 3, 20)])
def test_pass_reuses_its_arrays_bit_for_bit(n, dim):
    # estimate hands every pass one forms array, one block scratch and one
    # vector of ones; what an earlier pass left in them changes no bit of
    # the next pass
    rng = np.random.default_rng(n * dim)
    points = random_points(rng, n, dim)
    _, inverse = subrec.estimator._cholesky(random_spd(rng, dim))
    fresh_q, fresh_step = one_pass(inverse, points, True)
    forms, scratch, ones = subrec.estimator._scratch(n, dim)
    assert scratch.shape == (dim, min(n, _BLOCK)) and scratch.flags.f_contiguous
    scratch.fill(np.nan)
    _, other = subrec.estimator._cholesky(random_spd(rng, dim))
    subrec.estimator._pass(other, points, True, forms, scratch, ones)
    q, step = subrec.estimator._pass(inverse, points, True, forms, scratch, ones)
    assert q is forms and ones.tobytes() == np.ones(dim).tobytes()
    assert q.tobytes() == fresh_q.tobytes() and step.tobytes() == fresh_step.tobytes()
    assert not np.shares_memory(step, scratch)


def test_step_matches_inverse_route():
    rng = np.random.default_rng(34)
    for _ in range(20):
        dim = int(rng.integers(2, 6))
        sigma = random_spd(rng, dim)
        data = random_points(rng, 20, dim)
        np.testing.assert_allclose(
            fixed_point_step(sigma, data), inv_step(sigma, data), atol=1e-12
        )


def test_step_errors():
    with pytest.raises(NotSPDError):
        fixed_point_step(np.diag([1.0, -1.0]), THREE_POINTS[:, :2])
    # a subnormal eigenvalue passes the factorization but overflows the
    # quadratic form, the floating-point signature of the singular limit
    with pytest.raises(BreakdownError):
        fixed_point_step(np.diag([1.0, 1e-320]), np.array([[0.0, 1.0]]))


def test_permutation_invariance():
    rng = np.random.default_rng(35)
    data = random_points(rng, 15, 3)
    sigma = random_spd(rng, 3)
    perm = rng.permutation(15)
    assert objective(sigma, data) == objective(sigma, data[perm])
    diff = fixed_point_step(sigma, data) - fixed_point_step(sigma, data[perm])
    assert np.linalg.norm(diff) < 1e-12


# -------------------------------------------------------------------- estimate


def test_estimate_standard_basis_one_step():
    result, records = observed(standard_basis(4))
    assert result.termination == Termination.CONVERGED
    assert result.iterations == 1
    np.testing.assert_allclose(result.sigma, np.eye(4) / 4, atol=1e-15)
    assert records[0].rel_step == 0.0


def test_estimate_collinear_recovers_the_line():
    result = estimate(COLLINEAR)
    assert result.termination == Termination.CONVERGED
    assert result.iterations < 100
    found = top_d_subspace(result.sigma, 1)
    assert recovery_error(found, E1) < 1e-6
    # the limit matrix is diag(1, 0)
    assert abs(result.sigma[0, 0] - 1.0) < 1e-5
    assert abs(result.sigma[1, 1]) < 1e-5


def test_estimate_interior_fixed_point():
    result = estimate(INTERIOR)
    assert result.termination == Termination.CONVERGED
    assert np.linalg.eigvalsh(result.sigma)[0] > 1e-4
    residual = np.linalg.norm(fixed_point_step(result.sigma, INTERIOR) - result.sigma)
    assert residual < 10 * EstimatorConfig().tol


def test_estimate_matches_reference_loop():
    rng = np.random.default_rng(36)
    for _ in range(5):
        data = random_points(rng, 20, 3)
        mine = estimate(data).sigma
        ref = inv_estimate(data)
        assert np.linalg.norm(mine - ref) < 1e-7


def test_estimate_is_the_public_step_over_several_blocks():
    # with more rows than a block the loop and fixed_point_step run the
    # same pass: the first iterate is the public step from I/D, and every
    # iterate an observer keeps is its own array, never written again
    dim = 20
    data, _ = generate(SyntheticModel(dim, 4, _BLOCK, _BLOCK + 3, seed=5, rotate=True))
    start = np.eye(dim) / dim
    assert np.array_equal(
        estimate(data, EstimatorConfig(max_iter=1)).sigma, fixed_point_step(start, data)
    )
    kept = []
    result = estimate(data, observer=lambda sigma, record: kept.append((sigma, sigma.copy())))
    assert len(kept) == result.iterations > 1
    assert kept[-1][0] is result.sigma
    for i, (sigma, snapshot) in enumerate(kept):
        assert np.array_equal(sigma, snapshot)
        assert not any(np.shares_memory(sigma, later) for later, _ in kept[i + 1 :])
    for (before, _), (after, _) in zip(kept, kept[1:]):
        assert np.array_equal(after, fixed_point_step(before, data))


def test_estimate_trace_invariants():
    rng = np.random.default_rng(37)
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        data = random_points(rng, int(rng.integers(3 * dim, 40)), dim)
        seen = []
        result = estimate(data, observer=lambda sigma, rec: seen.append((sigma, rec)))
        iterates = [np.eye(dim) / dim] + [sigma for sigma, _ in seen]
        records = [rec for _, rec in seen]
        assert [rec.k for rec in records] == list(range(1, result.iterations + 1))
        assert len(iterates) == result.iterations + 1
        np.testing.assert_allclose(iterates[-1], result.sigma)
        costs = [rec.objective for rec in records]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
        # the loop's cost and objective() share the factorization but
        # sum the logs differently (np.mean against fsum)
        for rec in records:
            assert abs(rec.objective - objective(iterates[rec.k], data)) <= 1e-12
        for it in iterates[1:]:
            assert abs(np.trace(it) - 1.0) <= 1e-12
        # the loop is the public step, bit for bit
        for before, after in zip(iterates, iterates[1:]):
            assert np.array_equal(after, fixed_point_step(before, data))
        if result.termination == Termination.CONVERGED:
            assert records[-1].rel_step < EstimatorConfig().tol
        # observing a run changes nothing about it, and its records repeat
        plain = estimate(data)
        assert np.array_equal(plain.sigma, result.sigma)
        assert observed(data)[1] == records
        assert plain.termination == result.termination
        assert plain.iterations == result.iterations


def test_estimate_without_an_observer_builds_no_record(monkeypatch):
    real = subrec.estimator.IterationRecord
    built = []

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(subrec.estimator, "IterationRecord", counted)
    result = estimate(INTERIOR)
    assert result.iterations > 1
    assert built == []
    _, records = observed(INTERIOR)
    assert len(built) == len(records) == result.iterations


def test_estimate_fixed_point_residual_and_identity():
    """At convergence the update is a fixed point and sigma^-1 times the
    weighted scatter is proportional to the identity."""
    result = estimate(INTERIOR)
    sigma = result.sigma
    q = quadratic_forms(sigma, INTERIOR)
    weighted = (INTERIOR / q[:, None]).T @ INTERIOR
    assert np.linalg.norm(fixed_point_step(sigma, INTERIOR) - sigma) < 1e-7
    ratio = np.linalg.solve(sigma, weighted)
    c = np.trace(ratio) / 2.0
    assert np.linalg.norm(ratio - c * np.eye(2)) <= 1e-6 * abs(c) * math.sqrt(2.0)


def test_estimate_does_not_mutate_input():
    rng = np.random.default_rng(38)
    data = random_points(rng, 12, 3)
    copy = data.copy()
    estimate(data)
    assert np.array_equal(data, copy)


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_estimate_at_extreme_scales(scale):
    # unscaled, the quadratic forms at I/D overflow at 1e160 and the
    # squares of every entry underflow at 1e-170
    points, truth = generate(SyntheticModel(10, 5, 120, 100, seed=0))
    dim = points.shape[1]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result, records = observed(points * scale)
        assert result.termination == Termination.CONVERGED
        assert recovery_error(top_d_subspace(result.sigma, 5), truth) <= 1e-6
        # a power of two changes no iterate and no step
        exact = 2.0 ** round(math.log2(scale))
        assert np.array_equal(estimate(points * exact).sigma, estimate(points).sigma)
        start = np.eye(dim) / dim
        assert np.array_equal(
            fixed_point_step(start, points * exact), fixed_point_step(start, points)
        )
        # scaling the data by s shifts the cost by exactly 2 log s, and
        # the records report the cost of the given data
        sigma = result.sigma
        shift = objective(sigma, points * scale) - objective(sigma, points)
        assert abs(shift - 2.0 * math.log(scale)) <= 1e-12
        assert abs(records[-1].objective - objective(sigma, points * scale)) <= 1e-12


def test_estimate_degenerate_span_breaks_down():
    # three points on a plane in R^3 cannot support an SPD fixed point;
    # the very first update is singular
    flat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    result = estimate(flat)
    assert result.termination == Termination.BREAKDOWN
    assert np.all(np.isfinite(result.sigma))


@pytest.mark.parametrize("scale", [1.0, 1e160])
def test_estimate_one_tiny_row_converges_without_warning(scale):
    # row 0's form at I/D would underflow to 0 beside the other rows; the
    # solver scales that row on its own, so the run converges as without
    # the factor
    points, truth = generate(SyntheticModel(10, 5, 120, 100, seed=0))
    points = points * scale
    points[0] *= 1e-200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = estimate(points)
    assert result.termination == Termination.CONVERGED
    assert recovery_error(top_d_subspace(result.sigma, 5), truth) <= 1e-6


def test_estimate_max_iterations():
    result = estimate(COLLINEAR, EstimatorConfig(tol=1e-15, max_iter=5))
    assert result.termination == Termination.MAX_ITERATIONS
    assert result.iterations == 5


def test_estimator_config_validation():
    with pytest.raises(ValueError, match="tol"):
        EstimatorConfig(tol=0.0)
    # an infinite tol would report every run converged after one iteration
    for bad in (math.inf, np.float64(math.inf), math.nan):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            EstimatorConfig(tol=bad)
    with pytest.raises(ValueError, match="max_iter"):
        EstimatorConfig(max_iter=0)
    # range() would take True as 1 and fail on 2.5 with a bare TypeError
    for bad in (2.5, 3.0, True, False, "3", None, np.float64(4.0)):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            EstimatorConfig(max_iter=bad)
    for good in (np.int64(2), np.int32(2), np.uint8(2)):
        assert estimate(INTERIOR, EstimatorConfig(max_iter=good)).iterations == 2
    # a tol of True would stop after one iteration, "1e-3" fail with a bare TypeError
    for bad in (True, False, "1e-3", None, np.bool_(True)):
        with pytest.raises(ValueError, match="tol must be a number"):
            EstimatorConfig(tol=bad)
    for good in (np.float64(1e-8), np.float32(1e-8), np.int64(1), 1):
        plain = estimate(INTERIOR, EstimatorConfig(tol=float(good)))
        assert estimate(INTERIOR, EstimatorConfig(tol=good)).iterations == plain.iterations
    # a dict or a bare tol would fail with an untyped AttributeError
    for bad in ({"tol": 1e-3}, 1e-3, "default"):
        with pytest.raises(ValueError, match="config must be an EstimatorConfig"):
            estimate(INTERIOR, config=bad)


# ---------------------------------------------------------- breakdown handling


def test_proactive_breakdown_stop():
    # the SPD threshold stops the collapse toward the singular limit
    # early with a usable iterate; with tol too tight to converge the
    # termination must be breakdown, not max_iterations
    config = EstimatorConfig(tol=1e-300, max_iter=5000)
    result = estimate(COLLINEAR, config)
    assert result.termination == Termination.BREAKDOWN
    vals = np.linalg.eigvalsh(result.sigma)
    assert vals[-1] > 0.0
    assert recovery_error(top_d_subspace(result.sigma, 1), E1) < 1e-6


def test_failed_eigensolve_is_a_breakdown(monkeypatch):
    # a nonzero LAPACK info from the loop's eigensolve ends the run as a
    # breakdown that keeps the last usable iterate.  The loop eigensolves
    # only near collapse, so the run is COLLINEAR's tight one, whose
    # eigensolves start at iterate 57 of 79
    config = EstimatorConfig(tol=1e-300, max_iter=5000)
    real = subrec.estimator._SYEV
    calls = []

    def failing_third_call(*args, **kwargs):
        calls.append(1)
        vals, vecs, info = real(*args, **kwargs)
        return vals, vecs, (1 if len(calls) == 3 else info)

    monkeypatch.setattr(subrec.estimator, "_SYEV", failing_third_call)
    result, records = observed(COLLINEAR, config)
    assert result.termination == Termination.BREAKDOWN
    assert len(calls) == 3
    monkeypatch.undo()
    plain = estimate(COLLINEAR, config)
    assert plain.termination == Termination.BREAKDOWN
    assert 3 <= result.iterations + 1 < plain.iterations
    shorter = EstimatorConfig(tol=1e-300, max_iter=result.iterations)
    cut, cut_records = observed(COLLINEAR, shorter)
    assert cut.termination == Termination.MAX_ITERATIONS
    assert result.sigma.tobytes() == cut.sigma.tobytes()
    assert records == cut_records


def test_failed_triangular_inverse_is_typed(monkeypatch):
    # a nonzero LAPACK info from inverting the factor is a NotSPDError
    # for a given sigma and a breakdown inside the loop
    real = subrec.estimator._TRTRI
    calls = []

    def failing_third_call(*args, **kwargs):
        calls.append(1)
        inverse, info = real(*args, **kwargs)
        return inverse, (1 if len(calls) == 3 else info)

    monkeypatch.setattr(subrec.estimator, "_TRTRI", failing_third_call)
    # calls: I/D, then the first two iterates
    result, records = observed(INTERIOR)
    assert result.termination == Termination.BREAKDOWN
    assert result.iterations == 1
    monkeypatch.setattr(subrec.estimator, "_TRTRI", lambda factor, **kwargs: (factor, 1))
    with pytest.raises(NotSPDError, match="quadratic_forms"):
        quadratic_forms(np.eye(2), INTERIOR)
    monkeypatch.undo()
    one_step, one_records = observed(INTERIOR, EstimatorConfig(max_iter=1))
    assert np.array_equal(result.sigma, one_step.sigma)
    assert records == one_records


@pytest.mark.parametrize("bad", [0.0, math.inf, math.nan], ids=["zero", "inf", "nan"])
def test_singular_forms_in_the_loop_are_a_breakdown(monkeypatch, bad):
    # the loop reads singular forms off the cost's log-sum: one form of
    # 0, inf or nan at the second iterate ends the run as a breakdown
    # that keeps the first iterate, and numpy warns about none of them
    real = subrec.estimator._pass
    calls = []

    def singular_third_call(*args):
        calls.append(1)
        q, step = real(*args)
        if len(calls) == 3:
            q[len(q) // 2] = bad
        return q, step

    monkeypatch.setattr(subrec.estimator, "_pass", singular_third_call)
    # calls: I/D, then the first two iterates
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result, records = observed(INTERIOR)
    assert result.termination == Termination.BREAKDOWN
    assert result.iterations == 1
    monkeypatch.undo()
    one_step, one_records = observed(INTERIOR, EstimatorConfig(max_iter=1))
    assert np.array_equal(result.sigma, one_step.sigma)
    assert records == one_records


# ------------------------------------------------------ numpy's error state


def test_estimate_restores_the_callers_error_state():
    before = np.geterr()
    estimate(INTERIOR)
    assert np.geterr() == before

    def failing_observer(sigma, record):
        raise KeyError("observer")

    with pytest.raises(KeyError, match="observer"):
        estimate(INTERIOR, observer=failing_observer)
    assert np.geterr() == before


def test_observer_runs_under_the_callers_error_state():
    # the loop ignores numpy's floating-point errors, which it checks
    # itself; code in the observer must not
    seen = []
    with np.errstate(over="raise", divide="warn"):
        caller = np.geterr()
        result = estimate(INTERIOR, observer=lambda sigma, record: seen.append(np.geterr()))
    assert caller["over"] == "raise"
    assert len(seen) == result.iterations > 0
    assert all(state == caller for state in seen)

    def overflowing_observer(sigma, record):
        return np.array([1e308]) * 10.0

    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        estimate(INTERIOR, observer=overflowing_observer)


# --------------------------------------------------- one BLAS/LAPACK library


# (data set, iterations, termination) of estimate; the same as when the
# loop ran on numpy's LAPACK
_KNOWN_RUNS = [
    (COLLINEAR, 44, Termination.CONVERGED),
    (INTERIOR, 48, Termination.CONVERGED),
    (generate(SyntheticModel(10, 5, 80, 100, seed=1))[0], 80, Termination.CONVERGED),
    (generate(SyntheticModel(20, 4, 60, 200, seed=2, rotate=True))[0], 98, Termination.CONVERGED),
    (generate(SyntheticModel(60, 6, 300, 300, seed=4, rotate=True))[0], 14, Termination.BREAKDOWN),
]


def test_solver_does_not_call_numpy_linalg(monkeypatch):
    # every factorization and eigensolve of the solver goes through
    # SciPy's LAPACK; numpy's would wake a second OpenBLAS worker pool
    def forbidden(*args, **kwargs):
        raise AssertionError("numpy.linalg called from the solver")

    for name in ("cholesky", "eigvalsh", "norm"):
        monkeypatch.setattr(np.linalg, name, forbidden)
    for data, iterations, termination in _KNOWN_RUNS:
        result = estimate(data)
        assert (result.iterations, result.termination) == (iterations, termination)
        dim = data.shape[1]
        start = np.eye(dim) / dim
        step = fixed_point_step(start, data)
        assert np.isfinite(objective(step, data))
        assert quadratic_forms(step, data).shape == (data.shape[0],)
        assert majorization_gap(step, start, data) >= -1e-12


# -------------------------------------------------- the skipped eigensolve


def counted_eigensolves(monkeypatch):
    """A list that gets one entry per call of the solver's eigensolve."""
    real, calls = subrec.estimator._SYEV, []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(subrec.estimator, "_SYEV", counting)
    return calls


# matrices per dimension: over 2 000 in all, fewer where one costs more
_SKIP_DRAWS = {2: 400, 3: 400, 5: 400, 10: 300, 20: 300, 60: 200, 200: 60}


@pytest.mark.parametrize("dim", sorted(_SKIP_DRAWS))
def test_skipped_eigensolve_cannot_read_collapse(dim):
    # estimate eigensolves an iterate only when |inv(L)|_F^2 reaches
    # _EIGENSOLVE_AT; every trace-one SPD matrix below that bound, at
    # eigenvalue ratios down to 1e-16, must read as not collapsed, and with
    # a margin: the bound leaves a factor 1e4 for dsyev's rounding
    solver = subrec.estimator
    rng = np.random.default_rng(1000 + dim)
    skipped = near = 0
    for draw in range(_SKIP_DRAWS[dim]):
        if draw % 2:
            # one small eigenvalue, the closest a matrix can come to the
            # bound: |inv(L)|_F^2 is then about D / ratio
            ratio, vals = 10.0 ** -rng.uniform(7.0, 11.0), np.ones(dim)
        else:
            ratio = 10.0 ** -rng.uniform(0.0, 16.0)
            vals = ratio ** rng.random(dim)
        vals[:2] = ratio, 1.0
        basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
        sigma = (basis * vals) @ basis.T
        sigma = (sigma + sigma.T) / 2.0
        sigma /= np.trace(sigma)
        factors = solver._cholesky(sigma)
        if factors is None:
            continue
        entries = factors[1].ravel("K")
        if not solver._DOT(entries, entries) < solver._EIGENSOLVE_AT:
            continue
        skipped += 1
        eigs, _, info = solver._SYEV(sigma, 0, 1)
        assert info == 0
        assert eigs[0] > 1e3 * SPD_RTOL * eigs[-1]
        near += eigs[0] < 1e-9 * dim * eigs[-1]
    assert skipped >= _SKIP_DRAWS[dim] // 4
    assert near >= 1


@pytest.mark.parametrize("case", [*range(len(_KNOWN_RUNS)), "tight"])
def test_estimate_is_the_same_with_and_without_an_observer(monkeypatch, case):
    # the observer is handed each iterate and its record, and changes
    # nothing the loop computes: the same eigensolves, and the run ends at
    # the same iterate, bit for bit, in the same way
    if case == "tight":  # the SPD threshold stops the collapse
        data, config = COLLINEAR, EstimatorConfig(tol=1e-300, max_iter=5000)
    else:
        data, config = _KNOWN_RUNS[case][0], None
    calls = counted_eigensolves(monkeypatch)
    plain = estimate(data, config)
    plain_calls = len(calls)
    watched, records = observed(data, config)
    assert plain.sigma.tobytes() == watched.sigma.tobytes()
    assert (plain.iterations, plain.termination) == (watched.iterations, watched.termination)
    assert len(records) == watched.iterations
    assert len(calls) == 2 * plain_calls
    if case == "tight":
        assert plain.termination == Termination.BREAKDOWN
        assert 1 <= plain_calls < plain.iterations


def test_no_eigensolve_far_from_collapse_watched_or_not(monkeypatch):
    # INTERIOR's iterates stay far from collapse: no eigensolve, with an
    # observer or without one
    calls = counted_eigensolves(monkeypatch)
    result = estimate(INTERIOR)
    assert (result.termination, len(calls)) == (Termination.CONVERGED, 0)
    watched, records = observed(INTERIOR)
    assert len(records) == watched.iterations == result.iterations
    assert len(calls) == 0


@pytest.mark.parametrize("dim", [7, 200])
def test_bound_routines_match_scipy_linalg(dim):
    # the seven routines the solver loads from SciPy's extension files give
    # the bits of scipy.linalg's own blas and lapack wrappers
    rng = np.random.default_rng(dim)
    spd = random_spd(rng, dim)
    lower = np.linalg.cholesky(spd)
    rows = rng.standard_normal((dim, 3 * dim))
    x = rng.standard_normal(dim)
    blas, lapack = scipy.linalg.blas, scipy.linalg.lapack
    calls = [
        ("_POTRF", lapack.dpotrf, (spd, 1, 1)),
        ("_TRTRI", lapack.dtrtri, (lower, 1)),
        ("_TRMM", blas.dtrmm, (1.0, lower, rows, 0, 1, 0, 0)),
        ("_GEMV", blas.dgemv, (1.0, rows, rows[0])),
        ("_SYRK", blas.dsyrk, (1.0, rows, 0.0, None, 0, 1)),
        ("_SYEV", lapack.dsyev, (spd, 1, 1)),
        ("_DOT", blas.ddot, (x, rows[:, 0])),
    ]
    for name, reference, args in calls:
        ours, theirs = getattr(subrec.estimator, name)(*args), reference(*args)
        if not isinstance(ours, tuple):
            ours, theirs = (ours,), (theirs,)
        assert [np.asarray(v).tobytes() for v in ours] == [
            np.asarray(v).tobytes() for v in theirs
        ], name


def test_missing_linalg_extension_names_its_directory():
    directory = os.path.join(scipy.__path__[0], "linalg")
    with pytest.raises(ImportError, match=f"no compiled module _fnone in {re.escape(directory)}$"):
        subrec.estimator._linalg_extension("_fnone")


# Solves the set of SyntheticModel(D, d, n_inliers, n_outliers, seed=4,
# rotate=True) and prints sigma's bytes, the iteration count and the
# termination.
_SOLVE = """
from subrec.estimator import estimate
from subrec.synthetic import SyntheticModel, generate

points, _ = generate(SyntheticModel({}, {}, {}, {}, seed=4, rotate=True))
result = estimate(points)
print(result.sigma.tobytes().hex(), result.iterations, result.termination.value)
"""


# Keeps every iterate of estimate on the same set and checks that each is
# fixed_point_step of the one before, from I/D; prints the iterate count.
_WALK = """
import numpy as np
from subrec.estimator import estimate, fixed_point_step
from subrec.synthetic import SyntheticModel, generate

points, _ = generate(SyntheticModel({}, {}, {}, {}, seed=4, rotate=True))
kept = [np.eye(points.shape[1]) / points.shape[1]]
estimate(points, observer=lambda sigma, record: kept.append(sigma))
for k, (before, after) in enumerate(zip(kept, kept[1:]), 1):
    assert np.array_equal(after, fixed_point_step(before, points)), k
print(len(kept) - 1)
"""


def _solve_in_fresh_process(model, threads, script=_SOLVE):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    package_root = str(Path(subrec.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script.format(*model)],
        capture_output=True, text=True, env=env, check=True,
    ).stdout.split()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_estimate_repeats_at_a_fixed_blas_thread_count(threads):
    # the moment sums N terms block by block, in an order that can depend
    # on the BLAS thread count, but not from one run to the next at a fixed
    # count; (6 000, 60) is several blocks of rows, above the one-thread cut
    assert 6000 > 2 * _BLOCK and 60 * 60 * _BLOCK >= subrec.estimator._ONE_THREAD_BELOW
    outputs = [_solve_in_fresh_process((60, 6, 3000, 3000), threads) for _ in range(2)]
    assert outputs[0] == outputs[1]
    assert outputs[0][2] == "converged"


# SciPy's OpenBLAS thread count, through the solver's own functions
_PIN = subrec.estimator._ONE_BLAS_THREAD
needs_pin = pytest.mark.skipif(_PIN is None, reason="no OpenBLAS under scipy.libs")


@pytest.fixture
def caller_count():
    """SciPy's BLAS count set to 2 for the test, then put back."""
    before = _PIN.get()
    _PIN.put(2)
    yield 2
    _PIN.put(before)


@needs_pin
def test_small_estimate_gives_the_same_bits_at_any_blas_thread_count():
    # (1 400, 20) is one block below the cut, whose moment OpenBLAS sums in
    # another order on two threads than on one.  The runs are compared with
    # each other only: bits depend on the machine's OpenBLAS kernel.
    assert 20 * 20 * 1400 < subrec.estimator._ONE_THREAD_BELOW
    one, two = (_solve_in_fresh_process((20, 2, 700, 700), threads) for threads in ("1", "2"))
    assert one == two


@pytest.mark.parametrize("threads", ["1", "2"])
def test_small_estimate_is_the_public_step_at_any_blas_thread_count(threads):
    # the loop and the one-call helpers take the BLAS count by the same size
    # rule, so on (1 400, 20), below the cut, every iterate is the public
    # step of the one before at either count
    assert int(_solve_in_fresh_process((20, 2, 700, 700), threads, _WALK)[0]) > 1


@needs_pin
def test_only_small_solves_run_on_one_blas_thread(caller_count):
    seen = []

    def observer(sigma, record):
        seen.append(_PIN.get())

    points, _ = generate(SyntheticModel(10, 5, 120, 100, seed=0))
    estimate(points, observer=observer)
    assert seen and set(seen) == {1}
    assert (_PIN.get(), _PIN.holders) == (caller_count, 0)

    seen.clear()
    points, _ = generate(SyntheticModel(48, 4, 800, 800, seed=1))
    assert 48 * 48 * _BLOCK >= subrec.estimator._ONE_THREAD_BELOW
    estimate(points, EstimatorConfig(max_iter=3), observer=observer)
    assert seen and set(seen) == {caller_count}


@needs_pin
@pytest.mark.parametrize("shape, small", [((10, 5, 120, 100), True), ((48, 4, 800, 800), False)])
def test_one_call_helpers_take_the_blas_count_by_the_solve_rule(
    monkeypatch, caller_count, shape, small
):
    seen, kernel = [], subrec.estimator._pass

    def watched(*args):
        seen.append(_PIN.get())
        return kernel(*args)

    points, _ = generate(SyntheticModel(*shape, seed=2))
    sigma = np.eye(shape[0]) / shape[0]
    monkeypatch.setattr(subrec.estimator, "_pass", watched)
    quadratic_forms(sigma, points)
    objective(sigma, points)
    fixed_point_step(sigma, points)
    majorization_gap(sigma, 2 * sigma, points)
    assert seen == [1 if small else caller_count] * 5
    assert (_PIN.get(), _PIN.holders) == (caller_count, 0)


@needs_pin
def test_small_and_large_solves_side_by_side(caller_count):
    # a small solve holds the process at one thread while a large one runs
    # beside it: the small one keeps its bits, the large one its iterations
    # and, at some thread count between one and the caller's, close values
    small, _ = generate(SyntheticModel(10, 5, 120, 100, seed=0))
    large, _ = generate(SyntheticModel(48, 4, 800, 800, seed=1))
    config = EstimatorConfig(max_iter=40)
    alone_small, alone_large = estimate(small), estimate(large, config)
    beside, done = [], threading.Event()

    def solve_small():
        while not done.is_set() or not beside:
            beside.append(estimate(small))

    worker = threading.Thread(target=solve_small)
    worker.start()
    try:
        together = estimate(large, config)
    finally:
        done.set()
        worker.join(timeout=60)
    assert not worker.is_alive() and beside

    def outcome(result):
        return result.iterations, result.termination

    for result in beside:
        assert result.sigma.tobytes() == alone_small.sigma.tobytes()
        assert outcome(result) == outcome(alone_small)
    assert outcome(together) == outcome(alone_large)
    np.testing.assert_allclose(together.sigma, alone_large.sigma, rtol=1e-10, atol=1e-14)
    assert (_PIN.get(), _PIN.holders) == (caller_count, 0)


@needs_pin
def test_blas_thread_count_is_restored_after_an_observer_raises(caller_count):
    def observer(sigma, record):
        raise KeyError("stop")

    points, _ = generate(SyntheticModel(10, 5, 120, 100, seed=0))
    with pytest.raises(KeyError, match="stop"):
        estimate(points, observer=observer)
    assert (_PIN.get(), _PIN.holders) == (caller_count, 0)


@needs_pin
def test_blas_thread_count_is_restored_after_overlapping_sweep_trials(
    monkeypatch, caller_count
):
    seen = []

    def watched(points, config, observer=None):
        return estimate(points, config, lambda sigma, record: seen.append(_PIN.get()))

    monkeypatch.setattr(subrec.experiments, "estimate", watched)
    exact_recovery_sweep(10, 5, 100, [100, 120], trials=6, seed=3, threads=2)
    assert seen and set(seen) == {1}
    assert (_PIN.get(), _PIN.holders) == (caller_count, 0)


def test_one_blas_thread_holders_share_one_save_and_restore():
    # one saved count for any overlap of holders: a lost update of the
    # holder count or a save made while pinned would leave the count at 1
    count = [3]
    pin = subrec.estimator._OneBlasThread(lambda: count[0], lambda n: count.__setitem__(0, n))
    seen = []

    def hold():
        for _ in range(2000):
            with pin:
                seen.append(count[0])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=hold) for _ in range(8)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert len(seen) == 8 * 2000 and set(seen) == {1}
    assert (count[0], pin.holders) == (3, 0)


def test_estimate_gives_the_same_bits_without_the_one_thread_pin(monkeypatch):
    points, _ = generate(SyntheticModel(10, 5, 120, 100, seed=0))
    pinned = estimate(points)
    monkeypatch.setattr(subrec.estimator, "_ONE_BLAS_THREAD", None)
    plain = estimate(points)
    assert pinned.sigma.tobytes() == plain.sigma.tobytes()
    assert (pinned.iterations, pinned.termination) == (plain.iterations, plain.termination)


@pytest.mark.parametrize("library", [None, "", "libscipy_openblas-0.so"])
def test_no_one_thread_pin_without_the_bundled_openblas(monkeypatch, tmp_path, library):
    # no scipy.libs directory, no library in it, a file that does not load
    if library is not None:
        (tmp_path / "scipy.libs").mkdir()
        if library:
            (tmp_path / "scipy.libs" / library).write_bytes(b"not a library")
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path / "scipy")])
    assert subrec.estimator._one_blas_thread() is None


# ------------------------------------------------- geodesic convexity of the cost


def test_cost_midpoint_convexity():
    rng = np.random.default_rng(39)
    for _ in range(30):
        dim = int(rng.integers(2, 5))
        data = random_points(rng, int(rng.integers(dim + 2, 25)), dim)
        s1 = random_spd(rng, dim)
        s2 = random_spd(rng, dim)
        mid = geometric_mean(s1, s2)
        lhs = objective(s1, data) + objective(s2, data)
        assert lhs >= 2.0 * objective(mid, data) - 1e-10


def test_cost_midpoint_equality_on_scaled_pair():
    # along the ray of a single matrix the cost is constant, so the
    # midpoint inequality collapses to equality
    rng = np.random.default_rng(40)
    data = random_points(rng, 20, 3)
    s1 = random_spd(rng, 3)
    mid = geometric_mean(s1, 7.5 * s1)
    gap = objective(s1, data) + objective(7.5 * s1, data) - 2.0 * objective(mid, data)
    assert abs(gap) < 1e-10


# ------------------------------------------------------- directional divergence


def _ray_costs(data, projector, epsilons):
    costs = []
    for eps in epsilons:
        sigma = (projector + eps * np.eye(2)) / np.trace(projector + eps * np.eye(2))
        costs.append(objective(sigma, data))
    return costs


def test_cost_diverges_down_in_the_recovery_regime():
    # with 3/5 of the points on span{e1}, flattening toward that line
    # sends the cost to -inf
    costs = _ray_costs(COLLINEAR, np.diag([1.0, 0.0]), [1e-2, 1e-4, 1e-6])
    assert costs[0] > costs[1] > costs[2]


def test_cost_diverges_up_in_the_interior_regime():
    # with only 2/5 of the points on the line, the same flattening is
    # penalized
    costs = _ray_costs(INTERIOR, np.diag([1.0, 0.0]), [1e-2, 1e-4, 1e-6])
    assert costs[0] < costs[1] < costs[2]
