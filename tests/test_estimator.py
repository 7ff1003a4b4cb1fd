"""Estimator tests: hand examples, dual-route oracles, solver behavior."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import subrec.estimator
from reference import (
    inv_estimate,
    inv_objective,
    inv_quadratic_forms,
    inv_step,
    longdouble_quadratic_forms,
    random_points,
    random_spd,
)
from subrec.estimator import (
    BreakdownError,
    EstimatorConfig,
    Termination,
    check_points,
    estimate,
    fixed_point_step,
    objective,
    quadratic_forms,
)
from subrec.geometry import NotSPDError, geometric_mean
from subrec.oracles import majorization_gap
from subrec.subspace import Subspace, recovery_error, top_d_subspace
from subrec.synthetic import SyntheticModel, generate

# three collinear inliers on span{e1} plus two outliers: inlier
# fraction 3/5 is above the 1/2 transition, so the iterates collapse
# onto the line
COLLINEAR = np.array([[1.0, 0.0], [2.0, 0.0], [-1.0, 0.0], [0.3, 1.0], [-0.2, 1.0]])
# two collinear points plus three generic ones: fraction 2/5 is below
# the transition and the minimizer is an interior SPD matrix
INTERIOR = np.array([[1.0, 0.0], [2.0, 0.0], [0.3, 1.0], [-0.2, 1.0], [0.7, -0.6]])
THREE_POINTS = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])

E1 = Subspace([[1.0], [0.0]])


def standard_basis(dim):
    return np.eye(dim)


# ---------------------------------------------------------------- check_points


def test_check_points_accepts_lists():
    out = check_points([[1, 2], [3, 4]])
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
    ],
)
def test_check_points_rejects(bad, match):
    with pytest.raises(ValueError, match=match):
        check_points(bad)


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


@pytest.mark.parametrize("n, dim", [(5, 1), (3, 2), (220, 10), (3000, 60), (4, 6)])
def test_step_is_bit_symmetric_with_unit_trace(n, dim):
    # the moment is built from one triangle and mirrored; with fewer
    # points than dimensions the step is singular but still returned
    rng = np.random.default_rng(37)
    for _ in range(5):
        sigma = random_spd(rng, dim)
        out = fixed_point_step(sigma, random_points(rng, n, dim))
        assert np.array_equal(out, out.T)
        assert abs(np.trace(out) - 1.0) <= 1e-15
        assert np.linalg.matrix_rank(out) == min(n, dim)


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
    result = estimate(standard_basis(4))
    assert result.termination == Termination.CONVERGED
    assert result.iterations == 1
    np.testing.assert_allclose(result.sigma, np.eye(4) / 4, atol=1e-15)
    assert result.trace[0].rel_step == 0.0


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


def test_estimate_trace_invariants():
    rng = np.random.default_rng(37)
    for _ in range(10):
        dim = int(rng.integers(2, 6))
        data = random_points(rng, int(rng.integers(3 * dim, 40)), dim)
        seen = []
        result = estimate(data, observer=lambda sigma, rec: seen.append((sigma, rec)))
        iterates = [np.eye(dim) / dim] + [sigma for sigma, _ in seen]
        assert len(result.trace) == result.iterations
        assert len(iterates) == result.iterations + 1
        assert [rec for _, rec in seen] == result.trace
        np.testing.assert_allclose(iterates[-1], result.sigma)
        costs = [rec.objective for rec in result.trace]
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
        # the loop's cost and objective() share the factorization but
        # sum the logs differently (np.mean against fsum)
        for rec in result.trace:
            assert abs(rec.objective - objective(iterates[rec.k], data)) <= 1e-12
        for it in iterates[1:]:
            assert abs(np.trace(it) - 1.0) <= 1e-12
        # the loop is the public step, bit for bit
        for before, after in zip(iterates, iterates[1:]):
            assert np.array_equal(after, fixed_point_step(before, data))
        if result.termination == Termination.CONVERGED:
            assert result.trace[-1].rel_step < EstimatorConfig().tol
        # observing a run changes nothing about it
        plain = estimate(data)
        assert np.array_equal(plain.sigma, result.sigma)
        assert plain.trace == result.trace
        assert plain.termination == result.termination
        assert plain.iterations == result.iterations


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
        result = estimate(points * scale)
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
        # the trace reports the cost of the given data
        sigma = result.sigma
        shift = objective(sigma, points * scale) - objective(sigma, points)
        assert abs(shift - 2.0 * math.log(scale)) <= 1e-12
        assert abs(result.trace[-1].objective - objective(sigma, points * scale)) <= 1e-12


def test_estimate_degenerate_span_breaks_down():
    # three points on a plane in R^3 cannot support an SPD fixed point;
    # the very first update is singular
    flat = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 1.0, 0.0]])
    result = estimate(flat)
    assert result.termination == Termination.BREAKDOWN
    assert np.all(np.isfinite(result.sigma))


def test_estimate_one_tiny_row_breaks_down_without_warning():
    # row 0's form at I/D underflows to 0, so no first update exists;
    # the run stops before dividing by it
    points, _ = generate(SyntheticModel(10, 5, 120, 100, seed=0))
    points[0] *= 1e-200
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = estimate(points)
    assert result.termination == Termination.BREAKDOWN
    assert result.iterations == 0 and result.trace == []
    assert np.array_equal(result.sigma, np.eye(10) / 10)


def test_estimate_max_iterations():
    result = estimate(COLLINEAR, EstimatorConfig(tol=1e-15, max_iter=5))
    assert result.termination == Termination.MAX_ITERATIONS
    assert result.iterations == 5


def test_estimator_config_validation():
    with pytest.raises(ValueError, match="tol"):
        EstimatorConfig(tol=0.0)
    with pytest.raises(ValueError, match="max_iter"):
        EstimatorConfig(max_iter=0)


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
    # breakdown that keeps the last usable iterate
    real = subrec.estimator._SYEV
    calls = []

    def failing_third_call(*args, **kwargs):
        calls.append(1)
        vals, vecs, info = real(*args, **kwargs)
        return vals, vecs, (1 if len(calls) == 3 else info)

    monkeypatch.setattr(subrec.estimator, "_SYEV", failing_third_call)
    result = estimate(INTERIOR)
    assert result.termination == Termination.BREAKDOWN
    assert result.iterations == 2
    monkeypatch.undo()
    two_steps = estimate(INTERIOR, EstimatorConfig(max_iter=2))
    assert np.array_equal(result.sigma, two_steps.sigma)
    assert result.trace == two_steps.trace


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
    result = estimate(INTERIOR)
    assert result.termination == Termination.BREAKDOWN
    assert result.iterations == 1
    monkeypatch.setattr(subrec.estimator, "_TRTRI", lambda factor, **kwargs: (factor, 1))
    with pytest.raises(NotSPDError, match="quadratic_forms"):
        quadratic_forms(np.eye(2), INTERIOR)
    monkeypatch.undo()
    one_step = estimate(INTERIOR, EstimatorConfig(max_iter=1))
    assert np.array_equal(result.sigma, one_step.sigma)
    assert result.trace == one_step.trace


@pytest.mark.parametrize("bad", [0.0, math.inf, math.nan], ids=["zero", "inf", "nan"])
def test_singular_forms_in_the_loop_are_a_breakdown(monkeypatch, bad):
    # the loop reads singular forms off the cost's log-sum: one form of
    # 0, inf or nan at the second iterate ends the run as a breakdown
    # that keeps the first iterate, and numpy warns about none of them
    real = subrec.estimator._quad_forms
    calls = []

    def singular_third_call(*args):
        calls.append(1)
        q = real(*args)
        if len(calls) == 3:
            q[len(q) // 2] = bad
        return q

    monkeypatch.setattr(subrec.estimator, "_quad_forms", singular_third_call)
    # calls: I/D, then the first two iterates
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = estimate(INTERIOR)
    assert result.termination == Termination.BREAKDOWN
    assert result.iterations == 1
    monkeypatch.undo()
    one_step = estimate(INTERIOR, EstimatorConfig(max_iter=1))
    assert np.array_equal(result.sigma, one_step.sigma)
    assert result.trace == one_step.trace


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


# Solves one (3 000, 60) set and prints sigma's bytes, the iteration count
# and the termination.
_SOLVE = """
from subrec.estimator import estimate
from subrec.synthetic import SyntheticModel, generate

points, _ = generate(SyntheticModel(60, 6, 1500, 1500, seed=4, rotate=True))
result = estimate(points)
print(result.sigma.tobytes().hex(), result.iterations, result.termination.value)
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_estimate_repeats_at_a_fixed_blas_thread_count(threads):
    # the moment sums N terms in an order that can depend on the BLAS
    # thread count, but not from one run to the next at a fixed count
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    package_root = str(Path(subrec.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", _SOLVE], capture_output=True, text=True, env=env, check=True
        ).stdout.split()
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0][2] == "converged"


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
