"""Drivers behind the experiment subcommands.

Each driver generates seeded synthetic data, runs the estimator, and
returns plain rows ready for CSV output.  Trials are independent, use
``seed + trial_index``, and run in order on the calling thread.
"""

from __future__ import annotations

import numpy as np

from .estimator import DEFAULT_MAX_ITER, DEFAULT_TOL, EstimatorConfig, _check_number, estimate
from .subspace import recovery_error, top_d_subspace
from .synthetic import SyntheticModel, generate

__all__ = [
    "recovery_trial",
    "exact_recovery_sweep",
    "convergence_run",
    "noise_sweep",
]


def _solve(
    ambient_dim, subspace_dim, n_inliers, n_outliers, noise, seed, tol, max_iter,
    observer=None,
):
    """``(result, truth)``: the estimate on the seeded synthetic data set
    these arguments describe, and that set's inlier subspace."""
    model = SyntheticModel(ambient_dim, subspace_dim, n_inliers, n_outliers, noise, seed)
    points, truth = generate(model)
    config = EstimatorConfig(tol=tol, max_iter=max_iter)
    return estimate(points, config, observer=observer), truth


def recovery_trial(
    ambient_dim,
    subspace_dim,
    n_inliers,
    n_outliers,
    noise,
    seed,
    tol=DEFAULT_TOL,
    max_iter=DEFAULT_MAX_ITER,
):
    """Generate one data set, estimate, and return the recovery error.

    On breakdown the estimator hands back its last usable iterate, so
    the error is still well defined (and in the recovery regime it is
    exactly the interesting number).
    """
    result, truth = _solve(
        ambient_dim, subspace_dim, n_inliers, n_outliers, noise, seed, tol, max_iter
    )
    found = top_d_subspace(result.sigma, subspace_dim)
    return recovery_error(found, truth)


def _sweep(field, kind, values, trials, seed, **fixed):
    """``(value, mean, std)`` recovery-error rows as the :func:`recovery_trial`
    argument ``field`` takes each of ``values`` as a ``kind`` (int counts at
    least 0, or float); trial ``i`` uses ``seed + i``."""
    _check_number("trials", trials, least=1)
    values = list(values)
    for value in values:
        _check_number(field, value, least=0 if kind is int else None, integer=kind is int)
    rows = []
    for value in map(kind, values):
        # recovery_trial is looked up per call, so a wrapped one sees every trial
        errors = [recovery_trial(seed=seed + i, **fixed, **{field: value}) for i in range(trials)]
        rows.append((value, float(np.mean(errors)), float(np.std(errors))))
    return rows


def exact_recovery_sweep(
    ambient_dim,
    subspace_dim,
    n_outliers,
    inlier_counts,
    trials,
    seed,
    tol=DEFAULT_TOL,
    max_iter=DEFAULT_MAX_ITER,
    threads=1,
):
    """Mean recovery error as the inlier count sweeps across the transition,
    on noiseless data.

    Returns one ``(n_inliers, mean, std, trials)`` row per count.  Trials
    run in order on the calling thread; ``threads`` is accepted and ignored,
    and goes when the benchmark stops passing it (ROADMAP item 4).
    """
    rows = _sweep(
        "n_inliers", int, inlier_counts, trials, seed,
        ambient_dim=ambient_dim, subspace_dim=subspace_dim, n_outliers=n_outliers,
        noise=0.0, tol=tol, max_iter=max_iter,
    )
    return [(*row, trials) for row in rows]


def convergence_run(
    ambient_dim,
    subspace_dim,
    n_inliers,
    n_outliers,
    noise,
    seed,
    tol=DEFAULT_TOL,
    max_iter=DEFAULT_MAX_ITER,
):
    """One estimate with the full iterate history.

    Returns ``(result, truth, rows)`` where each row is
    ``(k, distance_to_final, recovery_error_at_k)`` for k = 1 .. K; the
    last row's distance is zero by construction.
    """
    iterates = []
    result, truth = _solve(
        ambient_dim, subspace_dim, n_inliers, n_outliers, noise, seed, tol, max_iter,
        observer=lambda sigma, record: iterates.append(sigma),
    )
    rows = []
    for k, iterate in enumerate(iterates, start=1):
        found = top_d_subspace(iterate, subspace_dim)
        rows.append(
            (
                k,
                float(np.linalg.norm(iterate - result.sigma)),
                recovery_error(found, truth),
            )
        )
    return result, truth, rows


def noise_sweep(
    ambient_dim,
    subspace_dim,
    n_inliers,
    n_outliers,
    noise_levels,
    trials,
    seed,
    tol=DEFAULT_TOL,
    max_iter=DEFAULT_MAX_ITER,
):
    """Mean recovery error per noise level; one ``(epsilon, mean, std)`` row each."""
    return _sweep(
        "noise", float, noise_levels, trials, seed,
        ambient_dim=ambient_dim, subspace_dim=subspace_dim, n_inliers=n_inliers,
        n_outliers=n_outliers, tol=tol, max_iter=max_iter,
    )
