"""Experiment drivers: seeding, row shapes, thread independence."""

import threading

import numpy as np
import pytest

import subrec.estimator
import subrec.experiments
from subrec.estimator import Termination
from subrec.experiments import (
    convergence_run,
    exact_recovery_sweep,
    noise_sweep,
    recovery_trial,
)


def test_recovery_trial_in_the_recovery_regime():
    assert recovery_trial(4, 2, 14, 6, 0.0, 1) < 1e-6


def test_recovery_trial_survives_collapse():
    # 4 of 5 points on a line in the plane drives the iterates onto it;
    # the trial still reports the (tiny) error of the collapsed axis
    err = recovery_trial(2, 1, 4, 1, 0.0, 3)
    assert err < 1e-6


def test_sweep_rows():
    rows = exact_recovery_sweep(4, 2, 6, [6, 14], trials=3, seed=2)
    assert len(rows) == 2
    for (n, mean, std, trials), expected_n in zip(rows, (6, 14)):
        assert n == expected_n
        assert trials == 3
        assert np.isfinite(mean) and mean >= 0.0
        assert np.isfinite(std) and std >= 0.0
    # below the transition the error is macroscopic, above it vanishes
    assert rows[0][1] > 1e-3
    assert rows[1][1] < 1e-6
    # True would run one trial and write True into the trials column
    for bad in (True, 3.0, "3"):
        with pytest.raises(ValueError, match="trials must be an integer"):
            exact_recovery_sweep(4, 2, 6, [6, 14], trials=bad, seed=2)
        with pytest.raises(ValueError, match="trials must be an integer"):
            noise_sweep(4, 2, 12, 6, [0.0], trials=bad, seed=3)
    assert exact_recovery_sweep(4, 2, 6, [6, 14], trials=np.int64(3), seed=2) == rows
    # grid values are checked before they are converted, so 8.7 inliers or a
    # "0.01" noise level is an error; NumPy ints give the same rows
    assert exact_recovery_sweep(4, 2, 6, np.array([6, 14]), trials=3, seed=2) == rows
    for bad in (8.7, True, "8", None):
        with pytest.raises(ValueError, match="n_inliers must be an integer"):
            exact_recovery_sweep(4, 2, 6, [6, bad], trials=3, seed=2)
    for bad in ("0.01", True, None):
        with pytest.raises(ValueError, match="noise must be a number"):
            noise_sweep(4, 2, 12, 6, [0.0, bad], trials=2, seed=3)
    # trial i runs seed + i: None would fail with a bare TypeError, True run as 1
    for bad, message in [
        (None, "seed must be an integer"),
        (True, "seed must be an integer"),
        (-1, "seed must be at least 0"),
    ]:
        with pytest.raises(ValueError, match=message):
            exact_recovery_sweep(4, 2, 6, [8], trials=1, seed=bad)
        with pytest.raises(ValueError, match=message):
            noise_sweep(4, 2, 12, 6, [0.0], trials=1, seed=bad)


def test_sweep_is_thread_count_independent():
    kwargs = dict(trials=4, seed=11)
    serial = exact_recovery_sweep(4, 2, 6, [8, 12], threads=1, **kwargs)
    threaded = exact_recovery_sweep(4, 2, 6, [8, 12], threads=4, **kwargs)
    assert serial == threaded


def test_sweep_trials_run_in_order_on_the_calling_thread(monkeypatch):
    # the threads keyword is accepted and ignored; noise_sweep has none
    calls = []

    def trial(seed, n_inliers, **fixed):
        calls.append((threading.get_ident(), n_inliers, seed))
        return 0.0

    monkeypatch.setattr(subrec.experiments, "recovery_trial", trial)
    exact_recovery_sweep(4, 2, 6, [8, 12], trials=3, seed=7, threads=4)
    me = threading.get_ident()
    assert calls == [(me, n, seed) for n in (8, 12) for seed in (7, 8, 9)]
    with pytest.raises(TypeError, match="threads"):
        noise_sweep(4, 2, 12, 6, [0.0], trials=2, seed=3, threads=2)


def test_sweep_matches_manual_trials():
    # both sweeps run the same grid loop
    for sweep, args in [
        (lambda **kw: exact_recovery_sweep(4, 2, 6, [10], **kw), (4, 2, 10, 6, 0.0)),
        (lambda **kw: noise_sweep(4, 2, 10, 6, [0.01], **kw), (4, 2, 10, 6, 0.01)),
    ]:
        row = sweep(trials=2, seed=5)[0]
        manual = [recovery_trial(*args, 5), recovery_trial(*args, 6)]
        assert row[1] == float(np.mean(manual))
        assert row[2] == float(np.std(manual))


def test_convergence_run_rows():
    result, truth, rows = convergence_run(4, 2, 12, 6, 0.0, 1)
    assert len(rows) == result.iterations
    ks = [row[0] for row in rows]
    assert ks == list(range(1, result.iterations + 1))
    distances = np.array([row[1] for row in rows])
    errors = np.array([row[2] for row in rows])
    assert np.all(distances >= 0.0) and np.all(np.isfinite(distances))
    assert np.all(errors >= 0.0) and np.all(np.isfinite(errors))
    # the distance column is measured against the final iterate
    assert rows[-1][1] == 0.0
    assert rows[-1][2] < 1e-6
    assert truth.dim == 2


def test_convergence_run_makes_no_eigensolve_on_an_interior_set(monkeypatch):
    # the run observes every iterate, which costs the solver no eigensolve:
    # 80 inliers of 180 on a 5-dim subspace of R^10 is below the transition
    real, calls = subrec.estimator._SYEV, []

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(subrec.estimator, "_SYEV", counting)
    result, _, rows = convergence_run(10, 5, 80, 100, 0.0, 1)
    assert result.termination == Termination.CONVERGED
    assert len(rows) == result.iterations == 80
    assert calls == []


def test_noise_sweep_rows():
    rows = noise_sweep(4, 2, 12, 6, [0.0, 1e-2], trials=2, seed=3)
    assert noise_sweep(4, 2, 12, 6, np.array([0, 1e-2]), trials=2, seed=3) == rows
    assert noise_sweep(4, 2, 12, 6, [0, np.float64(1e-2)], trials=2, seed=3) == rows
    assert len(rows) == 2
    assert rows[0][0] == 0.0 and rows[1][0] == 1e-2
    # the clean endpoint recovers exactly, the noisy one does not
    assert rows[0][1] < 1e-8
    assert rows[1][1] > 1e-3
    for eps, mean, std in rows:
        assert np.isfinite(mean) and np.isfinite(std)
