"""The ``subrec`` command line: data synthesis, estimation, experiments.

Every command writes its primary output plus a ``<out>.manifest.json``
recording the command line, the parsed configuration, seeds, input and
output paths, duration, and the library version.  ``seeds`` is
``[--seed]`` for the commands that have that flag and empty otherwise;
``inputs`` lists the files read, ``--in`` and then ``--truth``, as given.
Rerunning a command with the same arguments reproduces the data files
byte for byte.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .estimator import DEFAULT_MAX_ITER, DEFAULT_TOL, EstimatorConfig, estimate, objective
from .experiments import convergence_run, exact_recovery_sweep, noise_sweep
from .fileio import (
    read_points_csv,
    read_truth_json,
    write_json,
    write_points_csv,
    write_rows_csv,
    write_truth_json,
)
from .subspace import recovery_error, top_d_subspace
from .synthetic import SyntheticModel, generate

__all__ = ["main"]


def _parse_int_range(text):
    """Parse ``lo:hi:step`` into an inclusive list of ints."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected lo:hi:step, got {text!r}")
    try:
        lo, hi, step = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"range bounds must be integers, got {text!r}") from None
    if step < 1:
        raise ValueError(f"range step must be positive, got {step}")
    if hi < lo:
        raise ValueError(f"range is empty: {text!r}")
    return list(range(lo, hi + 1, step))


def _parse_log_range(text):
    """Parse ``lo:hi:steps`` into a log-spaced list of floats."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"expected lo:hi:steps, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        steps = int(parts[2])
    except ValueError:
        raise ValueError(f"bad log range {text!r}") from None
    if not 0.0 < lo <= hi < np.inf:
        raise ValueError(f"need 0 < lo <= hi < inf, got {text!r}")
    if steps < 1:
        raise ValueError(f"need at least one step, got {steps}")
    # geomspace returns lo itself for a single step
    return [float(v) for v in np.geomspace(lo, hi, steps)]


def _claim_outputs(args):
    """The paths named by ``_outputs``: distinct files, the manifest included,
    and none existing unless --force was given."""
    paths = [getattr(args, flag) for flag in args._outputs]
    paths = [p for p in paths if p is not None]
    claimed = [Path(p).resolve() for p in [*paths, f"{paths[0]}.manifest.json"]]
    if len(set(claimed)) < len(claimed):
        raise ValueError(f"outputs {', '.join(paths)} and their manifest are not distinct files")
    if not args.force:
        for p in paths:
            if Path(p).exists():
                raise ValueError(f"{p} exists, pass --force to overwrite")
    return paths


def _write_manifest(args, argv, outputs, started):
    manifest = {
        "command_line": ["subrec", *argv],
        "config": {k: v for k, v in vars(args).items() if not k.startswith("_")},
        "seeds": [args.seed] if hasattr(args, "seed") else [],
        "inputs": [p for p in (vars(args).get("infile"), vars(args).get("truth")) if p],
        "outputs": [str(p) for p in outputs],
        "duration_seconds": time.perf_counter() - started,
        "version": __version__,
    }
    write_json(f"{outputs[0]}.manifest.json", manifest)


# Flag dests and the SyntheticModel and experiment-driver keywords they set
_FIELDS = {
    "D": "ambient_dim", "d": "subspace_dim", "n_inliers": "n_inliers",
    "n_outliers": "n_outliers", "noise": "noise", "seed": "seed",
    "tol": "tol", "max_iter": "max_iter",
}


def _fields(args):
    """The keywords of ``_FIELDS`` for the flags the command has."""
    return {field: getattr(args, dest) for dest, field in _FIELDS.items() if hasattr(args, dest)}


def cmd_synth(args):
    points, truth = generate(SyntheticModel(**_fields(args)))
    write_points_csv(args.out, points)
    write_truth_json(args.truth_out, truth)


def cmd_estimate(args):
    points = read_points_csv(args.infile)
    truth = read_truth_json(args.truth) if args.truth else None
    dim = points.shape[1]  # top_d_subspace's and recovery_error's checks, before the solve
    if not 1 <= args.d <= dim:
        raise ValueError(f"need 1 <= d <= {dim}, got d={args.d}")
    if truth is not None and truth.ambient_dim != dim:
        raise ValueError(f"ambient dimensions differ: {dim} vs {truth.ambient_dim}")
    config = EstimatorConfig(tol=args.tol, max_iter=args.max_iter)
    rows = []

    def observe(sigma, rec):
        lam = err = None
        if args.trace is not None:  # only the trace reads the spectrum and the error
            lam = float(np.linalg.eigvalsh(sigma)[0])
            if truth is not None:
                err = recovery_error(top_d_subspace(sigma, args.d), truth)
        rows.append((rec.k, rec.objective, rec.rel_step, lam, err))

    result = estimate(points, config, observer=observe)

    found = top_d_subspace(result.sigma, args.d)
    final_objective = rows[-1][1] if rows else objective(result.sigma, points)
    payload = {
        "D": dim,
        "d": int(args.d),
        "sigma": [float(v) for v in result.sigma.ravel(order="C")],
        "basis": [float(v) for v in found.basis.ravel(order="C")],
        "termination": result.termination.value,
        "iterations": result.iterations,
        "objective": final_objective,
    }
    if truth is not None:
        payload["recovery_error"] = recovery_error(found, truth)
    write_json(args.out, payload)

    if args.trace is not None:
        write_rows_csv(
            args.trace,
            ["k", "objective", "rel_step", "lambda_min", "recovery_error"],
            rows,
        )


def cmd_experiment_exact_recovery(args):
    counts = _parse_int_range(args.n_inliers_range)
    rows = exact_recovery_sweep(inlier_counts=counts, trials=args.trials, **_fields(args))
    write_rows_csv(args.out, ["n_inliers", "mean_recovery_error", "std", "trials"], rows)


def cmd_experiment_convergence(args):
    _, _, rows = convergence_run(**_fields(args))
    write_rows_csv(args.out, ["k", "sigma_diff_to_final", "recovery_error_k"], rows)


def cmd_experiment_noise(args):
    levels = _parse_log_range(args.noise_range)
    rows = noise_sweep(noise_levels=levels, trials=args.trials, **_fields(args))
    write_rows_csv(args.out, ["epsilon", "mean_recovery_error", "std"], rows)


def _add_model_flags(parser, with_inliers=True):
    parser.add_argument("--D", type=int, required=True, help="ambient dimension")
    parser.add_argument("--d", type=int, required=True, help="inlier subspace dimension")
    if with_inliers:
        parser.add_argument("--n-inliers", type=int, required=True, help="inlier count")
    parser.add_argument("--n-outliers", type=int, required=True, help="outlier count")


def _add_solver_flags(parser):
    parser.add_argument(
        "--tol", type=float, default=DEFAULT_TOL,
        help="relative-step stopping tolerance (default %(default)g)",
    )
    parser.add_argument(
        "--max-iter", type=int, default=DEFAULT_MAX_ITER,
        help="iteration cap (default %(default)s)",
    )


def _add_command_end(parser, run, *outputs):
    """The last flag, --force, and the command's function and output flags."""
    parser.add_argument("--force", action="store_true", help="overwrite existing files")
    parser.set_defaults(_run=run, _outputs=outputs)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="subrec",
        description="Robust shape estimation and subspace recovery experiments.",
    )
    parser.add_argument("--version", action="version", version=f"subrec {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    synth = commands.add_parser("synth", help="generate a synthetic data set")
    _add_model_flags(synth)
    synth.add_argument("--noise", type=float, default=0.0, help="noise level (default 0)")
    synth.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    synth.add_argument("--out", required=True, help="points CSV to write")
    synth.add_argument("--truth-out", required=True, help="truth JSON to write")
    _add_command_end(synth, cmd_synth, "out", "truth_out")

    est = commands.add_parser("estimate", help="run the estimator on a points CSV")
    est.add_argument("--in", dest="infile", required=True, help="points CSV to read")
    est.add_argument("--d", type=int, required=True, help="recovered subspace dimension")
    _add_solver_flags(est)
    est.add_argument("--out", required=True, help="result JSON to write")
    est.add_argument("--trace", help="also write a per-iteration trace CSV here")
    est.add_argument("--truth", help="truth JSON; adds recovery error to the outputs")
    _add_command_end(est, cmd_estimate, "out", "trace")

    experiment = commands.add_parser("experiment", help="run a sweep experiment")
    kinds = experiment.add_subparsers(dest="experiment_command", required=True)

    sweep = kinds.add_parser(
        "exact-recovery", help="recovery error across inlier counts"
    )
    _add_model_flags(sweep, with_inliers=False)
    sweep.add_argument(
        "--n-inliers-range", required=True, metavar="LO:HI:STEP",
        help="inclusive inlier-count grid",
    )
    sweep.add_argument("--trials", type=int, default=20, help="trials per grid point")
    sweep.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    _add_solver_flags(sweep)
    sweep.add_argument("--out", required=True, help="summary CSV to write")
    _add_command_end(sweep, cmd_experiment_exact_recovery, "out")

    conv = kinds.add_parser("convergence", help="per-iteration distances for one run")
    _add_model_flags(conv)
    conv.add_argument("--noise", type=float, default=0.0, help="noise level (default 0)")
    conv.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    _add_solver_flags(conv)
    conv.add_argument("--out", required=True, help="per-iteration CSV to write")
    _add_command_end(conv, cmd_experiment_convergence, "out")

    noise = kinds.add_parser("noise", help="recovery error across noise levels")
    _add_model_flags(noise)
    noise.add_argument(
        "--noise-range", required=True, metavar="LO:HI:STEPS",
        help="log-spaced noise grid",
    )
    noise.add_argument("--trials", type=int, default=20, help="trials per level")
    noise.add_argument("--seed", type=int, default=0, help="base seed (default 0)")
    _add_solver_flags(noise)
    noise.add_argument("--out", required=True, help="summary CSV to write")
    _add_command_end(noise, cmd_experiment_noise, "out")

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        outputs = _claim_outputs(args)
        args._run(args)
        _write_manifest(args, argv, outputs, started)
    except (ValueError, OSError, Warning) as err:  # a warning raised as an error (-W error)
        print(f"subrec: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
