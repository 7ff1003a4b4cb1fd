"""Run one workload of the subrec benchmark and print its metrics.

    python3 bench/run.py --workload sweep-small --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run sets up the workload several times, then repeats its
fixed task until ``--seconds`` of task time have passed (at least three
times), verifying the outputs of every task outside the timed region.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` it has the per-layer metrics,
taken from traced tasks that alternate with untraced ones, and the spans
of the traced tasks are written to ``bench/_work/spans-<workload>.json``.
Earlier lines record the environment and a per-metric summary.  See
``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracing import DETERMINISTIC, Tracer, layer_metrics, write_spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
NAMES = ("sweep-small", "estimate-large", "cli-files", "certify")
SETUP_ROUNDS = 5
MIN_TASKS = 3
# One trial thread: on a 2-vCPU share of a busy host, a two-thread trial
# pool measures the host's scheduler more than the program (its task times
# spread about twice as wide from run to run), so every run pins the pool.
TRIAL_THREADS = "1"

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}
PER_LAYER_UNITS = {
    "busy_s": "s", "self_s": "s", "write_s": "s", "read_s": "s", "overhead_s": "s",
    "ms_per_iter": "ms", "qform_ms": "ms", "step_ms": "ms", "moment_ms": "ms",
    "gflops_computed": "GFLOP/s", "us_per_subset": "us",
    "bytes_written": "bytes", "bytes_read": "bytes",
    "write_MBps": "MB/s", "read_MBps": "MB/s",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Run one subrec benchmark workload.")
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="task time to measure, in seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def environment():
    import numpy
    import scipy

    import subrec.experiments

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    resolve = getattr(subrec.experiments, "resolve_threads", None)
    return {
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "SUBREC_THREADS": os.environ.get("SUBREC_THREADS"),
        "resolve_threads": resolve() if resolve else None,
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, or None outside a git work tree."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def import_seconds():
    """Seconds a fresh interpreter takes to import the package (with numpy
    and scipy), measured inside that interpreter."""
    probe = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
             "t = time.perf_counter(); import subrec; print(time.perf_counter() - t)")
    done = subprocess.run([sys.executable, "-c", probe, SRC], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def kernel_ms(points):
    """Median milliseconds of the public quadratic-form and fixed-point-step
    calls at ``points``' shape, from the ``identity / D`` start."""
    import numpy as np

    import subrec

    dim = points.shape[1]
    sigma = np.eye(dim) / dim
    timings = {}
    for name in ("quadratic_forms", "fixed_point_step"):
        func = getattr(subrec, name)
        samples = []
        while len(samples) < 5 or (sum(samples) < 0.3 and len(samples) < 400):
            started = time.perf_counter()
            func(sigma, points)
            samples.append(time.perf_counter() - started)
        timings[name] = 1e3 * statistics.median(samples)
    return timings


def measure(workload, inputs, workdir, seconds, traced):
    """Repeat the task; alternate untraced and traced tasks when ``traced``."""
    walls, traced_walls, tracers = [], [], []
    attempted = failed = 0
    verify_s = 0.0
    failures = set()
    digests = set()
    task = 0
    while (sum(walls) + sum(traced_walls) < seconds
           or len(walls) < (2 if traced else MIN_TASKS)
           or (traced and len(traced_walls) < 2)):
        tracer = Tracer() if traced and task % 2 else None
        # a fresh directory per task (and per set-up round): overwriting a
        # file that still has dirty pages makes ext4 flush it first, which
        # stalls the writer
        taskdir = os.path.join(workdir, f"task{task}")
        os.makedirs(taskdir)
        started = time.perf_counter()
        if tracer is None:
            outputs = workload.run(inputs, taskdir)
        else:
            with tracer.installed():
                outputs = workload.run(inputs, taskdir)
        wall = time.perf_counter() - started
        (traced_walls if tracer else walls).append(wall)
        if tracer:
            tracers.append(tracer)
        began = time.perf_counter()
        ops, out = workload.verify(inputs, outputs, taskdir)
        shutil.rmtree(taskdir)
        verify_s += time.perf_counter() - began
        digests.add(out)
        attempted += len(ops)
        bad = [label for label, ok in ops if not ok]
        failed += len(bad)
        failures.update(bad)
        task += 1

    correct = len(digests) == 1
    if tracers:
        per_task = [layer_metrics(t) for t in tracers]
        if any(m[k] != per_task[0][k] for m in per_task for k in DETERMINISTIC):
            correct = False
    else:
        per_task = []
    return {
        "walls": walls, "traced_walls": traced_walls, "tracers": tracers,
        "per_task": per_task, "attempted": attempted, "failed": failed,
        "failures": sorted(failures), "correct": correct, "verify_s": verify_s,
    }


def end_to_end(setup_s, run):
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(run["walls"]),
        "peak_rss_mb": peak_rss_mb(),
        "ok_frac": (run["attempted"] - run["failed"]) / run["attempted"],
    }


def per_layer(run, kernel):
    first = run["per_task"][0]
    # counts are equal in every traced task (measure() checks it)
    medians = {key: first[key] if key in DETERMINISTIC
               else statistics.median(m[key] for m in run["per_task"])
               for key in first}
    medians["estimator.qform_ms"] = kernel["quadratic_forms"]
    medians["estimator.step_ms"] = kernel["fixed_point_step"]
    medians["estimator.moment_ms"] = kernel["fixed_point_step"] - kernel["quadratic_forms"]
    medians["trace.overhead_s"] = (statistics.median(run["traced_walls"])
                                   - statistics.median(run["walls"]))
    return medians


def unit_of(name):
    if name in END_TO_END:
        return END_TO_END[name]
    return PER_LAYER_UNITS.get(name.split(".", 1)[1], "count")


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not os.path.isfile(os.path.join(SRC, "subrec", "__init__.py")):
        print(f"run.py: no package sources at {SRC}; run from a subrec checkout",
              file=sys.stderr)
        return 1

    os.environ["SUBREC_THREADS"] = TRIAL_THREADS
    sys.path.insert(0, SRC)
    import subrec
    from workloads import WORKLOADS  # imports numpy, scipy and subrec

    if os.path.dirname(os.path.abspath(subrec.__file__)) != os.path.join(SRC, "subrec"):
        print(f"run.py: imported subrec from {subrec.__file__}, not {SRC}", file=sys.stderr)
        return 1

    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        import_s = statistics.median(import_seconds() for _ in range(SETUP_ROUNDS))
        setups = []
        for round_ in range(SETUP_ROUNDS):
            setupdir = os.path.join(workdir, f"setup{round_}")
            os.makedirs(setupdir)
            began = time.perf_counter()
            inputs = workload.setup(args.seed, setupdir)
            setups.append(time.perf_counter() - began)
        setup_s = import_s + statistics.median(setups)
        run = measure(workload, inputs, workdir, args.seconds, bool(args.trace))
        if args.trace:
            metrics = per_layer(run, kernel_ms(workload.kernel_points(inputs)))
            spans_path = os.path.join(WORK, f"spans-{args.workload}.json")
            write_spans(spans_path, run["tracers"])
            print(f"spans {spans_path}")
        else:
            metrics = end_to_end(setup_s, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for kind, walls in (("untraced", run["walls"]), ("traced", run["traced_walls"])):
        if walls:
            print(f"{kind} tasks {len(walls)}: wall min {min(walls):.4f} s, "
                  f"median {statistics.median(walls):.4f} s, max {max(walls):.4f} s")
    print(f"set-up rounds {SETUP_ROUNDS}: import {import_s:.4f} s, "
          f"median set-up {statistics.median(setups):.4f} s; verification {run['verify_s']:.2f} s; "
          f"operations {run['attempted']}, failed {run['failed']}")
    for label in run["failures"]:
        print(f"failed: {label}")
    for name, value in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} {shown} {unit_of(name)}")
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
