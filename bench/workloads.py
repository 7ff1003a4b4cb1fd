"""The benchmark's four workloads.

Each workload has four steps:

``setup(seed, workdir)``
    Derive every input from ``seed`` and make one warm-up call.
``run(inputs, workdir)``
    The timed task.  The program receives only the generated inputs.
``verify(inputs, outputs, workdir)``
    Untimed.  Returns one ``(label, ok)`` pair per operation and a digest
    of the outputs, which must not change from task to task.
``kernel_points(inputs)``
    A data set of the workload's typical shape, for the per-iteration
    kernel timings of the traced run.

A data set's regime (recovery, boundary or below the threshold) is read
off ``recovery_condition`` on its truth subspace.  The recovery error the
checks use is computed here from the projectors, independently of the
package's own helpers.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import sys
import traceback

import numpy as np

import subrec
from subrec import cli

RECOVERED = 1e-6  # recovery error of an exact recovery
BELOW = 0.05  # smallest mean error of a sweep cell below the threshold


def derive(seed, label):
    """A 31-bit seed for one named input stream of a run."""
    digest = hashlib.sha256(f"{seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def digest(*items):
    """SHA-256 over arrays, numbers, strings, files' bytes and nested lists."""
    h = hashlib.sha256()

    def feed(item):
        if isinstance(item, np.ndarray):
            h.update(repr((item.dtype.str, item.shape)).encode())
            h.update(np.ascontiguousarray(item).tobytes())
        elif isinstance(item, (list, tuple)):
            h.update(b"[")
            for x in item:
                feed(x)
            h.update(b"]")
        elif isinstance(item, dict):
            for key in sorted(item):
                feed(key)
                feed(item[key])
        elif hasattr(item, "basis"):
            feed(item.basis)
        else:
            h.update(repr(item).encode())

    for item in items:
        feed(item)
    return h.hexdigest()


def file_bytes(path):
    try:
        with open(path, "rb") as src:
            return src.read()
    except OSError:
        return b""


def run_cli(argv):
    """``subrec.cli.main`` as an exit code; a crash reads as exit code -1."""
    try:
        return cli.main(argv)
    except SystemExit as stop:
        return stop.code if isinstance(stop.code, int) else 1
    except Exception:  # the run goes on; the operation counts as failed
        traceback.print_exc(file=sys.stderr)
        return -1


def projector_error(sigma, basis):
    """Frobenius distance between the top-``d`` eigenprojector of ``sigma``
    and the projector onto the columns of ``basis``."""
    d = basis.shape[1]
    vecs = np.linalg.eigh(sigma)[1][:, -d:]
    return float(np.linalg.norm(vecs @ vecs.T - basis @ basis.T))


def read_csv_rows(path):
    with open(path, newline="", encoding="utf-8") as src:
        return list(csv.DictReader(src))


def read_points(path):
    """Parse a points CSV with numpy's own (correctly rounded) reader."""
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class SweepSmall:
    """The README's two sweeps, run in-process through ``subrec.cli.main``.

    280 small solves (D = 10, N = 180 to 220) of about 40 microseconds an
    iteration: Python and LAPACK call overhead.
    """

    COUNTS = tuple(range(80, 121, 5))
    LEVELS = 5

    def setup(self, seed, workdir):
        inputs = {"recovery_seed": derive(seed, "exact-recovery"),
                  "noise_seed": derive(seed, "noise")}
        regimes = {}
        for n in self.COUNTS:
            model = subrec.SyntheticModel(10, 5, n, 100, seed=inputs["recovery_seed"])
            points, truth = subrec.generate(model)
            report = subrec.recovery_condition(points, truth)
            held = report.member_count * truth.ambient_dim
            share = truth.dim * points.shape[0]
            regimes[n] = "recovery" if held > share else "boundary" if held == share else "below"
        inputs["regimes"] = regimes
        run_cli(["experiment", "exact-recovery", "--D", "10", "--d", "5",
                 "--n-outliers", "100", "--n-inliers-range", "100:100:1", "--trials", "1",
                 "--seed", "0", "--out", os.path.join(workdir, "warmup.csv"), "--force"])
        return inputs

    def run(self, inputs, workdir):
        recovery = run_cli([
            "experiment", "exact-recovery", "--D", "10", "--d", "5", "--n-outliers", "100",
            "--n-inliers-range", "80:120:5", "--trials", "20",
            "--seed", str(inputs["recovery_seed"]),
            "--out", os.path.join(workdir, "recovery.csv"), "--force",
        ])
        noise = run_cli([
            "experiment", "noise", "--D", "10", "--d", "5", "--n-inliers", "120",
            "--n-outliers", "100", "--noise-range", "0.001:0.1:5", "--trials", "20",
            "--seed", str(inputs["noise_seed"]),
            "--out", os.path.join(workdir, "noise.csv"), "--force",
        ])
        return {"exits": (recovery, noise)}

    def verify(self, inputs, outputs, workdir):
        recovery_exit, noise_exit = outputs["exits"]
        ops = []
        means = {}
        if recovery_exit == 0:
            for row in read_csv_rows(os.path.join(workdir, "recovery.csv")):
                means[int(row["n_inliers"])] = float(row["mean_recovery_error"])
        for n in self.COUNTS:
            regime = inputs["regimes"][n]
            mean = means.get(n, math.nan)
            if regime == "recovery":
                ok = mean <= RECOVERED
            elif regime == "below":
                ok = mean > BELOW
            else:  # the boundary cell is checked on its exit status only
                ok = recovery_exit == 0
            ops.append((f"exact-recovery n={n} ({regime})", bool(ok)))

        noise_means = []
        if noise_exit == 0:
            noise_means = [float(r["mean_recovery_error"])
                           for r in read_csv_rows(os.path.join(workdir, "noise.csv"))]
        for i in range(self.LEVELS):
            ok = i < len(noise_means) and math.isfinite(noise_means[i]) and (
                i == 0 or noise_means[i] > noise_means[i - 1])
            ops.append((f"noise level {i} (mean rises)", bool(ok)))

        out = digest(file_bytes(os.path.join(workdir, "recovery.csv")),
                     file_bytes(os.path.join(workdir, "noise.csv")), outputs["exits"])
        return ops, out

    def kernel_points(self, inputs):
        model = subrec.SyntheticModel(10, 5, 120, 100, seed=inputs["recovery_seed"])
        return subrec.generate(model)[0]


class EstimateLarge:
    """One BLAS-bound solve at (D, N) = (200, 40 000), d = 20, half inliers."""

    SHAPE = dict(ambient_dim=200, subspace_dim=20, n_inliers=20_000, n_outliers=20_000)

    def setup(self, seed, workdir):
        model = subrec.SyntheticModel(**self.SHAPE, seed=derive(seed, "large"), rotate=True)
        points, truth = subrec.generate(model)
        dim = points.shape[1]
        subrec.fixed_point_step(np.eye(dim) / dim, points)
        return {"points": points, "truth": truth}

    def run(self, inputs, workdir):
        try:
            result = subrec.estimate(inputs["points"])
        except Exception:  # the run goes on; the solve counts as failed
            traceback.print_exc(file=sys.stderr)
            return {"result": None}
        return {"result": result}

    def verify(self, inputs, outputs, workdir):
        result = outputs["result"]
        if result is None:
            return [("solve", False)], digest(None)
        termination = getattr(result.termination, "value", str(result.termination))
        error = projector_error(result.sigma, inputs["truth"].basis)
        ok = error <= RECOVERED and termination != "max_iterations"
        return [("solve", bool(ok))], digest(result.sigma, result.iterations, termination)

    def kernel_points(self, inputs):
        return inputs["points"]


class CliFiles:
    """``synth`` then ``estimate --truth --trace`` through files, at D = 20,
    d = 4 and 30 000 + 30 000 points; ``experiment convergence``; and a
    rank-deficient set (D = 10, d = 3, 50 inliers, no outliers) through
    ``synth`` and ``estimate``."""

    BIG = dict(ambient_dim=20, subspace_dim=4, n_inliers=30_000, n_outliers=30_000)
    FLAT = dict(ambient_dim=10, subspace_dim=3, n_inliers=50, n_outliers=0)

    def setup(self, seed, workdir):
        inputs = {}
        for key, shape in (("big", self.BIG), ("flat", self.FLAT)):
            model = subrec.SyntheticModel(**shape, seed=derive(seed, key))
            points, truth = subrec.generate(model)
            inputs[key] = {"seed": model.seed, "points": points, "truth": truth}
        inputs["convergence_seed"] = derive(seed, "convergence")
        run_cli(["synth", "--D", "5", "--d", "2", "--n-inliers", "10", "--n-outliers", "10",
                 "--out", os.path.join(workdir, "warmup.csv"),
                 "--truth-out", os.path.join(workdir, "warmup.json"), "--force"])
        return inputs

    def _paths(self, workdir, key):
        return {part: os.path.join(workdir, f"{key}.{part}")
                for part in ("points.csv", "truth.json", "result.json", "trace.csv")}

    def run(self, inputs, workdir):
        exits = {}
        for key, shape in (("big", self.BIG), ("flat", self.FLAT)):
            paths = self._paths(workdir, key)
            exits[f"synth {key}"] = run_cli([
                "synth", "--D", str(shape["ambient_dim"]), "--d", str(shape["subspace_dim"]),
                "--n-inliers", str(shape["n_inliers"]), "--n-outliers", str(shape["n_outliers"]),
                "--seed", str(inputs[key]["seed"]),
                "--out", paths["points.csv"], "--truth-out", paths["truth.json"], "--force",
            ])
            argv = ["estimate", "--in", paths["points.csv"], "--d", str(shape["subspace_dim"]),
                    "--truth", paths["truth.json"], "--out", paths["result.json"], "--force"]
            if key == "big":
                argv += ["--trace", paths["trace.csv"]]
            exits[f"estimate {key}"] = run_cli(argv)
            if key == "big":
                exits["convergence"] = run_cli([
                    "experiment", "convergence", "--D", "10", "--d", "5",
                    "--n-inliers", "120", "--n-outliers", "100",
                    "--seed", str(inputs["convergence_seed"]),
                    "--out", os.path.join(workdir, "convergence.csv"), "--force",
                ])
        return {"exits": exits}

    def verify(self, inputs, outputs, workdir):
        exits = outputs["exits"]
        ops = []
        files = []
        for key in ("big", "flat"):
            paths = self._paths(workdir, key)
            expected = inputs[key]
            ok = exits[f"synth {key}"] == 0
            if ok:
                truth = json.loads(file_bytes(paths["truth.json"]))
                basis = np.asarray(truth.get("basis", []), dtype=float)
                ok = same_bits(read_points(paths["points.csv"]), expected["points"]) and \
                    same_bits(basis, expected["truth"].basis.ravel())
            ops.append((f"synth {key} (reads back bit-identical)", bool(ok)))

            ok = exits[f"estimate {key}"] == 0
            if ok:
                result = json.loads(file_bytes(paths["result.json"]))
                ok = result.get("recovery_error", math.inf) <= RECOVERED
            ops.append((f"estimate {key} (recovery error <= {RECOVERED:g})", bool(ok)))
            files += [file_bytes(paths[p]) for p in ("points.csv", "result.json", "trace.csv")]
        ops.append(("experiment convergence (exit 0)", exits["convergence"] == 0))
        files.append(file_bytes(os.path.join(workdir, "convergence.csv")))
        return ops, digest(files, sorted(exits.items()))

    def kernel_points(self, inputs):
        return inputs["big"]["points"]


class Certify:
    """A criterion-8 concordance loop over many seeded small data sets.

    Interior sets are gaussian points, for which no proper subspace holds
    its share; recovery sets put more than a ``d/D`` share of the points
    on a rotated subspace and enough outliers to span R^D.  Per set:
    ``uniqueness_condition`` (exhaustive, and randomized on the largest
    set), ``recovery_condition`` and ``general_position_check`` on the
    truth, then ``estimate`` and ``majorization_gap`` between consecutive
    iterates, which are walked again with ``fixed_point_step``.
    """

    # (D, N) of the interior sets, used in turn
    INTERIOR = ((2, 8), (2, 10), (3, 8), (3, 11), (4, 10), (4, 13), (2, 12), (3, 14))
    INTERIOR_SETS = 40
    # (D, d, inliers, outliers) of the recovery sets, used in turn
    RECOVERY = ((3, 1, 4, 3), (3, 2, 7, 3), (4, 1, 4, 4), (4, 2, 6, 4),
                (4, 3, 10, 3), (5, 2, 6, 5), (5, 3, 10, 4), (3, 1, 3, 3))
    RECOVERY_SETS = 16
    # one mid-size exhaustive and one randomized uniqueness check
    LARGE = ((4, 32, "exhaustive"), (4, 90, "randomized"))
    CONFIG = dict(max_iter=50_000)

    def setup(self, seed, workdir):
        rng = np.random.default_rng(derive(seed, "certify"))
        sets = []
        for i in range(self.INTERIOR_SETS):
            dim, n = self.INTERIOR[i % len(self.INTERIOR)]
            sets.append({"kind": "interior", "method": "exhaustive",
                         "points": rng.standard_normal((n, dim))})
        for dim, n, method in self.LARGE:
            sets.append({"kind": "interior", "method": method,
                         "points": rng.standard_normal((n, dim))})
        for i in range(self.RECOVERY_SETS):
            dim, d, n_in, n_out = self.RECOVERY[i % len(self.RECOVERY)]
            model = subrec.SyntheticModel(dim, d, n_in, n_out,
                                          seed=int(rng.integers(2**31)), rotate=True)
            points, truth = subrec.generate(model)
            sets.append({"kind": "recovery", "points": points, "truth": truth})
        for item in sets:
            item["seed"] = int(rng.integers(2**31))
        self._certify(sets[0])
        return {"sets": sets}

    def _walk(self, points, iterations):
        """Smallest majorization gap between consecutive iterates."""
        dim = points.shape[1]
        sigma = np.eye(dim) / dim
        worst = math.inf
        for _ in range(iterations):
            following = subrec.fixed_point_step(sigma, points)
            worst = min(worst, subrec.majorization_gap(following, sigma, points))
            sigma = following
        return worst

    def _certify(self, item):
        points, seed = item["points"], item["seed"]
        record = {}
        if item["kind"] == "recovery":
            truth = item["truth"]
            record["recovery"] = subrec.recovery_condition(points, truth).holds
            record["general_position"] = subrec.general_position_check(points, truth, seed=seed)
        unique = subrec.uniqueness_condition(points, seed=seed)
        record["unique"] = unique.holds
        record["method"] = unique.method
        result = subrec.estimate(points, subrec.EstimatorConfig(**self.CONFIG))
        record["termination"] = getattr(result.termination, "value", str(result.termination))
        record["iterations"] = result.iterations
        record["sigma"] = result.sigma
        if item["kind"] == "interior":
            record["lam_min"] = float(np.linalg.eigvalsh(result.sigma)[0])
            step = subrec.fixed_point_step(result.sigma, points)
            record["residual"] = float(np.linalg.norm(step - result.sigma))
        record["gap"] = self._walk(points, result.iterations)
        return record

    def run(self, inputs, workdir):
        records = []
        for item in inputs["sets"]:
            try:
                records.append(self._certify(item))
            except Exception:  # the run goes on; the data set counts as failed
                traceback.print_exc(file=sys.stderr)
                records.append(None)
        return {"records": records}

    def verify(self, inputs, outputs, workdir):
        ops = []
        for i, (item, rec) in enumerate(zip(inputs["sets"], outputs["records"])):
            label = f"{item['kind']} set {i} {item['points'].shape}"
            if rec is None:
                ops.append((label, False))
                continue
            descends = rec["gap"] >= -1e-12
            if item["kind"] == "interior":
                ok = (rec["unique"] and rec["method"] == item["method"]
                      and rec["termination"] == "converged"
                      and rec["lam_min"] > 1e-6 and rec["residual"] < 1e-7)
            else:
                error = projector_error(rec["sigma"], item["truth"].basis)
                ok = (rec["recovery"] and rec["general_position"] and not rec["unique"]
                      and error < 1e-4)
            ops.append((label, bool(ok and descends)))
        return ops, digest(outputs["records"])

    def kernel_points(self, inputs):
        return inputs["sets"][self.INTERIOR_SETS + 1]["points"]


WORKLOADS = {
    "sweep-small": SweepSmall(),
    "estimate-large": EstimateLarge(),
    "cli-files": CliFiles(),
    "certify": Certify(),
}
