"""In-memory span tracer for the benchmark's traced runs.

While a :class:`Tracer` is installed, the public functions of the
``subrec`` layers are replaced, in every ``subrec`` module namespace that
binds them, by wrappers that record one span per call: layer, function,
thread, start, end and the span that caused it.  The wrappers also keep
the counts the per-layer metrics need (solver iterations and
terminations, enumerated subsets, bytes through the file layer, CLI
exits).  Removing the tracer restores every original binding.

Spans are kept in memory; :func:`write_spans` writes them once, when the
run ends.  Nothing here changes what the wrapped functions compute.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import sys
import threading
import time
from collections import Counter, defaultdict

# Functions wrapped per layer.  Per-element helpers (``check_points``,
# ``format_float``, ``span_of_points``, ``subspace_members``) run once per
# value or per enumerated subset; a span around each would cost more than
# the work it measures, so their time stays in the calling layer's self
# time.  ``geometry`` is reached only inside ``estimator`` and
# ``subspace`` and gets no spans of its own.  Names a later version of the
# package no longer has are skipped.
LAYERS = {
    "estimator": (
        "estimate", "fixed_point_step", "quadratic_forms", "objective",
        "breakdown_detected",
    ),
    "experiments": (
        "recovery_trial", "exact_recovery_sweep", "noise_sweep", "convergence_run",
    ),
    "synthetic": ("generate", "spherical_projection", "general_position_check"),
    "subspace": ("top_d_subspace", "recovery_error", "pca_subspace", "distance_to_subspace"),
    "oracles": ("uniqueness_condition", "recovery_condition", "majorization_gap"),
    "fileio": (
        "write_points_csv", "read_points_csv", "write_truth_json", "read_truth_json",
        "write_rows_csv", "write_json",
    ),
    "cli": ("main",),
}
WRITERS = {"write_points_csv", "write_truth_json", "write_rows_csv", "write_json"}
READERS = {"read_points_csv", "read_truth_json"}
TERMINATIONS = ("converged", "breakdown", "max_iterations")

# Counts that depend only on the inputs, so they repeat exactly at a
# fixed seed.
DETERMINISTIC = (
    "estimator.calls", "estimator.iterations", "estimator.converged",
    "estimator.breakdown", "estimator.max_iterations", "experiments.trials",
    "synthetic.calls", "subspace.calls", "oracles.calls", "oracles.subsets",
    "oracles.randomized", "fileio.bytes_written", "fileio.bytes_read",
    "cli.commands", "cli.nonzero_exits",
)


class Span:
    __slots__ = ("id", "parent", "layer", "name", "thread", "start", "end", "subsets")

    def __init__(self, span_id, parent, layer, name, thread, start):
        self.id = span_id
        self.parent = parent
        self.layer = layer
        self.name = name
        self.thread = thread
        self.start = start
        self.end = None
        self.subsets = 0

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """Spans and counts of the calls made while it is installed.

    A span opened on a thread with no open span of its own (a worker of
    the sweep's thread pool) takes the innermost open span of the main
    thread as its parent, which is the sweep that submitted it.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._lock = threading.Lock()
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.main_thread().ident

    @contextlib.contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of the ``with`` block."""
        patches = []
        try:
            for layer, names in LAYERS.items():
                module = sys.modules.get(f"subrec.{layer}")
                for name in names:
                    func = getattr(module, name, None)
                    if callable(func):
                        patches += _rebind(func, self._wrap(layer, name, func))
            iter_subsets = getattr(sys.modules.get("subrec.oracles"), "iter_subsets", None)
            if callable(iter_subsets):
                patches += _rebind(iter_subsets, self._wrap_subsets(iter_subsets))
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    def _open(self, layer, name):
        thread = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(thread, [])
            if stack:
                parent = stack[-1].id
            else:
                main = self._stacks.get(self._main)
                parent = main[-1].id if thread != self._main and main else None
            span = Span(len(self.spans), parent, layer, name, thread, time.perf_counter())
            self.spans.append(span)
            stack.append(span)
        return span

    def _close(self, span):
        end = time.perf_counter()
        with self._lock:
            self._stacks[span.thread].pop()
            span.end = end

    def _count(self, **increments):
        with self._lock:
            self.counts.update(increments)

    def _wrap(self, layer, name, func):
        after = _AFTER.get((layer, name))

        @functools.wraps(func)
        def traced(*args, **kwargs):
            span = self._open(layer, name)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(self, span, args, result)
            return result

        return traced

    def _wrap_subsets(self, func):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            method, subsets = func(*args, **kwargs)
            stack = self._stacks.get(threading.get_ident())
            owner = stack[-1] if stack else None
            if method == "randomized":
                self._count(randomized=1)
            return method, self._counted(subsets, owner)

        return traced

    def _counted(self, subsets, owner):
        n = 0
        try:
            for subset in subsets:
                n += 1
                yield subset
        finally:
            self._count(subsets=n)
            if owner is not None:
                owner.subsets += n


def _rebind(func, wrapper):
    """Point every ``subrec`` module binding of ``func`` at ``wrapper``."""
    patches = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "subrec" or module_name.startswith("subrec.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is func:
                patches.append((module, attr, func))
                setattr(module, attr, wrapper)
    return patches


def _after_estimate(tracer, span, args, result):
    n, dim = _shape(args[0])
    iterations = int(result.iterations)
    termination = getattr(result.termination, "value", str(result.termination))
    tracer._count(
        iterations=iterations,
        flops=3 * n * dim * dim * iterations,
        **({termination: 1} if termination in TERMINATIONS else {}),
    )


def _after_write(tracer, span, args, result):
    path = os.fspath(args[0])
    # manifests record a wall-clock duration, so their size is not a
    # function of the inputs; only data files are counted
    if not path.endswith(".manifest.json"):
        tracer._count(bytes_written=os.path.getsize(path), write_ns=_ns(span))


def _after_read(tracer, span, args, result):
    tracer._count(bytes_read=os.path.getsize(os.fspath(args[0])), read_ns=_ns(span))


def _after_main(tracer, span, args, result):
    if result != 0:
        tracer._count(nonzero_exits=1)


def _ns(span):
    return int(span.duration * 1e9)


def _shape(data):
    shape = getattr(data, "shape", None)
    if shape is None:
        return len(data), len(data[0])
    return int(shape[0]), int(shape[1])


_AFTER = {
    ("estimator", "estimate"): _after_estimate,
    ("cli", "main"): _after_main,
    **{("fileio", name): _after_write for name in WRITERS},
    **{("fileio", name): _after_read for name in READERS},
}


def covered(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def peak_concurrency(spans):
    """Largest number of the given spans open at one instant."""
    events = sorted([(s.start, 1) for s in spans] + [(s.end, -1) for s in spans])
    peak = level = 0
    for _, step in events:
        level += step
        peak = max(peak, level)
    return peak


def layer_metrics(tracer):
    """Per-layer metrics of one traced task, keyed by metric name.

    ``busy_s`` of a layer sums its outermost spans (those without an
    ancestor in the same layer); ``self_s`` sums, over the layer's spans,
    each span's duration minus the union of its child spans.
    """
    spans = tracer.spans
    counts = tracer.counts
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)

    def outermost(span):
        parent = span.parent
        while parent is not None:
            if spans[parent].layer == span.layer:
                return False
            parent = spans[parent].parent
        return True

    busy, self_time, calls = Counter(), Counter(), Counter()
    for span in spans:
        calls[span.layer] += 1
        if outermost(span):
            busy[span.layer] += span.duration
        kids = [(c.start, c.end) for c in children[span.id]]
        self_time[span.layer] += span.duration - covered(kids, span.start, span.end)

    solves = [s for s in spans if s.layer == "estimator" and s.name == "estimate"]
    solve_s = sum(s.duration for s in solves)
    trials = [s for s in spans if s.layer == "experiments" and s.name == "recovery_trial"]
    enumerating = [s for s in spans if s.subsets]
    oracle_calls = sum(1 for s in spans if s.layer == "oracles")
    write_s = counts["write_ns"] / 1e9
    read_s = counts["read_ns"] / 1e9

    return {
        "estimator.calls": len(solves),
        "estimator.iterations": counts["iterations"],
        "estimator.converged": counts["converged"],
        "estimator.breakdown": counts["breakdown"],
        "estimator.max_iterations": counts["max_iterations"],
        "estimator.busy_s": busy["estimator"],
        "estimator.ms_per_iter": _ratio(1e3 * solve_s, counts["iterations"]),
        "estimator.gflops_computed": _ratio(counts["flops"] / 1e9, solve_s),
        "experiments.trials": len(trials),
        "experiments.threads": peak_concurrency(trials),
        "experiments.busy_s": busy["experiments"],
        "experiments.self_s": self_time["experiments"],
        "synthetic.calls": calls["synthetic"],
        "synthetic.busy_s": busy["synthetic"],
        "subspace.calls": calls["subspace"],
        "subspace.busy_s": busy["subspace"],
        "oracles.calls": oracle_calls,
        "oracles.subsets": counts["subsets"],
        "oracles.randomized": counts["randomized"],
        "oracles.busy_s": busy["oracles"],
        "oracles.us_per_subset": _ratio(
            1e6 * sum(s.duration for s in enumerating), counts["subsets"]
        ),
        "fileio.bytes_written": counts["bytes_written"],
        "fileio.bytes_read": counts["bytes_read"],
        "fileio.write_s": write_s,
        "fileio.read_s": read_s,
        "fileio.write_MBps": _ratio(counts["bytes_written"] / 1e6, write_s),
        "fileio.read_MBps": _ratio(counts["bytes_read"] / 1e6, read_s),
        "cli.commands": calls["cli"],
        "cli.nonzero_exits": counts["nonzero_exits"],
        "cli.busy_s": busy["cli"],
        "cli.self_s": self_time["cli"],
    }


def _ratio(num, den):
    return num / den if den else 0.0


def write_spans(path, runs):
    """Write the spans of every traced task, once, as one JSON document.

    ``runs`` is a list of tracers, one per traced task; a span row is
    ``[task, id, parent, layer, name, thread, start_s, end_s]`` with
    thread idents renumbered from 0 and times relative to the first span.
    """
    threads: dict[int, int] = {}
    origin = min((t.spans[0].start for t in runs if t.spans), default=0.0)
    rows = [
        [
            task, s.id, s.parent, s.layer, s.name,
            threads.setdefault(s.thread, len(threads)),
            s.start - origin, s.end - origin,
        ]
        for task, tracer in enumerate(runs)
        for s in tracer.spans
    ]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as out:
        json.dump({"columns": ["task", "id", "parent", "layer", "name", "thread",
                               "start_s", "end_s"], "spans": rows}, out)
        out.write("\n")
