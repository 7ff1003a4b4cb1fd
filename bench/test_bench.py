"""Tests of the benchmark itself: seeded inputs, repeatable counts, and a
tracer that changes nothing and cleans up after itself.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import subrec  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

SPEC = os.path.join(ROOT, "BENCHMARK.json")


def run_task(workload, inputs, workdir, tracer=None):
    taskdir = os.path.join(workdir, f"task{len(os.listdir(workdir))}")
    os.makedirs(taskdir)
    if tracer is None:
        outputs = workload.run(inputs, taskdir)
    else:
        with tracer.installed():
            outputs = workload.run(inputs, taskdir)
    return workload.verify(inputs, outputs, taskdir)


def subrec_bindings():
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if module is not None and (name == "subrec" or name.startswith("subrec."))
        for attr, value in vars(module).items()
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_fixes_inputs_outputs_and_counts(name, tmp_path):
    workload = WORKLOADS[name]
    inputs = workload.setup(7, str(tmp_path))
    assert digest(workload.setup(7, str(tmp_path))) == digest(inputs)

    untraced = run_task(workload, inputs, str(tmp_path))
    tracers = [tracing.Tracer(), tracing.Tracer()]
    traced = [run_task(workload, inputs, str(tmp_path), t) for t in tracers]
    # tracing changes neither the outputs nor the verdicts
    assert traced[0] == untraced
    assert traced[1] == untraced

    first, second = (tracing.layer_metrics(t) for t in tracers)
    for key in tracing.DETERMINISTIC:
        assert first[key] == second[key], key
    assert first["estimator.calls"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_other_seed_other_inputs(name, tmp_path):
    workload = WORKLOADS[name]
    assert digest(workload.setup(7, str(tmp_path))) != digest(workload.setup(8, str(tmp_path)))


def test_known_failure_is_counted_not_raised(tmp_path):
    workload = WORKLOADS["cli-files"]
    inputs = workload.setup(3, str(tmp_path))
    ops, _ = run_task(workload, inputs, str(tmp_path))
    assert [label for label, ok in ops if not ok] == [
        "estimate flat (recovery error <= 1e-06)"
    ]


def test_tracer_restores_bindings_even_after_an_error():
    before = subrec_bindings()
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert subrec.experiments.estimate is not before[("subrec.experiments", "estimate")]
            assert subrec.cli.write_json is not before[("subrec.cli", "write_json")]
            subrec.estimate([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
            raise RuntimeError("leave the block early")
    after = subrec_bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert [s.name for s in tracer.spans] == ["estimate"]


def test_tracer_under_many_sweep_threads():
    tracer = tracing.Tracer()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.installed():
            rows = subrec.exact_recovery_sweep(6, 2, 10, [8, 12], trials=12, seed=3, threads=8)
    finally:
        sys.setswitchinterval(interval)

    assert len(rows) == 2
    metrics = tracing.layer_metrics(tracer)
    assert metrics["experiments.trials"] == 24
    assert metrics["estimator.calls"] == 24
    assert metrics["synthetic.calls"] == 24
    assert metrics["subspace.calls"] == 48
    assert all(span.end is not None for span in tracer.spans)
    sweep = next(s for s in tracer.spans if s.name == "exact_recovery_sweep")
    trials = [s for s in tracer.spans if s.name == "recovery_trial"]
    # pool workers have no open span of their own: the sweep is their parent
    assert {s.parent for s in trials} == {sweep.id}
    assert metrics["experiments.self_s"] < metrics["experiments.busy_s"]


def test_self_time_subtracts_the_union_of_children():
    tracer = tracing.Tracer()

    def span(span_id, parent, layer, start, end, thread=1):
        s = tracing.Span(span_id, parent, layer, "f", thread, start)
        s.end = end
        tracer.spans.append(s)

    span(0, None, "cli", 0.0, 10.0)
    span(1, 0, "fileio", 1.0, 4.0)
    span(2, 0, "experiments", 3.0, 6.0, thread=2)  # overlaps span 1
    span(3, 0, "estimator", 8.0, 12.0, thread=2)  # clipped at 10
    span(4, 2, "experiments", 3.5, 5.0, thread=2)  # nested in its own layer
    metrics = tracing.layer_metrics(tracer)
    assert metrics["cli.self_s"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert metrics["cli.busy_s"] == pytest.approx(10.0)
    assert metrics["experiments.busy_s"] == pytest.approx(3.0)
    assert metrics["experiments.self_s"] == pytest.approx((3.0 - 1.5) + 1.5)
    assert tracing.covered([(1, 4), (3, 6), (8, 12)], 0, 10) == pytest.approx(7.0)
    assert tracing.peak_concurrency([tracer.spans[1], tracer.spans[2], tracer.spans[4]]) == 3


def result_line(cwd, *args):
    done = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=300,
    )
    return done, done.stdout.strip().splitlines()


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_has_every_declared_metric(trace, section):
    with open(SPEC, encoding="utf-8") as src:
        spec = json.load(src)
    done, lines = result_line(ROOT, "--workload", "certify", "--seed", "5",
                              "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_run_fails_without_the_package_sources(tmp_path):
    shutil.copy(SPEC, tmp_path)
    os.makedirs(tmp_path / "bench")
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(HERE, name), tmp_path / "bench")
    done, lines = result_line(str(tmp_path), "--workload", "certify", "--seed", "1",
                              "--seconds", "1", "--trace", "0")
    assert done.returncode != 0
    assert not any(line.startswith("{") for line in lines)
