"""Tests of the benchmark itself. Run: ``python -m pytest perfbench/tests``."""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parents[2]


def _declared_units():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    return e2e, layers


def test_hooks_restore_every_patched_attribute():
    program = workloads.import_program()
    points = tracing.hook_points(program)
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in points]
    with pytest.raises(RuntimeError, match="boom"):
        with tracing.hooked(tracing.Tracer(), program):
            assert all(getattr(m, a) is not orig for m, a, orig in originals)
            raise RuntimeError("boom")
    assert all(getattr(m, a) is orig for m, a, orig in originals)


def test_union_length_merges_overlaps_and_clips():
    assert tracing.union_length([(0, 2), (1, 3), (5, 6)], 0, 10) == 4
    assert tracing.union_length([(-1, 2), (8, 12)], 0, 10) == 4
    assert tracing.union_length([(0, 10), (2, 3)], 0, 10) == 10


def _traced_op(workload):
    tracer = tracing.Tracer()
    with tracing.hooked(tracer, workload.program):
        start = time.perf_counter()
        workload.run(next(workload.inputs()))
        wall = time.perf_counter() - start
    return tracer.spans, wall


@pytest.mark.parametrize("cls", [workloads.BiasControlVariate, workloads.EllipticalDimension])
def test_self_times_nonnegative_and_within_wall(cls, tmp_path):
    workload = cls(seed=3) if cls is workloads.BiasControlVariate else cls(seed=3, out_dir=tmp_path)
    spans, wall = _traced_op(workload)
    children = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    all_layers = tuple({s.layer for s in spans})
    own = [tracing.self_time(s, children, all_layers) for s in spans]
    assert min(own) >= -1e-9
    engine = [s for s in spans if s.layer in ("evaluation", "dimension")]
    assert all(tracing.self_time(s, children, tracing.WORK_LAYERS) >= 0 for s in engine)
    if workload.jobs == 1:
        # One thread: the spans tile the call, so their self-times add up to at most its wall.
        assert sum(own) <= wall
        m = tracing.layer_metrics(spans, ops=1)
        engine_wall = sum(s.duration for s in engine)
        accounted = m["sampling.busy_s"] + m["core.busy_s"] + m["evaluation.self_s"]
        assert accounted == pytest.approx(engine_wall, rel=1e-9)


def _bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "5",
         "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(report_line)["report"], json.loads(result_line)


def test_units_match_benchmark_json():
    e2e, layers = _declared_units()
    assert run.UNITS == e2e | layers


@pytest.mark.parametrize("workload,trace", [
    *((name, 0) for name in workloads.WORKLOADS),
    ("bias-cv-p3", 1),
    ("elliptical-dimension-n100", 1),
])
def test_smoke_run_passes_gates_and_prints_declared_metrics(workload, trace):
    report, result = _bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(report["determinism"].values())
    e2e, layers = _declared_units()
    declared = layers if trace else e2e
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["core.calls"]["value"] > 0
        assert result["metrics"]["sampling.calls"]["value"] > 0
