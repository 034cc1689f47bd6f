"""Benchmark of the spectra-shrink chunk engine: sample -> decompose -> reduce.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The package is imported from the checkout's ``src``. BLAS threads are
pinned to 1 before numpy loads, so a run uses at most ``jobs`` compute
threads. Each invocation:

1. sets the workload up from the seed and checks determinism once, outside
   the timed phase: outputs are identical with tracing on and off, and a
   multi-threaded workload gives the same bytes at ``--jobs 1``;
2. runs the closed loop for ``--seconds`` (and, for the risk table, until
   every row has run once), gating every operation's output;
3. with ``--trace 0`` reports the end-to-end metrics, including the median
   set-up time of several fresh interpreters; with ``--trace 1`` runs the
   loop again with every layer hooked and reports per-layer metrics, and
   writes the spans to ``.perfbench-out/``.

Operation times are medians. A single-threaded operation's time is also
divided by a calibration kernel timed around it, because the speed of a
shared machine drifts (see ``Calibration``); set-up is scaled the same way.

All but the last stdout line is a JSON report (environment, workload,
determinism, phases). The last line is the result:
``{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PIN_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
MAX_FAILURES_KEPT = 5
#: Seconds the calibration kernel takes at the reference speed: the
#: benchmark's 2-core Xeon sandbox, uncontended.
KERNEL_REF_S = 0.019

UNITS = {
    "reps_per_s": "1/s",
    "time_to_se_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
    "core.calls": "count/op",
    "core.matrices": "count/op",
    "core.vector_calls": "count/op",
    "core.busy_s": "s/op",
    "core.chunk_ms_p50": "ms",
    "core.chunk_ms_p90": "ms",
    "sampling.calls": "count/op",
    "sampling.busy_s": "s/op",
    "sampling.chunk_ms_p50": "ms",
    "sampling.chunk_ms_p90": "ms",
    "sampling.bytes_computed": "B/op",
    "evaluation.self_s": "s/op",
    "dimension.self_s": "s/op",
    "cli.self_s": "s/op",
    "sampling.map_chunks.wall_s": "s/op",
    "sampling.map_chunks.worker_util": "ratio",
    "trace.overhead_ratio": "ratio",
}


class Calibration:
    """A fixed small-array numpy kernel that does not use the package.

    The speed of a shared sandbox drifts by up to 2x for seconds at a time.
    Timing this kernel just before and just after a single-threaded
    operation, on the same thread, and dividing it out gives the operation's
    time at the reference speed: wall / kernel wall x KERNEL_REF_S.
    """

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        self.a = np.random.default_rng(0).standard_normal((4096, 6, 6))

    def __call__(self) -> float:
        np, x = self.np, self.a
        start = time.perf_counter()
        for _ in range(10):
            y = x @ x.transpose(0, 2, 1)
            x = self.a + 1e-3 * np.sqrt(np.abs(y)).sum(axis=2)[:, :, None]
        return time.perf_counter() - start


@dataclass
class Phase:
    """One timed closed-loop phase."""

    traced: bool
    attempted: int = 0
    failed: int = 0
    reps: int = 0
    wall_s: float = 0.0
    variance: float = 0.0
    op_s: list[float] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)  # before each op and after the last
    failures: list[str] = field(default_factory=list)

    @property
    def op_time_s(self) -> float:
        """Median operation time, at the reference speed when calibrated.

        A median, because a drift in machine speed moves a median of
        per-operation times less than the total over the phase.
        """
        if not self.kernel_s:
            return statistics.median(self.op_s)
        ks = self.kernel_s
        return KERNEL_REF_S * statistics.median(
            2.0 * wall / (before + after) for wall, before, after in zip(self.op_s, ks, ks[1:])
        )

    @property
    def reps_per_s(self) -> float:
        """Replicates per second of the median operation; failed operations add no reps."""
        return self.reps / self.attempted / self.op_time_s if self.reps else 0.0


def run_phase(workload, seconds: float, calibration: Calibration | None, traced: bool = False) -> Phase:
    phase = Phase(traced=traced)
    tally = workload.new_tally()
    start = time.perf_counter()
    if calibration is not None:
        phase.kernel_s.append(calibration())
    for inp in workload.inputs():
        phase.attempted += 1
        op_start = time.perf_counter()
        try:
            output = workload.run(inp)
            problem = workload.check(output)
        except Exception as exc:  # a failed operation is counted; the loop goes on
            traceback.print_exc(file=sys.stderr)
            problem = f"{type(exc).__name__}: {exc}"
        phase.op_s.append(time.perf_counter() - op_start)
        if calibration is not None:
            phase.kernel_s.append(calibration())
        if problem is None:
            workload.record(tally, inp, output)
            phase.reps += workload.reps
        else:
            phase.failed += 1
            if len(phase.failures) < MAX_FAILURES_KEPT:
                phase.failures.append(problem)
        if time.perf_counter() - start >= seconds and workload.covered(phase.attempted):
            break
    phase.wall_s = time.perf_counter() - start
    if phase.reps:
        phase.variance = workload.variance(tally)
    return phase


def determinism(workload, tracing) -> dict[str, bool]:
    """Same outputs with tracing on and off, and at --jobs 1 for a threaded workload."""
    inp = next(workload.inputs())
    plain = workload.fingerprint(workload.run(inp))
    with tracing.hooked(tracing.Tracer(), workload.program):
        traced = workload.fingerprint(workload.run(inp))
    checks = {"trace_on_equals_off": plain == traced}
    if workload.jobs > 1:
        serial = workload.fingerprint(workload.run(inp, jobs=1))
        checks[f"jobs_{workload.jobs}_equals_jobs_1"] = plain == serial
    return checks


def setup_seconds(name: str, calibration: Calibration) -> tuple[float, list[float]]:
    """Median time from spawning a fresh interpreter until the workload is
    ready, at the reference speed.

    Set-up runs in a child process, on either core, so it is scaled by the
    median of kernel times taken between the probes rather than pair by pair.
    """
    times, kernels = [], [calibration() for _ in range(3)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), name],
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
        ) as proc:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe for {name} failed (exit {proc.returncode})")
        times.append(elapsed)
        kernels.extend(calibration() for _ in range(3))
    return KERNEL_REF_S * statistics.median(times) / statistics.median(kernels), times


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without leaving it."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, jobs: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_pin": {var: os.environ[var] for var in PIN_VARS},
        "compute_threads": jobs,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in PIN_VARS:
        os.environ[var] = "1"
    # Imported only now: numpy reads the thread pin when it loads.
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed)
    calibration = Calibration()
    # A threaded operation runs on both cores; a one-core kernel tracked it
    # worse than its raw wall, so only single-threaded ones are scaled.
    op_calibration = calibration if workload.jobs == 1 else None
    report = {
        "environment": environment(args.seed, workload.jobs),
        "workload": workload.describe(),
        "determinism": determinism(workload, tracing),
    }
    untraced = run_phase(workload, args.seconds, op_calibration)
    phases = [untraced]
    if args.trace:
        tracer = tracing.Tracer()
        with tracing.hooked(tracer, workload.program):
            traced = run_phase(workload, args.seconds, op_calibration, traced=True)
        phases.append(traced)
        workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_file = workloads.OUT_DIR / f"trace-{workload.name}-seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_file)
        report["trace_file"] = str(trace_file.relative_to(ROOT))
        seen = {span.layer for span in tracer.spans}
        missing = [layer for layer in workload.layers + ("sched",) if layer not in seen]
        if missing:
            raise RuntimeError(f"traced run recorded no calls in {missing}: a hook no longer reaches them")
        values = tracing.layer_metrics(tracer.spans, traced.attempted)
        values["trace.overhead_ratio"] = (
            traced.reps_per_s / untraced.reps_per_s if untraced.reps_per_s else 0.0
        )
    else:
        setup_s, setup_walls = setup_seconds(workload.name, calibration)
        report["setup_wall_s"] = setup_walls
        seconds_per_rep = 1.0 / untraced.reps_per_s if untraced.reps else 0.0
        values = {
            "reps_per_s": untraced.reps_per_s,
            "time_to_se_s": seconds_per_rep * untraced.variance / workload.target_se**2,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (untraced.attempted - untraced.failed) / untraced.attempted,
        }
    report["phases"] = [
        asdict(p) | {"op_time_s": p.op_time_s, "reps_per_s": p.reps_per_s,
                     "reps_per_wall_s": p.reps / p.wall_s}
        for p in phases
    ]
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": failed == 0 and all(report["determinism"].values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
