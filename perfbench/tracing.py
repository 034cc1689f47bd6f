"""In-memory spans around the package's layers, recorded from outside it.

A hook replaces a public name at the place its caller looks it up (a
module attribute), records one span per call, and puts the original back
when the ``hooked`` block exits, even on error. Spans carry name, layer,
start, end, parent and thread; a chunk worker running on a pool thread is
parented to the ``map_chunks`` span that scheduled it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

import numpy as np

#: Layers whose spans are subtracted from an engine span to get its self time.
WORK_LAYERS = ("sampling", "core")


@dataclass
class Span:
    id: int
    name: str
    layer: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects finished spans; safe to use from several threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, layer: str, parent: int | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1].id
        with self._lock:
            span_id = next(self._ids)
        span = Span(span_id, name, layer, parent, threading.get_ident(), time.perf_counter())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(span)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s.start):
                fh.write(json.dumps(asdict(span)) + "\n")


def _scatter_attrs(args, kwargs, result) -> dict:
    spectrum, n, distribution = args[:3]
    rows, p = result.shape[0], spectrum.p
    # Variates the law draws per chunk under the stream contract, plus the
    # returned chunk: computed from array sizes, not measured memory traffic.
    per_row = p + p * (p - 1) // 2 if distribution == "wishart" else n * p + 1
    return {"rows": rows, "bytes_computed": 8 * rows * per_row + result.nbytes}


def _eigh_attrs(args, kwargs, result) -> dict:
    vectors = args[1] if len(args) > 1 else kwargs.get("compute_vectors", True)
    return {"matrices": args[0].shape[0], "vectors": bool(vectors)}


def _timed(tracer: Tracer, original, name: str, layer: str, describe=None):
    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        with tracer.span(name, layer) as span:
            result = original(*args, **kwargs)
            if describe is not None:
                span.attrs.update(describe(args, kwargs, result))
            return result

    return wrapper


def _timed_map_chunks(tracer: Tracer, original):
    @functools.wraps(original)
    def wrapper(worker, n_chunks, jobs=1):
        workers = min(jobs, n_chunks) if jobs > 1 and n_chunks > 1 else 1
        with tracer.span("sampling.map_chunks", "sched") as outer:
            outer.attrs["workers"] = workers

            def traced_worker(index):
                with tracer.span("sampling.map_chunks.worker", "sched", parent=outer.id) as span:
                    cpu = time.thread_time()
                    try:
                        return worker(index)
                    finally:
                        span.attrs["cpu_s"] = time.thread_time() - cpu

            return original(traced_worker, n_chunks, jobs)

    return wrapper


def hook_points(program) -> list[tuple[object, str, object]]:
    """(module, attribute, wrapper factory) for every hooked public name.

    ``eigh_descending_batch`` is hooked as bound in ``evaluation``, which
    every engine reaches through ``evaluation._batch_rates``; the engines
    the CLI runs are hooked as bound in ``cli``.
    """
    sampling, evaluation, cli = program.sampling, program.evaluation, program.cli

    def plain(name, layer, describe=None):
        return lambda tracer, original: _timed(tracer, original, name, layer, describe)

    return [
        (sampling, "scatter_chunk", plain("sampling.scatter_chunk", "sampling", _scatter_attrs)),
        (sampling, "map_chunks", _timed_map_chunks),
        (evaluation, "eigh_descending_batch", plain("core.eigh_descending_batch", "core", _eigh_attrs)),
        (evaluation, "compare_risks", plain("evaluation.compare_risks", "evaluation")),
        (evaluation, "simulate_bias", plain("evaluation.simulate_bias", "evaluation")),
        (cli, "dimension_experiment_for_spectrum",
         plain("dimension.dimension_experiment_for_spectrum", "dimension")),
        (cli, "main", plain("cli.main", "cli")),
    ]


@contextmanager
def hooked(tracer: Tracer, program):
    """Patch every hook point for the duration of the block, then restore."""
    saved = []
    try:
        for module, attr, factory in hook_points(program):
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, factory(tracer, original))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_time(span: Span, children: dict, layers: tuple[str, ...]) -> float:
    """``span``'s duration minus the part of it covered by descendants in ``layers``.

    The search stops at the first descendant in ``layers`` on each path, so
    nested spans are not counted twice; spans of parallel workers are merged
    as a union of intervals.
    """
    covered = []
    pending = list(children.get(span.id, ()))
    while pending:
        child = pending.pop()
        if child.layer in layers:
            covered.append((child.start, child.end))
        else:
            pending.extend(children.get(child.id, ()))
    return span.duration - union_length(covered, span.start, span.end)


def layer_metrics(spans: list[Span], ops: int) -> dict[str, float]:
    """Per-operation layer metrics from one traced phase of ``ops`` operations."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    by_layer: dict[str, list[Span]] = {}
    for span in spans:
        by_layer.setdefault(span.layer, []).append(span)

    def durations_ms(layer):
        return [1e3 * s.duration for s in by_layer.get(layer, ())] or [0.0]

    core = by_layer.get("core", [])
    sampling = by_layer.get("sampling", [])
    maps = [s for s in spans if s.name == "sampling.map_chunks"]
    workers = [s for s in spans if s.name == "sampling.map_chunks.worker"]
    map_wall = sum(s.duration for s in maps)
    map_capacity = sum(s.duration * s.attrs["workers"] for s in maps)
    out = {
        "core.calls": len(core) / ops,
        "core.matrices": sum(s.attrs["matrices"] for s in core) / ops,
        "core.vector_calls": sum(s.attrs["vectors"] for s in core) / ops,
        "core.busy_s": sum(s.duration for s in core) / ops,
        "core.chunk_ms_p50": float(np.percentile(durations_ms("core"), 50)),
        "core.chunk_ms_p90": float(np.percentile(durations_ms("core"), 90)),
        "sampling.calls": len(sampling) / ops,
        "sampling.busy_s": sum(s.duration for s in sampling) / ops,
        "sampling.chunk_ms_p50": float(np.percentile(durations_ms("sampling"), 50)),
        "sampling.chunk_ms_p90": float(np.percentile(durations_ms("sampling"), 90)),
        "sampling.bytes_computed": sum(s.attrs["bytes_computed"] for s in sampling) / ops,
        "sampling.map_chunks.wall_s": map_wall / ops,
        # CPU time, not wall: a worker waiting for the interpreter lock is not busy.
        "sampling.map_chunks.worker_util": (
            sum(s.attrs["cpu_s"] for s in workers) / map_capacity if map_capacity else 0.0
        ),
    }
    for engine in ("evaluation", "dimension"):
        out[f"{engine}.self_s"] = (
            sum(self_time(s, children, WORK_LAYERS) for s in by_layer.get(engine, ())) / ops
        )
    out["cli.self_s"] = sum(self_time(s, children, ("dimension",)) for s in by_layer.get("cli", ())) / ops
    return out
