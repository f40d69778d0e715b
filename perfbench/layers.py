"""Per-layer host time of a sweep, from spans around each layer's calls.

:func:`traced` patches the public entry points of every layer a
``lap_runtime`` sweep point passes through and records one span per call,
in memory.  Nothing under ``src/`` is changed: the wrappers sit on the
class attributes and registry entries the program looks up at call time,
and are removed when the ``with`` block ends.

A span's self time is its duration minus the time its direct child spans
cover; a layer's time is the sum of its spans' self times.  Every span
carries the index of the sweep point it belongs to, and :func:`chrome_trace`
exports the spans as a Chrome trace with that index as the event ``id``.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from typing import Callable, Dict, Iterator, List, Optional, Sequence

#: Span name -> the layer its self time is charged to.  ``tile_matrix`` is
#: operand preparation, so it is charged with the rest of ``run_workload``'s
#: self time (operand generation and the residual).
LAYER_OF = {
    "engine.executor": "engine.executor",
    "engine.cache.get": "engine.cache.get",
    "engine.cache.put": "engine.cache.put",
    "engine.cache.sidecar_get": "engine.cache.sidecar_get",
    "engine.cache.sidecar_put": "engine.cache.sidecar_put",
    "engine.runners.lap_runtime": "engine.runners",
    "lap.runtime.run_workload": "lap.runtime.operands",
    "lap.runtime.tile_matrix": "lap.runtime.operands",
    "lap.taskgraph.build": "lap.taskgraph.build",
    "lap.runtime.execute": "lap.runtime.schedule",
    "lap.fastpath.arrays": "lap.fastpath.arrays",
    "lap.runtime.schedule_trace": "lap.runtime.trace",
}

#: The traced run's per-layer metrics: name -> unit.
METRICS = {
    "kernels.warmup_s": "s",
    "kernels.warmup_calls": "count",
    "lap.timing.hit_ratio": "ratio",
    "lap.runtime.operands_s": "s",
    "lap.runtime.schedule_s": "s",
    "lap.runtime.tasks": "count",
    "lap.runtime.tasks_per_s": "1/s",
    "lap.taskgraph.build_s": "s",
    "lap.taskgraph.build_calls": "count",
    "lap.fastpath.arrays_s": "s",
    "lap.runtime.trace_s": "s",
    "engine.cache.put_s": "s",
    "engine.cache.put_calls": "count",
    "engine.cache.bytes_written": "bytes",
    "engine.cache.sidecar_put_s": "s",
    "engine.runners.self_s": "s",
    "engine.runners.calls": "count",
    "engine.runners.replayed_ratio": "ratio",
    "engine.cache.get_s": "s",
    "engine.cache.get_calls": "count",
    "engine.cache.hit_ratio": "ratio",
    "engine.cache.sidecar_get_s": "s",
    "engine.executor.self_s": "s",
    "engine.executor.batches": "count",
    "engine.executor.worker_busy_frac": "fraction",
    "trace.overhead_frac": "fraction",
    "trace.spans": "count",
}


class Span:
    __slots__ = ("name", "start", "duration", "child", "point", "depth")

    def __init__(self, name: str, start: float, point: Optional[int],
                 depth: int) -> None:
        self.name = name
        self.start = start
        self.duration = 0.0
        self.child = 0.0
        self.point = point
        self.depth = depth

    @property
    def self_time(self) -> float:
        return self.duration - self.child


class Recorder:
    """Nested spans of one thread, plus the counters the wrappers keep."""

    def __init__(self) -> None:
        self.origin = time.perf_counter()
        self.spans: List[Span] = []
        self.stack: List[Span] = []
        self.point: Optional[int] = None
        self.counts: Dict[str, float] = {}

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    @contextlib.contextmanager
    def span(self, name: str, point: Optional[int] = None) -> Iterator[Span]:
        span = Span(name, time.perf_counter(),
                    self.point if point is None else point, len(self.stack))
        self.stack.append(span)
        try:
            yield span
        finally:
            span.duration = time.perf_counter() - span.start
            self.stack.pop()
            if self.stack:
                self.stack[-1].child += span.duration
            self.spans.append(span)

    def wrap(self, func: Callable, name: str,
             point_of: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """``func`` recording one span per call.

        ``point_of(args)`` names the sweep point a call belongs to (default:
        the point of the enclosing runner call); ``after(args, result)``
        updates counters once the call has returned.
        """
        recorder = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            point = None if point_of is None else point_of(args)
            with recorder.span(name, point):
                result = func(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def layer_seconds(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        for span in self.spans:
            layer = LAYER_OF.get(span.name, "kernels.warmup"
                                 if span.name.startswith("kernels.") else None)
            if layer is not None:
                out[layer] = out.get(layer, 0.0) + span.self_time
        return out

    def span_count(self, name: str) -> int:
        return sum(1 for span in self.spans if span.name == name)


def _patch(stack: contextlib.ExitStack, owner, attr: str, value) -> None:
    """Replace ``owner.attr`` (a class, module or dict) until ``stack`` closes."""
    if isinstance(owner, dict):
        original = owner[attr]
        owner[attr] = value
        stack.callback(owner.__setitem__, attr, original)
    else:
        original = owner.__dict__[attr]
        setattr(owner, attr, value)
        stack.callback(setattr, owner, attr, original)


@contextlib.contextmanager
def traced(recorder: Recorder, jobs: Sequence) -> Iterator[Recorder]:
    """Wrap every layer's entry points while the block runs.

    ``jobs`` is the sweep's job list; a call's sweep point is the index of
    its job (cache calls) or of its parameters (runner calls).
    """
    from repro.engine import runners
    from repro.engine.cache import ResultCache, SidecarStore
    from repro.lap import runtime as runtime_module
    from repro.lap.runtime import LAPRuntime
    from repro.lap.taskgraph import AlgorithmsByBlocks, TaskGraph

    point_of_job = {job: index for index, job in enumerate(jobs)}
    point_of_params = {job.params: index for index, job in enumerate(jobs)}

    def cache_point(args):
        return point_of_job.get(args[1])

    def after_get(args, row):
        recorder.count("get_hits", row is not None)

    def after_put(args, path):
        recorder.count("bytes_written", os.stat(path).st_size)

    def after_execute(args, stats):
        recorder.count("executes")
        timing = args[0].timing
        recorder.count("tasks", stats["tasks_executed"])
        recorder.count("timing_hits", getattr(timing, "hits", 0))
        recorder.count("timing_warm", getattr(timing, "warm_runs", 0))

    run_point = runners.RUNNERS["lap_runtime"]

    def runner(params):
        recorder.point = point_of_params.get(tuple(sorted(params.items())))
        executes = recorder.counts.get("executes", 0)
        try:
            with recorder.span("engine.runners.lap_runtime"):
                row = run_point(params)
        finally:
            recorder.point = None
        # A replayed point returns without ever reaching LAPRuntime.execute.
        recorder.count("replayed", recorder.counts.get("executes", 0) == executes)
        return row

    w = recorder.wrap
    with contextlib.ExitStack() as stack:
        _patch(stack, runners.RUNNERS, "lap_runtime", runner)
        _patch(stack, ResultCache, "get", w(ResultCache.get, "engine.cache.get",
                                            cache_point, after_get))
        _patch(stack, ResultCache, "put", w(ResultCache.put, "engine.cache.put",
                                            cache_point, after_put))
        _patch(stack, SidecarStore, "get",
               w(SidecarStore.get, "engine.cache.sidecar_get"))
        _patch(stack, SidecarStore, "put",
               w(SidecarStore.put, "engine.cache.sidecar_put"))
        for name in ("gemm_tasks", "cholesky_tasks", "lu_tasks", "qr_tasks"):
            _patch(stack, AlgorithmsByBlocks, name,
                   w(getattr(AlgorithmsByBlocks, name), "lap.taskgraph.build"))
        _patch(stack, TaskGraph, "fast_arrays",
               w(TaskGraph.fast_arrays, "lap.fastpath.arrays"))
        _patch(stack, LAPRuntime, "run_workload",
               w(LAPRuntime.run_workload, "lap.runtime.run_workload"))
        _patch(stack, LAPRuntime, "execute",
               w(LAPRuntime.execute, "lap.runtime.execute",
                 after=after_execute))
        _patch(stack, LAPRuntime, "schedule_trace",
               w(LAPRuntime.schedule_trace, "lap.runtime.schedule_trace"))
        _patch(stack, LAPRuntime, "tile_matrix",
               staticmethod(w(LAPRuntime.tile_matrix, "lap.runtime.tile_matrix")))
        # The scheduler calls the kernels through the names bound in its own
        # module, so those bindings are the ones to wrap.
        for name, func in vars(runtime_module).copy().items():
            if name.startswith("lac_") and callable(func):
                _patch(stack, runtime_module, name, w(func, f"kernels.{name}"))
        yield recorder


def layer_metrics(recorder: Recorder) -> Dict[str, float]:
    """Per-layer metrics of one traced sweep (see :data:`METRICS`)."""
    seconds = recorder.layer_seconds()
    counts = recorder.counts

    def ratio(part: float, whole: float) -> float:
        return part / whole if whole else 0.0

    runner_calls = recorder.span_count("engine.runners.lap_runtime")
    get_calls = recorder.span_count("engine.cache.get")
    execute_s = sum(span.duration for span in recorder.spans
                    if span.name == "lap.runtime.execute")
    timing_hits = counts.get("timing_hits", 0)
    return {
        "kernels.warmup_s": seconds.get("kernels.warmup", 0.0),
        "kernels.warmup_calls": sum(1 for span in recorder.spans
                                    if span.name.startswith("kernels.")),
        "lap.timing.hit_ratio": ratio(timing_hits,
                                      timing_hits + counts.get("timing_warm", 0)),
        "lap.runtime.operands_s": seconds.get("lap.runtime.operands", 0.0),
        "lap.runtime.schedule_s": seconds.get("lap.runtime.schedule", 0.0),
        "lap.runtime.tasks": counts.get("tasks", 0),
        "lap.runtime.tasks_per_s": ratio(counts.get("tasks", 0), execute_s),
        "lap.taskgraph.build_s": seconds.get("lap.taskgraph.build", 0.0),
        "lap.taskgraph.build_calls": recorder.span_count("lap.taskgraph.build"),
        "lap.fastpath.arrays_s": seconds.get("lap.fastpath.arrays", 0.0),
        "lap.runtime.trace_s": seconds.get("lap.runtime.trace", 0.0),
        "engine.cache.put_s": seconds.get("engine.cache.put", 0.0),
        "engine.cache.put_calls": recorder.span_count("engine.cache.put"),
        "engine.cache.bytes_written": counts.get("bytes_written", 0),
        "engine.cache.sidecar_put_s": seconds.get("engine.cache.sidecar_put", 0.0),
        "engine.runners.self_s": seconds.get("engine.runners", 0.0),
        "engine.runners.calls": runner_calls,
        "engine.runners.replayed_ratio": ratio(counts.get("replayed", 0),
                                               runner_calls),
        "engine.cache.get_s": seconds.get("engine.cache.get", 0.0),
        "engine.cache.get_calls": get_calls,
        "engine.cache.hit_ratio": ratio(counts.get("get_hits", 0), get_calls),
        "engine.cache.sidecar_get_s": seconds.get("engine.cache.sidecar_get", 0.0),
        "engine.executor.self_s": seconds.get("engine.executor", 0.0),
        "trace.spans": len(recorder.spans),
    }


def chrome_trace(recorder: Recorder, metadata: Optional[dict] = None) -> dict:
    """The spans as a Chrome trace (microseconds, one ``id`` per sweep point)."""
    from repro.obs.chrome import to_chrome_trace

    events = [{"name": "process_name", "ph": "M", "ts": 0, "pid": 0,
               "args": {"name": "sweep (host time)"}}]
    for span in sorted(recorder.spans, key=lambda s: (s.start, s.depth)):
        event = {"name": span.name, "cat": "layer", "ph": "X", "pid": 0,
                 "tid": 0,
                 "ts": round((span.start - recorder.origin) * 1e6, 3),
                 "dur": round(span.duration * 1e6, 3),
                 "args": {"self_us": round(span.self_time * 1e6, 3)}}
        if span.point is not None:
            event["id"] = span.point
            event["args"]["point"] = span.point
        events.append(event)
    return to_chrome_trace(events, metadata=metadata, time_unit="us")
