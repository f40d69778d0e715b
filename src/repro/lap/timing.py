"""Timing models: decouple task cycle counts from functional execution.

The LAC runs its kernels in lock step, so the cycle count of a tile task is
a pure function of its (kind, tile shapes, precision) -- not of the tile
*values*.  The runtime exploits that through a timing model:

``functional``
    every task is executed on the cycle-level simulator; the cycle count is
    the simulator's counter delta and the tile data is always exact.
``memoized``
    the first task of each (kind, shapes, precision, scaling) signature runs
    functionally and its cycle count is cached; every later task with the
    same signature is charged the cached count without touching the
    simulator.  Large graphs (e.g. a 4096^2 Cholesky at tile 128) then
    schedule in seconds instead of hours.  With ``verify=True`` the runtime
    applies a fast NumPy reference update for memoized tasks so that the
    factors stay numerically exact and residual verification is retained;
    with ``verify=False`` the tile data goes stale after the warm-up runs
    and residuals are unavailable.

The model object also records warm-up wall time per signature, which lets a
benchmark compare a memoized schedule against a (measured, per-signature)
estimate of the full functional path without paying for it.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple, Union

from repro.lap.taskgraph import TaskDescriptor

#: Cache signature of one task: (kind, tile shapes, precision, unit-alpha,
#: transpose) -- everything that selects a kernel code path.
TaskSignature = Tuple


def task_signature(task: TaskDescriptor, shapes: Tuple, precision: str) -> TaskSignature:
    """Signature under which a task's cycle count is memoizable."""
    return (task.kind.value, shapes, precision, task.alpha == 1.0,
            bool(task.transpose_b))


def compose_task_cycles(compute_cycles: float, stall_cycles: float,
                        overlap_fraction: float = 0.0,
                        local_transfer_cycles: float = 0.0) -> float:
    """Compose compute cycles with data-movement cycles into one duration.

    ``stall_cycles`` is the off-chip transfer time of the spill refills the
    task caused (:class:`repro.lap.memory.BandwidthModel`); compulsory
    streaming is assumed fully overlapped by the LAP's double buffering and
    never appears here.  ``local_transfer_cycles`` is the shared-to-local
    movement of the two-level hierarchy (:class:`repro.lap.fastpath.FastLocalStore`
    fills through the on-chip bandwidth); it defaults to 0 so single-level
    callers are unchanged.  ``overlap_fraction`` models partial prefetching
    of both terms under compute (0 = fully serialised, the conservative
    default; 1 = fully hidden).
    """
    if compute_cycles < 0 or stall_cycles < 0 or local_transfer_cycles < 0:
        raise ValueError("cycle counts must be non-negative")
    if not (0.0 <= overlap_fraction <= 1.0):
        raise ValueError("overlap fraction must lie in [0, 1]")
    return (compute_cycles
            + (stall_cycles + local_transfer_cycles) * (1.0 - overlap_fraction))


def decompose_task_cycles(compute_cycles: float, stall_cycles: float,
                          overlap_fraction: float = 0.0,
                          local_transfer_cycles: float = 0.0) -> Dict[str, float]:
    """Split one task's duration into its attributable cycle components.

    The exact inverse view of :func:`compose_task_cycles`: the returned
    ``compute`` / ``spill_stall`` / ``transfer`` components sum to the
    composed duration (``spill_stall`` and ``transfer`` are the *visible*
    parts after ``overlap_fraction`` hides their complement under compute),
    and ``hidden`` reports the movement cycles prefetching absorbed.  The
    observability layer attaches this dictionary to every task span so
    traces and :class:`repro.obs.attribution.CycleAttribution` agree by
    construction.
    """
    visible = 1.0 - overlap_fraction
    spill_stall = stall_cycles * visible
    transfer = local_transfer_cycles * visible
    total = compose_task_cycles(compute_cycles, stall_cycles,
                                overlap_fraction, local_transfer_cycles)
    return {
        "compute": compute_cycles,
        "spill_stall": spill_stall,
        "transfer": transfer,
        "hidden": (stall_cycles + local_transfer_cycles) - spill_stall - transfer,
        "total": total,
    }


class TimingModel:
    """Base timing model: how a scheduled task obtains its cycle count.

    ``ctx`` is the runtime's execution context, providing ``functional(task)``
    (simulate on the assigned core, update tiles, return cycles),
    ``reference(task)`` (NumPy tile update, no cycles) and
    ``signature(task)``.
    """

    name = "functional"

    def keeps_data(self, verify: bool) -> bool:
        """Whether tile data stays numerically valid under this model."""
        return True

    def task_cycles(self, task: TaskDescriptor, ctx, verify: bool) -> int:
        raise NotImplementedError


class FunctionalTiming(TimingModel):
    """Run every task on the simulator (the pre-refactor behaviour)."""

    name = "functional"

    def task_cycles(self, task: TaskDescriptor, ctx, verify: bool) -> int:
        return ctx.functional(task)


class MemoizedTiming(TimingModel):
    """Memoize per-signature cycle counts after one functional run each."""

    name = "memoized"

    def __init__(self) -> None:
        #: Cycle count of the warm-up run per signature.
        self.cycles_by_signature: Dict[TaskSignature, int] = {}
        #: Wall-clock seconds of the warm-up run per signature.
        self.warm_seconds_by_signature: Dict[TaskSignature, float] = {}
        #: Tasks charged per signature since construction / reset_stats().
        self.task_counts: Dict[TaskSignature, int] = {}
        self.warm_runs = 0
        self.hits = 0

    def keeps_data(self, verify: bool) -> bool:
        return bool(verify)

    def reset_stats(self) -> None:
        """Zero the hit/warm counters (the cycle cache is kept)."""
        self.task_counts = {}
        self.warm_runs = 0
        self.hits = 0

    def bulk_charge(self, signature: TaskSignature, count: int) -> None:
        """Charge ``count`` cache hits of one signature in a single call.

        The fast scheduler loop (:mod:`repro.lap.fastpath`) resolves cycle
        counts through a per-group table instead of calling
        :meth:`task_cycles` per task; it reconciles the hit/count statistics
        here so ``hits`` / ``task_counts`` /
        :meth:`estimated_functional_seconds` match a per-task run exactly.
        """
        if count <= 0:
            return
        self.task_counts[signature] = self.task_counts.get(signature, 0) + count
        self.hits += count

    @property
    def warm_seconds(self) -> float:
        """Total wall time spent in functional warm-up runs."""
        return sum(self.warm_seconds_by_signature.values())

    def estimated_functional_seconds(self) -> float:
        """Measured-cost estimate of running every charged task functionally.

        Sums, over every task this model has scheduled, the wall time of the
        functional warm-up run of that task's signature -- i.e. what the
        ``functional`` timing model would have cost, estimated from real
        measurements instead of being paid.
        """
        return sum(count * self.warm_seconds_by_signature.get(sig, 0.0)
                   for sig, count in self.task_counts.items())

    def task_cycles(self, task: TaskDescriptor, ctx, verify: bool) -> int:
        signature = ctx.signature(task)
        self.task_counts[signature] = self.task_counts.get(signature, 0) + 1
        cached = self.cycles_by_signature.get(signature)
        if cached is None:
            started = time.perf_counter()
            cycles = ctx.functional(task)
            self.warm_seconds_by_signature[signature] = time.perf_counter() - started
            self.cycles_by_signature[signature] = cycles
            self.warm_runs += 1
            return cycles
        self.hits += 1
        if verify:
            ctx.reference(task)
        return cached


#: Registry of timing models by CLI/runner name.
TIMING_MODELS: Dict[str, type] = {
    FunctionalTiming.name: FunctionalTiming,
    MemoizedTiming.name: MemoizedTiming,
}


def timing_names() -> List[str]:
    """Names accepted by ``LAPRuntime(timing=...)`` and the sweep CLI."""
    return sorted(TIMING_MODELS)


def get_timing_model(timing: Union[str, TimingModel, None]) -> TimingModel:
    """Resolve a timing-model name (or pass an instance through)."""
    if timing is None:
        return FunctionalTiming()
    if isinstance(timing, TimingModel):
        return timing
    try:
        return TIMING_MODELS[str(timing)]()
    except KeyError:
        raise ValueError(f"unknown timing model '{timing}'; known models: "
                         f"{', '.join(timing_names())}") from None
