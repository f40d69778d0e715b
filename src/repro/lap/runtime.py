"""Host-side programming model for the LAP: the layered task-graph runtime.

The dissertation's programming environment (Figure 1.2) layers a standard
linear-algebra library on top of the accelerator: the host library breaks a
large routine into *atomic* block operations (e.g. 128 x 128 GEMM, TRSM,
SYRK, Cholesky tiles), passes each to the LAP through a thin device-driver
interface (operation code + operand locations), and the LAP raises an
interrupt when the result block is ready.  Invocation is coarse-grained and
asynchronous so that the host stays busy.

The runtime is layered (TaskGraph -> Scheduler -> TimingModel -> LAP):

* :mod:`repro.lap.taskgraph` -- the IR: :class:`TaskKind`,
  :class:`TaskDescriptor`, :class:`TaskGraph` and the
  :class:`AlgorithmsByBlocks` decompositions (GEMM, Cholesky, LU, tiled QR);
* :mod:`repro.lap.policies` -- the scheduling policies (greedy
  earliest-core, critical-path priority, locality-aware, memory-aware,
  affinity);
* :mod:`repro.lap.fastpath` -- the one scheduler loop: an event-driven
  ready heap (O(V log V + E) for the static policies) with the policies,
  the memoized timing lookup and the residency updates inlined;
* :mod:`repro.lap.timing` -- timing models: ``functional`` executes every
  task on the cycle-level simulator, ``memoized`` caches per-(kind, shape,
  precision) cycle counts after one functional run so that large graphs
  schedule in seconds;
* :mod:`repro.lap.memory` -- the unified memory-hierarchy layer: an LRU
  tile-residency model over the shared on-chip capacity, optionally topped
  by per-core local stores (``local_store_kb``, the two-level hierarchy),
  plus a bandwidth model that turns spill refills into stall cycles and a
  per-task energy model (pJ/flop + pJ/byte); every schedule reports
  off-chip traffic, stalls and GFLOPS/W alongside the makespan, and the
  two-level model splits on-chip movement into local-hit / core-to-core /
  shared-to-local traffic;
* :class:`LAPRuntime` (this module) -- the driver that binds them to the
  cores of a :class:`repro.lap.chip.LinearAlgebraProcessor` (optionally
  with heterogeneous per-core clock frequencies), runs the tile kernels the
  timing model asks for, and turns a finished schedule into tracer spans,
  a cycle attribution and a replayable :class:`ScheduleTrace`.

``AlgorithmsByBlocks``, ``TaskDescriptor`` and ``TaskKind`` are re-exported
here for backwards compatibility with pre-refactor imports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.kernels.blocked_factorizations import lac_lu_blocked, lac_qr_blocked
from repro.kernels.cholesky import lac_cholesky
from repro.kernels.gemm import lac_gemm
from repro.kernels.qr import lac_apply_reflectors
from repro.kernels.syrk import lac_syrk
from repro.kernels.trsm import lac_trsm
from repro.lap.chip import LinearAlgebraProcessor
from repro.lap.fastpath import ScheduleTrace, execute_fast
from repro.lap.memory import MemoryHierarchy
from repro.lap.policies import SchedulerPolicy, get_policy
from repro.lap.taskgraph import (_TASK_FLOPS, AlgorithmsByBlocks,
                                 TaskDescriptor, TaskGraph, TaskKind)
from repro.lap.timing import (TimingModel, decompose_task_cycles,
                              get_timing_model, task_signature)
from repro.obs.attribution import CycleAttribution, idle_gaps
from repro.obs.tracer import Tracer
from repro.reference.factorizations import (ref_apply_reflectors,
                                            ref_householder_qr_factored,
                                            ref_lu_nopivot)

__all__ = [
    "AlgorithmsByBlocks", "LAPRuntime", "TaskDescriptor", "TaskExecution",
    "TaskGraph", "TaskKind",
]


@dataclass
class TaskExecution:
    """Record of one executed task (which core ran it, and when).

    Times are in cycles of the reference clock (the chip frequency); with
    homogeneous cores and no bandwidth stalls they are exact integers.
    ``stall_cycles`` / ``refill_bytes`` / ``energy_j`` carry the task's
    data-movement accounting when the memory hierarchy is enabled;
    ``compute_cycles`` is the pre-movement duration (what the cycle
    decomposition attributes to compute), ``spill_bytes`` the capacity-miss
    part of ``refill_bytes``, and ``shared_to_local_bytes`` / ``c2c_bytes``
    the on-chip movement of the two-level hierarchy (their sum is
    ``transfer_bytes``).
    """

    task_id: int
    kind: TaskKind
    core_index: int
    start_cycle: float
    end_cycle: float
    stall_cycles: float = 0.0
    refill_bytes: float = 0.0
    energy_j: float = 0.0
    local_transfer_cycles: float = 0.0
    local_hit_bytes: float = 0.0
    compute_cycles: float = 0.0
    spill_bytes: float = 0.0
    shared_to_local_bytes: float = 0.0
    c2c_bytes: float = 0.0
    #: Dirty-eviction bytes this task's fetches forced; with
    #: ``refill_bytes`` it gives the task's off-chip bytes, the third
    #: factor of the per-task energy triple schedule replay re-keys.
    writeback_bytes: float = 0.0

    @property
    def cycles(self) -> float:
        return self.end_cycle - self.start_cycle

    @property
    def transfer_bytes(self) -> float:
        """Shared-to-local plus core-to-core bytes (two-level hierarchy)."""
        return self.shared_to_local_bytes + self.c2c_bytes


class _ExecutionContext:
    """What a :class:`TimingModel` may do with a scheduled task.

    Bound to one ``execute()`` call; ``core_index`` is set by the scheduler
    loop before each task is timed.
    """

    def __init__(self, runtime: "LAPRuntime", tiles: Dict):
        self._runtime = runtime
        self._tiles = tiles
        self.core_index = 0
        self.precision = runtime.lap.config.precision.value

    def functional(self, task: TaskDescriptor) -> int:
        """Run the task on the assigned core's simulator; returns cycles."""
        return self._runtime._run_task(task, self.core_index, self._tiles)

    def reference(self, task: TaskDescriptor) -> None:
        """Apply the task's NumPy reference update to the tiles (no cycles)."""
        self._runtime._run_task_reference(task, self._tiles)

    def signature(self, task: TaskDescriptor):
        """Memoization signature of the task (kind, shapes, precision, ...)."""
        return task_signature(task, self._runtime._task_shapes(task, self._tiles),
                              self.precision)


class LAPRuntime:
    """Dispatches tile tasks onto the cores of a LAP.

    :meth:`execute` schedules a task graph with the scheduler loop of
    :mod:`repro.lap.fastpath`; the ``run_*`` drivers build seeded operands
    and a graph for one named workload and verify the result.

    Parameters
    ----------
    lap:
        The chip the task graphs run on.
    tile:
        Edge length of one square tile (a multiple of the core dimension).
    policy:
        Scheduling policy name or an instance of one of the five stock
        policy classes (see :func:`repro.lap.policies.get_policy`).
    timing:
        Timing model name or instance (see :mod:`repro.lap.timing`).
    core_frequencies_ghz:
        Optional per-core clock frequencies for heterogeneous-tile studies;
        defaults to the homogeneous chip frequency.  Scheduling then happens
        in reference-clock cycles (task cycles are scaled by
        ``f_ref / f_core``), where the reference clock is the chip frequency.
    memory:
        Data-movement accounting: ``True`` (default) simulates tile
        residency / bandwidth stalls / energy through a fresh
        :class:`repro.lap.memory.MemoryHierarchy` per ``execute()``;
        ``False`` disables it (compute-only scheduling, the pre-refactor
        behaviour).
    on_chip_kb:
        Override of the residency capacity in KiB (defaults to the chip's
        physical on-chip memory) -- the axis capacity sweeps shrink.
    bandwidth_gbs:
        Override of the sustained off-chip bandwidth in GB/s (defaults to
        the chip's off-chip interface).
    offchip_pj_per_byte:
        Override of the off-chip interface's access energy in pJ/byte (a
        DRAM-technology sweep axis; defaults to the chip interface's
        constant).  Only the energy/GFLOPS-per-W columns depend on it, so
        sweeps across it replay recorded schedules exactly.
    local_store_kb:
        Per-core local-store budget in KiB; enables the two-level hierarchy
        (a per-core local store above the shared residency).  ``None`` (default) keeps the single-level model, whose
        schedules and traffic are byte-identical to the pre-local-store
        runtime.
    stall_overlap:
        Fraction of the data-movement cycles (spill-refill stalls and
        shared-to-local transfers) hidden under compute by prefetching, in
        [0, 1] (see :func:`repro.lap.timing.compose_task_cycles`); 0
        (default) fully serialises them, 1 hides them entirely.
    tracer:
        Optional :class:`repro.obs.tracer.Tracer`: after each ``execute()``
        every executed task becomes a span on its core's track (args
        carrying the cycle decomposition and data-movement bytes),
        scheduler-idle gaps become ``idle`` spans, and spill/stall counters
        accumulate timestamped series in dispatch order.  The spans are
        built from the recorded execution rows, so tracing never changes
        the schedule; ``None`` (default) and a disabled tracer record
        nothing.
    """

    def __init__(self, lap: LinearAlgebraProcessor, tile: int,
                 policy: Union[str, SchedulerPolicy, None] = "greedy",
                 timing: Union[str, TimingModel, None] = "functional",
                 core_frequencies_ghz: Optional[Sequence[float]] = None,
                 memory: bool = True,
                 on_chip_kb: Optional[float] = None,
                 bandwidth_gbs: Optional[float] = None,
                 local_store_kb: Optional[float] = None,
                 stall_overlap: float = 0.0,
                 tracer: Optional[Tracer] = None,
                 offchip_pj_per_byte: Optional[float] = None):
        self.lap = lap
        self.tile = tile
        self.library = AlgorithmsByBlocks(tile, nr=lap.config.nr)
        self.policy = get_policy(policy)
        self.timing = get_timing_model(timing)
        self.memory_enabled = bool(memory)
        self.on_chip_kb = on_chip_kb
        self.bandwidth_gbs = bandwidth_gbs
        self.local_store_kb = (None if local_store_kb is None
                               else float(local_store_kb))
        #: Off-chip access-energy override in pJ/byte (a DRAM-technology
        #: sweep axis); ``None`` keeps the chip interface's constant.  Only
        #: the energy column depends on it, never the schedule.
        self.offchip_pj_per_byte = (None if offchip_pj_per_byte is None
                                    else float(offchip_pj_per_byte))
        if self.offchip_pj_per_byte is not None and self.offchip_pj_per_byte < 0:
            raise ValueError("offchip_pj_per_byte must be non-negative")
        if not (0.0 <= stall_overlap <= 1.0):
            raise ValueError("stall_overlap must lie in [0, 1]")
        self.stall_overlap = float(stall_overlap)
        self.tracer = tracer
        #: Memory hierarchy of the most recent ``execute()`` call (or None);
        #: named distinctly from the ``memory`` enable flag, which is stored
        #: as ``memory_enabled``.
        self.last_memory: Optional[MemoryHierarchy] = None
        #: Makespan of the most recent ``execute()`` call, in reference
        #: cycles (what :meth:`attribution` decomposes against).
        self.last_makespan: float = 0.0
        reference = lap.config.frequency_ghz
        if core_frequencies_ghz is None:
            frequencies = [reference] * len(lap.cores)
        else:
            frequencies = [float(f) for f in core_frequencies_ghz]
            if len(frequencies) != len(lap.cores):
                raise ValueError(f"core_frequencies_ghz has {len(frequencies)} "
                                 f"entries for {len(lap.cores)} cores")
            if min(frequencies) <= 0:
                raise ValueError("core frequencies must be positive")
        self.core_frequencies_ghz = frequencies
        self._homogeneous = all(f == reference for f in frequencies)
        self._executions: Optional[List[TaskExecution]] = []
        self._exec_build: Optional[Callable[[], List[TaskExecution]]] = None
        #: Graph of the most recent ``execute()`` call (schedule_trace
        #: derives per-task energy triples from its footprint arrays).
        self._last_graph: Optional[TaskGraph] = None

    @property
    def executions(self) -> List[TaskExecution]:
        """Per-task records of the most recent ``execute()`` call.

        The scheduler loop records plain field tuples and this property
        materialises the :class:`TaskExecution` rows on first access, so a
        schedule that is only reduced to stats never pays for a million
        dataclass constructions.
        """
        if self._executions is None:
            self._executions = self._exec_build()
        return self._executions

    # ------------------------------------------------------------ execution
    def _run_task(self, task: TaskDescriptor, core_index: int, tiles: Dict) -> int:
        """Execute one task on one core; returns the cycles it consumed."""
        core = self.lap.cores[core_index]
        before = core.counters.cycles
        t = self.tile
        if task.kind is TaskKind.GEMM:
            (ci, cj), (ai, ak), (bk, bj) = task.output, task.inputs[0], task.inputs[1]
            b_tile = tiles["B"][(bk, bj)]
            if task.transpose_b:
                b_tile = b_tile.T
            result = lac_gemm(core, tiles["C"][(ci, cj)],
                              task.alpha * tiles["A"][(ai, ak)], b_tile)
            tiles["C"][(ci, cj)] = result.output
        elif task.kind is TaskKind.SYRK:
            (ci, cj) = task.output
            (ai, aj) = task.inputs[0]
            if task.alpha == 1.0 and not task.transpose_b:
                result = lac_syrk(core, tiles["C"][(ci, cj)], tiles["A"][(ai, aj)])
            else:
                # Scaled (e.g. subtracting) updates run through the GEMM path so
                # the full symmetric tile stays consistent for later tasks.
                a_tile = tiles["A"][(ai, aj)]
                result = lac_gemm(core, tiles["C"][(ci, cj)], task.alpha * a_tile, a_tile.T)
            tiles["C"][(ci, cj)] = result.output
        elif task.kind is TaskKind.TRSM:
            (bi, bj) = task.output
            (li, lj) = task.inputs[0]
            result = lac_trsm(core, tiles["L"][(li, lj)], tiles["B"][(bi, bj)])
            tiles["B"][(bi, bj)] = result.output
        elif task.kind is TaskKind.TRSM_RIGHT_T:
            # B := B L^{-T}  <=>  solve L X = B^T and transpose back.
            (bi, bj) = task.output
            (li, lj) = task.inputs[0]
            l_tile = np.tril(tiles["L"][(li, lj)])
            result = lac_trsm(core, l_tile, tiles["B"][(bi, bj)].T)
            tiles["B"][(bi, bj)] = result.output.T
        elif task.kind is TaskKind.TRSM_LOWER:
            # B := unit_lower(L)^{-1} B (the U panels of a tiled LU).
            (bi, bj) = task.output
            (li, lj) = task.inputs[0]
            unit_lower = np.tril(tiles["L"][(li, lj)], -1) + np.eye(t)
            result = lac_trsm(core, unit_lower, tiles["B"][(bi, bj)])
            tiles["B"][(bi, bj)] = result.output
        elif task.kind is TaskKind.TRSM_UPPER_RIGHT:
            # B := B U^{-1}  <=>  solve U^T X^T = B^T (U^T is lower triangular).
            (bi, bj) = task.output
            (li, lj) = task.inputs[0]
            upper = np.triu(tiles["L"][(li, lj)])
            result = lac_trsm(core, upper.T, tiles["B"][(bi, bj)].T)
            tiles["B"][(bi, bj)] = result.output.T
        elif task.kind is TaskKind.CHOLESKY:
            (ai, aj) = task.output
            result = lac_cholesky(core, tiles["A"][(ai, aj)])
            tiles["A"][(ai, aj)] = result.output
        elif task.kind is TaskKind.LU:
            (ai, aj) = task.output
            result = lac_lu_blocked(core, tiles["A"][(ai, aj)])
            pivots = result.extra["pivots"]
            if any(p != i for i, p in enumerate(pivots)):
                raise ValueError(
                    "tile LU requires no pivoting across tiles; the operand "
                    "must be (e.g.) diagonally dominant so that every tile "
                    "pivot falls on the diagonal")
            tiles["A"][(ai, aj)] = result.output
        elif task.kind is TaskKind.GEQRT:
            (ai, aj) = task.output
            result = lac_qr_blocked(core, tiles["A"][(ai, aj)])
            tiles["A"][(ai, aj)] = result.output
            tiles.setdefault("TAU", {})[(ai, aj)] = result.extra["tau"]
        elif task.kind is TaskKind.TSQRT:
            # QR of [triu(R_jj); A_ij]: the top half's sub-diagonal stays
            # exactly zero, so the reflectors live entirely in tile (i, j) and
            # the GEQRT reflectors packed below the diagonal of (j, j) survive.
            (jj, ij) = task.inputs[0], task.output
            stacked = np.vstack([np.triu(tiles["A"][jj]), tiles["A"][ij]])
            result = lac_qr_blocked(core, stacked)
            tiles["A"][jj] = np.triu(result.output[:t]) + np.tril(tiles["A"][jj], -1)
            tiles["A"][ij] = result.output[t:]
            tiles.setdefault("TAU", {})[ij] = result.extra["tau"]
        elif task.kind is TaskKind.UNMQR:
            (jj, jk) = task.inputs[0], task.output
            result = lac_apply_reflectors(core, tiles["A"][jj],
                                          tiles["TAU"][jj], tiles["A"][jk])
            tiles["A"][jk] = result.output
        elif task.kind is TaskKind.TSMQR:
            # Apply the TSQRT reflectors to the block-row pair [C_jk; C_ik];
            # their top halves are unit vectors, so the packed form is a zero
            # block stacked on the reflector tile.
            (ij, jk, ik) = task.inputs[0], task.inputs[1], task.inputs[2]
            v_stacked = np.vstack([np.zeros((t, t)), tiles["A"][ij]])
            c_stacked = np.vstack([tiles["A"][jk], tiles["A"][ik]])
            result = lac_apply_reflectors(core, v_stacked, tiles["TAU"][ij],
                                          c_stacked)
            tiles["A"][jk] = result.output[:t]
            tiles["A"][ik] = result.output[t:]
        else:  # pragma: no cover - enum exhaustive
            raise ValueError(f"unknown task kind {task.kind}")
        return core.counters.cycles - before

    def _run_task_reference(self, task: TaskDescriptor, tiles: Dict) -> None:
        """NumPy reference update of one task (used by memoized verification).

        Mirrors :meth:`_run_task` numerically (same formulas, vectorised) so
        that a memoized-timing run with ``verify=True`` still produces exact
        factors and residuals.
        """
        t = self.tile
        if task.kind is TaskKind.GEMM:
            (ci, cj), (ai, ak), (bk, bj) = task.output, task.inputs[0], task.inputs[1]
            b_tile = tiles["B"][(bk, bj)]
            if task.transpose_b:
                b_tile = b_tile.T
            tiles["C"][(ci, cj)] = (tiles["C"][(ci, cj)]
                                    + (task.alpha * tiles["A"][(ai, ak)]) @ b_tile)
        elif task.kind is TaskKind.SYRK:
            (ci, cj) = task.output
            (ai, aj) = task.inputs[0]
            a_tile = tiles["A"][(ai, aj)]
            tiles["C"][(ci, cj)] = (tiles["C"][(ci, cj)]
                                    + (task.alpha * a_tile) @ a_tile.T)
        elif task.kind is TaskKind.TRSM:
            (bi, bj) = task.output
            (li, lj) = task.inputs[0]
            tiles["B"][(bi, bj)] = np.linalg.solve(np.tril(tiles["L"][(li, lj)]),
                                                   tiles["B"][(bi, bj)])
        elif task.kind is TaskKind.TRSM_RIGHT_T:
            (bi, bj) = task.output
            (li, lj) = task.inputs[0]
            solved = np.linalg.solve(np.tril(tiles["L"][(li, lj)]),
                                     tiles["B"][(bi, bj)].T)
            tiles["B"][(bi, bj)] = solved.T
        elif task.kind is TaskKind.TRSM_LOWER:
            (bi, bj) = task.output
            (li, lj) = task.inputs[0]
            unit_lower = np.tril(tiles["L"][(li, lj)], -1) + np.eye(t)
            tiles["B"][(bi, bj)] = np.linalg.solve(unit_lower, tiles["B"][(bi, bj)])
        elif task.kind is TaskKind.TRSM_UPPER_RIGHT:
            (bi, bj) = task.output
            (li, lj) = task.inputs[0]
            upper = np.triu(tiles["L"][(li, lj)])
            tiles["B"][(bi, bj)] = np.linalg.solve(upper.T, tiles["B"][(bi, bj)].T).T
        elif task.kind is TaskKind.CHOLESKY:
            (ai, aj) = task.output
            tiles["A"][(ai, aj)] = np.linalg.cholesky(tiles["A"][(ai, aj)])
        elif task.kind is TaskKind.LU:
            (ai, aj) = task.output
            tiles["A"][(ai, aj)] = ref_lu_nopivot(tiles["A"][(ai, aj)])
        elif task.kind is TaskKind.GEQRT:
            (ai, aj) = task.output
            factored, taus = ref_householder_qr_factored(tiles["A"][(ai, aj)])
            tiles["A"][(ai, aj)] = factored
            tiles.setdefault("TAU", {})[(ai, aj)] = taus
        elif task.kind is TaskKind.TSQRT:
            (jj, ij) = task.inputs[0], task.output
            stacked = np.vstack([np.triu(tiles["A"][jj]), tiles["A"][ij]])
            factored, taus = ref_householder_qr_factored(stacked)
            tiles["A"][jj] = np.triu(factored[:t]) + np.tril(tiles["A"][jj], -1)
            tiles["A"][ij] = factored[t:]
            tiles.setdefault("TAU", {})[ij] = taus
        elif task.kind is TaskKind.UNMQR:
            (jj, jk) = task.inputs[0], task.output
            tiles["A"][jk] = ref_apply_reflectors(tiles["A"][jj],
                                                  tiles["TAU"][jj], tiles["A"][jk])
        elif task.kind is TaskKind.TSMQR:
            (ij, jk, ik) = task.inputs[0], task.inputs[1], task.inputs[2]
            v_stacked = np.vstack([np.zeros((t, t)), tiles["A"][ij]])
            c_stacked = np.vstack([tiles["A"][jk], tiles["A"][ik]])
            updated = ref_apply_reflectors(v_stacked, tiles["TAU"][ij], c_stacked)
            tiles["A"][jk] = updated[:t]
            tiles["A"][ik] = updated[t:]
        else:  # pragma: no cover - enum exhaustive
            raise ValueError(f"unknown task kind {task.kind}")

    def _task_shapes(self, task: TaskDescriptor, tiles: Dict) -> Tuple:
        """Shapes of the tiles a task touches (part of the memoization key)."""
        kind = task.kind
        if kind is TaskKind.GEMM:
            coords = (("C", task.output), ("A", task.inputs[0]), ("B", task.inputs[1]))
        elif kind is TaskKind.SYRK:
            coords = (("C", task.output), ("A", task.inputs[0]))
        elif kind in (TaskKind.TRSM, TaskKind.TRSM_RIGHT_T, TaskKind.TRSM_LOWER,
                      TaskKind.TRSM_UPPER_RIGHT):
            coords = (("L", task.inputs[0]), ("B", task.output))
        elif kind in (TaskKind.CHOLESKY, TaskKind.LU, TaskKind.GEQRT):
            coords = (("A", task.output),)
        elif kind in (TaskKind.TSQRT, TaskKind.UNMQR):
            coords = (("A", task.inputs[0]), ("A", task.output))
        elif kind is TaskKind.TSMQR:
            coords = (("A", task.inputs[0]), ("A", task.inputs[1]),
                      ("A", task.output))
        else:  # pragma: no cover - enum exhaustive
            raise ValueError(f"unknown task kind {kind}")
        return tuple(tiles[operand][coord].shape for operand, coord in coords)

    def execute(self, tasks: Sequence[TaskDescriptor], tiles: Dict,
                verify: bool = True) -> Dict[str, object]:
        """Run a task graph to completion; returns makespan and per-core stats.

        ``tasks`` is a :class:`TaskGraph` or any sequence of task
        descriptors, which is wrapped in one (so duplicate ids and
        dependencies on unknown ids raise :class:`ValueError`; a dependency
        cycle raises :class:`RuntimeError` once the loop runs dry).
        ``tiles`` maps operand names ("A", "B", "C", "L") to dictionaries of
        tile arrays keyed by block coordinates; tasks update them in place
        (tiled QR additionally keeps its ``tau`` scalars under ``"TAU"``).
        ``verify`` only matters under memoized timing: it keeps the tile data
        numerically exact through reference updates so residual checks remain
        possible.

        The loop (:func:`repro.lap.fastpath.execute_fast`) is event driven:
        a heap of ready tasks ordered by the scheduling policy and a single
        accumulation pass over per-core busy time -- O(V log V + E) for the
        static policies.  With data-movement accounting enabled every
        dispatched task also updates the tile-residency model (in dispatch
        order, the serialisation the shared on-chip memory sees); spill
        refills stall the task through the off-chip bandwidth and the stats
        gain unified traffic / stall / energy totals.  Policies with
        ``dynamic_priority`` (memory_aware, affinity) have stale heap keys
        lazily re-validated against the current residency state; that
        re-validation is bounded at one refresh per entry between
        executions, so those policies are worst-case O(V^2 log V) (in
        practice close to the static bound, since only entries that reach
        the heap top are refreshed).  An enabled tracer receives the
        schedule's spans and counters after the loop.
        """
        graph = tasks if isinstance(tasks, TaskGraph) else TaskGraph(list(tasks))
        self._last_graph = graph
        stats = execute_fast(self, graph, tiles, verify)
        if self.tracer is not None and self.tracer.enabled:
            self._emit_trace(self.tracer, stats["makespan_cycles"])
        return stats

    def _emit_trace(self, tracer: Tracer, makespan: float) -> None:
        """Record the most recent schedule on ``tracer``.

        One span per task on its core's track, in dispatch order, with the
        cycle decomposition and (memory accounting on) the non-zero
        data-movement fields as args; with memory accounting on also the
        ``offchip_spill_bytes`` and ``stall_cycles`` counter series sampled
        at each task's end; finally the per-core ``idle`` gaps.
        """
        memory = self.last_memory is not None
        overlap = self.stall_overlap
        tile = self.tile
        executions = self.executions
        for e in executions:
            decomposition = decompose_task_cycles(
                e.compute_cycles, e.stall_cycles, overlap,
                e.local_transfer_cycles)
            kind = e.kind.value
            args = {
                "task_id": e.task_id,
                "kind": kind,
                "compute_cycles": decomposition["compute"],
                "spill_stall_cycles": decomposition["spill_stall"],
                "transfer_cycles": decomposition["transfer"],
                "hidden_cycles": decomposition["hidden"],
            }
            if memory:
                moved = {
                    "refill_bytes": e.refill_bytes,
                    "compulsory_bytes": e.refill_bytes - e.spill_bytes,
                    "spill_refill_bytes": e.spill_bytes,
                    "writeback_bytes": e.writeback_bytes,
                    "energy_j": e.energy_j,
                    "flops": _TASK_FLOPS[e.kind](tile),
                    "local_hit_bytes": e.local_hit_bytes,
                    "shared_to_local_bytes": e.shared_to_local_bytes,
                    "c2c_bytes": e.c2c_bytes,
                }
                args.update((name, value) for name, value in moved.items()
                            if value)
                tracer.counter("offchip_spill_bytes").add(e.spill_bytes,
                                                          ts=e.end_cycle)
                tracer.counter("stall_cycles").add(e.stall_cycles,
                                                   ts=e.end_cycle)
            tracer.span(f"{kind}#{e.task_id}", track=e.core_index,
                        start=e.start_cycle, end=e.end_cycle,
                        category="task", args=args)
        for core, gap_start, gap_end in idle_gaps(
                executions, len(self.lap.cores), makespan):
            tracer.span("idle", track=core, start=gap_start, end=gap_end,
                        category="idle",
                        args={"idle_cycles": gap_end - gap_start})

    def attribution(self) -> CycleAttribution:
        """Cycle attribution of the most recent ``execute()`` call.

        Decomposes every core's ``[0, makespan]`` timeline into compute /
        spill-stall / transfer / idle from the recorded
        :class:`TaskExecution` rows; the components sum to
        ``cores x makespan`` (see
        :class:`repro.obs.attribution.CycleAttribution`).
        """
        return CycleAttribution.from_executions(
            self.executions, len(self.lap.cores), self.last_makespan,
            stall_overlap=self.stall_overlap)

    def schedule_trace(self) -> ScheduleTrace:
        """Replayable record of the most recent ``execute()`` call.

        Captures the movement totals, clock and energy constants that
        decide when a sweep point differing only in bandwidth /
        prefetch-overlap / chip-clock / off-chip-energy constants can reuse
        this schedule exactly instead of re-simulating (see
        :class:`repro.lap.fastpath.ScheduleTrace` and the ``lap_runtime``
        runner's replay fast path).  With memory accounting on, the trace
        also carries a lazy thunk producing per-task ``(flops,
        onchip_bytes, offchip_bytes)`` energy triples, so energy-constant
        deltas re-key the energy column per task instead of re-simulating.
        The thunk captures this run's row source and the graph's footprint
        arrays; no :class:`TaskExecution` row is built unless a re-key
        calls it.
        """
        memory = self.last_memory
        energy_constants = None
        flush_wb = 0.0
        triples_thunk = None
        if memory is not None:
            energy = memory.energy
            energy_constants = (energy.energy_per_flop_j,
                                energy.onchip_energy_per_byte_j,
                                energy.offchip_energy_per_byte_j)
            flush_wb = memory.flush_writeback_bytes
            if self._last_graph is not None and len(self._last_graph):
                rows = self._executions
                build = self._exec_build if rows is None else None
                arrays = self._last_graph.fast_arrays()
                tile = self.tile
                tile_bytes = memory.residency.tile_bytes

                def triples_thunk(rows=rows, build=build, arrays=arrays,
                                  tile=tile, tile_bytes=tile_bytes):
                    id2idx = arrays.id2idx
                    rw_len = arrays.rw_len
                    return [(_TASK_FLOPS[e.kind](tile),
                             rw_len[id2idx[e.task_id]] * tile_bytes
                             + e.transfer_bytes,
                             e.refill_bytes + e.writeback_bytes)
                            for e in (rows if build is None else build())]
        return ScheduleTrace(
            stall_overlap=self.stall_overlap,
            effective_bandwidth_gbs=(
                memory.bandwidth.interface.bandwidth_gbytes_per_sec
                if memory is not None else None),
            default_bandwidth_gbs=self.lap.offchip.bandwidth_gbytes_per_sec,
            total_spill_bytes=(memory.spill_bytes if memory is not None
                               else 0.0),
            total_movement_cycles=(
                memory.total_stall_cycles + memory.local_transfer_cycles
                if memory is not None else 0.0),
            makespan_cycles=self.last_makespan,
            frequency_ghz=self.lap.config.frequency_ghz,
            homogeneous_cores=self._homogeneous,
            energy_constants=energy_constants,
            default_offchip_energy_per_byte_j=(
                self.lap.offchip.energy_per_byte_j),
            flush_writeback_bytes=flush_wb,
            energy_triples_thunk=triples_thunk)

    # ------------------------------------------------------- whole problems
    def run_blocked_gemm(self, n: int, rng: np.random.Generator,
                         verify: bool = True) -> Dict[str, object]:
        """Decompose, schedule and verify one ``n x n`` GEMM end to end.

        Builds seeded operands, tiles them, executes the task graph on the
        LAP cores and extends the scheduler stats with a ``residual`` (the
        max absolute error against the numpy reference), so sweep rows can
        assert functional correctness alongside makespan and efficiency.
        Under memoized timing with ``verify=False`` the tile data goes stale
        and ``residual`` is ``None``.
        """
        a, b = rng.random((n, n)), rng.random((n, n))
        c = rng.random((n, n))
        tiles = {
            "A": self.tile_matrix(a, self.tile),
            "B": self.tile_matrix(b, self.tile),
            "C": self.tile_matrix(c, self.tile),
        }
        tasks = self.library.gemm_tasks(n, n, n)
        stats = self.execute(tasks, tiles, verify=verify)
        if stats["data_valid"]:
            result = self.untile_matrix(tiles["C"], self.tile)
            stats["residual"] = float(np.max(np.abs(result - (c + a @ b))))
        else:
            stats["residual"] = None
        return stats

    def run_blocked_cholesky(self, n: int, rng: np.random.Generator,
                             verify: bool = True) -> Dict[str, object]:
        """Decompose, schedule and verify one ``n x n`` Cholesky end to end.

        The seeded operand is made symmetric positive definite; all operand
        names alias one tile dictionary because the factorization updates A
        in place.  The returned stats carry the ``residual`` of
        ``L L^T - A`` (``None`` when the timing model dropped the data).
        """
        g = rng.random((n, n))
        a = g @ g.T + n * np.eye(n)
        a_tiles = self.tile_matrix(a, self.tile)
        tiles = {"A": a_tiles, "B": a_tiles, "C": a_tiles, "L": a_tiles}
        tasks = self.library.cholesky_tasks(n)
        stats = self.execute(tasks, tiles, verify=verify)
        if stats["data_valid"]:
            factor = np.tril(self.untile_matrix(a_tiles, self.tile))
            stats["residual"] = float(np.max(np.abs(factor @ factor.T - a)))
        else:
            stats["residual"] = None
        return stats

    def run_blocked_lu(self, n: int, rng: np.random.Generator,
                       verify: bool = True) -> Dict[str, object]:
        """Decompose, schedule and verify one ``n x n`` tiled LU end to end.

        The seeded operand is made strictly diagonally dominant so that the
        no-pivot tile factorization is stable (row interchanges never leave
        a diagonal tile).  The stats carry the ``residual`` of ``L U - A``.
        """
        a = rng.random((n, n)) + n * np.eye(n)
        a_tiles = self.tile_matrix(a, self.tile)
        tiles = {"A": a_tiles, "B": a_tiles, "C": a_tiles, "L": a_tiles}
        tasks = self.library.lu_tasks(n)
        stats = self.execute(tasks, tiles, verify=verify)
        if stats["data_valid"]:
            packed = self.untile_matrix(a_tiles, self.tile)
            lower = np.tril(packed, -1) + np.eye(n)
            upper = np.triu(packed)
            stats["residual"] = float(np.max(np.abs(lower @ upper - a)))
        else:
            stats["residual"] = None
        return stats

    def run_blocked_qr(self, n: int, rng: np.random.Generator,
                       verify: bool = True) -> Dict[str, object]:
        """Decompose, schedule and verify one ``n x n`` tiled QR end to end.

        The final upper block triangle holds ``R``; ``Q`` stays implicit in
        the packed reflectors, so correctness is checked through the normal
        equations: ``R^T R == A^T A`` exactly when ``A == Q R`` with an
        orthogonal ``Q``.  The ``residual`` is the max absolute error of
        that identity, normalised by ``max |A^T A|``.
        """
        a = rng.random((n, n))
        tiles: Dict = {"A": self.tile_matrix(a, self.tile), "TAU": {}}
        tasks = self.library.qr_tasks(n)
        stats = self.execute(tasks, tiles, verify=verify)
        if stats["data_valid"]:
            t = self.tile
            r = np.zeros((n, n))
            for (bi, bj), block in tiles["A"].items():
                if bj > bi:
                    r[bi * t:(bi + 1) * t, bj * t:(bj + 1) * t] = block
                elif bi == bj:
                    r[bi * t:(bi + 1) * t, bj * t:(bj + 1) * t] = np.triu(block)
            gram = a.T @ a
            stats["residual"] = float(np.max(np.abs(r.T @ r - gram))
                                      / max(1.0, np.max(np.abs(gram))))
        else:
            stats["residual"] = None
        return stats

    def run_workload(self, workload: str, n: int, rng: np.random.Generator,
                     verify: bool = True) -> Dict[str, object]:
        """Run one named workload (gemm / cholesky / lu / qr) end to end."""
        runners = {
            "gemm": self.run_blocked_gemm,
            "cholesky": self.run_blocked_cholesky,
            "lu": self.run_blocked_lu,
            "qr": self.run_blocked_qr,
        }
        try:
            runner = runners[workload]
        except KeyError:
            raise ValueError(f"unknown workload '{workload}' (use one of "
                             f"{', '.join(sorted(runners))})") from None
        return runner(n, rng, verify=verify)

    # ------------------------------------------------------------ helpers
    @staticmethod
    def tile_matrix(matrix: np.ndarray, tile: int) -> Dict[Tuple[int, int], np.ndarray]:
        """Split a matrix into a dictionary of tile blocks."""
        matrix = np.asarray(matrix, dtype=float)
        rows, cols = matrix.shape
        if rows % tile or cols % tile:
            raise ValueError(f"matrix dimensions {rows} x {cols} must be "
                             f"multiples of the tile size {tile}")
        return {(i // tile, j // tile): matrix[i:i + tile, j:j + tile].copy()
                for i in range(0, rows, tile) for j in range(0, cols, tile)}

    @staticmethod
    def untile_matrix(tiles: Dict[Tuple[int, int], np.ndarray], tile: int) -> np.ndarray:
        """Reassemble a matrix from its tile dictionary."""
        if not tiles:
            raise ValueError("no tiles to assemble")
        max_i = max(i for i, _ in tiles) + 1
        max_j = max(j for _, j in tiles) + 1
        out = np.zeros((max_i * tile, max_j * tile), dtype=float)
        for (i, j), block in tiles.items():
            out[i * tile:(i + 1) * tile, j * tile:(j + 1) * tile] = block
        return out
