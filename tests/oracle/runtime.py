"""The reference scheduler loop production is pinned against.

:meth:`repro.lap.runtime.LAPRuntime.execute` runs the inlined loop of
:mod:`repro.lap.fastpath`.  :func:`reference_execute` is the same schedule
written for clarity: policy method dispatch per task, a
:class:`~oracle.memory.ReferenceMemoryHierarchy` over ``OrderedDict`` LRUs,
one :class:`TaskExecution` and one tracer span per task as it is
dispatched.  The equivalence suite requires byte-identical stats,
execution records, attribution, schedule traces and tracer output from the
two.

Use :class:`ReferenceRuntime` to build a runtime that schedules with this
loop, or :func:`reference_loop` to route every ``LAPRuntime.execute`` call
through it (e.g. to run the ``lap_runtime`` runner on the oracle).
"""

from __future__ import annotations

import contextlib
import heapq
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.engine.runners import _REPLAY_MEMO
from repro.lap.runtime import LAPRuntime, TaskExecution, _ExecutionContext
from repro.lap.taskgraph import TaskDescriptor, TaskGraph
from repro.lap.timing import compose_task_cycles, decompose_task_cycles
from repro.obs.attribution import idle_gaps

from oracle.memory import ReferenceMemoryHierarchy


def reference_execute(runtime: LAPRuntime, tasks: Sequence[TaskDescriptor],
                      tiles: Dict, verify: bool = True) -> Dict[str, object]:
    """Run a task graph on ``runtime`` with the reference loop.

    The loop is event driven: a heap of ready tasks ordered by the
    scheduling policy's ``priority`` hook, the popped task placed by its
    ``choose_core`` hook, and every dispatched task accounted through the
    memory hierarchy in dispatch order.  Policies with ``dynamic_priority``
    have stale heap keys lazily re-validated against the current residency
    state.  Unknown dependency ids leave their task unscheduled and the
    deadlock check reports it.
    """
    runtime._last_graph = tasks if isinstance(tasks, TaskGraph) else None
    task_list = list(tasks)
    by_id: Dict[int, TaskDescriptor] = {}
    for task in task_list:
        if task.task_id in by_id:
            raise ValueError(f"duplicate task id {task.task_id}")
        by_id[task.task_id] = task
    successors: Dict[int, List[int]] = {tid: [] for tid in by_id}
    indegree: Dict[int, int] = {}
    for task in task_list:
        deps = set(task.depends_on)
        indegree[task.task_id] = len(deps)
        for dep in deps:
            if dep in successors:
                successors[dep].append(task.task_id)

    memory = (ReferenceMemoryHierarchy.for_chip(
        runtime.lap, runtime.tile,
        on_chip_kb=runtime.on_chip_kb,
        bandwidth_gbs=runtime.bandwidth_gbs,
        local_store_kb=runtime.local_store_kb,
        offchip_pj_per_byte=runtime.offchip_pj_per_byte)
              if runtime.memory_enabled else None)
    tracer = (runtime.tracer
              if runtime.tracer is not None and runtime.tracer.enabled
              else None)
    policy = runtime.policy
    runtime.last_memory = memory
    policy.prepare(tasks if isinstance(tasks, TaskGraph) else task_list)
    policy.bind_memory(memory)
    dynamic = bool(getattr(policy, "dynamic_priority", False)
                   and memory is not None)
    ctx = _ExecutionContext(runtime, tiles)
    num_cores = len(runtime.lap.cores)
    reference_freq = runtime.lap.config.frequency_ghz
    core_free_at: List[float] = [0] * num_cores
    busy_cycles: List[int] = [0] * num_cores
    busy_time: List[float] = [0] * num_cores
    tile_owner: Dict[Tuple[int, int], int] = {}
    policy.bind_owners(tile_owner)
    ready_time: Dict[int, float] = {}
    executions: List[TaskExecution] = []
    runtime._executions = executions
    runtime._exec_build = None

    # Heap entries are (priority_tuple, task_id, residency_version): the
    # policy key orders tasks, the task id breaks ties, and the trailing
    # version stamp lets dynamic policies detect stale keys.
    version = memory.version if memory is not None else 0
    heap: List[Tuple] = []
    for task in task_list:
        if indegree[task.task_id] == 0:
            ready_time[task.task_id] = 0
            heapq.heappush(heap, (policy.priority(task, 0),
                                  task.task_id, version))

    while heap:
        key, task_id, stamp = heapq.heappop(heap)
        task = by_id[task_id]
        ready = ready_time[task_id]
        if dynamic and stamp != memory.version:
            # Lazy re-validation: recompute the stale key; if the task no
            # longer leads the heap, push it back and look again.
            key = policy.priority(task, ready)
            if heap and (key, task_id) > (heap[0][0], heap[0][1]):
                heapq.heappush(heap, (key, task_id, memory.version))
                continue
        ctx.core_index = core_index = policy.choose_core(
            task, ready, core_free_at, tile_owner)
        cycles = runtime.timing.task_cycles(task, ctx, verify)
        if runtime._homogeneous:
            duration = cycles
        else:
            duration = (cycles * reference_freq
                        / runtime.core_frequencies_ghz[core_index])
        compute_duration = duration
        stall = 0.0
        refill = energy = local_cycles = local_hit = 0.0
        spill_b = shared_b = c2c_b = writeback_b = 0.0
        event = None
        if memory is not None:
            event = memory.account(task, core_index)
            stall = event.stall_cycles
            refill = event.refill_bytes
            energy = event.energy_j
            local_cycles = event.local_transfer_cycles
            local_hit = event.local_hit_bytes
            spill_b = event.spill_refill_bytes
            shared_b = event.shared_to_local_bytes
            c2c_b = event.c2c_bytes
            writeback_b = event.writeback_bytes
            duration = compose_task_cycles(duration, stall,
                                           runtime.stall_overlap,
                                           local_cycles)
        start = max(core_free_at[core_index], ready)
        end = start + duration
        core_free_at[core_index] = end
        busy_cycles[core_index] += cycles
        # Efficiency counts compute only: a stalled core is occupied but
        # not doing useful work.
        busy_time[core_index] += compute_duration
        tile_owner[task.output] = core_index
        executions.append(TaskExecution(task.task_id, task.kind, core_index,
                                        start, end, stall_cycles=stall,
                                        refill_bytes=refill,
                                        energy_j=energy,
                                        local_transfer_cycles=local_cycles,
                                        local_hit_bytes=local_hit,
                                        compute_cycles=compute_duration,
                                        spill_bytes=spill_b,
                                        shared_to_local_bytes=shared_b,
                                        c2c_bytes=c2c_b,
                                        writeback_bytes=writeback_b))
        if tracer is not None:
            decomposition = decompose_task_cycles(
                compute_duration, stall, runtime.stall_overlap, local_cycles)
            args = {
                "task_id": task.task_id,
                "kind": task.kind.value,
                "compute_cycles": decomposition["compute"],
                "spill_stall_cycles": decomposition["spill_stall"],
                "transfer_cycles": decomposition["transfer"],
                "hidden_cycles": decomposition["hidden"],
            }
            if event is not None:
                args.update(event.as_args())
                tracer.counter("offchip_spill_bytes").add(
                    event.spill_refill_bytes, ts=end)
                tracer.counter("stall_cycles").add(stall, ts=end)
            tracer.span(f"{task.kind.value}#{task.task_id}",
                        track=core_index, start=start, end=end,
                        category="task", args=args)
        for succ_id in successors[task.task_id]:
            ready_time[succ_id] = max(ready_time.get(succ_id, 0), end)
            indegree[succ_id] -= 1
            if indegree[succ_id] == 0:
                succ = by_id[succ_id]
                heapq.heappush(heap, (
                    policy.priority(succ, ready_time[succ_id]),
                    succ_id,
                    memory.version if memory is not None else 0))

    if len(executions) != len(task_list):
        raise RuntimeError("task graph deadlock: circular dependencies")

    makespan = max(core_free_at) if core_free_at else 0
    runtime.last_makespan = float(makespan)
    if tracer is not None:
        for core, gap_start, gap_end in idle_gaps(executions, num_cores,
                                                  makespan):
            tracer.span("idle", track=core, start=gap_start, end=gap_end,
                        category="idle",
                        args={"idle_cycles": gap_end - gap_start})
    stats: Dict[str, object] = {
        "makespan_cycles": makespan,
        "per_core_busy_cycles": busy_cycles,
        "parallel_efficiency": (sum(busy_time) / (makespan * num_cores))
        if makespan else 0.0,
        "tasks_executed": len(executions),
        "policy": policy.name,
        "timing": runtime.timing.name,
        "makespan_ns": makespan / reference_freq,
        "data_valid": runtime.timing.keeps_data(verify),
    }
    if memory is not None:
        memory.finish()
        stats.update(memory.summary())
    if isinstance(tasks, TaskGraph):
        stats["graph"] = tasks.summary()
    return stats


class ReferenceRuntime(LAPRuntime):
    """An :class:`LAPRuntime` whose ``execute`` is the reference loop."""

    def execute(self, tasks: Sequence[TaskDescriptor], tiles: Dict,
                verify: bool = True) -> Dict[str, object]:
        return reference_execute(self, tasks, tiles, verify)


@contextlib.contextmanager
def reference_loop() -> Iterator[None]:
    """Route every ``LAPRuntime.execute`` call through the reference loop.

    The ``lap_runtime`` replay memo is cleared on entry and on exit, so a
    point is never replayed across the boundary: inside, every point
    simulates on the oracle; after, the same point simulates on production
    instead of returning the oracle's recorded row.
    """
    original = LAPRuntime.execute
    LAPRuntime.execute = reference_execute
    _REPLAY_MEMO.clear()
    try:
        yield
    finally:
        _REPLAY_MEMO.clear()
        LAPRuntime.execute = original
