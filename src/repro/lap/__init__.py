"""Chip-level Linear Algebra Processor (LAP): multiple LACs plus memory.

The LAP surrounds ``S`` Linear Algebra Cores with a shared on-chip memory
(banked SRAM, one bank coupled to each core plus shared banks) and an
off-chip memory interface.  This subpackage provides:

* :mod:`repro.lap.chip` -- the chip object tying cores, on-chip memory and
  the off-chip interface together, with chip-wide cycle/energy accounting;
* :mod:`repro.lap.policies` -- all scheduling code: the pluggable task-graph
  policies (greedy / critical_path / locality / memory_aware / affinity)
  plus the
  static panel-blocking :class:`GEMMScheduler` of Figure 4.1 (each core
  owns a row panel of C; panels of B are broadcast to all cores);
* :mod:`repro.lap.memory` -- the unified memory-hierarchy layer: LRU tile
  residency over the on-chip capacity, spill/refill accounting, bandwidth
  stalls and per-task energy, plus the closed-form off-chip traffic of a
  streamed GEMM (:class:`OffChipTrafficModel`), including the extra
  blocking layer used when C does not fit on chip;
* :mod:`repro.lap.runtime` / :mod:`repro.lap.fastpath` -- the task-graph
  runtime and its scheduler loop.
"""

from repro.lap.chip import LinearAlgebraProcessor, LAPConfig
from repro.lap.taskgraph import (AlgorithmsByBlocks, TaskDescriptor, TaskGraph,
                                 TaskKind)
from repro.lap.policies import (POLICIES, GEMMScheduler, PanelAssignment,
                                SchedulerPolicy, get_policy, policy_names)
from repro.lap.memory import (BandwidthModel, MemoryHierarchy,
                              OffChipTrafficModel, TaskEnergyModel)
from repro.lap.timing import (TIMING_MODELS, FunctionalTiming, MemoizedTiming,
                              TimingModel, get_timing_model, timing_names)
from repro.lap.runtime import LAPRuntime, TaskExecution

__all__ = [
    "LinearAlgebraProcessor",
    "LAPConfig",
    "GEMMScheduler",
    "PanelAssignment",
    "OffChipTrafficModel",
    "BandwidthModel",
    "MemoryHierarchy",
    "TaskEnergyModel",
    "AlgorithmsByBlocks",
    "LAPRuntime",
    "TaskDescriptor",
    "TaskExecution",
    "TaskGraph",
    "TaskKind",
    "SchedulerPolicy",
    "POLICIES",
    "get_policy",
    "policy_names",
    "TimingModel",
    "FunctionalTiming",
    "MemoizedTiming",
    "TIMING_MODELS",
    "get_timing_model",
    "timing_names",
]
