"""The scheduler loop: SoA residency, an inlined event loop, replay.

Every ``LAPRuntime.execute`` call runs :func:`execute_fast`.  At the graph
sizes where the paper's scheduling/memory results get interesting (a 16k^2
tiled Cholesky is ~360k tasks) per-task ``OrderedDict`` LRU churn, policy
method dispatch and a dataclass per execution record would cost tens of
microseconds per task, so the loop is built in three layers:

* **Vectorized residency accounting** -- :class:`TileInterner` maps
  ``(operand, (i, j))`` tile names to dense integer ids once per graph;
  :class:`FastTileResidency` / :class:`FastLocalStore` then keep the LRU
  state as structure-of-arrays (a timestamp per tile id, clock-based LRU
  with a FIFO queue of touches whose position encodes the stamp) instead
  of per-tile ``OrderedDict`` nodes.  A task's whole footprint is touched
  in one call.  The hot state is deliberately plain Python lists, not
  numpy arrays: footprints are 1-4 tiles, where scalar list indexing beats
  any ufunc dispatch; numpy is used for the CSR footprint exports where
  bulk arithmetic actually wins.
* **Event-loop batching** -- :class:`GraphArrays` precomputes successor
  lists, indegrees and per-task interned footprints for a
  :class:`~repro.lap.taskgraph.TaskGraph`; :func:`execute_fast` runs the
  scheduler loop with every policy / timing / memory decision inlined
  (no per-task method dispatch) and appends one plain tuple per task,
  materialising :class:`~repro.lap.runtime.TaskExecution` rows lazily.
  Under memoized timing the per-signature cycle table collapses to a
  per-group lookup and the hit counters are reconciled in bulk.
* **Schedule-replay costing** -- :class:`ScheduleTrace` records a finished
  schedule's movement totals, clock and energy constants; when a sweep point
  differs from a recorded one only in constants that provably cannot change
  the dispatch order (off-chip bandwidth with zero spill traffic, prefetch
  overlap with zero visible movement, a homogeneous clock without spills,
  energy constants), the ``lap_runtime`` runner replays the recorded costs
  instead of re-simulating.

Equivalence contract: the test suite keeps the straightforward formulation
-- a reference event loop over policy hooks and ``OrderedDict`` residency
levels -- as an oracle, and requires *byte-identical* schedules, stats,
traffic splits, energy, attribution and tracer output from this loop (same
float operations in the same order) for every policy x hierarchy
configuration.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.lap.taskgraph import (_TASK_FLOPS, TaskDescriptor, TaskGraph,
                                 TileAccess)
from repro.lap.timing import MemoizedTiming

__all__ = [
    "FastLocalStore", "FastTileResidency", "GraphArrays", "REPLAY_STATS",
    "ScheduleTrace", "TileInterner", "execute_fast",
]


class TileInterner:
    """Bijection between tile names and dense integer ids.

    Shared between the graph arrays and every residency level of one
    schedule so that a tile has one id everywhere; ids are allocated in
    first-seen order and never reused.
    """

    __slots__ = ("ids", "names")

    def __init__(self) -> None:
        self.ids: Dict[TileAccess, int] = {}
        self.names: List[TileAccess] = []

    def __len__(self) -> int:
        return len(self.names)

    def intern(self, access: TileAccess) -> int:
        """Id of a tile name, allocating one on first sight."""
        tid = self.ids.get(access)
        if tid is None:
            tid = len(self.names)
            self.ids[access] = tid
            self.names.append(access)
        return tid


class FastTileResidency:
    """Structure-of-arrays LRU working set of the shared on-chip level.

    Tiles are identified by ``(operand, (block_row, block_col))`` names
    (interned to dense ids) and all occupy ``tile_bytes``.  A task's
    footprint is *pinned* while it is brought resident, so one task's tiles
    never evict each other; a footprint larger than the capacity overflows
    transiently (the schedule then thrashes, which the spill counters make
    visible).  Same semantics, observable state and return values as an
    ``OrderedDict`` LRU (the property suite pins them against each other on
    random access streams); the LRU order lives in a timestamp
    array (``_stamp[tile_id]``, -1 = not resident) driven by a monotonic
    clock.  Because stamps are handed out in strictly increasing order --
    exactly one per queue append -- the queue entry at position ``k``
    always carries stamp ``_qbase + k``, so a single list of tile ids plus
    a head index (compacted occasionally) stands in for the dict's
    insertion order: no heap, and no stored stamps.  A footprint access
    re-stamps every tile (the ``move_to_end`` of the reference), so the
    victim scan skips stale queue entries until it finds a tile whose stamp
    is still current; a stamp at or above the footprint's first stamp means
    only pinned tiles remain and eviction stops, exactly like the
    reference's pinned-set guard.
    """

    def __init__(self, capacity_bytes: float, tile_bytes: int,
                 interner: Optional[TileInterner] = None):
        if capacity_bytes <= 0:
            raise ValueError("on-chip capacity must be positive")
        if tile_bytes <= 0:
            raise ValueError("tile bytes must be positive")
        self.capacity_bytes = float(capacity_bytes)
        self.tile_bytes = int(tile_bytes)
        self._interner = interner if interner is not None else TileInterner()
        self._stamp: List[int] = []
        self._dirty: List[bool] = []
        self._ever: List[bool] = []
        self._qt: List[int] = []      # tile id per stamp; entry k has stamp
        self._qhead = 0               # _qbase + k, by clock monotonicity
        self._qbase = 0
        self._clock = 0
        # Largest resident tile count that does NOT overflow the capacity
        # (exact integer form of ``rc * tile_bytes > capacity_bytes``).
        cap_max = int(self.capacity_bytes // self.tile_bytes)
        while (cap_max + 1) * self.tile_bytes <= self.capacity_bytes:
            cap_max += 1
        while cap_max > 0 and cap_max * self.tile_bytes > self.capacity_bytes:
            cap_max -= 1
        self._cap_tiles = cap_max
        self._rc = 0
        self._dirty_count = 0
        self._last_evicted_ids: List[int] = []
        self.peak_resident_bytes = 0
        self.version = 0
        self._ensure(len(self._interner))

    def _ensure(self, n: int) -> None:
        grow = n - len(self._stamp)
        if grow > 0:
            self._stamp.extend([-1] * grow)
            self._dirty.extend([False] * grow)
            self._ever.extend([False] * grow)

    # ------------------------------------------------------------- queries
    @property
    def resident_bytes(self) -> int:
        return self._rc * self.tile_bytes

    @property
    def last_evicted(self) -> List[TileAccess]:
        """Tiles the most recent touch()/flush() evicted, in eviction order."""
        names = self._interner.names
        return [names[tid] for tid in self._last_evicted_ids]

    def is_resident(self, access: TileAccess) -> bool:
        tid = self._interner.ids.get(access)
        return (tid is not None and tid < len(self._stamp)
                and self._stamp[tid] >= 0)

    def missing_bytes(self, accesses) -> int:
        """Bytes a footprint would have to fetch right now (no state change)."""
        ids = self._interner.ids
        stamp = self._stamp
        n = len(stamp)
        missing = set()
        for access in accesses:
            tid = ids.get(access)
            if tid is None or tid >= n or stamp[tid] < 0:
                missing.add(access)
        return len(missing) * self.tile_bytes

    def missing_bytes_batch(self, indptr, indices) -> np.ndarray:
        """Vectorized :meth:`missing_bytes` over a CSR batch of footprints.

        ``indptr`` / ``indices`` describe ``len(indptr) - 1`` interned
        footprints (e.g. slices of :attr:`GraphArrays.foot_indptr` /
        ``foot_indices``); entry ``k`` of the returned int64 array equals
        ``missing_bytes`` of footprint ``k``.  The kernel is one fancy
        index over the stamp array plus a cumulative sum differenced at the
        row pointers (``np.add.reduceat`` mishandles empty segments).  The
        scalar form deduplicates names through a set, so the batch form is
        equivalent only on duplicate-free footprints -- which is exactly
        what the graph arrays store.
        """
        self._ensure(len(self._interner))
        stamp = np.fromiter(self._stamp, dtype=np.int64,
                            count=len(self._stamp))
        miss = np.where(stamp[indices] < 0, 1, 0)
        csum = np.zeros(len(miss) + 1, dtype=np.int64)
        np.cumsum(miss, out=csum[1:])
        return (csum[indptr[1:]] - csum[indptr[:-1]]) * self.tile_bytes

    # ------------------------------------------------------------- updates
    def touch(self, reads, writes) -> Tuple[float, float, float, float]:
        """Bring a footprint of tile names resident; see ``touch_ids``."""
        intern = self._interner.intern
        foot: List[int] = []
        for access in list(reads) + list(writes):
            tid = intern(access)
            if tid not in foot:
                foot.append(tid)
        wids = [intern(access) for access in writes]
        self._ensure(len(self._interner))
        return self.touch_ids(foot, wids)

    def touch_ids(self, foot: Sequence[int],
                  wids: Sequence[int]) -> Tuple[float, float, float, float]:
        """Bring a deduplicated, interned footprint resident in one call.

        Returns ``(refill, compulsory, spill_refill, writeback)`` bytes.
        Read and written tiles are both fetched (every tile kernel is
        read-modify-write at tile granularity); written tiles are marked
        dirty so their eventual eviction costs a writeback.  The caller guarantees
        ``foot`` is duplicate-free in reads+writes order and every id is
        covered by the state arrays (the interner was pre-populated).
        """
        stamp = self._stamp
        qt = self._qt
        head = self._qhead
        qbase = self._qbase
        ever = self._ever
        dirty = self._dirty
        tb = self.tile_bytes
        clock = self._clock
        pin_floor = clock
        nmiss = nspill = 0
        rc = self._rc
        for tid in foot:
            if stamp[tid] < 0:
                nmiss += 1
                if ever[tid]:
                    nspill += 1
                else:
                    ever[tid] = True
                rc += 1
            stamp[tid] = clock
            qt.append(tid)
            clock += 1
        self._clock = clock
        dc = self._dirty_count
        for tid in wids:
            if not dirty[tid]:
                dirty[tid] = True
                dc += 1
        victims: List[int] = []
        wb = 0
        if rc > self._cap_tiles:
            qn = len(qt)
            cap_tiles = self._cap_tiles
            while rc > cap_tiles and head < qn:
                vid = qt[head]
                st = qbase + head
                if stamp[vid] != st:
                    head += 1           # stale entry: the tile was re-stamped
                    continue
                if st >= pin_floor:
                    break               # only the pinned footprint remains
                head += 1
                stamp[vid] = -1
                rc -= 1
                victims.append(vid)
                if dirty[vid]:
                    dirty[vid] = False
                    dc -= 1
                    wb += 1
            if head > 65536 and head * 2 > qn:
                del qt[:head]
                qbase += head
                head = 0
                self._qbase = qbase
        self._qhead = head
        self._rc = rc
        self._dirty_count = dc
        self._last_evicted_ids = victims
        resident = rc * tb
        if resident > self.peak_resident_bytes:
            self.peak_resident_bytes = resident
        if nmiss or victims:
            self.version += 1
        return (float(nmiss * tb), float((nmiss - nspill) * tb),
                float(nspill * tb), float(wb * tb))

    def flush(self) -> float:
        """Write back every remaining dirty tile; returns the bytes moved."""
        self._ensure(len(self._interner))
        stamp = self._stamp
        resident = sorted((stamp[tid], tid) for tid in range(len(stamp))
                          if stamp[tid] >= 0)
        order = [tid for _, tid in resident]
        writeback = float(self._dirty_count * self.tile_bytes)
        dirty = self._dirty
        for tid in order:
            stamp[tid] = -1
            dirty[tid] = False
        self._dirty_count = 0
        self._last_evicted_ids = order
        self._rc = 0
        self._qt = []
        self._qhead = 0
        self._qbase = self._clock
        self.version += 1
        return writeback


class FastLocalStore:
    """Structure-of-arrays LRU of one core's local store (the second level).

    Inclusive in the shared level and write-through; the clock/stamp scheme of :class:`FastTileResidency` without the
    dirty/compulsory bookkeeping (the store is write-through and the shared
    level owns all off-chip accounting).
    """

    def __init__(self, capacity_bytes: float, tile_bytes: int,
                 interner: Optional[TileInterner] = None):
        if capacity_bytes <= 0:
            raise ValueError("local-store capacity must be positive")
        if tile_bytes <= 0:
            raise ValueError("tile bytes must be positive")
        self.capacity_bytes = float(capacity_bytes)
        self.tile_bytes = int(tile_bytes)
        self._interner = interner if interner is not None else TileInterner()
        self._stamp: List[int] = []
        self._qt: List[int] = []
        self._qhead = 0
        self._qbase = 0
        self._clock = 0
        self._rc = 0
        self.peak_resident_bytes = 0
        cap_max = int(self.capacity_bytes // self.tile_bytes)
        while (cap_max + 1) * self.tile_bytes <= self.capacity_bytes:
            cap_max += 1
        while cap_max > 0 and cap_max * self.tile_bytes > self.capacity_bytes:
            cap_max -= 1
        self._cap_tiles = cap_max
        self._ensure(len(self._interner))

    def _ensure(self, n: int) -> None:
        grow = n - len(self._stamp)
        if grow > 0:
            self._stamp.extend([-1] * grow)

    # ------------------------------------------------------------- queries
    @property
    def resident_bytes(self) -> int:
        return self._rc * self.tile_bytes

    def is_resident(self, access: TileAccess) -> bool:
        tid = self._interner.ids.get(access)
        return (tid is not None and tid < len(self._stamp)
                and self._stamp[tid] >= 0)

    def missing_bytes(self, accesses) -> int:
        """Bytes a footprint would have to fill right now (no state change)."""
        ids = self._interner.ids
        stamp = self._stamp
        n = len(stamp)
        missing = set()
        for access in accesses:
            tid = ids.get(access)
            if tid is None or tid >= n or stamp[tid] < 0:
                missing.add(access)
        return len(missing) * self.tile_bytes

    def resident_footprint_bytes(self, accesses) -> int:
        """Bytes of a footprint already held by this store (no state change)."""
        ids = self._interner.ids
        stamp = self._stamp
        n = len(stamp)
        held = set()
        for access in accesses:
            tid = ids.get(access)
            if tid is not None and tid < n and stamp[tid] >= 0:
                held.add(access)
        return len(held) * self.tile_bytes

    def missing_bytes_batch(self, indptr, indices) -> np.ndarray:
        """Vectorized :meth:`missing_bytes` over a CSR batch of footprints;
        same kernel and dedup caveat as
        :meth:`FastTileResidency.missing_bytes_batch`.
        """
        self._ensure(len(self._interner))
        stamp = np.fromiter(self._stamp, dtype=np.int64,
                            count=len(self._stamp))
        miss = np.where(stamp[indices] < 0, 1, 0)
        csum = np.zeros(len(miss) + 1, dtype=np.int64)
        np.cumsum(miss, out=csum[1:])
        return (csum[indptr[1:]] - csum[indptr[:-1]]) * self.tile_bytes

    def resident_footprint_bytes_batch(self, indptr, indices) -> np.ndarray:
        """Vectorized :meth:`resident_footprint_bytes` over a CSR batch."""
        self._ensure(len(self._interner))
        stamp = np.fromiter(self._stamp, dtype=np.int64,
                            count=len(self._stamp))
        held = np.where(stamp[indices] >= 0, 1, 0)
        csum = np.zeros(len(held) + 1, dtype=np.int64)
        np.cumsum(held, out=csum[1:])
        return (csum[indptr[1:]] - csum[indptr[:-1]]) * self.tile_bytes

    # ------------------------------------------------------------- updates
    def touch(self, accesses) -> float:
        """Bring a footprint of tile names resident; returns the fill bytes."""
        intern = self._interner.intern
        foot: List[int] = []
        for access in accesses:
            tid = intern(access)
            if tid not in foot:
                foot.append(tid)
        self._ensure(len(self._interner))
        return self.touch_ids(foot)

    def touch_ids(self, foot: Sequence[int]) -> float:
        """Bring a deduplicated, interned footprint resident in one call."""
        stamp = self._stamp
        qt = self._qt
        head = self._qhead
        qbase = self._qbase
        tb = self.tile_bytes
        clock = self._clock
        pin_floor = clock
        nmiss = 0
        rc = self._rc
        for tid in foot:
            if stamp[tid] < 0:
                nmiss += 1
                rc += 1
            stamp[tid] = clock
            qt.append(tid)
            clock += 1
        self._clock = clock
        if rc > self._cap_tiles:
            qn = len(qt)
            cap_tiles = self._cap_tiles
            while rc > cap_tiles and head < qn:
                vid = qt[head]
                st = qbase + head
                if stamp[vid] != st:
                    head += 1
                    continue
                if st >= pin_floor:
                    break
                head += 1
                stamp[vid] = -1
                rc -= 1
            if head > 65536 and head * 2 > qn:
                del qt[:head]
                self._qbase = qbase + head
                head = 0
        self._qhead = head
        self._rc = rc
        resident = rc * tb
        if resident > self.peak_resident_bytes:
            self.peak_resident_bytes = resident
        return float(nmiss * tb)

    def invalidate(self, access: TileAccess) -> None:
        """Drop a tile (shared-level eviction or a sibling core's write)."""
        tid = self._interner.ids.get(access)
        if tid is not None and tid < len(self._stamp) and self._stamp[tid] >= 0:
            self._stamp[tid] = -1
            self._rc -= 1

    def invalidate_ids(self, tids: Sequence[int]) -> None:
        """Drop every listed tile id that is currently resident."""
        stamp = self._stamp
        rc = self._rc
        for tid in tids:
            if stamp[tid] >= 0:
                stamp[tid] = -1
                rc -= 1
        self._rc = rc


class GraphArrays:
    """Dense per-index arrays of one :class:`TaskGraph` for the scheduler loop.

    Task ids are *not* assumed 0-based or contiguous (the builders share one
    id counter across graphs), so everything is indexed by graph position
    with ``ids`` / ``id2idx`` translating.  Successor lists and indegrees
    are plain Python lists (what the scalar hot loop indexes); footprints
    are additionally exported as CSR numpy arrays for the bulk priority
    kernels.  Built once per graph and cached on it
    (:meth:`TaskGraph.fast_arrays`).
    """

    def __init__(self, graph: TaskGraph):
        tasks = list(graph)
        n = len(tasks)
        self.graph = graph
        self.tasks = tasks
        self.interner = TileInterner()
        intern = self.interner.intern
        self.ids = [task.task_id for task in tasks]
        self.id2idx = {tid: i for i, tid in enumerate(self.ids)}
        id2idx = self.id2idx
        self.indegree0 = [len(set(task.depends_on)) for task in tasks]
        succ: List[List[int]] = [[] for _ in range(n)]
        for i, task in enumerate(tasks):
            for dep in set(task.depends_on):
                succ[id2idx[dep]].append(i)
        # Successor lists are built by ascending task index, so each list is
        # already sorted; the hot loop only needs a deterministic order.
        self.succ: List[Tuple[int, ...]] = [tuple(lst) for lst in succ]
        # Interned footprints: foot_ids is the deduplicated reads+writes
        # order the residency model consumes; rw_len is the raw (non-dedup)
        # operand count the on-chip energy term charges.
        self.foot_ids: List[Tuple[int, ...]] = []
        self.write_ids: List[Tuple[int, ...]] = []
        self.rw_len: List[int] = []
        coords: Dict[Tuple[int, int], int] = {}
        self.out_id: List[int] = []
        self.kinds = [task.kind for task in tasks]
        # Dense kind codes: the loop resolves per-task flops by a list index
        # instead of hashing a TaskKind enum a million times.
        kind_of: Dict = {}
        self.kind_code: List[int] = []
        for k in self.kinds:
            code = kind_of.get(k)
            if code is None:
                code = len(kind_of)
                kind_of[k] = code
            self.kind_code.append(code)
        self.kind_table = list(kind_of)
        group_of: Dict[Tuple, int] = {}
        self.group: List[int] = []
        for task in tasks:
            reads = task.read_tiles()
            writes = task.write_tiles()
            foot: List[int] = []
            for access in reads + writes:
                tid = intern(access)
                if tid not in foot:
                    foot.append(tid)
            self.foot_ids.append(tuple(foot))
            self.write_ids.append(tuple(intern(access) for access in writes))
            self.rw_len.append(len(reads) + len(writes))
            out = task.output
            oid = coords.get(out)
            if oid is None:
                oid = len(coords)
                coords[out] = oid
            self.out_id.append(oid)
            gkey = (task.kind, task.alpha == 1.0, bool(task.transpose_b))
            gid = group_of.get(gkey)
            if gid is None:
                gid = len(group_of)
                group_of[gkey] = gid
            self.group.append(gid)
        self.num_groups = len(group_of)
        self.num_out_coords = len(coords)
        # CSR form of the interned footprints, for the numpy-bulk priority
        # kernels (missing/resident bytes of many ready candidates in one
        # call -- see ``missing_bytes_batch`` on the residency classes).
        self.foot_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([len(foot) for foot in self.foot_ids],
                  out=self.foot_indptr[1:])
        self.foot_indices = np.fromiter(
            (tid for foot in self.foot_ids for tid in foot), dtype=np.int64,
            count=int(self.foot_indptr[-1]))
        # Tasks per memoization group: lets the loop reconcile the
        # timing model's hit counters in one bulk call per group instead of
        # incrementing a counter per task.
        self.group_counts = [0] * self.num_groups
        for gid in self.group:
            self.group_counts[gid] += 1
        # When task ids ascend with graph index (true for the builders,
        # which hand out ids sequentially), a heap tie-break on the id is
        # equivalent to one on the index and the specialized loop can use
        # two-field heap entries.
        self.ids_ascending = all(a < b for a, b in zip(self.ids,
                                                       self.ids[1:]))
        # Per-(tile, energy-constants) metadata tuples for the specialized
        # greedy loop; built lazily by execute_fast and keyed so a config
        # change invalidates it.
        self._greedy_meta: Optional[Tuple[Tuple, List[Tuple]]] = None
        # Negated critical-path ranks per graph position (a pure graph
        # property under unit weights); built lazily on the first
        # critical_path execute and reused across sweep points.
        self._negrank: Optional[List[float]] = None


def _uniform_square_tiles(tiles: Dict, t: int) -> bool:
    """Whether every operand tile is a ``t x t`` array.

    When true, a task's memoization signature is a pure function of its
    ``(kind, unit-alpha, transpose)`` group, so the per-task signature
    computation collapses to a per-group cycle table.  Operand dictionaries
    may alias (a factorization binds A/B/C/L to one dict); the ``TAU``
    side store holds 1-D reflector scalars and never enters a signature.
    """
    seen = set()
    for name in ("A", "B", "C", "L"):
        mapping = tiles.get(name)
        if mapping is None or id(mapping) in seen:
            continue
        seen.add(id(mapping))
        for arr in mapping.values():
            if getattr(arr, "shape", None) != (t, t):
                return False
    return True


def _policy_codes() -> Dict[type, int]:
    from repro.lap.policies import (AffinityScheduler, CriticalPathPriority,
                                    GreedyEarliestCore, LocalityAware,
                                    MemoryAware)
    return {GreedyEarliestCore: 0, CriticalPathPriority: 1, LocalityAware: 2,
            MemoryAware: 3, AffinityScheduler: 4}


#: Exact policy types the inlined loop replicates (``get_policy`` rejects
#: anything else: a subclass's overridden hooks would be silently ignored).
_POLICY_CODES: Dict[type, int] = _policy_codes()

#: Counters of the schedule-replay fast path (reset freely in tests).
#: ``sidecar_loaded`` / ``sidecar_stored`` track the cross-process replay
#: sidecar (see :meth:`repro.engine.cache.ResultCache.sidecar`): loads seed
#: the in-process memo from disk, stores publish fresh recordings to it.
REPLAY_STATS: Dict[str, int] = {"recorded": 0, "replayed": 0, "forced": 0,
                                "sidecar_loaded": 0, "sidecar_stored": 0}


class ScheduleTrace:
    """Recorded schedule of one ``execute()`` call, for delta-sweep replay.

    Holds the scalar totals that decide when a changed constant can be
    replayed *exactly*: off-chip bandwidth only enters the schedule through
    spill stalls, and the prefetch-overlap fraction only through the
    visible part of ``stall + local transfer`` cycles, so a recorded
    schedule is provably identical to a re-simulation when the respective
    total is zero (or the constant did not change).  Two further replayable
    axes ride on the same argument: the chip clock only scales durations
    uniformly (exact when both points are homogeneous and no spill stall
    entered the cycle domain), and energy constants never feed back into
    dispatch at all -- a delta there re-keys the recorded per-task
    ``(flops, onchip_bytes, offchip_bytes)`` triples instead of
    re-simulating.  Anything else forces a re-simulation;
    :data:`REPLAY_STATS` counts both outcomes.  The policy, timing model
    and every other schedule-shaping parameter live in the replay memo's
    structural key, not here.
    """

    def __init__(self, stall_overlap: float,
                 effective_bandwidth_gbs: Optional[float],
                 default_bandwidth_gbs: float,
                 total_spill_bytes: float, total_movement_cycles: float,
                 makespan_cycles: float = 0.0,
                 frequency_ghz: float = 1.0,
                 homogeneous_cores: bool = True,
                 energy_constants: Optional[Tuple[float, float, float]] = None,
                 default_offchip_energy_per_byte_j: float = 60e-12,
                 flush_writeback_bytes: float = 0.0,
                 energy_triples: Optional[List[Tuple[float, float,
                                                     float]]] = None,
                 energy_triples_thunk=None):
        self.stall_overlap = stall_overlap
        self.effective_bandwidth_gbs = effective_bandwidth_gbs
        self.default_bandwidth_gbs = default_bandwidth_gbs
        self.total_spill_bytes = total_spill_bytes
        self.total_movement_cycles = total_movement_cycles
        self.makespan_cycles = makespan_cycles
        #: Chip clock the schedule was recorded at.
        self.frequency_ghz = frequency_ghz
        self.homogeneous_cores = homogeneous_cores
        #: ``(energy_per_flop_j, onchip_j_per_byte, offchip_j_per_byte)``
        #: the recorded energy was computed with; ``None`` when the run had
        #: data-movement accounting off.
        self.energy_constants = energy_constants
        self.default_offchip_energy_per_byte_j = (
            default_offchip_energy_per_byte_j)
        self.flush_writeback_bytes = flush_writeback_bytes
        self._energy_triples = energy_triples
        self._triples_thunk = energy_triples_thunk

    def to_payload(self) -> Dict[str, object]:
        """JSON-serialisable header for the cross-process replay sidecar.

        The exactness decision (:meth:`exact_for`) only needs the scalar
        header, so a sidecar record stays a few hundred bytes even for
        million-task schedules; the per-task energy triples stay behind.
        """
        return {
            "stall_overlap": self.stall_overlap,
            "effective_bandwidth_gbs": self.effective_bandwidth_gbs,
            "default_bandwidth_gbs": self.default_bandwidth_gbs,
            "total_spill_bytes": self.total_spill_bytes,
            "total_movement_cycles": self.total_movement_cycles,
            "makespan_cycles": self.makespan_cycles,
            "frequency_ghz": self.frequency_ghz,
            "homogeneous_cores": self.homogeneous_cores,
            "energy_constants": (None if self.energy_constants is None
                                 else list(self.energy_constants)),
            "default_offchip_energy_per_byte_j": (
                self.default_offchip_energy_per_byte_j),
            "flush_writeback_bytes": self.flush_writeback_bytes,
        }

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "ScheduleTrace":
        """Rebuild a header-only trace persisted by :meth:`to_payload`.

        Every field :meth:`to_payload` writes is required (a missing one
        raises :class:`KeyError`).  The per-task energy triples are never
        serialised, so a rebuilt trace replays makespan/clock deltas but
        refuses any point that would need an energy re-key
        (:meth:`exact_for` returns False and the point re-simulates).
        """
        bandwidth = payload["effective_bandwidth_gbs"]
        constants = payload["energy_constants"]
        return cls(
            stall_overlap=float(payload["stall_overlap"]),
            effective_bandwidth_gbs=(None if bandwidth is None
                                     else float(bandwidth)),
            default_bandwidth_gbs=float(payload["default_bandwidth_gbs"]),
            total_spill_bytes=float(payload["total_spill_bytes"]),
            total_movement_cycles=float(payload["total_movement_cycles"]),
            makespan_cycles=float(payload["makespan_cycles"]),
            frequency_ghz=float(payload["frequency_ghz"]),
            homogeneous_cores=bool(payload["homogeneous_cores"]),
            energy_constants=(None if constants is None
                              else tuple(float(v) for v in constants)),
            default_offchip_energy_per_byte_j=float(
                payload["default_offchip_energy_per_byte_j"]),
            flush_writeback_bytes=float(payload["flush_writeback_bytes"]),
        )

    # --------------------------------------------------- energy re-keying
    @property
    def has_energy_triples(self) -> bool:
        """Whether per-task energy triples are (or can be) materialised."""
        return (self._energy_triples is not None
                or self._triples_thunk is not None)

    def energy_triples(self) -> Optional[List[Tuple[float, float, float]]]:
        """Per-task ``(flops, onchip_bytes, offchip_bytes)`` triples.

        Materialised lazily on first use (the thunk installed by
        :meth:`LAPRuntime.schedule_trace` reads the recording run's
        execution rows); ``None`` on header-only traces rebuilt from the
        sidecar, where an energy re-key forces a re-simulation instead.
        """
        if self._energy_triples is None and self._triples_thunk is not None:
            self._energy_triples = self._triples_thunk()
            self._triples_thunk = None
        return self._energy_triples

    def rekey_energy_j(self, energy_per_flop_j: float,
                       onchip_energy_per_byte_j: float,
                       offchip_energy_per_byte_j: float) -> float:
        """Total schedule energy under new constants.

        Re-accumulates the per-task energies left to right with the same
        association the simulation used (``(fl * epf + on * epon) + off *
        epoff`` per task, then the end-of-schedule flush writeback), so
        calling it with the recorded :attr:`energy_constants` reproduces
        the recorded ``energy_j`` bit for bit.
        """
        triples = self.energy_triples()
        if triples is None:
            raise ValueError(
                "per-task energy triples unavailable (header-only trace)")
        epf = energy_per_flop_j
        epon = onchip_energy_per_byte_j
        epoff = offchip_energy_per_byte_j
        total = 0.0
        for fl, on, off in triples:
            total += (fl * epf + on * epon) + off * epoff
        total += self.flush_writeback_bytes * epoff
        return total

    def exact_for(self, bandwidth_gbs: Optional[float],
                  stall_overlap: float,
                  frequency_ghz: Optional[float] = None,
                  homogeneous_cores: bool = True,
                  offchip_energy_per_byte_j: Optional[float] = None) -> bool:
        """Whether replaying at the new constants is provably exact.

        ``bandwidth_gbs`` is the *effective* bandwidth of the new point
        (the chip default when no override is given); ``None`` means the
        new point has data-movement accounting disabled, where bandwidth
        cannot matter.  ``frequency_ghz`` is the new point's chip clock
        (``None`` = don't check the axis), ``homogeneous_cores`` whether
        every core of the *new* point runs at that clock, and
        ``offchip_energy_per_byte_j`` the new point's off-chip energy
        constant (``None`` = don't check).  A frequency delta with memory
        accounting on, or an off-chip-energy delta, additionally requires
        the per-task energy triples so the energy column can be re-keyed.
        """
        if (bandwidth_gbs is not None
                and self.effective_bandwidth_gbs is not None
                and bandwidth_gbs != self.effective_bandwidth_gbs
                and self.total_spill_bytes != 0.0):
            return False
        if (stall_overlap != self.stall_overlap
                and self.total_movement_cycles != 0.0):
            return False
        needs_rekey = False
        if frequency_ghz is not None and frequency_ghz != self.frequency_ghz:
            # A chip-clock change rescales every task duration by one
            # common factor, which leaves the dispatch order (and hence the
            # cycle-domain schedule) untouched only when both points are
            # homogeneous and no spill stall entered the cycle domain
            # (stall_cycles = spill_bytes / (bandwidth / clock) moves with
            # the clock; compute cycles and on-chip transfer cycles do
            # not).
            if not (self.homogeneous_cores and homogeneous_cores):
                return False
            if self.total_spill_bytes != 0.0:
                return False
            if bandwidth_gbs is not None:
                # Memory accounting on: the per-flop energy constant moves
                # with the clock, so the energy column must be re-keyed.
                needs_rekey = True
        if offchip_energy_per_byte_j is not None:
            if self.energy_constants is None:
                return False
            if offchip_energy_per_byte_j != self.energy_constants[2]:
                needs_rekey = True
        if needs_rekey and not self.has_energy_triples:
            return False
        return True


def execute_fast(runtime, graph: TaskGraph, tiles: Dict,
                 verify: bool) -> Dict[str, object]:
    """The scheduler loop behind :meth:`LAPRuntime.execute`.

    An event-driven ready-heap schedule with all per-task indirection
    removed: policies are inlined by code (``_POLICY_CODES``), the
    shared-level residency update (:meth:`FastTileResidency.touch_ids`) is
    inlined into the loop body with its scalar state held in local
    variables (written back to the residency object after the loop; the
    stamp/dirty/ever lists *are* the live object state and mutate in
    place), memoized cycle counts come from a per-group table, and
    executions are recorded as plain row tuples that
    ``LAPRuntime.executions`` materialises lazily.

    Heap entries are flat tuples for the static policies -- ``(r, id, i)``
    or ``(negrank, r, id, i)`` -- because the version stamp and the
    revalidation step only exist for the dynamic, memory-keyed policies;
    the comparison order is identical to ``(policy key, task id)`` since
    the unique task id decides every tie before the trailing index is
    reached.  Dynamic policies (memory_aware, affinity) carry a residency
    version stamp and have stale keys lazily re-validated when they reach
    the heap top.
    """
    from repro.lap.memory import MemoryHierarchy
    from repro.lap.runtime import TaskExecution, _ExecutionContext

    ga = graph.fast_arrays()
    tasks = ga.tasks
    n = len(tasks)
    ids = ga.ids
    foot_ids = ga.foot_ids
    write_ids = ga.write_ids
    rw_len = ga.rw_len
    out_id = ga.out_id
    succ = ga.succ
    group = ga.group
    kinds = ga.kinds
    kind_code = ga.kind_code

    policy = runtime.policy
    pcode = _POLICY_CODES[type(policy)]
    timing = runtime.timing
    t = runtime.tile
    num_cores = len(runtime.lap.cores)
    reference_freq = runtime.lap.config.frequency_ghz
    frequencies = runtime.core_frequencies_ghz
    homogeneous = runtime._homogeneous
    visible = 1.0 - runtime.stall_overlap

    memory = (MemoryHierarchy.for_chip(
        runtime.lap, t,
        on_chip_kb=runtime.on_chip_kb,
        bandwidth_gbs=runtime.bandwidth_gbs,
        local_store_kb=runtime.local_store_kb,
        interner=ga.interner,
        offchip_pj_per_byte=runtime.offchip_pj_per_byte)
              if runtime.memory_enabled else None)
    runtime.last_memory = memory
    policy.prepare(graph)
    has_mem = memory is not None
    dynamic = pcode >= 3 and has_mem
    crit = pcode == 1

    # Loop-local accounting state.  When data-movement accounting is off,
    # every per-task cost below stays at these zeros.
    stores = None
    stall = transfer_cycles = energy = 0.0
    local_hit = shared_fill = c2c = 0.0
    refill_b = spill_b = wb_b = 0
    if has_mem:
        res = memory.residency
        stores = memory.local_stores
        tile_bytes = res.tile_bytes
        tb = tile_bytes
        res_capmax = res._cap_tiles
        res_stamp = res._stamp
        res_dirty = res._dirty
        res_ever = res._ever
        res_qt = res._qt
        res_qt_append = res_qt.append
        res_qhead = res._qhead
        res_qbase = res._qbase
        res_clock = res._clock
        res_rc = res._rc
        res_dc = res._dirty_count
        res_version = res.version
        peak_rc = res.peak_resident_bytes // tb
        bandwidth = memory.bandwidth
        bpc_off = bandwidth.interface.bytes_per_cycle(bandwidth.frequency_ghz)
        obw = memory.onchip_bw_bytes_per_cycle
        epf = memory.energy.energy_per_flop_j
        epon = memory.energy.onchip_energy_per_byte_j
        epoff = memory.energy.offchip_energy_per_byte_j
        flops_by_code = [_TASK_FLOPS[k](t) for k in ga.kind_table]
        task_flops = [flops_by_code[cd] for cd in kind_code]
        # Totals accumulate in locals (same per-task order as the reference
        # fields, starting from the same 0.0/0, so the final write-back is
        # bit-identical); byte counters stay integers, which is exact.
        tot_flops = tot_energy = tot_stall = tot_ltc = 0.0
        tot_lhit = tot_sfill = tot_c2c = 0.0
        tot_comp = tot_spill = tot_wb = 0
        if stores is not None:
            store_stamps = [store._stamp for store in stores]

    ctx = _ExecutionContext(runtime, tiles)
    use_table = (type(timing) is MemoizedTiming and not verify
                 and _uniform_square_tiles(tiles, t))
    if use_table:
        gtable: List[Optional[int]] = [None] * ga.num_groups
        gsig: List = [None] * ga.num_groups

    if crit:
        negrank = ga._negrank
        if negrank is None:
            # Pure graph property (unit-weight critical-path ranks), cached
            # on the arrays so repeat executes skip the n-element rebuild.
            negrank = policy.negated_rank_array(ids).tolist()
            ga._negrank = negrank

    core_free: List[float] = [0] * num_cores
    busy_cycles: List[int] = [0] * num_cores
    busy_time: List[float] = [0] * num_cores
    owner = [-1] * ga.num_out_coords
    ready: List[float] = [0] * n
    indeg = list(ga.indegree0)
    rows: List[Tuple] = []
    rows_append = rows.append
    heappush = heapq.heappush
    heappop = heapq.heappop

    # -- inlined policy.priority (dynamic policies only; static keys are
    # built flat at the push sites) -----------------------------------------
    if dynamic and stores is None:
        def prio(i, r):
            miss = 0
            for tid in foot_ids[i]:
                if res_stamp[tid] < 0:
                    miss += 1
            return (miss * tile_bytes, r)
    elif dynamic:
        def prio(i, r):
            foot = foot_ids[i]
            miss = 0
            for tid in foot:
                if res_stamp[tid] < 0:
                    miss += 1
            ow = owner[out_id[i]]
            lstamp = store_stamps[ow if ow >= 0 else 0]
            lmiss = 0
            for tid in foot:
                if lstamp[tid] < 0:
                    lmiss += 1
            return (miss * tile_bytes, lmiss * tile_bytes, r)

    cur_version = (res.version + memory._local_version if has_mem else 0)
    local_version = memory._local_version if has_mem else 0
    heap: List[Tuple] = []
    if dynamic:
        # Bulk-score the whole initial ready set in one numpy pass (the
        # policy's batch kernel over the CSR footprints) instead of one
        # Python footprint walk per root.  The keys are element-for-element
        # equal to the scalar ``prio`` tuples and ``(key, task_id)`` is
        # unique per entry, so heapify produces the same pop sequence as
        # repeated pushes.
        ready0 = [i for i in range(n) if indeg[i] == 0]
        keys = policy.bulk_priorities(ga, memory, ready0, [0] * len(ready0))
        heap = [(keys[k], ids[i], cur_version, i)
                for k, i in enumerate(ready0)]
        heapq.heapify(heap)
    else:
        for i in range(n):
            if indeg[i] == 0:
                if crit:
                    heappush(heap, (negrank[i], 0, ids[i], i))
                else:
                    heappush(heap, (0, ids[i], i))

    # -- specialized loop for the dominant benchmark shape ------------------
    # Static greedy policy, homogeneous cores, memoized group table, shared
    # level only: every per-task configuration branch of the generic loop
    # below is constant here, so it is unrolled into a dedicated loop with
    # per-task metadata tuples (one index + unpack instead of eight list
    # subscripts) and the data-movement-free part of the energy term
    # precomputed per task.  Exactness notes: ``(stall + 0.0) * visible ==
    # stall * visible`` and ``flops * epf + onchip * epon`` is the same two
    # products and one add whether evaluated per task or once, so every
    # float matches the generic loop bit for bit.  Rows are recorded in a
    # compact 8-field form and expanded to TaskExecution lazily.
    specialized = (pcode == 0 and use_table and has_mem and stores is None
                   and homogeneous and bpc_off > 0 and ga.ids_ascending)
    if specialized:
        mkey = (t, tb, epf, epon)
        cached = ga._greedy_meta
        if cached is not None and cached[0] == mkey:
            meta = cached[1]
        else:
            meta = [(group[i], foot_ids[i],
                     write_ids[i][0] if len(write_ids[i]) == 1
                     else write_ids[i],
                     task_flops[i],
                     task_flops[i] * epf + rw_len[i] * tb * epon, succ[i])
                    for i in range(n)]
            ga._greedy_meta = (mkey, meta)
        # Re-seed with (ready, index) pairs: ids ascend with index, so the
        # pop order is identical to the generic (ready, id, index) keys.
        heap[:] = [(0, i) for i in range(n) if indeg[i] == 0]
        heapq.heapify(heap)
        # Ready times and indegrees interleaved in one list: a successor's
        # pair shares a cache line, which matters once the graph outgrows
        # the caches.
        ri = [0] * (2 * n)
        ri[1::2] = ga.indegree0
        while heap:
            rtime, i = heappop(heap)
            start = min(core_free)
            c = core_free.index(start)
            if rtime > start:
                start = rtime
            gid, foot, wids, flops, base_e, sucs = meta[i]
            cycles = gtable[gid]
            if cycles is None:
                task = tasks[i]
                ctx.core_index = c
                cycles = timing.task_cycles(task, ctx, verify)
                gtable[gid] = cycles
                gsig[gid] = ctx.signature(task)
            pin_floor = res_clock
            nmiss = nspill = 0
            for tid in foot:
                if res_stamp[tid] < 0:
                    nmiss += 1
                    if res_ever[tid]:
                        nspill += 1
                    else:
                        res_ever[tid] = True
                    res_rc += 1
                res_stamp[tid] = res_clock
                res_qt_append(tid)
                res_clock += 1
            if type(wids) is int:
                if not res_dirty[wids]:
                    res_dirty[wids] = True
                    res_dc += 1
            else:
                for tid in wids:
                    if not res_dirty[tid]:
                        res_dirty[tid] = True
                        res_dc += 1
            wb = 0
            nvict = 0
            if res_rc > res_capmax:
                qn = len(res_qt)
                while res_rc > res_capmax and res_qhead < qn:
                    vid = res_qt[res_qhead]
                    st = res_qbase + res_qhead
                    if res_stamp[vid] != st:
                        res_qhead += 1      # stale: tile was re-stamped
                        continue
                    if st >= pin_floor:
                        break               # only the pinned footprint left
                    res_qhead += 1
                    res_stamp[vid] = -1
                    res_rc -= 1
                    nvict += 1
                    if res_dirty[vid]:
                        res_dirty[vid] = False
                        res_dc -= 1
                        wb += 1
                if res_qhead > 262144 and res_qhead * 2 > qn:
                    del res_qt[:res_qhead]
                    res_qbase += res_qhead
                    res_qhead = 0
            if res_rc > peak_rc:
                peak_rc = res_rc
            if nmiss or nvict:
                res_version += 1
            refill_b = nmiss * tb
            spill_b = nspill * tb
            if nspill:
                stall = spill_b / bpc_off
                end = start + (cycles + stall * visible)
            else:
                stall = 0.0
                end = start + (cycles + 0.0)
            wb_b = wb * tb
            energy = base_e + (refill_b + wb_b) * epoff
            tot_flops += flops
            tot_energy += energy
            tot_stall += stall
            tot_comp += refill_b - spill_b
            tot_spill += spill_b
            tot_wb += wb_b
            core_free[c] = end
            busy_cycles[c] += cycles
            rows_append((i, c, start, end, refill_b, energy, spill_b, wb_b))
            for j in sucs:
                jj = j + j
                rj = ri[jj]
                if end > rj:
                    ri[jj] = end
                    rj = end
                d = ri[jj + 1] - 1
                ri[jj + 1] = d
                if d == 0:
                    heappush(heap, (rj, j))
        gsnap = list(gtable)

        def exec_build(rows=rows, ids=ids, kinds=kinds, group=group,
                       gtable=gsnap, bpc=bpc_off):
            # stall is recomputed from the spill bytes with the same
            # division the loop used, so the value is bit-identical.
            return [TaskExecution(ids[i], kinds[i], c, start, end,
                                  (sb / bpc) if sb else 0.0,
                                  float(rb), energy, 0.0, 0.0,
                                  gtable[group[i]], float(sb), 0.0, 0.0,
                                  float(wbb))
                    for i, c, start, end, rb, energy, sb, wbb in rows]

    affinity_cores = pcode == 4 and stores is not None
    owner_cores = pcode in (2, 3)
    need_owner = pcode >= 2    # greedy/critical-path never read the owner map
    track_victims = stores is not None
    victims: Sequence[int] = ()

    while heap:
        if dynamic:
            key, task_id, stamp, i = heappop(heap)
            rtime = ready[i]
            if stamp != cur_version:
                key = prio(i, rtime)
                if heap and (key, task_id) > (heap[0][0], heap[0][1]):
                    heappush(heap, (key, task_id, cur_version, i))
                    continue
        else:
            i = heappop(heap)[-1]
            rtime = ready[i]

        # -- inlined policy.choose_core (first-minimum scans) ---------------
        if affinity_cores:
            foot = foot_ids[i]
            ow = owner[out_id[i]]
            bk = None
            c = 0
            for ci in range(num_cores):
                lstamp = store_stamps[ci]
                held = 0
                for tid in foot:
                    if lstamp[tid] >= 0:
                        held += 1
                f = core_free[ci]
                ck = (-held * tile_bytes, 0 if ci == ow else 1,
                      f if f > rtime else rtime)
                if bk is None or ck < bk:
                    bk = ck
                    c = ci
            start = bk[2]
        elif owner_cores:
            ow = owner[out_id[i]]
            bk = None
            c = 0
            for ci in range(num_cores):
                f = core_free[ci]
                ck = (f if f > rtime else rtime, 0 if ci == ow else 1)
                if bk is None or ck < bk:
                    bk = ck
                    c = ci
            start = bk[0]
        else:
            start = min(core_free)
            c = core_free.index(start)
            if rtime > start:
                start = rtime

        # -- timing ----------------------------------------------------------
        if use_table:
            cycles = gtable[group[i]]
            if cycles is None:
                gid = group[i]
                task = tasks[i]
                ctx.core_index = c
                cycles = timing.task_cycles(task, ctx, verify)
                gtable[gid] = cycles
                gsig[gid] = ctx.signature(task)
        else:
            ctx.core_index = c
            cycles = timing.task_cycles(tasks[i], ctx, verify)
        if homogeneous:
            duration = cycles
        else:
            duration = cycles * reference_freq / frequencies[c]
        compute_duration = duration

        # -- inlined MemoryHierarchy.account / FastTileResidency.touch_ids --
        if has_mem:
            foot = foot_ids[i]
            pin_floor = res_clock
            nmiss = nspill = 0
            for tid in foot:
                if res_stamp[tid] < 0:
                    nmiss += 1
                    if res_ever[tid]:
                        nspill += 1
                    else:
                        res_ever[tid] = True
                    res_rc += 1
                res_stamp[tid] = res_clock
                res_qt_append(tid)
                res_clock += 1
            wids = write_ids[i]
            for tid in wids:
                if not res_dirty[tid]:
                    res_dirty[tid] = True
                    res_dc += 1
            wb = 0
            nvict = 0
            if res_rc > res_capmax:
                if track_victims:
                    victims = []
                qn = len(res_qt)
                while res_rc > res_capmax and res_qhead < qn:
                    vid = res_qt[res_qhead]
                    st = res_qbase + res_qhead
                    if res_stamp[vid] != st:
                        res_qhead += 1      # stale entry: tile was re-stamped
                        continue
                    if st >= pin_floor:
                        break               # only the pinned footprint remains
                    res_qhead += 1
                    res_stamp[vid] = -1
                    res_rc -= 1
                    nvict += 1
                    if track_victims:
                        victims.append(vid)
                    if res_dirty[vid]:
                        res_dirty[vid] = False
                        res_dc -= 1
                        wb += 1
                if res_qhead > 262144 and res_qhead * 2 > qn:
                    del res_qt[:res_qhead]
                    res_qbase += res_qhead
                    res_qhead = 0
            if res_rc > peak_rc:
                peak_rc = res_rc
            if nmiss or nvict:
                res_version += 1
            refill_b = nmiss * tb
            spill_b = nspill * tb
            if spill_b > 0:
                stall = (spill_b / bpc_off if bpc_off > 0
                         else bandwidth.stall_cycles(spill_b))
            else:
                stall = 0.0
            flops = task_flops[i]
            onchip_bytes = rw_len[i] * tb
            if stores is not None:
                if nvict:
                    for store in stores:
                        store.invalidate_ids(victims)
                store = stores[c]
                sstamp = store_stamps[c]
                lhit = ncc = nsf = 0
                for tid in foot:
                    if sstamp[tid] >= 0:
                        lhit += 1
                    else:
                        for s2 in range(num_cores):
                            if s2 != c and store_stamps[s2][tid] >= 0:
                                ncc += 1
                                break
                        else:
                            nsf += 1
                store.touch_ids(foot)
                if wids:
                    for s2 in range(num_cores):
                        if s2 != c:
                            stores[s2].invalidate_ids(wids)
                local_version += 1
                local_hit = float(lhit * tb)
                shared_fill = float(nsf * tb)
                c2c = float(ncc * tb)
                transfer_bytes = shared_fill + c2c
                transfer_cycles = (transfer_bytes / obw
                                   if transfer_bytes > 0 and obw > 0 else 0.0)
                onchip_bytes = onchip_bytes + transfer_bytes
                tot_lhit += local_hit
                tot_sfill += shared_fill
                tot_c2c += c2c
                tot_ltc += transfer_cycles
            wb_b = wb * tb
            energy = (flops * epf + onchip_bytes * epon
                      + (refill_b + wb_b) * epoff)
            tot_flops += flops
            tot_energy += energy
            tot_stall += stall
            tot_comp += refill_b - spill_b
            tot_spill += spill_b
            tot_wb += wb_b
            duration = duration + (stall + transfer_cycles) * visible
            if dynamic:
                cur_version = res_version + local_version

        end = start + duration
        core_free[c] = end
        busy_cycles[c] += cycles
        if not homogeneous:
            busy_time[c] += compute_duration
        if need_owner:
            owner[out_id[i]] = c
        rows_append((ids[i], kinds[i], c, start, end, stall, float(refill_b),
                     energy, transfer_cycles, local_hit, compute_duration,
                     float(spill_b), shared_fill, c2c, float(wb_b)))

        for j in succ[i]:
            rj = ready[j]
            if end > rj:
                ready[j] = end
                rj = end
            d = indeg[j] - 1
            indeg[j] = d
            if d == 0:
                if dynamic:
                    heappush(heap, (prio(j, rj), ids[j], cur_version, j))
                elif crit:
                    heappush(heap, (negrank[j], rj, ids[j], j))
                else:
                    heappush(heap, (rj, ids[j], j))

    if len(rows) != n:
        raise RuntimeError("task graph deadlock: circular dependencies")

    if use_table:
        # Every task ran, so each group charged one warm/table fill above
        # and group_counts - 1 table hits.
        group_counts = ga.group_counts
        for gid in range(ga.num_groups):
            extra = group_counts[gid] - 1
            if extra > 0:
                timing.bulk_charge(gsig[gid], extra)

    if has_mem:
        res._clock = res_clock
        res._rc = res_rc
        res._qhead = res_qhead
        res._qbase = res_qbase
        res._dirty_count = res_dc
        res.version = res_version
        res.peak_resident_bytes = peak_rc * tb
        memory.total_flops += tot_flops
        memory.total_energy_j += tot_energy
        memory.total_stall_cycles += tot_stall
        memory.compulsory_bytes += tot_comp
        memory.spill_bytes += tot_spill
        memory.writeback_bytes += tot_wb
        memory.local_hit_bytes += tot_lhit
        memory.shared_to_local_bytes += tot_sfill
        memory.c2c_bytes += tot_c2c
        memory.local_transfer_cycles += tot_ltc
        memory._local_version = local_version
    if not specialized:
        def exec_build(rows=rows):
            return [TaskExecution(*row) for row in rows]
    runtime._executions = None
    runtime._exec_build = exec_build
    makespan = max(core_free) if core_free else 0
    runtime.last_makespan = float(makespan)
    stats: Dict[str, object] = {
        "makespan_cycles": makespan,
        "per_core_busy_cycles": busy_cycles,
        "parallel_efficiency": (sum(busy_cycles if homogeneous else busy_time)
                                / (makespan * num_cores))
        if makespan else 0.0,
        "tasks_executed": len(rows),
        "policy": policy.name,
        "timing": timing.name,
        "makespan_ns": makespan / reference_freq,
        "data_valid": timing.keeps_data(verify),
    }
    if has_mem:
        memory.finish()
        stats.update(memory.summary())
    stats["graph"] = graph.summary()
    return stats
