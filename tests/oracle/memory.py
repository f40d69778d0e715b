"""OrderedDict reference residency levels and per-task memory accounting.

The production :class:`repro.lap.memory.MemoryHierarchy` keeps both
residency levels as the structure-of-arrays LRUs of
:mod:`repro.lap.fastpath`, and the scheduler loop inlines the per-task
accounting.  This module keeps the straightforward formulation the fast
classes are pinned against:

* :class:`TileResidency` -- the shared level: an ``OrderedDict`` LRU over
  the on-chip capacity with compulsory / spill / writeback accounting;
* :class:`LocalStore` -- the per-core second level (inclusive,
  write-through);
* :class:`ReferenceMemoryHierarchy` -- a :class:`MemoryHierarchy` built on
  the two classes above, with :meth:`~ReferenceMemoryHierarchy.account`
  producing one :class:`TaskMemoryEvent` per dispatched task.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterable, List, Tuple

import numpy as np

from repro.lap.memory import MemoryHierarchy
from repro.lap.taskgraph import TaskDescriptor, TileAccess, task_flops


@dataclass
class TaskMemoryEvent:
    """Data-movement accounting of one scheduled task.

    ``refill_bytes`` splits into ``compulsory_bytes`` (first-ever fetch of a
    tile, overlapped with compute by the streaming design, no stall) and
    ``spill_refill_bytes`` (re-fetch of a tile the working set evicted,
    which exceeds the streaming budget and stalls the task).
    ``writeback_bytes`` counts dirty evictions this task's fetches forced.

    With per-core local stores enabled the on-chip side of the footprint
    additionally splits into ``local_hit_bytes`` (already in the assigned
    core's store), ``c2c_bytes`` (copied from a sibling core's store) and
    ``shared_to_local_bytes`` (filled from the shared level);
    ``local_transfer_cycles`` is the time both transfer kinds take through
    the on-chip bandwidth.
    """

    task_id: int
    refill_bytes: float = 0.0
    compulsory_bytes: float = 0.0
    spill_refill_bytes: float = 0.0
    writeback_bytes: float = 0.0
    stall_cycles: float = 0.0
    energy_j: float = 0.0
    flops: float = 0.0
    local_hit_bytes: float = 0.0
    shared_to_local_bytes: float = 0.0
    c2c_bytes: float = 0.0
    local_transfer_cycles: float = 0.0
    #: Bytes of on-chip SRAM accesses the energy model charged for this
    #: task (operand footprint plus any local-fill transfer bytes).
    onchip_bytes: float = 0.0

    @property
    def offchip_bytes(self) -> float:
        """Bytes this task moved across the chip boundary."""
        return self.refill_bytes + self.writeback_bytes

    def as_args(self) -> Dict[str, float]:
        """The event as flat trace-span arguments (non-zero fields only)."""
        fields = {
            "refill_bytes": self.refill_bytes,
            "compulsory_bytes": self.compulsory_bytes,
            "spill_refill_bytes": self.spill_refill_bytes,
            "writeback_bytes": self.writeback_bytes,
            "energy_j": self.energy_j,
            "flops": self.flops,
            "local_hit_bytes": self.local_hit_bytes,
            "shared_to_local_bytes": self.shared_to_local_bytes,
            "c2c_bytes": self.c2c_bytes,
        }
        return {name: value for name, value in fields.items() if value}


class TileResidency:
    """LRU working set of logical tiles over an on-chip capacity.

    Tiles are identified by ``(operand, (block_row, block_col))`` names
    and all occupy ``tile_bytes``.  A task's footprint is *pinned* while it
    is brought resident, so one task's tiles never evict each other; a
    footprint larger than the capacity is allowed to overflow transiently.
    """

    def __init__(self, capacity_bytes: float, tile_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("on-chip capacity must be positive")
        if tile_bytes <= 0:
            raise ValueError("tile bytes must be positive")
        self.capacity_bytes = float(capacity_bytes)
        self.tile_bytes = int(tile_bytes)
        self._lru: "OrderedDict[TileAccess, None]" = OrderedDict()
        self._dirty: set = set()
        self._ever_loaded: set = set()
        self.peak_resident_bytes = 0
        #: Monotonic membership version (stale-priority detection).
        self.version = 0
        #: Tiles the most recent touch()/flush() evicted, in eviction order.
        self.last_evicted: List[TileAccess] = []

    @property
    def resident_bytes(self) -> int:
        return len(self._lru) * self.tile_bytes

    def is_resident(self, access: TileAccess) -> bool:
        return access in self._lru

    def missing_bytes(self, accesses: Iterable[TileAccess]) -> int:
        """Bytes a footprint would have to fetch right now (no state change)."""
        missing = {a for a in accesses if a not in self._lru}
        return len(missing) * self.tile_bytes

    def _evict_down_to_capacity(self, pinned: set) -> Tuple[List[TileAccess], float]:
        victims: List[TileAccess] = []
        writeback = 0.0
        while (self.resident_bytes > self.capacity_bytes
               and any(key not in pinned for key in self._lru)):
            victim = next(key for key in self._lru if key not in pinned)
            del self._lru[victim]
            victims.append(victim)
            if victim in self._dirty:
                self._dirty.discard(victim)
                writeback += self.tile_bytes
        return victims, writeback

    def touch(self, reads: Iterable[TileAccess],
              writes: Iterable[TileAccess]) -> Tuple[float, float, float, float]:
        """Bring a task's footprint resident; returns the traffic it caused.

        Returns ``(refill, compulsory, spill_refill, writeback)`` in bytes.
        Read and written tiles are both fetched; written tiles are marked
        dirty so their eventual eviction costs a writeback.
        """
        reads = list(reads)
        writes = list(writes)
        footprint: List[TileAccess] = []
        for access in reads + writes:
            if access not in footprint:
                footprint.append(access)
        pinned = set(footprint)
        refill = compulsory = spill = 0.0
        for access in footprint:
            if access in self._lru:
                self._lru.move_to_end(access)
                continue
            refill += self.tile_bytes
            if access in self._ever_loaded:
                spill += self.tile_bytes
            else:
                compulsory += self.tile_bytes
                self._ever_loaded.add(access)
            self._lru[access] = None
        for access in writes:
            self._dirty.add(access)
        victims, writeback = self._evict_down_to_capacity(pinned)
        self.last_evicted = victims
        self.peak_resident_bytes = max(self.peak_resident_bytes,
                                       self.resident_bytes)
        # Only membership changes (what missing_bytes sees) bump the version.
        if refill > 0 or victims:
            self.version += 1
        return refill, compulsory, spill, writeback

    def flush(self) -> float:
        """Write back every remaining dirty tile; returns the bytes moved."""
        writeback = float(len(self._dirty) * self.tile_bytes)
        self._dirty.clear()
        self.last_evicted = list(self._lru)
        self._lru.clear()
        self.version += 1
        return writeback


class LocalStore:
    """Per-core LRU working set of tiles over one core's local-store budget.

    Inclusive in the shared level and write-through; a task's footprint is
    pinned while it is brought resident, mirroring the shared level.
    """

    def __init__(self, capacity_bytes: float, tile_bytes: int):
        if capacity_bytes <= 0:
            raise ValueError("local-store capacity must be positive")
        if tile_bytes <= 0:
            raise ValueError("tile bytes must be positive")
        self.capacity_bytes = float(capacity_bytes)
        self.tile_bytes = int(tile_bytes)
        self._lru: "OrderedDict[TileAccess, None]" = OrderedDict()
        self.peak_resident_bytes = 0

    @property
    def resident_bytes(self) -> int:
        return len(self._lru) * self.tile_bytes

    def is_resident(self, access: TileAccess) -> bool:
        return access in self._lru

    def missing_bytes(self, accesses: Iterable[TileAccess]) -> int:
        """Bytes a footprint would have to fill right now (no state change)."""
        missing = {a for a in accesses if a not in self._lru}
        return len(missing) * self.tile_bytes

    def resident_footprint_bytes(self, accesses: Iterable[TileAccess]) -> int:
        """Bytes of a footprint already held by this store (no state change)."""
        held = {a for a in accesses if a in self._lru}
        return len(held) * self.tile_bytes

    def touch(self, accesses: Iterable[TileAccess]) -> float:
        """Bring a footprint resident; returns the fill bytes it required."""
        footprint: List[TileAccess] = []
        for access in accesses:
            if access not in footprint:
                footprint.append(access)
        pinned = set(footprint)
        fill = 0.0
        for access in footprint:
            if access in self._lru:
                self._lru.move_to_end(access)
                continue
            fill += self.tile_bytes
            self._lru[access] = None
        while (self.resident_bytes > self.capacity_bytes
               and any(key not in pinned for key in self._lru)):
            victim = next(key for key in self._lru if key not in pinned)
            del self._lru[victim]
        self.peak_resident_bytes = max(self.peak_resident_bytes,
                                       self.resident_bytes)
        return fill

    def invalidate(self, access: TileAccess) -> None:
        """Drop a tile (shared-level eviction or a sibling core's write)."""
        self._lru.pop(access, None)


class ReferenceMemoryHierarchy(MemoryHierarchy):
    """:class:`MemoryHierarchy` over the OrderedDict levels, task by task.

    Same constructor and :meth:`MemoryHierarchy.for_chip` factory as the
    production class; both residency levels are swapped for
    :class:`TileResidency` / :class:`LocalStore`, and every dispatched task
    goes through :meth:`account`, which also records its event in
    :attr:`events`.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        tile_bytes = self.residency.tile_bytes
        self.residency = TileResidency(self.residency.capacity_bytes,
                                       tile_bytes)
        if self.local_stores is not None:
            self.local_stores = [
                LocalStore(self.local_store_kb * 1024, tile_bytes)
                for _ in range(self.num_cores)]
        self.events: List[TaskMemoryEvent] = []

    def _account_local(self, footprint: List[TileAccess],
                       writes: List[TileAccess],
                       core_index: int) -> Tuple[float, float, float]:
        """Second-level accounting of one task on its assigned core.

        Returns ``(local_hit, shared_fill, c2c)`` bytes.  Shared-level
        evictions invalidate local copies first (inclusion), then the
        footprint is classified and brought resident, and finally the
        written tiles are invalidated in the sibling stores (write-through
        coherence: a writer owns the only local copy).
        """
        stores = self.local_stores
        for victim in self.residency.last_evicted:
            for store in stores:
                store.invalidate(victim)
        store = stores[core_index]
        tile_bytes = store.tile_bytes
        local_hit = shared_fill = c2c = 0.0
        for access in footprint:
            if store.is_resident(access):
                local_hit += tile_bytes
            elif any(other.is_resident(access) for other in stores
                     if other is not store):
                c2c += tile_bytes
            else:
                shared_fill += tile_bytes
        store.touch(footprint)
        for access in writes:
            for other in stores:
                if other is not store:
                    other.invalidate(access)
        self._local_version += 1
        return local_hit, shared_fill, c2c

    def account(self, task: TaskDescriptor,
                core_index: int = 0) -> TaskMemoryEvent:
        """Account one dispatched task; returns its data-movement record."""
        if self._flushed:
            raise RuntimeError("memory hierarchy already flushed; build a new "
                               "one per schedule")
        if not (0 <= core_index < self.num_cores):
            raise ValueError(f"core index {core_index} out of range for "
                             f"{self.num_cores} cores")
        reads, writes = task.read_tiles(), task.write_tiles()
        refill, compulsory, spill, writeback = self.residency.touch(reads, writes)
        stall = self.bandwidth.stall_cycles(spill)
        flops = task_flops(task, self.tile)
        tile_bytes = self.residency.tile_bytes
        onchip_bytes = (len(reads) + len(writes)) * tile_bytes
        local_hit = shared_fill = c2c = transfer_cycles = 0.0
        if self.local_stores is not None:
            footprint: List[TileAccess] = []
            for access in reads + writes:
                if access not in footprint:
                    footprint.append(access)
            local_hit, shared_fill, c2c = self._account_local(
                footprint, writes, core_index)
            transfer_bytes = shared_fill + c2c
            if transfer_bytes > 0 and self.onchip_bw_bytes_per_cycle > 0:
                transfer_cycles = transfer_bytes / self.onchip_bw_bytes_per_cycle
            # The extra movement through the shared SRAM costs on-chip
            # access energy on top of the task's own operand accesses.
            onchip_bytes += transfer_bytes
        energy = self.energy.task_energy_j(flops, onchip_bytes,
                                           refill + writeback)
        event = TaskMemoryEvent(task_id=task.task_id, refill_bytes=refill,
                                compulsory_bytes=compulsory,
                                spill_refill_bytes=spill,
                                writeback_bytes=writeback, stall_cycles=stall,
                                energy_j=energy, flops=flops,
                                local_hit_bytes=local_hit,
                                shared_to_local_bytes=shared_fill,
                                c2c_bytes=c2c,
                                local_transfer_cycles=transfer_cycles,
                                onchip_bytes=onchip_bytes)
        self.events.append(event)
        self.total_flops += flops
        self.total_energy_j += energy
        self.total_stall_cycles += stall
        self.compulsory_bytes += compulsory
        self.spill_bytes += spill
        self.writeback_bytes += writeback
        self.local_hit_bytes += local_hit
        self.shared_to_local_bytes += shared_fill
        self.c2c_bytes += c2c
        self.local_transfer_cycles += transfer_cycles
        return event

    def energy_triples(self) -> List[Tuple[float, float, float]]:
        """Per-task ``(flops, onchip_bytes, offchip_bytes)`` of the events,
        what :meth:`repro.lap.fastpath.ScheduleTrace.energy_columns` must
        reproduce (column by column) from the production rows."""
        return [(e.flops, e.onchip_bytes, e.refill_bytes + e.writeback_bytes)
                for e in self.events]

    def energy_columns(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`energy_triples` as three float64 columns."""
        return columns_of(self.energy_triples())


def columns_of(triples: Iterable[Tuple[float, float, float]]
               ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-task ``(flops, onchip_bytes, offchip_bytes)`` triples as the
    three float64 columns a :class:`repro.lap.fastpath.ScheduleTrace` holds."""
    triples = list(triples)
    return tuple(np.array([t[k] for t in triples], dtype=np.float64)
                 for k in range(3))


def reference_rekey_energy_j(triples: Iterable[Tuple[float, float, float]],
                             flush_writeback_bytes: float,
                             energy_per_flop_j: float,
                             onchip_energy_per_byte_j: float,
                             offchip_energy_per_byte_j: float) -> float:
    """Schedule energy re-keyed one task at a time, left to right.

    The scalar loop :meth:`repro.lap.fastpath.ScheduleTrace.rekey_energy_j`
    must equal bit for bit: ``(fl * epf + on * epon) + off * epoff`` per
    task, accumulated from ``0.0`` in dispatch order, then the
    end-of-schedule flush writeback.
    """
    epf = energy_per_flop_j
    epon = onchip_energy_per_byte_j
    epoff = offchip_energy_per_byte_j
    total = 0.0
    for fl, on, off in triples:
        total += (fl * epf + on * epon) + off * epoff
    total += flush_writeback_bytes * epoff
    return total
