"""Property-based verification of the two-level memory hierarchy.

Hypothesis drives randomly generated tile-access sequences (and whole task
graphs) through the residency levels
(:class:`repro.lap.fastpath.FastTileResidency`,
:class:`repro.lap.fastpath.FastLocalStore`), the test oracle's per-task
:class:`~oracle.memory.ReferenceMemoryHierarchy` and the runtime, and checks
the invariants the analytical layers above rely on:

* capacity: resident bytes never exceed the level's capacity (beyond the
  transient overflow of a single pinned footprint) at either level;
* conservation: every refill byte is exactly compulsory or spill, total
  compulsory traffic equals the distinct footprint brought on chip, and
  writebacks never exceed the bytes ever marked dirty;
* LRU: the victim of a capacity eviction is always the least recently
  used non-pinned tile;
* monotonicity: for a fixed dispatch order, growing either level's
  capacity never increases off-chip spill traffic;
* equivalence: the structure-of-arrays levels are observationally identical
  to the oracle's ``OrderedDict`` LRUs on random access streams.

Each invariant runs 200+ random examples (see ``EXAMPLES``), as the
acceptance criteria of the two-level-hierarchy PR require.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import LocalStore, ReferenceMemoryHierarchy, TileResidency
from repro.lap.chip import LAPConfig, LinearAlgebraProcessor
from repro.lap.fastpath import FastLocalStore, FastTileResidency
from repro.lap.runtime import LAPRuntime
from repro.lap.taskgraph import AlgorithmsByBlocks

EXAMPLES = 200

TILE_BYTES = 512

#: One logical tile name drawn from a small universe so that sequences
#: actually revisit tiles (reuse is what the hierarchy models).
tile_names = st.tuples(st.sampled_from("ABC"),
                       st.tuples(st.integers(0, 5), st.integers(0, 5)))

#: One touch: a set of read tiles and a set of written tiles.
touches = st.tuples(st.lists(tile_names, max_size=4),
                    st.lists(tile_names, max_size=2))

#: A short access trace.
traces = st.lists(touches, min_size=1, max_size=30)

#: Capacity in tiles (small enough to force evictions regularly).
capacities = st.integers(1, 8)


def _footprint(reads, writes):
    seen = []
    for access in list(reads) + list(writes):
        if access not in seen:
            seen.append(access)
    return seen


# ----------------------------------------------------- capacity invariants
@settings(max_examples=EXAMPLES, deadline=None)
@given(trace=traces, capacity_tiles=capacities)
def test_shared_resident_bytes_bounded_by_capacity_or_footprint(trace, capacity_tiles):
    """After every touch the shared level holds at most ``capacity`` bytes,
    except when a single pinned footprint transiently overflows it."""
    res = FastTileResidency(capacity_bytes=capacity_tiles * TILE_BYTES,
                            tile_bytes=TILE_BYTES)
    for reads, writes in trace:
        res.touch(reads, writes)
        footprint_bytes = len(_footprint(reads, writes)) * TILE_BYTES
        assert res.resident_bytes <= max(res.capacity_bytes, footprint_bytes)
        assert res.peak_resident_bytes >= res.resident_bytes


@settings(max_examples=EXAMPLES, deadline=None)
@given(trace=traces, capacity_tiles=capacities)
def test_local_store_resident_bytes_bounded(trace, capacity_tiles):
    """The per-core level obeys the same capacity bound as the shared one."""
    store = FastLocalStore(capacity_bytes=capacity_tiles * TILE_BYTES,
                           tile_bytes=TILE_BYTES)
    for reads, writes in trace:
        footprint = _footprint(reads, writes)
        store.touch(footprint)
        assert store.resident_bytes <= max(store.capacity_bytes,
                                           len(footprint) * TILE_BYTES)


# ------------------------------------------------- conservation invariants
@settings(max_examples=EXAMPLES, deadline=None)
@given(trace=traces, capacity_tiles=capacities)
def test_refill_splits_exactly_into_compulsory_and_spill(trace, capacity_tiles):
    """Per touch: refill == compulsory + spill, and a tile's first-ever
    fetch is compulsory while every later re-fetch is a spill."""
    res = FastTileResidency(capacity_bytes=capacity_tiles * TILE_BYTES,
                            tile_bytes=TILE_BYTES)
    ever = set()
    for reads, writes in trace:
        footprint = _footprint(reads, writes)
        missing = [a for a in footprint if not res.is_resident(a)]
        expected_compulsory = sum(TILE_BYTES for a in missing if a not in ever)
        refill, compulsory, spill, _ = res.touch(reads, writes)
        assert refill == compulsory + spill
        assert compulsory == expected_compulsory
        assert refill == len(missing) * TILE_BYTES
        ever.update(footprint)


@settings(max_examples=EXAMPLES, deadline=None)
@given(trace=traces, capacity_tiles=capacities)
def test_traffic_conservation_against_total_footprint(trace, capacity_tiles):
    """Whole-trace conservation: total compulsory bytes equal the distinct
    tiles ever touched, and writebacks (evictions + final flush) never
    exceed the times tiles were marked dirty."""
    res = FastTileResidency(capacity_bytes=capacity_tiles * TILE_BYTES,
                            tile_bytes=TILE_BYTES)
    total_compulsory = total_writeback = 0.0
    distinct = set()
    dirty_markings = 0
    dirty_now = set()
    for reads, writes in trace:
        _, compulsory, _, writeback = res.touch(reads, writes)
        total_compulsory += compulsory
        total_writeback += writeback
        distinct.update(_footprint(reads, writes))
        for access in writes:
            if access not in dirty_now:
                dirty_markings += 1
            dirty_now.add(access)
        dirty_now = {a for a in dirty_now if res.is_resident(a)} | set(writes)
    total_writeback += res.flush()
    assert total_compulsory == len(distinct) * TILE_BYTES
    assert total_writeback <= dirty_markings * TILE_BYTES


# --------------------------------------------------------------- LRU order
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_lru_eviction_order(data):
    """Filling the shared level and touching one more tile evicts exactly
    the least recently used tile of the current footprint's complement."""
    capacity_tiles = data.draw(st.integers(2, 6))
    res = FastTileResidency(capacity_bytes=capacity_tiles * TILE_BYTES,
                            tile_bytes=TILE_BYTES)
    tiles = [("A", (i, 0)) for i in range(capacity_tiles)]
    order = data.draw(st.permutations(tiles))
    for access in order:
        res.touch([access], [])
    # Refresh a random subset; the LRU victim must then be the first tile
    # (in touch order) that was *not* refreshed.
    refreshed = data.draw(st.lists(st.sampled_from(list(order)), max_size=3))
    recency = list(order)
    for access in refreshed:
        res.touch([access], [])
        recency.remove(access)
        recency.append(access)
    expected_victim = recency[0]
    res.touch([("B", (9, 9))], [])
    assert res.last_evicted == [expected_victim]
    assert not res.is_resident(expected_victim)


# ------------------------------------------------------------ monotonicity
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_larger_local_store_never_increases_offchip_spill(data):
    """For the same dispatch order, growing the per-core local store never
    increases off-chip spill bytes (the local level is inclusive and
    write-through, so off-chip traffic is decided by the shared level)."""
    algorithm = data.draw(st.sampled_from(["cholesky", "lu", "qr", "gemm"]))
    n = data.draw(st.sampled_from([16, 24, 32]))
    capacity_tiles = data.draw(st.integers(2, 10))
    small_kb = data.draw(st.sampled_from([0.5, 1.0, 2.0]))
    large_kb = small_kb * data.draw(st.integers(2, 8))
    lib = AlgorithmsByBlocks(tile=8)
    graph = lib.build(algorithm, n)
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=2, nr=4,
                                           onchip_memory_mbytes=1.0))
    cores = data.draw(st.lists(st.integers(0, 1), min_size=len(graph),
                               max_size=len(graph)))

    def spills(local_kb):
        hierarchy = ReferenceMemoryHierarchy.for_chip(
            lap, tile=8, on_chip_kb=capacity_tiles * 0.5,
            local_store_kb=local_kb)
        for task, core in zip(graph, cores):
            hierarchy.account(task, core)
        hierarchy.finish()
        return hierarchy.spill_bytes, hierarchy.traffic_bytes

    small_spill, small_traffic = spills(small_kb)
    large_spill, large_traffic = spills(large_kb)
    assert large_spill <= small_spill
    assert large_traffic <= small_traffic


@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_larger_shared_level_never_increases_spill_for_fixed_order(data):
    """For a fixed dispatch order, growing the shared capacity never
    increases spill bytes (LRU stack property over whole-footprint pins)."""
    algorithm = data.draw(st.sampled_from(["cholesky", "lu", "gemm"]))
    n = data.draw(st.sampled_from([16, 24, 32]))
    small_tiles = data.draw(st.integers(2, 8))
    large_tiles = small_tiles + data.draw(st.integers(1, 8))
    graph = AlgorithmsByBlocks(tile=8).build(algorithm, n)

    def spill(capacity_tiles):
        res = FastTileResidency(capacity_bytes=capacity_tiles * TILE_BYTES,
                                tile_bytes=TILE_BYTES)
        total = 0.0
        for task in graph:
            _, _, spill_bytes, _ = res.touch(task.read_tiles(),
                                             task.write_tiles())
            total += spill_bytes
        return total

    assert spill(large_tiles) <= spill(small_tiles)


# ------------------------------------------- two-level runtime invariants
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_two_level_runtime_conserves_offchip_traffic_split(data):
    """End to end through the runtime: traffic always splits exactly into
    compulsory + spill + writeback, the local split covers every locally
    touched byte, and the local level never exceeds its budget."""
    algorithm = data.draw(st.sampled_from(["cholesky", "qr"]))
    policy = data.draw(st.sampled_from(["greedy", "memory_aware", "affinity"]))
    local_kb = data.draw(st.sampled_from([1.0, 2.0, 4.0]))
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=2, nr=4,
                                           onchip_memory_mbytes=1.0))
    runtime = LAPRuntime(lap, 8, policy=policy, timing="memoized",
                         on_chip_kb=6.0, local_store_kb=local_kb)
    stats = runtime.run_workload(algorithm, 32, np.random.default_rng(0),
                                 verify=False)
    assert stats["offchip_traffic_bytes"] == (stats["compulsory_bytes"]
                                              + stats["spill_bytes"]
                                              + stats["writeback_bytes"])
    hierarchy = runtime.last_memory
    touched = (stats["local_hit_bytes"] + stats["shared_to_local_bytes"]
               + stats["c2c_bytes"])
    footprint_bytes = sum(
        len(_footprint(t.read_tiles(), t.write_tiles()))
        * hierarchy.residency.tile_bytes
        for t in AlgorithmsByBlocks(8).build(algorithm, 32))
    assert touched == footprint_bytes
    assert 0.0 <= stats["local_hit_rate"] <= 1.0
    for store in hierarchy.local_stores:
        assert store.resident_bytes <= max(store.capacity_bytes,
                                           store.peak_resident_bytes)


# ------------------------------- SoA residency levels vs OrderedDict oracle
@settings(max_examples=EXAMPLES, deadline=None)
@given(trace=traces, capacity_tiles=capacities)
def test_fast_residency_matches_ordereddict_oracle(trace, capacity_tiles):
    """The clock/stamp SoA residency is observationally identical to the
    OrderedDict reference on random access streams: per-touch traffic
    tuples, eviction victims *in order*, membership, version counter,
    resident/peak bytes, and the final flush."""
    ref = TileResidency(capacity_bytes=capacity_tiles * TILE_BYTES,
                        tile_bytes=TILE_BYTES)
    fast = FastTileResidency(capacity_bytes=capacity_tiles * TILE_BYTES,
                             tile_bytes=TILE_BYTES)
    universe = set()
    for reads, writes in trace:
        universe.update(reads + writes)
        assert fast.touch(reads, writes) == ref.touch(reads, writes)
        assert fast.last_evicted == ref.last_evicted
        assert fast.resident_bytes == ref.resident_bytes
        assert fast.peak_resident_bytes == ref.peak_resident_bytes
        assert fast.version == ref.version
        for name in universe:
            assert fast.is_resident(name) == ref.is_resident(name), name
        probe = sorted(universe)[:6]
        assert fast.missing_bytes(probe) == ref.missing_bytes(probe)
    assert fast.flush() == ref.flush()
    assert fast.last_evicted == ref.last_evicted
    assert fast.resident_bytes == ref.resident_bytes == 0


@settings(max_examples=EXAMPLES, deadline=None)
@given(trace=traces, capacity_tiles=capacities, data=st.data())
def test_fast_local_store_matches_ordereddict_oracle(trace, capacity_tiles,
                                                     data):
    """FastLocalStore mirrors LocalStore under random touch/invalidate
    interleavings (fill bytes, membership, footprint queries, peak)."""
    ref = LocalStore(capacity_bytes=capacity_tiles * TILE_BYTES,
                     tile_bytes=TILE_BYTES)
    fast = FastLocalStore(capacity_bytes=capacity_tiles * TILE_BYTES,
                          tile_bytes=TILE_BYTES)
    universe = set()
    for reads, writes in trace:
        accesses = reads + writes
        universe.update(accesses)
        assert fast.touch(accesses) == ref.touch(accesses)
        if universe and data.draw(st.booleans()):
            victim = data.draw(st.sampled_from(sorted(universe)))
            ref.invalidate(victim)
            fast.invalidate(victim)
        assert fast.resident_bytes == ref.resident_bytes
        assert fast.peak_resident_bytes == ref.peak_resident_bytes
        for name in universe:
            assert fast.is_resident(name) == ref.is_resident(name), name
        probe = sorted(universe)[:6]
        assert fast.missing_bytes(probe) == ref.missing_bytes(probe)
        assert (fast.resident_footprint_bytes(probe)
                == ref.resident_footprint_bytes(probe))


# ------------------------------------------------ schedule-replay costing
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_replayed_rows_equal_resimulated_rows(data):
    """Any delta point the replay layer serves from a recorded schedule is
    byte-identical to re-simulating that point from scratch."""
    from repro.engine.runners import (_REPLAY_MEMO, configure_worker,
                                      get_runner)

    runner = get_runner("lap_runtime")
    base = {"algorithm": data.draw(st.sampled_from(["cholesky", "lu"])),
            "n": data.draw(st.sampled_from([24, 32])),
            "tile": 8, "num_cores": 2, "nr": 4, "seed": 0,
            "timing": "memoized", "verify": False}
    if data.draw(st.booleans()):
        base["on_chip_kb"] = data.draw(st.sampled_from([4.0, 6.0]))
    runner(dict(base))  # record (or refresh) the schedule trace
    delta = dict(base)
    delta["bandwidth_gbs"] = data.draw(st.sampled_from([8.0, 32.0, 128.0]))
    if data.draw(st.booleans()):
        delta["stall_overlap"] = data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    replayed = runner(dict(delta))
    _REPLAY_MEMO.clear()  # nothing to replay from: simulate afresh
    configure_worker(None)
    resimulated = runner(dict(delta))
    assert replayed == resimulated
