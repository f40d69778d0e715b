"""Benchmarks of the memory-hierarchy layer (residency / stalls / energy).

Covers the headline claims of the data-movement refactor:

* the tile-residency LRU accounts a ~6000-task graph in well under a second
  (pure bookkeeping, no simulator involvement),
* shrinking the on-chip capacity below the working set monotonically
  increases off-chip traffic and makes stalls appear,
* the ``memory_aware`` policy never moves more off-chip bytes than
  ``greedy`` and strictly fewer under capacity pressure,
* two-level accounting (per-core local stores) stays cheap bookkeeping and
  the affinity policy earns a higher local hit rate than greedy,
* growing the local:shared capacity ratio monotonically lifts the local
  hit rate while leaving off-chip traffic untouched (inclusion).

Per-task ``account()`` bookkeeping is measured on the test oracle's
:class:`~oracle.memory.ReferenceMemoryHierarchy` (``tests/oracle``): the
production scheduler loop inlines that accounting instead of calling it.

Each benchmark emits a machine-readable ``BENCH_*.json`` record via the
``bench_json`` fixture so the perf trajectory is tracked across PRs.
"""

import time

import numpy as np

from oracle import ReferenceMemoryHierarchy
from repro.lap.chip import LAPConfig, LinearAlgebraProcessor
from repro.lap.fastpath import FastTileResidency
from repro.lap.runtime import LAPRuntime
from repro.lap.taskgraph import AlgorithmsByBlocks


def test_residency_accounting_throughput(benchmark, bench_json):
    """Accounting a 5984-task Cholesky graph through the LRU is cheap."""
    graph = AlgorithmsByBlocks(tile=128).cholesky_tasks(4096)
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=8, nr=4,
                                           onchip_memory_mbytes=2.0))

    # Per-call timing inside the callable: the JSON payload must not be
    # inflated by pytest-benchmark's calibration rounds.
    last = {}

    def account():
        started = time.perf_counter()
        hierarchy = ReferenceMemoryHierarchy.for_chip(lap, tile=128)
        for task in graph:
            hierarchy.account(task)
        hierarchy.finish()
        last["elapsed"] = time.perf_counter() - started
        return hierarchy

    hierarchy = benchmark(account)
    elapsed = last["elapsed"]
    assert len(hierarchy.events) == len(graph)
    assert hierarchy.traffic_bytes > 0
    assert elapsed < 30.0  # bookkeeping only; typically milliseconds
    bench_json("memory_residency_throughput", {
        "num_tasks": len(graph),
        "elapsed_seconds": elapsed,
        "tasks_per_second": len(graph) / elapsed if elapsed else None,
        "traffic_bytes": hierarchy.traffic_bytes,
    })


def test_capacity_pressure_traffic_trend(bench_json):
    """Traffic grows monotonically as the working set is squeezed, and the
    memory_aware policy moves no more bytes than greedy at every point."""
    capacities_kb = (64.0, 8.0, 6.0, 4.0, 3.0)
    rows = []
    for policy in ("greedy", "memory_aware"):
        for kb in capacities_kb:
            lap = LinearAlgebraProcessor(LAPConfig(num_cores=2, nr=4,
                                                   onchip_memory_mbytes=1.0))
            runtime = LAPRuntime(lap, 8, policy=policy, timing="memoized",
                                 on_chip_kb=kb)
            stats = runtime.run_blocked_cholesky(48, np.random.default_rng(0),
                                                 verify=False)
            rows.append({
                "policy": policy,
                "on_chip_kb": kb,
                "traffic_bytes": stats["offchip_traffic_bytes"],
                "spill_bytes": stats["spill_bytes"],
                "stall_cycles": stats["stall_cycles"],
                "makespan_cycles": stats["makespan_cycles"],
                "gflops_per_w": stats["gflops_per_w"],
            })
    by_policy = {}
    for row in rows:
        by_policy.setdefault(row["policy"], []).append(row)
    for policy_rows in by_policy.values():
        traffic = [r["traffic_bytes"] for r in policy_rows]  # shrinking kb
        assert traffic == sorted(traffic)
        assert policy_rows[0]["spill_bytes"] == 0      # fits entirely
        assert policy_rows[-1]["spill_bytes"] > 0      # thrashes
    for g, m in zip(by_policy["greedy"], by_policy["memory_aware"]):
        assert m["traffic_bytes"] <= g["traffic_bytes"]
        if g["spill_bytes"] > 0:
            assert m["traffic_bytes"] < g["traffic_bytes"]
    bench_json("memory_capacity_pressure", {"rows": rows})


def test_residency_lru_scales_linearly(benchmark):
    """Touching N distinct tiles through a small LRU stays O(N)."""
    res = FastTileResidency(capacity_bytes=64 * 512, tile_bytes=512)

    def churn():
        for i in range(20000):
            res.touch([("A", (i % 4096, 0))], [])
        return res

    result = benchmark(churn)
    assert result.peak_resident_bytes <= 64 * 512


def test_local_store_hit_rate_throughput(benchmark, bench_json):
    """Two-level accounting of a ~6000-task graph stays cheap bookkeeping,
    and the affinity policy's core choice earns a higher local hit rate
    than greedy round-robin dispatch on the same graph."""
    graph = AlgorithmsByBlocks(tile=128).cholesky_tasks(4096)
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=8, nr=4,
                                           onchip_memory_mbytes=2.0))
    last = {}

    def account():
        started = time.perf_counter()
        hierarchy = ReferenceMemoryHierarchy.for_chip(lap, tile=128,
                                                      local_store_kb=512.0)
        for index, task in enumerate(graph):
            hierarchy.account(task, core_index=index % 8)
        hierarchy.finish()
        last["elapsed"] = time.perf_counter() - started
        return hierarchy

    hierarchy = benchmark(account)
    elapsed = last["elapsed"]
    assert len(hierarchy.events) == len(graph)
    assert 0.0 < hierarchy.local_hit_rate() < 1.0
    assert elapsed < 30.0  # bookkeeping only; typically milliseconds

    rates = {}
    for policy in ("greedy", "affinity"):
        runtime = LAPRuntime(lap, 128, policy=policy, timing="memoized",
                             local_store_kb=512.0)
        stats = runtime.run_blocked_cholesky(1024, np.random.default_rng(0),
                                             verify=False)
        rates[policy] = stats["local_hit_rate"]
    assert rates["affinity"] > rates["greedy"]
    bench_json("memory_local_store_throughput", {
        "num_tasks": len(graph),
        "elapsed_seconds": elapsed,
        "tasks_per_second": len(graph) / elapsed if elapsed else None,
        "round_robin_hit_rate": hierarchy.local_hit_rate(),
        "greedy_hit_rate": rates["greedy"],
        "affinity_hit_rate": rates["affinity"],
    })


def test_local_to_shared_capacity_ratio_trend(bench_json):
    """For a fixed dispatch order, growing the local:shared capacity ratio
    monotonically lifts the local hit rate and shrinks shared-to-local
    transfer time, while the off-chip traffic stays exactly constant (the
    local level is inclusive and write-through, so the shared level sees
    the identical access stream)."""
    shared_kb = 8.0
    ratios = (0.125, 0.25, 0.5, 1.0)
    graph = AlgorithmsByBlocks(tile=8).cholesky_tasks(48)
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=2, nr=4,
                                           onchip_memory_mbytes=1.0))
    rows = []
    for ratio in ratios:
        hierarchy = ReferenceMemoryHierarchy.for_chip(
            lap, tile=8, on_chip_kb=shared_kb,
            local_store_kb=shared_kb * ratio)
        for index, task in enumerate(graph):
            hierarchy.account(task, core_index=index % 2)
        hierarchy.finish()
        rows.append({
            "local_to_shared_ratio": ratio,
            "local_store_kb": shared_kb * ratio,
            "local_hit_rate": hierarchy.local_hit_rate(),
            "local_transfer_cycles": hierarchy.local_transfer_cycles,
            "traffic_bytes": hierarchy.traffic_bytes,
            "spill_bytes": hierarchy.spill_bytes,
        })
    hit_rates = [r["local_hit_rate"] for r in rows]
    assert hit_rates == sorted(hit_rates)
    assert hit_rates[-1] > hit_rates[0]
    transfers = [r["local_transfer_cycles"] for r in rows]
    assert transfers == sorted(transfers, reverse=True)
    assert len({r["traffic_bytes"] for r in rows}) == 1
    assert len({r["spill_bytes"] for r in rows}) == 1
    bench_json("memory_local_capacity_ratio", {"rows": rows})
