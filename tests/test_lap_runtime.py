"""Tests for the host-side programming model (algorithms-by-blocks runtime)."""

import numpy as np
import pytest

from repro.lap.chip import LAPConfig, LinearAlgebraProcessor
from repro.lap.runtime import AlgorithmsByBlocks, LAPRuntime, TaskDescriptor, TaskKind


@pytest.fixture
def rng():
    return np.random.default_rng(41)


@pytest.fixture
def lap():
    return LinearAlgebraProcessor(LAPConfig(num_cores=2, nr=4, onchip_memory_mbytes=1.0))


# ----------------------------------------------------------- task graphs
def test_gemm_task_graph_shape():
    lib = AlgorithmsByBlocks(tile=8)
    tasks = lib.gemm_tasks(m=16, n=16, k=24)
    assert len(tasks) == 2 * 2 * 3
    # Accumulation chains: tasks writing the same C tile depend on each other.
    by_tile = {}
    for t in tasks:
        by_tile.setdefault(t.output, []).append(t)
    for tile_tasks in by_tile.values():
        assert len(tile_tasks) == 3
        assert tile_tasks[0].depends_on == []
        assert tile_tasks[1].depends_on == [tile_tasks[0].task_id]
        assert tile_tasks[2].depends_on == [tile_tasks[1].task_id]


def test_cholesky_task_graph_kinds_and_dependencies():
    lib = AlgorithmsByBlocks(tile=4)
    tasks = lib.cholesky_tasks(n=12)  # 3x3 tiles
    kinds = [t.kind for t in tasks]
    assert kinds.count(TaskKind.CHOLESKY) == 3
    assert kinds.count(TaskKind.TRSM_RIGHT_T) == 3   # (1,0), (2,0), (2,1)
    assert kinds.count(TaskKind.SYRK) == 3           # diagonal updates
    assert kinds.count(TaskKind.GEMM) == 1           # (2,1) off-diagonal update
    # Every dependency refers to an earlier task id (topological order).
    ids = {t.task_id for t in tasks}
    for t in tasks:
        assert all(d in ids and d < t.task_id for d in t.depends_on)


def test_task_graph_validation():
    lib = AlgorithmsByBlocks(tile=8)
    with pytest.raises(ValueError):
        lib.gemm_tasks(m=12, n=16, k=16)
    with pytest.raises(ValueError):
        lib.cholesky_tasks(n=12)
    with pytest.raises(ValueError):
        AlgorithmsByBlocks(tile=2)
    with pytest.raises(ValueError):
        TaskDescriptor(task_id=-1, kind=TaskKind.GEMM, output=(0, 0))


# ------------------------------------------------------------- execution
def test_runtime_executes_blocked_gemm_correctly(lap, rng):
    tile = 8
    m = n = k = 16
    a, b = rng.random((m, k)), rng.random((k, n))
    c = rng.random((m, n))
    runtime = LAPRuntime(lap, tile)
    tiles = {
        "A": LAPRuntime.tile_matrix(a, tile),
        "B": LAPRuntime.tile_matrix(b, tile),
        "C": LAPRuntime.tile_matrix(c, tile),
    }
    tasks = runtime.library.gemm_tasks(m, n, k)
    stats = runtime.execute(tasks, tiles)
    result = LAPRuntime.untile_matrix(tiles["C"], tile)
    np.testing.assert_allclose(result, c + a @ b, rtol=1e-10)
    assert stats["tasks_executed"] == len(tasks)
    assert stats["makespan_cycles"] > 0
    assert 0.0 < stats["parallel_efficiency"] <= 1.0


def test_runtime_executes_blocked_cholesky_correctly(lap, rng):
    tile = 4
    n = 12
    g = rng.random((n, n))
    a = g @ g.T + n * np.eye(n)
    runtime = LAPRuntime(lap, tile)
    # All operand names alias the same tile dictionary: the factorization
    # updates A in place (CHOL/TRSM produce L tiles, the alpha = -1 updates
    # subtract the outer products of the panel).
    a_tiles = LAPRuntime.tile_matrix(a, tile)
    tiles = {"A": a_tiles, "B": a_tiles, "C": a_tiles, "L": a_tiles}
    tasks = runtime.library.cholesky_tasks(n)
    stats = runtime.execute(tasks, tiles)
    assert stats["tasks_executed"] == len(tasks)
    assert stats["makespan_cycles"] >= max(stats["per_core_busy_cycles"])
    result = np.tril(LAPRuntime.untile_matrix(a_tiles, tile))
    np.testing.assert_allclose(result, np.linalg.cholesky(a), rtol=1e-8, atol=1e-9)


def test_runtime_uses_multiple_cores(lap, rng):
    tile = 8
    runtime = LAPRuntime(lap, tile)
    a, b, c = rng.random((32, 16)), rng.random((16, 32)), np.zeros((32, 32))
    tiles = {"A": LAPRuntime.tile_matrix(a, tile), "B": LAPRuntime.tile_matrix(b, tile),
             "C": LAPRuntime.tile_matrix(c, tile)}
    tasks = runtime.library.gemm_tasks(32, 32, 16)
    stats = runtime.execute(tasks, tiles)
    busy = stats["per_core_busy_cycles"]
    assert len(busy) == 2
    assert all(cycles > 0 for cycles in busy)
    # Independent C tiles should spread across the two cores reasonably evenly.
    assert min(busy) > 0.3 * max(busy)


def test_runtime_detects_circular_dependencies(lap):
    runtime = LAPRuntime(lap, 8)
    t0 = TaskDescriptor(0, TaskKind.GEMM, output=(0, 0), inputs=[(0, 0), (0, 0)],
                        depends_on=[1])
    t1 = TaskDescriptor(1, TaskKind.GEMM, output=(0, 0), inputs=[(0, 0), (0, 0)],
                        depends_on=[0])
    with pytest.raises(RuntimeError, match="deadlock"):
        runtime.execute([t0, t1], {"A": {}, "B": {}, "C": {}})


def test_runtime_detects_unsatisfiable_dependency(lap):
    """A dependency on a task id that is not in the graph can never clear:
    execute() wraps the plain list in a TaskGraph, which refuses it before
    any task runs."""
    runtime = LAPRuntime(lap, 8)
    orphan = TaskDescriptor(0, TaskKind.GEMM, output=(0, 0),
                            inputs=[(0, 0), (0, 0)], depends_on=[99])
    with pytest.raises(ValueError, match="depends on unknown task id 99"):
        runtime.execute([orphan], {"A": {}, "B": {}, "C": {}})


def test_trsm_task_kind_solves_lower_triangular_tile(lap, rng):
    """The plain TRSM kind (B := L^{-1} B) executes and verifies."""
    tile = 8
    runtime = LAPRuntime(lap, tile)
    l = np.tril(rng.random((tile, tile))) + tile * np.eye(tile)
    b = rng.random((tile, tile))
    tiles = {"L": {(0, 0): l}, "B": {(0, 0): b.copy()}}
    task = TaskDescriptor(0, TaskKind.TRSM, output=(0, 0), inputs=[(0, 0)])
    stats = runtime.execute([task], tiles)
    assert stats["tasks_executed"] == 1
    assert stats["makespan_cycles"] > 0
    np.testing.assert_allclose(tiles["B"][(0, 0)], np.linalg.solve(l, b),
                               rtol=1e-10, atol=1e-12)


def test_empty_graph_has_zero_makespan_and_efficiency(lap):
    """An empty / zero-makespan graph reports 0 efficiency, not a crash."""
    runtime = LAPRuntime(lap, 8)
    stats = runtime.execute([], {"A": {}, "B": {}, "C": {}})
    assert stats["makespan_cycles"] == 0
    assert stats["parallel_efficiency"] == 0.0
    assert stats["tasks_executed"] == 0
    assert stats["per_core_busy_cycles"] == [0, 0]
    assert runtime.executions == []


def test_tile_and_untile_round_trip(rng):
    m = rng.random((16, 24))
    tiles = LAPRuntime.tile_matrix(m, 8)
    assert len(tiles) == 2 * 3
    back = LAPRuntime.untile_matrix(tiles, 8)
    np.testing.assert_array_equal(back, m)
    with pytest.raises(ValueError):
        LAPRuntime.tile_matrix(rng.random((10, 8)), 8)
    with pytest.raises(ValueError):
        LAPRuntime.untile_matrix({}, 8)


@pytest.mark.parametrize("algorithm", ["gemm", "cholesky", "lu", "qr"])
def test_memoized_kernel_cycles_do_not_depend_on_the_data(algorithm):
    """The LAC cycles of a task are a function of its signature alone.

    A cycle table shared across sweep points (or persisted) is only sound if
    the warm-up of a signature charges the same cycles whatever operand data
    it happens to run on; the seeds here pick that data.
    """
    tables = []
    for seed in (0, 1, 2):
        lap = LinearAlgebraProcessor(LAPConfig(num_cores=4, nr=4, onchip_memory_mbytes=1.0))
        runtime = LAPRuntime(lap, 64, timing="memoized")
        getattr(runtime, f"run_blocked_{algorithm}")(256, np.random.default_rng(seed),
                                                      verify=False)
        tables.append(runtime.timing.cycles_by_signature)
    assert tables[0]
    assert tables[1] == tables[0]
    assert tables[2] == tables[0]
