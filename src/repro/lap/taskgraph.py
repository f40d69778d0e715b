"""TaskGraph IR: tile task graphs for the algorithms-by-blocks layer.

The dissertation's programming environment (Figure 1.2, Chapter 5) breaks a
large routine into *atomic* tile operations and hands each to the LAP through
a thin driver interface.  This module is the intermediate representation of
that layer:

* :class:`TaskKind` -- the atomic tile operations the runtime understands
  (level-3 BLAS updates plus the factorization tile kernels of Chapter 6);
* :class:`TaskDescriptor` -- one tile operation (the "command packet");
* :class:`TaskGraph` -- an immutable dependency graph over task descriptors
  with the analytics a scheduler needs (critical path, width, per-kind
  counts, topological levels);
* :class:`AlgorithmsByBlocks` -- the host-library decomposition of GEMM,
  Cholesky, LU (no pivoting across tiles) and tiled Householder QR into
  dependency-ordered tile graphs.

Every task additionally carries its *data footprint*: the logical tiles it
reads and writes, named ``(operand, (block_row, block_col))``.  The builders
record footprints with aliasing resolved (a factorization updates one
operand in place, so all of its tiles live under ``"A"``), which is what the
tile-residency model of :mod:`repro.lap.memory` consumes to account on-chip
working sets, spills and off-chip traffic.

Schedulers (:mod:`repro.lap.policies`), timing models
(:mod:`repro.lap.timing`), the memory hierarchy (:mod:`repro.lap.memory`)
and the driver (:mod:`repro.lap.runtime`) all consume this IR; nothing here
touches the simulator.
"""

from __future__ import annotations

import collections.abc
import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple


class TaskKind(enum.Enum):
    """Atomic tile operations the LAP accepts from the host."""

    GEMM = "gemm"                  #: C_tile += alpha * A_tile @ op(B_tile)
    SYRK = "syrk"                  #: C_tile += alpha * A_tile @ A_tile^T (lower)
    TRSM = "trsm"                  #: B_tile := L_tile^{-1} B_tile
    TRSM_RIGHT_T = "trsm_rt"       #: B_tile := B_tile @ L_tile^{-T}
    CHOLESKY = "chol"              #: A_tile := chol(A_tile)
    LU = "lu"                      #: A_tile := {L\U} (no pivoting across tiles)
    TRSM_LOWER = "trsm_ll"         #: B_tile := unit_lower(L_tile)^{-1} B_tile
    TRSM_UPPER_RIGHT = "trsm_ru"   #: B_tile := B_tile @ triu(U_tile)^{-1}
    GEQRT = "geqrt"                #: A_tile := {V\R}, tau (QR of a diagonal tile)
    TSQRT = "tsqrt"                #: [R; A_tile] := QR (triangle-on-top-of-square)
    UNMQR = "unmqr"                #: C_tile := Q^T C_tile (reflectors of GEQRT)
    TSMQR = "tsmqr"                #: [C_top; C_bot] := Q^T [..] (reflectors of TSQRT)


#: Kinds that factor a tile (as opposed to updating one with level-3 BLAS).
FACTOR_KINDS = frozenset({TaskKind.CHOLESKY, TaskKind.LU, TaskKind.GEQRT,
                          TaskKind.TSQRT})

#: One logical tile: (operand name, (block_row, block_col)).
TileAccess = Tuple[str, Tuple[int, int]]

#: First-order flop estimates per task kind for a ``t x t`` tile, used by the
#: per-task energy model (pJ/flop) and arithmetic-intensity reporting.  The
#: constants are the textbook leading-order counts; exact lower-order terms
#: are irrelevant at the fidelity of the energy model.
_TASK_FLOPS: Dict[TaskKind, Callable[[int], float]] = {
    TaskKind.GEMM: lambda t: 2.0 * t ** 3,
    TaskKind.SYRK: lambda t: float(t * t * (t + 1)),
    TaskKind.TRSM: lambda t: float(t ** 3),
    TaskKind.TRSM_RIGHT_T: lambda t: float(t ** 3),
    TaskKind.TRSM_LOWER: lambda t: float(t ** 3),
    TaskKind.TRSM_UPPER_RIGHT: lambda t: float(t ** 3),
    TaskKind.CHOLESKY: lambda t: t ** 3 / 3.0,
    TaskKind.LU: lambda t: 2.0 * t ** 3 / 3.0,
    TaskKind.GEQRT: lambda t: 4.0 * t ** 3 / 3.0,
    TaskKind.TSQRT: lambda t: 2.0 * t ** 3,
    TaskKind.UNMQR: lambda t: 2.0 * t ** 3,
    TaskKind.TSMQR: lambda t: 3.0 * t ** 3,
}


def task_flops(task: "TaskDescriptor", tile: int) -> float:
    """Estimated useful flops of one tile task (leading-order count)."""
    if tile <= 0:
        raise ValueError("tile size must be positive")
    return _TASK_FLOPS[task.kind](tile)


@dataclass
class TaskDescriptor:
    """One atomic tile operation (the command-packet abstraction).

    ``inputs`` and ``output`` are tile coordinates ``(block_row, block_col)``
    into the blocked operand; ``depends_on`` lists task ids that must complete
    first (the host library serialises dependent tiles, everything else may
    run on any idle core).  ``alpha`` scales the product of update tasks
    (``-1`` for the trailing updates of a factorization) and ``transpose_b``
    requests the second operand transposed, which the LAC performs over its
    diagonal PEs at no extra bandwidth cost.

    ``reads`` and ``writes`` are the task's data footprint as
    ``(operand, coordinate)`` tile names.  The graph builders fill them in
    with operand aliasing resolved (a factorization reads and writes one
    matrix); when left ``None`` they are derived from ``kind`` /
    ``inputs`` / ``output`` with the conventional operand names, which is
    correct for hand-built graphs whose operand dictionaries do not alias.
    """

    task_id: int
    kind: TaskKind
    output: Tuple[int, int]
    inputs: List[Tuple[int, int]] = field(default_factory=list)
    depends_on: List[int] = field(default_factory=list)
    alpha: float = 1.0
    transpose_b: bool = False
    reads: Optional[List[TileAccess]] = None
    writes: Optional[List[TileAccess]] = None

    def __post_init__(self) -> None:
        if self.task_id < 0:
            raise ValueError("task ids must be non-negative")

    # ----------------------------------------------------------- footprints
    def _derived_footprint(self) -> Tuple[List[TileAccess], List[TileAccess]]:
        """Kind-derived (reads, writes) with the conventional operand names."""
        kind = self.kind
        if kind is TaskKind.GEMM:
            reads = [("A", self.inputs[0]), ("B", self.inputs[1]),
                     ("C", self.output)]
            writes = [("C", self.output)]
        elif kind is TaskKind.SYRK:
            reads = [("A", self.inputs[0]), ("C", self.output)]
            writes = [("C", self.output)]
        elif kind in (TaskKind.TRSM, TaskKind.TRSM_RIGHT_T, TaskKind.TRSM_LOWER,
                      TaskKind.TRSM_UPPER_RIGHT):
            reads = [("L", self.inputs[0]), ("B", self.output)]
            writes = [("B", self.output)]
        elif kind in (TaskKind.CHOLESKY, TaskKind.LU, TaskKind.GEQRT):
            reads = [("A", self.output)]
            writes = [("A", self.output)]
        elif kind is TaskKind.TSQRT:
            reads = [("A", self.inputs[0]), ("A", self.output)]
            writes = [("A", self.inputs[0]), ("A", self.output)]
        elif kind is TaskKind.UNMQR:
            reads = [("A", self.inputs[0]), ("A", self.output)]
            writes = [("A", self.output)]
        elif kind is TaskKind.TSMQR:
            reads = [("A", self.inputs[0]), ("A", self.inputs[1]),
                     ("A", self.inputs[2])]
            writes = [("A", self.inputs[1]), ("A", self.inputs[2])]
        else:  # pragma: no cover - enum exhaustive
            raise ValueError(f"unknown task kind {kind}")
        return reads, writes

    def read_tiles(self) -> List[TileAccess]:
        """Tiles the task reads (explicit footprint or kind-derived)."""
        if self.reads is not None:
            return list(self.reads)
        return self._derived_footprint()[0]

    def write_tiles(self) -> List[TileAccess]:
        """Tiles the task writes (explicit footprint or kind-derived)."""
        if self.writes is not None:
            return list(self.writes)
        return self._derived_footprint()[1]

    def touched_tiles(self) -> List[TileAccess]:
        """Union of read and written tiles, duplicates removed, read-order."""
        seen: List[TileAccess] = []
        for access in self.read_tiles() + self.write_tiles():
            if access not in seen:
                seen.append(access)
        return seen


class TaskGraph(collections.abc.Sequence):
    """An immutable tile-task dependency graph with scheduling analytics.

    Behaves as a sequence of :class:`TaskDescriptor` (so existing callers
    that expect a task list keep working) and adds the graph structure and
    metrics a scheduler wants: predecessor/successor adjacency, per-kind
    counts, topological levels, width (the largest level -- an upper bound
    on exploitable task parallelism) and critical-path lengths, optionally
    weighted by an estimated per-task cost.

    Dependencies on unknown task ids are rejected here; cycles are only
    detected lazily (by :meth:`levels` / the scheduler's deadlock check) so
    that deliberately broken graphs can still be handed to the runtime in
    tests.
    """

    def __init__(self, tasks: Sequence[TaskDescriptor]):
        self._tasks: List[TaskDescriptor] = list(tasks)
        self._by_id: Dict[int, TaskDescriptor] = {}
        for task in self._tasks:
            if task.task_id in self._by_id:
                raise ValueError(f"duplicate task id {task.task_id}")
            self._by_id[task.task_id] = task
        for task in self._tasks:
            for dep in task.depends_on:
                if dep not in self._by_id:
                    raise ValueError(f"task {task.task_id} depends on unknown "
                                     f"task id {dep}")
        self._successors: Dict[int, List[int]] = {t.task_id: [] for t in self._tasks}
        for task in self._tasks:
            for dep in set(task.depends_on):
                self._successors[dep].append(task.task_id)
        self._levels: Optional[List[List[int]]] = None
        self._fast_arrays = None
        self._summary: Optional[Dict[str, object]] = None
        self._unit_cpl: Optional[Dict[int, float]] = None

    # -------------------------------------------------------- sequence API
    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[TaskDescriptor]:
        return iter(self._tasks)

    def __getitem__(self, index):
        return self._tasks[index]

    def task(self, task_id: int) -> TaskDescriptor:
        """Look up one task by id."""
        return self._by_id[task_id]

    @property
    def task_ids(self) -> List[int]:
        return [t.task_id for t in self._tasks]

    # ----------------------------------------------------------- adjacency
    def successors(self, task_id: int) -> List[int]:
        """Ids of the tasks that depend on ``task_id``."""
        return list(self._successors[task_id])

    def predecessors(self, task_id: int) -> List[int]:
        """Ids of the tasks ``task_id`` depends on (duplicates removed)."""
        return sorted(set(self._by_id[task_id].depends_on))

    # ------------------------------------------------------------ analytics
    def kind_counts(self) -> Dict[TaskKind, int]:
        """Number of tasks of each kind present in the graph."""
        counts: Dict[TaskKind, int] = {}
        for task in self._tasks:
            counts[task.kind] = counts.get(task.kind, 0) + 1
        return counts

    def levels(self) -> List[List[int]]:
        """Topological levels: level ``d`` holds the ids at dependency depth ``d``.

        Raises :class:`ValueError` if the graph contains a cycle.
        """
        if self._levels is None:
            indegree = {t.task_id: len(set(t.depends_on)) for t in self._tasks}
            frontier = sorted(tid for tid, deg in indegree.items() if deg == 0)
            levels: List[List[int]] = []
            seen = 0
            while frontier:
                levels.append(frontier)
                seen += len(frontier)
                nxt: List[int] = []
                for tid in frontier:
                    for succ in self._successors[tid]:
                        indegree[succ] -= 1
                        if indegree[succ] == 0:
                            nxt.append(succ)
                frontier = sorted(nxt)
            if seen != len(self._tasks):
                raise ValueError("task graph contains a dependency cycle")
            self._levels = levels
        return self._levels

    def width(self) -> int:
        """Size of the largest topological level (peak task parallelism)."""
        return max((len(level) for level in self.levels()), default=0)

    def critical_path_lengths(
            self, weight: Optional[Callable[[TaskDescriptor], float]] = None
    ) -> Dict[int, float]:
        """Longest path from each task to any exit, inclusive of the task.

        With the default unit weight the value is the number of tasks on the
        longest downstream chain; pass ``weight`` to use estimated cycles.
        Used by the critical-path scheduling policy.  The unit-weight result
        is cached on the (immutable) graph since every ``prepare()`` of the
        critical-path policy asks for it; callers must not mutate it.
        """
        if weight is None and self._unit_cpl is not None:
            return self._unit_cpl
        lengths: Dict[int, float] = {}
        for level in reversed(self.levels()):
            for tid in level:
                task = self._by_id[tid]
                w = 1.0 if weight is None else float(weight(task))
                down = max((lengths[s] for s in self._successors[tid]), default=0.0)
                lengths[tid] = w + down
        if weight is None:
            self._unit_cpl = lengths
        return lengths

    def critical_path_length(
            self, weight: Optional[Callable[[TaskDescriptor], float]] = None
    ) -> float:
        """Length of the longest dependency chain in the graph."""
        lengths = self.critical_path_lengths(weight)
        return max(lengths.values(), default=0.0)

    def fast_arrays(self):
        """Dense array form of the graph for the scheduler loop.

        Built on first use and cached (the graph is immutable); see
        :class:`repro.lap.fastpath.GraphArrays`.
        """
        if self._fast_arrays is None:
            from repro.lap.fastpath import GraphArrays
            self._fast_arrays = GraphArrays(self)
        return self._fast_arrays

    def working_set_tiles(self) -> List[TileAccess]:
        """Unique ``(operand, coordinate)`` tiles any task touches."""
        seen: Dict[TileAccess, None] = {}
        for task in self._tasks:
            for access in task.touched_tiles():
                seen.setdefault(access, None)
        return list(seen)

    def working_set_bytes(self, tile: int, element_bytes: int = 8) -> int:
        """Bytes of the full tile working set (`tile x tile` per tile)."""
        if tile <= 0 or element_bytes <= 0:
            raise ValueError("tile size and element bytes must be positive")
        return len(self.working_set_tiles()) * tile * tile * element_bytes

    def total_flops(self, tile: int) -> float:
        """Leading-order flop count of the whole graph at one tile size."""
        return sum(task_flops(task, tile) for task in self._tasks)

    def summary(self) -> Dict[str, object]:
        """Scalar graph metrics (handy for sweep rows and reports).

        Computed once and cached (the graph is immutable after
        construction); every call returns a fresh copy so callers may
        mutate the result freely.
        """
        if self._summary is None:
            self._summary = {
                "num_tasks": len(self._tasks),
                "num_levels": len(self.levels()),
                "width": self.width(),
                "critical_path_tasks": int(self.critical_path_length()),
                "kind_counts": {k.value: v for k, v in sorted(
                    self.kind_counts().items(), key=lambda kv: kv[0].value)},
            }
        out = dict(self._summary)
        out["kind_counts"] = dict(out["kind_counts"])
        return out


#: Process-wide cache of built task graphs (FIFO-bounded).  Large sweeps
#: re-decompose the same ``(workload, n, tile)`` point for every schedule
#: variant; the descriptors are identical each time, so the builders reuse
#: them through :meth:`AlgorithmsByBlocks._cached`.  Kept deliberately small:
#: a million-task graph holds hundreds of megabytes of descriptors.
_GRAPH_CACHE: Dict[Tuple, "TaskGraph"] = {}
GRAPH_CACHE_CAPACITY = 4


def clear_graph_cache() -> None:
    """Drop every cached task graph (frees descriptor memory)."""
    _GRAPH_CACHE.clear()


class AlgorithmsByBlocks:
    """Host-library decomposition of large problems into tile task graphs.

    ``tile`` is the edge length of one square tile; it must be a positive
    multiple of the core dimension ``nr`` so that every tile kernel maps
    cleanly onto the PE mesh.
    """

    def __init__(self, tile: int, nr: int = 4):
        if nr < 2:
            raise ValueError(f"core dimension nr must be >= 2, got nr={nr}")
        if tile < nr:
            raise ValueError(f"tile size {tile} is smaller than the core "
                             f"dimension nr={nr}")
        if tile % nr != 0:
            raise ValueError(f"tile size {tile} is not a multiple of the core "
                             f"dimension nr={nr}")
        self.tile = tile
        self.nr = nr
        self._id_next = 0

    def _next_id(self) -> int:
        i = self._id_next
        self._id_next = i + 1
        return i

    def _cached(self, key: Tuple, build) -> "TaskGraph":
        """Build ``key``'s graph, or reuse a structurally identical one.

        Builders are deterministic in ``(workload, dims, tile, nr)`` plus the
        instance's next task id, so the full cache key pins the exact graph a
        fresh build would produce -- including its id range.  On a hit the id
        counter still advances by ``len(graph)``, keeping the instance's
        visible id trajectory indistinguishable from an uncached build.
        Reuse is safe because :class:`TaskGraph` is immutable and consumers
        attach only derived, shareable state (summary tables, scheduler-loop
        arrays); sharing those across sweep points is exactly the point --
        a million-task sweep pays the descriptor build once per process.
        """
        full_key = key + (self.tile, self.nr, self._id_next)
        graph = _GRAPH_CACHE.get(full_key)
        if graph is None:
            graph = build()
            while len(_GRAPH_CACHE) >= GRAPH_CACHE_CAPACITY:
                _GRAPH_CACHE.pop(next(iter(_GRAPH_CACHE)))
            _GRAPH_CACHE[full_key] = graph
        else:
            self._id_next += len(graph)
        return graph

    def _check_blocking(self, **dims: int) -> None:
        for name, d in dims.items():
            if d <= 0:
                raise ValueError(f"dimension {name}={d} must be positive "
                                 f"(tile size {self.tile})")
            if d % self.tile != 0:
                raise ValueError(f"dimension {name}={d} is not a multiple of "
                                 f"the tile size {self.tile}")

    # ----------------------------------------------------------------- GEMM
    def gemm_tasks(self, m: int, n: int, k: int) -> TaskGraph:
        """Task graph for C += A B with independent C tiles.

        Tiles of C are independent of each other; the ``k`` accumulation for a
        given C tile is expressed as a chain of dependent GEMM tasks so that
        the accumulator tile is never written concurrently.
        """
        self._check_blocking(m=m, n=n, k=k)
        return self._cached(("gemm", m, n, k), lambda: self._build_gemm(m, n, k))

    def _build_gemm(self, m: int, n: int, k: int) -> TaskGraph:
        t = self.tile
        tasks: List[TaskDescriptor] = []
        for bi in range(m // t):
            for bj in range(n // t):
                previous: Optional[int] = None
                for bk in range(k // t):
                    task = TaskDescriptor(
                        task_id=self._next_id(), kind=TaskKind.GEMM,
                        output=(bi, bj), inputs=[(bi, bk), (bk, bj)],
                        depends_on=[previous] if previous is not None else [],
                        reads=[("A", (bi, bk)), ("B", (bk, bj)),
                               ("C", (bi, bj))],
                        writes=[("C", (bi, bj))])
                    tasks.append(task)
                    previous = task.task_id
        return TaskGraph(tasks)

    # ------------------------------------------------------------- Cholesky
    def cholesky_tasks(self, n: int) -> TaskGraph:
        """Task graph for a right-looking blocked Cholesky factorization.

        The classic dependency pattern: CHOL(j,j) -> TRSM(i,j) for i>j ->
        SYRK/GEMM updates of the trailing tiles.
        """
        self._check_blocking(n=n)
        return self._cached(("cholesky", n), lambda: self._build_cholesky(n))

    def _build_cholesky(self, n: int) -> TaskGraph:
        t = self.tile
        nb = n // t
        tasks: List[TaskDescriptor] = []
        # written[(i, j)] is the id of the last task that wrote tile (i, j).
        written: Dict[Tuple[int, int], int] = {}
        for j in range(nb):
            chol = TaskDescriptor(self._next_id(), TaskKind.CHOLESKY, output=(j, j),
                                  inputs=[(j, j)],
                                  depends_on=[written[(j, j)]] if (j, j) in written else [],
                                  reads=[("A", (j, j))], writes=[("A", (j, j))])
            tasks.append(chol)
            written[(j, j)] = chol.task_id
            for i in range(j + 1, nb):
                deps = [chol.task_id]
                if (i, j) in written:
                    deps.append(written[(i, j)])
                trsm = TaskDescriptor(self._next_id(), TaskKind.TRSM_RIGHT_T, output=(i, j),
                                      inputs=[(j, j), (i, j)], depends_on=deps,
                                      reads=[("A", (j, j)), ("A", (i, j))],
                                      writes=[("A", (i, j))])
                tasks.append(trsm)
                written[(i, j)] = trsm.task_id
            for i in range(j + 1, nb):
                for k in range(j + 1, i + 1):
                    deps = [written[(i, j)], written[(k, j)]]
                    if (i, k) in written:
                        deps.append(written[(i, k)])
                    kind = TaskKind.SYRK if i == k else TaskKind.GEMM
                    update = TaskDescriptor(self._next_id(), kind, output=(i, k),
                                            inputs=[(i, j), (k, j)],
                                            depends_on=sorted(set(deps)),
                                            alpha=-1.0, transpose_b=True,
                                            reads=[("A", (i, j)), ("A", (k, j)),
                                                   ("A", (i, k))],
                                            writes=[("A", (i, k))])
                    tasks.append(update)
                    written[(i, k)] = update.task_id
        return TaskGraph(tasks)

    # ------------------------------------------------------------------- LU
    def lu_tasks(self, n: int) -> TaskGraph:
        """Task graph for a right-looking tiled LU factorization (no pivoting
        across tiles).

        The dependency pattern mirrors Cholesky without symmetry:
        LU(j,j) -> TRSM_LOWER(j,k) along the block row (U panels) and
        TRSM_UPPER_RIGHT(i,j) down the block column (L panels) -> GEMM
        updates of the full trailing matrix.  Row interchanges are confined
        to the diagonal tile, so the operand must make pivoting unnecessary
        (e.g. diagonally dominant); the LU tile kernel enforces this.
        """
        self._check_blocking(n=n)
        return self._cached(("lu", n), lambda: self._build_lu(n))

    def _build_lu(self, n: int) -> TaskGraph:
        t = self.tile
        nb = n // t
        tasks: List[TaskDescriptor] = []
        written: Dict[Tuple[int, int], int] = {}
        for j in range(nb):
            lu = TaskDescriptor(self._next_id(), TaskKind.LU, output=(j, j),
                                inputs=[(j, j)],
                                depends_on=[written[(j, j)]] if (j, j) in written else [],
                                reads=[("A", (j, j))], writes=[("A", (j, j))])
            tasks.append(lu)
            written[(j, j)] = lu.task_id
            for k in range(j + 1, nb):
                deps = [lu.task_id]
                if (j, k) in written:
                    deps.append(written[(j, k)])
                trsm = TaskDescriptor(self._next_id(), TaskKind.TRSM_LOWER,
                                      output=(j, k), inputs=[(j, j), (j, k)],
                                      depends_on=deps,
                                      reads=[("A", (j, j)), ("A", (j, k))],
                                      writes=[("A", (j, k))])
                tasks.append(trsm)
                written[(j, k)] = trsm.task_id
            for i in range(j + 1, nb):
                deps = [lu.task_id]
                if (i, j) in written:
                    deps.append(written[(i, j)])
                trsm = TaskDescriptor(self._next_id(), TaskKind.TRSM_UPPER_RIGHT,
                                      output=(i, j), inputs=[(j, j), (i, j)],
                                      depends_on=deps,
                                      reads=[("A", (j, j)), ("A", (i, j))],
                                      writes=[("A", (i, j))])
                tasks.append(trsm)
                written[(i, j)] = trsm.task_id
            for i in range(j + 1, nb):
                for k in range(j + 1, nb):
                    deps = [written[(i, j)], written[(j, k)]]
                    if (i, k) in written:
                        deps.append(written[(i, k)])
                    update = TaskDescriptor(self._next_id(), TaskKind.GEMM,
                                            output=(i, k), inputs=[(i, j), (j, k)],
                                            depends_on=sorted(set(deps)),
                                            alpha=-1.0,
                                            reads=[("A", (i, j)), ("A", (j, k)),
                                                   ("A", (i, k))],
                                            writes=[("A", (i, k))])
                    tasks.append(update)
                    written[(i, k)] = update.task_id
        return TaskGraph(tasks)

    # ------------------------------------------------------------------- QR
    def qr_tasks(self, n: int) -> TaskGraph:
        """Task graph for a tiled Householder QR factorization.

        The classic tiled-QR kernel quartet: GEQRT factors the diagonal
        tile, UNMQR applies its reflectors along the block row, TSQRT couples
        the current ``R`` with a tile below the diagonal
        (triangle-on-top-of-square QR) and TSMQR applies those reflectors to
        the corresponding pair of block rows.  The upper-triangular part of
        the final tiles holds ``R``; the reflectors stay packed below the
        diagonals with their ``tau`` scalars in the runtime's ``TAU`` side
        store.
        """
        self._check_blocking(n=n)
        return self._cached(("qr", n), lambda: self._build_qr(n))

    def _build_qr(self, n: int) -> TaskGraph:
        t = self.tile
        nb = n // t
        tasks: List[TaskDescriptor] = []
        written: Dict[Tuple[int, int], int] = {}
        for j in range(nb):
            geqrt = TaskDescriptor(self._next_id(), TaskKind.GEQRT, output=(j, j),
                                   inputs=[(j, j)],
                                   depends_on=[written[(j, j)]] if (j, j) in written else [],
                                   reads=[("A", (j, j))], writes=[("A", (j, j))])
            tasks.append(geqrt)
            written[(j, j)] = geqrt.task_id
            for k in range(j + 1, nb):
                deps = [geqrt.task_id]
                if (j, k) in written:
                    deps.append(written[(j, k)])
                unmqr = TaskDescriptor(self._next_id(), TaskKind.UNMQR,
                                       output=(j, k), inputs=[(j, j), (j, k)],
                                       depends_on=deps,
                                       reads=[("A", (j, j)), ("A", (j, k))],
                                       writes=[("A", (j, k))])
                tasks.append(unmqr)
                written[(j, k)] = unmqr.task_id
            for i in range(j + 1, nb):
                deps = [written[(j, j)]]
                if (i, j) in written:
                    deps.append(written[(i, j)])
                tsqrt = TaskDescriptor(self._next_id(), TaskKind.TSQRT,
                                       output=(i, j), inputs=[(j, j), (i, j)],
                                       depends_on=sorted(set(deps)),
                                       reads=[("A", (j, j)), ("A", (i, j))],
                                       writes=[("A", (j, j)), ("A", (i, j))])
                tasks.append(tsqrt)
                # TSQRT rewrites the R on the diagonal *and* stores the
                # reflectors in tile (i, j).
                written[(j, j)] = tsqrt.task_id
                written[(i, j)] = tsqrt.task_id
                for k in range(j + 1, nb):
                    deps = [tsqrt.task_id, written[(j, k)]]
                    if (i, k) in written:
                        deps.append(written[(i, k)])
                    tsmqr = TaskDescriptor(self._next_id(), TaskKind.TSMQR,
                                           output=(i, k),
                                           inputs=[(i, j), (j, k), (i, k)],
                                           depends_on=sorted(set(deps)),
                                           reads=[("A", (i, j)), ("A", (j, k)),
                                                  ("A", (i, k))],
                                           writes=[("A", (j, k)), ("A", (i, k))])
                    tasks.append(tsmqr)
                    written[(j, k)] = tsmqr.task_id
                    written[(i, k)] = tsmqr.task_id
        return TaskGraph(tasks)

    #: Workload name -> builder, for the runtime's ``run_workload`` helper.
    WORKLOADS = ("gemm", "cholesky", "lu", "qr")

    def build(self, workload: str, n: int) -> TaskGraph:
        """Build the task graph of one named ``n x n`` workload."""
        if workload == "gemm":
            return self.gemm_tasks(n, n, n)
        if workload == "cholesky":
            return self.cholesky_tasks(n)
        if workload == "lu":
            return self.lu_tasks(n)
        if workload == "qr":
            return self.qr_tasks(n)
        raise ValueError(f"unknown workload '{workload}' "
                         f"(use one of {', '.join(self.WORKLOADS)})")
