"""The per-PE LAC inner loops the vectorised simulator is pinned against.

:meth:`repro.lac.core.LinearAlgebraCore.rank1_updates` runs ``kc`` rank-1
steps as one NumPy pass and :func:`repro.kernels.qr.apply_householder`
applies a Householder reflector with whole-row NumPy operations.  This
module keeps the plain formulations they replaced: one bus broadcast, bus
read, latch and ``PE.mac`` per PE per step, and one ``PE.multiply_add``
call per matrix element.  The equivalence suite requires bitwise-equal
outputs, counters and PE state from the two.

Use :func:`reference_lac` to route every kernel through these loops.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Sequence

import numpy as np

import repro.kernels.blocked_factorizations as blocked_factorizations
import repro.kernels.qr as qr
from repro.lac.core import LinearAlgebraCore


def reference_rank1_update_step(core: LinearAlgebraCore, a_column: Sequence[float],
                                b_row: Sequence[float], accumulator: int = 0) -> None:
    """One rank-1 update, one bus read, latch and MAC per PE, one cycle."""
    if len(a_column) != core.nr or len(b_row) != core.nr:
        raise ValueError("rank-1 operands must have length nr")
    core.buses.broadcast_row_vector(list(a_column))
    core.buses.broadcast_column_vector(list(b_row))
    for i in range(core.nr):
        alpha = core.buses.read_row(i)
        for j in range(core.nr):
            beta = core.buses.read_column(j)
            pe = core.pes[i][j]
            pe.row_bus_in = alpha
            pe.column_bus_in = beta
            pe.mac(alpha, beta, accumulator)
    core.buses.clear()
    core.tick(1)


def reference_rank1_updates(core: LinearAlgebraCore, a_slice: np.ndarray,
                            b_slice: np.ndarray, accumulator: int = 0) -> None:
    """``kc`` calls of :func:`reference_rank1_update_step`."""
    a = np.asarray(a_slice, dtype=float)
    b = np.asarray(b_slice, dtype=float)
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != core.nr or b.shape != (a.shape[1], core.nr):
        raise ValueError("rank-1 operands must be an nr x kc slice of A "
                         "and a kc x nr slice of B")
    for p in range(a.shape[1]):
        reference_rank1_update_step(core, a[:, p], b[p, :], accumulator)


def reference_apply_householder(core: LinearAlgebraCore, u: np.ndarray, tau: float,
                                c: np.ndarray) -> None:
    """``C -= u (u^T C) / tau`` with one ``PE.multiply_add`` per element."""
    nr = core.nr
    rows, cols = c.shape
    w = np.zeros(cols, dtype=float)
    for col in range(cols):
        acc = 0.0
        for r in range(rows):
            acc = core.pes[r % nr][col % nr].multiply_add(u[r], c[r, col], acc)
        w[col] = acc / tau
    core.tick(int(np.ceil(c.size / float(nr * nr))) + core.mac_latency)
    for r in range(rows):
        for col in range(cols):
            c[r, col] = core.pes[r % nr][col % nr].multiply_add(-u[r], w[col], c[r, col])
    core.tick(int(np.ceil(c.size / float(nr * nr))) + core.mac_latency)


@contextlib.contextmanager
def reference_lac() -> Iterator[None]:
    """Run every rank-1 sequence and reflector update on the per-PE loops."""
    originals = (LinearAlgebraCore.rank1_updates, qr.apply_householder,
                 blocked_factorizations.apply_householder)
    LinearAlgebraCore.rank1_updates = reference_rank1_updates
    qr.apply_householder = reference_apply_householder
    blocked_factorizations.apply_householder = reference_apply_householder
    try:
        yield
    finally:
        (LinearAlgebraCore.rank1_updates, qr.apply_householder,
         blocked_factorizations.apply_householder) = originals
