"""Row and column broadcast buses of the LAC simulator.

Communication inside the core happens exclusively over ``nr`` row buses and
``nr`` column buses.  During a rank-1 update the PEs of the root column drive
the row buses with elements of ``A`` and the PEs of the root row drive the
column buses with elements of ``B``; every PE (including the senders) latches
the value broadcast on its row and its column in the same cycle.  The column
buses are also multiplexed to move data between the core and the on-chip
memory during preloading and write-back.

The simulator models a bus as a single shared value per row/column per
logical step plus an access counter; contention (two drivers in the same
step) raises an error, which catches mis-scheduled kernels in the tests.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.lac.stats import AccessCounters


class RowColumnBuses:
    """The ``2 * nr`` broadcast buses of one LAC."""

    def __init__(self, nr: int, counters: Optional[AccessCounters] = None):
        if nr < 1:
            raise ValueError("core dimension must be >= 1")
        self.nr = nr
        self.counters = counters if counters is not None else AccessCounters()
        self._row_values: List[Optional[float]] = [None] * nr
        self._col_values: List[Optional[float]] = [None] * nr

    # ------------------------------------------------------------ row buses
    def drive_row(self, row: int, value: float) -> None:
        """Drive the row bus ``row`` with a value (one broadcast)."""
        self._check_index(row)
        if self._row_values[row] is not None:
            raise RuntimeError(f"row bus {row} already driven this step")
        self._row_values[row] = float(value)
        self.counters.row_broadcasts += 1

    def read_row(self, row: int) -> float:
        """Read the value currently on row bus ``row``."""
        self._check_index(row)
        value = self._row_values[row]
        if value is None:
            raise RuntimeError(f"row bus {row} read while idle")
        return value

    # --------------------------------------------------------- column buses
    def drive_column(self, col: int, value: float) -> None:
        """Drive the column bus ``col`` with a value (one broadcast)."""
        self._check_index(col)
        if self._col_values[col] is not None:
            raise RuntimeError(f"column bus {col} already driven this step")
        self._col_values[col] = float(value)
        self.counters.column_broadcasts += 1

    def read_column(self, col: int) -> float:
        """Read the value currently on column bus ``col``."""
        self._check_index(col)
        value = self._col_values[col]
        if value is None:
            raise RuntimeError(f"column bus {col} read while idle")
        return value

    # ----------------------------------------------------------- step logic
    def clear(self) -> None:
        """Release all buses at the end of a logical step."""
        self._row_values = [None] * self.nr
        self._col_values = [None] * self.nr

    def broadcast_row_vector(self, values: Sequence[float]) -> None:
        """Drive all row buses at once (one value per row)."""
        if len(values) != self.nr:
            raise ValueError(f"expected {self.nr} values, got {len(values)}")
        for r, v in enumerate(values):
            self.drive_row(r, v)

    def broadcast_column_vector(self, values: Sequence[float]) -> None:
        """Drive all column buses at once (one value per column)."""
        if len(values) != self.nr:
            raise ValueError(f"expected {self.nr} values, got {len(values)}")
        for c, v in enumerate(values):
            self.drive_column(c, v)

    def check_idle(self) -> None:
        """Raise ``RuntimeError`` if any bus is still driven in this step."""
        for kind, values in (("row", self._row_values), ("column", self._col_values)):
            for index, value in enumerate(values):
                if value is not None:
                    raise RuntimeError(f"{kind} bus {index} already driven this step")

    def row_is_driven(self, row: int) -> bool:
        """Whether row bus ``row`` currently carries a value."""
        self._check_index(row)
        return self._row_values[row] is not None

    def column_is_driven(self, col: int) -> bool:
        """Whether column bus ``col`` currently carries a value."""
        self._check_index(col)
        return self._col_values[col] is not None

    # --------------------------------------------------------------- helpers
    def _check_index(self, index: int) -> None:
        if not (0 <= index < self.nr):
            raise IndexError(f"bus index {index} out of range [0, {self.nr})")
