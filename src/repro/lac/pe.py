"""Processing element (PE) model for the LAC simulator.

Each PE of the ``nr x nr`` mesh contains (Figure 3.1, right-hand side):

* a pipelined fused multiply-accumulate (MAC) unit whose accumulator register
  holds the element of ``C`` assigned to that PE,
* ``MEM A`` -- a larger, single-ported SRAM holding the PE's share of the
  resident ``mc x kc`` block of ``A``,
* ``MEM B`` -- a small, dual-ported SRAM holding the locally replicated
  ``kc x nr`` panel of ``B``,
* a small register file (a handful of entries) for temporaries,
* read/write latches onto the row and column broadcast buses.

The simulator keeps the contents of the stores as Python lists of floats
(addressed sequentially, exactly as the auto-incrementing address generators
of the real design would) and counts every access through the shared
:class:`repro.lac.stats.AccessCounters` instance of the owning core.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.lac.stats import AccessCounters


@dataclass
class PEConfig:
    """Static configuration of one processing element.

    Parameters
    ----------
    store_a_words:
        Capacity of the single-ported ``MEM A`` store in 8-byte words.
    store_b_words:
        Capacity of the dual-ported ``MEM B`` store in words.
    register_file_words:
        Register file entries (the LAC design uses 4).
    accumulators:
        Number of accumulator registers inside the MAC unit (1 suffices for
        GEMM; extra accumulators allow holding several C elements during
        blocked factorizations).
    mac_pipeline_stages:
        Pipeline depth of the MAC unit.
    """

    store_a_words: int = 2048
    store_b_words: int = 256
    register_file_words: int = 4
    accumulators: int = 4
    mac_pipeline_stages: int = 5

    def __post_init__(self) -> None:
        if self.store_a_words < 1 or self.store_b_words < 1:
            raise ValueError("local stores must have positive capacity")
        if self.register_file_words < 1:
            raise ValueError("register file must have at least one entry")
        if self.accumulators < 1:
            raise ValueError("at least one accumulator is required")
        if self.mac_pipeline_stages < 1:
            raise ValueError("MAC pipeline depth must be >= 1")


class ProcessingElement:
    """One PE of the LAC mesh.

    The PE exposes small, architecturally meaningful operations (read/write a
    store word, perform a MAC into an accumulator) and its bus latches; the
    core's controller sequences them.  All accesses are counted
    in the ``counters`` object shared with the owning core.
    """

    def __init__(self, row: int, col: int, config: PEConfig,
                 counters: Optional[AccessCounters] = None):
        if row < 0 or col < 0:
            raise ValueError("PE coordinates must be non-negative")
        self.row = row
        self.col = col
        self.config = config
        self.counters = counters if counters is not None else AccessCounters()

        self.store_a: List[float] = [0.0] * config.store_a_words
        self.store_b: List[float] = [0.0] * config.store_b_words
        self.registers: List[float] = [0.0] * config.register_file_words
        self.accumulator: List[float] = [0.0] * config.accumulators

        #: Latches connecting the PE to its row / column broadcast buses.
        self.row_bus_in: float = 0.0
        self.column_bus_in: float = 0.0

    # --------------------------------------------------------------- stores
    def write_store_a(self, address: int, value: float) -> None:
        """Write one word of the A store."""
        self._check_address(address, self.config.store_a_words, "store A")
        self.store_a[address] = float(value)
        self.counters.store_a_writes += 1

    def read_store_a(self, address: int) -> float:
        """Read one word of the A store."""
        self._check_address(address, self.config.store_a_words, "store A")
        self.counters.store_a_reads += 1
        return self.store_a[address]

    def write_store_b(self, address: int, value: float) -> None:
        """Write one word of the B store."""
        self._check_address(address, self.config.store_b_words, "store B")
        self.store_b[address] = float(value)
        self.counters.store_b_writes += 1

    def read_store_b(self, address: int) -> float:
        """Read one word of the B store."""
        self._check_address(address, self.config.store_b_words, "store B")
        self.counters.store_b_reads += 1
        return self.store_b[address]

    # ------------------------------------------------------------- registers
    def write_register(self, index: int, value: float) -> None:
        """Write a register file entry."""
        self._check_address(index, self.config.register_file_words, "register file")
        self.registers[index] = float(value)
        self.counters.register_writes += 1

    def read_register(self, index: int) -> float:
        """Read a register file entry."""
        self._check_address(index, self.config.register_file_words, "register file")
        self.counters.register_reads += 1
        return self.registers[index]

    # ----------------------------------------------------------- accumulator
    def set_accumulator(self, value: float, index: int = 0) -> None:
        """Preload an accumulator with an initial value of C."""
        self._check_address(index, self.config.accumulators, "accumulator")
        self.accumulator[index] = float(value)
        self.counters.accumulator_writes += 1

    def get_accumulator(self, index: int = 0) -> float:
        """Read an accumulator (stream-out of a finished C element)."""
        self._check_address(index, self.config.accumulators, "accumulator")
        self.counters.accumulator_reads += 1
        return self.accumulator[index]

    def mac(self, a: float, b: float, index: int = 0) -> float:
        """Fused multiply-accumulate into an accumulator: acc += a * b."""
        self._check_address(index, self.config.accumulators, "accumulator")
        self.accumulator[index] += float(a) * float(b)
        self.counters.mac_ops += 1
        return self.accumulator[index]

    def multiply(self, a: float, b: float) -> float:
        """A plain multiply issued on the MAC datapath (counts as one MAC)."""
        self.counters.mac_ops += 1
        return float(a) * float(b)

    def multiply_add(self, a: float, b: float, c: float) -> float:
        """A fused multiply-add not targeting the accumulator: a*b + c."""
        self.counters.mac_ops += 1
        return float(a) * float(b) + float(c)

    # --------------------------------------------------------------- helpers
    @staticmethod
    def _check_address(address: int, limit: int, what: str) -> None:
        if not (0 <= address < limit):
            raise IndexError(f"{what} address {address} out of range [0, {limit})")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PE({self.row},{self.col})"
