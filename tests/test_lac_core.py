"""Tests for the LAC core simulator: distribution, rank-1 engine, collectives."""

import math

import numpy as np
import pytest

from repro.hw.sfu import SFUPlacement, SpecialOp
from repro.lac.core import LACConfig, LinearAlgebraCore
from repro.lac.pe import PEConfig


@pytest.fixture
def core():
    return LinearAlgebraCore(LACConfig(nr=4, pe=PEConfig(store_a_words=256, store_b_words=64)))


def test_default_configuration_is_4x4():
    core = LinearAlgebraCore()
    assert core.nr == 4
    assert core.num_pes == 16


def test_config_validation():
    with pytest.raises(ValueError):
        LACConfig(nr=1)
    with pytest.raises(ValueError):
        LACConfig(frequency_ghz=0.0)


def test_distribute_a_round_robin_layout(core):
    a = np.arange(8 * 8, dtype=float).reshape(8, 8)
    words = core.distribute_a(a)
    assert words == 4  # ceil(8/4) * ceil(8/4)
    # a[i, p] lives in PE (i mod 4, p mod 4); a[5, 6] is the second row/col block.
    assert core.pe(1, 2).store_a[3] == a[5, 6]
    assert core.pe(0, 0).store_a[0] == a[0, 0]
    assert core.counters.external_loads == 64


def test_distribute_b_replication(core):
    b = np.arange(8 * 4, dtype=float).reshape(8, 4)
    k = core.distribute_b_replicated(b)
    assert k == 8
    # Every PE in column j holds the whole column j of B.
    for i in range(4):
        assert core.pe(i, 2).store_b[5] == b[5, 2]


def test_distribute_b_requires_nr_columns(core):
    with pytest.raises(ValueError):
        core.distribute_b_replicated(np.zeros((8, 3)))


def test_accumulator_load_store_round_trip(core):
    c = np.arange(16, dtype=float).reshape(4, 4)
    core.load_c_accumulators(c)
    out = core.store_c_accumulators()
    np.testing.assert_allclose(out, c)
    assert core.counters.external_loads == 16
    assert core.counters.external_stores == 16


def test_rank1_update_step_computes_outer_product(core):
    core.load_c_accumulators(np.zeros((4, 4)))
    a_col = np.array([1.0, 2.0, 3.0, 4.0])
    b_row = np.array([5.0, 6.0, 7.0, 8.0])
    core.rank1_update_step(a_col, b_row)
    out = core.store_c_accumulators()
    np.testing.assert_allclose(out, np.outer(a_col, b_row))
    assert core.counters.mac_ops == 16


def test_rank1_update_step_is_one_cycle(core):
    core.load_c_accumulators(np.zeros((4, 4)))
    before = core.counters.cycles
    core.rank1_update_step([1, 1, 1, 1], [1, 1, 1, 1])
    assert core.counters.cycles == before + 1


def test_rank1_operand_length_checked(core):
    with pytest.raises(ValueError):
        core.rank1_update_step([1.0, 2.0], [1.0, 2.0, 3.0, 4.0])


def test_rank1_updates_run_kc_steps_in_closed_form(core):
    core.load_c_accumulators(np.ones((4, 4)))
    before = core.counters.copy()
    a = np.arange(12, dtype=float).reshape(4, 3)
    b = np.arange(12, dtype=float).reshape(3, 4)
    core.rank1_updates(a, b)
    np.testing.assert_array_equal(core.store_c_accumulators(), 1.0 + a @ b)
    assert core.counters.cycles - before.cycles == 3 + core.nr  # 3 steps + stream-out
    assert core.counters.mac_ops - before.mac_ops == 16 * 3
    assert core.counters.row_broadcasts - before.row_broadcasts == 4 * 3
    assert core.counters.column_broadcasts - before.column_broadcasts == 4 * 3
    # The latches hold the last step's operands; the buses are released.
    assert core.pe(2, 1).row_bus_in == a[2, -1]
    assert core.pe(2, 1).column_bus_in == b[-1, 1]
    assert not any(core.buses.row_is_driven(i) for i in range(4))


def _rank1_state(core):
    return (core.counters.as_dict(),
            [(list(pe.accumulator), pe.row_bus_in, pe.column_bus_in)
             for row in core.pes for pe in row])


REJECTED_RANK1_CALLS = {
    "row bus driven": (lambda core: core.buses.drive_row(2, 1.0), RuntimeError,
                       "row bus 2 already driven", {}),
    "column bus driven": (lambda core: core.buses.drive_column(0, 1.0), RuntimeError,
                          "column bus 0 already driven", {}),
    "accumulator too large": (lambda core: None, IndexError, "accumulator address 4",
                              {"accumulator": 4}),
    "negative accumulator": (lambda core: None, IndexError, "accumulator address -1",
                             {"accumulator": -1}),
}


@pytest.mark.parametrize("case", sorted(REJECTED_RANK1_CALLS))
@pytest.mark.parametrize("bulk", [True, False], ids=["rank1_updates", "rank1_update_step"])
def test_rejected_rank1_call_leaves_core_untouched(core, case, bulk):
    prepare, error, message, kwargs = REJECTED_RANK1_CALLS[case]
    core.load_c_accumulators(np.full((4, 4), 3.0))
    core.rank1_update_step([1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0])
    prepare(core)
    before = _rank1_state(core)
    with pytest.raises(error, match=message):
        if bulk:
            core.rank1_updates(np.ones((4, 5)), np.ones((5, 4)), **kwargs)
        else:
            core.rank1_update_step([1.0] * 4, [1.0] * 4, **kwargs)
    assert _rank1_state(core) == before


@pytest.mark.parametrize("a_shape, b_shape", [
    ((4, 3), (2, 4)),   # kc mismatch
    ((3, 2), (2, 4)),   # A slice is not nr rows
    ((4, 2), (2, 3)),   # B slice is not nr columns
    ((4,), (1, 4)),     # A slice is not 2-D
])
def test_rank1_updates_length_mismatch_leaves_core_untouched(core, a_shape, b_shape):
    core.load_c_accumulators(np.full((4, 4), 3.0))
    before = _rank1_state(core)
    with pytest.raises(ValueError, match="rank-1 operands"):
        core.rank1_updates(np.ones(a_shape), np.ones(b_shape))
    with pytest.raises(ValueError, match="rank-1 operands must"):
        core.rank1_update_step([1.0] * 4, [1.0] * 3)
    assert _rank1_state(core) == before


def test_transpose_via_diagonal(core):
    values = [1.0, 2.0, 3.0, 4.0]
    out = core.transpose_via_diagonal(values)
    assert out == values
    assert core.counters.row_broadcasts >= 4
    assert core.counters.column_broadcasts >= 4


def test_reduce_column_sums_partials(core):
    total = core.reduce_column([1.0, 2.0, 3.0, 4.0])
    assert total == pytest.approx(10.0)
    assert core.counters.cycles > 0


def test_special_functions_return_exact_values(core):
    assert core.special(SpecialOp.RECIPROCAL, 4.0) == pytest.approx(0.25)
    assert core.special(SpecialOp.SQRT, 9.0) == pytest.approx(3.0)
    assert core.special(SpecialOp.INV_SQRT, 16.0) == pytest.approx(0.25)
    assert core.counters.sfu_ops == 3


def test_special_function_error_cases(core):
    with pytest.raises(ZeroDivisionError):
        core.special(SpecialOp.RECIPROCAL, 0.0)
    with pytest.raises(ValueError):
        core.special(SpecialOp.SQRT, -1.0)
    with pytest.raises(ValueError):
        core.special(SpecialOp.INV_SQRT, 0.0)


def test_software_sfu_consumes_mac_slots():
    core_sw = LinearAlgebraCore(LACConfig(nr=4, sfu_placement=SFUPlacement.SOFTWARE))
    core_hw = LinearAlgebraCore(LACConfig(nr=4, sfu_placement=SFUPlacement.ISOLATED))
    core_sw.special(SpecialOp.RECIPROCAL, 2.0)
    core_hw.special(SpecialOp.RECIPROCAL, 2.0)
    assert core_sw.counters.mac_ops > core_hw.counters.mac_ops
    assert core_sw.counters.cycles > core_hw.counters.cycles


def test_tick_and_drain(core):
    core.tick(5)
    core.drain_pipeline()
    assert core.counters.cycles == 5 + core.mac_latency
    with pytest.raises(ValueError):
        core.tick(-1)


def test_utilization_and_gflops_reporting(core):
    core.load_c_accumulators(np.zeros((4, 4)))
    for _ in range(10):
        core.rank1_update_step([1, 1, 1, 1], [1, 1, 1, 1])
    assert 0.0 < core.utilization() <= 1.0
    assert core.achieved_gflops() > 0.0
    assert core.elapsed_seconds() > 0.0


def test_reset_counters_preserves_memory_contents(core):
    a = np.ones((4, 4))
    core.distribute_a(a)
    core.reset_counters()
    assert core.counters.cycles == 0
    assert core.pe(0, 0).store_a[0] == 1.0
