"""Bitwise equivalence of the vectorised LAC inner loops against the oracle.

:meth:`LinearAlgebraCore.rank1_updates` runs ``kc`` rank-1 steps as one
NumPy pass and :func:`repro.kernels.qr.apply_householder` applies a
reflector with whole-row NumPy operations.  ``tests/oracle/lac.py`` keeps
the per-PE and per-element loops they replaced.  Both must leave exactly
the same state behind: output bytes, QR taus, every ``AccessCounters``
field, every PE's accumulators and bus latches and the bus state.  The
suite drives the engine directly (every ``nr``/``kc``/accumulator
combination) and through each kernel that uses it, including non-square
QR panels and reflectors with a non-finite tau (the skip branch).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracle import (reference_lac, reference_rank1_update_step,
                    reference_rank1_updates)
from repro.kernels.blocked_factorizations import lac_lu_blocked, lac_qr_blocked
from repro.kernels.cholesky import lac_cholesky
from repro.kernels.gemm import lac_gemm
from repro.kernels.qr import lac_apply_reflectors, lac_householder_qr_panel
from repro.kernels.trsm import lac_trsm
from repro.lac.core import LACConfig, LinearAlgebraCore

NRS = st.sampled_from([2, 4])
#: Finite doubles over a wide range, signed zeros and subnormals included.
VALUES = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, width=64)
UNIT = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, width=64)


def matrix(shape, elements=VALUES):
    return arrays(np.float64, shape, elements=elements)


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def core_state(core):
    """Everything a kernel can leave behind on a core, bitwise."""
    pes = [(bits(pe.accumulator), bits([pe.row_bus_in, pe.column_bus_in]),
            bits(pe.store_a), bits(pe.store_b), bits(pe.registers))
           for row in core.pes for pe in row]
    buses = ([core.buses.row_is_driven(i) for i in range(core.nr)],
             [core.buses.column_is_driven(j) for j in range(core.nr)])
    return core.counters.as_dict(), pes, buses


def outcome(nr, kernel):
    """Run ``kernel`` on a fresh core; its result (or error) and core state."""
    core = LinearAlgebraCore(LACConfig(nr=nr))
    try:
        result = kernel(core)
    except (ArithmeticError, ValueError) as exc:
        return repr(exc), core_state(core)
    tau = result.extra.get("tau") if result.extra else None
    return ((bits(result.output), None if tau is None else bits(tau),
             result.counters.as_dict()), core_state(core))


def assert_matches_oracle(nr, kernel):
    production = outcome(nr, kernel)
    with reference_lac():
        reference = outcome(nr, kernel)
    assert production == reference


# ----------------------------------------------------------- rank-1 engine
@st.composite
def rank1_case(draw):
    nr = draw(NRS)
    kc = draw(st.integers(1, 40))
    accumulators = draw(matrix((LACConfig().pe.accumulators, nr, nr)))
    return (nr, accumulators, draw(st.integers(0, len(accumulators) - 1)),
            draw(matrix((nr, kc))), draw(matrix((kc, nr))))


def preloaded_core(nr, accumulators):
    core = LinearAlgebraCore(LACConfig(nr=nr))
    for index, block in enumerate(accumulators):
        core.load_c_accumulators(block, accumulator=index)
    return core


@settings(max_examples=80, deadline=None)
@given(rank1_case())
def test_rank1_updates_match_per_pe_steps(case):
    nr, accumulators, index, a, b = case
    production = preloaded_core(nr, accumulators)
    production.rank1_updates(a, b, accumulator=index)
    reference = preloaded_core(nr, accumulators)
    reference_rank1_updates(reference, a, b, accumulator=index)
    assert core_state(production) == core_state(reference)


@settings(max_examples=40, deadline=None)
@given(rank1_case())
def test_rank1_update_step_matches_per_pe_step(case):
    nr, accumulators, index, a, b = case
    production = preloaded_core(nr, accumulators)
    reference = preloaded_core(nr, accumulators)
    for p in range(a.shape[1]):
        production.rank1_update_step(a[:, p], b[p], accumulator=index)
        reference_rank1_update_step(reference, a[:, p], b[p], accumulator=index)
    assert core_state(production) == core_state(reference)


# ----------------------------------------------------------------- kernels
@st.composite
def blocks(draw, max_blocks=3):
    """``nr`` and a block count per dimension (dimensions are multiples of nr)."""
    nr = draw(NRS)
    return nr, [nr * draw(st.integers(1, max_blocks)) for _ in range(3)]


@settings(max_examples=25, deadline=None)
@given(blocks(), st.data())
def test_gemm_matches_oracle(shape, data):
    nr, (mc, kc, n) = shape
    c, a, b = (data.draw(matrix(s)) for s in ((mc, n), (mc, kc), (kc, n)))
    assert_matches_oracle(nr, lambda core: lac_gemm(core, c, a, b))


@settings(max_examples=20, deadline=None)
@given(blocks(), st.data())
def test_trsm_matches_oracle(shape, data):
    nr, (k, m, _) = shape
    lower = np.tril(data.draw(matrix((k, k), UNIT))) + k * np.eye(k)
    b = data.draw(matrix((k, m)))
    assert_matches_oracle(nr, lambda core: lac_trsm(core, lower, b))


@settings(max_examples=20, deadline=None)
@given(blocks(), st.data())
def test_cholesky_matches_oracle(shape, data):
    nr, (n, _, _) = shape
    g = data.draw(matrix((n, n), UNIT))
    spd = g @ g.T + n * np.eye(n)
    assert_matches_oracle(nr, lambda core: lac_cholesky(core, spd))


@settings(max_examples=20, deadline=None)
@given(blocks(), st.data())
def test_lu_blocked_matches_oracle(shape, data):
    nr, (n, _, _) = shape
    a = data.draw(matrix((n, n), UNIT)) + data.draw(st.sampled_from([0.0, n])) * np.eye(n)
    assert_matches_oracle(nr, lambda core: lac_lu_blocked(core, a))


@st.composite
def qr_operand(draw, rows, cols):
    """A matrix whose chosen columns are already zero below the diagonal.

    Such a column has no reflector to apply (tau is infinite), which drives
    the kernels' skip branch.
    """
    a = draw(matrix((rows, cols), UNIT))
    for col in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
        a[col + 1:, col] = 0.0
    return a


@settings(max_examples=20, deadline=None)
@given(blocks(), st.integers(0, 6), st.data())
def test_qr_blocked_matches_oracle(shape, extra_rows, data):
    nr, (n, _, _) = shape
    a = data.draw(qr_operand(n + extra_rows, n))
    assert_matches_oracle(nr, lambda core: lac_qr_blocked(core, a))


@settings(max_examples=25, deadline=None)
@given(NRS, st.integers(0, 12), st.data())
def test_householder_qr_panel_matches_oracle(nr, extra_rows, data):
    panel = data.draw(qr_operand(nr + extra_rows, nr))
    assert_matches_oracle(nr, lambda core: lac_householder_qr_panel(core, panel))


@settings(max_examples=25, deadline=None)
@given(NRS, st.integers(1, 12), st.integers(1, 6), st.integers(0, 9), st.data())
def test_apply_reflectors_match_oracle(nr, rows, num_reflectors, cols, data):
    rows = max(rows, num_reflectors)
    v = data.draw(matrix((rows, num_reflectors), UNIT))
    c = data.draw(matrix((rows, cols)))
    taus = data.draw(st.lists(st.one_of(st.floats(0.5, 2.0), st.just(float("inf"))),
                              min_size=num_reflectors, max_size=num_reflectors))
    assert_matches_oracle(nr, lambda core: lac_apply_reflectors(core, v, taus, c))


@pytest.mark.parametrize("nr", [2, 4])
def test_qr_with_non_finite_taus_matches_oracle(nr):
    # Columns 0..nr are already upper triangular, so their reflectors (the
    # whole first panel and the head of the second) are skipped.
    a = np.random.default_rng(nr).standard_normal((3 * nr, 2 * nr))
    a[:, :nr + 1] = np.triu(a[:, :nr + 1])
    taus = np.array(lac_qr_blocked(LinearAlgebraCore(LACConfig(nr=nr)), a).extra["tau"])
    assert not np.isfinite(taus[:nr + 1]).any()
    assert np.isfinite(taus[nr + 1:]).all()
    assert_matches_oracle(nr, lambda core: lac_qr_blocked(core, a))
