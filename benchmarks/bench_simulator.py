"""Benchmarks of the cycle-level simulator itself.

These are true pytest-benchmark measurements of the Python simulator running
the kernels the dissertation's own simulator was used to verify (GEMM, TRSM,
Cholesky; Sec. 1.3), plus the simulator-vs-analytical-model cross check.
They double as ablation benches: GEMM with and without operand prefetching
accounting, and TRSM inner-kernel variants.  ``test_lac_warmup_record``
records what one LAC warm-up per task signature costs a cold sweep point.
"""

import time

import numpy as np
import pytest

from repro.kernels.cholesky import lac_cholesky
from repro.kernels.fft import lac_fft
from repro.kernels.gemm import lac_gemm
from repro.kernels.trsm import lac_trsm
from repro.lac.core import LACConfig, LinearAlgebraCore
from repro.lap.chip import LAPConfig, LinearAlgebraProcessor
from repro.lap.runtime import LAPRuntime
from repro.models.core_model import CoreGEMMModel
from repro.reference import ref_cholesky, ref_trsm


RNG = np.random.default_rng(2024)


def _fresh_core(nr: int = 4) -> LinearAlgebraCore:
    return LinearAlgebraCore(LACConfig(nr=nr))


def test_simulated_gemm_16x16(benchmark, bench_json):
    a = RNG.random((16, 16))
    b = RNG.random((16, 16))
    c = RNG.random((16, 16))
    last = {}

    def run():
        started = time.perf_counter()
        result = lac_gemm(_fresh_core(), c, a, b)
        last["elapsed"] = time.perf_counter() - started
        return result

    result = benchmark(run)
    np.testing.assert_allclose(result.output, c + a @ b, rtol=1e-12)
    assert result.counters.mac_ops == 16 ** 3
    # Utilisation of the simulated run stays healthy even with every operand
    # transfer charged (no prefetch overlap modelled in this small run).
    assert result.utilization > 0.4
    bench_json("simulator_gemm_16x16", {
        "cycles": result.cycles,
        "utilization": result.utilization,
        "simulate_seconds": last["elapsed"],
    })


def test_simulated_gemm_matches_analytical_peak_term(benchmark):
    """Cross-validation of simulator cycles against the analytical model."""
    mc, kc, n = 16, 32, 16
    a = RNG.random((mc, kc))
    b = RNG.random((kc, n))
    c = RNG.random((mc, n))

    def run():
        core = _fresh_core()
        return lac_gemm(core, c, a, b)

    result = benchmark(run)
    model = CoreGEMMModel(nr=4)
    peak = model.cycles(mc, kc, n, 1e9).peak_cycles
    rank1 = (mc // 4) * (n // 4) * kc
    assert rank1 == pytest.approx(peak)
    assert peak <= result.cycles <= 2.5 * peak


def test_simulated_trsm_8x16(benchmark):
    l = np.tril(RNG.random((8, 8))) + 8 * np.eye(8)
    b = RNG.random((8, 16))

    def run():
        return lac_trsm(_fresh_core(), l, b)

    result = benchmark(run)
    np.testing.assert_allclose(result.output, ref_trsm(l, b), rtol=1e-10)


def test_simulated_trsm_variant_ablation(benchmark):
    """Ablation: the software-pipelined inner kernel charges fewer cycles."""
    l = np.tril(RNG.random((8, 8))) + 8 * np.eye(8)
    b = RNG.random((8, 32))

    def run_sw():
        return lac_trsm(_fresh_core(), l, b, variant="software_pipelined")

    sw = benchmark(run_sw)
    basic = lac_trsm(_fresh_core(), l, b, variant="basic")
    np.testing.assert_allclose(sw.output, basic.output, rtol=1e-10)
    assert sw.cycles < basic.cycles


def test_simulated_cholesky_12x12(benchmark):
    m = RNG.random((12, 12))
    a = m @ m.T + 12 * np.eye(12)

    def run():
        return lac_cholesky(_fresh_core(), a)

    result = benchmark(run)
    np.testing.assert_allclose(result.output, ref_cholesky(a), rtol=1e-9)


def test_simulated_fft_256(benchmark):
    x = RNG.standard_normal(256) + 1j * RNG.standard_normal(256)

    def run():
        return lac_fft(_fresh_core(), x)

    result = benchmark(run)
    np.testing.assert_allclose(result.output, np.fft.fft(x), rtol=1e-9, atol=1e-9)
    # FFT on the LAC sustains a healthy fraction of peak FMA issue.
    assert result.utilization > 0.2


def test_simulated_gemm_8x8_core(benchmark):
    """The nr=8 core: four times the MAC count of the 4x4 core on the same problem."""
    a = RNG.random((16, 16))
    b = RNG.random((16, 16))
    c = RNG.random((16, 16))

    def run():
        return lac_gemm(_fresh_core(nr=8), c, a, b)

    result = benchmark(run)
    np.testing.assert_allclose(result.output, c + a @ b, rtol=1e-12)
    assert result.num_pes == 64


#: Warm-up cycles of the 13 task signatures a cold 1024^2 sweep point at
#: tile 64 on ``nr = 4`` cores warms across the four algorithms-by-blocks:
#: (kind, tile shapes, precision, unit alpha, transposed B) -> cycles.
TILE64_WARMUP_CYCLES = {
    ("chol", ((64, 64),), "double", True, False): 12432,
    ("trsm_rt", ((64, 64), (64, 64)), "double", True, False): 11904,
    ("syrk", ((64, 64), (64, 64)), "double", False, True): 20480,
    ("gemm", ((64, 64), (64, 64), (64, 64)), "double", False, True): 20480,
    ("lu", ((64, 64),), "double", True, False): 19948,
    ("trsm_ll", ((64, 64), (64, 64)), "double", True, False): 11904,
    ("trsm_ru", ((64, 64), (64, 64)), "double", True, False): 11904,
    ("gemm", ((64, 64), (64, 64), (64, 64)), "double", False, False): 20480,
    ("geqrt", ((64, 64),), "double", True, False): 19385,
    ("unmqr", ((64, 64), (64, 64)), "double", True, False): 17262,
    ("tsqrt", ((64, 64), (64, 64)), "double", True, False): 37152,
    ("tsmqr", ((64, 64), (64, 64), (64, 64)), "double", True, False): 50048,
    ("gemm", ((64, 64), (64, 64), (64, 64)), "double", True, False): 20480,
}


def test_lac_warmup_record(bench_json):
    """Per-signature LAC warm-up seconds and cycles of a cold sweep point.

    Runs each algorithm at n = 1024, tile 64 under memoized timing -- the
    points of the benchmark's ``cold_grid`` workload -- and records, for
    every signature, the wall time of its one functional warm-up and the
    cycles it charged.  Only the cycles are asserted; the seconds are the
    record.
    """
    rows = []
    for algorithm in ("cholesky", "lu", "qr", "gemm"):
        lap = LinearAlgebraProcessor(LAPConfig(num_cores=4, nr=4, onchip_memory_mbytes=1.0))
        runtime = LAPRuntime(lap, 64, timing="memoized")
        getattr(runtime, f"run_blocked_{algorithm}")(1024, np.random.default_rng(0),
                                                      verify=False)
        timing = runtime.timing
        for signature, cycles in timing.cycles_by_signature.items():
            kind, shapes, precision, unit_alpha, transpose_b = signature
            rows.append({"algorithm": algorithm, "kind": kind, "shapes": shapes,
                         "precision": precision, "unit_alpha": unit_alpha,
                         "transpose_b": transpose_b, "cycles": cycles,
                         "warmup_s": timing.warm_seconds_by_signature[signature]})
    cycles = {(r["kind"], r["shapes"], r["precision"], r["unit_alpha"], r["transpose_b"]):
              r["cycles"] for r in rows}
    assert len(rows) == len(cycles) == 13
    assert cycles == TILE64_WARMUP_CYCLES
    bench_json("lac_warmups", {
        "n": 1024, "tile": 64, "nr": 4,
        "signatures": rows,
        "total_warmup_s": sum(r["warmup_s"] for r in rows),
    })
