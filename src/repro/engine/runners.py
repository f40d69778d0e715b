"""Adapters turning the repo's evaluation code paths into engine runners.

A *runner* is a pure, picklable function ``params_dict -> row_dict``; the
executor looks runners up by name so that jobs can be shipped to worker
processes without serialising code.  The adapters cover every evaluation
code path the paper figures sweep:

``design``
    chip-level area/power/efficiency of a LAP design point (``build_lap``),
``pe``
    one processing element across frequency / precision / local store,
``simulate``
    a kernel run on the cycle-level LAC simulator with seeded operands,
``chip_gemm``
    the analytical multi-core GEMM model with off-chip transfers
    (cores x bandwidth x problem size),
``chip_gemm_onchip``
    the on-chip side of the same model: one ``C += A_p B_p`` update under a
    given (or the required) aggregate on-chip bandwidth (Figs. 4.2/4.3),
``core_gemm``
    the analytical single-core GEMM model (local store x bandwidth),
``blas``
    the level-3 BLAS utilisation model (GEMM/TRSM/SYRK/SYR2K/...;
    Figs. 5.8-5.10),
``fact_kernel``
    the analytical factorization inner-kernel cycle/energy model across
    SFU placements and MAC extensions (Figs. 6.6/6.7, A.3-A.8),
``lap_runtime``
    a blocked GEMM / Cholesky / LU / QR task graph scheduled by the LAP
    runtime onto the cycle-level multi-core simulator (block sizes x core
    counts x scheduling policies x timing models),
``blocked_fact``
    a full blocked Cholesky/LU/QR factorization on the cycle-level LAC
    simulator, cross-checked against the analytical panel model,
``experiment``
    one :mod:`repro.experiments.registry` entry (cached artifact regeneration).

Rows contain only JSON-serialisable scalars (except ``experiment``, whose
``data`` field carries the experiment payload) so results cache cleanly and
compare byte-identically across serial / thread / process execution.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.engine.analysis import DEFAULT_OBJECTIVES
from repro.engine.spec import Params

#: Bump a runner's version whenever its row content changes; the fingerprint
#: below folds these into the cache namespace, invalidating stale entries.
RUNNER_VERSIONS: Dict[str, int] = {
    "design": 1,
    "pe": 1,
    "simulate": 1,
    "chip_gemm": 1,
    "chip_gemm_onchip": 1,
    "core_gemm": 1,
    "blas": 1,
    "fact_kernel": 1,
    # v4: two-level memory hierarchy -- per-core local stores
    # (local_store_kb axis, local-hit / shared-hit / core-to-core traffic
    # columns), the affinity policy and the stall_overlap prefetch axis.
    # v5: fast scheduler path (fast param; byte-identical rows) and
    # schedule-replay costing for delta sweeps (replay param).
    # v6: chip-clock (frequency_ghz) and off-chip access-energy
    # (offchip_pj_per_byte) sweep axes with widened schedule replay
    # (per-task energy re-keying) and the writeback_bytes execution field.
    # The fast and replay params have since been retired (one scheduler
    # loop, replay always on; identical rows), which needs no bump.
    "lap_runtime": 6,
    "blocked_fact": 1,
    "experiment": 1,
}

#: Runners that do enough work per job for a process pool to pay off; the
#: analytical models run in microseconds and stay serial under mode="auto".
HEAVY_RUNNERS = frozenset({"simulate", "experiment", "lap_runtime", "blocked_fact"})

#: Parameters each runner understands; anything else in a job's params is
#: silently unused, so the CLI warns when a sweep axis is not listed here.
KNOWN_PARAMS: Dict[str, frozenset] = {
    "design": frozenset({"cores", "nr", "precision", "frequency_ghz",
                         "local_store_kbytes", "onchip_mbytes", "utilization"}),
    "pe": frozenset({"precision", "frequency_ghz", "local_store_kbytes"}),
    "simulate": frozenset({"kernel", "size", "nr", "frequency_ghz", "seed"}),
    "chip_gemm": frozenset({"num_cores", "nr", "n", "offchip_bw_bytes_per_cycle",
                            "frequency_ghz"}),
    "chip_gemm_onchip": frozenset({"num_cores", "nr", "n", "kc", "mc",
                                   "onchip_bw_words_per_cycle", "full_overlap",
                                   "frequency_ghz"}),
    "core_gemm": frozenset({"nr", "n", "kc", "mc", "bandwidth_bytes_per_cycle"}),
    "blas": frozenset({"operation", "nr", "n", "kc", "mc",
                       "bandwidth_bytes_per_cycle", "full_overlap"}),
    "fact_kernel": frozenset({"kernel", "k", "nr", "sfu", "mac_extension",
                              "precision", "frequency_ghz", "local_store_kbytes"}),
    "lap_runtime": frozenset({"algorithm", "n", "tile", "num_cores", "nr",
                              "onchip_mbytes", "seed", "policy", "timing",
                              "verify", "core_frequencies_ghz", "memory",
                              "on_chip_kb", "bandwidth_gbs", "local_store_kb",
                              "stall_overlap", "frequency_ghz",
                              "offchip_pj_per_byte"}),
    "blocked_fact": frozenset({"method", "n", "nr", "seed", "use_extension",
                               "frequency_ghz"}),
    "experiment": frozenset({"exp_id"}),
}


#: Per-process memo of recorded schedules for the ``lap_runtime`` replay
#: fast path: structural key (everything except the bandwidth / overlap
#: constants) -> (ScheduleTrace, fresh row).  FIFO-bounded; worker processes
#: each keep their own (replay is an optimisation, never a correctness
#: dependency -- a miss just re-simulates).
_REPLAY_MEMO: "Dict[tuple, tuple]" = {}
_REPLAY_MEMO_MAX = 16

#: Cross-process replay sidecar (a :class:`repro.engine.cache.SidecarStore`)
#: configured by the executor through :func:`configure_worker`; ``None``
#: keeps replay purely in-process.  Worker processes each configure their
#: own handle from the picklable context shipped with every micro-batch.
_WORKER_SIDECAR = None

#: Sidecar record kind for persisted ``lap_runtime`` schedule recordings.
_REPLAY_SIDECAR_KIND = "lap_runtime/schedule_trace"


def configure_worker(context: Optional[Mapping] = None) -> None:
    """Apply executor-provided per-worker context (idempotent).

    Currently the context carries the result cache's replay-sidecar
    location (``{"replay_sidecar": {"directory": ..., "code_version":
    ...}}``); passing ``None`` or an empty context resets to purely
    in-process replay.  Called by the executor at the start of serial runs
    and inside every pool worker before a micro-batch executes.
    """
    global _WORKER_SIDECAR
    sidecar_config = context.get("replay_sidecar") if context else None
    if not sidecar_config:
        _WORKER_SIDECAR = None
        return
    if (_WORKER_SIDECAR is not None
            and _WORKER_SIDECAR.config() == dict(sidecar_config)):
        return
    from repro.engine.cache import SidecarStore

    _WORKER_SIDECAR = SidecarStore.from_config(sidecar_config)


def _replay_material(structural_key: tuple) -> str:
    """Canonical sidecar key material of a structural replay key."""
    import json

    return json.dumps(structural_key)


def _memoize_replay(structural_key: tuple, trace, row: dict) -> None:
    _REPLAY_MEMO[structural_key] = (trace, row)
    while len(_REPLAY_MEMO) > _REPLAY_MEMO_MAX:
        _REPLAY_MEMO.pop(next(iter(_REPLAY_MEMO)))


def _load_replay_from_sidecar(structural_key: tuple) -> Optional[tuple]:
    """Seed the in-process memo from the cross-process sidecar, if present."""
    if _WORKER_SIDECAR is None:
        return None
    payload = _WORKER_SIDECAR.get(_REPLAY_SIDECAR_KIND,
                                  _replay_material(structural_key))
    if payload is None:
        return None
    from repro.lap.fastpath import REPLAY_STATS, ScheduleTrace

    try:
        trace = ScheduleTrace.from_payload(payload["trace"])
        row = payload["row"]
        if not isinstance(row, dict):
            raise TypeError("sidecar replay row must be a dict")
    except (KeyError, TypeError, ValueError):
        return None
    REPLAY_STATS["sidecar_loaded"] += 1
    _memoize_replay(structural_key, trace, row)
    return (trace, row)


def _store_replay_to_sidecar(structural_key: tuple, trace, row: dict) -> None:
    """Publish a fresh schedule recording for other processes (best effort)."""
    if _WORKER_SIDECAR is None:
        return
    payload = {"trace": trace.to_payload(), "row": row}
    if _WORKER_SIDECAR.put(_REPLAY_SIDECAR_KIND,
                           _replay_material(structural_key), payload) is not None:
        from repro.lap.fastpath import REPLAY_STATS

        REPLAY_STATS["sidecar_stored"] += 1


def _replayed_row(row: dict, stall_overlap, bandwidth_gbs, memory: bool,
                  frequency_ghz=None, offchip_pj_per_byte=None,
                  makespan_ns=None, energy_j=None,
                  gflops_per_w=None) -> dict:
    """Cached row re-keyed for a replayed sweep point.

    Only the constants that provably did not change the schedule are
    patched: the gated ``stall_overlap`` / ``frequency_ghz`` /
    ``offchip_pj_per_byte`` columns (present exactly when the new point
    sets the parameter, in the position a fresh row gives them), the
    effective ``bandwidth_gbs``, and -- under a chip-clock or energy
    delta -- the ``makespan_ns`` / ``energy_j`` / ``gflops_per_w`` values
    the caller recomputed from the trace.  Everything else is
    byte-identical by :meth:`ScheduleTrace.exact_for`.
    """
    out = {}
    for key, value in row.items():
        if key in ("stall_overlap", "frequency_ghz", "offchip_pj_per_byte"):
            continue
        out[key] = value
        if key == "core_frequencies_ghz" and frequency_ghz is not None:
            out["frequency_ghz"] = frequency_ghz
        if key == "memory" and stall_overlap is not None:
            out["stall_overlap"] = stall_overlap
        if key == "bandwidth_gbs" and offchip_pj_per_byte is not None:
            out["offchip_pj_per_byte"] = offchip_pj_per_byte
    if memory:
        out["bandwidth_gbs"] = bandwidth_gbs
    if makespan_ns is not None:
        out["makespan_ns"] = makespan_ns
    if energy_j is not None:
        out["energy_j"] = energy_j
    if gflops_per_w is not None:
        out["gflops_per_w"] = gflops_per_w
    return out


def _precision(params: Mapping) -> "Precision":
    from repro.hw.fpu import Precision

    name = str(params.get("precision", "double")).lower()
    if name in ("single", "sp"):
        return Precision.SINGLE
    if name in ("double", "dp"):
        return Precision.DOUBLE
    raise ValueError(f"unknown precision '{name}' (use 'single' or 'double')")


def run_design_point(params: Params) -> dict:
    """Evaluate one LAP chip design point (area / power / efficiency)."""
    from repro.arch.lap_design import build_lap

    precision = _precision(params)
    cores = int(params.get("cores", 8))
    nr = int(params.get("nr", 4))
    frequency = float(params.get("frequency_ghz", 1.0))
    local_store = float(params.get("local_store_kbytes", 16.0))
    onchip = float(params.get("onchip_mbytes", 4.0))
    utilization = float(params.get("utilization", 0.9))
    design = build_lap(num_cores=cores, nr=nr, precision=precision,
                       frequency_ghz=frequency, local_store_kbytes=local_store,
                       onchip_memory_mbytes=onchip)
    eff = design.efficiency(utilization=utilization)
    return {
        "cores": cores,
        "nr": nr,
        "precision": precision.value,
        "frequency_ghz": frequency,
        "local_store_kbytes": local_store,
        "onchip_mbytes": onchip,
        "utilization": utilization,
        "area_mm2": design.area_mm2,
        "power_w": design.power_w(),
        "peak_gflops": design.peak_gflops,
        "gflops": eff.gflops,
        "gflops_per_w": eff.gflops_per_watt,
        "gflops_per_mm2": eff.gflops_per_mm2,
    }


def run_pe_point(params: Params) -> dict:
    """Evaluate one processing-element design point."""
    from repro.arch.lap_design import build_pe

    precision = _precision(params)
    frequency = float(params.get("frequency_ghz", 1.0))
    local_store = float(params.get("local_store_kbytes", 16.0))
    pe = build_pe(precision=precision, frequency_ghz=frequency,
                  local_store_kbytes=local_store)
    eff = pe.efficiency()
    return {
        "precision": precision.value,
        "frequency_ghz": frequency,
        "local_store_kbytes": local_store,
        "pe_area_mm2": pe.area_mm2,
        "store_area_mm2": pe.store_a.area_mm2 + pe.store_b.area_mm2,
        "fpu_area_mm2": pe.fmac.area_mm2,
        "memory_power_w": pe.memory_power_w,
        "fmac_power_w": pe.fmac_power_w,
        "pe_power_w": pe.total_power_w,
        "peak_gflops": pe.peak_gflops,
        "mm2_per_gflop": eff.mm2_per_gflop,
        "mw_per_gflop": eff.mw_per_gflop,
        "energy_delay": eff.energy_delay,
        "gflops_per_w": eff.gflops_per_watt,
        "gflops_per_mm2": eff.gflops_per_mm2,
    }


def run_kernel_simulation(params: Params) -> dict:
    """Run one kernel on the cycle-level LAC simulator with seeded operands."""
    import numpy as np

    from repro.kernels.dispatch import check_size, get_kernel, simulate_kernel
    from repro.lac import LACConfig, LinearAlgebraCore

    kernel = str(params.get("kernel", "gemm"))
    size = int(params.get("size", 16))
    nr = int(params.get("nr", 4))
    frequency = float(params.get("frequency_ghz", 1.0))
    seed = int(params.get("seed", 0))
    spec = get_kernel(kernel)
    check_size(kernel, size, nr)
    core = LinearAlgebraCore(LACConfig(nr=nr, frequency_ghz=frequency))
    rng = np.random.default_rng(seed)
    result = simulate_kernel(core, kernel, size, rng)
    return {
        "kernel": kernel,
        "size": size,
        "effective_size": spec.effective_size(size, nr),
        "nr": nr,
        "frequency_ghz": frequency,
        "seed": seed,
        "cycles": int(result.cycles),
        "mac_ops": int(result.counters.mac_ops),
        "flops": int(result.flops),
        "utilization": float(result.utilization),
        "gflops": float(result.gflops(frequency)),
    }


def run_chip_gemm(params: Params) -> dict:
    """Evaluate the analytical multi-core GEMM model at one design point."""
    from repro.models.chip_model import ChipGEMMModel

    num_cores = int(params.get("num_cores", 8))
    nr = int(params.get("nr", 4))
    n = int(params.get("n", 2048))
    bw_bytes = float(params.get("offchip_bw_bytes_per_cycle", 16.0))
    frequency = float(params.get("frequency_ghz", 1.0))
    model = ChipGEMMModel(num_cores=num_cores, nr=nr)
    res = model.cycles_offchip(n, offchip_bandwidth_words_per_cycle=bw_bytes / 8.0)
    return {
        "num_cores": num_cores,
        "nr": nr,
        "n": n,
        "offchip_bw_bytes_per_cycle": bw_bytes,
        "frequency_ghz": frequency,
        "onchip_memory_mbytes": res.onchip_memory_mbytes(),
        "total_cycles": res.total_cycles,
        "utilization": res.utilization,
        "utilization_pct": 100.0 * res.utilization,
        "gflops": res.gflops(frequency),
    }


def run_core_gemm(params: Params) -> dict:
    """Evaluate the analytical single-core GEMM model at one design point."""
    from repro.models.core_model import CoreGEMMModel

    nr = int(params.get("nr", 4))
    n = int(params.get("n", 512))
    kc = int(params.get("kc", 128))
    mc = int(params.get("mc", kc))
    bw_bytes = float(params.get("bandwidth_bytes_per_cycle", 4.0))
    model = CoreGEMMModel(nr=nr)
    res = model.cycles(mc=mc, kc=kc, n=n,
                       bandwidth_elements_per_cycle=max(bw_bytes / 8.0, 1e-3))
    return {
        "nr": nr,
        "n": n,
        "mc": mc,
        "kc": kc,
        "bandwidth_bytes_per_cycle": bw_bytes,
        "local_store_kbytes_per_pe": res.local_store_bytes_per_pe / 1024.0,
        "total_cycles": res.total_cycles,
        "utilization": res.utilization,
        "utilization_pct": 100.0 * res.utilization,
    }


def run_chip_gemm_onchip(params: Params) -> dict:
    """Evaluate the on-chip side of the multi-core GEMM model at one point.

    With ``onchip_bw_words_per_cycle`` unset, the model's *required*
    aggregate bandwidth for the blocking is used (the Fig. 4.2 operating
    point); with it set, the update runs bandwidth-limited (Fig. 4.3).
    """
    from repro.models.chip_model import ChipGEMMModel

    num_cores = int(params.get("num_cores", 8))
    nr = int(params.get("nr", 4))
    n = int(params.get("n", 1024))
    kc = int(params.get("kc", 128))
    mc = int(params.get("mc", kc))
    full_overlap = bool(params.get("full_overlap", False))
    frequency = float(params.get("frequency_ghz", 1.0))
    model = ChipGEMMModel(num_cores=num_cores, nr=nr)
    bw = params.get("onchip_bw_words_per_cycle")
    if bw is None:
        bw = model.onchip_bandwidth_words_per_cycle(mc, kc, n, full_overlap)
    res = model.cycles_onchip(mc, kc, n, float(bw), full_overlap)
    mem_words = model.onchip_memory_words(mc, kc, n, full_overlap)
    element_bytes = model.element_bytes
    return {
        "num_cores": num_cores,
        "nr": nr,
        "n": n,
        "mc": mc,
        "kc": kc,
        "full_overlap": full_overlap,
        "frequency_ghz": frequency,
        "onchip_bw_words_per_cycle": float(bw),
        "onchip_bandwidth_bytes_per_cycle": float(bw) * element_bytes,
        "onchip_memory_words": mem_words,
        "onchip_memory_mbytes": mem_words * element_bytes / 2 ** 20,
        "total_cycles": res.total_cycles,
        "peak_cycles": res.peak_cycles,
        "utilization": res.utilization,
        "utilization_pct": 100.0 * res.utilization,
        "gflops": res.gflops(frequency),
    }


def run_blas_point(params: Params) -> dict:
    """Evaluate the level-3 BLAS utilisation model at one design point."""
    from repro.models.blas_model import BlasCoreModel, Level3Operation

    operation = Level3Operation(str(params.get("operation", "gemm")).lower())
    nr = int(params.get("nr", 4))
    n = int(params.get("n", 512))
    kc = int(params.get("kc", 128))
    mc = int(params.get("mc", kc))
    bw_bytes = float(params.get("bandwidth_bytes_per_cycle", 4.0))
    full_overlap = bool(params.get("full_overlap", False))
    model = BlasCoreModel(nr=nr)
    res = model.utilization(operation, mc=mc, kc=kc, n=n,
                            bandwidth_elements_per_cycle=bw_bytes / 8.0,
                            full_overlap=full_overlap)
    return {
        "operation": operation.value,
        "nr": nr,
        "n": n,
        "mc": mc,
        "kc": kc,
        "bandwidth_bytes_per_cycle": bw_bytes,
        "bandwidth_elements_per_cycle": bw_bytes / 8.0,
        "local_store_kbytes_per_pe": res.local_store_kbytes_per_pe,
        "utilization": res.utilization,
        "utilization_pct": 100.0 * res.utilization,
    }


def run_fact_kernel(params: Params) -> dict:
    """Evaluate the factorization inner-kernel model at one configuration.

    The reference core area (for GFLOPS/mm^2) is derived inside the runner
    from the same precision / frequency / local-store parameters, so the
    whole row is a pure function of the job parameters and cache keys stay
    stable across calls.
    """
    from repro.arch.lap_design import build_pe
    from repro.hw.sfu import SFUPlacement
    from repro.models.fact_model import (FactorizationKernel,
                                         FactorizationKernelModel, MACExtension)

    precision = _precision(params)
    kernel = FactorizationKernel(str(params.get("kernel", "lu")).lower())
    k = int(params.get("k", 128))
    nr = int(params.get("nr", 4))
    placement = SFUPlacement(str(params.get("sfu", "isolate")).lower())
    extension = MACExtension(str(params.get("mac_extension", "none")).lower())
    frequency = float(params.get("frequency_ghz", 1.0))
    local_store = float(params.get("local_store_kbytes", 16.0))
    model = FactorizationKernelModel(nr=nr, precision=precision,
                                     frequency_ghz=frequency,
                                     local_store_kbytes_per_pe=local_store)
    core_area = nr * nr * build_pe(precision, frequency, local_store).area_mm2
    res = model.evaluate(kernel, k, placement, extension)
    eff = model.efficiency(res, core_area)
    return {
        "kernel": kernel.value,
        "k": k,
        "nr": nr,
        "sfu": placement.value,
        "mac_extension": extension.value,
        "precision": precision.value,
        "frequency_ghz": frequency,
        "core_area_mm2": core_area,
        "cycles": res.cycles,
        "useful_flops": res.useful_flops,
        "utilization": res.utilization,
        "gflops": eff.gflops,
        "gflops_per_w": eff.gflops_per_watt,
        "gflops_per_mm2": eff.gflops_per_mm2,
        "inverse_energy_delay": eff.inverse_energy_delay,
    }


def run_lap_runtime(params: Params) -> dict:
    """Schedule one blocked algorithm through the LAP runtime simulator.

    Decomposes an ``n x n`` problem into ``tile x tile`` tasks with the
    algorithms-by-blocks library (GEMM, Cholesky, tiled LU or tiled QR),
    executes the task graph on the cores of a cycle-level LAP under the
    requested scheduling policy and timing model, and reports makespan /
    load-balance / graph analytics / correctness.

    ``policy`` selects the scheduler (greedy / critical_path / locality /
    memory_aware), ``timing`` the timing model (functional / memoized),
    ``verify`` keeps the tile data exact under memoized timing (residual
    available), and ``core_frequencies_ghz`` accepts per-core clocks for
    heterogeneous-tile studies: a sequence, a single number (applied to
    every core), or a delimited string -- ``"1.0,2.0"`` or ``"1.0:2.0"``
    (the colon form survives the sweep CLI's comma-separated axis syntax,
    e.g. ``--set core_frequencies_ghz=1.0:2.0``).

    Data movement is simulated through the runtime's memory-hierarchy layer
    (``memory=False`` disables it): ``on_chip_kb`` constrains the tile
    working set below the chip's physical on-chip memory and
    ``bandwidth_gbs`` overrides the sustained off-chip bandwidth; rows gain
    traffic / spill / stall / energy / GFLOPS-per-W columns.

    ``local_store_kb`` enables the two-level hierarchy (a per-core local
    store above the shared on-chip level); rows then additionally split the
    on-chip movement into local-hit / shared-to-local / core-to-core bytes
    and report the local hit rate and transfer cycles.  ``stall_overlap``
    exposes the prefetch-overlap fraction (0 = data-movement cycles fully
    serialised, 1 = fully hidden) as a sweep axis.  Both columns appear
    only when their parameter is given, so existing single-level rows stay
    byte-identical.

    ``frequency_ghz`` sets the chip clock (all cores, default 1.0) and
    ``offchip_pj_per_byte`` overrides the DRAM interface's access energy
    in pJ/byte; both appear as gated row columns only when given, so
    existing rows stay byte-identical.

    Scheduling runs the one scheduler loop of :mod:`repro.lap.fastpath`
    (see :meth:`repro.lap.runtime.LAPRuntime.execute`).  Delta sweeps are
    costed by schedule replay: every simulated point records a
    :class:`repro.lap.fastpath.ScheduleTrace`, and a later point that
    differs only in constants which provably cannot change the schedule
    reuses the recorded row with the affected columns re-keyed:
    ``bandwidth_gbs`` / ``stall_overlap`` deltas (zero spill traffic,
    zero visible movement cycles) patch those columns alone, a
    ``frequency_ghz`` delta (homogeneous cores both sides, zero spill)
    rescales ``makespan_ns`` from the recorded cycle count, and a
    frequency or ``offchip_pj_per_byte`` delta re-keys ``energy_j`` /
    ``gflops_per_w`` from the trace's per-task energy triples; anything
    else re-simulates.
    """
    import numpy as np

    from repro.lap.chip import LAPConfig, LinearAlgebraProcessor
    from repro.lap.fastpath import REPLAY_STATS
    from repro.lap.policies import GEMMScheduler
    from repro.lap.runtime import LAPRuntime
    from repro.lap.taskgraph import AlgorithmsByBlocks

    algorithm = str(params.get("algorithm", "gemm")).lower()
    if algorithm not in AlgorithmsByBlocks.WORKLOADS:
        raise ValueError(f"unknown lap_runtime algorithm '{algorithm}' "
                         f"(use one of {', '.join(AlgorithmsByBlocks.WORKLOADS)})")
    n = int(params.get("n", 16))
    tile = int(params.get("tile", 8))
    num_cores = int(params.get("num_cores", 2))
    nr = int(params.get("nr", 4))
    onchip_mbytes = float(params.get("onchip_mbytes", 1.0))
    seed = int(params.get("seed", 0))
    policy = str(params.get("policy", "greedy"))
    timing = str(params.get("timing", "functional"))
    verify = bool(params.get("verify", True))
    memory = bool(params.get("memory", True))
    on_chip_kb = params.get("on_chip_kb")
    on_chip_kb = None if on_chip_kb is None else float(on_chip_kb)
    bandwidth_gbs = params.get("bandwidth_gbs")
    bandwidth_gbs = None if bandwidth_gbs is None else float(bandwidth_gbs)
    local_store_kb = params.get("local_store_kb")
    local_store_kb = None if local_store_kb is None else float(local_store_kb)
    stall_overlap = params.get("stall_overlap")
    stall_overlap = None if stall_overlap is None else float(stall_overlap)
    frequency_ghz = params.get("frequency_ghz")
    frequency_ghz = None if frequency_ghz is None else float(frequency_ghz)
    if frequency_ghz is not None and frequency_ghz <= 0:
        raise ValueError("frequency_ghz must be positive")
    offchip_pj = params.get("offchip_pj_per_byte")
    offchip_pj = None if offchip_pj is None else float(offchip_pj)
    if offchip_pj is not None and offchip_pj < 0:
        raise ValueError("offchip_pj_per_byte must be non-negative")
    frequencies_param = params.get("core_frequencies_ghz")
    if frequencies_param is None:
        frequencies = None
    elif isinstance(frequencies_param, str):
        parts = [p for p in frequencies_param.replace(":", ",").split(",")
                 if p.strip()]
        frequencies = [float(p) for p in parts]
        if len(frequencies) == 1:
            frequencies = frequencies * num_cores
    elif isinstance(frequencies_param, (list, tuple)):
        frequencies = [float(f) for f in frequencies_param]
    else:
        frequencies = [float(frequencies_param)] * num_cores
    structural_key = (algorithm, n, tile, num_cores, nr, onchip_mbytes, seed,
                      policy, timing, verify, memory, on_chip_kb,
                      local_store_kb,
                      None if frequencies is None else tuple(frequencies))
    cached = _REPLAY_MEMO.get(structural_key)
    if cached is None:
        # Cross-process warm path: another worker (or an earlier run)
        # may have published this schedule to the cache's replay sidecar.
        cached = _load_replay_from_sidecar(structural_key)
    if cached is not None:
        trace, cached_row = cached
        effective_bw = (None if not memory
                        else (bandwidth_gbs if bandwidth_gbs is not None
                              else trace.default_bandwidth_gbs))
        new_freq = 1.0 if frequency_ghz is None else frequency_ghz
        new_homog = (frequencies is None
                     or all(f == new_freq for f in frequencies))
        new_epoff = (None if not memory
                     else (offchip_pj * 1e-12 if offchip_pj is not None
                           else trace.default_offchip_energy_per_byte_j))
        if trace.exact_for(effective_bw,
                           0.0 if stall_overlap is None else stall_overlap,
                           frequency_ghz=new_freq,
                           homogeneous_cores=new_homog,
                           offchip_energy_per_byte_j=new_epoff):
            REPLAY_STATS["replayed"] += 1
            freq_delta = new_freq != trace.frequency_ghz
            makespan_ns = (trace.makespan_cycles / new_freq
                           if freq_delta else None)
            energy_j = gflops_per_w = None
            if memory and trace.energy_constants is not None:
                epf, epon, epoff = trace.energy_constants
                if freq_delta or new_epoff != epoff:
                    if freq_delta:
                        # The per-flop and per-on-chip-byte constants follow
                        # the chip's operating point, so rebuild them at the
                        # new clock before re-keying.
                        from repro.lap.memory import TaskEnergyModel
                        lap2 = LinearAlgebraProcessor(LAPConfig(
                            num_cores=num_cores, nr=nr,
                            onchip_memory_mbytes=onchip_mbytes,
                            frequency_ghz=new_freq))
                        em = TaskEnergyModel(lap2.config.fmac(),
                                             lap2.onchip_memory,
                                             lap2.offchip)
                        epf = em.energy_per_flop_j
                        epon = em.onchip_energy_per_byte_j
                    energy_j = trace.rekey_energy_j(epf, epon, new_epoff)
                    flops = float(cached_row["total_flops"])
                    gflops_per_w = (flops / energy_j / 1e9
                                    if energy_j > 0 else 0.0)
            return _replayed_row(cached_row, stall_overlap, effective_bw,
                                 memory, frequency_ghz=frequency_ghz,
                                 offchip_pj_per_byte=offchip_pj,
                                 makespan_ns=makespan_ns,
                                 energy_j=energy_j,
                                 gflops_per_w=gflops_per_w)
        REPLAY_STATS["forced"] += 1
    lap = LinearAlgebraProcessor(LAPConfig(
        num_cores=num_cores, nr=nr, onchip_memory_mbytes=onchip_mbytes,
        frequency_ghz=1.0 if frequency_ghz is None else frequency_ghz))
    runtime = LAPRuntime(lap, tile, policy=policy, timing=timing,
                         core_frequencies_ghz=frequencies, memory=memory,
                         on_chip_kb=on_chip_kb, bandwidth_gbs=bandwidth_gbs,
                         local_store_kb=local_store_kb,
                         stall_overlap=0.0 if stall_overlap is None
                         else stall_overlap,
                         offchip_pj_per_byte=offchip_pj)
    rng = np.random.default_rng(seed)
    stats = runtime.run_workload(algorithm, n, rng, verify=verify)
    if algorithm == "gemm":
        # The panel-blocking scheduler's static distribution only describes
        # GEMM row panels; a factorization's shrinking trailing matrix has
        # no such static assignment, so the metric is null otherwise.
        scheduler = GEMMScheduler(num_cores=num_cores, nr=nr)
        static_balance = float(scheduler.load_balance(scheduler.assign_panels(n, tile)))
    else:
        static_balance = None
    busy = stats["per_core_busy_cycles"]
    graph = stats["graph"]
    residual = stats["residual"]
    row = {
        "algorithm": algorithm,
        "n": n,
        "tile": tile,
        "num_cores": num_cores,
        "nr": nr,
        "seed": seed,
        "policy": policy,
        "timing": timing,
        "verify": verify,
        "core_frequencies_ghz": (",".join(f"{f:g}" for f in frequencies)
                                 if frequencies else None),
    }
    if frequency_ghz is not None:
        row["frequency_ghz"] = frequency_ghz
    row.update({
        "tasks_executed": int(stats["tasks_executed"]),
        "critical_path_tasks": int(graph["critical_path_tasks"]),
        "graph_width": int(graph["width"]),
        "graph_levels": int(graph["num_levels"]),
        "makespan_cycles": int(round(stats["makespan_cycles"])),
        "makespan_ns": float(stats["makespan_ns"]),
        "total_busy_cycles": int(sum(busy)),
        "max_core_busy_cycles": int(max(busy)),
        "min_core_busy_cycles": int(min(busy)),
        "parallel_efficiency": float(stats["parallel_efficiency"]),
        "static_load_balance": static_balance,
        "residual": None if residual is None else float(residual),
        "memory": memory,
    })
    if stall_overlap is not None:
        row["stall_overlap"] = stall_overlap
    if memory:
        row.update({
            "on_chip_kb": float(stats["on_chip_capacity_bytes"]) / 1024.0,
            "bandwidth_gbs": float(stats["bandwidth_gbs"]),
        })
        if offchip_pj is not None:
            row["offchip_pj_per_byte"] = offchip_pj
        row.update({
            "traffic_bytes": int(round(stats["offchip_traffic_bytes"])),
            "compulsory_bytes": int(round(stats["compulsory_bytes"])),
            "spill_bytes": int(round(stats["spill_bytes"])),
            "writeback_bytes": int(round(stats["writeback_bytes"])),
            "stall_cycles": float(stats["stall_cycles"]),
            "energy_j": float(stats["energy_j"]),
            "total_flops": float(stats["total_flops"]),
            "arithmetic_intensity": float(stats["arithmetic_intensity"]),
            "gflops_per_w": float(stats["gflops_per_w"]),
            "peak_resident_kb": float(stats["peak_resident_bytes"]) / 1024.0,
        })
        if local_store_kb is not None:
            row.update({
                "local_store_kb": float(stats["local_store_kb"]),
                "local_hit_bytes": int(round(stats["local_hit_bytes"])),
                "shared_to_local_bytes": int(round(stats["shared_to_local_bytes"])),
                "c2c_bytes": int(round(stats["c2c_bytes"])),
                "local_hit_rate": float(stats["local_hit_rate"]),
                "local_transfer_cycles": float(stats["local_transfer_cycles"]),
                "peak_local_resident_kb": (
                    float(stats["peak_local_resident_bytes"]) / 1024.0),
            })
    trace = runtime.schedule_trace()
    _memoize_replay(structural_key, trace, dict(row))
    REPLAY_STATS["recorded"] += 1
    _store_replay_to_sidecar(structural_key, trace, dict(row))
    return row


def run_blocked_factorization(params: Params) -> dict:
    """Run one blocked factorization end to end on the LAC simulator.

    Executes blocked Cholesky / LU (partial pivoting) / Householder QR on a
    seeded ``n x n`` operand, verifies the factors against the input and
    reports the simulator counters next to the analytical panel-model cycle
    estimate of :class:`repro.models.fact_model.FactorizationKernelModel`.
    """
    import numpy as np

    from repro.hw.sfu import SFUPlacement
    from repro.kernels.blocked_factorizations import (lac_cholesky_blocked,
                                                      lac_lu_blocked,
                                                      lac_qr_blocked,
                                                      lu_blocked_reconstruct,
                                                      qr_blocked_q)
    from repro.lac import LACConfig, LinearAlgebraCore
    from repro.models.fact_model import (FactorizationKernel,
                                         FactorizationKernelModel, MACExtension)

    method = str(params.get("method", "lu")).lower()
    n = int(params.get("n", 8))
    nr = int(params.get("nr", 4))
    seed = int(params.get("seed", 0))
    use_extension = bool(params.get("use_extension", True))
    frequency = float(params.get("frequency_ghz", 1.0))
    core = LinearAlgebraCore(LACConfig(nr=nr, frequency_ghz=frequency))
    rng = np.random.default_rng(seed)
    model = FactorizationKernelModel(nr=nr, frequency_ghz=frequency)

    if method == "cholesky":
        g = rng.random((n, n))
        a = g @ g.T + n * np.eye(n)
        result = lac_cholesky_blocked(core, a)
        factor = result.output
        residual = float(np.max(np.abs(factor @ factor.T - a)))
        model_cycles = model.cholesky_cycles(SFUPlacement.ISOLATED)
        model_kernel = FactorizationKernel.CHOLESKY
    elif method == "lu":
        a = rng.random((n, n))
        result = lac_lu_blocked(core, a, use_comparator_extension=use_extension)
        lower, upper = lu_blocked_reconstruct(result.output)
        permuted = a[result.extra["permutation"]]
        residual = float(np.max(np.abs(permuted - lower @ upper)))
        model_cycles = model.lu_panel_cycles(
            n, SFUPlacement.ISOLATED,
            MACExtension.COMPARATOR if use_extension else MACExtension.NONE)
        model_kernel = FactorizationKernel.LU
    elif method == "qr":
        a = rng.random((n, n))
        result = lac_qr_blocked(core, a, use_exponent_extension=use_extension)
        q = qr_blocked_q(result.output, result.extra["tau"])
        r = np.triu(result.output)
        residual = float(np.max(np.abs(q @ r - a)))
        model_cycles = model.qr_panel_cycles(
            n, SFUPlacement.ISOLATED,
            MACExtension.EXPONENT if use_extension else MACExtension.NONE)
        model_kernel = FactorizationKernel.QR_HOUSEHOLDER
    else:
        raise ValueError(f"unknown blocked_fact method '{method}' "
                         f"(use 'cholesky', 'lu' or 'qr')")
    return {
        "method": method,
        "model_kernel": model_kernel.value,
        "n": n,
        "nr": nr,
        "seed": seed,
        "use_extension": use_extension,
        "frequency_ghz": frequency,
        "cycles": int(result.cycles),
        "mac_ops": int(result.counters.mac_ops),
        "flops": int(result.flops),
        "utilization": float(result.utilization),
        "gflops": float(result.gflops(frequency)),
        "residual": residual,
        "model_panel_cycles": float(model_cycles),
    }


def run_registry_experiment(params: Params) -> dict:
    """Regenerate one registered experiment (table / figure data series)."""
    # Imported lazily: the registry imports the figure generators, which in
    # turn import this engine, so a module-level import would be circular.
    from repro.experiments.registry import get_experiment

    exp_id = str(params["exp_id"])
    experiment = get_experiment(exp_id)
    data = experiment.run()
    num_rows = len(data) if isinstance(data, (Mapping, list, tuple)) else 1
    return {
        "exp_id": exp_id,
        "kind": experiment.kind,
        "source": experiment.source,
        "num_rows": num_rows,
        "data": data,
    }


RUNNERS: Dict[str, Callable[[Params], dict]] = {
    "design": run_design_point,
    "pe": run_pe_point,
    "simulate": run_kernel_simulation,
    "chip_gemm": run_chip_gemm,
    "chip_gemm_onchip": run_chip_gemm_onchip,
    "core_gemm": run_core_gemm,
    "blas": run_blas_point,
    "fact_kernel": run_fact_kernel,
    "lap_runtime": run_lap_runtime,
    "blocked_fact": run_blocked_factorization,
    "experiment": run_registry_experiment,
}

#: Default Pareto objectives per runner (used by the ``sweep`` CLI when the
#: user does not pass ``--objectives``).
PARETO_OBJECTIVES: Dict[str, Tuple[str, ...]] = {
    "design": DEFAULT_OBJECTIVES,
    "pe": ("gflops_per_w", "gflops_per_mm2"),
    "simulate": ("gflops", "utilization"),
    "chip_gemm": ("gflops", "utilization_pct"),
    "chip_gemm_onchip": ("utilization_pct",),
    "core_gemm": ("utilization_pct",),
    "blas": ("utilization_pct",),
    "fact_kernel": ("gflops_per_w", "gflops_per_mm2"),
    "lap_runtime": ("parallel_efficiency",),
    "blocked_fact": ("gflops", "utilization"),
    "experiment": (),
}


def runner_names() -> List[str]:
    """Names accepted by ``Job.runner`` / the ``sweep`` CLI."""
    return list(RUNNERS)


def get_runner(name: str) -> Callable[[Params], dict]:
    """Look up one runner by name."""
    try:
        return RUNNERS[name]
    except KeyError:
        raise KeyError(f"unknown runner '{name}'; known runners: "
                       f"{sorted(RUNNERS)}") from None


def code_fingerprint() -> str:
    """Cache namespace combining the package and runner versions."""
    from repro import __version__

    versions = ",".join(f"{name}=v{RUNNER_VERSIONS[name]}"
                        for name in sorted(RUNNER_VERSIONS))
    return f"repro-{__version__};{versions}"
