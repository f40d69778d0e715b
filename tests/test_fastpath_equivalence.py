"""Byte-identical equivalence of the scheduler loop against the oracle.

``LAPRuntime.execute`` runs the inlined loop of :mod:`repro.lap.fastpath`;
``tests/oracle/`` keeps the reference event loop (policy hooks called per
task, ``OrderedDict`` residency levels, per-task tracer calls).  The two
must produce *exactly* the same rows -- same stats dict, same
:class:`TaskExecution` records field by field (values and Python types),
same cycle attribution, same schedule trace and energy triples, same
tracer spans and counters -- or downstream sweeps silently fork.  This
suite pins that contract:

* the full matrix of all four algorithms-by-blocks workloads x all five
  scheduling policies x {single-level, two-level} hierarchies under
  constrained capacity (spills, stalls and writebacks exercised);
* tracer output over the five policies x {single-level, two-level} x
  {memory on, memory off};
* the SoA batch kernels (CSR ``missing_bytes`` / resident-footprint
  scoring) against their scalar forms on random residency states;
* the specialized greedy single-level loop (the million-task path) and its
  lazily-built execution records;
* verify=True (numerically exact tiles) and heterogeneous-frequency /
  prefetch-overlap variants that take the generic loop;
* the ``lap_runtime`` runner rows against the committed PR-4/PR-5 goldens
  on both loops, and replayed delta-sweep rows against re-simulation.
"""

import dataclasses
import json
import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracle import ReferenceRuntime, reference_loop
from repro.engine.runners import _REPLAY_MEMO, configure_worker, get_runner
from repro.lap.chip import LAPConfig, LinearAlgebraProcessor
from repro.lap.runtime import LAPRuntime
from repro.lap.taskgraph import AlgorithmsByBlocks
from repro.obs import Tracer

TILE = 8
SIZES = {"cholesky": 40, "gemm": 32, "lu": 40, "qr": 32}
POLICIES = ["greedy", "critical_path", "locality", "memory_aware", "affinity"]
#: local_store_kb=None is the single-level hierarchy, 1.0 the two-level one.
LEVELS = [None, 1.0]

GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "goldens"


def simulate(runner, params):
    """Run a ``lap_runtime`` point with nothing to replay from (an empty
    in-process memo, no sidecar), so the row comes from a fresh schedule."""
    _REPLAY_MEMO.clear()
    configure_worker(None)
    return runner(dict(params))


def make_runtime(production, policy="greedy", local_store_kb=None,
                 timing="memoized", on_chip_kb=3.0, bandwidth_gbs=16.0,
                 stall_overlap=0.0, frequencies=None, num_cores=4, memory=True,
                 tracer=None):
    """A production runtime (``production=True``) or an oracle one."""
    lap = LinearAlgebraProcessor(LAPConfig(num_cores=num_cores, nr=4,
                                           onchip_memory_mbytes=1.0))
    cls = LAPRuntime if production else ReferenceRuntime
    return cls(lap, TILE, policy=policy, timing=timing, memory=memory,
               on_chip_kb=on_chip_kb, bandwidth_gbs=bandwidth_gbs,
               local_store_kb=local_store_kb, stall_overlap=stall_overlap,
               core_frequencies_ghz=frequencies, tracer=tracer)


def make_tiles(nb=6):
    """Operand tile dicts: identity-like blocks keep every kernel exact
    (SPD and diagonally dominant), shared across operands (tasks only read
    shapes under memoized timing after the per-signature warm-up)."""
    block = np.eye(TILE) * TILE
    blocks = {(i, j): block.copy() for i in range(nb) for j in range(nb)}
    return {name: {k: v.copy() for k, v in blocks.items()}
            for name in ("A", "B", "C", "L")}


def assert_stats_identical(ref, fast):
    assert set(ref) == set(fast)
    for key in sorted(ref):
        rv, fv = ref[key], fast[key]
        assert type(rv) is type(fv), f"{key}: {type(rv)} vs {type(fv)}"
        assert rv == fv, f"{key}: {rv!r} != {fv!r}"


def assert_executions_identical(ref_rt, fast_rt):
    ref_rows, fast_rows = ref_rt.executions, fast_rt.executions
    assert len(ref_rows) == len(fast_rows)
    fields = [f.name for f in dataclasses.fields(ref_rows[0])]
    for a, b in zip(ref_rows, fast_rows):
        for name in fields:
            rv, fv = getattr(a, name), getattr(b, name)
            assert type(rv) is type(fv), f"{name}: {type(rv)} vs {type(fv)}"
            assert rv == fv, f"task {a.task_id} {name}: {rv!r} != {fv!r}"


def assert_runs_identical(ref_rt, fast_rt, graph, verify=False):
    ref_stats = ref_rt.execute(graph, make_tiles(), verify=verify)
    fast_stats = fast_rt.execute(graph, make_tiles(), verify=verify)
    assert_stats_identical(ref_stats, fast_stats)
    assert_executions_identical(ref_rt, fast_rt)
    ref_att, fast_att = ref_rt.attribution(), fast_rt.attribution()
    assert ref_att.as_dict() == fast_att.as_dict()
    fast_att.check()
    ref_trace, fast_trace = ref_rt.schedule_trace(), fast_rt.schedule_trace()
    # Every header field (what the replay decision reads), by value and type.
    ref_header = json.dumps(ref_trace.to_payload())
    assert ref_header == json.dumps(fast_trace.to_payload())
    assert ref_trace.energy_triples() == fast_trace.energy_triples()
    if ref_trace.energy_constants is not None:
        # Both paths' per-task energy triples must re-key the energy column
        # bit for bit at the recorded constants -- the identity every replay
        # delta builds on.
        expected = ref_stats["energy_j"]
        assert ref_trace.rekey_energy_j(*ref_trace.energy_constants) == expected
        assert (fast_trace.rekey_energy_j(*fast_trace.energy_constants)
                == expected)
        # The triples the production trace derives from its rows equal the
        # oracle's per-task memory events.
        assert (fast_trace.energy_triples()
                == ref_rt.last_memory.energy_triples())
    return ref_stats


# ------------------------------------------------- full workload x policy matrix
@pytest.mark.parametrize("algorithm", sorted(SIZES))
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("local_store_kb", LEVELS)
def test_fast_matches_reference(algorithm, policy, local_store_kb):
    graph = AlgorithmsByBlocks(TILE).build(algorithm, SIZES[algorithm])
    ref_rt = make_runtime(False, policy=policy, local_store_kb=local_store_kb)
    fast_rt = make_runtime(True, policy=policy, local_store_kb=local_store_kb)
    stats = assert_runs_identical(ref_rt, fast_rt, graph)
    # The constrained capacity must actually exercise the eviction machinery,
    # otherwise the matrix pins only the trivially-resident regime.
    assert stats["spill_bytes"] > 0


def test_specialized_greedy_loop_and_lazy_rows():
    """Greedy + single-level + memoized + homogeneous takes the specialized
    loop (lazily materialised execution records) and is still identical."""
    graph = AlgorithmsByBlocks(TILE).cholesky_tasks(48)
    ref_rt = make_runtime(False)
    fast_rt = make_runtime(True)
    assert_runs_identical(ref_rt, fast_rt, graph)
    # The specialized loop defers row construction to a builder closure.
    assert fast_rt._exec_build is not None
    fast_rt.executions  # materialise -- covered field-by-field above


def test_verify_true_keeps_tiles_exact_and_identical():
    graph = AlgorithmsByBlocks(TILE).cholesky_tasks(40)
    ref_rt = make_runtime(False, local_store_kb=1.0)
    fast_rt = make_runtime(True, local_store_kb=1.0)
    assert_runs_identical(ref_rt, fast_rt, graph, verify=True)


def test_generic_fast_loop_variants_identical():
    """Heterogeneous clocks / prefetch overlap / disabled memory all route
    through the generic loop; each stays byte-identical."""
    graph = AlgorithmsByBlocks(TILE).cholesky_tasks(40)
    for kwargs in ({"frequencies": [1.0, 2.0, 1.0, 2.0]},
                   {"stall_overlap": 0.5, "local_store_kb": 1.0},
                   {"memory": False},
                   {"timing": "functional", "on_chip_kb": None}):
        ref_rt = make_runtime(False, **kwargs)
        fast_rt = make_runtime(True, **kwargs)
        assert_runs_identical(ref_rt, fast_rt, graph)


# ----------------------------------------------------------------- tracer
def _tracer_dump(tracer):
    """Everything a tracer recorded, as JSON text (so float-vs-int drift in
    any span arg or counter sample shows up as a difference)."""
    spans = [[s.name, s.track, s.start, s.end, s.category, s.args]
             for s in tracer.spans]
    counters = {name: counter.series
                for name, counter in sorted(tracer.counters.items())}
    return json.dumps({"spans": spans, "counters": counters})


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("local_store_kb", LEVELS)
@pytest.mark.parametrize("memory", [True, False])
def test_tracer_output_matches_reference(policy, local_store_kb, memory):
    """Spans (names, tracks, times, args), the spill/stall counter series
    and the idle spans the scheduler loop emits after the run equal what the
    oracle loop emits task by task."""
    graph = AlgorithmsByBlocks(TILE).cholesky_tasks(40)
    ref_tracer, fast_tracer = Tracer(), Tracer()
    ref_rt = make_runtime(False, policy=policy, local_store_kb=local_store_kb,
                          memory=memory, tracer=ref_tracer)
    fast_rt = make_runtime(True, policy=policy, local_store_kb=local_store_kb,
                           memory=memory, tracer=fast_tracer)
    ref_rt.execute(graph, make_tiles(), verify=False)
    fast_rt.execute(graph, make_tiles(), verify=False)
    assert _tracer_dump(fast_tracer) == _tracer_dump(ref_tracer)
    tasks = [s for s in fast_tracer.spans if s.category == "task"]
    assert len(tasks) == len(graph)
    assert any(s.category == "idle" for s in fast_tracer.spans)
    if not memory:
        assert not fast_tracer.counters
        return
    # Capacity is constrained: stalls (and, two-level, core-to-core copies)
    # must actually occur for the comparison to cover them.
    assert fast_tracer.counter("stall_cycles").value > 0
    assert any("spill_refill_bytes" in s.args for s in tasks)
    if local_store_kb is not None:
        assert any("c2c_bytes" in s.args for s in tasks)


# ---------------------------------------------------------------- goldens
#: The committed PR-4 golden cases (kept in sync with
#: tests/test_lap_memory.py::GOLDEN_CASES); the scheduler loop must reproduce
#: the golden rows -- not merely match a fresh oracle run.
MEMORY_GOLDEN_CASES = [
    {"algorithm": "cholesky", "n": 48, "tile": 8, "num_cores": 2, "nr": 4,
     "seed": 0, "timing": "memoized", "verify": False},
    {"algorithm": "cholesky", "n": 48, "tile": 8, "num_cores": 2, "nr": 4,
     "seed": 0, "timing": "memoized", "verify": False, "on_chip_kb": 4.0},
    {"algorithm": "cholesky", "n": 48, "tile": 8, "num_cores": 2, "nr": 4,
     "seed": 0, "timing": "memoized", "verify": False, "on_chip_kb": 4.0,
     "policy": "memory_aware"},
    {"algorithm": "gemm", "n": 32, "tile": 8, "num_cores": 2, "nr": 4,
     "seed": 0, "timing": "memoized", "verify": False, "on_chip_kb": 6.0},
    {"algorithm": "lu", "n": 40, "tile": 8, "num_cores": 2, "nr": 4,
     "seed": 0, "timing": "memoized", "verify": False, "on_chip_kb": 6.0,
     "policy": "memory_aware"},
    {"algorithm": "qr", "n": 32, "tile": 8, "num_cores": 1, "nr": 4,
     "seed": 0, "timing": "memoized", "verify": False, "bandwidth_gbs": 16.0,
     "on_chip_kb": 4.0},
]


def test_runner_fast_rows_match_memory_goldens():
    """`lap_runtime` rows reproduce the committed golden sweep (and equal
    the oracle loop's rows exactly, not just to tolerance)."""
    golden = json.loads(
        (GOLDEN_DIR / "runtime" / "lap_runtime_memory.json").read_text())
    runner = get_runner("lap_runtime")
    assert len(golden) == len(MEMORY_GOLDEN_CASES)
    for case, expected in zip(MEMORY_GOLDEN_CASES, golden):
        with reference_loop():
            ref_row = runner(dict(case))
        fast_row = simulate(runner, case)
        assert list(ref_row) == list(fast_row)
        assert ref_row == fast_row
        assert set(fast_row) == set(expected)
        for key, value in expected.items():
            if isinstance(value, float):
                assert fast_row[key] == pytest.approx(value, rel=1e-6,
                                                      abs=1e-15), key
            else:
                assert fast_row[key] == value, key


def test_runner_policy_golden_rows_survive_fast():
    """The PR-3 policy-comparison golden (makespans per policy/core count)
    is reproduced by the scheduler loop, in rows equal to the oracle's."""
    golden = json.loads((GOLDEN_DIR / "runtime_policies.json").read_text())
    runner = get_runner("lap_runtime")
    for row in golden[:6]:
        params = {"algorithm": "cholesky", "n": row["n"], "tile": row["tile"],
                  "num_cores": row["num_cores"], "nr": 4, "seed": 0,
                  "timing": "memoized", "verify": False,
                  "policy": row["policy"]}
        fast_row = simulate(runner, params)
        with reference_loop():
            assert runner(dict(params)) == fast_row
        assert fast_row["makespan_cycles"] == row["makespan_cycles"]
        assert fast_row["tasks_executed"] == row["tasks"]


# ------------------------------------------ SoA batch kernels vs scalar oracle
TILE_BYTES = TILE * TILE * 8


def _tile_names(ids):
    return [("T", int(i)) for i in ids]


@st.composite
def residency_cases(draw):
    """A random residency state plus a random CSR batch of footprints."""
    ntiles = draw(st.integers(min_value=1, max_value=24))
    touches = draw(st.lists(
        st.lists(st.integers(0, ntiles - 1), min_size=1, max_size=6,
                 unique=True), min_size=0, max_size=12))
    foots = draw(st.lists(
        st.lists(st.integers(0, ntiles - 1), min_size=0, max_size=8,
                 unique=True), min_size=1, max_size=10))
    capacity_tiles = draw(st.integers(min_value=1, max_value=ntiles + 2))
    return ntiles, touches, foots, capacity_tiles


def _csr_batch(foots, interner, ntiles):
    """Intern every tile, then lay the footprints out as one CSR batch."""
    ids = [interner.intern(name) for name in _tile_names(range(ntiles))]
    indptr = np.zeros(len(foots) + 1, dtype=np.int64)
    np.cumsum([len(f) for f in foots], out=indptr[1:])
    indices = np.fromiter((ids[i] for f in foots for i in f),
                          dtype=np.int64, count=int(indptr[-1]))
    return indptr, indices


@given(residency_cases())
@settings(max_examples=60, deadline=None)
def test_residency_missing_bytes_batch_matches_scalar(case):
    from repro.lap.fastpath import FastTileResidency

    ntiles, touches, foots, cap = case
    res = FastTileResidency(cap * TILE_BYTES, TILE_BYTES)
    for foot in touches:
        res.touch(_tile_names(foot), [])
    indptr, indices = _csr_batch(foots, res._interner, ntiles)
    batch = res.missing_bytes_batch(indptr, indices)
    assert batch.tolist() == [res.missing_bytes(_tile_names(f))
                              for f in foots]


@given(residency_cases())
@settings(max_examples=60, deadline=None)
def test_local_store_batch_kernels_match_scalar(case):
    from repro.lap.fastpath import FastLocalStore

    ntiles, touches, foots, cap = case
    store = FastLocalStore(cap * TILE_BYTES, TILE_BYTES)
    for foot in touches:
        store.touch(_tile_names(foot))
    indptr, indices = _csr_batch(foots, store._interner, ntiles)
    missing = store.missing_bytes_batch(indptr, indices)
    held = store.resident_footprint_bytes_batch(indptr, indices)
    assert missing.tolist() == [store.missing_bytes(_tile_names(f))
                                for f in foots]
    assert held.tolist() == [store.resident_footprint_bytes(_tile_names(f))
                             for f in foots]
    # Complementarity on duplicate-free footprints.
    assert all(m + h == len(f) * TILE_BYTES
               for m, h, f in zip(missing, held, foots))


def test_bulk_priorities_match_scalar_keys():
    """`MemoryAware.bulk_priorities` reproduces the scalar priority keys
    (values and types) over a live SoA hierarchy, both hierarchies."""
    from repro.lap.policies import MemoryAware

    for local_store_kb in LEVELS:
        rt = make_runtime(True, policy="memory_aware",
                          local_store_kb=local_store_kb)
        graph = AlgorithmsByBlocks(TILE).cholesky_tasks(40)
        rt.execute(graph, make_tiles(), verify=False)
        arrays = graph.fast_arrays()
        memory = rt.last_memory
        policy = MemoryAware()
        policy.bind_memory(memory)
        indices = list(range(0, len(arrays.tasks), 3))
        ready = [float(i) for i in range(len(indices))]
        bulk = policy.bulk_priorities(arrays, memory, indices, ready)
        assert len(bulk) == len(indices)
        for pos, key, r in zip(indices, bulk, ready):
            scalar = policy.priority(arrays.tasks[pos], r)
            assert key == scalar
            assert all(type(a) is type(b) for a, b in zip(key, scalar))
        assert policy.bulk_priorities(arrays, memory, [], []) == []


# ----------------------------------------------------------------- replay
def test_schedule_trace_payload_roundtrip():
    """The sidecar header round-trips everything `exact_for` depends on."""
    import json

    from repro.lap.fastpath import ScheduleTrace

    trace = ScheduleTrace(stall_overlap=0.25, effective_bandwidth_gbs=12.5,
                          default_bandwidth_gbs=16.0,
                          total_spill_bytes=4096.0,
                          total_movement_cycles=0.0)
    payload = json.loads(json.dumps(trace.to_payload()))  # disk round-trip
    loaded = ScheduleTrace.from_payload(payload)
    assert loaded.to_payload() == trace.to_payload()
    for bandwidth in (None, 12.5, 64.0):
        for overlap in (0.25, 0.75):
            assert (loaded.exact_for(bandwidth, overlap)
                    == trace.exact_for(bandwidth, overlap))
    # None bandwidth (memory accounting disabled) survives the round trip.
    nomem = ScheduleTrace(stall_overlap=0.0, effective_bandwidth_gbs=None,
                          default_bandwidth_gbs=16.0, total_spill_bytes=0.0,
                          total_movement_cycles=0.0)
    again = ScheduleTrace.from_payload(
        json.loads(json.dumps(nomem.to_payload())))
    assert again.effective_bandwidth_gbs is None
    assert again.exact_for(32.0, 0.0)


def test_replay_delta_rows_equal_resimulation():
    """A bandwidth/overlap delta point replayed from a recorded schedule is
    byte-identical to re-simulating it, and replay refuses (re-simulates)
    when spills make the delta schedule-visible."""
    from repro.lap.fastpath import REPLAY_STATS

    runner = get_runner("lap_runtime")
    base = {"algorithm": "cholesky", "n": 48, "tile": 8, "num_cores": 2,
            "nr": 4, "seed": 11, "timing": "memoized", "verify": False}
    # Unconstrained capacity: zero spill traffic, so a bandwidth delta is
    # provably schedule-invariant and must be replayed.
    runner(dict(base))  # records the trace
    before = dict(REPLAY_STATS)
    replayed = runner({**base, "bandwidth_gbs": 64.0})
    assert REPLAY_STATS["replayed"] == before["replayed"] + 1
    resim = simulate(runner, {**base, "bandwidth_gbs": 64.0})
    assert replayed == resim
    # Constrained capacity: spills couple bandwidth to the schedule, so the
    # delta must force a re-simulation (and still agree with a fresh one).
    tight = {**base, "seed": 12, "on_chip_kb": 4.0}
    first = runner(dict(tight))
    assert first["spill_bytes"] > 0
    before = dict(REPLAY_STATS)
    forced = runner({**tight, "bandwidth_gbs": 64.0})
    assert REPLAY_STATS["forced"] == before["forced"] + 1
    assert forced == simulate(runner, {**tight, "bandwidth_gbs": 64.0})


def test_frequency_and_energy_replay_equal_resimulation():
    """Chip-clock and off-chip-energy delta points replayed from a recorded
    schedule are byte-identical (keys, order, values, types) to
    re-simulating them, across non-greedy policies and both hierarchies --
    including the re-keyed makespan_ns / energy_j / gflops_per_w columns."""
    from repro.lap.fastpath import REPLAY_STATS

    runner = get_runner("lap_runtime")
    for policy, local_store_kb in (("memory_aware", None), ("affinity", 1.0)):
        base = {"algorithm": "cholesky", "n": 48, "tile": 8, "num_cores": 2,
                "nr": 4, "seed": 21, "timing": "memoized", "verify": False,
                "policy": policy}
        if local_store_kb is not None:
            base["local_store_kb"] = local_store_kb
        runner(dict(base))  # records the trace
        for delta in ({"frequency_ghz": 2.0},
                      {"offchip_pj_per_byte": 30.0},
                      {"frequency_ghz": 0.5, "offchip_pj_per_byte": 120.0,
                       "bandwidth_gbs": 64.0}):
            before = dict(REPLAY_STATS)
            replayed = runner({**base, **delta})
            assert REPLAY_STATS["replayed"] == before["replayed"] + 1, delta
            resim = simulate(runner, {**base, **delta})
            simulate(runner, base)  # re-record the base for the next delta
            assert list(replayed) == list(resim), delta
            for key in resim:
                assert type(replayed[key]) is type(resim[key]), (delta, key)
                assert replayed[key] == resim[key], (delta, key)


def test_frequency_replay_rejections_force_resimulation():
    """Heterogeneous clocks and spill-coupled stalls both disqualify the
    frequency axis; the forced re-simulation still matches a fresh one."""
    from repro.lap.fastpath import REPLAY_STATS

    runner = get_runner("lap_runtime")
    base = {"algorithm": "cholesky", "n": 48, "tile": 8, "num_cores": 2,
            "nr": 4, "seed": 27, "timing": "memoized", "verify": False}
    # Heterogeneous per-core clocks (either side) reject the delta.
    het = {**base, "core_frequencies_ghz": "1.0:2.0"}
    runner(dict(het))
    before = dict(REPLAY_STATS)
    forced = runner({**het, "frequency_ghz": 2.0})
    assert REPLAY_STATS["forced"] == before["forced"] + 1
    assert forced == simulate(runner, {**het, "frequency_ghz": 2.0})
    # Spill traffic enters the cycle domain through clock-dependent stalls.
    tight = {**base, "seed": 28, "on_chip_kb": 4.0}
    first = runner(dict(tight))
    assert first["spill_bytes"] > 0
    before = dict(REPLAY_STATS)
    forced = runner({**tight, "frequency_ghz": 2.0})
    assert REPLAY_STATS["forced"] == before["forced"] + 1
    assert forced == simulate(runner, {**tight, "frequency_ghz": 2.0})


def test_exact_for_energy_and_frequency_gates(tmp_path):
    """`exact_for` widens only with full provenance: an energy-constant
    delta needs the recorded constants plus per-task triples, a frequency
    delta a known homogeneous recorded clock; header-only round trips
    (which drop the triples) reject every re-keying delta."""
    from repro.lap.fastpath import ScheduleTrace

    kw = dict(stall_overlap=0.0, effective_bandwidth_gbs=16.0,
              default_bandwidth_gbs=16.0, total_spill_bytes=0.0,
              total_movement_cycles=0.0)
    triples = [(10.0, 100.0, 50.0)]
    full = ScheduleTrace(**kw, makespan_cycles=100.0, frequency_ghz=1.0,
                         homogeneous_cores=True,
                         energy_constants=(1e-12, 2e-12, 60e-12),
                         flush_writeback_bytes=64.0, energy_triples=triples)
    # Unchanged constants replay without re-keying; a changed off-chip
    # constant or clock is exact only because the triples allow re-keying.
    assert full.exact_for(16.0, 0.0, frequency_ghz=1.0,
                          offchip_energy_per_byte_j=60e-12)
    assert full.exact_for(16.0, 0.0, offchip_energy_per_byte_j=30e-12)
    assert full.exact_for(16.0, 0.0, frequency_ghz=2.0)
    assert full.rekey_energy_j(2e-12, 1e-12, 30e-12) == (
        (10.0 * 2e-12 + 100.0 * 1e-12) + 50.0 * 30e-12 + 64.0 * 30e-12)
    # Heterogeneity on either side rejects the frequency axis.
    assert not full.exact_for(16.0, 0.0, frequency_ghz=2.0,
                              homogeneous_cores=False)
    het = ScheduleTrace(**kw, frequency_ghz=1.0, homogeneous_cores=False,
                        energy_constants=(1e-12, 2e-12, 60e-12),
                        energy_triples=triples)
    assert not het.exact_for(16.0, 0.0, frequency_ghz=2.0)
    # The sidecar header drops the triples: the same deltas now reject,
    # re-keying raises, and the unchanged point still replays.
    header = ScheduleTrace.from_payload(full.to_payload())
    assert not header.has_energy_triples
    assert header.exact_for(16.0, 0.0, frequency_ghz=1.0,
                            offchip_energy_per_byte_j=60e-12)
    assert not header.exact_for(16.0, 0.0, offchip_energy_per_byte_j=30e-12)
    assert not header.exact_for(16.0, 0.0, frequency_ghz=2.0)
    with pytest.raises(ValueError):
        header.rekey_energy_j(1e-12, 2e-12, 60e-12)
    # No recorded constants at all: any energy check rejects outright.
    bare = ScheduleTrace(**kw)
    assert not bare.exact_for(16.0, 0.0, offchip_energy_per_byte_j=60e-12)

    # A header missing a field the replay decision reads is not a
    # conservative trace but no trace at all: from_payload raises, and the
    # runner's sidecar load turns that into a miss (the point re-simulates).
    from repro.engine import SidecarStore, runners

    partial = {k: v for k, v in full.to_payload().items()
               if k != "frequency_ghz"}
    with pytest.raises(KeyError):
        ScheduleTrace.from_payload(partial)
    key = ("cholesky", 48, 8, 2, 4, 1.0, 0, "greedy", "memoized", False,
           True, None, None, None)
    store = SidecarStore(tmp_path / "replay", code_version="v1")
    store.put(runners._REPLAY_SIDECAR_KIND, runners._replay_material(key),
              {"trace": partial, "row": {"n": 48}})
    try:
        configure_worker({"replay_sidecar": store.config()})
        _REPLAY_MEMO.clear()
        assert runners._load_replay_from_sidecar(key) is None
        assert key not in _REPLAY_MEMO
        # The complete header does load.
        store.put(runners._REPLAY_SIDECAR_KIND, runners._replay_material(key),
                  {"trace": full.to_payload(), "row": {"n": 48}})
        assert runners._load_replay_from_sidecar(key) is not None
    finally:
        configure_worker(None)
        _REPLAY_MEMO.clear()


def test_schedule_trace_leaves_execution_rows_unbuilt():
    """`schedule_trace()` records without materialising `TaskExecution`
    rows; its energy triples still re-key `energy_j` bit for bit at the
    recorded constants (building the rows only then, from the run's own
    row source)."""
    graph = AlgorithmsByBlocks(TILE).cholesky_tasks(40)
    for kwargs in ({}, {"policy": "memory_aware", "local_store_kb": 1.0}):
        rt = make_runtime(True, **kwargs)
        stats = rt.execute(graph, make_tiles(), verify=False)
        assert rt._executions is None
        trace = rt.schedule_trace()
        assert rt._executions is None
        assert trace.has_energy_triples
        assert trace.rekey_energy_j(*trace.energy_constants) == stats["energy_j"]
        assert rt._executions is None  # the thunk built its own rows


def test_oracle_rows_are_never_replayed_outside_the_oracle():
    """`reference_loop()` isolates the replay memo: the same point run on
    the oracle and then on production simulates twice (nothing replayed
    across the boundary) and the rows agree."""
    from repro.lap.fastpath import REPLAY_STATS

    runner = get_runner("lap_runtime")
    params = {"algorithm": "lu", "n": 40, "tile": 8, "num_cores": 2, "nr": 4,
              "seed": 5, "timing": "memoized", "verify": False,
              "policy": "memory_aware", "on_chip_kb": 6.0}
    configure_worker(None)
    with reference_loop():
        ref_row = runner(dict(params))
    before = dict(REPLAY_STATS)
    fast_row = runner(dict(params))
    assert REPLAY_STATS["recorded"] == before["recorded"] + 1
    assert REPLAY_STATS["replayed"] == before["replayed"]
    assert json.dumps(ref_row) == json.dumps(fast_row)
