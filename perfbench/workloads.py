"""The benchmark's workloads: ``lap_runtime`` job lists built from a seed.

Every job uses the runner's production defaults except for the parameters
named here; in particular no workload sets ``fast`` or ``replay``, so a
change to either default shows up in the numbers.  The benchmark seed is
the ``seed`` of every job: it picks the operand data, never the grid.

``tiny=True`` gives the same workloads shrunk to a few small points, for
the benchmark's self-test.
"""

from __future__ import annotations

from typing import List

from repro.engine.spec import Job, SweepSpec

RUNNER = "lap_runtime"

#: Parameters shared by every workload: memoized LAC timing without the
#: NumPy reference updates, the configuration of a timing-only sweep.
COMMON = {"nr": 4, "timing": "memoized", "verify": False}


def _cold_grid(seed: int, tiny: bool) -> SweepSpec:
    return (SweepSpec()
            .constants(seed=seed, tile=32 if tiny else 64, num_cores=4, **COMMON)
            .grid(algorithm=["cholesky", "lu", "qr", "gemm"],
                  n=[128] if tiny else [1024],
                  policy=["greedy"] if tiny else ["greedy", "critical_path"]))


def _delta_replay(seed: int, tiny: bool) -> SweepSpec:
    # onchip_mbytes=32 holds the whole n=1024 working set: no point spills,
    # so schedule replay is exact on all four axes.
    if tiny:
        axes = {"bandwidth_gbs": [8.0, 16.0], "stall_overlap": [0.0, 0.5],
                "frequency_ghz": [1.0, 1.2], "offchip_pj_per_byte": [20.0, 40.0]}
    else:
        axes = {"bandwidth_gbs": [4.0, 6.0, 8.0, 12.0, 16.0, 24.0, 32.0, 48.0],
                "stall_overlap": [0.0, 0.25, 0.5, 0.75, 1.0],
                "frequency_ghz": [0.6, 0.8, 1.0, 1.2, 1.4, 1.6],
                "offchip_pj_per_byte": [10.0, 20.0, 40.0, 80.0, 160.0]}
    return (SweepSpec()
            .constants(seed=seed, n=128 if tiny else 1024,
                       tile=32 if tiny else 64, num_cores=4, policy="greedy",
                       onchip_mbytes=32.0, **COMMON)
            .grid(algorithm=["cholesky", "gemm"], **axes))


def _pressure_sched(seed: int, tiny: bool) -> SweepSpec:
    # Tile 32 is 8 KiB: 48-96 KiB of shared and 8-16 KiB of local store
    # hold a handful of tiles, so every point spills and never replays.
    return (SweepSpec()
            .constants(seed=seed, algorithm="cholesky",
                       n=256 if tiny else 1536, tile=32, num_cores=4, **COMMON)
            .grid(policy=["memory_aware", "affinity"],
                  on_chip_kb=[48] if tiny else [48, 96],
                  local_store_kb=[8] if tiny else [8, 16]))


#: Workload name -> spec function.  ``warm_resweep`` re-sweeps the
#: ``delta_replay`` job list against the cache its preparation filled.
SPECS = {
    "cold_grid": _cold_grid,
    "delta_replay": _delta_replay,
    "warm_resweep": _delta_replay,
    "pressure_sched": _pressure_sched,
}

#: Workloads whose timed sweep reads a cache filled during set-up.
WARM = frozenset({"warm_resweep"})


def check_name(workload: str) -> str:
    if workload not in SPECS:
        raise ValueError(f"unknown workload '{workload}' "
                         f"(use one of {', '.join(SPECS)})")
    return workload


def rows_name(workload: str) -> str:
    """Name of the expected-row set a workload is checked against."""
    return SPECS[check_name(workload)].__name__.lstrip("_")


def jobs(workload: str, seed: int, tiny: bool = False) -> List[Job]:
    """The workload's job list for one benchmark seed."""
    return SPECS[check_name(workload)](seed, tiny).jobs(RUNNER)
