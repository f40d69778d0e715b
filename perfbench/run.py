"""Sweep-point benchmark of the ``repro`` design-space engine.

Runs one workload of ``lap_runtime`` sweep points through
``repro.engine.SweepExecutor`` the way ``repro sweep`` does (a process pool
of ``nproc`` workers, the whole job list submitted at once), checks every
row against the rows recorded in ``perfbench/expected/``, and prints as its
last line one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_grid --seed 1 --seconds 60 --trace 0

``--trace 0`` reports the end-to-end metrics, medians over several samples,
with timings scaled to a reference host speed (:class:`HostSpeed`).
Each sample runs in a fresh interpreter with a fresh cache directory under
``.perfbench/``, so no run warms the next.  ``--trace 1`` reports per-layer
host time from a serial run of the same jobs with a span around every
layer's calls, and writes those spans as a Chrome trace to
``.perfbench/<workload>.trace.json``.  The command exits non-zero when any
row is wrong or any job fails.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"

#: End-to-end metric -> unit, as in BENCHMARK.json.
END_TO_END = {
    "setup_s": "s",
    "points_per_s": "points/s",
    "first_row_s": "s",
    "point_p50_s": "s",
    "peak_rss_mb": "MiB",
}

#: Fewest ``setup_s`` samples a run takes.
MIN_SETUPS = 3

#: A run that has not finished after this long is killed (the benchmark
#: must end within 180 s).
HARD_LIMIT_S = 170.0


def _child_env(work_dir: pathlib.Path) -> Dict[str, str]:
    """The environment of one sample: the repo's sources, nothing of the user's.

    Every ``REPRO_*`` variable is dropped (cache and replay budgets, remote
    cache settings), so no sample reads the user's configuration.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    env["TMPDIR"] = str(work_dir)
    return env


class Runner:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.started = time.monotonic()
        self.samples = 0

    def child(self, mode: str, **extra) -> dict:
        """Run ``child.py`` in a fresh interpreter and work directory."""
        work_dir = OUT_DIR / "work" / f"{os.getpid()}-{self.samples}"
        self.samples += 1
        shutil.rmtree(work_dir, ignore_errors=True)
        work_dir.mkdir(parents=True)
        command = [sys.executable, str(HERE / "child.py"),
                   "--workload", self.args.workload, "--seed", str(self.args.seed),
                   "--mode", mode, "--work-dir", str(work_dir)]
        if self.args.tiny:
            command.append("--tiny")
        if self.args.expected_dir:
            command += ["--expected-dir", self.args.expected_dir]
        for key, value in extra.items():
            command += [f"--{key.replace('_', '-')}", str(value)]
        timeout = max(1.0, self.started + HARD_LIMIT_S - time.monotonic())
        t0 = time.monotonic()
        proc = subprocess.Popen(command + ["--t0", repr(t0)], cwd=str(ROOT),
                                env=_child_env(work_dir), stdout=subprocess.PIPE,
                                process_group=0, text=True)
        try:
            stdout, _ = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            stdout = None
        finally:
            # The sample's process group holds its pool workers too: end them all.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            shutil.rmtree(work_dir, ignore_errors=True)
        if stdout is None:
            raise RuntimeError(f"{mode} sample did not finish within {timeout:.0f} s")
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} sample exited with code {proc.returncode}")
        out = json.loads(stdout.strip().splitlines()[-1])
        out["duration_s"] = time.monotonic() - t0
        return out


def _median(values: List[float]) -> float:
    return float(statistics.median(values))


class HostSpeed:
    """How slow the host's CPUs ran during a run, sampled while it runs.

    On a shared host the same code runs at one of several speeds as other
    tenants come and go, switching within seconds, so runs differ by how
    long they spent at each.  A thread times a fixed Python loop in CPU
    time (waiting for a CPU is not counted) every ``INTERVAL_S``, at about
    1% of one CPU; the loop's mean time over the run, with the top and
    bottom 5% trimmed, divided by ``REFERENCE_S`` is the run's slowdown.
    """

    #: Iterations of the timed loop.
    LOOPS = 20_000
    #: Seconds between two timings of the loop.
    INTERVAL_S = 0.1
    #: About the loop's CPU time on the host the benchmark was written on,
    #: when that host was quiet.
    REFERENCE_S = 0.001

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.wait(self.INTERVAL_S):
            started = time.thread_time()
            total = 0
            for step in range(self.LOOPS):
                total += step
            self.samples.append(time.thread_time() - started)

    def __enter__(self) -> "HostSpeed":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    @property
    def slowdown(self) -> float:
        kept = sorted(self.samples)[len(self.samples) // 20:
                                    len(self.samples) - len(self.samples) // 20]
        return statistics.fmean(kept) / self.REFERENCE_S


def measure(runner: Runner) -> tuple:
    """Untraced samples for ``--seconds``; returns (metrics, notes, samples)."""
    args = runner.args
    samples: List[dict] = []
    with HostSpeed() as host:
        while True:
            samples.append(runner.child("sweep"))
            elapsed = time.monotonic() - runner.started
            if elapsed + max(s["duration_s"] for s in samples) > args.seconds:
                break
        # Set-up-only samples fill the rest of the time.
        setups = [s["setup_s"] for s in samples]
        while True:
            extra = runner.child("setup")
            samples.append(extra)
            setups.append(extra["setup_s"])
            elapsed = time.monotonic() - runner.started
            if len(setups) >= MIN_SETUPS and elapsed + extra["duration_s"] > args.seconds:
                break
    sweeps = [sweep for s in samples for sweep in s.get("sweeps", ())]
    jobs = samples[0]["jobs"]
    # Each sample's latencies are in job order, pass after pass.  A point's
    # latency is the median of its own samples, so that the median over
    # points does not jump between kinds of point from run to run.
    per_point: List[List[float]] = [[] for _ in range(jobs)]
    for sample in samples:
        for index, latency in enumerate(sample.get("latencies", ())):
            if latency is not None:
                per_point[index % jobs].append(latency)
    points = [_median(point) for point in per_point if point]
    rss = [s["peak_rss_mb"] for s in samples if "peak_rss_mb" in s]
    unscaled = {
        "setup_s": _median(setups),
        "points_per_s": _median([jobs / sweep["wall_s"] for sweep in sweeps]),
        "first_row_s": _median([sweep["first_row_s"] for sweep in sweeps
                                if sweep["first_row_s"] is not None] or [0.0]),
        "point_p50_s": _median(points or [0.0]),
    }
    slowdown = host.slowdown
    metrics = {name: value * slowdown if name == "points_per_s" else value / slowdown
               for name, value in unscaled.items()}
    metrics["peak_rss_mb"] = _median(rss)
    notes = {"setup_s": f"median of {len(setups)}",
             "points_per_s": f"median of {len(sweeps)} sweeps of {jobs} points",
             "first_row_s": f"median of {len(sweeps)}",
             "point_p50_s": f"median of {len(points)} points' medians of "
                            f"{sum(map(len, per_point))} samples",
             "peak_rss_mb": f"median of {len(rss)} process trees"}
    for name, value in unscaled.items():
        notes[name] += f", {value:.6g} unscaled"
    notes["host_slowdown"] = f"{slowdown:.6g} (mean of {len(host.samples)} probes)"
    return metrics, notes, samples


def trace(runner: Runner) -> tuple:
    """The traced run: per-layer metrics plus the tracing overhead."""
    args = runner.args
    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"{args.workload}.trace.json"
    pool = runner.child("sweep", pass_seconds=0)  # the fewest re-sweeps
    traced = runner.child("traced", trace_out=trace_path)
    serial = runner.child("serial")
    metrics = dict(traced["layers"])
    metrics["engine.executor.batches"] = pool.get("batches", 0)
    metrics["engine.executor.worker_busy_frac"] = pool.get("busy_frac", 0.0)
    metrics["trace.overhead_frac"] = traced["wall_s"] / serial["wall_s"] - 1.0
    notes = {"trace.overhead_frac": f"traced {traced['wall_s']:.3f} s vs "
                                    f"untraced serial {serial['wall_s']:.3f} s",
             "trace.spans": f"written to {trace_path.relative_to(ROOT)}"}
    return metrics, notes, [pool, traced, serial]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Sweep-point benchmark.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrunken workloads (for the self-test)")
    parser.add_argument("--expected-dir", default=None,
                        help="expected-row directory (default perfbench/expected)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import layers
    import workloads

    try:
        workloads.check_name(args.workload)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # A terminated run still ends its samples' process groups (Runner.child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    runner = Runner(args)
    try:
        if args.trace:
            metrics, notes, samples = trace(runner)
            units = layers.METRICS
        else:
            metrics, notes, samples = measure(runner)
            units = END_TO_END
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        try:
            (OUT_DIR / "work").rmdir()
        except OSError:
            pass  # another run is still using it
    attempted = sum(s["attempted"] for s in samples)
    failed = sum(s["failed"] for s in samples)
    errors = [e for s in samples for e in s["errors"]]
    for error in errors[:10]:
        print(f"FAILED: {error}", file=sys.stderr)

    print(f"{args.workload} (seed {args.seed}, {len(samples)} samples, "
          f"{time.monotonic() - runner.started:.1f} s)")
    for name, value in metrics.items():
        note = notes.get(name, "")
        print(f"  {name:<36} {value:>14.6g} {units[name]:<9} {note}")
    if "host_slowdown" in notes:
        print(f"  {'host_slowdown':<36} {notes['host_slowdown']}")
    print(f"  {'failed_frac':<36} {failed / max(attempted, 1):>14.6g} "
          f"{'fraction':<9} {failed} of {attempted} rows")
    correct = failed == 0 and not errors and attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
