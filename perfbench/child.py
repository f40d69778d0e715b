"""One measurement in a fresh interpreter: set up, sweep, check, report.

``run.py`` starts this script once per sample, so every sample pays the
imports and starts with empty process-wide memos (task graphs, replay
traces), the way a user's ``repro sweep`` does.  The last line of standard
output is one JSON object with what was measured.

Modes:

``sweep``
    The timed sweep through a process pool of ``nproc`` workers, exactly as
    ``repro sweep`` runs it.  On ``warm_resweep`` the timed phase repeats
    whole re-sweeps (each with a fresh executor and cache handle) for
    ``--pass-seconds``, and after each one times every ``ResultCache.get``
    of one more pass.
``setup``
    Only the set-up, for more ``setup_s`` samples.
``traced`` / ``serial``
    The same jobs run serially in this process, with and without the
    per-layer wrappers of ``layers.py``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pathlib
import sys
import threading
import time

HERE = pathlib.Path(__file__).resolve().parent


def _vm_hwm_kb(pid: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass  # the process has already exited
    return 0


def _children(pid: int) -> list:
    out = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; the parent pid follows its ')'.
        if int(stat[stat.rindex(")") + 2:].split()[1]) == pid:
            out.append(entry)
    return out


class PeakRss:
    """Highest ``VmHWM`` of this process and its children, sampled from /proc.

    Pool workers are shut down without waiting, so ``RUSAGE_CHILDREN``
    misses them; sampling their own high-water marks while they live does
    not.  The children are looked up every ``rescan`` samples: pool workers
    live for a whole sweep.
    """

    def __init__(self, interval_s: float = 0.05, rescan: int = 10) -> None:
        self.interval_s = interval_s
        self.rescan = rescan
        self.peak_kb = 0
        self._pids: list = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self, rescan: bool = True) -> None:
        if rescan:
            self._pids = ["self"] + _children(os.getpid())
        self.peak_kb = max([self.peak_kb] + [_vm_hwm_kb(pid) for pid in self._pids])

    def _loop(self) -> None:
        ticks = 0
        while not self._stop.wait(self.interval_s):
            ticks += 1
            self.sample(rescan=ticks % self.rescan == 0)

    def __enter__(self) -> "PeakRss":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    @property
    def mib(self) -> float:
        return self.peak_kb / 1024.0


class Checker:
    """Counts rows attempted and rows that are missing or differ from expected.

    The expected rows are loaded on first use, after the set-up is timed.
    """

    def __init__(self, workload: str, tiny: bool, directory) -> None:
        self.source = (workload, tiny, directory)
        self.expected = None
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 5:
            self.errors.append(message)

    def sweep(self, jobs, sweep: dict, reference=None) -> None:
        """Check a sweep's rows; ``reference`` rows (an earlier sweep's) must
        also match exactly.  Jobs without a row count as failed."""
        from expected import load, mismatch, row_text

        if self.expected is None:
            self.expected = load(*self.source)
        if sweep["error"]:
            self.fail(sweep["error"], 0)
        for index, (job, row) in enumerate(zip(jobs, sweep["rows"])):
            self.attempted += 1
            if row is None:
                self.fail(f"no row for {job.describe()}")
                continue
            problem = mismatch(self.expected, job.params_dict, row)
            if problem is None and reference is not None and (
                    reference[index] is None
                    or row_text(row) != row_text(reference[index])):
                problem = f"re-swept row differs from its first sweep: {job.describe()}"
            if problem is not None:
                self.fail(problem)


def _timed_sweep(executor, jobs) -> dict:
    """Consume one stream; times from ``stream()`` to the first and last row."""
    rows = [None] * len(jobs)
    handed = time.monotonic()
    first = last = None
    error = None
    stream = executor.stream(jobs)
    try:
        for event in stream:
            last = time.monotonic()
            if first is None:
                first = last
            rows[event.index] = event.row
        result = stream.result()
    except Exception as exc:  # a raising job ends the sweep; report it
        stream.close()
        result = None
        error = f"{type(exc).__name__}: {exc}"
    return {"rows": rows, "result": result, "error": error,
            "first_row_s": None if first is None else first - handed,
            "wall_s": (last if last is not None else time.monotonic()) - handed}


def _join_workers() -> None:
    """Wait for pool workers, which the executor shuts down without waiting."""
    for child in multiprocessing.active_children():
        child.join()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True,
                        choices=("sweep", "setup", "traced", "serial"))
    parser.add_argument("--t0", type=float, required=True,
                        help="time.monotonic() just before this interpreter started")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--pass-seconds", type=float, default=5.0,
                        help="re-sweep time on warm_resweep (at least 3 re-sweeps)")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--expected-dir", default=None)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    from repro.engine import ResultCache, SweepExecutor

    import workloads

    jobs = workloads.jobs(args.workload, args.seed, args.tiny)
    check = Checker(args.workload, args.tiny, args.expected_dir)
    cache_dir = pathlib.Path(args.work_dir) / "cache"
    workers = len(os.sched_getaffinity(0))  # nproc, as `repro sweep` on this box
    out: dict = {"jobs": len(jobs)}
    prep = None
    if args.workload in workloads.WARM:
        prep = _timed_sweep(SweepExecutor(mode="process", max_workers=workers,
                                          cache=ResultCache(cache_dir)), jobs)
        _join_workers()

    if args.mode == "setup":
        out["setup_s"] = time.monotonic() - args.t0
    elif args.mode == "sweep" and prep is not None:
        sweeps = []
        latencies = []
        with PeakRss() as rss:
            started = time.monotonic()
            while len(sweeps) < 3 or time.monotonic() - started < args.pass_seconds:
                executor = SweepExecutor(mode="process", max_workers=workers,
                                         cache=ResultCache(cache_dir))
                if not sweeps:
                    out["setup_s"] = time.monotonic() - args.t0
                sweep = _timed_sweep(executor, jobs)
                sweeps.append({"wall_s": sweep["wall_s"],
                               "first_row_s": sweep["first_row_s"]})
                check.sweep(jobs, sweep, prep["rows"])
                # No point executes on a re-sweep: a point's latency is the
                # time the cache takes to serve it, timed after every
                # re-sweep so the samples span the whole timed phase.
                cache = ResultCache(cache_dir)
                for job in jobs:
                    begin = time.perf_counter()
                    cache.get(job)
                    latencies.append(time.perf_counter() - begin)
        out.update(sweeps=sweeps, latencies=latencies, peak_rss_mb=rss.mib)
    elif args.mode == "sweep":
        executor = SweepExecutor(mode="process", max_workers=workers,
                                 cache=ResultCache(cache_dir))
        with PeakRss() as rss:
            out["setup_s"] = time.monotonic() - args.t0
            sweep = _timed_sweep(executor, jobs)
            _join_workers()
        result = sweep["result"]
        # In job order, None for a point that did not execute.
        latencies = [] if result is None else list(result.job_latency_s)
        out.update(
            sweeps=[{"wall_s": sweep["wall_s"],
                     "first_row_s": sweep["first_row_s"]}],
            latencies=latencies, peak_rss_mb=rss.mib,
            batches=0 if result is None else sum(
                1 for t in result.shard_timings if t["shard"] >= 0),
            busy_frac=sum(s for s in latencies if s is not None)
            / (workers * sweep["wall_s"]))
        check.sweep(jobs, sweep)
    else:
        import layers

        executor = SweepExecutor(mode="serial", cache=ResultCache(cache_dir))
        if args.mode == "serial":
            sweep = _timed_sweep(executor, jobs)
        else:
            recorder = layers.Recorder()
            with layers.traced(recorder, jobs):
                with recorder.span("engine.executor"):
                    sweep = _timed_sweep(executor, jobs)
            out["layers"] = layers.layer_metrics(recorder)
            if args.trace_out:
                from repro.obs.chrome import write_chrome_trace

                write_chrome_trace(layers.chrome_trace(recorder, {
                    "workload": args.workload, "seed": args.seed,
                    "jobs": len(jobs)}), args.trace_out)
        out["wall_s"] = sweep["wall_s"]
        check.sweep(jobs, sweep, None if prep is None else prep["rows"])
    if prep is not None:
        check.sweep(jobs, prep)
    _join_workers()

    out.update(attempted=check.attempted, failed=check.failed,
               errors=check.errors)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
