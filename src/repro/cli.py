"""Command-line interface for the reproduction.

Provides eight sub-commands:

``experiments``
    list or regenerate the tables/figures of the evaluation
    (``python -m repro.cli experiments --list`` / ``... experiments table_5_1``).
``simulate``
    run one kernel on the cycle-level LAC simulator with a randomly generated
    operand set and report cycles, utilisation and the access counters
    (``python -m repro.cli simulate gemm --size 16``).
``design``
    print the area/power/efficiency of a LAC or LAP design point
    (``python -m repro.cli design --cores 8 --frequency 1.0``).
``sweep``
    expand a declarative design-space sweep, run it through the parallel,
    cached sweep engine and report the Pareto frontier
    (``python -m repro.cli sweep --runner design --grid cores=4,8,16
    --grid nr=2,4,8``).  The ``lap_runtime`` runner additionally sweeps the
    task-graph runtime's scheduling policies, timing models and memory
    hierarchy (``... sweep --runner lap_runtime --set algorithm=qr
    --set timing=memoized
    --grid policy=greedy,critical_path,locality,memory_aware,affinity
    --grid num_cores=2,4``; constrain the tile working set with
    ``--grid on_chip_kb=64,6,3`` and the off-chip bandwidth with
    ``--set bandwidth_gbs=16`` to surface spills, stalls and energy;
    enable the per-core second level with ``--grid local_store_kb=1,2,4``
    and sweep prefetch overlap with ``--grid stall_overlap=0,0.5,1`` for
    local-hit-rate and per-level traffic columns).  ``--stream`` consumes
    the executor's row stream directly and prints a live progress line
    (rows done / cache hit-rate / incremental Pareto frontier size)
    instead of going silent until the sweep finishes.  ``--server URL``
    adds a shared ``repro serve`` daemon as a second cache tier
    (read-through/write-behind; degrades to local-only if the server goes
    away).
``serve``
    run the design-space service daemon: the content-addressed result
    cache over HTTP, shared by every ``repro sweep --server`` client so a
    point one client has run is a cache hit for the others
    (``python -m repro.cli serve --port 8731``).
``cache``
    inspect and manage the on-disk sweep result cache
    (``python -m repro.cli cache stats`` / ``... cache prune --max-mb 64``
    / ``... cache clear``); ``stats`` reports live and lifetime hit-rates.
``trace``
    run one workload through the instrumented LAP runtime and export a
    Chrome-trace-event JSON (one track per core, per-task cycle
    decompositions, idle gaps) plus the cycle-attribution table
    (``python -m repro.cli trace --workload cholesky --n 512``); open the
    ``.trace.json`` in Perfetto (https://ui.perfetto.dev) or
    ``chrome://tracing``.
``report``
    re-print the cycle-attribution table of a saved ``.trace.json`` and/or
    the telemetry of a sweep's run manifest
    (``python -m repro.cli report --trace cholesky_n512.trace.json
    --manifest sweep.json.manifest.json``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional

import numpy as np

from repro.arch.lap_design import build_lap
from repro.engine import (KNOWN_PARAMS, PARETO_OBJECTIVES, IncrementalPareto,
                          ResultCache, SweepExecutor, SweepSpec,
                          execute_jobs, frontier_report, runner_names,
                          usable_cache_dir)
from repro.experiments.export import write_json
from repro.experiments.registry import REGISTRY, run_experiment
from repro.experiments.report import (format_value, render_table,
                                      summarize_experiment)
from repro.hw.fpu import Precision
from repro.kernels.dispatch import (check_size, fft_point_count, kernel_names,
                                    simulate_kernel)
from repro.lac import LACConfig, LinearAlgebraCore
from repro.lap.policies import policy_names
from repro.lap.timing import timing_names
from repro.obs.manifest import manifest_path_for, write_run_manifest

#: Workloads the ``trace`` sub-command can decompose and schedule.
TRACE_WORKLOADS = ("gemm", "cholesky", "lu", "qr")

#: Default on-disk cache location of the ``sweep`` sub-command; override
#: with ``--cache-dir``, ``REPRO_CACHE_DIR`` or disable with ``--no-cache``.
DEFAULT_CACHE_DIR = os.environ.get("REPRO_CACHE_DIR", "~/.cache/repro-sweep")


def _emit_json(payload: object, path: str) -> int:
    """Write a ``--json`` payload, reporting write failures cleanly."""
    try:
        written = write_json(payload, path)
    except OSError as exc:
        print(f"cannot write JSON to '{path}': {exc}", file=sys.stderr)
        return 2
    if written is not None:
        print(f"wrote {written}")
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    if args.list or not args.ids:
        for exp in REGISTRY.values():
            print(f"{exp.exp_id:<18s} [{exp.kind:<10s}] {exp.source:<22s} {exp.description}")
        if args.list:
            return 0
        if not args.ids:
            return 0
    unknown = [i for i in args.ids if i not in REGISTRY]
    if unknown:
        print(f"unknown experiment ids: {unknown}", file=sys.stderr)
        return 2
    if args.json:
        results = {exp_id: run_experiment(exp_id) for exp_id in args.ids}
        return _emit_json({"experiments": results}, args.json)
    for exp_id in args.ids:
        print(summarize_experiment(exp_id, run_experiment(exp_id), max_rows=args.max_rows))
        print()
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    rng = np.random.default_rng(args.seed)
    core = LinearAlgebraCore(LACConfig(nr=args.nr, frequency_ghz=args.frequency))
    n = args.size
    try:
        check_size(args.kernel, n, args.nr)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.kernel == "fft":
        points = fft_point_count(n)
        print(f"note: fft simulates a {points}-point radix-4 transform "
              f"(rounded from --size {n} = {n * n} elements)")

    result = simulate_kernel(core, args.kernel, n, rng)

    print(f"kernel        : {result.name}")
    print(f"cycles        : {result.cycles}")
    print(f"MAC ops       : {result.counters.mac_ops}")
    print(f"utilisation   : {100 * result.utilization:.1f}%")
    print(f"GFLOPS @ {args.frequency:.2f} GHz: {result.gflops(args.frequency):.1f}")
    print()
    print(result.counters.summary())
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    precision = Precision.SINGLE if args.precision == "single" else Precision.DOUBLE
    design = build_lap(num_cores=args.cores, nr=args.nr, precision=precision,
                       frequency_ghz=args.frequency,
                       local_store_kbytes=args.local_store_kbytes,
                       onchip_memory_mbytes=args.onchip_mbytes)
    eff = design.efficiency(utilization=args.utilization)
    rows = [{
        "cores": args.cores,
        "nr": args.nr,
        "precision": precision.value,
        "frequency_ghz": args.frequency,
        "area_mm2": round(design.area_mm2, 1),
        "power_w": round(design.power_w(), 2),
        "peak_gflops": round(design.peak_gflops, 1),
        "gflops": round(eff.gflops, 1),
        "gflops_per_w": round(eff.gflops_per_watt, 1),
        "gflops_per_mm2": round(eff.gflops_per_mm2, 2),
    }]
    if args.json:
        return _emit_json({"design": rows[0]}, args.json)
    print(render_table(rows))
    return 0


# ------------------------------------------------------------------- sweep
def _parse_scalar(token: str):
    """CLI axis value: int if possible, else float, bool or bare string."""
    lowered = token.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    for convert in (int, float):
        try:
            return convert(token)
        except ValueError:
            continue
    return token


def _parse_axis(option: str, text: str) -> Dict[str, list]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"{option} expects NAME=V1,V2,... (got '{text}')")
    name, _, values = text.partition("=")
    name = name.strip()
    tokens = [t for t in values.split(",") if t.strip() != ""]
    if not name or not tokens:
        raise argparse.ArgumentTypeError(
            f"{option} expects NAME=V1,V2,... (got '{text}')")
    return {name: [_parse_scalar(t.strip()) for t in tokens]}


def _build_spec(args: argparse.Namespace) -> SweepSpec:
    spec = SweepSpec()
    constants = {}
    for text in args.set or []:
        axis = _parse_axis("--set", text)
        ((name, values),) = axis.items()
        if len(values) != 1:
            raise argparse.ArgumentTypeError(f"--set {name} takes exactly one value")
        if name in constants:
            raise argparse.ArgumentTypeError(f"sweep axis '{name}' is already defined")
        constants[name] = values[0]
    if constants:
        spec = spec.constants(**constants)
    for text in args.grid or []:
        spec = spec.grid(**_parse_axis("--grid", text))
    zip_axes: Dict[str, list] = {}
    for text in args.zip or []:
        axis = _parse_axis("--zip", text)
        ((name, values),) = axis.items()
        if name in zip_axes:
            raise argparse.ArgumentTypeError(f"sweep axis '{name}' is already defined")
        zip_axes[name] = values
    if zip_axes:
        spec = spec.zip(**zip_axes)
    return spec


def _stream_sweep(jobs, args: argparse.Namespace, cache: Optional[ResultCache],
                  objectives: List[str]):
    """Run a sweep through the streaming executor with a live progress line.

    Rows are folded into an :class:`IncrementalPareto` as they land, so the
    stderr line shows rows done, cache hit-rate and the current frontier
    size while the sweep is still executing.  Returns the same
    :class:`~repro.engine.SweepResult` the batch path produces.

    Redraws are throttled to ~10 per second (cached warm sweeps can land
    tens of thousands of rows a second, and unthrottled carriage-return
    spam dominates their wall time); the final state always renders.  When
    stderr is not a terminal the carriage-return animation degrades to
    plain newline-delimited updates, so logs capture readable progress.
    """
    import time

    executor = SweepExecutor(mode=args.mode, max_workers=args.workers,
                             batch_size=args.batch_size, cache=cache)
    pareto = IncrementalPareto(objectives) if objectives else None
    stream = executor.stream(jobs)
    done = 0
    hits = 0
    is_tty = getattr(sys.stderr, "isatty", lambda: False)()
    min_interval_s = 0.1
    last_emit = float("-inf")
    try:
        for event in stream:
            done += 1
            if event.cached:
                hits += 1
            if pareto is not None:
                pareto.add(event.row)
            now = time.monotonic()
            if done != stream.total and now - last_emit < min_interval_s:
                continue
            last_emit = now
            frontier = "" if pareto is None else f" | frontier {len(pareto)}"
            line = (f"{done}/{stream.total} rows | "
                    f"{100.0 * hits / done:.0f}% cached{frontier}")
            if is_tty:
                print(f"\r{line}", end="", file=sys.stderr, flush=True)
            else:
                print(line, file=sys.stderr, flush=True)
    finally:
        if done and is_tty:
            print(file=sys.stderr)
    return stream.result()


def _build_sweep_cache(args: argparse.Namespace,
                       cache_dir: Optional[str]) -> Optional[ResultCache]:
    """The sweep's cache tier: local disk, optionally backed by a server.

    With ``--server`` the local cache composes with the shared daemon as a
    read-through/write-behind tier; without a usable local directory the
    remote tier is skipped too (with a warning), because the remote tier
    is an extension of the local one, not a replacement.
    """
    if cache_dir is None:
        if args.server:
            print("warning: no usable local cache tier; ignoring --server "
                  "(the remote tier extends the local one)", file=sys.stderr)
        return None
    if not args.server:
        return ResultCache(cache_dir)
    from repro.serve import RemoteCache

    return RemoteCache(cache_dir, args.server)


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not (args.grid or args.zip or args.set):
        print("the sweep expands to no jobs; add --grid/--zip/--set axes",
              file=sys.stderr)
        return 2
    try:
        spec = _build_spec(args)
    except (argparse.ArgumentTypeError, TypeError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    jobs = spec.jobs(args.runner)
    if not jobs:
        print("the sweep's filters prune every point", file=sys.stderr)
        return 2
    known = KNOWN_PARAMS.get(args.runner)
    if known:
        unknown = sorted(set(jobs[0].params_dict) - known)
        if unknown:
            print(f"warning: runner '{args.runner}' ignores parameter(s) "
                  f"{', '.join(unknown)}; it understands: {', '.join(sorted(known))}",
                  file=sys.stderr)

    progress = None
    if args.progress and not args.stream:
        def progress(done: int, total: int) -> None:
            print(f"\r{done}/{total} jobs", end="", file=sys.stderr, flush=True)

    objectives = ([o.strip() for o in args.objectives.split(",") if o.strip()]
                  if args.objectives else list(PARETO_OBJECTIVES.get(args.runner, ())))
    cache_dir = usable_cache_dir(None if args.no_cache else args.cache_dir)
    try:
        cache = _build_sweep_cache(args, cache_dir)
        if args.stream:
            result = _stream_sweep(jobs, args, cache, objectives)
        else:
            result = execute_jobs(jobs, mode=args.mode,
                                  max_workers=args.workers,
                                  batch_size=args.batch_size, cache=cache,
                                  progress=progress)
    except (KeyError, ValueError, OverflowError, OSError) as exc:
        if args.progress and not args.stream:
            print(file=sys.stderr)
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 2
    if args.progress and not args.stream:
        print(file=sys.stderr)

    # Persist the run's telemetry (shard wall times, job latencies, cache
    # hit-rate) next to the sweep output: an explicit --manifest path wins,
    # otherwise a --json file output gets a sibling <output>.manifest.json.
    manifest_target = args.manifest
    if manifest_target is None and args.json and args.json not in ("-", os.devnull):
        manifest_target = str(manifest_path_for(args.json))
    if manifest_target is not None:
        extra: Dict[str, object] = {"output": args.json}
        if args.server:
            extra["server"] = args.server
        try:
            written = write_run_manifest(result, manifest_target,
                                         runner=args.runner, extra=extra)
            print(f"wrote {written}", file=sys.stderr)
        except OSError as exc:
            print(f"warning: cannot write run manifest to "
                  f"'{manifest_target}': {exc}", file=sys.stderr)

    try:
        report = (frontier_report(result.rows, objectives) if objectives
                  else {"objectives": [], "minimize": [], "num_rows": len(result.rows),
                        "frontier": [], "best": {}})
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        print(f"sweep failed: {exc}", file=sys.stderr)
        return 2

    if args.json:
        payload = {
            "runner": args.runner,
            "jobs": result.total,
            "executed": result.executed,
            "cached": result.cached,
            "mode": result.mode,
            "elapsed_s": result.elapsed_s,
            "rows": result.rows,
            **report,
        }
        return _emit_json(payload, args.json)

    print(f"sweep[{args.runner}] {result.summary()}")
    print()
    if not objectives:
        print(render_table(result.rows, max_rows=args.max_rows))
        return 0
    frontier = report["frontier"]
    print(f"Pareto frontier ({', '.join(objectives)}): "
          f"{len(frontier)} of {len(result.rows)} points")
    print(render_table(frontier, max_rows=args.max_rows))
    print()
    print("best per metric:")
    axes = list(jobs[0].params_dict)
    for metric, row in report["best"].items():
        value = row[metric]
        params = ", ".join(f"{k}={format_value(row[k])}" for k in axes
                           if k in row and k != metric)
        print(f"  {metric:<16s} {value:10.2f}  ({params})")
    return 0


# ------------------------------------------------------------------- serve
def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import ServeDaemon

    cache_dir = usable_cache_dir(args.cache_dir, label="served cache directory")
    if cache_dir is None:
        return 2
    max_bytes = (int(args.max_mb * 1024 * 1024)
                 if args.max_mb is not None else None)
    try:
        daemon = ServeDaemon(cache_dir, host=args.host, port=args.port,
                             max_bytes=max_bytes, quiet=args.quiet)
    except (OSError, ValueError) as exc:
        print(f"cannot start the design-space service: {exc}", file=sys.stderr)
        return 2
    print(f"serving {cache_dir} at {daemon.url} (Ctrl-C to stop)",
          file=sys.stderr)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        print("\nstopping", file=sys.stderr)
    finally:
        daemon.httpd.server_close()
        daemon.cache.persist_stats()
    return 0


# ------------------------------------------------------------------- cache
def _cmd_cache(args: argparse.Namespace) -> int:
    import pathlib

    from repro.engine.cache import ResultCache

    directory = pathlib.Path(args.cache_dir).expanduser()
    if not directory.is_dir():
        # Never create the directory from an inspection/management command
        # (a typo'd --cache-dir would otherwise leave an empty tree behind).
        if args.action == "stats":
            if args.json:
                return _emit_json({"cache": {"directory": str(directory),
                                             "exists": False, "entries": 0,
                                             "size_bytes": 0}}, args.json)
            print(f"directory     : {directory}")
            print("entries       : 0 (directory does not exist yet)")
            return 0
        print(f"cache directory '{directory}' does not exist; nothing to "
              f"{args.action}", file=sys.stderr)
        return 2
    max_bytes = int(args.max_mb * 1024 * 1024) if args.max_mb is not None else None
    try:
        cache = ResultCache(directory, max_bytes=max_bytes)
    except (OSError, ValueError) as exc:
        print(f"cannot open cache '{directory}': {exc}", file=sys.stderr)
        return 2

    if args.action == "stats":
        stats = cache.stats()
        stats["size_mbytes"] = round(stats["size_bytes"] / 2 ** 20, 3)
        if args.json:
            return _emit_json({"cache": stats}, args.json)
        for key in ("directory", "code_version", "entries", "size_bytes",
                    "size_mbytes", "max_bytes"):
            print(f"{key:<14s}: {stats[key]}")
        sidecar = stats["sidecar"]
        print(f"{'replay':<14s}: {sidecar['entries']} sidecar entries, "
              f"{sidecar['size_bytes']} bytes, "
              f"{sidecar['evictions']} pruned (lifetime)")
        lifetime = stats["lifetime"]
        print(f"{'hits':<14s}: {lifetime['hits']} (lifetime)")
        print(f"{'misses':<14s}: {lifetime['misses']} (lifetime)")
        print(f"{'evictions':<14s}: {lifetime['evictions']} (lifetime)")
        print(f"{'hit_rate':<14s}: {100.0 * lifetime['hit_rate']:.1f}% (lifetime)")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        if args.json:
            return _emit_json({"cache": {"action": "clear", "removed": removed,
                                         "directory": str(cache.directory)}},
                              args.json)
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} "
              f"from {cache.directory}")
        return 0
    # prune
    if cache.max_bytes is None and args.max_entries is None:
        print("prune needs a limit: pass --max-mb / --max-entries or set "
              "REPRO_CACHE_MAX_MB", file=sys.stderr)
        return 2
    removed = cache.prune(max_entries=args.max_entries)
    stats = cache.stats()
    if args.json:
        return _emit_json({"cache": {"action": "prune", "removed": removed,
                                     "entries": stats["entries"],
                                     "size_bytes": stats["size_bytes"],
                                     "directory": str(cache.directory)}},
                          args.json)
    print(f"pruned {removed} entr{'y' if removed == 1 else 'ies'}; "
          f"{stats['entries']} left ({stats['size_bytes'] / 2 ** 20:.3f} MB)")
    return 0


# ------------------------------------------------------------------- trace
def _attribution_table(attribution) -> str:
    """Render a cycle attribution as the standard report table."""
    rows = []
    for row in attribution.table_rows():
        rows.append({
            "core": row["core"],
            "tasks": row["tasks"],
            "compute": round(row["compute_cycles"], 1),
            "stall": round(row["spill_stall_cycles"], 1),
            "transfer": round(row["transfer_cycles"], 1),
            "idle": round(row["idle_cycles"], 1),
            "compute%": round(row["compute_pct"], 1),
            "stall%": round(row["stall_pct"], 1),
            "transfer%": round(row["transfer_pct"], 1),
            "idle%": round(row["idle_pct"], 1),
        })
    return render_table(rows, max_rows=len(rows))


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.lap.chip import LAPConfig, LinearAlgebraProcessor
    from repro.lap.runtime import LAPRuntime
    from repro.obs import Tracer, to_chrome_trace, write_chrome_trace

    tracer = Tracer()
    try:
        lap = LinearAlgebraProcessor(LAPConfig(
            num_cores=args.cores, nr=args.nr,
            onchip_memory_mbytes=args.onchip_mbytes))
        runtime = LAPRuntime(
            lap, args.tile, policy=args.policy, timing=args.timing,
            on_chip_kb=args.on_chip_kb, bandwidth_gbs=args.bandwidth_gbs,
            local_store_kb=args.local_store_kb,
            stall_overlap=args.stall_overlap, tracer=tracer)
        stats = runtime.run_workload(args.workload, args.n,
                                     np.random.default_rng(args.seed))
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"trace failed: {exc}", file=sys.stderr)
        return 2
    attribution = runtime.attribution()
    try:
        # Conservation is a hard export precondition: a trace whose
        # components do not tile cores x makespan is a runtime bug.
        attribution.check()
    except ValueError as exc:
        print(f"trace failed: {exc}", file=sys.stderr)
        return 2

    out = args.out or f"{args.workload}_n{args.n}.trace.json"
    graph = stats.get("graph", {})
    payload = to_chrome_trace(
        tracer,
        process_name=f"LAP ({args.cores} cores, {args.workload} n={args.n})",
        metadata={
            "workload": {
                "workload": args.workload, "n": args.n, "tile": args.tile,
                "num_cores": args.cores, "nr": args.nr,
                "policy": runtime.policy.name, "timing": runtime.timing.name,
                "seed": args.seed, "on_chip_kb": args.on_chip_kb,
                "bandwidth_gbs": args.bandwidth_gbs,
                "local_store_kb": args.local_store_kb,
                "stall_overlap": args.stall_overlap,
            },
            "stats": {key: value for key, value in stats.items()
                      if key != "graph"},
            "graph": graph,
            "cycle_attribution": attribution.as_dict(),
        })
    try:
        written = write_chrome_trace(payload, out)
    except (OSError, ValueError) as exc:
        print(f"trace failed: cannot export '{out}': {exc}", file=sys.stderr)
        return 2

    print(f"{args.workload} n={args.n} tile={args.tile} on {args.cores} cores "
          f"[{runtime.policy.name}/{runtime.timing.name}]: "
          f"makespan {stats['makespan_cycles']:.0f} cycles, "
          f"parallel efficiency {100 * stats['parallel_efficiency']:.1f}%")
    if stats.get("residual") is not None:
        print(f"residual      : {stats['residual']:.3e}")
    print()
    print(_attribution_table(attribution))
    print()
    print(f"wrote {written} ({len(tracer.spans)} spans, "
          f"{len(payload['traceEvents'])} events); open in Perfetto "
          f"(https://ui.perfetto.dev) or chrome://tracing")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    import json as json_module

    from repro.obs.attribution import CycleAttribution

    if not args.trace and not args.manifest:
        print("nothing to report: pass --trace TRACE.json and/or "
              "--manifest MANIFEST.json", file=sys.stderr)
        return 2
    payload: Dict[str, object] = {}
    if args.trace:
        try:
            with open(args.trace) as handle:
                trace = json_module.load(handle)
            attribution_dict = trace["metadata"]["cycle_attribution"]
            attribution = CycleAttribution.from_dict(attribution_dict)
        except (OSError, json_module.JSONDecodeError, KeyError, TypeError,
                ValueError) as exc:
            print(f"cannot read attribution from '{args.trace}': {exc}",
                  file=sys.stderr)
            return 2
        payload["trace"] = {"path": args.trace,
                            "workload": trace["metadata"].get("workload"),
                            "cycle_attribution": attribution_dict}
        if not args.json:
            workload = trace["metadata"].get("workload") or {}
            label = " ".join(f"{key}={value}" for key, value in
                             sorted(workload.items()) if value is not None)
            print(f"cycle attribution [{label}]" if label
                  else "cycle attribution")
            print(_attribution_table(attribution))
            print()
    if args.manifest:
        try:
            with open(args.manifest) as handle:
                manifest = json_module.load(handle)
        except (OSError, json_module.JSONDecodeError) as exc:
            print(f"cannot read run manifest '{args.manifest}': {exc}",
                  file=sys.stderr)
            return 2
        payload["manifest"] = manifest
        if not args.json:
            print(f"sweep telemetry [{manifest.get('runner', '?')}]: "
                  f"{manifest.get('jobs', '?')} jobs, "
                  f"{manifest.get('executed', '?')} executed, "
                  f"{manifest.get('cached', '?')} cached "
                  f"[{manifest.get('mode', '?')}, "
                  f"{manifest.get('elapsed_s', 0.0):.2f}s]")
            cache_stats = manifest.get("cache")
            if cache_stats:
                print(f"cache         : {cache_stats.get('hits', 0)} hits, "
                      f"{cache_stats.get('misses', 0)} misses "
                      f"({100.0 * cache_stats.get('hit_rate', 0.0):.1f}% "
                      f"hit rate)")
            latency = manifest.get("latency") or {}
            if latency.get("count"):
                print(f"job latency   : {latency['count']} measured, "
                      f"mean {1e3 * latency['mean_s']:.1f} ms, "
                      f"max {1e3 * latency['max_s']:.1f} ms")
            streaming = manifest.get("streaming") or {}
            if streaming.get("first_row_s") is not None:
                print(f"streaming     : first row "
                      f"{1e3 * streaming['first_row_s']:.1f} ms, last row "
                      f"{1e3 * streaming['last_row_s']:.1f} ms")
            shards = manifest.get("shards") or []
            if shards:
                print()
                print(render_table(shards, max_rows=args.max_rows))
    if args.json:
        return _emit_json(payload, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiments", help="list or regenerate evaluation experiments")
    p_exp.add_argument("ids", nargs="*", help="experiment ids (default: list all)")
    p_exp.add_argument("--list", action="store_true", help="only list the registry")
    p_exp.add_argument("--max-rows", type=int, default=12)
    p_exp.add_argument("--json", metavar="PATH",
                       help="write results as JSON to PATH ('-' for stdout)")
    p_exp.set_defaults(func=_cmd_experiments)

    p_sim = sub.add_parser("simulate", help="run a kernel on the LAC simulator")
    p_sim.add_argument("kernel", choices=kernel_names())
    p_sim.add_argument("--size", type=int, default=16, help="problem dimension")
    p_sim.add_argument("--nr", type=int, default=4, help="core dimension")
    p_sim.add_argument("--frequency", type=float, default=1.0, help="clock in GHz")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.set_defaults(func=_cmd_simulate)

    p_des = sub.add_parser("design", help="evaluate a LAP design point")
    p_des.add_argument("--cores", type=int, default=8)
    p_des.add_argument("--nr", type=int, default=4)
    p_des.add_argument("--frequency", type=float, default=1.0)
    p_des.add_argument("--precision", choices=["single", "double"], default="double")
    p_des.add_argument("--local-store-kbytes", type=float, default=16.0)
    p_des.add_argument("--onchip-mbytes", type=float, default=4.0)
    p_des.add_argument("--utilization", type=float, default=0.9)
    p_des.add_argument("--json", metavar="PATH",
                       help="write the design point as JSON to PATH ('-' for stdout)")
    p_des.set_defaults(func=_cmd_design)

    p_swp = sub.add_parser("sweep", help="run a design-space sweep through the engine")
    p_swp.add_argument("--runner", choices=runner_names(), default="design",
                       help="which evaluation each job runs (default: design)")
    p_swp.add_argument("--grid", action="append", metavar="NAME=V1,V2,...",
                       help="axis crossed with every other axis (repeatable)")
    p_swp.add_argument("--zip", action="append", metavar="NAME=V1,V2,...",
                       help="axes that vary together (repeatable, equal lengths)")
    p_swp.add_argument("--set", action="append", metavar="NAME=VALUE",
                       help="constant parameter applied to every job (repeatable)")
    p_swp.add_argument("--mode", choices=["auto", "serial", "thread", "process"],
                       default="auto", help="execution backend (default: auto)")
    p_swp.add_argument("--workers", type=int, default=None, help="pool size")
    p_swp.add_argument("--batch-size", type=int, default=None, help="jobs per shard")
    p_swp.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help=f"result cache directory (default: {DEFAULT_CACHE_DIR})")
    p_swp.add_argument("--no-cache", action="store_true",
                       help="run every job even if cached results exist")
    p_swp.add_argument("--objectives", metavar="A,B,...",
                       help="Pareto objectives (default depends on the runner)")
    p_swp.add_argument("--max-rows", type=int, default=16)
    p_swp.add_argument("--progress", action="store_true",
                       help="print job progress to stderr")
    p_swp.add_argument("--stream", action="store_true",
                       help="consume rows as they land: live stderr line "
                            "with rows done / cache hit-rate / incremental "
                            "Pareto frontier size (supersedes --progress)")
    p_swp.add_argument("--server", metavar="URL", default=None,
                       help="URL of a `repro serve` daemon used as a shared "
                            "second cache tier (read-through/write-behind; "
                            "degrades to local-only if the server goes away)")
    p_swp.add_argument("--json", metavar="PATH",
                       help="write rows + frontier as JSON to PATH ('-' for stdout)")
    p_swp.add_argument("--manifest", metavar="PATH", default=None,
                       help="write the run manifest (shard timings, job "
                            "latencies, cache hit-rate) to PATH; defaults to "
                            "<json-output>.manifest.json when --json writes "
                            "to a file")
    p_swp.set_defaults(func=_cmd_sweep)

    p_srv = sub.add_parser("serve",
                           help="run the shared result-cache daemon")
    p_srv.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                       help=f"served cache directory (default: {DEFAULT_CACHE_DIR})")
    p_srv.add_argument("--host", default="127.0.0.1",
                       help="bind address (default: 127.0.0.1)")
    p_srv.add_argument("--port", type=int, default=8731,
                       help="bind port; 0 picks an ephemeral port "
                            "(default: 8731)")
    p_srv.add_argument("--max-mb", type=float, default=None,
                       help="size budget in MB for the served cache "
                            "(default: REPRO_CACHE_MAX_MB)")
    p_srv.add_argument("--quiet", action="store_true",
                       help="suppress per-request access log lines")
    p_srv.set_defaults(func=_cmd_serve)

    p_cache = sub.add_parser("cache", help="inspect or manage the sweep result cache")
    p_cache.add_argument("action", choices=["stats", "clear", "prune"],
                         help="stats: counters and size; clear: remove every "
                              "entry; prune: LRU-evict down to the limits")
    p_cache.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR,
                         help=f"cache directory (default: {DEFAULT_CACHE_DIR})")
    p_cache.add_argument("--max-mb", type=float, default=None,
                         help="size budget in MB for prune (default: "
                              "REPRO_CACHE_MAX_MB)")
    p_cache.add_argument("--max-entries", type=int, default=None,
                         help="entry-count budget for prune")
    p_cache.add_argument("--json", metavar="PATH",
                         help="write the result as JSON to PATH ('-' for stdout)")
    p_cache.set_defaults(func=_cmd_cache)

    p_trc = sub.add_parser("trace",
                           help="export a Chrome trace of one LAP workload")
    p_trc.add_argument("--workload", choices=TRACE_WORKLOADS, default="cholesky",
                       help="blocked algorithm to schedule (default: cholesky)")
    p_trc.add_argument("--n", type=int, default=512, help="problem dimension")
    p_trc.add_argument("--tile", type=int, default=64,
                       help="tile edge length (a multiple of --nr)")
    p_trc.add_argument("--cores", type=int, default=8)
    p_trc.add_argument("--nr", type=int, default=4, help="core dimension")
    p_trc.add_argument("--policy", choices=policy_names(), default="greedy")
    p_trc.add_argument("--timing", choices=timing_names(), default="memoized")
    p_trc.add_argument("--seed", type=int, default=0)
    p_trc.add_argument("--onchip-mbytes", type=float, default=4.0,
                       help="physical on-chip memory in MB")
    p_trc.add_argument("--on-chip-kb", type=float, default=None,
                       help="tile-residency capacity override in KiB "
                            "(shrink to surface spill stalls)")
    p_trc.add_argument("--bandwidth-gbs", type=float, default=None,
                       help="off-chip bandwidth override in GB/s")
    p_trc.add_argument("--local-store-kb", type=float, default=None,
                       help="per-core local store in KiB (enables the "
                            "two-level hierarchy)")
    p_trc.add_argument("--stall-overlap", type=float, default=0.0,
                       help="fraction of data-movement cycles hidden under "
                            "compute, in [0, 1] (default: 0)")
    p_trc.add_argument("--out", metavar="PATH", default=None,
                       help="trace output path (default: "
                            "<workload>_n<n>.trace.json)")
    p_trc.set_defaults(func=_cmd_trace)

    p_rep = sub.add_parser("report",
                           help="print attribution / sweep telemetry reports")
    p_rep.add_argument("--trace", metavar="PATH", default=None,
                       help="a .trace.json written by `repro trace`")
    p_rep.add_argument("--manifest", metavar="PATH", default=None,
                       help="a run manifest written by `repro sweep`")
    p_rep.add_argument("--max-rows", type=int, default=16)
    p_rep.add_argument("--json", metavar="PATH", default=None,
                       help="write the report as JSON to PATH ('-' for stdout)")
    p_rep.set_defaults(func=_cmd_report)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BrokenPipeError:
        # Output was piped into a consumer that exited early (e.g. `head`);
        # silence the traceback and exit like a well-behaved filter.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
