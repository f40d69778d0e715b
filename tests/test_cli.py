"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main


def test_experiments_list(capsys):
    assert main(["experiments", "--list"]) == 0
    out = capsys.readouterr().out
    assert "table_3_1" in out
    assert "fig_4_16" in out


def test_experiments_single_table(capsys):
    assert main(["experiments", "table_5_1"]) == 0
    out = capsys.readouterr().out
    assert "== table_5_1 ==" in out
    assert "gemm" in out


def test_experiments_unknown_id(capsys):
    assert main(["experiments", "table_nonexistent"]) == 2
    err = capsys.readouterr().err
    assert "unknown experiment ids" in err


def test_simulate_gemm(capsys):
    assert main(["simulate", "gemm", "--size", "8"]) == 0
    out = capsys.readouterr().out
    assert "kernel        : gemm" in out
    assert "utilisation" in out


def test_simulate_cholesky_and_fft(capsys):
    assert main(["simulate", "cholesky", "--size", "8"]) == 0
    assert main(["simulate", "fft", "--size", "8"]) == 0
    out = capsys.readouterr().out
    assert "cholesky" in out and "fft" in out


def test_simulate_rejects_misaligned_size(capsys):
    assert main(["simulate", "gemm", "--size", "10"]) == 2
    assert "multiple of nr" in capsys.readouterr().err


def test_design_summary(capsys):
    assert main(["design", "--cores", "8", "--frequency", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "gflops_per_w" in out
    assert "area_mm2" in out


def test_simulate_fft_reports_rounded_points(capsys):
    assert main(["simulate", "fft", "--size", "8"]) == 0
    out = capsys.readouterr().out
    assert "64-point" in out
    assert "rounded from --size 8" in out


def test_parser_structure():
    parser = build_parser()
    args = parser.parse_args(["simulate", "trsm", "--size", "12", "--nr", "4"])
    assert args.kernel == "trsm"
    assert args.size == 12
    with pytest.raises(SystemExit):
        parser.parse_args(["simulate", "not-a-kernel"])


def test_experiments_json_to_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    assert main(["experiments", "table_4_1", "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert "table_4_1" in payload["experiments"]
    assert payload["experiments"]["table_4_1"]


def test_design_json_to_stdout(capsys):
    assert main(["design", "--cores", "8", "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["design"]["cores"] == 8
    assert payload["design"]["gflops_per_w"] > 0


def test_sweep_design_grid_reports_frontier(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    argv = ["sweep", "--runner", "design", "--grid", "cores=4,8,16,24",
            "--grid", "nr=2,4,8", "--grid", "frequency_ghz=0.5,1.0",
            "--cache-dir", cache]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "24 jobs: 24 executed, 0 cached" in out
    assert "Pareto frontier" in out
    assert "best per metric:" in out

    # Acceptance: the second, warm-cache run executes zero jobs.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "0 executed, 24 cached" in out


def test_sweep_json_output(tmp_path, capsys):
    argv = ["sweep", "--runner", "design", "--grid", "cores=4,8",
            "--no-cache", "--json", "-"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["jobs"] == 2
    assert len(payload["rows"]) == 2
    assert payload["objectives"] == ["gflops", "gflops_per_w", "gflops_per_mm2"]
    assert payload["frontier"]


def test_sweep_zip_and_set(tmp_path, capsys):
    argv = ["sweep", "--runner", "design", "--set", "nr=4",
            "--zip", "cores=4,8", "--zip", "frequency_ghz=1.0,1.4",
            "--no-cache", "--json", "-"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["jobs"] == 2
    freqs = [row["frequency_ghz"] for row in payload["rows"]]
    assert freqs == [1.0, 1.4]


def test_sweep_simulate_runner(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    argv = ["sweep", "--runner", "simulate", "--grid", "kernel=gemm,syrk",
            "--grid", "size=8,16", "--cache-dir", cache, "--json", "-"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["executed"] == 4
    assert {row["kernel"] for row in payload["rows"]} == {"gemm", "syrk"}
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["executed"] == 0 and payload["cached"] == 4


def test_sweep_rejects_empty_spec(capsys):
    assert main(["sweep", "--runner", "design"]) == 2
    assert "no jobs" in capsys.readouterr().err


def test_sweep_rejects_malformed_axis(capsys):
    assert main(["sweep", "--grid", "cores"]) == 2
    assert "--grid expects" in capsys.readouterr().err


def test_simulate_fft_accepts_unaligned_size(capsys):
    # fft derives a radix-4 point count, so the nr-alignment rule of the
    # matrix kernels does not apply (matches the engine's simulate runner).
    assert main(["simulate", "fft", "--size", "10"]) == 0
    assert "64-point" in capsys.readouterr().out


def test_sweep_rejects_duplicate_set(capsys):
    assert main(["sweep", "--set", "nr=2", "--set", "nr=8",
                 "--grid", "cores=4", "--no-cache"]) == 2
    assert "already defined" in capsys.readouterr().err


def test_json_to_unwritable_path_fails_cleanly(capsys):
    assert main(["design", "--json", "/proc/nope/x.json"]) == 2
    assert "cannot write JSON" in capsys.readouterr().err


def test_simulate_rejects_nonpositive_size(capsys):
    assert main(["simulate", "fft", "--size", "0"]) == 2
    assert "size must be positive" in capsys.readouterr().err


def test_sweep_rejects_nonfinite_axis_value(capsys):
    assert main(["sweep", "--runner", "design", "--grid", "cores=inf",
                 "--no-cache"]) == 2
    assert "sweep failed" in capsys.readouterr().err


def test_sweep_best_per_metric_lists_float_axes(capsys):
    assert main(["sweep", "--runner", "design", "--grid", "cores=4,8",
                 "--grid", "frequency_ghz=0.5,1.0", "--no-cache"]) == 0
    out = capsys.readouterr().out
    best_lines = out.split("best per metric:")[1]
    assert "frequency_ghz=" in best_lines


def test_sweep_rejects_duplicate_axis_cleanly(capsys):
    assert main(["sweep", "--grid", "cores=4,8", "--grid", "cores=16",
                 "--no-cache"]) == 2
    assert "already defined" in capsys.readouterr().err


def test_sweep_rejects_duplicate_zip_axis(capsys):
    assert main(["sweep", "--zip", "cores=4,8", "--zip", "cores=16,32",
                 "--no-cache"]) == 2
    assert "already defined" in capsys.readouterr().err


def test_sweep_unusable_cache_dir_degrades_to_no_cache(tmp_path, capsys):
    blocker = tmp_path / "cachefile"
    blocker.write_text("not a directory")
    assert main(["sweep", "--runner", "design", "--grid", "cores=4,8",
                 "--cache-dir", str(blocker)]) == 0
    captured = capsys.readouterr()
    assert "cache directory unusable" in captured.err
    assert "2 executed" in captured.out


def test_sweep_rejects_zip_length_mismatch_cleanly(capsys):
    assert main(["sweep", "--zip", "cores=4,8", "--zip", "nr=2",
                 "--no-cache"]) == 2
    assert "equal lengths" in capsys.readouterr().err


def test_sweep_warns_on_unknown_parameter(capsys):
    assert main(["sweep", "--runner", "design", "--grid", "coresz=4,8",
                 "--no-cache"]) == 0
    err = capsys.readouterr().err
    assert "ignores parameter(s) coresz" in err


@pytest.mark.parametrize("name", ["fast", "replay"])
def test_sweep_warns_on_retired_parameter(name, capsys):
    """`fast` no longer selects a scheduler loop (there is one) and
    `replay` no longer switches schedule replay (it is always on), so a
    sweep axis naming either is flagged like any other unknown parameter."""
    assert main(["sweep", "--runner", "lap_runtime", "--set", "n=16",
                 "--set", "timing=memoized", "--set", "verify=0",
                 "--grid", f"{name}=0,1", "--no-cache"]) == 0
    err = capsys.readouterr().err
    assert f"ignores parameter(s) {name}" in err


def test_sweep_rejects_unknown_objective(capsys):
    argv = ["sweep", "--runner", "design", "--grid", "cores=4,8",
            "--no-cache", "--objectives", "not_a_column"]
    assert main(argv) == 2
    assert "sweep failed" in capsys.readouterr().err


def test_sweep_lists_new_runner_families():
    parser = build_parser()
    args = parser.parse_args(["sweep", "--runner", "lap_runtime",
                              "--grid", "n=16"])
    assert args.runner == "lap_runtime"
    args = parser.parse_args(["sweep", "--runner", "blocked_fact",
                              "--grid", "method=lu"])
    assert args.runner == "blocked_fact"
    for runner in ("chip_gemm_onchip", "blas", "fact_kernel"):
        assert parser.parse_args(["sweep", "--runner", runner,
                                  "--grid", "n=512"]).runner == runner


def test_sweep_lap_runtime_runner_end_to_end(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    argv = ["sweep", "--runner", "lap_runtime", "--set", "algorithm=gemm",
            "--set", "tile=8", "--set", "num_cores=2", "--grid", "n=16,24",
            "--cache-dir", cache, "--json", "-"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["executed"] == 2
    assert all(row["residual"] < 1e-9 for row in payload["rows"])
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["executed"] == 0 and payload["cached"] == 2


def test_sweep_policy_comparison_end_to_end(tmp_path, capsys):
    """Acceptance: the policy-comparison sweep runs through the cached,
    parallel engine from the CLI (policies x cores, LU/QR workloads)."""
    cache = str(tmp_path / "cache")
    argv = ["sweep", "--runner", "lap_runtime",
            "--grid", "policy=greedy,critical_path,locality",
            "--grid", "num_cores=1,2", "--grid", "algorithm=lu,qr",
            "--set", "n=16", "--set", "tile=8", "--set", "timing=memoized",
            "--cache-dir", cache, "--mode", "process", "--json", "-"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["executed"] == 12
    assert {row["policy"] for row in payload["rows"]} == {
        "greedy", "critical_path", "locality"}
    assert all(row["residual"] < 1e-9 for row in payload["rows"])
    # Warm-cache rerun: every policy point comes back from the cache.
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["executed"] == 0 and payload["cached"] == 12


def test_experiments_lists_runtime_policy_sweep(capsys):
    assert main(["experiments", "--list"]) == 0
    assert "runtime_policies" in capsys.readouterr().out


def test_sweep_blocked_fact_runner_end_to_end(capsys):
    argv = ["sweep", "--runner", "blocked_fact", "--grid",
            "method=cholesky,lu,qr", "--set", "n=8", "--no-cache", "--json", "-"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {row["method"] for row in payload["rows"]} == {"cholesky", "lu", "qr"}
    assert all(row["residual"] < 1e-8 for row in payload["rows"])


# ------------------------------------------------------------------- cache
def _seed_cache(tmp_path, capsys, jobs=4):
    cache_dir = str(tmp_path / "cache")
    assert main(["sweep", "--runner", "design", "--grid",
                 "cores=" + ",".join(str(4 * (i + 1)) for i in range(jobs)),
                 "--cache-dir", cache_dir, "--json", os.devnull]) == 0
    capsys.readouterr()  # drain the sweep's output before the cache command
    return cache_dir


def test_cache_stats(tmp_path, capsys):
    cache_dir = _seed_cache(tmp_path, capsys)
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "entries       : 4" in out
    assert "size_mbytes" in out
    assert "replay        : 0 sidecar entries" in out


def test_cache_stats_json(tmp_path, capsys):
    cache_dir = _seed_cache(tmp_path, capsys)
    assert main(["cache", "stats", "--cache-dir", cache_dir,
                 "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cache"]["entries"] == 4
    assert payload["cache"]["size_bytes"] > 0


def test_cache_prune_to_entry_budget(tmp_path, capsys):
    cache_dir = _seed_cache(tmp_path, capsys)
    assert main(["cache", "prune", "--cache-dir", cache_dir,
                 "--max-entries", "1"]) == 0
    assert "pruned 3 entries; 1 left" in capsys.readouterr().out


def test_cache_prune_and_clear_honor_json(tmp_path, capsys):
    cache_dir = _seed_cache(tmp_path, capsys)
    assert main(["cache", "prune", "--cache-dir", cache_dir,
                 "--max-entries", "2", "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cache"]["action"] == "prune"
    assert payload["cache"]["removed"] == 2
    assert payload["cache"]["entries"] == 2
    assert main(["cache", "clear", "--cache-dir", cache_dir,
                 "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cache"] == {"action": "clear", "removed": 2,
                                "directory": cache_dir}


def test_cache_prune_to_size_budget(tmp_path, capsys):
    cache_dir = _seed_cache(tmp_path, capsys)
    assert main(["cache", "prune", "--cache-dir", cache_dir,
                 "--max-mb", "0.0001"]) == 0
    out = capsys.readouterr().out
    assert "pruned" in out
    assert main(["cache", "stats", "--cache-dir", cache_dir, "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cache"]["size_bytes"] <= 0.0001 * 2 ** 20


def test_cache_prune_without_limits_fails_cleanly(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("REPRO_CACHE_MAX_MB", raising=False)
    cache_dir = _seed_cache(tmp_path, capsys)
    assert main(["cache", "prune", "--cache-dir", cache_dir]) == 2
    assert "needs a limit" in capsys.readouterr().err


def test_cache_clear(tmp_path, capsys):
    cache_dir = _seed_cache(tmp_path, capsys)
    assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    assert "removed 4 cache entries" in capsys.readouterr().out
    assert main(["cache", "stats", "--cache-dir", cache_dir, "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cache"]["entries"] == 0


def test_cache_clear_missing_directory_fails_cleanly(tmp_path, capsys):
    assert main(["cache", "clear", "--cache-dir",
                 str(tmp_path / "nope")]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_cache_stats_missing_directory_does_not_create_it(tmp_path, capsys):
    target = tmp_path / "nope"
    assert main(["cache", "stats", "--cache-dir", str(target)]) == 0
    assert "does not exist yet" in capsys.readouterr().out
    assert not target.exists()
    assert main(["cache", "stats", "--cache-dir", str(target),
                 "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cache"] == {"directory": str(target), "exists": False,
                                "entries": 0, "size_bytes": 0}
    assert not target.exists()


# --------------------------------------------------------- trace / report
def _trace(tmp_path, capsys, *extra):
    out = str(tmp_path / "t.trace.json")
    assert main(["trace", "--workload", "cholesky", "--n", "64",
                 "--tile", "16", "--cores", "2", "--out", out, *extra]) == 0
    return out, capsys.readouterr().out


def test_trace_writes_valid_chrome_trace(tmp_path, capsys):
    from repro.obs import validate_chrome_trace

    out, printed = _trace(tmp_path, capsys)
    assert "makespan" in printed and "TOTAL" in printed
    assert "compute%" in printed and "idle%" in printed
    with open(out) as handle:
        payload = json.load(handle)
    events = validate_chrome_trace(payload)
    tasks = [e for e in events if e.get("cat") == "task"]
    assert tasks and {e["tid"] for e in tasks} == {0, 1}
    assert all("compute_cycles" in e["args"] for e in tasks)
    meta = payload["metadata"]
    assert meta["time_unit"] == "cycles"
    assert meta["workload"]["workload"] == "cholesky"
    attribution = meta["cycle_attribution"]
    assert attribution["num_cores"] == 2
    assert sum(attribution["totals"].values()) == pytest.approx(
        attribution["total_cycles"], rel=1e-6)


def test_trace_with_memory_pressure_reports_stalls(tmp_path, capsys):
    out, printed = _trace(tmp_path, capsys, "--on-chip-kb", "8",
                          "--bandwidth-gbs", "8", "--local-store-kb", "2",
                          "--stall-overlap", "0.5")
    with open(out) as handle:
        totals = json.load(handle)["metadata"]["cycle_attribution"]["totals"]
    assert totals["spill_stall"] > 0 and totals["transfer"] > 0


def test_trace_rejects_bad_geometry(tmp_path, capsys):
    assert main(["trace", "--workload", "cholesky", "--n", "60",
                 "--tile", "16", "--out", str(tmp_path / "x.json")]) == 2
    assert "trace failed" in capsys.readouterr().err


def test_report_from_trace(tmp_path, capsys):
    out, _ = _trace(tmp_path, capsys)
    assert main(["report", "--trace", out]) == 0
    printed = capsys.readouterr().out
    assert "cycle attribution" in printed and "TOTAL" in printed
    assert "workload=cholesky" in printed


def test_report_from_manifest_and_json(tmp_path, capsys):
    rows = str(tmp_path / "rows.json")
    assert main(["sweep", "--runner", "design", "--grid", "cores=4,8",
                 "--cache-dir", str(tmp_path / "cache"), "--json", rows]) == 0
    capsys.readouterr()
    manifest = rows + ".manifest.json"
    assert os.path.exists(manifest)
    assert main(["report", "--manifest", manifest]) == 0
    printed = capsys.readouterr().out
    assert "sweep telemetry [design]" in printed
    assert "2 jobs" in printed and "hit rate" in printed
    assert main(["report", "--trace", _trace(tmp_path, capsys)[0],
                 "--manifest", manifest, "--json", "-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["manifest"]["schema"] == "repro.obs.run_manifest/v1"
    assert payload["trace"]["cycle_attribution"]["num_cores"] == 2


def test_sweep_stream_live_progress_and_manifest(tmp_path, capsys):
    rows = str(tmp_path / "rows.json")
    argv = ["sweep", "--runner", "design", "--grid", "cores=4,8,16",
            "--grid", "nr=2,4", "--cache-dir", str(tmp_path / "cache"),
            "--stream", "--json", rows]
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "6/6 rows" in captured.err
    assert "% cached" in captured.err
    assert "frontier" in captured.err
    manifest = rows + ".manifest.json"
    with open(manifest) as handle:
        streaming = json.load(handle)["streaming"]
    assert streaming["first_row_s"] is not None
    assert streaming["last_row_s"] >= streaming["first_row_s"]

    # The warm streaming re-run reports a 100% hit-rate live.
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert "100% cached" in captured.err
    with open(rows) as handle:
        payload = json.load(handle)
    assert payload["executed"] == 0 and payload["cached"] == 6

    # `repro report` surfaces the recorded streaming latencies.
    assert main(["report", "--manifest", manifest]) == 0
    assert "streaming     : first row" in capsys.readouterr().out


def test_sweep_stream_non_tty_emits_newline_updates(tmp_path, capsys):
    """Captured (non-TTY) stderr gets plain newline-delimited progress --
    no carriage-return animation -- and the final state always renders,
    even when 10 Hz throttling swallows intermediate redraws."""
    assert main(["sweep", "--runner", "design", "--grid", "cores=4,8,16",
                 "--no-cache", "--stream", "--json", os.devnull]) == 0
    err = capsys.readouterr().err
    assert "\r" not in err
    lines = [line for line in err.splitlines() if "rows" in line]
    assert lines and lines[-1].startswith("3/3 rows")


def test_sweep_stream_rows_match_batch(tmp_path, capsys):
    batch = ["sweep", "--runner", "design", "--grid", "cores=4,8",
             "--no-cache", "--json", "-"]
    assert main(batch) == 0
    expected = json.loads(capsys.readouterr().out)["rows"]
    assert main(batch + ["--stream"]) == 0
    assert json.loads(capsys.readouterr().out)["rows"] == expected


def test_sweep_explicit_manifest_path(tmp_path, capsys):
    target = str(tmp_path / "custom.manifest.json")
    assert main(["sweep", "--runner", "design", "--grid", "cores=4,8",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--manifest", target, "--json", os.devnull]) == 0
    capsys.readouterr()
    with open(target) as handle:
        manifest = json.load(handle)
    assert manifest["jobs"] == 2 and manifest["runner"] == "design"


def test_report_requires_an_input(capsys):
    assert main(["report"]) == 2
    assert "nothing to report" in capsys.readouterr().err


def test_report_missing_trace_fails_cleanly(tmp_path, capsys):
    assert main(["report", "--trace", str(tmp_path / "nope.json")]) == 2
    assert "cannot read attribution" in capsys.readouterr().err


def test_cache_stats_reports_lifetime_counters(tmp_path, capsys):
    cache_dir = _seed_cache(tmp_path, capsys)
    _seed_cache(tmp_path, capsys)  # warm second run: all hits
    assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "hits          : 4 (lifetime)" in out
    assert "misses        : 4 (lifetime)" in out
    assert "hit_rate      : 50.0% (lifetime)" in out


# ------------------------------------------------------------------- serve
def test_sweep_server_without_local_tier_warns_and_runs(capsys):
    assert main(["sweep", "--runner", "design", "--set", "nr=4",
                 "--grid", "cores=2,4", "--mode", "serial", "--no-cache",
                 "--server", "http://127.0.0.1:1"]) == 0
    captured = capsys.readouterr()
    assert "ignoring --server" in captured.err
    assert "2 jobs" in captured.out


def test_serve_rejects_unusable_cache_dir(capsys):
    assert main(["serve", "--cache-dir", "/proc/nope/x"]) == 2
    assert "unusable" in capsys.readouterr().err


def test_sweep_against_live_server_deduplicates(tmp_path, capsys):
    from repro.serve import ServeDaemon

    daemon = ServeDaemon(tmp_path / "server", quiet=True).start()
    try:
        base = ["sweep", "--runner", "design", "--set", "nr=4",
                "--grid", "cores=2,4", "--mode", "serial",
                "--server", daemon.url, "--json", "-"]
        assert main(base + ["--cache-dir", str(tmp_path / "a")]) == 0
        first = json.loads(capsys.readouterr().out)
        assert first["executed"] == 2

        # A second client with an empty local cache resolves everything
        # through the shared server tier.
        assert main(base + ["--cache-dir", str(tmp_path / "b")]) == 0
        second = json.loads(capsys.readouterr().out)
        assert second["executed"] == 0
        assert second["cached"] == 2
        assert json.dumps(second["rows"]) == json.dumps(first["rows"])
    finally:
        daemon.stop()
