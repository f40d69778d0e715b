"""Self-test of the benchmark on its tiny workloads.

Run from the repository root (takes about a minute)::

    python3 -m pytest perfbench/selftest.py -q

The tiny expected rows are recorded into a temporary directory first, so
the test also covers the recording path.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from workloads import SPECS  # noqa: E402

#: Every workload the benchmark can run, including ``warm_resweep``, which
#: BENCHMARK.json leaves out (see README.md).
WORKLOADS = list(SPECS)


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(SPECS)


@pytest.fixture(scope="module")
def expected_dir(tmp_path_factory):
    import expected
    from workloads import rows_name

    directory = tmp_path_factory.mktemp("expected")
    for name in {rows_name(w): w for w in WORKLOADS}.values():
        expected.record(name, seed=5, tiny=True, directory=directory)
    return directory


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--seconds", "1", *args],
        cwd=str(cwd), capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_prints_with_its_unit(workload, expected_dir):
    proc = bench("--workload", workload, "--seed", "9", "--trace", "0",
                 "--tiny", "--expected-dir", str(expected_dir))
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in want.items():
        assert any(line.split()[:1] == [name] and unit in line.split()
                   for line in proc.stdout.splitlines()), name


def test_every_per_layer_metric_prints_and_trace_validates(expected_dir):
    from repro.obs.chrome import validate_chrome_trace

    proc = bench("--workload", "delta_replay", "--seed", "9", "--trace", "1",
                 "--tiny", "--expected-dir", str(expected_dir))
    assert proc.returncode == 0, proc.stderr
    result = result_of(proc)
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["engine.runners.calls"] == metrics["engine.cache.put_calls"] == 32
    assert 0 < metrics["engine.runners.replayed_ratio"] < 1
    trace = json.loads((ROOT / ".perfbench" / "delta_replay.trace.json").read_text())
    events = validate_chrome_trace(trace)
    points = {e["id"] for e in events if e.get("name") == "engine.runners.lap_runtime"}
    assert points == set(range(32))


def test_a_perturbed_expected_row_is_reported_as_a_failure(expected_dir, tmp_path):
    import expected

    broken = tmp_path / "expected"
    shutil.copytree(expected_dir, broken)
    rows = expected.load("pressure_sched", tiny=True, directory=broken)
    key = sorted(rows)[0]
    row = json.loads(rows[key])
    row["makespan_cycles"] += 1
    rows[key] = json.dumps(row, sort_keys=True)
    expected.save(rows, "pressure_sched", tiny=True, directory=broken)
    proc = bench("--workload", "pressure_sched", "--seed", "9", "--trace", "0",
                 "--tiny", "--expected-dir", str(broken))
    assert proc.returncode != 0
    result = result_of(proc)
    assert not result["correct"] and result["failed"] >= 1
    assert "makespan_cycles" in proc.stderr


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cold_grid", "--seed", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_recorded_rows_cover_every_job(workload):
    import expected
    from workloads import jobs

    rows = expected.load(workload)
    assert {expected.job_text(job.params_dict) for job in jobs(workload, 123)} == set(rows)
