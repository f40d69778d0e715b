"""Shared fixtures and reporting helpers for the benchmark harness.

Each benchmark regenerates one table or figure of the evaluation, asserts its
headline qualitative claim, and (when ``--print-experiments`` is given or the
environment variable ``REPRO_PRINT_EXPERIMENTS`` is set) prints the rendered
table so that EXPERIMENTS.md can be refreshed from the bench output.

Benchmarks that track a perf trajectory across PRs additionally emit
machine-readable ``BENCH_<name>.json`` files through the :func:`bench_json`
fixture (directory: ``$REPRO_BENCH_JSON_DIR``, default
``benchmarks/results/``), so CI runs can be diffed mechanically.
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

import pytest

# The reference scheduler loop lives with the tests (``tests/oracle``);
# benchmarks that measure the production loop against it import it from
# there.
sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tests"))

from repro.experiments.report import summarize_experiment


def pytest_addoption(parser):
    parser.addoption("--print-experiments", action="store_true", default=False,
                     help="print every regenerated table/figure to stdout")


@pytest.fixture
def report(request):
    """Callable fixture: report(exp_id, data) prints the rendered experiment."""
    enabled = (request.config.getoption("--print-experiments")
               or bool(os.environ.get("REPRO_PRINT_EXPERIMENTS")))

    def _report(exp_id: str, data) -> None:
        if enabled:
            print()
            print(summarize_experiment(exp_id, data))

    return _report


@pytest.fixture
def bench_json(request):
    """Callable fixture: ``bench_json(name, payload)`` persists one result.

    Writes ``BENCH_<name>.json`` (JSON: bench name, originating test, repro
    version, unix timestamp, payload) into ``$REPRO_BENCH_JSON_DIR`` or
    ``benchmarks/results/`` and returns the path, so the perf trajectory of
    a benchmark can be compared across PRs without scraping pytest output.
    """
    from repro import __version__

    def _write(name: str, payload: dict) -> pathlib.Path:
        out_dir = pathlib.Path(os.environ.get(
            "REPRO_BENCH_JSON_DIR",
            pathlib.Path(__file__).resolve().parent / "results"))
        out_dir.mkdir(parents=True, exist_ok=True)
        path = out_dir / f"BENCH_{name}.json"
        record = {
            "bench": name,
            "test": request.node.nodeid,
            "repro_version": __version__,
            "timestamp": time.time(),
            "payload": payload,
        }
        path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
        return path

    return _write
