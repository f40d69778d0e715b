"""Expected sweep rows: record them once, then check every benchmark row.

Under memoized timing with ``verify=False`` a ``lap_runtime`` row does not
depend on the operand data, so rows are stored and compared with the
``seed`` column (and the ``seed`` parameter) dropped.  A run with any seed
is then checked exactly against rows recorded with another.

Each row set is a gzipped JSON object mapping the canonical job parameters
to the canonical row text, under ``perfbench/expected/<set>.json.gz``.
Record (or re-record, after a change that is meant to alter rows) with::

    PYTHONPATH=src python3 perfbench/expected.py
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import pathlib
import sys
from typing import Dict, Mapping, Optional

HERE = pathlib.Path(__file__).resolve().parent
DEFAULT_DIR = HERE / "expected"


def job_text(params: Mapping) -> str:
    """Canonical key of a job's parameters, ``seed`` dropped."""
    return json.dumps({k: v for k, v in params.items() if k != "seed"},
                      sort_keys=True)


def row_text(row: Mapping) -> str:
    """Canonical text of a result row, ``seed`` dropped."""
    return json.dumps({k: v for k, v in row.items() if k != "seed"},
                      sort_keys=True)


def path_for(workload: str, tiny: bool = False,
             directory: Optional[os.PathLike] = None) -> pathlib.Path:
    from workloads import rows_name

    suffix = "_tiny" if tiny else ""
    return pathlib.Path(directory or DEFAULT_DIR) / f"{rows_name(workload)}{suffix}.json.gz"


def load(workload: str, tiny: bool = False,
         directory: Optional[os.PathLike] = None) -> Dict[str, str]:
    with gzip.open(path_for(workload, tiny, directory), "rt") as handle:
        return json.load(handle)


def save(rows: Dict[str, str], workload: str, tiny: bool = False,
         directory: Optional[os.PathLike] = None) -> pathlib.Path:
    path = path_for(workload, tiny, directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    # mtime=0 keeps the file byte-identical when the rows are.
    with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb",
                                                mtime=0) as handle:
        handle.write(json.dumps(rows, sort_keys=True, indent=0).encode())
    return path


def mismatch(expected: Mapping[str, str], params: Mapping,
             row: Mapping) -> Optional[str]:
    """``None`` when ``row`` is the expected row of ``params``, else why not."""
    want = expected.get(job_text(params))
    if want is None:
        return f"no expected row for {job_text(params)}"
    got = row_text(row)
    if got == want:
        return None
    want_row, got_row = json.loads(want), json.loads(got)
    keys = sorted(k for k in set(want_row) | set(got_row)
                  if want_row.get(k, "<absent>") != got_row.get(k, "<absent>"))
    detail = ", ".join(f"{k}: {want_row.get(k, '<absent>')!r} -> "
                       f"{got_row.get(k, '<absent>')!r}" for k in keys[:4])
    return f"{job_text(params)}: {detail}"


def record(workload: str, seed: int = 0, tiny: bool = False,
           directory: Optional[os.PathLike] = None) -> pathlib.Path:
    """Run a workload once (serially, no cache) and store its rows."""
    from repro.engine import SweepExecutor
    from workloads import jobs

    job_list = jobs(workload, seed, tiny)
    result = SweepExecutor(mode="serial").run(job_list)
    rows = {job_text(job.params_dict): row_text(row)
            for job, row in zip(job_list, result.rows)}
    return save(rows, workload, tiny, directory)


def main(argv=None) -> int:
    from workloads import SPECS, rows_name

    parser = argparse.ArgumentParser(description="Record the expected rows.")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    for workload in {rows_name(w): w for w in SPECS}.values():
        print(f"recorded {record(workload, args.seed)}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
