#!/usr/bin/env python3
"""Print the SHA-256 of the 22 CSVs that show whether a change moved any output.

- 16 from the benchmark workloads: every variant of every workload in
  ``perfbench/workloads.py``, run through ``tomoments.cli.main`` (read only;
  nothing under ``perfbench/`` changes);
- 4 from ``tomoments spectrum``;
- 2 from ``tomoments rmse --trials 6 --workers 2 --dump-trials``.

Every run omits the timestamp header.  Run it in two checkouts and compare
the listings: equal lines mean byte-identical CSVs.

    python3 scripts/csv_digests.py [--out DIR]
"""

import argparse
import contextlib
import hashlib
import os
import sys
import tempfile
from pathlib import Path

# one BLAS thread, as the benchmark runs; set before numpy is imported
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from tomoments.cli import main as cli_main  # noqa: E402


def _run(argv) -> None:
    with contextlib.redirect_stdout(sys.stderr):
        code = cli_main(list(argv))
    if code != 0:
        raise SystemExit(f"tomoments {' '.join(argv)} failed")


def digests(out: Path) -> list:
    """``(sha256, name)`` of every CSV, named by its path under ``out``."""
    for workload in workloads.WORKLOADS:
        for sweep in workloads.build_all(workload, out / workload):
            _run(sweep.argv)
    _run(["spectrum", "--no-timestamp", "--out", str(out / "spectrum")])
    _run(
        ["rmse", "--trials", "6", "--workers", "2", "--dump-trials", "--no-timestamp", "--out", str(out / "rmse")]
    )
    paths = sorted(out.rglob("*.csv"))
    return [(hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(out).as_posix()) for path in paths]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--out", type=Path, help="directory for the CSVs (a temporary one when omitted)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as scratch:
        rows = digests(args.out or Path(scratch))
    for digest, name in rows:
        print(f"{digest}  {name}", flush=True)
    print(f"{len(rows)} CSVs", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
