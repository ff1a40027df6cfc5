"""Write the stored reference outputs under ``perfbench/reference``.

    python3 -m perfbench.make_reference [workload ...]

Runs every input variant of each workload once, serially, and stores its
CSVs in the compact form :func:`perfbench.check.summarize` gives.  The
stored files were made by the code the benchmark was defined on; rerun this
only when a change to the outputs is intended, and say so.
"""

from __future__ import annotations

import gzip
import json
import shutil
import sys
from pathlib import Path

from . import check, workloads
from .measure import import_program, run_sweep

# The interpolation CSV has ~20k rows per sweep; every 16th is kept.
_STRIDES = {"asymptotic_interpolation.csv": 16}


def make(workload: str, scratch: Path) -> dict:
    reference = {}
    for variant in range(workloads.variant_count(workload)):
        sweep = workloads.build(workload, variant, scratch / workload / str(variant))
        run_sweep(sweep)
        texts = sweep.read()
        attempted, failed = check.fit_counts(texts)
        if failed:
            raise RuntimeError(f"{workload} variant {variant}: {failed} of {attempted} fits failed")
        reference[str(variant)] = {
            name: check.summarize(text, _STRIDES.get(Path(name).name, 1)) for name, text in texts.items()
        }
        print(f"{workload} variant {variant}: {attempted} fits", file=sys.stderr)
    return reference


def main(argv) -> int:
    import_program()
    names = argv or list(workloads.WORKLOADS)
    scratch = check.HERE.parent / ".bench_out" / "reference"
    try:
        for workload in names:
            reference = make(workload, scratch)
            path = check.reference_path(workload)
            path.parent.mkdir(parents=True, exist_ok=True)
            payload = json.dumps(reference, sort_keys=True, separators=(",", ":")).encode()
            with open(path, "wb") as raw, gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as handle:
                handle.write(payload)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
