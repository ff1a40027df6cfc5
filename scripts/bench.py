#!/usr/bin/env python3
"""Time one fit of each default estimator on the reference scenario.

For N = 100, 1000 and 10000 snapshots, draws a fixed set of sample
covariances from the reference scenario (``default_spec``) and times every
estimator of ``default_estimators("uniform")`` on each of them with
``time.perf_counter``.  Per (estimator, N) it reports:

- ``ms_per_fit``: wall time of one ``estimate`` / ``estimate_parametric``
  call;
- ``grid_ms_per_fit``: the time from entering the estimator to its first
  point evaluation (``fit_terms``), i.e. input checks, weighting and the
  coarse grid scan, before any refinement.

Each figure is the median over ``REPEATS`` passes of the mean over
``COVARIANCES`` covariances per N.  BLAS runs on one thread, as in
``perfbench``.  The JSON record also holds the core count and the Python,
numpy and scipy versions.

To compare two commits, run the script once per checkout into the same
file, e.g. from the repository root::

    python3 scripts/bench.py --src /path/to/parent/src --label parent --out BENCH_4.json
    python3 scripts/bench.py --label change --out BENCH_4.json

``--src`` picks the ``src`` directory that ``tomoments`` is imported from
(default: the one next to this script); ``--out`` adds or replaces the
``--label`` entry of an existing file and keeps the others.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = str(BLAS_THREADS)

N_VALUES = (100, 1000, 10000)
REPEATS = 7
COVARIANCES = 8


def _import_package(src: Path):
    sys.path.insert(0, str(src))
    import numpy
    import scipy

    import tomoments
    import tomoments.moments
    import tomoments.parametric

    return numpy, scipy, tomoments


def _first_point_clock(modules):
    """Wrap each module's ``fit_terms`` so the first call of a fit stamps the clock."""
    stamp = {"t": None}
    for module in modules:
        original = module.fit_terms

        def wrapped(*args, _original=original, **kwargs):
            if stamp["t"] is None:
                stamp["t"] = time.perf_counter()
            return _original(*args, **kwargs)

        module.fit_terms = wrapped
    return stamp


def measure(src: Path) -> dict:
    numpy, scipy, tm = _import_package(src)
    spec = tm.default_spec("rmse_vs_N")
    R_true = tm.true_covariance(spec.profile, spec.array, spec.sigma_eps2)
    estimators = tm.default_estimators("uniform")
    fit = {"moments": tm.moments.estimate, "parametric": tm.parametric.estimate_parametric}
    stamp = _first_point_clock((tm.moments, tm.parametric))
    samples = {
        N: [
            tm.sample_covariance(tm.sample_snapshots(R_true, N, seed=1000 * N + index))
            for index in range(COVARIANCES)
        ]
        for N in N_VALUES
    }
    totals = {(e.label, N): [] for e in estimators for N in N_VALUES}
    grids = {(e.label, N): [] for e in estimators for N in N_VALUES}
    for _ in range(REPEATS):
        for e in estimators:
            for N in N_VALUES:
                total = grid = 0.0
                for R_bar in samples[N]:
                    stamp["t"] = None
                    start = time.perf_counter()
                    fit[e.method](R_bar, e.config, spec.array)
                    end = time.perf_counter()
                    total += end - start
                    grid += (stamp["t"] or end) - start
                totals[e.label, N].append(1e3 * total / COVARIANCES)
                grids[e.label, N].append(1e3 * grid / COVARIANCES)

    def medians(table):
        return {
            e.label: {str(N): round(statistics.median(table[e.label, N]), 4) for N in N_VALUES}
            for e in estimators
        }

    return {
        "ms_per_fit": medians(totals),
        "grid_ms_per_fit": medians(grids),
        "machine": {
            "cores": os.cpu_count(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    default_src = Path(__file__).resolve().parents[1] / "src"
    parser.add_argument("--src", type=Path, default=default_src, help="directory tomoments is imported from")
    parser.add_argument("--label", default="change", help="name of this run in the output file")
    parser.add_argument("--out", type=Path, help="JSON file to add the run to (printed when omitted)")
    args = parser.parse_args(argv)

    run = measure(args.src.resolve())
    run["settings"] = {"repeats": REPEATS, "covariances_per_N": COVARIANCES, "blas_threads": BLAS_THREADS}
    if args.out is None:
        print(json.dumps(run, indent=1))
        return 0
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record[args.label] = run
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.label} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
