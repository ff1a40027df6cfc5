#!/usr/bin/env python3
"""Print the SHA-256 of the 44 CSVs that show whether a change moved any output.

- 16 from the benchmark workloads: every variant of every workload in
  ``perfbench/workloads.py``, run through ``tomoments.cli.main`` (read only;
  nothing under ``perfbench/`` changes);
- 4 from ``tomoments spectrum``;
- 4 from ``tomoments spectrum --config`` on a point profile
  (:data:`POINT_SPECTRUM`): a header-only density table, the point family's
  curves and measurements, and the interpolation rows of the default moment
  fits and an identity-weighted full D = 6 moment fit; the parametric
  estimator in the spec has no moment polynomial and is skipped;
- 2 from ``tomoments rmse --trials 6 --workers 2 --dump-trials``;
- 18 from ``tomoments rmse`` or ``tomoments bias``, by the spec's kind,
  with ``--trials 6 --dump-trials`` (20 trials where :data:`_TRIALS` says
  so) on the paths those miss (:data:`EXTRA_SPECS`): the identity
  weighting with a full moment fit at D = 6 and with both parametric fits,
  a parametric fit bounded by ``z0_max`` on a sparse stack, a full D = 4
  moment fit bounded the same way with its source 0.3 m inside either
  edge, where the refinement's bracket is clipped to the bounds, both
  parametric fits at N = 6, 8 and 10, whose inverse-sample weightings
  straddle the condition limit of the polish's fast points, both moment
  fits at N = 4, 6 and 8, whose weightings straddle the same limit of the
  moment grid's and refinement's fast forms, estimator labels that hold a
  comma and a double quote, so that their cells are quoted with the quotes
  doubled, and a bias scan of the default estimators on noiseless exact
  covariances, whose weightings are ill-conditioned (every other scenario
  has ``sigma_eps2 = 10``).

Every run omits the timestamp header.  Run it in two checkouts and compare
the listings: equal lines mean byte-identical CSVs.

    python3 scripts/csv_digests.py [--out DIR]
"""

import argparse
import contextlib
import hashlib
import json
import math
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
from tomoments.experiments import default_estimators  # noqa: E402

# the reference scenario of the workloads, on paths they do not take
_SCENARIO = {
    "kind": "rmse_vs_N",
    "profile": {"shape": "uniform", "z0": 10.0, "sigma_z": 5.0, "P": 100.0},
    "sigma_eps2": 10.0,
    "N_list": [100, 1000],
}
# lags 0, 1, 3 and 7 of a 100 m ambiguity; 80 m is not a period, so the
# refined height stays inside [0, 80)
_SPARSE_ARRAY = {"kz": [2.0 * math.pi / 100.0 * lag for lag in (0, 1, 3, 7)], "ambiguity": 100.0}
_SPARSE_MOMENTS = {"label": "moments-full4-z80", "method": "moments", "D": 4, "symmetric": False,
                   "weighting": "inverse_sample", "z0_max": 80.0}
POINT_SPECTRUM = {
    "kind": "spectrum_dump",
    "profile": {"shape": "point", "z0": 10.0, "sigma_z": 0.0, "P": 100.0},
    "array": {"M": 7, "z_amb": 100.0},
    "sigma_eps2": 10.0,
    "estimators": [
        {"label": "moments-full", "method": "moments", "D": 4, "symmetric": False},
        {"label": "moments-sym", "method": "moments", "D": 4, "symmetric": True},
        {"label": "moments-id-full6", "method": "moments", "D": 6, "symmetric": False, "weighting": "identity"},
        {"label": "parametric-uniform", "method": "parametric", "assumed_shape": "uniform"},
    ],
}
EXTRA_SPECS = {
    "identity-D6": {
        **_SCENARIO,
        "array": {"M": 7, "z_amb": 100.0},
        "estimators": [{"label": "moments-id-full6", "method": "moments", "D": 6, "symmetric": False,
                        "weighting": "identity"}],
    },
    "sparse-z0max": {
        **_SCENARIO,
        "array": _SPARSE_ARRAY,
        "estimators": [{"label": "parametric-uniform-z80", "method": "parametric", "assumed_shape": "uniform",
                        "weighting": "inverse_sample", "z0_max": 80.0}],
    },
    # a source 0.3 m inside either edge of [0, 80): the moment fit's bracket
    # around its best grid node is clipped to 0 or to the largest float below 80
    **{
        name: {**_SCENARIO, "profile": {**_SCENARIO["profile"], "z0": z0}, "array": _SPARSE_ARRAY,
               "estimators": [_SPARSE_MOMENTS]}
        for name, z0 in (("sparse-moments-low", 0.3), ("sparse-moments-high", 79.7))
    },
    "identity-parametric": {
        **_SCENARIO,
        "array": {"M": 7, "z_amb": 100.0},
        "estimators": [{"label": f"parametric-{shape}-id", "method": "parametric", "assumed_shape": shape,
                        "weighting": "identity"} for shape in ("uniform", "gaussian")],
    },
    "noiseless-bias": {
        "kind": "asymptotic_bias_vs_sigma",
        "profile": _SCENARIO["profile"],
        "array": {"M": 7, "z_amb": 100.0},
        "sigma_eps2": 0.0,
        "sigma_list": [0.0, 2.0, 5.0, 10.0, 20.0],
        "estimators": [entry.to_json() for entry in default_estimators()],
    },
    # both parametric fits on inverse-sample weightings either side of the
    # condition limit of the polish's fast points (median cond(W) 5e8 at
    # N = 6, 1.0e3 at N = 8), 20 trials
    "condition-straddle": {
        **_SCENARIO,
        "N_list": [6, 8, 10],
        "array": {"M": 7, "z_amb": 100.0},
        "estimators": [{"label": f"parametric-{shape}", "method": "parametric", "assumed_shape": shape}
                       for shape in ("uniform", "gaussian")],
    },
    # both moment fits on inverse-sample weightings at N = 4, 6 and 8, either
    # side of the condition limit above which the moment grid and refinement
    # run on the product form (median cond(W) 5e8 at N = 4 and 6, 1.2e3 at
    # N = 8 on 40 seeds), 20 trials
    "moments-small-N": {
        **_SCENARIO,
        "N_list": [4, 6, 8],
        "array": {"M": 7, "z_amb": 100.0},
        "estimators": [entry.to_json() for entry in default_estimators()[:2]],
    },
    "quoted-labels": {
        **_SCENARIO,
        "array": {"M": 7, "z_amb": 100.0},
        "estimators": [
            {"label": 'moments "sym", D=4', "method": "moments", "D": 4, "symmetric": True},
            {"label": 'parametric "gaussian", mismatched', "method": "parametric", "assumed_shape": "gaussian"},
        ],
    },
}

# the subcommand that runs a spec of each kind
_SUBCOMMANDS = {"rmse_vs_N": "rmse", "asymptotic_bias_vs_sigma": "bias"}
# trials of an extra spec, 6 unless named here
_TRIALS = {"condition-straddle": 20, "moments-small-N": 20}


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
    config = out / "spectrum-point.json"
    config.write_text(json.dumps(POINT_SPECTRUM))
    _run(["spectrum", "--config", str(config), "--no-timestamp", "--out", str(out / "spectrum-point")])
    _run(
        ["rmse", "--trials", "6", "--workers", "2", "--dump-trials", "--no-timestamp", "--out", str(out / "rmse")]
    )
    for name, spec in EXTRA_SPECS.items():
        config = out / f"{name}.json"
        config.write_text(json.dumps(spec))
        _run([_SUBCOMMANDS[spec["kind"]], "--config", str(config), "--trials", str(_TRIALS.get(name, 6)),
              "--dump-trials", "--no-timestamp", "--out", str(out / name)])
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
