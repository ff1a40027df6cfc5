"""Workload generator: turns a workload name and seed into CLI invocations.

The program only ever sees the spec JSON written here, passed through
``tomoments.cli.main(["<command>", "--config", spec, "--no-timestamp", ...])``.
Specs are written literally (stdlib only) so the generator does not depend
on the code it measures.

Each workload has a fixed population of input variants, and every variant
has a reference output stored under ``perfbench/reference`` (see
``make_reference.py``):

- the Monte Carlo workloads: ``MC_VARIANTS`` master seeds 0, 1, ...;
- ``bias-scan``: the uniform and the gaussian truth of the reference
  scenario (it draws nothing, so the truth is its only input).

One sweep runs one variant.  ``--seed`` fixes the order the variants run in
(a seeded permutation, repeated), so a run covers the whole population
more than once and describes the workload rather than a single draw.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("mc-reference", "mc-moments", "bias-scan")

MC_VARIANTS = 4
BIAS_SHAPES = ("uniform", "gaussian")

# Reference scenario of the README and the acceptance tests.
_ARRAY = {"M": 7, "z_amb": 100.0}
_SIGMA_EPS2 = 10.0
_N_LIST = [100, 1000, 10000]
# sigma_z = 0, 1, ..., 30 m: the program's default spread sweep.
_BIAS_SIGMAS = [float(s) for s in range(0, 31)]

# Trials per sweep point, far below the program's default of 5000: a sweep
# lasts 2-3 s on a 2-core x86 VM, so a run holds a dozen sweeps to take
# medians from.  At these counts a single failed fit exceeds the program's
# 1 % failure limit and aborts the run.
_TRIALS = {"mc-reference": 8, "mc-moments": 40}


@dataclass(frozen=True)
class Sweep:
    """One measured unit of work: a single CLI call on one input variant."""

    workload: str
    variant: int
    argv: tuple  # arguments for tomoments.cli.main
    directory: Path  # where the spec and the CSVs go
    outputs: tuple  # CSV file names the call writes

    def read(self, keep=lambda name: True) -> dict:
        """The CSV texts the last call left, by file name, for names ``keep`` accepts."""
        return {name: (self.directory / name).read_text() for name in self.outputs if keep(name)}


def _estimators(truth_shape: str, parametric: bool = True) -> list:
    """The four estimators of ``default_estimators(truth_shape)``, as JSON."""
    other = "gaussian" if truth_shape == "uniform" else "uniform"
    entries = [
        {"label": "moments-full", "method": "moments", "D": 4, "symmetric": False, "weighting": "inverse_sample"},
        {"label": "moments-sym", "method": "moments", "D": 4, "symmetric": True, "weighting": "inverse_sample"},
    ]
    if parametric:
        for shape in (truth_shape, other):
            entries.append(
                {
                    "label": f"parametric-{shape}",
                    "method": "parametric",
                    "assumed_shape": shape,
                    "weighting": "inverse_sample",
                }
            )
    return entries


def variant_count(workload: str) -> int:
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return len(BIAS_SHAPES) if workload == "bias-scan" else MC_VARIANTS


def order(workload: str, seed: int) -> list:
    """The seeded permutation of variants a run cycles through."""
    variants = list(range(variant_count(workload)))
    random.Random(seed).shuffle(variants)
    return variants


def spec_object(workload: str, variant: int, tiny: bool = False) -> dict:
    """Spec JSON of one workload variant.

    ``tiny`` shrinks the sweep for the self-tests; measured runs never set it.
    """
    if workload == "bias-scan":
        shape = BIAS_SHAPES[variant]
        return {
            "kind": "asymptotic_bias_vs_sigma",
            "profile": {"shape": shape, "z0": 10.0, "sigma_z": 5.0, "P": 100.0},
            "array": dict(_ARRAY),
            "sigma_eps2": _SIGMA_EPS2,
            "estimators": _estimators(shape),
            "sigma_list": [0.0, 30.0] if tiny else list(_BIAS_SIGMAS),
        }
    return {
        "kind": "rmse_vs_N",
        "profile": {"shape": "uniform", "z0": 10.0, "sigma_z": 5.0, "P": 100.0},
        "array": dict(_ARRAY),
        "sigma_eps2": _SIGMA_EPS2,
        "estimators": _estimators("uniform", parametric=workload != "mc-moments"),
        "N_list": [100, 1000] if tiny else list(_N_LIST),
        "trials": 1 if tiny else _TRIALS[workload],
        "master_seed": variant,
    }


def build(workload: str, variant: int, out_dir: Path, tiny: bool = False) -> Sweep:
    """Write the spec of one variant under ``out_dir`` and return its sweep."""
    if not 0 <= variant < variant_count(workload):
        raise ValueError(f"{workload} has no variant {variant}")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    obj = spec_object(workload, variant, tiny)
    spec_path = out_dir / "spec.json"
    spec_path.write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")
    if obj["kind"] == "rmse_vs_N":
        argv = ["rmse", "--config", str(spec_path), "--no-timestamp", "--out", str(out_dir)]
        outputs = ["rmse_vs_N.csv"]
        if workload == "mc-moments":
            argv.append("--dump-trials")
            outputs.append("rmse_vs_N_trials.csv")
    else:
        argv = ["bias", "--config", str(spec_path), "--no-timestamp", "--out", str(out_dir)]
        outputs = ["asymptotic_bias_vs_sigma.csv", "asymptotic_interpolation.csv"]
    return Sweep(workload, variant, tuple(argv), out_dir, tuple(outputs))


def build_all(workload: str, out_dir: Path, tiny: bool = False) -> list:
    """Sweeps of every variant, indexed by variant."""
    return [
        build(workload, variant, Path(out_dir) / f"v{variant}", tiny)
        for variant in range(variant_count(workload))
    ]
