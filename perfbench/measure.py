"""Measuring process: runs one workload's sweeps in-process through the CLI.

Started by ``run.py`` as ``python3 -m perfbench.measure`` from the checkout
root, in a fresh interpreter, so an untraced run never carries the span
wrappers.  Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from . import calibrate, check, workloads

ROOT = Path(__file__).resolve().parent.parent


def import_program():
    """Import ``tomoments`` from this checkout's ``src/``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import tomoments
    import tomoments.cli

    if not Path(tomoments.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"tomoments imported from {tomoments.__file__}, not from {src}")
    return tomoments


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def run_sweep(sweep: workloads.Sweep, recorder=None) -> dict:
    """Run one sweep through ``tomoments.cli.main``; return timings and CSV digests."""
    from tomoments import cli

    cpu0 = _cpu(resource.RUSAGE_SELF)
    child0 = _cpu(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        if recorder is None:
            code = cli.main(list(sweep.argv))
        else:
            with recorder.span("cli.main"):
                code = cli.main(list(sweep.argv))
    wall = time.perf_counter() - start
    child_cpu = _cpu(resource.RUSAGE_CHILDREN) - child0
    if code != 0:
        raise RuntimeError(f"tomoments {' '.join(sweep.argv)} exited with {code}")
    digests = {}
    for name in sweep.outputs:
        with open(sweep.directory / name, "rb") as handle:
            digests[name] = hashlib.file_digest(handle, "sha256").hexdigest()
    return {
        "wall_s": wall,
        "cpu_s": _cpu(resource.RUSAGE_SELF) - cpu0 + child_cpu,
        "csv_bytes": sum((sweep.directory / name).stat().st_size for name in sweep.outputs),
        "digests": digests,
    }


def _variant_mean(results: list, value) -> float:
    """Mean over the variants of each variant's mean ``value(result)``.

    Variants differ in cost, so a plain average over sweeps would move
    with the mix of variants a run happened to hold.  Within a variant the
    mean is steadier than the median: the host's speed changes in steps
    that last seconds, which split a median of three or four sweeps
    between two levels.
    """
    by_variant: dict = {}
    for result in results:
        by_variant.setdefault(result["variant"], []).append(value(result))
    return statistics.fmean(statistics.fmean(v) for v in by_variant.values())


def measure(workload: str, seed: int, seconds: float, out_dir: Path, traced: bool,
            untraced_wall_s: float = 0.0, tiny: bool = False) -> dict:
    """Warm up, then run the seed's variant sequence and summarize.

    Sweeps repeat while the next one is expected to end within ``seconds``,
    and at least once over every variant.  The calibration kernel runs
    before the first sweep and after each one; a sweep's times are scaled
    by ``calibrate.REFERENCE_S`` over the mean of the samples on either
    side of it (``scale``), which removes most of the host's speed drift.  Traced, the per-layer metrics come
    from that first pass, so the per-fit counts are the same for every seed.
    Every repeat of a variant must reproduce its first output byte for byte.
    Only a digest of each output is kept, and the check against the stored
    reference is left to the caller (``check.check_run`` on the CSVs left in
    ``sweep_dirs``), so neither adds to ``peak_rss_mb``.
    """
    import numpy
    import scipy

    from .spans import Recorder

    sweeps = workloads.build_all(workload, out_dir / "sweeps", tiny)
    sequence = workloads.order(workload, seed)
    problems = []
    digests = {}
    fits = {}

    def accept(sweep: workloads.Sweep, digest: dict) -> None:
        variant = sweep.variant
        if variant not in digests:
            digests[variant] = digest
            fits[variant] = check.fit_counts(sweep.read(check.is_summary))
            return
        for name in sorted(digest):
            if digest[name] != digests[variant].get(name):
                problems.append(f"variant {variant}: {name} differs from its first run")

    accept(sweeps[sequence[0]], run_sweep(sweeps[sequence[0]])["digests"])  # warm-up, unmeasured

    calibrator = calibrate.Calibrator()
    recorder = Recorder() if traced else None
    if recorder is not None:
        recorder.install()
    results = []
    try:
        start = time.perf_counter()
        before = calibrator.sample()
        step = 0.0  # seconds of the last sweep and its calibration
        while len(results) < len(sequence) or time.perf_counter() - start + step <= seconds:
            step_start = time.perf_counter()
            sweep = sweeps[sequence[len(results) % len(sequence)]]
            lo = len(recorder.spans) if recorder else 0
            result = run_sweep(sweep, recorder)
            result["spans"] = (lo, len(recorder.spans) if recorder else 0)
            result["variant"] = sweep.variant
            after = calibrator.sample()
            result["calibration_s"] = (before + after) / 2
            result["scale"] = calibrate.REFERENCE_S / result["calibration_s"]
            before = after
            accept(sweep, result.pop("digests"))
            results.append(result)
            step = time.perf_counter() - step_start
    finally:
        if recorder is not None:
            recorder.restore()

    def successes(result):
        attempted, failed = fits[result["variant"]]
        return attempted - failed

    summary = {
        "workload": workload,
        "sequence": [r["variant"] for r in results],
        "walls": [r["wall_s"] for r in results],
        "calibrations": [r["calibration_s"] for r in results],
        "unscaled_wall_s": _variant_mean(results, lambda r: r["wall_s"]),
        "wall_s": _variant_mean(results, lambda r: r["wall_s"] * r["scale"]),
        "cpu_s": _variant_mean(results, lambda r: r["cpu_s"] * r["scale"]),
        "fits_per_s": _variant_mean(results, lambda r: successes(r) / (r["wall_s"] * r["scale"])),
        "attempted": sum(fits[r["variant"]][0] for r in results),
        "failed": sum(fits[r["variant"]][1] for r in results),
        # the process's peak plus its largest reaped child's (none today)
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0,
        "problems": problems,
        "sweep_dirs": {sweep.variant: str(sweep.directory) for sweep in sweeps},
        "outputs": list(sweeps[0].outputs),
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    if recorder is not None:
        from .layers import layer_metrics

        first_pass = [(r["spans"][0], r["spans"][1], r) for r in results[: len(sequence)]]
        summary["layers"] = layer_metrics(recorder.spans, first_pass, summary["wall_s"] - untraced_wall_s)
        recorder.dump(out_dir / "spans.jsonl")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--untraced-wall", type=float, default=0.0)
    args = parser.parse_args(argv)
    import_program()
    summary = measure(args.workload, args.seed, args.seconds, args.out, args.trace, args.untraced_wall)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
