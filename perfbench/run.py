"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics: set-up time from seven fresh interpreters, then ``--seconds`` of
repeated sweeps in a separate measuring process.  ``--trace 1`` prints the
per-layer metrics: half the time untraced, half traced, each in its own
process.  Each variant's CSVs are checked against the stored reference,
and every repeat of a variant must reproduce its first output byte for byte.
The last stdout line is the result JSON; the exit code is nonzero when the
check fails or the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import check, workloads  # noqa: E402
from perfbench.layers import LAYER_METRICS  # noqa: E402
from perfbench.setup_probe import MARKER  # noqa: E402

SETUP_PROBES = 7
CHILD_TIMEOUT_S = 150
# One BLAS thread: the matrices are 7 x 7, and extra threads only add noise.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


def _env() -> dict:
    return {**os.environ, **PINNED_ENV}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def setup_times(sweep: workloads.Sweep) -> list:
    """``(seconds from process start to the first trial, scale)``, one per fresh probe.

    ``scale`` is ``calibrate.REFERENCE_S`` over a calibration sample the
    probe takes right after the timed span.
    """
    argv_file = sweep.directory / "argv.json"
    argv_file.write_text(json.dumps(list(sweep.argv)))
    times = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(
            [sys.executable, "-m", "perfbench.setup_probe", str(argv_file)],
            cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True,
        ) as probe:
            line = probe.stdout.readline()
            elapsed = time.perf_counter() - start
            rest = probe.stdout.read().split()
            code = probe.wait(timeout=CHILD_TIMEOUT_S)
        if line.strip() != MARKER or code != 0 or len(rest) != 1:
            raise RuntimeError(f"set-up probe failed (exit code {code})")
        times.append((elapsed, float(rest[0])))
    return times


def run_measure(workload: str, seed: int, seconds: float, out_dir: Path, traced: bool, untraced_wall: float = 0.0) -> dict:
    argv = [sys.executable, "-m", "perfbench.measure", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--out", str(out_dir)]
    if traced:
        argv += ["--trace", "--untraced-wall", repr(untraced_wall)]
    done = subprocess.run(argv, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"measuring process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tomoments Monte Carlo sweep benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "tomoments" / "__init__.py").is_file():
        print(f"no tomoments sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    out = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), **PINNED_ENV}
    try:
        if args.trace:
            plain = run_measure(args.workload, args.seed, args.seconds / 2, out / "untraced", False)
            traced = run_measure(args.workload, args.seed, args.seconds / 2, out / "traced", True, plain["wall_s"])
            runs = [plain, traced]
            metrics = {name: {"value": traced["layers"][name], "unit": unit} for name, unit in LAYER_METRICS.items()}
        else:
            first = workloads.order(args.workload, args.seed)[0]
            setup = setup_times(workloads.build(args.workload, first, out / "probe"))
            plain = run_measure(args.workload, args.seed, args.seconds, out / "untraced", False)
            runs = [plain]
            plain["setup"] = setup
            scaled_setup = [elapsed * scale for elapsed, scale in setup]
            metrics = {
                "setup_s": {"value": statistics.median(scaled_setup), "unit": "s"},
                "wall_s": {"value": plain["wall_s"], "unit": "s"},
                "fits_per_s": {"value": plain["fits_per_s"], "unit": "1/s"},
                "cpu_s": {"value": plain["cpu_s"], "unit": "s"},
                "peak_rss_mb": {"value": plain["peak_rss_mb"], "unit": "MB"},
            }
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    problems = [p for run in runs for p in run["problems"]]
    for run in runs:
        problems += check.check_run(args.workload, run["sweep_dirs"], run["outputs"])
    result = {
        "correct": not problems,
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "env": {**env, **plain["versions"]},
        "sweeps": [len(run["walls"]) for run in runs],
        "sequences": [run["sequence"] for run in runs],
        "walls": [run["walls"] for run in runs],
        "calibrations": [run["calibrations"] for run in runs],
        "unscaled_wall_s": [run["unscaled_wall_s"] for run in runs],
        "setup": plain.get("setup"),
        "problems": problems,
        "result": result,
    }
    (out / "record.json").write_text(json.dumps(record, indent=1) + "\n")
    for problem in problems[:20]:
        print(f"output check: {problem}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("workload", "seed", "env", "sweeps")}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
