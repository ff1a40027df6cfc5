"""Run-to-run spread of the end-to-end metrics.

    python3 -m perfbench.spread --workload mc-reference --runs 10 [--first-seed 0] [--json out.json]

Runs ``run.py --trace 0`` once per seed, for ``run_seconds`` from
``BENCHMARK.json``, and prints, per end-to-end metric, the
median, the quartiles from ``statistics.quantiles(values, n=4)``, the
interquartile range as a share of the median, and the sample count.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def spread(values) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "iqr_share": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    values: dict = {}
    for seed in range(args.first_seed, args.first_seed + args.runs):
        done = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
        )
        result = json.loads(done.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed}: output check failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              file=sys.stderr)
    table = {name: {**spread(v), "values": v} for name, v in values.items()}
    for name, row in table.items():
        print(f"{args.workload:13s} {name:40s} median {row['median']:.5g}  q1 {row['q1']:.5g}  "
              f"q3 {row['q3']:.5g}  iqr/median {row['iqr_share']:.4f}  n {row['n']}")
    if args.json:
        args.json.write_text(json.dumps({"workload": args.workload, "seconds": seconds, "metrics": table}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
