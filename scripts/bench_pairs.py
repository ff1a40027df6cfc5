#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload in alternating pairs.

Runs ``python3 perfbench/run.py --trace 0`` in the parent and in the change
checkout, one run at a time, for ``--pairs`` pairs with seeds ``B+1`` to
``B+N``; the parent runs first on the odd pairs (the first, third, ...) and
second on the even ones.  Every run lasts the ``run_seconds`` of the
change's ``BENCHMARK.json``.  A run that is not ``correct`` or that has
failed fits stops the comparison.  For every end-to-end metric of that file
it prints each side's median and quartiles (``perfbench.spread.spread``, the
benchmark's own spread), the number of pairs the change wins (ties count for
neither side), how much worse the change's median is than the parent's as a
share of the parent's, the metric's status against its ``bound``, and
whether the gain rule holds: the change wins at least nine tenths of the
pairs, and the medians differ by more than the parent's interquartile range.
The status is one of

- ``exceeded``: the change's median is worse by more than the bound;
- ``unresolved``: not exceeded, but the parent's interquartile range, as a
  share of its median, is wider than the bound, so the runs cannot show a
  move of the bound's size, and not every run of the change reads better
  than every run of the parent;
- ``within``: otherwise.

    python3 scripts/bench_pairs.py --parent DIR --change DIR --workload mc-reference \\
        --pairs 10 --seed-base 1000 [--json BENCH.json]

With ``--json OUT`` the runs are stored under ``end_to_end.<workload>`` of
OUT (``seeds`` and, per side, one list per metric in seed order), the layout
of the committed ``BENCH_<n>.json`` records; other keys of an existing OUT
are kept.  Nothing in either checkout is edited; ``perfbench/run.py``
writes its scratch output to the checkout's ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.spread import spread  # noqa: E402

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metrics of one ``--trace 0`` run, ``{name: value}``; refuses a faulty run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"{checkout}: seed {seed} printed no result (exit code {done.returncode})")
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed", 1) > 0:
        raise SystemExit(f"{checkout}: seed {seed} is not correct or has failed fits: {lines[-1]}")
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def summary(metric: dict, parent: list, change: list) -> dict:
    """One metric's comparison of the two sides' runs.

    Each side's ``[q1, median, q3]``, the change's wins, ``worse``: how much
    worse the change's median is as a share of the parent's (negative when
    better), whether that stays within the metric's ``bound``, the status
    (see the module docstring) and the gain rule.
    """
    lower = metric["better"] == "lower"
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    parent_spread = spread(parent)
    parent_q, change_q = ([row["q1"], row["median"], row["q3"]] for row in (parent_spread, spread(change)))
    gap = (parent_q[1] - change_q[1]) if lower else (change_q[1] - parent_q[1])
    worse = -gap / parent_q[1] if parent_q[1] else 0.0
    within_bound = worse <= metric["bound"]
    better_in_every_run = max(change) < min(parent) if lower else min(change) > max(parent)
    if not within_bound:
        status = "exceeded"
    elif parent_spread["iqr_share"] > metric["bound"] and not better_in_every_run:
        status = "unresolved"
    else:
        status = "within"
    return {
        "parent": parent_q,
        "change": change_q,
        "wins": wins,
        "worse": worse,
        "within_bound": within_bound,
        "status": status,
        "gain": 10 * wins >= 9 * len(parent) and gap > parent_q[2] - parent_q[0],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed-base", type=int, required=True, help="pair i runs seed B + i")
    parser.add_argument("--json", type=Path, help="file whose end_to_end.<workload> receives the runs")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2")

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    seeds = [args.seed_base + i for i in range(1, args.pairs + 1)]
    runs = {side: {metric["name"]: [] for metric in metrics} for side in SIDES}
    for pair, seed in enumerate(seeds, start=1):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            values = run_once(checkouts[side], args.workload, seed, seconds)
            for name, column in runs[side].items():
                column.append(values[name])
            shown = "  ".join(f"{name} {values[name]:.4g}" for name in runs[side])
            print(f"pair {pair} seed {seed} {side}: {shown}", file=sys.stderr, flush=True)

    print(f"{args.workload}: {args.pairs} pairs, seeds {seeds[0]}-{seeds[-1]}, {seconds:g} s per run")
    print(f"{'metric':<12} {'parent q1/median/q3':>28} {'change q1/median/q3':>28} {'wins':>6}  "
          f"{'worse by':>8}  {'status':>10}  gain")
    for metric in metrics:
        name = metric["name"]
        row = summary(metric, runs["parent"][name], runs["change"][name])
        parent, change = ("/".join(f"{v:.4g}" for v in row[side]) for side in SIDES)
        print(f"{name:<12} {parent:>28} {change:>28} {row['wins']:>3}/{args.pairs:<2}  {row['worse']:>+8.3f}  "
              f"{row['status']:>10}  {'yes' if row['gain'] else 'no'}")

    if args.json:
        record = json.loads(args.json.read_text()) if args.json.exists() else {}
        record.setdefault("end_to_end", {})[args.workload] = {"seeds": seeds, **runs}
        args.json.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
