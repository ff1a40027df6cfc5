#!/usr/bin/env python3
"""Run the three benchmark experiments on the reference scenario.

Calls the ``tomoments`` command line once per subcommand (spectrum, bias,
rmse), each writing into its own subdirectory of --out, and passes the
other flags on.  Stops at the first subcommand that fails and returns its
exit code.  The RMSE sweep is the slow part: use --fast for a 500-trial
smoke run (the spectrum and bias outputs do not depend on it).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tomoments import cli
from tomoments.experiments import FAST_TRIALS


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", type=Path, default=Path("out"), help="output root directory")
    parser.add_argument("--seed", type=int, default=0, help="master seed for the RMSE sweep")
    parser.add_argument("--fast", action="store_true", help=f"run {FAST_TRIALS} trials instead of the default")
    parser.add_argument("--workers", type=int, default=1, help="trial-level process pool size")
    parser.add_argument("--no-timestamp", action="store_true", help="omit timestamped CSV headers")
    args = parser.parse_args(argv)

    flags = ["--seed", str(args.seed), "--workers", str(args.workers)]
    if args.fast:
        flags.append("--fast")
    if args.no_timestamp:
        flags.append("--no-timestamp")
    for command in ("spectrum", "bias", "rmse"):
        start = time.perf_counter()
        code = cli.main([command, "--out", str(args.out / command), *flags])
        print(f"{command}: {time.perf_counter() - start:.1f} s")
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
