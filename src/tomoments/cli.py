"""Command line entry point for the benchmark experiments."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .experiments import (
    FAST_TRIALS,
    ExperimentSpec,
    default_spec,
    run_experiment,
)

_COMMANDS = {
    "spectrum": ("spectrum_dump", "dump density, spectrum and fitted-polynomial curves"),
    "rmse": ("rmse_vs_N", "Monte Carlo RMSE versus snapshot count, with CRB columns"),
    "bias": ("asymptotic_bias_vs_sigma", "deterministic asymptotic bias versus profile spread"),
}


def _add_common_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, help="JSON experiment spec (defaults used when omitted)")
    parser.add_argument("--seed", type=int, help="override the master seed")
    parser.add_argument("--out", type=Path, help="output directory for CSV files")
    parser.add_argument("--trials", type=int, help="override the Monte Carlo trial count")
    parser.add_argument("--fast", action="store_true", help=f"shrink trials to {FAST_TRIALS}")
    parser.add_argument("--workers", type=int, help="trial-level process pool size")
    parser.add_argument("--no-timestamp", action="store_true", help="omit the timestamped CSV header line")
    parser.add_argument("--dump-trials", action="store_true", help="also write per-trial estimates")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomoments",
        description="Covariance-matching benchmarks for diffuse vertical scatterers.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for command, (kind, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(command, help=help_text)
        _add_common_arguments(sub)
        sub.set_defaults(kind=kind)
    return parser


def _build_spec(args: argparse.Namespace) -> ExperimentSpec:
    """The spec of the config file (or the default one) with the flags' overrides,
    built once, so its checks and its warnings run once."""
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.out is not None:
        overrides["output_dir"] = str(args.out)
    if args.fast:
        overrides["trials"] = FAST_TRIALS
    if args.trials is not None:
        overrides["trials"] = args.trials
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.no_timestamp:
        overrides["timestamp_header"] = False
    if args.dump_trials:
        overrides["dump_trials"] = True
    if args.config is None:
        return default_spec(args.kind, **overrides)
    obj = json.loads(Path(args.config).read_text())
    if not isinstance(obj, dict):
        raise ValueError(f"config {args.config} must hold a JSON object, got {type(obj).__name__}")
    obj.setdefault("kind", args.kind)
    if obj["kind"] != args.kind:
        raise ValueError(
            f"config kind {obj['kind']!r} does not match the {args.kind!r} subcommand"
        )
    return ExperimentSpec.from_json({**obj, **overrides})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = _build_spec(args)
        result = run_experiment(spec)
    except Exception as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
        return 1
    for path in result.files.values():
        print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
