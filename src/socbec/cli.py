"""Command-line entry point.

    socbec run <config-file> [--out DIR]
    socbec validate <config-file>

`validate` parses the config, which rejects a bad [evolve] or [lda] time step
as it rejects any bad value, then runs the same dry run (`runner.preflight`)
that `run` starts with, so it rejects what `run` would reject before solving,
an unreadable initial checkpoint or one on another grid included.

Exit codes: 0 success, 1 usage/parse/validation error or an output path
that cannot be a directory, 2 run failure (any error once `run` has made its
output directory; FAILED marker and manifest written).
"""

from __future__ import annotations

import argparse
import sys

from .config import ConfigError, load_config
from .runner import EXIT_OK, EXIT_USAGE, RunFailure, preflight, run


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="socbec",
        description="Spectral ground-state and dynamics runs for "
                    "spin-orbit-coupled two-component condensates",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute an experiment config")
    p_run.add_argument("config", help="path to the config file")
    p_run.add_argument("--out", default=None, help="output directory override")
    p_val = sub.add_parser("validate", help="parse and validate a config")
    p_val.add_argument("config", help="path to the config file")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; the CLI contract reserves 2 for
        # solver failures
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"error: {args.config}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.command == "validate":
        try:
            warnings = preflight(config)
        except (ValueError, RunFailure, OSError) as exc:
            print(f"error: {args.config}: {exc}", file=sys.stderr)
            return EXIT_USAGE
        for w in warnings:
            print(f"warning: {args.config}: {w}", file=sys.stderr)
        print(f"{args.config}: ok ({config.mode} mode, {config.grid!r})")
        return EXIT_OK
    try:
        return run(config, out_dir=args.out)
    except OSError as exc:  # from making the output directory
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
