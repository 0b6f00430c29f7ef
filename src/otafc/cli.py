"""Command-line interface: `otafc run --config <file> [--out ...]`."""

import argparse
import os
import sys
from dataclasses import replace

from .allocation import Heuristic
from .harness import ConfigError, emit_csv, load_config, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otafc",
        description="Multi-hop OTA FC-layer emulation experiments",
    )
    parser.add_argument("--list-heuristics", action="store_true",
                        help="print the pilot-allocation heuristic names and exit")
    sub = parser.add_subparsers(dest="command")
    run_p = sub.add_parser("run", help="run an experiment sweep and write a CSV")
    run_p.add_argument("--config", help="experiment config file (YAML)")
    run_p.add_argument("--out", default="results.csv", help="output CSV path")
    run_p.add_argument("--seed", type=int, help="override base_seed")
    run_p.add_argument("--trials", type=int, help="override trial count")
    run_p.add_argument("--heuristic", help="restrict the sweep to one heuristic")
    return parser


def _out_problem(path: str):
    """Why the CSV cannot be written at path, or None."""
    if not path or os.path.isdir(path):
        return "is a directory" if path else "is empty"
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return f"{parent} is not an existing directory"
    return None


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_heuristics:
        for h in Heuristic:
            print(h.value)
        return 0
    if args.command != "run":
        parser.print_usage(sys.stderr)
        return 2
    if not args.config:
        print("error: run requires --config", file=sys.stderr)
        return 1
    problem = _out_problem(args.out)
    if problem:  # refused before any trial runs, not after the sweep
        print(f"error: --out {args.out}: {problem}", file=sys.stderr)
        return 1

    try:
        # replace checks the flags as the config file's keys are checked
        flags = {"base_seed": args.seed, "trials": args.trials, "heuristic": args.heuristic}
        cfg = replace(load_config(args.config),
                      **{key: value for key, value in flags.items() if value is not None})
        rows = run_experiment(cfg)
        emit_csv(rows, args.out)
        print(f"wrote {len(rows)} rows to {args.out}")
        for row in rows:
            if row.failures:
                first = next(t.status for t in row.trials if t.status.startswith("error"))
                print(f"warning: {row.point.key}: {row.failures} of {len(row.trials)} "
                      f"trials failed, first {first}", file=sys.stderr)
        return 3 if any(row.failures for row in rows) else 0
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
