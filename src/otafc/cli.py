"""Command-line interface: `otafc run --config <file> [--out ...]`."""

import argparse
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

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = replace(cfg, base_seed=args.seed)
        if args.trials is not None:
            cfg = replace(cfg, trials=args.trials)
        if args.heuristic is not None:
            try:
                cfg = replace(cfg, heuristics=(Heuristic(args.heuristic).value,))
            except ValueError:
                raise ConfigError(f"unknown heuristic {args.heuristic!r}") from None
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
