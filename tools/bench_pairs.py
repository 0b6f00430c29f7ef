"""Run perfbench on two checkouts in alternating order, and summarise pairs.

    python3 tools/bench_pairs.py run BASE CHANGE --workload deep_cascade \
        --seed 20 --pairs 10 [--seconds 30] [--trace 1] [--out pairs.json]
    python3 tools/bench_pairs.py summary pairs.json

`run` runs `perfbench/run.py` of each checkout in turn, BASE first in even
pairs and CHANGE first in odd ones, so a drift of the machine's speed falls
on both sides alike. Each run adds one JSON line to --out (or stdout): the
pair, the side, the checkout's directory name, its commit (when it is a
git work tree), and the JSON object that perfbench
printed last; `run` names the invocation by its start time. `summary`
reads such lines and prints, for each invocation, per metric, the median
and quartiles of each side, how many pairs the change wins (a tie wins for
neither side) and a verdict, taking the direction and bound of each metric
from the BENCHMARK.json beside this directory. The verdict is `gain` when
the change wins at least 9 in 10 pairs and its median beats the base median
by more than the base side's quartile distance; `worse` when its median is
worse than the base median by more than the metric's bound, a share of the
base median (per-layer metrics have none); `no change` otherwise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("base", "change")


def _commit(checkout):
    if not os.path.exists(os.path.join(checkout, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=checkout, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def run_pairs(args):
    checkouts = dict(zip(SIDES, (os.path.abspath(args.base), os.path.abspath(args.change))))
    run = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    out = open(args.out, "a", encoding="utf-8") if args.out else sys.stdout
    try:
        for pair in range(args.pairs):
            for side in (SIDES if pair % 2 == 0 else SIDES[::-1]):
                cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace)]
                proc = subprocess.run(cmd, cwd=checkouts[side], capture_output=True,
                                      text=True)
                lines = proc.stdout.strip().splitlines()
                try:
                    result = json.loads(lines[-1]) if lines else None
                except json.JSONDecodeError:  # a crash before the summary line
                    result = None
                record = {"run": run, "pair": pair, "side": side,
                          "checkout": os.path.basename(checkouts[side]),
                          "commit": _commit(checkouts[side]), "workload": args.workload,
                          "seed": args.seed, "seconds": args.seconds,
                          "trace": args.trace, "exit": proc.returncode,
                          "result": result}
                out.write(json.dumps(record, sort_keys=True) + "\n")
                out.flush()
                if proc.returncode != 0:
                    print(proc.stderr, file=sys.stderr)
    finally:
        if out is not sys.stdout:
            out.close()


def _metrics():
    """name -> (better, bound) of every BENCHMARK.json metric; bound None
    for the per-layer ones."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: (m["better"], m.get("bound"))
            for m in spec["end_to_end"] + spec["per_layer"]}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _verdict(wins, pairs, gain, base_iqr, base_median, bound):
    """gain is the change's median minus the base's, signed so > 0 is better."""
    if 10 * wins >= 9 * pairs and gain > base_iqr:
        return "gain"
    if bound is not None and -gain > bound * abs(base_median):
        return "worse"
    return "no change"


def summarise(args):
    metrics = _metrics()
    groups = {}  # (run, workload, seed, trace) -> pair -> side -> record
    for path in args.files:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                if not line.strip():
                    continue
                rec = json.loads(line)
                if rec["result"] is None:  # perfbench printed nothing
                    continue
                key = (rec.get("run", path), rec["workload"], rec["seed"], rec["trace"])
                groups.setdefault(key, {}).setdefault(rec["pair"], {})[rec["side"]] = rec
    for (run, workload, seed, trace), pairs in groups.items():
        complete = [p for p in pairs.values() if all(s in p for s in SIDES)]
        if not complete:
            continue
        base = " ".join(filter(None, (complete[0]["base"]["checkout"],
                                      complete[0]["base"]["commit"])))
        print(f"{run}: {workload} seed {seed} trace {trace}, base {base}: "
              f"{len(complete)} pairs")
        full = [{s: {name: m["value"] for name, m in p[s]["result"]["metrics"].items()}
                 for s in SIDES} for p in complete]
        for name in sorted(full[0]["change"]):
            vals = {s: [p[s].get(name) for p in full] for s in SIDES}
            if any(v is None for s in SIDES for v in vals[s]):
                continue
            better, bound = metrics.get(name, ("lower", None))
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(sign * (c - b) > 0 for b, c in zip(vals["base"], vals["change"]))
            (b1, b2, b3), (c1, c2, c3) = (_quartiles(vals[s]) for s in SIDES)
            verdict = _verdict(wins, len(full), sign * (c2 - b2), b3 - b1, b2, bound)
            print(f"  {name}: base {b2:.6g} [{b1:.6g}, {b3:.6g}]  "
                  f"change {c2:.6g} [{c1:.6g}, {c3:.6g}]  "
                  f"ratio {c2 / b2 if b2 else float('nan'):.4f}  wins {wins}/{len(full)}  "
                  f"{verdict}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    r = sub.add_parser("run", help="run alternating pairs")
    r.add_argument("base")
    r.add_argument("change")
    r.add_argument("--workload", required=True)
    r.add_argument("--seed", type=int, required=True)
    r.add_argument("--pairs", type=int, default=10)
    r.add_argument("--seconds", type=float, default=30.0)
    r.add_argument("--trace", type=int, choices=(0, 1), default=0)
    r.add_argument("--out", help="append the JSON lines here instead of stdout")
    s = sub.add_parser("summary", help="medians, quartiles, wins and verdict per metric")
    s.add_argument("files", nargs="+")
    args = p.parse_args(argv)
    if args.command == "run":
        run_pairs(args)
    else:
        summarise(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
