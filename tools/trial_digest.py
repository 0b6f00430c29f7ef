"""Print one line per trial of the perfbench sweep workloads of a checkout.

    python3 tools/trial_digest.py CHECKOUT --seed 4 [--workload deep_cascade]
        [--sweeps N]
    python3 tools/trial_digest.py CHECKOUT --seed 4 --against OTHER.txt
    python3 tools/trial_digest.py THIS.txt --against OTHER.txt

Each sweep workload of CHECKOUT/perfbench/workloads.py runs its first N
sweeps (by default the sweeps an untraced perfbench run always finishes)
through `harness.run_experiment`, with the package of CHECKOUT/src and sweep
i at the base seed perfbench gives it. A line holds the workload, the sweep,
the point key, the trial index, the `repr` of nmse, objective_true and
ota_acc, the iteration count and the status. BLAS runs single-threaded, as
in perfbench, so `cmp` of the output of two checkouts tells whether they
give bit-identical trials. workloads.py is imported, never written.

With --against, the digest (of CHECKOUT, or read from a digest file THIS.txt)
is joined with the digest file OTHER.txt on (workload, sweep, point, trial),
and instead of the lines one line per workload and metric (nmse, ota_acc,
iterations) gives the mean paired difference this - other, its standard
error, and how many pairs this has lower and higher. Pairs with a failed
trial (an error status) and trials in only one digest are counted, not
compared.
"""

import argparse
import math
import os
import statistics
import sys

# Single-threaded BLAS/OpenMP, as perfbench pins it; set before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"


def _import(checkout):
    """(harness, workloads) of the checkout, never of anywhere else."""
    src = os.path.join(checkout, "src")
    sys.path[:0] = [src, os.path.join(checkout, "perfbench")]
    import workloads
    from otafc import harness
    for module, where in ((harness, src), (workloads, os.path.join(checkout, "perfbench"))):
        if not os.path.abspath(module.__file__).startswith(where + os.sep):
            raise ImportError(f"{module.__name__} imported from {module.__file__}, "
                              f"not from {where}")
    return harness, workloads


# the compared fields of a digest line, by their position in it; 8 is the status
METRICS = {"nmse": 4, "ota_acc": 6, "iterations": 7}


def paired_summary(this, other) -> list:
    """Lines comparing two digests, each a list of digest lines."""
    def table(lines):
        return {tuple(f[:4]): f for f in (line.split() for line in lines)}

    this, other = table(this), table(other)
    joined = sorted(this.keys() & other.keys())
    out = [f"{len(joined)} trials in both, {len(this.keys() - other.keys())} only "
           f"in this, {len(other.keys() - this.keys())} only in other"]
    for name in dict.fromkeys(key[0] for key in joined):
        keys = [key for key in joined if key[0] == name]
        ok = [k for k in keys if not any(t[k][8].startswith("error") for t in (this, other))]
        for metric, i in METRICS.items():
            diff = [float(this[k][i]) - float(other[k][i]) for k in ok]
            mean = statistics.fmean(diff) if diff else math.nan
            se = statistics.stdev(diff) / math.sqrt(len(diff)) if len(diff) > 1 else math.nan
            out.append(f"{name} {metric} {mean:+.6g} +- {se:.2g} "
                       f"lower {sum(d < 0 for d in diff)} higher {sum(d > 0 for d in diff)} "
                       f"of {len(diff)} ({len(keys) - len(ok)} failed)")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", help="a checkout, or with --against a digest file")
    p.add_argument("--seed", type=int, help="base seed (required for a checkout)")
    p.add_argument("--workload", action="append",
                   help="a sweep workload (repeatable); all of them by default")
    p.add_argument("--sweeps", type=int, help="sweeps per workload")
    p.add_argument("--against", metavar="OTHER.txt",
                   help="print paired differences from this digest file")
    args = p.parse_args(argv)
    if os.path.isfile(args.checkout):
        if not args.against:
            p.error("a digest file is only read with --against")
        with open(args.checkout) as f:
            this = f.read().splitlines()
    elif args.seed is None:
        p.error("--seed is required to run a checkout")
    else:
        this = _digest(p, args)
        if not args.against:
            for line in this:
                print(line, flush=True)
            return 0
    with open(args.against) as other:
        print("\n".join(paired_summary(this, other)))
    return 0


def _digest(p, args):
    """The digest lines of the checkout, as they are made."""
    harness, workloads = _import(os.path.abspath(args.checkout))
    sweeps = {name: spec for name, spec in workloads.WORKLOADS.items()
              if isinstance(spec, workloads.Sweep)}
    for name in args.workload or sweeps:
        if name not in sweeps:
            p.error(f"{name!r} is not a sweep workload; choose from {sorted(sweeps)}")
        spec = sweeps[name]
        for i in range(spec.sweeps if args.sweeps is None else args.sweeps):
            tree = dict(spec.tree, base_seed=workloads.sweep_seed(args.seed, i))
            for row in harness.run_experiment(harness.config_from_dict(tree)):
                for t, res in enumerate(row.trials):
                    yield (f"{name} {i} {row.point.key} {t} {res.nmse!r} "
                           f"{res.objective_true!r} {res.ota_acc!r} {res.iterations} "
                           f"{res.status}")


if __name__ == "__main__":
    sys.exit(main())
