"""Print one line per trial of the perfbench sweep workloads of a checkout.

    python3 tools/trial_digest.py CHECKOUT --seed 4 [--workload deep_cascade]
        [--sweeps N]

Each sweep workload of CHECKOUT/perfbench/workloads.py runs its first N
sweeps (by default the sweeps an untraced perfbench run always finishes)
through `harness.run_experiment`, with the package of CHECKOUT/src and sweep
i at the base seed perfbench gives it. A line holds the workload, the sweep,
the point key, the trial index, the `repr` of nmse, objective_true and
ota_acc, the iteration count and the status. BLAS runs single-threaded, as
in perfbench, so `cmp` of the output of two checkouts tells whether they
give bit-identical trials. workloads.py is imported, never written.
"""

import argparse
import os
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


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workload", action="append",
                   help="a sweep workload (repeatable); all of them by default")
    p.add_argument("--sweeps", type=int, help="sweeps per workload")
    args = p.parse_args(argv)
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
                    print(f"{name} {i} {row.point.key} {t} {res.nmse!r} "
                          f"{res.objective_true!r} {res.ota_acc!r} {res.iterations} "
                          f"{res.status}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
