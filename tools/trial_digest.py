"""Print one line per trial of the perfbench sweep workloads of a checkout.

    python3 tools/trial_digest.py CHECKOUT --seed 4 [--workload deep_cascade]
        [--sweeps N]
    python3 tools/trial_digest.py CHECKOUT --seed 4 --workload image_inference
        [--images N]
    python3 tools/trial_digest.py CHECKOUT --seed 4 --against OTHER.txt
    python3 tools/trial_digest.py THIS.txt --against OTHER.txt

Each sweep workload of CHECKOUT/perfbench/workloads.py runs its first N
sweeps (by default the sweeps an untraced perfbench run always finishes)
through `harness.run_experiment`, with the package of CHECKOUT/src and sweep
i at the base seed perfbench gives it. A line holds the workload, the sweep,
the point key, the trial index, the `repr` of nmse, objective_true,
ota_acc, digital_acc and relay_power_overrun, the iteration count and the
status. BLAS runs single-threaded, as in perfbench, so `cmp` of the output
of two checkouts tells whether they give bit-identical trials. workloads.py
is imported, never written.

The image workload is digested only when named. Its first N images (by
default the images an untraced perfbench run always finishes) go through
`inference.imported_forward` and `inference.digital_forward` as the
benchmark streams them: image i of the seeded pool over design i mod the
number of designs, on one noise generator. A line holds the workload, the
image index, the design, the OTA and digital argmax, and the SHA-1 of the
bytes of both score arrays. `cmp` of two image digests tells whether they
give bit-identical scores.

With --against, the digest (of CHECKOUT, or read from a digest file THIS.txt)
is joined with the digest file OTHER.txt: trial lines on (workload, sweep,
point, trial), image lines on (workload, image). Instead of the lines it
prints one line per workload and metric (nmse, ota_acc and iterations of a
trial; of an image, the 0/1 indicator that the OTA and digital argmax
agree) with the mean paired difference this - other, its standard error,
and how many pairs this has lower and higher. For images it also prints how
many changed their OTA argmax and how many their digital argmax, which the
agreement hides when both sides flip. Pairs with a failed trial (an error
status) and lines in only one digest are counted, not compared.
"""

import argparse
import hashlib
import math
import os
import statistics
import sys
import tempfile

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


# the compared fields of a trial line, by their position in it; the last is the status
METRICS = {"nmse": 4, "ota_acc": 6, "iterations": 9}
# fields of a trial line and of an image line, and how many of them key the join
TRIAL, IMAGE = (11, 4), (6, 2)


def _table(lines, kind):
    width, key = kind
    return {tuple(f[:key]): f for f in (line.split() for line in lines) if len(f) == width}


def _paired(name, metric, diff):
    """One line: the mean paired difference, its SE, and the signs."""
    mean = statistics.fmean(diff) if diff else math.nan
    se = statistics.stdev(diff) / math.sqrt(len(diff)) if len(diff) > 1 else math.nan
    return (f"{name} {metric} {mean:+.6g} +- {se:.2g} lower {sum(d < 0 for d in diff)} "
            f"higher {sum(d > 0 for d in diff)} of {len(diff)}")


def _joined(this, other, noun):
    """The keys in both tables, and the line that counts them."""
    both = sorted(this.keys() & other.keys())
    return both, (f"{len(both)} {noun} in both, {len(this.keys() - other.keys())} only "
                  f"in this, {len(other.keys() - this.keys())} only in other")


def paired_summary(this, other) -> list:
    """Lines comparing two digests, each a list of digest lines.

    Trial lines are joined on (workload, sweep, point, trial) and compared on
    METRICS; image lines are joined on (workload, image) and compared on the
    indicator that the OTA and digital argmax agree, and on each argmax.
    """
    out = []
    this_t, other_t = _table(this, TRIAL), _table(other, TRIAL)
    this_i, other_i = _table(this, IMAGE), _table(other, IMAGE)
    if this_t or other_t or not (this_i or other_i):
        joined, head = _joined(this_t, other_t, "trials")
        out.append(head)
        for name in dict.fromkeys(key[0] for key in joined):
            keys = [key for key in joined if key[0] == name]
            ok = [k for k in keys
                  if not any(t[k][-1].startswith("error") for t in (this_t, other_t))]
            for metric, i in METRICS.items():
                diff = [float(this_t[k][i]) - float(other_t[k][i]) for k in ok]
                out.append(f"{_paired(name, metric, diff)} ({len(keys) - len(ok)} failed)")
    if this_i or other_i:
        joined, head = _joined(this_i, other_i, "images")
        out.append(head)
        for name in dict.fromkeys(key[0] for key in joined):
            keys = [k for k in joined if k[0] == name]
            diff = [(this_i[k][3] == this_i[k][4]) - (other_i[k][3] == other_i[k][4])
                    for k in keys]
            out.append(_paired(name, "agreement", diff))
            ota, dig = (sum(this_i[k][i] != other_i[k][i] for k in keys) for i in (3, 4))
            out.append(f"{name} argmax changed ota {ota} digital {dig} of {len(keys)}")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("checkout", help="a checkout, or with --against a digest file")
    p.add_argument("--seed", type=int, help="base seed (required for a checkout)")
    p.add_argument("--workload", action="append",
                   help="a workload (repeatable); all sweep workloads by default")
    p.add_argument("--sweeps", type=int, help="sweeps per sweep workload")
    p.add_argument("--images", type=int, help="images of the image workload")
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
    with open(args.against) as f:
        other = f.read().splitlines()
    this = list(this)
    if any(len(line.split()) not in (TRIAL[0], IMAGE[0]) for line in this + other):
        p.error(f"--against joins digest lines: trial lines of {TRIAL[0]} fields, "
                f"image lines of {IMAGE[0]}")
    print("\n".join(paired_summary(this, other)))
    return 0


def _digest(p, args):
    """The digest lines of the checkout, as they are made."""
    harness, workloads = _import(os.path.abspath(args.checkout))
    specs = workloads.WORKLOADS
    names = args.workload or [n for n, s in specs.items() if isinstance(s, workloads.Sweep)]
    for name in names:
        if name not in specs:
            p.error(f"{name!r} is not a workload; choose from {sorted(specs)}")
    for name in names:
        spec = specs[name]
        if not isinstance(spec, workloads.Sweep):
            yield from _image_lines(name, spec, args, workloads)
            continue
        for i in range(spec.sweeps if args.sweeps is None else args.sweeps):
            tree = dict(spec.tree, base_seed=workloads.sweep_seed(args.seed, i))
            for row in harness.run_experiment(harness.config_from_dict(tree)):
                for t, res in enumerate(row.trials):
                    yield (f"{name} {i} {row.point.key} {t} {res.nmse!r} "
                           f"{res.objective_true!r} {res.ota_acc!r} {res.digital_acc!r} "
                           f"{res.relay_power_overrun!r} {res.iterations} {res.status}")


def _image_lines(name, spec, args, workloads):
    """One line per image of the benchmark's image stream."""
    import numpy as np
    from otafc import inference
    with tempfile.TemporaryDirectory() as work:
        setup = workloads.setup_images(spec, args.seed, work)
    rng = np.random.default_rng(setup.noise_seed)
    pool, designs = len(setup.images), setup.designs
    for i in range(spec.quality_images if args.images is None else args.images):
        image, k = setup.images[i % pool], i % len(designs)
        ota = inference.imported_forward(setup.pipeline, image, designs[k].params,
                                         designs[k].true_ch, setup.noise, rng)
        dig = inference.digital_forward(setup.pipeline, image)
        sha = hashlib.sha1(ota.tobytes() + dig.tobytes()).hexdigest()
        yield f"{name} {i} {k} {np.argmax(ota)} {np.argmax(dig)} {sha}"


if __name__ == "__main__":
    sys.exit(main())
