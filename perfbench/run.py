"""Benchmark of the otafc simulator, run from the root of a checkout.

    python3 perfbench/run.py --workload reference_sweep --seed 1 --seconds 30 --trace 0

Workloads: reference_sweep, deep_cascade, image_inference (see README.md
beside this file). With --trace 0 the run reports the end-to-end metrics;
with --trace 1 it reports per-layer metrics from a traced run of fixed
size. The package is imported from ./src of the checkout. The last line
of stdout is one JSON object: correct, attempted, failed, metrics. The exit
code is 1 when an output check fails and 2 when the package is missing.
"""

import os
import sys

# Single-threaded BLAS/OpenMP; must be set before numpy is imported.
PIN_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in PIN_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def _parser():
    p = argparse.ArgumentParser(description="otafc benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR",
                   help="run the workload's set-up in DIR and print when it ended")
    return p


def _import_package():
    """Import otafc from this checkout's src/, never from anywhere else."""
    sys.path.insert(0, SRC)
    import otafc
    where = os.path.dirname(os.path.abspath(otafc.__file__))
    if os.path.dirname(where) != SRC:
        raise ImportError(f"otafc imported from {where}, not from {SRC}")


def _git_commit():
    """HEAD of the checkout, or None when it is not a git work tree itself."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment():
    import numpy as np
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "numpy": np.__version__,
        "blas": {k: deps.get("blas", {}).get(k) for k in ("name", "version")},
        "lapack": {k: deps.get("lapack", {}).get(k) for k in ("name", "version")},
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "thread_pinning": {v: os.environ.get(v) for v in PIN_VARS},
    }


def _number(value):
    """A JSON-safe number: NaN or infinity (a failed measurement) becomes null."""
    if isinstance(value, int):
        return value
    value = float(value)
    return value if math.isfinite(value) else None


def main(argv=None):
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        _import_package()
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the otafc package from {SRC}: {exc}",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")

    if args.setup_only:
        workloads.run_setup(args.workload, args.seed, args.setup_only)
        print("ready", repr(time.clock_gettime(time.CLOCK_MONOTONIC)), flush=True)
        return 0

    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    try:
        out = workloads.run(args.workload, args.seed, args.seconds, args.trace,
                            work, run_py=os.path.abspath(__file__))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work))

    units = (workloads.layer_metric_units() if args.trace
             else workloads.END_TO_END_UNITS)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for name, value, unit in out.report:
        print(f"{name} {_number(value)} {unit}")
    for name in units:
        print(f"metric {name} {_number(out.metrics[name])} {units[name]}")
    for problem in out.problems:
        print(f"check failed: {problem}")
    result = {
        "correct": not out.problems,
        "attempted": int(out.attempted),
        "failed": int(out.failed),
        "metrics": {name: {"value": _number(out.metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
