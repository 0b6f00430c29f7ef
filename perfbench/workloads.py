"""The otafc benchmark workloads: set-up, timed loop, output checks, metrics.

Two sweep workloads drive the `otafc run` command end to end; the image
workload streams images through the imported pipeline. Every call into the
package goes through a module attribute (``cli.main``, ``inference.
imported_forward``) so the attribute swaps of a traced run see it.

An untraced run measures for a given number of seconds but always finishes
a fixed prefix of work (the first sweeps, the first images), and the
quality metrics average over that prefix only, so they are exact for a
seed. A traced run does a fixed amount of work, so its call counts repeat,
then repeats that work untraced to measure the tracing overhead.
"""

import contextlib
import csv
import io
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass

import numpy as np
import yaml

from otafc import (allocation, channel, cli, estimation, harness, inference,
                   solver, topology)
from otafc.channel import relay_input_powers

import spans

# Span name -> function it times. The name is the layer metric prefix; the
# path is where the function is defined (callers that imported it are
# swapped too).
TRACE_TARGETS = {
    "solver.solve": "otafc.solver.solve",
    "solver.update_f1": "otafc.solver.update_f1",
    "solver.update_a": "otafc.solver.update_a",
    "solver.update_f2": "otafc.solver.update_f2",
    "solver.objective": "otafc.solver.objective",
    "channel.effective_channel": "otafc.channel.effective_channel",
    "channel.noise_covariance": "otafc.channel.noise_covariance",
    "channel.transfer_matrix": "otafc.channel.transfer_matrix",
    "channel.relay_input_powers": "otafc.channel.relay_input_powers",
    "channel.draw_channels": "otafc.channel.draw_channels",
    "topology.generate_placement": "otafc.topology.generate_placement",
    "allocation.allocate": "otafc.allocation.allocate",
    "estimation.estimate_all": "otafc.estimation.estimate_all",
    "estimation.inject_error": "otafc.estimation.inject_error",
    "inference.accuracy": "otafc.inference.accuracy",
    "inference.ota_forward": "otafc.inference.ota_forward",
    "inference.imported_forward": "otafc.inference.imported_forward",
    "inference.load_pipeline": "otafc.inference.load_pipeline",
    "harness.run_trial": "otafc.harness.run_trial",
    "harness.emit_csv": "otafc.harness.emit_csv",
    "cli.load_config": "otafc.harness.load_config",
}

# Layer metrics that come from return values and wall clocks, not spans.
EXTRA_LAYER_METRICS = {
    "solver.iterations": "count",
    "solver.ms_per_iter": "ms",
    "solver.converged_frac": "ratio",
    "solver.relay_power_overrun_max": "ratio",
    "harness.overhead_ms": "ms",
    "trace.overhead_frac": "ratio",
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "items_per_s_norm": "1/s",
    "item_ms_p50_norm": "ms",
    "item_ms_tail_norm": "ms",
    "nmse_mean": "ratio",
    "acc_ota_mean": "ratio",
    "peak_rss_mb": "MB",
}

# The item timings are reported at the speed of a machine on which one call
# of reference_kernel takes this long (see SpeedProbe).
REFERENCE_MS = 1.0
# Reference samples after each trial, and images between two samples.
SPEED_SAMPLES_PER_TRIAL = 3
IMAGES_PER_SPEED_SAMPLE = 16
# Reference samples on each side of an item that set its local speed.
SPEED_NEIGHBOURS = 3
# Relative slack for the power checks: the solver meets its caps up to
# rounding of the projection and the multiplier search.
POWER_TOL = 1e-9
SETUP_SAMPLES = 6
# A set-up takes about 1.5 s; all samples together stay well inside the
# 180 s a run may take.
SETUP_TIMEOUT_S = 20
# Tail percentile of trial latency: a reference_sweep run holds 60-90 trials,
# and p80 is the highest percentile that keeps ten of them beyond it.
TRIAL_TAIL = 80
# Images per window of the image median (about a second of streaming).
IMAGE_WINDOW = 2048
# Tail percentile of image latency. Stalls of the machine of about 10 ms hit
# 1-2% of images, so p99 sits on the edge of the stalled ones: it spread
# 0.27-0.34 over ten seeds, p95 0.04. p99 is printed but not a metric.
IMAGE_TAIL = 95


def layer_metric_units():
    units = {}
    for name in TRACE_TARGETS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.ms"] = "ms"
    units.update(EXTRA_LAYER_METRICS)
    return units


@dataclass(frozen=True)
class Sweep:
    """A sweep workload: the config it writes and how much work a run fixes."""

    tree: dict    # otafc config; base_seed is set per sweep from --seed
    # Sweeps every untraced run finishes (quality averages over them), and
    # the size of a traced run, done traced then untraced.
    sweeps: int


@dataclass(frozen=True)
class Images:
    """The image workload: one solved design, then images streamed through it."""

    n_antennas: int = 49
    num_groups: int = 3
    group_size: int = 50
    excess_budget: int = 1000
    heuristic: str = "uniform"
    # A fixed AO budget: no seed tried stalled before 18 iterations, so every
    # seed's design does the same work and set-up time does not hinge on it.
    design_iters: int = 15
    # Designs on independent channel draws; images cycle through them. Over
    # ten seeds the nmse of one design spread 12%; the mean of six, with the
    # fixed spectrum of _fixed_spectrum, spread 3.5%.
    designs: int = 6
    side: int = 28          # image side; conv stride 4 gives (side/4)^2 features
    num_classes: int = 10
    pool: int = 256         # distinct seeded images, streamed in a cycle
    image_noise: float = 1.2  # images are class templates plus this much noise
    quality_images: int = 4096
    traced_images: int = 32768


WORKLOADS = {
    # The paper's figure configuration; BLAS-bound solver at N=49.
    "reference_sweep": Sweep(
        tree={
            "topology": {"n_antennas": 49, "direct_link": False, "area_m": 200.0},
            "pathloss": {"carrier_ghz": 28.0, "model": "nlos"},
            "power": {"relay_w": 1.0},
            "estimator": "ls",
            "task": {"num_classes": 10, "num_samples": 512},
            "sweep": {"heuristic": ["uniform", "prop_min", "front_loaded",
                                    "all_first", "channel_aware"],
                      "excess_budget": [200, 600, 1000], "pilot_power": [1.0],
                      "num_groups": [3], "group_size": [50]},
            "trials": 1,
            "workers": 1,
        },
        sweeps=2),
    # Small matrices in a deep chain: O(L^2) cascade walks and Python call
    # overhead dominate; also covers the direct link and `inject`. At the
    # default cap of 100 AO iterations about 60% of trials hit the cap, so
    # the trial median fell in the converged or the capped cluster by seed.
    # At 40 about 75% hit it, and the mean nmse moves by about 1%.
    "deep_cascade": Sweep(
        tree={
            "topology": {"n_antennas": 16, "direct_link": True, "area_m": 200.0},
            "pathloss": {"carrier_ghz": 28.0, "model": "nlos"},
            "power": {"relay_w": 1.0},
            "estimator": "inject",
            "task": {"num_classes": 10, "num_samples": 256},
            "sweep": {"heuristic": ["front_loaded", "channel_aware"],
                      "excess_budget": [200, 1000], "pilot_power": [1.0],
                      "num_groups": [6], "group_size": [12]},
            "solver": {"max_outer_iters": 40},
            "trials": 2,
            "workers": 1,
        },
        sweeps=10),
    # Inference-bound control: the solver runs only in set-up.
    "image_inference": Images(),
}


def sweep_seed(seed: int, index: int) -> int:
    """base_seed of the index-th sweep of a run."""
    return seed * 100_000 + index


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def design_problems(est, noise, budget, result, nmse) -> list:
    """Checks on one solved design: power caps, monotone trace, finite nmse."""
    problems = []
    f1, gains = result.params.f1, result.params.a
    if not np.sum(np.abs(f1) ** 2) <= budget.p_max_bs * (1 + POWER_TOL):
        problems.append("precoder power above P_max")
    for l in range(1, est.num_groups + 1):
        used = np.abs(gains[l - 1]) ** 2 * relay_input_powers(est, gains, f1, noise, l)
        if not np.all(used <= budget.p_relay[l - 1] * (1 + POWER_TOL)):
            problems.append(f"relay cap exceeded in group {l} on the estimates")
    if not np.all(np.diff(np.asarray(result.objective_trace)) <= 0):
        problems.append("objective trace increased")
    if not np.isfinite(nmse):
        problems.append("nmse not finite")
    return problems


def _percentile(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _windowed_median(values, window) -> float:
    """Mean of the medians of consecutive windows of `window` values.

    The machine's speed drifts between states that last tens of seconds. The
    median of a run that mixes two states jumps to whichever holds the
    majority; this averages them in proportion, like a throughput does. A
    window is about a second of images, or the trials of one sweep.
    """
    v = np.asarray(values, dtype=float)
    full = len(v) // window
    if full == 0:
        return float(np.median(v))
    return float(np.median(v[:full * window].reshape(full, window), axis=1).mean())


# --------------------------------------------------------- machine speed

_REF_RNG = np.random.default_rng(20_260_417)
_REF_MATRICES = [_REF_RNG.standard_normal((n, n)) + 1j * _REF_RNG.standard_normal((n, n))
                 for n in (16, 49)]
_REF_VECTORS = [_REF_RNG.standard_normal(n) + 0j for n in (16, 49)]


def reference_kernel() -> float:
    """A fixed mix of small complex matrix algebra and scalar Python code.

    It uses numpy alone, never the package, so its time tracks the speed of
    the machine and not the code under test.
    """
    acc = 0.0
    for a, v in zip(_REF_MATRICES, _REF_VECTORS):
        for _ in range(6):
            b = a @ a.conj().T + np.eye(len(a))
            x = np.linalg.solve(b, v)
            acc += float(np.real(np.vdot(x, v))) + float(np.abs(x).max())
            for k in range(8):
                acc += float(abs(v[k]) ** 2)
    return acc


class SpeedProbe:
    """Times reference_kernel between the timed items of a run.

    This machine's speed moves between states up to about 40% apart that
    last seconds to minutes, whatever runs. The reference kernel slows with
    it, so a timing scaled by REFERENCE_MS over the reference time is the
    timing at a fixed machine speed: throughputs use the mean reference
    time of the run (time_scale), latency percentiles the reference time
    around each item (local_scale).
    """

    def __init__(self):
        self.samples = array("d")

    def sample(self, times=1):
        for _ in range(times):
            t0 = time.perf_counter()
            reference_kernel()
            self.samples.append(time.perf_counter() - t0)

    @property
    def reference_ms(self) -> float:
        return float(np.mean(self.samples)) * 1e3

    def local_scale(self, positions) -> np.ndarray:
        """time_scale around each item, for latency percentiles.

        An item at position p was timed after p samples; its reference time
        is the median of the SPEED_NEIGHBOURS samples before it and after it,
        so a state of the machine is matched to the items timed in it and a
        stall that hits one sample is ignored.
        """
        ms = np.asarray(self.samples) * 1e3
        k = SPEED_NEIGHBOURS
        by_position = np.array([np.median(ms[max(0, p - k):p + k])
                                for p in range(len(ms) + 1)])
        return REFERENCE_MS / by_position[np.asarray(positions)]

    @property
    def time_scale(self) -> float:
        """Factor that takes a time measured in this run to the reference speed."""
        return REFERENCE_MS / self.reference_ms


# --------------------------------------------------------------- sweeps


class TrialProbe:
    """Times each trial and checks its design, swapped in around run_trial.

    The checks and the reference samples run after the trial's clock stops;
    their time is summed in `check_s` so callers take it out of the sweep
    wall time.
    """

    def __init__(self):
        self.speed = SpeedProbe()
        self.sweep = 0
        self.trials = []
        self.problems = []
        self.check_s = 0.0
        self._solve = None
        self._overrun = None

    @contextlib.contextmanager
    def installed(self):
        with contextlib.ExitStack() as stack:
            stack.enter_context(spans.swapped(harness.solve, self._wrap_solve))
            stack.enter_context(spans.swapped(harness.evaluate_true, self._wrap_evaluate))
            stack.enter_context(spans.swapped(harness.run_trial, self._wrap_trial))
            yield self

    def _wrap_solve(self, fn):
        def solve(est, target, noise, budget, *args, **kwargs):
            result = fn(est, target, noise, budget, *args, **kwargs)
            self._solve = (est, noise, budget, result)
            return result
        return solve

    def _wrap_evaluate(self, fn):
        def evaluate_true(*args, **kwargs):
            ev = fn(*args, **kwargs)
            self._overrun = ev.relay_power_overrun
            return ev
        return evaluate_true

    def _wrap_trial(self, fn):
        def run_trial(cfg, point, trial_seed, *args, **kwargs):
            self._solve = self._overrun = None
            t0 = time.perf_counter()
            try:
                res = fn(cfg, point, trial_seed, *args, **kwargs)
            except Exception as exc:  # harness records it as a failed trial
                t1 = time.perf_counter()
                self._record(point, t1 - t0, None, f"error:{type(exc).__name__}")
                self.check_s += time.perf_counter() - t1
                raise
            t1 = time.perf_counter()
            self._record(point, t1 - t0, res, res.status)
            self.speed.sample(SPEED_SAMPLES_PER_TRIAL)
            self.check_s += time.perf_counter() - t1
            return res
        return run_trial

    def _record(self, point, seconds, res, status):
        problems = []
        if status.startswith("error"):
            problems.append(f"status {status}")
        elif self._solve is None:
            problems.append("solve was not observed")
        else:
            est, noise, budget, result = self._solve
            problems += design_problems(est, noise, budget, result, res.nmse)
            if not (0.0 <= res.ota_acc <= 1.0 and 0.0 <= res.digital_acc <= 1.0):
                problems.append("accuracy outside [0, 1]")
        solved = self._solve[3] if self._solve is not None else None
        self.trials.append({
            "sweep": self.sweep,
            "point": point.key,
            "ms": seconds * 1e3,
            "speed_position": len(self.speed.samples),
            "nmse": res.nmse if res is not None else float("nan"),
            "ota_acc": res.ota_acc if res is not None else float("nan"),
            "iterations": solved.iterations if solved is not None else 0,
            "converged": solved is not None and solved.status == "converged",
            "overrun": self._overrun if self._overrun is not None else 0.0,
            "ok": not problems,
        })
        self.problems += [f"sweep {self.sweep} trial {point.key}: {p}" for p in problems]
        self._solve = self._overrun = None


def setup_sweep(spec: Sweep, work: str) -> str:
    """Write the workload config and load it once; returns its path."""
    path = os.path.join(work, "config.yaml")
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(spec.tree, fh)
    harness.load_config(path)
    return path


def run_sweeps(config_path, seed, work, probe, min_sweeps, seconds=0.0):
    """`otafc run` sweeps until `seconds` pass, at least `min_sweeps` of them.

    Returns the wall time of each sweep and its (csv path, exit code).
    """
    walls, outputs = [], []
    start = time.perf_counter()
    i = 0
    while i < min_sweeps or time.perf_counter() - start < seconds:
        out = os.path.join(work, f"sweep{i}.csv")
        probe.sweep = i
        argv = ["run", "--config", config_path, "--out", out,
                "--seed", str(sweep_seed(seed, i))]
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        walls.append(time.perf_counter() - t0)
        outputs.append((out, rc))
        i += 1
    return walls, outputs


CSV_COLUMNS = ("heuristic", "excess_budget", "pilot_power", "L", "K_per_group",
               "tau_tot", "nmse_mean", "nmse_se", "acc_ota_mean", "acc_ota_se",
               "acc_dig_mean", "acc_dig_se", "iters_mean")


def csv_problems(spec: Sweep, outputs, trials) -> list:
    """Each sweep's CSV: exit code, one row per point, columns, nmse means."""
    points = harness.config_from_dict(spec.tree).sweep_points()
    max_groups = max(p.num_groups for p in points)
    columns = CSV_COLUMNS + tuple(f"m{l}" for l in range(max_groups + 1))
    problems = []
    for i, (path, rc) in enumerate(outputs):
        if rc != 0:
            problems.append(f"sweep {i}: otafc run exited {rc}")
            continue
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            missing = [c for c in columns if c not in (reader.fieldnames or ())]
            rows = list(reader)
        if missing:
            problems.append(f"sweep {i}: CSV lacks columns {missing}")
            continue
        if len(rows) != len(points):
            problems.append(f"sweep {i}: CSV has {len(rows)} rows, expected {len(points)}")
            continue
        for row, pt in zip(rows, points):
            if (row["heuristic"], int(row["excess_budget"])) != (pt.heuristic, pt.excess_budget):
                problems.append(f"sweep {i}: CSV row order differs at {pt.key}")
                break
            nmse = [t["nmse"] for t in trials if t["sweep"] == i and t["point"] == pt.key]
            if not nmse or not np.isclose(float(row["nmse_mean"]), np.mean(nmse),
                                          rtol=1e-8, atol=0.0):
                problems.append(f"sweep {i}: CSV nmse_mean at {pt.key} does not "
                                "match its trials")
    return problems


def measure_sweep(spec: Sweep, seed, seconds, work):
    """Untraced run of a sweep workload."""
    config_path = setup_sweep(spec, work)
    probe = TrialProbe()
    with probe.installed():
        walls, outputs = run_sweeps(config_path, seed, work, probe,
                                    spec.sweeps, seconds)
    rss = peak_rss_mb()
    trials = probe.trials
    problems = probe.problems + csv_problems(spec, outputs, trials)
    ms = np.array([t["ms"] for t in trials])
    ms_norm = ms * probe.speed.local_scale([t["speed_position"] for t in trials])
    quality = [t for t in trials if t["sweep"] < spec.sweeps]
    tps = len(trials) / (sum(walls) - probe.check_s)
    # every sweep holds the same number of trials
    p50 = _windowed_median(ms, len(ms) // len(walls))
    tail = _percentile(ms, TRIAL_TAIL)
    failed = sum(not t["ok"] for t in trials)
    scale = probe.speed.time_scale
    metrics = {
        "items_per_s_norm": tps / scale,
        "item_ms_p50_norm": _windowed_median(ms_norm, len(ms) // len(walls)),
        "item_ms_tail_norm": _percentile(ms_norm, TRIAL_TAIL),
        "nmse_mean": float(np.mean([t["nmse"] for t in quality])),
        "acc_ota_mean": float(np.mean([t["ota_acc"] for t in quality])),
        "peak_rss_mb": rss,
    }
    report = [
        ("trials_per_s", tps, "1/s"),
        ("trial_ms_p50", p50, "ms"),
        (f"trial_ms_p{TRIAL_TAIL}", tail, "ms"),
        ("reference_ms", probe.speed.reference_ms, "ms"),
        ("trials_per_s_norm", metrics["items_per_s_norm"], "1/s"),
        ("trial_ms_p50_norm", metrics["item_ms_p50_norm"], "ms"),
        (f"trial_ms_p{TRIAL_TAIL}_norm", metrics["item_ms_tail_norm"], "ms"),
        ("nmse_mean", metrics["nmse_mean"], "ratio"),
        ("acc_ota_mean", metrics["acc_ota_mean"], "ratio"),
        ("failed_frac", failed / max(len(trials), 1), "ratio"),
        ("peak_rss_mb", rss, "MB"),
        ("trials", len(trials), "count"),
        ("sweeps", len(walls), "count"),
    ]
    return Outcome(metrics, report, len(trials), failed, problems)


def trace_sweep(spec: Sweep, seed, work):
    """Traced run of a sweep workload, then the same sweeps untraced."""
    tracer = spans.Tracer(TRACE_TARGETS, root="harness.run_trial")
    with tracer:
        config_path = setup_sweep(spec, work)
        probe = TrialProbe()
        with probe.installed():
            walls, outputs = run_sweeps(config_path, seed, work, probe,
                                        spec.sweeps)
    # checked now: the untraced pass writes the same CSV paths
    problems = probe.problems + csv_problems(spec, outputs, probe.trials)
    plain = TrialProbe()
    with plain.installed():
        plain_walls, plain_outputs = run_sweeps(config_path, seed, work, plain,
                                                spec.sweeps)
    problems += plain.problems + csv_problems(spec, plain_outputs, plain.trials)
    traced_s = sum(walls) - probe.check_s
    plain_s = sum(plain_walls) - plain.check_s
    trials = probe.trials
    summary = tracer.summary()
    metrics = layer_metrics(
        summary,
        iterations=sum(t["iterations"] for t in trials),
        converged=[t["converged"] for t in trials],
        overrun=max((t["overrun"] for t in trials), default=0.0),
        harness_overhead_s=traced_s - summary["harness.run_trial"][2],
        traced_s=traced_s, plain_s=plain_s)
    report = [("traced_trials_per_s", len(trials) / traced_s, "1/s"),
              ("untraced_trials_per_s", len(plain.trials) / plain_s, "1/s")]
    failed = sum(not t["ok"] for t in trials + plain.trials)
    return Outcome(metrics, report, len(trials) + len(plain.trials), failed, problems)


def layer_metrics(summary, iterations, converged, overrun, harness_overhead_s,
                  traced_s, plain_s) -> dict:
    metrics = {}
    for name, (calls, self_s, _) in summary.items():
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.ms"] = self_s * 1e3
    solve_s = summary["solver.solve"][2]
    metrics["solver.iterations"] = iterations
    metrics["solver.ms_per_iter"] = solve_s * 1e3 / iterations if iterations else 0.0
    metrics["solver.converged_frac"] = (float(np.mean(converged)) if converged else 0.0)
    metrics["solver.relay_power_overrun_max"] = float(overrun)
    metrics["harness.overhead_ms"] = harness_overhead_s * 1e3
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return metrics


# --------------------------------------------------------------- images


@dataclass
class Design:
    """One solved design of the image workload, on its own channel draw."""

    params: object
    true_ch: object
    nmse: float
    iterations: int
    converged: bool
    overrun: float


@dataclass
class ImageSetup:
    pipeline: object
    designs: list
    noise: object
    images: np.ndarray
    noise_seed: object
    problems: list

    @property
    def nmse(self) -> float:
        return float(np.mean([d.nmse for d in self.designs]))


def _fixed_spectrum(a, b):
    """U diag(s) V^H with U, V the unitary factors of a and b, s fixed.

    s are the quantiles of the quarter-circle law, which the singular values
    of an f x f complex Gaussian matrix of entry variance 1/f follow. The
    matrix then looks like such a draw, but how hard it is to fit over the
    air does not hinge on the draw's spectrum.
    """
    f = a.shape[0]
    theta = np.linspace(0.0, np.pi / 2, 4097)
    cdf = (np.sin(2 * theta) + 2 * theta) / np.pi    # at s = 2 sin(theta)
    s = 2 * np.sin(np.interp((np.arange(f) + 0.5) / f, cdf, theta))
    u, v = np.linalg.qr(a)[0], np.linalg.qr(b)[0]
    return ((u * s) @ v.conj().T).astype(np.complex64)


def _synthetic_pipeline(spec: Images, rng, templates):
    """Seeded random weights whose real head is fit to the class templates.

    The head is the pseudo-inverse of the templates' digital features, so a
    noiseless template scores one-hot and the class margins (and with them
    the OTA/digital agreement) do not hinge on a lucky draw of the head.
    """
    f, c = spec.n_antennas, spec.num_classes

    def cn(shape, var):
        return np.sqrt(var / 2) * (rng.standard_normal(shape)
                                   + 1j * rng.standard_normal(shape))

    front = dict(
        conv_kernel=(rng.standard_normal((2, 1, 3, 3)) / 3.0).astype(np.float32),
        conv_bias=(0.1 * rng.standard_normal(2)).astype(np.float32),
        bn_scale=(1.0 + cn(f, 0.01)).astype(np.complex64),
        bn_shift=cn(f, 0.01).astype(np.complex64),
        fc_mid_weight=_fixed_spectrum(cn((f, f), 1.0), cn((f, f), 1.0)),
        fc_mid_bias=cn(f, 0.01).astype(np.complex64),
    )
    identity_head = inference.ImportedPipeline(
        **front, fc_out_weight=np.eye(2 * f, dtype=np.float32),
        fc_out_bias=np.zeros(2 * f, dtype=np.float32))
    features = np.stack([inference.digital_forward(identity_head, t)
                         for t in templates], axis=1)
    return inference.ImportedPipeline(
        **front, fc_out_weight=np.linalg.pinv(features).astype(np.float32),
        fc_out_bias=np.zeros(c, dtype=np.float32))


def _solve_design(spec: Images, target, noise, seeds):
    """Placement, channels, estimates and a solved design from three seeds.

    Returns the design and the problems its output checks found.
    """
    f, L, K = spec.n_antennas, spec.num_groups, spec.group_size
    top = topology.Topology(n_tx=f, n_rx=f, n_stream=f, num_groups=L,
                            group_sizes=(K,) * L, area_width=200.0, area_depth=200.0)
    placement = topology.generate_placement(top, seeds[0])
    pathloss = channel.PathlossParams()
    true_ch = channel.draw_channels(placement, pathloss, seeds[1])
    plan = allocation.allocate(allocation.Heuristic(spec.heuristic), top,
                               spec.excess_budget,
                               channel.hop_statistics(placement, pathloss))
    est = estimation.estimate_all(true_ch, plan, noise, seeds[2])
    budget = solver.PowerBudget.uniform(top.group_sizes, float(f), 1.0)
    result = solver.solve(est, target, noise, budget,
                          solver.SolverConfig(max_outer_iters=spec.design_iters))
    ev = solver.evaluate_true(result.params, true_ch, target, noise, budget)
    design = Design(params=result.params, true_ch=true_ch, nmse=ev.nmse,
                    iterations=result.iterations,
                    converged=result.status == "converged",
                    overrun=ev.relay_power_overrun)
    return design, design_problems(est, noise, budget, result, ev.nmse)


def setup_images(spec: Images, seed, work) -> ImageSetup:
    """Seeded weights through a save/load round trip, then the solved designs."""
    seeds = np.random.SeedSequence(seed).spawn(3 + spec.designs)
    rng = np.random.default_rng(seeds[0])
    templates = rng.standard_normal((spec.num_classes, spec.side, spec.side))
    path = os.path.join(work, "pipeline.otaw")
    inference.save_pipeline(_synthetic_pipeline(spec, rng, templates), path)
    pipeline = inference.load_pipeline(path)

    noise = channel.default_noise_model(spec.num_groups)
    designs, problems = [], []
    for k, design_seed in enumerate(seeds[3:]):
        design, found = _solve_design(spec, pipeline.target_layer, noise,
                                      design_seed.spawn(3))
        designs.append(design)
        problems += [f"design {k}: {p}" for p in found]
    image_rng = np.random.default_rng(seeds[1])
    labels = np.arange(spec.pool) % spec.num_classes
    images = (templates[labels]
              + spec.image_noise * image_rng.standard_normal((spec.pool, spec.side, spec.side)))
    return ImageSetup(pipeline=pipeline, designs=designs, noise=noise, images=images,
                      noise_seed=seeds[2], problems=problems)


@dataclass
class ImageStream:
    item_s: array       # seconds per image, OTA and digital forward together
    wall_s: float       # stream wall time without the checks and speed samples
    speed: SpeedProbe
    agree: int          # images of the first `quality` whose argmaxes agree
    quality: int
    bad: int            # images with non-finite scores


def stream_images(setup: ImageSetup, min_images, quality, seconds=0.0) -> ImageStream:
    """Seeded images through imported_forward and digital_forward.

    Image i goes over design i mod the number of designs.
    """
    rng = np.random.default_rng(setup.noise_seed)
    speed = SpeedProbe()
    item_s = array("d")
    agree = bad = 0
    check_s = 0.0
    pool, designs = len(setup.images), setup.designs
    start = time.perf_counter()
    i = 0
    while i < min_images or time.perf_counter() - start < seconds:
        image = setup.images[i % pool]
        design = designs[i % len(designs)]
        t0 = time.perf_counter()
        ota = inference.imported_forward(setup.pipeline, image, design.params,
                                         design.true_ch, setup.noise, rng)
        dig = inference.digital_forward(setup.pipeline, image)
        t1 = time.perf_counter()
        item_s.append(t1 - t0)
        if not (np.isfinite(ota).all() and np.isfinite(dig).all()):
            bad += 1
        elif i < quality and np.argmax(ota) == np.argmax(dig):
            agree += 1
        i += 1
        if i % IMAGES_PER_SPEED_SAMPLE == 0:
            speed.sample()
        check_s += time.perf_counter() - t1
    if not speed.samples:
        speed.sample()
    wall = time.perf_counter() - start - check_s
    return ImageStream(item_s=item_s, wall_s=wall, speed=speed, agree=agree,
                       quality=min(quality, i), bad=bad)


def measure_images(spec: Images, seed, seconds, work):
    """Untraced run of the image workload."""
    setup = setup_images(spec, seed, work)
    stream = stream_images(setup, spec.quality_images, spec.quality_images, seconds)
    rss = peak_rss_mb()
    n = len(stream.item_s)
    problems = list(setup.problems)
    if stream.bad:
        problems.append(f"{stream.bad} images scored non-finite")
    us = np.asarray(stream.item_s) * 1e6
    ips = n / stream.wall_s
    us_p50 = _windowed_median(us, IMAGE_WINDOW)
    us_tail = _percentile(us, IMAGE_TAIL)
    agreement = stream.agree / stream.quality
    scale = stream.speed.time_scale
    us_norm = us * stream.speed.local_scale(np.arange(n) // IMAGES_PER_SPEED_SAMPLE)
    us_p50_norm = _windowed_median(us_norm, IMAGE_WINDOW)
    us_tail_norm = _percentile(us_norm, IMAGE_TAIL)
    metrics = {
        "items_per_s_norm": ips / scale,
        "item_ms_p50_norm": us_p50_norm / 1e3,
        "item_ms_tail_norm": us_tail_norm / 1e3,
        "nmse_mean": setup.nmse,
        "acc_ota_mean": agreement,
        "peak_rss_mb": rss,
    }
    report = [
        ("images_per_s", ips, "1/s"),
        ("image_us_p50", us_p50, "us"),
        (f"image_us_p{IMAGE_TAIL}", us_tail, "us"),
        ("image_us_p99", _percentile(us, 99), "us"),
        ("reference_ms", stream.speed.reference_ms, "ms"),
        ("images_per_s_norm", metrics["items_per_s_norm"], "1/s"),
        ("image_us_p50_norm", us_p50_norm, "us"),
        (f"image_us_p{IMAGE_TAIL}_norm", us_tail_norm, "us"),
        ("top1_agreement", agreement, "ratio"),
        ("nmse_mean", setup.nmse, "ratio"),
        ("failed_frac", stream.bad / n, "ratio"),
        ("peak_rss_mb", rss, "MB"),
        ("images", n, "count"),
    ]
    return Outcome(metrics, report, n, stream.bad, problems)


def trace_images(spec: Images, seed, work):
    """Traced set-up and image stream, then the same stream untraced."""
    tracer = spans.Tracer(TRACE_TARGETS, root="inference.imported_forward")
    with tracer:
        setup = setup_images(spec, seed, work)
        traced = stream_images(setup, spec.traced_images, 0)
    plain = stream_images(setup, spec.traced_images, 0)
    summary = tracer.summary()
    metrics = layer_metrics(
        summary, iterations=sum(d.iterations for d in setup.designs),
        converged=[d.converged for d in setup.designs],
        overrun=max(d.overrun for d in setup.designs), harness_overhead_s=0.0,
        traced_s=traced.wall_s, plain_s=plain.wall_s)
    problems = list(setup.problems)
    bad = traced.bad + plain.bad
    if bad:
        problems.append(f"{bad} images scored non-finite")
    report = [("traced_images_per_s", len(traced.item_s) / traced.wall_s, "1/s"),
              ("untraced_images_per_s", len(plain.item_s) / plain.wall_s, "1/s")]
    return Outcome(metrics, report, len(traced.item_s) + len(plain.item_s), bad, problems)


# --------------------------------------------------------------- runs


@dataclass
class Outcome:
    metrics: dict     # benchmark metric name -> value
    report: list      # (name, value, unit) lines in the workload's own terms
    attempted: int
    failed: int
    problems: list    # failed output checks; empty when the run is correct


def run_setup(name, seed, work):
    """The set-up of a workload alone, as a set-up timing child runs it."""
    spec = WORKLOADS[name]
    if isinstance(spec, Sweep):
        setup_sweep(spec, work)
    else:
        setup_images(spec, seed, work)


def measure_setup(run_py, name, seed, work, samples, tag):
    """Seconds from spawning a fresh interpreter to the end of its set-up.

    Each child prints CLOCK_MONOTONIC when its set-up is done; the clock is
    shared with this process, so interpreter exit is not counted.
    """
    times, problems = [], []
    for k in range(samples):
        child_work = os.path.join(work, f"setup-{tag}{k}")
        os.makedirs(child_work)
        cmd = [sys.executable, run_py, "--workload", name, "--seed", str(seed),
               "--setup-only", child_work]
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            problems.append(f"set-up child ran past {SETUP_TIMEOUT_S} s")
            continue
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or lines[0] != "ready":
            problems.append(f"set-up child exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
            continue
        times.append(float(lines[1]) - t0)
    return times, problems


def run(name, seed, seconds, trace, work, run_py) -> Outcome:
    """One benchmark run of a workload.

    Half of the set-up samples are taken before the timed region and half
    after, so a slow spell of the machine does not land on all of them.
    """
    spec = WORKLOADS[name]
    sweep = isinstance(spec, Sweep)
    if trace:
        return (trace_sweep if sweep else trace_images)(spec, seed, work)
    half = SETUP_SAMPLES // 2
    before, problems = measure_setup(run_py, name, seed, work, half, "a")
    out = (measure_sweep(spec, seed, seconds, work) if sweep
           else measure_images(spec, seed, seconds, work))
    after, more = measure_setup(run_py, name, seed, work, SETUP_SAMPLES - half, "b")
    times = before + after
    setup_s = statistics.median(times) if times else float("nan")
    out.metrics["setup_s"] = setup_s
    # one fresh-process sample, printed to compare its spread with the median's
    out.report[:0] = [("setup_s", setup_s, "s"),
                      ("setup_s_first", times[0] if times else float("nan"), "s")]
    out.problems += problems + more
    return out
