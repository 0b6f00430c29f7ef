"""Experiment runner: config loading, seeded trial pipeline, CSV output.

A trial is one full pipeline pass at a sweep point: place relays, draw
channels, allocate the training budget, estimate, solve, then evaluate
emulation error and task accuracy on the true channels. Sweep points are
the cartesian product of the configured axes. The points that differ only
in their excess budget form a chain, one heuristic's budget curve. Trial i
of every point of a chain runs on one seed, derived from (base_seed,
chain, i), so the budgets of a curve share their placement, channels,
target and task, and runs are reproducible. Budgets run in ascending
order, and each solve starts from the design of the budget below it, so a
point's numbers depend on the lower budgets of its chain.
"""

import concurrent.futures
from dataclasses import dataclass, field

import numpy as np
import yaml

from .allocation import Heuristic, allocate
from .channel import (PathlossParams, default_noise_model, draw_channels,
                      hop_statistics)
from .estimation import estimate_all, inject_error
from .inference import accuracy, make_synthetic_task
from .solver import (OtaParams, PowerBudget, SolverConfig, TargetLayer,
                     evaluate_true, solve)
from .topology import Topology, generate_placement
from .utils import complex_normal

_MASK64 = (1 << 64) - 1


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class SweepPoint:
    heuristic: str
    excess_budget: int
    pilot_power: float
    num_groups: int
    group_size: int

    @property
    def key(self) -> str:
        return (f"{self.heuristic}|{self.excess_budget}|{self.pilot_power:.9g}"
                f"|{self.num_groups}|{self.group_size}")

    @property
    def chain_key(self) -> str:
        """The key without the excess budget: the same for every budget of a chain."""
        return (f"{self.heuristic}|{self.pilot_power:.9g}"
                f"|{self.num_groups}|{self.group_size}")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one `run` needs; see README for the file schema.

    Defaults follow the reference configuration: 49 antennas, 28 GHz over
    300 MHz, a 200 m square area with 3 relay groups of 50, unit relay and
    pilot power, and an excess-budget sweep of 200..1000 channel uses.
    """

    n_antennas: int = 49
    direct_link: bool = False
    area_m: float = 200.0
    pathloss: PathlossParams = field(default_factory=PathlossParams)
    psd_dbm_per_hz: float = -174.0
    bandwidth_hz: float = 300e6
    bs_max_w: float = None  # None -> n_antennas watts
    relay_w: float = 1.0
    solver: SolverConfig = field(default_factory=SolverConfig)
    estimator: str = "ls"  # ls | inject | perfect
    num_classes: int = 10
    sample_noise_var: float = None  # None -> n_antennas / 16 (scale-matched)
    num_samples: int = 256
    heuristics: tuple = ("uniform",)
    excess_budgets: tuple = (200, 400, 600, 800, 1000)
    pilot_powers: tuple = (1.0,)
    num_groups_list: tuple = (3,)
    group_sizes_list: tuple = (50,)
    trials: int = 40
    base_seed: int = 1
    workers: int = 1

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("need at least one trial")
        if self.estimator not in ("ls", "inject", "perfect"):
            raise ConfigError(f"unknown estimator mode {self.estimator!r}")
        for name, axis in (("heuristic", self.heuristics),
                           ("excess_budget", self.excess_budgets),
                           ("pilot_power", self.pilot_powers),
                           ("num_groups", self.num_groups_list),
                           ("group_size", self.group_sizes_list)):
            if len(tuple(axis)) == 0:
                raise ConfigError(f"sweep axis {name} must be non-empty")
        for h in self.heuristics:
            try:
                Heuristic(h)
            except ValueError:
                raise ConfigError(f"unknown heuristic {h!r}") from None
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        for name, values, low in (("n_antennas", [self.n_antennas], 1),
                                  ("num_classes", [self.num_classes], 2),
                                  ("num_samples", [self.num_samples], 1),
                                  ("excess_budget", self.excess_budgets, 0),
                                  ("num_groups", self.num_groups_list, 1),
                                  ("group_size", self.group_sizes_list, 1)):
            for v in values:
                if v < low:
                    raise ConfigError(f"{name} must be >= {low}, got {v}")
        for name, values in (("pilot_power", self.pilot_powers),
                             ("relay_w", [self.relay_w]),
                             ("bs_max_w", [self.bs_max_w]),
                             ("bandwidth_hz", [self.bandwidth_hz]),
                             ("area_m", [self.area_m])):
            for v in values:
                if v is not None and not 0 < v < np.inf:  # also refuses NaN
                    raise ConfigError(f"{name} must be positive and finite, got {v}")
        if not np.isfinite(self.psd_dbm_per_hz):
            raise ConfigError(f"psd_dbm_per_hz must be finite, got {self.psd_dbm_per_hz}")
        if self.sample_noise_var is not None and not 0 <= self.sample_noise_var < np.inf:
            raise ConfigError(
                f"sample_noise_var must be finite and >= 0, got {self.sample_noise_var}")

    def sweep_points(self):
        """All sweep coordinates in sorted row order."""
        pts = []
        for h in sorted(self.heuristics):
            for e in sorted(self.excess_budgets):
                for p in sorted(self.pilot_powers):
                    for L in sorted(self.num_groups_list):
                        for k in sorted(self.group_sizes_list):
                            pts.append(SweepPoint(h, int(e), float(p), int(L), int(k)))
        return pts


def _integer(v):
    if isinstance(v, bool) or not (isinstance(v, (int, np.integer))
                                   or isinstance(v, float) and v.is_integer()):
        raise ValueError(f"must be an integer, got {v!r}")
    return int(v)


def _real(v):
    if isinstance(v, bool):  # float(True) is 1.0
        raise ValueError(f"must be a number, got {v!r}")
    return float(v)


def _boolean(v):
    if not isinstance(v, bool):  # bool("false") is True
        raise ValueError(f"must be true or false, got {v!r}")
    return v


def _axis(read):
    """A sweep axis: a scalar or a list, each value read by read."""
    return lambda v: tuple(read(x) for x in (v if isinstance(v, (list, tuple)) else [v]))


# Every key a config file may hold, as section -> key -> (field, reader); ""
# is the root. A section in _NESTED fills the fields of its own dataclass,
# every other one those of ExperimentConfig. Floats are read with _real,
# which refuses booleans but takes the strings YAML leaves for numbers such
# as 3.0e8.
_KEYS = {
    "": {"estimator": ("estimator", str), "trials": ("trials", _integer),
         "base_seed": ("base_seed", _integer), "workers": ("workers", _integer)},
    "topology": {"n_antennas": ("n_antennas", _integer),
                 "direct_link": ("direct_link", _boolean),
                 "area_m": ("area_m", _real)},
    "pathloss": {"carrier_ghz": ("carrier_ghz", _real), "model": ("model", str)},
    "noise": {"psd_dbm_per_hz": ("psd_dbm_per_hz", _real),
              "bandwidth_hz": ("bandwidth_hz", _real)},
    "power": {"bs_max_w": ("bs_max_w", _real), "relay_w": ("relay_w", _real)},
    "solver": {"max_outer_iters": ("max_outer_iters", _integer),
               "objective_tolerance": ("objective_tolerance", _real)},
    "task": {"num_classes": ("num_classes", _integer),
             "sample_noise_var": ("sample_noise_var", _real),
             "num_samples": ("num_samples", _integer)},
    "sweep": {"heuristic": ("heuristics", _axis(str)),
              "excess_budget": ("excess_budgets", _axis(_integer)),
              "pilot_power": ("pilot_powers", _axis(_real)),
              "num_groups": ("num_groups_list", _axis(_integer)),
              "group_size": ("group_sizes_list", _axis(_integer))},
}
_NESTED = {"pathloss": PathlossParams, "solver": SolverConfig}


def _read_section(tree: dict, section: str) -> dict:
    """The keys of one section that are given and not null, read into fields."""
    keys = _KEYS[section]
    known = list(keys) + ([] if section else [s for s in _KEYS if s])
    for key in tree:
        if key not in known:
            import difflib  # only on this error path: it costs set-up time and memory
            close = difflib.get_close_matches(str(key), known, n=1)
            hint = f"; did you mean {close[0]!r}?" if close else ""
            where = f"in section {section!r}" if section else "at the config root"
            raise ConfigError(f"unknown key {key!r} {where}{hint}")
    given = {}
    for key, (name, read) in keys.items():
        if tree.get(key) is not None:
            try:
                given[name] = read(tree[key])
            except (TypeError, ValueError) as exc:
                label = f"{section}.{key}" if section else key
                raise ConfigError(f"{label}: {exc}") from exc
    return given


def config_from_dict(tree: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a parsed config tree.

    A missing or null key, or a null section, keeps the default.
    """
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a mapping")
    kw = {}
    for section in _KEYS:
        part = tree.get(section) if section else tree
        if part is None:
            part = {}
        if not isinstance(part, dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
        given = _read_section(part, section)
        if section in _NESTED:
            try:
                kw[section] = _NESTED[section](**given)
            except ValueError as exc:
                raise ConfigError(f"{section}: {exc}") from exc
        else:
            kw.update(given)
    return ExperimentConfig(**kw)


def load_config(path) -> ExperimentConfig:
    """Parse a YAML (or JSON) config file into an ExperimentConfig."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            tree = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return config_from_dict(tree or {})


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def derive_trial_seed(base_seed: int, chain_key: str, trial: int) -> int:
    """base_seed XOR splitmix chain over (chain-key hash, trial index).

    run_experiment keys by SweepPoint.chain_key, so trial i of every budget
    of a chain gets one seed.
    """
    h = 0
    for byte in chain_key.encode():
        h = _splitmix64(h ^ byte)
    return (base_seed ^ _splitmix64(h ^ _splitmix64(trial))) & _MASK64


@dataclass
class TrialResult:
    nmse: float
    objective_true: float
    ota_acc: float
    digital_acc: float
    tau_tot: int
    rep: tuple
    iterations: int
    status: str
    relay_power_overrun: float  # of the design on the true channels, as evaluate_true
    # the solved design, for the next budget to start from; run_experiment
    # drops it once that budget has started, so no ResultRow holds one
    design: OtaParams = field(default=None, compare=False, repr=False)


def run_trial(cfg: ExperimentConfig, point: SweepPoint, trial_seed: int,
              start: OtaParams = None) -> TrialResult:
    """Execute one seeded pipeline pass at one sweep point; the solve starts
    from the design start (see solver.solve), or cold when it is None."""
    n = cfg.n_antennas
    topology = Topology(n_tx=n, n_rx=n, n_stream=n,
                        num_groups=point.num_groups,
                        group_sizes=(point.group_size,) * point.num_groups,
                        direct_link_present=cfg.direct_link,
                        area_width=cfg.area_m, area_depth=cfg.area_m)
    seeds = np.random.SeedSequence(trial_seed).spawn(6)

    placement = generate_placement(topology, seeds[0])
    ch = draw_channels(placement, cfg.pathloss, seeds[1])
    stats = hop_statistics(placement, cfg.pathloss)
    noise = default_noise_model(point.num_groups, cfg.psd_dbm_per_hz, cfg.bandwidth_hz)
    plan = allocate(Heuristic(point.heuristic), topology, point.excess_budget,
                    stats, pilot_power=point.pilot_power)

    rng_target = np.random.default_rng(seeds[2])
    w = complex_normal(rng_target, (n, n), 1.0 / n)
    target = TargetLayer(w=w, bias=np.zeros(n, dtype=complex))

    if cfg.estimator == "ls":
        est = estimate_all(ch, plan, noise, seeds[3])
    elif cfg.estimator == "inject":
        est = inject_error(ch, plan, noise, seeds[3])
    else:
        est = ch

    bs_max = float(n) if cfg.bs_max_w is None else cfg.bs_max_w
    budget = PowerBudget.uniform(topology.group_sizes, bs_max, cfg.relay_w)
    result = solve(est, target, noise, budget, cfg.solver, start=start)
    ev = evaluate_true(result.params, ch, target, noise, budget)

    # scale-matched default keeps task difficulty comparable across sizes
    svar = n / 16.0 if cfg.sample_noise_var is None else cfg.sample_noise_var
    task = make_synthetic_task(target, cfg.num_classes, svar, seeds[4])
    acc = accuracy(task, target, result.params, ch, noise, cfg.num_samples, seeds[5])
    return TrialResult(nmse=ev.nmse, objective_true=ev.objective_true,
                       ota_acc=acc["ota_acc"], digital_acc=acc["digital_acc"],
                       tau_tot=plan.tau_total, rep=plan.rep,
                       iterations=result.iterations, status=result.status,
                       relay_power_overrun=ev.relay_power_overrun, design=result.params)


def _trial_job(args, start=None):
    cfg, point, trial_seed = args
    try:
        return run_trial(cfg, point, trial_seed, start=start)
    except Exception as exc:  # recorded in the row, not fatal
        L = point.num_groups
        return TrialResult(nmse=np.nan, objective_true=np.nan, ota_acc=np.nan,
                           digital_acc=np.nan, tau_tot=0, rep=(0,) * (L + 1),
                           iterations=0, status=f"error:{type(exc).__name__}",
                           relay_power_overrun=np.nan)


def _chain_job(args):
    """Trial i of each point of one chain, budgets ascending: each trial
    starts from the design of the one before it, and cold after a failure.
    The results come back without designs."""
    cfg, points, trial_seed = args
    results, start = [], None
    for point in points:
        res = _trial_job((cfg, point, trial_seed), start)
        start, res.design = res.design, None
        results.append(res)
    return results


@dataclass
class ResultRow:
    """Aggregates for one sweep point, plus the per-trial results."""

    point: SweepPoint
    trials: list
    nmse_mean: float = np.nan
    nmse_se: float = np.nan
    acc_ota_mean: float = np.nan
    acc_ota_se: float = np.nan
    acc_dig_mean: float = np.nan
    acc_dig_se: float = np.nan
    tau_tot_mean: float = np.nan
    rep_mean: tuple = ()
    iters_mean: float = np.nan
    failures: int = 0
    converged_frac: float = np.nan
    overrun_max: float = np.nan

    def __post_init__(self):
        ok = [t for t in self.trials if not t.status.startswith("error")]
        self.failures = len(self.trials) - len(ok)
        if not ok:
            return
        self.converged_frac = sum(t.status == "converged" for t in ok) / len(ok)
        self.overrun_max = max(t.relay_power_overrun for t in ok)
        self.nmse_mean, self.nmse_se = _mean_se([t.nmse for t in ok])
        self.acc_ota_mean, self.acc_ota_se = _mean_se([t.ota_acc for t in ok])
        self.acc_dig_mean, self.acc_dig_se = _mean_se([t.digital_acc for t in ok])
        self.tau_tot_mean, _ = _mean_se([t.tau_tot for t in ok])
        self.iters_mean, _ = _mean_se([t.iterations for t in ok])
        reps = np.array([t.rep for t in ok], dtype=float)
        self.rep_mean = tuple(reps.mean(axis=0))


def _mean_se(values):
    arr = np.asarray(values, dtype=float)
    mean = float(arr.mean())
    se = float(arr.std(ddof=1) / np.sqrt(arr.size)) if arr.size > 1 else 0.0
    return mean, se


def run_experiment(cfg: ExperimentConfig) -> list:
    """Run every sweep point x trial and aggregate into sorted ResultRows.

    One job runs trial i of a chain: its points in ascending budget order
    (the order of sweep_points), all on the chain's i-th seed, each solve
    started from the previous budget's design. workers > 1 maps the jobs
    over a process pool; the rows do not depend on workers.
    """
    points = cfg.sweep_points()
    chains = {}  # chain key -> indices into points, budgets ascending
    for idx, pt in enumerate(points):
        chains.setdefault(pt.chain_key, []).append(idx)
    jobs = [(cfg, [points[idx] for idx in chain], derive_trial_seed(cfg.base_seed, key, i))
            for key, chain in chains.items() for i in range(cfg.trials)]
    if cfg.workers > 1:
        with concurrent.futures.ProcessPoolExecutor(cfg.workers) as pool:
            results = list(pool.map(_chain_job, jobs, chunksize=1))
    else:
        results = [_chain_job(j) for j in jobs]

    trials = [[] for _ in points]
    chain_of_job = [chain for chain in chains.values() for _ in range(cfg.trials)]
    for chain, chain_results in zip(chain_of_job, results):
        for idx, res in zip(chain, chain_results):
            trials[idx].append(res)
    return [ResultRow(point=pt, trials=t) for pt, t in zip(points, trials)]


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.9g}"


def emit_csv(rows: list, path) -> None:
    """Write the result table: stable documented columns, 9 significant digits.

    failures counts a point's failed trials; converged_frac and overrun_max
    (the largest relay power overrun on the true channels) are over the
    trials that did not fail.
    """
    max_phases = max((len(r.rep_mean) for r in rows), default=0)
    m_cols = [f"m{l}" for l in range(max_phases)]
    header = (["heuristic", "excess_budget", "pilot_power", "L", "K_per_group",
               "tau_tot"] + m_cols
              + ["nmse_mean", "nmse_se", "acc_ota_mean", "acc_ota_se",
                 "acc_dig_mean", "acc_dig_se", "iters_mean",
                 "failures", "converged_frac", "overrun_max"])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            reps = [_fmt(v) for v in r.rep_mean]
            reps += [""] * (max_phases - len(reps))
            cells = [r.point.heuristic, _fmt(r.point.excess_budget),
                     _fmt(r.point.pilot_power), _fmt(r.point.num_groups),
                     _fmt(r.point.group_size), _fmt(r.tau_tot_mean)]
            cells += reps
            cells += [_fmt(r.nmse_mean), _fmt(r.nmse_se),
                      _fmt(r.acc_ota_mean), _fmt(r.acc_ota_se),
                      _fmt(r.acc_dig_mean), _fmt(r.acc_dig_se),
                      _fmt(r.iters_mean), _fmt(r.failures),
                      _fmt(r.converged_frac), _fmt(r.overrun_max)]
            fh.write(",".join(cells) + "\n")
