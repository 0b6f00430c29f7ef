"""Experiment runner: config loading, seeded trial pipeline, CSV output.

A trial at a sweep point is Scenario -> design -> score. Scenario.draw
places relays and draws the true channels, target, task and the task's
sample set; allocate splits the point's training budget into a pilot plan;
design estimates the channels under that plan and solves; score evaluates
the design's emulation error and task accuracy on the true channels.

Sweep points are the cartesian product of the configured axes. The points
that differ only in their excess budget form a chain, one heuristic's
budget curve. Trial i of every point of a chain runs on one seed, derived
from (base_seed, chain, i), so the budgets of a curve share their
scenario, drawn once for them all, and runs are reproducible. Budgets run
in ascending order, and each solve starts from the design of the budget
below it, so a point's numbers depend on the lower budgets of its chain.
"""

import itertools
import operator
from dataclasses import dataclass, field

import numpy as np
import yaml

from .allocation import Heuristic, allocate
from .channel import (ChannelSet, HopStatistics, NoiseModel, PathlossParams,
                      default_noise_model, draw_channels, hop_statistics)
from .estimation import PilotPlan, estimate_all, inject_error
from .inference import (SyntheticTask, TaskSamples, draw_samples, make_synthetic_task,
                        ota_accuracy)
from .solver import (OtaParams, PowerBudget, SolveResult, SolverConfig,
                     TargetLayer, evaluate_true, solve)
from .topology import Topology, generate_placement
from .utils import complex_normal, integer, positive, real

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
        return "|".join(_fmt(v) for v in vars(self).values())

    @property
    def chain_key(self) -> str:
        """The key without the excess budget: the same for every budget of a chain."""
        return "|".join(_fmt(v) for axis, v in vars(self).items() if axis != "excess_budget")


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one `run` needs; see README for the file schema.

    Defaults follow the reference configuration: 49 antennas, 28 GHz over
    300 MHz, a 200 m square area with 3 relay groups of 50, unit relay and
    pilot power, and an excess-budget sweep of 200..1000 channel uses.
    Every field outside pathloss and solver is read by the reader of its
    config key, so a config built in code is checked as a file is.
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
    # the sweep axes, each a tuple of distinct values
    heuristic: tuple = ("uniform",)
    excess_budget: tuple = (200, 400, 600, 800, 1000)
    pilot_power: tuple = (1.0,)
    num_groups: tuple = (3,)
    group_size: tuple = (50,)
    trials: int = 40
    base_seed: int = 1
    workers: int = 1

    def __post_init__(self):
        for section, keys in _KEYS.items():
            for key in keys if section not in _NESTED else ():
                value = getattr(self, key)  # None passes where it is the default
                if value is not None or self.__dataclass_fields__[key].default is not None:
                    object.__setattr__(self, key, _read(section, key, value))
        for section, kind in _NESTED.items():  # a file always builds these
            if not isinstance(getattr(self, section), kind):
                raise ConfigError(f"{section} must be a {kind.__name__}, "
                                  f"got {getattr(self, section)!r}")

    def sweep_points(self):
        """All sweep coordinates in sorted row order."""
        axes = tuple(_KEYS["sweep"])
        return [SweepPoint(**dict(zip(axes, values)))
                for values in itertools.product(*(sorted(getattr(self, a)) for a in axes))]


def _boolean(v):
    if not isinstance(v, bool):  # bool("false") is True
        raise ValueError(f"must be true or false, got {v!r}")
    return v


def _reader(cast, ok=None, want=None):
    """A key's reader: cast the value (a TypeError, ValueError or, for an
    integer too large for a float, OverflowError says why it cannot be),
    then refuse a value that fails ok, described by want."""
    def read(label, value):
        try:
            value = cast(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"{label}: {exc}") from exc
        if ok is not None and not ok(value):  # NaN fails every comparison
            raise ConfigError(f"{label} must be {want}, got {value!r}")
        return value
    return read


def _at_least(low):
    return _reader(integer, lambda v: v >= low, f">= {low}")


def _one_of(choices):
    return _reader(str, lambda v: v in choices, "one of " + ", ".join(choices))


_POSITIVE = _reader(real, positive, "positive and finite")

# Every key a config file may hold, as section -> key -> reader; "" is the
# root. A reader checks both the type and the range of its key. A section
# in _NESTED fills the fields of its own dataclass, which checks their
# ranges; every other key is the name of an ExperimentConfig field. Counts
# are read with utils.integer and floats with utils.real, as the library
# constructors read them; real refuses booleans but takes the strings YAML
# leaves for numbers such as 3.0e8. The sweep section lists the axes.
_KEYS = {
    "": {"estimator": _one_of(("ls", "inject", "perfect")), "trials": _at_least(1),
         "base_seed": _reader(integer), "workers": _at_least(1)},
    "topology": {"n_antennas": _at_least(1), "direct_link": _reader(_boolean),
                 "area_m": _POSITIVE},
    "pathloss": {"carrier_ghz": _reader(real), "model": _reader(str)},
    "noise": {"psd_dbm_per_hz": _reader(real, np.isfinite, "finite"),
              "bandwidth_hz": _POSITIVE},
    "power": {"bs_max_w": _POSITIVE, "relay_w": _POSITIVE},
    "solver": {"max_outer_iters": _reader(integer),
               "objective_tolerance": _reader(real)},
    "task": {"num_classes": _at_least(2),
             "sample_noise_var": _reader(real, lambda v: positive(v, zero=True),
                                         "finite and >= 0"),
             "num_samples": _at_least(1)},
    "sweep": {"heuristic": _one_of(tuple(h.value for h in Heuristic)),
              "excess_budget": _at_least(0), "pilot_power": _POSITIVE,
              "num_groups": _at_least(1), "group_size": _at_least(1)},
}
_NESTED = {"pathloss": PathlossParams, "solver": SolverConfig}


def _read(section: str, key: str, value):
    """value read by the reader of one key, an axis value by value; errors name the key."""
    label = f"{section}.{key}" if section else key
    read = _KEYS[section][key]
    if section != "sweep":
        return read(label, value)
    values = tuple(read(label, v)
                   for v in (value if isinstance(value, (list, tuple)) else [value]))
    # rows, chains and seeds are keyed by the _fmt text, so two values that
    # print alike would give two rows one key
    if not values or len({_fmt(v) for v in values}) < len(values):
        raise ConfigError(f"{label} must be a non-empty list of distinct values, got {values!r}")
    return values


def config_from_dict(tree: dict) -> ExperimentConfig:
    """Build a validated ExperimentConfig from a parsed config tree.

    A missing or null key, or a null section, keeps the default.
    """
    if not isinstance(tree, dict):
        raise ConfigError("config root must be a mapping")
    kw = {}
    for section, keys in _KEYS.items():
        part = tree.get(section) if section else tree
        if part is None:
            part = {}
        if not isinstance(part, dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
        known = list(keys) + ([] if section else [s for s in _KEYS if s])
        for key in part:
            if key not in known:
                import difflib  # only on this error path: it costs set-up time and memory
                close = difflib.get_close_matches(str(key), known, n=1)
                hint = f"; did you mean {close[0]!r}?" if close else ""
                where = f"in section {section!r}" if section else "at the config root"
                raise ConfigError(f"unknown key {key!r} {where}{hint}")
        given = {key: part[key] for key in keys if part.get(key) is not None}
        if section in _NESTED:
            given = {key: _read(section, key, value) for key, value in given.items()}
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
    """One trial's numbers; a trial that raised keeps the defaults."""

    status: str
    nmse: float = np.nan
    objective_true: float = np.nan
    ota_acc: float = np.nan
    digital_acc: float = np.nan
    tau_tot: int = 0
    rep: tuple = ()
    iterations: int = 0
    relay_power_overrun: float = np.nan  # of the design on the true channels, as evaluate_true
    tallies: tuple = ()  # the solve's BlockTally of F1, then of a_1..a_L
    # the solved design, for the next budget to start from; run_experiment
    # drops it once that budget has started, so no ResultRow holds one
    design: OtaParams = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, eq=False)  # == is identity: fields are arrays
class Scenario:
    """One trial's world, drawn once: every plan designed and scored on it
    reads the same channels, target, task, samples and estimation seed.

    draw spawns six seeds from SeedSequence(trial_seed), in the order
    placement, channels, target, estimation, task, accuracy. It places the
    relays, draws the true channels, the target, the synthetic task and,
    from the accuracy seed, the task's sample set for score, and keeps the
    estimation seed for design. Every array it holds is read-only, the
    estimation seed's pool too.
    """

    cfg: ExperimentConfig
    topology: Topology
    ch: ChannelSet  # the true channels
    stats: HopStatistics
    noise: NoiseModel
    target: TargetLayer
    budget: PowerBudget
    task: SyntheticTask
    samples: TaskSamples
    est_seed: np.random.SeedSequence

    @classmethod
    def draw(cls, cfg: ExperimentConfig, num_groups: int, group_size: int,
             trial_seed: int) -> "Scenario":
        n = cfg.n_antennas
        topology = Topology(n_tx=n, n_rx=n, n_stream=n, num_groups=num_groups,
                            group_sizes=(group_size,) * num_groups,
                            direct_link_present=cfg.direct_link,
                            area_width=cfg.area_m, area_depth=cfg.area_m)
        seeds = np.random.SeedSequence(trial_seed).spawn(6)
        placement = generate_placement(topology, seeds[0])
        w = complex_normal(np.random.default_rng(seeds[2]), (n, n), 1.0 / n)
        target = TargetLayer(w=w, bias=np.zeros(n, dtype=complex))
        bs_max = float(n) if cfg.bs_max_w is None else cfg.bs_max_w
        # scale-matched default keeps task difficulty comparable across sizes
        svar = n / 16.0 if cfg.sample_noise_var is None else cfg.sample_noise_var
        task = make_synthetic_task(target, cfg.num_classes, svar, seeds[4])
        seeds[3].pool.flags.writeable = False  # default_rng only reads it
        return cls(cfg, topology, draw_channels(placement, cfg.pathloss, seeds[1]),
                   hop_statistics(placement, cfg.pathloss),
                   default_noise_model(num_groups, cfg.psd_dbm_per_hz, cfg.bandwidth_hz),
                   target, PowerBudget.uniform(topology.group_sizes, bs_max, cfg.relay_w),
                   task, draw_samples(task, target, cfg.num_samples, seeds[5]),
                   seeds[3])


def design(sc: Scenario, plan: PilotPlan, start: OtaParams = None) -> SolveResult:
    """Solve the scenario on its channels as cfg.estimator estimates them
    under plan, from the estimation seed; the solve starts from the design
    start (see solver.solve), or cold when it is None."""
    # built per call, so a swap of either module attribute is seen
    estimate = {"ls": estimate_all, "inject": inject_error}.get(sc.cfg.estimator)
    est = sc.ch if estimate is None else estimate(sc.ch, plan, sc.noise, sc.est_seed)
    return solve(est, sc.target, sc.noise, sc.budget, sc.cfg.solver, start=start)


def score(sc: Scenario, plan: PilotPlan, result: SolveResult) -> TrialResult:
    """The trial's record of a design of the scenario: emulation error and
    relay power overrun on the true channels, and task accuracy on the
    scenario's samples."""
    ev = evaluate_true(result.params, sc.ch, sc.target, sc.noise, sc.budget)
    ota_acc = ota_accuracy(sc.task, sc.samples, sc.target, result.params, sc.ch, sc.noise)
    return TrialResult(nmse=ev.nmse, objective_true=ev.objective_true,
                       ota_acc=ota_acc, digital_acc=sc.samples.digital_acc,
                       tau_tot=plan.tau_total, rep=plan.rep,
                       iterations=result.iterations, status=result.status,
                       relay_power_overrun=ev.relay_power_overrun, tallies=result.tallies,
                       design=result.params)


def run_trial(sc: Scenario, point: SweepPoint, start: OtaParams) -> TrialResult:
    """One pipeline pass at one sweep point on the scenario sc: allocate the
    point's pilot plan, design and score; the solve starts from the design
    start, or cold when it is None."""
    plan = allocate(Heuristic(point.heuristic), sc.topology, point.excess_budget,
                    sc.stats, pilot_power=point.pilot_power)
    return score(sc, plan, design(sc, plan, start))


def _chain_job(args):
    """Trial i of each point of one chain, budgets ascending, all on one
    scenario drawn here: each trial starts from the design of the one
    before it, and cold after a failure, which is recorded in its result,
    not raised; a draw that raises fails every trial. The (point, result)
    pairs come back without designs."""
    cfg, points, trial_seed = args
    try:
        sc = Scenario.draw(cfg, points[0].num_groups, points[0].group_size, trial_seed)
    except Exception as exc:
        return [(point, TrialResult(status=f"error:{type(exc).__name__}")) for point in points]
    results, start = [], None
    for point in points:
        try:
            res = run_trial(sc, point, start)  # three positionals, as perfbench wraps it
        except Exception as exc:
            res = TrialResult(status=f"error:{type(exc).__name__}")
        start, res.design = res.design, None
        results.append((point, res))
    return results


@dataclass
class ResultRow:
    """Aggregates for one sweep point, plus the per-trial results."""

    point: SweepPoint
    trials: list
    nmse_mean: float = field(init=False, default=np.nan)
    nmse_se: float = field(init=False, default=np.nan)
    acc_ota_mean: float = field(init=False, default=np.nan)
    acc_ota_se: float = field(init=False, default=np.nan)
    acc_dig_mean: float = field(init=False, default=np.nan)
    acc_dig_se: float = field(init=False, default=np.nan)
    tau_tot_mean: float = field(init=False, default=np.nan)
    rep_mean: tuple = field(init=False, default=())
    iters_mean: float = field(init=False, default=np.nan)
    failures: int = field(init=False)
    converged_frac: float = field(init=False, default=np.nan)
    overrun_max: float = field(init=False, default=np.nan)

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
    trials = {pt: [] for pt in cfg.sweep_points()}
    chains = {}  # chain key -> points, budgets ascending
    for pt in trials:
        chains.setdefault(pt.chain_key, []).append(pt)
    jobs = [(cfg, chain, derive_trial_seed(cfg.base_seed, key, i))
            for key, chain in chains.items() for i in range(cfg.trials)]
    if cfg.workers > 1:
        import concurrent.futures  # only here: a serial run loads no pool
        with concurrent.futures.ProcessPoolExecutor(cfg.workers) as pool:
            results = list(pool.map(_chain_job, jobs, chunksize=1))
    else:
        results = [_chain_job(j) for j in jobs]
    for pt, res in itertools.chain.from_iterable(results):
        trials[pt].append(res)
    return [ResultRow(point=pt, trials=t) for pt, t in trials.items()]


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.9g}"


# The CSV columns in order, each with the ResultRow attribute it shows; "m"
# stands for m0..mL, the entries of rep_mean, as many as the longest row has.
_COLUMNS = (("heuristic", "point.heuristic"), ("excess_budget", "point.excess_budget"),
            ("pilot_power", "point.pilot_power"), ("L", "point.num_groups"),
            ("K_per_group", "point.group_size"), ("tau_tot", "tau_tot_mean"),
            ("m", "rep_mean"), ("nmse_mean", "nmse_mean"), ("nmse_se", "nmse_se"),
            ("acc_ota_mean", "acc_ota_mean"), ("acc_ota_se", "acc_ota_se"),
            ("acc_dig_mean", "acc_dig_mean"), ("acc_dig_se", "acc_dig_se"),
            ("iters_mean", "iters_mean"), ("failures", "failures"),
            ("converged_frac", "converged_frac"), ("overrun_max", "overrun_max"))


def emit_csv(rows: list, path) -> None:
    """Write the result table: stable documented columns, 9 significant digits.

    failures counts a point's failed trials; converged_frac and overrun_max
    (the largest relay power overrun on the true channels) are over the
    trials that did not fail.
    """
    width = max((len(r.rep_mean) for r in rows), default=0)
    header = [col for name, _ in _COLUMNS
              for col in ([f"m{l}" for l in range(width)] if name == "m" else [name])]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for r in rows:
            cells = []
            for name, attr in _COLUMNS:
                value = operator.attrgetter(attr)(r)
                cells += ([_fmt(v) for v in value] + [""] * (width - len(value))
                          if name == "m" else [_fmt(value)])
            fh.write(",".join(cells) + "\n")
