import csv
import dataclasses
import gc
import re
import types

import numpy as np
import pytest

import otafc.harness as harness
from otafc import (Cascade, ConfigError, ExperimentConfig, Heuristic, OtaParams, SweepPoint,
                   allocate, config_from_dict, derive_trial_seed, emit_csv, load_config,
                   run_experiment, run_trial)
from otafc.cli import main as cli_main
from otafc.harness import ResultRow, Scenario, TrialResult, _chain_job, design, score
from otafc.solver import BlockTally

TINY_CFG = dict(
    topology=dict(n_antennas=4, area_m=120.0),
    sweep=dict(heuristic=["uniform"], excess_budget=[0, 60],
               pilot_power=[1.0], num_groups=[2], group_size=[3]),
    task=dict(num_samples=64),
    trials=2,
    base_seed=7,
)


def drawn(cfg, point, seed):
    """The scenario of trial seed at the point's groups."""
    return Scenario.draw(cfg, point.num_groups, point.group_size, seed)


def write_cfg(tmp_path, tree=TINY_CFG, name="cfg.yaml"):
    import yaml
    path = tmp_path / name
    path.write_text(yaml.safe_dump(tree), encoding="utf-8")
    return path


# ---------------------------------------------------------------- config

def test_config_defaults_and_axes():
    cfg = config_from_dict({})
    # a null key, like a missing one, keeps the default in every section
    assert config_from_dict({"pathloss": {"carrier_ghz": None}}) == cfg
    assert config_from_dict({"solver": {"max_outer_iters": None}}) == cfg
    assert cfg.n_antennas == 49
    assert cfg.group_size == (50,)
    assert cfg.estimator == "ls"
    pts = cfg.sweep_points()
    assert len(pts) == len(cfg.excess_budget)
    assert pts[0].excess_budget < pts[-1].excess_budget
    # one name per axis: the sweep key, the config field and the point field
    axes = list(harness._KEYS["sweep"])
    assert [f.name for f in dataclasses.fields(SweepPoint)] == axes
    for axis in axes:
        assert sorted({getattr(p, axis) for p in pts}) == sorted(getattr(cfg, axis))


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        config_from_dict({"trials": 0})
    with pytest.raises(ConfigError):
        config_from_dict({"estimator": "magic"})
    with pytest.raises(ConfigError):
        config_from_dict({"sweep": {"heuristic": []}})
    with pytest.raises(ConfigError):
        config_from_dict({"sweep": {"heuristic": ["bogus"]}})
    with pytest.raises(ConfigError):
        config_from_dict([1, 2])


@pytest.mark.parametrize("tree,message", [
    ({"trails": 2}, "did you mean 'trials'"),
    ({"topology": {"n_antenas": 4}}, "did you mean 'n_antennas'"),
    ({"pathloss": {"modle": "los"}}, "did you mean 'model'"),
    ({"noise": {"bandwith_hz": 1e8}}, "did you mean 'bandwidth_hz'"),
    ({"power": {"relay": 1.0}}, "did you mean 'relay_w'"),
    ({"solver": {"max_iters": 5}}, "unknown key 'max_iters' in section 'solver'"),
    ({"task": {"num_class": 3}}, "did you mean 'num_classes'"),
    ({"sweep": {"heuristics": ["uniform"]}}, "did you mean 'heuristic'"),
    ({"sweep": {"excess_budget": [-5]}}, "excess_budget"),
    ({"sweep": {"pilot_power": [0.0]}}, "pilot_power"),
    ({"power": {"relay_w": -1.0}}, "relay_w"),
    ({"power": {"bs_max_w": 0.0}}, "bs_max_w"),
    ({"pathloss": {"carrier_ghz": float("nan")}}, "carrier"),
    ({"noise": {"bandwidth_hz": 0.0}}, "bandwidth_hz"),
    ({"task": {"num_classes": 1}}, "num_classes"),
    ({"task": {"num_samples": 0}}, "num_samples"),
    ({"topology": {"n_antennas": 0}}, "n_antennas"),
    ({"sweep": {"num_groups": [0]}}, "num_groups"),
    ({"sweep": {"group_size": [0]}}, "group_size"),
    ({"topology": {"area_m": 0.0}}, "area_m"),
    ({"task": {"sample_noise_var": -0.5}}, "sample_noise_var"),
    ({"solver": {"objective_tolerance": float("nan")}}, "tolerances"),
    ({"trials": 2.5}, "trials: must be an integer"),
    ({"trials": True}, "trials: must be an integer"),
    ({"topology": {"n_antennas": 49.9}}, "topology.n_antennas: must be an integer"),
    ({"solver": {"max_outer_iters": 3.9}}, "solver.max_outer_iters: must be an integer"),
    ({"sweep": {"excess_budget": [1.5]}}, "sweep.excess_budget: must be an integer"),
    ({"sweep": {"num_groups": [2.7]}}, "sweep.num_groups: must be an integer"),
    ({"noise": {"psd_dbm_per_hz": float("nan")}}, "psd_dbm_per_hz must be finite"),
    ({"noise": {"psd_dbm_per_hz": float("inf")}}, "psd_dbm_per_hz must be finite"),
    ({"noise": {"bandwidth_hz": True}}, "noise.bandwidth_hz: must be a number"),
    ({"power": {"relay_w": True}}, "power.relay_w: must be a number"),
    ({"sweep": {"pilot_power": [True]}}, "sweep.pilot_power: must be a number"),
    ({"task": {"sample_noise_var": False}}, "task.sample_noise_var: must be a number"),
    ({"power": {"bs_max_w": float("inf")}}, "bs_max_w must be positive and finite"),
    ({"power": {"relay_w": float("inf")}}, "relay_w must be positive and finite"),
    ({"sweep": {"pilot_power": [1.0, float("inf")]}}, "pilot_power must be positive and finite"),
    ({"topology": {"area_m": float("inf")}}, "area_m must be positive and finite"),
    ({"noise": {"bandwidth_hz": float("inf")}}, "bandwidth_hz must be positive and finite"),
    ({"task": {"sample_noise_var": float("inf")}}, "sample_noise_var must be finite"),
    ({"pathloss": {"carrier_ghz": float("inf")}}, "carrier frequency must be positive and finite"),
    ({"solver": {"objective_tolerance": float("inf")}}, "tolerances must be positive and finite"),
    ({"sweep": {"pilot_power": [10 ** 400]}}, "sweep.pilot_power: int too large to convert"),
])
def test_strict_schema_fails_before_any_trial(tmp_path, monkeypatch, tree, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict(tree)
    ran = []
    monkeypatch.setattr(harness, "run_trial", lambda *args: ran.append(args))
    path = write_cfg(tmp_path, {**TINY_CFG, **tree})
    out = tmp_path / "out.csv"
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert ran == [] and not out.exists()


# Each case gives the same ConfigError from ExperimentConfig(**kw) as from
# the file tree, and the file's run stops before any trial. A case without a
# tree is one a file cannot hit: config_from_dict builds the nested sections.
@pytest.mark.parametrize("kw,tree,message", [
    ({"excess_budget": (100.7,)}, {"sweep": {"excess_budget": [100.7]}},
     "sweep.excess_budget: must be an integer, got 100.7"),
    ({"group_size": (3.9,)}, {"sweep": {"group_size": [3.9]}},
     "sweep.group_size: must be an integer, got 3.9"),
    ({"excess_budget": (30, 30)}, {"sweep": {"excess_budget": [30, 30]}},
     "sweep.excess_budget must be a non-empty list of distinct values, got (30, 30)"),
    ({"pilot_power": (1, 1.0)}, {"sweep": {"pilot_power": [1, 1.0]}},
     "sweep.pilot_power must be a non-empty list of distinct values, got (1.0, 1.0)"),
    ({"heuristic": ("uniform", "all_first", "uniform")},
     {"sweep": {"heuristic": ["uniform", "all_first", "uniform"]}},
     "sweep.heuristic must be a non-empty list of distinct values"),
    ({"num_groups": (2, 2.0)}, {"sweep": {"num_groups": [2, 2.0]}},
     "sweep.num_groups must be a non-empty list of distinct values, got (2, 2)"),
    ({"group_size": ()}, {"sweep": {"group_size": []}},
     "sweep.group_size must be a non-empty list of distinct values, got ()"),
    ({"heuristic": "bogus"}, {"sweep": {"heuristic": "bogus"}},
     "sweep.heuristic must be one of uniform, prop_min, front_loaded, all_first, "
     "channel_aware, got 'bogus'"),
    ({"trials": 0}, {"trials": 0}, "trials must be >= 1, got 0"),
    ({"workers": 0}, {"workers": 0}, "workers must be >= 1, got 0"),
    ({"estimator": "magic"}, {"estimator": "magic"},
     "estimator must be one of ls, inject, perfect, got 'magic'"),
    ({"n_antennas": 2.5}, {"topology": {"n_antennas": 2.5}},
     "topology.n_antennas: must be an integer, got 2.5"),
    ({"direct_link": "false"}, {"topology": {"direct_link": "false"}},
     "topology.direct_link: must be true or false, got 'false'"),
    ({"bs_max_w": 0.0}, {"power": {"bs_max_w": 0.0}},
     "power.bs_max_w must be positive and finite, got 0.0"),
    ({"psd_dbm_per_hz": float("nan")}, {"noise": {"psd_dbm_per_hz": float("nan")}},
     "noise.psd_dbm_per_hz must be finite, got nan"),
    ({"sample_noise_var": -0.5}, {"task": {"sample_noise_var": -0.5}},
     "task.sample_noise_var must be finite and >= 0, got -0.5"),
    ({"pathloss": {"model": "los"}}, None,
     "pathloss must be a PathlossParams, got {'model': 'los'}"),
    ({"solver": {"max_outer_iters": 3}}, None,
     "solver must be a SolverConfig, got {'max_outer_iters': 3}"),
    # rows, chains and trial seeds are keyed by 9 significant digits
    ({"pilot_power": (0.1, 0.1000000001)}, {"sweep": {"pilot_power": [0.1, 0.1000000001]}},
     "sweep.pilot_power must be a non-empty list of distinct values, got (0.1, 0.1000000001)"),
])
def test_config_built_in_code_is_checked_like_a_file(tmp_path, monkeypatch, kw, tree, message):
    with pytest.raises(ConfigError, match=re.escape(message)) as in_code:
        ExperimentConfig(**kw)
    if tree is None:
        return
    with pytest.raises(ConfigError) as from_file:
        config_from_dict(tree)
    assert str(in_code.value) == str(from_file.value)
    ran = []
    monkeypatch.setattr(harness, "run_trial", lambda *args: ran.append(args))
    path = write_cfg(tmp_path, {**TINY_CFG, **tree})
    out = tmp_path / "out.csv"
    assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 1
    assert ran == [] and not out.exists()


def test_config_built_in_code_is_normalised_like_a_file():
    # a list reads as a tuple, a scalar as a one-value axis and 60.0 as 60;
    # None passes only where it is the default
    kw = dict(excess_budget=[0, 60.0], pilot_power=1, heuristic="all_first", n_antennas=4.0)
    cfg = ExperimentConfig(**kw)
    assert cfg == config_from_dict({"sweep": {"excess_budget": [0, 60.0], "pilot_power": 1,
                                              "heuristic": "all_first"},
                                    "topology": {"n_antennas": 4.0}})
    assert (cfg.excess_budget, cfg.pilot_power, cfg.heuristic) == ((0, 60), (1.0,), ("all_first",))
    assert type(cfg.n_antennas) is int and type(cfg.excess_budget[1]) is int
    assert dataclasses.replace(cfg, trials=2.0).trials == 2
    assert ExperimentConfig(bs_max_w=None, sample_noise_var=None) == ExperimentConfig()
    with pytest.raises(ConfigError, match="trials: must be an integer, got None"):
        ExperimentConfig(trials=None)


def test_float_keys_take_numeric_strings(tmp_path):
    # YAML 1.1 leaves 3.0e8 (no exponent sign) as the string '3.0e8'
    import yaml
    tree = yaml.safe_load("noise: {bandwidth_hz: 3.0e8}\npower: {relay_w: 2}\n"
                          "sweep: {pilot_power: [1e-2, 0.5]}\n")
    assert tree["noise"]["bandwidth_hz"] == "3.0e8"
    cfg = config_from_dict(tree)
    assert cfg.bandwidth_hz == 3.0e8
    assert cfg.relay_w == 2.0
    assert cfg.pilot_power == (0.01, 0.5)
    with pytest.raises(ConfigError, match="noise.bandwidth_hz"):
        config_from_dict({"noise": {"bandwidth_hz": "wide"}})


@pytest.mark.parametrize("value", ["false", "no", "true", 0, 1])
def test_direct_link_must_be_boolean(tmp_path, value):
    with pytest.raises(ConfigError, match="direct_link"):
        config_from_dict({"topology": {"direct_link": value}})
    path = write_cfg(tmp_path, {**TINY_CFG, "topology": {"direct_link": value}})
    assert cli_main(["run", "--config", str(path),
                     "--out", str(tmp_path / "out.csv")]) == 1
    assert config_from_dict({"topology": {"direct_link": False}}).direct_link is False
    assert config_from_dict({"topology": {"direct_link": True}}).direct_link is True


def test_load_config_file(tmp_path):
    cfg = load_config(write_cfg(tmp_path))
    assert cfg.n_antennas == 4
    assert cfg.excess_budget == (0, 60)
    assert cfg.trials == 2


def test_shipped_configs_parse():
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    quick = load_config(root / "quick.yaml")
    assert quick.n_antennas == 16 and quick.trials == 10
    ref = load_config(root / "reference.yaml")
    assert ref.n_antennas == 49 and len(ref.heuristic) == 5
    assert ref.sample_noise_var is None  # dimension-scaled default


def test_readme_schema_matches_parser():
    """The README's schema block lists exactly the parsed keys, at their defaults."""
    import pathlib
    import yaml
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").split("## Config schema", 1)[1]
    doc = yaml.safe_load(text.split("```yaml\n", 1)[1].split("```", 1)[0])
    sections = [s for s in harness._KEYS if s]
    assert set(doc) == set(harness._KEYS[""]) | set(sections)
    for section in sections:
        assert set(doc[section]) == set(harness._KEYS[section]), section
    assert config_from_dict(doc) == config_from_dict({})


def test_readme_csv_columns_match_emit_csv(tmp_path):
    """The README's CSV column block, m0..mL expanded, is the header emit_csv writes."""
    import pathlib
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8").split("CSV columns:", 1)[1]
    block = text.split("```\n", 1)[1].split("```", 1)[0]
    point = SweepPoint("uniform", 60, 1.0, 2, 3)
    names = []
    for name in "".join(block.split()).split(","):
        names += ([f"m{l}" for l in range(point.num_groups + 1)] if name == "m0..mL"
                  else [name])
    path = tmp_path / "out.csv"
    emit_csv([ResultRow(point, [TrialResult(status="converged", rep=(2, 1, 1))])], path)
    assert path.read_text(encoding="utf-8").splitlines()[0] == ",".join(names)


def test_sweep_points_sorted():
    cfg = config_from_dict({"sweep": {"heuristic": ["uniform", "all_first"],
                                      "excess_budget": [300, 100]}})
    pts = cfg.sweep_points()
    assert [p.heuristic for p in pts[:2]] == ["all_first", "all_first"]
    assert [p.excess_budget for p in pts[:2]] == [100, 300]


# ---------------------------------------------------------------- seeds

def test_point_keys_keep_their_strings():
    # the chain key seeds a chain's trials, so its string must not move
    pt = SweepPoint("uniform", 200, 1 / 3, 3, 12)
    assert pt.key == "uniform|200|0.333333333|3|12"
    assert pt.chain_key == "uniform|0.333333333|3|12"
    assert SweepPoint("all_first", 0, 1.0, 1, 50).chain_key == "all_first|1|1|50"


def test_trial_seed_derivation_stable_and_distinct():
    s1 = derive_trial_seed(1, "uniform|200|1|3|12", 0)
    s2 = derive_trial_seed(1, "uniform|200|1|3|12", 0)
    assert s1 == s2
    others = {derive_trial_seed(1, "uniform|200|1|3|12", i) for i in range(50)}
    assert len(others) == 50
    assert derive_trial_seed(1, "uniform|400|1|3|12", 0) != s1
    assert derive_trial_seed(2, "uniform|200|1|3|12", 0) != s1


# ---------------------------------------------------------------- trials

def test_single_point_single_trial_row():
    cfg = config_from_dict({**TINY_CFG,
                            "sweep": {"heuristic": ["uniform"],
                                      "excess_budget": [0],
                                      "num_groups": [2], "group_size": [3]},
                            "trials": 1})
    rows = run_experiment(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert row.failures == 0
    assert row.nmse_se == 0.0
    assert row.acc_ota_se == 0.0
    assert row.tau_tot_mean == 4 + 3 + 3  # the minimum plan


def test_run_trial_deterministic():
    cfg = config_from_dict(TINY_CFG)
    pt = cfg.sweep_points()[0]
    t1 = run_trial(drawn(cfg, pt, 12345), pt, None)
    t2 = run_trial(drawn(cfg, pt, 12345), pt, None)
    assert t1 == t2


# Captured from the SQUAREM-accelerated AO in which a block that failed its
# last two tries sits out a map, which lands elsewhere than the plain AO did
# (7, 95 and 57 maps there), and ota_acc from the receiver-side
# noise draw; the ls trials draw their errors on a stream per plan. A later
# solver or estimation change that moves these moves results the CSV
# would show.
GOLDEN_TRIALS = [
    ({"topology": {"n_antennas": 16, "direct_link": False}, "estimator": "ls",
      "task": {"sample_noise_var": 0.5, "num_samples": 256}},
     SweepPoint("uniform", 600, 1.0, 3, 12), 20260417,
     ("converged", 6, 0.3002357210579031, 0.58984375)),
    ({"topology": {"n_antennas": 16, "direct_link": True}, "estimator": "inject",
      "task": {"num_samples": 256}},
     SweepPoint("front_loaded", 200, 1.0, 6, 12), 977,
     ("converged", 41, 0.26193156832344167, 0.4921875)),
    # reference size (N=49, three groups of 50, no direct link)
    ({"topology": {"n_antennas": 49, "direct_link": False}, "estimator": "ls",
      "task": {"num_samples": 256}},
     SweepPoint("uniform", 600, 1.0, 3, 50), 20260418,
     ("converged", 14, 0.11520490812866496, 0.921875)),
]


@pytest.mark.parametrize("tree,point,seed,want", GOLDEN_TRIALS)
def test_run_trial_golden(tree, point, seed, want):
    t = run_trial(drawn(config_from_dict(tree), point, seed), point, None)
    status, iterations, nmse, ota_acc = want
    assert (t.status, t.iterations) == (status, iterations)
    assert t.nmse == pytest.approx(nmse, rel=1e-10)
    assert t.ota_acc == pytest.approx(ota_acc, rel=1e-10)


def _tallies(*counts):
    return tuple(BlockTally(*c) for c in counts)


# The block tallies (moved, failed, rested) of each GOLDEN_TRIALS solve, F1
# first, captured with them: which blocks the resting rule sat out, and how
# often, is pinned with the results it led to, on the solve's result and on
# the trial's record.
GOLDEN_TALLIES = [
    _tallies((5, 1, 0), (4, 2, 0), (4, 2, 0), (4, 2, 0)),
    _tallies((13, 15, 13), (1, 22, 18), (5, 20, 16), (4, 21, 16), (4, 20, 17),
             (10, 17, 14), (41, 0, 0)),
    _tallies((10, 3, 1), (10, 4, 0), (12, 2, 0), (12, 2, 0)),
]


@pytest.mark.parametrize("golden,tallies", zip(GOLDEN_TRIALS, GOLDEN_TALLIES),
                         ids=["quick", "deep-direct", "reference"])
def test_run_trial_golden_tallies(monkeypatch, golden, tallies):
    tree, point, seed, want = golden
    seen, solve = [], harness.solve

    def spy(*args, **kwargs):
        seen.append(solve(*args, **kwargs))
        return seen[-1]
    monkeypatch.setattr(harness, "solve", spy)
    t = run_trial(drawn(config_from_dict(tree), point, seed), point, None)
    assert len(seen) == 1 and seen[0].iterations == want[1]
    assert seen[0].tallies == t.tallies == tallies


def reachable(*roots):
    """Every object reachable from roots by gc.get_referents, not entering
    classes, modules or functions."""
    seen, todo = {}, list(roots)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen[id(obj)] = obj
        todo.extend(gc.get_referents(obj))
    return seen.values()


def test_results_reach_no_cascade(monkeypatch):
    # a solve's result and a trial's record hold arrays and counts only: a
    # cascade kept in either (in params, a memo or a tally) would outlive
    # the solve with all its products
    seen, solve = [], harness.solve

    def spy(*args, **kwargs):
        seen.append(solve(*args, **kwargs))
        return seen[-1]
    monkeypatch.setattr(harness, "solve", spy)
    tree, point, seed, _ = GOLDEN_TRIALS[0]
    sc = drawn(config_from_dict(tree), point, seed)
    t = run_trial(sc, point, None)
    res = seen[0]
    assert t.design is res.params and t.tallies is res.tallies  # the walks below reach both
    for root in (res, t):
        objs = list(reachable(root))
        assert {id(res.params.f1), id(res.params._link[2]), *map(id, res.tallies)} \
            <= {id(o) for o in objs}
        assert not any(isinstance(o, Cascade) for o in objs)
    # the walk finds a cascade where there is one
    cas = Cascade.of(sc.ch, res.params, sc.noise)
    assert any(o is cas for o in reachable((res, cas)))


def test_run_trial_keeps_the_relay_power_overrun_of_its_design(monkeypatch):
    # the trial reports what evaluate_true said of its design on the truth
    seen, evaluate_true = [], harness.evaluate_true

    def evaluate(*args, **kwargs):
        seen.append(evaluate_true(*args, **kwargs))
        return seen[-1]
    monkeypatch.setattr(harness, "evaluate_true", evaluate)
    tree, point, seed, _ = GOLDEN_TRIALS[1]
    t = run_trial(drawn(config_from_dict(tree), point, seed), point, None)
    assert len(seen) == 1 and t.relay_power_overrun == seen[0].relay_power_overrun
    assert t.relay_power_overrun > 0  # this design overruns a relay cap on the truth


def test_estimator_modes_run():
    for mode in ("ls", "inject", "perfect"):
        cfg = config_from_dict({**TINY_CFG, "estimator": mode, "trials": 1})
        rows = run_experiment(cfg)
        assert all(r.failures == 0 for r in rows)


def test_trial_job_records_errors(monkeypatch):
    cfg = config_from_dict(TINY_CFG)
    pt = cfg.sweep_points()[0]

    def boom(*args, **kwargs):
        raise RuntimeError("no")
    monkeypatch.setattr(harness, "run_trial", boom)
    [(got, res)] = _chain_job((cfg, [pt], 1))
    assert got is pt
    assert res.status == "error:RuntimeError"
    assert np.isnan(res.nmse) and np.isnan(res.relay_power_overrun)
    row = ResultRow(point=pt, trials=[res])
    assert row.failures == 1
    assert np.isnan(row.nmse_mean)
    with pytest.raises(TypeError):  # aggregates are computed, never given
        ResultRow(point=pt, trials=[res], failures=0)


# ---------------------------------------------------------------- output

def test_emit_csv_header_only_for_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("heuristic,excess_budget,pilot_power,")


def test_emit_csv_line_count_and_roundtrip(tmp_path):
    cfg = config_from_dict(TINY_CFG)
    rows = run_experiment(cfg)
    path = tmp_path / "out.csv"
    emit_csv(rows, path)
    text = path.read_text(encoding="utf-8")
    assert text.count("\n") == len(rows) + 1
    assert "\r" not in text

    with open(path, newline="") as fh:
        parsed = list(csv.DictReader(fh))
    assert len(parsed) == len(rows)
    for rec, row in zip(parsed, rows):
        assert rec["heuristic"] == row.point.heuristic
        assert float(rec["nmse_mean"]) == float(f"{row.nmse_mean:.9g}")
        assert float(rec["acc_ota_mean"]) == float(f"{row.acc_ota_mean:.9g}")
        assert rec["m0"] == f"{row.rep_mean[0]:.9g}"


def test_emit_csv_failure_columns(tmp_path, monkeypatch):
    # failures counts a point's failed trials; converged_frac and overrun_max
    # are over the trials that did not fail, and nan when every trial failed
    cfg = config_from_dict(TINY_CFG)
    low, high = cfg.sweep_points()
    real, ran = harness.run_trial, []
    # the budgets of a chain share their scenarios, so a failure is keyed by
    # point and trial index, the count of the point's earlier (serial) trials
    failing = {(low, 1), (high, 0), (high, 1)}

    def flaky(sc, point, start):
        ran.append(point)
        if (point, ran.count(point) - 1) in failing:
            raise FloatingPointError("diverged")
        return real(sc, point, start)
    monkeypatch.setattr(harness, "run_trial", flaky)
    rows = run_experiment(cfg)
    path = tmp_path / "out.csv"
    emit_csv(rows, path)
    with open(path, newline="") as fh:
        recs = list(csv.DictReader(fh))
    assert list(recs[0])[-4:] == ["iters_mean", "failures", "converged_frac", "overrun_max"]
    ok = rows[0].trials[0]
    assert [r["failures"] for r in recs] == ["1", "2"]
    assert recs[0]["converged_frac"] == ("1" if ok.status == "converged" else "0")
    assert recs[0]["overrun_max"] == f"{ok.relay_power_overrun:.9g}"
    assert recs[1]["converged_frac"] == recs[1]["overrun_max"] == "nan"


def test_budget_sweep_improves_mean_nmse():
    cfg = config_from_dict(dict(topology=dict(n_antennas=8, area_m=200.0),
                                task=dict(num_samples=128),
                                sweep=dict(heuristic=["uniform"],
                                           excess_budget=[0, 150, 600],
                                           num_groups=[2], group_size=[8]),
                                trials=10, base_seed=3))
    rows = run_experiment(cfg)
    nmse = [r.nmse_mean for r in rows]
    drops = sum(b <= a for a, b in zip(nmse, nmse[1:]))
    assert drops >= 0.8 * (len(nmse) - 1)


def test_emit_csv_mixed_group_counts(tmp_path):
    # rows with fewer hops leave their extra m-columns empty
    cfg = config_from_dict({**TINY_CFG,
                            "sweep": {"heuristic": ["uniform"],
                                      "excess_budget": [0],
                                      "num_groups": [1, 2], "group_size": [3]},
                            "trials": 1})
    rows = run_experiment(cfg)
    path = tmp_path / "mixed.csv"
    emit_csv(rows, path)
    header, line1, line2 = path.read_text().splitlines()
    assert "m0,m1,m2" in header
    with open(path, newline="") as fh:
        recs = list(csv.DictReader(fh))
    by_l = {r["L"]: r for r in recs}
    assert by_l["1"]["m2"] == ""
    assert by_l["2"]["m2"] == "1"


def test_sample_noise_default_scales_with_dimension():
    cfg = config_from_dict({**TINY_CFG, "task": {"num_samples": 32}})
    assert cfg.sample_noise_var is None  # resolved to n/16 inside Scenario.draw
    pt = cfg.sweep_points()[0]
    t = run_trial(drawn(cfg, pt, 0), pt, None)
    assert 0.0 <= t.ota_acc <= 1.0 and 0.0 <= t.digital_acc <= 1.0


def test_run_experiment_deterministic_bytes(tmp_path):
    cfg = config_from_dict(TINY_CFG)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_experiment(cfg), p1)
    emit_csv(run_experiment(cfg), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_worker_pool_matches_serial(tmp_path):
    # trial isolation: the work pool must not change any aggregate
    serial = config_from_dict(TINY_CFG)
    pooled = config_from_dict({**TINY_CFG, "workers": 2})
    p1, p2 = tmp_path / "serial.csv", tmp_path / "pooled.csv"
    emit_csv(run_experiment(serial), p1)
    emit_csv(run_experiment(pooled), p2)
    assert p1.read_bytes() == p2.read_bytes()


# ---------------------------------------------------------------- chains

# four chains (heuristic x pilot power) of three budgets, given unsorted
CHAINS_CFG = dict(
    topology=dict(n_antennas=4, area_m=120.0),
    sweep=dict(heuristic=["uniform", "all_first"], excess_budget=[60, 0, 30],
               pilot_power=[1.0, 0.5], num_groups=[2], group_size=[3]),
    task=dict(num_samples=64),
    trials=2,
    base_seed=5,
)


def by_chain(points):
    chains = {}
    for pt in points:
        chains.setdefault(pt.chain_key, []).append(pt)
    return chains


def test_chains_give_the_same_csv_with_a_worker_pool(tmp_path):
    paths = []
    for workers in (1, 2):
        rows = run_experiment(config_from_dict({**CHAINS_CFG, "workers": workers}))
        assert [r.point.excess_budget for r in rows[:6]] == [0, 0, 30, 30, 60, 60]
        assert all(t.design is None for r in rows for t in r.trials)
        paths.append(tmp_path / f"workers{workers}.csv")
        emit_csv(rows, paths[-1])
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_budgets_of_a_chain_share_their_scenario():
    # digital_acc reads only the target, the task and the sample draw, all
    # from the chain's seed of that trial
    rows = run_experiment(config_from_dict(CHAINS_CFG))
    chains = by_chain(r.point for r in rows)
    assert len(chains) == 4
    digital = {}
    for key, chain in chains.items():
        per_budget = {tuple(t.digital_acc for t in r.trials)
                      for r in rows if r.point in chain}
        assert len(per_budget) == 1
        digital[key] = per_budget.pop()
    assert len(set(digital.values())) > 1  # chains do not share a scenario


def test_each_budget_starts_from_the_design_below_it(monkeypatch):
    # the lowest budget starts cold, each higher one from the design of the
    # budget below it, and the budget after a failed trial cold again; every
    # budget of a (chain, trial) is handed the one scenario its job drew
    cfg = config_from_dict(CHAINS_CFG)
    broken = SweepPoint("all_first", 30, 1.0, 2, 3)
    real, seen, draws = harness.run_trial, [], []
    draw = Scenario.draw.__func__

    def recording(sc, point, start):
        design = None
        try:
            if point == broken:
                raise FloatingPointError("diverged")
            res = real(sc, point, start)
            design = res.design
            return res
        finally:
            seen.append((point, sc, start, design))

    def counted(cls, *args):
        draws.append((args[-1], draw(cls, *args)))  # (trial seed, scenario)
        return draws[-1][1]
    monkeypatch.setattr(harness, "run_trial", recording)
    monkeypatch.setattr(Scenario, "draw", classmethod(counted))
    rows = run_experiment(cfg)
    assert len(seen) == 12 * cfg.trials
    assert len(draws) == 4 * cfg.trials  # one per chain job
    assert all(t.design is None for r in rows for t in r.trials)
    for chain in by_chain(cfg.sweep_points()).values():
        for i in range(cfg.trials):
            seed = derive_trial_seed(cfg.base_seed, chain[0].chain_key, i)
            [sc] = [d for s, d in draws if s == seed]
            calls = [s for s in seen if s[1] is sc]
            assert [c[0] for c in calls] == chain  # budgets ascending
            assert calls[0][2] is None
            for below, (point, _, start, _) in zip(calls, calls[1:]):
                assert start is below[3]
                assert (start is None) == (point.excess_budget == 60 and below[0] == broken)
    assert [r.failures for r in rows if r.point == broken] == [cfg.trials]


@pytest.mark.parametrize("tree", [
    CHAINS_CFG,
    {**CHAINS_CFG, "estimator": "inject",
     "topology": dict(n_antennas=4, area_m=120.0, direct_link=True)}])
def test_each_budget_equals_its_standalone_trial(tree):
    # a chain job's shared scenario changes no number: each budget's result
    # is run_trial on a scenario drawn for it alone, started from the design
    # below it
    cfg = config_from_dict(tree)
    trials = {r.point: r.trials for r in run_experiment(cfg)}
    for chain in by_chain(cfg.sweep_points()).values():
        for i in range(cfg.trials):
            seed, start = derive_trial_seed(cfg.base_seed, chain[0].chain_key, i), None
            for point in chain:
                want = run_trial(drawn(cfg, point, seed), point, start)
                assert not want.status.startswith("error")
                assert trials[point][i] == want  # every field but the design
                start = want.design


def test_chain_job_calls_run_trial_with_three_positionals(monkeypatch):
    # perfbench wraps the module attribute as run_trial(cfg, point,
    # trial_seed, *args, **kwargs) and passes the arguments through, so a
    # keyword such as start= would fail every trial of the benchmark
    cfg = config_from_dict(CHAINS_CFG)
    real, calls = harness.run_trial, []

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return real(*args, **kwargs)
    monkeypatch.setattr(harness, "run_trial", recording)
    chain = next(iter(by_chain(cfg.sweep_points()).values()))
    results = _chain_job((cfg, chain, 11))
    assert [pt for pt, _ in results] == chain and len(calls) == len(chain) == 3
    starts = []
    for (args, kwargs), point in zip(calls, chain):
        assert kwargs == {} and len(args) == 3
        sc, got, start = args
        assert isinstance(sc, Scenario) and sc is calls[0][0][0] and got is point
        starts.append(start)
    assert starts[0] is None and all(isinstance(s, OtaParams) for s in starts[1:])


def test_a_draw_that_raises_fails_every_trial_of_its_chain_only(monkeypatch):
    cfg = config_from_dict(CHAINS_CFG)
    clean = run_experiment(cfg)
    chains = by_chain(cfg.sweep_points())
    bad = list(chains)[1]
    bad_seeds = {derive_trial_seed(cfg.base_seed, bad, i) for i in range(cfg.trials)}
    generate = harness.generate_placement

    def failing(topology, seed):
        if seed.entropy in bad_seeds:  # the trial seed the draw spawned from
            raise MemoryError
        return generate(topology, seed)
    monkeypatch.setattr(harness, "generate_placement", failing)
    for got, want in zip(run_experiment(cfg), clean):
        assert got.point == want.point
        if got.point.chain_key == bad:
            assert [t.status for t in got.trials] == ["error:MemoryError"] * cfg.trials
            assert got.failures == cfg.trials and np.isnan(got.nmse_mean)
        else:
            assert got.trials == want.trials and got.failures == 0


# ---------------------------------------------------------------- CLI

def test_cli_list_heuristics(capsys):
    assert cli_main(["--list-heuristics"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["uniform", "prop_min", "front_loaded", "all_first",
                   "channel_aware"]


def test_cli_run_writes_csv(tmp_path, capsys):
    cfg_path = write_cfg(tmp_path)
    out_path = tmp_path / "res.csv"
    code = cli_main(["run", "--config", str(cfg_path), "--out", str(out_path)])
    assert code == 0
    assert out_path.exists()
    n_lines = out_path.read_text().count("\n")
    assert n_lines == 2 + 1  # two sweep points plus header


def test_cli_run_reports_failed_trials_on_stderr(tmp_path, monkeypatch, capsys):
    # every trial at excess budget 60 raises: stderr names that point and the
    # exit code is 3, while stdout and the CSV bytes stay what they were
    cfg_path = write_cfg(tmp_path)
    real = harness.run_trial

    def flaky(sc, point, start):
        if point.excess_budget == 60:
            raise FloatingPointError("diverged")
        return real(sc, point, start)
    monkeypatch.setattr(harness, "run_trial", flaky)
    want = tmp_path / "want.csv"
    emit_csv(run_experiment(load_config(cfg_path)), want)
    out_path = tmp_path / "res.csv"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == f"wrote 2 rows to {out_path}\n"
    assert captured.err == ("warning: uniform|60|1|2|3: 2 of 2 trials failed, "
                            "first error:FloatingPointError\n")
    assert out_path.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("where", ["missing/res.csv", ".", ""])
def test_cli_refuses_a_bad_out_before_any_trial(tmp_path, monkeypatch, capsys, where):
    # a path under a directory that does not exist, a directory itself, or
    # the empty path fails at once, not after the whole sweep has run
    cfg_path = write_cfg(tmp_path)
    calls = []
    monkeypatch.setattr(harness, "run_trial", lambda *args: calls.append(args))
    out = tmp_path / where if where else ""
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --out {out}: ")
    assert not (tmp_path / "missing").exists()


def test_cli_overrides(tmp_path):
    cfg_path = write_cfg(tmp_path)
    out1 = tmp_path / "r1.csv"
    out2 = tmp_path / "r2.csv"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out1),
                     "--seed", "3", "--trials", "1",
                     "--heuristic", "all_first"]) == 0
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out2),
                     "--seed", "3", "--trials", "1",
                     "--heuristic", "all_first"]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    with open(out1, newline="") as fh:
        recs = list(csv.DictReader(fh))
    assert all(r["heuristic"] == "all_first" for r in recs)


def test_module_entry_point(tmp_path):
    import os
    import subprocess
    import sys

    import otafc
    # the child must import the same otafc as this test, installed or not
    src = os.path.dirname(os.path.dirname(otafc.__file__))
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    out = subprocess.run([sys.executable, "-m", "otafc", "--list-heuristics"],
                         capture_output=True, text=True, env=env)
    assert out.returncode == 0
    assert out.stdout.split()[0] == "uniform"


@pytest.mark.parametrize("estimator", ["ls", "inject", "perfect"])
@pytest.mark.parametrize("direct,groups", [(False, 1), (True, 2), (False, 3)])
def test_trial_matrix_smoke(estimator, direct, groups):
    cfg = config_from_dict(dict(topology=dict(n_antennas=4, area_m=150.0,
                                              direct_link=direct),
                                task=dict(num_samples=32),
                                estimator=estimator))
    pt = SweepPoint(heuristic="front_loaded", excess_budget=30, pilot_power=1.0,
                    num_groups=groups, group_size=3)
    t = run_trial(drawn(cfg, pt, 5), pt, None)
    assert not t.status.startswith("error")
    assert np.isfinite(t.nmse)
    # a trial is its scenario, designed under the point's plan and scored,
    # from a cold start and from the design of a lower budget
    low = run_trial(drawn(cfg, pt, 5), dataclasses.replace(pt, excess_budget=0), None)
    for start in (None, low.design):
        sc = drawn(cfg, pt, 5)
        plan = allocate(Heuristic(pt.heuristic), sc.topology, pt.excess_budget, sc.stats,
                        pilot_power=pt.pilot_power)
        assert_same_trial(score(sc, plan, design(sc, plan, start)),
                          run_trial(drawn(cfg, pt, 5), pt, start))


def assert_same_trial(got, want):
    """Every field of two trial results equal, the designs' arrays bit for bit."""
    assert got == want  # every field but the design
    for x, y in zip((got.design.f1, got.design.f2, *got.design.a),
                    (want.design.f1, want.design.f2, *want.design.a)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()


def world_arrays(obj):
    """Every numpy array reachable from obj through dataclass fields and
    tuples, and the pool of a SeedSequence."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, np.random.SeedSequence):
        yield obj.pool
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from world_arrays(getattr(obj, f.name))
    elif isinstance(obj, tuple):
        for x in obj:
            yield from world_arrays(x)


SMALL_WORLD = dict(topology=dict(n_antennas=4, area_m=150.0, direct_link=True),
                   task=dict(num_samples=32))


def test_scenario_arrays_are_read_only():
    # designs under several plans may share a scenario, so none may write it,
    # nor the pool its estimation draws are seeded from
    sc = Scenario.draw(config_from_dict(SMALL_WORLD), 2, 3, 5)
    arrays = list(world_arrays(sc))
    reached = {id(a) for a in arrays}
    assert reached >= {id(a) for a in (sc.ch.h_direct, sc.ch.h_last, *sc.ch.h_hop,
                                       sc.stats.beta, sc.target.w, sc.target.bias,
                                       *sc.budget.p_relay, sc.task.class_means,
                                       sc.task.classifier_head, sc.samples.labels,
                                       sc.samples.inputs, sc.est_seed.pool)}
    assert [a for a in arrays if a.flags.writeable] == []
    # a read-only pool seeds the draws of a fresh one
    fresh = np.random.SeedSequence(sc.est_seed.entropy, spawn_key=sc.est_seed.spawn_key)
    assert (np.random.default_rng(sc.est_seed).random(8).tobytes()
            == np.random.default_rng(fresh).random(8).tobytes())


def test_one_scenario_designed_under_two_plans(monkeypatch):
    # both designs and scores read the scenario's own channels, noise model,
    # target, budget, task and samples, and leave every field as it was drawn
    sc = Scenario.draw(config_from_dict(SMALL_WORLD), 2, 3, 5)
    fields = dict(vars(sc))
    before = [a.copy() for a in world_arrays(sc)]
    read = []

    def recording(fn):
        def wrapped(*args, **kwargs):
            read.extend(args)
            return fn(*args, **kwargs)
        return wrapped

    for name in ("estimate_all", "solve", "evaluate_true", "ota_accuracy"):
        monkeypatch.setattr(harness, name, recording(getattr(harness, name)))
    plans = [allocate(Heuristic(h), sc.topology, 60, sc.stats) for h in ("uniform", "all_first")]
    assert plans[0].rep != plans[1].rep
    results = [score(sc, plan, design(sc, plan)) for plan in plans]
    assert results[0].nmse != results[1].nmse
    world = (sc.ch, sc.noise, sc.target, sc.budget, sc.task, sc.samples, sc.est_seed)
    assert [sum(x is w for x in read) for w in world] == [6, 8, 6, 4, 2, 2, 2]
    assert all(vars(sc)[k] is v for k, v in fields.items()) and vars(sc).keys() == fields.keys()
    assert all(np.array_equal(a, b) for a, b in zip(world_arrays(sc), before))
    # nothing is used up: the first plan again gives the same trial
    assert_same_trial(score(sc, plans[0], design(sc, plans[0])), results[0])


@pytest.mark.parametrize("estimator", ["ls", "inject", "perfect"])
def test_trial_calls_each_stage_through_the_module(monkeypatch, estimator):
    # perfbench's TrialProbe and --trace 1 time the stages of a trial by
    # swapping these harness attributes; a function captured at import time,
    # in a dict, a default argument or a closure, would escape the swap
    cfg = config_from_dict({**TINY_CFG, "estimator": estimator})
    calls = dict.fromkeys(("run_trial", "generate_placement", "draw_channels", "draw_samples",
                           "allocate", "estimate_all", "inject_error", "solve",
                           "evaluate_true", "ota_accuracy"), 0)

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    rows = run_experiment(cfg)
    assert [r.failures for r in rows] == [0, 0]
    trials = sum(len(r.trials) for r in rows)
    assert trials == 4
    want = dict.fromkeys(calls, trials)
    # one scenario per chain job: 2 trials of one chain of 2 budgets
    want.update(dict.fromkeys(("generate_placement", "draw_channels", "draw_samples"), 2))
    want["estimate_all"] = trials if estimator == "ls" else 0
    want["inject_error"] = trials if estimator == "inject" else 0
    assert calls == want


def test_cli_error_paths(tmp_path, capsys):
    assert cli_main([]) == 2
    assert cli_main(["run"]) == 1
    assert cli_main(["run", "--config", str(tmp_path / "missing.yaml")]) == 1
    cfg_path = write_cfg(tmp_path)
    capsys.readouterr()
    assert cli_main(["run", "--config", str(cfg_path),
                     "--heuristic", "bogus"]) == 1
    assert capsys.readouterr().err.startswith("error: sweep.heuristic must be one of ")
    bad = tmp_path / "bad.yaml"
    bad.write_text("trials: 0\n")
    assert cli_main(["run", "--config", str(bad)]) == 1
