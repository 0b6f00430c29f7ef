import csv

import numpy as np
import pytest

import otafc.harness as harness
from otafc import (ConfigError, ExperimentConfig, SweepPoint, config_from_dict,
                   derive_trial_seed, emit_csv, load_config, run_experiment,
                   run_trial)
from otafc.cli import main as cli_main
from otafc.harness import ResultRow, TrialResult, _trial_job

TINY_CFG = dict(
    topology=dict(n_antennas=4, area_m=120.0),
    sweep=dict(heuristic=["uniform"], excess_budget=[0, 60],
               pilot_power=[1.0], num_groups=[2], group_size=[3]),
    task=dict(num_samples=64),
    trials=2,
    base_seed=7,
)


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
    assert cfg.group_sizes_list == (50,)
    assert cfg.estimator == "ls"
    pts = cfg.sweep_points()
    assert len(pts) == len(cfg.excess_budgets)
    assert pts[0].excess_budget < pts[-1].excess_budget


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


def test_float_keys_take_numeric_strings(tmp_path):
    # YAML 1.1 leaves 3.0e8 (no exponent sign) as the string '3.0e8'
    import yaml
    tree = yaml.safe_load("noise: {bandwidth_hz: 3.0e8}\npower: {relay_w: 2}\n"
                          "sweep: {pilot_power: [1e-2, 0.5]}\n")
    assert tree["noise"]["bandwidth_hz"] == "3.0e8"
    cfg = config_from_dict(tree)
    assert cfg.bandwidth_hz == 3.0e8
    assert cfg.relay_w == 2.0
    assert cfg.pilot_powers == (0.01, 0.5)
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
    assert cfg.excess_budgets == (0, 60)
    assert cfg.trials == 2


def test_shipped_configs_parse():
    import pathlib
    root = pathlib.Path(__file__).resolve().parents[1] / "configs"
    quick = load_config(root / "quick.yaml")
    assert quick.n_antennas == 16 and quick.trials == 10
    ref = load_config(root / "reference.yaml")
    assert ref.n_antennas == 49 and len(ref.heuristics) == 5
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


def test_sweep_points_sorted():
    cfg = config_from_dict({"sweep": {"heuristic": ["uniform", "all_first"],
                                      "excess_budget": [300, 100]}})
    pts = cfg.sweep_points()
    assert [p.heuristic for p in pts[:2]] == ["all_first", "all_first"]
    assert [p.excess_budget for p in pts[:2]] == [100, 300]


# ---------------------------------------------------------------- seeds

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
    t1 = run_trial(cfg, pt, 12345)
    t2 = run_trial(cfg, pt, 12345)
    assert t1 == t2


# Captured from the SQUAREM-accelerated AO, which lands elsewhere than the
# plain AO did (7, 95 and 57 maps there), and ota_acc from the receiver-side
# noise draw: a later solver change that moves these moves results the CSV
# would show.
GOLDEN_TRIALS = [
    ({"topology": {"n_antennas": 16, "direct_link": False}, "estimator": "ls",
      "task": {"sample_noise_var": 0.5, "num_samples": 256}},
     SweepPoint("uniform", 600, 1.0, 3, 12), 20260417,
     ("converged", 6, 0.3152878848524292, 0.56640625)),
    ({"topology": {"n_antennas": 16, "direct_link": True}, "estimator": "inject",
      "task": {"num_samples": 256}},
     SweepPoint("front_loaded", 200, 1.0, 6, 12), 977,
     ("converged", 21, 0.2600486245502219, 0.5)),
    # reference size (N=49, three groups of 50, no direct link)
    ({"topology": {"n_antennas": 49, "direct_link": False}, "estimator": "ls",
      "task": {"num_samples": 256}},
     SweepPoint("uniform", 600, 1.0, 3, 50), 20260418,
     ("converged", 22, 0.11462456512217035, 0.9296875)),
]


@pytest.mark.parametrize("tree,point,seed,want", GOLDEN_TRIALS)
def test_run_trial_golden(tree, point, seed, want):
    t = run_trial(config_from_dict(tree), point, seed)
    status, iterations, nmse, ota_acc = want
    assert (t.status, t.iterations) == (status, iterations)
    assert t.nmse == pytest.approx(nmse, rel=1e-10)
    assert t.ota_acc == pytest.approx(ota_acc, rel=1e-10)


def test_run_trial_keeps_the_relay_power_overrun_of_its_design(monkeypatch):
    # the trial reports what evaluate_true said of its design on the truth
    seen, evaluate_true = [], harness.evaluate_true

    def evaluate(*args, **kwargs):
        seen.append(evaluate_true(*args, **kwargs))
        return seen[-1]
    monkeypatch.setattr(harness, "evaluate_true", evaluate)
    tree, point, seed, _ = GOLDEN_TRIALS[1]
    t = run_trial(config_from_dict(tree), point, seed)
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
    res = _trial_job((cfg, pt, 1))
    assert res.status == "error:RuntimeError"
    assert np.isnan(res.nmse) and np.isnan(res.relay_power_overrun)
    row = ResultRow(point=pt, trials=[res])
    assert row.failures == 1
    assert np.isnan(row.nmse_mean)


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
    real = harness.run_trial
    failing = {derive_trial_seed(cfg.base_seed, low.key, 1),
               derive_trial_seed(cfg.base_seed, high.key, 0),
               derive_trial_seed(cfg.base_seed, high.key, 1)}

    def flaky(cfg, point, trial_seed):
        if trial_seed in failing:
            raise FloatingPointError("diverged")
        return real(cfg, point, trial_seed)
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
    assert cfg.sample_noise_var is None  # resolved to n/16 inside run_trial
    pt = cfg.sweep_points()[0]
    t = run_trial(cfg, pt, 0)
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

    def flaky(cfg, point, trial_seed):
        if point.excess_budget == 60:
            raise FloatingPointError("diverged")
        return real(cfg, point, trial_seed)
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


@pytest.mark.parametrize("where", ["missing/res.csv", "."])
def test_cli_refuses_a_bad_out_before_any_trial(tmp_path, monkeypatch, capsys, where):
    # a path under a directory that does not exist, or a directory itself,
    # fails at once, not after the whole sweep has run
    cfg_path = write_cfg(tmp_path)
    calls = []
    monkeypatch.setattr(harness, "run_trial", lambda *args: calls.append(args))
    out = tmp_path / where
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
    t = run_trial(cfg, pt, 5)
    assert not t.status.startswith("error")
    assert np.isfinite(t.nmse)


def test_cli_error_paths(tmp_path, capsys):
    assert cli_main([]) == 2
    assert cli_main(["run"]) == 1
    assert cli_main(["run", "--config", str(tmp_path / "missing.yaml")]) == 1
    cfg_path = write_cfg(tmp_path)
    assert cli_main(["run", "--config", str(cfg_path),
                     "--heuristic", "bogus"]) == 1
    bad = tmp_path / "bad.yaml"
    bad.write_text("trials: 0\n")
    assert cli_main(["run", "--config", str(bad)]) == 1
