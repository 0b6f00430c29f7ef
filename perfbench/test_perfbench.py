"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCHMARK = json.load(_fh)


def _tiny_sweep(spec, **topology):
    tree = json.loads(json.dumps(spec.tree))
    tree["topology"].update(n_antennas=4, **topology)
    tree["task"]["num_samples"] = 32
    tree["sweep"].update(heuristic=tree["sweep"]["heuristic"][:1],
                         excess_budget=[0, 60], group_size=[3])
    tree["trials"] = 1
    return dataclasses.replace(spec, tree=tree, sweeps=1)


TINY = {
    "reference_sweep": _tiny_sweep(workloads.WORKLOADS["reference_sweep"]),
    "deep_cascade": _tiny_sweep(workloads.WORKLOADS["deep_cascade"]),
    "image_inference": dataclasses.replace(
        workloads.WORKLOADS["image_inference"], n_antennas=9, side=12,
        num_groups=2, group_size=4, designs=2, pool=8, quality_images=16, traced_images=16),
}


@pytest.fixture
def tiny(monkeypatch):
    for name, spec in TINY.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, spec)
    monkeypatch.setattr(workloads, "SETUP_SAMPLES", 1)


def _run(capsys, name, trace, seed=3):
    code = run.main(["--workload", name, "--seed", str(seed), "--seconds", "0",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines, json.loads(lines[-1])


def test_span_summary_self_time():
    # a[0,10] holds b[1,4] (which holds c[2,3]) and b[5,9]; c[11,12] is a root
    names = ["a", "b", "c"]
    name_id = [0, 1, 2, 1, 2]
    start = [0.0, 1.0, 2.0, 5.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    parent = [-1, 0, 1, 0, -1]
    got = spans.span_summary(names, name_id, start, end, parent)
    assert got == {"a": (1, 3.0, 10.0), "b": (2, 6.0, 7.0), "c": (2, 2.0, 2.0)}


def test_tracer_spans_parents_and_items(monkeypatch):
    mod = types.ModuleType("fakepkg.m")
    exec("def g(x):\n    return x + 1\n\ndef f(x):\n    return g(g(x))\n", mod.__dict__)
    pkg = types.ModuleType("fakepkg")
    pkg.f = mod.f  # a re-export is swapped too
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.m", mod)
    original_f = mod.f

    tracer = spans.Tracer({"m.f": "fakepkg.m.f", "m.g": "fakepkg.m.g",
                           "m.gone": "fakepkg.m.missing"}, root="m.f",
                          package="fakepkg")
    with tracer:
        assert pkg.f(1) == 3 and mod.f(5) == 7
    assert mod.f is original_f and pkg.f is original_f
    assert list(tracer.name_id) == [0, 1, 1, 0, 1, 1]
    assert list(tracer.parent) == [-1, 0, 0, -1, 3, 3]
    assert list(tracer.item) == [1, 1, 1, 2, 2, 2]
    summary = tracer.summary()
    assert summary["m.f"][0] == 2 and summary["m.g"][0] == 4
    assert summary["m.gone"] == (0, 0.0, 0.0)
    assert summary["m.f"][1] <= summary["m.f"][2]


def _package_bindings():
    return {(name, attr): id(value)
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == "otafc" or name.startswith("otafc."))
            for attr, value in vars(mod).items() if callable(value)}


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_run_restores_every_attribute(tiny, tmp_path, name):
    before = _package_bindings()
    out = workloads.run(name, 3, 0.0, 1, str(tmp_path), run_py=run.__file__)
    assert not out.problems
    assert _package_bindings() == before


@pytest.mark.parametrize("name", sorted(TINY))
def test_smoke_prints_every_end_to_end_metric(tiny, capsys, name):
    code, lines, result = _run(capsys, name, trace=0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    own = (["trials_per_s", "trial_ms_p50", "trial_ms_p80", "trials_per_s_norm",
            "trial_ms_p50_norm", "trial_ms_p80_norm", "acc_ota_mean"]
           if name != "image_inference"
           else ["images_per_s", "image_us_p50", "image_us_p95", "image_us_p99",
                 "images_per_s_norm", "image_us_p50_norm", "image_us_p95_norm",
                 "top1_agreement"])
    printed = {line.split()[0]: line.split()[2] for line in lines
               if len(line.split()) == 3}
    for metric in own + ["setup_s", "reference_ms", "failed_frac", "peak_rss_mb",
                         "nmse_mean"]:
        assert metric in printed, metric
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["thread_pinning"]["OPENBLAS_NUM_THREADS"] == "1"
    assert env["numpy"] and env["cpu_count"] and env["python"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_call_counts_repeat(tiny, capsys, name):
    first = _run(capsys, name, trace=1)[2]
    second = _run(capsys, name, trace=1)[2]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    exact = [k for k in declared if k.endswith(".calls") or k == "solver.iterations"]
    assert {k: first["metrics"][k]["value"] for k in exact} == \
        {k: second["metrics"][k]["value"] for k in exact}
    assert first["metrics"]["solver.solve.calls"]["value"] >= 1


def test_speed_scaling_follows_the_reference_time(monkeypatch):
    probe = workloads.SpeedProbe()
    probe.sample(2)
    assert len(probe.samples) == 2 and probe.reference_ms > 0
    probe.samples = workloads.array("d", [2e-3, 2e-3])  # a machine at half speed
    monkeypatch.setattr(workloads, "REFERENCE_MS", 1.0)
    assert probe.time_scale == pytest.approx(0.5)


def test_failed_check_exits_nonzero(tiny, capsys, monkeypatch):
    monkeypatch.setattr(workloads, "POWER_TOL", -1.0)  # every precoder "over" P_max
    code, lines, result = _run(capsys, "deep_cascade", trace=0)
    assert code == 1 and not result["correct"]
    assert result["failed"] == result["attempted"]
    assert any(line.startswith("check failed:") for line in lines)


def test_hung_setup_child_is_a_failed_check(tiny, capsys, monkeypatch):
    def hang(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])
    monkeypatch.setattr(workloads.subprocess, "run", hang)
    code, lines, result = _run(capsys, "reference_sweep", trace=0)
    assert code == 1 and not result["correct"]
    assert any("set-up child ran past" in line for line in lines)


def test_missing_package_exits_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in ("run.py", "spans.py", "workloads.py"):
        shutil.copy(os.path.join(HERE, name), bench / name)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "deep_cascade", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stdout == ""
