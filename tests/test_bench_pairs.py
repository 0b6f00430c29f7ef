"""tools/bench_pairs.py summary: medians, quartiles, pair wins and verdicts."""

import importlib.util
import json
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(pair, side, speed, ms, run="r1", extra=None):
    metrics = {"items_per_s_norm": {"value": speed, "unit": "1/s"},
               "item_ms_p50_norm": {"value": ms, "unit": "ms"}, **(extra or {})}
    return {"run": run, "pair": pair, "side": side, "checkout": side, "commit": None,
            "workload": "deep_cascade", "seed": 3, "seconds": 30.0, "trace": 0,
            "exit": 0, "result": {"correct": True, "attempted": 8, "failed": 0,
                                  "metrics": metrics}}


def test_summary_counts_wins_in_the_better_direction(tmp_path, capsys):
    tool = _load_tool()
    # the change is faster in pairs 0-2 and slower in pair 3; a run with no
    # perfbench output is skipped, and a second invocation is kept apart
    base = [10.0, 11.0, 9.0, 10.0]
    change = [12.0, 12.0, 10.0, 9.0]
    lines = []
    for pair, (b, c) in enumerate(zip(base, change)):
        lines.append(_record(pair, "base", b, 1000.0 / b))
        lines.append(_record(pair, "change", c, 1000.0 / c))
    lines.append(dict(_record(4, "base", 1.0, 1.0), result=None))
    lines += [_record(0, "base", 1.0, 1.0, run="r2"), _record(0, "change", 2.0, 2.0, run="r2")]
    path = tmp_path / "pairs.json"
    path.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")

    assert tool.main(["summary", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "r1: deep_cascade seed 3 trace 0, base base: 4 pairs"
    assert out[3] == "r2: deep_cascade seed 3 trace 0, base base: 1 pairs"
    assert len(out) == 6  # both metrics of both runs, and nothing else
    assert not any("setup_s" in line for line in out)  # in neither run
    speed = next(line for line in out if "items_per_s_norm" in line)
    latency = next(line for line in out if "item_ms_p50_norm" in line)
    # higher is better for throughput, lower for latency: same pairs win
    assert speed.endswith("wins 3/4  no change") and latency.endswith("wins 3/4  no change")
    # the one-pair run: the change doubles both, a gain in throughput and
    # past the 25% bound the wrong way in latency
    assert out[4].endswith("wins 0/1  worse") and "item_ms_p50_norm" in out[4]
    assert out[5].endswith("wins 1/1  gain") and "items_per_s_norm" in out[5]
    assert "base 10 [9.75, 10.25]" in speed
    assert "change 11 [9.75, 12]" in speed


_BASE = [10.0 + 0.1 * k for k in range(10)]  # median 10.45, quartile distance 0.45


@pytest.mark.parametrize("change,verdict", [
    ([b + 1.0 for b in _BASE], "gain"),  # 10/10 wins, median +1.0
    ([b + 1.0 for b in _BASE[:9]] + [_BASE[9]], "gain"),  # 9/10, the tie wins for neither
    ([b + 1.0 for b in _BASE[:8]] + _BASE[8:], "no change"),  # 8/10
    ([b + 0.4 for b in _BASE], "no change"),  # 10/10, within the base quartiles
    ([0.8 * b for b in _BASE], "no change"),  # 20% slower, inside the 25% bound
    ([0.7 * b for b in _BASE], "worse"),  # 30% slower
], ids=["all-pairs", "nine-pairs", "eight-pairs", "inside-quartiles", "inside-bound",
        "past-bound"])
def test_summary_gives_the_claim_verdict(tmp_path, capsys, change, verdict):
    tool = _load_tool()
    lines = []
    for pair, (b, c) in enumerate(zip(_BASE, change)):
        # a per-layer metric has no bound: three times the calls is no verdict
        lines.append(_record(pair, "base", b, 1.0, extra={"solver.solve.calls": {"value": 1}}))
        lines.append(_record(pair, "change", c, 1.0, extra={"solver.solve.calls": {"value": 3}}))
    path = tmp_path / "pairs.json"
    path.write_text("".join(json.dumps(r) + "\n" for r in lines), encoding="utf-8")

    assert tool.main(["summary", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    speed = next(line for line in out if "items_per_s_norm" in line)
    calls = next(line for line in out if "solver.solve.calls" in line)
    assert speed.endswith(f"  {verdict}")
    assert calls.endswith("wins 0/10  no change")
