"""tools/trial_digest.py: one line per trial, the same bytes on every run."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "trial_digest.py"


def _digest(*args):
    return subprocess.run([sys.executable, str(TOOL), str(ROOT), "--seed", "4", *args],
                          capture_output=True, text=True, timeout=300)


def test_one_sweep_digest_is_one_stable_line_per_trial():
    first = _digest("--workload", "deep_cascade", "--sweeps", "1")
    assert first.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    assert len(lines) == 8  # 2 heuristics x 2 budgets x 2 trials
    for line in lines:
        name, sweep, key, trial, nmse, obj, acc, iters, status = line.split(" ")
        assert (name, sweep) == ("deep_cascade", "0") and trial in ("0", "1")
        assert key.split("|")[0] in ("front_loaded", "channel_aware")
        assert 0 < float(nmse) and 0 < float(obj) and 0 <= float(acc) <= 1
        assert 1 <= int(iters) <= 40 and status in ("converged", "max_iters")
    assert _digest("--workload", "deep_cascade", "--sweeps", "1").stdout == first.stdout


def test_digest_refuses_a_workload_that_is_not_a_sweep():
    proc = _digest("--workload", "image_inference")
    assert proc.returncode == 2 and "not a sweep workload" in proc.stderr
