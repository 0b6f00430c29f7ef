"""tools/trial_digest.py: one line per trial or image, the same bytes on every run."""

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
        name, sweep, key, trial, nmse, obj, acc, dig, overrun, iters, status = line.split(" ")
        assert (name, sweep) == ("deep_cascade", "0") and trial in ("0", "1")
        assert key.split("|")[0] in ("front_loaded", "channel_aware")
        assert 0 < float(nmse) and 0 < float(obj) and 0 <= float(acc) <= 1
        assert 0 <= float(dig) <= 1 and 0 < float(overrun)
        assert 1 <= int(iters) <= 40 and status in ("converged", "max_iters")
    assert _digest("--workload", "deep_cascade", "--sweeps", "1").stdout == first.stdout


def test_digest_refuses_a_name_that_is_not_a_workload():
    proc = _digest("--workload", "no_such_workload")
    assert proc.returncode == 2 and "'no_such_workload' is not a workload" in proc.stderr


def test_image_digest_is_one_stable_line_per_image():
    first = _digest("--workload", "image_inference", "--images", "14")
    assert first.returncode == 0, first.stderr
    lines = first.stdout.splitlines()
    assert len(lines) == 14
    for i, line in enumerate(lines):
        name, index, design, ota, dig, sha = line.split(" ")
        assert (name, int(index), int(design)) == ("image_inference", i, i % 6)
        assert 0 <= int(ota) < 10 and 0 <= int(dig) < 10
        assert len(sha) == 40 and int(sha, 16) >= 0
    assert len({line.split()[-1] for line in lines}) == 14
    again = _digest("--workload", "image_inference", "--images", "14")
    assert again.stdout == first.stdout


def _image(index, ota, dig, design=0):
    return f"image_inference {index} {design} {ota} {dig} {'0' * 40}\n"


def test_against_joins_image_digests_on_the_image_index(tmp_path):
    # images 0-3 in both: agreement 1-1, 0-1, 1-0 and 1-0; image 4 only in
    # this, image 5 only in other; the sweep line of this is joined apart
    this, other = tmp_path / "this.txt", tmp_path / "other.txt"
    this.write_text(_image(1, 3, 2) + _image(0, 7, 7) + _image(2, 5, 5) + _image(3, 1, 1)
                    + _image(4, 0, 0) + _line("w", 0, 0.25, 0.5, 10))
    other.write_text(_image(0, 2, 2) + _image(1, 2, 2) + _image(2, 4, 5) + _image(3, 0, 1)
                     + _image(5, 0, 0))
    proc = subprocess.run([sys.executable, str(TOOL), str(this), "--against", str(other)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "0 trials in both, 1 only in this, 0 only in other",
        "4 images in both, 1 only in this, 1 only in other",
        "image_inference agreement +0.25 +- 0.48 lower 1 higher 2 of 4",
        "image_inference argmax changed ota 4 digital 1 of 4"]
    saved = tmp_path / "saved.txt"
    saved.write_text(_digest("--workload", "image_inference", "--images", "3").stdout)
    proc = _digest("--workload", "image_inference", "--images", "3", "--against", str(saved))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "3 images in both, 0 only in this, 0 only in other",
        "image_inference agreement +0 +- 0 lower 0 higher 0 of 3",
        "image_inference argmax changed ota 0 digital 0 of 3"]


def test_against_counts_argmax_flips_that_agreement_hides(tmp_path):
    # image 0 flips both argmaxes and still agrees, image 1 flips its OTA
    # argmax only, image 2 its digital argmax only, image 3 neither
    this, other = tmp_path / "this.txt", tmp_path / "other.txt"
    this.write_text(_image(0, 4, 4) + _image(1, 2, 1) + _image(2, 3, 6) + _image(3, 5, 5))
    other.write_text(_image(0, 3, 3) + _image(1, 1, 1) + _image(2, 3, 3) + _image(3, 5, 5))
    proc = subprocess.run([sys.executable, str(TOOL), str(this), "--against", str(other)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-2:] == [
        "image_inference agreement -0.5 +- 0.29 lower 2 higher 0 of 4",
        "image_inference argmax changed ota 2 digital 2 of 4"]


def test_against_refuses_a_line_that_is_no_digest_line(tmp_path):
    this, other = tmp_path / "this.txt", tmp_path / "other.txt"
    this.write_text(_line("w", 0, 0.25, 0.5, 10))
    other.write_text("w 0 1 2\n")
    proc = subprocess.run([sys.executable, str(TOOL), str(this), "--against", str(other)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "trial lines of 11 fields, image lines of 6" in proc.stderr


def _line(workload, trial, nmse, acc, iters, status="converged"):
    return (f"{workload} 0 uniform|200|1|3|50 {trial} {nmse!r} 1.0 {acc!r} 0.875 0.5 "
            f"{iters} {status}\n")


def test_against_prints_paired_differences_per_workload(tmp_path):
    this, other = tmp_path / "this.txt", tmp_path / "other.txt"
    failed = _line("w", 2, float("nan"), float("nan"), 0, "error:SolverDivergenceError")
    this.write_text(_line("w", 0, 0.25, 0.5, 10) + _line("w", 1, 0.5, 0.75, 20) + failed
                    + _line("w", 3, 0.5, 0.5, 3) + _line("v", 0, 0.125, 0.5, 4))
    other.write_text(_line("w", 1, 0.25, 0.75, 30) + _line("w", 0, 0.5, 0.25, 10)
                     + _line("w", 2, 0.5, 0.5, 7) + _line("v", 0, 0.25, 0.5, 4)
                     + _line("v", 1, 0.25, 0.5, 4))
    proc = subprocess.run([sys.executable, str(TOOL), str(this), "--against", str(other)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "4 trials in both, 1 only in this, 1 only in other"
    # w: nmse differences -0.25 and +0.25, trial 2 failed on this side
    assert lines[1:] == [
        "v nmse -0.125 +- nan lower 1 higher 0 of 1 (0 failed)",
        "v ota_acc +0 +- nan lower 0 higher 0 of 1 (0 failed)",
        "v iterations +0 +- nan lower 0 higher 0 of 1 (0 failed)",
        "w nmse +0 +- 0.25 lower 1 higher 1 of 2 (1 failed)",
        "w ota_acc +0.125 +- 0.12 lower 0 higher 1 of 2 (1 failed)",
        "w iterations -5 +- 5 lower 1 higher 0 of 2 (1 failed)"]


def test_against_joins_a_fresh_digest_with_a_saved_one(tmp_path):
    saved = tmp_path / "saved.txt"
    saved.write_text(_digest("--workload", "deep_cascade", "--sweeps", "1").stdout)
    proc = _digest("--workload", "deep_cascade", "--sweeps", "1", "--against", str(saved))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "8 trials in both, 0 only in this, 0 only in other",
        *(f"deep_cascade {m} +0 +- 0 lower 0 higher 0 of 8 (0 failed)"
          for m in ("nmse", "ota_acc", "iterations"))]


def test_a_digest_file_is_read_only_with_against(tmp_path):
    saved = tmp_path / "saved.txt"
    saved.write_text(_line("w", 0, 0.25, 0.5, 10))
    proc = subprocess.run([sys.executable, str(TOOL), str(saved)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "only read with --against" in proc.stderr
