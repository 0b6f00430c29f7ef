"""The package imports nothing at run time beyond numpy, PyYAML and the
standard library; scipy and hypothesis are test-only extras."""

import ast
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "otafc"
RUNTIME = {"numpy", "yaml"} | set(sys.stdlib_module_names)


def test_package_imports_only_runtime_dependencies():
    assert SRC.joinpath("__init__.py").exists()  # the glob below is not empty
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # not an import, or one within the package
            found += [f"{path.name}: {n}" for n in names if n.split(".")[0] not in RUNTIME]
    assert not found, f"imports outside numpy, yaml and the standard library: {found}"


def _fresh(code):
    """stdout of code run in a fresh interpreter that imports otafc from src."""
    path = [str(SRC.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_a_serial_run_imports_no_process_pool():
    # run_experiment imports concurrent.futures only when workers > 1
    code = "import sys, otafc.cli; print('concurrent.futures' in sys.modules)"
    assert _fresh(code).split() == ["False"]


def test_an_ls_run_loads_no_fft():
    # ls draws its errors by their law: no pilot exchange, so no numpy.fft
    tree = {"estimator": "ls", "trials": 1, "topology": {"n_antennas": 4},
            "task": {"num_samples": 64},
            "sweep": {"heuristic": ["uniform"], "excess_budget": [60], "pilot_power": [1.0],
                      "num_groups": [2], "group_size": [3]}}
    code = ("import sys; from otafc import config_from_dict, run_experiment\n"
            f"[row] = run_experiment(config_from_dict({tree!r}))\n"
            "print(len(row.trials), row.failures, 'numpy.fft' in sys.modules)")
    assert _fresh(code).split() == ["1", "0", "False"]
