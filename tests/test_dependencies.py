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


def test_a_serial_run_imports_no_process_pool():
    # run_experiment imports concurrent.futures only when workers > 1
    path = [str(SRC.parent)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    code = "import sys, otafc.cli; print('concurrent.futures' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(path)})
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]
