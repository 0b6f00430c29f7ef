"""The package imports nothing at run time beyond numpy, PyYAML and the
standard library; scipy and hypothesis are test-only extras."""

import ast
import pathlib
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
