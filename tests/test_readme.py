"""The README's library example runs as written."""

import math
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _example(heading: str) -> str:
    """The first ```python block under the README's `## heading`."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(r"^```python\n(.*?)^```$", section, re.S | re.M).group(1)


def test_library_example_prints_a_finite_nmse(capsys):
    exec(compile(_example("Library example"), "README.md", "exec"), {})
    nmse, status, iterations = capsys.readouterr().out.split()
    assert math.isfinite(float(nmse))
    assert status in ("converged", "max_iters") and int(iterations) >= 1
