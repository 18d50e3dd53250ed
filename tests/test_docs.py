"""The demos and the README's python blocks use only names the package has,
and the fast demos run to completion.

Demos 03 and 04 take several seconds each, so they are only parsed.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import stepanneal as sa

ROOT = Path(__file__).resolve().parent.parent


def _sources():
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text()
    readme = (ROOT / "README.md").read_text()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", readme, re.S)):
        yield f"README.md#{i}", block


SOURCES = dict(_sources())


def test_sources_found():
    assert len(SOURCES) >= 6
    assert any(name.startswith("README.md") for name in SOURCES)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_every_sa_name_exists(name):
    used = {
        node.attr
        for node in ast.walk(ast.parse(SOURCES[name]))
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "sa"
    }
    assert used
    assert sorted(n for n in used if not hasattr(sa, n)) == []


@pytest.mark.parametrize("demo", ["01_schedules_and_grids.py", "02_exact_oracle.py",
                                  "05_annealing_tradeoff.py"])
def test_fast_demo_runs(demo):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
