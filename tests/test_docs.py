"""The demos and the README's python blocks use only names the package has,
the README's ``stepanneal`` command lines parse, and the fast demos run to
completion.

Demos 03 and 04 take several seconds each, so they are only parsed.
"""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import stepanneal as sa
from stepanneal import cli

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _sources():
    for path in sorted((ROOT / "demos").glob("*.py")):
        yield path.name, path.read_text()
    for i, block in enumerate(re.findall(r"```python\n(.*?)```", README, re.S)):
        yield f"README.md#{i}", block


SOURCES = dict(_sources())
COMMANDS = [
    line.split("#")[0].strip()
    for block in re.findall(r"```bash\n(.*?)```", README, re.S)
    for line in block.splitlines()
    if line.startswith("stepanneal ")
]


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


def test_commands_found():
    assert {line.split()[1] for line in COMMANDS} == {
        "schedule", "simulate", "diagnose", "sweep", "oracle-check"}


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_parses(line):
    # A renamed or removed flag makes argparse exit here.
    cli.build_parser().parse_args(shlex.split(line)[1:])


@pytest.mark.parametrize("demo", ["01_schedules_and_grids.py", "02_exact_oracle.py",
                                  "05_annealing_tradeoff.py"])
def test_fast_demo_runs(demo):
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
