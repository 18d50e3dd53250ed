"""The demos and the README's python blocks use only names the package has,
the README's ``stepanneal`` command lines parse, its config-key paragraph
names every config key, its output-file list gives every CSV's columns, and
the README's python blocks and the fast demos run to completion.

Demos 03 and 04 take several seconds each, so they are only parsed.
"""

import ast
import json
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


def test_readme_lists_every_config_key():
    # The README's config-key paragraph names every DEFAULT_CONFIG key and no
    # other, so a removed key cannot stay in the docs.
    para = re.search(r"The config keys .*?\n\n", README, re.S).group(0)
    names = {name.strip() for span in re.findall(r"`([^`]*/[^`]*)`", para)
             for name in span.split("/")}
    assert names == set(cli.DEFAULT_CONFIG)


def test_readme_gives_every_csv_header(tmp_path, capsys):
    # simulate, diagnose and sweep on a tiny config write exactly the CSVs
    # that "Output files" lists, each with the listed columns on line 2.
    section = re.search(r"Output files and their columns:\n\n(.*?)\n\n",
                        README, re.S).group(1)
    listed = dict(re.findall(r"^\* `(\w+\.csv)` — `([^`]*)`", section, re.M))
    out = tmp_path / "out"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "schedule_kind": "linear", "ar_steps": 2, "t_early": 3, "t_late": 2,
        "n_sequences": 2, "draws_per_step": 2, "t_draws": 1, "probe_sequences": 1,
        "floor_repeats": 1, "sweep_t_early": [3], "sweep_t_late": [2],
        "out_dir": str(out)}))
    for command in ("simulate", "diagnose", "sweep"):
        assert cli.main([command, "--config", str(config)]) == 0, capsys.readouterr()
    written = {path.name: path.read_text().splitlines()[1]
               for path in out.glob("*.csv")}
    assert len(listed) == 6
    assert written == listed


def _run_python(*args):
    """Run ``python *args`` with this checkout's package first on PYTHONPATH;
    returns its stdout after checking that it exits 0."""
    src = str(ROOT / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run([sys.executable, *args], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("name", [n for n in sorted(SOURCES) if n.startswith("README")])
def test_readme_block_runs(name):
    out = _run_python("-c", SOURCES[name])
    if name == "README.md#0":
        # The quick start prints what its comments promise: 463 calls per
        # sequence, reported and spent.
        assert out.splitlines()[:2] == ["(8, 16, 4) 463", "463"]


@pytest.mark.parametrize("demo", ["01_schedules_and_grids.py", "02_exact_oracle.py",
                                  "05_annealing_tradeoff.py"])
def test_fast_demo_runs(demo):
    _run_python(str(ROOT / "demos" / demo))
