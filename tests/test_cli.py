import argparse
import ast
import dataclasses
import importlib.util
import inspect
import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import stepanneal
from stepanneal import (
    cli, conditioning_plan, generate, simulate_sequences, step_grids,
)
from stepanneal.cli import main

from conftest import count_thread_starts, open_fd_count


# One bad value per config key but out_dir: (config, the start of the error
# after "error: " or "error: AR step k: ", the commands that read the key).
_LINEAR = {"schedule_kind": "linear"}
_ALL = ("simulate", "diagnose", "sweep", "oracle-check")
_RUNS = ("simulate", "diagnose", "sweep")
BAD_CONFIG = {
    "grid_height": ({"grid_height": 0}, "grid_height: must be >= 1, got 0", _ALL),
    "grid_width": ({"grid_width": 0}, "grid_width: must be >= 1, got 0", _ALL),
    "token_dim": ({"token_dim": 0}, "token_dim: ", _ALL),
    "kernel": ({"kernel": "bogus"}, "kernel: ", _ALL),
    "length_scale": ({"length_scale": -1.0}, "length_scale: ", _ALL),
    "marginal_std": ({"marginal_std": 0.0}, "marginal_std: ", _ALL),
    "jitter": ({"jitter": -1.0}, "jitter: ", _ALL),
    "order_kind": ({**_LINEAR, "order_kind": "bogus"}, "order_kind: ", _RUNS),
    "order_seed": ({**_LINEAR, "order_seed": -1},
                   "order_seed: must be >= 0, got -1", _RUNS),
    "ar_steps": ({"ar_steps": 100}, "ar_steps: must lie in [1, 16], got 100", _RUNS),
    "schedule_kind": ({"schedule_kind": "bogus"}, "schedule_kind: ", _RUNS),
    "base_step_count": ({**_LINEAR, "base_step_count": 1}, "base_step_count: ",
                        _RUNS),
    "beta_start": ({**_LINEAR, "beta_start": 0.0}, "beta_start: ", _RUNS),
    "beta_end": ({**_LINEAR, "beta_end": 1.5}, "beta_end: ", _RUNS),
    "cosine_offset": ({"schedule_kind": "cosine", "cosine_offset": -0.1},
                      "cosine_offset: must be >= 0, got -0.1", _RUNS),
    "start_index": ({**_LINEAR, "start_index": 0},
                    "start_index: must lie in [1, 1000), got 0", _RUNS),
    "flow_start_time": ({"sampler": "euler_flow", "flow_start_time": 1.5},
                        "flow_start_time: ", _RUNS),
    "sampler": ({**_LINEAR, "sampler": "bogus"},
                "sampler: unknown sampler 'bogus'", _RUNS),
    "eta": ({**_LINEAR, "eta": -1.0}, "eta: ", _RUNS),
    "solver_order": ({**_LINEAR, "sampler": "dpm_solver", "solver_order": 3},
                     "solver_order: must be 1 or 2", _RUNS),
    "sde_noise_scale": ({"sampler": "euler_maruyama", "sde_noise_scale": -1.0},
                        "sde_noise_scale: ", _RUNS),
    "scheduler_kind": ({**_LINEAR, "scheduler_kind": "bogus"},
                       "scheduler_kind: unknown scheduler 'bogus'",
                       ("schedule", *_RUNS)),
    "t_early": ({**_LINEAR, "t_early": 0}, "t_early: ",
                ("schedule", "simulate", "diagnose")),
    "t_late": ({**_LINEAR, "t_late": 0}, "t_late: ",
               ("schedule", "simulate", "diagnose")),
    "n_sequences": ({**_LINEAR, "n_sequences": 0}, "n_sequences: ",
                    ("simulate", "diagnose")),
    "master_seed": ({**_LINEAR, "master_seed": -1},
                    "master_seed: must be >= 0, got -1", _ALL),
    "draws_per_step": ({**_LINEAR, "draws_per_step": 1}, "draws_per_step: ",
                       ("diagnose", "sweep")),
    "t_draws": ({**_LINEAR, "t_draws": 0}, "t_draws: ", ("diagnose",)),
    "probe_sequences": ({**_LINEAR, "probe_sequences": 0}, "probe_sequences: ",
                        ("diagnose",)),
    "floor_repeats": ({**_LINEAR, "floor_repeats": 0}, "floor_repeats: ", ("sweep",)),
    "joint_sequences": ({**_LINEAR, "joint_sequences": -3}, "joint_sequences: ",
                        ("sweep",)),
    "mc_samples": ({"mc_samples": 5}, "mc_samples: ", ("oracle-check",)),
    "sweep_t_early": ({**_LINEAR, "sweep_t_early": [0]}, "sweep_t_early: ",
                      ("sweep",)),
    "sweep_t_late": ({**_LINEAR, "sweep_t_late": [0]}, "sweep_t_late: ", ("sweep",)),
}
# A second bad value for a key whose first one a command that reads the key
# accepts: schedule builds no field, so no ar_steps is too large for it.
MORE_BAD_CONFIG = {
    "ar_steps": ({"ar_steps": 0}, "ar_steps: must be a positive integer",
                 ("schedule",)),
}
BAD_ROWS = [*BAD_CONFIG.items(), *MORE_BAD_CONFIG.items()]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(path):
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return header, rows


def package_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(stepanneal.__file__).resolve().parent.parent)
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_cold_import_leaves_out_scipy():
    # Importing scipy.linalg costs more than the package's own import, and
    # scipy.stats more than most CLI runs spend working; every invocation
    # pays it before doing anything.  The package is numpy-only.
    code = ("import sys, stepanneal, stepanneal.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    result = subprocess.run([sys.executable, "-c", code], env=package_env(),
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


# big_field's simulate config at 2 sequences: a 1024 x 1024 Cholesky factor
# and products that BLAS splits across threads.
_THREADED_CONFIG = {
    "grid_height": 32, "grid_width": 32, "ar_steps": 256, "schedule_kind": "linear",
    "start_index": 950, "sampler": "ddim", "t_early": 50, "t_late": 5,
    "n_sequences": 2,
}


def simulate_tokens(tmp_path, threads: int, name: str) -> bytes:
    """tokens.csv of a ``simulate`` subprocess at a BLAS thread count."""
    config = tmp_path / "threaded.json"
    config.write_text(json.dumps(_THREADED_CONFIG))
    env = {**package_env(), **{var: str(threads) for var in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}
    out = tmp_path / name
    result = subprocess.run(
        [sys.executable, "-m", "stepanneal.cli", "simulate", "--config", str(config),
         "--out-dir", str(out)], env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return (out / "tokens.csv").read_bytes()


def test_one_blas_thread_count_repeats_every_byte(tmp_path):
    # The determinism contract: on one numpy/BLAS build and BLAS thread
    # count, a config determines every output byte.
    assert simulate_tokens(tmp_path, 1, "a") == simulate_tokens(tmp_path, 1, "b")


@pytest.mark.skipif(
    (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
     else os.cpu_count() or 1) < 2, reason="one CPU")
def test_blas_thread_counts_agree_within_a_bound(tmp_path):
    # Across thread counts BLAS sums in another order, so the bytes may
    # differ; every value agrees within 1e-8 (the largest gap measured is
    # about 1.4e-10), and the rows' keys are the same.
    one, two = (np.loadtxt(simulate_tokens(tmp_path, t, f"t{t}").decode().splitlines()[2:],
                           delimiter=",") for t in (1, 2))
    np.testing.assert_array_equal(one[:, :4], two[:, :4])
    np.testing.assert_allclose(two[:, 4], one[:, 4], rtol=0.0, atol=1e-8)


def test_benchmark_hooks_bind():
    # The benchmark (bench/spans.py) rebinds package names from outside, such
    # as every ExactDenoiser method, velocity_and_flow_score included, which no
    # package code calls.  Renaming or removing one must fail here rather
    # than in every benchmark pass.
    root = Path(__file__).resolve().parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import spans; "
            "spans.install(spans.Tracer()); spans.count_generation_calls()")
    result = subprocess.run([sys.executable, "-c", code, str(root / "bench")],
                            env=package_env(), capture_output=True, text=True,
                            timeout=120)
    assert result.returncode == 0, result.stderr


def test_unread_imports_are_benchmark_hooks():
    # A module keeps an import that it never reads only because
    # bench/spans.py's install rebinds that name on it to trace a layer.  A
    # recorder that patches nothing lists those rebinds; an unread import
    # missing from the list is dead, and this names it.  The package's
    # __init__ imports its public names to export them, not to read them.
    root = Path(__file__).resolve().parent.parent
    loader = importlib.util.spec_from_file_location("spans",
                                                    root / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    hooks = set()

    class Recorder(spans.Tracer):
        def patch(self, owner, attr, name, size=None):
            hooks.add((owner.__name__, attr))

    spans.install(Recorder())
    assert ("stepanneal.diagnostics", "w2_to_truth") in hooks
    dead = {}
    for path in sorted(Path(stepanneal.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        module = f"stepanneal.{path.stem}"
        unread = imported - read - {attr for owner, attr in hooks if owner == module}
        if unread:
            dead[module] = sorted(unread)
    assert dead == {}


def test_benchmark_child_runs_one_pass(tmp_path):
    # One untraced pass of bench/child.py on a tiny simulate config: it calls
    # cli.load_config, build_spec, build_order, build_schedule and
    # process.joint_covariance itself, which no other test reaches.
    root = Path(__file__).resolve().parent.parent
    env = {**package_env(), "OPENBLAS_NUM_THREADS": "1"}
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "ar_steps": 4, "schedule_kind": "linear", "t_early": 5, "t_late": 2,
        "n_sequences": 2,
    }))
    result = subprocess.run(
        [sys.executable, str(root / "bench" / "child.py"), str(config),
         str(tmp_path / "out"), "simulate"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    record = json.loads(result.stdout.splitlines()[-1])
    assert record["exit_codes"] == [0]


def test_key_tables_name_constructor_parameters():
    # Every table that cli feeds a constructor through _from_config maps
    # parameters of that constructor to config keys, so a renamed parameter
    # or key fails here rather than on the first run that reads it.
    tables = {
        "_SPEC_KEYS": stepanneal.TokenProcessSpec,
        "_RASTER_KEYS": stepanneal.raster_order,
        "_RANDOM_KEYS": stepanneal.random_order,
        "_LINEAR_KEYS": stepanneal.build_linear_beta,
        "_COSINE_KEYS": stepanneal.build_cosine_alpha_bar,
        "_SAMPLER_KEYS": stepanneal.SamplerConfig,
        "_SCHEDULER_KEYS": stepanneal.StepScheduler,
        "_SWEEP_KEYS": stepanneal.StepScheduler,
    }
    assert set(tables) == {name for name in vars(cli) if name.endswith("_KEYS")}
    for name, build in tables.items():
        keys = getattr(cli, name)
        assert set(keys) <= set(inspect.signature(build).parameters), name
        assert set(keys.values()) <= set(cli.DEFAULT_CONFIG), name


def test_library_checks_the_cli_remaps():
    # The CLI leaves these range checks to the library and only renames the
    # parameter to its config key (BAD_CONFIG checks the remapped messages).
    spec = stepanneal.TokenProcessSpec()
    with pytest.raises(ValueError, match=r"^seed: must be >= 0, got -1$"):
        stepanneal.random_order(spec, 4, -1)
    with pytest.raises(ValueError, match=r"^small_offset: must be >= 0, got -0\.1$"):
        stepanneal.build_cosine_alpha_bar(small_offset=-0.1)
    # The order's kind is read before the library sees ar_steps.
    with pytest.raises(ValueError, match="^order_kind: unknown value 'bogus'$"):
        cli.build_order({**cli.DEFAULT_CONFIG, "order_kind": "bogus", "ar_steps": 100},
                        spec)


def test_override_flags_are_config_keys():
    # Only dests that are config keys become overrides, so a misspelt key
    # would be dropped silently.  Every key with choices is some command's.
    flags = {key for _, _, keys in cli._COMMANDS.values() for key in keys}
    assert flags <= set(cli.DEFAULT_CONFIG)
    assert set(cli._CHOICES) <= flags
    args = cli.build_parser().parse_args(["simulate", "--eta", "0.5", "--out-dir", "x"])
    keys = cli._COMMANDS["simulate"][2]
    assert cli._overrides(args) == {**dict.fromkeys(keys), "eta": 0.5, "out_dir": "x"}


def test_each_command_takes_the_flags_it_reads():
    # A command takes a key's override flag exactly when it reads the key,
    # as a bad value of the key failing on that command shows.  out_dir has
    # no bad value; the commands that write files read it.
    readers = {"out_dir": set(_RUNS)}
    for key, (_, _, commands) in BAD_ROWS:
        readers.setdefault(key, set()).update(commands)
    parser = cli.build_parser()
    [commands] = [action.choices for action in parser._actions
                  if isinstance(action, argparse._SubParsersAction)]
    assert set(commands) == {"schedule", *_ALL}
    flags = {key for _, _, keys in cli._COMMANDS.values() for key in keys}
    for command, sub in commands.items():
        dests = {action.dest for action in sub._actions} - {
            "help", "config", "corrupt_score"}
        assert dests == {key for key in flags if command in readers[key]}, command


def test_flags_parse_to_their_config_types():
    # Each override flag's type is its config key's: a valid value ("3" for
    # --start-index, "0.5" for --eta, "x" for --out-dir) parses to that type
    # and passes the config check; a key whose default is null names its
    # type in _NULLABLE; a key with choices refuses any other value.
    parser = cli.build_parser()
    samples = {int: "3", float: "0.5", str: "x"}
    for command, (_, _, keys) in cli._COMMANDS.items():
        for key in keys:
            kind = cli._NULLABLE.get(key, type(cli.DEFAULT_CONFIG[key]))
            text = cli._CHOICES[key][0] if key in cli._CHOICES else samples[kind]
            value = vars(parser.parse_args(
                [command, "--" + key.replace("_", "-"), text]))[key]
            assert type(value) is kind, (command, key)
            cli._check_type(key, value)
            if cli.DEFAULT_CONFIG[key] is None:
                assert key in cli._NULLABLE, key
    for key in cli._CHOICES:
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--" + key.replace("_", "-"), "bogus"])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["oracle-check", "--ar-steps", "3"], ["oracle-check", "--out-dir", "x"],
    ["oracle-check", "--sampler", "ddpm"], ["oracle-check", "--start-index", "0"],
    ["sweep", "--t-early", "7"], ["sweep", "--t-late", "3"],
    ["sweep", "--n-sequences", "99"], ["simulate", "--draws-per-step", "5"],
], ids=" ".join)
def test_unread_flags_are_usage_errors(argv):
    # A flag that the command would ignore is refused, not accepted.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_choices_come_from_the_library():
    # Every sampler, scheduler and noise-schedule kind the library knows
    # parses, so a kind added to the library needs no second list in the CLI.
    parser = cli.build_parser()
    for kind in stepanneal.SAMPLER_KINDS:
        assert parser.parse_args(["simulate", "--sampler", kind]).sampler == kind
    for kind in stepanneal.SCHEDULE_KINDS:
        args = parser.parse_args(["simulate", "--schedule-kind", kind])
        assert args.schedule_kind == kind
        cfg = {**cli.DEFAULT_CONFIG, "schedule_kind": kind}
        assert cli.build_schedule(cfg).kind == kind
    # A missing or unknown schedule kind is refused, listing the kinds.
    listed = re.escape(", ".join(stepanneal.SCHEDULE_KINDS))
    for bad in (None, "bogus"):
        with pytest.raises(ValueError, match=f"^schedule_kind: .*{listed}"):
            cli.build_schedule({**cli.DEFAULT_CONFIG, "schedule_kind": bad})
    for kind in stepanneal.SCHEDULER_KINDS:
        args = parser.parse_args(["sweep", "--scheduler-kind", kind])
        assert args.scheduler_kind == kind
        args = parser.parse_args(["schedule", "--scheduler-kind", kind])
        assert args.scheduler_kind == kind


@pytest.mark.parametrize("command, grids", [
    ("simulate", 4), ("diagnose", 4), ("sweep", 5),
])
def test_each_policy_builds_its_grids_once(capsys, tmp_path, monkeypatch,
                                           command, grids):
    # A command builds each policy's grids once, one per distinct T(k) (the
    # linear policy 10 -> 5 has T(k) = 10, 9, 8, 6 and the sweep's constant
    # policy 10 one grid), and the generation order's conditioning plan
    # once, and hands them to generation and the diagnostics (the sweep's
    # joint run too).  Counting every Cholesky factorisation as well shows
    # that nothing else factors the covariance.
    calls = {"grids": 0, "plans": 0, "factorisations": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(generate, "make_diffusion_grid",
                        counted("grids", generate.make_diffusion_grid))
    monkeypatch.setattr(cli, "conditioning_plan",
                        counted("plans", cli.conditioning_plan))
    monkeypatch.setattr(np.linalg, "cholesky",
                        counted("factorisations", np.linalg.cholesky))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "schedule_kind": "linear", "ar_steps": 4, "t_early": 10, "t_late": 5,
        "n_sequences": 2, "draws_per_step": 32, "t_draws": 2,
        "probe_sequences": 2, "floor_repeats": 1, "joint_sequences": 4,
        "sweep_t_early": [10], "sweep_t_late": [5, 10],
        "out_dir": str(tmp_path / "out")}))
    assert run_cli(capsys, command, "--config", str(config))[0] == 0
    assert calls == {"grids": grids, "plans": 1, "factorisations": 1}


class TestScheduleCommand:
    def test_two_stage_table(self, capsys):
        code, out, _ = run_cli(capsys, "schedule", "--scheduler-kind", "two_stage",
                               "--t-early", "50", "--t-late", "5",
                               "--ar-steps", "64")
        assert code == 0
        rows = out.strip().splitlines()
        assert rows[0] == "k,T"
        values = [int(r.split(",")[1]) for r in rows[1:]]
        assert values == [50] * 32 + [5] * 32

    def test_constant_table(self, capsys):
        code, out, _ = run_cli(capsys, "schedule", "--scheduler-kind", "constant",
                               "--t-early", "50", "--ar-steps", "4")
        assert code == 0
        values = [int(r.split(",")[1]) for r in out.strip().splitlines()[1:]]
        assert values == [50, 50, 50, 50]

    def test_linear_first_row(self, capsys):
        code, out, _ = run_cli(capsys, "schedule", "--scheduler-kind", "linear",
                               "--t-early", "25", "--t-late", "5",
                               "--ar-steps", "32")
        assert code == 0
        assert out.strip().splitlines()[1] == "0,25"

    def test_config_sets_the_policy(self, capsys, tmp_path):
        # Keys left out of the config and the flags take their defaults
        # (t_late 5); a flag overrides the config.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"scheduler_kind": "two_stage",
                                      "t_early": 30, "ar_steps": 6}))
        code, out, _ = run_cli(capsys, "schedule", "--config", str(config))
        assert code == 0
        values = [int(r.split(",")[1]) for r in out.strip().splitlines()[1:]]
        assert values == [30, 30, 30, 5, 5, 5]
        code, out, _ = run_cli(capsys, "schedule", "--config", str(config),
                               "--t-late", "9")
        assert code == 0
        assert out.strip().splitlines()[-1] == "5,9"

    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as exc:
            main(["schedule", "--scheduler-kind", "bogus"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("flag", [
        ["--eta", "0.5"], ["--sampler", "ddpm"], ["--n-sequences", "0"],
        ["--out-dir", "x"], ["--master-seed", "1"], ["--start-index", "950"],
    ])
    def test_run_flags_are_usage_errors(self, flag):
        # schedule reads only the policy keys, so it takes no run flag that
        # it would then ignore.
        with pytest.raises(SystemExit) as exc:
            main(["schedule", *flag])
        assert exc.value.code == 2


@pytest.fixture
def base_config(tmp_path):
    cfg = {
        "schedule_kind": "linear",
        "ar_steps": 8,
        "t_early": 20,
        "t_late": 5,
        "n_sequences": 6,
        "master_seed": 3,
        "draws_per_step": 32,
        "probe_sequences": 32,
        "floor_repeats": 2,
        "mc_samples": 200000,
        "out_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path, tmp_path


class TestSimulateCommand:
    def test_outputs_and_determinism(self, capsys, base_config):
        config, tmp = base_config
        code, out, _ = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 0
        out_dir = tmp / "out"
        first = (out_dir / "tokens.csv").read_bytes()
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["n_sequences"] == 6
        code, _, _ = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 0
        assert (out_dir / "tokens.csv").read_bytes() == first

    def test_csv_shape_and_header(self, capsys, base_config):
        config, tmp = base_config
        run_cli(capsys, "simulate", "--config", str(config))
        header, rows = read_csv(tmp / "out" / "tokens.csv")
        assert header == ["seq_id", "ar_step", "position", "dim", "value"]
        assert len(rows) == 6 * 16 * 4

    def test_nfe_ratio_matches_schedule_totals(self, capsys, base_config):
        config, tmp = base_config
        run_cli(capsys, "simulate", "--config", str(config))
        summary = json.loads((tmp / "out" / "summary.json").read_text())
        linear_total = summary["nfe_per_sequence"]
        run_cli(capsys, "simulate", "--config", str(config),
                "--scheduler-kind", "constant", "--t-early", "20",
                "--out-dir", str(tmp / "out2"))
        const_total = json.loads(
            (tmp / "out2" / "summary.json").read_text())["nfe_per_sequence"]
        expected = sum(
            max(int(np.floor(20 + (5 - 20) * k / 8 + 0.5)), 1) for k in range(8))
        assert linear_total == expected
        assert const_total == 8 * 20
        assert summary["scheduled_nfe_per_sequence"] == linear_total

    def test_dirac_spec_tokens_equal_mean_field(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "schedule_kind": "linear", "ar_steps": 4, "t_early": 10,
            "t_late": 5, "n_sequences": 2, "marginal_std": 1e-6,
            "jitter": 1e-16, "out_dir": str(tmp_path / "out"),
        }))
        code, _, _ = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 0
        _, rows = read_csv(tmp_path / "out" / "tokens.csv")
        values = np.array([float(r[4]) for r in rows])
        assert np.max(np.abs(values)) < 1e-3

    def test_missing_schedule_kind_fails(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"out_dir": str(tmp_path / "out")}))
        code, _, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 1
        assert "schedule_kind" in err

    def test_unknown_config_key_fails(self, capsys, tmp_path, monkeypatch):
        # Every config key has a bad value that fails, naming the key, before
        # any output is written, on every command that reads the key.  So do
        # an unknown key, a value of the wrong type, an empty sweep list, a
        # grid start at index 0, a policy that some AR step's grid rejects,
        # a sampler knob that the sampler does not read and a file that is
        # not valid JSON (given as text; it names the file).
        assert set(BAD_CONFIG) == set(cli.DEFAULT_CONFIG) - {"out_dir"}
        config = tmp_path / "cfg.json"
        out_dir = tmp_path / "out"
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(out_dir))
        too_long = {"schedule_kind": "linear", "scheduler_kind": "two_stage",
                    "t_late": 952, "sweep_t_late": [5, 952]}
        simulate = ("simulate",)
        cases = []
        for key, (user, message, commands) in BAD_ROWS:
            assert message.startswith(f"{key}: ")
            cases.append((user, re.compile(
                rf"error: (?:AR step \d+: )?{re.escape(message)}"), commands))
        for user, message, commands in (
            ({"no_such_key": 1}, "no_such_key", simulate),
            ({"min_steps": 1}, "error: config: unknown keys ['min_steps']",
             ("schedule", *_RUNS)),
            ({"clamp": 1.0}, "error: config: unknown keys ['clamp']",
             ("schedule", *_ALL)),
            ({"grid_height": "4"}, "error: grid_height: ", simulate),
            ({"schedule_kind": "linear", "sweep_t_early": []},
             "error: sweep_t_early: ", ("sweep",)),
            ({"schedule_kind": "linear", "sweep_t_late": []},
             "error: sweep_t_late: ", ("sweep",)),
            ({**_LINEAR, "token_dim": 1, "joint_sequences": 1},
             "error: joint_sequences: a joint-moment run needs at least 2 draws",
             ("sweep",)),
            ({"schedule_kind": "linear", "start_index": 0},
             "error: AR step 0: start_index: must lie in [1, ",
             ("simulate", "diagnose", "sweep")),
            (too_long, "error: AR step 8: num_steps: must lie in [1, start_index + 1]",
             ("simulate", "diagnose", "sweep")),
            ({**_LINEAR, "sampler": "ddpm", "eta": 0.5},
             "error: eta: only ddim reads it, not ddpm", _RUNS),
            ({**_LINEAR, "sampler": "ddim", "solver_order": 2},
             "error: solver_order: only dpm_solver reads it, not ddim", _RUNS),
            ({**_LINEAR, "sampler": "ddim", "sde_noise_scale": 0.25},
             "error: sde_noise_scale: only euler_maruyama reads it, not ddim", _RUNS),
            ({"sampler": "euler_flow", "sde_noise_scale": 3.0},
             "error: sde_noise_scale: only euler_maruyama reads it, not euler_flow",
             simulate),
            ('{"schedule_kind": "linear",',
             f"error: config: {config}: Expecting property name enclosed in "
             "double quotes: ", ("schedule", *_ALL)),
        ):
            cases.append((user, re.compile(re.escape(message)), commands))
        for user, message, commands in cases:
            config.write_text(user if isinstance(user, str)
                              else json.dumps({**user, "out_dir": str(out_dir)}))
            for command in commands:
                code, _, err = run_cli(capsys, command, "--config", str(config))
                assert code == 1, (user, command)
                assert message.search(err), (user, command, err)
                assert not out_dir.exists()

    def test_non_finite_value_fails_before_output(self, capsys, tmp_path):
        # json reads NaN and Infinity, and 1e400 as inf; NaN passes every
        # minimum.  Each is refused, from the file or a flag, naming its key,
        # before any output exists.
        config = tmp_path / "cfg.json"
        out_dir = tmp_path / "out"
        ddim = '"sampler": "ddim", "schedule_kind": "linear"'
        sde = '"sampler": "euler_maruyama"'
        for body, flags, key in (
            (f'{ddim}, "eta": NaN', (), "eta"),
            (ddim, ("--eta", "nan"), "eta"),
            (f'{sde}, "sde_noise_scale": NaN', (), "sde_noise_scale"),
            (sde, ("--sde-noise-scale", "inf"), "sde_noise_scale"),
            (f'{ddim}, "length_scale": NaN', (), "length_scale"),
            (f'{ddim}, "marginal_std": NaN', (), "marginal_std"),
            (f'{ddim}, "jitter": Infinity', (), "jitter"),
            (f'{ddim}, "jitter": 1e400', (), "jitter"),
            ('"schedule_kind": "cosine", "cosine_offset": NaN', (), "cosine_offset"),
        ):
            config.write_text(f'{{{body}, "out_dir": {json.dumps(str(out_dir))}}}')
            code, out, err = run_cli(capsys, "simulate", "--config", str(config),
                                     *flags)
            assert code == 1, (body, flags)
            assert err.startswith(f"error: {key}: must be finite, got "), err
            assert out == ""
            assert not out_dir.exists()

    @pytest.mark.parametrize("text", ["[]", "null", '"abc"', "4"])
    def test_config_that_is_not_an_object_fails(self, capsys, tmp_path,
                                                monkeypatch, text):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "out"))
        for command in ("schedule", *_ALL):
            code, out, err = run_cli(capsys, command, "--config", str(config))
            assert code == 1
            assert err == f"error: config: expected a JSON object, got {text}\n"
            assert out == ""
            assert not (tmp_path / "out").exists()

    def test_singular_covariance_fails_before_output(self, capsys, tmp_path):
        # A near-constant field with almost no jitter is not positive
        # definite; every command stops before writing, naming both keys.
        # The conditioning plan's factorisation is the check, oracle-check's
        # too.
        config = tmp_path / "cfg.json"
        out_dir = tmp_path / "out"
        config.write_text(json.dumps({
            "grid_height": 3, "grid_width": 3, "ar_steps": 9,
            "sampler": "euler_flow", "length_scale": 1e6, "jitter": 1e-18,
            "out_dir": str(out_dir)}))
        for command in ("simulate", "diagnose", "sweep", "oracle-check"):
            code, out, err = run_cli(capsys, command, "--config", str(config))
            assert code == 1
            assert "error: length_scale/jitter: AR step " in err
            assert out == ""
            assert not out_dir.exists()

    def test_runtime_error_exit_code(self, capsys, base_config):
        config, _ = base_config
        code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                               "--t-early", "1000")
        assert code == 1
        assert "AR step" in err

    def test_a_walk_that_is_not_finite_fails(self, capsys, tmp_path):
        # At noise scale 1e3 the default field's Euler-Maruyama walk
        # overflows at AR step 8, a 28-step grid.  The run stops there,
        # naming it, and writes no tokens.csv (it used to write nan and inf).
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sampler": "euler_maruyama",
                                      "sde_noise_scale": 1e3,
                                      "out_dir": str(tmp_path / "out")}))
        with np.errstate(over="ignore", invalid="ignore"):
            code, _, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 1
        assert err == ("error: AR step 8: euler_maruyama: the walk's state is not "
                       "finite after 28 calls on a 28-step grid\n")
        assert not (tmp_path / "out" / "tokens.csv").exists()

    def test_tokens_csv_reads_back_exactly(self, capsys, tmp_path):
        # A small run shaped like the wide_batch benchmark (4x4 field, flow
        # SDE): tokens.csv holds exactly the values of simulate_sequences.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "sampler": "euler_maruyama", "n_sequences": 64,
            "out_dir": str(tmp_path / "out")}))
        assert run_cli(capsys, "simulate", "--config", str(config))[0] == 0
        cfg = cli.load_config(str(config), {})
        spec = cli.build_spec(cfg)
        order = cli.build_order(cfg, spec)
        sampler_config = cli.build_sampler_config(cfg)
        grids = step_grids(sampler_config, cli.build_scheduler(cfg),
                           flow_start_time=cfg["flow_start_time"])
        batch = simulate_sequences(
            conditioning_plan(spec, order), sampler_config, grids,
            n_sequences=64, master_seed=cfg["master_seed"])
        _, rows = read_csv(tmp_path / "out" / "tokens.csv")
        cells = [[int(x) for x in r[:4]] for r in rows]
        step_of = {p: k for k, group in enumerate(order.groups()) for p in group}
        assert cells == [[s, step_of[p], p, j]
                         for s in range(64) for p in range(16) for j in range(4)]
        values = np.array([float(r[4]) for r in rows]).reshape(batch.values.shape)
        np.testing.assert_array_equal(values, batch.values)

    def test_csv_workers_are_reaped(self, capsys, base_config, monkeypatch):
        # tokens.csv is formatted in forked workers, one sequence range per
        # CPU; none outlives the run.
        config, tmp = base_config
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        assert run_cli(capsys, "simulate", "--config", str(config))[0] == 0
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert len(read_csv(tmp / "out" / "tokens.csv")[1]) == 6 * 16 * 4

    @pytest.mark.parametrize("failing", [0, 4])
    def test_failed_formatting_writes_no_tokens(self, capsys, base_config,
                                                monkeypatch, failing):
        # The 6 sequences split 0-1, 2-3 and 4-5.  A worker's failure (range
        # 4-5) is raised in the CLI naming its sequences; a failure in the
        # CLI's own range (0-1) is raised as it is.  Either way every worker
        # is reaped and no tokens.csv is written.
        config, tmp = base_config
        blocks = generate._csv_blocks

        def fail_one_range(template, values, first, last):
            if first == failing:
                raise ValueError("formatting refused")
            return blocks(template, values, first, last)

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(generate, "_csv_blocks", fail_one_range)
        code, _, err = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert not (tmp / "out" / "tokens.csv").exists()
        if failing:
            assert err.startswith("error: tokens.csv: formatting sequences 4-5 failed")
            assert err.rstrip().endswith("ValueError: formatting refused")
        else:
            assert err == "error: formatting refused\n"

    @pytest.mark.parametrize("death", ["raises", "killed"])
    def test_worker_failing_halfway_writes_no_tokens(self, capsys, base_config,
                                                     monkeypatch, death):
        # 30 sequences split 0-9, 10-19 and 20-29.  The worker of 10-19 fails
        # halfway through its range, after writing about 9 KB of its text,
        # more than its file's buffer holds: by an error, or killed by
        # SIGKILL.  The CLI names the sequences and the error or the signal,
        # with none of that text, writes no tokens.csv, and leaves no child
        # and no open descriptor.
        config, tmp = base_config
        blocks = generate._csv_blocks

        def fail_halfway(template, values, first, last):
            if first != 10:
                return blocks(template, values, first, last)

            def halfway():
                yield from blocks(template, values, first, first + 5)
                if death == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                raise ValueError("formatting refused")
            return halfway()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(generate, "_csv_blocks", fail_halfway)
        fds = open_fd_count()
        code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                               "--n-sequences", "30")
        assert code == 1
        assert err == ("error: tokens.csv: formatting sequences 10-19 failed in a "
                       + ("worker (exit code -9)\n" if death == "killed" else
                          "worker (exit code 1): ValueError: formatting refused\n"))
        assert not (tmp / "out" / "tokens.csv").exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_fd_count() == fds

    def test_env_var_out_dir(self, capsys, tmp_path, monkeypatch):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "schedule_kind": "linear", "ar_steps": 4, "t_early": 10,
            "t_late": 5, "n_sequences": 2}))
        monkeypatch.setenv("STEPANNEAL_OUT", str(tmp_path / "envout"))
        code, _, _ = run_cli(capsys, "simulate", "--config", str(config))
        assert code == 0
        assert (tmp_path / "envout" / "tokens.csv").exists()

    def test_effective_config_echo(self, capsys, base_config):
        config, tmp = base_config
        run_cli(capsys, "simulate", "--config", str(config), "--t-late", "7")
        eff = json.loads((tmp / "out" / "effective_config.json").read_text())
        assert eff["t_late"] == 7
        header_line = (tmp / "out" / "tokens.csv").read_text().splitlines()[0]
        assert eff["config_hash"] in header_line


class TestDiagnoseCommand:
    def test_outputs(self, capsys, base_config):
        config, tmp = base_config
        code, out, _ = run_cli(capsys, "diagnose", "--config", str(config))
        assert code == 0
        header, rows = read_csv(tmp / "out" / "variance.csv")
        assert header == ["ar_step", "dim", "empirical_variance",
                          "exact_variance", "draws"]
        assert len(rows) == 8 * 4
        header, rows = read_csv(tmp / "out" / "probe.csv")
        assert header == ["ar_step", "mse", "exact_mse"]
        first_mse = float(rows[0][1])
        last_mse = float(rows[-1][1])
        assert last_mse < first_mse
        header, rows = read_csv(tmp / "out" / "straightness.csv")
        assert len(rows) == 8
        assert "Spearman" in out

    def test_exact_columns_are_one_value(self, capsys, base_config):
        # variance.csv's exact_variance and probe.csv's exact_mse are the same
        # exact per-dimension variance tr(Sigma_k) / m_k, one per AR step.
        config, tmp = base_config
        assert run_cli(capsys, "diagnose", "--config", str(config))[0] == 0
        _, var_rows = read_csv(tmp / "out" / "variance.csv")
        _, probe_rows = read_csv(tmp / "out" / "probe.csv")
        assert len(probe_rows) == 8
        assert [r[3] for r in var_rows] == [r[2] for r in probe_rows for _ in range(4)]


class TestSweepCommand:
    def test_grid_shape_and_nfe_column(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "schedule_kind": "linear", "ar_steps": 8, "draws_per_step": 32,
            "floor_repeats": 2, "scheduler_kind": "linear",
            "sweep_t_early": [20], "sweep_t_late": [5, 10, 15, 20],
            "out_dir": str(tmp_path / "out"),
        }))
        code, _, _ = run_cli(capsys, "sweep", "--config", str(config))
        assert code == 0
        header, rows = read_csv(tmp_path / "out" / "sweep.csv")
        assert header == ["scheduler", "kind", "t_early", "t_late", "ar_step",
                          "nfe", "w2", "w2_floor"]
        assert len(rows) == 4 * 8
        _, srows = read_csv(tmp_path / "out" / "sweep_summary.csv")
        totals = [int(r[4]) for r in srows]
        assert totals == sorted(totals)
        assert all(b > a for a, b in zip(totals, totals[1:]))

    def test_constant_policy_runs_once(self, capsys, tmp_path):
        # A constant rule reads no t_late, so the default sweep_t_late list
        # states one policy, run once with t_late = t_early.  Common random
        # numbers make its rows those of the same T(k) = 50 under any label:
        # here a two-stage 50 -> 50 policy swept alone.
        def sweep(name, *argv):
            out = tmp_path / name
            code, _, err = run_cli(capsys, "sweep", "--schedule-kind", "linear",
                                   "--out-dir", str(out), *argv)
            assert code == 0, err
            return (read_csv(out / "sweep.csv")[1],
                    read_csv(out / "sweep_summary.csv")[1])

        rows, summaries = sweep("constant", "--scheduler-kind", "constant")
        assert [s[:5] for s in summaries] == [
            ["constant_50", "constant", "50", "50", "800"]]
        assert len(rows) == 16
        assert all(r[:4] == ["constant_50", "constant", "50", "50"] for r in rows)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"sweep_t_late": [50]}))
        same_rows, same_summaries = sweep("two_stage", "--config", str(config),
                                          "--scheduler-kind", "two_stage")
        assert [r[4:] for r in rows] == [r[4:] for r in same_rows]
        assert summaries[0][4:] == same_summaries[0][4:]

    def test_repeated_list_entry_runs_once(self, capsys, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "schedule_kind": "linear", "draws_per_step": 8, "floor_repeats": 1,
            "sweep_t_early": [50, 50], "sweep_t_late": [5, 5],
            "out_dir": str(tmp_path / "out"),
        }))
        assert run_cli(capsys, "sweep", "--config", str(config))[0] == 0
        _, summaries = read_csv(tmp_path / "out" / "sweep_summary.csv")
        assert [s[:4] for s in summaries] == [["linear_50_5", "linear", "50", "5"]]
        _, rows = read_csv(tmp_path / "out" / "sweep.csv")
        assert len(rows) == 16


def test_outputs_same_at_any_cpu_count(capsys, tmp_path, monkeypatch):
    # sweep draws its W2 floors in a worker, whose generator seeds the
    # joint-moment runs; diagnose runs in one process.  Every byte is the
    # same at 1, 2 and 3 CPUs; diagnose never forks, and on one CPU nothing
    # does.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "schedule_kind": "linear", "ar_steps": 4, "n_sequences": 8,
        "draws_per_step": 16, "t_draws": 8, "probe_sequences": 8,
        "floor_repeats": 2, "joint_sequences": 16, "sweep_t_late": [5, 25],
    }))
    fork, forks = os.fork, []

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    outputs = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        out = tmp_path / str(cpus)
        fds = open_fd_count()
        for command, forked in (("diagnose", 0), ("sweep", int(cpus > 1))):
            forks[:] = []
            code, _, err = run_cli(capsys, command, "--config", str(config),
                                   "--out-dir", str(out))
            assert code == 0, err
            assert len(forks) == forked, command
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_fd_count() == fds
        outputs[cpus] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert len(outputs[1]) == 6
    assert outputs[2] == outputs[1] and outputs[3] == outputs[1]
    _, summaries = read_csv(out / "sweep_summary.csv")
    assert all(0.0 < float(s[7]) < 1.0 for s in summaries)


@pytest.mark.parametrize("sampler,noisy", [
    ({"sampler": "ddpm"}, True), ({"sampler": "ddim", "eta": 0.5}, True),
    ({"sampler": "euler_maruyama"}, True), ({"sampler": "ddim"}, False),
    ({"sampler": "euler_flow"}, False)])
def test_simulate_same_at_any_cpu_count(capsys, tmp_path, monkeypatch, sampler,
                                        noisy):
    # A sampler that draws noise at its transitions draws it ahead in one
    # thread per run when it may use two CPUs.  Every byte is the same at 1,
    # 2 and 3 CPUs; no thread starts on one CPU or for a deterministic
    # sampler, and none is alive when tokens.csv forks or after the run.
    # 2000 sequences of 4 values make blocks that straddle the noise chunks.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "schedule_kind": "linear", "ar_steps": 4, "n_sequences": 2000, **sampler}))
    alive, fork, forks = threading.active_count(), os.fork, []

    def checked_fork():
        forks.append(threading.active_count())
        return fork()

    monkeypatch.setattr(os, "fork", checked_fork)
    starts = count_thread_starts(monkeypatch)
    outputs = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        out = tmp_path / str(cpus)
        starts[:], forks[:] = [], []
        code, _, err = run_cli(capsys, "simulate", "--config", str(config),
                               "--out-dir", str(out))
        assert code == 0, err
        assert len(starts) == int(noisy and cpus > 1)
        assert forks == [alive] * (cpus - 1)
        assert threading.active_count() == alive
        outputs[cpus] = {path.name: path.read_bytes() for path in out.iterdir()}
    assert sorted(outputs[1]) == ["effective_config.json", "summary.json", "tokens.csv"]
    assert outputs[2] == outputs[1] and outputs[3] == outputs[1]


# Runs diagnose or sweep (argv[3], in the output directory argv[4]) on
# argv[2] CPUs with the failures of case argv[1], and prints a JSON object:
# the exit code, the error text, the files written, whether a child of this
# process is left and whether every descriptor opened was closed.
_FAILING_JOB = """
import contextlib, io, json, os, signal, sys, time
from stepanneal import cli, diagnostics

case, cpus, command, out = sys.argv[1], int(sys.argv[2]), sys.argv[3], sys.argv[4]
os.sched_getaffinity = lambda pid: set(range(cpus))

def refuse(what, wait=0.0):
    def refused(*args, **kwargs):
        time.sleep(wait)
        raise ValueError(f"{what} refused")
    return refused

def killed(*args, **kwargs):
    os.kill(os.getpid(), signal.SIGKILL)

if case in ("straightness", "both"):
    cli.straightness_by_step = refuse("straightness")
if case == "killed":
    diagnostics.w2_floor = killed
if case in ("variance", "both"):
    cli.sampling_variance = refuse("variance")
if case == "floor":
    diagnostics.w2_floor = refuse("floor")
if case == "walk":
    # The floors are still running, and would fail, when a walk fails.
    diagnostics.w2_floor = refuse("floor", wait=30.0)
    diagnostics.sample_with_config = refuse("walk")
fds = len(os.listdir("/proc/self/fd"))
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = cli.main([command, "--schedule-kind", "linear", "--ar-steps", "4",
                     "--draws-per-step", "8", "--out-dir", out])
try:
    os.waitpid(-1, os.WNOHANG)
    child_left = True
except ChildProcessError:
    child_left = False
print(json.dumps({"code": code, "error": err.getvalue(),
                  "files": sorted(os.listdir(out)), "child_left": child_left,
                  "fds_closed": len(os.listdir("/proc/self/fd")) == fds}))
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
@pytest.mark.parametrize("case,command,error", [
    ("straightness", "diagnose", "straightness refused"),
    ("variance", "diagnose", "variance refused"),
    ("both", "diagnose", "straightness refused"),
    ("floor", "sweep", "W2 floors failed in a worker (exit code 1): "
                       "ValueError: floor refused"),
    ("killed", "sweep", "W2 floors failed in a worker (exit code -9)"),
    ("walk", "sweep", None),
])
def test_failing_job_fails_as_in_sequence(tmp_path, case, command, error):
    # A job fails in a worker (a floor, or the floors' worker killed), in
    # this process while a worker runs (a walk), or in diagnose, which runs
    # in one process (straightness, sampling_variance, or both).  The run
    # exits 1 with the failure that comes first in the sequential order,
    # which one CPU runs, and writes the files that order writes:
    # straightness.csv only when straightness succeeded.  A worker failure's
    # text is the one-CPU error's, after the job and exit code.  No child
    # and no descriptor is left.  Each run is its own session, so a hang is
    # killed whole after the timeout.
    def run(cpus):
        out = tmp_path / str(cpus)
        proc = subprocess.Popen(
            [sys.executable, "-c", _FAILING_JOB, case, str(cpus), command, str(out)],
            env=package_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        started = time.monotonic()
        try:
            stdout, stderr = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(f"{case} on {cpus} CPUs: still running after 60 s")
        assert proc.returncode == 0, stderr
        result = json.loads(stdout.splitlines()[-1])
        assert result["code"] == 1 and result["error"].startswith("error: ")
        assert not result["child_left"] and result["fds_closed"]
        # The walk's failure does not wait for the floors' 30 s.
        assert time.monotonic() - started < 20.0
        files = {name: (out / name).read_bytes() for name in result["files"]}
        return result["error"][len("error: "):].rstrip("\n"), files

    error2, files2 = run(2)
    if case == "killed":
        assert files2.keys() == {"effective_config.json"}
    else:
        error1, files1 = run(1)
        assert error2.endswith(error1) and files2 == files1
    if error is not None:
        assert error2 == error
    assert ("straightness.csv" in files2) == (case == "variance")
    if case == "walk":
        assert error2.startswith("AR step ") and error2.endswith(": walk refused")


@pytest.mark.parametrize("sampler,order", [
    ("ddpm", 1), ("ddim", 1), ("dpm_solver", 1), ("dpm_solver", 2),
    ("dpm_solver_pp", 1), ("euler_flow", 1), ("euler_maruyama", 1),
])
def test_reported_nfe_equals_spent(capsys, tmp_path, monkeypatch, sampler, order):
    """summary.json, sweep.csv and sweep_summary.csv report the denoiser
    evaluations that the run actually made: a call on a stacked view of
    several conditionals evaluates each of its cells once."""
    from stepanneal.denoiser import ExactDenoiser

    spent = [0]

    def counted(method):
        def wrapper(self, x, at, cond, *row):
            lam = cond.spectrum[0]
            spent[0] += lam.size // lam.shape[-1]
            return method(self, x, at, cond, *row)
        return wrapper

    for name in ("epsilon", "score", "x0", "velocity", "flow_score",
                 "velocity_and_flow_score"):
        monkeypatch.setattr(ExactDenoiser, name, counted(getattr(ExactDenoiser, name)))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "grid_height": 2, "grid_width": 2, "ar_steps": 4,
        "schedule_kind": "linear", "sampler": sampler, "solver_order": order,
        "t_early": 6, "t_late": 2, "n_sequences": 2, "draws_per_step": 4,
        "floor_repeats": 1, "sweep_t_early": [6], "sweep_t_late": [2, 6],
        "out_dir": str(tmp_path / "out"),
    }))

    assert run_cli(capsys, "simulate", "--config", str(config))[0] == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["scheduled_nfe_per_sequence"] == summary["nfe_per_sequence"]
    assert summary["nfe_per_sequence"] == spent[0]

    spent[0] = 0
    assert run_cli(capsys, "sweep", "--config", str(config))[0] == 0
    _, rows = read_csv(tmp_path / "out" / "sweep.csv")
    _, summaries = read_csv(tmp_path / "out" / "sweep_summary.csv")
    assert sum(int(r[5]) for r in rows) == spent[0]
    assert sum(int(r[4]) for r in summaries) == spent[0]


@pytest.mark.parametrize("sampler, order", [
    ("ddim", 1), ("dpm_solver", 2), ("euler_maruyama", 1),
])
def test_simulate_builds_one_table_per_walk(capsys, tmp_path, monkeypatch, sampler,
                                            order):
    """Each sampler walk asks the oracle once for its affine rows and passes
    every call its row: no executor call recomputes the channel's
    coefficients.  A count, not a timing, so that a change that brings the
    per-call work back fails here."""
    from stepanneal.denoiser import ExactDenoiser

    calls = {"tables": 0, "with_row": 0, "rowless": 0}

    def counted_table(method):
        def wrapper(self, *args):
            calls["tables"] += 1
            return method(self, *args)
        return wrapper

    def counted_call(method):
        def wrapper(self, x, at, cond, row=None):
            calls["rowless" if row is None else "with_row"] += 1
            return method(self, x, at, cond, row)
        return wrapper

    monkeypatch.setattr(ExactDenoiser, "affine", counted_table(ExactDenoiser.affine))
    for name in ("x0", "velocity"):
        monkeypatch.setattr(ExactDenoiser, name, counted_call(getattr(ExactDenoiser, name)))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "ar_steps": 8, "schedule_kind": "linear", "sampler": sampler,
        "solver_order": order, "t_early": 9, "t_late": 3, "n_sequences": 3,
        "out_dir": str(tmp_path / "out"),
    }))
    assert run_cli(capsys, "simulate", "--config", str(config))[0] == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert calls == {"tables": 8, "with_row": summary["nfe_per_sequence"],
                     "rowless": 0}


@pytest.mark.parametrize("sampler, order", [
    ("ddim", 1), ("dpm_solver", 2), ("euler_maruyama", 1),
])
def test_simulate_does_grid_and_plan_work_once(capsys, tmp_path, monkeypatch,
                                               sampler, order):
    """Work that does not depend on the samples runs once per command: one
    ``eigh`` per distinct group size (25 positions in 7 AR steps: groups of 4
    and 3), and each rule listed once per distinct grid, not per walk.
    Counts, not timings."""
    from stepanneal import samplers

    eighs, rules = [0], [0]
    eigh = np.linalg.eigh

    def counted_eigh(a):
        eighs[0] += 1
        return eigh(a)

    def counted_rule(rule):
        def wrapper(*args):
            rules[0] += 1
            return rule(*args)
        return wrapper

    monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
    monkeypatch.setattr(samplers, "_RULES", {
        kind: counted_rule(rule) for kind, rule in samplers._RULES.items()})
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "grid_height": 5, "grid_width": 5, "ar_steps": 7,
        "schedule_kind": "linear", "sampler": sampler, "solver_order": order,
        "t_early": 9, "t_late": 3, "n_sequences": 3, "out_dir": str(tmp_path / "out"),
    }))
    assert run_cli(capsys, "simulate", "--config", str(config))[0] == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert eighs[0] == 2
    assert rules[0] == len(set(summary["step_counts"])) < len(summary["step_counts"])


def test_plan_leaves_the_natural_order_covariance_unbuilt():
    # The plan gathers its covariance in generation order, so the spec's
    # n x n natural-order matrix is built only for the code that reads it.
    spec = stepanneal.TokenProcessSpec(grid_height=6, grid_width=5)
    plan = conditioning_plan(spec, stepanneal.random_order(spec, 6, seed=1))
    cfg = stepanneal.SamplerConfig("ddim")
    grids = step_grids(cfg, stepanneal.StepScheduler(
        kind="linear", t_early=9, t_late=3, ar_steps=6), stepanneal.build_linear_beta())
    simulate_sequences(plan, cfg, grids, n_sequences=2, master_seed=0)
    assert "covariance" not in spec.__dict__
    assert spec.covariance.shape == (30, 30)
    assert "covariance" in spec.__dict__


# Values of each config key's type that is not its type (for a float key:
# also NaN and the infinities), drawn for the property test below.
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_TEXT = st.text(max_size=4)


@st.composite
def _bad_setting(draw):
    key = draw(st.sampled_from(sorted(cli.DEFAULT_CONFIG)))
    kind = cli._NULLABLE.get(key, type(cli.DEFAULT_CONFIG[key]))
    other = [st.booleans(), st.dictionaries(_TEXT, st.integers(), min_size=1,
                                            max_size=1)]
    if key not in cli._NULLABLE:
        other.append(st.none())
    if kind is not str:
        other += [_TEXT, st.lists(_TEXT, min_size=1, max_size=2)]
    if kind is not float:
        other.append(st.floats(allow_nan=False, allow_infinity=False))
    if kind in (str, list):  # an int is a valid float
        other.append(st.integers(-10**6, 10**6))
    if kind is list:  # a list of int: a float in it is wrong too
        other.append(st.lists(st.floats(), min_size=1, max_size=2))
    return key, draw(st.one_of(_NON_FINITE, *other))


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(setting=_bad_setting())
def test_bad_setting_fails_every_command_first(capsys, tmp_path, monkeypatch,
                                               setting):
    # One config key set to a value of the wrong type, or to a float that is
    # not finite, makes every command exit 1, naming the key, before any
    # output directory exists.
    key, value = setting
    out_dir = tmp_path / "out"
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(out_dir))
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"out_dir": str(out_dir), key: value}))
    for command in ("schedule", *_ALL):
        code, out, err = run_cli(capsys, command, "--config", str(config))
        assert code == 1, (command, key, value)
        assert err.startswith(f"error: {key}: "), (command, err)
        assert out == ""
        assert not out_dir.exists()


@st.composite
def _valid_config(draw):
    # A small valid config: every sampler with only the knobs it reads, the
    # noise schedule keys on diffusion samplers only, T(k) <= 8 and a start
    # index whose grid holds 8 distinct indices.
    height, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    sampler = draw(st.sampled_from(stepanneal.SAMPLER_KINDS))
    cfg = {
        "grid_height": height, "grid_width": width,
        "token_dim": draw(st.integers(1, 3)),
        "kernel": draw(st.sampled_from(["rbf", "ar1"])),
        "length_scale": draw(st.floats(0.3, 2.0)),
        "marginal_std": draw(st.floats(0.1, 3.0)),
        "order_kind": draw(st.sampled_from(["raster", "random"])),
        "ar_steps": draw(st.integers(1, height * width)),
        "sampler": sampler,
        "scheduler_kind": draw(st.sampled_from(stepanneal.SCHEDULER_KINDS)),
        "t_early": draw(st.integers(1, 8)),
        "t_late": draw(st.integers(1, 8)),
        "n_sequences": draw(st.integers(1, 3)),
        "master_seed": draw(st.integers(0, 2**32 - 1)),
    }
    if cfg["order_kind"] == "random":
        cfg["order_seed"] = draw(st.integers(0, 2**32 - 1))
    if sampler == "ddim":
        cfg["eta"] = draw(st.floats(0.0, 1.0))
    if sampler == "dpm_solver":
        cfg["solver_order"] = draw(st.sampled_from([1, 2]))
    if sampler == "euler_maruyama":
        cfg["sde_noise_scale"] = draw(st.floats(0.0, 2.0))
    if sampler in stepanneal.FLOW_SAMPLERS:
        cfg["flow_start_time"] = draw(st.floats(0.05, 1.0))
        return cfg
    base = draw(st.integers(9, 1000))
    cfg["base_step_count"] = base
    cfg["start_index"] = draw(st.none() | st.integers(8, base - 1))
    cfg["schedule_kind"] = draw(st.sampled_from(stepanneal.SCHEDULE_KINDS))
    if cfg["schedule_kind"] == "linear":
        cfg["beta_start"] = draw(st.floats(1e-5, 1e-3))
        cfg["beta_end"] = draw(st.floats(1e-3, 0.05))
    else:
        cfg["cosine_offset"] = draw(st.floats(0.0, 0.05))
    return cfg


@settings(max_examples=150, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_valid_config())
def test_valid_config_simulates(capsys, tmp_path, cfg):
    # Any valid small config runs, and summary.json's NFE per sequence is
    # the calls table summed over the policy's T(k): one call per step, 2T - 1
    # for the order-2 midpoint solver.
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({**cfg, "out_dir": str(tmp_path / "out")}))
    code, _, err = run_cli(capsys, "simulate", "--config", str(config))
    assert code == 0, err
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    scheduler = cli.build_scheduler({**cli.DEFAULT_CONFIG, **cfg})
    steps = [t for _, t in stepanneal.schedule_table(scheduler)]
    midpoint = cfg["sampler"] == "dpm_solver" and cfg["solver_order"] == 2
    assert summary["step_counts"] == steps
    assert summary["nfe_per_sequence"] == sum(2 * t - 1 if midpoint else t
                                              for t in steps)


@settings(max_examples=100, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=_valid_config(),
       t_early=st.lists(st.integers(1, 8), min_size=1, max_size=3),
       t_late=st.lists(st.integers(1, 8), min_size=1, max_size=3),
       kind=st.sampled_from(stepanneal.SCHEDULER_KINDS))
def test_valid_config_sweeps(capsys, tmp_path, cfg, t_early, t_late, kind):
    # Any valid small sweep runs each distinct policy once (a constant policy
    # with t_late = t_early), with ar_steps rows each, and its total NFE is
    # the calls table summed over the policy's T(k).
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        **cfg, "scheduler_kind": kind, "sweep_t_early": t_early,
        "sweep_t_late": t_late, "draws_per_step": 2, "floor_repeats": 1,
        "out_dir": str(tmp_path / "out"),
    }))
    code, _, err = run_cli(capsys, "sweep", "--config", str(config))
    assert code == 0, err
    _, rows = read_csv(tmp_path / "out" / "sweep.csv")
    _, summaries = read_csv(tmp_path / "out" / "sweep_summary.csv")
    policies = {(te, te if kind == "constant" else tl)
                for te in t_early for tl in t_late}
    assert sorted((int(s[2]), int(s[3])) for s in summaries) == sorted(policies)
    assert len({s[0] for s in summaries}) == len(summaries)
    assert len(rows) == len(summaries) * cfg["ar_steps"]
    midpoint = cfg["sampler"] == "dpm_solver" and cfg["solver_order"] == 2
    for s in summaries:
        assert s[1] == kind
        scheduler = stepanneal.StepScheduler(kind, int(s[2]), int(s[3]),
                                             cfg["ar_steps"])
        steps = [t for _, t in stepanneal.schedule_table(scheduler)]
        assert int(s[4]) == sum(2 * t - 1 if midpoint else t for t in steps)


class TestOracleCheckCommand:
    def test_passes_on_default_spec(self, capsys, base_config):
        config, _ = base_config
        code, out, _ = run_cli(capsys, "oracle-check", "--config", str(config))
        assert code == 0
        checks = [line for line in out.splitlines() if line.startswith("[")]
        assert [re.sub(r" \(.*\)$", "", line) for line in checks] == [
            "[PASS] score finite-difference",
            "[PASS] conditional moments vs MC regression",
            "[PASS] conditioning tightens",
        ]
        assert "all checks passed" in out

    def test_factors_the_field_twice(self, capsys, base_config, monkeypatch):
        # The plan of (observed, targets, rest) gives the checked conditional
        # and the exact regression; a second plan gives the conditional on
        # fewer positions.  The Monte Carlo draws factor only the 9 positions
        # the regression reads.
        shapes = []

        def counted(a):
            shapes.append(a.shape)
            return cholesky(a)

        cholesky = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", counted)
        config, _ = base_config
        assert run_cli(capsys, "oracle-check", "--config", str(config))[0] == 0
        assert sorted(shapes) == [(9, 9), (16, 16), (16, 16)]

    def test_big_field_draws_only_the_regressed_positions(self, capsys, tmp_path):
        # On the 32 x 32 field, 10^5 draws of all 1024 positions would take
        # 0.8 GB alone; the 9 regressed positions take 7 MB.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"grid_height": 32, "grid_width": 32,
                                      "mc_samples": 100_000}))
        tracemalloc.start()
        try:
            code, out, _ = run_cli(capsys, "oracle-check", "--config", str(config))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, out
        assert peak < 100 * 2**20

    def test_reads_no_noise_schedule_key(self, capsys, base_config):
        # No check runs a sampler or builds a generation order, so a grid
        # start, a schedule or an order seed that a diffusion run would refuse
        # does not matter here.
        config, _ = base_config
        cfg = json.loads(config.read_text())
        config.write_text(json.dumps({
            **cfg, "start_index": 0, "schedule_kind": None, "cosine_offset": -0.1,
            "order_seed": -1}))
        code, out, _ = run_cli(capsys, "oracle-check", "--config", str(config))
        assert code == 0
        assert "all checks passed" in out

    def test_corrupted_score_fails(self, capsys, base_config):
        config, _ = base_config
        code, out, _ = run_cli(capsys, "oracle-check", "--config", str(config),
                               "--corrupt-score")
        assert code == 1
        assert "[FAIL] score finite-difference" in out

    def test_weights_off_by_five_hundredths_fail(self, capsys, base_config,
                                                 monkeypatch):
        # Negative control of the moment check's Bonferroni bound: exact
        # weights shifted by 0.05 must still fail at the default 10^6 draws.
        config, _ = base_config
        cfg = json.loads(config.read_text())
        config.write_text(json.dumps({**cfg, "mc_samples": 1000000}))
        solver = cli.conditional_solver

        def shifted(*args):
            exact = solver(*args)
            return dataclasses.replace(exact, weights=exact.weights + 0.05)

        monkeypatch.setattr(cli, "conditional_solver", shifted)
        code, out, _ = run_cli(capsys, "oracle-check", "--config", str(config))
        assert code == 1
        assert "[FAIL] conditional moments vs MC regression" in out
        assert "[PASS] score finite-difference" in out

    @pytest.mark.parametrize("samples", [0, 999])
    def test_too_few_mc_samples_fails_first(self, capsys, base_config, samples):
        # The moment regression fits 9 parameters and checks them with normal
        # 3-sigma bounds, which need many residual degrees of freedom; with
        # fewer than 1000 draws the run must stop before any check, naming
        # the key.
        config, _ = base_config
        cfg = json.loads(config.read_text())
        config.write_text(json.dumps({**cfg, "mc_samples": samples}))
        code, out, err = run_cli(capsys, "oracle-check", "--config", str(config))
        assert code == 1
        assert f"error: mc_samples: must be >= 1000, got {samples}" in err
        assert "[FAIL]" not in out

    def test_too_few_positions_fails_first(self, capsys, base_config):
        # 8 observed positions and 1 regression target need a 9-position
        # field; a 2x2 field must stop before any check, naming the keys.
        config, _ = base_config
        cfg = json.loads(config.read_text())
        config.write_text(json.dumps({**cfg, "grid_height": 2, "grid_width": 2}))
        code, out, err = run_cli(capsys, "oracle-check", "--config", str(config))
        assert code == 1
        assert "error: grid_height/grid_width: oracle-check needs at least 9" in err
        assert "[FAIL]" not in out
