import argparse
import json
import math
import os
import re
import subprocess
import sys
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


def test_override_flags_are_config_keys():
    # Only dests that are config keys become overrides, so a misspelt key
    # would be dropped silently.  Every flag in the table is some command's.
    assert set(cli._FLAGS) <= set(cli.DEFAULT_CONFIG)
    assert {key for _, _, keys in cli._COMMANDS.values() for key in keys} == set(
        cli._FLAGS)
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
    for command, sub in commands.items():
        dests = {action.dest for action in sub._actions} - {
            "help", "config", "corrupt_score"}
        assert dests == {key for key in cli._FLAGS if command in readers[key]}, command


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


@pytest.mark.parametrize("command, policies", [
    ("simulate", 1), ("diagnose", 1), ("sweep", 2),
])
def test_each_policy_builds_its_grids_once(capsys, tmp_path, monkeypatch,
                                           command, policies):
    # A command builds each policy's grids once, one per AR step, and the
    # generation order's conditioning plan once, and hands them to generation
    # and the diagnostics (the sweep's joint run too).  Counting every
    # Cholesky factorisation as well shows that nothing else factors the
    # covariance.
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
    assert calls == {"grids": 4 * policies, "plans": 1, "factorisations": 1}


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

    def test_unknown_config_key_fails(self, capsys, tmp_path):
        # Every config key has a bad value that fails, naming the key, before
        # any output is written, on every command that reads the key.  So do
        # an unknown key, a value of the wrong type, an empty sweep list, a
        # grid start at index 0, a policy that some AR step's grid rejects
        # and a sampler knob that the sampler does not read.
        assert set(BAD_CONFIG) == set(cli.DEFAULT_CONFIG) - {"out_dir"}
        config = tmp_path / "cfg.json"
        out_dir = tmp_path / "out"
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
        ):
            cases.append((user, re.compile(re.escape(message)), commands))
        for user, message, commands in cases:
            config.write_text(json.dumps({**user, "out_dir": str(out_dir)}))
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


@pytest.mark.parametrize("sampler,order", [
    ("ddpm", 1), ("ddim", 1), ("dpm_solver", 1), ("dpm_solver", 2),
    ("dpm_solver_pp", 1), ("euler_flow", 1), ("euler_maruyama", 1),
])
def test_reported_nfe_equals_spent(capsys, tmp_path, monkeypatch, sampler, order):
    """summary.json, sweep.csv and sweep_summary.csv report the denoiser
    calls that the run actually made."""
    from stepanneal.denoiser import ExactDenoiser

    spent = [0]

    def counted(method):
        def wrapper(*args, **kwargs):
            spent[0] += 1
            return method(*args, **kwargs)
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

    @pytest.mark.parametrize("samples", [0, 9])
    def test_too_few_mc_samples_fails_first(self, capsys, base_config, samples):
        # The moment regression fits 9 parameters; with fewer than 10 draws
        # the run must stop before any check, naming the key.
        config, _ = base_config
        cfg = json.loads(config.read_text())
        config.write_text(json.dumps({**cfg, "mc_samples": samples}))
        code, out, err = run_cli(capsys, "oracle-check", "--config", str(config))
        assert code == 1
        assert f"error: mc_samples: must be >= 10, got {samples}" in err
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
