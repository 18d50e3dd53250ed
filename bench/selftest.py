"""Self-tests of the benchmark (kept out of the package's tier-1 suite).

    python3 -m pytest -q bench/selftest.py

The smoke tests run every workload's generator and checks at reduced size,
traced and untraced.  The share tests run one traced full-size pass per
workload (about 30 s in all) and check that each workload stresses the layer
it was chosen for.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads


@pytest.fixture
def workdir():
    scratch = run.ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    yield path
    shutil.rmtree(path, ignore_errors=True)


def test_linear_rule_and_calls_table_match_the_readme():
    cfg = workloads.config("wide_batch", 0)  # linear 50 -> 5 at K=16
    assert workloads.table_nfe_per_sequence(cfg) == 463
    dpm2 = dict(cfg, sampler="dpm_solver", solver_order=2)
    assert workloads.table_nfe_per_sequence(dpm2) == 2 * 463 - 16


def test_self_time_subtracts_children():
    # root [0, 10] with children [1, 3] and [4, 8]; the second has a child [5, 6].
    trace = [
        ["cli.main", 0.0, 10.0, -1, 0],
        ["process.conditional_solver", 1.0, 3.0, 0, 6],
        ["samplers.sample_with_config", 4.0, 8.0, 0, 5],
        ["denoiser.epsilon", 5.0, 6.0, 2, 12],
    ]
    layers = spans.summarize(trace)
    assert layers["cli.self_s"] == 4.0
    assert layers["process.self_s"] == 2.0
    assert layers["samplers.self_s"] == 3.0
    assert layers["denoiser.s"] == 1.0
    assert layers["process.chol_flops"] == 6**3 / 3
    assert layers["denoiser.elems_per_call"] == 12
    assert sum(layers[k] for k in spans.LAYER_SELF_METRICS) == layers["trace.root_s"] == 10.0
    assert spans.denoiser_calls_under(trace, "samplers.sample_with_config") == 1
    assert spans.denoiser_calls_under(trace, "process.conditional_solver") == 0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_pass_traced_and_untraced(workload, workdir):
    runner = run.Runner(workload, seed=5, workdir=workdir, smoke=True)
    plain = runner.run_pass(traced=False, timeout=120)
    assert plain["errors"] == []
    traced = runner.run_pass(traced=True, timeout=120)
    # The traced pass's outputs are compared byte for byte with the untraced
    # pass's; any difference is reported as an error.
    assert traced["errors"] == []
    assert runner.reference is not None

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = run.end_to_end(runner, [plain, traced])
    assert set(e2e) == {m["name"] for m in spec["end_to_end"]}
    assert all(value > 0 for value in e2e.values())
    assert set(run.per_layer([plain, traced])) == {m["name"] for m in spec["per_layer"]}


def test_repeated_seed_gives_identical_outputs_and_other_seed_differs(workdir):
    for name in ("a", "b"):
        (workdir / name).mkdir()
    first = run.Runner("wide_batch", seed=1, workdir=workdir / "a", smoke=True)
    assert first.run_pass(False, 120)["errors"] == []
    assert first.run_pass(False, 120)["errors"] == []
    other = run.Runner("wide_batch", seed=2, workdir=workdir / "b", smoke=True)
    assert other.run_pass(False, 120)["errors"] == []
    assert other.reference["tokens.csv"] != first.reference["tokens.csv"]


def test_counted_calls_off_the_table_fail_the_pass(workdir):
    runner = run.Runner("policy_eval", seed=0, workdir=workdir)
    table = workloads.table_nfe_per_sequence(runner.cfg)
    for counted in ([table + 1], [table, table], []):
        result = {"generation_nfe": counted, "errors": []}
        runner._check_spent_nfe(result)
        assert result["errors"] and "nfe_per_sequence" not in result
    result = {"generation_nfe": [table], "errors": []}
    runner._check_spent_nfe(result)
    assert result == {"generation_nfe": [table], "errors": [], "nfe_per_sequence": table}


def test_whitened_gate_fails_broken_conditioning(workdir):
    runner = run.Runner("big_field", seed=5, workdir=workdir, smoke=True)
    out = workdir / "out"
    subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "child.py"), str(runner.config_path),
         str(out), "simulate"],
        cwd=run.ROOT, env=run.child_env(), check=True, capture_output=True, timeout=120,
    )
    assert workloads.check("big_field", runner.cfg, out)[0] == []
    path = out / "tokens.csv"
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[2:]]
    values = np.array([float(row[4]) for row in rows])
    rng = np.random.default_rng(0)
    # All zeros; iid N(0, 1) tokens, which have the right marginals but no
    # correlation; and the right correlation at half the amplitude.
    for broken in (0.0 * values, rng.standard_normal(values.shape), 0.5 * values):
        body = [",".join(row[:4] + [repr(float(v))]) for row, v in zip(rows, broken)]
        path.write_text("\n".join(lines[:2] + body) + "\n")
        errors = workloads.check("big_field", runner.cfg, out)[0]
        assert any("whitened" in e for e in errors)


SHARES = {
    # workload: (conditioning share range, CSV share range)
    "big_field": ((0.5, 1.0), (0.0, 0.15)),
    "wide_batch": ((0.0, 0.05), (0.5, 1.0)),
    "policy_eval": ((0.0, 0.05), (0.0, 0.05)),
}


@pytest.mark.parametrize("workload", sorted(SHARES))
def test_workload_stresses_its_layer(workload, workdir):
    runner = run.Runner(workload, seed=0, workdir=workdir)
    result = runner.run_pass(traced=True, timeout=150)
    assert result["errors"] == []
    layers = result["layers"]
    (cond_lo, cond_hi), (csv_lo, csv_hi) = SHARES[workload]
    assert cond_lo <= layers["share.conditioning"] <= cond_hi
    assert csv_lo <= layers["share.csv"] <= csv_hi
    diagnostics = layers["diagnostics.self_s"] / layers["trace.root_s"]
    if workload == "policy_eval":
        assert diagnostics > 0.05
        assert layers["annealing.scheduled_over_spent"] > 1.0
    else:
        assert diagnostics == 0.0
        assert layers["annealing.scheduled_over_spent"] == 1.0


def test_fails_without_the_package(workdir):
    (workdir / "bench").mkdir()
    shutil.copy(run.ROOT / "BENCHMARK.json", workdir)
    for path in run.BENCH_DIR.glob("*.py"):
        shutil.copy(path, workdir / "bench")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "big_field", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=workdir, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
