"""Closed-loop benchmark of the stepanneal CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client runs one pass at a time, each pass a fresh child process
(bench/child.py) on a config generated from the seed (bench/workloads.py),
until S seconds have passed and at least MIN_PASSES passes ran.  Every pass's
outputs are checked, and the outputs of all passes of a run must be
byte-identical.  With ``--trace 1`` the passes alternate untraced and traced;
the traced ones give the per-layer metrics (bench/spans.py) and the
difference of the two medians is the tracing overhead.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones).  Every metric is a median over the run's passes.  Metric
definitions are in bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import spans as spanlib
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
# One BLAS thread: no greater than nproc on any machine, and the steadiest
# timing on a small shared one.
BLAS_THREADS = 1
MIN_PASSES = 3
# The calibration kernel's time (bench/child.py, before plus after the pass)
# on the 2-core machine the benchmark was written on, when that machine was
# quiet, and with the Cholesky part that big_field adds, its median there.
# Set-up and pass times are scaled by the reference / calib_s, so they read as
# seconds at that speed however fast the shared host runs meanwhile.
CALIB_REF_S = 0.4
CHOLESKY_CALIB_REF_S = 0.75
# No pass starts after this many seconds, and none may run past the limit, so
# a run ends within 180 s even when a pass hangs.
LAST_START_S = 120.0
RUN_LIMIT_S = 170.0

SIMULATE_SCOPE = "generate.simulate_sequences"
SWEEP_SCOPE = "diagnostics.quality_sweep"


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def output_hashes(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


class Runner:
    """Runs and checks the passes of one workload at one seed."""

    def __init__(self, workload: str, seed: int, workdir: Path, smoke: bool = False):
        self.workload = workload
        self.cfg = workloads.config(workload, seed, smoke)
        self.workdir = workdir
        self.config_path = workdir / "config.json"
        self.config_path.write_text(json.dumps(self.cfg, indent=2, sort_keys=True))
        self.reference: dict | None = None  # output hashes of a checked pass
        self.facts: dict = {}
        self.count = 0
        self.cholesky_calibration = workloads.WORKLOADS[workload].get(
            "cholesky_calibration", False)
        self.calib_ref_s = CHOLESKY_CALIB_REF_S if self.cholesky_calibration else CALIB_REF_S

    def run_pass(self, traced: bool, timeout: float) -> dict:
        """One pass: its timings, ``errors`` (empty when every check holds)
        and, when traced, its per-layer metrics."""
        self.count += 1
        out = self.workdir / f"pass{self.count}"
        spans_path = self.workdir / f"spans{self.count}.json"
        cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(self.config_path),
               str(out), *workloads.WORKLOADS[self.workload]["commands"]]
        if traced:
            cmd += ["--spans", str(spans_path)]
        if self.cholesky_calibration:
            cmd.append("--cholesky-calibration")
        result = {"traced": traced, "errors": []}
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            result["errors"].append(f"pass timed out after {timeout:.0f} s")
            shutil.rmtree(out, ignore_errors=True)
            return result
        try:
            result.update(json.loads(proc.stdout.strip().splitlines()[-1]))
        except (IndexError, json.JSONDecodeError):
            pass
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
            result["errors"].append(f"exit code {proc.returncode}: {tail[0]}")
        elif "wall_s" not in result:
            result["errors"].append("child printed no result line")
        else:
            self._check_outputs(out, result["errors"])
            self._check_spent_nfe(result)
            if traced and not result["errors"]:
                spans = json.loads(spans_path.read_text())
                result["layers"] = self._layers(spans, result["wall_s"], result["errors"])
        shutil.rmtree(out, ignore_errors=True)
        spans_path.unlink(missing_ok=True)
        return result

    def _check_outputs(self, out: Path, errors: list[str]) -> None:
        hashes = output_hashes(out)
        if self.reference is not None:
            if hashes != self.reference:
                errors.append("outputs differ from the run's first checked pass")
            return
        found, facts = workloads.check(self.workload, self.cfg, out)
        errors.extend(found)
        if not found:
            self.reference, self.facts = hashes, facts

    def _check_spent_nfe(self, result: dict) -> None:
        """Sets the pass's ``nfe_per_sequence``: ``summary.json``'s on
        ``simulate``, and the counted calls of the pass's one generation on
        ``policy_eval``, whose diagnose writes no NFE.  Either way the calls
        the pass counted must match the calls table."""
        counted = result.get("generation_nfe", [])
        table = workloads.table_nfe_per_sequence(self.cfg)
        if counted != [table]:
            result["errors"].append(
                f"denoiser calls per generation {counted}, calls table gives [{table}]")
        elif "simulate" in workloads.WORKLOADS[self.workload]["commands"]:
            result["nfe_per_sequence"] = self.facts.get("nfe_per_sequence")
        else:
            result["nfe_per_sequence"] = counted[0]

    def _layers(self, spans, wall_s: float, errors: list[str]) -> dict:
        layers = spanlib.summarize(spans)
        # Generation's own calls are counted on every pass; on simulate the
        # pass makes no other denoiser call.
        nfe = workloads.table_nfe_per_sequence(self.cfg)
        commands = workloads.WORKLOADS[self.workload]["commands"]
        if commands == ("simulate",) and layers["denoiser.calls"] != nfe:
            errors.append(f"trace: {layers['denoiser.calls']} denoiser calls, "
                          f"nfe_per_sequence is {nfe}")
        tokens = workloads.sampled_tokens(self.workload, self.cfg)
        if layers["samplers.tokens"] != tokens:
            errors.append(f"trace: samplers drew {layers['samplers.tokens']} tokens, "
                          f"expected {tokens}")
        if layers["trace.min_self_s"] < -1e-6:
            errors.append("trace: a span's children outlast it")
        if abs(layers["trace.root_s"] - wall_s) > 0.01 * wall_s + 1e-3:
            errors.append("trace: root spans do not cover the pass")
        # Self times telescope to the root spans, so the layers' self times
        # sum to trace.root_s exactly when every span belongs to a layer.
        self_sum = sum(layers[k] for k in spanlib.LAYER_SELF_METRICS)
        if abs(self_sum - layers["trace.root_s"]) > 1e-6 * wall_s:
            errors.append("trace: the layers' self times do not sum to the pass")
        scope = SWEEP_SCOPE if "sweep" in commands else SIMULATE_SCOPE
        spent = spanlib.denoiser_calls_under(spans, scope)
        scheduled = self.facts.get("scheduled_nfe", 0)
        layers["annealing.scheduled_nfe"] = scheduled
        layers["annealing.spent_nfe"] = spent
        layers["annealing.scheduled_over_spent"] = scheduled / spent if spent else 0.0
        root = layers["trace.root_s"]
        layers["share.conditioning"] = (
            layers["process.conditional_solver_s"] + layers["process.conditional_mean_s"]
        ) / root
        layers["share.csv"] = (layers["generate.csv_rows_s"] + layers["cli.write_csv_s"]) / root
        return layers


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json lists them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def median(values) -> float:
    return statistics.median(values) if values else 0.0


def scaled(runner: Runner, passes: list[dict], key: str) -> list[float]:
    """``key`` times of the passes at the reference machine speed."""
    return [p[key] * runner.calib_ref_s / p["calib_s"] for p in passes]


def end_to_end(runner: Runner, passes: list[dict]) -> dict:
    tokens = workloads.sampled_tokens(runner.workload, runner.cfg)
    return {
        "setup_s": median(scaled(runner, passes, "setup_s")),
        "wall_s": median(scaled(runner, passes, "wall_s")),
        "tokens_per_s": median([tokens / wall for wall in scaled(runner, passes, "wall_s")]),
        "nfe_per_sequence": median([p["nfe_per_sequence"] for p in passes]),
        "peak_rss_mb": median([p["peak_rss_mb"] for p in passes]),
    }


def per_layer(passes: list[dict]) -> dict:
    traced = [p for p in passes if "layers" in p]
    untraced = [p for p in passes if not p["traced"]]
    metrics = {k: median([p["layers"][k] for p in traced])
               for k in traced[0]["layers"] if k not in spanlib.CHECK_ONLY}
    metrics["trace.traced_wall_s"] = median([p["wall_s"] for p in traced])
    metrics["trace.untraced_wall_s"] = median([p["wall_s"] for p in untraced])
    metrics["trace.overhead_s"] = (
        metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"])
    return metrics


def environment(seed: int, versions: dict) -> dict:
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS,
            "seed": seed, "src_lines": src_lines, **versions}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict | None:
    started = time.perf_counter()
    scratch = ROOT / ".bench_out"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    try:
        runner = Runner(workload, seed, workdir)
        passes: list[dict] = []
        min_passes = 2 * MIN_PASSES if trace else MIN_PASSES
        while True:
            elapsed = time.perf_counter() - started
            # Start no pass that would, at the mean pace so far, end after
            # the measuring window, once the minimum has run.
            pace = elapsed / len(passes) if passes else 0.0
            if (len(passes) >= min_passes and elapsed + pace > seconds) \
                    or elapsed > LAST_START_S:
                break
            traced = trace and len(passes) % 2 == 1
            passes.append(runner.run_pass(traced, RUN_LIMIT_S - elapsed))
            status = "; ".join(passes[-1]["errors"]) or "ok"
            print(f"pass {len(passes)}{' traced' if traced else ''}: "
                  f"wall {passes[-1].get('wall_s', float('nan')):.3f} s, "
                  f"setup {passes[-1].get('setup_s', float('nan')):.3f} s, "
                  f"calib {passes[-1].get('calib_s', float('nan')):.3f} s, {status}",
                  file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    good = [p for p in passes if not p["errors"]]
    if not good or (trace and not any("layers" in p for p in good)):
        return None
    print("env " + json.dumps(environment(seed, good[0]["versions"]), sort_keys=True))
    print("facts " + json.dumps(runner.facts, sort_keys=True))
    print("measured " + json.dumps(
        {k: median([p[k] for p in good]) for k in ("wall_s", "setup_s", "calib_s")}))
    metrics = per_layer(good) if trace else end_to_end(runner, good)
    return {
        "correct": len(good) == len(passes),
        "attempted": len(passes),
        "failed": len(passes) - len(good),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared_units(trace).items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "stepanneal" / "cli.py").is_file():
        print(f"error: no stepanneal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    if result is None:
        print("error: no pass succeeded", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
