"""The benchmark's workloads: CLI configs generated from a seed, and the
checks every pass's outputs must meet.

The seed sets the generation order (``order_seed``) and the sampling stream
(``master_seed``); everything else is fixed per workload, so every seed does
the same amount of work.  ``smoke`` configs are reduced-size versions of the
same workloads for the benchmark's self-tests.

Expected values are recomputed here from the package README rather than
taken from the package: T(k) from the literal linear annealing rule, the
denoiser calls per grid from the README's calls table, and the joint
covariance from the rbf kernel definition.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg

WORKLOADS = {
    "big_field": {
        "commands": ("simulate",),
        # Conditioning is mostly large Cholesky factorisations, whose speed
        # the calibration kernel's small work does not track (bench/README.md).
        "cholesky_calibration": True,
        "config": {
            "grid_height": 32, "grid_width": 32, "token_dim": 4,
            "order_kind": "random", "ar_steps": 256,
            "schedule_kind": "linear", "start_index": 950,
            "sampler": "ddim", "eta": 0.0,
            "scheduler_kind": "linear", "t_early": 50, "t_late": 5,
            "n_sequences": 16,
        },
        "smoke": {"grid_height": 8, "grid_width": 8, "ar_steps": 16,
                  "n_sequences": 4},
    },
    "wide_batch": {
        "commands": ("simulate",),
        "config": {
            "grid_height": 4, "grid_width": 4, "token_dim": 4,
            "order_kind": "random", "ar_steps": 16,
            "sampler": "euler_maruyama", "sde_noise_scale": 1.0,
            "scheduler_kind": "linear", "t_early": 50, "t_late": 5,
            "n_sequences": 8192,
        },
        "smoke": {"n_sequences": 64},
    },
    "policy_eval": {
        "commands": ("diagnose", "sweep"),
        "config": {
            "grid_height": 8, "grid_width": 8, "token_dim": 4,
            "order_kind": "random", "ar_steps": 32,
            "schedule_kind": "linear", "start_index": 950,
            "sampler": "dpm_solver", "solver_order": 2,
            "scheduler_kind": "linear", "t_early": 50, "t_late": 5,
            "n_sequences": 64, "draws_per_step": 256, "t_draws": 64,
            "probe_sequences": 256, "floor_repeats": 8,
            "sweep_t_early": [50], "sweep_t_late": [5, 10, 25, 50],
        },
        "smoke": {"grid_height": 4, "grid_width": 4, "ar_steps": 8,
                  "n_sequences": 8, "draws_per_step": 32, "t_draws": 8,
                  "probe_sequences": 16, "floor_repeats": 2,
                  "sweep_t_late": [5, 50]},
    },
}

# Quality gates.  Measured on seeds 0-9 (full size): wide_batch joint
# covariance error 0.015-0.037 (exact-draw floor about 0.010) and policy_eval
# mean aggregate W2 0.078-0.088 (mean floor about 0.064).  Whitened early-step
# mean square, seeds 0-4: big_field 0.81-0.84, wide_batch 0.975-0.977; smoke
# size 0.73-1.05.  The gates sit well above that spread and well below what a
# wrong sampler gives.
JOINT_COV_GATE = 0.1  # or 3x the exact-draw floor, whichever is larger
WHITENED_GATE = (0.6, 1.4)
SWEEP_W2_GATE = 3.0   # times the mean exact-draw floor


def config(workload: str, seed: int, smoke: bool = False) -> dict:
    spec = WORKLOADS[workload]
    cfg = dict(spec["config"], order_seed=seed, master_seed=seed)
    if smoke:
        cfg.update(spec["smoke"])
    return cfg


def _round_half_away(x: float) -> int:
    return int(math.copysign(math.floor(abs(x) + 0.5), x))


def step_counts(cfg: dict) -> list[int]:
    """T(k) of the literal linear rule, k = 0..K-1."""
    if cfg["scheduler_kind"] != "linear":
        raise ValueError("only the linear annealing rule is recomputed here")
    te, tl, K = cfg["t_early"], cfg["t_late"], cfg["ar_steps"]
    return [max(_round_half_away(te + (tl - te) * k / K), 1) for k in range(K)]


def calls_per_grid(cfg: dict, steps: int) -> int:
    """Denoiser calls of one sampler run on a T-step grid (README table)."""
    if cfg["sampler"] == "dpm_solver" and cfg.get("solver_order", 1) == 2:
        return 2 * steps - 1
    return steps


def table_nfe_per_sequence(cfg: dict) -> int:
    """Denoiser calls one generation spends, by the README's calls table."""
    return sum(calls_per_grid(cfg, t) for t in step_counts(cfg))


def sampled_tokens(workload: str, cfg: dict) -> int:
    """Tokens the pass draws through the samplers (one per row and position)."""
    n = cfg["grid_height"] * cfg["grid_width"]
    if WORKLOADS[workload]["commands"] == ("simulate",):
        return cfg["n_sequences"] * n
    policies = len(cfg["sweep_t_early"]) * len(cfg["sweep_t_late"])
    return (cfg["n_sequences"] + cfg["draws_per_step"] * (1 + policies)) * n


def joint_covariance(cfg: dict) -> np.ndarray:
    """rbf position covariance of the field (default kernel keys)."""
    rows, cols = np.divmod(np.arange(cfg["grid_height"] * cfg["grid_width"]),
                           cfg["grid_width"])
    dist2 = (rows[:, None] - rows[None, :]) ** 2 + (cols[:, None] - cols[None, :]) ** 2
    cov = np.exp(-dist2 / (2.0 * 2.0**2))  # length_scale 2, marginal_std 1
    return cov + 1e-8 * np.eye(cov.shape[0])


def _config_hash(echoed: dict) -> str:
    canon = json.dumps(echoed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _read_csv(path: Path, digest: str, header: str, errors: list[str]):
    """Rows of a CLI CSV as lists of strings, after checking its two header
    lines."""
    lines = path.read_text().splitlines()
    if len(lines) < 2 or lines[0] != f"# config_hash={digest}":
        errors.append(f"{path.name}: config_hash header does not match")
    if len(lines) < 2 or lines[1] != header:
        errors.append(f"{path.name}: column header is {lines[1:2]}")
    return [line.split(",") for line in lines[2:]]


def _all_finite(rows, columns) -> bool:
    return all(math.isfinite(float(row[c])) for row in rows for c in columns)


def check(workload: str, cfg: dict, out: Path) -> tuple[list[str], dict]:
    """Errors found in one pass's output directory, and the facts read from
    it (``nfe_per_sequence`` of ``summary.json``, ``scheduled_nfe`` and
    quality figures)."""
    errors: list[str] = []
    facts: dict = {}
    commands = WORKLOADS[workload]["commands"]
    expected = ["effective_config.json"]
    if "simulate" in commands:
        expected += ["summary.json", "tokens.csv"]
    if "diagnose" in commands:
        expected += ["straightness.csv", "variance.csv", "probe.csv"]
    if "sweep" in commands:
        expected += ["sweep.csv", "sweep_summary.csv"]
    missing = [name for name in expected if not (out / name).is_file()]
    if missing:
        return [f"missing output files {missing}"], facts

    echoed = json.loads((out / "effective_config.json").read_text())
    digest = echoed.pop("config_hash", None)
    if digest != _config_hash(echoed):
        errors.append("effective_config.json: config_hash does not match its keys")
    changed = sorted(k for k, v in cfg.items() if echoed.get(k) != v)
    if changed:
        errors.append(f"effective_config.json: keys differ from the input {changed}")

    steps = step_counts(cfg)
    K, n, d = cfg["ar_steps"], cfg["grid_height"] * cfg["grid_width"], cfg["token_dim"]
    if "simulate" in commands:
        _check_simulate(cfg, out, digest, steps, errors, facts)
    if "diagnose" in commands:
        for name, header, count, columns in (
            ("straightness.csv", "ar_step,metric,straightness,n_trajectories,t_draws",
             K, (2,)),
            ("variance.csv", "ar_step,dim,empirical_variance,exact_variance,draws",
             K * d, (2, 3)),
            ("probe.csv", "ar_step,mse,exact_mse", K, (1, 2)),
        ):
            rows = _read_csv(out / name, digest, header, errors)
            if len(rows) != count:
                errors.append(f"{name}: {len(rows)} rows, expected {count}")
            elif not _all_finite(rows, columns):
                errors.append(f"{name}: non-finite value")
    if "sweep" in commands:
        _check_sweep(cfg, out, digest, errors, facts)
    return errors, facts


def _check_simulate(cfg, out, digest, steps, errors, facts):
    S, K = cfg["n_sequences"], cfg["ar_steps"]
    n, d = cfg["grid_height"] * cfg["grid_width"], cfg["token_dim"]
    summary = json.loads((out / "summary.json").read_text())
    if summary.get("config_hash") != digest:
        errors.append("summary.json: config_hash does not match")
    if summary.get("step_counts") != steps:
        errors.append("summary.json: step_counts differ from the linear rule")
    nfe = summary.get("nfe_per_sequence")
    facts["nfe_per_sequence"] = nfe
    if nfe != table_nfe_per_sequence(cfg):
        errors.append(f"summary.json: nfe_per_sequence {nfe}, "
                      f"calls table gives {table_nfe_per_sequence(cfg)}")
    if summary.get("total_nfe") != table_nfe_per_sequence(cfg) * S:
        errors.append("summary.json: total_nfe is not nfe_per_sequence x n_sequences")
    facts["scheduled_nfe"] = summary.get("scheduled_nfe_per_sequence", 0)

    path = out / "tokens.csv"
    lines = path.read_text().splitlines()
    if lines[:2] != [f"# config_hash={digest}", "seq_id,ar_step,position,dim,value"]:
        errors.append("tokens.csv: header lines do not match")
    table = np.loadtxt(lines[2:], delimiter=",", ndmin=2) if len(lines) > 2 else None
    if table is None or table.shape != (S * n * d, 5):
        errors.append(f"tokens.csv: {len(lines) - 2} rows, expected {S * n * d}")
        return
    grid = np.indices((S, n, d)).reshape(3, -1).T
    if not np.array_equal(table[:, [0, 2, 3]], grid):
        errors.append("tokens.csv: (seq_id, position, dim) not in cell order")
    step_of = table[: n * d : d, 1].astype(int)
    if np.any(table[:, 1].reshape(S, n * d) != np.repeat(step_of, d)[None, :]):
        errors.append("tokens.csv: ar_step of a position differs between sequences")
    sizes = np.bincount(step_of, minlength=K)
    base, extra = divmod(n, K)
    if list(sizes) != [base + (k < extra) for k in range(K)]:
        errors.append("tokens.csv: positions per AR step do not match the groups")
    values = table[:, 4]
    if not np.all(np.isfinite(values)):
        errors.append("tokens.csv: non-finite value")
        return
    cov = joint_covariance(cfg)
    samples = values.reshape(S, n, d).transpose(0, 2, 1).reshape(-1, n)
    err = float(np.linalg.norm(np.cov(samples, rowvar=False) - cov) / np.linalg.norm(cov))
    # Frobenius error of an exact-draw sample covariance of the same size:
    # E||C - cov||^2 = (tr(cov)^2 + ||cov||^2) / (N - 1).
    floor = math.sqrt((np.trace(cov) ** 2 + np.sum(cov**2)) / (S * d - 1)) / np.linalg.norm(cov)
    facts["joint_cov_err"] = err
    facts["joint_cov_floor"] = float(floor)
    # With S*d = 64 draws of 1024 positions (big_field) the floor is about
    # 1.2, so this gate bites only on wide_batch; the whitened gate below
    # covers both.
    if not err <= max(JOINT_COV_GATE, 3.0 * floor):
        errors.append(f"tokens.csv: joint covariance error {err:.4f} over the gate")

    # Whitening: with the covariance in generation order, z = L^-1 x is, group
    # by group, each token's residual against its conditional mean given the
    # earlier groups, whitened by the conditional covariance.  For exact draws
    # z is N(0, I).  The gate looks at the first quarter of the AR steps,
    # where T(k) is near t_early and the samplers are close to exact; later
    # steps have few denoiser steps and conditional variances near the jitter,
    # where a correct sampler is still far from exact.  On big_field a
    # package with the conditional mean zeroed, or with an identity
    # conditional covariance, gives about 25, iid N(0, 1) tokens give 100 or
    # more, and all zeros give 0.
    order = np.argsort(step_of, kind="stable")
    factor = np.linalg.cholesky(cov[np.ix_(order, order)])
    z = scipy.linalg.solve_triangular(factor, samples[:, order].T, lower=True)
    msq = float(np.mean(z[step_of[order] < K / 4] ** 2))
    facts["whitened_early_msq"] = msq
    low, high = WHITENED_GATE
    if not low <= msq <= high:
        errors.append(f"tokens.csv: whitened early-step mean square {msq:.4f} "
                      f"outside [{low}, {high}]")


def _check_sweep(cfg, out, digest, errors, facts):
    K = cfg["ar_steps"]
    policies = len(cfg["sweep_t_early"]) * len(cfg["sweep_t_late"])
    rows = _read_csv(out / "sweep.csv", digest,
                     "scheduler,kind,t_early,t_late,ar_step,nfe,w2,w2_floor", errors)
    if len(rows) != policies * K:
        errors.append(f"sweep.csv: {len(rows)} rows, expected {policies * K}")
    elif not _all_finite(rows, (5, 6, 7)):
        errors.append("sweep.csv: non-finite value")
    else:
        # Reported NFE: the package reports T(k) x calls_per_step here, which
        # the trace compares with the calls spent (annealing.scheduled_over_spent).
        facts["scheduled_nfe"] = sum(int(row[5]) for row in rows)
    summary = _read_csv(
        out / "sweep_summary.csv", digest,
        "scheduler,kind,t_early,t_late,total_nfe,aggregate_w2,mean_floor,"
        "joint_moment_error", errors)
    if len(summary) != policies:
        errors.append(f"sweep_summary.csv: {len(summary)} rows, expected {policies}")
        return
    # joint_moment_error is nan by design when joint_sequences is 0.
    if not _all_finite(summary, (4, 5, 6)):
        errors.append("sweep_summary.csv: non-finite value")
        return
    w2 = float(np.mean([float(row[5]) for row in summary]))
    floor = float(np.mean([float(row[6]) for row in summary]))
    facts["sweep_w2"] = w2
    facts["sweep_w2_floor"] = floor
    if not 0.0 < w2 <= SWEEP_W2_GATE * floor:
        errors.append(f"sweep_summary.csv: mean aggregate W2 {w2:.4f} over the gate")
