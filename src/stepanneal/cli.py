"""Command-line harness: reproducible experiments from flat JSON configs.

Subcommands: ``schedule``, ``simulate``, ``diagnose``, ``sweep``,
``oracle-check``.  CLI flags override config-file values; the effective
config is echoed into the output directory and its hash is written into a
header comment of every CSV, so a config determines every output byte.
Wall-clock timing is printed to stdout only and never written to files.

Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from collections.abc import Sequence
from pathlib import Path

import numpy as np

from .annealing import SCHEDULER_KINDS, StepScheduler, schedule_table, total_nfe
from .denoiser import BiasedDenoiser, ExactDenoiser
from .diagnostics import (
    probe_error,
    quality_sweep,
    sampling_variance,
    spearman,
    straightness_by_step,
)
from .generate import batch_to_csv_rows, simulate_sequences, step_grids
from .process import (
    ConditioningPlan,
    TokenProcessSpec,
    conditional,
    conditional_solver,
    conditioning_plan,
    random_order,
    raster_order,
)
from .samplers import SAMPLER_KINDS, SamplerConfig
from .schedules import (
    DIFFUSION,
    SCHEDULE_KINDS,
    TimeGrid,
    build_cosine_alpha_bar,
    build_linear_beta,
)

OUT_DIR_ENV = "STEPANNEAL_OUT"

DEFAULT_CONFIG = {
    # process
    "grid_height": 4,
    "grid_width": 4,
    "token_dim": 4,
    "kernel": "rbf",
    "length_scale": 2.0,
    "marginal_std": 1.0,
    "jitter": 1e-8,
    # generation order
    "order_kind": "random",
    "order_seed": 0,
    "ar_steps": 16,
    # noise schedule (diffusion samplers must name schedule_kind explicitly)
    "schedule_kind": None,
    "base_step_count": 1000,
    "beta_start": 1e-4,
    "beta_end": 0.02,
    "cosine_offset": 0.008,
    "start_index": 950,
    "flow_start_time": 1.0,
    # sampler
    "sampler": "ddim",
    "eta": 0.0,
    "solver_order": 1,
    "sde_noise_scale": 1.0,
    # annealing policy
    "scheduler_kind": "linear",
    "t_early": 50,
    "t_late": 5,
    # run
    "n_sequences": 64,
    "master_seed": 0,
    "out_dir": None,
    # diagnostics
    "draws_per_step": 100,
    "t_draws": 64,
    "probe_sequences": 256,
    "floor_repeats": 8,
    "joint_sequences": 0,
    "mc_samples": 1000000,
    # sweep grid
    "sweep_t_early": [50],
    "sweep_t_late": [5, 15, 25, 50],
}


# Keys that may be null, with the type of their other values (a null
# start_index starts at the top of the base grid).
_NULLABLE = {"schedule_kind": str, "out_dir": str, "start_index": int}


def _is_a(value, kind: type) -> bool:
    # bool is an int subclass, and an int is a valid float.
    allowed = (int, float) if kind is float else kind
    return isinstance(value, allowed) and not isinstance(value, bool)


def _check_type(key: str, value) -> None:
    """Reject a config value whose type differs from its default's, and a
    float that is not finite (``json`` reads NaN, Infinity and 1e400)."""
    default = DEFAULT_CONFIG[key]
    if value is None and key in _NULLABLE:
        return
    if isinstance(default, list):
        item = type(default[0])
        ok = isinstance(value, list) and all(_is_a(v, item) for v in value)
        expected = f"a list of {item.__name__}"
    else:
        kind = _NULLABLE.get(key, type(default))
        ok, expected = _is_a(value, kind), kind.__name__
    if not ok:
        raise ValueError(f"{key}: expected {expected}, got {value!r}")
    if isinstance(value, float) and not np.isfinite(value):
        raise ValueError(f"{key}: must be finite, got {value!r}")


def load_config(path: str | None, overrides: dict) -> dict:
    user = {}
    if path is not None:
        with open(path) as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ValueError(f"config: expected a JSON object, got "
                             f"{json.dumps(user)[:40]}")
        unknown = set(user) - set(DEFAULT_CONFIG)
        if unknown:
            raise ValueError(f"config: unknown keys {sorted(unknown)}")
    user.update({k: v for k, v in overrides.items() if v is not None})
    for key, value in user.items():
        _check_type(key, value)
    return {**DEFAULT_CONFIG, **user}


def config_hash(cfg: dict) -> str:
    # out_dir selects where results land, not what they are; leaving it out
    # keeps reruns byte-identical wherever they are written.
    canon = json.dumps({k: v for k, v in cfg.items() if k != "out_dir"},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def _check_at_least(cfg: dict, key: str, least: int) -> None:
    if cfg[key] < least:
        raise ValueError(f"{key}: must be >= {least}, got {cfg[key]}")


def build_spec(cfg: dict) -> TokenProcessSpec:
    return TokenProcessSpec(
        grid_height=cfg["grid_height"],
        grid_width=cfg["grid_width"],
        token_dim=cfg["token_dim"],
        kernel=cfg["kernel"],
        length_scale=cfg["length_scale"],
        marginal_std=cfg["marginal_std"],
        jitter=cfg["jitter"],
    )


def build_order(cfg: dict, spec: TokenProcessSpec):
    n = spec.token_count
    if not 1 <= cfg["ar_steps"] <= n:
        raise ValueError(f"ar_steps: must lie in [1, {n}], got {cfg['ar_steps']}")
    if cfg["order_kind"] == "raster":
        return raster_order(spec, cfg["ar_steps"])
    if cfg["order_kind"] == "random":
        _check_at_least(cfg, "order_seed", 0)
        return random_order(spec, cfg["ar_steps"], cfg["order_seed"])
    raise ValueError(f"order_kind: unknown value {cfg['order_kind']!r}")


def build_schedule(cfg: dict):
    kind = cfg["schedule_kind"]
    if kind is None:
        raise ValueError(
            "schedule_kind: a diffusion run must name its noise schedule, "
            f"one of {', '.join(SCHEDULE_KINDS)}"
        )
    if kind == "linear":
        return build_linear_beta(
            cfg["base_step_count"], cfg["beta_start"], cfg["beta_end"]
        )
    if kind == "cosine":
        _check_at_least(cfg, "cosine_offset", 0)
        return build_cosine_alpha_bar(cfg["base_step_count"], cfg["cosine_offset"])
    raise ValueError(f"schedule_kind: unknown value {kind!r}; "
                     f"expected one of {', '.join(SCHEDULE_KINDS)}")


# Each field of a SamplerConfig or StepScheduler and the config key it is read from.
_SAMPLER_KEYS = {"kind": "sampler", "eta": "eta", "order": "solver_order",
                 "sde_noise_scale": "sde_noise_scale"}
_SCHEDULER_KEYS = {"kind": "scheduler_kind", "t_early": "t_early",
                   "t_late": "t_late", "ar_steps": "ar_steps"}


def _from_config(cls, cfg: dict, keys: dict[str, str]):
    """``cls`` built from the config values that ``keys`` names (field ->
    config key).  An error about a field is re-raised naming its key."""
    try:
        return cls(**{field: cfg[key] for field, key in keys.items()})
    except ValueError as exc:
        field, _, detail = str(exc).partition(": ")
        if field not in keys:
            raise
        raise ValueError(f"{keys[field]}: {detail}") from exc


def build_sampler_config(cfg: dict) -> SamplerConfig:
    return _from_config(SamplerConfig, cfg, _SAMPLER_KEYS)


def build_scheduler(cfg: dict) -> StepScheduler:
    return _from_config(StepScheduler, cfg, _SCHEDULER_KEYS)


def check_minimums(cfg: dict, minimums: dict[str, int]) -> None:
    """Each key in ``minimums``, ``master_seed`` and the field's height and
    width at least its minimum (numpy would reject a negative seed only once
    work has started; the spec names height and width together)."""
    for key, least in {"master_seed": 0, "grid_height": 1, "grid_width": 1,
                       **minimums}.items():
        _check_at_least(cfg, key, least)


def check_run(
    cfg: dict,
    minimums: dict[str, int],
    sampler_config: SamplerConfig,
    schedulers: Sequence[StepScheduler],
) -> tuple[ConditioningPlan, list[list[TimeGrid]]]:
    """Every check that must pass before anything is written, in order: the
    minimums (:func:`check_minimums`), the spec and the generation order,
    the field's positive definiteness, and every AR step's grid under every
    policy.  Returns the order's conditioning plan, whose factorisation is
    that positive-definiteness check, and each policy's grids: the only plan
    and grids the command builds."""
    check_minimums(cfg, minimums)
    spec = build_spec(cfg)
    plan = conditioning_plan(spec, build_order(cfg, spec))
    schedule = build_schedule(cfg) if sampler_config.domain == DIFFUSION else None
    return plan, [
        step_grids(sampler_config, scheduler, schedule,
                   cfg["start_index"], cfg["flow_start_time"])
        for scheduler in schedulers
    ]


def resolve_out_dir(cfg: dict) -> Path:
    out = cfg["out_dir"] or os.environ.get(OUT_DIR_ENV) or "stepanneal_out"
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def write_csv(path: Path, digest: str, header: list[str], rows) -> None:
    """Write the config-hash line, the header, then ``rows``.  A row is
    either a tuple, written with ``str`` per value, or a text block of
    finished lines (``batch_to_csv_rows``)."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# config_hash={digest}\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(row if isinstance(row, str) else ",".join(map(str, row)) + "\n")


def echo_config(cfg: dict, out: Path) -> str:
    digest = config_hash(cfg)
    echoed = {k: v for k, v in cfg.items() if k != "out_dir"}
    with open(out / "effective_config.json", "w") as fh:
        json.dump({"config_hash": digest, **echoed}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return digest


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_schedule(args) -> int:
    scheduler = build_scheduler(load_config(args.config, _overrides(args)))
    print("k,T")
    for k, t in schedule_table(scheduler):
        print(f"{k},{t}")
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    sampler_config = build_sampler_config(cfg)
    scheduler = build_scheduler(cfg)
    plan, [grids] = check_run(cfg, {"n_sequences": 1}, sampler_config, [scheduler])
    out = resolve_out_dir(cfg)
    digest = echo_config(cfg, out)
    started = time.perf_counter()
    batch = simulate_sequences(
        plan, sampler_config, grids,
        n_sequences=cfg["n_sequences"],
        master_seed=cfg["master_seed"],
    )
    elapsed = time.perf_counter() - started
    write_csv(
        out / "tokens.csv", digest,
        ["seq_id", "ar_step", "position", "dim", "value"],
        batch_to_csv_rows(batch),
    )
    summary = {
        "config_hash": digest,
        "n_sequences": cfg["n_sequences"],
        "step_counts": list(batch.step_counts),
        "nfe_per_sequence": batch.nfe_per_sequence,
        "total_nfe": batch.nfe_per_sequence * cfg["n_sequences"],
        "scheduled_nfe_per_sequence": total_nfe(scheduler, sampler_config.calls),
    }
    with open(out / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"simulate: {cfg['n_sequences']} sequences, "
        f"NFE/sequence {batch.nfe_per_sequence}, wall {elapsed:.2f}s -> {out}"
    )
    return 0


def cmd_diagnose(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    sampler_config = build_sampler_config(cfg)
    scheduler = build_scheduler(cfg)
    plan, [grids] = check_run(cfg, {
        "n_sequences": 1, "t_draws": 1, "draws_per_step": 2, "probe_sequences": 1,
    }, sampler_config, [scheduler])
    out = resolve_out_dir(cfg)
    digest = echo_config(cfg, out)
    started = time.perf_counter()
    seed = cfg["master_seed"]

    batch = simulate_sequences(
        plan, sampler_config, grids,
        n_sequences=cfg["n_sequences"],
        master_seed=seed,
        record_paths=True,
    )
    straight = straightness_by_step(
        batch, cfg["t_draws"], np.random.default_rng([seed, 1])
    )
    write_csv(
        out / "straightness.csv", digest,
        ["ar_step", "metric", "straightness", "n_trajectories", "t_draws"],
        [
            (k, straight.metric, float(v), straight.n_trajectories, straight.t_draws)
            for k, v in enumerate(straight.per_step)
        ],
    )

    variance = sampling_variance(
        plan, sampler_config, grids,
        cfg["draws_per_step"], (seed + 101, seed + 202),
    )
    var_rows = [
        (k, j, float(variance.empirical[k, j]), float(variance.exact_per_dim[k]),
         variance.draws_per_step)
        for k in range(variance.empirical.shape[0])
        for j in range(variance.empirical.shape[1])
    ]
    write_csv(
        out / "variance.csv", digest,
        ["ar_step", "dim", "empirical_variance", "exact_variance", "draws"],
        var_rows,
    )

    probe = probe_error(plan, range(seed + 300, seed + 300 + cfg["probe_sequences"]))
    write_csv(
        out / "probe.csv", digest,
        ["ar_step", "mse", "exact_mse"],
        [
            (k, float(probe.mse[k]), float(probe.exact_per_dim[k]))
            for k in range(probe.mse.size)
        ],
    )
    elapsed = time.perf_counter() - started
    steps = np.arange(plan.order.step_count)
    rho_var = spearman(steps, variance.empirical.mean(axis=1))
    print(f"straightness Spearman(step, value) = {straight.spearman_to_step:+.3f}")
    print(f"variance Spearman(step, value) = {rho_var:+.3f}")
    print(
        f"probe MSE first step {probe.mse[0]:.4f} -> last step {probe.mse[-1]:.4f}"
    )
    print(f"diagnose: wall {elapsed:.2f}s -> {out}")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    sampler_config = build_sampler_config(cfg)
    for key in ("sweep_t_early", "sweep_t_late"):
        if not cfg[key]:
            raise ValueError(f"{key}: must hold at least one step count")
    sweep_keys = {**_SCHEDULER_KEYS, "t_early": "sweep_t_early",
                  "t_late": "sweep_t_late"}
    schedulers = [
        _from_config(StepScheduler,
                     {**cfg, "sweep_t_early": te, "sweep_t_late": tl}, sweep_keys)
        for te in cfg["sweep_t_early"]
        for tl in cfg["sweep_t_late"]
    ]
    plan, grids = check_run(
        cfg, {"draws_per_step": 2, "floor_repeats": 1, "joint_sequences": 0},
        sampler_config, schedulers)
    out = resolve_out_dir(cfg)
    digest = echo_config(cfg, out)
    started = time.perf_counter()
    rows, summaries = quality_sweep(
        plan, sampler_config, list(zip(schedulers, grids)),
        (cfg["master_seed"] + 11, cfg["master_seed"] + 12),
        draws_per_step=cfg["draws_per_step"],
        floor_repeats=cfg["floor_repeats"],
        joint_sequences=cfg["joint_sequences"],
    )
    elapsed = time.perf_counter() - started
    write_csv(
        out / "sweep.csv", digest,
        ["scheduler", "kind", "t_early", "t_late", "ar_step", "nfe", "w2", "w2_floor"],
        [
            (r.label, r.kind, r.t_early, r.t_late, r.ar_step, r.nfe,
             float(r.w2), float(r.w2_floor))
            for r in rows
        ],
    )
    write_csv(
        out / "sweep_summary.csv", digest,
        ["scheduler", "kind", "t_early", "t_late", "total_nfe", "aggregate_w2",
         "mean_floor", "joint_moment_error"],
        [
            (s.label, s.kind, s.t_early, s.t_late, s.total_nfe,
             float(s.aggregate_w2), float(s.mean_floor),
             float(s.joint_moment_error))
            for s in summaries
        ],
    )
    for s in summaries:
        print(
            f"{s.label}: total NFE {s.total_nfe}, aggregate W2 {s.aggregate_w2:.4f} "
            f"(floor {s.mean_floor:.4f})"
        )
    print(f"sweep: wall {elapsed:.2f}s -> {out}")
    return 0


def cmd_oracle_check(args) -> int:
    cfg = load_config(args.config, _overrides(args))
    # The regression below fits 9 parameters (intercept and 8 observed
    # positions) and needs a residual degree of freedom; its target is a
    # ninth position.
    check_minimums(cfg, {"mc_samples": 10})
    height, width = cfg["grid_height"], cfg["grid_width"]
    if height * width < 9:
        raise ValueError(
            f"grid_height/grid_width: oracle-check needs at least 9 positions "
            f"(8 observed and 1 target), got {height}x{width}"
        )
    spec = build_spec(cfg)
    rng = np.random.default_rng(cfg["master_seed"])
    oracle = BiasedDenoiser(0.5) if args.corrupt_score else ExactDenoiser()
    checks: list[tuple[str, bool, str]] = []

    obs_pos = list(rng.permutation(spec.token_count)[:8])
    targets = [p for p in range(spec.token_count) if p not in obs_pos][:3]
    obs_vals = rng.standard_normal((len(obs_pos), spec.token_dim))
    observed = list(zip(obs_pos, obs_vals))
    # The plan of the order (observed, targets, rest) that every conditional
    # is read from; its factorisation is the positive-definiteness check.
    solver = conditional_solver(spec, obs_pos, targets)
    cond = solver.conditional(spec, obs_vals)

    # Finite differences against the analytic log-density gradient.
    a = 0.35
    x = rng.standard_normal((len(targets), spec.token_dim))
    score = oracle.score(x, a, cond)
    mat = a * cond.covariance + (1.0 - a) * np.eye(cond.size)
    inv = np.linalg.inv(mat)

    def logpdf(xx):
        dev = xx - np.sqrt(a) * cond.mean
        return -0.5 * float(np.sum(dev * (inv @ dev)))

    h = 1e-4
    fd = np.zeros_like(x)
    for i in range(x.shape[0]):
        for j in range(x.shape[1]):
            up, dn = x.copy(), x.copy()
            up[i, j] += h
            dn[i, j] -= h
            fd[i, j] = (logpdf(up) - logpdf(dn)) / (2 * h)
    rel = float(np.max(np.abs(score - fd)) / np.max(np.abs(fd)))
    checks.append(("score finite-difference", rel < 1e-5, f"rel err {rel:.2e}"))

    # Monte Carlo regression of the first target on the observed positions,
    # from joint draws of those 9 positions alone.
    n_mc = int(cfg["mc_samples"])
    nine = obs_pos + targets[:1]
    chol = np.linalg.cholesky(spec.covariance[np.ix_(nine, nine)])
    draws = rng.standard_normal((n_mc, len(nine))) @ chol.T
    y = draws[:, -1]
    design = np.column_stack([np.ones(n_mc), draws[:, :-1]])
    beta, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    exact_var = float(solver.covariance[0, 0])
    xtx_inv = np.linalg.inv(design.T @ design)
    se = np.sqrt(np.var(resid, ddof=design.shape[1]) * np.diag(xtx_inv))
    weights = solver.weights[0]
    ok_w = bool(np.all(np.abs(beta[1:] - weights) <= 3.0 * se[1:]))
    var_mc = float(np.var(resid, ddof=design.shape[1]))
    se_var = exact_var * np.sqrt(2.0 / n_mc)
    ok_v = abs(var_mc - exact_var) <= 3.0 * se_var
    checks.append(
        ("conditional moments vs MC regression", ok_w and ok_v,
         f"max weight dev {float(np.max(np.abs(beta[1:] - weights))):.2e}")
    )

    # Conditioning never increases uncertainty.
    small = conditional(spec, observed[:4], targets)
    tightens = (
        float(np.trace(cond.covariance))
        <= float(np.trace(small.covariance)) + 1e-9
    )
    checks.append(("conditioning tightens", tightens, ""))

    failed = [name for name, ok, _ in checks if not ok]
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    if failed:
        print(f"oracle-check: {len(failed)} check(s) failed", file=sys.stderr)
        return 1
    print("oracle-check: all checks passed")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


# Each override flag's config key and argparse settings; the flag is "--"
# and the key with dashes.
_FLAGS = {
    "ar_steps": {"type": int},
    "scheduler_kind": {"choices": SCHEDULER_KINDS},
    "t_early": {"type": int},
    "t_late": {"type": int},
    "out_dir": {},
    "master_seed": {"type": int},
    "n_sequences": {"type": int},
    "sampler": {"choices": SAMPLER_KINDS},
    "eta": {"type": float},
    "solver_order": {"type": int},
    "sde_noise_scale": {"type": float},
    "schedule_kind": {"choices": SCHEDULE_KINDS},
    "start_index": {"type": int},
    "draws_per_step": {"type": int},
}

_POLICY = ("ar_steps", "scheduler_kind", "t_early", "t_late")
_SAMPLING = ("out_dir", "master_seed", "sampler", "eta", "solver_order",
             "sde_noise_scale", "schedule_kind", "start_index")

# Each command: its function, its help and the override keys it reads.
# bench/child.py passes --config and --out-dir to simulate, diagnose and sweep.
_COMMANDS = {
    "schedule": (cmd_schedule, "print the (k, T(k)) table as CSV", _POLICY),
    "simulate": (cmd_simulate, "generate sequences; write token CSV",
                 _POLICY + _SAMPLING + ("n_sequences",)),
    "diagnose": (cmd_diagnose, "straightness/variance/probe CSVs",
                 _POLICY + _SAMPLING + ("n_sequences", "draws_per_step")),
    "sweep": (cmd_sweep, "quality sweep across annealing policies",
              ("ar_steps", "scheduler_kind") + _SAMPLING + ("draws_per_step",)),
    "oracle-check": (cmd_oracle_check, "validate the exact oracle", ("master_seed",)),
}


def _overrides(args) -> dict:
    return {k: v for k, v in vars(args).items() if k in DEFAULT_CONFIG}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stepanneal",
        description="Annealed diffusion-step sampling experiments on an exact "
        "Gaussian token process",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func)
        p.add_argument("--config", default=None, help="JSON config file")
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), **_FLAGS[key])
        if name == "oracle-check":
            p.add_argument("--corrupt-score", action="store_true",
                           help="negative control: inject a score bias (must fail)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, RuntimeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
