"""Command-line harness: reproducible experiments from flat JSON configs.

Subcommands: ``schedule``, ``simulate``, ``diagnose``, ``sweep``,
``oracle-check``.  CLI flags override config-file values; the effective
config is echoed into the output directory and its hash is written into a
header comment of every CSV, so a config determines every output byte on one
numpy/BLAS build and BLAS thread count.
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

from .annealing import (
    SCHEDULER_KINDS,
    StepScheduler,
    schedule_table,
    scheduler_label,
    total_nfe,
)
from .denoiser import BiasedDenoiser, ExactDenoiser
from .diagnostics import (
    check_joint_draws,
    exact_variance,
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
            try:
                user = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValueError(f"config: {path}: {exc}") from exc
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


# Each constructor's parameters and the config keys they are read from
# (parameter -> config key), for :func:`_from_config`.
_SPEC_KEYS = {key: key for key in ("grid_height", "grid_width", "token_dim", "kernel",
                                   "length_scale", "marginal_std", "jitter")}
_RASTER_KEYS = {"group_count": "ar_steps"}
_RANDOM_KEYS = {**_RASTER_KEYS, "seed": "order_seed"}
_LINEAR_KEYS = {key: key for key in ("base_step_count", "beta_start", "beta_end")}
_COSINE_KEYS = {"base_step_count": "base_step_count", "small_offset": "cosine_offset"}
_SAMPLER_KEYS = {"kind": "sampler", "eta": "eta", "order": "solver_order",
                 "sde_noise_scale": "sde_noise_scale"}
_SCHEDULER_KEYS = {"kind": "scheduler_kind", "t_early": "t_early",
                   "t_late": "t_late", "ar_steps": "ar_steps"}
# sweep's policies, each read from a config with one value of each list set.
_SWEEP_KEYS = {**_SCHEDULER_KEYS, "t_early": "sweep_t_early", "t_late": "sweep_t_late"}


def _from_config(build, cfg: dict, keys: dict[str, str], *args):
    """``build(*args, ...)`` with each parameter in ``keys`` set to the
    config value of its key.  An error about a parameter is re-raised naming
    its key."""
    try:
        return build(*args, **{field: cfg[key] for field, key in keys.items()})
    except ValueError as exc:
        field, _, detail = str(exc).partition(": ")
        if field not in keys:
            raise
        raise ValueError(f"{keys[field]}: {detail}") from exc


def build_spec(cfg: dict) -> TokenProcessSpec:
    return _from_config(TokenProcessSpec, cfg, _SPEC_KEYS)


def build_order(cfg: dict, spec: TokenProcessSpec):
    if cfg["order_kind"] == "raster":
        return _from_config(raster_order, cfg, _RASTER_KEYS, spec)
    if cfg["order_kind"] == "random":
        return _from_config(random_order, cfg, _RANDOM_KEYS, spec)
    raise ValueError(f"order_kind: unknown value {cfg['order_kind']!r}")


def build_schedule(cfg: dict):
    kind = cfg["schedule_kind"]
    if kind is None:
        raise ValueError(
            "schedule_kind: a diffusion run must name its noise schedule, "
            f"one of {', '.join(SCHEDULE_KINDS)}"
        )
    if kind == "linear":
        return _from_config(build_linear_beta, cfg, _LINEAR_KEYS)
    if kind == "cosine":
        return _from_config(build_cosine_alpha_bar, cfg, _COSINE_KEYS)
    raise ValueError(f"schedule_kind: unknown value {kind!r}; "
                     f"expected one of {', '.join(SCHEDULE_KINDS)}")


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
        if cfg[key] < least:
            raise ValueError(f"{key}: must be >= {least}, got {cfg[key]}")


def _write_json(path: Path, data: dict) -> None:
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")


def start_run(
    cfg: dict,
    minimums: dict[str, int],
    sampler_config: SamplerConfig,
    schedulers: Sequence[StepScheduler],
) -> tuple[ConditioningPlan, list[list[TimeGrid]], Path, str]:
    """Every check that must pass before anything is written, in order: the
    minimums (:func:`check_minimums`), the spec and the generation order,
    the field's positive definiteness, and every AR step's grid under every
    policy.  Then create the output directory and echo the config into it.
    Returns the order's conditioning plan, whose factorisation is that
    positive-definiteness check, each policy's grids (the only plan and
    grids the command builds), the output directory and the config hash."""
    check_minimums(cfg, minimums)
    spec = build_spec(cfg)
    plan = conditioning_plan(spec, build_order(cfg, spec))
    schedule = build_schedule(cfg) if sampler_config.domain == DIFFUSION else None
    grids = [
        step_grids(sampler_config, scheduler, schedule,
                   cfg["start_index"], cfg["flow_start_time"])
        for scheduler in schedulers
    ]
    out = Path(cfg["out_dir"] or os.environ.get(OUT_DIR_ENV) or "stepanneal_out")
    out.mkdir(parents=True, exist_ok=True)
    digest = config_hash(cfg)
    _write_json(out / "effective_config.json", {
        "config_hash": digest, **{k: v for k, v in cfg.items() if k != "out_dir"}})
    return plan, grids, out, digest


def write_csv(path: Path, digest: str, header: list[str], rows) -> None:
    """Write the config-hash line, the header, then ``rows``, as UTF-8 with
    ``\\n`` line ends.  A row is either a tuple, written with ``str`` per
    value, or ``bytes`` of finished lines (a piece of
    ``batch_to_csv_rows``), written as they are."""
    with open(path, "wb") as fh:
        fh.write(f"# config_hash={digest}\n{','.join(header)}\n".encode())
        for row in rows:
            fh.write(row if isinstance(row, bytes)
                     else (",".join(map(str, row)) + "\n").encode())


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_schedule(cfg: dict, args) -> int:
    scheduler = build_scheduler(cfg)
    print("k,T")
    for k, t in schedule_table(scheduler):
        print(f"{k},{t}")
    return 0


def cmd_simulate(cfg: dict, args) -> int:
    sampler_config = build_sampler_config(cfg)
    scheduler = build_scheduler(cfg)
    plan, [grids], out, digest = start_run(
        cfg, {"n_sequences": 1}, sampler_config, [scheduler])
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
    _write_json(out / "summary.json", {
        "config_hash": digest,
        "n_sequences": cfg["n_sequences"],
        "step_counts": [grid.step_count for grid in grids],
        "nfe_per_sequence": batch.nfe_per_sequence,
        "total_nfe": batch.nfe_per_sequence * cfg["n_sequences"],
        "scheduled_nfe_per_sequence": total_nfe(scheduler, sampler_config.calls),
    })
    print(
        f"simulate: {cfg['n_sequences']} sequences, "
        f"NFE/sequence {batch.nfe_per_sequence}, wall {elapsed:.2f}s -> {out}"
    )
    return 0


def cmd_diagnose(cfg: dict, args) -> int:
    sampler_config = build_sampler_config(cfg)
    scheduler = build_scheduler(cfg)
    plan, [grids], out, digest = start_run(cfg, {
        "n_sequences": 1, "t_draws": 1, "draws_per_step": 2, "probe_sequences": 1,
    }, sampler_config, [scheduler])
    started = time.perf_counter()
    seed = cfg["master_seed"]

    batch = simulate_sequences(
        plan, sampler_config, grids,
        n_sequences=cfg["n_sequences"],
        master_seed=seed,
        record_paths=True,
    )
    straight = straightness_by_step(batch, cfg["t_draws"],
                                    np.random.default_rng([seed, 1]))
    metric = "diffusion" if sampler_config.domain == DIFFUSION else "flow"
    write_csv(out / "straightness.csv", digest,
              ["ar_step", "metric", "straightness", "n_trajectories", "t_draws"],
              [(k, metric, float(v), cfg["n_sequences"], cfg["t_draws"])
               for k, v in enumerate(straight)])

    exact = exact_variance(plan)
    variance = sampling_variance(plan, sampler_config, grids, cfg["draws_per_step"],
                                 (seed + 101, seed + 202))
    write_csv(out / "variance.csv", digest,
              ["ar_step", "dim", "empirical_variance", "exact_variance", "draws"],
              [(k, j, float(v), float(exact[k]), cfg["draws_per_step"])
               for k, per_dim in enumerate(variance) for j, v in enumerate(per_dim)])

    mse = probe_error(plan, range(seed + 300, seed + 300 + cfg["probe_sequences"]))
    write_csv(out / "probe.csv", digest, ["ar_step", "mse", "exact_mse"],
              [(k, float(v), float(exact[k])) for k, v in enumerate(mse)])
    elapsed = time.perf_counter() - started
    steps = np.arange(plan.order.step_count)
    for name, per_step in (("straightness", straight),
                           ("variance", variance.mean(axis=1))):
        print(f"{name} Spearman(step, value) = {spearman(steps, per_step):+.3f}")
    print(f"probe MSE first step {mse[0]:.4f} -> last step {mse[-1]:.4f}")
    print(f"diagnose: wall {elapsed:.2f}s -> {out}")
    return 0


def cmd_sweep(cfg: dict, args) -> int:
    sampler_config = build_sampler_config(cfg)
    for key in ("sweep_t_early", "sweep_t_late"):
        if not cfg[key]:
            raise ValueError(f"{key}: must hold at least one step count")
    # Each distinct policy once (a constant policy's t_late is its t_early).
    schedulers = list(dict.fromkeys(
        _from_config(StepScheduler,
                     {**cfg, "sweep_t_early": te, "sweep_t_late": tl}, _SWEEP_KEYS)
        for te in cfg["sweep_t_early"]
        for tl in cfg["sweep_t_late"]
    ))
    check_joint_draws(cfg["joint_sequences"], cfg["token_dim"])
    plan, grids, out, digest = start_run(
        cfg, {"draws_per_step": 2, "floor_repeats": 1, "joint_sequences": 0},
        sampler_config, schedulers)
    started = time.perf_counter()
    w2, nfe, floors, joint = quality_sweep(
        plan, sampler_config, grids,
        (cfg["master_seed"] + 11, cfg["master_seed"] + 12),
        draws_per_step=cfg["draws_per_step"],
        floor_repeats=cfg["floor_repeats"],
        joint_sequences=cfg["joint_sequences"],
    )
    elapsed = time.perf_counter() - started
    # Each policy's leading columns: scheduler, kind, t_early, t_late.
    policies = [(scheduler_label(s), s.kind, s.t_early, s.t_late) for s in schedulers]
    write_csv(
        out / "sweep.csv", digest,
        ["scheduler", "kind", "t_early", "t_late", "ar_step", "nfe", "w2", "w2_floor"],
        [
            (*policy, k, int(nfe[p, k]), float(w2[p, k]), float(floors[k]))
            for p, policy in enumerate(policies)
            for k in range(len(floors))
        ],
    )
    mean_floor = float(floors.mean())
    summaries = [
        (*policy, int(nfe[p].sum()), float(w2[p].mean()), mean_floor, float(joint[p]))
        for p, policy in enumerate(policies)
    ]
    write_csv(
        out / "sweep_summary.csv", digest,
        ["scheduler", "kind", "t_early", "t_late", "total_nfe", "aggregate_w2",
         "mean_floor", "joint_moment_error"],
        summaries,
    )
    for label, _, _, _, total, aggregate, _, _ in summaries:
        print(f"{label}: total NFE {total}, aggregate W2 {aggregate:.4f} "
              f"(floor {mean_floor:.4f})")
    print(f"sweep: wall {elapsed:.2f}s -> {out}")
    return 0


def cmd_oracle_check(cfg: dict, args) -> int:
    check_minimums(cfg, {})
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
    # The plan of the order (observed, targets, rest) that every conditional
    # is read from; its factorisation is the positive-definiteness check.
    solver = conditional_solver(spec, obs_pos, targets)
    cond = solver.conditional(spec, obs_vals)

    # Central differences along each basis step against the analytic
    # log-density gradient.
    a = 0.35
    x = rng.standard_normal((len(targets), spec.token_dim))
    score = oracle.score(x, a, cond)
    mat = a * cond.covariance + (1.0 - a) * np.eye(cond.size)
    inv = np.linalg.inv(mat)

    def logpdf(xx):
        dev = xx - np.sqrt(a) * cond.mean
        return -0.5 * float(np.sum(dev * (inv @ dev)))

    h = 1e-4
    steps = h * np.eye(x.size).reshape(x.size, *x.shape)
    fd = np.array([logpdf(x + e) - logpdf(x - e) for e in steps])
    fd = fd.reshape(x.shape) / (2 * h)
    rel = float(np.max(np.abs(score - fd)) / np.max(np.abs(fd)))
    checks.append(("score finite-difference", rel < 1e-5, f"rel err {rel:.2e}"))

    # The Schur form of the observed and target block alone, independent of
    # the plan: W = (S_oo^-1 S_ot)^T and C = S_tt - W S_ot.  Both sides are
    # backward stable, so they agree to a multiple of eps * cond(S_oo).
    o = len(obs_pos)
    block = spec.covariance_of(obs_pos + targets)
    observed, cross, target = block[:o, :o], block[:o, o:], block[o:, o:]
    weights = np.linalg.solve(observed, cross).T
    cov = target - weights @ cross
    err = max(np.max(np.abs(solver.weights - weights)) / np.max(np.abs(weights)),
              np.max(np.abs(solver.covariance - cov)) / np.max(np.abs(target)))
    bound = 1e3 * np.finfo(np.float64).eps * np.linalg.cond(observed)
    checks.append(("conditional moments vs Schur form", bool(err <= bound),
                   f"rel err {err:.1e}, bound {bound:.1e}"))

    # Conditioning never increases uncertainty.
    small = conditional_solver(spec, obs_pos[:4], targets)
    tightens = bool(np.trace(cond.covariance) <= np.trace(small.covariance) + 1e-9)
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


# An override flag is "--" and its config key with dashes, typed like the
# key's default; these keys' flags also take only the listed values.
_CHOICES = {"scheduler_kind": SCHEDULER_KINDS, "sampler": SAMPLER_KINDS,
            "schedule_kind": SCHEDULE_KINDS}

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
            p.add_argument("--" + key.replace("_", "-"), choices=_CHOICES.get(key),
                           type=_NULLABLE.get(key, type(DEFAULT_CONFIG[key])))
        if name == "oracle-check":
            p.add_argument("--corrupt-score", action="store_true",
                           help="negative control: inject a score bias (must fail)")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(load_config(args.config, _overrides(args)), args)
    except (ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
