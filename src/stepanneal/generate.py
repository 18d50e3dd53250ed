"""Autoregressive generation loop over the exact token process.

Each AR step k conditions on everything generated so far, builds a reverse
grid with the annealed step count T(k), and runs the configured sampler with
the exact conditional as its denoiser.  Runs are fully determined by the
seed.  ``simulate_sequences`` vectorizes many sequences through one shared
generation order: it factors the order's covariance once
(:func:`~stepanneal.process.conditioning_plan`), every step's conditional
covariance comes from that factor, and each step's batched means are one
product with the whitened innovations of the groups already drawn.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .annealing import StepScheduler, steps_at
from .denoiser import ExactDenoiser
from .process import (
    ConditionalGaussian,
    GenerationOrder,
    TokenProcessSpec,
    conditional_solver,  # noqa: F401  (kept for bench/spans.py)
    conditioning_plan,
    joint_covariance,
)
from .samplers import SamplerConfig, TrajectoryRecord, sample_with_config
from .schedules import (
    DIFFUSION,
    DiffusionSchedule,
    TimeGrid,
    make_diffusion_grid,
    make_flow_grid,
)


@dataclass(eq=False)
class SequenceBatch:
    """Many sequences generated through one shared order.

    ``values`` has shape (sequence, position, dim).  Trajectories, when
    recorded, hold batched states of shape (sequence, group, dim) per grid
    point, and ``conditionals`` carry the batched per-sequence means.
    """

    values: np.ndarray  # (S, n, d)
    order: GenerationOrder
    step_counts: tuple[int, ...]
    nfe_per_sequence: int
    master_seed: int
    trajectories: list[TrajectoryRecord] | None = None
    conditionals: list[ConditionalGaussian] | None = None


def step_grids(
    config: SamplerConfig,
    scheduler: StepScheduler,
    schedule: DiffusionSchedule | None = None,
    start_index: int | None = None,
    flow_start_time: float = 1.0,
) -> list[tuple[int, TimeGrid]]:
    """``(T(k), grid)`` for every AR step k.  Building them all first checks
    the whole policy against the grid limits before any work starts; a
    failure is a ``RuntimeError`` naming the AR step, as in the loop."""
    if config.domain != DIFFUSION and not 0.0 < flow_start_time <= 1.0:
        raise ValueError(f"flow_start_time: must lie in (0, 1], got {flow_start_time}")
    grids = []
    for k in range(scheduler.ar_steps):
        try:
            t_k = steps_at(scheduler, k)
            if t_k < config.min_steps:
                raise ValueError(
                    f"grid: {config.kind} needs at least {config.min_steps} steps"
                )
            if config.domain == DIFFUSION:
                if schedule is None:
                    raise ValueError("schedule: diffusion samplers need a noise schedule")
                grid = make_diffusion_grid(schedule, t_k, start_index)
            else:
                grid = make_flow_grid(t_k, flow_start_time)
        except ValueError as exc:
            raise RuntimeError(f"AR step {k}: {exc}") from exc
        grids.append((t_k, grid))
    return grids


def simulate_sequences(
    spec: TokenProcessSpec,
    order: GenerationOrder,
    sampler_config: SamplerConfig,
    scheduler: StepScheduler,
    schedule: DiffusionSchedule | None = None,
    *,
    n_sequences: int,
    master_seed: int,
    start_index: int | None = None,
    flow_start_time: float = 1.0,
    record_paths: bool = False,
) -> SequenceBatch:
    """Generate ``n_sequences`` fields at once (vectorized over sequences).

    The random stream is ``default_rng([master_seed, n_sequences])``, so a
    run is bitwise reproducible for a fixed seed and batch size.
    """
    if n_sequences < 1:
        raise ValueError("n_sequences: must be positive")
    if scheduler.ar_steps != order.step_count:
        raise ValueError("scheduler: ar_steps must match the generation order")
    grids = step_grids(sampler_config, scheduler, schedule, start_index, flow_start_time)
    plan = conditioning_plan(spec, order, joint_covariance(spec))
    rng = np.random.default_rng([master_seed, n_sequences])
    oracle = ExactDenoiser()
    n, d = spec.token_count, spec.token_dim
    values = np.zeros((n_sequences, n, d))
    whitened = np.empty((n, n_sequences, d))
    step_counts: list[int] = []
    trajectories = [] if record_paths else None
    conditionals = [] if record_paths else None
    nfe = 0
    for k, (group, (t_k, grid)) in enumerate(zip(order.groups(), grids)):
        try:
            cond = plan.conditional(k, whitened)
            sample, record = sample_with_config(
                sampler_config, oracle, cond, grid, rng, record_path=record_paths
            )
        except Exception as exc:
            raise RuntimeError(f"AR step {k}: {exc}") from exc
        values[:, list(group), :] = sample
        whitened[plan.rows(k)] = plan.whiten(k, sample - cond.mean)
        step_counts.append(t_k)
        nfe += record.nfe
        if record_paths:
            trajectories.append(record)
            conditionals.append(cond)
    return SequenceBatch(
        values=values,
        order=order,
        step_counts=tuple(step_counts),
        nfe_per_sequence=nfe,
        master_seed=master_seed,
        trajectories=trajectories,
        conditionals=conditionals,
    )


def batch_to_csv_rows(batch: SequenceBatch) -> list[str]:
    """The body of ``tokens.csv`` as one text block per sequence: a line
    ``seq_id,ar_step,position,dim,value`` per cell, in cell order.  Values
    are written with ``str``, the shortest repr that round-trips, so
    ``float()`` of a value gives back ``batch.values`` exactly."""
    step_of = np.empty(len(batch.order.permutation), dtype=int)
    for k, group in enumerate(batch.order.groups()):
        step_of[list(group)] = k
    _, n, d = batch.values.shape
    # One template per order; a sequence fills it with (s, v0, s, v1, ...).
    template = "".join(
        f"%d,{step_of[p]},{p},{j},%s\n" for p in range(n) for j in range(d)
    )
    blocks = []
    for s, seq in enumerate(batch.values):
        fill = [s] * (2 * n * d)
        fill[1::2] = seq.ravel().tolist()
        blocks.append(template % tuple(fill))
    return blocks
