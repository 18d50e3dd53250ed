"""Autoregressive generation loop over the exact token process.

Each AR step k conditions on everything generated so far, builds a reverse
grid with the annealed step count T(k), and runs the configured sampler with
the exact conditional as its denoiser.  Runs are fully determined by the
seed.  ``simulate_sequences`` vectorizes many sequences through one shared
generation order: the conditional covariance (and hence the per-step solver)
depends only on which positions are observed, so only the means are batched.
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
    conditional_solver,
    joint_covariance,
)
from .samplers import SamplerConfig, TrajectoryRecord, sample_with_config
from .schedules import DIFFUSION, DiffusionSchedule, make_diffusion_grid, make_flow_grid


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


def _grid_for_step(
    config: SamplerConfig,
    scheduler: StepScheduler,
    k: int,
    schedule: DiffusionSchedule | None,
    start_index: int | None,
    flow_start_time: float,
):
    t_k = steps_at(scheduler, k)
    if config.domain == DIFFUSION:
        if schedule is None:
            raise ValueError("schedule: diffusion samplers need a noise schedule")
        return t_k, make_diffusion_grid(schedule, t_k, start_index)
    return t_k, make_flow_grid(t_k, flow_start_time)


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
    rng = np.random.default_rng([master_seed, n_sequences])
    cov = joint_covariance(spec)
    oracle = ExactDenoiser()
    n, d = spec.token_count, spec.token_dim
    values = np.zeros((n_sequences, n, d))
    observed: list[int] = []
    step_counts: list[int] = []
    trajectories = [] if record_paths else None
    conditionals = [] if record_paths else None
    nfe = 0
    for k, group in enumerate(order.groups()):
        try:
            t_k, grid = _grid_for_step(
                sampler_config, scheduler, k, schedule, start_index, flow_start_time
            )
            solver = conditional_solver(spec, observed, group, cov=cov)
            cond = solver.conditional(spec, values[:, observed, :])
            sample, record = sample_with_config(
                sampler_config, oracle, cond, grid, rng, record_path=record_paths
            )
        except Exception as exc:
            raise RuntimeError(f"AR step {k}: {exc}") from exc
        values[:, list(group), :] = sample
        observed.extend(group)
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


def batch_to_csv_rows(batch: SequenceBatch) -> list[tuple[int, int, int, int, float]]:
    """Rows (seq_id, ar_step, position, dim, value), ordered by cell index."""
    step_of = np.empty(len(batch.order.permutation), dtype=int)
    for k, group in enumerate(batch.order.groups()):
        for p in group:
            step_of[p] = k
    rows = []
    n_seq, n, d = batch.values.shape
    for s in range(n_seq):
        for p in range(n):
            for j in range(d):
                rows.append((s, int(step_of[p]), p, j, float(batch.values[s, p, j])))
    return rows
