"""Autoregressive generation loop over the exact token process.

:func:`step_grids` is the one place where an annealing policy becomes
reverse grids: one :class:`~stepanneal.schedules.TimeGrid` per AR step k,
with ``grid.step_count`` = T(k).  Generation takes those grids, so any
per-step allocation reaches it as grids.  Each AR step k conditions on
everything generated so far and runs the configured sampler on step k's grid
with the exact conditional as its denoiser.  On one numpy/BLAS build and BLAS
thread count, runs are fully determined by the seed.  ``simulate_sequences``
vectorizes many sequences through one shared generation order, given as its
:class:`~stepanneal.process.ConditioningPlan` (built once per command; it
carries the spec): every step's covariance and spectrum come from the plan,
decomposed once and batched by group size, and each step's batched means
are one product with the whitened innovations of the groups already drawn.
``batch_to_csv_rows`` formats a batch as the body of ``tokens.csv`` on every
CPU the process may run on, one sequence range per forked worker
(:class:`~stepanneal._workers.Worker`), with the same bytes at any CPU count.
``simulate_sequences`` uses a second CPU one other way: when its sampler
draws noise at its transitions, one thread draws the run's normals ahead
(:class:`~stepanneal._workers.NoiseStream`), the same values in the same
order, and it is joined before the call returns or raises, so no fork runs
beside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._workers import NoiseStream, Worker, cpu_count
from .annealing import StepScheduler, steps_at
from .denoiser import ExactDenoiser
from .process import (
    ConditionalGaussian,
    ConditioningPlan,
    GenerationOrder,
    conditional_solver,  # noqa: F401  (kept for bench/spans.py)
    joint_covariance,  # noqa: F401  (kept for bench/spans.py)
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
    nfe_per_sequence: int
    trajectories: list[TrajectoryRecord] | None = None
    conditionals: list[ConditionalGaussian] | None = None


def step_grids(
    config: SamplerConfig,
    scheduler: StepScheduler,
    schedule: DiffusionSchedule | None = None,
    start_index: int | None = None,
    flow_start_time: float = 1.0,
) -> list[TimeGrid]:
    """The reverse grid of every AR step k, with ``grid.step_count`` = T(k).
    Building them all first checks the whole policy against the grid limits
    before any work starts; a grid that fails is a ``RuntimeError`` naming
    the AR step.  Grids are immutable, so steps with equal T(k) share one."""
    if config.domain == DIFFUSION:
        if schedule is None:
            raise ValueError("schedule: diffusion samplers need a noise schedule")
    elif not 0.0 < flow_start_time <= 1.0:
        raise ValueError(f"flow_start_time: must lie in (0, 1], got {flow_start_time}")
    built: dict[int, TimeGrid] = {}
    grids = []
    for k in range(scheduler.ar_steps):
        try:
            t_k = steps_at(scheduler, k)
            if t_k not in built:
                built[t_k] = (make_diffusion_grid(schedule, t_k, start_index)
                              if config.domain == DIFFUSION
                              else make_flow_grid(t_k, flow_start_time))
        except ValueError as exc:
            raise RuntimeError(f"AR step {k}: {exc}") from exc
        grids.append(built[t_k])
    return grids


def check_grid_count(grids: list[TimeGrid], order: GenerationOrder) -> None:
    if len(grids) != order.step_count:
        raise ValueError(
            f"grids: the policy's ar_steps ({len(grids)}) must equal the "
            f"generation order's AR step count ({order.step_count})"
        )


def simulate_sequences(
    plan: ConditioningPlan,
    sampler_config: SamplerConfig,
    grids: list[TimeGrid],
    *,
    n_sequences: int,
    master_seed: int,
    record_paths: bool = False,
) -> SequenceBatch:
    """Generate ``n_sequences`` fields at once (vectorized over sequences)
    along ``plan.order``, AR step k on ``grids[k]`` (see :func:`step_grids`).

    The random stream is ``default_rng([master_seed, n_sequences])``, so a
    run is bitwise reproducible for a fixed seed and batch size, at any CPU
    count: a sampler with ``noisy_transitions`` draws it ahead on a second
    CPU, and that thread has ended when this returns or raises.
    """
    if n_sequences < 1:
        raise ValueError("n_sequences: must be positive")
    order = plan.order
    check_grid_count(grids, order)
    rng = np.random.default_rng([master_seed, n_sequences])
    oracle = ExactDenoiser()
    n, d = plan.spec.token_count, plan.spec.token_dim
    values = np.zeros((n_sequences, n, d))
    whitened = np.empty((n, n_sequences, d))
    trajectories = [] if record_paths else None
    conditionals = [] if record_paths else None
    nfe = 0
    with NoiseStream(rng, sampler_config.noisy_transitions) as noise:
        for k, (group, grid) in enumerate(zip(order.groups(), grids)):
            try:
                cond = plan.conditional(k, whitened)
                sample, record = sample_with_config(
                    sampler_config, oracle, cond, grid, noise,
                    record_path=record_paths
                )
            except Exception as exc:
                raise RuntimeError(f"AR step {k}: {exc}") from exc
            values[:, list(group), :] = sample
            whitened[plan.rows(k)] = plan.whiten(k, sample - cond.mean)
            nfe += record.nfe
            if record_paths:
                trajectories.append(record)
                conditionals.append(cond)
    return SequenceBatch(
        values=values,
        order=order,
        nfe_per_sequence=nfe,
        trajectories=trajectories,
        conditionals=conditionals,
    )


def _csv_blocks(template: str, values: np.ndarray, first: int,
                last: int) -> list[bytes]:
    """The encoded text blocks of sequences ``first`` to ``last - 1``."""
    blocks = []
    for s, seq in enumerate(values[first:last], first):
        fill = [s] * (2 * seq.size)
        fill[1::2] = seq.ravel().tolist()
        blocks.append((template % tuple(fill)).encode())
    return blocks


def batch_to_csv_rows(batch: SequenceBatch) -> list[bytes]:
    """The body of ``tokens.csv`` as encoded text pieces, to be written in
    turn: a line ``seq_id,ar_step,position,dim,value`` per cell, in cell
    order.  Values are written with ``str``, the shortest repr that
    round-trips, so ``float()`` of a value gives back ``batch.values``
    exactly.

    The sequences are split into contiguous ranges, one per CPU this process
    may run on and never more than there are sequences.  Forked workers
    format every range but the first, each into its own temporary file,
    while this process formats the first; the pieces are the same bytes
    whatever the count.  Every worker is reaped before this returns or
    raises, and a worker's failure is raised here as a ``RuntimeError``
    naming its sequences."""
    step_of = np.empty(len(batch.order.permutation), dtype=int)
    for k, group in enumerate(batch.order.groups()):
        step_of[list(group)] = k
    count, n, d = batch.values.shape
    # One template per order; a sequence fills it with (s, v0, s, v1, ...).
    template = "".join(
        f"%d,{step_of[p]},{p},{j},%s\n" for p in range(n) for j in range(d)
    )
    ranges = max(1, min(cpu_count(), count))
    bounds = [count * i // ranges for i in range(ranges + 1)]
    workers = []
    try:
        for first, last in zip(bounds[1:-1], bounds[2:]):
            workers.append(Worker(
                f"tokens.csv: formatting sequences {first}-{last - 1}",
                _csv_blocks, template, batch.values, first, last, raw=True))
        rows = _csv_blocks(template, batch.values, 0, bounds[1])
        for worker in workers:
            rows += worker.result()
        return rows
    finally:
        for worker in workers:
            worker.close()
