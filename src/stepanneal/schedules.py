"""Discrete noise schedules and the time grids samplers walk.

Conventions
-----------
A :class:`DiffusionSchedule` holds ``betas[t]`` and the cumulative signal
products ``alpha_bars[t] = prod_{s<=t} (1 - betas[s])`` on a base grid of
``base_step_count`` indices (default 1000).  Index 0 is the *least* noisy
schedule level, index ``base_step_count - 1`` the noisiest.

A :class:`TimeGrid` is the whole reverse walk: strictly decreasing points
ending at the clean state, each point but the last a denoiser call site, so
``S + 1`` points take ``S`` steps and ``S`` calls of a single-evaluation
sampler.  Flow grids span uniform intervals down to time 0.0.  Diffusion
grids hold schedule indices, then the clean state at point -1 (signal
fraction exactly 1); the one-step grid is the hop ``[start_index, -1]``.

All arithmetic is float64.  Constructed objects are immutable and safe to
share across workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

DIFFUSION = "discrete_diffusion"
FLOW = "continuous_flow"

#: Highest clip for the per-step noise rate recovered from a cosine profile.
MAX_BETA = 0.999


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class DiffusionSchedule:
    """Discrete noise schedule: per-step rates and cumulative products."""

    kind: str
    betas: np.ndarray
    alpha_bars: np.ndarray

    def __post_init__(self):
        betas = _readonly(self.betas)
        if betas.ndim != 1 or betas.size < 2:
            raise ValueError("betas: need a 1-d sequence of length >= 2")
        if np.any(betas <= 0.0) or np.any(betas >= 1.0):
            raise ValueError("betas: every entry must lie strictly in (0, 1)")
        alpha_bars = _readonly(self.alpha_bars)
        if alpha_bars.shape != betas.shape:
            raise ValueError("alpha_bars: length must match betas")
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "alpha_bars", alpha_bars)

    @property
    def base_step_count(self) -> int:
        return int(self.betas.size)


def build_linear_beta(
    base_step_count: int = 1000, beta_start: float = 1e-4, beta_end: float = 0.02
) -> DiffusionSchedule:
    """Schedule with betas linearly interpolated between the two endpoints."""
    if base_step_count < 2:
        raise ValueError("base_step_count: must be >= 2")
    if not (0.0 < beta_start <= beta_end):
        raise ValueError("beta_start: need 0 < beta_start <= beta_end")
    if beta_end >= 1.0:
        raise ValueError("beta_end: must be < 1")
    betas = np.linspace(beta_start, beta_end, base_step_count)
    return DiffusionSchedule(
        kind="linear", betas=betas, alpha_bars=np.cumprod(1.0 - betas)
    )


def build_cosine_alpha_bar(
    base_step_count: int = 1000, small_offset: float = 0.008
) -> DiffusionSchedule:
    """Schedule whose signal products follow a squared-cosine profile.

    ``alpha_bars[t] = f(t + 1) / f(0)`` with
    ``f(u) = cos^2(((u / N + s) / (1 + s)) * pi / 2)``, where the implied
    per-step rate ``1 - alpha_bars[t] / alpha_bars[t - 1]`` is clipped at
    ``MAX_BETA`` and the products rebuilt from the clipped rates.
    """
    if base_step_count < 2:
        raise ValueError("base_step_count: must be >= 2")
    if small_offset < 0.0:
        raise ValueError(f"small_offset: must be >= 0, got {small_offset}")
    n, s = base_step_count, small_offset
    u = np.arange(n + 1, dtype=np.float64)
    profile = np.cos(((u / n + s) / (1.0 + s)) * (math.pi / 2.0)) ** 2
    raw = profile[1:] / profile[0]
    betas = np.minimum(1.0 - raw / np.concatenate([[1.0], raw[:-1]]), MAX_BETA)
    return DiffusionSchedule(
        kind="cosine", betas=betas, alpha_bars=np.cumprod(1.0 - betas)
    )


#: The noise schedules a run can name, one builder each.
SCHEDULE_KINDS = ("linear", "cosine")


@dataclass(frozen=True, eq=False)
class TimeGrid:
    """Strictly decreasing reverse walk ending at the clean state.

    A flow grid's points are the times and end at 0.  A diffusion grid
    carries ``levels``, the signal fraction (alpha-bar) at each point,
    strictly increasing within (0, 1] and ending at exactly 1 (the clean
    state, point -1 on grids built by :func:`make_diffusion_grid`).
    """

    domain: str
    points: np.ndarray
    levels: np.ndarray | None = None

    def __post_init__(self):
        if self.domain not in (DIFFUSION, FLOW):
            raise ValueError(f"domain: unknown value {self.domain!r}")
        pts = _readonly(self.points)
        if pts.ndim != 1 or pts.size < 2:
            raise ValueError("points: need at least two grid points")
        if np.any(np.diff(pts) >= 0.0):
            raise ValueError("points: must be strictly decreasing")
        object.__setattr__(self, "points", pts)
        if self.domain == FLOW:
            if pts[-1] != 0.0:
                raise ValueError("points: a flow grid must end at time 0")
            if self.levels is not None:
                raise ValueError("levels: a flow grid has none; its points are times")
            return
        if self.levels is None:
            raise ValueError("levels: a diffusion grid needs its noise levels")
        lv = _readonly(self.levels)
        if lv.shape != pts.shape:
            raise ValueError("levels: must match points in length")
        if np.any(np.diff(lv) <= 0.0) or lv[0] <= 0.0 or lv[-1] != 1.0:
            raise ValueError("levels: must increase strictly within (0, 1] and end at 1")
        object.__setattr__(self, "levels", lv)

    @property
    def step_count(self) -> int:
        """Steps of the walk: the denoiser calls a single-evaluation sampler
        spends on it."""
        return int(self.points.size - 1)


def make_diffusion_grid(
    schedule: DiffusionSchedule, num_steps: int, start_index: int | None = None
) -> TimeGrid:
    """Subsample ``num_steps`` indices from ``start_index`` down to 0, then
    end at the clean state (point -1, level 1).

    Spacing is uniform with fractional positions truncated toward zero, so
    e.g. 5 indices from 999 are ``[999, 749, 499, 249, 0, -1]``.  Every index
    is a denoiser call site, so the grid costs ``num_steps`` calls;
    ``num_steps == 1`` is the direct hop ``[start_index, -1]``.

    ``start_index`` defaults to the top of the base grid.  It must be at
    least 1: samplers start from standard normal noise, which a walk from
    index 0, the least noisy level, would hop straight to the clean state.
    """
    base = schedule.base_step_count
    if start_index is None:
        start_index = base - 1
    if not 1 <= start_index < base:
        raise ValueError(f"start_index: must lie in [1, {base}), got {start_index}")
    if not 1 <= num_steps <= start_index + 1:
        raise ValueError("num_steps: must lie in [1, start_index + 1]")
    indices = np.floor(np.linspace(start_index, 0.0, num_steps))
    if np.any(np.diff(indices) >= 0.0):
        raise ValueError(
            "num_steps: rounding produced duplicate indices; use fewer steps"
        )
    levels = np.append(schedule.alpha_bars[indices.astype(int)], 1.0)
    return TimeGrid(DIFFUSION, np.append(indices, -1.0), levels)


def make_flow_grid(num_steps: int, start_time: float = 1.0) -> TimeGrid:
    """Uniform real grid from ``start_time`` down to 0.0 in ``num_steps``
    intervals."""
    if num_steps < 1:
        raise ValueError("num_steps: must be >= 1")
    if not 0.0 < start_time <= 1.0:
        raise ValueError("start_time: must lie in (0, 1]")
    points = np.linspace(start_time, 0.0, num_steps + 1)
    return TimeGrid(domain=FLOW, points=points)
