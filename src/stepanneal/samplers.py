"""Reverse-process steppers: ancestral, deterministic, exponential-integrator
and flow samplers driven by a denoiser oracle over a :class:`TimeGrid`.

Diffusion samplers call the denoiser at every grid index and take one
transition per call; after the call at index 0 the final transition targets
the clean state (signal fraction exactly 1), where every update formula
collapses to the data prediction and no sampler adds noise.  Flow samplers
walk the grid times from the start time down to 0, one evaluation per
interval.  The midpoint solver spends a second evaluation on every
transition except the terminal one, which falls back to first order (the
log-SNR midpoint of a hop to zero noise is degenerate).

Evaluation counts for a grid with S calls (``grid.step_count == S``):

===================  =========
ddpm / ddim          S
dpm_solver order 1   S
dpm_solver order 2   2 S - 1
dpm_solver_pp        S
euler_flow           S
euler_maruyama       S
===================  =========

In trajectory records, the state reached by the terminal clean transition is
listed at the virtual time -1 (levels entry 1.0), mirroring how discrete
reverse chains step past index 0.

Samplers are pure functions of (oracle, conditional, grid, rng stream); give
concurrent trajectories independent generators and nothing is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .process import ConditionalGaussian
from .schedules import DIFFUSION, FLOW, TimeGrid

DIFFUSION_SAMPLERS = ("ddpm", "ddim", "dpm_solver", "dpm_solver_pp")
FLOW_SAMPLERS = ("euler_flow", "euler_maruyama")
SAMPLER_KINDS = DIFFUSION_SAMPLERS + FLOW_SAMPLERS


@dataclass(frozen=True)
class SamplerConfig:
    """Which stepper to run and its knobs."""

    kind: str
    eta: float = 0.0
    order: int = 1
    sde_noise_scale: float = 1.0
    clamp: float | None = None

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"kind: unknown sampler {self.kind!r}")
        if self.eta < 0.0:
            raise ValueError("eta: must be >= 0")
        if self.order not in (1, 2):
            raise ValueError("order: must be 1 or 2")
        if self.sde_noise_scale < 0.0:
            raise ValueError("sde_noise_scale: must be >= 0")
        if self.clamp is not None and self.clamp <= 0.0:
            raise ValueError("clamp: must be positive when set")

    @property
    def domain(self) -> str:
        return DIFFUSION if self.kind in DIFFUSION_SAMPLERS else FLOW

    def calls(self, steps: int) -> int:
        """Denoiser calls of one run on a ``steps``-step grid (the table above)."""
        midpoint = self.kind == "dpm_solver" and self.order == 2
        return 2 * steps - 1 if midpoint else steps


@dataclass(eq=False)
class TrajectoryRecord:
    """What one sampler run visited and spent.

    ``times`` are the grid points, ``levels`` the matching signal fractions
    for diffusion runs.  ``states`` (one array per grid point) and
    ``outputs`` (primary denoiser output per transition) are kept only when
    path recording was requested.  ``nfe`` counts every denoiser evaluation,
    midpoints included.
    """

    domain: str
    times: np.ndarray
    nfe: int
    levels: np.ndarray | None = None
    states: list[np.ndarray] | None = None
    outputs: list[np.ndarray] | None = None

    def __post_init__(self):
        if self.states is not None and len(self.states) != len(self.times):
            raise ValueError("states: need one state per grid point")
        if self.outputs is not None and len(self.outputs) != len(self.times) - 1:
            raise ValueError("outputs: need one output per transition")

    @property
    def step_count(self) -> int:
        return len(self.times) - 1


class _Recorder:
    def __init__(self, domain: str, times: np.ndarray,
                 levels: np.ndarray | None, record: bool):
        self.domain = domain
        self.times = times
        self.levels = levels
        self.record = record
        self.states: list[np.ndarray] | None = [] if record else None
        self.outputs: list[np.ndarray] | None = [] if record else None
        self.nfe = 0

    def state(self, x: np.ndarray):
        if self.record:
            self.states.append(x.copy())

    def output(self, value: np.ndarray):
        if self.record:
            self.outputs.append(np.asarray(value).copy())

    def done(self) -> TrajectoryRecord:
        return TrajectoryRecord(
            domain=self.domain,
            times=self.times,
            nfe=self.nfe,
            levels=self.levels,
            states=self.states,
            outputs=self.outputs,
        )


def _start_noise(
    cond: ConditionalGaussian, rng: np.random.Generator, n_samples: int
) -> np.ndarray:
    if cond.mean.ndim == 3:
        return rng.standard_normal(cond.mean.shape)
    return rng.standard_normal((n_samples, cond.size, cond.mean.shape[-1]))


def _diffusion_walk(
    grid: TimeGrid, record: bool
) -> tuple[np.ndarray, _Recorder]:
    """Level sequence a sampler walks (terminal 1.0 appended when the grid
    ends on schedule index 0) and the matching trajectory recorder."""
    if grid.domain != DIFFUSION:
        raise ValueError("grid: this sampler requires a diffusion grid")
    if grid.levels is None:
        raise ValueError("grid: missing noise levels; build via make_diffusion_grid")
    levels = grid.levels
    times = grid.points
    if levels[-1] < 1.0:
        levels = np.concatenate([levels, [1.0]])
        times = np.concatenate([times, [-1.0]])
    return levels, _Recorder(DIFFUSION, times, levels, record)


def _flow_recorder(grid: TimeGrid, record: bool) -> _Recorder:
    if grid.domain != FLOW:
        raise ValueError("grid: this sampler requires a flow grid")
    return _Recorder(FLOW, grid.points, None, record)


def _x0_from_eps(
    x: np.ndarray, eps: np.ndarray, alpha_bar: float, clamp: float | None
) -> np.ndarray:
    x0 = (x - math.sqrt(1.0 - alpha_bar) * eps) / math.sqrt(alpha_bar)
    if clamp is not None:
        x0 = np.clip(x0, -clamp, clamp)
    return x0


def _log_snr(alpha_bar: float) -> float:
    return 0.5 * math.log(alpha_bar / (1.0 - alpha_bar))


# ---------------------------------------------------------------------------
# Diffusion samplers
# ---------------------------------------------------------------------------


def ddpm_sample(
    oracle,
    cond: ConditionalGaussian,
    grid: TimeGrid,
    rng: np.random.Generator,
    n_samples: int = 1,
    clamp: float | None = None,
    record_path: bool = False,
) -> tuple[np.ndarray, TrajectoryRecord]:
    """Ancestral sampling between consecutive grid levels.

    Each transition uses the exact posterior of the merged forward step with
    the lower-bound (beta-tilde) variance; at the terminal level the variance
    vanishes, so the output is the final data prediction with no added noise.
    """
    levels, rec = _diffusion_walk(grid, record_path)
    x = _start_noise(cond, rng, n_samples)
    rec.state(x)
    for i in range(len(levels) - 1):
        a_t, a_s = levels[i], levels[i + 1]
        eps = oracle.epsilon(x, a_t, cond)
        rec.nfe += 1
        rec.output(eps)
        x0 = _x0_from_eps(x, eps, a_t, clamp)
        ratio = a_t / a_s
        beta_eff = 1.0 - ratio
        coef_x0 = math.sqrt(a_s) * beta_eff / (1.0 - a_t)
        coef_xt = math.sqrt(ratio) * (1.0 - a_s) / (1.0 - a_t)
        var = beta_eff * (1.0 - a_s) / (1.0 - a_t)
        x = coef_x0 * x0 + coef_xt * x
        if var > 0.0:
            x = x + math.sqrt(var) * rng.standard_normal(x.shape)
        rec.state(x)
    return x, rec.done()


def ddim_sample(
    oracle,
    cond: ConditionalGaussian,
    grid: TimeGrid,
    rng: np.random.Generator,
    eta: float = 0.0,
    n_samples: int = 1,
    clamp: float | None = None,
    record_path: bool = False,
) -> tuple[np.ndarray, TrajectoryRecord]:
    """Deterministic-when-eta-0 update through the data prediction.

    ``eta`` interpolates the per-transition noise between none (0) and the
    ancestral amount (1); the terminal transition is always noise-free
    because its target level is clean.
    """
    if eta < 0.0:
        raise ValueError("eta: must be >= 0")
    levels, rec = _diffusion_walk(grid, record_path)
    x = _start_noise(cond, rng, n_samples)
    rec.state(x)
    for i in range(len(levels) - 1):
        a_t, a_s = levels[i], levels[i + 1]
        eps = oracle.epsilon(x, a_t, cond)
        rec.nfe += 1
        rec.output(eps)
        x0 = _x0_from_eps(x, eps, a_t, clamp)
        sigma2 = (eta**2) * ((1.0 - a_s) / (1.0 - a_t)) * (1.0 - a_t / a_s)
        sigma2 = min(sigma2, 1.0 - a_s)
        direction = math.sqrt(max(1.0 - a_s - sigma2, 0.0))
        x = math.sqrt(a_s) * x0 + direction * eps
        if sigma2 > 0.0:
            x = x + math.sqrt(sigma2) * rng.standard_normal(x.shape)
        rec.state(x)
    return x, rec.done()


def dpm_solver_sample(
    oracle,
    cond: ConditionalGaussian,
    grid: TimeGrid,
    rng: np.random.Generator,
    order: int = 1,
    n_samples: int = 1,
    record_path: bool = False,
) -> tuple[np.ndarray, TrajectoryRecord]:
    """Exponential integrator in log-SNR, noise-prediction parameterization.

    Order 1 per transition:
        ``x' = (a'/a) x - s' (e^h - 1) eps(x)``,  h the log-SNR increment.
    Order 2 inserts a midpoint evaluation at half the log-SNR increment and
    replaces ``eps(x)`` with the midpoint value.  The terminal transition
    (infinite increment) runs at order 1 via the equivalent coefficient form
    ``x' = x/a - (s/a) eps``, which is exactly the data prediction.
    """
    if order not in (1, 2):
        raise ValueError("order: must be 1 or 2")
    levels, rec = _diffusion_walk(grid, record_path)
    x = _start_noise(cond, rng, n_samples)
    rec.state(x)
    for i in range(len(levels) - 1):
        a_t, a_s = levels[i], levels[i + 1]
        alpha_t, sigma_t = math.sqrt(a_t), math.sqrt(1.0 - a_t)
        alpha_s, sigma_s = math.sqrt(a_s), math.sqrt(1.0 - a_s)
        terminal = i == len(levels) - 2
        eps = oracle.epsilon(x, a_t, cond)
        rec.nfe += 1
        rec.output(eps)
        if terminal or order == 1:
            if terminal:
                # sigma_s * e^h written as alpha_s * sigma_t / alpha_t: finite
                # even at the clean target where h diverges.
                x = (alpha_s / alpha_t) * x - (
                    alpha_s * sigma_t / alpha_t - sigma_s
                ) * eps
            else:
                h = _log_snr(a_s) - _log_snr(a_t)
                x = (alpha_s / alpha_t) * x - sigma_s * math.expm1(h) * eps
        else:
            lam_t, lam_s = _log_snr(a_t), _log_snr(a_s)
            h = lam_s - lam_t
            lam_mid = lam_t + 0.5 * h
            a_mid = 1.0 / (1.0 + math.exp(-2.0 * lam_mid))
            alpha_mid, sigma_mid = math.sqrt(a_mid), math.sqrt(1.0 - a_mid)
            u = (alpha_mid / alpha_t) * x - sigma_mid * math.expm1(0.5 * h) * eps
            eps_mid = oracle.epsilon(u, a_mid, cond)
            rec.nfe += 1
            x = (alpha_s / alpha_t) * x - sigma_s * math.expm1(h) * eps_mid
        rec.state(x)
    return x, rec.done()


def dpm_solver_pp_sample(
    oracle,
    cond: ConditionalGaussian,
    grid: TimeGrid,
    rng: np.random.Generator,
    n_samples: int = 1,
    clamp: float | None = None,
    record_path: bool = False,
) -> tuple[np.ndarray, TrajectoryRecord]:
    """Order-2 multistep solver in the data-prediction parameterization.

    The first transition bootstraps at order 1; every later transition
    reuses the previous data prediction for a linear-difference correction,
    costing one evaluation per transition.  The terminal transition drops
    back to order 1 (the standard lower-order final step).
    """
    levels, rec = _diffusion_walk(grid, record_path)
    if len(levels) - 1 < 2:
        raise ValueError("grid: the multistep solver needs at least 2 steps")
    x = _start_noise(cond, rng, n_samples)
    rec.state(x)
    lam = [_log_snr(a) for a in levels[:-1]]
    x0_prev: np.ndarray | None = None
    h_prev = 0.0
    for i in range(len(levels) - 1):
        a_t, a_s = levels[i], levels[i + 1]
        alpha_t, sigma_t = math.sqrt(a_t), math.sqrt(1.0 - a_t)
        alpha_s, sigma_s = math.sqrt(a_s), math.sqrt(1.0 - a_s)
        terminal = i == len(levels) - 2
        x0 = oracle.x0(x, a_t, cond)
        if clamp is not None:
            x0 = np.clip(x0, -clamp, clamp)
        rec.nfe += 1
        rec.output(x0)
        # e^{-h} = (sigma_s/alpha_s)/(sigma_t/alpha_t): zero at the clean target.
        exp_neg_h = (sigma_s * alpha_t) / (alpha_s * sigma_t)
        if x0_prev is None or terminal:
            x = (sigma_s / sigma_t) * x - alpha_s * (exp_neg_h - 1.0) * x0
        else:
            h = _log_snr(a_s) - lam[i]
            r = h_prev / h
            d1 = (x0 - x0_prev) / r
            x = (sigma_s / sigma_t) * x - alpha_s * (exp_neg_h - 1.0) * (x0 + 0.5 * d1)
        if not terminal:
            h_prev = _log_snr(a_s) - lam[i]
        x0_prev = x0
        rec.state(x)
    return x, rec.done()


# ---------------------------------------------------------------------------
# Flow samplers
# ---------------------------------------------------------------------------


def euler_flow_sample(
    oracle,
    cond: ConditionalGaussian,
    grid: TimeGrid,
    rng: np.random.Generator,
    n_samples: int = 1,
    record_path: bool = False,
) -> tuple[np.ndarray, TrajectoryRecord]:
    """Explicit Euler on the interpolation ODE, from noise at the start time
    down to the data at time 0."""
    rec = _flow_recorder(grid, record_path)
    times = grid.points
    x = _start_noise(cond, rng, n_samples)
    rec.state(x)
    for i in range(len(times) - 1):
        v = oracle.velocity(x, times[i], cond)
        rec.nfe += 1
        rec.output(v)
        x = x + (times[i + 1] - times[i]) * v
        rec.state(x)
    return x, rec.done()


def euler_maruyama_sample(
    oracle,
    cond: ConditionalGaussian,
    grid: TimeGrid,
    rng: np.random.Generator,
    sde_noise_scale: float = 1.0,
    n_samples: int = 1,
    record_path: bool = False,
) -> tuple[np.ndarray, TrajectoryRecord]:
    """Euler-Maruyama on a score-corrected SDE sharing the flow marginals.

    With diffusion coefficient ``g(t)^2 = 2 c t`` (c = ``sde_noise_scale``)
    the drift ``v(x, t) - c t * score(x, t)`` keeps every time marginal of
    the deterministic flow; the ``t``-taper keeps the score term
    integrable near the data end.  Scale 0 reduces exactly to
    :func:`euler_flow_sample`; the final transition adds no noise.
    """
    if sde_noise_scale < 0.0:
        raise ValueError("sde_noise_scale: must be >= 0")
    if sde_noise_scale == 0.0:
        return euler_flow_sample(
            oracle, cond, grid, rng, n_samples=n_samples, record_path=record_path
        )
    rec = _flow_recorder(grid, record_path)
    times = grid.points
    x = _start_noise(cond, rng, n_samples)
    rec.state(x)
    for i in range(len(times) - 1):
        t, t_next = times[i], times[i + 1]
        v, score = oracle.velocity_and_flow_score(x, t, cond)
        rec.nfe += 1
        rec.output(v)
        drift = v - sde_noise_scale * t * score
        x = x + (t_next - t) * drift
        if i < len(times) - 2:
            step_std = math.sqrt(2.0 * sde_noise_scale * t * (t - t_next))
            x = x + step_std * rng.standard_normal(x.shape)
        rec.state(x)
    return x, rec.done()


def sample_with_config(
    config: SamplerConfig,
    oracle,
    cond: ConditionalGaussian,
    grid: TimeGrid,
    rng: np.random.Generator,
    n_samples: int = 1,
    record_path: bool = False,
) -> tuple[np.ndarray, TrajectoryRecord]:
    """Dispatch on the configured sampler kind (validating grid domain)."""
    if grid.domain != config.domain:
        raise ValueError(
            f"grid: {config.kind} requires a {config.domain} grid, got {grid.domain}"
        )
    common = dict(n_samples=n_samples, record_path=record_path)
    if config.kind == "ddpm":
        return ddpm_sample(oracle, cond, grid, rng, clamp=config.clamp, **common)
    if config.kind == "ddim":
        return ddim_sample(
            oracle, cond, grid, rng, eta=config.eta, clamp=config.clamp, **common
        )
    if config.kind == "dpm_solver":
        return dpm_solver_sample(oracle, cond, grid, rng, order=config.order, **common)
    if config.kind == "dpm_solver_pp":
        return dpm_solver_pp_sample(
            oracle, cond, grid, rng, clamp=config.clamp, **common
        )
    if config.kind == "euler_flow":
        return euler_flow_sample(oracle, cond, grid, rng, **common)
    return euler_maruyama_sample(
        oracle, cond, grid, rng, sde_noise_scale=config.sde_noise_scale, **common
    )
