"""Reverse-process samplers: six samplers from four closed forms, run by
one executor.

Each sampler is a rule yielding one :class:`Transition` per oracle call.
The executor (:func:`sample_with_config`) starts from standard normal noise
and per transition makes exactly one call on the current state ``x``:
``oracle.x0(x, level)`` for the diffusion samplers or
``oracle.velocity(x, t)`` for the flow samplers.  It then sets
``x <- c_x x + c_pred pred + c_prev prev + noise_std xi``, with ``pred``
that call's output, ``prev`` the prediction made just before it and ``xi``
fresh standard normal noise (drawn only when ``noise_std > 0``).  The rules
share four closed forms:

- DDIM's eta hop, the one first-order diffusion transition.  ``ddpm`` is
  its eta 1 (the DDPM posterior step); DPM-Solver-1 and every first-order
  step of DPM-Solver and DPM-Solver++ are its eta 0.
- DPM-Solver-2's midpoint stage: an eta-0 hop to the log-SNR midpoint, its
  state not recorded, then the eta-0 hop from there applied to the blend of
  its prediction and the first stage's (``prev``) that makes the pair the
  noise-prediction exponential integrator's full hop.
- DPM-Solver++'s multistep correction: the eta-0 hop applied to
  ``pred + (pred - prev) / (2 r)``, so its first and terminal transitions
  are plain DDIM hops and it runs on a grid of any length.
- Euler-Maruyama on the score-corrected flow SDE (``euler_flow`` is its
  noise scale 0).

The executor walks in the conditional's eigen-coordinates ``U^T x``
(``Sigma = U diag(lam) U^T``): the updates are linear with isotropic noise,
so they commute with the orthogonal ``U``.  It draws the start noise and
every ``xi`` there (the same law), calls the oracle on the conditional's
:attr:`~stepanneal.process.ConditionalGaussian.eigen` view, where an exact
call is a per-eigenvalue scale, and rotates the final and recorded states
back once each.

Each rule walks the grid as given, one transition per step: the diffusion
samplers its ``levels``, ending at the clean state (level exactly 1), where
every rule reduces to the data prediction and adds no noise; the flow
samplers its times, down to 0.  The midpoint solver's last hop runs at
order 1 (the log-SNR midpoint of a hop to zero noise is degenerate).

Evaluation counts for a grid with S calls (``grid.step_count == S``):

===================  =========
ddpm / ddim          S
dpm_solver order 1   S
dpm_solver order 2   2 S - 1
dpm_solver_pp        S
euler_flow           S
euler_maruyama       S
===================  =========

Samplers are pure functions of (oracle, conditional, grid, rng stream); give
concurrent trajectories independent generators and nothing is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

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

    def __post_init__(self):
        if self.kind not in SAMPLER_KINDS:
            raise ValueError(f"kind: unknown sampler {self.kind!r}")
        if not self.eta >= 0.0:  # NaN fails too
            raise ValueError("eta: must be >= 0")
        if self.order not in (1, 2):
            raise ValueError("order: must be 1 or 2")
        if self.eta != 0.0 and self.kind != "ddim":
            raise ValueError(f"eta: only ddim reads it, not {self.kind}")
        if self.order != 1 and self.kind != "dpm_solver":
            raise ValueError(f"order: only dpm_solver reads it, not {self.kind}")
        if not self.sde_noise_scale >= 0.0:
            raise ValueError("sde_noise_scale: must be >= 0")
        if self.sde_noise_scale != 1.0 and self.kind != "euler_maruyama":
            raise ValueError(
                f"sde_noise_scale: only euler_maruyama reads it, not {self.kind}")

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

    ``grid`` is the grid walked.  ``states`` (one array per grid point) are
    kept only when path recording was requested.  ``nfe`` counts every
    denoiser evaluation, midpoints included.
    """

    grid: TimeGrid
    nfe: int
    states: list[np.ndarray] | None = None

    def __post_init__(self):
        if self.states is not None and len(self.states) != self.grid.points.size:
            raise ValueError("states: need one state per grid point")


class Transition(NamedTuple):
    """One oracle call at ``at`` (a level or a time), then
    ``x <- c_x x + c_pred pred + c_prev prev + noise_std xi``."""

    at: float
    c_x: float
    c_pred: float
    c_prev: float = 0.0
    noise_std: float = 0.0
    recorded: bool = True


def _log_snr(alpha_bar: float) -> float:
    return 0.5 * math.log(alpha_bar / (1.0 - alpha_bar))


def _hops(walk: np.ndarray) -> Iterator[tuple[float, float]]:
    return zip(walk[:-1].tolist(), walk[1:].tolist())


# Coefficient rules: (config, walk) -> transitions.  A diffusion walk is the
# grid's levels, ending at 1.0; a flow walk is its times.


def _ddim_step(a_t: float, a_s: float, eta: float) -> tuple[float, float, float]:
    """``(c_x, c_pred, noise_std)`` of DDIM's hop from level ``a_t`` to
    ``a_s``: ``x' = sqrt(a_s) pred + direction eps + sigma xi`` with
    ``eps = (x - sqrt(a_t) pred) / sqrt(1 - a_t)``.  At eta 1 it is the DDPM
    posterior step; at eta 0, DPM-Solver's first-order step."""
    sigma2 = (eta**2) * ((1.0 - a_s) / (1.0 - a_t)) * (1.0 - a_t / a_s)
    sigma2 = min(sigma2, 1.0 - a_s)
    direction = math.sqrt(max(1.0 - a_s - sigma2, 0.0))
    c_x = direction / math.sqrt(1.0 - a_t)
    return c_x, math.sqrt(a_s) - c_x * math.sqrt(a_t), math.sqrt(sigma2)


def _ddim(config: SamplerConfig, levels: np.ndarray) -> Iterator[Transition]:
    eta = 1.0 if config.kind == "ddpm" else config.eta
    for a_t, a_s in _hops(levels):
        c_x, c_pred, noise_std = _ddim_step(a_t, a_s, eta)
        yield Transition(a_t, c_x, c_pred, noise_std=noise_std)


def _dpm_solver(config: SamplerConfig, levels: np.ndarray) -> Iterator[Transition]:
    for a_t, a_s in _hops(levels):
        if config.order == 1 or a_s == 1.0:
            c_x, c_pred, _ = _ddim_step(a_t, a_s, 0.0)
            yield Transition(a_t, c_x, c_pred)
            continue
        lam_t = _log_snr(a_t)
        h = _log_snr(a_s) - lam_t
        a_mid = 1.0 / (1.0 + math.exp(-2.0 * (lam_t + 0.5 * h)))
        c_x1, c_pred1, _ = _ddim_step(a_t, a_mid, 0.0)
        yield Transition(a_t, c_x1, c_pred1, recorded=False)
        # x' = (alpha_s/alpha_t) x - sigma_s (e^h - 1) eps(u), eps(u) =
        # (u - alpha_mid pred) / sigma_mid, in terms of the midpoint state
        # u = c_x1 x + c_pred1 prev: the eta-0 hop from u applied to a blend of
        # pred and prev whose weight on pred is sigma_s (e^h - 1) alpha_mid /
        # sigma_mid.  Computing x's coefficient as the hop's sigma_s /
        # sigma_mid avoids cancelling two terms of order alpha_s / alpha_t.
        c_x, c_hop, _ = _ddim_step(a_mid, a_s, 0.0)
        c_pred = math.sqrt((1.0 - a_s) * a_mid / (1.0 - a_mid)) * math.expm1(h)
        yield Transition(a_mid, c_x, c_pred, c_hop - c_pred)


def _dpm_solver_pp(config: SamplerConfig, levels: np.ndarray) -> Iterator[Transition]:
    h_prev = None
    for a_t, a_s in _hops(levels):
        c_x, c_pred, _ = _ddim_step(a_t, a_s, 0.0)
        h = _log_snr(a_s) - _log_snr(a_t) if a_s < 1.0 else None
        # The hop applied to pred + (pred - prev) / (2 r), r = h_prev / h: the
        # multistep correction, dropped on the first and terminal transitions.
        half_d = 0.0 if h is None or h_prev is None else 0.5 * h / h_prev
        yield Transition(a_t, c_x, c_pred * (1.0 + half_d), -c_pred * half_d)
        h_prev = h


def _euler_maruyama(config: SamplerConfig, times: np.ndarray) -> Iterator[Transition]:
    """With ``g(t)^2 = 2 c t`` the drift ``v - c t score`` keeps every time
    marginal of the flow ODE; the score ``-(x + (1 - t) v) / t`` makes it
    ``(1 + c (1 - t)) v + c x``.  ``euler_flow`` is ``c = 0``, and the final
    transition adds no noise."""
    c = config.sde_noise_scale if config.kind == "euler_maruyama" else 0.0
    last = len(times) - 2
    for i, (t, t_next) in enumerate(_hops(times)):
        dt = t_next - t
        yield Transition(
            t,
            c_x=1.0 + c * dt,
            c_pred=dt * (1.0 + c * (1.0 - t)),
            noise_std=math.sqrt(2.0 * c * t * (t - t_next)) if i < last else 0.0,
        )


_RULES = {"ddpm": _ddim, "ddim": _ddim, "dpm_solver": _dpm_solver,
          "dpm_solver_pp": _dpm_solver_pp, "euler_flow": _euler_maruyama,
          "euler_maruyama": _euler_maruyama}


def sample_with_config(
    config: SamplerConfig,
    oracle,
    cond: ConditionalGaussian,
    grid: TimeGrid,
    rng: np.random.Generator,
    n_samples: int = 1,
    record_path: bool = False,
) -> tuple[np.ndarray, TrajectoryRecord]:
    """Run the configured sampler's rule on ``grid`` (the executor above);
    return the final state and the run's record.  A batched (3-D) conditional
    mean runs one sample per batch entry, so ``n_samples`` must then be 1."""
    if cond.mean.ndim == 3 and n_samples != 1:
        raise ValueError(f"n_samples: must be 1 with a batched mean, got {n_samples}")
    if grid.domain != config.domain:
        raise ValueError(
            f"grid: {config.kind} requires a {config.domain} grid, got {grid.domain}"
        )
    if config.domain == DIFFUSION:
        predict, walk = oracle.x0, grid.levels
    else:
        predict, walk = oracle.velocity, grid.points
    vecs = cond.spectrum[1]
    if vecs is None:  # an eigen view walks in its own coordinates
        vecs = np.eye(cond.size)
    eigen = cond.eigen
    batch = () if cond.mean.ndim == 3 else (n_samples,)
    x = rng.standard_normal(batch + cond.mean.shape)
    states = [x] if record_path else None
    prev = None
    nfe = 0
    for step in _RULES[config.kind](config, walk):
        pred = predict(x, step.at, eigen)
        nfe += 1
        new = step.c_x * x + step.c_pred * pred
        if step.c_prev:
            new += step.c_prev * prev
        if step.noise_std > 0.0:
            new += step.noise_std * rng.standard_normal(x.shape)
        x, prev = new, pred
        if states is not None and step.recorded:
            states.append(x)
    if states is not None:
        states = [vecs @ state for state in states]
    return vecs @ x, TrajectoryRecord(grid, nfe, states)

