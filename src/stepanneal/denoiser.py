"""The exact denoiser: noise prediction (eps), score and velocity of the
closed-form conditional Gaussian process for a given conditional context.

The three parameterizations are related by

* diffusion level ``a`` (alpha-bar):  ``eps = -sqrt(1 - a) * score``
* flow time ``t``:                    ``eps = -t * score``
* flow velocity:                      ``v * (1 - t) = -(x + t * score)``

The velocity relation follows from the linear interpolation
``x_t = (1-t) x0 + t eps`` and the two posterior means satisfying
``(1-t) E[x0|x] + t E[eps|x] = x``: with ``E[eps|x] = -t * score`` one gets
``E[x0|x] = x - t v`` and ``E[eps|x] = x + (1-t) v``.

The exact oracle treats both domains as one Gaussian channel
``x = s x0 + sigma eps`` on the conditional ``x0 ~ N(mu, Sigma)``: diffusion
has ``(s^2, sigma^2) = (a, 1 - a)`` and flow ``((1 - t)^2, t^2)``.  With the
conditional's cached spectrum ``Sigma = U diag(lam) U^T`` the channel solve
``y = (s^2 Sigma + sigma^2 I)^-1 (x - s mu)`` is ``y = U r`` with
``r = U^T (x - s mu) / (s^2 lam + sigma^2)``, elementwise in the eigenbasis.
Every output is one back-rotation of a rescaled ``r``: ``score = -U r``,
``E[eps|x] = sigma U r`` and ``E[x0|x] = mu + U (s lam r)``.  On the
conditional's eigen view (:attr:`ConditionalGaussian.eigen`, whose spectrum
carries no rotation) states are already eigen-coordinates, and a call is the
elementwise ``(gain / (s^2 lam + sigma^2)) (x - s mu)`` with no rotation at
all; the samplers call the oracle on that view.

Samplers call an oracle with the conditional context passed through, so the
exact-process oracle below stays stateless; call counting lives in the
sampler's trajectory record.
"""

from __future__ import annotations

import math

import numpy as np

from .process import ConditionalGaussian, NumericalError

_EPS = float(np.finfo(np.float64).eps)


def _diffusion_channel(
    alpha_bar: float, allow_zero: bool = False
) -> tuple[float, float]:
    """Channel variances ``(s^2, sigma^2) = (a, 1 - a)`` at signal level ``a``;
    the pure-noise level ``a = 0`` only where ``allow_zero``."""
    if not 0.0 <= alpha_bar <= 1.0 or (alpha_bar == 0.0 and not allow_zero):
        raise ValueError(f"alpha_bar: must lie in {'[' if allow_zero else '('}0, 1]")
    return alpha_bar, 1.0 - alpha_bar


def _flow_channel(t: float) -> tuple[float, float]:
    """Channel variances ``(s^2, sigma^2) = ((1 - t)^2, t^2)`` at flow time ``t``."""
    if not 0.0 <= t <= 1.0:
        raise ValueError("t: must lie in [0, 1]")
    return (1.0 - t) ** 2, t**2


def _channel_solve(
    cond: ConditionalGaussian,
    x: np.ndarray,
    signal_var: float,
    noise_var: float,
    gain: float | np.ndarray,
) -> np.ndarray:
    """``U (gain * r)`` with ``r = U^T (x - s mu) / (s^2 lam + sigma^2)``,
    ``s = sqrt(signal_var)`` and ``Sigma = U diag(lam) U^T``, for states of
    shape (..., m, d).  ``r`` is the channel solve in the eigenbasis
    (``y = U r``, ``Sigma y = U (lam r)``), so every output is one rotation
    in, a per-eigenvalue ``gain`` (a scalar or an (m,) array) and one
    rotation back.  On an eigen view (``U`` is ``None``) the state is
    already in the eigenbasis and the solve is the elementwise
    ``(gain / denom) (x - s mu)``.  A channel whose smallest
    ``s^2 lam + sigma^2`` is zero to rounding (at most ``m`` ulps of the
    largest, the ``matrix_rank`` cut) is singular; on a stacked view
    (``lam`` of shape (cells, m)) each cell's row is checked alone."""
    lam, vecs = cond.spectrum
    denom = signal_var * lam + noise_var
    m = lam.shape[-1]
    rows = denom.reshape(-1, m)
    for low, high in zip(rows[:, 0].tolist(), rows[:, -1].tolist()):
        if low <= high * m * _EPS:
            raise NumericalError(
                f"marginal covariance is singular: eigenvalues of "
                f"s^2 Sigma + sigma^2 I span {low:.3e} to {high:.3e}"
            )
    scale = (gain / denom).reshape(-1, 1)
    if vecs is None:
        return scale * (x - math.sqrt(signal_var) * cond.mean)
    dev = np.asarray(x, dtype=np.float64) - math.sqrt(signal_var) * cond.mean
    return vecs @ (scale * (vecs.T @ dev))


def _posterior_velocity(
    cond: ConditionalGaussian, x: np.ndarray, t: float
) -> np.ndarray:
    """``E[eps - x0 | x] = t y - (mu + (1 - t) Sigma y)``, that is
    ``U ((t - (1 - t) lam) r) - mu``."""
    gain = t - (1.0 - t) * cond.spectrum[0]
    return _channel_solve(cond, x, *_flow_channel(t), gain) - cond.mean


class ExactDenoiser:
    """Denoiser backed by the closed-form conditional Gaussian process.

    Every method takes the conditional context explicitly and accepts states
    of shape (m, d) or (batch, m, d).  Every output is an exact posterior
    mean from the same channel solve rather than a chained conversion, so
    the conversion identities of the module docstring can be cross-checked
    against this class.  No method calls another, so each call is one
    denoiser evaluation.
    """

    def epsilon(
        self, x: np.ndarray, alpha_bar: float, cond: ConditionalGaussian
    ) -> np.ndarray:
        signal_var, noise_var = _diffusion_channel(alpha_bar)
        y = _channel_solve(cond, x, signal_var, noise_var, 1.0)
        return math.sqrt(noise_var) * y

    def score(
        self, x: np.ndarray, alpha_bar: float, cond: ConditionalGaussian
    ) -> np.ndarray:
        return _channel_solve(cond, x, *_diffusion_channel(alpha_bar), -1.0)

    def x0(
        self, x: np.ndarray, alpha_bar: float, cond: ConditionalGaussian
    ) -> np.ndarray:
        signal_var, noise_var = _diffusion_channel(alpha_bar, allow_zero=True)
        gain = math.sqrt(signal_var) * cond.spectrum[0]
        return cond.mean + _channel_solve(cond, x, signal_var, noise_var, gain)

    def velocity(
        self, x: np.ndarray, t: float, cond: ConditionalGaussian
    ) -> np.ndarray:
        return _posterior_velocity(cond, x, t)

    def flow_score(
        self, x: np.ndarray, t: float, cond: ConditionalGaussian
    ) -> np.ndarray:
        return _channel_solve(cond, x, *_flow_channel(t), -1.0)

    def velocity_and_flow_score(
        self, x: np.ndarray, t: float, cond: ConditionalGaussian
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both flow quantities from one call (one denoiser evaluation).  No
        package code calls it; ``bench/spans.py`` traces it."""
        return (_posterior_velocity(cond, x, t),
                _channel_solve(cond, x, *_flow_channel(t), -1.0))


class BiasedDenoiser(ExactDenoiser):
    """Exact denoiser with a constant bias added to the score.

    Negative control for oracle validation: a corrupted score must fail the
    finite-difference check.
    """

    def __init__(self, score_bias: float):
        self.score_bias = float(score_bias)

    def score(self, x, alpha_bar, cond):
        return super().score(x, alpha_bar, cond) + self.score_bias

    def epsilon(self, x, alpha_bar, cond):
        return -math.sqrt(1.0 - alpha_bar) * self.score(x, alpha_bar, cond)
