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


def _per_probe(channel, levels: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``(level, s^2, sigma^2)`` for a (P,) array of levels or times, one per
    leading probe of the state ``x``, each as an array of shape
    (P, 1, ..., 1) of ``x``'s rank.  Each probe's row is its own scalar
    ``channel`` call, so it is checked and rounded as that call."""
    rows = np.array([(level, *channel(level)) for level in levels.tolist()])
    return rows.T.reshape((3, -1) + (1,) * (np.ndim(x) - 1))


def _channel_solve(
    cond: ConditionalGaussian,
    x: np.ndarray,
    signal_var: float | np.ndarray,
    noise_var: float | np.ndarray,
    gain: float | np.ndarray,
    probes: bool = False,
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
    (``lam`` of shape (cells, m)) each cell's row is checked alone.  With
    ``probes`` the variances (and a ``gain`` that varies by probe) are
    :func:`_per_probe` arrays, one entry per leading probe of ``x``, and
    each probe's slice is solved bit for bit as its own scalar call."""
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
    if probes:
        scale = (gain / denom).reshape(denom.shape[:-2] + (-1, 1))
        root = np.sqrt(signal_var)
    else:
        scale, root = (gain / denom).reshape(-1, 1), math.sqrt(signal_var)
    if vecs is None:
        return scale * (x - root * cond.mean)
    dev = np.asarray(x, dtype=np.float64) - root * cond.mean
    return vecs @ (scale * (vecs.T @ dev))


def _posterior_velocity(
    cond: ConditionalGaussian, x: np.ndarray, t: float | np.ndarray
) -> np.ndarray:
    """``E[eps - x0 | x] = t y - (mu + (1 - t) Sigma y)``, that is
    ``U ((t - (1 - t) lam) r) - mu``; ``t`` a float, or a (P,) array with
    one time per leading probe of ``x``."""
    probes = isinstance(t, np.ndarray)
    if probes:
        t, signal_var, noise_var = _per_probe(_flow_channel, t, x)
    else:
        signal_var, noise_var = _flow_channel(t)
    gain = t - (1.0 - t) * cond.spectrum[0]
    return _channel_solve(cond, x, signal_var, noise_var, gain, probes) - cond.mean


class ExactDenoiser:
    """Denoiser backed by the closed-form conditional Gaussian process.

    Every method takes the conditional context explicitly and accepts states
    of shape (m, d) or (batch, m, d).  Every output is an exact posterior
    mean from the same channel solve rather than a chained conversion, so
    the conversion identities of the module docstring can be cross-checked
    against this class.  No method calls another, so a call is one denoiser
    evaluation per level or time: :meth:`score` and :meth:`velocity` also
    take a (P,) array of them, one per leading probe of a (P, ...) state,
    each probe bit for bit its own scalar call.  Only the straightness
    probes, diagnostics not counted as NFE, call them so.
    """

    def epsilon(
        self, x: np.ndarray, alpha_bar: float, cond: ConditionalGaussian
    ) -> np.ndarray:
        signal_var, noise_var = _diffusion_channel(alpha_bar)
        y = _channel_solve(cond, x, signal_var, noise_var, 1.0)
        return math.sqrt(noise_var) * y

    def score(
        self, x: np.ndarray, alpha_bar: float | np.ndarray, cond: ConditionalGaussian
    ) -> np.ndarray:
        if isinstance(alpha_bar, np.ndarray):
            _, signal_var, noise_var = _per_probe(_diffusion_channel, alpha_bar, x)
            return _channel_solve(cond, x, signal_var, noise_var, -1.0, probes=True)
        return _channel_solve(cond, x, *_diffusion_channel(alpha_bar), -1.0)

    def x0(
        self, x: np.ndarray, alpha_bar: float, cond: ConditionalGaussian
    ) -> np.ndarray:
        signal_var, noise_var = _diffusion_channel(alpha_bar, allow_zero=True)
        gain = math.sqrt(signal_var) * cond.spectrum[0]
        return cond.mean + _channel_solve(cond, x, signal_var, noise_var, gain)

    def velocity(
        self, x: np.ndarray, t: float | np.ndarray, cond: ConditionalGaussian
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
