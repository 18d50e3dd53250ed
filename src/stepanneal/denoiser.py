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

So a call is affine in ``x``, ``U (scale (U^T x - root mu))`` with
``root = s`` and ``scale = gain / (s^2 lam + sigma^2)``: one row of a table
(:meth:`ExactDenoiser.affine`) that depends on the eigenvalues alone, built
once for all the calls of a walk, or of every walk on one grid.

Samplers call an oracle with the conditional context passed through, so the
exact-process oracle below stays stateless; call counting lives in the
sampler's trajectory record.
"""

from __future__ import annotations

import math

import numpy as np

from .process import ConditionalGaussian, NumericalError
from .schedules import DIFFUSION

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


# A call's kind: its channel and its per-eigenvalue gain as a function of
# (level or time, s^2, lam).  E[x0|x] = mu + U (s lam r), E[eps - x0|x] =
# U ((t - (1 - t) lam) r) - mu and the score is -U r (E[eps|x] = -sigma score).
_X0 = (lambda a: _diffusion_channel(a, allow_zero=True),
       lambda a, signal_var, lam: np.sqrt(signal_var) * lam)
_VELOCITY = (_flow_channel, lambda t, signal_var, lam: t - (1.0 - t) * lam)
_SCORE = (_diffusion_channel, lambda *_: -1.0)
_FLOW_SCORE = (_flow_channel, lambda *_: -1.0)


def _table(lam: np.ndarray, kind, ats) -> tuple[np.ndarray, np.ndarray]:
    """The affine rows ``(root, scale)`` of the channel solve at a sequence of
    T levels or times: ``root`` (T,) is ``s`` and ``scale`` (T, M, 1) is
    ``gain / (s^2 lam + sigma^2)`` over the M eigenvalues ``lam``, so a
    call at row i is ``U (scale[i] (U^T x - root[i] mu))``.  Each level goes
    through the scalar ``channel`` check, and every row is bit for bit that
    level's scalar arithmetic.  A channel whose smallest
    ``s^2 lam + sigma^2`` is zero to rounding (at most ``m`` ulps of the
    largest, the ``matrix_rank`` cut) is singular; on a stack (``lam`` of
    shape (cells, m)) each cell's row is checked alone, and the first
    singular (row, cell) in order raises."""
    gain, count = kind[1], len(ats)
    channel = np.array([(a, *kind[0](a)) for a in ats], dtype=np.float64)
    at, signal_var, noise_var = channel.reshape(count, 3).T.reshape(
        (3, count) + (1,) * lam.ndim)
    denom = signal_var * lam + noise_var
    m = lam.shape[-1]
    rows = denom.reshape(-1, m)
    low, high = rows[:, 0], rows[:, -1]
    singular = low <= high * m * _EPS
    if singular.any():
        i = int(singular.argmax())
        raise NumericalError(
            f"marginal covariance is singular: eigenvalues of "
            f"s^2 Sigma + sigma^2 I span {low[i]:.3e} to {high[i]:.3e}"
        )
    scale = gain(at, signal_var, lam) / denom
    return np.sqrt(signal_var).reshape(count), scale.reshape(count, -1, 1)


def _row(cond, kind, at, x):
    """The affine row at one level or time ``at``; or, for a (P,) array of
    them, a P-row table shaped against the probe states ``x`` of shape
    (P, ..., M, d), each probe's row its own scalar call's."""
    if not isinstance(at, np.ndarray):
        root, scale = _table(cond.spectrum[0], kind, [at])
        return root.item(), scale[0]
    root, scale = _table(cond.spectrum[0], kind, at.tolist())
    lead = (-1,) + (1,) * (np.ndim(x) - 3)
    return root.reshape(lead + (1, 1)), scale.reshape(lead + scale.shape[1:])


def _solve(cond: ConditionalGaussian, x: np.ndarray, root, scale) -> np.ndarray:
    """``U (scale (U^T x - root mu))`` for states of shape (..., m, d): one
    rotation in, a per-eigenvalue scale and one rotation back.  On an eigen
    view (``U`` is ``None``) the state is already in the eigenbasis and the
    solve is the elementwise ``scale (x - root mu)``."""
    vecs = cond.spectrum[1]
    if vecs is None:
        return scale * (x - root * cond.mean)
    dev = np.asarray(x, dtype=np.float64) - root * cond.mean
    return vecs @ (scale * (vecs.T @ dev))


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
    :meth:`x0` and :meth:`velocity` also take their call's ``row`` of an
    :meth:`affine` table, and then skip the channel algebra, bit for bit.
    """

    def affine(
        self, lam: np.ndarray, domain: str, ats
    ) -> tuple[np.ndarray, np.ndarray]:
        """The rows ``(root, scale)`` of :meth:`x0` (``domain`` diffusion,
        ``ats`` levels) or :meth:`velocity` (flow, ``ats`` times) at each of
        a sequence of T levels or times, on a conditional whose spectrum's
        eigenvalues are ``lam`` (m,), or on a stack of them (cells, m), with
        every level checked and every (row, cell) channel checked for
        singularity before any call."""
        return _table(lam, _X0 if domain == DIFFUSION else _VELOCITY, ats)

    def epsilon(
        self, x: np.ndarray, alpha_bar: float, cond: ConditionalGaussian
    ) -> np.ndarray:
        score = _solve(cond, x, *_row(cond, _SCORE, alpha_bar, x))
        return -math.sqrt(1.0 - alpha_bar) * score

    def score(
        self, x: np.ndarray, alpha_bar: float | np.ndarray, cond: ConditionalGaussian
    ) -> np.ndarray:
        return _solve(cond, x, *_row(cond, _SCORE, alpha_bar, x))

    def x0(
        self, x: np.ndarray, alpha_bar: float, cond: ConditionalGaussian, row=None
    ) -> np.ndarray:
        if row is None:
            row = _row(cond, _X0, alpha_bar, x)
        return cond.mean + _solve(cond, x, *row)

    def velocity(
        self, x: np.ndarray, t: float | np.ndarray, cond: ConditionalGaussian, row=None
    ) -> np.ndarray:
        if row is None:
            row = _row(cond, _VELOCITY, t, x)
        return _solve(cond, x, *row) - cond.mean

    def flow_score(
        self, x: np.ndarray, t: float, cond: ConditionalGaussian
    ) -> np.ndarray:
        return _solve(cond, x, *_row(cond, _FLOW_SCORE, t, x))

    def velocity_and_flow_score(
        self, x: np.ndarray, t: float, cond: ConditionalGaussian
    ) -> tuple[np.ndarray, np.ndarray]:
        """Both flow quantities from one call (one denoiser evaluation).  No
        package code calls it; ``bench/spans.py`` traces it."""
        return (_solve(cond, x, *_row(cond, _VELOCITY, t, x)) - cond.mean,
                _solve(cond, x, *_row(cond, _FLOW_SCORE, t, x)))


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
