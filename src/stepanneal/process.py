"""Synthetic autoregressive token process with exact Gaussian conditionals.

Tokens live on an ``grid_height x grid_width`` lattice; each position carries
a ``token_dim``-dimensional value whose dimensions are i.i.d. draws from one
spatial Gaussian field, so the joint law is fully described by an ``n x n``
covariance (``n`` = number of positions) shared across dimensions.  Because
the joint is Gaussian, the next-token conditional ``N(mu, Sigma)`` at any
point of the generation order is available in closed form.  Together with
:class:`stepanneal.denoiser.ExactDenoiser`, which solves the noisy channel
``x = s x0 + sigma eps`` against it, this plays the role of a trained
backbone plus denoising head, which lets sampler behaviour be checked
against exact truth.

Specs, solvers and conditionals are immutable after construction and safe to
share across concurrent workers.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_triangular


logger = logging.getLogger("stepanneal")


class NumericalError(RuntimeError):
    """Raised when a covariance factorization fails beyond repair."""


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class TokenProcessSpec:
    """Parameters of the joint Gaussian token field."""

    grid_height: int = 4
    grid_width: int = 4
    token_dim: int = 4
    kernel: str = "rbf"
    length_scale: float = 2.0
    marginal_std: float = 1.0
    mean_field: np.ndarray | None = None
    jitter: float = 1e-8

    def __post_init__(self):
        if self.grid_height < 1 or self.grid_width < 1:
            raise ValueError("grid_height/grid_width: must be positive")
        if self.token_dim < 1:
            raise ValueError("token_dim: must be positive")
        if self.kernel not in ("rbf", "ar1"):
            raise ValueError(f"kernel: unknown kind {self.kernel!r}")
        if self.length_scale <= 0.0:
            raise ValueError("length_scale: must be positive")
        if self.marginal_std <= 0.0:
            raise ValueError("marginal_std: must be positive")
        if self.jitter <= 0.0:
            raise ValueError("jitter: must be positive")
        mean = self.mean_field
        if mean is None:
            mean = np.zeros(self.token_count)
        mean = _readonly(np.asarray(mean, dtype=np.float64).reshape(-1))
        if mean.size != self.token_count:
            raise ValueError("mean_field: need one value per grid position")
        object.__setattr__(self, "mean_field", mean)

    @property
    def token_count(self) -> int:
        return self.grid_height * self.grid_width

    def positions(self) -> np.ndarray:
        """(n, 2) array of (row, col) coordinates in position order."""
        rows, cols = np.divmod(np.arange(self.token_count), self.grid_width)
        return np.stack([rows, cols], axis=1).astype(np.float64)


def default_spec(token_dim: int = 4) -> TokenProcessSpec:
    """The standard experiment field: 4x4 grid, rbf kernel, ell=2, sigma=1."""
    return TokenProcessSpec(token_dim=token_dim)


def joint_covariance(spec: TokenProcessSpec) -> np.ndarray:
    """Dense n x n position covariance (jitter included on the diagonal)."""
    pos = spec.positions()
    diff = pos[:, None, :] - pos[None, :, :]
    dist2 = np.sum(diff * diff, axis=-1)
    s2 = spec.marginal_std**2
    if spec.kernel == "rbf":
        cov = s2 * np.exp(-dist2 / (2.0 * spec.length_scale**2))
    else:  # ar1: exponential decay in grid distance
        cov = s2 * np.exp(-np.sqrt(dist2) / spec.length_scale)
    cov = cov + spec.jitter * np.eye(spec.token_count)
    try:
        np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        smallest = float(np.linalg.eigvalsh(cov)[0])
        raise NumericalError(
            f"joint covariance not positive definite after jitter "
            f"(smallest eigenvalue ~ {smallest:.3e})"
        ) from None
    return cov


@dataclass(frozen=True, eq=False)
class GenerationOrder:
    """Partition of the positions into the groups emitted per AR step."""

    permutation: tuple[int, ...]
    group_sizes: tuple[int, ...]

    def __post_init__(self):
        n = len(self.permutation)
        if sorted(self.permutation) != list(range(n)):
            raise ValueError("permutation: must be a bijection of 0..n-1")
        if any(g < 1 for g in self.group_sizes):
            raise ValueError("group_sizes: must all be positive")
        if sum(self.group_sizes) != n:
            raise ValueError("group_sizes: must sum to the position count")

    @property
    def step_count(self) -> int:
        return len(self.group_sizes)

    def groups(self) -> list[tuple[int, ...]]:
        out, start = [], 0
        for size in self.group_sizes:
            out.append(tuple(self.permutation[start : start + size]))
            start += size
        return out


def _split_sizes(n: int, group_count: int) -> tuple[int, ...]:
    if not 1 <= group_count <= n:
        raise ValueError("group_count: must lie in [1, token_count]")
    base, extra = divmod(n, group_count)
    return tuple(base + (1 if k < extra else 0) for k in range(group_count))


def random_order(
    spec: TokenProcessSpec, group_count: int, seed: int
) -> GenerationOrder:
    """Seeded uniform-random permutation with near-equal group sizes."""
    perm = np.random.default_rng(seed).permutation(spec.token_count)
    return GenerationOrder(
        permutation=tuple(int(p) for p in perm),
        group_sizes=_split_sizes(spec.token_count, group_count),
    )


def raster_order(spec: TokenProcessSpec, group_count: int) -> GenerationOrder:
    """Row-major order with near-equal group sizes."""
    return GenerationOrder(
        permutation=tuple(range(spec.token_count)),
        group_sizes=_split_sizes(spec.token_count, group_count),
    )


@dataclass(frozen=True, eq=False)
class ConditionalGaussian:
    """Exact next-token conditional: mean (m x d, or batched B x m x d) and a
    position covariance (m x m) shared by the i.i.d. token dimensions."""

    target_positions: tuple[int, ...]
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        cov = _readonly(self.covariance)
        m = len(self.target_positions)
        if mean.ndim not in (2, 3) or mean.shape[-2] != m:
            raise ValueError("mean: expected shape (m, d) or (batch, m, d)")
        if cov.shape != (m, m):
            raise ValueError("covariance: expected shape (m, m)")
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ValueError("covariance: must be symmetric")
        mean = mean.copy()
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def size(self) -> int:
        return len(self.target_positions)


@dataclass(frozen=True, eq=False)
class ConditionalSolver:
    """Reusable pieces of one conditioning step: the regression weights from
    observed onto target positions and the (prefix-independent) conditional
    covariance.  Means for many prefixes can then be formed by matrix
    products, which is what the batched generation loop uses.

    ``factor`` is the lower Cholesky factor of the joint covariance of the
    observed then the target positions, in that order; passing it to the
    next step's :func:`conditional_solver` extends it instead of factoring
    the grown observed block again."""

    observed_positions: tuple[int, ...]
    target_positions: tuple[int, ...]
    weights: np.ndarray  # (m, o)
    covariance: np.ndarray  # (m, m)
    factor: np.ndarray  # (o + m, o + m)

    def mean(self, spec: TokenProcessSpec, observed_values: np.ndarray) -> np.ndarray:
        """Conditional mean for observed token values of shape (o, d) or
        (batch, o, d)."""
        obs_idx = np.asarray(self.observed_positions, dtype=int)
        tgt_idx = np.asarray(self.target_positions, dtype=int)
        mu_t = spec.mean_field[tgt_idx][:, None]
        observed_values = np.asarray(observed_values, dtype=np.float64)
        if obs_idx.size == 0:
            shape = observed_values.shape[:-2] + (tgt_idx.size, observed_values.shape[-1])
            return np.broadcast_to(mu_t, shape).copy()
        mu_o = spec.mean_field[obs_idx][:, None]
        return mu_t + self.weights @ (observed_values - mu_o)

    def conditional(
        self, spec: TokenProcessSpec, observed_values: np.ndarray
    ) -> ConditionalGaussian:
        mean = self.mean(spec, observed_values)
        if mean.ndim == 2:
            d = spec.token_dim
            mean = np.broadcast_to(mean, (len(self.target_positions), d)).copy()
        return ConditionalGaussian(
            target_positions=self.target_positions,
            mean=mean,
            covariance=self.covariance,
        )


def _cholesky(mat: np.ndarray, what: str) -> np.ndarray:
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"{what} is not positive definite: {exc}") from exc


def conditional_solver(
    spec: TokenProcessSpec,
    observed_positions,
    target_positions,
    cov: np.ndarray | None = None,
    factor: np.ndarray | None = None,
) -> ConditionalSolver:
    """Schur-complement conditioning through one growing Cholesky factor.

    ``factor`` is the lower Cholesky factor L of the observed block, in the
    order of ``observed_positions``, usually the previous step's
    ``ConditionalSolver.factor``; without it the observed block is factored
    here.  With ``B = L^-1 Sigma_ot`` (one triangular solve) the weights are
    ``(L^-T B)^T`` (a second one), the conditional covariance is
    ``Sigma_tt - B^T B`` and the returned factor is
    ``[[L, 0], [B^T, chol(Sigma_tt - B^T B)]]``.  Threading it along a
    generation order costs triangular solves, never an explicit inverse or a
    second factorisation of the observed block."""
    obs_idx = np.asarray(observed_positions, dtype=int).reshape(-1)
    tgt_idx = np.asarray(target_positions, dtype=int).reshape(-1)
    all_idx = np.concatenate([obs_idx, tgt_idx])
    if np.isin(tgt_idx, obs_idx).any():
        raise ValueError("observed/target positions must be disjoint")
    if np.unique(all_idx).size != all_idx.size:
        raise ValueError("positions: duplicates are not allowed")
    if all_idx.size and not 0 <= all_idx.min() <= all_idx.max() < spec.token_count:
        raise ValueError("positions: out of range for this grid")
    if cov is None:
        cov = joint_covariance(spec)
    o, m = obs_idx.size, tgt_idx.size
    if factor is None:
        factor = _cholesky(cov[np.ix_(obs_idx, obs_idx)], "observed block")
    elif np.shape(factor) != (o, o):
        raise ValueError(
            f"factor: expected shape ({o}, {o}) for {o} observed positions, "
            f"got {np.shape(factor)}"
        )
    b = solve_triangular(
        factor, cov[np.ix_(obs_idx, tgt_idx)], lower=True, check_finite=False
    )
    weights = solve_triangular(factor, b, lower=True, trans="T", check_finite=False).T
    cond_cov = cov[np.ix_(tgt_idx, tgt_idx)] - b.T @ b
    cond_cov = 0.5 * (cond_cov + cond_cov.T)
    grown = np.empty((o + m, o + m))
    grown[:o, :o] = factor
    grown[:o, o:] = 0.0
    grown[o:, :o] = b.T
    grown[o:, o:] = _cholesky(cond_cov, "conditional covariance")
    return ConditionalSolver(
        observed_positions=tuple(obs_idx.tolist()),
        target_positions=tuple(tgt_idx.tolist()),
        weights=weights,
        covariance=cond_cov,
        factor=_readonly(grown),
    )


def conditional(
    spec: TokenProcessSpec,
    observed: list[tuple[int, np.ndarray]],
    targets,
    cov: np.ndarray | None = None,
) -> ConditionalGaussian:
    """Exact conditional of the targets given ``observed`` (position, value)
    pairs; with no observations this is the unconditional marginal."""
    obs_pos = [p for p, _ in observed]
    solver = conditional_solver(spec, obs_pos, targets, cov=cov)
    if observed:
        values = np.stack(
            [np.broadcast_to(np.asarray(v, dtype=np.float64), (spec.token_dim,))
             for _, v in observed]
        )
    else:
        values = np.zeros((0, spec.token_dim))
    return solver.conditional(spec, values)


def sample_conditional(
    cond: ConditionalGaussian, token_dim: int, rng: np.random.Generator, size: int = 1
) -> np.ndarray:
    """Exact draws from the conditional, shape (size, m, d) (or the batch
    shape of a batched mean)."""
    m = cond.size
    try:
        chol = np.linalg.cholesky(cond.covariance)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(cond.covariance)
        logger.warning(
            "sample_conditional: Cholesky failed on a %dx%d conditional "
            "covariance (smallest eigenvalue %.3e); drawing through eigh",
            m, m, vals[0],
        )
        chol = vecs * np.sqrt(np.clip(vals, 0.0, None))
    if cond.mean.ndim == 3:
        batch = cond.mean.shape[0]
        z = rng.standard_normal((batch, m, token_dim))
        return cond.mean + chol @ z
    z = rng.standard_normal((size, m, token_dim))
    return cond.mean + chol @ z
