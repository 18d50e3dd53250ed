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

Generation conditions through a :class:`ConditioningPlan`: one Cholesky
factor of the covariance permuted into the generation order, from which
every AR step's conditional follows by one small triangular solve and one
matrix product (the innovations form of Gaussian autoregression).

Specs, plans, solvers and conditionals are immutable after construction and
safe to share across concurrent workers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np


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
        if not 0.0 < self.length_scale < np.inf:  # NaN fails too
            raise ValueError("length_scale: must be positive and finite")
        if not 0.0 < self.marginal_std < np.inf:
            raise ValueError("marginal_std: must be positive and finite")
        if not 0.0 < self.jitter < np.inf:
            raise ValueError("jitter: must be positive and finite")
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

    @cached_property
    def covariance(self) -> np.ndarray:
        """Dense n x n position covariance, jitter included on the diagonal:
        built on first use, then cached and read-only like the fields.
        :func:`conditioning_plan` checks it positive definite.  The kernel
        depends only on the offsets ``|d_row|, |d_col|``, so it is evaluated
        once on the H x W table of offsets and gathered."""
        h, w, n = self.grid_height, self.grid_width, self.token_count
        d_row = np.arange(h, dtype=np.float64)[:, None]
        d_col = np.arange(w, dtype=np.float64)[None, :]
        dist2 = d_row * d_row + d_col * d_col
        s2 = self.marginal_std**2
        if self.kernel == "rbf":
            table = s2 * np.exp(-dist2 / (2.0 * self.length_scale**2))
        else:  # ar1: exponential decay in grid distance
            table = s2 * np.exp(-np.sqrt(dist2) / self.length_scale)
        lag_row = np.abs(np.subtract.outer(np.arange(h), np.arange(h)))
        lag_col = np.abs(np.subtract.outer(np.arange(w), np.arange(w)))
        # Entry ((r1, c1), (r2, c2)) is table[|r1 - r2|, |c1 - c2|]: gather a
        # table row per row pair, then its column lags, as (r1, r2, c1, c2).
        cov = table[lag_row][:, :, lag_col].transpose(0, 2, 1, 3).reshape(n, n)
        cov.flat[:: n + 1] += self.jitter
        return _readonly(cov)


def joint_covariance(spec: TokenProcessSpec) -> np.ndarray:
    """Dense n x n position covariance (jitter included on the diagonal),
    read-only and cached on the spec (:attr:`TokenProcessSpec.covariance`)."""
    return spec.covariance


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
        raise ValueError(f"group_count: must lie in [1, {n}], got {group_count}")
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
        # np.allclose's test (atol 1e-10, rtol 1e-5) written out: a quarter of
        # its cost on the small matrices every AR step builds, and any inf or
        # nan entry fails it.
        if not (np.abs(cov - cov.T) <= 1e-10 + 1e-5 * np.abs(cov.T)).all():
            raise ValueError("covariance: must be symmetric")
        mean = mean.copy()
        mean.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def size(self) -> int:
        return len(self.target_positions)

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray | None]:
        """Eigenvalues ``lam`` (ascending) and orthonormal eigenvectors ``U``
        with ``covariance = U diag(lam) U^T``: one ``eigh`` on first use,
        cached and read-only like the other fields.  ``U`` is ``None`` on an
        :attr:`eigen` view, whose covariance is already ``diag(lam)``."""
        lam, vecs = np.linalg.eigh(self.covariance)
        return _readonly(lam), _readonly(vecs)

    @cached_property
    def eigen(self) -> ConditionalGaussian:
        """This conditional in its own eigen-coordinates ``z = U^T x``: mean
        ``U^T mu`` (batched means included) and covariance ``diag(lam)``.
        Its spectrum is ``(lam, None)``, so no ``eigh`` runs on it and the
        exact denoiser's channel solve on it is elementwise; its own
        ``eigen`` is itself."""
        lam, vecs = self.spectrum
        if vecs is None:  # already a view
            return self
        view = ConditionalGaussian(self.target_positions, vecs.T @ self.mean,
                                   np.diag(lam))
        view.__dict__["spectrum"] = (lam, None)  # seeds the cached property
        return view


@dataclass(frozen=True, eq=False)
class ConditioningPlan:
    """Every AR step's conditional along one generation order, from one
    Cholesky factor.

    ``factor`` is the lower Cholesky factor L of the joint covariance permuted
    into generation order, and AR step k emits rows ``a:b`` =
    ``offsets[k]:offsets[k + 1]`` of it.  With ``L_kk = L[a:b, a:b]`` the
    step's conditional covariance is ``L_kk L_kk^T`` and its mean is
    ``mu_k + L[a:b, :a] w[:a]``, where ``w`` holds the whitened innovations
    ``w_j = L_jj^-1 (x_j - mean_j)`` of the groups already drawn; an exact
    draw is ``mean_k + L_kk z`` with whitened innovation ``z``.  ``w`` is
    position-major, shape (n, d) for one sequence or (n, S, d) for S, so each
    step's mean is one matrix product over every sequence.  ``spec`` is the
    field the plan factors."""

    spec: TokenProcessSpec
    order: GenerationOrder
    mean_field: np.ndarray  # (n,), in generation order
    factor: np.ndarray  # (n, n), lower
    offsets: tuple[int, ...]  # (K + 1,)

    def rows(self, k: int) -> slice:
        """Step k's rows of the factor (and of the whitened innovations)."""
        return slice(self.offsets[k], self.offsets[k + 1])

    def block(self, k: int) -> np.ndarray:
        """``L_kk``, the lower Cholesky factor of step k's covariance."""
        rows = self.rows(k)
        return self.factor[rows, rows]

    def covariance(self, k: int) -> np.ndarray:
        """Step k's conditional covariance ``L_kk L_kk^T``."""
        block = self.block(k)
        cov = block @ block.T
        return 0.5 * (cov + cov.T)

    def conditional(self, k: int, whitened: np.ndarray) -> ConditionalGaussian:
        """Step k's conditional given the whitened innovations of the groups
        before it: the rows of ``whitened`` before step k (later rows are not
        read)."""
        a, b = self.offsets[k], self.offsets[k + 1]
        prefix = whitened.reshape(whitened.shape[0], -1)[:a]
        mean = self.mean_field[a:b, None] + self.factor[a:b, :a] @ prefix
        mean = mean.reshape((b - a,) + whitened.shape[1:])
        if mean.ndim == 3:
            mean = mean.transpose(1, 0, 2)
        return ConditionalGaussian(
            target_positions=self.order.permutation[a:b],
            mean=mean,
            covariance=self.covariance(k),
        )

    def whiten(self, k: int, innovation: np.ndarray) -> np.ndarray:
        """``L_kk^-1 innovation`` for step k's innovation ``x - mean`` of
        shape (m, d) or (S, m, d), returned position-major: (m, d) or
        (m, S, d)."""
        if innovation.ndim == 3:
            innovation = innovation.transpose(1, 0, 2)
        m = innovation.shape[0]
        flat = np.linalg.solve(self.block(k), innovation.reshape(m, -1))
        return flat.reshape(innovation.shape)


def conditioning_plan(
    spec: TokenProcessSpec, order: GenerationOrder
) -> ConditioningPlan:
    """Factor the spec's joint covariance, permuted into ``order``, once: one
    n x n Cholesky factorisation.  This is the field's positive-definiteness
    check: a pivot that is not positive raises :class:`NumericalError`
    naming ``length_scale/jitter``, its AR step and its position, before any
    conditional is formed."""
    n = spec.token_count
    if len(order.permutation) != n:
        raise ValueError(f"order: covers {len(order.permutation)} positions, "
                         f"the grid has {n}")
    perm = np.asarray(order.permutation)
    permuted = joint_covariance(spec)[np.ix_(perm, perm)]
    offsets = tuple(np.cumsum((0,) + order.group_sizes).tolist())
    try:
        factor = np.linalg.cholesky(permuted)
    except np.linalg.LinAlgError:
        pivot = _failed_pivot(permuted)
        row = pivot - 1
        k = bisect_right(offsets, row) - 1
        raise NumericalError(
            f"length_scale/jitter: AR step {k}: the joint covariance is not "
            f"positive definite at position {perm[row]} (pivot {pivot} of {n} "
            f"in generation order); raise jitter or shorten length_scale"
        ) from None
    return ConditioningPlan(
        spec=spec,
        order=order,
        mean_field=_readonly(spec.mean_field[perm]),
        factor=_readonly(factor),
        offsets=offsets,
    )


def _failed_pivot(cov: np.ndarray) -> int:
    """The 1-based index of a pivot of ``cov``'s Cholesky factorisation that
    is not positive, for a ``cov`` whose factorisation fails: by bisection,
    the size of a leading block that fails while the block one row smaller
    factors.  Pivot i depends only on the leading i x i block, so in exact
    arithmetic this is the first failed pivot; where the field is singular
    only to rounding, the pivot that rounding fails first can move by a few
    rows between factorisations of different sizes."""
    good, bad = 0, cov.shape[0]  # leading blocks of these sizes pass / fail
    while bad - good > 1:
        mid = (good + bad) // 2
        try:
            np.linalg.cholesky(cov[:mid, :mid])
            good = mid
        except np.linalg.LinAlgError:
            bad = mid
    return bad


@dataclass(frozen=True, eq=False)
class ConditionalSolver:
    """The targets' conditional on the observed positions: the regression
    weights from observed onto target positions and the (prefix-independent)
    conditional covariance, so means for many prefixes are matrix products.
    It is one step of a conditioning plan (:func:`conditional_solver`), kept
    under this name for the benchmark's hooks (``bench/spans.py``)."""

    observed_positions: tuple[int, ...]
    target_positions: tuple[int, ...]
    weights: np.ndarray  # (m, o)
    covariance: np.ndarray  # (m, m)

    def mean(self, spec: TokenProcessSpec, observed_values: np.ndarray) -> np.ndarray:
        """Conditional mean for observed token values of shape (o, d) or
        (batch, o, d).  With no observed positions (o = 0) the product is
        zeros and the mean is the targets' mean field."""
        mu = spec.mean_field[:, None]
        observed_values = np.asarray(observed_values, dtype=np.float64)
        return (mu[list(self.target_positions)]
                + self.weights @ (observed_values - mu[list(self.observed_positions)]))

    def conditional(
        self, spec: TokenProcessSpec, observed_values: np.ndarray
    ) -> ConditionalGaussian:
        return ConditionalGaussian(
            target_positions=self.target_positions,
            mean=self.mean(spec, observed_values),
            covariance=self.covariance,
        )


def conditional_solver(
    spec: TokenProcessSpec, observed_positions, target_positions
) -> ConditionalSolver:
    """The conditioning plan of the order (observed, targets, the rest), read
    at the targets' step and kept under this name for ``bench/spans.py``.

    With ``L`` the plan's factor, the weights are ``L_to L_oo^-1`` (one solve
    against the observed block) and the covariance is ``L_tt L_tt^T``.  The
    plan factors the whole field, n^3 / 3 flops, and is its
    positive-definiteness check."""
    obs_idx = np.asarray(observed_positions, dtype=int).reshape(-1)
    tgt_idx = np.asarray(target_positions, dtype=int).reshape(-1)
    all_idx = np.concatenate([obs_idx, tgt_idx])
    if np.isin(tgt_idx, obs_idx).any():
        raise ValueError("observed/target positions must be disjoint")
    if np.unique(all_idx).size != all_idx.size:
        raise ValueError("positions: duplicates are not allowed")
    if all_idx.size and not 0 <= all_idx.min() <= all_idx.max() < spec.token_count:
        raise ValueError("positions: out of range for this grid")
    if not tgt_idx.size:
        raise ValueError("target_positions: need at least one")
    rest = np.setdiff1d(np.arange(spec.token_count), all_idx)
    groups = [g for g in (obs_idx, tgt_idx, rest) if g.size]
    plan = conditioning_plan(spec, GenerationOrder(
        permutation=tuple(np.concatenate(groups).tolist()),
        group_sizes=tuple(g.size for g in groups)))
    o, step, factor = obs_idx.size, int(obs_idx.size > 0), plan.factor
    return ConditionalSolver(
        observed_positions=tuple(obs_idx.tolist()),
        target_positions=tuple(tgt_idx.tolist()),
        weights=np.linalg.solve(factor[:o, :o].T, factor[plan.rows(step), :o].T).T,
        covariance=plan.covariance(step),
    )


def conditional(
    spec: TokenProcessSpec, observed: list[tuple[int, np.ndarray]], targets
) -> ConditionalGaussian:
    """Exact conditional of the targets given ``observed`` (position, value)
    pairs; with no observations this is the unconditional marginal."""
    values = np.empty((len(observed), spec.token_dim))
    for row, (_, value) in zip(values, observed):
        row[...] = value  # a scalar value broadcasts over the token dims
    solver = conditional_solver(spec, [p for p, _ in observed], targets)
    return solver.conditional(spec, values)


def sample_conditional(
    cond: ConditionalGaussian, rng: np.random.Generator, size: int = 1
) -> np.ndarray:
    """Exact draws ``mean + U diag(sqrt(max(lam, 0))) z`` from the
    conditional's cached spectrum, shape (size, m, d), whether its covariance
    is positive definite or singular; a batched (3-D) mean gets one draw per
    batch entry, so ``size`` must then be 1."""
    if cond.mean.ndim == 3 and size != 1:
        raise ValueError(f"size: must be 1 with a batched mean, got {size}")
    lam, vecs = cond.spectrum
    if vecs is None:  # an eigen view: its eigenbasis is the identity
        vecs = np.eye(cond.size)
    draws = cond.mean.shape[0] if cond.mean.ndim == 3 else size
    z = rng.standard_normal((draws, cond.size, cond.mean.shape[-1]))
    return cond.mean + (vecs * np.sqrt(np.clip(lam, 0.0, None))) @ z
