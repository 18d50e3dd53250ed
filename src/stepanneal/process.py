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
factor of the covariance gathered in the generation order, from which
every AR step's conditional follows by one small triangular solve and one
matrix product (the innovations form of Gaussian autoregression), and whose
step covariances it decomposes once, batched by group size.

Specs, plans, solvers and conditionals are immutable after construction and
safe to share across concurrent workers.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .schedules import _readonly


class NumericalError(RuntimeError):
    """Raised when a covariance factorization fails beyond repair."""


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

    @cached_property
    def covariance(self) -> np.ndarray:
        """:meth:`covariance_of` every position, cached and read-only."""
        return _readonly(self.covariance_of(np.arange(self.token_count)))

    def covariance_of(self, positions) -> np.ndarray:
        """Dense covariance of ``positions`` in that order, jitter on the
        diagonal.  The kernel depends only on the offsets ``|d_row|, |d_col|``,
        so it is evaluated once on the H x W offset table and gathered through
        the positions' row and column lags: exactly symmetric in any order."""
        h, w = self.grid_height, self.grid_width
        d_row = np.arange(h, dtype=np.float64)[:, None]
        d_col = np.arange(w, dtype=np.float64)[None, :]
        dist2 = d_row * d_row + d_col * d_col
        s2 = self.marginal_std**2
        if self.kernel == "rbf":
            table = s2 * np.exp(-dist2 / (2.0 * self.length_scale**2))
        else:  # ar1: exponential decay in grid distance
            table = s2 * np.exp(-np.sqrt(dist2) / self.length_scale)
        # Lags in their smallest signed type: page faults dominate the gather.
        small = np.min_scalar_type(-max(h, w))
        row, col = (a.astype(small) for a in np.divmod(np.asarray(positions), w))
        cov = table[np.abs(row[:, None] - row), np.abs(col[:, None] - col)]
        cov.flat[:: row.size + 1] += self.jitter
        return cov


def joint_covariance(spec: TokenProcessSpec) -> np.ndarray:
    """The spec's cached natural-order :attr:`~TokenProcessSpec.covariance`."""
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
    group_sizes = _split_sizes(spec.token_count, group_count)
    if seed < 0:
        raise ValueError(f"seed: must be >= 0, got {seed}")
    perm = np.random.default_rng(seed).permutation(spec.token_count)
    return GenerationOrder(
        permutation=tuple(int(p) for p in perm), group_sizes=group_sizes
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
        cached and read-only like the other fields (a plan's conditionals get
        the plan's :attr:`~ConditioningPlan.spectra`).  ``U`` is ``None`` on an
        :attr:`eigen` view, whose covariance is already ``diag(lam)``; on a
        :func:`stacked_eigen` view ``lam`` has one ascending row per cell."""
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
        return _EigenView.of(self.target_positions, vecs.T @ self.mean, lam)


class _EigenView(ConditionalGaussian):
    """An eigen view, built by :meth:`of` from checked parts: its spectrum is
    ``(lam, None)`` and its covariance ``diag(lam)`` is built only when read,
    never held, since a stack of M positions would hold M x M of it."""

    @classmethod
    def of(cls, positions, mean, lam) -> ConditionalGaussian:
        view = object.__new__(cls)
        view.__dict__.update(target_positions=positions, mean=_readonly(mean),
                             spectrum=(lam, None))  # seeds the cached property
        return view

    @property
    def covariance(self) -> np.ndarray:
        return np.diag(self.spectrum[0].ravel())


def stacked_eigen(conds) -> ConditionalGaussian:
    """The :attr:`~ConditionalGaussian.eigen` views of conditionals of one
    size side by side along the position axis, one cell each: the means
    concatenated and the spectrum ``(lam, None)`` with ``lam`` of shape
    (cells, m), one row per cell.  An exact oracle call on an eigen view is
    elementwise, so each cell's slice of a call on the stack equals that
    call on the cell's own view."""
    views = [cond.eigen for cond in conds]
    if len({view.size for view in views}) != 1:
        raise ValueError("conds: need at least one, all of one size")
    if len(views) == 1:
        return views[0]
    return _EigenView.of(
        tuple(p for view in views for p in view.target_positions),
        np.concatenate([view.mean for view in views], axis=-2),
        _readonly(np.stack([view.spectrum[0] for view in views])))


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

    @cached_property
    def spectra(self) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """Each step k's read-only ``(L_kk L_kk^T, lam, U)``, bit for bit its own
        2-D ``eigh``: one stacked product and ``eigh`` per distinct group size."""
        out = {}
        for m in set(self.order.group_sizes):  # np.unique would import numpy.ma
            steps = [k for k, size in enumerate(self.order.group_sizes) if size == m]
            rows = np.asarray(self.offsets)[steps, None] + np.arange(m)
            cov = _readonly(_gram(self.factor[rows[:, :, None], rows[:, None, :]]))
            out.update(zip(steps, zip(cov, *map(_readonly, np.linalg.eigh(cov)))))
        return out

    def covariance(self, k: int) -> np.ndarray:
        """Step k's conditional covariance ``L_kk L_kk^T``."""
        return self.spectra[k][0]

    def conditional(self, k: int, whitened: np.ndarray) -> ConditionalGaussian:
        """Step k's conditional given the whitened innovations of the groups
        before it: the rows of ``whitened`` before step k (later rows are not
        read).  Its spectrum is the plan's, so no ``eigh`` runs on it."""
        a, b = self.offsets[k], self.offsets[k + 1]
        prefix = whitened.reshape(whitened.shape[0], -1)[:a]
        mean = self.mean_field[a:b, None] + self.factor[a:b, :a] @ prefix
        mean = mean.reshape((b - a,) + whitened.shape[1:])
        if mean.ndim == 3:
            mean = mean.transpose(1, 0, 2)
        cov, lam, vecs = self.spectra[k]
        cond = ConditionalGaussian(self.order.permutation[a:b], mean, cov)
        cond.__dict__["spectrum"] = lam, vecs  # seeds the cached property
        return cond

    def whiten(self, k: int, innovation: np.ndarray) -> np.ndarray:
        """``L_kk^-1 innovation`` for step k's innovation ``x - mean`` of
        shape (m, d) or (S, m, d), returned position-major: (m, d) or
        (m, S, d)."""
        if innovation.ndim == 3:
            innovation = innovation.transpose(1, 0, 2)
        m = innovation.shape[0]
        flat = np.linalg.solve(self.block(k), innovation.reshape(m, -1))
        return flat.reshape(innovation.shape)


def _gram(blocks: np.ndarray) -> np.ndarray:
    """``L L^T``, symmetrised, of each factor ``L`` in ``blocks`` (..., m, m)."""
    cov = blocks @ blocks.swapaxes(-1, -2)
    return 0.5 * (cov + cov.swapaxes(-1, -2))


def conditioning_plan(
    spec: TokenProcessSpec, order: GenerationOrder
) -> ConditioningPlan:
    """Factor the spec's joint covariance, gathered straight into ``order``
    (no natural-order matrix), once: one n x n Cholesky factorisation.  This
    is the field's positive-definiteness check: a pivot that is not positive
    raises :class:`NumericalError` naming ``length_scale/jitter``, its AR step
    and its position, before any conditional is formed."""
    n = spec.token_count
    if len(order.permutation) != n:
        raise ValueError(f"order: covers {len(order.permutation)} positions, "
                         f"the grid has {n}")
    perm = np.asarray(order.permutation)
    permuted = spec.covariance_of(perm)
    offsets = tuple(np.cumsum((0,) + order.group_sizes).tolist())
    try:
        # The covariance is exactly symmetric, so permuted.T is the same matrix
        # in Fortran order, which LAPACK takes without numpy's strided copy.
        factor = np.linalg.cholesky(permuted.T)
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
        covariance=_gram(plan.block(step)),
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
