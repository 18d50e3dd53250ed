"""Evidence metrics and quality oracles for annealed sampling runs.

Covers the three phenomena that justify step annealing, plus the distance
used to score sample quality against the exactly known conditionals:

* path straightness -- flow metric ``E_t ||(x1 - x0) - v(x_t, t)||^2``
  (0 = perfectly straight) and the diffusion analogue, the mean cosine
  between ``x0 - x_t`` and the marginal score (1 = straight);
* per-AR-step variance of repeated next-token draws;
* Bayes-predictor (conditional-mean) squared error per AR step;
* closed-form 2-Wasserstein distance between Gaussians
  ``W2^2 = ||mu1 - mu2||^2 + tr(S1 + S2 - 2 (S2^1/2 S1 S2^1/2)^1/2)``;
* the Spearman rank correlation of a per-step metric with the step index
  (:func:`spearman`, in numpy: the package imports no ``scipy.stats``, whose
  import alone would cost more than most CLI runs spend working).

Empirical-vs-exact distances fit a Gaussian to the draws by moments (the
truth is Gaussian, so the fit is consistent) and always report a Monte Carlo
floor: the same-size-sample W2 of exact draws against their own truth.
Everything here is a pure computation, bitwise reproducible under fixed
seeds.  The per-step runners (:func:`sampling_variance`, :func:`probe_error`,
:func:`quality_sweep`) take the generation order's
:class:`~stepanneal.process.ConditioningPlan`, built once per command, and
condition every AR step through it; none of them factors the covariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Callers hand in the generation order's conditioning plan and grids built by
# ``generate.step_grids``.  ``steps_at``, ``total_nfe``, ``conditional_solver``
# and the two grid functions stay bound here, unused, because bench/spans.py
# traces the layers by rebinding these names here.
from .annealing import StepScheduler, steps_at, total_nfe  # noqa: F401
from .denoiser import ExactDenoiser
from .generate import SequenceBatch, check_grid_count, simulate_sequences
from .process import (
    ConditionalGaussian,
    ConditioningPlan,
    conditional_solver,  # noqa: F401
    joint_covariance,
    sample_conditional,
)
from .samplers import SamplerConfig, TrajectoryRecord, sample_with_config
from .schedules import DIFFUSION, TimeGrid
from .schedules import make_diffusion_grid, make_flow_grid  # noqa: F401

_NORM_EPS = 1e-300


# ---------------------------------------------------------------------------
# Gaussian W2
# ---------------------------------------------------------------------------


def _sym_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def _check_spd(cov: np.ndarray, name: str) -> np.ndarray:
    cov = np.asarray(cov, dtype=np.float64)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ValueError(f"{name}: must be a square matrix")
    if not np.allclose(cov, cov.T, atol=1e-9):
        raise ValueError(f"{name}: must be symmetric")
    scale = max(float(np.trace(cov)) / cov.shape[0], 1.0)
    if float(np.linalg.eigvalsh(cov)[0]) < -1e-9 * scale:
        raise ValueError(f"{name}: must be positive semi-definite")
    return 0.5 * (cov + cov.T)


def w2_gaussian(
    mean1: np.ndarray, cov1: np.ndarray, mean2: np.ndarray, cov2: np.ndarray
) -> float:
    """Bures-Wasserstein distance between two Gaussians."""
    mean1 = np.asarray(mean1, dtype=np.float64).ravel()
    mean2 = np.asarray(mean2, dtype=np.float64).ravel()
    cov1 = _check_spd(cov1, "cov1")
    cov2 = _check_spd(cov2, "cov2")
    root2 = _sym_sqrt(cov2)
    inner = root2 @ cov1 @ root2
    cross = _sym_sqrt(0.5 * (inner + inner.T))
    w2sq = (
        float(np.sum((mean1 - mean2) ** 2))
        + float(np.trace(cov1) + np.trace(cov2) - 2.0 * np.trace(cross))
    )
    return float(np.sqrt(max(w2sq, 0.0)))


def gaussian_fit(draws: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Moment fit over draws of shape (N, D) (N > D recommended)."""
    draws = np.asarray(draws, dtype=np.float64)
    mean = draws.mean(axis=0)
    cov = np.cov(draws, rowvar=False, ddof=1)
    cov = np.atleast_2d(cov)
    return mean, 0.5 * (cov + cov.T)


def conditional_moments(cond: ConditionalGaussian) -> tuple[np.ndarray, np.ndarray]:
    """Flatten a conditional (m positions x d i.i.d. dims) to a single
    Gaussian: mean (m*d,), covariance ``kron(Sigma, I_d)``."""
    if cond.mean.ndim != 2:
        raise ValueError("cond: needs an unbatched (m, d) mean")
    d = cond.mean.shape[-1]
    return cond.mean.ravel(), np.kron(cond.covariance, np.eye(d))


def w2_to_truth(draws: np.ndarray, cond: ConditionalGaussian) -> float:
    """W2 between the moment fit of (N, m, d) draws and the exact conditional."""
    mean, cov = conditional_moments(cond)
    fit_mean, fit_cov = gaussian_fit(draws.reshape(draws.shape[0], -1))
    return w2_gaussian(fit_mean, fit_cov, mean, cov)


def w2_floor(
    cond: ConditionalGaussian,
    n_draws: int,
    rng: np.random.Generator,
    repeats: int = 8,
) -> float:
    """Expected W2 of *exact* n_draws-sized samples against their own truth:
    the resolution limit of the empirical comparison."""
    if n_draws < 2:
        raise ValueError("n_draws: must be >= 2")
    if repeats < 1:
        raise ValueError("repeats: must be >= 1")
    values = []
    for _ in range(repeats):
        draws = sample_conditional(cond, rng, size=n_draws)
        values.append(w2_to_truth(draws, cond))
    return float(np.mean(values))


# ---------------------------------------------------------------------------
# Rank correlation
# ---------------------------------------------------------------------------


def _average_ranks(a: np.ndarray) -> np.ndarray:
    """1-based ranks of ``a``; each run of equal values gets its mean rank."""
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    counts = np.diff(np.r_[starts, a.size])
    ranks = np.empty(a.size)
    ranks[order] = np.repeat(starts + 0.5 * (counts + 1), counts)
    return ranks


def spearman(x, y) -> float:
    """Spearman rank correlation of two equal-length 1-D samples.

    Tied values share their average rank, and the result is the Pearson
    correlation of the two rank vectors: the statistic of
    ``scipy.stats.spearmanr``.  Like scipy's default
    ``nan_policy="propagate"``, it is ``nan`` when either sample is constant
    or holds a ``nan`` (and for fewer than two values).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 1 or x.shape != y.shape:
        raise ValueError("spearman: x and y must be 1-D of equal length")
    if x.size < 2 or np.isnan(x).any() or np.isnan(y).any():
        return float("nan")
    rx = _average_ranks(x)
    ry = _average_ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    scale = np.sqrt((rx @ rx) * (ry @ ry))
    if scale == 0.0:
        return float("nan")
    return float(np.clip((rx @ ry) / scale, -1.0, 1.0))


# ---------------------------------------------------------------------------
# Straightness
# ---------------------------------------------------------------------------


def _interpolate_path(
    trajectory: TrajectoryRecord, t: float
) -> tuple[np.ndarray, float]:
    """State linearly interpolated on the recorded path at time ``t``, plus
    the interpolation weight's bracketing segment level (diffusion only)."""
    times, levels = trajectory.grid.points, trajectory.grid.levels
    states = trajectory.states
    j = int(np.searchsorted(-times, -t, side="right")) - 1
    j = min(max(j, 0), len(times) - 2)
    t_hi, t_lo = times[j], times[j + 1]
    w = (t - t_lo) / (t_hi - t_lo)
    x = w * states[j] + (1.0 - w) * states[j + 1]
    if levels is None:
        return x, float("nan")
    lv_hi, lv_lo = levels[j], levels[j + 1]
    level = float(np.exp(w * np.log(lv_hi) + (1.0 - w) * np.log(lv_lo)))
    return x, min(level, 1.0)


def _stratified_times(
    grid: TimeGrid, t_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """One uniform time in each of ``t_draws`` equal strata of the whole
    walk, from the grid's start ``points[0]`` down to its clean end
    ``points[-1]``."""
    if t_draws < 1:
        raise ValueError("t_draws: must be >= 1")
    t_end, t_start = float(grid.points[-1]), float(grid.points[0])
    u = rng.random(t_draws)
    return t_end + (np.arange(t_draws) + u) / t_draws * (t_start - t_end)


def straightness_flow(
    trajectory: TrajectoryRecord,
    oracle,
    cond: ConditionalGaussian,
    t_draws: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo estimate of the squared deviation of the field from the
    straight chord noise -> data, averaged over uniform times (and over the
    trajectory batch).  0 for a perfectly straight path."""
    if trajectory.states is None:
        raise ValueError("trajectory: endpoints missing; record the path")
    x1, x0 = trajectory.states[0], trajectory.states[-1]
    chord = x1 - x0
    total = 0.0
    for t in _stratified_times(trajectory.grid, t_draws, rng):
        x_t, _ = _interpolate_path(trajectory, float(t))
        v = oracle.velocity(x_t, float(t), cond)
        sq = np.sum((chord - v) ** 2, axis=(-2, -1))
        total += float(np.mean(sq))
    return total / t_draws


def straightness_diffusion(
    trajectory: TrajectoryRecord,
    oracle,
    cond: ConditionalGaussian,
    t_draws: int,
    rng: np.random.Generator,
) -> float:
    """Mean cosine between the direction to the clean token and the marginal
    score along the recorded path (1 = straight).  Zero-norm draws are
    skipped and counted against the average."""
    if trajectory.states is None:
        raise ValueError("trajectory: endpoints missing; record the path")
    if trajectory.grid.levels is None:
        raise ValueError("trajectory: diffusion straightness needs a diffusion grid")
    x0 = trajectory.states[-1]
    total, used = 0.0, 0
    for t in _stratified_times(trajectory.grid, t_draws, rng):
        x_t, level = _interpolate_path(trajectory, float(t))
        score = oracle.score(x_t, level, cond)
        to_clean = (x0 - x_t).reshape(x_t.shape[0], -1)
        s = score.reshape(x_t.shape[0], -1)
        nu = np.linalg.norm(to_clean, axis=1)
        ns = np.linalg.norm(s, axis=1)
        keep = (nu > _NORM_EPS) & (ns > _NORM_EPS)
        if not np.any(keep):
            continue
        cosines = np.sum(to_clean[keep] * s[keep], axis=1) / (nu[keep] * ns[keep])
        total += float(np.sum(cosines))
        used += int(np.sum(keep))
    return total / used if used else float("nan")


@dataclass(eq=False)
class StraightnessReport:
    """Per-AR-step straightness averages."""

    metric: str  # "flow" | "diffusion"
    per_step: np.ndarray
    t_draws: int
    n_trajectories: int

    @property
    def spearman_to_step(self) -> float:
        return spearman(np.arange(self.per_step.size), self.per_step)


def straightness_by_step(
    batch: SequenceBatch, t_draws: int, rng: np.random.Generator
) -> StraightnessReport:
    """Straightness per AR step over a batch generated with recorded paths."""
    if batch.trajectories is None or batch.conditionals is None:
        raise ValueError("batch: generate with record_paths=True")
    oracle = ExactDenoiser()
    flow = batch.trajectories[0].grid.domain != DIFFUSION
    fn = straightness_flow if flow else straightness_diffusion
    vals = [
        fn(traj, oracle, cond, t_draws, rng)
        for traj, cond in zip(batch.trajectories, batch.conditionals)
    ]
    return StraightnessReport(
        metric="flow" if flow else "diffusion",
        per_step=np.asarray(vals),
        t_draws=t_draws,
        n_trajectories=batch.values.shape[0],
    )


# ---------------------------------------------------------------------------
# Sampling variance and probe error
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class VarianceReport:
    """Per-AR-step, per-dimension variance of repeated next-token draws,
    with the exact conditional variance (trace / group size) alongside."""

    empirical: np.ndarray  # (K, d)
    exact_per_dim: np.ndarray  # (K,)
    draws_per_step: int

    def __post_init__(self):
        if np.any(self.empirical < 0.0):
            raise ValueError("empirical: variances must be nonnegative")


def _reference_conditionals(
    plan: ConditioningPlan, prefix_seed: int
) -> list[ConditionalGaussian]:
    """Every AR step's conditional given one frozen reference prefix, drawn
    exactly from the process with its own stream: the prefix's whitened
    innovations are its standard normal draws."""
    token_dim = plan.spec.token_dim
    prefix_rng = np.random.default_rng(prefix_seed)
    whitened = np.empty((plan.spec.token_count, token_dim))
    conds = []
    for k in range(plan.order.step_count):
        conds.append(plan.conditional(k, whitened))
        whitened[plan.rows(k)] = prefix_rng.standard_normal((conds[k].size, token_dim))
    return conds


def sampling_variance(
    plan: ConditioningPlan,
    sampler_config: SamplerConfig,
    grids: list[TimeGrid],
    draws_per_step: int,
    seeds: tuple[int, int],
) -> VarianceReport:
    """Freeze a reference prefix, then at each AR step k redraw the next
    group ``draws_per_step`` times through the sampler on ``grids[k]``."""
    if draws_per_step < 2:
        raise ValueError("draws_per_step: must be >= 2")
    check_grid_count(grids, plan.order)
    prefix_seed, redraw_seed = seeds
    oracle = ExactDenoiser()
    redraw_rng = np.random.default_rng(redraw_seed)
    empirical, exact = [], []
    for cond, grid in zip(_reference_conditionals(plan, prefix_seed), grids):
        draws, _ = sample_with_config(
            sampler_config, oracle, cond, grid, redraw_rng, n_samples=draws_per_step
        )
        empirical.append(draws.var(axis=0, ddof=1).mean(axis=0))  # (d,)
        exact.append(float(np.trace(cond.covariance)) / cond.size)
    return VarianceReport(
        empirical=np.asarray(empirical),
        exact_per_dim=np.asarray(exact),
        draws_per_step=draws_per_step,
    )


@dataclass(eq=False)
class ProbeReport:
    """Squared error of the conditional-mean (Bayes) predictor per AR step;
    its expectation is the conditional trace / group size."""

    mse: np.ndarray  # (K,)
    exact_per_dim: np.ndarray  # (K,)
    n_sequences: int


def probe_error(plan: ConditioningPlan, seeds) -> ProbeReport:
    """Per-step squared error of predicting the sampled group by the
    conditional mean, averaged over exactly sampled sequences.  An exact draw
    is ``mean + L_kk z``, so the error is the innovation ``L_kk z`` and the
    means themselves are never formed."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds: need at least one seed")
    rng = np.random.default_rng(seeds)
    n_seq = len(seeds)
    mse, exact = [], []
    for k, size in enumerate(plan.order.group_sizes):
        z = rng.standard_normal((n_seq, size, plan.spec.token_dim))
        mse.append(float(np.mean((plan.block(k) @ z) ** 2)))
        exact.append(float(np.trace(plan.covariance(k))) / size)
    return ProbeReport(
        mse=np.asarray(mse), exact_per_dim=np.asarray(exact), n_sequences=n_seq
    )


# ---------------------------------------------------------------------------
# Quality sweep across annealing policies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    label: str
    kind: str
    t_early: int
    t_late: int
    ar_step: int
    nfe: int
    w2: float
    w2_floor: float


@dataclass(frozen=True)
class SweepSummary:
    label: str
    kind: str
    t_early: int
    t_late: int
    total_nfe: int
    aggregate_w2: float
    mean_floor: float
    joint_moment_error: float


def scheduler_label(s: StepScheduler) -> str:
    if s.kind == "constant":
        return f"constant_{s.t_early}"
    return f"{s.kind}_{s.t_early}_{s.t_late}"


def quality_sweep(
    plan: ConditioningPlan,
    sampler_config: SamplerConfig,
    policies: list[tuple[StepScheduler, list[TimeGrid]]],
    seeds: tuple[int, int],
    *,
    draws_per_step: int = 256,
    floor_repeats: int = 8,
    joint_sequences: int = 0,
) -> tuple[list[SweepRow], list[SweepSummary]]:
    """Per-AR-step empirical-vs-exact W2 for each annealing policy, given as
    ``(scheduler, grids)``: the scheduler labels the rows, its grids (from
    :func:`~stepanneal.generate.step_grids`) are what the sampler walks.
    A row's ``nfe`` is the calls its sampler run made, and a summary's
    ``total_nfe`` the sum over the policy's rows.

    A reference prefix is drawn exactly from the process (one per AR step,
    shared by every policy), so the per-step distance isolates sampler
    discretization error.  Every policy reuses the same random stream at a
    given AR step (common random numbers): policies that agree on T(k)
    produce identical draws there, so differences reflect the annealing
    policy, not sampling noise.  With ``joint_sequences > 0`` each policy
    also runs that many full sequences end to end and reports the relative
    Frobenius error of the empirical joint covariance.
    """
    for _, grids in policies:
        check_grid_count(grids, plan.order)
    prefix_seed, sweep_seed = seeds
    spec = plan.spec
    oracle = ExactDenoiser()
    rng = np.random.default_rng(sweep_seed)
    conds = _reference_conditionals(plan, prefix_seed)
    floors = [
        w2_floor(cond, draws_per_step, rng, repeats=floor_repeats)
        for cond in conds
    ]

    rows: list[SweepRow] = []
    summaries: list[SweepSummary] = []
    for scheduler, grids in policies:
        label = scheduler_label(scheduler)
        w2s = []
        nfe = 0
        for k, (cond, grid) in enumerate(zip(conds, grids)):
            cell_rng = np.random.default_rng([sweep_seed, 1 + k])
            draws, record = sample_with_config(
                sampler_config, oracle, cond, grid, cell_rng,
                n_samples=draws_per_step,
            )
            w2 = w2_to_truth(draws, cond)
            w2s.append(w2)
            nfe += record.nfe
            rows.append(
                SweepRow(
                    label=label,
                    kind=scheduler.kind,
                    t_early=scheduler.t_early,
                    t_late=scheduler.t_late,
                    ar_step=k,
                    nfe=record.nfe,
                    w2=w2,
                    w2_floor=floors[k],
                )
            )
        joint_err = float("nan")
        if joint_sequences > 0:
            batch = simulate_sequences(
                plan, sampler_config, grids,
                n_sequences=joint_sequences,
                master_seed=int(rng.integers(2**31)),
            )
            flat = batch.values.transpose(0, 2, 1).reshape(-1, spec.token_count)
            emp = np.cov(flat, rowvar=False, ddof=1)
            cov = joint_covariance(spec)
            joint_err = float(
                np.linalg.norm(emp - cov) / np.linalg.norm(cov)
            )
        summaries.append(
            SweepSummary(
                label=label,
                kind=scheduler.kind,
                t_early=scheduler.t_early,
                t_late=scheduler.t_late,
                total_nfe=nfe,
                aggregate_w2=float(np.mean(w2s)),
                mean_floor=float(np.mean(floors)),
                joint_moment_error=joint_err,
            )
        )
    return rows, summaries
