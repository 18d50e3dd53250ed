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
Sampling runs take their grids, one per AR step (a policy is its grids, so
any per-step allocation can be swept), and the two that redraw do it in one
walk, each AR step from its own stream.  Each function returns the arrays it
measured, indexed by AR step (and policy or dimension); the exact
per-dimension variance they are read against is :func:`exact_variance`.
Straightness scores all of a path's probes in one exact-oracle call.  All
runs in the calling process but :func:`quality_sweep`'s Monte Carlo floors,
drawn with more than one CPU in a forked :class:`~stepanneal._workers.Worker`.
"""

from __future__ import annotations

import weakref

import numpy as np

# Callers hand in the generation order's conditioning plan and grids built by
# ``generate.step_grids``.  ``steps_at``, ``total_nfe``, ``conditional_solver``
# and the two grid functions stay bound here, unused, because bench/spans.py
# traces the layers by rebinding these names here.
from .annealing import steps_at, total_nfe  # noqa: F401
from ._workers import Worker
from .denoiser import ExactDenoiser
from .generate import SequenceBatch, check_grid_count, simulate_sequences
from .process import (
    ConditionalGaussian,
    ConditioningPlan,
    conditional_solver,  # noqa: F401
    joint_covariance,
    sample_conditional,
    stacked_eigen,
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
    if not np.isfinite(cov).all():
        raise ValueError(f"{name}: must be finite")
    # np.allclose's test (atol 1e-9, rtol 1e-5) written out, as in
    # ConditionalGaussian.
    if not (np.abs(cov - cov.T) <= 1e-9 + 1e-5 * np.abs(cov.T)).all():
        raise ValueError(f"{name}: must be symmetric")
    scale = max(float(np.trace(cov)) / cov.shape[0], 1.0)
    if float(np.linalg.eigvalsh(cov)[0]) < -1e-9 * scale:
        raise ValueError(f"{name}: must be positive semi-definite")
    return 0.5 * (cov + cov.T)


def _w2(mean1, cov1, mean2, trace2, root2) -> float:
    """W2 of checked inputs, given the trace and the symmetric root of the
    second covariance."""
    inner = root2 @ cov1 @ root2
    cross = _sym_sqrt(0.5 * (inner + inner.T))
    w2sq = (
        float(np.sum((mean1 - mean2) ** 2))
        + float(np.trace(cov1) + trace2 - 2.0 * np.trace(cross))
    )
    return float(np.sqrt(max(w2sq, 0.0)))


def w2_gaussian(
    mean1: np.ndarray, cov1: np.ndarray, mean2: np.ndarray, cov2: np.ndarray
) -> float:
    """Bures-Wasserstein distance between two Gaussians."""
    mean1 = np.asarray(mean1, dtype=np.float64).ravel()
    mean2 = np.asarray(mean2, dtype=np.float64).ravel()
    cov1 = _check_spd(cov1, "cov1")
    cov2 = _check_spd(cov2, "cov2")
    return _w2(mean1, cov1, mean2, np.trace(cov2), _sym_sqrt(cov2))


# Each conditional's side of w2_to_truth, built on its first call: the sweep
# scores every conditional once per floor repeat and once per policy.
# Conditionals are immutable, so an entry is a function of its key alone, and
# it goes when the conditional does.
_TRUTHS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def w2_to_truth(draws: np.ndarray, cond: ConditionalGaussian) -> float:
    """W2 between the moment fit of (N, m, d) draws and the exact conditional,
    flattened to one Gaussian: mean (m*d,), covariance ``kron(Sigma, I_d)``
    (the d token dimensions are i.i.d.).  The exact side is checked and
    rooted once per conditional."""
    if cond.mean.ndim != 2:
        raise ValueError("cond: needs an unbatched (m, d) mean")
    flat = draws.reshape(draws.shape[0], -1)
    fit_cov = _check_spd(np.atleast_2d(np.cov(flat, rowvar=False, ddof=1)), "cov1")
    truth = _TRUTHS.get(cond)
    if truth is None:
        cov = _check_spd(np.kron(cond.covariance, np.eye(cond.mean.shape[-1])), "cov2")
        truth = _TRUTHS[cond] = (cond.mean.ravel(), np.trace(cov), _sym_sqrt(cov))
    return _w2(flat.mean(axis=0), fit_cov, *truth)


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


def _path_probes(
    trajectory: TrajectoryRecord,
    t_draws: int,
    rng: np.random.Generator,
    diffusion: bool = False,
):
    """The recorded path probed at one uniform time in each of ``t_draws``
    equal strata of the whole walk, from the grid's start ``points[0]`` down
    to its clean end ``points[-1]``.  Returns ``(t, x_t, j, w)``, one entry
    per probe: ``x_t = w states[j] + (1 - w) states[j+1]`` on the grid
    segment ``j`` that brackets ``t``, stacked as (t_draws,) + state shape."""
    if trajectory.states is None:
        raise ValueError("trajectory: endpoints missing; record the path")
    if diffusion and trajectory.grid.levels is None:
        raise ValueError("trajectory: diffusion straightness needs a diffusion grid")
    if t_draws < 1:
        raise ValueError("t_draws: must be >= 1")
    times, states = trajectory.grid.points, np.stack(trajectory.states)
    t_end, t_start = float(times[-1]), float(times[0])
    u = rng.random(t_draws)
    t = t_end + (np.arange(t_draws) + u) / t_draws * (t_start - t_end)
    j = np.searchsorted(-times, -t, side="right") - 1
    j = np.clip(j, 0, len(times) - 2)
    w = (t - times[j + 1]) / (times[j] - times[j + 1])
    w_b = w.reshape((-1,) + (1,) * (states.ndim - 1))
    return t, w_b * states[j] + (1.0 - w_b) * states[j + 1], j, w


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
    t, x_t, _, _ = _path_probes(trajectory, t_draws, rng)
    chord = trajectory.states[0] - trajectory.states[-1]
    v = oracle.velocity(x_t, t, cond)
    total = 0.0
    for value in np.mean(np.sum((chord - v) ** 2, axis=(-2, -1)), axis=-1).tolist():
        total += value
    return total / t_draws


def straightness_diffusion(
    trajectory: TrajectoryRecord,
    oracle,
    cond: ConditionalGaussian,
    t_draws: int,
    rng: np.random.Generator,
) -> float:
    """Mean cosine between the direction to the clean token and the marginal
    score along the recorded path (1 = straight).  Zero-norm draws are left
    out of the average (``nan`` if none is left).  A probe's level interpolates
    the bracketing segment's levels geometrically, with the probe's weight."""
    _, x_t, j, w = _path_probes(trajectory, t_draws, rng, diffusion=True)
    x0, lv = trajectory.states[-1], trajectory.grid.levels
    level = np.exp(w * np.log(lv[j]) + (1.0 - w) * np.log(lv[j + 1]))
    shape = x_t.shape[:2] + (-1,)  # (probe, draw, everything else)
    to_clean = (x0 - x_t).reshape(shape)
    s = oracle.score(x_t, np.minimum(level, 1.0), cond).reshape(shape)
    nu = np.linalg.norm(to_clean, axis=-1)
    ns = np.linalg.norm(s, axis=-1)
    keep = (nu > _NORM_EPS) & (ns > _NORM_EPS)
    cosines = np.divide(np.sum(to_clean * s, axis=-1), nu * ns,
                        out=np.zeros_like(nu), where=keep)
    total, used = 0.0, int(keep.sum())
    for row, kept in zip(cosines, keep):
        total += float(row[kept].sum())
    return total / used if used else float("nan")


def straightness_by_step(
    batch: SequenceBatch, t_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Straightness per AR step, shape (K,), over a batch generated with
    recorded paths: :func:`straightness_flow` on flow grids,
    :func:`straightness_diffusion` on diffusion grids."""
    if batch.trajectories is None or batch.conditionals is None:
        raise ValueError("batch: generate with record_paths=True")
    oracle = ExactDenoiser()
    flow = batch.trajectories[0].grid.domain != DIFFUSION
    fn = straightness_flow if flow else straightness_diffusion
    return np.asarray([
        fn(traj, oracle, cond, t_draws, rng)
        for traj, cond in zip(batch.trajectories, batch.conditionals)
    ])


# ---------------------------------------------------------------------------
# Sampling variance and probe error
# ---------------------------------------------------------------------------


def exact_variance(plan: ConditioningPlan) -> np.ndarray:
    """Each AR step's exact per-dimension conditional variance, shape (K,):
    ``tr(Sigma_k) / m_k``.  It is what :func:`sampling_variance` estimates
    and what :func:`probe_error`'s mean squared error has as expectation."""
    return np.asarray([
        float(np.trace(plan.covariance(k))) / size
        for k, size in enumerate(plan.order.group_sizes)
    ])


def _reference_conditionals(
    plan: ConditioningPlan, prefix_seed: int
) -> list[ConditionalGaussian]:
    """Every AR step's conditional given one frozen reference prefix, drawn
    exactly from the process with its own stream: the prefix's whitened
    innovations are its standard normal draws, one (n, d) block."""
    spec = plan.spec
    whitened = np.random.default_rng(prefix_seed).standard_normal(
        (spec.token_count, spec.token_dim))
    return [plan.conditional(k, whitened) for k in range(plan.order.step_count)]


def _redraws(plan: ConditioningPlan, config: SamplerConfig, conds, grids_per_policy,
             stream_seed: int, draws_per_step: int):
    """Yield ``(p, k, draws, nfe)`` per (policy p, AR step k) cell: its
    ``draws_per_step`` redraws of ``conds[k]`` on ``grids_per_policy[p][k]``,
    rotated back, and the calls its walk made.  Cells are walked, streamed
    and named on failure as :func:`quality_sweep` describes."""
    if draws_per_step < 2:
        raise ValueError("draws_per_step: must be >= 2")
    for grids in grids_per_policy:
        check_grid_count(grids, plan.order)
    stacks: dict[tuple, list[tuple[int, int]]] = {}
    for p, grids in enumerate(grids_per_policy):
        for k, (grid, m) in enumerate(zip(grids, plan.order.group_sizes)):
            levels = None if grid.levels is None else grid.levels.tobytes()
            key = (grid.domain, grid.points.tobytes(), levels, m)
            stacks.setdefault(key, []).append((p, k))
    oracle = ExactDenoiser()
    policy = " (policy {})" if len(grids_per_policy) > 1 else ""
    for (*_, m), cells in stacks.items():
        p, k = cells[0]
        try:
            draws, record = sample_with_config(
                config, oracle, stacked_eigen([conds[k] for _, k in cells]),
                grids_per_policy[p][k],
                [np.random.default_rng([stream_seed, 1 + k]) for _, k in cells],
                n_samples=draws_per_step,
            )
        except Exception as exc:
            named = ", ".join(f"AR step {k}" + policy.format(p) for p, k in cells)
            raise RuntimeError(f"{named}: {exc}") from exc
        for i, (p, k) in enumerate(cells):
            # Each cell's slice is rotated back as its own contiguous array,
            # as a walk on that cell alone rotates its result.
            cell = np.ascontiguousarray(draws[:, i * m:(i + 1) * m])
            yield p, k, conds[k].spectrum[1] @ cell, record.nfe


def sampling_variance(
    plan: ConditioningPlan,
    sampler_config: SamplerConfig,
    grids: list[TimeGrid],
    draws_per_step: int,
    seeds: tuple[int, int],
) -> np.ndarray:
    """Freeze a reference prefix, then at each AR step k redraw the next
    group ``draws_per_step`` times through the sampler on ``grids[k]``, from
    the stream ``[redraw_seed, 1 + k]``, as :func:`quality_sweep` redraws one
    policy.  Returns the draws' per-dimension variance, shape (K, d),
    averaged over the group's positions: a row depends on its step's grid."""
    prefix_seed, redraw_seed = seeds
    conds = _reference_conditionals(plan, prefix_seed)
    variance = np.empty((len(conds), plan.spec.token_dim))
    for _, k, draws, _ in _redraws(plan, sampler_config, conds, [grids],
                                   redraw_seed, draws_per_step):
        variance[k] = draws.var(axis=0, ddof=1).mean(axis=0)
    return variance


def probe_error(plan: ConditioningPlan, seeds) -> np.ndarray:
    """Per-step squared error, shape (K,), of predicting the sampled group
    by the conditional mean, averaged over exactly sampled sequences (one
    per seed); its expectation is :func:`exact_variance`.  An exact draw is
    ``mean + L_kk z``, so the error is the innovation ``L_kk z`` and the
    means themselves are never formed."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds: need at least one seed")
    rng = np.random.default_rng(seeds)
    mse = []
    for k, size in enumerate(plan.order.group_sizes):
        z = rng.standard_normal((len(seeds), size, plan.spec.token_dim))
        mse.append(float(np.mean((plan.block(k) @ z) ** 2)))
    return np.asarray(mse)


# ---------------------------------------------------------------------------
# Quality sweep across annealing policies
# ---------------------------------------------------------------------------


def _floors(conds, draws_per_step: int, floor_repeats: int, sweep_seed: int):
    """Each conditional's :func:`w2_floor`, drawn in turn from
    ``default_rng(sweep_seed)``, and that generator as the floors left it."""
    rng = np.random.default_rng(sweep_seed)
    floors = [w2_floor(cond, draws_per_step, rng, repeats=floor_repeats)
              for cond in conds]
    return np.asarray(floors), rng


def check_joint_draws(joint_sequences: int, token_dim: int) -> None:
    """One joint draw has no covariance: ``nan``, the column's "off" value."""
    if joint_sequences * token_dim == 1:
        raise ValueError("joint_sequences: a joint-moment run needs at least 2 "
                         "draws (joint_sequences x token_dim), got 1")


def quality_sweep(
    plan: ConditioningPlan,
    sampler_config: SamplerConfig,
    grids_per_policy: list[list[TimeGrid]],
    seeds: tuple[int, int],
    *,
    draws_per_step: int,
    floor_repeats: int,
    joint_sequences: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-AR-step empirical-vs-exact W2 for each of P annealing policies,
    each given as its grids (one per AR step, for example from
    :func:`~stepanneal.generate.step_grids`), which the sampler walks.

    Returns ``(w2, nfe, floors, joint)``: ``w2`` and ``nfe`` have shape
    (P, K), ``nfe[p, k]`` being the calls policy p's run at step k made;
    ``floors`` (K,) is each step's Monte Carlo floor (:func:`w2_floor`), and
    ``joint`` (P,) each policy's joint-moment error, ``nan`` when
    ``joint_sequences`` is 0.

    A reference prefix is drawn exactly from the process (one per AR step,
    shared by every policy), so the per-step distance isolates sampler
    discretization error.  Every policy redraws AR step k from the stream
    ``[sweep_seed, 1 + k]`` (common random numbers): policies that agree on
    T(k) produce identical draws there, so differences reflect the annealing
    policy, not sampling noise.  With ``joint_sequences > 0`` each policy
    also runs that many full sequences end to end and reports the relative
    Frobenius error of the empirical joint covariance.

    The (policy, AR step) cells that walk equal grids with equal group sizes
    run as one sampler walk over their stacked eigen views
    (:func:`~stepanneal.process.stacked_eigen`), each cell with its own
    stream, so every value is the one a walk per cell gives.  A failing walk
    is raised naming each of its cells' AR step (and policy, if several);
    :func:`sampling_variance` redraws one policy this way.

    The floors are drawn in turn from ``default_rng(sweep_seed)``, and that
    generator then seeds the joint-moment runs.  With more than one CPU they
    are drawn in a forked worker while this process walks, and come back
    with the generator; on one CPU they are drawn after the walks.  Either
    way the values are the same, a failing walk is raised before a failing
    floor, and no worker outlives the call.  ``fork`` copies only the
    calling thread, so a caller with other threads running must not call
    this on more than one CPU.
    """
    check_joint_draws(joint_sequences, plan.spec.token_dim)
    prefix_seed, sweep_seed = seeds
    spec = plan.spec
    conds = _reference_conditionals(plan, prefix_seed)
    shape = (len(grids_per_policy), len(conds))
    w2, nfe = np.empty(shape), np.empty(shape, dtype=int)
    with Worker("W2 floors", _floors, conds, draws_per_step, floor_repeats,
                sweep_seed) as worker:
        for p, k, draws, calls in _redraws(plan, sampler_config, conds,
                                           grids_per_policy, sweep_seed, draws_per_step):
            w2[p, k], nfe[p, k] = w2_to_truth(draws, conds[k]), calls
        floors, rng = worker.result()

    joint = np.full(shape[0], np.nan)
    if joint_sequences > 0:
        cov = joint_covariance(spec)
        for p, grids in enumerate(grids_per_policy):
            batch = simulate_sequences(
                plan, sampler_config, grids,
                n_sequences=joint_sequences,
                master_seed=int(rng.integers(2**31)),
            )
            flat = batch.values.transpose(0, 2, 1).reshape(-1, spec.token_count)
            emp = np.cov(flat, rowvar=False, ddof=1)
            joint[p] = np.linalg.norm(emp - cov) / np.linalg.norm(cov)
    return w2, nfe, floors, joint
