import dataclasses
import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

import stepanneal as sa

from conftest import dirac_cond, isotropic_cond, schur_solver

DDPM = sa.SamplerConfig("ddpm")
EULER_FLOW = sa.SamplerConfig("euler_flow")


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + 0.1 * np.eye(d)


class TestW2Gaussian:
    def test_identical_inputs(self):
        rng = np.random.default_rng(0)
        cov = random_spd(rng, 4)
        mean = rng.standard_normal(4)
        assert sa.w2_gaussian(mean, cov, mean, cov) < 1e-9

    def test_isotropic_scaling(self):
        for d in (1, 3, 8):
            got = sa.w2_gaussian(np.zeros(d), np.eye(d), np.zeros(d), 4 * np.eye(d))
            np.testing.assert_allclose(got, np.sqrt(d), rtol=1e-10)

    def test_commuting_diagonal_closed_form(self):
        rng = np.random.default_rng(1)
        a = rng.uniform(0.1, 3.0, 5)
        b = rng.uniform(0.1, 3.0, 5)
        mu1, mu2 = rng.standard_normal(5), rng.standard_normal(5)
        expected = np.sqrt(np.sum((np.sqrt(a) - np.sqrt(b)) ** 2)
                           + np.sum((mu1 - mu2) ** 2))
        got = sa.w2_gaussian(mu1, np.diag(a), mu2, np.diag(b))
        np.testing.assert_allclose(got, expected, rtol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_metric_properties(self, seed):
        rng = np.random.default_rng(seed)
        covs = [random_spd(rng, 3) for _ in range(3)]
        means = [rng.standard_normal(3) for _ in range(3)]
        d01 = sa.w2_gaussian(means[0], covs[0], means[1], covs[1])
        d10 = sa.w2_gaussian(means[1], covs[1], means[0], covs[0])
        d02 = sa.w2_gaussian(means[0], covs[0], means[2], covs[2])
        d12 = sa.w2_gaussian(means[1], covs[1], means[2], covs[2])
        assert d01 >= 0
        np.testing.assert_allclose(d01, d10, rtol=1e-8)
        assert d02 <= d01 + d12 + 1e-7

    def test_non_spd_rejected(self):
        bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues -1, 3
        with pytest.raises(ValueError, match="positive semi-definite"):
            sa.w2_gaussian(np.zeros(2), bad, np.zeros(2), np.eye(2))
        with pytest.raises(ValueError, match="symmetric"):
            sa.w2_gaussian(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]),
                           np.zeros(2), np.eye(2))

    @pytest.mark.parametrize("entry", [(0, 0), (0, 1)], ids=["diagonal", "off"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", ["cov1", "cov2"])
    def test_non_finite_rejected(self, name, bad, entry):
        broken = np.eye(2)
        broken[entry] = broken[entry[::-1]] = bad
        covs = {"cov1": np.eye(2), "cov2": np.eye(2), name: broken}
        with pytest.raises(ValueError, match=f"^{name}: must be finite$"):
            sa.w2_gaussian(np.zeros(2), covs["cov1"], np.zeros(2), covs["cov2"])

    def test_fit_and_floor(self):
        cond = isotropic_cond(mean=0.3, var=2.0)
        rng = np.random.default_rng(2)
        draws = sa.sample_conditional(cond, rng, size=4000)
        w2 = sa.w2_to_truth(draws, cond)
        floor = sa.w2_floor(cond, 4000, rng, repeats=6)
        assert w2 < 3 * floor


class TestStraightnessFlow:
    def test_dirac_path_is_straight(self, oracle):
        cond = dirac_cond(mean=0.7)
        grid = sa.make_flow_grid(50, 1.0)
        _, rec = sa.sample_with_config(EULER_FLOW, oracle, cond, grid,
                                       np.random.default_rng(0), n_samples=32,
                                       record_path=True)
        value = sa.straightness_flow(rec, oracle, cond, 128,
                                     np.random.default_rng(1))
        assert 0.0 <= value < 1e-8

    def test_monte_carlo_self_consistency(self, oracle):
        cond = isotropic_cond(mean=0.0, var=1.0)
        grid = sa.make_flow_grid(100, 1.0)
        _, rec = sa.sample_with_config(EULER_FLOW, oracle, cond, grid,
                                       np.random.default_rng(2), n_samples=500,
                                       record_path=True)
        v256 = sa.straightness_flow(rec, oracle, cond, 256,
                                    np.random.default_rng(3))
        v1024 = sa.straightness_flow(rec, oracle, cond, 1024,
                                     np.random.default_rng(4))
        assert abs(v256 - v1024) / v1024 < 0.05

    def test_late_step_straighter_than_early(self, spec, oracle):
        rng = np.random.default_rng(5)
        reference = sa.sample_conditional(
            sa.conditional(spec, [], list(range(16))), rng)[0]
        observed = [(p, reference[p]) for p in range(14)]
        targets = [14, 15]
        early = sa.conditional(spec, [], targets)
        late = sa.conditional(spec, observed, targets)
        grid = sa.make_flow_grid(50, 1.0)
        values = {}
        for name, cond in (("early", early), ("late", late)):
            _, rec = sa.sample_with_config(EULER_FLOW, oracle, cond, grid,
                                           np.random.default_rng(6),
                                           n_samples=500, record_path=True)
            values[name] = sa.straightness_flow(rec, oracle, cond, 256,
                                                np.random.default_rng(7))
        assert values["late"] < values["early"]

    def test_requires_recorded_path(self, oracle):
        cond = isotropic_cond()
        grid = sa.make_flow_grid(10, 1.0)
        _, rec = sa.sample_with_config(EULER_FLOW, oracle, cond, grid,
                                       np.random.default_rng(0), n_samples=4)
        with pytest.raises(ValueError, match="record"):
            sa.straightness_flow(rec, oracle, cond, 64, np.random.default_rng(0))


class TestStraightnessDiffusion:
    def test_values_bounded_by_cosine_range(self, linear_schedule, aniso_cond, oracle):
        grid = sa.make_diffusion_grid(linear_schedule, 50, 950)
        _, rec = sa.sample_with_config(DDPM, oracle, aniso_cond, grid,
                                       np.random.default_rng(1), n_samples=64,
                                       record_path=True)
        value = sa.straightness_diffusion(rec, oracle, aniso_cond, 128,
                                          np.random.default_rng(2))
        assert -1.0 <= value <= 1.0

    def test_dirac_low_noise_draws_align(self, linear_schedule, oracle):
        # Sampling times restricted to low indices: the score points from
        # x_t straight at the clean token, so the cosine approaches 1.
        cond = dirac_cond(mean=0.9)
        grid = sa.make_diffusion_grid(linear_schedule, 30, 30)
        _, rec = sa.sample_with_config(DDPM, oracle, cond, grid,
                                       np.random.default_rng(3), n_samples=64,
                                       record_path=True)
        value = sa.straightness_diffusion(rec, oracle, cond, 256,
                                          np.random.default_rng(4))
        assert value > 1 - 1e-3


    def test_probes_reach_the_clean_end(self, linear_schedule, aniso_cond, oracle):
        # The walk's last hop runs from index 0 to the clean state at -1, so
        # some probed level must lie above alpha_bars[0].  The probes' levels
        # reach the oracle as one array.
        grid = sa.make_diffusion_grid(linear_schedule, 2, 950)
        np.testing.assert_array_equal(grid.points, [950, 0, -1])
        _, rec = sa.sample_with_config(DDPM, oracle, aniso_cond, grid,
                                       np.random.default_rng(1), n_samples=8,
                                       record_path=True)
        levels = []

        class Spy(sa.ExactDenoiser):
            def score(self, x, alpha_bar, cond):
                levels.extend(np.ravel(alpha_bar))
                return super().score(x, alpha_bar, cond)

        sa.straightness_diffusion(rec, Spy(), aniso_cond, 951,
                                  np.random.default_rng(2))
        assert len(levels) == 951
        assert max(levels) > linear_schedule.alpha_bars[0]


@pytest.mark.parametrize("call, message", [
    (lambda c, t, r: sa.w2_floor(c, 64, r, repeats=0), "repeats: must be >= 1"),
    (lambda c, t, r: sa.w2_floor(c, 1, r), "n_draws: must be >= 2"),
    (lambda c, t, r: sa.straightness_flow(t["flow"], sa.ExactDenoiser(), c, 0, r),
     "t_draws: must be >= 1"),
    (lambda c, t, r: sa.straightness_diffusion(t["diffusion"], sa.ExactDenoiser(),
                                               c, 0, r),
     "t_draws: must be >= 1"),
], ids=["w2_floor_repeats", "w2_floor_n_draws", "flow_t_draws",
        "diffusion_t_draws"])
def test_counts_that_give_nan_are_refused(linear_schedule, aniso_cond, oracle,
                                          call, message):
    trajectories = {}
    for name, cfg, grid in (
        ("flow", EULER_FLOW, sa.make_flow_grid(5, 1.0)),
        ("diffusion", DDPM, sa.make_diffusion_grid(linear_schedule, 5, 950)),
    ):
        _, trajectories[name] = sa.sample_with_config(
            cfg, oracle, aniso_cond, grid, np.random.default_rng(0), n_samples=4,
            record_path=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=f"^{message}$"):
            call(aniso_cond, trajectories, np.random.default_rng(0))


class TestSamplingVariance:
    def test_dirac_process_has_zero_variance(self, linear_schedule):
        tight = sa.TokenProcessSpec(marginal_std=1e-6, jitter=1e-16)
        order = sa.random_order(tight, 4, seed=0)
        cfg = sa.SamplerConfig(kind="ddim")
        empirical = sa.sampling_variance(
            sa.conditioning_plan(tight, order), cfg,
            sa.step_grids(cfg, sa.constant_scheduler(50, 4), linear_schedule, 950),
            50, (1, 2))
        assert empirical.shape == (4, tight.token_dim)
        assert np.all(empirical < 1e-9)

    def test_last_step_below_first_step(self, spec, linear_schedule):
        order = sa.random_order(spec, 16, seed=0)
        cfg = sa.SamplerConfig(kind="ddpm")
        plan = sa.conditioning_plan(spec, order)
        empirical = sa.sampling_variance(
            plan, cfg,
            sa.step_grids(cfg, sa.constant_scheduler(50, 16), linear_schedule, 950),
            100, (11, 22))
        exact = sa.exact_variance(plan)
        assert empirical[-1].mean() < empirical[0].mean()
        assert exact[-1] < exact[0]

    def test_accuracy_at_base_resolution(self, spec, linear_schedule):
        # At the base grid the sampler is essentially exact, so the
        # empirical variance sits within the chi-square band of 100 draws.
        order = sa.random_order(spec, 16, seed=0)
        cfg = sa.SamplerConfig(kind="ddim")
        plan = sa.conditioning_plan(spec, order)
        empirical = sa.sampling_variance(
            plan, cfg,
            sa.step_grids(cfg, sa.constant_scheduler(951, 16), linear_schedule, 950),
            100, (11, 22))
        exact = sa.exact_variance(plan)
        rel = np.abs(empirical.mean(axis=1) - exact) / exact
        assert np.max(rel) < 0.30

    def test_draw_count_validation(self, spec, linear_schedule):
        order = sa.random_order(spec, 4, seed=0)
        cfg = sa.SamplerConfig(kind="ddim")
        with pytest.raises(ValueError, match="draws_per_step"):
            sa.sampling_variance(
                sa.conditioning_plan(spec, order), cfg,
                sa.step_grids(cfg, sa.constant_scheduler(10, 4), linear_schedule),
                1, (1, 2))

    def test_a_failing_step_is_named(self, spec, linear_schedule, monkeypatch):
        # Only the 7-step grid of AR step 3 visits schedule index 791.
        grids = [sa.make_diffusion_grid(linear_schedule, t, 950) for t in (3, 9, 2, 7)]
        monkeypatch.setattr(sa.diagnostics, "ExactDenoiser",
                            failing_at(grids[3].levels[1]))
        with pytest.raises(RuntimeError, match="^AR step 3: boom$") as info:
            sa.sampling_variance(
                sa.conditioning_plan(spec, sa.random_order(spec, 4, seed=0)),
                sa.SamplerConfig(kind="ddim"), grids, 8, (1, 2))
        assert isinstance(info.value.__cause__, sa.NumericalError)

    @pytest.mark.parametrize("cfg", [
        DDPM, sa.SamplerConfig("dpm_solver", order=2),
        sa.SamplerConfig("euler_maruyama"),
    ], ids=lambda c: f"{c.kind}-{c.order}")
    @pytest.mark.parametrize("steps, walked", [
        ((7, 7, 7, 7), [16]), ((3, 9, 3, 9), [8, 8]),
    ])
    def test_equals_a_walk_per_step(self, spec, linear_schedule, monkeypatch, cfg,
                                    steps, walked):
        # A constant policy's four groups of 4 run as one stacked walk, and
        # T = (3, 9, 3, 9) as two; each step's rows are those of a walk on
        # that step alone from the stream [redraw_seed, 1 + k].
        plan = sa.conditioning_plan(spec, sa.random_order(spec, 4, seed=0))
        grids = [sa.make_flow_grid(t, 1.0) if cfg.domain == sa.FLOW
                 else sa.make_diffusion_grid(linear_schedule, t, 950) for t in steps]
        walks, walk = [], sa.diagnostics.sample_with_config

        def counted(config, oracle, cond, *args, **kwargs):
            walks.append(cond.size)
            return walk(config, oracle, cond, *args, **kwargs)

        monkeypatch.setattr(sa.diagnostics, "sample_with_config", counted)
        got = sa.sampling_variance(plan, cfg, grids, 16, (1, 2))
        assert walks == walked  # positions per walk
        want = per_step_variance(plan, cfg, grids, 16, (1, 2))
        np.testing.assert_array_equal(got, want)

    def test_a_step_does_not_depend_on_other_steps_grids(self, spec, linear_schedule):
        # Common random numbers: allocations that agree on T(k) give equal
        # rows at step k, whatever the grids of the other steps.
        plan = sa.conditioning_plan(spec, sa.random_order(spec, 4, seed=0))
        a, b = (sa.sampling_variance(
                    plan, DDPM, [sa.make_diffusion_grid(linear_schedule, t, 950)
                                 for t in steps], 16, (1, 2))
                for steps in ((10, 10, 10, 10), (20, 10, 10, 10)))
        np.testing.assert_array_equal(a[1:], b[1:])
        assert np.all(a[0] != b[0])

    def test_a_failing_stacked_walk_names_its_steps(self, spec, linear_schedule,
                                                    monkeypatch):
        # Only the 3-step grids visit schedule index 475; AR steps 0 and 2
        # share that walk, and one policy's steps are named without it.
        grids = [sa.make_diffusion_grid(linear_schedule, t, 950) for t in (3, 8, 3, 8)]
        monkeypatch.setattr(sa.diagnostics, "ExactDenoiser",
                            failing_at(grids[0].levels[1]))
        with pytest.raises(RuntimeError, match="^AR step 0, AR step 2: boom$") as info:
            sa.sampling_variance(
                sa.conditioning_plan(spec, sa.random_order(spec, 4, seed=0)),
                sa.SamplerConfig(kind="ddim"), grids, 8, (1, 2))
        assert isinstance(info.value.__cause__, sa.NumericalError)

    @pytest.mark.parametrize("policy_steps, order_steps", [(4, 16), (16, 4)])
    def test_ar_step_mismatch_rejected(self, spec, linear_schedule,
                                       policy_steps, order_steps):
        # A policy with more or fewer AR steps than the order is an error,
        # not a report cut to the shorter of the two.
        order = sa.random_order(spec, order_steps, seed=0)
        cfg = sa.SamplerConfig(kind="ddim")
        grids = sa.step_grids(cfg, sa.constant_scheduler(10, policy_steps),
                              linear_schedule)
        with pytest.raises(ValueError, match="ar_steps"):
            sa.sampling_variance(sa.conditioning_plan(spec, order), cfg, grids, 10,
                                 (1, 2))


class TestExactVariance:
    @pytest.mark.parametrize("steps, kind", [(16, "random"), (5, "raster")])
    def test_is_the_trace_over_the_group_size(self, spec, steps, kind):
        order = (sa.random_order(spec, steps, seed=2) if kind == "random"
                 else sa.raster_order(spec, steps))
        plan = sa.conditioning_plan(spec, order)
        exact = sa.exact_variance(plan)
        assert exact.tolist() == [
            float(np.trace(plan.covariance(k))) / size
            for k, size in enumerate(order.group_sizes)]
        # The same traces from the Schur complement of each group on the
        # groups before it.
        groups = list(order.groups())
        for k, group in enumerate(groups):
            before = [p for g in groups[:k] for p in g]
            ref = schur_solver(spec, before, group) if before else None
            cov = (ref.covariance if ref is not None
                   else sa.joint_covariance(spec)[np.ix_(group, group)])
            assert exact[k] == pytest.approx(np.trace(cov) / len(group), rel=1e-9)


class TestProbeError:
    def test_dirac_process(self):
        tight = sa.TokenProcessSpec(marginal_std=1e-6, jitter=1e-16)
        order = sa.random_order(tight, 4, seed=0)
        mse = sa.probe_error(sa.conditioning_plan(tight, order), range(32))
        assert mse.shape == (4,)
        assert np.all(mse < 1e-9)

    def test_expectation_matches_trace(self, spec):
        order = sa.random_order(spec, 16, seed=0)
        plan = sa.conditioning_plan(spec, order)
        mse = sa.probe_error(plan, range(1000))
        exact = sa.exact_variance(plan)
        se = exact * np.sqrt(2.0 / (1000 * 4))
        assert np.all(np.abs(mse - exact) <= 3 * se)

    def test_order_averaged_traces_strictly_decrease(self, spec):
        orders = [sa.random_order(spec, 16, seed=s) for s in range(32)]
        traces = np.mean(
            [sa.exact_variance(sa.conditioning_plan(spec, o)) for o in orders],
            axis=0,
        )
        assert np.all(np.diff(traces) < 0)


def failing_at(level):
    """An exact denoiser class whose x0 raises at one diffusion level."""
    class Failing(sa.ExactDenoiser):
        def x0(self, x, alpha_bar, cond, row=None):
            if alpha_bar == level:
                raise sa.NumericalError("boom")
            return super().x0(x, alpha_bar, cond, row)
    return Failing


def reference_conds(plan, prefix_seed):
    """Every AR step's conditional given the frozen prefix of ``prefix_seed``."""
    whitened = np.random.default_rng(prefix_seed).standard_normal(
        (plan.spec.token_count, plan.spec.token_dim))
    return [plan.conditional(k, whitened) for k in range(plan.order.step_count)]


def per_step_variance(plan, cfg, grids, draws, seeds):
    """sampling_variance from one sampler walk per AR step, each on its own
    conditional with the stream ``[redraw_seed, 1 + k]``: the reference the
    stacked walks reproduce."""
    prefix_seed, redraw_seed = seeds
    oracle = sa.ExactDenoiser()
    rows = []
    for k, (cond, grid) in enumerate(zip(reference_conds(plan, prefix_seed), grids)):
        out, _ = sa.sample_with_config(
            cfg, oracle, cond, grid, np.random.default_rng([redraw_seed, 1 + k]),
            n_samples=draws)
        rows.append(out.var(axis=0, ddof=1).mean(axis=0))
    return np.asarray(rows)


def per_cell_sweep(plan, cfg, grids_per_policy, seeds, draws, floor_repeats):
    """quality_sweep's W2, NFE and floors from one sampler walk per
    (policy, AR step) cell, each on its own conditional with the stream
    ``[sweep_seed, 1 + k]``: the reference the stacked walks reproduce."""
    prefix_seed, sweep_seed = seeds
    conds = reference_conds(plan, prefix_seed)
    rng = np.random.default_rng(sweep_seed)
    floors = [np.mean([w2_by_moments(sa.sample_conditional(cond, rng, size=draws), cond)
                       for _ in range(floor_repeats)]) for cond in conds]
    oracle = sa.ExactDenoiser()
    shape = (len(grids_per_policy), len(conds))
    w2, nfe = np.empty(shape), np.empty(shape, dtype=int)
    for p, grids in enumerate(grids_per_policy):
        for k, (cond, grid) in enumerate(zip(conds, grids)):
            out, record = sa.sample_with_config(
                cfg, oracle, cond, grid, np.random.default_rng([sweep_seed, 1 + k]),
                n_samples=draws)
            w2[p, k], nfe[p, k] = w2_by_moments(out, cond), record.nfe
    return w2, nfe, np.asarray(floors)


@pytest.fixture(scope="module")
def sweep(spec, linear_schedule):
    # Policies: constant_951 (the reference), constant_50, linear_50_5.
    order = sa.random_order(spec, 16, seed=0)
    cfg = sa.SamplerConfig(kind="ddim")
    schedulers = [
        sa.constant_scheduler(951, 16),
        sa.constant_scheduler(50, 16),
        sa.StepScheduler(kind="linear", t_early=50, t_late=5, ar_steps=16),
    ]
    grids = [sa.step_grids(cfg, s, linear_schedule, 950) for s in schedulers]
    return sa.quality_sweep(
        sa.conditioning_plan(spec, order), cfg, grids, (3, 4),
        draws_per_step=512, floor_repeats=8, joint_sequences=2000)


class TestQualitySweep:
    def test_shapes(self, sweep):
        w2, nfe, floors, joint = sweep
        assert w2.shape == nfe.shape == (3, 16)
        assert floors.shape == (16,)
        assert joint.shape == (3,)

    def test_reference_row_sits_at_monte_carlo_floor(self, sweep):
        w2, _, floors, _ = sweep
        assert np.all(w2[0] <= 2.0 * floors)

    def test_equal_step_counts_share_draws(self, sweep):
        w2 = sweep[0]
        # constant_50 and linear_50_5 both run T(0) = 50 at the first AR step
        # with the same stream, so the paired values coincide exactly.
        assert w2[1, 0] == w2[2, 0]

    def test_early_step_reduction_hurts_where_late_reduction_does_not(
        self, spec, linear_schedule
    ):
        order = sa.random_order(spec, 16, seed=0)
        cfg = sa.SamplerConfig(kind="ddim")
        schedulers = [
            sa.constant_scheduler(50, 16),
            sa.StepScheduler(kind="linear", t_early=50, t_late=5, ar_steps=16),
            sa.StepScheduler(kind="linear", t_early=5, t_late=50, ar_steps=16),
        ]
        grids = [sa.step_grids(cfg, s, linear_schedule, 950) for s in schedulers]
        w2 = sa.quality_sweep(sa.conditioning_plan(spec, order), cfg, grids,
                              (3, 4), draws_per_step=256, floor_repeats=8)[0]
        constant_50, linear_50_5, linear_5_50 = w2[:, 0]
        assert linear_5_50 >= 2.0 * constant_50
        assert linear_50_5 <= 1.2 * constant_50

    def test_nfe_increases_with_t_late(self, spec, linear_schedule):
        ks = [sa.StepScheduler(kind="linear", t_early=50, t_late=tl, ar_steps=8)
              for tl in (5, 15, 25, 50)]
        totals = [sa.total_nfe(k) for k in ks]
        assert all(b > a for a, b in zip(totals, totals[1:]))

    @pytest.mark.parametrize("cfg, calls", [
        (sa.SamplerConfig(kind="ddim"), 10),
        (sa.SamplerConfig(kind="dpm_solver", order=2), 19),
    ])
    def test_nfe_counts_the_grids_walked(self, spec, linear_schedule, cfg, calls):
        # A policy is its grids: constant-10 grids report the calls the
        # 10-step runs made.
        order = sa.random_order(spec, 4, seed=0)
        grids = sa.step_grids(cfg, sa.constant_scheduler(10, 4), linear_schedule, 950)
        _, nfe, _, joint = sa.quality_sweep(
            sa.conditioning_plan(spec, order), cfg, [grids], (0, 1),
            draws_per_step=8, floor_repeats=1)
        assert nfe.tolist() == [[calls] * 4]
        assert int(nfe.sum()) == calls * 4
        assert np.isnan(joint).all()

    def test_sweeps_an_allocation_no_scheduler_expresses(self, spec, linear_schedule):
        # T = (3, 9, 2, 7) is no rule's table; it is swept beside constant-9
        # as grids.  Each policy's calls are its grids' calls, and at AR step
        # 1, where both run 9 steps, common random numbers give equal draws.
        order = sa.random_order(spec, 4, seed=0)
        cfg = sa.SamplerConfig(kind="dpm_solver", order=2)
        allocation = [sa.make_diffusion_grid(linear_schedule, t, 950)
                      for t in (3, 9, 2, 7)]
        constant = sa.step_grids(cfg, sa.constant_scheduler(9, 4), linear_schedule, 950)
        w2, nfe, floors, joint = sa.quality_sweep(
            sa.conditioning_plan(spec, order), cfg, [allocation, constant], (0, 1),
            draws_per_step=16, floor_repeats=1)
        for p, grids in enumerate((allocation, constant)):
            assert nfe[p].tolist() == [cfg.calls(g.step_count) for g in grids]
        assert nfe[0].tolist() == [5, 17, 3, 13]
        assert w2[0, 1] == w2[1, 1]
        assert np.all(w2[0, [0, 2, 3]] != w2[1, [0, 2, 3]])
        assert floors.shape == (4,) and np.isnan(joint).all()

    @pytest.mark.parametrize("cfg", [
        sa.SamplerConfig("ddpm"), sa.SamplerConfig("ddim", eta=0.5),
        sa.SamplerConfig("dpm_solver"), sa.SamplerConfig("dpm_solver", order=2),
        sa.SamplerConfig("dpm_solver_pp"), sa.SamplerConfig("euler_flow"),
        sa.SamplerConfig("euler_maruyama"),
    ], ids=lambda c: f"{c.kind}-{c.order}")
    def test_stacked_walks_equal_a_walk_per_cell(self, linear_schedule, monkeypatch,
                                                 cfg):
        # 15 positions in 4 AR steps: groups of 4, 4, 4 and 3.  Equal T at
        # equal group sizes share a walk, across AR steps and policies; the
        # T = 2 cells of group sizes 4 and 3 do not.  Five walks in all.
        spec = sa.TokenProcessSpec(grid_height=3, grid_width=5, token_dim=2)
        plan = sa.conditioning_plan(spec, sa.random_order(spec, 4, seed=1))
        policies = [(3, 5, 5, 2), (3, 3, 5, 2), (4, 5, 2, 2)]
        grids = [[sa.make_flow_grid(t, 1.0) if cfg.domain == sa.FLOW
                  else sa.make_diffusion_grid(linear_schedule, t, 950) for t in ts]
                 for ts in policies]
        walks, walk = [], sa.diagnostics.sample_with_config

        def counted(config, oracle, cond, *args, **kwargs):
            walks.append(cond.size)
            return walk(config, oracle, cond, *args, **kwargs)

        monkeypatch.setattr(sa.diagnostics, "sample_with_config", counted)
        w2, nfe, floors, _ = sa.quality_sweep(plan, cfg, grids, (5, 6),
                                              draws_per_step=32, floor_repeats=2)
        assert sorted(walks) == [4, 4, 9, 12, 16]  # positions per walk
        want_w2, want_nfe, want_floors = per_cell_sweep(plan, cfg, grids, (5, 6), 32, 2)
        np.testing.assert_array_equal(w2, want_w2)
        np.testing.assert_array_equal(nfe, want_nfe)
        np.testing.assert_array_equal(floors, want_floors)

    def test_a_failing_walk_names_its_cells(self, spec, linear_schedule, monkeypatch):
        # Only the 9-step grids visit schedule index 831.  Their walk stacks
        # AR step 1 of the allocation and every step of constant-9, and names
        # each of them.
        cfg = sa.SamplerConfig(kind="ddim")
        allocation = [sa.make_diffusion_grid(linear_schedule, t, 950)
                      for t in (3, 9, 2, 7)]
        constant = sa.step_grids(cfg, sa.constant_scheduler(9, 4), linear_schedule, 950)
        monkeypatch.setattr(sa.diagnostics, "ExactDenoiser",
                            failing_at(constant[0].levels[1]))
        with pytest.raises(RuntimeError) as info:
            sa.quality_sweep(
                sa.conditioning_plan(spec, sa.random_order(spec, 4, seed=0)), cfg,
                [allocation, constant], (0, 1), draws_per_step=8, floor_repeats=1)
        assert str(info.value) == (
            "AR step 1 (policy 0), AR step 0 (policy 1), AR step 1 (policy 1), "
            "AR step 2 (policy 1), AR step 3 (policy 1): boom")
        assert isinstance(info.value.__cause__, sa.NumericalError)

    def test_one_draw_per_step_rejected(self, spec, linear_schedule):
        # The walk's own check, before any floor is drawn.
        cfg = sa.SamplerConfig(kind="ddim")
        grids = sa.step_grids(cfg, sa.constant_scheduler(4, 4), linear_schedule, 950)
        with pytest.raises(ValueError, match="^draws_per_step: must be >= 2$"):
            sa.quality_sweep(
                sa.conditioning_plan(spec, sa.random_order(spec, 4, seed=0)), cfg,
                [grids], (0, 1), draws_per_step=1, floor_repeats=1)

    def test_joint_moment_error_reported(self, sweep):
        joint = sweep[3]
        assert np.all(np.isfinite(joint))
        assert joint[0] < 0.25

    def test_one_joint_draw_rejected(self, linear_schedule):
        # One sequence of one dimension is one joint draw, whose empirical
        # covariance is nan: the value the column holds when the run is off.
        # Two draws, from two sequences or two dimensions, give a number.
        cfg = sa.SamplerConfig(kind="ddim")
        grids = sa.step_grids(cfg, sa.constant_scheduler(4, 2), linear_schedule, 950)
        for dim, sequences in ((1, 1), (1, 2), (2, 1)):
            spec = sa.TokenProcessSpec(grid_height=2, grid_width=2, token_dim=dim)
            plan = sa.conditioning_plan(spec, sa.raster_order(spec, 2))

            def sweep():
                return sa.quality_sweep(plan, cfg, [grids], (0, 1),
                                        draws_per_step=8, floor_repeats=1,
                                        joint_sequences=sequences)

            if dim * sequences == 1:
                with pytest.raises(ValueError, match="^joint_sequences: "):
                    sweep()
            else:
                [joint] = sweep()[3]
                assert np.isfinite(joint)

    def test_mismatched_ar_steps_rejected(self, spec, linear_schedule):
        order = sa.random_order(spec, 16, seed=0)
        cfg = sa.SamplerConfig(kind="ddim")
        pol = sa.constant_scheduler(10, 8)
        with pytest.raises(ValueError, match="AR step count"):
            sa.quality_sweep(sa.conditioning_plan(spec, order), cfg,
                             [sa.step_grids(cfg, pol, linear_schedule)],
                             (0, 1), draws_per_step=8, floor_repeats=1)


def scipy_spearman(x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # ConstantInputWarning
        return float(spearmanr(x, y)[0])


class TestSpearman:
    def test_matches_scipy_on_random_pairs(self):
        # Every third pair is integer-valued from a few levels, so most of
        # those have ties; lengths start at 2.
        rng = np.random.default_rng(20240517)
        worst, compared = 0.0, 0
        for i in range(1200):
            n = int(rng.integers(2, 30))
            if i % 3 == 0:
                x = rng.integers(0, 4, n).astype(float)
                y = rng.integers(0, 3, n).astype(float)
            else:
                x, y = rng.standard_normal(n), rng.standard_normal(n)
            ref, got = scipy_spearman(x, y), sa.spearman(x, y)
            if np.isnan(ref):
                assert np.isnan(got)
                continue
            worst = max(worst, abs(got - ref))
            compared += 1
        assert compared > 1000
        assert worst <= 1e-12

    def test_length_two(self):
        assert sa.spearman([0.0, 1.0], [5.0, 2.0]) == -1.0
        assert sa.spearman([0.0, 1.0], [2.0, 5.0]) == 1.0

    @pytest.mark.parametrize("x, y", [
        ([1.0, 1.0, 1.0, 1.0], [0.1, 0.4, 0.2, 0.3]),
        ([0.1, 0.4, 0.2, 0.3], [2.0, 2.0, 2.0, 2.0]),
        ([0.1, np.nan, 0.2, 0.3], [0.1, 0.4, 0.2, 0.3]),
        ([0.1, 0.4, 0.2, 0.3], [0.1, 0.4, np.nan, 0.3]),
    ])
    def test_constant_or_nan_gives_nan(self, x, y):
        assert np.isnan(scipy_spearman(x, y))
        assert np.isnan(sa.spearman(x, y))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            sa.spearman([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_spearman_to_step_with_ties(self):
        # diagnose ranks each per-step series against its AR step this way.
        per_step = np.array([0.3, 0.1, 0.1, 0.5, 0.3, 0.0, 0.5])
        steps = np.arange(per_step.size)
        ref = scipy_spearman(steps, per_step)
        assert abs(sa.spearman(steps, per_step) - ref) <= 1e-12


class TestStraightnessReport:
    def test_by_step_requires_paths(self, spec, linear_schedule):
        order = sa.random_order(spec, 4, seed=0)
        cfg = sa.SamplerConfig(kind="ddim")
        batch = sa.simulate_sequences(
            sa.conditioning_plan(spec, order), cfg,
            sa.step_grids(cfg, sa.constant_scheduler(20, 4), linear_schedule, 950),
            n_sequences=4, master_seed=0)
        with pytest.raises(ValueError, match="record_paths"):
            sa.straightness_by_step(batch, 32, np.random.default_rng(0))

    def test_report_fields(self, spec, linear_schedule):
        order = sa.random_order(spec, 4, seed=0)
        cfg = sa.SamplerConfig(kind="ddpm")
        batch = sa.simulate_sequences(
            sa.conditioning_plan(spec, order), cfg,
            sa.step_grids(cfg, sa.constant_scheduler(20, 4), linear_schedule, 950),
            n_sequences=8, master_seed=0, record_paths=True)
        per_step = sa.straightness_by_step(batch, 32, np.random.default_rng(0))
        # A diffusion batch is scored by the diffusion (cosine) metric.
        rng = np.random.default_rng(0)
        assert per_step.tolist() == [
            sa.straightness_diffusion(traj, sa.ExactDenoiser(), cond, 32, rng)
            for traj, cond in zip(batch.trajectories, batch.conditionals)]
        assert per_step.shape == (4,)
        assert np.all(per_step >= -1) and np.all(per_step <= 1)
        assert -1.0 <= sa.spearman(np.arange(4), per_step) <= 1.0


# The forms that the diagnostics compute in one place now, kept as the
# references the folded code must reproduce exactly.


def prefix_by_step(plan, prefix_seed):
    """The frozen prefix drawn one AR step at a time, each step's whitened
    innovations drawn after its conditional is formed."""
    d = plan.spec.token_dim
    rng = np.random.default_rng(prefix_seed)
    whitened = np.empty((plan.spec.token_count, d))
    conds = []
    for k in range(plan.order.step_count):
        conds.append(plan.conditional(k, whitened))
        whitened[plan.rows(k)] = rng.standard_normal((conds[k].size, d))
    return conds


def w2_by_moments(draws, cond):
    """W2 of the draws' moment fit against ``N(mean, kron(Sigma, I_d))``."""
    flat = draws.reshape(draws.shape[0], -1)
    fit_cov = np.atleast_2d(np.cov(flat, rowvar=False, ddof=1))
    d = cond.mean.shape[-1]
    return sa.w2_gaussian(flat.mean(axis=0), 0.5 * (fit_cov + fit_cov.T),
                          cond.mean.ravel(), np.kron(cond.covariance, np.eye(d)))


def straightness_by_probe(trajectory, oracle, cond, t_draws, rng):
    """Both straightness metrics probed one stratified time at a time, with
    the interpolated level of a flow path a placeholder."""
    times, levels, states = (trajectory.grid.points, trajectory.grid.levels,
                             trajectory.states)
    t_end, t_start = float(times[-1]), float(times[0])
    total, used = 0.0, 0
    u = rng.random(t_draws)
    for t in t_end + (np.arange(t_draws) + u) / t_draws * (t_start - t_end):
        t = float(t)
        j = min(max(int(np.searchsorted(-times, -t, side="right")) - 1, 0),
                len(times) - 2)
        w = (t - times[j + 1]) / (times[j] - times[j + 1])
        x_t = w * states[j] + (1.0 - w) * states[j + 1]
        if levels is None:
            v = oracle.velocity(x_t, t, cond)
            total += float(np.mean(np.sum((states[0] - states[-1] - v) ** 2,
                                          axis=(-2, -1))))
            continue
        level = float(np.exp(w * np.log(levels[j]) + (1.0 - w) * np.log(levels[j + 1])))
        s = oracle.score(x_t, min(level, 1.0), cond).reshape(x_t.shape[0], -1)
        to_clean = (states[-1] - x_t).reshape(x_t.shape[0], -1)
        nu, ns = np.linalg.norm(to_clean, axis=1), np.linalg.norm(s, axis=1)
        keep = (nu > 1e-300) & (ns > 1e-300)
        total += float(np.sum(np.sum(to_clean[keep] * s[keep], axis=1)
                              / (nu[keep] * ns[keep])))
        used += int(np.sum(keep))
    return total / t_draws if levels is None else total / used


class TestFoldReferences:
    @pytest.mark.parametrize("height, width, dim, steps, kind", [
        (4, 4, 4, 16, "random"), (4, 4, 4, 5, "raster"), (3, 2, 1, 1, "random"),
        (2, 3, 3, 4, "random"),
    ])
    def test_one_block_prefix_equals_the_per_step_draws(self, height, width, dim,
                                                        steps, kind):
        spec = sa.TokenProcessSpec(grid_height=height, grid_width=width,
                                   token_dim=dim)
        order = (sa.random_order(spec, steps, seed=3) if kind == "random"
                 else sa.raster_order(spec, steps))
        plan = sa.conditioning_plan(spec, order)
        got = sa.diagnostics._reference_conditionals(plan, 17)
        want = prefix_by_step(plan, 17)
        assert len(got) == len(want) == steps
        for a, b in zip(got, want):
            assert a.target_positions == b.target_positions
            np.testing.assert_array_equal(a.mean, b.mean)
            np.testing.assert_array_equal(a.covariance, b.covariance)

    @pytest.mark.parametrize("draws", [3, 8, 200])
    def test_w2_to_truth_is_the_moment_fit_against_the_kron_law(self, aniso_cond,
                                                               draws):
        # 3 and 8 draws of 12 coordinates give a singular fit.
        rng = np.random.default_rng(draws)
        for cond in (aniso_cond, isotropic_cond(0.4, 2.0, dim=1),
                     dirac_cond(0.7, dim=3)):
            sample = sa.sample_conditional(cond, rng, size=draws)
            assert sa.w2_to_truth(sample, cond) == w2_by_moments(sample, cond)

    def test_w2_to_truth_refuses_a_batched_mean(self, aniso_cond):
        batched = sa.ConditionalGaussian(aniso_cond.target_positions,
                                         np.stack([aniso_cond.mean] * 2),
                                         aniso_cond.covariance)
        draws = np.zeros((4,) + aniso_cond.mean.shape)
        with pytest.raises(ValueError,
                           match=r"^cond: needs an unbatched \(m, d\) mean$"):
            sa.w2_to_truth(draws, batched)

    @pytest.mark.parametrize("sampler", ["euler_flow", "ddpm", "ddim"])
    @pytest.mark.parametrize("steps", [1, 7])
    def test_straightness_equals_the_per_probe_loop(self, linear_schedule,
                                                    aniso_cond, oracle, sampler,
                                                    steps):
        cfg = sa.SamplerConfig(sampler)
        flow = cfg.domain == sa.FLOW
        grid = (sa.make_flow_grid(steps, 0.9) if flow
                else sa.make_diffusion_grid(linear_schedule, steps, 950))
        _, rec = sa.sample_with_config(cfg, oracle, aniso_cond, grid,
                                       np.random.default_rng(5), n_samples=16,
                                       record_path=True)
        fn = sa.straightness_flow if flow else sa.straightness_diffusion
        got = fn(rec, oracle, aniso_cond, 40, np.random.default_rng(6))
        assert got == straightness_by_probe(rec, oracle, aniso_cond, 40,
                                            np.random.default_rng(6))

    def test_straightness_leaves_out_zero_norm_draws(self, linear_schedule,
                                                    aniso_cond, oracle):
        # Draws parked at zero along their whole path have no direction to
        # their clean token: each probe's sum leaves them out, as the
        # per-probe loop does, and a path with no draw left reads nan.
        grid = sa.make_diffusion_grid(linear_schedule, 7, 950)
        _, rec = sa.sample_with_config(DDPM, oracle, aniso_cond, grid,
                                       np.random.default_rng(5), n_samples=16,
                                       record_path=True)
        parked = (np.arange(16) % 5 == 3)[:, None, None]
        rec = dataclasses.replace(
            rec, states=[np.where(parked, 0.0, s) for s in rec.states])
        got = sa.straightness_diffusion(rec, oracle, aniso_cond, 40,
                                        np.random.default_rng(6))
        assert got == straightness_by_probe(rec, oracle, aniso_cond, 40,
                                            np.random.default_rng(6))
        still = dataclasses.replace(rec, states=[0.0 * s for s in rec.states])
        assert np.isnan(sa.straightness_diffusion(still, oracle, aniso_cond, 40,
                                                  np.random.default_rng(6)))

    def test_straightness_errors_keep_their_order(self, aniso_cond, oracle):
        rng = np.random.default_rng(0)
        grid = sa.make_flow_grid(4, 1.0)
        _, bare = sa.sample_with_config(EULER_FLOW, oracle, aniso_cond, grid, rng,
                                        n_samples=2)
        _, rec = sa.sample_with_config(EULER_FLOW, oracle, aniso_cond, grid, rng,
                                       n_samples=2, record_path=True)
        for fn in (sa.straightness_flow, sa.straightness_diffusion):
            with pytest.raises(ValueError, match="endpoints missing"):
                fn(bare, oracle, aniso_cond, 0, rng)
        with pytest.raises(ValueError, match="needs a diffusion grid"):
            sa.straightness_diffusion(rec, oracle, aniso_cond, 0, rng)
        with pytest.raises(ValueError, match="t_draws"):
            sa.straightness_flow(rec, oracle, aniso_cond, 0, rng)
