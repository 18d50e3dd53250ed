import warnings

import numpy as np
import pytest
from scipy.stats import spearmanr

import stepanneal as sa

from conftest import dirac_cond, isotropic_cond

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
        # some probed level must lie above alpha_bars[0].
        grid = sa.make_diffusion_grid(linear_schedule, 2, 950)
        np.testing.assert_array_equal(grid.points, [950, 0, -1])
        _, rec = sa.sample_with_config(DDPM, oracle, aniso_cond, grid,
                                       np.random.default_rng(1), n_samples=8,
                                       record_path=True)
        levels = []

        class Spy(sa.ExactDenoiser):
            def score(self, x, alpha_bar, cond):
                levels.append(alpha_bar)
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
        rep = sa.sampling_variance(
            sa.conditioning_plan(tight, order), cfg,
            sa.step_grids(cfg, sa.constant_scheduler(50, 4), linear_schedule, 950),
            50, (1, 2))
        assert np.all(rep.empirical < 1e-9)

    def test_last_step_below_first_step(self, spec, linear_schedule):
        order = sa.random_order(spec, 16, seed=0)
        cfg = sa.SamplerConfig(kind="ddpm")
        rep = sa.sampling_variance(
            sa.conditioning_plan(spec, order), cfg,
            sa.step_grids(cfg, sa.constant_scheduler(50, 16), linear_schedule, 950),
            100, (11, 22))
        assert rep.empirical[-1].mean() < rep.empirical[0].mean()
        assert rep.exact_per_dim[-1] < rep.exact_per_dim[0]

    def test_accuracy_at_base_resolution(self, spec, linear_schedule):
        # At the base grid the sampler is essentially exact, so the
        # empirical variance sits within the chi-square band of 100 draws.
        order = sa.random_order(spec, 16, seed=0)
        cfg = sa.SamplerConfig(kind="ddim")
        rep = sa.sampling_variance(
            sa.conditioning_plan(spec, order), cfg,
            sa.step_grids(cfg, sa.constant_scheduler(951, 16), linear_schedule, 950),
            100, (11, 22))
        per_step = rep.empirical.mean(axis=1)
        rel = np.abs(per_step - rep.exact_per_dim) / rep.exact_per_dim
        assert np.max(rel) < 0.30

    def test_draw_count_validation(self, spec, linear_schedule):
        order = sa.random_order(spec, 4, seed=0)
        cfg = sa.SamplerConfig(kind="ddim")
        with pytest.raises(ValueError, match="draws_per_step"):
            sa.sampling_variance(
                sa.conditioning_plan(spec, order), cfg,
                sa.step_grids(cfg, sa.constant_scheduler(10, 4), linear_schedule),
                1, (1, 2))

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


class TestProbeError:
    def test_dirac_process(self):
        tight = sa.TokenProcessSpec(marginal_std=1e-6, jitter=1e-16)
        order = sa.random_order(tight, 4, seed=0)
        rep = sa.probe_error(sa.conditioning_plan(tight, order), range(32))
        assert np.all(rep.mse < 1e-9)

    def test_expectation_matches_trace(self, spec):
        order = sa.random_order(spec, 16, seed=0)
        rep = sa.probe_error(sa.conditioning_plan(spec, order), range(1000))
        se = rep.exact_per_dim * np.sqrt(2.0 / (1000 * 4))
        assert np.all(np.abs(rep.mse - rep.exact_per_dim) <= 3 * se)

    def test_order_averaged_traces_strictly_decrease(self, spec):
        orders = [sa.random_order(spec, 16, seed=s) for s in range(32)]
        traces = np.mean(
            [sa.probe_error(sa.conditioning_plan(spec, o), range(2)).exact_per_dim
             for o in orders],
            axis=0,
        )
        assert np.all(np.diff(traces) < 0)


@pytest.fixture(scope="module")
def sweep(spec, linear_schedule):
    order = sa.random_order(spec, 16, seed=0)
    cfg = sa.SamplerConfig(kind="ddim")
    schedulers = [
        sa.constant_scheduler(951, 16),
        sa.constant_scheduler(50, 16),
        sa.StepScheduler(kind="linear", t_early=50, t_late=5, ar_steps=16),
    ]
    policies = [(s, sa.step_grids(cfg, s, linear_schedule, 950)) for s in schedulers]
    rows, summaries = sa.quality_sweep(
        sa.conditioning_plan(spec, order), cfg, policies, (3, 4),
        draws_per_step=512, joint_sequences=2000)
    return rows, summaries


class TestQualitySweep:
    def test_shapes(self, sweep):
        rows, summaries = sweep
        assert len(rows) == 3 * 16
        assert len(summaries) == 3

    def test_reference_row_sits_at_monte_carlo_floor(self, sweep):
        rows, _ = sweep
        for r in rows:
            if r.label == "constant_951":
                assert r.w2 <= 2.0 * r.w2_floor

    def test_equal_step_counts_share_draws(self, sweep):
        rows, _ = sweep
        by = {(r.label, r.ar_step): r.w2 for r in rows}
        # Both policies run T(0) = 50 at the first AR step with the same
        # stream, so the paired values coincide exactly.
        assert by[("constant_50", 0)] == by[("linear_50_5", 0)]

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
        policies = [(s, sa.step_grids(cfg, s, linear_schedule, 950))
                    for s in schedulers]
        rows, _ = sa.quality_sweep(sa.conditioning_plan(spec, order), cfg, policies,
                                   (3, 4), draws_per_step=256)
        step0 = {r.label: r.w2 for r in rows if r.ar_step == 0}
        assert step0["linear_5_50"] >= 2.0 * step0["constant_50"]
        assert step0["linear_50_5"] <= 1.2 * step0["constant_50"]

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
        # The scheduler only labels a policy: constant-10 grids under a
        # constant-50 label report the calls the 10-step runs made.
        order = sa.random_order(spec, 4, seed=0)
        grids = sa.step_grids(cfg, sa.constant_scheduler(10, 4), linear_schedule, 950)
        rows, [summary] = sa.quality_sweep(
            sa.conditioning_plan(spec, order), cfg,
            [(sa.constant_scheduler(50, 4), grids)], (0, 1),
            draws_per_step=8, floor_repeats=1)
        assert summary.label == "constant_50"
        assert [r.nfe for r in rows] == [calls] * 4
        assert summary.total_nfe == calls * 4

    def test_joint_moment_error_reported(self, sweep):
        _, summaries = sweep
        assert all(np.isfinite(s.joint_moment_error) for s in summaries)
        assert summaries[0].joint_moment_error < 0.25

    def test_mismatched_ar_steps_rejected(self, spec, linear_schedule):
        order = sa.random_order(spec, 16, seed=0)
        cfg = sa.SamplerConfig(kind="ddim")
        pol = sa.constant_scheduler(10, 8)
        with pytest.raises(ValueError, match="AR step count"):
            sa.quality_sweep(sa.conditioning_plan(spec, order), cfg,
                             [(pol, sa.step_grids(cfg, pol, linear_schedule))],
                             (0, 1))


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
        per_step = np.array([0.3, 0.1, 0.1, 0.5, 0.3, 0.0, 0.5])
        rep = sa.StraightnessReport(metric="flow", per_step=per_step,
                                    t_draws=8, n_trajectories=4)
        ref = scipy_spearman(np.arange(per_step.size), per_step)
        assert abs(rep.spearman_to_step - ref) <= 1e-12


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
        rep = sa.straightness_by_step(batch, 32, np.random.default_rng(0))
        assert rep.metric == "diffusion"
        assert rep.per_step.shape == (4,)
        assert np.all(rep.per_step >= -1) and np.all(rep.per_step <= 1)
        assert -1.0 <= rep.spearman_to_step <= 1.0
