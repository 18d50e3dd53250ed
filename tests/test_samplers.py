import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

import stepanneal as sa

from conftest import dirac_cond, isotropic_cond

DDPM = sa.SamplerConfig("ddpm")
DDIM = sa.SamplerConfig("ddim")
DPM1 = sa.SamplerConfig("dpm_solver", order=1)
DPM2 = sa.SamplerConfig("dpm_solver", order=2)
DPM_PP = sa.SamplerConfig("dpm_solver_pp")
EULER_FLOW = sa.SamplerConfig("euler_flow")
EULER_SDE = sa.SamplerConfig("euler_maruyama", sde_noise_scale=1.0)


def ddpm_chain_variance(grid, v):
    """Closed-form variance of the ancestral chain on a scalar conditional:
    the exact-oracle updates are affine, so the output law follows from
    composing the per-transition coefficients (independent of the sampler
    implementation)."""
    lv = grid.levels
    var = 1.0  # starting noise
    for i in range(len(lv) - 1):
        a_t, a_s = lv[i], lv[i + 1]
        big_a = a_t * v + 1 - a_t
        ratio = a_t / a_s
        beta_eff = 1 - ratio
        c0 = math.sqrt(a_s) * beta_eff / (1 - a_t)
        cx = math.sqrt(ratio) * (1 - a_s) / (1 - a_t)
        coef = c0 * math.sqrt(a_t) * v / big_a + cx
        btilde = beta_eff * (1 - a_s) / (1 - a_t)
        var = coef**2 * var + btilde
    return var


def at_50_digits(fn):
    """``fn`` evaluated in 50-digit decimal arithmetic on the float levels it
    is given (``None`` passes through), its results returned as floats: a
    reference far more precise than the float64 rules it checks."""
    def reference(*levels):
        with localcontext() as ctx:
            ctx.prec = 50
            return tuple(float(v) for v in fn(
                *(None if a is None else Decimal(float(a)) for a in levels)))
    return reference


def log_snr(a):
    return (a / (1 - a)).ln() / 2


def _dpm_solver_1(a_t, a_s):
    # Lu et al. 2022 (DPM-Solver), eq. 3.7: x_s = (alpha_s / alpha_t) x -
    # sigma_s (e^h - 1) eps, eps = (x - alpha_t x0) / sigma_t, h the log-SNR
    # increment.  At the clean target sigma_s e^h = alpha_s sigma_t / alpha_t
    # and the map is x_s = x0.
    if a_s == 1:
        return 0, 1
    alpha_t, sigma_t = a_t.sqrt(), (1 - a_t).sqrt()
    k = (1 - a_s).sqrt() * ((log_snr(a_s) - log_snr(a_t)).exp() - 1)
    return a_s.sqrt() / alpha_t - k / sigma_t, k * alpha_t / sigma_t


dpm_solver_1 = at_50_digits(_dpm_solver_1)  # (c_x, c_pred)


@at_50_digits
def ddpm_posterior(a_t, a_s):
    """Ho et al. 2020, eqs. 6-7, between grid levels: q(x_s | x_t, x0) has
    mean ``sqrt(a_s) b / (1 - a_t) x0 + sqrt(a_t / a_s) (1 - a_s) / (1 - a_t)
    x_t`` and variance ``b (1 - a_s) / (1 - a_t)``, with ``b = 1 - a_t / a_s``.
    Returns ``(c_x, c_pred, noise_std)``."""
    b = 1 - a_t / a_s
    return ((a_t / a_s).sqrt() * (1 - a_s) / (1 - a_t), a_s.sqrt() * b / (1 - a_t),
            (b * (1 - a_s) / (1 - a_t)).sqrt())


@at_50_digits
def dpm_solver_2(a_t, a_s):
    """Lu et al. 2022, DPM-Solver-2 (r1 = 1/2): ``u`` is DPM-Solver-1 from t
    to the log-SNR midpoint m, then ``x_s = (alpha_s / alpha_t) x - sigma_s
    (e^h - 1) eps(u)`` with ``eps(u) = (u - alpha_m pred(u)) / sigma_m``.
    Returns ``a_m``, the first stage's ``(c_x, c_pred)`` and the map's
    coefficients on ``x``, ``pred(x)`` and ``pred(u)``."""
    lam_t, lam_s = log_snr(a_t), log_snr(a_s)
    a_m = 1 / (1 + (-(lam_t + lam_s)).exp())
    c_x1, c_pred1 = _dpm_solver_1(a_t, a_m)
    k = (1 - a_s).sqrt() * ((lam_s - lam_t).exp() - 1) / (1 - a_m).sqrt()
    return (a_m, c_x1, c_pred1, (a_s / a_t).sqrt() - k * c_x1, -k * c_pred1,
            k * a_m.sqrt())


@at_50_digits
def dpm_solver_pp(a_prev, a_t, a_s):
    """Lu et al. 2022b, DPM-Solver++(2M): ``x_s = (sigma_s / sigma_t) x -
    alpha_s (e^-h - 1) D`` with ``D = (1 + 1/(2r)) pred - prev / (2r)``,
    ``r = h_prev / h``; ``D = pred`` on the first transition (``a_prev`` is
    None) and the terminal one, where ``e^-h = 0``.  Returns
    ``(c_x, c_pred, c_prev)``."""
    c_x = (1 - a_s).sqrt() / (1 - a_t).sqrt()
    if a_s == 1:
        return c_x, 1, 0
    h = log_snr(a_s) - log_snr(a_t)
    c_pred = -a_s.sqrt() * ((-h).exp() - 1)
    if a_prev is None:
        return c_x, c_pred, 0
    w = h / (2 * (log_snr(a_t) - log_snr(a_prev)))
    return c_x, c_pred * (1 + w), -c_pred * w


def transitions(config, grid):
    return list(sa.samplers._RULES[config.kind](config, grid.levels))


# Every diffusion rule's transitions against the references above, on both
# schedules, from two start indices, over short to full-length grids (None
# is start_index + 1, every base index).
REFERENCE_GRIDS = pytest.mark.parametrize("kind,start,steps", [
    (kind, start, steps) for kind in ("linear", "cosine") for start in (950, 999)
    for steps in (1, 5, 50, None)])


def reference_grid(kind, start, steps):
    schedule = sa.build_linear_beta() if kind == "linear" else sa.build_cosine_alpha_bar()
    return sa.make_diffusion_grid(schedule, start + 1 if steps is None else steps, start)


class TestCoefficientReferences:
    @REFERENCE_GRIDS
    def test_ddpm_is_the_posterior_step(self, kind, start, steps):
        grid = reference_grid(kind, start, steps)
        hops = list(zip(grid.levels[:-1], grid.levels[1:]))
        for config in (DDPM, sa.SamplerConfig("ddim", eta=1.0)):
            steps_ = transitions(config, grid)
            assert len(steps_) == len(hops)
            for step, (a_t, a_s) in zip(steps_, hops):
                assert step.at == a_t and step.c_prev == 0.0 and step.recorded
                np.testing.assert_allclose((step.c_x, step.c_pred, step.noise_std),
                                           ddpm_posterior(a_t, a_s), rtol=0, atol=1e-12)

    @REFERENCE_GRIDS
    def test_first_order_is_the_exponential_integrator(self, kind, start, steps):
        # DDIM at eta 0, DPM-Solver-1 and DPM-Solver++'s first-order step are
        # one map: the eps-form and x0-form integrators agree.
        grid = reference_grid(kind, start, steps)
        hops = list(zip(grid.levels[:-1], grid.levels[1:]))
        for config in (DDIM, DPM1):
            steps_ = transitions(config, grid)
            assert len(steps_) == len(hops)
            for step, (a_t, a_s) in zip(steps_, hops):
                assert step.at == a_t and step.c_prev == 0.0 and step.noise_std == 0.0
                np.testing.assert_allclose((step.c_x, step.c_pred),
                                           dpm_solver_1(a_t, a_s), rtol=0, atol=1e-12)
                np.testing.assert_allclose((step.c_x, step.c_pred, 0.0),
                                           dpm_solver_pp(None, a_t, a_s),
                                           rtol=0, atol=1e-12)

    @REFERENCE_GRIDS
    def test_dpm2_midpoint_and_terminal_hops(self, kind, start, steps):
        # The executor forms x_s from the midpoint state u, pred(u) and
        # prev = pred(x); composed with u = c_x1 x + c_pred1 pred(x) it must
        # be DPM-Solver-2's map.  The hop to the clean target is order 1.
        grid = reference_grid(kind, start, steps)
        hops = list(zip(grid.levels[:-1], grid.levels[1:]))
        steps_ = iter(transitions(DPM2, grid))
        for a_t, a_s in hops[:-1]:
            first, second = next(steps_), next(steps_)
            a_m, c_x1, c_pred1, on_x, on_prev, on_pred = dpm_solver_2(a_t, a_s)
            assert first.at == a_t and not first.recorded and first.noise_std == 0.0
            np.testing.assert_allclose((first.c_x, first.c_pred), (c_x1, c_pred1),
                                       rtol=0, atol=1e-12)
            assert second.recorded and second.noise_std == 0.0
            np.testing.assert_allclose(second.at, a_m, rtol=1e-13, atol=0)
            np.testing.assert_allclose(
                (second.c_x * first.c_x, second.c_x * first.c_pred + second.c_prev,
                 second.c_pred), (on_x, on_prev, on_pred), rtol=0, atol=1e-12)
        terminal = next(steps_)
        assert terminal.at == hops[-1][0] and terminal.recorded
        np.testing.assert_allclose((terminal.c_x, terminal.c_pred, terminal.c_prev),
                                   dpm_solver_1(*hops[-1]) + (0.0,), rtol=0, atol=1e-12)
        assert next(steps_, None) is None

    @REFERENCE_GRIDS
    def test_dpm_pp_multistep_correction(self, kind, start, steps):
        grid = reference_grid(kind, start, steps)
        levels = grid.levels
        steps_ = transitions(DPM_PP, grid)
        assert len(steps_) == len(levels) - 1
        for i, step in enumerate(steps_):
            a_prev = levels[i - 1] if i > 0 else None
            assert step.at == levels[i] and step.noise_std == 0.0
            np.testing.assert_allclose(
                (step.c_x, step.c_pred, step.c_prev),
                dpm_solver_pp(a_prev, levels[i], levels[i + 1]), rtol=0, atol=1e-12)


class TestNfeAccounting:
    @pytest.mark.parametrize("steps", [1, 2, 5, 25])
    def test_single_call_samplers(self, linear_schedule, aniso_cond, oracle, steps):
        grid = sa.make_diffusion_grid(linear_schedule, steps, 950)
        for cfg in (DDPM, DDIM):
            _, rec = sa.sample_with_config(cfg, oracle, aniso_cond, grid,
                                           np.random.default_rng(0))
            assert rec.nfe == steps == grid.step_count

    @pytest.mark.parametrize("steps", [1, 2, 5, 25])
    def test_dpm_orders(self, linear_schedule, aniso_cond, oracle, steps):
        grid = sa.make_diffusion_grid(linear_schedule, steps, 950)
        _, rec1 = sa.sample_with_config(DPM1, oracle, aniso_cond, grid,
                                        np.random.default_rng(0))
        assert rec1.nfe == steps
        _, rec2 = sa.sample_with_config(DPM2, oracle, aniso_cond, grid,
                                        np.random.default_rng(0))
        assert rec2.nfe == 2 * steps - 1

    @pytest.mark.parametrize("steps", [2, 5, 25])
    def test_multistep_one_call_per_step(self, linear_schedule, aniso_cond, oracle, steps):
        grid = sa.make_diffusion_grid(linear_schedule, steps, 950)
        _, rec = sa.sample_with_config(DPM_PP, oracle, aniso_cond, grid,
                                       np.random.default_rng(0))
        assert rec.nfe == steps

    @pytest.mark.parametrize("steps", [1, 5, 50])
    def test_flow_samplers(self, aniso_cond, oracle, steps):
        grid = sa.make_flow_grid(steps, 1.0)
        _, rec = sa.sample_with_config(EULER_FLOW, oracle, aniso_cond, grid,
                                       np.random.default_rng(0))
        assert rec.nfe == steps == grid.step_count
        _, rec = sa.sample_with_config(EULER_SDE, oracle, aniso_cond, grid,
                                       np.random.default_rng(0))
        assert rec.nfe == steps

    @pytest.mark.parametrize("kind,kwargs", [
        (kind, {}) for kind in sa.SAMPLER_KINDS] + [("dpm_solver", {"order": 2})])
    def test_record_lengths(self, linear_schedule, aniso_cond, oracle, kind, kwargs):
        # One state per grid point: the midpoint solver's first-stage states
        # are not recorded, though their calls are counted.
        cfg = sa.SamplerConfig(kind=kind, **kwargs)
        grid = (sa.make_diffusion_grid(linear_schedule, 5, 950)
                if cfg.domain == sa.DIFFUSION else sa.make_flow_grid(5, 1.0))
        _, rec = sa.sample_with_config(cfg, oracle, aniso_cond, grid,
                                       np.random.default_rng(0), n_samples=2,
                                       record_path=True)
        assert len(rec.states) == len(rec.grid.points) == grid.step_count + 1
        assert rec.nfe == cfg.calls(grid.step_count)


    @pytest.mark.parametrize("steps", [1, 5])
    @pytest.mark.parametrize("cfg", [DDPM, DPM2])
    def test_record_keeps_its_grid(self, linear_schedule, aniso_cond, oracle,
                                   cfg, steps):
        # The record holds the grid it walked, one state per grid point,
        # for the hop as for a longer grid.
        grid = sa.make_diffusion_grid(linear_schedule, steps, 950)
        _, rec = sa.sample_with_config(cfg, oracle, aniso_cond, grid,
                                       np.random.default_rng(0),
                                       record_path=True)
        assert rec.grid is grid
        assert len(rec.states) == grid.step_count + 1


class TestDeterminism:
    @pytest.mark.parametrize("kind,kwargs", [
        ("ddpm", {}),
        ("ddim", {"eta": 1.0}),
        ("dpm_solver", {"order": 2}),
        ("euler_maruyama", {"sde_noise_scale": 1.0}),
    ])
    def test_same_seed_bitwise(self, linear_schedule, aniso_cond, oracle, kind, kwargs):
        cfg = sa.SamplerConfig(kind=kind, **kwargs)
        grid = (sa.make_diffusion_grid(linear_schedule, 10, 950)
                if cfg.domain == sa.DIFFUSION else sa.make_flow_grid(10, 1.0))
        a, _ = sa.sample_with_config(cfg, oracle, aniso_cond, grid,
                                     np.random.default_rng(42), n_samples=5)
        b, _ = sa.sample_with_config(cfg, oracle, aniso_cond, grid,
                                     np.random.default_rng(42), n_samples=5)
        np.testing.assert_array_equal(a, b)

    def test_deterministic_samplers_consume_only_initial_noise(
        self, linear_schedule, aniso_cond, oracle
    ):
        grid = sa.make_diffusion_grid(linear_schedule, 10, 950)
        rng = np.random.default_rng(7)
        sa.sample_with_config(DDIM, oracle, aniso_cond, grid, rng, n_samples=3)
        probe = np.random.default_rng(7)
        probe.standard_normal((3, 3, 4))
        assert rng.standard_normal() == probe.standard_normal()


class _RecordingRng:
    """A seeded generator that keeps every standard normal draw it makes."""

    def __init__(self, seed):
        self.rng, self.draws = np.random.default_rng(seed), []

    def standard_normal(self, shape):
        self.draws.append(self.rng.standard_normal(shape))
        return self.draws[-1]


class _ReplayRng:
    """An rng stand-in that hands out the given draws in order."""

    def __init__(self, draws):
        self.draws = iter(draws)

    def standard_normal(self, shape):
        draw = next(self.draws)
        assert draw.shape == tuple(shape)
        return draw


def token_basis_reference(config, oracle, cond, grid, rng):
    """The executor written in the token basis, with every oracle call on
    ``cond`` itself; returns the final state and the recorded states."""
    if config.domain == sa.DIFFUSION:
        predict, walk = oracle.x0, grid.levels
    else:
        predict, walk = oracle.velocity, grid.points
    x = rng.standard_normal(cond.mean.shape)
    states, prev = [x], None
    for step in sa.samplers._RULES[config.kind](config, walk):
        pred = predict(x, step.at, cond)
        new = step.c_x * x + step.c_pred * pred
        if step.c_prev:
            new = new + step.c_prev * prev
        if step.noise_std > 0.0:
            new = new + step.noise_std * rng.standard_normal(x.shape)
        x, prev = new, pred
        if step.recorded:
            states.append(x)
    return x, states


class TestEigenbasisWalk:
    @pytest.mark.parametrize("cfg", [
        DDPM, sa.SamplerConfig("ddim", eta=0.5), DPM1, DPM2, DPM_PP, EULER_FLOW,
        EULER_SDE,
    ])
    def test_matches_token_basis_reference(self, linear_schedule, aniso_cond,
                                           oracle, cfg):
        # The executor walks in the conditional's eigen-coordinates; with its
        # draws rotated into the token basis (U z), the token-basis walk
        # must give the same states.
        cond = sa.ConditionalGaussian(
            target_positions=aniso_cond.target_positions,
            mean=aniso_cond.mean + np.linspace(-1.0, 1.0, 5)[:, None, None],
            covariance=aniso_cond.covariance)
        grid = (sa.make_diffusion_grid(linear_schedule, 6, 950)
                if cfg.domain == sa.DIFFUSION else sa.make_flow_grid(6, 1.0))
        rng = _RecordingRng(11)
        out, rec = sa.sample_with_config(cfg, oracle, cond, grid, rng,
                                         record_path=True)
        vecs = cond.spectrum[1]
        ref, ref_states = token_basis_reference(
            cfg, oracle, cond, grid, _ReplayRng([vecs @ z for z in rng.draws]))
        assert out.shape == (5, 3, 4)
        np.testing.assert_allclose(out, ref, rtol=0.0, atol=1e-12)
        assert len(rec.states) == len(ref_states)
        for state, ref_state in zip(rec.states, ref_states):
            np.testing.assert_allclose(state, ref_state, rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(rec.states[-1], out)


class TestEigenView:
    @pytest.mark.parametrize("view", [False, True], ids=["conditional", "view"])
    def test_is_a_usable_conditional(self, linear_schedule, aniso_cond, oracle, view):
        # A conditional's eigen view is a conditional like any other: its own
        # view is itself, and its draws, rotated by U, are the token-basis
        # draws of the same seed.
        cond = aniso_cond.eigen if view else aniso_cond
        rotate = aniso_cond.spectrum[1] if view else np.eye(aniso_cond.size)
        assert cond.eigen.eigen is cond.eigen
        assert (cond.eigen is cond) == view
        np.testing.assert_allclose(
            rotate @ sa.sample_conditional(cond, np.random.default_rng(4), 6),
            sa.sample_conditional(aniso_cond, np.random.default_rng(4), 6),
            rtol=0.0, atol=1e-12)
        grid = sa.make_diffusion_grid(linear_schedule, 5, 950)
        for cfg in (DDPM, DPM2):
            out, _ = sa.sample_with_config(cfg, oracle, cond, grid,
                                           np.random.default_rng(5), n_samples=6)
            ref, _ = sa.sample_with_config(cfg, oracle, aniso_cond, grid,
                                           np.random.default_rng(5), n_samples=6)
            np.testing.assert_allclose(rotate @ out, ref, rtol=0.0, atol=1e-12)


class TestDdpm:
    def test_dirac_full_grid_hits_mean(self, linear_schedule, oracle):
        cond = dirac_cond(mean=0.7)
        grid = sa.make_diffusion_grid(linear_schedule, 1000, 999)
        out, _ = sa.sample_with_config(DDPM, oracle, cond, grid,
                                       np.random.default_rng(0), n_samples=16)
        assert np.max(np.abs(out - 0.7)) < 1e-3

    def test_isotropic_moments(self, linear_schedule, oracle):
        # Mean is unbiased at the stated Monte Carlo tolerance.  The
        # lower-bound (beta-tilde) transition variance under-disperses a
        # subsampled chain, so the 50-step variance is checked against the
        # closed-form affine-chain law and full convergence at the base grid.
        cond = isotropic_cond(mean=0.4, var=1.0)
        n = 20000
        grid = sa.make_diffusion_grid(linear_schedule, 50, 950)
        out, _ = sa.sample_with_config(DDPM, oracle, cond, grid,
                                       np.random.default_rng(1), n_samples=n)
        assert abs(out.mean() - 0.4) < 4.0 / np.sqrt(n)
        expected_var = ddpm_chain_variance(grid, 1.0)
        assert abs(out.var(ddof=1) - expected_var) / expected_var < 0.05
        grid_full = sa.make_diffusion_grid(linear_schedule, 951, 950)
        out_full, _ = sa.sample_with_config(DDPM, oracle, cond, grid_full,
                                            np.random.default_rng(2), n_samples=n)
        assert abs(out_full.var(ddof=1) - 1.0) < 0.05

    def test_single_step_is_hand_unrolled_x0_prediction(
        self, linear_schedule, aniso_cond, oracle
    ):
        grid = sa.make_diffusion_grid(linear_schedule, 1, 999)
        seed = 3
        out, rec = sa.sample_with_config(DDPM, oracle, aniso_cond, grid,
                                         np.random.default_rng(seed), n_samples=4)
        assert rec.nfe == 1
        # The executor draws its start noise in the conditional's
        # eigen-coordinates; in the token basis it is U z.
        vecs = aniso_cond.spectrum[1]
        x_start = vecs @ np.random.default_rng(seed).standard_normal((4, 3, 4))
        a = linear_schedule.alpha_bars[999]
        eps = oracle.epsilon(x_start, a, aniso_cond)
        x0_prediction = (x_start - np.sqrt(1 - a) * eps) / np.sqrt(a)
        np.testing.assert_allclose(out, x0_prediction, atol=1e-12)


class TestDdim:
    def test_dirac_x0_predictions_constant(self, linear_schedule, oracle):
        cond = dirac_cond(mean=-0.3)
        grid = sa.make_diffusion_grid(linear_schedule, 20, 950)
        out, rec = sa.sample_with_config(DDIM, oracle, cond, grid,
                                         np.random.default_rng(0), n_samples=6,
                                         record_path=True)
        lv = grid.levels
        for i in range(len(lv) - 1):
            x0 = oracle.x0(rec.states[i], lv[i], cond)
            np.testing.assert_allclose(x0, -0.3, atol=1e-9)
        np.testing.assert_allclose(out, -0.3, atol=1e-9)

    def test_coarse_grid_close_to_fine_grid(self, linear_schedule, oracle):
        # Deterministic map from shared initial noise; the ODE is
        # near-linear so 50 steps land within 2% of the 1000-step run.
        cond = isotropic_cond(mean=2.0, var=1.0)
        coarse, _ = sa.sample_with_config(
            DDIM, oracle, cond, sa.make_diffusion_grid(linear_schedule, 50, 999),
            np.random.default_rng(3), n_samples=200)
        fine, _ = sa.sample_with_config(
            DDIM, oracle, cond, sa.make_diffusion_grid(linear_schedule, 1000, 999),
            np.random.default_rng(3), n_samples=200)
        assert np.linalg.norm(coarse - fine) / np.linalg.norm(fine) < 0.02

    def test_eta_one_matches_ancestral_moments(
        self, linear_schedule, aniso_cond, oracle
    ):
        n = 20000
        grid = sa.make_diffusion_grid(linear_schedule, 50, 950)
        a, _ = sa.sample_with_config(DDPM, oracle, aniso_cond, grid,
                                     np.random.default_rng(5), n_samples=n)
        b, _ = sa.sample_with_config(sa.SamplerConfig("ddim", eta=1.0), oracle,
                                     aniso_cond, grid, np.random.default_rng(6),
                                     n_samples=n)
        va, vb = a.var(axis=0, ddof=1), b.var(axis=0, ddof=1)
        assert np.all(np.abs(a.mean(axis=0) - b.mean(axis=0))
                      <= 5 * np.sqrt((va + vb) / n))
        assert np.all(np.abs(va - vb) <= 5 * (va + vb) * np.sqrt(2.0 / n))

    def test_negative_eta_rejected(self):
        with pytest.raises(ValueError, match="eta"):
            sa.SamplerConfig("ddim", eta=-0.1)


class TestDpmSolver:
    def test_order_one_equals_ddim(self, linear_schedule, aniso_cond, oracle):
        for steps in (1, 5, 25):
            grid = sa.make_diffusion_grid(linear_schedule, steps, 950)
            a, _ = sa.sample_with_config(DPM1, oracle, aniso_cond, grid,
                                         np.random.default_rng(1), n_samples=50)
            b, _ = sa.sample_with_config(DDIM, oracle, aniso_cond, grid,
                                         np.random.default_rng(1), n_samples=50)
            assert np.max(np.abs(a - b)) < 1e-9

    def test_order_two_beats_order_one_at_ten_steps(
        self, linear_schedule, aniso_cond, oracle
    ):
        grid = sa.make_diffusion_grid(linear_schedule, 10, 999)
        n = 20000
        o1, _ = sa.sample_with_config(DPM1, oracle, aniso_cond, grid,
                                      np.random.default_rng(6), n_samples=n)
        o2, _ = sa.sample_with_config(DPM2, oracle, aniso_cond, grid,
                                      np.random.default_rng(6), n_samples=n)
        assert sa.w2_to_truth(o2, aniso_cond) < sa.w2_to_truth(o1, aniso_cond)

    def test_order_two_25_matches_ddim_50(self, linear_schedule, aniso_cond, oracle):
        n = 20000
        o2, _ = sa.sample_with_config(
            DPM2, oracle, aniso_cond, sa.make_diffusion_grid(linear_schedule, 25, 999),
            np.random.default_rng(7), n_samples=n)
        dd, _ = sa.sample_with_config(
            DDIM, oracle, aniso_cond, sa.make_diffusion_grid(linear_schedule, 50, 999),
            np.random.default_rng(7), n_samples=n)
        assert sa.w2_to_truth(o2, aniso_cond) <= 1.10 * sa.w2_to_truth(dd, aniso_cond)

    def test_convergence_orders(self, linear_schedule, aniso_cond, oracle):
        # Against a fine deterministic reference, the order-1 error halves
        # per step doubling while the midpoint solver contracts faster (the
        # order-1 terminal transition caps its asymptotic rate).
        n = 2000
        fine, _ = sa.sample_with_config(
            DDIM, oracle, aniso_cond, sa.make_diffusion_grid(linear_schedule, 999, 999),
            np.random.default_rng(9), n_samples=n)

        def error(cfg, steps):
            out, _ = sa.sample_with_config(
                cfg, oracle, aniso_cond,
                sa.make_diffusion_grid(linear_schedule, steps, 999),
                np.random.default_rng(9), n_samples=n)
            return float(np.mean(np.linalg.norm((out - fine).reshape(n, -1),
                                                axis=1)))

        e1 = [error(DPM1, s) for s in (16, 32, 64)]
        e2 = [error(DPM2, s) for s in (16, 32, 64)]
        for a, b in zip(e1, e1[1:]):
            assert 1.7 < a / b < 2.4
        for a, b in zip(e2, e2[1:]):
            assert a / b > 2.4
        assert all(two < one for one, two in zip(e1, e2))

    def test_order_validation(self):
        with pytest.raises(ValueError, match="order"):
            sa.SamplerConfig("dpm_solver", order=3)


class TestDpmSolverPlusPlus:
    def test_dirac_terminal(self, linear_schedule, oracle):
        cond = dirac_cond(mean=1.1)
        grid = sa.make_diffusion_grid(linear_schedule, 25, 950)
        out, rec = sa.sample_with_config(DPM_PP, oracle, cond, grid,
                                         np.random.default_rng(0),
                                         n_samples=8, record_path=True)
        lv = grid.levels
        for i in range(len(lv) - 1):
            x0 = oracle.x0(rec.states[i], lv[i], cond)
            np.testing.assert_allclose(x0, 1.1, atol=1e-9)
        assert np.max(np.abs(out - 1.1)) < 1e-6

    def test_25_steps_close_to_ddim_25(self, spec, oracle, linear_schedule):
        # Multistep extrapolation on index-uniform grids overshoots tight
        # directions, so parity is asserted at a 10% band on a moderately
        # anisotropic target.
        rng = np.random.default_rng(0)
        obs = [(0, rng.standard_normal(4)), (1, rng.standard_normal(4))]
        cond = sa.conditional(spec, obs, [14, 15])
        grid = sa.make_diffusion_grid(linear_schedule, 25, 999)
        n = 20000
        pp, _ = sa.sample_with_config(DPM_PP, oracle, cond, grid,
                                      np.random.default_rng(6), n_samples=n)
        dd, _ = sa.sample_with_config(DDIM, oracle, cond, grid,
                                      np.random.default_rng(6), n_samples=n)
        assert sa.w2_to_truth(pp, cond) <= 1.10 * sa.w2_to_truth(dd, cond)

    @pytest.mark.parametrize("steps", [1, 2])
    def test_short_grids_are_ddim(self, linear_schedule, aniso_cond, oracle, steps):
        # The multistep correction needs two earlier hops and is dropped on
        # the terminal one, so on one or two steps every transition is the
        # plain eta-0 hop.
        grid = sa.make_diffusion_grid(linear_schedule, steps, 950)
        pp, rec = sa.sample_with_config(DPM_PP, oracle, aniso_cond, grid,
                                        np.random.default_rng(2), n_samples=5)
        dd, _ = sa.sample_with_config(DDIM, oracle, aniso_cond, grid,
                                      np.random.default_rng(2), n_samples=5)
        assert rec.nfe == steps
        np.testing.assert_array_equal(pp, dd)


class TestEulerFlow:
    def test_dirac_exact(self, oracle):
        cond = dirac_cond(mean=0.7)
        for steps in (1, 7, 50):
            out, _ = sa.sample_with_config(EULER_FLOW, oracle, cond,
                                           sa.make_flow_grid(steps, 1.0),
                                           np.random.default_rng(0), n_samples=8)
            assert np.max(np.abs(out - 0.7)) < 1e-10

    def test_isotropic_moments(self, oracle):
        cond = isotropic_cond(mean=0.25, var=1.0)
        n = 20000
        out, _ = sa.sample_with_config(EULER_FLOW, oracle, cond,
                                       sa.make_flow_grid(100, 1.0),
                                       np.random.default_rng(1), n_samples=n)
        assert abs(out.mean() - 0.25) < 4.0 / np.sqrt(n)
        assert abs(out.var(ddof=1) - 1.0) < 0.05

    def test_first_order_refinement(self, aniso_cond, oracle):
        # Terminal error against a fine reference halves when the step count
        # doubles (Richardson-style ratio across three resolutions).
        n = 4000
        fine, _ = sa.sample_with_config(EULER_FLOW, oracle, aniso_cond,
                                        sa.make_flow_grid(1000, 1.0),
                                        np.random.default_rng(8), n_samples=n)
        errs = []
        for steps in (20, 40, 80):
            out, _ = sa.sample_with_config(EULER_FLOW, oracle, aniso_cond,
                                           sa.make_flow_grid(steps, 1.0),
                                           np.random.default_rng(8), n_samples=n)
            errs.append(np.mean(np.linalg.norm((out - fine).reshape(n, -1), axis=1)))
        for a, b in zip(errs, errs[1:]):
            assert 1.6 < a / b < 2.6

    def test_domain_mismatch(self, linear_schedule, aniso_cond, oracle):
        grid = sa.make_diffusion_grid(linear_schedule, 10, 950)
        with pytest.raises(ValueError, match="flow"):
            sa.sample_with_config(EULER_FLOW, oracle, aniso_cond, grid,
                                  np.random.default_rng(0))


class TestEulerMaruyama:
    def test_zero_scale_reduces_to_euler(self, aniso_cond, oracle):
        grid = sa.make_flow_grid(25, 1.0)
        a, _ = sa.sample_with_config(EULER_FLOW, oracle, aniso_cond, grid,
                                     np.random.default_rng(4), n_samples=6)
        b, _ = sa.sample_with_config(
            sa.SamplerConfig("euler_maruyama", sde_noise_scale=0.0), oracle,
            aniso_cond, grid, np.random.default_rng(4), n_samples=6)
        np.testing.assert_array_equal(a, b)

    def test_isotropic_variance(self, oracle):
        cond = isotropic_cond(mean=0.0, var=1.0)
        n = 20000
        out, _ = sa.sample_with_config(EULER_SDE, oracle, cond,
                                       sa.make_flow_grid(200, 1.0),
                                       np.random.default_rng(5), n_samples=n)
        assert abs(out.var(ddof=1) - 1.0) < 0.05

    def test_interior_marginals_preserved(self, oracle):
        # The score correction makes every time marginal of the SDE match
        # the deterministic interpolation law.
        cond = sa.ConditionalGaussian(
            target_positions=(0,), mean=np.full((1, 4), 0.3),
            covariance=np.array([[0.8]]))
        grid = sa.make_flow_grid(200, 1.0)
        _, rec = sa.sample_with_config(EULER_SDE, oracle, cond, grid,
                                       np.random.default_rng(3), n_samples=20000,
                                       record_path=True)
        for idx in (50, 100, 150):
            t = rec.grid.points[idx]
            truth = (1 - t) ** 2 * 0.8 + t**2
            emp = float(rec.states[idx].var(ddof=1))
            assert abs(emp - truth) / truth < 0.05

    def test_dirac_band_shrinks_under_refinement(self, oracle):
        cond = dirac_cond(mean=0.7)
        rms = []
        for steps in (125, 500, 2000):
            out, _ = sa.sample_with_config(EULER_SDE, oracle, cond,
                                           sa.make_flow_grid(steps, 1.0),
                                           np.random.default_rng(4), n_samples=500)
            rms.append(float(np.sqrt(np.mean((out - 0.7) ** 2))))
        assert rms[1] < 0.5 * rms[0]
        assert rms[2] < 0.5 * rms[1]

    def test_scale_validation(self):
        with pytest.raises(ValueError, match="sde_noise_scale"):
            sa.SamplerConfig("euler_maruyama", sde_noise_scale=-1.0)


class TestSamplerConfig:
    def test_domain_mapping(self):
        assert sa.SamplerConfig(kind="ddpm").domain == sa.DIFFUSION
        assert sa.SamplerConfig(kind="euler_flow").domain == sa.FLOW

    def test_calls_per_step(self):
        # The README calls table: 2T - 1 for the midpoint solver, else T.
        assert sa.SamplerConfig(kind="dpm_solver", order=2).calls(5) == 9
        assert sa.SamplerConfig(kind="dpm_solver", order=2).calls(1) == 1
        for kind in sa.SAMPLER_KINDS:
            assert sa.SamplerConfig(kind=kind).calls(5) == 5

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            sa.SamplerConfig(kind="heun")
        with pytest.raises(ValueError, match="eta"):
            sa.SamplerConfig(kind="ddim", eta=-1.0)
        with pytest.raises(ValueError, match="order"):
            sa.SamplerConfig(kind="dpm_solver", order=3)
        # NaN fails each comparison, so it is refused, not let through.
        with pytest.raises(ValueError, match="^eta: must be >= 0$"):
            sa.SamplerConfig(kind="ddim", eta=float("nan"))
        with pytest.raises(ValueError, match="^sde_noise_scale: must be >= 0$"):
            sa.SamplerConfig(kind="euler_maruyama", sde_noise_scale=float("nan"))
        # A knob the sampler does not read is refused, not ignored.
        for kind in set(sa.SAMPLER_KINDS) - {"ddim"}:
            with pytest.raises(ValueError, match=f"^eta: only ddim reads it, not {kind}$"):
                sa.SamplerConfig(kind=kind, eta=0.5)
        for kind in set(sa.SAMPLER_KINDS) - {"dpm_solver"}:
            with pytest.raises(ValueError,
                               match=f"^order: only dpm_solver reads it, not {kind}$"):
                sa.SamplerConfig(kind=kind, order=2)
        for kind in set(sa.SAMPLER_KINDS) - {"euler_maruyama"}:
            with pytest.raises(
                    ValueError,
                    match=f"^sde_noise_scale: only euler_maruyama reads it, not {kind}$"):
                sa.SamplerConfig(kind=kind, sde_noise_scale=0.5)

    def test_batched_mean_rejects_sample_count(self, linear_schedule, oracle):
        # A batched mean draws one sample per entry; a larger count would be
        # ignored, so it is refused, naming the argument.
        cond = sa.ConditionalGaussian(target_positions=(0, 1),
                                      mean=np.zeros((3, 2, 4)), covariance=np.eye(2))
        grid = sa.make_diffusion_grid(linear_schedule, 5, 950)
        out, _ = sa.sample_with_config(DDIM, oracle, cond, grid,
                                       np.random.default_rng(0))
        assert out.shape == (3, 2, 4)
        with pytest.raises(ValueError, match="^n_samples: "):
            sa.sample_with_config(DDIM, oracle, cond, grid, np.random.default_rng(0),
                                  n_samples=5)

    def test_dispatch_checks_grid_domain(self, linear_schedule, aniso_cond, oracle):
        cfg = sa.SamplerConfig(kind="euler_flow")
        grid = sa.make_diffusion_grid(linear_schedule, 5, 950)
        with pytest.raises(ValueError, match="grid"):
            sa.sample_with_config(cfg, oracle, aniso_cond, grid,
                                  np.random.default_rng(0))
