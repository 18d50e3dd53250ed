import numpy as np
import pytest

import stepanneal as sa


# The conversions between the three parameterizations, written out as
# references: every identity below is checked against ExactDenoiser, whose
# outputs are exact posterior means rather than chained conversions.


def eps_from_score(score, alpha_bar):
    return -np.sqrt(1.0 - alpha_bar) * score


def score_from_eps(eps, alpha_bar):
    return -eps / np.sqrt(1.0 - alpha_bar)


def velocity_from_flow_score(score, x_t, t):
    return -(x_t + t * score) / (1.0 - t)


def flow_score_from_velocity(velocity, x_t, t):
    return -(x_t + (1.0 - t) * velocity) / t


def eps_from_velocity(velocity, x_t, t):
    return x_t + (1.0 - t) * velocity


def velocity_from_eps(eps, x_t, t):
    return (eps - x_t) / (1.0 - t)


@pytest.fixture
def x():
    return np.random.default_rng(0).standard_normal((4, 3, 4))


class TestDiffusionConversions:
    @pytest.mark.parametrize("alpha_bar", [0.05, 0.5, 0.95])
    def test_round_trip(self, aniso_cond, oracle, x, alpha_bar):
        score = oracle.score(x, alpha_bar, aniso_cond)
        back = score_from_eps(eps_from_score(score, alpha_bar), alpha_bar)
        np.testing.assert_allclose(back, score, atol=1e-10)
        eps = oracle.epsilon(x, alpha_bar, aniso_cond)
        np.testing.assert_allclose(score_from_eps(eps, alpha_bar), score, atol=1e-10)

    def test_matches_oracle_outputs(self, aniso_cond, oracle, x):
        for a in (0.2, 0.8):
            eps = oracle.epsilon(x, a, aniso_cond)
            score = oracle.score(x, a, aniso_cond)
            np.testing.assert_allclose(eps_from_score(score, a), eps, atol=1e-12)


class TestFlowConversions:
    @pytest.mark.parametrize("t", [0.05, 0.4, 0.9])
    def test_velocity_score_round_trip(self, aniso_cond, oracle, x, t):
        v = oracle.velocity(x, t, aniso_cond)
        score = flow_score_from_velocity(v, x, t)
        np.testing.assert_allclose(
            score, oracle.flow_score(x, t, aniso_cond), atol=1e-10)
        np.testing.assert_allclose(
            velocity_from_flow_score(score, x, t), v, atol=1e-10)

    @pytest.mark.parametrize("t", [0.1, 0.5, 0.95])
    def test_velocity_eps_round_trip(self, aniso_cond, oracle, x, t):
        # In the flow domain the posterior noise is E[eps|x] = -t * score.
        v = oracle.velocity(x, t, aniso_cond)
        eps = eps_from_velocity(v, x, t)
        np.testing.assert_allclose(
            eps, -t * oracle.flow_score(x, t, aniso_cond), atol=1e-10)
        np.testing.assert_allclose(velocity_from_eps(eps, x, t), v, atol=1e-10)

    @pytest.mark.parametrize("t", [0.1, 0.6])
    def test_conversions_match_exact_posteriors(self, aniso_cond, oracle, x, t):
        v = oracle.velocity(x, t, aniso_cond)
        score = oracle.flow_score(x, t, aniso_cond)
        np.testing.assert_allclose(
            velocity_from_flow_score(score, x, t), v, atol=1e-9)


class TestExactDenoiser:
    def test_combined_flow_call(self, aniso_cond, oracle, x):
        v, score = oracle.velocity_and_flow_score(x, 0.4, aniso_cond)
        np.testing.assert_allclose(v, oracle.velocity(x, 0.4, aniso_cond), atol=1e-9)
        np.testing.assert_allclose(
            score, oracle.flow_score(x, 0.4, aniso_cond), atol=1e-12)

    def test_combined_flow_call_at_endpoints(self, aniso_cond, oracle, x):
        for t in (0.0, 1.0):
            v, score = oracle.velocity_and_flow_score(x, t, aniso_cond)
            np.testing.assert_allclose(v, oracle.velocity(x, t, aniso_cond))

    def test_x0_posterior_mean(self, aniso_cond, oracle, x):
        # E[x0|x] and E[eps|x] recombine to the state itself.
        for a in (0.3, 0.9):
            x0 = oracle.x0(x, a, aniso_cond)
            eps = oracle.epsilon(x, a, aniso_cond)
            np.testing.assert_allclose(
                np.sqrt(a) * x0 + np.sqrt(1 - a) * eps, x, atol=1e-10)


def _dense_reference(cond, x, signal_var, noise_var):
    """``y = (s^2 Sigma + sigma^2 I)^-1 (x - s mu)`` by a dense solve."""
    mat = signal_var * cond.covariance + noise_var * np.eye(cond.size)
    return np.linalg.solve(mat, x - np.sqrt(signal_var) * cond.mean)


def _assert_close(got, ref):
    rel = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
    assert rel <= 1e-10, rel


class TestChannelSolveAgainstDenseReference:
    @pytest.fixture(params=["default", "ill_conditioned"])
    def cond(self, request, aniso_cond):
        if request.param == "default":
            return aniso_cond
        # Row 0 of the 8x8 field given row 1: condition number about 7.5e4.
        spec = sa.TokenProcessSpec(grid_height=8, grid_width=8)
        values = np.random.default_rng(4).standard_normal((8, spec.token_dim))
        cond = sa.conditional(spec, list(zip(range(8, 16), values)), list(range(8)))
        lam = np.linalg.eigvalsh(cond.covariance)
        assert lam[-1] / lam[0] > 1e4
        return cond

    @pytest.fixture(params=[(), (5,)], ids=["m_d", "batch_m_d"])
    def state(self, request, cond):
        shape = request.param + (cond.size, cond.mean.shape[-1])
        return np.random.default_rng(6).standard_normal(shape)

    @pytest.mark.parametrize("a", [0.0, 0.35, 0.999])
    def test_diffusion_outputs(self, oracle, cond, state, a):
        y = _dense_reference(cond, state, a, 1.0 - a)
        _assert_close(oracle.x0(state, a, cond),
                      cond.mean + np.sqrt(a) * (cond.covariance @ y))
        if a == 0.0:
            return  # score and noise prediction need a signal
        _assert_close(oracle.score(state, a, cond), -y)
        _assert_close(oracle.epsilon(state, a, cond), np.sqrt(1.0 - a) * y)

    @pytest.mark.parametrize("t", [0.0, 0.4, 1.0])
    def test_flow_outputs(self, oracle, cond, state, t):
        y = _dense_reference(cond, state, (1.0 - t) ** 2, t**2)
        velocity = t * y - (cond.mean + (1.0 - t) * (cond.covariance @ y))
        _assert_close(oracle.flow_score(state, t, cond), -y)
        _assert_close(oracle.velocity(state, t, cond), velocity)
        v, score = oracle.velocity_and_flow_score(state, t, cond)
        _assert_close(v, velocity)
        _assert_close(score, -y)


class TestSingularChannel:
    # eigh gives the zero eigenvalue of these three as 0, +5.6e-17 and
    # -2.2e-16: each must count as zero.
    @pytest.mark.parametrize("direction", [[1.0, 2.0], [-0.7, -1.3],
                                           [0.3, -0.7, 1.1]])
    def test_rank_one_covariance_without_noise(self, oracle, direction):
        v = np.asarray(direction)
        cond = sa.ConditionalGaussian(
            target_positions=tuple(range(v.size)),
            mean=np.full((v.size, 4), 0.3),
            covariance=np.outer(v, v),
        )
        x = np.random.default_rng(8).standard_normal((3, v.size, 4))
        with pytest.raises(sa.NumericalError, match="singular"):
            oracle.x0(x, 1.0, cond)
        with pytest.raises(sa.NumericalError, match="singular"):
            oracle.velocity(x, 0.0, cond)
        # Any noise makes the channel regular again.
        assert np.all(np.isfinite(oracle.x0(x, 0.9, cond)))


class TestBiasedDenoiser:
    def test_bias_breaks_gradient_identity(self, aniso_cond):
        biased = sa.BiasedDenoiser(0.5)
        exact = sa.ExactDenoiser()
        x = np.random.default_rng(3).standard_normal((3, 4))
        good = exact.score(x, 0.5, aniso_cond)
        bad = biased.score(x, 0.5, aniso_cond)
        assert np.max(np.abs(bad - good)) > 0.4
        np.testing.assert_allclose(biased.epsilon(x, 0.5, aniso_cond),
                                   eps_from_score(bad, 0.5), atol=1e-12)
