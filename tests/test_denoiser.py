import math

import numpy as np
import pytest

import stepanneal as sa
from stepanneal.process import stacked_eigen


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


class TestStackedChannel:
    def test_each_cell_is_checked_alone(self, oracle):
        # At level 1 the channel is the covariance itself.  Cells at 1e-3 and
        # 1e14 are each regular, though no one cut fits both; a rank-one cell
        # is singular beside a regular one.
        def cell(cov):
            return sa.ConditionalGaussian((0, 1), np.full((2, 4), 0.3), cov)

        small, large = cell(1e-3 * np.eye(2)), cell(1e14 * np.eye(2))
        x = np.random.default_rng(8).standard_normal((3, 4, 4))
        got = oracle.x0(x, 1.0, stacked_eigen([small, large]))
        for i, cond in enumerate((small, large)):
            part = np.ascontiguousarray(x[:, 2 * i:2 * i + 2])
            np.testing.assert_array_equal(got[:, 2 * i:2 * i + 2],
                                          oracle.x0(part, 1.0, cond.eigen))
        rank_one = cell(np.outer([1.0, 2.0], [1.0, 2.0]))
        with pytest.raises(sa.NumericalError, match=r"to 5\.000e\+00$"):
            oracle.x0(x, 1.0, stacked_eigen([small, rank_one]))


class TestEigenView:
    # The samplers call the oracle on the conditional's eigen view, where the
    # channel solve is elementwise: every output must be the token-basis
    # output rotated into the eigenbasis.
    @pytest.mark.parametrize("batched", [False, True])
    def test_outputs_rotate_with_the_state(self, aniso_cond, oracle, x, batched):
        cond = aniso_cond
        if batched:
            cond = sa.ConditionalGaussian(cond.target_positions,
                                          cond.mean + x[:, :1], cond.covariance)
        lam, vecs = cond.spectrum
        view = cond.eigen
        assert view.spectrum[0] is lam and view.spectrum[1] is None
        np.testing.assert_array_equal(view.covariance, np.diag(lam))
        np.testing.assert_allclose(vecs @ view.mean, cond.mean, rtol=0, atol=1e-12)
        z = vecs.T @ x
        for method, at in [("epsilon", 0.35), ("score", 0.35), ("x0", 0.0),
                           ("x0", 0.35), ("velocity", 0.0), ("velocity", 0.4),
                           ("velocity", 1.0), ("flow_score", 0.4),
                           ("velocity_and_flow_score", 0.4)]:
            want = getattr(oracle, method)(x, at, cond)
            got = getattr(oracle, method)(z, at, view)
            if not isinstance(want, tuple):
                want, got = (want,), (got,)
            for w, g in zip(want, got):
                np.testing.assert_allclose(vecs @ g, w, rtol=0, atol=1e-12)

    def test_singular_view_is_refused(self, oracle):
        cond = sa.ConditionalGaussian(target_positions=(0, 1),
                                      mean=np.full((2, 4), 0.3),
                                      covariance=np.outer([1.0, 2.0], [1.0, 2.0]))
        x = np.random.default_rng(8).standard_normal((3, 2, 4))
        with pytest.raises(sa.NumericalError, match="singular"):
            oracle.x0(x, 1.0, cond.eigen)


class TestPerProbeLevels:
    # Straightness probes call the oracle once with one level or time per
    # leading probe: each probe's slice must be its own scalar call, bit for
    # bit, on every kind of conditional the probes meet.
    @pytest.fixture(params=["plain", "batched_mean", "eigen_view", "stacked"])
    def cond(self, request, aniso_cond, x):
        if request.param == "plain":
            return aniso_cond
        if request.param == "stacked":
            shifted = sa.ConditionalGaussian(aniso_cond.target_positions,
                                             aniso_cond.mean + 0.5,
                                             0.3 * aniso_cond.covariance)
            return stacked_eigen([aniso_cond, shifted])
        batched = sa.ConditionalGaussian(aniso_cond.target_positions,
                                         aniso_cond.mean + x[:, :1],
                                         aniso_cond.covariance)
        return batched if request.param == "batched_mean" else batched.eigen

    @pytest.mark.parametrize("method, levels", [
        ("score", [1.0, 0.999, 0.35, 1e-4, 0.35]),
        ("velocity", [0.0, 0.4, 1.0, 0.93, 0.4]),
    ])
    def test_equals_one_call_per_probe(self, oracle, cond, x, method, levels):
        shape = (len(levels),) + x.shape[:1] + cond.mean.shape[-2:]
        states = np.random.default_rng(9).standard_normal(shape)
        fn = getattr(oracle, method)
        got = fn(states, np.asarray(levels), cond)
        want = np.stack([fn(s, level, cond) for s, level in zip(states, levels)])
        assert got.shape == states.shape
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("method, bad, message", [
        ("score", 0.0, r"alpha_bar: must lie in \(0, 1\]"),
        ("score", 1.5, r"alpha_bar: must lie in \(0, 1\]"),
        ("score", np.nan, r"alpha_bar: must lie in \(0, 1\]"),
        ("velocity", -0.1, r"t: must lie in \[0, 1\]"),
        ("velocity", np.nan, r"t: must lie in \[0, 1\]"),
    ])
    def test_an_entry_out_of_range_fails_as_its_scalar_call(
            self, oracle, cond, x, method, bad, message):
        fn = getattr(oracle, method)
        with pytest.raises(ValueError, match=f"^{message}$"):
            fn(x, bad, cond)
        states = np.stack([x, x, x])
        with pytest.raises(ValueError, match=f"^{message}$"):
            fn(states, np.array([0.5, bad, 0.5]), cond)


class TestAffineTable:
    # A walk's table holds, per call, the rows that the call's own scalar
    # arithmetic would give: root = s and scale = gain / (s^2 lam + sigma^2),
    # written here with Python floats, one eigenvalue at a time.
    @staticmethod
    def scalar_rows(domain, at, lam):
        if domain == sa.DIFFUSION:
            signal_var, noise_var = at, 1.0 - at
            gains = [math.sqrt(signal_var) * value for value in lam]
        else:
            signal_var, noise_var = (1.0 - at) ** 2, at**2
            gains = [at - (1.0 - at) * value for value in lam]
        scale = [g / (signal_var * value + noise_var) for g, value in zip(gains, lam)]
        return math.sqrt(signal_var), scale

    @pytest.fixture(params=["eigen_view", "stacked"])
    def view(self, request, aniso_cond):
        if request.param == "eigen_view":
            return aniso_cond.eigen
        shifted = sa.ConditionalGaussian(aniso_cond.target_positions,
                                         aniso_cond.mean + 0.5,
                                         0.3 * aniso_cond.covariance)
        return stacked_eigen([aniso_cond, shifted])

    @pytest.mark.parametrize("domain, ats", [
        (sa.DIFFUSION, [5e-324, 1e-300, 1e-12, 0.35, 1.0 - 1e-12, 1.0, 0.0]),
        (sa.FLOW, [1.0, 1.0 - 1e-12, 0.4, 1e-12, 0.0]),
    ])
    def test_rows_equal_the_scalar_coefficients(self, oracle, view, x, domain, ats):
        root, scale = oracle.affine(view.spectrum[0], domain, ats)
        lam = view.spectrum[0].ravel().tolist()
        assert root.shape == (len(ats),) and scale.shape == (len(ats), len(lam), 1)
        predict = oracle.x0 if domain == sa.DIFFUSION else oracle.velocity
        states = np.broadcast_to(x[:, :1, :1], x.shape[:1] + view.mean.shape)
        for i, at in enumerate(ats):
            want_root, want_scale = self.scalar_rows(domain, at, lam)
            assert root[i] == want_root
            np.testing.assert_array_equal(scale[i, :, 0], want_scale)
            row = (root.tolist()[i], scale[i])
            np.testing.assert_array_equal(predict(states, at, view, row),
                                          predict(states, at, view))

    @pytest.mark.parametrize("domain, bad, message", [
        (sa.DIFFUSION, 1.5, r"alpha_bar: must lie in \[0, 1\]"),
        (sa.DIFFUSION, np.nan, r"alpha_bar: must lie in \[0, 1\]"),
        (sa.FLOW, -0.1, r"t: must lie in \[0, 1\]"),
    ])
    def test_a_level_out_of_range_fails_as_its_scalar_call(self, oracle, aniso_cond,
                                                           domain, bad, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            oracle.affine(aniso_cond.spectrum[0], domain, [0.5, bad, 0.5])


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
