import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf

import stepanneal as sa
from stepanneal import process

from conftest import schur_solver

# At this length scale every kernel entry rounds to 1 and the jitter is lost
# in rounding, so the field's covariance is exactly all ones (rank one).
RANK_ONE = sa.TokenProcessSpec(grid_height=8, grid_width=8, length_scale=1e10,
                               jitter=1e-18)


def dense_covariance(spec):
    """The covariance from every pair's grid distance, as the spec built it
    before it gathered from a table of grid offsets: the reference."""
    rows, cols = np.divmod(np.arange(spec.token_count), spec.grid_width)
    d_row = (rows[:, None] - rows[None, :]).astype(np.float64)
    d_col = (cols[:, None] - cols[None, :]).astype(np.float64)
    dist2 = d_row * d_row + d_col * d_col
    s2 = spec.marginal_std**2
    if spec.kernel == "rbf":
        cov = s2 * np.exp(-dist2 / (2.0 * spec.length_scale**2))
    else:
        cov = s2 * np.exp(-np.sqrt(dist2) / spec.length_scale)
    cov.flat[:: spec.token_count + 1] += spec.jitter
    return cov


def indefinite_at(pivot, n, seed):
    """``A = U D U^T`` with U unit lower triangular and D = 1 but for
    ``D[pivot - 1] = -1``: Cholesky pivot ``pivot`` (1-based) is -1 and every
    pivot before it is 1, so the factorisation fails there and by a clear
    margin, not to rounding."""
    rng = np.random.default_rng(seed)
    unit = np.eye(n) + np.tril(0.3 * rng.standard_normal((n, n)), -1)
    d = np.ones(n)
    d[pivot - 1] = -1.0
    cov = (unit * d) @ unit.T
    return 0.5 * (cov + cov.T)


class TestJointCovariance:
    def test_single_token(self):
        spec = sa.TokenProcessSpec(grid_height=1, grid_width=1, token_dim=2)
        cov = sa.joint_covariance(spec)
        np.testing.assert_allclose(cov, [[1.0 + spec.jitter]])

    def test_fully_correlated_limit(self):
        spec = sa.TokenProcessSpec(grid_height=2, grid_width=1, length_scale=1e6)
        cov = sa.joint_covariance(spec)
        assert abs(cov[0, 1] - 1.0) < 1e-9

    @pytest.mark.parametrize("kernel", ["rbf", "ar1"])
    @pytest.mark.parametrize("height, width", [(1, 1), (4, 4), (3, 7), (12, 5)])
    def test_exactly_symmetric(self, kernel, height, width):
        # conditioning_plan factors the transposed view of the permuted
        # covariance, which is the same matrix only if this holds exactly.
        cov = sa.TokenProcessSpec(grid_height=height, grid_width=width,
                                  kernel=kernel, length_scale=1.7).covariance
        np.testing.assert_array_equal(cov, cov.T)

    def test_rbf_matches_elementwise_formula(self, spec, cov):
        pos = np.stack(np.divmod(np.arange(spec.token_count), spec.grid_width),
                       axis=1).astype(np.float64)
        for i in range(spec.token_count):
            for j in range(spec.token_count):
                d2 = np.sum((pos[i] - pos[j]) ** 2)
                expected = np.exp(-d2 / (2 * spec.length_scale**2))
                if i == j:
                    expected += spec.jitter
                assert abs(cov[i, j] - expected) < 1e-12

    def test_ar1_kernel(self):
        spec = sa.TokenProcessSpec(grid_height=3, grid_width=1, kernel="ar1",
                                   length_scale=1.5)
        cov = sa.joint_covariance(spec)
        assert abs(cov[0, 2] - np.exp(-2.0 / 1.5)) < 1e-12

    @pytest.mark.parametrize("kernel", ["rbf", "ar1"])
    @pytest.mark.parametrize("height,width", [(4, 4), (8, 8), (32, 32), (3, 7)])
    def test_offset_table_matches_dense_formula(self, kernel, height, width):
        # The kernel is evaluated once per grid offset and gathered; every
        # entry is the same float operations on the same (integer) squared
        # distance as the dense pairwise formula, so the bytes agree.
        spec = sa.TokenProcessSpec(grid_height=height, grid_width=width,
                                   kernel=kernel, length_scale=2.5,
                                   marginal_std=1.3)
        cov = sa.joint_covariance(spec)
        assert cov.tobytes() == dense_covariance(spec).tobytes()

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kernel"):
            sa.TokenProcessSpec(kernel="matern")
        with pytest.raises(ValueError, match="length_scale"):
            sa.TokenProcessSpec(length_scale=0.0)
        with pytest.raises(ValueError, match="mean_field"):
            sa.TokenProcessSpec(mean_field=np.zeros(3))
        for key in ("length_scale", "marginal_std", "jitter"):
            for bad in (float("nan"), float("inf")):
                with pytest.raises(ValueError,
                                   match=f"^{key}: must be positive and finite$"):
                    sa.TokenProcessSpec(**{key: bad})


class TestConditional:
    def test_empty_observation_is_marginal(self, spec, cov):
        cond = sa.conditional(spec, [], [2, 7])
        np.testing.assert_allclose(cond.mean, np.zeros((2, 4)))
        np.testing.assert_allclose(cond.covariance, cov[np.ix_([2, 7], [2, 7])])
        # With a nonzero mean field the empty prefix leaves the targets' own
        # means, unbatched (m, d) and batched (B, m, d).
        shifted = sa.TokenProcessSpec(mean_field=np.linspace(-1.0, 1.0, 16))
        mu = np.tile(shifted.mean_field[[2, 7], None], (1, 4))
        cond = sa.conditional(shifted, [], [2, 7])
        np.testing.assert_array_equal(cond.mean, mu)
        solver = sa.conditional_solver(shifted, [], [2, 7])
        batched = solver.conditional(shifted, np.zeros((3, 0, 4)))
        assert batched.mean.shape == (3, 2, 4)
        np.testing.assert_array_equal(batched.mean, np.broadcast_to(mu, (3, 2, 4)))

    def test_fully_correlated_degenerate_limit(self):
        spec = sa.TokenProcessSpec(grid_height=2, grid_width=1, length_scale=1e6)
        value = np.full(spec.token_dim, 1.3)
        cond = sa.conditional(spec, [(0, value)], [1])
        np.testing.assert_allclose(cond.mean, np.full((1, 4), 1.3), atol=1e-6)
        assert cond.covariance[0, 0] < 1e-6

    def test_monte_carlo_regression_oracle(self, spec, cov):
        # Conditional mean weights and variance against a 10^6-sample joint
        # regression (rejection-free: sample jointly, regress).
        rng = np.random.default_rng(2024)
        obs_pos = [1, 3, 4, 6, 9, 11, 12, 14]
        target = 10
        n = 1_000_000
        chol = np.linalg.cholesky(cov)
        draws = rng.standard_normal((n, spec.token_count)) @ chol.T
        y = draws[:, target]
        design = np.column_stack([np.ones(n), draws[:, obs_pos]])
        beta, _, _, _ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ beta
        dof = design.shape[1]
        se = np.sqrt(np.var(resid, ddof=dof) * np.diag(np.linalg.inv(design.T @ design)))

        solver = sa.conditional_solver(spec, obs_pos, [target])
        assert np.all(np.abs(beta[1:] - solver.weights[0]) <= 3.0 * se[1:])
        exact_var = solver.covariance[0, 0]
        mc_var = np.var(resid, ddof=dof)
        assert abs(mc_var - exact_var) <= 3.0 * exact_var * np.sqrt(2.0 / n)

    def test_conditioning_tightens_nested_sets(self, spec):
        rng = np.random.default_rng(7)
        for _ in range(20):
            perm = rng.permutation(spec.token_count)
            targets = list(perm[:2])
            small = list(perm[2:6])
            big = list(perm[2:11])
            t_small = np.trace(sa.conditional_solver(spec, small, targets).covariance)
            t_big = np.trace(sa.conditional_solver(spec, big, targets).covariance)
            assert t_big <= t_small + 1e-9

    def test_position_validation(self, spec):
        with pytest.raises(ValueError, match="disjoint"):
            sa.conditional(spec, [(3, np.zeros(4))], [3])
        with pytest.raises(ValueError, match="duplicates"):
            sa.conditional_solver(spec, [1, 1], [3])
        with pytest.raises(ValueError, match="out of range"):
            sa.conditional_solver(spec, [1], [99])
        with pytest.raises(ValueError, match="target_positions: need at least one"):
            sa.conditional_solver(spec, [1], [])

    def test_non_integer_positions_are_refused(self, spec):
        # A float position is refused, not truncated: (1.5, v) once
        # conditioned on position 1.
        for observed, targets in [([(1.5, 0.2)], [2]), ([(1, 0.2)], [2.0])]:
            with pytest.raises(ValueError, match=r"^positions: must be integers"):
                sa.conditional(spec, observed, targets)
        # numpy integers of any width and an empty (float) list still work.
        by_numpy = sa.conditional_solver(spec, np.array([1, 4], dtype=np.uint8),
                                         [np.int64(2)])
        by_int = sa.conditional_solver(spec, [1, 4], [2])
        np.testing.assert_array_equal(by_numpy.weights, by_int.weights)
        assert by_numpy.observed_positions == (1, 4)
        assert sa.conditional_solver(spec, [], [2]).weights.shape == (1, 0)

    def test_singular_observed_block(self):
        # The solver's plan is the positive-definiteness check, so its error
        # is the plan's, naming the keys.
        np.testing.assert_array_equal(sa.joint_covariance(RANK_ONE), np.ones((64, 64)))
        with pytest.raises(sa.NumericalError,
                           match="^length_scale/jitter: AR step 0: "):
            sa.conditional_solver(RANK_ONE, [0, 1, 2], [5])

    @pytest.mark.parametrize("kernel", ["rbf", "ar1"])
    @pytest.mark.parametrize("side", [4, 8])
    def test_solver_matches_schur_reference(self, kernel, side):
        # The solver reads the plan of (observed, targets, rest); the Schur
        # complement is an independent factorisation of the same law.
        n = side * side
        spec = sa.TokenProcessSpec(grid_height=side, grid_width=side, kernel=kernel,
                                   mean_field=np.linspace(-1.0, 2.0, n))
        cov = sa.joint_covariance(spec)
        rng = np.random.default_rng(side)
        values = (spec.mean_field[:, None]
                  + np.linalg.cholesky(cov) @ rng.standard_normal((3, n, 2)))
        # As in TestConditioningPlan: the weights agree to cond(Sigma) * eps.
        weight_tol = np.linalg.cond(cov) * np.finfo(float).eps
        perm = rng.permutation(n)
        splits = [(perm[:o], perm[o : o + m]) for o, m in
                  [(1, 1), (3, 2), (n // 2, 3), (n - 5, 4)]]
        splits += [(perm[:0], perm[:3]),  # no observations
                   (perm[: n - 3], perm[n - 3 :])]  # no rest group
        for observed, targets in splits:
            solver = sa.conditional_solver(spec, observed, targets)
            ref = schur_solver(spec, observed, targets)
            assert solver.observed_positions == ref.observed_positions
            assert solver.target_positions == ref.target_positions
            np.testing.assert_allclose(solver.covariance, ref.covariance,
                                       rtol=0, atol=1e-10)
            gap = np.linalg.norm(solver.weights - ref.weights)
            assert gap <= weight_tol * max(np.linalg.norm(ref.weights), 1.0)
            obs_values = values[:, observed, :]
            np.testing.assert_allclose(solver.mean(spec, obs_values),
                                       ref.mean(spec, obs_values),
                                       rtol=0, atol=1e-10)

    def test_fields_and_spectrum_are_read_only(self, aniso_cond):
        # Conditionals are shared across workers, so the cached spectrum is
        # as immutable as the mean and the covariance.
        lam, vecs = aniso_cond.spectrum
        assert aniso_cond.spectrum[1] is vecs
        np.testing.assert_allclose((vecs * lam) @ vecs.T, aniso_cond.covariance,
                                   atol=1e-14)
        for arr in (aniso_cond.mean, aniso_cond.covariance, lam, vecs):
            assert arr.flags.writeable is False
            with pytest.raises(ValueError):
                arr[0] = 1.0

    def test_stacked_view_holds_no_dense_covariance(self):
        # A stack of M positions keeps its covariance diag(lam) as lam alone:
        # 1024 cells of 4 positions (M = 4096) would take 128 MiB as a dense
        # M x M matrix.  Reading the covariance still builds it.
        rng = np.random.default_rng(0)
        conds = []
        for _ in range(1024):
            a = rng.standard_normal((4, 4))
            conds.append(sa.ConditionalGaussian((0, 1, 2, 3), rng.standard_normal((2, 4, 2)),
                                                a @ a.T + np.eye(4)))
            conds[-1].eigen  # each cell's own eigh, outside the measurement
        tracemalloc.start()
        try:
            stack = process.stacked_eigen(conds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stack.size == 4096 and stack.spectrum[0].shape == (1024, 4)
        assert peak < 2**20, peak  # the stacked mean alone is 128 KiB
        small = process.stacked_eigen(conds[:3])
        np.testing.assert_array_equal(small.covariance,
                                      np.diag(small.spectrum[0].ravel()))
        for arr in (small.mean, small.spectrum[0]):
            assert arr.flags.writeable is False

    @staticmethod
    def _cond(covariance):
        return sa.ConditionalGaussian(target_positions=(0, 1, 2, 3),
                                      mean=np.zeros((4, 2)),
                                      covariance=covariance)

    def test_asymmetric_covariance_rejected(self):
        # Against a zero partner the tolerance is the absolute 1e-10 alone.
        skewed = np.eye(4)
        skewed[0, 1] += 1e-6
        with pytest.raises(ValueError, match="covariance: must be symmetric"):
            self._cond(skewed)

    def test_rounding_level_asymmetry_accepted(self, cov):
        block = 0.5 * (cov[:4, :4] + cov[:4, :4].T)
        block[2, 1] += 1e-15
        assert self._cond(block).covariance[2, 1] == block[2, 1]

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf - inf
    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_covariance_rejected(self, cov, bad):
        # np.allclose would pass a matching pair of infinities; the check
        # does not.
        block = cov[:4, :4].copy()
        block[0, 3] = block[3, 0] = bad
        with pytest.raises(ValueError, match="covariance: must be symmetric"):
            self._cond(block)
        diagonal = cov[:4, :4].copy()
        diagonal[1, 1] = bad
        with pytest.raises(ValueError, match="covariance: must be symmetric"):
            self._cond(diagonal)

    def test_batched_means_match_loop(self, spec):
        solver = sa.conditional_solver(spec, [0, 5, 9], [2, 3])
        rng = np.random.default_rng(3)
        values = rng.standard_normal((7, 3, 4))
        batched = solver.mean(spec, values)
        for b in range(7):
            np.testing.assert_allclose(batched[b], solver.mean(spec, values[b]))


class TestConditioningPlan:
    """One Cholesky factor of the covariance in generation order, checked in
    closed form against from-scratch Schur complements."""

    @pytest.fixture(scope="class")
    def field(self):
        spec = sa.TokenProcessSpec(grid_height=8, grid_width=8)
        return spec, sa.joint_covariance(spec)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_from_scratch(self, field, seed):
        spec, cov = field
        order = sa.random_order(spec, spec.token_count, seed=seed)
        plan = sa.conditioning_plan(spec, order)
        factor = plan.factor
        # Both solvers are backward stable: each meets W Sigma_oo = Sigma_to
        # to a few ulps.  Their weights may therefore differ by up to about
        # cond(Sigma) * eps (3e-7 on this field, jitter 1e-8).  The plan's
        # weights are implicit, L_k,<k L_<k^-1.
        weight_tol = np.linalg.cond(cov) * np.finfo(float).eps
        observed = []
        for k, group in enumerate(order.groups()):
            scratch = schur_solver(spec, observed, group)
            np.testing.assert_allclose(plan.covariance(k), scratch.covariance,
                                       rtol=0, atol=1e-10)
            a = len(observed)
            weights = solve_triangular(factor[:a, :a], factor[plan.rows(k), :a].T,
                                       lower=True, trans="T").T
            observed += group
            if not a:
                continue
            sigma_oo = cov[np.ix_(observed[:a], observed[:a])]
            sigma_to = cov[np.ix_(group, observed[:a])]
            residual = weights @ sigma_oo - sigma_to
            assert np.linalg.norm(residual) <= 1e-12 * np.linalg.norm(sigma_to)
            gap = np.linalg.norm(weights - scratch.weights)
            assert gap <= weight_tol * np.linalg.norm(scratch.weights)

    @pytest.mark.parametrize("kernel", ["rbf", "ar1"])
    @pytest.mark.parametrize("random", [False, True], ids=["raster", "random"])
    def test_factor_is_the_contiguous_factorisation(self, kernel, random):
        # The plan hands LAPACK the permuted covariance in Fortran order; the
        # factor must be the bytes of the C-ordered matrix's factorisation.
        spec = sa.TokenProcessSpec(grid_height=12, grid_width=9, kernel=kernel)
        order = (sa.random_order(spec, 27, seed=3) if random
                 else sa.raster_order(spec, 27))
        perm = np.asarray(order.permutation)
        permuted = sa.joint_covariance(spec)[np.ix_(perm, perm)]
        want = np.linalg.cholesky(np.ascontiguousarray(permuted))
        np.testing.assert_array_equal(sa.conditioning_plan(spec, order).factor, want)

    def test_means_from_whitened_innovations(self, field):
        # Prefix values drawn from the field itself, as generation sees them.
        spec, cov = field
        order = sa.random_order(spec, 16, seed=4)
        plan = sa.conditioning_plan(spec, order)
        z = np.random.default_rng(5).standard_normal((3, spec.token_count, 2))
        values = np.linalg.cholesky(cov) @ z
        whitened = np.empty((spec.token_count, 3, 2))
        observed = []
        for k, group in enumerate(order.groups()):
            cond = plan.conditional(k, whitened)
            exact = schur_solver(spec, observed, group)
            assert cond.target_positions == group
            np.testing.assert_allclose(
                cond.mean, exact.mean(spec, values[:, observed, :]),
                rtol=0, atol=1e-10)
            sample = values[:, list(group), :]
            whitened[plan.rows(k)] = plan.whiten(k, sample - cond.mean)
            observed += group
        # One sequence, unbatched: the same means.
        single = np.empty((spec.token_count, 2))
        single[:] = whitened[:, 1]
        for k in range(order.step_count):
            np.testing.assert_allclose(plan.conditional(k, single).mean,
                                       plan.conditional(k, whitened).mean[1],
                                       rtol=0, atol=1e-14)

    @pytest.mark.parametrize("side,group_count", [(8, 16), (32, 256)])
    def test_factor_is_cholesky_of_permuted_covariance(self, side, group_count):
        # Groups of 4 on the 8 x 8 field and on the 32 x 32 one (n = 1024).
        spec = sa.TokenProcessSpec(grid_height=side, grid_width=side)
        order = sa.random_order(spec, group_count, seed=3)
        plan = sa.conditioning_plan(spec, order)
        perm = list(order.permutation)
        np.testing.assert_array_equal(np.triu(plan.factor, 1), 0.0)
        np.testing.assert_allclose(plan.factor @ plan.factor.T,
                                   sa.joint_covariance(spec)[np.ix_(perm, perm)],
                                   rtol=0, atol=1e-12)
        assert plan.offsets == tuple(range(0, spec.token_count + 1, 4))

    @pytest.mark.parametrize("pivot", [2, 37, 63, 64])
    def test_bisected_pivot_matches_lapack(self, pivot):
        cov = indefinite_at(pivot, 64, seed=pivot)
        _, info = dpotrf(cov, lower=1)
        assert info == pivot
        assert process._failed_pivot(cov) == pivot

    def test_deep_failed_pivot_names_its_step(self, field, monkeypatch):
        # A covariance whose factorisation first fails at pivot 43 of 64 in
        # generation order: AR step 10 of 16 groups of 4.
        spec, _ = field
        order = sa.random_order(spec, 16, seed=3)
        perm = list(order.permutation)
        cov = np.empty((64, 64))
        cov[np.ix_(perm, perm)] = indefinite_at(43, 64, seed=0)
        monkeypatch.setattr(sa.TokenProcessSpec, "covariance_of",
                            lambda _, positions: cov[np.ix_(positions, positions)])
        with pytest.raises(sa.NumericalError) as exc:
            sa.conditioning_plan(spec, order)
        assert str(exc.value).startswith(
            f"length_scale/jitter: AR step 10: the joint covariance is not "
            f"positive definite at position {perm[42]} (pivot 43 of 64 ")

    def test_factor_is_read_only(self, field):
        # Plans are shared across workers, like conditionals.
        spec, cov = field
        plan = sa.conditioning_plan(spec, sa.raster_order(spec, 8))
        for arr in (plan.factor, plan.mean_field, plan.block(2)):
            assert arr.flags.writeable is False
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("group_count,step", [(64, 1), (16, 0)])
    def test_failed_pivot_names_its_step(self, group_count, step):
        # On an all-ones covariance the second pivot in generation order is 0.
        order = sa.random_order(RANK_ONE, group_count, seed=1)
        with pytest.raises(sa.NumericalError) as exc:
            sa.conditioning_plan(RANK_ONE, order)
        message = str(exc.value)
        assert message.startswith(f"length_scale/jitter: AR step {step}: ")
        assert f"position {order.permutation[1]} " in message

    def test_plan_is_the_positive_definiteness_check(self):
        # At this length scale every kernel entry rounds to 1, and the jitter
        # is lost in rounding, so the covariance is exactly all ones (rank
        # one).  The spec builds it without checking it; the plan's
        # factorisation fails at the second pivot, naming the keys, the AR
        # step and the position.
        spec = sa.TokenProcessSpec(grid_height=3, grid_width=3,
                                   length_scale=1e9, jitter=1e-18)
        np.testing.assert_array_equal(sa.joint_covariance(spec), np.ones((9, 9)))
        order = sa.random_order(spec, 3, seed=2)
        with pytest.raises(sa.NumericalError) as exc:
            sa.conditioning_plan(spec, order)
        assert str(exc.value).startswith(
            f"length_scale/jitter: AR step 0: the joint covariance is not "
            f"positive definite at position {order.permutation[1]} ")


def _orders(spec, group_count):
    return {"random": sa.random_order(spec, group_count, seed=4),
            "raster": sa.raster_order(spec, group_count)}


class TestOrderedCovariance:
    # The plan gathers the covariance straight into generation order; the
    # reference is the natural-order matrix gathered again by the order's
    # permutation, as the plan built it before.  A side over 128 takes
    # int16 lags, not int8.
    @pytest.mark.parametrize("kernel", ["rbf", "ar1"])
    @pytest.mark.parametrize("height,width", [(3, 5), (4, 4), (6, 3), (1, 7), (2, 130)])
    @pytest.mark.parametrize("order_kind", ["random", "raster"])
    def test_gather_equals_permuted_natural_order(self, kernel, height, width,
                                                  order_kind):
        spec = sa.TokenProcessSpec(grid_height=height, grid_width=width,
                                   kernel=kernel, length_scale=1.9,
                                   marginal_std=0.7)
        perm = list(_orders(spec, 1)[order_kind].permutation)
        got = spec.covariance_of(perm)
        assert got.tobytes() == spec.covariance[np.ix_(perm, perm)].tobytes()
        np.testing.assert_array_equal(got, got.T)

    @pytest.mark.parametrize("kernel", ["rbf", "ar1"])
    @pytest.mark.parametrize("order_kind", ["random", "raster"])
    def test_plan_factor_and_natural_matrix(self, kernel, order_kind):
        # The factor is the old one bit for bit, and the plan leaves the
        # spec's natural-order matrix unbuilt.
        spec = sa.TokenProcessSpec(grid_height=3, grid_width=5, kernel=kernel)
        order = _orders(spec, 4)[order_kind]
        plan = sa.conditioning_plan(spec, order)
        assert "covariance" not in spec.__dict__
        perm = list(order.permutation)
        old = np.linalg.cholesky(spec.covariance[np.ix_(perm, perm)])
        assert plan.factor.tobytes() == old.tobytes()

    @pytest.mark.parametrize("height,width,length_scale", [(5, 3, 50.0), (6, 6, 20.0)])
    def test_not_positive_definite_names_the_same_position(self, height, width,
                                                           length_scale):
        # A real field that rounding makes indefinite deep in the order: the
        # error names the step, position and pivot that bisecting the old
        # permuted matrix finds.
        spec = sa.TokenProcessSpec(grid_height=height, grid_width=width,
                                   length_scale=length_scale, jitter=1e-16)
        order = sa.random_order(spec, 4, seed=5)
        perm = list(order.permutation)
        pivot = process._failed_pivot(spec.covariance[np.ix_(perm, perm)])
        step = int(np.searchsorted(np.cumsum(order.group_sizes), pivot))
        assert pivot > 2
        with pytest.raises(sa.NumericalError) as exc:
            sa.conditioning_plan(sa.TokenProcessSpec(
                grid_height=height, grid_width=width, length_scale=length_scale,
                jitter=1e-16), order)
        assert str(exc.value).startswith(
            f"length_scale/jitter: AR step {step}: the joint covariance is not "
            f"positive definite at position {perm[pivot - 1]} (pivot {pivot} of "
            f"{spec.token_count} ")


class TestSampleConditional:
    def test_singular_covariance_draws_exactly(self):
        # Rank one: no Cholesky factor exists, the spectrum draws exactly.
        cond = sa.ConditionalGaussian(
            target_positions=(0, 1), mean=np.zeros((2, 3)),
            covariance=np.ones((2, 2)))
        draws = sa.sample_conditional(cond, np.random.default_rng(0), size=5)
        np.testing.assert_allclose(draws[:, 0], draws[:, 1], atol=1e-12)

    def test_batched_mean_rejects_size(self):
        # A batched mean gets one draw per entry; a larger size would be
        # ignored, so it is refused, naming the argument.
        cond = sa.ConditionalGaussian(target_positions=(0, 1),
                                      mean=np.zeros((3, 2, 4)), covariance=np.eye(2))
        assert sa.sample_conditional(cond, np.random.default_rng(0)).shape == (3, 2, 4)
        with pytest.raises(ValueError, match="^size: "):
            sa.sample_conditional(cond, np.random.default_rng(0), size=5)


def _gauss_logpdf(x, mean, cov_mat):
    dev = x - mean
    sol = np.linalg.solve(cov_mat, dev)
    return -0.5 * float(np.sum(dev * sol))


class TestScore:
    def test_zero_at_mode(self, oracle):
        cond = sa.ConditionalGaussian(
            target_positions=(0, 1), mean=np.ones((2, 3)),
            covariance=np.eye(2))
        score = oracle.score(np.ones((2, 3)), 1.0, cond)
        np.testing.assert_allclose(score, 0.0)

    def test_isotropic_scalar_form(self, oracle):
        s2 = 0.49
        cond = sa.ConditionalGaussian(
            target_positions=(0,), mean=np.full((1, 4), 0.3),
            covariance=np.array([[s2]]))
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 1, 4))
        for a in (0.2, 0.7, 0.99):
            expected = -(x - np.sqrt(a) * 0.3) / (a * s2 + 1 - a)
            np.testing.assert_allclose(oracle.score(x, a, cond), expected,
                                       rtol=1e-12)

    @pytest.mark.parametrize("alpha_bar", [0.15, 0.5, 0.9])
    def test_finite_difference_gradient(self, oracle, spec, alpha_bar):
        rng = np.random.default_rng(11)
        obs = [(p, rng.standard_normal(4)) for p in (0, 7, 12)]
        cond = sa.conditional(spec, obs, [5, 6, 10])
        x = rng.standard_normal((3, 4))
        score = oracle.score(x, alpha_bar, cond)
        mat = alpha_bar * cond.covariance + (1 - alpha_bar) * np.eye(3)
        mean = np.sqrt(alpha_bar) * cond.mean
        h = 1e-4
        fd = np.zeros_like(x)
        for i in range(3):
            for j in range(4):
                up, dn = x.copy(), x.copy()
                up[i, j] += h
                dn[i, j] -= h
                fd[i, j] = (
                    _gauss_logpdf(up[:, j], mean[:, j], mat)
                    - _gauss_logpdf(dn[:, j], mean[:, j], mat)
                ) / (2 * h)
        assert np.max(np.abs(score - fd)) / np.max(np.abs(fd)) < 1e-5

    def test_alpha_bar_range(self, oracle):
        cond = sa.ConditionalGaussian(
            target_positions=(0,), mean=np.zeros((1, 2)), covariance=np.eye(1))
        with pytest.raises(ValueError, match="alpha_bar"):
            oracle.score(np.zeros((1, 2)), 0.0, cond)


class TestEps:
    def test_scalar_substitution(self, oracle):
        # -sqrt(1-a) * score expanded for an isotropic unit conditional:
        # eps = sqrt(1-a) (x - sqrt(a) mu) / (a s^2 + 1 - a).
        cond = sa.ConditionalGaussian(
            target_positions=(0,), mean=np.full((1, 4), 0.5),
            covariance=np.array([[1.0]]))
        x = np.random.default_rng(1).standard_normal((1, 4))
        expected = np.sqrt(0.5) * (x - np.sqrt(0.5) * 0.5) / (0.5 * 1.0 + 0.5)
        np.testing.assert_allclose(oracle.epsilon(x, 0.5, cond), expected, rtol=1e-12)

    def test_dirac_recovers_injected_noise(self, oracle):
        mean = np.full((1, 4), -0.2)
        cond = sa.ConditionalGaussian(
            target_positions=(0,), mean=mean, covariance=np.array([[0.0]]))
        rng = np.random.default_rng(5)
        eps = rng.standard_normal((8, 1, 4))
        for a in (0.3, 0.8):
            x_t = np.sqrt(a) * mean + np.sqrt(1 - a) * eps
            np.testing.assert_allclose(oracle.epsilon(x_t, a, cond), eps, atol=1e-8)

    def test_definitional_identity(self, oracle, aniso_cond):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((5, 3, 4))
        for a in (0.1, 0.6, 0.97):
            lhs = oracle.epsilon(x, a, aniso_cond)
            rhs = -np.sqrt(1 - a) * oracle.score(x, a, aniso_cond)
            np.testing.assert_array_equal(lhs, rhs)

    def test_limit_at_full_signal(self, oracle, aniso_cond):
        x = np.random.default_rng(2).standard_normal((3, 4)) + 5.0
        np.testing.assert_allclose(oracle.epsilon(x, 1.0, aniso_cond), 0.0)


class TestVelocity:
    def test_dirac_straight_path(self, oracle):
        mu = np.full((1, 4), 0.9)
        cond = sa.ConditionalGaussian(
            target_positions=(0,), mean=mu, covariance=np.array([[0.0]]))
        rng = np.random.default_rng(3)
        eps = rng.standard_normal((6, 1, 4))
        for t in (0.2, 0.5, 0.95):
            x_t = (1 - t) * mu + t * eps
            got = oracle.velocity(x_t, t, cond)
            np.testing.assert_allclose(got, (x_t - (1 - t) * mu) / t - mu, atol=1e-10)
            np.testing.assert_allclose(got, eps - mu, atol=1e-9)

    def test_terminal_time_posterior_regression(self, oracle, spec):
        # At t=1 the state is pure noise: E[x0|x] is constant and
        # E[eps|x] = x, so v(x, 1) = x - mu; confirm against a Monte Carlo
        # regression of (eps - x0) on x1 over 10^6 pairs.
        rng = np.random.default_rng(8)
        obs = [(p, rng.standard_normal(4)) for p in (2, 13)]
        cond = sa.conditional(spec, obs, [5])
        n = 1_000_000
        x0 = cond.mean[0, 0] + np.sqrt(cond.covariance[0, 0]) * rng.standard_normal(n)
        eps = rng.standard_normal(n)
        x1 = eps
        design = np.column_stack([np.ones(n), x1])
        beta, _, _, _ = np.linalg.lstsq(design, eps - x0, rcond=None)
        resid = (eps - x0) - design @ beta
        se = np.sqrt(np.var(resid) * np.diag(np.linalg.inv(design.T @ design)))
        assert abs(beta[1] - 1.0) <= 3 * se[1]
        assert abs(beta[0] - (-cond.mean[0, 0])) <= 3 * se[0]
        x_query = np.array([[np.linspace(-2, 2, 4)]])[0]
        got = oracle.velocity(x_query.reshape(1, 4), 1.0, cond)
        np.testing.assert_allclose(got, x_query.reshape(1, 4) - cond.mean, rtol=1e-10)

    @pytest.mark.parametrize("t", [0.05, 0.3, 0.7, 0.999])
    def test_consistency_with_marginal_score(self, oracle, aniso_cond, t):
        # For the linear interpolation, (1-t) v = -(x + t * score).
        rng = np.random.default_rng(4)
        x = rng.standard_normal((6, 3, 4))
        v = oracle.velocity(x, t, aniso_cond)
        score = oracle.flow_score(x, t, aniso_cond)
        np.testing.assert_allclose((1 - t) * v, -(x + t * score), atol=1e-6)

    def test_zero_time_limit(self, oracle, aniso_cond):
        x = np.random.default_rng(6).standard_normal((2, 3, 4))
        np.testing.assert_allclose(oracle.velocity(x, 0.0, aniso_cond), -x)


class TestGenerationOrder:
    def test_random_order_partition(self, spec):
        order = sa.random_order(spec, 4, seed=1)
        assert sorted(order.permutation) == list(range(16))
        assert order.group_sizes == (4, 4, 4, 4)
        flat = [p for g in order.groups() for p in g]
        assert list(flat) == list(order.permutation)

    def test_uneven_groups(self, spec):
        order = sa.random_order(spec, 5, seed=0)
        assert sum(order.group_sizes) == 16
        assert max(order.group_sizes) - min(order.group_sizes) <= 1

    def test_raster(self, spec):
        order = sa.raster_order(spec, 16)
        assert order.permutation == tuple(range(16))

    def test_validation(self, spec):
        with pytest.raises(ValueError, match="bijection"):
            sa.GenerationOrder(permutation=(0, 0, 1), group_sizes=(3,))
        with pytest.raises(ValueError, match="sum"):
            sa.GenerationOrder(permutation=(0, 1, 2), group_sizes=(2,))
        with pytest.raises(ValueError, match="group_count"):
            sa.random_order(spec, 17, seed=0)
