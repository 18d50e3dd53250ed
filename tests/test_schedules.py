import numpy as np
import pytest

import stepanneal as sa

# Cumulative product of (1 - beta) for the default linear schedule at the
# last index, computed with a 50-digit mpmath loop and frozen here.
AB999_LINEAR = 4.0358297653756833e-05


def cosine_profile(u, n, s):
    return np.cos(((u / n + s) / (1.0 + s)) * (np.pi / 2.0)) ** 2


class TestLinearBeta:
    def test_first_alpha_bar_is_single_factor(self):
        sched = sa.build_linear_beta(1000, 1e-4, 0.02)
        assert sched.alpha_bars[0] == 1.0 - 1e-4
        assert sched.alpha_bars[0] == 1.0 - sched.betas[0]

    def test_two_step_product(self):
        sched = sa.build_linear_beta(2, 0.1, 0.3)
        np.testing.assert_allclose(sched.alpha_bars, [0.9, 0.9 * 0.7], rtol=1e-15)

    def test_final_alpha_bar_matches_extended_precision(self):
        sched = sa.build_linear_beta(1000, 1e-4, 0.02)
        assert abs(sched.alpha_bars[-1] - AB999_LINEAR) / AB999_LINEAR < 1e-10

    @pytest.mark.parametrize("params", [(1000, 1e-4, 0.02), (500, 1e-3, 0.05), (64, 0.01, 0.3)])
    def test_cumprod_agrees_with_longdouble_loop(self, params):
        n, b0, b1 = params
        sched = sa.build_linear_beta(n, b0, b1)
        betas = np.linspace(b0, b1, n).astype(np.longdouble)
        prod = np.longdouble(1.0)
        reference = []
        for b in betas:
            prod = prod * (1 - b)
            reference.append(float(prod))
        np.testing.assert_allclose(sched.alpha_bars, reference, rtol=1e-10)

    @pytest.mark.parametrize("params", [(1000, 1e-4, 0.02), (16, 0.05, 0.4)])
    def test_invariants(self, params):
        sched = sa.build_linear_beta(*params)
        assert np.all(sched.betas > 0) and np.all(sched.betas < 1)
        assert np.all(np.diff(sched.alpha_bars) < 0)
        assert np.all(sched.alpha_bars > 0) and np.all(sched.alpha_bars < 1)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            (dict(beta_start=0.0), "beta_start"),
            (dict(beta_start=0.3, beta_end=0.1), "beta_start"),
            (dict(beta_end=1.0), "beta_end"),
            (dict(base_step_count=1), "base_step_count"),
        ],
    )
    def test_parameter_errors_name_field(self, kwargs, field):
        with pytest.raises(ValueError, match=field):
            sa.build_linear_beta(**{"base_step_count": 100, "beta_start": 1e-4,
                                    "beta_end": 0.02, **kwargs})


class TestCosineAlphaBar:
    def test_invariants(self):
        sched = sa.build_cosine_alpha_bar(1000, 0.008)
        assert np.all(np.diff(sched.alpha_bars) < 0)
        assert np.all(sched.alpha_bars > 0) and np.all(sched.alpha_bars < 1)
        assert np.all(sched.betas <= 0.999)

    def test_midpoint_matches_direct_formula(self):
        sched = sa.build_cosine_alpha_bar(1000, 0.008)
        expected = cosine_profile(500, 1000, 0.008) / cosine_profile(0, 1000, 0.008)
        np.testing.assert_allclose(sched.alpha_bars[499], expected, rtol=1e-12)

    def test_four_point_hand_product_with_clip(self):
        # Raw profile hits 0 at the last point, so the final rate clips at
        # 0.999 and the product is rebuilt from the clipped rates.
        sched = sa.build_cosine_alpha_bar(4, 0.0)
        raw = np.array([cosine_profile(u, 4, 0.0) for u in range(5)])
        raw_ab = raw[1:] / raw[0]
        np.testing.assert_allclose(sched.alpha_bars[:3], raw_ab[:3], rtol=1e-12)
        expected_last = raw_ab[2] * (1.0 - 0.999)
        np.testing.assert_allclose(sched.alpha_bars[3], expected_last, rtol=1e-12)

    def test_cumprod_agrees_with_longdouble_loop(self):
        sched = sa.build_cosine_alpha_bar(500, 0.008)
        prod = np.longdouble(1.0)
        reference = []
        for b in sched.betas.astype(np.longdouble):
            prod = prod * (1 - b)
            reference.append(float(prod))
        np.testing.assert_allclose(sched.alpha_bars, reference, rtol=1e-10)

    def test_small_offset_validation(self):
        with pytest.raises(ValueError, match="small_offset"):
            sa.build_cosine_alpha_bar(1000, -0.1)


class TestDiffusionGrid:
    def test_five_indices_from_999(self, linear_schedule):
        grid = sa.make_diffusion_grid(linear_schedule, 5, 999)
        np.testing.assert_array_equal(grid.points, [999, 749, 499, 249, 0, -1])
        assert grid.step_count == 5

    def test_single_step_hop(self, linear_schedule):
        grid = sa.make_diffusion_grid(linear_schedule, 1, 950)
        np.testing.assert_array_equal(grid.points, [950, -1])
        assert grid.step_count == 1
        assert grid.levels[-1] == 1.0

    def test_two_step_grid_is_distinct_from_hop(self, linear_schedule):
        # One rule for every step count: the indices, then the clean state.
        grid = sa.make_diffusion_grid(linear_schedule, 2, 950)
        hop = sa.make_diffusion_grid(linear_schedule, 1, 950)
        np.testing.assert_array_equal(grid.points, [950, 0, -1])
        np.testing.assert_array_equal(hop.points, [950, -1])
        assert grid.step_count == 2
        ab = linear_schedule.alpha_bars
        np.testing.assert_array_equal(grid.levels, [ab[950], ab[0], 1.0])
        np.testing.assert_array_equal(hop.levels, [ab[950], 1.0])

    def test_fifty_from_offset(self, linear_schedule):
        grid = sa.make_diffusion_grid(linear_schedule, 50, 950)
        assert grid.points.size == 51
        assert np.all(np.diff(grid.points) < 0)
        assert grid.points[-2] == 0
        assert grid.points[-1] == -1

    def test_full_resolution_identity(self, linear_schedule):
        grid = sa.make_diffusion_grid(linear_schedule, 951, 950)
        np.testing.assert_array_equal(grid.points, np.arange(950, -2, -1))

    def test_default_start_is_top_of_grid(self, linear_schedule):
        grid = sa.make_diffusion_grid(linear_schedule, 10)
        assert grid.points[0] == 999

    @pytest.mark.parametrize("num_steps,start", [(0, 950), (952, 950), (5, 1000), (5, -1)])
    def test_range_errors(self, linear_schedule, num_steps, start):
        with pytest.raises(ValueError):
            sa.make_diffusion_grid(linear_schedule, num_steps, start)

    @pytest.mark.parametrize("num_steps", [1, 2])
    def test_start_index_zero_names_start_index(self, linear_schedule, num_steps):
        # No grid starts at index 0, the least noisy level; the error names
        # start_index, whatever the step count.
        with pytest.raises(ValueError,
                           match=r"^start_index: must lie in \[1, 1000\), got 0$"):
            sa.make_diffusion_grid(linear_schedule, num_steps, 0)

    @pytest.mark.parametrize("num_steps", [2, 7, 64, 500, 951])
    def test_grids_strictly_decreasing_and_terminate_at_zero(
        self, linear_schedule, num_steps
    ):
        # The last index is 0; the walk then ends at the clean state.
        grid = sa.make_diffusion_grid(linear_schedule, num_steps, 950)
        assert np.all(np.diff(grid.points) < 0)
        assert grid.points[-2] == 0.0
        assert grid.points[-1] == -1.0
        assert np.all(np.diff(grid.levels) > 0)
        assert grid.levels[-1] == 1.0


class TestTimeGrid:
    @pytest.mark.parametrize("points,levels", [
        ([10.0, 0.0, -1.0], None),
        ([10.0, 0.0], [0.2, 0.9]),
        ([10.0, 0.0, -1.0], [0.2, 0.5, 1.5]),
    ])
    def test_diffusion_levels_must_end_clean(self, points, levels):
        # A diffusion grid states its whole walk: levels present, increasing
        # within (0, 1] and ending at exactly 1.
        with pytest.raises(ValueError, match=r"^levels: "):
            sa.TimeGrid(sa.DIFFUSION, points, levels)

    def test_flow_grid_ends_at_time_zero(self):
        with pytest.raises(ValueError, match=r"^points: "):
            sa.TimeGrid(sa.FLOW, [1.0, 0.5])
        with pytest.raises(ValueError, match=r"^levels: "):
            sa.TimeGrid(sa.FLOW, [1.0, 0.0], [0.5, 1.0])

    def test_step_count_is_points_minus_one(self):
        assert sa.TimeGrid(sa.DIFFUSION, [5.0, 0.0, -1.0], [0.1, 0.9, 1.0]).step_count == 2
        assert sa.TimeGrid(sa.FLOW, [1.0, 0.5, 0.0]).step_count == 2


class TestFlowGrid:
    def test_four_intervals(self):
        grid = sa.make_flow_grid(4, 1.0)
        np.testing.assert_allclose(grid.points, [1.0, 0.75, 0.5, 0.25, 0.0])
        assert grid.step_count == 4

    def test_single_interval(self):
        grid = sa.make_flow_grid(1, 1.0)
        np.testing.assert_array_equal(grid.points, [1.0, 0.0])

    def test_offset_start(self):
        grid = sa.make_flow_grid(3, 0.9)
        np.testing.assert_allclose(grid.points, [0.9, 0.6, 0.3, 0.0], atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match="num_steps"):
            sa.make_flow_grid(0, 1.0)
        with pytest.raises(ValueError, match="start_time"):
            sa.make_flow_grid(4, 1.5)
