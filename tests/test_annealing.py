import math

import pytest

import stepanneal as sa


def make(kind, te, tl, K):
    return sa.StepScheduler(kind=kind, t_early=te, t_late=tl, ar_steps=K)


class TestStepsAt:
    def test_linear_boundary(self):
        assert sa.steps_at(make("linear", 50, 5, 64), 0) == 50

    def test_linear_midpoint_rounds_half_away(self):
        # 50 - 45 * 32/64 = 27.5 rounds away from zero to 28
        assert sa.steps_at(make("linear", 50, 5, 64), 32) == 28

    def test_two_stage_switch(self):
        sched = make("two_stage", 50, 5, 64)
        assert sa.steps_at(sched, 31) == 50
        assert sa.steps_at(sched, 32) == 5

    def test_cosine_boundary(self):
        assert sa.steps_at(make("cosine", 50, 5, 64), 0) == 50

    def test_cosine_midpoint(self):
        assert sa.steps_at(make("cosine", 50, 5, 64), 32) == 28

    def test_constant_reproduces_baseline(self):
        sched = make("constant", 50, 50, 16)
        assert [sa.steps_at(sched, k) for k in range(16)] == [50] * 16

    def test_constant_policy_is_stated_once(self):
        # The constant rule reads no t_late, so a constant policy holds
        # t_late = t_early and equals (and hashes like) every other way of
        # stating it; sweep runs it once.
        sched = make("constant", 50, 5, 16)
        assert sched == sa.constant_scheduler(50, 16) == make("constant", 50, 25, 16)
        assert hash(sched) == hash(sa.constant_scheduler(50, 16))
        assert sched.t_late == 50

    def test_linear_to_one_stops_short(self):
        assert sa.steps_at(make("linear", 50, 1, 8), 7) == 7

    @pytest.mark.parametrize("kind", sa.SCHEDULER_KINDS)
    def test_values_lie_between_t_early_and_t_late(self, kind):
        # So T(k) >= 1 for every valid policy, with no clamp.
        for K in (1, 2, 3, 7, 16, 33):
            for te in range(1, 41):
                for tl in range(1, 41):
                    table = sa.schedule_table(make(kind, te, tl, K))
                    assert all(min(te, tl) <= t <= max(te, tl) for _, t in table)

    def test_k_out_of_range(self):
        with pytest.raises(ValueError, match="k"):
            sa.steps_at(make("linear", 50, 5, 8), 8)
        with pytest.raises(ValueError, match="k"):
            sa.steps_at(make("linear", 50, 5, 8), -1)

    @pytest.mark.parametrize("kind", ["linear", "cosine"])
    @pytest.mark.parametrize("te,tl,K", [(50, 5, 64), (25, 5, 32), (50, 15, 16)])
    def test_monotone_non_increasing(self, kind, te, tl, K):
        sched = make(kind, te, tl, K)
        values = [sa.steps_at(sched, k) for k in range(K)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_two_stage_has_exactly_one_decrease(self):
        sched = make("two_stage", 50, 5, 64)
        values = [sa.steps_at(sched, k) for k in range(64)]
        drops = sum(1 for a, b in zip(values, values[1:]) if b < a)
        assert drops == 1

    def test_linear_endpoint_one_rounding_unit(self):
        # The exact rule hits t_late only at k = K (outside the domain); at
        # K-1 the value sits within one rounding unit of the unrounded line.
        sched = make("linear", 50, 5, 64)
        unrounded = 50 + (5 - 50) * 63 / 64
        assert abs(sa.steps_at(sched, 63) - unrounded) <= 0.5

    def test_cosine_endpoint_near_t_late(self):
        sched = make("cosine", 50, 5, 64)
        unrounded = 5 + 45 * 0.5 * (math.cos(63 * math.pi / 64) + 1)
        assert abs(sa.steps_at(sched, 63) - unrounded) <= 0.5
        assert sa.steps_at(sched, 63) - 5 <= 1

    def test_validation(self):
        with pytest.raises(ValueError, match="kind"):
            make("geometric", 50, 5, 64)
        with pytest.raises(ValueError, match="t_early"):
            make("linear", 0, 5, 64)
        with pytest.raises(ValueError, match="t_late"):
            make("linear", 50, 0, 64)
        with pytest.raises(ValueError, match="ar_steps"):
            make("linear", 50, 5, 0)


class TestTotalNfe:
    def test_constant(self):
        assert sa.total_nfe(make("constant", 50, 50, 64)) == 3200

    def test_two_stage(self):
        assert sa.total_nfe(make("two_stage", 50, 5, 64)) == 1760

    @pytest.mark.parametrize("te,tl,K", [(50, 5, 64), (50, 5, 16), (25, 5, 32)])
    def test_linear_matches_brute_force(self, te, tl, K):
        total = 0
        for k in range(K):
            raw = te + (tl - te) * k / K
            total += max(int(math.floor(raw + 0.5)), 1)
        assert sa.total_nfe(make("linear", te, tl, K)) == total

    def test_calls_per_step_and_bootstrap(self):
        sched = make("two_stage", 50, 5, 64)
        assert sa.total_nfe(sched, lambda t: 2 * t) == 2 * 1760
        # The midpoint solver's rule: one call short of 2T per AR step.
        midpoint = sa.SamplerConfig(kind="dpm_solver", order=2).calls
        assert sa.total_nfe(sched, midpoint) == 2 * 1760 - 64

    def test_calls_per_step_validation(self):
        with pytest.raises(ValueError, match="calls"):
            sa.total_nfe(make("constant", 5, 5, 4), lambda t: 0)


class TestScheduleTable:
    def test_constant_table(self):
        assert sa.schedule_table(make("constant", 50, 50, 4)) == [
            (0, 50), (1, 50), (2, 50), (3, 50)]

    def test_linear_endpoints(self):
        table = dict(sa.schedule_table(make("linear", 25, 5, 32)))
        assert table[0] == 25
        assert table[31] == 6  # round(25 - 20*31/32) = round(5.625)

    def test_cosine_midpoint_row(self):
        table = dict(sa.schedule_table(make("cosine", 50, 5, 64)))
        assert table[32] == 28

    def test_table_matches_steps_at(self):
        sched = make("cosine", 25, 5, 32)
        for k, t in sa.schedule_table(sched):
            assert t == sa.steps_at(sched, k)
