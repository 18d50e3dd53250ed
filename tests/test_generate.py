import numpy as np
import pytest

import stepanneal as sa

from conftest import schur_solver


@pytest.fixture(scope="module")
def setup(spec, linear_schedule):
    order = sa.random_order(spec, 16, seed=0)
    cfg = sa.SamplerConfig(kind="ddim", eta=0.0)
    pol = sa.StepScheduler(kind="linear", t_early=50, t_late=5, ar_steps=16)
    return order, cfg, pol


def _one(spec, order, cfg, pol, schedule=None, *, seed, start_index=None,
         **kwargs):
    """One sequence through the batched entry point."""
    grids = sa.step_grids(cfg, pol, schedule, start_index)
    return sa.simulate_sequences(sa.conditioning_plan(spec, order), cfg, grids,
                                 n_sequences=1, master_seed=seed, **kwargs)


class TestGenerateSequence:
    def test_bitwise_reproducible(self, spec, linear_schedule, setup):
        order, cfg, pol = setup
        a = _one(spec, order, cfg, pol, linear_schedule, seed=7, start_index=950)
        b = _one(spec, order, cfg, pol, linear_schedule, seed=7, start_index=950)
        np.testing.assert_array_equal(a.values, b.values)
        c = _one(spec, order, cfg, pol, linear_schedule, seed=8, start_index=950)
        assert not np.array_equal(a.values, c.values)

    def test_step_counts_follow_scheduler(self, spec, linear_schedule, setup):
        order, cfg, pol = setup
        seq = _one(spec, order, cfg, pol, linear_schedule, seed=1, start_index=950)
        assert seq.step_counts == tuple(
            sa.steps_at(pol, k) for k in range(16))
        assert seq.values.shape == (1, 16, 4)
        assert np.all(np.isfinite(seq.values))

    def test_nfe_matches_scheduled_total(self, spec, linear_schedule, setup):
        order, cfg, pol = setup
        seq = _one(spec, order, cfg, pol, linear_schedule, seed=1, start_index=950)
        assert seq.nfe_per_sequence == sa.total_nfe(pol)

    def test_nfe_midpoint_solver(self, spec, linear_schedule, setup):
        order, _, pol = setup
        cfg = sa.SamplerConfig(kind="dpm_solver", order=2)
        seq = _one(spec, order, cfg, pol, linear_schedule, seed=1, start_index=950)
        # 2 T(k) - 1 per AR step: one evaluation short of 2 T(k) at the
        # terminal transition of every grid.
        assert seq.nfe_per_sequence == 2 * sa.total_nfe(pol) - pol.ar_steps
        assert seq.nfe_per_sequence == sa.total_nfe(pol, cfg.calls)

    def test_dirac_process_returns_mean_field(self, linear_schedule):
        mean_field = np.linspace(-1.0, 1.0, 16)
        tight = sa.TokenProcessSpec(marginal_std=1e-6, mean_field=mean_field,
                                    jitter=1e-16)
        order = sa.random_order(tight, 4, seed=0)
        for kind in ("constant", "linear"):
            pol = sa.StepScheduler(kind=kind, t_early=20, t_late=5, ar_steps=4)
            seq = _one(tight, order, sa.SamplerConfig(kind="ddim"), pol,
                       linear_schedule, seed=3, start_index=950)
            np.testing.assert_allclose(seq.values[0],
                                       np.tile(mean_field[:, None], (1, 4)),
                                       atol=1e-3)

    def test_flow_generation(self, spec, setup):
        order, _, pol = setup
        cfg = sa.SamplerConfig(kind="euler_flow")
        seq = _one(spec, order, cfg, pol, seed=2)
        assert seq.nfe_per_sequence == sa.total_nfe(pol)

    def test_ar1_kernel_field(self, linear_schedule):
        spec = sa.TokenProcessSpec(grid_height=3, grid_width=3, token_dim=2,
                                   kernel="ar1", length_scale=1.5)
        order = sa.random_order(spec, 3, seed=1)
        pol = sa.constant_scheduler(20, 3)
        seq = _one(spec, order, sa.SamplerConfig(kind="ddim"), pol,
                   linear_schedule, seed=5, start_index=950)
        assert seq.values.shape == (1, 9, 2)
        assert np.all(np.isfinite(seq.values))

    def test_error_carries_ar_step_context(self, spec, linear_schedule, setup):
        order, cfg, _ = setup
        pol = sa.constant_scheduler(1000, 16)
        with pytest.raises(RuntimeError, match="AR step 0"):
            _one(spec, order, cfg, pol, linear_schedule, seed=0, start_index=950)

    def test_scheduler_order_mismatch(self, spec, linear_schedule, setup):
        order, cfg, _ = setup
        pol = sa.constant_scheduler(10, 8)
        with pytest.raises(ValueError, match="ar_steps"):
            _one(spec, order, cfg, pol, linear_schedule, seed=0)

    def test_record_paths(self, spec, linear_schedule, setup):
        order, cfg, pol = setup
        seq = _one(spec, order, cfg, pol, linear_schedule, seed=4,
                   start_index=950, record_paths=True)
        assert len(seq.trajectories) == 16
        assert len(seq.conditionals) == 16
        assert seq.trajectories[0].states is not None


class TestSimulateSequences:
    def test_conditionals_are_exact(self, spec, linear_schedule, setup):
        # The loop grows one Cholesky factor along the order; every recorded
        # conditional must equal a from-scratch Schur complement given the
        # values generated before it.
        order, cfg, pol = setup
        grids = sa.step_grids(cfg, pol, linear_schedule, 950)
        batch = sa.simulate_sequences(sa.conditioning_plan(spec, order), cfg, grids,
                                      n_sequences=3, master_seed=2,
                                      record_paths=True)
        observed = []
        for group, cond in zip(order.groups(), batch.conditionals):
            exact = schur_solver(spec, observed, group)
            np.testing.assert_allclose(cond.covariance, exact.covariance,
                                       rtol=0, atol=1e-10)
            np.testing.assert_allclose(
                cond.mean, exact.mean(spec, batch.values[:, observed, :]),
                rtol=0, atol=1e-10)
            observed += group

    def test_batched_determinism(self, spec, linear_schedule, setup):
        order, cfg, pol = setup
        grids = sa.step_grids(cfg, pol, linear_schedule, 950)
        a = sa.simulate_sequences(sa.conditioning_plan(spec, order), cfg, grids,
                                  n_sequences=8, master_seed=1)
        b = sa.simulate_sequences(sa.conditioning_plan(spec, order), cfg, grids,
                                  n_sequences=8, master_seed=1)
        np.testing.assert_array_equal(a.values, b.values)
        assert a.values.shape == (8, 16, 4)

    def test_csv_rows(self, spec, linear_schedule, setup):
        # One text block per sequence.  Together they hold a line
        # seq_id,ar_step,position,dim,value per cell, in cell order, and
        # the values read back exactly.
        order, cfg, pol = setup
        batch = sa.simulate_sequences(sa.conditioning_plan(spec, order), cfg,
                                      sa.step_grids(cfg, pol, linear_schedule, 950),
                                      n_sequences=2, master_seed=1)
        blocks = sa.batch_to_csv_rows(batch)
        assert len(blocks) == 2
        lines = "".join(blocks).splitlines()
        assert len(lines) == 2 * 16 * 4
        groups = order.groups()
        cells = [(s, p, j) for s in range(2) for p in range(16) for j in range(4)]
        values = []
        for line, cell in zip(lines, cells):
            seq_id, ar_step, position, dim, value = line.split(",")
            assert (int(seq_id), int(position), int(dim)) == cell
            assert int(position) in groups[int(ar_step)]
            values.append(float(value))
        np.testing.assert_array_equal(np.reshape(values, (2, 16, 4)), batch.values)

    def test_csv_rows_match_per_row_repr(self):
        # Values whose text is easy to get wrong: signed zero, exponents,
        # the smallest subnormal and non-terminating binary fractions.  The
        # body must equal the per-row repr formatter it replaced.
        first = np.array([-0.0, 1e-05, 1e16, 5e-324, 0.1, 1 / 3]).reshape(3, 2)
        values = np.stack([first, -first])
        order = sa.GenerationOrder(permutation=(2, 0, 1), group_sizes=(1, 2))
        batch = sa.SequenceBatch(values=values, order=order, step_counts=(1, 1),
                                 nfe_per_sequence=2)
        step_of = {0: 1, 1: 1, 2: 0}
        expected = "".join(
            ",".join((str(s), str(step_of[p]), str(p), str(j),
                      repr(float(values[s, p, j])))) + "\n"
            for s in range(2) for p in range(3) for j in range(2)
        )
        assert "".join(sa.batch_to_csv_rows(batch)) == expected
        assert "-0.0" in expected and "5e-324" in expected and "1e+16" in expected

    def test_joint_moments_match_process(self, spec, cov, linear_schedule):
        # Full-resolution ancestral generation, one token per AR step:
        # empirical joint second moments converge to the exact field
        # covariance (the strongest end-to-end correctness check).
        order = sa.raster_order(spec, 16)
        cfg = sa.SamplerConfig(kind="ddpm")
        pol = sa.constant_scheduler(1000, 16)
        batch = sa.simulate_sequences(sa.conditioning_plan(spec, order), cfg,
                                      sa.step_grids(cfg, pol, linear_schedule, 999),
                                      n_sequences=20000, master_seed=5)
        flat = batch.values.transpose(0, 2, 1).reshape(-1, 16)
        emp = np.cov(flat, rowvar=False, ddof=1)
        assert np.linalg.norm(emp - cov) / np.linalg.norm(cov) < 0.05
