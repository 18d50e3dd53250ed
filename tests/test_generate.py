import json
import math
import os
import re
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import stepanneal as sa
from stepanneal import _workers, cli

from conftest import count_thread_starts, open_fd_count, schur_solver


@pytest.fixture(scope="module")
def setup(spec, linear_schedule):
    order = sa.random_order(spec, 16, seed=0)
    cfg = sa.SamplerConfig(kind="ddim", eta=0.0)
    pol = sa.StepScheduler(kind="linear", t_early=50, t_late=5, ar_steps=16)
    return order, cfg, pol


def _awkward_batch(count):
    """A batch of ``count`` sequences of 3 positions in 2 dims whose values
    are hard to print (signed zero, exponents, the smallest subnormal,
    non-terminating binary fractions), with the per-row repr text of its
    body."""
    first = np.array([-0.0, 1e-05, 1e16, 5e-324, 0.1, 1 / 3]).reshape(3, 2)
    values = np.stack([(-1.0) ** s * (s // 2 + 1) * first for s in range(count)])
    order = sa.GenerationOrder(permutation=(2, 0, 1), group_sizes=(1, 2))
    batch = sa.SequenceBatch(values=values, order=order, nfe_per_sequence=2)
    step_of = {0: 1, 1: 1, 2: 0}
    expected = "".join(
        ",".join((str(s), str(step_of[p]), str(p), str(j),
                  repr(float(values[s, p, j])))) + "\n"
        for s in range(count) for p in range(3) for j in range(2)
    )
    return batch, expected


# Formats 8 sequences of 1024 positions in 4 dims (about 240 KB of text per
# range, more than any OS buffer holds, 64 KB for a pipe) in 4 ranges, with
# the range that starts at sequence argv[1] refusing to format; prints the
# error, then whether a child of this process is left.
_FAILING_RANGE = """
import os, sys
import numpy as np
import stepanneal as sa
from stepanneal import generate

failing, blocks = int(sys.argv[1]), generate._csv_blocks

def fail_one_range(template, values, first, last):
    if first == failing:
        raise ValueError("formatting refused")
    text = blocks(template, values, first, last)
    assert sum(map(len, text)) > 1 << 16, "range fits a pipe buffer"
    return text

values = np.random.default_rng(0).standard_normal((8, 1024, 4))
order = sa.GenerationOrder(permutation=tuple(range(1024)), group_sizes=(1024,))
batch = sa.SequenceBatch(values=values, order=order, nfe_per_sequence=1)
os.sched_getaffinity = lambda pid: {0, 1, 2, 3}
generate._csv_blocks = fail_one_range
try:
    sa.batch_to_csv_rows(batch)
except (ValueError, RuntimeError) as exc:
    print(exc)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


# Runs a 4096-sequence euler_maruyama simulate on 2 CPUs, so its noise is
# drawn ahead in a thread, with the failure of case argv[1]: the thread's
# draw of its 40th chunk raises ("producer"), the walk of AR step 3 raises
# ("walk"), or the caller stops at AR step 3 after waiting long enough for the
# thread to fill every buffer ("stopped").  Prints the error, the change in
# the live thread count, then whether a 2-CPU tokens.csv of a later run
# matches the 1-CPU one and whether a child of this process is left.
_FAILING_NOISE = """
import os, sys, threading, time
import numpy as np
import stepanneal as sa
from stepanneal import generate

case = sys.argv[1]
os.sched_getaffinity = lambda pid: {0, 1}
spec = sa.TokenProcessSpec()
plan = sa.conditioning_plan(spec, sa.random_order(spec, 16, seed=0))
cfg = sa.SamplerConfig(kind="euler_maruyama")
grids = sa.step_grids(cfg, sa.StepScheduler(kind="linear", t_early=50, t_late=5,
                                            ar_steps=16))
default_rng, walk, calls = np.random.default_rng, generate.sample_with_config, []

class FailingRng:
    def __init__(self, seed):
        self.rng, self.chunks = default_rng(seed), 0

    def standard_normal(self, size=None, out=None):
        self.chunks += 1
        if self.chunks == 40:
            raise ValueError("draw refused")
        return self.rng.standard_normal(size, out=out)

def failing_walk(*args, **kwargs):
    calls.append(None)
    if len(calls) == 4 and case == "walk":
        raise ValueError("walk refused")
    if len(calls) == 4:
        time.sleep(0.2)
        raise KeyboardInterrupt("stopped")
    return walk(*args, **kwargs)

if case == "producer":
    np.random.default_rng = FailingRng
else:
    generate.sample_with_config = failing_walk
threads = threading.active_count()
try:
    sa.simulate_sequences(plan, cfg, grids, n_sequences=4096, master_seed=0)
except (RuntimeError, KeyboardInterrupt) as exc:
    print(type(exc).__name__, exc)
print(threading.active_count() - threads)
np.random.default_rng, generate.sample_with_config = default_rng, walk
batch = sa.simulate_sequences(plan, cfg, grids, n_sequences=5, master_seed=0)
rows = b"".join(sa.batch_to_csv_rows(batch))
os.sched_getaffinity = lambda pid: {0}
print(rows == b"".join(sa.batch_to_csv_rows(batch)))
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""


def _noise_shapes(seed):
    """Random small shapes around the stream's chunk boundaries: a block that
    ends 3 values short of a boundary, one across it, one larger than a
    chunk, one across three chunks and an empty one."""
    chunk = _workers._NOISE_CHUNK
    rng = np.random.default_rng(seed)
    small = [tuple(rng.integers(1, 6, size=rng.integers(1, 4)).tolist())
             for _ in range(5)]
    return [small[0], (chunk - 3 - math.prod(small[0]),), (2, 3), small[1],
            (chunk + 7,), small[2], (2, chunk), small[3], (0, 4), small[4]]


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
        # The batch keeps no copy of T(k): it walked the grids it was given.
        grids = sa.step_grids(cfg, pol, linear_schedule, 950)
        seq = _one(spec, order, cfg, pol, linear_schedule, seed=1, start_index=950)
        assert tuple(g.step_count for g in grids) == tuple(
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

    def test_missing_schedule_fails_before_any_step(self, setup):
        # A diffusion sampler without a noise schedule is a bad argument, not
        # a failure of AR step 0.
        _, cfg, pol = setup
        with pytest.raises(ValueError, match="^schedule: diffusion samplers need a"):
            sa.step_grids(cfg, pol, None)

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


class TestStepGrids:
    @pytest.mark.parametrize("kind", ["ddim", "euler_flow"])
    @pytest.mark.parametrize("scheduler", [
        sa.StepScheduler(kind="linear", t_early=50, t_late=5, ar_steps=64),
        sa.StepScheduler(kind="cosine", t_early=20, t_late=3, ar_steps=16),
        sa.StepScheduler(kind="two_stage", t_early=9, t_late=4, ar_steps=6),
        sa.constant_scheduler(7, 5),
    ], ids=lambda s: s.kind)
    def test_one_grid_per_distinct_step_count(self, linear_schedule, kind, scheduler):
        # Grids are immutable, so the AR steps with equal T(k) share one; each
        # equals the grid built afresh for its T(k).
        cfg = sa.SamplerConfig(kind)
        grids = sa.step_grids(cfg, scheduler, linear_schedule, 950)
        counts = [sa.steps_at(scheduler, k) for k in range(scheduler.ar_steps)]
        assert len({id(grid) for grid in grids}) == len(set(counts))
        for k, (grid, t_k) in enumerate(zip(grids, counts)):
            assert grid is grids[counts.index(t_k)]
            fresh = (sa.make_diffusion_grid(linear_schedule, t_k, 950)
                     if cfg.domain == sa.DIFFUSION else sa.make_flow_grid(t_k, 1.0))
            assert grid.step_count == t_k
            np.testing.assert_array_equal(grid.points, fresh.points)
            if fresh.levels is None:
                assert grid.levels is None
            else:
                np.testing.assert_array_equal(grid.levels, fresh.levels)


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
        # The joined pieces hold a line seq_id,ar_step,position,dim,value per
        # cell, in cell order, and the values read back exactly.
        order, cfg, pol = setup
        batch = sa.simulate_sequences(sa.conditioning_plan(spec, order), cfg,
                                      sa.step_grids(cfg, pol, linear_schedule, 950),
                                      n_sequences=2, master_seed=1)
        lines = b"".join(sa.batch_to_csv_rows(batch)).decode().splitlines()
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
        batch, expected = _awkward_batch(2)
        assert b"".join(sa.batch_to_csv_rows(batch)).decode() == expected
        assert "-0.0" in expected and "5e-324" in expected and "1e+16" in expected

    @pytest.mark.parametrize("cpus", [1, 2, 3, 8])
    def test_csv_rows_same_at_any_cpu_count(self, monkeypatch, cpus):
        # The sequences are split into one range per CPU, formatted in forked
        # workers; the body is the per-row repr text whatever the split, with
        # the awkward values in every range, and with more CPUs than
        # sequences.
        batch, expected = _awkward_batch(5)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        fds = open_fd_count()
        assert b"".join(sa.batch_to_csv_rows(batch)).decode() == expected
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_fd_count() == fds

    @pytest.mark.parametrize("failing", [1, 2])
    def test_failed_fork_reaps_started_workers(self, monkeypatch, failing):
        # os.fork fails on the worker range given (of 2): the error propagates
        # as itself, any worker already started is reaped, and no temporary
        # file stays open, the one made for the failed fork included.
        batch, _ = _awkward_batch(3)
        fork, error, forks = os.fork, OSError(11, "fork refused"), []

        def fork_once():
            forks.append(None)
            if len(forks) == failing:
                raise error
            return fork()

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(os, "fork", fork_once)
        fds = open_fd_count()
        with pytest.raises(OSError) as info:
            sa.batch_to_csv_rows(batch)
        assert info.value is error and len(forks) == failing
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert open_fd_count() == fds

    @pytest.mark.parametrize("failing", [0, 2, 4, 6])
    def test_failed_range_reaps_workers_blocked_on_full_pipes(self, failing):
        # A failure in this process's range (0) or in a worker's (2, 4, 6)
        # while the other workers write more text than any OS buffer holds:
        # every worker must still be reaped, and the failure raised.  It runs
        # in its own session, so a hang is killed whole after the timeout.
        src = str(Path(sa.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen([sys.executable, "-c", _FAILING_RANGE, str(failing)],
                                env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(f"range {failing}: still running after 60 s")
        assert proc.returncode == 0, err
        error, left = out.splitlines()
        if failing:
            assert error == (f"tokens.csv: formatting sequences {failing}-{failing + 1} "
                             "failed in a worker (exit code 1): "
                             "ValueError: formatting refused")
        else:
            assert error == "formatting refused"
        assert left == "no child left"

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


def _old_walk(config, oracle, cond, grid, rng):
    """The executor as a walk ran it before grid-only work was shared: the
    rule listed for this walk alone, the oracle's table built for this walk
    alone, each transition read field by field and the update summed in one
    expression.  Returns the final state and every recorded state, rotated
    back."""
    diffusion = config.domain == sa.DIFFUSION
    predict = oracle.x0 if diffusion else oracle.velocity
    steps = list(sa.samplers._RULES[config.kind](
        config, grid.levels if diffusion else grid.points))
    eigen = cond.eigen
    root, scale = oracle.affine(cond.spectrum[0], config.domain,
                                [step.at for step in steps])
    x, prev = rng.standard_normal(cond.mean.shape), None
    states = [x]
    for step, row in zip(steps, zip(root.tolist(), scale)):
        pred = predict(x, step.at, eigen, row)
        new = step.c_x * x + step.c_pred * pred
        if step.c_prev:
            new += step.c_prev * prev
        if step.noise_std > 0.0:
            new += step.noise_std * rng.standard_normal(x.shape)
        x, prev = new, pred
        if step.recorded:
            states.append(x)
    vecs = cond.spectrum[1]
    return vecs @ x, [vecs @ state for state in states]


def _old_simulate(spec, order, config, grids, n_sequences, master_seed):
    """``simulate_sequences`` the old way: the factor of the natural-order
    covariance gathered by the permutation, each step's conditional built
    from ``L_kk L_kk^T`` with its own ``eigh`` and walked with its own
    table, and each group scattered into place as it is drawn.  Returns the
    values and every step's recorded states."""
    perm = list(order.permutation)
    factor = np.linalg.cholesky(sa.joint_covariance(spec)[np.ix_(perm, perm)])
    mean_field = spec.mean_field[perm]
    rng = np.random.default_rng([master_seed, n_sequences])
    n, d = spec.token_count, spec.token_dim
    values = np.zeros((n_sequences, n, d))
    whitened = np.empty((n, n_sequences, d))
    offsets = np.cumsum((0,) + order.group_sizes)
    paths = []
    for k, (group, grid) in enumerate(zip(order.groups(), grids)):
        a, b = offsets[k], offsets[k + 1]
        block = factor[a:b, a:b]
        cov = block @ block.T
        mean = mean_field[a:b, None] + factor[a:b, :a] @ whitened.reshape(n, -1)[:a]
        cond = sa.ConditionalGaussian(
            group, mean.reshape(b - a, n_sequences, d).transpose(1, 0, 2),
            0.5 * (cov + cov.T))
        sample, states = _old_walk(config, sa.ExactDenoiser(), cond, grid, rng)
        paths.append(states)
        values[:, list(group), :] = sample
        innovation = (sample - cond.mean).transpose(1, 0, 2)
        whitened[a:b] = np.linalg.solve(block, innovation.reshape(b - a, -1)).reshape(
            innovation.shape)
    return values, paths


# (kernel, height, width, order kind, group count): groups of 1; unequal
# groups of 4 and 3 (25 positions in 7 steps); groups of 10; groups of 8.
_FIELDS = [("rbf", 4, 4, "random", 16), ("ar1", 5, 5, "random", 7),
           ("rbf", 6, 5, "raster", 3), ("ar1", 4, 4, "raster", 2)]
_CONFIGS = [sa.SamplerConfig("ddpm"), sa.SamplerConfig("ddim"),
            sa.SamplerConfig("ddim", eta=0.5), sa.SamplerConfig("dpm_solver"),
            sa.SamplerConfig("dpm_solver", order=2), sa.SamplerConfig("dpm_solver_pp"),
            sa.SamplerConfig("euler_flow"), sa.SamplerConfig("euler_maruyama")]


def _field(kernel, height, width, order_kind, group_count):
    spec = sa.TokenProcessSpec(grid_height=height, grid_width=width, kernel=kernel,
                               length_scale=1.6, token_dim=3)
    order = (sa.random_order(spec, group_count, seed=6) if order_kind == "random"
             else sa.raster_order(spec, group_count))
    return spec, order


class TestSampleIndependentWork:
    # The plan's batched spectra, the per-grid transitions, the tables built
    # once per (grid, group size), the covariance gathered in generation
    # order and the one scatter into position order change no byte.
    @pytest.mark.parametrize("field", _FIELDS, ids=lambda f: "-".join(map(str, f)))
    @pytest.mark.parametrize("config", _CONFIGS,
                             ids=lambda c: f"{c.kind}-eta{c.eta}-order{c.order}")
    @pytest.mark.parametrize("record_paths", [False, True])
    def test_simulate_equals_the_old_loop(self, linear_schedule, field, config,
                                          record_paths):
        spec, order = _field(*field)
        scheduler = sa.StepScheduler(kind="linear", t_early=9, t_late=2,
                                     ar_steps=order.step_count)
        grids = sa.step_grids(config, scheduler, linear_schedule, 950)
        batch = sa.simulate_sequences(sa.conditioning_plan(spec, order), config,
                                      grids, n_sequences=3, master_seed=11,
                                      record_paths=record_paths)
        values, paths = _old_simulate(spec, order, config, grids, 3, 11)
        assert batch.values.tobytes() == values.tobytes()
        if not record_paths:
            assert batch.trajectories is None
            return
        assert len(batch.trajectories) == len(paths)
        for record, states in zip(batch.trajectories, paths):
            assert len(record.states) == len(states)
            for got, want in zip(record.states, states):
                assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("field", _FIELDS, ids=lambda f: "-".join(map(str, f)))
    def test_spectra_equal_each_steps_own_eigh(self, field):
        spec, order = _field(*field)
        plan = sa.conditioning_plan(spec, order)
        whitened = np.zeros((spec.token_count, spec.token_dim))
        for k in range(order.step_count):
            block = plan.block(k)
            cov = block @ block.T
            cov = 0.5 * (cov + cov.T)
            lam, vecs = np.linalg.eigh(cov)
            assert np.array_equal(plan.covariance(k), cov)
            got = plan.conditional(k, whitened)
            assert np.array_equal(got.covariance, cov)
            assert np.array_equal(got.spectrum[0], lam)
            assert np.array_equal(got.spectrum[1], vecs)
            assert not got.spectrum[0].flags.writeable

    def test_late_singular_channel_fails_before_any_walk(self, capsys, tmp_path,
                                                         monkeypatch, linear_schedule):
        # Steps 5 and 6 of 8 share one grid (a constant policy) and get a zero
        # eigenvalue: beside 1e13, step 5's channel is singular only at the
        # last call; beside 1e16, step 6's is singular from an earlier row,
        # so the shared table names step 6.  The run still names step 5, the
        # first in generation order, before any walk: no oracle call and no
        # tokens.csv.
        spectra = sa.ConditioningPlan.spectra.func

        def singular(plan):
            out = dict(spectra(plan))
            for k, lam in ((5, [0.0, 1e13]), (6, [0.0, 1e16])):
                cov, _, vecs = out[k]
                out[k] = cov, np.array(lam), vecs
            return out

        monkeypatch.setattr(sa.ConditioningPlan, "spectra", property(singular))
        calls = []

        def counted(method):
            def wrapper(self, *args):
                calls.append(method.__name__)
                return method(self, *args)
            return wrapper

        for name in ("x0", "velocity"):
            monkeypatch.setattr(sa.ExactDenoiser, name,
                                counted(getattr(sa.ExactDenoiser, name)))
        config = tmp_path / "cfg.json"
        out_dir = tmp_path / "out"
        config.write_text(json.dumps({
            "ar_steps": 8, "scheduler_kind": "constant", "t_early": 6,
            "sampler": "ddim", "schedule_kind": "linear", "n_sequences": 2,
            "out_dir": str(out_dir)}))
        code = cli.main(["simulate", "--config", str(config)])
        err = capsys.readouterr().err
        assert code == 1
        assert err == ("error: AR step 5: marginal covariance is singular: "
                       "eigenvalues of s^2 Sigma + sigma^2 I span 1.000e-04 to "
                       "9.999e+12\n")
        assert calls == []
        assert not (out_dir / "tokens.csv").exists()
        # A table of the two cells alone names step 6's row.
        with pytest.raises(sa.NumericalError, match=r"span 7\.732e-01 to 2\.268e\+15$"):
            sa.samplers.walk_rows(sa.SamplerConfig("ddim"), sa.ExactDenoiser(),
                                  np.array([[0.0, 1e13], [0.0, 1e16]]),
                                  sa.make_diffusion_grid(linear_schedule, 6, 950))


class TestNoiseStream:
    @pytest.mark.parametrize("seed", range(5))
    def test_normals_in_pieces_equal_one_draw(self, seed):
        # The property the stream rests on: a Generator's normals drawn in
        # blocks of any shapes are one flat draw of their total size.
        shapes = _noise_shapes(seed)
        rng = np.random.default_rng([seed, 8192])
        pieces = np.concatenate([rng.standard_normal(shape).ravel() for shape in shapes])
        flat = np.random.default_rng([seed, 8192]).standard_normal(pieces.size)
        np.testing.assert_array_equal(pieces, flat)

    @pytest.mark.parametrize("cpus,ahead,threads", [
        (2, True, 1), (3, True, 1), (1, True, 0), (2, False, 0)])
    def test_stream_returns_the_generators_blocks(self, monkeypatch, cpus, ahead,
                                                  threads):
        # The stream hands out exactly the generator's own blocks, drawn
        # ahead in one thread only when asked to and on two or more CPUs.
        # Those blocks are read-only, so a write cannot change a later draw,
        # and no thread outlives the stream.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
        starts = count_thread_starts(monkeypatch)
        alive = threading.active_count()
        for seed in range(3):
            shapes = _noise_shapes(seed)
            rng = np.random.default_rng([seed, 8192])
            expected = [rng.standard_normal(shape) for shape in shapes]
            with _workers.NoiseStream(np.random.default_rng([seed, 8192]),
                                      ahead) as stream:
                for want in expected:
                    got = stream.standard_normal(want.shape)
                    assert got.shape == want.shape
                    np.testing.assert_array_equal(got, want)
                    if threads:
                        with pytest.raises(ValueError, match="read-only"):
                            got[...] = 0.0
            assert threading.active_count() == alive
        assert starts == ["stepanneal noise"] * (3 * threads)

    @pytest.mark.parametrize("case,error", [
        ("producer", r"RuntimeError AR step \d+: draw refused"),
        ("walk", "RuntimeError AR step 3: walk refused"),
        ("stopped", "KeyboardInterrupt stopped")])
    def test_failure_leaves_no_thread(self, case, error):
        # The thread's own failure, a walk's and a caller that stops reading:
        # each raises, the thread is joined, and the next run's tokens.csv
        # forks and reaps on 2 CPUs as before.  It runs in its own session,
        # so a hang is killed whole after the timeout.
        src = str(Path(sa.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.Popen([sys.executable, "-c", _FAILING_NOISE, case],
                                env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(f"{case}: still running after 60 s")
        assert proc.returncode == 0, err
        raised, threads, same, left = out.splitlines()
        assert re.fullmatch(error, raised), raised
        assert (threads, same, left) == ("0", "True", "no child left")

    def test_thread_failure_raises_at_every_later_draw(self, monkeypatch):
        # The draw that needs the failed chunk raises the thread's error, and
        # so does every later draw, rather than wait on a thread that has
        # ended.  The reader runs in a thread of its own, so a wait fails the
        # test instead of hanging it.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        chunk, rng = _workers._NOISE_CHUNK, np.random.default_rng(0)
        fills, seen = [], []

        class FailingRng:
            def standard_normal(self, size=None, out=None):
                fills.append(None)
                if len(fills) == 2:
                    raise ValueError("draw refused")
                return rng.standard_normal(size, out=out)

        def read():
            with _workers.NoiseStream(FailingRng(), True) as stream:
                seen.append(stream.standard_normal((chunk,)))
                for _ in range(2):
                    try:
                        stream.standard_normal((1,))
                    except ValueError as exc:
                        seen.append(exc)

        reader = threading.Thread(target=read, daemon=True)
        reader.start()
        reader.join(timeout=30)
        assert not reader.is_alive()
        np.testing.assert_array_equal(seen[0],
                                      np.random.default_rng(0).standard_normal(chunk))
        assert [str(exc) for exc in seen[1:]] == ["draw refused"] * 2
