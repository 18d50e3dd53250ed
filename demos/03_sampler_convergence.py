"""Every sampler against exact truth, across step counts.

Because the denoiser is the Bayes-optimal one for a Gaussian conditional,
the output distribution of each sampler can be compared to the exact
conditional with the closed-form Gaussian W2 distance.  The table shows the
convergence of all six sampler families as the step budget grows, with the
Monte Carlo floor (the W2 an exact sampler would score at this draw count)
as the resolution limit.
"""

import numpy as np

import stepanneal as sa

spec = sa.TokenProcessSpec()
rng = np.random.default_rng(0)
obs = [(0, rng.standard_normal(4) * 0.8), (15, rng.standard_normal(4) * 0.8)]
cond = sa.conditional(spec, obs, [5, 6, 10])
schedule = sa.build_linear_beta()
oracle = sa.ExactDenoiser()

configs = [
    ("ddpm", sa.SamplerConfig(kind="ddpm")),
    ("ddim (eta=0)", sa.SamplerConfig(kind="ddim", eta=0.0)),
    ("ddim (eta=1)", sa.SamplerConfig(kind="ddim", eta=1.0)),
    ("dpm-solver-1", sa.SamplerConfig(kind="dpm_solver", order=1)),
    ("dpm-solver-2", sa.SamplerConfig(kind="dpm_solver", order=2)),
    ("dpm-solver++", sa.SamplerConfig(kind="dpm_solver_pp")),
    ("euler (flow)", sa.SamplerConfig(kind="euler_flow")),
    ("euler-maruyama", sa.SamplerConfig(kind="euler_maruyama")),
]
steps_list = (5, 10, 25, 50, 200)
draws = 8000
floor = sa.w2_floor(cond, spec.token_dim, draws, np.random.default_rng(1))
print(f"W2 to exact truth at {draws} draws (floor {floor:.4f})\n")
print(f"{'sampler':16s}" + "".join(f"{s:>9d}" for s in steps_list))
for name, cfg in configs:
    row = f"{name:16s}"
    for i, steps in enumerate(steps_list):
        if cfg.domain == sa.DIFFUSION:
            grid = sa.make_diffusion_grid(schedule, steps, 999)
        else:
            grid = sa.make_flow_grid(steps, 1.0)
        out, _ = sa.sample_with_config(cfg, oracle, cond, grid,
                                       np.random.default_rng([2, i]),
                                       n_samples=draws)
        row += f"{sa.w2_to_truth(out, cond):>9.4f}"
    print(row)

print("\nNotes: ddim eta=1 coincides with the ancestral chain; dpm-solver-1")
print("is identical to ddim eta=0; the order-2 midpoint solver overshoots")
print("on very coarse grids before winning at moderate budgets.")
