"""Noise schedules, reverse-time grids, and the annealing policies.

Walks through the building blocks: the two base noise schedules, how a
sampler's grid subsamples them (including the recommended start offset), and
the four policies that map an autoregressive step k to a diffusion step
count T(k).
"""

import stepanneal as sa

print("=== Base noise schedules (1000 indices) ===")
linear = sa.build_linear_beta()
cosine = sa.build_cosine_alpha_bar()
for name, sched in (("linear-beta", linear), ("cosine-alpha-bar", cosine)):
    ab = sched.alpha_bars
    print(f"{name:18s} alpha_bar[0]={ab[0]:.6f}  [499]={ab[499]:.4f}  "
          f"[999]={ab[999]:.2e}")

print("\n=== Reverse grids walk the schedule top-down to the clean state ===")
for steps in (5, 10, 50):
    grid = sa.make_diffusion_grid(linear, steps, start_index=950)
    pts = grid.points.astype(int)
    head = ", ".join(map(str, pts[:4]))
    print(f"{steps:3d} steps from index 950: [{head}, ..., {pts[-1]}]  "
          f"(denoiser calls: {grid.step_count})")
print("(the last point, -1, is the clean state: signal fraction exactly 1)")
grid = sa.make_flow_grid(4, 1.0)
print(f"flow grid, 4 intervals: {grid.points}")

print("\n=== Step annealing: T(k) per policy (T_early=50, T_late=5, K=16) ===")
policies = [sa.StepScheduler(kind=k, t_early=50, t_late=5, ar_steps=16)
            for k in ("constant", "two_stage", "linear", "cosine")]
header = "k    " + "".join(f"{p.kind:>10s}" for p in policies)
print(header)
for k in range(16):
    row = f"{k:<5d}" + "".join(f"{sa.steps_at(p, k):>10d}" for p in policies)
    print(row)
print("-" * len(header))
totals = "total" + "".join(f"{sa.total_nfe(p):>10d}" for p in policies)
print(totals)
print("\nThe constant column is the un-annealed baseline; the others spend")
print("fewer denoiser calls as generation progresses.")
