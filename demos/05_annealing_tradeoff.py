"""The headline trade-off: anneal late, not early.

Compares annealing policies at matched conditions (shared reference prefix,
shared random draws per AR step): cutting late-stage steps (50 -> 5) keeps
per-step sample quality close to the constant-50 baseline at a large
fraction of the compute, while cutting early-stage steps (constant 5, or
reversed annealing 5 -> 50) visibly degrades the hardest steps.
"""

import stepanneal as sa

spec = sa.TokenProcessSpec()
order = sa.random_order(spec, 16, seed=0)
schedule = sa.build_linear_beta()
ddim = sa.SamplerConfig(kind="ddim", eta=0.0)

policies = [
    sa.constant_scheduler(50, 16),
    sa.StepScheduler(kind="linear", t_early=50, t_late=5, ar_steps=16),
    sa.StepScheduler(kind="two_stage", t_early=50, t_late=5, ar_steps=16),
    sa.StepScheduler(kind="cosine", t_early=50, t_late=5, ar_steps=16),
    sa.constant_scheduler(5, 16),
    sa.StepScheduler(kind="linear", t_early=5, t_late=50, ar_steps=16),
]
labels = [sa.scheduler_label(p) for p in policies]
grids = [sa.step_grids(ddim, p, schedule, start_index=950) for p in policies]
# The sweep takes grids, so an allocation that no rule expresses is swept the
# same way: here 50 steps for the first quarter of the AR steps, 5 after.
labels.append("quarter_50_5")
grids.append([sa.make_diffusion_grid(schedule, 50 if k < 4 else 5, 950)
              for k in range(16)])
w2, nfe, floors, _ = sa.quality_sweep(
    sa.conditioning_plan(spec, order), ddim, grids, (100, 200),
    draws_per_step=512, floor_repeats=8)
total, aggregate = nfe.sum(axis=1), w2.mean(axis=1)

print(f"{'policy':16s} {'NFE':>6s} {'agg W2':>8s} {'step-0 W2':>10s} "
      f"{'step-15 W2':>11s}")
for p, label in enumerate(labels):
    print(f"{label:16s} {total[p]:>6d} {aggregate[p]:>8.4f} "
          f"{w2[p, 0]:>10.4f} {w2[p, 15]:>11.4f}")
print(f"{'(MC floor)':16s} {'':>6s} {floors.mean():>8.4f}")

for p, label in enumerate(labels[1:], start=1):
    saved = 1 - total[p] / total[0]
    rel = (aggregate[p] - aggregate[0]) / aggregate[0]
    print(f"{label}: {saved:.0%} fewer calls, aggregate W2 {rel:+.0%} "
          f"vs constant 50")
print("\nSmooth late-stage annealing (linear, cosine) trades a modest quality")
print("gap for a large step saving; the abrupt two-stage switch pays more at")
print("its midpoint, and spending the budget early-light (constant 5 or")
print("reversed) hurts exactly where the conditionals are loosest (step 0).")
print("Cutting to 5 steps after the first quarter saves most but costs most")
print("among the late cuts: the middle steps still need more than 5.")
