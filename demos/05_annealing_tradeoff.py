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
rows, summaries = sa.quality_sweep(
    sa.conditioning_plan(spec, order), ddim,
    [(p, sa.step_grids(ddim, p, schedule, start_index=950)) for p in policies],
    (100, 200), draws_per_step=512)

print(f"{'policy':16s} {'NFE':>6s} {'agg W2':>8s} {'step-0 W2':>10s} "
      f"{'step-15 W2':>11s}")
step0 = {r.label: r.w2 for r in rows if r.ar_step == 0}
step15 = {r.label: r.w2 for r in rows if r.ar_step == 15}
for s in summaries:
    print(f"{s.label:16s} {s.total_nfe:>6d} {s.aggregate_w2:>8.4f} "
          f"{step0[s.label]:>10.4f} {step15[s.label]:>11.4f}")
print(f"{'(MC floor)':16s} {'':>6s} {summaries[0].mean_floor:>8.4f}")

base = summaries[0]
for s in summaries[1:]:
    saved = 1 - s.total_nfe / base.total_nfe
    rel = (s.aggregate_w2 - base.aggregate_w2) / base.aggregate_w2
    print(f"{s.label}: {saved:.0%} fewer calls, aggregate W2 {rel:+.0%} "
          f"vs constant 50")
print("\nSmooth late-stage annealing (linear, cosine) trades a modest quality")
print("gap for a large step saving; the abrupt two-stage switch pays more at")
print("its midpoint, and spending the budget early-light (constant 5 or")
print("reversed) hurts exactly where the conditionals are loosest (step 0).")
