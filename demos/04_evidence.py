"""Why late AR steps need fewer diffusion steps: three lines of evidence.

Averaged over random generation orders, later autoregressive steps show
(1) smaller Bayes-predictor error, (2) lower variance across repeated
next-token draws, and (3) straighter denoising paths (mean cosine between
the score and the direction to the clean token closer to 1).
"""

import numpy as np

import stepanneal as sa

spec = sa.TokenProcessSpec()
schedule = sa.build_linear_beta()
sampler = sa.SamplerConfig(kind="ddpm")
policy = sa.constant_scheduler(50, 16)
grids = sa.step_grids(sampler, policy, schedule, start_index=950)
plans = [sa.conditioning_plan(spec, sa.random_order(spec, 16, seed=s))
         for s in range(32)]

# The Bayes predictor's expected squared error is the exact conditional
# variance per dimension, tr(Sigma_k) / m_k.
probe = np.mean([sa.exact_variance(plan) for plan in plans], axis=0)

variance = np.zeros(16)
for i, plan in enumerate(plans):
    draws_var = sa.sampling_variance(plan, sampler, grids, 100, (1000 + i, 2000 + i))
    variance += draws_var.mean(axis=1)
variance /= len(plans)

straight = np.zeros(16)
rng = np.random.default_rng(0)
for i, plan in enumerate(plans):
    batch = sa.simulate_sequences(plan, sampler, grids,
                                  n_sequences=16, master_seed=500 + i,
                                  record_paths=True)
    straight += sa.straightness_by_step(batch, 64, rng)
straight /= len(plans)

print("AR step | Bayes-predictor MSE | sampling variance | path straightness")
for k in range(16):
    print(f"{k:7d} | {probe[k]:19.4f} | {variance[k]:17.4f} | "
          f"{straight[k]:17.4f}")

steps = np.arange(16)
print(f"\nSpearman(step, predictor MSE)  = {sa.spearman(steps, probe):+.3f}")
print(f"Spearman(step, variance)       = {sa.spearman(steps, variance):+.3f}")
print(f"Spearman(step, straightness)   = {sa.spearman(steps, straight):+.3f}")
print("\nPredictability rises, variance falls, and paths straighten as the")
print("prefix grows: exactly the regime where fewer denoising steps suffice.")
