"""The synthetic token field and its closed-form denoiser.

The token process is a joint Gaussian over a 4x4 grid, so every next-token
conditional, score, noise-prediction and velocity is available exactly.
This script shows conditionals tightening as tokens accumulate and checks
the parameterization identities numerically.
"""

import numpy as np

import stepanneal as sa

spec = sa.TokenProcessSpec()
cov = sa.joint_covariance(spec)
print(f"field: {spec.grid_height}x{spec.grid_width} grid, rbf kernel, "
      f"length scale {spec.length_scale}, neighbour correlation "
      f"{cov[0, 1]:.3f}")

print("\n=== Conditionals tighten as tokens are observed ===")
rng = np.random.default_rng(0)
reference = sa.sample_conditional(
    sa.conditional(spec, [], list(range(16))), rng)[0]
target = [15]
for n_obs in (0, 2, 5, 9, 14):
    observed = [(p, reference[p]) for p in range(n_obs)]
    cond = sa.conditional(spec, observed, target)
    print(f"observed {n_obs:2d} tokens -> target variance "
          f"{cond.covariance[0, 0]:.5f}")

print("\n=== One linear solve, three denoiser parameterizations ===")
cond = sa.conditional(spec, [(0, reference[0]), (5, reference[5])], [10, 12])
x = rng.standard_normal((2, 4))
oracle = sa.ExactDenoiser()
a = 0.5
score = oracle.score(x, a, cond)
eps = oracle.epsilon(x, a, cond)
print("eps == -sqrt(1-a) * score:",
      np.allclose(eps, -np.sqrt(1 - a) * score, atol=1e-12))

t = 0.3
v = oracle.velocity(x, t, cond)
fscore = oracle.flow_score(x, t, cond)
print("(1-t) v == -(x + t * score):",
      np.allclose((1 - t) * v, -(x + t * fscore), atol=1e-9))

print("\n=== Score equals the finite-difference log-density gradient ===")
mat = a * cond.covariance + (1 - a) * np.eye(2)
mean = np.sqrt(a) * cond.mean
h = 1e-4
fd = np.zeros_like(x)
for i in range(2):
    for j in range(4):
        up, dn = x.copy(), x.copy()
        up[i, j] += h
        dn[i, j] -= h
        du, dd = up[:, j] - mean[:, j], dn[:, j] - mean[:, j]
        fd[i, j] = (-0.5 * du @ np.linalg.solve(mat, du)
                    + 0.5 * dd @ np.linalg.solve(mat, dd)) / (2 * h)
rel = np.max(np.abs(score - fd)) / np.max(np.abs(fd))
print(f"max relative error: {rel:.2e}")
