# Drawing sample paths of the two diffusion limits.
#
# The staffing exponent alpha selects the limit geometry. With fewer servers
# than n (alpha < 1) the scaled head count can never go below zero in the
# limit, so the path is a reflected diffusion driven by Brownian noise
# (case "i"). With n servers exactly (alpha = 1) the head count fluctuates
# on both sides of the server line; the service side then contributes a
# non-Markovian Gaussian noise with a renewal-kernel memory (case "ii").

import numpy as np

from httq import (
    DistributionSpec,
    LimitModel,
    compute_renewal_function,
    covariance_S,
    make_rng,
    sample_case_i_paths,
    sample_case_ii_paths,
    uniform_grid,
)

mu, beta, theta, ca2 = 1.0, -0.5, 1.0, 1.0
f = lambda x: theta * x
grid = uniform_grid(8.0, 0.01)
H = DistributionSpec.exponential(mu)
table = compute_renewal_function(H, 8.0, step=0.01)

# One labelled draw per case, from purpose-separated random streams: each
# model draws its noise, builds the equation's input from it and solves it.
model_i = LimitModel("i", mu, ca2, xi=0.5, beta=beta, f=f)
E, S, _ = model_i.noise(grid, [make_rng(5, 0, "limit")], 1)
X, L, _ = model_i.solve(model_i.drive(E, S, grid), grid)
print(f"case i : X(8) = {X[0, -1]:+.3f}  regulator L(8) = "
      f"{L[0, -1]:.3f}  min X = {np.min(X[0]):.3f}")

model_ii = LimitModel("ii", mu, ca2, xi=0.5, beta=beta, f=f, M=table)
E, S, _ = model_ii.noise(grid, [make_rng(5, 0, "limit")], 1)
X, L, diag = model_ii.solve(model_ii.drive(E, S, grid), grid, defects=True)
print(f"case ii: X(8) = {X[0, -1]:+.3f}  quadrature defect "
      f"{diag['residual'][0]:.1e}  (no regulator: {L})")

# The service noise in case ii is Gaussian but not Brownian: for exponential
# services its covariance happens to match Brownian motion's min(s,t), while
# a deterministic service law gives a Brownian-bridge-like structure that
# returns to zero at every service epoch.
det = DistributionSpec.deterministic(1.0)
det_tab = compute_renewal_function(det, 2.0)
print("\nservice-noise variance at t = 0.5, 1.0, 1.5, 2.0:")
print("  exp(1)  :", [round(covariance_S(t, t, table), 4) for t in (0.5, 1.0, 1.5, 2.0)])
print("  det(1)  :", [round(covariance_S(t, t, det_tab), 4) for t in (0.5, 1.0, 1.5, 2.0)])

# Terminal-value statistics from batched draws, the workhorse behind the
# convergence diagnostics.
Xi = sample_case_i_paths(0.0, beta, mu, ca2, f, grid, seed=11, reps=4000)
Xii = sample_case_ii_paths(0.0, beta, mu, ca2, f, table, grid, seed=11, reps=1000)
print(f"\ncase i  terminal mean {Xi[:, -1].mean():+.3f}, sd {Xi[:, -1].std():.3f} "
      f"(4000 draws, reflected at 0)")
print(f"case ii terminal mean {Xii[:, -1].mean():+.3f}, sd {Xii[:, -1].std():.3f} "
      f"(1000 draws, signed)")

# Degenerate inputs recover closed forms: with all noise off and beta < 0,
# case i is pure reflection of a falling line, so L(t) = -beta*mu*t.
flat = np.zeros((1, grid.size))
model = LimitModel("i", mu, beta=beta, f=lambda x: 0.0 * x)
_, L, _ = model.solve(model.drive(flat, flat, grid), grid)
print(f"\nnoise-free case i, f=0: L(8) = {L[0, -1]:.4f} "
      f"(exact {-beta * mu * 8.0:.4f})")
