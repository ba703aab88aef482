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
    compute_renewal_function,
    covariance_S,
    linear_path,
    sample_case_i_paths,
    sample_case_ii_paths,
    sample_noise,
    solve_limit_case_i,
    solve_limit_case_ii,
    uniform_grid,
)

mu, beta, theta, ca2 = 1.0, -0.5, 1.0, 1.0
f = lambda x: theta * x
grid = uniform_grid(8.0, 0.01)
H = DistributionSpec.exponential(mu)
table = compute_renewal_function(H, 8.0, step=0.01)

# One labelled draw per case, from purpose-separated random streams.
noise_i = sample_noise("i", mu, ca2, grid, seed=5)
sol_i = solve_limit_case_i(0.5, noise_i.E, noise_i.S, beta, mu, f, grid)
print(f"case i : X(8) = {float(sol_i.x(8.0)):+.3f}  regulator L(8) = "
      f"{float(sol_i.ell(8.0)):.3f}  min X = {np.min(sol_i.x.sampled(grid)):.3f}")

noise_ii = sample_noise("ii", mu, ca2, grid, seed=5, M=table)
sol_ii = solve_limit_case_ii(0.5, noise_ii.E, noise_ii.S, beta, mu, f, table, grid)
print(f"case ii: X(8) = {float(sol_ii.x(8.0)):+.3f}  quadrature defect "
      f"{sol_ii.residual:.1e}  (no regulator: {sol_ii.ell})")

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
flat = linear_path(grid, np.zeros(grid.size), 8.0)
sol = solve_limit_case_i(0.0, flat, flat, beta, mu, lambda x: 0.0 * x, grid)
print(f"\nnoise-free case i, f=0: L(8) = {float(sol.ell(8.0)):.4f} "
      f"(exact {-beta * mu * 8.0:.4f})")
