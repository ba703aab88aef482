# The four path mappings that turn free diffusion input into queue dynamics.
#
# Each solver takes a deterministic input path y and returns the constrained
# path x (plus a regulator when one exists). They form a ladder: an Euler
# scheme for the finite-n drift equation, the one-sided reflection at zero,
# a renewal-kernel convolution equation, and the fixed-point combination of
# kernel and nonlinear drift.

import numpy as np

from httq import (
    DistributionSpec,
    compute_renewal_function,
    linear_path,
    solve_phi_M,
    solve_phi_Mg,
    solve_phi_n_g,
    solve_skorokhod_g,
    uniform_grid,
)

grid = uniform_grid(4.0, 0.005)
# a V-shaped input: dives to -1.5 by t=2, climbs back to +0.5 by t=4
y = linear_path(np.array([0.0, 2.0, 4.0]), np.array([0.0, -1.5, 0.5]), 4.0)
g = lambda x: 0.8 * x  # abandonment drain, proportional to the queue

# phi_n_g: drift mu_n * x^- - g(x^+); idle capacity pushes up at rate mu_n.
sol = solve_phi_n_g(y, g, mu_n=4.0, grid=grid)
print(f"phi_n_g     : x(2) = {float(sol.x(2.0)):+.4f}  x(4) = {float(sol.x(4.0)):+.4f}  "
      f"residual {sol.residual:.1e}")

# skorokhod_g: hard reflection, x >= 0 with minimal push ell.
sol = solve_skorokhod_g(y, g, grid)
print(f"skorokhod_g : x(2) = {float(sol.x(2.0)):+.4f}  ell(4) = {float(sol.ell(4.0)):.4f}  "
      f"min x = {float(np.min(sol.x.sampled(grid))):.4f}")
assert float(np.min(sol.x.sampled(grid))) >= 0.0

# phi_M: the memory version, x = y + int x^-(t-s) dM(s); idle capacity is
# recycled through the service renewal kernel instead of instantaneously.
table = compute_renewal_function(DistributionSpec.exponential(1.0), 4.0, step=0.005)
sol = solve_phi_M(y, table, grid)
print(f"phi_M       : x(2) = {float(sol.x(2.0)):+.4f}  x(4) = {float(sol.x(4.0)):+.4f}  "
      f"residual {sol.residual:.1e}")

# phi_Mg adds the drain back. One forward pass solves it in blocks of steps
# (sweeps over each block settle the trapezoid's own-step drift term); one
# independent phi_M solve of the answer certifies it: the discrete equation
# must close below tol, or the solve raises.
sol = solve_phi_Mg(y, table, g, grid, g_sign=-1.0)
d = sol.diagnostics
print(f"phi_Mg      : x(2) = {float(sol.x(2.0)):+.4f}  x(4) = {float(sol.x(4.0)):+.4f}  "
      f"closure {sol.residual:.1e} < tol 1e-10")
print(f"  kernel gain {d['lambda_M']:.3f}, drift Lipschitz {d['lambda_g']:.3f}, "
      f"guaranteed-contraction window {d['delta_window']:.4f}")

# With no drain and exponential services the kernel map reduces to the
# classical linear equation: constant input -1 gives x(t) = -exp(-t).
flat = linear_path(np.array([0.0, 4.0]), np.array([-1.0, -1.0]), 4.0)
sol = solve_phi_M(flat, table, grid)
ts = np.array([0.5, 1.0, 2.0, 4.0])
print("\nphi_M with y = -1, exp(1) services:")
print("  solved :", np.round(sol.x.sampled(ts), 5))
print("  -e^-t  :", np.round(-np.exp(-ts), 5))
