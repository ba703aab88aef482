# Renewal functions M(t) = E[number of renewals by t] for the service laws.
#
# M drives the service-side limit machinery: its increments weight the
# memory kernel of the critical-scale mapping, and the equilibrium law H_e
# seeds the residual service times of the initially busy servers.

import numpy as np

from httq import DistributionSpec, compute_renewal_function, equilibrium_distribution, make_rng

# Exponential inter-renewals: the count is Poisson, so M(t) = rate * t.
exp_tab = compute_renewal_function(DistributionSpec.exponential(1.0), 10.0)
err = np.max(np.abs(exp_tab.values - exp_tab.times))
print(f"exponential(1): table step {exp_tab.step}, sup |M(t) - t| = {err:.2e}")
print(f"  self-consistency residual of the defining equation: {exp_tab.residual():.2e}")

# Deterministic inter-renewals land on an exact lattice: M is a staircase,
# computed by direct counting rather than quadrature.
det_tab = compute_renewal_function(DistributionSpec.deterministic(0.4), 2.0)
ts = np.array([0.39, 0.4, 0.79, 0.8, 2.0])
print(f"\ndeterministic(0.4) at t={ts}: M = {det_tab.values_on(ts)}")

# Erlang-2 with mean 1: renewals are more regular than Poisson, so M starts
# below t and approaches t - 1/4 (the slope is still the rate).
erl = DistributionSpec.erlang(2, 2.0)
erl_tab = compute_renewal_function(erl, 5.0)
for t in (0.5, 1.0, 5.0):
    print(f"erlang(2,2): M({t}) = {float(erl_tab.values_on(np.array([t]))[0]):.5f}"
          f"   (t - 1/4 = {t - 0.25:.2f})")

# Sanity against brute force: simulate renewal sequences and count.
rng = make_rng(2, 0, "scratch")
draws = erl.sample(rng, (50_000, 12)).cumsum(axis=1)
mc = np.mean(np.sum(draws <= 2.0, axis=1))
print(f"  Monte-Carlo M(2.0) from 5e4 paths: {mc:.4f} "
      f"vs table {float(erl_tab.values_on(np.array([2.0]))[0]):.4f}")

# The equilibrium distribution H_e: stationary residual of a renewal
# process. Exponential is memoryless (H_e = H); deterministic spreads
# uniformly over one period.
he_exp = equilibrium_distribution(DistributionSpec.exponential(2.0))
he_det = equilibrium_distribution(DistributionSpec.deterministic(2.0))
xs = np.array([0.25, 0.5, 1.0])
print(f"\nH_e for exp(2) at {xs}:  {np.round(he_exp.cdf(xs), 4)} (= 1 - e^-2x)")
print(f"H_e for det(2) at {xs}:  {np.round(he_det.cdf(xs), 4)} (= x/2 up to 2)")
