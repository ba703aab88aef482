# One replication of an M/M/n+M system in heavy traffic, inspected end to end.
#
# We build a 100-server system staffed just below its offered load
# (beta = -1 puts the arrival rate at n*mu*(1 - 1/sqrt(n))), run the exact
# event-by-event simulation, and then look at the same run through the
# diffusion lens: centered by the server count and shrunk by sqrt(n), the
# head count becomes an O(1) path whose queue part is tracked by the
# abandonment count and by the scaled virtual waiting time.

import numpy as np

from httq import (
    DistributionSpec,
    PatienceSpec,
    SystemConfig,
    gap_statistics,
    scale,
    simulate,
)

config = SystemConfig(
    n=100,
    alpha=1.0,                      # servers = n: the critically staffed regime
    mu=1.0,
    beta=-1.0,
    arrival=DistributionSpec.exponential(1.0),
    service=DistributionSpec.exponential(1.0),
    patience=PatienceSpec(mode="no_scaling",
                          distribution=DistributionSpec.exponential(0.5)),
    horizon=20.0,
)
print(f"servers={config.servers}  lambda_n={config.lambda_n:.2f}  "
      f"mu_n={config.mu_n:.2f}  X(0)={config.initial_head_count()}")

record = simulate(config, seed=7)

# The event log is exact: every arrival, service start/end, and abandonment
# with its customer id. Aggregate counts first.
served = int(np.sum(record.outcomes == 0))
abandoned = int(np.sum(record.outcomes == 1))
print(f"customers={record.customers}  served={served}  abandoned={abandoned}")
print(f"E(T)={record.E(20.0):.0f}  S(T)={record.S(20.0):.0f}  "
      f"G(T)={record.G(20.0):.0f}  X(T)={record.X(20.0):.0f}")

# Internal consistency: X(t) - X(0) = E(t) - S(t) - G(t) at every event time.
print(f"balance gap: {record.balance_gap():.1e}")

# Now the diffusion view. scale() centers and normalizes every process and
# attaches the abandonment compensator built from the patience law's limit
# function f (here f(x) = 0.5 x, so the compensator is mu * int f(Q/mu)).
bundle = scale(record)                      # default: 200 uniform grid steps
every = bundle.grid.size // 4
print("\n t     X~        Q~        omega~")
for t, x, q, w in zip(bundle.grid[::every], bundle.X.sampled(bundle.grid[::every]),
                      bundle.Q.sampled(bundle.grid[::every]), bundle.omega[::every]):
    print(f"{t:4.0f}  {x:8.3f}  {q:8.3f}  {w:8.3f}")

# The three closeness statistics the theory says vanish as n grows:
#   coupling_gap  sup |G~ - mu int f(Q~/mu)|   (abandonment tracks the queue)
#   little_gap    sup |mu omega~ - Q~|          (waits track the queue)
#   neg_part_sup  sup (X~)^-                    (no mass below the server line
#                                                at diffusion scale, case i)
for name, value in gap_statistics(bundle).items():
    print(f"{name:13s} {value:.4f}")
