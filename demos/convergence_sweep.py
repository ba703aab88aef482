# Watching the diffusion approximation take hold as n grows.
#
# A sweep runs the same system at several sizes with matched statistics per
# replication, then summarizes three gaps that the theory sends to zero and
# the Kolmogorov-Smirnov distance between the simulated terminal marginal
# and draws from the corresponding limit process.

import json
from pathlib import Path

import numpy as np

from httq import (
    DistributionSpec,
    PatienceSpec,
    SystemConfig,
    compare_abandonment,
    convergence_sweep,
)

config = SystemConfig(
    n=25, alpha=1.0, mu=1.0, beta=-1.0,
    arrival=DistributionSpec.exponential(1.0),
    service=DistributionSpec.exponential(1.0),
    patience=PatienceSpec(mode="no_scaling",
                          distribution=DistributionSpec.exponential(1.0)),
    horizon=8.0,
)

# KS between two m-sample sets has a ~1.36*sqrt(2/m) noise floor, so the
# replication count is what sharpens the distributional comparison
report = convergence_sweep(config, n_values=[25, 100, 400],
                           replications=400, checkpoints=(4.0, 8.0), seed=9)

print(f"limit case: {report.limit_case!r}   "
      f"(alpha = 1 pairs with the renewal-Gaussian limit)")
print("\nmedian gap statistics per n:")
print("  n      coupling   little    neg-part")
for n in report.n_values:
    row = [report.summaries[s][n]["median"]
           for s in ("coupling_gap", "little_gap", "neg_part_sup")]
    print(f"  {n:<5}  {row[0]:.4f}     {row[1]:.4f}    {row[2]:.4f}")

print("\nKS distance to the limit marginal:")
for n in report.n_values:
    print(f"  n={n:<5} " + "  ".join(f"t={t:g}: {report.ks[n][t]:.3f}"
                                     for t in (4.0, 8.0)))

# neg_part_sup is the case-i diagnostic: it vanishes only when alpha < 1.
# Here (alpha = 1) the limit itself dips below the server line, so the
# statistic settles at that limit level instead of shrinking.
print("\ntrend verdicts (smallest n vs largest):")
for name, verdict in report.verdicts.items():
    print(f"  {name:12s} {verdict}")

# Reports are plain dicts for post-processing; `httq sweep` writes the same
# report as report.json, plus report.csv, beside a schema.json.
Path("sweep_report.json").write_text(json.dumps(report.as_dict(), indent=2))
print("\nwrote sweep_report.json in the current directory")

# The same harness checks the pathwise ordering behind the approximation:
# under common random numbers, switching abandonment off can only lengthen
# the queue, at every event time.
res = compare_abandonment(config, seed=3)
print(f"\nabandonment-off comparison: holds={res.holds} over "
      f"{res.n_checked} event times, max queue excess {res.max_queue_excess:.1f}")
