"""Many-server queues with abandonment: exact event simulation, diffusion
scalings, regulator mappings, limit processes, and the finite-n statistics
that tie them together."""

from .distributions import DistributionSpec
from .limits import (
    LimitModel,
    NoiseSample,
    covariance_S,
    sample_brownian,
    sample_case_i_paths,
    sample_case_ii_paths,
    sample_noise,
)
from .maps import (
    MappingSolution,
    solve_phi_M,
    solve_phi_Mg,
    solve_phi_n_g,
    solve_skorokhod_g,
)
from .paths import CadlagPath, counting_path, linear_path, step_path, uniform_grid
from .patience import PatienceSpec, constant_hazard, power_limit, ramp_hazard
from .renewal import (
    EquilibriumDistribution,
    RenewalTable,
    compute_renewal_function,
    equilibrium_distribution,
)
from .scaling import ScaledBundle, abandonment_compensator, scale, scaled_primitives
from .simulator import (
    OUTCOME_ABANDONED,
    OUTCOME_IN_SERVICE,
    OUTCOME_SERVED,
    OUTCOME_WAITING,
    SimRecord,
    SystemConfig,
    simulate,
    virtual_wait_path,
)
from .streams import make_rng
from .validation import (
    ComparisonVerdict,
    ConvergenceReport,
    compare_abandonment,
    convergence_sweep,
    coupling_gap,
    gap_statistics,
    ks_two_sample,
    little_gap,
    neg_part_sup,
)

__version__ = "0.1.0"

__all__ = [
    "CadlagPath",
    "ComparisonVerdict",
    "ConvergenceReport",
    "DistributionSpec",
    "EquilibriumDistribution",
    "LimitModel",
    "MappingSolution",
    "NoiseSample",
    "OUTCOME_ABANDONED",
    "OUTCOME_IN_SERVICE",
    "OUTCOME_SERVED",
    "OUTCOME_WAITING",
    "PatienceSpec",
    "RenewalTable",
    "ScaledBundle",
    "SimRecord",
    "SystemConfig",
    "abandonment_compensator",
    "compare_abandonment",
    "compute_renewal_function",
    "constant_hazard",
    "convergence_sweep",
    "counting_path",
    "coupling_gap",
    "covariance_S",
    "equilibrium_distribution",
    "gap_statistics",
    "ks_two_sample",
    "linear_path",
    "little_gap",
    "make_rng",
    "neg_part_sup",
    "power_limit",
    "ramp_hazard",
    "sample_brownian",
    "sample_case_i_paths",
    "sample_case_ii_paths",
    "sample_noise",
    "scale",
    "scaled_primitives",
    "simulate",
    "solve_phi_M",
    "solve_phi_Mg",
    "solve_phi_n_g",
    "solve_skorokhod_g",
    "step_path",
    "uniform_grid",
    "virtual_wait_path",
]
