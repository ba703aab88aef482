"""Finite-n statistics probing the limit relationships.

Three nonnegative path statistics are tracked per replication:

    coupling_gap  sup_t |Gt(t) - mu int_0^t f(Qt(s)/mu) ds|
    little_gap    sup_t |mu wt(t) - Qt(t)|      (over the sampling grid)
    neg_part_sup  sup_t (Xt(t))^-

Each reads only the scaled bundle and returns a float.  The virtual waits
are exact even where they end beyond the horizon, so little_gap takes every
grid point.

All three should shrink as n grows whenever the modeling assumptions
hold; `convergence_sweep` runs the n-sweep that turns "vanishes in the
limit" into a measurable decreasing trend, and compares the simulated
marginals Xt(t*) against equal-count samples of the limit law via the
exact two-sample Kolmogorov-Smirnov statistic.

`compare_abandonment` replays one configuration with abandonment on and
off under common random numbers and checks the pathwise queue-length
domination Q(t) <= Q_0(t).  A violation is a simulator-correctness alarm,
never an expected outcome, so the verdict carries a counterexample dump.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .distributions import check_count, check_number
from .limits import sample_case_i_paths, sample_case_ii_paths
from .paths import MAX_CELLS, uniform_grid
from .renewal import compute_renewal_function
from .scaling import ScaledBundle, scale
from .simulator import SystemConfig, simulate

__all__ = [
    "GAP_NAMES",
    "ComparisonVerdict",
    "ConvergenceReport",
    "coupling_gap",
    "little_gap",
    "neg_part_sup",
    "gap_statistics",
    "compare_abandonment",
    "ks_two_sample",
    "convergence_sweep",
    "resolve_checkpoints",
    "verdict_names",
]

GAP_NAMES = ("coupling_gap", "little_gap", "neg_part_sup")


def coupling_gap(bundle: ScaledBundle) -> float:
    """Exact sup of |Gt - compensator| over the union of breakpoints.

    Gt is a step path and the bundle's compensator is piecewise linear, so
    the sup over each segment is attained at a breakpoint or a pre-jump
    left limit.  That sup is the larger of the sups over the compensator's
    knots and over Gt's breakpoints, so no union is built.  Gt jumps only at
    its breakpoints, so its left limits are needed there alone, where the
    compensator is interpolated; at the knots, Gt is read through the ranks
    of its few breakpoints among them.
    """
    comp = bundle.compensator
    g = bundle.G
    knots, c = comp.times, comp.values
    # Gt's index at each knot: the number of its breakpoints <= the knot, less one
    at = np.cumsum(np.bincount(np.searchsorted(knots, g.times),
                               minlength=knots.size + 1)[:-1]) - 1
    g_left = np.append(g.values[:1], g.values[:-1])
    c_g = comp.sampled(g.times)
    return float(max(np.abs(g.values[at] - c).max(), np.abs(g.values - c_g).max(),
                     np.abs(g_left - c_g).max()))


def little_gap(bundle: ScaledBundle) -> float:
    """sup over the sampling grid of |mu wt - Qt|.

    Grid-sup, hence a lower bound on the true sup.
    """
    gap = np.abs(bundle.mu * bundle.omega - bundle.Q.sampled(bundle.grid))
    return float(gap.max())


def neg_part_sup(bundle: ScaledBundle) -> float:
    """Exact sup of (Xt)^- over the event breakpoints."""
    return bundle.X.neg_part().sup_norm()


def gap_statistics(bundle: ScaledBundle) -> dict[str, float]:
    """The gap statistics of one bundle keyed by name, each finite and >= 0
    or a ValueError.  Each is called by its module name, wrappers included."""
    stats = {"coupling_gap": coupling_gap(bundle),
             "little_gap": little_gap(bundle),
             "neg_part_sup": neg_part_sup(bundle)}
    for name, value in stats.items():
        if not (math.isfinite(value) and value >= 0.0):
            raise ValueError(f"{name} must be finite and >= 0, got {value}")
    return stats


# ---------------------------------------------------------------------------
# pathwise comparison against the no-abandonment benchmark


@dataclass(frozen=True)
class ComparisonVerdict:
    """Outcome of one common-random-numbers domination check."""

    holds: bool
    n_checked: int
    max_queue_excess: float
    first_violation: tuple[float, float, float] | None
    detail: str = ""


def compare_abandonment(config: SystemConfig, seed: int, replication: int = 0) -> ComparisonVerdict:
    """Check Q(t) <= Q_0(t) pathwise against the benchmark without abandonment.

    Both systems consume identical arrival, service and patience streams;
    the benchmark simply never removes waiting customers.  The queue
    lengths are compared at every event time of either record.  With
    abandonment already off the two runs coincide and the verdict holds
    with equality.  A failed verdict is a correctness alarm and carries
    a counterexample dump.
    """
    rec_ab = simulate(config, seed, replication)
    rec_0 = simulate(dataclasses.replace(config, abandon=False), seed, replication)
    ts = np.union1d(rec_ab.X.times, rec_0.X.times)
    q_ab = rec_ab.Q.sampled(ts)
    q_0 = rec_0.Q.sampled(ts)
    excess = q_ab - q_0
    worst = float(np.max(excess))
    bad = np.flatnonzero(excess > 1e-9)
    if bad.size == 0:
        return ComparisonVerdict(True, ts.size, worst, None)
    i = int(bad[0])
    t = float(ts[i])
    detail = (
        f"queue domination violated at t={t!r}: "
        f"Q={q_ab[i]:.0f} > Q_0={q_0[i]:.0f}\n"
        f"config hash={config.hash()} seed={seed} replication={replication}\n"
        f"n={config.n} servers={config.servers} lambda_n={config.lambda_n!r} "
        f"mu_n={config.mu_n!r}\n"
        f"violations at {bad.size} of {ts.size} event times, max excess {worst:.0f}"
    )
    return ComparisonVerdict(False, ts.size, worst, (t, float(q_ab[i]), float(q_0[i])), detail)


# ---------------------------------------------------------------------------
# two-sample KS


def ks_two_sample(a, b) -> float:
    """Classical two-sample Kolmogorov-Smirnov statistic, exact.

    Both empirical cdfs are evaluated at every pooled sample point; ties
    across and within samples are handled by right-continuous counting.
    """
    a = np.sort(np.asarray(a, dtype=float).ravel())
    b = np.sort(np.asarray(b, dtype=float).ravel())
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate((a, b))
    fa = np.searchsorted(a, pooled, side="right") / a.size
    fb = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(fa - fb)))


# ---------------------------------------------------------------------------
# the n-sweep


@dataclass(frozen=True)
class ConvergenceReport:
    """Everything one n-sweep measured, with seeds for reproducibility.

    `gaps[name][n]` holds the per-replication values; `summaries` their
    medians and interquartile ranges; `ks[n][t*]` the two-sample KS
    statistic of the simulated marginal Xt^n(t*) against `replications`
    samples of the limit marginal.  Verdicts compare the median (or KS)
    at the largest n against the smallest n.
    """

    n_values: tuple[int, ...]
    replications: int
    seed: int
    checkpoints: tuple[float, ...]
    config: dict
    limit_case: str
    gaps: dict
    summaries: dict
    ks: dict
    verdicts: dict

    def as_dict(self) -> dict:
        return {
            "n_values": list(self.n_values),
            "replications": self.replications,
            "seed": self.seed,
            "checkpoints": list(self.checkpoints),
            "config": self.config,
            "limit_case": self.limit_case,
            "summaries": {
                name: {str(n): dict(s) for n, s in per_n.items()}
                for name, per_n in self.summaries.items()
            },
            "ks": {
                str(n): {f"{t:g}": v for t, v in per_t.items()}
                for n, per_t in self.ks.items()
            },
            "verdicts": dict(self.verdicts),
        }


def _trend(value_smallest: float, value_largest: float) -> str:
    if math.isclose(value_smallest, value_largest, rel_tol=1e-9, abs_tol=1e-12):
        return "flat"
    return "decreasing" if value_largest < value_smallest else "increasing"


def run_jobs(fn, jobs: list, workers: int) -> list:
    """fn(*job) over the jobs, results in job order: on a pool of
    min(workers, job count) processes when that exceeds 1, else in this process."""
    workers = min(workers, len(jobs))
    if workers > 1:
        chunk = max(1, len(jobs) // (4 * workers))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as ex:
            return list(ex.map(fn, *zip(*jobs), chunksize=chunk))
    return [fn(*job) for job in jobs]


def _replication_job(config, seed, rep, grid_points, checkpoints):
    """(gap statistics, marginals Xt(t*)) of one sweep replication."""
    record = simulate(config, seed, rep)
    T = config.horizon
    bundle = scale(record, grid=uniform_grid(T, T / grid_points))
    marg = np.atleast_1d(bundle.X.sampled(np.asarray(checkpoints, dtype=float)))
    return gap_statistics(bundle), marg


def _limit_marginals(config: SystemConfig, checkpoints, reps: int, seed: int):
    """Equal-count samples of the limit marginals at the checkpoints, on the
    step T/1024; at alpha = 1 with deterministic(v) service, on the step T/n,
    n <= 4096, closest to it that divides v and holds the checkpoints, so no
    atom of dM moves (with none, refused before any draw)."""
    T, n = config.horizon, np.arange(1, 4097)
    h = T / 1024.0
    if config.alpha >= 1.0 and config.service.family == "deterministic":
        ratios = np.outer([config.service["value"], *checkpoints], n) / T
        n = n[np.all(np.abs(ratios - np.rint(ratios)) <= 1e-9 * np.maximum(ratios, 1), axis=0)]
        if not n.size:
            raise ValueError(f"no limit grid of at most 4096 steps on [0, {T}] divides the "
                             f"service time {config.service['value']!r} and holds the checkpoints")
        h = T / n[np.argmin(np.abs(1.0 / n - 1.0 / 1024))]
    grid = uniform_grid(T, h)
    idx = []
    for t in checkpoints:
        j = int(round(t / h))
        if j >= grid.size or abs(grid[j] - t) > 1e-9 * max(1.0, T):
            raise ValueError(f"checkpoint {t} does not lie on the limit grid (step {h})")
        idx.append(j)
    args = (config.xi, config.beta, config.mu, config.arrival.scv(), config.limit_function())
    if config.alpha < 1.0:
        return sample_case_i_paths(*args, grid, seed=seed, reps=reps)[:, idx], "i"
    table = compute_renewal_function(config.service, horizon=T, step=h)
    return sample_case_ii_paths(*args, table, grid, seed=seed, reps=reps)[:, idx], "ii"


def resolve_checkpoints(checkpoints, horizon: float) -> tuple[float, ...]:
    """A sweep's checkpoint times: {T/4, T/2, T} by default, distinct, each in (0, T]."""
    if checkpoints is None:
        checkpoints = (horizon / 4.0, horizon / 2.0, horizon)
    if np.ndim(checkpoints) != 1:
        raise ValueError(f"checkpoints must be a list of times, got {checkpoints!r}")
    checkpoints = tuple(check_number(t, "checkpoint") for t in checkpoints)
    if len(set(checkpoints)) < len(checkpoints):
        raise ValueError(f"checkpoints must be distinct, got {list(checkpoints)}")
    for t in checkpoints:
        if not 0.0 < t <= horizon + 1e-9:
            raise ValueError(f"checkpoint {t} outside (0, horizon]")
    return checkpoints


def check_sweep_sizes(n_values, replications: int,
                      grid_points: int) -> tuple[tuple[int, ...], int, int]:
    """A sweep's n values, replication count and grid points under the count
    rule: a nonempty list of distinct positive counts, a count >= 1, and a
    count in [1, MAX_CELLS]."""
    if np.ndim(n_values) != 1 or len(n_values) == 0:
        raise ValueError(f"n values must be a nonempty list of positive integers, "
                         f"got {n_values!r}")
    ns = tuple(check_count(n, "n_values entry") for n in n_values)
    if len(set(ns)) < len(ns):
        raise ValueError(f"n values must be distinct, got {list(ns)}")
    reps, points = check_count(replications, "replications"), check_count(grid_points, "grid_points")
    if points > MAX_CELLS:
        raise ValueError(f"grid_points must be at most {MAX_CELLS}, got {points}")
    return ns, reps, points


def verdict_names(checkpoints) -> tuple[str, ...]:
    """The statistics a sweep over these checkpoints gives a trend verdict."""
    return GAP_NAMES + tuple(f"ks@{t:g}" for t in checkpoints)


def convergence_sweep(config: SystemConfig, n_values, replications: int,
                      checkpoints=None, seed: int = 0, grid_points: int = 256,
                      workers: int = 1) -> ConvergenceReport:
    """Run the n-sweep that measures every vanishing statistic.

    For each n the base configuration is rebuilt (servers, rates and the
    initial state all rescale), `replications` independent replications
    are simulated, and the three gap statistics plus the marginals
    Xt^n(t*) are collected.  The limit marginals come from the matching
    limit equation: the reflected one below alpha = 1, the renewal-noise
    one at alpha = 1.  Checkpoints default to {T/4, T/2, T}; early times
    are dominated by the initial condition.

    Replications are independent jobs (set `workers` > 1 to fan them out
    over processes); aggregation is deterministic in replication order.
    """
    n_values, replications, grid_points = check_sweep_sizes(n_values, replications, grid_points)
    T = config.horizon
    checkpoints = resolve_checkpoints(checkpoints, T)

    # Rebuilding at each n revalidates the regime pairing up front.
    unique_n = sorted(n_values)
    configs = {n: dataclasses.replace(config, n=n) for n in unique_n}

    lim_marg, case = _limit_marginals(config, checkpoints, replications, seed)

    jobs = [(configs[n], seed, r, grid_points, checkpoints)
            for n in unique_n for r in range(replications)]
    out = run_jobs(_replication_job, jobs, workers)

    gaps = {name: {} for name in GAP_NAMES}
    ks = {}
    pos = 0
    for n in unique_n:
        rows = out[pos:pos + replications]
        pos += replications
        for name in GAP_NAMES:
            gaps[name][n] = np.array([stats[name] for stats, _ in rows])
        marg = np.vstack([m for _, m in rows])
        ks[n] = {t: ks_two_sample(marg[:, k], lim_marg[:, k])
                 for k, t in enumerate(checkpoints)}

    summaries = {
        name: {
            n: {
                "median": float(np.median(vals)),
                "iqr": float(np.percentile(vals, 75) - np.percentile(vals, 25)),
            }
            for n, vals in per_n.items()
        }
        for name, per_n in gaps.items()
    }

    n_lo, n_hi = min(n_values), max(n_values)
    verdicts = {}
    for name in GAP_NAMES:
        verdicts[name] = _trend(summaries[name][n_lo]["median"],
                                summaries[name][n_hi]["median"])
    for t in checkpoints:
        verdicts[f"ks@{t:g}"] = _trend(ks[n_lo][t], ks[n_hi][t])

    try:
        cfg_doc = config.to_dict()
    except (TypeError, ValueError):
        cfg_doc = {"repr": repr(config)}

    return ConvergenceReport(
        n_values=n_values, replications=replications, seed=seed,
        checkpoints=checkpoints, config=cfg_doc, limit_case=case,
        gaps=gaps, summaries=summaries, ks=ks, verdicts=verdicts,
    )
