"""Acceptance gate: eleven pinned end-to-end criteria, one verdict line each.

Every criterion prints ``[criterion NN] label: PASS/FAIL (detail)`` and then
asserts, so a plain ``pytest -v`` run shows one line per criterion either way.
Tolerances and workloads are frozen; seeds are fixed so every run is exact.
"""

import math
import os

import numpy as np
import pytest

from httq import (
    DistributionSpec,
    PatienceSpec,
    SystemConfig,
    compare_abandonment,
    compute_renewal_function,
    convergence_sweep,
    covariance_S,
    linear_path,
    make_rng,
    sample_brownian,
    sample_case_i_paths,
    simulate,
    solve_phi_Mg,
    solve_skorokhod_g,
    uniform_grid,
)
from oracles import (
    erlang2_renewal_closed_form,
    ks_one_sample,
    mc_renewal_function,
    mmn_abandonment_ctmc,
    picard_phi_mg,
    reflected_ou_stationary_cdf,
    sample_gaussian_S,
    sample_service_noise_finite_n,
)

EXP1 = DistributionSpec.exponential(1.0)


def mmn_config(n, mu=1.0, beta=-1.0, theta=1.0, horizon=10.0, alpha=1.0, xi=0.0):
    return SystemConfig(
        n=n, alpha=alpha, mu=mu, beta=beta,
        arrival=EXP1,
        service=DistributionSpec.exponential(mu),
        patience=PatienceSpec(mode="no_scaling",
                              distribution=DistributionSpec.exponential(theta)),
        horizon=horizon, xi=xi,
    )


def verdict(num, label, ok, detail):
    line = f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def fmt(values):
    return " > ".join(f"{v:.4g}" for v in values)


def strictly_decreasing(values):
    return all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# shared sweeps

# the sweeps run on every usable core; results come back in job order, so the
# worker count moves no value
WORKERS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


@pytest.fixture(scope="module")
def trend_sweep():
    # M/M/n+M, mu=1, theta=1, beta=-1, T=10, 200 replications per n
    return convergence_sweep(mmn_config(25), [25, 100, 400, 1600],
                             replications=200, checkpoints=(10.0,), seed=2024,
                             workers=WORKERS)


@pytest.fixture(scope="module")
def ks_sweep():
    # same family, 2000 replications, marginal at T against 2000 limit draws
    return convergence_sweep(mmn_config(25), [25, 100, 400],
                             replications=2000, checkpoints=(10.0,), seed=71,
                             workers=WORKERS)


@pytest.fixture(scope="module")
def nds_sweep():
    # many-server square-root staffing: alpha=1/2, beta=0, Poisson input
    return convergence_sweep(mmn_config(100, beta=0.0, alpha=0.5),
                             [100, 400, 1600],
                             replications=1000, checkpoints=(10.0,), seed=52,
                             workers=WORKERS)


# ---------------------------------------------------------------------------
# randomized mapping inputs shared by criteria 7 and 8


@pytest.fixture(scope="module")
def mapping_family():
    # piecewise-linear random inputs with knots on the 0.01 lattice, so every
    # refinement below resolves the same continuum path exactly
    knots = uniform_grid(4.0, 0.01)
    family = []
    for k in range(50):
        rng = make_rng(41, k, "scratch")
        u = rng.uniform(size=3)
        variance = 0.25 + 3.75 * u[0]
        slope = 0.1 + 1.9 * u[1]
        drift = -1.0 + 2.0 * u[2]
        vals = sample_brownian(variance, knots, rng).sampled(knots) + drift * knots
        family.append((linear_path(knots, vals, 4.0), slope))
    return knots, family


def test_criterion_01_coupling_gap_trend(trend_sweep):
    meds = [trend_sweep.summaries["coupling_gap"][n]["median"]
            for n in (25, 100, 400, 1600)]
    ok = strictly_decreasing(meds) and meds[-1] <= 0.5 * meds[0]
    verdict(1, "coupling-gap median trend", ok,
            f"medians {fmt(meds)}; ratio {meds[-1] / meds[0]:.3f} <= 0.5")


def test_criterion_02_littles_law_trend(trend_sweep):
    meds = [trend_sweep.summaries["little_gap"][n]["median"]
            for n in (25, 100, 400, 1600)]
    ok = strictly_decreasing(meds) and meds[-1] <= 0.5 * meds[0]
    verdict(2, "waiting-time law median trend", ok,
            f"medians {fmt(meds)}; ratio {meds[-1] / meds[0]:.3f} <= 0.5")


def test_criterion_03_weak_convergence_critical_scale(ks_sweep):
    ks = [ks_sweep.ks[n][10.0] for n in (25, 100, 400)]
    ok = strictly_decreasing(ks) and ks[-1] < 0.10
    verdict(3, "terminal-marginal KS, critical scale", ok,
            f"KS {fmt(ks)}; KS at n=400 over 2000 draws = {ks[-1]:.4f} < 0.10")


def test_criterion_04_nds_regime_convergence(nds_sweep):
    ks = [nds_sweep.ks[n][10.0] for n in (100, 400, 1600)]
    negs = [nds_sweep.summaries["neg_part_sup"][n]["median"]
            for n in (100, 400, 1600)]
    ok = strictly_decreasing(ks) and strictly_decreasing(negs)
    verdict(4, "square-root-staffing regime trend", ok,
            f"KS {fmt(ks)}; sup X^- medians {fmt(negs)}")


def test_criterion_05_renewal_function_exactness():
    # trapezoid error constant is mu^3 T step^2 / 12 ~ 8.3e-5 at defaults
    mu = 1.0
    tab = compute_renewal_function(DistributionSpec.exponential(mu), 10.0 / mu)
    exp_err = float(np.max(np.abs(tab.values - mu * tab.times)))

    det = compute_renewal_function(DistributionSpec.deterministic(0.7), 3.0)
    det_err = float(np.max(np.abs(
        det.values - np.floor(det.times / 0.7 + 1e-9))))

    erl = DistributionSpec.erlang(2, 2.0)
    tab2 = compute_renewal_function(erl, 5.0)
    ts = np.linspace(0.5, 5.0, 10)
    mc_mean, mc_se = mc_renewal_function(erl.sample, ts, 1_000_000,
                                         np.random.default_rng(2025))
    mc_gap = np.abs(tab2.values_on(ts) - mc_mean)
    closed_err = float(np.max(np.abs(
        tab2.values_on(ts) - erlang2_renewal_closed_form(1.0, ts))))

    ok = (exp_err <= 1e-4 and det_err <= 1e-9
          and bool(np.all(mc_gap <= 1e-3 + 3.0 * mc_se)) and closed_err <= 1e-3)
    verdict(5, "renewal-function exactness", ok,
            f"exp sup err {exp_err:.2e} <= 1e-4; deterministic lattice err "
            f"{det_err:.1e}; Erlang-2 vs MC max gap {float(np.max(mc_gap)):.2e} "
            f"within 1e-3 + 3*SE, closed form {closed_err:.2e}")


def test_criterion_06_service_noise_covariance_crosscheck():
    table = compute_renewal_function(EXP1, 5.0, step=0.01)
    grid = np.linspace(0.0, 5.0, 21)
    ts = grid[1:]
    m = ts.size
    want = np.empty((m, m))
    for i in range(m):
        for j in range(i, m):
            want[i, j] = want[j, i] = covariance_S(ts[i], ts[j], table)

    reps_g = 20_000
    rng = make_rng(13, 0, "gaussian")
    draws = np.empty((reps_g, m))
    for r in range(reps_g):
        draws[r] = sample_gaussian_S(table, EXP1, grid, rng).sampled(ts)
    emp_g = draws.T @ draws / reps_g
    se_g = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / reps_g)
    z_model = float(np.max(np.abs(emp_g - want) / se_g))

    reps_f = 2000
    fin = sample_service_noise_finite_n(table, EXP1, 10_000, grid,
                                        make_rng(29, 0, "gaussian"), reps_f)[:, 1:]
    emp_f = fin.T @ fin / reps_f
    se_f = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / reps_f)
    z_fin = float(np.max(np.abs(emp_g - emp_f) / np.hypot(se_g, se_f)))

    ok = z_model <= 3.0 and z_fin <= 3.0
    verdict(6, "service-noise covariance crosscheck", ok,
            f"Gaussian-vs-model max |z| {z_model:.2f} <= 3; "
            f"Gaussian-vs-finite-n(1e4) max |z| {z_fin:.2f} <= 3")


def test_criterion_07_picard_certificate(mapping_family):
    # the library's forward solve against the paper's Picard iteration, run
    # from y for the contraction rates and from zero for agreement
    grid, family = mapping_family
    table = compute_renewal_function(EXP1, 4.0, step=0.01)
    w, h = table.increments_on(grid), float(grid[1] - grid[0])
    worst_res, worst_rhat, worst_ratio, worst_agree = 0.0, 0.0, 0.0, 0.0
    rated, at_fixed_point = 0, 0
    for y, slope in family:
        g = lambda x, th=slope: th * x
        sol = solve_phi_Mg(y, table, g, grid, tol=1e-10, g_sign=-1.0)
        Y = y.sampled(grid)[None, :]
        _, _, _, c = picard_phi_mg(Y, w, g, h, -1.0, 1e-10, "y")
        alt, _, _, _ = picard_phi_mg(Y, w, g, h, -1.0, 1e-10, "zero")
        worst_res = max(worst_res, sol.residual)
        worst_agree = max(worst_agree, float(np.max(np.abs(sol.x.sampled(grid) - alt[0]))))
        if c == [0.0]:
            # x <= 0 throughout, so g(x^+) = 0 and y is the fixed point itself
            at_fixed_point += 1
            continue
        if len(c) > 1:
            rated += 1
            worst_rhat = max(worst_rhat, (c[-1] / c[0]) ** (1.0 / (len(c) - 1)))
            worst_ratio = max(worst_ratio, float(np.max(np.divide(c[1:], c[:-1]))))
    ok = (worst_res < 1e-8 and worst_rhat <= 0.9 and worst_ratio < 1.0
          and worst_agree <= 2e-8 and rated + at_fixed_point == len(family))
    verdict(7, "fixed-point solver certificate", ok,
            f"max residual {worst_res:.1e} < 1e-8; per-step sup-change ratios "
            f"< 1 (max {worst_ratio:.3f}), geometric mean <= 0.9 "
            f"(max {worst_rhat:.3f}) on {rated} inputs, {at_fixed_point} "
            f"already at the fixed point; initial-guess agreement "
            f"{worst_agree:.1e} <= 2e-8")


def test_criterion_08_skorokhod_map_contract(mapping_family):
    coarse, family = mapping_family
    grids = [uniform_grid(4.0, h) for h in (0.01, 0.005, 0.0025)]
    worst_neg, worst_dec, worst_comp = 0.0, 0.0, 0.0
    halving_ok = True
    for y, slope in family:
        g = lambda x, th=slope: th * x  # solver applies drift as -g: pulls to 0
        xs_by_grid = []
        for grid in grids:
            sol = solve_skorokhod_g(y, g, grid)
            xg = sol.x.sampled(grid)
            lg = sol.ell.sampled(grid)
            worst_neg = max(worst_neg, float(np.max(-xg)))
            worst_dec = max(worst_dec, float(np.max(-np.diff(lg))))
            worst_comp = max(worst_comp, float(abs(np.sum(xg[1:] * np.diff(lg)))))
            xs_by_grid.append(sol.x.sampled(coarse))
        d1 = float(np.max(np.abs(xs_by_grid[0] - xs_by_grid[1])))
        d2 = float(np.max(np.abs(xs_by_grid[1] - xs_by_grid[2])))
        # first-order prediction for the next halving is d1/2
        if d2 > 2.0 * (d1 / 2.0) + 1e-12:
            halving_ok = False
    ok = (worst_neg <= 1e-12 and worst_dec <= 1e-12 and worst_comp <= 1e-8
          and halving_ok)
    verdict(8, "reflection-map contract", ok,
            f"min x >= -{worst_neg:.1e}; ell nondecreasing (worst backstep "
            f"{worst_dec:.1e}); sup |int x dl| {worst_comp:.1e} <= 1e-8; "
            f"grid-halving within 2x first-order prediction: {halving_ok}")


def test_criterion_09_pathwise_queue_domination():
    rng = np.random.default_rng(905)
    arrivals = [EXP1, DistributionSpec.erlang(2, 2.0),
                DistributionSpec.deterministic(1.0),
                DistributionSpec.hyperexponential((0.3, 0.7), (0.6, 1.4))]
    violations = 0
    checked = 0
    for trial in range(100):
        n = int(rng.integers(1, 51))
        alpha = float(rng.choice([1.0, 0.75, 0.5]))
        mu = float(rng.uniform(0.5, 2.0))
        cfg = SystemConfig(
            n=n, alpha=alpha, mu=mu, beta=float(rng.uniform(-2.0, 2.0)),
            arrival=arrivals[int(rng.integers(0, 4))],
            service=DistributionSpec.exponential(mu),
            patience=PatienceSpec(
                mode="no_scaling",
                distribution=DistributionSpec.exponential(float(rng.uniform(0.05, 3.0)))),
            horizon=6.0, xi=float(rng.uniform(-1.0, 2.0)),
        )
        for j in range(10):
            res = compare_abandonment(cfg, seed=j, replication=trial)
            checked += res.n_checked
            if not res.holds:
                violations += 1
    ok = violations == 0
    verdict(9, "abandonment never lengthens the queue", ok,
            f"100 configs x 10 paired seeds, {checked} event times checked, "
            f"{violations} violations")


def test_criterion_10_reflected_ou_stationarity():
    theta, beta, mu, ca2 = 1.0, 0.5, 1.0, 1.0
    # step 1e-3 keeps the O(sqrt(h)) reflection bias well under the KS budget
    grid = uniform_grid(25.0, 0.001)
    ends = [sample_case_i_paths(0.0, beta, mu, ca2, lambda x: theta * x,
                                grid, seed=17, reps=250, replication=r)[:, -1]
            for r in range(20)]
    samples = np.sort(np.concatenate(ends))
    sigma2 = mu * ca2 + mu
    xs, cdf = reflected_ou_stationary_cdf(beta * mu, theta, sigma2, x_hi=10.0)
    stat = ks_one_sample(samples, np.interp(samples, xs, cdf))
    ok = stat <= 0.03
    verdict(10, "reflected-OU stationary law", ok,
            f"one-sample KS over 5000 draws {stat:.4f} <= 0.03")


def test_criterion_11_ctmc_oracle_agreement():
    cfg = mmn_config(3, mu=1.0, beta=0.3, theta=0.5, horizon=20.0)
    assert cfg.servers == 3 and cfg.initial_head_count() == 3
    reps = 10_000
    counts = np.empty(reps)
    for r in range(reps):
        counts[r] = simulate(cfg, seed=3333, replication=r).G(20.0)
    mean = float(counts.mean())
    se = float(counts.std(ddof=1) / math.sqrt(reps))
    truth, _ = mmn_abandonment_ctmc(cfg.lambda_n, 1.0, 3, 0.5, 20.0,
                                    max_states=200, initial_state=3)
    ok = abs(mean - truth) <= 3.0 * se
    verdict(11, "abandonment count vs CTMC forward equations", ok,
            f"simulated {mean:.4f} (SE {se:.4f}) vs oracle {truth:.4f}; "
            f"|z| = {abs(mean - truth) / se:.2f} <= 3")
