"""Gap statistics, CRN comparison, KS, and the n-sweep report."""

import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.stats

import httq.limits
import httq.simulator
import httq.validation

from httq.distributions import DistributionSpec
from httq.patience import PatienceSpec
from httq.paths import counting_path, linear_path, step_path, uniform_grid
from httq.scaling import ScaledBundle, scale
from httq.simulator import SystemConfig, simulate
from httq.validation import (
    GAP_NAMES,
    ComparisonVerdict,
    compare_abandonment,
    convergence_sweep,
    coupling_gap,
    gap_statistics,
    ks_two_sample,
    little_gap,
    neg_part_sup,
)

from oracles import union_coupling_gap


def mmn_config(n, mu=1.0, beta=-1.0, theta=1.0, horizon=5.0, xi=0.0,
               alpha=1.0, abandon=True):
    patience = PatienceSpec.no_scaling(DistributionSpec.exponential(theta))
    return SystemConfig(
        n=n, alpha=alpha, mu=mu, beta=beta,
        arrival=DistributionSpec.exponential(1.0),
        service=DistributionSpec.exponential(mu),
        patience=patience, horizon=horizon, xi=xi, abandon=abandon,
    )


def dd1_config(service_len, horizon, patience=None, xi=-1.0):
    # lambda_n = 1 arrival per unit time, one deterministic server
    mu = 1.0 / service_len
    return SystemConfig(
        n=1, alpha=1.0, mu=mu, beta=service_len - 1.0,
        arrival=DistributionSpec.deterministic(1.0),
        service=DistributionSpec.deterministic(service_len),
        patience=None if patience is None
        else PatienceSpec.no_scaling(DistributionSpec.deterministic(patience)),
        horizon=horizon, xi=xi, abandon=patience is not None,
    )


# ---------------------------------------------------------------------------
# gap statistics


def test_gap_statistic_validation(monkeypatch):
    # a NaN scaled wait makes little_gap NaN, and gap_statistics refuses it
    T = 4.0
    grid = uniform_grid(T, 1.0)
    omega = np.zeros(grid.size)
    omega[2] = np.nan
    bundle = ScaledBundle(mu=1.0, grid=grid, X=step_path([0.0], [0.0], T),
                          Q=step_path([0.0], [0.0], T), G=step_path([0.0], [0.0], T),
                          compensator=linear_path([0.0, T], [0.0, 0.0], T), omega=omega)
    with pytest.raises(ValueError, match="little_gap must be finite and >= 0, got nan"):
        gap_statistics(bundle)
    # each statistic is called by its module name, so a replaced one is what is checked
    bundle = dataclasses.replace(bundle, omega=np.zeros(grid.size))
    assert gap_statistics(bundle) == {name: 0.0 for name in GAP_NAMES}
    for bad in (-0.1, math.inf):
        monkeypatch.setattr(httq.validation, "neg_part_sup", lambda b, _v=bad: _v)
        with pytest.raises(ValueError, match=f"neg_part_sup must be finite and >= 0, got {bad}"):
            gap_statistics(bundle)


def test_coupling_gap_zero_without_abandonment():
    cfg = mmn_config(9, beta=-0.5, abandon=False)
    bundle = scale(simulate(cfg, seed=3))
    assert coupling_gap(bundle) == 0.0


def test_coupling_gap_single_jump_synthetic_bundle():
    # one abandonment at n = 4 jumps Gt by 1/2 while the compensator stays 0
    T = 4.0
    grid = uniform_grid(T, 1.0)
    zero_step = step_path([0.0], [0.0], T)
    zero_lin = linear_path([0.0, T], [0.0, 0.0], T)
    bundle = ScaledBundle(
        mu=1.0, grid=grid, X=zero_step, Q=zero_step,
        G=step_path([0.0, 2.5], [0.0, 0.5], T),
        compensator=zero_lin, omega=np.zeros(grid.size),
    )
    assert coupling_gap(bundle) == 0.5


def _gap_bundle(g, comp, T):
    grid = uniform_grid(T, T / 4)
    zero_step = step_path([0.0], [0.0], T)
    return ScaledBundle(mu=1.0, grid=grid, X=zero_step, Q=zero_step, G=g, compensator=comp,
                        omega=np.zeros(grid.size))


_T = 4.0
_COMP = linear_path([0.0, 1.0, 2.0, 3.0, _T], [0.0, 0.3, 0.35, 1.2, 1.6], _T)


@pytest.mark.parametrize("g, comp, want", [
    # G jumps at 0 and at the horizon
    (step_path([0.0, 1.5, _T], [0.25, 0.5, 2.5], _T), _COMP, 1.1),
    # G's breakpoints fall between the compensator's knots
    (step_path([0.0, 0.7, 2.2, 3.1], [0.0, 0.5, 1.0, 1.5], _T), _COMP, 0.48),
    # G's breakpoints on and off the knots, the compensator with a horizon knot only
    (step_path([0.0, 1.0, 2.5], [0.0, 1.0, 1.25], _T),
     linear_path([0.0, _T], [0.0, 2.0], _T), 0.75),
    # empty G: the gap is the compensator's sup
    (step_path([0.0], [0.0], _T), _COMP, 1.6),
    # no compensator: the gap is G's sup
    (step_path([0.0, 3.9], [0.0, 0.5], _T), linear_path([0.0, _T], [0.0, 0.0], _T), 0.5),
])
def test_coupling_gap_matches_union_oracle_on_hand_built_bundles(g, comp, want):
    bundle = _gap_bundle(g, comp, _T)
    stat = coupling_gap(bundle)
    assert stat == union_coupling_gap(bundle)
    assert stat == pytest.approx(want, abs=1e-12)


def test_coupling_gap_matches_union_oracle_on_random_bundles():
    # G's breakpoints drawn partly from the knots and partly off them
    rng = np.random.default_rng(12)
    for _ in range(200):
        knots = np.unique(np.concatenate([[0.0, _T], rng.uniform(0.0, _T, rng.integers(0, 30))]))
        comp = linear_path(knots, np.cumsum(rng.exponential(0.2, knots.size)) - 0.2, _T)
        jumps = np.concatenate([rng.choice(knots, rng.integers(0, 6)),
                                rng.uniform(0.0, _T, rng.integers(0, 6))])
        g = counting_path(jumps, horizon=_T).scale(0.5)
        bundle = _gap_bundle(g, comp, _T)
        assert coupling_gap(bundle) == union_coupling_gap(bundle)


def test_coupling_gap_single_abandonment_end_to_end():
    # empty D/D/1, service 2, patience 0.5: the only abandonment is at
    # t = 2.5, the limit f vanishes, so the gap is exactly 1/sqrt(1)
    cfg = dd1_config(2.0, horizon=2.75, patience=0.5)
    rec = simulate(cfg, seed=0)
    assert int(rec.G(2.75)) == 1
    bundle = scale(rec, grid=uniform_grid(2.75, 0.25))
    assert coupling_gap(bundle) == 1.0


def test_little_gap_empty_system():
    cfg = dd1_config(2.0, horizon=0.5)
    bundle = scale(simulate(cfg, seed=1))
    assert little_gap(bundle) == 0.0


def test_little_gap_underloaded_dd1_idle_grid():
    # arrivals at 1, 2, 3, ...; service 0.5: at the chosen grid times the
    # server is idle, so the virtual wait and the queue both vanish
    cfg = dd1_config(0.5, horizon=4.0)
    rec = simulate(cfg, seed=2)
    bundle = scale(rec, grid=np.array([0.0, 0.75, 1.75, 2.75, 3.75]))
    assert little_gap(bundle) == 0.0


def test_little_gap_overloaded_uses_every_point():
    # overloaded deterministic queue: near the horizon the virtual waits end
    # beyond it, and they still enter the sup as exact values
    cfg = dd1_config(1.4, horizon=12.0)
    bundle = scale(simulate(cfg, seed=3))
    assert np.all(np.isfinite(bundle.omega))
    assert np.any(bundle.grid + bundle.omega > 12.0)
    stat = little_gap(bundle)
    q = bundle.Q.sampled(bundle.grid)
    assert stat == np.max(np.abs(bundle.mu * bundle.omega - q))
    assert math.isfinite(stat) and stat > 0.0


def test_neg_part_sup_tracks_negative_start():
    cfg = mmn_config(25, xi=-2.0)
    bundle = scale(simulate(cfg, seed=4))
    assert neg_part_sup(bundle) >= 2.0


def test_gap_statistics_bundle_helper():
    cfg = mmn_config(16, horizon=3.0)
    stats = gap_statistics(scale(simulate(cfg, seed=5)))
    assert set(stats) == {"coupling_gap", "little_gap", "neg_part_sup"}
    for s in stats.values():
        assert type(s) is float
        assert s >= 0.0 and math.isfinite(s)


# ---------------------------------------------------------------------------
# CRN comparison with the no-abandonment benchmark


def test_compare_abandonment_off_in_both():
    cfg = mmn_config(16, abandon=False)
    verdict = compare_abandonment(cfg, seed=11)
    assert verdict.holds
    assert verdict.max_queue_excess == 0.0
    assert verdict.first_violation is None
    assert verdict.n_checked > 10


def test_compare_abandonment_tiny_patience():
    cfg = mmn_config(16, theta=1.0)
    cfg = SystemConfig(
        n=16, alpha=1.0, mu=1.0, beta=1.0, arrival=DistributionSpec.exponential(1.0),
        service=DistributionSpec.exponential(1.0),
        patience=PatienceSpec.no_scaling(DistributionSpec.deterministic(1e-6)),
        horizon=5.0,
    )
    verdict = compare_abandonment(cfg, seed=12)
    assert verdict.holds
    assert verdict.max_queue_excess <= 0.0


def test_compare_abandonment_property_sweep():
    # randomized M/M/5+M configurations, several seeds each: domination
    # must hold on every sample path
    rng = np.random.default_rng(2024)
    for trial in range(100):
        mu = float(rng.uniform(0.5, 2.0))
        beta = float(rng.uniform(-2.0, 2.0))
        theta = float(rng.uniform(0.1, 3.0))
        xi = float(rng.uniform(-1.0, 2.0))
        cfg = SystemConfig(
            n=5, alpha=1.0, mu=mu, beta=beta, arrival=DistributionSpec.exponential(1.0),
            service=DistributionSpec.exponential(mu),
            patience=PatienceSpec.no_scaling(DistributionSpec.exponential(theta)),
            horizon=4.0, xi=xi,
        )
        for seed in range(10):
            verdict = compare_abandonment(cfg, seed=seed, replication=trial)
            assert verdict.holds, verdict.detail


def test_compare_abandonment_reports_a_violation_with_its_dump(monkeypatch):
    # every run takes the opposite abandon flag, so the overloaded system never
    # abandons and its twin does: the verdict fails and names where, first
    real = httq.validation.simulate
    monkeypatch.setattr(httq.validation, "simulate", lambda config, *args: real(
        dataclasses.replace(config, abandon=not config.abandon), *args))
    verdict = compare_abandonment(mmn_config(16, beta=1.0), seed=11)
    assert not verdict.holds
    assert verdict.max_queue_excess >= 1.0
    t, q, q_0 = verdict.first_violation
    assert 0.0 < t <= 5.0 and q > q_0
    assert verdict.detail.startswith(f"queue domination violated at t={t!r}: "
                                     f"Q={q:.0f} > Q_0={q_0:.0f}")
    assert "seed=11 replication=0" in verdict.detail


# ---------------------------------------------------------------------------
# two-sample KS


def test_ks_identical_and_disjoint():
    a = np.array([0.3, 1.0, 2.5])
    assert ks_two_sample(a, a) == 0.0
    assert ks_two_sample(a, a + 10.0) == 1.0


def test_ks_symmetry_and_monotone_invariance():
    rng = np.random.default_rng(7)
    a, b = rng.normal(size=200), rng.normal(0.3, 1.2, size=150)
    d = ks_two_sample(a, b)
    assert d == ks_two_sample(b, a)
    assert ks_two_sample(np.exp(a), np.exp(b)) == d


def test_ks_matches_scipy_with_ties():
    rng = np.random.default_rng(8)
    a = rng.integers(0, 12, size=100).astype(float)
    b = rng.integers(0, 12, size=80).astype(float)
    want = scipy.stats.ks_2samp(a, b, method="exact").statistic
    assert ks_two_sample(a, b) == pytest.approx(want, abs=1e-12)


def test_ks_null_quantile():
    # 1.36 * sqrt(2/2000) = 0.0608: the 95% null quantile for equal sizes
    rng = np.random.default_rng(9)
    below = sum(
        ks_two_sample(rng.normal(size=2000), rng.normal(size=2000)) < 0.0608
        for _ in range(100)
    )
    assert below >= 90


def test_ks_rejects_empty():
    with pytest.raises(ValueError, match="nonempty"):
        ks_two_sample([], [1.0])


# ---------------------------------------------------------------------------
# the n-sweep


def test_sweep_degenerate_is_flat():
    cfg = mmn_config(100, alpha=0.5, horizon=2.0, xi=0.5)
    # one n, so the smallest and the largest n coincide (a repeated n is refused)
    report = convergence_sweep(cfg, [100], replications=8, seed=1)
    assert report.limit_case == "i"
    assert report.n_values == (100,)
    assert set(report.verdicts.values()) == {"flat"}
    assert report.replications == 8 and report.seed == 1


def test_sweep_report_serialization():
    cfg = mmn_config(64, alpha=0.5, horizon=2.0, xi=0.5)
    report = convergence_sweep(cfg, [16, 64], replications=6, seed=2)
    doc = json.loads(json.dumps(report.as_dict()))
    assert doc["n_values"] == [16, 64]
    assert doc["replications"] == 6
    assert doc["seed"] == 2
    assert "coupling_gap" in doc["summaries"]
    assert set(doc["ks"]) == {"16", "64"}


def test_sweep_gap_trends_mmn():
    cfg = mmn_config(25, horizon=8.0)
    report = convergence_sweep(cfg, [25, 400], replications=50, seed=3)
    assert report.limit_case == "ii"
    assert report.verdicts["coupling_gap"] == "decreasing"
    assert report.verdicts["little_gap"] == "decreasing"
    for n in (25, 400):
        for t, v in report.ks[n].items():
            assert 0.0 <= v <= 1.0
        for name in ("coupling_gap", "little_gap", "neg_part_sup"):
            vals = report.gaps[name][n]
            assert vals.shape == (50,)
            assert np.all(vals >= 0.0) and np.all(np.isfinite(vals))


@pytest.mark.parametrize("mu, horizon", [(1.0, 20.0), (10.0, 10.0)])
def test_critical_sweep_runs_where_the_limit_grid_is_over_the_table_cap(mu, horizon):
    # the limit grid step T / 1024 is over min(1e-2, mean/20), so the renewal
    # table is built at half that step
    report = convergence_sweep(mmn_config(25, mu=mu, horizon=horizon), [25, 100],
                               replications=8, seed=1)
    assert report.limit_case == "ii"
    for n in (25, 100):
        assert len(report.ks[n]) == 3
        assert all(0.0 <= v <= 1.0 for v in report.ks[n].values())


def test_critical_sweep_runs_past_a_4096_point_table():
    # T = 40: the limit draw's renewal table has 4097 points, which the
    # covariance's old (m+1)^2 cap refused; it is built on the 1024 grid points
    report = convergence_sweep(mmn_config(4, horizon=40.0), [4, 16], replications=4, seed=3)
    assert report.limit_case == "ii"
    for n in (4, 16):
        assert set(report.ks[n]) == {10.0, 20.0, 40.0}
        assert all(0.0 <= v <= 1.0 for v in report.ks[n].values())


def test_sweep_input_validation():
    cfg = mmn_config(25)
    with pytest.raises(ValueError, match="replications"):
        convergence_sweep(cfg, [25, 100], replications=0)
    with pytest.raises(ValueError, match="positive"):
        convergence_sweep(cfg, [], replications=2)
    with pytest.raises(ValueError, match="outside"):
        convergence_sweep(cfg, [25], replications=2, checkpoints=[6.0])
    with pytest.raises(ValueError, match="limit grid"):
        convergence_sweep(cfg, [25], replications=2, checkpoints=[5.0 / 3.0])
    for grid_points in (0, -4):
        with pytest.raises(ValueError, match="grid_points must be >= 1"):
            convergence_sweep(cfg, [25], replications=2, grid_points=grid_points)
    # the library entry holds sizes and checkpoints to the count and number rules
    with pytest.raises(ValueError, match=r"n_values entry must be an integer, got 25\.5"):
        convergence_sweep(cfg, [25.5], replications=2)
    with pytest.raises(ValueError, match="replications must be a finite number, got True"):
        convergence_sweep(cfg, [25], replications=True)
    with pytest.raises(ValueError, match="checkpoint must be a finite number, got '5'"):
        convergence_sweep(cfg, [25], replications=2, checkpoints=["5"])
    with pytest.raises(ValueError, match=r"n values must be distinct, got \[25, 16, 25\]"):
        convergence_sweep(cfg, [25, 16, 25], replications=2)


def test_sweep_refuses_an_oversized_grid_before_the_limit_draw(monkeypatch):
    # 2**25 grid points were refused only by the first replication's grid,
    # after the limit marginals had been drawn
    monkeypatch.setattr(httq.validation, "sample_case_ii_paths",
                        lambda *a, **k: pytest.fail("drew the limit marginals"))
    with pytest.raises(ValueError, match="grid_points must be at most 16777216, got 33554432"):
        convergence_sweep(mmn_config(25), [25, 100], 4, grid_points=2**25)


def test_sweep_refuses_a_limit_draw_over_max_cells_before_any_simulation(monkeypatch):
    # 10**6 replications on the 1025-point limit grid asked the limit draw for
    # 7.64 GiB before the first replication was simulated
    monkeypatch.setattr(httq.validation, "simulate", lambda *a, **k: pytest.fail("simulated"))
    with pytest.raises(ValueError, match="a noise draw of 1000000 rows on 1025 grid points "
                                         "exceeds 16777216 cells"):
        convergence_sweep(mmn_config(25), [25, 100], replications=10**6)


def test_sweep_refuses_repeated_checkpoints(monkeypatch):
    # as with n values, a checkpoint listed twice is refused before any replication
    monkeypatch.setattr(httq.validation, "simulate", lambda *a, **k: pytest.fail("simulated"))
    with pytest.raises(ValueError, match=r"distinct, got \[2\.5, 1\.25, 2\.5\]"):
        convergence_sweep(mmn_config(25), [25], replications=2, checkpoints=[2.5, 1.25, 2.5])


@pytest.mark.parametrize("alpha", [1.0, 0.5])
def test_sweep_limit_streams_are_disjoint_from_simulation(monkeypatch, alpha):
    # the KS statistic compares the simulated and the limit marginals as
    # independent samples, so no stream address may feed both
    used = {}
    for module in (httq.simulator, httq.limits):
        seen = used[module.__name__] = set()

        def recording(seed, replication=0, purpose="scratch", _seen=seen,
                      _make=module.make_rng):
            _seen.add((seed, replication, purpose))
            return _make(seed, replication, purpose)

        monkeypatch.setattr(module, "make_rng", recording)
    convergence_sweep(mmn_config(4, alpha=alpha, horizon=1.0), [4], replications=2, seed=9)
    sim, lim = used["httq.simulator"], used["httq.limits"]
    assert sim and lim
    assert not sim & lim


def test_sweep_rejects_nds_with_nonexponential_service():
    # the regime below alpha = 1 only admits exponential service; the
    # configuration layer refuses to build the swept systems
    with pytest.raises(ValueError, match="exponential service"):
        SystemConfig(
            n=25, alpha=0.5, mu=1.0, beta=-1.0, arrival=DistributionSpec.exponential(1.0),
            service=DistributionSpec.erlang(2, 2.0),
            patience=PatienceSpec.no_scaling(DistributionSpec.exponential(1.0)),
            horizon=5.0,
        )


def test_sweep_workers_match_serial():
    cfg = mmn_config(16, alpha=0.5, horizon=1.5, xi=0.5)
    serial = convergence_sweep(cfg, [4, 16], replications=4, seed=5)
    parallel = convergence_sweep(cfg, [4, 16], replications=4, seed=5, workers=2)
    for name in serial.gaps:
        for n in (4, 16):
            np.testing.assert_array_equal(serial.gaps[name][n], parallel.gaps[name][n])
    assert serial.ks == parallel.ks
    assert serial.verdicts == parallel.verdicts


def test_sweep_records_the_repr_of_a_config_without_a_json_form():
    # a hazard given as a plain callable has no declarative form, so the report
    # records the config's repr; a lambda does not pickle, so the sweep runs in
    # this process
    hazard = lambda t: np.full(np.shape(t), 1.0)
    cfg = dataclasses.replace(mmn_config(4, horizon=1.0),
                              patience=PatienceSpec.hazard_rate(hazard))
    with pytest.raises(ValueError, match="only declarative"):
        cfg.to_dict()
    report = convergence_sweep(cfg, [4, 16], replications=2, seed=1, workers=1)
    assert report.config == {"repr": repr(cfg)}
    json.dumps(report.as_dict())


def test_run_jobs_asks_for_no_more_processes_than_jobs(monkeypatch):
    # the pool is min(workers, job count) wide, results stay in job order, and
    # no process starts: the executor maps in this process
    asked = []

    class InProcess:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(httq.validation.concurrent.futures, "ProcessPoolExecutor", InProcess)
    jobs = [(k, 10 * k) for k in range(3)]
    for workers, pool in ((512, 3), (2, 2), (3, 3)):
        assert httq.validation.run_jobs(pow, jobs, workers) == [pow(a, b) for a, b in jobs]
        assert asked.pop() == pool
    assert httq.validation.run_jobs(pow, jobs[:1], 512) == [1]
    assert httq.validation.run_jobs(pow, jobs, 1) == [pow(a, b) for a, b in jobs]
    assert asked == []
