"""Event-simulator checks: hand oracles, identities, and coupling contracts."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from httq import simulator
from httq.distributions import DistributionSpec
from httq.patience import PatienceSpec
from httq.renewal import equilibrium_distribution
from httq.simulator import (
    OUTCOME_ABANDONED,
    OUTCOME_IN_SERVICE,
    OUTCOME_SERVED,
    OUTCOME_WAITING,
    KIND_START,
    TIE_WINDOW,
    SystemConfig,
    simulate,
    virtual_wait_path,
)
from httq.scaling import scale
from httq.streams import make_rng
from httq.validation import _replication_job, coupling_gap

from oracles import (
    head_count_from_log,
    heap_simulate,
    lindley_waits,
    mmn_abandonment_ctmc,
    offered_waits,
    path_integral,
    path_min_value,
    replay_offered_waits,
    replay_virtual_wait_path,
    union_coupling_gap,
    union_paths,
    virtual_wait,
)


def dd1_config(service_len: float, horizon: float, patience: PatienceSpec | None = None,
               abandon: bool = False) -> SystemConfig:
    # single deterministic server fed at unit rate: lambda_n = mu (1 + beta) = 1;
    # xi = -1 empties the system at t = 0 so hand oracles start clean
    mu = 1.0 / service_len
    return SystemConfig(
        n=1, alpha=1.0, mu=mu, beta=service_len - 1.0,
        arrival=DistributionSpec.deterministic(1.0),
        service=DistributionSpec.deterministic(service_len),
        patience=patience, horizon=horizon, xi=-1.0, abandon=abandon,
    )


def mmn_config(n: int, theta: float = 1.0, beta: float = -1.0, horizon: float = 10.0,
               abandon: bool = True, xi: float = 0.0) -> SystemConfig:
    return SystemConfig(
        n=n, alpha=1.0, mu=1.0, beta=beta,
        arrival=DistributionSpec.exponential(1.0),
        service=DistributionSpec.exponential(1.0),
        patience=PatienceSpec.no_scaling(DistributionSpec.exponential(theta)),
        horizon=horizon, xi=xi, abandon=abandon,
    )


# ---------------------------------------------------------------------------
# trivial and deterministic oracles


def test_empty_system_stays_empty():
    cfg = SystemConfig(
        n=4, alpha=1.0, mu=1.0, beta=0.0,
        arrival=DistributionSpec.deterministic(1.0),
        service=DistributionSpec.exponential(1.0),
        patience=None, horizon=0.2, xi=-2.0, abandon=False,
    )
    assert cfg.initial_head_count() == 0
    rec = simulate(cfg, seed=1)
    assert rec.customers == 0
    assert rec.E(0.2) == 0 and rec.S(0.2) == 0 and rec.G(0.2) == 0
    assert rec.X.sup_norm() == 0.0


def test_dd1_underloaded_no_waits():
    rec = simulate(dd1_config(0.6, horizon=10.5), seed=3)
    np.testing.assert_allclose(offered_waits(rec), 0.0, atol=1e-9)
    served = np.isin(rec.outcomes, [OUTCOME_SERVED, OUTCOME_IN_SERVICE])
    assert np.all(served)
    assert rec.G(10.5) == 0


def test_dd1_overloaded_matches_lindley():
    rec = simulate(dd1_config(1.4, horizon=20.0), seed=3)
    waits = offered_waits(rec)
    k = rec.customers
    assert waits.size == k
    np.testing.assert_allclose(waits, lindley_waits(np.ones(k), np.full(k, 1.4)), atol=1e-9)
    np.testing.assert_allclose(waits, 0.4 * np.arange(k), atol=1e-9)


def test_dd1_abandonment_hand_oracle():
    # unit arrivals, service 3.5, deterministic patience 1.2, one server
    cfg = dd1_config(3.5, horizon=10.5,
                     patience=PatienceSpec.no_scaling(DistributionSpec.deterministic(1.2)),
                     abandon=True)
    rec = simulate(cfg, seed=9)
    # customers 7, 8 and 9 queue behind customer 6, whose service ends at
    # 11.5, past the horizon; their waits are exact all the same
    expected = [0.0, 2.5, 1.5, 0.5, 3.0, 2.0, 1.0, 3.5, 2.5, 1.5]
    np.testing.assert_allclose(offered_waits(rec), expected, atol=1e-9)
    out = rec.outcomes
    # customer 6 enters at t=8 (winning the exact tie against arrival 7)
    # and its 3.5 service runs past the horizon
    assert list(out) == [OUTCOME_SERVED, OUTCOME_ABANDONED, OUTCOME_ABANDONED,
                         OUTCOME_SERVED, OUTCOME_ABANDONED, OUTCOME_ABANDONED,
                         OUTCOME_IN_SERVICE, OUTCOME_ABANDONED, OUTCOME_ABANDONED,
                         OUTCOME_WAITING]
    # abandoning customers left exactly at their patience expiry
    ab = out == OUTCOME_ABANDONED
    np.testing.assert_allclose(
        rec.abandon_times[ab] - rec.arrival_times[ab], rec.patience_times[ab],
        atol=1e-12,
    )


def test_service_entry_wins_exact_tie():
    # service 1.0 at unit arrivals: completion k and arrival k+1 tie exactly;
    # with patience 2.0 the queue would abandon only if ties were mishandled
    cfg = dd1_config(1.0, horizon=50.0,
                     patience=PatienceSpec.no_scaling(DistributionSpec.deterministic(2.0)),
                     abandon=True)
    rec = simulate(cfg, seed=4)
    assert rec.G(50.0) == 0
    np.testing.assert_allclose(offered_waits(rec), 0.0, atol=1e-9)


# ---------------------------------------------------------------------------
# structural invariants on stochastic runs


def test_balance_and_counting_invariants():
    rec = simulate(mmn_config(25), seed=11)
    assert rec.balance_gap() == 0.0
    for path in (rec.E, rec.S, rec.G):
        assert np.all(np.diff(path.values) > 0)
        assert np.all(path.values == np.round(path.values))
    # Q = (X - N)^+ pointwise
    q = rec.Q
    np.testing.assert_allclose(
        q.values, np.maximum(rec.X.values - rec.config.servers, 0.0), atol=0
    )
    # entries and completions reconcile with S
    s0 = rec.n_initial_service
    comp_initial = np.count_nonzero(np.isfinite(rec.completion_times[:s0]))
    comp_entrants = np.count_nonzero(np.isfinite(rec.completion_times[s0:]))
    assert rec.S(rec.config.horizon) == comp_initial + comp_entrants
    assert np.count_nonzero(np.isfinite(rec.entry_times[s0:])) >= comp_entrants


def test_abandoned_waited_exactly_patience():
    rec = simulate(mmn_config(100, beta=1.0), seed=5)
    ab = rec.outcomes == OUTCOME_ABANDONED
    assert np.count_nonzero(ab) > 10
    np.testing.assert_allclose(
        rec.abandon_times[ab] - rec.arrival_times[ab],
        rec.patience_times[ab], atol=1e-12,
    )


def test_fcfs_entry_order():
    rec = simulate(mmn_config(50, beta=-2.0), seed=7)
    mask = (rec.event_kinds == KIND_START) & (rec.event_ids >= rec.n_initial_service)
    entrant_ids = rec.event_ids[mask]
    assert np.all(np.diff(entrant_ids) > 0)
    assert np.all(np.diff(rec.event_times[mask]) >= 0)


def test_work_conservation():
    rec = simulate(mmn_config(10, beta=-1.0, horizon=30.0), seed=13)
    servers = rec.config.servers
    s0 = rec.n_initial_service
    waited = np.isfinite(rec.entry_times) & (np.arange(rec.customers) >= s0)
    checked = 0
    for cid in np.flatnonzero(waited):
        a, e = rec.arrival_times[cid], rec.entry_times[cid]
        if e - a > 1e-9:
            assert path_min_value(rec.X, a, e) >= servers
            checked += 1
    assert checked > 20


def test_determinism_and_replication_split():
    a = simulate(mmn_config(25), seed=21, replication=3)
    b = simulate(mmn_config(25), seed=21, replication=3)
    np.testing.assert_array_equal(a.event_times, b.event_times)
    np.testing.assert_array_equal(a.event_kinds, b.event_kinds)
    np.testing.assert_array_equal(a.arrival_times, b.arrival_times)
    c = simulate(mmn_config(25), seed=21, replication=4)
    assert c.event_times.shape != a.event_times.shape or \
        not np.array_equal(c.event_times, a.event_times)


def test_event_log_is_built_only_when_read(monkeypatch):
    built = []

    def counting_log(rec):
        built.append(rec)
        return real_log(rec)

    real_log = simulator._event_log
    monkeypatch.setattr(simulator, "_event_log", counting_log)
    cfg = mmn_config(25)
    rec = simulate(cfg, seed=21)
    _replication_job(cfg, 21, 0, 50, (cfg.horizon,))
    assert built == []
    times, kinds, ids = rec.event_times, rec.event_kinds, rec.event_ids
    assert len(built) == 1 and built[0] is rec
    assert times.size == kinds.size == ids.size > 0


def test_initial_split_and_infinite_patience():
    cfg = mmn_config(16, xi=2.0, beta=-2.0, horizon=30.0)
    assert cfg.initial_head_count() == 24
    rec = simulate(cfg, seed=2)
    assert rec.n_initial_service == 16
    assert rec.n_initial_queued == 8
    q_ids = slice(16, 24)
    assert np.all(np.isinf(rec.patience_times[q_ids]))
    assert np.all(rec.arrival_times[q_ids] == 0.0)
    # initial queued customers head the FCFS line
    entries = rec.entry_times[q_ids]
    assert np.all(np.isfinite(entries))
    later = rec.entry_times[24:]
    later = later[np.isfinite(later)]
    if later.size:
        assert np.max(entries) <= np.min(later) + 1e-12


def test_nds_regime_runs_and_balances():
    cfg = SystemConfig(
        n=100, alpha=0.5, mu=1.0, beta=0.0,
        arrival=DistributionSpec.exponential(1.0),
        service=DistributionSpec.exponential(1.0),
        patience=PatienceSpec.no_scaling(DistributionSpec.exponential(1.0)),
        horizon=5.0, xi=0.0, abandon=True,
    )
    assert cfg.servers == 10
    assert cfg.mu_n == pytest.approx(10.0)
    rec = simulate(cfg, seed=17)
    assert rec.balance_gap() == 0.0
    assert rec.E(5.0) > 300  # lambda_n = 100 on [0,5]


@pytest.mark.parametrize("alpha,service", [
    (0.5, DistributionSpec.exponential(1.0)),
    (1.0, DistributionSpec.exponential(1.0)),
    (1.0, DistributionSpec.deterministic(1.0)),
    (1.0, DistributionSpec.lognormal(-0.5, 1.0)),
], ids=["nds-exponential", "exponential", "deterministic", "lognormal"])
def test_initial_residuals_are_equilibrium_draws(alpha, service):
    # the initially busy servers' residuals are the first draws of the
    # "initial" stream: exponential(mu_n) below alpha = 1, H_e at alpha = 1
    cfg = SystemConfig(n=16, alpha=alpha, mu=1.0, beta=0.0,
                       arrival=DistributionSpec.exponential(1.0), service=service,
                       patience=None, horizon=2.0, xi=0.5, abandon=False)
    rec = simulate(cfg, seed=7, replication=2)
    s0 = rec.n_initial_service
    assert s0 == cfg.servers
    rng = make_rng(7, 2, "initial")
    if alpha < 1.0:
        want = rng.exponential(1.0 / cfg.mu_n, s0)
    else:
        want = equilibrium_distribution(service).sample(rng, s0)
    np.testing.assert_array_equal(rec.completion_times[:s0],
                                  np.where(want <= cfg.horizon, want, np.nan))


# ---------------------------------------------------------------------------
# CRN coupling and the no-abandonment benchmark


def test_benchmark_equals_abandonment_off():
    # passing a patience spec with abandon=False must not consume extra
    # randomness: the record must match the patience-free config exactly
    base = mmn_config(25, abandon=False)
    no_patience = SystemConfig(
        n=25, alpha=1.0, mu=1.0, beta=-1.0,
        arrival=DistributionSpec.exponential(1.0),
        service=DistributionSpec.exponential(1.0),
        patience=None, horizon=10.0, xi=0.0, abandon=False,
    )
    a = simulate(base, seed=31)
    b = simulate(no_patience, seed=31)
    np.testing.assert_array_equal(a.event_times, b.event_times)
    np.testing.assert_array_equal(a.event_kinds, b.event_kinds)
    assert a.G(10.0) == 0


def test_crn_queue_dominated_by_benchmark():
    for seed in range(4):
        on = simulate(mmn_config(25, theta=2.0), seed=seed)
        off = simulate(mmn_config(25, theta=2.0, abandon=False), seed=seed)
        ts = np.unique(np.concatenate([on.X.times, off.X.times]))
        q_on = np.maximum(on.X.sampled(ts) - 25, 0)
        q_off = np.maximum(off.X.sampled(ts) - 25, 0)
        assert np.all(q_on <= q_off + 1e-9)


# ---------------------------------------------------------------------------
# CTMC oracle


def test_mm3m_abandonment_against_ctmc():
    cfg = SystemConfig(
        n=3, alpha=1.0, mu=1.0, beta=0.0,
        arrival=DistributionSpec.exponential(1.0),
        service=DistributionSpec.exponential(1.0),
        patience=PatienceSpec.no_scaling(DistributionSpec.exponential(0.5)),
        horizon=8.0, xi=-math.sqrt(3), abandon=True,
    )
    assert cfg.initial_head_count() == 0
    expected_g, p_final = mmn_abandonment_ctmc(3.0, 1.0, 3, 0.5, 8.0, max_states=80)
    reps = 3000
    gs = np.empty(reps)
    xs = np.empty(reps)
    for r in range(reps):
        rec = simulate(cfg, seed=101, replication=r)
        gs[r] = rec.G(8.0)
        xs[r] = rec.X(8.0)
    se_g = gs.std(ddof=1) / math.sqrt(reps)
    assert abs(gs.mean() - expected_g) <= 4 * se_g
    expected_x = float(np.arange(p_final.size) @ p_final)
    se_x = xs.std(ddof=1) / math.sqrt(reps)
    assert abs(xs.mean() - expected_x) <= 4 * se_x


# ---------------------------------------------------------------------------
# virtual waits


def test_virtual_wait_free_server_zero():
    # interarrival 2.5, service 2.0: busy windows [2.5, 4.5], [5.0, 7.0], ...
    cfg = SystemConfig(
        n=1, alpha=1.0, mu=0.5, beta=0.4 / 0.5 - 1.0,
        arrival=DistributionSpec.deterministic(1.0),
        service=DistributionSpec.deterministic(2.0),
        patience=None, horizon=10.0, xi=-1.0, abandon=False,
    )
    assert cfg.lambda_n == pytest.approx(0.4)
    rec = simulate(cfg, seed=1)
    assert rec.E(2.6) == 1
    assert virtual_wait(rec, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert virtual_wait(rec, 2.6) == pytest.approx(4.5 - 2.6, abs=1e-9)
    assert virtual_wait(rec, 4.6) == pytest.approx(0.0, abs=1e-12)


def test_virtual_wait_exact_past_horizon():
    # at t = 5.9 the wait ends after the horizon 6; the longer run sees the
    # same customers ahead and so the same wait
    rec = simulate(dd1_config(1.4, horizon=6.0), seed=2)
    longer = simulate(dd1_config(1.4, horizon=12.0), seed=2)
    assert 5.9 + virtual_wait(rec, 5.9) > 6.0
    assert virtual_wait(rec, 5.9) == virtual_wait(longer, 5.9)
    with pytest.raises(ValueError, match="within"):
        virtual_wait_path(rec, np.array([7.0]))


_PREFIX_CONFIGS = {
    "dd1-overloaded": dd1_config(1.4, horizon=6.0),
    "dd1-abandonment": dd1_config(
        3.5, horizon=10.5,
        patience=PatienceSpec.no_scaling(DistributionSpec.deterministic(1.2)), abandon=True),
    "mmn-queued-start": mmn_config(16, beta=1.0, horizon=3.0, xi=1.0),
}


@pytest.mark.parametrize("name", list(_PREFIX_CONFIGS))
def test_waits_match_a_longer_run(name):
    # arrival, service and patience draws are prefix-stable, so doubling the
    # horizon keeps every customer who arrives by T and what each one sees
    cfg = _PREFIX_CONFIGS[name]
    T = cfg.horizon
    rec = simulate(cfg, seed=2)
    longer = simulate(dataclasses.replace(cfg, horizon=2 * T), seed=2)
    grid = np.linspace(0.0, T, 97)
    waits = virtual_wait_path(rec, grid)
    offered = offered_waits(rec)
    queued = rec.arrival_times[rec.n_initial_service:]
    assert np.all(np.isfinite(waits)) and np.all(np.isfinite(offered))
    np.testing.assert_array_equal(waits, virtual_wait_path(longer, grid))
    np.testing.assert_array_equal(offered, offered_waits(longer)[: offered.size])
    # the event-log replays of the longer record agree wherever they end by
    # 2T, and some of those waits end after T
    for got, start, (want, _) in ((waits, grid, replay_virtual_wait_path(longer, grid)),
                                  (offered, queued, replay_offered_waits(longer))):
        want = want[: got.size]
        ok = np.isfinite(want)
        assert np.any(ok & (start + got > T))
        np.testing.assert_array_equal(got[ok], want[ok])


def test_virtual_wait_little_law_mm1():
    cfg = SystemConfig(
        n=1, alpha=1.0, mu=1.0, beta=-0.2,
        arrival=DistributionSpec.exponential(1.0),
        service=DistributionSpec.exponential(1.0),
        patience=None, horizon=20000.0, xi=0.0, abandon=False,
    )
    rec = simulate(cfg, seed=40)
    grid = np.linspace(100.0, 19900.0, 4000)
    vals = virtual_wait_path(rec, grid)
    assert np.all(np.isfinite(vals))
    mean_wait = vals.mean()
    mean_q = path_integral(rec.Q, 100.0, 19900.0) / 19800.0
    lam = cfg.lambda_n
    # lambda E[V] = E[(X-1)^+] = rho^2/(1-rho) = 3.2 at rho = 0.8
    assert abs(lam * mean_wait - mean_q) <= 0.10 * mean_q
    assert abs(mean_q - 3.2) <= 0.25 * 3.2


# ---------------------------------------------------------------------------
# config validation


def test_simulate_refuses_a_fractional_seed():
    # a seed of 1.7 would otherwise draw seed 1's streams under a record stamped 1.7
    cfg = SystemConfig(n=4, alpha=1.0, mu=1.0, beta=0.0,
                       arrival=DistributionSpec.exponential(1.0),
                       service=DistributionSpec.exponential(1.0), patience=None,
                       horizon=1.0, abandon=False)
    with pytest.raises(ValueError, match="seed must be an integer, got 1.7"):
        simulate(cfg, 1.7)
    with pytest.raises(ValueError, match="replication must be an integer, got 0.5"):
        simulate(cfg, 1, 0.5)


@pytest.mark.parametrize("patch,message", [
    ({"alpha": -0.5}, r"alpha must lie in \[0, 1\]"),
    ({"alpha": 1.5}, r"alpha must lie in \[0, 1\]"),
    ({"mu": 0.0}, "mu and horizon must be positive, got 0.0 and 10.0"),
    ({"horizon": -1.0}, "mu and horizon must be positive, got 1.0 and -1.0"),
    ({"arrival": DistributionSpec.exponential(0.5)}, "base interarrival law must have mean 1"),
    ({"n": 10**9}, "gives 1000000000 servers"),
    ({"horizon": 1e9}, r"horizon = 1e\+11; each must be at most 16777216"),
    ({"xi": 1e12}, r"horizon = 1e\+13; each must be at most 16777216"),
], ids=["alpha-below-0", "alpha-above-1", "zero-mu", "negative-horizon", "arrival-mean-2",
        "huge-n", "huge-horizon", "huge-xi"])
def test_config_refuses_bad_scalars_and_oversized_systems(patch, message):
    # an oversized system was accepted, to fail only inside simulate's draws
    exp1 = DistributionSpec.exponential(1.0)
    base = dict(n=100, alpha=1.0, mu=1.0, beta=0.0, arrival=exp1, service=exp1,
                patience=None, horizon=10.0, abandon=False)
    with pytest.raises(ValueError, match=message):
        SystemConfig(**{**base, **patch})


@pytest.mark.parametrize("xi", [-1e308, 1e308])
def test_config_refuses_an_overflowing_xi(xi):
    # sqrt(16) * -1e308 is -inf, which initial_head_count's math.ceil turned
    # into an OverflowError
    exp1 = DistributionSpec.exponential(1.0)
    with pytest.raises(ValueError, match=r"sqrt\(n\) \* xi must be finite, got sqrt\(16\)"):
        SystemConfig(n=16, alpha=1.0, mu=1.0, beta=0.0, arrival=exp1, service=exp1,
                     patience=None, horizon=10.0, xi=xi, abandon=False)


def test_config_validation():
    with pytest.raises(ValueError, match="exponential service"):
        SystemConfig(n=4, alpha=0.5, mu=1.0, beta=0.0,
                     arrival=DistributionSpec.exponential(1.0),
                     service=DistributionSpec.deterministic(1.0),
                     patience=None, horizon=1.0, abandon=False)
    with pytest.raises(ValueError, match="service mean"):
        SystemConfig(n=4, alpha=0.5, mu=1.0, beta=0.0,
                     arrival=DistributionSpec.exponential(1.0),
                     service=DistributionSpec.exponential(2.0),
                     patience=None, horizon=1.0, abandon=False)
    with pytest.raises(ValueError, match="service mean"):
        SystemConfig(n=4, alpha=1.0, mu=2.0, beta=0.0,
                     arrival=DistributionSpec.exponential(1.0),
                     service=DistributionSpec.exponential(1.0),
                     patience=None, horizon=1.0, abandon=False)
    with pytest.raises(ValueError, match="patience"):
        SystemConfig(n=4, alpha=1.0, mu=1.0, beta=0.0,
                     arrival=DistributionSpec.exponential(1.0),
                     service=DistributionSpec.exponential(1.0),
                     patience=None, horizon=1.0, abandon=True)
    with pytest.raises(ValueError, match="negative"):
        SystemConfig(n=4, alpha=1.0, mu=1.0, beta=0.0,
                     arrival=DistributionSpec.exponential(1.0),
                     service=DistributionSpec.exponential(1.0),
                     patience=None, horizon=1.0, xi=-5.0, abandon=False)
    cfg = mmn_config(4)
    d = cfg.to_dict()
    assert SystemConfig.from_dict(d) == cfg
    with pytest.raises(ValueError, match="unknown keys in config"):
        SystemConfig.from_dict({**d, "extra": 1})
    assert len(cfg.hash()) == 12
    # one scalar rule for the dataclass and from_dict: n is a count, the other
    # scalars finite numbers, abandon a bool; nothing is coerced
    for key, bad, message in [("n", 16.7, "n must be an integer, got 16.7"),
                              ("n", True, "n must be a finite number, got True"),
                              ("abandon", "false", "abandon must be true or false, got 'false'"),
                              ("horizon", True, "horizon must be a finite number, got True")]:
        with pytest.raises(ValueError, match=f"^{message}$"):
            dataclasses.replace(cfg, **{key: bad})
        with pytest.raises(ValueError, match=f"^{message}$"):
            SystemConfig.from_dict({**d, key: bad})
    for whole in (dataclasses.replace(cfg, n=16.0), SystemConfig.from_dict({**d, "n": 16.0})):
        assert type(whole.n) is int and whole.n == 16 and whole.servers == 16
        assert whole == mmn_config(16) and whole.hash() == mmn_config(16).hash()


# ---------------------------------------------------------------------------
# tie rules (stated in the simulator module docstring)


def test_tie_patience_expiry_within_window_still_enters():
    # unit arrivals, service 1.5: customer 1 arrives at 2 and its server
    # frees at 2.5; patience expiring just before 2.5 decides the outcome
    def run(gamma):
        cfg = dd1_config(1.5, horizon=4.0, abandon=True,
                         patience=PatienceSpec.no_scaling(DistributionSpec.deterministic(gamma)))
        rec = simulate(cfg, seed=0)
        free = rec.completion_times[0]
        return rec, free - (rec.arrival_times[1] + gamma)

    rec, gap = run(0.5 - 5e-13)
    assert 0.0 < gap <= TIE_WINDOW
    assert rec.outcomes[1] == OUTCOME_SERVED
    assert rec.entry_times[1] == rec.completion_times[0]
    rec, gap = run(0.5 - 5e-12)
    assert gap > TIE_WINDOW
    assert rec.outcomes[1] == OUTCOME_ABANDONED
    assert rec.abandon_times[1] == rec.arrival_times[1] + rec.patience_times[1]


def test_tie_no_start_before_server_frees():
    # service exceeds the unit interarrival by 5e-13 < TIE_WINDOW: each
    # arrival finds the server busy for a moment longer
    rec = simulate(dd1_config(1.0 + 5e-13, horizon=6.0), seed=0)
    served = np.isfinite(rec.completion_times)
    assert np.count_nonzero(served) >= 4
    entry, done = rec.entry_times[1:], rec.completion_times[:-1]
    both = np.isfinite(entry) & np.isfinite(done)
    assert np.all(entry[both] == done[both])
    entered = np.isfinite(rec.entry_times)
    assert np.all(rec.entry_times[entered] >= rec.arrival_times[entered])
    # the event heap anchored a tie batch at the arrival and started early
    old = heap_simulate(rec.config, seed=0)
    assert old.entry_times[1] < old.completion_times[0]


def test_tie_horizon_records_only_events_up_to_T():
    # arrivals every 0.1 on one busy server; the arrival at 4.000000000000002
    # would abandon at 5.000000000000002, just past T = 5
    cfg = SystemConfig(
        n=1, alpha=1.0, mu=0.2, beta=49.0,
        arrival=DistributionSpec.deterministic(1.0),
        service=DistributionSpec.deterministic(5.0),
        patience=PatienceSpec.no_scaling(DistributionSpec.deterministic(1.0)),
        horizon=5.0, xi=-1.0, abandon=True,
    )
    rec = simulate(cfg, seed=0)
    late = np.flatnonzero(rec.arrival_times + rec.patience_times > 5.0)
    assert late.size and rec.arrival_times[late[0]] + 1.0 - 5.0 < TIE_WINDOW
    assert rec.event_times.max() <= 5.0
    assert rec.outcomes[late[0]] == OUTCOME_WAITING
    assert np.isnan(rec.abandon_times[late[0]])
    assert rec.balance_gap() == 0.0
    # the event heap pulled that abandonment into a batch anchored before T
    assert heap_simulate(cfg, seed=0).event_times.max() > 5.0


# ---------------------------------------------------------------------------
# differential oracle: the FCFS recursion against the event heap

_FAMILIES = ("exponential", "deterministic", "erlang", "hyperexponential",
             "lognormal", "uniform")
_RECORD_ARRAYS = ("event_times", "event_kinds", "event_ids", "arrival_times",
                  "patience_times", "service_times", "entry_times",
                  "completion_times", "abandon_times", "outcomes")


def _law(family: str, mean: float) -> DistributionSpec:
    if family == "exponential":
        return DistributionSpec.exponential(1.0 / mean)
    if family == "deterministic":
        return DistributionSpec.deterministic(mean)
    if family == "erlang":
        return DistributionSpec.erlang(3, 3.0 / mean)
    if family == "hyperexponential":
        return DistributionSpec.hyperexponential([0.25, 0.75], [0.5 / mean, 1.5 / mean])
    if family == "lognormal":
        return DistributionSpec.lognormal(math.log(mean) - 0.5 * 0.8**2, 0.8)
    return DistributionSpec.uniform(0.5 * mean, 1.5 * mean)


@st.composite
def _configs(draw):
    alpha = draw(st.sampled_from([1.0, 0.75, 0.5]))
    mu = draw(st.sampled_from([0.5, 1.0, 2.0]))
    families = st.sampled_from(_FAMILIES)
    service = _law(draw(families), 1.0 / mu) if alpha == 1.0 else DistributionSpec.exponential(mu)
    return SystemConfig(
        n=draw(st.integers(1, 50)), alpha=alpha, mu=mu,
        beta=draw(st.sampled_from([-0.5, 0.0, 1.0])),
        arrival=_law(draw(families), 1.0),
        service=service,
        patience=PatienceSpec.no_scaling(
            _law(draw(families), draw(st.sampled_from([0.25, 1.0, 2.0])))),
        horizon=draw(st.sampled_from([1.0, 2.5, 6.0])),
        xi=draw(st.sampled_from([-1.0, -0.5, 0.5, 2.0])),
        abandon=draw(st.booleans()),
    )


def _over_generated_configs(test):
    """Run a test over 120 generated configs and seeds, plus one of lattice ties."""
    # arrivals every 1/16 and services of 1 on 16 servers: 30 epochs where an
    # arrival and a completion tie exactly
    test = example(cfg=SystemConfig(
        n=16, alpha=1.0, mu=1.0, beta=0.0,
        arrival=DistributionSpec.deterministic(1.0),
        service=DistributionSpec.deterministic(1.0),
        patience=PatienceSpec.no_scaling(DistributionSpec.deterministic(0.25)),
        horizon=4.0, xi=0.5, abandon=True), seed=0)(test)
    test = given(cfg=_configs(), seed=st.integers(0, 10_000))(test)
    return settings(max_examples=120, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])(test)


@_over_generated_configs
def test_recursion_matches_event_heap(cfg, seed):
    new = simulate(cfg, seed=seed, replication=1)
    old = heap_simulate(cfg, seed=seed, replication=1)
    assert new.balance_gap() == 0.0 and old.balance_gap() == 0.0
    # waits read off the recursion are finite, and equal the event-log
    # replays wherever a replay ends within the horizon
    grid = np.linspace(0.0, cfg.horizon, 65)
    for got, (want, _) in ((offered_waits(new), replay_offered_waits(new)),
                           (virtual_wait_path(new, grid), replay_virtual_wait_path(new, grid))):
        assert np.all(np.isfinite(got))
        ok = np.isfinite(want)
        np.testing.assert_array_equal(got[ok], want[ok])
    # X is built as x0 + E - S - G, so balance_gap cannot see a fault in that
    # assembly; the head count replayed from the event log, a separate path,
    # checks it, ties included
    tx, vx = head_count_from_log(new)
    np.testing.assert_array_equal(new.X.times, tx)
    np.testing.assert_array_equal(new.X.values, vx)
    lattice = "deterministic" in (cfg.arrival.family, cfg.effective_service().family)
    if not lattice:
        for name in _RECORD_ARRAYS:
            a, b = getattr(new, name), getattr(old, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            np.testing.assert_array_equal(a, b, err_msg=name)
        # the heap's own log gives X independently of the library's log
        tx, vx = head_count_from_log(old)
        np.testing.assert_array_equal(new.X.times, tx)
        np.testing.assert_array_equal(new.X.values, vx)
        return
    # lattice laws tie exactly; the records agree up to the tie window, and
    # outcomes only differ for customers with an event near the horizon
    T = cfg.horizon
    np.testing.assert_array_equal(new.arrival_times, old.arrival_times)
    near = np.zeros(new.customers, dtype=bool)
    for rec in (new, old):
        for t in (rec.entry_times, rec.completion_times, rec.abandon_times,
                  rec.entry_times + rec.service_times,
                  rec.arrival_times + rec.patience_times):
            near |= np.abs(t - T) <= TIE_WINDOW
    np.testing.assert_array_equal(new.outcomes[~near], old.outcomes[~near])
    for name in ("entry_times", "completion_times", "abandon_times"):
        a, b = getattr(new, name)[~near], getattr(old, name)[~near]
        np.testing.assert_array_equal(np.isnan(a), np.isnan(b), err_msg=name)
        ok = ~np.isnan(a)
        assert np.all(np.abs(a[ok] - b[ok]) <= TIE_WINDOW), name


@_over_generated_configs
def test_merged_paths_match_union_oracles(cfg, seed):
    # X from one merge of the counting paths' breakpoints, and the coupling
    # gap without a union of breakpoints, bit for bit against the union forms
    rec = simulate(cfg, seed=seed, replication=1)
    for name, got, want in zip("XESG", (rec.X, rec.E, rec.S, rec.G), union_paths(rec)):
        for a, b in ((got.times, want.times), (got.values, want.values)):
            np.testing.assert_array_equal(a, b, err_msg=name)
            np.testing.assert_array_equal(np.signbit(a), np.signbit(b), err_msg=name)
    bundle = scale(rec)
    assert coupling_gap(bundle) == union_coupling_gap(bundle)
