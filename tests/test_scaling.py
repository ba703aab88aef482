"""Scaling-transform checks: definitions, exact compensator, balance identity."""

import dataclasses
import math

import numpy as np
import pytest

import httq.scaling
from httq.distributions import DistributionSpec
from httq.paths import step_path, uniform_grid
from httq.patience import PatienceSpec
from httq.scaling import abandonment_compensator, scale, scaled_primitives
from httq.simulator import SystemConfig, simulate


def overloaded_config(n: int = 25, horizon: float = 10.0) -> SystemConfig:
    return SystemConfig(
        n=n, alpha=1.0, mu=1.0, beta=1.0,
        arrival=DistributionSpec.exponential(1.0),
        service=DistributionSpec.exponential(1.0),
        patience=PatienceSpec.no_scaling(DistributionSpec.exponential(2.0)),
        horizon=horizon, xi=0.0, abandon=True,
    )


def test_grid_past_horizon_is_scales_own_error():
    rec = simulate(overloaded_config(horizon=5.0), seed=2)
    for bad in ([0.0, 2.5, 5.0 + 5e-13], [-1e-13, 2.5, 5.0]):
        with pytest.raises(ValueError, match="record's \\[0, horizon\\]"):
            scale(rec, grid=np.array(bad))
    b = scale(rec, grid=np.array([0.0, 2.5, 5.0]))
    assert b.omega.size == 3


def test_empty_record_scales_to_drift_only():
    cfg = SystemConfig(
        n=4, alpha=1.0, mu=1.0, beta=0.0,
        arrival=DistributionSpec.deterministic(1.0),
        service=DistributionSpec.exponential(1.0),
        patience=None, horizon=0.2, xi=-2.0, abandon=False,
    )
    rec = simulate(cfg, seed=1)
    grid = uniform_grid(0.2, 0.01)
    b = scale(rec, grid=grid)
    E, S, G_hat = scaled_primitives(rec, b)
    assert b.X.sup_norm() == pytest.approx(2.0)  # (0 - 4)/sqrt(4) = -2 throughout
    assert b.Q.sup_norm() == 0.0
    assert b.G.sup_norm() == 0.0
    assert S.sup_norm() == 0.0
    np.testing.assert_allclose(E.values, -cfg.lambda_n * grid / 2.0, atol=1e-12)
    assert G_hat.sup_norm() == 0.0
    np.testing.assert_allclose(b.omega, 0.0, atol=0)


def test_zero_limit_slope_keeps_g_hat_equal_to_g():
    # deterministic patience has F'(0) = 0, so f == 0 while abandonments occur
    cfg = SystemConfig(
        n=25, alpha=1.0, mu=1.0, beta=1.0,
        arrival=DistributionSpec.exponential(1.0),
        service=DistributionSpec.exponential(1.0),
        patience=PatienceSpec.no_scaling(DistributionSpec.deterministic(0.3)),
        horizon=10.0, xi=0.0, abandon=True,
    )
    rec = simulate(cfg, seed=8)
    assert rec.G(10.0) > 0
    b = scale(rec)
    _, _, G_hat = scaled_primitives(rec, b)
    np.testing.assert_allclose(G_hat.values, b.G.sampled(b.grid), atol=1e-12)
    assert b.compensator.sup_norm() == 0.0


def test_one_step_compensator_hand_value():
    theta, q, mu = 0.7, 1.9, 1.3
    q_t = step_path([0.0, 1.0], [q, 0.0], 2.0)
    comp = abandonment_compensator(q_t, lambda x: theta * np.asarray(x), mu)
    assert comp(2.0) == pytest.approx(theta * q, abs=1e-12)
    assert comp(0.5) == pytest.approx(theta * q * 0.5, abs=1e-12)
    # midpoint quadrature cross-check
    mids = np.arange(0.0005, 2.0, 0.001)
    approx = mu * np.sum(theta * q_t.sampled(mids) / mu) * 0.001
    assert comp(2.0) == pytest.approx(approx, rel=1e-6)
    assert comp(2.0) == pytest.approx(
        abandonment_compensator(q_t, None, mu)(2.0) + theta * q
    )


def test_scaling_is_linear_in_counts():
    rec = simulate(overloaded_config(), seed=3)
    doubled = dataclasses.replace(rec, G=rec.G.scale(2.0))
    b1 = scale(rec)
    b2 = scale(doubled)
    np.testing.assert_allclose(b2.G.values, 2.0 * b1.G.values, atol=0)
    n4 = 4 * rec.config.n
    np.testing.assert_allclose(
        rec.G.values / math.sqrt(n4),
        scale(dataclasses.replace(rec, config=dataclasses.replace(rec.config, n=n4))).G.values,
        atol=0,
    )


def test_q_is_positive_part_of_x():
    b = scale(simulate(overloaded_config(), seed=5))
    np.testing.assert_allclose(b.Q.values, np.maximum(b.X.values, 0.0), atol=0)
    t = np.linspace(0, 10, 257)
    np.testing.assert_allclose(b.Q.sampled(t), np.maximum(b.X.sampled(t), 0.0), atol=0)


def test_balance_identity_on_grid():
    cfg = overloaded_config(n=100)
    rec = simulate(cfg, seed=11)
    b = scale(rec)
    E, S, _ = scaled_primitives(rec, b)
    sqn = math.sqrt(cfg.n)
    busy = rec.X.map_values(lambda v: np.minimum(v, float(cfg.servers)))
    drift = (cfg.lambda_n * b.grid - cfg.mu_n * busy.cumulative_integral().sampled(b.grid)) / sqn
    lhs = b.X.sampled(b.grid)
    rhs = b.X(0.0) + E.values - S.values - b.G.sampled(b.grid) + drift
    np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_compensator_monotone_and_lipschitz():
    cfg = overloaded_config()
    rec = simulate(cfg, seed=7)
    b = scale(rec)
    comp = b.compensator
    dv = np.diff(comp.values)
    assert np.all(dv >= -1e-15)
    f = cfg.patience.limit_function()
    bound = cfg.mu * float(np.max(f(b.Q.values / cfg.mu)))
    dt = np.diff(comp.times)
    ok = dt > 0
    assert np.max(dv[ok] / dt[ok]) <= bound + 1e-12


def test_omega_scaling():
    cfg = overloaded_config(n=9, horizon=4.0)
    rec = simulate(cfg, seed=2)
    grid = uniform_grid(4.0, 0.5)
    b = scale(rec, grid=grid)
    from httq.simulator import virtual_wait_path

    np.testing.assert_allclose(b.omega, 3.0 * virtual_wait_path(rec, grid), atol=0)
    assert np.all(np.isfinite(b.omega))


def test_grid_beyond_horizon_rejected():
    rec = simulate(overloaded_config(horizon=5.0), seed=1)
    with pytest.raises(ValueError, match="beyond"):
        scale(rec, grid=np.linspace(0.0, 6.0, 10))


@pytest.mark.parametrize("bad,match", [
    ([], "non-empty 1-d"),
    ([[0.0, 1.0]], "non-empty 1-d"),
    ([0.5, 1.0], "start at 0"),
    ([0.0, 2.0, 1.0], "strictly increase"),
    ([0.0, 1.0, 1.0], "strictly increase"),
    ([0.0, np.nan], "strictly increase"),
])
def test_bad_grid_rejected_before_any_path(monkeypatch, bad, match):
    rec = simulate(overloaded_config(horizon=5.0), seed=1)

    def no_paths(*args, **kwargs):
        raise AssertionError("a path was built before the grid was checked")

    monkeypatch.setattr(httq.scaling, "linear_path", no_paths)
    monkeypatch.setattr(httq.scaling, "virtual_wait_path", no_paths)
    with pytest.raises(ValueError, match=match):
        scale(rec, grid=np.array(bad))
