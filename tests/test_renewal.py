"""Renewal function solver and equilibrium distributions."""

import math

import numpy as np
import pytest
from oracles import (
    equilibrium_cdf_quadrature,
    erlang2_renewal_closed_form,
    mc_renewal_function,
    per_step_trapezoid_residual,
)

from httq.distributions import CACHE_SIZE, DistributionSpec
from httq.renewal import (
    RenewalTable,
    _renewal_table,
    compute_renewal_function,
    equilibrium_distribution,
)
from httq.streams import make_rng


def test_exponential_renewal_is_linear():
    # Poisson counting: M(t) = mu * t exactly.  Default step gives ~3e-4
    # (second-order quadrature); step 2e-3 reaches the 1e-4 band.
    mu = 2.0
    H = DistributionSpec.exponential(mu)
    tab = compute_renewal_function(H, horizon=10.0 / mu)
    assert np.max(np.abs(tab.values - mu * tab.times)) <= 5e-4
    assert tab.residual() <= 1e-10
    fine = compute_renewal_function(H, horizon=10.0 / mu, step=2e-3)
    assert np.max(np.abs(fine.values - mu * fine.times)) <= 1e-4


def test_deterministic_renewal_exact_lattice():
    v = 0.4
    tab = compute_renewal_function(DistributionSpec.deterministic(v), horizon=5.0)
    assert tab.method == "lattice"
    expect = np.floor((tab.times + 1e-12) / v)
    np.testing.assert_array_equal(tab.values, expect)
    # Right-continuity at a lattice point on the grid: t = 2v.
    assert tab.values_on(np.array([0.8]))[0] == 2.0
    assert tab.residual() == 0.0


def test_erlang2_renewal_matches_closed_form_and_mc():
    mu = 1.0
    H = DistributionSpec.erlang(2, 2.0 * mu)
    tab = compute_renewal_function(H, horizon=10.0)
    closed = erlang2_renewal_closed_form(mu, tab.times)
    assert np.max(np.abs(tab.values - closed)) <= 2e-4

    eval_t = np.array([1.0, 4.0, 10.0])
    mc, se = mc_renewal_function(H.sample, eval_t, n_paths=40_000, rng=make_rng(100, 0, "scratch"))
    num = tab.values_on(eval_t)
    assert np.all(np.abs(num - mc) <= 4.0 * se + 1e-4)


def test_long_run_rate():
    for H in [
        DistributionSpec.uniform(0.0, 2.0),
        DistributionSpec.hyperexponential([0.4, 0.6], [0.5, 2.0]),
        DistributionSpec.erlang(3, 3.0),
    ]:
        mu = 1.0 / H.mean()
        T = 40.0 / mu
        tab = compute_renewal_function(H, horizon=T, step=min(1e-2, H.mean() / 20))
        assert tab.values[-1] / T == pytest.approx(mu, rel=0.02)


def test_refining_step_converges():
    H = DistributionSpec.uniform(0.0, 2.0)
    t_eval = np.array([0.5, 1.5, 3.0])
    prev_err = None
    vals_fine = compute_renewal_function(H, horizon=3.0, step=1e-3).values_on(t_eval)
    for step in (1e-2, 5e-3, 2.5e-3):
        vals = compute_renewal_function(H, horizon=3.0, step=step).values_on(t_eval)
        err = np.max(np.abs(vals - vals_fine))
        if prev_err is not None:
            assert err < prev_err
        prev_err = err
    assert prev_err <= 1e-4


@pytest.mark.parametrize("rate", [1.0, 10.0])
@pytest.mark.parametrize("asked", [0.07, 0.05, 0.0195, "cap", "cap/3"])
def test_step_over_the_cap_is_divided_by_the_least_integer(rate, asked):
    H = DistributionSpec.exponential(rate)
    cap = min(1e-2, H.mean() / 20.0)
    asked = {"cap": cap, "cap/3": cap / 3.0}.get(asked, asked)
    T = 1.0
    table = compute_renewal_function(H, T, step=asked)
    assert table.step <= cap
    k = round(asked / table.step)
    assert k >= 1 and asked / k == table.step
    if k > 1:  # k is the least integer that brings the step under the cap
        assert asked / (k - 1) > cap + 1e-15
    else:  # a step the cap admits is kept, and so is its table
        assert table.step == asked and table is _renewal_table(H, T, asked)
    multiples = asked * np.arange(math.floor(T / asked) + 1)
    on_lattice = table.values[k * np.arange(multiples.size)]
    np.testing.assert_array_equal(table.values_on(multiples), on_lattice)


def test_worked_out_steps_share_one_table():
    # 0.07 / 0.01 is 7.000000000000001 in floats, yet 7 brings it under the cap
    H = DistributionSpec.exponential(1.0)
    assert compute_renewal_function(H, 1.0, step=0.07).step == 0.01
    table = compute_renewal_function(H, 1.0, step=0.01)
    assert compute_renewal_function(H, 1.0, step=0.05) is table


@pytest.mark.parametrize(
    "H",
    [
        DistributionSpec.exponential(1.0),
        DistributionSpec.erlang(3, 3.0),
        DistributionSpec.lognormal(-0.32, 0.8),
        DistributionSpec.hyperexponential([0.3, 0.7], [0.5, 3.0]),
        DistributionSpec.uniform(0.0, 2.0),
    ],
    ids=lambda h: h.family,
)
def test_trapezoid_residual_matches_the_per_step_oracle(H):
    table = compute_renewal_function(H, 10.0)
    assert table.method == "trapezoid"
    bound = 1e-15 * max(1.0, float(table.values[-1]))
    assert abs(table.residual() - per_step_trapezoid_residual(table)) <= bound


def test_grid_alignment_contract():
    tab = compute_renewal_function(DistributionSpec.exponential(1.0), horizon=2.0, step=0.01)
    sub = np.array([0.0, 0.05, 0.1, 2.0])
    vals = tab.values_on(sub)
    assert vals.shape == sub.shape
    inc = tab.increments_on(sub)
    np.testing.assert_allclose(np.cumsum(inc), vals[1:] - vals[0], atol=1e-12)
    with pytest.raises(ValueError, match="not aligned"):
        tab.values_on(np.array([0.013]))
    with pytest.raises(ValueError, match="past the renewal table's horizon"):
        tab.values_on(np.array([0.0, 2.01]))


def test_equilibrium_exponential_is_itself():
    H = DistributionSpec.exponential(3.0)
    he = equilibrium_distribution(H)
    assert he is H
    xs = np.linspace(0.0, 3.0, 31)
    np.testing.assert_allclose(he.cdf(xs), H.cdf(xs), atol=1e-12)


def test_equilibrium_deterministic_is_uniform():
    he = equilibrium_distribution(DistributionSpec.deterministic(0.5))
    assert he == DistributionSpec.uniform(0.0, 0.5)
    xs = np.linspace(0.0, 0.5, 11)
    np.testing.assert_allclose(he.cdf(xs), xs / 0.5, atol=1e-12)
    x = he.sample(make_rng(5, 0, "initial"), 50_000)
    assert np.all((x >= 0) & (x <= 0.5))
    assert x.mean() == pytest.approx(0.25, abs=0.005)


@pytest.mark.parametrize(
    "H",
    [
        DistributionSpec.erlang(2, 2.0),
        DistributionSpec.hyperexponential([0.3, 0.7], [0.4, 2.0]),
        DistributionSpec.lognormal(-0.3, 0.7),
        DistributionSpec.uniform(0.5, 1.5),
    ],
    ids=lambda h: h.family,
)
def test_equilibrium_table_matches_quadrature_oracle(H):
    he = equilibrium_distribution(H)
    xs = np.linspace(0.05, 4.0 * H.mean(), 17)
    oracle = equilibrium_cdf_quadrature(H.cdf, H.mean(), xs)
    np.testing.assert_allclose(he.cdf(xs), oracle, atol=1e-6)


def test_equilibrium_table_is_built_once_per_law():
    he = equilibrium_distribution(DistributionSpec.lognormal(-0.3, 0.7))
    assert equilibrium_distribution(DistributionSpec.lognormal(-0.3, 0.7)) is he
    assert equilibrium_distribution(DistributionSpec.lognormal(-0.3, 0.8)) is not he
    # shared between callers, so nobody may write into it
    assert not he.xs.flags.writeable and not he.cs.flags.writeable


@pytest.mark.parametrize(
    "H",
    [DistributionSpec.erlang(2, 2.0), DistributionSpec.lognormal(-0.3, 0.7)],
    ids=lambda h: h.family,
)
def test_equilibrium_sampler_matches_cdf(H):
    he = equilibrium_distribution(H)
    x = he.sample(make_rng(6, 0, "initial"), 100_000)
    xs = np.sort(x)
    emp = np.arange(1, xs.size + 1) / xs.size
    d = np.max(np.abs(np.asarray(he.cdf(xs)) - emp))
    assert d <= 0.01


def test_tables_compare_and_hash_by_content():
    H = DistributionSpec.erlang(2, 2.0)
    a = compute_renewal_function(H, horizon=2.0, step=0.01)
    b = RenewalTable(H, a.times.copy(), a.values.copy(), a.step, a.method)
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != compute_renewal_function(H, horizon=2.0, step=0.005)
    assert a != compute_renewal_function(DistributionSpec.erlang(2, 3.0), horizon=2.0, step=0.01)
    with pytest.raises(ValueError, match="read-only"):
        a.values[1] = 0.0


def test_tables_are_built_once_per_law_horizon_and_step():
    H = DistributionSpec.erlang(2, 2.0)  # mean 1, so the default step is 0.01
    a = compute_renewal_function(H, horizon=2.0, step=0.01)
    assert compute_renewal_function(H, 2.0, 0.01) is a
    assert compute_renewal_function(DistributionSpec.erlang(2, 2.0), 2, step=0.01) is a
    assert compute_renewal_function(H, horizon=2.0) is a
    for k in range(CACHE_SIZE + 3):
        compute_renewal_function(H, horizon=0.5 + 0.1 * k)
    assert _renewal_table.cache_info().currsize <= CACHE_SIZE
