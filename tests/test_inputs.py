"""Distribution families, random streams, and patience scaling."""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from scipy import stats

from httq.distributions import DistributionSpec
from httq.patience import (
    PatienceSpec,
    _CumHazard,
    _cum_hazard,
    constant_hazard,
    power_limit,
    ramp_hazard,
)
from httq.simulator import SystemConfig
from httq.streams import BLOCK, PURPOSES, draw_blocks, make_rng

from oracles import limit_f

FAMILIES = [
    DistributionSpec.exponential(2.0),
    DistributionSpec.deterministic(0.7),
    DistributionSpec.erlang(3, 4.0),
    DistributionSpec.hyperexponential([0.3, 0.7], [0.5, 3.0]),
    DistributionSpec.lognormal(-0.5, 0.8),
    DistributionSpec.uniform(0.0, 2.0),
]


# -- distribution families -----------------------------------------------------


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
def test_sample_moments_match_declared(spec):
    # LLN oracle: empirical mean/var within 5 sigma bands at N = 200k.
    rng = make_rng(1, 0, "scratch")
    N = 200_000
    x = spec.sample(rng, N)
    assert np.all(x >= 0)
    se_mean = math.sqrt(max(spec.var(), 1e-30) / N)
    assert abs(x.mean() - spec.mean()) <= 5 * se_mean + 1e-12
    if spec.var() > 0:
        m4 = np.mean((x - x.mean()) ** 4)
        se_var = math.sqrt(max(m4 - spec.var() ** 2, 0.0) / N)
        assert abs(x.var() - spec.var()) <= 5 * se_var


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
def test_samples_match_cdf(spec):
    rng = make_rng(2, 0, "scratch")
    x = spec.sample(rng, 100_000)
    if spec.family == "deterministic":
        assert np.all(x == spec["value"])
        return
    d = stats.kstest(x, spec.cdf).statistic
    assert d <= 0.01


@pytest.mark.parametrize("spec", FAMILIES, ids=lambda s: s.family)
def test_cdf_shape_and_range(spec):
    xs = np.linspace(-1.0, 20.0, 2001)
    c = spec.cdf(xs)
    assert np.all(np.diff(c) >= -1e-12)
    assert np.all((c >= 0) & (c <= 1))
    assert spec.cdf(-1e-9) == 0.0
    assert spec.cdf(0.0) == 0.0  # no atom at the origin for valid specs


def test_density_at_zero_values():
    assert DistributionSpec.exponential(2.5).density_at_zero() == 2.5
    assert DistributionSpec.uniform(0.0, 4.0).density_at_zero() == 0.25
    assert DistributionSpec.uniform(0.5, 4.0).density_at_zero() == 0.0
    assert DistributionSpec.erlang(1, 3.0).density_at_zero() == 3.0
    assert DistributionSpec.erlang(2, 3.0).density_at_zero() == 0.0
    assert DistributionSpec.lognormal(0.0, 1.0).density_at_zero() == 0.0
    assert DistributionSpec.deterministic(1.0).density_at_zero() == 0.0
    h = DistributionSpec.hyperexponential([0.5, 0.5], [1.0, 3.0])
    assert h.density_at_zero() == pytest.approx(2.0)


def test_density_at_zero_matches_finite_difference():
    eps = 1e-7
    for spec in FAMILIES:
        fd = float(spec.cdf(eps)) / eps
        assert fd == pytest.approx(spec.density_at_zero(), abs=1e-4)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        DistributionSpec.exponential(0.0)
    with pytest.raises(ValueError):
        DistributionSpec.deterministic(0.0)
    with pytest.raises(ValueError):
        DistributionSpec.erlang(0, 1.0)
    with pytest.raises(ValueError):
        DistributionSpec.hyperexponential([0.5, 0.6], [1.0, 2.0])
    with pytest.raises(ValueError):
        DistributionSpec.uniform(-0.1, 1.0)
    with pytest.raises(ValueError):
        DistributionSpec.from_dict({"family": "exponential", "rate": 1.0, "typo": 2})
    with pytest.raises(ValueError):
        DistributionSpec.from_dict({"family": "weibull", "rate": 1.0})


def test_dict_round_trip():
    for spec in FAMILIES:
        assert DistributionSpec.from_dict(spec.to_dict()) == spec


# -- arrival spec ----------------------------------------------------------------


def _system(n, mu, beta, arrival=DistributionSpec.exponential(1.0)):
    return SystemConfig(n=n, alpha=1.0, mu=mu, beta=beta, arrival=arrival,
                        service=DistributionSpec.exponential(mu), patience=None,
                        horizon=1.0, abandon=False)


def test_arrival_spec_requires_mean_one():
    _system(4, 1.0, 0.0, DistributionSpec.exponential(1.0))
    _system(4, 1.0, 0.0, DistributionSpec.erlang(2, 2.0))
    with pytest.raises(ValueError, match="base interarrival law must have mean 1"):
        _system(4, 1.0, 0.0, DistributionSpec.exponential(2.0))


def test_arrival_rate_heavy_traffic_identity():
    # beta^n = sqrt(n) (lambda^n/(n mu) - 1) must equal beta exactly.
    for n in (25, 100, 1600):
        for beta, mu in ((-1.0, 1.0), (0.5, 2.0), (0.0, 0.5)):
            lam = _system(n, mu, beta).lambda_n
            assert math.sqrt(n) * (lam / (n * mu) - 1.0) == pytest.approx(beta, abs=1e-12)
    with pytest.raises(ValueError):
        _system(4, 1.0, -3.0)


def test_arrival_sampler_mean():
    a = DistributionSpec.uniform(0.5, 1.5)
    lam = _system(100, 1.0, 0.0, a).lambda_n
    x = a.sample(make_rng(3, 0, "arrivals"), 50_000) / lam
    assert x.mean() == pytest.approx(1.0 / 100.0, rel=5e-3)


# -- random streams ----------------------------------------------------------------


def test_streams_reproducible_and_distinct():
    a1 = make_rng(7, 0, "arrivals").random(1000)
    a2 = make_rng(7, 0, "arrivals").random(1000)
    np.testing.assert_array_equal(a1, a2)
    b = make_rng(7, 0, "services").random(1000)
    c = make_rng(7, 1, "arrivals").random(1000)
    d = make_rng(8, 0, "arrivals").random(1000)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, c)
    assert not np.array_equal(a1, d)


def test_stream_purpose_registry():
    with pytest.raises(ValueError):
        make_rng(1, 0, "nonsense")
    assert "patience" in PURPOSES


@pytest.mark.parametrize("seed,replication,message", [
    (1.7, 0, "seed must be an integer, got 1.7"),
    (True, 0, "seed must be a finite number, got True"),
    (-1, 0, "seed must be >= 0, got -1"),
    (1, 1.5, "replication must be an integer, got 1.5"),
    (1, True, "replication must be a finite number, got True"),
    (1, -1, "replication must be >= 0, got -1"),
])
def test_stream_addresses_obey_the_count_rule(seed, replication, message):
    # no address is truncated onto another stream's
    with pytest.raises(ValueError, match=message):
        make_rng(seed, replication, "arrivals")


def test_integral_float_address_is_the_int_stream():
    np.testing.assert_array_equal(make_rng(2.0, 3.0, "services").random(8),
                                  make_rng(2, 3, "services").random(8))


def test_streams_pairwise_correlation_small():
    # Independence probe: correlations across purposes/replications ~ N(0, 1/sqrt(N)).
    n = 100_000
    xs = [
        make_rng(11, r, p).random(n)
        for r in (0, 1)
        for p in ("arrivals", "services", "patience", "gaussian")
    ]
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            rho = np.corrcoef(xs[i], xs[j])[0, 1]
            assert abs(rho) < 5 / math.sqrt(n)


def test_block_sampler_matches_bulk_draw():
    # draw_blocks returns the first `count` variates of repeated BLOCK-sized
    # calls, over several blocks, for every family
    assert BLOCK == 4096
    count = 2 * BLOCK + 123
    for spec in FAMILIES:
        got = draw_blocks(make_rng(9, 0, "services"), spec.sample, count)
        rng = make_rng(9, 0, "services")
        blocks = np.concatenate([spec.sample(rng, BLOCK) for _ in range(3)])
        np.testing.assert_array_equal(got, blocks[:count])
        bulk = spec.sample(make_rng(9, 0, "services"), count)
        if spec.family == "hyperexponential":
            # phases then exponentials per call: one bulk call is another stream
            assert not np.array_equal(got, bulk)
        else:
            np.testing.assert_array_equal(got, bulk)
    assert draw_blocks(make_rng(9, 0, "services"), FAMILIES[0].sample, 0).size == 0


# -- patience scaling ---------------------------------------------------------------


def test_no_scaling_limit_is_linear_slope():
    spec = PatienceSpec.no_scaling(DistributionSpec.exponential(2.0))
    f = spec.limit_function()
    xs = np.linspace(0.0, 5.0, 11)
    np.testing.assert_allclose(f(xs), 2.0 * xs)
    path = limit_f(spec, xs)
    assert path.kind == "linear"
    np.testing.assert_allclose(path.values, 2.0 * xs)


def test_no_scaling_scaled_cdf_converges_monotonically():
    # sqrt(n) F(x / sqrt(n)) must increase to theta*x to within 1/sqrt(n).
    theta = 1.5
    spec = PatienceSpec.no_scaling(DistributionSpec.exponential(theta))
    xs = np.linspace(0.0, 3.0, 7)
    prev = None
    for n in (10, 100, 10_000, 1_000_000):
        rootn = math.sqrt(n)
        scaled = rootn * np.asarray(spec.cdf_n(n)(xs / rootn))
        assert np.all(scaled <= theta * xs + 1e-12)
        assert np.max(np.abs(scaled - theta * xs)) <= (1 + theta**2 * xs.max() ** 2) / rootn
        if prev is not None:
            assert np.all(scaled >= prev - 1e-12)
        prev = scaled


def test_hazard_mode_limit_and_cdf():
    theta = 0.8
    spec = PatienceSpec.hazard_rate(constant_hazard(theta))
    xs = np.linspace(0.0, 4.0, 9)
    np.testing.assert_allclose(spec.limit_function()(xs), theta * xs, atol=1e-8)
    # Constant hazard gives exactly exponential patience at every n.
    n = 49
    cdf = spec.cdf_n(n)
    np.testing.assert_allclose(cdf(xs), 1.0 - np.exp(-theta * xs), atol=1e-8)


@pytest.mark.parametrize("hazard", [constant_hazard(1.3), ramp_hazard(0.7)],
                         ids=["constant", "ramp"])
def test_hazard_table_is_independent_of_its_query_history(hazard):
    staged, direct = _CumHazard(hazard), _CumHazard(hazard)
    for z in (30.0, 90.0, 300.0):
        staged.value(np.array([z]))
    direct.value(np.array([300.0]))
    k = min(staged._z.size, direct._z.size)
    assert k > 300_000
    np.testing.assert_array_equal(staged._z[:k], direct._z[:k])
    np.testing.assert_array_equal(staged._c[:k], direct._c[:k])
    z = np.linspace(0.0, 300.0, 1001)
    c = direct.value(z)
    np.testing.assert_array_equal(staged.value(z), c)
    np.testing.assert_array_equal(staged.inverse(c), direct.inverse(c))


def test_ramp_hazard_quadratic_limit():
    spec = PatienceSpec.hazard_rate(ramp_hazard(2.0))
    xs = np.linspace(0.0, 3.0, 7)
    np.testing.assert_allclose(spec.limit_function()(xs), xs**2, atol=1e-6)
    # Finite-n cdf: int_0^x h(sqrt(n) t) dt = slope * sqrt(n) * x^2 / 2.
    np.testing.assert_allclose(spec.cdf_n(100)(xs), 1.0 - np.exp(-10.0 * xs**2), atol=1e-6)


def test_direct_f_scaling_identity_exact():
    spec = PatienceSpec.direct_f(power_limit(0.5, 1.0))
    for n in (4, 100, 900):
        rootn = math.sqrt(n)
        xs = np.linspace(0.0, 2.0, 21)
        scaled = rootn * np.asarray(spec.cdf_n(n)(xs / rootn))
        np.testing.assert_allclose(scaled, 0.5 * xs, atol=1e-12)


@pytest.mark.parametrize(
    "spec,n",
    [
        (PatienceSpec.no_scaling(DistributionSpec.erlang(2, 2.0)), 25),
        (PatienceSpec.hazard_rate(constant_hazard(1.0)), 25),
        (PatienceSpec.hazard_rate(ramp_hazard(1.0)), 100),
        (PatienceSpec.direct_f(power_limit(1.0, 2.0)), 100),
    ],
    ids=["no_scaling", "const_hazard", "ramp_hazard", "direct_f"],
)
def test_patience_sampler_matches_cdf(spec, n):
    rng = make_rng(13, 0, "patience")
    draw = spec.sampler_n(n)
    x = draw(rng, 100_000)
    assert np.all(np.isfinite(x))  # these four laws are proper at every n
    d = stats.kstest(x, lambda q: np.asarray(spec.cdf_n(n)(q))).statistic
    assert d <= 0.02


def test_defective_hazard_returns_inf():
    # Integrable hazard: total mass 1 - exp(-c) < 1; the rest never abandons.
    def h(t):
        return np.exp(-np.asarray(t, dtype=float))

    spec = PatienceSpec.hazard_rate(h)
    n = 4
    draw = spec.sampler_n(n)
    x = draw(make_rng(17, 0, "patience"), 20_000)
    frac_inf = np.mean(np.isinf(x))
    # P(inf) = exp(-Hint(inf)/sqrt(n))... total hazard mass = 1, so exp(-1/2) ~ 0.6065.
    assert frac_inf == pytest.approx(math.exp(-1.0 / math.sqrt(n)), abs=0.02)


def test_patience_mode_validation():
    with pytest.raises(ValueError):
        PatienceSpec.direct_f(lambda x: np.asarray(x) - 1.0)  # f(0) != 0
    with pytest.raises(ValueError):
        PatienceSpec.direct_f(lambda x: -np.asarray(x))  # decreasing
    with pytest.raises(ValueError):
        PatienceSpec.hazard_rate(lambda t: -np.ones_like(np.asarray(t, dtype=float)))


def test_patience_dict_round_trip():
    specs = [
        PatienceSpec.no_scaling(DistributionSpec.exponential(1.0)),
        PatienceSpec.hazard_rate(constant_hazard(2.0)),
        PatienceSpec.hazard_rate(ramp_hazard(0.5)),
        PatienceSpec.direct_f(power_limit(1.5, 2.0)),
    ]
    for s in specs:
        t = PatienceSpec.from_dict(s.to_dict())
        assert t.mode == s.mode
        xs = np.linspace(0.0, 2.0, 5)
        np.testing.assert_allclose(t.limit_function()(xs), s.limit_function()(xs), atol=1e-9)
    with pytest.raises(ValueError):
        PatienceSpec.from_dict({"mode": "no_scaling", "junk": 1})


# -- one checked construction path ----------------------------------------------


def _exp(rate):
    return {"family": "exponential", "rate": rate}


_EXP1 = DistributionSpec.exponential(1.0)

# (dataclass form or None, reader, the same bad spec as a dict)
_BAD_SPECS = {
    "decreasing-f": (
        lambda: PatienceSpec(mode="direct_f", f=lambda x: -np.asarray(x, dtype=float)),
        PatienceSpec.from_dict, {"mode": "direct_f", "f": {"kind": "power", "coeff": -1.0}}),
    "no-hazard": (
        lambda: PatienceSpec(mode="hazard_rate", hazard=None),
        PatienceSpec.from_dict, {"mode": "hazard_rate", "hazard": None}),
    "negative-rate": (
        lambda: DistributionSpec("exponential", (("rate", -1.0),)),
        DistributionSpec.from_dict, _exp(-1.0)),
    "nan-rate": (
        lambda: DistributionSpec("exponential", (("rate", math.nan),)),
        DistributionSpec.from_dict, _exp(math.nan)),
    "str-rate": (
        lambda: DistributionSpec("exponential", (("rate", "2"),)),
        DistributionSpec.from_dict, _exp("2")),
    "bool-rate": (
        lambda: DistributionSpec("exponential", (("rate", True),)),
        DistributionSpec.from_dict, _exp(True)),
    "unknown-form-key": (
        None,
        PatienceSpec.from_dict,
        {"mode": "hazard_rate", "hazard": {"kind": "constant", "theta": 1, "x": 2}}),
    "str-theta": (
        lambda: PatienceSpec(mode="hazard_rate", hazard=constant_hazard("1")),
        PatienceSpec.from_dict,
        {"mode": "hazard_rate", "hazard": {"kind": "constant", "theta": "1"}}),
    "zero-theta": (
        lambda: PatienceSpec(mode="hazard_rate", hazard=constant_hazard(0)),
        PatienceSpec.from_dict,
        {"mode": "hazard_rate", "hazard": {"kind": "constant", "theta": 0}}),
    "zero-slope": (
        lambda: PatienceSpec(mode="hazard_rate", hazard=ramp_hazard(0)),
        PatienceSpec.from_dict, {"mode": "hazard_rate", "hazard": {"kind": "ramp", "slope": 0}}),
    "bool-coeff": (
        lambda: PatienceSpec(mode="direct_f", f=power_limit(True)),
        PatienceSpec.from_dict, {"mode": "direct_f", "f": {"kind": "power", "coeff": True}}),
    "erlang-params": (
        lambda: DistributionSpec("erlang", (("rate", 2.0), ("shape", 2))),  # out of order
        DistributionSpec.from_dict, {"family": "erlang", "shape": 2.5, "rate": 2.0}),
    "other-mode-field": (
        lambda: PatienceSpec(mode="no_scaling", distribution=_EXP1, hazard=constant_hazard(1.0)),
        PatienceSpec.from_dict, {"mode": "no_scaling", "distribution": _exp(1.0),
                                 "hazard": {"kind": "constant", "theta": 1.0}}),
}


@pytest.mark.parametrize("build,read,doc", _BAD_SPECS.values(), ids=list(_BAD_SPECS))
def test_every_construction_of_a_bad_spec_is_rejected(build, read, doc):
    if build is not None:
        with pytest.raises(ValueError):
            build()
    with pytest.raises(ValueError):
        read(doc)


_CONSTANT, _RAMP, _POWER = constant_hazard(2.0), ramp_hazard(0.5), power_limit(1.5, 2.0)

# each family and mode: (static form, the dataclass form as a caller might write it)
_ROUND_TRIPS = {
    "exponential": (DistributionSpec.exponential(2.0),
                    lambda: DistributionSpec("exponential", (("rate", 2),))),
    "deterministic": (DistributionSpec.deterministic(2.0),
                      lambda: DistributionSpec("deterministic", (("value", 2),))),
    "erlang": (DistributionSpec.erlang(3, 4.0),
               lambda: DistributionSpec("erlang", (("shape", 3.0), ("rate", 4)))),
    "hyperexponential": (DistributionSpec.hyperexponential([0.3, 0.7], [0.5, 3.0]),
                         lambda: DistributionSpec("hyperexponential", (
                             ("probs", [0.3, 0.7]), ("rates", np.array([0.5, 3.0]))))),
    "lognormal": (DistributionSpec.lognormal(-1.0, 0.8),
                  lambda: DistributionSpec("lognormal", (("mu", -1), ("sigma", np.float64(0.8))))),
    "uniform": (DistributionSpec.uniform(0.0, 2.0),
                lambda: DistributionSpec("uniform", (("lo", 0), ("hi", 2)))),
    "no_scaling": (PatienceSpec.no_scaling(
                       DistributionSpec.hyperexponential([0.5, 0.5], [1.0, 2.0])),
                   lambda: PatienceSpec(mode="no_scaling", distribution=DistributionSpec(
                       "hyperexponential", (("probs", [0.5, 0.5]), ("rates", [1, 2]))))),
    "hazard_rate": (PatienceSpec.hazard_rate(_CONSTANT),
                    lambda: PatienceSpec(mode="hazard_rate", hazard=_CONSTANT)),
    "ramp": (PatienceSpec.hazard_rate(_RAMP),
             lambda: PatienceSpec(mode="hazard_rate", hazard=_RAMP)),
    "direct_f": (PatienceSpec.direct_f(_POWER), lambda: PatienceSpec(mode="direct_f", f=_POWER)),
}


@pytest.mark.parametrize("static,build", _ROUND_TRIPS.values(), ids=list(_ROUND_TRIPS))
def test_constructions_agree(static, build):
    canonical = dataclasses.replace(static)  # the dataclass constructor on canonical fields
    again = type(static).from_dict(static.to_dict())
    unpickled = pickle.loads(pickle.dumps(static))  # as a pool worker receives it
    specs = (canonical, build(), again, unpickled)
    for spec in specs:
        assert spec.to_dict() == static.to_dict()
        assert spec == static and hash(spec) == hash(static)
    if getattr(static, "mode", None) == "hazard_rate":
        # equal specs share one integrated-hazard table
        _cum_hazard.cache_clear()
        for spec in (static, *specs):
            spec.limit_function()
        assert _cum_hazard.cache_info().misses == 1
    if isinstance(static, DistributionSpec):
        assert [type(v) for _, v in build().params] == [type(v) for _, v in static.params]
