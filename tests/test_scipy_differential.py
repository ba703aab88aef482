"""The numpy and stdlib routines that replaced scipy calls, checked against scipy.

The library runs on numpy and the standard library alone; scipy is a test
dependency, and here it is the reference each replacement must reproduce.
"""

import math

import numpy as np
import pytest
import scipy.linalg
from scipy import special

from httq.distributions import DistributionSpec, _erlang_cdf, _normal_cdf
from httq.limits import JITTERS, ServiceCovariance
from httq.maps import _block_operators, _phi_m_gain
from httq.paths import uniform_grid
from httq.renewal import compute_renewal_function

from oracles import stieltjes_matrix

SERVICE_LAWS = [
    DistributionSpec.exponential(1.0),
    DistributionSpec.erlang(3, 3.0),
    DistributionSpec.lognormal(-0.32, 0.8),
]


@pytest.fixture(scope="module", params=SERVICE_LAWS, ids=lambda s: s.family)
def table(request):
    return compute_renewal_function(request.param, 10.0, step=10.0 / 1024)


def test_stieltjes_matrix_is_scipy_toeplitz_exactly(table):
    # the blocked solves' window W and in-block map T are exact slices of the
    # dM operator A: W[j, r] = w[j + r] and T = the strictly upper part of A^T
    for w in (np.diff(table.values), np.diff(table.values)[:1], np.array([])):
        col = np.concatenate(([1.0], w))
        A = scipy.linalg.toeplitz(col, np.zeros_like(col))
        dense = stieltjes_matrix(w)
        assert not dense.flags.writeable and not dense.flags.owndata  # a view
        np.testing.assert_array_equal(dense, A)
        if w.size:
            W, T = _block_operators(w)
            b = T.shape[0]
            assert b == min(32, w.size) and T.flags.c_contiguous
            np.testing.assert_array_equal(T, np.triu(A[:b, :b].T, 1))
            np.testing.assert_array_equal(W, scipy.linalg.hankel(w, np.zeros(b)))


def test_phi_m_gain_matches_triangular_solve(table):
    w = np.diff(table.values)
    A = scipy.linalg.toeplitz(np.concatenate(([1.0], w)), np.zeros(w.size + 1))
    d = scipy.linalg.solve_triangular(-A, np.ones(w.size + 1), lower=True,
                                      unit_diagonal=True)
    assert _phi_m_gain(w) == pytest.approx(d[-1], rel=1e-13, abs=0)


# dense on [0, 60] plus a geometric run into 0, where the Poisson tail and
# the erfc form are most exposed to cancellation
CDF_POINTS = np.concatenate(([-1.0, 0.0, 5e-324, 1e-300], np.geomspace(1e-30, 1e-2, 400),
                             np.linspace(0.0, 60.0, 6001), [1e3, 1e6, np.inf]))


@pytest.mark.parametrize("rate", [0.5, 1.0, 7.0])
def test_erlang_cdf_matches_gammainc(rate):
    y = rate * np.maximum(CDF_POINTS, 0.0)
    for shape in range(1, 51):
        got = DistributionSpec.erlang(shape, rate).cdf(CDF_POINTS)
        np.testing.assert_allclose(got, special.gammainc(shape, y), rtol=0, atol=1e-14,
                                   err_msg=f"shape {shape}")


def test_erlang_cdf_large_shape_where_exp_underflows():
    # Erlang(1000) has its mass at y = 1000, where e^-y is 0 in floating point
    x = np.linspace(0.5, 1.5, 201)
    got = DistributionSpec.erlang(1000, 1000.0).cdf(x)
    np.testing.assert_allclose(got, special.gammainc(1000, 1000.0 * x), rtol=0, atol=1e-11)


def test_erlang_cdf_near_and_far_points_match_separate_calls():
    # the ratio recurrence runs over the points with y <= 700 only, and the far
    # points take their log-space sum: one call over both parts, interleaved,
    # gives each point what a call on its own part gives
    for k in (3, 900):
        y = np.linspace(0.0, 1500.0, 3001)[np.random.default_rng(k).permutation(3001)]
        far = y > 700.0
        want = np.empty_like(y)
        want[~far], want[far] = _erlang_cdf(k, y[~far]), _erlang_cdf(k, y[far])
        np.testing.assert_array_equal(_erlang_cdf(k, y), want)
        np.testing.assert_allclose(want, special.gammainc(k, y), rtol=0, atol=1e-11)


@pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (-0.32, 0.8), (2.0, 0.1), (-1.0, 3.0)])
def test_lognormal_cdf_matches_erf(mu, sigma):
    got = DistributionSpec.lognormal(mu, sigma).cdf(CDF_POINTS)
    pos = CDF_POINTS > 0
    want = np.zeros_like(CDF_POINTS)
    z = (np.log(CDF_POINTS[pos]) - mu) / sigma
    want[pos] = 0.5 * (1.0 + special.erf(z / np.sqrt(2.0)))
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)


def test_normal_cdf_matches_ndtr():
    # every range of Cody's approximation, its edges from both sides, and the
    # underflow past |z| = 38
    edges = np.array([0.67448975, math.sqrt(32.0), 38.0])
    edges = np.concatenate((edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)))
    z = np.concatenate((np.linspace(-40.0, 40.0, 80_001), edges, -edges, [0.0, np.inf, -np.inf]))
    np.testing.assert_allclose(_normal_cdf(z), special.ndtr(z), rtol=0,
                               atol=2.0 * np.finfo(float).eps)


# Phi(z) at these doubles z, computed to 50 digits with mpmath and rounded.
# ndtr cannot be the reference for the lower tail's relative error: it takes
# erfc(-z / sqrt(2)), and rounding z / sqrt(2) costs it about z^2 ulps.
NORMAL_LOWER_TAIL = [
    (-0.5, 0.3085375387259869), (-0.7, 0.24196365222307303), (-1.0, 0.15865525393145705),
    (-2.5, 0.006209665325776135), (-5.0, 2.866515718791939e-07),
    (-5.7, 5.990371401063528e-09), (-7.25, 2.0838581586720695e-13),
    (-10.1, 2.762109471764517e-24), (-15.3, 3.82283156207345e-53),
    (-20.7, 1.7318518790197378e-95), (-26.9, 1.0981069565111319e-159),
    (-33.3, 1.93050550592784e-243),
]


def test_normal_cdf_lower_tail_to_two_ulps():
    z, want = np.array(NORMAL_LOWER_TAIL).T
    np.testing.assert_allclose(_normal_cdf(z), want, rtol=2.0 * np.finfo(float).eps, atol=0)


@pytest.mark.parametrize("spec,x", [
    (DistributionSpec.erlang(2, 1.0), 800.0),  # the Poisson tail's far branch
    (DistributionSpec.erlang(2, 1.0), np.inf),
    (DistributionSpec.erlang(2, 1.0), 0.5),
    (DistributionSpec.erlang(2, 1.0), -1.0),
    (DistributionSpec.lognormal(-0.32, 0.8), np.inf),
    (DistributionSpec.lognormal(-0.32, 0.8), 1.0),
    (DistributionSpec.lognormal(-0.32, 0.8), 0.0),
], ids=lambda v: v.family if isinstance(v, DistributionSpec) else repr(v))
def test_scalar_cdf_is_a_float_and_matches_scipy(spec, x):
    got = spec.cdf(x)
    assert type(got) is float
    if x <= 0:
        want = 0.0
    elif spec.family == "erlang":
        want = special.gammainc(spec["shape"], spec["rate"] * x)
    else:
        want = 0.5 * (1.0 + special.erf((math.log(x) - spec["mu"]) / spec["sigma"] / math.sqrt(2.0)))
    assert got == pytest.approx(want, rel=0, abs=1e-15)
    np.testing.assert_array_equal(spec.cdf(np.array([x])), [got])


def _scipy_factor(sub):
    """scipy's factor on the library's jitter ladder: (L, jitter)."""
    for jitter in JITTERS:
        try:
            return scipy.linalg.cholesky(sub + jitter * np.eye(sub.shape[0]), lower=True), jitter
        except scipy.linalg.LinAlgError:
            pass
    raise AssertionError("scipy found no factor on the jitter ladder")


def _check_factor(model, grid):
    """The factor takes scipy's jitter rung and reproduces the covariance as
    tightly as scipy's factor does; returns (L, scipy's L)."""
    L, jitter = model.cholesky(grid)
    sub = model.marginal(grid[1:])
    ref, ref_jitter = _scipy_factor(sub)
    assert jitter == ref_jitter
    assert np.array_equal(L, np.tril(L))
    sub = sub + jitter * np.eye(sub.shape[0])
    mine = np.abs(L @ L.T - sub).max()
    theirs = np.abs(ref @ ref.T - sub).max()
    assert mine <= 2.0 * theirs + 8 * np.finfo(float).eps * np.abs(sub).max()
    return L, ref


def test_cholesky_factor_matches_scipy(table):
    model = ServiceCovariance(table)
    for grid in (uniform_grid(10.0, 10.0 / 1024), uniform_grid(10.0, 10.0 / 64)):
        L, ref = _check_factor(model, grid)
        np.testing.assert_allclose(L, ref, rtol=0, atol=1e-12)
        assert L.flags.f_contiguous  # scipy's layout, so `@ L.T` reads C order


@pytest.mark.parametrize("H", [DistributionSpec.deterministic(1.0),
                               DistributionSpec.hyperexponential([0.3, 0.7], [0.5, 3.0])],
                         ids=lambda s: s.family)
def test_cholesky_jitter_rung_matches_scipy(H):
    # the deterministic law's covariance is singular, so both factors need a
    # jitter rung and differ by far more than rounding; they must still agree
    # on the rung and on how well they reproduce the covariance.  The
    # hyperexponential law's covariance factors at rung 0.0 on this lattice
    model = ServiceCovariance(compute_renewal_function(H, 10.0, step=10.0 / 1024))
    grid = uniform_grid(10.0, 10.0 / 1024)
    _check_factor(model, grid)
    jitter = model.cholesky(grid)[1]
    if H.family == "deterministic":
        assert jitter > 0.0
    else:
        assert jitter == 0.0
