"""Limit-lab checks: noise laws, covariance closed forms, equation solvers."""

import math
import tracemalloc

import numpy as np
import pytest

import httq.limits
from httq.cli import _blas_threads, _openblas_thread_controls
from httq.distributions import DistributionSpec
from httq.limits import (
    JITTERS,
    LimitModel,
    NoiseSample,
    covariance_S,
    sample_brownian,
    sample_case_i_paths,
    sample_case_ii_paths,
    sample_noise,
    CACHE_SIZE,
    _check_rows,
    _covariance_model,
    _factor_cache,
)
from httq.maps import solve_phi_Mg, solve_skorokhod_g
from httq.paths import MAX_CELLS, linear_path, uniform_grid
from httq.patience import PatienceSpec, _cum_hazard, constant_hazard
from httq.renewal import RenewalTable, compute_renewal_function, equilibrium_distribution
from httq.streams import make_rng

from oracles import (
    dense_cholesky,
    dense_service_covariance,
    ks_one_sample,
    limit_row,
    openblas_mapped,
    reflected_ou_stationary_cdf,
    sample_gaussian_S,
    sample_service_noise_finite_n,
)


def zero_path(horizon: float):
    return linear_path([0.0, horizon], [0.0, 0.0], horizon)


@pytest.fixture(scope="module")
def exp_table():
    return compute_renewal_function(DistributionSpec.exponential(1.0), horizon=5.0)


@pytest.fixture(scope="module")
def det_table():
    return compute_renewal_function(DistributionSpec.deterministic(1.0), horizon=2.0)


# ---------------------------------------------------------------------------
# Brownian sampler


def test_brownian_zero_rate_is_zero_path():
    grid = uniform_grid(2.0, 0.25)
    p = sample_brownian(0.0, grid, make_rng(1))
    assert p.sup_norm() == 0.0
    assert p(0.0) == 0.0


def test_brownian_variance_and_independence():
    rate = 2.3
    grid = np.array([0.0, 0.5, 1.0])
    from httq.limits import _brownian_batch

    vals = _brownian_batch(make_rng(7), rate, grid, 100_000)
    v = vals[:, 2].var(ddof=1)
    assert abs(v - rate) <= 3 * rate * math.sqrt(2 / 100_000)
    # lag-1 autocorrelation of one long increment stream
    path = sample_brownian(rate, uniform_grid(100.0, 0.001), make_rng(8))
    z = np.diff(path.values)
    r1 = np.corrcoef(z[:-1], z[1:])[0, 1]
    assert abs(r1) <= 3 / math.sqrt(z.size)


def test_brownian_input_validation():
    with pytest.raises(ValueError, match="nonnegative"):
        sample_brownian(-1.0, uniform_grid(1.0, 0.5), make_rng(1))
    with pytest.raises(ValueError, match="start at 0"):
        sample_brownian(1.0, np.array([0.5, 1.0]), make_rng(1))


def test_brownian_refuses_a_rate_that_is_not_a_number():
    # a NaN rate failed `rate > 0` and gave the zero path
    for rate in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="variance rate must be a finite number"):
            sample_brownian(rate, uniform_grid(1.0, 0.5), make_rng(1))


# ---------------------------------------------------------------------------
# service-noise covariance


def test_covariance_zero_at_origin(exp_table):
    H = exp_table.H
    assert covariance_S(0.0, 0.0, exp_table) == pytest.approx(0.0, abs=1e-12)
    assert covariance_S(0.0, 3.0, exp_table) == pytest.approx(0.0, abs=1e-12)


def test_covariance_symmetry_convention(exp_table):
    H = exp_table.H
    assert covariance_S(3.0, 1.0, exp_table) == covariance_S(1.0, 3.0, exp_table)


def test_exponential_covariance_matches_min(exp_table):
    # for exponential service the noise is Brownian: Cov = mu * min(s, t)
    H = exp_table.H
    pts = np.arange(0.0, 5.01, 0.25)
    cov = np.array([[covariance_S(s, t, exp_table) for t in pts] for s in pts])
    target = np.minimum.outer(pts, pts)
    err = np.max(np.abs(cov - target))
    assert err <= 0.03
    # halving the lattice step roughly halves the quadrature error
    finer = compute_renewal_function(DistributionSpec.exponential(1.0), 5.0, step=0.005)
    cov2 = np.array([[covariance_S(s, t, finer) for t in pts] for s in pts])
    err2 = np.max(np.abs(cov2 - target))
    assert err2 <= 0.62 * err


def test_exponential_covariance_rate_scaling():
    H = DistributionSpec.exponential(2.0)
    tab = compute_renewal_function(H, horizon=3.0)
    got = covariance_S(1.0, 2.5, tab)
    assert got == pytest.approx(2.0 * 1.0, abs=0.06)


def test_deterministic_covariance_exact(det_table):
    # unit deterministic service: Var(t) = t(1-t) on [0,1], (t-1)(2-t) on [1,2]
    H = det_table.H
    for t in (0.25, 0.5, 0.75):
        assert covariance_S(t, t, det_table) == pytest.approx(t * (1 - t), abs=1e-9)
    for t in (1.25, 1.5, 1.75):
        expected = (t - 1.0) * (2.0 - t)
        assert covariance_S(t, t, det_table) == pytest.approx(expected, abs=1e-9)
    assert covariance_S(1.0, 1.0, det_table) == pytest.approx(0.0, abs=1e-9)
    assert covariance_S(2.0, 2.0, det_table) == pytest.approx(0.0, abs=1e-9)


def test_covariance_psd_and_jitter(exp_table):
    model = _covariance_model(exp_table)
    grid = uniform_grid(5.0, 0.1)
    _, jitter = model.cholesky(grid)
    assert jitter <= 1e-8
    sub = model.marginal(grid[1:])
    np.testing.assert_allclose(sub, sub.T, atol=0)
    eig = np.linalg.eigvalsh(sub)
    assert eig.min() >= -1e-8


def test_covariance_caches_are_bounded():
    H = DistributionSpec.exponential(1.0)
    models = [_covariance_model(compute_renewal_function(H, horizon=0.1 * (k + 1)))
              for k in range(CACHE_SIZE + 3)]
    assert _covariance_model.cache_info().currsize <= CACHE_SIZE
    last = models[-1]
    assert _covariance_model(last.table) is last
    grids = [uniform_grid(0.01 * (k + 1), 0.01) for k in range(CACHE_SIZE + 3)]
    factors = [last.cholesky(g) for g in grids]
    assert _factor_cache.cache_info().currsize <= CACHE_SIZE
    assert last.cholesky(grids[-1])[0] is factors[-1][0]


def test_equal_tables_share_model_and_factor():
    # an equal table built apart from the renewal cache (here from the cached
    # table's arrays) must find the same model and factor: the caches key on
    # the table's content, not on the object
    H = DistributionSpec.erlang(2, 2.0)
    first = compute_renewal_function(H, horizon=2.0, step=0.01)
    assert compute_renewal_function(H, horizon=2.0, step=0.01) is first  # built once
    again = RenewalTable(H, first.times.copy(), first.values.copy(), first.step, first.method)
    assert first is not again
    grid = uniform_grid(2.0, 0.02)
    model = _covariance_model(first)
    assert _covariance_model(again) is model
    assert model.cholesky(grid)[0] is _covariance_model(again).cholesky(grid.copy())[0]


def test_law_table_caches_are_bounded():
    for k in range(CACHE_SIZE + 3):
        PatienceSpec.hazard_rate(constant_hazard(1.0 + k)).sampler_n(100)
        equilibrium_distribution(DistributionSpec.uniform(0.5, 1.0 + k))
    assert _cum_hazard.cache_info().currsize <= CACHE_SIZE
    assert equilibrium_distribution.cache_info().currsize <= CACHE_SIZE


@pytest.mark.parametrize("H", [
    DistributionSpec.exponential(1.0),
    DistributionSpec.erlang(3, 3.0),
    DistributionSpec.lognormal(-0.32, 0.8),
    DistributionSpec.hyperexponential([0.3, 0.7], [0.5, 3.0]),
    DistributionSpec.deterministic(1.0),
], ids=lambda s: s.family)
def test_covariance_and_factor_match_the_dense_build(H, clear_noise_caches):
    # the panel build against the dense one it replaced: the lattice matrix
    # within 16 eps max|Sigma| (its sums round differently), and the factor on
    # the lattice and on a 2h sub-grid (its copy) as close a factor of the dense
    # covariance as numpy's own, by the rule of test_cholesky_factor_matches_scipy;
    # the deterministic law takes a jitter rung
    clear_noise_caches()
    T = 10.0
    eps = np.finfo(float).eps
    table = compute_renewal_function(H, T, step=T / 1024)
    want = dense_service_covariance(table)
    model = _covariance_model(table)
    assert np.abs(model.matrix - want).max() <= 16 * eps * np.abs(want).max()
    jitters = []
    for step in (T / 1024, 2 * T / 1024):
        grid = uniform_grid(T, step)
        idx = table._indices_on(grid[1:])
        L, jitter = model.cholesky(grid)
        ref, ref_jitter = dense_cholesky(want[np.ix_(idx, idx)], JITTERS)
        assert jitter == ref_jitter
        sub = want[np.ix_(idx, idx)] + jitter * np.eye(idx.size)
        mine, theirs = (np.abs(F @ F.T - sub).max() for F in (L, ref))
        assert mine <= 2.0 * theirs + 8 * eps * np.abs(sub).max()
        assert np.array_equal(L, np.tril(L)) and L.flags.f_contiguous
        jitters.append(jitter)
    assert (jitters[0] > 0) == (H.family == "deterministic")


def test_covariance_build_and_factor_hold_one_buffer(clear_noise_caches):
    # m = 512, in units of one (m+1) x (m+1) float buffer: the model keeps only
    # O(m) ingredients, and the factor at a jitter rung holds the one buffer it
    # factors in place plus panel temporaries.  The three-buffer build peaked at
    # 3.0 and its jittered factor at 2.0
    clear_noise_caches()
    m, T = 512, 5.0
    table = compute_renewal_function(DistributionSpec.deterministic(1.0), T, step=T / m)
    grid = uniform_grid(T, T / m)
    equilibrium_distribution(table.H)  # a law table, not part of the build

    def peak(build):
        tracemalloc.start()
        try:
            return build(), tracemalloc.get_traced_memory()[1] / (8 * (m + 1) ** 2)
        finally:
            tracemalloc.stop()

    model, build_peak = peak(lambda: _covariance_model(table))
    (L, jitter), factor_peak = peak(lambda: _factor_cache(table, grid.tobytes()))
    assert jitter > 0  # the deterministic law's covariance is singular
    assert build_peak <= 0.1 and factor_peak <= 1.5
    view = model.marginal(grid[1:])
    assert np.shares_memory(view, model.matrix)
    for shared in (view, model.matrix, L):
        with pytest.raises(ValueError, match="read-only"):
            shared[0, 0] = 1.0


def test_case_ii_solve_holds_no_toeplitz_operator(clear_noise_caches):
    # m = 1024 and 12 rows, as `httq limit` solves them: with the factor cached
    # by the draw, the phi_Mg solve and its defects read the dM history through
    # an m x 32 window and allocate under half an (m+1) x (m+1) float buffer
    # (materializing the Toeplitz operator alone took one)
    clear_noise_caches()
    m, T = 1024, 10.0
    table = compute_renewal_function(DistributionSpec.exponential(1.0), T, step=T / m)
    grid = uniform_grid(T, T / m)
    model = LimitModel("ii", 1.0, xi=-0.5, beta=-1.0, f=lambda x: np.asarray(x), M=table)
    E, S, _ = model.noise(grid, [make_rng(7, r, "limit") for r in range(12)], 1)
    Y = model.drive(E, S, grid)
    tracemalloc.start()
    try:
        X, _, diag = model.solve(Y, grid, defects=True)
        solve_peak = tracemalloc.get_traced_memory()[1] / (8 * (m + 1) ** 2)
    finally:
        tracemalloc.stop()
    assert np.all(diag["closure"] < model.tol) and np.all(np.isfinite(X))
    assert solve_peak < 0.5


def test_covariance_rejects_out_of_range(exp_table):
    with pytest.raises(ValueError, match="within"):
        covariance_S(1.0, 7.0, exp_table)


def test_covariance_refuses_a_table_past_max_cells():
    # 4097 points give 4097^2 > MAX_CELLS entries: refused before any buffer,
    # and the refusal leaves no cache entry behind
    table = compute_renewal_function(DistributionSpec.exponential(1.0), horizon=40.96, step=0.01)
    assert table.times.size == 4097
    entries = _covariance_model.cache_info().currsize
    with pytest.raises(ValueError, match="4097-point table"):
        _covariance_model(table)
    assert _covariance_model.cache_info().currsize == entries


@pytest.mark.parametrize("grid, message", [
    (np.linspace(0.0, 1.0, 8), "not aligned"),  # step 1/7, off the 0.01 lattice
    (uniform_grid(1.5, 0.01), "past the renewal table's horizon"),
])
def test_case_ii_grid_off_the_table_is_refused_before_the_covariance_build(
        grid, message, clear_noise_caches):
    clear_noise_caches()
    table = compute_renewal_function(DistributionSpec.exponential(1.0), horizon=1.37, step=0.01)
    before = _covariance_model.cache_info()
    with pytest.raises(ValueError, match=message):
        sample_case_ii_paths(0.0, 0.0, 1.0, 1.0, None, table, grid, seed=1, reps=2)
    after = _covariance_model.cache_info()
    assert (after.misses, after.currsize) == (before.misses, before.currsize)


# ---------------------------------------------------------------------------
# Gaussian sampler and the finite-n replica


def test_gaussian_sampler_single_point_is_zero(exp_table):
    p = sample_gaussian_S(exp_table, exp_table.H, np.array([0.0]), make_rng(3))
    assert p(0.0) == 0.0


def test_gaussian_sampler_empirical_covariance(exp_table):
    model = _covariance_model(exp_table)
    grid = uniform_grid(5.0, 0.5)
    reps = 4000
    L, _ = model.cholesky(grid)
    samples = np.zeros((reps, grid.size))
    samples[:, 1:] = make_rng(11, purpose="gaussian").standard_normal((reps, grid.size - 1)) @ L.T
    assert np.all(samples[:, 0] == 0.0)
    emp = np.cov(samples[:, 1:], rowvar=False)
    want = model.marginal(grid[1:])
    se = np.sqrt((np.outer(np.diag(want), np.diag(want)) + want**2) / reps)
    assert np.all(np.abs(emp - want) <= 4.0 * se)


def test_finite_n_replica_deterministic_zeros(det_table):
    grid = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
    reps = 400
    s = sample_service_noise_finite_n(det_table, det_table.H, 64, grid,
                                      make_rng(5, purpose="scratch"), reps)
    np.testing.assert_allclose(s[:, 2], 0.0, atol=1e-9)  # t = 1.0
    np.testing.assert_allclose(s[:, 4], 0.0, atol=1e-9)  # t = 2.0
    v = s[:, 1].var(ddof=1)
    assert abs(v - 0.25) <= 0.07


def test_finite_n_replica_exponential_variance(exp_table):
    grid = np.array([0.0, 1.0, 3.0])
    s = sample_service_noise_finite_n(exp_table, exp_table.H, 200, grid,
                                      make_rng(6, purpose="scratch"), 400)
    want1 = covariance_S(1.0, 1.0, exp_table)
    want3 = covariance_S(3.0, 3.0, exp_table)
    assert abs(s[:, 1].var(ddof=1) - want1) <= 0.25 * want1
    assert abs(s[:, 2].var(ddof=1) - want3) <= 0.25 * want3


# ---------------------------------------------------------------------------
# noise bundles


def test_sample_noise_case_i_and_ii(exp_table):
    grid = uniform_grid(5.0, 0.01)
    ns = sample_noise("i", mu=1.0, ca2=1.0, grid=grid, seed=9)
    assert ns.covariance_source == "brownian"
    assert ns.E(0.0) == 0.0 and ns.S(0.0) == 0.0
    ns2 = sample_noise("ii", mu=1.0, ca2=1.0, grid=grid, seed=9,
                       M=exp_table)
    assert ns2.covariance_source == "renewal-gaussian"
    assert ns2.jitter <= 1e-8
    # same seed, same purpose split: E agrees across cases, S differs
    np.testing.assert_allclose(ns2.E.values, ns.E.values, atol=0)
    assert abs(ns2.S(5.0) - ns.S(5.0)) > 1e-12
    with pytest.raises(ValueError, match="needs the renewal table"):
        sample_noise("ii", 1.0, 1.0, grid, 9)
    with pytest.raises(ValueError, match="unknown case"):
        sample_noise("iii", 1.0, 1.0, grid, 9)


def test_noise_sample_must_start_at_zero():
    p0 = zero_path(1.0)
    bad = linear_path([0.0, 1.0], [0.5, 0.5], 1.0)
    with pytest.raises(ValueError, match="start at 0"):
        NoiseSample(E=bad, S=p0)


# ---------------------------------------------------------------------------
# case (i)


def test_case_i_all_zero():
    grid = uniform_grid(2.0, 0.01)
    x, ell, _ = limit_row(LimitModel("i", 1.0), zero_path(2.0), zero_path(2.0), grid)
    assert np.abs(x).max() == 0.0
    assert np.abs(ell).max() == 0.0


def test_case_i_linear_drain_closed_form():
    beta, mu, theta = 0.8, 1.3, 0.6
    f = lambda x: theta * np.asarray(x)
    target = lambda t: (beta * mu / theta) * (1.0 - np.exp(-theta * t))
    errs = {}
    for h in (1e-3, 1e-4):
        grid = uniform_grid(4.0, h)
        x, ell, _ = limit_row(LimitModel("i", mu, beta=beta, f=f), zero_path(4.0),
                              zero_path(4.0), grid)
        errs[h] = float(np.max(np.abs(x - target(grid))))
        assert np.abs(ell).max() <= 1e-12
    assert errs[1e-3] <= 5e-3
    assert errs[1e-4] <= 0.15 * errs[1e-3]


def test_case_i_pure_reflection():
    beta, mu = -0.7, 2.0
    grid = uniform_grid(3.0, 0.01)
    x, ell, _ = limit_row(LimitModel("i", mu, beta=beta), zero_path(3.0), zero_path(3.0), grid)
    assert np.abs(x).max() == 0.0
    np.testing.assert_allclose(ell, -beta * mu * grid, atol=1e-10)


def test_case_i_rejects_negative_xi():
    with pytest.raises(ValueError, match="nonnegative"):
        LimitModel("i", 1.0, xi=-0.5)


def test_case_i_rejects_negative_xi_and_negative_start_in_every_route():
    grid = uniform_grid(1.0, 0.01)
    with pytest.raises(ValueError, match="xi must be nonnegative"):
        sample_case_i_paths(-0.5, 0.0, 1.0, 1.0, None, grid, seed=1, reps=3)
    low = linear_path(grid, np.full(grid.size, -0.2), 1.0)
    with pytest.raises(ValueError, match=r"y\(0\) must be nonnegative"):
        limit_row(LimitModel("i", 1.0, xi=0.1), low, zero_path(1.0), grid)


def test_case_i_complementarity_on_noisy_samples():
    grid = uniform_grid(5.0, 0.01)
    f = lambda x: np.asarray(x)
    for seed in range(5):
        ns = sample_noise("i", mu=1.0, ca2=1.0, grid=grid, seed=seed)
        x, ell, diag = limit_row(LimitModel("i", 1.0, xi=0.5, beta=-0.5, f=f), ns.E, ns.S, grid)
        assert np.min(x) >= 0.0
        assert np.all(np.diff(ell) >= -1e-15)
        assert diag["complementarity"] <= 1e-8


# ---------------------------------------------------------------------------
# case (ii)


def test_case_ii_all_zero(exp_table):
    grid = uniform_grid(5.0, 0.01)
    x, ell, _ = limit_row(LimitModel("ii", 1.0, M=exp_table), zero_path(5.0), zero_path(5.0),
                          grid)
    assert np.abs(x).max() == 0.0
    assert ell is None


def test_case_ii_positive_start_has_no_renewal_correction(exp_table):
    grid = uniform_grid(5.0, 0.01)
    x, _, _ = limit_row(LimitModel("ii", 1.0, xi=0.5, M=exp_table), zero_path(5.0),
                        zero_path(5.0), grid)
    np.testing.assert_allclose(x, 0.5, atol=1e-12)


def test_case_ii_negative_start_closed_form():
    mu = 1.3
    H = DistributionSpec.exponential(mu)
    errs = {}
    for h in (1e-2, 1e-3):
        tab = compute_renewal_function(H, horizon=4.0, step=h)
        grid = uniform_grid(4.0, h)
        x, _, _ = limit_row(LimitModel("ii", mu, xi=-1.0, M=tab), zero_path(4.0),
                            zero_path(4.0), grid)
        errs[h] = float(np.max(np.abs(x + np.exp(-mu * grid))))
    assert errs[1e-2] <= 1e-2
    assert errs[1e-3] <= 0.15 * errs[1e-2]


def test_case_ii_residual_bound_on_noisy_samples(exp_table):
    grid = uniform_grid(5.0, 0.01)
    f = lambda x: np.asarray(x)
    for seed in range(5):
        ns = sample_noise("ii", mu=1.0, ca2=1.0, grid=grid, seed=seed,
                          M=exp_table)
        _, _, diag = limit_row(LimitModel("ii", 1.0, xi=-0.3, beta=-1.0, f=f, M=exp_table),
                               ns.E, ns.S, grid)
        assert diag["residual"] <= 10.0 * 0.01
        assert diag["closure"] < 1e-8


# ---------------------------------------------------------------------------
# batch samplers


def test_batch_case_i_matches_single_solve():
    grid = uniform_grid(3.0, 0.01)
    f = lambda x: 0.5 * np.asarray(x)
    X = sample_case_i_paths(0.2, -0.4, 1.5, 1.0, f, grid, seed=21, reps=1)
    ns = sample_noise("i", mu=1.5, ca2=1.0, grid=grid, seed=21)
    x, _, _ = limit_row(LimitModel("i", 1.5, xi=0.2, beta=-0.4, f=f), ns.E, ns.S, grid)
    np.testing.assert_allclose(X[0], x, atol=1e-12)


def test_batch_case_ii_matches_single_solve(exp_table):
    grid = uniform_grid(5.0, 0.01)
    f = lambda x: np.asarray(x)
    X = sample_case_ii_paths(-0.3, -1.0, 1.0, 1.0, f, exp_table, grid,
                             seed=33, reps=1)
    ns = sample_noise("ii", mu=1.0, ca2=1.0, grid=grid, seed=33,
                      M=exp_table)
    x, _, _ = limit_row(LimitModel("ii", 1.0, xi=-0.3, beta=-1.0, f=f, M=exp_table),
                        ns.E, ns.S, grid)
    np.testing.assert_allclose(X[0], x, atol=1e-10)


@pytest.fixture()
def clear_noise_caches():
    """Clears the covariance and factor caches, and clears them again after the
    test, so no later test finds an entry built under the test's settings."""
    def clear():
        _covariance_model.cache_clear()
        _factor_cache.cache_clear()
    yield clear
    clear()


@pytest.mark.skipif(not openblas_mapped(), reason="no OpenBLAS loaded")
def test_sweep_noise_agrees_across_blas_threads(clear_noise_caches):
    # The case-(ii) draw of an alpha = 1 sweep (1025-point limit grid, 40 rows)
    # at one and at two OpenBLAS threads, as `httq sweep` and a library caller
    # run it.  OpenBLAS splits the products differently, so the bytes differ:
    # the paths by about 4e-12, the factor by 2e-13 and the covariance by 4e-15.
    # The paths must stay within 10 * tol, the gate for any limit-path move.
    T = 10.0
    grid = uniform_grid(T, T / 1024)
    table = compute_renewal_function(DistributionSpec.exponential(1.0), horizon=T, step=T / 1024)
    f = lambda x: np.asarray(x)
    draws = []
    for threads in (1, 2):
        clear_noise_caches()
        with _blas_threads(threads):
            assert all(get() == threads for _, get in _openblas_thread_controls())
            X = sample_case_ii_paths(0.0, -1.0, 1.0, 1.0, f, table, grid, seed=7,
                                     reps=40, tol=1e-10)
            model = _covariance_model(table)
            L, _ = model.cholesky(grid)
        draws.append((model.matrix, L, X))
    (cov1, L1, X1), (cov2, L2, X2) = draws
    np.testing.assert_allclose(cov2, cov1, rtol=0, atol=1e-13 * np.abs(cov1).max())
    np.testing.assert_allclose(L2, L1, rtol=0, atol=1e-10 * np.abs(L1).max())
    np.testing.assert_allclose(X2, X1, rtol=0, atol=10 * 1e-10)


def test_batch_rejects_nonuniform_grid():
    with pytest.raises(ValueError, match="uniform"):
        sample_case_i_paths(0.0, 0.0, 1.0, 1.0, None,
                            np.array([0.0, 0.1, 0.3]), seed=1, reps=2)


def test_batch_rejects_one_point_grid(exp_table):
    one = np.array([0.0])
    with pytest.raises(ValueError, match="at least two points"):
        sample_case_i_paths(0.0, 0.0, 1.0, 1.0, None, one, seed=1, reps=2)
    with pytest.raises(ValueError, match="at least two points"):
        sample_case_ii_paths(0.0, 0.0, 1.0, 1.0, None, exp_table, one, seed=1, reps=2)


def test_case_i_reflected_ou_stationary_law():
    # f(x) = theta x turns case (i) into an OU reflected at zero
    beta, mu, theta, ca2 = 0.5, 1.0, 1.0, 1.0
    sigma2 = mu * ca2 + mu
    grid = uniform_grid(25.0, 0.01)
    X = sample_case_i_paths(0.0, beta, mu, ca2, lambda x: theta * np.asarray(x),
                            grid, seed=17, reps=2000)
    samples = np.sort(X[:, -1])
    xs, cdf = reflected_ou_stationary_cdf(beta * mu, theta, sigma2, x_hi=10.0)
    ks = ks_one_sample(samples, np.interp(samples, xs, cdf))
    assert ks <= 0.05


# ---------------------------------------------------------------------------
# the limit model


_TABLE = compute_renewal_function(DistributionSpec.exponential(1.0), horizon=1.0)
_GRID = uniform_grid(1.0, 0.01)
_BASE = {"i": dict(case="i", mu=1.0, ca2=1.0, xi=0.0, beta=0.0, f=None, M=None, tol=1e-10),
         "ii": dict(case="ii", mu=1.0, ca2=1.0, xi=0.0, beta=0.0, f=None, M=_TABLE, tol=1e-10)}

# every public route into the model, as (case it builds, parameters it takes, call)
_ROUTES = {
    "LimitModel": (None, set(_BASE["i"]), LimitModel),
    "sample_noise": (None, {"case", "mu", "ca2", "M"}, lambda case, mu, ca2, M, **_:
                     sample_noise(case, mu, ca2, _GRID, 1, M=M)),
    "sample_case_i_paths": ("i", {"xi", "beta", "mu", "ca2", "f"},
                            lambda xi, beta, mu, ca2, f, **_:
                            sample_case_i_paths(xi, beta, mu, ca2, f, _GRID, seed=1, reps=2)),
    "sample_case_ii_paths": ("ii", {"xi", "beta", "mu", "ca2", "f", "M", "tol"},
                             lambda xi, beta, mu, ca2, f, M, tol, **_:
                             sample_case_ii_paths(xi, beta, mu, ca2, f, M, _GRID, seed=1,
                                                  reps=2, tol=tol)),
}

# every check of LimitModel.__post_init__, as (case, changed parameters, message)
_REFUSED = {
    "unknown-case": ("i", {"case": "iii"}, "unknown case 'iii'"),
    **{f"nan-{k}-{case}": (case, {k: float("nan")}, f"{k} must be a finite number, got nan")
       for case in ("i", "ii") for k in ("mu", "ca2", "xi", "beta", "tol")},
    "inf-ca2": ("i", {"ca2": float("inf")}, "ca2 must be a finite number, got inf"),
    "bool-mu": ("i", {"mu": True}, "mu must be a finite number, got True"),
    "negative-mu": ("ii", {"mu": -1.0}, "variance rate must be nonnegative"),
    "negative-ca2": ("i", {"ca2": -1.0}, "variance rate must be nonnegative"),
    "zero-mu": ("i", {"mu": 0.0}, "mu must be positive"),
    "negative-mu-and-ca2": ("ii", {"mu": -1.0, "ca2": -1.0}, "mu must be positive"),
    "zero-tol": ("ii", {"tol": 0.0}, "tol must be positive"),
    "negative-tol-case-i": ("i", {"tol": -1.0}, "tol must be positive"),
    "negative-xi": ("i", {"xi": -0.5}, "xi must be nonnegative"),
    "no-table": ("ii", {"M": None}, "needs the renewal table"),
    "case-i-table": ("i", {"M": _TABLE}, "case 'i' takes no renewal table"),
    "table-mean": ("ii", {"mu": 2.0}, r"case 'ii' requires service mean 1/mu = 0.5, got 1.0"),
}


def _refusals():
    for name, (case, changed, message) in _REFUSED.items():
        for route, (builds, takes, call) in _ROUTES.items():
            if builds in (None, changed.get("case", case)) and set(changed) <= takes:
                yield pytest.param({**_BASE[case], **changed}, call, message,
                                   id=f"{name}-{route}")


@pytest.mark.parametrize("model,call,message", list(_refusals()))
def test_limit_model_refuses_before_any_draw(monkeypatch, model, call, message):
    # one check holds every parameter, for the model and each public route,
    # and it runs before the stream is touched
    def no_draw(*args, **kwargs):
        raise AssertionError("a draw ran before the check")

    monkeypatch.setattr(httq.limits, "make_rng", no_draw)
    with pytest.raises(ValueError, match=message):
        call(**model)


@pytest.mark.parametrize("reps,message", [
    (0, "reps must be >= 1, got 0"), (-1, "reps must be >= 1, got -1"),
    (2.5, "reps must be an integer, got 2.5"), (True, "reps must be a finite number, got True")])
@pytest.mark.parametrize("case", ["i", "ii"])
def test_row_counts_obey_the_count_rule_before_any_draw(clear_noise_caches, case, reps,
                                                        message):
    # the one draw route of both samplers checks the row count before it draws a
    # variate or builds a covariance model
    clear_noise_caches()
    rng = make_rng(1, 0, "limit")
    with pytest.raises(ValueError, match=message):
        LimitModel(**_BASE[case]).noise(_GRID, [rng], reps)
    np.testing.assert_array_equal(rng.random(4), make_rng(1, 0, "limit").random(4))
    assert _covariance_model.cache_info().currsize == 0
    args = (0.0, 0.0, 1.0, 1.0, None) + ((_TABLE,) if case == "ii" else ())
    sampler = sample_case_ii_paths if case == "ii" else sample_case_i_paths
    with pytest.raises(ValueError, match=message):
        sampler(*args, _GRID, seed=1, reps=reps)


@pytest.mark.parametrize("case", ["i", "ii"])
def test_noise_refuses_more_than_max_cells_before_any_draw(clear_noise_caches, case):
    # rows x grid points above MAX_CELLS, in one generator or over several, and
    # no generator at all are refused before a variate is drawn or a covariance
    # model built; at the cap the rule passes
    clear_noise_caches()
    rows = MAX_CELLS // _GRID.size + 1

    def refused(n):
        return pytest.raises(ValueError, match=f"a noise draw of {n} rows on {_GRID.size} "
                                               f"grid points exceeds {MAX_CELLS} cells")

    rng = make_rng(1, 0, "limit")
    model = LimitModel(**_BASE[case])
    with refused(rows):
        model.noise(_GRID, [rng], rows)
    with refused(2 * (rows // 2 + 1)):
        model.noise(_GRID, [rng, rng], rows // 2 + 1)
    with pytest.raises(ValueError, match="generator count must be >= 1, got 0"):
        model.noise(_GRID, [], 1)
    np.testing.assert_array_equal(rng.random(4), make_rng(1, 0, "limit").random(4))
    assert _covariance_model.cache_info().currsize == 0
    args = (0.0, 0.0, 1.0, 1.0, None) + ((_TABLE,) if case == "ii" else ())
    sampler = sample_case_ii_paths if case == "ii" else sample_case_i_paths
    with refused(rows):
        sampler(*args, _GRID, seed=1, reps=rows)
    _check_rows(rows - 1, _GRID)


_DRAW_GRID = uniform_grid(2.0, 0.01)


@pytest.mark.parametrize("law", [None, DistributionSpec.exponential(1.0),
                                 DistributionSpec.deterministic(1.0)],
                         ids=["case-i", "case-ii", "case-ii-deterministic"])
def test_noise_over_k_generators_is_k_one_generator_draws(law):
    # the stacked draw against one call per generator: E bit for bit, S within
    # the rounding of one GEMM against k (exact in case i), the same jitter, a
    # rung for the deterministic law
    M = None if law is None else compute_renewal_function(law, horizon=2.0, step=0.01)
    model = LimitModel("i" if law is None else "ii", 1.0, 0.5, M=M)
    reps, k = 3, 4
    E, S, jitter = model.noise(_DRAW_GRID, [make_rng(9, r, "limit") for r in range(k)], reps)
    parts = [model.noise(_DRAW_GRID, [make_rng(9, r, "limit")], reps) for r in range(k)]
    np.testing.assert_array_equal(E, np.vstack([part[0] for part in parts]))
    S_loop = np.vstack([part[1] for part in parts])
    assert S.shape == S_loop.shape == (k * reps, _DRAW_GRID.size)
    assert np.max(np.abs(S - S_loop)) <= 1e-13 * np.max(np.abs(S_loop))
    if law is None:
        np.testing.assert_array_equal(S, S_loop)
    assert [part[2] for part in parts] == [jitter] * k
    assert (jitter > 0) == (law is not None and law.family == "deterministic")


@pytest.mark.parametrize("law", [DistributionSpec.exponential(1.0),
                                 DistributionSpec.deterministic(1.0)],
                         ids=["exponential", "deterministic"])
def test_sample_noise_S_is_the_oracle_draw_past_E(law):
    # one replication's S, bit for bit, is the oracle's draw from its stream
    # once E's increments are drawn
    M = compute_renewal_function(law, horizon=2.0, step=0.01)
    noise = sample_noise("ii", 1.0, 0.5, _DRAW_GRID, 9, replication=2, M=M)
    rng = make_rng(9, 2, "limit")
    rng.standard_normal((1, _DRAW_GRID.size - 1))
    np.testing.assert_array_equal(noise.S.values,
                                  sample_gaussian_S(M, M.H, _DRAW_GRID, rng).values)


@pytest.mark.parametrize("mu", [1.0, 1.5])
@pytest.mark.parametrize("case", ["i", "ii"])
def test_model_solve_of_a_given_y_is_the_map_solver(case, mu):
    # solve maps any input Y, not only a drawn one, with the public map solvers'
    # bits: the reflected map with g(x) = mu f(x/mu) in case i, phi_Mg with
    # g_sign = -1 on the model's table in case ii
    grid = uniform_grid(2.0, 0.01)
    rng = make_rng(8)
    Y = 0.3 + np.concatenate(([0.0], np.cumsum(0.2 * rng.standard_normal(grid.size - 1))))
    f = lambda x: 0.7 * x + 0.2 * x ** 2
    g = lambda x: mu * f(x / mu)
    if case == "i":
        X, L, _ = LimitModel("i", mu, f=f).solve(Y[None], grid)
        sol = solve_skorokhod_g(Y, g, grid)
        np.testing.assert_array_equal(L[0], sol.ell.values)
    else:
        table = compute_renewal_function(DistributionSpec.erlang(3, 3.0 * mu), horizon=2.0,
                                         step=0.01)
        X, L, diag = LimitModel("ii", mu, f=f, M=table, tol=1e-10).solve(Y[None], grid)
        sol = solve_phi_Mg(Y, table, g, grid, 1e-10, g_sign=-1)
        assert L is None and diag["closure"][0] == sol.residual
    np.testing.assert_array_equal(X[0], sol.x.values)


def test_model_solve_refuses_a_y_off_the_grid():
    model = LimitModel("i", 1.0)
    for Y in (np.zeros(_GRID.size), np.zeros((2, _GRID.size - 1))):
        with pytest.raises(ValueError, match="Y must have shape"):
            model.solve(Y, _GRID)
