"""Regulator-map solvers: closed forms, refinement oracles, and contracts."""

import numpy as np
import pytest

import httq.maps
from httq.distributions import DistributionSpec
from httq.limits import sample_case_i_paths
from httq.maps import (
    _phi_m_solve,
    _phi_m_trapezoid,
    _phi_mg_forward,
    _phi_mg_solve,
    _vectorize_g,
    solve_phi_M,
    solve_phi_Mg,
    solve_phi_n_g,
    solve_skorokhod_g,
)
from httq.paths import linear_path, step_path, uniform_grid
from httq.patience import PatienceSpec, ramp_hazard
from httq.renewal import compute_renewal_function

from oracles import (
    endpoint_rule_phi_m,
    per_step_phi_m_solve,
    per_step_phi_mg_forward,
    picard_phi_mg,
    stieltjes_matrix,
)


def _grid(T, h):
    return uniform_grid(T, h)


def _exp_table(rate, T, step=1e-2):
    return compute_renewal_function(DistributionSpec.exponential(rate), T, step=step)


# ---------------------------------------------------------------------------
# phi_n_g


def test_phi_n_g_zero_input():
    g = _grid(1.0, 1e-3)
    sol = solve_phi_n_g(np.zeros_like(g), None, 100.0, g)
    assert np.all(sol.x.sampled(g) == 0.0)
    assert sol.residual == 0.0


def test_phi_n_g_nonnegative_drift_passthrough():
    g = _grid(1.0, 1e-3)
    sol = solve_phi_n_g(g.copy(), None, 100.0, g)
    np.testing.assert_allclose(sol.x.sampled(g), g, atol=1e-12)


def test_phi_n_g_positive_constant_is_fixed():
    g = _grid(1.0, 1e-3)
    sol = solve_phi_n_g(np.full_like(g, 0.7), None, 100.0, g)
    np.testing.assert_allclose(sol.x.sampled(g), 0.7, atol=1e-14)
    assert sol.residual <= 1e-12


def test_phi_n_g_drain_closed_form():
    mu_n = 100.0
    T = 0.2

    def closed(t):
        return -(1.0 - np.exp(-mu_n * t)) / mu_n

    errs = {}
    for h in (1e-3, 1e-4):
        g = _grid(T, h)
        sol = solve_phi_n_g(-g, None, mu_n, g)
        errs[h] = np.max(np.abs(sol.x.sampled(g) - closed(g)))
    assert errs[1e-3] <= 1e-3
    assert errs[1e-4] <= 1.5e-4
    # first-order scheme: tenfold refinement shrinks the error accordingly
    assert errs[1e-4] <= 0.2 * errs[1e-3]


def test_phi_n_g_finer_grid_oracle():
    rng = np.random.default_rng(7)
    T, h = 1.0, 1e-3
    coarse = _grid(T, h)
    fine = _grid(T, h / 10)
    y_fine = np.concatenate([[0.0], np.cumsum(rng.normal(0, np.sqrt(h / 10), fine.size - 1))])
    y_fine -= 0.3 * fine
    y_coarse = y_fine[::10]
    a = solve_phi_n_g(y_coarse, lambda x: 0.5 * x, 50.0, coarse)
    b = solve_phi_n_g(y_fine, lambda x: 0.5 * x, 50.0, fine)
    gap = np.max(np.abs(a.x.sampled(coarse) - b.x.sampled(coarse)))
    assert gap <= 0.05


def test_phi_n_g_negative_part_shrinks_with_mu_n():
    T, h = 1.0, 1e-4
    g = _grid(T, h)
    y = -np.sin(np.pi * g)
    sups = [
        solve_phi_n_g(y, None, mu_n, g).diagnostics["neg_part_sup"]
        for mu_n in (10.0, 100.0, 1000.0)
    ]
    assert sups[0] > sups[1] > sups[2]


def test_phi_n_g_step_too_large():
    g = _grid(1.0, 1e-2)
    with pytest.raises(ValueError, match="use step <="):
        solve_phi_n_g(np.zeros_like(g), None, 100.0, g)


@pytest.mark.parametrize("mu_n, match", [
    (float("nan"), "mu_n must be a finite number"),
    (float("inf"), "mu_n must be a finite number"),
    (0.0, "mu_n must be positive"),
    (-1.0, "mu_n must be positive"),
], ids=["nan", "inf", "zero", "negative"])
def test_phi_n_g_refuses_a_mu_n_that_is_not_a_positive_number(mu_n, match):
    # a NaN mu_n failed both `mu_n <= 0` and the step cap and gave a NaN path
    with pytest.raises(ValueError, match=match):
        solve_phi_n_g(linear_path([0, 1], [0.5, 0.2], 1.0), lambda x: x, mu_n,
                      uniform_grid(1.0, 0.01))


# ---------------------------------------------------------------------------
# skorokhod_g


def test_skorokhod_trivial_zero():
    g = _grid(1.0, 1e-3)
    sol = solve_skorokhod_g(np.zeros_like(g), None, g)
    assert np.all(sol.x.sampled(g) == 0.0)
    assert np.all(sol.ell.sampled(g) == 0.0)


def test_skorokhod_drain_pure_reflection():
    g = _grid(2.0, 1e-3)
    sol = solve_skorokhod_g(-g, None, g)
    np.testing.assert_allclose(sol.x.sampled(g), 0.0, atol=1e-12)
    np.testing.assert_allclose(sol.ell.sampled(g), g, atol=1e-12)
    assert sol.residual <= 1e-12


def test_skorokhod_matches_reflection_formula_exactly():
    rng = np.random.default_rng(11)
    g = _grid(1.0, 1e-3)
    y = 0.3 + np.concatenate([[0.0], np.cumsum(rng.normal(0, 0.03, g.size - 1))])
    sol = solve_skorokhod_g(y, None, g)
    ref = y - np.minimum(0.0, np.minimum.accumulate(y))
    np.testing.assert_allclose(sol.x.sampled(g), ref, atol=1e-12)


def test_skorokhod_linear_drift_closed_form():
    theta = 0.7
    T = 3.0
    errs = {}
    for h in (1e-3, 1e-4):
        g = _grid(T, h)
        sol = solve_skorokhod_g(np.full_like(g, 2.0), lambda x: theta * x, g)
        errs[h] = np.max(np.abs(sol.x.sampled(g) - 2.0 * np.exp(-theta * g)))
    assert errs[1e-3] <= 5e-3
    assert errs[1e-4] <= 0.15 * errs[1e-3]


def test_skorokhod_contract_on_random_paths():
    rng = np.random.default_rng(23)
    g = _grid(5.0, 1e-2)
    for _ in range(10):
        y = np.concatenate([[0.2], 0.2 + np.cumsum(rng.normal(0, 0.1, g.size - 1))])
        sol = solve_skorokhod_g(y, lambda x: 0.8 * x, g)
        x = sol.x.sampled(g)
        ell = sol.ell.sampled(g)
        assert np.all(x >= 0.0)
        assert np.all(np.diff(ell) >= 0.0)
        assert ell[0] == 0.0
        assert abs(sol.diagnostics["complementarity"]) <= 1e-8


def test_skorokhod_monotone_in_dominating_increments():
    rng = np.random.default_rng(31)
    g = _grid(4.0, 1e-2)
    y1 = 0.5 + np.concatenate([[0.0], np.cumsum(rng.normal(0, 0.1, g.size - 1))])
    y2 = y1 + 0.3 * g
    a = solve_skorokhod_g(y1, lambda x: 0.5 * x, g)
    b = solve_skorokhod_g(y2, lambda x: 0.5 * x, g)
    assert np.all(b.x.sampled(g) >= a.x.sampled(g) - 1e-12)


def test_skorokhod_negative_start_rejected():
    g = _grid(1.0, 1e-3)
    with pytest.raises(ValueError, match="nonnegative"):
        solve_skorokhod_g(np.full_like(g, -0.1), None, g)


# ---------------------------------------------------------------------------
# phi_M


def test_phi_m_positive_input_passthrough():
    T, h = 2.0, 1e-2
    g = _grid(T, h)
    M = _exp_table(1.0, T)
    y = 0.1 + np.abs(np.sin(3 * g))
    sol = solve_phi_M(y, M, g)
    np.testing.assert_allclose(sol.x.sampled(g), y, atol=1e-14)


def test_phi_m_zero_renewal_mass_passthrough():
    # service atom beyond the horizon: M vanishes on the window, x = y
    T, h = 2.0, 1e-2
    g = _grid(T, h)
    M = compute_renewal_function(DistributionSpec.deterministic(5.0), T, step=h)
    y = np.sin(4 * g) - 0.5
    sol = solve_phi_M(y, M, g)
    np.testing.assert_allclose(sol.x.sampled(g), y, atol=1e-14)


def test_phi_m_constant_drain_closed_form():
    mu, c, T = 1.3, 0.8, 2.0

    def closed(t):
        return -c * np.exp(-mu * t)

    errs = {}
    for h in (1e-2, 1e-3):
        g = _grid(T, h)
        M = _exp_table(mu, T, step=h)
        sol = solve_phi_M(np.full_like(g, -c), M, g)
        errs[h] = np.max(np.abs(sol.x.sampled(g) - closed(g)))
        assert sol.residual <= 5 * h
    assert errs[1e-2] <= 2e-2
    assert errs[1e-3] <= 0.15 * errs[1e-2]


def test_phi_m_step_input_residual_bound():
    T, h = 2.0, 1e-2
    g = _grid(T, h)
    M = _exp_table(1.0, T)
    y = step_path([0.0, 0.5, 1.0, 1.5], [0.5, -1.2, 0.3, -0.4], horizon=T)
    sol = solve_phi_M(y, M, g)
    assert sol.residual <= 5 * h


def test_phi_m_lipschitz_bound_holds():
    T, h = 2.0, 1e-2
    g = _grid(T, h)
    M = _exp_table(1.0, T)
    rng = np.random.default_rng(5)
    y = np.cumsum(rng.normal(0, 0.1, g.size))
    eps = 0.05
    a = solve_phi_M(y, M, g)
    b = solve_phi_M(y - eps, M, g)
    gap = np.max(np.abs(a.x.sampled(g) - b.x.sampled(g)))
    lam = a.diagnostics["lambda_M"]
    assert np.isfinite(lam)
    assert gap <= lam * eps * (1 + 1e-9)


def test_phi_m_misaligned_grid_rejected():
    T = 2.0
    M = _exp_table(1.0, T)
    bad = uniform_grid(1.5, 0.015)
    with pytest.raises(ValueError, match="not aligned"):
        solve_phi_M(np.zeros_like(bad), M, bad)


# deterministic(1.0) puts lattice atoms of dM at every 100th step
_PHI_M_LAWS = [
    DistributionSpec.exponential(1.0),
    DistributionSpec.erlang(3, 3.0),
    DistributionSpec.deterministic(1.0),
    DistributionSpec.lognormal(-0.32, 0.8),
    DistributionSpec.hyperexponential([0.3, 0.7], [0.5, 3.0]),
]


@pytest.mark.parametrize("H", _PHI_M_LAWS, ids=lambda s: s.family)
@pytest.mark.parametrize("m", [1024, 1000])  # 1000 steps end in a partial block
@pytest.mark.parametrize("rows", [1, 12])
def test_blocked_phi_m_matches_per_step_oracle(H, m, rows):
    # every row starts above zero and drifts below it, so the in-block sweeps
    # carry a nonzero x^-; the bound is fixed at rounding level
    h = 1e-2
    grid = _grid(m * h, h)
    w = compute_renewal_function(H, m * h, step=h).increments_on(grid)
    Y = _brownian_rows(np.random.default_rng(61), grid, rows, -0.4, 1.0)
    assert np.all(Y.min(axis=1) < 0.0) and np.all(Y.max(axis=1) > 0.0)
    X = _phi_m_solve(Y, w)
    assert np.all((X < 0.0).any(axis=1))
    bound = 1e-12 * max(1.0, float(np.max(np.abs(X))))
    assert np.max(np.abs(X - per_step_phi_m_solve(Y, w))) <= bound
    trapezoid = endpoint_rule_phi_m(X, stieltjes_matrix(w))
    assert np.max(np.abs(_phi_m_trapezoid(X, w) - trapezoid)) <= bound


# ---------------------------------------------------------------------------
# phi_Mg


def test_phi_mg_without_g_matches_phi_m_in_one_iteration():
    T, h = 2.0, 1e-2
    g = _grid(T, h)
    M = _exp_table(1.0, T)
    rng = np.random.default_rng(13)
    y = np.cumsum(rng.normal(0, 0.1, g.size)) - 0.2
    a = solve_phi_Mg(y, M, None, g)
    b = solve_phi_M(y, M, g)
    np.testing.assert_allclose(a.x.sampled(g), b.x.sampled(g), atol=1e-15)
    assert a.iterations == 1


def test_phi_mg_zero_input_zero_fixed_point():
    T, h = 1.0, 1e-2
    g = _grid(T, h)
    M = _exp_table(1.0, T)
    sol = solve_phi_Mg(np.zeros(g.size), M, lambda x: 0.4 * x, g)
    assert np.all(sol.x.sampled(g) == 0.0)
    assert sol.iterations == 1


def test_phi_mg_geometric_decay_and_residual():
    T, h = 2.0, 1e-2
    g = _grid(T, h)
    M = _exp_table(1.0, T)
    y = -0.5 + 0.3 * g
    sol = solve_phi_Mg(y, M, lambda x: 0.4 * x, g, tol=1e-10)
    assert sol.residual < 1e-9
    assert np.isfinite(sol.diagnostics["delta_window"])
    # the paper's Picard iteration reaches the same point with geometric decay
    gv = _vectorize_g(lambda x: 0.4 * x)
    X, _, iters, changes = picard_phi_mg(y[None, :], M.increments_on(g), gv, h,
                                         1.0, 1e-10, "y")
    assert changes[-1] < 1e-10
    ratios = np.asarray(changes[1:]) / np.asarray(changes[:-1])
    assert ratios.size >= 2
    assert np.all(ratios[1:] < 1.0)
    assert iters < 100
    assert np.max(np.abs(X[0] - sol.x.sampled(g))) <= 1e-9


def test_phi_mg_initial_guesses_agree():
    T, h, tol = 2.0, 1e-2, 1e-10
    g = _grid(T, h)
    M = _exp_table(1.0, T)
    w = M.increments_on(g)
    gv = _vectorize_g(lambda x: 0.6 * x)
    rng = np.random.default_rng(17)
    for _ in range(5):
        y = np.cumsum(rng.normal(0, 0.08, g.size)) + 0.3 * np.sin(2 * g)
        a, _, _, _ = picard_phi_mg(y[None, :], w, gv, h, 1.0, tol, "y")
        b, _, _, _ = picard_phi_mg(y[None, :], w, gv, h, 1.0, tol, "zero")
        sol = solve_phi_Mg(y, M, lambda x: 0.6 * x, g, tol=tol)
        assert np.max(np.abs(a - b)) <= 2e-10
        assert np.max(np.abs(a[0] - sol.x.sampled(g))) <= 2e-10


def test_phi_mg_positive_decay_closed_form():
    # x stays positive, the convolution term sleeps: x' = -theta x
    theta, T, h = 0.5, 2.0, 1e-2
    g = _grid(T, h)
    M = _exp_table(1.0, T)
    sol = solve_phi_Mg(np.full(g.size, 1.5), M, lambda x: theta * x, g,
                       tol=1e-12, g_sign=-1.0)
    np.testing.assert_allclose(sol.x.sampled(g), 1.5 * np.exp(-theta * g), atol=1e-4)


def test_phi_mg_positive_growth_closed_form():
    theta, T, h = 0.5, 2.0, 1e-2
    g = _grid(T, h)
    M = _exp_table(1.0, T)
    sol = solve_phi_Mg(np.full(g.size, 1.5), M, lambda x: theta * x, g,
                       tol=1e-12, g_sign=1.0)
    np.testing.assert_allclose(sol.x.sampled(g), 1.5 * np.exp(theta * g), atol=1e-3)


def test_phi_mg_negative_constant_matches_renewal_drain():
    # g never activates below zero, so the phi_M closed form applies
    mu, T, h = 1.0, 2.0, 1e-2
    g = _grid(T, h)
    M = _exp_table(mu, T)
    sol = solve_phi_Mg(np.full(g.size, -1.0), M, lambda x: 0.9 * x, g,
                       tol=1e-11, g_sign=-1.0)
    assert sol.iterations == 1
    np.testing.assert_allclose(sol.x.sampled(g), -np.exp(-mu * g), atol=2e-2)


def _brownian_rows(rng, grid, rows, drift=0.0, start=0.0):
    steps = rng.normal(0.0, np.sqrt(grid[1]), (rows, grid.size - 1))
    Y = np.zeros((rows, grid.size))
    Y[:, 1:] = np.cumsum(steps, axis=1)
    return start + Y + drift * grid


# f(x) = 0.15 x^2, tabulated from the hazard h(t) = 0.3 t
_RAMP_F = PatienceSpec.hazard_rate(ramp_hazard(0.3)).limit_function()


@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize(
    "g",
    [lambda x: 0.6 * x, _RAMP_F, None],
    ids=["linear", "hazard_ramp", "none"],
)
def test_phi_mg_forward_matches_picard(sign, g):
    # the one-pass solve and Picard from either start reach the same discrete
    # fixed point; Picard's own sweeps still decay geometrically
    T, h, tol = 3.0, 1e-2, 1e-10
    grid = _grid(T, h)
    M = _exp_table(1.0, T)
    w = M.increments_on(grid)
    gv = _vectorize_g(g)
    rng = np.random.default_rng(41)
    for drift, start in ((-0.4, 0.1), (0.3, -0.2), (0.0, 0.5)):
        Y = _brownian_rows(rng, grid, 1, drift, start)
        U = _phi_mg_forward(Y, w, gv, h, sign, tol)
        X = _phi_m_solve(U, w)
        for init in ("y", "zero"):
            Xp, Up, iters, changes = picard_phi_mg(Y, w, gv, h, sign, tol, init)
            assert np.max(np.abs(U - Up)) <= 10 * tol
            assert np.max(np.abs(X - Xp)) <= 10 * tol
            ch = np.asarray(changes)
            if init == "y" and g is not None and ch[0] > 0:
                assert iters > 1
                assert np.all(ch[1:] / ch[:-1] < 1.0)
        # the certificate closes the forward answer within one Picard sweep
        Xs, Us, closure = _phi_mg_solve(Y, w, gv, h, sign, tol)
        assert closure < tol
        np.testing.assert_array_equal(Us, U)
        np.testing.assert_array_equal(Xs, X)


def test_phi_mg_forward_batch_matches_rows():
    T, h, tol = 3.0, 1e-2, 1e-10
    grid = _grid(T, h)
    M = _exp_table(1.0, T)
    w = M.increments_on(grid)
    gv = _vectorize_g(lambda x: 0.9 * x)
    Y = _brownian_rows(np.random.default_rng(43), grid, 6, -0.2, 0.2)
    batch = _phi_mg_forward(Y, w, gv, h, -1.0, tol)
    for r in range(Y.shape[0]):
        row = _phi_mg_forward(Y[r:r + 1], w, gv, h, -1.0, tol)
        assert np.max(np.abs(batch[r] - row[0])) <= 10 * tol
        Xp, _, _, _ = picard_phi_mg(Y[r:r + 1], w, gv, h, -1.0, tol, "y")
        assert np.max(np.abs(_phi_m_solve(batch[r:r + 1], w) - Xp)) <= 10 * tol


def test_phi_mg_forward_own_step_non_contraction_raises():
    # h/2 * lambda_g = 0.05 * 40 = 2 with g_sign = +1: the own-step map expands
    T, h = 5.0, 0.1
    g = _grid(T, h)
    M = _exp_table(1.0, T)
    w = M.increments_on(g)
    Y = np.full((1, g.size), 0.5)
    gv = _vectorize_g(lambda x: 40.0 * x)
    with pytest.raises(RuntimeError, match="did not converge"):
        _phi_mg_forward(Y, w, gv, h, 1.0, 1e-10)
    with pytest.raises(RuntimeError, match="did not converge"):
        solve_phi_Mg(Y[0], M, lambda x: 40.0 * x, g, g_sign=1.0)


def test_phi_mg_forward_large_values_stop_at_rounding():
    # at |x| ~ 1e3..1e4 the own-step update can stall at float spacing
    # (1e-13..2e-12), above 1e-3 * tol; that stall is convergence, not a
    # failure to contract
    T, h = 2.0, 1e-2
    g = _grid(T, h)
    M = _exp_table(1.0, T)
    for seed in range(4):
        for level in (1e3, 1e4):
            y = level + np.cumsum(np.random.default_rng(seed).normal(0.0, 1.0, g.size))
            sol = solve_phi_Mg(y, M, lambda x: 0.7 * x, g, g_sign=-1.0)
            assert sol.iterations == 1
            assert sol.residual < 1e-9


# deterministic(0.2) puts lattice atoms of dM at every 20th step, inside a block
_LAWS = {"exponential": DistributionSpec.exponential(1.0),
         "deterministic": DistributionSpec.deterministic(0.2)}


@pytest.mark.parametrize("law", sorted(_LAWS))
@pytest.mark.parametrize("sign", [-1.0, 1.0])
@pytest.mark.parametrize(
    "g, slope",
    [(lambda x: 0.6 * x, 0.6), (_RAMP_F, 1.0), (None, 0.0),
     (lambda x: 60.0 * x, 60.0), (lambda x: 150.0 * x, 150.0)],
    ids=["linear", "hazard_ramp", "none", "steep_60", "steep_150"],
)
def test_phi_mg_forward_blocks_match_per_step_oracle(law, sign, g, slope):
    # grids shorter than one block and not a multiple of it; the steep laws
    # make the full-block sweep expand, so the pass must halve its blocks.
    # With g_sign = +1 the input drifts down at the slope of g, so x^+ stays
    # below the level where the growth it feeds outruns the drift.
    h, tol = 1e-2, 1e-10
    M = compute_renewal_function(_LAWS[law], 3.0, step=h)
    gv = _vectorize_g(g)
    rng = np.random.default_rng(59)
    for points in (2, 33, 300):
        grid = _grid((points - 1) * h, h)
        w = M.increments_on(grid)
        for rows in (1, 6, 40):
            Y = _brownian_rows(rng, grid, rows, -slope if sign > 0 else 0.0,
                               0.1 if sign > 0 else 0.5)
            _, U, closure = _phi_mg_solve(Y, w, gv, h, sign, tol)
            assert np.max(np.abs(U - per_step_phi_mg_forward(Y, w, gv, h, sign, tol))) <= 10 * tol
            assert np.all(closure < tol)


def test_phi_mg_forward_blocks_grow_back_after_a_steep_stretch():
    # g = 150x makes the first block's sweeps expand, so the pass halves its
    # blocks there; once the input turns negative g(x^+) = 0 and the blocks
    # double back, so every later call runs at full size but the last block's
    h, tol = 1e-2, 1e-10
    grid = _grid(640 * h, h)
    M = _exp_table(1.0, grid[-1])
    w = M.increments_on(grid)
    base = _vectorize_g(lambda x: 150.0 * x)
    widths = []

    def gv(x):
        widths.append(np.shape(x)[-1] if np.ndim(x) == 2 else 0)
        return base(x)

    Y = np.where(grid < httq.maps._BLOCK * h, 1.0, -1.0)[None, :].repeat(4, axis=0)
    U = _phi_mg_forward(Y, w, gv, h, -1.0, tol)
    assert np.max(np.abs(U - per_step_phi_mg_forward(Y, w, base, h, -1.0, tol))) <= 10 * tol
    full = httq.maps._BLOCK
    regrown = widths.index(full, widths.index(full // 2))
    tail = widths[regrown:]
    assert set(tail) <= {full, tail[-1]}
    assert tail.count(full) >= (grid.size - 4 * full) // full


def test_phi_mg_certificate_rejects_a_wrong_forward_answer(monkeypatch):
    T, h = 2.0, 1e-2
    g = _grid(T, h)
    M = _exp_table(1.0, T)
    y = _brownian_rows(np.random.default_rng(47), g, 1, 0.1, 0.2)[0]
    forward = httq.maps._phi_mg_forward
    monkeypatch.setattr(httq.maps, "_phi_mg_forward", lambda *a, **k: forward(*a, **k) + 1e-6)
    with pytest.raises(RuntimeError, match="closure"):
        solve_phi_Mg(y, M, lambda x: 0.6 * x, g)


def test_phi_mg_certificate_names_the_failing_row(monkeypatch):
    # a wrong forward answer in one row of a batch fails that row's closure
    T, h, tol = 2.0, 1e-2, 1e-10
    g = _grid(T, h)
    M = _exp_table(1.0, T)
    w = M.increments_on(g)
    gv = _vectorize_g(lambda x: 0.6 * x)
    Y = _brownian_rows(np.random.default_rng(53), g, 3, 0.1, 0.2)
    _, _, closure = _phi_mg_solve(Y, w, gv, h, -1.0, tol)
    assert closure.shape == (3,) and np.all(closure < tol)
    forward = httq.maps._phi_mg_forward

    def wrong_row_1(*a, **k):
        U = forward(*a, **k)
        U[1] += 1e-6
        return U

    monkeypatch.setattr(httq.maps, "_phi_mg_forward", wrong_row_1)
    with pytest.raises(RuntimeError, match=r"closure .* in row 1 \(1 of 3 rows\)"):
        _phi_mg_solve(Y, w, gv, h, -1.0, tol)


def test_phi_mg_reprobes_g_over_the_visited_range():
    # g is nondecreasing on the first probe, [0, 2(1 + sup|y|)] = [0, 4], and
    # turns down past 10; the solution grows past 10, so the re-probe rejects g
    T, h = 5.0, 1e-2
    g = _grid(T, h)
    M = _exp_table(1.0, T)
    kink = lambda x: np.where(np.asarray(x) <= 10.0, x, 20.0 - np.asarray(x))
    with pytest.raises(ValueError, match="nondecreasing"):
        solve_phi_Mg(np.ones(g.size), M, kink, g, g_sign=1.0)


@pytest.mark.parametrize("tol, match", [
    (float("nan"), "tol must be a finite number"),
    (float("inf"), "tol must be a finite number"),
    (0.0, "tol must be positive"),
    (-1e-10, "tol must be positive"),
], ids=["nan", "inf", "zero", "negative"])
def test_phi_mg_refuses_a_tol_that_is_not_a_positive_number(tol, match):
    # a NaN tol passed `tol <= 0` and ended in a closure RuntimeError; the
    # refusal comes before g is probed
    probed = []
    g = lambda x: probed.append(1) or np.asarray(x, dtype=float)
    with pytest.raises(ValueError, match=match):
        solve_phi_Mg(linear_path([0, 1], [0.5, 0.2], 1.0), _exp_table(1.0, 1.0), g,
                     uniform_grid(1.0, 0.01), tol=tol)
    assert not probed


def test_phi_mg_input_validation():
    T, h = 1.0, 1e-2
    g = _grid(T, h)
    M = _exp_table(1.0, T)
    y = np.zeros(g.size)
    with pytest.raises(ValueError, match="tol"):
        solve_phi_Mg(y, M, None, g, tol=0.0)
    with pytest.raises(ValueError, match="g_sign"):
        solve_phi_Mg(y, M, None, g, g_sign=2.0)
    with pytest.raises(ValueError, match="nondecreasing"):
        solve_phi_Mg(y, M, lambda x: -x, g)
    with pytest.raises(ValueError, match=r"g\(0\) must be 0"):
        solve_phi_Mg(y, M, lambda x: x + 1.0, g)


@pytest.mark.parametrize("solve", [
    lambda y, M, g, grid: solve_phi_n_g(y, g, 10.0, grid),
    lambda y, M, g, grid: solve_skorokhod_g(y, g, grid),
    lambda y, M, g, grid: solve_phi_Mg(y, M, g, grid),
    lambda y, M, g, grid: sample_case_i_paths(0.0, 0.0, 1.0, 1.0, g, grid, seed=1, reps=2),
], ids=["phi_n_g", "skorokhod_g", "phi_Mg", "case_i_paths"])
def test_scalar_only_g_is_refused(solve):
    # a g that returns one number for an array is refused, not looped over
    grid = _grid(1.0, 1e-2)
    with pytest.raises(ValueError, match=r"vectorized \(shape-preserving\)"):
        solve(np.zeros(grid.size), _exp_table(1.0, 1.0), lambda x: 0.0, grid)


# ---------------------------------------------------------------------------
# grids


def test_grid_validation_errors():
    M = _exp_table(1.0, 1.0)
    with pytest.raises(ValueError, match="uniform"):
        solve_phi_M(np.zeros(3), M, np.array([0.0, 0.1, 0.3]))
    with pytest.raises(ValueError, match="start at 0"):
        solve_phi_M(np.zeros(3), M, np.array([0.1, 0.2, 0.3]))
    with pytest.raises(ValueError, match="shape"):
        solve_skorokhod_g(np.zeros(5), None, uniform_grid(1.0, 0.1))
