import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from httq.cli import sample_noise
from httq.distributions import DistributionSpec
from httq.limits import LimitModel, _covariance_model, sample_brownian, sample_case_i_paths
from httq.maps import solve_phi_M
from httq.paths import (MAX_CELLS, CadlagPath, _coalesced, cell_count, counting_path, linear_path,
                        step_path, uniform_grid)
from httq.renewal import compute_renewal_function
from httq.scaling import scale
from httq.simulator import SystemConfig, simulate
from httq.streams import make_rng

from oracles import path_integral


def test_uniform_grid_basics():
    g = uniform_grid(10.0, 0.05)
    assert g.size == 201
    assert g[0] == 0.0 and g[-1] == 10.0
    with pytest.raises(ValueError):
        uniform_grid(1.0, 0.3)


def test_cell_cap_is_shared_and_checked_before_allocation():
    assert cell_count(float(MAX_CELLS), 1.0) == MAX_CELLS
    for horizon in (MAX_CELLS + 1.0, float("inf")):
        with pytest.raises(ValueError, match="cells"):
            cell_count(horizon, 1.0)
    # 1e8 cells: refused at once, where an unchecked build would allocate gigabytes
    with pytest.raises(ValueError, match="1e\\+08 cells"):
        uniform_grid(1e6, 0.01)
    with pytest.raises(ValueError, match="1e\\+08 cells"):
        compute_renewal_function(DistributionSpec.exponential(1.0), 1e6, step=0.01)


@pytest.mark.parametrize("build,message", [
    (lambda: uniform_grid(True, 0.1), "horizon must be a finite number, got True"),
    (lambda: uniform_grid(10.0, True), "step must be a finite number, got True"),
    (lambda: uniform_grid("10", 0.1), "horizon must be a finite number, got '10'"),
    (lambda: compute_renewal_function(DistributionSpec.exponential(1.0), True),
     "horizon must be a finite number, got True"),
    (lambda: compute_renewal_function(DistributionSpec.exponential(1.0), "2"),
     "horizon must be a finite number, got '2'"),
], ids=["grid-bool-horizon", "grid-bool-step", "grid-str-horizon", "table-bool-horizon",
        "table-str-horizon"])
def test_grid_builders_read_horizon_and_step_as_numbers(build, message):
    # a bool passed as 1, so True gave a grid or table on [0, 1]; a string
    # ended in a TypeError
    with pytest.raises(ValueError, match=message):
        build()


@pytest.fixture(scope="module")
def record_and_table():
    config = SystemConfig(n=4, alpha=1.0, mu=1.0, beta=0.0,
                          arrival=DistributionSpec.exponential(1.0),
                          service=DistributionSpec.exponential(1.0), patience=None,
                          horizon=2.0, abandon=False)
    return simulate(config, seed=1), compute_renewal_function(config.service, horizon=2.0)


@pytest.mark.parametrize("take", [
    pytest.param(lambda grid, rec, M: scale(rec, grid), id="scale"),
    pytest.param(lambda grid, rec, M: sample_brownian(1.0, grid, make_rng(1)),
                 id="sample_brownian"),
    pytest.param(lambda grid, rec, M: sample_noise(LimitModel("i", 1.0), grid,
                                                   [make_rng(1, 0, "limit")], 1),
                 id="sample_noise"),
    pytest.param(lambda grid, rec, M: _covariance_model(M).cholesky(grid), id="cholesky"),
    pytest.param(lambda grid, rec, M: solve_phi_M(np.zeros(grid.size), M, grid),
                 id="solve_phi_M"),
    pytest.param(lambda grid, rec, M: sample_case_i_paths(0.0, 0.0, 1.0, 1.0, None, grid,
                                                          seed=1, reps=2),
                 id="sample_case_i_paths"),
])
@pytest.mark.parametrize("bad,match", [([0.5, 1.0], "start at 0"),
                                       ([0.0, 2.0, 1.0], "strictly increase")])
def test_every_grid_taker_applies_check_grid(record_and_table, take, bad, match):
    with pytest.raises(ValueError, match=match):
        take(np.array(bad), *record_and_table)


def test_step_eval_right_continuous():
    p = step_path([0.0, 1.0, 2.5], [1.0, -2.0, 3.0], horizon=4.0)
    assert p(0.0) == 1.0
    assert p(0.999) == 1.0
    assert p(1.0) == -2.0  # right-continuous at the jump
    assert p.left_limit(1.0) == 1.0
    assert p(3.9) == 3.0  # flat past the last breakpoint
    np.testing.assert_allclose(p([0.5, 1.5, 2.5]), [1.0, -2.0, 3.0])


def test_step_sup_and_integral_exact():
    p = step_path([0.0, 1.0, 3.0], [2.0, -1.0, 0.5], horizon=5.0)
    assert p.sup_norm() == 2.0
    # int: 2*1 + (-1)*2 + 0.5*2 = 1.0
    assert path_integral(p) == pytest.approx(1.0)
    assert path_integral(p, 0.5, 1.5) == pytest.approx(2 * 0.5 - 1 * 0.5)
    cum = p.cumulative_integral()
    assert cum.kind == "linear"
    assert cum(5.0) == pytest.approx(1.0)
    assert cum(1.0) == pytest.approx(2.0)


def test_linear_eval_and_integral():
    p = linear_path([0.0, 2.0], [0.0, 4.0], horizon=2.0)
    assert p(1.0) == pytest.approx(2.0)
    assert path_integral(p) == pytest.approx(4.0)
    assert p.sup_norm() == 4.0
    assert p.left_limit(1.0) == p(1.0)


def test_pos_neg_parts_and_scale():
    p = step_path([0.0, 1.0], [-2.0, 3.0], horizon=2.0)
    assert p.pos_part().values.tolist() == [0.0, 3.0]
    assert p.neg_part().values.tolist() == [2.0, 0.0]
    assert p.scale(-1.0).values.tolist() == [2.0, -3.0]


def test_counting_path_coalesces_ties():
    p = counting_path([0.5, 0.5, 1.0, 2.0], horizon=3.0)
    np.testing.assert_allclose(p.times, [0.0, 0.5, 1.0, 2.0])
    np.testing.assert_allclose(p.values, [0.0, 2.0, 3.0, 4.0])
    assert p(0.5) == 2.0
    assert p.left_limit(0.5) == 0.0
    q = counting_path([], horizon=1.0)
    assert q(1.0) == 0.0


def test_counting_path_event_at_zero():
    p = counting_path([0.0, 0.0, 1.0], horizon=2.0)
    assert p(0.0) == 2.0
    np.testing.assert_allclose(p.times, [0.0, 1.0])


def test_validation_errors():
    with pytest.raises(ValueError):
        CadlagPath(np.array([0.0, 1.0, 1.0]), np.zeros(3), "step", 2.0)
    with pytest.raises(ValueError):
        CadlagPath(np.array([0.5, 1.0]), np.zeros(2), "step", 2.0)
    with pytest.raises(ValueError):
        CadlagPath(np.array([0.0, 1.0]), np.zeros(2), "spline", 2.0)
    p = step_path([0.0, 1.0], [0.0, 1.0], horizon=2.0)
    with pytest.raises(ValueError):
        p(2.5)


def test_derived_paths_still_check_their_values():
    # derived paths trust the inherited breakpoints, not the new values
    for p in (step_path([0.0, 1.0, 1.5], [1.0, -2.0, 3.0], horizon=2.0),
              linear_path([0.0, 1.0, 1.5], [1.0, -2.0, 3.0], horizon=2.0)):
        for fn in (lambda v: v[:-1], lambda v: np.append(v, 0.0),
                   lambda v: v.reshape(1, -1), lambda v: 7.0):
            with pytest.raises(ValueError, match="equal length"):
                p.map_values(fn)
        for q in (p.map_values(np.abs), p.scale(2.0), p.shift_values(1.0),
                  p.pos_part(), p.neg_part()):
            assert q.times is p.times and q.kind == p.kind and q.horizon == p.horizon
            assert q.values.dtype == float and q.values.shape == p.times.shape
        integral = p.cumulative_integral()
        assert integral.kind == "linear"
        np.testing.assert_array_equal(integral.times, [0.0, 1.0, 1.5, 2.0])
        assert p.map_values(lambda v: np.ones(3, dtype=int)).values.dtype == float


@pytest.mark.parametrize("times", [[0.0, 1.0, 1.0], [0.0, 2.0, 1.0], [0.0, np.nan]])
def test_public_constructors_reject_non_increasing_times(times):
    values = np.zeros(len(times))
    for build in (lambda: CadlagPath(np.array(times), values, "step", 3.0),
                  lambda: CadlagPath(np.array(times), values, "linear", 3.0),
                  lambda: step_path(times, values, horizon=3.0),
                  lambda: linear_path(times, values, horizon=3.0)):
        with pytest.raises(ValueError, match="strictly increasing"):
            build()


def test_counting_path_breakpoints_strictly_increase():
    # counting_path sorts and coalesces its events, so its breakpoints strictly
    # increase; one explicit check refuses a NaN, a time below 0 and one more
    # than 1e-12 past the horizon
    p = counting_path([2.0, 0.5, 1.0, 0.5, 2.0, 0.0], horizon=3.0)
    np.testing.assert_array_equal(p.times, [0.0, 0.5, 1.0, 2.0])
    np.testing.assert_array_equal(p.values, [1.0, 3.0, 4.0, 6.0])
    for ev in ([0.0, np.nan], [np.nan], [-1.0, 1.0], [-1e-13], [3.0 + 2e-12]):
        with pytest.raises(ValueError, match="event times outside"):
            counting_path(ev, horizon=3.0)
    np.testing.assert_array_equal(counting_path([3.0 + 5e-13], horizon=3.0).values, [0.0, 1.0])


@pytest.mark.parametrize("build,message", [
    (lambda: counting_path([0.5], float("nan")), "horizon must be a finite number, got nan"),
    (lambda: CadlagPath([0.0, 1.0], [0.0, 1.0], "step", float("nan")),
     "horizon must be a finite number, got nan"),
    (lambda: counting_path([], -5e-13), "horizon must be nonnegative"),
    (lambda: CadlagPath([0.0], [0.0], "step", -5e-13), "is negative or precedes"),
    (lambda: linear_path([0.0, 1.0], [0.0, 1.0], float("inf")), "horizon must be a finite number"),
], ids=["counting-nan", "cadlag-nan", "counting-negative", "cadlag-negative", "linear-inf"])
def test_horizon_is_a_finite_nonnegative_number(build, message):
    # a NaN horizon passed every comparison with it, so the path evaluated
    # anywhere; a horizon just below 0 slipped inside the breakpoint tolerance
    with pytest.raises(ValueError, match=message):
        build()


@st.composite
def _event_multisets(draw):
    """(unsorted event times, horizon): ties, events at 0 and at the horizon."""
    T = draw(st.sampled_from([1.0, 2.5, 3.0]))
    pool = [0.0, T, *draw(st.lists(st.floats(0.0, T, exclude_min=True, exclude_max=True),
                                   max_size=6))]
    return draw(st.lists(st.sampled_from(pool), max_size=30)), T


def _brute_force(t, ev, jumps, start, left=False):
    """start plus the jumps at events <= t (< t for a left limit, except at 0)."""
    t = np.asarray(t)[:, None]
    hit = (ev < t) | ((ev == t) & (t == 0.0)) if left else ev <= t
    return start + (hit * jumps).sum(axis=1)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(events=_event_multisets(), data=st.data())
def test_coalescing_rule_matches_brute_force_count(events, data):
    # the paths built by the one coalescing rule are trusted, so the rule is
    # checked against a direct count: breakpoints, left limits and midpoints
    ev, T = events
    ev = np.array(ev, dtype=float)
    signs = np.array(data.draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=ev.size,
                                        max_size=ev.size)), dtype=float)
    start = float(data.draw(st.integers(0, 5)))
    order = np.argsort(ev, kind="stable")
    for p, jumps, x0 in ((counting_path(ev, horizon=T), np.ones(ev.size), 0.0),
                         (_coalesced(ev[order], signs[order], start, T), signs, start)):
        assert p.kind == "step" and p.horizon == T
        assert p.times[0] == 0.0 and np.all(np.diff(p.times) > 0)
        np.testing.assert_array_equal(p.values, _brute_force(p.times, ev, jumps, x0))
        np.testing.assert_array_equal(p.left_limit(p.times),
                                      _brute_force(p.times, ev, jumps, x0, left=True))
        mids = (p.times + np.append(p.times[1:], T)) / 2
        np.testing.assert_array_equal(p(mids), _brute_force(mids, ev, jumps, x0))


def test_random_step_paths_integral_matches_dense_riemann():
    rng = np.random.default_rng(42)
    for _ in range(20):
        k = rng.integers(1, 30)
        times = np.concatenate(([0.0], np.sort(rng.uniform(0.0, 9.0, size=k))))
        times = np.unique(times)
        vals = rng.normal(size=times.size)
        p = step_path(times, vals, horizon=10.0)
        dense = np.linspace(0.0, 10.0, 200001)
        riemann = float(np.sum(p(dense[:-1]) * np.diff(dense)))
        assert path_integral(p) == pytest.approx(riemann, abs=2e-3)
        assert p.sup_norm() == pytest.approx(np.max(np.abs(vals)))
