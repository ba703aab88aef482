import numpy as np
import pytest

from httq.paths import CadlagPath, counting_path, linear_path, step_path, uniform_grid

from oracles import path_integral


def test_uniform_grid_basics():
    g = uniform_grid(10.0, 0.05)
    assert g.size == 201
    assert g[0] == 0.0 and g[-1] == 10.0
    with pytest.raises(ValueError):
        uniform_grid(1.0, 0.3)


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
    assert p.sup_norm(1.0, 2.0) == 1.0
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
