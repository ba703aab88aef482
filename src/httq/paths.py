"""Cadlag sample paths on [0, T] with exact path algebra.

Two interpolation kinds cover everything the library produces:

* ``"step"``   -- right-continuous piecewise-constant paths (counting
  processes, queue lengths).  The path holds ``values[k]`` on
  ``[times[k], times[k+1])`` and ``values[-1]`` up to the horizon.
* ``"linear"`` -- continuous piecewise-linear paths (integrals,
  compensators, Brownian samples tabulated on a grid).

Evaluation, left limits and sup-norms are exact for the stored
representation; there is no hidden resampling.

The constructors check that the breakpoints strictly increase.  Paths on
breakpoints the library built itself skip that check: a derived path
(``map_values``, ``scale``, ``cumulative_integral``, ...) checks only its new
values' shape, and the one coalescing rule behind ``counting_path`` and the
simulator's E, S, G and X trusts the times its caller sorted.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import check_number

__all__ = ["CadlagPath", "step_path", "linear_path", "counting_path", "uniform_grid", "check_grid"]

# The most cells a time grid or a renewal table may have: 128 MB per float array.
MAX_CELLS = 2**24


def cell_count(horizon: float, step: float) -> float:
    """horizon / step, refused before anything is allocated unless it lies in (0, MAX_CELLS]."""
    cells = horizon / step
    if not 0 < cells <= MAX_CELLS:
        raise ValueError(f"horizon / step gives {cells:.4g} cells; a grid needs a positive "
                         f"count of at most {MAX_CELLS}")
    return cells


def _cumtrapz(values: np.ndarray, h) -> np.ndarray:
    """Cumulative trapezoid sums along the last axis from 0; h: step or cell widths."""
    mids = 0.5 * (values[..., 1:] + values[..., :-1]) * h
    out = np.zeros_like(values)
    np.cumsum(mids, axis=-1, out=out[..., 1:])
    return out


def _inverse_interp(xs: np.ndarray, cs: np.ndarray, u) -> np.ndarray:
    """Inverse of the nondecreasing table cs over xs at u: within the cell of the first
    cs >= u, linear between its ends (its left end where the cell is flat)."""
    idx = np.clip(np.searchsorted(cs, u, side="left"), 1, cs.size - 1)
    c_lo, c_hi = cs[idx - 1], cs[idx]
    x_lo, x_hi = xs[idx - 1], xs[idx]
    dc = c_hi - c_lo
    frac = np.where(dc > 0, (u - c_lo) / np.where(dc > 0, dc, 1.0), 0.0)
    return x_lo + frac * (x_hi - x_lo)


def uniform_grid(horizon: float, step: float) -> np.ndarray:
    """Uniform grid 0, step, ..., horizon; horizon must be a multiple of step."""
    if check_number(horizon, "horizon") <= 0 or check_number(step, "step") <= 0:
        raise ValueError("horizon and step must be positive")
    m = round(cell_count(horizon, step))
    if abs(m * step - horizon) > 1e-9 * max(1.0, horizon):
        raise ValueError(f"horizon {horizon} is not an integer multiple of step {step}")
    return np.linspace(0.0, horizon, m + 1)


def check_grid(grid, horizon: float | None = None) -> np.ndarray:
    """The one time-grid rule, returning the grid as a float array.

    A grid is a non-empty 1-d array that starts at 0 and strictly increases;
    given a horizon, it must also lie within [0, horizon].
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"grid must be a non-empty 1-d array, got shape {grid.shape}")
    if horizon is not None and (grid.min() < 0 or grid.max() > horizon):
        raise ValueError("grid extends beyond the record's [0, horizon]")
    if grid[0] != 0.0 or not np.all(np.diff(grid) > 0):
        raise ValueError("grid must start at 0 and strictly increase")
    return grid


@dataclass(frozen=True)
class CadlagPath:
    """A cadlag path on [0, horizon].

    Parameters
    ----------
    times : ndarray
        Strictly increasing breakpoints, ``times[0] == 0``.
    values : ndarray
        Path values at the breakpoints (right-continuous for steps).
    kind : str
        ``"step"`` or ``"linear"``.
    horizon : float
        Right end of the domain, at least ``times[-1]``.
    """

    times: np.ndarray
    values: np.ndarray
    kind: str
    horizon: float

    def __post_init__(self):
        t = np.asarray(self.times, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.ndim != 1 or v.shape != t.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        if t.size == 0:
            raise ValueError("path needs at least one breakpoint")
        if t[0] != 0.0:
            raise ValueError("paths start at time 0")
        if t.size > 1 and not np.all(np.diff(t) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        if self.kind not in ("step", "linear"):
            raise ValueError(f"unknown path kind {self.kind!r}")
        horizon = check_number(self.horizon, "horizon")
        if not horizon >= max(t[-1] - 1e-12, 0.0):
            raise ValueError(f"horizon {horizon!r} is negative or precedes the last breakpoint")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "horizon", horizon)

    # -- evaluation ---------------------------------------------------------

    def __call__(self, t):
        """Right-continuous evaluation, vectorized; flat after the last breakpoint."""
        t = np.asarray(t, dtype=float)
        if np.any(t < -1e-12) or np.any(t > self.horizon + 1e-9):
            raise ValueError("evaluation outside [0, horizon]")
        if self.kind == "step":
            idx = np.searchsorted(self.times, t, side="right") - 1
            idx = np.clip(idx, 0, self.times.size - 1)
            out = self.values[idx]
        else:
            out = np.interp(t, self.times, self.values)
        return out if out.ndim else float(out)

    def left_limit(self, t):
        """Left limit x(t-); at t = 0 returns x(0)."""
        t = np.asarray(t, dtype=float)
        if self.kind == "linear":
            return self(t)
        idx = np.searchsorted(self.times, t, side="left") - 1
        idx = np.clip(idx, 0, self.times.size - 1)
        out = self.values[idx]
        return out if out.ndim else float(out)

    # -- exact path functionals ----------------------------------------------

    def sup_norm(self) -> float:
        """sup over [0, horizon] of |x(t)|: both kinds take their extremes at
        the breakpoints and hold the last value to the horizon."""
        return float(np.abs(self.values).max())

    def cumulative_integral(self) -> "CadlagPath":
        """t -> int_0^t x(s) ds as a linear path on the same breakpoints."""
        t = self.times
        cum = (_cumtrapz(self.values, np.diff(t)) if self.kind == "linear"
               else np.concatenate(([0.0], np.cumsum(self.values[:-1] * np.diff(t)))))
        if self.horizon > t[-1]:
            tail = self.values[-1] * (self.horizon - t[-1])
            t = np.concatenate((t, [self.horizon]))
            cum = np.concatenate((cum, [cum[-1] + tail]))
        return self._derived(cum, "linear", t)

    # -- algebra --------------------------------------------------------------

    def map_values(self, fn) -> "CadlagPath":
        """Apply fn to the breakpoint values.

        Exact for step paths and any fn; for linear paths this interpolates
        fn(x) between knots (exact only when fn is affine between knot values).
        """
        return self._derived(fn(self.values))

    def pos_part(self) -> "CadlagPath":
        return self.map_values(lambda v: np.maximum(v, 0.0))

    def neg_part(self) -> "CadlagPath":
        return self.map_values(lambda v: np.maximum(-v, 0.0))

    def scale(self, c: float) -> "CadlagPath":
        return self._derived(c * self.values)

    def shift_values(self, c: float) -> "CadlagPath":
        return self._derived(self.values + c)

    def _derived(self, values, kind: str | None = None, times=None) -> "CadlagPath":
        """New values on these validated breakpoints (or them plus the horizon)."""
        t = self.times if times is None else times
        v = np.asarray(values, dtype=float)
        if v.shape != t.shape:
            raise ValueError("times and values must be 1-d arrays of equal length")
        return _trusted(t, v, kind or self.kind, self.horizon)

    def sampled(self, grid: np.ndarray) -> np.ndarray:
        return np.asarray(self(np.asarray(grid, dtype=float)))


def step_path(times, values, horizon: float) -> CadlagPath:
    return CadlagPath(np.asarray(times, float), np.asarray(values, float), "step", horizon)


def linear_path(times, values, horizon: float) -> CadlagPath:
    return CadlagPath(np.asarray(times, float), np.asarray(values, float), "linear", horizon)


def counting_path(event_times, horizon: float) -> CadlagPath:
    """Step path counting events: t -> #{i : event_times[i] <= t}.

    Event times need not be sorted or distinct; simultaneous events coalesce
    into one breakpoint carrying the cumulative count.  A NaN or negative time,
    one more than 1e-12 past the horizon, and a NaN or negative horizon are refused.
    """
    if not check_number(horizon, "horizon") >= 0:
        raise ValueError(f"horizon must be nonnegative, got {horizon!r}")
    ev = np.sort(np.asarray(event_times, dtype=float))
    last = ev[-1] if ev.size else 0.0
    if np.isnan(last) or (ev.size and ev[0] < 0) or not horizon >= last - 1e-12:
        raise ValueError("event times outside [0, horizon]")
    return _coalesced(ev, 1.0, 0.0, horizon)


def _coalesced(times: np.ndarray, jumps, start: float, horizon: float) -> CadlagPath:
    """start plus the running sum of `jumps` (one per time, or one for all) at
    `times`, as a step path: one breakpoint at 0 and one per distinct time,
    holding the sum through that time's last entry.  The caller sorts the
    times and keeps them in [0, horizon]; nothing here checks them again."""
    t = np.concatenate(([0.0], times))
    v = np.empty(t.size)
    v[0], v[1:] = start, jumps
    np.cumsum(v, out=v)
    last = np.append(t[1:] != t[:-1], True)
    if not last.all():
        t, v = t[last], v[last]
    return _trusted(t, v, "step", horizon)


def _trusted(times: np.ndarray, values: np.ndarray, kind: str, horizon: float) -> CadlagPath:
    """A path on breakpoints the library built itself, without the constructor's checks."""
    path = object.__new__(CadlagPath)
    vars(path).update(times=times, values=values, kind=kind, horizon=float(horizon))
    return path
