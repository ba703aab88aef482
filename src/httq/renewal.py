"""Renewal functions and equilibrium (stationary-excess) distributions.

The renewal function M(t) = E[number of renewals in (0, t]] solves
M = H + H * dM.  On a uniform grid the Riemann-Stieltjes trapezoid
discretization gives a stable forward recursion; the deterministic family is
dispatched to the exact lattice formula M(t) = floor(t / v) instead of
quadrature.  A step above the stability cap min(1e-2, mean/20) is divided by
the least integer that brings it under.  Tables are frozen, read-only and
cached by (law, horizon, table step), at most ``CACHE_SIZE`` of them, so a
repeated call returns the same table.

The equilibrium distribution H_e(x) = mu * int_0^x (1 - H(u)) du (mu the
reciprocal mean) is itself a `DistributionSpec` for the exponential and
deterministic families and tabulated by cumulative trapezoid otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .distributions import CACHE_SIZE, DistributionSpec, check_number
from .paths import _cumtrapz, _inverse_interp, cell_count

__all__ = ["RenewalTable", "compute_renewal_function", "EquilibriumDistribution", "equilibrium_distribution"]


def _default_step(H: DistributionSpec) -> float:
    return min(1e-2, H.mean() / 20.0)


@dataclass(frozen=True, eq=False)
class RenewalTable:
    """M tabulated on a uniform grid [0, horizon]; compares and hashes by content."""

    H: DistributionSpec
    times: np.ndarray
    values: np.ndarray
    step: float
    method: str  # "trapezoid" | "lattice"

    def __post_init__(self):
        self.times.flags.writeable = self.values.flags.writeable = False  # cache keys

    @cached_property
    def _content(self) -> tuple:
        return (self.H, self.step, self.method, self.times.tobytes(), self.values.tobytes())

    def __eq__(self, other) -> bool:
        if not isinstance(other, RenewalTable):
            return NotImplemented
        return self._content == other._content

    def __hash__(self) -> int:
        return hash(self._content)

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def rate(self) -> float:
        """Reciprocal mean of H (the long-run renewal rate)."""
        return 1.0 / self.H.mean()

    def _indices_on(self, grid: np.ndarray) -> np.ndarray:
        grid = np.asarray(grid, dtype=float)
        idx = np.rint(grid / self.step).astype(int)
        if np.any(idx >= self.times.size):
            raise ValueError(f"grid runs past the renewal table's horizon {self.horizon}")
        if np.any(np.abs(idx * self.step - grid) > 1e-9) or np.any(idx < 0):
            raise ValueError("grid is not aligned with the renewal table (integer multiples of its step)")
        return idx

    def values_on(self, grid: np.ndarray) -> np.ndarray:
        """M at grid points; the grid must be a sub-grid of the table."""
        return self.values[self._indices_on(grid)]

    def increments_on(self, grid: np.ndarray) -> np.ndarray:
        """dM over the cells of an aligned grid: M(t_k) - M(t_{k-1}), k >= 1."""
        return np.diff(self.values_on(grid))

    def residual(self) -> float:
        """sup over the grid of |M - H - H * dM| under the scheme's quadrature."""
        m = self.times.size - 1
        if self.method == "lattice":
            Hg = np.asarray(self.H.cdf(self.times + 1e-12), dtype=float)
            # Exact Stieltjes sums against the atom train of M.
            v = self.H["value"]
            r = 0.0
            for k in range(1, m + 1):
                t = self.times[k]
                jumps = np.arange(1, int((t + 1e-12) / v) + 1) * v
                # Same lattice nudge as the values: t - j*v == v up to float noise counts.
                conv = np.sum(np.asarray(self.H.cdf(t - jumps + 1e-12), dtype=float))
                r = max(r, abs(self.values[k] - Hg[k] - conv))
            return float(r)
        Hg = np.asarray(self.H.cdf(self.times), dtype=float)
        b = 0.5 * (Hg[:-1] + Hg[1:])  # b[i] = (H(t_i) + H(t_{i+1})) / 2
        conv = np.convolve(np.diff(self.values), b)[:m]  # conv[k-1] = sum_{j<k} dM_j b_{k-1-j}
        return float(np.max(np.abs(self.values[1:] - Hg[1:] - conv)))


def compute_renewal_function(H: DistributionSpec, horizon: float, step: float | None = None) -> RenewalTable:
    """Solve M = H + H * dM on [0, horizon].

    ``step`` defaults to the stability cap min(1e-2, mean(H)/20); one over it
    by more than 1e-15 is divided by the least integer k that brings it under,
    so every multiple of ``step`` lies on the lattice of ``table.step`` = step / k.
    Deterministic H uses the exact lattice formula, and each table is built once.
    """
    if check_number(horizon, "horizon") <= 0:
        raise ValueError("horizon must be positive")
    cap = _default_step(H)
    step = cap if step is None else check_number(step, "step")
    k = max(1, math.floor(step / cap))  # not ceil: 0.07 / 0.01 rounds to just over 7
    while step / k > cap + 1e-15:
        k += 1
    if float(H.cdf(0.0)) != 0.0:
        raise ValueError("interrenewal law must have no atom at 0")
    return _renewal_table(H, float(horizon), step / k)


@lru_cache(maxsize=CACHE_SIZE)
def _renewal_table(H: DistributionSpec, horizon: float, step: float) -> RenewalTable:
    """The table of `compute_renewal_function`, cached by (law, horizon, step)."""
    m = math.ceil(cell_count(horizon, step) - 1e-9)
    times = step * np.arange(m + 1)
    if times[-1] < horizon - 1e-12:
        m += 1
        times = step * np.arange(m + 1)

    if H.family == "deterministic":
        v = H["value"]
        values = np.floor((times + 1e-12) / v)
        return RenewalTable(H, times, values, step, "lattice")

    Hg = np.asarray(H.cdf(times), dtype=float)
    b = 0.5 * (Hg[:-1] + Hg[1:])
    M = np.zeros(m + 1)
    dM = np.zeros(m + 1)  # dM[k] = M_k - M_{k-1}
    denom = 1.0 - 0.5 * Hg[1]  # at least 1/2, as H is a cdf
    for k in range(1, m + 1):
        conv = float(np.dot(dM[1:k], b[k - 1 : 0 : -1])) if k > 1 else 0.0
        M[k] = (Hg[k] + conv - 0.5 * Hg[1] * M[k - 1]) / denom
        dM[k] = M[k] - M[k - 1]
    return RenewalTable(H, times, M, step, "trapezoid")


@dataclass(frozen=True)
class EquilibriumDistribution:
    """H_e(x) = mu * int_0^x (1 - H(u)) du, tabulated by cumulative trapezoid."""

    H: DistributionSpec
    xs: np.ndarray
    cs: np.ndarray

    def cdf(self, x):
        out = np.interp(np.asarray(x, dtype=float), self.xs, self.cs, left=0.0, right=1.0)
        return out if out.ndim else float(out)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return _inverse_interp(self.xs, self.cs, rng.random(size))


@lru_cache(maxsize=CACHE_SIZE)
def equilibrium_distribution(H: DistributionSpec) -> DistributionSpec | EquilibriumDistribution:
    """The equilibrium law of H, built once per law and then shared.

    The exponential law is its own (it is memoryless); deterministic(v) has uniform(0, v).
    """
    if H.family == "exponential":
        return H
    if H.family == "deterministic":
        return DistributionSpec.uniform(0.0, H["value"])
    mu = 1.0 / H.mean()
    step = H.mean() / 2000.0
    hi = H.mean()
    # Extend the table until essentially all equilibrium mass is covered.
    for _ in range(40):
        xs = np.arange(0.0, hi + step, step)
        surv = 1.0 - np.asarray(H.cdf(xs), dtype=float)
        cs = mu * _cumtrapz(surv, step)
        if cs[-1] >= 1.0 - 1e-9:
            break
        hi *= 2.0
    cs = np.minimum(cs, 1.0)
    xs.flags.writeable = cs.flags.writeable = False  # the table is shared
    return EquilibriumDistribution(H, xs, cs)
