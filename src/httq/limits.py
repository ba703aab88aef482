"""Samplers and solvers for the two diffusion-limit regimes.

Below the critical scale (alpha < 1) the limit solves a reflected
equation driven by two independent Brownian motions:

    x(t) = xi + e(t) - sqrt(mu) s(t) + beta mu t
           - mu int_0^t f(x(u)^+ / mu) du + ell(t),    x >= 0,

handled by the reflected map with g(x) = mu f(x/mu).  At the critical
scale (alpha = 1) the limit is unreflected but remembers the service
law H through its renewal function M:

    x(t) = xi + e(t) - s(t) + beta mu t + xi^- (mu t - M(t))
           + int_0^t (x(t-u))^- dM(u) - mu int_0^t f(x(u)^+ / mu) du,

where s is the zero-mean Gaussian limit of the centered service completions
of busy servers.  Each server is a renewal process started in equilibrium,
so s has stationary increments and
    Cov[s(a), s(b)] = (V(a) + V(b) - V(|b - a|)) / 2,
    V(t) = mu t + 2 mu int_0^t M(u) du - (mu t)^2,
V the variance of a stationary renewal count (Cox 1962, Renewal Theory,
sec. 4.5).  This is the Krichagina-Puhalskii field -(z + z * dM) of the
initially busy servers' residuals and of the later entrants' services, whose
covariance A C A^T (A = I + the right-endpoint dM convolution, C the
covariance of the centered indicator sum z) `tests/oracles.py` forms on the
lattice: the two differ by O(h), and V is exact for a lattice table.  The
table carries its service law, M.H, so the covariance and the noise take no
separate H.  `compute_renewal_function` caches its tables by (law, horizon,
step), and the model and its factors are cached by table content (a factor
also by grid), each cache bounded by ``CACHE_SIZE``: a repeated call finds
the table, the model and the factor without a rebuild, and an equal table
built apart reuses the model and the factor.  The model keeps V on the
lattice, O(m) floats; a factor writes the covariance on its grid's points
into one buffer in row panels and factors it in place by blocks, so it
holds one buffer of its size plus panel temporaries.  The covariance and
its factors are read-only.

Each equation is one frozen `LimitModel`, checked once when built, that draws
both its noises (`noise`: `ServiceCovariance` only builds, factors and is read),
builds its input Y (`drive`) and solves for every row of any Y (`solve`).  The
samplers and `httq limit` compose these three, so every draw of the noise pair
is a `noise` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .distributions import CACHE_SIZE, check_count, check_number, check_service_mean
from .maps import (  # noqa: F401  (solve_phi_Mg: perfbench traces it at this name)
    _check_grid,
    _phi_mg_rows,
    _skorokhod_rows,
    solve_phi_Mg,
)
from .paths import MAX_CELLS, CadlagPath, _cumtrapz, check_grid, linear_path
from .renewal import RenewalTable
from .streams import make_rng

__all__ = [
    "LimitModel",
    "ServiceCovariance",
    "covariance_S",
    "sample_brownian",
    "sample_case_i_paths",
    "sample_case_ii_paths",
]

JITTERS = (0.0, 1e-12, 1e-10, 1e-8)


# ---------------------------------------------------------------------------
# driving noises


def _brownian_batch(rng: np.random.Generator, variance_rate: float,
                    grid: np.ndarray, reps: int) -> np.ndarray:
    out = np.zeros((reps, grid.size))
    if variance_rate > 0 and grid.size > 1:
        sd = np.sqrt(variance_rate * np.diff(grid))
        out[:, 1:] = np.cumsum(rng.standard_normal((reps, grid.size - 1)) * sd, axis=1)
    return out


def sample_brownian(variance_rate: float, grid, stream: np.random.Generator) -> CadlagPath:
    """Brownian path on the grid: independent N(0, rate * dt) increments."""
    if not check_number(variance_rate, "variance rate") >= 0:
        raise ValueError("variance rate must be nonnegative")
    grid = check_grid(grid)
    vals = _brownian_batch(stream, variance_rate, grid, 1)[0]
    return linear_path(grid, vals, float(grid[-1]))


# ---------------------------------------------------------------------------
# the Gaussian service noise at the critical scale


class ServiceCovariance:
    """Covariance model of the critical-scale service noise on a renewal table.

    Built once per table content, it keeps only the variance
    V(t) = mu t + 2 mu int_0^t M(u) du - (mu t)^2 on the table's lattice, O(m)
    read-only floats: int M is exact for a lattice table and the cumulative
    trapezoid of M otherwise.  `marginal` writes (V(a) + V(b) - V(|b - a|)) / 2
    straight onto a grid's points, which must lie on the lattice, and refuses
    a covariance of over MAX_CELLS entries; `cholesky` factors that one buffer
    in place.
    """

    def __init__(self, table: RenewalTable):
        self.table = table
        mu, t = table.rate(), table.times
        if table.method == "lattice":  # M = n on [n v, (n + 1) v)
            v, n = table.H["value"], table.values
            integral = v * n * (n - 1) / 2 + n * (t - n * v)
        else:
            integral = _cumtrapz(table.values, table.step)
        self.variance = mu * t + 2 * mu * integral - (mu * t) ** 2
        self.variance.flags.writeable = False  # shared by every caller

    def marginal(self, grid) -> np.ndarray:
        """The covariance on the grid's points, in a fresh Fortran-order array
        written one row panel at a time; a covariance of over MAX_CELLS entries
        is refused before any buffer."""
        idx = self.table._indices_on(grid)
        k, V = idx.size, self.variance
        if k * k > MAX_CELLS:
            raise ValueError(f"the covariance on {k} grid points exceeds {MAX_CELLS} cells")
        out = np.empty((k, k), order="F")
        rows = out.T  # the same symmetric matrix, with contiguous rows
        for r in range(0, k, _PANEL):
            p = idx[r:r + _PANEL]
            panel = rows[r:r + _PANEL]
            gap = p[:, None] - idx
            np.take(V, np.abs(gap, out=gap), out=panel, mode="clip")  # "clip": no buffer
            del gap  # so the sum below is the panel's one temporary
            np.subtract(V[p][:, None] + V[idx], panel, out=panel)
            panel *= 0.5
        return out

    def cholesky(self, grid) -> tuple[np.ndarray, float]:
        """Lower factor of the covariance on grid[1:], with the jitter used."""
        return _factor_cache(self.table, check_grid(grid).tobytes())


_covariance_model = lru_cache(maxsize=CACHE_SIZE)(ServiceCovariance)  # keyed by table content
_PANEL = 128  # rows or columns per panel of the covariance and of the blocked factor


def _factor_in_place(a: np.ndarray) -> np.ndarray:
    """The lower Cholesky factor of the symmetric Fortran-order array a, written
    over a and returned read-only.

    Left-looking in _PANEL-column blocks: one GEMM brings the finished columns
    into a block column, numpy's `cholesky` factors its diagonal block, and a
    solve with that factor (numpy has no triangular solve) gives the panel
    below it.  A block that is not positive definite raises `LinAlgError`, as
    numpy's factor of the whole matrix would.
    """
    n = a.shape[0]
    for c in range(0, n, _PANEL):
        e = min(c + _PANEL, n)
        if c:
            a[c:, c:e] -= a[c:, :c] @ a[c:e, :c].T
        block = a[c:e, c:e]
        d = np.linalg.cholesky(np.tril(block) + np.tril(block, -1).T)
        a[c:e, c:e] = d
        if e < n:
            a[e:, c:e] = np.linalg.solve(d, a[e:, c:e].T).T
        a[:c, c:e] = 0.0
    a.flags.writeable = False  # shared by every caller
    return a


@lru_cache(maxsize=CACHE_SIZE)
def _factor_cache(M: RenewalTable, grid_bytes: bytes) -> tuple[np.ndarray, float]:
    """(L, jitter) per table content and grid, shared by every model of an equal table.

    The covariance on grid[1:] (`ServiceCovariance.marginal`, which refuses one
    past MAX_CELLS entries before any buffer) is factored in place, and written
    afresh before each jitter rung.  L is in Fortran order, so the draws'
    `@ L.T` reads a C-ordered operand."""
    model, points = _covariance_model(M), np.frombuffer(grid_bytes)[1:]
    err = None
    for jit in JITTERS:
        a = model.marginal(points)
        if jit:  # a + jit * I
            a.flat[::a.shape[0] + 1] += jit
        try:
            return _factor_in_place(a), jit
        except np.linalg.LinAlgError as exc:
            err = str(exc)  # not exc: its traceback would keep the failed buffer alive
        del a  # so the next rung's covariance is the only buffer
    raise RuntimeError(
        f"covariance factorization failed even at jitter {JITTERS[-1]:g}: {err}"
    )


def covariance_S(s: float, t: float, M: RenewalTable) -> float:
    """Covariance of the critical-scale service noise at lattice times s, t.

    The service law is the table's, M.H.  Symmetric in (s, t); both must be
    aligned with M's table.
    """
    if min(s, t) < 0 or max(s, t) > M.horizon + 1e-9:
        raise ValueError("times must lie within the renewal table horizon")
    a, b = M._indices_on([s, t])
    V = _covariance_model(M).variance
    return float(0.5 * (V[a] + V[b] - V[abs(b - a)]))


# ---------------------------------------------------------------------------
# the limit model


def _check_rows(rows: int, grid: np.ndarray) -> None:
    """Refuse a noise draw whose rows x grid points exceed MAX_CELLS."""
    if rows * grid.size > MAX_CELLS:
        raise ValueError(f"a noise draw of {rows} rows on {grid.size} grid points "
                         f"exceeds {MAX_CELLS} cells")


@dataclass(frozen=True)
class LimitModel:
    """One limit equation: case "i" or "ii", its scalars, the patience limit f
    and, in case "ii", the renewal table M of the service law M.H.  Building it
    is the one check, before any draw: every scalar finite, mu > 0, ca2 >= 0,
    tol > 0, xi >= 0 and no M in case "i", M with mean 1/mu in case "ii"."""

    case: str
    mu: float
    ca2: float = 1.0
    xi: float = 0.0
    beta: float = 0.0
    f: Callable | None = None
    M: RenewalTable | None = None
    tol: float = 1e-10

    def __post_init__(self):
        if self.case not in ("i", "ii"):
            raise ValueError(f"unknown case {self.case!r}; use 'i' or 'ii'")
        for k in ("mu", "ca2", "xi", "beta", "tol"):
            object.__setattr__(self, k, check_number(getattr(self, k), k))
        if self.mu * self.ca2 < 0:
            raise ValueError("variance rate must be nonnegative")
        if not (self.mu > 0 and self.ca2 >= 0):
            raise ValueError(f"mu must be positive and ca2 nonnegative, got {self.mu}, {self.ca2}")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.case == "i" and self.xi < 0:
            raise ValueError("xi must be nonnegative in the reflected regime")
        if self.case == "i" and self.M is not None:
            raise ValueError("case 'i' takes no renewal table")
        if self.case == "ii":
            if self.M is None:
                raise ValueError("case 'ii' needs the renewal table M")
            check_service_mean(self.M.H, self.mu, "case 'ii'")

    def noise(self, grid, rngs, reps):
        """(E, S, jitter): reps rows of the driving pair on the grid from each
        generator of the sequence rngs, stacked in its order.

        E is Brownian with variance rate mu * ca2.  Each generator draws its E
        rows, then the standard normals Z of its S rows; S is standard Brownian,
        the cumulative sum of Z * sqrt(dt), in case "i", and in case "ii" the
        renewal-coupled service noise Z @ L.T, one GEMM with the lower factor L
        (`ServiceCovariance.cholesky`) of the covariance on grid[1:].  A draw
        over MAX_CELLS cells is refused, and the factor (at its first build the
        memory peak: one covariance-sized buffer) is fetched, before any row is
        drawn."""
        rows = check_count(len(rngs), "generator count") * check_count(reps, "reps")
        grid = check_grid(grid)
        _check_rows(rows, grid)
        jitter = 0.0
        if self.case == "ii":
            self.M._indices_on(grid)  # a grid off M's lattice is refused before the build
            L, jitter = _covariance_model(self.M).cholesky(grid)
        E, S = np.zeros((rows, grid.size)), np.zeros((rows, grid.size))
        Z = np.empty((rows, grid.size - 1))
        for k, rng in enumerate(rngs):
            E[k * reps:(k + 1) * reps] = _brownian_batch(rng, self.mu * self.ca2, grid, reps)
            Z[k * reps:(k + 1) * reps] = rng.standard_normal((reps, grid.size - 1))
        if self.case == "i":
            Z *= np.sqrt(np.diff(grid))
            np.cumsum(Z, axis=1, out=S[:, 1:])
        else:
            S[:, 1:] = Z @ L.T
        return E, S, jitter

    def drive(self, E, S, grid) -> np.ndarray:
        """The equation's input Y for every noise row (E, S) on the grid; a Y that
        is not finite (an overflowing beta mu t, say) is refused before any solve."""
        grid = check_grid(grid)
        with np.errstate(over="ignore", invalid="ignore"):  # the refusal below says it
            if self.case == "i":
                Y = self.xi + E - math.sqrt(self.mu) * S + self.beta * self.mu * grid
            else:
                Y = (self.xi + E - S + self.beta * self.mu * grid
                     + max(-self.xi, 0.0) * (self.mu * grid - self.M.values_on(grid)))
        if not np.isfinite(Y).all():
            raise ValueError(f"the limit input Y is not finite at xi={self.xi!r}, "
                             f"beta={self.beta!r}, mu={self.mu!r}")
        return Y

    def solve(self, Y, grid, defects: bool = False):
        """(X, L, diag): the equation solved for every row of Y on the uniform grid.

        L is the regulator (None in case "ii"); diag holds per-row arrays (the
        case-"ii" closure; with ``defects`` the residual) beside scalars.
        """
        grid, h = _check_grid(grid)
        Y = np.asarray(Y, dtype=float)
        if Y.ndim != 2 or Y.shape[1] != grid.size:
            raise ValueError(f"Y must have shape (rows, {grid.size}), got {Y.shape}")
        f, mu = self.f, self.mu
        g = None if f is None else \
            lambda x: mu * np.asarray(f(np.asarray(x, dtype=float) / mu), dtype=float)
        if self.case == "i":
            return _skorokhod_rows(Y, g, h, defects)
        X, diag = _phi_mg_rows(Y, self.M.increments_on(grid), g, h, -1.0, self.tol, defects)
        if defects:
            diag["residual"] = diag["quadrature_defect"]
        return X, None, diag


def _limit_paths(model: LimitModel, grid, seed: int, reps: int, replication: int) -> np.ndarray:
    grid, _ = _check_grid(grid)
    E, S, _ = model.noise(grid, [make_rng(seed, replication, "limit")], reps)
    return model.solve(model.drive(E, S, grid), grid)[0]


def sample_case_i_paths(xi: float, beta: float, mu: float, ca2: float, f,
                        grid, seed: int, reps: int,
                        replication: int = 0) -> np.ndarray:
    """(reps, len(grid)) array of reflected-limit sample paths."""
    return _limit_paths(LimitModel("i", mu, ca2, xi, beta, f), grid, seed, reps, replication)


def sample_case_ii_paths(xi: float, beta: float, mu: float, ca2: float, f,
                         M: RenewalTable, grid, seed: int, reps: int,
                         replication: int = 0, tol: float = 1e-10) -> np.ndarray:
    """(reps, len(grid)) array of critical-scale limit sample paths."""
    return _limit_paths(LimitModel("ii", mu, ca2, xi, beta, f, M, tol), grid, seed, reps,
                        replication)
