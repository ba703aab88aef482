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

where s is a zero-mean Gaussian process built from two independent
sources of service-time fluctuation: the residual services of the
initially busy servers (equilibrium law H_e) and the services of
customers entering later at the fluid pace mu n.  Writing z for the
sum of those two centered indicator fields, s(t) = -(z(t) +
int_0^t z(t-u) dM(u)), which gives the covariance

    Cov[s(a), s(b)] = (A C A^T)_{ab},   A = I + (right-endpoint dM conv),
    C(a, b) = H_e(a^b) H_e^c(avb) + mu int_0^{a^b} H(a^b - r) H^c(avb - r) dr

on the renewal table's lattice (a^b = min, avb = max).  The table carries
its service law, M.H, so the covariance and the noise take no separate H.
The same discrete convolution operator A is reused by the finite-n replica
construction, so comparisons between the two are free of quadrature
bias.  `compute_renewal_function` caches its tables by (law, horizon, step),
and the model and its factors are cached by table content (a factor also by
grid), each cache bounded by ``CACHE_SIZE``: a repeated call finds the table,
the model and the factor without a rebuild, and an equal table built apart
reuses the model and the factor.
The build holds at most three (m+1) x (m+1) float buffers at once, and a
factor on a grid whose lattice points form one run at most two of its size
(three at a jitter rung); the covariance and its factors are read-only.

Each equation is one frozen `LimitModel`, checked once when built, that draws
both its noises (`noise`: `ServiceCovariance` only builds, factors and is read),
builds its input Y (`drive`) and solves for every row of any Y (`solve`).  The
public samplers and solvers compose these three; the single-path solvers
return the maps' `MappingSolution` (variant "i" or "ii").
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .distributions import CACHE_SIZE, check_count, check_number, check_service_mean
from .maps import (  # noqa: F401  (solve_phi_Mg: perfbench traces it at this name)
    MappingSolution,
    _check_grid,
    _phi_mg_rows,
    _skorokhod_rows,
    _solution,
    _stieltjes_matrix,
    solve_phi_Mg,
)
from .paths import MAX_CELLS, CadlagPath, check_grid, linear_path
from .renewal import RenewalTable, equilibrium_distribution
from .streams import make_rng

__all__ = [
    "LimitModel",
    "NoiseSample",
    "ServiceCovariance",
    "covariance_S",
    "sample_brownian",
    "sample_noise",
    "solve_limit_case_i",
    "solve_limit_case_ii",
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
    """Covariance model of the critical-scale service noise on a lattice.

    Built once per renewal table content, then factored and read; grids handed
    to `marginal` or `cholesky` must be sub-lattices of the table's.  The (m+1)
    x (m+1) build holds at most three such float buffers at once (J, overwritten
    by C, then the two products), and `matrix` is read-only.  A table over 4096
    points ((m+1)^2 > MAX_CELLS) is refused before any buffer.
    """

    def __init__(self, table: RenewalTable):
        t = table.times
        if t.size ** 2 > MAX_CELLS:
            raise ValueError(f"a {t.size}-point table's covariance exceeds {MAX_CELLS} cells")
        self.table = table
        self.H = table.H
        self.mu = table.rate()
        h = table.step
        m = t.size - 1
        eq = equilibrium_distribution(self.H)
        he = np.asarray(eq.cdf(t), dtype=float)
        hec = 1.0 - he
        # midpoint rule for J[i, d] = int_0^{t_i} H(u) H^c(u + t_d) du:
        # exact for lattice-aligned atoms, second order for smooth H
        mids = (np.arange(2 * m, dtype=float) + 0.5) * h
        h_mid = np.asarray(self.H.cdf(mids[:m]), dtype=float)
        hc_mid = 1.0 - np.asarray(self.H.cdf(mids), dtype=float)
        # row k + 1 of J sums the products h_mid[r] hc_mid[r + d] over r <= k
        J = np.zeros((m + 1, m + 1))
        np.multiply(h_mid[:, None], sliding_window_view(hc_mid, m + 1), out=J[1:])
        np.cumsum(J[1:], axis=0, out=J[1:])  # in place: numpy makes no copy
        J *= h
        # C(t_i, t_j) = he[i] hec[j] + mu J[i, j - i] for i <= j reads only J's
        # row i, so C overwrites J row by row and mirrors the finished rows above
        C = J
        for i in range(m + 1):
            C[i, i:] = he[i] * hec[i:] + self.mu * J[i, :m + 1 - i]
            C[i, :i] = C[:i, i]
        A = _stieltjes_matrix(np.diff(table.values))
        cov = A @ C
        del C, J
        cov = cov @ A.T
        del A
        self.matrix = cov + cov.T
        self.matrix *= 0.5
        self.matrix.flags.writeable = False  # shared by every caller

    def marginal(self, grid) -> np.ndarray:
        """The covariance on the grid: a read-only view of `matrix` when the
        grid's lattice indices are one contiguous run, else a copy."""
        idx = self.table._indices_on(grid)
        if idx.size and np.all(np.diff(idx) == 1):
            return self.matrix[idx[0]:idx[-1] + 1, idx[0]:idx[-1] + 1]
        return self.matrix[np.ix_(idx, idx)]

    def cholesky(self, grid) -> tuple[np.ndarray, float]:
        """Lower factor of the covariance on grid[1:], with the jitter used."""
        return _factor_cache(self.table, check_grid(grid).tobytes())


_covariance_model = lru_cache(maxsize=CACHE_SIZE)(ServiceCovariance)  # keyed by table content


def _fortran_factor(a: np.ndarray) -> np.ndarray:
    """numpy's lower Cholesky factor of a, read-only and in Fortran order without
    a second buffer: the C-ordered factor is transposed in place and read as U.T."""
    U = np.linalg.cholesky(a)
    for i in range(U.shape[0] - 1):
        U[i, i + 1:] = U[i + 1:, i]
        U[i + 1:, i] = 0.0
    U.flags.writeable = False  # shared by every caller
    return U.T


@lru_cache(maxsize=CACHE_SIZE)
def _factor_cache(M: RenewalTable, grid_bytes: bytes) -> tuple[np.ndarray, float]:
    """(L, jitter) per table content and grid, shared by every model of an equal table.

    A jitter rung is added to the diagonal of a copy of the covariance, so a
    grid whose lattice points form one run (a view of the covariance) needs at
    most three buffers of its size: that copy, numpy's work copy and L."""
    grid = np.frombuffer(grid_bytes)
    sub = _covariance_model(M).marginal(grid[1:])
    err = None
    for jit in JITTERS:
        a = sub
        if jit:  # sub + jit * I, bit for bit: x + 0.0 is x for every entry x >= 0
            a = sub.copy()
            a.flat[::a.shape[0] + 1] += jit
        try:
            # Fortran order, so the draws' `@ L.T` reads a C-ordered operand
            return _fortran_factor(a), jit
        except np.linalg.LinAlgError as exc:
            err = exc
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
    idx = M._indices_on([min(s, t), max(s, t)])
    return float(_covariance_model(M).matrix[idx[0], idx[1]])


# ---------------------------------------------------------------------------
# the limit model


def _check_rows(rows: int, grid: np.ndarray) -> None:
    """Refuse a noise draw whose rows x grid points exceed MAX_CELLS."""
    if rows * grid.size > MAX_CELLS:
        raise ValueError(f"a noise draw of {rows} rows on {grid.size} grid points "
                         f"exceeds {MAX_CELLS} cells")


@dataclass(frozen=True)
class NoiseSample:
    """A pair of driving-noise paths with their generation metadata."""

    E: CadlagPath
    S: CadlagPath
    seed: int | None = None
    covariance_source: str = "brownian"
    jitter: float = 0.0

    def __post_init__(self):
        if abs(self.E(0.0)) > 1e-12 or abs(self.S(0.0)) > 1e-12:
            raise ValueError("noise paths must start at 0")


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

        E is Brownian with variance rate mu * ca2, S standard Brownian in case "i"
        and in case "ii" the renewal-coupled service noise.  Each generator draws
        its E rows first, then its S rows, or in case "ii" the standard normals
        that one GEMM with the lower factor `ServiceCovariance.cholesky` of the
        covariance on grid[1:] turns into every generator's S rows.  A draw over
        MAX_CELLS cells is refused, and the factor (and at its first build the
        model, the memory peak: three covariance-sized buffers) is fetched,
        before any row is drawn."""
        rows = check_count(len(rngs), "generator count") * check_count(reps, "reps")
        grid = check_grid(grid)
        _check_rows(rows, grid)
        E, S = np.zeros((rows, grid.size)), np.zeros((rows, grid.size))
        blocks = [slice(k * reps, (k + 1) * reps) for k in range(len(rngs))]
        if self.case == "i":
            for rng, k in zip(rngs, blocks):
                E[k] = _brownian_batch(rng, self.mu * self.ca2, grid, reps)
                S[k] = _brownian_batch(rng, 1.0, grid, reps)
            return E, S, 0.0
        self.M._indices_on(grid)  # a grid off M's lattice is refused before the build
        L, jitter = _covariance_model(self.M).cholesky(grid)
        Z = np.empty((rows, grid.size - 1))
        for rng, k in zip(rngs, blocks):
            E[k] = _brownian_batch(rng, self.mu * self.ca2, grid, reps)
            Z[k] = rng.standard_normal((reps, grid.size - 1))
        S[:, 1:] = Z @ L.T
        return E, S, jitter

    def drive(self, E, S, grid) -> np.ndarray:
        """The equation's input Y for every noise row (E, S) on the grid."""
        grid = check_grid(grid)
        if self.case == "i":
            return self.xi + E - math.sqrt(self.mu) * S + self.beta * self.mu * grid
        return (self.xi + E - S + self.beta * self.mu * grid
                + max(-self.xi, 0.0) * (self.mu * grid - self.M.values_on(grid)))

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


def sample_noise(case: str, mu: float, ca2: float, grid, seed: int,
                 replication: int = 0, M: RenewalTable | None = None) -> NoiseSample:
    """One row of `LimitModel.noise` as paths, from the stream (seed, replication,
    "limit") that the batch samplers draw from and no simulation stream shares."""
    grid = check_grid(grid)
    model = LimitModel(case, mu, ca2, M=M)
    E, S, jitter = model.noise(grid, [make_rng(seed, replication, "limit")], 1)
    return NoiseSample(linear_path(grid, E[0], float(grid[-1])),
                       linear_path(grid, S[0], float(grid[-1])), seed=seed,
                       covariance_source="brownian" if case == "i" else "renewal-gaussian",
                       jitter=jitter)


def _limit_solution(model: LimitModel, e_path, s_path, grid) -> MappingSolution:
    grid = np.asarray(grid, dtype=float)
    Y = model.drive(e_path.sampled(grid)[None, :], s_path.sampled(grid)[None, :], grid)
    return _solution(model.case, grid, *model.solve(Y, grid, defects=True), "residual")


def solve_limit_case_i(xi: float, e_path: CadlagPath, s_path: CadlagPath,
                       beta: float, mu: float, f, grid) -> MappingSolution:
    """Reflected limit equation for the sub-critical regimes; ``variant`` is "i"."""
    return _limit_solution(LimitModel("i", mu, xi=xi, beta=beta, f=f), e_path, s_path, grid)


def solve_limit_case_ii(xi: float, e_path: CadlagPath, s_path: CadlagPath,
                        beta: float, mu: float, f, M: RenewalTable, grid,
                        tol: float = 1e-10) -> MappingSolution:
    """Critical-scale limit equation; residual is the quadrature defect, and
    ``diagnostics["closure"]`` the phi_Mg closure, below ``tol`` or the solve raises."""
    return _limit_solution(LimitModel("ii", mu, xi=xi, beta=beta, f=f, M=M, tol=tol),
                           e_path, s_path, grid)


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
