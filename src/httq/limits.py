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
bias.  The model and its factors are cached by table content (a factor also
by grid), so a table built again from the same law and lattice reuses them.

Both equations have one solver route, `_solve_limit`, batched over
replications: the single-path solvers are its one-row case and return the
regulator maps' `MappingSolution` (variant "i" or "ii"), and the batch
samplers and `httq limit` pass all replications at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .distributions import CACHE_SIZE
from .maps import (  # noqa: F401  (solve_phi_Mg: perfbench traces it at this name)
    MappingSolution,
    _check_grid,
    _phi_mg_rows,
    _skorokhod_rows,
    _solution,
    _stieltjes_matrix,
    solve_phi_Mg,
)
from .paths import CadlagPath, check_grid, linear_path
from .renewal import RenewalTable, equilibrium_distribution
from .streams import make_rng

__all__ = [
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
    if variance_rate < 0:
        raise ValueError("variance rate must be nonnegative")
    grid = check_grid(grid)
    vals = _brownian_batch(stream, variance_rate, grid, 1)[0]
    return linear_path(grid, vals, float(grid[-1]))


# ---------------------------------------------------------------------------
# the Gaussian service noise at the critical scale


class ServiceCovariance:
    """Covariance model of the critical-scale service noise on a lattice.

    Built once per renewal table content; grids handed to `marginal`,
    `cholesky` or `covariance` must be sub-lattices of the table's.
    """

    def __init__(self, table: RenewalTable):
        self.table = table
        self.H = table.H
        self.mu = table.rate()
        t = table.times
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
        ks = np.arange(m)[:, None]
        ds = np.arange(m + 1)[None, :]
        prod = h_mid[:, None] * hc_mid[ks + ds]
        J = h * np.vstack([np.zeros(m + 1), np.cumsum(prod, axis=0)])
        ii = np.arange(m + 1)[:, None]
        jj = np.arange(m + 1)[None, :]
        lo = np.minimum(ii, jj)
        hi = np.maximum(ii, jj)
        C = he[lo] * hec[hi] + self.mu * J[lo, hi - lo]
        A = _stieltjes_matrix(np.diff(table.values))
        cov = A @ C @ A.T
        self.matrix = 0.5 * (cov + cov.T)

    def _indices(self, grid) -> np.ndarray:
        return self.table._indices_on(np.asarray(grid, dtype=float))

    def covariance(self, s: float, t: float) -> float:
        idx = self._indices([min(s, t), max(s, t)])
        return float(self.matrix[idx[0], idx[1]])

    def marginal(self, grid) -> np.ndarray:
        idx = self._indices(grid)
        return self.matrix[np.ix_(idx, idx)]

    def cholesky(self, grid) -> tuple[np.ndarray, float]:
        """Lower factor of the covariance on grid[1:], with the jitter used."""
        return _factor_cache(self.table, check_grid(grid).tobytes())

    def sample_batch(self, grid, rng: np.random.Generator,
                     reps: int) -> tuple[np.ndarray, float]:
        """(reps rows of the noise on the grid, the jitter of their factor)."""
        L, jitter = self.cholesky(grid)
        out = np.zeros((reps, L.shape[0] + 1))
        out[:, 1:] = rng.standard_normal((reps, L.shape[0])) @ L.T
        return out, jitter


_covariance_model = lru_cache(maxsize=CACHE_SIZE)(ServiceCovariance)  # keyed by table content


@lru_cache(maxsize=CACHE_SIZE)
def _factor_cache(M: RenewalTable, grid_bytes: bytes) -> tuple[np.ndarray, float]:
    """(L, jitter) per table content and grid, shared by every model of an equal table."""
    grid = np.frombuffer(grid_bytes)
    sub = _covariance_model(M).marginal(grid[1:])
    err = None
    for jit in JITTERS:
        try:
            # Fortran order, so the draws' `@ L.T` reads a C-ordered operand
            L = np.asfortranarray(np.linalg.cholesky(sub + jit * np.eye(sub.shape[0]))
                                  if sub.size else sub)
            L.flags.writeable = False  # shared by every caller
            return L, jit
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
    return _covariance_model(M).covariance(s, t)


# ---------------------------------------------------------------------------
# noise bundles


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


def _draw_noise(case: str, mu: float, ca2: float, grid: np.ndarray, rng, reps: int,
                M: RenewalTable | None = None):
    """(E, S, jitter): reps rows of the driving pair from one stream, E first.

    The covariance model, whose first build is the memory peak, is fetched
    before any row is drawn.
    """
    if mu * ca2 < 0:
        raise ValueError("variance rate must be nonnegative")
    if case not in ("i", "ii"):
        raise ValueError(f"unknown case {case!r}; use 'i' or 'ii'")
    if case == "ii" and M is None:
        raise ValueError("case 'ii' needs the renewal table M")
    model = _covariance_model(M) if case == "ii" else None
    E = _brownian_batch(rng, mu * ca2, grid, reps)
    if model is None:
        return E, _brownian_batch(rng, 1.0, grid, reps), 0.0
    S, jitter = model.sample_batch(grid, rng, reps)
    return E, S, jitter


def sample_noise(case: str, mu: float, ca2: float, grid, seed: int,
                 replication: int = 0, M: RenewalTable | None = None) -> NoiseSample:
    """Draw the driving pair (E, S) for one limit equation.

    E is Brownian with variance rate mu * ca2 in both cases.  S is a
    standard Brownian motion for case "i" and the renewal-coupled
    Gaussian service noise for case "ii" (which needs M; its law is M.H).  Both come
    from the one stream (seed, replication, "limit"), E first and then S,
    so they are independent of each other and of every simulation stream.
    The batch samplers draw in the same order.
    """
    grid = check_grid(grid)
    E, S, jitter = _draw_noise(case, mu, ca2, grid, make_rng(seed, replication, "limit"),
                               1, M)
    return NoiseSample(linear_path(grid, E[0], float(grid[-1])),
                       linear_path(grid, S[0], float(grid[-1])), seed=seed,
                       covariance_source="brownian" if case == "i" else "renewal-gaussian",
                       jitter=jitter)


# ---------------------------------------------------------------------------
# limit equations


def _drift_g(f, mu: float):
    if f is None:
        return None

    def g(x, _f=f, _mu=mu):
        return _mu * np.asarray(_f(np.asarray(x, dtype=float) / _mu), dtype=float)

    return g


def _solve_limit(case: str, xi: float, beta: float, mu: float, f, E: np.ndarray,
                 S: np.ndarray, grid, M: RenewalTable | None = None,
                 tol: float = 1e-10, defects: bool = False):
    """Solve the limit equation for every noise row (E, S); returns (X, L, diag).

    Every check applies to every row.  L is the regulator (None in case "ii");
    diag holds per-row arrays (the case-"ii" closure; with ``defects`` the
    residual) beside scalars.
    """
    if case == "i" and xi < 0:
        raise ValueError("xi must be nonnegative in the reflected regime")
    grid, h = _check_grid(grid)
    g = _drift_g(f, mu)
    if case == "i":
        Y = xi + E - math.sqrt(mu) * S + beta * mu * grid
        return _skorokhod_rows(Y, g, h, defects)
    xi_neg = max(-xi, 0.0)
    Y = xi + E - S + beta * mu * grid + xi_neg * (mu * grid - M.values_on(grid))
    X, diag = _phi_mg_rows(Y, M.increments_on(grid), g, h, -1.0, tol, defects)
    if defects:
        diag["residual"] = diag["quadrature_defect"]
    return X, None, diag


def _limit_solution(case, xi, e_path, s_path, beta, mu, f, grid, M=None,
                    tol=1e-10) -> MappingSolution:
    grid = np.asarray(grid, dtype=float)
    X, L, diag = _solve_limit(case, xi, beta, mu, f, e_path.sampled(grid)[None, :],
                              s_path.sampled(grid)[None, :], grid, M, tol, defects=True)
    return _solution(case, grid, X, L, diag, "residual")


def solve_limit_case_i(xi: float, e_path: CadlagPath, s_path: CadlagPath,
                       beta: float, mu: float, f, grid) -> MappingSolution:
    """Reflected limit equation for the sub-critical regimes; ``variant`` is "i"."""
    return _limit_solution("i", xi, e_path, s_path, beta, mu, f, grid)


def solve_limit_case_ii(xi: float, e_path: CadlagPath, s_path: CadlagPath,
                        beta: float, mu: float, f, M: RenewalTable, grid,
                        tol: float = 1e-10) -> MappingSolution:
    """Critical-scale limit equation; residual is the quadrature defect.

    The one-row case of the batched route.  ``diagnostics["closure"]`` is the
    phi_Mg closure, below ``tol`` or the solve raises.
    """
    return _limit_solution("ii", xi, e_path, s_path, beta, mu, f, grid, M, tol)


# ---------------------------------------------------------------------------
# batch marginal samplers for convergence sweeps


def _sample_paths(case, xi, beta, mu, ca2, f, grid, seed, reps, replication,
                  M=None, tol=1e-10) -> np.ndarray:
    grid, _ = _check_grid(grid)
    E, S, _ = _draw_noise(case, mu, ca2, grid, make_rng(seed, replication, "limit"),
                          reps, M)
    return _solve_limit(case, xi, beta, mu, f, E, S, grid, M, tol)[0]


def sample_case_i_paths(xi: float, beta: float, mu: float, ca2: float, f,
                        grid, seed: int, reps: int,
                        replication: int = 0) -> np.ndarray:
    """(reps, len(grid)) array of reflected-limit sample paths."""
    return _sample_paths("i", xi, beta, mu, ca2, f, grid, seed, reps, replication)


def sample_case_ii_paths(xi: float, beta: float, mu: float, ca2: float, f,
                         M: RenewalTable, grid, seed: int, reps: int,
                         replication: int = 0, tol: float = 1e-10) -> np.ndarray:
    """(reps, len(grid)) array of critical-scale limit sample paths."""
    return _sample_paths("ii", xi, beta, mu, ca2, f, grid, seed, reps, replication, M, tol)
