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
The model keeps only O(m) ingredients.  A factor is made in one buffer: C on
the lattice points up to the grid's last is written into it, turned into
A C A^T in place by Toeplitz panels, and factored in place by blocks, so it
holds one buffer of its size plus panel temporaries (a grid that is not one
run of lattice points adds a copy of its own size).  The covariance on the
whole lattice (`matrix`) is built at its first read, by `covariance_S` and
`marginal`; the covariance and its factors are read-only.

Each equation is one frozen `LimitModel`, checked once when built, that draws
both its noises (`noise`: `ServiceCovariance` only builds, factors and is read),
builds its input Y (`drive`) and solves for every row of any Y (`solve`).  The
samplers and `httq limit` compose these three; `sample_noise`, one row of `noise`
as paths, stays until the benchmark's spans trace `noise` itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .distributions import CACHE_SIZE, check_count, check_number, check_service_mean
from .maps import (  # noqa: F401  (solve_phi_Mg: perfbench traces it at this name)
    _check_grid,
    _phi_mg_rows,
    _skorokhod_rows,
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

    Built once per renewal table content from O(m) ingredients only: the
    equilibrium law he (and hec = 1 - he) on the lattice, the midpoint values
    h_mid and hc_mid of H and H^c, and the increments dM.  Grids handed to
    `marginal` or `cholesky` must be sub-lattices of the table's.  `cholesky`
    writes the covariance into the one buffer it factors in place, so a
    factor costs one buffer of its size; `matrix`, the covariance on the whole
    lattice, is built at its first read and is read-only.  A table over 4096
    points ((m+1)^2 > MAX_CELLS) is refused before any buffer.
    """

    def __init__(self, table: RenewalTable):
        t = table.times
        if t.size ** 2 > MAX_CELLS:
            raise ValueError(f"a {t.size}-point table's covariance exceeds {MAX_CELLS} cells")
        self.table = table
        self.H = table.H
        self.mu = table.rate()
        m = t.size - 1
        self.he = np.asarray(equilibrium_distribution(self.H).cdf(t), dtype=float)
        self.hec = 1.0 - self.he
        # midpoint rule for J[i, d] = int_0^{t_i} H(u) H^c(u + t_d) du:
        # exact for lattice-aligned atoms, second order for smooth H
        mids = (np.arange(2 * m, dtype=float) + 0.5) * table.step
        self.h_mid = np.asarray(self.H.cdf(mids[:m]), dtype=float)
        self.hc_mid = 1.0 - np.asarray(self.H.cdf(mids), dtype=float)
        self.dM = np.diff(table.values)

    def _build(self, out: np.ndarray) -> np.ndarray:
        """Write the covariance on lattice points 1..k into the k x k array out.

        Row and column 0 of C (and of A C A^T) are 0, so the block on points
        1..k is A_k C_k A_k^T with A_k = `_stieltjes_matrix(dM[:k-1])`: it needs
        no border and no later lattice point.
        """
        k = out.shape[0]
        if not k:
            return out
        h, he, hec = self.table.step, self.he, self.hec
        # C and A C A^T are symmetric, so work on whichever orientation of out
        # has contiguous rows
        J = out.T if out.flags.f_contiguous else out
        # row r of J sums the products h_mid[q] hc_mid[q + d] over q <= r, which
        # is J(t_{r+1}, t_d) / h
        np.multiply(self.h_mid[:k, None], sliding_window_view(self.hc_mid[:2 * k - 1], k),
                    out=J)
        np.cumsum(J, axis=0, out=J)  # in place: numpy makes no copy
        J *= h
        # C(t_i, t_j) = he[i] hec[j] + mu J(t_i, t_{j-i}) for i <= j reads only
        # row i of J, so the upper triangle of C overwrites J row by row
        for r in range(k):
            J[r, r:] = he[r + 1] * hec[r + 1:k + 1] + self.mu * J[r, :k - r]
        _mirror(J.T)
        _sandwich(J, self.dM[:k - 1])
        return out

    @cached_property
    def matrix(self) -> np.ndarray:
        """The read-only covariance on every point of the table's lattice."""
        m = self.table.times.size - 1
        cov = np.zeros((m + 1, m + 1))
        self._build(cov[1:, 1:])
        cov.flags.writeable = False  # shared by every caller
        return cov

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
_PANEL = 128  # rows or columns per panel of the in-place products and the blocked factor


def _sandwich(B: np.ndarray, w: np.ndarray) -> None:
    """B <- A B A^T in place for symmetric B, A = `_stieltjes_matrix(w)`.

    Row i of A B reads only rows <= i of B, so row panels taken bottom-up
    overwrite B with the lower triangle of A B; column j of (A B) A^T reads
    only columns <= j, so column panels taken right-to-left overwrite that
    with the lower triangle of A B A^T, which is then mirrored.  Each panel
    product is one GEMM and the only temporary: a panel, not a buffer.
    """
    n = B.shape[0]
    A = _stieltjes_matrix(w)
    starts = range(0, n, _PANEL)
    for a in reversed(starts):
        e = min(a + _PANEL, n)
        B[a:e, :e] = A[a:e, :e] @ B[:e, :e]
    for c in reversed(starts):
        e = min(c + _PANEL, n)
        B[c:, c:e] = B[c:, :e] @ A[c:e, :e].T
    _mirror(B)


def _mirror(B: np.ndarray) -> None:
    """Copy the lower triangle of the square array B onto its upper one, in place."""
    n = B.shape[0]
    for c in range(0, n, _PANEL):
        e = min(c + _PANEL, n)
        block = B[c:e, c:e]
        B[c:e, c:e] = np.tril(block) + np.tril(block, -1).T
        B[c:e, e:] = B[e:, c:e].T


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

    The covariance on lattice points 1..k, k the grid's last, is written into
    one buffer and factored in place, and rebuilt before each jitter rung.  A
    grid whose points are not all of 1..k factors a copy of its own points, and
    the k x k buffer is freed before the factor.  L is in Fortran order, so the
    draws' `@ L.T` reads a C-ordered operand."""
    model = _covariance_model(M)
    idx = M._indices_on(np.frombuffer(grid_bytes)[1:])
    k = int(idx[-1]) if idx.size else 0
    err = None
    for jit in JITTERS:
        a = model._build(np.empty((k, k), order="F"))
        if idx.size < k:  # symmetric, so the C-ordered copy's transpose is the same matrix
            a = a[np.ix_(idx - 1, idx - 1)].T
        if jit:  # a + jit * I
            a.flat[::a.shape[0] + 1] += jit
        try:
            return _factor_in_place(a), jit
        except np.linalg.LinAlgError as exc:
            err = str(exc)  # not exc: its traceback would keep the failed buffer alive
        del a  # so the next rung's build is the only buffer
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
        MAX_CELLS cells is refused, and the factor (at its first build the
        memory peak: one covariance-sized buffer) is fetched, before any row is
        drawn."""
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
