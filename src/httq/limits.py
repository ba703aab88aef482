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
table carries its service law, M.H, so the noise takes no separate H.  On a
uniform grid of k points s is drawn exactly by circulant embedding of its
stationary increments (Wood & Chan 1994): O(k) state and one inverse real
FFT per batch, with no k x k buffer.  The model (V on the lattice, O(m)
floats) and the embedding are cached by table content (the embedding also
by grid), each in a ``CACHE_SIZE``-bounded cache, so an equal table built
apart reuses both; both are read-only.

Each equation is one frozen `LimitModel`, checked once when built, that draws
both its noises (`noise`), builds its input Y (`drive`) and solves for every
row of any Y (`solve`).  The samplers and `httq limit` compose these three,
so every draw of the noise pair is a `noise` call.
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
    return linear_path(grid, _brownian_batch(stream, variance_rate, grid, 1)[0], float(grid[-1]))


# ---------------------------------------------------------------------------
# the Gaussian service noise at the critical scale


class ServiceCovariance:
    """Covariance model of the critical-scale service noise on a renewal table.

    Built once per table content, it keeps only V on the table's lattice, O(m)
    read-only floats (int M exact for a lattice table, else the cumulative
    trapezoid of M).  `embedding` is the draws' spectrum; `marginal`, the
    dense covariance on a grid, and its factor `cholesky` are references."""

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
        """The dense covariance on the grid's points; one of over MAX_CELLS
        entries is refused before any buffer."""
        idx, V = self.table._indices_on(grid), self.variance
        if idx.size ** 2 > MAX_CELLS:
            raise ValueError(f"the covariance on {idx.size} grid points exceeds {MAX_CELLS} cells")
        return 0.5 * (V[idx][:, None] + V[idx] - V[np.abs(idx[:, None] - idx)])

    def cholesky(self, grid) -> tuple[np.ndarray, float]:
        """A dense reference no draw uses: (L, jitter), L the lower factor, in
        Fortran order, of the covariance on grid[1:] plus the first jitter * I
        of JITTERS that factors."""
        a = self.marginal(check_grid(grid)[1:])
        for jitter in JITTERS:
            try:
                return np.linalg.cholesky(a + jitter * np.eye(a.shape[0]), upper=True).T, jitter
            except np.linalg.LinAlgError:
                pass
        raise RuntimeError(f"covariance factorization failed even at jitter {JITTERS[-1]:g}")

    def embedding(self, grid) -> tuple[np.ndarray, int, float]:
        """(sqrt(lambda), N, clipped) of a uniform grid (`_stride`, `_embedding`)."""
        return _embedding(self.table, _stride(self.table, grid), np.size(grid) - 1)


_covariance_model = lru_cache(maxsize=CACHE_SIZE)(ServiceCovariance)  # keyed by table content
_FFT_CELLS = 2**18  # circulant entries per inverse FFT of the draws


def _stride(M: RenewalTable, grid) -> int:
    """Table cells per step of a uniform grid of two or more points on M's lattice,
    whose step divides a lattice law's span (else it would move the atoms)."""
    idx = M._indices_on(_check_grid(grid)[0])
    stride = int(idx[1])
    if M.method == "lattice":
        v, h = M.H["value"], stride * M.step
        if round(v / h) < 1 or abs(v / h - round(v / h)) > 1e-9 * v / h:
            raise ValueError(f"a grid step of {h:.6g} does not divide the span {v!r} of the "
                             f"service law {M.H.to_dict()}; use a step of v / j")
    return stride


@lru_cache(maxsize=CACHE_SIZE)
def _embedding(M: RenewalTable, stride: int, n: int) -> tuple[np.ndarray, int, float]:
    """(sqrt(lambda), N, clipped) of n grid steps of `stride` table cells, read-only.

    The increments of s over the steps are stationary, with autocovariance
    gamma(0) = V(h), gamma(j) = (V((j + 1) h) + V((j - 1) h) - 2 V(j h)) / 2.
    lambda = rfft(c), c_j = gamma(min(j, N - j)), is the spectrum of their
    N = 2(n - 1) point circulant (Dietrich & Newsam 1997), or N = p for a
    lattice law of span p <= N steps, whose increments are p-periodic.  An
    eigenvalue below -1e-12 max is refused; clipped is the largest smaller
    negative one, set to 0 (0.0 if none)."""
    V = _covariance_model(M).variance[:stride * n + 1:stride]
    gamma = np.concatenate(([V[1]], 0.5 * (V[2:] + V[:-2]) - V[1:-1]))
    N = max(2 * (n - 1), 1)
    if M.method == "lattice":
        N = min(N, round(M.H["value"] / (stride * M.step)))
    j = np.arange(N)
    lam = np.fft.rfft(gamma[np.minimum(j, N - j)]).real
    low = float(lam.min())
    if low < -1e-12 * lam.max():
        raise ValueError(f"the service noise of {M.H.to_dict()} on {n + 1} grid points of step "
                         f"{stride * M.step:.6g} has no {N}-point circulant: eigenvalue {low:.3g}")
    root = np.sqrt(np.maximum(lam, 0.0))
    root.flags.writeable = False  # shared by every caller
    return root, N, -low if low < 0 else 0.0


def _circulant_increments(Z: np.ndarray, root: np.ndarray, N: int, n: int) -> np.ndarray:
    """n increments per row of N standard normals Z, packed Hermitian-wise into W
    (the real parts of modes 0 .. N // 2, then the imaginary parts of 1 ..
    (N - 1) // 2, interior modes scaled by sqrt(1/2)): sqrt(N) irfft(root W), mod N."""
    half = N // 2 + 1
    W = Z[:, :half] * root + 0j
    inner = slice(1, (N + 1) // 2)
    W.imag[:, inner] = Z[:, half:] * root[inner]
    W[:, inner] *= math.sqrt(0.5)
    x = np.fft.irfft(W, N, axis=1, norm="ortho")
    return x[:, :n] if n <= N else x[:, np.arange(n) % N]


def covariance_S(s: float, t: float, M: RenewalTable) -> float:
    """Covariance of the service noise of M.H at times s, t of M's lattice."""
    if min(s, t) < 0 or max(s, t) > M.horizon + 1e-9:
        raise ValueError("times must lie within the renewal table horizon")
    return float(_covariance_model(M).marginal([s, t])[0, 1])


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
        """(E, S, clipped): reps rows of the driving pair on the grid from each
        generator of the sequence rngs, stacked in its order.

        E is Brownian with variance rate mu * ca2.  Each generator draws its E
        rows, then the standard normals Z of its S rows: n per row in case "i",
        where S is the cumulative sum of Z * sqrt(dt), and in case "ii" N per
        row, whose circulant increments (`_embedding`, one inverse real FFT per
        batch of rows) S sums over the grid's n steps; clipped is the
        embedding's (0.0 in case "i").  A draw over MAX_CELLS cells, or a
        case-"ii" grid that `_stride` refuses, is refused, and the embedding
        fetched, before any row is drawn; no buffer is quadratic in the grid."""
        rows = check_count(len(rngs), "generator count") * check_count(reps, "reps")
        grid = check_grid(grid)
        _check_rows(rows, grid)
        n = width = grid.size - 1
        clipped = 0.0
        if self.case == "ii":
            root, width, clipped = _embedding(self.M, _stride(self.M, grid), n)
        E, S = np.zeros((rows, grid.size)), np.zeros((rows, grid.size))
        Z = np.empty((rows, width))
        for k, rng in enumerate(rngs):
            E[k * reps:(k + 1) * reps] = _brownian_batch(rng, self.mu * self.ca2, grid, reps)
            Z[k * reps:(k + 1) * reps] = rng.standard_normal((reps, width))
        if self.case == "i":
            Z *= np.sqrt(np.diff(grid))
            np.cumsum(Z, axis=1, out=S[:, 1:])
        else:  # rows per inverse FFT bounded, and so its temporaries
            for r in range(0, rows, c := max(1, _FFT_CELLS // width)):
                np.cumsum(_circulant_increments(Z[r:r + c], root, width, n), 1, out=S[r:r + c, 1:])
        return E, S, clipped

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
        _stride(self.M, grid)
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
