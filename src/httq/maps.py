"""Deterministic regulator mappings solved on uniform time grids.

Four variants, all driven by a cadlag input path y:

* ``phi_n_g``     x = y + mu_n * int (x)^- ds - int g(x^+) ds
* ``skorokhod_g`` x = y - int g(x^+) ds + ell, with x >= 0 and the
  regulator ell increasing only while x is at zero
* ``phi_M``       x = y + int (x(t-s))^- dM(s)
* ``phi_Mg``      x = y + int (x(t-s))^- dM(s) +/- int g(x^+) ds

Each g must be vectorized: it maps an array to an array of the same shape.

All four are forward schemes.  The discrete ``phi_Mg`` equation is
explicit except for the trapezoid's own-step term x_k -/+ h/2 g(x_k^+).
One forward pass settles it in blocks of steps: one GEMM brings in a
block's history, and sweeps over the block settle the steps inside it; a
block whose sweeps do not contract is halved.  One independent ``phi_M``
solve of the answer then checks that it closes the discrete equation: the
closure is one sweep of the paper's Picard map
u -> y +/- int g((phi_M(u))^+) ds, so a value below tol certifies the fixed
point the contraction argument guarantees.  The ``phi_M`` solve works in
blocks too, with its own code: one GEMM brings in a block's history, and
sweeps of the block's strictly causal (nilpotent) map settle it until the
iterate repeats bit for bit; the tests hold it to a per-step oracle.  The
causal dM convolution, the right-endpoint rule for int z(t-s) dM(s), is one
strictly lower Toeplitz operator A - I, (A z)_k = z_k + sum_{j>=1} w_j z_{k-j}
with w_j = M(t_j) - M(t_{j-1}), but no solve forms it: each reads a block's
history as one m x 32 window of the increments, W[j, r] = w[j + r], against
x^- stored in reversed order, and the trapezoid-rule defect of the
convolution term does the same block by block.  The public solvers are the
one-row case of batched routes (arrays shaped (rows, grid)) that
`LimitModel.solve` shares, so a batch of replications pays one Python loop
over time, not one each.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .distributions import check_number
from .paths import CadlagPath, _cumtrapz, check_grid, linear_path
from .renewal import RenewalTable

OWN_STEP_MAX_ITER = 10_000
_BLOCK = 32  # steps the phi_Mg and phi_M forward passes settle per history GEMM
_PROBE_POINTS = 512
# a forward sweep whose update stalls within this many ulps of the iterate
# has met rounding, not a failure to contract
_ULPS = 8.0 * np.finfo(float).eps


def _check_grid(grid) -> tuple[np.ndarray, float]:
    """A `check_grid` grid of at least two points and a uniform step; (grid, step)."""
    t = check_grid(grid)
    if t.size < 2:
        raise ValueError("grid must have at least two points")
    steps = np.diff(t)
    h = float(steps[0])
    if not np.allclose(steps, h, rtol=1e-9, atol=1e-12):
        raise ValueError("grid must be uniform")
    return t, h


def _sample_input(y, grid: np.ndarray) -> np.ndarray:
    if isinstance(y, CadlagPath):
        return y.sampled(grid)
    arr = np.asarray(y, dtype=float)
    if arr.shape != grid.shape:
        raise ValueError(
            f"input array has shape {arr.shape}, grid has shape {grid.shape}"
        )
    return arr.copy()


def _vectorize_g(g: Callable | None) -> Callable[[np.ndarray], np.ndarray]:
    """g as a float-array map; g must map an array to one of its shape."""
    if g is None:
        return lambda x: np.zeros_like(x)
    probe = np.array([0.0, 0.5])
    if np.asarray(g(probe), dtype=float).shape != probe.shape:
        raise ValueError("g must be vectorized (shape-preserving)")
    return lambda x: np.asarray(g(x), dtype=float)


def _validate_g(gv: Callable, hi: float) -> float:
    """Check g(0)=0 and monotonicity on [0, hi]; return the max probe slope."""
    hi = max(hi, 1e-6)
    xs = np.linspace(0.0, hi, _PROBE_POINTS)
    vals = gv(xs)
    if not np.all(np.isfinite(vals)):
        raise ValueError(f"g produced non-finite values on [0, {hi:.3g}]")
    if abs(vals[0]) > 1e-10 * max(1.0, np.max(np.abs(vals))):
        raise ValueError(f"g(0) must be 0, got {vals[0]:.3g}")
    drops = np.diff(vals)
    span = max(1.0, float(np.max(np.abs(vals))))
    if np.any(drops < -1e-9 * span):
        k = int(np.argmin(drops))
        raise ValueError(f"g must be nondecreasing: g({xs[k]:.4g}) > g({xs[k + 1]:.4g})")
    return float(np.max(drops) / (xs[1] - xs[0]))


def _checked_g(g: Callable | None, Y: np.ndarray) -> tuple[Callable, float, float]:
    """Vectorized g, validated on [0, 2(1 + sup|y|)]: (gv, lambda_g, probe_hi)."""
    gv = _vectorize_g(g)
    hi = 2.0 * (1.0 + max(float(Y.max()), -float(Y.min())))  # sup|y|, no |Y| copy
    return gv, (_validate_g(gv, hi) if g is not None else 0.0), hi


def _rechecked_g(g, gv: Callable, lam_g: float, hi: float, X: np.ndarray) -> float:
    """lambda_g, re-probed over the range X visited when that left [0, hi]."""
    visited = max(float(X.max()), 0.0)
    return _validate_g(gv, visited) if g is not None and visited > hi else lam_g


# ---------------------------------------------------------------------------
# batched engines


def _phi_n_g_euler(Y: np.ndarray, gv: Callable, mu_n: float, h: float) -> np.ndarray:
    X = np.empty_like(Y)
    X[:, 0] = Y[:, 0]
    for k in range(Y.shape[1] - 1):
        xk = X[:, k]
        drift = mu_n * np.maximum(-xk, 0.0) - gv(np.maximum(xk, 0.0))
        X[:, k + 1] = xk + (Y[:, k + 1] - Y[:, k]) + h * drift
    return X


def _skorokhod_euler(Y: np.ndarray, gv: Callable, h: float) -> tuple[np.ndarray, np.ndarray]:
    X = np.empty_like(Y)
    L = np.zeros_like(Y)
    X[:, 0] = Y[:, 0]
    for k in range(Y.shape[1] - 1):
        tent = X[:, k] + (Y[:, k + 1] - Y[:, k]) - h * gv(np.maximum(X[:, k], 0.0))
        push = np.maximum(-tent, 0.0)
        X[:, k + 1] = tent + push
        L[:, k + 1] = L[:, k] + push
    return X, L


def _block_operators(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(W, T): the dM convolution of the blocked solves, b = min(_BLOCK, m) steps
    a block for m = w.size; the (m+1)^2 Toeplitz operator is never formed.

    W[j, r] = w[j + r] (0 past w's end), shape (m, b).  With x^- stored in
    reversed order, so that entry j holds x^- at j + 1 steps before a block's
    first step t_a, the right-endpoint convolution of the history at t_{a+r} is
    that reversed x^- against column r of W[:a]: one GEMM per block.
    T[j, r] = w[r - j - 1] for j < r, shape (b, b): the convolution inside a
    block, strictly causal.
    """
    b = min(_BLOCK, w.size)
    W = sliding_window_view(np.concatenate((w, np.zeros(b - 1))), b).copy()
    j, r = np.indices((b, b))
    return W, np.where(j < r, w[np.maximum(r - j - 1, 0)], 0.0)


def _phi_m_solve(Y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Forward solve of x = y + sum_j (x(t_k - t_j))^- dM_j, right-endpoint rule.

    dM has no atom at 0, so x(t_k) never feeds its own convolution term and
    the recursion stays explicit.  Per block of _BLOCK steps, one GEMM of the
    reversed history of x^- against the window W of the increments w
    (`_block_operators`) brings in the history, and sweeps of the block's
    strictly causal map T settle its steps.  That map is nilpotent, so the
    iterate of an n-step block repeats bit for bit within n + 1 sweeps.  It
    shares no code with the phi_Mg forward pass, because it is the
    independent half of that pass's closure check.
    """
    m = w.size
    W, T = _block_operators(w)
    b = T.shape[0]
    X = np.empty_like(Y)
    rev = np.empty_like(Y)  # rev[:, m - k] = x^-(t_k)
    X[:, 0] = Y[:, 0]
    rev[:, m] = np.maximum(-Y[:, 0], 0.0)
    for a in range(1, m + 1, b):
        n = min(b, m + 1 - a)  # the block is t_a .. t_{a+n-1}
        Tn = T[:n, :n]
        known = Y[:, a:a + n] + rev[:, m + 1 - a:] @ W[:a, :n]
        x = known
        for _ in range(n + 1):
            x_new = known - np.minimum(x, 0.0) @ Tn  # min(x, 0) = -x^-, one ufunc call
            if (x_new == x).all():
                break
            x = x_new
        X[:, a:a + n] = x
        rev[:, m + 1 - a - n:m + 1 - a] = np.maximum(-x[:, ::-1], 0.0)
    return X


def _phi_m_trapezoid(X: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Trapezoid discretization of int (x(t-s))^- dM(s), one GEMM per block.

    It is the mean of the right-endpoint rule, A - I applied to x^-, and the
    left-endpoint rule, A - I applied to x^- advanced one step (A - I is
    strictly lower, so the missing last value never enters): (A - I) / 2
    applied to z = x^- plus x^- advanced one step.  Per block of _BLOCK
    steps, the reversed z before the block meets the window W and the block's
    own z the in-block map T (`_block_operators`), as in `_phi_m_solve`.
    """
    neg = np.maximum(-X, 0.0)
    z = neg.copy()
    z[:, :-1] += neg[:, 1:]
    rev = z[:, ::-1].copy()  # rev[:, m - k] = z(t_k)
    m = w.size
    W, T = _block_operators(w)
    b = T.shape[0]
    out = np.empty_like(z)
    out[:, 0] = 0.0
    for a in range(1, m + 1, b):
        n = min(b, m + 1 - a)
        out[:, a:a + n] = rev[:, m + 1 - a:] @ W[:a, :n] + z[:, a:a + n] @ T[:n, :n]
    return 0.5 * out


def _phi_m_gain(w: np.ndarray) -> float:
    """Worst-case amplification of the discrete phi_M scheme.

    d_k = 1 + sum_j w_j d_{k-j} is the discrete renewal series; a sup-norm
    perturbation of y grows by at most d_m through the forward solve.  The
    recursion is the forward substitution of (2I - A) d = 1.
    """
    w = np.asarray(w, dtype=float)
    m = w.size
    wrev = w[::-1].copy()  # contiguous, so each dot takes numpy's fast path
    d = np.ones(m + 1)
    for k in range(1, m + 1):
        d[k] = 1.0 + wrev[m - k:].dot(d[:k])
    return float(d[-1])


def _phi_mg_forward(Y: np.ndarray, w: np.ndarray, gv: Callable, h: float, sign: float,
                    tol: float) -> np.ndarray:
    """One forward pass through the discrete phi_Mg equation; returns U.

    The discrete fixed point satisfies x_k = R_k + sign * h/2 * g(x_k^+),
    where R_k holds y_k, the right-endpoint dM convolution of x^- at
    t_0..t_{k-1} and the trapezoid sum of g(x^+) through t_{k-1}.  Per block
    of _BLOCK steps, one GEMM of the reversed history of x^- against the
    window W of the increments w (`_block_operators`) brings in the history,
    and sweeps over the block and every row settle its steps until one
    changes x by less than 1e-3 * tol.  A change that fails
    to shrink halves the block and redoes it, and each settled block doubles
    the next, up to _BLOCK; at one step the sweep is the own-step contraction,
    with factor h/2 * lambda_g, and a failure there raises.  The result is
    U = y + sign * int g(x^+) ds, whose phi_M image is x.
    """
    m = w.size
    W, T = _block_operators(w)
    b = T.shape[0]
    own = 0.5 * sign * h  # weight of g(x_k^+) in the trapezoid sum at t_k
    C = own * (2.0 * np.triu(np.ones((b, b))) - np.eye(b))  # in-block trapezoid sums
    stop = 1e-3 * tol
    rev = np.empty_like(Y)  # rev[:, m - k] = x^-(t_k)
    G = np.empty_like(Y)
    rev[:, m] = np.maximum(-Y[:, 0], 0.0)
    G[:, 0] = gv(np.maximum(Y[:, 0], 0.0))
    carried = own * G[:, :1]  # sign * h * (G_0 / 2 + G_1 + ... + G_{a-1})
    a = 1
    while a <= m:
        n = min(b, m + 1 - a)  # the block is t_a .. t_{a+n-1}
        known = Y[:, a:a + n] + carried + rev[:, m + 1 - a:] @ W[:a, :n]
        x = known + own * G[:, a - 1:a]
        last = np.inf
        for _ in range(OWN_STEP_MAX_ITER):
            gx = gv(np.maximum(x, 0.0))
            x_new = known + np.maximum(-x, 0.0) @ T[:n, :n] + gx @ C[:n, :n]
            change = abs(x_new - x).max()
            x = x_new
            if change < stop:
                break
            if not change < last:
                if change <= _ULPS * abs(x).max():
                    break
                if n == 1:
                    raise RuntimeError(
                        f"phi_Mg forward step did not converge at t_{a}: own-step update "
                        f"{change:.3e} after {last:.3e}; h/2 * lambda_g must be below 1")
                b = n // 2
                break
            last = change
        else:
            raise RuntimeError(f"phi_Mg forward block at t_{a} did not converge within "
                               f"{OWN_STEP_MAX_ITER} sweeps: last update {change:.3e}")
        if n > b:
            continue  # the sweeps did not contract: redo the block with half the steps
        G[:, a:a + n] = gx
        rev[:, m + 1 - a - n:m + 1 - a] = np.maximum(-x[:, ::-1], 0.0)
        carried += 2.0 * own * gx.sum(axis=1, keepdims=True)
        a += n
        b = min(2 * b, _BLOCK, m)
    return Y + sign * _cumtrapz(G, h)


def _phi_mg_solve(Y: np.ndarray, w: np.ndarray, gv: Callable, h: float, sign: float,
                  tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The discrete phi_Mg fixed point with its certificate; returns (X, U, closure).

    U comes from `_phi_mg_forward` and X = phi_M(U) from an independent
    `_phi_m_solve`.  The closure sup_t |U - y - sign * int g(X^+) ds|, one
    per row, is one sweep of the Picard map u -> y + sign * int g((phi_M(u))^+) ds
    from U; a row whose closure is not below tol raises, naming the row.
    """
    U = _phi_mg_forward(Y, w, gv, h, sign, tol)
    X = _phi_m_solve(U, w)
    closure = np.max(np.abs(U - Y - sign * _cumtrapz(gv(np.maximum(X, 0.0)), h)), axis=1)
    bad = np.flatnonzero(~(closure < tol))
    if bad.size:
        raise RuntimeError(
            f"phi_Mg closure {closure[bad[0]]:.3e} in row {bad[0]} ({bad.size} of "
            f"{closure.size} rows) is not below tol {tol:.3e}: the forward answer is not "
            "the discrete fixed point")
    return X, U, closure


def _skorokhod_rows(Y: np.ndarray, g: Callable | None, h: float,
                    defects: bool = True) -> tuple[np.ndarray, np.ndarray, dict]:
    """Reflected map of every row with its checks; returns (X, L, diagnostics).

    ``defects`` adds the per-row sup defect (``residual``) and sum x dL.
    """
    if np.any(Y[:, 0] < 0):
        raise ValueError(f"y(0) must be nonnegative, got {Y[:, 0].min():.4g}")
    gv, lam_g, probe_hi = _checked_g(g, Y)
    X, L = _skorokhod_euler(Y, gv, h)
    diag = {"lambda_g": _rechecked_g(g, gv, lam_g, probe_hi, X)}
    if defects:
        defect = X - Y + _cumtrapz(gv(np.maximum(X, 0.0)), h) - L
        diag["residual"] = np.max(np.abs(defect), axis=1)
        diag["complementarity"] = np.sum(X[:, 1:] * np.diff(L, axis=1), axis=1)
    return X, L, diag


def _phi_mg_rows(Y: np.ndarray, w: np.ndarray, g: Callable | None, h: float,
                 sign: float, tol: float, defects: bool = True) -> tuple[np.ndarray, dict]:
    """phi_Mg of every row with its checks; returns (X, diagnostics).

    The diagnostics hold lambda_g and the per-row ``closure``.  ``defects``
    adds the per-row trapezoid-rule ``quadrature_defect`` of the convolution
    term.
    """
    if not check_number(tol, "tol") > 0:
        raise ValueError("tol must be positive")
    gv, lam_g, probe_hi = _checked_g(g, Y)
    X, _, closure = _phi_mg_solve(Y, w, gv, h, sign, tol)
    lam_g = _rechecked_g(g, gv, lam_g, probe_hi, X)
    diag = {"lambda_g": lam_g, "closure": closure}
    if defects:
        quad = X - Y - _phi_m_trapezoid(X, w) - sign * _cumtrapz(gv(np.maximum(X, 0.0)), h)
        diag["quadrature_defect"] = np.max(np.abs(quad), axis=1)
    return X, diag


# ---------------------------------------------------------------------------
# solution container


@dataclass(frozen=True)
class MappingSolution:
    variant: str
    x: CadlagPath
    ell: CadlagPath | None
    residual: float
    iterations: int | None
    grid: np.ndarray
    diagnostics: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# public solvers


def _solution(variant: str, t: np.ndarray, X: np.ndarray, L: np.ndarray | None,
              diag: dict, residual: str, iterations: int | None = None) -> MappingSolution:
    """Row 0 of a batched solve; the diagnostic named ``residual`` becomes its residual."""
    diag = {k: float(v[0]) if isinstance(v, np.ndarray) else v for k, v in diag.items()}
    return MappingSolution(variant, linear_path(t, X[0], horizon=t[-1]),
                           None if L is None else linear_path(t, L[0], horizon=t[-1]),
                           diag.pop(residual), iterations, t, diag)


def solve_phi_n_g(y, g: Callable | None, mu_n: float, grid) -> MappingSolution:
    """x = y + mu_n int (x)^- ds - int g(x^+) ds by explicit forward Euler."""
    t, h = _check_grid(grid)
    if not check_number(mu_n, "mu_n") > 0:
        raise ValueError("mu_n must be positive")
    if not h <= 0.1 / mu_n + 1e-15:
        raise ValueError(f"grid step {h:.4g} too large for mu_n={mu_n:.4g}; "
                         f"use step <= {0.1 / mu_n:.4g}")
    Y = _sample_input(y, t)[None, :]
    gv, lam_g, probe_hi = _checked_g(g, Y)
    X = _phi_n_g_euler(Y, gv, mu_n, h)
    lam_g = _rechecked_g(g, gv, lam_g, probe_hi, X)
    defect = X - Y - mu_n * _cumtrapz(np.maximum(-X, 0.0), h) \
        + _cumtrapz(gv(np.maximum(X, 0.0)), h)
    return _solution("phi_n_g", t, X, None, {
        "residual": float(np.max(np.abs(defect))),
        "neg_part_sup": float(np.max(np.maximum(-X, 0.0))),
        "lambda_g": lam_g,
    }, "residual")


def solve_skorokhod_g(y, g: Callable | None, grid) -> MappingSolution:
    """One-sided reflection with drift -g(x): x >= 0, ell pushes at zero."""
    t, h = _check_grid(grid)
    X, L, diag = _skorokhod_rows(_sample_input(y, t)[None, :], g, h)
    return _solution("skorokhod_g", t, X, L, diag, "residual")


def solve_phi_M(y, M: RenewalTable, grid) -> MappingSolution:
    """x = y + int (x(t-s))^- dM(s), explicit in t via the right-endpoint rule.

    The reported residual re-measures the convolution with the trapezoid
    Stieltjes rule, so it reflects genuine discretization error instead of
    restating the scheme.
    """
    t, h = _check_grid(grid)
    w = M.increments_on(t)
    Y = _sample_input(y, t)[None, :]
    X = _phi_m_solve(Y, w)
    defect = X - Y - _phi_m_trapezoid(X, w)
    return _solution("phi_M", t, X, None, {"residual": float(np.max(np.abs(defect))),
                                           "lambda_M": _phi_m_gain(w)}, "residual")


def solve_phi_Mg(y, M: RenewalTable, g: Callable | None, grid, tol: float = 1e-10,
                 g_sign: float = 1.0) -> MappingSolution:
    """Solve x = y + int (x(t-s))^- dM(s) + g_sign * int g(x^+) ds.

    One forward pass (`_phi_mg_forward`) solves the discrete equation in
    blocks of steps, each settled by sweeps over the whole block and halved
    where those sweeps do not contract.  One independent phi_M solve checks
    the answer: the residual field
    reports the closure sup |u - y - g_sign * int g(x^+) ds|, which must be
    below ``tol`` or the solve raises.  ``iterations`` is always 1.  The
    diagnostics add the convolution's trapezoid-rule defect, the kernel gain
    lambda_M and the window 2 / (3 lambda_M lambda_g).  This is the one-row
    case of `_phi_mg_rows`, which `LimitModel.solve` shares.
    """
    t, h = _check_grid(grid)
    if g_sign not in (-1.0, 1.0, -1, 1):
        raise ValueError("g_sign must be +1 or -1")
    Y = _sample_input(y, t)[None, :]
    w = M.increments_on(t)
    X, diag = _phi_mg_rows(Y, w, g, h, float(g_sign), tol)
    lam_m, lam_g = _phi_m_gain(w), diag["lambda_g"]
    diag.update(lambda_M=lam_m,
                delta_window=np.inf if lam_g * lam_m == 0 else 2.0 / (3.0 * lam_m * lam_g))
    return _solution("phi_Mg", t, X, None, diag, "closure", iterations=1)
