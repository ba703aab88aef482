"""Diffusion scalings that turn raw simulation records into centered paths.

With N_n servers, arrival rate lambda_n and service rate mu_n:

    Xt(t) = (X(t) - N_n) / sqrt(n)          head-count deviation
    Qt(t) = Xt(t)^+                         scaled queue length
    Et(t) = (E(t) - lambda_n t) / sqrt(n)   centered arrivals
    St(t) = (S(t) - mu_n int_0^t (X ^ N_n) ds) / sqrt(n)
    Gt(t) = G(t) / sqrt(n)                  scaled abandonment count
    wt(t) = sqrt(n) w(t)                    scaled virtual wait (exact past T)
    Gh(t) = Gt(t) - mu int_0^t f(Qt(s)/mu) ds

Xt, Qt and Gt are exact step paths on the event breakpoints, and the
abandonment compensator mu int f(Qt/mu) an exact linear path on them, so
statistics take exact suprema of Gt minus it.  `scale` builds these and wt,
all that the statistics read.  Et, St and Gh mix jumps with continuous
drifts; `scaled_primitives` builds them, where they are written out, as
linear paths holding exact values at the sampling grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .paths import CadlagPath, check_grid, linear_path, uniform_grid
from .simulator import SimRecord, virtual_wait_path

__all__ = ["ScaledBundle", "abandonment_compensator", "scale", "scaled_primitives"]


def abandonment_compensator(q_tilde: CadlagPath, f, mu: float) -> CadlagPath:
    """mu * int_0^t f(Qt(s)/mu) ds as an exact linear path.

    Exact because Qt is a step path: the integral is a sum of f-values
    times sojourn lengths.  f = None means no abandonment (zero path).
    """
    if f is None:
        return linear_path([0.0, q_tilde.horizon], [0.0, 0.0], q_tilde.horizon)
    integrand = q_tilde.map_values(lambda q: np.asarray(f(q / mu), dtype=float))
    return integrand.cumulative_integral().scale(mu)


@dataclass(frozen=True)
class ScaledBundle:
    """The centered and sqrt(n)-scaled paths that the statistics read.

    X, Q, G and the compensator live on the event breakpoints of the
    record (horizon = record horizon).  `omega` is an array of scaled
    virtual waits on `grid`, exact even where the wait ends beyond the
    horizon.
    """

    mu: float
    grid: np.ndarray
    X: CadlagPath
    Q: CadlagPath
    G: CadlagPath
    compensator: CadlagPath
    omega: np.ndarray


def scale(record: SimRecord, grid: np.ndarray | None = None) -> ScaledBundle:
    """Scale a simulation record onto diffusion coordinates, under its own config.

    `grid` defaults to 200 uniform steps over the record horizon.  Any other
    grid must pass `check_grid` within [0, horizon] (the range
    `virtual_wait_path` accepts); it is checked before any path is built.
    """
    config = record.config
    horizon = config.horizon
    if grid is None:
        grid = uniform_grid(horizon, horizon / 200.0)
    grid = check_grid(grid, horizon)

    sqn = math.sqrt(config.n)
    x_t = record.X.shift_values(-float(config.servers)).scale(1.0 / sqn)
    q_t = x_t.pos_part()
    return ScaledBundle(
        mu=config.mu, grid=grid, X=x_t, Q=q_t, G=record.G.scale(1.0 / sqn),
        compensator=abandonment_compensator(q_t, config.limit_function(), config.mu),
        omega=sqn * virtual_wait_path(record, grid),
    )


def scaled_primitives(record: SimRecord, bundle: ScaledBundle) -> tuple[CadlagPath, ...]:
    """(Et, St, Gh) of `record` on the grid of its bundle, as linear paths."""
    config, grid = record.config, bundle.grid
    sqn = math.sqrt(config.n)
    e_vals = (record.E.sampled(grid) - config.lambda_n * grid) / sqn
    busy = record.X.map_values(lambda v: np.minimum(v, float(config.servers)))
    busy_time = busy.cumulative_integral()
    s_vals = (record.S.sampled(grid) - config.mu_n * busy_time.sampled(grid)) / sqn
    gh_vals = bundle.G.sampled(grid) - bundle.compensator.sampled(grid)
    return tuple(linear_path(grid, v, float(grid[-1])) for v in (e_vals, s_vals, gh_vals))
