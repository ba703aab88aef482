"""Reproducible random streams.

Every stochastic routine in the library draws from a stream addressed by
``(seed, replication, purpose)``.  Streams are built on numpy's counter-based
Philox generator keyed by a SeedSequence spawn key, so distinct addresses give
statistically independent streams and the same address reproduces the same
variate sequence on any platform, regardless of how work is scheduled.
"""

from __future__ import annotations

import numpy as np

from .distributions import check_count

__all__ = ["BLOCK", "PURPOSES", "draw_blocks", "make_rng"]

# Fixed purpose registry; the index is part of the stream address, so the
# order is frozen.  New purposes append.
PURPOSES = ("arrivals", "services", "patience", "initial", "gaussian", "scratch", "limit")

# Variates per sampler call when a stream is consumed in arrival order.
BLOCK = 4096


def make_rng(seed: int, replication: int = 0, purpose: str = "scratch") -> np.random.Generator:
    """Generator for the stream addressed by (seed, replication, purpose), two counts >= 0."""
    if purpose not in PURPOSES:
        raise ValueError(f"unknown purpose {purpose!r}; known: {PURPOSES}")
    ss = np.random.SeedSequence(entropy=check_count(seed, "seed", minimum=0),
                                spawn_key=(check_count(replication, "replication", minimum=0),
                                           PURPOSES.index(purpose)))
    return np.random.Generator(np.random.Philox(ss))


def draw_blocks(rng: np.random.Generator, draw, count: int) -> np.ndarray:
    """The first ``count`` variates of ``draw(rng, BLOCK)`` called repeatedly.

    The block size is part of the stream's contract: a sampler that makes
    several generator calls per draw (hyperexponential draws its phases,
    then its exponentials) yields a different sequence for one bulk call.
    """
    if count <= 0:
        return np.empty(0)
    return np.concatenate([draw(rng, BLOCK) for _ in range(-(-count // BLOCK))])[:count]
