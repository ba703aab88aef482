"""Positive service/interarrival/patience distribution families.

A :class:`DistributionSpec` is a frozen, picklable description of one of six
families.  It knows its moments, cdf, the density at the origin (the only
local datum the conventional-regime patience limit needs), and how to draw
vectorized samples from a numpy Generator.  An interarrival law is the mean-1
base law that ``SystemConfig`` holds, checks and scales to its arrival rate.

Families and parameters:

====================  =======================================
exponential           rate > 0
deterministic         value > 0
erlang                shape (integer stages >= 1), rate > 0
hyperexponential      probs (sum to 1), rates (elementwise > 0)
lognormal             mu (log-mean), sigma > 0
uniform               0 <= lo < hi
====================  =======================================
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

# Entries kept per functools.lru_cache of tables built from a law (equilibrium
# laws, integrated hazards, covariance models, and Cholesky factors keyed by
# table and grid): at most 8 factors, about 8 MB each on a 1025-point grid and
# 134 MB each at the cap of MAX_CELLS entries (a 4097-point grid), so about
# 1.1 GB at worst.  A model holds one float per point of its renewal table.
CACHE_SIZE = 8

__all__ = ["DistributionSpec", "check_count", "check_keys", "check_number", "check_service_mean"]

# each family's parameter names, in order
_PARAMS = {"exponential": ("rate",), "deterministic": ("value",), "erlang": ("shape", "rate"),
           "hyperexponential": ("probs", "rates"), "lognormal": ("mu", "sigma"),
           "uniform": ("lo", "hi")}

# The most Erlang stages: its cdf sums one Poisson term per stage per point.
MAX_ERLANG_SHAPE = 10_000

# each family's value rules, as (holds, message) on its checked parameters
_RULES = {
    "exponential": ((lambda v: v["rate"] > 0, "exponential rate must be positive"),),
    "deterministic": ((lambda v: v["value"] > 0,
                       "deterministic value must be positive (atom at 0 rejected)"),),
    "erlang": ((lambda v: v["shape"] <= MAX_ERLANG_SHAPE,
                f"erlang shape must be at most {MAX_ERLANG_SHAPE}"),
               (lambda v: v["rate"] > 0, "erlang rate must be positive")),
    "hyperexponential": (
        (lambda v: 0 < len(v["probs"]) == len(v["rates"]),
         "probs and rates must be 1-d arrays of equal length"),
        (lambda v: min(v["probs"]) >= 0 and abs(np.sum(v["probs"]) - 1.0) <= 1e-12,
         "probs must be nonnegative and sum to 1"),
        (lambda v: min(v["rates"]) > 0, "rates must be positive")),
    "lognormal": ((lambda v: v["sigma"] > 0, "lognormal sigma must be positive"),),
    "uniform": ((lambda v: 0 <= v["lo"] < v["hi"], "uniform needs 0 <= lo < hi"),),
}


def check_keys(doc: dict, allowed, where: str, required=()) -> None:
    """The one key rule of every spec object: an object, no key outside
    `allowed`, none of `required` absent."""
    if not isinstance(doc, dict):
        raise ValueError(f"{where} must be an object, got {doc!r}")
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise ValueError(f"unknown keys in {where}: {', '.join(unknown)}")
    missing = sorted(set(required) - set(doc))
    if missing:
        raise ValueError(f"missing keys in {where}: {', '.join(missing)}")


def check_number(value, where: str) -> float:
    """The one number rule of spec values: a finite real number (not a bool), as a float.
    Finite means within a float's range, so an int too large for a float is refused too."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"{where} must be a finite number, got {value!r}")
    return float(value)


def check_count(value, where: str, minimum: int = 1) -> int:
    """The one count rule of spec values: a finite real number (not a bool) with an
    integral value, at least `minimum`, as an int; 40.0 passes as 40."""
    if check_number(value, where) % 1:
        raise ValueError(f"{where} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{where} must be >= {minimum}, got {value!r}")
    return int(value)


def check_service_mean(H: DistributionSpec, mu: float, where: str) -> None:
    """The service rule of every regime: H has mean 1/mu, to 1e-8 of max(1, 1/mu)."""
    m = H.mean()
    if not abs(m - 1.0 / mu) <= 1e-8 * max(1.0, 1.0 / mu):
        raise ValueError(f"{where} requires service mean 1/mu = {1.0 / mu}, got {m}")


def _param_names(family) -> tuple:
    """The parameter names of a known family, in order."""
    if not isinstance(family, str) or family not in _PARAMS:
        raise ValueError(f"unknown family {family!r}; known: {tuple(_PARAMS)}")
    return _PARAMS[family]


def _erlang_cdf(k: int, y) -> np.ndarray:
    """P(Gamma(k, 1) <= y) = 1 - sum_{i<k} e^-y y^i / i!, the Poisson tail.

    The terms follow the ratio recurrence from e^-y, which keeps the sum
    within k ulps.  Where e^-y leaves the normal range (y > 700; only shapes
    of several hundred still have mass there) each term is taken from its
    logarithm instead, and the recurrence skips those points.  The result has
    the shape of `y`.
    """
    shape = np.shape(y)
    y = np.minimum(np.atleast_1d(y), 1e300)  # +inf would meet 0 * inf
    far = y > 700.0
    head = np.empty_like(y)
    near = y[~far]
    term = np.exp(-near)
    head_near = term.copy()
    for i in range(1, k):
        term = term * near / i
        head_near += term
    head[~far] = head_near
    if np.any(far):
        yf = y[far]
        head[far] = sum(np.exp(i * np.log(yf) - yf - math.lgamma(i + 1.0)) for i in range(k))
    return np.clip(1.0 - head, 0.0, 1.0).reshape(shape)


# W. J. Cody's rational Chebyshev approximations to the normal cdf (ACM TOMS
# 715, 1993; the algorithm behind R's pnorm): |z| <= 0.674, |z| <= sqrt(32)
# and the far tails, each good to a few ulps.
_NORMAL_NEAR = ((2.2352520354606839287, 161.02823106855587881, 1067.6894854603709582,
                 18154.981253343561249, 0.065682337918207449113),
                (47.20258190468824187, 976.09855173777669322, 10260.932208618978205,
                 45507.789335026729956))
_NORMAL_MID = ((0.39894151208813466764, 8.8831497943883759412, 93.506656132177855979,
                597.27027639480026226, 2494.5375852903726711, 6848.1904505362823326,
                11602.651437647350124, 9842.7148383839780218, 1.0765576773720192317e-8),
               (22.266688044328115691, 235.38790178262499861, 1519.377599407554805,
                6485.558298266760755, 18615.571640885098091, 34900.952721145977266,
                38912.003286093271411, 19685.429676859990727))
_NORMAL_FAR = ((0.21589853405795699, 0.1274011611602473639, 0.022235277870649807,
                0.001421619193227893466, 2.9112874951168792e-5, 0.02307344176494017303),
               (1.28426009614491121, 0.468238212480865118, 0.0659881378689285515,
                0.00378239633202758244, 7.29751555083966205e-5))


def _cody_ratio(t: np.ndarray, coeffs) -> np.ndarray:
    """(p[-1] t^k + p[0] t^(k-1) + ... + p[-2]) / (t^k + q[0] t^(k-1) + ... + q[-1]),
    the form of each of Cody's approximations, by Horner's rule."""
    p, q = coeffs
    num = p[-1] * t
    den = t.copy()
    for a, b in zip(p[:-2], q[:-1]):
        num += a
        num *= t
        den += b
        den *= t
    return (num + p[-2]) / (den + q[-1])


def _normal_tail(y: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """exp(-y^2 / 2) * ratio, with y^2 split at a multiple of 1/16 so that the
    leading part of the exponent rounds exactly."""
    ysq = np.trunc(16.0 * y) / 16.0
    return np.exp(-0.5 * ysq * ysq) * np.exp(-0.5 * (y - ysq) * (y + ysq)) * ratio


def _normal_cdf(z: np.ndarray) -> np.ndarray:
    """Standard normal cdf of a 1-d array, vectorized."""
    y = np.abs(z)
    out = np.zeros_like(z)  # Phi(-38) is below the smallest double
    near = y <= 0.67448975
    zn = z[near]
    out[near] = 0.5 + zn * _cody_ratio(zn * zn, _NORMAL_NEAR)
    # beyond it, the approximations give the lower tail Phi(-y)
    mid = ~near & (y <= math.sqrt(32.0))
    ym = y[mid]
    out[mid] = _normal_tail(ym, _cody_ratio(ym, _NORMAL_MID))
    far = ~near & ~mid & (y < 38.0)
    yf = y[far]
    s = 1.0 / (yf * yf)
    ratio = (1.0 / math.sqrt(2.0 * math.pi) - s * _cody_ratio(s, _NORMAL_FAR)) / yf
    out[far] = _normal_tail(yf, ratio)
    upper = ~near & (z > 0)
    out[upper] = 1.0 - out[upper]
    return out


@dataclass(frozen=True)
class DistributionSpec:
    family: str
    params: tuple  # tuple of (name, value) pairs in the family's _PARAMS order

    # -- constructors --------------------------------------------------------

    @staticmethod
    def exponential(rate: float) -> "DistributionSpec":
        return DistributionSpec("exponential", (("rate", rate),))

    @staticmethod
    def deterministic(value: float) -> "DistributionSpec":
        return DistributionSpec("deterministic", (("value", value),))

    @staticmethod
    def erlang(shape: int, rate: float) -> "DistributionSpec":
        return DistributionSpec("erlang", (("shape", shape), ("rate", rate)))

    @staticmethod
    def hyperexponential(probs, rates) -> "DistributionSpec":
        return DistributionSpec("hyperexponential", (("probs", probs), ("rates", rates)))

    @staticmethod
    def lognormal(mu: float, sigma: float) -> "DistributionSpec":
        return DistributionSpec("lognormal", (("mu", mu), ("sigma", sigma)))

    @staticmethod
    def uniform(lo: float, hi: float) -> "DistributionSpec":
        return DistributionSpec("uniform", (("lo", lo), ("hi", hi)))

    def __post_init__(self):
        """Every construction passes here.  Valid params are stored as floats, an
        int erlang shape and tuples of floats, so equal laws compare equal."""
        family = self.family
        expected = _param_names(family)
        names = tuple(k for k, _ in self.params)
        if names != expected:
            raise ValueError(f"{family} parameters are {', '.join(expected)} in that "
                             f"order, got {', '.join(map(str, names))}")
        if family == "hyperexponential":
            if any(np.ndim(v) != 1 for _, v in self.params):
                raise ValueError("probs and rates must be 1-d arrays of equal length")
            v = {k: tuple(check_number(x, f"{family} {k}") for x in seq)
                 for k, seq in self.params}
        else:
            v = {k: (check_count if k == "shape" else check_number)(x, f"{family} {k}")
                 for k, x in self.params}
        for ok, message in _RULES[family]:
            if not ok(v):
                raise ValueError(message)
        object.__setattr__(self, "params", tuple(v.items()))

    def __getitem__(self, key: str):
        for k, v in self.params:
            if k == key:
                return v
        raise KeyError(key)

    # -- moments --------------------------------------------------------------

    def mean(self) -> float:
        f = self.family
        if f == "exponential":
            return 1.0 / self["rate"]
        if f == "deterministic":
            return self["value"]
        if f == "erlang":
            return self["shape"] / self["rate"]
        if f == "hyperexponential":
            p = np.asarray(self["probs"])
            r = np.asarray(self["rates"])
            return float(np.sum(p / r))
        if f == "lognormal":
            return math.exp(self["mu"] + 0.5 * self["sigma"] ** 2)
        return 0.5 * (self["lo"] + self["hi"])

    def var(self) -> float:
        f = self.family
        if f == "exponential":
            return 1.0 / self["rate"] ** 2
        if f == "deterministic":
            return 0.0
        if f == "erlang":
            return self["shape"] / self["rate"] ** 2
        if f == "hyperexponential":
            p = np.asarray(self["probs"])
            r = np.asarray(self["rates"])
            return float(np.sum(2.0 * p / r**2) - np.sum(p / r) ** 2)
        if f == "lognormal":
            s2 = self["sigma"] ** 2
            return (math.exp(s2) - 1.0) * math.exp(2.0 * self["mu"] + s2)
        return (self["hi"] - self["lo"]) ** 2 / 12.0

    def scv(self) -> float:
        """Squared coefficient of variation, var / mean^2."""
        return self.var() / self.mean() ** 2

    # -- law -------------------------------------------------------------------

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        f = self.family
        if f == "exponential":
            out = -np.expm1(-self["rate"] * np.maximum(x, 0.0))
        elif f == "deterministic":
            out = (x >= self["value"]).astype(float)
        elif f == "erlang":
            out = _erlang_cdf(self["shape"], self["rate"] * np.maximum(x, 0.0))
        elif f == "hyperexponential":
            p = np.asarray(self["probs"])
            r = np.asarray(self["rates"])
            xx = np.maximum(x, 0.0)[..., None]
            out = np.sum(p * -np.expm1(-r * xx), axis=-1)
        elif f == "lognormal":
            out = np.zeros_like(x)
            pos = x > 0
            out[pos] = _normal_cdf((np.log(x[pos]) - self["mu"]) / self["sigma"])
        else:
            out = np.clip((x - self["lo"]) / (self["hi"] - self["lo"]), 0.0, 1.0)
        out = np.where(x < 0, 0.0, out)
        return out if out.ndim else float(out)

    def density_at_zero(self) -> float:
        """F'(0+); the patience-scaling slope in the conventional regime."""
        f = self.family
        if f == "exponential":
            return self["rate"]
        if f == "erlang":
            return self["rate"] if self["shape"] == 1 else 0.0
        if f == "hyperexponential":
            p = np.asarray(self["probs"])
            r = np.asarray(self["rates"])
            return float(np.sum(p * r))
        if f == "uniform":
            return 1.0 / (self["hi"] - self["lo"]) if self["lo"] == 0.0 else 0.0
        # deterministic, lognormal: flat at the origin
        return 0.0

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        f = self.family
        if f == "exponential":
            return rng.exponential(1.0 / self["rate"], size)
        if f == "deterministic":
            return np.full(size, self["value"])
        if f == "erlang":
            return rng.gamma(self["shape"], 1.0 / self["rate"], size)
        if f == "hyperexponential":
            p = np.asarray(self["probs"])
            r = np.asarray(self["rates"])
            idx = np.searchsorted(np.cumsum(p), rng.random(size), side="right")
            idx = np.minimum(idx, p.size - 1)
            return rng.exponential(1.0, size) / r[idx]
        if f == "lognormal":
            return rng.lognormal(self["mu"], self["sigma"], size)
        return rng.uniform(self["lo"], self["hi"], size)

    # -- serialization -----------------------------------------------------------

    def to_dict(self) -> dict:
        return {"family": self.family, **{k: list(v) if isinstance(v, tuple) else v for k, v in self.params}}

    @staticmethod
    def from_dict(d: dict) -> "DistributionSpec":
        if not isinstance(d, dict) or "family" not in d:
            raise ValueError("distribution spec needs a 'family' key")
        family = d["family"]
        names = _param_names(family)
        check_keys(d, {"family", *names}, f"{family} distribution", required=names)
        return DistributionSpec(family, tuple((k, d[k]) for k in names))

