"""Patience (abandonment) laws under diffusion scaling.

The n-th system's patience cdf F_n must satisfy sqrt(n) * F_n(x / sqrt(n))
-> f(x) for a nondecreasing, locally Lipschitz limit f with f(0) = 0.  Three
constructions are supported:

``no_scaling``
    One fixed law F for every n; the limit is f(x) = F'(0+) * x.  The slope
    is analytic per family (exponential -> rate, uniform(0, b) -> 1/b,
    multi-stage erlang and lognormal -> 0, ...).

``hazard_rate``
    F_n(x) = 1 - exp(-int_0^x h(sqrt(n) t) dt) for a given hazard h; the
    limit is f(x) = int_0^x h(t) dt.  The integrated hazard is tabulated by
    cumulative trapezoid with step 1e-3 on the needed range, extended on
    demand.

``direct_f``
    F_n(x) = min(1, f(sqrt(n) x) / sqrt(n)), which makes the scaling identity
    exact at every n where f(x) <= sqrt(n).

Hazards that stop accumulating mass (integrable h) and bounded f produce
defective patience laws at finite n; samplers then return ``inf`` (the
customer never abandons), which the simulator treats exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .distributions import CACHE_SIZE, DistributionSpec, check_keys, check_number
from .paths import _inverse_interp

__all__ = ["PatienceSpec", "constant_hazard", "ramp_hazard", "power_limit"]

_HAZARD_STEP = 1e-3
_PROBE_HI = 8.0
_MAX_TABLE = 1 << 23  # hard cap on integrated-hazard table length


# -- picklable building blocks for declarative configs -------------------------


def _const(theta: float, t):
    return np.full_like(np.asarray(t, dtype=float), theta)


def _ramp(slope: float, t):
    return slope * np.asarray(t, dtype=float)


def _power(coeff: float, exponent: float, x):
    return coeff * np.asarray(x, dtype=float) ** exponent


class _Form(partial):
    """A declarative hazard or f: a partial that compares and hashes by its
    function and arguments, so equal forms give equal specs however they were
    built, read from a dict or unpickled."""

    def __eq__(self, other):
        return isinstance(other, _Form) and (self.func, self.args) == (other.func, other.args)

    def __hash__(self):
        return hash((self.func, self.args))


def constant_hazard(theta: float):
    """h(t) = theta; hazard-mode equivalent of exponential patience."""
    if check_number(theta, "theta") <= 0:
        raise ValueError("theta must be positive")
    return _Form(_const, float(theta))


def ramp_hazard(slope: float):
    """h(t) = slope * t, so f(x) = slope * x^2 / 2."""
    if check_number(slope, "slope") <= 0:
        raise ValueError("slope must be positive")
    return _Form(_ramp, float(slope))


def power_limit(coeff: float, exponent: float = 1.0):
    """f(x) = coeff * x^exponent for direct_f mode (exponent >= 1)."""
    if check_number(coeff, "coeff") <= 0 or check_number(exponent, "exponent") < 1.0:
        raise ValueError("need coeff > 0 and exponent >= 1 (local Lipschitz at 0)")
    return _Form(_power, float(coeff), float(exponent))


# the declarative hazard and f forms: kind -> (builder, the function it binds,
# its parameters); a form's first parameter is required, the rest default
_FORMS = {"constant": (constant_hazard, _const, ("theta",)),
          "ramp": (ramp_hazard, _ramp, ("slope",)),
          "power": (power_limit, _power, ("coeff", "exponent"))}

# each patience mode's own field; the other two must be None
_MODE_FIELDS = {"no_scaling": "distribution", "hazard_rate": "hazard", "direct_f": "f"}


def _form_from_dict(key: str, form):
    """The hazard or f callable that a declarative object names."""
    kind = form.get("kind") if isinstance(form, dict) else None
    if not isinstance(kind, str) or kind not in _FORMS:
        raise ValueError(f"{key} must be a declarative object with kind one of "
                         f"{sorted(_FORMS)}, got {form!r}")
    build, _, names = _FORMS[kind]
    args = {k: v for k, v in form.items() if k != "kind"}
    check_keys(args, names, f"{kind} {key}", required=names[:1])
    return build(**args)


class _CumHazard:
    """Adaptive cumulative-trapezoid table of z -> int_0^z h."""

    def __init__(self, hazard):
        self._h = hazard
        self._z = np.array([0.0])
        self._c = np.array([0.0])
        self._extend_to(16.0)

    def _extend_to(self, z_hi: float) -> None:
        if z_hi <= self._z[-1]:
            return
        last = self._z.size - 1
        npts = round((z_hi - self._z[-1]) / _HAZARD_STEP)
        if last + 1 + npts > _MAX_TABLE:
            raise RuntimeError(
                f"integrated hazard table would exceed {_MAX_TABLE} points; "
                "hazard decays too slowly to invert this far out"
            )
        # grid points are step * absolute index and the sum runs on from the
        # last value in one pass, so no entry depends on how the table grew
        z_new = _HAZARD_STEP * np.arange(last, last + npts + 1)
        h_new = np.asarray(self._h(z_new), dtype=float)
        if np.any(h_new < 0) or not np.all(np.isfinite(h_new)):
            raise ValueError("hazard must be finite and nonnegative")
        inc = 0.5 * (h_new[1:] + h_new[:-1]) * _HAZARD_STEP
        self._z = np.concatenate((self._z, z_new[1:]))
        self._c = np.concatenate((self._c, np.cumsum(np.concatenate((self._c[-1:], inc)))[1:]))

    def value(self, z):
        """Integrated hazard at z (vectorized)."""
        z = np.asarray(z, dtype=float)
        zmax = float(z.max()) if z.size else 0.0
        if zmax > self._z[-1]:
            self._extend_to(zmax * 1.25)
        return np.interp(z, self._z, self._c)

    def inverse(self, target):
        """Generalized inverse: smallest z with cum(z) >= target; inf if unreachable."""
        target = np.asarray(target, dtype=float)
        need = float(target.max()) if target.size else 0.0
        # Extend until the table covers every target or visibly plateaus.
        while self._c[-1] < need:
            before = self._c[-1]
            try:
                self._extend_to(2.0 * self._z[-1])
            except RuntimeError:
                break
            if self._c[-1] - before < 1e-12:
                break  # integrable hazard: remaining mass unreachable
        out = np.where(target <= 0, 0.0, _inverse_interp(self._z, self._c, target))
        return np.where(target > self._c[-1], np.inf, out)


@lru_cache(maxsize=CACHE_SIZE)
def _cum_hazard(spec: "PatienceSpec") -> _CumHazard:
    return _CumHazard(spec.hazard)


@dataclass(frozen=True)
class PatienceSpec:
    mode: str
    distribution: DistributionSpec | None = None
    hazard: object = None  # vectorized callable t -> h(t)
    f: object = None  # vectorized callable x -> f(x)

    @staticmethod
    def no_scaling(distribution: DistributionSpec) -> "PatienceSpec":
        return PatienceSpec("no_scaling", distribution=distribution)

    @staticmethod
    def hazard_rate(hazard) -> "PatienceSpec":
        return PatienceSpec("hazard_rate", hazard=hazard)

    @staticmethod
    def direct_f(f) -> "PatienceSpec":
        return PatienceSpec("direct_f", f=f)

    def __post_init__(self):
        # the mode, its own field and no other, then the no-atom check or the probe
        own = _MODE_FIELDS.get(self.mode) if isinstance(self.mode, str) else None
        if own is None:
            raise ValueError(f"unknown patience mode {self.mode!r}")
        value = getattr(self, own)
        if not (isinstance(value, DistributionSpec) if own == "distribution" else callable(value)):
            raise ValueError(f"patience mode {self.mode} needs {own!r}, got {value!r}")
        others = [k for k in _MODE_FIELDS.values() if k != own and getattr(self, k) is not None]
        if others:
            raise ValueError(f"patience mode {self.mode} takes no {', '.join(others)}")
        if own == "distribution":
            if float(value.cdf(0.0)) != 0.0:
                raise ValueError("patience law must have no atom at 0")
            return
        grid = np.arange(0.0, _PROBE_HI + _HAZARD_STEP, _HAZARD_STEP)
        v = np.asarray(value(grid), dtype=float)
        if v.shape != grid.shape:
            raise ValueError(f"{own} must be vectorized (shape-preserving)")
        if own == "hazard":
            if np.any(v < 0) or not np.all(np.isfinite(v)):
                raise ValueError("hazard must be finite and nonnegative on the probe grid")
            return
        if abs(v[0]) > 1e-12:
            raise ValueError("f(0) must be 0")
        if np.any(np.diff(v) < -1e-12):
            raise ValueError("f must be nondecreasing")
        if not np.all(np.isfinite(np.diff(v) / _HAZARD_STEP)):
            raise ValueError("f must be locally Lipschitz on the probe grid")

    # -- limit ------------------------------------------------------------------

    def limit_function(self):
        """The scaling limit f as a vectorized callable."""
        if self.mode == "no_scaling":
            return partial(_ramp, self.distribution.density_at_zero())
        if self.mode == "hazard_rate":
            return _cum_hazard(self).value
        return self.f

    # -- finite-n law -------------------------------------------------------------

    def cdf_n(self, n: int):
        """Vectorized cdf of the n-th system's patience law."""
        rootn = math.sqrt(n)
        if self.mode == "no_scaling":
            return self.distribution.cdf
        if self.mode == "hazard_rate":
            tab = _cum_hazard(self)

            def cdf(x, _t=tab, _r=rootn):
                x = np.maximum(np.asarray(x, dtype=float), 0.0)
                return -np.expm1(-_t.value(_r * x) / _r)

            return cdf

        def cdf(x, _f=self.f, _r=rootn):
            x = np.maximum(np.asarray(x, dtype=float), 0.0)
            return np.minimum(1.0, np.asarray(_f(_r * x), dtype=float) / _r)

        return cdf

    def sampler_n(self, n: int):
        """Vectorized sampler from the n-th patience law; defective mass -> inf."""
        rootn = math.sqrt(n)
        if self.mode == "no_scaling":
            return self.distribution.sample
        if self.mode == "hazard_rate":
            tab = _cum_hazard(self)

            def draw(rng: np.random.Generator, size: int, _t=tab, _r=rootn) -> np.ndarray:
                u = rng.random(size)
                target = -_r * np.log1p(-u)
                return _t.inverse(target) / _r

            return draw

        def draw(rng: np.random.Generator, size: int, _f=self.f, _r=rootn) -> np.ndarray:
            u = rng.random(size)
            return _invert_f(_f, u * _r) / _r

        return draw

    def to_dict(self) -> dict:
        if self.mode == "no_scaling":
            return {"mode": "no_scaling", "distribution": self.distribution.to_dict()}
        key = _MODE_FIELDS[self.mode]
        fn = getattr(self, key)
        for label, (_, func, names) in _FORMS.items():
            if isinstance(fn, partial) and fn.func is func:
                return {"mode": self.mode, key: {"kind": label, **dict(zip(names, fn.args))}}
        raise ValueError("only declarative hazard/f forms serialize to JSON")

    @staticmethod
    def from_dict(d: dict) -> "PatienceSpec":
        check_keys(d, {"mode", *_MODE_FIELDS.values()}, "patience spec")
        fields = {k: DistributionSpec.from_dict(v) if k == "distribution" else _form_from_dict(k, v)
                  for k, v in d.items() if k != "mode" and v is not None}
        return PatienceSpec(d.get("mode"), **fields)


def _invert_f(f, targets: np.ndarray) -> np.ndarray:
    """Smallest z >= 0 with f(z) >= target, by bisection to 1e-12; inf if none."""
    targets = np.asarray(targets, dtype=float)
    hi = np.full_like(targets, 1.0)
    # Grow brackets until they cover their targets or stop making progress.
    for _ in range(80):
        vals = np.asarray(f(hi), dtype=float)
        short = vals < targets
        if not np.any(short):
            break
        hi = np.where(short, hi * 2.0, hi)
        if float(hi.max()) > 1e24:
            break
    vals = np.asarray(f(hi), dtype=float)
    unreachable = vals < targets
    lo = np.zeros_like(targets)
    for _ in range(90):
        mid = 0.5 * (lo + hi)
        below = np.asarray(f(mid), dtype=float) < targets
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
        if float((hi - lo).max()) < 1e-12:
            break
    out = 0.5 * (lo + hi)
    out = np.where(targets <= 0, 0.0, out)
    return np.where(unreachable, np.inf, out)
