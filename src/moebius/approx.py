"""Estimates with explicit error radii.

Every numeric result of the library is an ApproxValue: a real or complex
value, a nonnegative radius guaranteed (or, when flagged heuristic, merely
believed) to contain the true value, and the precision it was computed at.
Combining two ApproxValues adds radii; the rigor of a combination is the
weaker flag.

Entry points take their bits as `precision` (default PRECISION) and work in
their own mpmath context; only the operators below round in the caller's.

Radii are kept as float64 upper bounds.  Radius arithmetic inflates by one
part in 2^40 per operation so that float rounding of the radius itself can
never under-claim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath

RIGOROUS = "rigorous"
HEURISTIC = "heuristic"

_INFLATE = 1.0 + 2.0**-40
PRECISION = 128  # the nominal bits of every entry point not given `precision`
_MAX_DIGITS = 40  # render_value's most digits


def _up(r: float) -> float:
    """Round a radius up a hair so radius arithmetic never under-claims."""
    return abs(float(r)) * _INFLATE


def radd(*rs: float) -> float:
    return _up(math.fsum(abs(float(r)) for r in rs))


def combine_rigor(*flags: str) -> str:
    return HEURISTIC if HEURISTIC in flags else RIGOROUS


def eps_for(prec: int) -> float:
    """One-op relative rounding bound at `prec` mantissa bits."""
    return 2.0 ** (1 - prec)


@dataclass(frozen=True)
class ApproxValue:
    """value +- radius, with a rigor flag and the precision it carries."""

    value: object  # mpf | mpc | float | complex
    radius: float = 0.0
    rigor: str = RIGOROUS
    precision_bits: int = field(default=53)

    def __post_init__(self):
        if not (self.radius >= 0.0):
            raise ValueError(f"radius must be >= 0, got {self.radius}")
        if self.rigor not in (RIGOROUS, HEURISTIC):
            raise ValueError(f"bad rigor flag {self.rigor!r}")

    # -- helpers ----------------------------------------------------------

    def abs_value(self) -> float:
        return float(mpmath.fabs(self.value))

    def _wrap(self, value, radius, other=None) -> "ApproxValue":
        rigor = self.rigor if other is None else combine_rigor(self.rigor, other.rigor)
        prec = self.precision_bits if other is None else min(self.precision_bits, other.precision_bits)
        return ApproxValue(value, _up(radius), rigor, prec)

    @staticmethod
    def exact(value, prec: int | None = None) -> "ApproxValue":
        return ApproxValue(value, 0.0, RIGOROUS, prec or mpmath.mp.prec)

    # -- arithmetic (radius-propagating) -----------------------------------

    @staticmethod
    def _coerce(x) -> "ApproxValue":
        if isinstance(x, ApproxValue):
            return x
        return ApproxValue(x, 0.0, RIGOROUS, mpmath.mp.prec)

    def __add__(self, other):
        o = self._coerce(other)
        v = self.value + o.value
        r = self.radius + o.radius + eps_for(self.precision_bits) * float(mpmath.fabs(v))
        return self._wrap(v, r, o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        v = self.value - o.value
        r = self.radius + o.radius + eps_for(self.precision_bits) * float(mpmath.fabs(v))
        return self._wrap(v, r, o)

    def __rsub__(self, other):
        return self._coerce(other).__sub__(self)

    def __mul__(self, other):
        o = self._coerce(other)
        v = self.value * o.value
        r = (self.abs_value() * o.radius + o.abs_value() * self.radius
             + self.radius * o.radius
             + eps_for(self.precision_bits) * float(mpmath.fabs(v)))
        return self._wrap(v, r, o)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        oa = o.abs_value()
        if o.radius >= oa:
            raise ZeroDivisionError("divisor's radius covers zero")
        v = self.value / o.value
        # |a/b - a~/b~| <= (|a| rb + |b| ra) / (|b|(|b| - rb))
        r = ((self.abs_value() * o.radius + oa * self.radius) / (oa * (oa - o.radius))
             + eps_for(self.precision_bits) * float(mpmath.fabs(v)))
        return self._wrap(v, r, o)

    def __neg__(self):
        return ApproxValue(-self.value, self.radius, self.rigor, self.precision_bits)

    def __abs__(self):
        return ApproxValue(mpmath.fabs(self.value), self.radius, self.rigor, self.precision_bits)

    def widened(self, extra: float) -> "ApproxValue":
        return ApproxValue(self.value, radd(self.radius, extra), self.rigor, self.precision_bits)

    def __repr__(self):
        return f"ApproxValue({render_value(self.value, self.radius)}, rigor={self.rigor})"


def render_value(value, radius: float) -> str:
    """Render with only the digits the radius justifies, plus the radius."""
    if radius == 0.0:
        return f"{mpmath.nstr(value, _MAX_DIGITS)} (exact)"
    av = float(mpmath.fabs(value))
    if av == 0.0 or radius >= av:
        digits = 1
    else:
        digits = max(1, min(_MAX_DIGITS, int(math.floor(math.log10(av / (2.0 * radius)))) + 1))
    return f"{mpmath.nstr(value, digits)} +- {radius:.2e}"
