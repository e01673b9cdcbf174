"""The 4-parameter integral convolution identity and the S_a operator.

For arithmetic sequences a, b and kernels omega, phi bounded on [1, x]:

    integral_1^x S_a omega(x/t) S_b phi(t) dt/t
        = integral_1^x S_{a*b} omega(x/t) phi(t) dt/t

with S_a phi(x) = sum_{n<=x} a(n) phi(x/n) and * the Dirichlet convolution.
Both sides are evaluated exactly over the merged breakpoint partition, which
makes the pair usable simultaneously as a test harness and as the engine
behind the specific summatory identities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
from mpmath import mpf

from .approx import ApproxValue, RIGOROUS, eps_for, radd
from .errors import CoverageError, DomainError
from .piecewise import (FunctionSpec, InnerSumFactor, PowLogSum, SummatoryFactor,
                        integrate_partition)
from .sieve import nonzero_mu

_GUARD = 48

_NAMED = ("mobius", "one", "alternating", "harmonic")


@dataclass(frozen=True)
class SequenceSpec:
    """A named arithmetic sequence or an explicit finite table a(1..N).

    Named: mobius, one, alternating ((-1)^(n+1)), harmonic (1/n).
    """

    name: str | None = None
    table: tuple | None = None

    def __post_init__(self):
        if (self.name is None) == (self.table is None):
            raise DomainError("give exactly one of name= or table=")
        if self.name is not None and self.name not in _NAMED:
            raise DomainError(f"unknown sequence {self.name!r}; pick from {_NAMED}")

    @classmethod
    def named(cls, name: str) -> "SequenceSpec":
        return cls(name=name)

    @classmethod
    def explicit(cls, values) -> "SequenceSpec":
        return cls(table=tuple(values))

    def values(self, N: int) -> list:
        """a(1..N) as exact ints/Fractions."""
        if self.table is not None:
            if len(self.table) < N:
                raise CoverageError(
                    f"sequence table has {len(self.table)} entries, need {N}")
            return list(self.table[:N])
        if self.name == "mobius":
            out = [0] * N
            for n, mu in nonzero_mu(N):
                out[n - 1] = mu
            return out
        if self.name == "one":
            return [1] * N
        if self.name == "alternating":
            return [1 if n % 2 else -1 for n in range(1, N + 1)]
        return [Fraction(1, n) for n in range(1, N + 1)]

    def label(self) -> str:
        return self.name or f"table[{len(self.table)}]"


def _to_mp(v):
    if isinstance(v, Fraction):
        return mpf(v.numerator) / v.denominator
    return v


def dirichlet_convolve(a: SequenceSpec, b: SequenceSpec, N: int) -> list:
    """(a*b)(n) = sum_{d|n} a(d) b(n/d) for n <= N, exactly."""
    av = a.values(N)
    bv = b.values(N)
    out = [0] * (N + 1)
    for d in range(1, N + 1):
        ad = av[d - 1]
        if ad == 0:
            continue
        for m in range(d, N + 1, d):
            out[m] += ad * bv[m // d - 1]
    return out[1:]


def S_op(a: SequenceSpec, phi: FunctionSpec, x: float,
         precision: int | None = None) -> ApproxValue:
    """S_a phi(x) = sum_{n<=x} a(n) phi(x/n), compensated."""
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    prec = precision or mpmath.mp.prec
    N = math.floor(x)
    av = a.values(N)
    eps = eps_for(prec)
    with mpmath.mp.workprec(prec + _GUARD):
        xm = mpf(x)
        total = mpf(0)
        abs_sum = 0.0
        for n in range(1, N + 1):
            an = av[n - 1]
            if an == 0:
                continue
            term = _to_mp(an) * phi(xm / n)
            total += term
            abs_sum += abs(complex(term))
        return ApproxValue(+total, radd(eps * 8 * abs_sum), RIGOROUS, prec)


def _mp_values(values, prec):
    with mpmath.mp.workprec(prec + _GUARD):
        return [_to_mp(v) for v in values]


def terre_sides(a: SequenceSpec, b: SequenceSpec, omega: FunctionSpec,
                phi: FunctionSpec, x: float,
                precision: int | None = None) -> tuple[ApproxValue, ApproxValue]:
    """Both sides of the convolution identity, evaluated exactly piecewise."""
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    prec = precision or mpmath.mp.prec
    N = math.floor(x)
    over_t = PowLogSum.monomial(mpf(1), mpf(-1), 0)
    av = _mp_values(a.values(N), prec)
    bv = _mp_values(b.values(N), prec)
    with mpmath.mp.workprec(prec + _GUARD):
        left = [SummatoryFactor(av, omega, x), InnerSumFactor(bv, phi)]
        lhs = integrate_partition(x, left, over_t, precision=prec)
        conv = _mp_values(dirichlet_convolve(a, b, N), prec)
        right = [SummatoryFactor(conv, omega, x), PowLogSum.from_spec(phi)]
        rhs = integrate_partition(x, right, over_t, precision=prec)
    return lhs, rhs


def voyage_sides(omega: FunctionSpec, phi: FunctionSpec, x: float,
                 precision: int | None = None) -> tuple[ApproxValue, ApproxValue]:
    """Swap symmetry: integral omega(x/t) S_1 phi(t) dt/t equals the same with
    omega and phi exchanged (the delta = 1 * mu case of the identity)."""
    prec = precision or mpmath.mp.prec
    N = math.floor(x)
    delta = SequenceSpec.explicit([1] + [0] * max(N - 1, 0))
    one = SequenceSpec.named("one")
    lhs, _ = terre_sides(delta, one, omega, phi, x, precision=prec)
    rhs, _ = terre_sides(delta, one, phi, omega, x, precision=prec)
    return lhs, rhs
