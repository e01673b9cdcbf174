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

from .approx import PRECISION, ApproxValue, RIGOROUS, eps_for, radd
from .dsum import fixed_to_mp_exact
from .errors import CoverageError, DomainError
from .piecewise import (FunctionSpec, InnerSumFactor, PowLogSum, SummatoryFactor,
                        integrate_partitions)
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
         precision: int = PRECISION) -> ApproxValue:
    """S_a phi(x) = sum_{n<=x} a(n) phi(x/n): the summatory factor at t = 1,
    c W_k(floor(x)) for phi(u) = c u^p log^k u."""
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    f = SummatoryFactor(_mp_values(a.values(math.floor(x)), precision), phi, x,
                        precision + _GUARD)
    with mpmath.mp.workprec(precision + _GUARD):
        c = mpmath.mpmathify(phi.c)
        re, im = f.cols[phi.k]
        value = c * fixed_to_mp_exact(re[-1], im and im[-1], f.Wf[phi.k])
        radius = eps_for(precision) * 8 * abs(complex(c)) * f.col_abs[phi.k][-1]
        return ApproxValue(+value, radd(radius), RIGOROUS, precision)


def _mp_values(values, prec):
    with mpmath.mp.workprec(prec + _GUARD):
        return [_to_mp(v) for v in values]


def terre_batch(cells, x: float, precision: int = PRECISION,
                left_only: bool = False) -> list[tuple[ApproxValue, ...]]:
    """terre_sides(a, b, omega, phi, x) for each (a, b, omega, phi) in `cells`,
    from one walk of the partition; with left_only, each item is (lhs,) and
    no right side is built.

    Within the call every sequence's values, every Dirichlet convolution
    (one per unordered pair), every summatory or inner-sum factor, every
    right side's phi and every table of x^p n^-p or log(x/n) the summatory
    factors read is built once, so right sides of the same factors are one
    integrand of the walk, and each side equals the side computed alone bit
    for bit.  Specs are told apart by repr, which keeps 1 and 1.0 and 1+0j
    apart, so only specs that build identical factors share one.
    """
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    N = math.floor(x)
    values = {}
    for a, b, _, _ in cells:
        for seq in (a, b):
            if repr(seq) not in values:
                values[repr(seq)] = _mp_values(seq.values(N), precision)
    over_t = PowLogSum.monomial(mpf(1), mpf(-1), 0)
    factors, tables = {}, {}

    def factor(key, build):
        if key not in factors:
            factors[key] = build()
        return factors[key]

    bits = precision + _GUARD  # the factors' precision
    integrands = []
    for a, b, omega, phi in cells:
        ka, kb, ko, kp = repr(a), repr(b), repr(omega), repr(phi)
        integrands.append([
            factor(("S", ka, ko),
                   lambda: SummatoryFactor(values[ka], omega, x, bits, tables=tables)),
            factor(("I", kb, kp), lambda: InnerSumFactor(values[kb], phi, bits)),
            over_t])
        if left_only:
            continue
        pair = tuple(sorted((ka, kb)))  # a*b = b*a exactly, in ints and Fractions
        conv = factor(("conv", *pair),
                      lambda: _mp_values(dirichlet_convolve(a, b, N), precision))
        integrands.append([
            factor(("S", *pair, ko),
                   lambda: SummatoryFactor(conv, omega, x, bits, tables=tables)),
            factor(("phi", kp), lambda: PowLogSum.from_spec(phi)), over_t])
    sides = integrate_partitions(x, integrands, precision=precision)
    step = 1 if left_only else 2
    return [tuple(sides[j:j + step]) for j in range(0, len(sides), step)]


def terre_sides(a: SequenceSpec, b: SequenceSpec, omega: FunctionSpec,
                phi: FunctionSpec, x: float,
                precision: int = PRECISION) -> tuple[ApproxValue, ApproxValue]:
    """Both sides of the convolution identity, evaluated exactly piecewise."""
    return terre_batch([(a, b, omega, phi)], x, precision)[0]


def voyage_sides(omega: FunctionSpec, phi: FunctionSpec, x: float,
                 precision: int = PRECISION) -> tuple[ApproxValue, ApproxValue]:
    """Swap symmetry: integral omega(x/t) S_1 phi(t) dt/t equals the same with
    omega and phi exchanged (the delta = 1 * mu case of the identity)."""
    N = math.floor(x)
    delta = SequenceSpec.explicit([1] + [0] * max(N - 1, 0))
    one = SequenceSpec.named("one")
    (lhs,), (rhs,) = terre_batch([(delta, one, omega, phi), (delta, one, phi, omega)],
                                 x, precision, left_only=True)
    return lhs, rhs
