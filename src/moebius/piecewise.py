"""Exact closed-form integration over breakpoint partitions.

Integrands here are products of step-indexed "piece factors" that are, on each
piece of the partition, an exact element of the family

    sum over terms of  c * t^p * log(t)^k     (complex c, p; integer k >= 0)

which is closed under products and under antidifferentiation (the p = -1 case
produces pure log powers).  The partition merges the integers <= x with the
points x/n, so floor(t), every truncated power sum in t, and every summatory
value at x/t are constant in structure between consecutive breakpoints: each
piece contributes an antiderivative difference, not a quadrature estimate.

Radius accounting: all arithmetic runs at 96 guard bits; each piece adds to a
condition tracker the absolute-coefficient evaluation of its integrand's
antiderivative at both endpoints plus the contribution magnitude, and the
final radius is eps(prec) * 64 * tracker, a generous cover for every rounding
and cancellation the piece can contain at that operation count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
from mpmath import mpf, mpc

from .approx import ApproxValue, RIGOROUS, eps_for, radd
from .constants import gamma_const
from .errors import CapacityError, DomainError, UnsupportedKernelError
from .sieve import sieve_range
from .zeta import ComplexParam, power_prefix_table, zeta_em

_GUARD = 96
MAX_PARTITION_X = 10_000_000


def _binom(k: int, j: int) -> int:
    return math.comb(k, j)


# ---------------------------------------------------------------------------
# The symbolic family.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FunctionSpec:
    """One monomial kernel c * t^p * log(t)^k."""

    c: complex = 1.0
    p: complex = 0.0
    k: int = 0

    def __post_init__(self):
        if self.k < 0 or int(self.k) != self.k:
            raise UnsupportedKernelError("log power k must be a nonnegative integer")

    @classmethod
    def const(cls, c=1.0) -> "FunctionSpec":
        return cls(c, 0.0, 0)

    @classmethod
    def power(cls, p, c=1.0) -> "FunctionSpec":
        return cls(c, p, 0)

    @classmethod
    def log(cls, k: int = 1, c=1.0) -> "FunctionSpec":
        return cls(c, 0.0, k)

    @classmethod
    def t_log(cls, k: int = 1, c=1.0) -> "FunctionSpec":
        return cls(c, 1.0, k)

    def __call__(self, u):
        with mpmath.mp.workprec(mpmath.mp.prec + 16):
            um = mpmath.mpmathify(u)
            v = mpmath.mpmathify(self.c) * mpmath.power(um, self.p)
            if self.k:
                v *= mpmath.log(um) ** self.k
        return v

    def describe(self) -> str:
        parts = []
        if self.c != 1.0 or (self.p == 0 and self.k == 0):
            parts.append(f"{self.c}")
        if self.p != 0:
            parts.append(f"t^{self.p}")
        if self.k:
            parts.append(f"log^{self.k} t" if self.k > 1 else "log t")
        return "*".join(parts) or "1"


class PowLogSum:
    """sum_i t^{p_i} * (poly_i in log t); the closed integrand family.

    Each term keeps the coefficient vector and an absolute-coefficient vector
    used by the radius model (the abs vector dominates |coeff| even through
    cancellations in how the coefficient was built).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        # terms: list of [p (mpf/mpc), coeffs list, abs_coeffs list of float]
        self.terms = terms if terms is not None else []

    @classmethod
    def monomial(cls, c, p, k: int, abs_c: float | None = None) -> "PowLogSum":
        coeffs = [mpf(0)] * k + [c]
        absc = [0.0] * k + [abs(complex(c)) if abs_c is None else abs_c]
        return cls([[mpmath.mpmathify(p), coeffs, absc]])

    def copy(self) -> "PowLogSum":
        return PowLogSum([[p, list(cs), list(ac)] for p, cs, ac in self.terms])

    def _find(self, p):
        for term in self.terms:
            if term[0] == p:
                return term
        return None

    def add_monomial(self, c, p, k: int, abs_c: float | None = None) -> None:
        p = mpmath.mpmathify(p)
        absc = abs(complex(c)) if abs_c is None else abs_c
        term = self._find(p)
        if term is None:
            self.terms.append([p, [mpf(0)] * k + [c], [0.0] * k + [absc]])
            return
        _, cs, ac = term
        while len(cs) <= k:
            cs.append(mpf(0))
            ac.append(0.0)
        cs[k] = cs[k] + c
        ac[k] = ac[k] + absc

    def __iadd__(self, other: "PowLogSum"):
        for p, cs, ac in other.terms:
            for k, c in enumerate(cs):
                if c != 0 or ac[k] != 0.0:
                    self.add_monomial(c, p, k, ac[k])
        return self

    def mul(self, other: "PowLogSum") -> "PowLogSum":
        out = PowLogSum()
        for p1, cs1, ac1 in self.terms:
            for p2, cs2, ac2 in other.terms:
                p = p1 + p2
                for k1, c1 in enumerate(cs1):
                    if c1 == 0 and ac1[k1] == 0.0:
                        continue
                    for k2, c2 in enumerate(cs2):
                        if c2 == 0 and ac2[k2] == 0.0:
                            continue
                        out.add_monomial(c1 * c2, p, k1 + k2, ac1[k1] * ac2[k2])
        return out

    def antiderivative(self) -> "PowLogSum":
        """Exact antiderivative, term by term.

        p != -1: integral t^p log^j = t^{p+1} G_j(log t) with
                 G_j = log^j/(p+1) - (j/(p+1)) G_{j-1};
        p == -1: integral t^-1 log^j = log^{j+1}/(j+1).
        """
        out = PowLogSum()
        for p, cs, ac in self.terms:
            if p == -1:
                for j, c in enumerate(cs):
                    if c == 0 and ac[j] == 0.0:
                        continue
                    out.add_monomial(c / (j + 1), mpf(0), j + 1, ac[j] / (j + 1))
            else:
                q = p + 1
                for j, c in enumerate(cs):
                    if c == 0 and ac[j] == 0.0:
                        continue
                    # unrolled recurrence: integral t^p log^j dt =
                    #   t^{p+1} sum_{i=0}^{j} (-1)^{j-i} (j!/i!) / (p+1)^{j-i+1} log^i
                    for i in range(j, -1, -1):
                        coef = (mpf(math.factorial(j)) / math.factorial(i)) / q ** (j - i + 1)
                        if (j - i) % 2:
                            coef = -coef
                        out.add_monomial(c * coef, q, i, ac[j] * abs(complex(coef)))
        return out

    def eval_with_scale(self, ctx: "EndpointContext"):
        """(value, abs_scale): the value at ctx.t and the absolute-coefficient
        magnitude bound used by the radius model."""
        total = mpf(0)
        scale = 0.0
        for p, cs, ac in self.terms:
            tp = ctx.power(p)
            tp_abs = ctx.power_abs(p)
            poly = mpf(0)
            poly_abs = 0.0
            lg = mpf(1)
            lg_abs = 1.0
            for j, c in enumerate(cs):
                if c != 0:
                    poly += c * lg
                if ac[j]:
                    poly_abs += ac[j] * lg_abs
                lg = lg * ctx.logt
                lg_abs *= ctx.logt_abs
            total = total + tp * poly
            scale += tp_abs * poly_abs
        return total, scale


class EndpointContext:
    """Caches log t and the needed complex powers of one endpoint."""

    __slots__ = ("t", "logt", "logt_abs", "_pows", "_pow_abs")

    def __init__(self, t):
        self.t = t
        self.logt = mpmath.log(t)
        self.logt_abs = abs(float(self.logt))
        self._pows = {}
        self._pow_abs = {}

    def power(self, p):
        key = (float(mpmath.re(p)), float(mpmath.im(p)))
        v = self._pows.get(key)
        if v is None:
            if p == 0:
                v = mpf(1)
            elif p == 1:
                v = self.t
            else:
                v = mpmath.exp(p * self.logt)
            self._pows[key] = v
            self._pow_abs[key] = float(mpmath.fabs(v))
        return v

    def power_abs(self, p) -> float:
        key = (float(mpmath.re(p)), float(mpmath.im(p)))
        if key not in self._pow_abs:
            self.power(p)
        return self._pow_abs[key]


# ---------------------------------------------------------------------------
# Partition.
# ---------------------------------------------------------------------------

class Partition:
    """Sorted breakpoints of [1, x]: the integers <= x merged with x/n, n <= x.

    Between consecutive breakpoints floor(t), floor(x/t), and hence every
    step-indexed factor, is constant in structure.
    """

    def __init__(self, x: float, need_inverse_points: bool = True):
        if x < 1:
            raise DomainError(f"x must be >= 1, got {x}")
        if x > MAX_PARTITION_X:
            raise CapacityError(
                f"partition for x = {x} would exceed ~{2 * MAX_PARTITION_X} pieces")
        self.x = x
        N = math.floor(x)
        with mpmath.mp.workprec(mpmath.mp.prec + _GUARD):
            xm = mpf(x)
            pts = [mpf(n) for n in range(1, N + 1)]
            if mpf(N) != xm:
                pts.append(xm)
            if need_inverse_points:
                pts.extend(xm / n for n in range(2, N + 1))
            pts = sorted(set(pts))
        self.points = pts

    def __len__(self):
        return len(self.points)

    def pieces(self):
        """Yield (a, b, N=floor(x/mid), K=floor(mid)) per piece."""
        x = mpf(self.x)
        for a, b in zip(self.points, self.points[1:]):
            mid = (a + b) / 2
            K = int(mpmath.floor(mid))
            N = int(mpmath.floor(x / mid))
            yield a, b, N, K


# ---------------------------------------------------------------------------
# Piece factors.
# ---------------------------------------------------------------------------

class ConstFactor:
    """A fixed PowLogSum, independent of the piece index."""

    uses = "none"

    def __init__(self, poly: PowLogSum):
        self._poly = poly

    @classmethod
    def from_spec(cls, fs: FunctionSpec | None):
        if fs is None:
            return cls(PowLogSum.monomial(mpf(1), 0, 0))
        return cls(PowLogSum.monomial(mpmath.mpmathify(fs.c), fs.p, fs.k))

    def poly(self, idx: int) -> PowLogSum:
        return self._poly


class SummatoryFactor:
    """S_a omega(x/t) = sum_{n <= x/t} a(n) omega((x/n)/t), indexed by
    N = floor(x/t).

    omega(u) = c u^p log^k u gives, with L_n = log(x/n) and A_n = (x/n)^p,
    the t-polynomial  c t^{-p} sum_j C(k,j)(-1)^j log^j t * W_{k-j}(N),
    W_i(N) = sum_{n<=N} a(n) A_n L_n^i.  The W_i are prefix tables.
    """

    uses = "N"

    def __init__(self, seq_values, omega: FunctionSpec, x: float):
        self.omega = omega
        k = omega.k
        N_max = len(seq_values)
        xm = mpf(x)
        cm = mpmath.mpmathify(omega.c)
        self.W = [[mpf(0)] for _ in range(k + 1)]      # prefix sums, index N
        self.W_abs = [[0.0] for _ in range(k + 1)]
        for n in range(1, N_max + 1):
            a_n = seq_values[n - 1]
            if a_n == 0:
                for i in range(k + 1):
                    self.W[i].append(self.W[i][-1])
                    self.W_abs[i].append(self.W_abs[i][-1])
                continue
            u = xm / n
            An = mpmath.power(u, omega.p) if omega.p != 0 else mpf(1)
            Ln = mpmath.log(u) if k else mpf(0)
            base = mpmath.mpmathify(a_n) * An
            term = base
            for i in range(k + 1):
                self.W[i].append(self.W[i][-1] + term)
                self.W_abs[i].append(self.W_abs[i][-1] + abs(complex(term)))
                if i < k:
                    term = term * Ln
        self.k = k
        self.c = cm
        self.p = omega.p

    def poly(self, N: int) -> PowLogSum:
        N = min(N, len(self.W[0]) - 1)
        out = PowLogSum()
        for j in range(self.k + 1):
            sign = -1 if j % 2 else 1
            coef = self.c * _binom(self.k, j) * sign
            w = self.W[self.k - j][N]
            out.add_monomial(coef * w, -mpmath.mpmathify(self.p), j,
                             abs(complex(coef)) * self.W_abs[self.k - j][N])
        return out


class InnerSumFactor:
    """S_b phi(t) = sum_{k <= t} b(k) phi(t/k), indexed by K = floor(t).

    phi(u) = c u^p log^l u gives c t^p sum_j C(l,j) log^j t V_{l-j}(K) with
    V_i(K) = sum_{k<=K} b(k) k^{-p} (-log k)^i.
    """

    uses = "K"

    def __init__(self, seq_values, phi: FunctionSpec):
        self.phi = phi
        l = phi.k
        K_max = len(seq_values)
        self.V = [[mpf(0)] for _ in range(l + 1)]
        self.V_abs = [[0.0] for _ in range(l + 1)]
        for k in range(1, K_max + 1):
            b_k = seq_values[k - 1]
            if b_k == 0:
                for i in range(l + 1):
                    self.V[i].append(self.V[i][-1])
                    self.V_abs[i].append(self.V_abs[i][-1])
                continue
            kp = mpmath.power(k, -mpmath.mpmathify(phi.p)) if phi.p != 0 else mpf(1)
            mlk = -mpmath.log(k) if l else mpf(0)
            term = mpmath.mpmathify(b_k) * kp
            for i in range(l + 1):
                self.V[i].append(self.V[i][-1] + term)
                self.V_abs[i].append(self.V_abs[i][-1] + abs(complex(term)))
                if i < l:
                    term = term * mlk
        self.l = l
        self.c = mpmath.mpmathify(phi.c)
        self.p = phi.p

    def poly(self, K: int) -> PowLogSum:
        K = min(K, len(self.V[0]) - 1)
        out = PowLogSum()
        for j in range(self.l + 1):
            coef = self.c * _binom(self.l, j)
            out.add_monomial(coef * self.V[self.l - j][K], mpmath.mpmathify(self.p), j,
                             abs(complex(coef)) * self.V_abs[self.l - j][K])
        return out


class QKernelFactor:
    """(s-1)(zeta(s) - P_K) t^s - t on pieces with floor(t) = K."""

    uses = "K"

    def __init__(self, s: ComplexParam, prec: int, target_radius: float = 1e-35):
        s.require_not_one("Q kernel")
        self.s = s
        self.prec = prec
        self.zeta, _ = zeta_em(s, target_radius, precision=prec, want_derivative=False)
        self.table = power_prefix_table(s.sigma, s.tau, prec)
        self.sm = s.as_mpc()

    def poly(self, K: int) -> PowLogSum:
        c = (self.sm - 1) * (self.zeta.value - self.table.value(K))
        abs_c = abs(complex(self.sm - 1)) * (float(mpmath.fabs(self.zeta.value))
                                             + float(mpmath.fabs(self.table.value(K))))
        out = PowLogSum.monomial(c, self.sm, 0, abs_c)
        out.add_monomial(mpf(-1), mpf(1), 0, 1.0)
        return out

    def zeta_sensitivity(self, idx: int) -> PowLogSum:
        # d(poly)/d(zeta) = (s-1) t^s
        return PowLogSum.monomial(self.sm - 1, self.sm, 0)

    @property
    def zeta_radius(self) -> float:
        return self.zeta.radius


class RKernelFactor(QKernelFactor):
    """Q_s(t) + (s-1)(1/2 - {t}) with {t} = t - K on the piece."""

    def poly(self, K: int) -> PowLogSum:
        out = super().poly(K)
        sm1 = self.sm - 1
        out.add_monomial(sm1 * (mpf(1) / 2 + K), mpf(0), 0)
        out.add_monomial(-sm1, mpf(1), 0)
        return out


class PowSumFactor:
    """sum_{k<=t} (t/k)^s = t^s P_K."""

    uses = "K"

    def __init__(self, s: ComplexParam, prec: int):
        self.s = s
        self.table = power_prefix_table(s.sigma, s.tau, prec)
        self.sm = s.as_mpc()

    def poly(self, K: int) -> PowLogSum:
        return PowLogSum.monomial(self.table.value(K), self.sm, 0,
                                  float(mpmath.fabs(self.table.value(K))))


class HalfMinusFracFactor:
    """1/2 - {t} = 1/2 + K - t."""

    uses = "K"

    def poly(self, K: int) -> PowLogSum:
        out = PowLogSum.monomial(mpf(1) / 2 + K, mpf(0), 0)
        out.add_monomial(mpf(-1), mpf(1), 0)
        return out


class HarmonicWeightFactor:
    """t (H(t) - log t - gamma) with H piecewise constant."""

    uses = "K"

    def __init__(self, K_max: int, prec: int):
        g = gamma_const(prec + _GUARD)
        with mpmath.mp.workprec(prec + _GUARD):
            self.H = [mpf(0)]
            for k in range(1, K_max + 2):
                self.H.append(self.H[-1] + mpf(1) / k)
            self.gamma = g

    def poly(self, K: int) -> PowLogSum:
        K = min(K, len(self.H) - 1)
        out = PowLogSum.monomial(self.H[K] - self.gamma, mpf(1), 0)
        out.add_monomial(mpf(-1), mpf(1), 1)
        return out


class LogMinusHFactor:
    """log t - H(t), the k = 1 right-hand integrand."""

    uses = "K"

    def __init__(self, K_max: int, prec: int):
        with mpmath.mp.workprec(prec + _GUARD):
            self.H = [mpf(0)]
            for k in range(1, K_max + 2):
                self.H.append(self.H[-1] + mpf(1) / k)

    def poly(self, K: int) -> PowLogSum:
        K = min(K, len(self.H) - 1)
        out = PowLogSum.monomial(-self.H[K], mpf(0), 0, float(self.H[K]))
        out.add_monomial(mpf(1), mpf(0), 1)
        return out


class FactorSum:
    """Pointwise sum of factors (e.g. m-check(x/t) - 1)."""

    def __init__(self, *factors):
        self.factors = factors
        self.uses = "NK"

    def poly(self, N: int, K: int | None = None) -> PowLogSum:
        out = PowLogSum()
        for f in self.factors:
            idx = N if getattr(f, "uses", "N") in ("N", "none") else K
            out += f.poly(idx) if not isinstance(f, FactorSum) else f.poly(N, K)
        return out


# ---------------------------------------------------------------------------
# The integrator.
# ---------------------------------------------------------------------------

def integrate_partition(x: float, factors: list, extra: PowLogSum | None = None,
                        precision: int | None = None) -> ApproxValue:
    """Exact piecewise integral over [1, x] of the product of `factors` times
    `extra`, with compensated accumulation and a rigorous rounding radius."""
    prec = precision or mpmath.mp.prec
    eps = eps_for(prec)
    need_inverse = any(getattr(f, "uses", "N") in ("N", "NK") for f in factors)
    part = Partition(x, need_inverse_points=need_inverse)
    zeta_factors = [f for f in factors if isinstance(f, QKernelFactor)]
    with mpmath.mp.workprec(prec + _GUARD):
        total = mpf(0)
        cond = 0.0
        zeta_sens = 0.0
        for a, b, N, K in part.pieces():
            poly = None
            for f in factors:
                if isinstance(f, FactorSum):
                    p = f.poly(N, K)
                else:
                    p = f.poly(N if f.uses in ("N", "none") else K)
                poly = p if poly is None else poly.mul(p)
            if extra is not None:
                poly = poly.mul(extra) if poly is not None else extra
            F = poly.antiderivative()
            ca, cb = EndpointContext(a), EndpointContext(b)
            va, sa = F.eval_with_scale(ca)
            vb, sb = F.eval_with_scale(cb)
            contrib = vb - va
            total += contrib
            cond += sa + sb + float(mpmath.fabs(contrib))
            for zf in zeta_factors:
                sens = zf.zeta_sensitivity(K)
                rest = extra.copy() if extra is not None else PowLogSum.monomial(mpf(1), 0, 0)
                for f in factors:
                    if f is zf:
                        continue
                    if isinstance(f, FactorSum):
                        rest = rest.mul(f.poly(N, K))
                    else:
                        rest = rest.mul(f.poly(N if f.uses in ("N", "none") else K))
                SF = sens.mul(rest).antiderivative()
                wa, _ = SF.eval_with_scale(ca)
                wb, _ = SF.eval_with_scale(cb)
                zeta_sens += float(mpmath.fabs(wb - wa))
        radius = eps * 64.0 * cond
        for zf in zeta_factors:
            radius += zf.zeta_radius * zeta_sens
        return ApproxValue(+total, radd(radius), RIGOROUS, prec)


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def mu_over_n_values(N: int, prec: int) -> tuple:
    """(mu(n)/n) for n = 1..N at prec+guard bits, as an immutable tuple."""
    table = sieve_range(1, max(N, 1))
    with mpmath.mp.workprec(prec + _GUARD):
        return tuple(mpf(int(table.mu(n))) / n if table.mu(n) else 0
                     for n in range(1, N + 1))


def m_weight_factor(x: float, prec: int) -> SummatoryFactor:
    """m(x/t) as a piece factor."""
    return SummatoryFactor(mu_over_n_values(math.floor(x), prec), FunctionSpec.const(1.0), x)


def mcheck_minus_one_factor(x: float, prec: int) -> FactorSum:
    """m-check(x/t) - 1 as a piece factor."""
    sf = SummatoryFactor(mu_over_n_values(math.floor(x), prec), FunctionSpec.log(1), x)
    return FactorSum(sf, ConstFactor(PowLogSum.monomial(mpf(-1), 0, 0)))


def mdcheck_normalized_factor(x: float, prec: int) -> FactorSum:
    """m-double-check(x/t) - 2 log(x/t) + 2 gamma as a piece factor."""
    sf = SummatoryFactor(mu_over_n_values(math.floor(x), prec), FunctionSpec.log(2), x)
    with mpmath.mp.workprec(prec + _GUARD):
        logx = mpmath.log(mpf(x))
        g = gamma_const(prec + _GUARD)
        const = PowLogSum.monomial(-2 * logx + 2 * g, mpf(0), 0)
        const.add_monomial(mpf(2), mpf(0), 1)  # +2 log t
    return FactorSum(sf, ConstFactor(const))


def integrate_m_kernel(x: float, g, precision: int | None = None,
                       weight: str = "m") -> ApproxValue:
    """integral over [1, x] of w(x/t) g(t) / t^2 dt, exactly piecewise.

    w is m (default), m-check - 1 ("mcheck1"), or the normalized
    m-double-check ("mdcheck"); g is a FunctionSpec, a PowLogSum, or a piece
    factor built by the factories in this module (Q/R kernels, truncated power
    sums, 1/2 - {t}, the harmonic weight).
    """
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    prec = precision or mpmath.mp.prec
    if weight == "m":
        w = m_weight_factor(x, prec)
    elif weight == "mcheck1":
        w = mcheck_minus_one_factor(x, prec)
    elif weight == "mdcheck":
        w = mdcheck_normalized_factor(x, prec)
    else:
        raise DomainError(f"unknown weight {weight!r}")
    if isinstance(g, FunctionSpec):
        g = ConstFactor.from_spec(g)
    elif isinstance(g, PowLogSum):
        g = ConstFactor(g)
    elif not hasattr(g, "poly"):
        raise UnsupportedKernelError(
            f"{g!r} is outside the closed-form kernel family")
    extra = PowLogSum.monomial(mpf(1), mpf(-2), 0)
    return integrate_partition(x, [w, g], extra, precision=prec)
