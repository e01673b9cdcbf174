"""The comparison kernels built from (s-1) zeta(s) t^s minus truncated power
sums, their closed-form sup bounds, and the fractional-part tail integral
that realizes their Euler-Maclaurin form.

Variants (K = floor(t), P_K = sum_{k<=K} k^(-s)):

    Q_s(t) = (s-1) zeta(s) t^s - (s-1) t^s P_K - t
    q_s(t) = (s-1) Q_s(t)
    R_s(t) = Q_s(t) - (s-1)({t} - 1/2)

kernel_eval computes the definitional formula; kernel_eval_em computes the
equivalent form Q_s(t) = (s-1)({t}-1/2) - t^s (s-1) s J(t) with
J(t) = integral_t^inf ({u}-1/2) u^(-s-1) du evaluated by exact unit pieces
plus the Bernoulli ladder -- no zeta value enters, which is what makes the
cross-check between the two forms meaningful.

On a unit cell [K, K+1) every kernel variant is g(t) = c t^s + beta t + delta
with c = (s-1)(zeta(s) - P_K): beta = -1, delta = 0 for Q, beta = -s,
delta = (s-1)(K + 1/2) for R, and q is (s-1) times Q's cell.  `CellKernel`
forms that cell exactly in ints, evaluates g at an exact t in fixed point,
and gives closed-form sup bounds for g and its derivatives; the rigorous
quadrature and the piecewise integrator's kernel factor read it.  It reads
zeta(s), and `frac_tail_integral` J(t), at `zeta.ZETA_RADIUS` by default.

Fractional parts use the right-continuous convention {k} = 0 at integers,
matching sums over k <= t that include k = t; left limits, for the
continuity/jump checks, come only through `kernel_eval`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import mpmath
from mpmath import mpf, mpc

from .approx import PRECISION, ApproxValue, RIGOROUS, eps_for, radd
from .dsum import exact_ratio, fixed_magnitude, log_fixed, powers_fixed
from .errors import DomainError, PrecisionError
from .zeta import ZETA_RADIUS, ComplexParam, bernoulli_ladder_tail, power_prefix_table, zeta_em

_GUARD = 48
_EXTRA = 32  # CellKernel.g's spare bits over bits(|s| (2 lt + 6))

Q = "Q"
R = "R"
LITTLE_Q = "q"


@dataclass(frozen=True)
class KernelSpec:
    """A kernel variant together with its complex parameter."""

    variant: str
    s: ComplexParam

    def __post_init__(self):
        if self.variant not in (Q, R, LITTLE_Q):
            raise DomainError(f"unknown kernel variant {self.variant!r}")

    @classmethod
    def make(cls, variant: str, s) -> "KernelSpec":
        return cls(variant, ComplexParam.coerce(s))


@dataclass(frozen=True)
class Cell:
    """g(t) = c t^s + beta t + delta on one unit cell: each coefficient an
    exact (re, im) pair of ints at scale S (a unit is 2^-S), and the float
    abs(complex(.)) of each, made when first read."""

    S: int
    c: tuple[int, int]
    beta: tuple[int, int]
    delta: tuple[int, int]

    @cached_property
    def c_abs(self) -> float:
        return fixed_magnitude(*self.c, self.S)

    @cached_property
    def beta_abs(self) -> float:
        return fixed_magnitude(*self.beta, self.S)

    @cached_property
    def delta_abs(self) -> float:
        return fixed_magnitude(*self.delta, self.S)


class CellKernel:
    """g(t) = c_K t^s + beta t + delta on [K, K+1): the exact cell, its
    fixed-point evaluator and closed-form derivative bounds.

    `g` works at W = prec + 64 + hb bits, with 2^-hb <= |beta| + |delta_1|
    (delta at K = 1, the least |delta| of any cell): the `quadrature`
    docstring derives that every value it returns is off by at most
    2^-(prec+63) M, M = |c||t^s| + |beta| t + |delta|, and its slope g'(t)
    by 2^-(prec+63) (|s|/t + 1) M.
    """

    def __init__(self, spec: KernelSpec, prec: int, zeta_target: float = ZETA_RADIUS):
        self.spec = spec
        self.s = spec.s
        self.s.require_not_one("kernel")
        self.s.require_sigma_gt(-1.0, "kernel")
        self.zeta, _ = zeta_em(self.s, zeta_target, precision=prec, want_derivative=False)
        self.table = power_prefix_table(self.s.sigma, self.s.tau, prec)
        self.sm = self.s.as_mpc()
        self.cplx = type(self.sm) is mpc or type(self.zeta.value) is mpc
        # s, s - 1 and zeta(s) exactly, as (re, im, scale): zeta at a scale >= the table's W
        self._exp = exact_ratio(self.s.sigma), exact_ratio(self.s.tau)
        (num, den), (tnum, tden) = self._exp
        Gs = max(den, tden).bit_length() - 1
        zeta = [exact_ratio(mpmath.re(self.zeta.value)), exact_ratio(mpmath.im(self.zeta.value))]
        A = max(self.table.W, *(d.bit_length() - 1 for _, d in zeta))
        self.s1_fixed = ((num - den) * (1 << Gs) // den, tnum * (1 << Gs) // tden, Gs)
        self.zeta_fixed = (*(n * (1 << A) // d for n, d in zeta), A)
        self._power = num if tnum == 0 and den == 1 else None  # an integer s
        self._anchor_logs: dict = {}  # (A, bits) -> log A: log_fixed's anchors for g
        with mpmath.mp.workprec(prec + _GUARD):
            self.s1_abs = abs(complex(self.sm - 1))
        self.scale = self.s1_abs if spec.variant == LITTLE_Q else 1.0
        first = self.cell(1)
        self.W = prec + 64 + max(0, 1 - math.frexp(first.beta_abs + first.delta_abs)[1])

    def cell(self, K: int) -> Cell:
        """The cell [K, K+1) exactly: c_K = (s-1)(zeta - P_K) from the prefix
        table's ints, beta and delta from s."""
        sr, si, Gs = self.s1_fixed
        zr, zi, A = self.zeta_fixed
        table = self.table
        pr, pi = (*table.prefix(K), 0)[:2]
        up = A - table.W
        dr, di = zr - (pr << up), zi - (pi << up)
        S = Gs + A
        c = (sr * dr - si * di, sr * di + si * dr)
        if self.spec.variant == R:  # beta = -s, delta = (s-1)(2K+1)/2
            beta = ((-sr - (1 << Gs)) << A, -si << A)
            delta = ((sr * (2 * K + 1)) << (A - 1), (si * (2 * K + 1)) << (A - 1))
        else:
            beta, delta = (-1 << S, 0), (0, 0)
        if self.spec.variant == LITTLE_Q:  # (s-1) times Q's cell
            c, beta, delta = ((re * sr - im * si, re * si + im * sr) for re, im in (c, beta, delta))
            S += Gs
        return Cell(S, c, beta, delta)

    def g(self, cell: Cell, u: int, v: int = 1, slope: bool = False) -> tuple[int, ...]:
        """g(t) at t = u/v >= 1 exactly, as (re, im) ints at scale W; with
        `slope`, (re, im, re', im'), adding g'(t) = s c t^s / t + beta from
        the same t^s.

        t^s = exp(sigma L)(cos tau L + i sin tau L) from L = log t at W + ht
        + gb bits (`log_fixed`), floored to W + ht bits (2^-ht <= t^sigma),
        then one floor of the exact c t^s + beta t + delta, and one of the
        exact s c t^s v/u + beta."""
        W = self.W
        lt = u.bit_length() - v.bit_length() + 1  # t < 2^lt
        if self._power is not None:  # t^k, one floor division
            ht, k = 0, self._power
            T = ((u ** k) << W) // v ** k, 0
        else:
            ht = math.ceil(-self.s.sigma * lt) if self.s.sigma < 0 else 0
            gb = _EXTRA + math.ceil(self.s.abs() * (2 * lt + 6)).bit_length()
            wp = W + ht + gb
            L = log_fixed(u, v, wp, self._anchor_logs)
            T = (*powers_fixed([L], self._exp, wp, gb)[0], 0)[:2]
        (cr, ci), (br, bi), (dr, di) = cell.c, cell.beta, cell.delta
        d = v << (cell.S + ht)
        up = W + ht
        ctr, cti = cr * T[0] - ci * T[1], cr * T[1] + ci * T[0]  # c t^s at scale S + up
        re = (ctr * v + ((br * u + dr * v) << up)) // d
        im = (cti * v + ((bi * u + di * v) << up)) // d if self.cplx else 0
        if not slope:
            return re, im
        sr, si, Gs = self.s1_fixed
        sr += 1 << Gs  # s at scale Gs
        up += Gs
        d = u << (cell.S + ht + Gs)
        dre = ((sr * ctr - si * cti) * v + ((br * u) << up)) // d
        dim = ((sr * cti + si * ctr) * v + ((bi * u) << up)) // d if self.cplx else 0
        return re, im, dre, dim

    def abs_at(self, cell: Cell, u: int, v: int = 1) -> float:
        """|g(u/v)| as a float, from g's ints: abs(complex(.)) of the
        correctly rounded parts."""
        re, im = self.g(cell, u, v)
        return fixed_magnitude(re, im if self.cplx else None, self.W)

    def bounds(self, cell: Cell, a: float, b: float):
        """(G0, D1, D2): sup bounds for |g|, |g'|, |g''| on [a, b]."""
        sig = self.s.sigma
        ca = cell.c_abs
        s_abs = self.s.abs()
        tp = lambda e: max(a ** e, b ** e)
        G0 = ca * tp(sig) + cell.beta_abs * b + cell.delta_abs
        D1 = ca * s_abs * tp(sig - 1) + cell.beta_abs
        D2 = ca * s_abs * self.s1_abs * tp(sig - 2)
        return G0, D1, D2

    # zeta-value data radius propagated into any integral of g / t^2 on [a,b]:
    # d(g)/d(zeta) = (s-1) t^s (times (s-1) again for little q)
    def zeta_rad_per_unit(self, a: float, b: float) -> float:
        amp = self.s1_abs * self.scale
        return self.zeta.radius * amp * max(a ** self.s.sigma, b ** self.s.sigma)


class FracTailEvaluator:
    """J(t) = integral_t^inf ({u}-1/2) u^(-s-1) du for one s, cached per process.

    Ladder values at integer anchors and the exact unit-piece cumulative sums
    from small integers up to the base anchor are memoized, so a sweep over
    many t costs one partial piece per evaluation.
    """

    def __init__(self, s: ComplexParam, prec: int):
        s.require_sigma_gt(-1.0, "fractional-part tail integral")
        self.s = s
        self.prec = prec
        self.base_anchor = max(8, math.ceil(2 * s.abs()))
        self._ladders: dict[int, tuple] = {}
        self._cum: dict[int, tuple] = {}  # n -> (integral over [n, base_anchor], abs scale)

    # exact integral of ({u}-1/2) u^(-s-1) over [a, b] within one unit cell [n, n+1]
    def _piece(self, n: int, a, b):
        sm = self.s.as_mpc()
        # (u - n - 1/2) u^(-s-1) = u^(-s) - (n + 1/2) u^(-s-1)
        c = n + mpf(1) / 2
        if self.s.sigma == 1.0 and self.s.tau == 0.0:
            fa = mpmath.log(a) + c * mpmath.power(a, -1)
            fb = mpmath.log(b) + c * mpmath.power(b, -1)
        elif self.s.sigma == 0.0 and self.s.tau == 0.0:
            fa = a - c * mpmath.log(a)
            fb = b - c * mpmath.log(b)
        else:
            fa = mpmath.power(a, 1 - sm) / (1 - sm) + c * mpmath.power(a, -sm) / sm
            fb = mpmath.power(b, 1 - sm) / (1 - sm) + c * mpmath.power(b, -sm) / sm
        scale = float(mpmath.fabs(fa)) + float(mpmath.fabs(fb))
        return fb - fa, scale

    def _units(self, a: int, b: int):
        """(the unit pieces over [a, b], the sum of their abs scales)."""
        with mpmath.mp.workprec(self.prec + _GUARD):
            total, scale = (mpc(0) if self.s.tau else mpf(0)), 0.0
            for n in range(a, b):
                v, sc = self._piece(n, mpf(n), mpf(n + 1))
                total += v
                scale += sc
        return total, scale

    def _ladder(self, T: int, target: float):
        """(J(T), remainder <= target, the scale of the unit pieces from T to
        the ladder's start); a cached ladder at T serves any target it meets."""
        hit = self._ladders.get(T)
        if hit is not None and hit[1] <= target:
            return hit
        anchor = T
        while True:
            segs, scale = self._units(T, anchor)
            with mpmath.mp.workprec(self.prec + _GUARD):
                J, rem = bernoulli_ladder_tail(self.s, anchor, target)
                J = segs + J
            if rem <= target:
                break
            anchor *= 2
            if anchor > 1 << 16:
                raise PrecisionError(
                    f"tail integral at s={self.s} cannot reach radius {target}")
        self._ladders[T] = result = (J, rem, scale)
        return result

    def _cum_to_anchor(self, n: int):
        """The unit pieces over [n, base_anchor] and their scale, cached per n."""
        if n not in self._cum:
            self._cum[n] = self._units(n, self.base_anchor)
        return self._cum[n]

    def eval(self, t: float, target_radius: float) -> ApproxValue:
        """J(t) = the partial piece [t, ceil t] + the unit pieces up to the
        base anchor (none above it) + the ladder from max(ceil t, base anchor)."""
        if t < 1:
            raise DomainError(f"t must be >= 1, got {t}")
        K = math.floor(t)
        frac = t - K
        eps = eps_for(self.prec)
        with mpmath.mp.workprec(self.prec + _GUARD):
            ceil_t = K if frac == 0.0 else K + 1
            head, scale = ((mpc(0) if self.s.tau else mpf(0)), 0.0)
            if frac != 0.0:
                head, scale = self._piece(K, mpf(t), mpf(ceil_t))
            cum, sc2 = self._cum_to_anchor(ceil_t)
            ladder, rem, sc3 = self._ladder(max(ceil_t, self.base_anchor), target_radius)
            J = head + cum + ladder
            radius = radd(rem, eps * 16 * (scale + sc2 + sc3 + float(mpmath.fabs(J))))
            return ApproxValue(+J, radius, RIGOROUS, self.prec)


@lru_cache(maxsize=64)
def frac_tail_evaluator(sigma: float, tau: float, prec: int) -> FracTailEvaluator:
    return FracTailEvaluator(ComplexParam(sigma, tau), prec)


def frac_tail_integral(s, t: float, target_radius: float = ZETA_RADIUS,
                       precision: int = PRECISION) -> ApproxValue:
    sp = ComplexParam.coerce(s)
    return frac_tail_evaluator(sp.sigma, sp.tau, precision).eval(t, target_radius)


def kernel_eval(spec: KernelSpec, t: float, target_radius: float = 1e-30,
                precision: int = PRECISION, left_limit: bool = False) -> ApproxValue:
    """Kernel value by the definitional formula, not the cell form, with the
    domain, zeta(s) and P_K a `CellKernel` reads; radius combining the zeta
    radius and summation rounding.  zeta is read at the caller's radius / 4:
    em-cross picks each cell's worst t by residual - radius."""
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    spec.s.require_not_one("kernel")
    spec.s.require_sigma_gt(-1.0, "kernel")
    zeta_val, _ = zeta_em(spec.s, target_radius / 4, precision=precision, want_derivative=False)
    table = power_prefix_table(spec.s.sigma, spec.s.tau, precision)
    eps = eps_for(precision)
    K = math.floor(t)
    frac = t - K
    if left_limit and frac == 0.0:  # the left limit at integer t: K = t - 1, {t} -> 1
        if K < 2:
            raise DomainError("left limit needs t > 1")
        K, frac = K - 1, 1.0
    with mpmath.mp.workprec(precision + _GUARD):
        sm = spec.s.as_mpc()
        tm = mpf(t)
        ts = mpmath.power(tm, sm)
        PK = table.value(K)
        q_part = (sm - 1) * ts * (zeta_val.value - PK) - tm
        ts_abs = float(mpmath.fabs(ts))
        sm1_abs = abs(complex(sm - 1))
        data_rad = sm1_abs * ts_abs * (zeta_val.radius + table.radius(K))
        round_scale = (sm1_abs * ts_abs * (float(mpmath.fabs(zeta_val.value)) + float(mpmath.fabs(PK)))
                       + t + float(mpmath.fabs(q_part)))
        if spec.variant == Q:
            val = q_part
        elif spec.variant == LITTLE_Q:
            val = (sm - 1) * q_part
            data_rad *= sm1_abs
            round_scale *= sm1_abs
        else:  # R
            val = q_part - (sm - 1) * (mpf(frac) - mpf(1) / 2)
            round_scale += sm1_abs
        radius = radd(data_rad, eps * 16 * round_scale)
        return ApproxValue(+val, radius, RIGOROUS, precision)


def kernel_eval_em(spec: KernelSpec, t: float, target_radius: float = 1e-30,
                   precision: int = PRECISION) -> ApproxValue:
    """Kernel value by the Euler-Maclaurin form (fractional-part tail integral);
    zeta never enters; J at the caller's radius, as `kernel_eval` says."""
    s = spec.s
    s.require_not_one("kernels")
    s.require_sigma_gt(-1.0, "kernel_eval_em")
    eps = eps_for(precision)
    frac = t - math.floor(t)
    prefactor_abs = s.abs() * math.hypot(s.sigma - 1.0, s.tau) * t ** s.sigma
    J = frac_tail_integral(s, t, target_radius / max(prefactor_abs, 1.0), precision=precision)
    with mpmath.mp.workprec(precision + _GUARD):
        sm = s.as_mpc()
        tm = mpf(t)
        ts = mpmath.power(tm, sm)
        tail_term = ts * (sm - 1) * sm * J.value
        r_val = -tail_term
        tail_rad = prefactor_abs * J.radius
        if spec.variant == R:
            val = r_val
        elif spec.variant == Q:
            val = (sm - 1) * (mpf(frac) - mpf(1) / 2) + r_val
        else:
            val = (sm - 1) * ((sm - 1) * (mpf(frac) - mpf(1) / 2) + r_val)
            tail_rad *= abs(complex(sm - 1))
        scale = prefactor_abs * float(mpmath.fabs(J.value)) + float(mpmath.fabs(val)) + abs(complex(sm - 1))
        return ApproxValue(+val, radd(tail_rad, eps * 16 * scale), RIGOROUS, precision)


# ---------------------------------------------------------------------------
# Closed-form bounds.  Pure arithmetic, no radius.
# ---------------------------------------------------------------------------

SUP_Q = "sup_Q"
MID_Q = "mid_Q"
IBP_R = "ibp_R"
REAL_R = "real_R"


def kernel_bound(s, form: str, t: float | None = None) -> float:
    """Closed-form bounds: sup_Q >= |Q_s| on [1, inf) (sigma > 0); mid_Q >=
    |R_s| uniformly (sigma > 0); ibp_R >= |R_s(t)| with 1/t decay
    (sigma > -1); real_R the sharper real-s variant (sigma > -1)."""
    sp = ComplexParam.coerce(s)
    sigma = sp.sigma
    s_abs = sp.abs()
    s1_abs = math.hypot(sigma - 1.0, sp.tau)
    if form == SUP_Q:
        sp.require_sigma_gt(0.0, "sup_Q bound")
        return s_abs * s1_abs / abs(sigma)
    if form == MID_Q:
        sp.require_sigma_gt(0.0, "mid_Q bound")
        return 0.5 * s_abs * s1_abs / abs(sigma)
    if t is None or t < 1:
        raise DomainError(f"{form} bound needs t >= 1")
    if form == IBP_R:
        sp.require_sigma_gt(-1.0, "ibp_R bound")
        sp1_abs = math.hypot(sigma + 1.0, sp.tau)
        return (sp1_abs / abs(sigma + 1.0)) * s_abs * s1_abs / 6.0 / t
    if form == REAL_R:
        if not sp.is_real:
            raise DomainError("real_R bound requires real s")
        sp.require_sigma_gt(-1.0, "real_R bound")
        return abs(sigma) * abs(sigma - 1.0) / (8.0 * t)
    raise DomainError(f"unknown bound form {form!r}")


def hel_remainder_bound(s, t: float) -> float:
    """(5/6)/t^sigma bound on |zeta(s) - sum_{n<=t} n^(-s) - t^(1-s)/(s-1)|,
    valid for t >= |Im s|, 0 < Re s <= 1, s != 1."""
    sp = ComplexParam.coerce(s)
    if not (0.0 < sp.sigma <= 1.0):
        raise DomainError("truncation bound requires 0 < Re(s) <= 1")
    sp.require_not_one("truncation bound")
    if t < abs(sp.tau):
        raise DomainError(f"truncation bound requires t >= |Im s| = {abs(sp.tau)}")
    return (5.0 / 6.0) / t ** sp.sigma


def hel_sup_abs_Q(s) -> float:
    """(5/6)|s-1|, a sup bound for |Q_s(t)| on [max(1,|Im s|), inf) derived
    from the truncation bound: Q = (s-1) t^s (zeta - P - t^(1-s)/(s-1))."""
    sp = ComplexParam.coerce(s)
    if not (0.0 < sp.sigma <= 1.0):
        raise DomainError("truncation-derived sup requires 0 < Re(s) <= 1")
    sp.require_not_one("truncation-derived sup")
    return (5.0 / 6.0) * math.hypot(sp.sigma - 1.0, sp.tau)
