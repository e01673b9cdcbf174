"""Euler-Maclaurin evaluation of zeta(s), zeta'(s) and truncated power sums,
valid for Re(s) > -1, with rigorous remainder radii.

Everything rests on one Bernoulli ladder: repeated integration by parts of

    J(T) = integral_T^infinity ({u} - 1/2) u^(-s-1) du      (T integer)

through the periodic Bernoulli antiderivatives A_j = B~_j({u})/j!, whose
values at integers are B_j/j! and whose sup is bounded by 2 zeta(j)/(2pi)^j.
The remainder after K levels is bounded explicitly, so the radius is a
computed quantity, not an estimate.  zeta(s) is then

    sum_{n<=N} n^(-s) + N^(1-s)/(s-1) - N^(-s)/2 - s J(N)

and zeta'(s) is the termwise s-derivative of the same expansion, with its own
remainder bound (the ladder also returns dJ/ds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import mpmath
from mpmath import mpf, mpc

from .approx import PRECISION, ApproxValue, RIGOROUS, eps_for, radd
from .dsum import DirichletTable
from .errors import DomainError, PrecisionError

_GUARD = 48


@dataclass(frozen=True)
class ComplexParam:
    """s = sigma + i tau together with the half-plane guards operations need."""

    sigma: float
    tau: float = 0.0

    @classmethod
    def coerce(cls, s) -> "ComplexParam":
        if isinstance(s, ComplexParam):
            return s
        if isinstance(s, (int, float, mpf)):
            return cls(float(s), 0.0)
        if isinstance(s, (complex, mpc)):
            return cls(float(s.real), float(s.imag))
        raise TypeError(f"cannot interpret {s!r} as a complex parameter")

    def as_mpc(self):
        if self.tau == 0.0:
            return mpf(self.sigma)
        return mpc(self.sigma, self.tau)

    @property
    def is_real(self) -> bool:
        return self.tau == 0.0

    def require_sigma_gt(self, bound: float, what: str) -> None:
        if not self.sigma > bound:
            raise DomainError(f"{what} requires Re(s) > {bound}, got {self.sigma}")

    def require_not_one(self, what: str) -> None:
        if self.is_real and self.sigma == 1.0:
            raise DomainError(f"{what} is undefined at s = 1")

    def abs(self) -> float:
        return math.hypot(self.sigma, self.tau)

    def __str__(self):
        return f"{self.sigma}{self.tau:+}i" if self.tau else f"{self.sigma}"


def _max_periodic_bernoulli(k: int) -> float:
    # sup |B~_k({u})| / k!  <=  2 zeta(k) / (2 pi)^k  (k >= 2); zeta(k) <= 1.645
    return 2.0 * 1.645 / (2.0 * math.pi) ** k


#: the most Bernoulli levels a ladder consumes
_LADDER_LEVELS = 64


def _ladder_remainder(sigma: float, T: int, K: int, ap: float, dsum_abs: float,
                      logT: float) -> tuple[float, float]:
    """The ladder's remainder bounds for J and dJ/ds after K - 1 levels, from
    ap = |prod_{i<K} (s + i)| and dsum_abs = sum_{i<K} 1/|s + i|."""
    scale = _max_periodic_bernoulli(K) * float(T) ** (-(sigma + K - 1)) / (sigma + K - 1)
    r = ap * scale
    return r, r * (dsum_abs + logT + 1.0 / (sigma + K - 1))


def bernoulli_ladder_tail(s: ComplexParam, T: int, target: float,
                          want_derivative: bool = False):
    """J(T) = integral_T^inf ({u}-1/2) u^(-s-1) du at integer T >= 1.

    Returns (J, J_radius) or (J, J_radius, dJ/ds, dJds_radius).
    Radii include the truncation remainder; rounding at the working precision
    is folded in by the caller's accounting (values returned at workprec).
    """
    sm = s.as_mpc()
    sigma = s.sigma
    logT = mpmath.log(T)
    Tms = mpmath.power(T, -sm)  # T^{-s}
    J = mpmath.mpf(0) if s.is_real else mpc(0)
    Jp = J
    prod = mpmath.mpf(1) if s.is_real else mpc(1)   # prod_{i=1}^{j-1} (s+i)
    prod_dsum = mpmath.mpf(0) if s.is_real else mpc(0)  # sum 1/(s+i), for d/ds
    dsum_abs = 0.0                                   # sum 1/|s+i|
    Tpow = Tms / T                                   # T^{-s-j} at j = 1
    rem = None
    rem_p = None
    levels = 0
    for j in range(1, _LADDER_LEVELS + 1):
        # remainder if we stopped before consuming level j (K = j):
        if j >= 3:
            rem, rem_p = _ladder_remainder(sigma, T, j, float(mpmath.fabs(prod)), dsum_abs,
                                           float(logT))
            if rem <= target and levels >= 2:
                break
        b = mpmath.bernoulli(j + 1)
        if b != 0:
            coeff = -(b / mpmath.factorial(j + 1)) * prod
            J += coeff * Tpow
            if want_derivative:
                Jp += coeff * Tpow * (prod_dsum - logT)
            levels += 1
        prod *= sm + j
        prod_dsum += 1 / (sm + j)
        dsum_abs += 1.0 / abs(complex(sm + j))
        Tpow /= T
    else:
        rem, rem_p = _ladder_remainder(sigma, T, _LADDER_LEVELS + 1, float(mpmath.fabs(prod)),
                                       dsum_abs, float(logT))
    if want_derivative:
        return J, rem, Jp, rem_p
    return J, rem


_zeta_cache: dict = {}  # per process: every worker of a suite fills its own
#: the relative margin by which _ladder_falls_short's float64 replay must clear
#: every comparison of the ladder and of zeta_em before it decides
_SHORT_MARGIN = 1e-6


def _ladder_falls_short(s: ComplexParam, N: int, target_radius: float,
                        want_derivative: bool) -> bool:
    """True when the Bernoulli ladder at cutoff N surely leaves zeta_em's
    remainder above target_radius / 2, so zeta_em can double N untried.

    It replays bernoulli_ladder_tail's stopping rule in float64 with the same
    _ladder_remainder, fed |prod| as a float product instead of the rounded
    mp one and log N from math.log, so each bound is off by far less than
    _SHORT_MARGIN.  Any comparison within that margin of its threshold makes
    it answer False, and the mpmath ladder decides."""
    sigma, s_abs = s.sigma, s.abs()
    lo, hi = 1.0 - _SHORT_MARGIN, 1.0 + _SHORT_MARGIN
    target = target_radius / (16 * s_abs + 16)
    logT = math.log(N)
    prod = 1.0  # |prod_{i<j} (s + i)|
    dsum_abs = 0.0
    levels = 0
    for j in range(1, _LADDER_LEVELS + 2):
        if j >= 3:
            rem, rem_p = _ladder_remainder(sigma, N, j, prod, dsum_abs, logT)
            if j > _LADDER_LEVELS or (levels >= 2 and rem <= target * lo):
                break
            if levels >= 2 and rem <= target * hi:
                return False
        levels += j % 2  # B_{j+1} != 0 for odd j
        prod *= abs(complex(sigma + j, s.tau))
        dsum_abs += 1.0 / abs(complex(sigma + j, s.tau))
    if not math.isfinite(rem_p):
        return False
    half = target_radius / 2 * hi
    return s_abs * rem > half or (want_derivative and rem + s_abs * rem_p > half)


def zeta_em(s, target_radius: float = 1e-30, precision: int = PRECISION,
            want_derivative: bool = True):
    """(zeta(s), zeta'(s)) as ApproxValues with rigorous radii <= target_radius.

    Valid for Re(s) > -1, s != 1.  The cutoff N and the Bernoulli order are
    chosen adaptively; a PrecisionError is raised if the target cannot be met
    at the configured precision.  A cutoff whose ladder surely falls short
    (_ladder_falls_short) is doubled without running it.
    """
    sp = ComplexParam.coerce(s)
    sp.require_sigma_gt(-1.0, "zeta_em")
    sp.require_not_one("zeta_em (pole)")
    if target_radius <= 0:
        raise DomainError("target_radius must be positive")
    key = (sp.sigma, sp.tau, target_radius, precision, want_derivative)
    hit = _zeta_cache.get(key)
    if hit is not None:
        return hit
    N = max(10, int(2 * abs(sp.tau)) + 1, int(abs(sp.sigma)) + 2)
    workprec = precision + _GUARD
    max_workprec = precision + _GUARD + 768
    while True:
        with mpmath.mp.workprec(workprec):
            short = _ladder_falls_short(sp, N, target_radius, want_derivative)
            if not short:
                sm = sp.as_mpc()
                J, Jrem, Jp, Jprem = bernoulli_ladder_tail(
                    sp, N, target_radius / (16 * sp.abs() + 16), want_derivative=True)
                zrem = sp.abs() * Jrem
                zprem = Jrem + sp.abs() * Jprem
            if short or zrem > target_radius / 2 or (want_derivative
                                                     and zprem > target_radius / 2):
                if N > 4_000_000:
                    raise PrecisionError(
                        f"zeta_em cannot reach radius {target_radius} at s={sp} (N={N})")
                N *= 2
                continue
            # the head sums come exact in W bits with a counted radius, so
            # rounding is left only in the terms below
            head = DirichletTable(sp.sigma, sp.tau, workprec, logs=want_derivative)
            psum = head.total(N)
            logN = mpmath.log(N)
            Npow1 = mpmath.power(N, 1 - sm)   # N^{1-s}
            NpowS = mpmath.power(N, -sm)      # N^{-s}
            z = psum.value + Npow1 / (sm - 1) - NpowS / 2 - sm * J
            scale = (psum.abs_value() + float(mpmath.fabs(Npow1 / (sm - 1)))
                     + float(mpmath.fabs(NpowS))
                     + sp.abs() * float(mpmath.fabs(J)) + float(mpmath.fabs(z)))
            # the rounding claim uses 40 fewer bits than were actually carried,
            # an ample cover for the operations at work precision
            eps_claim = eps_for(workprec - 40)
            z_rad = radd(zrem, eps_claim * 16 * scale, psum.radius)
            if want_derivative:
                psum_log = head.total(N, 1)
                zp = (-psum_log.value
                      - Npow1 * logN / (sm - 1) - Npow1 / (sm - 1) ** 2
                      + logN / 2 * NpowS
                      - J - sm * Jp)
                scale_p = (psum_log.abs_value() + float(mpmath.fabs(Npow1 * logN / (sm - 1)))
                           + float(mpmath.fabs(Npow1 / (sm - 1) ** 2))
                           + float(mpmath.fabs(logN * NpowS))
                           + float(mpmath.fabs(J)) + sp.abs() * float(mpmath.fabs(Jp))
                           + float(mpmath.fabs(zp)))
                zp_rad = radd(zprem, eps_claim * 16 * scale_p, psum_log.radius)
            else:
                zp, zp_rad, scale_p = None, 0.0, 0.0
            if z_rad > target_radius or (want_derivative and zp_rad > target_radius):
                # rounding-dominated: raise the working precision
                need = max(scale, scale_p, 1.0)
                bits = math.ceil(math.log2(need * 32 / target_radius)) + 48
                workprec = max(workprec + 64, bits)
                if workprec > max_workprec:
                    raise PrecisionError(
                        f"target radius {target_radius} at s={sp} needs more than "
                        f"{max_workprec} working bits")
                continue
            zeta_val = ApproxValue(+z, z_rad, RIGOROUS, precision)
            zeta_prime = (ApproxValue(+zp, zp_rad, RIGOROUS, precision)
                          if want_derivative else None)
            break
    result = (zeta_val, zeta_prime)
    if len(_zeta_cache) > 4096:
        _zeta_cache.clear()
    _zeta_cache[key] = result
    return result


def partial_power_sum(s, t: float, precision: int = PRECISION) -> ApproxValue:
    """sum_{k <= t} k^(-s) with its counted radius (a reader of
    power_prefix_table)."""
    sp = ComplexParam.coerce(s)
    if t < 1:
        raise DomainError(f"t must be >= 1, got {t}")
    K = math.floor(t)
    table = power_prefix_table(sp.sigma, sp.tau, precision)
    value = table.value(K)
    return ApproxValue(value, radd(table.radius(K)), RIGOROUS, table.prec)


@lru_cache(maxsize=64)
def power_prefix_table(sigma: float, tau: float, prec: int) -> DirichletTable:
    """P_K = sum_{k<=K} k^(-s) (`value(K)`, `radius(K)`), grown on demand; a
    per-process cache, read by the kernel and piecewise evaluators of that
    process."""
    return DirichletTable(sigma, tau, prec)
