"""The one engine for the mp lane's Dirichlet sums sum_{n<=K} w(n) n^-s log^i n,
w = mu or 1, with a counted error radius.

Fixed point.  An int a stands for a u, u = 2^-W.  Along the smallest-prime-
factor chain n = p m, p = spf(n), log n = log p + log m and n^-s = p^-s m^-s,
so transcendentals run at primes only: log p is mpmath's log_int_fixed, and
p^-s = exp(-sigma log p) (cos(tau log p) - i sin(tau log p)) comes from
exp_fixed and cos_sin_fixed at W + g bits, floored to W (for an integer s,
p^-s = floor(2^W / p^s) needs none).  Complex values are pairs of ints.  A
term n^-s log^i n takes i more products with log n and mu(n) flips its sign;
sums of ints are exact and an int becomes an mpf exactly (from_man_exp), so
every error sits in the terms.

Error count, in units u, with B_n = n^max(0, -sigma) >= |n^-s| and
lam_n = max(1, log n):
- at a prime, p^-s is off by at most C_PRIME B_p and log p by C_LOG: the g =
  32 + bits(|s| log p) extra bits keep mpmath's few-ulp errors, grown |s|-fold
  through the argument, far below one unit, and the floor adds less than one;
- a product of a~ = a - da and b~ = b - db floors once (below 1 per part, 2
  for a complex product) and is off by |a~ db + b~ da + da db| <= |a| eb +
  |b| ea + 2 ea eb u, where ea eb u < 1/2 while errors stay far below
  2^(W/2): each product adds C_MUL = 3 to |a| eb + |b| ea;
- by induction along the chain, log n is off by at most Omega(n) C_LOG (its
  sums are exact), n^-s by Omega(n) (C_PRIME + C_MUL) B_n, and n^-s log^i n
  by (Omega(n) a_i + i C_MUL) B_n lam_n^i, a_i = C_PRIME + C_MUL + i C_LOG,
  as |log n| <= lam_n and B, lam >= 1;
- B and lam do not decrease, so the prefix through K is off by at most
  (a_i sum_{n<=K} |w(n)| Omega(n) + i C_MUL sum_{n<=K} |w(n)|) B_K lam_K^i u,
  which `radius` returns, Omega counted along the chain.

A table holds at most CAP = 2^24 terms, above zeta_em's largest head (8e6
terms) and the 1e7 partition cap; `extend` past it raises CapacityError.
W = prec + GUARD + h with h = ceil(max(0, -sigma) log2 CAP) headroom bits
makes B_n u <= 2^-(prec + GUARD) for all n <= CAP, so every term is off by at
most (Omega(n) a_i + i C_MUL) lam_n^i 2^-(prec + GUARD), for sigma < 0 too
(poids-bound runs at sigma = -0.5).  With GUARD = 64 a sum's radius is its
count times 2^-(prec + 64), against the 8 eps(prec) sum |terms| =
2^-(prec - 4) sum |terms| that per-term mpmath loops claim.  W is fixed when
the table is made, so a value read before the table grows has the same bits
as the one read after.
"""

from __future__ import annotations

import math
from itertools import accumulate
from math import isqrt

import mpmath
import numpy as np
from mpmath.libmp import from_man_exp
from mpmath.libmp.libelefun import cos_sin_fixed, exp_fixed, ln2_fixed, log_int_fixed, pi_fixed

from .approx import ApproxValue, RIGOROUS, radd
from .errors import CapacityError
from .sieve import base_primes, nonzero_mu

GUARD = 64
CAP = 1 << 24
C_PRIME = 2
C_LOG = 2
C_MUL = 3
_EXTRA = 32  # g less the bits of |s| log p


def exact_ratio(v) -> tuple[int, int]:
    """v as (numerator, denominator), exactly: an int, float, Fraction or mpf."""
    if hasattr(v, "as_integer_ratio"):
        return v.as_integer_ratio()
    sign, man, exp, _ = (v if type(v) is mpmath.mpf else mpmath.mpf(v))._mpf_  # no rounding
    man = -man if sign else man
    return (man << exp, 1) if exp >= 0 else (man, 1 << -exp)


def powers_fixed(logs: list[int], e: tuple, wp: int, g: int) -> list[tuple]:
    """x^e = exp(Re e log x) (cos + i sin)(Im e log x) for each fixed-point
    log x at wp bits, floored to wp - g bits: (re,) for a real e, else (re,
    im).  e = ((num, den), (tnum, tden)) holds Re e and Im e as exact ratios;
    each argument is floored to wp bits before exp_fixed and cos_sin_fixed."""
    (num, den), (tnum, tden) = e
    ln2 = ln2_fixed(wp)
    mags = [exp_fixed(num * lp // den, wp, ln2) for lp in logs]
    if tnum == 0:
        return [(mag >> g,) for mag in mags]
    pi2 = pi_fixed(wp - 1)
    cs = [cos_sin_fixed(tnum * lp // tden, wp, pi2) for lp in logs]
    return [((mag * c) >> (wp + g), (mag * s) >> (wp + g)) for mag, (c, s) in zip(mags, cs)]


def log_fixed(u: int, v: int, wp: int, anchors: dict) -> int:
    """log(u/v) at wp >= 64 bits for u/v >= 1, off by < 2 units (counted in
    the `quadrature` docstring): log A + 2 atanh z with A = floor(u/v) and z
    = (u - A v)/(u + A v) <= 1/3, summed at wp + bits(wp) bits and floored
    once.  log A is log_int_fixed's, made once per (A, bits) in `anchors`."""
    A, G = u // v, wp.bit_length()
    P = wp + G
    la = anchors.get((A, P))
    if la is None:
        la = anchors[A, P] = log_int_fixed(A, P)
    n, d = u - A * v, u + A * v
    z2 = ((n * n) << P) // (d * d)
    p, k = (n << (P + 1)) // d, 1
    while p:
        la += p // k
        p, k = (p * z2) >> P, k + 2
    return la >> G


def fixed_to_float(n: int, S: int) -> float:
    """n 2^-S correctly rounded to a float (inf past the float range, as
    mpmath's float() gives)."""
    sh = n.bit_length() - 1000  # float() of an int below 2^1000 rounds correctly
    if sh > 0:
        a = abs(n)
        a = (a >> sh) | (1 if a & ((1 << sh) - 1) else 0)  # a sticky bit keeps the rounding
        n = -a if n < 0 else a
    try:
        return math.ldexp(float(n), max(sh, 0) - S)
    except OverflowError:
        return -math.inf if n < 0 else math.inf


def fixed_magnitude(re: int, im: int | None, S: int) -> float:
    """|re + i im| 2^-S as the float abs(complex(.)) of its rounded parts."""
    if im is None:
        return abs(fixed_to_float(re, S))
    return abs(complex(fixed_to_float(re, S), fixed_to_float(im, S)))


def fixed_abs(re: int, im: int, S: int) -> float:
    """|re + i im| 2^-S, correctly rounded to a float."""
    n = re * re + im * im
    sh = max(0, 112 - n.bit_length()) // 2  # a root of at least 56 bits
    n <<= 2 * sh
    r = isqrt(n)
    return fixed_to_float(2 * r + (r * r != n), S + sh + 1)  # a sticky bit keeps the rounding


def fixed_to_mp(re: int, im: int | None, S: int, prec: int):
    """re (+ i im) times 2^-S as an mpf or mpc, rounded once to prec bits."""
    r = from_man_exp(re, -S, prec, "n")
    if im is None:
        return mpmath.mp.make_mpf(r)
    return mpmath.mp.make_mpc((r, from_man_exp(im, -S, prec, "n")))


def fixed_to_mp_exact(re: int, im: int | None, S: int):
    """re (+ i im) times 2^-S as an mpf or mpc, exactly."""
    if im is None:
        return mpmath.mp.make_mpf(from_man_exp(re, -S))
    return mpmath.mp.make_mpc((from_man_exp(re, -S), from_man_exp(im, -S)))


def smallest_prime_factors(N: int) -> list[int]:
    """spf(n) for n = 0..N, with spf(0) = 0 and spf(1) = 1."""
    spf = np.zeros(N + 1, dtype=np.int64)
    for p in base_primes(isqrt(N)).tolist():
        block = spf[p * p::p]
        block[block == 0] = p
    unset = spf == 0
    spf[unset] = np.flatnonzero(unset)
    return spf.tolist()


class DirichletTable:
    """n^-s, and log n when `logs`, for n = 1..N at W bits, grown on demand.

    Terms, sums and prefixes of w(n) n^-s log^i n read it (i = 0 only
    without logs); `value` and `radius` with their defaults make it the
    prefix table P_K = sum_{k<=K} k^-s.  sigma and tau may be any exact
    reals (an mpf exponent need not be a double).  `W` sets the fixed-point
    bits directly, for callers that count their own error; the per-term
    bounds above hold for any W.  Not thread-safe: a table belongs to one
    caller or to one process's cache.
    """

    def __init__(self, sigma, tau, prec: int, logs: bool = False, W: int | None = None):
        self.sigma, self.tau, self.prec, self.logs = float(sigma), float(tau), prec, logs
        self._s = exact_ratio(sigma), exact_ratio(tau)
        if W is None:
            W = prec + GUARD + math.ceil(max(0.0, -self.sigma) * math.log2(CAP))
        self.W = W
        self.N, self.om, self.log = 1, [0, 0], [0, 0]
        self.parts = [[0, 1 << self.W]] + ([[0, 0]] if self._s[1][0] else [])
        self._mu, self._prefix, self._cum = [0], None, {}

    def extend(self, N: int) -> None:
        """Grow the table through N."""
        if N <= self.N:
            return
        if N > CAP:
            raise CapacityError(f"a Dirichlet table holds at most {CAP} terms, not {N}")
        self._prefix, self._cum = None, {}
        W = self.W
        spf = smallest_prime_factors(N)
        lo, om, log = self.N + 1, self.om, self.log
        at_primes = iter(self._at_primes([n for n in range(lo, N + 1) if spf[n] == n]))
        re, im = self.parts[0], (self.parts[1] if len(self.parts) > 1 else None)
        for n in range(lo, N + 1):
            p = spf[n]
            if p == n:
                lp, *vals = next(at_primes)
                for part, v in zip(self.parts, vals):
                    part.append(v)
                log.append(lp)
                om.append(1)
                continue
            m = n // p
            if im is None:
                re.append((re[p] * re[m]) >> W)
            else:
                a, b, c, d = re[p], im[p], re[m], im[m]
                re.append((a * c - b * d) >> W)
                im.append((a * d + b * c) >> W)
            log.append(log[p] + log[m])
            om.append(om[m] + 1)
        self.N = N

    def _at_primes(self, primes: list[int]) -> list[tuple]:
        """(log p, or 0 without logs, Re p^-s[, Im p^-s]) at each prime, at W bits."""
        W, sigma, tau = self.W, self.sigma, self.tau
        (num, den), (tnum, tden) = self._s
        integer = tnum == 0 and den == 1
        if integer:
            k = num
            powers = [(1 << W) // p ** k if k > 0 else p ** -k << W for p in primes]
            if not self.logs:
                return [(0, v) for v in powers]
        g = _EXTRA + math.ceil(math.hypot(sigma, tau) * math.log(max(primes, default=2))
                               + 1).bit_length()
        wp = W + g
        logs = [log_int_fixed(p, wp) for p in primes]
        out = [lp >> g if self.logs else 0 for lp in logs]
        if integer:
            return list(zip(out, powers))
        return [(lp, *v) for lp, v in zip(out, powers_fixed(logs, ((-num, den), (-tnum, tden)),
                                                            wp, g))]

    def mu(self, N: int) -> list[int]:
        """mu(n) for n = 0..N (0 at n = 0), from sieve.nonzero_mu."""
        if len(self._mu) <= N:
            self._mu = [0] * (N + 1)
            for n, v in nonzero_mu(N):
                self._mu[n] = v
        return self._mu[:N + 1]

    def terms(self, N: int, i: int = 0, mu: bool = False) -> list[list[int]]:
        """[Re] or [Re, Im] of w(n) n^-s log^i n for n = 0..N, in units u."""
        if i and not self.logs:
            raise ValueError("this table carries no logs")
        self.extend(N)
        W = self.W
        parts = [part[:N + 1] for part in self.parts]
        for _ in range(i):
            parts = [[(t * l) >> W for t, l in zip(part, self.log)] for part in parts]
        if mu:
            w = self.mu(N)
            parts = [[t * v for t, v in zip(part, w)] for part in parts]
        return parts

    def to_mp(self, re: int, im: int | None = None):
        """The fixed-point value re (+ i im) as an mpf or mpc, exactly."""
        return fixed_to_mp_exact(re, im, self.W)

    def values(self, N: int, i: int = 0, mu: bool = False, cumulative: bool = False) -> list:
        """The terms w(n) n^-s log^i n for n = 0..N, or with `cumulative` the
        prefix sums through K = 0..N, as exact mpf or mpc values."""
        parts = self.terms(N, i, mu)
        if cumulative:
            parts = [accumulate(part) for part in parts]
        return [self.to_mp(*z) for z in zip(*parts)]

    def total(self, N: int, i: int = 0, mu: bool = False) -> ApproxValue:
        """sum_{n<=N} w(n) n^-s log^i n, exact in W bits, with its counted
        radius, as an ApproxValue at the table's prec."""
        value = self.to_mp(*(sum(part) for part in self.terms(N, i, mu)))
        return ApproxValue(value, radd(self.radius(N, i, mu)), RIGOROUS, self.prec)

    def value(self, K: int):
        """sum_{n<=K} n^-s, grown by doubling and turned into an mpf when read."""
        return self.to_mp(*self.prefix(K))

    def prefix(self, K: int) -> tuple[int, ...]:
        """(Re,) or (Re, Im) of sum_{n<=K} n^-s in units u, grown by doubling."""
        if K > self.N:
            self.extend(max(K, min(2 * self.N, CAP)))
        if self._prefix is None:
            self._prefix = [list(accumulate(part)) for part in self.terms(self.N)]
        return tuple(part[K] for part in self._prefix)

    def radius(self, K: int, i: int = 0, mu: bool = False) -> float:
        """The counted error of the prefix through K, as a float upper bound."""
        self.extend(K)
        if K < 1:
            return 0.0
        if mu not in self._cum:
            w = np.ones(self.N + 1, dtype=np.int64)
            if mu:
                w = np.abs(np.asarray(self.mu(self.N), dtype=np.int64))
            w[0] = 0
            self._cum[mu] = (np.cumsum(np.asarray(self.om) * w), np.cumsum(w))
        omegas, count = self._cum[mu]
        units = (C_PRIME + C_MUL + i * C_LOG) * int(omegas[K]) + i * C_MUL * int(count[K])
        bound = units * float(K) ** max(0.0, -self.sigma) * max(1.0, math.log(K)) ** i
        # 2^-30 covers the float rounding of the bound
        return math.ldexp(bound, -self.W) * (1.0 + 2.0**-30)
