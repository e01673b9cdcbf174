"""Fixed-point values at a partition's breakpoints, for the piecewise walk.

An int a at scale W stands for a 2^-W; a complex value is an (re, im) pair
of ints, im None when it is real-typed.  This module holds the conversions
of raw mpf parts to ints at a scale, and the tables of log t and t^q at the
breakpoints t = k and t = x/n (k, n <= N = floor(x)) that the walk and the
summatory factors read.  With P the bits asked for, on [1, x] (x <= 2^24),
b1 the least breakpoint above 1, lb a float lower bound of log b1 and lbits
= ceil(log2(1/lb)) (lb < log 2 < 1, `_log_bits`), and per exponent q up =
ceil(max(0, Re q) log2 x) + 1, down = ceil(max(0, -Re q) log2 x) + 1
(`_headroom`):

- log t, at scale WL = P + 22 + lbits (`_Logs`): log k from a
  `DirichletTable` (off by 2 Omega(k) <= 48 units), log x - log n at x/n
  (log x floored once, < 1 unit more), so off by < 2^6 units: relative r_L
  <= 2^(6 - WL) / lb <= 2^-(P+16) at every breakpoint but 1, where log 1 =
  0 exactly.
- t^q, at scale WT = P + 18 + down (`_Powers`): k^q from a table of k^-s,
  s = -q, whose terms are off by <= Omega(k) (C_PRIME + C_MUL) k^max(0, Re q)
  < 2^7 k^max(0, Re q) units (dsum); against |k^q| = k^Re q that is relative
  <= 2^(7 + down - WT) = 2^-(P+11).  At x/n, x^q n^-q: n^-q from a table at
  P + 18 + up bits (relative <= 2^-(P+11) by the same count), x^q from
  mpmath at WT + 8 bits (relative <= 2^-(P+25)), and the product floored to
  WT (< 2 units against |t^q| >= min(1, x^Re q) >= 2^-down: <= 2^-(P+17)).
  An integer q needs no table: k^q, and x^q n^-q as one floor division (< 1
  unit).  So t^q is off by relative r_T <= 2^-(P+10), and exactly 1 at t = 1.

A table fixes its bits when it is built, so one shared through `_shared`
gives every reader the same ints.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mpc, mpf

from .dsum import DirichletTable


def _mp_parts(v) -> tuple:
    """(re, im) raw mpf tuples of v, im None when v is real-typed."""
    t = type(v)
    if t is mpf:
        return v._mpf_, None
    if t is mpc:
        return v._mpc_
    return _mp_parts(mpmath.mpmathify(v))


def _fix(t: tuple, G: int) -> int:
    """The raw mpf t times 2^G, truncated toward zero (exact when G >= -exp)."""
    sign, man, exp, _ = t
    s = exp + G
    v = man << s if s >= 0 else man >> -s
    return -v if sign else v


def _exact_scale(parts) -> int:
    """The least G at which every raw mpf in `parts` (None skipped) is an int."""
    return max((-t[2] for t in parts if t is not None and t[1]), default=0)


def _shift(v: int, s: int) -> int:
    """v * 2^-s, floored: s < 0 shifts left, exactly."""
    return v >> s if s >= 0 else v << -s


def _headroom(q, log2x: float) -> tuple[int, int]:
    """(up, down): x^Re q <= 2^(up - 1) and x^-Re q <= 2^(down - 1) on [1, x]."""
    q_re = float(mpmath.re(q))
    return (math.ceil(max(0.0, q_re) * log2x) + 1,
            math.ceil(max(0.0, -q_re) * log2x) + 1)


def _log_bits(num: int, den: int) -> int:
    """ceil(log2(1 / lb)) for a float lower bound lb of log(num/den) > 0."""
    lb = math.log1p((num - den) / den)
    return max(0, math.ceil(-math.log2(lb * (1 - 2.0**-40))))


class _Logs:
    """log t at scale W for t = k and t = x/n, k, n <= N: each off by < 2^6 units."""

    def __init__(self, x, W: int, N: int):
        self.W = W
        table = DirichletTable(0, 0, 0, logs=True, W=W)
        table.extend(N)
        self.log = table.log
        with mpmath.mp.workprec(W + 30):
            self.LX = int(mpmath.floor(mpmath.ldexp(mpmath.log(mpf(x)), W)))

    def at_inv(self, n: int) -> int:
        return self.LX - self.log[n]


def _shared(tables: dict, cls, *args):
    """cls(*args), built once per argument tuple in `tables`."""
    key = (cls, *args)
    if key not in tables:
        tables[key] = cls(*args)
    return tables[key]


class _Powers:
    """t^q at scale W for t = k and t = x/n, k, n <= N, x = num/den, each off
    by relative <= 2^-(bits + 10): for an integer q one exact floor division
    each, else a table of k^q, and x^q times a table of n^-q."""

    def __init__(self, q, num: int, den: int, bits: int, ints: bool, N: int):
        q = mpmath.mpmathify(q)
        re, im = (q.real, q.imag) if type(q) is mpc else (q, mpf(0))
        up, down = _headroom(q, math.log2(num) - math.log2(den))
        self.W = W = bits + 18 + down
        self.real = im == 0
        self.n = int(re) if self.real and re == int(re) else None
        if self.n is not None:
            self.num, self.den = num, den
            return
        if ints:
            self.A = DirichletTable(-re, -im, 0, W=W)
            self.A.extend(N)
        W_B, W_X = bits + 18 + up, W + 8
        self.B = DirichletTable(re, im, 0, W=W_B)
        self.B.extend(N)
        self.shift = W_X + W_B - W
        with mpmath.mp.workprec(W_X + up + 30):
            v = mpmath.power(mpf(num) / den, q)
            self.X = tuple(int(mpmath.floor(mpmath.ldexp(part(v), W_X)))
                           for part in (mpmath.re, mpmath.im))

    def _ratio(self, a: int, b: int) -> int:
        """(a/b)^n at scale W, floored (exact for b = 1 and n >= 0)."""
        n = self.n
        if n < 0:
            a, b, n = b, a, -n
        return ((a ** n) << self.W) // b ** n

    def at_int(self, k: int) -> tuple:
        if self.n is not None:
            return self._ratio(k, 1), None
        parts = self.A.parts
        return (parts[0][k], None) if self.real else (parts[0][k], parts[1][k])

    def at_inv(self, n: int) -> tuple:
        if self.n is not None:
            return self._ratio(self.num, self.den * n), None
        Xr, Xi = self.X
        br, s = self.B.parts[0][n], self.shift
        if self.real:
            return (Xr * br) >> s, None
        bi = self.B.parts[1][n]
        return (Xr * br - Xi * bi) >> s, (Xr * bi + Xi * br) >> s
