"""Exact closed-form integration over breakpoint partitions.

Integrands here are products of step-indexed "piece factors" that are, on each
piece of the partition, an exact element of the family

    sum over terms of  c * t^p * log(t)^k     (complex c, p; integer k >= 0)

which is closed under products and under antidifferentiation (the p = -1 case
produces pure log powers).  The partition merges the integers <= x with the
points x/n, so floor(t), every truncated power sum in t, and every summatory
value at x/t are constant in structure between consecutive breakpoints: each
piece contributes an antiderivative difference, not a quadrature estimate.
The breakpoints are kept exactly, as k or x/n, and each piece's N = floor(x/t)
and K = floor(t) come from integer comparisons with x as a ratio of ints
(`Partition.pieces`).

Compiled shape: every factor declares its index (N = floor(x/t), K = floor(t),
or none) and a fixed list of (exponent, log degree) slots; only the slot
coefficients change from piece to piece.  So each integrand's shapes are
multiplied out once per call and composed with the antiderivative (a fixed
linear map per (p, j), see `_antiderivative`) into one map from the factors'
slot tuples to the antiderivative's slots t^q log^i t.

Runs (Dirichlet's hyperbola split).  A factor indexed by N holds one vector
while N does, one indexed by K while K does.  The walk cuts [1, x] at k0 =
isqrt(floor x) + 1 into runs, the K-runs [K, K + 1] below k0 and the N-runs
from k0 on, about 2 sqrt(x) in all.  Over a run an integrand's factors of
the run's index (its constant side, vector product C) hold and its other
varying factors (its summed side, product V) change.  Per distinct (summed
factors, compiled shape) the batch keeps one accumulator A = sum over spans
of V (x) (u(b) - u(a)), a span being a stretch of pieces over which V is one
vector (a factor keeps its vector object while the vector is equal), and at
the run's end each integrand adds sum over terms C m A.  With no summed
side, A is u(end) - u(start) over the whole run.  So an integrand pays one
combine per run and an accumulator one span per change of its vectors, not
one product per piece.

Batches: `integrate_partitions` integrates many integrands over [1, x] in one
walk per need_inverse_points flag (integrands with an N-indexed factor need
the points x/n; the rest walk the integers alone, which keeps their slot
scales), and `integrate_partition` is its batch of one.  Integrands of the
same factor objects are evaluated once, and those whose factors have the same
shapes (and constant factors the same values) share one compiled map.  Shared
across the batch, per breakpoint: log t, and t^q per distinct exponent; per
compiled shape, the slot values; per factor, its vector, read and floored
once per distinct index value; per (summed factors, shape), an accumulator.
Each depends only on (x, prec, its own q, i, shape or factors), never on the
rest of the batch, and every sum is exact, so each value and radius equals
the lone integral's bit for bit.  The walk's state is rolling, O(integrands
x slots) and never O(pieces).

Fixed point.  The walk runs in Python ints: an int a at scale W stands for
a 2^-W, a complex value is a pair of ints, and a sum or product of ints is
exact.  Errors enter only where a value is floored to a scale, and each such
error is counted against the radius model: each span over which an
integrand's coefficient vector F is one vector (an accumulator's span in a
run, or a run with no summed side) adds to a float condition tracker cond
the sum F_abs . (|u(a)| + |u(b)|) over its antiderivative slots u = t^q
log^i t at the span's two ends, and the radius is eps(prec) * 64 * cond
plus the zeta term below.  The fixed-point error is held below eps(prec)
cond / 64, so the 64 eps cond that covers the coefficient data's own
rounding is left nearly whole.  With P = prec, and lbits and down as in
`breakpoints` (lb <= log b1, b1 the least breakpoint above 1, 2^-down <=
min(1, x^Re q) on [1, x]):

- log t and t^q come from `breakpoints`' tables, at scales WL = P + 22 +
  lbits and WT = P + 18 + down, off by relative r_L <= 2^-(P+16) (exact at
  t = 1) and r_T <= 2^-(P+10) (exactly 1 at t = 1), as derived there.  L^i
  is formed exactly, relative error <= 2 i r_L <= 2^-(P+9) for i <= 64.
- u = t^q L^i is formed exactly and floored to its shape's scale Ws = P + 10
  + max over the shape's slots of (down + i lbits): < 2 units against
  |u| >= 2^-down lb^i, relative <= 2^-(P+9).  Every slot value is therefore
  off by at most rho |u|, rho = 2^-(P+6), and exact at t = 1.
- Coefficients: every varying factor hands over its vector v at an index
  as exact ints at its own scale (`exact`), with floats abs_j >= (1 -
  2^-28) |v_j| (float sums of at most 2^24 magnitudes, or magnitudes
  rounded once).  `_floored` floors it to the scale G = max_j (Wc - e_j),
  Wc = P + 17, 2^(e_j - 1) <= abs_j < 2^e_j (an entry with abs_j = 0 is 0
  and stays exact), so each part of entry j is off by < 2^-G <= 2^(e_j -
  Wc) <= 2^(1 - Wc) abs_j, and the entry by < d = 2^(1.5 - Wc) abs_j.  A
  product of nf <= 64 entries is then off by at most prod_j (|v_j| + d_j)
  - prod_j |v_j| <= nf 2^(1.5 - Wc) (1 + 2^-20) prod_j abs_j <= 2^-(P+9)
  prod_j abs_j, so F is off by <= 2^-(P+9) of the F_abs it feeds.  The
  compiled map's coefficients m are converted exactly.
- Products, the dot product with the endpoint difference, and the running
  total are exact; the total becomes an mpf exactly and rounds once.

Per span F is one vector, so the integral over it is F . d, d = u(b) - u(a),
exactly; the walk forms F~ . D~ with D~ = u~(b) - u~(a) exactly in ints (the
slot values at the span's inner breakpoints cancel), and |F~ D~ - F d| <=
sum_o |F~_o - F_o| |D~_o| + |F_o| |D~_o - d_o| <= (2^-(P+9) + 2^-(P+6))
(1 + 2^-20) sum_o F_abs_o (|u_o(a)| + |u_o(b)|), the float slack covering
the rounding of the abs values and of cond's sums, so the walk's error is
at most 2^-(P+5) cond = eps(prec) cond / 64.  The coefficient data's own
error against the same d counts the same way.  A piece is a span, so cond
is at most the sum over pieces.  It needs no term for a contribution's
magnitude, as the mpf walk's rounded sums did: the sums are exact, and the
one rounding, of the total to P + 96 bits, is off by at most 2^-(P+95)
|total| <= 2^-(P+94) cond.  Exponents that are not doubles (q = p + 1 for a
tiny p, say) are exact mpf values, and the tables take them exactly.

The zeta term: a zeta factor's vector is affine in zeta(s) (c_K = (s-1)
(zeta - P_K)) and an integrand is linear in each factor, so with one zeta
factor the integral is affine in zeta, and an error dz moves it by exactly
dz sigma, sigma = sum over spans of F_z . d, F_z the coefficients with the
factor's zeta column (its derivative in zeta) in place of its vector.  The
walk forms sigma~ over the same spans, exactly, and adds zeta_radius
(|sigma~| + 64 eps cond_z), cond_z sigma's tracker as cond is the value's:
one |.| for the whole walk, at most the sum over pieces of |.|.
"""

from __future__ import annotations

import copy
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from operator import add

import mpmath
from mpmath import mpc, mpf

from .approx import PRECISION, ApproxValue, RIGOROUS, eps_for, radd
from .breakpoints import (_Logs, _Powers, _exact_scale, _fix, _headroom, _log_bits, _mp_parts,
                          _shared, _shift)
from .constants import gamma_const
from .dsum import (DirichletTable, exact_ratio, fixed_abs, fixed_magnitude, fixed_to_float,
                   fixed_to_mp)
from .errors import CapacityError, DomainError, PrecisionError, UnsupportedKernelError
from .kernels import LITTLE_Q, R, CellKernel, KernelSpec
from .zeta import ComplexParam, power_prefix_table

_GUARD = 96
MAX_PARTITION_X = 10_000_000
MAX_LOG_DEGREE = 64  # and at most as many varying factors: the bound above counts on it
_COEF_BITS = 17  # Wc - prec
_SUM_GUARD = 64  # a prefix-sum factor's columns carry its prec + this many bits


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
    """sum_i c_i t^{p_i} log(t)^{k_i}: a factor that is the same on every piece.

    abs_values[i] = |values[i]|, as a float, for the radius model.
    """

    __slots__ = ("shape", "values", "abs_values")
    index = None
    prec = None  # exact: its values are taken as given

    def __init__(self):
        self.shape, self.values, self.abs_values = [], [], []

    @classmethod
    def monomial(cls, c, p, k: int) -> "PowLogSum":
        out = cls()
        out.add_monomial(c, p, k)
        return out

    @classmethod
    def from_spec(cls, fs: FunctionSpec) -> "PowLogSum":
        return cls.monomial(mpmath.mpmathify(fs.c), fs.p, fs.k)

    def add_monomial(self, c, p, k: int) -> None:
        self.shape.append((mpmath.mpmathify(p), k))
        self.values.append(c)
        self.abs_values.append(abs(complex(c)))


def _antiderivative(p, j: int) -> list:
    """[(q, i, coef)] with integral t^p log^j t dt = sum coef t^q log^i t.

    p != -1: t^{p+1} sum_{i<=j} (-1)^{j-i} (j!/i!) / (p+1)^{j-i+1} log^i t;
    p == -1: log^{j+1} t / (j+1).
    """
    if p == -1:
        return [(mpf(0), j + 1, mpf(1) / (j + 1))]
    q = p + 1
    out = []
    for i in range(j, -1, -1):
        coef = (mpf(math.factorial(j)) / math.factorial(i)) / q ** (j - i + 1)
        out.append((q, i, -coef if (j - i) % 2 else coef))
    return out


# ---------------------------------------------------------------------------
# Partition.
# ---------------------------------------------------------------------------

class Partition:
    """Sorted breakpoints of [1, x]: the integers <= x merged with x/n, n <= x.

    Between consecutive breakpoints floor(t), floor(x/t), and hence every
    step-indexed factor, is constant in structure.  `keys` holds each point
    exactly: k > 0 is the integer k, -n is x/n (a point x/n equal to an
    integer is kept as the integer).
    """

    def __init__(self, x: float, need_inverse_points: bool = True):
        if x < 1:
            raise DomainError(f"x must be >= 1, got {x}")
        if x > MAX_PARTITION_X:
            raise CapacityError(
                f"partition for x = {x} would exceed ~{2 * MAX_PARTITION_X} pieces")
        self.x = x
        self.num, self.den = num, den = exact_ratio(x)
        N = num // den
        if not need_inverse_points:
            keys = list(range(1, N + 1)) + ([] if N * den == num else [-1])
        else:
            keys, k, n = [], 1, N  # integers ascending, x/n descending in n
            while k <= N or n >= 1:
                c = -1 if n < 1 else 1 if k > N else k * n * den - num  # k vs x/n
                if c <= 0:
                    keys.append(k)
                    k += 1
                if c >= 0:
                    if c > 0:
                        keys.append(-n)
                    n -= 1
        self.keys = keys

    def __len__(self):
        return len(self.keys)

    def ratio(self, key: int) -> tuple[int, int]:
        """The breakpoint `key` as (numerator, denominator)."""
        return (key, 1) if key > 0 else (self.num, self.den * -key)

    def pieces(self):
        """Yield (a, b, N, K) per piece: its endpoints as keys, and N =
        floor(x/t), K = floor(t), exactly.  Both are constant inside a piece,
        so they are taken at its midpoint m, as floor(2 x / (a + b)) and
        floor((a + b) / 2) in integers."""
        num, den = self.num, self.den
        a = self.keys[0]
        ra = self.ratio(a)
        for b in self.keys[1:]:
            rb = self.ratio(b)
            s = ra[0] * rb[1] + rb[0] * ra[1]  # a + b = s / (qa qb)
            q = ra[1] * rb[1]
            yield a, b, (2 * num * q) // (den * s), s // (2 * q)
            a, ra = b, rb


# ---------------------------------------------------------------------------
# Piece factors: index ("N", "K" or None), shape [(p, k)] and prec, the bits
# its data were built at (None: exact as given; the walk refuses fewer bits
# than its own).  A varying factor's exact(idx) -> (S, re, im, absv) is its
# coefficient vector at the index, aligned with the shape, as exact ints at
# scale S (im None when the vector is real-typed), with floats absv_j >=
# |v_j| for the radius model; the walk floors it with `_floored`.
# ---------------------------------------------------------------------------

def _sum_columns(seq, power, log, k: int, Wp: int, WL: int, base: int, lbits: int,
                 cplx: bool) -> tuple:
    """(scales, sums, abs_sums): per i <= k, the prefix sums from 0 of the
    terms a(n) T_n L_n^i, n = 1..len(seq), each term floored to scales[i] =
    base + i lbits + h_a, 2^-h_a <= |a(n)| for a(n) != 0, and the prefix sums
    of the terms' float magnitudes.  seq holds the raw mpf parts of a(n),
    power(n) -> (re, im or None) gives T_n at scale Wp and log(n) gives L_n
    at scale WL; sums[i] is (re, im), im None unless cplx."""
    h_a = max((1 - t[2] - t[3] for a in seq for t in a if t is not None and t[1]), default=0)
    scales = [base + i * lbits + max(0, h_a) for i in range(k + 1)]
    cols = [([], []) for _ in scales]
    for n, (ar, ai) in enumerate(seq, 1):
        if not ar[1] and (ai is None or not ai[1]):
            for re, im in cols:
                re.append(0)
                im.append(0)
            continue
        Ga = _exact_scale((ar, ai))
        a_re, a_im = _fix(ar, Ga), (_fix(ai, Ga) if ai is not None else 0)
        tr, ti = power(n)
        ti = ti or 0
        zr, zi = a_re * tr - a_im * ti, a_re * ti + a_im * tr  # scale Ga + Wp
        L = log(n) if k else 0
        for i, (re, im) in enumerate(cols):
            s = Ga + Wp + i * WL - scales[i]
            re.append(_shift(zr, s))
            im.append(_shift(zi, s))
            if i < k:
                zr, zi = zr * L, zi * L
    sums = [(list(accumulate(re, initial=0)), list(accumulate(im, initial=0)) if cplx else None)
            for re, im in cols]
    abs_sums = [list(accumulate(
        (abs(fixed_to_float(r, S)) if not cplx
         else math.hypot(fixed_to_float(r, S), fixed_to_float(m, S))
         for r, m in zip(re, im)), initial=0.0))
        for (re, im), S in zip(cols, scales)]
    return scales, sums, abs_sums


class _PrefixSumFactor:
    """Entry j = coef_j Z_{k-j}(idx) + offset_j, j = 0..k, for prefix sums Z_i
    held exactly at scales Wf[i] (`cols`) with float magnitude sums `col_abs`;
    `_entries` sets the constants, coef_j = c C(k, j) sign^j exactly, and
    `exact` reads the vector."""

    def _entries(self, c, sign: int, offset) -> None:
        k = len(offset) - 1
        coef = [mpmath.fmul(c, math.comb(k, j) * sign**j, exact=True) for j in range(k + 1)]
        self.coef_abs = [abs(complex(c)) for c in coef]
        self.offset_abs = [abs(complex(c)) for c in offset]
        coef_parts = [_mp_parts(c) for c in coef]
        offset_parts = [_mp_parts(c) for c in offset]
        self.cplx |= any(im is not None for _, im in offset_parts)
        Gc = _exact_scale(t for c in coef_parts for t in c)
        self.S = S = max(Gc + max(self.Wf), _exact_scale(t for c in offset_parts for t in c))
        self._coef = [(_fix(re, Gc), _fix(im, Gc) if im is not None else 0, S - Gc - self.Wf[k - j])
                      for j, (re, im) in enumerate(coef_parts)]
        self._offset = [(_fix(re, S), _fix(im, S) if im is not None else 0)
                        for re, im in offset_parts]

    def exact(self, idx: int) -> tuple:
        idx = min(idx, self.N)
        cols = self.cols[::-1]  # column k - j for entry j
        absv = [ca * za[idx] + oa for ca, za, oa
                in zip(self.coef_abs, self.col_abs[::-1], self.offset_abs)]
        if not self.cplx:
            return (self.S, [((cr * zr[idx]) << s) + o_re for (cr, _, s), (zr, _), (o_re, _)
                             in zip(self._coef, cols, self._offset)], None, absv)
        re, im = [], []
        for (cr, ci, s), (zr, zi), (o_re, o_im) in zip(self._coef, cols, self._offset):
            zr, zi = zr[idx], zi[idx]
            re.append(((cr * zr - ci * zi) << s) + o_re)
            im.append(((cr * zi + ci * zr) << s) + o_im)
        return self.S, re, im, absv


class SummatoryFactor(_PrefixSumFactor):
    """S_a omega(x/t) = sum_{n <= x/t} a(n) omega((x/n)/t), indexed by
    N = floor(x/t), plus optional constants `offset[j]` on log^j t (only for
    omega.p == 0, where they share the shape's t^0 log^j t slots).

    omega(u) = c u^p log^k u gives, with L_n = log(x/n) and A_n = (x/n)^p,
    the t-polynomial  c t^{-p} sum_j C(k,j)(-1)^j log^j t * W_{k-j}(N),
    W_i(N) = sum_{n<=N} a(n) A_n L_n^i.  The W_i are fixed-point prefix sums
    (`_sum_columns`): A_n = x^p n^-p and L_n = log x - log n from the walk's
    tables, at prec + 64 bits, each term floored to its column's scale with
    headroom for the least |a(n)|, A_n and L_n != 0 (as in the walk's slot
    values), so every term is off by relative <= 2^-(prec + 70) and the
    exact prefix sums by that times `col_abs`.  Factors given one `tables`
    dict share the x^p n^-p and log(x/n) tables they read: a table fixes its
    bits when built, so a shared one gives the same ints.
    """

    index = "N"

    def __init__(self, seq_values, omega: FunctionSpec, x: float, prec: int, offset=(),
                 tables: dict | None = None):
        if any(offset) and omega.p != 0:
            raise DomainError("offset needs omega.p == 0")
        k = omega.k
        self.prec = prec
        bits = prec + _SUM_GUARD
        num, den = exact_ratio(x)
        N = min(len(seq_values), num // den)
        seq = [_mp_parts(a) for a in seq_values[:N]]
        p = mpmath.mpmathify(omega.p) if omega.p != 0 else mpf(0)
        cm = mpmath.mpmathify(omega.c)
        self.cplx = (type(cm) is mpc or (omega.p != 0 and isinstance(omega.p, (complex, mpc)))
                     or any(im is not None for _, im in seq))
        log2x = math.log2(num) - math.log2(den)
        lbits = 0  # for the least L_n != 0: log(x/N), or log(x/(N-1)) at an integer x
        if N * den != num:
            lbits = _log_bits(num, den * N)
        elif N > 1:
            lbits = _log_bits(num, den * (N - 1))
        tables = {} if tables is None else tables
        pw = _shared(tables, _Powers, p, num, den, bits, False, N)
        logs = _shared(tables, _Logs, x, bits + 22 + lbits, N) if k else None
        self.N = N
        self.Wf, self.cols, self.col_abs = _sum_columns(
            seq, pw.at_inv, lambda n: 0 if n * den == num else logs.at_inv(n), k, pw.W,
            logs.W if k else 0, bits + 10 + _headroom(p, log2x)[1], lbits, self.cplx)
        self.shape = [(-mpmath.mpmathify(omega.p), j) for j in range(k + 1)]
        self._entries(cm, -1, list(offset) + [0] * (k + 1 - len(offset)))


class InnerSumFactor(_PrefixSumFactor):
    """S_b phi(t) = sum_{k <= t} b(k) phi(t/k), indexed by K = floor(t).

    phi(u) = c u^p log^l u gives c t^p sum_j C(l,j) log^j t V_{l-j}(K) with
    V_i(K) = sum_{k<=K} b(k) k^{-p} (-log k)^i: fixed-point prefix sums
    (`_sum_columns`) of b(k) times a `DirichletTable`'s k^-p and -log k, each
    term floored at prec + 74 bits past its headroom (|k^-p| >=
    K^-max(0, Re p), |log k| >= 1/2 for k >= 2), on top of the table's own
    error (dsum).
    """

    index = "K"

    def __init__(self, seq_values, phi: FunctionSpec, prec: int):
        l = phi.k
        self.N = K_max = len(seq_values)
        self.prec = prec
        p = complex(phi.p)
        table = DirichletTable(p.real, p.imag, prec, logs=l > 0)
        table.extend(K_max)
        seq = [_mp_parts(b) for b in seq_values]
        cm = mpmath.mpmathify(phi.c)
        parts = table.parts
        self.cplx = (type(cm) is mpc or any(im is not None for _, im in seq)
                     or (len(parts) > 1 and any(b != 0 for b in seq_values)))
        self.Wf, self.cols, self.col_abs = _sum_columns(
            seq, lambda k: (parts[0][k], parts[1][k] if len(parts) > 1 else None),
            lambda k: -table.log[k], l, table.W, table.W,
            prec + _SUM_GUARD + 10 + _headroom(p, math.log2(max(K_max, 1)))[0],
            1, self.cplx)
        self.shape = [(mpmath.mpmathify(phi.p), j) for j in range(l + 1)]
        self._entries(cm, 1, [0] * (l + 1))


class KernelFactor:
    """The Q or R kernel on pieces with floor(t) = K: `CellKernel.cell(K)`,
    c_K t^s - t for Q and c_K t^s - s t + (s-1)(K + 1/2) for R.

    zeta_column is d(coefficients)/d(zeta), (s-1) on the t^s slot, as an
    exact vector like `exact`'s.
    """

    index = "K"

    def __init__(self, spec: KernelSpec, prec: int, target_radius: float = 1e-35):
        if spec.variant == LITTLE_Q:
            raise UnsupportedKernelError("no kernel identity integrates q")
        self.prec = prec
        self.kernel = ck = CellKernel(spec, prec, zeta_target=target_radius)
        self.zeta_radius = ck.zeta.radius
        self.sm1_abs = ck.s1_abs
        self.zeta_abs = fixed_abs(*ck.zeta_fixed)
        self.shape = [(ck.sm, 0), (mpf(1), 0)]
        self.beta_abs = 1.0
        self.cplx = ck.cplx
        if spec.variant == R:
            self.shape.append((mpf(0), 0))
            self.beta_abs += self.sm1_abs
        zero = [0] * (len(self.shape) - 1)
        sr, si, Gs = ck.s1_fixed
        self.zeta_column = (Gs, [sr, *zero], [si, *zero] if self.cplx else None,
                            [self.sm1_abs] + [0.0] * len(zero))

    def exact(self, K: int) -> tuple:
        """The exact cell: c_K = (s-1)(zeta - P_K) from the prefix table's
        ints, beta and delta from s; the abs values are |s-1| (|zeta| + |P_K|)
        >= |c_K|, with |zeta| and |P_K| correctly rounded from their exact
        ints, then beta_abs >= |beta| and, for R, |delta|."""
        cell = self.kernel.cell(K)
        table = self.kernel.table
        absv = [self.sm1_abs * (self.zeta_abs + fixed_abs(*(*table.prefix(K), 0)[:2], table.W)),
                self.beta_abs]
        if len(self.shape) == 3:  # R's delta slot; Q's delta is 0
            absv.append(cell.delta_abs)
        parts = (cell.c, cell.beta, cell.delta)[:len(self.shape)]
        return (cell.S, [re for re, _ in parts], [im for _, im in parts] if self.cplx else None,
                absv)


class PowSumFactor:
    """sum_{k<=t} (t/k)^s = t^s P_K."""

    index = "K"

    def __init__(self, s: ComplexParam, prec: int):
        self.prec = prec
        self.table = power_prefix_table(s.sigma, s.tau, prec)
        self.shape = [(s.as_mpc(), 0)]

    def exact(self, K: int) -> tuple:
        P, W = self.table.prefix(K), self.table.W
        return W, [P[0]], list(P[1:]) or None, [fixed_abs(*(*P, 0)[:2], W)]


class HalfMinusFracFactor:
    """1/2 - {t} = 1/2 + K - t."""

    index = "K"
    shape = [(mpf(0), 0), (mpf(1), 0)]
    prec = None

    def exact(self, K: int) -> tuple:
        return 1, [2 * K + 1, -2], None, [K + 0.5, 1.0]


class StepPolyFactor:
    """Piecewise log-polynomial in t with coefficients indexed by K = floor(t):
    t^power * sum_j coeff_columns[j][K] log^j t, the columns held as exact ints at
    one scale S (a column shorter than K reads its last entry), exact as given
    (prec None) unless a subclass builds them."""

    index = "K"
    prec = None

    def __init__(self, coeff_columns, power=0):
        parts = [[_mp_parts(v) for v in col] for col in coeff_columns]
        self.S = S = _exact_scale(t for col in parts for z in col for t in z)
        self.cplx = any(im is not None for col in parts for _, im in col)
        self.cols = [([_fix(re, S) for re, _ in col],
                      [_fix(im, S) if im is not None else 0 for _, im in col])
                     for col in parts]
        self.abs = [[abs(complex(c)) for c in col] for col in coeff_columns]
        self.shape = [(mpmath.mpmathify(power), j) for j in range(len(coeff_columns))]

    def exact(self, K: int) -> tuple:
        at = [min(K, len(a) - 1) for a in self.abs]
        return (self.S, [re[k] for (re, _), k in zip(self.cols, at)],
                [im[k] for (_, im), k in zip(self.cols, at)] if self.cplx else None,
                [a[k] for a, k in zip(self.abs, at)])


def _harmonic_numbers(K_max: int, prec: int) -> list:
    return DirichletTable(1.0, 0.0, prec + _GUARD).values(K_max + 1, cumulative=True)


class HarmonicWeightFactor(StepPolyFactor):
    """t (H(t) - log t - gamma) with H piecewise constant."""

    def __init__(self, K_max: int, prec: int):
        with mpmath.mp.workprec(prec + _GUARD):
            g = gamma_const(prec + _GUARD)
            H = _harmonic_numbers(K_max, prec)
            super().__init__([[h - g for h in H], [mpf(-1)] * len(H)], power=1)
        self.prec = prec


class LogMinusHFactor(StepPolyFactor):
    """log t - H(t), the k = 1 right-hand integrand; H is negated exactly."""

    def __init__(self, K_max: int, prec: int):
        H = _harmonic_numbers(K_max, prec)
        super().__init__([[mpmath.fneg(h, exact=True) for h in H], [mpf(1)] * len(H)])
        self.prec = prec


# ---------------------------------------------------------------------------
# The integrator.
# ---------------------------------------------------------------------------

def _compile(factors: list):
    """Multiply the factors' shapes out once and compose with the
    antiderivative map.

    Returns (varying factors, exponents, slots, terms): the antiderivative of
    the product on a piece is sum_o F[o] t^q log^i t over slots[o] = (g, i)
    with exponents[g] = (q, q as an int or None, Re q), and F[o] = sum over
    terms (tuple, outs) with (o, m, m_abs) in outs of
    m * prod_f v_f[tuple[f]], v_f the varying factor f's vector on the piece.
    """
    varying = [f for f in factors if f.index is not None]
    const = [(mpf(0), 0, mpf(1), 1.0)]  # the constant factors, multiplied out
    for f in factors:
        if f.index is None:
            const = [(p0 + p, k0 + k, c0 * c, a0 * a)
                     for p0, k0, c0, a0 in const
                     for (p, k), c, a in zip(f.shape, f.values, f.abs_values)]
    exponents, slots, terms = [], {}, []
    for tup in itertools.product(*(range(len(f.shape)) for f in varying)):
        p_v = sum((f.shape[i][0] for f, i in zip(varying, tup)), mpf(0))
        k_v = sum(f.shape[i][1] for f, i in zip(varying, tup))
        outs = {}
        for p0, k0, c0, a0 in const:
            for q, i, coef in _antiderivative(p_v + p0, k_v + k0):
                g = next((g for g, e in enumerate(exponents) if e == q), None)
                if g is None:
                    g = len(exponents)
                    exponents.append(q)
                o = slots.setdefault((g, i), len(slots))
                m, m_abs = outs.get(o, (0, 0.0))
                outs[o] = (m + c0 * coef, m_abs + a0 * abs(complex(coef)))
        terms.append((tup, [(o, m, m_abs) for o, (m, m_abs) in outs.items()]))
    exponents = [(q, int(q.real) if q == int(q.real) else None, float(q.real))
                 for q in exponents]
    return varying, exponents, list(slots), terms


def _floored(vec: tuple, Wc: int) -> tuple:
    """(G, re, im, absv): a factor's exact vector (S, re, im, absv) floored to
    the scale G = max_j (Wc - e_j), 2^(e_j - 1) <= absv_j < 2^e_j."""
    S, re, im, absv = vec
    G = max((Wc - math.frexp(a)[1] for a in absv if a), default=0)
    s = S - G
    return G, [_shift(v, s) for v in re], None if im is None else [_shift(v, s) for v in im], absv


def _product(vecs: list) -> tuple:
    """The flat product of fixed-point vectors (G, re, im, absv), row-major in
    the order given, exact at the sum of the scales (im None when every
    vector is real-typed); a `_diff` is such a vector too."""
    G, re, im, ab = vecs[0] if vecs else (0, [1], None, [1.0])
    for Gv, vr, vi, va in vecs[1:]:
        if im is None and vi is None:
            re = [a * c for a in re for c in vr]
        else:
            im, vi = im or [0] * len(re), vi or [0] * len(vr)
            re, im = ([a * c - b * d for a, b in zip(re, im) for c, d in zip(vr, vi)],
                      [a * d + b * c for a, b in zip(re, im) for c, d in zip(vr, vi)])
        G, ab = G + Gv, [a * c for a in ab for c in va]
    return G, re, im, ab


def _diff(Ws: int, ea: tuple, eb: tuple) -> tuple:
    """(Ws, re, im, uab): a shape's slot differences u(b) - u(a) between two
    endpoints (`_walk`'s `endpoint`), and the floats |u(a)| + |u(b)|."""
    return (Ws, [b - a for a, b in zip(ea[0], eb[0])],
            None if ea[1] is None else [b - a for a, b in zip(ea[1], eb[1])],
            [a + b for a, b in zip(ea[2], eb[2])])


def _add(acc: list, S: int, re: list, im, ab: list) -> None:
    """acc += (re, im, ab): acc = [S, re, im, abs] holds exact ints at scale S,
    raised as needed (im None until a complex-typed term), and float sums."""
    if acc[0] is None:
        acc[0] = S
    elif S > acc[0]:
        up = S - acc[0]
        acc[:3] = S, [r << up for r in acc[1]], acc[2] and [r << up for r in acc[2]]
    elif S < acc[0]:
        re, im = [r << (acc[0] - S) for r in re], im and [r << (acc[0] - S) for r in im]
    acc[1] = list(map(add, acc[1], re))
    if im is not None:
        acc[2] = list(map(add, acc[2] or [0] * len(re), im))
    acc[3] = list(map(add, acc[3], ab))


def _span(acc: list, vecs: list, d: tuple) -> None:
    """Add to an accumulator one span over which the vectors hold: the flat
    products V_j d_o and |V|_j uab_o, d's slots innermost."""
    _add(acc, *_product([*vecs, d]))


def _combine(terms: list, Gm: int, cplx: bool, C: tuple, A: tuple) -> tuple:
    """(re, im, S, cond) of one run: the exact sum over `terms` [(jc, [(i, Mr,
    Mi, m_abs)])] of C[jc] M A[i] at scale S = Gm + C's + A's (im None when
    all are real), and the float sum of |C|[jc] m_abs |A|[i]; C a `_product`,
    A an accumulator or a `_diff`."""
    Gc, cr, ci, ca = C
    SA, ar, ai, aa = A
    re, im, cond = 0, 0, 0.0
    if not cplx and ci is None and ai is None:
        for jc, outs in terms:
            s, sa = 0, 0.0
            for i, M, _, m_abs in outs:
                s += M * ar[i]
                sa += m_abs * aa[i]
            re += cr[jc] * s
            cond += ca[jc] * sa
        return re, None, Gm + Gc + SA, cond
    ci, ai = ci or [0] * len(cr), ai or [0] * len(ar)
    for jc, outs in terms:
        sr, si, sa = 0, 0, 0.0
        for i, Mr, Mi, m_abs in outs:
            sr += Mr * ar[i] - Mi * ai[i]
            si += Mr * ai[i] + Mi * ar[i]
            sa += m_abs * aa[i]
        re += cr[jc] * sr - ci[jc] * si
        im += cr[jc] * si + ci[jc] * sr
        cond += ca[jc] * sa
    return re, im, Gm + Gc + SA, cond


def _runs(part: Partition, k0: int):
    """(b, N, K, end) per piece (a, b, N, K) of `part`, end when the piece is
    the last of its run: of its K-run below k0, of its N-run from k0 on."""
    pieces = part.pieces()
    prev = next(pieces)
    for nxt in itertools.chain(pieces, [None]):
        _, b, N, K = prev
        yield b, N, K, nxt is None or (nxt[3] != K if K < k0 else nxt[2] != N)
        prev = nxt


class _Integrand:
    """One distinct integrand of a walk: its compiled shape (`_compile`, with
    each slot's exponent as an index into the walk's exponents and the map's
    coefficients m as ints at one exact scale Gm), its varying factors and
    their slots among the walk's, per zeta factor its position and column
    floored as the walk floors a vector, and the exact running totals [re,
    im, S, cond] of its value and of each zeta slope."""

    def __init__(self, factors: list, exponent_index):
        self.varying, exponents, slots, terms = _compile(factors)
        if len(self.varying) > MAX_LOG_DEGREE or any(i > MAX_LOG_DEGREE for _, i in slots):
            raise UnsupportedKernelError(
                f"at most {MAX_LOG_DEGREE} step factors and log degree {MAX_LOG_DEGREE}")
        self.n, self.lens = len(slots), [len(f.shape) for f in self.varying]
        self.shape = tuple((exponent_index(exponents[g]), i) for g, i in slots)
        parts = {id(m): _mp_parts(m) for _, outs in terms for _, m, _ in outs}
        self.Gm = Gm = _exact_scale(t for re, im in parts.values() for t in (re, im))
        self.cplx = any(im is not None and im[1] for _, im in parts.values())
        # the value is typed mpc as mpmath arithmetic would type it
        self.typed_cplx = (any(im is not None for _, im in parts.values())
                           or any(type(exponents[g][0]) is mpc and exponents[g][1] is None
                                  for g, _ in slots))
        self.terms = [(tup, [(o, _fix(parts[id(m)][0], Gm),
                              _fix(parts[id(m)][1], Gm) if parts[id(m)][1] else 0, m_abs)
                             for o, m, m_abs in outs])
                      for tup, outs in terms]
        self.splits = {}

    def bind(self, varying: list, fslots: list, Wc: int) -> "_Integrand":
        """This compiled shape for one integrand's own varying factors."""
        out = copy.copy(self)
        out.varying, out.fslots = varying, fslots
        out.zeta = [(pos, _floored(f.zeta_column, Wc)) for pos, f in enumerate(varying)
                    if hasattr(f, "zeta_column")]
        out.totals = [[None, [0], None, [0.0]] for _ in range(len(out.zeta) + 1)]
        return out

    def split(self, var: tuple) -> list:
        """The terms as [(jc, [(jv n + o, Mr, Mi, m_abs)])], jv a term's flat
        index over the positions `var` and jc over the others (as `_product`
        flattens)."""
        if var not in self.splits:
            const = [p for p in range(len(self.lens)) if p not in var]
            out = self.splits[var] = []
            for tup, outs in self.terms:
                jc = jv = 0
                for p in const:
                    jc = jc * self.lens[p] + tup[p]
                for p in var:
                    jv = jv * self.lens[p] + tup[p]
                out.append((jc, [(jv * self.n + o, Mr, Mi, m_abs) for o, Mr, Mi, m_abs in outs]))
        return self.splits[var]

    def result(self, prec: int, typed_cplx: bool) -> ApproxValue:
        (S, (re,), im, (cond,)), eps = self.totals[0], eps_for(prec)
        radius = eps * 64.0 * cond
        for (pos, _), (zS, (zr,), zi, (zcond,)) in zip(self.zeta, self.totals[1:]):
            if zS is not None:
                radius += self.varying[pos].zeta_radius * (
                    fixed_magnitude(zr, zi and zi[0], zS) + eps * 64.0 * zcond)
        value = fixed_to_mp(re, (im or [0])[0] if S is not None and typed_cplx else None,
                            S or 0, prec + _GUARD)
        return ApproxValue(value, radd(radius), RIGOROUS, prec)


def _walk(part: Partition, integrands: list, prec: int) -> list[ApproxValue]:
    """Every integrand's integral over one walk of `part`, in fixed point (see
    the module docstring), at prec + _GUARD working bits.  A factor built at
    fewer than prec bits raises PrecisionError."""
    for f in itertools.chain.from_iterable(integrands):
        if f.prec is not None and f.prec < prec:
            raise PrecisionError(f"{type(f).__name__} built at {f.prec} < {prec} bits")
    with mpmath.mp.workprec(prec + _GUARD):
        exps, where = [], {}  # distinct (q, q as an int or None, Re q); (type, q) -> index

        def exponent_index(e):
            key = (type(e[0]), e[0])  # an mpf and an equal mpc stay apart
            if key not in where:
                where[key] = len(exps)
                exps.append(e)
            return where[key]

        Wc = prec + _COEF_BITS
        factors, slot_of, compiled, distinct = [], {}, {}, {}
        for fs in integrands:  # integrands of the same factor objects are one
            if tuple(map(id, fs)) in distinct:
                continue
            key = tuple((f.index, *((type(p), p, k) for p, k in f.shape))
                        + (() if f.index else (*((type(v), v) for v in f.values), *f.abs_values))
                        for f in fs)  # all that _compile reads
            if key not in compiled:
                compiled[key] = _Integrand(fs, exponent_index)
            varying = [f for f in fs if f.index is not None]
            for f in varying:
                slot_of.setdefault(id(f), len(factors))
                if slot_of[id(f)] == len(factors):
                    factors.append(f)
            distinct[tuple(map(id, fs))] = compiled[key].bind(
                varying, [slot_of[id(f)] for f in varying], Wc)
        seen = [False] * len(factors)  # a vector of the factor was complex-typed

        def results():
            out = {id(r): r.result(prec, r.typed_cplx or any(seen[j] for j in r.fslots))
                   for r in distinct.values()}
            return [out[id(distinct[tuple(map(id, fs))])] for fs in integrands]

        keys = part.keys
        if len(keys) < 2 or not distinct:
            return results()
        shapes = {}  # distinct compiled shape -> its index
        for r in distinct.values():
            shapes.setdefault(r.shape, len(shapes))

        N = part.num // part.den
        log2x = math.log2(part.num) - math.log2(part.den)
        lbits = _log_bits(*part.ratio(keys[1]))
        logs = _Logs(part.x, prec + 22 + lbits, N)
        pows = [_Powers(q, part.num, part.den, prec, True, N) for q, _, _ in exps]
        q_res = [q_re for _, _, q_re in exps]
        max_log = max((i for shape in shapes for _, i in shape), default=0)
        plans = []  # per shape: Ws, [(group, log degree, shift to Ws)], complex
        for shape in shapes:
            Ws = prec + 10 + max((_headroom(exps[g][0], log2x)[1] + i * lbits
                                  for g, i in shape), default=0)
            plans.append((Ws, [(g, i, pows[g].W + i * logs.W - Ws) for g, i in shape],
                          any(not pows[g].real for g, _ in shape)))

        def endpoint(key):
            """Per shape: the slot values t^q log^i t at scale Ws (re, im) and the
            floats |t^q| |log t|^i."""
            if key > 0:
                L, T = logs.log[key], [p.at_int(key) for p in pows]
            else:
                L, T = logs.at_inv(-key), [p.at_inv(-key) for p in pows]
            logt_f = fixed_to_float(L, logs.W)
            tq_abs = [math.exp(q_re * logt_f) for q_re in q_res]
            Lp = [1]
            for _ in range(max_log):
                Lp.append(Lp[-1] * L)
            out = []
            for Ws, slots, cplx in plans:
                re = [_shift(T[g][0] * Lp[i], s) for g, i, s in slots]
                im = ([_shift(T[g][1] * Lp[i], s) if T[g][1] is not None else 0
                       for g, i, s in slots] if cplx else None)
                out.append((re, im, [tq_abs[g] * abs(logt_f) ** i for g, i, _ in slots]))
            return out

        # The runs (module docstring): K-runs below k0 and N-runs from k0 on.
        # Per region, each integrand's combines, and per (summed factors,
        # shape) an accumulator; a run with no summed factor telescopes.
        k0 = math.isqrt(N) + 1
        fire, accs = ([], []), ({}, {})
        for r in distinct.values():
            sh, nv = shapes[r.shape], len(r.varying)
            for region, index in enumerate("KN"):
                for k, (z, zvec) in enumerate([(None, None), *r.zeta]):
                    var = tuple(p for p in range(nv) if r.varying[p].index != index and p != z)
                    m = r.n * math.prod(r.lens[p] for p in var)
                    acc = var and accs[region].setdefault(
                        (tuple(r.fslots[p] for p in var), sh), [None, [0] * m, None, [0.0] * m])
                    fire[region].append((r, k, r.split(var), acc or None, sh,
                                         [zvec if p == z else r.fslots[p]
                                          for p in range(nv) if p not in var]))
        cur = [None] * len(factors)
        since = {}  # accumulator key -> where its summed vectors hold from, if not the run's start
        users = {}  # (factor slot, region) -> the keys of the accumulators that sum the factor
        for region, keyed in enumerate(accs):
            for key in keyed:
                for j in key[0]:
                    users.setdefault((j, region), []).append(key)

        def flush(region, key, upto):
            """Add the span since `since[key]` up to the endpoint upto to the accumulator."""
            frm, sh = since.pop(key, start), key[1]
            if frm is not upto:
                _span(accs[region][key], [cur[j] for j in key[0]],
                      _diff(plans[sh][0], frm[sh], upto[sh]))

        readers = {i: [(j, f.exact) for j, f in enumerate(factors) if f.index == i] for i in "NK"}
        at = {}
        start = e = endpoint(keys[0])
        for b, N, K, end in _runs(part, k0):
            ea, e = e, endpoint(b)
            region = K >= k0
            for i, idx in (("N", N), ("K", K)):
                if at.get(i) == idx:
                    continue
                at[i] = idx
                for j, exact in readers[i]:
                    v = _floored(exact(idx), Wc)
                    if v != cur[j]:  # an equal vector keeps its object, and its spans
                        for key in users.get((j, region), ()):
                            flush(region, key, ea)
                            since[key] = ea
                        cur[j] = v
                        seen[j] |= v[2] is not None
            if end:
                for key in accs[region]:
                    flush(region, key, e)
                tel = {}  # per shape: the slot differences across the run
                for r, k, terms, acc, sh, csrc in fire[region]:
                    if acc is None:
                        acc = tel.get(sh) or tel.setdefault(
                            sh, _diff(plans[sh][0], start[sh], e[sh]))
                    C = _product([cur[s] if type(s) is int else s for s in csrc])
                    re, im, S, cond = _combine(terms, r.Gm, r.cplx, C, acc)
                    _add(r.totals[k], S, [re], None if im is None else [im], [cond])
                for acc in accs[region].values():
                    acc[:] = None, [0] * len(acc[1]), None, [0.0] * len(acc[1])
                start = e
        return results()


def integrate_partitions(x: float, integrands: list,
                         precision: int = PRECISION) -> list[ApproxValue]:
    """Exact piecewise integral over [1, x] of the product of each integrand's
    factors, accumulated exactly in fixed point, with a rigorous radius.

    All integrands share one walk of the partition per need_inverse_points
    flag, and each value and radius equals the integrand's integral taken
    alone bit for bit.
    """
    integrands = [list(factors) for factors in integrands]
    groups = {}  # need_inverse_points -> positions in `integrands`
    for j, factors in enumerate(integrands):
        groups.setdefault(any(f.index == "N" for f in factors), []).append(j)
    out = [None] * len(integrands)
    for inverse, members in groups.items():
        part = Partition(x, need_inverse_points=inverse)
        values = _walk(part, [integrands[j] for j in members], precision)
        for j, v in zip(members, values):
            out[j] = v
    return out


def integrate_partition(x: float, factors: list, extra: PowLogSum | None = None,
                        precision: int = PRECISION) -> ApproxValue:
    """Exact piecewise integral over [1, x] of the product of `factors` times
    `extra`: `integrate_partitions` for one integrand."""
    factors = list(factors) + ([extra] if extra is not None else [])
    return integrate_partitions(x, [factors], precision)[0]


# ---------------------------------------------------------------------------
# Public operations.
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def mu_over_n_values(N: int, prec: int) -> tuple:
    """(mu(n)/n) for n = 1..N from the engine at prec+guard bits, exact mpf
    values in an immutable tuple."""
    return tuple(DirichletTable(1.0, 0.0, prec + _GUARD).values(N, mu=True)[1:])


def m_weight_factor(x: float, prec: int) -> SummatoryFactor:
    """m(x/t) as a piece factor, built at prec + _GUARD bits as the walk at
    prec works (so are the two below)."""
    return SummatoryFactor(mu_over_n_values(math.floor(x), prec), FunctionSpec.const(1.0), x,
                           prec + _GUARD)


def mcheck_minus_one_factor(x: float, prec: int) -> SummatoryFactor:
    """m-check(x/t) - 1 as a piece factor."""
    return SummatoryFactor(mu_over_n_values(math.floor(x), prec), FunctionSpec.log(1), x,
                           prec + _GUARD, offset=[mpf(-1)])


def mdcheck_normalized_factor(x: float, prec: int) -> SummatoryFactor:
    """m-double-check(x/t) - 2 log(x/t) + 2 gamma as a piece factor."""
    with mpmath.mp.workprec(prec + _GUARD):
        logx = mpmath.log(mpf(x))
        g = gamma_const(prec + _GUARD)
        offset = [-2 * logx + 2 * g, mpf(2)]  # ... + 2 log t
    return SummatoryFactor(mu_over_n_values(math.floor(x), prec), FunctionSpec.log(2), x,
                           prec + _GUARD, offset=offset)


def integrate_m_kernel(x: float, g, precision: int = PRECISION) -> ApproxValue:
    """integral over [1, x] of m(x/t) g(t) / t^2 dt, exactly piecewise.

    g is a FunctionSpec, a PowLogSum, or a piece factor built by the
    factories in this module (`KernelFactor` for the Q and R kernels,
    truncated power sums, 1/2 - {t}, the harmonic weight).
    """
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    w = m_weight_factor(x, precision)
    if isinstance(g, FunctionSpec):
        g = PowLogSum.from_spec(g)
    elif not isinstance(g, PowLogSum) and not hasattr(g, "exact"):
        raise UnsupportedKernelError(
            f"{g!r} is outside the closed-form kernel family")
    extra = PowLogSum.monomial(mpf(1), mpf(-2), 0)
    return integrate_partition(x, [w, g], extra, precision=precision)
