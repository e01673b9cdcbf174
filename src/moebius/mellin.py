"""Truncated transform identities: tails of the summatory functions against
t^(-s), computed exactly over [x, T] by summation by parts plus a rigorous
bound on the remaining tail, compared with their closed forms in 1/zeta and
zeta'/zeta^2.

Every weight changes only at integers k:
w(t) = sum_{k<=t} c_k log^p(t/k) + Q(log t), with c_k = mu(k)/k and p = 0, 1,
2 for m, m-check - 1 and the normalized m-double-check, or c_k = 1/k and
p = 0 for the harmonic gap H - log - gamma, and Q(u) = 0, -1, -2u + 2 gamma,
-u - gamma (_WEIGHTS).  With F_i = t^(1-s) G_i(log t), the antiderivative of
t^(-s) log^i t, summation by parts gives the basis integrals

  B_j = integral_x^T w(t) t^(-s) log^j t dt
      = Bd_j(T) - Bd_j(x) - sum_{x<k<=T} c_k Phi_j(k) + integral_x^T Q(log t) t^(-s) log^j t dt,

  Bd_j(y) = sum_{i<=p} C(p, i) (-1)^(p-i) M_{p-i}(y) F_{j+i}(y),
  Phi_j(k) = sum_{i<=p} C(p, i) (-log k)^(p-i) F_{j+i}(k),

where M_0, M_1, M_2 = sum_{k<=y} c_k log^r k are the prefix columns m, sl,
sl2 (H for the harmonic gap) at y, and the Q integral is closed form in F_j
and F_{j+1}.  In closed form, with a = 1 - s, G_i(u) = sum_l phi^0_il u^(i-l)
and Phi_j(k) = k^(1-s) sum_{l<=j} phi^p_jl log^(j-l) k, where
phi^p_jl = (-1)^(p+l) (p+l)!/l! j!/(j-l)! / a^(p+l+1) (_phi).  The interior
is therefore sum_l phi^p_jl S_{j-l} over the Dirichlet moments
S_r = sum_{x<k<=T} c_k k^(1-s) log^r k.

A stream fills the transforms that share the jumps c_k and T, of one weight
or several (the mu weights read the union of their prefix columns), in one
pass per sieve segment.  The prefix columns come in slices of
summatory._SWEEP_SEGMENT values, in reused buffers, and give the point data
at x and T.  The segment's jumps k (mu(k) != 0 for the mu weights,
every k for hgap) are cut into blocks of at most _BLOCK at fixed positions
from its first jump; per block k, log k and c_k are computed once, then per
distinct s c_k k^(1-s) log^r k in one numpy pass per step, in float64 when s
is real with sigma > 1 (every registry cell), complex128 otherwise.  A cell's
S_r is the tail of x's block plus the full blocks after it, and its mu power
sums (r = 0, 1) the head plus the full blocks before it.  Its B_j is one
math.fsum of its block sums times phi and the boundary terms (each F_{j+i} at
x and at T once, its moment and Q coefficients added first), and each mu sum
one math.fsum, so a cell built alone equals the same cell in a batch bit for
bit, whatever the batch's other cells and weights.  transform_sides reads a
cell from the store that stored_transforms fills, for a suite's checks that
share a stream, and streams only the cells it lacks.

The radius is eps K (cond + |B_j|), with cond the sum of the absolute terms
(|c_k| |k^(1-s)| |phi| log^r k for the interior), K derived for the real
lane (_real_lane_units) and a blanket for the complex lane, plus the prefix
moments' radii times |F| at x and T and gamma's rounding (the mu sums count
theirs in _Cell._mu_sums); the tail beyond T is bounded from the imported
explicit estimates (|m(t)| <= 0.0130073/log t for t >= 97063 and the
step-function conversion lemma for the smoothed weights).

The smoothed family.  With w_0, w_1, w_2 = m, m-check - 1 and the normalized
m-double-check (SMOOTHED_WEIGHTS), a = (p+1)(s-1)^p/p! and b = (s-1)^(p+1)/p!,
the identity (p, mom) for p = 0, 1, 2 and mom = 0, 1 reads

  b integral_x^inf w_p t^(-s) dt = R_0                                 (mom = 0),
  a integral_x^inf w_p t^(-s) dt + b integral_x^inf w_p t^(-s) log(x/t) dt = R_1,

  R_mom = head_mom + sum_{mom<=i<=p} (s-1)^(i-mom)/(i-mom)! w_i(x) x^(1-s)

(smoothed_rhs), with head_0 = 1/zeta - sum_{n<=x} mu(n) n^(-s) and head_1 =
log x/zeta - zeta'/zeta^2 - sum_{n<=x} mu(n) n^(-s) log(x/n).  MTRONQ,
MTRONQCH and MTRONQCHCH are (0, 0), (1, 0), (2, 0); DERIVK1, DERIVK2 and
DERIVK3 are (0, 1), (1, 1), (2, 1).  Beyond T, |w_p(t)| <= D + E log(t/T)
(TruncatedTransform.tail_coeffs) bounds what the truncated integrals leave out.
"""

from __future__ import annotations

import cmath
import math
from contextlib import contextmanager
from typing import Callable

import mpmath
import numpy as np
from mpmath import mpf

from .approx import PRECISION, ApproxValue, RIGOROUS, radd
from .constants import GAMMA_F, HARMONIC_LOWER, LITTLE_M_OVER_LOG, gamma_const
from .errors import DomainError
from .identities import _x1s, mu_power_sum
from .kernels import Q, KernelSpec, frac_tail_integral
from .piecewise import KernelFactor, PowLogSum, integrate_partitions, mcheck_minus_one_factor
from .summatory import prefix_columns, summatory, work_buffers
from .zeta import ComplexParam, partial_power_sum, zeta_em

_EPS = 2.0**-52
#: the complex lane's rounding constant, in units of _EPS: a blanket, not derived
_BLANKET_UNITS = 1024.0
#: the accuracy assumed of float64 log, exp and power (numpy's and the C library's), in ulp
_FN_ULPS = 4
#: the real lane keeps every term above exp(-_MIN_LOG_F), so nothing underflows
_MIN_LOG_F = 600.0
#: a bound on |gamma - GAMMA_F|: half an ulp of gamma, 2^-54, plus the 64-bit value's error
_GAMMA_GAP = 2.0**-53
_HGAP_SUP = abs(HARMONIC_LOWER)  # |H(t) - log t - gamma| <= 0.5408 / t
#: the target radius of the identities' zeta(s) and J(t); prop1/prop2 read zeta at this key
IDENTITY_TARGET = 1e-33
#: the most jumps the transform kernel holds at once: its work arrays stay in L2
_BLOCK = 16384

WEIGHT_M = "m"
WEIGHT_MCHECK1 = "mcheck1"
WEIGHT_MDNORM = "mdnorm"
WEIGHT_HGAP = "hgap"
#: the smoothed family's weights w_0, w_1, w_2
SMOOTHED_WEIGHTS = (WEIGHT_M, WEIGHT_MCHECK1, WEIGHT_MDNORM)

#: weight -> (its jumps c_k: "mu" for mu(k)/k, "one" for 1/k; p; Q(u) =
#: q0 + q_gamma gamma + q1 u as (q0, q_gamma, q1); the prefix columns it
#: reads, M_0..M_p first).  I0 bounds the m-check tail beyond T.
_WEIGHTS = {
    WEIGHT_M: ("mu", 0, (0.0, 0.0, 0.0), ("m",)),
    WEIGHT_MCHECK1: ("mu", 1, (-1.0, 0.0, 0.0), ("m", "sl", "I0")),
    WEIGHT_MDNORM: ("mu", 2, (0.0, 2.0, -2.0), ("m", "sl", "sl2", "I0")),
    WEIGHT_HGAP: ("one", 0, (0.0, -1.0, -1.0), ("H",)),
}


def default_T(x: float) -> int:
    """The truncation point of a cell at x given no T: 1000 x, within [10^6, 10^7]."""
    return int(min(max(1e6, 1e3 * x), 1e7))


def _require_range(x: float, T: float) -> None:
    if not (1 <= x <= T):
        raise DomainError("need 1 <= x <= T")


def power_log_tail(sigma: float, T: float, j: int) -> float:
    """integral_T^inf t^(-sigma) log^j(t/T) dt = j! T^(1-sigma)/(sigma-1)^(j+1)."""
    if sigma <= 1:
        raise DomainError("power-log tail needs sigma > 1")
    return math.factorial(j) * T ** (1.0 - sigma) / (sigma - 1.0) ** (j + 1)


class TruncatedTransform:
    """Basis integrals B_j = integral_x^T w(t) t^(-s) log^j t dt for
    j = 0..mom_max, plus the prefix point data at x and T.

    The weight w is m, m-check - 1, the normalized m-double-check, or the
    harmonic gap H - log - gamma; each changes only at integers (_WEIGHTS),
    and the prefix columns it reads give its moments at x and T.  The
    constructor checks and records the cell; truncated_transforms fills it
    from one stream of [1, floor(T)], shared between cells.
    """

    def __init__(self, s, x: float, T: float, weight: str, mom_max: int = 0):
        _require_range(x, T)
        self.s = ComplexParam.coerce(s)
        self.x = float(x)
        self.T = float(T)
        self.weight = weight
        self.mom_max = mom_max

    # point helpers ---------------------------------------------------------

    def _point(self, store: dict, x: float) -> dict[str, ApproxValue]:
        """The point values the weight's columns define: H for hgap; m, and
        with sl also mcheck1, and with sl2 also mdnorm for the mu weights."""
        av = lambda v, r: ApproxValue(v, radd(r), RIGOROUS, 53)
        if "H" in store:
            return {"H": av(*store["H"])}
        logx = math.log(x)
        m, m_r = store["m"]
        out = {"m": av(m, m_r)}
        if "sl" in store:
            sl, sl_r = store["sl"]
            mc = logx * m - sl - 1.0
            out["mcheck1"] = av(mc, abs(logx) * m_r + sl_r + _EPS * 8 * (abs(logx * m) + abs(mc)))
        if "sl2" in store:
            sl2, sl2_r = store["sl2"]
            md = logx ** 2 * m - 2 * logx * sl + sl2 - 2 * logx + 2 * GAMMA_F
            out["mdnorm"] = av(md, logx ** 2 * m_r + 2 * abs(logx) * sl_r + sl2_r
                               + _EPS * 16 * (logx ** 2 * abs(m) + abs(logx * sl)
                                              + abs(md) + abs(logx)))
        return out

    def values_at_x(self):
        return self._point(self.at_x, self.x)

    def values_at_T(self):
        return self._point(self.at_T, self.T)

    # tail coefficients -----------------------------------------------------

    def tail_coeffs(self, p: int) -> tuple[float, float]:
        """(D, E): |w_p(t)| <= D + E log(t/T) for t >= T, with E = 0 for
        p < 2.  |m| <= c/log t from the imported estimate; |m-check - 1| <=
        I0(T)/T + c/log T + 1/T^2 by the step-conversion lemma; and the
        normalized m-double-check is its value at T plus the integral of its
        derivative, 2 (m-check - 1)/t."""
        c, t0 = LITTLE_M_OVER_LOG
        if self.T < t0:
            raise DomainError(f"|m| tail coefficient needs T >= {t0}")
        D = c / math.log(self.T)
        if p == 0:
            return D, 0.0
        I0, I0r = self.at_T["I0"]
        D = (I0 + I0r) / self.T + D + 1.0 / self.T ** 2
        if p == 1:
            return D, 0.0
        vT = self.values_at_T()["mdnorm"]
        return abs(float(vT.value)) + vT.radius, 2.0 * D


def truncated_transforms(weight: str, T: float, cells) -> list[TruncatedTransform]:
    """TruncatedTransform(s, x, T, weight, mom_max) for each (s, x, mom_max)
    in `cells`, filled from one stream of [1, floor(T)]; each equals the same
    cell streamed alone bit for bit."""
    tts = [TruncatedTransform(s, x, T, weight, mom) for s, x, mom in cells]
    if tts:
        _stream(tts)
    return tts


def stream_of(cell: tuple) -> tuple:
    """The stream that fills a (weight, T, s, x, mom) cell: its jumps c_k
    ("mu" or "one", _WEIGHTS) and T."""
    return _WEIGHTS[cell[0]][0], cell[1]


#: finished transforms by cell (weight, T, s, x, mom), which transform_sides
#: reads before it streams; only stored_transforms writes it
_STORE: dict[tuple, TruncatedTransform] = {}


@contextmanager
def stored_transforms(cells):
    """Stream the (weight, T, s, x, mom) cells of transform_cells that the
    store lacks, one stream per jumps and T over all their weights, and keep
    them in the store until the block ends.  Bits are those of each cell
    streamed alone."""
    streams: dict[tuple, dict] = {}  # stream_of -> {cell: its transform}
    for cell in cells:
        if cell not in _STORE:
            weight, T, sp, x, mom = cell
            group = streams.setdefault(stream_of(cell), {})
            if cell not in group:
                group[cell] = TruncatedTransform(sp, x, T, weight, mom)
    try:
        for group in streams.values():
            _stream(list(group.values()))
            _STORE.update(group)
        yield
    finally:
        for group in streams.values():
            for cell in group:
                _STORE.pop(cell, None)


def _nterms(weight: str, mom_max: int) -> int:
    """How many antiderivatives F_0.. the weight's B_0..B_mom_max read."""
    _, p, (_, _, q1), _ = _WEIGHTS[weight]
    return mom_max + max(p, q1 != 0.0) + 1


def _real_lane_units(s: ComplexParam, T: float, nterms: int, mom_max: int) -> float | None:
    """The real lane's rounding constant K, in units of _EPS, for B_0..B_mom_max
    of a weight that reads F_0..F_{nterms-1} over [1, T]; None puts the
    transform on the complex lane: s not real, sigma <= 1, or a term that
    could fall below exp(-_MIN_LOG_F).

    The count is in units of u = 2^-53 of each term's absolute value (of
    |phi| sum |c_k k^(1-s) log^r k| for an interior block sum), to first
    order, with l = 2 _FN_ULPS for one log, exp or power:

    - log k and log y carry l.  a = 1 - sigma and a log t add 2 roundings,
      which exp amplifies by |a log t| <= (sigma - 1) log T, and exp adds l:
      E = t^(1-s) carries e = (sigma - 1) log T (l + 2) + l.
    - phi^p_jl = (-1)^(p+l) N / a^m, m = p + l + 1 <= nterms, with an exact
      integer N, is 1/a (2), m - 1 products (3 each) and the product with N
      (1): at most 3 nterms.
    - Interior: c_k = mu(k)/k (1), c_k E (1), each factor log k (l + 1) up to
      log^mom k, numpy's pairwise block sum (8 accumulators over at most 128
      terms, then halving: at most 26 + ceil(log2(_BLOCK + 1)) additions per
      term) and the product with phi (1).
    - Boundary and Q terms: F_i = E sum_l phi^0_il u^(i-l), u = log y, with
      u^(i-l) from i - l - 1 products and phi u^(i-l) ((i - l)(l + 1)), i
      additions of terms of one sign (for sigma > 1, a < 0 and u >= 0, so
      every phi^p_jl u^(j-l) has the sign of -1) and E times the sum (1):
      (nterms - 1)(l + 2) + 1 over E and phi; the coefficient
      C(p, i) (-1)^(p-i) M + q_i (1: the product is exact, the sum rounds
      once) and its product with F_{j+i} (1).
    - B_j is one math.fsum of all these terms, one rounding of |B_j|; cond's
      own rounding is second order; with the radius expression, 3.

    Every interior term has the sign of -phi c_k, so on the real lane cond is
    sum |term| itself; the radius adds the prefix moments' radii times |F|
    and |q_gamma| |gamma - GAMMA_F| |F_j| at x and T, exactly as propagated.
    """
    sigma = s.sigma
    if s.tau != 0.0 or not sigma > 1.0:
        return None
    # |c_k k^(1-s)| >= T^(-sigma) and |phi| >= max(sigma - 1, 1)^(-nterms)
    if sigma * math.log(T) + nterms * math.log(max(sigma - 1.0, 1.0)) > _MIN_LOG_F:
        return None
    fn = 2.0 * _FN_ULPS
    e = (sigma - 1.0) * math.log(T) * (fn + 2.0) + fn
    depth = 26 + math.ceil(math.log2(_BLOCK + 1))
    interior = 2.0 + mom_max * (fn + 1.0) + depth + 1.0
    boundary = (nterms - 1) * (fn + 2.0) + 1.0 + 2.0
    return (e + 3.0 * nterms + max(interior, boundary) + 3.0) / 2.0


def _phi(inv, p: int, j: int) -> list:
    """[phi^p_jl for l = 0..j] at inv = 1/(1 - s): Phi_j(k) = k^(1-s) sum_l
    phi^p_jl log^(j-l) k, and F_j(t) = t^(1-s) sum_l phi^0_jl log^(j-l) t."""
    out = []
    for l in range(j + 1):
        power = inv
        for _ in range(p + l):
            power = power * inv
        out.append((-1) ** (p + l) * math.perm(p + l, p) * math.perm(j, l) * power)
    return out


def _antiderivatives(a, inv, y: float, n: int) -> list[tuple]:
    """(F_i(y), its absolute condition |y^(1-s)| sum_l |phi^0_il| u^(i-l)) for
    i < n, u = log y."""
    u = math.log(y)
    E = (cmath.exp if isinstance(a, complex) else math.exp)(a * u)
    out = []
    for i in range(n):
        value = cond = 0.0
        for l, c in enumerate(_phi(inv, 0, i)):
            upow = 1.0
            for _ in range(i - l):
                upow = upow * u
            value = value + c * upow
            cond = cond + abs(c) * upow
        out.append((E * value, abs(E) * cond))
    return out


def _fsum(terms) -> complex:
    return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))


class _Cell:
    """One transform's block sums over the stream, and its lane: sm, and with
    it a = 1 - s, is a float on the real lane, a complex on the complex lane."""

    def __init__(self, tt: TruncatedTransform):
        self.tt = tt
        self.nterms = _nterms(tt.weight, tt.mom_max)
        units = _real_lane_units(tt.s, tt.T, self.nterms, tt.mom_max)
        self.sm = tt.s.sigma if units is not None else complex(tt.s.sigma, tt.s.tau)
        self.units = _BLANKET_UNITS if units is None else units
        self.a = 1.0 - self.sm
        self.Nx = math.floor(tt.x)
        # block sums of c_k k^(1-s) log^r k and of |.|: over the jumps k > x
        # for r <= mom_max, over k <= x for the mu sums (and |.| r = 2 on the real lane)
        self.S = [[] for _ in range(tt.mom_max + 1)]
        self.A = [[] for _ in range(tt.mom_max + 1)]
        self.muS, self.muA = [[], []], [[] for _ in range(3 if units is not None else 2)]

    def finish(self, need_mu: bool) -> None:
        """Set the transform's basis values and mu power sums, with radii."""
        tt = self.tt
        _, p, (q0, q_gamma, q1), reads = _WEIGHTS[tt.weight]
        q0 += q_gamma * GAMMA_F
        inv = 1.0 / self.a
        ends = [(1.0, tt.at_T, _antiderivatives(self.a, inv, tt.T, self.nterms)),
                (-1.0, tt.at_x, _antiderivatives(self.a, inv, tt.x, self.nterms))]
        tt.basis = []
        for j in range(tt.mom_max + 1):
            terms, cond, rad = [], 0.0, 0.0
            for sign, point, F in ends:
                # F_{j+i}(y) carries C(p, i) (-1)^(p-i) M_{p-i}(y) and Q's u^i
                # coefficient together, so that sl + 1 -> 0 cancels before
                # the product, not across the fsum
                for i in range(self.nterms - tt.mom_max):
                    coef = (q0, q1, 0.0)[i]
                    if i <= p:
                        M, M_r = point[reads[p - i]]
                        coef += math.comb(p, i) * (-1.0) ** (p - i) * M
                        rad += math.comb(p, i) * M_r * abs(F[j + i][0])
                    terms.append(sign * coef * F[j + i][0])
                    cond += abs(coef) * F[j + i][1]
                rad += abs(q_gamma) * _GAMMA_GAP * abs(F[j][0])
            for l, phi in enumerate(_phi(inv, p, j)):
                terms.extend(-phi * S for S in self.S[j - l])
                cond += abs(phi) * math.fsum(self.A[j - l])
            B = _fsum(terms)
            tt.basis.append(ApproxValue(B, radd(_EPS * self.units * (cond + abs(B)), rad),
                                        RIGOROUS, 53))
        if need_mu:
            self._mu_sums()

    def _mu_sums(self) -> None:
        """mu_power_x = sum_{n<=x} mu(n) n^(-s) and mu_logpower_x = sum_{n<=x}
        mu(n) n^(-s) log(x/n) from S_0, S_1, the fsums of the r = 0, 1 block
        sums of t_k = c_k k^(1-s) log^r k over the jumps k <= x.

        Real-lane radius, in u = 2^-53 of each |t_k|, to first order, with
        l = 2 _FN_ULPS per log or exp: c_k (1); the exponent a log k carries
        log k's l, a's and the product's roundings, which exp turns into
        (l + 2) |a| log k; exp (l); c_k E (1); numpy's pairwise block sum
        (depth = 26 + ceil(log2(_BLOCK + 1))); the fsum (1); the radius
        expression (3).  The log sum adds log k and a product (l + 1).  With
        A_r = sum |t_k| log^r k over k <= x (never bounding log k by log x):

          rad_0 = u ((l + 6 + depth) A_0 + (l + 2) |a| A_1),
          rad_1 = u ((2 l + 7 + depth) A_1 + (l + 2) |a| A_2),

        and log x (l), its product (1) and the difference (1) add
        u ((l + 1) |log x S_0| + |value|) to |log x| rad_0 + rad_1.  The
        complex lane keeps the blanket 64 eps on the same sums of |.|.
        """
        tt = self.tt
        S0, S1 = _fsum(self.muS[0]), _fsum(self.muS[1])
        A = [math.fsum(sums) for sums in self.muA]
        logx = math.log(tt.x)
        v = logx * S0 - S1
        if isinstance(self.a, float):
            u, fn = _EPS / 2, 2.0 * _FN_ULPS
            depth = 26 + math.ceil(math.log2(_BLOCK + 1))
            amp = (fn + 2.0) * abs(self.a)
            rad0 = u * ((fn + 6.0 + depth) * A[0] + amp * A[1])
            rad1 = u * ((2.0 * fn + 7.0 + depth) * A[1] + amp * A[2])
            rad_v = abs(logx) * rad0 + rad1 + u * ((fn + 1.0) * abs(logx * S0) + abs(v))
        else:
            rad0 = _EPS * 64 * A[0]
            rad_v = _EPS * 64 * (abs(logx) * A[0] + A[1] + abs(v))
        tt.mu_power_x = ApproxValue(S0, radd(rad0), RIGOROUS, 53)
        tt.mu_logpower_x = ApproxValue(v, radd(rad_v), RIGOROUS, 53)


def _stream(tts: list[TruncatedTransform]) -> None:
    """Fill transforms that share the jumps c_k and T, of one weight or
    several, from one prefix_columns stream of the union of their columns:
    the point data at x and T from the slices that hold them and, per sieve
    segment, the block sums of its jumps (_segment_blocks).  prefix_columns
    sums each column on its own, and a block's sums depend only on s, so each
    transform equals its weight streamed alone bit for bit."""
    T = tts[0].T
    need_mu = _WEIGHTS[tts[0].weight][0] == "mu"
    reads = list(dict.fromkeys(k for tt in tts for k in _WEIGHTS[tt.weight][3]))
    by_x: dict[float, list[_Cell]] = {}
    by_s: dict[tuple, list[_Cell]] = {}  # by lane and s
    for tt in tts:
        cell = _Cell(tt)
        by_x.setdefault(tt.x, []).append(cell)
        by_s.setdefault((type(cell.a), cell.a), []).append(cell)
    NT = math.floor(T)
    points = {NT: None, **{math.floor(x): None for x in by_x}}  # n -> the columns at n
    buf, segment = work_buffers(_BLOCK), None
    for seg in prefix_columns(NT, reads):
        if seg.segment is not segment:
            segment = seg.segment
            _segment_blocks(segment, need_mu, list(by_s.values()), buf)
        for n in points:
            if seg.lo <= n <= seg.hi:
                points[n] = {k: (seg.cols[k][0][n - seg.lo], seg.cols[k][1][n - seg.lo])
                             for k in reads}
    for x, group in by_x.items():
        for cell in group:
            own = _WEIGHTS[cell.tt.weight][3]
            cell.tt.at_x = {k: points[math.floor(x)][k] for k in own}
            cell.tt.at_T = {k: points[NT][k] for k in own}
            cell.finish(need_mu)


def _segment_blocks(segment: tuple, need_mu: bool, groups: list[list[_Cell]], buf) -> None:
    """Per block of the sieve segment's jumps, k, log k and c_k once, into
    the stream's buffers `buf`, then each group's block sums (_block_sums)."""
    lo, hi, mu = segment
    idx = np.flatnonzero(mu) if need_mu else None
    njumps = len(idx) if need_mu else hi - lo + 1
    # per cell, how many of the segment's jumps lie at or below x
    firsts = [[int(np.searchsorted(idx, cell.Nx - lo, side="right")) if need_mu
               else min(max(cell.Nx - lo + 1, 0), njumps) for cell in group] for group in groups]
    # the mu power sums read every block below x
    start = 0 if need_mu else min(min(f) for f in firsts) // _BLOCK * _BLOCK
    for b0 in range(start, njumps, _BLOCK):
        n = min(_BLOCK, njumps - b0)
        jumps = idx[b0:b0 + n] if need_mu else np.arange(b0, b0 + n)
        k = np.add(jumps, lo, out=buf("k", n))
        ck = np.divide(mu[jumps] if need_mu else 1.0, k, out=buf("c_k", n))
        lk = np.log(k, out=buf("log k", n))
        for group, first in zip(groups, firsts):
            _block_sums(group, first, b0, lk, ck, need_mu, buf)


def _block_sums(group: list[_Cell], firsts: list[int], b0: int, lk: np.ndarray,
                ck: np.ndarray, need_mu: bool, buf) -> None:
    """Add one block's sums of c_k k^(1-s) log^r k and of |.| to the cells of
    `group`, which share s: the jumps above x to S and A, those at or below x
    to muS and muA.  A cell whose x falls inside the block reduces its own
    head and tail; the others share the full block's sums, computed once."""
    n, a = len(lk), group[0].a
    runs = []  # (sums, |.| sums, lo, hi): the block's [lo, hi) for one of a cell's lists
    for cell, first in zip(group, firsts):
        cut = min(max(first - b0, 0), n)  # the block's jumps at or below x
        if cut < n:
            runs.append((cell.S, cell.A, cut, n))
        if need_mu and cut > 0:
            runs.append((cell.muS, cell.muA, 0, cut))
    if not runs:
        return
    w = [buf((type(a), r), n, type(a)) for r in range(max(len(run[1]) for run in runs))]
    np.exp(np.multiply(a, lk, out=w[0]), out=w[0])
    np.multiply(ck, w[0], out=w[0])
    for r in range(1, len(w)):
        np.multiply(w[r - 1], lk, out=w[r])
    aw = [np.abs(v, out=buf(("|w|", r), n)) for r, v in enumerate(w)]
    full = {}  # (|.| or not, r) -> the full block's sum
    for S, A, lo, hi in runs:
        for absolute, arrays, sums in ((False, w, S), (True, aw, A)):
            for r, out in enumerate(sums):
                if hi - lo < n:
                    out.append(np.add.reduce(arrays[r][lo:hi]))
                    continue
                if (absolute, r) not in full:
                    full[absolute, r] = np.add.reduce(arrays[r])
                out.append(full[absolute, r])


# ---------------------------------------------------------------------------
# Residuals of the truncated transform identities.
# ---------------------------------------------------------------------------

def _combine_moment(tt: TruncatedTransform, mom: int) -> ApproxValue:
    """integral_x^T w(t) t^(-s) log^mom(x/t) dt from the basis integrals."""
    logx = math.log(tt.x)
    out = ApproxValue.exact(0.0, 53)
    for i in range(mom + 1):
        coef = math.comb(mom, i) * (-1.0) ** i * logx ** (mom - i)
        out = out + tt.basis[i] * ApproxValue.exact(coef, 53)
    return out


class TransformIdentity:
    """A truncated transform identity: the transform it reads (weight and
    moments), the half-plane it holds on (Re s > sigma_gt, and s != 1 with
    not_one), and `sides(tts, precision)`, which finishes the (lhs, rhs) of
    streamed transforms that share x."""

    def __init__(self, weight: str, mom_max: int, sigma_gt: float, what: str,
                 sides: Callable[[list, int], list], not_one: bool = False):
        self.weight, self.mom_max, self.sigma_gt = weight, mom_max, sigma_gt
        self.what, self.sides, self.not_one = what, sides, not_one


def transform_cells(identity: TransformIdentity, pairs, T: float | None = None) -> list[tuple]:
    """The (weight, T, s, x, mom) cell that transform_sides(identity, pairs,
    T) reads for each (s, x) pair: truncated at T, or else at default_T(x).
    Raises DomainError for a pair outside the identity's domain or x outside
    [1, T]."""
    cells = []
    for s, x in pairs:
        sp = ComplexParam.coerce(s)
        sp.require_sigma_gt(identity.sigma_gt, identity.what)
        if identity.not_one:
            sp.require_not_one(identity.what)
        T_cell = float(T or default_T(x))
        _require_range(x, T_cell)
        cells.append((identity.weight, T_cell, sp, float(x), identity.mom_max))
    return cells


def transform_sides(identity: TransformIdentity, pairs, T: float | None = None,
                    precision: int = PRECISION) -> list[tuple]:
    """The sides of every (s, x) pair, in pair order, from the cells of
    transform_cells; the cells at one x share one identity.sides call.  A
    cell the store holds is read from it; the others with the same
    truncation point share one stream (stored_transforms).  Different points
    are never merged into one longer stream, which would change the radii of
    the shorter ones."""
    cells = transform_cells(identity, pairs, T)
    with stored_transforms(cells):
        tts = [_STORE[cell] for cell in cells]
    by_x: dict = {}
    for i, cell in enumerate(cells):
        by_x.setdefault(cell[3], []).append(i)
    out = [None] * len(cells)
    for members in by_x.values():
        for i, sides in zip(members, identity.sides([tts[i] for i in members], precision)):
            out[i] = sides
    return out


def _each(sides: Callable[[TruncatedTransform, int], tuple]) -> Callable[[list, int], list]:
    """An identity's batch sides that finish each transform on its own."""
    return lambda tts, precision: [sides(tt, precision) for tt in tts]


def smoothed_rhs(head: ApproxValue, v, x1s, sm1, mom: int, p: int) -> ApproxValue:
    """head + sum_{mom<=i<=p} (s-1)^(i-mom)/(i-mom)! w_i(x) x^(1-s), with
    v[i] = w_i(x) and sm1 = s - 1: the smoothed family's right side."""
    out = head
    for i in range(mom, p + 1):
        k = i - mom  # k = 0 takes no factor exact(1), whose product would inflate the radius
        out = out + (v[i] * ApproxValue.exact(x1s) if k == 0 else
                     ApproxValue.exact(sm1 ** k / math.factorial(k) * x1s) * v[i])
    return out


def _smoothed_sides(p: int, mom: int) -> Callable[[TruncatedTransform, int], tuple]:
    """sides(tt, precision) of the smoothed family's member (p, mom) (module
    docstring), the lhs widened by the bound on its integrals beyond T."""
    def sides(tt: TruncatedTransform, precision: int):
        sp, x, T = tt.s, tt.x, tt.T
        D, E = tt.tail_coeffs(p)
        sm1 = abs(complex(sp.sigma - 1.0, sp.tau))
        a = (p + 1) * sm1 ** p / math.factorial(p)
        b = sm1 ** (p + 1) / math.factorial(p)
        pt = lambda j: power_log_tail(sp.sigma, T, j)
        LTx = math.log(T / x)
        if p < 2:  # E = 0, and D factors out
            tail = b * D * pt(0) if mom == 0 else D * (a * pt(0) + b * (pt(1) + LTx * pt(0)))
        else:
            tail0 = D * pt(0) + E * pt(1)
            tail = b * tail0 if mom == 0 else \
                a * tail0 + b * (D * (pt(1) + LTx * pt(0)) + E * (pt(2) + LTx * pt(1)))
        z, zp = zeta_em(sp, IDENTITY_TARGET, precision=precision)
        with mpmath.mp.workprec(precision + 32):
            smc1 = sp.as_mpc() - 1
            top = ApproxValue.exact(smc1 ** (p + 1) / math.factorial(p))
            if mom == 0:
                lhs = top * tt.basis[0]
                head = ApproxValue.exact(1) / z - tt.mu_power_x
            else:  # a = 1 at p = 0 takes no factor exact(1)
                lead = tt.basis[0] if p == 0 else \
                    ApproxValue.exact((p + 1) * smc1 ** p / math.factorial(p)) * tt.basis[0]
                lhs = lead + top * _combine_moment(tt, 1)
                head = (ApproxValue.exact(mpmath.log(mpf(x))) / z - zp / (z * z)
                        - tt.mu_logpower_x)
            x1s = _x1s(sp, x)
            vx = tt.values_at_x()
            rhs = smoothed_rhs(head, [vx[w] for w in SMOOTHED_WEIGHTS[:p + 1]], x1s, smc1, mom, p)
        return lhs.widened(tail), rhs
    return sides


def _har_sides(tt: TruncatedTransform, precision: int):
    """(s-1) integral_t^inf (H - log - gamma) u^{-s} du
    = zeta - sum_{n<=t} n^{-s} - t^{1-s}/(s-1) + (H(t)-log t-gamma)/t^{s-1},
    at t = tt.x."""
    sp, t, T = tt.s, tt.x, tt.T
    tail = abs(complex(sp.sigma - 1, sp.tau)) * _HGAP_SUP * T ** (-sp.sigma) / sp.sigma
    with mpmath.mp.workprec(precision + 32):
        smc = sp.as_mpc()
        lhs = ((ApproxValue.exact(smc) - 1) * tt.basis[0]).widened(tail)
        z, _ = zeta_em(sp, IDENTITY_TARGET, precision=precision, want_derivative=False)
        psum = partial_power_sum(sp, t, precision)
        tm = mpf(t)
        hgap = tt.values_at_x()["H"] - ApproxValue.exact(
            mpmath.log(tm) + gamma_const(precision))
        rhs = (z - psum - ApproxValue.exact(mpmath.power(tm, 1 - smc) / (smc - 1))
               + hgap * ApproxValue.exact(mpmath.power(tm, 1 - smc)))
    return lhs, rhs


MTRONQ = TransformIdentity(WEIGHT_M, 0, 1.0, "m-tail transform", _each(_smoothed_sides(0, 0)))
MTRONQCH = TransformIdentity(WEIGHT_MCHECK1, 0, 1.0, "m-check tail transform",
                             _each(_smoothed_sides(1, 0)))
MTRONQCHCH = TransformIdentity(WEIGHT_MDNORM, 0, 1.0, "m-double-check tail transform",
                               _each(_smoothed_sides(2, 0)))
DERIVK1 = TransformIdentity(WEIGHT_M, 1, 1.0, "derived m transform",
                            _each(_smoothed_sides(0, 1)))
DERIVK2 = TransformIdentity(WEIGHT_MCHECK1, 1, 1.0, "derived m-check transform",
                            _each(_smoothed_sides(1, 1)))
DERIVK3 = TransformIdentity(WEIGHT_MDNORM, 1, 1.0, "derived m-double-check transform",
                            _each(_smoothed_sides(2, 1)))
#: the family's members by (mom, p)
SMOOTHED = ((MTRONQ, MTRONQCH, MTRONQCHCH), (DERIVK1, DERIVK2, DERIVK3))
HAR = TransformIdentity(WEIGHT_HGAP, 0, 0.0, "harmonic-gap transform", _each(_har_sides),
                        not_one=True)


def ent_residual(cells, precision: int = PRECISION) -> list:
    """Per (s, t): s integral_t^inf (floor(u)-u+1/2) u^{-s-1} du
    = zeta - sum_{n<=t} n^{-s} - t^{1-s}/(s-1) + (floor(t)-t+1/2)/t^s."""
    out = []
    for s, t in cells:
        sp = ComplexParam.coerce(s)
        sp.require_sigma_gt(0.0, "floor-gap transform")
        sp.require_not_one("floor-gap transform")
        J = frac_tail_integral(sp, t, IDENTITY_TARGET, precision=precision)
        with mpmath.mp.workprec(precision + 32):
            smc = sp.as_mpc()
            lhs = ApproxValue.exact(-smc) * J
            z, _ = zeta_em(sp, IDENTITY_TARGET, precision=precision, want_derivative=False)
            psum = partial_power_sum(sp, t, precision)
            tm = mpf(t)
            rhs = (z - psum - ApproxValue.exact(mpmath.power(tm, 1 - smc) / (smc - 1))
                   + ApproxValue.exact((mpmath.floor(tm) - tm + mpf(1) / 2)
                                       * mpmath.power(tm, -smc)))
        out.append((lhs, rhs))
    return out


def _mieux2_sides(tts: list[TruncatedTransform], prec: int) -> list[tuple]:
    """Per transform, at the x all of `tts` share:
    zeta(s)(sum mu/n^s - m/x^{s-1} - (s-1)(mcheck-1)/x^{s-1}) - 1  vs
    (s-1)/x^{s-1} (mdd/2 - log x + sign*gamma)
      + (s-1)/x^{s-1} integral [mcheck(x/t)-1] Q_s dt/t^2
      - (s-1)^2 integral_x^inf (log t - H + gamma) t^{-s} dt.

    Each is (lhs, rhs with sign +1, rhs with sign -1), adjudicating the
    printed-sign question: +1 closes the identity.  The cells share one
    snapshot, one m-check factor and one walk.
    """
    x = tts[0].x
    out = []
    with mpmath.mp.workprec(prec + 32):
        g = gamma_const(prec)
        snap = summatory(x, mode="mp", precision=prec)
        mcheck1 = mcheck_minus_one_factor(x, prec)
        over_t2 = PowLogSum.monomial(mpf(1), mpf(-2), 0)
        convs = integrate_partitions(
            x, [[mcheck1, KernelFactor(KernelSpec(Q, tt.s), prec, IDENTITY_TARGET), over_t2]
                for tt in tts], precision=prec)
        logx = mpmath.log(mpf(x))
        for tt, conv in zip(tts, convs):
            sp, T = tt.s, tt.T
            smc = sp.as_mpc()
            z, _ = zeta_em(sp, IDENTITY_TARGET, precision=prec, want_derivative=False)
            msum = mu_power_sum(x, sp, prec)
            x1s_a = ApproxValue.exact(_x1s(sp, x))
            lhs = z * (msum - snap.m * x1s_a
                       - ApproxValue.exact(smc - 1) * (snap.m_check - 1) * x1s_a) - 1
            # integral_x^inf (log t - H + gamma) t^{-s} dt = -(hgap transform)
            hterm = -tt.basis[0]
            hterm = hterm.widened(_HGAP_SUP * T ** (-sp.sigma) / sp.sigma)
            rhs = []
            for gamma_sign in (+1, -1):
                paren = (snap.m_dcheck * ApproxValue.exact(mpf(1) / 2)
                         - ApproxValue.exact(logx) + ApproxValue.exact(gamma_sign * g))
                rhs.append(ApproxValue.exact(smc - 1) * x1s_a * paren
                           + ApproxValue.exact(smc - 1) * x1s_a * conv
                           - ApproxValue.exact((smc - 1) ** 2) * hterm)
            out.append((lhs, *rhs))
    return out


MIEUX2 = TransformIdentity(WEIGHT_HGAP, 0, 0.0, "smoothed kernel identity", _mieux2_sides,
                           not_one=True)
