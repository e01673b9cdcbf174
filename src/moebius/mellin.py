"""Truncated transform identities: tails of the summatory functions against
t^(-s), evaluated exactly piecewise over [x, T] plus a rigorous bound on the
remaining tail, compared with their closed forms in 1/zeta and zeta'/zeta^2.

The [x, T] integrals stream the sieve in segments and run vectorized numpy
arithmetic in one of two lanes: float64 when s is real with sigma > 1 (every
registry cell), complex128 otherwise.  Within a segment the pieces are walked
in blocks of at most _BLOCK, small enough for the work arrays to stay in L2:
the leaves of numpy's own pairwise-sum tree, whose sums combine up that tree
into np.sum of the whole segment bit for bit.  Per-piece antiderivatives are
closed-form, and the radius covers the vector rounding (via absolute-magnitude
condition sums, with a rounding constant derived for the real lane and a
blanket one for the complex lane), the compensated prefix radii of the
weights, and the tail bound built from the imported explicit estimates
(|m(t)| <= 0.0130073/log t for t >= 97063 and the step-function conversion
lemma for the smoothed weights).
"""

from __future__ import annotations

import math
from typing import Callable

import mpmath
import numpy as np
from mpmath import mpf

from .approx import PRECISION, ApproxValue, RIGOROUS, radd
from .constants import (HARMONIC_LOWER, LITTLE_M_OVER_LOG, gamma_const)
from .errors import DomainError
from .identities import mu_power_sum, _x_pows
from .kernels import Q, KernelSpec, frac_tail_integral
from .piecewise import KernelFactor, integrate_m_kernel
from .sieve import DEFAULT_SEGMENT
from .summatory import prefix_columns, summatory
from .zeta import ComplexParam, partial_power_sum, zeta_em

_EPS = 2.0**-52
#: the complex lane's rounding constant, in units of _EPS: a blanket, not derived
_BLANKET_UNITS = 1024.0
#: the accuracy assumed of numpy's float64 log, exp and power, in ulp
_FN_ULPS = 4
#: the real lane keeps every piece value above exp(-_MIN_LOG_F), so nothing underflows
_MIN_LOG_F = 600.0
_GAMMA_F = float(gamma_const(64))
_HGAP_SUP = abs(HARMONIC_LOWER)  # |H(t) - log t - gamma| <= 0.5408 / t
#: the most pieces the transform kernel holds at once: its work arrays stay in L2
_BLOCK = 16384

WEIGHT_M = "m"
WEIGHT_MCHECK1 = "mcheck1"
WEIGHT_MDNORM = "mdnorm"
WEIGHT_HGAP = "hgap"

#: weight -> (the prefix columns it reads, its coefficients c_k in
#: w = sum_k c_k log^k t on [n, n+1) as (values, radii) from the columns at n).
#: I0 bounds the m-check tail beyond T.  mdnorm's constant coefficient, which
#: tends to 0, also carries 2 |gamma - _GAMMA_F| < _EPS.
_WEIGHTS = {
    WEIGHT_M: (("m",), lambda c: [c["m"]]),
    WEIGHT_MCHECK1: (("m", "sl", "I0"),
                     lambda c: [(-c["sl"][0] - 1.0, c["sl"][1]), c["m"]]),
    WEIGHT_MDNORM: (("m", "sl", "sl2", "I0"),
                    lambda c: [(c["sl2"][0] + 2.0 * _GAMMA_F, c["sl2"][1] + _EPS),
                               (-2.0 * c["sl"][0] - 2.0, 2.0 * c["sl"][1]), c["m"]]),
    WEIGHT_HGAP: (("H",), lambda c: [(c["H"][0] - _GAMMA_F, c["H"][1]),
                                     (-np.ones_like(c["H"][0]), np.zeros_like(c["H"][0]))]),
}


def default_T(x: float, cap: float = 1e7) -> int:
    return int(min(max(1e6, 1e3 * x), cap))


def power_log_tail(sigma: float, T: float, j: int) -> float:
    """integral_T^inf t^(-sigma) log^j(t/T) dt = j! T^(1-sigma)/(sigma-1)^(j+1)."""
    if sigma <= 1:
        raise DomainError("power-log tail needs sigma > 1")
    return math.factorial(j) * T ** (1.0 - sigma) / (sigma - 1.0) ** (j + 1)


class TruncatedTransform:
    """Basis integrals B_j = integral_x^T w(t) t^(-s) log^j t dt for
    j = 0..mom_max, plus the prefix point data at x and T.

    The weight w is m, m-check - 1, the normalized m-double-check, or the
    harmonic gap H - log - gamma; each is an exact log-polynomial on [n, n+1)
    in the prefix columns it reads (_WEIGHTS).  A transform is one stream of
    [1, floor(T)]; truncated_transforms shares that stream between cells.
    """

    def __init__(self, s, x: float, T: float, weight: str, mom_max: int = 0):
        self._describe(s, x, T, weight, mom_max)
        _stream([self])

    def _describe(self, s, x: float, T: float, weight: str, mom_max: int):
        if not (1 <= x <= T):
            raise DomainError("need 1 <= x <= T")
        self.s = ComplexParam.coerce(s)
        self.x = float(x)
        self.T = float(T)
        self.weight = weight
        self.mom_max = mom_max
        return self

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
            md = logx ** 2 * m - 2 * logx * sl + sl2 - 2 * logx + 2 * _GAMMA_F
            out["mdnorm"] = av(md, logx ** 2 * m_r + 2 * abs(logx) * sl_r + sl2_r
                               + _EPS * 16 * (logx ** 2 * abs(m) + abs(logx * sl)
                                              + abs(md) + abs(logx)))
        return out

    def values_at_x(self):
        return self._point(self.at_x, self.x)

    def values_at_T(self):
        return self._point(self.at_T, self.T)

    # tail coefficients -----------------------------------------------------

    def sup_m_beyond_T(self) -> float:
        c, t0 = LITTLE_M_OVER_LOG
        if self.T < t0:
            raise DomainError(f"|m| tail coefficient needs T >= {t0}")
        return c / math.log(self.T)

    def sup_mcheck1_beyond_T(self) -> float:
        """sup_{t>=T} |m-check(t)-1| <= I0(T)/T + c/log T + 1/T^2 via the
        step-conversion lemma plus the imported |m| bound."""
        I0, I0r = self.at_T["I0"]
        return (I0 + I0r) / self.T + self.sup_m_beyond_T() + 1.0 / self.T ** 2

    def mdnorm_tail_coeffs(self) -> tuple[float, float]:
        """(D, E): |mdd(t) - 2log t + 2gamma| <= D + E log(t/T) for t >= T."""
        vT = self.values_at_T()["mdnorm"]
        return abs(float(vT.value)) + vT.radius, 2.0 * self.sup_mcheck1_beyond_T()


def truncated_transforms(weight: str, T: float, cells) -> list[TruncatedTransform]:
    """TruncatedTransform(s, x, T, weight, mom_max) for each (s, x, mom_max)
    in `cells`, from one stream of [1, floor(T)]; each equals the transform
    built alone bit for bit."""
    tts = [TruncatedTransform.__new__(TruncatedTransform)._describe(s, x, T, weight, mom)
           for s, x, mom in cells]
    if tts:
        _stream(tts)
    return tts


def _real_lane_units(s: ComplexParam, T: float, nterms: int, ncols: int) -> float | None:
    """The real lane's rounding constant, in units of _EPS, for F_0..F_{nterms-1}
    and ncols weight coefficients over [1, T] (derived in _add_pieces'
    docstring); None puts the transform on the complex lane: s not real,
    sigma <= 1, or a piece value that could fall below exp(-_MIN_LOG_F)."""
    sigma = s.sigma
    if s.tau != 0.0 or not sigma > 1.0:
        return None
    amp = (sigma - 1.0) * math.log(T)  # max |(1 - s) log t| over [1, T]
    # |f| >= T^(1-sigma) |G_i| and |G_i| >= max(sigma - 1, 1)^(-nterms)
    if amp + nterms * math.log(max(sigma - 1.0, 1.0)) > _MIN_LOG_F:
        return None
    fn = 2.0 * _FN_ULPS  # one log, exp or power, in units of u = 2^-53
    g = 2.0
    for i in range(1, nterms):
        g = max((i + 1) * fn, g + 1.0) + 3.0
    f = amp * (fn + 2.0) + fn + g + 1.0  # E, G and f = E G
    piece = f + 1.0 + 1.0 + 3.0  # dF, the product with c_k and forming c_k
    NT = math.floor(T)
    depth = 26 + math.ceil(math.log2(min(NT, DEFAULT_SEGMENT) + 1))  # np.sum's tree
    adds = -(-NT // DEFAULT_SEGMENT) * ncols  # B's segment sums
    return (piece + depth + adds + 5.0) / 2.0  # 5: cond, sens and the radius expression


class _Sums:
    """One transform's accumulators over the stream, and its lane: sm is a
    float on the real lane, a complex on the complex lane."""

    def __init__(self, tt: TruncatedTransform, ncols: int):
        self.tt = tt
        units = _real_lane_units(tt.s, tt.T, tt.mom_max + ncols, ncols)
        if units is None:
            self.sm = complex(tt.s.sigma, tt.s.tau)
            self.units, self.sens_units = _BLANKET_UNITS, 0.0
        else:
            self.sm = tt.s.sigma
            self.units = self.sens_units = units
        # (i, j) of each term c_{i-j} [F_i] of B_j, in the order the terms are summed
        self.pairs = [(i, j) for i in range(tt.mom_max + ncols)
                      for j in range(max(0, i - ncols + 1), min(i, tt.mom_max) + 1)]
        self.B = np.zeros(tt.mom_max + 1, dtype=np.complex128)
        self.cond = np.zeros(tt.mom_max + 1)
        self.sens = np.zeros(tt.mom_max + 1)
        self.musum = self.mulogsum = 0.0 + 0.0j
        self.musum_abs = self.mulog_abs = 0.0

    def finish(self, need_mu: bool) -> None:
        """Set the transform's basis values and mu power sums, with radii."""
        tt = self.tt
        tt.basis = []
        for j in range(tt.mom_max + 1):
            rad = _EPS * (self.units * (self.cond[j] + abs(self.B[j]))
                          + self.sens_units * self.sens[j]) + self.sens[j]
            tt.basis.append(ApproxValue(self.B[j], radd(rad), RIGOROUS, 53))
        if need_mu:
            tt.mu_power_x = ApproxValue(self.musum, radd(_EPS * 64 * self.musum_abs),
                                        RIGOROUS, 53)
            logx = math.log(tt.x)
            v = logx * self.musum - self.mulogsum
            tt.mu_logpower_x = ApproxValue(
                v, radd(_EPS * 64 * (abs(logx) * self.musum_abs + self.mulog_abs + abs(v))),
                RIGOROUS, 53)


def _stream(tts: list[TruncatedTransform]) -> None:
    """Fill transforms that share the weight and T from one prefix_columns
    stream.  Per segment and distinct x, _pieces builds the breakpoints, log t
    and weight coefficients once per block; each transform keeps its own sums."""
    weight, T = tts[0].weight, tts[0].T
    reads, coefficients = _WEIGHTS[weight]
    need_mu = weight != WEIGHT_HGAP
    ncols = len(coefficients(dict.fromkeys(reads, (np.zeros(0), np.zeros(0)))))
    by_x: dict[float, list[_Sums]] = {}
    for tt in tts:
        by_x.setdefault(tt.x, []).append(_Sums(tt, ncols))
    NT = math.floor(T)
    at_T, at_x = {}, dict.fromkeys(by_x)
    for seg in prefix_columns(NT, reads):
        c = seg.cols
        point = lambda idx: {k: (c[k][0][idx - seg.lo], c[k][1][idx - seg.lo]) for k in reads}
        if seg.lo <= NT <= seg.hi:
            at_T = point(NT)
        for x, group in by_x.items():
            Nx = math.floor(x)
            if seg.lo <= Nx <= seg.hi:
                at_x[x] = point(Nx)
            if need_mu and seg.lo <= Nx:
                _mu_power_sums(seg, Nx, group)
            _pieces(seg, x, T, reads, coefficients, group)
    for x, group in by_x.items():
        for acc in group:
            acc.tt.at_x, acc.tt.at_T = dict(at_x[x]), dict(at_T)
            acc.finish(need_mu)


def _mu_power_sums(seg, Nx: int, group: list[_Sums]) -> None:
    """sum mu(n) n^(-s) and sum mu(n) n^(-s) log n over this segment's n <= x."""
    sl_n = slice(0, min(Nx, seg.hi) - seg.lo + 1)
    logs = seg.logs[sl_n]
    mu = seg.mu[sl_n]
    for acc in group:
        pw = np.exp(-complex(acc.sm) * logs) * mu
        acc.musum += complex(np.add.reduce(pw))
        acc.musum_abs += float(np.add.reduce(np.abs(pw)))
        pwl = pw * logs
        acc.mulogsum += complex(np.add.reduce(pwl))
        acc.mulog_abs += float(np.add.reduce(np.abs(pwl)))


#: where numpy's pairwise sum splits n terms, by dtype kind: float64 halves n
#: down to a multiple of 8; complex128 does that to its 2n scalars
_SPLIT = {"f": lambda n: n // 2 - n // 2 % 8, "c": lambda n: (n - n % 8) // 2}


def _leaves(n: int, kind: str, lo: int = 0) -> list[tuple[int, int]]:
    """(start, stop) of the nodes of numpy's pairwise-sum tree over n terms of
    dtype kind `kind` that hold at most _BLOCK terms and whose parent holds
    more, in order."""
    if n <= _BLOCK:
        return [(lo, lo + n)]
    h = _SPLIT[kind](n)
    return _leaves(h, kind, lo) + _leaves(n - h, kind, lo + h)


def _tree_sum(n: int, kind: str, sums):
    """np.sum of n terms from the np.sum of each of _leaves(n, kind), taken
    from the iterator `sums` in order (arrays add elementwise): the leaves
    combine left + right up numpy's own tree, so every bit is np.sum's."""
    def node(n):
        if n <= _BLOCK:
            return next(sums)
        h = _SPLIT[kind](n)
        left = node(h)
        return left + node(n - h)
    return 0.0 + node(n)  # np.sum adds its tree to 0, which turns -0.0 into 0.0


def _spans(blocks: list, leaves: list) -> list[list[tuple]]:
    """Each block's parts in `leaves` (another partition of the same range):
    (start, stop) within the block, the part's offset in its leaf, and whether
    the part ends that leaf."""
    out, k = [], 0
    for a, b in blocks:
        parts, pos = [], a
        while pos < b:
            start, stop = leaves[k]
            end = min(b, stop)
            parts.append((pos - a, end - a, pos - start, end == stop))
            k += end == stop
            pos = end
        out.append(parts)
    return out


def _pieces(seg, x: float, T: float, reads, coefficients, group: list[_Sums]) -> None:
    """Add the pieces of [x, T] in this segment to each transform's basis sums.

    The n pieces are walked in blocks of at most _BLOCK: the leaves of numpy's
    pairwise-sum tree over n float64 terms.  Per block the breakpoints, log t,
    lb^i, the weight's coefficients and |w| are made once, and every transform
    of the group runs over them with block-sized work arrays, so each pass
    stays in cache.  Each sum takes one np.add.reduce (np.sum without its
    Python wrapper) per leaf of its tree, and _tree_sum combines the leaf
    sums up that tree: np.sum of the segment's terms bit for bit.  cond and
    sens, and B on the real lane, are float64 sums over the blocks
    themselves.  B's complex128 products on the complex lane have a tree over
    2n scalars with other leaves, so they are staged per (i, j) in a
    leaf-sized buffer and summed as each leaf fills.  The segment
    sums reach B, cond and sens in acc.pairs order, as the np.sum of each
    whole segment did, so no value, radius or real-lane constant moves."""
    lo_t = max(x, float(seg.lo))
    hi_t = min(T, float(seg.hi + 1))
    if lo_t >= hi_t:
        return
    # piece p is [t_p, t_{p+1}) inside [n, n+1) for n = first_n + p, with
    # t_0 = lo_t, t_p = first_n + p between, and t_n = hi_t
    first_n = math.floor(lo_t)
    n = math.ceil(hi_t) - first_n
    leaves = {kind: _leaves(n, kind) for kind in _SPLIT}
    blocks = leaves["f"]
    spans = {kind: _spans(blocks, leaves[kind]) for kind in _SPLIT}
    size = max(b - a for a, b in blocks)
    csize = max(b - a for a, b in leaves["c"])
    real_stage = np.empty(size)  # every real-lane part ends its leaf, so one buffer serves all
    work: dict = {}
    # per transform: its lane's dtype kind, work arrays, cond/sens leaf sums,
    # B's leaf sums and B's staging buffers
    state = []
    for acc in group:
        dtype = np.result_type(acc.sm, 1.0)  # the lane
        if dtype not in work:
            work[dtype] = ([np.empty(size + 1, dtype) for _ in range(4)]  # t, E, G, f
                           + [np.empty(size + 1), np.empty(size, dtype)]  # |f|, dF
                           + [np.empty(size) for _ in range(2)])  # aF, w aF
        stage = ({ij: np.empty(csize, dtype) for ij in acc.pairs} if dtype.kind == "c"
                 else dict.fromkeys(acc.pairs, real_stage))
        state.append((dtype.kind, work[dtype], [], [], stage))
    off, c = first_n - seg.lo, seg.cols
    mom_max = max(acc.tt.mom_max for acc in group)
    for blk, (a, b) in enumerate(blocks):
        breaks = np.arange(first_n + a, first_n + b + 1, dtype=np.float64)
        if a == 0:
            breaks[0] = lo_t
        if b == n:
            breaks[-1] = hi_t
        rel = slice(off + a, off + b)
        cols = coefficients({k: (c[k][0][rel], c[k][1][rel]) for k in reads if k != "I0"})
        abs_w = [np.abs(w) for w, _ in cols]
        lb = np.log(breaks)
        lb_pow = {i: lb ** i for i in range(1, mom_max + len(cols))}
        for acc, st in zip(group, state):
            _add_pieces(acc, lb, lb_pow, cols, abs_w, st, spans[st[0]][blk])
    for acc, (kind, _, sums, bsums, _) in zip(group, state):
        cs = _tree_sum(n, "f", iter(sums)).reshape(-1, 2)
        B = _tree_sum(n, kind, iter(bsums))
        for (_, j), b, (cond, sens) in zip(acc.pairs, B, cs):
            acc.B[j] += b
            acc.cond[j] += float(cond)
            acc.sens[j] += float(sens)


def _add_pieces(acc: _Sums, lb: np.ndarray, lb_pow: dict, cols: list, abs_w: list,
                state: tuple, parts: list) -> None:
    """One block of _pieces for one transform, with lb_pow[i] = lb^i and
    state's work arrays, filled in place.  The block's leaf sums of
    |c_k| (|f_{p+1}| + |f_p|) (cond_j) and of the same with the coefficients'
    radii (sens_j) go to state's first list, one array per block in acc.pairs
    order.  The products c_k [F_{j+k}] (B_j) go to state's staging buffer for
    (j + k, j) at the block's `parts` of the leaves of B's tree, and each
    leaf's sums, once it is full, to state's second list.

    F_i = E G_i, with E = t^(1-s), G_0 = 1/(1-s) and G_i = (lb^i - i G_{i-1})/(1-s)
    at lb = log t, is an antiderivative of t^(-s) log^i t.  The arrays take the
    dtype of acc.sm: float64 on the real lane, complex128 on the complex lane;
    B stays complex128.  _Sums.finish makes the radius
    eps (K (cond + |B|) + K_s sens) + sens, eps = 2^-52, from the condition sum
    cond = sum |c_k| (|f_{p+1}| + |f_p|) over pieces p and sens, the same sum
    with the coefficients' radii.  The complex lane takes the blanket K = 1024,
    K_s = 0.  On the real lane K = K_s = _real_lane_units, whose count, in
    units of u = 2^-53 of |f_{p+1}| + |f_p| (or of the whole for the last
    items) and to first order, is:

    - lb carries l = 2 _FN_ULPS (numpy's log, exp and power taken within
      _FN_ULPS ulp); (1 - sigma) lb adds 2 roundings, and exp amplifies that by
      |(1 - sigma) lb| <= (sigma - 1) log T and adds l: E carries
      (sigma - 1) log T (l + 2) + l.
    - G_0 carries 2.  For sigma > 1, 1 - sigma < 0 and lb >= 0, so every
      G_i < 0: lb^i (i l + l) and -i G_{i-1} (g_{i-1} + 1) have one sign, the
      subtraction cannot cancel, and with it, 1 - sigma and the division G_i
      carries max((i + 1) l, g_{i-1} + 1) + 3.
    - f = E G adds 1; dF = f_{p+1} - f_p 1; the product with c_k 1; forming
      c_k from the prefix columns 3: one rounding, and hgap's float gamma,
      |gamma - _GAMMA_F| <= 2^-54 <= 1.2 u (H - gamma) as H - gamma >= 0.42.
    - np.sum's pairwise tree (8 accumulators over blocks of at most 128
      terms, then halving) puts each term through at most 26 + ceil(log2 n)
      additions for n pieces, and B adds one segment sum per column per segment.
      The blocks change none of it: their sums combine up that same tree.
    - cond and sens are rounded sums of the same |f|, so their own error is
      second order; with it and the 4 roundings of the radius expression, 5.

    The same count covers the rounding of sens (K_s).  _real_lane_units keeps
    every |f| above exp(-_MIN_LOG_F), so no step underflows.
    """
    _, work, sums, bsums, stage = state
    m = len(lb)
    t, E, G, f, af = (v[:m] for v in work[:5])
    dF, aF, waF = (v[:m - 1] for v in work[5:])
    mom_max = acc.tt.mom_max
    a = 1.0 - acc.sm
    np.exp(np.multiply(a, lb, out=t), out=E)  # t^{1-s} at the breakpoints
    G.fill(1.0 / a)
    out = []
    closed = [[] for part in parts if part[3]]
    for i in range(mom_max + len(cols)):
        if i:  # G = (lb^i - i G) / (1 - s)
            np.subtract(lb_pow[i], np.multiply(i, G, out=t), out=t)
            np.divide(t, a, out=G)
        np.multiply(E, G, out=f)
        np.subtract(f[1:], f[:-1], out=dF)
        np.abs(f, out=af)
        np.add(af[1:], af[:-1], out=aF)
        for j in range(max(0, i - len(cols) + 1), min(i, mom_max) + 1):
            w, wrad = cols[i - j]
            buf, ended = stage[i, j], 0
            for lo, hi, at, ends in parts:
                np.multiply(w[lo:hi], dF[lo:hi], out=buf[at:at + hi - lo])
                if ends:
                    closed[ended].append(np.add.reduce(buf[:at + hi - lo]))
                    ended += 1
            out.append(np.add.reduce(np.multiply(abs_w[i - j], aF, out=waF)))
            out.append(np.add.reduce(np.multiply(wrad, aF, out=waF)))
    sums.append(np.array(out))
    bsums.extend(np.array(leaf) for leaf in closed)


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
    not_one), and `sides(tt, precision)`, which finishes its (lhs, rhs) from
    the streamed transform."""

    def __init__(self, weight: str, mom_max: int, sigma_gt: float, what: str,
                 sides: Callable[[TruncatedTransform, int], tuple], not_one: bool = False):
        self.weight, self.mom_max, self.sigma_gt = weight, mom_max, sigma_gt
        self.what, self.sides, self.not_one = what, sides, not_one

    def residual(self, s, x: float, T: float | None = None, precision: int = PRECISION):
        return transform_sides(self, [(s, x)], T, precision)[0]


def transform_sides(identity: TransformIdentity, cells, T: float | None = None,
                    precision: int = PRECISION) -> list[tuple]:
    """identity.sides for every (s, x) cell, in cell order.  Cells with the
    same truncation point, T or else default_T(x), share one stream; different
    points are never merged into one longer stream, which would change the
    radii of the shorter ones."""
    groups: dict = {}
    for i, (s, x) in enumerate(cells):
        sp = ComplexParam.coerce(s)
        sp.require_sigma_gt(identity.sigma_gt, identity.what)
        if identity.not_one:
            sp.require_not_one(identity.what)
        groups.setdefault(T or default_T(x), []).append((i, sp, x))
    out = [None] * len(cells)
    for T_cell, members in groups.items():
        tts = truncated_transforms(identity.weight, T_cell,
                                   [(sp, x, identity.mom_max) for _, sp, x in members])
        for (i, _, _), tt in zip(members, tts):
            out[i] = identity.sides(tt, precision)
    return out


def _mtronq_sides(tt: TruncatedTransform, precision: int):
    sp, x, T = tt.s, tt.x, tt.T
    sm1 = abs(complex(sp.sigma - 1.0, sp.tau))
    tail = sm1 * tt.sup_m_beyond_T() * power_log_tail(sp.sigma, T, 0)
    with mpmath.mp.workprec(precision + 32):
        smc = sp.as_mpc()
        lhs = (ApproxValue.exact(smc) - 1) * tt.basis[0]
        lhs = lhs.widened(tail)
        z, _ = zeta_em(sp, 1e-33, precision=precision)
        x1s, _ = _x_pows(sp, x)
        m_x = tt.values_at_x()["m"]
        rhs = ApproxValue.exact(1) / z - tt.mu_power_x + m_x * ApproxValue.exact(x1s)
    return lhs, rhs


def _mtronqch_sides(tt: TruncatedTransform, precision: int):
    sp, x, T = tt.s, tt.x, tt.T
    sm1 = abs(complex(sp.sigma - 1.0, sp.tau))
    tail = sm1 ** 2 * tt.sup_mcheck1_beyond_T() * power_log_tail(sp.sigma, T, 0)
    with mpmath.mp.workprec(precision + 32):
        smc = sp.as_mpc()
        lhs = ((ApproxValue.exact(smc) - 1) * (ApproxValue.exact(smc) - 1) * tt.basis[0]).widened(tail)
        z, _ = zeta_em(sp, 1e-33, precision=precision)
        x1s, _ = _x_pows(sp, x)
        vx = tt.values_at_x()
        rhs = (ApproxValue.exact(1) / z - tt.mu_power_x
               + vx["m"] * ApproxValue.exact(x1s)
               + (ApproxValue.exact(smc) - 1) * vx["mcheck1"] * ApproxValue.exact(x1s))
    return lhs, rhs


def _mtronqchch_sides(tt: TruncatedTransform, precision: int):
    sp, x, T = tt.s, tt.x, tt.T
    sm1 = abs(complex(sp.sigma - 1.0, sp.tau))
    D, E = tt.mdnorm_tail_coeffs()
    tail = sm1 ** 3 / 2.0 * (D * power_log_tail(sp.sigma, T, 0)
                             + E * power_log_tail(sp.sigma, T, 1))
    with mpmath.mp.workprec(precision + 32):
        smc = sp.as_mpc()
        half_cube = ApproxValue.exact((smc - 1) ** 3 / 2)
        lhs = (half_cube * tt.basis[0]).widened(tail)
        z, _ = zeta_em(sp, 1e-33, precision=precision)
        x1s, _ = _x_pows(sp, x)
        vx = tt.values_at_x()
        rhs = (ApproxValue.exact(1) / z - tt.mu_power_x
               + vx["m"] * ApproxValue.exact(x1s)
               + (ApproxValue.exact(smc) - 1) * vx["mcheck1"] * ApproxValue.exact(x1s)
               + ApproxValue.exact((smc - 1) ** 2 / 2 * x1s) * vx["mdnorm"])
    return lhs, rhs


def _deriv_rhs_head(sp: ComplexParam, x: float, precision: int, tt: TruncatedTransform):
    z, zp = zeta_em(sp, 1e-33, precision=precision)
    with mpmath.mp.workprec(precision + 32):
        logx = mpmath.log(mpf(x))
        return (ApproxValue.exact(logx) / z - zp / (z * z) - tt.mu_logpower_x)


def _derivK1_sides(tt: TruncatedTransform, precision: int):
    sp, x, T = tt.s, tt.x, tt.T
    c = tt.sup_m_beyond_T()
    sm1 = abs(complex(sp.sigma - 1.0, sp.tau))
    LTx = math.log(T / x)
    tail = c * (power_log_tail(sp.sigma, T, 0)
                + sm1 * (power_log_tail(sp.sigma, T, 1) + LTx * power_log_tail(sp.sigma, T, 0)))
    with mpmath.mp.workprec(precision + 32):
        smc = sp.as_mpc()
        lhs = (tt.basis[0] + (ApproxValue.exact(smc) - 1) * _combine_moment(tt, 1)).widened(tail)
        rhs = _deriv_rhs_head(sp, x, precision, tt)
    return lhs, rhs


def _derivK2_sides(tt: TruncatedTransform, precision: int):
    sp, x, T = tt.s, tt.x, tt.T
    c = tt.sup_mcheck1_beyond_T()
    sm1 = abs(complex(sp.sigma - 1.0, sp.tau))
    LTx = math.log(T / x)
    tail = c * (2 * sm1 * power_log_tail(sp.sigma, T, 0)
                + sm1 ** 2 * (power_log_tail(sp.sigma, T, 1) + LTx * power_log_tail(sp.sigma, T, 0)))
    with mpmath.mp.workprec(precision + 32):
        smc = sp.as_mpc()
        two_sm1 = ApproxValue.exact(2 * (smc - 1))
        sm1_sq = ApproxValue.exact((smc - 1) ** 2)
        lhs = (two_sm1 * tt.basis[0] + sm1_sq * _combine_moment(tt, 1)).widened(tail)
        x1s, _ = _x_pows(sp, x)
        rhs = _deriv_rhs_head(sp, x, precision, tt) \
            + tt.values_at_x()["mcheck1"] * ApproxValue.exact(x1s)
    return lhs, rhs


def _derivK3_sides(tt: TruncatedTransform, precision: int):
    sp, x, T = tt.s, tt.x, tt.T
    D, E = tt.mdnorm_tail_coeffs()
    sm1 = abs(complex(sp.sigma - 1.0, sp.tau))
    LTx = math.log(T / x)
    pt = lambda j: power_log_tail(sp.sigma, T, j)
    tail0 = D * pt(0) + E * pt(1)
    tail1 = D * (pt(1) + LTx * pt(0)) + E * (pt(2) + LTx * pt(1))
    tail = 1.5 * sm1 ** 2 * tail0 + 0.5 * sm1 ** 3 * tail1
    with mpmath.mp.workprec(precision + 32):
        smc = sp.as_mpc()
        lhs = (ApproxValue.exact(1.5 * (smc - 1) ** 2) * tt.basis[0]
               + ApproxValue.exact((smc - 1) ** 3 / 2) * _combine_moment(tt, 1)).widened(tail)
        x1s, _ = _x_pows(sp, x)
        vx = tt.values_at_x()
        rhs = (_deriv_rhs_head(sp, x, precision, tt)
               + vx["mcheck1"] * ApproxValue.exact(x1s)
               + ApproxValue.exact((smc - 1) * x1s) * vx["mdnorm"])
    return lhs, rhs


def _har_sides(tt: TruncatedTransform, precision: int):
    sp, t, T = tt.s, tt.x, tt.T
    tail = abs(complex(sp.sigma - 1, sp.tau)) * _HGAP_SUP * T ** (-sp.sigma) / sp.sigma
    with mpmath.mp.workprec(precision + 32):
        smc = sp.as_mpc()
        lhs = ((ApproxValue.exact(smc) - 1) * tt.basis[0]).widened(tail)
        z, _ = zeta_em(sp, 1e-33, precision=precision, want_derivative=False)
        psum = partial_power_sum(sp, t, precision)
        tm = mpf(t)
        hgap = tt.values_at_x()["H"] - ApproxValue.exact(
            mpmath.log(tm) + gamma_const(precision))
        rhs = (z - psum - ApproxValue.exact(mpmath.power(tm, 1 - smc) / (smc - 1))
               + hgap * ApproxValue.exact(mpmath.power(tm, 1 - smc)))
    return lhs, rhs


MTRONQ = TransformIdentity(WEIGHT_M, 0, 1.0, "m-tail transform", _mtronq_sides)
MTRONQCH = TransformIdentity(WEIGHT_MCHECK1, 0, 1.0, "m-check tail transform",
                             _mtronqch_sides)
MTRONQCHCH = TransformIdentity(WEIGHT_MDNORM, 0, 1.0, "m-double-check tail transform",
                               _mtronqchch_sides)
DERIVK1 = TransformIdentity(WEIGHT_M, 1, 1.0, "derived m transform", _derivK1_sides)
DERIVK2 = TransformIdentity(WEIGHT_MCHECK1, 1, 1.0, "derived m-check transform",
                            _derivK2_sides)
DERIVK3 = TransformIdentity(WEIGHT_MDNORM, 1, 1.0, "derived m-double-check transform",
                            _derivK3_sides)
HAR = TransformIdentity(WEIGHT_HGAP, 0, 0.0, "harmonic-gap transform", _har_sides,
                        not_one=True)


def mtronq_residual(s, x: float, T: float | None = None, precision: int = PRECISION):
    """(s-1) integral_x^inf m(t) t^(-s) dt = 1/zeta - sum mu/n^s + m(x)/x^{s-1}."""
    return MTRONQ.residual(s, x, T, precision)


def mtronqch_residual(s, x: float, T: float | None = None, precision: int = PRECISION):
    """(s-1)^2 integral_x^inf (mcheck-1) t^(-s) dt
    = 1/zeta - sum mu/n^s + m(x)/x^{s-1} + (s-1)(mcheck(x)-1)/x^{s-1}."""
    return MTRONQCH.residual(s, x, T, precision)


def mtronqchch_residual(s, x: float, T: float | None = None, precision: int = PRECISION):
    """(s-1)^3/2 integral_x^inf (mdd - 2 log t + 2 gamma) t^(-s) dt
    = mtronqch's right side + (s-1)^2/2 (mdd(x) - 2 log x + 2 gamma)/x^{s-1}."""
    return MTRONQCHCH.residual(s, x, T, precision)


def derivK1_residual(s, x: float, T: float | None = None, precision: int = PRECISION):
    """integral_x^inf m t^{-s} + (s-1) integral_x^inf m t^{-s} log(x/t)
    = log x / zeta - zeta'/zeta^2 - sum mu n^{-s} log(x/n)."""
    return DERIVK1.residual(s, x, T, precision)


def derivK2_residual(s, x: float, T: float | None = None, precision: int = PRECISION):
    """2(s-1) integral (mcheck-1) t^{-s} + (s-1)^2 integral (mcheck-1) t^{-s} log(x/t)
    = log x/zeta - zeta'/zeta^2 - sum mu n^{-s} log(x/n) + (mcheck(x)-1)/x^{s-1}."""
    return DERIVK2.residual(s, x, T, precision)


def derivK3_residual(s, x: float, T: float | None = None, precision: int = PRECISION):
    """3/2 (s-1)^2 integral mdnorm t^{-s} + (s-1)^3/2 integral mdnorm t^{-s} log(x/t)
    = derivK2's right side + (s-1)(mdd(x) - 2 log x + 2 gamma)/x^{s-1}."""
    return DERIVK3.residual(s, x, T, precision)


def har_residual(s, t: float, T: float | None = None, precision: int = PRECISION):
    """(s-1) integral_t^inf (H - log - gamma) u^{-s} du
    = zeta - sum_{n<=t} n^{-s} - t^{1-s}/(s-1) + (H(t)-log t-gamma)/t^{s-1}."""
    return HAR.residual(s, t, T, precision)


def ent_residual(s, t: float, precision: int = PRECISION):
    """s integral_t^inf (floor(u)-u+1/2) u^{-s-1} du
    = zeta - sum_{n<=t} n^{-s} - t^{1-s}/(s-1) + (floor(t)-t+1/2)/t^s."""
    sp = ComplexParam.coerce(s)
    sp.require_sigma_gt(0.0, "floor-gap transform")
    sp.require_not_one("floor-gap transform")
    J = frac_tail_integral(sp, t, 1e-33, precision=precision)
    with mpmath.mp.workprec(precision + 32):
        smc = sp.as_mpc()
        lhs = ApproxValue.exact(-smc) * J
        z, _ = zeta_em(sp, 1e-33, precision=precision, want_derivative=False)
        psum = partial_power_sum(sp, t, precision)
        tm = mpf(t)
        rhs = (z - psum - ApproxValue.exact(mpmath.power(tm, 1 - smc) / (smc - 1))
               + ApproxValue.exact((mpmath.floor(tm) - tm + mpf(1) / 2) * mpmath.power(tm, -smc)))
    return lhs, rhs


def _mieux2_sides(tt: TruncatedTransform, prec: int):
    sp, x, T = tt.s, tt.x, tt.T
    with mpmath.mp.workprec(prec + 32):
        smc = sp.as_mpc()
        g = gamma_const(prec)
        z, _ = zeta_em(sp, 1e-33, precision=prec, want_derivative=False)
        snap = summatory(x, mode="mp", precision=prec)
        msum = mu_power_sum(x, sp, prec)
        x1s, _ = _x_pows(sp, x)
        x1s_a = ApproxValue.exact(x1s)
        lhs = z * (msum - snap.m * x1s_a
                   - ApproxValue.exact(smc - 1) * (snap.m_check - 1) * x1s_a) - 1
        conv = integrate_m_kernel(x, KernelFactor(KernelSpec(Q, sp), prec), prec,
                                  weight="mcheck1")
        # integral_x^inf (log t - H + gamma) t^{-s} dt = -(hgap transform)
        hterm = -tt.basis[0]
        hterm = hterm.widened(_HGAP_SUP * T ** (-sp.sigma) / sp.sigma)
        logx = mpmath.log(mpf(x))
        rhs = []
        for gamma_sign in (+1, -1):
            paren = (snap.m_dcheck * ApproxValue.exact(mpf(1) / 2)
                     - ApproxValue.exact(logx) + ApproxValue.exact(gamma_sign * g))
            rhs.append(ApproxValue.exact(smc - 1) * x1s_a * paren
                       + ApproxValue.exact(smc - 1) * x1s_a * conv
                       - ApproxValue.exact((smc - 1) ** 2) * hterm)
    return lhs, *rhs


MIEUX2 = TransformIdentity(WEIGHT_HGAP, 0, 0.0, "smoothed kernel identity", _mieux2_sides,
                           not_one=True)


def mieux2_sides(s, x: float, T: float | None = None, precision: int = PRECISION):
    """zeta(s)(sum mu/n^s - m/x^{s-1} - (s-1)(mcheck-1)/x^{s-1}) - 1  vs
    (s-1)/x^{s-1} (mdd/2 - log x + sign*gamma)
      + (s-1)/x^{s-1} integral [mcheck(x/t)-1] Q_s dt/t^2
      - (s-1)^2 integral_x^inf (log t - H + gamma) t^{-s} dt.

    Returns (lhs, rhs with sign +1, rhs with sign -1), adjudicating the
    printed-sign question: +1 closes the identity.
    """
    return MIEUX2.residual(s, x, T, precision)
