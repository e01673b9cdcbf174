"""The piecewise walk in mpf arithmetic: a reference for piecewise._walk.

This is the walk as it ran before it moved to fixed point, kept only as a
test oracle: the breakpoints as sorted mpf values, each piece's indices from
its mpf midpoint, log t and t^q from mpmath at every breakpoint, and the
coefficient products, dot products and running totals in mpf, all at 96
guard bits.  It reads the factors' exact coefficient vectors (`exact`),
converted exactly to mpf, and keeps the same float condition tracker, so its
radius formula is the library's.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mpf

from moebius.approx import eps_for
from moebius.dsum import fixed_to_mp_exact
from moebius.piecewise import _compile

GUARD = 96


def points(x, need_inverse_points: bool) -> list:
    """The sorted breakpoints of [1, x] as mpf values, at the current precision."""
    N = math.floor(x)
    xm = mpf(x)
    pts = [mpf(n) for n in range(1, N + 1)]
    if mpf(N) != xm:
        pts.append(xm)
    if need_inverse_points:
        pts.extend(xm / n for n in range(2, N + 1))
    return sorted(set(pts), key=lambda p: (float(p), p))


def midpoint_pieces(x, pts):
    """(a, b, N = floor(x/mid), K = floor(mid)) per piece, from the mpf midpoint."""
    xm = mpf(x)
    for a, b in zip(pts, pts[1:]):
        mid = (a + b) / 2
        yield a, b, int(xm / mid), int(mid)


def values(vec) -> list:
    """A factor's exact vector (S, re, im, absv) as exact mpf or mpc values."""
    S, re, im, _ = vec
    return [fixed_to_mp_exact(r, None if im is None else i, S)
            for r, i in zip(re, re if im is None else im)]


def _coefficients(terms, vecs, n: int):
    F = [0] * n
    F_abs = [0.0] * n
    for tup, outs in terms:
        c, c_abs = 1, 1.0
        for (vals, absv), i in zip(vecs, tup):
            c = c * vals[i]
            c_abs *= absv[i]
        for o, m, m_abs in outs:
            F[o] += c * m
            F_abs[o] += c_abs * m_abs
    return F, F_abs


class _Run:
    def __init__(self, factors, exponent_index):
        self.varying, exponents, slots, self.terms = _compile(factors)
        self.n = len(slots)
        self.shape = tuple((exponent_index(exponents[g]), i) for g, i in slots)
        self.zeta = [(pos, [(tup, outs) for tup, outs in self.terms
                            if values(f.zeta_column)[tup[pos]] != 0])
                     for pos, f in enumerate(self.varying) if hasattr(f, "zeta_column")]
        self.zeta_sens = [0.0] * len(self.zeta)
        self.total = mpf(0)
        self.cond = 0.0

    def add_piece(self, vecs, diff, abs_a, abs_b):
        F, F_abs = _coefficients(self.terms, vecs, self.n)
        contrib = mpmath.fdot(F, diff)
        self.total += contrib
        self.cond += (sum(fa * (ua + ub) for fa, ua, ub in zip(F_abs, abs_a, abs_b))
                      + abs(complex(contrib)))
        for z, (pos, zterms) in enumerate(self.zeta):
            zvecs = list(vecs)
            zvecs[pos] = (values(self.varying[pos].zeta_column), vecs[pos][1])
            Fz, _ = _coefficients(zterms, zvecs, self.n)
            self.zeta_sens[z] += abs(complex(mpmath.fdot(Fz, diff)))

    def result(self, prec):
        radius = eps_for(prec) * 64.0 * self.cond
        for (pos, _), sens in zip(self.zeta, self.zeta_sens):
            radius += self.varying[pos].zeta_radius * sens
        return +self.total, radius, self.cond


def _walk(x, need_inverse_points, integrands, prec):
    exps, where = [], {}

    def exponent_index(e):
        key = (type(e[0]), e[0])
        if key not in where:
            where[key] = len(exps)
            exps.append(e)
        return where[key]

    runs = [_Run(factors, exponent_index) for factors in integrands]
    memo = {}

    def coeffs(f, N, K):
        idx = N if f.index == "N" else K
        hit = memo.get(id(f))
        if hit is None or hit[0] != idx:
            vec = f.exact(idx)
            hit = memo[id(f)] = (idx, (values(vec), vec[3]))
        return hit[1]

    shapes = {}
    shape_of = [shapes.setdefault(r.shape, len(shapes)) for r in runs]
    max_log = max((i for shape in shapes for _, i in shape), default=0)

    def endpoint(t):
        logt = mpmath.log(t)
        logt_f = float(logt)
        tq = [mpmath.exp(q * logt) if n is None else t ** n for q, n, _ in exps]
        tq_abs = [math.exp(q_re * logt_f) for _, _, q_re in exps]
        logs = [mpf(1)]
        for _ in range(max_log):
            logs.append(logs[-1] * logt)
        return [([tq[g] * logs[i] if i else tq[g] for g, i in shape],
                 [tq_abs[g] * abs(logt_f) ** i for g, i in shape]) for shape in shapes]

    end_b = None
    for a, b, N, K in midpoint_pieces(x, points(x, need_inverse_points)):
        end_a = end_b if end_b is not None else endpoint(a)
        end_b = endpoint(b)
        diffs = [[vb - va for va, vb in zip(ea[0], eb[0])] for ea, eb in zip(end_a, end_b)]
        for r, sh in zip(runs, shape_of):
            r.add_piece([coeffs(f, N, K) for f in r.varying],
                        diffs[sh], end_a[sh][1], end_b[sh][1])
    return [r.result(prec) for r in runs]


def integrate(x, integrands, prec: int) -> list[tuple]:
    """(value, radius, cond) per integrand over [1, x], walking the integrands
    with an N-indexed factor over the points x/n too, as the library does."""
    out = [None] * len(integrands)
    groups = {}
    for j, factors in enumerate(integrands):
        groups.setdefault(any(f.index == "N" for f in factors), []).append(j)
    for inverse, members in groups.items():
        with mpmath.mp.workprec(prec + GUARD):
            got = _walk(x, inverse, [integrands[j] for j in members], prec)
        for j, r in zip(members, got):
            out[j] = r
    return out
