"""The unit-cell kernel and the rigorous quadrature in mpf arithmetic: a
reference for `kernels.CellKernel.g` and the loops of `quadrature`.

This is the cell evaluation as it ran before it moved to fixed point, kept
only as a test oracle: c_K = (s-1)(zeta - P_K), beta and delta formed in mpf
at the working precision, g(t) = c t^s + beta t + delta by mpmath.power,
and the loops of integrate_abs_kernel and sup_abs_kernel with mpf nodes and
mpf running sums, at 48 guard bits (the abs integral rounds its mpf g(m)
and g'(m) to floats for the library's closed form, as the library rounds
its ints).  It takes zeta(s), P_K and the float constants from a
`CellKernel`, and keeps the float decisions and radius formulas, so its
values, radii and T are the ones the library must reproduce.
"""

from __future__ import annotations

import heapq
import math

import mpmath
from mpmath import mpf

from moebius.approx import ApproxValue, RIGOROUS, eps_for, radd
from moebius.kernels import LITTLE_Q, R, CellKernel
from moebius import quadrature
from moebius.quadrature import _two_sided_tail
from moebius.zeta import ZETA_RADIUS

GUARD = 48


def cell(ck: CellKernel, K: int):
    """(c_K, beta, delta) at the working precision."""
    sm = ck.sm
    c = (sm - 1) * (ck.zeta.value - ck.table.value(K))
    if ck.spec.variant == R:  # Q - (s-1)({t}-1/2) = c t^s - s t + (s-1)(K+1/2)
        beta, delta = -sm, (sm - 1) * (K + mpf(1) / 2)
    else:
        beta, delta = mpf(-1), mpf(0)
    if ck.spec.variant == LITTLE_Q:
        c, beta, delta = c * (sm - 1), beta * (sm - 1), delta * (sm - 1)
    return c, beta, delta


def g(ck: CellKernel, c, beta, delta, t):
    return c * mpmath.power(t, ck.sm) + beta * t + delta


def bounds(ck: CellKernel, c, beta, delta, a: float, b: float):
    """(G0, D1, D2): sup bounds for |g|, |g'|, |g''| on [a, b]."""
    sig = ck.s.sigma
    ca = abs(complex(c))
    s_abs = ck.s.abs()
    s1_abs = abs(complex(ck.sm - 1))
    tp = lambda e: max(a ** e, b ** e)
    G0 = ca * tp(sig) + abs(complex(beta)) * b + abs(complex(delta))
    D1 = ca * s_abs * tp(sig - 1) + abs(complex(beta))
    D2 = ca * s_abs * s1_abs * tp(sig - 2)
    return G0, D1, D2


def integrate_abs(spec, T: float, target_radius: float, prec: int) -> ApproxValue:
    """The Taylor-step rule with g(m) and g'(m) = s c m^s/m + beta in mpf,
    rounded to float parts; the float closed form and the constants are the
    library's (`quadrature._abs_line_integral`, checked against mpmath.quad
    in tests/test_quadrature.py)."""
    ck = CellKernel(spec, prec, min(ZETA_RADIUS, target_radius / (8 * max(T, 2.0))))
    fixed, s_abs = 2.0 ** -(prec + 62), ck.s.abs()
    with mpmath.mp.workprec(prec + GUARD):
        vals = []
        rads = []
        cond = 0.0
        K = 1
        while K < T:
            b_end = float(min(K + 1, T))
            width = b_end - K
            c, beta, delta = cell(ck, K)
            G0, _, D2 = bounds(ck, c, beta, delta, K, b_end)
            D2 *= quadrature._D2_UP
            need = D2 * width ** 3 / (24.0 * K * K)
            share = quadrature._CELL_SHARE * target_radius / (K * (K + 1))
            n = max(1, math.ceil(math.sqrt(need / share))) if need else 1
            h3_a2 = 0.0
            a = float(K)
            for j in range(1, n + 1):
                b = b_end if j == n else K + width * j / n
                h = b - a
                m = (mpf(a) + mpf(b)) / 2
                cts = c * mpmath.power(m, ck.sm)
                g0 = complex(cts + beta * m + delta)
                g1 = complex(ck.sm * cts / m + beta)
                x0, y0, x1, y1 = g0.real, g0.imag, g1.real, g1.imag
                val, E, X = quadrature._abs_line_integral(x0, y0, x1, y1, a, b, float(m))
                vals.append(val)
                cond += E
                if X:
                    rads.append(X)
                h3_a2 += h * h * h / (a * a)
                a = b
            rads += (D2 / 24.0 * h3_a2, fixed * G0 * (2.0 + s_abs / K) * (1.0 / K - 1.0 / b_end),
                     ck.zeta_rad_per_unit(K, b_end) * width)
            K += 1
        total = mpmath.fsum(vals)  # exact, rounded once
        radius = radd(math.fsum(rads), 16 * quadrature._U * cond, eps_for(prec) * float(total))
        return ApproxValue(total, radius, RIGOROUS, prec)


def integrate_abs_to_infinity(spec, target_radius: float, prec: int):
    """(value, T) as `integrate_abs_kernel_to_infinity` composes them."""
    s = spec.s
    budget = 0.45 * target_radius
    T = max(2, math.ceil(math.sqrt(_two_sided_tail(s, 1)[1] / budget)))
    while _two_sided_tail(s, T)[1] > budget:
        T += 1
    head = integrate_abs(spec, T, budget, prec)
    centre, half = _two_sided_tail(s, T)
    return ApproxValue(head.value + centre, radd(head.radius, half, eps_for(53) * centre),
                       RIGOROUS, head.precision_bits), T


def sup_abs(spec, t_lo: float, t_hi: float, target_radius: float, prec: int):
    ck = CellKernel(spec, prec)
    tol = 0.45 * target_radius
    heap: list = []
    best_lower = 0.0
    best_at = t_lo
    counter = 0
    with mpmath.mp.workprec(prec + GUARD):
        def gval(c, beta, delta, t: float) -> float:
            return abs(complex(g(ck, c, beta, delta, mpf(t))))

        K = math.floor(t_lo)
        while K < t_hi:
            a = max(float(K), t_lo)
            b = min(float(K + 1), t_hi)
            if b <= a:
                K += 1
                continue
            c, beta, delta = cell(ck, max(K, 1))
            ga, gb = gval(c, beta, delta, a), gval(c, beta, delta, b)
            if ga > best_lower:
                best_lower, best_at = ga, a
            if gb > best_lower:
                best_lower, best_at = gb, b
            _, _, D2 = bounds(ck, c, beta, delta, a, b)
            U = max(ga, gb) + (b - a) ** 2 / 8.0 * D2
            counter += 1
            heapq.heappush(heap, (-U, counter, a, b, ga, gb, K))
            K += 1
        while heap:
            negU, _, a, b, ga, gb, K = heap[0]
            if -negU <= best_lower + 2.0 * tol:
                break
            heapq.heappop(heap)
            c, beta, delta = cell(ck, max(K, 1))
            mid = (a + b) / 2.0
            gm = gval(c, beta, delta, mid)
            if gm > best_lower:
                best_lower, best_at = gm, mid
            for (aa, bb, gaa, gbb) in ((a, mid, ga, gm), (mid, b, gm, gb)):
                _, _, D2 = bounds(ck, c, beta, delta, aa, bb)
                U2 = max(gaa, gbb) + (bb - aa) ** 2 / 8.0 * D2
                if U2 > best_lower + tol:
                    counter += 1
                    heapq.heappush(heap, (-U2, counter, aa, bb, gaa, gbb, K))
        U_final = best_lower + tol
        if heap:
            U_final = max(U_final, -heap[0][0])
        zr = (ck.zeta.radius * abs(complex(ck.sm - 1)) * ck.scale
              * max(t_lo, t_hi) ** max(ck.s.sigma, 0.0))
        val = (U_final + best_lower) / 2.0
        rad = (U_final - best_lower) / 2.0 + zr + eps_for(prec) * 16 * val
        return ApproxValue(val, radd(rad), RIGOROUS, prec), best_at
