"""Rigorous quadrature for the kernels' absolute values, sup bounds by
branch-and-bound, and the exact signed L1 reference.

Every kernel variant is read cell by cell from `kernels.CellKernel`, where on
[K, K+1) it is g(t) = c t^s + beta t + delta, so all derivative bounds are
closed-form:

  - signed integrals of g(t)/t^2 use composite Simpson with the rigorous
    h^5/2880 sup|phi''''| remainder (phi = c t^{s-2} + beta/t + delta/t^2 has
    explicit fourth derivatives);
  - integrals of |g(t)|/t^2 use midpoint steps with the h^3/24 sup|phi''|
    remainder wherever the cell is certified zero-free (inf|g| > 0 via a
    Lipschitz bound), falling back to length * range enclosure around
    possible zeros of g -- the only places |.| has kinks;
  - sups of |g| use interval upper bounds max(|g(a)|,|g(b)|) + h^2/8 sup|g''|
    refined until the gap to the best sampled lower bound meets the target.

The L1 norm over [1, inf) adds a tail enclosure beyond an integer T.  Split
Q_s(t) = (s-1)({t}-1/2) + R_s(t) with |R_s(t)| <= C/t (C the ibp_R bound at
t = 1, valid for Re s > -1).  Writing |u-1/2| = 1/4 + f(u), f has mean 0 on a
unit cell and its running integral F vanishes at the integers with
|F| <= 1/32, so by parts integral_T^inf |{t}-1/2|/t^2 = 1/(4T) +- 1/(32T^2)
and the tail lies in |s-1|/(4T) +- (|s-1|/32 + C/2)/T^2.  This reaches a
radius r with T ~ sqrt(C/r) cells, where the one-sided sup|Q|/T bound
(`tail_bound_abs_Q`, kept for `quad`) needs T ~ sup/r.

Error radii here are computed bounds from these inequalities; nothing is an
inflated estimate.

Fixed point.  `CellKernel.g` evaluates g at an exact t = u/v (a double's
ratio, or a Simpson node K + h i/(2n)) in Python ints, a unit being 2^-W with
W = prec + 64 + hb, 2^-hb <= |beta| + |delta_1| <= |beta| t + |delta| (delta_1
the least |delta| of any cell).  c, beta and delta are exact (c_K = (s-1)(zeta
- P_K) from the prefix table's ints).  With t < 2^lt, lt = bits(u) - bits(v) +
1, ht = ceil(max(0, -sigma) lt) (so 2^-ht <= t^sigma), and wp = W + ht + gb,
gb = 32 + bits(n), n = ceil(|s| (2 lt + 6)):

- L = log A + 2 atanh z at wp bits (`dsum.log_fixed`), A = floor(t) and z =
  (u - A v)/(u + A v) <= 1/3, summed at P = wp + G bits, 2^G > wp.  In units
  of 2^-P: log A, one `log_int_fixed` value per (A, P) and kernel, is off by
  <= C_LOG = 2 (as `dsum` counts); each of the N <= P/3 + 1 terms (a floored
  power of 2z, < 15/8 low as z^2 <= 1/9, floored again by 2j + 1) by < 2; the
  tail past the first power that floors to 0 by < 2: < 2P/3 + 6 <= 2^G in
  all.  The floor to wp bits adds < 1 unit, so L is off by < 2 units.
- `dsum.powers_fixed` floors sigma L and tau L (off by <= 2 |s| + 1), and
  exp_fixed and cos_sin_fixed reduce them by a floored ln 2 and pi/2 at most
  |sigma| lt + 1 and |tau| lt + 1 times, adding mpmath's few-unit basecase
  errors (<= 6 units each).  So exp(sigma L) is off by a relative, and cos,
  sin by an absolute, 2 |s| (lt + 2) + 16 < 2^(gb - 27) units of 2^-wp in
  all (2^(gb - 27) = 32 2^bits(n) >= 2^bits(n) + 31, and 2^bits(n) > n >=
  2 |s| (lt + 3)); exp_fixed's right shift for sigma < 0 adds < 1 unit,
  relative <= 2^(ht - wp) = 2^-(W + gb).
  The product's floor to W + ht bits adds < 1 unit <= t^sigma 2^-W.  Each
  part of t^s is off by < (1 + 2^-26) t^sigma 2^-W, so |dT| < 1.5 |t^s| 2^-W.
  An integer s takes u^s/v^s, floored once.
- c T + beta t + delta is formed exactly over the denominator v and floored
  once to W bits (< 1 unit per part): g is off by < 2^-W (1.5 |c||t^s| +
  sqrt 2) <= 2^-(prec+63) M, M = |c||t^s| + |beta| t + |delta|.
- |g| = isqrt(re^2 + im^2) floors once more (< 1 unit), and g/t^2 and |g|/t^2
  are floored at W + 2 lt bits (< 2^-W / t^2 per part), so every value a
  routine reads is off by < 2^-(prec+62) M (divided by t^2 where it is).

That is no weaker than the mpf evaluation at prec + 48 bits it replaces,
whose dozen roundings were each 2^-(prec+48) relative to operands of size up
to M, so eps(prec) 64 (cond + |total|) still covers the arithmetic.  The
decision doubles |g| are abs(complex(.)) of the correctly rounded parts of
g's ints.  The abs integral's accepted steps, |g(t_m)|/t_m^2 h or the range
enclosure's mid_f h, are dyadic rationals: they are summed exactly and
rounded once.  Simpson sums each cell's weighted nodes exactly and adds the
cell to the total in mpf, as before.
"""

from __future__ import annotations

import heapq
import math
from math import isqrt

import mpmath
from mpmath import mpf, mpc

from .approx import PRECISION, ApproxValue, RIGOROUS, eps_for, radd
from .constants import gamma_const
from .dsum import DirichletTable, fixed_magnitude, fixed_to_float, fixed_to_mp
from .errors import DomainError, PrecisionError
from .kernels import IBP_R, CellKernel, KernelSpec, hel_sup_abs_Q, kernel_bound, SUP_Q
from .zeta import ComplexParam, power_prefix_table, zeta_em

_GUARD = 48
SPLIT_CAP = 1 << 20  # bisections per unit cell in integrate_abs_kernel
EVAL_CAP = 1 << 20  # midpoint evaluations in sup_abs_kernel's branch-and-bound
_T_CAP = 50_000  # integrate_abs_kernel_to_infinity's largest head [1, T]


def integrate_signed_kernel(spec: KernelSpec, T: float, target_radius: float = 1e-8,
                            precision: int = PRECISION) -> ApproxValue:
    """Signed integral of kernel(t)/t^2 over [1, T] by composite Simpson with
    the rigorous fourth-derivative remainder per cell."""
    if T < 1:
        raise DomainError("T >= 1 required")
    ck = CellKernel(spec, precision, zeta_target=min(1e-30, target_radius / max(T, 2.0)))
    eps = eps_for(precision)
    is_real = ck.s.is_real
    with mpmath.mp.workprec(precision + _GUARD):
        total = mpf(0) if is_real else mpc(0)
        radius = 0.0
        cond = 0.0
        K = 1
        while K < T:
            b_end = min(K + 1, T)
            cell = ck.cell(K)
            h_cell = b_end - K
            if h_cell <= 0:
                break
            phi4 = ck.phi4_bound(cell, K)
            # composite Simpson: error n (h/n)^5 /2880 phi4 <= budget_K
            budget = 0.45 * target_radius * (1.0 / (K * (K + 1)))
            n = max(2, math.ceil((h_cell ** 5 * phi4 / (2880.0 * budget)) ** 0.25))
            comp = 1.4142135623730951 if not is_real else 1.0  # componentwise bound
            step = mpf(h_cell) / n
            # nodes t_i = K + h_cell i / (2n) = u_i / den exactly; g(t_i)/t_i^2
            # at scale Sf, Simpson-weighted and summed exactly
            hn, hd = float(h_cell).as_integer_ratio()
            den = 2 * n * hd
            lt = (K + 1).bit_length()  # t < 2^lt on the cell
            Sf = ck.W + 2 * lt
            q = (den * den) << (2 * lt)
            acc_re = acc_im = 0
            fabs = []
            for i in range(2 * n + 1):
                u = K * den + hn * i
                re, im = (part * q // (u * u) for part in ck.g(cell, u, den))
                w = 1 if i in (0, 2 * n) else (4 if i % 2 else 2)
                acc_re, acc_im = acc_re + w * re, acc_im + w * im
                fabs.append(fixed_magnitude(re, im if ck.cplx else None, Sf))
            total += fixed_to_mp(acc_re, None if is_real else acc_im, Sf,
                                 precision + _GUARD) * step / 6
            radius += comp * n * float(step) ** 5 * phi4 / 2880.0
            cond += sum(fabs) * float(step)
            radius += ck.zeta_rad_per_unit(K, b_end) * h_cell
            K += 1
        radius += eps * 64.0 * (cond + abs(complex(total)))
        return ApproxValue(+total, radd(radius), RIGOROUS, precision)


def _midpoint(a: float, h: float) -> tuple[int, int]:
    """a + h/2 exactly, as (num, den)."""
    an, ad = a.as_integer_ratio()
    hn, hd = h.as_integer_ratio()
    d = 2 * max(ad, hd)
    return an * (d // ad) + hn * (d // (2 * hd)), d


def integrate_abs_kernel(spec: KernelSpec, T: float, target_radius: float = 1e-2,
                         precision: int = PRECISION) -> ApproxValue:
    """integral over [1, T] of |kernel(t)|/t^2 with a rigorous radius.

    Midpoint steps with second-derivative remainders on certified zero-free
    stretches; bisection with range enclosures around possible |g| = 0
    crossings.  Every accepted step's value is a dyadic rational, summed
    exactly in ints and rounded once.
    """
    if T < 1:
        raise DomainError("T >= 1 required")
    ck = CellKernel(spec, precision, zeta_target=min(1e-30, target_radius / (8 * max(T, 2.0))))
    eps = eps_for(precision)
    W = ck.W
    total, S = 0, 0  # the exact sum total 2^-S of the accepted steps

    def add(n: int, Sn: int) -> None:
        nonlocal total, S
        if Sn > S:
            total, S = total << (Sn - S), Sn
        total += n << (S - Sn)

    def scale(x: float) -> tuple[int, int]:
        n, d = x.as_integer_ratio()
        return n, d.bit_length() - 1

    with mpmath.mp.workprec(precision + _GUARD):
        radius = 0.0
        cond = 0.0
        K = 1
        while K < T:
            b_end = float(min(K + 1, T))
            cell = ck.cell(K)
            budget = 0.9 * target_radius * (1.0 / (K * (K + 1)))
            # adaptive stack of (a, b, |g(a)|, |g(b)|)
            ga = ck.abs_at(cell, K)
            gb = ck.abs_at(cell, *b_end.as_integer_ratio())
            stack = [(float(K), b_end, ga, gb)]
            cell_rad = 0.0
            splits = 0
            while stack:
                a, b, ga, gb = stack.pop()
                h = b - a
                G0, D1, D2 = ck.bounds(cell, a, b)
                m0 = (ga + gb - D1 * h) / 2.0
                if m0 > 0:
                    # zero-free: |g| is C2 with ||g|''| <= D2 + D1^2 / m0
                    absg2 = D2 + D1 * D1 / m0
                    phi2 = absg2 / a ** 2 + 4.0 * D1 / a ** 3 + 6.0 * G0 / a ** 4
                    err = h ** 3 / 24.0 * phi2
                    if err <= budget * (h / (b_end - K)) or h < 2e-13 * b:
                        # |g(t_m)| / t_m^2 at scale W + 2 lt, t_m = u/v < 2^lt
                        u, v = _midpoint(a, h)
                        re, im = ck.g(cell, u, v)
                        lt = u.bit_length() - v.bit_length() + 1
                        m = ((isqrt(re * re + im * im) * v * v) << (2 * lt)) // (u * u)
                        hn, he = scale(h)
                        add(m * hn, W + 2 * lt + he)
                        cell_rad += err
                        cond += fixed_to_float(m, W + 2 * lt) * h
                        continue
                else:
                    sup_g = max(ga, gb) + D1 * h / 2.0
                    inf_g = max(0.0, m0)
                    width = sup_g / a ** 2 - inf_g / b ** 2
                    if width * h <= 2.0 * budget * (h / (b_end - K)) or h < 2e-13 * b:
                        mid_f = (sup_g / a ** 2 + inf_g / b ** 2) / 2.0
                        (fn, fe), (hn, he) = scale(mid_f), scale(h)
                        add(fn * hn, fe + he)
                        cell_rad += width * h / 2.0
                        cond += mid_f * h
                        continue
                splits += 1
                if splits > SPLIT_CAP:
                    raise PrecisionError(
                        f"abs-kernel quadrature cannot reach {target_radius} on cell {K}")
                tm_f = a + h / 2.0
                gm = ck.abs_at(cell, *_midpoint(a, h))
                stack.append((a, tm_f, ga, gm))
                stack.append((tm_f, b, gm, gb))
            radius += cell_rad + ck.zeta_rad_per_unit(K, b_end) * (b_end - K)
            K += 1
        value = fixed_to_mp(total, None, S, precision + _GUARD)
        radius += eps * 64.0 * (cond + float(value))
        return ApproxValue(value, radd(radius), RIGOROUS, precision)


def sup_abs_kernel(spec: KernelSpec, t_lo: float, t_hi: float,
                   target_radius: float = 1e-3,
                   precision: int = PRECISION) -> tuple[ApproxValue, float]:
    """Rigorous sup of |kernel| on [t_lo, t_hi] and its location.

    Branch-and-bound: per interval the upper bound is
    max(|g(a)|, |g(b)|) + h^2/8 sup|g''| (chord bound for complex g);
    intervals are refined until the best upper bound is within 2*target of
    the best sampled value.
    """
    if not (1 <= t_lo < t_hi):
        raise DomainError("need 1 <= t_lo < t_hi")
    ck = CellKernel(spec, precision)
    # refine to a little under the request so the discarded-interval
    # allowance below still lands the radius within target_radius
    tol = 0.45 * target_radius
    heap: list = []
    best_lower = 0.0
    best_at = t_lo
    counter = 0
    cells = {}

    def gval(cell, t: float) -> float:
        return ck.abs_at(cell, *t.as_integer_ratio())

    K = math.floor(t_lo)
    while K < t_hi:
        a = max(float(K), t_lo)
        b = min(float(K + 1), t_hi)
        if b <= a:
            K += 1
            continue
        cell = cells[K] = ck.cell(max(K, 1))
        ga, gb = gval(cell, a), gval(cell, b)
        if ga > best_lower:
            best_lower, best_at = ga, a
        if gb > best_lower:
            best_lower, best_at = gb, b
        _, _, D2 = ck.bounds(cell, a, b)
        U = max(ga, gb) + (b - a) ** 2 / 8.0 * D2
        counter += 1
        heapq.heappush(heap, (-U, counter, a, b, ga, gb, K))
        K += 1
    evals = 0
    while heap:
        negU, _, a, b, ga, gb, K = heap[0]
        U = -negU
        if U <= best_lower + 2.0 * tol:
            break
        heapq.heappop(heap)
        cell = cells[K]
        mid = (a + b) / 2.0
        gm = gval(cell, mid)
        evals += 1
        if evals > EVAL_CAP:
            raise PrecisionError("sup branch-and-bound did not converge")
        if gm > best_lower:
            best_lower, best_at = gm, mid
        for (aa, bb, gaa, gbb) in ((a, mid, ga, gm), (mid, b, gm, gb)):
            _, _, D2 = ck.bounds(cell, aa, bb)
            U2 = max(gaa, gbb) + (bb - aa) ** 2 / 8.0 * D2
            if U2 > best_lower + tol:
                counter += 1
                heapq.heappush(heap, (-U2, counter, aa, bb, gaa, gbb, K))
    # discarded intervals may hide values up to best_lower + tol; the heap
    # top (if any) bounds everything still alive
    U_final = best_lower + tol
    if heap:
        U_final = max(U_final, -heap[0][0])
    zr = ck.zeta.radius * ck.s1_abs * ck.scale * max(t_lo, t_hi) ** max(ck.s.sigma, 0.0)
    val = (U_final + best_lower) / 2.0
    rad = (U_final - best_lower) / 2.0 + zr + eps_for(precision) * 16 * val
    return ApproxValue(val, radd(rad), RIGOROUS, precision), best_at


def tail_bound_abs_Q(spec: KernelSpec, T: float, sup: float | None = None) -> float:
    """Rigorous upper bound on integral_T^inf |Q_s(t)|/t^2 dt, as (sup on
    [T, inf)) / T using the best available sup bound, or an explicit `sup`."""
    if T < 1:
        raise DomainError("T >= 1 required")
    s = spec.s
    if sup is None:
        candidates = []
        if s.sigma > 0:
            candidates.append(kernel_bound(s, SUP_Q))
        if 0 < s.sigma <= 1 and T >= abs(s.tau):
            candidates.append(hel_sup_abs_Q(s))
        if not candidates:
            raise DomainError("no sup bound available: need Re(s) > 0 or the "
                              "truncation regime T >= |Im s|, 0 < Re(s) <= 1")
        sup = min(candidates)
    return sup / T


def _two_sided_tail(s: ComplexParam, T: int) -> tuple[float, float]:
    """(centre, half-width) of an enclosure of integral_T^inf |Q_s|/t^2, T an
    integer: Q_s = (s-1)({t}-1/2) + R_s with |R_s| <= C/t, C = ibp_R at t = 1,
    and integral_T^inf |{t}-1/2|/t^2 = 1/(4T) +- 1/(32T^2)."""
    s1_abs = math.hypot(s.sigma - 1.0, s.tau)
    C = kernel_bound(s, IBP_R, 1.0)
    return s1_abs / (4.0 * T), (s1_abs / 32.0 + C / 2.0) / T ** 2


def integrate_abs_kernel_to_infinity(spec: KernelSpec, target_radius: float = 1e-2,
                                     precision: int = PRECISION):
    """(value, T): rigorous integral_1^inf |kernel|/t^2 with radius <= target
    if reachable.

    The head [1, T] is `integrate_abs_kernel` at 0.45 * target; the tail
    beyond the integer T enters by a two-sided enclosure of half-width
    <= 0.45 * target.  Q_s = (s-1)({t}-1/2) + R_s with |R_s(t)| <= C/t
    (`kernel_bound(s, IBP_R, 1)`), so the tail is |s-1| I(T) +- C/(2T^2) with
    I(T) = integral_T^inf |{t}-1/2|/t^2.  Put f(u) = |u-1/2| - 1/4, which has
    mean 0 on [0, 1]; then I(T) = 1/(4T) + integral_T^inf f({t})/t^2, and the
    antiderivative F of f({t}) vanishes at the integers with |F| <= 1/32, so
    integrating by parts bounds the second term by
    2 integral_T^inf (1/32)/t^3 = 1/(32T^2).  The tail lies in
    |s-1|/(4T) +- (|s-1|/32 + C/2)/T^2, so T ~ |s|^{3/2}/sqrt(r).
    """
    s = spec.s
    if s.sigma <= 0:
        raise DomainError("need Re(s) > 0 for a tail bound")
    budget = 0.45 * target_radius
    T = max(2, math.ceil(math.sqrt(_two_sided_tail(s, 1)[1] / budget)))
    while _two_sided_tail(s, T)[1] > budget:
        T += 1
    T = min(T, _T_CAP)
    head = integrate_abs_kernel(spec, T, budget, precision=precision)
    centre, half = _two_sided_tail(s, T)
    return ApproxValue(head.value + centre,
                       radd(head.radius, half, eps_for(53) * centre), RIGOROUS,
                       head.precision_bits), T


def exact_Q_l1_reference(s, precision: int = PRECISION,
                         target_radius: float = 1e-30) -> ApproxValue:
    """integral_1^inf Q_s(t)/t^2 dt = 1/(s-1) - zeta(s) + gamma, exactly."""
    sp = ComplexParam.coerce(s)
    sp.require_sigma_gt(0.0, "signed L1 reference")
    sp.require_not_one("signed L1 reference")
    z, _ = zeta_em(sp, target_radius, precision=precision, want_derivative=False)
    with mpmath.mp.workprec(precision + _GUARD):
        sm = sp.as_mpc()
        v = 1 / (sm - 1) - z.value + gamma_const(precision + _GUARD)
        return ApproxValue(+v, radd(z.radius, eps_for(precision) * 8 * (1 + abs(complex(v)))),
                           RIGOROUS, precision)


def exact_Q_l1_tail(s, T: int, precision: int = PRECISION,
                    target_radius: float = 1e-30) -> ApproxValue:
    """integral_T^inf Q_s(t)/t^2 dt (integer T), in closed form:
    1/(s-1) + gamma - (zeta(s) - P_T) T^{s-1} - (H_T - log T)."""
    sp = ComplexParam.coerce(s)
    sp.require_sigma_gt(0.0, "signed tail")
    sp.require_not_one("signed tail")
    if T != int(T) or T < 1:
        raise DomainError("integer T >= 1 required")
    T = int(T)
    z, _ = zeta_em(sp, target_radius, precision=precision, want_derivative=False)
    table = power_prefix_table(sp.sigma, sp.tau, precision)
    with mpmath.mp.workprec(precision + _GUARD):
        sm = sp.as_mpc()
        H_T = DirichletTable(1.0, 0.0, precision + _GUARD).total(T).value
        v = (1 / (sm - 1) + gamma_const(precision + _GUARD)
             - (z.value - table.value(T)) * mpmath.power(T, sm - 1)
             - (H_T - mpmath.log(T)))
        Tpow = float(T) ** sp.sigma
        rad = (z.radius + table.radius(T)) * Tpow + eps_for(precision) * 32 * (
            Tpow * (1 + float(mpmath.fabs(table.value(T)))) + float(H_T) + abs(complex(v)))
        return ApproxValue(+v, radd(rad), RIGOROUS, precision)
