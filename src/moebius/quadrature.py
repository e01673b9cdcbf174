"""Rigorous quadrature for the kernels' absolute values, sup bounds by
branch-and-bound, and the exact signed L1 reference.

Every kernel variant is read cell by cell from `kernels.CellKernel`, where on
[K, K+1) it is g(t) = c t^s + beta t + delta, so all derivative bounds are
closed-form:

  - integrals of |g(t)|/t^2 cut each cell into n equal steps and add, per
    step, the exact integral of |L|/t^2 for the Taylor line L of g at the
    step's midpoint, charging sup|g''| h^3/(24 a^2) for |g| - |L| (|.| is
    1-Lipschitz, so zeros of g need no decision);
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
ratio, or a Taylor step's midpoint) in Python ints, a unit being 2^-W with
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
- The slope g'(t) = s c t^s / t + beta reads the same T: s c T v/u + beta
  is formed exactly and floored once (< 1 unit per part), so it is off by
  < 2^-W (1.5 |s||c||t^s|/t + sqrt 2) <= 2^-(prec+63) (|s|/t + 1) M.
- The sup search reads |g| as abs(complex(.)) of g's correctly rounded
  parts (`abs_at`).

Taylor steps for the abs integral.  Cell [K, b_end] (b_end = min(K+1, T),
width w) is cut at the floats a_j = K + w j/n, so each step [a, b] has
1 <= a < b <= 2a and h = b - a exact; its midpoint m = u/v is exact.  With
D2 >= sup|g''| on the cell (`bounds`, times 1 + 2^-32 to cover libm's few-ulp
pow and hypot), Taylor's theorem gives |g(t) - L(t)| <= D2 (t - m)^2/2 for
L(t) = g(m) + g'(m)(t - m), so the step's error is at most
D2/(2 a^2) integral (t - m)^2 = D2 h^3/(24 a^2), and the n steps of a cell
stay within its share 0.5 target/(K(K+1)) when
n = ceil(sqrt(D2 w^3/(24 K^2 share))).  The rest of a step's radius, with u
= 2^-53 the unit roundoff of a float op:

- g(m), g'(m) from `CellKernel.g(..., slope=True)`: off by e0 < 2^-(prec+63)
  M and e1 < 2^-(prec+63) (|s|/K + 1) M, M <= G0 (`bounds`); |L| moves by
  < e0 + e1 h/2 <= 2^-(prec+62) G0 (2 + |s|/K)/2; a cell charges twice
  that (past G0's own roundings) times 1/a - 1/b summed, 1/K - 1/b_end.
- The four parts, correctly rounded to floats g0 = x0 + i y0 and g1 = x1 +
  i y1: |L| moves by < 1.01 u (|g0| + |g1| h/2).
- L(t) = g1 (t - t* + i eta) with q = g0/g1, t* = m - Re q, eta = |Im q|
  and rho = |g1|.  In floats rho, Re q and Im q are each off by < 2.01 u
  rho, 5.1 u |q| and 5.1 u |q| (|q| rho = |g0|), and t* = m - Re q (m
  rounded too) by < 2.02 u m + 6.2 u |q|.  Since sqrt(w^2 + eta^2) is
  1-Lipschitz in (w, eta), the line the closed form sees differs in modulus
  by < 2.01 u |L| + 2.05 u rho m + 11.5 u |g0| <= u (13.6 |g0| + 1.01 rho h
  + 2.05 rho m): with the previous item, < 15 u (|g0| + rho (b + h)).
- An eta below eta_min = 2^-40 h is raised to it, moving |L| by at most
  rho eta_min; a g0 with |g0| >= 2^40 |g1| takes L as the constant |g0|,
  which moves |L| by at most rho h/2.  Either is charged times 1/a - 1/b.
- The closed form.  With w = t - t*, R = w^2 + eta^2 and C = t*^2 + eta^2,
  F(t) = -sqrt(R)/t + asinh(w/eta) + (t*/sqrt C) asinh((C - t* t)/(t eta))
  has F' = sqrt(R)/t^2.  As (C - t* t)^2 + t^2 eta^2 = C R, both asinh are
  logs of y/eta with y1 = w + sqrt R = eta^2/(sqrt R - w) and y2 = (z +
  sqrt(CR))/t = t eta^2/(sqrt(CR) - z), z = C - t* t = eta^2 - t* w; the
  form without a cancellation is taken by sign, and eta cancels in
  F(b) - F(a) = f_a - f_b + log(y1_b/y1_a) + (t*/sqrt C) log(y2_b/y2_a),
  f = sqrt(R)/t.  Counting one u per float op: f is off by 4u, y1 by 6u;
  z by 3.1 u (eta^2 + |t* w|) <= 6.2 u sqrt(CR) and sqrt(CR) by 6.1 u of
  itself, so y2 is off by 16.5 u relative in either branch; the logs'
  arguments by 13 u and 34 u.  `_ln` adds u |log| + 2^-69 (`log_fixed` at
  80 bits, < 2 units, e ln 2 by <= |e| <= 1074 units, and one rounding),
  t*/sqrt C (at most 1) 3 u, and the two sums and the product by rho one u
  each: the step's value is off by < u rho (8 (f_a + f_b) + 4 |l1| + 7.02
  |l2| + 48.5) <= 8 u E, E = rho (f_a + f_b + |l1| + |l2| + 7).

`_abs_line_integral` returns E = rho (f_a + f_b + |l1| + |l2| + 7) + (|g0|
+ rho (b + h)) (1/a - 1/b), and `integrate_abs_kernel` charges 16 u E per
step: 8 u E covers the first-order count of both parts, and the factor 2 the
second-order terms and the float sums of the radius parts.  The steps' float values are summed
exactly in ints and rounded once to prec + 48 bits (eps(prec) |value|).
"""

from __future__ import annotations

import heapq
import math

import mpmath
from mpmath.libmp.libelefun import ln2_fixed

from .approx import PRECISION, ApproxValue, RIGOROUS, eps_for, radd
from .constants import gamma_const
from .dsum import DirichletTable, fixed_to_float, fixed_to_mp, log_fixed
from .errors import DomainError, PrecisionError
from .kernels import IBP_R, CellKernel, KernelSpec, hel_sup_abs_Q, kernel_bound, SUP_Q
from .zeta import ComplexParam, power_prefix_table, zeta_em

_GUARD = 48
_U = 2.0 ** -53  # the unit roundoff of a float op
STEP_CAP = 1 << 16  # Taylor steps per unit cell in integrate_abs_kernel
_CELL_SHARE = 0.5  # of target / (K (K+1)): a cell's budget for its Taylor terms
_D2_UP = 1.0 + 2.0 ** -32  # bounds' D2 rounded upward past libm's few-ulp pow
_FAR = 2.0 ** 80  # |g0|^2 / |g1|^2 past which a step's L is taken as constant
_ETA_MIN = 2.0 ** -40  # times h: the least eta the closed form sees
_LOG_BITS = 80
_LOG_ANCHOR = {(1, _LOG_BITS + _LOG_BITS.bit_length()): 0}  # _ln's one anchor, log 1 = 0
EVAL_CAP = 1 << 20  # midpoint evaluations in sup_abs_kernel's branch-and-bound
_T_CAP = 50_000  # integrate_abs_kernel_to_infinity's largest head [1, T]
#: the zeta(s) radius of exact-Q-l1: its head, its tail and its reference read one value
EXACT_Q_L1_ZETA = 1e-30


def _midpoint(a: float, h: float) -> tuple[int, int]:
    """a + h/2 exactly, as (num, den)."""
    an, ad = a.as_integer_ratio()
    hn, hd = h.as_integer_ratio()
    d = 2 * max(ad, hd)
    return an * (d // ad) + hn * (d // (2 * hd)), d


def _ln(r: float) -> float:
    """log r for a float r > 0, off by < u |log r| + 2^-69: r = f 2^e with
    f in [2^-1/2, 2^1/2), log f by `log_fixed` (anchor 1) and e log 2 by
    ln2_fixed, at 80 bits, rounded once to a float."""
    f, e = math.frexp(r)
    if f < 0.7071067811865476:
        f, e = 2.0 * f, e - 1
    n, d = f.as_integer_ratio()
    if n >= d:
        L = log_fixed(n, d, _LOG_BITS, _LOG_ANCHOR)
    else:
        L = -log_fixed(d, n, _LOG_BITS, _LOG_ANCHOR)
    return fixed_to_float(L + e * ln2_fixed(_LOG_BITS), _LOG_BITS)


def _abs_line_integral(x0: float, y0: float, x1: float, y1: float,
                       a: float, b: float, m: float) -> tuple[float, float, float]:
    """(I, E, X): I the float integral over [a, b] of |L(t)|/t^2, L(t) = g0 +
    g1 (t - m), g0 = x0 + i y0, g1 = x1 + i y1, off by < 16u E + X from the
    same integral for any g0, g1 whose parts round to x0 .. y1: the module
    docstring counts the u roundings into E and bounds the clamp of eta or
    the constant L by X."""
    A = x1 * x1 + y1 * y1
    G = x0 * x0 + y0 * y0
    h = b - a
    w_ab = h / (a * b)  # 1/a - 1/b
    rho, g0 = math.sqrt(A), math.sqrt(G)
    E = (g0 + rho * (b + h)) * w_ab  # the line's parts and parameters in floats
    if G >= _FAR * A:  # |L - g0| <= rho h/2 <= 2^-41 |g0| h
        return g0 * w_ab, E + g0 * w_ab, rho * h / 2.0 * w_ab
    ts = m - (x0 * x1 + y0 * y1) / A  # L(t) = g1 (t - t* + i eta)
    eta = abs((y0 * x1 - x0 * y1) / A)
    clamp = 0.0
    if eta < _ETA_MIN * h:  # no log of a vanishing eta: |L| moves by < rho eta_min
        eta, clamp = _ETA_MIN * h, rho * _ETA_MIN * h * w_ab
    e2 = eta * eta
    sC = math.sqrt(ts * ts + e2)
    ends = []
    for t in (a, b):
        w = t - ts
        sR = math.sqrt(w * w + e2)
        z, P = e2 - ts * w, sC * sR  # C - t* t and sqrt(C R)
        ends.append((sR / t, w + sR if w >= 0 else e2 / (sR - w),
                     (z + P) / t if z >= 0 else t * e2 / (P - z)))
    (fa, y1a, y2a), (fb, y1b, y2b) = ends
    l1, l2 = _ln(y1b / y1a), _ln(y2b / y2a)
    J = (fa - fb) + l1 + ts / sC * l2
    return rho * J, E + rho * (fa + fb + abs(l1) + abs(l2) + 7.0), clamp


def integrate_abs_kernel(spec: KernelSpec, T: float, target_radius: float = 1e-2,
                         precision: int = PRECISION) -> ApproxValue:
    """integral over [1, T] of |kernel(t)|/t^2 with a rigorous radius.

    Each unit cell is cut into n equal steps, n from the cell's sup|g''| and
    its share of the radius; a step adds the exact integral of |L|/t^2 for
    the Taylor line L of g at its midpoint and charges sup|g''| h^3/(24 a^2)
    for |g| - |L|, with the roundings the module docstring counts.  The
    steps' float values are summed exactly and rounded once.
    """
    if T < 1:
        raise DomainError("T >= 1 required")
    ck = CellKernel(spec, precision, zeta_target=min(1e-30, target_radius / (8 * max(T, 2.0))))
    W = ck.W
    fixed, s_abs = 2.0 ** -(precision + 62), ck.s.abs()
    total, S = 0, 0  # the exact sum total 2^-S of the steps' values
    rads = []  # each cell's D2, fixed-point and zeta terms, each step's X
    cond = 0.0  # the magnitudes that carry u roundings
    K = 1
    while K < T:
        b_end = float(min(K + 1, T))
        width = b_end - K
        cell = ck.cell(K)
        G0, _, D2 = ck.bounds(cell, K, b_end)
        D2 *= _D2_UP
        need = D2 * width ** 3 / (24.0 * K * K)  # n^2 times the cell's share
        share = _CELL_SHARE * target_radius / (K * (K + 1))
        if need > share * STEP_CAP ** 2:
            raise PrecisionError(f"abs-kernel quadrature cannot reach {target_radius} on cell {K}")
        n = max(1, math.ceil(math.sqrt(need / share))) if need else 1
        h3_a2 = 0.0
        a = float(K)
        for j in range(1, n + 1):
            b = b_end if j == n else K + width * j / n
            h = b - a
            u, v = _midpoint(a, h)
            x0, y0, x1, y1 = (fixed_to_float(p, W) for p in ck.g(cell, u, v, slope=True))
            val, E, X = _abs_line_integral(x0, y0, x1, y1, a, b, u / v)
            vn, vd = val.as_integer_ratio()
            Sn = vd.bit_length() - 1
            if Sn > S:
                total, S = total << (Sn - S), Sn
            total += vn << (S - Sn)
            cond += E
            if X:
                rads.append(X)
            h3_a2 += h * h * h / (a * a)
            a = b
        rads += (D2 / 24.0 * h3_a2, fixed * G0 * (2.0 + s_abs / K) * (1.0 / K - 1.0 / b_end),
                 ck.zeta_rad_per_unit(K, b_end) * width)
        K += 1
    value = fixed_to_mp(total, None, S, precision + _GUARD)
    radius = radd(math.fsum(rads), 16 * _U * cond, eps_for(precision) * float(value))
    return ApproxValue(value, radius, RIGOROUS, precision)


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


def exact_Q_l1_reference(s, precision: int = PRECISION) -> ApproxValue:
    """integral_1^inf Q_s(t)/t^2 dt = 1/(s-1) - zeta(s) + gamma, exactly."""
    sp = ComplexParam.coerce(s)
    sp.require_sigma_gt(0.0, "signed L1 reference")
    sp.require_not_one("signed L1 reference")
    z, _ = zeta_em(sp, EXACT_Q_L1_ZETA, precision=precision, want_derivative=False)
    with mpmath.mp.workprec(precision + _GUARD):
        sm = sp.as_mpc()
        v = 1 / (sm - 1) - z.value + gamma_const(precision + _GUARD)
        return ApproxValue(+v, radd(z.radius, eps_for(precision) * 8 * (1 + abs(complex(v)))),
                           RIGOROUS, precision)


def exact_Q_l1_tail(s, T: int, precision: int = PRECISION) -> ApproxValue:
    """integral_T^inf Q_s(t)/t^2 dt (integer T), in closed form:
    1/(s-1) + gamma - (zeta(s) - P_T) T^{s-1} - (H_T - log T)."""
    sp = ComplexParam.coerce(s)
    sp.require_sigma_gt(0.0, "signed tail")
    sp.require_not_one("signed tail")
    if T != int(T) or T < 1:
        raise DomainError("integer T >= 1 required")
    T = int(T)
    z, _ = zeta_em(sp, EXACT_Q_L1_ZETA, precision=precision, want_derivative=False)
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
