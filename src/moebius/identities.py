"""Exact finite identities linking the summatory functions to the kernels.

Each *_sides function evaluates the two sides of one identity with
independent machinery (direct summation + snapshot values on one side, exact
piecewise integration on the other) and returns them as ApproxValues; a zero
residual within combined radii is the correctness statement.

The (s, x) identities take a list of (s, x) cells and return their sides in
cell order.  The cells at one x share one summatory(x, mode="mp") snapshot,
the factors that depend on x alone (the m(x/t) weight, the m and sl columns,
log t - H(t), the harmonic step polynomial, 1/2 - {t}) and one
`integrate_partitions` call, so one walk per x and need_inverse_points flag.
The walk gives every integrand of a batch the value and radius of the same
integrand walked alone, bit for bit, so each cell's sides are those of its
batch of one.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mpf

from .approx import PRECISION, ApproxValue, RIGOROUS, eps_for
from .constants import gamma_const
from .dsum import DirichletTable
from .kernels import Q, R, KernelSpec
from .piecewise import (FunctionSpec, HalfMinusFracFactor, HarmonicWeightFactor,
                        InnerSumFactor, KernelFactor, LogMinusHFactor, PowLogSum,
                        PowSumFactor, StepPolyFactor, integrate_m_kernel,
                        integrate_partitions, m_weight_factor, mcheck_minus_one_factor,
                        mdcheck_normalized_factor)
from .summatory import summatory
from .zeta import ComplexParam, zeta_em

_GUARD = 96
_ZETA_TARGET = 1e-36  # zeta(s) for mieux-1 and poids: one ladder per s, read by both sides


def mu_power_sum(x: float, s, precision: int = PRECISION) -> ApproxValue:
    """sum_{n<=x} mu(n) n^(-s), from the fixed-point engine."""
    sp = ComplexParam.coerce(s)
    table = DirichletTable(sp.sigma, sp.tau, precision)
    return table.total(math.floor(x), mu=True)


def mu_log_power_sum(x: float, s, precision: int = PRECISION) -> ApproxValue:
    """sum_{n<=x} mu(n) n^(-s) log(x/n) = log x sum mu n^-s - sum mu n^-s log n."""
    sp = ComplexParam.coerce(s)
    N = math.floor(x)
    table = DirichletTable(sp.sigma, sp.tau, precision, logs=True)
    s0, s1 = (table.total(N, i, mu=True) for i in range(2))
    with mpmath.mp.workprec(precision + _GUARD):
        logx = mpmath.log(mpf(x))
        lx = ApproxValue(logx, eps_for(precision + _GUARD) * abs(float(logx)), RIGOROUS, precision)
        return lx * s0 - s1


def _x1s(s: ComplexParam, x: float):
    """x^{1-s}."""
    return mpmath.power(mpf(x), 1 - s.as_mpc())


def _by_x(cells, require=None) -> dict:
    """{x: [(position, s as a ComplexParam)]} for the (s, x) cells, x in
    order of first appearance; `require(s)` raises on a cell outside the
    identity's domain, before any cell is computed."""
    groups: dict = {}
    for i, (s, x) in enumerate(cells):
        sp = ComplexParam.coerce(s)
        if require is not None:
            require(sp)
        groups.setdefault(x, []).append((i, sp))
    return groups


def _t_pow(sp: ComplexParam) -> PowLogSum:
    """t^(-s) as a constant factor."""
    return PowLogSum.monomial(mpf(1), -sp.as_mpc(), 0)


def _kernel_sides(cells, kernel: str, require, rhs, precision: int) -> list:
    """Per (s, x): zeta(s)(sum mu/n^s - m(x)/x^{s-1}) - 1 and
    rhs(s, x, snap, x^{1-s}, integral m(x/t) K_s(t) dt/t^2), K the kernel."""
    out = [None] * len(cells)
    with mpmath.mp.workprec(precision + _GUARD):
        for x, members in _by_x(cells, require).items():
            snap = summatory(x, mode="mp", precision=precision)
            w, over_t2 = m_weight_factor(x, precision), PowLogSum.monomial(mpf(1), mpf(-2), 0)
            integs = integrate_partitions(
                x, [[w, KernelFactor(KernelSpec(kernel, sp), precision, _ZETA_TARGET), over_t2]
                    for _, sp in members], precision)
            for (i, sp), integ in zip(members, integs):
                z, _ = zeta_em(sp, _ZETA_TARGET, precision=precision, want_derivative=False)
                x1s = ApproxValue.exact(_x1s(sp, x), precision)
                lhs = z * (mu_power_sum(x, sp, precision) - snap.m * x1s) - 1
                out[i] = lhs, rhs(sp, x, snap, x1s, integ)
    return out


def mieux1_sides(cells, precision: int = PRECISION) -> list:
    """Per (s, x): zeta(s)(sum mu/n^s - m(x)/x^{s-1}) - 1  vs
    (m-check(x)-1)/x^{s-1} + x^{1-s} * integral m(x/t) Q_s(t) dt/t^2."""
    return _kernel_sides(
        cells, Q, lambda sp: sp.require_not_one("first kernel identity"),
        lambda sp, x, snap, x1s, integ: (snap.m_check - 1) * x1s + x1s * integ, precision)


def poids_sides(cells, precision: int = PRECISION) -> list:
    """Per (s, x): the same left side as mieux1 vs the fractional-part-corrected
    expansion with the R kernel (valid for Re s > -1)."""
    def require(sp):
        sp.require_not_one("weighted kernel identity")
        sp.require_sigma_gt(-1.0, "weighted kernel identity")

    def rhs(sp, x, snap, x1s, integ):
        sm = sp.as_mpc()
        return (ApproxValue.exact(sm) * (snap.m_check - 1) * x1s
                - ApproxValue.exact((sm - 1) / 2) * snap.m1 * x1s
                + ApproxValue.exact((sm - 1) * mpmath.power(mpf(x), -sm))
                + x1s * integ)
    return _kernel_sides(cells, R, require, rhs, precision)


def _power_sum_sides(cells, weight, right, precision: int) -> list:
    """Per (s, x): x^{1-s} integral w(x/t) sum_j (t/j)^s dt/t^2  vs
    integral r(t) t^{-s} dt, both over [1, x], with w = weight(x, precision)
    and r = right(x) built once per x."""
    out = [None] * len(cells)
    with mpmath.mp.workprec(precision + _GUARD):
        for x, members in _by_x(cells).items():
            w, over_t2, r = weight(x, precision), PowLogSum.monomial(mpf(1), mpf(-2), 0), right(x)
            integs = integrate_partitions(
                x, [[w, PowSumFactor(sp, precision), over_t2] for _, sp in members]
                + [[r, _t_pow(sp)] for _, sp in members], precision)
            for (i, sp), lhs_int, rhs in zip(members, integs, integs[len(members):]):
                out[i] = ApproxValue.exact(_x1s(sp, x), precision) * lhs_int, rhs
    return out


def k1_sides(cells, precision: int = PRECISION) -> list:
    """Per (s, x): x^{1-s} integral [m-check(x/t)-1] sum_j (t/j)^s dt/t^2  vs
    integral [log t - H(t)] t^{-s} dt, both over [1, x]."""
    return _power_sum_sides(cells, mcheck_minus_one_factor,
                            lambda x: LogMinusHFactor(math.floor(x), precision), precision)


def kgen2_sides(cells, precision: int = PRECISION) -> list:
    """Per (s, x): the k = 2 instance with surrogate polynomial 2X - 2 gamma:
    x^{1-s} integral [mdd(x/t) - 2log(x/t) + 2gamma] sum_j (t/j)^s dt/t^2  vs
    integral [log^2 t - sum_{j<=t} (2 log(t/j) - 2 gamma)/j] t^{-s} dt."""
    def right(x):
        # log^2 t - 2 H_K log t + 2 Hlog_K + 2 gamma H_K
        g = gamma_const(precision + _GUARD)
        harmonic = DirichletTable(1.0, 0.0, precision + _GUARD, logs=True)
        H, SHl = (harmonic.values(math.floor(x) + 1, i, cumulative=True) for i in range(2))
        w0 = [2 * SHl[k] + 2 * g * H[k] for k in range(len(H))]
        w1 = [-2 * H[k] for k in range(len(H))]
        return StepPolyFactor([w0, w1, [mpf(1)] * len(H)])
    return _power_sum_sides(cells, mdcheck_normalized_factor, right, precision)


def double_check_borne_sides(x: float, precision: int = PRECISION):
    """integral m(x/t) t (H(t) - log t - gamma) dt/t^2  vs
    -(mdd(x) - 2log x + 2gamma)/2 - gamma (m-check(x) - 1)."""
    with mpmath.mp.workprec(precision + _GUARD):
        g = gamma_const(precision + _GUARD)
        lhs = integrate_m_kernel(x, HarmonicWeightFactor(math.floor(x), precision), precision)
        snap = summatory(x, mode="mp", precision=precision)
        logx = mpmath.log(mpf(x))
        norm = snap.m_dcheck - ApproxValue.exact(2 * logx - 2 * g, precision)
        rhs = ApproxValue.exact(mpf(-1) / 2) * norm \
            - ApproxValue.exact(g) * (snap.m_check - 1)
    return lhs, rhs


def halfstep_candidates(cells, precision: int = PRECISION) -> list:
    """Per (s, x): the fractional-part cross term
    integral m(x/t)(s-1)(1/2-{t}) dt/t^2, with the candidate closed forms its
    source display could have meant.

    Each cell's entry is (value, {name: candidate ApproxValue}); the
    sign-corrected bracketing -(s-1)((mcheck-1) - m1/2 + 1/x) is the exact
    one.  The integral without its factor (s-1) is s-free: one per x.
    """
    out = [None] * len(cells)
    with mpmath.mp.workprec(precision + _GUARD):
        for x, members in _by_x(cells).items():
            integ = integrate_m_kernel(x, HalfMinusFracFactor(), precision)
            snap = summatory(x, mode="mp", precision=precision)
            inv_x, half = ApproxValue.exact(mpf(1) / mpf(x)), ApproxValue.exact(mpf(1) / 2)
            mc1 = snap.m_check - 1
            bracket = mc1 - snap.m1 * half + inv_x
            for i, sp in members:
                sm1 = ApproxValue.exact(sp.as_mpc() - 1)
                out[i] = sm1 * integ, {
                    "as-printed": sm1 * bracket,
                    "outer-first-term-only": sm1 * mc1 - snap.m1 * half + inv_x,
                    "sign-corrected": ApproxValue.exact(-(sp.as_mpc() - 1)) * bracket,
                }
    return out


def formule_m_value(x: float, precision: int = PRECISION):
    """integral m(x/t) [sum_{k<=t} 2k/t] dt/t^2, which equals 1 - 1/x^2."""
    N = math.floor(x)
    with mpmath.mp.workprec(precision + _GUARD):
        g = InnerSumFactor([1] * N, FunctionSpec.power(-1.0, 2.0), precision + _GUARD)
        value = integrate_m_kernel(x, g, precision)
        expect = 1 - mpf(1) / mpf(x) ** 2
    return value, expect


def abel_s_sides(cells, precision: int = PRECISION) -> list:
    """Per (s, x): (s-1) integral_1^x m(t) t^{-s} dt  vs
    sum mu/n^s - m(x)/x^{s-1}."""
    out = [None] * len(cells)
    for x, members in _by_x(cells).items():
        table = DirichletTable(1.0, 0.0, precision + _GUARD)
        m_col = table.values(math.floor(x), mu=True, cumulative=True)
        with mpmath.mp.workprec(precision + _GUARD):
            m_factor = StepPolyFactor([m_col])
            integs = integrate_partitions(x, [[m_factor, _t_pow(sp)] for _, sp in members],
                                          precision)
            snap = summatory(x, mode="mp", precision=precision)
            for (i, sp), integ in zip(members, integs):
                rhs = mu_power_sum(x, sp, precision) - snap.m * ApproxValue.exact(_x1s(sp, x))
                out[i] = ApproxValue.exact(sp.as_mpc() - 1) * integ, rhs
    return out


def int_check_sides(cells, precision: int = PRECISION) -> list:
    """Per (s, x): (s-1) integral m-check(t) t^{-s} dt  vs
    integral m(t) t^{-s} dt - x^{1-s} m-check(x)  (f = m instance)."""
    out = [None] * len(cells)
    for x, members in _by_x(cells).items():
        table = DirichletTable(1.0, 0.0, precision + _GUARD, logs=True)
        m_col, sl_col = (table.values(math.floor(x), i, mu=True, cumulative=True)
                         for i in range(2))
        with mpmath.mp.workprec(precision + _GUARD):
            mcheck_factor = StepPolyFactor([[-v for v in sl_col], m_col])
            m_factor = StepPolyFactor([m_col])
            extras = [_t_pow(sp) for _, sp in members]
            integs = integrate_partitions(
                x, [[mcheck_factor, e] for e in extras] + [[m_factor, e] for e in extras],
                precision)
            snap = summatory(x, mode="mp", precision=precision)
            for (i, sp), int_mcheck, int_m in zip(members, integs, integs[len(members):]):
                out[i] = (ApproxValue.exact(sp.as_mpc() - 1) * int_mcheck,
                          int_m - ApproxValue.exact(_x1s(sp, x)) * snap.m_check)
    return out
