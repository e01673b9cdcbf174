"""Exact finite identities linking the summatory functions to the kernels.

Each *_sides function evaluates the two sides of one identity with
independent machinery (direct summation + snapshot values on one side, exact
piecewise integration on the other) and returns them as ApproxValues; a zero
residual within combined radii is the correctness statement.
"""

from __future__ import annotations

import math

import mpmath
from mpmath import mpf

from .approx import PRECISION, ApproxValue, RIGOROUS, eps_for
from .constants import gamma_const
from .dsum import DirichletTable
from .kernels import Q, R, KernelSpec
from .piecewise import (FunctionSpec, HalfMinusFracFactor,
                        HarmonicWeightFactor, InnerSumFactor, KernelFactor,
                        LogMinusHFactor, PowLogSum, PowSumFactor, StepPolyFactor,
                        integrate_partition, integrate_m_kernel)
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


def _x_pows(s: ComplexParam, x: float):
    sm = s.as_mpc()
    xm = mpf(x)
    return mpmath.power(xm, 1 - sm), mpmath.power(xm, sm - 1)  # x^{1-s}, x^{s-1}


def mieux1_sides(s, x: float, precision: int = PRECISION):
    """zeta(s)(sum mu/n^s - m(x)/x^{s-1}) - 1  vs
    (m-check(x)-1)/x^{s-1} + x^{1-s} * integral m(x/t) Q_s(t) dt/t^2."""
    sp = ComplexParam.coerce(s)
    sp.require_not_one("first kernel identity")
    with mpmath.mp.workprec(precision + _GUARD):
        z, _ = zeta_em(sp, _ZETA_TARGET, precision=precision, want_derivative=False)
        snap = summatory(x, mode="mp", precision=precision)
        msum = mu_power_sum(x, sp, precision)
        x1s, xs1 = _x_pows(sp, x)
        lhs = z * (msum - snap.m * ApproxValue.exact(x1s, precision)) - 1
        kf = KernelFactor(KernelSpec(Q, sp), precision, _ZETA_TARGET)
        integ = integrate_m_kernel(x, kf, precision)
        rhs = (snap.m_check - 1) * ApproxValue.exact(x1s, precision) \
            + ApproxValue.exact(x1s, precision) * integ
    return lhs, rhs


def poids_sides(s, x: float, precision: int = PRECISION):
    """Same left side as mieux1 vs the fractional-part-corrected expansion
    with the R kernel (valid for Re s > -1)."""
    sp = ComplexParam.coerce(s)
    sp.require_not_one("weighted kernel identity")
    sp.require_sigma_gt(-1.0, "weighted kernel identity")
    with mpmath.mp.workprec(precision + _GUARD):
        sm = sp.as_mpc()
        z, _ = zeta_em(sp, _ZETA_TARGET, precision=precision, want_derivative=False)
        snap = summatory(x, mode="mp", precision=precision)
        msum = mu_power_sum(x, sp, precision)
        x1s, _ = _x_pows(sp, x)
        xms = mpmath.power(mpf(x), -sm)
        lhs = z * (msum - snap.m * ApproxValue.exact(x1s, precision)) - 1
        kf = KernelFactor(KernelSpec(R, sp), precision, _ZETA_TARGET)
        integ = integrate_m_kernel(x, kf, precision)
        x1s_a = ApproxValue.exact(x1s, precision)
        rhs = (ApproxValue.exact(sm) * (snap.m_check - 1) * x1s_a
               - ApproxValue.exact((sm - 1) / 2) * snap.m1 * x1s_a
               + ApproxValue.exact((sm - 1) * xms)
               + x1s_a * integ)
    return lhs, rhs


def k1_sides(s, x: float, precision: int = PRECISION):
    """x^{1-s} integral [m-check(x/t)-1] sum_j (t/j)^s dt/t^2  vs
    integral [log t - H(t)] t^{-s} dt, both over [1, x]."""
    sp = ComplexParam.coerce(s)
    with mpmath.mp.workprec(precision + _GUARD):
        x1s, _ = _x_pows(sp, x)
        lhs_int = integrate_m_kernel(x, PowSumFactor(sp, precision), precision,
                                     weight="mcheck1")
        lhs = ApproxValue.exact(x1s, precision) * lhs_int
        rhs = integrate_partition(
            x, [LogMinusHFactor(math.floor(x), precision)],
            PowLogSum.monomial(mpf(1), -sp.as_mpc(), 0), precision=precision)
    return lhs, rhs


def kgen2_sides(s, x: float, precision: int = PRECISION):
    """The k = 2 instance with surrogate polynomial 2X - 2 gamma:
    x^{1-s} integral [mdd(x/t) - 2log(x/t) + 2gamma] sum_j (t/j)^s dt/t^2  vs
    integral [log^2 t - sum_{j<=t} (2 log(t/j) - 2 gamma)/j] t^{-s} dt."""
    sp = ComplexParam.coerce(s)
    N = math.floor(x)
    with mpmath.mp.workprec(precision + _GUARD):
        g = gamma_const(precision + _GUARD)
        x1s, _ = _x_pows(sp, x)
        lhs_int = integrate_m_kernel(x, PowSumFactor(sp, precision), precision,
                                     weight="mdcheck")
        lhs = ApproxValue.exact(x1s, precision) * lhs_int
        # right integrand: log^2 t - 2 H_K log t + 2 Hlog_K + 2 gamma H_K
        harmonic = DirichletTable(1.0, 0.0, precision + _GUARD, logs=True)
        H, SHl = (harmonic.values(N + 1, i, cumulative=True) for i in range(2))
        w0 = [2 * SHl[k] + 2 * g * H[k] for k in range(len(H))]
        w1 = [-2 * H[k] for k in range(len(H))]
        w2 = [mpf(1)] * len(H)
        rhs = integrate_partition(
            x, [StepPolyFactor([w0, w1, w2])],
            PowLogSum.monomial(mpf(1), -sp.as_mpc(), 0), precision=precision)
    return lhs, rhs


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


def halfstep_candidates(s, x: float, precision: int = PRECISION):
    """The fractional-part cross term integral m(x/t)(s-1)(1/2-{t}) dt/t^2,
    with the candidate closed forms its source display could have meant.

    Returns (value, {name: candidate ApproxValue}); the sign-corrected
    bracketing -(s-1)((mcheck-1) - m1/2 + 1/x) is the exact one.
    """
    sp = ComplexParam.coerce(s)
    with mpmath.mp.workprec(precision + _GUARD):
        sm = sp.as_mpc()
        integ = integrate_m_kernel(x, HalfMinusFracFactor(), precision)
        value = ApproxValue.exact(sm - 1) * integ
        snap = summatory(x, mode="mp", precision=precision)
        inv_x = ApproxValue.exact(mpf(1) / mpf(x))
        mc1 = snap.m_check - 1
        bracket = mc1 - snap.m1 * ApproxValue.exact(mpf(1) / 2) + inv_x
        candidates = {
            "as-printed": ApproxValue.exact(sm - 1) * bracket,
            "outer-first-term-only": ApproxValue.exact(sm - 1) * mc1
                                     - snap.m1 * ApproxValue.exact(mpf(1) / 2) + inv_x,
            "sign-corrected": ApproxValue.exact(-(sm - 1)) * bracket,
        }
    return value, candidates


def formule_m_value(x: float, precision: int = PRECISION):
    """integral m(x/t) [sum_{k<=t} 2k/t] dt/t^2, which equals 1 - 1/x^2."""
    N = math.floor(x)
    with mpmath.mp.workprec(precision + _GUARD):
        g = InnerSumFactor([1] * N, FunctionSpec.power(-1.0, 2.0), precision + _GUARD)
        value = integrate_m_kernel(x, g, precision)
        expect = 1 - mpf(1) / mpf(x) ** 2
    return value, expect


def abel_s_sides(s, x: float, precision: int = PRECISION):
    """(s-1) integral_1^x m(t) t^{-s} dt  vs  sum mu/n^s - m(x)/x^{s-1}."""
    sp = ComplexParam.coerce(s)
    table = DirichletTable(1.0, 0.0, precision + _GUARD)
    m_col = table.values(math.floor(x), mu=True, cumulative=True)
    with mpmath.mp.workprec(precision + _GUARD):
        sm = sp.as_mpc()
        integ = integrate_partition(
            x, [StepPolyFactor([m_col])],
            PowLogSum.monomial(mpf(1), -sm, 0), precision=precision)
        lhs = ApproxValue.exact(sm - 1) * integ
        x1s, _ = _x_pows(sp, x)
        snap = summatory(x, mode="mp", precision=precision)
        rhs = mu_power_sum(x, sp, precision) - snap.m * ApproxValue.exact(x1s)
    return lhs, rhs


def int_check_sides(s, x: float, precision: int = PRECISION):
    """(s-1) integral m-check(t) t^{-s} dt  vs
    integral m(t) t^{-s} dt - x^{1-s} m-check(x)  (f = m instance)."""
    sp = ComplexParam.coerce(s)
    table = DirichletTable(1.0, 0.0, precision + _GUARD, logs=True)
    m_col, sl_col = (table.values(math.floor(x), i, mu=True, cumulative=True) for i in range(2))
    with mpmath.mp.workprec(precision + _GUARD):
        sm = sp.as_mpc()
        extra = PowLogSum.monomial(mpf(1), -sm, 0)
        mcheck_factor = StepPolyFactor([[-v for v in sl_col], m_col])
        lhs = ApproxValue.exact(sm - 1) * integrate_partition(
            x, [mcheck_factor], extra, precision=precision)
        int_m = integrate_partition(x, [StepPolyFactor([m_col])], extra,
                                    precision=precision)
        snap = summatory(x, mode="mp", precision=precision)
        x1s, _ = _x_pows(sp, x)
        rhs = int_m - ApproxValue.exact(x1s) * snap.m_check
    return lhs, rhs
