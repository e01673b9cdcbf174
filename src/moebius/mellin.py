"""Truncated transform identities: tails of the summatory functions against
t^(-s), evaluated exactly piecewise over [x, T] plus a rigorous bound on the
remaining tail, compared with their closed forms in 1/zeta and zeta'/zeta^2.

The [x, T] integrals stream the sieve in segments and run vectorized
complex128 arithmetic; per-piece antiderivatives are closed-form, and the
radius covers the vector rounding (via absolute-magnitude condition sums),
the compensated prefix radii of the weights, and the tail bound built from
the imported explicit estimates (|m(t)| <= 0.0130073/log t for t >= 97063 and
the step-function conversion lemma for the smoothed weights).
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from mpmath import mpf

from .approx import ApproxValue, RIGOROUS, radd
from .constants import (HARMONIC_LOWER, LITTLE_M_OVER_LOG, gamma_const)
from .errors import DomainError
from .identities import mu_power_sum, _x_pows
from .kernels import frac_tail_integral
from .piecewise import PowLogSum, QKernelFactor, integrate_partition, mcheck_minus_one_factor
from .sieve import iter_segments
from .summatory import compensated_cumsum, summatory
from .zeta import ComplexParam, partial_power_sum, zeta_em

_EPS = 2.0**-52
_GAMMA_F = float(gamma_const(64))
_HGAP_SUP = abs(HARMONIC_LOWER)  # |H(t) - log t - gamma| <= 0.5408 / t

WEIGHT_M = "m"
WEIGHT_MCHECK1 = "mcheck1"
WEIGHT_MDNORM = "mdnorm"
WEIGHT_HGAP = "hgap"


def default_T(x: float, cap: float = 1e7) -> int:
    return int(min(max(1e6, 1e3 * x), cap))


def power_log_tail(sigma: float, T: float, j: int) -> float:
    """integral_T^inf t^(-sigma) log^j(t/T) dt = j! T^(1-sigma)/(sigma-1)^(j+1)."""
    if sigma <= 1:
        raise DomainError("power-log tail needs sigma > 1")
    return math.factorial(j) * T ** (1.0 - sigma) / (sigma - 1.0) ** (j + 1)


class TruncatedTransform:
    """One streaming pass: basis integrals B_j = integral_x^T w(t) t^(-s)
    log^j t dt for j = 0..mom_max, plus the prefix point data at x and T.

    The weight w is m, m-check - 1, the normalized m-double-check, or the
    harmonic gap H - log - gamma; each is an exact log-polynomial on [n, n+1).
    """

    def __init__(self, s, x: float, T: float, weight: str, mom_max: int = 0):
        sp = ComplexParam.coerce(s)
        if not (1 <= x <= T):
            raise DomainError("need 1 <= x <= T")
        self.s = sp
        self.x = float(x)
        self.T = float(T)
        self.weight = weight
        sm = complex(sp.sigma, sp.tau)
        deg = {WEIGHT_M: 0, WEIGHT_MCHECK1: 1, WEIGHT_MDNORM: 2, WEIGHT_HGAP: 1}[weight]
        jmax = mom_max + deg
        B = np.zeros(mom_max + 1, dtype=np.complex128)
        cond = np.zeros(mom_max + 1)
        sens = np.zeros(mom_max + 1)
        # streaming prefix state (carried across segments)
        carry = {"m": [], "sl": [], "sl2": [], "H": [], "I0": []}
        carry_rad = dict.fromkeys(carry, 0.0)
        musum = 0.0 + 0.0j
        mulogsum = 0.0 + 0.0j
        musum_abs = 0.0
        mulog_abs = 0.0
        Nx = math.floor(x)
        NT = math.floor(T)
        self.at_x: dict = {}
        self.at_T: dict = {}
        need_mu = weight != WEIGHT_HGAP
        for seg in iter_segments(1, max(NT, 1)):
            ns = np.arange(seg.lo, seg.hi + 1, dtype=np.float64)
            logs = np.log(ns)
            if need_mu:
                mus = seg.values.astype(np.float64)
                mu_over_n = mus / ns
                m_arr, m_rad = self._carried(carry, carry_rad, "m", mu_over_n, 1)
                sl_arr, sl_rad = self._carried(carry, carry_rad, "sl", mu_over_n * logs, 4)
                sl2_arr, sl2_rad = self._carried(carry, carry_rad, "sl2", mu_over_n * logs * logs, 6)
                absm = np.abs(m_arr)
                I0_arr, I0_rad = self._carried(carry, carry_rad, "I0", absm, 0,
                                               extra_rad=m_rad)
            H_arr, H_rad = self._carried(carry, carry_rad, "H", 1.0 / ns, 1)
            # mu power sums below x
            if need_mu and seg.lo <= Nx:
                hi = min(Nx, seg.hi)
                sl_n = slice(0, hi - seg.lo + 1)
                pw = np.exp(-sm * logs[sl_n]) * seg.values[sl_n]
                musum += complex(np.sum(pw))
                musum_abs += float(np.sum(np.abs(pw)))
                pwl = pw * logs[sl_n]
                mulogsum += complex(np.sum(pwl))
                mulog_abs += float(np.sum(np.abs(pwl)))
            # capture point data
            for mark, idx in (("x", Nx), ("T", NT)):
                if seg.lo <= idx <= seg.hi:
                    i = idx - seg.lo
                    store = self.at_x if mark == "x" else self.at_T
                    if need_mu:
                        store.update(m=(m_arr[i], m_rad[i]), sl=(sl_arr[i], sl_rad[i]),
                                     sl2=(sl2_arr[i], sl2_rad[i]),
                                     I0=(I0_arr[i] - abs(m_arr[i]), I0_rad[i]))
                        # I0 column here is integral over [1, n+1]; at the mark we
                        # want [1, n], hence the one-piece correction above
                    store.update(H=(H_arr[i], H_rad[i]))
            # pieces of [x, T] covered by this segment
            lo_t = max(self.x, float(seg.lo))
            hi_t = min(self.T, float(seg.hi + 1))
            if lo_t >= hi_t:
                continue
            first_n = math.floor(lo_t)
            ends = np.arange(first_n + 1, math.floor(hi_t) + 1, dtype=np.float64)
            breaks = np.concatenate(([lo_t], ends))
            if breaks[-1] != hi_t:
                breaks = np.concatenate((breaks, [hi_t]))
            npc = len(breaks) - 1
            if npc <= 0:
                continue
            piece_n = np.floor(breaks[:-1] + 0.0).astype(np.int64)
            piece_n[0] = first_n
            rel = piece_n - seg.lo
            lb = np.log(breaks)
            E = np.exp((1.0 - sm) * lb)  # t^{1-s} at the breakpoints
            # G_j recurrence: F_j = E * G_j,  G_j = (lb^j - j G_{j-1})/(1-s)
            Fs = []
            G = np.full(len(breaks), 1.0 / (1.0 - sm), dtype=np.complex128)
            Fs.append(E * G)
            for j in range(1, jmax + 1):
                G = (lb ** j - j * G) / (1.0 - sm)
                Fs.append(E * G)
            dF = [f[1:] - f[:-1] for f in Fs]
            aF = [np.abs(f[1:]) + np.abs(f[:-1]) for f in Fs]
            if weight == WEIGHT_M:
                cols = [(m_arr[rel], m_rad[rel])]
            elif weight == WEIGHT_MCHECK1:
                cols = [(-sl_arr[rel] - 1.0, sl_rad[rel]),
                        (m_arr[rel], m_rad[rel])]
            elif weight == WEIGHT_MDNORM:
                cols = [(sl2_arr[rel] + 2.0 * _GAMMA_F, sl2_rad[rel]),
                        (-2.0 * sl_arr[rel] - 2.0, 2.0 * sl_rad[rel]),
                        (m_arr[rel], m_rad[rel])]
            else:  # hgap
                cols = [(H_arr[rel] - _GAMMA_F, H_rad[rel]),
                        (np.full(npc, -1.0), np.zeros(npc))]
            for j in range(mom_max + 1):
                for k, (w, wrad) in enumerate(cols):
                    B[j] += np.sum(w * dF[j + k])
                    cond[j] += float(np.sum(np.abs(w) * aF[j + k]))
                    sens[j] += float(np.sum(wrad * aF[j + k]))
        self.basis = []
        for j in range(mom_max + 1):
            rad = _EPS * 1024.0 * (cond[j] + abs(B[j])) + sens[j]
            self.basis.append(ApproxValue(B[j], radd(rad), RIGOROUS, 53))
        if need_mu:
            self.mu_power_x = ApproxValue(musum, radd(_EPS * 64 * musum_abs), RIGOROUS, 53)
            logx = math.log(self.x)
            v = logx * musum - mulogsum
            self.mu_logpower_x = ApproxValue(
                v, radd(_EPS * 64 * (abs(logx) * musum_abs + mulog_abs + abs(v))), RIGOROUS, 53)

    @staticmethod
    def _carried(carry, carry_rad, key, terms, ulps, extra_rad=None):
        offset = math.fsum(carry[key])
        arr, rad = compensated_cumsum(terms, ulps)
        if extra_rad is not None:
            rad = rad + np.cumsum(extra_rad)
        arr += offset
        rad += carry_rad[key] + _EPS * 2 * abs(offset)
        carry[key].append(float(arr[-1] - offset))
        carry_rad[key] = float(rad[-1])
        return arr, rad

    # point helpers ---------------------------------------------------------

    def _point(self, store: dict, x: float) -> dict[str, ApproxValue]:
        logx = math.log(x)
        m, m_r = store["m"]
        sl, sl_r = store["sl"]
        sl2, sl2_r = store["sl2"]
        out = {"m": ApproxValue(m, radd(m_r), RIGOROUS, 53)}
        mc = logx * m - sl - 1.0
        out["mcheck1"] = ApproxValue(mc, radd(abs(logx) * m_r + sl_r
                                              + _EPS * 8 * (abs(logx * m) + abs(mc))), RIGOROUS, 53)
        md = logx ** 2 * m - 2 * logx * sl + sl2 - 2 * logx + 2 * _GAMMA_F
        out["mdnorm"] = ApproxValue(
            md, radd(logx ** 2 * m_r + 2 * abs(logx) * sl_r + sl2_r
                     + _EPS * 16 * (logx ** 2 * abs(m) + abs(logx * sl) + abs(md) + abs(logx))),
            RIGOROUS, 53)
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


def mtronq_residual(s, x: float, T: float | None = None, precision: int = 128):
    """(s-1) integral_x^inf m(t) t^(-s) dt = 1/zeta - sum mu/n^s + m(x)/x^{s-1}."""
    sp = ComplexParam.coerce(s)
    sp.require_sigma_gt(1.0, "m-tail transform")
    T = T or default_T(x)
    tt = TruncatedTransform(sp, x, T, WEIGHT_M, 0)
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


def mtronqch_residual(s, x: float, T: float | None = None, precision: int = 128):
    sp = ComplexParam.coerce(s)
    sp.require_sigma_gt(1.0, "m-check tail transform")
    T = T or default_T(x)
    tt = TruncatedTransform(sp, x, T, WEIGHT_MCHECK1, 0)
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


def mtronqchch_residual(s, x: float, T: float | None = None, precision: int = 128):
    sp = ComplexParam.coerce(s)
    sp.require_sigma_gt(1.0, "m-double-check tail transform")
    T = T or default_T(x)
    tt = TruncatedTransform(sp, x, T, WEIGHT_MDNORM, 0)
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


def derivK1_residual(s, x: float, T: float | None = None, precision: int = 128):
    """integral_x^inf m t^{-s} + (s-1) integral_x^inf m t^{-s} log(x/t)
    = log x / zeta - zeta'/zeta^2 - sum mu n^{-s} log(x/n)."""
    sp = ComplexParam.coerce(s)
    sp.require_sigma_gt(1.0, "derived m transform")
    T = T or default_T(x)
    tt = TruncatedTransform(sp, x, T, WEIGHT_M, 1)
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


def derivK2_residual(s, x: float, T: float | None = None, precision: int = 128):
    """2(s-1) integral (mcheck-1) t^{-s} + (s-1)^2 integral (mcheck-1) t^{-s} log(x/t)
    = log x/zeta - zeta'/zeta^2 - sum mu n^{-s} log(x/n) + (mcheck(x)-1)/x^{s-1}."""
    sp = ComplexParam.coerce(s)
    sp.require_sigma_gt(1.0, "derived m-check transform")
    T = T or default_T(x)
    tt = TruncatedTransform(sp, x, T, WEIGHT_MCHECK1, 1)
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


def derivK3_residual(s, x: float, T: float | None = None, precision: int = 128):
    sp = ComplexParam.coerce(s)
    sp.require_sigma_gt(1.0, "derived m-double-check transform")
    T = T or default_T(x)
    tt = TruncatedTransform(sp, x, T, WEIGHT_MDNORM, 1)
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


def har_residual(s, t: float, T: float | None = None, precision: int = 128):
    """(s-1) integral_t^inf (H - log - gamma) u^{-s} du
    = zeta - sum_{n<=t} n^{-s} - t^{1-s}/(s-1) + (H(t)-log t-gamma)/t^{s-1}."""
    sp = ComplexParam.coerce(s)
    sp.require_sigma_gt(0.0, "harmonic-gap transform")
    sp.require_not_one("harmonic-gap transform")
    T = T or default_T(t)
    tt = TruncatedTransform(sp, t, T, WEIGHT_HGAP, 0)
    tail = abs(complex(sp.sigma - 1, sp.tau)) * _HGAP_SUP * T ** (-sp.sigma) / sp.sigma
    with mpmath.mp.workprec(precision + 32):
        smc = sp.as_mpc()
        lhs = ((ApproxValue.exact(smc) - 1) * tt.basis[0]).widened(tail)
        z, _ = zeta_em(sp, 1e-33, precision=precision, want_derivative=False)
        psum = partial_power_sum(sp, t, precision)
        tm = mpf(t)
        H_t, H_r = tt.at_x["H"]
        hgap = ApproxValue(H_t, radd(H_r), RIGOROUS, 53) - ApproxValue.exact(
            mpmath.log(tm) + gamma_const(precision))
        rhs = (z - psum - ApproxValue.exact(mpmath.power(tm, 1 - smc) / (smc - 1))
               + hgap * ApproxValue.exact(mpmath.power(tm, 1 - smc)))
    return lhs, rhs


def ent_residual(s, t: float, precision: int = 128):
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


def mieux2_sides(s, x: float, T: float | None = None, precision: int = 128,
                 gamma_sign: int = +1):
    """zeta(s)(sum mu/n^s - m/x^{s-1} - (s-1)(mcheck-1)/x^{s-1}) - 1  vs
    (s-1)/x^{s-1} (mdd/2 - log x + sign*gamma)
      + (s-1)/x^{s-1} integral [mcheck(x/t)-1] Q_s dt/t^2
      - (s-1)^2 integral_x^inf (log t - H + gamma) t^{-s} dt.

    gamma_sign adjudicates the printed-sign question; +1 closes the identity.
    """
    sp = ComplexParam.coerce(s)
    sp.require_sigma_gt(0.0, "smoothed kernel identity")
    sp.require_not_one("smoothed kernel identity")
    T = T or default_T(x)
    prec = precision
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
        Qf = QKernelFactor(sp, prec)
        conv = integrate_partition(x, [mcheck_minus_one_factor(x, prec), Qf],
                                   PowLogSum.monomial(mpf(1), mpf(-2), 0),
                                   precision=prec)
        # integral_x^inf (log t - H + gamma) t^{-s} dt = -(hgap transform)
        tt = TruncatedTransform(sp, x, T, WEIGHT_HGAP, 0)
        hterm = -tt.basis[0]
        hterm = hterm.widened(_HGAP_SUP * T ** (-sp.sigma) / sp.sigma)
        logx = mpmath.log(mpf(x))
        paren = (snap.m_dcheck * ApproxValue.exact(mpf(1) / 2)
                 - ApproxValue.exact(logx) + ApproxValue.exact(gamma_sign * g))
        rhs = (ApproxValue.exact(smc - 1) * x1s_a * paren
               + ApproxValue.exact(smc - 1) * x1s_a * conv
               - ApproxValue.exact((smc - 1) ** 2) * hterm)
    return lhs, rhs
