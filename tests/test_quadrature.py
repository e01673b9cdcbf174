import math
import random

import mpmath
import pytest

import mpcell
from moebius import quadrature
from moebius.constants import RHO1_IMAG_STR
from moebius.errors import DomainError, PrecisionError
from moebius.kernels import CellKernel, KernelSpec
from moebius.piecewise import KernelFactor, PowLogSum, integrate_partition
from moebius.quadrature import (exact_Q_l1_reference, exact_Q_l1_tail,
                                integrate_abs_kernel,
                                integrate_abs_kernel_to_infinity, sup_abs_kernel,
                                tail_bound_abs_Q)
from moebius.zeta import zeta_em
from oracles import FROZEN, riemann_abs_Q


def _signed(spec: KernelSpec, T: float, prec: int = 128):
    """integral_1^T kernel(t)/t^2 by the exact piecewise walk, the kernel a
    lone `KernelFactor` reading zeta(s) at radius 1e-30."""
    return integrate_partition(T, [KernelFactor(spec, prec, 1e-30)],
                               PowLogSum.monomial(mpmath.mpf(1), mpmath.mpf(-2), 0),
                               precision=prec)


def test_exact_reference_values():
    r2 = exact_Q_l1_reference(2)
    assert abs(r2.value - mpmath.mpf(FROZEN["Q_l1_ref_2"])) < 1e-15
    r3 = exact_Q_l1_reference(3)
    assert abs(r3.value - mpmath.mpf(FROZEN["Q_l1_ref_3"])) < 1e-15


def test_exact_reference_near_pole():
    # gamma + 1/(s-1) - zeta(s) -> 0 as s -> 1
    r = exact_Q_l1_reference(1 + 1e-4)
    assert abs(float(r.value)) < 1e-3
    with pytest.raises(DomainError):
        exact_Q_l1_reference(1.0)
    with pytest.raises(DomainError):
        exact_Q_l1_reference(-0.5)


def test_tail_closed_form_consistency():
    # reference = quadrature-free split: int_1^T + tail(T) telescopes for two T
    for s in (2.0, 1.5):
        t1 = exact_Q_l1_tail(s, 1)
        ref = exact_Q_l1_reference(s)
        assert abs(t1.value - ref.value) <= t1.radius + ref.radius


def test_calibration_identity():
    for s in (1.5, 2.0):
        quad = _signed(KernelSpec.make("Q", s), 1000.0)
        tail = exact_Q_l1_tail(s, 1000)
        ref = exact_Q_l1_reference(s)
        resid = abs(float(quad.value + tail.value - ref.value))
        assert resid <= quad.radius + tail.radius + ref.radius


def test_radius_monotonicity():
    spec = KernelSpec.make("Q", 2.0)
    r_coarse = integrate_abs_kernel(spec, 30.0, 1e-3)
    r_fine = integrate_abs_kernel(spec, 30.0, 5e-4)
    assert r_fine.radius <= r_coarse.radius
    assert abs(r_fine.value - r_coarse.value) <= r_fine.radius + r_coarse.radius


def test_abs_integral_empty_and_triangle():
    spec = KernelSpec.make("Q", 2.0)
    z = integrate_abs_kernel(spec, 1.0, 1e-4)
    assert float(z.value) == 0.0
    a = integrate_abs_kernel(spec, 20.0, 1e-4)
    sgn = _signed(spec, 20.0)
    assert abs(complex(sgn.value)) <= float(a.value) + a.radius + sgn.radius


@pytest.mark.parametrize("variant,s", [("Q", 2.0), ("Q", complex(0.5, float(RHO1_IMAG_STR))),
                                       ("R", complex(0.5, 3.0))])
@pytest.mark.parametrize("T", [7.5, 20.0])
def test_signed_walk_against_cell_closed_form(variant, s, T):
    """The walk's signed integral of Q or R over [1, T], T non-integer, lies
    within its radius of the per-cell closed form: on [K, b] the integrand
    c_K t^(s-2) + beta/t + delta/t^2 integrates to c_K (b^(s-1) - K^(s-1))/(s-1)
    + beta log(b/K) + delta (1/K - 1/b), with c_K, beta and delta from the mpf
    cell of a 256-bit kernel (zeta at radius 1e-70)."""
    spec = KernelSpec.make(variant, s)
    got = _signed(spec, T)
    ck = CellKernel(spec, 256, zeta_target=1e-70)
    with mpmath.workprec(256):
        sm1 = ck.sm - 1
        ref = mpmath.mpf(0)
        for K in range(1, math.ceil(T)):
            c, beta, delta = mpcell.cell(ck, K)
            a, b = mpmath.mpf(K), mpmath.mpf(min(K + 1, T))
            ref += (c * (mpmath.power(b, sm1) - mpmath.power(a, sm1)) / sm1
                    + beta * mpmath.log(b / a) + delta * (1 / a - 1 / b))
        assert abs(got.value - ref) <= got.radius, (variant, s, T)


def test_abs_integral_against_riemann_oracle():
    s = 0.5 + 14.13j
    z = complex(zeta_em(s, 1e-20)[0].value)
    oracle = riemann_abs_Q(s, z, 12, 4000)
    got = integrate_abs_kernel(KernelSpec.make("Q", s), 12.0, 1e-3)
    assert abs(float(got.value) - oracle) <= got.radius + 2e-4


def test_sup_small_interval():
    # |Q_2| on [1, 2): g = (zeta(2)-1)t^2 - t, monotone pieces, easy reference
    sup, at = sup_abs_kernel(KernelSpec.make("Q", 2.0), 1.0, 2.0, 1e-6)
    z = float(mpmath.zeta(2)) - 1.0
    grid_max = max(abs(z * t * t - t) for t in
                   [1 + i / 10000 for i in range(10001)])
    assert abs(float(sup.value) - grid_max) <= sup.radius + 1e-6


def test_tail_bounds():
    spec = KernelSpec.make("Q", 0.5 + 14.13j)
    assert tail_bound_abs_Q(spec, 20.0, sup=9.4) == pytest.approx(0.47)
    # generic sup over the half line: |s||s-1|/sigma / T
    assert tail_bound_abs_Q(spec, 7.0) == pytest.approx(399.8138 / 7.0, rel=1e-4)
    # beyond |Im s| the truncation-derived sup (5/6)|s-1| is smaller
    assert tail_bound_abs_Q(spec, 20.0) == pytest.approx((5 / 6) * abs(complex(0.5, 14.13) - 1) / 20)
    assert tail_bound_abs_Q(KernelSpec.make("Q", 2.0), 10.0, sup=1.0) == pytest.approx(0.1)
    with pytest.raises(DomainError):
        tail_bound_abs_Q(spec, 0.5)


@pytest.mark.slow
def test_adjudication_runs_to_target():
    val, T = integrate_abs_kernel_to_infinity(KernelSpec.make("Q", 0.5 + 14.13j), 2e-2)
    assert val.radius <= 2e-2
    assert T >= 14.13
    # rigorous verdict on the heuristic claim <= 11: the integral exceeds it
    assert float(val.value) - val.radius > 11.0


@pytest.mark.parametrize("T", [1, 2, 7, 55, 188])
def test_frac_tail_enclosure(T):
    # integral_T^inf |{t}-1/2|/t^2 = 1/(4T) +- 1/(32T^2), the two-sided tail's
    # core; the oracle sums the unit cells [n, n+1), n >= T, under the integral
    # as the trigamma function: integral_0^1 |u-1/2| psi'(T+u) du
    with mpmath.workprec(106):
        half = mpmath.mpf(1) / 2
        ref, err = mpmath.quad(lambda u: abs(u - half) * mpmath.psi(1, T + u),
                               [0, half, 1], error=True)
    centre, half_width = 1 / (4 * T), 1 / (32 * T ** 2)
    assert abs(float(ref) - centre) <= half_width + float(err) + 1e-15


def test_q_l1_two_sided_tail_agrees_with_sup_tail():
    spec = KernelSpec.make("Q", 0.5 + 14.13j)
    val, T = integrate_abs_kernel_to_infinity(spec, 0.12)
    assert T <= 60 and val.radius <= 0.12
    # the one-sided route at its own T: sup = (5/6)|s-1|, T = ceil(sup / (0.45 r))
    T_old = math.ceil((5 / 6) * abs(complex(-0.5, 14.13)) / (0.45 * 0.12))
    assert T_old == 219
    head = integrate_abs_kernel(spec, float(T_old), 0.45 * 0.12)
    lo_old = float(head.value) - head.radius
    hi_old = float(head.value) + head.radius + tail_bound_abs_Q(spec, float(T_old))
    lo_new, hi_new = float(val.value) - val.radius, float(val.value) + val.radius
    assert max(lo_old, lo_new) <= min(hi_old, hi_new)


def test_abs_integral_split_cap(monkeypatch):
    """A cell that needs more than STEP_CAP Taylor steps raises, before any
    step is evaluated; the same cell within the cap does not."""
    spec = KernelSpec.make("Q", complex(0.5, 14.13))
    monkeypatch.setattr(quadrature, "STEP_CAP", 300)  # cell 1 needs 217 steps at 1e-2
    with pytest.raises(PrecisionError, match="cannot reach"):
        integrate_abs_kernel(spec, 3.0, 1e-6)
    assert integrate_abs_kernel(spec, 3.0, 1e-2).radius <= 1e-2


def test_sup_eval_cap(monkeypatch):
    monkeypatch.setattr(quadrature, "EVAL_CAP", 3)
    with pytest.raises(PrecisionError, match="did not converge"):
        sup_abs_kernel(KernelSpec.make("Q", complex(0.5, 14.13)), 1.0, 14.13, 1e-6)


def _abs_Q2_exact(T: float, prec: int = 256):
    """integral_1^T |Q_2(t)|/t^2 cell by cell in closed form: on [K, K+1) Q_2/t^2
    = c_K - 1/t, c_K = zeta(2) - P_K, whose antiderivative c_K t - log t is
    split at its zero 1/c_K."""
    with mpmath.workprec(prec):
        z, P, total = mpmath.zeta(2), mpmath.mpf(0), mpmath.mpf(0)
        K = 1
        while K < T:
            P += mpmath.mpf(1) / K ** 2
            c = z - P
            F = lambda t: c * t - mpmath.log(t)
            a, b, t0 = mpmath.mpf(K), min(mpmath.mpf(K + 1), mpmath.mpf(T)), 1 / c
            if a < t0 < b:
                total += F(b) - 2 * F(t0) + F(a)
            else:
                total += abs(F(b) - F(a))
            K += 1
        return total


def test_abs_integral_encloses_closed_form_at_s2():
    """At s = 2, g'' = 2 c_K is constant and equals bounds' D2, so each step's
    Taylor charge D2 h^3/(24 a^2) is nearly what |g| - |L| integrates to
    away from the kink.  The enclosure holds with the charge, and the error
    is 0.30 of the radius (measured), so a charge cut by 4 fails it."""
    exact = _abs_Q2_exact(12.5)
    got = integrate_abs_kernel(KernelSpec.make("Q", 2.0), 12.5, 1e-3)
    err = abs(float(got.value - exact))
    assert err <= got.radius
    assert 0.28 <= err / got.radius <= 0.32
    assert err > got.radius / 4


def _line_quad(g0: complex, g1: complex, a: float, b: float, m: float):
    """integral_a^b |g0 + g1 (t - m)|/t^2 by mpmath.quad at twice a float's
    precision, split at the vertex v of |L| and at v +- 64 eta, where |L|
    bends."""
    with mpmath.workprec(106):
        g0m, g1m = mpmath.mpc(g0), mpmath.mpc(g1)
        f = lambda t: abs(g0m + g1m * (t - m)) / t ** 2
        pts = [a, b]
        if g1 != 0:
            q = g0m / g1m
            v, eta = m - mpmath.re(q), abs(mpmath.im(q))
            pts = sorted({a, b, *(t for t in (v - 64 * eta, v, v + 64 * eta) if a < t < b)})
        return mpmath.quad(f, pts)


def _check_line(g0: complex, g1: complex, a: float, b: float, m: float) -> float:
    """The closed form against quad, within its charged bound 16u E + X.
    Returns the error over the bound."""
    val, E, X = quadrature._abs_line_integral(g0.real, g0.imag, g1.real, g1.imag, a, b, m)
    bound = 16 * quadrature._U * E + X
    err = abs(val - _line_quad(g0, g1, a, b, m))
    assert err <= bound, (g0, g1, a, b)
    return float(err / bound)


def test_taylor_steps_against_quad_at_rho1():
    """Steps of the rho_1 head as integrate_abs_kernel cuts them: g(m) and
    g'(m) at 2x precision, rounded to floats."""
    spec = KernelSpec.make("Q", complex(0.5, 14.13))
    ck = CellKernel(spec, 128)
    for K, n, js in ((1, 40, (0, 17, 39)), (7, 12, (0, 5, 6, 11)), (54, 3, (0, 1, 2))):
        with mpmath.workprec(256):
            zeta = mpmath.zeta(ck.sm)
            c = (ck.sm - 1) * (zeta - sum(mpmath.power(k, -ck.sm) for k in range(1, K + 1)))
            for j in js:
                a, b = K + j / n, K + (j + 1) / n
                m = (mpmath.mpf(a) + mpmath.mpf(b)) / 2
                cts = c * mpmath.power(m, ck.sm)
                _check_line(complex(cts - m), complex(ck.sm * cts / m - 1), a, b, float(m))


@pytest.mark.parametrize("kind", ["kink", "real", "far", "flat", "wide"])
def test_taylor_closed_form_branches(kind):
    """Lines with a zero near or inside the step (eta from 0 to 1e-3, where
    eta_min clamps), real lines, |g0| >> |g1| (the constant branch), g1 = 0,
    and a vertex far from the step on either side."""
    rng = random.Random(kind)
    for _ in range(40):
        K = rng.choice([1, 2, 30, 187, 5000])
        h = rng.choice([1.0, 0.1, 0.01, 1e-3])
        a = K + rng.random() * (1 - h)
        b = a + h
        m = (a + b) / 2
        g1 = complex(rng.uniform(-20, 20), rng.uniform(-20, 20))
        t0 = a + rng.uniform(-0.5, 1.5) * h
        if kind == "kink":
            g0 = g1 * (m - t0 + 1j * rng.choice([0, 1e-20, 1e-12, 1e-6, 1e-3]))
        elif kind == "real":
            g1 = complex(g1.real)
            g0 = g1 * (m - t0)
        elif kind == "far":
            g0, g1 = complex(rng.uniform(-10, 10), rng.uniform(-10, 10)), g1 * 1e-14
        elif kind == "flat":
            g0, g1 = complex(rng.uniform(-10, 10), rng.uniform(-10, 10)), 0j
        else:
            g0 = g1 * (m - rng.uniform(-3 * K, 3 * K) + 1j * rng.uniform(0, 3))
        _check_line(g0, g1, a, b, m)


def test_q_l1_head_evaluation_count(monkeypatch):
    """q-l1's head at rho_1 reads g once per Taylor step: 378 times at 0.12
    and 2085 at 1e-2 (the midpoint rule before it read it 2062 and 20 887
    times)."""
    calls = [0]
    g = CellKernel.g

    def counted(*args, **kwargs):
        calls[0] += 1
        return g(*args, **kwargs)

    monkeypatch.setattr(CellKernel, "g", counted)
    spec = KernelSpec.make("Q", complex(0.5, 14.13))
    for target, cap in ((0.12, 600), (1e-2, 3500)):
        calls[0] = 0
        integrate_abs_kernel_to_infinity(spec, target)
        assert calls[0] <= cap, (target, calls[0])
