import math

import mpmath
import pytest

from moebius import quadrature
from moebius.errors import DomainError, PrecisionError
from moebius.kernels import KernelSpec
from moebius.quadrature import (exact_Q_l1_reference, exact_Q_l1_tail,
                                integrate_abs_kernel,
                                integrate_abs_kernel_to_infinity,
                                integrate_signed_kernel, sup_abs_kernel,
                                tail_bound_abs_Q)
from moebius.zeta import zeta_em
from oracles import FROZEN, riemann_abs_Q


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
        quad = integrate_signed_kernel(KernelSpec.make("Q", s), 1000.0, 1e-8)
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
    s_coarse = integrate_signed_kernel(spec, 100.0, 1e-6)
    s_fine = integrate_signed_kernel(spec, 100.0, 5e-7)
    assert s_fine.radius <= s_coarse.radius


def test_abs_integral_empty_and_triangle():
    spec = KernelSpec.make("Q", 2.0)
    z = integrate_abs_kernel(spec, 1.0, 1e-4)
    assert float(z.value) == 0.0
    a = integrate_abs_kernel(spec, 20.0, 1e-4)
    sgn = integrate_signed_kernel(spec, 20.0, 1e-9)
    assert abs(complex(sgn.value)) <= float(a.value) + a.radius + sgn.radius


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
    monkeypatch.setattr(quadrature, "SPLIT_CAP", 3)
    with pytest.raises(PrecisionError, match="cannot reach"):
        integrate_abs_kernel(KernelSpec.make("Q", complex(0.5, 14.13)), 3.0, 1e-6)


def test_sup_eval_cap(monkeypatch):
    monkeypatch.setattr(quadrature, "EVAL_CAP", 3)
    with pytest.raises(PrecisionError, match="did not converge"):
        sup_abs_kernel(KernelSpec.make("Q", complex(0.5, 14.13)), 1.0, 14.13, 1e-6)
