import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import mpcell

from moebius import piecewise
from moebius.dsum import fixed_to_mp_exact
from moebius.errors import DomainError, UnsupportedKernelError
from moebius.kernels import (IBP_R, CellKernel, KernelSpec, MID_Q, REAL_R, SUP_Q,
                             frac_tail_integral, hel_remainder_bound,
                             hel_sup_abs_Q, kernel_bound, kernel_eval,
                             kernel_eval_em)
from moebius.piecewise import KernelFactor


def test_Q_at_s2_t1():
    q = kernel_eval(KernelSpec.make("Q", 2), 1.0, 1e-30)
    expect = mpmath.zeta(2) - 2  # (s-1)zeta - (s-1) - 1 at s = 2
    assert abs(q.value - expect) <= q.radius + 1e-30
    assert abs(float(q.value) + 0.3550660) < 1e-6


@pytest.mark.parametrize("variant", ["Q", "R", "q"])
def test_em_cross_check_spot(variant):
    for s in (2.0, 0.5 + 5j, -0.5 + 14.13j, 3.0, 0.0):
        spec = KernelSpec.make(variant, s)
        for t in (1.0, 2.5, 41.77, 99.5):
            d = kernel_eval(spec, t, 1e-28)
            e = kernel_eval_em(spec, t, 1e-28)
            assert abs(d.value - e.value) <= d.radius + e.radius, (s, t)


def test_R_continuity_and_Q_jump():
    s = 0.5 + 3j
    sm = mpmath.mpc(0.5, 3)
    for k in (2, 5, 17):
        rl = kernel_eval(KernelSpec.make("R", s), float(k), 1e-28, left_limit=True)
        rr = kernel_eval(KernelSpec.make("R", s), float(k), 1e-28)
        assert abs(rl.value - rr.value) <= rl.radius + rr.radius
        ql = kernel_eval(KernelSpec.make("Q", s), float(k), 1e-28, left_limit=True)
        qr = kernel_eval(KernelSpec.make("Q", s), float(k), 1e-28)
        assert abs((qr.value - ql.value) + (sm - 1)) <= ql.radius + qr.radius + 1e-25


def test_q_variant_is_sminus1_times_Q():
    s = 1.5 + 5j
    sm = mpmath.mpc(1.5, 5)
    for t in (1.0, 7.3, 20.0):
        q = kernel_eval(KernelSpec.make("Q", s), t, 1e-28)
        lq = kernel_eval(KernelSpec.make("q", s), t, 1e-28)
        assert abs(lq.value - (sm - 1) * q.value) <= lq.radius + 20 * q.radius


def test_R_equals_Q_minus_fracterm():
    s = 0.5 + 5j
    sm = mpmath.mpc(0.5, 5)
    for t in (1.5, 7.3):
        q = kernel_eval(KernelSpec.make("Q", s), t, 1e-28)
        r = kernel_eval(KernelSpec.make("R", s), t, 1e-28)
        frac = t - math.floor(t)
        assert abs(r.value - (q.value - (sm - 1) * (mpmath.mpf(frac) - 0.5))) \
            <= q.radius + r.radius + 1e-25


def test_kernel_bounds_examples():
    assert abs(kernel_bound(2, SUP_Q) - 1.0) < 1e-15          # (2/2)*1
    assert abs(kernel_bound(2, MID_Q) - 0.5) < 1e-15
    assert abs(kernel_bound(2, IBP_R, 10.0) - 1.0 / 30) < 1e-15
    b = kernel_bound(0.5 + 14.13j, SUP_Q)
    assert abs(b - 399.8138) < 1e-3  # |s||s-1|/sigma; the quoted round-up is 399.9
    assert kernel_bound(2, REAL_R, 10.0) == pytest.approx(2.0 / 80)


def test_kernel_bound_halfplane_guards():
    with pytest.raises(DomainError):
        kernel_bound(-0.5, SUP_Q)
    with pytest.raises(DomainError):
        kernel_bound(-1.5, IBP_R, 5.0)
    with pytest.raises(DomainError):
        kernel_bound(2 + 1j, REAL_R, 5.0)
    with pytest.raises(DomainError):
        kernel_bound(2, IBP_R)  # t required


def test_bounds_dominate_values():
    for s in (0.5 + 5j, 2.0, 1.5 + 14.13j):
        bQ = kernel_bound(s, SUP_Q)
        bR = kernel_bound(s, MID_Q)
        for t in (1.0, 3.3, 12.0, 50.0):
            q = kernel_eval(KernelSpec.make("Q", s), t, 1e-25)
            r = kernel_eval(KernelSpec.make("R", s), t, 1e-25)
            assert abs(q.value) <= bQ + q.radius
            assert abs(r.value) <= bR + r.radius
            assert abs(r.value) <= kernel_bound(s, IBP_R, t) + r.radius


def test_hel_machinery():
    s = 0.5 + 14.13j
    assert hel_remainder_bound(s, 20.0) == pytest.approx((5 / 6) / 20**0.5)
    assert hel_sup_abs_Q(s) == pytest.approx((5 / 6) * abs(s - 1))
    with pytest.raises(DomainError):
        hel_remainder_bound(s, 10.0)  # below |Im s|
    with pytest.raises(DomainError):
        hel_remainder_bound(1.5 + 3j, 20.0)  # sigma > 1
    # the sup bound really dominates beyond |Im s|
    sup = hel_sup_abs_Q(s)
    for t in (14.2, 20.0, 100.0, 1000.0):
        q = kernel_eval(KernelSpec.make("Q", s), t, 1e-20)
        assert abs(q.value) <= sup + q.radius


def test_frac_tail_against_closed_form():
    # J(t) for non-integer t against the zeta closed form
    for s in (0.5 + 3j, 2.0):
        sm = mpmath.mpc(s) if isinstance(s, complex) else mpmath.mpf(s)
        for t in (1.0, 7.3, 33.5):
            J = frac_tail_integral(s, t, 1e-30)
            K = math.floor(t)
            psum = sum(mpmath.power(n, -sm) for n in range(1, K + 1))
            frac = t - K
            # from the floor-gap transform: J(t) = -(zeta - psum - t^{1-s}/(s-1)
            #   + (1/2 - frac) t^{-s}) / s
            tm = mpmath.mpf(t)
            ref = -(mpmath.zeta(sm) - psum - mpmath.power(tm, 1 - sm) / (sm - 1)
                    + (mpmath.mpf(1) / 2 - frac) * mpmath.power(tm, -sm)) / sm
            assert abs(J.value - ref) <= J.radius + 1e-25, (s, t)


@pytest.mark.parametrize("s", [0.0, 1.0])
def test_frac_tail_differences_against_quadrature(s):
    # s = 0 and s = 1 take the unit piece's log forms; J(a) - J(b) is the
    # integral of ({u} - 1/2) u^(-s-1) over [a, b], summed cell by cell, with
    # b on both sides of the base anchor 8
    for a, b in ((1.5, 7.25), (2.0, 33.5), (1.0, 9.75)):
        Ja, Jb = (frac_tail_integral(s, t, 1e-30) for t in (a, b))
        with mpmath.workdps(80):
            piece = lambda n: (lambda u: (u - n - mpmath.mpf(1) / 2) * u ** (-s - 1))
            ref = sum(mpmath.quad(piece(n), [max(a, n), min(b, n + 1)])
                      for n in range(math.floor(a), math.ceil(b)))
            assert abs(Ja.value - Jb.value - ref) <= Ja.radius + Jb.radius, (s, a, b)


CELL_S = [2.0, 0.5 + 3j, -0.5 + 5j, 0.5 + 14.13j]


@pytest.mark.parametrize("s", CELL_S)
def test_one_cell_kernel_serves_its_readers(s):
    # the piecewise factor reads the exact cell: its exact vector is the
    # cell's ints, within 2^-(prec+95) of the mpf reference cell
    # (tests/mpcell.py, doubled precision), and the walk's fixed-point vector
    # is those ints floored
    prec = 128
    for variant in ("Q", "R"):
        spec = KernelSpec.make(variant, s)
        kf, ck = KernelFactor(spec, prec), CellKernel(spec, prec)
        with mpmath.workprec(prec + 96):
            for K in range(1, 51):
                vec = kf.exact(K)
                S, re, im, abs_values = vec
                cell = ck.cell(K)
                parts = (cell.c, cell.beta, cell.delta)[:len(kf.shape)]
                assert S == cell.S and re == [p[0] for p in parts], (variant, K)
                assert im == ([p[1] for p in parts] if ck.cplx else None)
                values = [fixed_to_mp_exact(r, i if ck.cplx else None, S)
                          for r, i in zip(re, im or re)]
                with mpmath.workprec(2 * prec + 96):
                    ref = mpcell.cell(ck, K)
                    for v, r in zip(values, ref):
                        assert abs(v - r) <= 2.0 ** -(prec + 95) * abs(r), (variant, K)
                assert all(abs(complex(v)) <= a for v, a in zip(values, abs_values))
                G, re, im, absv = piecewise._floored(vec, prec + 17)
                assert absv == abs_values
                assert re == [p[0] >> (cell.S - G) for p in parts], (variant, K)
                assert im == ([p[1] >> (cell.S - G) for p in parts] if ck.cplx else None)
    with pytest.raises(UnsupportedKernelError):
        KernelFactor(KernelSpec.make("q", s), prec)
    # the definitional kernel_eval lies within its radius of the cell form g,
    # evaluated at doubled precision
    for variant in ("Q", "q", "R"):
        spec = KernelSpec.make(variant, s)
        ck = CellKernel(spec, 2 * prec, zeta_target=1e-70)
        for t in (1.0, 1.5, 2.5, 7.3, 20.0, 49.9):
            v = kernel_eval(spec, t, precision=prec)
            with mpmath.workprec(2 * prec):
                g = mpcell.g(ck, *mpcell.cell(ck, math.floor(t)), mpmath.mpf(t))
                assert abs(v.value - g) <= v.radius, (variant, t)


def test_domain_guards():
    with pytest.raises(DomainError):
        kernel_eval(KernelSpec.make("Q", 1.0), 2.0)
    with pytest.raises(DomainError):
        kernel_eval(KernelSpec.make("Q", 2.0), 0.5)
    with pytest.raises(DomainError):
        KernelSpec.make("X", 2.0)


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1.0, max_value=100.0, allow_nan=False))
def test_fractional_part_integral_identity(X):
    # int_1^X ({u}-1/2) du = ({X}^2 - {X})/2, in [-1/8, 0]
    K = math.floor(X)
    total = 0.0
    for n in range(1, K):
        total += 0.0  # full unit cells integrate to zero
    frac = X - K
    total += (frac * frac - frac) / 2
    closed = ((X - K) ** 2 - (X - K)) / 2
    assert total == pytest.approx(closed, abs=1e-12)
    assert -0.125 - 1e-12 <= closed <= 0.0
