"""The fixed-point cell evaluator and the quadrature loops that read it,
against the mpf reference in tests/mpcell.py.

At mp level the evaluator must stay within the bound derived in the
quadrature docstring, 2^-W (1.5 |c||t^s| + sqrt 2) <= 2^-(prec+63) (|c||t^s|
+ |beta| t + |delta|), and give the same decision doubles |g| as the mpf
evaluation at 48 guard bits; the three routines must give the reference's
float value, radius and T."""

import math
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import mpcell
from moebius.dsum import fixed_magnitude
from moebius.kernels import CellKernel, KernelSpec
from moebius.quadrature import (integrate_abs_kernel, integrate_abs_kernel_to_infinity,
                                integrate_signed_kernel, sup_abs_kernel)

PREC = 128
RHO1 = complex(0.5, 14.13)
S_VALUES = [2.0, 3.0, 1.5, 0.0, -0.5, -0.9, 0.25, 1.0001,
            RHO1, complex(0.5, 3.0), complex(-0.5, 5.0), complex(-0.9, 0.5), complex(3.0, 1.0)]


def _nodes(K: int) -> list[Fraction]:
    """t in [K, K+1]: the integer, dyadics, a double and Simpson's nodes
    K + h i/(2n) for a unit and a non-dyadic h."""
    h = Fraction(0.3)
    return ([Fraction(K), Fraction(K) + Fraction(1, 2), Fraction(K) + Fraction(3, 1024),
             Fraction(K + 0.7071067811865476)]
            + [K + Fraction(i, 2 * 7) for i in (1, 5, 13)]
            + [K + h * Fraction(i, 2 * 3) for i in (1, 4)])


def _check_point(ck: CellKernel, t: Fraction) -> None:
    K = math.floor(t)
    cell = ck.cell(K)
    re, im = ck.g(cell, t.numerator, t.denominator)
    with mpmath.workprec(PREC + 200):
        tm = mpmath.mpf(t.numerator) / t.denominator
        c, beta, delta = mpcell.cell(ck, K)
        ref = mpcell.g(ck, c, beta, delta, tm)
        got = mpmath.mpc(re, im) / mpmath.mpf(2) ** ck.W
        ts = abs(mpmath.power(tm, ck.sm))
        # the docstring's 2^-W (1.5 |c||t^s| + sqrt 2), within 2^-(prec+63) M
        bound = 2.0 ** -ck.W * (1.5 * abs(c) * ts + math.sqrt(2))
        assert abs(got - ref) <= bound, (ck.spec, t)
        assert bound <= 2.0 ** -(PREC + 63) * (abs(c) * ts + abs(beta) * tm + abs(delta))
    with mpmath.workprec(PREC + mpcell.GUARD):
        tm = mpmath.mpf(t.numerator) / t.denominator
        mp_double = abs(complex(mpcell.g(ck, *mpcell.cell(ck, K), tm)))
    assert fixed_magnitude(re, im if ck.cplx else None, ck.W) == mp_double, (ck.spec, t)


@pytest.mark.parametrize("s", S_VALUES)
def test_evaluator_within_derived_bound(s):
    for variant in ("Q", "R", "q"):
        ck = CellKernel(KernelSpec.make(variant, s), PREC)
        for K in (1, 2, 7, 100, 9999):
            for t in _nodes(K):
                _check_point(ck, t)
        _check_point(ck, Fraction(10_000))


@settings(max_examples=40, deadline=None)
@given(sigma=st.integers(-7, 24).map(lambda k: k / 8),
       tau=st.integers(0, 64).map(lambda k: k / 4),
       variant=st.sampled_from(["Q", "R", "q"]),
       K=st.integers(1, 9_999),
       kind=st.integers(0, 2),
       i=st.integers(0, 40),
       n=st.integers(2, 20))
def test_evaluator_property(sigma, tau, variant, K, kind, i, n):
    if sigma == 1.0 and tau == 0.0:
        return
    ck = CellKernel(KernelSpec.make(variant, complex(sigma, tau) if tau else sigma), PREC)
    if kind == 0:
        t = Fraction(K)
    elif kind == 1:
        t = K + Fraction(i % 32, 32)
    else:
        t = K + Fraction(min(i, 2 * n), 2 * n)
    _check_point(ck, t)


GRID = [RHO1, complex(0.5, 3.0), 2.0]


def _same(got, ref):
    assert complex(got.value) == complex(ref.value)
    assert got.radius == ref.radius


@pytest.mark.parametrize("s", GRID)
def test_routines_match_reference(s):
    spec = KernelSpec.make("Q", s)
    for T, target in ((12.0, 1e-3), (20.5, 1e-2)):
        _same(integrate_abs_kernel(spec, T, target, precision=PREC),
              mpcell.integrate_abs(spec, T, target, PREC))
    for T in (20.0, 7.5):
        _same(integrate_signed_kernel(spec, T, 1e-8, precision=PREC),
              mpcell.integrate_signed(spec, T, 1e-8, PREC))
    got, at = sup_abs_kernel(spec, 1.0, 14.13, 1e-3, precision=PREC)
    ref, ref_at = mpcell.sup_abs(spec, 1.0, 14.13, 1e-3, PREC)
    _same(got, ref)
    assert at == ref_at
    (got, T), (ref, ref_T) = (integrate_abs_kernel_to_infinity(spec, 0.12, precision=PREC),
                              mpcell.integrate_abs_to_infinity(spec, 0.12, PREC))
    _same(got, ref)
    assert T == ref_T


def test_other_variants_match_reference():
    for variant, s in (("R", RHO1), ("q", complex(0.5, 3.0)), ("R", -0.5)):
        spec = KernelSpec.make(variant, s)
        _same(integrate_abs_kernel(spec, 9.0, 1e-2, precision=PREC),
              mpcell.integrate_abs(spec, 9.0, 1e-2, PREC))
        _same(integrate_signed_kernel(spec, 9.0, 1e-6, precision=PREC),
              mpcell.integrate_signed(spec, 9.0, 1e-6, PREC))
        got, at = sup_abs_kernel(spec, 1.5, 9.0, 1e-3, precision=PREC)
        ref, ref_at = mpcell.sup_abs(spec, 1.5, 9.0, 1e-3, PREC)
        _same(got, ref)
        assert at == ref_at
