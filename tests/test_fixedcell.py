"""The fixed-point cell evaluator and the quadrature loops that read it,
against the mpf reference in tests/mpcell.py.

At mp level the evaluator must stay within the bound derived in the
quadrature docstring, 2^-W (1.5 |c||t^s| + sqrt 2) <= 2^-(prec+63) (|c||t^s|
+ |beta| t + |delta|), and give the same decision doubles |g| as the mpf
evaluation at 48 guard bits; the two routines must give the reference's
float value, radius and T."""

import math
import traceback
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import mpcell
from mpmath.libmp.libelefun import log_int_fixed
from moebius import dsum, kernels
from moebius.constants import RHO1_IMAG_STR
from moebius.dsum import fixed_magnitude, log_fixed
from moebius.kernels import CellKernel, KernelSpec
from moebius.quadrature import (integrate_abs_kernel, integrate_abs_kernel_to_infinity,
                                sup_abs_kernel)

PREC = 128
RHO1 = complex(0.5, 14.13)
S_VALUES = [2.0, 3.0, 1.5, 0.0, -0.5, -0.9, 0.25, 1.0001,
            RHO1, complex(0.5, 3.0), complex(-0.5, 5.0), complex(-0.9, 0.5), complex(3.0, 1.0)]


def _nodes(K: int) -> list[Fraction]:
    """t in [K, K+1]: the integer, dyadics, a double and the rational nodes
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
        got, at = sup_abs_kernel(spec, 1.5, 9.0, 1e-3, precision=PREC)
        ref, ref_at = mpcell.sup_abs(spec, 1.5, 9.0, 1e-3, PREC)
        _same(got, ref)
        assert at == ref_at


# dsum.log_fixed: L = log A + 2 atanh z, anchored at A = floor(t), off by < 2
# units of 2^-wp (the quadrature docstring's count)

def _log_units(u: int, v: int, wp: int, L: int) -> float:
    """|L - 2^wp log(u/v)| in units of 2^-wp, the log taken at 2 wp bits."""
    with mpmath.workprec(2 * wp):
        return float(abs(L - mpmath.log(mpmath.mpf(u) / v) * mpmath.mpf(2) ** wp))


def _log_points() -> list[tuple[int, int]]:
    """t in [1, 2) (z up to 1/3, the longest series), t -> K+1 from below,
    integer t (z = 0, reduced or not) and odd-denominator nodes."""
    pts = [(1 + i / 37).as_integer_ratio() for i in range(37)]
    pts += [(1 + 2.0**-52).as_integer_ratio(), (2 - 2.0**-52).as_integer_ratio()]
    for K in (1, 2, 7, 100, 9999):
        pts += [((K + 1) * v - 1, v) for v in (1 << 52, 3**20, 7)]
        pts += [(K, 1), (22 * K, 22)]
        pts += [(t.numerator, t.denominator) for t in _nodes(K)]
    return pts


def test_anchor_log_within_two_units():
    for wp in (96, 243, 700):
        anchors = {}
        for u, v in _log_points():
            assert _log_units(u, v, wp, log_fixed(u, v, wp, anchors)) < 2, (u, v, wp)
        assert {A for A, _ in anchors} == {1, 2, 7, 100, 9999}


def test_anchor_log_as_g_reads_it(monkeypatch):
    """g's own wp, with sigma < 0 headroom ht > 0, and one log_int_fixed per anchor."""
    seen, made = [], []

    def log(u, v, wp, anchors):
        seen.append((u, v, wp, None))
        L = log_fixed(u, v, wp, anchors)
        seen[-1] = (u, v, wp, L)
        return L

    def log_int(n, prec):
        if seen and seen[-1][3] is None:  # inside log_fixed
            made.append((n, prec))
        return log_int_fixed(n, prec)

    monkeypatch.setattr(kernels, "log_fixed", log)
    monkeypatch.setattr(dsum, "log_int_fixed", log_int)
    for s in (-0.9, complex(-0.5, 5.0), RHO1):
        ck = CellKernel(KernelSpec.make("Q", s), PREC)
        seen.clear()
        made.clear()
        for K in (1, 2, 7, 9999):
            for t in _nodes(K):
                _check_point(ck, t)
        assert len(seen) == 4 * len(_nodes(1))
        assert all(_log_units(u, v, wp, L) < 2 for u, v, wp, L in seen)
        assert len(made) == len(set(made)) == len({(u // v, wp) for u, v, wp, _ in seen})


@pytest.mark.parametrize("target,T", [(0.12, 55), (1e-2, 188)])
def test_one_anchor_log_per_anchor_at_rho1(target, T, monkeypatch):
    """g's bits depend on t only through lt, so a cold L1 integral at rho_1
    makes one log_int_fixed value per anchor floor(t), not one per bit count:
    the Taylor steps read g at midpoints only, so the anchors are 1..T-1."""
    anchors = {}  # id -> the anchors dict of each kernel g reads

    def log(u, v, wp, table):
        anchors[id(table)] = table
        return log_fixed(u, v, wp, table)

    monkeypatch.setattr(kernels, "log_fixed", log)
    _, got_T = integrate_abs_kernel_to_infinity(KernelSpec.make("Q", complex(0.5, float(RHO1_IMAG_STR))), target)
    assert got_T == T
    [table] = anchors.values()
    assert len(table) == len({A for A, _ in table}) == T - 1


def test_anchor_log_negative_control(monkeypatch):
    """log_fixed's series stopped one term early fails the bound.  Its last
    term is below a unit of 2^-W unless the series is short, so the points
    are just above an integer, where z is small and the last term large."""
    def stopped_early(u, v, wp, anchors):
        A, P = u // v, wp + wp.bit_length()
        n, d = u - A * v, u + A * v
        z2 = ((n * n) << P) // (d * d)
        p, k, terms = (n << (P + 1)) // d, 1, []
        while p:
            terms.append(p // k)
            p, k = (p * z2) >> P, k + 2
        return (log_int_fixed(A, P) + sum(terms[:-1])) >> (P - wp)

    monkeypatch.setattr(kernels, "log_fixed", stopped_early)
    failed = []
    for s in (RHO1, 1.5):
        ck = CellKernel(KernelSpec.make("Q", s), PREC)
        for K in (1, 7, 9999):
            for e in (26, 34, 50):
                try:
                    _check_point(ck, K + Fraction(1, 2**e))
                except AssertionError as err:
                    failed.append(traceback.extract_tb(err.__traceback__)[-1].line)
    assert "assert abs(got - ref) <= bound, (ck.spec, t)" in failed
