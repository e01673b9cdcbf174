import functools
import math
from fractions import Fraction
from itertools import accumulate

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf

from moebius.convolution import SequenceSpec, terre_batch
from moebius.errors import CapacityError, CoverageError, DomainError, UnsupportedKernelError
from moebius.identities import StepPolyFactor, mu_power_sum
from moebius.kernels import KernelSpec
from moebius.piecewise import (FunctionSpec, HalfMinusFracFactor, HarmonicWeightFactor,
                               InnerSumFactor, KernelFactor, LogMinusHFactor, Partition,
                               PowLogSum, PowSumFactor, SummatoryFactor, integrate_m_kernel,
                               integrate_partition, integrate_partitions, m_weight_factor,
                               mcheck_minus_one_factor, mdcheck_normalized_factor)
from moebius.summatory import summatory
from moebius.zeta import ComplexParam
from oracles import mu_trial_division


def _integral(f, a, b):
    # integral over [a, b] as the difference of two partition integrals from 1
    return integrate_partition(b, [f]).value - integrate_partition(a, [f]).value


def test_powlog_antiderivative_vs_quad():
    f = PowLogSum.monomial(mpf(2), mpmath.mpc(0.5, 1.0), 2)
    f.add_monomial(mpf(3), mpf(-1), 1)
    ref = mpmath.quad(lambda t: 2 * t**mpmath.mpc(0.5, 1) * mpmath.log(t) ** 2
                      + 3 * mpmath.log(t) / t, [2, 5])
    assert abs(_integral(f, 2.0, 5.0) - ref) < 1e-24


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=-2.5, max_value=2.5), st.integers(min_value=0, max_value=3),
       st.floats(min_value=1.2, max_value=9.0), st.floats(min_value=0.05, max_value=3.0))
def test_powlog_antiderivative_random(p, k, a, width):
    f = PowLogSum.monomial(mpf(1), mpf(p), k)
    ref = mpmath.quad(lambda t: t**mpf(p) * mpmath.log(t) ** k, [a, a + width])
    assert abs(_integral(f, a, a + width) - ref) < 1e-20


def _points(part):
    """The partition's breakpoints as mpf values, at the current precision."""
    return [mpf(num) / den for num, den in map(part.ratio, part.keys)]


def test_partition_structure():
    part = Partition(10.0)
    pts = [float(p) for p in _points(part)]
    assert pts[0] == 1.0 and pts[-1] == 10.0
    for n in range(1, 11):
        assert any(abs(p - n) < 1e-12 for p in pts)
        assert any(abs(p - 10.0 / n) < 1e-12 for p in pts)
    # floor(t) and floor(x/t) constant inside each piece
    for a, b, N, K in part.pieces():
        a, b = (num / den for num, den in map(part.ratio, (a, b)))
        for lam in (0.25, 0.5, 0.75):
            t = a + lam * (b - a)
            assert math.floor(t) == K or t == float(a)
            assert math.floor(10.0 / t) == N or abs(10.0 / t - round(10.0 / t)) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=2.0, max_value=300.0))
def test_partition_pieces_cover(x):
    pts = _points(Partition(x))
    assert float(pts[0]) == 1.0
    assert abs(float(pts[-1]) - x) < 1e-9
    diffs = [float(b - a) for a, b in zip(pts, pts[1:])]
    assert all(d > 0 for d in diffs)
    assert abs(sum(diffs) - (x - 1.0)) < 1e-9


def test_partition_capacity():
    with pytest.raises(CapacityError):
        Partition(2e7)
    with pytest.raises(DomainError):
        Partition(0.5)


def test_formule_m_values():
    for x in (2.0, 10.0, 97.5):
        N = math.floor(x)
        g = InnerSumFactor([1] * N, FunctionSpec.power(-1.0, 2.0), PREC)
        r = integrate_m_kernel(x, g)
        expect = 1 - mpf(1) / mpf(x) ** 2
        assert abs(r.value - expect) <= r.radius


def test_inner_sum_columns_are_exact_prefix_sums():
    # formule-m's phi(u) = 2 u^-1 with integer b(k): each term b(k) k is exact,
    # so the int column equals the Fraction prefix sums bit for bit, and so
    # does the exact vector 2 V_0(K)
    for b in ([1] * 60, [_alt(k) * k for k in range(1, 61)],
              SequenceSpec.named("mobius").values(60)):
        g = InnerSumFactor(b, FunctionSpec.power(-1.0, 2.0), PREC)
        ((re, im),) = g.cols
        assert im is None
        ref = list(accumulate((Fraction(b_k * k) for k, b_k in enumerate(b, 1)),
                              initial=Fraction(0)))
        assert [Fraction(v, 2 ** g.Wf[0]) for v in re] == ref
        for K in (1, 7, 60, 99):
            S, v_re, v_im, _ = g.exact(K)
            assert v_im is None and Fraction(v_re[0], 2 ** S) == 2 * ref[min(K, 60)]


def test_weight_t_reproduces_mcheck():
    x = 100.0
    r = integrate_m_kernel(x, FunctionSpec.power(1.0))
    mc = summatory(x, mode="mp").m_check
    assert abs(r.value - mc.value) <= r.radius + mc.radius


def test_abel_exactness_consistency():
    # weight t^s reproduces (sum mu/n^s - m(x) x^{1-s}) x^{s-1}/(s-1)
    for s, x in ((2.0, 10.0), (0.5 + 3j, 100.0), (2.0, 10_000.0)):
        sm = mpmath.mpc(s) if isinstance(s, complex) else mpmath.mpf(s)
        r = integrate_m_kernel(x, FunctionSpec.power(sm))
        msum = mu_power_sum(x, s)
        snap = summatory(x, mode="mp")
        expect = ((msum.value - snap.m.value * mpmath.power(x, 1 - sm))
                  * mpmath.power(x, sm - 1) / (sm - 1))
        assert abs(r.value - expect) <= r.radius + msum.radius * float(x) + 1e-28, (s, x)


def test_unsupported_kernel_rejected():
    with pytest.raises(UnsupportedKernelError):
        integrate_m_kernel(10.0, lambda t: t)
    with pytest.raises(UnsupportedKernelError):
        FunctionSpec(1.0, 0.0, -1)


def test_summatory_offset_needs_p_zero():
    # the offset shares the t^0 log^j t slots, so a t^{-p} shape would scale it
    with pytest.raises(DomainError):
        SummatoryFactor([1, -1], FunctionSpec.power(1.0), 2.0, PREC, offset=[mpf(-1)])
    SummatoryFactor([1, -1], FunctionSpec.log(1), 2.0, PREC, offset=[mpf(-1)])


def test_radius_scales_with_precision():
    x = 50.0
    r128 = integrate_m_kernel(x, FunctionSpec.power(1.0), 128)
    r192 = integrate_m_kernel(x, FunctionSpec.power(1.0), 192)
    assert r192.radius < r128.radius
    assert abs(r128.value - r192.value) <= r128.radius + r192.radius


def test_function_spec_eval_and_describe():
    fs = FunctionSpec(2.0, -1.0, 1)
    assert "log" in fs.describe()


# ---------------------------------------------------------------------------
# Oracle: every factor kind against per-piece mpmath.quad at doubled precision,
# with each factor evaluated pointwise from its definition.
# ---------------------------------------------------------------------------

PREC = 128
S_ORACLE = complex(0.5, 3.0)
OMEGA = FunctionSpec(1.5, complex(0.5, 1.0), 1)
PHI = FunctionSpec(0.7, -0.5, 2)


def _alt(n):
    return 1 if n % 2 else -1


@functools.lru_cache(maxsize=None)
def _zeta_at(prec):
    with mpmath.workprec(prec):
        return mpmath.zeta(mpmath.mpc(S_ORACLE))


def _spec_at(fs, u):
    """The kernel fs(u) = c u^p log^k u, at the current precision."""
    return mpmath.mpmathify(fs.c) * mpmath.power(u, fs.p) * mpmath.log(u) ** fs.k


def _P(t, sm):
    return mpmath.fsum(mpf(k) ** -sm for k in range(1, int(t) + 1))


def _H(t):
    return mpmath.fsum(mpf(1) / k for k in range(1, int(t) + 1))


def _mcheck(y):
    return mpmath.fsum(mu_trial_division(n) * mpmath.log(y / n) / n
                       for n in range(1, int(y) + 1))


def _mdcheck(y):
    return mpmath.fsum(mu_trial_division(n) * mpmath.log(y / n) ** 2 / n
                       for n in range(1, int(y) + 1))


def _Q(t):
    sm = mpmath.mpc(S_ORACLE)
    return (sm - 1) * (_zeta_at(mpmath.mp.prec) - _P(t, sm)) * t ** sm - t


def _step_cols(N):
    return [[mpf(K) / 3 for K in range(N + 2)], [mpf(1) / (K + 2) for K in range(N + 2)]]


# name -> (factor builder (x), pointwise definition (x, t))
ORACLE_FACTORS = {
    "summatory": (lambda x: SummatoryFactor([_alt(n) for n in range(1, int(x) + 1)], OMEGA, x,
                                            PREC),
                  lambda x, t: mpmath.fsum(_alt(n) * _spec_at(OMEGA, x / (n * t))
                                           for n in range(1, int(x / t) + 1))),
    "inner-sum": (lambda x: InnerSumFactor([_alt(k) for k in range(1, int(x) + 1)], PHI, PREC),
                  lambda x, t: mpmath.fsum(_alt(k) * _spec_at(PHI, t / k)
                                           for k in range(1, int(t) + 1))),
    "Q-kernel": (lambda x: KernelFactor(KernelSpec.make("Q", S_ORACLE), PREC),
                 lambda x, t: _Q(t)),
    "R-kernel": (lambda x: KernelFactor(KernelSpec.make("R", S_ORACLE), PREC),
                 lambda x, t: _Q(t) + (mpmath.mpc(S_ORACLE) - 1) * (mpf(1) / 2 - (t - int(t)))),
    "power-sum": (lambda x: PowSumFactor(ComplexParam.coerce(S_ORACLE), PREC),
                  lambda x, t: mpmath.fsum((t / k) ** mpmath.mpc(S_ORACLE)
                                           for k in range(1, int(t) + 1))),
    "step-poly": (lambda x: StepPolyFactor(_step_cols(int(x)), power=complex(0.5, 2.0)),
                  lambda x, t: t ** mpmath.mpc(0.5, 2.0) * (
                      _step_cols(int(x))[0][int(t)] + _step_cols(int(x))[1][int(t)] * mpmath.log(t))),
    "half-minus-frac": (lambda x: HalfMinusFracFactor(),
                        lambda x, t: mpf(1) / 2 - (t - int(t))),
    "harmonic-weight": (lambda x: HarmonicWeightFactor(int(x), PREC),
                        lambda x, t: t * (_H(t) - mpmath.log(t) - mpmath.euler)),
    "log-minus-H": (lambda x: LogMinusHFactor(int(x), PREC),
                    lambda x, t: mpmath.log(t) - _H(t)),
    "m": (lambda x: m_weight_factor(x, PREC),
          lambda x, t: mpmath.fsum(mpf(mu_trial_division(n)) / n
                                   for n in range(1, int(x / t) + 1))),
    "mcheck-minus-one": (lambda x: mcheck_minus_one_factor(x, PREC),
                         lambda x, t: _mcheck(x / t) - 1),
    "mdcheck-normalized": (lambda x: mdcheck_normalized_factor(x, PREC),
                           lambda x, t: _mdcheck(x / t) - 2 * mpmath.log(x / t)
                           + 2 * mpmath.euler),
}


def _quad_pieces(x, integrand):
    """(sum over partition pieces of quad(integrand), summed error estimates)."""
    pts = _points(Partition(x))
    total, err = 0, 0
    for a, b in zip(pts, pts[1:]):
        v, e = mpmath.quad(integrand, [a, b], error=True, method="gauss-legendre")
        total += v
        err += e
    return total, float(err)


@pytest.mark.parametrize("x", [2.5, 7.3, 12.0])
@pytest.mark.parametrize("name", sorted(ORACLE_FACTORS))
def test_integrator_matches_pointwise_quadrature(name, x):
    build, pointwise = ORACLE_FACTORS[name]
    r = integrate_partition(x, [build(x)], PowLogSum.monomial(mpf(1), mpf(-2), 0),
                            precision=PREC)
    with mpmath.workprec(2 * PREC):
        ref, err = _quad_pieces(x, lambda t: pointwise(x, t) / t ** 2)
        assert abs(r.value - ref) <= r.radius + err, (name, x)


@pytest.mark.parametrize("name", ["Q-kernel", "R-kernel"])
def test_zeta_column_sensitivity(name):
    # with zeta(s) known only to ~1e-12 the zeta term dominates the radius.
    # The integral is affine in zeta, so the term must equal zeta_radius *
    # |integral (s-1) t^s w(x/t) / t^2| over all of [1, x], which is at most
    # the sum over pieces of its absolute value
    x = 7.3
    sp = ComplexParam.coerce(S_ORACLE)
    kf = KernelFactor(KernelSpec(name[0], sp), PREC, target_radius=1e-12)
    w = mcheck_minus_one_factor(x, PREC)
    r = integrate_partition(x, [w, kf], PowLogSum.monomial(mpf(1), mpf(-2), 0),
                            precision=PREC)
    with mpmath.workprec(2 * PREC):
        sm = mpmath.mpc(S_ORACLE)
        pts = _points(Partition(x))
        slopes = [mpmath.quad(lambda t: (sm - 1) * t ** sm * (_mcheck(x / t) - 1) / t ** 2,
                              [a, b], method="gauss-legendre") for a, b in zip(pts, pts[1:])]
        sens, per_piece = abs(mpmath.fsum(slopes)), mpmath.fsum(map(abs, slopes))
        kernel_at = ORACLE_FACTORS[name][1]
        ref, err = _quad_pieces(x, lambda t: (_mcheck(x / t) - 1) * kernel_at(x, t) / t ** 2)
    assert kf.zeta_radius > 1e-20
    assert r.radius == pytest.approx(kf.zeta_radius * float(sens), rel=1e-6, abs=0)
    assert r.radius < kf.zeta_radius * float(per_piece)
    assert abs(r.value - ref) <= r.radius + err


@pytest.mark.parametrize("x", [1.0, 2.5, 25.3, 97.5])
def test_batch_equals_batch_of_one(x):
    # N-indexed and K-only integrands (the latter on a partition without the
    # x/n points), a zeta column, complex exponents, and an mpf and an equal
    # mpc exponent, which must not share t^q
    N = int(x)
    alt = [_alt(n) for n in range(1, N + 1)]
    over_t = PowLogSum.monomial(mpf(1), mpf(-1), 0)
    over_t2 = PowLogSum.monomial(mpf(1), mpf(-2), 0)
    qf = KernelFactor(KernelSpec.make("Q", S_ORACLE), PREC, target_radius=1e-12)
    mixed = PowLogSum.monomial(mpf(2), mpmath.mpc(0.5, 1.0), 2)
    mixed.add_monomial(mpf(3), mpf(-1), 1)
    integrands = [
        [m_weight_factor(x, PREC), over_t2],
        [SummatoryFactor(alt, OMEGA, x, PREC), InnerSumFactor(alt, PHI, PREC), over_t],
        [mcheck_minus_one_factor(x, PREC), qf, over_t2],
        [InnerSumFactor(alt, PHI, PREC), over_t2],
        [qf, over_t2],
        [mixed],
        [StepPolyFactor(_step_cols(N), power=complex(0.5, 2.0)), HalfMinusFracFactor(), over_t2],
        [PowLogSum.monomial(mpf(1), mpmath.mpc(0.5, 0), 0)],
        [PowLogSum.monomial(mpf(1), mpf(0.5), 0)],
    ]
    batch = integrate_partitions(x, integrands, precision=PREC)
    assert len(batch) == len(integrands)
    for factors, got in zip(integrands, batch):
        (alone,) = integrate_partitions(x, [factors], precision=PREC)
        assert type(got.value) is type(alone.value)
        assert got.value == alone.value and got.radius == alone.radius
    if x > 1:
        assert batch[2].radius > 1e-20  # the zeta column reached the radius
    assert integrate_partitions(x, [], precision=PREC) == []
    with pytest.raises(CoverageError):
        terre_batch([(SequenceSpec.explicit([1, 1]), SequenceSpec.named("one"),
                      FunctionSpec.const(1.0), FunctionSpec.const(1.0))], 5.0)
