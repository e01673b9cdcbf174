"""The fixed-point walk against the mpf reference walk (tests/mpwalk.py), at
mp level: cellparity sees a check's numbers only as floats, so it cannot
see a change below one double ulp; these tests compare the mpf values, with
every kind of varying piece factor among the integrands."""

import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mpf

import mpwalk
from moebius import piecewise
from moebius.approx import eps_for
from moebius.convolution import SequenceSpec, terre_batch
from moebius.kernels import KernelSpec
from moebius.piecewise import (FunctionSpec, HalfMinusFracFactor, HarmonicWeightFactor,
                               InnerSumFactor, KernelFactor, LogMinusHFactor, Partition,
                               PowLogSum, PowSumFactor, StepPolyFactor, SummatoryFactor,
                               integrate_partitions, m_weight_factor, mcheck_minus_one_factor,
                               mdcheck_normalized_factor)
from moebius.zeta import ComplexParam

PREC = 128


def _alt(n):
    return 1 if n % 2 else -1


def _assert_matches_reference(x, integrands, prec=PREC):
    got = integrate_partitions(x, integrands, precision=prec)
    ref = mpwalk.integrate(x, integrands, prec)
    for j, (new, (value, radius, cond)) in enumerate(zip(got, ref)):
        assert type(new.value) is type(value), j
        with mpmath.workprec(prec + mpwalk.GUARD):
            diff = abs(new.value - value)
        assert diff <= eps_for(prec) * cond, (x, j, float(diff), cond)
        assert new.radius <= radius * (1 + 2.0**-40), (x, j, new.radius, radius)


def _integrands(x):
    N = math.floor(x)
    alt = [_alt(n) for n in range(1, N + 1)]
    over_t = PowLogSum.monomial(mpf(1), mpf(-1), 0)
    over_t2 = PowLogSum.monomial(mpf(1), mpf(-2), 0)
    log_over_t = PowLogSum.monomial(mpf(1), mpf(-1), 2)  # p = -1: log^3 t / 3
    return [
        [m_weight_factor(x, PREC), over_t2],
        [mcheck_minus_one_factor(x, PREC), PowLogSum.monomial(mpf(1), mpmath.mpc(0.5, 3), 1)],
        [mdcheck_normalized_factor(x, PREC), over_t2],
        [SummatoryFactor(alt, FunctionSpec(1.5, complex(0.5, 1.0), 1), x, PREC),
         InnerSumFactor(alt, FunctionSpec(0.7, -0.5, 2), PREC), over_t],
        [InnerSumFactor(alt, FunctionSpec(1.0, complex(-2.5, 4.0), 1), PREC), log_over_t],
        [log_over_t],
        [PowLogSum.monomial(mpf(1), mpf(-3), 2)],
        [mcheck_minus_one_factor(x, PREC),
         KernelFactor(KernelSpec.make("R", complex(-0.5, 3.0)), PREC, target_radius=1e-30),
         over_t2],
        [KernelFactor(KernelSpec.make("Q", 2.0), PREC), over_t2],
        [m_weight_factor(x, PREC), KernelFactor(KernelSpec.make("R", 3.0), PREC), over_t2],
        [mcheck_minus_one_factor(x, PREC), PowSumFactor(ComplexParam.coerce(0.5 + 3j), PREC),
         over_t2],
        [StepPolyFactor([[mpf(K) / 3 for K in range(N + 2)],
                         [mpmath.mpc(1, K) / (K + 2) for K in range(N + 2)]],
                        power=complex(0.5, 2.0)), HalfMinusFracFactor(), over_t2],
        [m_weight_factor(x, PREC), HalfMinusFracFactor(), over_t2],
        [m_weight_factor(x, PREC), HarmonicWeightFactor(N, PREC), over_t2],
        [LogMinusHFactor(N, PREC), PowLogSum.monomial(mpf(1), mpmath.mpc(-0.5, -3), 0)],
    ]


@pytest.mark.parametrize("x", [1.0, 2.5, 25.3, 97.5, 1000.0])
def test_walk_matches_mpf_reference(x):
    _assert_matches_reference(x, _integrands(x))


def test_terre_batch_matches_mpf_reference(monkeypatch):
    seqs = [SequenceSpec.named(n) for n in ("mobius", "one", "alternating")]
    kernel_pairs = [  # the terre check's
        (FunctionSpec.const(1.0), FunctionSpec.const(1.0)),
        (FunctionSpec.power(1.0), FunctionSpec.const(1.0)),
        (FunctionSpec.log(1), FunctionSpec.power(1.0)),
        (FunctionSpec.t_log(1), FunctionSpec.power(2.0)),
        (FunctionSpec.power(1.5), FunctionSpec.log(1)),
        (FunctionSpec.power(1.0), FunctionSpec.power(complex(0.5, 3.0))),
    ]
    specs = [(a, b, om, ph) for a in seqs for b in seqs for om, ph in kernel_pairs]
    batches = []
    walk = piecewise._walk

    def capturing(part, batch, prec):
        batches.append((part.x, batch, prec))
        return walk(part, batch, prec)

    monkeypatch.setattr(piecewise, "_walk", capturing)
    terre_batch(specs, 24.99, precision=PREC)
    monkeypatch.undo()
    (x, batch, prec), = batches  # both sides of every cell walk the x/n points
    assert len(batch) == 2 * len(specs)
    _assert_matches_reference(x, batch, prec)


@settings(max_examples=12, deadline=None)
@given(st.floats(min_value=1.0, max_value=200.0), st.integers(min_value=-192, max_value=128),
       st.integers(min_value=-80, max_value=80), st.integers(min_value=0, max_value=2))
def test_walk_matches_reference_random(x, q64, q16, k):
    # Re q in [-3, 2] on a 1/64 grid and Im q on a 1/16 grid, so that no
    # antiderivative exponent p + 1 is nonzero but tiny: 1/(p+1)^j overflows
    # the float radius of both walks there
    q_re, q_im = q64 / 64, q16 / 16
    q = mpmath.mpc(q_re, q_im)
    N = math.floor(x)
    alt = [_alt(n) for n in range(1, N + 1)]
    _assert_matches_reference(x, [
        [PowLogSum.monomial(mpf(1), q, k)],
        [PowLogSum.monomial(mpf(1), mpf(q_re), k)],
        [m_weight_factor(x, PREC), PowLogSum.monomial(mpf(1), q - 2, k)],
        [SummatoryFactor(alt, FunctionSpec(1.0, q_re, k), x, PREC),
         InnerSumFactor(alt, FunctionSpec(1.0, complex(q_re, q_im), k), PREC),
         PowLogSum.monomial(mpf(1), mpf(-1), 0)],
    ])


def _midpoint_indices(x, need_inverse_points):
    with mpmath.workprec(PREC + mpwalk.GUARD):
        pts = mpwalk.points(x, need_inverse_points)
        return pts, [(N, K) for _, _, N, K in mpwalk.midpoint_pieces(x, pts)]


@pytest.mark.parametrize("x", [1.0, 1.5, 2.0, 12.0, 24.99, 36.0, 97.5, 360.0, 1000.0])
@pytest.mark.parametrize("inverse", [True, False])
def test_exact_indices_match_midpoints(x, inverse):
    # integer x, and x with ties k n = x (12 = 3 * 4 = 2 * 6, 360 has many)
    part = Partition(x, need_inverse_points=inverse)
    pts, indices = _midpoint_indices(x, inverse)
    assert [(N, K) for _, _, N, K in part.pieces()] == indices
    with mpmath.workprec(PREC + mpwalk.GUARD):
        assert [mpf(k) if k > 0 else mpf(x) / -k for k in part.keys] == pts


def _hyperbola_integrands(x):
    # a K-indexed kernel with a zeta column (zeta known to 1e-12, so its term
    # dominates the radius) beside the N-indexed weight, in the K-runs below
    # sqrt(x) and the N-runs above; an N-only, a K-only and a constant one;
    # and a summed side of two factors (HalfMinusFrac and StepPoly, both K)
    N = math.floor(x)
    alt = [_alt(n) for n in range(1, N + 1)]
    over_t = PowLogSum.monomial(mpf(1), mpf(-1), 0)
    over_t2 = PowLogSum.monomial(mpf(1), mpf(-2), 0)
    return [
        [m_weight_factor(x, PREC),
         KernelFactor(KernelSpec.make("Q", complex(0.5, 3.0)), PREC, target_radius=1e-12), over_t2],
        [mcheck_minus_one_factor(x, PREC), KernelFactor(KernelSpec.make("R", 2.0), PREC), over_t2],
        [SummatoryFactor(alt, FunctionSpec(1.0, complex(0.5, 1.0), 1), x, PREC),
         InnerSumFactor(alt, FunctionSpec(1.0, -0.5, 1), PREC), over_t],
        [m_weight_factor(x, PREC), StepPolyFactor([[mpf(K) / 3 for K in range(N + 2)]]),
         HalfMinusFracFactor(), over_t2],
        [mdcheck_normalized_factor(x, PREC), over_t2],
        [KernelFactor(KernelSpec.make("Q", 2.0), PREC, target_radius=1e-12), over_t2],
        [PowLogSum.monomial(mpf(1), mpmath.mpc(-0.5, 2.0), 1)],
    ]


@pytest.mark.parametrize("x", [12.0, 36.0, 360.0, 26.0, 97.5, 1000.0])
def test_hyperbola_walk_matches_reference(x):
    # the tie points x = 12, 36, 360 put points x/n on integers, at k0 too
    # (36 = 6 * 6); every value within eps * cond of the mpf walk and every
    # radius, the zeta term included, at most the reference's
    integrands = _hyperbola_integrands(x)
    _assert_matches_reference(x, integrands)
    got = integrate_partitions(x, integrands[:1], precision=PREC)[0]
    assert got.radius > 1e-20  # the zeta term reached the radius


def _count_walk_units(monkeypatch) -> list:
    # one unit is a combine (an integrand over a run) or a span (an
    # accumulator over a stretch of one vector); the walk before runs made
    # one per integrand per piece
    units = [0]
    for name in ("_combine", "_span"):
        def count(*args, _f=getattr(piecewise, name)):
            units[0] += 1
            return _f(*args)
        monkeypatch.setattr(piecewise, name, count)
    return units


def test_terre_batch_walk_units_halve(monkeypatch):
    # 5 076 units (108 integrands x 47 pieces) before runs
    units = _count_walk_units(monkeypatch)
    seqs = [SequenceSpec.named(n) for n in ("mobius", "one", "alternating")]
    pairs = [(FunctionSpec.const(1.0), FunctionSpec.const(1.0)),
             (FunctionSpec.power(1.0), FunctionSpec.const(1.0)),
             (FunctionSpec.log(1), FunctionSpec.power(1.0)),
             (FunctionSpec.t_log(1), FunctionSpec.power(2.0)),
             (FunctionSpec.power(1.5), FunctionSpec.log(1)),
             (FunctionSpec.power(1.0), FunctionSpec.power(complex(0.5, 3.0)))]
    terre_batch([(a, b, om, ph) for a in seqs for b in seqs for om, ph in pairs], 24.99,
                precision=PREC)
    assert 0 < units[0] <= 5076 // 2, units[0]


@pytest.mark.slow
def test_suite_walk_units_halve(monkeypatch):
    # 299 073 units in verify --suite all before runs
    from moebius.checks import REGISTRY, run_suite
    units = _count_walk_units(monkeypatch)
    run_suite(list(REGISTRY), threads=1)
    assert 0 < units[0] <= 299073 // 2, units[0]


def test_walk_misses_when_runs_end_one_piece_early(monkeypatch):
    # the negative control: a walk whose runs end one piece early combines
    # each run's last piece with the next run's constant side
    runs = piecewise._runs

    def early(part, k0):
        items = list(runs(part, k0))
        yield from ((b, N, K, items[i + 1][3] if i + 1 < len(items) else True)
                    for i, (b, N, K, _) in enumerate(items))

    x = 26.0
    integrands = _hyperbola_integrands(x)[:3]
    ref = mpwalk.integrate(x, integrands, PREC)
    monkeypatch.setattr(piecewise, "_runs", early)
    got = integrate_partitions(x, integrands, precision=PREC)
    with mpmath.workprec(PREC + mpwalk.GUARD):
        misses = [j for j, (new, (value, _, cond)) in enumerate(zip(got, ref))
                  if abs(new.value - value) > eps_for(PREC) * cond]
    assert misses == [0, 1, 2]
