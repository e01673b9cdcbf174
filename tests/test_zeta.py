import math
import sys

import mpmath
import pytest

from moebius.errors import DomainError, PrecisionError
from moebius.zeta import ComplexParam, bernoulli_ladder_tail, partial_power_sum, zeta_em
from oracles import (FROZEN, zeta_prime_series_enclosure, zeta_series_enclosure)


def test_zeta2_against_series_oracle():
    z, _ = zeta_em(2, 1e-30)
    lo, hi = zeta_series_enclosure(2.0)
    assert lo - 1e-12 <= z.value <= hi + 1e-12
    assert abs(z.value - mpmath.mpf(FROZEN["zeta_2"])) < 1e-18
    # classical closed form
    assert abs(z.value - mpmath.pi**2 / 6) <= z.radius + 1e-36


def test_zeta3_against_series_oracle():
    z, _ = zeta_em(3, 1e-30)
    lo, hi = zeta_series_enclosure(3.0)
    assert lo - 1e-15 <= z.value <= hi + 1e-15
    assert abs(z.value - mpmath.mpf(FROZEN["zeta_3"])) < 1e-18


def test_zeta_prime_2_against_series_oracle():
    _, zp = zeta_em(2, 1e-30)
    lo, hi = zeta_prime_series_enclosure(2.0)
    assert lo - 1e-9 <= zp.value <= hi + 1e-9
    assert abs(zp.value - mpmath.mpf(FROZEN["zeta_prime_2"])) < 1e-18


def test_zeta_zero_classical():
    z, _ = zeta_em(0, 1e-30)
    assert abs(z.value + mpmath.mpf(1) / 2) <= z.radius


def test_laurent_behavior_near_pole():
    sigma = 1 + 1e-6
    z, _ = zeta_em(sigma, 1e-20)
    assert abs((sigma - 1) * z.value - 1) < 1e-5


def test_radius_honesty_against_mpmath_grid():
    for sig in (-0.9, -0.5, 0.0, 0.5, 1.04, 1.5, 2.0, 3.0):
        for tau in (0.0, 0.5, 5.0, 14.13, 50.0):
            if sig == 1.0 and tau == 0.0:
                continue
            s = complex(sig, tau)
            z, zp = zeta_em(s, 1e-30)
            sm = mpmath.mpc(sig, tau) if tau else mpmath.mpf(sig)
            assert abs(z.value - mpmath.zeta(sm)) <= z.radius, s
            assert abs(zp.value - mpmath.zeta(sm, derivative=1)) <= zp.radius, s


def test_pole_and_halfplane_rejection():
    with pytest.raises(DomainError):
        zeta_em(1.0, 1e-10)
    with pytest.raises(DomainError):
        zeta_em(-1.5, 1e-10)
    with pytest.raises(DomainError):
        zeta_em(2.0, -1e-10)


def test_precision_error_unreachable_target():
    with pytest.raises(PrecisionError):
        zeta_em(0.5 + 3j, 1e-300, precision=64)


def test_partial_power_sum_examples():
    assert abs(partial_power_sum(2, 2).value - 1.25) < 1e-35
    assert partial_power_sum(0, 7.9).value == 7
    # s = 1 partial sums sit in the harmonic sandwich around log t + gamma
    h = partial_power_sum(1, 10**4)
    g = mpmath.euler
    v = 10**4 * (h.value - mpmath.log(10**4) - g)
    assert -0.5408 <= v <= 0.5


def test_partial_power_domain():
    with pytest.raises(DomainError):
        partial_power_sum(2, 0.5)


def test_ladder_tail_against_zeta_closed_form():
    # J(T) = [sum_{n<=T} n^-s + T^{1-s}/(s-1) - T^{-s}/2 - zeta(s)] / s
    for sval, T in ((0.5 + 3j, 20), (2.0, 10), (-0.5 + 14.13j, 31), (0.2, 12)):
        s = ComplexParam.coerce(sval)
        with mpmath.mp.workprec(200):
            sm = s.as_mpc()
            J, rem = bernoulli_ladder_tail(s, T, 1e-40)
            psum = sum(mpmath.power(n, -sm) for n in range(1, T + 1))
            J_ref = (psum + mpmath.power(T, 1 - sm) / (sm - 1)
                     - mpmath.power(T, -sm) / 2 - mpmath.zeta(sm)) / sm
            assert abs(J - J_ref) <= max(rem, 1e-38), (sval, T)


def test_ladder_derivative_finite_difference():
    s = ComplexParam(1.7, 2.0)
    with mpmath.mp.workprec(200):
        h = 2.0**-30
        _, _, Jp, _ = bernoulli_ladder_tail(s, 25, 1e-40, want_derivative=True)
        Jplus, _ = bernoulli_ladder_tail(ComplexParam(1.7 + h, 2.0), 25, 1e-40)
        Jminus, _ = bernoulli_ladder_tail(ComplexParam(1.7 - h, 2.0), 25, 1e-40)
        fd = (Jplus - Jminus) / (2 * mpmath.mpf(h))
        assert abs(Jp - fd) < 1e-12


def test_complex_param_guards():
    sp = ComplexParam.coerce(0.5 + 3j)
    assert sp.sigma == 0.5 and sp.tau == 3.0
    with pytest.raises(DomainError):
        sp.require_sigma_gt(1.0, "test")
    ComplexParam.coerce(2).require_not_one("test")
    with pytest.raises(DomainError):
        ComplexParam.coerce(1.0).require_not_one("test")


zeta_module = sys.modules["moebius.zeta"]


def _bits(av):
    v = av.value
    return (getattr(v, "_mpc_", None) or v._mpf_, av.radius.hex(), av.precision_bits, av.rigor)


@pytest.mark.parametrize("s", [2.0, 0.5 + 3j])
def test_zeta_em_miss_skips_a_cutoff_whose_ladder_falls_short(s, monkeypatch):
    # at 1e-33 the ladder at N = 10 cannot reach the target: the miss runs the
    # ladder once, at N = 20, and gives the bits of the run that tries N = 10
    cutoffs = []
    ladder = zeta_module.bernoulli_ladder_tail
    monkeypatch.setattr(zeta_module, "bernoulli_ladder_tail",
                        lambda sp, T, *args, **kw: cutoffs.append(T) or ladder(sp, T, *args, **kw))
    monkeypatch.setattr(zeta_module, "_zeta_cache", {})
    skipped = zeta_em(s, 1e-33, precision=128)
    assert cutoffs == [20]
    monkeypatch.setattr(zeta_module, "_zeta_cache", {})
    monkeypatch.setattr(zeta_module, "_ladder_falls_short", lambda *args: False)
    tried = zeta_em(s, 1e-33, precision=128)
    assert cutoffs == [20, 10, 20]
    assert [_bits(v) for v in skipped] == [_bits(v) for v in tried]


def test_ladder_falls_short_only_where_the_ladder_does():
    short = 0
    for sval in (2.0, 1.0001, 0.5 + 3j, -0.5 + 14.13j, 0.7, 5.5):
        sp = ComplexParam.coerce(sval)
        for N in (10, 20, 40, 80):
            for target in (1e-20, 1e-33, 1e-36, 1e-45):
                for want_derivative in (True, False):
                    if not zeta_module._ladder_falls_short(sp, N, target, want_derivative):
                        continue
                    short += 1
                    with mpmath.mp.workprec(176):
                        _, rem, _, rem_p = bernoulli_ladder_tail(
                            sp, N, target / (16 * sp.abs() + 16), want_derivative=True)
                    assert sp.abs() * rem > target / 2 or (
                        want_derivative and rem + sp.abs() * rem_p > target / 2), (sval, N, target)
    assert short >= 20
