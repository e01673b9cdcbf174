import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moebius.constants import M_OVER_LOG, gamma_const
from moebius.errors import DomainError
from moebius.sieve import sieve_range
from moebius.summatory import (TERMS, CumsumState, PrefixSegment, PrefixSweep, abs_m_integrals,
                               compensated_cumsum, harmonic_gamma_margins,
                               prefix_columns, prefix_sweep, summatory)
from oracles import FROZEN, m_exact_fraction, mpf_fraction


def test_snapshot_x1_all_trivial():
    s = summatory(1)
    assert s.M == 1
    assert s.m.value == 1 and s.m.radius < 1e-30
    assert s.m_check.value == 0
    assert s.m_dcheck.value == 0
    assert s.m1.value == 0
    assert s.H.value == 1


def test_snapshot_x10():
    s = summatory(10, mode="mp")
    assert s.M == FROZEN["M_10"]
    assert abs(mpf_fraction(s.m.value) - FROZEN["m_10"]) <= s.m.radius
    assert m_exact_fraction(10) == FROZEN["m_10"]


def test_fast_and_mp_agree():
    for x in (10.0, 500.0, 3333.5):
        f = summatory(x, mode="fast")
        m = summatory(x, mode="mp")
        assert f.M == m.M
        for field in ("m", "m_check", "m_dcheck", "m1", "H", "H_check"):
            fa, ma = getattr(f, field), getattr(m, field)
            assert abs(float(fa.value) - float(ma.value)) <= fa.radius + ma.radius


def test_m_fast_matches_exact_rational():
    for x in (100, 2000):
        f = summatory(x, mode="fast")
        exact = m_exact_fraction(x)
        assert abs(f.m.value - float(exact)) <= f.m.radius + 1e-16


def test_M_against_oracle_1e6():
    sw = prefix_sweep(10**6)
    assert int(sw.M[-1]) == FROZEN["M_1e6"]


def test_imported_bound_at_first_admissible_point():
    # |M(x)| <= 0.013 x / log x at x = 97067, the bound's first valid point
    sw = prefix_sweep(97_067)
    c, x0 = M_OVER_LOG
    assert int(sw.M[-1]) == FROZEN["M_97067"]
    assert abs(int(sw.M[-1])) <= c * x0 / math.log(x0)


def test_domain_errors():
    with pytest.raises(DomainError):
        summatory(0.5)
    with pytest.raises(DomainError):
        summatory(10**6, mode="mp")


def test_abs_m_integrals_examples(sweep_1e5):
    I0, _ = abs_m_integrals(2, sweep_1e5)
    assert I0.value == 1.0  # m == 1 on [1, 2)
    I0, _ = abs_m_integrals(3, sweep_1e5)
    assert abs(I0.value - 1.5) <= I0.radius  # |m(2)| = 1/2
    I0, _ = abs_m_integrals(10**4, sweep_1e5)
    x = 10**4
    assert float(I0.value) >= 0.002493 * (math.sqrt(x) - 1 / x)


def test_abs_integrals_match_bruteforce(sweep_1e5):
    # direct step sums at a non-integer x
    x = 47.75
    I0, I1 = abs_m_integrals(x, sweep_1e5)
    m = 0.0
    tot0 = tot1 = 0.0
    from moebius.sieve import sieve_range
    tab = sieve_range(1, 48)
    for n in range(1, 48):
        m += tab.mu(n) / n
        a, b = n, min(n + 1, x)
        if a >= x:
            break
        tot0 += abs(m) * (b - a)
        tot1 += abs(m) * (b * b - a * a) / 2
    assert abs(float(I0.value) - tot0) < 1e-12
    assert abs(float(I1.value) - tot1) < 1e-9


def test_snapshot_m1_two_definitions():
    # m1 = m - M/x must match the integral mean x^-1 int_1^x m dt
    sw = prefix_sweep(10**5)
    for x in (10.0, 1000.0, 99_999.0):
        snap = summatory(x, mode="mp") if x <= 20000 else None
        n = math.floor(x)
        m1_a = (snap.m.value - snap.M / x) if snap else sw.m[n - 1] - sw.M[n - 1] / x
        im = sw.int_m_at(x)
        m1_b = float(im.value) / x
        assert abs(float(m1_a) - m1_b) <= (im.radius / x + 1e-14)


def test_abel_step_identity(sweep_1e5):
    # int_1^x m dt = x m(x) - M(x), exactly piecewise
    for x in (2.0, 17.0, 1234.5, 99_999.0):
        n = math.floor(x)
        im = sweep_1e5.int_m_at(x)
        rhs = x * sweep_1e5.m[n - 1] - sweep_1e5.M[n - 1]
        assert abs(float(im.value) - rhs) <= im.radius + x * sweep_1e5.m_rad[n - 1] + 1e-12


def test_mcheck_is_integral_of_m_over_t(sweep_1e5):
    # m-check(x) = int_1^x m(t) dt/t: piecewise log antiderivative
    x = 300.0
    total = 0.0
    for n in range(1, 300):
        total += sweep_1e5.m[n - 1] * (math.log(min(n + 1, x)) - math.log(n))
    mc = sweep_1e5.mcheck_at(x)
    assert abs(float(mc.value) - total) < 1e-11


def test_harmonic_sandwich_small():
    d, rad = harmonic_gamma_margins(10_000)
    assert np.all(d + rad <= 0.5)
    assert np.all(d - rad >= -0.5408)


@pytest.mark.parametrize("N", [10_000, 70_000])  # 70 000 crosses a sweep segment
def test_harmonic_margins_stream_H_alone(N, monkeypatch):
    # the margins as read from a whole prefix sweep, bit for bit, without sieving
    sweep = PrefixSweep(N)
    ns = np.arange(1, N + 1, dtype=np.float64)
    g = float(gamma_const(60))
    d = ns * (sweep.H - np.log(ns) - g)
    rad = ns * (sweep.H_rad + 2.0**-52 * (np.abs(np.log(ns)) + g + 2 * np.abs(d) / ns))

    def refuse(*args, **kwargs):
        raise AssertionError("sieved")

    monkeypatch.setattr(sys.modules["moebius.summatory"], "iter_segments", refuse)
    got_d, got_rad = harmonic_gamma_margins(N)
    assert np.array_equal(got_d, d) and np.array_equal(got_rad, rad)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-1e3, max_value=1e3,
                          allow_nan=False, allow_infinity=False),
                min_size=1, max_size=400))
def test_compensated_cumsum_radius_honest(xs):
    arr = np.asarray(xs, dtype=np.float64)
    out, rad = compensated_cumsum(arr, term_ulps=0, chunk=64)
    exact = [math.fsum(xs[: i + 1]) for i in range(len(xs))]
    assert np.all(np.abs(out - np.asarray(exact)) <= rad + 1e-300)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 8: the radius drops the in-chunk "
                   "rounding of earlier chunks; an honest carry needs error-free summation")
def test_compensated_cumsum_radius_carries_earlier_chunks():
    # the first chunk rounds 4095 terms of 1.1e-16 away against 1.0 (error
    # 4.5e-13); the next chunk's radius is 8.9e-16
    terms = np.array([1.0] + [1.1e-16] * 4095 + [0.0] * 10)
    out, rad = compensated_cumsum(terms)
    assert abs(out[-1] - math.fsum(terms)) <= rad[-1]


def test_cumsum_is_sequential_in_float64():
    # ROADMAP item 8 builds on it: np.cumsum over float64 adds one term at a
    # time, s_i = fl(s_{i-1} + x_i), so TwoSum can give each step's exact
    # error.  A numpy release that sums in another order fails here
    rng = np.random.default_rng(8)
    for n in (1, 2, 7, 8, 9, 127, 128, 129, 4096, 65_537):
        terms = rng.standard_cauchy(n) * 1e3
        want, run = [], 0.0
        for v in terms.tolist():
            run = run + v
            want.append(run)
        got = np.cumsum(terms)
        assert got.dtype == np.float64 and got.tobytes() == np.array(want).tobytes(), n


def test_streamed_columns_equal_one_shot_cumsum():
    # segments of k * 4096 chain the chunk state exactly
    N = 50_000
    whole = PrefixSegment(1, N, (1, N, sieve_range(1, N).values))  # one slice of [1, N]
    want = {name: compensated_cumsum(term(whole), ulps) for name, (term, ulps) in TERMS.items()}
    # a slice's arrays are overwritten by the next slice: copy them as they come
    segs = [{name: np.copy(col) for name, col in seg.cols.items()}
            for seg in prefix_columns(N, ("m", "sl", "sl2", "H", "Hlog", "M", "I0"),
                                      segment_size=3 * 4096)]
    assert len(segs) == 5
    for name in TERMS:
        for got, ref in zip(zip(*(seg[name] for seg in segs)), want[name]):
            assert np.array_equal(np.concatenate(got), ref), name
    sw = prefix_sweep(N)
    assert np.array_equal(np.concatenate([seg["M"] for seg in segs]), sw.M)
    for got, ref in zip(zip(*(seg["I0"] for seg in segs)), (sw.I0, sw.I0_rad)):
        assert np.array_equal(np.concatenate(got), ref)


@st.composite
def _halfway_sums(draw):
    """A float b and multiples of half an ulp of b: an odd count of halves puts
    the exact sum half way between two floats."""
    b = draw(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False).filter(bool))
    half = math.ulp(b) / 2
    return [b, *(k * half for k in draw(st.lists(st.integers(-5, 5), min_size=1, max_size=6)))]


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.lists(st.floats(min_value=-1e300, max_value=1e300, allow_nan=False),
                          min_size=1, max_size=60),
                 _halfway_sums()))
def test_cumsum_offset_rounds_like_fsum(xs):
    # one term per chunk: each offset is the correctly rounded sum of the
    # chunk sums so far, with the bits of math.fsum, ties included
    state = CumsumState()
    out, _ = compensated_cumsum(np.array(xs), 0, chunk=1, state=state)
    assert state.offset.hex() == math.fsum(xs).hex()
    for i, got in enumerate(out.tolist()):
        assert got.hex() == (math.fsum(xs[:i]) + xs[i]).hex(), i


def test_cumsum_state_continues_across_calls():
    terms = np.random.default_rng(5).normal(size=3 * 64 + 17)
    state = CumsumState()
    parts = [compensated_cumsum(terms[i:i + 128], 1, chunk=64, state=state)
             for i in range(0, len(terms), 128)]
    one = compensated_cumsum(terms, 1, chunk=64)
    for k in range(2):
        assert np.array_equal(np.concatenate([p[k] for p in parts]), one[k])


@pytest.mark.parametrize("lookup", ["m_at", "mcheck_at", "I0_at", "I1_at", "int_m_at"])
def test_sweep_lookups_reject_x_beyond_N(lookup):
    sw = prefix_sweep(100)
    getattr(sw, lookup)(100.5)  # floor(x) = N is covered
    with pytest.raises(DomainError, match="sweep covers N=100"):
        getattr(sw, lookup)(150.0)
    with pytest.raises(DomainError):
        getattr(sw, lookup)(0.5)


def test_validate_rejects_bad_snapshot():
    s = summatory(10, mode="mp")
    object.__setattr__(s, "M", 99)
    with pytest.raises(RuntimeError):
        s.validate()


def test_mdcheck_is_twice_integral_of_mcheck_over_t(sweep_1e5):
    # mdd(x) = 2 int_1^x mcheck(t) dt/t with mcheck = a_n + m_n log t per piece
    x = 500.0
    total = 0.0
    for n in range(1, 500):
        a = -sweep_1e5.Smlog[n - 1]
        b = sweep_1e5.m[n - 1]
        lo, hi = math.log(n), math.log(min(n + 1, x))
        total += a * (hi - lo) + b * (hi * hi - lo * lo) / 2
    snap = summatory(x, mode="mp")
    assert abs(2 * total - float(snap.m_dcheck.value)) < 1e-10
