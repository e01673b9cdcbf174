"""The fixed-point Dirichlet-sum engine against exact rationals and against
mpmath at doubled precision: every value must lie inside value +- radius."""

from fractions import Fraction
from functools import lru_cache

import mpmath
import pytest

from moebius import dsum
from moebius.dsum import DirichletTable
from moebius.errors import CapacityError
from moebius.identities import mu_log_power_sum, mu_power_sum
from moebius.sieve import base_primes
from moebius.summatory import summatory
from moebius.zeta import partial_power_sum
from oracles import mobius_dirichlet_inverse, mpf_fraction

PREC = 128


def _inside(value, radius: float, exact) -> bool:
    return abs(mpf_fraction(value) - exact) <= radius


def test_M_m_H_every_prefix_against_fractions():
    K_max = 2000
    mu = mobius_dirichlet_inverse(K_max)
    table = DirichletTable(1.0, 0.0, PREC)
    m_col = table.values(K_max, mu=True, cumulative=True)
    H_col = table.values(K_max, cumulative=True)
    M, m, H = 0, Fraction(0), Fraction(0)
    for K in range(1, K_max + 1):
        M += int(mu[K])
        m += Fraction(int(mu[K]), K)
        H += Fraction(1, K)
        assert sum(table.mu(K)) == M
        assert _inside(m_col[K], table.radius(K, mu=True), m), K
        assert _inside(H_col[K], table.radius(K), H), K
    snap = summatory(float(K_max), mode="mp")
    assert snap.M == M
    assert _inside(snap.m.value, snap.m.radius, m)
    assert _inside(snap.H.value, snap.H.radius, H)


def test_mu_reads_only_through_N_after_a_larger_read():
    """mu(N) is mu(0..N) even once the table has sieved further, so a
    snapshot's M = sum(mu(N)) never counts terms beyond N."""
    table = DirichletTable(1.0, 0.0, 64)
    assert len(table.mu(1000)) == 1001
    small = table.mu(10)
    assert len(small) == 11 and sum(small) == -1


@lru_cache(maxsize=None)
def _reference(s, N: int) -> dict:
    """The four sums at x = 1e3 and 1e4 by mpmath at twice PREC, term by term."""
    mu = mobius_dirichlet_inverse(N)
    out = {}
    with mpmath.mp.workprec(2 * PREC):
        sm = mpmath.mpmathify(s)
        acc = dict.fromkeys(("mu", "mu_log_n", "one", "log"), mpmath.mpf(0))
        for n in range(1, N + 1):
            term = mpmath.power(n, -sm)
            log_n = mpmath.log(n)
            acc["one"] += term
            acc["log"] += term * log_n
            if mu[n]:
                acc["mu"] += int(mu[n]) * term
                acc["mu_log_n"] += int(mu[n]) * term * log_n
            if n in (1000, N):
                out[n] = dict(acc)
                # sum mu n^-s log(x/n) = log x sum mu n^-s - sum mu n^-s log n
                out[n]["mu_log"] = mpmath.log(n) * acc["mu"] - acc["mu_log_n"]
    return out


@pytest.mark.parametrize("s", [-0.5, 1 + 1e-4, 2.0, 0.5 + 3j])
@pytest.mark.parametrize("x", [1000, 10_000])
def test_power_sums_against_doubled_precision(s, x):
    ref = _reference(s, 10_000)[x]
    sigma, tau = complex(s).real, complex(s).imag
    table = DirichletTable(sigma, tau, PREC, logs=True)
    got = {"mu": mu_power_sum(x, s, PREC), "mu_log": mu_log_power_sum(x, s, PREC),
           "one": partial_power_sum(s, x, PREC), "log": table.total(x, 1)}
    with mpmath.mp.workprec(2 * PREC):
        for name, value in got.items():
            assert abs(value.value - ref[name]) <= value.radius, name
            # every term is off by at most its Omega and log factors times
            # 2^-(PREC + 64), for sigma < 0 too (the headroom bits)
            if name != "mu_log":
                assert value.radius < x * 2.0 ** -(PREC + 48)


@pytest.mark.parametrize("s", [-0.5, -0.5 + 5j])
def test_prefix_bits_do_not_depend_on_growth(s):
    # sigma < 0: the headroom bits come from the cap, not from how far the
    # table has grown, so a prefix read early keeps its bits
    sigma, tau = complex(s).real, complex(s).imag
    grown = DirichletTable(sigma, tau, PREC)
    before = [(grown.value(K), grown.radius(K)) for K in (1, 10, 16)]
    W = grown.W
    grown.extend(5000)
    assert grown.W == W
    assert [(grown.value(K), grown.radius(K)) for K in (1, 10, 16)] == before
    whole = DirichletTable(sigma, tau, PREC)
    whole.extend(5000)
    assert grown.terms(5000) == whole.terms(5000)


def test_table_past_its_cap_raises_before_sieving(monkeypatch):
    def no_sieve(N):
        raise AssertionError("sieved")

    table = DirichletTable(0.5, 0.0, PREC)
    monkeypatch.setattr(dsum, "smallest_prime_factors", no_sieve)
    for grow in (table.extend, table.value):
        with pytest.raises(CapacityError):
            grow(dsum.CAP + 1)
    assert table.N == 1
    monkeypatch.undo()
    monkeypatch.setattr(dsum, "CAP", 64)
    table.value(40)
    table.value(50)  # doubling from 40 stops at the cap
    assert table.N == 64


def test_transcendentals_run_at_primes_only(monkeypatch):
    calls = {}

    def counting(name):
        real = getattr(dsum, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("log_int_fixed", "exp_fixed", "cos_sin_fixed"):
        monkeypatch.setattr(dsum, name, counting(name))
    table = DirichletTable(0.5, 3.0, PREC, logs=True)
    table.extend(1000)
    pi_1000 = len(base_primes(1000))
    assert calls == dict.fromkeys(calls, pi_1000) and len(calls) == 3
    table.extend(3000)  # only the new primes
    assert calls == dict.fromkeys(calls, len(base_primes(3000)))
