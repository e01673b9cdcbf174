import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from moebius.errors import CapacityError, DomainError
from moebius.sieve import MobiusTable, iter_segments, nonzero_mu, sieve_range
from oracles import FROZEN, mobius_dirichlet_inverse, mu_trial_division


def test_first_twelve():
    assert sieve_range(1, 12).values.tolist() == FROZEN["mu_1_12"]


def test_single_value_window():
    assert sieve_range(6, 6).values.tolist() == [1]  # 6 = 2*3
    assert sieve_range(49, 49).values.tolist() == [0]
    assert sieve_range(97, 97).values.tolist() == [-1]


def test_against_dirichlet_inverse_oracle(mu_oracle_5e4):
    table = sieve_range(1, 50_000)
    assert np.array_equal(table.values.astype(np.int64), mu_oracle_5e4[1:])


def test_primes_are_minus_one():
    table = sieve_range(1, 10_000)
    from moebius.sieve import base_primes
    for p in base_primes(10_000):
        assert table.mu(int(p)) == -1


def test_dirichlet_inverse_property_exhaustive():
    # sum_{d|n} mu(d) = [n == 1] for all n <= 1e4
    N = 10_000
    table = sieve_range(1, N)
    acc = np.zeros(N + 1, dtype=np.int64)
    for d in range(1, N + 1):
        acc[d::d] += table.mu(d)
    assert acc[1] == 1
    assert not np.any(acc[2:])


def test_nonzero_mu_reader():
    N = 5_000
    mu = mobius_dirichlet_inverse(N)
    pairs = list(nonzero_mu(N))
    assert pairs == [(n, int(mu[n])) for n in range(1, N + 1) if mu[n]]
    assert all(type(n) is int and type(v) is int for n, v in pairs)
    assert list(nonzero_mu(0)) == []


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=49_000), st.integers(min_value=1, max_value=900))
def test_windows_match_oracle(lo, span):
    hi = lo + span
    window = sieve_range(lo, hi)
    for n in (lo, (lo + hi) // 2, hi):
        assert window.mu(n) == mu_trial_division(n)


def test_segmented_equals_monolithic():
    whole = sieve_range(1, 30_000)
    stitched = np.concatenate([seg.values for seg in iter_segments(1, 30_000, 4096)])
    assert np.array_equal(whole.values, stitched)


def test_high_window_values():
    lo = 10**8
    window = sieve_range(lo, lo + 100)
    for off in (0, 1, 37, 100):
        assert window.mu(lo + off) == mu_trial_division(lo + off)


def test_domain_and_capacity_errors():
    with pytest.raises(DomainError):
        sieve_range(0, 10)
    with pytest.raises(DomainError):
        sieve_range(10, 5)
    with pytest.raises(CapacityError):
        sieve_range(1, 2**28 + 2)
    with pytest.raises(DomainError):
        MobiusTable(1, 2, np.zeros(2, dtype=np.int8)).mu(5)


@pytest.mark.parametrize("lo,hi", [(2**31 - 64, 2**31 - 1),  # int32 products, up to 2^31 - 1
                                   (2**31 - 32, 2**31 + 32),  # int64, across 2^31
                                   (2**31, 2**31 + 64)])
def test_windows_at_the_int32_product_limit(lo, hi):
    window = sieve_range(lo, hi)
    assert window.values.tolist() == [mu_trial_division(n) for n in range(lo, hi + 1)]
