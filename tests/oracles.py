"""Independent oracles used by the tests.

Everything here deliberately avoids the library's own algorithms: mu comes
from the Dirichlet-inverse recursion (no factorization), zeta values from
plain series with integral-sandwich tails, integrals from brute-force Riemann
sums.  Oracle outputs were computed once before the build and the key values
are frozen in FROZEN below.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

# Values computed by the oracles in this file (single pre-build run), plus
# classical constants cross-checked against them.
FROZEN = {
    "M_1e6": 212,
    "M_1e7": 1037,
    "M_10": -1,
    "M_97067": -109,
    "mu_1_12": [1, -1, -1, 0, -1, 1, -1, 0, 0, 1, -1, 0],
    "m_10": Fraction(19, 210),
    "zeta_2": "1.64493406684822643647",
    "zeta_3": "1.20205690315959428540",
    "zeta_prime_2": "-0.93754825431584375370",
    "gamma": "0.57721566490153286061",
    "Q_l1_ref_2": "-0.06771840194669358",   # 1 - zeta(2) + gamma
    "Q_l1_ref_3": "-0.12484123825806142",   # 1/2 - zeta(3) + gamma
}


def mobius_dirichlet_inverse(N: int) -> np.ndarray:
    """mu(0..N) via mu = Dirichlet inverse of the all-ones sequence."""
    mu = np.zeros(N + 1, dtype=np.int64)
    mu[1] = 1
    for d in range(1, N + 1):
        if mu[d]:
            mu[2 * d:: d] -= mu[d]
    return mu


def m_exact_fraction(x: float) -> Fraction:
    """Exact rational m(x) = sum_{n <= x} mu(n)/n, mu from the Dirichlet inverse."""
    N = math.floor(x)
    mu = mobius_dirichlet_inverse(max(N, 1))
    return sum((Fraction(int(mu[n]), n) for n in range(1, N + 1) if mu[n]), Fraction(0))


def mpf_fraction(v) -> Fraction:
    """An mpf's exact value as a Fraction (mpf.man_exp drops the sign)."""
    sign, man, exp, _ = v._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def mu_trial_division(n: int) -> int:
    """mu(n) by naive factorization."""
    if n == 1:
        return 1
    out = 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    if n > 1:
        out = -out
    return out


def zeta_series_enclosure(sigma: float, N: int = 200_000):
    """[lo, hi] containing zeta(sigma) for real sigma > 1, by partial sum plus
    the integral sandwich on the decreasing tail."""
    assert sigma > 1
    with mpmath.mp.workprec(150):
        partial = mpmath.fsum(mpmath.power(n, -sigma) for n in range(1, N + 1))
        lo = partial + mpmath.power(N + 1, 1 - sigma) / (sigma - 1)
        hi = partial + mpmath.power(N, 1 - sigma) / (sigma - 1)
    return lo, hi


def zeta_prime_series_enclosure(sigma: float, N: int = 200_000):
    """[lo, hi] for zeta'(sigma) = -sum log n / n^sigma, sigma > 1."""
    assert sigma > 1
    with mpmath.mp.workprec(150):
        partial = -mpmath.fsum(mpmath.log(n) * mpmath.power(n, -sigma)
                               for n in range(1, N + 1))
        # tail integral: int_N^inf log u * u^-sigma du
        tail_hi = (mpmath.log(N) / (sigma - 1) + 1 / (sigma - 1) ** 2) * mpmath.power(N, 1 - sigma)
        tail_lo = (mpmath.log(N + 1) / (sigma - 1) + 1 / (sigma - 1) ** 2) * mpmath.power(N + 1, 1 - sigma)
    return partial - tail_hi, partial - tail_lo


def riemann_abs_Q(s: complex, zeta_value: complex, T: int, pts_per_unit: int = 20000) -> float:
    """Brute-force midpoint Riemann sum of |Q_s(t)|/t^2 over [1, T]."""
    total = 0.0
    P = 0.0 + 0.0j
    for K in range(1, T):
        P += K ** (-s)
        c = (s - 1) * (zeta_value - P)
        t = np.linspace(K, K + 1, pts_per_unit, endpoint=False) + 0.5 / pts_per_unit
        total += float(np.mean(np.abs(c * np.exp(np.log(t) * s) - t) / t ** 2))
    return total


def riemann_convolution_side(a_vals, b_vals, omega, phi, x: float, n_pts: int = 400_000) -> float:
    """Fine-grid midpoint sum of integral S_a omega(x/t) S_b phi(t) dt/t."""
    t = np.linspace(1.0, x, n_pts, endpoint=False) + (x - 1.0) / (2 * n_pts)
    Sa = np.zeros_like(t)
    for n, an in enumerate(a_vals, start=1):
        if an:
            mask = t <= x / n
            Sa[mask] += float(an) * omega(x / (t[mask] * n))
    Sb = np.zeros_like(t)
    for k, bk in enumerate(b_vals, start=1):
        if bk:
            mask = t >= k
            Sb[mask] += float(bk) * phi(t[mask] / k)
    return float(np.sum(Sa * Sb / t) * (x - 1.0) / n_pts)
