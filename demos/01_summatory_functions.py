#!/usr/bin/env python3
"""Tour of the summatory functions of mu(n).

Computes snapshots of M, m and the log-smoothed variants at a few scales,
shows the exact step integrals of |m|, and demonstrates that every float
result carries an error radius (the fast float64 path and the 128-bit path
agree within their combined radii).
"""

import time
from fractions import Fraction

from moebius import abs_m_integrals, summatory
from moebius.report import format_snapshot
from moebius.sieve import nonzero_mu
from moebius.summatory import prefix_sweep

print("=" * 72)
print("Snapshot at x = 10 (every value carries a radius)")
print("=" * 72)
print(format_snapshot(summatory(10)))
print()
m10 = sum(Fraction(mu, n) for n, mu in nonzero_mu(10))
print(f"exact rational check: m(10) = {m10} = {float(m10):.10f}")
print()

print("=" * 72)
print("Fast path at x = 1e6 (compensated float64, radii stay honest)")
print("=" * 72)
t0 = time.perf_counter()
snap = summatory(10**6, mode="fast")
print(format_snapshot(snap))
print(f"[{time.perf_counter() - t0:.2f}s; M(1e6) = {snap.M} is exact]")
print()

print("=" * 72)
print("Exact step integrals of |m(t)| and |m(t)| t on [1, x]")
print("=" * 72)
sweep = prefix_sweep(10**5)
for x in (2, 3, 100, 10**4):
    I0, I1 = abs_m_integrals(x, sweep)
    print(f"x = {x:>6}: int |m| dt = {float(I0.value):.9f} +- {I0.radius:.1e}   "
          f"int |m| t dt = {float(I1.value):.6g}")
print()
print("m is a step function, so these integrals are exact piecewise sums;")
print("the radii cover rounding only.")
