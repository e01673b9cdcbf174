#!/usr/bin/env python3
"""Euler-Maclaurin zeta values and the comparison kernels.

zeta(s) and zeta'(s) come with rigorous remainder-based radii for Re(s) > -1.
The kernel Q_s(t) = (s-1)zeta(s)t^s - (s-1)sum_{k<=t}(t/k)^s - t has two
independent evaluation routes -- the definition (through zeta) and the
Euler-Maclaurin fractional-part tail integral (no zeta at all) -- and the two
agree to the combined radii everywhere, which is the library's central
self-check.
"""

import mpmath

from moebius import kernel_bound, kernel_eval, kernel_eval_em, zeta_em
from moebius.kernels import SUP_Q, KernelSpec, hel_sup_abs_Q

print("=" * 72)
print("zeta with rigorous radii (target 1e-30)")
print("=" * 72)
for s in (2.0, 0.5 + 14.13j, -0.5 + 5j, 1.04):
    z, zp = zeta_em(s, 1e-30)
    print(f"s = {str(s):12s} zeta  = {mpmath.nstr(z.value, 20):42s} +- {z.radius:.1e}")
    print(f"{'':16s} zeta' = {mpmath.nstr(zp.value, 20):42s} +- {zp.radius:.1e}")
print()

print("=" * 72)
print("Definitional vs Euler-Maclaurin kernel evaluation")
print("=" * 72)
s = 0.5 + 14.13j
spec = KernelSpec.make("Q", s)
print(f"s = {s}, sup bound |Q| <= |s||s-1|/sigma = {kernel_bound(s, SUP_Q):.1f}, "
      f"truncation-regime sup = {hel_sup_abs_Q(s):.2f} (t >= {abs(s.imag)})")
print(f"{'t':>8} {'|Q_s(t)| (definition)':>24} {'(EM tail form)':>18} {'difference':>12}")
for t in (1.0, 2.0, 7.3, 14.13, 50.0):
    d = kernel_eval(spec, t, 1e-25)
    e = kernel_eval_em(spec, t, 1e-25)
    diff = abs(complex(d.value - e.value))
    print(f"{t:8.2f} {abs(complex(d.value)):24.12f} {abs(complex(e.value)):18.12f} {diff:12.2e}")
print()
print("The jump of Q_s at integer t is exactly -(s-1) (a new summand enters");
print("at value 1); R_s = Q_s - (s-1)({t}-1/2) is continuous:")
for k in (2, 5):
    ql = kernel_eval(spec, float(k), 1e-25, left_limit=True)
    qr = kernel_eval(spec, float(k), 1e-25)
    rl = kernel_eval(KernelSpec.make("R", s), float(k), 1e-25, left_limit=True)
    rr = kernel_eval(KernelSpec.make("R", s), float(k), 1e-25)
    print(f"  t = {k}: Q jump = {complex(qr.value - ql.value):.6f} "
          f"(expect {complex(-(complex(s) - 1)):.6f}); "
          f"|R left - right| = {abs(complex(rl.value - rr.value)):.1e}")
