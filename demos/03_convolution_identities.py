#!/usr/bin/env python3
"""The 4-parameter integral convolution identity as an identity factory.

For sequences a, b and kernels omega, phi, both sides of

    int_1^x S_a omega(x/t) S_b phi(t) dt/t = int_1^x S_{a*b} omega(x/t) phi(t) dt/t

are computed by exact piecewise integration over the breakpoint partition
(integers merged with the points x/n), so a nonzero residual would be a bug,
not discretization error.  Specializing (a, omega, b, phi) yields the named
summatory identities; two examples close the demo.
"""

import mpmath

from moebius import SequenceSpec, dirichlet_convolve, terre_sides
from moebius.identities import double_check_borne_sides, formule_m_value
from moebius.piecewise import FunctionSpec

mob = SequenceSpec.named("mobius")
one = SequenceSpec.named("one")
alt = SequenceSpec.named("alternating")

print("mu * 1 =", dirichlet_convolve(mob, one, 10), " (the identity element)")
print("1 * 1  =", dirichlet_convolve(one, one, 10), " (divisor counts)")
print()

print("identity harness at x = 97.5:")
pairs = [(mob, one, FunctionSpec.power(1.0), FunctionSpec.power(-1.0, 2.0)),
         (mob, alt, FunctionSpec.t_log(1), FunctionSpec.power(2.0)),
         (alt, alt, FunctionSpec.log(1), FunctionSpec.power(complex(0.5, 3.0)))]
for a, b, om, ph in pairs:
    lhs, rhs = terre_sides(a, b, om, ph, 97.5)
    print(f"  a={a.label():11s} b={b.label():11s} omega={om.describe():8s} "
          f"phi={ph.describe():14s} |lhs-rhs| = "
          f"{float(abs(lhs.value - rhs.value)):.2e}  (radii {lhs.radius + rhs.radius:.1e})")
print()

print("specialization 1: int m(x/t) [sum_{k<=t} 2k/t] dt/t^2 = 1 - 1/x^2")
for x in (10.0, 1000.0):
    val, expect = formule_m_value(x)
    print(f"  x = {x:>6}: value = {mpmath.nstr(val.value, 20)}, "
          f"1 - 1/x^2 = {mpmath.nstr(expect, 20)}")
print()

print("specialization 2: the harmonic-weight cross term")
print("  int m(x/t) t(H(t)-log t-gamma) dt/t^2 = -(mdd(x)-2log x+2gamma)/2 - gamma(mcheck(x)-1)")
for x in (10.0, 1000.0):
    lhs, rhs = double_check_borne_sides(x)
    print(f"  x = {x:>6}: residual = {float(abs(lhs.value - rhs.value)):.2e}")
