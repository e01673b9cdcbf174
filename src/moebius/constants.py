"""Named constants: Euler-Mascheroni gamma, the first zeta zero ordinate, and
the imported explicit bounds on |m|, |m-check - 1| and |m_1| with their
validity thresholds.

gamma is stored as a 60-digit literal so it is never a rounding bottleneck;
at working precisions beyond the literal it is recomputed by mpmath.
"""

from __future__ import annotations

import mpmath
from mpmath import mpf

# 60 digits
EULER_GAMMA_STR = "0.577215664901532860606512090082402431042159335939923598805767"

# Ordinate of the lowest nontrivial zeta zero, 50 digits.
RHO1_IMAG_STR = "14.134725141734693790457251983562470270784257115699"

# The rounded ordinate used in the source comparisons.
RHO1_IMAG_ROUNDED = 14.13

_GAMMA_LITERAL_BITS = 196  # 59 digits ~ 196 bits


def gamma_const(prec: int) -> mpf:
    """Euler-Mascheroni constant at `prec` bits."""
    with mpmath.mp.workprec(prec + 8):
        if prec + 8 <= _GAMMA_LITERAL_BITS:
            g = mpf(EULER_GAMMA_STR)
        else:
            g = +mpmath.euler
    return g


#: gamma rounded to a double from 64 bits, for the float64 lanes
GAMMA_F = float(gamma_const(64))

# Explicit bounds imported from the literature; consumed, not re-derived.
# Each is (coefficient c, threshold t0) for: quantity <= c / log t, t >= t0.
M_OVER_LOG = (0.013, 97_067.0)            # |M(x)| <= 0.013 x / log x
LITTLE_M_OVER_LOG = (0.0130073, 97_063.0)  # |m(x)| <= 0.0130073 / log x
MCHECK_OVER_LOG = (8.55e-6, 2.5e11)        # |m-check(x) - 1| <= c / log x
M1_OVER_LOG = (7.265e-6, 2.15e11)          # |m_1(x)| <= c / log x

# Harmonic sandwich: LOWER <= x*(H(x) - log x - gamma) <= UPPER for x >= 1;
# the lower constant is -2(log 2 + gamma - 1) = -0.54072... rounded outward.
HARMONIC_LOWER = -0.5408
HARMONIC_UPPER = 0.5
