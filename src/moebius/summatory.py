"""Summatory functions of mu(n) and the harmonic series, with error radii.

Fast path: float64 numpy sweeps with chunked compensated prefix sums.  Each
prefix array carries per-element rigorous rounding radii: within a chunk the
error is bounded by (chunk length) * eps * (sum of |terms| in the chunk), and
chunk offsets are chained through math.fsum (exactly rounded), so radii stay
near a few ulp of the running magnitude instead of growing linearly in n.

mp path: the same sums accumulated in mpmath at 32 guard bits above the
requested precision, used by the exact identity checks at modest x.

M(x) is always exact (int64 cumulative sums of mu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
from mpmath import mpf

from .approx import ApproxValue, RIGOROUS, eps_for, radd
from .constants import gamma_const
from .errors import DomainError
from .sieve import iter_segments

_EPS = 2.0**-52  # one-op float64 bound (2 ulp at 0.5-scale, deliberately lax)
_CHUNK = 4096
MP_MODE_LIMIT = 400_000


def compensated_cumsum(terms: np.ndarray, term_ulps: float = 1.0,
                       chunk: int = _CHUNK) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of `terms` plus per-element rounding radii.

    The radii cover both the summation error of this routine and up to
    `term_ulps` ulp of evaluation error in each input term.
    """
    n = len(terms)
    out = np.empty(n, dtype=np.float64)
    radii = np.empty(n, dtype=np.float64)
    abs_terms = np.abs(terms)
    chunk_sums: list[float] = []
    abs_carry = 0.0   # running sum of |chunk sums|, for offset-error tracking
    abs_prefix = 0.0  # running sum of |terms|, for term-evaluation error
    offset = 0.0
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = terms[start:stop]
        local = np.cumsum(block)
        out[start:stop] = offset + local
        block_abs = float(np.sum(abs_terms[start:stop]))
        abs_prefix_end = abs_prefix + block_abs
        # in-chunk sequential cumsum + one add of the offset, plus offset chain
        # error and term evaluation error over everything summed so far
        bound = _EPS * ((stop - start) * block_abs
                        + 2.0 * (abs(offset) + block_abs)
                        + abs_carry
                        + term_ulps * abs_prefix_end)
        radii[start:stop] = bound
        chunk_sums.append(float(local[-1]))
        abs_carry += abs(chunk_sums[-1])
        abs_prefix = abs_prefix_end
        offset = math.fsum(chunk_sums)
    return out, radii


def _segment_sum(values: np.ndarray) -> tuple[float, float]:
    """Pairwise sum of a segment and a bound on its absolute rounding error."""
    s = float(np.sum(values))
    a = float(np.sum(np.abs(values)))
    depth = max(1.0, math.log2(max(len(values), 2)))
    return s, _EPS * (depth + 2.0) * a


@dataclass(frozen=True)
class SummatorySnapshot:
    """All summatory quantities at one x. M is exact; the rest carry radii."""

    x: float
    M: int
    m: ApproxValue
    m_check: ApproxValue
    m_dcheck: ApproxValue
    m1: ApproxValue
    H: ApproxValue
    H_check: ApproxValue

    def validate(self) -> None:
        if abs(self.M) > math.floor(self.x):
            raise RuntimeError(f"|M({self.x})| = {abs(self.M)} exceeds floor(x)")
        if self.m.abs_value() > 1.0 + self.m.radius:
            raise RuntimeError(f"|m({self.x})| > 1 beyond radius")


def _snapshot_fast(x: float) -> SummatorySnapshot:
    N = math.floor(x)
    logx = math.log(x)
    M = 0
    parts = {k: [] for k in ("m", "mlog", "mlog2", "H", "Hlog")}
    errs = dict.fromkeys(parts, 0.0)
    abss = dict.fromkeys(parts, 0.0)

    def feed(key, seg_values, ulps):
        s, e = _segment_sum(seg_values)
        parts[key].append(s)
        a = float(np.sum(np.abs(seg_values)))
        errs[key] += e + ulps * _EPS * a
        abss[key] += a

    for seg in iter_segments(1, N):
        ns = np.arange(seg.lo, seg.hi + 1, dtype=np.float64)
        mus = seg.values.astype(np.float64)
        M += int(np.sum(seg.values, dtype=np.int64))
        logs = np.log(ns)
        mu_over_n = mus / ns
        feed("m", mu_over_n, 1)
        feed("mlog", mu_over_n * logs, 4)
        feed("mlog2", mu_over_n * logs * logs, 6)
        inv = 1.0 / ns
        feed("H", inv, 1)
        feed("Hlog", inv * logs, 4)

    def total(key, extra_ulps=2.0):
        v = math.fsum(parts[key])
        r = errs[key] + extra_ulps * _EPS * abs(v)
        return v, r

    m_v, m_r = total("m")
    mlog_v, mlog_r = total("mlog")
    mlog2_v, mlog2_r = total("mlog2")
    H_v, H_r = total("H")
    Hlog_v, Hlog_r = total("Hlog")

    ulp_logx = _EPS * abs(logx)
    av = lambda v, r: ApproxValue(v, radd(r), RIGOROUS, 53)
    m = av(m_v, m_r)
    # m-check = log(x) m - sum mu/n log n; similarly the log^2 smoothing
    mc_v = logx * m_v - mlog_v
    mc_r = abs(logx) * m_r + abs(m_v) * ulp_logx + mlog_r + 4 * _EPS * (abs(mc_v) + abs(mlog_v))
    md_v = logx**2 * m_v - 2 * logx * mlog_v + mlog2_v
    md_r = (logx**2 * m_r + 2 * abs(logx) * mlog_r + mlog2_r
            + 3 * ulp_logx * (abs(logx * m_v) + abs(mlog_v))
            + 8 * _EPS * (abs(md_v) + abs(mlog2_v) + abs(logx * mlog_v)))
    m1_v = m_v - M / x
    m1_r = m_r + 3 * _EPS * (abs(M / x) + abs(m1_v))
    H = av(H_v, H_r)
    hc_v = logx * H_v - Hlog_v
    hc_r = abs(logx) * H_r + abs(H_v) * ulp_logx + Hlog_r + 4 * _EPS * (abs(hc_v) + abs(Hlog_v))
    return SummatorySnapshot(float(x), M, m, av(mc_v, mc_r), av(md_v, md_r),
                             av(m1_v, m1_r), H, av(hc_v, hc_r))


def _snapshot_mp(x: float, prec: int) -> SummatorySnapshot:
    N = math.floor(x)
    work = prec + 32
    with mpmath.mp.workprec(work):
        xm = mpf(x)
        logx = mpmath.log(xm)
        M = 0
        S = {k: mpf(0) for k in ("m", "mlog", "mlog2", "H", "Hlog")}
        A = dict.fromkeys(S, 0.0)
        for seg in iter_segments(1, N):
            for i, mu in enumerate(seg.values):
                n = seg.lo + i
                mu = int(mu)
                inv = mpf(1) / n
                logn = mpmath.log(mpf(n))
                S["H"] += inv
                A["H"] += float(inv)
                hl = inv * logn
                S["Hlog"] += hl
                A["Hlog"] += abs(float(hl))
                if mu:
                    M += mu
                    t = mu * inv
                    S["m"] += t
                    A["m"] += float(inv)
                    tl = t * logn
                    S["mlog"] += tl
                    A["mlog"] += abs(float(tl))
                    tl2 = tl * logn
                    S["mlog2"] += tl2
                    A["mlog2"] += abs(float(tl2))
        eps = eps_for(prec)

        def av(v, *abskeys, scale=0.0):
            a = sum(A[k] for k in abskeys) + scale + abs(float(v))
            return ApproxValue(+v, 8.0 * eps * a, RIGOROUS, prec)

        m = av(S["m"], "m")
        mc = av(logx * S["m"] - S["mlog"], "mlog", scale=float(logx) * A["m"])
        md = av(logx**2 * S["m"] - 2 * logx * S["mlog"] + S["mlog2"],
                "mlog2", scale=float(logx) ** 2 * A["m"] + 2 * abs(float(logx)) * A["mlog"])
        m1 = av(S["m"] - M / xm, "m", scale=abs(M / x))
        H = av(S["H"], "H")
        hc = av(logx * S["H"] - S["Hlog"], "Hlog", scale=float(logx) * A["H"])
    return SummatorySnapshot(float(x), M, m, mc, md, m1, H, hc)


def summatory(x: float, mode: str = "auto", precision: int = 128) -> SummatorySnapshot:
    """SummatorySnapshot at x: exact M plus m, m-check, m-double-check, m1, H,
    H-check, each with a rigorous rounding radius.

    mode "mp" runs the sweep in mpmath at `precision` bits (x capped at
    MP_MODE_LIMIT); "fast" uses compensated float64; "auto" picks mp for small x.
    """
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    if mode == "auto":
        mode = "mp" if x <= 20_000 else "fast"
    if mode == "mp":
        if x > MP_MODE_LIMIT:
            raise DomainError(f"mp mode capped at x <= {MP_MODE_LIMIT}")
        snap = _snapshot_mp(x, precision)
    elif mode == "fast":
        snap = _snapshot_fast(x)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    snap.validate()
    return snap


# ---------------------------------------------------------------------------
# Materialized prefix sweeps for the inequality checks (x up to a few 10^6).
# ---------------------------------------------------------------------------

class PrefixSweep:
    """Arrays over n = 1..N of every prefix quantity the sweeps need.

    m, Smlog = sum mu/n log n, Smlog2 = sum mu/n log^2 n, H, SHlog carry
    per-element radii; M and the |M|-integral are exact int64; I0 and I1 are
    the exact-piecewise integrals of |m| and |m| t with rounding radii.
    Index convention: entry [n-1] holds the prefix through n.
    """

    def __init__(self, N: int):
        if N < 1:
            raise DomainError("N >= 1 required")
        self.N = N
        mu = np.empty(N, dtype=np.int8)
        for seg in iter_segments(1, N):
            mu[seg.lo - 1: seg.hi] = seg.values
        self.mu = mu
        ns = np.arange(1, N + 1, dtype=np.float64)
        logs = np.log(ns)
        self.M = np.cumsum(mu.astype(np.int64))
        mu_over_n = mu / ns
        self.m, self.m_rad = compensated_cumsum(mu_over_n, 1)
        self.Smlog, self.Smlog_rad = compensated_cumsum(mu_over_n * logs, 4)
        self.Smlog2, self.Smlog2_rad = compensated_cumsum(mu_over_n * logs * logs, 6)
        self.H, self.H_rad = compensated_cumsum(1.0 / ns, 1)
        self.SHlog, self.SHlog_rad = compensated_cumsum(logs / ns, 4)
        # I0[n-1] = integral of |m| over [1, n]: m is constant on [j, j+1)
        abs_m = np.abs(self.m[:-1]) if N > 1 else np.empty(0)
        self.I0 = np.concatenate(([0.0], np.cumsum(abs_m)))
        i0_term_rad = np.cumsum(self.m_rad[:-1]) if N > 1 else np.empty(0)
        self.I0_rad = np.concatenate(([0.0], i0_term_rad + _EPS * ns[:-1] * np.maximum.accumulate(np.abs(self.I0[1:]))))
        w = ns[:-1] + 0.5  # integral of t over [j, j+1]
        self.I1 = np.concatenate(([0.0], np.cumsum(abs_m * w)))
        i1_rad = np.cumsum(self.m_rad[:-1] * w) if N > 1 else np.empty(0)
        self.I1_rad = np.concatenate(([0.0], i1_rad + _EPS * ns[:-1] * np.maximum.accumulate(np.abs(self.I1[1:]))))
        self.IabsM = np.concatenate(([0], np.cumsum(np.abs(self.M[:-1]))))  # exact

    # point lookups at real x >= 1 -----------------------------------------

    def m_at(self, x: float) -> ApproxValue:
        n = min(math.floor(x), self.N)
        return ApproxValue(self.m[n - 1], radd(self.m_rad[n - 1]), RIGOROUS, 53)

    def mcheck_at(self, x: float) -> ApproxValue:
        n = min(math.floor(x), self.N)
        logx = math.log(x)
        v = logx * self.m[n - 1] - self.Smlog[n - 1]
        r = (abs(logx) * self.m_rad[n - 1] + self.Smlog_rad[n - 1]
             + _EPS * (abs(logx * self.m[n - 1]) * 2 + 2 * abs(v)))
        return ApproxValue(v, radd(r), RIGOROUS, 53)

    def I0_at(self, x: float) -> ApproxValue:
        n = min(math.floor(x), self.N)
        v = self.I0[n - 1] + abs(self.m[n - 1]) * (x - n)
        r = self.I0_rad[n - 1] + self.m_rad[n - 1] * (x - n) + _EPS * 4 * abs(v)
        return ApproxValue(v, radd(r), RIGOROUS, 53)

    def I1_at(self, x: float) -> ApproxValue:
        n = min(math.floor(x), self.N)
        v = self.I1[n - 1] + abs(self.m[n - 1]) * (x * x - n * n) / 2.0
        r = self.I1_rad[n - 1] + self.m_rad[n - 1] * (x * x - n * n) / 2.0 + _EPS * 4 * abs(v)
        return ApproxValue(v, radd(r), RIGOROUS, 53)

    def int_m_at(self, x: float) -> ApproxValue:
        """Exact-piecewise integral of m (signed) over [1, x]."""
        n = min(math.floor(x), self.N)
        signed = self.m[:n - 1] if n > 1 else np.empty(0)
        v = float(np.sum(signed)) + self.m[n - 1] * (x - n)
        r = (float(np.sum(self.m_rad[:max(n - 1, 0)])) + self.m_rad[n - 1] * (x - n)
             + _EPS * (math.log2(max(n, 2)) + 4) * (float(np.sum(np.abs(signed))) + abs(v)))
        return ApproxValue(v, radd(r), RIGOROUS, 53)


@lru_cache(maxsize=4)
def prefix_sweep(N: int) -> PrefixSweep:
    return PrefixSweep(N)


def abs_m_integrals(x: float, sweep: PrefixSweep | None = None) -> tuple[ApproxValue, ApproxValue]:
    """(I0, I1) = (integral of |m(t)| dt, integral of |m(t)| t dt) over [1, x].

    m is a step function, so both are exact piecewise sums; radii cover only
    rounding.
    """
    if x < 1:
        raise DomainError(f"x must be >= 1, got {x}")
    if sweep is None:
        sweep = prefix_sweep(max(math.floor(x), 1))
    if math.floor(x) > sweep.N:
        raise DomainError(f"sweep covers N={sweep.N} < floor(x)")
    return sweep.I0_at(x), sweep.I1_at(x)


def m_exact_fraction(x: float) -> Fraction:
    """Exact rational m(x) for modest x; the internal oracle for the fast path."""
    N = math.floor(x)
    if N > 100_000:
        raise DomainError("exact-rational mode is for x <= 1e5")
    from .sieve import sieve_range
    table = sieve_range(1, max(N, 1))
    total = Fraction(0)
    for n in range(1, N + 1):
        mu = table.mu(n)
        if mu:
            total += Fraction(mu, n)
    return total


def harmonic_gamma_margins(N: int, gamma_f: float | None = None):
    """min/max of x (H(x) - log x - gamma) over integers x <= N, with radii.

    Returns (low_margin, high_margin, radius_bound) where margins are against
    the sandwich constants; used by the harmonic check.
    """
    sweep = prefix_sweep(N)
    ns = np.arange(1, N + 1, dtype=np.float64)
    g = gamma_f if gamma_f is not None else float(gamma_const(60))
    d = ns * (sweep.H - np.log(ns) - g)
    rad = ns * (sweep.H_rad + _EPS * (np.abs(np.log(ns)) + g + 2 * np.abs(d) / np.maximum(ns, 1)))
    return d, rad
