"""Summatory functions of mu(n) and the harmonic series, with error radii.

Fast path: float64 numpy sweeps with chunked compensated prefix sums.  Each
prefix array carries per-element rounding radii: within a chunk the error is
bounded by (chunk length) * eps * (sum of |terms| in the chunk), and chunk
offsets are chained exactly (an integer sum of the chunk sums, correctly
rounded once per chunk, the bits of math.fsum).  Every float64
prefix column is streamed by `prefix_columns` from the one table `TERMS`.

mp path: the same sums from the fixed-point Dirichlet-sum engine (`dsum`),
exact in W = precision + 64 bits with a counted radius, combined with log x
and M/x through ApproxValue arithmetic; used by the exact identity checks at
modest x.

M(x) is always exact (int64 cumulative sums of mu).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

import mpmath
import numpy as np
from mpmath import mpf

from .approx import PRECISION, ApproxValue, RIGOROUS, eps_for, radd
from .constants import GAMMA_F
from .errors import DomainError
from .dsum import DirichletTable
from .sieve import DEFAULT_SEGMENT, iter_segments

_EPS = 2.0**-52  # one-op float64 bound (2 ulp at 0.5-scale, deliberately lax)
_CHUNK = 4096
# prefix_columns computes its columns in slices of this many values (a multiple
# of _CHUNK, which keeps the sums bit for bit), never a whole sieve segment
_SWEEP_SEGMENT = 4 * _CHUNK
MP_MODE_LIMIT = 400_000
_TINY = 1 << 1074  # every finite float64 is an integer multiple of 1 / _TINY


@dataclass
class CumsumState:
    """compensated_cumsum's chunk state, carried from one call to the next."""

    exact: int = 0           # the sum of the chunk sums, exactly, in units of 2^-1074
    offset: float = 0.0      # exact / 2^1074 correctly rounded: math.fsum of the chunk sums
    abs_carry: float = 0.0   # running sum of |chunk sums|, for offset-error tracking
    abs_prefix: float = 0.0  # running sum of |terms|, for term-evaluation error


def compensated_cumsum(terms: np.ndarray, term_ulps: float = 1.0, chunk: int = _CHUNK,
                       state: CumsumState | None = None, out: tuple | None = None
                       ) -> tuple[np.ndarray, np.ndarray]:
    """Prefix sums of `terms` plus per-element rounding radii, written to
    `out` = (sums, radii) when given.

    The radii cover the summation error of this routine, except the in-chunk
    rounding of earlier chunks (ROADMAP item 8), and up to `term_ulps` ulp of
    evaluation error in each input term.  With `state` the sums continue from
    earlier calls, bit for bit when every call's length is a multiple of `chunk`.
    """
    st = CumsumState() if state is None else state
    n = len(terms)
    sums, radii = (np.empty(n), np.empty(n)) if out is None else out
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = terms[start:stop]
        local = np.cumsum(block, out=sums[start:stop])
        chunk_sum = float(local[-1])
        local += st.offset
        block_abs = float(np.sum(np.abs(block)))
        abs_prefix_end = st.abs_prefix + block_abs
        # in-chunk sequential cumsum + one add of the offset, plus offset chain
        # error and term evaluation error over everything summed so far
        bound = _EPS * ((stop - start) * block_abs
                        + 2.0 * (abs(st.offset) + block_abs)
                        + st.abs_carry
                        + term_ulps * abs_prefix_end)
        radii[start:stop] = bound
        num, den = chunk_sum.as_integer_ratio()  # den is a power of two <= 2^1074
        st.exact += num * (_TINY // den)
        st.abs_carry += abs(chunk_sum)
        st.abs_prefix = abs_prefix_end
        # int / int rounds correctly, half to even, as math.fsum does
        st.offset = st.exact / _TINY
    return sums, radii


def work_buffers(size: int):
    """buf(name, n, dtype=float64): the first n values of the buffer `name`,
    `size` long, allocated on first use and reused by every later call."""
    arrays = {}

    def buf(name, n: int, dtype=np.float64) -> np.ndarray:
        if name not in arrays:
            arrays[name] = np.empty(size, dtype)
        return arrays[name][:n]
    return buf


class PrefixSegment:
    """A slice [lo, hi] of prefix_columns, cut from the sieve segment
    `segment` = (its lo, hi, mu): mu(n) (None when no requested column reads
    it), n, log n (computed on first use) and `cols`, the requested prefix
    columns through each n."""

    def __init__(self, lo: int, hi: int, segment: tuple):
        self.lo, self.hi, self.segment = lo, hi, segment
        seg_lo, _, mu = segment
        self.mu = None if mu is None else mu[lo - seg_lo:hi - seg_lo + 1]
        self.ns = np.arange(self.lo, self.hi + 1, dtype=np.float64)
        self.cols: dict = {}

    @cached_property
    def logs(self) -> np.ndarray:
        return np.log(self.ns)


#: The summed prefix columns: name -> (term of n on a PrefixSegment, ulps of
#: its float64 evaluation error).  m = sum mu/n, sl = sum mu/n log n,
#: sl2 = sum mu/n log^2 n, H = sum 1/n, Hlog = sum log n / n.  prefix_columns
#: also yields the exact "M" = sum mu and "I0" = integral of |m| over [1, n].
TERMS = {
    "m": (lambda seg: seg.mu / seg.ns, 1),
    "sl": (lambda seg: seg.mu / seg.ns * seg.logs, 4),
    "sl2": (lambda seg: seg.mu / seg.ns * seg.logs * seg.logs, 6),
    "H": (lambda seg: 1.0 / seg.ns, 1),
    "Hlog": (lambda seg: 1.0 / seg.ns * seg.logs, 4),
}
#: the columns that do not read mu
MU_FREE = frozenset({"H", "Hlog"})


def prefix_columns(N: int, columns=(), segment_size: int = DEFAULT_SEGMENT
                   ) -> Iterator[PrefixSegment]:
    """Stream n = 1..N in slices of at most _SWEEP_SEGMENT values, cut from
    sieve segments of segment_size, carrying the requested columns: a summed
    column as (values, radii) from one compensated_cumsum call per slice, M as
    the bare int64 array.  Segments carry mu unless every requested column is
    in MU_FREE; those are not sieved, with the same boundaries.  I0 is a plain
    cumsum of |m| (m is constant on [j, j+1)); its radius, the summed m radii
    plus eps * (n - 1) * I0, bounds every partial sum of the nondecreasing I0.

    The summed columns and I0 are views of buffers that the next slice
    overwrites, so a stream allocates them once: copy what you keep.
    """
    summed = [k for k in TERMS if k in columns or (k == "m" and "I0" in columns)]
    states = {k: CumsumState() for k in summed}
    buf = work_buffers(_SWEEP_SEGMENT + 1)
    M_end, I0_end, I0_rad_end = 0, 0.0, 0.0
    if columns and MU_FREE.issuperset(columns):
        segments = ((lo, min(lo + segment_size - 1, N), None)
                    for lo in range(1, N + 1, segment_size))
    else:
        segments = ((t.lo, t.hi, t.values) for t in iter_segments(1, N, segment_size))
    for segment in segments:
        for lo in range(segment[0], segment[1] + 1, _SWEEP_SEGMENT):
            seg = PrefixSegment(lo, min(lo + _SWEEP_SEGMENT - 1, segment[1]), segment)
            n = seg.hi - lo + 1
            for k in summed:
                term, ulps = TERMS[k]
                seg.cols[k] = compensated_cumsum(term(seg), ulps, state=states[k],
                                                 out=(buf(k, n), buf((k, "radii"), n)))
            if "M" in columns:
                seg.cols["M"] = M = np.cumsum(seg.mu, dtype=np.int64) + M_end
                M_end = int(M[-1])
            if "I0" in columns:
                # I0 at n sums |m(j)| for j < n, each cumsum starting from the carry
                (m, m_rad), I0, rad = seg.cols["m"], buf("I0", n + 1), buf("I0 radii", n + 1)
                I0[0], rad[0], rad[1:] = I0_end, I0_rad_end, m_rad
                np.abs(m, out=I0[1:])
                np.cumsum(I0, out=I0)
                np.cumsum(rad, out=rad)
                I0_end, I0_rad_end = I0[-1], rad[-1]
                seg.cols["I0"] = (I0[:-1], rad[:-1] + _EPS * (seg.ns - 1.0) * I0[:-1])
            yield seg


def _segment_sum(values: np.ndarray, ulps: float) -> tuple[float, float]:
    """Pairwise sum of a segment and a bound on its error, `ulps` ulp per value included."""
    s = float(np.sum(values))
    a = float(np.sum(np.abs(values)))
    depth = max(1.0, math.log2(max(len(values), 2)))
    return s, _EPS * (depth + 2.0) * a + ulps * _EPS * a


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
    parts = {k: [] for k in TERMS}
    errs = dict.fromkeys(TERMS, 0.0)
    # pairwise totals of whole sieve segments: only the last prefix is needed,
    # and its radius is tighter than any prefix column's
    for t in iter_segments(1, N):
        seg = PrefixSegment(t.lo, t.hi, (t.lo, t.hi, t.values))
        M += int(np.sum(seg.mu, dtype=np.int64))
        for key, (term, ulps) in TERMS.items():
            s, e = _segment_sum(term(seg), ulps)
            parts[key].append(s)
            errs[key] += e

    def total(key, extra_ulps=2.0):
        v = math.fsum(parts[key])
        r = errs[key] + extra_ulps * _EPS * abs(v)
        return v, r

    ((m_v, m_r), (mlog_v, mlog_r), (mlog2_v, mlog2_r),
     (H_v, H_r), (Hlog_v, Hlog_r)) = map(total, TERMS)

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
    table = DirichletTable(1.0, 0.0, prec, logs=True)
    m, sl, sl2 = (table.total(N, i, mu=True) for i in range(3))
    H, Hlog = (table.total(N, i) for i in range(2))
    M = sum(table.mu(N))
    with mpmath.mp.workprec(prec + 32):
        work = eps_for(prec + 32)
        logx = mpmath.log(mpf(x))
        lx = ApproxValue(logx, work * abs(float(logx)), RIGOROUS, prec)
        M_x = mpf(M) / mpf(x)
        mc = lx * m - sl
        md = lx * lx * m - 2 * lx * sl + sl2
        m1 = m - ApproxValue(M_x, work * abs(float(M_x)), RIGOROUS, prec)
        hc = lx * H - Hlog
    return SummatorySnapshot(float(x), M, m, mc, md, m1, H, hc)


def summatory(x: float, mode: str = "auto", precision: int = PRECISION) -> SummatorySnapshot:
    """SummatorySnapshot at x: exact M plus m, m-check, m-double-check, m1, H,
    H-check, each with a rigorous rounding radius.

    mode "mp" sums in the fixed-point engine (`dsum`) at `precision` plus
    guard bits, with the engine's counted radius (x capped at MP_MODE_LIMIT);
    "fast" uses compensated float64; "auto" picks mp for small x.
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

    m, Smlog = sum mu/n log n, Smlog2 = sum mu/n log^2 n and H carry
    per-element radii; M and the |M|-integral are exact int64; I0 and I1 are
    the exact-piecewise integrals of |m| and |m| t with rounding radii.
    Index convention: entry [n-1] holds the prefix through n.
    """

    def __init__(self, N: int):
        if N < 1:
            raise DomainError("N >= 1 required")
        self.N = N
        self.M = np.empty(N, dtype=np.int64)
        fill = {col: (np.empty(N), np.empty(N)) for col in ("m", "sl", "sl2", "H", "I0")}
        for seg in prefix_columns(N, (*fill, "M")):
            sl = slice(seg.lo - 1, seg.hi)
            self.M[sl] = seg.cols["M"]
            for col, (values, radii) in fill.items():
                values[sl], radii[sl] = seg.cols[col]
        self.m, self.m_rad = fill["m"]
        self.Smlog, self.Smlog_rad = fill["sl"]
        self.Smlog2, self.Smlog2_rad = fill["sl2"]
        self.H, self.H_rad = fill["H"]
        self.I0, self.I0_rad = fill["I0"]
        ns = np.arange(1, N, dtype=np.float64)
        abs_m = np.abs(self.m[:-1])
        w = ns + 0.5  # integral of t over [j, j+1]
        self.I1 = np.concatenate(([0.0], np.cumsum(abs_m * w)))
        i1_rad = np.cumsum(self.m_rad[:-1] * w)
        self.I1_rad = np.concatenate(([0.0], i1_rad + _EPS * ns * np.maximum.accumulate(np.abs(self.I1[1:]))))
        self.IabsM = np.concatenate(([0], np.cumsum(np.abs(self.M[:-1]))))  # exact

    # point lookups at real x in [1, N + 1) ---------------------------------

    def _index(self, x: float) -> int:
        n = math.floor(x)
        if n < 1:
            raise DomainError(f"x must be >= 1, got {x}")
        if n > self.N:
            raise DomainError(f"sweep covers N={self.N} < floor(x)")
        return n

    def m_at(self, x: float) -> ApproxValue:
        n = self._index(x)
        return ApproxValue(self.m[n - 1], radd(self.m_rad[n - 1]), RIGOROUS, 53)

    def mcheck_at(self, x: float) -> ApproxValue:
        n = self._index(x)
        logx = math.log(x)
        v = logx * self.m[n - 1] - self.Smlog[n - 1]
        r = (abs(logx) * self.m_rad[n - 1] + self.Smlog_rad[n - 1]
             + _EPS * (abs(logx * self.m[n - 1]) * 2 + 2 * abs(v)))
        return ApproxValue(v, radd(r), RIGOROUS, 53)

    def I0_at(self, x: float) -> ApproxValue:
        n = self._index(x)
        v = self.I0[n - 1] + abs(self.m[n - 1]) * (x - n)
        r = self.I0_rad[n - 1] + self.m_rad[n - 1] * (x - n) + _EPS * 4 * abs(v)
        return ApproxValue(v, radd(r), RIGOROUS, 53)

    def I1_at(self, x: float) -> ApproxValue:
        n = self._index(x)
        v = self.I1[n - 1] + abs(self.m[n - 1]) * (x * x - n * n) / 2.0
        r = self.I1_rad[n - 1] + self.m_rad[n - 1] * (x * x - n * n) / 2.0 + _EPS * 4 * abs(v)
        return ApproxValue(v, radd(r), RIGOROUS, 53)

    def int_m_at(self, x: float) -> ApproxValue:
        """Exact-piecewise integral of m (signed) over [1, x]."""
        n = self._index(x)
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
    if sweep is None:
        sweep = prefix_sweep(max(math.floor(x), 1))
    return sweep.I0_at(x), sweep.I1_at(x)


def harmonic_gamma_margins(N: int):
    """(d, rad): d[n-1] = n (H(n) - log n - gamma) for the integers n <= N and
    its radius, for the harmonic check's margins against the sandwich
    constants.  Streams the H column alone, so it never sieves.
    """
    H, H_rad = np.empty(N), np.empty(N)
    for seg in prefix_columns(N, ("H",)):
        H[seg.lo - 1:seg.hi], H_rad[seg.lo - 1:seg.hi] = seg.cols["H"]
    ns = np.arange(1, N + 1, dtype=np.float64)
    d = ns * (H - np.log(ns) - GAMMA_F)
    rad = ns * (H_rad + _EPS * (np.abs(np.log(ns)) + GAMMA_F + 2 * np.abs(d) / np.maximum(ns, 1)))
    return d, rad
