"""Segmented Moebius sieving.

mu(n) over a window [lo, hi] is produced segment by segment: multiples of p^2
are zeroed, and each multiple of p flips the sign and multiplies p into a
running product of its distinct small primes.  A squarefree n whose product
stays below n has one more prime factor > sqrt(hi), one more sign flip.  The
product divides n, so it is int32 while hi < 2^31 (int64 beyond).  Everything
is plain numpy on int8 and integer arrays; a full segment of 2^20 values costs
a few milliseconds.

Tables are immutable after construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import isqrt
from typing import Iterator

import numpy as np

from .errors import CapacityError, DomainError

DEFAULT_SEGMENT = 1 << 20
#: refuse to materialize tables larger than this many values (int8 + temporaries)
MAX_TABLE_VALUES = 1 << 28


@lru_cache(maxsize=8)
def base_primes(limit: int) -> np.ndarray:
    """All primes <= limit, via a plain boolean Eratosthenes sieve."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p:: p] = False
    return np.nonzero(flags)[0].astype(np.int64)


@dataclass(frozen=True)
class MobiusTable:
    """Contiguous block of mu(n) for n in [lo, hi], values in {-1, 0, +1}."""

    lo: int
    hi: int
    values: np.ndarray  # int8, length hi - lo + 1

    def __post_init__(self):
        if not (1 <= self.lo <= self.hi):
            raise DomainError(f"need 1 <= lo <= hi, got [{self.lo}, {self.hi}]")
        if len(self.values) != self.hi - self.lo + 1:
            raise ValueError("values length does not match [lo, hi]")

    def mu(self, n: int) -> int:
        if not (self.lo <= n <= self.hi):
            raise DomainError(f"n={n} outside table range [{self.lo}, {self.hi}]")
        return int(self.values[n - self.lo])

    def __len__(self) -> int:
        return self.hi - self.lo + 1


def _sieve_segment(lo: int, hi: int, primes: np.ndarray) -> np.ndarray:
    n = hi - lo + 1
    dtype = np.int32 if hi < 2**31 else np.int64
    mob = np.ones(n, dtype=np.int8)
    prod = np.ones(n, dtype=dtype)
    for p in primes:
        p = int(p)
        if p * p > hi:
            break
        start = ((lo + p - 1) // p) * p
        sl = slice(start - lo, None, p)
        mob[sl] = -mob[sl]
        prod[sl] *= p
        p2 = p * p
        start2 = ((lo + p2 - 1) // p2) * p2
        if start2 <= hi:
            mob[start2 - lo:: p2] = 0
    # a product below n leaves one extra prime factor > sqrt(hi)
    np.negative(mob, where=prod < np.arange(lo, hi + 1, dtype=dtype), out=mob)
    return mob


def sieve_range(lo: int, hi: int) -> MobiusTable:
    """Exact mu(n) for all n in [lo, hi], one table filled from iter_segments."""
    if not (1 <= lo <= hi):
        raise DomainError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    if hi - lo + 1 > MAX_TABLE_VALUES:
        raise CapacityError(
            f"table of {hi - lo + 1} values exceeds the {MAX_TABLE_VALUES} budget; "
            "use iter_segments for streaming sweeps")
    out = np.empty(hi - lo + 1, dtype=np.int8)
    for seg in iter_segments(lo, hi):
        out[seg.lo - lo: seg.hi - lo + 1] = seg.values
    return MobiusTable(lo, hi, out)


def iter_segments(lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT) -> Iterator[MobiusTable]:
    """Stream [lo, hi] as immutable tables of at most segment_size values.

    Segments are independent (safe to produce in parallel); this generator
    yields them in increasing order for prefix-dependent accumulation.
    """
    if not (1 <= lo <= hi):
        raise DomainError(f"need 1 <= lo <= hi, got [{lo}, {hi}]")
    primes = base_primes(isqrt(hi))
    for seg_lo in range(lo, hi + 1, segment_size):
        seg_hi = min(seg_lo + segment_size - 1, hi)
        yield MobiusTable(seg_lo, seg_hi, _sieve_segment(seg_lo, seg_hi, primes))


def nonzero_mu(N: int) -> Iterator[tuple[int, int]]:
    """(n, mu(n)) as Python ints for every n <= N with mu(n) != 0, in
    increasing n: the exact reader of mu for the mpmath code paths."""
    if N < 1:
        return iter(())
    values = sieve_range(1, N).values
    idx = np.flatnonzero(values)
    return zip((idx + 1).tolist(), values[idx].tolist())
