"""Segmented sieve of Eratosthenes streaming primes with bounded memory.

Only odd numbers are stored: a segment is a numpy bool array of
``segment`` entries where slot i stands for ``low + 2*i``.  Base primes up
to sqrt(N) come from one small dense sieve, so peak memory is the fixed
segment buffer plus O(sqrt(N)) for the bases; :class:`PrimeStream` accounts
both so tests can pin the ceiling.

Ranges are the unit of parallelism: :func:`partition_ranges` splits [2, N]
into disjoint intervals and :func:`prime_range` sieves one of them on its
own, so a scan worker needs nothing from its parent but the bounds.  A range
comes back as one int64 array, the form the prime-lane kernels of
:mod:`~arithplane.modpoly` take; :func:`stream_primes` yields Python ints
one at a time for the per-prime walks.
"""

from __future__ import annotations

import math

import numpy as np

DEFAULT_SEGMENT = 1 << 20


def _dense_sieve(limit: int) -> np.ndarray:
    """All primes <= limit by a plain dense sieve (used for base primes)."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


class PrimeStream:
    """Iterator over the primes in [lo, hi], ascending, each exactly once."""

    def __init__(self, lo: int, hi: int, segment: int = DEFAULT_SEGMENT):
        if hi < 2:
            raise ValueError("upper bound must be at least 2")
        if segment < 8:
            raise ValueError("segment must hold at least 8 entries")
        self.lo = max(lo, 2)
        self.hi = hi
        self.segment = segment
        base = _dense_sieve(math.isqrt(hi))
        self._base = base[base > 2]
        self._base_sq = self._base * self._base
        self.base_buffer_bytes = int(self._base.nbytes + self._base_sq.nbytes)
        self.segment_buffer_bytes = segment * np.dtype(bool).itemsize

    @property
    def peak_buffer_bytes(self) -> int:
        return self.base_buffer_bytes + self.segment_buffer_bytes

    def __iter__(self):
        for chunk in self.segments():
            yield from chunk.tolist()

    def segments(self):
        """The primes of each segment in turn, as int64 arrays."""
        lo, hi, seg = self.lo, self.hi, self.segment
        if lo <= 2 <= hi:
            yield np.array([2], dtype=np.int64)
        low = lo if lo % 2 else lo + 1  # first odd candidate
        if low < 3:
            low = 3
        base = self._base
        base_sq = self._base_sq
        mask = np.empty(seg, dtype=bool)
        while low <= hi:
            high = min(low + 2 * (seg - 1), hi)  # segment covers odds low..high
            count = (high - low) // 2 + 1
            view = mask[:count]
            view[:] = True
            for p, psq in zip(base, base_sq):
                if psq > high:
                    break
                start = max(psq, ((low + p - 1) // p) * p)
                if start % 2 == 0:
                    start += p
                if start > high:
                    continue
                view[(start - low) // 2 :: p] = False
            yield low + 2 * np.nonzero(view)[0]
            low = high + (1 if high % 2 == 0 else 2)


def stream_primes(n: int, segment: int = DEFAULT_SEGMENT) -> PrimeStream:
    """Primes up to n, ascending."""
    return PrimeStream(2, n, segment)


def prime_range(lo: int, hi: int, segment: int = DEFAULT_SEGMENT) -> np.ndarray:
    """Primes in the inclusive interval [lo, hi], ascending, as one int64 array."""
    segments = PrimeStream(lo, hi, segment).segments()
    return np.concatenate([np.empty(0, dtype=np.int64), *segments])


def partition_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """Split [2, n] into at most ``parts`` disjoint covering intervals."""
    if parts < 1:
        raise ValueError("parts must be >= 1")
    if n < 2:
        raise ValueError("upper bound must be at least 2")
    total = n - 1  # integers 2..n
    k = min(parts, total)
    width, extra = divmod(total, k)
    out = []
    lo = 2
    for i in range(k):
        hi = lo + width - 1 + (1 if i < extra else 0)
        out.append((lo, hi))
        lo = hi + 1
    return out
