"""Sieve of Eratosthenes over fixed-width ranges of [2, N].

:func:`ranges` cuts [2, N] into consecutive ranges of ``RANGE_WIDTH``
integers, the last one possibly shorter, and every prime walk goes through
them in order.  :func:`prime_range` sieves one range in a single pass: it
stores odd numbers only, as a numpy bool array where slot i stands for the
i-th odd number of the range, and takes its base primes up to sqrt(hi) from
one small dense sieve.  Memory is therefore ``RANGE_WIDTH / 2`` bytes plus
O(sqrt(N)) for the bases, whatever N is.

Ranges are also the unit of parallelism: a scan worker needs nothing from
its parent but a range's bounds.  A range comes back as one int64 array,
the form the prime-lane kernels of :mod:`~arithplane.modpoly` take;
:func:`stream_primes` yields Python ints one at a time for the per-prime
walks.
"""

from __future__ import annotations

import math

import numpy as np

RANGE_WIDTH = 1 << 18


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


def ranges(n: int):
    """The consecutive ranges (lo, hi) of ``RANGE_WIDTH`` integers covering
    [2, n], lazily and in order; the last one may be shorter."""
    if n < 2:
        raise ValueError("upper bound must be at least 2")
    width = RANGE_WIDTH
    return ((lo, min(lo + width - 1, n)) for lo in range(2, n + 1, width))


def prime_range(lo: int, hi: int) -> np.ndarray:
    """Primes in the inclusive interval [lo, hi], ascending, as one int64 array."""
    lo = max(lo, 2)
    first = lo | 1  # first odd candidate, at least 3
    mask = np.ones(max(0, (hi - first) // 2 + 1), dtype=bool)
    for p in _dense_sieve(math.isqrt(hi))[1:].tolist():
        start = max(p * p, -(-first // p) * p)
        if start % 2 == 0:
            start += p
        mask[(start - first) // 2 :: p] = False
    primes = first + 2 * np.flatnonzero(mask)
    return np.concatenate(([2], primes)) if lo == 2 <= hi else primes


class PrimeStream:
    """The primes up to n, ascending, sieved range by range; every
    ``iter()`` walks them again from 2."""

    def __init__(self, n: int):
        if n < 2:
            raise ValueError("upper bound must be at least 2")
        self.n = n

    def __iter__(self):
        for lo, hi in ranges(self.n):
            yield from prime_range(lo, hi).tolist()


def stream_primes(n: int) -> PrimeStream:
    """Primes up to n, ascending."""
    return PrimeStream(n)
