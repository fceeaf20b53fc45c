"""Sieve of Eratosthenes over fixed-width ranges of [2, N].

:func:`ranges` cuts [2, N] into consecutive ranges of ``RANGE_WIDTH``
integers, the last one possibly shorter, and every prime walk goes through
them in order.  N must be below 2^63, as the sieve's arrays, the prime
lanes and the norms of the scans are int64: a larger bound is refused
before any range is cut.  :func:`prime_range` sieves one range in a single
pass: it stores odd numbers only, as a numpy bool array where slot i stands
for the i-th odd number of the range, and takes its base primes up to
sqrt(hi) from one small dense sieve.  Memory is therefore
``RANGE_WIDTH / 2`` bytes plus O(sqrt(N)) for the bases, whatever N is.

Ranges are also the unit of parallelism: a scan worker needs nothing from
its parent but a range's bounds.  A range comes back as one int64 array,
the form the prime-lane kernels of :mod:`~arithplane.modpoly` take;
:func:`stream_primes` yields Python ints one at a time for the per-prime
walks.

:func:`is_prime` is the one primality test, for a single n of any size: the
Baillie-PSW test, exact below 3.18e23 and passed by no known composite.  It
guards every prime the user names (bounded by ``MAX_CHARACTERISTIC``) and
the factorizations of ``lattice``.  :func:`iroot` is the one integer k-th
root, exact at any size, for perfect powers and the scans' norm bounds.
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


def _bound(n: int) -> int:
    """n, if 2 <= n < 2^63; a ValueError otherwise."""
    if n < 2:
        raise ValueError("upper bound must be at least 2")
    if n >= 2**63:
        raise ValueError("upper bound must be below 2^63")
    return n


def ranges(n: int):
    """The consecutive ranges (lo, hi) of ``RANGE_WIDTH`` integers covering
    [2, n], lazily and in order; the last one may be shorter."""
    n, width = _bound(n), RANGE_WIDTH
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
        self.n = _bound(n)

    def __iter__(self):
        for lo, hi in ranges(self.n):
            yield from prime_range(lo, hi).tolist()


def stream_primes(n: int) -> PrimeStream:
    """Primes up to n, ascending."""
    return PrimeStream(n)


# primes the commands take one at a time lie in [2, MAX_CHARACTERISTIC)
MAX_CHARACTERISTIC = 2**64

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the smallest strong pseudoprime to all of _MR_BASES (Sorenson-Webster 2017)
_MR_EXACT_BELOW = 318665857834031151167461


def is_prime(n: int) -> bool:
    """Miller-Rabin to ``_MR_BASES``, exact below 3.18e23 (covers 64 bits);
    above that a strong Lucas test follows, which makes it the Baillie-PSW
    test, passed by no known composite."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_EXACT_BELOW or _strong_lucas(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _strong_lucas(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 37 (Baillie-Wagstaff 1980).

    Selfridge's method A: D is the first of 5, -7, 9, -11, ... with Jacobi
    symbol (D/n) = -1, P = 1 and Q = (1 - D)/4.  With n + 1 = d 2^s, n
    passes when U_d = 0 or V_(d 2^r) = 0 mod n for some 0 <= r < s.
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no such D exists for a square
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # gcd(|D|, n) is a proper factor, as |D| < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1

    # (U_k, V_k, Q^k) from k = 1 along the bits of d: U_2k = U_k V_k,
    # V_2k = V_k^2 - 2 Q^k, U_k+1 = (U_k + V_k)/2, V_k+1 = (D U_k + V_k)/2
    half = (n + 1) // 2
    u, v, qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        u, v, qk = u * v % n, (v * v - 2 * qk) % n, qk * qk % n
        if bit == "1":
            u, v, qk = (u + v) * half % n, (D * u + v) * half % n, qk * Q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        v, qk = (v * v - 2 * qk) % n, qk * qk % n
        if v == 0:
            return True
    return False


def iroot(n: int, k: int) -> int:
    """The largest r with r^k <= n, for n >= 0 and k >= 1, by Newton's method
    on integers from above: each step falls while r^k > n, and stops at the
    first r it cannot lower."""
    if n < 2:
        return n
    r = 1 << -(-n.bit_length() // k)  # above the k-th root
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r
