"""Sieve and primality test correctness against trial division, plus the
memory ceiling."""

import math
import random

import pytest

from arithplane import sieve
from arithplane.sieve import _strong_lucas, iroot, is_prime, prime_range, ranges, stream_primes


def trial_division_primes(n):
    out = []
    for k in range(2, n + 1):
        d = 2
        while d * d <= k:
            if k % d == 0:
                break
            d += 1
        else:
            out.append(k)
    return out


def test_small_exact():
    assert list(stream_primes(10)) == [2, 3, 5, 7]
    assert list(stream_primes(2)) == [2]
    assert list(stream_primes(3)) == [2, 3]


def test_matches_trial_division_to_1e5(monkeypatch):
    want = trial_division_primes(10**5)
    stream = stream_primes(10**5)
    assert list(stream) == want
    assert list(stream) == want  # a stream walks again from 2
    # tiny ranges force many boundary crossings
    monkeypatch.setattr(sieve, "RANGE_WIDTH", 64)
    assert list(stream_primes(10**5)) == want


def test_pi_of_1e6():
    assert sum(1 for _ in stream_primes(10**6)) == 78498


def test_prime_range_windows():
    full = trial_division_primes(3000)
    rng = random.Random(21)
    for _ in range(25):
        lo = rng.randint(2, 2900)
        hi = rng.randint(lo, 3000)
        want = [p for p in full if lo <= p <= hi]
        assert list(prime_range(lo, hi)) == want


def test_prime_range_single_prime_window():
    assert list(prime_range(97, 97)) == [97]
    assert list(prime_range(98, 100)) == []
    assert list(prime_range(2, 2)) == [2]


def test_ranges_cover_disjoint(monkeypatch):
    monkeypatch.setattr(sieve, "RANGE_WIDTH", 7)
    for n in [2, 8, 9, 10, 100, 101]:
        spans = list(ranges(n))
        assert spans[0][0] == 2 and spans[-1][1] == n
        assert all(hi - lo + 1 == 7 for lo, hi in spans[:-1])
        assert 1 <= spans[-1][1] - spans[-1][0] + 1 <= 7
        for (a, b), (c, d) in zip(spans, spans[1:]):
            assert a <= b and c == b + 1 and c <= d


def test_partition_matches_example():
    assert list(ranges(100)) == [(2, 100)]
    w = sieve.RANGE_WIDTH
    assert list(ranges(3 * w)) == [(2, w + 1), (w + 2, 2 * w + 1), (2 * w + 2, 3 * w)]


def test_union_over_partitions_equals_full_stream(monkeypatch):
    n = 10**5
    monkeypatch.setattr(sieve, "RANGE_WIDTH", 30011)
    merged = []
    for lo, hi in ranges(n):
        merged.extend(prime_range(lo, hi))
    assert merged == list(stream_primes(n))


def test_stream_sieves_at_most_one_range_at_a_time(monkeypatch):
    # the odd-slot buffer of prime_range is the only one that grows with the
    # interval, so bounding every interval the stream asks for bounds its memory
    widths = []
    real = sieve.prime_range

    def spy(lo, hi):
        widths.append(hi - lo + 1)
        return real(lo, hi)

    monkeypatch.setattr(sieve, "prime_range", spy)
    assert sum(1 for _ in stream_primes(10**6)) == 78498
    assert len(widths) == -(-(10**6 - 1) // sieve.RANGE_WIDTH)
    assert max(widths) <= sieve.RANGE_WIDTH


def test_bad_arguments():
    with pytest.raises(ValueError):
        stream_primes(1)
    with pytest.raises(ValueError):
        ranges(1)


def test_bounds_stop_below_2_to_the_63():
    # the sieve's arrays, the prime lanes and the scans' norms are int64;
    # no range is sieved here, as the base primes of one near 2^63 run to 3e9
    assert next(ranges(2**63 - 1)) == (2, sieve.RANGE_WIDTH + 1)
    for make in (ranges, stream_primes):
        with pytest.raises(ValueError, match=r"below 2\^63"):
            make(2**63)
        with pytest.raises(ValueError, match=r"below 2\^63"):
            make(10**400)


# ------------------------------------------------------------- primality


def _trial_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_small():
    assert [n for n in range(2000) if is_prime(n)] == [n for n in range(2000) if _trial_prime(n)]


def test_strong_lucas_against_trial_division():
    # every prime passes; the composites that pass are exactly the strong
    # Lucas pseudoprimes of Selfridge's method A (OEIS A217255)
    odd = range(39, 20000, 2)
    assert all(_strong_lucas(n) for n in odd if _trial_prime(n))
    assert [n for n in odd if _strong_lucas(n) and not _trial_prime(n)] == [
        5459, 5777, 10877, 16109, 18971,
    ]


def test_is_prime_above_miller_rabin_bound():
    # the smallest strong pseudoprimes to the first 12 and 13 prime bases
    # (Sorenson-Webster 2017): both pass every Miller-Rabin round
    assert not is_prime(318665857834031151167461)
    assert not is_prime(3317044064679887385961981)
    assert is_prime(2**89 - 1) and is_prime(2**127 - 1)
    assert not is_prime((2**61 - 1) * (2**89 - 1))
    assert not is_prime((2**89 - 1) ** 2)  # a square has no Selfridge D


def test_iroot_small_exhaustive():
    for k in range(1, 9):
        r = 0
        for n in range(5000):
            while (r + 1) ** k <= n:
                r += 1
            assert iroot(n, k) == r, (n, k)


def test_iroot_huge():
    for n in (10**400 - 1, 10**400, 10**400 + 1, 3**839, 3**839 - 1, 7**473 + 5):
        for k in range(1, 17):
            r = iroot(n, k)
            assert r**k <= n < (r + 1) ** k, (n, k)
    assert iroot(10**400, 2) == 10**200 and iroot(10**400 - 1, 2) == 10**200 - 1
    assert iroot(10**400, 16) == 10**25 and iroot(10**400 - 1, 16) == 10**25 - 1
