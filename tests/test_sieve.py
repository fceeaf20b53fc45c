"""Sieve correctness against trial division, plus memory accounting."""

import random

import pytest

from arithplane.sieve import DEFAULT_SEGMENT, partition_ranges, prime_range, stream_primes


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


def test_matches_trial_division_to_1e5():
    want = trial_division_primes(10**5)
    assert list(stream_primes(10**5)) == want
    # tiny segments force many boundary crossings
    assert list(stream_primes(10**5, segment=64)) == want


def test_pi_of_1e6():
    assert sum(1 for _ in stream_primes(10**6)) == 78498


def test_prime_range_windows():
    full = trial_division_primes(3000)
    rng = random.Random(21)
    for _ in range(25):
        lo = rng.randint(2, 2900)
        hi = rng.randint(lo, 3000)
        want = [p for p in full if lo <= p <= hi]
        assert list(prime_range(lo, hi, segment=32)) == want


def test_prime_range_single_prime_window():
    assert list(prime_range(97, 97)) == [97]
    assert list(prime_range(98, 100)) == []
    assert list(prime_range(2, 2)) == [2]


def test_partition_ranges_cover_disjoint():
    for n, workers in [(100, 1), (100, 4), (101, 7), (10, 30), (2, 3)]:
        ranges = partition_ranges(n, workers)
        assert len(ranges) <= workers
        assert ranges[0][0] == 2 and ranges[-1][1] == n
        for (a, b), (c, d) in zip(ranges, ranges[1:]):
            assert a <= b and c == b + 1 and c <= d


def test_partition_matches_example():
    assert partition_ranges(100, 1) == [(2, 100)]
    assert len(partition_ranges(100, 4)) == 4


def test_union_over_partitions_equals_full_stream():
    n = 10**5
    merged = []
    for lo, hi in partition_ranges(n, 4):
        merged.extend(prime_range(lo, hi))
    assert merged == list(stream_primes(n))


def test_segment_buffer_independent_of_n():
    seg = 4096
    a = stream_primes(10**5, segment=seg)
    b = stream_primes(10**6, segment=seg)
    assert a.segment_buffer_bytes == b.segment_buffer_bytes == seg
    # total peak = fixed segment + O(sqrt(N)) base table
    assert b.peak_buffer_bytes <= seg + 32 * (10**3)


def test_default_segment():
    assert stream_primes(100).segment == DEFAULT_SEGMENT


def test_bad_arguments():
    with pytest.raises(ValueError):
        stream_primes(1)
    with pytest.raises(ValueError):
        partition_ranges(100, 0)
    with pytest.raises(ValueError):
        prime_range(2, 100, segment=4)
