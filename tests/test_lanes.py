"""The prime-lane kernels of ``modpoly`` against the scalar kernels they batch.

Every lane of ``_LaneRing.xpow`` (on the ``lanes`` of a prime array),
``lane_root_count`` and ``lane_factor_degrees`` must equal ``xpow_mod``,
``root_count`` and ``finitefield.degree_pattern`` at that lane's prime, and
``lane_frobenius_classes`` must find the class whose product of
den*x^p - num vanishes mod (p, f) on the scalar kernels, on int64 lanes and
on the dtype=object lanes that take over above ``LANE_INT64_MAX``, or above
a ring's own bound (2n - 1)(p - 1)^2 < 2^63 at degree n.  The prime arrays
mix bit lengths, so lanes with leading zero bits run beside full ones.  The
root counts that need no ring, of quadratics and binomials x^n - a, are
checked against their oracles at every prime below 2^16 as well.
"""

import functools
import math
import pathlib

import numpy as np
import pytest

from arithplane import modpoly as mp
from arithplane.density import class_table
from arithplane.finitefield import degree_pattern
from arithplane.intpoly import RatPoly, reduce_mod_p
from arithplane.lattice import load_lattice
from arithplane.sieve import _jacobi, is_prime


def _primes(start, step, count):
    out, q = [], start
    while len(out) < count:
        if is_prime(q):
            out.append(q)
        q += step
    return out


def _ring_edge(n):
    """The largest prime p with (2n - 1)(p - 1)^2 < 2^63, the last at which a
    degree-n ring keeps int64 lanes, and the next prime after it."""
    top = 1 + math.isqrt((2**63 - 1) // (2 * n - 1))
    return _primes(top, -1, 1)[0], _primes(top + 1, 1, 1)[0]


BELOW = _primes(mp.LANE_INT64_MAX, -1, 2)  # the largest int64-lane primes
ABOVE = _primes(mp.LANE_INT64_MAX + 1, 1, 2)  # the smallest object-lane ones
M61 = 2**61 - 1
RING_EDGES = [p for n in (3, 6, 8) for p in _ring_edge(n)]
INT64_POOL = [2, 3, 5, 7, 11, 13, 101, 7919, 65537, 2**31 - 1, 2147483659, *BELOW,
              *RING_EDGES]
OBJECT_POOL = [*INT64_POOL, *ABOVE, M61]


def _squarefree(f, p):
    return mp.deg(mp.gcd_p(f, mp.derivative(f, p), p)) == 0


def _pattern(col):
    return tuple(d for d, k in enumerate(col.tolist(), 1) for _ in range(k))


def xpow(f, primes):
    """x^p mod f in every lane of the prime array, as (n, L) coefficients."""
    return mp._LaneRing(f, mp.lanes(primes)).xpow()


def check_lanes(f, primes):
    P = np.array(primes, dtype=np.int64)
    xs, roots = xpow(f, P), mp.lane_root_count(f, P)
    for j, p in enumerate(primes):
        fp = mp.trim([c % p for c in f])
        assert mp.trim([int(c) for c in xs[:, j]]) == mp.xpow_mod(p, fp, p), (f, p)
        assert roots[j] == mp.root_count(fp, p), (f, p)
    ok = [p for p in primes if _squarefree(mp.trim([c % p for c in f]), p)]
    degrees = mp.lane_factor_degrees(f, np.array(ok, dtype=np.int64))
    for j, p in enumerate(ok):
        want = degree_pattern(mp.trim([c % p for c in f]), p)
        assert _pattern(degrees[:, j]) == want, (f, p)


def test_lane_dtype_switches_at_the_int64_bound():
    assert BELOW[0] <= mp.LANE_INT64_MAX < ABOVE[0]
    assert mp.LANE_INT64_MAX**2 + mp.LANE_INT64_MAX < 2**63
    assert (mp.LANE_INT64_MAX + 1) ** 2 + mp.LANE_INT64_MAX + 1 >= 2**63
    assert mp.lanes(np.array(INT64_POOL)).dtype == np.int64
    assert mp.lanes(np.array(OBJECT_POOL)).dtype == object


@pytest.mark.parametrize("f", [
    [5, 1],
    [1, 1, 1],  # x^2 + x + 1: irreducible at p = 2, a double root at p = 3
    [-2, 0, 0, 1],
    [1, 0, 0, 0, 1],
    [3, 0, 1, -5, 1],  # a quartic with factors of degree 1 and 3 mod some p
    [9, 9, 0, 3, 6, 3, 1],
    [-1, 1, 0, 0, 0, 0, 1],
    [1, -3, 0, 7, 0, 0, 0, 1],
    [1, 0, -2, 0, 0, 0, 0, 0, 1],
    [-(2**80) - 1, 3, 1],  # a coefficient beyond int64: reduced 31 bits at a time
])
@pytest.mark.parametrize("pool", ["int64", "object"])
def test_lanes_match_scalar_kernels(f, pool):
    check_lanes(f, INT64_POOL if pool == "int64" else OBJECT_POOL)


def test_x2_x_1_at_two():
    two = np.array([2], dtype=np.int64)
    assert mp.lane_root_count([1, 1, 1], two).tolist() == [0]
    assert _pattern(mp.lane_factor_degrees([1, 1, 1], two)[:, 0]) == (2,)
    assert xpow([1, 1, 1], two)[:, 0].tolist() == [1, 1]  # x^2 = x + 1


SMALL = [p for p in range(2, 2**16) if is_prime(p) and p not in INT64_POOL]
NEAR_2_62 = [*_primes(2**62, -1, 2), *_primes(2**62 + 1, 1, 2)]
QUADRATICS = [
    [1, 2, 1], [0, 0, 1], [2**80, 2**41, 1],  # D = 0: (x + 1)^2, x^2, (x + 2^40)^2
    [1, 1, 1], [-1, 1, 1], [-3, 3, 1],  # D = -3, 5, 21
    [1, 0, 1], [-2, 0, 1], [-3, 2, 1],  # D = -4, 8, 16
    [15015, 0, 1],  # D = -4 * 3 * 5 * 7 * 11 * 13
    [-(2**31 - 1) * 65537, 0, 1],  # 4|D| past every int64 lane, not 2^62; pool primes | D
    [-(2**20) - 3, 1, 1],  # 4|D| between 2^16 and the largest int64 lanes
    [-(2**62), 1, 1], [105 * 2**61, 0, 1], [0, M61, 1],  # |D| >= 2^62
    [-(2**80) - 1, 3, 1],
]


def test_quadratic_root_counts_by_residue_class():
    # every prime below 2^16, the pools and primes near 2^62 take their count
    # from one Euler test per class of p mod 4|D|: large primes share classes
    # with small ones, and the oracles are the scalar root count (on a
    # sample) and 1 + (D/p) at every odd p, which is 1 where p divides D
    discs = [f[1] ** 2 - 4 * f[0] for f in QUADRATICS]
    assert {0, -3, 5, -4, 8} <= set(discs) and min(discs) < -(2**62) < 2**62 < max(discs)
    int64_primes = sorted({*SMALL, *INT64_POOL})
    object_primes = sorted({*int64_primes, *OBJECT_POOL, *NEAR_2_62})
    divided = 0  # odd p dividing a nonzero D
    for f, D in zip(QUADRATICS, discs):
        sample = {*OBJECT_POOL, *NEAR_2_62, *SMALL[::16], *(p for p in SMALL[:64] if D % p == 0)}
        scalar = {p: mp.root_count(mp.trim([c % p for c in f]), p) for p in sample}
        for primes in (int64_primes, object_primes):
            P = np.array(primes, dtype=np.int64)
            assert mp.lanes(P).dtype == (np.int64 if primes is int64_primes else object)
            with np.errstate(all="raise"):
                roots = mp.lane_root_count(f, P)
                degrees = mp.lane_factor_degrees(f, P)
            for p, r in zip(primes, roots.tolist()):
                if p % 2:
                    assert r == 1 + _jacobi(D, p), (f, p)
                    divided += D != 0 and D % p == 0
                assert r == scalar.get(p, r), (f, p)
            squarefree = roots != 1  # a quadratic: two roots, or none and one factor
            assert (degrees[0] == roots)[squarefree].all(), f
            assert (degrees[1] == (roots == 0))[squarefree].all(), f
    assert divided >= 20


BINOMIAL_A = [-12, -2, -1, 0, 1, 2, 3, 16, 81, 2**70 + 5, -(2**63) - 7]  # the last two by limbs


def test_binomial_root_counts_by_power_residue():
    # x^n - a for n = 3..8 on every prime below 2^16 and both pools: the
    # power residue rule against the ring path it replaces, deg gcd(x^p - x, f)
    # per LANE_BLOCK block, at every lane, and against the scalar root count
    # (and, for the cubics, the scalar factor degrees) on a sample
    below_2_16 = sorted({*SMALL, *(p for p in INT64_POOL if p < 2**16)})
    assert len(below_2_16) == 6542
    sample = {*INT64_POOL, *OBJECT_POOL, *SMALL[::64]}
    for n in range(3, 9):
        for a in BINOMIAL_A:
            f = [-a, *[0] * (n - 1), 1]
            for primes in (below_2_16, INT64_POOL, OBJECT_POOL):
                P = np.array(primes, dtype=np.int64)
                with np.errstate(all="raise"):
                    roots = mp.lane_root_count(f, P)
                    degrees = mp.lane_factor_degrees(f, P) if n == 3 else None
                assert roots.dtype == np.int64
                assert roots.tolist() == mp._by_block(mp._root_count, f, P).tolist(), (n, a)
                for j, p in enumerate(primes):
                    if p not in sample:
                        continue
                    fp = mp.trim([c % p for c in f])
                    assert roots[j] == mp.root_count(fp, p), (n, a, p)
                    if degrees is not None and (3 * a) % p:  # x^3 - a squarefree mod p
                        assert _pattern(degrees[:, j]) == degree_pattern(fp, p), (a, p)


DEMO = load_lattice(
    (pathlib.Path(__file__).resolve().parent.parent / "configs" / "demo.cfg").read_text())
BIG_MAP = RatPoly.over([2**70, -5, 0, 1], 17**20)  # both sides beyond int64


def frobenius_class(f, classes, p):
    """The one class whose product of den*x^p - num vanishes mod (p, f), on
    the scalar kernels, or -1 where that is not exactly one class."""
    fp = reduce_mod_p(f, p)
    xp = mp.xpow_mod(p, fp, p)
    zero = []
    for c in classes:
        terms = [mp.sub(mp.mul(xp, [den % p], p), [a % p for a in num], p) for num, den in c]
        zero.append(not functools.reduce(lambda a, b: mp.rem_p(mp.mul(a, b, p), fp, p), terms))
    return zero.index(True) if zero.count(True) == 1 else -1


@pytest.mark.parametrize("field", ["Q8", "S3c"])  # S3c's maps have denominator 9
@pytest.mark.parametrize("pool", ["int64", "object"])
def test_frobenius_classes_match_scalar_product(field, pool):
    # the field's classes, and one more that holds BIG_MAP and the last
    # class, so that a lane of the last class finds two classes and reads -1
    f = DEMO.field(field).poly
    table = class_table(DEMO, DEMO.field(field), (DEMO.extension((field, field)),))
    assert sorted(map(len, table.maps)) == {"Q8": [1, 1, 1, 1], "S3c": [1, 2, 3]}[field]
    classes = [*table.maps, ((BIG_MAP.num, BIG_MAP.den), *table.maps[-1])]
    primes = [p for p in (INT64_POOL if pool == "int64" else OBJECT_POOL)
              if all(den % p for c in classes for _, den in c)]
    got = mp.lane_frobenius_classes(list(f.num), classes, np.array(primes, dtype=np.int64))
    assert got.tolist() == [frobenius_class(f, classes, p) for p in primes]
    assert set(got.tolist()) == {-1, *range(len(table.maps) - 1)}


@pytest.mark.parametrize("n", range(1, 17))
def test_ring_products_either_side_of_the_int64_bound(n):
    # operands of all p - 1 make every row product (p - 1)^2, the largest
    # there is, and f = x^n + ... + 1 makes the x^n row all p - 1; a lane of
    # p = 3 runs beside, so the largest prime of the array sets the dtype
    f = [1] * (n + 1)
    for p, dtype in zip(_ring_edge(n), (np.int64, object)):
        ring = mp._LaneRing(f, mp.lanes(np.array([3, p])))
        assert ring.P.dtype == dtype, (n, p)
        top = np.array([[2, p - 1]] * n, dtype=dtype)
        got = ring.mul(top, top)
        wide = mp._LaneRing(f, np.array([3, p], dtype=object))
        assert (wide.mul(top.astype(object), top.astype(object)) == got).all(), (n, p)
        for j, q in enumerate((3, p)):
            want = mp.rem_p(mp.mul([q - 1] * n, [q - 1] * n, q), f, q)
            assert mp.trim([int(c) for c in got[:, j]]) == want, (n, q)


def test_empty_prime_array():
    empty = np.empty(0, dtype=np.int64)
    assert xpow([9, 9, 0, 3, 6, 3, 1], empty).shape == (6, 0)
    assert mp.lane_root_count([1, 0, 1], empty).shape == (0,)
    assert mp.lane_factor_degrees([-2, 0, 0, 1], empty).shape == (3, 0)
    classes = [[((0, 1), 1)], [((0, 0, 0, 1), 1), ((0, -1), 1)]]
    assert mp.lane_frobenius_classes([1, 0, 0, 0, 1], classes, empty).shape == (0,)


def test_lanes_property():
    # monic f of degree 1-16 with small or beyond-int64 coefficients, and 1-8
    # distinct primes from both pools, the degree-3, 6 and 8 ring edges among them
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    coeff = st.one_of(st.integers(-50, 50), st.integers(-(2**80), 2**80))
    cases = st.tuples(st.lists(coeff, min_size=1, max_size=16).map(lambda f: f + [1]),
                      st.lists(st.sampled_from(OBJECT_POOL), min_size=1, max_size=8,
                               unique=True))

    @hyp.settings(max_examples=120, deadline=None, derandomize=True)
    @hyp.given(cases)
    @hyp.example(([1, 1, 1], [2, 3, 7, 13]))
    @hyp.example(([-2, 0, 0, 1], [2, 3, 5, 31, 2**31 - 1, *BELOW, *ABOVE, M61]))
    @hyp.example(([3, 0, 1, -5] * 4 + [1], [2, *RING_EDGES]))
    def check(case):
        check_lanes(*case)

    check()
