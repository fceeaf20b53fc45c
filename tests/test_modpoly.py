"""Prime-field kernel tests, oracled by naive arithmetic and brute force."""

import random
from itertools import product

import pytest

from arithplane import modpoly as mp
from arithplane.finitefield import degree_pattern, invert_mod


def squarefree(f, p):
    df = mp.trim([(i * c) % p for i, c in enumerate(f)][1:])
    return mp.deg(mp.gcd_p(f, df, p)) == 0


def horner(a, x, p):
    """a(x) mod p by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def naive_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return mp.trim(out)


def all_monic(p, d):
    for tail in product(range(p), repeat=d):
        yield list(tail) + [1]


def brute_irreducible(f, p):
    """Oracle: trial division by every monic polynomial of degree <= n/2."""
    n = mp.deg(f)
    if n < 1:
        return False
    for d in range(1, n // 2 + 1):
        for g in all_monic(p, d):
            if not mp.rem_p(f, g, p):
                return False
    return True


def rand_poly(rng, p, max_deg=6, monic=False):
    d = rng.randint(0, max_deg)
    c = [rng.randrange(p) for _ in range(d)]
    c.append(1 if monic else rng.randrange(1, p))
    return mp.trim(c)


PRIMES = [2, 3, 5, 7, 11, 13, 97, 101]


def test_mul_matches_naive():
    rng = random.Random(1)
    for p in PRIMES:
        for _ in range(40):
            a, b = rand_poly(rng, p), rand_poly(rng, p)
            assert mp.mul(a, b, p) == naive_mul(a, b, p)


def test_divmod_reconstructs():
    rng = random.Random(2)
    for p in PRIMES:
        for _ in range(60):
            a, b = rand_poly(rng, p, 8), rand_poly(rng, p, 4)
            q, r = mp.divmod_p(a, b, p)
            assert mp.add(mp.mul(q, b, p), r, p) == a
            assert mp.deg(r) < mp.deg(b)


def test_gcd_divides_both_and_contains_planted_factor():
    rng = random.Random(3)
    for p in [3, 5, 13]:
        for _ in range(50):
            common = rand_poly(rng, p, 3, monic=True)
            a = mp.mul(rand_poly(rng, p, 3), common, p)
            b = mp.mul(rand_poly(rng, p, 3), common, p)
            g = mp.gcd_p(a, b, p)
            assert g[-1] == 1
            assert not mp.rem_p(a, g, p) and not mp.rem_p(b, g, p)
            assert not mp.rem_p(g, common, p)


def test_xpow_mod_matches_pow_by_hand():
    rng = random.Random(4)
    for p in [2, 3, 5, 101]:
        for _ in range(30):
            f = rand_poly(rng, p, 5, monic=True)
            if mp.deg(f) < 1:
                continue
            e = rng.randrange(0, 3 * p)
            want = [1 % p]
            for _i in range(e):
                want = mp.rem_p(naive_mul(want, [0, 1], p), f, p)
            assert mp.xpow_mod(e, f, p) == want
            assert mp.powmod([0, 1], e, f, p) == want


def test_powmod_general_base():
    rng = random.Random(5)
    for p in [3, 7, 13]:
        for _ in range(30):
            f = rand_poly(rng, p, 4, monic=True)
            if mp.deg(f) < 1:
                continue
            a = rand_poly(rng, p, 3)
            e = rng.randrange(0, 40)
            want = [1 % p]
            for _i in range(e):
                want = mp.rem_p(naive_mul(want, a, p), f, p)
            assert mp.powmod(a, e, f, p) == want


def naive_compose(a, b, f, p):
    """a(b) mod f by Horner's rule on naive products and remainders."""
    acc = []
    for c in reversed(a):
        acc = naive_mul(acc, b, p) or [0]
        acc[0] = (acc[0] + c) % p
        acc = mp.rem_p(mp.trim(acc), f, p)
    return acc


def test_compose_mod_matches_naive_horner():
    rng = random.Random(11)
    for p in [2, 3, 7, 101, 2**61 - 1]:
        for _ in range(40):
            f = rand_poly(rng, p, 6, monic=True)  # [1] when the degree draw is 0
            a, b = rand_poly(rng, p, 6), rand_poly(rng, p, 9)  # deg b may pass deg f
            assert mp.compose_mod(a, b, f, p) == naive_compose(a, b, f, p), (p, a, b, f)
            assert mp.compose_mod(a, [], f, p) == naive_compose(a, [], f, p)
        f = [rng.randrange(p) for _ in range(3)] + [1]
        a = [rng.randrange(p) for _ in range(5)] + [1]
        assert mp.compose_mod(a, [1], [1], p) == []  # everything is 0 mod a unit
        assert mp.compose_mod(a, [], f, p) == mp.trim([a[0]])  # zero inner map: a(0)
        assert mp.compose_mod(a, mp.add(f, [0, 1], p), f, p) == mp.rem_p(a, f, p)  # f + x = x
        assert mp.compose_mod(a, [0, 1], f, p) == mp.rem_p(a, f, p)
        assert mp.compose_mod([], [0, 1], f, p) == []
        for c in {0, 1, p - 1}:  # powmod of x mod x + c, where x = -c
            for e in [0, 1, 5, p + 3]:
                want = mp.trim([pow(-c % p, e, p)])
                assert mp.powmod([0, 1], e, [c, 1], p) == mp.xpow_mod(e, [c, 1], p) == want


def test_root_count_brute_force():
    rng = random.Random(6)
    for p in [2, 3, 5, 7, 13, 31]:
        for _ in range(40):
            f = rand_poly(rng, p, 5, monic=True)
            if mp.deg(f) < 1 or not squarefree(f, p):
                continue
            want = sum(1 for x in range(p) if horner(f, x, p) == 0)
            assert mp.root_count(f, p) == want


def test_roots_prime_field_small_and_large():
    # roots are read off the linear factors of mp.factor, in factor order
    def roots(f, p):
        return [(-g[0]) % p for g, _ in mp.factor(f, p) if mp.deg(g) == 1]

    assert roots([2, 0, 1], 11) == [8, 3]  # x^2 + 2 mod 11 = (x + 3)(x + 8)
    rts = roots([1, 0, 1], 1009)  # 1009 % 4 == 1: x^2 + 1 splits
    assert len(rts) == 2 and all(pow(r, 2, 1009) == 1008 for r in rts)
    m61 = 2**61 - 1
    want = [5, 7, m61 - 3]
    f = [1]
    for r in want:
        f = naive_mul(f, [(-r) % m61, 1], m61)
    assert mp.is_irreducible([5, 0, 0, 1], m61)
    assert sorted(roots(naive_mul(f, [5, 0, 0, 1], m61), m61)) == want


def test_is_irreducible_matches_brute_force():
    for p in [2, 3, 5]:
        for d in range(1, 5):
            for f in all_monic(p, d):
                assert mp.is_irreducible(f, p) == brute_irreducible(f, p), (p, f)


def test_degree_pattern_from_planted_factors():
    rng = random.Random(8)
    for p in [2, 3, 5, 7]:
        irr = [f for d in range(1, 4) for f in all_monic(p, d) if brute_irreducible(f, p)]
        for _ in range(60):
            picks = rng.sample(irr, rng.randint(1, 3))
            if len({tuple(f) for f in picks}) != len(picks):
                continue  # repeated factor would break squarefreeness
            f = [1]
            for g in picks:
                f = naive_mul(f, g, p)
            if not squarefree(f, p):
                continue
            want = tuple(sorted(mp.deg(g) for g in picks))
            assert degree_pattern(f, p) == want, (p, picks)


@pytest.mark.parametrize(
    "p,want",
    [(3, (2, 2)), (5, (2, 2)), (7, (2, 2)), (17, (1, 1, 1, 1)), (41, (1, 1, 1, 1))],
)
def test_degree_pattern_eighth_cyclotomic(p, want):
    assert degree_pattern([1, 0, 0, 0, 1], p) == want


def test_invert_mod():
    rng = random.Random(9)
    for p in [3, 5, 13]:
        f = [1, 0, 1] if p % 4 == 3 else [2, 0, 1] if p == 5 else [2, 1, 1]
        assert mp.is_irreducible(f, p)
        for _ in range(30):
            a = mp.trim([rng.randrange(p), rng.randrange(p)])
            if not a:
                continue
            inv = invert_mod(a, f, p)
            assert mp.rem_p(naive_mul(a, inv, p), f, p) == [1]


def test_invert_mod_non_unit():
    with pytest.raises(ZeroDivisionError):
        invert_mod([1, 1], naive_mul([1, 1], [2, 1], 5), 5)


def test_linsolve_round_trip():
    rng = random.Random(10)
    for p in [2, 5, 13]:
        for _ in range(40):
            n = rng.randint(1, 5)
            sol = [rng.randrange(p) for _ in range(n)]
            mat = [[rng.randrange(p) for _ in range(n)] for _ in range(n + 1)]
            rhs = [sum(r[j] * sol[j] for j in range(n)) % p for r in mat]
            got = mp.linsolve(mat, rhs, p)
            assert all(sum(r[j] * got[j] for j in range(n)) % p == b for r, b in zip(mat, rhs))


def test_linsolve_inconsistent():
    with pytest.raises(ValueError):
        mp.linsolve([[1, 0], [1, 0]], [1, 2], 5)
