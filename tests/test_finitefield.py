"""Finite-field oracles: construction, arithmetic, norms, factorization.

Arithmetic is oracled by naive schoolbook polynomial arithmetic reduced with
modpoly's long division; norms by explicit Frobenius-conjugate products;
factorization by planted factors plus the always-on re-expansion check.
"""

import random

import pytest

from arithplane import modpoly as mp
from arithplane.errors import InvalidPrimeError
from arithplane.finitefield import (
    FqElement,
    FqField,
    InvalidSubfieldError,
    ReducibleModulusError,
    fq_factor,
    fq_minpoly,
    fq_norm,
    fq_roots,
    poly_over,
)


def naive_mul_mod(a, b, modulus, p):
    out = [0] * (len(a) + len(b) - 1 or 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return mp.rem_p(out, list(modulus), p)


F9 = FqField(3, [1, 0, 1])  # F_3[t]/(t^2+1)
F8 = FqField(2, [1, 1, 0, 1])  # F_2[t]/(t^3+t+1)
F5 = FqField(5, [0, 1])  # the prime field as the degree-1 case


# ------------------------------------------------------------- construction


def test_construct_validates_prime():
    with pytest.raises(InvalidPrimeError):
        FqField(6, [1, 1])
    with pytest.raises(InvalidPrimeError):
        FqField(1, [0, 1])


def test_construct_validates_irreducibility():
    with pytest.raises(ReducibleModulusError):
        FqField(3, [2, 0, 1])  # t^2 - 1 = (t-1)(t+1)
    with pytest.raises(ReducibleModulusError):
        FqField(5, [0, 0, 1])  # t^2


def test_construct_requires_monic():
    with pytest.raises(ReducibleModulusError):
        FqField(5, [1, 2])


def test_field_identity_and_order():
    assert F9.order == 9 and F9.m == 2
    assert F5.order == 5 and F5.m == 1
    assert F9 == FqField(3, [1, 0, 1])
    assert F9 != F8
    assert len({F9, FqField(3, [1, 0, 1]), F8}) == 2


# ------------------------------------------------------------- arithmetic


def test_exhaustive_mul_against_naive_f9():
    for a in F9.elements():
        for b in F9.elements():
            want = naive_mul_mod(list(a.rep), list(b.rep), F9.modulus, 3)
            got = mp.trim(list((a * b).rep))
            assert got == want


def test_field_axioms_sampled():
    rng = random.Random(12)
    for fld in (F9, F8, F5, FqField(7, [3, 0, 0, 1])):
        elems = [fld.from_index(rng.randrange(fld.order)) for _ in range(12)]
        for a in elems:
            for b in elems:
                assert a + b == b + a
                assert a * b == b * a
                if not b.is_zero:
                    assert (a / b) * b == a
        for a, b, c in zip(elems, elems[1:], elems[2:]):
            assert (a + b) * c == a * c + b * c
            assert (a * b) * c == a * (b * c)


def test_index_round_trip_and_order():
    for fld in (F9, F8):
        seen = [fld.from_index(i) for i in range(fld.order)]
        assert [e.index for e in seen] == list(range(fld.order))
        assert sorted(seen) == seen


def test_fermat_identity():
    for fld in (F9, F8):
        for x in fld.elements():
            assert x ** fld.order == x


def test_pow_conventions():
    assert F9.zero ** 0 == F9.one
    t = F9.element([0, 1])
    assert (t + F9.one) ** 2 == F9.element([0, 2])  # (t+1)^2 = 2t
    assert t ** -1 * t == F9.one


def test_prime_field_gen_is_residue_of_t():
    # modulus t: the class of t is 0, matching a rational base point
    f = FqField(13, [0, 1])
    assert f.element([0, 1]) == f.zero
    g = FqField(13, [9, 1])  # t + 9: the class of t is -9 = 4
    assert g.element([0, 1]) == g.element(4)


# ------------------------------------------------------------------ norm


def test_norm_frozen_example():
    x = F9.element([1, 1])  # t + 1
    assert fq_norm(x, 1) == F9.element(2)


def test_norm_is_frobenius_conjugate_product():
    rng = random.Random(13)
    for fld in (F9, F8, FqField(5, [3, 3, 0, 1])):
        for _ in range(20):
            x = fld.from_index(rng.randrange(fld.order))
            want = fld.one
            for i in range(fld.m):
                want = want * x ** (fld.p**i)
            assert fq_norm(x, 1) == want


def test_norm_multiplicative():
    rng = random.Random(14)
    f81 = FqField(3, [2, 1, 0, 0, 1])  # t^4 + t + 2 irreducible mod 3
    for _ in range(40):
        a = f81.from_index(rng.randrange(1, 81))
        b = f81.from_index(rng.randrange(1, 81))
        for d in (1, 2):
            assert fq_norm(a * b, d) == fq_norm(a, d) * fq_norm(b, d)


def test_norm_fibres_are_uniform():
    # onto the degree-2 subfield of F_81: every nonzero target is hit by
    # exactly (81-1)/(9-1) = 10 elements, zero only by zero
    f81 = FqField(3, [2, 1, 0, 0, 1])
    counts = {}
    for x in f81.elements():
        counts.setdefault(fq_norm(x, 2), 0)
        counts[fq_norm(x, 2)] += 1
    zero = f81.zero
    assert counts[zero] == 1
    assert all(v == 10 for k, v in counts.items() if k != zero)
    assert len(counts) == 9


def test_norm_subfield_degree_check():
    with pytest.raises(InvalidSubfieldError):
        fq_norm(F8.element([0, 1]), 2)  # 2 does not divide 3
    with pytest.raises(InvalidSubfieldError):
        fq_norm(F9.element([0, 1]), 0)


# --------------------------------------------------------------- minpoly


def test_minpoly_frozen_example():
    x = F9.element([1, 1])
    assert fq_minpoly(x) == [2, 1, 1]  # t^2 + t + 2


def test_minpoly_annihilates_and_divides():
    rng = random.Random(15)
    for fld in (F8, FqField(3, [1, 2, 0, 1]), FqField(2, [1, 1, 0, 0, 1])):
        for _ in range(25):
            x = fld.from_index(rng.randrange(fld.order))
            mpoly = fq_minpoly(x)
            assert mpoly[-1] == 1
            assert fld.m % (len(mpoly) - 1) == 0
            acc = fld.zero
            for c in reversed(mpoly):
                acc = acc * x + fld.element(c)
            assert acc.is_zero
            assert mp.is_irreducible(mpoly, fld.p)


def test_minpoly_of_constant_is_linear():
    assert fq_minpoly(F9.element(2)) == [1, 1]  # t - 2 = t + 1 mod 3


# ----------------------------------------------------------------- roots


def test_roots_planted():
    rng = random.Random(16)
    for fld in (F9, F8, F5):
        for _ in range(25):
            vals = {fld.from_index(rng.randrange(fld.order)) for _ in range(3)}
            f = [fld.one]
            for v in vals:
                f = _mul_lin(fld, f, v)
            assert fq_roots(f) == sorted(vals)


def _mul_lin(fld, f, v):
    out = [fld.zero] * (len(f) + 1)
    for i, c in enumerate(f):
        out[i + 1] = out[i + 1] + c
        out[i] = out[i] - c * v
    return out


def test_roots_large_field_branch():
    f3125 = FqField(5, [4, 4, 0, 0, 0, 1])  # t^5 - t - 1, Artin-Schreier
    rng = random.Random(17)
    vals = {f3125.from_index(rng.randrange(3125)) for _ in range(3)}
    f = [f3125.one]
    for v in vals:
        f = _mul_lin(f3125, f, v)
    assert fq_roots(f) == sorted(vals)


def test_roots_no_roots():
    assert fq_roots(poly_over(F5, [2, 0, 1])) == []  # x^2+2 has no roots mod 5


def test_roots_no_roots_above_brute_threshold():
    # fields of order > 1024 take the gcd route; a rootless input must come
    # back empty instead of looping in the splitting stage
    f1031 = FqField(1031, [0, 1])  # 1031 = 4*257 + 3, so -1 is not a square
    assert fq_roots(poly_over(f1031, [1, 0, 1])) == []
    roots = fq_roots(poly_over(f1031, [-4, 0, 1]))
    assert [r.index for r in roots] == [2, 1029]
    f3125 = FqField(5, [4, 4, 0, 0, 0, 1])
    # x^2 + 2 splits only in F_25, which meets F_5^5 in F_5
    assert fq_roots(poly_over(f3125, [2, 0, 1])) == []


# ---------------------------------------------------------------- factor


def test_factor_frozen_eighth_cyclotomic_mod3():
    f = poly_over(FqField(3, [0, 1]), [1, 0, 0, 0, 1])
    got = fq_factor(f)
    as_ints = [([c.rep[0] for c in fac], m) for fac, m in got]
    assert as_ints == [([2, 1, 1], 1), ([2, 2, 1], 1)]


def test_factor_frozen_eighth_cyclotomic_mod11():
    # (x^2+3x+10)(x^2+8x+10) = x^4 + 11x^3 + 44x^2 + 110x + 100 = x^4 + 1 (mod 11)
    f = poly_over(FqField(11, [0, 1]), [1, 0, 0, 0, 1])
    as_ints = [([c.rep[0] for c in fac], m) for fac, m in fq_factor(f)]
    assert as_ints == [([10, 3, 1], 1), ([10, 8, 1], 1)]


def test_factor_multiplicities():
    fld = FqField(5, [0, 1])
    # (x-1)^2 (x-2)^3
    f = poly_over(fld, [1])
    for root, mult in [(1, 2), (2, 3)]:
        for _ in range(mult):
            f = _mul_lin(fld, f, fld.element(root))
    got = [([c.rep[0] for c in fac], m) for fac, m in fq_factor(f)]
    assert got == [([3, 1], 3), ([4, 1], 2)]  # x+3 = x-2 first (constant 3 < 4)


def test_factor_pth_power_path():
    fld = FqField(3, [0, 1])
    f = poly_over(fld, [1, 0, 0, 0, 0, 0, 1])  # x^6+1 = (x^2+1)^3 mod 3
    got = [([c.rep[0] for c in fac], m) for fac, m in fq_factor(f)]
    assert got == [([1, 0, 1], 3)]


def test_factor_over_extension_field_planted():
    rng = random.Random(18)
    for fld in (F9, F8):
        for _ in range(20):
            vals = [fld.from_index(rng.randrange(fld.order)) for _ in range(4)]
            f = [fld.one]
            for v in vals:
                f = _mul_lin(fld, f, v)
            got = fq_factor(f)
            roots = []
            for fac, m in got:
                assert len(fac) == 2  # all linear
                roots.extend([-fac[0]] * m)
            assert sorted(roots) == sorted(vals)


def test_factor_char2_equal_degree_split():
    # x^4 + x^2 + ... pick (x^2+x+1)^2 times distinct linears over F_2
    fld = FqField(2, [0, 1])
    f = poly_over(fld, [1, 1, 1])
    f = _pmul_int(fld, f, poly_over(fld, [1, 1, 1]))
    f = _mul_lin(fld, f, fld.zero)
    f = _mul_lin(fld, f, fld.one)
    got = [([c.rep[0] for c in fac], m) for fac, m in fq_factor(f)]
    assert got == [([0, 1], 1), ([1, 1], 1), ([1, 1, 1], 2)]


def _pmul_int(fld, f, g):
    out = [fld.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = out[i + j] + a * b
    return out


def test_factor_deterministic_across_field_objects():
    for _ in range(3):
        fld = FqField(101, [0, 1])
        f = poly_over(fld, [7, 0, 0, 0, 0, 0, 1])
        first = fq_factor(f)
        again = fq_factor(poly_over(FqField(101, [0, 1]), [7, 0, 0, 0, 0, 0, 1]))
        assert [(tuple(c.rep[0] for c in fac), m) for fac, m in first] == [
            (tuple(c.rep[0] for c in fac), m) for fac, m in again
        ]


def test_factor_canonical_order():
    fld = FqField(7, [0, 1])
    f = poly_over(fld, [1])
    for root in (5, 1, 3):
        f = _mul_lin(fld, f, fld.element(root))
    got = [[c.rep[0] for c in fac] for fac, _ in fq_factor(f)]
    assert got == [[2, 1], [4, 1], [6, 1]]  # constants ascending


def test_str_formats():
    assert str(F9.element([1, 2])) == "1 + 2*t"
    assert str(F9.zero) == "0"
    assert str(F9.element([0, 1])) == "t"

