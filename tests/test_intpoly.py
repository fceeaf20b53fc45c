"""Exact polynomial layer: discriminants, reduction, map composition.

The discriminant (a Bareiss determinant on Composer rows) is checked
against an independent oracle: the determinant of the Sylvester matrix of
f and f', computed by fraction Gaussian elimination.
"""

import math
import pathlib
import random
from fractions import Fraction

import pytest

from arithplane.errors import (
    ArithmeticOverflowError,
    AutomorphismGroupError,
    DenominatorNotInvertibleError,
    EmbeddingInvalidError,
)
from arithplane.finitefield import rat_add, rat_compose, rat_compose_mod, rat_divmod, rat_mod, rat_mul
from arithplane.intpoly import INT128_MAX, Composer, RatPoly, discriminant, reduce_mod_p
from arithplane.lattice import load_lattice

DEMO = (pathlib.Path(__file__).resolve().parent.parent / "configs" / "demo.cfg").read_text()


def sylvester_resultant(f: RatPoly, g: RatPoly) -> int:
    """Oracle: det of the Sylvester matrix, via Fraction elimination."""
    m, n = f.degree, g.degree
    if m < 0 or n < 0:
        return 0
    if m == 0:
        return f.num[0] ** n
    if n == 0:
        return g.num[0] ** m
    size = m + n
    mat = [[Fraction(0)] * size for _ in range(size)]
    fc = list(reversed(f.num))
    gc = list(reversed(g.num))
    for i in range(n):
        for j, c in enumerate(fc):
            mat[i][i + j] = Fraction(c)
    for i in range(m):
        for j, c in enumerate(gc):
            mat[n + i][i + j] = Fraction(c)
    det = Fraction(1)
    for col in range(size):
        pivot = next((r for r in range(col, size) if mat[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        inv = 1 / mat[col][col]
        for r in range(col + 1, size):
            if mat[r][col]:
                factor = mat[r][col] * inv
                for c in range(col, size):
                    mat[r][c] -= factor * mat[col][c]
    assert det.denominator == 1
    return det.numerator


def derivative(f: RatPoly) -> RatPoly:
    return RatPoly.over([i * c for i, c in enumerate(f.num)][1:])


def disc_oracle(f: RatPoly) -> int:
    n = f.degree
    if n == 1:
        return 1
    r = sylvester_resultant(f, derivative(f))
    sign = -1 if (n * (n - 1) // 2) % 2 else 1
    q, rem = divmod(sign * r, f.num[-1])
    assert rem == 0
    return q


def rand_poly(rng, max_deg=6, span=9, monic=False):
    deg = rng.randint(1, max_deg)
    coeffs = [rng.randint(-span, span) for _ in range(deg)]
    coeffs.append(1 if monic else rng.choice([c for c in range(-span, span + 1) if c]))
    return RatPoly.over(coeffs)


# ---------------------------------------------------------------- basics


def test_trim_and_degree():
    assert RatPoly.over((0, 0, 0)).num == ()
    assert RatPoly.over((0, 0, 0)).degree == -1
    assert RatPoly.over((1, 2, 0)).num == (1, 2)
    assert RatPoly.over((5,)).degree == 0
    assert RatPoly.over((0, 0, 1)).is_monic


def test_derivative():
    f = RatPoly.over((-2, 0, 0, 1))  # x^3 - 2
    assert derivative(f).num == (0, 0, 3)


def test_str():
    assert str(RatPoly.over((1, 0, 1))) == "1 + x^2"
    assert str(RatPoly.over((-2, 0, 0, 1))) == "-2 + x^3"
    assert str(RatPoly.over((0,))) == "0"


def test_integer_vectors_are_never_rescaled():
    # a field polynomial is its integer vector over denominator 1, as given,
    # whatever the gcd of its coefficients
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    ints = st.integers(-10**20, 10**20)

    @hyp.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @hyp.given(low=st.lists(ints, max_size=8), lead=ints.filter(bool))
    def check(low, lead):
        f = RatPoly.over(low + [lead])
        assert f.den == 1 and f.num == (*low, lead)

    check()


def int_product(*factors):
    """The product of integer coefficient lists, on the Fraction route."""
    out = RatPoly.of(1)
    for f in factors:
        out = rat_mul(out, RatPoly.over(f))
    return out


# ---------------------------------------------------------------- discriminant


@pytest.mark.parametrize(
    "coeffs,expected",
    [
        ((1, 0, 1), -4),  # x^2 + 1
        ((-2, 0, 1), 8),  # x^2 - 2
        ((-2, 0, 0, 1), -108),  # x^3 - 2
        ((1, 0, 0, 0, 1), 256),  # x^4 + 1
        ((1, 1, 1), -3),  # x^2 + x + 1
        ((0, 1), 1),  # x
        # desk-scale fields: discriminants of 55, 58 and 72 bits
        ((-1, 0, 5, 1, 6, 6, -6, -9, 0, 1), 23293515660770557),
        ((9, 8, -6, 1, -8, 4, -7, 3, 1), 248859922717773529),
        ((92, 2, -39, -71, 83, -48, 1), 2988244546438527970324),
    ],
)
def test_discriminant_known_values(coeffs, expected):
    assert discriminant(RatPoly.over(coeffs)) == expected
    assert disc_oracle(RatPoly.over(coeffs)) == expected


def test_discriminant_matches_oracle_randomized():
    rng = random.Random(99)
    for _ in range(150):
        f = rand_poly(rng, max_deg=5, span=6, monic=True)
        assert discriminant(f) == disc_oracle(f), f


def test_discriminant_zero_iff_repeated_root():
    f = int_product((-1, 1), (-1, 1), (2, 1))
    assert discriminant(f) == 0


def answers_like_oracle(f: RatPoly) -> bool:
    """Check discriminant(f) against the Sylvester oracle: equal, or refused
    because the discriminant itself exceeds the 128-bit bound.  True iff it
    answered."""
    want = disc_oracle(f)
    try:
        got = discriminant(f)
    except ArithmeticOverflowError:
        assert abs(want) > INT128_MAX, f
        return False
    assert got == want, f
    return True


def test_discriminant_matches_oracle_desk_scale():
    # two-digit coefficients, degree 6-9
    rng = random.Random(18)
    answered = 0
    for _ in range(120):
        deg = rng.randint(6, 9)
        f = RatPoly.over([rng.randint(-99, 99) for _ in range(deg)] + [1])
        answered += answers_like_oracle(f)
    assert answered == 118  # the other two have discriminants of over 127 bits


def test_discriminant_matches_oracle_to_degree_16_and_on_families():
    rng = random.Random(16)
    for _ in range(100):
        assert answers_like_oracle(rand_poly(rng, max_deg=16, span=3, monic=True))
    answered = 0
    for n in range(2, 41):
        families = (
            [1, 1] + [0] * (n - 2) + [1],  # x^n + x + 1
            [-2] + [0] * (n - 1) + [1],  # x^n - 2
            [1] * (n + 1),  # 1 + x + ... + x^n
        )
        answered += sum(answers_like_oracle(RatPoly.over(c)) for c in families)
    # each family is answered while its discriminant fits, up to n = 26, 23
    # and 27 (x^n - 2 has |disc| = n^n 2^(n-1)), and refused from there on
    assert answered == 25 + 22 + 26


def test_discriminant_is_shift_invariant():
    # disc f(x + c) = disc f: the roots move together, so their differences stay
    rng = random.Random(8)
    for _ in range(60):
        f = rand_poly(rng, max_deg=8, span=5, monic=True)
        c = rng.randint(-5, 5)
        shifted = rat_compose(f, RatPoly.of(c, 1))
        assert discriminant(shifted) == discriminant(f), (f, c)


def test_overflow_guard_fires():
    big = 2**100  # disc = 2^200 - 2^102
    with pytest.raises(ArithmeticOverflowError):
        discriminant(RatPoly.over((big, big, 1)))


# ---------------------------------------------------------------- reduction


def test_reduce_mod_p_int():
    assert reduce_mod_p(RatPoly.over((7, -1, 10)), 5) == [2, 4]
    # over denominator 1, reduction is c % p per coefficient
    rng = random.Random(21)
    for p in (2, 3, 5, 7, 2**31 - 1, 2**61 - 1):
        for _ in range(50):
            cs = [rng.randint(-10**30, 10**30) for _ in range(rng.randint(1, 8))]
            want = [c % p for c in cs]
            while want and not want[-1]:
                want.pop()
            assert reduce_mod_p(RatPoly.over(cs), p) == want


def test_reduce_mod_p_rational():
    h = RatPoly.of(0, Fraction(1, 2))
    assert reduce_mod_p(h, 5) == [0, 3]


def test_reduce_mod_p_bad_denominator():
    h = RatPoly.of(0, Fraction(1, 2))
    with pytest.raises(DenominatorNotInvertibleError):
        reduce_mod_p(h, 2)


def test_reduce_mod_p_matches_fraction_route():
    # the per-coefficient Fraction route: each numerator times the inverse
    # of its own denominator, refused when p divides any denominator
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    dens = st.lists(st.integers(1, 30), min_size=1, max_size=3).map(math.prod)
    maps = st.lists(st.builds(Fraction, st.integers(-10**6, 10**6), dens),
                    max_size=8).map(RatPoly.from_coeffs)
    primes = st.sampled_from([2, 3, 5, 7, 11, 13, 29, 31, 2**31 - 1, 2**61 - 1])

    @hyp.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @hyp.given(h=maps, p=primes)
    def check(h, p):
        if any(c.denominator % p == 0 for c in h.coeffs):
            with pytest.raises(DenominatorNotInvertibleError):
                reduce_mod_p(h, p)
            return
        want = [c.numerator * pow(c.denominator, -1, p) % p for c in h.coeffs]
        while want and not want[-1]:
            want.pop()
        assert reduce_mod_p(h, p) == want

    check()


# ---------------------------------------------------------------- RatPoly


def in_normal_form(h: RatPoly) -> bool:
    """The one form of a map: den >= 1, gcd(den, *num) = 1, no trailing zero."""
    return h.den >= 1 and math.gcd(h.den, *h.num) == 1 and h.num[-1:] != (0,)


def test_ratpoly_has_one_form():
    # every spelling of a map, scaled, negated or zero-padded, is one value
    # with one hash, and ``coeffs`` gives back its Fraction coefficients
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    fracs = st.lists(st.builds(Fraction, st.integers(-50, 50), st.integers(1, 60)), max_size=7)

    @hyp.settings(max_examples=300, derandomize=True, deadline=None, database=None)
    @hyp.given(cs=fracs, k=st.integers(-40, 40).filter(bool), pad=st.integers(0, 2))
    def check(cs, k, pad):
        h = RatPoly.from_coeffs(cs)
        assert in_normal_form(h)
        want = list(cs)
        while want and not want[-1]:
            want.pop()
        assert h.coeffs == tuple(want)
        other = RatPoly.over([k * c for c in h.num] + [0] * pad, k * h.den)
        assert in_normal_form(other)
        assert other == h and hash(other) == hash(h)
        assert RatPoly.from_coeffs(h.coeffs + (0,) * pad) == h

    check()
    assert RatPoly(()) == RatPoly.of() == RatPoly.of(0, 0) == RatPoly.over((), 7)


def test_ratpoly_divmod_reconstructs():
    rng = random.Random(3)
    for _ in range(100):
        f = rand_poly(rng, 6)
        g = rand_poly(rng, 3)
        q, r = rat_divmod(f, g)
        assert rat_add(rat_mul(q, g), r) == f
        assert r.degree < g.degree


def test_ratpoly_compose_mod_agrees_with_compose():
    rng = random.Random(4)
    for _ in range(50):
        f, h = (rand_poly(rng, d) for d in (4, 3))
        m = rand_poly(rng, 4, monic=True)
        assert rat_compose_mod(f, h, m) == rat_mod(rat_compose(f, h), m)


# ---------------------------------------------------------------- embeddings


def test_validate_embedding_quartic_tower():
    qi = RatPoly.over((1, 0, 1))  # x^2 + 1
    qs2 = RatPoly.over((-2, 0, 1))  # x^2 - 2
    q8 = RatPoly.over((1, 0, 0, 0, 1))  # x^4 + 1
    assert Composer(q8).vanishes(qi, RatPoly.of(0, 0, 1))  # i = z^2
    assert Composer(q8).vanishes(qs2, RatPoly.of(0, 1, 0, -1))  # sqrt2 = z - z^3
    assert not Composer(qs2).vanishes(qi, RatPoly.of(0, 1))


def test_validate_embedding_degree_precondition():
    # 1 + x + x^2 is x mod x^2 + 1, so it passes the root test, but a map of
    # degree >= deg f_dst is refused before it, as an embed and as an auto
    qi = RatPoly.over((1, 0, 1))
    assert Composer(qi).vanishes(qi, RatPoly.of(1, 1, 1))
    embed = "field A\n  poly 1 0 1\nfield B\n  poly -2 0 1\nembed A -> B\n  map {}\n"
    with pytest.raises(EmbeddingInvalidError, match="must have degree < deg f_dst"):
        load_lattice(embed.format("1 1 1"))
    with pytest.raises(EmbeddingInvalidError, match="does not send a root"):
        load_lattice(embed.format("0 1"))
    with pytest.raises(AutomorphismGroupError, match="1 \\+ x \\+ x\\^2 is not a root map"):
        load_lattice("field A\n  poly 1 0 1\nauto A\n  map 0 1\nauto A\n  map 1 1 1\n")


def test_validate_embedding_rational_coefficients():
    # half-integer map: x/2 sends a root of x^2 - 8 into the x^2 - 2 field
    f_src = RatPoly.over((-8, 0, 1))
    f_dst = RatPoly.over((-2, 0, 1))
    assert Composer(f_dst).vanishes(f_src, RatPoly.of(0, 2))
    assert Composer(f_src).vanishes(f_dst, RatPoly.of(0, Fraction(1, 2)))


def test_validate_embedding_needs_monic_modulus():
    # 2x^2 + 1 is not monic: the integer kernel cannot reduce by it
    assert not RatPoly.over((1, 0, 2)).is_monic
    with pytest.raises(ValueError, match="not monic"):
        Composer(RatPoly.over((1, 0, 2)))
    # x^2 + 1/2 leads with 1 but is not monic over Z
    half = RatPoly.of(Fraction(1, 2), 0, 1)
    assert not half.is_monic
    with pytest.raises(ValueError, match="not monic"):
        Composer(half)


# ------------------------------------------ Composer against the Fraction oracle


def test_composer_matches_oracle_on_demo_maps(monkeypatch):
    # record every composition and root test that assembling the demo
    # lattice makes, plus the fixing-subgroup compositions, then redo each
    # one on the Fraction route
    calls = []
    compose, vanishes = Composer.compose_mod, Composer.vanishes

    def record_compose(self, outer, inner):
        calls.append(("compose", self.modulus, outer, inner))
        return compose(self, outer, inner)

    def record_vanishes(self, f, h):
        calls.append(("vanishes", self.modulus, f, h))
        return vanishes(self, f, h)

    monkeypatch.setattr(Composer, "compose_mod", record_compose)
    monkeypatch.setattr(Composer, "vanishes", record_vanishes)
    cfg = load_lattice(DEMO)
    # 20 root tests and 64 compositions: every check of the assembly runs
    assert [kind for kind, *_ in calls].count("vanishes") == 20
    assert len(calls) == 84
    for name in cfg.fields:
        for src, dst in cfg.embeddings:
            if dst == name:
                cfg.automorphisms_fixing(name, src)
    assert len(calls) > 84
    monkeypatch.undo()

    for kind, modulus, a, b in calls:
        if kind == "compose":
            got = Composer(modulus).compose_mod(a, b)
            want = rat_compose_mod(a, b, modulus)
            assert got == want and str(got) == str(want) and in_normal_form(got)
        else:
            want = rat_compose_mod(a, b, modulus).is_zero
            assert Composer(modulus).vanishes(a, b) == want


def test_composer_reuses_inner_tables():
    # one inner map against many outer maps, in both orders of growth
    rng = random.Random(7)
    m = rand_poly(rng, 6, monic=True)
    while m.degree < 4:
        m = rand_poly(rng, 6, monic=True)
    inner = RatPoly.of(Fraction(1, 3), Fraction(-2, 9), 0, Fraction(5, 27))
    comp = Composer(m)
    for deg in (5, 1, 3, 6, 0):
        outer = RatPoly.from_coeffs(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                                    for _ in range(deg + 1))
        assert comp.compose_mod(outer, inner) == rat_compose_mod(outer, inner, m)
    assert comp.compose_mod(RatPoly.of(), inner) == RatPoly.of()


def test_composer_matches_oracle_on_random_maps():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    dens = st.lists(st.integers(1, 9), min_size=1, max_size=3).map(math.prod)  # up to 9^3
    coeffs = st.builds(Fraction, st.integers(-30, 30), dens)
    maps = st.lists(coeffs, max_size=7).map(RatPoly.from_coeffs)
    ints = st.integers(-9, 9)
    moduli = st.lists(ints, min_size=1, max_size=6).map(lambda c: RatPoly.over(c + [1]))

    @hyp.settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @hyp.given(outer=maps, inner=maps, modulus=moduli, f_src=moduli)
    def random_maps(outer, inner, modulus, f_src):
        comp = Composer(modulus)
        got = comp.compose_mod(outer, inner)
        assert in_normal_form(got) and got == rat_compose_mod(outer, inner, modulus)
        assert comp.compose_mod(outer, inner) == got  # now from the stored table
        if inner.degree < modulus.degree:
            want = rat_compose_mod(f_src, inner, modulus).is_zero
            assert comp.vanishes(f_src, inner) == want

    # planted embeddings: for monic f of degree n and monic u, the monic
    # integer polynomial g = d^n * f(u/d) has f(u/d) = g/d^n ≡ 0 (mod g)
    @hyp.settings(max_examples=150, derandomize=True, deadline=None, database=None)
    @hyp.given(f_low=st.lists(ints, min_size=2, max_size=3),
               u_low=st.lists(ints, min_size=1, max_size=2),
               d=st.integers(1, 729))
    def planted(f_low, u_low, d):
        f_src = RatPoly.over(f_low + [1])
        u = RatPoly.over(u_low + [1])
        n = f_src.degree
        g, u_pow = RatPoly(()), RatPoly.of(1)
        for i, c in enumerate(f_src.num):
            g = rat_add(g, rat_mul(u_pow, RatPoly.of(c * d ** (n - i))))
            u_pow = rat_mul(u_pow, u)
        assert g.den == 1
        h = RatPoly.from_coeffs(c / d for c in u.coeffs)
        assert Composer(g).vanishes(f_src, h)
        assert rat_compose_mod(f_src, h, g).is_zero
        off = RatPoly.over([f_src.num[0] + 1, *f_src.num[1:]])
        assert Composer(g).vanishes(off, h) == rat_compose_mod(off, h, g).is_zero

    random_maps()
    planted()
