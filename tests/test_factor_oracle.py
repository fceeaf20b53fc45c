"""``modpoly.factor`` against its reference oracle ``finitefield.fq_factor``
and against ``sympy``'s factorization over F_p.

Property tests on random polynomials with planted repeated factors, at
small primes (where repeated factors reach the characteristic) and at a
61-bit prime.
"""

import pytest

from arithplane import modpoly as mp
from arithplane.finitefield import FqField, degree_pattern, fq_factor, poly_over

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

M61 = 2**61 - 1


@st.composite
def planted(draw):
    """(f, p): a product of 1-3 random monic factors of degree 1-3, each
    raised to a power 1-4, times a random unit (the powers reach p at
    p = 2 and 3, so the p-th-root step of the squarefree split runs)."""
    p = draw(st.sampled_from([2, 3, 5, 7, M61]))
    coeff = st.integers(0, p - 1)
    f = [draw(st.integers(1, p - 1))]
    for _ in range(draw(st.integers(1, 3))):
        g = draw(st.lists(coeff, min_size=1, max_size=3)) + [1]
        for _ in range(draw(st.integers(1, 4))):
            f = mp.mul(f, g, p)
    return f, p


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(planted())
@example(([1, 0, 0, 0, 1], 2))  # (x + 1)^4: the derivative vanishes
@example(([1, 0, 0, 1, 0, 0, 1], 3))  # (x^2 + x + 1)^3 = x^6 + x^3 + 1
@example(([2, 2, 3, 1, 1], 5))  # (x^2 + 2)(x^2 + x + 1): order by c0 first
def test_factor_matches_fq_factor(case):
    f, p = case
    got = mp.factor(f, p)
    check = [1]
    for g, mult in got:
        assert g[-1] == 1 and mp.is_irreducible(g, p)
        for _ in range(mult):
            check = mp.mul(check, g, p)
    assert check == mp.monic(f, p)
    oracle = fq_factor(poly_over(FqField(p, [0, 1]), f))
    assert got == [([c.rep[0] for c in g], mult) for g, mult in oracle]
    if all(mult == 1 for _, mult in got):
        assert degree_pattern(f, p) == tuple(mp.deg(g) for g, _ in got)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(planted())
@example(([1, 0, 0, 0, 1], 2))
@example(([1, 0, 0, 1, 0, 0, 1], 3))
@example(([2, 2, 3, 1, 1], 5))
def test_factor_matches_sympy(sympy, case):
    f, p = case
    _, factors = sympy.Poly(f[::-1], sympy.Symbol("x"), modulus=p).factor_list()
    want = [([c % p for c in reversed(g.all_coeffs())], mult) for g, mult in factors]
    assert mp.factor(f, p) == sorted(want, key=lambda gm: (len(gm[0]), gm[0]))


def test_factor_rejects_constants():
    for f in ([], [3]):
        with pytest.raises(ValueError):
            mp.factor(f, 5)
