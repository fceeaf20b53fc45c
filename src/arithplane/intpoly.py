"""Exact univariate polynomial arithmetic over Q, on integers.

Polynomials are immutable coefficient tuples, constant term first, with no
trailing zeros; the zero polynomial is the empty tuple and has degree -1.
:class:`RatPoly` holds integer numerators over one common denominator, in
lowest terms (Cohen, *A Course in Computational Algebraic Number Theory*, §4.2).
A field polynomial, monic over Z, is the case den = 1: ``RatPoly.over``
leaves its integer vector as given.

Map composition — ``outer(inner(x)) mod m`` for a monic m, which is what
every embedding, transitivity and automorphism-group check of the lattice
reduces to — runs on one kernel over Z, :class:`Composer`: the powers of an
inner map's numerator mod m are tabulated once and shared by every outer
map, and a result is an integer vector over one denominator again.  An
embedding or automorphism is valid iff ``Composer.vanishes`` holds for it.
The ``Fraction`` Horner route on the derived ``RatPoly.coeffs``
(``finitefield.rat_compose_mod`` and its kin) is the tests' reference oracle.

The discriminant of a monic f of degree n is (-1)^(n(n-1)/2) N(f'(α)), the
determinant of the multiplication-by-f'(α) matrix whose rows x^i·f' mod f
are reduced on :class:`Composer` (Cohen, *A Course in Computational
Algebraic Number Theory*, ch. 3).  Fraction-free elimination (Bareiss,
Math. Comp. 22, 1968) keeps every entry an integer minor of that matrix.
The derivative and every stored minor are checked against a 128-bit
magnitude bound: the structures downstream are specified for desk-scale
inputs, and a silent blow-up is worse than a loud error.  Exceeding the
bound raises :class:`~arithplane.errors.ArithmeticOverflowError`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .errors import ArithmeticOverflowError, DenominatorNotInvertibleError

INT128_MAX = 2**127 - 1


def _checked(value: int) -> int:
    """Return value unchanged unless it exceeds the 128-bit magnitude bound."""
    if value > INT128_MAX or value < -INT128_MAX:
        raise ArithmeticOverflowError(
            f"integer intermediate exceeds 128 bits: ~2^{value.bit_length()}"
        )
    return value


def _trim(coeffs: Sequence) -> tuple:
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class RatPoly:
    """Polynomial over Q: ``num[i] / den`` multiplies x^i.

    :meth:`over` makes the one normal form (den >= 1, gcd(den, *num) = 1,
    no trailing zeros, the zero map ``((), 1)``), so maps compare and hash
    as integers.  Printing and the ``Fraction`` Horner oracle for
    :class:`Composer` read the derived ``coeffs``.
    """

    num: tuple[int, ...]
    den: int = 1

    @staticmethod
    def over(num: Iterable[int], den: int = 1) -> "RatPoly":
        """num/den in normal form; den must be nonzero."""
        num = _trim(list(num))
        g = gcd(den, *num) * (-1 if den < 0 else 1)
        return RatPoly(tuple(c // g for c in num), den // g)

    @staticmethod
    def of(*coeffs) -> "RatPoly":
        return RatPoly.from_coeffs(coeffs)

    @staticmethod
    def from_coeffs(coeffs: Iterable) -> "RatPoly":
        fracs = [Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in fracs))
        return RatPoly.over([c.numerator * (den // c.denominator) for c in fracs], den)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.den) for c in self.num)

    @property
    def degree(self) -> int:
        return len(self.num) - 1

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def is_monic(self) -> bool:
        """Monic over Z: den 1 and leading numerator 1."""
        return self.den == 1 and self.num[-1:] == (1,)

    def __str__(self) -> str:
        return _format_poly(self.coeffs)


def _format_poly(coeffs: Sequence) -> str:
    if not coeffs:
        return "0"
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        if i == 0:
            parts.append(str(c))
        else:
            x = "x" if i == 1 else f"x^{i}"
            if c == 1:
                parts.append(x)
            elif c == -1:
                parts.append(f"-{x}")
            else:
                parts.append(f"{c}*{x}")
    return " + ".join(parts).replace("+ -", "- ")


def reduce_mod_p(h: RatPoly, p: int) -> list[int]:
    """Coefficients of h mod p, constant first, trailing zeros trimmed.

    Raises DenominatorNotInvertibleError when p divides the denominator of
    h (the caller decides whether that means skip or refuse).
    """
    if h.den % p == 0:
        raise DenominatorNotInvertibleError(f"denominator {h.den} not invertible mod {p}")
    inv = pow(h.den, -1, p)
    return list(_trim([c * inv % p for c in h.num]))


class Composer:
    """Exact composition ``outer(inner) mod modulus`` over Z, for one monic
    modulus m of degree r.

    A map h = N/D is read as its ``num`` and ``den``.  For an outer map M/E
    of degree n, E·D^n·outer(h) = Σ M_i·D^(n-i)·N^i, and because m is monic
    each N^i reduces mod m without leaving Z.  So a composition is an
    integer linear combination of the rows N^i mod m over the one
    denominator E·D^n, which ``RatPoly.over`` brings to lowest terms.  The
    rows are tabulated per inner map on first use (the baby steps of Brent
    and Kung, "Fast algorithms for manipulating formal power series", 1978)
    and kept for the composer's lifetime: a loop composing many outer maps
    with one inner map multiplies polynomials only to extend that map's
    table.

    Compositions are not held to the 128-bit bound: as on the ``Fraction``
    route, their integers grow with r and with the heights of the maps.
    ``discriminant`` checks the rows it takes from ``_reduce``.
    """

    def __init__(self, modulus: RatPoly):
        if not modulus.is_monic:
            raise ValueError(f"modulus {modulus} is not monic")
        self.modulus = modulus
        self._tail = modulus.num[:-1]  # m = x^r + tail
        self._rows: dict[RatPoly, list[list[int]]] = {}  # by inner map

    def compose_mod(self, outer: RatPoly, inner: RatPoly) -> RatPoly:
        """outer(inner(x)) mod the modulus, equal to
        ``finitefield.rat_compose_mod(outer, inner, modulus)``."""
        acc, scale = self._combine(outer.num, inner)
        return RatPoly.over(acc, outer.den * scale)

    def vanishes(self, f: RatPoly, h: RatPoly) -> bool:
        """True iff f(h(x)) ≡ 0 mod the modulus."""
        return not any(self._combine(f.num, h)[0])

    def _combine(self, coeffs: Sequence[int], inner: RatPoly) -> tuple[list[int], int]:
        """(Σ c_i·D^(n-i)·(N^i mod m), D^n) for inner = N/D, n = len(coeffs) - 1."""
        rows = self._rows.get(inner)
        if rows is None:
            rows = self._rows[inner] = [self._reduce([1]), self._reduce(list(inner.num))]
        n = len(coeffs) - 1
        while len(rows) <= n:
            rows.append(self._mulmod(rows[-1], rows[1]))
        acc = [0] * len(self._tail)
        scale = 1
        for i in range(n, -1, -1):
            c = coeffs[i]
            if c:
                k = c * scale
                for j, v in enumerate(rows[i]):
                    acc[j] += k * v
            if i:
                scale *= inner.den
        return acc, scale

    def _mulmod(self, a: list[int], b: list[int]) -> list[int]:
        prod = [0] * (len(a) + len(b) - 1) if a else []
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        return self._reduce(prod)

    def _reduce(self, c: list[int]) -> list[int]:
        """c mod m as exactly r coefficients; c is consumed."""
        tail, r = self._tail, len(self._tail)
        for k in range(len(c) - 1, r - 1, -1):
            t = c[k]
            if t:
                for j, mj in enumerate(tail):
                    c[k - r + j] -= t * mj
        return c[:r] + [0] * (r - len(c))


def discriminant(f: RatPoly) -> int:
    """Discriminant of a monic f of degree n >= 1: (-1)^(n(n-1)/2) N(f'(α)).

    N(f'(α)) is the determinant of multiplication by f'(α) on Z[α], whose
    rows x^i·f' mod f come from :class:`Composer`.  Bareiss elimination
    keeps every entry an integer minor of that matrix, and each one is
    checked after its exact division.
    """
    n, comp = f.degree, Composer(f)
    rows = [comp._reduce([_checked(i * c) for i, c in enumerate(f.num)][1:])]
    while len(rows) < n:
        rows.append(comp._reduce([0] + rows[-1]))
    rows = [[_checked(v) for v in row] for row in rows]
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if rows[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            rows[k], rows[pivot] = rows[pivot], rows[k]
            sign = -sign
        top, lead = rows[k], rows[k][k]
        for row in rows[k + 1:]:
            c = row[k]
            for j in range(k + 1, n):
                row[j] = _checked((row[j] * lead - c * top[j]) // prev)
        prev = lead
    return -sign * prev if (n * (n - 1) // 2) % 2 else sign * prev
