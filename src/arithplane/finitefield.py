"""Explicit finite fields F_p[t]/(g), and polynomials over Q by ``Fraction``
Horner steps: the reference oracles.

No program path imports this module.  The program computes every
finite-field question on the prime-field kernels of ``modpoly``, and every
map composition over Q on ``intpoly.Composer``; the tests hold each of
those fast paths against an independent route kept here:

- ``FqField``, ``FqElement``: the element lanes of ``plane``;
- ``residue_field``, ``residue_name`` (γ(α) -> its class mod (p, g)):
  ``plane._name`` and ``spectrum.lies_over``;
- ``fq_norm``: ``plane._Projector.norm``;
- ``fq_minpoly``: ``spectrum.relative_degree``;
- ``fq_roots``: ``spectrum.compatible_root_count``;
- ``fq_factor``: ``modpoly.factor``;
- ``degree_pattern`` (factor degrees by distinct-degree factorization):
  ``modpoly.lane_factor_degrees``;
- ``rat_compose_mod`` and its kin (``rat_add``, ``rat_mul``, ``rat_divmod``,
  ``rat_mod``, ``rat_compose``), on the derived ``RatPoly.coeffs``:
  ``intpoly.Composer``.

A field is a prime p plus a monic irreducible modulus g over F_p; elements
are coefficient tuples of length deg g (constant first).  The prime field
itself is the degree-1 case g = t, whose elements are 1-tuples — one
representation everywhere, no special cases.

Every element has a canonical integer index (base-p digits, constant digit
least significant), which fixes iteration order, root order and factor
order.  Randomized equal-degree splitting draws from a private generator
seeded by a stable fold of (p, modulus, input coefficients), so factor
lists are reproducible across runs and processes.

Field arithmetic runs on the residue-ring kernels of ``modpoly``: a product
is its reduction-row product ``_mul_red`` and a power its one ladder
``powmod``; the prime field F_p keeps plain integer arithmetic.
``fq_factor``, like ``spectrum.split_prime``, re-expands its factors and
compares them with the input on every call.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from . import modpoly as mp
from .errors import ArithPlaneError, InvalidPrimeError
from .intpoly import RatPoly, _format_poly, reduce_mod_p
from .sieve import MAX_CHARACTERISTIC, is_prime

MAX_EXTENSION_DEGREE = 16


class ReducibleModulusError(ArithPlaneError):
    """A field modulus is not irreducible over its prime field."""


class InvalidSubfieldError(ArithPlaneError):
    """Requested subfield degree does not divide the field degree."""


def invert_mod(a: list[int], fmod: list[int], p: int) -> list[int]:
    """Inverse of a modulo fmod (extended Euclid); a must be a unit."""
    r0, r1 = list(fmod), mp.rem_p(a, fmod, p)
    t0, t1 = [], [1]
    while r1:
        q, r = mp.divmod_p(r0, r1, p)
        r0, r1 = r1, r
        t0, t1 = t1, mp.sub(t0, mp.mul(q, t1, p), p)
    if mp.deg(r0) != 0:
        raise ZeroDivisionError("element is not invertible")
    k = pow(r0[0], -1, p)
    return mp.trim([k * c % p for c in t0])


def _mix_seed(*values: int) -> int:
    h = 0x2545F4914F6CDD1D
    for v in values:
        h = (h * 0x100000001B3 ^ (v & 0xFFFFFFFFFFFFFFFF)) % 2**64
    return h


class FqField:
    """The finite field F_p[t]/(g).

    ``FqField(p, g)`` validates p prime in [2, 2^64) and g monic irreducible.
    """

    __slots__ = ("p", "modulus", "m", "order", "_red")

    def __init__(self, p: int, modulus: Sequence[int]):
        modulus = tuple(c % p for c in modulus)
        if not (2 <= p < MAX_CHARACTERISTIC) or not is_prime(p):
            raise InvalidPrimeError(f"{p} is not a prime in [2, 2^64)")
        if not modulus or modulus[-1] != 1:
            raise ReducibleModulusError("modulus must be monic")
        m = len(modulus) - 1
        if not (1 <= m <= MAX_EXTENSION_DEGREE):
            raise ValueError(f"extension degree {m} outside [1, {MAX_EXTENSION_DEGREE}]")
        if m > 1 and not mp.is_irreducible(list(modulus), p):
            raise ReducibleModulusError(f"modulus {list(modulus)} reducible mod {p}")
        self.p = p
        self.modulus = modulus
        self.m = len(modulus) - 1
        self.order = p ** self.m
        self._red = [(-c) % p for c in modulus[: self.m]]

    # -- identity ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FqField) and self.p == other.p and self.modulus == other.modulus
        )

    def __hash__(self) -> int:
        return hash((self.p, self.modulus))

    def __repr__(self) -> str:
        return f"F_{self.order}" if self.m > 1 else f"F_{self.p}"

    # -- element construction ----------------------------------------------

    def element(self, coeffs: int | Sequence[int]) -> "FqElement":
        if isinstance(coeffs, int):
            rep = (coeffs % self.p,) + (0,) * (self.m - 1)
        else:
            c = [v % self.p for v in coeffs]
            if len(c) > self.m:
                c = mp.rem_p(c, list(self.modulus), self.p)
            rep = tuple(c) + (0,) * (self.m - len(c) if len(c) < self.m else 0)
            rep = tuple(rep[: self.m])
        return FqElement(self, rep)

    @property
    def zero(self) -> "FqElement":
        return self.element(0)

    @property
    def one(self) -> "FqElement":
        return self.element(1)

    def from_index(self, idx: int) -> "FqElement":
        rep = []
        for _ in range(self.m):
            idx, digit = divmod(idx, self.p)
            rep.append(digit)
        return FqElement(self, tuple(rep))

    def elements(self) -> Iterator["FqElement"]:
        for i in range(self.order):
            yield self.from_index(i)

    # -- raw tuple arithmetic ----------------------------------------------

    def _add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    def _mul(self, a, b):
        if self.m == 1:
            return (a[0] * b[0] % self.p,)
        return tuple(mp._mul_red(a, b, self._red, self.m, self.p))

    def _inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of zero")
        if self.m == 1:
            return (pow(a[0], -1, self.p),)
        inv = invert_mod(mp.trim(list(a)), list(self.modulus), self.p)
        return tuple(inv) + (0,) * (self.m - len(inv))

    def _pow(self, a, e: int):
        if e < 0:
            return self._pow(self._inv(a), -e)
        if self.m == 1:
            return (pow(a[0], e, self.p),)
        out = mp.powmod(mp.trim(list(a)), e, self.modulus, self.p)
        return tuple(out) + (0,) * (self.m - len(out))

    def _index(self, a) -> int:
        idx = 0
        for c in reversed(a):
            idx = idx * self.p + c
        return idx


@dataclass(frozen=True)
class FqElement:
    """An element of an :class:`FqField`, stored as a coefficient tuple."""

    field: FqField
    rep: tuple[int, ...]

    @property
    def is_zero(self) -> bool:
        return not any(self.rep)

    @property
    def index(self) -> int:
        return self.field._index(self.rep)

    def __add__(self, other: "FqElement") -> "FqElement":
        return FqElement(self.field, self.field._add(self.rep, other.rep))

    def __sub__(self, other: "FqElement") -> "FqElement":
        return FqElement(self.field, self.field._sub(self.rep, other.rep))

    def __neg__(self) -> "FqElement":
        return FqElement(self.field, self.field._neg(self.rep))

    def __mul__(self, other: "FqElement") -> "FqElement":
        return FqElement(self.field, self.field._mul(self.rep, other.rep))

    def __truediv__(self, other: "FqElement") -> "FqElement":
        return FqElement(self.field, self.field._mul(self.rep, self.field._inv(other.rep)))

    def __pow__(self, e: int) -> "FqElement":
        if e == 0:
            return self.field.one
        return FqElement(self.field, self.field._pow(self.rep, e))

    def inverse(self) -> "FqElement":
        return FqElement(self.field, self.field._inv(self.rep))

    def frobenius(self) -> "FqElement":
        return self ** self.field.p

    def __lt__(self, other: "FqElement") -> bool:
        return self.index < other.index

    def __str__(self) -> str:
        return _format_poly(mp.trim(list(self.rep))).replace("x", "t")

    def __repr__(self) -> str:
        return f"{self} in {self.field!r}"


@functools.lru_cache(maxsize=512)
def _residue_fq(p: int, modulus: tuple[int, ...]) -> FqField:
    return FqField(p, modulus)


def residue_field(pK) -> FqField:
    """The residue field F_p[t]/(local factor) at the ``spectrum.SplitPrime``
    pK, cached per point."""
    return _residue_fq(pK.p, pK.local_factor)


def residue_name(pK, gamma: RatPoly | int) -> FqElement:
    """Class of γ(α) mod (p, local_factor) at the point pK.

    Rational coefficients are allowed as long as their denominators are
    invertible mod p (embedding images need this).
    """
    if isinstance(gamma, int):
        gamma = RatPoly.over((gamma,))
    return residue_field(pK).element(reduce_mod_p(gamma, pK.p))


def fq_norm(x: FqElement, sub_deg: int) -> FqElement:
    """Norm from F_(p^m) onto its subfield of degree sub_deg: x^((q-1)/(p^d-1)).

    The result is returned as an element of the ambient field; it provably
    lies in the subfield (its p^sub_deg-power Frobenius fixes it), which is
    asserted here.  Reference oracle for ``plane._Projector.norm``.
    """
    fld = x.field
    if sub_deg < 1 or fld.m % sub_deg != 0:
        raise InvalidSubfieldError(f"degree {sub_deg} does not divide {fld.m}")
    if x.is_zero:
        return fld.zero
    e = (fld.order - 1) // (fld.p**sub_deg - 1)
    out = x**e
    assert out ** (fld.p**sub_deg) == out, "norm left the target subfield"
    return out


def fq_minpoly(x: FqElement) -> list[int]:
    """Minimal polynomial of x over F_p (monic, int coefficients).

    Product of (T - y) over the Frobenius orbit of x; the coefficients land
    in the prime field, which is asserted.  Reference oracle for
    ``spectrum.relative_degree``.
    """
    fld = x.field
    orbit = [x]
    y = x.frobenius()
    while y != x:
        orbit.append(y)
        y = y.frobenius()
    # multiply out over F_q, coefficients as elements
    coeffs = [fld.one]
    for y in orbit:
        nxt = [fld.zero] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] = nxt[i + 1] + c
            nxt[i] = nxt[i] - c * y
        coeffs = nxt
    out = []
    for c in coeffs:
        assert not any(c.rep[1:]), "minimal polynomial coefficient outside F_p"
        out.append(c.rep[0])
    return mp.trim(out)


def degree_pattern(f: list[int], p: int) -> tuple[int, ...]:
    """Multiset of irreducible-factor degrees of squarefree f mod p, read off
    ``modpoly.ddf`` without splitting any factor."""
    return tuple(d for g, d in mp.ddf(f, p) for _ in range(mp.deg(g) // d))


# ---------------------------------------------------------------------------
# polynomials over F_q: plain lists of FqElement, constant term first
# ---------------------------------------------------------------------------


def poly_over(field: FqField, coeffs: Iterable[int | Sequence[int] | FqElement]) -> list[FqElement]:
    out = []
    for c in coeffs:
        out.append(c if isinstance(c, FqElement) else field.element(c))
    return _ptrim(out)


def _ptrim(f: list[FqElement]) -> list[FqElement]:
    n = len(f)
    while n and f[n - 1].is_zero:
        n -= 1
    del f[n:]
    return f


def _pmul(f, g):
    if not f or not g:
        return []
    fld = f[0].field
    out = [fld.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if not a.is_zero:
            for j, b in enumerate(g):
                out[i + j] = out[i + j] + a * b
    return _ptrim(out)


def _psub(f, g):
    n = max(len(f), len(g))
    fld = (f or g)[0].field
    out = [fld.zero] * n
    for i, a in enumerate(f):
        out[i] = a
    for i, b in enumerate(g):
        out[i] = out[i] - b
    return _ptrim(out)


def _pmonic(f):
    if not f or f[-1] == f[-1].field.one:
        return list(f)
    inv = f[-1].inverse()
    return _ptrim([c * inv for c in f])


def _pdivmod(f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    fld = g[0].field
    inv = g[-1].inverse()
    rem = list(f)
    dg = len(g) - 1
    quo = [fld.zero] * max(len(f) - dg, 0)
    for k in range(len(rem) - 1 - dg, -1, -1):
        q = rem[k + dg] * inv
        if not q.is_zero:
            quo[k] = q
            for i in range(dg + 1):
                rem[k + i] = rem[k + i] - q * g[i]
    del rem[dg:]
    return _ptrim(quo), _ptrim(rem)


def _pgcd(f, g):
    f, g = list(f), list(g)
    while g:
        f, g = g, _pdivmod(f, g)[1]
    return _pmonic(f)


def _ppowmod(f, e: int, mod):
    fld = mod[0].field
    result = [fld.one]
    base = _pdivmod(f, mod)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, base), mod)[1]
        e >>= 1
        if e:
            base = _pdivmod(_pmul(base, base), mod)[1]
    return result


def _pderiv(f):
    out = []
    for i, c in enumerate(f[1:], start=1):
        out.append(c * c.field.element(i))
    return _ptrim(out)


def _ppolykey(f) -> tuple:
    return (len(f) - 1, tuple(c.index for c in f))


def fq_roots(f: Sequence[FqElement]) -> list[FqElement]:
    """Distinct roots of f in its coefficient field, in canonical order.

    Reference oracle for ``spectrum.compatible_root_count``, which counts
    the same roots by DDF and gcd over F_p without building field elements.
    """
    f = _ptrim(list(f))
    if not f:
        raise ValueError("zero polynomial has every root")
    fld = f[0].field
    if len(f) - 1 == 0:
        return []
    if fld.order <= 1024:
        return [x for x in fld.elements() if _peval(f, x).is_zero]
    fm = _pmonic(f)
    xq = _ppowmod([fld.zero, fld.one], fld.order, fm)
    lin = _pgcd(_psub(xq, [fld.zero, fld.one]), fm)
    if len(lin) - 1 == 0:
        return []
    out = []
    for fac, _ in _edf(lin, 1, _mix_seed(fld.p, *(c.index for c in f))):
        out.append(-fac[0])
    return sorted(out)


def _peval(f, x: FqElement) -> FqElement:
    acc = x.field.zero
    for c in reversed(f):
        acc = acc * x + c
    return acc


def fq_factor(f: Sequence[FqElement]) -> list[tuple[tuple[FqElement, ...], int]]:
    """Monic irreducible factors of f with multiplicities, canonically ordered.

    Squarefree decomposition, then distinct-degree, then seeded
    Cantor-Zassenhaus equal-degree splitting (trace construction in
    characteristic 2).  Order: by (degree, element-index tuple).  The unit
    leading coefficient is discarded; callers factor monic inputs.

    Reference oracle for ``modpoly.factor``, which gives the same list over
    a prime field on plain coefficient lists.
    """
    f = _ptrim(list(f))
    if not f or len(f) == 1:
        raise ValueError("factorization needs degree >= 1")
    fld = f[0].field
    fm = _pmonic(f)
    seed = _mix_seed(fld.p, fld.m, *(c.index for c in fm))
    out = []
    for sq, mult in _sff(fm):
        for part, d in _ddf(sq):
            for fac, _d in _edf(part, d, seed):
                out.append((tuple(fac), mult))
    out.sort(key=lambda fm_: _ppolykey(list(fm_[0])))
    check = [fld.one]
    for fac, mult in out:
        for _ in range(mult):
            check = _pmul(check, list(fac))
    assert check == fm, "factor re-expansion mismatch"
    return out


def _sff(f) -> list[tuple[list[FqElement], int]]:
    """Squarefree decomposition of monic f (Musser/Yun adapted to char p)."""
    fld = f[0].field
    p = fld.p
    out = []
    c = _pgcd(f, _pderiv(f))
    w = _pdivmod(f, c)[0]
    i = 1
    while len(w) > 1:
        y = _pgcd(w, c)
        fac = _pdivmod(w, y)[0]
        if len(fac) > 1:
            out.append((fac, i))
        w = y
        c = _pdivmod(c, y)[0]
        i += 1
    if len(c) > 1:
        # c is a p-th power: take the p-th root coefficientwise
        root = []
        for j in range(0, len(c), p):
            root.append(c[j] ** (fld.order // p))
        for g, mult in _sff(_ptrim(root)):
            out.append((g, mult * p))
    return out


def _ddf(f) -> list[tuple[list[FqElement], int]]:
    """Distinct-degree split of squarefree monic f: list of (product, degree)."""
    fld = f[0].field
    out = []
    v = list(f)
    d = 1
    x = [fld.zero, fld.one]
    h = _ppowmod(x, fld.order, v)
    while len(v) - 1 >= 2 * d:
        g = _pgcd(_psub(h, x), v)
        if len(g) > 1:
            out.append((g, d))
            v = _pdivmod(v, g)[0]
            if len(v) == 1:
                break
            h = _pdivmod(h, v)[1]
        d += 1
        if len(v) - 1 >= 2 * d:
            h = _ppowmod(h, fld.order, v)
    if len(v) > 1:
        out.append((v, len(v) - 1))
    return out


def _edf(part, d: int, seed: int) -> list[tuple[list[FqElement], int]]:
    """Equal-degree factorization of a product of degree-d irreducibles."""
    n = len(part) - 1
    assert n % d == 0
    if n == 0:
        return []
    if n == d:
        return [(list(part), d)]
    fld = part[0].field
    rng = random.Random(_mix_seed(seed, n, d, *(c.index for c in part)))
    while True:
        r = [fld.from_index(rng.randrange(fld.order)) for _ in range(n)]
        r = _ptrim(r)
        if len(r) - 1 < 1:
            continue
        if fld.p == 2:
            # additive trace of r to F_2 within the residue algebra
            t = list(r)
            acc = list(r)
            for _ in range(d * fld.m - 1):
                t = _ppowmod(t, 2, part)
                acc = _padd(acc, t)
            g = _pgcd(acc, part)
        else:
            e = (fld.order**d - 1) // 2
            g = _pgcd(_psub(_ppowmod(r, e, part), [fld.one]), part)
        if 0 < len(g) - 1 < n:
            left = _edf(g, d, seed + 1)
            right = _edf(_pdivmod(part, g)[0], d, seed + 2)
            return left + right


def _padd(f, g):
    n = max(len(f), len(g))
    fld = (f or g)[0].field
    out = [fld.zero] * n
    for i, a in enumerate(f):
        out[i] = a
    for i, b in enumerate(g):
        out[i] = out[i] + b
    return _ptrim(out)


# ---------------------------------------------------------------------------
# polynomials over Q by Fraction Horner steps, on RatPoly.coeffs
# ---------------------------------------------------------------------------


def rat_add(a: RatPoly, b: RatPoly) -> RatPoly:
    x, y = a.coeffs, b.coeffs
    if len(x) < len(y):
        x, y = y, x
    out = list(x)
    for i, c in enumerate(y):
        out[i] += c
    return RatPoly.from_coeffs(out)


def rat_mul(a: RatPoly, b: RatPoly) -> RatPoly:
    x, y = a.coeffs, b.coeffs
    if not x or not y:
        return RatPoly(())
    out = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, cx in enumerate(x):
        if not cx:
            continue
        for j, cy in enumerate(y):
            out[i + j] += cx * cy
    return RatPoly.from_coeffs(out)


def rat_divmod(a: RatPoly, b: RatPoly) -> tuple[RatPoly, RatPoly]:
    """Exact polynomial long division over Q."""
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(a.coeffs)
    dd = b.degree
    lead = b.coeffs[-1]
    quo = [Fraction(0)] * max(len(rem) - dd, 0)
    while len(rem) - 1 >= dd:
        k = len(rem) - 1 - dd
        q = rem[-1] / lead
        quo[k] = q
        for i, c in enumerate(b.coeffs):
            rem[k + i] -= q * c
        mp.trim(rem)
    return RatPoly.from_coeffs(quo), RatPoly.from_coeffs(rem)


def rat_mod(a: RatPoly, b: RatPoly) -> RatPoly:
    return rat_divmod(a, b)[1]


def rat_compose(outer: RatPoly, inner: RatPoly) -> RatPoly:
    """outer(inner(x)) by Horner over Q."""
    acc = RatPoly(())
    for c in reversed(outer.coeffs):
        acc = rat_add(rat_mul(acc, inner), RatPoly.of(c))
    return acc


def rat_compose_mod(outer: RatPoly, inner: RatPoly, modulus: RatPoly) -> RatPoly:
    """outer(inner(x)) reduced mod modulus at every Horner step."""
    acc = RatPoly(())
    for c in reversed(outer.coeffs):
        acc = rat_mod(rat_add(rat_mul(acc, inner), RatPoly.of(c)), modulus)
    return acc
