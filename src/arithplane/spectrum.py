"""Points over a rational prime: splitting, Pi/Psi predicates.

For a field K = Z[α] in the lattice, the points over a rational prime p are
the irreducible factors of f_K mod p, found by ``modpoly.factor`` on plain
coefficient lists over F_p.  No residue field is built here: ``plane``
carries fibre values as element indices on lanes, and the residue fields
and naming maps of ``finitefield`` are the tests' reference for both.
``points_over`` walks the points of a field over the primes up to a bound
that a set of extensions can evaluate, for the sequential checkers; each
sieved range loses its excluded primes in one ``ExclusionRule.excluded`` call.

Two families of predicates live here.  Pointwise ones relate a point of K
to a point of L along a declared embedding, each by one computation over
F_p: ``lies_over`` (g_L(h) = 0 mod (p, g_K)) and ``relative_degree`` (a
ratio of residue degrees); their oracles evaluate g_L at
``finitefield.residue_name(pK, h)`` and take ``finitefield.fq_minpoly`` of
that name.  ``plane`` builds its projections on ``lies_over`` too.
Fibrewise ones quantify over all points of K above a fixed point of L:
``in_pi`` (some point has relative degree 1) and ``in_psi`` (all do).  Both
threshold one count, the roots of f_K in the residue field F_(p^d) of the
base point that restrict to it (``compatible_root_count``): one power
x^(p^d) mod f_K and two gcds over F_p, whatever d is, and no residue field
or field element is built.
``in_pi_absolute``/``in_psi_absolute`` re-derive them from the full
splitting and ``relative_degree`` as an independent cross-check.

Ramified primes (dividing a discriminant) are represented honestly as
points with ``ramified_flag`` set, but every predicate refuses them: the
residue data of a non-maximal order at such p does not determine the
answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from . import modpoly as mp
from .errors import InvalidPrimeError, NotLyingOverError, RamifiedPrimeError
from .intpoly import _format_poly, reduce_mod_p
from .lattice import ExclusionRule, Extension, NumberField
from .sieve import MAX_CHARACTERISTIC, is_prime, prime_range, ranges


@dataclass(frozen=True)
class SplitPrime:
    """One point of K over the rational prime p."""

    field: str
    p: int
    local_factor: tuple[int, ...]
    e: int
    ramified_flag: bool

    @property
    def residue_degree(self) -> int:
        return len(self.local_factor) - 1

    @property
    def order(self) -> int:
        """Size of the residue field, p^residue_degree."""
        return self.p ** self.residue_degree

    def __str__(self) -> str:
        tag = ", ramified" if self.ramified_flag else ""
        return f"({self.p}, {_format_poly(self.local_factor, 't')}) in {self.field}{tag}"


def split_prime(field: NumberField, p: int) -> list[SplitPrime]:
    """All points of `field` over p, in canonical (degree, value) order."""
    if not (p < MAX_CHARACTERISTIC and is_prime(p)):
        raise InvalidPrimeError(f"{p} is not a prime in [2, 2^64)")
    fbar = reduce_mod_p(field.poly, p)
    factors = mp.factor(fbar, p)
    check = [1]
    for g, mult in factors:
        for _ in range(mult):
            check = mp.mul(check, g, p)
    assert check == mp.monic(fbar, p), "factor re-expansion mismatch"
    ramified = field.disc % p == 0
    return [
        SplitPrime(field=field.name, p=p, local_factor=tuple(g), e=mult,
                   ramified_flag=ramified)
        for g, mult in factors
    ]


def points_over(field: NumberField, n: int, exts: Iterable[Extension]) -> Iterator[SplitPrime]:
    """Points of `field` over the primes p <= n not excluded for any of exts,
    ascending in p and in ``split_prime`` order over each p: the walk of the
    pi-intersection, pullback, norm-fibre and section-independence checkers."""
    rule = ExclusionRule.of(exts)
    for lo, hi in ranges(n):
        primes = prime_range(lo, hi)
        for p in primes[~rule.excluded(primes)].tolist():
            yield from split_prime(field, p)


def lies_over(pK: SplitPrime, pL: SplitPrime, emb) -> bool:
    """Does the point of K restrict to the point of L along emb?

    True iff pL's local factor vanishes at the embedded generator mod pK,
    i.e. g_L(h) = 0 mod (p, g_K): one composition over F_p.  Raises
    ``NotLyingOverError`` when emb does not run from pL's field to pK's or
    the points sit over different rational primes.
    """
    if emb.src != pL.field or emb.dst != pK.field:
        raise NotLyingOverError(
            f"embedding {emb.src} -> {emb.dst} does not relate points of "
            f"{pL.field} and {pK.field}"
        )
    if pK.p != pL.p:
        raise NotLyingOverError(f"points sit over different rational primes {pK.p}, {pL.p}")
    p = pK.p
    return not mp.compose_mod(list(pL.local_factor), reduce_mod_p(emb.h, p),
                              list(pK.local_factor), p)


def relative_degree(pK: SplitPrime, pL: SplitPrime, emb) -> int:
    """Residue-field extension degree [F_pK : F_pL]: the image of h in F_pK
    is a root of the irreducible g_L, so it is deg pK / deg pL."""
    if not lies_over(pK, pL, emb):
        raise NotLyingOverError(f"{pK} does not lie over {pL}")
    return pK.residue_degree // pL.residue_degree


def primes_over(ext: Extension, pL: SplitPrime) -> list[SplitPrime]:
    """Points of ext.field restricting to pL, in canonical order."""
    return [pK for pK in split_prime(ext.field, pL.p) if lies_over(pK, pL, ext.emb)]


# ---------------------------------------------------------------------------
# fibrewise predicates
# ---------------------------------------------------------------------------


def _refuse_excluded(ext: Extension, pL: SplitPrime) -> None:
    if pL.field != ext.base.name:
        raise NotLyingOverError(
            f"point of {pL.field} is not a base point for {ext.name}"
        )
    if ext.is_excluded(pL.p):
        raise RamifiedPrimeError(f"prime {pL.p} is excluded for {ext.name}")


def compatible_root_count(ext: Extension, pL: SplitPrime) -> int:
    """Number of roots of f_K in F_pL whose restriction names pL.

    Each such root is a point of K over pL with relative degree 1, so this
    count is what in_pi/in_psi threshold.  The roots of f_K mod p in
    F_pL = F_(p^d), d = deg pL, are those of G = gcd(f_K, x^(p^d) - x), the
    product of the irreducible factors whose degree divides d (Lidl and
    Niederreiter, *Finite Fields*, Thm 3.20).  A factor φ holds a compatible
    root exactly when φ divides g_L(h), and then it holds exactly one: its
    roots x have F_p(x) ⊇ F_p(h(x)), which is F_pL as g_L is irreducible of
    degree d, so deg φ = d.  The count is deg gcd(G, g_L(h)) / d.
    """
    _refuse_excluded(ext, pL)
    p, d = pL.p, pL.residue_degree
    fbar = reduce_mod_p(ext.field.poly, p)
    part = mp.gcd_p(mp.sub(mp.xpow_mod(p**d, fbar, p), [0, 1], p), fbar, p)
    image = mp.compose_mod(list(pL.local_factor), reduce_mod_p(ext.emb.h, p), part, p)
    return mp.deg(mp.gcd_p(image, part, p)) // d


def in_pi(ext: Extension, pL: SplitPrime) -> bool:
    """Some point of K over pL has relative degree 1."""
    return compatible_root_count(ext, pL) >= 1


def in_psi(ext: Extension, pL: SplitPrime) -> bool:
    """Every point of K over pL has relative degree 1 (full splitting)."""
    return compatible_root_count(ext, pL) == ext.rel_degree


def in_pi_absolute(ext: Extension, pL: SplitPrime) -> bool:
    """Slow route for in_pi via the full splitting of K; cross-check only."""
    _refuse_excluded(ext, pL)
    return any(relative_degree(pK, pL, ext.emb) == 1 for pK in primes_over(ext, pL))


def in_psi_absolute(ext: Extension, pL: SplitPrime) -> bool:
    """Slow route for in_psi via the full splitting of K; cross-check only."""
    _refuse_excluded(ext, pL)
    above = primes_over(ext, pL)
    assert above, "an unramified base point always has points above it"
    return all(relative_degree(pK, pL, ext.emb) == 1 for pK in above)


def fingerprint(pL: SplitPrime, family: Iterable[Extension]) -> tuple[bool, ...]:
    """in_pi membership bits of pL across an ordered family of extensions."""
    bits = []
    for ext in family:
        try:
            bits.append(in_pi(ext, pL))
        except RamifiedPrimeError:
            raise RamifiedPrimeError(
                f"prime {pL.p} is excluded for family member {ext.name}"
            ) from None
    return tuple(bits)

