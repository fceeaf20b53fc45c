"""The declared lattice of number fields: parsing, validation, navigation.

A lattice is a set of monogenic fields Z[α] given by monic integer
polynomials, together with declared embeddings (the image of a source
generator as a rational polynomial in the destination generator),
automorphisms, Galois marks, and declared Galois closures.  The rational
base field Q is implicit in every lattice as the degree-1 field with
defining polynomial x, zero embedding into everything, and identity
self-embeddings throughout.

Nothing is computed over Q beyond exact polynomial identities: closures and
composita are *declared* and the loader verifies each declaration
(root-map identities, group closure, degree bookkeeping) rather than
deriving it.  Predicates downstream only ever evaluate at primes away from
each pair's excluded set — primes dividing a discriminant.
``validate_lattice`` returns the report text, built straight from the
loaded config: each field, then each pair with its excluded set.

Every map identity the loader checks (each embedding and automorphism is a
root map, declared two-step embeddings compose to the declared one-step
map, each automorphism set is closed, has the identity and finite orders)
is an exact composition mod a field polynomial, done by
``intpoly.Composer`` over Z.  ``_assemble`` keeps one composer per field
for the whole load, so the power table of a map built to validate it also
serves the transitivity, closure and order loops.  Before those, the
embeddings between distinct fields must form no cycle:
``graphlib.TopologicalSorter`` finds one, and the refusal prints it in
embedding order.  The checks run in a fixed order and the first failure is
the error raised.

Configuration format (line-oriented, ``#`` comments)::

    field <name>
      poly c0 c1 ... cn          # constant-first integers, cn = 1
    embed <src> -> <dst>
      map c0 c1 ...              # tokens integer or num/den
    auto <field>
      map c0 c1 ...
    closure <field> -> <galois-field-name>
    galois <field>               # assertion: #automorphisms == degree
    trusted <field>              # skip the irreducibility certificate, but refuse an
                                 # integer root: reducibility is caught to degree 3 only

Unknown directives are errors, not warnings.  Names may be declared after
first use; resolution happens once the whole document is read.
"""

from __future__ import annotations

import graphlib
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable

import numpy as np

from . import modpoly as mp
from .errors import (
    AutomorphismGroupError,
    EmbeddingInvalidError,
    FactorizationBudgetError,
    LatticeSyntaxError,
    UnknownFieldError,
)
from .intpoly import Composer, RatPoly, discriminant, reduce_mod_p
from .sieve import iroot, is_prime, stream_primes

CERTIFICATE_PRIME_BOUND = 200

BASE_NAME = "Q"


@dataclass(frozen=True)
class NumberField:
    name: str
    poly: RatPoly
    disc: int
    trusted: bool = False
    certificate_prime: int | None = None

    @property
    def degree(self) -> int:
        return self.poly.degree


@dataclass(frozen=True)
class Embedding:
    src: str
    dst: str
    h: RatPoly


@dataclass(frozen=True)
class Automorphism:
    field: str
    h: RatPoly

    def __str__(self) -> str:
        return f"{self.field}: x -> {self.h}"


@dataclass(frozen=True)
class Extension:
    """A relative extension K/L realized by a declared embedding L -> K."""

    field: NumberField
    base: NumberField
    emb: Embedding

    @property
    def rel_degree(self) -> int:
        return self.field.degree // self.base.degree

    @property
    def name(self) -> str:
        return f"{self.field.name}/{self.base.name}"

    @cached_property
    def exclusion(self) -> "ExclusionRule":
        """The exclusion rule of this extension alone."""
        return ExclusionRule.of((self,))

    def excluded_primes(self) -> frozenset[int]:
        return frozenset(q for d in self.exclusion.discs for q in prime_factors(d))

    def is_excluded(self, p: int) -> bool:
        return self.exclusion.excludes(p)


@dataclass(frozen=True)
class ExclusionRule:
    """Which rational primes a set of extensions cannot evaluate: those
    dividing the discriminant of any field or base involved.

    A declared map writes an algebraic integer of its destination K as
    h(θ), θ the generator of K, so the denominator of h divides the index
    of Z[θ] in the ring of integers of K, whose square divides disc f_K: a
    denominator prime is excluded with the discriminant.  Primes are tested
    by divisibility against the distinct discriminants, so nothing is
    factored and any integer serves.
    """

    discs: tuple[int, ...]

    @classmethod
    def of(cls, exts: Iterable[Extension]) -> "ExclusionRule":
        discs = {d: None for ext in exts for d in (ext.field.disc, ext.base.disc)
                 if d not in (1, -1)}
        return cls(tuple(discs))

    def excludes(self, p: int) -> bool:
        return any(d % p == 0 for d in self.discs)

    def excluded(self, primes: np.ndarray) -> np.ndarray:
        """The rule on an int64 array of primes: True where p is excluded."""
        P = mp.lanes(primes)
        out = np.zeros(len(P), dtype=bool)
        for d in self.discs:
            out |= mp.lane_mod(d, P) == 0
        return out


_TRIAL_BOUND = 1000
_RHO_STEPS = 1 << 22  # a factor near 10^12 takes about 2 * 10^6 steps


def prime_factors(n: int) -> list[int]:
    """Distinct prime factors of |n| (n nonzero), ascending.

    Trial division below ``_TRIAL_BOUND``, then the cofactor is split until
    every part passes ``is_prime`` (Baillie-PSW): a perfect power by
    its integer root, anything else by Pollard-Brent rho.  Rho's effort
    grows with the square root of the smallest prime factor of the part it
    splits, not with the square root of n, and is capped at ``_RHO_STEPS``
    steps per part: past that, ``FactorizationBudgetError`` names the part
    left unfactored.
    """
    n = abs(n)
    if n == 0:
        raise ValueError("0 has no prime factorization")
    out = set()
    for d in range(2, _TRIAL_BOUND):
        if n % d == 0:
            out.add(d)
            while n % d == 0:
                n //= d
    parts = [n] if n > 1 else []
    while parts:
        m = parts.pop()
        if is_prime(m):
            out.add(m)
            continue
        root = _perfect_root(m)
        parts += [root] if root else [d := _rho_brent(m), m // d]
    return sorted(out)


def _perfect_root(n: int) -> int | None:
    """r with r^k = n for some k >= 2, or None.

    n has no prime factor below _TRIAL_BOUND > 2^9, so k <= log2(n) / 9.
    """
    for k in range(2, n.bit_length() // 9 + 1):
        r = iroot(n, k)
        if r**k == n:
            return r
    return None


def _rho_brent(n: int) -> int:
    """A proper factor of a composite n without factors below _TRIAL_BOUND.

    Brent's cycle-finding variant of Pollard rho on x -> x^2 + c, with the
    gcds batched over runs of 128 steps; a batch that overshoots to n is
    replayed one step at a time, and a c whose cycle closes mod n is
    dropped for the next.  Raises ``FactorizationBudgetError`` rather than
    take more than ``_RHO_STEPS`` steps over all c.
    """
    c = steps = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r  # r steps to move x, at most r more to search
            if steps > _RHO_STEPS:
                raise FactorizationBudgetError(n, _RHO_STEPS)
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


class LatticeConfig:
    """Immutable (after load) view of the declared lattice."""

    def __init__(self, fields, embeddings, automorphisms, closures, galois_marks):
        self.fields: dict[str, NumberField] = fields
        self.embeddings: dict[tuple[str, str], Embedding] = embeddings
        self.automorphisms: dict[str, tuple[Automorphism, ...]] = automorphisms
        self.closures: dict[str, str] = closures
        self.galois_marks: frozenset[str] = frozenset(galois_marks)

    def field(self, name: str) -> NumberField:
        try:
            return self.fields[name]
        except KeyError:
            raise UnknownFieldError(f"field {name!r} is not declared") from None

    def embedding(self, src: str, dst: str) -> Embedding:
        """Declared embedding src -> dst, or an implicit one (Q -> K, K -> K)."""
        fs, fd = self.field(src), self.field(dst)
        if (src, dst) in self.embeddings:
            return self.embeddings[(src, dst)]
        if src == dst:
            return Embedding(src, dst, RatPoly.of(0, 1))
        if src == BASE_NAME:
            return Embedding(src, dst, RatPoly.of())
        raise UnknownFieldError(
            f"no declared embedding {src} -> {dst} (degrees {fs.degree}, {fd.degree})"
        )

    def extension(self, spec: str | tuple[str, str]) -> Extension:
        """Extension from a 'K/L' string or a (field, base) pair."""
        if isinstance(spec, str):
            if spec.count("/") != 1:
                raise UnknownFieldError(f"extension spec {spec!r} is not of the form K/L")
            top, base = (part.strip() for part in spec.split("/"))
        else:
            top, base = spec
        emb = self.embedding(base, top)
        return Extension(self.field(top), self.field(base), emb)

    def autos(self, name: str) -> tuple[Automorphism, ...]:
        self.field(name)
        return self.automorphisms.get(name, ())

    def automorphisms_fixing(self, name: str, base: str) -> tuple[Automorphism, ...]:
        """Declared automorphisms of `name` that fix the image of `base`."""
        emb = self.embedding(base, name)
        fmod = Composer(self.field(name).poly)
        return tuple(s for s in self.autos(name) if fmod.compose_mod(emb.h, s.h) == emb.h)

    def closure_of(self, name: str) -> str | None:
        self.field(name)
        return self.closures.get(name)

    def is_galois(self, name: str) -> bool:
        return name in self.galois_marks


def _base_field() -> NumberField:
    return NumberField(BASE_NAME, RatPoly.over((0, 1)), disc=1, trusted=True,
                       certificate_prime=None)


def _parse_map_token(tok: str, lineno: int) -> Fraction:
    try:
        if "/" in tok:
            num, den = tok.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(tok))
    except (ValueError, ZeroDivisionError):
        raise LatticeSyntaxError(f"bad coefficient token {tok!r}", lineno) from None


def load_lattice(text: str) -> LatticeConfig:
    """Parse and fully validate a lattice configuration document."""
    raw_fields: dict[str, tuple[list[int], int]] = {}  # name -> (coeffs, poly_line)
    raw_embeds: list[tuple[str, str, RatPoly, int]] = []
    raw_autos: list[tuple[str, RatPoly, int]] = []
    raw_closures: list[tuple[str, str, int]] = []
    raw_galois: list[tuple[str, int]] = []
    raw_trusted: list[tuple[str, int]] = []

    split = ((n, raw.split("#", 1)[0].split()) for n, raw in enumerate(text.splitlines(), 1))
    lines = ((lineno, toks) for lineno, toks in split if toks)  # the non-blank lines

    def body(want: str, label: str) -> tuple[int, list[Fraction]]:
        """The next line, which the directive ``label`` needs: its number and coefficients."""
        lineno, toks = next(lines, (None, None))
        if lineno is None:
            raise LatticeSyntaxError(f"document ends while '{label}' still needs a '{want}' line")
        if toks[0] != want:
            raise LatticeSyntaxError(f"expected '{want}' line for preceding '{label}'", lineno)
        coeffs = [_parse_map_token(t, lineno) for t in toks[1:]]
        if not coeffs:
            raise LatticeSyntaxError("empty coefficient list", lineno)
        return lineno, coeffs

    for lineno, toks in lines:
        head = toks[0]
        if head == "field":
            if len(toks) != 2:
                raise LatticeSyntaxError("usage: field <name>", lineno)
            name = toks[1]
            if name == BASE_NAME:
                raise LatticeSyntaxError(f"{BASE_NAME} is implicit and cannot be redeclared", lineno)
            if name in raw_fields:
                raise LatticeSyntaxError(f"duplicate field {name!r}", lineno)
            poly_line, coeffs = body("poly", f"field {name}")
            if any(c.denominator != 1 for c in coeffs):
                raise LatticeSyntaxError("poly coefficients must be integers", poly_line)
            ints = [int(c) for c in coeffs]
            if len(ints) < 2 or ints[-1] != 1:
                raise LatticeSyntaxError(
                    "poly must be monic of degree >= 1 (constant first, last = 1)", poly_line)
            raw_fields[name] = (ints, poly_line)
        elif head == "embed":
            if len(toks) != 4 or toks[2] != "->":
                raise LatticeSyntaxError("usage: embed <src> -> <dst>", lineno)
            map_line, coeffs = body("map", f"embed {toks[1]} -> {toks[3]}")
            raw_embeds.append((toks[1], toks[3], RatPoly.from_coeffs(coeffs), map_line))
        elif head == "auto":
            if len(toks) != 2:
                raise LatticeSyntaxError("usage: auto <field>", lineno)
            map_line, coeffs = body("map", f"auto {toks[1]}")
            raw_autos.append((toks[1], RatPoly.from_coeffs(coeffs), map_line))
        elif head == "closure":
            if len(toks) != 4 or toks[2] != "->":
                raise LatticeSyntaxError("usage: closure <field> -> <galois-field>", lineno)
            raw_closures.append((toks[1], toks[3], lineno))
        elif head == "galois":
            if len(toks) != 2:
                raise LatticeSyntaxError("usage: galois <field>", lineno)
            raw_galois.append((toks[1], lineno))
        elif head == "trusted":
            if len(toks) != 2:
                raise LatticeSyntaxError("usage: trusted <field>", lineno)
            raw_trusted.append((toks[1], lineno))
        elif head in ("poly", "map"):
            raise LatticeSyntaxError(f"'{head}' line without a preceding directive", lineno)
        else:
            raise LatticeSyntaxError(f"unknown directive {head!r}", lineno)

    return _assemble(raw_fields, raw_embeds, raw_autos, raw_closures, raw_galois, raw_trusted)


def _integer_root(poly: RatPoly) -> int | None:
    """An integer root of monic poly, or None: each has |r| < B = 1 + max|c_i|,
    so it is the lift to (-p/2, p/2) of a root mod a prime p > 2B."""
    p = 2 * (1 + max(abs(c) for c in poly.num)) + 1
    while not is_prime(p):
        p += 1
    fbar = reduce_mod_p(poly, p)
    if not mp.root_count(fbar, p):
        return None  # the common case, without a full factorization
    for g, _ in mp.factor(fbar, p):
        if mp.deg(g) == 1:
            r = (p // 2 - g[0]) % p - p // 2  # the root -g[0], lifted
            if sum(c * r**i for i, c in enumerate(poly.num)) == 0:
                return r
    return None


def _assemble(raw_fields, raw_embeds, raw_autos, raw_closures, raw_galois, raw_trusted):
    trusted_names = {}
    for name, lineno in raw_trusted:
        if name not in raw_fields:
            raise LatticeSyntaxError(f"trusted: unknown field {name!r}", lineno)
        trusted_names[name] = lineno

    fields: dict[str, NumberField] = {BASE_NAME: _base_field()}
    for name, (ints, poly_line) in raw_fields.items():
        poly = RatPoly.over(ints)
        cert = None
        if name not in trusted_names:
            for p in stream_primes(CERTIFICATE_PRIME_BOUND):
                fbar = reduce_mod_p(poly, p)
                if len(fbar) == len(poly.num) and mp.is_irreducible(fbar, p):
                    cert = p
                    break
            if cert is None:
                raise LatticeSyntaxError(
                    f"no irreducibility certificate for {name!r} mod any prime <= "
                    f"{CERTIFICATE_PRIME_BOUND}; declare 'trusted {name}' if intended",
                    poly_line,
                )
        elif (root := _integer_root(poly)) is not None:
            raise LatticeSyntaxError(f"trusted field {name!r} has the integer root {root}, "
                                     "so its polynomial is reducible", poly_line)
        fields[name] = NumberField(
            name, poly, disc=discriminant(poly), trusted=name in trusted_names, certificate_prime=cert
        )

    # one composer per field: a map's power table, built when the map is
    # validated, serves every later composition with it as the inner map
    composer = {name: Composer(f.poly) for name, f in fields.items()}

    def need(name, lineno):
        if name not in fields:
            raise LatticeSyntaxError(f"unknown field {name!r}", lineno)
        return fields[name]

    embeddings: dict[tuple[str, str], Embedding] = {}
    for src, dst, h, lineno in raw_embeds:
        fs, fd = need(src, lineno), need(dst, lineno)
        if src == dst:
            if h != RatPoly.of(0, 1):
                raise EmbeddingInvalidError(f"self-embedding {src} -> {dst} must be the identity")
            continue
        if (src, dst) in embeddings:
            raise LatticeSyntaxError(f"duplicate embedding {src} -> {dst}", lineno)
        if fd.degree % fs.degree != 0:
            raise EmbeddingInvalidError(
                f"embed {src} -> {dst}: degree {fs.degree} does not divide {fd.degree}"
            )
        if h.degree >= fd.degree:
            raise EmbeddingInvalidError(
                f"embed {src} -> {dst}: embedding polynomial must have degree < deg f_dst"
            )
        if not composer[dst].vanishes(fs.poly, h):
            raise EmbeddingInvalidError(
                f"embed {src} -> {dst}: map does not send a root of {fs.poly} into {fd.poly}"
            )
        embeddings[(src, dst)] = Embedding(src, dst, h)

    # acyclicity over distinct names
    preds: dict[str, list[str]] = {}
    for src, dst in embeddings:
        preds.setdefault(dst, []).append(src)
    try:
        graphlib.TopologicalSorter(preds).prepare()
    except graphlib.CycleError as exc:
        raise EmbeddingInvalidError(f"embedding cycle {' -> '.join(exc.args[1])}") from None

    # declared two-step compositions must match declared one-step maps
    for (a, b), e_ab in embeddings.items():
        for (b2, c), e_bc in embeddings.items():
            if b2 != b or (a, c) not in embeddings:
                continue
            composed = composer[c].compose_mod(e_ab.h, e_bc.h)
            if composed != embeddings[(a, c)].h:
                raise EmbeddingInvalidError(
                    f"embeddings {a} -> {b} -> {c} compose to {composed}, but "
                    f"{a} -> {c} is declared as {embeddings[(a, c)].h}"
                )

    automorphisms: dict[str, list[Automorphism]] = {}
    for name, h, lineno in raw_autos:
        fld = need(name, lineno)
        if h.degree >= fld.degree or not composer[name].vanishes(fld.poly, h):
            raise AutomorphismGroupError(f"auto {name}: {h} is not a root map of {fld.poly}")
        automorphisms.setdefault(name, []).append(Automorphism(name, h))

    for name, sigmas in automorphisms.items():
        fmod = composer[name]
        seen = {s.h for s in sigmas}
        if len(seen) != len(sigmas):
            raise AutomorphismGroupError(f"auto {name}: duplicate map declared")
        identity = RatPoly.of(0, 1)
        if identity not in seen:
            raise AutomorphismGroupError(f"auto {name}: identity map is not declared")
        invertible = set()
        for s in sigmas:
            for t in sigmas:
                comp = fmod.compose_mod(s.h, t.h)
                if comp not in seen:
                    raise AutomorphismGroupError(
                        f"auto {name}: composition {s.h} o {t.h} = {comp} is not declared"
                    )
                if comp == identity:
                    invertible.add(s.h)
        # in a finite set closed under composition, s has finite order
        # exactly when s o t is the identity for some t of the set
        for s in sigmas:
            if s.h not in invertible:
                raise AutomorphismGroupError(f"auto {name}: {s.h} has no finite order")

    galois_marks = set()
    for name, lineno in raw_galois:
        fld = need(name, lineno)
        count = len(automorphisms.get(name, []))
        if count != fld.degree:
            raise AutomorphismGroupError(
                f"galois {name}: {count} automorphisms declared, degree is {fld.degree}"
            )
        galois_marks.add(name)

    closures: dict[str, str] = {}
    for src, dst, lineno in raw_closures:
        need(src, lineno)
        need(dst, lineno)
        if src in closures:
            raise LatticeSyntaxError(f"duplicate closure for {src!r}", lineno)
        if dst not in galois_marks:
            raise AutomorphismGroupError(f"closure {src} -> {dst}: target is not declared galois")
        if src != dst and (src, dst) not in embeddings:
            raise EmbeddingInvalidError(f"closure {src} -> {dst}: no embedding {src} -> {dst}")
        closures[src] = dst

    auto_tuples = {k: tuple(v) for k, v in automorphisms.items()}
    return LatticeConfig(fields, embeddings, auto_tuples, closures, galois_marks)


# ---------------------------------------------------------------------------
# diagnostics
# ---------------------------------------------------------------------------


def validate_lattice(cfg: LatticeConfig) -> str:
    """The report of what the lattice declares: one line per field, by
    name, with its degree, discriminant, irreducibility certificate, Galois
    mark and closure; then one line per pair K/L, sorted, with its excluded
    primes."""
    lines = []
    for name in sorted(cfg.fields):
        f = cfg.fields[name]
        if name == BASE_NAME:
            cert = "base field"
        elif f.trusted:
            cert = "trusted"
        else:
            cert = f"irreducible mod {f.certificate_prime}"
        parts = [f"field {name}: degree {f.degree}", f"disc {f.disc}", f"certificate {cert}"]
        if cfg.is_galois(name):
            parts.append("galois")
        if name in cfg.closures:
            parts.append(f"closure={cfg.closures[name]}")
        lines.append(", ".join(parts))
    pairs = {(name, BASE_NAME) for name in cfg.fields if name != BASE_NAME}
    pairs |= {(dst, src) for src, dst in cfg.embeddings}
    for pair in sorted(pairs):
        ext = cfg.extension(pair)
        shown = ", ".join(str(p) for p in sorted(ext.excluded_primes())) or "none"
        lines.append(f"pair {ext.name}: excluded primes {{{shown}}}")
    return "\n".join(lines)
