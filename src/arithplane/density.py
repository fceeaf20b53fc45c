"""Natural-density scans over prime spectra, with Chebotarev predictions.

Set expressions are boolean combinations of the membership predicates
``Pi(K/L)`` and ``Psi(K/L)`` (all atoms over one common base field) plus
finite sets of rational primes.  ``estimate_density`` counts how often an
expression holds over the primes of the base spectrum up to a bound, with a
convergence trace at powers of ten.  ``chebotarev_predict`` computes the
exact expected density from the class table below, when the lattice
declares enough data.  The ``check_*`` functions are finite-truncation
verifiers for the structural identities the rest of the package relies on;
they report what they find and adjudicate nothing.

Every pooled scan goes through :func:`scan`: it walks the fixed-width
ranges of :func:`~arithplane.sieve.ranges` lazily, each worker sieves its
own range, and the per-range Counters are added in range order, so results
are identical for any worker count and memory does not grow with N.
Whether a prime is skipped is decided by
:class:`~arithplane.lattice.ExclusionRule`; skips are counted once per point.

A range is evaluated as arrays: every atom is one boolean array over the
range's evaluable points.  Pi(K/L) and Psi(K/L) threshold one count per
extension and point, the roots of f_K in the point's residue field that
restrict to it (at least one, or all [K:L]), made once per range however
many atoms name the extension.  Over Q a point is its prime and the count
is the prime-lane root count of ``modpoly``; for a quadratic K that is one
Euler test per residue class of p mod 4|D| in the range, D the discriminant
of f_K, read by every prime of the class, and for a binomial x^n - a one
power residue test per prime.  Prime sets are tested by membership.  The
expression tree combines those arrays, and ``searchsorted`` plus
``bincount`` tally them by checkpoint.  The Frobenius histogram tallies the
lane factor-degree patterns, or, for a declared Galois field of degree 4 or
more, the order of the Frobenius element of each prime.

Over a larger base L the counts come from a :class:`ClassTable`, built once
per scan when the lattice declares a Galois field M that contains L and
every atom field K.  The Frobenius class of an unramified p in Gal(M/Q)
fixes the points of L over p, as orbits of a representative σ on
Hom(L, M), and every count at them, so one row per class holds them all
(Ax, "The elementary theory of finite fields", 1968).  A lane finds the
class of its prime as the one whose product of x^p - h_σ over its members σ
vanishes mod f_M (``modpoly.lane_frobenius_classes``).  The rest
take the per-point path, ``spectrum.split_prime`` and then
``spectrum.compatible_root_count`` at every point: primes dividing a
discriminant of the expression's fields or disc f_M, lanes where not
exactly one class is found, and every prime of a lattice without such an
M.  Both paths give the same points and counts, so the output does not
depend on which one a prime takes.

The psi-product and pi-eq-psi checkers scan two expressions each; for
psi-product the kernel also lists the primes of the points where the two
disagree.  The pi-intersection and pullback checkers walk
``spectrum.points_over``.
"""

from __future__ import annotations

import functools
import os
import re
from collections import Counter, namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice
from typing import Callable, Sequence, Union

import numpy as np

from . import plane
from . import spectrum as sp
from .errors import ExprSyntaxError, UnknownFieldError
from .intpoly import Composer, RatPoly
from .lattice import (
    BASE_NAME,
    ExclusionRule,
    Extension,
    LatticeConfig,
    NumberField,
)
from .modpoly import lane_factor_degrees, lane_frobenius_classes, lane_root_count
from .sieve import MAX_CHARACTERISTIC, iroot, is_prime, prime_range, ranges

CHECKPOINT_START = 100
SCAN_BATCH = 4  # ranges queued in the pool at a time, per worker

# --------------------------------------------------------------------------
# expression AST


@dataclass(frozen=True)
class PiAtom:
    ext: Extension


@dataclass(frozen=True)
class PsiAtom:
    ext: Extension


@dataclass(frozen=True)
class PrimeSet:
    """All points of the base spectrum lying over the listed primes."""

    primes: tuple[int, ...]


@dataclass(frozen=True)
class Not:
    inner: "Node"


@dataclass(frozen=True)
class And:
    left: "Node"
    right: "Node"


@dataclass(frozen=True)
class Or:
    left: "Node"
    right: "Node"


Node = Union[PiAtom, PsiAtom, PrimeSet, Not, And, Or]


@dataclass(frozen=True)
class SetExpr:
    node: Node
    base: NumberField
    lattice: LatticeConfig = field(compare=False, repr=False)

    def atoms(self) -> tuple[Union[PiAtom, PsiAtom], ...]:
        out: list[Union[PiAtom, PsiAtom]] = []
        _walk_atoms(self.node, out)
        return tuple(out)


def _walk_atoms(node: Node, out: list) -> None:
    if isinstance(node, (PiAtom, PsiAtom)):
        out.append(node)
    elif isinstance(node, Not):
        _walk_atoms(node.inner, out)
    elif isinstance(node, (And, Or)):
        _walk_atoms(node.left, out)
        _walk_atoms(node.right, out)


def _atom_holds(atom: Union[PiAtom, PsiAtom], counts: np.ndarray) -> np.ndarray:
    """Pi or Psi from the counts of compatible roots at the points."""
    return counts >= 1 if isinstance(atom, PiAtom) else counts == atom.ext.rel_degree


def _eval_node(node: Node, atom_fn: Callable):
    """Evaluate a boolean tree; ``atom_fn`` decides the leaves, as numpy
    booleans or boolean arrays (``~``, ``&`` and ``|`` act elementwise)."""
    if isinstance(node, Not):
        return ~_eval_node(node.inner, atom_fn)
    if isinstance(node, And):
        return _eval_node(node.left, atom_fn) & _eval_node(node.right, atom_fn)
    if isinstance(node, Or):
        return _eval_node(node.left, atom_fn) | _eval_node(node.right, atom_fn)
    return atom_fn(node)


# --------------------------------------------------------------------------
# parser

# after any whitespace, one token: an integer, a name, a punctuation mark,
# or any other character, which is refused, as is a name that starts with
# neither a letter nor "_"
_TOKEN = re.compile(r"\s*(?:(\d+)|(\w+)|([|&!(){}/,])|(\S))")
_Token = namedtuple("_Token", "kind text pos")


def _tokenize(text: str) -> list[_Token]:
    toks = []
    for m in _TOKEN.finditer(text):
        kind, pos = m.lastindex, m.start(m.lastindex)
        word = m[kind]
        if kind == 4 or (kind == 2 and not (word[0].isalpha() or word[0] == "_")):
            raise ExprSyntaxError(f"unexpected character {word[0]!r}", pos)
        toks.append(_Token(("int", "name", word)[kind - 1], word, pos))
    toks.append(_Token("end", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, cfg: LatticeConfig):
        self.text = text
        self.cfg = cfg
        self.toks = _tokenize(text)
        self.i = 0
        self.base: str | None = None

    def peek(self) -> _Token:
        return self.toks[self.i]

    def take(self, kind: str) -> _Token:
        t = self.toks[self.i]
        if t.kind != kind:
            want = "end of input" if kind == "end" else repr(kind)
            raise ExprSyntaxError(f"expected {want}, found {t.text or 'end of input'!r}", t.pos)
        self.i += 1
        return t

    def expr(self) -> Node:
        node = self.term()
        while self.peek().kind == "|":
            self.take("|")
            node = Or(node, self.term())
        return node

    def term(self) -> Node:
        node = self.factor()
        while self.peek().kind == "&":
            self.take("&")
            node = And(node, self.factor())
        return node

    def factor(self) -> Node:
        t = self.peek()
        if t.kind == "!":
            self.take("!")
            return Not(self.factor())
        if t.kind == "(":
            self.take("(")
            node = self.expr()
            self.take(")")
            return node
        return self.atom()

    def atom(self) -> Node:
        t = self.peek()
        if t.kind == "{":
            self.take("{")
            primes = [self.prime()]
            while self.peek().kind == ",":
                self.take(",")
                primes.append(self.prime())
            self.take("}")
            return PrimeSet(tuple(sorted(set(primes))))
        if t.kind == "name" and t.text in ("Pi", "Psi"):
            self.take("name")
            self.take("(")
            top = self.take("name").text
            self.take("/")
            base = self.take("name").text
            self.take(")")
            if self.base is None:
                self.base = base
            elif self.base != base:
                raise ExprSyntaxError(
                    f"mixed base fields: {self.base!r} and {base!r}", t.pos
                )
            ext = self.cfg.extension((top, base))
            return PiAtom(ext) if t.text == "Pi" else PsiAtom(ext)
        raise ExprSyntaxError(
            f"expected Pi, Psi, or a prime set, found {t.text or 'end of input'!r}", t.pos
        )

    def prime(self) -> int:
        t = self.take("int")
        p = int(t.text)
        if not (p < MAX_CHARACTERISTIC and is_prime(p)):
            raise ExprSyntaxError(f"{p} is not prime", t.pos)
        return p


def parse_set_expr(text: str, cfg: LatticeConfig) -> SetExpr:
    """Parse a set expression against a lattice.

    Grammar: ``expr := term ('|' term)*``, ``term := factor ('&' factor)*``,
    ``factor := '!' factor | '(' expr ')' | atom``,
    ``atom := ('Pi'|'Psi') '(' name '/' name ')' | '{' p (',' p)* '}'``.
    """
    parser = _Parser(text, cfg)
    node = parser.expr()
    parser.take("end")
    base = cfg.field(parser.base if parser.base is not None else BASE_NAME)
    return SetExpr(node, base, cfg)


# --------------------------------------------------------------------------
# scan engine


@dataclass(frozen=True)
class TraceRow:
    bound: int
    hits: int
    total: int

    @property
    def density(self) -> float:
        return self.hits / self.total if self.total else 0.0


@dataclass(frozen=True)
class DensityEstimate:
    n: int
    hits: int
    total: int
    skipped: tuple[tuple[str, int], ...]
    trace: tuple[TraceRow, ...]

    @property
    def value(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def __str__(self) -> str:
        skips = ", ".join(f"{k}={v}" for k, v in self.skipped) or "none"
        return (
            f"{self.hits}/{self.total} = {self.value:.6f} over primes <= {self.n}"
            f" (skipped: {skips})"
        )


def trace_csv(est: DensityEstimate) -> str:
    """Convergence trace as CSV: header ``N,hits,total,density``, LF rows."""
    lines = ["N,hits,total,density"]
    for row in est.trace:
        lines.append(f"{row.bound},{row.hits},{row.total},{row.density:.6f}")
    return "\n".join(lines) + "\n"


def _checkpoints(n: int) -> tuple[int, ...]:
    if n < CHECKPOINT_START:
        raise ValueError(f"bound must be at least {CHECKPOINT_START}, got {n}")
    out = []
    c = CHECKPOINT_START
    while c < n:
        out.append(c)
        c *= 10
    out.append(n)
    return tuple(out)


def scan(kernel: Callable[..., Counter], payload, n: int, workers: int) -> Counter:
    """Sum ``kernel(payload, lo, hi)`` over the ranges ``sieve.ranges(n)``.

    Each call sieves only its own range, in this process or in a pool of at
    most ``os.cpu_count()`` workers.  Ranges are drawn lazily and queued in
    the pool ``SCAN_BATCH`` per worker at a time, so memory does not grow
    with n.  The ranges depend on n alone and the per-range Counters are
    added in range order, so the total is the same for every worker count.
    ``kernel`` and ``payload`` must pickle.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    spans = ranges(n)
    workers = min(workers, os.cpu_count() or 1)
    batch = list(islice(spans, SCAN_BATCH * workers))
    workers = min(workers, len(batch))
    if workers == 1:
        return sum((kernel(payload, lo, hi) for lo, hi in chain(batch, spans)), Counter())
    from concurrent.futures import ProcessPoolExecutor  # here, so the package import skips it

    batches = chain([batch], iter(lambda: list(islice(spans, SCAN_BATCH * workers)), []))
    total, pending = Counter(), ()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for batch in batches:
            # queue the next batch before summing this one, so no worker waits
            queued = pool.map(kernel, [payload] * len(batch), *zip(*batch))
            total, pending = sum(pending, total), queued
        return sum(pending, total)


def _density_kernel(payload, lo: int, hi: int) -> Counter:
    """Tally the base points over the primes in [lo, hi].

    Keys are ``(checkpoint index, slot)``.  Slot 0 counts evaluable points,
    slot 1 the points the ``ExclusionRule`` skips, and slot ``2 + mask`` the
    points whose expression truth values form ``mask`` (expression j giving
    bit j).  Every count is per point of the base spectrum.  Each extension
    of the payload, listed once, gets one array
    per range that all its Pi and Psi atoms read: the counts of the roots of
    f_K at the evaluable points that restrict to them.  Over Q these are the
    prime-lane root counts at the primes of the range; over a larger base,
    points and counts come from :func:`_relative_points`.  With
    ``witnesses`` set, keys ``("at", p)`` count the points of the range
    where the expressions disagree, by prime.
    """
    nodes, base, exts, checkpoints, rule, witnesses, table = payload
    primes = prime_range(lo, hi)
    if base.degree == 1:
        ps = orders = primes
        skip = rule.excluded(ps)
        counts = {ext.name: lane_root_count(list(ext.field.poly.num), ps[~skip])
                  for ext in exts}
    else:
        ps, orders, skip, counts = _relative_points(base, exts, primes, checkpoints[-1],
                                                    rule, table)
    ok = ~skip

    def leaf(atom: Node) -> np.ndarray:
        if isinstance(atom, PrimeSet):
            return np.isin(ps[ok], [q for q in atom.primes if q <= hi])
        return _atom_holds(atom, counts[atom.ext.name])

    masks = sum(_eval_node(node, leaf).astype(np.int64) << j for j, node in enumerate(nodes))
    slots = skip.astype(np.int64)
    slots[ok] = 2 + masks
    width = 2 + (1 << len(nodes))
    keys = np.searchsorted(checkpoints, orders) * width + slots
    tally = np.bincount(keys, minlength=len(checkpoints) * width).reshape(-1, width)
    tally[:, 0] = tally[:, 2:].sum(axis=1)
    out = Counter({(i, slot): int(v) for (i, slot), v in np.ndenumerate(tally) if v})
    if witnesses:
        disagree = (masks != 0) & (masks != (1 << len(nodes)) - 1)
        out.update(("at", p) for p in ps[ok][disagree].tolist())
    return out


def _relative_points(base: NumberField, exts: Sequence[Extension], primes: np.ndarray,
                     n: int, rule: ExclusionRule, table: ClassTable | None):
    """The points of norm <= n of a base other than Q over the primes of a
    range: (their primes, their norms, whether the rule skips each, and the
    counts of each extension at the evaluable ones, by name).

    A prime that the class table's rule takes reads its points and counts
    from the row of its Frobenius class; every other prime is split and its
    points are counted one by one.
    """
    cls = np.full(len(primes), -1)
    if table is not None:
        took = np.flatnonzero(~table.rule.excluded(primes))
        cls[took] = table.classify(primes[took])
    parts = []  # (primes, norms, counts by extension) of one point in a class row
    for c, row in enumerate(table.rows if table is not None else ()):
        pc = primes[cls == c]
        for f, *point_counts in row:
            keep = pc[pc <= iroot(n, f)]
            parts.append((keep, keep**f, dict(zip(table.exts, point_counts))))
    points = [pL for p in primes[cls < 0].tolist() for pL in sp.split_prime(base, p)
              if pL.order <= n]
    point_ps = np.array([pL.p for pL in points], dtype=np.int64)
    point_skip = rule.excluded(point_ps)
    evaluable = [pL for pL, s in zip(points, point_skip.tolist()) if not s]
    ps = np.concatenate([keep for keep, _, _ in parts] + [point_ps])
    orders = np.concatenate([norms for _, norms, _ in parts]
                            + [np.array([pL.order for pL in points], dtype=np.int64)])
    skip = np.concatenate([np.zeros(len(ps) - len(points), dtype=bool), point_skip])
    counts = {ext.name: np.concatenate(
        [np.full(len(keep), by_ext[ext.name], dtype=np.int64) for keep, _, by_ext in parts]
        + [np.array([sp.compatible_root_count(ext, pL) for pL in evaluable], dtype=np.int64)])
        for ext in exts}
    return ps, orders, skip, counts


def _density_counts(exprs: Sequence[SetExpr], n: int, workers: int,
                    checkpoints: tuple[int, ...] | None = None, witnesses: bool = False):
    """(checkpoints, counts) of one scan evaluating every expression at once."""
    checkpoints = checkpoints or _checkpoints(n)
    base = exprs[0].base
    for expr in exprs[1:]:
        if expr.base.name != base.name:
            raise ExprSyntaxError(
                f"mixed base fields: {base.name!r} and {expr.base.name!r}"
            )
    exts = tuple(atom.ext for expr in exprs for atom in expr.atoms())
    table = class_table(exprs[0].lattice, base, exts) if base.degree > 1 else None
    payload = (tuple(expr.node for expr in exprs), base,
               tuple({ext.name: ext for ext in exts}.values()), checkpoints,
               ExclusionRule.of(exts), witnesses, table)
    return checkpoints, scan(_density_kernel, payload, n, workers)


def _build_estimate(
    n: int, checkpoints: tuple[int, ...], counts: Counter, nexpr: int,
    holds: Callable[[int], bool],
) -> DensityEstimate:
    """The estimate of the set whose truth-value masks satisfy ``holds``."""
    trace = []
    hits = total = 0
    for i, ck in enumerate(checkpoints):
        total += counts[i, 0]
        hits += sum(counts[i, 2 + mask] for mask in range(1 << nexpr) if holds(mask))
        trace.append(TraceRow(ck, hits, total))
    skipped = sum(counts[i, 1] for i in range(len(checkpoints)))
    return DensityEstimate(n, hits, total, (("ramified", skipped),) if skipped else (),
                           tuple(trace))


def estimate_density(expr: SetExpr, n: int, workers: int = 1) -> DensityEstimate:
    """Fraction of evaluable base points with norm <= n satisfying the expression.

    Points over primes where any atom's extension is excluded (see
    :class:`ExclusionRule`) are skipped and tallied as ``ramified``, once
    per point; the estimate carries a cumulative trace at every power-of-ten
    checkpoint.
    """
    checkpoints, counts = _density_counts((expr,), n, workers)
    return _build_estimate(n, checkpoints, counts, 1, bool)


# --------------------------------------------------------------------------
# Frobenius classes of a declared Galois field


@dataclass(frozen=True)
class ClassTable:
    """The points of a base L over an unramified prime p, and the count of
    each extension K/L at them, as a function of the Frobenius class of p in
    the group G of a declared Galois field M that contains L and every K.

    ``classes`` holds the conjugacy classes of G as indices into M's
    declared automorphisms, and ``maps`` the maps h_σ of their members σ,
    as the integer pairs (``h.num``, ``h.den``) that
    ``modpoly.lane_frobenius_classes`` takes.  Row c has one entry per point
    of L over a prime of class c: its residue degree f, then the
    ``compatible_root_count`` of each extension of ``exts`` there.  The
    points are the ⟨σ⟩-orbits on Hom(L, M), of length f, and the count of
    K/L at the orbit of τ is #{ι ∈ Hom(K, M) : ι∘emb = τ, σ^f∘ι = ι}.
    ``rule`` names the primes the table does not take: those dividing a
    discriminant of the base or of a field of ``exts``, or disc f_M.
    """

    modulus: tuple[int, ...]
    classes: tuple[tuple[int, ...], ...]
    maps: tuple[tuple[tuple[tuple[int, ...], int], ...], ...]
    exts: tuple[str, ...]
    rows: tuple[tuple[tuple[int, ...], ...], ...]
    rule: ExclusionRule

    def classify(self, primes: np.ndarray) -> np.ndarray:
        """The class of each prime, the one whose product of den*x^p - num
        over its maps vanishes mod f_M; -1 where that is not exactly one."""
        return lane_frobenius_classes(list(self.modulus), self.maps, primes)


@functools.lru_cache(maxsize=8)
def class_table(cfg: LatticeConfig, base: NumberField,
                exts: tuple[Extension, ...]) -> ClassTable | None:
    """The class table over the first declared Galois field M, by (degree,
    name), into which the base and every extension's field embed; None when
    the lattice declares no such field.  Cached, so that a command's scan
    and its prediction share one build."""
    exts = tuple({ext.name: ext for ext in exts}.values())
    names = {base.name, *(ext.field.name for ext in exts)}
    for m in sorted(cfg.fields.values(), key=lambda f: (f.degree, f.name)):
        if not cfg.is_galois(m.name):
            continue
        try:
            into = {name: cfg.embedding(name, m.name) for name in names}
        except UnknownFieldError:
            continue
        table = _class_table(cfg, m, base, exts, into)
        if table is not None:
            return table
    return None


def _class_table(cfg: LatticeConfig, m: NumberField, base: NumberField,
                 exts: tuple[Extension, ...], into: dict) -> ClassTable | None:
    comp = Composer(m.poly)
    hs = [a.h for a in cfg.autos(m.name)]
    at = {h: i for i, h in enumerate(hs)}
    # σ_i∘σ_j sends θ to h_j(h_i(θ)); conjugates of σ_i are σ_t∘σ_i∘σ_t^-1
    mul = [[at[comp.compose_mod(hj, hi)] for hj in hs] for hi in hs]
    identity = at[RatPoly.of(0, 1)]
    inv = [row.index(identity) for row in mul]
    classes: list[tuple[int, ...]] = []
    for i in range(len(hs)):
        if all(i not in c for c in classes):
            classes.append(tuple(sorted({mul[mul[t][i]][inv[t]] for t in range(len(hs))})))

    def homs(fld: NumberField) -> list[RatPoly] | None:
        """Hom(fld, M) as the images of fld's generator, the orbit of the
        declared embedding under G; None unless there are deg fld."""
        orbit = list(dict.fromkeys(comp.compose_mod(into[fld.name].h, h) for h in hs))
        return orbit if len(orbit) == fld.degree else None

    def motion(images: list[RatPoly], sigma: RatPoly) -> list[int]:
        """σ∘ι for each ι of images, as indices into images."""
        where = {r: j for j, r in enumerate(images)}
        return [where[comp.compose_mod(r, sigma)] for r in images]

    hom_l = homs(base)
    if hom_l is None:
        return None
    where_l = {r: j for j, r in enumerate(hom_l)}
    above = []  # per extension: Hom(K, M) and the restriction of each ι to L
    for ext in exts:
        hom_k = homs(ext.field)
        if hom_k is None:
            return None
        res = [where_l.get(comp.compose_mod(ext.emb.h, r)) for r in hom_k]
        if any(res.count(t) != ext.rel_degree for t in range(len(hom_l))):
            return None
        above.append((hom_k, res))

    rows = []
    for members in classes:
        sigma = hs[members[0]]
        move_l = motion(hom_l, sigma)
        moves = [motion(hom_k, sigma) for hom_k, _ in above]
        row, seen = [], set()
        for tau in range(len(hom_l)):
            if tau in seen:
                continue
            orbit = [tau]
            while (nxt := move_l[orbit[-1]]) != tau:
                orbit.append(nxt)
            seen.update(orbit)
            f = len(orbit)
            counts = []
            for (hom_k, res), move in zip(above, moves):
                counts.append(sum(res[j] == tau and _power(move, j, f) == j
                                  for j in range(len(hom_k))))
            row.append((f, *counts))
        rows.append(tuple(row))

    return ClassTable(m.poly.num, tuple(classes),
                      tuple(tuple((hs[i].num, hs[i].den) for i in c) for c in classes),
                      tuple(ext.name for ext in exts), tuple(rows),
                      ExclusionRule.of((*exts, cfg.extension((m.name, BASE_NAME)))))


def _power(move: list[int], j: int, f: int) -> int:
    """The image of j under f steps of the index map."""
    for _ in range(f):
        j = move[j]
    return j


def chebotarev_predict(expr: SetExpr, cfg: LatticeConfig) -> Fraction | None:
    """Predicted density, read from the class table of the expression's base
    and atoms: Σ_C |C|/|G| times the number of degree-1 points of row C
    where the expression holds.  Finite prime sets carry no density.

    Needs a declared closure for every atom's field and a class table;
    returns None when the lattice does not declare enough.
    """
    atoms = expr.atoms()
    if not atoms:
        return Fraction(1 if _eval_node(expr.node, lambda a: np.False_) else 0)
    if any(cfg.closure_of(atom.ext.field.name) is None for atom in atoms):
        return None
    table = class_table(cfg, expr.base, tuple(atom.ext for atom in atoms))
    if table is None:
        return None
    hits = 0
    for members, row in zip(table.classes, table.rows):
        split = np.array([point[1:] for point in row if point[0] == 1],
                         dtype=np.int64).reshape(-1, len(table.exts))

        def leaf(atom: Node, split=split) -> np.ndarray:
            if isinstance(atom, PrimeSet):
                return np.zeros(len(split), dtype=bool)
            return _atom_holds(atom, split[:, table.exts.index(atom.ext.name)])

        hits += len(members) * int(np.count_nonzero(_eval_node(expr.node, leaf)))
    return Fraction(hits, sum(map(len, table.classes)))


# --------------------------------------------------------------------------
# Frobenius statistics


@dataclass(frozen=True)
class FrobeniusStats:
    field_name: str
    n: int
    total: int
    counts: tuple[tuple[tuple[int, ...], int], ...]

    def __str__(self) -> str:
        parts = [
            f"{'+'.join(map(str, pat))}: {c}/{self.total} = {c / self.total:.4f}"
            for pat, c in self.counts
        ]
        return f"{self.field_name}, primes <= {self.n}: " + "; ".join(parts)


def _frobenius_kernel(payload, lo: int, hi: int) -> Counter:
    """Factorization patterns of f mod the unramified primes in [lo, hi].

    ``payload`` is the field and its order groups (see
    :func:`frobenius_histogram`), empty unless the field is Galois.  With
    groups, a prime whose Frobenius element ``lane_frobenius_classes``
    places in the group of order o has the pattern (o, ..., o), n/o
    factors, tallied by ``np.bincount`` over the group index; a lane that
    finds no single group, and every prime without groups, takes the
    prime-lane factor degrees.  Those are tallied from one integer per lane,
    the counts N_d of degree-d factors as digits in radix n + 1; the
    largest is (n + 1)^(n - 1), of an irreducible f, so the integers are
    int64 up to degree 16 and Python integers above.
    """
    fld, groups = payload
    f, n = list(fld.poly.num), fld.degree
    primes = prime_range(lo, hi)
    primes = primes[~ExclusionRule((fld.disc,)).excluded(primes)]
    out = Counter()
    if groups:
        found = lane_frobenius_classes(f, [maps for _, maps in groups], primes)
        tally = np.bincount(found[found >= 0], minlength=len(groups))
        out.update({(o,) * (n // o): c for (o, _), c in zip(groups, tally.tolist()) if c})
        primes = primes[found < 0]
    degrees = lane_factor_degrees(f, primes)
    radix = np.array([(n + 1) ** d for d in range(n)],
                     dtype=np.int64 if (n + 1) ** (n - 1) < 1 << 63 else object)
    keys, counts = np.unique(radix @ degrees.astype(radix.dtype), return_counts=True)
    cols = keys[:, None] // radix % (n + 1)
    out.update({tuple(d for d, k in enumerate(col, 1) for _ in range(k)): c
                for col, c in zip(cols.tolist(), counts.tolist())})
    return out


def _order_groups(cfg: LatticeConfig, fld: NumberField):
    """The declared automorphisms of fld by order, as (order, maps) pairs in
    ascending order, each map the integer pair (``h.num``, ``h.den``)."""
    comp = Composer(fld.poly)
    identity = RatPoly.of(0, 1)
    by_order: dict[int, list] = {}
    for auto in cfg.autos(fld.name):
        power, order = auto.h, 1
        while power != identity:
            power, order = comp.compose_mod(power, auto.h), order + 1
        by_order.setdefault(order, []).append((auto.h.num, auto.h.den))
    return tuple((o, tuple(by_order[o])) for o in sorted(by_order))


def frobenius_histogram(
    fld: NumberField, n: int, workers: int = 1, cfg: LatticeConfig | None = None
) -> FrobeniusStats:
    """Distribution of factorization patterns of the field polynomial mod p,
    over the primes p <= n not dividing its discriminant.

    When ``cfg`` marks fld galois and its degree is 4 or more, a prime's
    pattern is read from the order o of its Frobenius element: every factor
    has degree o.  The automorphisms are grouped by order here, and each
    group serves ``lane_frobenius_classes`` as one "class".  That is exact
    at p not dividing disc f by the kernel's own argument: the Frobenius
    elements at the factors of f mod p are conjugate, so they share one
    order and one group, and every other h_τ - h_σ is a unit mod each
    factor.  Every other field, and every lane where not exactly one group
    is found, takes the prime-lane factor degrees.
    """
    groups = ()
    if cfg is not None and cfg.is_galois(fld.name) and fld.degree >= 4:
        groups = _order_groups(cfg, fld)
    counts = scan(_frobenius_kernel, (fld, groups), n, workers)
    total = sum(counts.values())
    return FrobeniusStats(fld.name, n, total, tuple(sorted(counts.items())))


# --------------------------------------------------------------------------
# structural checkers


def _compare(cfg: LatticeConfig, a: Node, b: Node, base: NumberField, n: int,
             witnesses: bool = False):
    """One scan of a and b over the evaluable base points of norm <= n: the
    point count of each truth mask (a giving bit 0, b bit 1), and, with
    ``witnesses`` set, the primes of the points where a and b disagree."""
    exprs = (SetExpr(a, base, cfg), SetExpr(b, base, cfg))
    _, counts = _density_counts(exprs, n, 1, (n,), witnesses)
    differ = sorted(p for (tag, p), v in counts.items() if tag == "at" for _ in range(v))
    return [counts[0, 2 + m] for m in range(4)], differ


@dataclass(frozen=True)
class PsiProductReport:
    k1: str
    k2: str
    composite: str
    base: str
    n: int
    total: int
    hits: int
    violations: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def density(self) -> float:
        return self.hits / self.total if self.total else 0.0

    def __str__(self) -> str:
        status = "OK" if self.ok else f"VIOLATED at {list(self.violations)}"
        return (
            f"Psi({self.k1}/{self.base}) & Psi({self.k2}/{self.base}) vs"
            f" Psi({self.composite}/{self.base}), primes <= {self.n}: {status};"
            f" intersection {self.hits}/{self.total} = {self.density:.4f}"
        )


def check_psi_product(
    cfg: LatticeConfig, k1: str, k2: str, composite: str, base: str, n: int
) -> PsiProductReport:
    """Compare Psi(k1) & Psi(k2) with Psi(composite) at each evaluable base point."""
    e1 = cfg.extension((k1, base))
    e2 = cfg.extension((k2, base))
    ec = cfg.extension((composite, base))
    # the square must actually be declared
    cfg.embedding(k1, composite)
    cfg.embedding(k2, composite)
    masks, violations = _compare(cfg, And(PsiAtom(e1), PsiAtom(e2)), PsiAtom(ec), ec.base,
                                 n, witnesses=True)
    return PsiProductReport(k1, k2, composite, base, n, sum(masks), masks[2] + masks[3],
                            tuple(violations))


@dataclass(frozen=True)
class PiEqPsiReport:
    ext_name: str
    n: int
    galois: bool
    total: int
    mismatches: int

    @property
    def density(self) -> float:
        return self.mismatches / self.total if self.total else 0.0

    def __str__(self) -> str:
        kind = "declared-galois" if self.galois else "non-galois"
        return (
            f"Pi vs Psi for {self.ext_name} ({kind}), primes <= {self.n}:"
            f" {self.mismatches}/{self.total} disagree ({self.density:.4f})"
        )


def check_pi_eq_psi(cfg: LatticeConfig, spec: str, n: int) -> PiEqPsiReport:
    """Count base points where Pi and Psi disagree."""
    ext = cfg.extension(spec)
    galois = bool(cfg.autos(ext.field.name)) and len(
        cfg.automorphisms_fixing(ext.field.name, ext.base.name)) == ext.rel_degree
    masks, _ = _compare(cfg, PiAtom(ext), PsiAtom(ext), ext.base, n)
    return PiEqPsiReport(ext.name, n, galois, sum(masks), masks[1] + masks[2])


@dataclass(frozen=True)
class PullbackReport:
    tower: tuple[str, str, str, str]  # (L, K, M, KM)
    n: int
    points: int
    pi_discrepancies: tuple[int, ...]  # the prime of each discrepant point
    psi_discrepancies: tuple[int, ...]

    def __str__(self) -> str:
        l, k, m, km = self.tower
        head = (
            f"pullback square ({l}, {k}, {m}, {km}), {self.points} points of"
            f" Sp_{k} over p <= {self.n}:"
        )
        pi = f" Pi: {len(self.pi_discrepancies)} discrepancies"
        if self.pi_discrepancies:
            pi += " at p in " + str(sorted(set(self.pi_discrepancies)))
        psi = f"; Psi: {len(self.psi_discrepancies)} discrepancies"
        if self.psi_discrepancies:
            psi += " at p in " + str(sorted(set(self.psi_discrepancies)))
        return head + pi + psi


def check_pullback(
    cfg: LatticeConfig, l: str, k: str, m: str, km: str, n: int
) -> PullbackReport:
    """Test whether membership upstairs matches membership of the projection.

    For each point pK of Sp_k, compares [pK in Pi(km/k)] with
    [projection(pK) in Pi(m/l)], and likewise for Psi; both read one
    ``compatible_root_count`` per side, made once per point of k and once
    per base point of l.  Discrepancies are data, not errors: the report
    lists the prime of each discrepant point, for both variants, and leaves
    the verdict to the caller.
    """
    ext_kl = cfg.extension((k, l))
    ext_ml = cfg.extension((m, l))
    ext_kmk = cfg.extension((km, k))
    ext_kmm = cfg.extension((km, m))  # the square's fourth side must exist
    # the points come in ascending p, and l has at most deg l points over each
    count_below = functools.lru_cache(maxsize=ext_ml.base.degree)(
        functools.partial(sp.compatible_root_count, ext_ml))
    points, pi, psi = 0, [], []
    for pK in sp.points_over(ext_kl.field, n, (ext_kl, ext_ml, ext_kmk, ext_kmm)):
        points += 1
        up = sp.compatible_root_count(ext_kmk, pK)
        down = count_below(plane.project_point(ext_kl, pK))
        if (up >= 1) != (down >= 1):
            pi.append(pK.p)
        if (up == ext_kmk.rel_degree) != (down == ext_ml.rel_degree):
            psi.append(pK.p)
    return PullbackReport((l, k, m, km), n, points, tuple(pi), tuple(psi))


@dataclass(frozen=True)
class InclusionExclusionReport:
    n: int
    a: DensityEstimate
    b: DensityEstimate
    union: DensityEstimate
    intersection: DensityEstimate

    @property
    def exact(self) -> bool:
        return self.union.hits + self.intersection.hits == self.a.hits + self.b.hits

    def __str__(self) -> str:
        status = "exact" if self.exact else "BROKEN"
        return (
            f"inclusion-exclusion over primes <= {self.n}: {status};"
            f" dn(A)={self.a.value:.4f} dn(B)={self.b.value:.4f}"
            f" dn(A|B)={self.union.value:.4f} dn(A&B)={self.intersection.value:.4f}"
        )


def check_inclusion_exclusion(
    expr_a: SetExpr, expr_b: SetExpr, n: int, workers: int = 1
) -> InclusionExclusionReport:
    """Verify hits(A|B) + hits(A&B) = hits(A) + hits(B) on a shared universe.

    All four counts come from one scan over the primes evaluable for both
    expressions, so the identity is a statement about integers, not limits.
    """
    checkpoints, counts = _density_counts((expr_a, expr_b), n, workers)

    def estimate(holds: Callable[[int], bool]) -> DensityEstimate:
        return _build_estimate(n, checkpoints, counts, 2, holds)

    return InclusionExclusionReport(
        n,
        estimate(lambda mask: mask & 1),
        estimate(lambda mask: mask & 2),
        estimate(lambda mask: mask != 0),
        estimate(lambda mask: mask == 3),
    )


@dataclass(frozen=True)
class PiIntersectionReport:
    names: tuple[str, ...]
    base: str
    n: int
    witness: int | None

    def __str__(self) -> str:
        sets = " & ".join(f"Pi({k}/{self.base})" for k in self.names)
        if self.witness is None:
            return f"{sets}: no witness <= {self.n}"
        return f"{sets}: smallest witness {self.witness}"


def check_pi_intersection(
    cfg: LatticeConfig, tops: Sequence[str], base: str, n: int
) -> PiIntersectionReport:
    """Smallest evaluable base prime lying in every Pi set, if one exists <= n."""
    if not tops:
        raise ValueError("need at least one extension")
    exts = [cfg.extension((k, base)) for k in tops]
    for pL in sp.points_over(exts[0].base, n, exts):
        if pL.order <= n and all(sp.in_pi(ext, pL) for ext in exts):
            return PiIntersectionReport(tuple(tops), base, n, pL.p)
    return PiIntersectionReport(tuple(tops), base, n, None)
