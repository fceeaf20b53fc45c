"""Fibres over the spectrum: the module action, projections, Galois motion.

Above each point pK of K sits a fibre — realized concretely as the residue
field F_pK — on which integer-polynomial expressions γ(α) act by
multiplication through the naming map.  A :class:`Section` picks one
nonzero base point per fibre; the projection to a subfield's fibre sends
η·a_pK to Norm(η)·a_pL, and everything downstream checks that choices of
section wash out exactly where the theory says they must.

The norm lands in the subfield of F_pK generated by the embedded
generator; converting that subfield element into honest F_pL coordinates
is a small linear solve against the powers of the embedded generator,
cached per (point, point, embedding) triple.  The projector refuses any
pair for which ``spectrum.lies_over`` fails.

``galois_image`` moves points of the spectrum by a declared automorphism.
The direct mode picks the candidate over the same p that lies over the
source point along σ, read as the self-embedding α -> σ(α); the bruteforce
mode re-derives the image from an existential search over fibre pairs whose
projections agree — slow, base-Q, and restricted to fully split primes,
but an independent oracle for the direct criterion.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass

import numpy as np

from . import modpoly as mp
from .errors import (
    HypothesisViolatedError,
    NotLyingOverError,
    RamifiedPrimeError,
)
from . import finitefield as ff
from .finitefield import FqElement, fq_norm
from .intpoly import IntPoly, reduce_mod_p
from .lattice import Automorphism, Embedding, Extension, LatticeConfig
from .sieve import stream_primes
from .spectrum import (
    SplitPrime,
    in_psi,
    lies_over,
    points_over,
    residue_field,
    residue_name,
    split_prime,
)

BRUTEFORCE_PRIME_BOUND = 1000


@dataclass(frozen=True)
class FiberPoint:
    """A point of the fibre over `prime`, carried by a residue-field value."""

    prime: SplitPrime
    value: FqElement

    @property
    def is_zero(self) -> bool:
        return self.value.is_zero

    def __str__(self) -> str:
        return f"{self.value} over {self.prime}"


class Section:
    """A choice of nonzero base point in each fibre; unit unless overridden.

    Point values are stored by element index so a section can be declared
    before any residue field is built.
    """

    def __init__(self, choices: dict[SplitPrime, int] | None = None):
        self._choices = dict(choices or {})
        for pk, idx in self._choices.items():
            if idx % pk.order == 0:
                raise ValueError(f"section must pick a nonzero point at {pk}")

    def at(self, pk: SplitPrime) -> FqElement:
        fld = residue_field(pk)
        idx = self._choices.get(pk, 1)
        return fld.from_index(idx % fld.order)

    @classmethod
    def random(cls, primes, rng) -> "Section":
        return cls({pk: rng.randrange(1, pk.order) for pk in primes})


def fiber_point(pk: SplitPrime, value: FqElement | int) -> FiberPoint:
    fld = residue_field(pk)
    if isinstance(value, int):
        value = fld.from_index(value % fld.order)
    elif value.field != fld:
        raise ValueError("value lives in a different residue field")
    return FiberPoint(pk, value)


def act(gamma: IntPoly | int, x: FiberPoint) -> FiberPoint:
    """γ·x: multiply the fibre value by the name of γ at x's prime."""
    return FiberPoint(x.prime, x.value * residue_name(x.prime, gamma))


# ---------------------------------------------------------------------------
# projection between fibres
# ---------------------------------------------------------------------------


class _Projector:
    """Norm-and-rewrite machinery from the fibre at pK onto the one at pL.

    Refuses with ``NotLyingOverError`` unless ``spectrum.lies_over`` holds.
    Caches the embedded-generator powers so that expressing a subfield
    element in F_pL coordinates is one linear solve.
    """

    def __init__(self, pK: SplitPrime, pL: SplitPrime, emb):
        if not lies_over(pK, pL, emb):
            raise NotLyingOverError(f"{pK} does not lie over {pL}")
        self.dst = pL
        self.fld_k = residue_field(pK)
        self.fld_l = residue_field(pL)
        u = residue_name(pK, emb.h)
        d, m = pL.residue_degree, pK.residue_degree
        w = self.fld_k.one
        self._matrix = [[0] * d for _ in range(m)]
        for j in range(d):
            for i in range(m):
                self._matrix[i][j] = w.rep[i]
            w = w * u

    def to_base(self, w: FqElement) -> FqElement:
        """Rewrite a subfield element of F_pK as an element of F_pL."""
        coords = mp.linsolve(self._matrix, list(w.rep), self.fld_k.p)
        if ff.VERIFY:
            total = self.fld_k.zero
            for j, c in enumerate(coords):
                col = [row[j] for row in self._matrix]
                total = total + self.fld_k.element(col) * self.fld_k.element(c)
            assert total == w, "subfield rewrite failed to reconstruct"
        return self.fld_l.element(coords)

    def norm(self, x: FqElement) -> FqElement:
        """Multiplicative norm F_pK -> F_pL (zero to zero)."""
        if x.is_zero:
            return self.fld_l.zero
        return self.to_base(fq_norm(x, self.dst.residue_degree))


@functools.lru_cache(maxsize=1024)
def _projector(pK: SplitPrime, pL: SplitPrime, emb) -> _Projector:
    return _Projector(pK, pL, emb)


@functools.lru_cache(maxsize=2048)
def _spectral_projection(pK: SplitPrime, emb, base) -> SplitPrime:
    hits = [pl for pl in split_prime(base, pK.p) if lies_over(pK, pl, emb)]
    if len(hits) != 1:
        raise NotLyingOverError(f"{pK} restricts to {len(hits)} points of {emb.src}")
    return hits[0]


def project_point(ext: Extension, pK: SplitPrime) -> SplitPrime:
    """π^Sp along an extension: the unique point of the base below pK."""
    return _spectral_projection(pK, ext.emb, ext.base)


def project(
    x: FiberPoint,
    ext: Extension,
    sections: tuple[Section, Section] | None = None,
) -> FiberPoint:
    """π_{K,L}: send η·a_pK to Norm(η)·a_pL in the fibre below.

    Zero goes to zero regardless of the sections.
    """
    pK = x.prime
    if pK.ramified_flag or ext.is_excluded(pK.p):
        raise RamifiedPrimeError(f"prime {pK.p} is excluded for {ext.name}")
    pL = project_point(ext, pK)
    proj = _projector(pK, pL, ext.emb)
    if x.is_zero:
        return FiberPoint(pL, proj.fld_l.zero)
    sec_k, sec_l = sections if sections is not None else (Section(), Section())
    eta = x.value / sec_k.at(pK)
    return FiberPoint(pL, proj.norm(eta) * sec_l.at(pL))


def induced_action(
    gamma: IntPoly | int,
    b: FiberPoint,
    pK: SplitPrime,
    emb,
) -> FiberPoint:
    """Action of γ ∈ O_K on the fibre below pK: scale by Norm(name of γ).

    Extends the plain action of the base ring and does not depend on any
    choice of sections.  Raises ``NotLyingOverError`` unless pK lies over
    the point of b.
    """
    proj = _projector(pK, b.prime, emb)
    scale = proj.norm(residue_name(pK, gamma))
    return FiberPoint(b.prime, b.value * scale)


def norm_fibre_census(pK: SplitPrime, pL: SplitPrime, emb) -> list[int]:
    """Preimage counts of the raw norm map, indexed by the target element.

    The fibre law makes it [1, k, ..., k] with k = (|pK|-1)/(|pL|-1).
    Raises ``NotLyingOverError`` unless pK lies over pL.  Quadratic-over-
    prime fibres go through a vectorized evaluation of the closed form
    N(a+bt) = a² - c₁ab + c₀b²; everything else enumerates (bounded at
    |pK| <= 10^5).
    """
    proj = _projector(pK, pL, emb)
    p = pK.p
    if pK.residue_degree == 2 and pL.residue_degree == 1:
        c0, c1, _ = pK.local_factor
        a = np.arange(p, dtype=np.int64).reshape(-1, 1)
        b = np.arange(p, dtype=np.int64).reshape(1, -1)
        norms = (a * a - c1 * a * b + c0 * b * b) % p
        counts = np.bincount(norms.ravel(), minlength=p).tolist()
        # numpy evaluates the closed form; spot-check it against the
        # generic route on a few elements
        fld = proj.fld_k
        for idx in (1, p // 2 + 1, p + 3, fld.order - 1):
            x = fld.from_index(idx)
            a_i, b_i = x.rep
            assert proj.norm(x).index == (a_i * a_i - c1 * a_i * b_i + c0 * b_i * b_i) % p
        return counts
    if pK.order > 100_000:
        raise ValueError(f"fibre of size {pK.order} too large to enumerate")
    counts = [0] * pL.order
    fld = proj.fld_k
    for i in range(fld.order):
        counts[proj.norm(fld.from_index(i)).index] += 1
    return counts


# ---------------------------------------------------------------------------
# Galois motion of spectrum points
# ---------------------------------------------------------------------------


def galois_image(
    cfg: LatticeConfig,
    sigma: Automorphism,
    q: SplitPrime,
    mode: str = "direct",
) -> SplitPrime:
    """The point σ(q): transport of the naming kernel by the automorphism.

    direct: the unique candidate q' over the same p that lies over q along
    the self-embedding α -> σ(α).  bruteforce: search fibre pairs for
    the existential agreement of projections (base Q, fully split p only,
    p <= 1000) — kept as an independent oracle for the direct criterion.
    """
    if q.field != sigma.field:
        raise NotLyingOverError(f"automorphism of {sigma.field} cannot move a point of {q.field}")
    fld = cfg.field(sigma.field)
    if q.ramified_flag:
        raise RamifiedPrimeError(f"prime {q.p} ramifies in {q.field}")
    if mode == "direct":
        return _galois_direct(fld, sigma, q)
    if mode == "bruteforce":
        return _galois_bruteforce(cfg, sigma, q)
    raise ValueError(f"unknown mode {mode!r}")


def _galois_direct(fld, sigma: Automorphism, q: SplitPrime) -> SplitPrime:
    own = Embedding(fld.name, fld.name, sigma.h)
    matches = [cand for cand in split_prime(fld, q.p) if lies_over(cand, q, own)]
    assert len(matches) == 1, f"kernel transport produced {len(matches)} candidates"
    return matches[0]


def _galois_bruteforce(cfg: LatticeConfig, sigma: Automorphism, q: SplitPrime) -> SplitPrime:
    p = q.p
    if p > BRUTEFORCE_PRIME_BOUND:
        raise ValueError(f"bruteforce mode is bounded at p <= {BRUTEFORCE_PRIME_BOUND}")
    ext = cfg.extension((sigma.field, "Q"))
    (pq,) = split_prime(cfg.field("Q"), p)
    if not in_psi(ext, pq):
        raise HypothesisViolatedError(
            f"prime {p} is not fully split for {ext.name}; the fibre-pair "
            "formula only determines the image over fully split primes"
        )
    alpha = IntPoly.of(0, 1)
    profile_q = _fibre_profile(ext, q, residue_name(q, alpha))
    winners = []
    for cand in split_prime(ext.field, p):
        alpha_sigma = residue_name(cand, sigma.h)
        if profile_q & _fibre_profile(ext, cand, alpha_sigma):
            winners.append(cand)
    assert len(winners) == 1, f"existential formula satisfied by {len(winners)} points"
    return winners[0]


def _fibre_profile(ext: Extension, pk: SplitPrime, multiplier: FqElement) -> set:
    """All (π(x), π(m·x)) index pairs over nonzero x in the fibre at pk."""
    pl = project_point(ext, pk)
    proj = _projector(pk, pl, ext.emb)
    fld = proj.fld_k
    out = set()
    for i in range(1, fld.order):
        x = fld.from_index(i)
        out.add((proj.norm(x).index, proj.norm(x * multiplier).index))
    return out


# ---------------------------------------------------------------------------
# annihilators
# ---------------------------------------------------------------------------


def annihilator_set(gamma: IntPoly, field, bound: int) -> list[SplitPrime]:
    """All points with p <= bound whose fibre is killed by γ.

    γ kills the fibre at pK exactly when its name there is zero, i.e. when
    the local factor divides γ mod p.
    """
    if gamma.is_zero:
        raise ValueError("the zero element annihilates everything")
    out = []
    for p in stream_primes(bound):
        gbar = reduce_mod_p(gamma, p)
        fbar = reduce_mod_p(field.poly, p)
        if mp.deg(mp.gcd_p(gbar, fbar, p)) < 1:
            continue
        for pk in split_prime(field, p):
            if mp.trim(mp.rem_p(gbar, list(pk.local_factor), p)):
                continue
            out.append(pk)
    return out


# ---------------------------------------------------------------------------
# verification sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormFibreReport:
    ext_name: str
    bound: int
    points: int
    failures: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def __str__(self) -> str:
        status = "all fibres match (|pK|-1)/(|pL|-1)" if self.ok else (
            f"FAILED at {[p for p, _ in self.failures]}"
        )
        return (
            f"norm fibre law for {self.ext_name}, {self.points} points over"
            f" p <= {self.bound}: {status}"
        )


def check_norm_fibres(ext: Extension, bound: int) -> NormFibreReport:
    """Enumerate every norm fibre and compare with the size law.

    For each point of the top field over an evaluable p <= bound, counts the
    full preimage of every base value and checks: the zero fibre is a single
    point, and every nonzero fibre has exactly (|pK|-1)/(|pL|-1) points.
    """
    points = 0
    failures = []
    for pk in points_over(ext.field, bound, (ext,)):
        points += 1
        below = project_point(ext, pk)
        census = norm_fibre_census(pk, below, ext.emb)
        expect = (pk.order - 1) // (below.order - 1)
        if census[0] != 1 or any(c != expect for c in census[1:]):
            failures.append((pk.p, pk.local_factor))
    return NormFibreReport(ext.name, bound, points, tuple(failures))


@dataclass(frozen=True)
class SectionIndependenceReport:
    ext_name: str
    prime_bound: int
    gamma_bound: int
    trials: int
    comparisons: int
    failures: int

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def __str__(self) -> str:
        status = "independent" if self.ok else f"{self.failures} DEPENDENT outputs"
        return (
            f"section independence for {self.ext_name}: {self.trials} random"
            f" section pairs, gamma box [-{self.gamma_bound},{self.gamma_bound}]^2,"
            f" p <= {self.prime_bound}: {self.comparisons} comparisons, {status}"
        )


def check_section_independence(
    ext: Extension, prime_bound: int, gamma_bound: int, trials: int, seed: int = 0
) -> SectionIndependenceReport:
    """Recompute the induced action through random sections and compare.

    Each trial draws fresh sections upstairs and downstairs, pushes a random
    fibre point through ``project`` before and after acting by every gamma in
    the coefficient box, and compares against the section-free
    ``induced_action``.  Any disagreement is counted as a failure.
    """
    rng = random.Random(seed)
    deg = ext.field.degree
    box = range(-gamma_bound, gamma_bound + 1)
    gammas = [IntPoly.of(a, b) for a in box for b in box] if deg >= 2 else [
        IntPoly.of(a) for a in box
    ]
    comparisons = failures = 0
    for pk in points_over(ext.field, prime_bound, (ext,)):
        below = project_point(ext, pk)
        for _ in range(trials):
            secs = (Section.random([pk], rng), Section.random([below], rng))
            x = fiber_point(pk, rng.randrange(pk.order))
            base_pt = project(x, ext, secs)
            for gamma in gammas:
                via_sections = project(act(gamma, x), ext, secs)
                canonical = induced_action(gamma, base_pt, pk, ext.emb)
                comparisons += 1
                if via_sections != canonical:
                    failures += 1
    return SectionIndependenceReport(
        ext.name, prime_bound, gamma_bound, trials, comparisons, failures
    )
