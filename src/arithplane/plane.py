"""Fibres over the spectrum: the module action, projections, Galois motion.

Above each point pK of K sits a fibre — realized concretely as the residue
field F_pK = F_p[t]/(g) — on which integer-polynomial expressions γ(α) act
by multiplication through the naming map.  A section picks one nonzero
element index per fibre as its base point; the projection to a subfield's
fibre sends η·s_pK to Norm(η)·s_pL, and everything downstream checks that
choices of section wash out exactly where the theory says they must.

Fibre elements are carried by their indices (base-p digits, constant digit
least significant) and computed on element lanes: an array of indices
becomes an (m, L) digit array, one element per lane, multiplied and powered
on the reduction-row product and ladder of ``modpoly._LaneRing`` with the
same p in every lane.

The norm is x -> x^((|pK|-1)/(|pL|-1)) (Lidl-Niederreiter, Thm 2.28): one
lane power and one matrix per fibre.  The matrix is a fixed F_p-linear left
inverse (d x m) of the powers of the embedded generator, which rewrites
every power in F_pL coordinates; rebuilding the powers from those
coordinates checks every lane.  Both are set up once per (point, point,
embedding) triple, and ``finitefield.fq_norm`` is their oracle.  The
projector refuses any pair for which ``spectrum.lies_over`` fails.

``galois_image`` moves points of the spectrum by a declared automorphism.
The direct mode takes σ(q) as the one factor of f_K mod p on which g_q(σ)
vanishes, by one gcd over F_p; the bruteforce mode re-derives the image
from an existential search over fibre pairs whose projections agree —
base-Q, restricted to fully split primes, and an independent oracle.  A
profile, the projected pairs of one fibre, is a frozenset, and a candidate
is met with the point by ``isdisjoint``.
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
from .intpoly import RatPoly, reduce_mod_p
from .lattice import Automorphism, Extension, LatticeConfig
from .sieve import stream_primes
from .spectrum import (
    SplitPrime,
    in_psi,
    lies_over,
    points_over,
    split_prime,
)

BRUTEFORCE_PRIME_BOUND = 1000

SECTION_LANES = 1 << 14
"""Lanes per step of the section-independence check (whole trials of every
gamma in the box) and cells per block of the quadratic norm census (whole
rows of its p x p table, or one row): memory grows with neither trials nor p²."""


class _Fibre:
    """F_pK on element lanes.

    Index arrays are int64 while |pK| < 2^63 and dtype=object above; digit
    lanes take the dtype of the fibre's ring.
    """

    def __init__(self, pk: SplitPrime):
        self.p, self.m, self.order = pk.p, pk.residue_degree, pk.order
        # one prime lane, broadcast over the element lanes
        self.ring = mp._LaneRing(list(pk.local_factor), mp.lanes(np.array([self.p])))
        self.dtype = self.ring.P.dtype
        self.index_dtype = np.int64 if self.order < 1 << 63 else object

    def lane(self, idx) -> np.ndarray:
        """Element indices (a sequence, an array or one int) as a 1-d index
        array of this fibre's index dtype."""
        return np.asarray(idx, dtype=self.index_dtype).reshape(-1)

    def digits(self, idx) -> np.ndarray:
        """The (m, L) base-p digits of the indices, constant digit first."""
        idx = self.lane(idx)
        out = np.empty((self.m, idx.size), dtype=self.dtype)
        for i in range(self.m):
            out[i] = idx % self.p
            idx = idx // self.p
        return out

    def index(self, digits: np.ndarray) -> np.ndarray:
        """The indices of (m, L) digit lanes."""
        acc = np.zeros(digits.shape[1], dtype=self.index_dtype)
        for row in digits[::-1]:
            acc = acc * self.p + row.astype(self.index_dtype)
        return acc

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Digit lanes a·b; a length-1 lane multiplies every lane."""
        if a.shape[1] < b.shape[1]:
            a, b = b, a  # the ring broadcasts its second operand
        return self.ring.mul(a, b)

    def times(self, a, b) -> np.ndarray:
        """The products of two index arrays, lane by lane."""
        return self.index(self.mul(self.digits(a), self.digits(b)))

    def inverse(self, w: np.ndarray) -> np.ndarray:
        """w^(r-1) / w^r in every digit lane, r = (|pK|-1)/(p-1): the inverse
        of a nonzero w.  w^r is its norm to F_p, inverted in each lane by
        Python integers, so the ladder runs over r - 1, not |pK| - 2."""
        head = self.ring.pow(w, (self.order - 1) // (self.p - 1) - 1)
        norm = self.ring.mul(head, w)[0]  # in F_p: the other digits are 0
        inv = np.array([pow(int(v), -1, self.p) for v in norm], dtype=self.dtype)
        return head * inv % self.p


@functools.lru_cache(maxsize=1024)
def _fibre(pk: SplitPrime) -> _Fibre:
    return _Fibre(pk)


def _name(pk: SplitPrime, gamma: RatPoly) -> int:
    """Index of the class of γ(α) mod (p, local factor): the naming map."""
    p = pk.p
    rep = mp.rem_p(reduce_mod_p(gamma, p), list(pk.local_factor), p)
    return sum(c * p**i for i, c in enumerate(rep))


# ---------------------------------------------------------------------------
# projection between fibres
# ---------------------------------------------------------------------------


def _matmul_mod(a: np.ndarray, x: np.ndarray, p: int) -> np.ndarray:
    """a @ x mod p for an (r, k) matrix a of residues and a (k, L) lane array;
    each product is reduced before it is added, so int64 lanes stay below
    p^2 + p."""
    out = np.zeros((a.shape[0], x.shape[1]), dtype=x.dtype)
    for j in range(a.shape[1]):
        out = (out + a[:, j:j + 1] * x[j] % p) % p
    return out


class _Projector:
    """Norm-and-rewrite machinery from the fibre at pK onto the one at pL.

    Refuses with ``NotLyingOverError`` unless ``spectrum.lies_over`` holds.
    Fixes the norm exponent and a left inverse of the basis 1, u, ...,
    u^(d-1) of F_pL, u the embedded generator and d = deg pL.  Every method
    takes and returns arrays of element indices.
    """

    def __init__(self, pK: SplitPrime, pL: SplitPrime, emb):
        if not lies_over(pK, pL, emb):
            raise NotLyingOverError(f"{pK} does not lie over {pL}")
        self.fibre_k, self.fibre_l = _fibre(pK), _fibre(pL)
        p, d, m = pK.p, pL.residue_degree, pK.residue_degree
        u, g = reduce_mod_p(emb.h, p), list(pK.local_factor)
        self._e = (pK.order - 1) // (pL.order - 1)
        powers = (mp.powmod(u, j, g, p) for j in range(d))
        powers = [w + [0] * (m - len(w)) for w in powers]
        # row i of the left inverse solves (u^j . row) = [i == j] for all j
        inverse = [mp.linsolve(powers, [int(i == j) for j in range(d)], p) for i in range(d)]
        self._powers_t = np.array(powers, dtype=self.fibre_k.dtype).T
        self._inverse = np.array(inverse, dtype=self.fibre_k.dtype)

    def _rewrite(self, w: np.ndarray) -> np.ndarray:
        """F_pL digit lanes of the (m, L) digit lanes w of subfield elements."""
        p = self.fibre_k.p
        coords = _matmul_mod(self._inverse, w, p)
        # the rows invert the basis on the subfield only: rebuilding w proves w lies in it
        assert (_matmul_mod(self._powers_t, coords, p) == w).all(), \
            "subfield rewrite failed to reconstruct"
        return coords.astype(self.fibre_l.dtype, copy=False)

    def _norm(self, w: np.ndarray) -> np.ndarray:
        return self._rewrite(self.fibre_k.ring.pow(w, self._e))

    def norm(self, idx) -> np.ndarray:
        """Multiplicative norm F_pK -> F_pL in every lane (zero to zero)."""
        return self.fibre_l.index(self._norm(self.fibre_k.digits(idx)))

    def project(self, x, sec_k, sec_l) -> np.ndarray:
        """η·s_k -> Norm(η)·s_l in every lane, for base points s_k upstairs
        and s_l below; zero goes to zero whatever the base points."""
        fk, fl = self.fibre_k, self.fibre_l
        eta = fk.mul(fk.digits(x), fk.inverse(fk.digits(sec_k)))
        return fl.index(fl.mul(self._norm(eta), fl.digits(sec_l)))


@functools.lru_cache(maxsize=1024)
def _projector(pK: SplitPrime, pL: SplitPrime, emb) -> _Projector:
    return _Projector(pK, pL, emb)


def project_point(ext: Extension, pK: SplitPrime) -> SplitPrime:
    """π^Sp along an extension: the unique point of the base below pK."""
    hits = [pl for pl in split_prime(ext.base, pK.p) if lies_over(pK, pl, ext.emb)]
    if len(hits) != 1:
        raise NotLyingOverError(f"{pK} restricts to {len(hits)} points of {ext.base.name}")
    return hits[0]


def norm_fibre_census(pK: SplitPrime, pL: SplitPrime, emb) -> list[int]:
    """Preimage counts of the raw norm map, indexed by the target element.

    The fibre law makes it [1, k, ..., k] with k = (|pK|-1)/(|pL|-1).
    Raises ``NotLyingOverError`` unless pK lies over pL.  Quadratic-over-
    prime fibres go through a vectorized evaluation of the closed form
    N(a+bt) = a² - c₁ab + c₀b², over blocks of rows a of at most
    ``SECTION_LANES`` cells; everything else takes the norm of every
    element in one lane array (bounded at |pK| <= 10^5).
    """
    proj = _projector(pK, pL, emb)
    p = pK.p
    if pK.residue_degree == 2 and pL.residue_degree == 1:
        c0, c1, _ = pK.local_factor
        b, rows = np.arange(p, dtype=np.int64), max(1, SECTION_LANES // p)
        total = np.zeros(p, dtype=np.int64)
        for lo in range(0, p, rows):
            a = np.arange(lo, min(lo + rows, p), dtype=np.int64).reshape(-1, 1)
            total += np.bincount(((a * a - c1 * a * b + c0 * b * b) % p).ravel(), minlength=p)
        counts = total.tolist()
        # numpy evaluates the closed form; spot-check it against the
        # generic route on a few elements
        spots = [1, p // 2 + 1, p + 3, pK.order - 1]
        a_s, b_s = proj.fibre_k.digits(spots)
        assert (proj.norm(spots) == (a_s * a_s - c1 * a_s * b_s + c0 * b_s * b_s) % p).all()
        return counts
    if pK.order > 100_000:
        raise ValueError(f"fibre of size {pK.order} too large to enumerate")
    return np.bincount(proj.norm(np.arange(pK.order)), minlength=pL.order).tolist()


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
    p = q.p
    fbar = reduce_mod_p(fld.poly, p)
    moved = mp.compose_mod(list(q.local_factor), reduce_mod_p(sigma.h, p), fbar, p)
    factor = mp.gcd_p(fbar, moved, p)
    # f_K is squarefree mod an unramified p, so the gcd is the product of
    # the factors φ with g_q(σ) = 0 mod φ; each has degree at least deg g_q,
    # as F_p[t]/φ holds a root of g_q, so degree deg g_q means exactly one
    assert mp.deg(factor) == q.residue_degree, "kernel transport is not one point"
    return SplitPrime(fld.name, p, tuple(factor), e=1, ramified_flag=False)


def _galois_bruteforce(cfg: LatticeConfig, sigma: Automorphism, q: SplitPrime) -> SplitPrime:
    p = q.p
    if p > BRUTEFORCE_PRIME_BOUND:
        raise ValueError(f"bruteforce mode is bounded at p <= {BRUTEFORCE_PRIME_BOUND}")
    ext = cfg.extension((sigma.field, "Q"))
    pq, candidates = _fully_split(ext, p)
    profile_q = _fibre_profile(ext, q, pq, _name(q, RatPoly.over((0, 1))))
    winners = [cand for cand in candidates
               if not profile_q.isdisjoint(_fibre_profile(ext, cand, pq, _name(cand, sigma.h)))]
    assert len(winners) == 1, f"existential formula satisfied by {len(winners)} points"
    return winners[0]


@functools.lru_cache(maxsize=64)
def _fully_split(ext: Extension, p: int) -> tuple[SplitPrime, tuple[SplitPrime, ...]]:
    """The point of Q over p and the points of K over it, once K/Q is fully
    split at p; the points of K over one p serve every bruteforce move."""
    (pq,) = split_prime(ext.base, p)
    if not in_psi(ext, pq):
        raise HypothesisViolatedError(
            f"prime {p} is not fully split for {ext.name}; the fibre-pair "
            "formula only determines the image over fully split primes"
        )
    return pq, tuple(split_prime(ext.field, p))


@functools.lru_cache(maxsize=256)
def _fibre_profile(ext: Extension, pk: SplitPrime, pl: SplitPrime,
                   multiplier: int) -> frozenset[int]:
    """The set of (π(x), π(m·x)) pairs over nonzero x in the fibre at pk,
    each encoded as π(x)·|pL| + π(m·x) (|pL| = p <= 1000 here).  Built once
    per point and multiplier: a move of each point over p meets the same
    profiles."""
    proj = _projector(pk, pl, ext.emb)
    fk = proj.fibre_k
    x = fk.digits(np.arange(1, pk.order))
    pairs = proj.fibre_l.index(proj._norm(x)) * pl.order
    pairs += proj.fibre_l.index(proj._norm(fk.mul(x, fk.digits(multiplier))))
    return frozenset(pairs.tolist())


# ---------------------------------------------------------------------------
# annihilators
# ---------------------------------------------------------------------------


def annihilator_set(gamma: RatPoly, field, bound: int) -> list[SplitPrime]:
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
    fibre point through the projection before and after acting by every
    gamma in the coefficient box, and compares against the section-free
    induced action.  Any disagreement is counted as a failure.  The trials
    of a point run as lanes, one (trial, gamma) pair per lane, and draw from
    the seeded generator in the order of one trial at a time.
    """
    rng = random.Random(seed)
    deg = ext.field.degree
    box = range(-gamma_bound, gamma_bound + 1)
    gammas = [RatPoly.over((a, b)) for a in box for b in box] if deg >= 2 else [
        RatPoly.over((a,)) for a in box
    ]
    comparisons = failures = 0
    block = max(1, SECTION_LANES // len(gammas))
    for pk in points_over(ext.field, prime_bound, (ext,)):
        below = project_point(ext, pk)
        proj = _projector(pk, below, ext.emb)
        fk, fl = proj.fibre_k, proj.fibre_l
        names = fk.lane([_name(pk, gamma) for gamma in gammas])
        scales = proj.norm(names)
        for start in range(0, trials, block):
            # each trial draws its two sections, then its point
            draws = [(rng.randrange(1, pk.order), rng.randrange(1, below.order),
                      rng.randrange(pk.order)) for _ in range(min(block, trials - start))]
            sec_k, sec_l, x = (np.array(col) for col in zip(*draws))
            base_pts = proj.project(x, sec_k, sec_l)
            # lane t * k + j holds trial t and gamma j
            k, t = len(gammas), len(draws)
            acted = fk.times(np.repeat(x, k), np.tile(names, t))
            via_sections = proj.project(acted, np.repeat(sec_k, k), np.repeat(sec_l, k))
            canonical = fl.times(np.repeat(base_pts, k), np.tile(scales, t))
            comparisons += canonical.size
            failures += int(np.count_nonzero(via_sections != canonical))
    return SectionIndependenceReport(
        ext.name, prime_bound, gamma_bound, trials, comparisons, failures
    )
