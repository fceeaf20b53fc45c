import pathlib
import random
import tracemalloc

import numpy as np
import pytest

from arithplane import modpoly as mp
from arithplane import plane as pl
from arithplane import spectrum as sp
from arithplane.errors import (
    ArithPlaneError,
    HypothesisViolatedError,
    NotLyingOverError,
    RamifiedPrimeError,
)
from arithplane.finitefield import (
    fq_norm,
    rat_compose,
    rat_compose_mod,
    rat_mod,
    rat_mul,
    residue_field,
    residue_name,
)
from arithplane.intpoly import RatPoly, reduce_mod_p
from arithplane.lattice import load_lattice, prime_factors
from arithplane.sieve import stream_primes

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

ALPHA = RatPoly.of(0, 1)


@pytest.fixture(scope="module")
def demo():
    return load_lattice((CONFIG_DIR / "demo.cfg").read_text())


def horner(a, x, p):
    """a(x) mod p by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def q_point(demo, p):
    (pt,) = sp.split_prime(demo.field("Q"), p)
    return pt


# ----------------------------------------------------------------- action
#
# The fibre laws run on element lanes: γ·x is _fibre(pk).times(x, name of γ),
# π is proj.project(x, s_k, s_l) for base points s_k and s_l, and the induced
# action of γ below pk scales by proj.norm(name of γ).


def names(pk, gammas):
    """The names of the gammas at pk, as one index lane."""
    return pl._fibre(pk).lane([pl._name(pk, g) for g in gammas])


def test_act_examples(demo):
    qi = demo.field("Qi")
    pk = [x for x in sp.split_prime(qi, 5) if x.local_factor == (3, 1)][0]
    # alpha, 5 and 1 acting on the element 1
    acted = pl._fibre(pk).times(1, names(pk, [ALPHA, RatPoly.of(5), RatPoly.of(1)]))
    assert acted.tolist() == [2, 0, 1]


def test_act_is_multiplicative(demo):
    qi = demo.field("Qi")
    rng = random.Random(31)
    for p in (5, 7, 13):
        for pk in sp.split_prime(qi, p):
            a, b, ab, x = [], [], [], []
            for _ in range(20):
                g1 = RatPoly.of(rng.randrange(-9, 10), rng.randrange(-9, 10))
                g2 = RatPoly.of(rng.randrange(-9, 10), rng.randrange(-9, 10))
                x.append(rng.randrange(pk.order))
                for out, g in zip((a, b, ab), (g1, g2, rat_mul(g1, g2))):
                    out.append(g)
            fk = pl._fibre(pk)
            lhs = fk.times(fk.times(x, names(pk, b)), names(pk, a))
            assert (lhs == fk.times(x, names(pk, ab))).all(), pk


def test_act_zero_iff_in_kernel(demo):
    # the annihilator of the fibre is exactly the point's ideal
    qi = demo.field("Qi")
    gammas = [RatPoly.of(a, b) for a in range(-5, 6) for b in range(-5, 6)]
    for p in (5, 7):
        for pk in sp.split_prime(qi, p):
            killed = pl._fibre(pk).times(1, names(pk, gammas)) == 0
            assert killed.tolist() == [residue_name(pk, g).index == 0 for g in gammas]


# -------------------------------------------------------------- projection


def test_project_examples(demo):
    qi = demo.field("Qi")
    ext = demo.extension("Qi/Q")
    (p3,) = sp.split_prime(qi, 3)
    assert pl.project_point(ext, p3) == q_point(demo, 3)
    proj = pl._projector(p3, q_point(demo, 3), ext.emb)
    # 1, t + 1 (index 4) and 0 under the unit base points
    assert proj.project([1, 4, 0], 1, 1).tolist() == [1, 2, 0]


def test_project_point_is_total_and_unique(demo):
    ext = demo.extension("Q8/Qi")
    for p in stream_primes(300):
        if ext.is_excluded(p):
            continue
        for pk in sp.split_prime(demo.field("Q8"), p):
            below = pl.project_point(ext, pk)
            assert sp.lies_over(pk, below, ext.emb)


def test_project_respects_default_section_base_point(demo):
    # the section's base point upstairs always lands on the base point below:
    # the default 1, and every other nonzero base point s_k, one per lane
    for spec in ("Qi/Q", "Q8/Qi", "S3c/Qc2"):
        ext = demo.extension(spec)
        for p in stream_primes(60):
            if ext.is_excluded(p):
                continue
            for pk in sp.split_prime(ext.field, p):
                proj = pl._projector(pk, pl.project_point(ext, pk), ext.emb)
                s_k = np.arange(1, pk.order)
                assert (proj.project(s_k, s_k, 1) == 1).all(), (spec, pk)


def assert_equivariant(proj, x, gamma_names, s_k, s_l):
    """π(γ·x) = γ·π(x) on every lane, for the base points s_k and s_l."""
    fk, fl = proj.fibre_k, proj.fibre_l
    lhs = proj.project(fk.times(x, gamma_names), s_k, s_l)
    rhs = fl.times(proj.project(x, s_k, s_l), proj.norm(gamma_names))
    assert (lhs == rhs).all()


def test_morphism_equivariance(demo):
    # projecting the action equals acting on the projection, for any sections
    qi = demo.field("Qi")
    ext = demo.extension("Qi/Q")
    rng = random.Random(47)
    gammas = [RatPoly.of(a, b) for a in range(-3, 4) for b in range(-3, 4)]
    for p in (5, 7, 13, 29):
        for pk in sp.split_prime(qi, p):
            below = pl.project_point(ext, pk)
            s_k, s_l = rng.randrange(1, pk.order), rng.randrange(1, below.order)
            proj = pl._projector(pk, below, ext.emb)
            # lane i * |pK| + x holds gamma i and element x
            x = np.tile(np.arange(pk.order), len(gammas))
            assert_equivariant(proj, x, np.repeat(names(pk, gammas), pk.order), s_k, s_l)


def test_morphism_equivariance_relative(demo):
    ext = demo.extension("Q8/Qi")
    rng = random.Random(53)
    for p in (17, 41):
        for pk in sp.split_prime(demo.field("Q8"), p):
            below = pl.project_point(ext, pk)
            s_k, s_l = rng.randrange(1, pk.order), rng.randrange(1, below.order)
            gammas, x = [], []
            for _ in range(25):
                gammas.append(RatPoly.from_coeffs([rng.randrange(-4, 5) for _ in range(4)]))
                x.append(rng.randrange(pk.order))
            proj = pl._projector(pk, below, ext.emb)
            assert_equivariant(proj, x, names(pk, gammas), s_k, s_l)


def test_induced_action_examples(demo):
    qi = demo.field("Qi")
    ext = demo.extension("Qi/Q")
    (p3,) = sp.split_prime(qi, 3)
    proj = pl._projector(p3, q_point(demo, 3), ext.emb)
    # alpha, 1 + alpha and 3 acting below p3 on the element 1
    scales = proj.norm(names(p3, [ALPHA, RatPoly.of(1, 1), RatPoly.of(3)]))
    assert proj.fibre_l.times(1, scales).tolist() == [1, 2, 0]
    # p3 does not lie over the point of Q at 5
    with pytest.raises(NotLyingOverError):
        pl._projector(p3, q_point(demo, 5), ext.emb)


def test_induced_action_section_free(demo):
    # recomputing through project with many random sections never changes
    # the induced action
    qi = demo.field("Qi")
    ext = demo.extension("Qi/Q")
    rng = random.Random(61)
    gammas = [RatPoly.of(a, b) for a in range(-2, 3) for b in range(-2, 3)]
    for p in (5, 7, 13, 97):
        for pk in sp.split_prime(qi, p):
            below = pl.project_point(ext, pk)
            proj = pl._projector(pk, below, ext.emb)
            fk, fl = proj.fibre_k, proj.fibre_l
            # per gamma: a point below, then 10 section pairs; trial t is
            # gamma t // 10
            bpt, s_k, s_l = [], [], []
            for _ in gammas:
                bpt.append(rng.randrange(below.order))
                for _ in range(10):
                    s_k.append(rng.randrange(1, pk.order))
                    s_l.append(rng.randrange(1, below.order))
            bpt = np.repeat(bpt, 10)
            gamma_names = np.repeat(names(pk, gammas), 10)
            want = fl.times(bpt, proj.norm(gamma_names))
            # the first x of the fibre that each trial's sections project onto bpt
            order, trials = pk.order, len(s_k)
            pushed = proj.project(np.tile(np.arange(order), trials),
                                  np.repeat(s_k, order), np.repeat(s_l, order))
            hits = pushed.reshape(trials, order) == bpt[:, None]
            assert hits.any(axis=1).all()
            x = hits.argmax(axis=1)
            got = proj.project(fk.times(x, gamma_names), s_k, s_l)
            assert (got == want).all(), pk


def test_integer_action_is_norm_power(demo):
    # an integer gamma acts downstairs by its norm, i.e. by gamma^e where e
    # is the relative residue degree; for split points that is plain action
    qi = demo.field("Qi")
    ext = demo.extension("Qi/Q")
    cs = range(-6, 7)
    for p in (5, 7, 13):
        pq = q_point(demo, p)
        for pk in sp.split_prime(qi, p):
            e = pk.residue_degree
            proj = pl._projector(pk, pq, ext.emb)
            # lane i * p + b holds c = cs[i] and the element b below
            b = np.tile(np.arange(p), len(cs))
            scales = proj.norm(names(pk, [RatPoly.of(c) for c in cs]))
            induced = proj.fibre_l.times(b, np.repeat(scales, p))
            plain = pl._fibre(pq).times(b, np.repeat(names(pq, [RatPoly.of(c**e) for c in cs]), p))
            assert (induced == plain).all(), pk


def test_orbit_transitivity(demo):
    # any two nonzero points of a fibre are related by the monoid action;
    # found by discrete search over small boxes
    qi = demo.field("Qi")
    rng = random.Random(71)
    for p in (7, 11):
        (pk,) = sp.split_prime(qi, p)
        box = names(pk, [RatPoly.of(a, b) for a in range(p) for b in range(p)])
        pairs = [(rng.randrange(1, pk.order), rng.randrange(1, pk.order)) for _ in range(15)]
        i, j = (np.array(col) for col in zip(*pairs))
        # row t holds the box acting on the point i[t]
        acted = pl._fibre(pk).times(np.repeat(i, box.size), np.tile(box, len(pairs)))
        witnessed = (acted.reshape(len(pairs), box.size) == j[:, None]).any(axis=1)
        assert witnessed.all(), (p, [pair for pair, ok in zip(pairs, witnessed) if not ok])


def test_action_separation(demo):
    # lifting the local factor of one point kills exactly that fibre

    def induced_on_one(pk, below, emb, gamma):
        proj = pl._projector(pk, below, emb)
        (value,) = proj.fibre_l.times(1, proj.norm(names(pk, [gamma])))
        return value

    qi = demo.field("Qi")
    ext = demo.extension("Qi/Q")
    pa, pb = sp.split_prime(qi, 5)
    for down, other in ((pa, pb), (pb, pa)):
        gamma = RatPoly.from_coeffs(down.local_factor)
        assert induced_on_one(down, q_point(demo, 5), ext.emb, gamma) == 0
        assert induced_on_one(other, q_point(demo, 5), ext.emb, gamma) != 0
    # relative version at a fully split prime of Q8 over Qi
    ext8 = demo.extension("Q8/Qi")
    for pl_qi in sp.split_prime(qi, 17):
        ups = [pk for pk in sp.split_prime(demo.field("Q8"), 17) if sp.lies_over(pk, pl_qi, ext8.emb)]
        assert len(ups) == 2
        gamma = RatPoly.from_coeffs(ups[0].local_factor)
        assert induced_on_one(ups[0], pl_qi, ext8.emb, gamma) == 0
        assert induced_on_one(ups[1], pl_qi, ext8.emb, gamma) != 0


# ---------------------------------------------------------- fibre counting


def test_preimage_size_examples(demo):
    # census[i] is the size of the norm preimage of the element with index i
    qi = demo.field("Qi")
    ext = demo.extension("Qi/Q")
    (p3,) = sp.split_prime(qi, 3)
    assert pl.norm_fibre_census(p3, q_point(demo, 3), ext.emb) == [1, 4, 4]
    p5 = sp.split_prime(qi, 5)[0]
    assert pl.norm_fibre_census(p5, q_point(demo, 5), ext.emb) == [1, 1, 1, 1, 1]
    # p3 does not lie over (5, t): the census of an unrelated pair is refused
    with pytest.raises(NotLyingOverError):
        pl.norm_fibre_census(p3, q_point(demo, 5), ext.emb)


def test_fibre_counts_sum(demo):
    # nonzero fibre sizes add up to |pK| - 1, and zero is alone in its fibre
    for spec, bound in (("Qi/Q", 31), ("Q8/Qi", 31), ("S3c/Qc2", 20)):
        ext = demo.extension(spec)
        for p in stream_primes(bound):
            if ext.is_excluded(p):
                continue
            for pk in sp.split_prime(ext.field, p):
                below = pl.project_point(ext, pk)
                census = pl.norm_fibre_census(pk, below, ext.emb)
                assert census[0] == 1
                assert sum(census) == pk.order
                expect = (pk.order - 1) // (below.order - 1)
                assert all(c == expect for c in census[1:]), (spec, p)


def test_census_vectorized_path(demo):
    # inert quadratics go through the numpy closed form; check against the
    # formula for every unramified p below 200
    qi = demo.field("Qi")
    ext = demo.extension("Qi/Q")
    for p in stream_primes(200):
        if ext.is_excluded(p):
            continue
        (pk, *rest) = sp.split_prime(qi, p)
        if rest:
            continue  # split case is trivial
        census = pl.norm_fibre_census(pk, q_point(demo, p), ext.emb)
        assert census[0] == 1 and set(census[1:]) == {p + 1}


def test_census_memory_is_bounded(demo):
    # the closed form runs over blocks of rows, not on the p x p table
    # (69 MiB of int64 at p = 2999); 2999 is inert in Qi, and its blocks
    # of five rows leave a shorter last one
    ext = demo.extension("Qi/Q")
    (pk,) = sp.split_prime(demo.field("Qi"), 2999)
    tracemalloc.start()
    try:
        census = pl.norm_fibre_census(pk, q_point(demo, 2999), ext.emb)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert census[0] == 1 and set(census[1:]) == {3000} and len(census) == 2999
    assert peak < 4 * 2**20


# ------------------------------------------------------------- galois move


def test_galois_image_examples(demo):
    qi = demo.field("Qi")
    conj = [a for a in demo.autos("Qi") if a.h.coeffs != (0, 1)][0]
    ident = [a for a in demo.autos("Qi") if a.h.coeffs == (0, 1)][0]
    q = [x for x in sp.split_prime(qi, 5) if x.local_factor == (3, 1)][0]
    assert pl.galois_image(demo, conj, q).local_factor == (2, 1)
    assert pl.galois_image(demo, ident, q) == q
    (p3,) = sp.split_prime(qi, 3)
    assert pl.galois_image(demo, conj, p3) == p3
    with pytest.raises(RamifiedPrimeError):
        pl.galois_image(demo, conj, sp.split_prime(qi, 2)[0])
    with pytest.raises(NotLyingOverError):
        pl.galois_image(demo, conj, q_point(demo, 5))


def test_galois_image_permutes_points(demo):
    # each automorphism permutes the points over p, preserving residue degree
    for name in ("Qi", "Q8", "S3c"):
        fld = demo.field(name)
        for p in stream_primes(100):
            if fld.disc % p == 0:
                continue
            pts = sp.split_prime(fld, p)
            for sigma in demo.autos(name):
                images = [pl.galois_image(demo, sigma, q) for q in pts]
                key = lambda s: (s.residue_degree, s.local_factor)
                assert sorted(images, key=key) == pts
                for q, q2 in zip(pts, images):
                    assert q.residue_degree == q2.residue_degree


def test_galois_image_root_transport_oracle(demo):
    # independent check at fully split primes: the point with residue r maps
    # to the point whose residue r' satisfies h_sigma(r') = r
    qi = demo.field("Qi")
    for p in (13, 17, 29, 37):
        pts = sp.split_prime(qi, p)
        assert all(x.residue_degree == 1 for x in pts)
        for sigma in demo.autos("Qi"):
            hbar = reduce_mod_p(sigma.h, p)
            for q in pts:
                r = (-q.local_factor[0]) % p
                img = pl.galois_image(demo, sigma, q)
                r_img = (-img.local_factor[0]) % p
                assert horner(hbar, r_img, p) == r


def test_galois_composition_order(demo):
    # (sigma . tau)(q) = sigma(tau(q)); in S3 the order of composition is
    # visible, so this pins the convention
    s3 = demo.field("S3c")
    fmod = s3.poly
    autos = demo.autos("S3c")
    pts = sp.split_prime(s3, 31)
    assert len(pts) == 6
    pairs_checked = 0
    for sig in autos:
        for tau in autos:
            combined = rat_compose_mod(tau.h, sig.h, fmod)
            comp = [a for a in autos if a.h == combined][0]
            for q in pts[:2]:
                step = pl.galois_image(demo, sig, pl.galois_image(demo, tau, q))
                assert step == pl.galois_image(demo, comp, q)
                pairs_checked += 1
    assert pairs_checked > 0


def test_galois_three_cycle(demo):
    # an order-3 automorphism must move split points in 3-cycles
    fmod = demo.field("S3c").poly
    three = None
    for a in demo.autos("S3c"):
        sq = rat_compose_mod(a.h, a.h, fmod)
        cube = rat_compose_mod(sq, a.h, fmod)
        if a.h.coeffs != (0, 1) and cube.coeffs == (0, 1) and sq.coeffs != (0, 1):
            three = a
            break
    assert three is not None
    pts = sp.split_prime(demo.field("S3c"), 31)
    seen_moved = 0
    for q in pts:
        q1 = pl.galois_image(demo, three, q)
        q2 = pl.galois_image(demo, three, q1)
        q3 = pl.galois_image(demo, three, q2)
        assert q3 == q
        if q1 != q:
            assert q2 != q and q2 != q1
            seen_moved += 1
    assert seen_moved == 6  # a 3-cycle pair fixes nothing over a split prime


def test_galois_modes_agree(demo):
    for name in ("Qi", "Qs2", "Qw", "Q8"):
        ext = demo.extension((name, "Q"))
        for p in stream_primes(200):
            if ext.is_excluded(p):
                continue
            pq = q_point(demo, p)
            if not sp.in_psi(ext, pq):
                continue
            for sigma in demo.autos(name):
                for q in sp.split_prime(ext.field, p):
                    direct = pl.galois_image(demo, sigma, q, "direct")
                    brute = pl.galois_image(demo, sigma, q, "bruteforce")
                    assert direct == brute, (name, p, sigma.h)


def test_galois_bruteforce_guards(demo):
    qi = demo.field("Qi")
    conj = [a for a in demo.autos("Qi") if a.h.coeffs != (0, 1)][0]
    (p7,) = sp.split_prime(qi, 7)  # 7 is inert: not fully split
    with pytest.raises(HypothesisViolatedError):
        pl.galois_image(demo, conj, p7, "bruteforce")
    big = sp.split_prime(qi, 1009)[0]
    with pytest.raises(ValueError):
        pl.galois_image(demo, conj, big, "bruteforce")
    with pytest.raises(ValueError):
        pl.galois_image(demo, conj, sp.split_prime(qi, 5)[0], "sideways")


# ------------------------------------ projector and Galois move vs FqElement


def _vanishes_at_name(g, pK, h):
    """Horner of g at the FqElement name of h in the residue field at pK."""
    u = residue_name(pK, h)
    acc = u.field.zero
    for c in reversed(g):
        acc = acc * u + u.field.element(c)
    return acc.is_zero


def _oracle_norm(pK, pL, emb):
    """fq_norm, then a linear solve per element against the powers of the
    embedded generator: the route the projector replaced."""
    fld_l = residue_field(pL)
    u = residue_name(pK, emb.h)
    matrix = [list(row) for row in zip(*((u**j).rep for j in range(pL.residue_degree)))]

    def norm(x):
        w = fq_norm(x, pL.residue_degree)
        return fld_l.element(mp.linsolve(matrix, list(w.rep), pK.p))

    return norm


NEAR_2_61 = (2305843009213693951, 2305843009213693921, 2305843009213693907)


def test_projector_norm_matches_element_oracle(demo):
    # every projector over p < 20 and two large primes: every element of
    # fibres with at most 5000 elements, 50 seeded random elements of each
    # larger one
    rng = random.Random(101)
    exts = [demo.extension((dst, src)) for src, dst in demo.embeddings]
    exts += [demo.extension((name, "Q")) for name in demo.fields if name != "Q"]
    shapes = set()
    for ext in exts:
        for p in [*stream_primes(20), 998244353, NEAR_2_61[0]]:
            if ext.is_excluded(p):
                continue
            for pK in sp.split_prime(ext.field, p):
                pL = pl.project_point(ext, pK)
                proj = pl._projector(pK, pL, ext.emb)
                oracle = _oracle_norm(pK, pL, ext.emb)
                if pK.order <= 5000:
                    indices = range(pK.order)
                else:
                    indices = [rng.randrange(pK.order) for _ in range(50)]
                fld = residue_field(pK)
                want = [oracle(fld.from_index(idx)).index for idx in indices]
                assert proj.norm(list(indices)).tolist() == want, (ext.name, pK)
                shapes.add((pK.residue_degree, pL.residue_degree, pK.order <= 5000))
    assert shapes == {(m, d, small) for m, d in ((1, 1), (2, 1), (2, 2), (3, 1), (3, 3))
                      for small in (True, False)}


def test_projector_refuses_non_subfield_input(demo):
    # the rewrite rebuilds its input from the coordinates, so an element
    # outside the image of F_pL is caught rather than silently truncated
    ext = demo.extension("Qi/Q")
    (p3,) = sp.split_prime(demo.field("Qi"), 3)
    proj = pl._projector(p3, q_point(demo, 3), ext.emb)
    assert proj._rewrite(proj.fibre_k.digits([2, 0, 1])).tolist() == [[2, 0, 1]]
    # t has index 3; one lane outside the subfield fails the whole array
    with pytest.raises(AssertionError):
        proj._rewrite(proj.fibre_k.digits([3]))
    with pytest.raises(AssertionError):
        proj._rewrite(proj.fibre_k.digits([2, 0, 1, 3]))


def _element_profiles(ext, pk, multipliers):
    """The bruteforce Galois profiles walked one FqElement at a time: for
    each multiplier m, every (π(x), π(m·x)) index pair over nonzero x, with
    the oracle norm."""
    oracle = _oracle_norm(pk, pl.project_point(ext, pk), ext.emb)
    fld = residue_field(pk)
    norms = [oracle(x).index for x in fld.elements()]
    xs = [fld.from_index(i) for i in range(1, fld.order)]
    return [{(norms[x.index], norms[(x * m).index]) for x in xs} for m in multipliers]


def test_fibre_profile_matches_element_walk(demo):
    # the lane profile against the element walk for every point of Q8 and S3c
    # over each fully split p <= 500, with the multipliers the bruteforce
    # search uses: the name of alpha and of every sigma(alpha)
    checked = 0
    for name in ("Q8", "S3c"):
        ext = demo.extension((name, "Q"))
        maps = (ALPHA, *(sigma.h for sigma in demo.autos(name)))
        for p in stream_primes(500):
            if ext.is_excluded(p) or not sp.in_psi(ext, q_point(demo, p)):
                continue
            for pk in sp.split_prime(ext.field, p):
                walks = _element_profiles(ext, pk, [residue_name(pk, h) for h in maps])
                for h, walk in zip(maps, walks):
                    lanes = pl._fibre_profile(ext, pk, q_point(demo, p), pl._name(pk, h))
                    assert {divmod(v, p) for v in lanes} == walk, (pk, h)
                    checked += 1
    assert checked == 1030


def _tower_document(f_l, g):
    """L = Q[x]/(f_L) inside K = Q[x]/(f_L(g(x))) along alpha -> g(alpha)."""
    f_k = rat_compose(RatPoly.over(f_l), RatPoly.over(g))
    poly_l, poly_k, map_g = (" ".join(map(str, c)) for c in (f_l, f_k.num, g))
    return f"field L\n  poly {poly_l}\nfield K\n  poly {poly_k}\nembed L -> K\n  map {map_g}\n"


def test_random_towers_match_oracles():
    # f_L(g(alpha)) = 0 in K, so alpha -> g(alpha) embeds L in K with h = g;
    # documents that load_lattice refuses (f_K reducible, or no
    # irreducibility certificate) are discarded, never declared trusted.
    # The norm is checked on every element of each fibre of 4 to 800
    # elements; on the drawn towers those have the shapes (deg pK, deg pL)
    # (2, 1), (2, 2), (3, 3), (4, 2) and (6, 3)
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    small = st.integers(-5, 5)
    shapes = set()

    @hyp.settings(max_examples=40, derandomize=True, deadline=None, database=None,
                  suppress_health_check=[hyp.HealthCheck.filter_too_much])
    @hyp.given(f_low=st.lists(small, min_size=2, max_size=3),
               g_low=st.lists(small, min_size=2, max_size=2))
    def random_tower(f_low, g_low):
        try:
            cfg = load_lattice(_tower_document(f_low + [1], g_low + [1]))
        except ArithPlaneError:
            hyp.assume(False)
        ext = cfg.extension(("K", "L"))
        for pL in sp.points_over(ext.base, 200, (ext,)):
            assert sp.in_pi(ext, pL) == sp.in_pi_absolute(ext, pL), (ext, pL)
            assert sp.in_psi(ext, pL) == sp.in_psi_absolute(ext, pL), (ext, pL)
        for pK in sp.points_over(ext.field, 200, (ext,)):
            if pK.residue_degree == 1 or pK.order > 800:
                continue  # a norm F_p -> F_p is the identity
            pL = pl.project_point(ext, pK)
            proj, oracle = pl._projector(pK, pL, ext.emb), _oracle_norm(pK, pL, ext.emb)
            want = [oracle(x).index for x in residue_field(pK).elements()]
            assert proj.norm(range(pK.order)).tolist() == want, (ext, pK)
            shapes.add((pK.residue_degree, pL.residue_degree))

    random_tower()
    assert {(2, 1), (2, 2)} <= shapes


def test_galois_direct_matches_split_and_filter(demo):
    # the old route: split p, keep the candidates that lie over q along the
    # self-embedding alpha -> sigma(alpha), judged by FqElement evaluation
    checked = 0
    for name, fld in demo.fields.items():
        for p in [*stream_primes(300), *NEAR_2_61]:
            if not demo.autos(name) or fld.disc % p == 0:
                continue
            pts = sp.split_prime(fld, p)
            for sigma in demo.autos(name):
                for q in pts:
                    (want,) = [c for c in pts if _vanishes_at_name(q.local_factor, c, sigma.h)]
                    assert pl.galois_image(demo, sigma, q) == want, (name, p, sigma.h, q)
                    checked += 1
    assert checked == 2374


# ------------------------------------------------------------ annihilators


def test_annihilator_examples(demo):
    qi = demo.field("Qi")
    got = pl.annihilator_set(RatPoly.of(2, 1), qi, 100)
    assert [(x.p, x.local_factor) for x in got] == [(5, (2, 1))]
    got3 = pl.annihilator_set(RatPoly.of(3), qi, 100)
    assert [(x.p, x.residue_degree) for x in got3] == [(3, 2)]
    assert pl.annihilator_set(RatPoly.of(1), qi, 100) == []
    with pytest.raises(ValueError):
        pl.annihilator_set(RatPoly.of(), qi, 100)


def resultant_oracle(f: RatPoly, gamma: RatPoly) -> int:
    """Res(f, gamma) for monic f: the norm of gamma(α), the determinant of
    multiplication by gamma on Q[x]/(f), by Fraction elimination on rows
    gamma·x^i mod f of the RatPoly route."""
    n = f.degree
    rows = [rat_mod(RatPoly.over([0] * i + list(gamma.num)), f).coeffs for i in range(n)]
    mat = [list(r) + [0] * (n - len(r)) for r in rows]
    det = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if mat[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            mat[k], mat[pivot], det = mat[pivot], mat[k], -det
        det *= mat[k][k]
        for row in mat[k + 1:]:
            factor = row[k] / mat[k][k]
            row[k:] = [a - factor * b for a, b in zip(row[k:], mat[k][k:])]
    assert det.denominator == 1
    return det.numerator


def test_annihilator_support_matches_resultant(demo):
    # support primes are exactly the primes dividing Res(f, gamma)
    rng = random.Random(83)
    for name in ("Qi", "Qc2"):
        fld = demo.field(name)
        for _ in range(12):
            coeffs = [rng.randrange(-9, 10) for _ in range(fld.degree)]
            gamma = RatPoly.from_coeffs(coeffs)
            if gamma.is_zero:
                continue
            res = resultant_oracle(fld.poly, gamma)
            if res == 0:
                continue  # gamma shares a factor with f; not a unit story
            support = {pk.p for pk in pl.annihilator_set(gamma, fld, 200)}
            assert support == {p for p in prime_factors(res) if p <= 200}, (name, coeffs)


def test_annihilator_norm_crosscheck(demo):
    # for a + b*i the absolute norm a^2 + b^2 carries the whole support
    qi = demo.field("Qi")
    rng = random.Random(89)
    for _ in range(20):
        a, b = rng.randrange(-20, 21), rng.randrange(-20, 21)
        if a == 0 and b == 0:
            continue
        norm = a * a + b * b
        support = {pk.p for pk in pl.annihilator_set(RatPoly.of(a, b), qi, 300)}
        assert support == {p for p in prime_factors(norm) if p <= 300}
