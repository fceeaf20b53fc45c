import pathlib

import pytest

from arithplane import modpoly as mp
from arithplane import spectrum as sp
from arithplane.errors import (
    InvalidPrimeError,
    NotLyingOverError,
    RamifiedPrimeError,
)
from arithplane.finitefield import (
    FqField,
    degree_pattern,
    fq_minpoly,
    fq_roots,
    poly_over,
    residue_name,
)
from arithplane.intpoly import RatPoly, reduce_mod_p
from arithplane.lattice import load_lattice
from arithplane.sieve import stream_primes

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def demo():
    return load_lattice((CONFIG_DIR / "demo.cfg").read_text())


def q_point(demo, p):
    (pt,) = sp.split_prime(demo.field("Q"), p)
    return pt


def test_split_prime_examples(demo):
    qi = demo.field("Qi")
    five = sp.split_prime(qi, 5)
    assert [(x.local_factor, x.e, x.residue_degree) for x in five] == [
        ((2, 1), 1, 1),
        ((3, 1), 1, 1),
    ]
    assert not any(x.ramified_flag for x in five)
    (three,) = sp.split_prime(qi, 3)
    assert three.local_factor == (1, 0, 1) and three.e == 1 and three.residue_degree == 2
    (two,) = sp.split_prime(qi, 2)
    assert two.local_factor == (1, 1) and two.e == 2 and two.ramified_flag
    assert str(two) == "(2, 1 + t) in Qi, ramified"


def _point_text(pk):
    """A point as its own printing loop wrote it, before it went through
    ``intpoly``'s printer."""
    terms = []
    for i, c in enumerate(pk.local_factor):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            var = "t" if i == 1 else f"t^{i}"
            terms.append(var if c == 1 else f"{c}*{var}")
    poly = " + ".join(terms) if terms else "0"
    tag = ", ramified" if pk.ramified_flag else ""
    return f"({pk.p}, {poly}) in {pk.field}{tag}"


def test_point_printing_keeps_its_bytes():
    # monic local factors with coefficients in [0, p), zeros included, at
    # any p the commands take
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def points(draw):
        p = draw(st.integers(2, 2**64 - 1))
        coeff = st.one_of(st.just(0), st.just(1), st.integers(0, p - 1))
        low = draw(st.lists(coeff, max_size=6))
        return sp.SplitPrime("K", p, (*low, 1), 1, draw(st.booleans()))

    @hyp.settings(max_examples=500, derandomize=True, deadline=None, database=None)
    @hyp.given(pk=points())
    def check(pk):
        assert str(pk) == _point_text(pk)

    check()


def test_split_prime_canonical_order(demo):
    q8 = demo.field("Q8")
    factors3 = [x.local_factor for x in sp.split_prime(q8, 3)]
    assert factors3 == [(2, 1, 1), (2, 2, 1)]
    factors17 = [x.local_factor for x in sp.split_prime(q8, 17)]
    assert factors17 == sorted(factors17) and len(factors17) == 4
    assert sp.split_prime(q8, 17) == sp.split_prime(q8, 17)


def test_split_prime_base_field(demo):
    pt = q_point(demo, 7)
    assert pt.local_factor == (0, 1) and pt.order == 7 and not pt.ramified_flag


def test_split_prime_rejects_composites(demo):
    with pytest.raises(InvalidPrimeError):
        sp.split_prime(demo.field("Qi"), 15)


def test_partition_identity(demo):
    # sum of e * residue_degree equals the field degree at every prime,
    # ramified ones included
    cases = [("Qi", 10_000), ("Qc2", 2000), ("Q8", 2000), ("S3c", 500)]
    for name, bound in cases:
        fld = demo.field(name)
        for p in stream_primes(bound):
            pts = sp.split_prime(fld, p)
            assert sum(x.e * x.residue_degree for x in pts) == fld.degree, (name, p)


def test_residue_name_examples(demo):
    qi = demo.field("Qi")
    pk = [x for x in sp.split_prime(qi, 5) if x.local_factor == (3, 1)][0]
    alpha = RatPoly.of(0, 1)
    assert residue_name(pk, alpha).index == 2
    assert residue_name(pk, 5).index == 0
    assert residue_name(pk, 1).index == 1
    # in the inert residue field the generator names the class of t
    (p3,) = sp.split_prime(qi, 3)
    named = residue_name(p3, alpha)
    assert named == named.field.element([0, 1])


def test_naming_kernel_degree_one(demo):
    # independent oracle: gamma = a + b*alpha lies in (p, alpha - r) exactly
    # when a + b*r = 0 mod p
    qi = demo.field("Qi")
    for p in (5, 13, 29, 37):
        for pk in sp.split_prime(qi, p):
            assert pk.residue_degree == 1
            r = (-pk.local_factor[0]) % p
            for a in range(-6, 7):
                for b in range(-6, 7):
                    member = (a + b * r) % p == 0
                    named = residue_name(pk, RatPoly.of(a, b))
                    assert (named.index == 0) == member, (p, a, b)


def test_naming_kernel_inert(demo):
    # inert prime: the ideal is (p) itself, so membership means p | a and p | b
    qi = demo.field("Qi")
    for p in (7, 11, 19, 23, 43):
        (pk,) = sp.split_prime(qi, p)
        assert pk.residue_degree == 2
        for a in range(-6, 7):
            for b in range(-6, 7):
                member = a % p == 0 and b % p == 0
                named = residue_name(pk, RatPoly.of(a, b))
                assert (named.index == 0) == member, (p, a, b)


def test_naming_kernel_cubic(demo):
    qc2 = demo.field("Qc2")
    p = 31
    deg1 = [x for x in sp.split_prime(qc2, p) if x.residue_degree == 1]
    assert len(deg1) == 3  # 4, 7, 20 are the cube roots of 2
    assert sorted((-x.local_factor[0]) % p for x in deg1) == [4, 7, 20]
    for pk in deg1:
        r = (-pk.local_factor[0]) % p
        for a in range(-4, 5):
            for b in range(-4, 5):
                for c in range(-4, 5):
                    member = (a + b * r + c * r * r) % p == 0
                    named = residue_name(pk, RatPoly.of(a, b, c))
                    assert (named.index == 0) == member


def test_lies_over_examples(demo):
    qi, q8 = demo.field("Qi"), demo.field("Q8")
    e = demo.embedding("Qi", "Q8")
    p8 = [x for x in sp.split_prime(q8, 5) if x.local_factor == (2, 0, 1)][0]
    over2 = [x for x in sp.split_prime(qi, 5) if x.local_factor == (2, 1)][0]
    over3 = [x for x in sp.split_prime(qi, 5) if x.local_factor == (3, 1)][0]
    assert sp.lies_over(p8, over2, e)
    assert not sp.lies_over(p8, over3, e)
    # base field: everything lies over the unique point of Q
    (p3qi,) = sp.split_prime(qi, 3)
    assert sp.lies_over(p3qi, q_point(demo, 3), demo.embedding("Q", "Qi"))


def test_lies_over_partitions_fibre(demo):
    # every point upstairs restricts to exactly one point downstairs
    qi = demo.field("Qi")
    ext = demo.extension("Q8/Qi")
    for p in stream_primes(200):
        if ext.is_excluded(p):
            continue
        down = sp.split_prime(qi, p)
        for pk in sp.split_prime(demo.field("Q8"), p):
            hits = [pl for pl in down if sp.lies_over(pk, pl, ext.emb)]
            assert len(hits) == 1, (p, pk)


def test_lies_over_error_cases(demo):
    qi = demo.field("Qi")
    e = demo.embedding("Q", "Qi")
    (p3,) = sp.split_prime(qi, 3)
    (p5, _) = sp.split_prime(qi, 5)
    with pytest.raises(NotLyingOverError):
        sp.lies_over(p3, q_point(demo, 5), e)  # different rational primes
    with pytest.raises(NotLyingOverError):
        sp.lies_over(p3, p5, e)  # embedding does not match the fields


def test_relative_degree_examples(demo):
    qi, q8 = demo.field("Qi"), demo.field("Q8")
    (p3qi,) = sp.split_prime(qi, 3)
    assert sp.relative_degree(p3qi, q_point(demo, 3), demo.embedding("Q", "Qi")) == 2
    p3q8 = sp.split_prime(q8, 3)[0]
    assert sp.relative_degree(p3q8, p3qi, demo.embedding("Qi", "Q8")) == 1
    p5qi = sp.split_prime(qi, 5)[0]
    assert sp.relative_degree(p5qi, q_point(demo, 5), demo.embedding("Q", "Qi")) == 1
    with pytest.raises(NotLyingOverError):
        sp.relative_degree(p3qi, q_point(demo, 3), demo.embedding("Q", "Q8"))


def test_relative_degree_multiplicativity(demo):
    # [F_pM : F_pQ] = [F_pM : F_pK] * [F_pK : F_pQ] along Qi -> Q8
    ext8 = demo.extension("Q8/Qi")
    e_q_qi = demo.embedding("Q", "Qi")
    e_q_q8 = demo.embedding("Q", "Q8")
    for p in stream_primes(300):
        if ext8.is_excluded(p):
            continue
        pq = q_point(demo, p)
        for pk in sp.split_prime(demo.field("Q8"), p):
            (pl,) = [x for x in sp.split_prime(demo.field("Qi"), p) if sp.lies_over(pk, x, ext8.emb)]
            assert sp.relative_degree(pk, pq, e_q_q8) == sp.relative_degree(
                pk, pl, ext8.emb
            ) * sp.relative_degree(pl, pq, e_q_qi)


# ---------------------------------------------------------------------------
# lies_over and relative_degree against the FqElement reference oracles
# ---------------------------------------------------------------------------


def _all_extensions(cfg):
    """Every declared embedding plus the implicit one of each field over Q."""
    declared = [cfg.extension((dst, src)) for src, dst in cfg.embeddings]
    over_q = [cfg.extension((name, "Q")) for name in cfg.fields if name != "Q"]
    return declared + over_q


def _point_pairs(cfg, bound):
    """(ext, pK, pL) for every pair of points over each p <= bound at which
    the embedding map reduces, ramified points included."""
    for ext in _all_extensions(cfg):
        skip = ext.emb.denominator_primes()
        for p in stream_primes(bound):
            if p in skip:
                continue
            below = sp.split_prime(ext.base, p)
            for pK in sp.split_prime(ext.field, p):
                for pL in below:
                    yield ext, pK, pL


def _oracle_lies_over(pK, pL, emb):
    """Horner of g_L at the FqElement name of h in the residue field at pK."""
    u = residue_name(pK, emb.h)
    acc = u.field.zero
    for c in reversed(pL.local_factor):
        acc = acc * u + u.field.element(c)
    return acc.is_zero


def test_lies_over_matches_element_oracle(demo):
    assert len(_all_extensions(demo)) == 10
    seen = {True: 0, False: 0}
    for ext, pK, pL in _point_pairs(demo, 200):
        got = sp.lies_over(pK, pL, ext.emb)
        assert got == _oracle_lies_over(pK, pL, ext.emb), (ext.name, pK, pL)
        seen[got] += 1
    assert seen == {True: 997, False: 305}


def test_relative_degree_matches_minpoly_oracle(demo):
    ratios = set()
    for ext, pK, pL in _point_pairs(demo, 200):
        if not _oracle_lies_over(pK, pL, ext.emb):
            continue
        sub = len(fq_minpoly(residue_name(pK, ext.emb.h))) - 1
        assert sp.relative_degree(pK, pL, ext.emb) == pK.residue_degree // sub, (ext.name, pK)
        ratios.add((pK.residue_degree, sub))
    # relative degrees 1, 2 and 3 all occur, over bases of degree 1 to 3
    assert ratios == {(1, 1), (2, 1), (2, 2), (3, 1), (3, 3)}


def test_pn_examples(demo):
    # the norm fibre (|pK| - 1)/(|pL| - 1) has (q^f - 1)/(q - 1) names, since
    # |pK| = |pL|^f with f the relative degree: 4 at the inert 3, 1 at the split 5
    qi = demo.field("Qi")
    e = demo.embedding("Q", "Qi")
    (p3,) = sp.split_prime(qi, 3)
    assert sp.relative_degree(p3, q_point(demo, 3), e) == 2
    assert p3.order == q_point(demo, 3).order ** 2 == 9
    p5 = sp.split_prime(qi, 5)[0]
    assert sp.relative_degree(p5, q_point(demo, 5), e) == 1
    assert p5.order == q_point(demo, 5).order == 5
    with pytest.raises(NotLyingOverError):
        sp.relative_degree(p5, q_point(demo, 3), e)
    # each point of Q8 over 5 lies over one of the two points of Qi over 5
    ext8 = demo.extension("Q8/Qi")
    pk = sp.split_prime(demo.field("Q8"), 5)[0]
    (other,) = [pl for pl in sp.split_prime(qi, 5) if not sp.lies_over(pk, pl, ext8.emb)]
    with pytest.raises(NotLyingOverError):
        sp.relative_degree(pk, other, ext8.emb)


def test_pn_boundary_is_exact(demo):
    # |pK| = |pL|^d exactly, so the fibre size (q^d - 1)/(q - 1) is attained
    pairs = [("Qi", "Q"), ("Q8", "Qi"), ("S3c", "Qc2"), ("Qc2", "Q")]
    for top, base in pairs:
        ext = demo.extension((top, base))
        for p in stream_primes(120):
            if ext.is_excluded(p):
                continue
            for pl in sp.split_prime(ext.base, p):
                for pk in sp.primes_over(ext, pl):
                    d = sp.relative_degree(pk, pl, ext.emb)
                    assert pk.order == pl.order**d


def test_pi_psi_examples(demo):
    ext_qi = demo.extension("Qi/Q")
    ext_qc2 = demo.extension("Qc2/Q")
    assert sp.in_pi(ext_qi, q_point(demo, 5))
    assert not sp.in_pi(ext_qi, q_point(demo, 3))
    assert sp.in_pi(ext_qc2, q_point(demo, 5))
    assert not sp.in_pi(ext_qc2, q_point(demo, 7))
    assert sp.in_psi(ext_qc2, q_point(demo, 31))
    assert not sp.in_psi(ext_qc2, q_point(demo, 5))
    assert sp.in_psi(ext_qi, q_point(demo, 13))


def test_pi_psi_refuse_excluded(demo):
    with pytest.raises(RamifiedPrimeError):
        sp.in_pi(demo.extension("Qi/Q"), q_point(demo, 2))
    with pytest.raises(RamifiedPrimeError):
        sp.in_psi(demo.extension("Qc2/Q"), q_point(demo, 3))
    # denominators of the embedding map matter, not just discriminants:
    # S3c/Qw excludes 2 via disc(S3c) even though disc(Qw) = -3
    ext = demo.extension("S3c/Qw")
    (p2,) = [x for x in sp.split_prime(demo.field("Qw"), 2)]
    with pytest.raises(RamifiedPrimeError):
        sp.in_pi(ext, p2)
    with pytest.raises(NotLyingOverError):
        sp.in_pi(demo.extension("Q8/Qi"), q_point(demo, 5))  # wrong base point


def test_pi_psi_match_absolute_route(demo):
    # the residue-field root count and the full-splitting comparison are
    # independent implementations; they must agree everywhere
    pairs = [("Qi", "Q", 600), ("Qc2", "Q", 400), ("Q8", "Qi", 400), ("S3c", "Qc2", 150), ("S3c", "Qw", 150)]
    for top, base, bound in pairs:
        ext = demo.extension((top, base))
        for p in stream_primes(bound):
            if ext.is_excluded(p):
                continue
            for pl in sp.split_prime(ext.base, p):
                assert sp.in_pi(ext, pl) == sp.in_pi_absolute(ext, pl), (top, base, p)
                assert sp.in_psi(ext, pl) == sp.in_psi_absolute(ext, pl), (top, base, p)


def test_psi_implies_pi(demo):
    for spec in ("Qi/Q", "Qc2/Q", "Q8/Qi", "S3c/Qc2"):
        ext = demo.extension(spec)
        for p in stream_primes(300):
            if ext.is_excluded(p):
                continue
            for pl in sp.split_prime(ext.base, p):
                if sp.in_psi(ext, pl):
                    assert sp.in_pi(ext, pl)


def test_galois_pairs_collapse_pi_to_psi(demo):
    # for declared-Galois relative pairs the two predicates agree at every
    # unramified base point
    for spec, bound in (("Qi/Q", 10_000), ("Q8/Q", 1500), ("Q8/Qi", 1000), ("S3c/Qw", 300), ("S3c/Q", 300)):
        ext = demo.extension(spec)
        assert demo.is_galois(ext.field.name)
        for p in stream_primes(bound):
            if ext.is_excluded(p):
                continue
            for pl in sp.split_prime(ext.base, p):
                assert sp.in_pi(ext, pl) == sp.in_psi(ext, pl), (spec, p)
    # and a non-Galois pair separates them
    ext = demo.extension("Qc2/Q")
    assert sp.in_pi(ext, q_point(demo, 5)) and not sp.in_psi(ext, q_point(demo, 5))


def test_fingerprint_examples(demo):
    fam = [demo.extension("Qi/Q"), demo.extension("Qs2/Q")]
    assert sp.fingerprint(q_point(demo, 7), fam) == (False, True)
    assert sp.fingerprint(q_point(demo, 17), fam) == (True, True)
    assert sp.fingerprint(q_point(demo, 3), fam) == (False, False)
    with pytest.raises(RamifiedPrimeError) as ei:
        sp.fingerprint(q_point(demo, 2), fam)
    assert "Qi/Q" in str(ei.value)


def test_fingerprint_determines_patterns_for_quadratic_family(demo):
    # two primes with the same membership bits factor every family member
    # the same way (family of Galois quadratics, exhaustive to 1000)
    fields = [demo.field("Qi"), demo.field("Qs2"), demo.field("Qw")]
    fam = [demo.extension((f.name, "Q")) for f in fields]
    excluded = set()
    for ext in fam:
        excluded |= ext.excluded_primes()
    buckets: dict[tuple, set] = {}
    for p in stream_primes(1000):
        if p in excluded:
            continue
        bits = sp.fingerprint(q_point(demo, p), fam)
        patterns = tuple(degree_pattern(reduce_mod_p(f.poly, p), p) for f in fields)
        buckets.setdefault(bits, set()).add(patterns)
    assert len(buckets) >= 4
    for bits, seen in buckets.items():
        assert len(seen) == 1, bits


def test_fast_flags_match_generic_route(demo):
    for name in ("Qi", "Qc2", "Q8"):
        ext = demo.extension((name, "Q"))
        fld = demo.field(name)
        for p in stream_primes(2000):
            if ext.is_excluded(p):
                continue
            roots = mp.root_count(reduce_mod_p(fld.poly, p), p)
            pl = q_point(demo, p)
            want = (sp.in_pi(ext, pl), sp.in_psi(ext, pl))
            assert (roots >= 1, roots == fld.degree) == want, (name, p)


def test_degree_pattern_matches_split(demo):
    for name in ("Qc2", "Q8", "S3c"):
        fld = demo.field(name)
        for p in stream_primes(500):
            if fld.disc % p == 0:
                continue
            pts = sp.split_prime(fld, p)
            expect = tuple(sorted(x.residue_degree for x in pts))
            assert degree_pattern(reduce_mod_p(fld.poly, p), p) == expect, (name, p)


# ---------------------------------------------------------------------------
# compatible_root_count against the FqElement reference oracles
# ---------------------------------------------------------------------------

DEMO_EXTENSIONS = ("Qi/Q", "Qs2/Q", "Q8/Q", "Qc2/Q", "Qw/Q", "S3c/Q",
                   "Q8/Qi", "Q8/Qs2", "S3c/Qc2", "S3c/Qw")
BRUTE_P, BRUTE_ORDER, ROOTS_P = 1200, 1200, 300


def _base_points(cfg, specs, primes):
    for spec in specs:
        ext = cfg.extension(spec)
        for p in primes:
            if not ext.is_excluded(p):
                for pl in sp.split_prime(ext.base, p):
                    yield ext, pl


def _residue_polys(ext, pl):
    fld = FqField(pl.p, pl.local_factor)
    f = poly_over(fld, reduce_mod_p(ext.field.poly, pl.p))
    h = poly_over(fld, reduce_mod_p(ext.emb.h, pl.p))
    return fld, f, h


def _brute_count(ext, pl):
    """Every element x of F_pL with f_K(x) = 0 and h(x) = t, by exhaustion.

    Evaluates on the field's raw coefficient tuples: element objects would
    double the cost of the 10^6 evaluations the exhaustion test makes.
    """
    fld, f, h = _residue_polys(ext, pl)
    zero, gen = fld.zero.rep, fld.element([0, 1]).rep
    f, h = [c.rep for c in f], [c.rep for c in h]

    def ev(poly, x):
        acc = zero
        for c in reversed(poly):
            acc = fld._add(fld._mul(acc, x), c)
        return acc

    return sum(1 for x in fld.elements() if ev(f, x.rep) == zero and ev(h, x.rep) == gen)


def _roots_count(ext, pl):
    fld, f, h = _residue_polys(ext, pl)
    count = 0
    for x in fq_roots(f):
        acc = fld.zero
        for c in reversed(h):
            acc = acc * x + c
        count += acc == fld.element([0, 1])
    return count


def _check_by_oracle(cfg, specs, bound):
    """Compare every base point with p <= bound against an oracle count.

    Residue fields of at most BRUTE_ORDER elements are scanned whole;
    larger ones (the inert points of the quadratic bases reach p^2 = 1.4e6
    elements) are counted by fq_roots below ROOTS_P instead.
    """
    counts = []
    for ext, pl in _base_points(cfg, specs, list(stream_primes(bound))):
        if pl.order <= BRUTE_ORDER:
            want = _brute_count(ext, pl)
        elif pl.p <= ROOTS_P:
            want = _roots_count(ext, pl)
        else:
            continue
        assert sp.compatible_root_count(ext, pl) == want, (ext.name, pl)
        counts.append((ext, pl, want))
    return counts


def test_compatible_root_count_by_exhaustion(demo):
    assert len(_check_by_oracle(demo, DEMO_EXTENSIONS, BRUTE_P)) > 2000


# primes above 2^32 with p = 1 mod 3 at which 2 is not a cube, so x^3 - 2 is
# irreducible and Qc2 has one point of residue degree 3 over each
CUBIC_INERT_PRIMES = (4294967311, 4294967371)


def test_compatible_root_count_mixed_degrees():
    # x^6 - 2 over Q(2^(1/3)) is not Galois: at p = 17 it factors as
    # (1, 1, 2, 2), so the degree-2 base point must ignore the linear
    # factors that lie over the degree-1 base point
    cfg = load_lattice("field Qc2\n  poly -2 0 0 1\n"
                       "field Q6\n  poly -2 0 0 0 0 0 1\n"
                       "embed Qc2 -> Q6\n  map 0 0 1\n")
    counts = _check_by_oracle(cfg, ("Q6/Qc2",), ROOTS_P)
    fbar = reduce_mod_p(cfg.field("Q6").poly, 17)
    assert degree_pattern(fbar, 17) == (1, 1, 2, 2)
    assert mp.root_count(fbar, 17) == 2
    at17 = {pl.residue_degree: n for _, pl, n in counts if pl.p == 17}
    assert at17 == {1: 2, 2: 2}
    # at the degree-3 points the count is 2 at one prime and 0 at the other
    large = [(sp.compatible_root_count(ext, pl), _roots_count(ext, pl))
             for ext, pl in _base_points(cfg, ("Q6/Qc2",), CUBIC_INERT_PRIMES)]
    assert large == [(2, 2), (0, 0)]


def test_compatible_root_count_large_primes(demo):
    seen = set()
    for ext, pl in _base_points(demo, DEMO_EXTENSIONS,
                                (998244353, 2**61 - 1, *CUBIC_INERT_PRIMES)):
        count = sp.compatible_root_count(ext, pl)
        assert count == _roots_count(ext, pl), (ext.name, pl)
        seen.add((pl.residue_degree, count))
    assert (3, 2) in seen and len(seen) >= 5  # several residue degrees and counts occur
