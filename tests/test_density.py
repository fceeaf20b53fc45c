import concurrent.futures
import pathlib
import tracemalloc
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction
from itertools import islice

import pytest

from arithplane import density as dn
from arithplane import modpoly as mp
from arithplane import plane
from arithplane import sieve
from arithplane import spectrum as sp
from arithplane.errors import ArithPlaneError, ExprSyntaxError, UnknownFieldError
from arithplane.finitefield import degree_pattern
from arithplane.intpoly import reduce_mod_p
from arithplane.lattice import ExclusionRule, load_lattice
from arithplane.sieve import stream_primes

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def demo():
    return load_lattice((CONFIG_DIR / "demo.cfg").read_text())


def expr(demo, text):
    return dn.parse_set_expr(text, demo)


# ------------------------------------------------------------------ parser


def test_parse_structure(demo):
    e = expr(demo, "Psi(Qi/Q) & !Psi(Qs2/Q)")
    assert isinstance(e.node, dn.And)
    assert isinstance(e.node.left, dn.PsiAtom)
    assert isinstance(e.node.right, dn.Not)
    assert e.base.name == "Q"
    assert len(e.atoms()) == 2


def test_parse_precedence(demo):
    # ! binds tighter than &, which binds tighter than |
    e = expr(demo, "Pi(Qi/Q) | Pi(Qs2/Q) & !Pi(Qc2/Q)")
    assert isinstance(e.node, dn.Or)
    assert isinstance(e.node.right, dn.And)
    assert isinstance(e.node.right.right, dn.Not)
    f = expr(demo, "(Pi(Qi/Q) | Pi(Qs2/Q)) & Pi(Qc2/Q)")
    assert isinstance(f.node, dn.And)
    assert isinstance(f.node.left, dn.Or)


def test_parse_relative_base(demo):
    e = expr(demo, "Pi(Q8/Qi)")
    assert e.base.name == "Qi"
    assert e.atoms()[0].ext.name == "Q8/Qi"


def test_parse_prime_set(demo):
    e = expr(demo, "{5, 3, 5}")
    assert e.node == dn.PrimeSet((3, 5))
    assert e.base.name == "Q"  # pure prime sets default to the rational base
    big = 2**61 - 1  # prime; the primality test must not be trial division
    assert expr(demo, f"{{{big}}}").node == dn.PrimeSet((big,))
    assert expr(demo, "{٣}").node == dn.PrimeSet((3,))  # decimal digits of any script


def test_parse_errors(demo):
    # no-break space and the file separator are whitespace
    assert expr(demo, "Psi(Qi/Q)\u00a0&\x1cPi(Qs2/Q)") == expr(demo, "Psi(Qi/Q) & Pi(Qs2/Q)")
    with pytest.raises(ExprSyntaxError, match="mixed base"):
        expr(demo, "Psi(Qi/Q) & Pi(Q8/Qi)")
    with pytest.raises(ExprSyntaxError, match="position 11"):
        expr(demo, "Psi(Qi/Q) &")
    with pytest.raises(ExprSyntaxError, match="not prime"):
        expr(demo, "{4}")
    with pytest.raises(ExprSyntaxError, match="not prime"):
        expr(demo, "{1}")
    with pytest.raises(ExprSyntaxError, match="not prime"):
        # a strong pseudoprime to every fixed Miller-Rabin base, above 2^64
        expr(demo, "{3317044064679887385961981}")
    with pytest.raises(ExprSyntaxError, match="unexpected character"):
        expr(demo, "Psi(Qi/Q) + Pi(Qi/Q)")
    with pytest.raises(ExprSyntaxError, match="position 2: unexpected character '²'"):
        expr(demo, "{3²}")
    # numerals that are not decimal digits start no token
    with pytest.raises(ExprSyntaxError, match="position 1: unexpected character 'Ⅻ'"):
        expr(demo, "{Ⅻ}")
    with pytest.raises(ExprSyntaxError, match="position 4: unexpected character '½'"):
        expr(demo, "{3, ½}")
    # but continue a name, as letters, digits and "_" do
    with pytest.raises(UnknownFieldError, match="'a²'"):
        expr(demo, "Psi(a²/Q)")
    with pytest.raises(UnknownFieldError, match="'_x'"):
        expr(demo, "Psi(_x/Q)")
    with pytest.raises(ExprSyntaxError):
        expr(demo, "Psi(Qi/Q) Pi(Qs2/Q)")  # trailing garbage
    with pytest.raises(ExprSyntaxError):
        expr(demo, "")
    with pytest.raises(UnknownFieldError):
        expr(demo, "Psi(Nope/Q)")


# ------------------------------------------------------- density estimates


def test_density_psi_quadratic(demo):
    est = dn.estimate_density(expr(demo, "Psi(Qi/Q)"), 10**4)
    assert abs(est.value - 0.5) < 0.02
    # the trace tightens through the checkpoints
    by_bound = {row.bound: row for row in est.trace}
    assert abs(by_bound[1000].density - 0.5) < 0.05
    assert abs(by_bound[10**4].density - 0.5) < 0.02


def test_density_trace_is_cumulative(demo):
    est = dn.estimate_density(expr(demo, "Pi(Qc2/Q)"), 5000)
    assert [r.bound for r in est.trace] == [100, 1000, 5000]
    hits = [r.hits for r in est.trace]
    totals = [r.total for r in est.trace]
    assert hits == sorted(hits) and totals == sorted(totals)
    assert est.trace[-1].hits == est.hits and est.trace[-1].total == est.total
    assert abs(est.value - 2 / 3) < 0.03


def test_density_skips_are_counted(demo):
    est = dn.estimate_density(expr(demo, "Psi(Qi/Q)"), 1000)
    assert est.skipped == (("ramified", 1),)  # just p = 2
    assert est.total == 167  # 168 odd primes minus the skip... 167 evaluable
    est2 = dn.estimate_density(expr(demo, "Psi(Qi/Q) & Psi(Qw/Q)"), 1000)
    assert est2.skipped == (("ramified", 2),)  # p = 2 and p = 3
    assert est2.total == 166


def test_density_csv_golden(demo):
    est = dn.estimate_density(expr(demo, "Psi(Qi/Q)"), 100)
    assert dn.trace_csv(est) == "N,hits,total,density\n100,11,24,0.458333\n"


def test_density_prime_set(demo):
    est = dn.estimate_density(expr(demo, "{5}"), 1000)
    assert (est.hits, est.total) == (1, 168)
    comp = dn.estimate_density(expr(demo, "!{5}"), 1000)
    assert (comp.hits, comp.total) == (167, 168)


def test_density_worker_parity(demo, monkeypatch):
    # narrow ranges so every scan below spans several, and a CPU count that
    # lets two workers run on any host
    pools = []

    class RecordingPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(sieve, "RANGE_WIDTH", 500)
    monkeypatch.setattr(dn.os, "cpu_count", lambda: 2)
    scans = [
        lambda w: dn.estimate_density(expr(demo, "Psi(Qi/Q) | Pi(Qc2/Q)"), 20000, w),
        lambda w: dn.estimate_density(expr(demo, "Pi(Q8/Qi)"), 2000, w),
        lambda w: dn.frobenius_histogram(demo.field("Qc2"), 20000, w),
        lambda w: dn.check_inclusion_exclusion(
            expr(demo, "Psi(Qi/Q)"), expr(demo, "Pi(Qc2/Q)"), 20000, w),
    ]
    results = [(run(1), run(2)) for run in scans]
    assert all(one == two for one, two in results)
    assert dn.trace_csv(results[0][0]) == dn.trace_csv(results[0][1])
    assert pools == [2, 2, 2, 2]


def test_scan_memory_does_not_grow_with_n():
    # the ranges of [2, 10^11] are drawn as the kernel asks for them, so a
    # scan that stops at its third range has built almost nothing
    calls = []

    def kernel(payload, lo, hi):
        calls.append((lo, hi))
        if len(calls) == 3:
            raise RuntimeError("third range")
        return Counter()

    tracemalloc.start()
    try:
        with pytest.raises(RuntimeError, match="third range"):
            dn.scan(kernel, None, 10**11, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert calls == list(islice(sieve.ranges(10**11), 3))
    assert peak < 1 << 20


def test_scan_queues_fixed_batches_in_range_order(demo, monkeypatch):
    fld = demo.field("Qc2")
    batches = []

    class InlinePool:  # records each batch of ranges and starts no process
        def __init__(self, max_workers):
            self.workers = max_workers

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads, lows, highs):
            batches.append((self.workers, list(zip(lows, highs))))
            return map(fn, payloads, lows, highs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(sieve, "RANGE_WIDTH", 100)
    monkeypatch.setattr(dn.os, "cpu_count", lambda: 3)
    want = dn.frobenius_histogram(fld, 3001, workers=1)
    assert dn.frobenius_histogram(fld, 3001, workers=3) == want
    assert [(w, len(b)) for w, b in batches] == [(3, 12), (3, 12), (3, 6)]
    assert [r for _, b in batches for r in b] == list(sieve.ranges(3001))


def test_scan_checks_workers(demo, monkeypatch):
    fld = demo.field("Qi")
    sizes = []

    class InlinePool:  # records the pool size and starts no process
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    monkeypatch.setattr(sieve, "RANGE_WIDTH", 100)
    with pytest.raises(ValueError, match="workers must be at least 1"):
        dn.frobenius_histogram(fld, 1000, workers=0)
    want = dn.frobenius_histogram(fld, 1000, workers=1)
    monkeypatch.setattr(dn.os, "cpu_count", lambda: 3)
    assert dn.frobenius_histogram(fld, 1000, workers=10**6) == want
    monkeypatch.setattr(dn.os, "cpu_count", lambda: None)
    assert dn.frobenius_histogram(fld, 1000, workers=8) == want
    assert sizes == [3]


def test_density_relative_base(demo):
    # points of Sp_Qi counted by norm: split primes give two degree-1 points,
    # inert primes one norm-p^2 point
    est = dn.estimate_density(expr(demo, "Pi(Q8/Qi)"), 2000)
    split = sum(1 for p in stream_primes(2000) if p % 4 == 1)
    inert = sum(1 for p in stream_primes(44) if p % 4 == 3)
    assert est.total == 2 * split + inert
    assert est.skipped == (("ramified", 1),)
    assert abs(est.value - 0.5) < 0.05


def test_density_bound_validation(demo):
    with pytest.raises(ValueError):
        dn.estimate_density(expr(demo, "Psi(Qi/Q)"), 50)


# ------------------------------------------------------------- chebotarev


@pytest.mark.parametrize(
    "text,want",
    [
        ("Psi(Qi/Q)", Fraction(1, 2)),
        ("Psi(Qc2/Q)", Fraction(1, 6)),
        ("Pi(Qc2/Q)", Fraction(2, 3)),
        ("Pi(Qc2/Q) & !Psi(Qc2/Q)", Fraction(1, 2)),
        ("Psi(Qi/Q) & Psi(Qs2/Q)", Fraction(1, 4)),
        ("Psi(Qi/Q) | Psi(Qs2/Q)", Fraction(3, 4)),
        ("Psi(Q8/Q)", Fraction(1, 4)),
        ("Pi(Q8/Qi)", Fraction(1, 2)),
        ("Pi(S3c/Qc2)", Fraction(1, 2)),
        ("!Pi(Qc2/Q)", Fraction(1, 3)),
        ("Psi(Qi/Q) | {5}", Fraction(1, 2)),
        ("{3, 7}", Fraction(0)),
        ("!{3, 7}", Fraction(1)),
    ],
)
def test_chebotarev_predictions(demo, text, want):
    assert dn.chebotarev_predict(expr(demo, text), demo) == want


def test_chebotarev_psi_is_reciprocal_closure_degree(demo):
    for name in ("Qi", "Qs2", "Qw", "Q8", "Qc2", "S3c"):
        closure = demo.field(demo.closure_of(name))
        got = dn.chebotarev_predict(expr(demo, f"Psi({name}/Q)"), demo)
        assert got == Fraction(1, closure.degree)


def test_chebotarev_unavailable():
    bare = load_lattice("field K\n  poly -2 0 1\n")
    e = dn.parse_set_expr("Pi(K/Q)", bare)
    assert dn.chebotarev_predict(e, bare) is None


def test_chebotarev_unavailable_mixed_closures(demo):
    # Qi and Qc2 have closures, but no declared field contains both
    e = expr(demo, "Psi(Qi/Q) & Psi(Qc2/Q)")
    assert dn.chebotarev_predict(e, demo) is None


def test_chebotarev_matches_estimates(demo):
    for text in ("Psi(Qc2/Q)", "Pi(Qc2/Q)", "Psi(Qi/Q) & Psi(Qs2/Q)"):
        e = expr(demo, text)
        predicted = dn.chebotarev_predict(e, demo)
        measured = dn.estimate_density(e, 10**4).value
        assert abs(measured - float(predicted)) < 0.03, text


# -------------------------------------------------------------- frobenius


def test_frobenius_cubic(demo):
    stats = dn.frobenius_histogram(demo.field("Qc2"), 10**4)
    freqs = {pat: c / stats.total for pat, c in stats.counts}
    assert set(freqs) == {(1, 1, 1), (1, 2), (3,)}
    assert abs(freqs[(1, 1, 1)] - 1 / 6) < 0.03
    assert abs(freqs[(1, 2)] - 1 / 2) < 0.03
    assert abs(freqs[(3,)] - 1 / 3) < 0.03
    assert sum(c for _, c in stats.counts) == stats.total


def test_frobenius_quadratic_and_trivial(demo):
    stats = dn.frobenius_histogram(demo.field("Qi"), 10**4)
    freqs = {pat: c / stats.total for pat, c in stats.counts}
    assert abs(freqs[(1, 1)] - 0.5) < 0.03 and abs(freqs[(2,)] - 0.5) < 0.03
    only = dn.frobenius_histogram(demo.field("Q"), 1000)
    assert {pat: c / only.total for pat, c in only.counts} == {(1,): 1.0}


def test_frobenius_full_split_matches_psi_exactly(demo):
    # same primes, same counts: (1,...,1) patterns are precisely Psi hits
    for name, n in (("Qc2", 3000), ("Qi", 3000)):
        stats = dn.frobenius_histogram(demo.field(name), n)
        est = dn.estimate_density(dn.parse_set_expr(f"Psi({name}/Q)", demo), n)
        pattern = tuple([1] * demo.field(name).degree)
        assert dict(stats.counts)[pattern] == est.hits
        assert stats.total == est.total


def test_frobenius_worker_parity(demo):
    one = dn.frobenius_histogram(demo.field("Qc2"), 20000, workers=1)
    three = dn.frobenius_histogram(demo.field("Qc2"), 20000, workers=3)
    assert one == three


# ---------------------------------------------------------------- checkers


def test_psi_product(demo):
    report = dn.check_psi_product(demo, "Qi", "Qs2", "Q8", "Q", 10**4)
    assert report.ok and report.violations == ()
    assert report.total == 1228  # odd primes up to 10^4
    assert abs(report.density - 0.25) < 0.02
    trivial = dn.check_psi_product(demo, "Qi", "Qi", "Qi", "Q", 2000)
    assert trivial.ok


def test_psi_product_membership_witness(demo):
    # 17 = 1 mod 8 lies in all three Psi sets
    (p17,) = sp.split_prime(demo.field("Q"), 17)
    for top in ("Qi", "Qs2", "Q8"):
        assert sp.in_psi(demo.extension((top, "Q")), p17)


def test_pi_eq_psi(demo):
    galois = dn.check_pi_eq_psi(demo, "Qi/Q", 10**4)
    assert galois.galois and galois.mismatches == 0
    cubic = dn.check_pi_eq_psi(demo, "Qc2/Q", 10**4)
    assert not cubic.galois
    assert abs(cubic.density - 0.5) < 0.03
    trivial = dn.check_pi_eq_psi(demo, "Q/Q", 1000)
    assert trivial.mismatches == 0


def test_pi_eq_psi_all_declared_galois(demo):
    for spec in ("Qi/Q", "Qs2/Q", "Qw/Q", "Q8/Q", "Q8/Qi", "S3c/Qw"):
        report = dn.check_pi_eq_psi(demo, spec, 1500)
        assert report.galois and report.mismatches == 0, spec


def test_pullback_square(demo):
    report = dn.check_pullback(demo, "Q", "Qi", "Qs2", "Q8", 1000)
    want = {p for p in stream_primes(1000) if p % 8 == 3}
    assert sorted(report.pi_discrepancies) == sorted(report.psi_discrepancies) == sorted(want)
    # each discrepancy is Pi upstairs without Pi below, recounted point by point
    qi, up, down = demo.extension("Qi/Q"), demo.extension("Q8/Qi"), demo.extension("Qs2/Q")
    for p in report.pi_discrepancies:
        (pK,) = sp.split_prime(qi.field, p)
        assert sp.in_pi(up, pK) and not sp.in_pi(down, plane.project_point(qi, pK))
    agree = {p for p in stream_primes(1000)} - want - {2}
    assert {5, 7, 17} <= agree
    assert report.points > 200


@pytest.mark.parametrize("tower, n", [(("Q", "Qi", "Qs2", "Q8"), 1000),
                                      (("Q", "Qc2", "Qw", "S3c"), 1000),
                                      (("Qw", "S3c", "S3c", "S3c"), 300)])
def test_pullback_counts_each_side_once(demo, monkeypatch, tower, n):
    # one count upstairs per point of K, one below per distinct base point
    l, k, m, km = tower
    kl = demo.extension((k, l))
    exts = (kl, demo.extension((m, l)), demo.extension((km, k)), demo.extension((km, m)))
    points = list(sp.points_over(kl.field, n, exts))
    below = {(pK.p, plane.project_point(kl, pK).local_factor) for pK in points}
    assert len(below) < len(points)
    calls = []
    count = sp.compatible_root_count

    def record(ext, pL):
        calls.append((ext.name, pL))
        return count(ext, pL)

    monkeypatch.setattr(sp, "compatible_root_count", record)
    report = dn.check_pullback(demo, l, k, m, km, n)
    assert report.points == len(points)
    assert len(calls) <= len(points) + len(below)


def test_inclusion_exclusion(demo):
    report = dn.check_inclusion_exclusion(
        expr(demo, "Psi(Qi/Q)"), expr(demo, "Psi(Qs2/Q)"), 10**4
    )
    assert report.exact
    assert report.a.total == report.b.total == report.union.total
    assert abs(report.intersection.value - 0.25) < 0.02
    assert abs(report.union.value - 0.75) < 0.02


def test_inclusion_exclusion_shared_universe(demo):
    # the scan skips the union of both expressions' bad primes, so all four
    # estimates share one denominator even when only one side ramifies at 3
    report = dn.check_inclusion_exclusion(
        expr(demo, "Psi(Qi/Q)"), expr(demo, "Psi(Qw/Q)"), 1000
    )
    assert report.exact
    assert report.a.skipped == (("ramified", 2),)
    assert report.a.total == report.b.total == 166


def test_inclusion_exclusion_degenerate_and_disjoint(demo):
    same = dn.check_inclusion_exclusion(
        expr(demo, "Pi(Qc2/Q)"), expr(demo, "Pi(Qc2/Q)"), 1000
    )
    assert same.exact and same.a == same.b == same.union == same.intersection
    disjoint = dn.check_inclusion_exclusion(
        expr(demo, "{3, 5}"), expr(demo, "{7, 11}"), 1000
    )
    assert disjoint.exact
    assert disjoint.union.hits == 4 and disjoint.intersection.hits == 0


def test_inclusion_exclusion_mixed_bases_rejected(demo):
    with pytest.raises(ExprSyntaxError, match="mixed base"):
        dn.check_inclusion_exclusion(
            expr(demo, "Psi(Qi/Q)"), expr(demo, "Pi(Q8/Qi)"), 1000
        )


def test_pi_intersection_witnesses(demo):
    two = dn.check_pi_intersection(demo, ["Qi", "Qs2"], "Q", 1000)
    assert two.witness == 17
    alone = dn.check_pi_intersection(demo, ["Qi"], "Q", 1000)
    assert alone.witness == 5
    # 17 = 1 mod 8 and 2 = 8^3 mod 17, so 17 already meets the cubic too
    three = dn.check_pi_intersection(demo, ["Qi", "Qs2", "Qc2"], "Q", 1000)
    assert three.witness == 17
    assert pow(8, 3, 17) == 2
    with pytest.raises(ValueError):
        dn.check_pi_intersection(demo, [], "Q", 1000)


def test_pi_intersection_no_witness(demo):
    report = dn.check_pi_intersection(demo, ["Qi", "Qw"], "Q", 100)
    # p = 1 mod 12 first occurs at 13; a tighter bound misses it
    assert report.witness == 13
    tight = dn.check_pi_intersection(demo, ["Qi", "Qw"], "Q", 12)
    assert tight.witness is None
    assert "no witness" in str(tight)


# ------------------------------------- Q-base scans against a per-prime recount

RECOUNT_N = 19997  # prime: the last range ends on a prime of a prime set
RECOUNT_EXPRS = [
    "Pi(Qc2/Q) & !Psi(Qi/Q)",
    "Psi(Q8/Q) | {3, 7, 19997} & !Pi(Qw/Q)",
    "!(Pi(S3c/Q) | Psi(Qc2/Q)) & (Pi(Qi/Q) | {2})",
    "Psi(S3c/Q) | !Pi(Q8/Q) & Psi(Qw/Q) | !{5, 13}",
]


def _truth(node, p, atom):
    """The expression at a point over p; atom(node) decides each Pi/Psi."""
    if isinstance(node, dn.Not):
        return not _truth(node.inner, p, atom)
    if isinstance(node, dn.And):
        return _truth(node.left, p, atom) and _truth(node.right, p, atom)
    if isinstance(node, dn.Or):
        return _truth(node.left, p, atom) or _truth(node.right, p, atom)
    if isinstance(node, dn.PrimeSet):
        return p in node.primes
    return atom(node)


def _scalar_atom(p):
    """Pi/Psi of K/Q at p, asked prime by prime of the scalar oracles."""
    def atom(node):
        fbar = reduce_mod_p(node.ext.field.poly, p)
        roots = mp.root_count(fbar, p)
        return roots >= 1 if isinstance(node, dn.PiAtom) else roots == mp.deg(fbar)
    return atom


def _recount(exprs, n, atom_at=_scalar_atom):
    """(per-checkpoint [total, hits of each expression], primes skipped)."""
    rule = ExclusionRule.of(a.ext for e in exprs for a in e.atoms())
    checkpoints = dn._checkpoints(n)
    rows = {ck: [0] * (1 + (1 << len(exprs))) for ck in checkpoints}
    skipped = 0
    for p in stream_primes(n):
        if rule.excludes(p):
            skipped += 1
            continue
        row = rows[next(ck for ck in checkpoints if p <= ck)]
        row[0] += 1
        row[1 + sum(_truth(e.node, p, atom_at(p)) << j for j, e in enumerate(exprs))] += 1
    return rows, skipped


def _recounted_estimate(rows, skipped, n, holds):
    trace, hits, total = [], 0, 0
    for ck, row in rows.items():
        total += row[0]
        hits += sum(v for mask, v in enumerate(row[1:]) if holds(mask))
        trace.append(dn.TraceRow(ck, hits, total))
    skips = (("ramified", skipped),) if skipped else ()
    return dn.DensityEstimate(n, hits, total, skips, tuple(trace))


@pytest.fixture
def narrow_ranges(monkeypatch):
    # seven ranges, so ranges and checkpoints 100, 1000, 10^4 are crossed
    monkeypatch.setattr(sieve, "RANGE_WIDTH", 3000)


@pytest.mark.parametrize("text", RECOUNT_EXPRS)
def test_qbase_density_matches_recount(demo, narrow_ranges, text):
    e = expr(demo, text)
    rows, skipped = _recount([e], RECOUNT_N)
    want = _recounted_estimate(rows, skipped, RECOUNT_N, bool)
    assert dn.estimate_density(e, RECOUNT_N) == want


QUADRATIC_N = 199999  # prime
B_LATTICE = "field B\n  poly -216444818 0 1\n"  # 4|D| = 3462317088 passes every prime


@pytest.mark.parametrize("lattice, text", [
    ("demo", "Psi(Qi/Q) | Psi(Qw/Q)"),
    ("demo", "Psi(Qs2/Q) & !Pi(Qi/Q)"),
    ("B", "Psi(B/Q)"),
])
def test_quadratic_density_matches_recount(demo, monkeypatch, lattice, text):
    # quadratic root counts come by residue class of p mod 4|D|, one Euler
    # test per class in each range; ranges of 20000 split every class
    monkeypatch.setattr(sieve, "RANGE_WIDTH", 20000)
    e = expr(demo if lattice == "demo" else load_lattice(B_LATTICE), text)
    rows, skipped = _recount([e], QUADRATIC_N)
    want = _recounted_estimate(rows, skipped, QUADRATIC_N, bool)
    assert want.skipped and want.hits
    assert dn.estimate_density(e, QUADRATIC_N) == want


@pytest.mark.parametrize("name, line", [
    ("Qi", "Qi, primes <= 100000: 1+1: 4783/9591 = 0.4987; 2: 4808/9591 = 0.5013"),
    ("Qs2", "Qs2, primes <= 100000: 1+1: 4783/9591 = 0.4987; 2: 4808/9591 = 0.5013"),
    ("Qw", "Qw, primes <= 100000: 1+1: 4784/9591 = 0.4988; 2: 4807/9591 = 0.5012"),
], ids=["Qi", "Qs2", "Qw"])
def test_quadratic_frobenius_lines_keep_their_bytes(demo, name, line):
    # the lines that Euler's criterion at every prime printed
    assert str(dn.frobenius_histogram(demo.field(name), 10**5)) == line


@pytest.mark.parametrize("lattice, text", [
    *(pytest.param("demo.cfg", text, id=text)
      for text in ["Pi(Q8/Qi) & !Psi(Q8/Qi) | {5}", "Psi(S3c/Qw) | Pi(S3c/Qw) & !{7}"]),
    # the degree-8 lanes of D4c over the points of Qi
    pytest.param("dihedral.cfg", "Psi(D4c/Qi) | Pi(D4c/Qi) & !{5}",
                 id="dihedral-Psi(D4c/Qi) | Pi(D4c/Qi) & !{5}"),
])
def test_relative_density_matches_recount(demo, narrow_ranges, lattice, text):
    # every base point asks the full-splitting route of spectrum
    cfg = demo if lattice == "demo.cfg" else load_lattice((CONFIG_DIR / lattice).read_text())
    e = expr(cfg, text)
    exts = [a.ext for a in e.atoms()]
    rows = {ck: [0, 0, 0] for ck in dn._checkpoints(RECOUNT_N)}

    def absolute(pL):
        return lambda a: (sp.in_pi_absolute if isinstance(a, dn.PiAtom)
                          else sp.in_psi_absolute)(a.ext, pL)

    for pL in sp.points_over(e.base, RECOUNT_N, exts):
        if pL.order <= RECOUNT_N:
            row = rows[next(ck for ck in rows if pL.order <= ck)]
            row[0] += 1
            row[1 + _truth(e.node, pL.p, absolute(pL))] += 1
    rule = ExclusionRule.of(exts)
    skipped = sum(1 for p in stream_primes(RECOUNT_N) if rule.excludes(p)
                  for pL in sp.split_prime(e.base, p) if pL.order <= RECOUNT_N)
    want = _recounted_estimate(rows, skipped, RECOUNT_N, bool)
    assert want.skipped and want.hits
    assert dn.estimate_density(e, RECOUNT_N) == want


@pytest.mark.parametrize("with_table", [True, False])
def test_relative_points_take_a_bound_of_any_size(demo, with_table):
    # every point over p <= 1000 has norm <= 1000^2, so bounds of 10^6 and
    # 10^400 keep the same points and counts, through the class table and
    # point by point
    ext = demo.extension("Q8/Qi")
    table = dn.class_table(demo, ext.base, (ext,)) if with_table else None
    primes = sieve.prime_range(2, 1000)
    got = [dn._relative_points(ext.base, (ext,), primes, n, ExclusionRule.of((ext,)), table)
           for n in (10**6, 10**400)]
    (ps, orders, skip, counts), (ps2, orders2, skip2, counts2) = got
    assert len(ps) > len(primes)
    assert (ps == ps2).all() and (orders == orders2).all() and (skip == skip2).all()
    assert counts.keys() == counts2.keys() == {ext.name}
    assert (counts[ext.name] == counts2[ext.name]).all()


def test_qbase_inclusion_exclusion_matches_recount(demo, narrow_ranges):
    a, b = expr(demo, RECOUNT_EXPRS[0]), expr(demo, RECOUNT_EXPRS[1])
    rows, skipped = _recount([a, b], RECOUNT_N)
    report = dn.check_inclusion_exclusion(a, b, RECOUNT_N)
    for got, holds in ((report.a, lambda m: m & 1), (report.b, lambda m: m & 2),
                       (report.union, lambda m: m != 0),
                       (report.intersection, lambda m: m == 3)):
        assert got == _recounted_estimate(rows, skipped, RECOUNT_N, holds)
    assert report.exact


def _walk(a, b, exts, n):
    """(points, points in b, primes of the points where a and b differ), asking
    a and b point by point over the base points of norm <= n evaluable for
    every extension: the oracle of the checkers' two-expression scans."""
    total = hits = 0
    differ = []
    for pL in sp.points_over(exts[0].base, n, exts):
        if pL.order <= n:
            total += 1
            hits += b(pL)
            if a(pL) != b(pL):
                differ.append(pL.p)
    return total, hits, differ


@pytest.mark.parametrize("n", [2, 12, 97, RECOUNT_N])
@pytest.mark.parametrize("square", [("Qi", "Qs2", "Q8", "Q"), ("Qi", "Qi", "Q8", "Q"),
                                    ("Q8", "Q8", "Q8", "Qi"), ("Qi", "Qi", "Q8", "Qi")])
def test_psi_product_matches_walk(demo, narrow_ranges, square, n):
    # over Qi a prime = 1 mod 4 has two points, so it is listed twice
    e1, e2, ec = (demo.extension((k, square[3])) for k in square[:3])
    total, hits, violations = _walk(lambda pL: sp.in_psi(e1, pL) and sp.in_psi(e2, pL),
                                    lambda pL: sp.in_psi(ec, pL), (e1, e2, ec), n)
    want = dn.PsiProductReport(*square, n, total, hits, tuple(violations))
    assert dn.check_psi_product(demo, *square, n) == want


@pytest.mark.parametrize("n", [2, 12, 97, RECOUNT_N])
@pytest.mark.parametrize("spec", ["Qc2/Q", "Q8/Qi"])
def test_pi_eq_psi_matches_walk(demo, narrow_ranges, spec, n):
    e = demo.extension(spec)
    total, _, differ = _walk(lambda pL: sp.in_pi(e, pL), lambda pL: sp.in_psi(e, pL), (e,), n)
    report = dn.check_pi_eq_psi(demo, spec, n)
    assert (report.total, report.mismatches) == (total, len(differ))


def test_pi_intersection_stops_at_first_witness(demo, monkeypatch):
    calls = []
    split = sp.split_prime

    def counting_split(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(sp, "split_prime", counting_split)
    assert dn.check_pi_intersection(demo, ["Q8"], "Qi", 10**6).witness == 3
    assert len(calls) < 10


TOWER_N = 4999  # prime, and in the prime set of TOWER_EXPR
TOWER_EXPR = "Pi(K/Q) & !Psi(L/Q) | Psi(K/Q) | {97, 101, 4999} & !Pi(L/Q)"


def test_random_tower_scans_ignore_range_boundaries(monkeypatch):
    # towers L inside K = Q[x]/(f_L(g(x))) drawn as in the plane tests; the
    # density CSV and the Frobenius histogram of K come out the same bytes at
    # every range width (99 puts a boundary on checkpoint 100) and worker
    # count, and equal a prime-by-prime recount that uses no prime lanes
    hyp = pytest.importorskip("hypothesis")
    from test_plane import _tower_document

    st = hyp.strategies
    small = st.integers(-5, 5)
    towers = []

    @hyp.settings(max_examples=15, derandomize=True, deadline=None, database=None,
                  suppress_health_check=[hyp.HealthCheck.filter_too_much])
    @hyp.given(f_low=st.lists(small, min_size=2, max_size=3),
               g_low=st.lists(small, min_size=2, max_size=2))
    def random_tower(f_low, g_low):
        try:
            cfg = load_lattice(_tower_document(f_low + [1], g_low + [1]))
        except ArithPlaneError:
            hyp.assume(False)
        towers.append(cfg)
        e, fld = dn.parse_set_expr(TOWER_EXPR, cfg), cfg.field("K")

        def outputs(workers=1):
            est = dn.estimate_density(e, TOWER_N, workers)
            return str(est), dn.trace_csv(est), str(dn.frobenius_histogram(fld, TOWER_N, workers))

        got = outputs()
        for width in (97, 99, 3000):
            with monkeypatch.context() as m:
                m.setattr(sieve, "RANGE_WIDTH", width)
                assert outputs() == got, (cfg, width)
                if width == 97 and len(towers) <= 3:  # 52 ranges in 7 batches
                    m.setattr(dn.os, "cpu_count", lambda: 2)
                    assert outputs(workers=2) == got, cfg
        # one-prime recount: K's root count is the number of its degree-1
        # factors, L's comes from the one-prime root count
        patterns = {p: degree_pattern(reduce_mod_p(fld.poly, p), p)
                    for p in stream_primes(TOWER_N) if fld.disc % p}

        def roots(f, p):
            if f.name == "K":
                return patterns[p].count(1)
            return mp.root_count(reduce_mod_p(f.poly, p), p)

        def atom_at(p):
            def atom(node):
                f = node.ext.field
                return roots(f, p) >= 1 if isinstance(node, dn.PiAtom) else roots(f, p) == f.degree
            return atom

        rows, skipped = _recount([e], TOWER_N, atom_at)
        want = _recounted_estimate(rows, skipped, TOWER_N, bool)
        hist = Counter(patterns.values())
        frob = dn.FrobeniusStats("K", TOWER_N, len(patterns), tuple(sorted(hist.items())))
        assert got == (str(want), dn.trace_csv(want), str(frob)), cfg

    random_tower()
    assert len(towers) >= 10


@pytest.mark.parametrize("name", ["Qi", "Qw", "Qc2", "Q8", "S3c"])
def test_frobenius_matches_recount(demo, narrow_ranges, name):
    fld = demo.field(name)
    want = Counter(degree_pattern(reduce_mod_p(fld.poly, p), p)
                   for p in stream_primes(RECOUNT_N) if fld.disc % p)
    got = dn.frobenius_histogram(fld, RECOUNT_N)
    assert dict(got.counts) == want and got.total == sum(want.values())


@pytest.mark.parametrize("poly", ["-3" + " 0" * 16 + " 1", "5 -3" + " 0" * 15 + " 1"],
                         ids=["x17-3", "x17-3x+5"])
def test_frobenius_tally_past_int64_keys(poly):
    # at degree 17 a lane's pattern, its N_d as digits in radix 18, passes
    # 2^63 where f is irreducible, so the keys are Python integers; at
    # degree 16 the largest, 17^15, still fits
    assert 17**15 < 2**63 < 18**16
    fld = load_lattice(f"field K\n  poly {poly}\ntrusted K\n").field("K")
    want = Counter(degree_pattern(reduce_mod_p(fld.poly, p), p)
                   for p in stream_primes(3000) if fld.disc % p)
    got = dn.frobenius_histogram(fld, 3000)
    assert dict(got.counts) == want and len(want) > 5
