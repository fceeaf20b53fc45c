"""Frobenius-class tables against the per-point path they replace.

Over a base other than Q, a density scan reads the points and counts of a
prime from the row of its Frobenius class in a declared Galois field
(``density.ClassTable``).  These tests pin the bytes the scan printed
before it did, compare the table route with the forced per-point route on
random cyclotomic lattices and on lanes that fail to classify, check every
class found on lanes against the Frobenius element x^p = h_σ mod g_q at each
point q, and pin ``chebotarev_predict``, which reads the same table.
"""

import contextlib
import io
import math
import pathlib
from fractions import Fraction

import numpy as np
import pytest

from arithplane import density as dn
from arithplane import modpoly as mp
from arithplane import sieve
from arithplane import spectrum as sp
from arithplane.cli import main
from arithplane.intpoly import reduce_mod_p
from arithplane.lattice import load_lattice
from arithplane.sieve import is_prime, stream_primes

ROOT = pathlib.Path(__file__).resolve().parent.parent
LATTICE = str(ROOT / "configs" / "demo.cfg")
GOLDEN_RELATIVE = pathlib.Path(__file__).parent / "data" / "relative_density.txt"
RELATIVE_EXPRS = ["Psi(Q8/Qi)", "Psi(S3c/Qw)", "Psi(S3c/Qc2)", "Pi(S3c/Qc2) & !Psi(S3c/Qc2)"]


@pytest.fixture(scope="module")
def demo():
    return load_lattice(pathlib.Path(LATTICE).read_text())


# ------------------------------------------------------------------ pins


def relative_transcript(tmp_path, workers):
    """stdout, exit code and CSV of ``density`` for each RELATIVE_EXPRS at 10^5."""
    csv = tmp_path / "trace.csv"
    blocks = []
    for text in RELATIVE_EXPRS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["density", "--lattice", LATTICE, "--expr", text, "--max", "100000",
                         "--workers", str(workers), "--csv", str(csv)])
        blocks.append(f"$ arithplane density --expr '{text}' --max 100000 --csv trace.csv\n"
                      f"{out.getvalue()}[exit {code}]\n--- trace.csv\n{csv.read_text()}")
    return "".join(blocks)


def test_relative_density_pins(tmp_path, monkeypatch):
    # the bytes of the per-point scan, before the class table; at 2 workers
    # the ranges are narrowed, so that several go to each process
    golden = GOLDEN_RELATIVE.read_text()
    assert relative_transcript(tmp_path, 1) == golden
    monkeypatch.setattr(sieve, "RANGE_WIDTH", 1 << 14)
    assert relative_transcript(tmp_path, 2) == golden


NO_CLOSURE = "field K\n  poly 1 0 1\nauto K\n  map 0 1\nauto K\n  map 0 -1\ngalois K\n"
NO_GALOIS = "field K\n  poly -2 0 1\nfield M\n  poly -3 0 0 1\n"


@pytest.mark.parametrize("doc,text,want", [
    (None, "Psi(Q8/Qi)", Fraction(1, 2)),
    (None, "Pi(Q8/Qi) & !Psi(Q8/Qi)", Fraction(0)),
    (None, "Psi(S3c/Qw)", Fraction(1, 3)),
    (None, "Psi(S3c/Qc2)", Fraction(1, 2)),
    (None, "Pi(S3c/Qc2) & !Psi(S3c/Qc2)", Fraction(0)),
    (None, "Psi(Qc2/Q)", Fraction(1, 6)),
    (None, "Pi(Qc2/Q)", Fraction(2, 3)),
    (None, "Pi(Qc2/Q) & !Psi(Qw/Q)", Fraction(1, 2)),
    (None, "Psi(Qi/Q) & !Psi(Qs2/Q)", Fraction(1, 4)),
    (None, "Pi(S3c/Qw) | {7}", Fraction(1, 3)),
    (None, "Psi(Qc2/Qc2)", Fraction(1)),
    (None, "Psi(Q8/Qs2) & !Pi(Q8/Qs2)", Fraction(0)),
    (None, "Psi(Qi/Q) & Psi(Qc2/Q)", None),  # no declared field holds both
    (NO_GALOIS, "Psi(M/Q) | Pi(K/Q)", None),
    (NO_CLOSURE, "Pi(K/Q)", None),  # a table, but no declared closure
    (NO_CLOSURE, "Psi(K/K)", None),
])
def test_chebotarev_pins(demo, doc, text, want):
    cfg = demo if doc is None else load_lattice(doc)
    assert dn.chebotarev_predict(dn.parse_set_expr(text, cfg), cfg) == want


# ------------------------------------------- table route against per-point


def counts(expr, n, workers=1):
    checkpoints, tally = dn._density_counts((expr,), n, workers)
    return checkpoints, tally


def per_point(expr, n, monkeypatch, workers=1):
    with monkeypatch.context() as m:
        m.setattr(dn, "class_table", lambda *args: None)
        return counts(expr, n, workers)


def cyclotomic(n):
    """The coefficients of the n-th cyclotomic polynomial, constant first."""
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            den = cyclotomic(d)
            quo = [0] * (len(num) - len(den) + 1)
            for k in range(len(quo) - 1, -1, -1):
                quo[k] = num[k + len(den) - 1]
                for i, c in enumerate(den):
                    num[k + i] -= quo[k] * c
            num = quo
    return num


def power_mod(k, f):
    """x^k mod the monic integer polynomial f, as len(f) - 1 coefficients."""
    out = [0] * max(k + 1, len(f))
    out[k] = 1
    for top in range(len(out) - 1, len(f) - 2, -1):
        c = out[top]
        if c:
            for i, fc in enumerate(f):
                out[top - len(f) + 1 + i] -= c * fc
    return out[:len(f) - 1]


def cyclic_units(n):
    return n in (2, 4) or any(n in (q**e, 2 * q**e) for q in range(3, n + 1, 2)
                              if is_prime(q) for e in range(1, 8))


def cyclotomic_lattice(levels, galois_levels):
    """Q(ζ_m) for every m of levels as the field Cm; the last level is the
    Galois field of all.  Embeddings Cm -> Cm' are x -> x^(m'/m) wherever m
    divides m'; the fields of galois_levels declare their automorphisms
    x -> x^k, k prime to m, and a polynomial is trusted where (Z/m)^x is not
    cyclic, as it is then reducible mod every prime."""
    top = levels[-1]
    lines = []
    for m in levels:
        f = cyclotomic(m)
        lines += [f"field C{m}", "  poly " + " ".join(map(str, f))]
        if not cyclic_units(m):
            lines.append(f"trusted C{m}")
        if m in galois_levels or m == top:
            for k in range(1, m):
                if math.gcd(k, m) == 1:
                    lines += [f"auto C{m}", "  map " + " ".join(map(str, power_mod(k, f)))]
            lines.append(f"galois C{m}")
        lines.append(f"closure C{m} -> C{top}")
        for m2 in levels:
            if m2 > m and m2 % m == 0:
                lines += [f"embed C{m} -> C{m2}",
                          "  map " + " ".join(map(str, power_mod(m2 // m, cyclotomic(m2))))]
    return "\n".join(lines) + "\n"


# n with φ(n) <= 8 and a proper divisor m >= 3 to serve as the base
TOPS = (8, 9, 12, 15, 16, 20, 24)
CYCLO_N = 997  # prime; points of degree 2 up to 31^2


def _cases():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    @st.composite
    def case(draw):
        top = draw(st.sampled_from(TOPS))
        divisors = [m for m in range(3, top) if top % m == 0]
        base = draw(st.sampled_from(divisors))
        over = [m for m in divisors if m > base and m % base == 0] + [top]
        tops = draw(st.lists(st.sampled_from(over), min_size=1, max_size=2, unique=True))
        galois = draw(st.lists(st.sampled_from(divisors), unique=True))
        levels = sorted({base, *tops, top})
        atoms = [f"{draw(st.sampled_from(['Pi', 'Psi']))}(C{m}/C{base})" for m in tops]
        joins = [draw(st.sampled_from([" & ", " | ", " & !"])) for _ in atoms[1:]]
        text = atoms[0] + "".join(j + a for j, a in zip(joins, atoms[1:]))
        if draw(st.booleans()):
            text = f"!({text}) | {{5, 7}}"
        return cyclotomic_lattice(levels, set(galois) & set(levels)), text
    return hyp, case()


def test_cyclotomic_tables_match_per_point(monkeypatch):
    # Q(ζ_m) over Q(ζ_m'), with the Galois field chosen among the declared
    # ones: the scan on the class table equals the forced per-point scan at
    # 1 and 2 workers and on narrow ranges
    hyp, cases = _cases()
    seen = []

    @hyp.settings(max_examples=12, derandomize=True, deadline=None, database=None)
    @hyp.given(cases)
    def check(case):
        doc, text = case
        cfg = load_lattice(doc)
        e = dn.parse_set_expr(text, cfg)
        assert dn.class_table(cfg, e.base, tuple(a.ext for a in e.atoms())) is not None
        want = per_point(e, CYCLO_N, monkeypatch)
        assert counts(e, CYCLO_N) == want, (doc, text)
        if len(seen) < 3:
            with monkeypatch.context() as m:
                m.setattr(sieve, "RANGE_WIDTH", 200)
                assert counts(e, CYCLO_N, workers=2) == want, (doc, text)
        seen.append(text)

    check()
    assert len(seen) == 12


def test_cyclotomic_table_rows():
    # over Q(ζ_4) in Q(ζ_8) the classes are the four units mod 8.  Q(ζ_8)
    # splits over both points of Q(i) at p = 1 mod 8 and over neither at
    # p = 5 mod 8, and over the one point of degree 2 at p = 3 mod 4
    cfg = load_lattice(cyclotomic_lattice([4, 8], set()))
    table = dn.class_table(cfg, cfg.field("C4"), (cfg.extension("C8/C4"),))
    assert table.classes == ((0,), (1,), (2,), (3,))  # x, x^3, x^5, x^7
    assert table.rows == (((1, 2), (1, 2)), ((2, 2),), ((1, 0), (1, 0)), ((2, 2),))


def _spoiled(real):
    """lane_frobenius_counts with no class found at p = 1 mod 5 and every
    class found at p = 2 mod 5."""
    def spoiled(f, maps, primes):
        out = real(f, maps, primes)
        out[:, primes % 5 == 1] = 0
        out[:, primes % 5 == 2] = 1
        return out
    return spoiled


@pytest.mark.parametrize("text", ["Psi(S3c/Qw) | Pi(S3c/Qw) & !{7}",
                                  "Pi(S3c/Qc2) & !Psi(S3c/Qc2) | Psi(S3c/Qc2)",
                                  "Pi(Q8/Qi) & !Psi(Q8/Qi) | {5}"])
def test_unclassified_lanes_take_the_per_point_path(demo, monkeypatch, text):
    e = dn.parse_set_expr(text, demo)
    want = per_point(e, 10000, monkeypatch)
    split, points = sp.split_prime, []

    def counting_split(fld, p):
        points.append(p)
        return split(fld, p)

    monkeypatch.setattr(dn, "lane_frobenius_counts", _spoiled(dn.lane_frobenius_counts))
    monkeypatch.setattr(sp, "split_prime", counting_split)
    assert counts(e, 10000) == want
    assert {p % 5 for p in points} >= {1, 2} and len(points) > 500
    monkeypatch.setattr(sieve, "RANGE_WIDTH", 2000)
    assert counts(e, 10000, workers=2) == want


# Q(ζ8) once more, generated by 3ζ8: disc 2^8·3^12, and it sorts before Q8,
# so the class table is built over A8 and refuses p = 3, which the
# expressions over Q8/Qi can evaluate
A8 = """
field A8
  poly 81 0 0 0 1
trusted A8
auto A8
  map 0 1
auto A8
  map 0 0 0 1/9
auto A8
  map 0 -1
auto A8
  map 0 0 0 -1/9
galois A8
embed Qi -> A8
  map 0 0 1/9
embed Q8 -> A8
  map 0 1/3
"""


@pytest.mark.parametrize("text", ["Psi(Q8/Qi)", "Pi(Q8/Qi) & !Psi(Q8/Qi) | {3}"])
def test_primes_the_table_refuses_take_the_per_point_path(demo, monkeypatch, text):
    wide = load_lattice(pathlib.Path(LATTICE).read_text() + A8)
    e, e_wide = dn.parse_set_expr(text, demo), dn.parse_set_expr(text, wide)
    table = dn.class_table(wide, e_wide.base, tuple(a.ext for a in e_wide.atoms()))
    assert table.modulus == wide.field("A8").poly.coeffs
    want = dn.trace_csv(dn.estimate_density(e, 20000))
    split, points = sp.split_prime, set()

    def spying_split(fld, p):
        points.add(p)
        return split(fld, p)

    monkeypatch.setattr(sp, "split_prime", spying_split)
    assert dn.trace_csv(dn.estimate_density(e_wide, 20000)) == want
    assert points == {2, 3}  # 2 is skipped as ramified, 3 is evaluated
    assert dn.chebotarev_predict(e_wide, wide) == dn.chebotarev_predict(e, demo)


# ------------------------------------------------ the Frobenius class oracle


def _primes_above(start, count):
    out, q = [], start
    while len(out) < count:
        q += 1
        if is_prime(q):
            out.append(q)
    return out


@pytest.mark.parametrize("name", ["Qi", "Qs2", "Qw", "Q8", "S3c"])
def test_lane_classes_hold_the_frobenius_element(demo, name):
    # at each point q over p, the automorphism σ with x^p = h_σ mod g_q is
    # the Frobenius element of q, and it must lie in the class of p found on
    # lanes; three primes above 2^32 run on object lanes
    fld = demo.field(name)
    table = dn.class_table(demo, fld, (demo.extension((name, name)),))
    assert table.modulus == fld.poly.coeffs
    autos = demo.autos(name)
    small = np.array(list(stream_primes(2000)), dtype=np.int64)
    big = np.array(_primes_above(2**32, 3), dtype=np.int64)
    assert mp.lanes(small).dtype == np.int64 and mp.lanes(big).dtype == object
    for primes in (small, big):
        taken = primes[table.rule.reasons(primes) == 0]
        assert not any(fld.disc % p == 0 for p in taken.tolist())
        classes = table.classify(taken)
        assert (classes >= 0).all()
        for p, c in zip(taken.tolist(), classes.tolist()):
            for q in sp.split_prime(fld, p):
                g = list(q.local_factor)
                xp = mp.xpow_mod(p, g, p)
                frob = [i for i, a in enumerate(autos)
                        if mp.rem_p(reduce_mod_p(a.h, p), g, p) == xp]
                assert len(frob) == 1 and frob[0] in table.classes[c], (name, p, q)
