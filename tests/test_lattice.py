import pathlib
import re

import numpy as np
import pytest

from arithplane import modpoly as mp
from arithplane.cli import main
from arithplane.errors import (
    AutomorphismGroupError,
    EmbeddingInvalidError,
    LatticeSyntaxError,
    UnknownFieldError,
)
from arithplane.intpoly import RatPoly, reduce_mod_p
from arithplane.lattice import ExclusionRule, load_lattice, prime_factors, validate_lattice
from arithplane.sieve import stream_primes

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"

DEMO = (CONFIG_DIR / "demo.cfg").read_text()


@pytest.fixture(scope="module")
def demo():
    return load_lattice(DEMO)


def test_demo_loads(demo):
    assert sorted(demo.fields) == ["Q", "Q8", "Qc2", "Qi", "Qs2", "Qw", "S3c"]
    assert demo.field("Qi").degree == 2
    assert demo.field("Q8").degree == 4
    assert demo.field("S3c").degree == 6
    assert demo.field("Q").poly.num == (0, 1)
    assert demo.is_galois("Q8") and demo.is_galois("S3c")
    assert not demo.is_galois("Qc2")
    assert demo.closure_of("Qc2") == "S3c"
    assert demo.closure_of("Qi") == "Qi"
    assert demo.closure_of("Q") is None


def test_empty_document_is_base_only():
    cfg = load_lattice("")
    assert list(cfg.fields) == ["Q"]
    assert cfg.field("Q").disc == 1
    # identity and zero embeddings exist implicitly
    assert cfg.embedding("Q", "Q").h == RatPoly.of(0, 1)


def test_implicit_embeddings(demo):
    assert demo.embedding("Q", "Q8").h == RatPoly.of()
    assert demo.embedding("Qi", "Qi").h == RatPoly.of(0, 1)
    assert demo.embedding("Qi", "Q8").h == RatPoly.of(0, 0, 1)
    with pytest.raises(UnknownFieldError):
        demo.embedding("Qi", "Qs2")
    with pytest.raises(UnknownFieldError):
        demo.embedding("Nope", "Q8")


def test_extension_lookup(demo):
    ext = demo.extension("Q8/Qi")
    assert ext.rel_degree == 2
    assert ext.name == "Q8/Qi"
    assert ext.excluded_primes() == frozenset({2})
    assert ext.is_excluded(2) and not ext.is_excluded(3)
    assert demo.extension(("S3c", "Qc2")).rel_degree == 2
    with pytest.raises(UnknownFieldError):
        demo.extension("Qi/Q8")  # wrong way around
    with pytest.raises(UnknownFieldError):
        demo.extension("Qi")


def test_excluded_primes_are_the_discriminant_primes(demo):
    # 3 divides disc S3c as well as disc(x^3 - 2) = -108, so S3c/Qc2
    # excludes it; the map's thirds and ninths add no prime of their own
    ext = demo.extension("S3c/Qc2")
    assert ext.excluded_primes() == frozenset({2, 3})
    assert demo.extension("S3c/Q").excluded_primes() == frozenset({2, 3})
    assert demo.extension("Qw/Q").excluded_primes() == frozenset({3})


def test_exclusion_rule(demo):
    rule = ExclusionRule.of([demo.extension("S3c/Qc2"), demo.extension("Qi/Q")])
    assert rule.excludes(2) and rule.excludes(3)
    assert not rule.excludes(5)
    assert ExclusionRule((-4, 15)).excludes(5)


def _maps(cfg):
    """(map, destination field) of every declared embedding and automorphism."""
    return ([(emb.h, cfg.field(dst)) for (_, dst), emb in cfg.embeddings.items()]
            + [(a.h, cfg.field(a.field)) for autos in cfg.automorphisms.values() for a in autos])


@pytest.mark.parametrize("name", ["demo.cfg", "dihedral.cfg"])
def test_map_denominators_divide_the_index(name):
    # a map sends a generator to an algebraic integer of its destination K,
    # so its denominator divides the index of Z[x]/(f_K) in the integers of
    # K, whose square divides disc f_K: the rule needs no denominators
    cfg = load_lattice((CONFIG_DIR / name).read_text())
    maps = _maps(cfg)
    assert any(h.den > 1 for h, _ in maps)
    assert all(fld.disc % h.den**2 == 0 for h, fld in maps)


def _extensions(cfg):
    """Every declared embedding read as an extension, and each field over Q."""
    return ([cfg.extension((dst, src)) for src, dst in cfg.embeddings]
            + [cfg.extension((name, "Q")) for name in cfg.fields if name != "Q"])


M61 = 2**61 - 1
NEAR_2_63 = (2**63 - 25, 2**63 + 29)  # the primes on either side of 2^63
NEAR_2_64 = (2**64 - 59, 2**64 + 13)  # and of 2^64
# discriminants, three of them past int64, each with its prime factors
BIG_DISCS = ((-4, {2}), (3 * 7919 * 2**70, {2, 3, 7919}), (-(M61**2) * 99991, {M61, 99991}),
             (10, {2, 5}), (7919 * 104729, {7919, 104729}),
             (NEAR_2_64[1] * 99989 * 3**50, {NEAR_2_64[1], 99989, 3}))


def _hand_built():
    """(rule, the prime factors of its discriminants)."""
    yield ExclusionRule(tuple(d for d, _ in BIG_DISCS)), set().union(*(ps for _, ps in BIG_DISCS))
    yield ExclusionRule((NEAR_2_63[0] * NEAR_2_64[0],)), {NEAR_2_63[0], NEAR_2_64[0]}
    yield ExclusionRule((NEAR_2_63[1] * 5,)), {5, NEAR_2_63[1]}


def _demo_rules(demo):
    """The rule of each demo extension, and of all of them at once, with the
    prime factors of the discriminants they name."""
    exts = _extensions(demo)
    for group in [[ext] for ext in exts] + [exts]:
        discs = {q for ext in group for d in (ext.field.disc, ext.base.disc)
                 for q in prime_factors(d)}
        yield ExclusionRule.of(group), discs


def test_exclusion_rule_on_prime_arrays(demo):
    # the per-prime and array forms both exclude exactly the prime factors
    # of the discriminants, on the primes to 10^5, on the demo extensions
    # and on rules with discriminants beyond int64 (reduced per lane 31 bits
    # at a time)
    primes = list(stream_primes(10**5))
    seen = set()
    for rule, discs in [*_demo_rules(demo), *_hand_built()]:
        want = [p in discs for p in primes]
        assert [rule.excludes(p) for p in primes] == want
        assert rule.excluded(np.array(primes, dtype=np.int64)).tolist() == want
        seen.update(want)
    assert seen == {False, True}


def test_exclusion_rule_near_the_word_bounds(demo):
    # primes either side of 2^63 and 2^64, alone and as factors of
    # discriminants, through the per-prime rule
    near = [*NEAR_2_63, *NEAR_2_64, M61]
    for rule, discs in [*_demo_rules(demo), *_hand_built()]:
        assert [rule.excludes(p) for p in near] == [p in discs for p in near]
    rules = [rule for rule, _ in _hand_built()]
    assert [rules[0].excludes(p) for p in near] == [False, False, False, True, True]
    assert [rules[1].excludes(p) for p in near] == [True, False, True, False, False]
    assert [rules[2].excludes(p) for p in near] == [False, True, False, False, False]
    # the array form on the int64 primes among them
    fits = np.array([NEAR_2_63[0], M61], dtype=np.int64)
    assert [rule.excluded(fits).tolist() for rule in rules] == [
        [False, True], [True, False], [False, False]]


def test_validation_report(demo):
    lines = validate_lattice(demo).split("\n")
    assert "field Q: degree 1, disc 1, certificate base field" in lines
    assert "field Q8: degree 4, disc 256, certificate trusted, galois, closure=Q8" in lines
    assert "field Qi: degree 2, disc -4, certificate irreducible mod 3, galois, closure=Qi" in lines
    assert "pair Q8/Q: excluded primes {2}" in lines
    assert "pair Qc2/Q: excluded primes {2, 3}" in lines
    assert "pair Q8/Qi: excluded primes {2}" in lines


def test_prime_factors():
    assert prime_factors(-2066242608) == [2, 3]
    assert prime_factors(1) == []
    assert prime_factors(97 * 97 * 101) == [97, 101]
    m61 = 2**61 - 1
    assert prime_factors(m61**3) == [m61]
    assert prime_factors(1009**2 * 1013 * (2**31 - 1) * m61) == [1009, 1013, 2**31 - 1, m61]
    # strong pseudoprimes to every Miller-Rabin base of is_prime
    assert prime_factors(3317044064679887385961981) == [1287836182261, 2575672364521]
    assert prime_factors(318665857834031151167461) == [399165290221, 798330580441]
    with pytest.raises(ValueError):
        prime_factors(0)


def test_validate_factors_semiprime_discriminant():
    # disc = 4 * 1000000000039 * 1000000000061: trial division to its
    # square root would take about 10^12 steps
    cfg = load_lattice("field Big\n  poly -1000000000100000000002379 0 1\n")
    assert validate_lattice(cfg).split("\n")[2:] == [
        "pair Big/Q: excluded primes {2, 1000000000039, 1000000000061}"]


# ---------------------------------------------------------------------------
# rejected documents
# ---------------------------------------------------------------------------


def test_no_certificate_without_trusted():
    # x^4 + 1 is reducible mod every prime
    with pytest.raises(LatticeSyntaxError) as ei:
        load_lattice("field A\n  poly 1 0 0 0 1\n")
    assert "trusted" in str(ei.value)
    load_lattice("field A\n  poly 1 0 0 0 1\ntrusted A\n")  # and the override works


def test_invalid_embedding_names_pair():
    doc = (
        "field Qi\n  poly 1 0 1\n"
        "field Qs2\n  poly -2 0 1\n"
        "embed Qi -> Qs2\n  map 0 1\n"
    )
    with pytest.raises(EmbeddingInvalidError) as ei:
        load_lattice(doc)
    assert "Qi -> Qs2" in str(ei.value)


def test_embedding_degree_must_divide():
    doc = (
        "field Qc2\n  poly -2 0 1\n"   # quadratic here
        "field B\n  poly 1 1 0 1\n"    # cubic
        "embed Qc2 -> B\n  map 0 1\n"
    )
    with pytest.raises(EmbeddingInvalidError) as ei:
        load_lattice(doc)
    assert "divide" in str(ei.value)


def test_embedding_to_unknown_field():
    doc = "field A\n  poly 1 0 1\nembed A -> B\n  map 0 0 1\n"
    with pytest.raises(LatticeSyntaxError):
        load_lattice(doc)


def test_composition_coherence_enforced():
    base = (
        "field A\n  poly 1 0 1\n"            # x^2+1
        "field B\n  poly 1 0 0 0 1\ntrusted B\n"   # x^4+1
        "field C\n  poly 1 0 0 0 0 0 0 0 1\ntrusted C\n"  # x^8+1
        "embed A -> B\n  map 0 0 1\n"
        "embed B -> C\n  map 0 0 1\n"
    )
    good = base + "embed A -> C\n  map 0 0 0 0 1\n"
    cfg = load_lattice(good)
    assert cfg.embedding("A", "C").h == RatPoly.of(0, 0, 0, 0, 1)
    # -x^4 is also a root map of x^2+1 inside C, but it is not the composite
    bad = base + "embed A -> C\n  map 0 0 0 0 -1\n"
    with pytest.raises(EmbeddingInvalidError) as ei:
        load_lattice(bad)
    assert "compose" in str(ei.value)


def test_identity_self_embedding_declares_nothing():
    cfg = load_lattice("field A\n  poly 1 0 1\nembed A -> A\n  map 0 1\n")
    assert cfg.embeddings == {}
    assert cfg.embedding("A", "A").h == RatPoly.of(0, 1)


def test_self_embedding_must_be_identity():
    doc = "field A\n  poly 1 0 1\nembed A -> A\n  map 0 -1\n"
    with pytest.raises(EmbeddingInvalidError):
        load_lattice(doc)


def test_auto_must_be_root_map():
    doc = "field A\n  poly 1 0 1\nauto A\n  map 1 1\n"
    with pytest.raises(AutomorphismGroupError):
        load_lattice(doc)


def test_auto_set_must_be_closed():
    # {x, ix} inside Q(zeta_8): composing x -> x^3 with itself gives
    # x -> x^9 = x, fine; but {x, x^3 missing} with x -> x^5 present fails
    doc = (
        "field B\n  poly 1 0 0 0 1\ntrusted B\n"
        "auto B\n  map 0 1\n"
        "auto B\n  map 0 0 0 1\n"
        "auto B\n  map 0 -1\n"
    )
    with pytest.raises(AutomorphismGroupError) as ei:
        load_lattice(doc)
    assert "not declared" in str(ei.value)


def test_auto_set_needs_identity():
    doc = "field A\n  poly 1 0 1\nauto A\n  map 0 -1\n"
    with pytest.raises(AutomorphismGroupError) as ei:
        load_lattice(doc)
    assert "identity" in str(ei.value)


def test_galois_count_mismatch():
    doc = (
        "field A\n  poly 1 0 1\n"
        "auto A\n  map 0 1\n"
        "galois A\n"
    )
    with pytest.raises(AutomorphismGroupError) as ei:
        load_lattice(doc)
    assert "degree" in str(ei.value)


def test_closure_target_must_be_galois():
    doc = (
        "field A\n  poly 1 0 1\n"
        "field B\n  poly 1 0 0 0 1\ntrusted B\n"
        "embed A -> B\n  map 0 0 1\n"
        "closure A -> B\n"
    )
    with pytest.raises(AutomorphismGroupError):
        load_lattice(doc)


def test_closure_needs_embedding():
    doc = (
        "field A\n  poly 1 0 1\n"
        "field B\n  poly 1 0 0 0 1\ntrusted B\n"
        "auto B\n  map 0 1\nauto B\n  map 0 0 0 1\nauto B\n  map 0 -1\nauto B\n  map 0 0 0 -1\n"
        "galois B\n"
        "closure A -> B\n"
    )
    with pytest.raises(EmbeddingInvalidError):
        load_lattice(doc)


# One document per refusal of the assembly checks, each with the full
# message it produced before map composition moved onto the integer kernel.
# The kernel must refuse the same documents with the same first message.
# The cycle refusals print the cycle graphlib finds, in embedding order.
REFUSALS = [
    (
        "bad_embedding_map",
        "field Qi\n  poly 1 0 1\nfield Qs2\n  poly -2 0 1\nembed Qi -> Qs2\n  map 0 1\n",
        EmbeddingInvalidError,
        "embed Qi -> Qs2: map does not send a root of 1 + x^2 into -2 + x^2",
    ),
    (
        "embedding_degree_precondition",
        "field A\n  poly 1 0 1\nfield B\n  poly -2 0 1\nembed A -> B\n  map 0 0 1\n",
        EmbeddingInvalidError,
        "embed A -> B: embedding polynomial must have degree < deg f_dst",
    ),
    (
        "composition_mismatch",
        "field A\n  poly 1 0 1\n"
        "field B\n  poly 1 0 0 0 1\ntrusted B\n"
        "field C\n  poly 1 0 0 0 0 0 0 0 1\ntrusted C\n"
        "embed A -> B\n  map 0 0 1\nembed B -> C\n  map 0 0 1\n"
        "embed A -> C\n  map 0 0 0 0 -1\n",
        EmbeddingInvalidError,
        "embeddings A -> B -> C compose to x^4, but A -> C is declared as -x^4",
    ),
    (
        "rational_composition_mismatch",
        "field A\n  poly -2 0 1\nfield B\n  poly -8 0 1\nfield C\n  poly -32 0 1\n"
        "embed A -> B\n  map 0 1/2\nembed B -> C\n  map 0 1/2\n"
        "embed A -> C\n  map 0 -1/4\n",
        EmbeddingInvalidError,
        "embeddings A -> B -> C compose to 1/4*x, but A -> C is declared as -1/4*x",
    ),
    (
        "auto_not_root_map",
        "field A\n  poly 1 0 1\nauto A\n  map 1 1\n",
        AutomorphismGroupError,
        "auto A: 1 + x is not a root map of 1 + x^2",
    ),
    (
        "non_closed_group",
        "field B\n  poly 1 0 0 0 1\ntrusted B\n"
        "auto B\n  map 0 1\nauto B\n  map 0 0 0 1\nauto B\n  map 0 -1\n",
        AutomorphismGroupError,
        "auto B: composition x^3 o -x = -x^3 is not declared",
    ),
    (
        "rational_non_closed_group",  # the S3c group without its last element
        "field S\n  poly 9 9 0 3 6 3 1\ntrusted S\n"
        "auto S\n  map 0 1\n"
        "auto S\n  map -1 0 4/3 0 0 -1/9\n"
        "auto S\n  map -5 -1 2/3 -2 -1 -5/9\n"
        "auto S\n  map 3 1 -4/3 4/3 2/3 4/9\n"
        "auto S\n  map 2 0 0 4/3 2/3 1/3\n",
        AutomorphismGroupError,
        "auto S: composition -1 + 4/3*x^2 - 1/9*x^5 o 3 + x - 4/3*x^2 + 4/3*x^3 + 2/3*x^4"
        " + 4/9*x^5 = -2 - x - 2/3*x^2 - 2/3*x^3 - 1/3*x^4 - 1/9*x^5 is not declared",
    ),
    (
        "missing_identity",
        "field A\n  poly 1 0 1\nauto A\n  map 0 -1\n",
        AutomorphismGroupError,
        "auto A: identity map is not declared",
    ),
    (
        "duplicate_automorphism",
        "field A\n  poly 1 0 1\nauto A\n  map 0 1\nauto A\n  map 0 -1\nauto A\n  map 0 1\n",
        AutomorphismGroupError,
        "auto A: duplicate map declared",
    ),
    (
        "duplicate_automorphism_spelled_twice",  # 2/2 is 1: one map, two spellings
        "field A\n  poly 1 0 1\nauto A\n  map 0 1\nauto A\n  map 0 -1\nauto A\n  map 0 2/2\n",
        AutomorphismGroupError,
        "auto A: duplicate map declared",
    ),
    (
        # (x^2 - 2)(x^2 - 8) is reducible (hence trusted) with no integer
        # root: the map sending (√2, 2√2) to (√2, √2) in Q(√2) x Q(√2) is a
        # root map closed under composition with the identity, since it is
        # idempotent, but not invertible
        "no_finite_order",
        "field A\n  poly 16 0 -10 0 1\ntrusted A\n"
        "auto A\n  map 0 1\nauto A\n  map 0 7/6 0 -1/12\n",
        AutomorphismGroupError,
        "auto A: 7/6*x - 1/12*x^3 has no finite order",
    ),
    (
        # x^2 - x = x(x - 1): a reducible polynomial of degree <= 3 has an
        # integer root, which refuses it although it is trusted
        "trusted_integer_root",
        "field A\n  poly 0 -1 1\ntrusted A\nauto A\n  map 0 1\nauto A\n  map 1 -1\n"
        "galois A\n",
        LatticeSyntaxError,
        "line 2: trusted field 'A' has the integer root 0, so its polynomial is reducible",
    ),
    (
        "embedding_two_cycle",
        "field A\n  poly 1 0 1\nfield B\n  poly 1 0 1\n"
        "embed A -> B\n  map 0 1\nembed B -> A\n  map 0 1\n",
        EmbeddingInvalidError,
        "embedding cycle B -> A -> B",
    ),
    (
        "embedding_three_cycle",
        "field A\n  poly 1 0 1\nfield B\n  poly 1 0 1\nfield C\n  poly 1 0 1\n"
        "embed A -> B\n  map 0 1\nembed B -> C\n  map 0 1\nembed C -> A\n  map 0 1\n",
        EmbeddingInvalidError,
        "embedding cycle B -> C -> A -> B",
    ),
    (
        "wrong_galois_count",
        "field A\n  poly 1 0 1\nauto A\n  map 0 1\ngalois A\n",
        AutomorphismGroupError,
        "galois A: 1 automorphisms declared, degree is 2",
    ),
    # the loader's own refusals, each at the line it names
    ("field_usage", "field A B\n", LatticeSyntaxError,
     "line 1: usage: field <name>"),
    ("embed_usage", "field A\n  poly 1 0 1\nembed Q A\n  map 0\n", LatticeSyntaxError,
     "line 3: usage: embed <src> -> <dst>"),
    ("auto_usage", "auto\n", LatticeSyntaxError,
     "line 1: usage: auto <field>"),
    ("closure_usage", "closure A => B\n", LatticeSyntaxError,
     "line 1: usage: closure <field> -> <galois-field>"),
    ("galois_usage", "galois A B\n", LatticeSyntaxError,
     "line 1: usage: galois <field>"),
    ("trusted_usage", "trusted\n", LatticeSyntaxError,
     "line 1: usage: trusted <field>"),
    ("base_redeclared", "field Q\n  poly 0 1\n", LatticeSyntaxError,
     "line 1: Q is implicit and cannot be redeclared"),
    ("duplicate_field", "field A\n  poly 1 0 1\nfield A\n  poly -2 0 1\n", LatticeSyntaxError,
     "line 3: duplicate field 'A'"),
    ("expected_poly", "field A\n# a comment\n\nfield B\n  poly 1 0 1\n", LatticeSyntaxError,
     "line 4: expected 'poly' line for preceding 'field A'"),
    ("expected_map", "field A\n  poly 1 0 1\nauto A\n  poly 0 1\n", LatticeSyntaxError,
     "line 4: expected 'map' line for preceding 'auto A'"),
    ("document_ends", "field A\n  poly 1 0 1\nembed Q -> A\n  # no map\n\n", LatticeSyntaxError,
     "document ends while 'embed Q -> A' still needs a 'map' line"),
    ("empty_coefficients", "field A\n  poly   # none\n", LatticeSyntaxError,
     "line 2: empty coefficient list"),
    ("bad_coefficient_token", "field A\n  poly 1 0/0 1\n", LatticeSyntaxError,
     "line 2: bad coefficient token '0/0'"),
    ("bad_coefficient_word", "field A\n  poly 1 zero 1\n", LatticeSyntaxError,
     "line 2: bad coefficient token 'zero'"),
    ("poly_not_integer", "field A\n  poly 1/2 0 1\n", LatticeSyntaxError,
     "line 2: poly coefficients must be integers"),
    ("poly_not_monic", "field A\n  poly 1 0 2\n", LatticeSyntaxError,
     "line 2: poly must be monic of degree >= 1 (constant first, last = 1)"),
    ("stray_map", "field A\n  poly 1 0 1\n  map 0 1\n", LatticeSyntaxError,
     "line 3: 'map' line without a preceding directive"),
    ("unknown_directive", "field A\n  poly 1 0 1\nfrobnicate A\n", LatticeSyntaxError,
     "line 3: unknown directive 'frobnicate'"),
    # the assembly's refusals at a line
    ("trusted_unknown_field", "field A\n  poly 1 0 1\ntrusted B\n", LatticeSyntaxError,
     "line 3: trusted: unknown field 'B'"),
    ("duplicate_embedding",
     "field A\n  poly 1 0 1\nfield B\n  poly 1 0 0 0 1\ntrusted B\n"
     "embed A -> B\n  map 0 0 1\nembed A -> B\n  map 0 0 -1\n", LatticeSyntaxError,
     "line 9: duplicate embedding A -> B"),
    ("duplicate_closure",
     "field A\n  poly 1 0 1\nauto A\n  map 0 1\nauto A\n  map 0 -1\ngalois A\n"
     "closure A -> A\nclosure A -> A\n", LatticeSyntaxError,
     "line 9: duplicate closure for 'A'"),
]


@pytest.mark.parametrize("name, doc, error, message", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_refusal_messages_are_pinned(name, doc, error, message, tmp_path, capsys):
    with pytest.raises(error) as ei:
        load_lattice(doc)
    assert str(ei.value) == message
    at = re.match(r"line (\d+): ", message)
    assert getattr(ei.value, "line", None) == (int(at[1]) if at else None)
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(doc)
    code = main(["validate", "--lattice", str(cfg)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (2, "", f"arithplane: {message}\n")


# ---------------------------------------------------------------------------
# structural invariants over the demo lattice
# ---------------------------------------------------------------------------


def horner(a, x, p):
    """a(x) mod p by Horner's rule."""
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def _roots_mod(poly, p):
    factors = mp.factor(reduce_mod_p(poly, p), p)
    return sorted((-g[0]) % p for g, _ in factors if mp.deg(g) == 1)


def test_autos_permute_roots_simply(demo):
    # at every unramified prime below 1000 where f has roots, each declared
    # automorphism permutes them; for Galois fields the orbit of one root
    # under the full set is all of them, with no collisions
    for name in ("Qi", "Qs2", "Qw", "Q8", "S3c"):
        fld = demo.field(name)
        excluded = demo.extension((name, "Q")).excluded_primes()
        checked = 0
        for p in stream_primes(1000):
            if p in excluded:
                continue
            roots = _roots_mod(fld.poly, p)
            if not roots:
                continue
            rset = set(roots)
            for sigma in demo.autos(name):
                hbar = reduce_mod_p(sigma.h, p)
                assert {horner(hbar, r, p) for r in roots} == rset
            if demo.is_galois(name) and len(roots) == fld.degree:
                images = [horner(reduce_mod_p(s.h, p), roots[0], p) for s in demo.autos(name)]
                assert sorted(images) == roots
                checked += 1
        if demo.is_galois(name):
            assert checked > 0


def test_fixing_subgroups(demo):
    fix_qi = demo.automorphisms_fixing("Q8", "Qi")
    assert len(fix_qi) == 2  # index 2 subgroup
    fix_qs2 = demo.automorphisms_fixing("Q8", "Qs2")
    assert len(fix_qs2) == 2
    assert {a.h.coeffs for a in fix_qi} != {a.h.coeffs for a in fix_qs2}
    assert len(demo.automorphisms_fixing("S3c", "Qc2")) == 2
    assert len(demo.automorphisms_fixing("S3c", "Qw")) == 3
    assert len(demo.automorphisms_fixing("S3c", "Q")) == 6
    assert len(demo.automorphisms_fixing("S3c", "S3c")) == 1


def test_embedding_chain_through_compositum(demo):
    # push a root of x^2+1 along Qi -> Q8 and check it really lands on a
    # fourth root of -1 squared, prime by prime
    emb = demo.embedding("Qi", "Q8")
    f8 = demo.field("Q8").poly
    for p in (17, 41, 73, 89, 97):
        roots8 = _roots_mod(f8, p)
        assert len(roots8) == 4
        hbar = reduce_mod_p(emb.h, p)
        for r in roots8:
            img = horner(hbar, r, p)
            assert (img * img + 1) % p == 0


def test_demo_maps_print_as_declared(demo):
    # the printed form of every declared map, as the refusal messages and
    # the validation report show maps
    autos = [str(a) for name in sorted(demo.fields) for a in demo.autos(name)]
    assert autos == [
        "Q8: x -> x", "Q8: x -> x^3", "Q8: x -> -x", "Q8: x -> -x^3",
        "Qi: x -> x", "Qi: x -> -x", "Qs2: x -> x", "Qs2: x -> -x",
        "Qw: x -> x", "Qw: x -> -1 - x",
        "S3c: x -> x",
        "S3c: x -> -1 + 4/3*x^2 - 1/9*x^5",
        "S3c: x -> -5 - x + 2/3*x^2 - 2*x^3 - x^4 - 5/9*x^5",
        "S3c: x -> 3 + x - 4/3*x^2 + 4/3*x^3 + 2/3*x^4 + 4/9*x^5",
        "S3c: x -> 2 + 4/3*x^3 + 2/3*x^4 + 1/3*x^5",
        "S3c: x -> -2 - x - 2/3*x^2 - 2/3*x^3 - 1/3*x^4 - 1/9*x^5",
    ]
    embeds = {pair: str(e.h) for pair, e in demo.embeddings.items()}
    assert embeds == {
        ("Qi", "Q8"): "x^2",
        ("Qs2", "Q8"): "x - x^3",
        ("Qc2", "S3c"): "2 + x - 2/3*x^2 + 2/3*x^3 + 1/3*x^4 + 2/9*x^5",
        ("Qw", "S3c"): "-2 + 2/3*x^2 - 2/3*x^3 - 1/3*x^4 - 2/9*x^5",
    }
    # and every field polynomial, as the refusals print it: each is its
    # declared integer vector over denominator 1
    polys = {name: str(fld.poly) for name, fld in demo.fields.items()}
    assert polys == {
        "Q": "x", "Qi": "1 + x^2", "Qs2": "-2 + x^2", "Q8": "1 + x^4",
        "Qc2": "-2 + x^3", "Qw": "1 + x + x^2",
        "S3c": "9 + 9*x + 3*x^3 + 6*x^4 + 3*x^5 + x^6",
    }
    assert all(fld.poly.den == 1 and fld.poly.is_monic for fld in demo.fields.values())
