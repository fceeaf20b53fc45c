"""Acceptance gate: one test per criterion, run with `pytest -v`.

Each test name identifies its criterion; the verbose pytest line is the
pass/fail line.  Passing tests also print their measured numbers (visible
with -s or on failure).
"""

import pathlib
import time

import pytest

from arithplane import density as dn
from arithplane import plane as pl
from arithplane import spectrum as sp
from arithplane.cli import _frobenius_csv
from arithplane.lattice import load_lattice
from arithplane.sieve import stream_primes

CONFIG_DIR = pathlib.Path(__file__).resolve().parent.parent / "configs"
MILLION = 10**6
SEED = 20260814


@pytest.fixture(scope="module")
def cfg():
    return load_lattice((CONFIG_DIR / "demo.cfg").read_text())


@pytest.fixture(scope="module")
def psi_qi_scan(cfg):
    expr = dn.parse_set_expr("Psi(Qi/Q)", cfg)
    t0 = time.perf_counter()
    one = dn.estimate_density(expr, MILLION, workers=1)
    elapsed = time.perf_counter() - t0
    four = dn.estimate_density(expr, MILLION, workers=4)
    return one, four, elapsed


@pytest.fixture(scope="module")
def qc2_scans(cfg):
    psi = dn.parse_set_expr("Psi(Qc2/Q)", cfg)
    pi = dn.parse_set_expr("Pi(Qc2/Q)", cfg)
    return {
        "psi": (dn.estimate_density(psi, MILLION, workers=1),
                dn.estimate_density(psi, MILLION, workers=4)),
        "pi": (dn.estimate_density(pi, MILLION, workers=1),
               dn.estimate_density(pi, MILLION, workers=4)),
    }


@pytest.fixture(scope="module")
def frobenius_scan(cfg):
    fld = cfg.field("Qc2")
    return (dn.frobenius_histogram(fld, MILLION, workers=1),
            dn.frobenius_histogram(fld, MILLION, workers=4))


def test_criterion_01_psi_qi_density_at_1e6(psi_qi_scan):
    est, _, elapsed = psi_qi_scan
    delta = abs(est.value - 0.5)
    assert delta <= 0.005, f"|{est.value:.6f} - 0.5| = {delta:.6f} > 0.005"
    assert elapsed <= 60.0, f"single-worker scan took {elapsed:.1f}s > 60s"
    print(f"CRITERION 1 PASS: Psi(Qi/Q)@1e6 = {est.value:.6f},"
          f" |delta| = {delta:.6f} <= 0.005, {elapsed:.1f}s single worker")


def test_criterion_02_cubic_densities_at_1e6(qc2_scans):
    psi = qc2_scans["psi"][0].value
    pi = qc2_scans["pi"][0].value
    assert abs(psi - 1 / 6) <= 0.01, f"Psi(Qc2/Q) = {psi:.6f}"
    assert abs(pi - 2 / 3) <= 0.01, f"Pi(Qc2/Q) = {pi:.6f}"
    assert pi >= 1 / 6 - 0.01, "lower bound by closure degree violated"
    print(f"CRITERION 2 PASS: Psi(Qc2/Q) = {psi:.6f} (~1/6),"
          f" Pi(Qc2/Q) = {pi:.6f} (~2/3), lower bound holds")


def test_criterion_03_frobenius_histogram_at_1e6(frobenius_scan):
    stats = frobenius_scan[0]
    freqs = {pat: c / stats.total for pat, c in stats.counts}
    targets = {(1, 1, 1): 1 / 6, (1, 2): 1 / 2, (3,): 1 / 3}
    assert set(freqs) == set(targets)
    for pattern, want in targets.items():
        got = freqs[pattern]
        assert abs(got - want) <= 0.01, f"{pattern}: {got:.6f} vs {want:.6f}"
    shown = {"+".join(map(str, k)): round(v, 4) for k, v in sorted(freqs.items())}
    print(f"CRITERION 3 PASS: cycle types {shown} within 0.01 of 1/6, 1/2, 1/3")


def test_criterion_04_norm_fibre_law_exact(cfg):
    report = pl.check_norm_fibres(cfg.extension("Qi/Q"), 1000)
    assert report.ok, str(report)
    assert report.points == 247
    print(f"CRITERION 4 PASS: {report.points} fibres of Qi over p <= 1000,"
          f" every nonzero preimage equals (|pK|-1)/(|pL|-1) exactly")


def test_criterion_05_galois_modes_agree(cfg):
    checked = 0
    for name in ("Qi", "Q8"):
        ext = cfg.extension((name, "Q"))
        fld = cfg.field(name)
        autos = cfg.autos(name)
        for p in stream_primes(1000):
            if ext.is_excluded(p):
                continue
            (pq,) = sp.split_prime(cfg.field("Q"), p)
            if not sp.in_psi(ext, pq):
                continue
            for q in sp.split_prime(fld, p):
                for sigma in autos:
                    direct = pl.galois_image(cfg, sigma, q, "direct")
                    brute = pl.galois_image(cfg, sigma, q, "bruteforce")
                    assert direct == brute, (name, p, sigma.h, q.local_factor)
                    checked += 1
    # 80 primes = 1 mod 4 give 2x2 pairs; 37 primes = 1 mod 8 give 4x4
    assert checked == 80 * 4 + 37 * 16
    print(f"CRITERION 5 PASS: direct == bruteforce on {checked} (sigma, point)"
          f" pairs over split p <= 1000 in Qi/Q and Q8/Q")


def test_criterion_06_section_independence(cfg):
    report = pl.check_section_independence(
        cfg.extension("Qi/Q"), prime_bound=100, gamma_bound=5, trials=100,
        seed=SEED,
    )
    assert report.ok, str(report)
    print(f"CRITERION 6 PASS: {report.trials} section pairs,"
          f" {report.comparisons} comparisons, zero dependent outputs")


def test_criterion_07_psi_product_law(cfg):
    report = dn.check_psi_product(cfg, "Qi", "Qs2", "Q8", "Q", 10**4)
    assert report.ok, str(report)
    assert report.total == 1228  # every prime except the ramified 2
    print(f"CRITERION 7 PASS: Psi(Qi)&Psi(Qs2) == Psi(Q8) at all"
          f" {report.total} primes <= 1e4 off the ramified set {{2}}")


def test_criterion_08_pi_equals_psi_for_galois_quadratic(cfg):
    report = dn.check_pi_eq_psi(cfg, "Qi/Q", 10**4)
    assert report.galois and report.mismatches == 0, str(report)
    print(f"CRITERION 8 PASS: Pi == Psi for Qi/Q at all {report.total}"
          f" primes <= 1e4 off {{2}}")


def test_criterion_09_inclusion_exclusion_exact(cfg):
    report = dn.check_inclusion_exclusion(
        dn.parse_set_expr("Psi(Qi/Q)", cfg),
        dn.parse_set_expr("Psi(Qs2/Q)", cfg),
        10**5,
    )
    rows = zip(report.a.trace, report.b.trace, report.union.trace,
               report.intersection.trace)
    for a, b, u, i in rows:
        assert u.hits + i.hits == a.hits + b.hits, f"broken at N={a.bound}"
    assert report.exact
    bounds = [row.bound for row in report.a.trace]
    print(f"CRITERION 9 PASS: hits(A|B) + hits(A&B) == hits(A) + hits(B)"
          f" exactly at checkpoints {bounds}")


def test_criterion_10_pullback_checker_reports_both_ways(cfg):
    report = dn.check_pullback(cfg, "Q", "Qi", "Qs2", "Q8", 1000)
    discrepant = set(report.pi_discrepancies)
    assert {3, 11} <= discrepant, f"expected discrepancies missing: {discrepant}"
    assert discrepant.isdisjoint({5, 7, 17}), "agreement primes misreported"
    print(f"CRITERION 10 PASS: agreement at 5, 7, 17; discrepancies reported"
          f" at 3 and 11 (all: p = 3 mod 8, {len(discrepant)} of them <= 1000)")


def test_criterion_11_worker_count_never_changes_csv(
    psi_qi_scan, qc2_scans, frobenius_scan
):
    assert dn.trace_csv(psi_qi_scan[0]) == dn.trace_csv(psi_qi_scan[1])
    for pair in qc2_scans.values():
        assert dn.trace_csv(pair[0]) == dn.trace_csv(pair[1])
    assert _frobenius_csv(frobenius_scan[0]) == _frobenius_csv(frobenius_scan[1])
    print("CRITERION 11 PASS: workers=1 and workers=4 CSVs byte-identical"
          " for the criterion 1-3 scans")
