"""Tests of the benchmark itself; outside the package's test suite.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import collections
import json
import pathlib
import time

import pytest

import bench_stats as bs
import run
import tracer as tr
import workloads as wl

ROOT = pathlib.Path(__file__).resolve().parents[2]


# --------------------------------------------------------------------------
# percentile and sample count


def test_nearest_rank_percentile():
    values = list(range(100, 0, -1))
    assert bs.percentile(values, 50) == 50
    assert bs.percentile(values, 90) == 90
    assert bs.percentile(values, 100) == 100
    assert bs.percentile([7.0], 90) == 7.0
    assert bs.percentile([1, 2], 50) == 1
    with pytest.raises(ValueError):
        bs.percentile([], 50)


def test_sample_count_for_ten_beyond_the_tail():
    assert bs.min_samples(90) == 100
    assert bs.min_samples(99) == 1000
    assert bs.beyond(100, 90) == 10
    assert bs.beyond(99, 90) == 9


@pytest.mark.parametrize("n, q", [(1, None), (99, None), (100, 90.0), (999, 90.0),
                                  (1000, 99.0), (10_000, 99.9)])
def test_tail_percentile_choice(n, q):
    assert bs.tail_percentile(n) == q


def test_queries_ask_for_enough_samples_for_p90():
    assert bs.beyond(bs.min_samples(run.TAIL_Q), run.TAIL_Q) >= bs.MIN_BEYOND


# --------------------------------------------------------------------------
# self time


def test_self_time_is_duration_minus_direct_children():
    spans = [
        ("cli.main", 0.0, 10.0, -1),
        ("density.scan", 1.0, 9.0, 0),
        ("modpoly.root_count", 2.0, 4.0, 1),
        ("modpoly.xpow_mod", 2.5, 3.5, 2),
        ("modpoly.root_count", 5.0, 6.0, 1),
        ("sieve.stream_primes.iter", 6.0, 6.5, 1),
    ]
    got = tr.self_times(spans)
    assert got["cli.main"] == [1, 10.0, 2.0]
    assert got["density.scan"] == [1, 8.0, 4.5]
    assert got["modpoly.root_count"] == [2, 3.0, 2.0]
    assert got["modpoly.xpow_mod"] == [1, 1.0, 1.0]
    assert got["sieve.stream_primes.iter"] == [1, 0.5, 0.5]
    assert sum(v[2] for v in got.values()) == pytest.approx(10.0)


def test_traced_child_self_times_add_up_to_wall():
    job = {"mode": "batch", "trace": True, "spans_path": None,
           "argv": ["density", "--lattice", wl.LATTICE, "--expr", "Psi(Q8/Qi)",
                    "--max", "300", "--workers", "1"]}
    rep = run.spawn(job, time.monotonic() + 120)
    assert rep["exit"] == 0
    st = rep["self_times"]
    assert st["spectrum.split_prime"][0] > 0
    assert st["finitefield.fq_roots"][0] > 0
    assert rep["counts"]["finitefield.elements"] > 0
    assert rep["counts"]["sieve.primes"] == 62
    # functions imported by name into other modules are wrapped too
    assert "arithplane.spectrum.split_prime" in rep["wrapped"]
    root_total = st["cli.main"][1]
    assert sum(v[2] for v in st.values()) == pytest.approx(root_total, rel=1e-9)
    assert root_total == pytest.approx(rep["wall_s"], rel=0.05)
    assert rep["cache_lookups"]["spectrum.residue_fq"][1] > 0


# --------------------------------------------------------------------------
# golden and answer checks


def _perturb(text: str) -> str:
    for i, c in enumerate(text):
        if c.isdigit():
            return text[:i] + str((int(c) + 1) % 10) + text[i + 1:]
    raise AssertionError("no digit to perturb")


def test_goldens_cover_every_batch_command():
    goldens = wl.load_goldens()
    for cmds in wl.BATCH.values():
        for argv in cmds:
            g = goldens[wl.command_key(argv)]
            assert g["exit"] == 0 and g["evaluated"] > 0


def test_golden_checker_counts_a_perturbed_answer_as_failure():
    for g in wl.load_goldens().values():
        assert wl.batch_answer_ok(g["stdout"], g["exit"], g)
        assert not wl.batch_answer_ok(_perturb(g["stdout"]), g["exit"], g)
        assert not wl.batch_answer_ok(g["stdout"], 1, g)
        assert not wl.batch_answer_ok("", g["exit"], g)


@pytest.fixture(scope="module")
def cfg():
    from arithplane.lattice import load_lattice
    return load_lattice((ROOT / wl.LATTICE).read_text(encoding="utf-8"))


@pytest.mark.parametrize("kind, argv, right, wrong", [
    ("split", ["split", "--field", "Qc2", "--prime", "31"],
     "(31, 11 + t) in Qc2\n(31, 24 + t) in Qc2\n(31, 27 + t) in Qc2\n",
     "(31, 11 + t) in Qc2\n(31, 24 + t) in Qc2\n"),
    ("galois", ["galois", "--field", "Q8", "--auto", "1", "--prime", "17", "--mode", "direct"],
     "(17, 2 + t) in Q8 -> (17, 8 + t) in Q8\n(17, 8 + t) in Q8 -> (17, 2 + t) in Q8\n"
     "(17, 9 + t) in Q8 -> (17, 15 + t) in Q8\n(17, 15 + t) in Q8 -> (17, 9 + t) in Q8\n",
     "(17, 2 + t) in Q8 -> (17, 9 + t) in Q8\n(17, 8 + t) in Q8 -> (17, 15 + t) in Q8\n"
     "(17, 9 + t) in Q8 -> (17, 2 + t) in Q8\n(17, 15 + t) in Q8 -> (17, 8 + t) in Q8\n"),
    ("pi", ["pi", "--ext", "S3c/Qc2", "--prime", "31"],
     "(31, 11 + t) in Qc2 in Pi(S3c/Qc2): yes\n(31, 24 + t) in Qc2 in Pi(S3c/Qc2): yes\n"
     "(31, 27 + t) in Qc2 in Pi(S3c/Qc2): yes\n",
     "(31, 11 + t) in Qc2 in Pi(S3c/Qc2): yes\n(31, 24 + t) in Qc2 in Pi(S3c/Qc2): no\n"
     "(31, 27 + t) in Qc2 in Pi(S3c/Qc2): yes\n"),
])
def test_query_checker_accepts_right_and_rejects_wrong(cfg, kind, argv, right, wrong):
    import checks

    argv = [argv[0], "--lattice", wl.LATTICE, *argv[1:]]
    assert checks.answer_ok(cfg, kind, argv, right, 0)
    assert not checks.answer_ok(cfg, kind, argv, right, 3)
    assert not checks.answer_ok(cfg, kind, argv, wrong, 0)
    try:
        assert not checks.answer_ok(cfg, kind, argv, _perturb(right), 0)
    except ValueError:
        pass  # an unparsable answer counts as a failure in child.py


# --------------------------------------------------------------------------
# the query stream


def test_query_stream_is_a_function_of_the_seed():
    a = wl.make_queries(7, 3)
    assert a == wl.make_queries(7, 3)
    assert a != wl.make_queries(8, 3)
    assert wl.make_queries(7, 5)[: len(a)] == a


def test_query_blocks_have_fixed_shapes_and_valid_primes():
    stream = wl.make_queries(11, 6)
    assert len(stream) == 6 * wl.BLOCK_SIZE
    want = collections.Counter([k for k, _ in wl.BLOCK_SLOTS] + ["bruteforce"])
    for b in range(6):
        block = stream[b * wl.BLOCK_SIZE:(b + 1) * wl.BLOCK_SIZE]
        assert collections.Counter(q["kind"] for q in block) == want
        for q in block:
            p = int(q["argv"][q["argv"].index("--prime") + 1])
            assert wl.is_prime(p)
            if q["kind"] == "bruteforce":
                field = q["argv"][q["argv"].index("--field") + 1]
                assert p in wl.fully_split_primes(field, wl.BRUTEFORCE_MIN, wl.BRUTEFORCE_MAX)
            else:
                assert 2 ** wl.BITS_LO <= p < 2 ** (wl.BITS_HI + 1)


def test_batch_seed_only_rotates_commands():
    for name, cmds in wl.BATCH.items():
        for seed in range(4):
            assert sorted(map(json.dumps, wl.batch_commands(name, seed))) == \
                sorted(map(json.dumps, cmds))


# --------------------------------------------------------------------------
# BENCHMARK.json agrees with what run.py reports


def test_benchmark_spec_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert max(bounds.values()) <= 0.25


def test_benchmark_json_stays_inside_the_format_limits():
    import re

    path = ROOT / "BENCHMARK.json"
    assert path.stat().st_size <= 64 * 1024
    spec = json.loads(path.read_text(encoding="utf-8"))
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 1 <= len(spec["paths"]) <= 16
    for p in spec["paths"]:
        assert re.fullmatch(r"[A-Za-z0-9_./-]{1,200}", p) and ".." not in p
    assert len(spec["command"]) <= 32 and all(len(c) <= 200 for c in spec["command"])
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    name = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    assert 2 <= len(spec["workloads"]) <= 8
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and name.fullmatch(w["name"])
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16 and 1 <= len(spec["per_layer"]) <= 128
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert name.fullmatch(m["name"]) and unit.fullmatch(m["unit"])
        assert m["better"] in ("higher", "lower")
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= \
        next(m for m in spec["end_to_end"] if m["name"] == "setup_s").items()
