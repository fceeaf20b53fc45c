import ast
import contextlib
import io
import os
import pathlib
import subprocess
import sys
import time

import pytest

from arithplane.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
LATTICE = str(ROOT / "configs" / "demo.cfg")
GOLDEN_HELP = pathlib.Path(__file__).parent / "data" / "cli_help.txt"
GOLDEN_CHECKS = pathlib.Path(__file__).parent / "data" / "cli_checks.txt"
# the environment of a fresh interpreter that imports this checkout's package
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])])}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------------- help


def test_help_golden(capsys):
    cmds = [[], ["split"], ["pi"], ["psi"], ["fingerprint"], ["density"],
            ["frobenius"], ["galois"], ["annihilator"], ["validate"], ["check"],
            ["check", "pullback"], ["check", "psi-product"],
            ["check", "pi-eq-psi"], ["check", "inclusion-exclusion"],
            ["check", "pi-intersection"], ["check", "norm-fiber"],
            ["check", "section-independence"]]
    sections = []
    for cmd in cmds:
        code, out, _ = run(capsys, *cmd, "--help")
        assert code == 0
        sections.append(out)
    assert ("\n" + "=" * 78 + "\n").join(sections) == GOLDEN_HELP.read_text()


def test_entry_point_installed():
    proc = subprocess.run(
        [sys.executable, "-m", "arithplane.cli", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "prime splitting" in proc.stdout


HUGE_BOUND_COMMANDS = [
    "density --expr Psi(Qi/Q)",
    "density --expr Psi(Q8/Qi)",
    "frobenius --field Qi",
    "check pullback --tower Q,Qi,Qs2,Q8",
    "check pi-intersection --fields Qi,Qs2",
    "annihilator --gamma 2,1 --field Qi",
]


@pytest.mark.parametrize("command", HUGE_BOUND_COMMANDS)
def test_bounds_past_int64_are_refused(command):
    # 10^400 is refused before any prime is walked, not run without end
    proc = subprocess.run(
        [sys.executable, "-m", "arithplane.cli", *command.split(),
         "--lattice", LATTICE, "--max", str(10**400)],
        capture_output=True, text=True, env=SRC_ENV, timeout=30)
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "arithplane: upper bound must be below 2^63\n"


def test_main_reuses_the_import_time_parser(capsys, monkeypatch):
    from arithplane import cli

    def rebuilt():
        raise AssertionError("main rebuilt the parser")

    monkeypatch.setattr(cli, "build_parser", rebuilt)
    code, out, _ = run(capsys, "split", "--lattice", LATTICE, "--field", "Qi",
                       "--prime", "5")
    assert code == 0 and out == "(5, 2 + t) in Qi\n(5, 3 + t) in Qi\n"
    code, out, _ = run(capsys, "check", "pi-eq-psi", "--lattice", LATTICE,
                       "--ext", "Qi/Q", "--max", "1000")
    assert code == 0 and "0/167 disagree" in out


# --------------------------------------------------------------- commands


def test_split_output(capsys):
    code, out, _ = run(capsys, "split", "--lattice", LATTICE,
                       "--field", "Qi", "--prime", "5")
    assert code == 0
    assert out == "(5, 2 + t) in Qi\n(5, 3 + t) in Qi\n"
    code, out, _ = run(capsys, "split", "--lattice", LATTICE,
                       "--field", "Qi", "--prime", "2")
    assert code == 0 and "ramified" in out


def test_split_unknown_field_exits_2(capsys):
    code, _, err = run(capsys, "split", "--lattice", LATTICE,
                       "--field", "NoSuch", "--prime", "5")
    assert code == 2 and "NoSuch" in err


def test_split_composite_prime_exits_2(capsys):
    code, _, err = run(capsys, "split", "--lattice", LATTICE,
                       "--field", "Qi", "--prime", "6")
    assert code == 2 and "6" in err
    # strong pseudoprime to the 12 Miller-Rabin bases, above 2^64
    psp = "3317044064679887385961981"
    code, _, err = run(capsys, "split", "--lattice", LATTICE,
                       "--field", "Qi", "--prime", psp)
    assert code == 2 and psp in err


def test_pi_ramified_exits_3(capsys):
    code, _, err = run(capsys, "pi", "--lattice", LATTICE,
                       "--ext", "Qi/Q", "--prime", "2")
    assert code == 3 and "refused" in err


def test_pi_psi_output(capsys):
    code, out, _ = run(capsys, "pi", "--lattice", LATTICE,
                       "--ext", "Qi/Q", "--prime", "13")
    assert code == 0 and out == "(13, t) in Q in Pi(Qi/Q): yes\n"
    code, out, _ = run(capsys, "psi", "--lattice", LATTICE,
                       "--ext", "Qc2/Q", "--prime", "7")
    assert code == 0 and out.endswith("no\n")


def test_fingerprint_output(capsys):
    code, out, _ = run(capsys, "fingerprint", "--lattice", LATTICE,
                       "--prime", "17", "--family", "Qi/Q,Qs2/Q,Qc2/Q")
    assert code == 0
    assert out == "(17, t) in Q: (Qi/Q=yes, Qs2/Q=yes, Qc2/Q=yes)\n"


def test_density_stdout_and_csv(capsys, tmp_path):
    csv = tmp_path / "trace.csv"
    code, out, _ = run(capsys, "density", "--lattice", LATTICE,
                       "--expr", "Psi(Qi/Q)", "--max", "100",
                       "--csv", str(csv))
    assert code == 0
    assert out == (
        "11/24 = 0.458333 over primes <= 100 (skipped: ramified=1)\n"
        "chebotarev prediction: 1/2\n"
    )
    assert csv.read_text() == "N,hits,total,density\n100,11,24,0.458333\n"


def test_density_prediction_unavailable(capsys, tmp_path):
    bare = tmp_path / "bare.cfg"
    bare.write_text("field K\n  poly -2 0 1\n")
    code, out, _ = run(capsys, "density", "--lattice", str(bare),
                       "--expr", "Pi(K/Q)", "--max", "100")
    assert code == 0
    assert "chebotarev prediction: unavailable" in out


def test_density_worker_parity(capsys, tmp_path):
    outputs = []
    for workers in ("1", "3"):
        csv = tmp_path / f"w{workers}.csv"
        code, out, _ = run(capsys, "density", "--lattice", LATTICE,
                           "--expr", "Pi(Qc2/Q)", "--max", "20000",
                           "--workers", workers, "--csv", str(csv))
        assert code == 0
        outputs.append((out, csv.read_bytes()))
    assert outputs[0] == outputs[1]


def test_frobenius_csv(capsys, tmp_path):
    csv = tmp_path / "frob.csv"
    code, out, _ = run(capsys, "frobenius", "--lattice", LATTICE,
                       "--field", "Qi", "--max", "100", "--csv", str(csv))
    assert code == 0 and out.startswith("Qi, primes <= 100:")
    assert csv.read_text() == (
        "pattern,count,total,frequency\n"
        "1+1,11,24,0.458333\n"
        "2,13,24,0.541667\n"
    )


@pytest.mark.parametrize("command", [
    ["density", "--expr", "Psi(Qi/Q)"],
    ["frobenius", "--field", "Qi"],
], ids=["density", "frobenius"])
def test_unwritable_csv_prints_nothing(capsys, tmp_path, command):
    # the CSV is written before any result line, so its failure leaves stdout empty
    csv = tmp_path / "missing" / "x.csv"
    code, out, err = run(capsys, *command, "--lattice", LATTICE, "--max", "100",
                         "--csv", str(csv))
    assert (code, out) == (2, "")
    assert err.startswith("arithplane: [Errno 2]") and not csv.parent.exists()


def test_galois_output_and_mode_parity(capsys):
    code, direct, _ = run(capsys, "galois", "--lattice", LATTICE,
                          "--field", "Qi", "--auto", "1", "--prime", "5")
    assert code == 0
    assert direct == (
        "(5, 2 + t) in Qi -> (5, 3 + t) in Qi\n"
        "(5, 3 + t) in Qi -> (5, 2 + t) in Qi\n"
    )
    code, brute, _ = run(capsys, "galois", "--lattice", LATTICE,
                         "--field", "Qi", "--auto", "1", "--prime", "5",
                         "--mode", "bruteforce")
    assert code == 0 and brute == direct


def test_galois_direct_splits_once_and_builds_no_element(capsys, monkeypatch):
    # the direct transport is one gcd over F_p per point: the command splits
    # p once, to list the points, and builds no residue-field element
    from arithplane import plane, spectrum
    from arithplane.finitefield import FqElement, residue_name
    from arithplane.lattice import load_lattice

    calls = {"split": 0, "elements": 0}
    split, init = spectrum.split_prime, FqElement.__init__

    def counting_split(*args):
        calls["split"] += 1
        return split(*args)

    def counting_init(obj, *args):
        calls["elements"] += 1
        init(obj, *args)

    monkeypatch.setattr(spectrum, "split_prime", counting_split)
    monkeypatch.setattr(plane, "split_prime", counting_split)
    monkeypatch.setattr(FqElement, "__init__", counting_init)
    code, out, _ = run(capsys, "galois", "--lattice", LATTICE, "--field", "S3c",
                       "--auto", "1", "--prime", "31", "--mode", "direct")
    assert code == 0 and len(out.splitlines()) == 6
    assert calls == {"split": 1, "elements": 0}
    # the counters do see both: the bruteforce mode splits more than once,
    # and a residue name is one element
    plane._fully_split.cache_clear()
    code, _, _ = run(capsys, "galois", "--lattice", LATTICE, "--field", "Qi",
                     "--auto", "1", "--prime", "13", "--mode", "bruteforce")
    assert code == 0 and calls["split"] > 2
    qi = load_lattice(pathlib.Path(LATTICE).read_text()).field("Qi")
    residue_name(spectrum.split_prime(qi, 13)[0], 1)
    assert calls["elements"] == 1


def test_galois_bruteforce_builds_each_profile_once(capsys, monkeypatch):
    # six points of S3c over 457, each moved by one search over the six: Q
    # and S3c are split once each beyond the command's own listing, and each
    # of the twelve (point, multiplier) profiles is built once
    from arithplane import modpoly, plane, spectrum

    calls = {"S3c": 0, "Q": 0, "factor": 0}
    split, factor = spectrum.split_prime, modpoly.factor

    def counting_split(fld, p):
        calls[fld.name] += 1
        return split(fld, p)

    def counting_factor(f, p):
        calls["factor"] += 1
        return factor(f, p)

    monkeypatch.setattr(spectrum, "split_prime", counting_split)
    monkeypatch.setattr(plane, "split_prime", counting_split)
    monkeypatch.setattr(modpoly, "factor", counting_factor)
    plane._fully_split.cache_clear()
    plane._fibre_profile.cache_clear()
    code, out, _ = run(capsys, "galois", "--lattice", LATTICE, "--field", "S3c",
                       "--auto", "1", "--prime", "457", "--mode", "bruteforce")
    assert code == 0 and len(out.splitlines()) == 6
    assert calls == {"S3c": 2, "Q": 1, "factor": 3}
    assert plane._fibre_profile.cache_info().misses == 12


def test_fibre_commands_build_no_element(capsys, monkeypatch):
    # the bruteforce Galois search, the norm census and the section check
    # run on element lanes: no residue-field element is built
    from arithplane.finitefield import FqElement

    init, built = FqElement.__init__, []

    def counting_init(obj, *args):
        built.append(1)
        init(obj, *args)

    monkeypatch.setattr(FqElement, "__init__", counting_init)
    commands = [
        "galois --field S3c --auto 1 --prime 457 --mode bruteforce",
        "galois --field Q8 --auto 3 --prime 953 --mode bruteforce",
        "check norm-fiber --ext Q8/Qi --max 200",
        "check norm-fiber --ext S3c/Qc2 --max 60",
        "check section-independence --ext Qi/Q --max 50 --trials 5",
        "check section-independence --ext S3c/Qw --max 30 --trials 2",
    ]
    for command in commands:
        code, _, _ = run(capsys, *command.split(), "--lattice", LATTICE)
        assert code == 0, command
    assert not built


# one command of every kind; none of them may load the finite-field oracles
EVERY_COMMAND_KIND = [
    "validate",
    "split --field Qi --prime 5",
    "pi --ext Qc2/Q --prime 31",
    "psi --ext Q8/Qi --prime 17",
    "fingerprint --prime 17 --family Qi/Q,Qs2/Q,Qc2/Q",
    "density --expr Psi(Qi/Q)&!Pi(Qc2/Q) --max 1000",
    "density --expr Psi(Q8/Qi) --max 1000",
    "frobenius --field S3c --max 1000",
    "galois --field Q8 --auto 1 --prime 17",
    "galois --field S3c --auto 1 --prime 457 --mode bruteforce",
    "annihilator --field Qi --gamma 2,1 --max 100",
    "check psi-product --fields Qi,Qs2,Q8 --max 1000",
    "check pi-eq-psi --ext Qc2/Q --max 1000",
    "check pullback --tower Q,Qi,Qs2,Q8 --max 100",
    "check inclusion-exclusion --first Psi(Qi/Q) --second Psi(Qs2/Q) --max 1000",
    "check pi-intersection --fields Qi,Qs2,Qc2 --max 1000",
    "check norm-fiber --ext Q8/Qi --max 200",
    "check section-independence --ext Qi/Q --max 20 --trials 2",
]


def test_program_never_loads_the_finite_field_oracles():
    # a fresh interpreter runs every command kind, then reports whether
    # arithplane.finitefield was imported along the way
    script = (
        "import contextlib, io, sys\n"
        "from arithplane.cli import main\n"
        f"for command in {EVERY_COMMAND_KIND!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        code = main(command.split() + ['--lattice', {LATTICE!r}])\n"
        "    assert code == 0, command\n"
        "print(sorted(m for m in sys.modules if m.startswith('arithplane')))\n"
        "print('arithplane.finitefield' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=SRC_ENV)
    assert proc.returncode == 0, proc.stderr
    modules, loaded = proc.stdout.splitlines()
    assert "arithplane.plane" in modules and "arithplane.density" in modules
    assert loaded == "False", modules


UNCALLED_BY_DESIGN = {
    "spectrum.in_pi_absolute": "oracle for in_pi over a non-Q base",
    "spectrum.in_psi_absolute": "oracle for in_psi over a non-Q base",
    "cli._Parser.error": "argparse calls it",
}


def test_program_holds_no_test_only_api():
    """Every top-level function and class, and every non-dunder method of a
    top-level class, in a program module (all of src/arithplane but the
    finitefield oracles) is referenced somewhere in src/arithplane, or is
    listed in UNCALLED_BY_DESIGN with its reason.  Only program modules
    count as callers: a helper that only the finitefield oracles use
    belongs in finitefield.

    The check works by name: any Name, attribute or import of the same
    name counts as a use, whatever it refers to.  So it gives a floor on
    dead code, not a proof that each definition is reached."""
    defined, used = set(), set()
    for path in sorted((ROOT / "src" / "arithplane").glob("*.py")):
        if path.stem == "finitefield":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add((f"{path.stem}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defined.update(
                    (f"{path.stem}.{node.name}.{item.name}", item.name)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("__"))
    assert set(UNCALLED_BY_DESIGN) <= {qual for qual, _ in defined}
    unreferenced = {qual for qual, name in defined if name not in used}
    unreferenced -= set(UNCALLED_BY_DESIGN)
    assert not unreferenced, sorted(unreferenced)


def test_galois_bruteforce_refusal(capsys):
    code, _, err = run(capsys, "galois", "--lattice", LATTICE,
                       "--field", "Qi", "--auto", "1", "--prime", "7",
                       "--mode", "bruteforce")
    assert code == 3 and "refused" in err


def test_galois_auto_out_of_range(capsys):
    code, _, err = run(capsys, "galois", "--lattice", LATTICE,
                       "--field", "Qi", "--auto", "5", "--prime", "5")
    assert code == 1 and "--auto" in err
    code, _, err = run(capsys, "galois", "--lattice", LATTICE,
                       "--field", "Qc2", "--auto", "0", "--prime", "5")
    assert code == 1 and "Qc2 declares no automorphisms" in err


def test_annihilator_output(capsys):
    code, out, _ = run(capsys, "annihilator", "--lattice", LATTICE,
                       "--field", "Qi", "--gamma", "2,1", "--max", "100")
    assert code == 0 and out == "(5, 2 + t) in Qi\n"
    code, out, _ = run(capsys, "annihilator", "--lattice", LATTICE,
                       "--field", "Qi", "--gamma", "1", "--max", "100")
    assert code == 0 and out == "no annihilated points with p <= 100\n"
    code, _, err = run(capsys, "annihilator", "--lattice", LATTICE,
                       "--field", "Qi", "--gamma", "x", "--max", "100")
    assert code == 1


def test_validate_output(capsys):
    code, out, _ = run(capsys, "validate", "--lattice", LATTICE)
    assert code == 0
    assert "field Qi: degree 2" in out
    assert "field S3c: degree 6" in out


def test_validate_desk_scale_nonic(capsys, tmp_path):
    # a nonic with one-digit coefficients and a 55-bit discriminant
    cfg = tmp_path / "nonic.cfg"
    cfg.write_text("field A\n  poly -1 0 5 1 6 6 -6 -9 0 1\n")
    code, out, _ = run(capsys, "validate", "--lattice", str(cfg))
    assert code == 0
    assert "field A: degree 9, disc 23293515660770557, certificate irreducible mod 79\n" in out


def test_validate_bad_config_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("field K\n  poly 1 1\nfield K\n  poly -2 0 1\n")
    code, _, err = run(capsys, "validate", "--lattice", str(bad))
    assert code == 2 and "K" in err


def test_validate_unfactorable_discriminant_exits_2(capsys, tmp_path):
    # disc = 4 * q1 * q2 with both primes near 10^16: Pollard-Brent would need
    # about 10^8 steps, so validate gives up at its step budget and names
    # the cofactor instead of running for minutes
    q1, q2 = 10000000000000061, 10000000000000069
    cfg = tmp_path / "big.cfg"
    cfg.write_text(f"field Big\n  poly {-q1 * q2} 0 1\n")
    start = time.monotonic()
    code, _, err = run(capsys, "validate", "--lattice", str(cfg))
    assert time.monotonic() - start < 60
    assert code == 2 and str(q1 * q2) in err


def test_missing_lattice_file_exits_2(capsys):
    code, _, err = run(capsys, "split", "--lattice", "nope.cfg",
                       "--field", "Qi", "--prime", "5")
    assert code == 2 and "nope.cfg" in err


# --------------------------------------------------------------- checkers


def test_check_pullback_cli(capsys):
    code, out, _ = run(capsys, "check", "pullback", "--lattice", LATTICE,
                       "--tower", "Q,Qi,Qs2,Q8", "--max", "100")
    assert code == 0
    assert "Pi: 7 discrepancies at p in [3, 11, 19, 43, 59, 67, 83]" in out


def test_check_psi_product_cli(capsys):
    code, out, _ = run(capsys, "check", "psi-product", "--lattice", LATTICE,
                       "--fields", "Qi,Qs2,Q8", "--max", "1000")
    assert code == 0 and "OK" in out


def test_check_pi_eq_psi_cli(capsys):
    code, out, _ = run(capsys, "check", "pi-eq-psi", "--lattice", LATTICE,
                       "--ext", "Qi/Q", "--max", "1000")
    assert code == 0 and "0/167 disagree" in out


def test_check_inclusion_exclusion_cli(capsys):
    code, out, _ = run(capsys, "check", "inclusion-exclusion",
                       "--lattice", LATTICE, "--first", "Psi(Qi/Q)",
                       "--second", "Psi(Qs2/Q)", "--max", "1000")
    assert code == 0 and "exact" in out


def test_check_pi_intersection_cli(capsys):
    code, out, _ = run(capsys, "check", "pi-intersection", "--lattice", LATTICE,
                       "--fields", "Qi,Qs2", "--max", "1000")
    assert code == 0 and out == "Pi(Qi/Q) & Pi(Qs2/Q): smallest witness 17\n"


def test_check_norm_fiber_cli(capsys):
    code, out, _ = run(capsys, "check", "norm-fiber", "--lattice", LATTICE,
                       "--ext", "Qi/Q", "--max", "100")
    assert code == 0 and "all fibres match" in out


def test_check_section_independence_cli(capsys):
    code, out, _ = run(capsys, "check", "section-independence",
                       "--lattice", LATTICE, "--ext", "Qi/Q", "--max", "20",
                       "--trials", "2", "--box", "2")
    assert code == 0 and "independent" in out


# The README's check examples (section-independence runs at smaller sizes below)
# and the psi-product and pi-eq-psi squares at bounds that put 0, 1, 2 or many
# points below them, over Q, over quadratic and cubic bases, and where the
# square is violated or undeclared.  Relative bases stop at 10^4 to keep the
# test short.
README_CHECKS = [
    "psi-product --fields Qi,Qs2,Q8 --max 10000",
    "pi-eq-psi --ext Qi/Q --max 10000",
    "pullback --tower Q,Qi,Qs2,Q8 --max 1000",
    "inclusion-exclusion --first Psi(Qi/Q) --second Psi(Qs2/Q) --max 100000",
    "pi-intersection --fields Qi,Qs2,Qc2 --max 1000",
    "norm-fiber --ext Qi/Q --max 1000",
]
# Pullback squares on the points of the cubic Qc2 (the README's second
# example) and, with its sides swapped, of Qw (Pi then has no discrepancy
# and Psi has 86), the README's first square with its sides swapped, and two
# squares over a base other than Q.
PULLBACK_CHECKS = [
    "pullback --tower Q,Qc2,Qw,S3c --max 1000",
    "pullback --tower Q,Qw,Qc2,S3c --max 1000",
    "pullback --tower Q,Qs2,Qi,Q8 --max 1000",
    "pullback --tower Qw,S3c,S3c,S3c --max 300",
    "pullback --tower Qc2,S3c,S3c,S3c --max 300",
]
CHECK_BOUNDS = (1, 2, 3, 12, 50, 97, 100, 1000, 10**4)
QBASE_CHECKS = [
    "psi-product --fields Qi,Qs2,Q8",
    "psi-product --fields Qi,Qi,Q8",
    "psi-product --fields Qc2,Qw,S3c",
    "psi-product --fields Qi,Qw,S3c",
    "pi-eq-psi --ext Qc2/Q",
    "pi-eq-psi --ext Qi/Q",
    "pi-eq-psi --ext Q/Q",
]
RELATIVE_CHECKS = [
    "psi-product --fields Q8,Q8,Q8 --base Qi",
    "psi-product --fields Qi,Qi,Q8 --base Qi",
    "pi-eq-psi --ext Q8/Qi",
    "pi-eq-psi --ext S3c/Qw",
    "pi-eq-psi --ext S3c/Qc2",
    "pi-eq-psi --ext Qi/Qi",
    "pi-eq-psi --ext Qi/Qw",
]
CHECK_COMMANDS = README_CHECKS + PULLBACK_CHECKS + [
    f"{args} --max {n}"
    for args, bounds in ((QBASE_CHECKS, CHECK_BOUNDS + (10**5,)),
                         (RELATIVE_CHECKS, CHECK_BOUNDS))
    for args in args for n in bounds
]


# The fibre maps through the CLI: the bruteforce Galois search for every
# automorphism of Qi and Q8 at each fully split p <= 1000 and of S3c at each
# fully split p <= 500, its refusals (a p that is not fully split, p above
# the bound, a ramified p), the norm-fibre census of every demo extension,
# and section independence over absolute, relative and cubic bases at two
# seeds.
DEMO_EXTENSIONS = ("Qi/Q", "Qs2/Q", "Q8/Q", "Qc2/Q", "Qw/Q", "S3c/Q",
                   "Q8/Qi", "Q8/Qs2", "S3c/Qc2", "S3c/Qw")
CUBIC_EXTENSIONS = ("Qc2/Q", "S3c/Q", "S3c/Qc2", "S3c/Qw")
GALOIS_REFUSALS = [
    "galois --field Qi --auto 1 --prime 7 --mode bruteforce",
    "galois --field Qi --auto 1 --prime 1009 --mode bruteforce",
    "galois --field Qi --auto 1 --prime 2 --mode bruteforce",
    "galois --field Q8 --auto 2 --prime 3 --mode bruteforce",
    "galois --field S3c --auto 1 --prime 3 --mode bruteforce",
]
SECTION_CHECKS = [
    "section-independence --ext Qi/Q --max 100 --trials 10",
    "section-independence --ext Q8/Qi --max 60 --trials 5",
    "section-independence --ext S3c/Qc2 --max 40 --trials 3",
]


def fully_split_primes(name: str, bound: int) -> list[int]:
    from arithplane import spectrum as sp
    from arithplane.lattice import load_lattice
    from arithplane.sieve import stream_primes

    cfg = load_lattice(pathlib.Path(LATTICE).read_text())
    ext = cfg.extension((name, "Q"))
    return [p for p in stream_primes(bound) if not ext.is_excluded(p)
            and sp.in_psi(ext, sp.split_prime(cfg.field("Q"), p)[0])]


def fibre_commands() -> list[str]:
    autos = {"Qi": 2, "Q8": 4, "S3c": 6}
    galois = [f"galois --field {name} --auto {i} --prime {p} --mode bruteforce"
              for name, bound in (("Qi", 1000), ("Q8", 1000), ("S3c", 500))
              for p in fully_split_primes(name, bound) for i in range(autos[name])]
    # fibres of 61^3 elements stop the cubic censuses at --max 200, so they
    # run to 60 as well
    norm = [f"check norm-fiber --ext {ext} --max {n}"
            for n, exts in ((200, DEMO_EXTENSIONS), (60, CUBIC_EXTENSIONS)) for ext in exts]
    sections = [f"check {c} --seed {s}" for c in SECTION_CHECKS for s in (0, 7)]
    return galois + GALOIS_REFUSALS + norm + sections


def transcript(commands: list[str]) -> str:
    """Each command, its stdout, stderr and exit code."""
    blocks = []
    for command in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*command.split(), "--lattice", LATTICE])
        blocks.append(f"$ arithplane {command}\n{out.getvalue()}{err.getvalue()}"
                      f"[exit {code}]\n")
    return "".join(blocks)


def test_check_transcript_golden():
    commands = [f"check {c}" for c in CHECK_COMMANDS] + fibre_commands()
    assert transcript(commands) == GOLDEN_CHECKS.read_text()


# ------------------------------------------------------------ usage errors


def test_usage_errors_exit_1(capsys):
    cases = [
        (),
        ("nonsense",),
        ("split", "--lattice", LATTICE, "--field", "Qi"),
        ("check",),
        ("check", "pullback", "--lattice", LATTICE, "--tower", "Q,Qi",
         "--max", "100"),
        ("check", "psi-product", "--lattice", LATTICE, "--fields", "Qi",
         "--max", "100"),
        ("density", "--lattice", LATTICE, "--expr", "Psi(Qi/Q)", "--max", "10"),
        ("density", "--lattice", LATTICE, "--expr", "Psi(Qi/Q)", "--max", "1000",
         "--workers", "0"),
        ("fingerprint", "--lattice", LATTICE, "--prime", "5", "--family", ","),
        ("fingerprint", "--lattice", LATTICE, "--prime", "5", "--family",
         "Qi/Q,Q8/Qi"),
        ("galois", "--lattice", LATTICE, "--field", "Qc2", "--auto", "0",
         "--prime", "5"),
        ("check", "section-independence", "--lattice", LATTICE, "--ext", "Qi/Q",
         "--max", "20", "--box", "-1"),
        ("check", "section-independence", "--lattice", LATTICE, "--ext", "Qi/Q",
         "--max", "20", "--trials", "0"),
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == 1, argv
        assert err, argv


def test_expression_error_exits_2(capsys):
    code, _, err = run(capsys, "density", "--lattice", LATTICE,
                       "--expr", "Psi(Qi/Q", "--max", "1000")
    assert code == 2 and "position" in err
    # '²' is a digit to str.isdigit but not to int()
    code, out, err = run(capsys, "density", "--lattice", LATTICE,
                         "--expr", "{²}", "--max", "1000")
    assert (code, out) == (2, "")
    assert err == "arithplane: position 1: unexpected character '²'\n"
