"""Workload definitions: the batch command lists, the seeded query stream, goldens.

Nothing here imports the package under test.  Batch workloads have fixed
inputs so their answers can be compared with committed exact goldens; the
seed only rotates the order in which their commands run.  The ``queries``
stream is generated from the seed alone; the program sees only the argv
lists built here.
"""

from __future__ import annotations

import json
import pathlib
import random

LATTICE = "configs/demo.cfg"
GOLDENS = pathlib.Path(__file__).with_name("goldens.json")

# Why each workload exists is documented in README.md next to this file.
BATCH: dict[str, list[list[str]]] = {
    "qbase_scan": [
        ["density", "--lattice", LATTICE, "--expr", "Pi(Qc2/Q) & !Psi(Qi/Q)",
         "--max", "1000000", "--workers", "1"],
        ["frobenius", "--lattice", LATTICE, "--field", "S3c",
         "--max", "100000", "--workers", "1"],
    ],
    "wide_scan": [
        ["density", "--lattice", LATTICE, "--expr", "Psi(Qi/Q) | Psi(Qw/Q)",
         "--max", "30000000", "--workers", "2"],
        ["check", "inclusion-exclusion", "--lattice", LATTICE,
         "--first", "Psi(Qi/Q)", "--second", "Psi(Qs2/Q)",
         "--max", "10000000", "--workers", "2"],
    ],
    "relative_scan": [
        ["density", "--lattice", LATTICE, "--expr", "Psi(Q8/Qi)",
         "--max", "10000", "--workers", "1"],
        ["density", "--lattice", LATTICE, "--expr", "Psi(S3c/Qw)",
         "--max", "10000", "--workers", "1"],
    ],
}
WORKLOADS = (*BATCH, "queries")


def batch_commands(workload: str, seed: int) -> list[list[str]]:
    """The workload's commands, rotated by the seed."""
    cmds = BATCH[workload]
    k = seed % len(cmds)
    return cmds[k:] + cmds[:k]


def command_key(argv: list[str]) -> str:
    return json.dumps(argv)


def load_goldens() -> dict[str, dict]:
    data = json.loads(GOLDENS.read_text(encoding="utf-8"))
    return {command_key(g["argv"]): g for g in data["commands"]}


def batch_answer_ok(stdout: str, exit_code: int, golden: dict) -> bool:
    """A batch answer is correct iff exit code and stdout match the golden exactly.

    The golden stdout carries hits, total, skips by reason, histogram counts
    and the inclusion-exclusion verdict, so any change to one of them fails.
    """
    return exit_code == golden["exit"] and stdout == golden["stdout"]


# --------------------------------------------------------------------------
# the queries stream

BITS_LO, BITS_HI = 10, 61
BIT_STRATA = 6
# The bruteforce oracle's cost grows with p (about 1 s at p near 1000 on
# S3c); this band keeps each call within a few hundred ms, so five percent
# of the requests do not take a third of the time.
BRUTEFORCE_MIN, BRUTEFORCE_MAX = 200, 500
AUTOS = {"Q8": 4, "S3c": 6}
FAMILY_Q = "Qi/Q,Qs2/Q,Q8/Q,Qc2/Q,S3c/Q"

# One block: a fixed set of request shapes, so every block asks for the
# same kinds of work and only primes, automorphisms and order vary.
BLOCK_SLOTS = (
    ("split", "Qc2"), ("split", "Q8"), ("split", "S3c"),
    ("pi", "Qc2/Q"), ("pi", "Q8/Qi"), ("pi", "S3c/Qc2"), ("pi", "S3c/Qw"),
    ("psi", "Qc2/Q"), ("psi", "Q8/Q"), ("psi", "Q8/Qs2"), ("psi", "S3c/Q"),
    ("psi", "S3c/Qw"),
    ("fingerprint", FAMILY_Q), ("fingerprint", "Q8/Qi"), ("fingerprint", "S3c/Qc2"),
    ("galois", "Q8"), ("galois", "Q8"), ("galois", "S3c"), ("galois", "S3c"),
)
BLOCK_SIZE = len(BLOCK_SLOTS) + 1  # plus one bruteforce Galois request


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for n < 3.3e24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for q in small:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_prime(n):
        n += 1
    return n


def fully_split_primes(field: str, lo: int, hi: int) -> list[int]:
    """Primes lo < p <= hi, lo >= 3, over which Q8 or S3c splits completely."""
    out = []
    for p in range(lo + 1, hi + 1):
        if not is_prime(p):
            continue
        if field == "Q8" and p % 8 == 1:
            out.append(p)
        elif field == "S3c" and p % 3 == 1 and pow(2, (p - 1) // 3, p) == 1:
            out.append(p)
    return out


def _strata_draws(lo: float, hi: float, k: int, rng: random.Random):
    """Endless uniform draws from [lo, hi): each run of k draws hits each of k strata once."""
    width = (hi - lo) / k
    while True:
        order = list(range(k))
        rng.shuffle(order)
        for j in order:
            yield lo + (j + rng.random()) * width


def _pick(items: list, rng: random.Random):
    """Endless draws from items, one quartile of the list at a time."""
    for x in _strata_draws(0, len(items), 4, rng):
        yield items[int(x)]


def _argv(kind: str, target: str, p: int, auto: int = 0, mode: str = "direct") -> list[str]:
    head = [kind, "--lattice", LATTICE]
    if kind == "split":
        return head + ["--field", target, "--prime", str(p)]
    if kind in ("pi", "psi"):
        return head + ["--ext", target, "--prime", str(p)]
    if kind == "fingerprint":
        return head + ["--prime", str(p), "--family", target]
    return head + ["--field", target, "--auto", str(auto), "--prime", str(p),
                   "--mode", mode]


def make_queries(seed: int, blocks: int) -> list[dict]:
    """The request stream: ``blocks`` blocks of BLOCK_SIZE requests each.

    Each slot draws log-uniform primes: its bit length comes from one of
    BIT_STRATA equal strata of [BITS_LO, BITS_HI], visiting every stratum
    once per BIT_STRATA blocks.  The bruteforce request alternates between
    Q8 and S3c at a fully split prime in (BRUTEFORCE_MIN, BRUTEFORCE_MAX],
    one quartile of those primes at a time.  Stratifying keeps the work in a
    run nearly the same for every seed, while the inputs themselves differ.
    """
    rng = random.Random(seed)
    bits = [_strata_draws(BITS_LO, BITS_HI, BIT_STRATA, rng) for _ in BLOCK_SLOTS]
    brute = {f: _pick(fully_split_primes(f, BRUTEFORCE_MIN, BRUTEFORCE_MAX), rng)
             for f in AUTOS}
    out = []
    for b in range(blocks):
        block = []
        for (kind, target), draws in zip(BLOCK_SLOTS, bits):
            p = next_prime(int(2 ** next(draws)))
            auto = rng.randrange(AUTOS[target]) if kind == "galois" else 0
            block.append({"kind": kind, "argv": _argv(kind, target, p, auto)})
        field = ("Q8", "S3c")[b % 2]
        auto = rng.randrange(AUTOS[field])
        block.append({"kind": "bruteforce",
                      "argv": _argv("galois", field, next(brute[field]), auto, "bruteforce")})
        rng.shuffle(block)
        out.extend(block)
    return out
