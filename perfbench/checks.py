"""Correctness checks for ``queries`` answers, run outside the timed window.

- ``split``: the printed factors are re-expanded mod p and compared with
  f_K, and each is tested for irreducibility, with polynomial arithmetic
  written here rather than taken from the package.
- ``pi``/``psi``/``fingerprint``: each verdict is recomputed with the
  package's slow oracles ``in_pi_absolute``/``in_psi_absolute``.
- ``galois``: the printed points must be a verified splitting, the images a
  degree-preserving permutation of them, and each image q' must satisfy the
  defining property g_q(σ(α)) ≡ 0 mod (p, g_q'), again with arithmetic
  written here.  A bruteforce answer must also equal the direct one.
"""

from __future__ import annotations

import re
from fractions import Fraction

from arithplane import plane
from arithplane import spectrum as sp

_POINT = re.compile(r"\((\d+), ([^)]*)\) in (\w+)(, ramified)?")
_TERM = re.compile(r"(?:(\d+)\*)?t(?:\^(\d+))?")


# --------------------------------------------------------------------------
# polynomials over F_p: lists of ints, constant first, no trailing zeros


def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim([c % p for c in out])


def _rem(a: list[int], m: list[int], p: int) -> list[int]:
    """a mod m for monic m."""
    a = [c % p for c in a]
    n = len(m) - 1
    for k in range(len(a) - 1, n - 1, -1):
        c = a[k]
        if c:
            for j in range(n + 1):
                a[k - n + j] = (a[k - n + j] - c * m[j]) % p
    return _trim(a[:n])


def _powmod(a: list[int], e: int, m: list[int], p: int) -> list[int]:
    out, base = [1], _rem(a, m, p)
    while e:
        if e & 1:
            out = _rem(_mul(out, base, p), m, p)
        base = _rem(_mul(base, base, p), m, p)
        e >>= 1
    return out


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        inv = pow(b[-1], -1, p)
        b = [c * inv % p for c in b]
        a, b = b, _rem(a, b, p)
    return a


def _sub(a: list[int], b: list[int], p: int) -> list[int]:
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trim([(x - y) % p for x, y in zip(a, b)])


def _irreducible(g: list[int], p: int) -> bool:
    """Rabin's test: x^(p^d) = x mod g, and no factor of degree d/r for prime r | d."""
    d = len(g) - 1
    x = [0, 1]
    frob = [x]  # frob[k] = x^(p^k) mod g
    for _ in range(d):
        frob.append(_powmod(frob[-1], p, g, p))
    if _sub(frob[d], _rem(x, g, p), p):
        return False
    for r in (q for q in range(2, d + 1) if d % q == 0 and all(q % s for s in range(2, q))):
        if len(_gcd(g, _sub(frob[d // r], x, p), p)) > 1:
            return False
    return True


def _mod_p(coeffs, p: int) -> list[int]:
    out = []
    for c in coeffs:
        c = Fraction(c)
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    return _trim(out)


# --------------------------------------------------------------------------
# parsing printed points


def parse_point(text: str) -> tuple[int, list[int], str, bool]:
    """(p, local factor coefficients, field, ramified) from ``str(SplitPrime)``."""
    m = _POINT.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"not a point: {text!r}")
    p, poly, field, ram = int(m.group(1)), m.group(2), m.group(3), bool(m.group(4))
    coeffs: dict[int, int] = {}
    for term in poly.split(" + "):
        t = _TERM.fullmatch(term)
        if t is None:
            coeffs[0] = int(term)
        else:
            power = int(t.group(2)) if t.group(2) else 1
            coeffs[power] = int(t.group(1)) if t.group(1) else 1
    out = [0] * (max(coeffs) + 1)
    for k, c in coeffs.items():
        out[k] = c
    return p, out, field, ram


def splitting_ok(points: list[tuple], fpoly: list[int], p: int, field: str) -> bool:
    """The points over p are distinct monic irreducible factors multiplying to f mod p."""
    prod = [1]
    seen = set()
    for q, g, name, ram in points:
        if q != p or name != field or ram or g[-1] != 1 or len(g) < 2:
            return False
        if tuple(g) in seen or not _irreducible(g, p):
            return False
        seen.add(tuple(g))
        prod = _mul(prod, g, p)
    return prod == _mod_p(fpoly, p)


def _maps_to(g_src: list[int], h_sigma: list[int], g_dst: list[int], p: int) -> bool:
    """Does g_src vanish at σ(α) in F_p[t]/(g_dst)?"""
    r = _rem(h_sigma, g_dst, p)
    acc: list[int] = []
    for c in reversed(g_src):
        acc = _rem(_mul(acc, r, p), g_dst, p) or [0]
        acc = _trim([(acc[0] + c) % p] + acc[1:])
    return not acc


# --------------------------------------------------------------------------
# per-kind checks


def _opt(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def answer_ok(cfg, kind: str, argv: list[str], stdout: str, exit_code: int) -> bool:
    if exit_code != 0:
        return False
    p = int(_opt(argv, "--prime"))
    lines = stdout.splitlines()
    if kind == "split":
        field = _opt(argv, "--field")
        points = [parse_point(line) for line in lines]
        return splitting_ok(points, list(cfg.field(field).poly.coeffs), p, field)
    if kind in ("pi", "psi"):
        ext = cfg.extension(_opt(argv, "--ext"))
        oracle = sp.in_pi_absolute if kind == "pi" else sp.in_psi_absolute
        label = "Pi" if kind == "pi" else "Psi"
        want = [
            f"{pl} in {label}({ext.name}): {'yes' if oracle(ext, pl) else 'no'}"
            for pl in sp.split_prime(ext.base, p)
        ]
        return lines == want
    if kind == "fingerprint":
        exts = [cfg.extension(s) for s in _opt(argv, "--family").split(",")]
        want = []
        for pl in sp.split_prime(exts[0].base, p):
            cells = ", ".join(
                f"{e.name}={'yes' if sp.in_pi_absolute(e, pl) else 'no'}" for e in exts
            )
            want.append(f"{pl}: ({cells})")
        return lines == want
    # galois, direct or bruteforce
    field = _opt(argv, "--field")
    sigma = cfg.autos(field)[int(_opt(argv, "--auto"))]
    pairs = [line.split(" -> ") for line in lines]
    if any(len(pair) != 2 for pair in pairs):
        return False
    src = [parse_point(a) for a, _ in pairs]
    dst = [parse_point(b) for _, b in pairs]
    if not splitting_ok(src, list(cfg.field(field).poly.coeffs), p, field):
        return False
    if sorted(tuple(g) for _, g, _, _ in dst) != sorted(tuple(g) for _, g, _, _ in src):
        return False
    h = _mod_p(sigma.h.coeffs, p)
    for (_, g, _, _), (_, g_img, _, _) in zip(src, dst):
        if len(g) != len(g_img):
            return False
        hits = [cand for _, cand, _, _ in src if _maps_to(g, h, cand, p)]
        if hits != [g_img]:
            return False
    if _opt(argv, "--mode") == "bruteforce":
        want = [
            f"{q} -> {plane.galois_image(cfg, sigma, q, 'direct')}"
            for q in sp.split_prime(cfg.field(field), p)
        ]
        return lines == want
    return True
