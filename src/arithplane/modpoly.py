"""Low-level polynomial kernels over a prime field F_p.

A polynomial is a plain list of ints in [0, p), constant term first, with no
trailing zeros; [] is the zero polynomial.  The prime p travels as an
explicit argument — these are free functions, not methods, so the hot
loops pay no object overhead.  Nothing here validates primality of p; that
is the caller's contract.

Residues mod a monic f are multiplied in one place: one general product
(:func:`_mul_red`), with a square and a multiply-by-x beside it, each
folding degrees n..2n-2 back with the precomputed reduction row -f[:n].
:func:`powmod` is the one ladder on them, and :func:`xpow_mod`,
:func:`compose_mod` and ``finitefield.FqField`` all run on these kernels.
The other algorithms are one distinct-degree factorization (:func:`ddf`,
behind :func:`is_irreducible` and :func:`factor`), and complete
factorization: squarefree decomposition, DDF, then seeded Cantor-Zassenhaus
equal-degree splitting (Cantor-Zassenhaus 1981; von zur Gathen-Shoup 1992).

The prime-lane kernels at the end answer one question about one monic
integer f for a whole array of primes at once, one prime per numpy lane
(the many-primes approach of Kedlaya-Sutherland, ANTS VIII 2008), on
``_LaneRing``, the residues mod f with x^p mod f (``_LaneRing.xpow``) and
deg gcd(x^q - x, f) (``_LaneRing.fixed_count``): the root count
(:func:`lane_root_count`), the factor degrees (:func:`lane_factor_degrees`)
and, for a Galois f, the Frobenius class of p, the one whose product of
den*x^p - num over its maps num/den vanishes mod f
(:func:`lane_frobenius_classes`).  The Q-base density and Frobenius scans
run the first two, and the relative-base scans and the Frobenius scan of a
Galois field the third; the scalar :func:`xpow_mod` and :func:`root_count`,
and ``finitefield.degree_pattern``, are their oracles.  The ring kernels run
``LANE_BLOCK`` primes at a time, which bounds only the ring's temporaries.
A quadratic needs no ring: its root count at p is fixed by p mod 4|D|, D
its discriminant, so :func:`lane_root_count` and
:func:`lane_factor_degrees` take Euler's criterion at one prime of each
residue class present and broadcast it over the whole array at once.  A
binomial x^n - a needs no ring either: by the n-th power residue criterion
its root count at p not dividing a is d = gcd(n, p - 1) or 0, as
a^((p - 1)/d) is 1 mod p or not, one power per prime with d > 1.  A
cubic's factor degrees follow from its root count, so
:func:`lane_factor_degrees` of a binomial cubic builds no ring either.  A
lane product adds its row products unreduced and reduces each row once, so
``_LaneRing`` keeps int64 lanes while (2n - 1)(p - 1)^2 < 2^63 for its
degree n and every p, and runs the same code on Python integers
(dtype=object) beyond.
"""

from __future__ import annotations

import functools
import random

import numpy as np


def trim(a: list[int]) -> list[int]:
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    del a[n:]
    return a


def deg(a: list[int]) -> int:
    return len(a) - 1


def add(a: list[int], b: list[int], p: int) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return trim(out)


def sub(a: list[int], b: list[int], p: int) -> list[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return trim(out)


def mul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return trim([c % p for c in out])


def monic(a: list[int], p: int) -> list[int]:
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], -1, p)
    return [(c * inv) % p for c in a]


def divmod_p(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by b (b nonzero)."""
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    db = deg(b)
    inv = pow(b[-1], -1, p)
    rem = list(a)
    quo = [0] * max(len(a) - db, 0)
    for k in range(len(rem) - 1 - db, -1, -1):
        q = (rem[k + db] * inv) % p
        if q:
            quo[k] = q
            for i in range(db + 1):
                rem[k + i] = (rem[k + i] - q * b[i]) % p
    del rem[db:]
    return trim(quo), trim(rem)


def rem_p(a: list[int], b: list[int], p: int) -> list[int]:
    return divmod_p(a, b, p)[1]


def gcd_p(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd."""
    a, b = list(a), list(b)
    while b:
        a, b = b, rem_p(a, b, p)
    return monic(a, p)


def _sqr_red(a: list[int], red: list[int], n: int, p: int) -> list[int]:
    # full square, then fold degrees n..2n-2 down with the reduction row
    out = [0] * (2 * n - 1)
    for i, ca in enumerate(a):
        if ca:
            out[2 * i] += ca * ca
            for j in range(i + 1, n):
                if a[j]:
                    out[i + j] += 2 * ca * a[j]
    for k in range(2 * n - 2, n - 1, -1):
        c = out[k] % p
        if c:
            base = k - n
            for j in range(n):
                out[base + j] += c * red[j]
        out[k] = 0
    return [c % p for c in out[:n]]


def _mul_red(a: list[int], b: list[int], red: list[int], n: int, p: int) -> list[int]:
    out = [0] * (2 * n - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    for k in range(2 * n - 2, n - 1, -1):
        c = out[k] % p
        if c:
            base = k - n
            for j in range(n):
                out[base + j] += c * red[j]
        out[k] = 0
    return [c % p for c in out[:n]]


def _shift_red(a: list[int], red: list[int], n: int, p: int) -> list[int]:
    # multiply by x: shift up one, fold the spilled coefficient back
    top = a[n - 1]
    out = [0] + a[: n - 1]
    if top:
        for j in range(n):
            out[j] = (out[j] + top * red[j]) % p
    return out


def powmod(a: list[int], e: int, fmod: list[int], p: int) -> list[int]:
    """a^e mod fmod for monic fmod, left to right over the bits of e.

    The reduction row (-fmod[:n]) is fixed once; every step squares with
    :func:`_sqr_red` and multiplies with :func:`_shift_red` when a is x,
    with :func:`_mul_red` otherwise, so the ladder takes no inverse.  The
    base is reduced only when it is longer than fmod.
    """
    n = deg(fmod)
    if n <= 0:
        raise ValueError("modulus must have degree >= 1")
    if len(a) > n:
        a = rem_p(a, fmod, p)
    if e == 0:
        return [1 % p]
    if not a:
        return []
    red = [(-c) % p for c in fmod[:n]]
    is_x = a == [0, 1]
    cur = a + [0] * (n - len(a))
    for bit in bin(e)[3:]:
        cur = _sqr_red(cur, red, n, p)
        if bit == "1":
            cur = _shift_red(cur, red, n, p) if is_x else _mul_red(cur, a, red, n, p)
    return trim(cur)


def xpow_mod(e: int, fmod: list[int], p: int) -> list[int]:
    """x^e mod fmod for monic fmod."""
    return powmod([0, 1], e, fmod, p)


def root_count(f: list[int], p: int) -> int:
    """Number of distinct roots of f in F_p: deg gcd(x^p - x, f)."""
    fm = monic(f, p)
    if deg(fm) < 1:
        return 0
    h = xpow_mod(p, fm, p)
    g = gcd_p(sub(h, [0, 1], p), fm, p)
    return deg(g)


def derivative(a: list[int], p: int) -> list[int]:
    return trim([(i * c) % p for i, c in enumerate(a)][1:])


def compose_mod(a: list[int], b: list[int], fmod: list[int], p: int) -> list[int]:
    """a(b) mod fmod for monic fmod, by Horner's rule on the reduction row
    (everything is 0 mod a constant fmod)."""
    n = deg(fmod)
    if n == 0:
        return []
    if len(b) > n:
        b = rem_p(b, fmod, p)
    red = [(-c) % p for c in fmod[:n]]
    acc: list[int] = []
    for c in reversed(a):
        acc = _mul_red(acc, b, red, n, p)
        acc[0] = (acc[0] + c) % p
    return trim(acc)


def ddf(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Distinct-degree factorization of squarefree f mod p.

    Returns (G_d, d) pairs with d ascending, where G_d is the monic product
    of all irreducible factors of degree d; degrees with no factor are
    left out.  Round d takes gcd(x^(p^d) - x, v) with the lower-degree parts
    already divided out of v, so x^(p^d) is only ever reduced mod v.
    """
    v = monic(f, p)
    n = deg(v)
    out: list[tuple[list[int], int]] = []
    d = 1
    if n >= 2:
        h = xpow_mod(p, v, p)
    while n >= 2 * d:
        g = gcd_p(sub(h, [0, 1], p), v, p)
        if deg(g) > 0:
            out.append((g, d))
            v = divmod_p(v, g, p)[0]
            n = deg(v)
            if n == 0:
                break
            h = rem_p(h, v, p)
        d += 1
        if n >= 2 * d:
            h = powmod(h, p, v, p)
    if n > 0:
        out.append((v, n))
    return out


def factor(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Monic irreducible factors of f mod p with multiplicities.

    Squarefree decomposition, then :func:`ddf`, then seeded Cantor-Zassenhaus
    equal-degree splitting (the trace variant in characteristic 2).  The
    factors come out sorted by (degree, coefficient tuple); the leading
    coefficient of f is dropped.  The factorization is unique, so the seed
    fixes only the running time, never the answer.
    """
    fm = monic(f, p)
    if deg(fm) < 1:
        raise ValueError("factorization needs degree >= 1")
    rng = random.Random(hash((p, *fm)))
    out = [
        (g, mult)
        for sq, mult in _squarefree(fm, p)
        for part, d in ddf(sq, p)
        for g in _edf(part, d, p, rng)
    ]
    out.sort(key=lambda gm: (deg(gm[0]), gm[0]))
    return out


def _squarefree(f: list[int], p: int) -> list[tuple[list[int], int]]:
    """Squarefree decomposition of monic f: (squarefree part, multiplicity).

    Yun's algorithm; what is left once the derivative vanishes is a p-th
    power, whose p-th root over F_p keeps every p-th coefficient.
    """
    out = []
    c = gcd_p(f, derivative(f, p), p)
    w = divmod_p(f, c, p)[0]
    i = 1
    while deg(w) > 0:
        y = gcd_p(w, c, p)
        fac = divmod_p(w, y, p)[0]
        if deg(fac) > 0:
            out.append((fac, i))
        w = y
        c = divmod_p(c, y, p)[0]
        i += 1
    if deg(c) > 0:
        out.extend((g, mult * p) for g, mult in _squarefree(c[::p], p))
    return out


def _edf(g: list[int], d: int, p: int, rng: random.Random) -> list[list[int]]:
    """Split g, a monic product of distinct degree-d irreducibles, into them.

    A random r of degree < deg g is, in each factor's residue field F_(p^d),
    a square or not (odd p: test r^((p^d-1)/2) = 1), or has trace 0 or 1
    (p = 2: r + r^2 + ... + r^(2^(d-1))); the gcd with g collects the
    factors on one side.
    """
    n = deg(g)
    if n == d:
        return [g]
    while True:
        r = trim([rng.randrange(p) for _ in range(n)])
        if deg(r) < 1:
            continue
        if p == 2:
            t = acc = r
            for _ in range(d - 1):
                t = powmod(t, 2, g, p)
                acc = add(acc, t, p)
        else:
            acc = sub(powmod(r, (p**d - 1) // 2, g, p), [1], p)
        s = gcd_p(acc, g, p)
        if 0 < deg(s) < n:
            return _edf(s, d, p, rng) + _edf(divmod_p(g, s, p)[0], d, p, rng)


def is_irreducible(f: list[int], p: int) -> bool:
    """Irreducibility over F_p: DDF finds f itself as its only part.

    A reducible f (repeated factors included) has an irreducible factor of
    degree <= n/2, which DDF splits off as a part of its own.
    """
    n = deg(f)
    return n >= 1 and ddf(f, p) == [(monic(f, p), n)]


def linsolve(matrix: list[list[int]], rhs: list[int], p: int) -> list[int]:
    """Solve matrix @ x = rhs over F_p; requires a consistent system with
    unique solution on the pivoted columns (free columns get 0)."""
    rows = [list(r) + [b % p] for r, b in zip(matrix, rhs)]
    nrows, ncols = len(rows), len(matrix[0])
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], -1, p)
        rows[r] = [(v * inv) % p for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if rows[i][ncols] % p:
            raise ValueError("inconsistent linear system")
    out = [0] * ncols
    for i, c in enumerate(pivots):
        out[c] = rows[i][ncols]
    return out


# ---------------------------------------------------------------------------
# prime lanes: one monic integer polynomial reduced mod many primes at once
# ---------------------------------------------------------------------------

LANE_INT64_MAX = 3037000499
"""The largest p with p^2 + p < 2^63: ``lanes`` and ``lane_mod`` keep int64
lanes up to it, where a product of two residues plus a residue fits.  A
``_LaneRing`` of degree n sums up to 2n - 1 products in a row, so it sets its
own, lower bound."""

LANE_BLOCK = 1024
"""Lanes per ring kernel call: a ``_LaneRing`` temporary of 2n - 1 rows stays
near 100 KB up to degree 8, so a scan's memory does not grow with the primes
in its range.  The quadratic and binomial paths of :func:`lane_root_count`
are not cut into blocks; their arrays hold one value per prime."""


def lanes(primes: np.ndarray) -> np.ndarray:
    """The primes as lanes: int64 while every p <= LANE_INT64_MAX, else
    dtype=object, on which the same kernels run with Python integers."""
    fits = primes.size == 0 or int(primes.max()) <= LANE_INT64_MAX
    return primes.astype(np.int64 if fits else object, copy=False)


def lane_mod(c: int, P: np.ndarray) -> np.ndarray:
    """c mod p in every lane, for an int c of any size."""
    if P.dtype == object or abs(c) < 1 << 62:
        return np.remainder(c, P)
    acc = np.zeros_like(P)  # Horner over 31-bit limbs: acc < p < 2^32
    m = abs(c)
    for shift in range(m.bit_length() // 31 * 31, -1, -31):
        acc = ((acc << 31) + ((m >> shift) & 0x7FFFFFFF)) % P
    return acc if c > 0 else (-acc) % P


def _lift(coeffs, P: np.ndarray) -> np.ndarray:
    """Integer coefficients mod p, as a (len(coeffs), L) array of lanes."""
    return np.array([lane_mod(c, P) for c in coeffs]).reshape(len(coeffs), len(P))


def _lane_powmod(a: np.ndarray, e: np.ndarray, P: np.ndarray) -> np.ndarray:
    """a^e mod p per lane, left to right over the largest bit length of e."""
    r = np.ones_like(P)
    for b in range(int(e.max()).bit_length() - 1 if e.size else -1, -1, -1):
        r = r * r % P
        r = np.where(((e >> b) & 1).astype(bool), r * a % P, r)
    return r


class _LaneRing:
    """Arithmetic in F_p[x]/(f) for one monic integer f and an array of
    primes p, one prime per lane.

    A residue is an (n, L) array whose row i holds the coefficient of x^i in
    every lane, each in [0, p).  A product adds its n row products
    unreduced, reduces only the top row each fold step multiplies by the
    x^n row, and reduces the n result rows once at the end: before that, a
    row holds at most 2n - 1 products, so it never exceeds (2n - 1)(p - 1)^2.
    The constructor keeps int64 lanes while that bound is below 2^63 at the
    largest p and takes ``P.astype(object)`` above it, where Python integers
    make the same code exact; ``P`` is the ring's lanes, in the dtype of its
    residues.  A ring of one prime lane multiplies and powers residues of
    any lane count L, its p broadcast over them: that is how ``plane`` runs
    one element per lane.
    """

    def __init__(self, f: list[int], P: np.ndarray):
        if not f or f[-1] != 1:
            raise ValueError("lane kernels need a monic polynomial")
        self.n = n = len(f) - 1
        if P.dtype != object and P.size and (2 * n - 1) * (int(P.max()) - 1) ** 2 >= 1 << 63:
            P = P.astype(object)
        self.P = P
        self.f = _lift(f, P)
        self.red = (-self.f[:n]) % P  # x^n mod f

    def const(self, c: int) -> np.ndarray:
        out = np.zeros((self.n, len(self.P)), dtype=self.P.dtype)
        out[0] = c
        return out

    def mulx(self, a: np.ndarray) -> np.ndarray:
        out = np.zeros_like(a)
        out[1:] = a[:-1]
        return (out + a[-1] * self.red) % self.P

    def mul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        n, P = self.n, self.P
        out = np.zeros((2 * n - 1, a.shape[1]), dtype=P.dtype)
        for i in range(n):
            out[i:i + n] += a[i] * b
        for k in range(2 * n - 2, n - 1, -1):  # fold x^k = x^(k-n) * x^n
            out[k - n:k] += out[k] % P * self.red
        return out[:n] % P

    def pow(self, a: np.ndarray, e: int) -> np.ndarray:
        """a^e mod f in every lane, for one exponent e >= 0 shared by all
        lanes, left to right over the bits of e."""
        if e == 0:
            cur = np.zeros_like(a)
            cur[0] = 1
            return cur
        cur = a
        for bit in bin(e)[3:]:
            cur = self.mul(cur, cur)
            if bit == "1":
                cur = self.mul(cur, a)
        return cur

    def xpow(self) -> np.ndarray:
        """x^p mod f in every lane.  A lane whose p is shorter than the
        longest keeps 1 through its leading zero bits."""
        P, cur = self.P, self.const(1)
        for b in range(int(P.max()).bit_length() - 1 if P.size else -1, -1, -1):
            cur = self.mul(cur, cur)
            cur = np.where(((P >> b) & 1).astype(bool), self.mulx(cur), cur)
        return cur

    def compose(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a(b) mod f, by Horner's rule."""
        acc = self.const(0)
        for row in a[::-1]:
            acc = self.mul(acc, b)
            acc[0] = (acc[0] + row) % self.P
        return acc

    def fixed_count(self, xq: np.ndarray) -> np.ndarray:
        """deg gcd(xq - x, f) per lane.  For xq = x^(p^d) mod f and f
        squarefree mod p, this is the number of roots of f in F_(p^d).

        Inverse-free Euclid: one step replaces u, the operand of higher
        degree, with lc(v)*u - lc(u)*x^(deg u - deg v)*v, so the leading
        terms cancel and the gcd changes only by a unit.  It ends when v is
        zero.
        """
        P, n = self.P, self.n
        v = np.vstack([xq, np.zeros_like(xq[:1])])
        v[1] = (v[1] - 1) % P
        u = self.f
        du, dv = np.full(len(P), n), _lane_degrees(v)
        rows = np.arange(n + 1)[:, None]
        while (live := dv >= 0).any():
            top_v = np.maximum(dv, 0)
            idx = rows - (du - top_v)
            shifted = np.where(idx >= 0, np.take_along_axis(v, np.maximum(idx, 0), 0), 0)
            lu = np.take_along_axis(u, du[None], 0)
            lv = np.take_along_axis(v, top_v[None], 0)
            w = np.where(live, (lv * u - lu * shifted) % P, u)
            dw = np.where(live, _lane_degrees(w), du)
            swap = dw < dv
            u, v = np.where(swap, v, w), np.where(swap, w, v)
            du, dv = np.where(swap, dv, dw), np.where(swap, dw, dv)
        return du


def _lane_degrees(a: np.ndarray) -> np.ndarray:
    nz = a != 0
    return np.where(nz.any(0), len(a) - 1 - np.argmax(nz[::-1], axis=0), -1)


def _by_block(kernel, f: list[int], primes: np.ndarray) -> np.ndarray:
    """kernel(f, lanes) over blocks of LANE_BLOCK primes, joined lane-wise."""
    starts = range(0, max(len(primes), 1), LANE_BLOCK)
    return np.concatenate([kernel(f, lanes(primes[i:i + LANE_BLOCK])) for i in starts],
                          axis=-1)


def lane_root_count(f: list[int], primes: np.ndarray) -> np.ndarray:
    """Distinct roots of monic f in F_p for every prime p of the array.

    Degree 3 and up take deg gcd(x^p - x, f), ``LANE_BLOCK`` primes at a
    time, except a binomial x^n - a, which takes one pass over the whole
    array by the n-th power residue criterion (Ireland-Rosen, ch. 4 §2).
    Its count is 1 where p divides a (the root 0).  Elsewhere x -> x^n maps
    the cyclic group F_p^* onto the subgroup of index d = gcd(n, p - 1),
    each fibre of size d, so the count is d where a^((p - 1)/d) = 1 mod p
    and 0 where not.  That is exact at every prime, p = 2 and p dividing n
    included, and a lane with d = 1 needs no power.

    A quadratic x^2 + c1*x + c0, with D = c1^2 - 4*c0, takes one pass over
    the whole array by residue class of p mod 4|D|: Euler's criterion on D
    (p = 2 by evaluating f at 0 and 1) runs only at one prime of each class
    present, and every prime of the class takes its count.  That is exact
    at every prime.  At odd p not dividing D the count is 1 + (D/p), and
    odd p, q not dividing D with p = q mod 4|D| have the same Jacobi symbol
    (D/.) by quadratic reciprocity (Ireland-Rosen, ch. 5); the prime 2 and
    every prime dividing D are alone in their classes.  When 4|D| exceeds
    every prime, the class of p is p itself, so no int64 lane is reduced by
    a modulus past the largest prime.  When D = 0, f is the square
    (x + c1/2)^2, with one root at every p: all primes form one class.
    """
    n = len(f) - 1
    if n >= 3 and f[-1] == 1 and not any(f[1:-1]):
        return _binomial_root_count(n, -f[0], lanes(primes))
    if n != 2:
        return _by_block(_root_count, f, primes)
    P = lanes(primes)
    m = 4 * abs(f[1] * f[1] - 4 * f[0])
    if m == 0:
        key = np.zeros_like(P)
    else:
        key = P % m if m <= int(P.max(initial=0)) else P
    # any prime of a class serves, so scatter the lane indices through the
    # inverse rather than ask np.unique for a stable sort's first indices
    keys, cls = np.unique(key, return_inverse=True)
    first = np.empty(len(keys), dtype=np.intp)
    first[cls] = np.arange(len(key))
    return _root_count(f, P[first])[cls]


def _binomial_root_count(n: int, a: int, P: np.ndarray) -> np.ndarray:
    """Distinct roots of x^n - a in F_p per lane of P, by the power residue
    criterion of :func:`lane_root_count`."""
    am = lane_mod(a, P)
    d = np.gcd(P - 1, n)
    out = np.where(am == 0, 1, d).astype(np.int64)
    test = np.flatnonzero((d > 1) & (am != 0))
    Pt = P[test]
    residue = _lane_powmod(am[test], (Pt - 1) // d[test], Pt) == 1
    out[test] = np.where(residue, out[test], 0)
    return out


def _root_count(f: list[int], P: np.ndarray) -> np.ndarray:
    n = len(f) - 1
    if n == 1:
        return np.ones(len(P), dtype=np.int64)
    if n == 2:
        c0, c1 = f[0], f[1]
        disc = lane_mod(c1 * c1 - 4 * c0, P)
        euler = _lane_powmod(disc, (P - 1) >> 1, P)
        roots = np.where(disc == 0, 1, np.where(euler == 1, 2, 0))
        at_two = (c0 % 2 == 0) + ((1 + c1 + c0) % 2 == 0)
        return np.where(P == 2, at_two, roots).astype(np.int64)
    ring = _LaneRing(f, P)
    return ring.fixed_count(ring.xpow())


def lane_factor_degrees(f: list[int], primes: np.ndarray) -> np.ndarray:
    """Irreducible-factor degrees of monic f mod p, for every p of the array
    at which f is squarefree: row d-1 of the (n, L) result counts the
    factors of degree d.

    c_d = deg gcd(x^(p^d) - x, f) is the sum of e * N_e over e | d, where
    N_e counts the degree-e factors, so N_d follows for d <= n/2 by Möbius
    inversion, solved one d at a time; what is left is one factor of degree
    above n/2.  Up to degree 3, c_1 alone fixes the pattern, and it is
    :func:`lane_root_count`: one pass over the whole array for a quadratic
    or a binomial.  Above, the Frobenius powers come by composition,
    x^(p^d) = x^(p^(d-1)) o x^p, ``LANE_BLOCK`` primes at a time.
    """
    n = len(f) - 1
    counts = lane_root_count(f, primes)[None] if n <= 3 else _by_block(_fixed_counts, f, primes)
    out = np.zeros((n, counts.shape[1]), dtype=np.int64)
    for d, c in enumerate(counts, 1):  # c_d = sum of e * N_e over e | d
        out[d - 1] = (c - sum(e * out[e - 1] for e in range(1, d) if d % e == 0)) // d
    rest = n - (np.arange(1, n + 1)[:, None] * out).sum(axis=0)
    lanes_with_rest = np.nonzero(rest)[0]
    out[rest[lanes_with_rest] - 1, lanes_with_rest] += 1
    return out.astype(np.min_scalar_type(n))


def _fixed_counts(f: list[int], P: np.ndarray) -> np.ndarray:
    """c_d for d = 1 .. n/2, one row each."""
    ring = _LaneRing(f, P)
    x1 = xd = ring.xpow()
    counts = [ring.fixed_count(x1)]
    for _ in range(2, ring.n // 2 + 1):
        xd = ring.compose(xd, x1)
        counts.append(ring.fixed_count(xd))
    return np.array(counts)


def lane_frobenius_classes(f: list[int], classes, primes: np.ndarray) -> np.ndarray:
    """The Frobenius class of every prime of the array, as an index into
    classes, or -1 where that is not exactly one class.  f defines a Galois
    field Q(θ); a class is the tuple of its members' maps (num, den), the
    integer numerators and denominator of σθ = h_σ(θ).

    The class of p is the one whose product of den*x^p - num vanishes mod
    f: no inverse, no gcd (Dokchitser-Dokchitser, "Identifying Frobenius
    elements in Galois groups", 2013).  It is exact when p ∤ disc f.  Then f
    is squarefree mod p, and at each factor g exactly one σ_g, in the class
    of p, has x^p = h_σ_g mod g.  Each other h_τ - h_σ_g is a unit mod g, as
    the product of σθ - τθ over τ ≠ σ is f'(σθ), of norm ±disc f, and each
    den is a unit, as den^2 divides disc f.  So only the class of p has a
    product that vanishes mod every g, hence mod f.
    """
    def find(f, P):
        ring = _LaneRing(f, P)
        P, xp = ring.P, ring.xpow()

        def term(num, den):
            t = xp * lane_mod(den, P)
            t[:len(num)] -= _lift(num, P)
            return t % P
        zero = np.array([~functools.reduce(ring.mul, [term(*m) for m in c]).any(axis=0)
                         for c in classes])
        return np.where(zero.sum(axis=0) == 1, zero.argmax(axis=0), -1)
    return _by_block(find, f, primes)
