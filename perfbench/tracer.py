"""Spans around the package's public functions, installed from outside.

``Tracer.install`` wraps each target function and rebinds every module
attribute that holds the same function object, because ``spectrum``,
``plane``, ``density`` and ``cli`` import functions by name.  A span is
(name, start, end, parent); spans live in flat arrays until the run ends.
A layer's self time is its spans' durations minus their direct children's
(``self_times``), so the self times of all spans add up to the root spans'
wall time.

Prime iteration is lazy: the sieve does its work while the scan consumes
the stream.  The stream returned by ``stream_primes`` is wrapped so that
time spent inside the generator is summed and recorded as one span,
``sieve.stream_primes.iter``, placed at the first step and as long as that
busy time.
"""

from __future__ import annotations

import functools
import gzip
import itertools
import sys
import time
from array import array

# (module, attribute, span name).  Layers are the span-name prefixes.  Beyond
# the functions run.py reports one by one, the extra spans keep time spent in
# one layer (say, FqField construction or Chebotarev prediction) out of its
# caller's self time.
TARGETS = (
    ("arithplane.cli", "main", "cli.main"),
    ("arithplane.lattice", "load_lattice", "lattice.load_lattice"),
    ("arithplane.sieve", "stream_primes", "sieve.stream_primes"),
    ("arithplane.modpoly", "root_count", "modpoly.root_count"),
    ("arithplane.modpoly", "degree_pattern", "modpoly.degree_pattern"),
    ("arithplane.modpoly", "xpow_mod", "modpoly.xpow_mod"),
    ("arithplane.modpoly", "is_irreducible", "modpoly.is_irreducible"),
    ("arithplane.modpoly", "linsolve", "modpoly.linsolve"),
    ("arithplane.finitefield", "fq_factor", "finitefield.fq_factor"),
    ("arithplane.finitefield", "fq_roots", "finitefield.fq_roots"),
    ("arithplane.finitefield", "fq_norm", "finitefield.fq_norm"),
    ("arithplane.finitefield", "fq_minpoly", "finitefield.fq_minpoly"),
    ("arithplane.spectrum", "split_prime", "spectrum.split_prime"),
    ("arithplane.spectrum", "compatible_root_count", "spectrum.compatible_root_count"),
    ("arithplane.spectrum", "pi_psi_flags", "spectrum.pi_psi_flags"),
    ("arithplane.spectrum", "degree_pattern", "spectrum.degree_pattern"),
    ("arithplane.plane", "galois_image", "plane.galois_image"),
    ("arithplane.plane", "project_point", "plane.project_point"),
    ("arithplane.density", "parse_set_expr", "density.parse_set_expr"),
    ("arithplane.density", "chebotarev_predict", "density.chebotarev_predict"),
    ("arithplane.density", "estimate_density", "density.scan"),
    ("arithplane.density", "frobenius_histogram", "density.scan"),
    ("arithplane.density", "check_inclusion_exclusion", "density.scan"),
)
SIEVE_ITER = "sieve.stream_primes.iter"


def self_times(spans) -> dict[str, list]:
    """Per span name: [calls, total seconds, self seconds].

    ``spans`` is a sequence of (name, start, end, parent index or -1).  Self
    time is a span's duration minus the durations of its direct children.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, list] = {}
    for i, (name, start, end, _) in enumerate(spans):
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += end - start
        acc[2] += end - start - child[i]
    return out


def find_caches(modules) -> list[tuple[str, object]]:
    """Every functools cache bound at module level, as ("module.name", cache).

    Found by type, not by name, so renames inside the package do not hide a
    cache; a leading underscore is dropped from the reported name.
    """
    out = []
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[-1]
        for attr, obj in sorted(vars(mod).items()):
            if callable(getattr(obj, "cache_clear", None)) and hasattr(obj, "cache_info"):
                if getattr(obj, "__module__", None) == mod.__name__:
                    out.append((f"{short}.{attr.lstrip('_')}", obj))
    return out


def package_modules() -> list:
    return [m for n, m in sorted(sys.modules.items())
            if (n == "arithplane" or n.startswith("arithplane.")) and m is not None]


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.counts = {"sieve.primes": 0, "spectrum.split_prime.points": 0}
        self._elements = itertools.count()
        self.installed: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, t0: float) -> int:
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(t0)
        self.end.append(t0)
        return idx

    def _wrap(self, fn, name: str):
        nid = self._id(name)
        stack, end, clock, open_ = self.stack, self.end, time.perf_counter, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = open_(nid, clock())
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def _wrap_split(self, fn, name: str):
        counts = self.counts
        inner = self._wrap(fn, name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = inner(*args, **kwargs)
            counts["spectrum.split_prime.points"] += len(out)
            return out

        return wrapper

    def _wrap_stream(self, fn, name: str):
        inner = self._wrap(fn, name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedStream(inner(*args, **kwargs), tracer)

        return wrapper

    def install(self, modules) -> None:
        """Wrap every TARGETS function found and rebind it in all ``modules``."""
        by_name = {m.__name__: m for m in modules}
        for mod_name, attr, span in TARGETS:
            fn = getattr(by_name.get(mod_name), attr, None)
            if fn is None:
                continue
            if span == "sieve.stream_primes":
                wrapped = self._wrap_stream(fn, span)
            elif span == "spectrum.split_prime":
                wrapped = self._wrap_split(fn, span)
            else:
                wrapped = self._wrap(fn, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapped)
            self.installed.append(f"{mod_name}.{attr}")
        ff = by_name.get("arithplane.finitefield")
        if ff is not None:
            self._count_elements(ff)
            self._span_field_init(ff)

    def _count_elements(self, ff) -> None:
        cls = ff.FqElement
        orig = cls.__init__
        tick = self._elements

        def counting_init(obj, *args, **kwargs):
            next(tick)
            orig(obj, *args, **kwargs)

        cls.__init__ = counting_init

    def _span_field_init(self, ff) -> None:
        ff.FqField.__init__ = self._wrap(ff.FqField.__init__, "finitefield.FqField")

    def snapshot_counts(self) -> dict[str, int]:
        # next() would advance the counter; its repr reads "count(N)"
        elements = int(repr(self._elements)[6:-1])
        return dict(self.counts, **{"finitefield.elements": elements})

    def spans(self) -> list[tuple[str, float, float, int]]:
        names = self.names
        return [(names[n], s, e, p) for n, s, e, p in
                zip(self.name_id, self.start, self.end, self.parent)]

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, s, e, p in self.spans():
                fh.write(f"{name}\t{s:.9f}\t{e:.9f}\t{p}\n")


class _TimedStream:
    """Iterable proxy that records the busy time of a lazy prime stream."""

    def __init__(self, stream, tracer: Tracer):
        self._stream = stream
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._stream, attr)

    def __iter__(self):
        tracer = self._tracer
        clock = time.perf_counter
        it = iter(self._stream)
        idx = tracer._open(tracer._id(SIEVE_ITER), clock())
        busy = 0.0
        count = 0
        try:
            while True:
                t0 = clock()
                try:
                    value = next(it)
                except StopIteration:
                    busy += clock() - t0
                    return
                busy += clock() - t0
                count += 1
                yield value
        finally:
            tracer.end[idx] = tracer.start[idx] + busy
            tracer.counts["sieve.primes"] += count
