"""arithplane benchmark: one workload per run, every answer checked.

    python3 perfbench/run.py --workload qbase_scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload in turn

Run from the root of a checkout; the package is imported from ``src/``.
Each command or query stream runs in a fresh interpreter (perfbench/child.py)
through ``arithplane.cli.main``, so every run starts with cold caches.  The
run prints each metric with its unit, writes the full record to
``perfbench/out/``, and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from
a traced pass (see tracer.py).  Workloads and metrics are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

import bench_stats as bs
import workloads as wl

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

HARD_LIMIT_S = 170.0     # a run must end within 180 s, whatever happens
SETUP_SAMPLES = 5        # dedicated set-up interpreters per run
QUERY_BLOCKS = 60        # upper bound on the stream; the child stops by time
TAIL_Q = 90.0

END_TO_END = {
    "setup_s": "s",
    "points_per_s": "1/s",
    "requests_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

# Functions whose calls and self time are reported on every traced run.
TRACED_FUNCS = (
    "modpoly.root_count", "modpoly.degree_pattern", "modpoly.xpow_mod",
    "finitefield.fq_factor", "finitefield.fq_roots", "finitefield.fq_norm",
    "spectrum.split_prime", "spectrum.compatible_root_count", "spectrum.pi_psi_flags",
    "plane.galois_image", "density.scan", "cli.main",
)
LAYERS = ("cli", "lattice", "sieve", "density", "spectrum", "plane", "finitefield", "modpoly")
SRC_MODULES = ("cli", "density", "finitefield", "intpoly", "lattice", "modpoly",
               "plane", "sieve", "spectrum")


def _per_layer_spec() -> dict[str, tuple[str, str]]:
    """Per-layer metric name -> (unit, which direction is better)."""
    spec = {"lattice.load_lattice.busy_s": ("s", "lower"),
            "sieve.stream_primes.busy_s": ("s", "lower"),
            "sieve.primes": ("count", "lower")}
    for name in TRACED_FUNCS:
        spec[f"{name}.calls"] = ("count", "lower")
        spec[f"{name}.self_s"] = ("s", "lower")
    spec.update({
        "finitefield.elements": ("count", "lower"),
        "spectrum.residue_fq.hit_ratio": ("ratio", "higher"),
        "plane.projector.hit_ratio": ("ratio", "higher"),
        "density.workers_cpu_s": ("s", "lower"),
        "density.points": ("count", "higher"),
        "density.skipped": ("count", "lower"),
        "density.point_yield": ("ratio", "higher"),
    })
    for layer in LAYERS:
        spec[f"{layer}.self_s"] = ("s", "lower")
        spec[f"{layer}.share"] = ("ratio", "lower")
    for name in ("trace.wall_s", "trace.self_sum_s", "trace.untraced_wall_s",
                 "trace.overhead_s", "host.ref_s"):
        spec[name] = ("s", "lower")
    for mod in ("total", *SRC_MODULES):
        spec[f"src.lines.{mod}"] = ("lines", "lower")
    return spec


PER_LAYER = _per_layer_spec()


class ChildError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# child processes


def spawn(job: dict, deadline: float) -> dict:
    """Run child.py on ``job`` in a fresh interpreter and return its report.

    The child gets its own process group, which is killed on timeout and
    after exit, so no pool worker outlives it.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    # imports use cached bytecode, as an installed package would, whatever the caller's setting
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py")], cwd=ROOT, env=env, text=True,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(json.dumps(dict(job, root=str(ROOT))),
                                    timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        _kill_group(proc.pid)
        proc.communicate()
        raise ChildError("timed out") from None
    finally:
        _kill_group(proc.pid)
    if proc.returncode != 0 or not out.strip():
        raise ChildError(f"exit {proc.returncode}: {err.strip()[-1500:]}")
    return json.loads(out.strip().splitlines()[-1])


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# --------------------------------------------------------------------------
# ungated context figures


def host_ref_s() -> float:
    """Median time of a fixed pure-Python loop: shows host speed drift."""
    def loop() -> float:
        t0 = time.perf_counter()
        x = 1
        for i in range(400_000):
            x = (x * 1103515245 + i) & 0xFFFFFFFF
        return time.perf_counter() - t0
    return statistics.median(loop() for _ in range(5))


def src_lines() -> dict[str, int]:
    out = {}
    for path in sorted((ROOT / "src" / "arithplane").glob("*.py")):
        out[f"src.lines.{path.stem}"] = len(path.read_text(encoding="utf-8").splitlines())
    out["src.lines.total"] = sum(out.values())
    return out


# --------------------------------------------------------------------------
# workloads


def _keep_going(elapsed: float, units: int, seconds: float) -> bool:
    # start another pass only if half of an average pass still fits
    return elapsed + 0.5 * elapsed / units <= seconds


def run_batch(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    goldens = wl.load_goldens()
    cmds = wl.batch_commands(name, seed)
    records: list[dict] = []
    passes: list[dict] = []
    started = time.monotonic()
    error = None

    def one_pass(traced: bool) -> None:
        cpu = 0.0
        for i, argv in enumerate(cmds):
            job = {"mode": "batch", "argv": argv, "trace": traced,
                   "spans_path": str(OUT / f"spans-{name}-{seed}-{i}.tsv.gz") if traced else None}
            golden = goldens[wl.command_key(argv)]
            try:
                rep = spawn(job, deadline)
            except ChildError as exc:
                records.append({"argv": argv, "ok": False, "traced": traced, "error": str(exc)})
                raise
            rep["ok"] = wl.batch_answer_ok(rep["stdout"], rep["exit"], golden)
            rep.update(argv=argv, traced=traced,
                       points=golden["evaluated"] + golden["skipped"] if rep["ok"] else 0,
                       evaluated=golden["evaluated"], skipped=golden["skipped"])
            del rep["stdout"]
            records.append(rep)
            cpu += rep["cpu_self_s"] + rep["cpu_children_s"]
        passes.append({"traced": traced, "cpu_s": cpu})

    try:
        if trace:
            one_pass(False)
            one_pass(True)
        else:
            while True:
                one_pass(False)
                if not _keep_going(time.monotonic() - started, len(passes), seconds):
                    break
    except ChildError as exc:
        error = str(exc)
    return {"records": records, "passes": passes, "error": error}


def run_queries(seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    stream = wl.make_queries(seed, QUERY_BLOCKS)
    base = {"mode": "queries", "block": wl.BLOCK_SIZE,
            "min_requests": bs.min_samples(TAIL_Q)}
    records: list[dict] = []
    error = None
    try:
        rep = spawn(dict(base, requests=stream, seconds=seconds, trace=trace,
                         spans_path=str(OUT / f"spans-queries-{seed}.tsv.gz") if trace else None),
                    deadline)
        runs = [rep]
        if trace:
            replay = [{"kind": r["kind"], "argv": r["argv"]} for r in rep["requests"]]
            runs.append(spawn(dict(base, requests=replay, seconds=0, trace=False,
                                   min_requests=len(replay)), deadline))
        for i, r in enumerate(runs):
            for req in r["requests"]:
                req["traced"] = trace and i == 0
            records.extend(r["requests"])
    except ChildError as exc:
        error = str(exc)
        runs = []
    return {"records": records, "runs": runs, "error": error}


# --------------------------------------------------------------------------
# metrics


def end_to_end(name: str, res: dict, setup: list[float]) -> tuple[dict, dict]:
    recs = [r for r in res["records"] if "wall_s" in r]
    walls = [r["wall_s"] for r in recs]
    if not walls:
        raise ChildError(res["error"] or "no command completed")
    busy = sum(walls)
    if name == "queries":
        rep = res["runs"][0]
        setup = setup + [rep["setup_s"]]
        cpu = sum(r.get("block_cpu_s", 0.0) for r in recs) * wl.BLOCK_SIZE / len(recs)
        rss = rep["rss_self_mb"] + rep["rss_children_mb"]
    else:
        setup = setup + [r["setup_s"] for r in recs]
        cpu = sum(p["cpu_s"] for p in res["passes"]) / len(res["passes"])
        rss = max(r["rss_self_mb"] + r["rss_children_mb"] for r in recs)
    metrics = {
        "setup_s": statistics.median(setup),
        "points_per_s": sum(r["points"] for r in recs) / busy,
        "requests_per_s": len(walls) / busy,
        "latency_p50_ms": bs.percentile(walls, 50) * 1000,
        "latency_p90_ms": bs.percentile(walls, TAIL_Q) * 1000,
        "cpu_s": cpu,
        "peak_rss_mb": rss,
    }
    info = {
        "latency_samples": len(walls),
        "tail_percentile_supported": bs.tail_percentile(len(walls)),
        "setup_samples": len(setup),
        "cpu_s_per": f"{wl.BLOCK_SIZE} requests" if name == "queries" else "pass",
    }
    return metrics, info


def per_layer(name: str, res: dict) -> dict:
    traced = [r for r in res["records"] if r.get("traced") and "wall_s" in r]
    plain = [r for r in res["records"] if not r.get("traced") and "wall_s" in r]
    if name == "queries":
        if len(res["runs"]) != 2:
            raise ChildError(res["error"] or "traced run incomplete")
        reports = res["runs"][:1]
    else:
        reports = [r for r in res["records"] if r.get("traced") and "self_times" in r]
        if not reports or len(traced) != len(plain):
            raise ChildError(res["error"] or "traced pass incomplete")
    agg: dict[str, list] = {}
    counts: dict[str, int] = {}
    lookups: dict[str, list] = {}
    for rep in reports:
        for fn, (calls, total, own) in rep["self_times"].items():
            acc = agg.setdefault(fn, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
        for key, v in rep["counts"].items():
            counts[key] = counts.get(key, 0) + v
        for key, (hits, misses) in rep["cache_lookups"].items():
            acc = lookups.setdefault(key, [0, 0])
            acc[0] += hits
            acc[1] += misses

    def get(fn: str, i: int) -> float:
        return agg.get(fn, [0, 0.0, 0.0])[i]

    def ratio(key: str) -> float:
        hits, misses = lookups.get(key, [0, 0])
        return hits / (hits + misses) if hits + misses else 0.0

    out: dict[str, float] = {
        "lattice.load_lattice.busy_s": get("lattice.load_lattice", 1),
        "sieve.stream_primes.busy_s": get("sieve.stream_primes", 1)
        + get("sieve.stream_primes.iter", 1),
        "sieve.primes": counts.get("sieve.primes", 0),
    }
    for fn in TRACED_FUNCS:
        out[f"{fn}.calls"] = get(fn, 0)
        out[f"{fn}.self_s"] = get(fn, 2)
    evaluated = sum(r.get("evaluated", 0) for r in traced)
    produced = counts.get("spectrum.split_prime.points", 0)
    out.update({
        "finitefield.elements": counts.get("finitefield.elements", 0),
        "spectrum.residue_fq.hit_ratio": ratio("spectrum.residue_fq"),
        "plane.projector.hit_ratio": ratio("plane.projector"),
        "density.workers_cpu_s": sum(r["cpu_children_s"] for r in reports),
        "density.points": evaluated,
        "density.skipped": sum(r.get("skipped", 0) for r in traced),
        "density.point_yield": evaluated / produced if produced else 0.0,
    })
    self_sum = sum(v[2] for v in agg.values())
    for layer in LAYERS:
        own = sum(v[2] for fn, v in agg.items() if fn.split(".", 1)[0] == layer)
        out[f"{layer}.self_s"] = own
        out[f"{layer}.share"] = own / self_sum if self_sum else 0.0
    wall = sum(r["wall_s"] for r in traced)
    untraced = sum(r["wall_s"] for r in plain)
    out.update({"trace.wall_s": wall, "trace.self_sum_s": self_sum,
                "trace.untraced_wall_s": untraced, "trace.overhead_s": wall - untraced})
    return out


# --------------------------------------------------------------------------
# entry point


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + HARD_LIMIT_S
    OUT.mkdir(exist_ok=True)
    ref = host_ref_s()
    lines = src_lines()
    setup = [spawn({"mode": "setup"}, deadline)["setup_s"] for _ in range(SETUP_SAMPLES)]
    if name == "queries":
        res = run_queries(seed, seconds, trace, deadline)
    else:
        res = run_batch(name, seed, seconds, trace, deadline)
    attempted = len(res["records"])
    failed = sum(1 for r in res["records"] if not r.get("ok"))
    if trace:
        metrics = per_layer(name, res)
        metrics.update(lines)
        metrics["host.ref_s"] = ref
        info: dict = {}
        units = {k: unit for k, (unit, _) in PER_LAYER.items()}
    else:
        metrics, info = end_to_end(name, res, setup)
        units = END_TO_END
    info.update({"failed_ops_frac": failed / attempted if attempted else 1.0,
                 "host.ref_s": ref, **lines, "error": res["error"]})
    result = {
        "correct": failed == 0 and res["error"] is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = dict(result, workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  info=info, records=res["records"])
    path = OUT / f"result-{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1), encoding="utf-8")
    _print_human(name, result, info)
    return result


def _print_human(name: str, result: dict, info: dict) -> None:
    print(f"== {name}: {result['attempted']} attempted, {result['failed']} failed,"
          f" failed_ops_frac = {info['failed_ops_frac']:.4f}")
    for key, m in result["metrics"].items():
        print(f"  {key:<38} {m['value']:>14.6g} {m['unit']}")
    shown = (f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in info.items()
             if k != "failed_ops_frac" and not k.startswith("src.lines.") or k == "src.lines.total")
    print("  ungated: " + ", ".join(shown))


def _default_seconds() -> int:
    try:
        return int(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 20


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=(*wl.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=_default_seconds())
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    for need in (ROOT / "src" / "arithplane" / "cli.py", ROOT / "configs" / "demo.cfg"):
        if not need.is_file():
            print(f"perfbench: {need.relative_to(ROOT)} not found; run from a full"
                  " checkout of the repository", file=sys.stderr)
            return 2
    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_one(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
