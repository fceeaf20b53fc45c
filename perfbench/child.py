"""One fresh interpreter: set up, run a job through ``arithplane.cli.main``, report.

Reads a JSON job on stdin and prints one JSON object on stdout.  Modes:

- ``setup``: import ``arithplane.cli`` and load the demo lattice, timed.
- ``batch``: the same set-up, then one command; stdout is returned for the
  golden check.
- ``queries``: the same set-up, then requests in a closed loop with one
  client, clearing every package cache before each; the loop stops after
  the block in which both ``seconds`` and ``min_requests`` are reached.
  Answers are checked after the loop, outside the timed window.

With ``trace`` set, spans are recorded around the package's public
functions (see tracer.py) and written to ``spans_path``.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import resource
import sys
import time
import traceback


def _cpu() -> tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime, kids.ru_utime + kids.ru_stime


def _peak_rss_mb() -> tuple[float, float]:
    me = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return me / 1024, kids / 1024


def _call(cli, argv: list[str]) -> tuple[int, str, str, float]:
    """Run one command; an exception escaping ``main`` is reported as exit code -1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception:  # the program failed; the run goes on and counts it
            traceback.print_exc()
            code = -1
        wall = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), wall


def main() -> None:
    job = json.loads(sys.stdin.read())
    root = pathlib.Path(job["root"])
    t0 = time.perf_counter()
    import arithplane.cli as cli
    t1 = time.perf_counter()
    from arithplane.lattice import load_lattice
    cfg = load_lattice((root / "configs" / "demo.cfg").read_text(encoding="utf-8"))
    t2 = time.perf_counter()
    report: dict = {"setup_s": t2 - t0, "import_s": t1 - t0, "load_s": t2 - t1}
    if job["mode"] == "setup":
        print(json.dumps(report))
        return

    import tracer as tr

    modules = tr.package_modules()
    caches = tr.find_caches(modules)
    tracer = None
    if job["trace"]:
        tracer = tr.Tracer()
        tracer.install(modules)
    lookups = {name: [0, 0] for name, _ in caches}

    def drain_caches() -> None:
        for name, cache in caches:
            info = cache.cache_info()
            lookups[name][0] += info.hits
            lookups[name][1] += info.misses
            cache.cache_clear()

    cpu0 = _cpu()
    if job["mode"] == "batch":
        code, out, err, wall = _call(cli, job["argv"])
        report.update(exit=code, stdout=out, stderr=err[-2000:], wall_s=wall)
    else:
        done = _run_queries(cli, job, drain_caches)
    drain_caches()
    cpu1 = _cpu()
    report["cpu_self_s"] = cpu1[0] - cpu0[0]
    report["cpu_children_s"] = cpu1[1] - cpu0[1]
    report["rss_self_mb"], report["rss_children_mb"] = _peak_rss_mb()
    report["cache_lookups"] = lookups
    if tracer is not None:
        report["self_times"] = tr.self_times(tracer.spans())
        report["counts"] = tracer.snapshot_counts()
        report["wrapped"] = tracer.installed
        if job.get("spans_path"):
            tracer.write(job["spans_path"])
    if job["mode"] == "queries":
        report["requests"] = _check_queries(cfg, done)
    print(json.dumps(report))


def _run_queries(cli, job: dict, drain_caches) -> list[dict]:
    done: list[dict] = []
    requests = job["requests"]
    block = job["block"]
    started = time.perf_counter()
    for i in range(0, len(requests), block):
        cpu0 = sum(_cpu())
        for req in requests[i : i + block]:
            drain_caches()
            code, out, err, wall = _call(cli, req["argv"])
            done.append({"kind": req["kind"], "argv": req["argv"], "exit": code,
                         "stdout": out, "wall_s": wall})
        done[-1]["block_cpu_s"] = sum(_cpu()) - cpu0
        elapsed = time.perf_counter() - started
        if elapsed >= job["seconds"] and len(done) >= job["min_requests"]:
            break
    return done


def _check_queries(cfg, done: list[dict]) -> list[dict]:
    import checks

    for rec in done:
        try:
            rec["ok"] = checks.answer_ok(cfg, rec["kind"], rec["argv"], rec["stdout"],
                                         rec["exit"])
        except ValueError:
            rec["ok"] = False
        rec["points"] = len(rec.pop("stdout").splitlines()) if rec["ok"] else 0
    return done


if __name__ == "__main__":
    main()
