"""Check that the benchmark is steady: run it once per seed, report spreads.

    python3 perfbench/steady.py --workload queries --seeds 1-5

For each end-to-end metric prints the median over the runs and the spread
(distance between the first and third quartile as a share of the median,
as ``statistics.quantiles(values, n=4)`` gives them) next to the metric's
bound from BENCHMARK.json.  A steady benchmark keeps every spread below a
third of its bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

import bench_stats as bs

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    values: dict[str, list[float]] = {}
    for seed in _seeds(args.seeds):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} failed")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v[-1]:.5g}" for k, v in values.items()),
              flush=True)
    print(f"{'metric':<16} {'median':>12} {'spread':>8} {'bound':>6}")
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        spread = bs.relative_iqr(vals) if len(vals) > 1 else float("nan")
        print(f"{metric['name']:<16} {statistics.median(vals):>12.6g} {spread:>8.3f}"
              f" {metric['bound']:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
