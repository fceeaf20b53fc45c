"""Regenerate perfbench/goldens.json: the exact answers of every batch command.

    PYTHONPATH=src python3 perfbench/make_goldens.py

Run from the repository root.  Every command runs once through
``arithplane.cli.main`` with ``finitefield.VERIFY`` on, so each
factorization re-expands and checks itself.  The point counts come from the
same scans through the public API: ``evaluated`` is the number of points the
scan counted, ``skipped`` the number it skipped by reason.  Only regenerate
when an answer is meant to change, and say why in CHANGES.md.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib

import arithplane.cli as cli
import arithplane.density as dn
import arithplane.finitefield as ff
from arithplane.lattice import load_lattice

import workloads as wl


def _opt(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _counts(cfg, argv: list[str]) -> tuple[int, int]:
    n, workers = int(_opt(argv, "--max")), int(_opt(argv, "--workers"))
    if argv[0] == "density":
        est = dn.estimate_density(dn.parse_set_expr(_opt(argv, "--expr"), cfg), n, workers)
        return est.total, sum(v for _, v in est.skipped)
    if argv[0] == "frobenius":
        return dn.frobenius_histogram(cfg.field(_opt(argv, "--field")), n, workers).total, 0
    rep = dn.check_inclusion_exclusion(dn.parse_set_expr(_opt(argv, "--first"), cfg),
                                       dn.parse_set_expr(_opt(argv, "--second"), cfg),
                                       n, workers)
    return rep.union.total, sum(v for _, v in rep.union.skipped)


def main() -> None:
    ff.VERIFY = True
    cfg = load_lattice(pathlib.Path(wl.LATTICE).read_text(encoding="utf-8"))
    commands = []
    for name, cmds in wl.BATCH.items():
        for argv in cmds:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(argv)
            evaluated, skipped = _counts(cfg, argv)
            commands.append({"workload": name, "argv": argv, "exit": code,
                             "stdout": out.getvalue(), "evaluated": evaluated,
                             "skipped": skipped})
            print(name, " ".join(argv[:1]), evaluated, skipped, out.getvalue().strip())
    wl.GOLDENS.write_text(json.dumps({"verify": True, "commands": commands}, indent=1) + "\n",
                          encoding="utf-8")


if __name__ == "__main__":
    main()
