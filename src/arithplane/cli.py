"""Command-line interface: one subcommand per operation or checker.

Exit codes: 0 success, 1 usage error, 2 invalid lattice or unknown name,
3 computation refused (ramified prime, unsatisfied formula hypothesis).
Output is deterministic for fixed inputs regardless of ``--workers``.
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from . import density as dn
from . import plane
from . import spectrum as sp
from .errors import (
    ArithPlaneError,
    HypothesisViolatedError,
    NotLyingOverError,
    RamifiedPrimeError,
)
from .intpoly import RatPoly
from .lattice import LatticeConfig, load_lattice, validate_lattice

REFUSAL_ERRORS = (RamifiedPrimeError, HypothesisViolatedError, NotLyingOverError)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exit code 1, not 2."""

    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _formatter(prog):
    return argparse.HelpFormatter(prog, width=100)


def build_parser() -> _Parser:
    common = _Parser(add_help=False)
    common.add_argument("--lattice", required=True, metavar="FILE",
                        help="lattice configuration file")

    top = _Parser(
        prog="arithplane",
        description="prime splitting, residue fibres, and density scans"
        " over a declared lattice of number fields",
        formatter_class=_formatter,
    )
    sub = top.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("validate", parents=[common], formatter_class=_formatter,
                       help="load a lattice file and print its diagnostics")

    p = sub.add_parser("split", parents=[common], formatter_class=_formatter,
                       help="factor a prime through a field")
    p.add_argument("--field", required=True, help="field name")
    p.add_argument("--prime", required=True, type=int, help="rational prime")

    for name, blurb in (("pi", "at-least-one degree-1 point above"),
                        ("psi", "all points above of degree 1")):
        p = sub.add_parser(name, parents=[common], formatter_class=_formatter,
                           help=f"membership in the {name.capitalize()} set:"
                                f" {blurb}")
        p.add_argument("--ext", required=True, metavar="K/L", help="extension")
        p.add_argument("--prime", required=True, type=int, help="rational prime")

    p = sub.add_parser("fingerprint", parents=[common], formatter_class=_formatter,
                       help="Pi-membership vector of a prime across extensions")
    p.add_argument("--prime", required=True, type=int, help="rational prime")
    p.add_argument("--family", required=True, metavar="K1/L,K2/L,...",
                   help="comma-separated extensions over one base")

    p = sub.add_parser("density", parents=[common], formatter_class=_formatter,
                       help="estimate the density of a set expression")
    p.add_argument("--expr", required=True, help="set expression, e.g."
                   " 'Psi(Qi/Q) & !Pi(Qc2/Q)'")
    p.add_argument("--max", required=True, type=int, help="prime norm bound")
    p.add_argument("--workers", type=int, default=1, help="parallel workers")
    p.add_argument("--csv", metavar="FILE", help="write convergence trace CSV")

    p = sub.add_parser("frobenius", parents=[common], formatter_class=_formatter,
                       help="histogram of factorization patterns mod p")
    p.add_argument("--field", required=True, help="field name")
    p.add_argument("--max", required=True, type=int, help="prime bound")
    p.add_argument("--workers", type=int, default=1, help="parallel workers")
    p.add_argument("--csv", metavar="FILE", help="write histogram CSV")

    p = sub.add_parser("galois", parents=[common], formatter_class=_formatter,
                       help="apply a declared automorphism to the points over p")
    p.add_argument("--field", required=True, help="field name")
    p.add_argument("--auto", required=True, type=int,
                   help="automorphism index in declaration order (0-based)")
    p.add_argument("--prime", required=True, type=int, help="rational prime")
    p.add_argument("--mode", choices=("direct", "bruteforce"), default="direct",
                   help="kernel transport, or existential search oracle")

    p = sub.add_parser("annihilator", parents=[common], formatter_class=_formatter,
                       help="points whose fibre an element kills")
    p.add_argument("--gamma", required=True, metavar="c0,c1,...",
                   help="integer coefficients, constant first")
    p.add_argument("--field", required=True, help="field name")
    p.add_argument("--max", required=True, type=int, help="prime bound")

    check = sub.add_parser("check", formatter_class=_formatter,
                           help="finite-truncation verifiers")
    csub = check.add_subparsers(dest="checker", metavar="CHECKER")

    p = csub.add_parser("pullback", parents=[common], formatter_class=_formatter,
                        help="membership upstairs vs membership of projection")
    p.add_argument("--tower", required=True, metavar="L,K,M,KM",
                   help="base, middle, side, composite")
    p.add_argument("--max", required=True, type=int)

    p = csub.add_parser("psi-product", parents=[common], formatter_class=_formatter,
                        help="Psi(K1) & Psi(K2) vs Psi(composite)")
    p.add_argument("--fields", required=True, metavar="K1,K2,KK",
                   help="two fields and their composite")
    p.add_argument("--base", default="Q")
    p.add_argument("--max", required=True, type=int)

    p = csub.add_parser("pi-eq-psi", parents=[common], formatter_class=_formatter,
                        help="count primes where Pi and Psi disagree")
    p.add_argument("--ext", required=True, metavar="K/L")
    p.add_argument("--max", required=True, type=int)

    p = csub.add_parser("inclusion-exclusion", parents=[common],
                        formatter_class=_formatter,
                        help="finite counting identity for two expressions")
    p.add_argument("--first", required=True, metavar="EXPR")
    p.add_argument("--second", required=True, metavar="EXPR")
    p.add_argument("--max", required=True, type=int)
    p.add_argument("--workers", type=int, default=1)

    p = csub.add_parser("pi-intersection", parents=[common],
                        formatter_class=_formatter,
                        help="smallest prime in every Pi set")
    p.add_argument("--fields", required=True, metavar="K1,K2,...")
    p.add_argument("--base", default="Q")
    p.add_argument("--max", required=True, type=int)

    p = csub.add_parser("norm-fiber", parents=[common], formatter_class=_formatter,
                        help="enumerate norm fibres against the size law")
    p.add_argument("--ext", required=True, metavar="K/L")
    p.add_argument("--max", required=True, type=int)

    p = csub.add_parser("section-independence", parents=[common],
                        formatter_class=_formatter,
                        help="induced action under randomized sections")
    p.add_argument("--ext", required=True, metavar="K/L")
    p.add_argument("--max", required=True, type=int, help="prime bound")
    p.add_argument("--trials", type=int, default=100, help="section pairs")
    p.add_argument("--box", type=int, default=5, help="gamma coefficient bound")
    p.add_argument("--seed", type=int, default=0)

    return top


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",")]
    except ValueError:
        raise _UsageError(f"expected comma-separated integers, got {text!r}")


def _names(text: str) -> list[str]:
    return [tok.strip() for tok in text.split(",") if tok.strip()]


def _frobenius_csv(stats: dn.FrobeniusStats) -> str:
    lines = ["pattern,count,total,frequency"]
    for pat, count in stats.counts:
        name = "+".join(map(str, pat))
        lines.append(f"{name},{count},{stats.total},{count / stats.total:.6f}")
    return "\n".join(lines) + "\n"


def _run(args, out) -> int:
    cmd = args.command
    if cmd is None:
        raise _UsageError("a command is required (see --help)")
    if cmd == "check" and args.checker is None:
        raise _UsageError("a checker is required (see: arithplane check --help)")
    cfg = load_lattice(pathlib.Path(args.lattice).read_text(encoding="utf-8"))
    if cmd == "check":
        print(_check_report(args, cfg), file=out)
        return 0
    if cmd == "validate":
        print(validate_lattice(cfg).render(), file=out)
        return 0
    if cmd == "split":
        for pk in sp.split_prime(cfg.field(args.field), args.prime):
            print(pk, file=out)
        return 0
    if cmd in ("pi", "psi"):
        ext = cfg.extension(args.ext)
        member = sp.in_pi if cmd == "pi" else sp.in_psi
        label = "Pi" if cmd == "pi" else "Psi"
        for pl_pt in sp.split_prime(ext.base, args.prime):
            verdict = "yes" if member(ext, pl_pt) else "no"
            print(f"{pl_pt} in {label}({ext.name}): {verdict}", file=out)
        return 0
    if cmd == "fingerprint":
        exts = [cfg.extension(spec) for spec in _names(args.family)]
        if not exts:
            raise _UsageError("--family needs at least one extension")
        bases = list(dict.fromkeys(ext.base.name for ext in exts))
        if len(bases) > 1:
            raise _UsageError(f"--family mixes base fields {', '.join(bases)}")
        for pl_pt in sp.split_prime(exts[0].base, args.prime):
            bits = sp.fingerprint(pl_pt, exts)
            cells = ", ".join(
                f"{ext.name}={'yes' if bit else 'no'}"
                for ext, bit in zip(exts, bits)
            )
            print(f"{pl_pt}: ({cells})", file=out)
        return 0
    if cmd == "density":
        expr = dn.parse_set_expr(args.expr, cfg)
        est = dn.estimate_density(expr, args.max, workers=args.workers)
        predicted = dn.chebotarev_predict(expr, cfg)
        # the CSV first, so that a path that cannot be written prints nothing
        if args.csv:
            pathlib.Path(args.csv).write_text(dn.trace_csv(est), encoding="utf-8")
        print(est, file=out)
        shown = predicted if predicted is not None else "unavailable"
        print(f"chebotarev prediction: {shown}", file=out)
        return 0
    if cmd == "frobenius":
        stats = dn.frobenius_histogram(
            cfg.field(args.field), args.max, workers=args.workers
        )
        if args.csv:
            pathlib.Path(args.csv).write_text(_frobenius_csv(stats), encoding="utf-8")
        print(stats, file=out)
        return 0
    if cmd == "galois":
        autos = cfg.autos(args.field)
        if not autos:
            raise _UsageError(f"{args.field} declares no automorphisms")
        if not 0 <= args.auto < len(autos):
            raise _UsageError(
                f"--auto must be in [0, {len(autos) - 1}] for {args.field}"
            )
        sigma = autos[args.auto]
        for q in sp.split_prime(cfg.field(args.field), args.prime):
            image = plane.galois_image(cfg, sigma, q, args.mode)
            print(f"{q} -> {image}", file=out)
        return 0
    # annihilator, the last command
    gamma = RatPoly.over(_csv_ints(args.gamma))
    points = plane.annihilator_set(gamma, cfg.field(args.field), args.max)
    if points:
        for pk in points:
            print(pk, file=out)
    else:
        print(f"no annihilated points with p <= {args.max}", file=out)
    return 0


def _check_report(args, cfg: LatticeConfig):
    """The report of the checker the arguments name."""
    checker = args.checker
    if checker == "pullback":
        names = _names(args.tower)
        if len(names) != 4:
            raise _UsageError("--tower needs exactly four fields: L,K,M,KM")
        return dn.check_pullback(cfg, *names, args.max)
    if checker == "psi-product":
        names = _names(args.fields)
        if len(names) != 3:
            raise _UsageError("--fields needs exactly three fields: K1,K2,composite")
        return dn.check_psi_product(cfg, *names, args.base, args.max)
    if checker == "pi-eq-psi":
        return dn.check_pi_eq_psi(cfg, args.ext, args.max)
    if checker == "inclusion-exclusion":
        return dn.check_inclusion_exclusion(
            dn.parse_set_expr(args.first, cfg),
            dn.parse_set_expr(args.second, cfg),
            args.max,
            workers=args.workers,
        )
    if checker == "pi-intersection":
        return dn.check_pi_intersection(cfg, _names(args.fields), args.base, args.max)
    if checker == "norm-fiber":
        return plane.check_norm_fibres(cfg.extension(args.ext), args.max)
    # section-independence, the last checker
    if args.box < 0:
        raise _UsageError(f"--box must be at least 0, got {args.box}")
    if args.trials < 1:
        raise _UsageError(f"--trials must be at least 1, got {args.trials}")
    return plane.check_section_independence(
        cfg.extension(args.ext), args.max, args.box, args.trials, args.seed
    )


PARSER = build_parser()  # pure, so built once per process and reused by main


def main(argv: list[str] | None = None) -> int:
    try:
        args = PARSER.parse_args(argv)
        return _run(args, sys.stdout)
    except SystemExit as exc:  # argparse --help
        return exc.code or 0
    except _UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"arithplane: {exc}", file=sys.stderr)
        return 1
    except REFUSAL_ERRORS as exc:
        print(f"arithplane: refused: {exc}", file=sys.stderr)
        return 3
    except (ArithPlaneError, OSError) as exc:
        print(f"arithplane: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
