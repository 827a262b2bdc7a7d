"""Command-line interface: analyze ideals, fuzz the bounds, build LPP ideals
and Macaulay expansions."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bounds import analyze
from .fuzz import FuzzConfig, run_fuzz, write_reproducers
from .groebner import GenericityError, IdealParseError, parse_ideal_text
from .lpp import egh_corollary_bound, egh_known_by_degrees, lpp_construct, lpp_regularity
from .macaulay import expand, green_bound
from .oracle import OracleBudgetError, betti_table
from .ring import DEFAULT_PRIME, check_prime_size, is_prime


def default_prime() -> int:
    env = os.environ.get("REGBOUND_PRIME")
    if env is None:
        return DEFAULT_PRIME
    p = int(env)
    try:
        check_prime_size(p)
    except ValueError as exc:
        raise SystemExit(f"REGBOUND_PRIME={p}: {exc}") from None
    if not is_prime(p):
        raise SystemExit(f"REGBOUND_PRIME={p} is not prime")
    return p


def cmd_analyze(args) -> int:
    try:
        with open(args.file) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        ideal = parse_ideal_text(text, default_p=default_prime())
    except IdealParseError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 2
    try:
        report = analyze(ideal, seed=args.seed, exact=args.exact)
    except (ValueError, GenericityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(report.to_json_dict(), indent=2))
    else:
        for line in report.text_lines():
            print(line)
    if args.betti:
        try:
            table = betti_table(ideal, max_dim=args.budget)
        except OracleBudgetError as exc:
            print(f"betti table unavailable: {exc}", file=sys.stderr)
            return 1
        print("betti table (rows i, entries j:dim):")
        for i, cells in table.rows():
            print(f"  {i}: " + "  ".join(f"{j}:{v}" for j, v in cells))
    if args.exact and not report.hard_verdicts_ok():
        print("SOUNDNESS VIOLATION: a bound fell below the exact regularity",
              file=sys.stderr)
        return 1
    return 0


def _parse_dim(value):
    if value is None or value in ("le1", "ge2"):
        return value
    int(value)  # raises on junk
    return value


def cmd_fuzz(args) -> int:
    try:
        cfg = FuzzConfig(
            trials=args.trials,
            seed=args.seed,
            n_min=args.n_min,
            n_max=args.n_max,
            D_min=args.D_min,
            D_max=args.D_max,
            gens_min=args.gens_min,
            gens_max=args.gens_max,
            dim_filter=_parse_dim(args.dim),
            exact_budget=args.budget,
            p=default_prime(),
            experiment=args.experiment,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    summary = run_fuzz(cfg, jobs=args.jobs)
    reproducers = write_reproducers(summary, args.out_dir)
    summary["reproducers"] = reproducers
    summary.pop("records")
    if args.json:
        print(json.dumps(summary, indent=2))
    else:
        print(
            f"trials={summary['trials']} analyzed={summary['analyzed']} "
            f"skipped_budget={summary['skipped_budget']}"
        )
        for name, cnt in summary["checks"].items():
            print(f"  {name}: pass={cnt['pass']} fail={cnt['fail']} skip={cnt['skip']}")
        egh = summary["egh_conditional"]
        print(f"  egh_conditional (logged): checked={egh['checked']} "
              f"violations={len(egh['violations'])}")
        if cfg.experiment == "weak-egh":
            weak = summary["weak_egh"]
            print(f"  weak-egh experiment: checked={weak['checked']} "
                  f"violations={len(weak['violations'])}")
        if summary["failures"]:
            print(f"FAILURES: {summary['failures']}")
            print(f"reproducers written: {reproducers}")
    return 1 if summary["failures"] else 0


def cmd_lpp(args) -> int:
    degrees = (
        [int(x) for x in args.degrees.split(",")] if args.degrees else [args.D] * args.n
    )
    if len(degrees) != args.n:
        print("error: need one power degree per variable", file=sys.stderr)
        return 2
    try:
        L = lpp_construct(args.c, args.D, degrees)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    names = [f"x{i + 1}" for i in range(args.n)]

    def mono_str(m):
        return "*".join(
            f"{names[i]}^{e}" if e > 1 else names[i] for i, e in enumerate(m) if e
        ) or "1"

    print("powers:  " + ", ".join(f"{names[i]}^{d}" for i, d in enumerate(degrees)))
    if L.segment:
        print("segment: " + ", ".join(mono_str(m) for m in L.segment))
        print(f"u = {mono_str(L.u)}  (a = {L.a}, t_a = {L.t_a})")
        print(f"reg(S/L) = {lpp_regularity(L)}")
        print(
            "EGH-conditional bound for matching ideals: "
            f"{egh_corollary_bound(args.n, args.D, L.a, L.t_a)}"
        )
    else:
        print("segment: empty (pure power ideal)")
        print(f"reg(S/L) = {sum(d - 1 for d in degrees)}")
    known = egh_known_by_degrees(sorted(degrees))
    print(f"EGH known to hold for these power degrees: {'yes' if known else 'no'}")
    return 0


def cmd_macaulay(args) -> int:
    try:
        e = expand(args.a, args.D)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"expansion of {args.a} in degree {args.D}: {e}")
    print(f"coefficients: {list(e.coefficients)}")
    if args.k is not None:
        print(f"bound after {args.k} generic hyperplane restrictions: "
              f"{green_bound(e, args.k)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="regbound",
        description="Regularity bounds for homogeneous ideals over prime fields.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="bound one ideal from a file")
    pa.add_argument("file")
    pa.add_argument("--exact", action="store_true",
                    help="compute reg(S/I) exactly and check every bound")
    pa.add_argument("--betti", action="store_true", help="print the Betti table")
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--json", action="store_true")
    pa.add_argument("--budget", type=int, default=None,
                    help="max strand matrix side for --betti's Koszul scan")
    pa.set_defaults(func=cmd_analyze)

    pf = sub.add_parser("fuzz", help="randomized soundness harness")
    pf.add_argument("--trials", type=int, required=True)
    pf.add_argument("--seed", type=int, default=0)
    pf.add_argument("--n-min", type=int, default=2)
    pf.add_argument("--n-max", type=int, default=4)
    pf.add_argument("--D-min", type=int, default=1)
    pf.add_argument("--D-max", type=int, default=3)
    pf.add_argument("--gens-min", type=int, default=1)
    pf.add_argument("--gens-max", type=int, default=None)
    pf.add_argument("--dim", default=None, help="le1, ge2, or an exact dimension")
    pf.add_argument("--experiment", choices=["weak-egh"], default=None)
    pf.add_argument("--budget", type=int, default=2000,
                    help="max strand matrix side for the Koszul cross-check")
    pf.add_argument("--jobs", type=int, default=1)
    pf.add_argument("--out-dir", default=".")
    pf.add_argument("--json", action="store_true")
    pf.set_defaults(func=cmd_fuzz)

    pl = sub.add_parser("lpp", help="build a lex-plus-powers ideal")
    pl.add_argument("--n", type=int, required=True)
    pl.add_argument("--D", type=int, required=True)
    pl.add_argument("--c", type=int, required=True)
    pl.add_argument("--degrees", default=None, help="comma-separated power degrees")
    pl.set_defaults(func=cmd_lpp)

    pm = sub.add_parser("macaulay", help="Macaulay expansion and Green bound")
    pm.add_argument("--a", type=int, required=True)
    pm.add_argument("--D", type=int, required=True)
    pm.add_argument("--k", type=int, default=None)
    pm.set_defaults(func=cmd_macaulay)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
