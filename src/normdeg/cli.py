"""Command-line front end: compute, verify, density, conjecture43, limits, ledger.

All tabular output is TSV on stdout with exact fraction strings; diagnostics
go to stderr.  Exit codes: 0 success, 1 usage or parse error, 2 constraint
violation, 3 enumeration cap exceeded, 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from time import perf_counter

from . import explorer
from .degrees import DegreeReport, ndeg_brute, ndeg_conjugacy, sd_brute
from .errors import (CapExceededError, ConstraintError, SieveExhaustedError,
                     SpecParseError)
from .formulas import Family, formula_counts
from .groups import build, parse_spec
from .lattice import DEFAULT_CAP, enumerate_subgroups
from .numtheory import format_ratio, parse_ratio

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONSTRAINT = 2
EXIT_CAP = 3
EXIT_MISMATCH = 4


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _emit(row: list[str]) -> None:
    sys.stdout.write("\t".join(row) + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_compute(args: argparse.Namespace) -> int:
    start = perf_counter()
    spec = parse_spec(args.spec)
    text = spec.render()
    method = args.method
    counts = formula_counts(spec)
    if method == "auto":
        method = "formula" if counts is not None else "brute"
    if method == "formula" and counts is None:
        raise ConstraintError("no closed form for this spec; "
                              "use --method brute", text)
    sd = None
    if method != "formula" or args.sd:
        table = build(spec)
        lattice = enumerate_subgroups(table, cap=args.cap)
        if method != "formula":
            route = ndeg_brute if method == "brute" else ndeg_conjugacy
            found = route(table, spec_text=text, lattice=lattice, cap=args.cap)
            counts = found.lattice_size, found.normal_count
        if args.sd:
            sd = sd_brute(table, lattice=lattice, cap=args.cap)
    total, normal = counts
    report = DegreeReport(
        spec=text, order=spec.order(), lattice_size=total, normal_count=normal,
        ndeg=Fraction(normal, total), sd=sd, method=method,
        elapsed_ms=int((perf_counter() - start) * 1000))
    header = ["spec", "order", "lattice_size", "normal_count", "ndeg", "sd",
              "method", "elapsed_ms"]
    _emit(header)
    _emit([report.spec, str(report.order), str(report.lattice_size),
           str(report.normal_count), format_ratio(report.ndeg),
           format_ratio(report.sd) if report.sd is not None else "-",
           report.method, str(report.elapsed_ms)])
    if args.ledger:
        try:
            explorer.ledger_append(args.ledger, report)
        except OSError as exc:
            print(f"cannot write ledger: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK


def _parse_ranges(text: str) -> dict[str, tuple[int, int]]:
    out: dict[str, tuple[int, int]] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        key, _, value = part.partition("=")
        if not _:
            raise SpecParseError(f"range entry {part!r} needs key=value", 0)
        lo, dots, hi = value.partition("..")
        try:
            bounds = (int(lo), int(hi)) if dots else (int(lo), int(lo))
        except ValueError:
            raise SpecParseError(f"range entry {part!r} needs integers", 0)
        out[key.strip()] = bounds
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    ranges = _parse_ranges(args.range) if args.range else None
    rows, skipped = explorer.verify_grid(args.family, ranges, cap=args.cap)
    _emit(["family", "params", "check", "formula", "brute", "status"])
    mismatches = 0
    for row in rows:
        ok = row.ok
        mismatches += 0 if ok else 1
        _emit([row.family, row.params, row.check, str(row.formula_value),
               str(row.brute_value), "ok" if ok else "mismatch"])
    print(f"{len(rows)} comparisons, {mismatches} mismatches, "
          f"{skipped} tuples beyond cap", file=sys.stderr)
    return EXIT_MISMATCH if mismatches else EXIT_OK


def cmd_density(args: argparse.Namespace) -> int:
    try:
        target = parse_ratio(args.target)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecParseError(f"bad target {args.target!r}: {exc}", 0)
    steps = explorer.density_sequence(target, steps=args.steps)
    _emit(["step", "group", "ndeg", "target", "gap"])
    for s in steps:
        _emit([str(s.index), " x ".join(s.factor_specs), format_ratio(s.ndeg),
               format_ratio(s.target), format_ratio(s.gap)])
    return EXIT_OK


def cmd_conjecture43(args: argparse.Namespace) -> int:
    rows = explorer.conjecture_witness_rows(args.a_max, args.order_cap)
    _emit(["a", "target", "criterion_witness", "catalog_witness"])
    for r in rows:
        _emit([str(r.a), format_ratio(r.target),
               r.criterion_witness or "none found",
               r.catalog_witness or "none found"])
    return EXIT_OK


def cmd_limits(args: argparse.Namespace) -> int:
    family = explorer.PRIME_POWER_FAMILIES[args.family]
    p = args.p if args.p is not None else (3 if family is Family.MODULAR else 2)
    rows = explorer.limits_rows(family, p, args.n_max)
    header = ["n", "ndeg", "distance"]
    if args.decimals is not None:
        header.append("approx")
    _emit(header)
    for n, nd, dist in rows:
        row = [str(n), format_ratio(nd), format_ratio(dist)]
        if args.decimals is not None:
            row.append(f"{float(nd):.{args.decimals}f}")
        _emit(row)
    return EXIT_OK


def cmd_ledger(args: argparse.Namespace) -> int:
    try:
        summary = explorer.ledger_summarize(args.path)
    except OSError as exc:
        print(f"cannot read ledger: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _emit(["section", "key", "value"])
    _emit(["records", "-", str(summary["records"])])
    _emit(["malformed", "-", str(summary["malformed"])])
    for method, count in summary["by_method"].items():
        _emit(["method", method, str(count)])
    for fam, count in summary["by_family"].items():
        _emit(["family", fam, str(count)])
    for value, count in summary["ndeg_values"]:
        _emit(["ndeg", value, str(count)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring

def build_parser() -> _Parser:
    parser = _Parser(prog="normdeg",
                     description="Exact normality degrees of finite groups.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("compute", help="degree of one group spec")
    p.add_argument("--spec", required=True, help="group spec, e.g. 'Sym(3) x C(2)'")
    p.add_argument("--method", choices=("brute", "conjugacy", "formula", "auto"),
                   default="auto")
    p.add_argument("--sd", action="store_true",
                   help="also compute the subgroup commutativity degree")
    p.add_argument("--ledger", help="append the result to this JSONL file")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP,
                   help="enumeration cap on the group order")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="closed forms against brute force")
    p.add_argument("--family", required=True, choices=explorer.VERIFY_FAMILIES)
    p.add_argument("--range", help="override ranges, e.g. 'p=2..3,n=3..20'")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("density", help="group sequence approaching a target")
    p.add_argument("--target", required=True, help="rational target a/b in [0,1]")
    p.add_argument("--steps", type=int, default=20)
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("conjecture43", help="witnesses with degree a/(a+1)")
    p.add_argument("--a-max", type=int, default=6)
    p.add_argument("--order-cap", type=int, default=200)
    p.set_defaults(func=cmd_conjecture43)

    p = sub.add_parser("limits", help="family degree sequence and its limit")
    p.add_argument("--family", required=True, choices=sorted(explorer.PRIME_POWER_FAMILIES))
    p.add_argument("--p", type=int, help="prime for the modular family (default 3)")
    p.add_argument("--n-max", type=int, default=20)
    p.add_argument("--decimals", type=_nonnegative_int,
                   help="add a float approximation column with this precision")
    p.set_defaults(func=cmd_limits)

    p = sub.add_parser("ledger", help="ledger file utilities")
    lsub = p.add_subparsers(dest="ledger_command", required=True,
                            parser_class=_Parser)
    ps = lsub.add_parser("summarize", help="aggregate a JSONL ledger")
    ps.add_argument("path")
    ps.set_defaults(func=cmd_ledger)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SpecParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return EXIT_CAP
    except SieveExhaustedError as exc:
        print(f"prime sieve limit: {exc}", file=sys.stderr)
        return EXIT_CAP
    except ConstraintError as exc:
        print(f"constraint violation: {exc}", file=sys.stderr)
        return EXIT_CONSTRAINT


if __name__ == "__main__":
    sys.exit(main())
