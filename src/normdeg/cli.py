"""Command-line front end: compute, verify, density, conjecture43, limits, ledger.

All tabular output is TSV on stdout with exact fraction strings; diagnostics
go to stderr.  Exit codes: 0 success, 1 usage or parse error, 2 constraint
violation, 3 enumeration cap exceeded, 4 verification mismatch.
"""

from __future__ import annotations

import argparse
import functools
import sys
from collections.abc import Iterable
from fractions import Fraction
from time import perf_counter

from . import explorer
from .errors import (CapExceededError, ConstraintError, SieveExhaustedError,
                     SpecParseError)
from .groups import build, parse_spec  # build: read by benchmark/test_benchmark.py:84
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
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _write(header: list[str], rows: Iterable[Iterable[object]]) -> None:
    """Write a TSV table of exact values: int, Fraction (as num/den), str, or
    None (as -). Every cell is formatted before the first line is written, so
    a value past Python's integer-string digit limit leaves stdout empty."""
    try:
        lines = [header] + [["-" if v is None else format_ratio(v)
                             if isinstance(v, Fraction) else str(v) for v in row]
                            for row in rows]
    except ValueError:
        raise ConstraintError("exact value too long to print",
                              "past Python's integer-string digit limit") from None
    sys.stdout.write("".join("\t".join(line) + "\n" for line in lines))


# ---------------------------------------------------------------------------
# subcommand handlers

def cmd_compute(args: argparse.Namespace) -> int:
    start = perf_counter()
    report = explorer.degree_report(parse_spec(args.spec), args.method, args.sd, args.cap)
    report.elapsed_ms = int((perf_counter() - start) * 1000)
    _write(["spec", "order", "lattice_size", "normal_count", "ndeg", "sd",
            "method", "elapsed_ms"],
           [[report.spec, report.order, report.lattice_size, report.normal_count,
             report.ndeg, report.sd, report.method, report.elapsed_ms]])
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
    mismatches = sum(not row.ok for row in rows)
    _write(["family", "params", "check", "formula", "brute", "status"],
           ([row.family, row.params, row.check, row.formula_value, row.brute_value,
             "ok" if row.ok else "mismatch"] for row in rows))
    print(f"{len(rows)} comparisons, {mismatches} mismatches, "
          f"{skipped} tuples beyond cap", file=sys.stderr)
    if not rows:  # a run that compared nothing verified nothing
        return EXIT_CAP if skipped else EXIT_USAGE
    return EXIT_MISMATCH if mismatches else EXIT_OK


def cmd_density(args: argparse.Namespace) -> int:
    try:
        target = parse_ratio(args.target)
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecParseError(f"bad target {args.target!r}: {exc}", 0)
    steps = explorer.density_sequence(target, steps=args.steps)
    _write(["step", "group", "ndeg", "target", "gap"],
           ([s.index, " x ".join(s.factor_specs), s.ndeg, s.target, s.gap]
            for s in steps))
    return EXIT_OK


def cmd_conjecture43(args: argparse.Namespace) -> int:
    rows = explorer.conjecture_witness_rows(args.a_max, args.order_cap)
    _write(["a", "target", "criterion_witness", "catalog_witness"],
           ([r.a, r.target, r.criterion_witness or "none found",
             r.catalog_witness or "none found"] for r in rows))
    return EXIT_OK


def cmd_limits(args: argparse.Namespace) -> int:
    rows = explorer.limits_rows(args.family, args.p, args.n_max)
    header = ["n", "ndeg", "distance"]
    if args.decimals is not None:
        header.append("approx")
        rows = [[*row, f"{float(row[1]):.{args.decimals}f}"] for row in rows]
    _write(header, rows)
    return EXIT_OK


def cmd_ledger(args: argparse.Namespace) -> int:
    try:
        summary = explorer.ledger_summarize(args.path)
    except OSError as exc:
        print(f"cannot read ledger: {exc}", file=sys.stderr)
        return EXIT_USAGE
    _write(["section", "key", "value"],
           [["records", None, summary["records"]],
            ["malformed", None, summary["malformed"]],
            *(["method", *item] for item in summary["by_method"].items()),
            *(["family", *item] for item in summary["by_family"].items()),
            *(["ndeg", *item] for item in summary["ndeg_values"])])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring

@functools.cache  # built once, at the first main() call: importing cli stays cheap
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
    p.add_argument("--cap", type=_nonnegative_int, default=explorer.DEFAULT_CAP,
                   help="enumeration cap on the group order")
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("verify", help="closed forms against brute force")
    p.add_argument("--family", required=True, choices=explorer.VERIFY_FAMILIES)
    p.add_argument("--range", help="override ranges, e.g. 'p=2..3,n=3..20'")
    p.add_argument("--cap", type=_nonnegative_int, default=explorer.DEFAULT_CAP)
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
    p.add_argument("--family", required=True, choices=explorer.SEQUENCES)
    p.add_argument("--p", type=int, help="the prime p of the members' orders p**n (default: "
                   "the sequence's own, 3 for mpn; the 2-group sequences take only 2)")
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
