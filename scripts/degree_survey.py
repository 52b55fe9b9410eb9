#!/usr/bin/env python3
"""Survey normality degrees across the built-in group catalog.

Prints one TSV row per group plus a distribution summary on stderr: how
many distinct degree values occur, which groups sit at the extremes, and
what fraction of the catalog is Dedekind.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter

from normdeg.errors import ConstraintError
from normdeg.explorer import catalog_specs, degree_report
from normdeg.groups import parse_spec
from normdeg.numtheory import format_ratio


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--order-cap", type=int, default=64,
                        help="largest group order to include (default 64)")
    args = parser.parse_args(argv)
    try:
        catalog = catalog_specs(args.order_cap)
    except ConstraintError as exc:
        parser.error(str(exc))

    rows = [(spec, order, degree_report(parse_spec(spec), cap=args.order_cap).ndeg)
            for spec, order in catalog]

    print("spec\torder\tndeg")
    for spec, order, nd in rows:
        print(f"{spec}\t{order}\t{format_ratio(nd)}")

    values = Counter(nd for _, _, nd in rows)
    dedekind = sum(1 for _, _, nd in rows if nd == 1)
    low = min(rows, key=lambda r: r[2])
    print(f"{len(rows)} groups, {len(values)} distinct degree values",
          file=sys.stderr)
    print(f"dedekind: {dedekind}/{len(rows)}", file=sys.stderr)
    print(f"minimum: {format_ratio(low[2])} at {low[0]}", file=sys.stderr)
    common = ", ".join(f"{format_ratio(v)} ({c})"
                       for v, c in values.most_common(5))
    print(f"most common values: {common}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
