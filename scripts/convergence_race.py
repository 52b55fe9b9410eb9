#!/usr/bin/env python3
"""Race the prime-power families toward their limiting degrees.

For each family, reports the first exponent n at which the distance to the
limit drops below 10^-k, for k = 1..K. The modular family crawls (its
distance shrinks like 1/n) while the three 2-group families sprint
(distance shrinks like n/2^n).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from normdeg.errors import ConstraintError
from normdeg.formulas import Family, family_limit, ndeg_family

# row label and prime of each family in the race
RACERS = {
    Family.MODULAR: ("M(3^n)", 3),
    Family.DIHEDRAL: ("Dih 2-groups", 2),
    Family.QUATERNION: ("Q 2-groups", 2),
    Family.SEMIDIHEDRAL: ("SD 2-groups", 2),
}


def first_crossing(family: Family, p: int, threshold: Fraction,
                   n_limit: int) -> int | None:
    limit = family_limit(family)
    for n in range(1, n_limit + 1):
        try:
            distance = abs(ndeg_family(family, p, n) - limit)
        except ConstraintError:  # below the family's first member
            continue
        if distance < threshold:
            return n
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--depth", type=int, default=6,
                        help="check thresholds 10^-1 .. 10^-depth (default 6)")
    parser.add_argument("--n-limit", type=int, default=100000,
                        help="give up past this exponent (default 100000)")
    args = parser.parse_args(argv)
    if args.depth < 1:
        parser.error("depth must be at least 1")

    header = "family\tlimit\t" + "\t".join(
        f"1e-{k}" for k in range(1, args.depth + 1))
    print(header)
    for family, (label, p) in RACERS.items():
        cells = []
        for k in range(1, args.depth + 1):
            n = first_crossing(family, p, Fraction(1, 10 ** k), args.n_limit)
            cells.append(str(n) if n is not None else ">limit")
        print(f"{label}\t{family_limit(family)}\t" + "\t".join(cells))
    print("cells hold the first exponent n whose distance to the limit "
          "is below the column threshold", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
