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
from normdeg.groups import Sequence, sequence

# row label of each sequence in the race, which runs at its default prime
RACERS = {
    "mpn": "M(3^n)",
    "dihedral2n": "Dih 2-groups",
    "quaternion2n": "Q 2-groups",
    "semidihedral2n": "SD 2-groups",
}


def first_crossing(seq: Sequence, threshold: Fraction, n_limit: int) -> int | None:
    for n in range(1, n_limit + 1):
        try:
            distance = abs(seq.ndeg(seq.prime, n) - seq.limit)
        except ConstraintError:  # below the sequence's first member
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
    for name, label in RACERS.items():
        seq = sequence(name)
        cells = []
        for k in range(1, args.depth + 1):
            n = first_crossing(seq, Fraction(1, 10 ** k), args.n_limit)
            cells.append(str(n) if n is not None else ">limit")
        print(f"{label}\t{seq.limit}\t" + "\t".join(cells))
    print("cells hold the first exponent n whose distance to the limit "
          "is below the column threshold", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
