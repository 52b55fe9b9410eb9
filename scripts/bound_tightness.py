#!/usr/bin/env python3
"""Measure how tight the split-metacyclic degree bounds are on a grid.

For every valid SDP(p,n,k0) with p in a small prime set and n up to a
limit, prints the exact degree next to its upper and two lower bounds,
then reports equality counts and the worst slack on stderr.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from normdeg.formulas import semidirect_bounds
from normdeg.groups import family_params, sdp_counts
from normdeg.numtheory import format_ratio, is_prime


def grid(primes: list[int], n_max: int):
    params = family_params("SDP", max(primes) * n_max)
    for p in primes:
        for q, n, k0 in params:
            if q == p and n <= n_max:
                yield p, n, k0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--primes", default="2,3,5",
                        help="comma-separated twist orders (default 2,3,5)")
    parser.add_argument("--n-max", type=int, default=40,
                        help="largest rotation order (default 40)")
    args = parser.parse_args(argv)
    try:
        primes = [int(part) for part in args.primes.split(",")]
    except ValueError:
        parser.error(f"bad prime list {args.primes!r}")
    composite = [p for p in primes if not is_prime(p)]
    if composite:
        parser.error(f"twist orders must be prime, got {composite}")

    print("p\tn\tk0\tndeg\tupper\tlower_sigma\tlower_index")
    sigma_tight = index_tight = upper_tight = total = 0
    worst_gap = Fraction(0)
    worst_at = None
    for p, n, k0 in grid(primes, args.n_max):
        subgroups, normal = sdp_counts(p, n, k0)
        nd = Fraction(normal, subgroups)
        b = semidirect_bounds(p, n, k0)
        print(f"{p}\t{n}\t{k0}\t{format_ratio(nd)}\t{format_ratio(b.upper)}"
              f"\t{format_ratio(b.lower_sigma)}\t{format_ratio(b.lower_index)}")
        total += 1
        sigma_tight += nd == b.lower_sigma
        index_tight += nd == b.lower_index
        upper_tight += nd == b.upper
        gap = b.upper - nd
        if gap > worst_gap:
            worst_gap, worst_at = gap, (p, n, k0)

    print(f"{total} parameter triples", file=sys.stderr)
    print(f"lower_sigma tight on {sigma_tight}, lower_index tight on "
          f"{index_tight}, upper tight on {upper_tight}", file=sys.stderr)
    if worst_at is not None:
        print(f"largest upper-bound slack {format_ratio(worst_gap)} at "
              f"SDP{worst_at}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
