"""Normality degree and subgroup commutativity degree, all exact.

Three independent routes produce the same ndeg on overlapping domains:
brute force over the full lattice, the conjugacy-class route via
normalizer indices, and (for coprime direct products) multiplicativity.
sd has one route, `sd_brute`: two float32 products over the 0/1 subgroup
membership matrix test each non-normal class against every subgroup.
Every route but the coprime product reads the conjugacy orbits of a lattice
its caller enumerated, as they come: one unsorted lattice serves them all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations

import numpy as np

from .errors import ConstraintError
from .groups import GroupTable
from .lattice import SubgroupLattice, membership, normalizer
from .numtheory import factorize, format_ratio

METHODS = ("brute", "conjugacy", "formula", "product")


@dataclass
class DegreeReport:
    """Result bundle for one group; ndeg is normal_count/lattice_size exactly."""

    spec: str
    order: int
    lattice_size: int
    normal_count: int
    sd: Fraction | None = None
    method: str = "brute"
    elapsed_ms: int = 0

    @property
    def ndeg(self) -> Fraction:
        return Fraction(self.normal_count, self.lattice_size)

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if not 0 < self.ndeg <= 1:
            raise ValueError("ndeg out of range (0, 1]")
        if self.sd is not None and not self.ndeg <= self.sd <= 1:
            raise ValueError("sd out of range [ndeg, 1]")

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec,
            "order": self.order,
            "lattice_size": self.lattice_size,
            "normal_count": self.normal_count,
            "ndeg": format_ratio(self.ndeg),
            "sd": format_ratio(self.sd) if self.sd is not None else None,
            "method": self.method,
            "elapsed_ms": self.elapsed_ms,
        }


def _route_report(G: GroupTable, spec_text: str | None, total: int, normal: int,
                  method: str) -> DegreeReport:
    return DegreeReport(
        spec=spec_text or f"<order {G.order}>",
        order=G.order,
        lattice_size=total,
        normal_count=normal,
        method=method,
    )


def ndeg_brute(G: GroupTable, lattice: SubgroupLattice,
               spec_text: str | None = None) -> DegreeReport:
    """Normal-subgroup count over subgroup count from G's full lattice.

    The report names the group `spec_text`, or `<order n>` without one.
    """
    return _route_report(G, spec_text, len(lattice), lattice.normal_count, "brute")


def ndeg_conjugacy(G: GroupTable, lattice: SubgroupLattice,
                   spec_text: str | None = None) -> DegreeReport:
    """Same value through class representatives: each orbit of more than one
    mask H counts |G : N(H)|, N(H) found afresh, so a split orbit shows."""
    reps = [max(orbit) for orbit in lattice.orbits if len(orbit) > 1]
    denom = lattice.normal_count + sum(G.order // m.bit_count() for m in normalizer(G, reps))
    return _route_report(G, spec_text, denom, lattice.normal_count, "conjugacy")


def sd_brute(G: GroupTable, lattice: SubgroupLattice) -> Fraction:
    """Fraction of ordered subgroup pairs (H, K) whose product set is a subgroup.

    HK has |H||K|/|H meet K| elements and lies in <H, K>, so it is a subgroup
    exactly when |<H, K> : K| = |H : H meet K|. Two exact reductions leave
    only some pairs to test (k = |L|, m of them non-normal):

    - when H is normal, HK = KH for every K: the k(k - m) pairs with H
      normal count untested. A normal K passes the test too; it stays in,
      as a column costs less than selecting the other columns out;
    - conjugation permutes the non-normal subgroups and keeps HK = KH, so
      each class member commutes with as many K as its representative:
      only that one is tested, weighted by the class size.

    M is the k x n 0/1 membership matrix, the non-normal representatives
    (each orbit's largest mask) first, unpacked in blocks of rows multiplied
    while in cache: M[reps] M^T gives |H meet S|, so H <= S, for each tested
    H; M[cols] M^T gives K <= S for the S above some H. The least |S : K|
    over the S above H and K is |<H, K> : K|. Every value is an integer of
    at most n < 2^24 (any table in memory): exact in float32.
    """
    k, m = len(lattice), len(lattice) - lattice.normal_count
    if not m:
        return Fraction(1)
    multi = [orbit for orbit in lattice.orbits if len(orbit) > 1]
    reps = [max(orbit) for orbit in multi]  # top masks share supergroups: fewer columns
    masks = reps + list(set(chain(*lattice.orbits)).difference(reps))
    rows = membership(masks, G.order)  # M, as uint8
    step = max(1, (1 << 20) // G.order)  # 4 MB float32 blocks of M

    def meets(picked):  # M[picked] M^T: |A meet S| for each picked A and every S
        left = rows[picked].astype(np.float32)
        return np.concatenate([left @ rows[i:i + step].astype(np.float32).T
                               for i in range(0, k, step)], axis=1)

    sizes = np.array([mask.bit_count() for mask in masks], np.float32)
    size_h = sizes[:len(reps), None]
    meet = meets(slice(len(reps)))
    over = meet == size_h
    cols = over.any(axis=0).nonzero()[0]
    index = np.where(meets(cols) == sizes, sizes[cols, None] / sizes, np.inf)  # |S : K| if K <= S
    join = np.array([index[above].min(axis=0) for above in over[:, cols]])  # |<H, K> : K|
    hits = (join == size_h / meet).sum(axis=1)
    return Fraction(k * (k - m) + int(hits @ list(map(len, multi))), k * k)


def pgroup_bound_check(G: GroupTable, lattice: SubgroupLattice) -> tuple[Fraction, bool]:
    """Upper bound |N|/(|N| + p*s) for p-groups, and whether ndeg meets it.

    s counts conjugacy classes with at least two members; each such orbit
    has size at least p in a p-group.
    """
    fac = factorize(G.order)
    if len(fac) != 1:
        raise ConstraintError(
            "p-group bound needs a p-group", f"order {G.order} is not a prime power"
        )
    p = fac[0][0]
    normal = lattice.normal_count
    multi = sum(len(orbit) > 1 for orbit in lattice.orbits)
    bound = Fraction(normal, normal + p * multi)
    ndeg = Fraction(normal, len(lattice))
    return bound, ndeg <= bound


def ndeg_coprime_product(parts: list[DegreeReport]) -> DegreeReport:
    """Combine reports of pairwise coprime factors multiplicatively."""
    if not parts:
        raise ValueError("need at least one factor report")
    for a, b in combinations(parts, 2):
        if math.gcd(a.order, b.order) != 1:
            raise ConstraintError(
                "coprime product needs pairwise coprime orders",
                f"{a.spec} (order {a.order}) and {b.spec} (order {b.order})",
            )
    return DegreeReport(
        spec=" x ".join(part.spec for part in parts),
        order=math.prod(part.order for part in parts),
        lattice_size=math.prod(part.lattice_size for part in parts),
        normal_count=math.prod(part.normal_count for part in parts),
        method="product",
    )
