"""Normality degree and subgroup commutativity degree, all exact.

Three independent routes produce the same value on overlapping domains:
brute force over the full lattice, the conjugacy-class route via
normalizer indices, and (for coprime direct products) multiplicativity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .errors import ConstraintError
from .groups import GroupTable
from .lattice import SubgroupLattice, enumerate_subgroups, normalizer
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
        spec=spec_text or G.spec_text or f"<order {G.order}>",
        order=G.order,
        lattice_size=total,
        normal_count=normal,
        method=method,
    )


def ndeg_brute(
    G: GroupTable,
    spec_text: str | None = None,
    lattice: SubgroupLattice | None = None,
) -> DegreeReport:
    """Normal-subgroup count over subgroup count from the full lattice."""
    lat = lattice if lattice is not None else enumerate_subgroups(G)
    return _route_report(G, spec_text, len(lat), lat.normal_count, "brute")


def ndeg_conjugacy(
    G: GroupTable,
    spec_text: str | None = None,
    lattice: SubgroupLattice | None = None,
) -> DegreeReport:
    """Same value through class representatives and normalizer indices."""
    lat = lattice if lattice is not None else enumerate_subgroups(G)
    normal = lat.normal_count
    denom = normal
    for cls in lat.classes:
        if len(cls) > 1:
            rep = lat.subgroups[cls[0]]
            denom += G.order // normalizer(G, rep).size
    return _route_report(G, spec_text, denom, normal, "conjugacy")


def sd_brute(
    G: GroupTable,
    lattice: SubgroupLattice | None = None,
) -> Fraction:
    """Fraction of ordered subgroup pairs (H, K) whose product set is a subgroup.

    HK has t = |H||K|/|H meet K| elements, and it is a subgroup exactly when
    some subgroup of order t contains H and K (that subgroup is then HK).
    Such a subgroup contains H, so the subgroups containing H are collected
    once per tested H, grouped by order, and each K is looked up among
    those of order t. Two exact reductions leave only some non-normal pairs
    to test:

    - when H is normal, kH = Hk for every k, so HK = KH (and likewise when
      K is normal): of the k^2 ordered pairs (k = |L|, m of them
      non-normal) the k^2 - m^2 with a normal factor count without a test;
    - HK = KH exactly when H^g K^g = K^g H^g, and conjugation by g
      permutes the non-normal subgroups, so every member of a conjugacy
      class commutes with as many non-normal K as its representative does:
      only the representative is tested, and its count weighted by the
      class size.
    """
    lat = lattice if lattice is not None else enumerate_subgroups(G)
    non_normal = [(s.mask, s.size)
                  for s, normal in zip(lat.subgroups, lat.normal_flags) if not normal]
    k, m = len(lat), len(non_normal)
    ordered = k * k - m * m
    for cls in lat.classes:
        if len(cls) > 1:
            rep = lat.subgroups[cls[0]]
            mask_h, size_h = rep.mask, rep.size
            over_h: dict[int, list[int]] = {}
            for s in lat.subgroups:
                if s.mask & mask_h == mask_h:
                    over_h.setdefault(s.size, []).append(s.mask)
            hits = 0
            for mask_k, size_k in non_normal:
                t = size_h * size_k // (mask_h & mask_k).bit_count()
                for mask in over_h.get(t, ()):
                    if mask & mask_k == mask_k:
                        hits += 1
                        break
            ordered += len(cls) * hits
    return Fraction(ordered, k * k)


def is_dedekind(
    G: GroupTable,
    lattice: SubgroupLattice | None = None,
) -> bool:
    """True when every subgroup is normal."""
    lat = lattice if lattice is not None else enumerate_subgroups(G)
    return lat.normal_count == len(lat)


def pgroup_bound_check(
    G: GroupTable,
    lattice: SubgroupLattice | None = None,
) -> tuple[Fraction, bool]:
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
    lat = lattice if lattice is not None else enumerate_subgroups(G)
    normal = lat.normal_count
    multi = sum(1 for cls in lat.classes if len(cls) > 1)
    bound = Fraction(normal, normal + p * multi)
    ndeg = Fraction(normal, len(lat))
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
    order = 1
    lattice_size = 1
    normal = 1
    for part in parts:
        order *= part.order
        lattice_size *= part.lattice_size
        normal *= part.normal_count
    return DegreeReport(
        spec=" x ".join(part.spec for part in parts),
        order=order,
        lattice_size=lattice_size,
        normal_count=normal,
        method="product",
    )
