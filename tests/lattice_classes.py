"""Conjugacy classes of a lattice, as index tuples into its canonical order.

The degree routes read `SubgroupLattice.orbits` as they come; the tests
that pin or compare whole lattices read the classes in the canonical order
of `SubgroupLattice.subgroups`, built here.
"""

from __future__ import annotations


def classes(lat) -> list[tuple[int, ...]]:
    """Each orbit as the sorted indices of its masks in `lat.subgroups`,
    orbits ordered by their smallest index, the representative."""
    position = {s.mask: i for i, s in enumerate(lat.subgroups)}
    return sorted(tuple(sorted(map(position.__getitem__, orbit))) for orbit in lat.orbits)
