"""Subgroup lattice enumeration and normality structure.

Subgroups are bitsets over element ids (Python ints), so set algebra is
single int operations. Enumeration is cyclic extension (Neubueser 1960)
over conjugacy-class representatives: each subgroup is found as <H, g>
for a representative H of one of its maximal subgroups, and its whole
conjugacy class is registered at once, so the classes come out of the
search itself.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError
from .groups import GroupTable, closure
from .numtheory import factorize

DEFAULT_CAP = 512


@dataclass(frozen=True)
class SubgroupSet:
    """One subgroup as a bitset; bit i set means element i belongs."""

    mask: int
    size: int

    def __contains__(self, element: int) -> bool:
        return bool(self.mask >> element & 1)

    def elements(self) -> list[int]:
        return _mask_elements(self.mask)


def _mask_elements(mask: int) -> list[int]:
    out = []
    while mask:
        b = mask & -mask
        out.append(b.bit_length() - 1)
        mask ^= b
    return out


def _apply_perm(mask: int, perm: list[int]) -> int:
    out = 0
    while mask:
        b = mask & -mask
        out |= 1 << perm[b.bit_length() - 1]
        mask ^= b
    return out


def _conjugation_perms(G: GroupTable) -> list[list[int]]:
    """Permutations h -> g h g^-1 for each generator g of G."""
    rows = G.rows
    inv = G.inv.tolist()
    perms = []
    for g in G.generators():
        gi = inv[g]
        rowg = rows[g]
        perms.append([rows[rowg[h]][gi] for h in range(G.order)])
    return perms


def _conjugates(mask: int, perms: list[list[int]]) -> set[int]:
    """Every conjugate of a subgroup, closing its mask under the conjugation perms."""
    seen = {mask}
    frontier = [mask]
    while frontier:
        m = frontier.pop()
        for perm in perms:
            cm = _apply_perm(m, perm)
            if cm not in seen:
                seen.add(cm)
                frontier.append(cm)
    return seen


class SubgroupLattice:
    """Complete list of subgroups with conjugation structure.

    `subgroups` is in canonical order: by size, then by sorted member
    tuple. `classes` partitions indices into conjugacy orbits, each orbit
    sorted, orbits ordered by their smallest index (the representative).
    """

    def __init__(self, group: GroupTable, subgroups: list[SubgroupSet], classes: list[tuple[int, ...]]):
        self.group = group
        self.subgroups = subgroups
        self.classes = classes
        self.normal_flags = [False] * len(subgroups)
        for cls in classes:
            if len(cls) == 1:
                self.normal_flags[cls[0]] = True

    def __len__(self) -> int:
        return len(self.subgroups)

    @property
    def normal_count(self) -> int:
        return sum(self.normal_flags)


def _power_map(rows: list[list[int]], e: int) -> list[int]:
    """The map g -> g^e on every element, by square-and-multiply."""
    result = [0] * len(rows)
    base = list(range(len(rows)))
    while e:
        if e & 1:
            result = [rows[a][b] for a, b in zip(result, base)]
        base = [rows[b][b] for b in base]
        e >>= 1
    return result


def enumerate_subgroups(G: GroupTable, cap: int = DEFAULT_CAP) -> SubgroupLattice:
    """All subgroups of G; raises CapExceededError when G.order > cap.

    Cyclic extension over class representatives, from the trivial subgroup
    up: for a representative H and an element g outside H that normalizes
    H with g^p in H for a prime p, K = H<g> has H as a normal subgroup of
    index p, and K's whole conjugacy class is registered at once. The
    elements of K, and of each coset Hg that gives no extension, are not
    tried again for H. This reaches exactly the subgroups with a chain of
    normal prime-index steps up from 1, so it reaches G exactly when G is
    solvable. Otherwise a second pass also takes <H, g> for g outside
    N(H), skipping its double coset HgH; that pass is complete, because
    every subgroup K > 1 is <M, g> for any maximal M < K and any g in K
    outside M.
    """
    n = G.order
    if n > cap:
        raise CapExceededError(n, cap)
    rows = G.rows
    inv = G.inv.tolist()
    perms = _conjugation_perms(G)
    power_maps = [(p, _power_map(rows, p)) for p, _ in factorize(n)]
    full = (1 << n) - 1
    found: set[int] = set()
    orbits: list[set[int]] = []
    reps: list[tuple[int, tuple[int, ...]]] = []

    def register(mask: int, gens: tuple[int, ...]) -> None:
        if mask not in found:
            orbit = _conjugates(mask, perms)
            found.update(orbit)
            orbits.append(orbit)
            reps.append((mask, gens))

    def coset(elems: list[int], g: int) -> int:
        out = 0
        for h in elems:
            out |= 1 << rows[h][g]
        return out

    register(1, ())
    for general in (False, True):
        if full in found:
            break
        for mask, gens in reps:  # the list grows while it is walked
            elems = _mask_elements(mask)
            rest = full ^ mask
            while rest:
                g = (rest & -rest).bit_length() - 1
                gi = inv[g]
                rowg = rows[g]
                skip = coset(elems, g)  # every hg gives what g gives
                if all(mask >> rows[rowg[h]][gi] & 1 for h in gens):
                    for p, power in power_maps:
                        if mask >> power[g] & 1:
                            x = g
                            for _ in range(p - 2):
                                x = rows[x][g]
                                skip |= coset(elems, x)
                            register(skip | mask, gens + (g,))
                            break
                elif general:
                    register(closure(rows, gens + (g,))[0], gens + (g,))
                    for h in elems:
                        skip |= coset(elems, rowg[h])
                rest &= ~skip

    masks = sorted(found, key=lambda m: (m.bit_count(), _mask_elements(m)))
    position = {m: i for i, m in enumerate(masks)}
    classes = sorted(tuple(sorted(position[m] for m in orbit)) for orbit in orbits)
    subgroups = [SubgroupSet(m, m.bit_count()) for m in masks]
    return SubgroupLattice(G, subgroups, classes)


def is_normal(G: GroupTable, H: SubgroupSet) -> bool:
    """True when every generator of G conjugates H onto itself."""
    for perm in _conjugation_perms(G):
        if _apply_perm(H.mask, perm) != H.mask:
            return False
    return True


def normalizer(G: GroupTable, H: SubgroupSet) -> SubgroupSet:
    """Largest subgroup in which H is normal, computed per definition."""
    in_h = np.zeros(G.order, dtype=bool)
    in_h[H.elements()] = True
    conj = G.mul[G.mul[:, in_h], G.inv[:, None]]  # row g: g h g^-1 for h in H
    flags = in_h[conj].all(axis=1)
    mask = int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")
    return SubgroupSet(mask, int(flags.sum()))


def core(G: GroupTable, H: SubgroupSet) -> SubgroupSet:
    """Intersection of all conjugates of H: the largest normal subgroup inside H."""
    acc = H.mask
    for m in _conjugates(H.mask, _conjugation_perms(G)):
        acc &= m
    return SubgroupSet(acc, acc.bit_count())


def fix_points(G: GroupTable, lattice: SubgroupLattice) -> tuple[set[int], set[int]]:
    """Indices fixed by conjugation (singleton orbits) and by the core map.

    Both sets coincide with the normal subgroups; the two are computed
    through different routes so the equality stays a real check.
    """
    fix_conj = {cls[0] for cls in lattice.classes if len(cls) == 1}
    fix_core = {
        i
        for i, s in enumerate(lattice.subgroups)
        if core(G, s).mask == s.mask
    }
    return fix_conj, fix_core


def subgroup_table(G: GroupTable, H: SubgroupSet) -> GroupTable:
    """Standalone multiplication table of a subgroup, reindexed from 0."""
    elems = H.elements()
    local = {e: i for i, e in enumerate(elems)}
    rows = G.rows
    table = [[local[rows[a][b]] for b in elems] for a in elems]
    return GroupTable(table)
