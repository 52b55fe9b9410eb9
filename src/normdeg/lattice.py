"""Subgroup lattice enumeration and normality structure.

Subgroups are bitsets over element ids (Python ints), so set algebra is
single int operations. Enumeration seeds with every cyclic subgroup and
closes the collection under pairwise join until a fixed point; a join is
computed by a generator worklist with Lagrange-based size pruning.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapExceededError
from .groups import GroupTable, closure
from .numtheory import divisors

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

    def min_container_size(self, mask: int) -> int:
        """Size of the smallest subgroup containing `mask` (the join, since
        the lattice is complete and canonical order is size-ascending)."""
        for s in self.subgroups:
            if s.mask | mask == s.mask:
                return s.size
        raise ValueError("mask not contained in the full group")


def enumerate_subgroups(G: GroupTable, cap: int = DEFAULT_CAP) -> SubgroupLattice:
    """All subgroups of G; raises CapExceededError when G.order > cap."""
    n = G.order
    if n > cap:
        raise CapExceededError(n, cap)
    rows = G.rows
    full_mask = (1 << n) - 1
    divs = divisors(n)

    masks: list[int] = []
    sizes: list[int] = []
    genlists: list[tuple[int, ...]] = []
    index: dict[int, int] = {}
    by_size: dict[int, list[int]] = {}

    def register(mask: int, size: int, gens: tuple[int, ...]) -> int:
        idx = index.get(mask)
        if idx is None:
            idx = len(masks)
            index[mask] = idx
            masks.append(mask)
            sizes.append(size)
            genlists.append(gens)
            by_size.setdefault(size, []).append(idx)
        return idx

    # seed: all distinct cyclic subgroups, remembering <g> for every element
    cyc_mask = [0] * n
    cyc_size = [0] * n
    for g in range(n):
        mask = 1
        x = g
        while not mask >> x & 1:
            mask |= 1 << x
            x = rows[x][g]
        cyc_mask[g] = mask
        cyc_size[g] = mask.bit_count()
        register(mask, cyc_size[g], (g,) if g else ())

    gcd = math.gcd

    def join(i: int, j: int) -> None:
        a = masks[i]
        b = masks[j]
        union = a | b
        if union == a or union == b:
            return
        if union in index:  # the union happens to be closed already
            return
        sa = sizes[i]
        sb = sizes[j]
        gi = genlists[i]
        gj = genlists[j]
        mx = sa if sa >= sb else sb
        # the join size divides n, is a multiple of lcm(|A|, |B|, ord(ab))
        # for any a in A, b in B, and is bounded below by the product-set
        # size |A||B|/|A meet B|, by 2*mx when neither operand contains the
        # other, and by 2*ord(ab) when a or b falls outside <ab>.
        lcm_ab = sa * sb // gcd(sa, sb)
        lb = sa * sb // (a & b).bit_count()
        if lcm_ab <= mx:
            if 2 * mx > lb:
                lb = 2 * mx
        elif lcm_ab > lb:
            lb = lcm_ab
        ae = gi[-1] if gi else 0
        be = gj[-1] if gj else 0
        c = rows[ae][be]
        oc = cyc_size[c]
        if oc > 1:
            cm = cyc_mask[c]
            if not (cm >> ae & 1 and cm >> be & 1):
                if 2 * oc > lb:
                    lb = 2 * oc
            elif oc > lb:
                lb = oc
            lcm_ab = lcm_ab * oc // gcd(lcm_ab, oc)
        cands = [d for d in divs if d >= lb and d % lcm_ab == 0]
        if len(cands) == 1:  # only the full group qualifies
            register(full_mask, n, gi + gj)
            return
        d0 = cands[0]
        bucket = by_size.get(d0)
        if bucket is not None:
            for t in bucket:
                if masks[t] & union == union:
                    return  # a known subgroup of minimal candidate size wins
        gthresh = cands[-2]  # above this the join can only be everything
        gen_list: list[int] = []
        for g in gi + gj:
            if g not in gen_list:
                gen_list.append(g)
        closed = closure(rows, gen_list, gthresh)
        if closed is None:
            register(full_mask, n, tuple(gen_list))
        else:
            register(*closed, tuple(gen_list))

    # pairwise join closure: each unordered pair is visited exactly once,
    # in the round where its larger index first exists
    prev_end = 0
    while prev_end < len(masks):
        cur_end = len(masks)
        for j in range(prev_end, cur_end):
            for i in range(j):
                join(i, j)
        prev_end = cur_end

    # canonical order
    member_lists = [_mask_elements(m) for m in masks]
    order = sorted(range(len(masks)), key=lambda t: (sizes[t], member_lists[t]))
    subgroups = [SubgroupSet(masks[t], sizes[t]) for t in order]
    position = {masks[t]: new for new, t in enumerate(order)}

    # conjugacy orbits via generator conjugation; a class's smallest index is
    # the first one no earlier class took, so classes come out in order
    perms = _conjugation_perms(G)
    seen = [False] * len(subgroups)
    classes: list[tuple[int, ...]] = []
    for start in range(len(subgroups)):
        if not seen[start]:
            orbit = sorted(position[m] for m in _conjugates(subgroups[start].mask, perms))
            for t in orbit:
                seen[t] = True
            classes.append(tuple(orbit))

    return SubgroupLattice(G, subgroups, classes)


def is_normal(G: GroupTable, H: SubgroupSet) -> bool:
    """True when every generator of G conjugates H onto itself."""
    for perm in _conjugation_perms(G):
        if _apply_perm(H.mask, perm) != H.mask:
            return False
    return True


def normalizer(G: GroupTable, H: SubgroupSet) -> SubgroupSet:
    """Largest subgroup in which H is normal, computed per definition."""
    rows = G.rows
    inv = G.inv.tolist()
    hmask = H.mask
    helems = H.elements()
    out = 0
    size = 0
    for g in range(G.order):
        gi = inv[g]
        rowg = rows[g]
        for h in helems:
            if not hmask >> rows[rowg[h]][gi] & 1:
                break
        else:
            out |= 1 << g
            size += 1
    return SubgroupSet(out, size)


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
