"""Subgroup lattice enumeration and normalizers.

Subgroups are bitsets over element ids (Python ints). `enumerate_subgroups`
finds them by cyclic extension (Neubueser 1960), then inside the solvable
residuum G^(oo), and returns them as their conjugacy orbits, which every
degree route reads as they come; the canonical order exists only for
`SubgroupLattice.subgroups`. Enumeration reads only the table rows
(`rows[g][x]` is g*x) it multiplies by, and builds masks in C as
`sum(map(bit, elems))`. `normalizer` computes N(H) afresh for many H at once,
apart from the enumerator's own N(H). Neither walks a subgroup itself:
`groups.closure` is the one breadth-first walk, and `groups.generators` the
one greedy search for a generating set.
"""

from __future__ import annotations

from functools import cached_property, reduce
from itertools import chain
from operator import or_
from typing import NamedTuple

import numpy as np

from .groups import GroupTable, closure, generators
from .numtheory import factorize

_BITREV = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))  # byte b, its bits reversed


class SubgroupSet(NamedTuple):
    """One subgroup as a bitset; bit i set means element i belongs."""

    mask: int

    def elements(self) -> list[int]:
        return [i for i, b in enumerate(format(self.mask, "b")[::-1]) if b == "1"]


def _bit(n: int):
    """Element id -> its one-bit mask, as a lookup that runs in C under map()."""
    return [1 << i for i in range(n)].__getitem__


def _mask_of(flags: np.ndarray) -> int:
    """Bitset of a boolean array over element ids."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _conjugation_perms(G: GroupTable) -> list[list[int]]:
    """Permutations h -> g h g^-1 for each non-central generator g of G."""
    identity = np.arange(G.order)
    perms = (G.mul[G.mul[g], G.inv[g]] for g in G.generators())
    return [perm.tolist() for perm in perms if not np.array_equal(perm, identity)]


def _conjugates(elems: list[int], perms: list[list[int]], bit, size: int) -> set[int]:
    """Masks of the `size` = |G : N(H)| conjugates of the subgroup H with
    these elements; the walk stops once it holds them all."""
    seen = {sum(map(bit, elems))}
    frontier = [elems]
    while len(seen) != size:
        es = frontier.pop()
        for perm in perms:
            ces = list(map(perm.__getitem__, es))
            cm = sum(map(bit, ces))
            if cm not in seen:
                seen.add(cm)
                frontier.append(ces)
    return seen


class SubgroupLattice:
    """Every subgroup of a group of order `order`, held as its conjugacy orbits of masks.

    `len()`, `normal_count` (the one-member orbits: a subgroup is normal
    exactly when its class has one member) and the degree routes read
    `orbits`; only `subgroups`, in canonical order (by size, then by sorted
    member tuple), sorts, on its first read.
    """

    def __init__(self, order: int, orbits: list[set[int]]):
        self._order, self.orbits = order, orbits
        self.normal_count = sum(len(orbit) == 1 for orbit in orbits)

    def __len__(self) -> int:
        return sum(map(len, self.orbits))

    @cached_property
    def subgroups(self) -> list[SubgroupSet]:
        masks = sorted(chain.from_iterable(self.orbits), key=_canonical_key(self._order))
        return [SubgroupSet(m) for m in masks]


def _power_map(mul: np.ndarray, e: int) -> list[int]:
    """The map g -> g^e on every element, by square-and-multiply."""
    result = np.zeros(len(mul), dtype=mul.dtype)
    base = np.arange(len(mul))
    while e:
        if e & 1:
            result = mul[result, base]
        base = mul[base, base]
        e >>= 1
    return result.tolist()


def _canonical_key(n: int):
    """Sort key on masks of width n: by size, then as by sorted member lists."""
    # for one size the lowest element of the symmetric difference decides: the
    # mask holding it reads 0 there first in its complement, from bit 0 up, so
    # compare little-endian bytes with each byte's bits reversed
    full, width = (1 << n) - 1, (n + 7) // 8
    return lambda m: (m.bit_count(), (full ^ m).to_bytes(width, "little").translate(_BITREV))


def _residuum(G: GroupTable, perms: list[list[int]]) -> int:
    """The mask of G^(oo), the last term of G's derived series. Each term is the
    normal closure of the last one's generators' commutators: they and their
    conjugates under `perms` join one span, grown in place, if outside it."""
    mul, inv = G.mul, G.inv
    gens, size = G.generators(), G.order
    while True:
        new, span = [], (1, [0])
        pending = [int(mul[mul[a, b], mul[inv[a], inv[b]]]) for a in gens for b in gens if a < b]
        while pending:
            x = pending.pop()
            if not span[0] >> x & 1:
                new.append(x)
                span = closure(G.rows, new, span)
                pending += [perm[x] for perm in perms]
        if len(span[1]) == size:
            return span[0]
        gens, size = new, len(span[1])


def enumerate_subgroups(G: GroupTable) -> SubgroupLattice:
    """All subgroups of G, with no bound on the work: a caller taking outside input
    (`explorer.degree_report`, `verify_grid`) checks its cap before building G.

    Cyclic extension over class representatives, from the trivial subgroup
    up: for a representative H and g in N(H) outside H with g^p in H for a
    prime p, K = H<g> has H as a normal subgroup of index p, and K's whole
    conjugacy class is registered at once. The walk covers N(H) outside H
    one left coset gH = Hg at a time, as each element of gH gives what g
    gives; N(H) is G for a one-member class, else the g that conjugate each
    generator of H into H. It skips each coset with no g^p in H, as for g in
    N(H) (gh)^p is in g^p H. Once it reaches K, it skips every K' in K's
    class with H <= K': each g' in N(H) inside K' outside H gives a subgroup
    H<g'> of K' above H, and [K' : H] = p is prime, so H<g'> = K', already
    registered. This reaches exactly the subgroups with a chain of normal
    prime-index steps up from 1, so it reaches G exactly when G is solvable.
    Otherwise a second pass computes D = G^(oo) and takes <H, g> for each
    representative H <= D and g in D outside N(H), skipping the double coset
    HgH one left coset hgH at a time (and walking N(H) for those it finds).
    It is complete: each subgroup K has a perfect residuum P = K^(oo) <= D,
    and the walks of N(H) climb from P to K, as K/P is solvable. A perfect
    P > 1 is <M, g> for a maximal M < P and any g in P outside M (so outside
    N(M)). M = xHx^-1 for a representative H <= D, so <H, x^-1 g x> is a
    conjugate of P, with x^-1 g x in D, as D is normal.
    """
    n = G.order
    rows = G.rows
    perms = _conjugation_perms(G)
    power_maps = [(p, _power_map(G.mul, p)) for p, _ in factorize(n)]
    bit = _bit(n)
    roots = [0] * n  # roots[h]: every g with g^p = h for a prime p dividing n
    for _, power in power_maps:
        for g, h in enumerate(power):
            roots[h] |= bit(g)
    full = (1 << n) - 1
    orbit_of: dict[int, set[int]] = {}  # mask -> its conjugacy orbit
    orbits: list[set[int]] = []
    reps: list[tuple[int, list[int], tuple[int, ...], int]] = []

    def register(mask: int, elems: list[int], gens: tuple[int, ...]) -> set[int]:
        # <gens> is normal when each kept conjugation maps each of gens into it
        if all(mask >> perm[g] & 1 for perm in perms for g in gens):
            orbit, norm = {mask}, full
        else:
            in_h = np.zeros(n, dtype=bool)
            in_h[elems] = True
            norm = _mask_of(in_h[G.mul[G.mul[:, list(gens)], G.inv[:, None]]].all(axis=1))
            orbit = _conjugates(elems, perms, bit, n // norm.bit_count())
        orbit_of.update(dict.fromkeys(orbit, orbit))
        orbits.append(orbit)
        reps.append((mask, elems, gens, norm))
        return orbit

    register(1, [0], ())
    walked = 0
    for general in (False, True):
        if full in orbit_of:
            break
        residuum = _residuum(G, perms) if general else 0
        for i, (mask, elems, gens, norm) in enumerate(reps):  # the list grows while it is walked
            # the cosets gH in N(H) outside H with g^p in H, in one pass only
            rest = (norm & reduce(or_, map(roots.__getitem__, elems))) ^ mask if i >= walked else 0
            while rest:
                g = (rest & -rest).bit_length() - 1
                step = rows[g]
                coset = list(map(step.__getitem__, elems))
                skip = sum(map(bit, coset))
                for p, power in power_maps:
                    if mask >> power[g] & 1:
                        ext = coset  # K outside H, listed only if K is new
                        x = g
                        for _ in range(p - 2):
                            x = step[x]
                            coset = list(map(rows[x].__getitem__, elems))
                            ext += coset
                            skip |= sum(map(bit, coset))
                        k = skip | mask
                        orbit = orbit_of.get(k) or register(k, elems + ext, gens + (g,))
                        if len(orbit) > 1:  # K's class members above H, K among them
                            skip = reduce(or_, [c for c in orbit if c & mask == mask])
                        break
                rest &= ~skip
            # G^(oo) outside N(H), for H inside G^(oo); 0 in the first pass
            rest = residuum & ~norm if mask & ~residuum == 0 else 0
            while rest:
                g = (rest & -rest).bit_length() - 1
                k, kelems = closure(rows, gens + (g,))
                if k not in orbit_of:
                    register(k, kelems, gens + (g,))
                for h in elems:  # HgH, one left coset hgH at a time
                    x = rows[h][g]
                    if rest >> x & 1:
                        rest &= ~sum(map(bit, map(rows[x].__getitem__, elems)))
        walked = len(reps)
    return SubgroupLattice(n, orbits)


def membership(masks: list[int], n: int) -> np.ndarray:
    """The 0/1 uint8 matrix whose row i holds the n bits of masks[i]."""
    width = (n + 7) // 8
    packed = np.frombuffer(b"".join([m.to_bytes(width, "little") for m in masks]), np.uint8)
    return np.unpackbits(packed.reshape(-1, width), axis=1, count=n, bitorder="little")


def normalizer(G: GroupTable, masks: list[int]) -> list[int]:
    """The mask of N(H) = {g : g H g^-1 = H} for each subgroup mask H.

    Each H gets its greedy generating set from `groups.generators` (the
    identity for H = 1, so no H is left without one), and N(H) holds the g
    with g x g^-1 in H for each of them: every g is tested against every
    (H, generator) pair in a few numpy calls per block of at most 2^19 pairs.
    """
    owner, pairs, starts = [], [], []
    for i, mask in enumerate(masks):
        starts.append(len(pairs))
        pairs += generators(G.rows, mask) or [0]
        owner += [i] * (len(pairs) - starts[-1])
    member = membership(masks, G.order).view(bool)
    step = max(1, (1 << 19) // max(1, len(pairs)))
    blocks = [np.logical_and.reduceat(member[owner, G.mul[G.mul[g:g + step, pairs],  # g x g^-1
                                                          G.inv[g:g + step, None]]], starts, axis=1)
              for g in range(0, G.order, step)]
    width = (G.order + 7) // 8
    packed = np.packbits(np.concatenate(blocks).T, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(packed[i:i + width], "little") for i in range(0, len(packed), width)]
