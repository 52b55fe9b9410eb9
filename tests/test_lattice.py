"""Tests for subgroup lattice enumeration and normality structure.

Two oracles stand beside the enumerator. An exhaustive subset scan tests
every subset of a group of order <= 16 for closure. A closure oracle grows
subgroups one element at a time up to a fixed point and forms classes by
conjugating with every element of G; it pins masks, canonical order,
classes and the normal count on the order-32 catalog, on the non-solvable
Sym(5), on three groups of order 72 to 105, on three 2-groups of order
64 with classes of 16 to 32 conjugates and on two metacyclic groups with
classes of 19 and 31 conjugates. SHA-256 digests pin the masks, the
classes and the normal flags read off them on every group of the
benchmark's compute and sd corpora, up to order 512, and on five
non-solvable groups of order 240 to 1440. A work test counts the closures
of the non-solvable pass.
"""

from __future__ import annotations

import hashlib
import math
from functools import reduce
from itertools import combinations
from operator import and_

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normdeg import lattice
from normdeg.errors import ConstraintError
from normdeg.explorer import catalog_specs
from normdeg.groups import abelian_counts, build, closure
from normdeg.lattice import (
    SubgroupSet,
    _canonical_key,
    _conjugation_perms,
    _mask_of,
    enumerate_subgroups,
    normalizer,
)
from normdeg.numtheory import divisors

from lattice_classes import classes
from test_acceptance import CORPUS


def subsets_that_are_subgroups(G) -> set[int]:
    """Every subgroup mask of G, found by checking all divisor-size subsets."""
    n = G.order
    rows = G.rows
    inv = [int(v) for v in G.inv]
    found = {1, (1 << n) - 1}
    others = list(range(1, n))
    for size in divisors(n):
        if size in (1, n):
            continue
        for combo in combinations(others, size - 1):
            elems = (0,) + combo
            mask = 0
            for e in elems:
                mask |= 1 << e
            ok = True
            for a in elems:
                row = rows[a]
                if not mask >> inv[a] & 1:
                    ok = False
                    break
                for b in elems:
                    if not mask >> row[b] & 1:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                found.add(mask)
    return found


def conjugate_masks(G, mask: int) -> list[int]:
    """The mask g H g^-1 for every element g of G, in element order."""
    rows, inv = G.rows, G.inv.tolist()
    elems = [e for e in range(G.order) if mask >> e & 1]
    return [sum(1 << rows[rows[g][h]][inv[g]] for h in elems) for g in range(G.order)]


def normal_flags(lat) -> list[bool]:
    """Per subgroup, whether it is normal: whether its class has one member."""
    flags = [False] * len(lat)
    for cls in classes(lat):
        if len(cls) == 1:
            flags[cls[0]] = True
    return flags


def class_core(lat, size: int) -> int:
    """Mask of the intersection of the one class of subgroups of this size."""
    cls = next(c for c in classes(lat) if lat.subgroups[c[0]].mask.bit_count() == size)
    return reduce(and_, (lat.subgroups[i].mask for i in cls))


def normalizer_by_definition(G, mask: int) -> int:
    """Mask of the g with g h g^-1 in H for every h in H, one n x |H| table."""
    in_h = np.zeros(G.order, dtype=bool)
    in_h[SubgroupSet(mask).elements()] = True
    conj = G.mul[G.mul[:, in_h], G.inv[:, None]]  # row g: g h g^-1 for h in H
    return _mask_of(in_h[conj].all(axis=1))


def lattice_by_closure(G) -> tuple[list[int], set[frozenset[int]]]:
    """(masks sorted by size then members, classes as mask sets), without
    cyclic extension: every <H, g> by `closure`, from {1} to a fixed point."""
    gens = {1: ()}
    frontier = [1]
    while frontier:
        m = frontier.pop()
        for g in range(G.order):
            k = closure(G.rows, gens[m] + (g,))[0]
            if k not in gens:
                gens[k] = gens[m] + (g,)
                frontier.append(k)
    masks = sorted(gens, key=lambda m: (m.bit_count(), [e for e in range(G.order) if m >> e & 1]))
    return masks, {frozenset(conjugate_masks(G, m)) for m in masks}


# SHA-256 of repr((masks, classes, normal_flags)) for each group of the
# benchmark's compute and sd corpora, and for five larger non-solvable groups
# (the last five); enumeration may get faster, but each of these lattices
# must stay exactly as it is
LATTICE_DIGESTS = {
    "C(1)": "52589aaf94d18feedfb119913ffe15325473e09c6b24cd46497d5d1c65d5011d",
    "C(2)": "71aa7df58108697a2cd6153063ed0ce330d365cadf0ac7f10455196ec9541eb0",
    "C(6)": "03248e7f654930f22587af22987ca939b1155ee7ae627c36b94df1d8739e39c2",
    "C(12)": "804a6bc872435a01aaa521762b9706ffa037a5a7f0f36bddb50df344ce7874c5",
    "C(30)": "46a3c02e455002db4fd91c2f5a91a83319343d61332edaadbf74e56e4b788438",
    "C(36)": "218ead64e6abf5a70c192de2f72f37b58902b570a6ff44ae6d869a92214dace4",
    "C(100)": "7595a61678334c8a2d1153c33c176d2d8bcb7e8639bd79e6acebe0bca52e3cb0",
    "C(128)": "42a81c063d300e162fb0ae641d328c01786b6ac2c39159f13d16504d70f41a24",
    "EA(2,2)": "5ad476dfb9a82489526943b41e75f433f76e6763d21f759707746c89b4bf4597",
    "EA(2,3)": "794f67b5f99f581492c314d2bf23dab4f4bd0395a3f6d694d7e01fb8e48a3568",
    "EA(2,4)": "4f632b24ca0a7f2d530a182ce54e43ab059033e845594689aebccf21ed847009",
    "EA(3,2)": "188ee5da009e0ad459b9fdd96a9b86c19ffc063061aa6332737d6338594c9f9f",
    "EA(3,3)": "df22b26c506732eb902ba9880a78e249f84968b0f1a659ccfd9c77f521736e61",
    "EA(5,2)": "ea77d694207142b1018aa7197c6bafa3a7ec41a3c77bd2c1a205a70b6f8eb6b0",
    "Sym(3)": "55cc0b57a17f1de39fafedd202f4957f029c22951dbda30fedf420e38901200a",
    "Sym(4)": "178e5e7b66564ec8c38bc894875fc77defbb3e564aa8fa217794be12a4cacfa7",
    "Dih(3)": "4cdfcdba667177ba7c0e368bfa75530399fe280278df210b7581a028708c89dc",
    "Dih(4)": "904bd883dedba774e5874b58f2031cb5702aff9f3d47ee3fbbfb1b766e833685",
    "Dih(5)": "ba88d48f3ec19622bdfdadff1315201e6457d3f96e2d8ff4d6302ec5d6b14217",
    "Dih(6)": "33529703b923e205318775666ecf907f1f4b8eaa9442f471594f830d509ef6b1",
    "Dih(7)": "98a247a1054495b52f7c2e9ec7f52c318959429339d9acdb510e8bc821fb2140",
    "Dih(8)": "79574921de5029f0912347661efa6a7c6633531c3fba435ba755713d6bd9b9a5",
    "Dih(9)": "9b72e1aadf77a9fe70483eecf12f683e08eb04cfbcbbb98cf9c84bea8ed7457d",
    "Dih(10)": "3319a355656ab40445995b347546463a4dfc8302731dd6ac58af851b746aa149",
    "Dih(12)": "efc3fed71e11e9da204d3ebe1b05ca41415c261736f86e8368e333e44bbded29",
    "Dih(15)": "d681713a5c0ca4d7624308cc0611751fe2d62246efc037e46aed1c388c12636a",
    "Dih(16)": "34934608d65ce1c799e0307f738e7033418902a378b5ddf8ebff76fc2bed8728",
    "Dih(24)": "741e99a52ac871216f48edf703527ded2f56326d42291aeb8c842a59e8fd1b9c",
    "Q(3)": "0daf77688db4f8696e05916227ce7fa1140a28a1fca84243222b55b2d640ee34",
    "Q(4)": "4b65f145b0130fa78a5fdbbf777c5f96835f0be68da901105231d29a21b26962",
    "Q(5)": "59562be75f8b4c0d313b865ba5c17e84dc6d1e134e63eb33c8a701809656d5a6",
    "SD(4)": "c0465dedf750db30a8b30ad9a61fbfbe7d240aeeeeb2d7ecfd05deabf8207465",
    "SD(5)": "b2226982f35eca539c78cfed1728833f9316dea4fdd4c094bd9195d59139a7be",
    "M(2,4)": "94b653c48de837a6bd809fbbe5103fc326a993a0cbb2a23ecab289623e3c7b37",
    "M(2,5)": "5891263e203ae8d0b929763bf6455d00011aad3bf113001668d141276d28b5c4",
    "M(3,3)": "97ae247f06dfe483a1e3bbc08cb2596903249110ce6a02a7b7f547ece2c3433c",
    "M(3,4)": "30ef2623e8aefe3c6426ddee26a1b1960b8218f310725931a0f5b4e4b2329f5f",
    "M(5,3)": "31836cfd6bf364c5200b60be0ce37ad2a740ceacc5328fa6253f0a54635793df",
    "SDP(3,7,2)": "433a7b7e820e7e2f75470aa672f98cbc3a0a0c13e7239ce05a0daa80097b1046",
    "SDP(2,15,4)": "e6dee0766c4d6ea55506d3a1eb21ed1b1a2fd9a6c9fe1400a682b276edb0a694",
    "SDP(5,11,3)": "a630d078b61c582577d2cc37e5c3073ea89c5955871cd0b16bf955397697c330",
    "SDP(3,28,9)": "b367ec3db81f7dd7120e2582dd2365d851dca94d4a4d5cddc9b1ca2eb0cbfe06",
    "SDP(2,21,8)": "e08f898951f00e3c5402559d02219101c5277dab65a0c34a721d10eb44c34653",
    "ZM(5,4,2)": "31711df8493f25dace5a9aa360fb3c644f25c59049aa727bfc47605bce99fe06",
    "ZM(13,4,5)": "7584cfb05eea8452a1f97a0f48b01e0ee24c5e6eca2becaf80daa9997d7db781",
    "ZM(7,3,2)": "e0396c3d211cd4759e52de6ad07cfd9ebb6723f90dce7d2bc805b6bfe9850ffa",
    "ZM(3,16,2)": "7c16fdf2a6dab2d83d5c2b5a1dd56a9fc43e52e7c89887e9d006dfa0dc823871",
    "Sym(3) x C(2)": "061d7d6d0a1963f2f5fc11be3742e79c6e202da2673bdd431abbf56812a5719c",
    "Q(3) x C(3)": "771b4d48dd1368fdc8144040c86c461efef1b1d669cf81df32f7382fc657d538",
    "Dih(4) x C(3)": "38f0d61a7859104a2f69725f7d1b68e4e09d113c2092708fe02a62a83cec2267",
    "Sym(5)": "502400065c4345992e2aa1006e191ecac8f63fc4d2bd6fe060e522796c7b0b78",
    "EA(2,5)": "cb9815d9eaeb5513f11bbfd5c0bf2b727a0e0e46bdc1ae4b7132b6662601d023",
    "C(4) x EA(2,4)": "126a2170d1224c4a512d476bd4195ce2489c2a2cb2f1f37d17916d0d030839bd",
    "Dih(8) x C(2) x C(2)": "4f6c45f0630a8346773f4f78b050de13af398fb8168d9b89635f53b7b8ce4464",
    "Dih(4) x Dih(4)": "c0d64748f43daf105d593e2bcb15f84b0e6c16550bddb4194ebc8963bf805288",
    "Dih(4) x EA(2,3)": "48ab4d2e9de8bc4bb3a86fa9414fe07b930ec128d2fc54f13dc330b01a92ad1b",
    "Dih(6) x Dih(6)": "2af87097c129a42e4ead079b44b0d1083f375e01386c294fbbdebd18e4738686",
    "Sym(4) x EA(2,2)": "193cd881876126d34e6ce5083a3cfec26cd47574afc9d76c83fdca49b9ca9cd2",
    "Dih(128)": "451802d8b52f7973b74cdf4ca76f78faeae7ae16a84ddb02f41dc4d3d8ca0dd9",
    "SD(9)": "cd92b6dd84946c534c42c92a9dcfab255e466ad85d8cfafd1890b75b719f128b",
    "Q(9)": "ac258140a90d121e47ae1053deec945a88cec3159ca4bd8da2839916d8ee277e",
    "EA(3,4)": "09c5f3a1f31a67389a5e2c1a0b5c05105d7127418e5544d583e1e4fa101f53c2",
    "Sym(4) x C(2)": "89cfe0b55f4f9d0c1bdd1b4116d7f1169d41db54b864a093dec186c27a9843b8",
    "Sym(5) x C(2)": "42815bd9e08d512f5422f9be50d8a3647aaf5a459a32332367aee5e005a9e871",
    "Sym(5) x Sym(3)": "41a6ffe3ea6cd0c91718b27960a7b87362cbbc938f102b2fa381c5b5293c55b7",
    "Sym(5) x Dih(4)": "fa39c868bc4cf77bb84d8d6a999cbb8718c7730a445f32979013625cbbde77b5",
    "Sym(6)": "6b5c1ad3b6a3a1cf52a191bb2bb19efcbe4156899d51acdadbc13496e265ed20",
    "Sym(6) x C(2)": "416c9fc3ac4ae668cc84a1de3f38b885cf0ffb08c97b7bdf52417482b9b5f4c0",
}


SMALL_SPECS = ["C(16)", "C(12)", "Sym(3)", "Dih(4)", "Dih(6)", "Q(3)",
               "M(2,4)", "EA(2,3)", "C(2) x C(8)", "Sym(3) x C(2)",
               "ZM(5,2,4)", "C(3) x C(3)"]


class TestEnumeration:
    @pytest.mark.parametrize("spec", SMALL_SPECS)
    def test_matches_exhaustive_subset_scan(self, spec):
        G = build(spec)
        assert G.order <= 16
        lat = enumerate_subgroups(G)
        assert {s.mask for s in lat.subgroups} == subsets_that_are_subgroups(G)

    # every catalog group up to order 32; Sym(5), whose lattice needs the
    # second pass over G outside N(H); three larger groups of two or three
    # primes, where the first pass skips half or more of the cosets gH in
    # N(H), those with no g^p in H; and three 2-groups of order 64 whose
    # conjugacy orbits stop at |G : N(H)| = 16 or 32 masks; two metacyclic
    # groups whose classes of 31 and 19 conjugates the walk of N(H) skips
    # whole, once it reaches one member above H
    @pytest.mark.parametrize("spec", [spec for spec, _ in catalog_specs(32)]
                             + ["Sym(5)", "Sym(4) x C(3)", "SDP(3,28,9)", "ZM(7,3,2) x C(5)",
                                "Dih(32)", "SD(6)", "Q(6)", "ZM(31,5,2)", "ZM(19,9,4)"])
    def test_matches_closure_oracle(self, spec):
        G = build(spec)
        lat = enumerate_subgroups(G)
        masks, oracle = lattice_by_closure(G)
        assert [s.mask for s in lat.subgroups] == masks
        assert {frozenset(masks[i] for i in cls) for cls in classes(lat)} == oracle
        assert lat.normal_count == sum(frozenset([m]) in oracle for m in masks)

    @pytest.mark.parametrize("spec, digest", LATTICE_DIGESTS.items())
    def test_pinned_lattice_digests(self, spec, digest):
        lat = enumerate_subgroups(build(spec))
        text = repr(([s.mask for s in lat.subgroups], classes(lat), normal_flags(lat)))
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_canonical_order_and_determinism(self):
        G = build("Dih(6)")
        a = enumerate_subgroups(G)
        b = enumerate_subgroups(build("Dih(6)"))
        assert [(s.mask.bit_count(), s.mask) for s in a.subgroups] == \
               [(s.mask.bit_count(), s.mask) for s in b.subgroups]
        sizes = [s.mask.bit_count() for s in a.subgroups]
        assert sizes == sorted(sizes)
        assert classes(a) == classes(b)

    def test_trivial_and_full_present(self):
        G = build("SDP(3,7,2)")
        lat = enumerate_subgroups(G)
        assert lat.subgroups[0].mask == 1
        assert lat.subgroups[-1].mask == (1 << G.order) - 1

    def test_lagrange(self):
        G = build("Sym(4)")
        lat = enumerate_subgroups(G)
        for s in lat.subgroups:
            assert G.order % s.mask.bit_count() == 0

    def test_orbit_sizes_sum_to_lattice_size(self):
        G = build("Sym(4)")
        lat = enumerate_subgroups(G)
        assert sum(len(c) for c in classes(lat)) == len(lat.subgroups)
        singles = [c for c in classes(lat) if len(c) == 1]
        assert len(singles) == lat.normal_count

    def test_known_counts(self):
        expect = {"Dih(4)": 10, "Q(3)": 6, "SD(4)": 15, "Sym(4)": 30,
                  "SDP(3,7,2)": 10, "ZM(5,4,2)": 14, "C(600)": 24}
        for spec, count in expect.items():
            assert len(enumerate_subgroups(build(spec)).subgroups) == count

    # subgroups (OEIS A005432) and conjugacy classes (A000638) of Sym(n);
    # Sym(5) is not solvable, so A5 is only reached through non-normal steps
    @pytest.mark.parametrize("n, subgroups, class_count", [
        (1, 1, 1), (2, 2, 2), (3, 6, 4), (4, 30, 11), (5, 156, 19), (6, 1455, 56),
    ])
    def test_symmetric_group_counts(self, n, subgroups, class_count):
        lat = enumerate_subgroups(build(f"Sym({n})"))
        assert (len(lat), len(lat.orbits)) == (subgroups, class_count)

    # subspaces of GF(2)^k (OEIS A006116): Birkhoff's count throughout, and
    # the enumeration up to k = 6
    @pytest.mark.parametrize("k, subgroups", [
        (1, 2), (2, 5), (3, 16), (4, 67), (5, 374), (6, 2825), (7, 29212),
        (8, 417199), (9, 8283458), (10, 229755605), (11, 8933488744),
        (12, 488176700923),
    ])
    def test_elementary_abelian_2_group_counts(self, k, subgroups):
        assert sum(abelian_counts(2, (1,) * k)) == subgroups
        if k <= 6:
            assert len(enumerate_subgroups(build(f"EA(2,{k})"))) == subgroups

    # the second pass runs closures only for H <= G^(oo) and g in G^(oo)
    # outside N(H), G^(oo)'s own closures included (2561 over all of G outside
    # N(H) for Sym(5) x Sym(3)); a solvable group never computes G^(oo)
    @pytest.mark.parametrize("spec, most", [("Sym(5) x Sym(3)", 40), ("Sym(4) x C(3)", 0)])
    def test_non_solvable_pass_stays_inside_the_residuum(self, monkeypatch, spec, most):
        calls = []
        monkeypatch.setattr(lattice, "closure", lambda *a: calls.append(1) or closure(*a))
        enumerate_subgroups(build(spec))
        assert len(calls) <= most

    def test_non_solvable_product_counts(self):
        lat = enumerate_subgroups(build("Sym(5) x C(2)"))
        assert (len(lat), len(lat.orbits), lat.normal_count) == (535, 57, 7)

    # order 4096: the walk of N(H) meets one member of each class above H and
    # skips the rest, so it converts few table rows (2059 and 1035 without)
    @pytest.mark.parametrize("spec, subgroups", [("Dih(2048)", 4107), ("Q(12)", 2059)])
    def test_walk_converts_few_table_rows(self, spec, subgroups):
        G = build(spec)
        assert len(enumerate_subgroups(G)) == subgroups
        assert len(G.rows) <= 64


@st.composite
def masks_of_one_width(draw) -> tuple[int, list[int]]:
    """A width n <= 70 and masks of that width, many of them of one size."""
    n = draw(st.integers(1, 70))  # byte keys: widths that are and are not multiples of 8
    k = draw(st.integers(0, n))
    same_size = st.permutations(range(n)).map(lambda p: sum(1 << i for i in p[:k]))
    return n, draw(st.lists(st.one_of(same_size, st.integers(0, (1 << n) - 1)), max_size=20))


class TestCanonicalKey:
    @settings(max_examples=150, deadline=None)
    @given(masks_of_one_width())
    def test_orders_as_size_then_sorted_members(self, case):
        n, masks = case
        by_members = sorted(masks, key=lambda m: (m.bit_count(), [i for i in range(n) if m >> i & 1]))
        assert sorted(masks, key=_canonical_key(n)) == by_members


class TestConjugationPerms:
    @pytest.mark.parametrize("spec", ["EA(2,5)", "C(4) x EA(2,4)"])
    def test_abelian_groups_keep_no_perm(self, spec):
        assert _conjugation_perms(build(spec)) == []

    def test_central_generators_are_dropped(self):
        G = build("Dih(4) x C(2)")
        rows, inv, n = G.rows, G.inv.tolist(), G.order
        central = [g for g in G.generators() if all(rows[g][x] == rows[x][g] for x in range(n))]
        kept = [g for g in G.generators() if g not in central]
        assert central and kept
        assert _conjugation_perms(G) == [[rows[rows[g][h]][inv[g]] for h in range(n)] for g in kept]

    # the classes come from orbits under the kept perms only; check each
    # one-member class as the normal subgroups, and each core as the AND of
    # its class's masks, against conjugation by every element of G
    @pytest.mark.parametrize("spec", ["Dih(4) x C(2)", "EA(2,4)", "Sym(4)", "Q(3) x C(3)"])
    def test_is_normal_and_core_by_definition(self, spec):
        G = build(spec)
        lat = enumerate_subgroups(G)
        for cls in classes(lat):
            core = reduce(and_, (lat.subgroups[i].mask for i in cls))
            for i in cls:
                conjugates = conjugate_masks(G, lat.subgroups[i].mask)
                assert (len(cls) == 1) == (set(conjugates) == {lat.subgroups[i].mask})
                assert core == reduce(and_, conjugates)


class TestGeneratedSubgroup:
    def test_cyclic_part_of_dihedral(self):
        G = build("Dih(6)")
        rot = SubgroupSet(closure(G.rows, [1])[0])
        assert rot.mask == 0b111111
        assert normalizer(G, [rot.mask]) == [(1 << G.order) - 1]

    def test_empty_seed_gives_trivial(self):
        G = build("Sym(3)")
        assert closure(G.rows, []) == (1, [0])

    def test_whole_group_from_generators(self):
        G = build("Sym(4)")
        assert len(closure(G.rows, G.generators())[1]) == 24


class TestNormalityStructure:
    def test_normalizer_of_reflection_in_dihedral8(self):
        G = build("Dih(4)")
        lat = enumerate_subgroups(G)
        refl = next(s for s, normal in zip(lat.subgroups, normal_flags(lat))
                    if s.mask.bit_count() == 2 and not normal)
        [norm] = normalizer(G, [refl.mask])
        assert norm.bit_count() == 4
        assert refl.mask & norm == refl.mask

    def test_core_of_sylow2_in_sym4(self):
        lat = enumerate_subgroups(build("Sym(4)"))
        c = class_core(lat, 8)
        assert c.bit_count() == 4  # the doubly-even permutations survive
        assert normal_flags(lat)[[s.mask for s in lat.subgroups].index(c)]

    def test_core_of_point_stabilizer_is_trivial(self):
        lat = enumerate_subgroups(build("Sym(4)"))
        assert class_core(lat, 6) == 1

    def test_normalizer_index_is_class_size(self):
        G = build("Sym(4)")
        lat = enumerate_subgroups(G)
        for cls in classes(lat):
            [norm] = normalizer(G, [lat.subgroups[cls[0]].mask])
            assert G.order // norm.bit_count() == len(cls)

    def test_class_of_conjugate_masks(self):
        G = build("Sym(3)")
        lat = enumerate_subgroups(G)
        two = [i for i, s in enumerate(lat.subgroups) if s.mask.bit_count() == 2]
        assert len(two) == 3
        assert tuple(two) in classes(lat)

    def test_fix_points_agree_with_normal_set(self):
        for spec in ("Sym(4)", "Dih(6)", "Q(4)", "SDP(3,7,2)", "ZM(5,4,2)"):
            G = build(spec)
            lat = enumerate_subgroups(G)
            fix_conj = {cls[0] for cls in classes(lat) if len(cls) == 1}
            norms = normalizer(G, [s.mask for s in lat.subgroups])
            fix_norm = {i for i, m in enumerate(norms) if m.bit_count() == G.order}
            assert fix_conj == fix_norm
            assert len(fix_norm) == lat.normal_count


# the groups of the benchmark's sd corpus
SD_CORPUS = ["Sym(5)", "Dih(128)", "SD(9)", "Dih(8) x C(2) x C(2)", "EA(2,5)",
             "Dih(4) x Dih(4)", "EA(3,4)", "Sym(4) x C(2)"]


class TestBatchedNormalizer:
    # every subgroup at once, the trivial and the normal ones included; the
    # last group's 2428 subgroups need about 7000 (H, generator) pairs, so
    # its g come in several blocks
    @pytest.mark.parametrize("spec", CORPUS + SD_CORPUS + ["Dih(4) x Dih(4) x C(2)"])
    def test_matches_definition(self, spec):
        G = build(spec)
        masks = [m for orbit in enumerate_subgroups(G).orbits for m in orbit]
        assert normalizer(G, masks) == [normalizer_by_definition(G, m) for m in masks]

    def test_no_masks(self):
        assert normalizer(build("Sym(3)"), []) == []


class TestSemidirectNormalizers:
    # normalizer of the subgroup generated by the prime part together with
    # the index-k divisor subgroup has order p * gcd(k*(k0-1), n)
    @pytest.mark.parametrize("p, n, k0", [
        (2, 3, 2), (2, 5, 4), (2, 9, 8), (2, 15, 4), (2, 15, 14),
        (3, 7, 2), (3, 7, 4), (3, 14, 9), (3, 28, 9), (5, 11, 3),
        (5, 22, 5), (2, 21, 13), (3, 26, 3),
    ])
    def test_normalizer_orders_on_grid(self, p, n, k0):
        G = build(f"SDP({p},{n},{k0})")
        lat = enumerate_subgroups(G)
        for k in divisors(n):
            step = n // k
            mask = 0
            for x in range(p):
                for y in range(0, n, step):
                    mask |= 1 << (x * n + y)
            # the set really is a subgroup
            sub = next(s for s in lat.subgroups if s.mask == mask)
            eps = math.gcd(k * (k0 - 1), n)
            assert normalizer(G, [sub.mask])[0].bit_count() == p * eps

    def test_sylow_count_matches_action_kernel(self):
        for p, n, k0 in [(2, 15, 4), (3, 7, 2), (3, 28, 9)]:
            G = build(f"SDP({p},{n},{k0})")
            lat = enumerate_subgroups(G)
            d = math.gcd(k0 - 1, n)
            sylows = [s for s in lat.subgroups if s.mask.bit_count() == p]
            assert len(sylows) == n // d
