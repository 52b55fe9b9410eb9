"""Tests for subgroup lattice enumeration and normality structure.

Two oracles stand beside the enumerator. An exhaustive subset scan tests
every subset of a group of order <= 16 for closure. A closure oracle grows
subgroups one element at a time up to a fixed point and forms classes by
conjugating with every element of G; it pins masks, canonical order,
classes and normal flags on the order-32 catalog, on the non-solvable
Sym(5) and on three groups of order 72 to 105.
"""

from __future__ import annotations

import math
from functools import reduce
from itertools import combinations
from operator import and_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normdeg.errors import CapExceededError, ConstraintError
from normdeg.explorer import catalog_specs
from normdeg.groups import build, closure
from normdeg.lattice import (
    DEFAULT_CAP,
    SubgroupSet,
    _canonical_key,
    _conjugation_perms,
    core,
    enumerate_subgroups,
    fix_points,
    is_normal,
    normalizer,
    subgroup_table,
)
from normdeg.numtheory import divisors


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
    # second pass over G outside N(H); and three larger groups of two or
    # three primes, where the first pass skips half or more of the cosets
    # gH in N(H), those with no g^p in H
    @pytest.mark.parametrize("spec", [spec for spec, _ in catalog_specs(32)]
                             + ["Sym(5)", "Sym(4) x C(3)", "SDP(3,28,9)", "ZM(7,3,2) x C(5)"])
    def test_matches_closure_oracle(self, spec):
        G = build(spec)
        lat = enumerate_subgroups(G)
        masks, classes = lattice_by_closure(G)
        assert [s.mask for s in lat.subgroups] == masks
        assert {frozenset(masks[i] for i in cls) for cls in lat.classes} == classes
        assert lat.normal_flags == [frozenset([m]) in classes for m in masks]

    def test_canonical_order_and_determinism(self):
        G = build("Dih(6)")
        a = enumerate_subgroups(G)
        b = enumerate_subgroups(build("Dih(6)"))
        assert [(s.size, s.mask) for s in a.subgroups] == \
               [(s.size, s.mask) for s in b.subgroups]
        sizes = [s.size for s in a.subgroups]
        assert sizes == sorted(sizes)
        assert a.classes == b.classes

    def test_trivial_and_full_present(self):
        G = build("SDP(3,7,2)")
        lat = enumerate_subgroups(G)
        assert lat.subgroups[0].mask == 1
        assert lat.subgroups[-1].mask == (1 << G.order) - 1

    def test_lagrange(self):
        G = build("Sym(4)")
        lat = enumerate_subgroups(G)
        for s in lat.subgroups:
            assert G.order % s.size == 0

    def test_orbit_sizes_sum_to_lattice_size(self):
        G = build("Sym(4)")
        lat = enumerate_subgroups(G)
        assert sum(len(c) for c in lat.classes) == len(lat.subgroups)
        singles = [c for c in lat.classes if len(c) == 1]
        assert len(singles) == lat.normal_count

    def test_cap_enforced_and_overridable(self):
        with pytest.raises(CapExceededError) as err:
            enumerate_subgroups(build("C(600)"))
        assert "600" in str(err.value) and str(DEFAULT_CAP) in str(err.value)
        lat = enumerate_subgroups(build("C(600)"), cap=1024)
        assert len(lat.subgroups) == 24

    def test_known_counts(self):
        expect = {"Dih(4)": 10, "Q(3)": 6, "SD(4)": 15, "Sym(4)": 30,
                  "SDP(3,7,2)": 10, "ZM(5,4,2)": 14}
        for spec, count in expect.items():
            assert len(enumerate_subgroups(build(spec)).subgroups) == count

    # subgroups (OEIS A005432) and conjugacy classes (A000638) of Sym(n);
    # Sym(5) is not solvable, so A5 is only reached through non-normal steps
    @pytest.mark.parametrize("n, subgroups, classes", [
        (1, 1, 1), (2, 2, 2), (3, 6, 4), (4, 30, 11), (5, 156, 19),
    ])
    def test_symmetric_group_counts(self, n, subgroups, classes):
        lat = enumerate_subgroups(build(f"Sym({n})"))
        assert (len(lat), len(lat.classes)) == (subgroups, classes)

    # subspaces of GF(2)^k (OEIS A006116)
    @pytest.mark.parametrize("k, subgroups", [
        (1, 2), (2, 5), (3, 16), (4, 67), (5, 374), (6, 2825),
    ])
    def test_elementary_abelian_2_group_counts(self, k, subgroups):
        assert len(enumerate_subgroups(build(f"EA(2,{k})"))) == subgroups

    def test_non_solvable_product_counts(self):
        lat = enumerate_subgroups(build("Sym(5) x C(2)"))
        assert (len(lat), len(lat.classes), lat.normal_count) == (535, 57, 7)


@st.composite
def masks_of_one_width(draw) -> tuple[int, list[int]]:
    """A width n <= 64 and masks of that width, many of them of one size."""
    n = draw(st.integers(1, 64))
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

    # is_normal and core read the orbit under the kept perms; check both
    # against conjugation by every element of G
    @pytest.mark.parametrize("spec", ["Dih(4) x C(2)", "EA(2,4)", "Sym(4)", "Q(3) x C(3)"])
    def test_is_normal_and_core_by_definition(self, spec):
        G = build(spec)
        for s in enumerate_subgroups(G).subgroups:
            conjugates = conjugate_masks(G, s.mask)
            assert is_normal(G, s) == (set(conjugates) == {s.mask})
            assert core(G, s).mask == reduce(and_, conjugates)


class TestGeneratedSubgroup:
    def test_cyclic_part_of_dihedral(self):
        G = build("Dih(6)")
        rot = SubgroupSet(*closure(G.rows, [1]))
        assert rot.size == 6
        assert is_normal(G, rot)

    def test_empty_seed_gives_trivial(self):
        G = build("Sym(3)")
        assert closure(G.rows, []) == (1, 1)

    def test_whole_group_from_generators(self):
        G = build("Sym(4)")
        assert closure(G.rows, G.generators())[1] == 24


class TestNormalityStructure:
    def test_normalizer_of_reflection_in_dihedral8(self):
        G = build("Dih(4)")
        lat = enumerate_subgroups(G)
        refl = next(s for s in lat.subgroups
                    if s.size == 2 and not is_normal(G, s))
        norm = normalizer(G, refl)
        assert norm.size == 4
        assert refl.mask & norm.mask == refl.mask

    def test_core_of_sylow2_in_sym4(self):
        G = build("Sym(4)")
        lat = enumerate_subgroups(G)
        sylow = next(s for s in lat.subgroups if s.size == 8)
        c = core(G, sylow)
        assert c.size == 4  # the doubly-even permutations survive
        assert is_normal(G, c)

    def test_core_of_point_stabilizer_is_trivial(self):
        G = build("Sym(4)")
        lat = enumerate_subgroups(G)
        stab = next(s for s in lat.subgroups if s.size == 6)
        assert core(G, stab).size == 1

    def test_normalizer_index_is_class_size(self):
        G = build("Sym(4)")
        lat = enumerate_subgroups(G)
        for cls in lat.classes:
            rep = lat.subgroups[cls[0]]
            assert G.order // normalizer(G, rep).size == len(cls)

    def test_class_of_conjugate_masks(self):
        G = build("Sym(3)")
        lat = enumerate_subgroups(G)
        two = [i for i, s in enumerate(lat.subgroups) if s.size == 2]
        assert len(two) == 3
        assert tuple(two) in lat.classes

    def test_fix_points_agree_with_normal_set(self):
        for spec in ("Sym(4)", "Dih(6)", "Q(4)", "SDP(3,7,2)", "ZM(5,4,2)"):
            G = build(spec)
            lat = enumerate_subgroups(G)
            fix_conj, fix_core = fix_points(G, lat)
            normal = {i for i, flag in enumerate(lat.normal_flags) if flag}
            assert fix_conj == fix_core == normal


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
            assert normalizer(G, sub).size == p * eps

    def test_sylow_count_matches_action_kernel(self):
        for p, n, k0 in [(2, 15, 4), (3, 7, 2), (3, 28, 9)]:
            G = build(f"SDP({p},{n},{k0})")
            lat = enumerate_subgroups(G)
            d = math.gcd(k0 - 1, n)
            sylows = [s for s in lat.subgroups if s.size == p]
            assert len(sylows) == n // d


class TestSubgroupTable:
    def test_conjugate_subgroups_share_degree_profile(self):
        from normdeg.degrees import ndeg_brute

        G = build("Sym(4)")
        lat = enumerate_subgroups(G)
        cls = next(c for c in lat.classes
                   if len(c) > 1 and lat.subgroups[c[0]].size == 8)
        reports = []
        for idx in cls:
            H = subgroup_table(G, lat.subgroups[idx])
            reports.append(ndeg_brute(H).ndeg)
        assert len(set(reports)) == 1

    def test_reindexed_table_is_valid_group(self):
        G = build("Dih(6)")
        lat = enumerate_subgroups(G)
        six = next(s for s in lat.subgroups if s.size == 6)
        H = subgroup_table(G, six)
        assert H.order == 6
        assert list(H.mul[0]) == list(range(6))

    def test_subgroupset_membership(self):
        s = SubgroupSet(mask=0b1011, size=3)
        assert 0 in s and 1 in s and 3 in s and 2 not in s
        assert list(s.elements()) == [0, 1, 3]
