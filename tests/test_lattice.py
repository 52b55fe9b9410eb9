"""Tests for subgroup lattice enumeration and normality structure.

The core oracle is an exhaustive subset scan: for groups of order <= 16
every subset is tested directly for closure, so the enumerator's output
can be compared against the complete, independently computed lattice.
"""

from __future__ import annotations

import math
from itertools import combinations

import pytest

from normdeg.errors import CapExceededError, ConstraintError
from normdeg.groups import build, closure
from normdeg.lattice import (
    DEFAULT_CAP,
    SubgroupSet,
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
