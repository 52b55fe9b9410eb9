"""Tests for the closed-form counting functions.

Small brute-force cross-checks live here; the full verification grids run
in the acceptance suite.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from normdeg import formulas
from normdeg.degrees import ndeg_brute
from normdeg.errors import ConstraintError
from normdeg.formulas import (
    Family,
    abelian_rank2_count,
    abelian_rank2_total,
    dihedral_counts,
    family_counts,
    family_limit,
    family_member,
    formula_counts,
    ndeg_family,
    sdp_counts,
    semidirect_bounds,
    zm_counts,
)
from normdeg.groups import build, parse_spec
from normdeg.numtheory import sigma, tau


def degree(counts: tuple[int, int]) -> Fraction:
    total, normal = counts
    return Fraction(normal, total)


def valid_semidirect(p: int, n: int, k0: int) -> bool:
    return (n % p != 0 and 1 < k0 < n and gcd(k0, n) == 1
            and pow(k0, p, n) == 1)


@st.composite
def semidirect_triples(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    n = draw(st.integers(3, 300).filter(lambda v: v % p))
    choices = [k for k in range(2, n) if pow(k, p, n) == 1]
    assume(choices)
    return p, n, draw(st.sampled_from(choices))


class TestSemidirect:
    def test_order21_counts(self):
        assert sdp_counts(3, 7, 2) == (10, 3)
        assert degree(sdp_counts(3, 7, 2)) == Fraction(3, 10)

    @pytest.mark.parametrize("n", [3, 5, 7, 9, 15, 21, 33])
    def test_odd_dihedral_slice(self, n):
        # k0 = n-1 inverts the rotation subgroup, giving Dih(n)
        assert sdp_counts(2, n, n - 1) == (tau(n) + sigma(n), tau(n) + 1)

    def test_small_values(self):
        assert degree(sdp_counts(2, 3, 2)) == Fraction(1, 2)
        assert degree(sdp_counts(2, 5, 4)) == Fraction(3, 8)

    @pytest.mark.parametrize("p, n, k0, counts", [
        (2, 15, 4, (16, 6)),    # gcd(k0-1, n) = 3: extra normal cyclics
        (3, 28, 9, (30, 9)),    # gcd = 4
        (2, 21, 8, (12, 6)),    # gcd = 7
    ])
    def test_nontrivial_fixed_part(self, p, n, k0, counts):
        assert sdp_counts(p, n, k0) == counts

    @pytest.mark.parametrize("p, n, k0", [
        (3, 7, 2), (2, 15, 4), (3, 28, 9), (5, 11, 3), (2, 9, 8),
    ])
    def test_matches_brute_force(self, p, n, k0):
        report = ndeg_brute(build(f"SDP({p},{n},{k0})"), cap=1024)
        assert (report.lattice_size, report.normal_count) == sdp_counts(p, n, k0)

    def test_bounds_order21(self):
        b = semidirect_bounds(3, 7, 2)
        assert b.upper == Fraction(3, 4)
        assert b.lower_sigma == Fraction(3, 10)
        assert b.lower_index == Fraction(3, 16)

    @pytest.mark.parametrize("p, n, k0", [
        (2, 3, 2), (2, 9, 8), (3, 7, 2), (2, 15, 4), (5, 11, 3),
        (3, 28, 9), (2, 33, 10), (7, 29, 7),
    ])
    def test_bounds_sandwich(self, p, n, k0):
        nd = degree(sdp_counts(p, n, k0))
        b = semidirect_bounds(p, n, k0)
        assert b.lower_sigma <= nd <= b.upper
        assert b.lower_index <= nd

    @given(semidirect_triples())
    @settings(max_examples=150, deadline=None)
    def test_bounds_sandwich_random(self, triple):
        p, n, k0 = triple
        assert valid_semidirect(p, n, k0)
        nd = degree(sdp_counts(p, n, k0))
        b = semidirect_bounds(p, n, k0)
        assert b.lower_index <= nd <= b.upper
        assert b.lower_sigma <= nd
        assert b.upper <= Fraction(3, 4)

    def test_sigma_bound_tight_exactly_when_rotations_all_twisted(self):
        # lower_sigma is attained exactly when gcd(k0-1, n) == 1
        tight = [(2, 3, 2), (2, 9, 8), (3, 7, 2), (5, 11, 3)]
        slack = [(2, 15, 4), (3, 28, 9), (2, 21, 8)]
        for p, n, k0 in tight:
            assert degree(sdp_counts(p, n, k0)) == semidirect_bounds(p, n, k0).lower_sigma
        for p, n, k0 in slack:
            assert degree(sdp_counts(p, n, k0)) > semidirect_bounds(p, n, k0).lower_sigma

    @pytest.mark.parametrize("p, n, k0", [
        (4, 7, 2),    # p not prime
        (3, 7, 3),    # 3^3 = 27 is not 1 mod 7
        (2, 5, 1),    # k0 = 1 gives the direct product
        (2, 5, 5),    # k0 out of range
        (3, 13, 5),   # 5^3 = 125 is 8 mod 13
    ])
    def test_rejects_bad_parameters(self, p, n, k0):
        with pytest.raises(ConstraintError):
            sdp_counts(p, n, k0)


class TestDihedral:
    @pytest.mark.parametrize("n, counts", [
        (3, (6, 3)), (4, (10, 6)), (5, (8, 3)), (6, (16, 7)), (9, (16, 4)),
    ])
    def test_counts(self, n, counts):
        assert dihedral_counts(n) == counts

    def test_known_degrees(self):
        assert degree(dihedral_counts(3)) == Fraction(1, 2)
        assert degree(dihedral_counts(6)) == Fraction(7, 16)

    def test_half_is_the_ceiling_past_the_abelian_cases(self):
        for n in range(3, 200):
            if n == 4:
                continue
            nd = degree(dihedral_counts(n))
            assert nd <= Fraction(1, 2)
            assert (nd == Fraction(1, 2)) == (n == 3)

    @pytest.mark.parametrize("n", [3, 4, 6, 8, 12, 15])
    def test_matches_brute_force(self, n):
        report = ndeg_brute(build(f"Dih({n})"))
        assert (report.lattice_size, report.normal_count) == dihedral_counts(n)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_rejects_small_n(self, n):
        with pytest.raises(ConstraintError):
            dihedral_counts(n)


class TestZM:
    def test_order6_counts(self):
        assert zm_counts(3, 2, 2) == (6, 3)
        assert degree(zm_counts(3, 2, 2)) == Fraction(1, 2)

    def test_order20_counts(self):
        assert zm_counts(5, 4, 2) == (14, 4)

    def test_trivial_kernel_collapses_to_cyclic(self):
        assert zm_counts(1, 6, 1) == (4, 4)
        assert degree(zm_counts(1, 12, 1)) == 1

    @pytest.mark.parametrize("m", [3, 5, 7, 9, 15, 21, 27, 33])
    def test_dihedral_route_agreement(self, m):
        assert zm_counts(m, 2, m - 1) == dihedral_counts(m)

    @pytest.mark.parametrize("m, n, k0", [(7, 3, 2), (11, 5, 3), (31, 3, 5)])
    def test_semidirect_route_agreement(self, m, n, k0):
        # same group described with the roles of the two factors swapped
        assert zm_counts(m, n, k0) == sdp_counts(n, m, k0)

    @pytest.mark.parametrize("m, n, r", [
        (5, 4, 2), (7, 3, 2), (5, 2, 4), (13, 4, 5), (13, 3, 3),
    ])
    def test_matches_brute_force(self, m, n, r):
        report = ndeg_brute(build(f"ZM({m},{n},{r})"), cap=1024)
        assert (report.lattice_size, report.normal_count) == zm_counts(m, n, r)

    @pytest.mark.parametrize("m, n, r", [
        (5, 3, 2),    # 2^3 = 8 is 3 mod 5
        (4, 3, 3),    # gcd(m, r-1) = 2
        (6, 2, 5),    # gcd(m, n) = 2
        (9, 2, 3),    # gcd(r, m) = 3
    ])
    def test_rejects_bad_parameters(self, m, n, r):
        with pytest.raises(ConstraintError):
            zm_counts(m, n, r)


class TestAbelianRank2:
    def test_order8_profile(self):
        assert [abelian_rank2_count(2, 1, 2, k) for k in range(4)] == [1, 3, 3, 1]
        assert abelian_rank2_total(2, 1, 2) == 8

    def test_per_order_counts_are_palindromic(self):
        for p, a1, a2 in [(2, 1, 3), (3, 2, 2), (5, 1, 2), (2, 3, 4)]:
            counts = [abelian_rank2_count(p, a1, a2, k)
                      for k in range(a1 + a2 + 1)]
            assert counts == counts[::-1]

    @given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 5), st.integers(0, 5))
    @settings(max_examples=80, deadline=None)
    def test_total_matches_per_order_sum(self, p, a1, extra):
        a2 = a1 + extra
        per_order = sum(abelian_rank2_count(p, a1, a2, k)
                        for k in range(a1 + a2 + 1))
        assert abelian_rank2_total(p, a1, a2) == per_order

    @pytest.mark.parametrize("p, a1, a2", [(2, 1, 2), (3, 1, 2), (2, 2, 2)])
    def test_matches_brute_force(self, p, a1, a2):
        G = build(f"C({p ** a1}) x C({p ** a2})")
        assert ndeg_brute(G).lattice_size == abelian_rank2_total(p, a1, a2)

    @pytest.mark.parametrize("p, n", [(2, 4), (2, 6), (3, 3), (3, 5), (5, 3)])
    def test_modular_groups_share_the_abelian_lattice_size(self, p, n):
        assert family_counts(Family.MODULAR, p, n)[0] == \
               abelian_rank2_total(p, 1, n - 1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConstraintError):
            abelian_rank2_total(4, 1, 2)
        with pytest.raises(ConstraintError):
            abelian_rank2_total(3, 2, 1)
        with pytest.raises(ConstraintError):
            abelian_rank2_count(2, 1, 2, 5)


class TestPrimePowerFamilies:
    def test_orders(self):
        assert family_member(Family.MODULAR, 3, 3).order() == 27
        assert family_member(Family.DIHEDRAL, 2, 4).order() == 16
        assert family_member(Family.QUATERNION, 2, 3).order() == 8
        assert family_member(Family.SEMIDIHEDRAL, 2, 4).order() == 16

    @pytest.mark.parametrize("family, p, n, counts", [
        (Family.MODULAR, 3, 3, (10, 7)),
        (Family.MODULAR, 5, 4, (20, 15)),
        (Family.MODULAR, 2, 4, (11, 9)),
        (Family.DIHEDRAL, 2, 3, (10, 6)),
        (Family.DIHEDRAL, 2, 4, (19, 7)),
        (Family.QUATERNION, 2, 3, (6, 6)),
        (Family.QUATERNION, 2, 4, (11, 7)),
        (Family.SEMIDIHEDRAL, 2, 4, (15, 7)),
    ])
    def test_counts(self, family, p, n, counts):
        assert family_counts(family, p, n) == counts

    def test_known_degrees(self):
        assert ndeg_family(Family.QUATERNION, 2, 3) == 1
        assert ndeg_family(Family.MODULAR, 5, 4) == Fraction(3, 4)
        assert ndeg_family(Family.DIHEDRAL, 2, 4) == Fraction(7, 19)

    def test_dihedral_family_agrees_with_general_dihedral(self):
        for n in range(3, 12):
            assert ndeg_family(Family.DIHEDRAL, 2, n) == degree(dihedral_counts(2 ** (n - 1)))

    def test_degree_checks_the_member_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(formulas, "family_member",
                            lambda *args: calls.append(args) or family_member(*args))
        assert ndeg_family(Family.MODULAR, 3, 5) == Fraction(15, 18)
        assert calls == [(Family.MODULAR, 3, 5)]

    def test_limits(self):
        assert family_limit(Family.MODULAR) == 1
        for family in (Family.DIHEDRAL, Family.QUATERNION, Family.SEMIDIHEDRAL):
            assert family_limit(family) == 0

    def test_modular_degrees_increase_toward_one(self):
        for p in (2, 3, 5):
            start = 4 if p == 2 else 3
            values = [ndeg_family(Family.MODULAR, p, n)
                      for n in range(start, start + 20)]
            assert all(a < b < 1 for a, b in zip(values, values[1:]))

    def test_two_group_degrees_decrease_toward_zero(self):
        for family, start in [(Family.DIHEDRAL, 3), (Family.QUATERNION, 4),
                              (Family.SEMIDIHEDRAL, 4)]:
            values = [ndeg_family(family, 2, n) for n in range(start, start + 15)]
            assert all(a > b > 0 for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("family, p, n", [
        (Family.QUATERNION, 3, 4),
        (Family.DIHEDRAL, 2, 1),
        (Family.QUATERNION, 2, 2),
        (Family.SEMIDIHEDRAL, 2, 3),
        (Family.MODULAR, 2, 3),
        (Family.MODULAR, 4, 3),
    ])
    def test_rejects_bad_parameters(self, family, p, n):
        with pytest.raises(ConstraintError):
            ndeg_family(family, p, n)


class TestFormulaDispatch:
    @pytest.mark.parametrize("spec, counts", [
        ("C(12)", (6, 6)),
        ("Dih(9)", (16, 4)),
        ("Q(4)", (11, 7)),
        ("SD(4)", (15, 7)),
        ("M(5,4)", (20, 15)),
        ("SDP(3,7,2)", (10, 3)),
        ("ZM(5,4,2)", (14, 4)),
    ])
    def test_covered_specs(self, spec, counts):
        assert formula_counts(spec) == counts

    def test_accepts_parsed_specs(self):
        assert formula_counts(parse_spec("Dih(9)")) == (16, 4)

    @pytest.mark.parametrize("spec", [
        "Dih(1)", "Dih(2)", "Sym(4)", "EA(2,3)", "C(2) x C(3)",
    ])
    def test_uncovered_specs_return_none(self, spec):
        assert formula_counts(spec) is None

    @pytest.mark.parametrize("spec", ["C(30)", "Dih(10)", "Q(5)", "M(3,4)"])
    def test_dispatch_matches_brute_force(self, spec):
        report = ndeg_brute(build(spec))
        assert formula_counts(spec) == (report.lattice_size, report.normal_count)
