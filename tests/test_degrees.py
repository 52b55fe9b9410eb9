"""Tests for the exact degree computations.

The subgroup commutativity oracle here multiplies element sets directly
(HK as a literal set product) so it shares nothing with the implementation's
membership-matrix products and join test.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from normdeg.degrees import (
    METHODS,
    DegreeReport,
    ndeg_brute,
    ndeg_conjugacy,
    ndeg_coprime_product,
    sd_brute,
)
from normdeg.cli import main
from normdeg.errors import ConstraintError
from normdeg.explorer import catalog_specs
from normdeg.groups import build
from normdeg.lattice import SubgroupLattice, enumerate_subgroups
from normdeg.numtheory import format_ratio

from lattice_classes import classes
from pgroup_bound import pgroup_bound_check


def lattice_of(spec: str):
    """(G, its lattice): the two arguments every route takes."""
    G = build(spec)
    return G, enumerate_subgroups(G)


def sd_by_set_products(G) -> Fraction:
    """Ordered-pair commutativity fraction computed from literal set products."""
    lat = enumerate_subgroups(G)
    rows = G.rows
    element_lists = [list(s.elements()) for s in lat.subgroups]
    k = len(element_lists)
    good = 0
    for H in element_lists:
        for K in element_lists:
            HK = {rows[h][x] for h in H for x in K}
            KH = {rows[x][h] for h in H for x in K}
            good += HK == KH
    return Fraction(good, k * k)


KNOWN_VALUES = {
    "Sym(3)": Fraction(1, 2),
    "Sym(4)": Fraction(2, 15),
    "Sym(3) x C(2)": Fraction(7, 16),
    "Dih(6)": Fraction(7, 16),
    "Q(3)": Fraction(1),
    "Dih(4)": Fraction(3, 5),
    "SDP(3,7,2)": Fraction(3, 10),
    "ZM(5,4,2)": Fraction(2, 7),
    "C(360)": Fraction(1),
    "EA(2,3)": Fraction(1),
}


class TestKnownDegrees:
    @pytest.mark.parametrize("spec, value", sorted(KNOWN_VALUES.items()))
    def test_brute_values(self, spec, value):
        assert ndeg_brute(*lattice_of(spec)).ndeg == value

    def test_modular_625_past_the_default_cap(self):
        report = ndeg_brute(*lattice_of("M(5,4)"))
        assert report.ndeg == Fraction(3, 4)
        assert (report.lattice_size, report.normal_count) == (20, 15)

    @pytest.mark.parametrize("spec", sorted(KNOWN_VALUES))
    def test_conjugacy_route_agrees(self, spec):
        G, lat = lattice_of(spec)
        assert ndeg_conjugacy(G, lat).ndeg == ndeg_brute(G, lat).ndeg

    def test_conjugacy_route_catches_a_split_orbit(self):
        # Sym(3)'s class of three order-2 subgroups, held as orbits of two
        # and one: brute force counts the lone one as normal (4 of 6), the
        # conjugacy route adds |G : N(H)| = 3 for the pair (4 of 4 + 3)
        G, lat = lattice_of("Sym(3)")
        [reflections] = [orbit for orbit in lat.orbits if len(orbit) == 3]
        one = max(reflections)
        split = SubgroupLattice(G.order, [orbit for orbit in lat.orbits if orbit is not reflections]
                                + [reflections - {one}, {one}])
        assert ndeg_brute(G, split).ndeg == Fraction(2, 3)
        assert ndeg_conjugacy(G, split).ndeg == Fraction(4, 7)

    def test_report_consistency_validated(self):
        report = DegreeReport(spec="x", order=6, lattice_size=6, normal_count=3)
        assert report.ndeg == Fraction(1, 2)
        with pytest.raises(ValueError):
            DegreeReport(spec="x", order=6, lattice_size=6, normal_count=3,
                         method="guess")

    @pytest.mark.parametrize("sd", [Fraction(7, 6), Fraction(1, 3)])
    def test_sd_outside_ndeg_to_one_rejected(self, sd):
        with pytest.raises(ValueError, match="sd out of range"):
            DegreeReport(spec="x", order=6, lattice_size=6, normal_count=3,
                         sd=sd)
        DegreeReport(spec="x", order=6, lattice_size=6, normal_count=3,
                     sd=Fraction(5, 6))

    def test_json_round_trip(self):
        report = ndeg_brute(*lattice_of("Sym(3)"), spec_text="Sym(3)")
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data == {
            "spec": "Sym(3)", "order": 6, "lattice_size": 6,
            "normal_count": 3, "ndeg": "1/2", "sd": None,
            "method": "brute", "elapsed_ms": data["elapsed_ms"],
        }
        assert set(METHODS) == {"brute", "conjugacy", "formula", "product"}


class TestCommutativityDegree:
    @pytest.mark.parametrize("spec", sorted({
        "Sym(3)", "Dih(4)", "Q(3)", "Sym(4)", "C(12)", "EA(2,2)",
        "Dih(6)", "ZM(5,2,4)", "M(3,3)",
        "Sym(3) x C(2)", "Dih(4) x C(2)", "Sym(3) x C(3)",
        # non-normal classes of size >= 3, normal and non-normal containers
        "Dih(8)", "SD(4)", "Q(4) x C(2)", "Sym(3) x Sym(3)", "Dih(5) x C(3)",
        "Sym(4) x C(2)",
        # every catalog group up to order 32: the small lattices, where the
        # kernel's edge cases are (C(1), one non-normal class, EA(2,5))
    } | {spec for spec, _ in catalog_specs(32)}))
    def test_matches_set_product_oracle(self, spec):
        G, lat = lattice_of(spec)
        assert sd_brute(G, lat) == sd_by_set_products(G)

    @pytest.mark.parametrize("left, right", [
        ("Sym(3)", "ZM(11,5,3)"), ("SDP(3,7,2)", "Dih(4)"),
    ])
    def test_multiplicative_on_coprime_products(self, left, right):
        # subgroups of A x B with coprime orders are exactly the H x K, and
        # H x K commutes with H' x K' exactly when both factor pairs commute
        assert sd_brute(*lattice_of(f"{left} x {right}")) == (
            sd_brute(*lattice_of(left)) * sd_brute(*lattice_of(right)))

    @pytest.mark.parametrize("spec, value", [
        ("Sym(5)", Fraction(67, 312)),
        ("Dih(128)", Fraction(10297, 69169)),
        ("SD(9)", Fraction(2153, 19208)),
        ("Dih(8) x C(2) x C(2)", Fraction(77745, 108241)),
        ("EA(2,5)", Fraction(1)),
        ("Dih(4) x Dih(4)", Fraction(122681, 151321)),
        ("EA(3,4)", Fraction(1)),
        ("Sym(4) x C(2)", Fraction(2561, 4802)),
    ])
    def test_frozen_values_on_larger_lattices(self, spec, value):
        assert sd_brute(*lattice_of(spec)) == value

    @pytest.mark.parametrize("spec, cap, value", [
        ("Dih(6) x Dih(6)", 512, Fraction(35999, 69312)),
        ("Sym(5) x C(2)", 512, Fraction(10323, 57245)),
        ("Dih(4) x Dih(4) x C(2)", 512, Fraction(293729, 368449)),
        ("Sym(4) x Sym(4)", 1024, Fraction(57423, 246016)),
        # order 4096, the build ceiling: the most elements a product entry counts
        ("Dih(2048)", 4096, Fraction(262273, 16867449)),
        # Dedekind groups: no non-normal subgroup, so nothing is tested
        ("C(1)", 512, Fraction(1)),
        ("Q(3) x C(3)", 512, Fraction(1)),
    ])
    def test_frozen_values_past_the_corpus(self, spec, cap, value, capsys):
        # through the command, whose --cap admits the order
        assert main(["compute", f"--spec={spec}", "--method=brute", "--sd",
                     f"--cap={cap}"]) == 0
        assert capsys.readouterr().out.splitlines()[1].split("\t")[5] == format_ratio(value)

    def test_sym3_by_hand(self):
        # 36 ordered pairs; the (reflection, different reflection) pairs
        # fail in both orders: 6 bad pairs
        assert sd_brute(*lattice_of("Sym(3)")) == Fraction(30, 36)

    @pytest.mark.parametrize("spec", [
        "Sym(3)", "Sym(4)", "Dih(4)", "Dih(6)", "Q(3)", "Q(4)",
        "C(30)", "EA(3,2)", "SDP(3,7,2)", "M(2,4)",
    ])
    def test_degree_inequality_and_dedekind_equivalence(self, spec):
        G, lat = lattice_of(spec)
        nd = ndeg_brute(G, lat).ndeg
        sd = sd_brute(G, lat)
        dedekind = lat.normal_count == len(lat)
        assert nd <= sd
        assert (nd == sd) == dedekind == (nd == 1)

    def test_hamiltonian_group_is_dedekind(self):
        G, lat = lattice_of("Q(3) x C(3)")
        assert lat.normal_count == len(lat)
        assert ndeg_brute(G, lat).ndeg == 1


class TestPGroupBound:
    @pytest.mark.parametrize("spec, p", [
        ("Dih(4)", 2), ("Q(3)", 2), ("Q(4)", 2), ("SD(4)", 2),
        ("M(2,4)", 2), ("M(3,3)", 3), ("EA(3,2)", 3), ("C(16)", 2),
        ("M(5,3)", 5), ("C(2) x Dih(4)", 2),
    ])
    def test_bound_holds(self, spec, p):
        G, lat = lattice_of(spec)
        bound, holds = pgroup_bound_check(G, lat)
        assert holds
        assert 0 < bound <= 1
        # the prime comes from the group order
        normal = lat.normal_count
        multi = sum(1 for cls in classes(lat) if len(cls) > 1)
        assert bound == Fraction(normal, normal + p * multi)

    def test_rejects_non_p_group(self):
        with pytest.raises(ConstraintError):
            pgroup_bound_check(*lattice_of("Sym(3)"))

    def test_bound_value_on_dihedral8(self):
        # 6 normal subgroups, 2 multi-element classes: 6/(6+2*2)
        bound, holds = pgroup_bound_check(*lattice_of("Dih(4)"))
        assert bound == Fraction(6, 10) and holds


class TestCoprimeProduct:
    PAIRS = [("Sym(3)", "C(5)"), ("Dih(4)", "C(9)"), ("Q(3)", "C(3)"),
             ("C(25)", "Sym(3)"), ("M(3,3)", "C(2)"), ("Dih(3)", "EA(5,2)")]

    @pytest.mark.parametrize("left, right", PAIRS)
    def test_matches_brute_force(self, left, right):
        combined = ndeg_coprime_product([
            ndeg_brute(*lattice_of(left), spec_text=left),
            ndeg_brute(*lattice_of(right), spec_text=right),
        ])
        direct = ndeg_brute(*lattice_of(f"{left} x {right}"))
        assert combined.ndeg == direct.ndeg
        assert combined.lattice_size == direct.lattice_size
        assert combined.normal_count == direct.normal_count
        assert combined.method == "product"

    def test_three_factor_product(self):
        parts = [ndeg_brute(*lattice_of(s), spec_text=s)
                 for s in ("Sym(3)", "C(5)", "C(49)")]
        combined = ndeg_coprime_product(parts)
        assert combined.order == 6 * 5 * 49
        assert combined.ndeg == Fraction(1, 2)

    def test_rejects_common_factor_and_names_pair(self):
        parts = [ndeg_brute(*lattice_of(s), spec_text=s)
                 for s in ("Sym(3)", "C(5)", "C(10)")]
        with pytest.raises(ConstraintError) as err:
            ndeg_coprime_product(parts)
        assert "Sym(3)" in str(err.value) and "C(10)" in str(err.value)

    def test_noncoprime_failure_is_real(self):
        # the multiplicativity that holds for coprime orders genuinely
        # fails here: both factors of order 6 and 2 share the prime 2
        left = ndeg_brute(*lattice_of("Sym(3)"), spec_text="Sym(3)")
        right = ndeg_brute(*lattice_of("C(2)"), spec_text="C(2)")
        product_of_values = left.ndeg * right.ndeg
        direct = ndeg_brute(*lattice_of("Sym(3) x C(2)")).ndeg
        assert direct == Fraction(7, 16) != product_of_values
