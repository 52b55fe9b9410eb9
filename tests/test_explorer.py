"""Tests for the exploration helpers behind the command-line tool."""

from __future__ import annotations

import io
import json
import math
from fractions import Fraction

import numpy as np
import pytest
import sympy

from normdeg import groups
from normdeg.cli import main
from normdeg.degrees import ndeg_brute, sd_brute
from normdeg.errors import CapExceededError, ConstraintError
from normdeg.explorer import (
    VERIFY_FAMILIES,
    _by_power,
    _verification,
    catalog_specs,
    conjecture_witness_rows,
    degree_report,
    density_sequence,
    ledger_append,
    ledger_summarize,
    limits_rows,
    mpn_witnesses,
    verify_grid,
)
from normdeg.groups import build, parse_spec, sequence
from normdeg.lattice import enumerate_subgroups
from normdeg.numtheory import tau

from pgroup_bound import pgroup_bound_check


def brute(spec: str):
    """The brute-force report on a spec, over the lattice enumerated here."""
    G = build(spec)
    return ndeg_brute(G, enumerate_subgroups(G), spec_text=spec)


class TestDegreeReport:
    # (spec, method asked) -> method cell; Dih(6) has a closed form, Sym(4) none
    @pytest.mark.parametrize("spec, method, cell", [
        ("Dih(6)", "auto", "formula"), ("Dih(6)", "formula", "formula"),
        ("Dih(6)", "brute", "brute"), ("Dih(6)", "conjugacy", "conjugacy"),
        ("Sym(4)", "auto", "brute"), ("Sym(4)", "brute", "brute"),
        ("Sym(4)", "conjugacy", "conjugacy"),
    ])
    @pytest.mark.parametrize("sd", [False, True])
    def test_method_cell_and_counts(self, spec, method, cell, sd):
        G = build(spec)
        lat = enumerate_subgroups(G)
        report = degree_report(parse_spec(spec), method, sd)
        assert (report.spec, report.order, report.method) == (spec, G.order, cell)
        assert (report.lattice_size, report.normal_count) == (len(lat), lat.normal_count)
        assert report.sd == (sd_brute(G, lat) if sd else None)

    @pytest.mark.parametrize("method", ["auto", "formula"])
    def test_formula_without_sd_builds_no_table(self, monkeypatch, method):
        def build(spec):
            raise AssertionError("table built")

        monkeypatch.setattr("normdeg.explorer.build", build)
        report = degree_report(parse_spec("C(600)"), method, cap=100)
        assert (report.lattice_size, report.method) == (24, "formula")
        with pytest.raises(CapExceededError):
            degree_report(parse_spec("C(600)"), method, sd=True, cap=100)
        with pytest.raises(AssertionError, match="table built"):
            degree_report(parse_spec("C(60)"), method, sd=True, cap=100)

    # every route, sd and the p-group bound read len(), normal_count and
    # the conjugacy orbits, never the canonical sort
    def test_counts_need_no_canonical_order(self, monkeypatch):
        def key(n):
            raise AssertionError("canonical order built")

        monkeypatch.setattr("normdeg.lattice._canonical_key", key)
        report = degree_report(parse_spec("Sym(4)"), method="brute")
        assert (report.lattice_size, report.normal_count) == (30, 4)
        rows, skipped = verify_grid("dihedral", {"n": (3, 12)})
        assert len(rows) == 20 and all(r.ok for r in rows) and skipped == 0
        rows, skipped = verify_grid("abelian2", {"p": (2, 2), "asum": (2, 4)})
        assert rows and all(r.ok for r in rows) and skipped == 0
        report = degree_report(parse_spec("Sym(4)"), method="conjugacy", sd=True)
        assert (report.lattice_size, report.normal_count, report.sd) == (30, 4, Fraction(17, 30))
        G = build("Dih(4)")
        assert pgroup_bound_check(G, enumerate_subgroups(G)) == (Fraction(6, 10), True)


class TestDensitySequence:
    def test_first_step_toward_one_half(self):
        step = density_sequence(Fraction(1, 2), steps=1)[0]
        assert step.index == 1
        assert step.factor_specs == ("M(3,3)",)
        assert step.ndeg == Fraction(7, 10)
        assert step.gap == Fraction(1, 5)

    @pytest.mark.parametrize("target", [
        Fraction(1, 2), Fraction(2, 3), Fraction(3, 7),
        Fraction(0), Fraction(1),
    ])
    def test_gap_definition_and_strict_decrease(self, target):
        steps = density_sequence(target, steps=12)
        assert [s.index for s in steps] == list(range(1, 13))
        for s in steps:
            assert s.target == target
            assert s.gap == abs(s.ndeg - target) > 0
        gaps = [s.gap for s in steps]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_interior_targets_are_approached_from_above(self):
        for target in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 7)):
            for s in density_sequence(target, steps=8):
                assert s.ndeg > target

    def test_step_ndeg_is_a_real_product_of_group_degrees(self):
        for s in density_sequence(Fraction(3, 7), steps=3):
            product = Fraction(1)
            for spec in s.factor_specs:
                con = parse_spec(spec)
                product *= sequence("mpn").ndeg(*con.params)
            assert product == s.ndeg

    def test_factor_orders_are_pairwise_coprime(self):
        for s in density_sequence(Fraction(3, 7), steps=4):
            orders = [parse_spec(spec).order() for spec in s.factor_specs]
            from math import gcd
            assert all(gcd(a, b) == 1
                       for i, a in enumerate(orders) for b in orders[i + 1:])

    def test_crossing_points(self):
        threshold = Fraction(1, 100)
        for target, crossing in [(Fraction(1, 2), 25), (Fraction(2, 3), 16),
                                 (Fraction(3, 7), 4)]:
            steps = density_sequence(target, steps=25)
            below = [s.index for s in steps if s.gap < threshold]
            assert below and below[0] == crossing

    def test_twenty_step_gap_for_one_half(self):
        assert density_sequence(Fraction(1, 2), steps=20)[-1].gap == Fraction(1, 75)

    def test_endpoint_zero_uses_dihedral_groups(self):
        steps = density_sequence(Fraction(0), steps=3)
        assert [s.factor_specs for s in steps] == \
               [("Dih(4)",), ("Dih(8)",), ("Dih(16)",)]
        assert steps[0].ndeg == Fraction(3, 5)

    def test_endpoint_one_uses_modular_groups(self):
        steps = density_sequence(Fraction(1), steps=3)
        assert [s.factor_specs for s in steps] == \
               [("M(3,3)",), ("M(3,4)",), ("M(3,5)",)]
        assert steps[-1].ndeg == Fraction(5, 6)

    @pytest.mark.parametrize("target", [Fraction(5, 3), Fraction(-1, 2)])
    def test_rejects_targets_outside_unit_interval(self, target):
        with pytest.raises(ConstraintError):
            density_sequence(target, steps=2)


class TestConjectureSearch:
    @pytest.mark.parametrize("a, expected", [
        (1, []), (2, []), (3, ["M(5,4)"]), (4, []),
        (5, ["M(3,5)", "M(7,6)"]), (6, ["M(2,5)"]),
    ])
    def test_modular_witnesses(self, a, expected):
        assert mpn_witnesses(a) == expected

    def test_witnesses_match_a_scan_over_every_prime_and_exponent(self):
        for a in range(1, 61):
            found = []
            for q in sympy.primerange(2, a + 3):
                for n in range(1, a + 4):
                    try:
                        nd = sequence("mpn").ndeg(q, n)
                    except ConstraintError:
                        continue
                    if nd == Fraction(a, a + 1):
                        found.append((q ** n, f"M({q},{n})"))
            assert mpn_witnesses(a) == [spec for _, spec in sorted(found)], a

    # 2^301994 and 3^190537 differ by a factor 2^(9.3e-8): their keys
    # n log2 q agree to 3e-13, so the order comes from the powers themselves;
    # 3^2 and 2^3 are ordered by their keys alone
    @pytest.mark.parametrize("q1, n1, q2, n2", [(2, 301994, 3, 190537), (3, 2, 2, 3)])
    def test_near_tied_witnesses_compare_exactly(self, q1, n1, q2, n2):
        x, y = (n1 * math.log2(q1), q1, n1), (n2 * math.log2(q2), q2, n2)
        assert _by_power(x, y) == -_by_power(y, x) == (q1 ** n1 > q2 ** n2) - (q1 ** n1 < q2 ** n2)

    def test_witnesses_actually_hit_the_target(self):
        for a in range(1, 12):
            for spec in mpn_witnesses(a):
                con = parse_spec(spec)
                assert sequence("mpn").ndeg(*con.params) == Fraction(a, a + 1)

    def test_witness_rows(self):
        rows = conjecture_witness_rows(3, 200)
        assert [(r.a, r.target) for r in rows] == \
               [(1, Fraction(1, 2)), (2, Fraction(2, 3)), (3, Fraction(3, 4))]
        assert rows[0].criterion_witness is None
        assert rows[0].catalog_witness == "Sym(3)"
        assert rows[1].criterion_witness is None
        assert rows[1].catalog_witness is None
        assert rows[2].criterion_witness == "M(5,4)"
        assert rows[2].catalog_witness == "ZM(3,16,2)"

    def test_witness_rows_match_a_scan_of_the_catalog_for_each_a(self):
        catalog = [spec for spec, _ in catalog_specs(64)]
        degree: dict[str, Fraction] = {}
        expected = []
        for a in range(1, 41):
            hit = None
            for spec in catalog:
                if spec not in degree:
                    degree[spec] = brute(spec).ndeg
                if degree[spec] == Fraction(a, a + 1):
                    hit = spec
                    break
            crit = mpn_witnesses(a)
            expected.append((a, crit[0] if crit else None, hit))
        rows = conjecture_witness_rows(40, 64)
        assert [(r.a, r.criterion_witness, r.catalog_witness) for r in rows] == expected

    def test_catalog_witness_degree_is_exact(self):
        row = conjecture_witness_rows(3, 200)[2]
        direct = brute(row.catalog_witness).ndeg
        assert direct == Fraction(3, 4)


class TestCatalog:
    def test_small_catalog_front(self):
        specs = catalog_specs(6)
        assert specs[:3] == [("C(1)", 1), ("C(2)", 2), ("C(3)", 3)]
        assert ("Sym(3)", 6) in specs and ("C(6)", 6) in specs

    def test_orders_respect_cap_and_are_sorted(self):
        specs = catalog_specs(100)
        orders = [order for _, order in specs]
        assert orders == sorted(orders)
        assert all(order <= 100 for order in orders)
        assert len(set(spec for spec, _ in specs)) == len(specs)

    def test_contains_structured_families(self):
        specs = dict(catalog_specs(625))
        assert specs["M(5,4)"] == 625
        assert specs["Q(3)"] == 8
        assert specs["SDP(3,7,2)"] == 21
        assert "EA(2,2)" in specs

    def test_large_elementary_abelian_groups_are_excluded(self):
        specs = dict(catalog_specs(625))
        assert "EA(2,6)" not in specs

    def test_catalog_degree_uses_formulas_when_available(self):
        report = degree_report(parse_spec("M(5,4)"))  # order 625, past the default cap
        assert (report.ndeg, report.method) == (Fraction(3, 4), "formula")
        assert degree_report(parse_spec("Sym(4)")).ndeg == Fraction(2, 15)


class TestVerifyGrid:
    def test_families_list_is_stable(self):
        assert VERIFY_FAMILIES == ("sdp", "dihedral", "zm", "mpn",
                                   "dihedral2n", "quaternion2n",
                                   "semidihedral2n", "abelian2")

    @pytest.mark.parametrize("family, ranges", [
        ("sdp", {"p": (2, 3), "n": (2, 12)}),
        ("dihedral", {"n": (3, 12)}),
        ("zm", {"mn": (2, 40)}),
        ("mpn", {"p": (2, 3), "n": (3, 5)}),
        ("dihedral2n", {"n": (2, 5)}),
        ("quaternion2n", {"n": (3, 5)}),
        ("semidihedral2n", {"n": (4, 5)}),
        ("abelian2", {"p": (2, 2), "asum": (2, 4)}),
    ])
    def test_small_grids_pass(self, family, ranges):
        rows, skipped = verify_grid(family, ranges)
        assert rows
        assert all(r.ok for r in rows)
        assert skipped == 0

    def test_rows_carry_both_checks(self):
        rows, _ = verify_grid("sdp", {"p": (2, 2), "n": (3, 3)})
        assert [(r.params, r.check) for r in rows] == [
            ("p=2,n=3,k0=2", "lattice_size"), ("p=2,n=3,k0=2", "normal_count"),
        ]
        assert rows[0].formula_value == rows[0].brute_value == 6

    def test_cap_skips_large_tuples(self):
        rows, skipped = verify_grid("dihedral", {"n": (3, 12)}, cap=16)
        assert skipped > 0
        assert all(r.ok for r in rows)

    def test_cap_comes_before_the_closed_form_domain(self):
        # Dih(1) lies outside dihedral_counts' domain and is left out; Dih(2),
        # outside it too but past the cap, counts as skipped
        assert verify_grid("dihedral", {"n": (1, 2)}, cap=2) == ([], 1)

    def test_dihedral_sequence_starts_below_the_closed_form(self):
        # Dih(2) = EA(2,2): the sequence counts it, the formula route does not
        rows, _ = verify_grid("dihedral2n", {"n": (2, 2)})
        assert [(r.params, r.formula_value, r.brute_value) for r in rows] == \
               [("n=2", 5, 5), ("n=2", 5, 5)]
        assert limits_rows("dihedral2n", None, 2) == [(2, 1, 1)]  # ndeg 1, limit 0

    def test_default_ranges_cover_every_family(self):
        for family in VERIFY_FAMILIES:
            ranges = _verification(family).ranges
            assert ranges and all(lo <= hi for lo, hi in ranges.values())

    def test_rejects_unknown_family_and_keys(self):
        with pytest.raises(ConstraintError):
            verify_grid("octonion")
        with pytest.raises(ConstraintError):
            verify_grid("sdp", {"q": (2, 3)})


class TestOneRecordFamily:
    """A constructor added as one registry record plus its builder reaches
    the formula route, the catalog and a verify grid."""

    @staticmethod
    def table(params):
        a = np.arange(2 * params[0])
        return np.add.outer(a, a) % (2 * params[0])

    @pytest.fixture
    def toy(self, monkeypatch):
        # Toy(n): the cyclic group of order 2n, with its own builder,
        # closed form and verify grid
        record = groups._Family(
            ("n",), lambda p: None if p[0] >= 1 else ("Toy requires n >= 1", f"n={p[0]}"),
            lambda p: 2 * p[0], self.table, lambda cap: ((n,) for n in range(1, cap // 2 + 1)),
            counts=lambda n: (tau(2 * n), tau(2 * n)),
            grid=groups._Grid("toy", {"n": (1, 12)},
                              lambda r: ((n,) for n in range(r["n"][0], r["n"][1] + 1))))
        monkeypatch.setitem(groups._FAMILIES, "Toy", record)
        return record

    def test_compute_takes_the_formula_route(self, toy, capsys):
        assert main(["compute", "--spec", "Toy(6)", "--method", "formula"]) == 0
        row = capsys.readouterr().out.splitlines()[1].split("\t")
        assert row[:7] == ["Toy(6)", "12", "6", "6", "1/1", "-", "formula"]

    def test_catalog_lists_it_last_among_equal_orders(self, toy):
        specs = catalog_specs(12)
        assert [spec for spec, order in specs if order == 12][-1] == "Toy(6)"
        assert [spec for spec, _ in specs if spec.startswith("Toy")] == \
               [f"Toy({n})" for n in range(1, 7)]

    def test_verify_grid_checks_the_closed_form(self, toy, monkeypatch):
        rows, skipped = verify_grid("toy", cap=16)
        assert [r.params for r in rows[::2]] == [f"n={n}" for n in range(1, 9)]
        assert skipped == 4 and all(r.ok for r in rows)
        monkeypatch.setitem(groups._FAMILIES, "Toy",
                            toy._replace(counts=lambda n: (tau(2 * n), 1)))
        rows, _ = verify_grid("toy", {"n": (2, 3)})
        assert [r.ok for r in rows] == [True, False, True, False]


class TestLimits:
    def test_modular_rows_increase_toward_one(self):
        rows = limits_rows("mpn", 3, 10)
        assert [n for n, _, _ in rows] == list(range(3, 11))
        values = [nd for _, nd, _ in rows]
        dists = [d for _, _, d in rows]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert all(d == 1 - nd for (_, nd, d) in rows)
        assert dists == sorted(dists, reverse=True)

    def test_dihedral_rows_decrease_toward_zero(self):
        rows = limits_rows("dihedral2n", 2, 10)
        assert rows[0][0] == 2
        assert all(d == nd for (_, nd, d) in rows)
        values = [nd for _, nd, _ in rows]
        assert all(a > b for a, b in zip(values[1:], values[2:]))


class TestLedger:
    def _append_reports(self, path):
        for spec in ("Sym(3)", "Dih(4)", "Sym(3) x C(5)"):
            ledger_append(str(path), brute(spec))

    def test_round_trip(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        self._append_reports(path)
        summary = ledger_summarize(str(path), err=io.StringIO())
        assert summary["records"] == 3
        assert summary["malformed"] == 0
        assert summary["by_method"] == {"brute": 3}
        assert summary["by_family"] == {"Dih": 1, "Sym": 1, "product": 1}
        assert (Fraction(1, 2), 2) in summary["ndeg_values"]

    def test_lines_are_json_with_version_stamp(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        self._append_reports(path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        record = json.loads(lines[0])
        assert record["spec"] == "Sym(3)"
        assert record["ndeg"] == "1/2"
        assert "timestamp" in record and "tool_version" in record

    def test_malformed_lines_are_reported_and_skipped(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        self._append_reports(path)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{broken\n")
        ledger_append(str(path), brute("Q(3)"))
        err = io.StringIO()
        summary = ledger_summarize(str(path), err=err)
        assert summary["records"] == 4
        assert summary["malformed"] == 1
        assert "line 4" in err.getvalue()

    def test_a_line_that_is_not_utf8_is_malformed(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        self._append_reports(path)
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe\n")
        err = io.StringIO()
        summary = ledger_summarize(str(path), err=err)
        assert (summary["records"], summary["malformed"]) == (3, 1)
        assert "line 4" in err.getvalue()

    @pytest.mark.parametrize("line", [
        "[1]",
        '{"method": "brute", "spec": "C(2)", "ndeg": "1/0"}',
        '{"method": ["brute"], "spec": "C(2)", "ndeg": "1/1"}',
        '{"method": "brute", "spec": 7, "ndeg": "1/1"}',
    ])
    def test_records_of_the_wrong_shape_are_malformed(self, tmp_path, line):
        path = tmp_path / "ledger.jsonl"
        path.write_text(line + "\n")
        summary = ledger_summarize(str(path), err=io.StringIO())
        assert (summary["records"], summary["malformed"]) == (0, 1)
