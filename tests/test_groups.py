"""Tests for group table construction and the group-spec mini-language."""

from __future__ import annotations

from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normdeg.errors import ConstraintError, SpecParseError
from normdeg.groups import (
    MAX_BUILD_ORDER,
    Constructor,
    Product,
    build,
    check_params,
    closure,
    element_order,
    family_params,
    is_abelian,
    parse_spec,
    render,
    terms,
)


class TestParsing:
    def test_single_constructor(self):
        spec = parse_spec("Dih(6)")
        assert isinstance(spec, Constructor)
        assert spec.name == "Dih" and spec.params == (6,)

    def test_product_left_associated(self):
        spec = parse_spec("C(2) x C(3) x C(5)")
        assert isinstance(spec, Product)
        assert isinstance(spec.left, Product)
        assert [t.render() for t in terms(spec)] == ["C(2)", "C(3)", "C(5)"]

    def test_whitespace_tolerated(self):
        assert render(parse_spec("  SDP( 3 , 7 , 2 ) ")) == "SDP(3,7,2)"

    def test_round_trip(self):
        for text in ["C(12)", "Sym(4)", "EA(3,2)", "ZM(5,4,2)",
                     "Q(3) x C(3)", "M(2,4) x Sym(3) x C(5)"]:
            assert render(parse_spec(text)) == text

    @pytest.mark.parametrize("bad, position", [
        ("", 0),
        ("Dih", 3),
        ("Dih(", 4),
        ("Dih(6", 5),
        ("Dih(6))", 6),
        ("C(2) y C(3)", 5),
        ("C(2) x", 6),
        ("C(-3)", 2),
    ])
    def test_parse_errors_carry_position(self, bad, position):
        with pytest.raises(SpecParseError) as err:
            parse_spec(bad)
        assert err.value.position == position

    def test_unknown_constructor_is_a_constraint_error(self):
        with pytest.raises(ConstraintError, match="unknown constructor"):
            parse_spec("Foo(3)")

    def test_orders_without_building(self):
        assert parse_spec("M(7,6)").order() == 7 ** 6
        assert parse_spec("Dih(10) x C(3)").order() == 60

    @given(st.lists(st.sampled_from(
        ["C(2)", "C(6)", "Sym(3)", "Dih(4)", "EA(2,2)", "Q(3)"]),
        min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_products(self, parts):
        text = " x ".join(parts)
        assert render(parse_spec(text)) == text


class TestConstraints:
    @pytest.mark.parametrize("name, params", [
        ("C", (0,)),
        ("Dih", (0,)),
        ("Sym", (0,)),
        ("Sym", (6,)),
        ("EA", (4, 2)),
        ("EA", (3, 0)),
        ("Q", (2,)),
        ("SD", (3,)),
        ("M", (3, 2)),
        ("M", (2, 3)),
        ("M", (4, 3)),
        ("SDP", (4, 7, 2)),
        ("SDP", (3, 6, 2)),
        ("SDP", (3, 7, 3)),
        ("SDP", (3, 7, 1)),
        ("SDP", (2, 8, 3)),
        ("ZM", (4, 3, 3)),
        ("ZM", (5, 5, 2)),
        ("ZM", (5, 3, 2)),
        ("ZM", (9, 2, 4)),
    ])
    def test_rejected_parameters(self, name, params):
        with pytest.raises(ConstraintError):
            check_params(name, params)

    def test_error_names_constraint(self):
        with pytest.raises(ConstraintError) as err:
            check_params("SDP", (3, 7, 3))
        assert "k0**p == 1" in str(err.value)

    # residue parameters are listed once, below their modulus
    @pytest.mark.parametrize("name, arity, canonical", [
        ("C", 1, None), ("Dih", 1, None), ("Q", 1, None), ("SD", 1, None),
        ("Sym", 1, None), ("M", 2, None), ("EA", 2, None),
        ("SDP", 3, lambda p, n, k0: k0 < n), ("ZM", 3, lambda m, n, r: r < m),
    ])
    def test_family_params_lists_every_valid_tuple(self, name, arity, canonical):
        cap = 30
        expected = []
        for params in product(range(cap + 1), repeat=arity):
            try:
                term = Constructor(name, params)
            except ConstraintError:
                continue
            if term.order() <= cap and (canonical is None or canonical(*params)):
                expected.append(params)
        assert family_params(name, cap) == expected

    def test_build_order_ceiling(self):
        with pytest.raises(ConstraintError):
            build(f"C({MAX_BUILD_ORDER + 1})")


GROUP_AXIOM_SPECS = [
    "C(1)", "C(24)", "Dih(1)", "Dih(2)", "Dih(7)", "Dih(8)",
    "Sym(4)", "EA(2,3)", "EA(5,2)", "Q(3)", "Q(4)", "SD(4)",
    "M(2,4)", "M(3,3)", "M(5,3)", "SDP(3,7,2)", "SDP(2,9,8)",
    "ZM(5,4,2)", "ZM(7,3,2)", "ZM(3,2,2)", "C(4) x Dih(3)",
    "Q(3) x C(3)", "EA(2,2) x C(9)",
]


class TestTables:
    @pytest.mark.parametrize("spec", GROUP_AXIOM_SPECS)
    def test_axioms_hold(self, spec):
        G = build(spec)  # build(validate=True) checks the axioms internally
        n = G.order
        assert G.mul.shape == (n, n)
        assert len(G.labels) == n
        # identity fixed at index 0
        assert list(G.mul[0]) == list(range(n))
        # spot associativity beyond the builder's own validation
        rng = np.random.default_rng(7)
        for _ in range(200):
            a, b, c = rng.integers(0, n, size=3)
            assert G.mul[G.mul[a, b], c] == G.mul[a, G.mul[b, c]]

    def test_orders(self):
        assert build("Sym(5)").order == 120
        assert build("EA(3,3)").order == 27
        assert build("ZM(15,4,2)").order == 60
        assert build("C(6) x C(35)").order == 210

    def test_fingerprint_cyclic(self):
        # element orders of C(12) follow the divisor count phi(d)
        fp = build("C(12)").fingerprint
        assert fp == {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}

    def test_fingerprint_dihedral_powers_of_two(self):
        # Dih(2^k) has 2^k + 1 involutions and phi(d) rotations of order d
        for k in (2, 3, 4, 5):
            n = 2 ** k
            fp = build(f"Dih({n})").fingerprint
            expect = {1: 1, 2: n + 1}
            d = 4
            while d <= n:
                expect[d] = d - d // 2
                d *= 2
            assert fp == expect

    def test_quaternion_single_involution(self):
        for n in (3, 4, 5):
            assert build(f"Q({n})").fingerprint[2] == 1

    def test_element_order_against_fingerprint(self):
        G = build("Sym(4)")
        counted: dict[int, int] = {}
        for x in range(G.order):
            o = element_order(G, x)
            counted[o] = counted.get(o, 0) + 1
        assert counted == {1: 1, 2: 9, 3: 8, 4: 6}

    def test_abelian_detection(self):
        assert is_abelian(build("C(30)"))
        assert is_abelian(build("EA(3,3)"))
        assert not is_abelian(build("Dih(3)"))
        assert not is_abelian(build("Q(3)"))
        assert not is_abelian(build("C(5) x Sym(3)"))

    def test_zm_matches_dihedral_for_odd_m(self):
        # same presentation parameters give isomorphic tables: compare
        # fingerprints and subgroup profiles downstream; here the orders
        # of elements must agree exactly for m odd
        for m in (3, 5, 7, 9, 15):
            zm = build(f"ZM({m},2,{m - 1})").fingerprint
            dih = build(f"Dih({m})").fingerprint
            assert zm == dih

    def test_sdp_dihedral_instance(self):
        # p = 2, k0 = n - 1 realizes the dihedral relation
        assert build("SDP(2,9,8)").fingerprint == build("Dih(9)").fingerprint

    def test_modular_group_relation(self):
        # y^-1 x y = x^(p^(n-2)+1) with x of order p^(n-1)
        G = build("M(3,3)")
        x = G.labels.index("x")
        y = G.labels.index("y")
        yinv = int(G.inv[y])
        lhs = G.mul[G.mul[yinv, x], y]
        xk = 0
        for _ in range(3 + 1):
            xk = G.mul[xk, x]
        assert lhs == xk

    def test_generators_generate(self):
        for spec in ("Sym(4)", "Q(4)", "ZM(5,4,2)"):
            G = build(spec)
            gens = G.generators()
            assert len(gens) <= 3
            seen = {0}
            frontier = [0]
            while frontier:
                nxt = []
                for h in frontier:
                    for g in gens:
                        y = int(G.mul[h, g])
                        if y not in seen:
                            seen.add(y)
                            nxt.append(y)
                frontier = nxt
            assert len(seen) == G.order

    def test_closure_stops_past_the_limit(self):
        G = build("Dih(6)")
        assert closure(G.rows, [1]) == (0b111111, 6)
        assert closure(G.rows, [1], limit=6) == (0b111111, 6)
        assert closure(G.rows, [1], limit=5) is None
        assert closure(G.rows, []) == (1, 1)

    def test_product_labels(self):
        G = build("C(2) x C(3)")
        assert G.labels[0] == "(0,0)"
        assert G.order == 6

    def test_validate_catches_broken_table(self):
        from normdeg.groups import GroupTable

        mul = np.array([[0, 1], [1, 1]], dtype=np.int16)
        with pytest.raises(ValueError):
            GroupTable(mul, labels=["e", "a"], spec_text=None)
