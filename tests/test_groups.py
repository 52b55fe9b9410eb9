"""Tests for group table construction and the group-spec mini-language."""

from __future__ import annotations

from collections import Counter
from itertools import permutations, product
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normdeg.errors import ConstraintError, SpecParseError
from normdeg.groups import (
    MAX_BUILD_ORDER,
    Constructor,
    GroupTable,
    Product,
    _build_raw,
    _check_zm,
    _table_sym,
    build,
    check_params,
    closure,
    family_params,
    metacyclic_table,
    parse_spec,
)


def fingerprint(G) -> Counter:
    """Histogram {element order: count}, each order the size of <x>."""
    return Counter(closure(G.rows, [x])[1] for x in range(G.order))


class TestParsing:
    def test_single_constructor(self):
        spec = parse_spec("Dih(6)")
        assert isinstance(spec, Constructor)
        assert spec.name == "Dih" and spec.params == (6,)

    def test_product_left_associated(self):
        spec = parse_spec("C(2) x C(3) x C(5)")
        assert isinstance(spec, Product)
        assert isinstance(spec.left, Product)
        assert spec.left.left.render() == "C(2)"
        assert spec.render() == "C(2) x C(3) x C(5)"

    def test_whitespace_tolerated(self):
        assert parse_spec("  SDP( 3 , 7 , 2 ) ").render() == "SDP(3,7,2)"

    def test_round_trip(self):
        for text in ["C(12)", "Sym(4)", "EA(3,2)", "ZM(5,4,2)",
                     "Q(3) x C(3)", "M(2,4) x Sym(3) x C(5)"]:
            assert parse_spec(text).render() == text

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
        assert parse_spec(text).render() == text


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

    def test_zm_rejects_every_even_modulus(self):
        # family_params("ZM", cap) walks only odd m, n prime to m and the r
        # with r**n == 1 (mod m); the check rejects every tuple it skips
        assert all(_check_zm((m, n, r)) is not None
                   for m in range(1, 61) for n in range(1, 61) for r in range(61)
                   if m % 2 == 0 or gcd(m, n) != 1 or pow(r, n, m) != 1 % m)

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
        G = build(spec)  # build checks the axioms internally
        n = G.order
        assert G.mul.shape == (n, n)
        assert G.inv.shape == (n,)
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
        fp = fingerprint(build("C(12)"))
        assert fp == {1: 1, 2: 1, 3: 2, 4: 2, 6: 2, 12: 4}

    def test_fingerprint_dihedral_powers_of_two(self):
        # Dih(2^k) has 2^k + 1 involutions and phi(d) rotations of order d
        for k in (2, 3, 4, 5):
            n = 2 ** k
            fp = fingerprint(build(f"Dih({n})"))
            expect = {1: 1, 2: n + 1}
            d = 4
            while d <= n:
                expect[d] = d - d // 2
                d *= 2
            assert fp == expect

    def test_quaternion_single_involution(self):
        for n in (3, 4, 5):
            assert fingerprint(build(f"Q({n})"))[2] == 1

    def test_element_order_against_fingerprint(self):
        assert fingerprint(build("Sym(4)")) == {1: 1, 2: 9, 3: 8, 4: 6}

    def test_abelian_detection(self):
        # a group is abelian exactly when its table is symmetric
        for spec, abelian in [("C(30)", True), ("EA(3,3)", True), ("Dih(3)", False),
                              ("Q(3)", False), ("C(5) x Sym(3)", False)]:
            G = build(spec)
            assert np.array_equal(G.mul, G.mul.T) == abelian

    def test_zm_matches_dihedral_for_odd_m(self):
        # same presentation parameters give isomorphic tables: compare
        # fingerprints and subgroup profiles downstream; here the orders
        # of elements must agree exactly for m odd
        for m in (3, 5, 7, 9, 15):
            zm = fingerprint(build(f"ZM({m},2,{m - 1})"))
            dih = fingerprint(build(f"Dih({m})"))
            assert zm == dih

    def test_sdp_dihedral_instance(self):
        # p = 2, k0 = n - 1 realizes the dihedral relation
        assert fingerprint(build("SDP(2,9,8)")) == fingerprint(build("Dih(9)"))

    def test_modular_group_relation(self):
        # y^-1 x y = x^(p^(n-2)+1) with x of order p^(n-1); x^i y^a has id a*9 + i
        G = build("M(3,3)")
        x, y = 1, 9
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

    def test_product_element_ids(self):
        # (a, b) in C(2) x C(3) has id 3a + b, multiplied componentwise
        G = build("C(2) x C(3)")
        assert G.order == 6
        assert G.mul[3 * 1 + 2, 3 * 1 + 2] == 3 * 0 + 1
        assert G.mul[3 * 0 + 1, 3 * 1 + 1] == 3 * 1 + 2

    def test_table_does_not_freeze_or_share_the_callers_array(self):
        # an int16 array already has the table dtype, so a cast need not copy it
        a = build("C(5)").mul.copy()
        G = GroupTable(a)
        assert a.flags.writeable and not np.shares_memory(G.mul, a)
        a[1, 1] = 0
        assert G.mul[1, 1] == 2 and not G.mul.flags.writeable

    @pytest.mark.parametrize("bad", [-1, 3, 2**16 + 1])
    def test_validate_checks_the_entry_range(self, bad):
        # 2**16 + 1 would wrap to 1, the right entry, in the int16 table
        mul = [[0, 1, 2], [1, 2, 0], [2, 0, bad]]
        with pytest.raises(ValueError, match=r"\[0, order\)"):
            GroupTable(mul)

    @pytest.mark.parametrize("mul", [
        [[0, 1, 2], [1, 2, 0], [2, 0, 1.9]],  # int16 would truncate 1.9 to 1, giving C(3)
        np.array([[0.0, 1.0], [1.0, 0.0]]),
        [[True, False], [False, True]],
    ])
    def test_validate_rejects_non_integer_entries(self, mul):
        with pytest.raises(ValueError, match="integers"):
            GroupTable(mul)

    def test_validate_needs_no_latin_check(self):
        # identity and right inverses, but rows 1 and 2 repeat 0: Light's
        # test rejects it, so no separate Latin check is needed
        with pytest.raises(ValueError, match="associativity"):
            GroupTable([[0, 1, 2], [1, 0, 0], [2, 0, 0]])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_validate_accepts_exactly_the_groups_of_small_order(self, n):
        # every table on [0, n) whose row 0 and column 0 are the identity
        verdicts = [(_accepted(mul), _is_group(mul)) for mul in _tables_with_identity(n)]
        assert all(ours == naive for ours, naive in verdicts)
        assert sum(naive for _, naive in verdicts) == 1  # C(n), with its labels fixed by 0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_validate_accepts_exactly_the_groups_of_order_4_to_6(self, data):
        # a relabelled group table with a few cells overwritten, or any
        # table with an identity row and column
        n = data.draw(st.integers(4, 6), label="n")
        if data.draw(st.booleans(), label="near a group"):
            base = build(data.draw(st.sampled_from(_GROUPS_BY_ORDER[n]), label="group")).rows
            perm = [0] + data.draw(st.permutations(range(1, n)), label="labels")
            mul = [[0] * n for _ in range(n)]
            for x, y in product(range(n), repeat=2):
                mul[perm[x]][perm[y]] = perm[base[x][y]]
        else:
            mul = [list(range(n))] + [[x] + [0] * (n - 1) for x in range(1, n)]
        cell = st.tuples(st.integers(1, n - 1), st.integers(1, n - 1), st.integers(0, n - 1))
        for x, y, v in data.draw(st.lists(cell, max_size=(n - 1) ** 2), label="edits"):
            mul[x][y] = v
        assert _accepted(mul) == _is_group(mul)

    def test_validate_catches_broken_table(self):
        mul = np.array([[0, 1], [1, 1]], dtype=np.int16)
        with pytest.raises(ValueError):
            GroupTable(mul)

    @pytest.mark.parametrize("n", [130, 2048])
    def test_validate_catches_a_swapped_intercalate(self, n):
        # swapping the 2x2 Latin subsquare on rows 3, 3+h and columns 5, 5+h
        # keeps the identity, the Latin property and the inverses
        h = n // 2
        mul = build(f"C({n})").mul.copy()
        rows, cols = np.ix_([3, 3 + h], [5, 5 + h])
        mul[rows, cols] = mul[rows, cols][::-1]
        with pytest.raises(ValueError, match="associativity"):
            GroupTable(mul)

    def test_validate_catches_the_smallest_nonassociative_loop(self):
        # a Latin square with identity 0 and x*x = 0, so with inverses;
        # every group of order 5 is cyclic, so this one is not a group
        mul = np.array([[0, 1, 2, 3, 4],
                        [1, 0, 3, 4, 2],
                        [2, 4, 0, 1, 3],
                        [3, 2, 4, 0, 1],
                        [4, 3, 1, 2, 0]])
        with pytest.raises(ValueError, match="associativity"):
            GroupTable(mul)


def _span(table: list[list[int]], gens: list[int]) -> set[int]:
    """The elements of <gens>, by depth-first search over x -> x*s on the whole table."""
    seen, frontier = {0}, [0]
    while frontier:
        x = frontier.pop()
        for s in gens:
            if table[x][s] not in seen:
                seen.add(table[x][s])
                frontier.append(table[x][s])
    return seen


def _greedy_generators(G) -> list[int]:
    """The greedy search over the fully converted table."""
    table = G.mul.tolist()
    gens: list[int] = []
    seen = {0}
    for g in range(G.order):
        if g not in seen:
            gens.append(g)
            seen = _span(table, gens)
    return gens


class TestRows:
    def test_build_converts_only_the_generator_rows(self):
        G = build("Dih(2048)")
        assert len(G.rows) == len(G.generators())

    @pytest.mark.parametrize("spec", ["C(1)", "Sym(4)", "Q(4) x C(3)", "SDP(3,7,2)"])
    def test_rows_match_the_table(self, spec):
        G = build(spec)
        n = G.order
        assert all(G.rows[x] == G.mul[x].tolist() for x in range(n))
        assert len(G.rows) == n

    @pytest.mark.parametrize("spec", GROUP_AXIOM_SPECS)
    def test_closure_reads_only_the_generator_rows(self, spec):
        G = build(spec)
        n = G.order
        table = G.mul.tolist()
        # no limit, though rows holds only the generators' rows
        assert closure(G.rows, G.generators()) == ((1 << n) - 1, n)
        rng = np.random.default_rng(3)
        for g in range(n):
            gens = [g, int(rng.integers(n))]
            before = set(G.rows)
            span = _span(table, gens)
            assert closure(G.rows, gens) == (sum(1 << x for x in span), len(span))
            assert set(G.rows) <= before | set(gens)

    @pytest.mark.parametrize("spec", [*GROUP_AXIOM_SPECS, "Sym(5)"])
    def test_generators_match_the_greedy_search_over_the_table(self, spec):
        G = build(spec)
        assert G.generators() == _greedy_generators(G)


_GROUPS_BY_ORDER = {4: ["C(4)", "EA(2,2)"], 5: ["C(5)"], 6: ["C(6)", "Sym(3)"]}


def _is_group(mul) -> bool:
    """Identity 0, associativity and two-sided inverses, each checked per definition."""
    r = range(len(mul))
    return (all(mul[0][x] == x == mul[x][0] for x in r)
            and all(mul[mul[x][y]][z] == mul[x][mul[y][z]] for x in r for y in r for z in r)
            and all(any(mul[x][y] == 0 == mul[y][x] for y in r) for x in r))


def _accepted(mul) -> bool:
    try:
        GroupTable(mul)
    except ValueError:
        return False
    return True


def _tables_with_identity(n):
    for cells in product(range(n), repeat=(n - 1) ** 2):
        yield [list(range(n))] + [[x, *cells[(x - 1) * (n - 1):x * (n - 1)]]
                                  for x in range(1, n)]


def _metacyclic_rule(m, k, r):
    # x^i y^a has id a*m + i. y^-1 x y = x^r gives y x y^-1 = x^s with
    # s = r^-1 mod m, so x^i1 y^a1 x^i2 y^a2 = x^(i1 + i2 s^a1) y^(a1 + a2)
    s_pow = np.array([pow(pow(r, -1, m), a, m) for a in range(k)], dtype=np.int64)

    def rule(x, y):
        (a1, i1), (a2, i2) = divmod(x, m), divmod(y, m)
        return (i1 + i2 * s_pow[a1]) % m + (a1 + a2) % k * m

    return rule


def _quaternion_rule(n):
    # x^i y^a has id a*m + i for m = 2^(n-1). y x y^-1 = x^-1 and y^2 = x^h
    # with h = m/2, so x^i1 y^a1 x^i2 y^a2 = x^(i1 + (-1)^a1 i2 + h a1 a2) y^(a1 xor a2)
    m, h = 1 << (n - 1), 1 << (n - 2)

    def rule(x, y):
        (a1, i1), (a2, i2) = divmod(x, m), divmod(y, m)
        return (i1 + (1 - 2 * a1) * i2 + h * a1 * a2) % m + (a1 ^ a2) * m

    return rule


def _assert_table_follows(table, rule, block=256):
    """table[x, y] == rule(x, y) on int64 ids, compared a block of rows at a time."""
    n = len(table)
    assert table.shape == (n, n)
    y = np.arange(n, dtype=np.int64)
    for lo in range(0, n, block):
        x = np.arange(lo, min(lo + block, n), dtype=np.int64)[:, None]
        assert np.array_equal(table[lo:lo + block], rule(x, y)), lo


class TestBuilders:
    def test_metacyclic_matches_the_product_rule(self):
        checked = 0
        for m, k in product(range(1, 41), range(1, 13)):
            for r in range(m):
                if gcd(r, m) == 1 and pow(r, k, m) == 1 % m:
                    _assert_table_follows(metacyclic_table(m, k, r), _metacyclic_rule(m, k, r))
                    checked += 1
        assert checked > 1000

    # order 4096, the build ceiling, where ids and the sums inside the
    # builders come closest to int16's range: every family that reaches
    # it, the quaternion group and a product. Dih(2047) has an odd m, so a
    # product wrapped mod 2^16 would not come out right mod m
    @pytest.mark.parametrize("spec, rule", [
        ("C(4096)", lambda x, y: (x + y) % 4096),
        ("Dih(2048)", _metacyclic_rule(2048, 2, 2047)),
        ("Dih(2047)", _metacyclic_rule(2047, 2, 2046)),
        ("SD(12)", _metacyclic_rule(2048, 2, 1023)),
        ("M(2,12)", _metacyclic_rule(2048, 2, 1025)),
        ("EA(2,12)", np.bitwise_xor),
        ("Q(12)", _quaternion_rule(12)),
        ("C(64) x C(64)", lambda x, y: (x // 64 + y // 64) % 64 * 64 + (x + y) % 64),
    ])
    def test_int16_tables_at_the_ceiling_match_int64_references(self, spec, rule):
        table = _build_raw(parse_spec(spec))
        assert table.dtype == np.int16
        _assert_table_follows(table, rule)

    @pytest.mark.parametrize("n", range(3, 9))
    def test_quaternion_matches_the_product_rule(self, n):
        _assert_table_follows(_build_raw(parse_spec(f"Q({n})")), _quaternion_rule(n))

    def test_metacyclic_refuses_orders_past_the_build_ceiling(self):
        # its int16 arithmetic is safe up to MAX_BUILD_ORDER only
        assert 2049 * 2 > MAX_BUILD_ORDER
        with pytest.raises(ConstraintError, match="build ceiling"):
            metacyclic_table(2049, 2, 2048)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_sym_matches_composition(self, n):
        # a*b is i -> a[b[i]], over permutations in lexicographic order
        perms = list(permutations(range(n)))
        rank = {p: i for i, p in enumerate(perms)}
        expected = [[rank[tuple(a[b[i]] for i in range(n))] for b in perms]
                    for a in perms]
        assert _table_sym(n).tolist() == expected
