"""Acceptance suite: six end-to-end checks over the whole package.

Each check prints one PASS/FAIL line directly to the terminal (bypassing
capture) so a full run always shows the six verdicts at a glance.

1. Frozen regression values, exact.
2. Closed-form counts against the brute-force oracle on full grids, zero
   mismatches.
3. Structural invariants on a fixed 50-group corpus.
4. Bound inequalities with their exact equality cases.
5. Density sequences reaching three rational targets.
6. Limit sequences for the two infinite families.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

import pytest

from normdeg.degrees import (
    is_dedekind,
    ndeg_brute,
    ndeg_conjugacy,
    ndeg_coprime_product,
    pgroup_bound_check,
    sd_brute,
)
from normdeg.explorer import density_sequence, limits_rows, verify_grid
from normdeg.formulas import (
    Family,
    dihedral_counts,
    formula_counts,
    sdp_counts,
    semidirect_bounds,
)
from normdeg.groups import build
from normdeg.lattice import enumerate_subgroups, fix_points
from normdeg.numtheory import factorize


VERDICTS: list[str] = []


def verdict(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"acceptance {number} ({label}): {status} - {detail}"
    VERDICTS.append(line)
    print(line, file=sys.stderr, flush=True)


# fifty groups spanning every constructor, all cheap to enumerate
CORPUS = [
    "C(1)", "C(2)", "C(6)", "C(12)", "C(30)", "C(36)", "C(100)", "C(128)",
    "EA(2,2)", "EA(2,3)", "EA(2,4)", "EA(3,2)", "EA(3,3)", "EA(5,2)",
    "Sym(3)", "Sym(4)",
    "Dih(3)", "Dih(4)", "Dih(5)", "Dih(6)", "Dih(7)", "Dih(8)", "Dih(9)",
    "Dih(10)", "Dih(12)", "Dih(15)", "Dih(16)", "Dih(24)",
    "Q(3)", "Q(4)", "Q(5)",
    "SD(4)", "SD(5)",
    "M(2,4)", "M(2,5)", "M(3,3)", "M(3,4)", "M(5,3)",
    "SDP(3,7,2)", "SDP(2,15,4)", "SDP(5,11,3)", "SDP(3,28,9)", "SDP(2,21,8)",
    "ZM(5,4,2)", "ZM(13,4,5)", "ZM(7,3,2)", "ZM(3,16,2)",
    "Sym(3) x C(2)", "Q(3) x C(3)", "Dih(4) x C(3)",
]


def sdp_grid():
    """All valid split metacyclic parameter triples with p in {2,3,5}, n <= 40."""
    for p in (2, 3, 5):
        for n in range(2, 41):
            if n % p == 0:
                continue
            for k0 in range(2, n):
                if pow(k0, p, n) == 1:
                    yield p, n, k0


def test_acceptance_1_regression_values():
    """Frozen degree and count values, each matched exactly."""
    expected = [
        ("Sym(3)", "ndeg", Fraction(1, 2)),
        ("Sym(4)", "ndeg", Fraction(2, 15)),
        ("Sym(3) x C(2)", "ndeg", Fraction(7, 16)),
        ("M(5,4)", "ndeg", Fraction(3, 4)),
        ("Dih(4)", "lattice_size", 10),
        ("Q(3)", "lattice_size", 6),
        ("SD(4)", "lattice_size", 15),
    ]
    problems = []
    for spec, field, value in expected:
        report = ndeg_brute(build(spec), spec_text=spec, cap=1024)
        if getattr(report, field) != value:
            problems.append((spec, field, getattr(report, field), value))
        counts = formula_counts(spec)
        if counts is not None:
            if counts != (report.lattice_size, report.normal_count):
                problems.append((spec, "formula", counts))
    verdict(1, "regression values", not problems,
            f"{len(expected)} frozen values exact, "
            "formula and brute force agree on each covered spec")
    assert not problems, problems


@pytest.mark.parametrize("family, ranges", [
    ("sdp", {"p": (2, 5), "n": (2, 40)}),
    ("dihedral", {"n": (3, 60)}),
    ("zm", {"mn": (2, 300)}),
    ("mpn", {"p": (2, 7), "n": (3, 9)}),
    ("dihedral2n", {"n": (2, 9)}),
    ("quaternion2n", {"n": (3, 9)}),
    ("semidihedral2n", {"n": (4, 9)}),
    ("abelian2", {"p": (2, 3), "asum": (2, 9)}),
])
def test_acceptance_2_formula_grids(family, ranges):
    """Closed forms equal the brute-force oracle on the full grids."""
    rows, skipped = verify_grid(family, ranges, cap=512)
    mismatches = [r for r in rows if not r.ok]
    record = test_acceptance_2_formula_grids
    record.totals = getattr(record, "totals", {"rows": 0, "bad": 0})
    record.totals["rows"] += len(rows)
    record.totals["bad"] += len(mismatches)
    if family == "abelian2":
        verdict(2, "formula vs oracle grids", record.totals["bad"] == 0,
                f"{record.totals['rows']} comparisons across 8 grids, "
                f"{record.totals['bad']} mismatches")
    assert rows, "grid produced no comparisons"
    assert not mismatches, mismatches[:5]


def test_acceptance_3_structural_invariants():
    """Invariants on the 50-group corpus plus product multiplicativity."""
    assert len(CORPUS) == 50
    problems = []
    for spec in CORPUS:
        G = build(spec)
        lat = enumerate_subgroups(G, cap=1024)
        normal = {i for i, flag in enumerate(lat.normal_flags) if flag}
        fix_conj, fix_core = fix_points(G, lat)
        if not (fix_conj == fix_core == normal):
            problems.append((spec, "fixed-point sets differ"))
        nd = ndeg_brute(G, lattice=lat).ndeg
        if ndeg_conjugacy(G, lattice=lat).ndeg != nd:
            problems.append((spec, "conjugacy route disagrees"))
        sd = sd_brute(G, lattice=lat)
        dedekind = is_dedekind(G, lattice=lat)
        if not nd <= sd:
            problems.append((spec, "ndeg exceeds sd"))
        if not ((nd == sd) == dedekind == (nd == 1)):
            problems.append((spec, "equality cases inconsistent"))
    pairs = [("Sym(3)", "C(5)"), ("Dih(4)", "C(9)"), ("Q(3)", "C(3)"),
             ("C(25)", "Sym(3)"), ("M(3,3)", "C(2)"), ("SDP(3,7,2)", "C(2)")]
    for left, right in pairs:
        combined = ndeg_coprime_product([
            ndeg_brute(build(left), spec_text=left),
            ndeg_brute(build(right), spec_text=right),
        ])
        direct = ndeg_brute(build(f"{left} x {right}"), cap=1024)
        if (combined.ndeg, combined.lattice_size) != \
                (direct.ndeg, direct.lattice_size):
            problems.append((left, right, "product rule disagrees"))
    witness = ndeg_brute(build("Sym(3) x C(2)")).ndeg
    parts = ndeg_brute(build("Sym(3)")).ndeg * ndeg_brute(build("C(2)")).ndeg
    if not (witness == Fraction(7, 16) and witness != parts):
        problems.append(("Sym(3) x C(2)", "non-multiplicativity witness"))
    verdict(3, "structural invariants", not problems,
            f"50-group corpus, {len(pairs)} coprime products, "
            "shared-factor witness 7/16 vs 1/2")
    assert not problems, problems


def test_acceptance_4_bounds():
    """Bound inequalities and their exact equality sets."""
    problems = []
    sigma_equality = set()
    for p, n, k0 in sdp_grid():
        total, normal = sdp_counts(p, n, k0)
        nd = Fraction(normal, total)
        b = semidirect_bounds(p, n, k0)
        if not (b.lower_sigma <= nd <= b.upper and b.lower_index <= nd):
            problems.append((p, n, k0, "sandwich violated"))
        if nd == b.lower_sigma:
            sigma_equality.add((p, n, k0))
    expected_equality = {(p, n, k0) for p, n, k0 in sdp_grid()
                         if gcd(k0 - 1, n) == 1}
    if sigma_equality != expected_equality:
        problems.append(("sigma bound equality set",
                         sigma_equality ^ expected_equality))
    two_slice = {(n, k0) for p, n, k0 in sigma_equality if p == 2}
    dihedral_slice = {(n, n - 1) for p, n, k0 in sdp_grid() if p == 2}
    if two_slice != dihedral_slice:
        problems.append(("order-two slice is not exactly the dihedral one",
                         two_slice ^ dihedral_slice))
    pgroups = 0
    for spec in CORPUS:
        G = build(spec)
        factors = factorize(G.order)
        if len(factors) != 1:
            continue
        pgroups += 1
        bound, holds = pgroup_bound_check(G, factors[0][0], cap=1024)
        if not holds:
            problems.append((spec, "p-group bound fails", bound))
    for n in range(3, 61):
        if n == 4:
            continue
        total, normal = dihedral_counts(n)
        nd = Fraction(normal, total)
        if nd > Fraction(1, 2) or (nd == Fraction(1, 2)) != (n == 3):
            problems.append((n, "dihedral ceiling violated", nd))
    verdict(4, "bounds", not problems,
            f"sandwich on {len(expected_equality)}-case equality set, "
            f"{pgroups} corpus p-groups, dihedral ceiling to n=60")
    assert not problems, problems


def test_acceptance_5_density():
    """Gap to each target decreases strictly and passes below 1/100."""
    threshold = Fraction(1, 100)
    problems = []
    crossings = {}
    for target in (Fraction(1, 2), Fraction(2, 3), Fraction(3, 7)):
        steps = density_sequence(target, steps=25)
        gaps = [s.gap for s in steps]
        if not all(a > b for a, b in zip(gaps, gaps[1:])):
            problems.append((target, "gap not strictly decreasing"))
        below = [s.index for s in steps if s.gap < threshold]
        if not below:
            problems.append((target, "gap never fell below 1/100"))
        else:
            crossings[str(target)] = below[0]
    verdict(5, "density targets", not problems,
            f"crossing steps {crossings} within 25")
    assert not problems, problems


def test_acceptance_6_limits():
    """Monotone convergence of the two formula sequences up to n = 64."""
    problems = []
    modular = limits_rows(Family.MODULAR, 3, 64)
    values = [nd for _, nd, _ in modular]
    if not all(a < b for a, b in zip(values, values[1:])):
        problems.append("modular sequence not increasing")
    final_modular = modular[-1][2]
    if not final_modular < Fraction(1, 10):
        problems.append(("modular distance too large", final_modular))
    dihedral = limits_rows(Family.DIHEDRAL, 2, 64)
    values = [nd for _, nd, _ in dihedral]
    if not all(a > b for a, b in zip(values[1:], values[2:])):
        problems.append("dihedral sequence not decreasing")
    final_dihedral = dihedral[-1][2]
    if not final_dihedral < Fraction(1, 10 ** 15):
        problems.append(("dihedral distance too large", final_dihedral))
    verdict(6, "limit sequences", not problems,
            f"final distances {float(final_modular):.4f} and "
            f"{float(final_dihedral):.2e}")
    assert not problems, problems
