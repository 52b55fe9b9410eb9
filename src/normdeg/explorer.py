"""Search and reporting routines behind the command-line front end.

Covers the degree report of one group spec, sequences of groups whose
normality degrees approach a rational target, witness searches for degrees
of the form a/(a+1), formula-vs-brute verification grids, limit tables for
the structured families, and a JSON Lines result ledger.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from collections import Counter
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from typing import NamedTuple, TextIO

from . import __version__
from . import formulas as F
from .degrees import DegreeReport, ndeg_brute, ndeg_conjugacy, sd_brute
from .errors import CapExceededError, ConstraintError
from .formulas import (Family, family_limit, family_member, formula_counts,
                       ndeg_family)
from .groups import (Constructor, GroupSpec, Product, build, family_params,
                     parse_spec)
from .lattice import enumerate_subgroups
from .numtheory import divisors, nth_primes

DEFAULT_CAP = 512  # largest group order the commands enumerate unless told otherwise

# ---------------------------------------------------------------------------
# the degree report of one group spec

def degree_report(spec: GroupSpec, method: str = "auto", sd: bool = False,
                  cap: int = DEFAULT_CAP) -> DegreeReport:
    """ndeg of one spec by method (auto, formula, brute or conjugacy), and its
    sd when asked; auto takes the closed form when one covers the spec, else
    brute force. The order is checked against cap before any table is built,
    and formula without sd builds none."""
    text, order = spec.render(), spec.order()  # the order first: it may be refused
    counts = formula_counts(spec) if method in ("auto", "formula") else None
    if method == "auto":
        method = "formula" if counts is not None else "brute"
    if method == "formula" and counts is None:
        raise ConstraintError("no closed form for this spec; "
                              "use --method brute", text)
    sd_value = None
    if method != "formula" or sd:
        if order > cap:  # before the table is materialised
            raise CapExceededError(order, cap)
        table = build(spec)
        lattice = enumerate_subgroups(table)
        if method != "formula":
            route = ndeg_brute if method == "brute" else ndeg_conjugacy
            found = route(table, spec_text=text, lattice=lattice)
            counts = found.lattice_size, found.normal_count
        if sd:
            sd_value = sd_brute(table, lattice=lattice)
    return DegreeReport(text, order, *counts, sd=sd_value, method=method)


# ---------------------------------------------------------------------------
# sequences approaching a rational target

@dataclass(frozen=True)
class DensitySequenceStep:
    """One step of a group sequence: ndeg is the product over factor_specs."""

    index: int
    factor_specs: tuple[str, ...]
    ndeg: Fraction
    target: Fraction
    gap: Fraction


def density_sequence(target: Fraction, steps: int = 20) -> list[DensitySequenceStep]:
    """Groups whose normality degrees approach target from above, gap shrinking.

    Interior targets a/b use direct products of modular groups M(p, a+i+1)
    over i = 1..b-a with pairwise distinct primes (step t, factor i takes
    the prime of index t*(b-a)+i-1), so the coprime product formula applies
    and the step value telescopes toward a/b.  Targets 0 and 1 use the
    dihedral 2-group and modular 3-group sequences instead.
    """
    if not 0 <= target <= 1:
        raise ConstraintError("density target must lie in [0, 1]", f"target={target}")
    if steps < 1:
        raise ConstraintError("density sequence needs at least one step", f"steps={steps}")
    a, width = target.numerator, target.denominator - target.numerator
    primes = nth_primes(width, steps * width) if 0 < target < 1 else []
    out = []
    for t in range(1, steps + 1):
        if target == 0:
            factors = [(Family.DIHEDRAL, 2, t + 2)]
        elif target == 1:
            factors = [(Family.MODULAR, 3, t + 2)]
        else:
            factors = [(Family.MODULAR, p, a + i + 1) for i, p in
                       enumerate(primes[(t - 1) * width : t * width], start=1)]
        nd = math.prod(ndeg_family(*factor) for factor in factors)
        specs = tuple(family_member(*factor).render() for factor in factors)
        out.append(DensitySequenceStep(t, specs, nd, target, abs(nd - target)))
    return out


# ---------------------------------------------------------------------------
# witnesses for normality degree a/(a+1)

def _by_power(x, y) -> int:
    """Compare witnesses (n log2 q, q, n) by q^n, built only when the logs nearly tie."""
    if abs(x[0] - y[0]) <= 1e-9 * max(x[0], y[0]):
        x, y = x[1] ** x[2], y[1] ** y[2]
    return (x > y) - (x < y)


def mpn_witnesses(a: int) -> list[str]:
    """Modular-group specs M(q, n) with normality degree exactly a/(a+1).

    q + 1 runs over the divisors of a+3; for a prime q the unique candidate
    exponent is n = q*(a+3)/(q+1) - 1; candidates failing the family
    constraints are discarded and survivors, verified exactly, come by q^n.
    """
    if a < 1:
        raise ConstraintError("witness search requires a >= 1", f"a={a}")
    target = Fraction(a, a + 1)
    found = []
    for q in [d - 1 for d in divisors(a + 3) if d > 2]:
        n = q * (a + 3) // (q + 1) - 1
        try:
            nd = ndeg_family(Family.MODULAR, q, n)
        except ConstraintError:
            continue
        if nd == target:
            found.append((n * math.log2(q), q, n))
    return [f"M({q},{n})" for _, q, n in sorted(found, key=cmp_to_key(_by_power))]


# catalog order among groups of equal order
_CATALOG_FAMILIES = ("C", "EA", "Sym", "Q", "SD", "M", "Dih", "SDP", "ZM")
# members that repeat a group listed under an earlier family
_CATALOG_REPEATS = {
    "EA": lambda params: params[1] < 2,   # EA(p,1) is C(p)
    "Sym": lambda params: params[0] < 3,  # Sym(1), Sym(2) are C(1), C(2)
    "Dih": lambda params: params[0] < 3,  # Dih(1), Dih(2) are C(2), EA(2,2)
}
_EA_ORDER_LIMIT = 32  # elementary abelian lattices explode far below the cap


def catalog_specs(order_cap: int) -> list[tuple[str, int]]:
    """Deterministic (spec, order) catalog of single-constructor groups up to order_cap."""
    if order_cap < 1:
        raise ConstraintError("catalog cap must be positive", f"order_cap={order_cap}")
    entries = []
    for rank, name in enumerate(_CATALOG_FAMILIES):
        cap = min(order_cap, _EA_ORDER_LIMIT) if name == "EA" else order_cap
        repeats = _CATALOG_REPEATS.get(name)
        for params in family_params(name, cap):
            if repeats is None or not repeats(params):
                term = Constructor(name, params)
                entries.append((term.order(), rank, params, term.render()))
    entries.sort()
    return [(spec, order) for order, _, _, spec in entries]


@dataclass(frozen=True)
class WitnessRow:
    """Search outcome for one target a/(a+1)."""

    a: int
    target: Fraction
    criterion_witness: str | None
    catalog_witness: str | None


def conjecture_witness_rows(a_max: int, order_cap: int) -> list[WitnessRow]:
    """For each a <= a_max, hunt a group with normality degree a/(a+1) two ways."""
    if a_max < 1:
        raise ConstraintError("witness table requires a_max >= 1", f"a_max={a_max}")
    first: dict[Fraction, str] = {}  # each degree -> its first catalog spec
    for spec, _ in catalog_specs(order_cap):
        first.setdefault(degree_report(parse_spec(spec), cap=order_cap).ndeg, spec)
    rows = []
    for a in range(1, a_max + 1):
        target = Fraction(a, a + 1)
        crit = mpn_witnesses(a)
        rows.append(WitnessRow(a, target, crit[0] if crit else None, first.get(target)))
    return rows


# ---------------------------------------------------------------------------
# verification grids: closed forms against the brute-force oracle

@dataclass(frozen=True)
class VerifyRow:
    """One formula-vs-brute comparison."""

    family: str
    params: str
    check: str
    formula_value: int
    brute_value: int

    @property
    def ok(self) -> bool:
        return self.formula_value == self.brute_value


def _range(bounds: tuple[int, int]) -> range:
    return range(bounds[0], bounds[1] + 1)


def _sizes(counts):
    """Checks of a closed form that gives (subgroup count, normal count)."""
    return lambda *t: list(zip(("lattice_size", "normal_count"), counts(*t)))


def _lattice_sizes(lat, *t) -> list[int]:
    return [len(lat), lat.normal_count]


def _abelian2_checks(p: int, a1: int, a2: int) -> list[tuple[str, int]]:
    return ([(f"count_order_p^{k}", F.abelian_rank2_count(p, a1, a2, k))
             for k in range(a1 + a2 + 1)]
            + [("total", F.abelian_rank2_total(p, a1, a2))])


def _abelian2_brute(lat, p: int, a1: int, a2: int) -> list[int]:
    per = Counter(mask.bit_count() for orbit in lat.orbits for mask in orbit)
    return [per[p ** k] for k in range(a1 + a2 + 1)] + [len(lat)]


class _Grid(NamedTuple):
    """One verification family: the groups it walks and the closed form it checks."""

    ranges: dict[str, tuple[int, int]]  # default parameter ranges
    # range filter: parameter tuples in output order, possibly naming no group
    tuples: Callable[[dict[str, tuple[int, int]]], Iterable[tuple[int, ...]]]
    spec: Callable[..., GroupSpec]  # ConstraintError when the tuple names no group
    label: str  # params column, formatted with the tuple
    checks: Callable[..., list[tuple[str, int]]]  # (check, closed-form value) rows
    brute: Callable[..., list[int]] = _lattice_sizes  # the same values from the lattice


def _prime_power_grid(name: str, ranges: dict[str, tuple[int, int]]) -> _Grid:
    family = PRIME_POWER_FAMILIES[name]
    return _Grid(
        ranges,
        lambda r: itertools.product(_range(r["p"]) if "p" in r else (2,), _range(r["n"])),
        lambda p, n: family_member(family, p, n),
        "p={},n={}" if "p" in ranges else "n={1}",
        _sizes(lambda p, n: F.family_counts(family, p, n)))


# verification family -> prime-power family, also the `limits` choices
PRIME_POWER_FAMILIES = {"mpn": Family.MODULAR, "dihedral2n": Family.DIHEDRAL,
                        "quaternion2n": Family.QUATERNION,
                        "semidihedral2n": Family.SEMIDIHEDRAL}

_GRIDS = {
    "sdp": _Grid(
        {"p": (2, 5), "n": (2, 40)},
        lambda r: (t for t in family_params("SDP", r["p"][1] * r["n"][1])
                   if t[0] in _range(r["p"]) and t[1] in _range(r["n"])),
        lambda *t: Constructor("SDP", t),
        "p={},n={},k0={}",
        _sizes(F.sdp_counts)),
    "dihedral": _Grid(
        {"n": (3, 60)},
        lambda r: ((n,) for n in _range(r["n"])),
        lambda n: Constructor("Dih", (n,)),
        "n={}",
        _sizes(F.dihedral_counts)),
    "zm": _Grid(
        {"mn": (2, 300)},
        lambda r: (t for t in family_params("ZM", r["mn"][1])
                   if t[0] * t[1] >= r["mn"][0]),
        lambda *t: Constructor("ZM", t),
        "m={},n={},r={}",
        _sizes(F.zm_counts)),
    "mpn": _prime_power_grid("mpn", {"p": (2, 7), "n": (3, 9)}),
    "dihedral2n": _prime_power_grid("dihedral2n", {"n": (2, 9)}),
    "quaternion2n": _prime_power_grid("quaternion2n", {"n": (3, 9)}),
    "semidihedral2n": _prime_power_grid("semidihedral2n", {"n": (4, 9)}),
    "abelian2": _Grid(
        {"p": (2, 3), "asum": (2, 9)},
        lambda r: ((p, a1, asum - a1) for p in _range(r["p"])
                   for asum in _range(r["asum"]) for a1 in range(1, asum // 2 + 1)),
        lambda p, a1, a2: Product(Constructor("C", (p ** a1,)),
                                  Constructor("C", (p ** a2,))),
        "p={},a1={},a2={}",
        _abelian2_checks, _abelian2_brute),
}

VERIFY_FAMILIES = tuple(_GRIDS)


def default_ranges(family: str) -> dict[str, tuple[int, int]]:
    """Built-in parameter ranges for a verification family."""
    if family not in _GRIDS:
        raise ConstraintError("unknown verification family", family)
    return dict(_GRIDS[family].ranges)


def verify_grid(family: str, ranges: dict[str, tuple[int, int]] | None = None,
                cap: int = DEFAULT_CAP) -> tuple[list[VerifyRow], int]:
    """Run one family's formula-vs-brute grid; returns (rows, skipped count)."""
    base = default_ranges(family)
    if ranges:
        for key in ranges:
            if key not in base:
                raise ConstraintError(
                    f"family {family} accepts ranges {sorted(base)}", key)
        base.update(ranges)
    grid = _GRIDS[family]
    rows: list[VerifyRow] = []
    skipped = 0
    for t in grid.tuples(base):
        try:
            spec = grid.spec(*t)
            checks = grid.checks(*t)
        except ConstraintError:  # no such group, or outside the closed form's domain
            continue
        try:
            beyond = spec.order() > cap
        except ConstraintError:  # an order too long to print is past any cap
            beyond = True
        if beyond:
            skipped += 1
            continue
        lat = enumerate_subgroups(build(spec))
        params = grid.label.format(*t)
        for (check, value), brute in zip(checks, grid.brute(lat, *t)):
            rows.append(VerifyRow(family, params, check, value, brute))
    return rows, skipped


# ---------------------------------------------------------------------------
# limit tables

def limits_rows(family: Family, p: int, n_max: int) -> list[tuple[int, Fraction, Fraction]]:
    """(n, ndeg, |ndeg - limit|) for the family's order-p**n members up to n_max."""
    family_member(family, p, n_max)  # ConstraintError when n_max has no member
    limit = family_limit(family)
    out = []
    for n in range(1, n_max + 1):
        try:
            nd = ndeg_family(family, p, n)
        except ConstraintError:  # below the family's first member
            continue
        out.append((n, nd, abs(nd - limit)))
    return out


# ---------------------------------------------------------------------------
# JSON Lines ledger

def ledger_append(path: str, report: DegreeReport) -> None:
    """Append one result record to the JSON Lines ledger at path."""
    record = {"timestamp": time.time(), **report.to_json_dict(),
              "tool_version": __version__}
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")


def ledger_summarize(path: str, err: TextIO = sys.stderr) -> dict:
    """Aggregate a ledger: record counts by method and family, and each
    distinct ndeg value (a Fraction) with its count."""
    records = 0
    malformed = 0
    by_method: dict[str, int] = {}
    by_family: dict[str, int] = {}
    ndeg_seen: dict[Fraction, int] = {}
    with open(path, encoding="utf-8", errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
                method = rec["method"]
                spec = rec["spec"]
                num, den = rec["ndeg"].split("/")
                value = Fraction(int(num), int(den))
                if not isinstance(method, str) or not isinstance(spec, str):
                    raise TypeError("method and spec must be strings")
            except (KeyError, ValueError, AttributeError, TypeError,
                    ZeroDivisionError) as exc:
                malformed += 1
                print(f"ledger line {lineno}: skipping malformed record ({exc})",
                      file=err)
                continue
            records += 1
            by_method[method] = by_method.get(method, 0) + 1
            fam = "product" if " x " in spec else spec.split("(", 1)[0]
            by_family[fam] = by_family.get(fam, 0) + 1
            ndeg_seen[value] = ndeg_seen.get(value, 0) + 1
    return {
        "records": records,
        "malformed": malformed,
        "by_method": dict(sorted(by_method.items())),
        "by_family": dict(sorted(by_family.items())),
        "ndeg_values": sorted(ndeg_seen.items()),
    }
