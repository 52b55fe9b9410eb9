"""Search and reporting routines behind the command-line front end.

Covers the degree report of one group spec, sequences of groups whose
normality degrees approach a rational target, witness searches for degrees
of the form a/(a+1), formula-vs-brute verification grids, limit tables for
the order-p**n sequences, and a JSON Lines result ledger. The catalog, the
grids, the sequences and their limits all come from the constructor
records in `groups._FAMILIES`; only the rank-2 abelian grid is written here,
and it checks `groups.abelian_counts`.
"""

from __future__ import annotations

import itertools
import json
import math
import sys
import time
from collections import Counter
from collections.abc import Callable, Iterable
from fractions import Fraction
from functools import cmp_to_key
from typing import NamedTuple, TextIO

from . import __version__
from .degrees import DegreeReport, ndeg_brute, ndeg_conjugacy, sd_brute
from .errors import CapExceededError, ConstraintError
from .formulas import formula_counts
from .groups import (_FAMILIES, Constructor, GroupSpec, Product, abelian_counts, build,
                     family_params, parse_spec, sequence)
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

class DensitySequenceStep(NamedTuple):
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
            factors = [("dihedral2n", 2, t + 2)]
        elif target == 1:
            factors = [("mpn", 3, t + 2)]
        else:
            factors = [("mpn", p, a + i + 1) for i, p in
                       enumerate(primes[(t - 1) * width : t * width], start=1)]
        nd = math.prod(sequence(name).ndeg(p, n) for name, p, n in factors)
        specs = tuple(sequence(name).member(p, n).render() for name, p, n in factors)
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
            nd = sequence("mpn").ndeg(q, n)
        except ConstraintError:
            continue
        if nd == target:
            found.append((n * math.log2(q), q, n))
    return [f"M({q},{n})" for _, q, n in sorted(found, key=cmp_to_key(_by_power))]


def catalog_specs(order_cap: int) -> list[tuple[str, int]]:
    """Deterministic (spec, order) catalog of single-constructor groups up to
    order_cap: the members each record lists, by order, then in registry order."""
    if order_cap < 1:
        raise ConstraintError("catalog cap must be positive", f"order_cap={order_cap}")
    entries = []
    for rank, (name, fam) in enumerate(_FAMILIES.items()):
        for params in family_params(name, order_cap):
            if fam.listed(params):
                term = Constructor(name, params)
                entries.append((term.order(), rank, params, term.render()))
    entries.sort()
    return [(spec, order) for order, _, _, spec in entries]


class WitnessRow(NamedTuple):
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

class VerifyRow(NamedTuple):
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
    counts = abelian_counts(p, (a1, a2))
    return [(f"count_order_p^{k}", c) for k, c in enumerate(counts)] + [("total", sum(counts))]


def _abelian2_brute(lat, p: int, a1: int, a2: int) -> list[int]:
    per = Counter(mask.bit_count() for orbit in lat.orbits for mask in orbit)
    return [per[p ** k] for k in range(a1 + a2 + 1)] + [len(lat)]


class _Verification(NamedTuple):
    """One verification family: the groups it walks and the closed form it checks."""

    ranges: dict[str, tuple[int, int]]  # default parameter ranges
    # range filter: parameter tuples in output order, possibly naming no group
    tuples: Callable[[dict[str, tuple[int, int]]], Iterable[tuple[int, ...]]]
    spec: Callable[..., GroupSpec]  # ConstraintError when the tuple names no group
    label: str  # params column, formatted with the tuple
    checks: Callable[..., list[tuple[str, int]]]  # (check, closed-form value) rows
    brute: Callable[..., list[int]] = _lattice_sizes  # the same values from the lattice


_ABELIAN2 = _Verification(
    {"p": (2, 3), "asum": (2, 9)},
    lambda r: ((p, a1, asum - a1) for p in _range(r["p"])
               for asum in _range(r["asum"]) for a1 in range(1, asum // 2 + 1)),
    lambda p, a1, a2: Product(Constructor("C", (p ** a1,)), Constructor("C", (p ** a2,))),
    "p={},a1={},a2={}",
    _abelian2_checks, _abelian2_brute)


def _verification(family: str) -> _Verification:
    """The verification family called family: a record's grid over its
    parameters, a record's order-p**n sequence, or the rank-2 abelian grid."""
    if family == "abelian2":
        return _ABELIAN2
    for name, fam in _FAMILIES.items():
        grid, seq = fam.grid, fam.sequence
        if grid is not None and grid.name == family:
            return _Verification(grid.ranges, grid.tuples, lambda *t: Constructor(name, t),
                                 ",".join(f"{key}={{}}" for key in fam.names),
                                 _sizes(fam.counts))
        if seq is not None and seq.name == family:
            return _Verification(
                seq.ranges,
                lambda r: itertools.product(_range(r["p"]) if "p" in r else (seq.prime,),
                                            _range(r["n"])),
                seq.member, "p={},n={}" if "p" in seq.ranges else "n={1}", _sizes(seq.counts))
    raise ConstraintError("unknown verification family", family)


# the `verify --family` choices, in their order
VERIFY_FAMILIES = ("sdp", "dihedral", "zm", "mpn", "dihedral2n", "quaternion2n",
                   "semidihedral2n", "abelian2")
# the `limits --family` choices: every record's order-p**n sequence
SEQUENCES = tuple(sorted(fam.sequence.name for fam in _FAMILIES.values() if fam.sequence))


def verify_grid(family: str, ranges: dict[str, tuple[int, int]] | None = None,
                cap: int = DEFAULT_CAP) -> tuple[list[VerifyRow], int]:
    """Run one family's formula-vs-brute grid; returns (rows, skipped count)."""
    grid = _verification(family)
    base = dict(grid.ranges)
    for key in ranges or {}:
        if key not in base:
            raise ConstraintError(f"family {family} accepts ranges {sorted(base)}", key)
    base.update(ranges or {})
    rows: list[VerifyRow] = []
    skipped = 0
    for t in grid.tuples(base):
        try:
            spec = grid.spec(*t)
        except ConstraintError:  # no such group
            continue
        try:
            beyond = spec.order() > cap
        except ConstraintError:  # an order too long to print is past any cap
            beyond = True
        if beyond:  # before the closed form, which may factor a huge parameter
            skipped += 1
            continue
        try:
            checks = grid.checks(*t)
        except ConstraintError:  # outside the closed form's domain
            continue
        lat = enumerate_subgroups(build(spec))
        params = grid.label.format(*t)
        for (check, value), brute in zip(checks, grid.brute(lat, *t)):
            rows.append(VerifyRow(family, params, check, value, brute))
    return rows, skipped


# ---------------------------------------------------------------------------
# limit tables

def limits_rows(family: str, p: int | None, n_max: int) -> list[tuple[int, Fraction, Fraction]]:
    """(n, ndeg, |ndeg - limit|) for the sequence's order-p**n members up to
    n_max; p None takes the sequence's default prime."""
    seq = sequence(family)
    p = seq.prime if p is None else p
    seq.member(p, n_max)  # ConstraintError when n_max has no member
    out = []
    for n in range(1, n_max + 1):
        try:
            nd = seq.ndeg(p, n)
        except ConstraintError:  # below the sequence's first member
            continue
        out.append((n, nd, abs(nd - seq.limit)))
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
    by_method, by_family, ndeg_seen = Counter(), Counter(), Counter()
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
            by_method[method] += 1
            by_family["product" if " x " in spec else spec.split("(", 1)[0]] += 1
            ndeg_seen[value] += 1
    return {
        "records": records,
        "malformed": malformed,
        "by_method": dict(sorted(by_method.items())),
        "by_family": dict(sorted(by_family.items())),
        "ndeg_values": sorted(ndeg_seen.items()),
    }
