"""Group spec language, the family registry and multiplication tables.

A spec is a product of family constructors, e.g. "SDP(3,7,2) x C(2)".
Each constructor is one record in `_FAMILIES`: its parameter check, order,
table builder and candidate tuples, its closed-form counts, its catalog
rule, and its verify grids, among them the sequence of its members of
order p**n. Beside the records' closed forms, `abelian_counts` counts the
subgroups of every abelian p-group by order. Every constructor validates
its parameter constraints up front; build() materializes an immutable
multiplication table and checks the group axioms on it, associativity by
Light's test on a generating set, which is exhaustive at every order.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .errors import ConstraintError, SpecParseError
from .numtheory import divisors, gcd_divisor_sum, is_prime, sigma, tau

# Hard ceiling for table materialization; the lattice cap is separate and lower.
MAX_BUILD_ORDER = 4096


# ---------------------------------------------------------------------------
# spec AST


@dataclass(frozen=True)
class Constructor:
    """A single family term, e.g. Dih(6) or SDP(3,7,2)."""

    name: str
    params: tuple[int, ...]

    def __post_init__(self):
        check_params(self.name, self.params)

    def render(self) -> str:
        return f"{self.name}({','.join(str(p) for p in self.params)})"

    def order(self) -> int:
        return _FAMILIES[self.name].order(self.params)


@dataclass(frozen=True)
class Product:
    """Direct product of two specs; 'A x B x C' parses left-associated."""

    left: "GroupSpec"
    right: "GroupSpec"

    def render(self) -> str:
        return f"{self.left.render()} x {self.right.render()}"

    def order(self) -> int:
        return self.left.order() * self.right.order()


GroupSpec = Constructor | Product


# ---------------------------------------------------------------------------
# parameter constraints: each check returns the first violated
# (constraint, detail) pair, or None, so filters over many candidate tuples
# build no exception objects. The SDP check also takes a prefix (p,) or
# (p, n) and applies the rules it decides, so the SDP candidate walk skips
# rows that no residue k0 can complete


def _check_sdp(params: tuple[int, ...]) -> tuple[str, str] | None:
    p, n, k0 = (*params, None, None)[:3]
    if not is_prime(p):
        return "SDP requires p prime", f"p={p}"
    if n is None:
        return None
    if n < 2:
        return "SDP requires n >= 2", f"n={n}"
    if n % p == 0:
        return "SDP requires p not dividing n", f"p={p}, n={n}"
    if k0 is None:
        return None
    if k0 < 0 or math.gcd(k0, n) != 1:
        return "SDP requires gcd(k0, n) == 1", f"k0={k0}, n={n}"
    if k0 % n == 1:
        return "SDP requires k0 != 1 (mod n)", f"k0={k0}"
    if pow(k0, p, n) != 1 % n:
        return "SDP requires k0**p == 1 (mod n)", f"k0={k0}, p={p}, n={n}"
    return None


def _check_zm(params: tuple[int, ...]) -> tuple[str, str] | None:
    m, n, r = params
    if m < 1 or n < 1 or r < 1:
        return "ZM requires m, n, r >= 1", f"m={m}, n={n}, r={r}"
    if math.gcd(m, n) != 1:
        return "ZM requires gcd(m, n) == 1", f"m={m}, n={n}"
    if math.gcd(m, r - 1) != 1:
        return "ZM requires gcd(m, r-1) == 1", f"m={m}, r={r}"
    if pow(r, n, m) != 1 % m:
        return "ZM requires r**n == 1 (mod m)", f"m={m}, n={n}, r={r}"
    return None


def _check_mpn(params: tuple[int, ...]) -> tuple[str, str] | None:
    p, n = params
    if not is_prime(p):
        return "M requires p prime", f"p={p}"
    if n < 3:
        return "M requires n >= 3", f"n={n}"
    if p == 2 and n < 4:
        return "M requires n >= 4 when p == 2", f"n={n}"
    return None


def _check_positive(name: str, minimum: int):
    def check(params: tuple[int, ...]) -> tuple[str, str] | None:
        (n,) = params
        if n < minimum:
            return f"{name} requires n >= {minimum}", f"n={n}"
        return None

    return check


def _check_sym(params: tuple[int, ...]) -> tuple[str, str] | None:
    (n,) = params
    if not 1 <= n <= 6:
        return "Sym supports 1 <= n <= 6", f"n={n}"
    return None


def _check_ea(params: tuple[int, ...]) -> tuple[str, str] | None:
    p, k = params
    if not is_prime(p):
        return "EA requires p prime", f"p={p}"
    if k < 1:
        return "EA requires k >= 1", f"k={k}"
    return None


# ---------------------------------------------------------------------------
# closed forms from the parameters alone


def sdp_counts(p: int, n: int, k0: int) -> tuple[int, int]:
    """Subgroup and normal-subgroup counts of SDP(p, n, k0).

    Subgroups: tau(n) plus a gcd sum over divisors.  Normal subgroups:
    tau(n) + tau(d) with d = gcd(k0-1, n).  The tau(n) divisor subgroups
    of the cyclic normal factor are always normal.  A subgroup that
    projects onto the prime factor has normalizer of order
    p*gcd(k(k0-1), n), so it is normal exactly when n/d divides k; that
    happens for tau(d) divisors k of n.  When d == 1 this collapses to the
    familiar tau(n) + 1.
    """
    check_params("SDP", (p, n, k0))
    d = math.gcd(k0 - 1, n)
    return tau(n) + gcd_divisor_sum(n, n // d), tau(n) + tau(d)


def dihedral_counts(n: int) -> tuple[int, int]:
    """Subgroup and normal-subgroup counts of Dih(n) for n >= 3."""
    if n < 3:
        raise ConstraintError("dihedral closed form requires n >= 3", f"n={n}")
    total = tau(n) + sigma(n)
    normal = tau(n) + 1 if n % 2 else tau(n) + 3
    return total, normal


def _geometric_sum(x: int, count: int, m: int) -> int:
    """sum(x**j for j in range(count)) % m, by binary splitting on the bits of
    count: S(2c) = S(c) (1 + x**c) and S(c+1) = 1 + x S(c)."""
    total, power = 0, 1 % m  # S(c) and x**c mod m, from c = 0
    for bit in bin(count)[2:]:
        total, power = total * (1 + power) % m, power * power % m
        if bit == "1":
            total, power = (1 + x * total) % m, power * x % m
    return total


def zm_counts(m: int, n: int, r: int) -> tuple[int, int]:
    """Subgroup and normal-subgroup counts of ZM(m, n, r)."""
    check_params("ZM", (m, n, r))
    total = 0
    for m1 in divisors(m):
        for n1 in divisors(n):
            total += math.gcd(m1, _geometric_sum(pow(r, n1, m1), n // n1, m1))
    normal = sum(tau(math.gcd(m, (pow(r, n1, m) - 1) % m))
                 for n1 in divisors(n))
    return total, normal


@functools.lru_cache(maxsize=4096)
def _gaussian(n: int, k: int, p: int) -> int:
    """The Gaussian binomial [n choose k]_p: the k-subspaces of GF(p)^n."""
    return (math.prod(p ** (n - j) - 1 for j in range(k))
            // math.prod(p ** j - 1 for j in range(1, k + 1)))


def abelian_counts(p: int, exponents: tuple[int, ...]) -> list[int]:
    """Subgroup counts of C(p**e1) x ... x C(p**er) by order p**k, k = 0..sum(e).

    Birkhoff: a group of type lambda has prod_i p**(mu'_{i+1} (lambda'_i -
    mu'_i)) [lambda'_i - mu'_{i+1} choose mu'_i - mu'_{i+1}]_p subgroups of
    type mu, ' the conjugate partition (Butler, Mem. AMS 539, 1994). The walk
    picks mu' a column at a time from the last, keeping for each value of the
    column just picked the counts by order so far.
    """
    if not is_prime(p) or min(exponents, default=0) < 0:
        raise ConstraintError("abelian counts require a prime p and exponents >= 0",
                              f"p={p}, exponents={exponents}")
    walk = {0: [1]}  # mu'_{i+1} -> counts by order exponent so far
    for i in range(max(exponents, default=0), 0, -1):
        col = sum(e >= i for e in exponents)  # lambda'_i
        step = {a: [0] * (len(walk[0]) + col) for a in range(col + 1)}
        for b, counts in walk.items():
            for a in range(b, col + 1):  # mu'_i
                w = p ** (b * (col - a)) * _gaussian(col - b, a - b, p)
                row = step[a]
                for k, c in enumerate(counts, a):
                    row[k] += w * c
        walk = step
    return [sum(c) for c in zip(*walk.values())]


# ---------------------------------------------------------------------------
# table builders (numpy blocks; element ids documented per family), all int16:
# ids and intermediates stay below 2 * MAX_BUILD_ORDER < 2**15


def _check_build_order(order: int) -> None:
    if order > MAX_BUILD_ORDER:
        raise ConstraintError("group too large to materialize",
                              f"order {order} exceeds build ceiling {MAX_BUILD_ORDER}")


# p**k >= 2**(k * (p.bit_length() - 1)), and 2**14285 has 4301 digits: past
# Python's default integer-string limit, so no command could print that order
_PRINTABLE_BITS = 14285


def _power_order(p: int, k: int) -> int:
    """p**k, refused before it is computed when it is too long to print."""
    if k * (p.bit_length() - 1) >= _PRINTABLE_BITS:
        raise ConstraintError("group order too long to print", f"{p}**{k}")
    return p ** k


def _table_cyclic(n: int) -> np.ndarray:
    a = np.arange(n, dtype=np.int16)
    return (a[:, None] + a) % n


def metacyclic_table(m: int, k: int, r: int) -> np.ndarray:
    """int16 table of <x,y | x^m = y^k = 1, y^-1 x y = x^r>; id of x^i y^a is a*m + i.

    Requires gcd(r, m) == 1, r^k == 1 (mod m) and k*m <= MAX_BUILD_ORDER, so
    that int16 holds every id. Internally the product uses s = r^-1 mod m so
    that x (id 1) and y (id m) satisfy the stated relation exactly.
    """
    _check_build_order(k * m)
    if math.gcd(r, m) != 1 or pow(r, k, m) != 1 % m:
        raise ConstraintError("metacyclic requires gcd(r, m) == 1 and r**k == 1 (mod m)")
    s = pow(r, -1, m)
    # scaled[a, i] = s^a i mod m, reduced in int64 over k*m entries only
    scaled = (np.array([pow(s, a, m) for a in range(k)])[:, None] * np.arange(m) % m).astype(np.int16)
    # x^i1 y^a1 * x^i2 y^a2 = x^(i1 + s^a1 i2) y^(a1 + a2), indexed [a1, i1, a2, i2]
    a1, i1, a2, i2 = np.ix_(*(np.arange(j, dtype=np.int16) for j in (k, m, k, m)))
    return ((i1 + scaled[a1, i2]) % m + (a1 + a2) % k * m).reshape(k * m, k * m)


def _table_quaternion(n: int) -> np.ndarray:
    # x of order 2^(n-1); y^2 = x^(2^(n-2)); y x y^-1 = x^-1
    m = 1 << (n - 1)
    h = 1 << (n - 2)
    i = np.arange(m, dtype=np.int16)
    add = (i[:, None] + i) % m
    sub = (i[:, None] - i) % m
    top = np.hstack([add, add + m])
    bot = np.hstack([sub + m, (sub + h) % m])
    return np.vstack([top, bot])


def _table_sdp(p: int, n: int, k0: int) -> np.ndarray:
    # pairs (x, y) in Z_p x Z_n with id x*n + y and
    # (x1,y1)*(x2,y2) = (x1+x2, k0^x2 * y1 + y2): the opposite product, so
    # the transposed table, of the metacyclic group with r = k0^-1
    return metacyclic_table(n, p, pow(k0, -1, n)).T


def _table_sym(n: int) -> np.ndarray:
    # a*b is i -> a[b[i]]; permutations come in lexicographic order, so the
    # base-n code of a product ranks it among them
    perms = np.array(list(itertools.permutations(range(n))))
    weights = n ** np.arange(n - 1, -1, -1)
    products = np.take_along_axis(perms[:, None, :], perms[None, :, :], axis=2)
    return np.searchsorted(perms @ weights, products @ weights).astype(np.int16)


def _product_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na, nb = a.shape[0], b.shape[0]
    return (a[:, None, :, None] * nb + b[None, :, None, :]).reshape(na * nb, na * nb)


def _table_ea(p: int, k: int) -> np.ndarray:
    return functools.reduce(_product_table, [_table_cyclic(p)] * k)


# ---------------------------------------------------------------------------
# the family registry


def _singles(top: int):
    return ((n,) for n in range(1, top + 1))


def _prime_powers(cap: int):
    # k runs to log2(cap); family_params drops the pairs whose order exceeds cap
    return ((p, k) for p in range(2, cap + 1) for k in range(1, cap.bit_length()))


class _Grid(NamedTuple):
    """A verify grid over a family's own parameters."""

    name: str  # in `verify --family`
    ranges: dict[str, tuple[int, int]]  # default ranges, by key
    # ranges -> parameter tuples in output order, some naming no group
    tuples: Callable[[dict[str, tuple[int, int]]], Iterable[tuple[int, ...]]]


class Sequence(NamedTuple):
    """A family's members of order p**n, counted in closed form.

    The default ranges of its verify grid start n at the first member; with
    no p range, members exist only at p == prime, the default of `limits`.
    """

    name: str  # in `verify --family` and `limits --family`
    term: Callable[[int, int], Constructor]  # the member of order p**n
    prime: int
    limit: Fraction  # of the members' normality degrees as n grows
    ranges: dict[str, tuple[int, int]]
    # (subgroups, normal) in (p, n); by default the record's closed form at the member
    closed_form: Callable[[int, int], tuple[int, int]] | None = None

    def member(self, p: int, n: int) -> Constructor:
        """The member of order p**n; ConstraintError when there is none."""
        if n < self.ranges["n"][0] or ("p" not in self.ranges and p != self.prime):
            raise ConstraintError(f"{self.name} has no member of order p**n", f"p={p}, n={n}")
        return self.term(p, n)

    def counts(self, p: int, n: int) -> tuple[int, int]:
        """Subgroup and normal-subgroup counts of the member of order p**n."""
        member = self.member(p, n)
        if self.closed_form is not None:
            return self.closed_form(p, n)
        return _FAMILIES[member.name].counts(*member.params)

    def ndeg(self, p: int, n: int) -> Fraction:
        """Normality degree of the member of order p**n, exactly."""
        total, normal = self.counts(p, n)
        return Fraction(normal, total)


class _Family(NamedTuple):
    """Everything the package knows about one constructor.

    `candidates(cap)` yields, in lexicographic order, canonical parameter
    tuples (residues below their modulus) that include every valid tuple of
    order <= cap; `check` alone decides validity. `counts(*params)` is the
    closed form, raising ConstraintError outside its domain. The catalog
    lists the members that `listed` accepts, and among groups of equal order
    ranks the families in registry order. `grid` and `sequence` are the
    family's verify grids: over its parameters, and over its members of
    order p**n.
    """

    names: tuple[str, ...]  # of the parameters, as verify labels print them
    check: Callable[[tuple[int, ...]], tuple[str, str] | None]
    order: Callable[[tuple[int, ...]], int]
    build: Callable[[tuple[int, ...]], np.ndarray]
    candidates: Callable[[int], Iterable[tuple[int, ...]]]
    counts: Callable[..., tuple[int, int]] | None = None
    listed: Callable[[tuple[int, ...]], bool] = lambda params: True
    grid: _Grid | None = None
    sequence: Sequence | None = None


_FAMILIES: dict[str, _Family] = {
    "C": _Family(("n",), _check_positive("C", 1), lambda p: p[0],
                 lambda p: _table_cyclic(p[0]), _singles,
                 counts=lambda n: (tau(n), tau(n))),
    # EA(p,1) is C(p), and elementary abelian lattices explode far below the cap
    "EA": _Family(("p", "k"), _check_ea, lambda p: _power_order(*p), lambda p: _table_ea(*p),
                  _prime_powers, listed=lambda p: p[1] > 1 and p[0] ** p[1] <= 32),
    "Sym": _Family(("n",), _check_sym, lambda p: math.factorial(p[0]),
                   lambda p: _table_sym(p[0]), _singles,
                   listed=lambda p: p[0] > 2),  # Sym(1), Sym(2) are C(1), C(2)
    "Q": _Family(("n",), _check_positive("Q", 3), lambda p: _power_order(2, p[0]),
                 lambda p: _table_quaternion(p[0]), lambda cap: _singles(cap.bit_length()),
                 counts=lambda n: (2 ** (n - 1) + n - 1, n + 3),
                 sequence=Sequence("quaternion2n", lambda p, n: Constructor("Q", (n,)),
                                   2, Fraction(0), {"n": (3, 9)})),
    "SD": _Family(("n",), _check_positive("SD", 4), lambda p: _power_order(2, p[0]),
                  lambda p: metacyclic_table(1 << (p[0] - 1), 2, (1 << (p[0] - 2)) - 1),
                  lambda cap: _singles(cap.bit_length()),
                  counts=lambda n: (3 * 2 ** (n - 2) + n - 1, n + 3),
                  sequence=Sequence("semidihedral2n", lambda p, n: Constructor("SD", (n,)),
                                    2, Fraction(0), {"n": (4, 9)})),
    "M": _Family(("p", "n"), _check_mpn, lambda p: _power_order(*p),
                 lambda p: metacyclic_table(p[0] ** (p[1] - 1), p[0], p[0] ** (p[1] - 2) + 1),
                 _prime_powers,
                 counts=lambda p, n: ((1 + p) * n + 1 - p, (1 + p) * n + 1 - 2 * p),
                 sequence=Sequence("mpn", lambda p, n: Constructor("M", (p, n)),
                                   3, Fraction(1), {"p": (2, 7), "n": (3, 9)})),
    # Dih(1), Dih(2) are C(2), EA(2,2), outside the closed form's domain; the
    # sequence of Dih(2**(n-1)) counts from Dih(2) on, in n
    "Dih": _Family(("n",), _check_positive("Dih", 1), lambda p: 2 * p[0],
                   lambda p: metacyclic_table(p[0], 2, p[0] - 1),  # y x y = x^-1
                   lambda cap: _singles(cap // 2),
                   counts=dihedral_counts, listed=lambda p: p[0] > 2,
                   grid=_Grid("dihedral", {"n": (3, 60)},
                              lambda r: ((n,) for n in range(r["n"][0], r["n"][1] + 1))),
                   sequence=Sequence("dihedral2n", lambda p, n: Constructor("Dih", (p ** (n - 1),)),
                                     2, Fraction(0), {"n": (2, 9)},
                                     lambda p, n: (2 ** n + n - 1, n + 3))),
    "SDP": _Family(("p", "n", "k0"), _check_sdp, lambda p: p[0] * p[1], lambda p: _table_sdp(*p),
                   lambda cap: ((p, n, k0) for p in range(2, cap + 1) if _check_sdp((p,)) is None
                                for n in range(1, cap // p + 1) if _check_sdp((p, n)) is None
                                for k0 in range(n)),
                   counts=sdp_counts,
                   grid=_Grid("sdp", {"p": (2, 5), "n": (2, 40)},
                              lambda r: (t for t in family_params("SDP", r["p"][1] * r["n"][1])
                                         if r["p"][0] <= t[0] <= r["p"][1]
                                         and r["n"][0] <= t[1] <= r["n"][1]))),
    # no even m has a valid r: gcd(m, r-1) = 1 makes r even, and then r**n
    # is even, so r**n == 1 (mod m) fails; the walk also applies the check's
    # rules gcd(m, n) == 1 and r**n == 1 (mod m)
    "ZM": _Family(("m", "n", "r"), _check_zm, lambda p: p[0] * p[1], lambda p: metacyclic_table(*p),
                  lambda cap: ((m, n, r) for m in range(1, cap + 1, 2)
                               for n in range(1, cap // m + 1) if math.gcd(m, n) == 1
                               for r in range(m) if pow(r, n, m) == 1 % m),
                  counts=zm_counts,
                  grid=_Grid("zm", {"mn": (2, 300)},  # mn bounds the order m*n
                             lambda r: (t for t in family_params("ZM", r["mn"][1])
                                        if t[0] * t[1] >= r["mn"][0]))),
}


def sequence(name: str) -> Sequence:
    """The order-p**n sequence called name, from the record that holds it."""
    for fam in _FAMILIES.values():
        if fam.sequence is not None and fam.sequence.name == name:
            return fam.sequence
    raise ConstraintError("unknown sequence", name)


def check_params(name: str, params: tuple[int, ...]) -> None:
    """Validate constructor parameters, raising ConstraintError when violated."""
    fam = _FAMILIES.get(name)
    if fam is None:
        raise ConstraintError(f"unknown constructor {name!r}")
    if len(params) != len(fam.names):
        raise ConstraintError(f"{name} takes {len(fam.names)} parameter(s)", f"got {len(params)}")
    problem = fam.check(params)
    if problem is not None:
        raise ConstraintError(*problem)


def family_params(name: str, order_cap: int) -> list[tuple[int, ...]]:
    """Every valid canonical parameter tuple of a constructor with order <= order_cap.

    Tuples come in lexicographic order; residue parameters (SDP's k0, ZM's
    r) are taken below their modulus.
    """
    fam = _FAMILIES[name]
    return [params for params in fam.candidates(order_cap)
            if fam.check(params) is None and fam.order(params) <= order_cap]


# ---------------------------------------------------------------------------
# parser


_TOKEN_RE = re.compile(r"[A-Za-z][A-Za-z0-9]*|\d+|[(),]")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise SpecParseError(f"unexpected character {text[pos]!r}", pos)
        tok = m.group()
        kind = "int" if tok[0].isdigit() else ("punct" if tok in "()," else "name")
        tokens.append((kind, tok, pos))
        pos = m.end()
    return tokens


def parse_spec(text: str) -> GroupSpec:
    """Parse 'NAME(INT,...) [x NAME(INT,...)]*' into a validated spec."""
    tokens = _tokenize(text)
    if not tokens:
        raise SpecParseError("empty spec", 0)
    idx = 0

    def expect(kind: str, value: str | None = None):
        nonlocal idx
        if idx >= len(tokens):
            raise SpecParseError(f"unexpected end of spec, wanted {value or kind}", len(text))
        k, v, p = tokens[idx]
        if k != kind or (value is not None and v != value):
            raise SpecParseError(f"expected {value or kind}, found {v!r}", p)
        idx += 1
        return v, p

    def parse_param() -> int:
        digits, pos = expect("int")
        try:
            return int(digits)
        except ValueError:  # past Python's integer-string digit limit
            raise ConstraintError("spec parameter too long to read",
                                  f"{len(digits)} digits at position {pos}") from None

    def parse_term() -> Constructor:
        name, pos = expect("name")
        if name == "x":
            raise SpecParseError("'x' is the product separator, not a constructor", pos)
        expect("punct", "(")
        params = [parse_param()]
        while idx < len(tokens) and tokens[idx][:2] == ("punct", ","):
            expect("punct", ",")
            params.append(parse_param())
        expect("punct", ")")
        return Constructor(name, tuple(params))

    spec: GroupSpec = parse_term()
    while idx < len(tokens):
        k, v, p = tokens[idx]
        if (k, v) != ("name", "x"):
            raise SpecParseError(f"expected 'x' between terms, found {v!r}", p)
        idx += 1
        spec = Product(spec, parse_term())
    return spec


# ---------------------------------------------------------------------------
# group tables


class _Rows(dict):
    """Rows of a 2-d array as plain lists, each converted on first use."""

    def __init__(self, array: np.ndarray):
        self.array = array

    def __missing__(self, i: int) -> list[int]:
        row = self[i] = self.array[i].tolist()
        return row


class GroupTable:
    """Immutable finite group presented by its full multiplication table.

    Element 0 is the identity. `mul` is an order x order int16 array, as
    every builder makes it (int32 past order 32 767), frozen after the
    axioms check. `rows[x][y]` is x*y: the fast path for elementwise loops,
    converting each row of `mul` to a list on first use, so a caller pays
    only for the rows it reads. A table does not know the spec it was built
    from; its caller does.
    """

    __slots__ = ("order", "mul", "inv", "_rows", "_generators")

    def __init__(self, mul):
        mul = np.ascontiguousarray(mul)
        n = mul.shape[0]
        if mul.shape != (n, n):
            raise ValueError("multiplication table must be square")
        # before the casts, which would truncate fractions and wrap big entries
        if not np.issubdtype(mul.dtype, np.integer):
            raise ValueError(f"table entries must be integers, not {mul.dtype}")
        if mul.min() < 0 or mul.max() >= n:
            raise ValueError("table entries must lie in [0, order)")
        dtype = np.int16 if n <= 2**15 - 1 else np.int32
        self.order = n
        self.mul = mul.astype(dtype)  # always a copy: freezing it leaves the caller's array be
        self.inv = self.mul.argmin(axis=1).astype(dtype)  # a right inverse, if the row has 0
        self._rows = None
        self._generators = None
        self.validate()
        self.mul.flags.writeable = False
        self.inv.flags.writeable = False

    @property
    def rows(self) -> dict[int, list[int]]:
        """rows[x] is row x of `mul` as a list, converted on first use.

        Only rows[x] indexing is supported: len() and iteration see just
        the rows converted so far, not the table.
        """
        if self._rows is None:
            self._rows = _Rows(self.mul)
        return self._rows

    def validate(self) -> None:
        """Check that the table is a group, testing only what the proof needs.

        Entries lie in [0, order), as the constructor checked. Here 0 must be
        a two-sided identity, each x needs a right inverse inv[x], and Light's
        test must pass: (xg)y == x(gy) for all x, y and each generator g. The
        b with (xb)y == x(by) for all x, y are closed under products, so they
        are the whole table. Associative, with an identity and right inverses,
        the table is a group: a Latin square with two-sided inverses.
        """
        mul = self.mul
        idx = np.arange(self.order)
        if not (np.array_equal(mul[0], idx) and np.array_equal(mul[:, 0], idx)):
            raise ValueError("element 0 is not a two-sided identity")
        if mul[idx, self.inv].any():
            raise ValueError("some element has no right inverse")
        for g in self.generators():
            if not np.array_equal(mul.take(mul[:, g], axis=0), mul.take(mul[g], axis=1)):
                raise ValueError("associativity fails")

    def generators(self) -> list[int]:
        """A small generating set found greedily; identity-only group gives []."""
        if self._generators is None:
            self._generators = generators(self.rows, (1 << self.order) - 1)
        return list(self._generators)

    def __repr__(self) -> str:
        return f"GroupTable(order={self.order})"


def closure(rows: dict[int, list[int]], gens,
            span: tuple[int, list[int]] | None = None) -> tuple[int, list[int]]:
    """(bitmask, elements) of the subgroup generated by gens, by breadth-first search.

    This is the package's one subgroup walk. Steps x -> g*x, so only rows[g]
    for g in gens is read. Given span, the mask and elements of
    <gens[:-1]>, it grows them in place and walks only what gens[-1] adds:
    the old elements take the new step, and the new elements take every step.
    """
    steps = [rows[g] for g in gens]
    mask, elems = span or (1, [0])
    start = 0
    if span is not None:
        start = len(elems)
        for b in map(steps[-1].__getitem__, elems[:start]):
            if not mask >> b & 1:
                mask |= 1 << b
                elems.append(b)
    for x in itertools.islice(elems, start, None):  # the list grows while it is walked
        for step in steps:
            b = step[x]
            if not mask >> b & 1:
                mask |= 1 << b
                elems.append(b)
    return mask, elems


def generators(rows: dict[int, list[int]], mask: int) -> list[int]:
    """A small generating set of the subgroup `mask`, found greedily; [] for 1.

    Each generator is the least element outside the span of those before it,
    and `closure` grows that one span in place until it equals mask.
    """
    gens: list[int] = []
    span = (1, [0])
    while span[0] != mask:
        rest = mask & ~span[0]
        gens.append((rest & -rest).bit_length() - 1)
        span = closure(rows, gens, span)
    return gens


def build(spec: GroupSpec | str) -> GroupTable:
    """Materialize the multiplication table for a spec (string or AST)."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    _check_build_order(spec.order())
    return GroupTable(_build_raw(spec))


def _build_raw(spec: GroupSpec) -> np.ndarray:
    if isinstance(spec, Constructor):
        return _FAMILIES[spec.name].build(spec.params)
    return _product_table(_build_raw(spec.left), _build_raw(spec.right))
