"""Group spec language and multiplication-table construction.

A spec is a product of family constructors, e.g. "SDP(3,7,2) x C(2)".
Every constructor validates its parameter constraints up front; build()
materializes an immutable multiplication table and checks the group
axioms on it.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections.abc import Callable, Iterable
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, SpecParseError
from .numtheory import is_prime

# Hard ceiling for table materialization; the lattice cap is separate and lower.
MAX_BUILD_ORDER = 4096

_ASSOC_EXHAUSTIVE_MAX = 128
_ASSOC_SAMPLES = 100_000


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


def render(spec: GroupSpec) -> str:
    """Canonical string form; parse(render(s)) round-trips."""
    return spec.render()


# ---------------------------------------------------------------------------
# parameter constraints: each check returns the first violated
# (constraint, detail) pair, or None, so filters over many candidate tuples
# build no exception objects


def _check_sdp(params: tuple[int, ...]) -> tuple[str, str] | None:
    p, n, k0 = params
    if not is_prime(p):
        return "SDP requires p prime", f"p={p}"
    if n < 2:
        return "SDP requires n >= 2", f"n={n}"
    if n % p == 0:
        return "SDP requires p not dividing n", f"p={p}, n={n}"
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
    if not 1 <= n <= 5:
        return "Sym supports 1 <= n <= 5", f"n={n}"
    return None


def _check_ea(params: tuple[int, ...]) -> tuple[str, str] | None:
    p, k = params
    if not is_prime(p):
        return "EA requires p prime", f"p={p}"
    if k < 1:
        return "EA requires k >= 1", f"k={k}"
    return None


# ---------------------------------------------------------------------------
# table builders (numpy blocks; element ids documented per family)


def _table_cyclic(n: int) -> np.ndarray:
    a = np.arange(n)
    return (a[:, None] + a[None, :]) % n


def metacyclic_table(m: int, k: int, r: int) -> np.ndarray:
    """Table of <x,y | x^m = y^k = 1, y^-1 x y = x^r>; id of x^i y^a is a*m + i.

    Requires gcd(r, m) == 1 and r^k == 1 (mod m). Internally the product
    uses s = r^-1 mod m so that x (id 1) and y (id m) satisfy the stated
    relation exactly.
    """
    if math.gcd(r, m) != 1 or pow(r, k, m) != 1 % m:
        raise ConstraintError("metacyclic requires gcd(r, m) == 1 and r**k == 1 (mod m)")
    s = pow(r, -1, m) if m > 1 else 0
    i = np.arange(m)
    blocks = []
    for a1 in range(k):
        sa = pow(s, a1, m) if m > 1 else 0
        inner = (i[:, None] + sa * i[None, :]) % m
        row = [inner + ((a1 + a2) % k) * m for a2 in range(k)]
        blocks.append(np.hstack(row))
    return np.vstack(blocks)


def _table_quaternion(n: int) -> np.ndarray:
    # x of order 2^(n-1); y^2 = x^(2^(n-2)); y x y^-1 = x^-1
    m = 1 << (n - 1)
    h = 1 << (n - 2)
    i = np.arange(m)
    add = (i[:, None] + i[None, :]) % m
    sub = (i[:, None] - i[None, :]) % m
    top = np.hstack([add, add + m])
    bot = np.hstack([sub + m, (sub + h) % m])
    return np.vstack([top, bot])


def _table_sdp(p: int, n: int, k0: int) -> np.ndarray:
    # pairs (x, y) in Z_p x Z_n with id x*n + y and
    # (x1,y1)*(x2,y2) = (x1+x2, k0^x2 * y1 + y2): the opposite product, so
    # the transposed table, of the metacyclic group with r = k0^-1
    return metacyclic_table(n, p, pow(k0, -1, n)).T


def _table_sym(n: int) -> np.ndarray:
    perms = list(itertools.permutations(range(n)))
    rank = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    mul = np.empty((size, size), dtype=np.int32)
    for a, pa in enumerate(perms):
        for b, pb in enumerate(perms):
            mul[a, b] = rank[tuple(pa[pb[i]] for i in range(n))]
    return mul


def _product_table(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    na, nb = a.shape[0], b.shape[0]
    return (
        a.astype(np.int64)[:, None, :, None] * nb + b[None, :, None, :]
    ).reshape(na * nb, na * nb)


def _table_ea(p: int, k: int) -> np.ndarray:
    return functools.reduce(_product_table, [_table_cyclic(p)] * k)


def _singles(top: int):
    return ((n,) for n in range(1, top + 1))


def _prime_powers(cap: int):
    # k runs to log2(cap); family_params drops the pairs whose order exceeds cap
    return ((p, k) for p in range(2, cap + 1) for k in range(1, cap.bit_length()))


@dataclass(frozen=True)
class _Family:
    """Everything the package knows about one constructor.

    `candidates(cap)` yields, in lexicographic order, canonical parameter
    tuples (residues below their modulus) that include every valid tuple of
    order <= cap; `check` alone decides validity.
    """

    arity: int
    check: Callable[[tuple[int, ...]], tuple[str, str] | None]
    order: Callable[[tuple[int, ...]], int]
    build: Callable[[tuple[int, ...]], np.ndarray]
    candidates: Callable[[int], Iterable[tuple[int, ...]]]


_FAMILIES: dict[str, _Family] = {
    "C": _Family(1, _check_positive("C", 1), lambda p: p[0],
                 lambda p: _table_cyclic(p[0]), _singles),
    "Dih": _Family(1, _check_positive("Dih", 1), lambda p: 2 * p[0],
                   lambda p: metacyclic_table(p[0], 2, p[0] - 1),  # y x y = x^-1
                   lambda cap: _singles(cap // 2)),
    "Q": _Family(1, _check_positive("Q", 3), lambda p: 1 << p[0],
                 lambda p: _table_quaternion(p[0]), lambda cap: _singles(cap.bit_length())),
    "SD": _Family(1, _check_positive("SD", 4), lambda p: 1 << p[0],
                  lambda p: metacyclic_table(1 << (p[0] - 1), 2, (1 << (p[0] - 2)) - 1),
                  lambda cap: _singles(cap.bit_length())),
    "M": _Family(2, _check_mpn, lambda p: p[0] ** p[1],
                 lambda p: metacyclic_table(p[0] ** (p[1] - 1), p[0], p[0] ** (p[1] - 2) + 1),
                 _prime_powers),
    "Sym": _Family(1, _check_sym, lambda p: math.factorial(p[0]),
                   lambda p: _table_sym(p[0]), _singles),
    "SDP": _Family(3, _check_sdp, lambda p: p[0] * p[1], lambda p: _table_sdp(*p),
                   lambda cap: ((p, n, k0) for p in range(2, cap + 1)
                                for n in range(1, cap // p + 1) for k0 in range(n))),
    "ZM": _Family(3, _check_zm, lambda p: p[0] * p[1], lambda p: metacyclic_table(*p),
                  lambda cap: ((m, n, r) for m in range(1, cap + 1)
                               for n in range(1, cap // m + 1) for r in range(m))),
    "EA": _Family(2, _check_ea, lambda p: p[0] ** p[1], lambda p: _table_ea(*p),
                  _prime_powers),
}


def check_params(name: str, params: tuple[int, ...]) -> None:
    """Validate constructor parameters, raising ConstraintError when violated."""
    fam = _FAMILIES.get(name)
    if fam is None:
        raise ConstraintError(f"unknown constructor {name!r}")
    if len(params) != fam.arity:
        raise ConstraintError(
            f"{name} takes {fam.arity} parameter(s)", f"got {len(params)}"
        )
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

    def parse_term() -> Constructor:
        name, pos = expect("name")
        if name == "x":
            raise SpecParseError("'x' is the product separator, not a constructor", pos)
        expect("punct", "(")
        params = [int(expect("int")[0])]
        while idx < len(tokens) and tokens[idx][:2] == ("punct", ","):
            expect("punct", ",")
            params.append(int(expect("int")[0]))
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


class GroupTable:
    """Immutable finite group presented by its full multiplication table.

    Element 0 is the identity. `mul` is an order x order integer array,
    frozen after the axioms check.
    """

    __slots__ = ("order", "mul", "inv", "spec_text", "_rows", "_fingerprint", "_generators")

    def __init__(self, mul, spec_text=None):
        mul = np.ascontiguousarray(mul)
        n = mul.shape[0]
        if mul.shape != (n, n):
            raise ValueError("multiplication table must be square")
        dtype = np.int16 if n <= 2**15 - 1 else np.int32
        mul = mul.astype(dtype, copy=False)
        self.order = n
        self.mul = mul
        where = np.nonzero(mul == 0)
        if len(where[0]) != n or not np.array_equal(where[0], np.arange(n)):
            raise ValueError("table has no unique two-sided inverse per element")
        self.inv = where[1].astype(dtype)
        self.spec_text = spec_text
        self._rows = None
        self._fingerprint = None
        self._generators = None
        self.validate()
        self.mul.flags.writeable = False
        self.inv.flags.writeable = False

    @property
    def rows(self) -> list[list[int]]:
        """Table rows as plain lists; the fast path for elementwise loops."""
        if self._rows is None:
            self._rows = self.mul.tolist()
        return self._rows

    def validate(self) -> None:
        """Check identity, Latin square, inverses, associativity.

        Associativity is exhaustive up to order 128 and sampled on 10^5
        deterministic random triples above that.
        """
        n = self.order
        mul = self.mul
        idx = np.arange(n)
        if not (np.array_equal(mul[0], idx) and np.array_equal(mul[:, 0], idx)):
            raise ValueError("element 0 is not a two-sided identity")
        if not np.array_equal(np.sort(mul, axis=1), np.tile(idx, (n, 1))):
            raise ValueError("rows are not permutations")
        if not np.array_equal(np.sort(mul, axis=0), np.tile(idx[:, None], (1, n))):
            raise ValueError("columns are not permutations")
        if not np.array_equal(mul[idx, self.inv], np.zeros(n, dtype=mul.dtype)):
            raise ValueError("inverse table is inconsistent")
        if n <= _ASSOC_EXHAUSTIVE_MAX:
            if not np.array_equal(mul[mul], mul[:, mul]):
                raise ValueError("associativity fails")
        else:
            rng = np.random.default_rng(0x5EED ^ n)
            a, b, c = rng.integers(0, n, size=(3, _ASSOC_SAMPLES))
            if not np.array_equal(mul[mul[a, b], c], mul[a, mul[b, c]]):
                raise ValueError("associativity fails on sampled triples")

    @property
    def fingerprint(self) -> dict[int, int]:
        """Histogram {element order: count}; a cheap isomorphism surrogate."""
        if self._fingerprint is None:
            hist: dict[int, int] = {}
            for x in range(self.order):
                d = element_order(self, x)
                hist[d] = hist.get(d, 0) + 1
            self._fingerprint = hist
        return dict(self._fingerprint)

    def generators(self) -> list[int]:
        """A small generating set found greedily; identity-only group gives []."""
        if self._generators is None:
            rows = self.rows
            gens: list[int] = []
            mask = 1
            for g in range(self.order):
                if not mask >> g & 1:
                    gens.append(g)
                    mask, _ = closure(rows, gens)
            self._generators = gens
        return list(self._generators)

    def __repr__(self) -> str:
        tag = self.spec_text or "?"
        return f"GroupTable({tag}, order={self.order})"


def closure(rows: list[list[int]], gens, limit: int | None = None) -> tuple[int, int] | None:
    """(bitmask, size) of the subgroup generated by gens, by breadth-first search.

    Returns None as soon as the subgroup has more than `limit` elements.
    """
    if limit is None:
        limit = len(rows)
    mask = 1
    elems = [0]
    pos = 0
    count = 1
    while pos < count:
        row = rows[elems[pos]]
        pos += 1
        for g in gens:
            b = row[g]
            if not mask >> b & 1:
                mask |= 1 << b
                elems.append(b)
                count += 1
                if count > limit:
                    return None
    return mask, count


def element_order(G: GroupTable, x: int) -> int:
    """Multiplicative order of element x: the size of the cyclic subgroup it generates."""
    return closure(G.rows, [x])[1]


def build(spec: GroupSpec | str) -> GroupTable:
    """Materialize the multiplication table for a spec (string or AST)."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    order = spec.order()
    if order > MAX_BUILD_ORDER:
        raise ConstraintError(
            "group too large to materialize",
            f"order {order} exceeds build ceiling {MAX_BUILD_ORDER}",
        )
    return GroupTable(_build_raw(spec), spec_text=render(spec))


def _build_raw(spec: GroupSpec) -> np.ndarray:
    if isinstance(spec, Constructor):
        return _FAMILIES[spec.name].build(spec.params)
    return _product_table(_build_raw(spec.left), _build_raw(spec.right))
