"""Closed-form subgroup and normal-subgroup counts for structured families.

Every function here returns exact integers or fractions computed from the
parameters alone, with no group table in sight.  The test suite checks each
formula against brute-force lattice enumeration on overlapping ranges.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from typing import NamedTuple

from .errors import ConstraintError
from .groups import Constructor, GroupSpec, check_params, parse_spec
from .numtheory import divisors, gcd_divisor_sum, is_prime, sigma, tau


# ---------------------------------------------------------------------------
# cyclic-by-prime semidirect products SDP(p, n, k0)

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


class SemidirectBounds(NamedTuple):
    """Closed-form bounds around ndeg(SDP(p, n, k0))."""

    upper: Fraction
    lower_sigma: Fraction
    lower_index: Fraction


def semidirect_bounds(p: int, n: int, k0: int) -> SemidirectBounds:
    """Upper and lower bounds for ndeg(SDP(p, n, k0)) from tau, sigma and the action order."""
    check_params("SDP", (p, n, k0))
    t = tau(n)
    r = n // math.gcd(k0 - 1, n)
    return SemidirectBounds(
        upper=Fraction(t + 1, 2 * t),
        lower_sigma=Fraction(t + 1, t + sigma(n)),
        lower_index=Fraction(t + 1, t * (r + 1)),
    )


# ---------------------------------------------------------------------------
# dihedral groups Dih(n) of order 2n

def dihedral_counts(n: int) -> tuple[int, int]:
    """Subgroup and normal-subgroup counts of Dih(n) for n >= 3."""
    if n < 3:
        raise ConstraintError("dihedral closed form requires n >= 3", f"n={n}")
    total = tau(n) + sigma(n)
    normal = tau(n) + 1 if n % 2 else tau(n) + 3
    return total, normal


# ---------------------------------------------------------------------------
# metacyclic groups ZM(m, n, r) with cyclic Sylow subgroups

def zm_counts(m: int, n: int, r: int) -> tuple[int, int]:
    """Subgroup and normal-subgroup counts of ZM(m, n, r)."""
    check_params("ZM", (m, n, r))
    total = 0
    for m1 in divisors(m):
        for n1 in divisors(n):
            geo = sum(pow(r, j * n1, m1) for j in range(n // n1)) % m1
            total += math.gcd(m1, geo)
    normal = sum(tau(math.gcd(m, (pow(r, n1, m) - 1) % m))
                 for n1 in divisors(n))
    return total, normal


# ---------------------------------------------------------------------------
# abelian p-groups of rank two

def abelian_rank2_count(p: int, a1: int, a2: int, k: int) -> int:
    """Number of subgroups of order p**k in C(p**a1) x C(p**a2), a1 <= a2."""
    _check_rank2(p, a1, a2)
    if not 0 <= k <= a1 + a2:
        raise ConstraintError("subgroup order exponent out of range",
                              f"k={k}, a1+a2={a1 + a2}")
    if k <= a1:
        e = k
    elif k <= a2:
        e = a1
    else:
        e = a1 + a2 - k
    return (p ** (e + 1) - 1) // (p - 1)


def abelian_rank2_total(p: int, a1: int, a2: int) -> int:
    """Total subgroup count of C(p**a1) x C(p**a2) in closed form."""
    _check_rank2(p, a1, a2)
    num = ((a2 - a1 + 1) * p ** (a1 + 2)
           - (a2 - a1 - 1) * p ** (a1 + 1)
           - (a1 + a2 + 3) * p
           + (a1 + a2 + 1))
    den = (p - 1) ** 2
    quot, rem = divmod(num, den)
    if rem:
        raise ArithmeticError(f"rank-2 total not divisible by (p-1)^2: {num}/{den}")
    return quot


def _check_rank2(p: int, a1: int, a2: int) -> None:
    if not is_prime(p):
        raise ConstraintError("rank-2 counts require a prime p", f"p={p}")
    if not 1 <= a1 <= a2:
        raise ConstraintError("rank-2 counts require 1 <= a1 <= a2",
                              f"a1={a1}, a2={a2}")


# ---------------------------------------------------------------------------
# maximal-class and modular 2-generated p-group families of order p**n

class Family(Enum):
    """Families of order p**n with linear or exponential subgroup growth."""

    MODULAR = "M"
    DIHEDRAL = "Dih"
    QUATERNION = "Q"
    SEMIDIHEDRAL = "SD"


def family_member(family: Family, p: int, n: int) -> Constructor:
    """The order-p**n member as a constructor term; ConstraintError when there is none."""
    if family is Family.MODULAR:
        return Constructor("M", (p, n))
    if p != 2:
        raise ConstraintError(f"family {family.value} requires p == 2", f"p={p}")
    if family is Family.DIHEDRAL:
        if n < 2:
            raise ConstraintError("dihedral 2-group family requires n >= 2", f"n={n}")
        return Constructor("Dih", (2 ** (n - 1),))
    return Constructor(family.value, (n,))


def family_counts(family: Family, p: int, n: int) -> tuple[int, int]:
    """Subgroup and normal-subgroup counts of the order-p**n family member."""
    family_member(family, p, n)
    if family is Family.MODULAR:
        return (1 + p) * n + 1 - p, (1 + p) * n + 1 - 2 * p
    if family is Family.DIHEDRAL:
        total = 2 ** n + n - 1
    elif family is Family.QUATERNION:
        total = 2 ** (n - 1) + n - 1
    else:
        total = 3 * 2 ** (n - 2) + n - 1
    return total, n + 3


def ndeg_family(family: Family, p: int, n: int) -> Fraction:
    """Normality degree of the order-p**n family member, exactly."""
    total, normal = family_counts(family, p, n)
    return Fraction(normal, total)


def family_limit(family: Family) -> Fraction:
    """Limit of the family's normality degree as n grows: 1 modular, 0 otherwise."""
    return Fraction(1) if family is Family.MODULAR else Fraction(0)


# ---------------------------------------------------------------------------
# dispatch from a parsed group description to a closed form, when one exists

# closed forms by constructor name, called with the constructor's parameters
_COUNTS = {
    "C": lambda n: (tau(n), tau(n)),
    "Dih": dihedral_counts,
    "Q": lambda n: family_counts(Family.QUATERNION, 2, n),
    "SD": lambda n: family_counts(Family.SEMIDIHEDRAL, 2, n),
    "M": lambda p, n: family_counts(Family.MODULAR, p, n),
    "SDP": sdp_counts,
    "ZM": zm_counts,
}


def formula_counts(spec: GroupSpec | str) -> tuple[int, int] | None:
    """(subgroup count, normal count) from a closed form, or None if unsupported."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    counts = _COUNTS.get(spec.name) if isinstance(spec, Constructor) else None
    if counts is None:
        return None
    try:
        return counts(*spec.params)
    except ConstraintError:  # outside the closed form's domain, e.g. Dih(2)
        return None
