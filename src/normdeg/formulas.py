"""The formula route: `formula_counts` reads the closed form in a spec's
constructor record (`groups._FAMILIES`) and builds no group table. Beside it
are the bounds around ndeg(SDP(p, n, k0)) and the rank-2 abelian p-group
counts by order; the tests check each formula against brute force.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import ConstraintError
from .groups import _FAMILIES, Constructor, GroupSpec, check_params, parse_spec
from .numtheory import is_prime, sigma, tau


# ---------------------------------------------------------------------------
# cyclic-by-prime semidirect products SDP(p, n, k0)

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
# dispatch from a parsed group description to a closed form, when one exists

def formula_counts(spec: GroupSpec | str) -> tuple[int, int] | None:
    """(subgroup count, normal count) from a closed form, or None if unsupported."""
    if isinstance(spec, str):
        spec = parse_spec(spec)
    counts = _FAMILIES[spec.name].counts if isinstance(spec, Constructor) else None
    if counts is None:
        return None
    try:
        return counts(*spec.params)
    except ConstraintError:  # outside the closed form's domain, e.g. Dih(2)
        return None
