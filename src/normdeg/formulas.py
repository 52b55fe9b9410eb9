"""The formula route: `formula_counts` reads the closed form in a spec's
constructor record (`groups._FAMILIES`) and builds no group table. Beside it
are the bounds around ndeg(SDP(p, n, k0)); the tests check each formula
against brute force. The closed forms themselves, `groups.abelian_counts`
among them, live in `groups`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import ConstraintError
from .groups import _FAMILIES, Constructor, GroupSpec, check_params, parse_spec
from .numtheory import sigma, tau


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
