"""The p-group upper bound on the normality degree, read off a lattice.

Acceptance 4 and the degree tests check that ndeg meets it; no command
reports it, so it lives beside the tests that read it.
"""

from __future__ import annotations

from fractions import Fraction

from normdeg.errors import ConstraintError
from normdeg.numtheory import factorize


def pgroup_bound_check(G, lattice) -> tuple[Fraction, bool]:
    """Upper bound |N|/(|N| + p*s) for p-groups, and whether ndeg meets it.

    s counts conjugacy classes with at least two members; each such orbit
    has size at least p in a p-group.
    """
    fac = factorize(G.order)
    if len(fac) != 1:
        raise ConstraintError(
            "p-group bound needs a p-group", f"order {G.order} is not a prime power"
        )
    p = fac[0][0]
    normal = lattice.normal_count
    multi = sum(len(orbit) > 1 for orbit in lattice.orbits)
    bound = Fraction(normal, normal + p * multi)
    ndeg = Fraction(normal, len(lattice))
    return bound, ndeg <= bound
