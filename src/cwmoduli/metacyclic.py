"""Schur multiplier of split metacyclic groups and the free-action bound.

For G = <x, y | x^m, y^n, y x y^-1 = x^r> the second homology is cyclic of
order gcd(m, r-1) gcd(m, 1 + r + ... + r^(n-1)) / m. For nonabelian G that
order lower-bounds the number of connected components of the locus of free
actions whose pluricanonical characters are regular-representation multiples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AbelianGroup, InternalConsistencyError, NoFreeAction
from .groups import MetacyclicParams

__all__ = ["SchurResult", "schur_multiplier_order", "rr_component_lower_bound"]


@dataclass(frozen=True)
class SchurResult:
    params: MetacyclicParams
    d: int


def schur_multiplier_order(p: MetacyclicParams) -> SchurResult:
    """|H_2(G, Z)| = gcd(m, r-1) gcd(m, sum_{i<n} r^i) / m.

    The geometric sum (r^n - 1)/(r - 1) is needed only mod m, so it comes from
    r^n mod m(r - 1); the division by m is asserted exact.
    """
    m, n, r = p.m, p.n, p.r
    mod = m * (r - 1)
    geometric = (pow(r, n, mod) - 1) % mod // (r - 1) if r > 1 else n
    d, rem = divmod(math.gcd(m, r - 1) * math.gcd(m, geometric), m)
    if rem != 0 or d < 1:
        raise InternalConsistencyError(
            f"multiplier formula gave {d} remainder {rem} for (m,n,r)=({m},{n},{r})")
    return SchurResult(p, d)


def rr_component_lower_bound(p: MetacyclicParams, g: int) -> int:
    """Lower bound on components of the regular-representation locus in genus g.

    Requires a nonabelian group (the topological-type count behind the bound
    holds only there) and an unramified action: g - 1 must be a positive
    multiple of |G| = m*n so the quotient genus 1 + (g-1)/|G| is at least 2.
    """
    if (p.r - 1) % p.m == 0:
        raise AbelianGroup(
            f"(m,n,r)=({p.m},{p.n},{p.r}) is abelian; the bound needs r != 1 mod m")
    order = p.m * p.n
    quot, rem = divmod(g - 1, order)
    if rem != 0:
        raise NoFreeAction(
            f"g - 1 = {g - 1} is not a multiple of |G| = {order}")
    if quot < 1:
        raise NoFreeAction(
            f"quotient genus 1 + (g-1)/|G| = {1 + quot} is below 2")
    return schur_multiplier_order(p).d
