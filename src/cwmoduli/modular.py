"""Prime-field arithmetic for the character tables.

All character data lives in GF(p) for a single working prime chosen per
session. The prime is taken large enough that every integer we ever need to
recover (character degrees, inner products, eigenvalue counts) sits strictly
inside (-p/2, p/2), so lifting to the least absolute residue is exact.
Multiplicities are integer arithmetic on the recovered counts and need no
prime of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from .errors import PrimeSearchExceeded
from .groups import FiniteGroup

__all__ = [
    "PRIME_SEARCH_LIMIT",
    "WorkingPrime",
    "session_bound",
    "choose_prime",
    "recover_integer",
]

PRIME_SEARCH_LIMIT = 2 ** 31

# Deterministic Miller-Rabin witnesses, valid for all n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _prime_factors(n: int) -> List[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


@dataclass(frozen=True)
class WorkingPrime:
    """A prime p = 1 mod e with a fixed primitive e-th root of unity z.

    bound records the largest integer magnitude the session promised to
    recover; 2*bound < p always holds.
    """

    p: int
    e: int
    z: int
    bound: int

    def inv(self, a: int) -> int:
        return pow(a % self.p, self.p - 2, self.p)

    def unity_root(self, k: int) -> int:
        """z**k mod p; accepts any integer exponent."""
        return pow(self.z, k % self.e, self.p)


def session_bound(order: int, k_max: int, g_max: int) -> int:
    """Largest integer the session must recover from GF(p).

    Covers character degrees (d^2 <= |G|, so d <= ceil(2 sqrt(|G|)) is ample)
    and inner-product numerators bounded by |G|. The term (2k-1)(g-1)|G|
    once covered multiplicities recovered from GF(p); it no longer affects
    correctness, but it still fixes the prime and with it the order of the
    irrational characters.
    """
    if order < 1 or k_max < 1 or g_max < 2:
        raise ValueError(
            f"need order >= 1, k_max >= 1, g_max >= 2; got {order}, {k_max}, {g_max}")
    root = math.isqrt(4 * order)
    if root * root < 4 * order:
        root += 1
    dim = (2 * k_max - 1) * (g_max - 1) * order
    return max(order, root, dim)


def choose_prime(G: FiniteGroup, k_max: int = 1, g_max: int = 2) -> WorkingPrime:
    """Pick the smallest suitable prime and a primitive e-th root of unity.

    e is the group exponent; the prime must satisfy p = 1 mod e and
    p > 2 * session_bound. The root is found by a deterministic scan, so z
    depends on p alone.
    """
    e = G.exponent()
    B = session_bound(G.order, k_max, g_max)
    candidate = 2 * B + 1
    if e > 1:
        candidate += (1 - candidate) % e
        step = e
    else:
        step = 1
    while candidate <= PRIME_SEARCH_LIMIT:
        if candidate > 2 * B and _is_prime(candidate):
            z = _find_unity_root(candidate, e)
            return WorkingPrime(candidate, e, z, B)
        candidate += step
    raise PrimeSearchExceeded(
        f"no prime p = 1 mod {e} with p > {2 * B} below {PRIME_SEARCH_LIMIT}")


def _find_unity_root(p: int, e: int) -> int:
    """The first c**((p-1)/e) over c = 2, 3, ... that has order exactly e."""
    if e == 1:
        return 1
    quots = [e // q for q in _prime_factors(e)]
    cofactor = (p - 1) // e

    def try_base(c: int) -> int:
        z = pow(c, cofactor, p)
        if z == 1:
            return 0
        if any(pow(z, t, p) == 1 for t in quots):
            return 0
        return z

    for c in range(2, p):
        z = try_base(c)
        if z:
            return z
    raise ArithmeticError(f"no primitive {e}-th root mod {p}; p is not prime")


def recover_integer(r: int, wp: WorkingPrime) -> int:
    """Lift r in GF(p) to its least absolute residue.

    Exact whenever the true integer has magnitude at most wp.bound.
    """
    v = r % wp.p
    if 2 * v > wp.p:
        v -= wp.p
    return v

