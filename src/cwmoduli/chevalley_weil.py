"""Multiplicities of irreducible characters in pluricanonical representations.

For a group acting on a genus-g curve with Hurwitz vector v, the space of
k-canonical forms is a representation whose irreducible multiplicities are
closed expressions in the quotient genus, the branch data, and the eigenvalue
counts of the characters. The two levels stay separate: k = 1 carries the
extra +1 on the trivial character, k >= 2 is uniform.

Everything is evaluated in the working prime field and recovered once per
multiplicity; range and dimension identities are asserted, never assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from .characters import (CharacterTable, character_fingerprint, character_table,
                         eigenvalue_multiplicities)
from .errors import InternalConsistencyError
from .groups import FiniteGroup
from .hurwitz import HurwitzVector, genus, validate
from .modular import recover_integer, session_bound

__all__ = [
    "MultiplicityVector",
    "cw_character",
    "cw_multiplicity_k1",
    "cw_multiplicity_k",
    "regular_multiple",
    "periodicity_delta",
]


@dataclass(frozen=True)
class MultiplicityVector:
    """Multiplicities of each irreducible character at pluricanonical level k."""

    k: int
    mults: Tuple[int, ...]


def _genus_of(v: HurwitzVector, T: CharacterTable) -> int:
    """Validate v once per table and memoize its genus."""
    key = (v.g_quot, v.handles, v.branches)
    g = T._validated.get(key)
    if g is None:
        validate(v, T.group)
        g = genus(v, T.group)
        T._validated[key] = g
    return g


def _match_characters(T: CharacterTable, W: CharacterTable) -> Tuple[int, ...]:
    """Map T's character indices to W's via prime-independent fingerprints."""
    by_fp = {character_fingerprint(W, j): j for j in range(W.class_count)}
    perm = []
    for i in range(T.class_count):
        j = by_fp.get(character_fingerprint(T, i))
        if j is None:
            raise InternalConsistencyError(
                "widened table is missing a character of the original table")
        perm.append(j)
    if perm[0] != 0:
        raise InternalConsistencyError("trivial character moved during widening")
    return tuple(perm)


def _table_for(T: CharacterTable, k: int, g: int):
    """A table whose prime bound covers a level-k genus-g query.

    Returns (table, index map). The session table is reused when its bound
    suffices; otherwise a wider table is built once, matched to T's character
    order by fingerprints, and cached on T.
    """
    need = session_bound(T.group.order, k, max(g, 2))
    if need <= T.prime.bound:
        return T, None
    for W, perm in T._widened.values():
        if need <= W.prime.bound:
            return W, perm
    wk = max(2 * k, 2 * T.group.order)
    wg = max(g, T.session_g_max, 2)
    W = character_table(T.group, k_max=wk, g_max=wg)
    perm = _match_characters(T, W)
    T._widened[(wk, wg)] = (W, perm)
    return W, perm


def _evaluate_k1(v: HurwitzVector, W: CharacterTable, rho_w: int, g: int,
                 trivial: bool) -> int:
    """deg(rho)(g'-1) + sum_i sum_{a=1..m_i-1} a N_{i,a} / m_i (+1 if trivial)."""
    wp = W.prime
    p = wp.p
    chi = W.irreducibles[rho_w]
    total = chi.degree * ((v.g_quot - 1) % p) % p
    for c in v.branches:
        em = eigenvalue_multiplicities(W, rho_w, c)
        acc = 0
        for alpha in range(1, em.m):
            acc += alpha * em.counts[alpha]
        total = (total + acc * wp.inv(em.m)) % p
    if trivial:
        total = (total + 1) % p
    val = recover_integer(total, wp)
    if not 0 <= val <= g:
        raise InternalConsistencyError(
            f"level-1 multiplicity {val} falls outside [0, {g}]")
    return val


def _evaluate_k(v: HurwitzVector, W: CharacterTable, rho_w: int, g: int,
                k: int) -> int:
    """(2k/|G|) deg (g-1) - deg (g'-1) - sum_i sum_a N_{i,a} [-a-k]_{m_i} / m_i."""
    wp = W.prime
    p = wp.p
    chi = W.irreducibles[rho_w]
    order = W.group.order
    total = 2 * k % p * wp.inv(order) % p * chi.degree % p * ((g - 1) % p) % p
    total = (total - chi.degree * ((v.g_quot - 1) % p)) % p
    for c in v.branches:
        em = eigenvalue_multiplicities(W, rho_w, c)
        acc = 0
        for alpha in range(em.m):
            acc += em.counts[alpha] * ((-alpha - k) % em.m)
        total = (total - acc * wp.inv(em.m)) % p
    val = recover_integer(total, wp)
    bound = (2 * k - 1) * (g - 1)
    if not 0 <= val <= bound:
        raise InternalConsistencyError(
            f"level-{k} multiplicity {val} falls outside [0, {bound}]")
    return val


def cw_character(v: HurwitzVector, T: CharacterTable, k: int) -> MultiplicityVector:
    """All irreducible multiplicities of the level-k representation of v.

    The result depends only on (k, quotient genus, branch entries), so repeat
    queries are served from a cache on the table. The dimension identity
    sum mult * degree = g (k = 1) or (2k-1)(g-1) (k >= 2) is asserted.
    """
    if k < 1:
        raise ValueError(f"pluricanonical level must be >= 1, got {k}")
    g = _genus_of(v, T)
    if g < 2:
        raise ValueError(f"genus {g} is below 2; the formulas need g >= 2")
    key = (k, v.g_quot, v.branches)
    hit = T._cw_cache.get(key)
    if hit is not None:
        return MultiplicityVector(k, hit)
    W, perm = _table_for(T, k, g)
    mults: List[int] = []
    for rho in range(T.class_count):
        rho_w = rho if perm is None else perm[rho]
        if k == 1:
            mults.append(_evaluate_k1(v, W, rho_w, g, trivial=rho == 0))
        else:
            mults.append(_evaluate_k(v, W, rho_w, g, k))
    dim = g if k == 1 else (2 * k - 1) * (g - 1)
    total = sum(m * d for m, d in zip(mults, T.degrees))
    if total != dim:
        raise InternalConsistencyError(
            f"multiplicities contract to dimension {total}, expected {dim}")
    out = tuple(mults)
    T._cw_cache[key] = out
    return MultiplicityVector(k, out)


def cw_multiplicity_k1(v: HurwitzVector, T: CharacterTable, rho: int) -> int:
    """Multiplicity of character rho in the canonical (k = 1) representation."""
    return cw_character(v, T, 1).mults[rho]


def cw_multiplicity_k(v: HurwitzVector, T: CharacterTable, rho: int, k: int) -> int:
    """Multiplicity of character rho at pluricanonical level k >= 2."""
    if k < 2:
        raise ValueError(f"this entry point needs k >= 2, got {k}")
    return cw_character(v, T, k).mults[rho]


def regular_multiple(mv: MultiplicityVector, T: CharacterTable) -> Optional[int]:
    """n such that mults = n * (degrees of the regular character), if any.

    The trivial character has degree 1, so n is forced by the first entry;
    None when the remaining entries do not scale accordingly.
    """
    n = mv.mults[0]
    if all(m == n * d for m, d in zip(mv.mults, T.degrees)):
        return n
    return None


def periodicity_delta(v: HurwitzVector, T: CharacterTable, k: int) -> Tuple[int, ...]:
    """Per-character difference cw(k + |G|) - cw(k), asserted against its closed form.

    The difference must equal 2 deg(rho)(g - 1), minus 1 on the trivial
    character when k = 1; any deviation falsifies the implementation and
    raises loudly.
    """
    if k < 1:
        raise ValueError(f"pluricanonical level must be >= 1, got {k}")
    low = cw_character(v, T, k)
    high = cw_character(v, T, k + T.group.order)
    g = _genus_of(v, T)
    delta = tuple(b - a for a, b in zip(low.mults, high.mults))
    for rho, d in enumerate(delta):
        expect = 2 * T.degrees[rho] * (g - 1) - (1 if k == 1 and rho == 0 else 0)
        if d != expect:
            raise InternalConsistencyError(
                f"periodicity failed at rho={rho}, k={k}: delta {d}, expected {expect}")
    return delta
