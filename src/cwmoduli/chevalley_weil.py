"""Multiplicities of irreducible characters in pluricanonical representations.

For a group acting on a genus-g curve with Hurwitz vector v, the space of
k-canonical forms is a representation whose irreducible multiplicities are
closed expressions in the quotient genus, the branch data, and the eigenvalue
counts of the characters. The two levels stay separate: k = 1 carries the
extra +1 on the trivial character, k >= 2 is uniform.

The formulas depend only on k, the quotient genus and the multiset of
conjugacy classes of the branch entries, so that triple is the unit of work
and of caching. The eigenvalue counts are exact integers read from the
character table; after multiplying by |G| (every branch order divides |G|)
each formula is integer arithmetic, and the final division by |G| is asserted
to be exact. Range and dimension identities are asserted, never assumed.

Two helpers carry the work. _class_key validates a vector in full and
returns its sorted branch class key; its generation test is one lookup in
the group's memo from entry set to whether it generates G, so the subgroup
closure runs once per entry set per group. _multiplicities reads or fills
the table's level dict of one (quotient genus, class key). decompose
calls both directly: it validates each item once per run and keeps no memo
entry per vector. cw_character and periodicity_delta add a per-vector memo
on top, (genus, class key, level dict), so a repeated query is one lookup of
the vector and one of the level.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .characters import CharacterTable, eigenvalue_counts
from .errors import InternalConsistencyError
from .groups import _as_int
from .hurwitz import HurwitzVector, genus, validate

__all__ = [
    "MultiplicityVector",
    "cw_character",
    "regular_multiple",
    "periodicity_delta",
]


@dataclass(frozen=True)
class MultiplicityVector:
    """Multiplicities of each irreducible character at pluricanonical level k.

    regular is n when mults = n * (degrees of the regular character), else
    None; it is computed once, when the level is evaluated.
    """

    k: int
    mults: Tuple[int, ...]
    regular: Optional[int]


# (genus, sorted branch class ids, level -> MultiplicityVector)
_Entry = Tuple[int, Tuple[int, ...], Dict[int, MultiplicityVector]]


def _class_key(v: HurwitzVector, T: CharacterTable) -> Tuple[int, ...]:
    """Validate v in full against T's group; return its sorted branch class ids."""
    validate(v, T.group)
    class_of = T.classes.class_list()
    return tuple(sorted([class_of[c] for c in v.branches]))


def _multiplicities(T: CharacterTable, k: int, g_quot: int, g: int,
                    class_key: Tuple[int, ...]) -> MultiplicityVector:
    """The level-k multiplicities of (g_quot, class_key), evaluated once per table.

    g is the genus of the key; the first evaluation of a key checks it. A miss
    checks that k is an integer, so only Python ints are evaluated and stored.
    """
    levels = T._levels.setdefault((g_quot, class_key), {})
    hit = levels.get(k)
    if hit is None:
        k = _as_int(k)
        if g < 2:
            raise ValueError(f"genus {g} is below 2; the formulas need g >= 2")
        hit = levels[k] = _evaluate(T, k, g_quot, g, class_key)
    return hit


def _genus_and_classes(v: HurwitzVector, T: CharacterTable) -> _Entry:
    """v's per-vector memo entry for repeated queries: validated once per table.

    An invalid vector raises on every call and is not memoized. The level
    dict is shared by every vector with the same quotient genus and branch
    class multiset.
    """
    hit = T._validated.get(v)
    if hit is None:
        class_key = _class_key(v, T)
        levels = T._levels.setdefault((v.g_quot, class_key), {})
        hit = T._validated[v] = (genus(v, T.group), class_key, levels)
    return hit


def _evaluate(T: CharacterTable, k: int, g_quot: int, g: int,
              class_key: Tuple[int, ...]) -> MultiplicityVector:
    """All multiplicities at level k, in integers, from the eigenvalue counts.

    With N = counts at the class of c_i (order m_i), |G| times the multiplicity
    of rho is
      k = 1:  |G| deg (g'-1) + sum_i (|G|/m_i) sum_a a N[rho, a]  (+|G| if trivial),
      k >= 2: 2k deg (g-1) - |G| deg (g'-1)
              - sum_i (|G|/m_i) sum_a N[rho, a] [-a-k]_{m_i}.
    """
    order = T.group.order
    if k == 1:
        scaled = [order * d * (g_quot - 1) for d in T.degrees]
        scaled[0] += order
    else:
        scaled = [2 * k * d * (g - 1) - order * d * (g_quot - 1) for d in T.degrees]
    for cls, times in Counter(class_key).items():
        N = eigenvalue_counts(T, cls)
        m = N.shape[1]
        a = np.arange(m)
        weights = a if k == 1 else (-a - k % m) % m
        factor = order // m * times * (1 if k == 1 else -1)
        # |N @ weights| <= deg * m^2 <= 2^23: exact in int64
        scaled = [x + factor * y for x, y in zip(scaled, (N @ weights).tolist())]
    dim = g if k == 1 else (2 * k - 1) * (g - 1)
    mults = []
    for x in scaled:
        q, r = divmod(x, order)
        if r:
            raise InternalConsistencyError(
                f"level-{k} multiplicity {x}/{order} is not an integer")
        if not 0 <= q <= dim:
            raise InternalConsistencyError(
                f"level-{k} multiplicity {q} falls outside [0, {dim}]")
        mults.append(q)
    total = sum(m * d for m, d in zip(mults, T.degrees))
    if total != dim:
        raise InternalConsistencyError(
            f"multiplicities contract to dimension {total}, expected {dim}")
    # the trivial character has degree 1, so the first entry forces n
    n = mults[0]
    regular = n if all(m == n * d for m, d in zip(mults, T.degrees)) else None
    return MultiplicityVector(k, tuple(mults), regular)


def cw_character(v: HurwitzVector, T: CharacterTable, k: int) -> MultiplicityVector:
    """All irreducible multiplicities of the level-k representation of v.

    v is validated on its first query against T; later queries find its memo
    entry, whose level dict is shared by every vector with the same
    (quotient genus, branch class multiset), and return the same frozen
    object. The dimension identity sum mult * degree = g (k = 1) or
    (2k-1)(g-1) (k >= 2) is asserted when a level is first evaluated.
    """
    try:
        return T._validated[v][2][k]
    except KeyError:
        pass
    if k < 1:
        raise ValueError(f"pluricanonical level must be >= 1, got {k}")
    g, class_key, _ = _genus_and_classes(v, T)
    return _multiplicities(T, k, v.g_quot, g, class_key)


def regular_multiple(mv: MultiplicityVector, T: CharacterTable) -> Optional[int]:
    """n such that mults = n * (degrees of the regular character), if any.

    Read from mv.regular, computed against T's degrees when mv was
    evaluated; None when the entries do not scale like the degrees.
    """
    return mv.regular


def periodicity_delta(v: HurwitzVector, T: CharacterTable, k: int) -> Tuple[int, ...]:
    """Per-character difference cw(k + |G|) - cw(k), asserted against its closed form.

    The difference must equal 2 deg(rho)(g - 1), minus 1 on the trivial
    character when k = 1; any deviation falsifies the implementation and
    raises loudly.
    """
    k = _as_int(k)
    if k < 1:
        raise ValueError(f"pluricanonical level must be >= 1, got {k}")
    low = cw_character(v, T, k)
    high = cw_character(v, T, k + T.group.order)
    g = _genus_and_classes(v, T)[0]
    delta = tuple(b - a for a, b in zip(low.mults, high.mults))
    for rho, d in enumerate(delta):
        expect = 2 * T.degrees[rho] * (g - 1) - (1 if k == 1 and rho == 0 else 0)
        if d != expect:
            raise InternalConsistencyError(
                f"periodicity failed at rho={rho}, k={k}: delta {d}, expected {expect}")
    return delta
