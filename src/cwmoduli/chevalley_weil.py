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

Per vector, _genus_and_key validates in full and returns the genus and the
sorted branch class key; its generation test is one lookup in the group's
memo from entry set to whether it generates G, so the subgroup closure runs
once per entry set per group. Per item list, _class_keys does the same in
arrays on the items' integer rows (a hurwitz._VectorRows view: the search's
own rows for the decompose command, the caller's vectors read into rows
once for the library): each row is checked once, by validate's checks as
column gathers and one generation lookup per distinct sorted entry row, and
validate itself runs only on the first failing item, for its error.
_level_blocks evaluates one (quotient genus, class key) over a sequence of
levels, one checked integer matrix per _LEVEL_BLOCK levels, with the sums of
each class built once; _evaluate joins the blocks. decompose,
periodicity_delta and the cw command evaluate so and file nothing on the
table. Only cw_character keeps a per-vector memo, (genus, class key, level
dict): a repeated query is two lookups, and a missing level is evaluated
alone and filed in its key's dict.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .characters import CharacterTable, eigenvalue_counts
from .errors import InternalConsistencyError
from .groups import _as_int, _row_groups
from .hurwitz import HurwitzVector, _VectorRows, _invalid_rows, genus, validate

__all__ = [
    "MultiplicityVector",
    "cw_character",
    "regular_multiple",
    "periodicity_delta",
]


@dataclass(frozen=True, slots=True)
class MultiplicityVector:
    """Multiplicities of each irreducible character at pluricanonical level k.

    regular is n when mults = n * (degrees of the regular character), else
    None; it is computed once, when the level is evaluated. Slotted:
    cw_character, their only maker, files one per (class key, level) asked.
    """

    k: int
    mults: Tuple[int, ...]
    regular: Optional[int]


# (quotient genus, sorted branch class ids): what the multiplicities depend on
_Key = Tuple[int, Tuple[int, ...]]


def _level(k) -> int:
    """k as a checked pluricanonical level: an int (not a bool), at least 1."""
    k = _as_int(k)
    if k < 1:
        raise ValueError(f"pluricanonical level must be >= 1, got {k}")
    return k


def _genus_and_key(v: HurwitzVector, T: CharacterTable) -> Tuple[int, Tuple[int, ...]]:
    """Validate v in full against T's group; return its genus and sorted branch class ids."""
    validate(v, T.group)
    class_of = T.classes.class_list()
    return genus(v, T.group), tuple(sorted([class_of[c] for c in v.branches]))


# rows per array step of bulk validation: bounds its temporaries, whatever
# the number of items
_CHUNK = 1 << 14


def _class_keys(items: _VectorRows, T: CharacterTable) -> Tuple[List[_Key], np.ndarray]:
    """Validate every item's row in bulk; return the distinct keys and each item's key id.

    A key is (quotient genus, sorted branch class ids). Rows are taken by
    shape (g', handle count, width), up to _CHUNK at a time; each step is
    checked by hurwitz._invalid_rows and keyed by one class_of gather and a
    row sort. If any row fails, validate runs on the failing item of lowest
    index, so the error is the one a per-item pass raises first.
    """
    G = T.group
    by_shape: Dict[Tuple[int, int, int], List[Tuple[int, np.ndarray]]] = {}
    n = 0
    for g_quot, n_handles, rows in items.blocks:
        by_shape.setdefault((g_quot, n_handles, rows.shape[1]), []).append((n, rows))
        n += len(rows)
    key_ids: Dict[_Key, int] = {}
    key_of = np.empty(n, dtype=np.int64)
    worst = n  # the lowest index of an invalid row so far
    for (g_quot, n_handles, _), parts in by_shape.items():
        rows = parts[0][1] if len(parts) == 1 else np.concatenate([r for _, r in parts])
        first = np.concatenate([np.arange(at, at + len(r)) for at, r in parts])
        for start in range(0, len(rows), _CHUNK):
            chunk, idx = rows[start:start + _CHUNK], first[start:start + _CHUNK]
            bad = np.flatnonzero(_invalid_rows(G, g_quot, chunk, n_handles))
            if bad.size:
                worst = min(worst, int(idx[bad[0]]))
            if worst < n:  # no key is needed once a row has failed
                continue
            classes = T.classes.class_of[chunk[:, n_handles:]]
            classes.sort(axis=1)
            one, group = _row_groups(classes, T.class_count)
            ids = [key_ids.setdefault((g_quot, tuple(row)), len(key_ids))
                   for row in classes[one].tolist()]
            key_of[idx] = np.array(ids, dtype=np.int64)[group]
    if worst < n:
        validate(items[worst], G)
        raise InternalConsistencyError(
            f"bulk validation rejected item {worst}, which validate accepts")
    return list(key_ids), key_of


def _class_columns(T: CharacterTable, cls: int) -> np.ndarray:
    """|G|/m times the count sums of one class: columns 0..m-1 for k >= 2, m for k = 1.

    Column j is -(N @ W_j) with W_j[a] = (j - a) mod m, the weights of every
    level k = -j mod m; column m is N @ a. A step from j to j + 1 raises
    every weight by 1 except the one of a = j + 1, which drops by m - 1, so
    the columns are a running sum over the counts, with no matrix product.
    """
    N = eigenvalue_counts(T, cls)  # a compact dtype: every step below computes in int64
    m = N.shape[1]
    deg = N.sum(axis=1, dtype=np.int64)
    out = np.empty((N.shape[0], m + 1), dtype=np.int64)
    out[:, m] = N @ np.arange(m)
    # the steps deg - m N[:, j], after the first column sum_a N[:, a] ((-a) mod m)
    np.multiply(N[:, 1:], -m, out=out[:, 1:m], dtype=np.int64)
    out[:, 1:m] += deg[:, None]
    out[:, 0] = m * (deg - N[:, 0]) - out[:, m]
    np.cumsum(out[:, :m], axis=1, out=out[:, :m])
    out[:, :m] *= -(T.group.order // m)
    out[:, m] *= T.group.order // m
    return out


# levels per array step of _evaluate: bounds its temporaries on long level ranges
_LEVEL_BLOCK = 32


def _level_blocks(T: CharacterTable, ks: Sequence[int], g_quot: int, g: int,
                  class_key: Tuple[int, ...]) -> Iterator[np.ndarray]:
    """The multiplicities at the levels ks: characters x levels, _LEVEL_BLOCK levels a block.

    With N = counts at the class of c_i (order m_i), |G| times the multiplicity
    of rho is
      k = 1:  |G| deg (g'-1) + sum_i (|G|/m_i) sum_a a N[rho, a]  (+|G| if trivial),
      k >= 2: 2k deg (g-1) - |G| deg (g'-1)
              - sum_i (|G|/m_i) sum_a N[rho, a] [-a-k]_{m_i},
    with the class sums read from _class_columns, once per class for all of
    ks. Each block is checked as a whole (see _evaluate_levels) before it is
    yielded. Entries are int64 when an a-priori bound on every scaled entry
    over all of ks fits, else Python ints in an object array.
    """
    if g < 2:
        raise ValueError(f"genus {g} is below 2; the formulas need g >= 2")
    # bounds |scaled| and sum deg * mult below: every class term is at most |G| deg
    bound = T.group.order * (2 * max(ks) * g
                             + max(T.degrees) * (g_quot + 1 + len(class_key)) + 1)
    dtype = np.int64 if bound < 2 ** 63 else object
    columns = [(times, _class_columns(T, cls)) for cls, times in Counter(class_key).items()]
    for start in range(0, len(ks), _LEVEL_BLOCK):
        yield _evaluate_levels(T, ks[start:start + _LEVEL_BLOCK], g_quot, g, columns, dtype)


def _evaluate(T: CharacterTable, ks: Sequence[int], g_quot: int, g: int,
              class_key: Tuple[int, ...]) -> np.ndarray:
    """All multiplicities at every level of ks: an integer matrix, characters x levels."""
    # filled block by block: a list of the blocks would be held beside it
    for block, start in zip(_level_blocks(T, ks, g_quot, g, class_key),
                            range(0, len(ks), _LEVEL_BLOCK)):
        if not start:
            mults = np.empty((block.shape[0], len(ks)), dtype=block.dtype)
        mults[:, start:start + block.shape[1]] = block
    return mults


def _evaluate_levels(T: CharacterTable, ks: Sequence[int], g_quot: int, g: int,
                     columns: List[Tuple[int, np.ndarray]], dtype) -> np.ndarray:
    """The multiplicities at the levels ks, from (times, _class_columns) per class of the key.

    Every check runs on the whole matrix: exact division by |G|, the range
    [0, dim], the trivial multiplicity against its closed form from
    Riemann-Roch on the quotient orbifold (g' at k = 1,
    (2k-1)(g'-1) + sum_i floor(k (m_i - 1) / m_i) at k >= 2), and the
    dimension identity.
    """
    order = T.group.order
    k = np.array(ks, dtype=dtype)
    degrees = np.array(T.degrees, dtype=dtype)
    first = k == 1
    scaled = degrees[:, None] * np.where(first, order * (g_quot - 1),
                                         2 * k * (g - 1) - order * (g_quot - 1))
    scaled[0, first] += order
    trivial = np.where(first, g_quot, (2 * k - 1) * (g_quot - 1))
    for times, col in columns:
        m = col.shape[1] - 1
        piece = col[:, np.where(first, m, -k % m).astype(np.intp)].astype(dtype, copy=False)
        piece *= times
        scaled += piece
        trivial = trivial + np.where(first, 0, times * (k * (m - 1) // m))
    dim = np.where(first, g, (2 * k - 1) * (g - 1))
    mults, rem = scaled // order, scaled % order
    # each check reports its first failure in level order, then character order
    bad = (rem != 0) | (mults < 0) | (mults > dim)
    if bad.any():
        c, rho = divmod(int(np.argmax(bad.T)), len(degrees))
        if rem[rho, c]:
            raise InternalConsistencyError(
                f"level-{ks[c]} multiplicity {scaled[rho, c]}/{order} is not an integer")
        raise InternalConsistencyError(
            f"level-{ks[c]} multiplicity {mults[rho, c]} falls outside [0, {dim[c]}]")
    bad = mults[0] != trivial
    if bad.any():
        c = int(np.argmax(bad))
        raise InternalConsistencyError(
            f"level-{ks[c]} trivial multiplicity {mults[0, c]}, expected {trivial[c]}")
    total = degrees @ mults
    bad = total != dim
    if bad.any():
        c = int(np.argmax(bad))
        raise InternalConsistencyError(
            f"multiplicities contract to dimension {total[c]}, expected {dim[c]}")
    return mults


def cw_character(v: HurwitzVector, T: CharacterTable, k: int) -> MultiplicityVector:
    """All irreducible multiplicities of the level-k representation of v.

    The one user of T's per-vector memo: v is validated on its first query,
    and its entry's level dict is shared by every vector with the same
    (quotient genus, branch class multiset). A level is evaluated alone when
    first asked for, with every check of _evaluate, and filed there, so
    later queries return the same frozen object.
    """
    if type(k) is int:  # an equal bool or float must not read the cache
        try:
            return T._validated[v][2][k]
        except KeyError:
            pass
    k = _level(k)
    entry = T._validated.get(v)
    if entry is None:  # an invalid vector raises here on every call, and is not filed
        g, class_key = _genus_and_key(v, T)
        levels = T._levels.setdefault((v.g_quot, class_key), {})
        entry = T._validated[v] = (g, class_key, levels)
    g, class_key, levels = entry
    hit = levels.get(k)
    if hit is None:
        mults = _evaluate(T, (k,), v.g_quot, g, class_key)[:, 0].tolist()
        # the trivial character has degree 1, so the first entry forces n
        regular = all(x == mults[0] * d for x, d in zip(mults, T.degrees))
        hit = levels[k] = MultiplicityVector(k, tuple(mults), mults[0] if regular else None)
    return hit


def regular_multiple(mv: MultiplicityVector, T: CharacterTable) -> Optional[int]:
    """n such that mults = n * (degrees of the regular character), if any.

    Read from mv.regular, computed against T's degrees when mv was
    evaluated; None when the entries do not scale like the degrees. The
    public wrapper stays because the benchmark's free_law workload calls it
    by name (bench/child.py) and its traced run counts its calls by wrapping
    it (bench/tracing.py).
    """
    return mv.regular


def _period_shift(T: CharacterTable, g: int, k: int) -> List[int]:
    """cw(k + |G|) - cw(k) at genus g in closed form, per character: 2 deg(rho)(g - 1),
    less 1 on the trivial character at k = 1."""
    return [2 * d * (g - 1) - (k == 1 and rho == 0) for rho, d in enumerate(T.degrees)]


def periodicity_delta(v: HurwitzVector, T: CharacterTable, k: int) -> Tuple[int, ...]:
    """Per-character difference cw(k + |G|) - cw(k), asserted against _period_shift.

    Both levels are two columns of one evaluation; nothing is filed on T.
    """
    k = _level(k)
    g, class_key = _genus_and_key(v, T)
    low, high = _evaluate(T, (k, k + T.group.order), v.g_quot, g, class_key).T.tolist()
    delta = tuple(b - a for a, b in zip(low, high))
    for rho, (d, expect) in enumerate(zip(delta, _period_shift(T, g, k))):
        if d != expect:
            raise InternalConsistencyError(
                f"periodicity failed at rho={rho}, k={k}: delta {d}, expected {expect}")
    return delta
