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

Per vector, _class_key validates in full and returns the sorted branch class
key, and _key_genus reads the genus off the key; the generation test folds
the entries through the group's subgroup lattice, which closes each
(subgroup, entry) pair once per group. Per item list, _class_keys does the
same in arrays on the items' integer rows (a hurwitz._VectorRows view: the
search's own rows for the decompose command, the caller's vectors read into
rows once for the library), walked in item order a step of rows at a time:
hurwitz._rows_valid answers whether validate accepts every row of a step
(its checks as column gathers, generation a column fold through the same
lattice), and validate itself runs only on the items of the first step it
rejects, for the first error.
_evaluate_keys is the one evaluation of the formulas: every (quotient genus,
class key) of an item list at once, or one key (cw_character,
periodicity_delta, each step of the cw command, which builds the class
columns once for all its steps), adding each class's columns into the keys
that hold the class, _ENTRIES entries (keys x levels x characters) an array
step; _extend continues its types past two periods by the closed-form shift.
Both check their values with _checked. Nothing is filed on the table except
by cw_character, whose per-vector memo entry (genus, class key, level dict)
is shared by every vector of one key: a repeated query is two lookups, and a
missing level is evaluated alone and filed in its key's dict.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .characters import CharacterTable, eigenvalue_counts
from .errors import InternalConsistencyError
from .groups import _ENTRIES, _as_int, _row_groups
from .hurwitz import (BranchingData, HurwitzVector, _rows_valid, _row_vectors, _VectorRows,
                      genus, validate)

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


def _class_key(v: HurwitzVector, T: CharacterTable) -> Tuple[int, ...]:
    """Validate v in full against T's group; return its sorted branch class ids."""
    validate(v, T.group)
    return tuple(sorted(map(T.classes.class_list().__getitem__, v[2])))


def _key_genus(T: CharacterTable, key: _Key) -> int:
    """The genus of every vector with this key: it reads only the branch orders."""
    G = T.group
    reps = T.classes.representatives
    return genus(BranchingData(key[0], [G.elem_order(reps[c]) for c in key[1]]), G)


# rows per array step of bulk validation: bounds its temporaries, whatever
# the number of items
_CHUNK = 1 << 14


def _class_keys(items: _VectorRows, T: CharacterTable) -> Tuple[List[_Key], np.ndarray]:
    """Validate every item's row in bulk; return the distinct keys and each item's key id.

    A key is (quotient genus, sorted branch class ids). The blocks of rows
    are walked in item order, up to _CHUNK rows at a time; each step is
    checked by hurwitz._rows_valid and keyed by one class_of gather and a
    row sort. The first step that fails holds the first invalid item, so
    validate runs on its items in order and raises the error a per-item
    pass raises first.
    """
    G = T.group
    key_ids: Dict[_Key, int] = {}
    key_of = np.empty(len(items), dtype=np.int64)
    at = 0
    for g_quot, n_handles, rows in items.blocks:
        for start in range(0, len(rows), _CHUNK):
            chunk = rows[start:start + _CHUNK]
            if not _rows_valid(G, g_quot, chunk, n_handles):
                for v in _row_vectors(g_quot, n_handles, chunk):
                    validate(v, G)
                raise InternalConsistencyError(
                    f"bulk validation rejected items {at}..{at + len(chunk) - 1}, "
                    "which validate accepts")
            classes = T.classes.class_of[chunk[:, n_handles:]]
            classes.sort(axis=1)
            one, group = _row_groups(classes)
            ids = [key_ids.setdefault((g_quot, tuple(row)), len(key_ids))
                   for row in classes[one].tolist()]
            key_of[at:at + len(chunk)] = np.array(ids, dtype=np.int64)[group]
            at += len(chunk)
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


def _checked(scaled: np.ndarray, ks: Sequence[int], dim: np.ndarray, trivial: np.ndarray,
             degrees: np.ndarray, order: int = 1) -> np.ndarray:
    """scaled / order after every check: keys x levels x characters, at the levels ks.

    The division by |G| = order must be exact; then come the range [0, dim]
    (dim per level), the trivial multiplicity against trivial (keys x
    levels), its closed form from Riemann-Roch on the quotient orbifold (g'
    at k = 1, (2k-1)(g'-1) + sum_i floor(k (m_i - 1) / m_i) at k >= 2), and
    the dimension identity. Each check reports its first failure in key,
    level, then character order. order = 1 checks values already divided.
    """
    mults, rem = (scaled, None) if order == 1 else (scaled // order, scaled % order)
    bad = (mults < 0) | (mults > dim[:, None])
    if rem is not None:
        bad |= rem != 0
    if bad.any():
        i, c, rho = np.unravel_index(int(np.argmax(bad)), bad.shape)
        if rem is not None and rem[i, c, rho]:
            raise InternalConsistencyError(
                f"level-{ks[c]} multiplicity {scaled[i, c, rho]}/{order} is not an integer")
        raise InternalConsistencyError(
            f"level-{ks[c]} multiplicity {mults[i, c, rho]} falls outside [0, {dim[c]}]")
    bad = mults[:, :, 0] != trivial
    if bad.any():
        i, c = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise InternalConsistencyError(
            f"level-{ks[c]} trivial multiplicity {mults[i, c, 0]}, expected {trivial[i, c]}")
    total = mults @ degrees
    bad = total != dim
    if bad.any():
        i, c = np.unravel_index(int(np.argmax(bad)), bad.shape)
        raise InternalConsistencyError(
            f"multiplicities contract to dimension {total[i, c]}, expected {dim[c]}")
    return mults


def _key_terms(T: CharacterTable, keys: Sequence[_Key]):
    """What the formulas read of the keys, as arrays.

    Returns each key's quotient genus; the distinct branch orders and each
    key's count of branch points of each (keys x orders), for the trivial
    closed form; and, per class held by any key, (class, the keys that hold
    it, how often each does). Each tally is an np.bincount, empty without keys.
    """
    n = len(keys)
    sizes = [len(ck) for _, ck in keys]
    flat = np.fromiter(chain.from_iterable(ck for _, ck in keys), dtype=np.int64,
                       count=sum(sizes))
    owner = np.arange(n).repeat(sizes)
    order_of = np.array([T.group.elem_order(x) for x in T.classes.representatives])[flat]
    orders = np.bincount(order_of).nonzero()[0]
    cell = owner * len(orders) + orders.searchsorted(order_of)  # (key, order) per point
    counts = np.bincount(cell, minlength=n * len(orders)).reshape(n, len(orders))
    # (class, key) pairs sorted by class, so each class's keys are one run
    pairs = np.sort(flat * n + owner)
    new = np.ones(len(pairs), dtype=bool)
    np.not_equal(pairs[1:], pairs[:-1], out=new[1:])
    times = np.bincount(new.cumsum() - 1)
    cls, rows = np.divmod(pairs[new], max(n, 1))
    size = np.bincount(cls)  # keys per class: class c's run ends at the size sum to c
    held = [(c, rows[b - m:b], times[b - m:b])
            for c, (m, b) in enumerate(zip(size.tolist(), size.cumsum().tolist())) if m]
    return np.array([q for q, _ in keys], dtype=np.int64), orders, counts, held


def _trivial(k: np.ndarray, g_quot: np.ndarray, orders: np.ndarray,
             counts: np.ndarray) -> np.ndarray:
    """Each key's trivial multiplicity in closed form at the levels k: keys x levels."""
    floors = k * (orders[:, None] - 1) // orders[:, None]
    g_quot = g_quot.astype(k.dtype)[:, None]
    return np.where(k == 1, g_quot, (2 * k - 1) * (g_quot - 1) + counts @ floors)


def _evaluate_keys(T: CharacterTable, keys: Sequence[_Key], g: int, ks: Sequence[int],
                   columns: Optional[Dict[int, np.ndarray]] = None) -> np.ndarray:
    """Every key's multiplicities at every level of ks: keys x levels x characters.

    With N = counts at the class of c_i (order m_i), |G| times the multiplicity
    of rho is
      k = 1:  |G| deg (g'-1) + sum_i (|G|/m_i) sum_a a N[rho, a]  (+|G| if trivial),
      k >= 2: 2k deg (g-1) - |G| deg (g'-1)
              - sum_i (|G|/m_i) sum_a N[rho, a] [-a-k]_{m_i},
    with the class sums read from _class_columns (passed as columns when the
    caller built them, else built once per call), each read at every level
    once and added, times its multiplicity, into the keys that hold it; the
    sums stay in the smallest signed dtype that holds an a-priori bound on
    every scaled entry over all of ks (Python ints in an object array past int64).
    Every check of _checked runs on each step of keys. The result is in the
    smallest signed dtype that holds the dimension at the largest level.
    """
    if g < 2:
        raise ValueError(f"genus {g} is below 2; the formulas need g >= 2")
    order, n, chars = T.group.order, len(keys), T.class_count
    g_quot, orders, counts, held = _key_terms(T, keys)
    # bounds |scaled| and sum deg * mult below: every class term is at most |G| deg
    bound = order * (2 * max(ks) * g + max(T.degrees) * (
        int(g_quot.max(initial=0)) + 1 + int(counts.sum(axis=1).max(initial=0))) + 1)
    wide = np.int64 if bound < 2 ** 63 else object
    k = np.array(ks, dtype=wide)
    first = k == 1
    degrees = np.array(T.degrees, dtype=wide)
    # every key starts from deg times its affine term in k and g'
    term = (np.where(first, 1, -1) * order * (g_quot.astype(wide)[:, None] - 1)
            + np.where(first, 0, 2 * k * (g - 1)))
    scaled = np.multiply(term[:, :, None], degrees,
                         out=np.empty((n, len(ks), chars), dtype=np.min_scalar_type(-bound)))
    scaled[:, first, 0] += order
    step = max(1, _ENTRIES // (len(ks) * chars))
    for cls, rows, times in held:
        col = _class_columns(T, cls) if columns is None else columns[cls]
        m = col.shape[1] - 1
        piece = col[:, np.where(first, m, -k % m).astype(np.intp)].T
        for a in range(0, len(rows), step):
            scaled[rows[a:a + step]] += times[a:a + step, None, None] * piece
    dim = np.where(first, g, (2 * k - 1) * (g - 1))
    trivial = _trivial(k, g_quot, orders, counts)
    dtype = np.min_scalar_type(-dim.max() - 1)
    # each step is checked before it is written, so the sums may take their place
    values = scaled if scaled.dtype == dtype else np.empty(scaled.shape, dtype=dtype)
    for a in range(0, n, step):
        values[a:a + step] = _checked(scaled[a:a + step], ks, dim, trivial[a:a + step],
                                      degrees, order)
    return values


def _extend(T: CharacterTable, keys: Sequence[_Key], g: int, head: np.ndarray,
            k_max: int) -> np.ndarray:
    """head, keys x levels 1..2e x characters (e = exp(G)), continued to levels 1..k_max.

    Past level 2e, each level is the one e below plus _period_shift(T, g, 2,
    e), the same on every key; stabilization_report asserts that shift on
    the evaluated second period. Each filled step passes every check of
    _checked but the division, against each key's own closed forms.
    """
    e = T.group.exponent()
    n, _, chars = head.shape
    out = np.empty((n, k_max, chars), dtype=np.min_scalar_type(-(2 * k_max - 1) * (g - 1) - 1))
    out[:, :2 * e] = head
    wide = object if out.dtype == object else np.int64
    g_quot, orders, counts, _ = _key_terms(T, keys)
    shift = np.array(_period_shift(T, g, 2, e), dtype=wide)
    degrees = np.array(T.degrees, dtype=wide)
    step = max(1, _ENTRIES // max(n * chars, 1))
    for a in range(2 * e, k_max, step):
        j = np.arange(a, min(a + step, k_max)).astype(wide) - e  # the level e below, 0-based
        filled = out[:, e + (j % e).astype(np.intp)] + (j // e)[:, None] * shift
        k = j + e + 1
        out[:, a:a + len(j)] = _checked(filled, range(a + 1, a + len(j) + 1),
                                        (2 * k - 1) * (g - 1),
                                        _trivial(k, g_quot, orders, counts), degrees)
    return out


def cw_character(v: HurwitzVector, T: CharacterTable, k: int) -> MultiplicityVector:
    """All irreducible multiplicities of the level-k representation of v.

    The one user of T's per-vector memo: v is validated on its first query,
    and its entry, (genus, class key, level dict), is the one entry of its
    (quotient genus, branch class multiset), made with its genus on that
    key's first query. A level is evaluated alone when first asked for,
    by _evaluate_keys with every check of _checked, and filed there, so
    later queries return the same frozen object.
    """
    if type(k) is int:  # an equal bool or float must not read the cache
        try:
            return T._validated[v][2][k]
        except KeyError:
            pass
    k = k if type(k) is int and k > 0 else _level(k)
    entry = T._validated.get(v)
    if entry is None:  # an invalid vector raises here on every call, and is not filed
        key = (v[0], _class_key(v, T))
        entry = T._levels.get(key)
        if entry is None:
            entry = T._levels[key] = (_key_genus(T, key), key[1], {})
        T._validated[v] = entry
    g, class_key, levels = entry
    hit = levels.get(k)
    if hit is None:
        mults = _evaluate_keys(T, [(v.g_quot, class_key)], g, (k,))[0, 0].tolist()
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


def _period_shift(T: CharacterTable, g: int, k: int, period: int) -> List[int]:
    """cw(k + period) - cw(k) at genus g in closed form, per character, for a period
    that exp(G) divides: deg(rho) period (2g - 2) / |G|, less 1 on the trivial
    character at k = 1.

    The class sums depend on k only mod the branch orders, which divide
    exp(G). The quotient is an integer by Riemann-Hurwitz: period (2g - 2) /
    |G| = period (2g' - 2) + sum_i period (1 - 1/m_i).
    """
    step = period * (2 * g - 2) // T.group.order
    return [d * step - (k == 1 and rho == 0) for rho, d in enumerate(T.degrees)]


def periodicity_delta(v: HurwitzVector, T: CharacterTable, k: int) -> Tuple[int, ...]:
    """Per-character difference cw(k + |G|) - cw(k), asserted against _period_shift.

    Both levels come from one evaluation; nothing is filed on T.
    """
    k = _level(k)
    key = (v.g_quot, _class_key(v, T))
    g = _key_genus(T, key)
    low, high = _evaluate_keys(T, [key], g, (k, k + T.group.order))[0].tolist()
    delta = tuple(b - a for a, b in zip(low, high))
    for rho, (d, expect) in enumerate(zip(delta, _period_shift(T, g, k, T.group.order))):
        if d != expect:
            raise InternalConsistencyError(
                f"periodicity failed at rho={rho}, k={k}: delta {d}, expected {expect}")
    return delta
