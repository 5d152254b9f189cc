"""Hurwitz vectors: validation, genus arithmetic, exhaustive enumeration.

A vector (a_1, b_1, ..., a_g', b_g'; c_1, ..., c_r) encodes a Galois cover of
a genus-g' curve branched at r points: branch entries have order > 1, the
surface relation prod [a_i, b_i] prod c_j = 1 holds, and the entries generate
the group. Enumeration is one serial depth-first search in element-id
order, so output is deterministic and lexicographic. The search is one
generator looping over an explicit stack, one frame per placed slot
(candidate iterator, relation product so far, conjugation rows, whether the
entries placed so far generate G), so each vector is yielded once instead of
passed up a chain of nested generators. A superset of a generating set
generates, so a frame inherits True from its parent; otherwise it looks its
prefix's entry set up when pushed, and a leaf tests its whole entry set only
when its prefix does not generate. The lookups go to the group's memo
(groups.generates), so the closure runs once per entry set per group. Its
cap counts the vectors of one branching datum as they are emitted, so the
list of one datum never grows past the cap.

Up to simultaneous conjugation, the representative of an orbit is its
lexicographically smallest vector, and the search prunes prefixes instead of
testing whole vectors (canonical augmentation; Breuer, LMS LN 280). A vector
is minimal iff no conjugation makes any prefix smaller, and only conjugators
that fix the prefix so far can still decide. So each node carries the
conjugation rows of the non-central h that fix its prefix; placing x prunes
the subtree if one of them maps x below x, drops those that map x above x and
keeps those that fix it. Without conjugacy the list is empty and the search
is the same.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from operator import add, itemgetter
from typing import (Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple,
                    Union)

import numpy as np

from .errors import (EnumerationCapExceeded, NegativeGenus, NonIntegralGenus,
                     NotGenerating, OrderViolation, RelationViolation)
from .groups import FiniteGroup, _as_int, _row_groups, generates

__all__ = [
    "BranchingData",
    "HurwitzVector",
    "EnumerationOptions",
    "validate",
    "genus",
    "enumerate_branching_data",
    "enumerate_hurwitz_vectors",
    "enumerate_hurwitz_vectors_parallel",
]


@dataclass(frozen=True)
class BranchingData:
    """Quotient genus plus the multiset of branching indices, kept sorted."""

    g_quot: int
    branch_orders: Tuple[int, ...]

    def __post_init__(self) -> None:
        g_quot = _as_int(self.g_quot)
        if g_quot < 0:
            raise ValueError(f"quotient genus must be nonnegative, got {g_quot}")
        orders = tuple(sorted(map(_as_int, self.branch_orders)))
        if any(m < 2 for m in orders):
            raise ValueError(f"branching indices must be >= 2, got {orders}")
        object.__setattr__(self, "g_quot", g_quot)
        object.__setattr__(self, "branch_orders", orders)

    @property
    def r(self) -> int:
        return len(self.branch_orders)


class _VectorFields(NamedTuple):
    g_quot: int
    handles: Tuple[int, ...]
    branches: Tuple[int, ...]


class HurwitzVector(_VectorFields):
    """(a_1, b_1, ..., a_g', b_g'; c_1, ..., c_r) as element ids.

    A tuple record: it compares and hashes equal to (g_quot, handles, branches).
    """

    __slots__ = ()

    def __new__(cls, g_quot: int, handles: Iterable[int],
                branches: Iterable[int]) -> HurwitzVector:
        g_quot = _as_int(g_quot)
        handles = tuple(map(_as_int, handles))
        branches = tuple(map(_as_int, branches))
        if g_quot < 0:
            raise ValueError(f"quotient genus must be nonnegative, got {g_quot}")
        if len(handles) != 2 * g_quot:
            raise ValueError(f"expected {2 * g_quot} handle entries, got {len(handles)}")
        return tuple.__new__(cls, (g_quot, handles, branches))

    @classmethod
    def _make(cls, iterable: Iterable) -> HurwitzVector:
        """The validating constructor, so _make and _replace check too."""
        return cls(*iterable)

    @property
    def entries(self) -> Tuple[int, ...]:
        return self.handles + self.branches


def _relation_product(v: HurwitzVector, G: FiniteGroup) -> int:
    """prod [a_i, b_i] prod c_j, on the list rows of the table."""
    rows, inv = G.mul_rows(), G.inv_list()
    acc = G.identity
    if v.handles:  # skips building two empty slices when g' = 0
        for a, b in zip(v.handles[::2], v.handles[1::2]):
            acc = rows[acc][rows[rows[rows[a][b]][inv[a]]][inv[b]]]
    for c in v.branches:
        acc = rows[acc][c]
    return acc


def validate(v: HurwitzVector, G: FiniteGroup) -> HurwitzVector:
    """Check the three defining conditions, reporting the first violated one.

    Raises ValueError if v does not have 2g' handle entries or an entry is not
    an element id, OrderViolation if a branch entry is the identity,
    RelationViolation if the surface relation fails, NotGenerating if the
    entries span a proper subgroup (a lookup in G's memo, see
    groups.generates). Returns the vector unchanged on success.
    """
    if len(v.handles) != 2 * v.g_quot:
        raise ValueError(f"expected {2 * v.g_quot} handle entries, got {len(v.handles)}")
    entries = v.handles + v.branches
    n, identity = G.order, G.identity
    if entries and (min(entries) < 0 or max(entries) >= n):
        x = next(x for x in entries if not 0 <= x < n)
        raise ValueError(f"entry {x} is not an element id of {G.label}")
    # the identity is the one element of order 1
    if identity in v.branches:
        j = v.branches.index(identity)
        raise OrderViolation(f"branch entry c_{j + 1} = {identity} has order 1")
    prod = _relation_product(v, G)
    if prod != identity:
        raise RelationViolation(
            f"surface relation product is element {prod}, not the identity")
    if not generates(G, entries):
        raise NotGenerating("vector entries generate a proper subgroup")
    return v


def _entry_rows(G: FiniteGroup, vectors: Sequence[HurwitzVector], width: int) -> np.ndarray:
    """The entries of vectors of width entries each: one int64 row per vector.

    Handles come first, then branches, as in validate. An entry beyond int64
    is no element id either, and reads as -1.
    """
    def entries() -> Iterator[int]:
        return chain.from_iterable(map(add, map(itemgetter(1), vectors),
                                       map(itemgetter(2), vectors)))

    count = len(vectors) * width
    try:
        flat = np.fromiter(entries(), np.int64, count)
    except OverflowError:
        flat = np.fromiter((x if 0 <= x < G.order else -1 for x in entries()),
                           np.int64, count)
    return flat.reshape(len(vectors), width)


def _invalid_rows(G: FiniteGroup, g_quot: int, entries: np.ndarray,
                  n_handles: int) -> np.ndarray:
    """validate's checks on many vectors of one shape at once.

    entries is an integer matrix, one row per vector: its n_handles handle
    entries, then its branch entries. Returns a mask of the rows that
    validate rejects. The relation is a column gather through the table per
    entry, and generation is one groups.generates call per distinct sorted
    entry row, so the closure still runs once per entry set per group.
    """
    if n_handles != 2 * g_quot:
        return np.ones(len(entries), dtype=bool)
    n, identity = G.order, G.identity
    bad = ((entries < 0) | (entries >= n)).any(axis=1)
    if bad.any():  # numpy reads a negative index from the end: gather only ids
        entries = np.where(bad[:, None], identity, entries)
    bad |= (entries[:, n_handles:] == identity).any(axis=1)
    mul, inv = G.mul_table, G.inv_table
    prod = np.full(len(entries), identity)
    for i in range(0, n_handles, 2):
        a, b = entries[:, i], entries[:, i + 1]
        prod = mul[prod, mul[mul[mul[a, b], inv[a]], inv[b]]]
    for j in range(n_handles, entries.shape[1]):
        prod = mul[prod, entries[:, j]]
    bad |= prod != identity
    ok = np.flatnonzero(~bad)
    rows = entries[ok]
    rows.sort(axis=1)
    one, group = _row_groups(rows, n)
    spans = np.array([generates(G, rows[i].tolist()) for i in one.tolist()], dtype=bool)
    bad[ok] = ~spans[group]
    return bad


def genus(v_or_data: Union[HurwitzVector, BranchingData], G: FiniteGroup) -> int:
    """Covering-curve genus g from 2g - 2 = |G|(2g' - 2) + sum (|G|/m_i)(m_i - 1)."""
    g_quot = v_or_data.g_quot
    order_of = G.element_orders()
    if isinstance(v_or_data, HurwitzVector):
        orders = [order_of[c] for c in v_or_data.branches]
    else:
        orders = list(v_or_data.branch_orders)
        available = set(order_of)
        bad = [m for m in orders if m not in available]
        if bad:
            raise ValueError(f"branching indices {bad} are not element orders of {G.label}")
    n = G.order
    rhs = n * (2 * g_quot - 2) + sum([n // m * (m - 1) for m in orders])
    if rhs % 2:
        raise NonIntegralGenus(f"2g - 2 = {rhs} is odd; no integral genus exists")
    g = rhs // 2 + 1
    if g < 0:
        raise NegativeGenus(f"genus formula yields g = {g}")
    return g


MAX_BRANCH_ENTRIES = 10 ** 6  # branch entries over all the data of one genus


def enumerate_branching_data(G: FiniteGroup, g: int) -> List[BranchingData]:
    """All numerically admissible (g', branch-order multiset) for target genus g.

    Admissibility is the exact Riemann-Hurwitz equation only; whether a vector
    realizes the data is a separate enumeration question. Sorted by quotient
    genus, then by the order multiset. Each datum is listed from its counts
    per order, so listing holds only the data listed; those hold about g^3
    branch entries in all, so EnumerationCapExceeded is raised past
    MAX_BRANCH_ENTRIES of them: before listing, if the longest datum alone
    could be longer (at g' = 0, every entry of the order m with the least
    (|G|/m)(m - 1)), and while listing, on the running total.
    """
    g = _as_int(g)
    if g < 2:
        raise ValueError(f"target genus must be >= 2, got {g}")
    if G.order == 1:  # no branch points, so only g' = g
        return [BranchingData(g, ())]
    orders = sorted({m for m in G.element_orders() if m > 1})
    contrib = [(G.order // m) * (m - 1) for m in orders]
    target = 2 * g - 2
    longest = (target + 2 * G.order) // min(contrib)
    if longest > MAX_BRANCH_ENTRIES:
        raise EnumerationCapExceeded(
            f"a branching datum of genus {g} can have {longest} entries, "
            f"more than {MAX_BRANCH_ENTRIES}")
    out: List[BranchingData] = []
    entries = 0
    for g_quot in range(target // (2 * G.order) + 2):
        for counts in _count_vectors(contrib, target - G.order * (2 * g_quot - 2)):
            entries += sum(counts)
            if entries > MAX_BRANCH_ENTRIES:
                raise EnumerationCapExceeded(
                    f"the branching data of genus {g} have more than {MAX_BRANCH_ENTRIES} entries")
            out.append(BranchingData(g_quot, tuple(chain.from_iterable(
                [m] * c for m, c in zip(orders, counts)))))
    out.sort(key=lambda d: (d.g_quot, d.branch_orders))
    return out


def _count_vectors(contrib: List[int], rem: int) -> Iterator[Tuple[int, ...]]:
    """Every tuple c of counts >= 0 with sum_i c_i contrib[i] = rem; contrib is nonempty."""
    first, rest = contrib[0], contrib[1:]
    if not rest:
        if rem % first == 0:
            yield (rem // first,)
        return
    for c in range(rem // first + 1):
        for tail in _count_vectors(rest, rem - c * first):
            yield (c,) + tail


@dataclass(frozen=True)
class EnumerationOptions:
    """Knobs for enumerate_hurwitz_vectors.

    up_to_conjugacy keeps one vector per simultaneous-conjugation orbit.
    max_vectors caps the vectors emitted by one call, that is, for one
    branching datum; it is checked as each vector is emitted. It may be 0,
    so that the first vector found raises.
    """

    up_to_conjugacy: bool = False
    max_vectors: int = 10 ** 6

    def __post_init__(self) -> None:
        if self.max_vectors < 0:
            raise ValueError(f"max_vectors must be >= 0, got {self.max_vectors}")


def _conjugation_rows(G: FiniteGroup) -> List[List[int]]:
    """The rows x -> h x h^-1 of every non-central h, in element-id order."""
    rows = G.mul_rows()
    out = []
    for h in G.elements():
        row_h, hi = rows[h], G.inv(h)
        conj = [rows[row_h[x]][hi] for x in G.elements()]
        if conj != rows[0]:
            out.append(conj)
    return out


def _tied(x: int, conj: List[List[int]]) -> Optional[List[List[int]]]:
    """The conjugation rows that fix x; None if one of them moves x lower."""
    keep = []
    for c in conj:
        y = c[x]
        if y < x:
            return None
        if y == x:
            keep.append(c)
    return keep


def enumerate_hurwitz_vectors(G: FiniteGroup, data: BranchingData,
                              opts: Optional[EnumerationOptions] = None
                              ) -> Iterator[HurwitzVector]:
    """All Hurwitz vectors with the given branching data, lexicographically.

    Handles range over all of G; branch entry j ranges over elements of order
    branch_orders[j]; the final branch entry is forced by the relation. With
    up_to_conjugacy only the smallest vector of each simultaneous-conjugation
    orbit is emitted, found by pruning prefixes (see the module docstring).
    The generation test runs once on all candidates, then once per prefix
    until the prefix generates G (a repeated entry changes no entry set and
    needs none), and at a leaf only when its prefix does not; every emitted
    vector generates G. Emitting more than max_vectors vectors raises
    EnumerationCapExceeded in place of the first vector past the cap.
    """
    opts = opts or EnumerationOptions()
    n_handles = 2 * data.g_quot
    orders = data.branch_orders
    r = len(orders)
    total = n_handles + r

    order_of = G.element_orders()
    by_order: Dict[int, List[int]] = {}
    for m in set(orders):
        cand = [x for x in G.elements() if order_of[x] == m]
        if not cand:
            return
        by_order[m] = cand
    rows = G.mul_rows()
    inv = G.inv_list()
    all_elems = list(G.elements())
    # placing x multiplies the relation product by step[x]: by x itself in a
    # branch slot (the identity row), by the commutator [a, x] in the second
    # slot of a handle (a, x), and by the identity in the first
    as_is = rows[0]
    if n_handles:
        no_step = [G.identity] * G.order
        comm = [[rows[rows[rows[a][b]][inv[a]]][inv[b]] for b in all_elems]
                for a in all_elems]
    # every slot but a forced last branch entry is chosen freely
    slots = [all_elems] * n_handles + [by_order[m] for m in orders[:-1]]
    last_order = orders[-1] if r else None

    if not slots:
        # no free entry: a lone branch entry is forced to the identity, and
        # the empty vector is valid only for the trivial group
        if not r and G.order == 1:
            yield tuple.__new__(HurwitzVector, (0, (), ()))
        return

    # the forced last entry is a word in the free ones, so when every free
    # candidate lies in one proper subgroup no leaf generates G
    if not generates(G, set().union(*slots)):
        return
    identity, g_quot, cap = G.identity, data.g_quot, opts.max_vectors
    flat = [0] * total
    last = len(slots) - 1
    emitted = 0
    # one frame per placed slot: its candidate iterator, the relation product
    # of the slots before it, the conjugation rows that fix them, and whether
    # they already generate G
    conj = _conjugation_rows(G) if opts.up_to_conjugacy else []
    stack = [(iter(slots[0]), identity, conj, False)]
    while stack:
        slot = len(stack) - 1
        candidates, acc, conj, gen = stack[-1]
        if slot >= n_handles:
            step = as_is
        elif slot % 2:
            step = comm[flat[slot - 1]]
        else:
            step = no_step
        row_acc = rows[acc]
        for x in candidates:
            keep = conj
            if conj:
                keep = _tied(x, conj)
                if keep is None:
                    continue
            flat[slot] = x
            prod = row_acc[step[x]]
            if slot < last:
                # a superset of a generating set generates, so a prefix that
                # generates G settles its whole subtree; a repeated entry
                # leaves the entry set, and so the answer, unchanged
                stack.append((iter(slots[slot + 1]), prod, keep,
                              gen or (x not in flat[:slot]
                                      and generates(G, flat[:slot + 1]))))
                break
            # every free slot is placed. A forced last branch entry needs no
            # conjugacy test: the conjugators still carried fix every free
            # entry, so they fix the product and its inverse
            if r:
                forced = inv[prod]
                if order_of[forced] != last_order:
                    continue
                flat[-1] = forced
            elif prod != identity:
                continue
            if not (gen or generates(G, flat)):
                continue
            emitted += 1
            if emitted > cap:
                raise EnumerationCapExceeded(f"enumeration exceeded the cap of {cap} vectors")
            yield tuple.__new__(HurwitzVector, (g_quot, (), tuple(flat)) if not n_handles else
                                (g_quot, tuple(flat[:n_handles]), tuple(flat[n_handles:])))
        else:
            stack.pop()


def enumerate_hurwitz_vectors_parallel(G: FiniteGroup, data: BranchingData,
                                       opts: Optional[EnumerationOptions] = None
                                       ) -> List[HurwitzVector]:
    """The vectors of enumerate_hurwitz_vectors, as a list.

    Enumeration is serial; this name stays because it is exported in
    __all__, and because the benchmark's traced run times CLI enumeration by
    wrapping it by name (bench/tracing.py).
    """
    return list(enumerate_hurwitz_vectors(G, data, opts))
