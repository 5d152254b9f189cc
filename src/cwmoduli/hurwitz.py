"""Hurwitz vectors: validation, genus arithmetic, exhaustive enumeration.

A vector (a_1, b_1, ..., a_g', b_g'; c_1, ..., c_r) encodes a Galois cover of
a genus-g' curve branched at r points: branch entries have order > 1, the
surface relation prod [a_i, b_i] prod c_j = 1 holds, and the entries generate
the group. Enumeration is one serial search in element-id order, so output is
deterministic and lexicographic. It places one slot at a time for a whole
block of prefixes held as integer rows: np.repeat pairs each prefix with the
slot's ascending candidates, the relation product advances by a gather
through the multiplication table (through a commutator table in the second
slot of a handle), and the forced last entry and its order test are one
gather each. A block is cut before it is expanded, so that no step holds
more than ROW_BUDGET rows (fewer past slot 16), and each piece is searched
to the last slot before the next, so the vectors come out in order, a block
at a time. Each pending block keeps one entry per prefix and a pointer to
the rest, so a deep search holds O(ROW_BUDGET log depth) rows.

Each row carries the id of its span, the subgroup H its prefix generates,
in G's subgroup lattice (groups._Spans), which every search and validation
on G shares. A vector generates G iff the span of its free entries is G:
the forced last entry is a word in them.

Up to simultaneous conjugation, the representative of an orbit is its
lexicographically smallest vector, and the search prunes prefixes instead of
testing whole vectors (canonical augmentation; Breuer, LMS LN 280). A vector
is minimal iff no conjugation makes any prefix smaller, and only conjugators
that fix the prefix so far can still decide; those are the centralizer
C_G(H) of the prefix's span. So placing x is pruned iff some h in C_G(H) has
h x h^-1 < x, which reads one more table of the lattice, filled as pairs
are reached: the least such conjugate of x per (span, x).

_VectorRows holds vectors as such integer rows, a block per run of one
shape, and builds a HurwitzVector only when one is read. The decompositions
keep their items in it: the decompose command the search's own rows, the
library the rows of its vector arguments (_row_blocks).
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from itertools import accumulate, chain, groupby, repeat
from operator import add, eq, itemgetter
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import (EnumerationCapExceeded, NegativeGenus, NonIntegralGenus,
                     NotGenerating, OrderViolation, RelationViolation)
from .groups import FiniteGroup, _as_int, generates

__all__ = [
    "BranchingData",
    "HurwitzVector",
    "EnumerationOptions",
    "validate",
    "genus",
    "enumerate_branching_data",
    "enumerate_hurwitz_rows",
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
    """prod [a_i, b_i] prod c_j on G's list rows, pairing the handles off one iterator."""
    rows, inv, it = G._rows, G._inv_list, iter(v[1])
    acc = 0  # the identity
    for a, b in zip(it, it):
        acc = rows[acc][rows[rows[rows[a][b]][inv[a]]][inv[b]]]
    for c in v[2]:
        acc = rows[acc][c]
    return acc


def validate(v: HurwitzVector, G: FiniteGroup) -> HurwitzVector:
    """Check the three defining conditions, reporting the first violated one.

    Raises ValueError if v does not have 2g' handle entries or an entry is not
    an element id, OrderViolation if a branch entry is the identity,
    RelationViolation if the surface relation fails, NotGenerating if the
    entries span a proper subgroup (a fold through G's subgroup lattice, see
    groups.generates). Returns v unchanged on success; v is read as a tuple.
    """
    g_quot, handles, branches = v
    if len(handles) != 2 * g_quot:
        raise ValueError(f"expected {2 * g_quot} handle entries, got {len(handles)}")
    entries = handles + branches
    if entries and (min(entries) < 0 or max(entries) >= G.order):
        x = next(x for x in entries if not 0 <= x < G.order)
        raise ValueError(f"entry {x} is not an element id of {G.label}")
    # the identity, id 0, is the one element of order 1
    if 0 in branches:
        raise OrderViolation(f"branch entry c_{branches.index(0) + 1} = 0 has order 1")
    prod = _relation_product(v, G)
    if prod:
        raise RelationViolation(
            f"surface relation product is element {prod}, not the identity")
    if not generates(G, entries):
        raise NotGenerating("vector entries generate a proper subgroup")
    return v


def _entry_rows(vectors: Sequence[HurwitzVector], width: int) -> np.ndarray:
    """The entries of vectors of width entries each: one int64 row per vector.

    Handles come first, then branches, as in validate. If an entry is beyond
    int64 (so no element id either), the rows are an object array of the
    entries as given, so the vector read back from its row is the same.
    """
    def entries() -> Iterator[int]:
        return chain.from_iterable(map(add, map(itemgetter(1), vectors),
                                       map(itemgetter(2), vectors)))

    try:
        flat = np.fromiter(entries(), np.int64, len(vectors) * width)
    except OverflowError:
        flat = np.array(list(entries()), dtype=object)
    return flat.reshape(len(vectors), width)


def _rows_valid(G: FiniteGroup, g_quot: int, entries: np.ndarray, n_handles: int) -> bool:
    """Whether validate accepts every vector of one shape, checked at once.

    entries is a matrix of integers (an object array if one is beyond int64,
    so no element id: not valid), one row per vector: its n_handles handle
    entries, then its branch entries. The relation is a column gather
    through the table per entry, and generation a column fold through G's
    subgroup lattice until every row spans G: on the search's own rows
    every join is a table hit, and any other join is closed, so a proof.
    """
    n, identity = G.order, G.identity
    if (entries.dtype == object or n_handles != 2 * g_quot
            or entries.min(initial=0) < 0 or entries.max(initial=0) >= n
            or (entries[:, n_handles:] == identity).any()):
        return False
    mul, inv = G.mul_table, G.inv_table
    prod = np.full(len(entries), identity)
    for i in range(0, n_handles, 2):
        a, b = entries[:, i], entries[:, i + 1]
        prod = mul[prod, mul[mul[mul[a, b], inv[a]], inv[b]]]
    for j in range(n_handles, entries.shape[1]):
        prod = mul[prod, entries[:, j]]
    if (prod != identity).any():
        return False
    spans, ids = G._spans, np.zeros(len(entries), dtype=np.int32)
    for column in entries.T:
        if (ids == spans.top).all():  # G joined with anything is G
            break
        ids = spans.join(ids, column)
    return bool((ids == spans.top).all())


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
    (|G|/m)(m - 1)), and while listing, on the running total. The trivial
    group's one datum has no branch entries; its g handle pairs are
    counted instead, since the search holds them.
    """
    g = _as_int(g)
    if g < 2:
        raise ValueError(f"target genus must be >= 2, got {g}")
    if G.order == 1:  # no branch points, so only g' = g
        if g > MAX_BRANCH_ENTRIES:
            raise EnumerationCapExceeded(
                f"the branching datum of genus {g} has {g} handle pairs, "
                f"more than {MAX_BRANCH_ENTRIES}")
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
    """Knobs for enumerate_hurwitz_vectors and enumerate_hurwitz_rows.

    up_to_conjugacy keeps one vector per simultaneous-conjugation orbit.
    max_vectors caps the vectors emitted by one call, that is, for one
    branching datum. It is checked per block of rows, before the block is
    emitted: the block that passes it is cut at the cap, so nothing past
    the cap is emitted and at most one block is held beyond it. It may be
    0, so that the first vector found raises.
    """

    up_to_conjugacy: bool = False
    max_vectors: int = 10 ** 6

    def __post_init__(self) -> None:
        if self.max_vectors < 0:
            raise ValueError(f"max_vectors must be >= 0, got {self.max_vectors}")


ROW_BUDGET = 1 << 13  # rows one array step of the search may hold (fewer past slot 16)


def _search(G: FiniteGroup, data: BranchingData, conjugacy: bool) -> Iterator[np.ndarray]:
    """The rows of enumerate_hurwitz_rows, in blocks, without the cap.

    A block of prefixes, each with its relation product and span, advances
    one slot at a time: np.repeat pairs every prefix with the ascending
    candidates of the slot, so the rows stay in lexicographic order, and a
    block is cut into pieces of at most ROW_BUDGET // candidates prefixes
    (fewer past slot 16) before it is expanded. Each piece is searched to
    the last slot before the next, so the leaves come out in order. A block
    keeps only the last entry of each prefix and the row of the block before
    it that holds the rest; a leaf reads its prefix back through them.
    """
    n_handles, orders = 2 * data.g_quot, data.branch_orders
    r, n = len(orders), G.order
    dtype = np.int8 if n <= 128 else np.int16  # the smallest that holds the ids
    if n == 1:
        # the trivial group has no branch entry and one vector: every handle
        # the identity
        if not r:
            yield np.zeros((1, n_handles), dtype=dtype)
        return
    order_of = np.array(G.element_orders())
    by_order = {m: np.flatnonzero(order_of == m) for m in set(orders)}
    if any(len(c) == 0 for c in by_order.values()):
        return
    # every slot but a forced last branch entry is chosen freely; a slot
    # holds its candidates, ascending, and them repeated for a whole step
    # (handles take all of G, filed under 1, which is no branch order)
    by_order[1] = np.arange(n)
    kinds = [1] * n_handles + list(orders[:-1])
    repeated = {m: (by_order[m], np.tile(by_order[m], max(1, ROW_BUDGET // len(by_order[m]))))
                for m in set(kinds)}
    slots = [repeated[m] for m in kinds]
    if not slots:
        # no free entry: the empty vector spans only the identity, and a
        # lone branch entry is forced to be it
        return
    # the forced last entry is a word in the free ones, so when every free
    # candidate lies in one proper subgroup no leaf generates G
    free_orders = set(orders[:-1])
    if not generates(G, [x for x in range(n) if n_handles or order_of[x] in free_orders]):
        return
    every = np.arange(max(n, ROW_BUDGET))  # the rows of a step that keeps all of them
    mul, inv, identity = G.mul_table, G.inv_table, G.identity
    if n_handles:
        # comm[a, b] = a b a^-1 b^-1, the step of a handle pair
        comm = mul[mul[mul, inv[:, None]], inv[None, :]]
    spans = G._spans
    last = len(slots) - 1
    if r:
        last_order = orders[-1]
    # frame d holds the prefixes of d entries that are still to be expanded:
    # each one's last entry, the prefix of d - 1 entries it extends (a row
    # of frame d - 1), its relation product and its span, and the first row
    # not yet expanded. A step expands at most ROW_BUDGET rows, and fewer
    # past slot 16, so that the frames of a deep search hold
    # O(ROW_BUDGET log depth) rows between them.
    stack = [[None, None, np.array([identity]), np.zeros(1, dtype=np.int32), 0]]
    while stack:
        frame = stack[-1]
        entry, _, acc, span, start = frame
        if start >= len(acc):
            stack.pop()
            continue
        slot = len(stack) - 1
        cand, tiled = slots[slot]
        k = len(cand)
        stop = frame[4] = start + max(1, ROW_BUDGET // (k * (1 + slot // 16)))
        acc = acc[start:stop]
        # rows (prefix, x) in the order of np.repeat(prefixes, k)
        ids = np.repeat(span[start:stop], k)
        xs = tiled[:len(ids)]
        # placing x multiplies the relation product by x in a branch slot,
        # by the commutator [a, x] in the second slot of a handle (a, x), and
        # by nothing in the first
        if slot >= n_handles:
            prod = mul[acc[:, None], cand].ravel()
        elif slot % 2:
            prod = mul[acc[:, None], comm[entry[start:stop, None], cand]].ravel()
        else:
            prod = np.repeat(acc, k)
        # canonical augmentation: x is placed only if no h in C_G(H) maps it
        # below itself; those h are the conjugations that fix the prefix
        keep = spans.least(ids, xs) == xs if conjugacy else None
        if slot == last:
            # A forced last branch entry needs no conjugacy test: the
            # conjugations that fix every free entry fix their product
            if r:
                forced = inv[prod]
                closes = order_of[forced] == last_order
            else:
                closes = prod == identity
            keep = closes if keep is None else keep & closes
        rows = every[:len(xs)] if keep is None else keep.nonzero()[0]
        joined = spans.join(ids[rows], xs[rows])
        if slot == last:  # generation: the free entries span G
            rows = rows[joined == spans.top]
        if not len(rows):
            continue
        parent = start + rows // k
        if slot < last:
            stack.append([xs[rows].astype(dtype), parent, prod[rows], joined, 0])
            continue
        out = np.empty((len(rows), n_handles + r), dtype=dtype)
        out[:, slot] = xs[rows]
        if r:
            out[:, -1] = forced[rows]
        for d in range(slot, 0, -1):  # read the prefix back, one entry per frame
            out[:, d - 1] = stack[d][0][parent]
            parent = stack[d][1][parent]
        yield out


def enumerate_hurwitz_rows(G: FiniteGroup, data: BranchingData,
                           opts: Optional[EnumerationOptions] = None
                           ) -> Iterator[np.ndarray]:
    """The vectors of enumerate_hurwitz_vectors as blocks of integer rows.

    Each row is one vector's entries, handles first, in the smallest signed
    integer dtype that holds |G| - 1; the rows of all blocks, read in turn,
    are in lexicographic order. No block holds more than ROW_BUDGET rows
    (or one prefix's candidates, if more).
    The cap is checked per block: a block that passes it is cut at the cap
    and yielded, and EnumerationCapExceeded is raised in place of the rest.
    """
    opts = opts or EnumerationOptions()
    cap, emitted = opts.max_vectors, 0
    for rows in _search(G, data, opts.up_to_conjugacy):
        emitted += len(rows)
        if emitted > cap:
            head = rows[:len(rows) - (emitted - cap)]
            if len(head):
                yield head
            raise EnumerationCapExceeded(f"enumeration exceeded the cap of {cap} vectors")
        yield rows


def _row_tuples(rows: np.ndarray) -> Iterator[Tuple[int, ...]]:
    """Each row as a tuple, zipped from the columns: no list per row is built."""
    return zip(*rows.T.tolist()) if rows.shape[1] else repeat((), len(rows))


def _row_vectors(g_quot: int, n_handles: int, rows: np.ndarray) -> Iterator[HurwitzVector]:
    """The HurwitzVector of each row of entries, built in bulk and unchecked."""
    return map(tuple.__new__, repeat(HurwitzVector),
               zip(repeat(g_quot), _row_tuples(rows[:, :n_handles]),
                   _row_tuples(rows[:, n_handles:])))


# a block of vectors of one shape: quotient genus, handle count, and an
# integer matrix with one row of entries per vector, handles first
_Rows = Tuple[int, int, np.ndarray]


def _row_blocks(vectors: Iterable[HurwitzVector]) -> List[_Rows]:
    """The vectors as row blocks, one per run of one shape, in order (see _entry_rows).

    The shape is (g', handle count, branch count), read off each record
    as it stands, so an invalid record is kept as it is for validate.
    """
    runs = groupby(vectors, key=lambda v: (v.g_quot, len(v.handles), len(v.branches)))
    return [(g_quot, n_handles, _entry_rows(list(run), n_handles + r))
            for (g_quot, n_handles, r), run in runs]


class _VectorRows(SequenceABC):
    """Hurwitz vectors held as integer rows: a read-only, lazy sequence view.

    blocks holds (quotient genus, handle count, rows) triples, rows a
    read-only matrix with one vector's entries per row, handles first.
    Reading an item builds its HurwitzVector, unchecked. Consecutive blocks
    of one shape are joined and empty ones dropped, so two views of the
    same vectors hold equal blocks: views compare block by block, and a view
    equals any other sequence of the same vectors.
    """

    __slots__ = ("blocks", "_ends")

    def __init__(self, blocks: Iterable[_Rows]):
        nonempty = (block for block in blocks if len(block[2]))
        runs = groupby(nonempty, key=lambda block: (*block[:2], block[2].shape[1]))
        self.blocks: Tuple[_Rows, ...] = tuple(
            (g_quot, n_handles, _joined([rows for _, _, rows in run]))
            for (g_quot, n_handles, _), run in runs)
        self._ends = list(accumulate(len(rows) for _, _, rows in self.blocks))

    def __len__(self) -> int:
        return self._ends[-1] if self._ends else 0

    def row(self, i: int) -> _Rows:
        """(quotient genus, handle count, entries) of item i, read from its block."""
        n = len(self)
        if not -n <= i < n:
            raise IndexError(f"item {i} of {n}")
        i %= n
        b = bisect_right(self._ends, i)
        g_quot, n_handles, rows = self.blocks[b]
        return g_quot, n_handles, rows[i - self._ends[b] + len(rows)]

    def __getitem__(self, i: int) -> HurwitzVector:
        g_quot, n_handles, row = self.row(i)
        return next(_row_vectors(g_quot, n_handles, row[None]))

    def __iter__(self) -> Iterator[HurwitzVector]:
        return chain.from_iterable(_row_vectors(*block) for block in self.blocks)

    def __eq__(self, other) -> bool:
        if isinstance(other, _VectorRows):
            return len(self.blocks) == len(other.blocks) and all(
                a[:2] == b[:2] and np.array_equal(a[2], b[2])
                for a, b in zip(self.blocks, other.blocks))
        if isinstance(other, SequenceABC) and not isinstance(other, str):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented


def _joined(parts: List[np.ndarray]) -> np.ndarray:
    """The rows of the parts as one read-only matrix; a lone part is viewed, not copied."""
    rows = np.concatenate(parts) if len(parts) > 1 else parts[0].view()
    rows.flags.writeable = False
    return rows


def enumerate_hurwitz_vectors(G: FiniteGroup, data: BranchingData,
                              opts: Optional[EnumerationOptions] = None
                              ) -> Iterator[HurwitzVector]:
    """All Hurwitz vectors with the given branching data, lexicographically.

    Handles range over all of G; branch entry j ranges over elements of order
    branch_orders[j]; the final branch entry is forced by the relation. With
    up_to_conjugacy only the smallest vector of each simultaneous-conjugation
    orbit is emitted, found by pruning prefixes (see the module docstring).
    Every emitted vector generates G. The search runs block by block
    (enumerate_hurwitz_rows), and the cap is checked per block: emitting
    more than max_vectors vectors raises EnumerationCapExceeded in place of
    the first vector past the cap.
    """
    for rows in enumerate_hurwitz_rows(G, data, opts):
        yield from _row_vectors(data.g_quot, 2 * data.g_quot, rows)


def enumerate_hurwitz_vectors_parallel(G: FiniteGroup, data: BranchingData,
                                       opts: Optional[EnumerationOptions] = None
                                       ) -> List[HurwitzVector]:
    """The vectors of enumerate_hurwitz_vectors, as a list.

    No command calls it: hurwitz-enumerate and decompose read the rows of
    enumerate_hurwitz_rows. Its callers are the tests and the benchmark's
    traced run, which times enumeration by wrapping it by name
    (bench/tracing.py); it stays exported in __all__.
    """
    return list(enumerate_hurwitz_vectors(G, data, opts))
