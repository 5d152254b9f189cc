"""Partitions of Hurwitz items by representation type, and their refinements.

Items with equal multiplicity vectors at level k share a block of the
level-k decomposition. The multiplicities depend on k only mod the branch
orders, all of which divide e = exp(G), up to one shift per period that is
the same on every item; so the canonical decomposition, the refinement over
k = 1..|G|, is already reached at k = e, and a scan over 1..k_max evaluates
levels 1..2e only, asserts the shift between the two periods, and continues
by it. Items are held as integer rows (hurwitz._VectorRows): the library
entry points read their HurwitzVector arguments into rows once, and the
decompose command passes the search's rows with no HurwitzVector built. The
rows are validated and keyed in arrays (chevalley_weil._class_keys), with
no memo entry per item; every distinct (quotient genus, branch-class
multiset) key is evaluated at once (chevalley_weil._evaluate_keys), and the
distinct types are found and sorted by groups._row_groups, the one row
grouping that validation and keying use too. Nothing is filed on the
table, and a scan keeps no record per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Sequence, Tuple

import numpy as np

from .characters import CharacterTable
from .chevalley_weil import (_class_keys, _evaluate_keys, _extend, _key_genus, _level,
                             _period_shift)
from .errors import InternalConsistencyError
from .groups import _row_groups
from .hurwitz import HurwitzVector, _row_blocks, _VectorRows, genus

__all__ = [
    "Decomposition",
    "StabilizationReport",
    "decompose_at_k",
    "refine",
    "canonical_decomposition",
    "stabilization_report",
]


@dataclass(frozen=True, eq=False)
class Decomposition:
    """A partition of an item sequence, blocks keyed by representation type.

    items is a read-only, lazy view of the Hurwitz vectors as integer rows
    (one block per run of a shape); indexing and iteration yield
    HurwitzVectors, and it equals any sequence of the same vectors. ks is a
    range (one level for decompose_at_k, 1..k_max for a report); refine
    joins two into a tuple. blocks[b] lists item indices ascending. types is
    a read-only array, blocks x levels x characters: types[b, j] is block
    b's multiplicity vector at level ks[j]. Blocks are ordered by type,
    lexicographically over (level, character), so reports are diffable.
    Equality compares every field by value: the levels, and the values of
    types.
    """

    items: _VectorRows
    ks: Sequence[int]
    blocks: Tuple[Tuple[int, ...], ...]
    types: np.ndarray

    def __eq__(self, other) -> bool:
        return (isinstance(other, Decomposition) and np.array_equal(self.types, other.types)
                and tuple(self.ks) == tuple(other.ks)
                and (self.items, self.blocks) == (other.items, other.blocks))

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def partition(self) -> FrozenSet[FrozenSet[int]]:
        """The underlying set partition, forgetting types and order."""
        return frozenset(frozenset(b) for b in self.blocks)


def _partition(items: _VectorRows, ks: Sequence[int], types: np.ndarray,
               block_of: np.ndarray) -> Decomposition:
    """The decomposition whose block b, of type types[b], holds the items i with block_of[i] = b."""
    types.flags.writeable = False
    ends = np.cumsum(np.bincount(block_of, minlength=len(types))).tolist()
    # int32 halves what is held beside the block tuples; indices stay below 2^31
    members = np.argsort(block_of, kind="stable").astype(np.int32)
    blocks = tuple(tuple(members[a:b].tolist()) for a, b in zip([0] + ends, ends))
    return Decomposition(items, ks, blocks, types)


def _decompose(items: _VectorRows, T: CharacterTable, ks: Sequence[int]) -> Decomposition:
    """Partition items by their multiplicity vectors at every level in ks.

    Items sharing a quotient genus and a multiset of branch classes share
    their multiplicities. So the rows are validated and keyed in bulk, and
    the distinct keys are evaluated together, at all levels of ks, into one
    array in the smallest signed dtype that holds the dimension at the
    largest level. When ks is 1..k_max past two periods, only levels 1..2e
    are evaluated, and the distinct types are continued by _extend. No
    level record is filed in T.
    """
    keys, key_of = _class_keys(items, T)
    genera = sorted({_key_genus(T, key) for key in keys})
    if len(genera) > 1:
        raise ValueError(f"items span several genera {genera}; "
                         "a decomposition needs a single genus")
    g, e = max(genera, default=2), T.group.exponent()
    periodic = ks == range(1, len(ks) + 1) and len(ks) > 2 * e
    values = _evaluate_keys(T, keys, g, range(1, 2 * e + 1) if periodic else ks)
    one, rank = _row_groups(values)
    types = values[one]
    if periodic:
        types = _extend(T, [keys[i] for i in one.tolist()], g, types, len(ks))
    return _partition(items, ks, types, rank[key_of])


def decompose_at_k(items: Sequence[HurwitzVector], T: CharacterTable,
                   k: int) -> Decomposition:
    """Partition items by their level-k multiplicity vector."""
    k = _level(k)
    return _decompose(_VectorRows(_row_blocks(items)), T, range(k, k + 1))


def refine(D1: Decomposition, D2: Decomposition) -> Decomposition:
    """Common refinement: blocks are the nonempty pairwise intersections.

    Types join along the level axis, one per pair of blocks that meet; both
    type arrays are sorted, so the pairs in ascending order are the joined
    types in order, and the levels are the tuple of both. Requires the
    identical item sequence.
    """
    if D1.items != D2.items:
        raise ValueError("decompositions cover different item sequences")
    block_of = np.zeros(len(D1.items), dtype=np.int64)
    for D, scale in ((D1, len(D2.blocks)), (D2, 1)):  # the pair (b1, b2) as b1 * |D2| + b2
        for b, block in enumerate(D.blocks):
            block_of[list(block)] += b * scale
    pairs, pair_of = np.unique(block_of, return_inverse=True)
    first, second = np.divmod(pairs, len(D2.blocks))
    return _partition(D1.items, (*D1.ks, *D2.ks),
                      np.concatenate([D1.types[first], D2.types[second]], axis=1), pair_of)


def canonical_decomposition(items: Sequence[HurwitzVector],
                            T: CharacterTable) -> StabilizationReport:
    """The stabilization report through k = |G|; its final is the canonical decomposition.

    The periodicity of the multiplicity formulas makes levels beyond
    exp(G), which divides |G|, redundant, so the common refinement of the
    level-k partitions for k = 1..|G| is the full representation-type
    decomposition; the report's evaluation stops at level 2 exp(G).
    """
    return stabilization_report(items, T, T.group.order)


@dataclass(frozen=True, eq=False)
class StabilizationReport:
    """One scan of levels 1..k_max; block_counts is read-only, one entry per level.

    block_counts[j] is the size of the standalone level-(j + 1) partition;
    split_levels are the levels, ascending, that split the refinement of the
    levels below; final, the refinement of all, is already reached at
    stabilization_depth, the largest split level or 1. Equality compares
    the values of block_counts.
    """

    block_counts: np.ndarray
    split_levels: Tuple[int, ...]
    final: Decomposition
    stabilization_depth: int

    def __eq__(self, other) -> bool:
        return (isinstance(other, StabilizationReport)
                and np.array_equal(self.block_counts, other.block_counts)
                and (self.split_levels, self.final, self.stabilization_depth)
                == (other.split_levels, other.final, other.stabilization_depth))


def stabilization_report(items: Sequence[HurwitzVector], T: CharacterTable,
                         k_max: int) -> StabilizationReport:
    """Scan levels 1..k_max and verify that periodicity holds beyond e = exp(G).

    Raises if a level beyond e splits the running refinement, or if a
    block's type at k + e is not its type at k plus _period_shift on the
    evaluated levels, 1..2e; later levels are continued by that shift. The
    shift is the same on every block, so only levels 1..e are numbered.
    """
    k_max = _level(k_max)
    return _report(_VectorRows(_row_blocks(items)), T, k_max)


def _report(items: _VectorRows, T: CharacterTable, k_max: int) -> StabilizationReport:
    """stabilization_report on a row view, such as the decompose command's search rows."""
    e = T.group.exponent()
    final = _decompose(items, T, range(1, k_max + 1))
    types = final.types
    # the evaluated levels: blocks that agree there agree at every level
    evaluated = types[:, :2 * e]
    # blocks are sorted by type, so the blocks sharing their types at levels
    # 1..k stand together: level k splits the running partition iff two
    # neighbouring blocks first differ there
    splits = sorted(set(((evaluated[1:] != evaluated[:-1]).any(axis=2).argmax(axis=1)
                         + 1).tolist()))
    late = [k for k in splits if k > e]
    if late:
        raise InternalConsistencyError(
            f"level {late[0]} split the refinement of levels 1..{late[0] - 1} although "
            f"periodicity caps new splits at exp(G) = {e}")
    if final.items and k_max > e:  # the items are validated: read g from them
        g = genus(final.items[0], T.group)
        delta = evaluated[:, e:] - evaluated[:, :-e]
        differ = (delta != _period_shift(T, g, 2, e)).any(axis=(0, 2))
        differ[0] = (delta[:, 0] != _period_shift(T, g, 1, e)).any()
        if differ.any():
            k = int(differ.argmax()) + 1
            raise InternalConsistencyError(
                f"levels {k} and {k + e} differ by other than {_period_shift(T, g, k, e)}, "
                "contradicting the periodicity of the multiplicity formulas")
    # the standalone partitions repeat with period e: count the types of each
    block_counts = np.resize([len(_row_groups(types[:, j])[0])
                              for j in range(min(e, k_max))], k_max)
    block_counts.flags.writeable = False
    return StabilizationReport(block_counts, tuple(splits), final, max(splits, default=1))
