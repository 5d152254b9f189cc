"""Partitions of Hurwitz items by representation type, and their refinements.

Items with equal multiplicity vectors at level k share a block of the
level-k decomposition; the canonical one refines over k = 1..|G|, the limit
by periodicity, which a scan past |G| asserts in closed form. Items are
validated and keyed in arrays (chevalley_weil._class_keys), with no memo
entry per item; each distinct (quotient genus, branch-class multiset) key
is evaluated once, at all its levels as one integer matrix kept as its
type. Nothing is filed on the table, and a scan keeps no record per level.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cmp_to_key
from typing import FrozenSet, List, Sequence, Tuple

import numpy as np

from .characters import CharacterTable
from .chevalley_weil import _class_keys, _evaluate, _level, _period_shift
from .errors import InternalConsistencyError
from .hurwitz import BranchingData, HurwitzVector, genus

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

    blocks[b] lists item indices ascending. types is a read-only array,
    blocks x levels x characters: types[b, j] is block b's multiplicity
    vector at level ks[j]. Blocks are ordered by type, lexicographically over
    (level, character), so reports are diffable. Equality compares every
    field, the values of types included.
    """

    items: Tuple[HurwitzVector, ...]
    ks: Tuple[int, ...]
    blocks: Tuple[Tuple[int, ...], ...]
    types: np.ndarray

    def __eq__(self, other) -> bool:
        return (isinstance(other, Decomposition) and np.array_equal(self.types, other.types)
                and (self.items, self.ks, self.blocks) == (other.items, other.ks, other.blocks))

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def partition(self) -> FrozenSet[FrozenSet[int]]:
        """The underlying set partition, forgetting types and order."""
        return frozenset(frozenset(b) for b in self.blocks)


def _compare(x: np.ndarray, y: np.ndarray) -> int:
    """-1, 0 or 1 as x sorts before, with or after y: their first unequal entry decides."""
    unequal = np.flatnonzero(x != y)
    return 0 if not unequal.size else -1 if x.flat[unequal[0]] < y.flat[unequal[0]] else 1


def _partition(items: Tuple[HurwitzVector, ...], ks: Tuple[int, ...], types: np.ndarray,
               block_of: np.ndarray) -> Decomposition:
    """The decomposition whose block b, of type types[b], holds the items i with block_of[i] = b."""
    types.flags.writeable = False
    ends = np.cumsum(np.bincount(block_of, minlength=len(types))).tolist()
    # int32 halves what is held beside the block tuples; indices stay below 2^31
    members = np.argsort(block_of, kind="stable").astype(np.int32)
    blocks = tuple(tuple(members[a:b].tolist()) for a, b in zip([0] + ends, ends))
    return Decomposition(items, ks, blocks, types)


def _decompose(items: Sequence[HurwitzVector], T: CharacterTable,
               ks: Tuple[int, ...]) -> Decomposition:
    """Partition items by their multiplicity vectors at every level in ks.

    Items sharing a quotient genus and a multiset of branch classes share
    their multiplicities. So the items are validated and keyed in bulk, and
    each distinct key is evaluated once, at all levels of ks together, into
    one array in the smallest signed dtype that holds the dimension at the
    largest level. No level record is filed in T.
    """
    items = tuple(items)
    keys, key_of = _class_keys(items, T)
    # the genus depends only on the key, through the branch orders
    order_of = [T.group.elem_order(x) for x in T.classes.representatives]
    genera = sorted({genus(BranchingData(g_quot, [order_of[c] for c in class_key]), T.group)
                     for g_quot, class_key in keys})
    if len(genera) > 1:
        raise ValueError(f"items span several genera {genera}; "
                         "a decomposition needs a single genus")
    # every multiplicity lies in [0, dim], and dim grows with the level
    g, k = max(genera, default=2), max(ks)
    dim = g if k == 1 else (2 * k - 1) * (g - 1)
    values = np.empty((len(keys), len(ks), T.class_count), dtype=np.min_scalar_type(-dim - 1))
    for i, (g_quot, class_key) in enumerate(keys):
        values[i] = _evaluate(T, ks, g_quot, g, class_key).T
    # the distinct types in the tuple order, and each key's rank among them
    rank = np.empty(len(keys), dtype=np.int64)
    distinct: List[int] = []
    for a in sorted(range(len(keys)), key=cmp_to_key(lambda a, b: _compare(values[a], values[b]))):
        if not distinct or _compare(values[distinct[-1]], values[a]):
            distinct.append(a)
        rank[a] = len(distinct) - 1
    return _partition(items, ks, values[distinct], rank[key_of])


def decompose_at_k(items: Sequence[HurwitzVector], T: CharacterTable,
                   k: int) -> Decomposition:
    """Partition items by their level-k multiplicity vector."""
    return _decompose(items, T, (_level(k),))


def refine(D1: Decomposition, D2: Decomposition) -> Decomposition:
    """Common refinement: blocks are the nonempty pairwise intersections.

    Types join along the level axis, one per pair of blocks that meet; both
    type arrays are sorted, so the pairs in ascending order are the joined
    types in order. Requires the identical item sequence.
    """
    if D1.items != D2.items:
        raise ValueError("decompositions cover different item sequences")
    block_of = np.zeros(len(D1.items), dtype=np.int64)
    for D, scale in ((D1, len(D2.blocks)), (D2, 1)):  # the pair (b1, b2) as b1 * |D2| + b2
        for b, block in enumerate(D.blocks):
            block_of[list(block)] += b * scale
    pairs, pair_of = np.unique(block_of, return_inverse=True)
    first, second = np.divmod(pairs, len(D2.blocks))
    return _partition(D1.items, D1.ks + D2.ks,
                      np.concatenate([D1.types[first], D2.types[second]], axis=1), pair_of)


def canonical_decomposition(items: Sequence[HurwitzVector],
                            T: CharacterTable) -> StabilizationReport:
    """The stabilization report through k = |G|; its final is the canonical decomposition.

    The periodicity of the multiplicity formulas makes levels beyond |G|
    redundant, so the common refinement of the level-k partitions for
    k = 1..|G| is the full representation-type decomposition.
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
    """Scan levels 1..k_max and verify that periodicity holds beyond |G|.

    Raises if a level beyond |G| splits the running refinement, or if a
    block's type at k + |G| is not its type at k plus _period_shift. That
    shift is the same on every block, so only levels 1..|G| are numbered.
    """
    k_max = _level(k_max)
    order = T.group.order
    final = _decompose(items, T, tuple(range(1, k_max + 1)))
    types = final.types
    # blocks are sorted by type, so the blocks sharing their types at levels
    # 1..k stand together: level k splits the running partition iff two
    # neighbouring blocks first differ there
    splits = sorted(set(((types[1:] != types[:-1]).any(axis=2).argmax(axis=1) + 1).tolist()))
    late = [k for k in splits if k > order]
    if late:
        raise InternalConsistencyError(
            f"level {late[0]} split the refinement of levels 1..{late[0] - 1} although "
            f"periodicity caps new splits at |G| = {order}")
    if final.items and k_max > order:  # the items are validated: read g from them
        g = genus(final.items[0], T.group)
        delta = types[:, order:] - types[:, :-order]
        differ = (delta != _period_shift(T, g, 2)).any(axis=(0, 2))
        differ[0] = (delta[:, 0] != _period_shift(T, g, 1)).any()
        if differ.any():
            k = int(differ.argmax()) + 1
            raise InternalConsistencyError(
                f"levels {k} and {k + order} differ by other than {_period_shift(T, g, k)}, "
                "contradicting the periodicity of the multiplicity formulas")
    # each level's blocks in the order of their types there
    by_type = np.lexsort(types[:, :order].transpose(2, 1, 0), axis=-1)
    ranked = types[by_type, np.arange(len(by_type))[:, None]]
    starts = np.ones(by_type.shape, dtype=bool)
    starts[:, 1:] = (ranked[:, 1:] != ranked[:, :-1]).any(axis=2)
    block_counts = np.resize(starts.sum(axis=1), k_max)
    block_counts.flags.writeable = False
    return StabilizationReport(block_counts, tuple(splits), final, max(splits, default=1))
