"""Partitions of Hurwitz items by representation type, and their refinements.

Items carrying equal multiplicity vectors at level k share a block of the
level-k decomposition; the canonical decomposition is the common refinement
over k = 1..|G|, which periodicity proves is already the limit. The items
are validated and keyed in arrays (chevalley_weil._class_keys), keeping no
memo entry per item; each distinct (quotient genus, branch-class multiset)
key is evaluated once, at all its levels as one integer matrix, whose
columns are the key's type tuple, and a block is the items of the keys that
share a type tuple; no level record is filed on the table. The
stabilization report re-checks the limit numerically from the distinct type
tuples, numbering the running partition level by level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

import numpy as np

from .characters import CharacterTable
from .chevalley_weil import _class_keys, _evaluate, _level
from .errors import InternalConsistencyError
from .hurwitz import BranchingData, HurwitzVector, genus

__all__ = [
    "Decomposition",
    "LevelReport",
    "StabilizationReport",
    "decompose_at_k",
    "refine",
    "canonical_decomposition",
    "stabilization_report",
]

# A block key is one multiplicity tuple per covered level, in level order.
BlockKey = Tuple[Tuple[int, ...], ...]


@dataclass(frozen=True)
class Decomposition:
    """A partition of an item sequence, blocks keyed by representation type.

    blocks[b] lists item indices ascending; keys[b] is the shared key; blocks
    are ordered by key, lexicographically, so reports are diffable.
    """

    items: Tuple[HurwitzVector, ...]
    ks: Tuple[int, ...]
    blocks: Tuple[Tuple[int, ...], ...]
    keys: Tuple[BlockKey, ...]

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def partition(self) -> FrozenSet[FrozenSet[int]]:
        """The underlying set partition, forgetting keys and order."""
        return frozenset(frozenset(b) for b in self.blocks)


def _decompose(items: Sequence[HurwitzVector], T: CharacterTable,
               ks: Tuple[int, ...]) -> Decomposition:
    """Partition items by their multiplicity vectors at every level in ks.

    Items sharing a quotient genus and a multiset of branch classes share
    their multiplicities. So the items are validated and keyed in bulk, and
    each distinct key is evaluated once, at all levels of ks together, and
    its type tuple is read off that matrix; no level record is filed in T.
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
    types: List[BlockKey] = [
        tuple(map(tuple, _evaluate(T, ks, g_quot, genera[0], class_key).T.tolist()))
        for g_quot, class_key in keys]
    ordered = sorted(set(types))
    rank = {key: b for b, key in enumerate(ordered)}
    block_of = np.array([rank[key] for key in types], dtype=np.int64)[key_of]
    del key_of  # the item arrays go before the block tuples are built
    ends = np.cumsum(np.bincount(block_of, minlength=len(ordered))).tolist()
    # int32 halves what is held beside the block tuples; indices stay below 2^31
    members = np.argsort(block_of, kind="stable").astype(np.int32)
    del block_of
    blocks = tuple(tuple(members[a:b].tolist()) for a, b in zip([0] + ends, ends))
    return Decomposition(items, ks, blocks, tuple(ordered))


def decompose_at_k(items: Sequence[HurwitzVector], T: CharacterTable,
                   k: int) -> Decomposition:
    """Partition items by their level-k multiplicity vector."""
    return _decompose(items, T, (_level(k),))


def refine(D1: Decomposition, D2: Decomposition) -> Decomposition:
    """Common refinement: blocks are the nonempty pairwise intersections.

    Keys concatenate, so a refined block is keyed by the representation type
    over both level sets. Requires the identical item sequence.
    """
    if D1.items != D2.items:
        raise ValueError("decompositions cover different item sequences")
    key2 = {idx: key for block, key in zip(D2.blocks, D2.keys) for idx in block}
    # a refined block lies inside one block of D1, so its indices stay ascending
    groups: Dict[BlockKey, List[int]] = {}
    for block, key in zip(D1.blocks, D1.keys):
        for idx in block:
            groups.setdefault(key + key2[idx], []).append(idx)
    ordered = sorted(groups)
    return Decomposition(D1.items, D1.ks + D2.ks,
                         tuple(tuple(groups[key]) for key in ordered), tuple(ordered))


def canonical_decomposition(items: Sequence[HurwitzVector],
                            T: CharacterTable) -> StabilizationReport:
    """The stabilization report through k = |G|; its final is the canonical decomposition.

    The periodicity of the multiplicity formulas makes levels beyond |G|
    redundant, so the common refinement of the level-k partitions for
    k = 1..|G| is the full representation-type decomposition.
    """
    return stabilization_report(items, T, T.group.order)


@dataclass(frozen=True)
class LevelReport:
    """One level of the stabilization scan.

    block_count is the standalone level-k partition size; split_running says
    whether level k strictly refined the running refinement of levels < k.
    """

    k: int
    block_count: int
    split_running: bool


@dataclass(frozen=True)
class StabilizationReport:
    """The levels scanned and their common refinement final, which the refinement
    through stabilization_depth already equals."""

    levels: Tuple[LevelReport, ...]
    stabilization_depth: int
    final: Decomposition


def stabilization_report(items: Sequence[HurwitzVector], T: CharacterTable,
                         k_max: int) -> StabilizationReport:
    """Scan levels 1..k_max and verify the two periodicity consequences.

    Checks, raising on violation: no level beyond |G| refines the running
    partition further, and the standalone partitions at k and k + |G| are
    identical whenever both are in range.
    """
    k_max = _level(k_max)
    order = T.group.order
    final = _decompose(items, T, tuple(range(1, k_max + 1)))

    def ids(values) -> List[int]:
        """Each value's index among the distinct values, numbered as they appear."""
        seen: Dict[object, int] = {}
        return [seen.setdefault(x, len(seen)) for x in values]

    def count(numbers: List[int]) -> int:
        return max(numbers, default=-1) + 1

    # at_level[k - 1] numbers the block keys by their level-k type, and
    # running numbers them by their types at levels 1..k
    at_level = [ids(key[k] for key in final.keys) for k in range(k_max)]
    running = [0] * len(final.keys)
    prefixes = count(running)
    levels: List[LevelReport] = []
    depth = 1
    for k in range(1, k_max + 1):
        # level k splits the running partition iff it adds a length-k prefix
        running = ids(zip(running, at_level[k - 1]))
        split = count(running) > prefixes
        if split:
            depth = k
            if k > order:
                raise InternalConsistencyError(
                    f"level {k} split the refinement of levels 1..{k - 1} although "
                    f"periodicity caps new splits at |G| = {order}")
        levels.append(LevelReport(k, count(at_level[k - 1]), split))
        prefixes = count(running)
    for k, (low, high) in enumerate(zip(at_level, at_level[order:]), start=1):
        # two partitions agree iff each has as many blocks as their meet
        if not count(low) == count(high) == count(ids(zip(low, high))):
            raise InternalConsistencyError(
                f"partitions at levels {k} and {k + order} differ, contradicting "
                "the periodicity of the multiplicity formulas")
    return StabilizationReport(tuple(levels), depth, final)
