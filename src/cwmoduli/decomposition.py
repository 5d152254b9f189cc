"""Partitions of Hurwitz items by representation type, and their refinements.

Items carrying equal multiplicity vectors at level k share a block of the
level-k decomposition; the canonical decomposition is the common refinement
over k = 1..|G|, which periodicity proves is already the limit. One pass
validates each item once and files its index under its (quotient genus,
branch-class multiset) key, keeping no memo entry per item; the genus and
the type tuple are then computed once per distinct key, and a block merges
the index lists of the keys that share a type tuple. The stabilization
report re-checks the limit numerically, reading its checks from the distinct
type tuples.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Dict, FrozenSet, List, Sequence, Tuple

from .characters import CharacterTable
from .chevalley_weil import _class_key, _multiplicities
from .errors import InternalConsistencyError
from .hurwitz import HurwitzVector, genus

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

    def key_of_item(self, index: int) -> BlockKey:
        for block, key in zip(self.blocks, self.keys):
            if index in block:
                return key
        raise IndexError(f"item index {index} not in any block")


def _assemble(items: Tuple[HurwitzVector, ...], ks: Tuple[int, ...],
              item_keys: Sequence[BlockKey]) -> Decomposition:
    groups: Dict[BlockKey, List[int]] = {}
    for idx, key in enumerate(item_keys):
        groups.setdefault(key, []).append(idx)
    ordered = sorted(groups)
    return Decomposition(items, ks,
                         tuple(tuple(groups[key]) for key in ordered),
                         tuple(ordered))


def _decompose(items: Sequence[HurwitzVector], T: CharacterTable,
               ks: Tuple[int, ...]) -> Decomposition:
    """Partition items by their multiplicity vectors at every level in ks.

    Items sharing a quotient genus and a multiset of branch classes share
    their multiplicities. So each item is validated once and its index filed
    under its key; the genus and the type tuple are computed once per key.
    """
    items = tuple(items)
    by_class: Dict[Tuple[int, Tuple[int, ...]], List[int]] = {}
    for idx, v in enumerate(items):
        by_class.setdefault((v.g_quot, _class_key(v, T)), []).append(idx)
    # the genus depends only on the key, through the branch orders
    genera = sorted({genus(items[members[0]], T.group) for members in by_class.values()})
    if len(genera) > 1:
        raise ValueError(f"items span several genera {genera}; "
                         "a decomposition needs a single genus")
    by_type: Dict[BlockKey, List[List[int]]] = {}
    for (g_quot, class_key), members in by_class.items():
        key = tuple(_multiplicities(T, k, g_quot, genera[0], class_key).mults
                    for k in ks)
        by_type.setdefault(key, []).append(members)
    ordered = sorted(by_type)
    # sorting concatenated ascending runs is a merge
    blocks = tuple(tuple(sorted(chain.from_iterable(by_type[key]))) for key in ordered)
    return Decomposition(items, ks, blocks, tuple(ordered))


def decompose_at_k(items: Sequence[HurwitzVector], T: CharacterTable,
                   k: int) -> Decomposition:
    """Partition items by their level-k multiplicity vector."""
    if k < 1:
        raise ValueError(f"pluricanonical level must be >= 1, got {k}")
    return _decompose(items, T, (k,))


def _item_keys(D: Decomposition) -> List[BlockKey]:
    keys: List[BlockKey] = [()] * len(D.items)
    for block, key in zip(D.blocks, D.keys):
        for idx in block:
            keys[idx] = key
    return keys


def refine(D1: Decomposition, D2: Decomposition) -> Decomposition:
    """Common refinement: blocks are the nonempty pairwise intersections.

    Keys concatenate, so a refined block is keyed by the representation type
    over both level sets. Requires the identical item sequence.
    """
    if D1.items != D2.items:
        raise ValueError("decompositions cover different item sequences")
    k1, k2 = _item_keys(D1), _item_keys(D2)
    return _assemble(D1.items, D1.ks + D2.ks,
                     [a + b for a, b in zip(k1, k2)])


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
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    order = T.group.order
    final = _decompose(items, T, tuple(range(1, k_max + 1)))

    def distinct(*ks: int) -> int:
        """Number of distinct type tuples restricted to the levels ks."""
        return len({tuple(key[k - 1] for k in ks) for key in final.keys})

    levels: List[LevelReport] = []
    depth = 1
    prefixes = min(1, len(final.keys))
    for k in range(1, k_max + 1):
        # level k splits the running partition iff it adds a length-k prefix
        count = distinct(*range(1, k + 1))
        split = count > prefixes
        if split:
            depth = k
            if k > order:
                raise InternalConsistencyError(
                    f"level {k} split the refinement of levels 1..{k - 1} although "
                    f"periodicity caps new splits at |G| = {order}")
        levels.append(LevelReport(k, distinct(k), split))
        prefixes = count
    for k in range(1, k_max - order + 1):
        # two partitions agree iff each has as many blocks as their meet
        if not distinct(k) == distinct(k + order) == distinct(k, k + order):
            raise InternalConsistencyError(
                f"partitions at levels {k} and {k + order} differ, contradicting "
                "the periodicity of the multiplicity formulas")
    return StabilizationReport(tuple(levels), depth, final)
