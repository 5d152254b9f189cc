"""Hurwitz vectors: validation, genus arithmetic, exhaustive enumeration.

A vector (a_1, b_1, ..., a_g', b_g'; c_1, ..., c_r) encodes a Galois cover of
a genus-g' curve branched at r points: branch entries have order > 1, the
surface relation prod [a_i, b_i] prod c_j = 1 holds, and the entries generate
the group. Enumeration is one serial depth-first search in element-id
order, so output is deterministic and lexicographic. Its cap counts the
vectors of one branching datum as they are emitted, so the list of one datum
never grows past the cap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple, Union

from .errors import (EnumerationCapExceeded, NegativeGenus, NonIntegralGenus,
                     NotGenerating, OrderViolation, RelationViolation)
from .groups import FiniteGroup, closure

__all__ = [
    "BranchingData",
    "HurwitzVector",
    "EnumerationOptions",
    "validate",
    "genus",
    "branching_data_of",
    "conjugate_vector",
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
        if self.g_quot < 0:
            raise ValueError(f"quotient genus must be nonnegative, got {self.g_quot}")
        orders = tuple(sorted(int(m) for m in self.branch_orders))
        if any(m < 2 for m in orders):
            raise ValueError(f"branching indices must be >= 2, got {orders}")
        object.__setattr__(self, "branch_orders", orders)

    @property
    def r(self) -> int:
        return len(self.branch_orders)


@dataclass(frozen=True)
class HurwitzVector:
    """(a_1, b_1, ..., a_g', b_g'; c_1, ..., c_r) as element ids."""

    g_quot: int
    handles: Tuple[int, ...]
    branches: Tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "handles", tuple(int(x) for x in self.handles))
        object.__setattr__(self, "branches", tuple(int(x) for x in self.branches))
        if self.g_quot < 0:
            raise ValueError(f"quotient genus must be nonnegative, got {self.g_quot}")
        if len(self.handles) != 2 * self.g_quot:
            raise ValueError(
                f"expected {2 * self.g_quot} handle entries, got {len(self.handles)}")

    @property
    def entries(self) -> Tuple[int, ...]:
        return self.handles + self.branches


def _commutator(G: FiniteGroup, a: int, b: int) -> int:
    return G.mul(G.mul(G.mul(a, b), G.inv(a)), G.inv(b))


def _relation_product(v: HurwitzVector, G: FiniteGroup) -> int:
    acc = G.identity
    for i in range(v.g_quot):
        acc = G.mul(acc, _commutator(G, v.handles[2 * i], v.handles[2 * i + 1]))
    for c in v.branches:
        acc = G.mul(acc, c)
    return acc


def validate(v: HurwitzVector, G: FiniteGroup) -> HurwitzVector:
    """Check the three defining conditions, reporting the first violated one.

    Raises OrderViolation if a branch entry is the identity, RelationViolation
    if the surface relation fails, NotGenerating if the entries span a proper
    subgroup. Returns the vector unchanged on success.
    """
    for x in v.entries:
        if not 0 <= x < G.order:
            raise ValueError(f"entry {x} is not an element id of {G.label}")
    for j, c in enumerate(v.branches):
        if G.elem_order(c) == 1:
            raise OrderViolation(f"branch entry c_{j + 1} = {c} has order 1")
    prod = _relation_product(v, G)
    if prod != G.identity:
        raise RelationViolation(
            f"surface relation product is element {prod}, not the identity")
    if len(closure(G, v.entries)) != G.order:
        raise NotGenerating("vector entries generate a proper subgroup")
    return v


def branching_data_of(v: HurwitzVector, G: FiniteGroup) -> BranchingData:
    return BranchingData(v.g_quot, tuple(G.elem_order(c) for c in v.branches))


def conjugate_vector(v: HurwitzVector, G: FiniteGroup, h: int) -> HurwitzVector:
    """Simultaneous conjugation x -> h x h^-1 of every entry."""
    hi = G.inv(h)
    conj = lambda x: G.mul(G.mul(h, x), hi)
    return HurwitzVector(v.g_quot, tuple(conj(x) for x in v.handles),
                         tuple(conj(x) for x in v.branches))


def genus(v_or_data: Union[HurwitzVector, BranchingData], G: FiniteGroup) -> int:
    """Covering-curve genus g from 2g - 2 = |G|(2g' - 2) + sum (|G|/m_i)(m_i - 1)."""
    if isinstance(v_or_data, HurwitzVector):
        g_quot = v_or_data.g_quot
        orders = [G.elem_order(c) for c in v_or_data.branches]
    else:
        g_quot = v_or_data.g_quot
        orders = list(v_or_data.branch_orders)
        available = set(G.element_orders())
        bad = [m for m in orders if m not in available]
        if bad:
            raise ValueError(f"branching indices {bad} are not element orders of {G.label}")
    rhs = G.order * (2 * g_quot - 2) + sum((G.order // m) * (m - 1) for m in orders)
    if rhs % 2:
        raise NonIntegralGenus(f"2g - 2 = {rhs} is odd; no integral genus exists")
    g = rhs // 2 + 1
    if g < 0:
        raise NegativeGenus(f"genus formula yields g = {g}")
    return g


def enumerate_branching_data(G: FiniteGroup, g: int) -> List[BranchingData]:
    """All numerically admissible (g', branch-order multiset) for target genus g.

    Admissibility is the exact Riemann-Hurwitz equation only; whether a vector
    realizes the data is a separate enumeration question. Sorted by quotient
    genus, then by the order multiset.
    """
    if g < 2:
        raise ValueError(f"target genus must be >= 2, got {g}")
    orders = sorted({m for m in G.element_orders() if m > 1})
    contrib = [(G.order // m) * (m - 1) for m in orders]
    target = 2 * g - 2
    out: List[BranchingData] = []
    g_quot = 0
    while G.order * (2 * g_quot - 2) <= target:
        remaining = target - G.order * (2 * g_quot - 2)
        stack: List[Tuple[int, int, Tuple[int, ...]]] = [(0, remaining, ())]
        while stack:
            idx, rem, acc = stack.pop()
            if rem == 0:
                out.append(BranchingData(g_quot, acc))
                continue
            # push in reverse so smaller orders are explored first
            for i in range(len(orders) - 1, idx - 1, -1):
                if contrib[i] <= rem:
                    stack.append((i, rem - contrib[i], acc + (orders[i],)))
        g_quot += 1
    out.sort(key=lambda d: (d.g_quot, d.branch_orders))
    return out


@dataclass(frozen=True)
class EnumerationOptions:
    """Knobs for enumerate_hurwitz_vectors.

    up_to_conjugacy keeps one vector per simultaneous-conjugation orbit.
    max_vectors caps the vectors emitted by one call, that is, for one
    branching datum; it is checked as each vector is emitted.
    """

    up_to_conjugacy: bool = False
    max_vectors: int = 10 ** 6

    def __post_init__(self) -> None:
        if self.max_vectors < 1:
            raise ValueError(f"max_vectors must be >= 1, got {self.max_vectors}")


def enumerate_hurwitz_vectors(G: FiniteGroup, data: BranchingData,
                              opts: Optional[EnumerationOptions] = None
                              ) -> Iterator[HurwitzVector]:
    """All Hurwitz vectors with the given branching data, lexicographically.

    Handles range over all of G; branch entry j ranges over elements of order
    branch_orders[j]; the final branch entry is forced by the relation. With
    up_to_conjugacy only the smallest vector of each simultaneous-conjugation
    orbit is emitted. Emitting more than max_vectors vectors raises
    EnumerationCapExceeded in place of the first vector past the cap.
    """
    opts = opts or EnumerationOptions()
    n_handles = 2 * data.g_quot
    orders = data.branch_orders
    r = len(orders)
    total = n_handles + r

    by_order: Dict[int, List[int]] = {}
    for m in set(orders):
        cand = [x for x in G.elements() if G.elem_order(x) == m]
        if not cand:
            return
        by_order[m] = cand
    all_elems = list(G.elements())
    rows = G.mul_rows()
    inv = [G.inv(x) for x in G.elements()]

    gen_memo: Dict[FrozenSet[int], bool] = {}

    def gen_ok(entries: Tuple[int, ...]) -> bool:
        key = frozenset(entries)
        hit = gen_memo.get(key)
        if hit is None:
            hit = len(closure(G, key)) == G.order
            gen_memo[key] = hit
        return hit

    def orbit_min(flat_t: Tuple[int, ...]) -> bool:
        for h in range(1, G.order):
            row_h = rows[h]
            hi = inv[h]
            if tuple(rows[row_h[x]][hi] for x in flat_t) < flat_t:
                return False
        return True

    flat = [0] * total
    emitted = 0

    def finish() -> Iterator[HurwitzVector]:
        nonlocal emitted
        flat_t = tuple(flat)
        if not gen_ok(flat_t):
            return
        if opts.up_to_conjugacy and not orbit_min(flat_t):
            return
        emitted += 1
        if emitted > opts.max_vectors:
            raise EnumerationCapExceeded(
                f"enumeration exceeded the cap of {opts.max_vectors} vectors")
        yield HurwitzVector(data.g_quot, flat_t[:n_handles], flat_t[n_handles:])

    def dfs(slot: int, acc: int) -> Iterator[HurwitzVector]:
        if r > 0 and slot == total - 1:
            forced = inv[acc]
            if G.elem_order(forced) != orders[-1]:
                return
            flat[slot] = forced
            yield from finish()
            return
        if slot == total:
            if acc == G.identity:
                yield from finish()
            return
        if slot < n_handles:
            for x in all_elems:
                flat[slot] = x
                if slot % 2 == 1:
                    comm = _commutator(G, flat[slot - 1], x)
                    yield from dfs(slot + 1, rows[acc][comm])
                else:
                    yield from dfs(slot + 1, acc)
        else:
            for x in by_order[orders[slot - n_handles]]:
                flat[slot] = x
                yield from dfs(slot + 1, rows[acc][x])

    yield from dfs(0, G.identity)


def enumerate_hurwitz_vectors_parallel(G: FiniteGroup, data: BranchingData,
                                       opts: Optional[EnumerationOptions] = None
                                       ) -> List[HurwitzVector]:
    """The vectors of enumerate_hurwitz_vectors, as a list.

    Enumeration is serial; this name stays because it is exported in
    __all__, and because the benchmark's traced run times CLI enumeration by
    wrapping it by name (bench/tracing.py).
    """
    return list(enumerate_hurwitz_vectors(G, data, opts))
