"""Finite groups as dense multiplication tables, plus the builders the CLI exposes.

Element ids are dense integers 0..|G|-1 with 0 the identity. Everything
downstream (conjugacy classes, class matrices, closures) reduces to table
lookups, which keeps exhaustive verification cheap at desk scale.
"""

from __future__ import annotations

import json
import operator
import os
import re
from dataclasses import dataclass
from math import lcm, prod
from typing import Dict, FrozenSet, Iterable, Iterator, List, Sequence, Set, Tuple

import numpy as np

from .errors import GroupSizeError, GroupSpecError

__all__ = [
    "DEFAULT_ORDER_CAP",
    "FiniteGroup",
    "ConjugacyData",
    "MetacyclicParams",
    "build_cyclic",
    "build_abelian",
    "build_metacyclic",
    "build_from_permutations",
    "build_from_table",
    "conjugacy_classes",
    "closure",
    "generates",
    "greedy_generators",
    "group_from_spec",
]

DEFAULT_ORDER_CAP = 512
# 16 bytes per entry: a table at the cap fits even written with indent=2
_TABLE_FILE_BYTES = 16 * DEFAULT_ORDER_CAP ** 2


def _check_order(n: int) -> None:
    """Reject a group of order n above the cap, before anything of size n is built."""
    if n > DEFAULT_ORDER_CAP:
        raise GroupSizeError(f"group order {n} exceeds the cap of {DEFAULT_ORDER_CAP}")


class FiniteGroup:
    """A finite group given by its full multiplication table.

    The table is validated at construction: element 0 must be a two-sided
    identity, every element must have an inverse, and multiplication must be
    associative, at every order. The cap is checked before the table is copied.
    """

    def __init__(self, table: Sequence[Sequence[int]], label: str = ""):
        _check_order(len(table))
        tbl = np.asarray(table, dtype=np.int64)
        if tbl.ndim != 2 or tbl.shape[0] != tbl.shape[1] or tbl.shape[0] == 0:
            raise ValueError("multiplication table must be a nonempty square matrix")
        n = int(tbl.shape[0])
        if tbl.min() < 0 or tbl.max() >= n:
            raise ValueError("table entries must be element ids in 0..order-1")
        self._rows = tbl.tolist()
        _check_group_axioms(tbl, self._rows)
        tbl.flags.writeable = False
        self._table = tbl
        self.order = n
        self.label = label or f"table of order {n}"
        self._inv = _inverse_map(tbl)
        self._inv.flags.writeable = False
        self._inv_list = self._inv.tolist()
        # element orders as Python ints, read by elem_order in hot loops
        self._order_of = tuple(_element_orders(tbl).tolist())
        self._exponent = lcm(*self._order_of)
        # entry set -> whether it generates the group, read and filled only by
        # generates; a proper subgroup is stored as False
        self._generated: Dict[FrozenSet[int], bool] = {}

    @property
    def identity(self) -> int:
        return 0

    @property
    def mul_table(self) -> np.ndarray:
        return self._table

    @property
    def inv_table(self) -> np.ndarray:
        return self._inv

    def __len__(self) -> int:
        return self.order

    def __repr__(self) -> str:
        return f"FiniteGroup({self.label!r}, order={self.order})"

    def elements(self) -> range:
        return range(self.order)

    def mul(self, a: int, b: int) -> int:
        return self._rows[a][b]

    def inv(self, a: int) -> int:
        return self._inv_list[a]

    def power(self, a: int, k: int) -> int:
        """a**k for any integer k, reduced through the element order."""
        k %= self._order_of[a]
        rows = self._rows
        acc = 0
        for _ in range(k):
            acc = rows[acc][a]
        return acc

    def elem_order(self, a: int) -> int:
        return self._order_of[a]

    def element_orders(self) -> Tuple[int, ...]:
        return self._order_of

    def exponent(self) -> int:
        """lcm of all element orders."""
        return self._exponent

    def is_abelian(self) -> bool:
        return bool(np.array_equal(self._table, self._table.T))

    def mul_rows(self) -> List[List[int]]:
        """Table as nested lists; faster than numpy scalar indexing in hot loops."""
        return self._rows

    def inv_list(self) -> List[int]:
        """Inverse map as a list, for the same hot loops as mul_rows."""
        return self._inv_list


def _check_group_axioms(tbl: np.ndarray, rows: List[List[int]]) -> None:
    n = tbl.shape[0]
    idx = np.arange(n)
    if not (np.array_equal(tbl[0], idx) and np.array_equal(tbl[:, 0], idx)):
        raise ValueError("element 0 is not a two-sided identity")
    if not (np.array_equal(np.sort(tbl, axis=1), np.broadcast_to(idx, (n, n)))
            and np.array_equal(np.sort(tbl, axis=0), np.broadcast_to(idx[:, None], (n, n)))):
        raise ValueError("each row and column of the table must be a permutation")
    _check_associative(tbl, rows)


def _check_associative(tbl: np.ndarray, rows: List[List[int]]) -> None:
    """Light's test: (a*s)*c == a*(s*c) for all a, c and s in a generating set.

    The s passing it are closed under products, so this proves associativity
    in O(n^2 log n). Each s is tested before the generating set grows past it.
    """
    for s in greedy_generators(rows):
        if not np.array_equal(tbl[tbl[:, s]], tbl[:, tbl[s]]):
            raise ValueError(f"multiplication is not associative (first failure at s={s})")


def greedy_generators(rows: Sequence[Sequence[int]]) -> Iterator[int]:
    """Yield a generating set of the group with multiplication table rows.

    Each generator is the smallest id outside what the previous ones reach by
    breadth-first search, so each at least doubles that set and there are at
    most log2(n). The search past a generator runs only when the next is asked for.
    """
    n = len(rows)
    reached = [False] * n
    reached[0] = True
    found = [0]
    gens: List[int] = []
    for s in range(n):
        if reached[s]:
            continue
        yield s
        gens.append(s)
        frontier = list(found)
        while frontier:
            nxt = []
            for x in frontier:
                row = rows[x]
                for g in gens:
                    y = row[g]
                    if not reached[y]:
                        reached[y] = True
                        found.append(y)
                        nxt.append(y)
            frontier = nxt


def _inverse_map(tbl: np.ndarray) -> np.ndarray:
    rows, cols = np.nonzero(tbl == 0)
    inv = np.empty(tbl.shape[0], dtype=np.int64)
    inv[rows] = cols
    return inv


def _element_orders(tbl: np.ndarray) -> np.ndarray:
    n = tbl.shape[0]
    orders = np.zeros(n, dtype=np.int64)
    orders[0] = 1
    cur = np.arange(n)
    base = np.arange(n)
    k = 1
    while (orders == 0).any():
        k += 1
        cur = tbl[cur, base]
        hit = (orders == 0) & (cur == 0)
        orders[hit] = k
        if k > n:
            raise ValueError("table has an element of order exceeding the group order")
    return orders


class ConjugacyData:
    """Conjugacy classes of a group, read off the table of all conjugates, with
    power maps precomputed.

    Classes are ordered by their smallest member, so class 0 is always the
    identity class. power_class[i, j] is the class of r**j for any r in class i,
    for every exponent j in 0..exponent-1. class_of is kept both as a read-only
    array and, for per-element reads, as a list of Python ints. The record holds
    no reference to its group: everything it answers is in these fields.
    """

    def __init__(self, class_of: np.ndarray, representatives: Tuple[int, ...],
                 class_sizes: Tuple[int, ...], power_class: np.ndarray):
        self.class_of = class_of
        self._class_list = class_of.tolist()
        self.representatives = representatives
        self.class_sizes = class_sizes
        self.power_class = power_class

    @property
    def class_count(self) -> int:
        return len(self.representatives)

    def inverse_class(self, i: int) -> int:
        """Class index of the inverses of class i: the class of r**(exponent-1)."""
        return int(self.power_class[i, -1])

    def class_list(self) -> List[int]:
        """class_of as a list; faster than numpy scalar indexing in hot loops."""
        return self._class_list

    def members(self, i: int) -> np.ndarray:
        return np.nonzero(self.class_of == i)[0]


def conjugacy_classes(G: FiniteGroup) -> ConjugacyData:
    """Conjugacy classes and power maps from whole-array lookups on the table.

    One n x n gather holds every conjugate h g h^-1; its column minimum names
    g's class by its smallest member, and one np.unique numbers the classes in
    that order. The powers of all representatives advance together, one
    exponent step at a time. The result keeps no reference to G.
    """
    tbl = G.mul_table
    smallest = tbl[tbl, G.inv_table[:, None]].min(axis=0)
    reps, class_of, sizes = np.unique(smallest, return_inverse=True, return_counts=True)
    powers = np.zeros((len(reps), G.exponent()), dtype=np.int64)
    for j in range(1, powers.shape[1]):
        powers[:, j] = tbl[powers[:, j - 1], reps]
    power_class = class_of[powers]
    class_of.flags.writeable = False
    power_class.flags.writeable = False
    return ConjugacyData(class_of, tuple(reps.tolist()), tuple(sizes.tolist()), power_class)


def closure(G: FiniteGroup, S: Iterable[int]) -> Set[int]:
    """The subgroup generated by S, as a set of element ids."""
    rows = G.mul_rows()
    gens = sorted(set(S))
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            row = rows[x]
            for s in gens:
                y = row[s]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
            if len(seen) == G.order:  # stop early: a large S spans G in one row
                return seen
        frontier = nxt
    return seen


# entries per array step of _row_groups, and of chevalley_weil's
# _evaluate_keys and _extend: bounds their temporaries, whatever the counts
_ENTRIES = 1 << 16


def _row_groups(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Equal rows of an array of integers >= 0, grouped; row i is all of rows[i].

    Returns the index of one row of each group and the group of every row;
    groups are numbered in lexicographic order of their rows. A row is read
    as one int64 code when its bits (read from the data) fit. Else its
    entries are big-endian int64s, which compare bytewise as numbers, so
    np.unique on one void item per row sorts rows lexicographically: the
    columns go _ENTRIES entries a step, each step's rows led by their group
    over the columns before, and the steps stop once every row is alone.
    Python ints (past int64) take an exact path of their own.
    """
    n = len(rows)
    rows = rows.reshape(n, prod(rows.shape[1:]))
    bits = int(rows.max(initial=0)).bit_length()
    if rows.dtype == object:
        keys = list(map(tuple, rows.tolist()))
        distinct = sorted(set(keys))
        rank_of = {row: r for r, row in enumerate(distinct)}
        group = np.array([rank_of[row] for row in keys], dtype=np.int64)
    elif rows.shape[1] * bits < 63:
        codes = np.zeros(n, dtype=np.int64)
        for column in rows.T:
            codes <<= bits
            codes |= column
        distinct, group = np.unique(codes, return_inverse=True)
    else:
        group = np.zeros(n, dtype=np.int64)
        width = max(1, _ENTRIES // max(n, 1))
        for start in range(0, rows.shape[1], width):
            part = rows[:, start:start + width]
            step = np.empty((n, 1 + part.shape[1]), dtype=">i8")
            step[:, 0], step[:, 1:] = group, part
            whole = step.view(np.dtype((np.void, step.itemsize * step.shape[1]))).ravel()
            distinct, group = np.unique(whole, return_inverse=True)
            if len(distinct) == n:
                break
    group = group.ravel()  # its shape differs between numpy 1.x and 2.x
    # rows of a group are equal, so any one of them stands for it
    one = np.empty(len(distinct), dtype=np.int64)
    one[group] = np.arange(n)
    return one, group


def generates(G: FiniteGroup, S: Iterable[int]) -> bool:
    """True iff the closure of S under multiplication equals all of G.

    Memoized on G by the set of S, so closure runs once per entry set per group.
    """
    key = frozenset(S)
    ok = G._generated.get(key)
    if ok is None:
        ok = G._generated[key] = len(closure(G, key)) == G.order
    return ok


@dataclass(frozen=True)
class MetacyclicParams:
    """Parameters (m, n, r) of the presentation <x, y | x^m, y^n, y x y^-1 = x^r>."""

    m: int
    n: int
    r: int

    def __post_init__(self) -> None:
        if self.m < 1 or self.n < 1:
            raise ValueError(f"m and n must be positive, got m={self.m}, n={self.n}")
        if not 1 <= self.r <= self.m:
            raise ValueError(f"r must satisfy 1 <= r <= m, got r={self.r} with m={self.m}")
        if pow(self.r, self.n, self.m) != 1 % self.m:
            raise ValueError(
                f"r^n = {self.r}^{self.n} is not 1 mod m = {self.m}; "
                "the presentation does not define a group of order m*n")


def _as_int(x) -> int:
    """x as a Python int through operator.index; a bool is rejected, not read as 0 or 1."""
    if isinstance(x, bool):
        raise TypeError(f"expected an integer, got {x!r}")
    return operator.index(x)


def build_cyclic(n: int) -> FiniteGroup:
    """Z/nZ with addition; element k has id k."""
    n = _as_int(n)
    if n < 1:
        raise ValueError(f"cyclic order must be positive, got {n}")
    _check_order(n)
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    return FiniteGroup(table, f"cyclic:{n}")


def build_abelian(factors: Sequence[int]) -> FiniteGroup:
    """Direct product of cyclic groups, components added pointwise.

    Element ids encode tuples lexicographically: the leftmost factor is the
    most significant digit, so (0,...,0) is id 0.
    """
    factors = tuple(map(_as_int, factors))
    if not factors:
        raise ValueError("abelian factor list must be nonempty")
    if any(f < 1 for f in factors):
        raise ValueError(f"abelian factors must be positive, got {factors}")
    n = 1
    for f in factors:
        n *= f
    _check_order(n)
    coords = np.unravel_index(np.arange(n), factors)
    sums = tuple((c[:, None] + c[None, :]) % f for c, f in zip(coords, factors))
    table = np.ravel_multi_index(sums, factors)
    return FiniteGroup(table, "abelian:" + ",".join(str(f) for f in factors))


def build_metacyclic(p: MetacyclicParams) -> FiniteGroup:
    """Split metacyclic group <x, y | x^m, y^n, y x y^-1 = x^r> of order m*n.

    Element x^i y^j has id i*n + j, so the identity is id 0 and pairs are
    ordered lexicographically by (x-exponent, y-exponent).
    """
    m, n, r = p.m, p.n, p.r
    total = m * n
    _check_order(total)
    ids = np.arange(total)
    xi, yj = np.divmod(ids, n)
    # y^j x = x^(r^j) y^j, hence (x^i y^j)(x^k y^l) = x^(i + k r^j) y^(j + l)
    rpow = np.array([pow(r, int(j), m) for j in range(n)], dtype=np.int64)
    X = (xi[:, None] + xi[None, :] * rpow[yj][:, None]) % m
    Y = (yj[:, None] + yj[None, :]) % n
    return FiniteGroup(X * n + Y, f"metacyclic:{m},{n},{r}")


def _parse_cycle_string(text: str) -> List[List[int]]:
    body = text.strip()
    if body in ("", "()"):
        return []
    if not re.fullmatch(r"(?:\s*\(\s*\d+(?:\s*,\s*\d+)*\s*\)\s*)+", body):
        raise GroupSpecError(f"malformed cycle notation: {text!r}")
    cycles = []
    seen: Set[int] = set()
    for inner in re.findall(r"\(([^()]*)\)", body):
        pts = [int(t) for t in re.split(r"[,\s]+", inner.strip()) if t]
        if any(p < 1 for p in pts):
            raise GroupSpecError(f"cycle points must be >= 1 in {text!r}")
        for p in pts:
            if p in seen:
                raise GroupSpecError(
                    f"point {p} appears twice in {text!r}; the cycles of one "
                    "generator must be disjoint")
            seen.add(p)
        cycles.append(pts)
    return cycles


def _orbits(all_cycles: Sequence[List[List[int]]]) -> List[List[int]]:
    """Orbits of the group the cycles generate, each in increasing point order,
    ordered by their smallest point (union-find on points)."""
    root: Dict[int, int] = {}

    def find(x: int) -> int:
        while root.setdefault(x, x) != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for cycles in all_cycles:
        for cyc in cycles:
            r = find(cyc[0])
            for x in cyc[1:]:
                root[find(x)] = r
    orbits: Dict[int, List[int]] = {}
    for x in sorted(root):
        orbits.setdefault(find(x), []).append(x)
    return list(orbits.values())


def _distinct_orbit_actions(all_cycles: Sequence[List[List[int]]],
                            orbits: Sequence[List[int]]) -> List[Tuple[int, ...]]:
    """The generators as permutation tuples on the orbits with distinct actions.

    Each orbit's points are relabelled 0..len-1 in increasing order; an orbit
    whose relabelled action repeats an earlier orbit's is dropped. Identical
    copies of one action act diagonally, so the generated group, its products
    and therefore its table do not change, while the tuples shrink to the
    points of the distinct orbits.
    """
    images: List[Dict[int, int]] = []
    for cycles in all_cycles:
        img: Dict[int, int] = {}
        for cyc in cycles:
            img.update(zip(cyc, cyc[1:] + cyc[:1]))
        images.append(img)
    seen: Set[Tuple[Tuple[int, ...], ...]] = set()
    gens: List[List[int]] = [[] for _ in all_cycles]
    for orbit in orbits:
        local = {p: i for i, p in enumerate(orbit)}
        action = tuple(tuple(local[img.get(p, p)] for p in orbit) for img in images)
        if action in seen:
            continue
        seen.add(action)
        offset = len(gens[0])
        for g, a in zip(gens, action):
            g.extend(offset + i for i in a)
    return [tuple(g) for g in gens]


def build_from_permutations(generator_strs: Sequence[str]) -> FiniteGroup:
    """Group generated by permutations in cycle notation on positive points.

    Products compose left to right: (p*q)(point) = q(p(point)). Element ids
    follow breadth-first discovery from the identity, so they are stable for a
    fixed generator list. Only the points written are used, and of orbits with
    the same action (points taken in increasing order) only the first.
    """
    all_cycles = [_parse_cycle_string(s) for s in generator_strs]
    # a generator of disjoint cycles has the lcm of their lengths as order,
    # and every element order divides |G|
    exponent = 1
    for cycles in all_cycles:
        exponent = lcm(exponent, *(len(c) for c in cycles))
        if exponent > DEFAULT_ORDER_CAP:
            break
    orbits = _orbits(all_cycles)
    # orbit-stabilizer: |G| is at least the length of every orbit
    if exponent > DEFAULT_ORDER_CAP or max(map(len, orbits), default=1) > DEFAULT_ORDER_CAP:
        raise GroupSizeError(f"permutation closure exceeds the cap of {DEFAULT_ORDER_CAP}")
    gens = _distinct_orbit_actions(all_cycles, orbits)
    ident = tuple(range(len(gens[0]) if gens else 0))
    ids: Dict[Tuple[int, ...], int] = {ident: 0}
    elems: List[Tuple[int, ...]] = [ident]
    parent = [(0, 0)]  # elems[b] = elems[a] * gens[t]
    right: List[int] = []  # right[a * len(gens) + t] = id of elems[a] * gens[t]
    for a, p in enumerate(elems):  # elems grows meanwhile: breadth-first order
        for t, q in enumerate(gens):
            prod = tuple(q[i] for i in p)
            if prod not in ids:
                if len(elems) >= DEFAULT_ORDER_CAP:
                    raise GroupSizeError(
                        f"permutation closure exceeds the cap of {DEFAULT_ORDER_CAP}")
                ids[prod] = len(elems)
                elems.append(prod)
                parent.append((a, t))
            right.append(ids[prod])
    n = len(elems)
    R = np.array(right, dtype=np.int64).reshape(n, len(gens))
    table = np.empty((n, n), dtype=np.int64)
    table[:, 0] = np.arange(n)
    for b in range(1, n):  # x * elems[b] = (x * elems[a]) * gens[t], with a < b
        a, t = parent[b]
        table[:, b] = R[table[:, a], t]
    label = "perm:" + ";".join(s.strip() for s in generator_strs)
    return FiniteGroup(table, label)


def build_from_table(source) -> FiniteGroup:
    """Group from a JSON object {"order": N, "mul": [[...]]} or a path to one.

    A file of more than 16 * 512^2 bytes (4 MiB) raises GroupSizeError before
    it is parsed.
    """
    if isinstance(source, (str,)):
        try:
            size = os.path.getsize(source)
            if size > _TABLE_FILE_BYTES:
                raise GroupSizeError(f"table file {source!r} has {size} bytes, over the "
                                     f"cap of {_TABLE_FILE_BYTES}")
            with open(source, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise GroupSpecError(f"cannot read table file {source!r}: {exc}") from exc
        label = f"table:{source}"
    else:
        data = source
        label = ""
    if not isinstance(data, dict) or "order" not in data or "mul" not in data:
        raise GroupSpecError('table JSON must be {"order": N, "mul": [[...]]}')
    mul = data["mul"]
    if (type(data["order"]) is not int or type(mul) is not list
            or not all(type(row) is list and all(type(x) is int for x in row) for row in mul)):
        raise GroupSpecError('table "order" and "mul" must be an integer and lists of integers')
    try:
        G = FiniteGroup(mul, label)
    except (ValueError, TypeError) as exc:
        raise GroupSpecError(f"table is not a valid group: {exc}") from exc
    if G.order != data["order"]:
        raise GroupSpecError(
            f"declared order {data['order']} does not match table size {G.order}")
    return G


def _parse_ints(text: str, what: str) -> List[int]:
    try:
        return [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise GroupSpecError(f"malformed {what} in group spec: {text!r}") from exc


def group_from_spec(spec: str) -> FiniteGroup:
    """Build a group from a specification string.

    Grammar: cyclic:n | abelian:n1,n2,... | metacyclic:m,n,r |
    perm:cycles;cycles;... | table:<path>.
    """
    m = re.fullmatch(r"(cyclic|abelian|metacyclic|perm|table):(.*)", spec.strip(),
                     flags=re.DOTALL)
    if not m:
        raise GroupSpecError(f"unknown group spec {spec!r}")
    kind, arg = m.group(1), m.group(2)
    if kind == "cyclic":
        vals = _parse_ints(arg, "cyclic order")
        if len(vals) != 1 or vals[0] < 1:
            raise GroupSpecError(f"cyclic spec needs one positive integer: {spec!r}")
        return build_cyclic(vals[0])
    if kind == "abelian":
        vals = _parse_ints(arg, "factor list")
        if not vals or any(v < 1 for v in vals):
            raise GroupSpecError(f"abelian spec needs positive factors: {spec!r}")
        return build_abelian(vals)
    if kind == "metacyclic":
        vals = _parse_ints(arg, "parameter list")
        if len(vals) != 3:
            raise GroupSpecError(f"metacyclic spec needs m,n,r: {spec!r}")
        return build_metacyclic(MetacyclicParams(*vals))
    if kind == "perm":
        parts = [s for s in arg.split(";") if s.strip()]
        return build_from_permutations(parts)
    return build_from_table(arg.strip())
