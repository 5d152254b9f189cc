"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with -s (or read the -v test lines) to see the per-criterion summary.
Every numeric target here was derived independently: brute-force loops over
raw tuples, hand character tables, closed forms evaluated by gcd arithmetic.
"""

import itertools
import math
import random
import time

import pytest

from cwmoduli import (
    BranchingData,
    HurwitzVector,
    MetacyclicParams,
    build_cyclic,
    build_metacyclic,
    canonical_decomposition,
    character_table,
    conjugate_vector,
    cw_character,
    decompose_at_k,
    enumerate_branching_data,
    enumerate_hurwitz_vectors,
    genus,
    inner_product,
    periodicity_delta,
    regular_multiple,
    rr_component_lower_bound,
    schur_multiplier_order,
    validate,
)

V = HurwitzVector(2, (1, 0, 0, 2), (2, 1))
V_ALT = HurwitzVector(0, (), (1, 1, 2, 2, 1, 1, 2, 2))


def report(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


def census(G, g):
    return [v for d in enumerate_branching_data(G, g)
            for v in enumerate_hurwitz_vectors(G, d)]


def test_criterion_1_golden_multiplicities():
    expect = {(V, 1): (2, 2, 2), (V, 2): (5, 5, 5), (V, 3): (9, 8, 8),
              (V_ALT, 1): (0, 3, 3), (V_ALT, 2): (5, 5, 5),
              (V_ALT, 3): (11, 7, 7)}
    t0 = time.perf_counter()
    T = character_table(build_cyclic(3), k_max=3, g_max=6)
    got = {key: cw_character(v, T, k).mults for key in expect
           for v, k in [key]}
    elapsed = time.perf_counter() - t0
    matches = sum(got[key][i] == expect[key][i]
                  for key in expect for i in range(3))
    report(1, matches == 18 and elapsed < 1.0,
           f"{matches}/18 exact matches in {elapsed:.3f}s")


def test_criterion_2_decomposition_separation():
    t0 = time.perf_counter()
    T = character_table(build_cyclic(3), k_max=3, g_max=6)
    items = [V, V_ALT]
    counts = {k: decompose_at_k(items, T, k).block_count for k in (1, 2, 3)}
    blocks = canonical_decomposition(items, T).final.block_count
    elapsed = time.perf_counter() - t0
    ok = counts == {1: 2, 2: 1, 3: 2} and blocks == 2 and elapsed < 1.0
    report(2, ok, f"blocks per level {counts}, canonical {blocks}, "
                  f"{elapsed:.3f}s")


def test_criterion_3_periodicity_suite():
    suites = [(build_cyclic(3), (6,)), (build_cyclic(2), (2, 3, 4)),
              (build_metacyclic(MetacyclicParams(3, 2, 2)), (2, 3, 4, 5))]
    t0 = time.perf_counter()
    checked_partitions = checked_deltas = 0
    failures = []
    for G, genera in suites:
        order = G.order
        for g in genera:
            items = census(G, g)
            T = character_table(G, k_max=3 * order, g_max=g)
            trivial = T.degrees.index(1)
            for k in range(1, 2 * order + 1):
                low = {frozenset(b) for b in decompose_at_k(items, T, k).blocks}
                high = {frozenset(b)
                        for b in decompose_at_k(items, T, k + order).blocks}
                checked_partitions += 1
                if low != high:
                    failures.append((G.label, g, k, "partition moved"))
            for v in items:
                for k in range(1, 2 * order + 1):
                    want = tuple(
                        2 * d * (g - 1) - (1 if k == 1 and rho == trivial else 0)
                        for rho, d in enumerate(T.degrees))
                    checked_deltas += 1
                    if periodicity_delta(v, T, k) != want:
                        failures.append((G.label, g, k, "delta off"))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    report(3, ok, f"{checked_partitions} partition pairs and "
                  f"{checked_deltas} deltas, {len(failures)} failures, "
                  f"{elapsed:.1f}s")


def test_criterion_4_dimension_identity(catalog_le_12):
    rng = random.Random(4)
    sampled = 0
    failures = []
    for g in (2, 3):
        for label, G in catalog_le_12:
            if sampled >= 520 and g > 2:
                break
            items = census(G, g) if G.order > 1 or g == 2 else []
            if not items:
                continue
            pick = items if len(items) <= 30 else rng.sample(items, 30)
            T = character_table(G, k_max=2 * G.order, g_max=g)
            for v in pick:
                sampled += 1
                if sum(m * d for m, d in
                       zip(cw_character(v, T, 1).mults, T.degrees)) != g:
                    failures.append((label, v, 1))
                for k in range(2, 2 * G.order + 1):
                    total = sum(m * d for m, d in
                                zip(cw_character(v, T, k).mults, T.degrees))
                    if total != (2 * k - 1) * (g - 1):
                        failures.append((label, v, k))
    ok = sampled >= 500 and not failures
    report(4, ok, f"{sampled} vectors, {len(failures)} failures")


def test_criterion_5_free_action_regular_law(catalog_le_12):
    checked = 0
    failures = []
    for label, G in catalog_le_12:
        datum = BranchingData(2, ())
        vectors = list(enumerate_hurwitz_vectors(G, datum))
        T = character_table(G, k_max=2 * G.order, g_max=genus(datum, G))
        for v in vectors:
            checked += 1
            for k in range(2, 2 * G.order + 1):
                if regular_multiple(cw_character(v, T, k), T) != 2 * k - 1:
                    failures.append((label, v, k))
    report(5, checked > 0 and not failures,
           f"{checked} free vectors over {len(catalog_le_12)} groups, "
           f"{len(failures)} failures")


def _dual_rows(factors, wp):
    # characters of prod Z/f as residue rows, one element id per column
    e = math.lcm(*factors)
    n = math.prod(factors)
    rows = set()
    for t in itertools.product(*[range(f) for f in factors]):
        row = []
        for x in range(n):
            digits, rem = [], x
            for f in reversed(factors):
                digits.append(rem % f)
                rem //= f
            digits.reverse()
            row.append(wp.unity_root(sum(
                (e // f) * tj * xj
                for f, tj, xj in zip(factors, t, digits))))
        rows.add(tuple(row))
    assert len(rows) == n
    return rows


def test_criterion_6_character_table_suite(catalog):
    failures = []
    for label, G in catalog:
        T = character_table(G)
        s, p = T.class_count, T.prime.p
        inv = [T.classes.inverse_class(c) for c in range(s)]
        for a in range(s):
            for b in range(s):
                if inner_product(T, T.values[a].tolist(), b) != \
                        (1 if a == b else 0):
                    failures.append((label, "rows", a, b))
        for c in range(s):
            for d in range(s):
                total = sum(row[c] * row[inv[d]]
                            for row in T.values.tolist()) % p
                want = G.order // T.classes.class_sizes[c] % p if c == d else 0
                if total != want:
                    failures.append((label, "columns", c, d))
        if sum(d * d for d in T.degrees) != G.order:
            failures.append((label, "degree squares"))
        if G.is_abelian():
            kind, _, spec = label.partition(":")
            if kind == "cyclic":
                factors = (int(spec),)
            elif kind == "abelian":
                factors = tuple(int(f) for f in spec.split(","))
            else:
                factors = None  # metacyclic r=1 spelling; no label oracle
            if factors is not None:
                got = set(map(tuple, T.values.tolist()))
                if got != _dual_rows(factors, T.prime):
                    failures.append((label, "dual oracle"))
    for triple, degrees in (((3, 2, 2), (1, 1, 2)),
                            ((4, 2, 3), (1, 1, 1, 1, 2))):
        T = character_table(build_metacyclic(MetacyclicParams(*triple)))
        if tuple(sorted(T.degrees)) != degrees:
            failures.append((triple, "degrees"))
    report(6, not failures,
           f"{len(catalog)} groups of order <= 24, {len(failures)} failures")


def test_criterion_7_enumeration_counts():
    # brute-force filters written out literally, no library group arithmetic
    brute3_3 = [t for t in itertools.product((1, 2), repeat=3)
                if sum(t) % 3 == 0]
    brute3_8 = [t for t in itertools.product((1, 2), repeat=8)
                if sum(t) % 3 == 0]
    brute2_6 = [t for t in itertools.product((1,), repeat=6)
                if sum(t) % 2 == 0]

    Z3, Z2 = build_cyclic(3), build_cyclic(2)
    got3_3 = list(enumerate_hurwitz_vectors(Z3, BranchingData(0, (3,) * 3)))
    got3_8 = list(enumerate_hurwitz_vectors(Z3, BranchingData(0, (3,) * 8)))
    got2_6 = list(enumerate_hurwitz_vectors(Z2, BranchingData(0, (2,) * 6)))
    data = [(d.g_quot, d.branch_orders)
            for d in enumerate_branching_data(Z3, 6)]

    counts = (len(got3_3), len(got3_8), len(got2_6))
    brute = (len(brute3_3), len(brute3_8), len(brute2_6))
    ok = (counts == brute == (2, 86, 1)
          and data == [(0, (3,) * 8), (1, (3,) * 5), (2, (3, 3))])
    report(7, ok, f"counts {counts} vs brute {brute}, "
                  f"{len(data)} branching data")


def test_criterion_8_schur_formula_and_bounds():
    failures = []
    for m in range(3, 13):
        if schur_multiplier_order(MetacyclicParams(m, 2, m - 1)).d != \
                math.gcd(m, 2):
            failures.append(("dihedral", m))
    for m in range(1, 13):
        for n in range(1, 13):
            if schur_multiplier_order(MetacyclicParams(m, n, 1)).d != \
                    math.gcd(m, n):
                failures.append(("abelian", m, n))
    if rr_component_lower_bound(MetacyclicParams(4, 2, 3), 9) != 2:
        failures.append(("D4", 9))
    if rr_component_lower_bound(MetacyclicParams(3, 2, 2), 7) != 1:
        failures.append(("S3", 7))
    report(8, not failures, f"154 closed-form cases and 2 bounds, "
                            f"{len(failures)} failures")


def _braid_move(G, branches, i):
    c = list(branches)
    c[i], c[i + 1] = c[i + 1], G.mul(G.mul(G.inv(c[i + 1]), c[i]), c[i + 1])
    return tuple(c)


def test_criterion_9_invariance_fuzz():
    rng = random.Random(99)
    pools = []
    for G, g in [(build_cyclic(3), 6), (build_cyclic(2), 3),
                 (build_metacyclic(MetacyclicParams(3, 2, 2)), 3),
                 (build_metacyclic(MetacyclicParams(4, 2, 3)), 3)]:
        T = character_table(G, k_max=2 * G.order, g_max=g)
        pools.append((G, T, census(G, g)))
    failures = 0
    for _ in range(1000):
        G, T, items = pools[rng.randrange(len(pools))]
        v = items[rng.randrange(len(items))]
        w = conjugate_vector(v, G, rng.randrange(G.order))
        branches = w.branches
        if G.is_abelian():
            order = list(range(len(branches)))
            rng.shuffle(order)
            branches = tuple(branches[i] for i in order)
        else:
            for _ in range(rng.randrange(4)):
                if len(branches) > 1:
                    branches = _braid_move(G, branches,
                                           rng.randrange(len(branches) - 1))
        w = HurwitzVector(w.g_quot, w.handles, branches)
        validate(w, G)
        for k in rng.sample(range(1, 2 * G.order + 1), 3):
            if cw_character(w, T, k).mults != cw_character(v, T, k).mults:
                failures += 1
    report(9, failures == 0, f"1000 fuzz cases, {failures} failures")
