"""Character tables against independent oracles.

Abelian tables are checked against characters built directly from the factor
decomposition; small nonabelian tables against hand-computed rows keyed by
class size, so no class-ordering assumption leaks in.
"""

import math
import random
from itertools import permutations, product

import numpy as np
import pytest

from cwmoduli import (
    InternalConsistencyError,
    MetacyclicParams,
    build_abelian,
    build_cyclic,
    build_from_permutations,
    build_metacyclic,
    character_fingerprint,
    character_table,
    eigenvalue_multiplicities,
    inner_product,
    rational_character_value,
)
from cwmoduli.characters import _charpoly_mod

from conftest import ABELIAN_FACTOR_LISTS, S4_PERM_GENS


def dual_characters(factors, wp):
    """All characters of prod Z/n_j, as residue rows indexed by element id."""
    e = math.lcm(*factors)
    assert wp.e == e
    n = math.prod(factors)
    rows = set()
    for t in product(*[range(f) for f in factors]):
        row = []
        for x in range(n):
            digits = []
            rem = x
            for f in reversed(factors):
                digits.append(rem % f)
                rem //= f
            digits.reverse()
            phase = sum((e // f) * tj * xj for f, tj, xj in zip(factors, t, digits))
            row.append(wp.unity_root(phase))
        rows.add(tuple(row))
    assert len(rows) == n
    return rows


def row_as_size_value_multiset(T, rho):
    vals = [rational_character_value(T, rho, j) for j in range(T.class_count)]
    assert all(v is not None for v in vals)
    return tuple(sorted(zip(T.classes.class_sizes, vals)))


class TestAbelianTables:
    def test_against_dual_group(self):
        for factors in [(2,), (3,), (6,), (12,)] + list(ABELIAN_FACTOR_LISTS):
            G = build_abelian(factors)
            T = character_table(G)
            got = {chi.values for chi in T.irreducibles}
            assert got == dual_characters(factors, T.prime)

    def test_all_degrees_one(self):
        T = character_table(build_abelian([2, 2, 2, 3]))
        assert T.degrees == (1,) * 24

    def test_trivial_group(self):
        T = character_table(build_cyclic(1))
        assert T.degrees == (1,)
        assert T.irreducibles[0].values == (1,)

    def test_z3_exact_rows(self):
        T = character_table(build_cyclic(3))
        p = T.prime.p
        zeta = T.prime.unity_root(T.prime.e // 3)
        rows = {chi.values for chi in T.irreducibles}
        assert rows == {(1, 1, 1),
                        (1, zeta, zeta * zeta % p),
                        (1, zeta * zeta % p, zeta)}
        assert T.irreducibles[0].values == (1, 1, 1)


class TestNonabelianTables:
    def test_s3(self, s3_table):
        T = s3_table
        assert T.classes.class_sizes == (1, 3, 2)
        assert T.degrees == (1, 1, 2)
        expected = {
            ((1, 1), (2, 1), (3, 1)),
            ((1, 1), (2, 1), (3, -1)),
            ((1, 2), (2, -1), (3, 0)),
        }
        got = {row_as_size_value_multiset(T, rho) for rho in range(3)}
        assert got == expected

    def test_d4_exact_grid(self):
        T = character_table(build_metacyclic(MetacyclicParams(4, 2, 3)))
        assert T.classes.class_sizes == (1, 2, 2, 2, 1)
        grid = [
            [rational_character_value(T, rho, j) for j in range(5)]
            for rho in range(5)
        ]
        assert grid == [
            [1, 1, 1, 1, 1],
            [1, -1, -1, 1, 1],
            [1, -1, 1, -1, 1],
            [1, 1, -1, -1, 1],
            [2, 0, 0, 0, -2],
        ]

    def test_q8(self):
        G = build_from_permutations(["(1,2,3,4)(5,6,7,8)", "(1,5,3,7)(2,8,4,6)"])
        T = character_table(G)
        assert sorted(T.degrees) == [1, 1, 1, 1, 2]
        rho2 = T.degrees.index(2)
        center = [j for j in range(T.class_count)
                  if T.classes.class_sizes[j] == 1 and j != 0]
        assert len(center) == 1
        assert rational_character_value(T, rho2, center[0]) == -2
        for j in range(T.class_count):
            if T.classes.class_sizes[j] == 2:
                assert rational_character_value(T, rho2, j) == 0

    def test_s4_full_table(self):
        G = build_from_permutations(S4_PERM_GENS)
        T = character_table(G)
        assert sorted(T.degrees) == [1, 1, 2, 3, 3]
        assert sorted(T.classes.class_sizes) == [1, 3, 6, 6, 8]
        expected = {
            ((1, 1), (3, 1), (6, 1), (6, 1), (8, 1)),
            ((1, 1), (3, 1), (6, -1), (6, -1), (8, 1)),
            ((1, 2), (3, 2), (6, 0), (6, 0), (8, -1)),
            # both degree-3 characters give this multiset
            ((1, 3), (3, -1), (6, -1), (6, 1), (8, 0)),
        }
        got = {row_as_size_value_multiset(T, rho) for rho in range(5)}
        assert got == expected
        # the degree-3 pair differs on transpositions (size 6, order 2)
        # versus four-cycles (size 6, order 4)
        transp = next(j for j in range(5) if T.classes.class_sizes[j] == 6
                      and G.elem_order(T.classes.representatives[j]) == 2)
        cyc4 = next(j for j in range(5) if T.classes.class_sizes[j] == 6
                    and G.elem_order(T.classes.representatives[j]) == 4)
        deg3 = sorted(
            (rational_character_value(T, rho, transp),
             rational_character_value(T, rho, cyc4))
            for rho in range(5) if T.degrees[rho] == 3)
        assert deg3 == [(-1, 1), (1, -1)]

    def test_frobenius21_degrees(self):
        T = character_table(build_metacyclic(MetacyclicParams(7, 3, 2)))
        assert sorted(T.degrees) == [1, 1, 1, 3, 3]


class TestOrthogonality:
    def test_rows(self, catalog_le_12):
        for _, G in catalog_le_12:
            T = character_table(G)
            s = T.class_count
            for a in range(s):
                for b in range(s):
                    got = inner_product(T, list(T.irreducibles[a].values), b)
                    assert got == (1 if a == b else 0)

    def test_columns(self, catalog_le_12):
        for _, G in catalog_le_12:
            T = character_table(G)
            p = T.prime.p
            s = T.class_count
            for c in range(s):
                for d in range(s):
                    total = sum(
                        chi.values[c] * chi.values[T.classes.inverse_class(d)]
                        for chi in T.irreducibles) % p
                    if c == d:
                        assert total == G.order // T.classes.class_sizes[c] % p
                    else:
                        assert total == 0

    def test_degree_squares_sum_to_order(self, catalog):
        for _, G in catalog:
            T = character_table(G)
            assert sum(d * d for d in T.degrees) == G.order
            assert T.regular_character == T.degrees


class TestEigenvalueMultiplicities:
    def test_trivial_character(self, s3_table):
        for c in range(6):
            em = eigenvalue_multiplicities(s3_table, 0, c)
            assert em.counts[0] == 1
            assert sum(em.counts) == 1

    def test_z3_example(self, z3_table):
        T = z3_table
        zeta = T.prime.unity_root(T.prime.e // 3)
        # the character sending the generator to zeta has rho(2) = zeta^2
        rho = next(i for i in range(3) if T.irreducibles[i].values[1] == zeta)
        assert eigenvalue_multiplicities(T, rho, 2).counts == (0, 0, 1)
        assert eigenvalue_multiplicities(T, rho, 1).counts == (0, 1, 0)
        other = 3 - rho  # indices 1 and 2 are the two nontrivial characters
        assert eigenvalue_multiplicities(T, other, 2).counts == (0, 1, 0)

    def test_s3_standard_character(self, s3_table):
        T = s3_table
        # reflection: eigenvalues 1 and -1; rotation: both primitive cube roots
        assert eigenvalue_multiplicities(T, 2, 1).counts == (1, 1)
        assert eigenvalue_multiplicities(T, 2, 2).counts == (0, 1, 1)
        assert eigenvalue_multiplicities(T, 2, 0).counts == (2,)

    def test_constant_on_classes(self, catalog_le_12):
        rng = random.Random(17)
        for _, G in catalog_le_12:
            T = character_table(G)
            for _ in range(10):
                rho = rng.randrange(len(T.irreducibles))
                cls = rng.randrange(T.class_count)
                members = sorted(T.classes.members(cls))
                base = eigenvalue_multiplicities(T, rho, members[0])
                assert sum(base.counts) == T.irreducibles[rho].degree
                for c in members[1:]:
                    assert eigenvalue_multiplicities(T, rho, c) == base

    def test_counts_recover_the_value(self, catalog_le_12):
        # sum of counts[a] * zeta_m^a must reproduce the residue
        for _, G in catalog_le_12:
            T = character_table(G)
            p, e = T.prime.p, T.prime.e
            for rho in range(len(T.irreducibles)):
                for cls in range(T.class_count):
                    rep = T.classes.representatives[cls]
                    em = eigenvalue_multiplicities(T, rho, rep)
                    zeta = T.prime.unity_root(e // em.m)
                    val = sum(n * pow(zeta, a, p) for a, n in enumerate(em.counts)) % p
                    assert val == T.irreducibles[rho].values[cls]


class TestInnerProduct:
    def test_regular_representation(self, catalog_le_12):
        for _, G in catalog_le_12:
            T = character_table(G)
            p = T.prime.p
            reg = [
                sum(chi.degree * chi.values[j] for chi in T.irreducibles) % p
                for j in range(T.class_count)
            ]
            for b, d in enumerate(T.degrees):
                assert inner_product(T, reg, b) == d

    def test_scaled_sum(self, z3_table):
        T = z3_table
        p = T.prime.p
        a = [sum(chi.values[j] for chi in T.irreducibles) * 2 % p for j in range(3)]
        assert [inner_product(T, a, b) for b in range(3)] == [2, 2, 2]

    def test_length_check(self, z3_table):
        with pytest.raises(ValueError):
            inner_product(z3_table, [1, 1], 0)


class TestRationality:
    def test_z4_partial(self):
        T = character_table(build_cyclic(4))
        faithful = [rho for rho in range(4)
                    if rational_character_value(T, rho, 1) is None]
        assert len(faithful) == 2
        for rho in faithful:
            assert rational_character_value(T, rho, 2) == -1

    def test_all_rational_groups(self):
        for G in [build_metacyclic(MetacyclicParams(3, 2, 2)),
                  build_metacyclic(MetacyclicParams(4, 2, 3)),
                  build_from_permutations(S4_PERM_GENS)]:
            T = character_table(G)
            for rho in range(len(T.irreducibles)):
                for j in range(T.class_count):
                    assert rational_character_value(T, rho, j) is not None


class TestDeterminism:
    def test_same_seed_identical(self):
        G = build_metacyclic(MetacyclicParams(5, 4, 2))
        a = character_table(G, seed=0)
        b = character_table(G, seed=0)
        assert a.irreducibles == b.irreducibles
        assert a.prime == b.prime

    def test_values_independent_of_seed(self):
        # the seed changes nothing: the prime and its root of unity both come
        # from deterministic searches
        G = build_from_permutations(S4_PERM_GENS)
        rows0 = character_table(G, seed=0).irreducibles
        rows7 = character_table(G, seed=7).irreducibles
        assert [c.values for c in rows0] == [c.values for c in rows7]

    def test_trivial_character_first_and_sorted(self, catalog):
        for _, G in catalog:
            T = character_table(G)
            assert T.irreducibles[0].values == (1,) * T.class_count
            degs = T.degrees
            assert list(degs[1:]) == sorted(degs[1:])
            for i, chi in enumerate(T.irreducibles):
                assert chi.index == i

    def test_fingerprints_distinct(self, catalog_le_12):
        for _, G in catalog_le_12:
            T = character_table(G)
            prints = [character_fingerprint(T, rho)
                      for rho in range(len(T.irreducibles))]
            assert len(set(prints)) == len(prints)


class TestCharpoly:
    def test_matches_leibniz_determinant(self):
        p = 101
        rng = random.Random(23)
        for _ in range(20):
            n = rng.randrange(1, 5)
            M = np.array([[rng.randrange(p) for _ in range(n)] for _ in range(n)],
                         dtype=np.int64)
            f = _charpoly_mod(M, p)
            assert len(f) == n + 1
            for x0 in [0, 1, 2, p - 1, rng.randrange(p)]:
                A = [[(x0 if i == j else 0) - M[i, j] for j in range(n)]
                     for i in range(n)]
                det = 0
                for perm in permutations(range(n)):
                    sign = 1
                    seen = [False] * n
                    # count transpositions via cycle structure
                    for start in range(n):
                        if seen[start]:
                            continue
                        length = 0
                        j = start
                        while not seen[j]:
                            seen[j] = True
                            j = perm[j]
                            length += 1
                        if length % 2 == 0:
                            sign = -sign
                    term = sign
                    for i in range(n):
                        term = term * A[i][perm[i]] % p
                    det = (det + term) % p
                val = sum(c * pow(x0, i, p) for i, c in enumerate(f)) % p
                assert val == det
