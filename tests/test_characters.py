"""Character tables against independent oracles.

Abelian tables are checked against characters built directly from the factor
decomposition; small nonabelian tables against hand-computed rows keyed by
class size, so no class-ordering assumption leaks in.
"""

import math
import random
from functools import lru_cache
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest

from cwmoduli import (
    InternalConsistencyError,
    MetacyclicParams,
    build_abelian,
    build_cyclic,
    build_from_permutations,
    build_metacyclic,
    character_table,
    conjugacy_classes,
    eigenvalue_counts,
    eigenvalue_multiplicities,
    group_from_spec,
    inner_product,
    rational_character_value,
    rational_character_values,
    recover_integer,
)
from cwmoduli import characters
from cwmoduli.characters import (ROOT_EVAL_PRIME_LIMIT, _characters_from_vectors,
                                 _check_common_eigenvectors, _class_matrix, _matmul_mod,
                                 _roots_at, _splitting_order)
from cwmoduli.groups import DEFAULT_ORDER_CAP, greedy_generators
from cwmoduli.modular import _is_prime, choose_prime

from conftest import ABELIAN_FACTOR_LISTS, S4_PERM_GENS, count_rows


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


# groups with characters rational at an element but irrational at its powers:
# the modular group of order 16, its order-32 analogue, C9 : C3, A4 x C5 and
# an order-512 metacyclic group
MIXED_RATIONALITY_SPECS = ["metacyclic:8,2,5", "metacyclic:16,2,9", "metacyclic:9,3,4",
                           "perm:(1,2,3);(2,3,4);(5,6,7,8,9)", "metacyclic:32,16,3"]


def int_poly_divmod(f, g):
    """Quotient and remainder of integer polynomials, g monic (ascending coefficients)."""
    rem = list(f)
    dg = len(g) - 1
    quot = [0] * max(len(f) - dg, 1)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = quot[i - dg] = rem[i]
        for j, gj in enumerate(g):
            rem[i - dg + j] -= c * gj
    return quot, rem[:dg]


@lru_cache(maxsize=None)
def cyclotomic(m):
    """Phi_m: x^m - 1 divided by Phi_d for every proper divisor d of m."""
    f = [-1] + [0] * (m - 1) + [1]
    for d in range(1, m):
        if m % d == 0:
            f, rem = int_poly_divmod(f, cyclotomic(d))
            assert not any(rem)
    return tuple(f)


def row_as_size_value_multiset(T, rho):
    vals = [rational_character_value(T, rho, j) for j in range(T.class_count)]
    assert all(v is not None for v in vals)
    return tuple(sorted(zip(T.classes.class_sizes, vals)))


class TestAbelianTables:
    def test_against_dual_group(self):
        for factors in [(2,), (3,), (6,), (12,)] + list(ABELIAN_FACTOR_LISTS):
            G = build_abelian(factors)
            T = character_table(G)
            got = set(map(tuple, T.values.tolist()))
            assert got == dual_characters(factors, T.prime)

    def test_all_degrees_one(self):
        T = character_table(build_abelian([2, 2, 2, 3]))
        assert T.degrees == (1,) * 24

    def test_trivial_group(self):
        T = character_table(build_cyclic(1))
        assert T.degrees == (1,)
        assert T.values[0].tolist() == [1]

    def test_z3_exact_rows(self):
        T = character_table(build_cyclic(3))
        p = T.prime.p
        zeta = T.prime.unity_root(T.prime.e // 3)
        rows = set(map(tuple, T.values.tolist()))
        assert rows == {(1, 1, 1),
                        (1, zeta, zeta * zeta % p),
                        (1, zeta * zeta % p, zeta)}
        assert T.values[0].tolist() == [1, 1, 1]


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

    def test_a6_degrees(self):
        T = character_table(build_from_permutations(["(1,2,3)", "(2,3,4,5,6)"]))
        assert sorted(T.degrees) == [1, 5, 5, 8, 8, 9, 10]

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
                    got = inner_product(T, T.values[a].tolist(), b)
                    assert got == (1 if a == b else 0)

    def test_columns(self, catalog_le_12):
        for _, G in catalog_le_12:
            T = character_table(G)
            p = T.prime.p
            s = T.class_count
            for c in range(s):
                for d in range(s):
                    total = sum(
                        row[c] * row[T.classes.inverse_class(d)]
                        for row in T.values.tolist()) % p
                    if c == d:
                        assert total == G.order // T.classes.class_sizes[c] % p
                    else:
                        assert total == 0

    def test_degree_squares_sum_to_order(self, catalog):
        for _, G in catalog:
            T = character_table(G)
            assert sum(d * d for d in T.degrees) == G.order


class TestEigenvalueMultiplicities:
    def test_trivial_character(self, s3_table):
        for c in range(6):
            counts = eigenvalue_multiplicities(s3_table, 0, c)
            assert counts[0] == 1
            assert sum(counts) == 1

    def test_z3_example(self, z3_table):
        T = z3_table
        zeta = T.prime.unity_root(T.prime.e // 3)
        # the character sending the generator to zeta has rho(2) = zeta^2
        rho = next(i for i in range(3) if T.values[i, 1] == zeta)
        assert eigenvalue_multiplicities(T, rho, 2) == (0, 0, 1)
        assert eigenvalue_multiplicities(T, rho, 1) == (0, 1, 0)
        other = 3 - rho  # indices 1 and 2 are the two nontrivial characters
        assert eigenvalue_multiplicities(T, other, 2) == (0, 1, 0)

    def test_s3_standard_character(self, s3_table):
        T = s3_table
        # reflection: eigenvalues 1 and -1; rotation: both primitive cube roots
        assert eigenvalue_multiplicities(T, 2, 1) == (1, 1)
        assert eigenvalue_multiplicities(T, 2, 2) == (0, 1, 1)
        assert eigenvalue_multiplicities(T, 2, 0) == (2,)

    def test_constant_on_classes(self, catalog_le_12):
        rng = random.Random(17)
        for _, G in catalog_le_12:
            T = character_table(G)
            for _ in range(10):
                rho = rng.randrange(T.class_count)
                cls = rng.randrange(T.class_count)
                members = sorted(T.classes.members(cls))
                base = eigenvalue_multiplicities(T, rho, members[0])
                assert sum(base) == T.degrees[rho]
                for c in members[1:]:
                    assert eigenvalue_multiplicities(T, rho, c) == base

    def test_counts_recover_the_value(self, catalog_le_12):
        # sum of counts[a] * zeta_m^a must reproduce the residue
        for _, G in catalog_le_12:
            T = character_table(G)
            p, e = T.prime.p, T.prime.e
            for rho in range(T.class_count):
                for cls in range(T.class_count):
                    rep = T.classes.representatives[cls]
                    counts = eigenvalue_multiplicities(T, rho, rep)
                    zeta = T.prime.unity_root(e // len(counts))
                    val = sum(n * pow(zeta, a, p) for a, n in enumerate(counts)) % p
                    assert val == T.values[rho, cls]


class TestInnerProduct:
    def test_regular_representation(self, catalog_le_12):
        for _, G in catalog_le_12:
            T = character_table(G)
            p = T.prime.p
            reg = [
                sum(d * row[j] for d, row in zip(T.degrees, T.values.tolist())) % p
                for j in range(T.class_count)
            ]
            for b, d in enumerate(T.degrees):
                assert inner_product(T, reg, b) == d

    def test_scaled_sum(self, z3_table):
        T = z3_table
        p = T.prime.p
        a = [sum(row[j] for row in T.values.tolist()) * 2 % p for j in range(3)]
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

    def test_cyclotomic_oracle(self, catalog_le_12):
        """chi(g) = sum_a N[a] zeta_m^a is rational iff the sum reduced mod Phi_m is constant.

        Integer arithmetic on the eigenvalue counts only; no residue is read.
        The catalog's cyclic:1 is the trivial group.
        """
        groups = [G for _, G in catalog_le_12]
        groups += [group_from_spec(spec) for spec in MIXED_RATIONALITY_SPECS]
        for G in groups:
            T = character_table(G)
            s = T.class_count
            expect = [[None] * s for _ in range(s)]
            for cls in range(s):
                N = eigenvalue_counts(T, cls)
                phi = cyclotomic(N.shape[1])
                for rho in range(s):
                    rem = int_poly_divmod(N[rho].tolist(), phi)[1]
                    expect[rho][cls] = None if any(rem[1:]) else rem[0]
                    assert rational_character_value(T, rho, cls) == expect[rho][cls], \
                        (G.label, rho, cls)
            # the whole matrix in one step, as group-info reads it, and a slice
            assert rational_character_values(T) == expect, G.label
            assert rational_character_values(T, [s - 1, 0], slice(1, None)) == [
                expect[s - 1][1:], expect[0][1:]]

    def test_all_rational_groups(self):
        for G in [build_metacyclic(MetacyclicParams(3, 2, 2)),
                  build_metacyclic(MetacyclicParams(4, 2, 3)),
                  build_from_permutations(S4_PERM_GENS)]:
            T = character_table(G)
            for rho in range(T.class_count):
                for j in range(T.class_count):
                    assert rational_character_value(T, rho, j) is not None


class TestDeterminism:
    def test_same_seed_identical(self):
        G = build_metacyclic(MetacyclicParams(5, 4, 2))
        a = character_table(G, seed=0)
        b = character_table(G, seed=0)
        assert a.degrees == b.degrees
        assert np.array_equal(a.values, b.values)
        assert a.prime == b.prime

    def test_values_independent_of_seed(self):
        # the seed changes nothing: the prime and its root of unity both come
        # from deterministic searches
        G = build_from_permutations(S4_PERM_GENS)
        rows0 = character_table(G, seed=0).values
        rows7 = character_table(G, seed=7).values
        assert rows0.tolist() == rows7.tolist()

    def test_trivial_character_first_and_sorted(self, catalog):
        for _, G in catalog:
            T = character_table(G)
            assert T.values[0].tolist() == [1] * T.class_count
            keys = [(d, tuple(recover_integer(v, T.prime) for v in row))
                    for d, row in zip(T.degrees[1:], T.values[1:].tolist())]
            assert keys == sorted(keys)
            assert T.values.shape == (T.class_count, T.class_count)
            assert len(T.degrees) == T.class_count

    def test_values_read_only_and_degrees_python_ints(self, s3_table):
        with pytest.raises(ValueError):
            s3_table.values[0, 0] = 2
        assert s3_table.values.dtype == np.int64
        assert all(type(d) is int for d in s3_table.degrees)

    def test_fingerprints_distinct(self, catalog_le_12):
        for _, G in catalog_le_12:
            T = character_table(G)
            assert len(set(count_rows(T))) == T.class_count


def eigenvector_rows(T):
    """Rows w_j = |C_j| chi(g_j) / chi(1) mod p, one per character."""
    p = T.prime.p
    sizes = np.array(T.classes.class_sizes, dtype=np.int64)
    return np.array([row * sizes % p * pow(d, p - 2, p) % p
                     for d, row in zip(T.degrees, T.values)], dtype=np.int64)


class TestSpinChecks:
    """The assertions that guard the spinning split must reject bad vectors."""

    @pytest.fixture(scope="class")
    def setup(self):
        G = build_metacyclic(MetacyclicParams(5, 4, 2))
        T = character_table(G)
        mats = [_class_matrix(G, T.classes, i) for i in range(T.class_count)]
        return G, T, mats, eigenvector_rows(T)

    def test_true_eigenvectors_pass(self, setup):
        G, T, mats, W = setup
        _check_common_eigenvectors(mats, W, T.prime.p)
        degrees, X = _characters_from_vectors(G, T.classes, T.prime, W)
        assert sorted(degrees.tolist()) == sorted(T.degrees)

    def test_corrupted_coordinate_is_rejected(self, setup):
        G, T, mats, W = setup
        bad = W.copy()
        bad[2, 3] = (bad[2, 3] + 1) % T.prime.p
        with pytest.raises(InternalConsistencyError, match="not eigenvectors"):
            _check_common_eigenvectors(mats, bad, T.prime.p)

    def test_duplicated_eigenvalue_tuple_is_rejected(self, setup):
        G, T, mats, W = setup
        bad = W.copy()
        bad[1] = bad[2]
        with pytest.raises(InternalConsistencyError, match="share their eigenvalues"):
            _check_common_eigenvectors(mats, bad, T.prime.p)

    def test_duplicated_character_fails_orthogonality(self, setup):
        G, T, mats, W = setup
        bad = W.copy()
        bad[1] = bad[2]
        with pytest.raises(InternalConsistencyError, match="not orthonormal"):
            _characters_from_vectors(G, T.classes, T.prime, bad)

    def test_generator_classes_come_first(self):
        for G in [build_from_permutations(["(1,2,3)", "(2,3,4,5,6)"]),
                  build_abelian([2] * 8), build_metacyclic(MetacyclicParams(32, 16, 3))]:
            conj = conjugacy_classes(G)
            order = _splitting_order(G, conj)
            first = list(dict.fromkeys(int(conj.class_of[g])
                                       for g in greedy_generators(G.mul_rows())))
            assert order[:len(first)] == first
            assert sorted(order) == list(range(1, conj.class_count))


class TestExactArithmetic:
    """The numpy field arithmetic against Python integers.

    The primes are small, the two on each side of ROOT_EVAL_PRIME_LIMIT (so
    roots are sought among every residue and among candidates), and 31-bit,
    where the Horner scheme reduces at every step.
    """

    PRIMES = [7681, 32749, 32771, 2 ** 31 - 1]

    def test_primes_straddle_the_evaluation_limit(self):
        assert all(_is_prime(p) for p in self.PRIMES)
        assert 32749 <= ROOT_EVAL_PRIME_LIMIT < 32771
        assert not any(_is_prime(q) for q in range(32750, 32771))

    def test_matmul_mod(self):
        rng = np.random.default_rng(5)
        for p in self.PRIMES:
            A = rng.integers(0, p, size=(3, 512))
            B = rng.integers(0, p, size=(512, 4))
            expect = [[sum(int(a) * int(b) for a, b in zip(row, col)) % p for col in B.T]
                      for row in A]
            assert _matmul_mod(A, B, p).tolist() == expect

    def test_poly_mul_and_roots(self):
        for p in self.PRIMES:
            rng = random.Random(p)
            picks = rng.sample(range(p), 240)
            roots = picks[:40]
            f = [1]
            for r in roots:  # f *= (x - r) in Python integers
                f = [((f[i - 1] if i else 0) - r * (f[i] if i < len(f) else 0)) % p
                     for i in range(len(f) + 1)]
            assert all(sum(c * pow(r, i, p) for i, c in enumerate(f)) % p == 0
                       for r in roots)
            f = np.array(f, dtype=np.int64)
            candidates = np.array(sorted(picks), dtype=np.int64)
            assert _roots_at(f, p, candidates).tolist() == sorted(roots)
            if p <= ROOT_EVAL_PRIME_LIMIT:
                everything = np.arange(p, dtype=np.int64)
                assert _roots_at(f, p, everything).tolist() == sorted(roots)


# the group-info units of the benchmark's tables workload
TABLES_SPECS = ["abelian:2,2,2,2,2,2,2", "cyclic:40", "metacyclic:48,2,47",
                "perm:(1,2,3);(2,3,4,5,6)", "metacyclic:13,12,2"]


class TestRootsByEvaluation:
    """Roots among the base table's central characters, against every residue."""

    def test_candidate_tables_equal_the_exhaustive_tables(self, catalog, monkeypatch):
        # k_max = 3 sizes a prime other than the default one, still below 2^15
        groups = catalog + [(spec, group_from_spec(spec)) for spec in TABLES_SPECS]
        exhaustive = [character_table(G, k_max=3) for _, G in groups]
        assert all(T.prime.p <= ROOT_EVAL_PRIME_LIMIT for T in exhaustive)
        assert all(T.prime != choose_prime(G) for T, (_, G) in zip(exhaustive, groups))
        calls = []
        central = characters._central_characters
        monkeypatch.setattr(characters, "_central_characters",
                            lambda *a: calls.append(a) or central(*a))
        monkeypatch.setattr(characters, "ROOT_EVAL_PRIME_LIMIT", 0)
        for (label, G), T in zip(groups, exhaustive):
            R = character_table(G, k_max=3)
            assert R.prime == T.prime, label
            assert R.degrees == T.degrees, label
            assert np.array_equal(R.values, T.values), label
        assert len(calls) >= len(groups) - 1  # the trivial group never splits

    def test_a_missing_candidate_raises(self, monkeypatch):
        G = build_metacyclic(MetacyclicParams(5, 4, 2))
        central = characters._central_characters

        def drop_largest(*args):
            return central(*args)[:-1]

        monkeypatch.setattr(characters, "_central_characters", drop_largest)
        monkeypatch.setattr(characters, "ROOT_EVAL_PRIME_LIMIT", 0)
        with pytest.raises(InternalConsistencyError, match="roots among"):
            character_table(G)

    def test_every_default_prime_under_the_cap_is_evaluated(self):
        # choose_prime reads only the order and the exponent, which divides it
        worst = max(choose_prime(SimpleNamespace(order=n, exponent=lambda e=e: e)).p
                    for n in range(1, DEFAULT_ORDER_CAP + 1)
                    for e in range(1, n + 1) if n % e == 0)
        assert worst == 13711 <= ROOT_EVAL_PRIME_LIMIT

    def test_cyclic_512_splits_by_evaluation(self):
        # its default prime, and a degree as large as its class count: the
        # minimal polynomial x^512 - 1 of a generator's class matrix on e_0
        G = build_cyclic(DEFAULT_ORDER_CAP)
        wp = choose_prime(G)
        assert (wp.p, conjugacy_classes(G).class_count) == (7681, 512)
        assert wp.p <= ROOT_EVAL_PRIME_LIMIT
        f = np.zeros(513, dtype=np.int64)
        f[[0, 512]] = [wp.p - 1, 1]
        everything = np.arange(wp.p, dtype=np.int64)
        assert _roots_at(f, wp.p, everything).tolist() == sorted(
            wp.unity_root(j) for j in range(512))


class TestOrderCap:
    """Tables at order 256 and 512, checked by both orthogonality relations."""

    @pytest.mark.parametrize("G", [
        build_cyclic(256),
        build_abelian([2] * 8),
        build_metacyclic(MetacyclicParams(32, 16, 3)),
    ], ids=["cyclic:256", "abelian:2^8", "metacyclic:32,16,3"])
    def test_orthogonality_and_fingerprints(self, G):
        T = character_table(G)
        p, s = T.prime.p, T.class_count
        assert p * p * s < 2 ** 63  # plain int64 products below are exact
        X = T.values
        sizes = np.array(T.classes.class_sizes, dtype=np.int64)
        inv = [T.classes.inverse_class(j) for j in range(s)]
        rows = X @ (X[:, inv] * sizes % p).T % p
        assert np.array_equal(rows, G.order % p * np.eye(s, dtype=np.int64))
        cols = X.T @ X[:, inv] % p
        assert np.array_equal(cols, np.diag(G.order // sizes % p))
        assert sum(d * d for d in T.degrees) == G.order
        assert len(set(count_rows(T))) == s
        # degrees <= sqrt(|G|) <= 22, so each cached count matrix holds bytes
        assert all(eigenvalue_counts(T, cls).itemsize == 1 for cls in range(s))
