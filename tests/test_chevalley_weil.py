"""Multiplicity formulas: frozen golden values, dimension identities,
invariance, periodicity, large levels and genera on a default table, and a
prime-field reference evaluation as an oracle for the integer path."""

import itertools
import json
import math
import random
from collections import Counter
from itertools import islice

import numpy as np
import pytest

from cwmoduli import (
    BranchingData,
    EnumerationOptions,
    HurwitzVector,
    InternalConsistencyError,
    MetacyclicParams,
    build_cyclic,
    build_metacyclic,
    character_table,
    conjugacy_classes,
    cw_character,
    decompose_at_k,
    enumerate_branching_data,
    enumerate_hurwitz_rows,
    enumerate_hurwitz_vectors,
    eigenvalue_counts,
    genus,
    group_from_spec,
    NotGenerating,
    OrderViolation,
    periodicity_delta,
    recover_integer,
    regular_multiple,
    RelationViolation,
    stabilization_report,
    validate,
)
from cwmoduli import chevalley_weil, hurwitz
from conftest import conjugate_vector, count_rows, reference_key_terms, root_power_sum


class TestGoldenValues:
    # frozen expectations for the two genus-6 vectors; indices follow the
    # table order (trivial character first)
    EXPECT = {
        "v": {1: (2, 2, 2), 2: (5, 5, 5), 3: (9, 8, 8)},
        "v_alt": {1: (0, 3, 3), 2: (5, 5, 5), 3: (11, 7, 7)},
    }

    def test_frozen_multiplicities(self, z3_table, genus6_vectors):
        v, v_alt = genus6_vectors
        for name, vec in (("v", v), ("v_alt", v_alt)):
            for k, want in self.EXPECT[name].items():
                mv = cw_character(vec, z3_table, k)
                assert mv.k == k
                assert mv.mults == want
                # a cache hit returns the stored frozen object itself
                assert cw_character(vec, z3_table, k) is mv

    def test_the_two_loci_separate_at_k1_fuse_at_k2(self, z3_table, genus6_vectors):
        v, v_alt = genus6_vectors
        assert cw_character(v, z3_table, 1).mults != cw_character(v_alt, z3_table, 1).mults
        assert cw_character(v, z3_table, 2).mults == cw_character(v_alt, z3_table, 2).mults
        assert cw_character(v, z3_table, 3).mults != cw_character(v_alt, z3_table, 3).mults

    def test_single_multiplicity_accessors(self, z3_table, genus6_vectors):
        v, _ = genus6_vectors
        assert list(cw_character(v, z3_table, 1).mults) == [2, 2, 2]
        assert list(cw_character(v, z3_table, 3).mults) == [9, 8, 8]
        with pytest.raises(ValueError):
            cw_character(v, z3_table, 0)

    def test_free_action_golden(self, z2_table):
        free = HurwitzVector(2, (1, 0, 0, 0), ())
        mv = cw_character(free, z2_table, 2)
        assert mv.mults == (3, 3)
        assert regular_multiple(mv, z2_table) == 3


class TestDimensionIdentity:
    def check(self, G, T, v, ks):
        g = genus(v, G)
        degrees = T.degrees
        for k in ks:
            mv = cw_character(v, T, k)
            total = sum(m * d for m, d in zip(mv.mults, degrees))
            assert total == (g if k == 1 else (2 * k - 1) * (g - 1))
            assert all(m >= 0 for m in mv.mults)

    def test_z3_census(self, z3, z3_table):
        for d in enumerate_branching_data(z3, 6):
            for v in enumerate_hurwitz_vectors(z3, d):
                self.check(z3, z3_table, v, range(1, 4))

    def test_s3_sample(self, s3, s3_table):
        rng = random.Random(31)
        for g in (2, 3, 4):
            for d in enumerate_branching_data(s3, g):
                vecs = list(enumerate_hurwitz_vectors(s3, d))
                for v in rng.sample(vecs, min(len(vecs), 10)):
                    self.check(s3, s3_table, v, range(1, 5))

    def test_regular_multiple_of_free_actions(self):
        # unramified vectors: n_k = (2k - 1)(g - 1) / |G| copies of the regular
        # representation for k >= 2
        for spec, G in [("z4", build_cyclic(4)),
                        ("s3", build_metacyclic(MetacyclicParams(3, 2, 2)))]:
            T = character_table(G, k_max=4, g_max=G.order + 1)
            data = BranchingData(2, ())
            g = genus(data, G)
            assert g == G.order + 1
            vecs = list(enumerate_hurwitz_vectors(G, data))
            assert vecs, spec
            for v in vecs[:8]:
                for k in (2, 3, 4):
                    mv = cw_character(v, T, k)
                    n = regular_multiple(mv, T)
                    assert n == (2 * k - 1) * (g - 1) // G.order == 2 * k - 1

    def test_regular_multiple_none_when_not_multiple(self, z3_table, genus6_vectors):
        v, _ = genus6_vectors
        assert regular_multiple(cw_character(v, z3_table, 3), z3_table) is None
        assert regular_multiple(cw_character(v, z3_table, 2), z3_table) == 5


class TestInvariance:
    def test_conjugation_and_braid_moves(self, s3, s3_table):
        # braid moves permute the branch class data without breaking the
        # ordered relation, so they must leave the multiplicities unchanged
        rng = random.Random(37)
        data = BranchingData(0, (2, 2, 3, 3))
        vecs = list(enumerate_hurwitz_vectors(s3, data))
        for _ in range(60):
            v = rng.choice(vecs)
            base = [cw_character(v, s3_table, k).mults for k in (1, 2)]
            h = rng.randrange(6)
            w = conjugate_vector(v, s3, h)
            assert [cw_character(w, s3_table, k).mults for k in (1, 2)] == base
            b = list(v.branches)
            for _ in range(rng.randrange(1, 4)):
                i = rng.randrange(len(b) - 1)
                b[i], b[i + 1] = b[i + 1], s3.mul(s3.mul(s3.inv(b[i + 1]), b[i]),
                                                  b[i + 1])
            w2 = validate(HurwitzVector(0, (), tuple(b)), s3)
            assert [cw_character(w2, s3_table, k).mults for k in (1, 2)] == base

    def test_branch_permutation_abelian(self, z3, z3_table):
        rng = random.Random(41)
        data = BranchingData(0, (3,) * 8)
        vecs = list(enumerate_hurwitz_vectors(z3, data))
        for _ in range(40):
            v = rng.choice(vecs)
            base = cw_character(v, z3_table, 1).mults
            perm = list(v.branches)
            rng.shuffle(perm)
            w = validate(HurwitzVector(0, (), tuple(perm)), z3)
            assert cw_character(w, z3_table, 1).mults == base

    def test_handle_choice_is_immaterial(self, z3, z3_table):
        # with fixed branches, any generating handle assignment gives the same
        # multiplicities for an abelian group
        base = cw_character(HurwitzVector(2, (1, 0, 0, 2), (2, 1)), z3_table, 1).mults
        for handles in [(0, 0, 0, 1), (2, 2, 1, 1), (1, 2, 2, 0)]:
            v = HurwitzVector(2, handles, (2, 1))
            validate(v, z3)
            assert cw_character(v, z3_table, 1).mults == base


class TestPeriodicity:
    def test_frozen_deltas(self, z3_table, z2_table, genus6_vectors):
        v, _ = genus6_vectors
        assert periodicity_delta(v, z3_table, 2) == (10, 10, 10)
        assert periodicity_delta(v, z3_table, 1) == (9, 10, 10)
        free = HurwitzVector(2, (1, 0, 0, 0), ())
        assert periodicity_delta(free, z2_table, 2) == (4, 4)

    def test_closed_form_across_census(self, s3, s3_table):
        for g in (2, 3):
            for d in enumerate_branching_data(s3, g):
                for v in enumerate_hurwitz_vectors(s3, d):
                    for k in (1, 2, 3):
                        delta = periodicity_delta(v, s3_table, k)
                        for rho, dv in enumerate(delta):
                            expect = 2 * s3_table.degrees[rho] * (g - 1)
                            if k == 1 and rho == 0:
                                expect -= 1
                            assert dv == expect

    def test_files_nothing_and_raises_as_cw_character(self, z3, genus6_vectors):
        # both levels come from one evaluation, and no memo entry is kept;
        # every rejection is the one cw_character gives
        v = genus6_vectors[0]
        cases = [(v, k) for k in (1, 2, 2 ** 70, np.int64(3), 0, -1, 2.5, 3.0, True, "2")]
        cases += [(HurwitzVector(0, (), (1, 1)), 1),  # relation
                  (HurwitzVector(0, (), (0, 1, 2)), 1),  # identity entry
                  (HurwitzVector(0, (), (3, 1, 2)), 1),  # not an element id
                  (HurwitzVector(0, (), (1, 1, 1)), 2)]  # genus 1
        T = character_table(z3)
        seen = set()
        for w, k in cases:
            expect = _outcome(lambda w: cw_character(w, character_table(z3), k), w)
            assert _outcome(lambda w: periodicity_delta(w, T, k), w) is expect, (w, k)
            seen.add(expect)
        assert seen == {None, ValueError, TypeError, RelationViolation, OrderViolation}
        assert T._validated == {} and T._levels == {}

    def test_partition_periodicity(self, z3, z3_table):
        # the k and k + |G| multiplicity vectors induce the same partition of
        # the genus-6 census
        items = [
            v
            for d in enumerate_branching_data(z3, 6)
            for v in enumerate_hurwitz_vectors(z3, d)
        ]
        for k in (1, 2, 3):
            at_k = {}
            at_k_shift = {}
            for i, v in enumerate(items):
                at_k.setdefault(cw_character(v, z3_table, k).mults, set()).add(i)
                at_k_shift.setdefault(
                    cw_character(v, z3_table, k + 3).mults, set()).add(i)
            assert (sorted(map(sorted, at_k.values()))
                    == sorted(map(sorted, at_k_shift.values())))


def _assert_same_terms(T, keys):
    """chevalley_weil._key_terms(T, keys) equals the np.unique reference, dtypes aside;
    returns its per-class terms as {class: (keys, times)}."""
    g_quot, orders, counts, held = chevalley_weil._key_terms(T, keys)
    want_g_quot, want_orders, want_counts, want_held = reference_key_terms(T, keys)
    assert np.array_equal(g_quot, want_g_quot) and np.array_equal(orders, want_orders)
    assert counts.shape == want_counts.shape and np.array_equal(counts, want_counts)
    assert [c for c, _, _ in held] == [c for c, _, _ in want_held]
    for (_, rows, times), (_, want_rows, want_times) in zip(held, want_held):
        assert np.array_equal(rows, want_rows) and np.array_equal(times, want_times)
    return {c: (rows.tolist(), times.tolist()) for c, rows, times in held}


class TestKeyTerms:
    def test_matches_the_reference_on_the_catalog(self, catalog):
        # every catalog group's keys at genus 2..5, as _class_keys returns them
        opts = EnumerationOptions(up_to_conjugacy=True)
        checked = 0
        for label, G in catalog:
            T = character_table(G)
            for g in range(2, 6):
                rows = hurwitz._VectorRows(
                    (d.g_quot, 2 * d.g_quot, r) for d in enumerate_branching_data(G, g)
                    for r in enumerate_hurwitz_rows(G, d, opts))
                keys = chevalley_weil._class_keys(rows, T)[0]
                _assert_same_terms(T, keys)
                checked += len(keys)
        assert checked > 500

    def test_empty_repeated_and_shared_classes(self):
        G = group_from_spec("metacyclic:6,2,5")
        T = character_table(G)
        x, y = 2, 1  # x and y of the presentation, of orders 6 and 2
        a, b = (T.classes.class_list()[e] for e in (x, y))
        assert _assert_same_terms(T, []) == {}
        assert _assert_same_terms(T, [(2, ())]) == {}
        assert _assert_same_terms(T, [(0, tuple(sorted((a, a, a, b))))]) == {
            a: ([0], [3]), b: ([0], [1])}
        keys = [(0, tuple(sorted((a, a, b)))), (1, (b,)), (3, ()),
                (0, tuple(sorted((a, b, b)))), (2, (a, a))]
        assert _assert_same_terms(T, keys) == {a: ([0, 3, 4], [2, 1, 2]),
                                               b: ([0, 1, 3], [1, 1, 2])}
        assert chevalley_weil._key_terms(T, keys)[1].tolist() == [2, 6]


class TestSessionWidening:
    def test_small_session_matches_presized(self, genus6_vectors):
        G = build_cyclic(3)
        small = character_table(G)  # k_max=1, g_max=2
        big = character_table(G, k_max=3, g_max=6)
        v, v_alt = genus6_vectors
        for vec in (v, v_alt):
            for k in (1, 2, 3):
                assert (cw_character(vec, small, k).mults
                        == cw_character(vec, big, k).mults)

    def test_large_level_and_genus_on_default_table(self):
        # the default table's prime covers only k = 1, g = 2; the integer path
        # needs no wider prime, so none of these raises PrimeSearchExceeded
        G = build_cyclic(3)
        T = character_table(G)
        free = HurwitzVector(3334, (1,) + (0,) * 6667, ())
        ramified = HurwitzVector(3333, (1,) + (0,) * 6665, (1, 2))
        for v in (free, ramified):
            g = genus(v, G)
            assert 9_999 <= g <= 10_000
            for k in (1, 2, 97, 10 ** 6 + 1):
                mv = cw_character(v, T, k)
                dim = g if k == 1 else (2 * k - 1) * (g - 1)
                assert sum(m * d for m, d in zip(mv.mults, T.degrees)) == dim
                assert all(m >= 0 for m in mv.mults)
                expect = tuple(2 * d * (g - 1) - (1 if k == 1 and rho == 0 else 0)
                               for rho, d in enumerate(T.degrees))
                assert periodicity_delta(v, T, k) == expect

    def test_levels_beyond_int64_stay_exact(self):
        # a free action: every level k >= 2 is 2k - 1 copies of the regular
        # representation, whatever the size of k
        G = build_metacyclic(MetacyclicParams(3, 2, 2))
        T = character_table(G)
        v = next(enumerate_hurwitz_vectors(G, BranchingData(2, ())))
        g = genus(v, G)
        assert g - 1 == G.order  # so the regular multiple is 2k - 1
        for k in (2 ** 62, 2 ** 70, 10 ** 30):
            mv = cw_character(v, T, k)
            assert type(mv.k) is int and mv.k == k
            assert all(type(m) is int for m in mv.mults)
            assert regular_multiple(mv, T) == 2 * k - 1
            assert mv.mults == tuple((2 * k - 1) * d for d in T.degrees)
        assert periodicity_delta(v, T, 2 ** 70) == tuple(2 * d * (g - 1)
                                                         for d in T.degrees)

    def test_widening_across_group_types(self):
        G = build_metacyclic(MetacyclicParams(4, 2, 3))
        small = character_table(G)
        big = character_table(G, k_max=8, g_max=9)
        data = BranchingData(2, ())
        v = next(iter(enumerate_hurwitz_vectors(G, data)))
        for k in (2, 5, 8):
            assert cw_character(v, small, k).mults == cw_character(v, big, k).mults


def _reference_counts(W, rho, c):
    """Eigenvalue counts of rho at c, one GF(p) root power sum per eigenvalue."""
    cls = int(W.classes.class_of[c])
    m = W.group.elem_order(c)
    values = [int(W.values[rho, W.classes.power_class[cls, j]]) for j in range(m)]
    return [recover_integer(root_power_sum(values, a, m, W.prime), W.prime)
            for a in range(m)]


def reference_multiplicities(v, W, k):
    """Per-element evaluation of both formulas in GF(p), then recovered.

    Exact only when W's prime is sized for level k and the genus of v.
    """
    wp = W.prime
    p = wp.p
    order = W.group.order
    g = genus(v, W.group)
    out = []
    for rho, degree in enumerate(W.degrees):
        if k == 1:
            total = degree * (v.g_quot - 1) + (1 if rho == 0 else 0)
        else:
            total = (2 * k * wp.inv(order) * degree * (g - 1)
                     - degree * (v.g_quot - 1))
        for c in v.branches:
            counts = _reference_counts(W, rho, c)
            m = len(counts)
            if k == 1:
                total += sum(a * counts[a] for a in range(1, m)) * wp.inv(m)
            else:
                total -= sum(counts[a] * ((-a - k) % m) for a in range(m)) * wp.inv(m)
        out.append(recover_integer(total % p, wp))
    return tuple(out)


def _one_vector_per_datum(G, genera):
    for g in genera:
        for d in enumerate_branching_data(G, g):
            v = next(iter(enumerate_hurwitz_vectors(G, d)), None)
            if v is not None:
                yield g, v


class TestPrimeFieldOracle:
    def test_integer_path_matches_reference(self, catalog_le_12):
        checked = 0
        for label, G in catalog_le_12:
            T = character_table(G)
            rows = count_rows(T)
            presized = {}
            for g, v in _one_vector_per_datum(G, (2, 3, 4)):
                for k in (1, 2, 3, 2 * G.order + 1):
                    if (k, g) not in presized:
                        # g_max = g + 1: the prime bound (2k-1)(g_max-1)|G| must
                        # reach the level-1 multiplicity g of the trivial group
                        W = character_table(G, k_max=k, g_max=g + 1)
                        # the default table may order irrational characters
                        # differently; match them by their eigenvalue counts
                        index = {row: j for j, row in enumerate(count_rows(W))}
                        presized[k, g] = W, [index[row] for row in rows]
                    W, order_in_W = presized[k, g]
                    ref = reference_multiplicities(v, W, k)
                    assert cw_character(v, W, k).mults == ref, (label, v, k)
                    assert cw_character(v, T, k).mults == tuple(
                        ref[j] for j in order_in_W), (label, v, k)
                    checked += 1
        assert checked > 300

    def test_conjugate_and_reordered_classes_agree(self, catalog_le_12):
        # the class-multiset key is sound: conjugating, or braiding two
        # adjacent branch entries of different classes, keeps the reference
        # multiplicities
        moved = 0
        for label, G in catalog_le_12:
            class_of = conjugacy_classes(G).class_of
            W = character_table(G, k_max=3, g_max=4)
            for g, v in _one_vector_per_datum(G, (2, 3, 4)):
                b = list(v.branches)
                i = next((i for i in range(len(b) - 1)
                          if class_of[b[i]] != class_of[b[i + 1]]), None)
                if i is None:
                    continue
                b[i], b[i + 1] = b[i + 1], G.mul(G.mul(G.inv(b[i + 1]), b[i]), b[i + 1])
                braided = validate(HurwitzVector(v.g_quot, v.handles, tuple(b)), G)
                assert ([class_of[c] for c in braided.branches]
                        != [class_of[c] for c in v.branches])
                conjugate = conjugate_vector(v, G, G.order - 1)
                base = [reference_multiplicities(v, W, k) for k in (1, 2, 3)]
                for w in (conjugate, braided):
                    # a fresh table, so that no class key is cached yet
                    fresh = character_table(G, k_max=3, g_max=4)
                    for k in (1, 2, 3):
                        assert reference_multiplicities(w, W, k) == base[k - 1], (label, w)
                        assert cw_character(w, fresh, k).mults == base[k - 1], (label, w)
                moved += 1
        assert moved > 50

    def test_count_matrix_matches_root_power_sums(self, catalog):
        for label, G in catalog:
            T = character_table(G)
            for cls in range(T.class_count):
                N = eigenvalue_counts(T, cls)
                assert not N.flags.writeable
                rep = T.classes.representatives[cls]
                assert N.shape == (T.class_count, G.elem_order(rep))
                for rho in range(T.class_count):
                    assert N[rho].tolist() == _reference_counts(T, rho, rep), (label, cls)

    def test_count_matrix_with_a_prime_near_the_limit(self, catalog):
        # default primes stay below 2^16, where the high limb is zero; a
        # table sized for genus ~9e8/|G| works with p > 2^30
        for label, G in catalog:
            if label not in ("cyclic:12", "perm:S4", "perm:Q8", "metacyclic:5,4,2"):
                continue
            W = character_table(G, g_max=900_000_000 // G.order + 1)
            assert W.prime.p > 2 ** 30
            for cls in range(W.class_count):
                N = eigenvalue_counts(W, cls)
                rep = W.classes.representatives[cls]
                for rho in range(W.class_count):
                    assert N[rho].tolist() == _reference_counts(W, rho, rep), (label, cls)


def _characters_from_counts(T):
    """Complex values chi(g_c) = sum_a N_c[chi, a] exp(2 pi i a / m_c), rows in table order."""
    cols = []
    for c in range(T.class_count):
        N = eigenvalue_counts(T, c)
        cols.append(N @ np.exp(2j * np.pi * np.arange(N.shape[1]) / N.shape[1]))
    return np.array(cols).T


def _characters_of_dual_group(T, factors):
    """Complex values of an abelian group's dual characters, read without counts.

    Element x of build_abelian(factors) has coordinates unravel_index(x), and
    chi_t(x) = exp(2 pi i sum_j t_j x_j / f_j). Rows are put in table order by
    their residues z^(e sum_j t_j x_j / f_j), the same embedding of z as
    exp(2 pi i / e) that the counts use.
    """
    wp, n = T.prime, T.group.order
    coords = np.array(np.unravel_index(np.arange(n), factors)).T
    exponents = coords * [wp.e // f for f in factors] @ coords.T % wp.e  # [t, x]
    residues = np.array([wp.unity_root(t) for t in range(wp.e)])[exponents]
    reps = list(T.classes.representatives)
    row_of = {row.tobytes(): t for t, row in enumerate(residues[:, reps])}
    order = [row_of[row.tobytes()] for row in T.values]
    return np.exp(2j * np.pi * exponents[np.ix_(order, reps)] / wp.e)


def eichler_multiplicities(v, T, k, chars):
    """Multiplicities <tr, chi> from the Eichler trace formula, independent of cw_character.

    For x != 1 the trace on H^0(C, kK) sums zeta^k / (1 - zeta) over the fixed
    points of x: for each branch entry c_i of order m_i and each a in
    1..m_i-1 with c_i^a conjugate to x, |C_G(x)| / m_i points, each rotated by
    zeta = exp(-2 pi i a / m_i); k = 1 adds 1. At x = 1 the trace is the
    dimension.
    """
    G, conj = T.group, T.classes
    g = genus(v, G)
    sizes = np.array(conj.class_sizes)
    trace = np.zeros(T.class_count, dtype=complex)
    for c in v.branches:
        m = G.elem_order(c)
        for a in range(1, m):
            x = conj.class_of[G.power(c, a)]
            zeta = np.exp(-2j * np.pi * a / m)
            trace[x] += G.order / sizes[x] / m * zeta ** k / (1 - zeta)
    if k == 1:
        trace[1:] += 1
    trace[0] = g if k == 1 else (2 * k - 1) * (g - 1)
    mults = (chars.conj() * sizes * trace).sum(axis=1) / G.order
    rounded = np.rint(mults.real)
    assert np.abs(mults - rounded).max() < 1e-6, mults
    return tuple(int(x) for x in rounded)


class TestEichlerTraceOracle:
    def test_trace_formula_matches_cw(self, catalog):
        # the first vector of a datum is the first --up-to-conjugacy representative
        checked = dual = nonreal = 0
        for label, G in catalog:
            T = character_table(G)
            families = [_characters_from_counts(T)]
            kind, _, params = label.partition(":")
            if kind in ("cyclic", "abelian"):
                families.append(_characters_of_dual_group(T, [int(f) for f in params.split(",")]))
                assert np.allclose(families[0], families[1]), label
            real = np.allclose(families[0].imag, 0)
            for g, v in _one_vector_per_datum(G, (2, 3, 4)):
                for k in (1, 2, 7):
                    want = cw_character(v, T, k).mults
                    for chars in families:
                        assert eichler_multiplicities(v, T, k, chars) == want, (label, v, k)
                    checked += 1
                    dual += len(families) - 1
                    nonreal += not real
        assert checked > 300 and dual > 150 and nonreal > 150

    def test_trivial_column_is_asserted(self, monkeypatch, genus6_vectors):
        # as if the trivial character and a linear one traded count rows: every
        # other check holds, but the trivial multiplicity leaves its closed form
        T = character_table(build_cyclic(3))
        real = chevalley_weil.eigenvalue_counts
        monkeypatch.setattr(chevalley_weil, "eigenvalue_counts",
                            lambda T, c: real(T, c)[[1, 0, 2]])
        with pytest.raises(InternalConsistencyError,
                           match="level-3 trivial multiplicity 7, expected 11"):
            cw_character(genus6_vectors[1], T, 3)


def _regular_by_search(mults, degrees):
    """The n with mults = n * degrees, by trying every n up to the largest entry."""
    for n in range(max(mults) + 1):
        if tuple(n * d for d in degrees) == mults:
            return n
    return None


class TestCachedVectors:
    def test_stored_regular_multiple_matches_the_mults(self, catalog_le_12, z3_table,
                                                        genus6_vectors):
        # a free-law loop (k = 1 is regular only for the trivial group) plus
        # the genus-6 example, whose level 3 is not a multiple of the regular
        # character
        tables = []
        for label, G in catalog_le_12:
            T = character_table(G)
            for v in islice(enumerate_hurwitz_vectors(G, BranchingData(2, ())), 60):
                for k in (1, 2, 3):
                    mv = cw_character(v, T, k)
                    if k > 1:
                        assert regular_multiple(mv, T) == 2 * k - 1, (label, v, k)
            tables.append(T)
        for v in genus6_vectors:
            for k in (2, 3):
                cw_character(v, z3_table, k)
        tables.append(z3_table)
        stored = Counter()
        for T in tables:
            for _, _, levels in T._levels.values():
                for mv in levels.values():
                    assert mv.regular == _regular_by_search(mv.mults, T.degrees)
                    assert regular_multiple(mv, T) is mv.regular
                    stored[mv.regular is None] += 1
        assert stored[True] and stored[False]

    def test_one_entry_and_one_genus_per_class_key(self, monkeypatch, s3):
        # the vectors of one (g', class key) share one memo entry, whose
        # genus is computed on that key's first query
        T = character_table(s3)
        items = [v for d in enumerate_branching_data(s3, 3)
                 for v in enumerate_hurwitz_vectors(s3, d)]
        genera = Counter()
        real = chevalley_weil._key_genus

        def counting(T, key):
            genera[key] += 1
            return real(T, key)

        monkeypatch.setattr(chevalley_weil, "_key_genus", counting)
        for k in (1, 2):
            for v in items:
                cw_character(v, T, k)
        assert 1 < len(T._levels) < len(items)
        assert genera == Counter(dict.fromkeys(T._levels, 1))
        for v in items:
            g, class_key, _ = entry = T._validated[v]
            assert T._levels[(v.g_quot, class_key)] is entry and g == genus(v, s3)

    def test_each_vector_validated_once_per_table(self, validate_calls, checked_rows, s3):
        items = [v for d in enumerate_branching_data(s3, 3)
                 for v in enumerate_hurwitz_vectors(s3, d)]
        # equal vectors built anew share the memo entry of the originals
        copies = [HurwitzVector(v.g_quot, v.handles, v.branches) for v in items]
        for T in (character_table(s3), character_table(s3)):
            validate_calls.clear()
            for batch in (items, copies, items):
                for v in batch:
                    for k in (1, 2, 9):
                        cw_character(v, T, k)
            assert validate_calls == Counter(items)
            # periodicity_delta keeps no memo entry: it validates on every
            # call, and the memo of cw_character stays as it was
            memo = dict(T._validated), {key: (g, ck, dict(levels))
                                        for key, (g, ck, levels) in T._levels.items()}
            validate_calls.clear()
            for batch in (items, copies):
                for v in batch:
                    periodicity_delta(v, T, 2)
            assert validate_calls == Counter(items + items)
            assert (T._validated, T._levels) == memo
            # decompose keeps no memo entry: each run checks every item once,
            # in bulk, and calls validate on none of them
            for batch in (items, copies, items):
                validate_calls.clear()
                checked_rows.clear()
                decompose_at_k(batch, T, 4)
                assert validate_calls == Counter()
                assert checked_rows == Counter((v.g_quot, v.entries) for v in batch)

    def test_invalid_vector_raises_on_every_call(self, validate_calls, checked_rows, s3):
        T = character_table(s3)
        bad = HurwitzVector(0, (), (1, 1))  # y * y = 1, but <y> is proper
        for k in (1, 2, 2):
            with pytest.raises(NotGenerating):
                cw_character(bad, T, k)
        with pytest.raises(NotGenerating):
            periodicity_delta(bad, T, 1)
        # decompose rejects the row in bulk, then raises validate's error
        with pytest.raises(NotGenerating):
            decompose_at_k([bad], T, 1)
        assert checked_rows == Counter({(0, (1, 1)): 1})
        assert validate_calls == Counter({bad: 5})
        assert T._validated == {}

    def test_free_law_work_counts(self, monkeypatch, validate_calls):
        # the free-action loop of the regular law: each vector validated on
        # its first query only, one evaluation per level (the vectors share
        # one class key), and every vector handed the filed level record
        G = group_from_spec("metacyclic:6,2,5")
        T = character_table(G)
        vectors = list(enumerate_hurwitz_vectors(G, BranchingData(2, ())))
        evaluated = []
        real = chevalley_weil._evaluate_keys

        def counting(T, keys, g, ks, *rest):
            evaluated.append((keys, tuple(ks)))
            return real(T, keys, g, ks, *rest)

        monkeypatch.setattr(chevalley_weil, "_evaluate_keys", counting)
        levels = range(2, 2 * G.order + 1)
        records = {}
        for v in vectors:
            for k in levels:
                mv = cw_character(v, T, k)
                assert records.setdefault(k, mv) is mv, (v, k)
                assert regular_multiple(mv, T) == 2 * k - 1
        assert validate_calls == Counter(vectors)
        assert len(evaluated) == 2 * G.order - 1
        assert evaluated == [([(2, ())], (k,)) for k in levels]


def _outcome(check, v):
    """The exception type check(v) raises, or None if it accepts v."""
    try:
        check(v)
    except Exception as exc:
        return type(exc)
    return None


class TestGenerationMemo:
    """The group's subgroup lattice is its one generation memo."""

    def test_one_closure_per_span_and_entry_per_group(self, closure_calls):
        # a group of its own, so that no other test has filled its lattice
        G = group_from_spec("metacyclic:3,2,2")
        data = enumerate_branching_data(G, 4)
        assert len(data) > 1 and "_spans" not in vars(G)

        def census():
            return [v for d in data for orbits in (False, True)
                    for v in enumerate_hurwitz_vectors(
                        G, d, EnumerationOptions(up_to_conjugacy=orbits))]

        vectors = census()
        # one closure per (span, x) pair over all the data: a span's
        # generators, then an entry outside it
        spans = G._spans
        assert closure_calls and set(closure_calls.values()) == {1}
        for gens in closure_calls:
            i = spans.gens.index(gens[:-1])
            assert i and not spans.masks[i][gens[-1]]
        closed = sum(closure_calls.values())
        # a second search, validation and both tables' queries all hit it
        assert census() == vectors
        for v in vectors:
            validate(v, G)
        for T in (character_table(G), character_table(G)):
            for v in vectors:
                for k in (1, 2):
                    cw_character(v, T, k)
        assert sum(closure_calls.values()) == closed and G._spans is spans
        # a lattice per datum, as on a group rebuilt for each, closes more
        closure_calls.clear()
        for d in data:
            list(enumerate_hurwitz_vectors(group_from_spec("metacyclic:3,2,2"), d))
        assert sum(closure_calls.values()) > closed
        # a group rebuilt from its spec starts with a fresh lattice
        rebuilt = group_from_spec("metacyclic:3,2,2")
        assert "_spans" not in vars(rebuilt)
        closure_calls.clear()
        for v in vectors + vectors:
            validate(v, rebuilt)
        assert rebuilt._spans is not spans
        assert closure_calls and set(closure_calls.values()) == {1}

    def test_non_generating_vector_raises_on_every_call(self, closure_calls):
        G = group_from_spec("metacyclic:3,2,2")
        T = character_table(G)
        # y * y = 1 and y^4 = 1, but <y> is proper; both have entry set {y}
        bad, same_set = HurwitzVector(0, (), (1, 1)), HurwitzVector(0, (), (1, 1, 1, 1))
        for v in (bad, bad, same_set, bad):
            with pytest.raises(NotGenerating):
                cw_character(v, T, 2)
            with pytest.raises(NotGenerating):
                validate(v, G)
        # <y> is the powers of y: no closure, and every later call a hit;
        # spans 0 and 1 are the trivial subgroup and G
        assert closure_calls == Counter()
        assert G._spans.gens[2:] == [(1,)]
        assert T._validated == {}

    def test_memoized_and_standalone_validation_agree(self, s3):
        T = character_table(s3)
        n = s3.order
        items = [v for d in enumerate_branching_data(s3, 3)
                 for v in enumerate_hurwitz_vectors(s3, d)]
        # every branch triple and every one-handle vector with one branch
        # entry: identity entries, failed relations and proper subgroups
        made = [HurwitzVector(0, (), t) for t in itertools.product(range(n), repeat=3)]
        made += [HurwitzVector(1, (a, b), (c,))
                 for a, b, c in itertools.product(range(n), repeat=3)]
        made += [HurwitzVector(0, (), (n, 1, 1)), HurwitzVector(0, (), (-1, 1, 1)),
                 HurwitzVector(1, (1, n), ())]
        seen = Counter()
        for v in items + made + made:
            standalone = _outcome(lambda v: validate(v, s3), v)
            memoized = _outcome(lambda v: cw_character(v, T, 1), v)
            # a valid vector below genus 2 is filed, then fails the formulas
            low = standalone is None and genus(v, s3) < 2
            assert memoized is (ValueError if low else standalone), v
            assert (v in T._validated) is (standalone is None), v
            seen[standalone] += 1
        assert set(seen) == {None, ValueError, OrderViolation, RelationViolation,
                             NotGenerating}


class TestDomainChecks:
    def test_numpy_level_is_stored_as_a_python_int(self, genus6_vectors):
        T = character_table(build_cyclic(3))
        v = genus6_vectors[0]
        mv = cw_character(v, T, np.int64(3))
        assert type(mv.k) is int and all(type(m) is int for m in mv.mults)
        assert cw_character(v, T, 3) is mv
        assert json.loads(json.dumps(list(mv.mults))) == list(mv.mults)
        assert periodicity_delta(v, T, np.int64(2)) == periodicity_delta(v, T, 2)

    @pytest.mark.parametrize("k", [2.5, 3.0, True])
    def test_non_integer_level_rejected(self, genus6_vectors, k):
        # on a fresh table, so that no level is cached under an equal key
        T = character_table(build_cyclic(3))
        v = genus6_vectors[0]
        with pytest.raises(TypeError):
            cw_character(v, T, k)
        with pytest.raises(TypeError):
            decompose_at_k([v], T, k)
        with pytest.raises(TypeError):
            periodicity_delta(v, T, k)

    @pytest.mark.parametrize("k", [2.5, 3.0, True])
    def test_non_integer_level_rejected_once_levels_are_cached(self, genus6_vectors, k):
        # True == 1 and 3.0 == 3 hash like the cached levels
        T = character_table(build_cyclic(3))
        v = genus6_vectors[0]
        cw_character(v, T, 1)
        cw_character(v, T, 3)
        with pytest.raises(TypeError):
            cw_character(v, T, k)
        for items in ([], [v]):
            with pytest.raises(TypeError):
                decompose_at_k(items, T, k)
            with pytest.raises(TypeError):
                stabilization_report(items, T, k)

    @pytest.mark.parametrize("k, error", [
        (True, TypeError), (2.0, TypeError), (0, ValueError), (-1, ValueError),
        (np.int64(3), None)])
    def test_level_checked_on_a_vectors_first_query(self, genus6_vectors, k, error):
        # the level is checked before the vector, and a rejected query files
        # nothing; an accepted numpy level is filed as a Python int
        T = character_table(build_cyclic(3))
        v, bad = genus6_vectors[0], HurwitzVector(0, (), (1, 1))
        assert _outcome(lambda w: cw_character(w, T, k), bad) is (error or RelationViolation)
        assert _outcome(lambda w: cw_character(w, T, k), v) is error
        if error is None:
            assert list(T._validated) == [v] and list(T._validated[v][2]) == [3]
            mv = cw_character(v, T, 3)
            assert type(mv.k) is int and mv.k == 3 and cw_character(v, T, k) is mv
        else:
            assert T._validated == {} and T._levels == {}

    def test_genus_below_two_rejected(self, z2_table):
        v = HurwitzVector(1, (1, 0), ())  # genus 1 cover
        with pytest.raises(ValueError):
            cw_character(v, z2_table, 1)

    def test_invalid_vector_rejected_before_evaluation(self, z3_table):
        from cwmoduli import RelationViolation
        with pytest.raises(RelationViolation):
            cw_character(HurwitzVector(0, (), (1, 1)), z3_table, 1)

    def test_trivial_group_has_no_admissible_vectors(self):
        # the trivial group acts freely; genus of the quotient equals g >= 2
        G = build_cyclic(1)
        T = character_table(G, k_max=2, g_max=2)
        v = HurwitzVector(2, (0, 0, 0, 0), ())
        assert genus(v, G) == 2
        assert cw_character(v, T, 1).mults == (2,)
        assert cw_character(v, T, 2).mults == (3,)

    def test_trivial_group_level_one_beyond_the_prime_bound(self):
        # mult = g exceeds the default prime's bound (p = 5) from g = 3 on
        T = character_table(build_cyclic(1))
        for g in (3, 4, 50):
            v = HurwitzVector(g, (0,) * (2 * g), ())
            assert cw_character(v, T, 1).mults == (g,)
