"""Hurwitz vectors: validation, genus arithmetic, and exhaustive enumeration.

Counts are frozen from literal brute-force loops over raw tuples, written out
in the tests themselves so they do not depend on the enumerator under test.
"""

import itertools
import random
import time
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from cwmoduli import (
    BranchingData,
    EnumerationCapExceeded,
    EnumerationOptions,
    HurwitzVector,
    MetacyclicParams,
    NegativeGenus,
    NonIntegralGenus,
    NotGenerating,
    OrderViolation,
    RelationViolation,
    build_cyclic,
    build_from_permutations,
    build_metacyclic,
    character_table,
    cw_character,
    eigenvalue_counts,
    enumerate_branching_data,
    enumerate_hurwitz_rows,
    enumerate_hurwitz_vectors,
    enumerate_hurwitz_vectors_parallel,
    genus,
    group_from_spec,
    validate,
)
import cwmoduli.hurwitz as hurwitz
from conftest import (branching_data_of, conjugate_vector, conjugation_rows,
                      reference_vectors)


def flat(v):
    return v.handles + v.branches


class TestVectorBasics:
    def test_genus6_vectors_validate(self, z3, genus6_vectors):
        for v in genus6_vectors:
            assert validate(v, z3) is v
            assert genus(v, z3) == 6

    def test_entries_property(self):
        v = HurwitzVector(1, (2, 5), (1, 1))
        assert v.entries == (2, 5, 1, 1)

    def test_handle_count_enforced(self):
        with pytest.raises(ValueError):
            HurwitzVector(2, (1, 2), (0,))
        with pytest.raises(ValueError):
            HurwitzVector(-1, (), ())

    def test_branching_data_sorted(self):
        d = BranchingData(0, (3, 2, 2, 5))
        assert d.branch_orders == (2, 2, 3, 5)
        assert d.r == 4
        with pytest.raises(ValueError):
            BranchingData(0, (1, 2))
        with pytest.raises(ValueError):
            BranchingData(-1, (2,))

    def test_float_inputs_raise_type_error(self):
        # int() would truncate them silently, (1.5, 2.2) to (1, 2)
        with pytest.raises(TypeError):
            HurwitzVector(0, (), (1.5, 2.2))
        with pytest.raises(TypeError):
            HurwitzVector(1, (1.0, 2), ())
        with pytest.raises(TypeError):
            BranchingData(2, (2.5, 3.9))
        with pytest.raises(TypeError):
            BranchingData(0.5, (2, 2))

    def test_boolean_inputs_raise_type_error(self):
        # operator.index would read True as 1: (True, 2) is not ( ; 1 2)
        for args in [(0, (), (True, 2)), (1, (False, 1), ()), (False, (), ())]:
            with pytest.raises(TypeError):
                HurwitzVector(*args)
        with pytest.raises(TypeError):
            BranchingData(0, (True, 2))
        with pytest.raises(TypeError):
            BranchingData(True, (2, 2))
        with pytest.raises(TypeError):
            BranchingData(0, (np.bool_(True), 2))

    def test_branching_data_normalizes_numpy_ints(self):
        d = BranchingData(np.int64(1), [np.int32(3), np.int64(2)])
        assert d == BranchingData(1, (2, 3))
        assert type(d.g_quot) is int
        assert all(type(m) is int for m in d.branch_orders)


class TestVectorRecord:
    """HurwitzVector is a tuple record; the enumerator builds it unchecked."""

    @pytest.fixture()
    def s3_vectors(self, s3):
        return [v for d in enumerate_branching_data(s3, 4)
                for v in enumerate_hurwitz_vectors(s3, d)]

    def test_enumerated_vectors_are_plain_records(self, s3_vectors):
        assert {v.g_quot for v in s3_vectors} == {0, 1}
        for v in s3_vectors:
            assert type(v) is HurwitzVector
            assert type(v.g_quot) is int
            assert all(type(x) is int for x in v.entries)
            assert type(v.handles) is tuple and type(v.branches) is tuple
            w = HurwitzVector(*v)
            assert w == v and hash(w) == hash(v)
            assert v == (v.g_quot, v.handles, v.branches)

    def test_keyword_construction(self):
        v = HurwitzVector(g_quot=1, handles=(2, 5), branches=(1, 1))
        assert v == HurwitzVector(1, (2, 5), (1, 1))
        assert (v.g_quot, v.handles, v.branches) == (1, (2, 5), (1, 1))

    def test_numpy_ints_and_lists_are_normalized(self):
        v = HurwitzVector(np.int64(1), [np.int64(2), np.int32(5)], np.array([1, 1]))
        assert v == HurwitzVector(1, (2, 5), (1, 1))
        assert type(v.g_quot) is int
        assert type(v.handles) is tuple and type(v.branches) is tuple
        assert all(type(x) is int for x in v.entries)

    @pytest.mark.parametrize("args", [(-1, (), ()), (2, (1, 2), (0,)), (0, (1, 2), (1,))])
    def test_bad_genus_or_handle_count_rejected(self, args):
        with pytest.raises(ValueError):
            HurwitzVector(*args)
        with pytest.raises(ValueError):
            HurwitzVector._make(args)

    def test_replace_validates_and_normalizes(self):
        v = HurwitzVector(1, (2, 5), (1, 1))
        assert v._replace(branches=[np.int64(3)]) == HurwitzVector(1, (2, 5), (3,))
        assert type(v._replace(branches=[np.int64(3)]).branches[0]) is int
        with pytest.raises(ValueError):
            v._replace(g_quot=2)

    def test_one_validate_per_distinct_vector_per_table(self, validate_calls, s3,
                                                        s3_vectors):
        copies = [HurwitzVector(g_quot=np.int64(v.g_quot), handles=list(v.handles),
                                branches=list(v.branches)) for v in s3_vectors]
        for T in (character_table(s3), character_table(s3)):
            validate_calls.clear()
            for batch in (s3_vectors, copies):
                for v in batch:
                    cw_character(v, T, 2)
            assert validate_calls == Counter(s3_vectors)

    def test_no_free_entry(self):
        # only the trivial group has a valid empty vector; a lone branch entry
        # would be forced to the identity
        trivial, z2 = build_cyclic(1), build_cyclic(2)
        assert list(enumerate_hurwitz_vectors(trivial, BranchingData(0, ()))) == [
            HurwitzVector(0, (), ())]
        assert list(enumerate_hurwitz_vectors(z2, BranchingData(0, ()))) == []
        assert list(enumerate_hurwitz_vectors(z2, BranchingData(0, (2,)))) == []


class TestValidate:
    def test_identity_branch_rejected(self, z3):
        v = HurwitzVector(1, (1, 1), (0, 1, 2))
        with pytest.raises(OrderViolation) as exc:
            validate(v, z3)
        assert "c_1" in str(exc.value)

    def test_relation_violation(self, z3):
        v = HurwitzVector(0, (), (1, 1))  # product 2, not identity
        with pytest.raises(RelationViolation):
            validate(v, z3)

    def test_not_generating(self):
        G = build_cyclic(4)
        v = HurwitzVector(1, (2, 2), (2, 2))  # inside {0, 2}
        with pytest.raises(NotGenerating):
            validate(v, G)

    def test_out_of_range_entry(self, z3):
        with pytest.raises(ValueError):
            validate(HurwitzVector(0, (), (5, 1)), z3)

    def test_violation_precedence(self, z3):
        # an identity branch entry is reported before the broken relation
        v = HurwitzVector(0, (), (0, 1))
        with pytest.raises(OrderViolation):
            validate(v, z3)

    @pytest.mark.parametrize("v, error, message", [
        (HurwitzVector(0, (), (1, 3)), ValueError,
         "entry 3 is not an element id of cyclic:3"),
        (HurwitzVector(1, (-1, 5), (1, 2)), ValueError,
         "entry -1 is not an element id of cyclic:3"),
        (HurwitzVector(1, (1, 1), (1, 0, 2)), OrderViolation,
         "branch entry c_2 = 0 has order 1"),
        (HurwitzVector(0, (), (1, 1)), RelationViolation,
         "surface relation product is element 2, not the identity"),
        (HurwitzVector(1, (0, 0), ()), NotGenerating,
         "vector entries generate a proper subgroup"),
    ], ids=["high-id", "negative-id", "identity-branch", "relation", "subgroup"])
    def test_failure_messages(self, v, error, message):
        # the first offending entry, in order, is the one reported; a group of
        # its own, so the generation test misses its memo first, then hits
        G = build_cyclic(3)
        for _ in range(2):
            with pytest.raises(error) as exc:
                validate(v, G)
            assert type(exc.value) is error and str(exc.value) == message
        assert G._generated == ({frozenset({0}): False} if error is NotGenerating else {})

    @pytest.mark.parametrize("g_quot", [1, 2])
    def test_relation_message_on_a_nonabelian_group(self, s3, g_quot):
        # every vector of S3 with g' handle pairs and one branch entry whose
        # relation fails reports prod [a_i, b_i] * c, each commutator from
        # its own pair
        def commutator(a, b):
            return s3.mul(s3.mul(s3.mul(a, b), s3.inv(a)), s3.inv(b))

        failed = set()
        for handles in itertools.product(range(s3.order), repeat=2 * g_quot):
            for c in range(1, s3.order):
                prod = s3.identity
                for a, b in zip(handles[::2], handles[1::2]):
                    prod = s3.mul(prod, commutator(a, b))
                prod = s3.mul(prod, c)
                if prod == s3.identity:
                    continue
                with pytest.raises(RelationViolation) as exc:
                    validate(HurwitzVector(g_quot, handles, (c,)), s3)
                assert str(exc.value) == (
                    f"surface relation product is element {prod}, not the identity")
                failed.add(prod)
        # the failures reach every nonidentity product
        assert failed == set(range(1, s3.order))

    def test_conjugate_preserves_validity(self, s3):
        rng = random.Random(29)
        data = BranchingData(0, (2, 2, 3, 3))
        vecs = list(enumerate_hurwitz_vectors(s3, data))
        for _ in range(50):
            v = rng.choice(vecs)
            h = rng.randrange(6)
            w = conjugate_vector(v, s3, h)
            assert validate(w, s3) is w
            assert branching_data_of(w, s3) == branching_data_of(v, s3)
            assert genus(w, s3) == genus(v, s3)


class TestGenus:
    def test_branching_data_form(self, z3):
        assert genus(BranchingData(2, (3, 3)), z3) == 6
        assert genus(BranchingData(0, (3,) * 8), z3) == 6

    def test_unramified(self, z2):
        assert genus(BranchingData(2, ()), z2) == 3

    def test_rejects_non_element_order(self, z3):
        with pytest.raises(ValueError):
            genus(BranchingData(0, (2, 2, 2)), z3)

    def test_non_integral(self, z2):
        # 2g - 2 = 2(2*2 - 2) + 1 = 5 is odd
        with pytest.raises(NonIntegralGenus):
            genus(BranchingData(2, (2,)), z2)

    def test_negative(self, z2):
        with pytest.raises(NegativeGenus):
            genus(BranchingData(0, ()), z2)


class TestEnumerateBranchingData:
    def test_z3_genus6(self, z3):
        got = enumerate_branching_data(z3, 6)
        assert got == [
            BranchingData(0, (3,) * 8),
            BranchingData(1, (3,) * 5),
            BranchingData(2, (3, 3)),
        ]
        assert enumerate_branching_data(z3, np.int64(6)) == got

    def test_z2_genus2(self, z2):
        assert enumerate_branching_data(z2, 2) == [
            BranchingData(0, (2,) * 6),
            BranchingData(1, (2, 2)),
        ]

    def test_trivial_group(self):
        G = build_cyclic(1)
        assert enumerate_branching_data(G, 2) == [BranchingData(2, ())]
        # its one datum has no branch entries but g handle pairs, which the
        # search would hold: they are capped like branch entries
        assert enumerate_branching_data(G, 10 ** 6) == [BranchingData(10 ** 6, ())]
        with pytest.raises(EnumerationCapExceeded,
                           match="genus 1000001 has 1000001 handle pairs, more than 1000000"):
            enumerate_branching_data(G, 10 ** 6 + 1)

    def test_every_datum_hits_the_genus(self, s3):
        for g in (2, 3, 4, 5):
            for d in enumerate_branching_data(s3, g):
                assert genus(d, s3) == g

    def test_genus_below_two_rejected(self, z3):
        with pytest.raises(ValueError):
            enumerate_branching_data(z3, 1)

    @pytest.mark.parametrize("g", [4.5, 6.0, True])
    def test_non_integer_genus_rejected(self, z3, g):
        with pytest.raises(TypeError):
            enumerate_branching_data(z3, g)

    def test_brute_force_oracle(self, catalog_le_12):
        # every multiset of element orders as long as Riemann-Hurwitz allows:
        # an entry of order m adds (|G|/m)(m - 1) >= |G|/2 to 2g - 2
        for label, G in catalog_le_12:
            n = G.order
            orders = sorted({G.elem_order(x) for x in G.elements()} - {1})
            for g in range(2, 9):
                expect = sorted(
                    ((h, combo) for h in range(g + 1)
                     for r in range((2 * g - 2 + 2 * n) // max(n // 2, 1) + 1)
                     for combo in itertools.combinations_with_replacement(orders, r)
                     if n * (2 * h - 2) + sum(n // m * (m - 1) for m in combo) == 2 * g - 2))
                got = [(d.g_quot, d.branch_orders) for d in enumerate_branching_data(G, g)]
                assert got == expect, (label, g)

    def test_genus_300_fits_the_entry_cap(self, monkeypatch):
        G = build_cyclic(4)
        data = enumerate_branching_data(G, 300)
        assert (len(data), sum(d.r for d in data), max(d.r for d in data)) == (3927, 663880, 303)
        monkeypatch.setattr(hurwitz, "MAX_BRANCH_ENTRIES", 663880)
        assert enumerate_branching_data(G, 300) == data
        monkeypatch.setattr(hurwitz, "MAX_BRANCH_ENTRIES", 663879)
        with pytest.raises(EnumerationCapExceeded, match="have more than 663879 entries"):
            enumerate_branching_data(G, 300)

    @pytest.mark.parametrize("g, match, peak_mb", [
        (400, "have more than 1000000 entries", 16),  # 1,550,264 entries in all
        (99_999_999, "can have 100000002 entries", 1),  # checked before listing
    ])
    def test_listing_past_the_cap_is_short(self, g, match, peak_mb):
        G = build_cyclic(4)
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationCapExceeded, match=match):
                enumerate_branching_data(G, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 2
        assert peak < peak_mb * 2 ** 20


class TestEnumerationCounts:
    def test_z3_small(self, z3):
        # brute force: two free branch slots over {1, 2}, sum 0 mod 3
        expect = sum(1 for t in itertools.product((1, 2), repeat=2)
                     if sum(t) % 3 == 0)
        got = list(enumerate_hurwitz_vectors(z3, BranchingData(0, (3, 3, 3))))
        assert len(got) == expect == 2

    def test_z3_eight_branches(self, z3):
        expect = sum(1 for t in itertools.product((1, 2), repeat=8)
                     if sum(t) % 3 == 0)
        got = list(enumerate_hurwitz_vectors(z3, BranchingData(0, (3,) * 8)))
        assert len(got) == expect == 86

    def test_z2_six_branches(self, z2):
        expect = sum(1 for t in itertools.product((1,), repeat=6)
                     if sum(t) % 2 == 0)
        got = list(enumerate_hurwitz_vectors(z2, BranchingData(0, (2,) * 6)))
        assert len(got) == expect == 1

    def test_z3_genus6_census(self, z3):
        counts = [
            len(list(enumerate_hurwitz_vectors(z3, d)))
            for d in enumerate_branching_data(z3, 6)
        ]
        assert counts == [86, 90, 162]
        assert sum(counts) == 338

    def test_s3_brute_force_cross_check(self, s3):
        # order-2 entries {1, 3, 5}, order-3 entries {2, 4}; filter the full
        # product on the relation and generation by hand
        order2 = [x for x in range(6) if s3.elem_order(x) == 2]
        order3 = [x for x in range(6) if s3.elem_order(x) == 3]
        expect = []
        for t in itertools.product(order2, order2, order3, order3):
            acc = 0
            for c in t:
                acc = s3.mul(acc, c)
            if acc != 0:
                continue
            seen = {0}
            frontier = [0]
            while frontier:
                nxt = []
                for a in frontier:
                    for c in t:
                        b = s3.mul(a, c)
                        if b not in seen:
                            seen.add(b)
                            nxt.append(b)
                frontier = nxt
            if len(seen) == 6:
                expect.append(t)
        got = list(enumerate_hurwitz_vectors(s3, BranchingData(0, (2, 2, 3, 3))))
        assert [v.branches for v in got] == expect
        assert len(got) == 12

    def test_no_vectors_when_orders_missing(self, s3):
        # S3 has no elements of order 6
        assert list(enumerate_hurwitz_vectors(s3, BranchingData(0, (6, 6)))) == []

    def test_order3_entries_cannot_generate_s3(self, s3):
        assert list(enumerate_hurwitz_vectors(s3, BranchingData(0, (3,) * 4))) == []

    def test_emitted_vectors_validate(self, s3):
        data = BranchingData(1, (2, 2, 2))
        for v in enumerate_hurwitz_vectors(s3, data):
            assert validate(v, s3) is v
            assert branching_data_of(v, s3) == data


class TestEnumerationOrder:
    def test_lexicographic_and_deterministic(self, s3):
        data = BranchingData(0, (2, 2, 3, 3))
        a = [flat(v) for v in enumerate_hurwitz_vectors(s3, data)]
        b = [flat(v) for v in enumerate_hurwitz_vectors(s3, data)]
        assert a == b == sorted(a)


class TestUpToConjugacy:
    def brute_orbit_count(self, G, vecs):
        reps = set()
        for v in vecs:
            orbit = {flat(conjugate_vector(v, G, h)) for h in range(G.order)}
            reps.add(min(orbit))
        return reps

    def test_s3_orbits(self, s3):
        data = BranchingData(0, (2, 2, 3, 3))
        raw = list(enumerate_hurwitz_vectors(s3, data))
        expect = self.brute_orbit_count(s3, raw)
        opts = EnumerationOptions(up_to_conjugacy=True)
        got = [flat(v) for v in enumerate_hurwitz_vectors(s3, data, opts)]
        assert sorted(got) == sorted(expect)
        assert len(got) == 2

    def test_abelian_conjugacy_is_identity(self, z3):
        data = BranchingData(0, (3,) * 8)
        raw = [flat(v) for v in enumerate_hurwitz_vectors(z3, data)]
        opts = EnumerationOptions(up_to_conjugacy=True)
        reps = [flat(v) for v in enumerate_hurwitz_vectors(z3, data, opts)]
        assert reps == raw

    def test_representatives_are_orbit_minima(self, s3):
        data = BranchingData(1, (2, 2, 2))
        opts = EnumerationOptions(up_to_conjugacy=True)
        for v in enumerate_hurwitz_vectors(s3, data, opts):
            orbit = {flat(conjugate_vector(v, s3, h)) for h in range(6)}
            assert flat(v) == min(orbit)


class TestCap:
    def test_cap_raises_on_excess(self, z3):
        data = BranchingData(0, (3,) * 8)
        opts = EnumerationOptions(max_vectors=10)
        with pytest.raises(EnumerationCapExceeded):
            list(enumerate_hurwitz_vectors(z3, data, opts))

    def test_cap_equal_to_count_passes(self, z3):
        data = BranchingData(0, (3,) * 8)
        opts = EnumerationOptions(max_vectors=86)
        assert len(list(enumerate_hurwitz_vectors(z3, data, opts))) == 86

    def test_generator_yields_the_cap_then_raises(self, z3):
        # the cap is checked as vectors are emitted, not after collecting them
        data = BranchingData(0, (3,) * 8)
        stream = enumerate_hurwitz_vectors(z3, data, EnumerationOptions(max_vectors=10))
        got = [next(stream) for _ in range(10)]
        assert [flat(v) for v in got] == [
            flat(v) for v in itertools.islice(enumerate_hurwitz_vectors(z3, data), 10)]
        with pytest.raises(EnumerationCapExceeded):
            next(stream)

    def test_cap_validation(self):
        with pytest.raises(ValueError):
            EnumerationOptions(max_vectors=-1)
        assert EnumerationOptions(max_vectors=0).max_vectors == 0

    def test_cap_is_checked_per_block(self, monkeypatch, z3):
        # small blocks, so that the 86 vectors come in several
        monkeypatch.setattr(hurwitz, "ROW_BUDGET", 8)
        data = BranchingData(0, (3,) * 8)
        blocks = [b.tolist() for b in enumerate_hurwitz_rows(z3, data)]
        sizes = [len(b) for b in blocks]
        assert len(sizes) > 2 and sum(sizes) == 86 and max(sizes) <= 8
        rows = [tuple(row) for block in blocks for row in block]
        # no cap, hit exactly at the end of a block, one past that block,
        # and exactly at the end of the datum
        for cap in (0, sizes[0], sizes[0] + 1, sizes[0] + sizes[1], 86):
            opts = EnumerationOptions(max_vectors=cap)
            stream = enumerate_hurwitz_rows(z3, data, opts)
            got = []
            if cap < 86:
                with pytest.raises(EnumerationCapExceeded):
                    for block in stream:
                        got.append(block.tolist())
            else:
                got = [block.tolist() for block in stream]
            assert [tuple(row) for block in got for row in block] == rows[:cap]
            # cut at the cap: the blocks before it whole, the last one's head
            lengths = [len(block) for block in got]
            assert all(0 < k <= s for k, s in zip(lengths, sizes))
            assert lengths[:-1] == sizes[:len(lengths)][:-1]
            vectors = enumerate_hurwitz_vectors(z3, data, opts)
            assert [flat(next(vectors)) for _ in range(cap)] == rows[:cap]
            if cap < 86:
                with pytest.raises(EnumerationCapExceeded):
                    next(vectors)
            else:
                assert next(vectors, None) is None

    def test_cap_holds_one_block_past_it(self):
        # the 15^7 prefixes of eight involutions of (Z/2)^4: a cap of 10
        # raises after the first block, with no more held than that block
        G = group_from_spec("abelian:2,2,2,2")
        stream = enumerate_hurwitz_vectors(G, BranchingData(0, (2,) * 8),
                                           EnumerationOptions(max_vectors=10))
        tracemalloc.start()
        try:
            got = [next(stream) for _ in range(10)]
            with pytest.raises(EnumerationCapExceeded):
                next(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(got) == 10
        assert peak < 8 * 2 ** 20

    def test_a_deep_search_holds_few_rows(self):
        # 200 handle slots of Z/2 with two candidates each: the first leaf
        # lies 200 slots deep, and each block pending above it keeps one
        # entry per prefix, and fewer prefixes the deeper it lies
        G = build_cyclic(2)
        stream = enumerate_hurwitz_vectors(G, BranchingData(100, ()),
                                           EnumerationOptions(max_vectors=3))
        tracemalloc.start()
        try:
            got = [flat(next(stream)) for _ in range(3)]
            with pytest.raises(EnumerationCapExceeded):
                next(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == [(0,) * 199 + (1,), (0,) * 198 + (1, 0), (0,) * 198 + (1, 1)]
        assert peak < 16 * 2 ** 20

    def test_zero_cap_raises_at_the_first_vector(self, z3):
        data = BranchingData(0, (3,) * 8)
        with pytest.raises(EnumerationCapExceeded):
            list(enumerate_hurwitz_vectors(z3, data, EnumerationOptions(max_vectors=0)))
        # a datum with no vectors passes a zero cap
        assert list(enumerate_hurwitz_vectors(
            z3, BranchingData(0, (3, 3, 3, 3, 2)), EnumerationOptions(max_vectors=0))) == []


class TestParallel:
    def test_matches_serial(self, s3, z3):
        cases = [
            (s3, BranchingData(0, (2, 2, 3, 3))),
            (s3, BranchingData(1, (2, 2, 2))),
            (z3, BranchingData(0, (3,) * 8)),
            (z3, BranchingData(2, (3, 3))),
        ]
        for G, data in cases:
            serial = [flat(v) for v in enumerate_hurwitz_vectors(G, data)]
            listed = [flat(v) for v in enumerate_hurwitz_vectors_parallel(G, data)]
            assert listed == serial

    def test_conjugacy_and_cap_respected(self, s3):
        data = BranchingData(0, (2, 2, 3, 3))
        opts = EnumerationOptions(up_to_conjugacy=True)
        serial = [flat(v) for v in enumerate_hurwitz_vectors(s3, data, opts)]
        listed = [flat(v) for v in enumerate_hurwitz_vectors_parallel(s3, data, opts)]
        assert listed == serial
        tight = EnumerationOptions(max_vectors=5)
        with pytest.raises(EnumerationCapExceeded):
            enumerate_hurwitz_vectors_parallel(s3, data, tight)

    def test_cap_equal_to_count_returns_everything(self, s3):
        data = BranchingData(0, (2, 2, 3, 3))
        exact = EnumerationOptions(max_vectors=12)
        got = [flat(v) for v in enumerate_hurwitz_vectors_parallel(s3, data, exact)]
        assert got == [flat(v) for v in enumerate_hurwitz_vectors(s3, data)]
        assert len(got) == 12


class TestReferenceOracle:
    """The row search against the depth-first search it replaced, order included.

    The reference is conftest.reference_vectors: one frame per placed slot,
    with the conjugations that fix the prefix carried along.
    """

    @staticmethod
    def check(G, data, up_to_conjugacy):
        opts = EnumerationOptions(up_to_conjugacy=up_to_conjugacy)
        got = [flat(v) for v in enumerate_hurwitz_vectors(G, data, opts)]
        assert got == list(reference_vectors(G, data, up_to_conjugacy)), (G.label, data)
        return len(got)

    @pytest.mark.parametrize("up_to_conjugacy", [False, True])
    def test_catalog_at_genus_2_to_5(self, catalog, up_to_conjugacy):
        checked = 0
        for label, G in catalog:
            for g in range(2, 6):
                for data in enumerate_branching_data(G, g):
                    self.check(G, data, up_to_conjugacy)
                    checked += 1
        assert checked == 375

    @pytest.mark.parametrize("spec, g, up_to_conjugacy, count", [
        ("metacyclic:4,2,3", 9, False, 54400),
        ("metacyclic:5,2,4", 11, True, 9240),
        ("metacyclic:3,2,2", 10, True, 5876),
        ("cyclic:8", 9, False, 4088),
    ])
    def test_bench_data(self, spec, g, up_to_conjugacy, count):
        G = group_from_spec(spec)
        assert sum(self.check(G, data, up_to_conjugacy)
                   for data in enumerate_branching_data(G, g)) == count

    @pytest.mark.parametrize("spec", ["cyclic:9", "metacyclic:6,2,5",
                                      "perm:(1,2,3);(2,3,4)", "abelian:2,2,2"])
    def test_free_actions_at_quotient_genus_2(self, spec):
        G = group_from_spec(spec)
        for up_to_conjugacy in (False, True):
            assert self.check(G, BranchingData(2, ()), up_to_conjugacy)

    def test_blocks_cut_below_one_slot(self, monkeypatch, catalog_le_12):
        # a budget below the candidates of one slot cuts every block into
        # pieces of one prefix, and the leaves still come out in order
        monkeypatch.setattr(hurwitz, "ROW_BUDGET", 3)
        G = group_from_spec("metacyclic:4,2,3")
        for data in enumerate_branching_data(G, 5):
            for up_to_conjugacy in (False, True):
                self.check(G, data, up_to_conjugacy)
                opts = EnumerationOptions(up_to_conjugacy=up_to_conjugacy)
                assert all(len(b) <= G.order for b in enumerate_hurwitz_rows(G, data, opts))
        for label, G in catalog_le_12:
            for data in enumerate_branching_data(G, 3):
                self.check(G, data, True)

    def test_rows_are_compact_and_within_the_budget(self):
        G = group_from_spec("metacyclic:4,2,3")
        data = max(enumerate_branching_data(G, 11), key=lambda d: d.r)
        blocks = list(enumerate_hurwitz_rows(G, data))
        assert len(blocks) > 1
        assert all(b.dtype == np.int8 and len(b) <= hurwitz.ROW_BUDGET for b in blocks)
        # ids up to 199 need two bytes
        G = build_cyclic(200)
        rows = np.vstack(list(enumerate_hurwitz_rows(G, BranchingData(0, (200, 200)))))
        assert rows.dtype == np.int16 and len(rows) == 80
        assert (G.mul_table[rows[:, 0], rows[:, 1]] == G.identity).all()


class TestMetacyclicEnumeration:
    def test_d4_genus3_counts(self):
        G = build_metacyclic(MetacyclicParams(4, 2, 3))
        for d in enumerate_branching_data(G, 3):
            vecs = list(enumerate_hurwitz_vectors(G, d))
            for v in vecs:
                assert validate(v, G) is v
                assert genus(v, G) == 3


def _span(G, entries):
    """The subgroup generated by entries, by breadth-first closure on the rows."""
    rows = G.mul_rows()
    seen, frontier = {G.identity}, [G.identity]
    while frontier:
        nxt = []
        for x in frontier:
            for s in entries:
                y = rows[x][s]
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


class TestGenerationPerPrefix:
    """The enumerator settles generation once per prefix; check it against every tuple."""

    # S3 and Z3 at g' = 1, where a prefix of two handle entries of order 3
    # (or the identity) spans a proper subgroup and the first branch entry
    # completes generation; S3 at g' = 2 with no branch entries, where the
    # last handle entry can complete it; D4 and Q8 from the catalog at g' = 1
    CASES = [
        ("metacyclic:3,2,2", BranchingData(1, (2, 2))),
        ("metacyclic:3,2,2", BranchingData(2, ())),
        ("cyclic:3", BranchingData(1, (3, 3))),
        ("table:D4", BranchingData(1, (2, 2))),
        ("perm:Q8", BranchingData(1, (4, 4))),
    ]

    @staticmethod
    def tuples(G, data):
        """Every tuple of the data's shape: handles over G, branches by order."""
        slots = [range(G.order)] * (2 * data.g_quot) + [
            [x for x in range(G.order) if G.elem_order(x) == m]
            for m in data.branch_orders]
        return itertools.product(*slots)

    def brute_force(self, G, data):
        """The tuples that pass validate, in lexicographic order."""
        out = []
        for t in self.tuples(G, data):
            v = HurwitzVector(data.g_quot, t[:2 * data.g_quot], t[2 * data.g_quot:])
            try:
                out.append(flat(validate(v, G)))
            except (RelationViolation, NotGenerating):
                pass
        return out

    @pytest.mark.parametrize("label, data", CASES)
    def test_matches_brute_force(self, catalog, label, data):
        G = dict(catalog)[label]
        got = [flat(v) for v in enumerate_hurwitz_vectors(G, data)]
        assert got == self.brute_force(G, data)
        # some vectors generate only once their last free entry is placed
        free = 2 * data.g_quot + max(data.r - 1, 0)
        late = [t for t in got if len(_span(G, t[:free - 1])) < G.order]
        assert late and all(len(_span(G, t)) == G.order for t in got)
        if label == "metacyclic:3,2,2" and data.r:
            assert any(len(_span(G, t[:free - 1])) == 3 for t in late)

    @pytest.mark.parametrize("label, data", [c for c in CASES if c[1].r])
    def test_forced_entry_never_completes_generation(self, catalog, label, data):
        # the forced entry is a word in the free entries, so a prefix that
        # does not generate G cannot be completed by it
        G = dict(catalog)[label]
        checked = 0
        for t in self.tuples(G, data):
            v = HurwitzVector(data.g_quot, t[:2 * data.g_quot], t[2 * data.g_quot:])
            try:
                validate(v, G)
            except RelationViolation:
                continue
            except NotGenerating:
                pass
            assert _span(G, t[:-1]) == _span(G, t)
            checked += 1
        assert checked

    def test_fewer_lookups_than_vectors(self, monkeypatch, closure_calls):
        # one entry-set lookup per leaf made 59,139 for these 54,400 vectors;
        # the search tests the candidates once per datum and closes one
        # subgroup per (span, entry) pair it meets whose span is new
        G = build_metacyclic(MetacyclicParams(4, 2, 3))
        original, closed = hurwitz.generates, hurwitz.closure
        calls, closures = [], []

        def counting(G, S):
            calls.append(frozenset(S))
            return original(G, S)

        def closing(G, S):
            closures.append(tuple(S))
            return closed(G, S)

        monkeypatch.setattr(hurwitz, "generates", counting)
        monkeypatch.setattr(hurwitz, "closure", closing)
        data = enumerate_branching_data(G, 9)
        total = sum(1 for d in data for _ in enumerate_hurwitz_vectors(G, d))
        assert total == 54400
        assert len(calls) == len(data)
        assert len(closures) < total // 100
        # the group's memo runs one closure per distinct set over all the data
        assert closure_calls == Counter(dict.fromkeys(calls, 1))

    def test_candidates_in_a_proper_subgroup_end_the_search(self, monkeypatch):
        # the involutions of A4 span only V4: with twelve of them there are
        # 3^11 leaves, and one test of the candidates rules them all out
        G = build_from_permutations(["(1,2,3)", "(2,3,4)"])
        original = hurwitz.generates
        calls = []

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(hurwitz, "generates", counting)
        assert list(enumerate_hurwitz_vectors(G, BranchingData(0, (2,) * 12))) == []
        assert len(calls) == 1 and len(_span(G, calls[0][1])) == 4
        monkeypatch.undo()
        # every tuple, on data small enough to list: one ruled out the same
        # way, one whose candidates generate
        for data in [BranchingData(0, (2,) * 5), BranchingData(0, (2, 3, 3))]:
            got = [flat(v) for v in enumerate_hurwitz_vectors(G, data)]
            assert got == self.brute_force(G, data)
        assert got



# Independent counting oracle. It reads only the multiplication rows, the
# inverses and the element orders of a group, and shares no code with the
# enumerator: tuples satisfying the relation are counted in every subgroup by
# dynamic programming over partial products, and Hall's Moebius inversion over
# the subgroup lattice (Hall 1936, "The Eulerian functions of a group") keeps
# the tuples that generate the whole group.

def _subgroup_lattice(G):
    """mu(H, G) for every subgroup H, keyed by H as a frozenset."""
    rows = G.mul_rows()

    def closure(gens):
        seen = {G.identity}
        frontier = [G.identity]
        while frontier:
            nxt = []
            for a in frontier:
                for x in gens:
                    b = rows[a][x]
                    if b not in seen:
                        seen.add(b)
                        nxt.append(b)
            frontier = nxt
        return frozenset(seen)

    # every subgroup is reached from the trivial one by adding one element at
    # a time along a chain of subgroups
    subgroups = {frozenset([G.identity])}
    frontier = list(subgroups)
    while frontier:
        nxt = []
        for H in frontier:
            for x in range(G.order):
                if x not in H:
                    K = closure(set(H) | {x})
                    if K not in subgroups:
                        subgroups.add(K)
                        nxt.append(K)
        frontier = nxt
    by_size = sorted(subgroups, key=len, reverse=True)
    mu = {}
    for H in by_size:
        mu[H] = 1 if len(H) == G.order else -sum(
            mu[K] for K in by_size if len(K) > len(H) and H < K)
    return mu


def _relation_count(G, H, data):
    """Tuples in H with prod [a_i, b_i] prod c_j = 1 and ord c_j = m_j."""
    rows = G.mul_rows()
    inv = [G.inv(x) for x in range(G.order)]
    elems = sorted(H)
    dist = {G.identity: 1}

    def step(dist, weights):
        out = {}
        for x, n in dist.items():
            row = rows[x]
            for y, w in weights.items():
                z = row[y]
                out[z] = out.get(z, 0) + n * w
        return out

    if data.g_quot:
        comm = {}
        for a in elems:
            for b in elems:
                c = rows[rows[rows[a][b]][inv[a]]][inv[b]]
                comm[c] = comm.get(c, 0) + 1
        for _ in range(data.g_quot):
            dist = step(dist, comm)
    for m in data.branch_orders:
        dist = step(dist, {x: 1 for x in elems if G.elem_order(x) == m})
    return dist.get(G.identity, 0)


def _oracle_count(G, mu, data):
    return sum(mu_h * _relation_count(G, H, data) for H, mu_h in mu.items() if mu_h)


def _center_order(G):
    rows = G.mul_rows()
    return sum(1 for z in range(G.order)
               if all(rows[z][x] == rows[x][z] for x in range(G.order)))


class TestCountingOracle:
    GENERA = range(2, 7)

    def test_oracle_on_s3_brute_force(self, s3):
        # the literal brute force of TestEnumerationCounts gives 12
        mu = _subgroup_lattice(s3)
        assert len(mu) == 6
        assert _oracle_count(s3, mu, BranchingData(0, (2, 2, 3, 3))) == 12

    def test_counts_match_enumeration(self, catalog):
        checked = 0
        for label, G in catalog:
            assert G.order <= 24
            mu = _subgroup_lattice(G)
            for g in self.GENERA:
                for data in enumerate_branching_data(G, g):
                    got = sum(1 for _ in enumerate_hurwitz_vectors(G, data))
                    assert got == _oracle_count(G, mu, data), (label, data)
                    checked += 1
        assert checked == 488

    def test_orbits_times_group_order(self, catalog):
        # G/Z(G) acts freely on generating vectors by simultaneous conjugation
        opts = EnumerationOptions(up_to_conjugacy=True)
        for label, G in catalog:
            z = _center_order(G)
            for g in self.GENERA:
                for data in enumerate_branching_data(G, g):
                    raw = sum(1 for _ in enumerate_hurwitz_vectors(G, data))
                    orbits = sum(1 for _ in enumerate_hurwitz_vectors(G, data, opts))
                    assert raw * z == orbits * G.order, (label, data)


class TestFrobeniusCount:
    """The relation count from class structure constants: Frobenius's formula
    |G|^(2g'-1) sum_chi chi(1)^(2-2g') prod_j sum_{c: ord c = m_j} |C_c| chi(g_c)/chi(1)
    counts the tuples of every datum, generating or not, from the characters alone."""

    def test_matches_the_relation_count(self, catalog):
        checked = 0
        for label, G in catalog:
            T = character_table(G)
            orders = [G.elem_order(x) for x in T.classes.representatives]
            # chi(g_c) from the eigenvalue counts, reading zeta_m as exp(2 pi i / m)
            chi = np.column_stack([eigenvalue_counts(T, c) @ np.exp(2j * np.pi * np.arange(m) / m)
                                   for c, m in enumerate(orders)])
            degrees = np.array(T.degrees, dtype=float)
            sums = {m: sum(T.classes.class_sizes[c] * chi[:, c]
                           for c in range(T.class_count) if orders[c] == m) / degrees
                    for m in set(orders)}
            for g in TestCountingOracle.GENERA:
                for data in enumerate_branching_data(G, g):
                    h = data.g_quot
                    terms = float(G.order) ** (2 * h - 1) * degrees ** (2 - 2 * h)
                    for m in data.branch_orders:
                        terms = terms * sums[m]
                    total = complex(terms.sum())
                    count = round(total.real)
                    assert abs(total - count) < 1e-6, (label, data, total)
                    assert count == _relation_count(G, range(G.order), data), (label, data)
                    checked += 1
        assert checked == 488


def _is_orbit_minimum(G, t):
    """Brute force: no simultaneous conjugate of the flat tuple t is smaller."""
    rows = G.mul_rows()
    for h in range(G.order):
        hi = G.inv(h)
        if tuple(rows[rows[h][x]][hi] for x in t) < t:
            return False
    return True


class TestPrefixPruning:
    """Orbit representatives against whole-vector minimality tests."""

    def test_matches_filtered_raw_output(self, catalog):
        opts = EnumerationOptions(up_to_conjugacy=True)
        checked = 0
        for label, G in catalog:
            assert G.order <= 24
            for g in TestCountingOracle.GENERA:
                for data in enumerate_branching_data(G, g):
                    raw = [flat(v) for v in enumerate_hurwitz_vectors(G, data)]
                    expect = [t for t in raw if _is_orbit_minimum(G, t)]
                    got = [flat(v) for v in enumerate_hurwitz_vectors(G, data, opts)]
                    assert got == expect, (label, data)
                    checked += 1
        assert checked == 488

    def test_conjugators_are_the_non_central_elements(self, catalog):
        for label, G in catalog:
            rows = conjugation_rows(G)
            assert len(rows) == G.order - _center_order(G), label
            assert all(sorted(row) == list(range(G.order)) for row in rows), label

    def test_cap_counts_representatives(self):
        G = build_metacyclic(MetacyclicParams(5, 2, 4))
        data = BranchingData(1, (2, 2))
        opts = EnumerationOptions(up_to_conjugacy=True)
        reps = [flat(v) for v in enumerate_hurwitz_vectors(G, data, opts)]
        assert len(reps) == 48
        exact = EnumerationOptions(up_to_conjugacy=True, max_vectors=len(reps))
        assert [flat(v) for v in enumerate_hurwitz_vectors(G, data, exact)] == reps
        short = EnumerationOptions(up_to_conjugacy=True, max_vectors=len(reps) - 1)
        stream = enumerate_hurwitz_vectors(G, data, short)
        assert [flat(next(stream)) for _ in range(len(reps) - 1)] == reps[:-1]
        with pytest.raises(EnumerationCapExceeded):
            next(stream)
