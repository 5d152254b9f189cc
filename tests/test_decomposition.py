"""Representation-type partitions, refinement laws, and stabilization scans."""

import dataclasses
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import cwmoduli.chevalley_weil as chevalley_weil
import cwmoduli.decomposition as decomposition
import cwmoduli.hurwitz as hurwitz
from cwmoduli import (
    BranchingData,
    EnumerationOptions,
    HurwitzVector,
    InternalConsistencyError,
    MetacyclicParams,
    StabilizationReport,
    build_cyclic,
    build_metacyclic,
    canonical_decomposition,
    character_table,
    cw_character,
    decompose_at_k,
    enumerate_branching_data,
    enumerate_hurwitz_vectors,
    genus,
    refine,
    stabilization_report,
    validate,
)
from cwmoduli.groups import _row_groups
from conftest import block_types, conjugate_vector, item_keys


def census(G, g):
    return [
        v
        for d in enumerate_branching_data(G, g)
        for v in enumerate_hurwitz_vectors(G, d)
    ]


def class_key(v, T):
    """(quotient genus, sorted branch class ids): what multiplicities depend on."""
    return v.g_quot, tuple(sorted(int(T.classes.class_of[c]) for c in v.branches))


def reference_report(items, T, k_max):
    """The level-by-level algorithm: decompose_at_k at every level, then refine.

    Returns the final refinement, the stabilization depth, every level's
    standalone block count and the levels that split the running
    refinement, comparing partitions level by level; periodicity is asserted.
    """
    per_level = [decompose_at_k(items, T, k) for k in range(1, k_max + 1)]
    running = None
    before = frozenset([frozenset(range(len(items)))] if items else [])
    depth, counts, splits = 1, [], []
    for k, Dk in enumerate(per_level, start=1):
        running = Dk if running is None else refine(running, Dk)
        if running.partition() != before:
            depth = k
            splits.append(k)
        counts.append(Dk.block_count)
        before = running.partition()
    order = T.group.order
    for k in range(1, k_max - order + 1):
        assert per_level[k - 1].partition() == per_level[k + order - 1].partition()
    return running, depth, counts, splits


def meet_by_hand(p1, p2, n):
    """Brute-force common refinement of two partitions given as index->key maps."""
    blocks = {}
    for i in range(n):
        blocks.setdefault((p1[i], p2[i]), set()).add(i)
    return frozenset(frozenset(b) for b in blocks.values())


class TestDecomposeAtK:
    def test_two_loci(self, z3_table, genus6_vectors):
        v, v_alt = genus6_vectors
        for k, blocks in ((1, 2), (2, 1), (3, 2)):
            D = decompose_at_k([v, v_alt], z3_table, k)
            assert D.block_count == blocks
            assert D.ks == (k,)

    def test_domain_errors(self, z3_table, genus6_vectors):
        v, _ = genus6_vectors
        genus1 = HurwitzVector(0, (), (1, 1, 1))
        with pytest.raises(ValueError, match=r"several genera \[1, 6\]"):
            decompose_at_k([v, genus1, v], z3_table, 2)
        with pytest.raises(ValueError, match="genus 1 is below 2"):
            stabilization_report([genus1], z3_table, 2)
        with pytest.raises(ValueError, match="level must be >= 1"):
            decompose_at_k([v], z3_table, 0)

    def test_blocks_sorted_by_key_and_indices_ascending(self, z3, z3_table):
        items = census(z3, 6)
        D = decompose_at_k(items, z3_table, 1)
        types = block_types(D)
        assert list(types) == sorted(set(types))
        for block in D.blocks:
            assert list(block) == sorted(block)
        covered = sorted(i for b in D.blocks for i in b)
        assert covered == list(range(len(items)))

    def test_keys_match_cw(self, z3, z3_table):
        items = census(z3, 6)
        D = decompose_at_k(items, z3_table, 2)
        assert D.types.shape == (D.block_count, 1, z3_table.class_count)
        for block, key in zip(D.blocks, block_types(D)):
            for i in block:
                assert key == (cw_character(items[i], z3_table, 2).mults,)

    def test_types_are_read_only_and_part_of_equality(self, z3_table, genus6_vectors):
        # genus 6 at level 1 has dimension 6: the types fit int8
        D = decompose_at_k(genus6_vectors, z3_table, 1)
        refined = refine(D, decompose_at_k(genus6_vectors, z3_table, 2))
        assert D.types.dtype == np.int8 and refined.types.shape == (2, 2, 3)
        for types in (D.types, refined.types):
            with pytest.raises(ValueError, match="read-only"):
                types[0, 0, 0] = 1
        assert D == decompose_at_k(list(genus6_vectors), z3_table, 1)
        shifted = dataclasses.replace(D, types=D.types + 1)
        assert shifted.partition() == D.partition() and shifted != D

    def test_mixed_genus_rejected(self, z2, z2_table):
        a = HurwitzVector(2, (1, 0, 0, 0), ())  # genus 3
        b = HurwitzVector(1, (1, 0), (1, 1))    # genus 2
        with pytest.raises(ValueError):
            decompose_at_k([a, b], z2_table, 1)

    def test_empty_items(self, z3_table):
        D = decompose_at_k([], z3_table, 1)
        assert D.block_count == 0
        assert D.partition() == frozenset()


class TestRefine:
    def test_matches_brute_force_meet(self, z3, z3_table):
        items = census(z3, 6)
        n = len(items)
        for ka, kb in ((1, 2), (1, 3), (2, 3)):
            Da = decompose_at_k(items, z3_table, ka)
            Db = decompose_at_k(items, z3_table, kb)
            got = refine(Da, Db)
            expect = meet_by_hand(item_keys(Da), item_keys(Db), n)
            assert got.partition() == expect
            assert got.ks == (ka, kb)

    def test_idempotent_and_symmetric(self, z3, z3_table):
        items = census(z3, 6)[:40]
        D1 = decompose_at_k(items, z3_table, 1)
        D2 = decompose_at_k(items, z3_table, 2)
        assert refine(D1, D1).partition() == D1.partition()
        assert refine(D1, D2).partition() == refine(D2, D1).partition()

    def test_keys_concatenate(self, z3_table, genus6_vectors):
        v, v_alt = genus6_vectors
        D = refine(decompose_at_k([v, v_alt], z3_table, 1),
                   decompose_at_k([v, v_alt], z3_table, 2))
        assert D.types.tolist() == [[[0, 3, 3], [5, 5, 5]], [[2, 2, 2], [5, 5, 5]]]

    def test_item_mismatch_rejected(self, z3_table, genus6_vectors):
        v, v_alt = genus6_vectors
        D1 = decompose_at_k([v], z3_table, 1)
        D2 = decompose_at_k([v_alt], z3_table, 1)
        with pytest.raises(ValueError):
            refine(D1, D2)


class TestCanonical:
    def test_two_loci_depth(self, z3_table, genus6_vectors):
        CD = canonical_decomposition(genus6_vectors, z3_table)
        assert isinstance(CD, StabilizationReport)
        assert CD.final.block_count == 2
        assert CD.stabilization_depth == 1
        assert CD.final.ks == (1, 2, 3)

    def test_eight_branch_census_splits_in_three(self, z3, z3_table):
        # the 86 vectors with eight order-3 branch points carry three distinct
        # branch-class multisets, so level 1 already separates them
        items = list(enumerate_hurwitz_vectors(z3, BranchingData(0, (3,) * 8)))
        assert len(items) == 86
        CD = canonical_decomposition(items, z3_table)
        D = CD.final
        assert D.block_count == 3
        assert [len(b) for b in D.blocks] == [8, 70, 8]
        assert D.types[:, 0].tolist() == [[0, 2, 4], [0, 3, 3], [0, 4, 2]]
        assert CD.stabilization_depth == 1
        # twos count per block: 7, 4, 1
        for block, twos in zip(D.blocks, (7, 4, 1)):
            for i in block:
                assert sum(1 for c in items[i].branches if c == 2) == twos

    def test_full_census_block_structure(self, z3, z3_table):
        items = census(z3, 6)
        CD = canonical_decomposition(items, z3_table)
        assert sorted(len(b) for b in CD.final.blocks) == [8, 8, 45, 45, 70, 162]
        assert CD.stabilization_depth == 1

    def test_single_item_never_splits(self, z3_table, genus6_vectors):
        v, _ = genus6_vectors
        CD = canonical_decomposition([v], z3_table)
        assert CD.final.block_count == 1
        assert CD.stabilization_depth == 1

    def test_empty_items(self, z3_table):
        CD = canonical_decomposition([], z3_table)
        assert CD.final.block_count == 0

    def test_partition_is_item_order_independent(self, z3, z3_table):
        items = census(z3, 6)[:60]
        rng = random.Random(43)
        shuffled = items[:]
        rng.shuffle(shuffled)
        base = canonical_decomposition(items, z3_table).final
        other = canonical_decomposition(shuffled, z3_table).final
        as_vectors = lambda D: frozenset(
            frozenset(D.items[i] for i in b) for b in D.blocks)
        assert as_vectors(base) == as_vectors(other)

    def test_conjugates_share_blocks(self, s3, s3_table):
        rng = random.Random(47)
        items = census(s3, 3)
        CD = canonical_decomposition(items, s3_table)
        key_of = dict(zip(items, item_keys(CD.final)))
        for _ in range(80):
            v = rng.choice(items)
            w = conjugate_vector(v, s3, rng.randrange(6))
            assert key_of[v] == key_of[w]

    def test_nonabelian_orbit_and_raw_agree(self, s3, s3_table):
        data = BranchingData(0, (2, 2, 3, 3))
        raw = list(enumerate_hurwitz_vectors(s3, data))
        reps = list(enumerate_hurwitz_vectors(
            s3, data, EnumerationOptions(up_to_conjugacy=True)))
        raw_types = canonical_decomposition(raw, s3_table).final.types
        rep_types = canonical_decomposition(reps, s3_table).final.types
        assert np.array_equal(raw_types, rep_types)


class TestStabilizationReport:
    def test_two_loci_schedule(self, z3_table, genus6_vectors):
        rep = stabilization_report(genus6_vectors, z3_table, 6)
        assert rep.stabilization_depth == 1
        assert rep.block_counts.tolist() == [2, 1, 2, 2, 1, 2]
        assert not rep.block_counts.flags.writeable
        assert rep == stabilization_report(genus6_vectors, z3_table, 6)
        assert rep != stabilization_report(genus6_vectors, z3_table, 5)
        assert rep.split_levels == (1,)
        assert rep.final.partition() == frozenset({frozenset({0}), frozenset({1})})

    def test_census_depth_one(self, z3, z3_table):
        items = census(z3, 6)
        rep = stabilization_report(items, z3_table, 9)
        assert rep.stabilization_depth == 1
        assert len(rep.block_counts) == 9
        assert rep.split_levels == (1,)

    def test_single_item(self, z3_table, genus6_vectors):
        v, _ = genus6_vectors
        rep = stabilization_report([v], z3_table, 4)
        assert rep.split_levels == ()
        assert rep.block_counts.tolist() == [1] * 4

    def test_k_max_validation(self, z3_table, genus6_vectors):
        with pytest.raises(ValueError):
            stabilization_report(list(genus6_vectors), z3_table, 0)

    def test_long_scan_retains_arrays_not_level_records(self):
        # 200,000 levels on two blocks: what the report keeps is its types,
        # its ks and one block count per level, not one object per level
        G = build_cyclic(2)
        T = character_table(G)
        items = census(G, 2)
        stabilization_report(items, T, 2)  # builds what the table caches
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            rep = stabilization_report(items, T, 200_000)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert rep.block_counts.tolist() == [2] * 200_000 and rep.split_levels == (1,)
        assert retained < 15e6, retained

    def test_s3_long_scan_consistent(self, s3, s3_table):
        # runs the internal periodicity cross-checks out to 2|G| + 2
        items = census(s3, 2)
        rep = stabilization_report(items, s3_table, 14)
        assert len(rep.block_counts) == 14 and rep.final.ks[-1] == 14
        assert rep.stabilization_depth <= 6


class TestOnePassOracle:
    """The one-pass scan against decompose_at_k per level followed by refine."""

    @pytest.mark.parametrize("orbits", [False, True], ids=["raw", "orbit"])
    def test_matches_level_by_level_refinement(self, catalog_le_12, orbits):
        opts = EnumerationOptions(up_to_conjugacy=orbits)
        for label, G in catalog_le_12:
            T = character_table(G)
            for g in (2, 3, 4):
                items = [v for d in enumerate_branching_data(G, g)
                         for v in enumerate_hurwitz_vectors(G, d, opts)]
                for k_max in sorted({1, G.order, 2 * G.order + 1}):
                    final, depth, counts, splits = reference_report(items, T, k_max)
                    rep = stabilization_report(items, T, k_max)
                    case = (label, g, k_max)
                    assert rep.final == final, case  # items, ks, blocks, types
                    assert rep.stabilization_depth == depth, case
                    assert rep.block_counts.tolist() == counts, case
                    assert list(rep.split_levels) == splits, case
                    if k_max == G.order:
                        CD = canonical_decomposition(items, T)
                        assert CD.final == final, case
                        assert CD.stabilization_depth == depth, case

    @pytest.mark.parametrize("orbits", [False, True], ids=["raw", "orbit"])
    def test_matches_per_item_queries_at_genus_3_to_6(self, catalog_le_12, orbits):
        # the per-item algorithm: every item's type tuple from cw_character,
        # grouped by tuple, blocks ordered by key
        opts = EnumerationOptions(up_to_conjugacy=orbits)
        for label, G in catalog_le_12:
            T = character_table(G)
            for g in range(3, 7):
                items = [v for d in enumerate_branching_data(G, g)
                         for v in enumerate_hurwitz_vectors(G, d, opts)]
                ks = tuple(range(1, G.order + 1))
                by_type = {}
                for idx, v in enumerate(items):
                    key = tuple(cw_character(v, T, k).mults for k in ks)
                    by_type.setdefault(key, []).append(idx)
                keys = sorted(by_type)
                D = canonical_decomposition(items, T).final
                case = (label, g)
                assert D.items == tuple(items), case
                assert D.ks == ks, case
                assert D.blocks == tuple(tuple(by_type[key]) for key in keys), case
                assert block_types(D) == tuple(keys), case
                if g == 3:
                    assert D == reference_report(items, T, G.order)[0], case

    def test_one_validation_per_item_and_no_memo_entry(self, monkeypatch, validate_calls,
                                                       checked_rows, s3):
        # every item's row is checked once in bulk, validate runs on none, and
        # generation is one lookup per distinct sorted entry row
        T = character_table(s3)
        items = census(s3, 4)
        copies = [HurwitzVector(v.g_quot, v.handles, v.branches) for v in items]
        lookups = Counter()
        real_generates = hurwitz.generates

        def counting(G, S):
            lookups[tuple(S)] += 1
            return real_generates(G, S)

        monkeypatch.setattr(hurwitz, "generates", counting)
        sorted_rows = {tuple(sorted(v.entries)) for v in items}
        assert len(sorted_rows) < len(items)
        for batch in (items, copies):
            validate_calls.clear()
            checked_rows.clear()
            lookups.clear()
            stabilization_report(batch, T, 8)
            assert T._validated == {}
            assert validate_calls == Counter()
            assert checked_rows == Counter((v.g_quot, v.entries) for v in items)
            assert lookups == Counter(sorted_rows)

    def test_decompositions_file_no_level_records(self, s3):
        # the multiplicity caches stay empty, and later per-item queries,
        # evaluated on their own, give every block's key at every level
        T = character_table(s3)
        items = census(s3, 4)
        runs = [decompose_at_k(items, T, 3), stabilization_report(items, T, 8).final,
                canonical_decomposition(items, T).final]
        assert T._levels == {}
        assert T._validated == {}
        for D in runs:
            for block, key in zip(D.blocks, block_types(D)):
                for idx in block:
                    for k, mults in zip(D.ks, key):
                        assert cw_character(items[idx], T, k).mults == mults

    def test_decompose_reports_its_own_evaluation(self, monkeypatch, s3):
        # level records that cw_character filed earlier, here with the rows of
        # the two degree-1 characters swapped, do not stand in for decompose's
        T = character_table(s3)
        items = census(s3, 4)
        real = chevalley_weil._evaluate
        with monkeypatch.context() as m:
            m.setattr(chevalley_weil, "_evaluate",
                      lambda T, ks, g_quot, g, ck: real(T, ks, g_quot, g, ck)[[1, 0, 2]])
            for v in items:
                for k in range(1, 9):
                    cw_character(v, T, k)
        fresh = character_table(s3)
        want = stabilization_report(items, fresh, 8)
        assert any(cw_character(v, T, k) != cw_character(v, fresh, k)
                   for v in items for k in range(1, 9))
        assert stabilization_report(items, T, 8) == want
        assert canonical_decomposition(items, T) == canonical_decomposition(items, fresh)
        for k in (1, 2, 7):
            assert decompose_at_k(items, T, k) == decompose_at_k(items, fresh, k)

    def test_one_evaluation_per_class_key(self, monkeypatch, s3, s3_table):
        # one evaluation per (g', class key) per run, at all its levels at
        # once, and the bulk keys are the per-item class keys
        items = census(s3, 3)
        keys = {class_key(v, s3_table) for v in items}
        assert 1 < len(keys) < len(items)
        evaluations, bulk_keys = Counter(), []
        real_evaluate = decomposition._evaluate
        real_keys = decomposition._class_keys

        def counting(T, ks, g_quot, g, ck):
            evaluations[(g_quot, ck, ks)] += 1
            return real_evaluate(T, ks, g_quot, g, ck)

        def recording(batch, T):
            found, key_of = real_keys(batch, T)
            bulk_keys.append([found[i] for i in key_of.tolist()])
            return found, key_of

        monkeypatch.setattr(decomposition, "_evaluate", counting)
        monkeypatch.setattr(decomposition, "_class_keys", recording)
        runs = [(lambda: decompose_at_k(items, s3_table, 4), (4,)),
                (lambda: canonical_decomposition(items, s3_table), range(1, 7)),
                (lambda: stabilization_report(items, s3_table, 13), range(1, 14))]
        for call, ks in runs:
            evaluations.clear()
            bulk_keys.clear()
            call()
            assert evaluations == Counter({key + (tuple(ks),): 1 for key in keys})
            assert bulk_keys == [[class_key(v, s3_table) for v in items]]


def _raised(call):
    """(type, message) of the exception call() raises."""
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


class TestBulkValidation:
    """decompose validates its items in arrays, with validate's errors."""

    def bad_vectors(self, G, items):
        """One invalid vector of each kind validate reports, by name.

        Each would pass the other checks: an id out of range stands where
        numpy's wrapped index would read a valid entry, and the identity
        joins a valid vector.
        """
        last = G.order - 1
        v = next(w for w in items if w.g_quot == 0 and last in w.branches)
        j = v.branches.index(last)

        def at_j(x):
            return HurwitzVector(0, (), v.branches[:j] + (x,) + v.branches[j + 1:])

        other = next(x for x in G.elements() if x not in (0, last))
        involution = next(x for x in G.elements() if G.elem_order(x) == 2)
        return {
            "out of range": at_j(G.order),
            "negative": at_j(-1),
            "beyond int64": at_j(2 ** 70),
            "identity branch": HurwitzVector(0, (), (0,) + v.branches),
            "relation": at_j(other),
            "not generating": HurwitzVector(0, (), (involution, involution)),
            "not generating, handles": HurwitzVector(1, (involution, involution), ()),
            # only a record built around the constructor can have these
            "handle count": tuple.__new__(HurwitzVector, (1, (), v.branches)),
            "genus beyond int64": tuple.__new__(HurwitzVector, (2 ** 70, (), v.branches)),
        }

    def test_each_failure_raises_what_validate_raises(self, s3):
        T = character_table(s3)
        items = census(s3, 4)
        assert len({(v.g_quot, len(v.branches)) for v in items}) > 2
        for kind, bad in self.bad_vectors(s3, items).items():
            want = _raised(lambda: validate(bad, s3))
            for at in (0, len(items) // 2, len(items)):
                batch = items[:at] + [bad] + items[at:]
                assert _raised(lambda: decompose_at_k(batch, T, 1)) == want, (kind, at)
        assert T._validated == {}

    def test_the_lowest_invalid_index_wins(self, s3):
        T = character_table(s3)
        items = census(s3, 4)
        bad = self.bad_vectors(s3, items)
        batch = list(items)
        batch[5] = bad["not generating, handles"]
        batch[3] = bad["relation"]
        batch[9] = bad["out of range"]
        assert _raised(lambda: decompose_at_k(batch, T, 1)) == _raised(
            lambda: validate(bad["relation"], s3))

    def test_a_row_validate_accepts_is_an_internal_error(self, monkeypatch, s3):
        T = character_table(s3)
        items = census(s3, 3)
        monkeypatch.setattr(chevalley_weil, "_invalid_rows",
                            lambda G, g_quot, entries, n_handles: np.ones(len(entries), bool))
        with pytest.raises(InternalConsistencyError,
                           match="bulk validation rejected item 0, which validate accepts"):
            decompose_at_k(items, T, 1)

    @pytest.mark.parametrize("width, bound", [(6, 10), (31, 3), (7, 512), (32, 3)])
    def test_row_groups_match_grouping_by_hand(self, width, bound):
        # (7, 512) and (32, 3) are too wide for one int64 code per row
        rng = np.random.default_rng(width)
        rows = rng.integers(0, min(bound, 3), size=(200, width))
        rows[::7] = bound - 1
        one, group = _row_groups(rows, bound)
        by_hand = {}
        for i, row in enumerate(map(tuple, rows.tolist())):
            by_hand.setdefault(row, []).append(i)
        assert len(one) == len(by_hand)
        for members in by_hand.values():
            assert len(set(group[members].tolist())) == 1
            assert tuple(rows[one[group[members[0]]]]) == tuple(rows[members[0]])
        # groups are numbered in lexicographic order of their rows
        assert [tuple(r) for r in rows[one].tolist()] == sorted(by_hand)


class TestArrayEvaluation:
    def test_levels_beyond_int64_stay_exact(self):
        # a free action of S3: Python ints replace int64 once the scaled
        # entries could pass 2^63
        G = build_metacyclic(MetacyclicParams(3, 2, 2))
        items = list(enumerate_hurwitz_vectors(G, BranchingData(2, ())))
        g = genus(items[0], G)
        T, reference = character_table(G), character_table(G)
        assert chevalley_weil._evaluate(T, (2 ** 50,), 2, g, ()).dtype == np.int64
        for k in (2 ** 50, 2 ** 62, 2 ** 70):
            assert chevalley_weil._evaluate(T, (k,), 2, g, ()).dtype == (
                np.int64 if k < 2 ** 62 else object)
            want = cw_character(items[0], reference, k).mults
            D = decompose_at_k(items, T, k)
            assert block_types(D) == ((want,),) and D.blocks == (tuple(range(len(items))),)
            # the smallest signed dtype that holds the dimension at level k
            assert D.types.dtype == (np.int64 if k < 2 ** 62 else object)
            if k >= 2 ** 62:
                assert all(type(m) is int for m in D.types.ravel())
        k_max = 2 * G.order + 1
        rep = stabilization_report(items, character_table(G), k_max)
        key = tuple(cw_character(items[0], reference, k).mults for k in range(1, k_max + 1))
        assert block_types(rep.final) == (key,)
        assert rep.final.types.dtype == np.int16


    @pytest.mark.parametrize("order, item, want, dtype", [
        (1, HurwitzVector(128, (0,) * 256, ()), [128], np.int16),
        (1, HurwitzVector(32768, (0,) * 65536, ()), [32768], np.int32),
        (2, HurwitzVector(0, (), (1,) * 258), [0, 128], np.int16),  # hyperelliptic
    ], ids=["trivial-128", "trivial-32768", "sign-128"])
    def test_a_multiplicity_equal_to_a_power_of_two_dimension_fits(self, order, item,
                                                                   want, dtype):
        # at level 1 the dimension is g, which one character may take whole:
        # the dtype must hold +dim, one past what -dim alone asks for
        D = decompose_at_k([item], character_table(build_cyclic(order)), 1)
        assert D.types.tolist() == [[want]] and D.types.dtype == dtype

class TestPeriodicityChecksBite:
    """Multiplicities that break periodicity above |G| must be caught."""

    def test_split_beyond_the_period_raises(self, monkeypatch, z3_table,
                                            genus6_vectors):
        # both keys share one type through |G| = 3; v's type differs at level 4
        v, _ = genus6_vectors
        target = class_key(v, z3_table)

        def collapsed(T, ks, g_quot, g, ck):
            mults = np.zeros((T.class_count, len(ks)), dtype=np.int64)
            if (g_quot, ck) == target:
                mults[0] = [k > T.group.order for k in ks]
            return mults

        monkeypatch.setattr(decomposition, "_evaluate", collapsed)
        rep = stabilization_report(genus6_vectors, z3_table, 3)
        assert rep.final.block_count == 1
        with pytest.raises(InternalConsistencyError, match="split the refinement"):
            stabilization_report(genus6_vectors, z3_table, 4)

    def test_partitions_k_and_k_plus_order_that_differ_raise(self, monkeypatch,
                                                             z3_table, genus6_vectors):
        # v_alt takes v's level-4 vector: level 4 merges what level 1 separates
        v, v_alt = genus6_vectors
        target = class_key(v_alt, z3_table)
        real_evaluate = decomposition._evaluate
        v_quot, v_classes = class_key(v, z3_table)

        def merged(T, ks, g_quot, g, ck):
            mults = real_evaluate(T, ks, g_quot, g, ck)
            k = T.group.order + 1
            if (g_quot, ck) == target and k in ks:
                mults[:, ks.index(k)] = real_evaluate(T, (k,), v_quot, g, v_classes)[:, 0]
            return mults

        monkeypatch.setattr(decomposition, "_evaluate", merged)
        assert stabilization_report(genus6_vectors, z3_table, 3).final.block_count == 2
        with pytest.raises(InternalConsistencyError, match="differ"):
            stabilization_report(genus6_vectors, z3_table, 4)

    def test_partitions_with_equal_block_counts_that_differ_raise(self, monkeypatch,
                                                                  z3_table):
        # three keys, one per quotient genus: levels 1 and 4 both have two
        # blocks, {a, b} {c} and {a} {b, c}; levels 2 and 3 separate all three
        items = [next(v for v in census(z3_table.group, 6) if v.g_quot == q)
                 for q in (0, 1, 2)]
        labels = {1: (0, 0, 1), 2: (0, 1, 2), 3: (0, 1, 2), 4: (0, 1, 1)}

        def relabelled(T, ks, g_quot, g, ck):
            mults = np.zeros((T.class_count, len(ks)), dtype=np.int64)
            mults[0] = [labels[k][g_quot] for k in ks]
            return mults

        monkeypatch.setattr(decomposition, "_evaluate", relabelled)
        rep = stabilization_report(items, z3_table, 3)
        assert rep.block_counts.tolist() == [2, 3, 3]
        with pytest.raises(InternalConsistencyError, match="levels 1 and 4 differ"):
            stabilization_report(items, z3_table, 4)

    @pytest.mark.parametrize("level", [1, 2])
    def test_a_shift_shared_by_every_block_is_caught(self, monkeypatch, z3_table,
                                                     genus6_vectors, level):
        # one character gains 1 at level + |G| on every key alike: every
        # standalone partition stays as it was, but the shift between levels
        # level and level + |G| leaves its closed form
        real_evaluate = decomposition._evaluate
        k = level + z3_table.group.order

        def shifted(T, ks, g_quot, g, ck):
            mults = real_evaluate(T, ks, g_quot, g, ck)
            if k in ks:
                mults[1, ks.index(k)] += 1
            return mults

        monkeypatch.setattr(decomposition, "_evaluate", shifted)
        assert (decompose_at_k(genus6_vectors, z3_table, k).partition()
                == decompose_at_k(genus6_vectors, z3_table, level).partition())
        assert stabilization_report(genus6_vectors, z3_table, k - 1).final.block_count == 2
        with pytest.raises(InternalConsistencyError, match=f"levels {level} and {k} differ"):
            stabilization_report(genus6_vectors, z3_table, k)


class TestVectorRows:
    """Decomposition.items: a read-only, lazy view of the vectors as integer rows."""

    @staticmethod
    def search_rows(G, g):
        """The view the decompose command builds: one block per search block."""
        return hurwitz._VectorRows(
            (d.g_quot, 2 * d.g_quot, rows)
            for d in enumerate_branching_data(G, g)
            for rows in hurwitz.enumerate_hurwitz_rows(G, d))

    def test_reads_like_the_vectors(self, s3):
        items = census(s3, 4)
        view = decompose_at_k(items, character_table(s3), 1).items
        assert len(view) == len(items) and list(view) == items
        assert [view[i] for i in range(len(items))] == items
        assert all(type(v) is HurwitzVector for v in view)
        assert view[-1] == items[-1] and view[-len(items)] == items[0]
        assert view.index(items[5]) == 5 and items[7] in view
        for i in (len(items), -len(items) - 1):
            with pytest.raises(IndexError):
                view[i]

    def test_equality_is_by_value(self, s3):
        items = census(s3, 4)
        view = decompose_at_k(items, character_table(s3), 1).items
        assert view == items and items == view and view == tuple(items)
        assert view != items[:-1] and view != items[::-1] and view != "abc"
        assert view != items[:-1] + [HurwitzVector(0, (), (1, 1))]
        # search blocks (int8, several per datum) against the vectors' runs (int64)
        rows = self.search_rows(s3, 4)
        assert rows == view and rows.blocks[0][2].dtype != view.blocks[0][2].dtype
        assert [b[:2] for b in rows.blocks] == [b[:2] for b in view.blocks]
        with pytest.raises(TypeError):
            hash(view)

    def test_blocks_of_one_shape_are_joined(self, s3):
        G, g = s3, 4
        pieces = [(d.g_quot, 2 * d.g_quot, rows[i:i + 5])
                  for d in enumerate_branching_data(G, g)
                  for rows in hurwitz.enumerate_hurwitz_rows(G, d)
                  for i in range(0, len(rows) + 5, 5)]  # empty pieces too
        view = hurwitz._VectorRows(pieces)
        assert view == self.search_rows(G, g) == census(G, g)
        shapes = [(g_quot, n_handles, rows.shape[1]) for g_quot, n_handles, rows in view.blocks]
        assert len(set(shapes)) == len(shapes) and all(len(b[2]) for b in view.blocks)

    def test_rows_are_read_only_and_the_callers_stay_writeable(self, s3):
        blocks = [(0, 0, np.array([[1, 1, 1, 3]], dtype=np.int8))]
        view = hurwitz._VectorRows(blocks)
        with pytest.raises(ValueError):
            view.blocks[0][2][0, 0] = 2
        blocks[0][2][0, 0] = 5
        assert view[0] == HurwitzVector(0, (), (5, 1, 1, 3))  # a view, not a copy
        D = decompose_at_k(census(s3, 3), character_table(s3), 2)
        with pytest.raises(ValueError):
            D.items.blocks[0][2][0, 0] = 0

    def test_refine_and_equality_across_the_two_paths(self, s3, s3_table):
        # the command's rows and the library's vectors give equal decompositions
        items = census(s3, 4)
        for k in (1, 2, 5):
            from_rows = decomposition._decompose(self.search_rows(s3, 4), s3_table, (k,))
            assert from_rows == decompose_at_k(items, s3_table, k)
        D1 = decomposition._decompose(self.search_rows(s3, 4), s3_table, (1,))
        D2 = decompose_at_k(items, s3_table, 2)
        assert refine(D1, D2) == refine(decompose_at_k(items, s3_table, 1), D2)
        with pytest.raises(ValueError, match="different item sequences"):
            refine(D1, decompose_at_k(items[:-1], s3_table, 2))
