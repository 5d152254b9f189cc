"""Representation-type partitions, refinement laws, and stabilization scans."""

import random
from collections import Counter

import pytest

import cwmoduli.chevalley_weil as chevalley_weil
import cwmoduli.decomposition as decomposition
from cwmoduli import (
    BranchingData,
    EnumerationOptions,
    HurwitzVector,
    InternalConsistencyError,
    LevelReport,
    MultiplicityVector,
    StabilizationReport,
    canonical_decomposition,
    character_table,
    cw_character,
    decompose_at_k,
    enumerate_branching_data,
    enumerate_hurwitz_vectors,
    refine,
    stabilization_report,
)
from conftest import conjugate_vector, item_keys


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

    Returns the final refinement, the stabilization depth and the level
    reports, comparing partitions level by level; periodicity is asserted.
    """
    per_level = [decompose_at_k(items, T, k) for k in range(1, k_max + 1)]
    running = None
    before = frozenset([frozenset(range(len(items)))] if items else [])
    depth, levels = 1, []
    for k, Dk in enumerate(per_level, start=1):
        running = Dk if running is None else refine(running, Dk)
        split = running.partition() != before
        if split:
            depth = k
        levels.append(LevelReport(k, Dk.block_count, split))
        before = running.partition()
    order = T.group.order
    for k in range(1, k_max - order + 1):
        assert per_level[k - 1].partition() == per_level[k + order - 1].partition()
    return running, depth, levels


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
        assert list(D.keys) == sorted(D.keys)
        for block in D.blocks:
            assert list(block) == sorted(block)
        covered = sorted(i for b in D.blocks for i in b)
        assert covered == list(range(len(items)))

    def test_keys_match_cw(self, z3, z3_table):
        items = census(z3, 6)
        D = decompose_at_k(items, z3_table, 2)
        for block, key in zip(D.blocks, D.keys):
            for i in block:
                assert key == (cw_character(items[i], z3_table, 2).mults,)

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
        assert D.keys == (((0, 3, 3), (5, 5, 5)), ((2, 2, 2), (5, 5, 5)))

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
        assert [key[0] for key in D.keys] == [(0, 2, 4), (0, 3, 3), (0, 4, 2)]
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
        raw_keys = {canonical_decomposition(raw, s3_table).final.keys}
        rep_keys = {canonical_decomposition(reps, s3_table).final.keys}
        assert raw_keys == rep_keys


class TestStabilizationReport:
    def test_two_loci_schedule(self, z3_table, genus6_vectors):
        rep = stabilization_report(genus6_vectors, z3_table, 6)
        assert rep.stabilization_depth == 1
        got = [(lv.k, lv.block_count, lv.split_running) for lv in rep.levels]
        assert got == [
            (1, 2, True),
            (2, 1, False),
            (3, 2, False),
            (4, 2, False),
            (5, 1, False),
            (6, 2, False),
        ]
        assert rep.final.partition() == frozenset({frozenset({0}), frozenset({1})})

    def test_census_depth_one(self, z3, z3_table):
        items = census(z3, 6)
        rep = stabilization_report(items, z3_table, 9)
        assert rep.stabilization_depth == 1
        assert [lv.split_running for lv in rep.levels] == [True] + [False] * 8

    def test_single_item(self, z3_table, genus6_vectors):
        v, _ = genus6_vectors
        rep = stabilization_report([v], z3_table, 4)
        assert all(not lv.split_running for lv in rep.levels)
        assert all(lv.block_count == 1 for lv in rep.levels)

    def test_k_max_validation(self, z3_table, genus6_vectors):
        with pytest.raises(ValueError):
            stabilization_report(list(genus6_vectors), z3_table, 0)

    def test_s3_long_scan_consistent(self, s3, s3_table):
        # runs the internal periodicity cross-checks out to 2|G| + 2
        items = census(s3, 2)
        rep = stabilization_report(items, s3_table, 14)
        assert rep.levels[-1].k == 14
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
                    final, depth, levels = reference_report(items, T, k_max)
                    rep = stabilization_report(items, T, k_max)
                    case = (label, g, k_max)
                    assert rep.final == final, case  # items, ks, blocks, keys
                    assert rep.stabilization_depth == depth, case
                    assert list(rep.levels) == levels, case
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
                assert D.keys == tuple(keys), case
                if g == 3:
                    assert D == reference_report(items, T, G.order)[0], case

    def test_one_validation_per_item_and_no_memo_entry(self, validate_calls, s3):
        T = character_table(s3)
        items = census(s3, 4)
        copies = [HurwitzVector(v.g_quot, v.handles, v.branches) for v in items]
        for batch in (items, copies):
            validate_calls.clear()
            stabilization_report(batch, T, 8)
            assert T._validated == {}
            assert validate_calls == Counter(items)

    def test_later_queries_read_the_block_keys(self, monkeypatch, s3):
        T = character_table(s3)
        items = census(s3, 4)
        D = stabilization_report(items, T, 8).final

        def refuse(*args):
            raise AssertionError("level evaluated twice")

        monkeypatch.setattr(chevalley_weil, "_evaluate", refuse)
        for block, key in zip(D.blocks, D.keys):
            for idx in block:
                for k, mults in zip(D.ks, key):
                    assert cw_character(items[idx], T, k).mults == mults

    def test_one_cw_call_per_class_key_and_level(self, monkeypatch, s3, s3_table):
        # one multiplicity read per (class key, level), one key read per item
        items = census(s3, 3)
        keys = {class_key(v, s3_table) for v in items}
        assert 1 < len(keys) < len(items)
        cw_calls, key_reads = Counter(), Counter()
        real_cw = decomposition._multiplicities
        real_read = decomposition._class_key

        def counting_cw(T, k, g_quot, g, ck):
            cw_calls[(g_quot, ck, k)] += 1
            return real_cw(T, k, g_quot, g, ck)

        def counting_read(v, T):
            key_reads[v] += 1
            return real_read(v, T)

        monkeypatch.setattr(decomposition, "_multiplicities", counting_cw)
        monkeypatch.setattr(decomposition, "_class_key", counting_read)
        runs = [(lambda: decompose_at_k(items, s3_table, 4), (4,)),
                (lambda: canonical_decomposition(items, s3_table), range(1, 7)),
                (lambda: stabilization_report(items, s3_table, 13), range(1, 14))]
        for call, ks in runs:
            cw_calls.clear()
            key_reads.clear()
            call()
            assert cw_calls == Counter({key + (k,): 1 for key in keys for k in ks})
            assert key_reads == Counter(items)


class TestPeriodicityChecksBite:
    """Multiplicities that break periodicity above |G| must be caught."""

    def test_split_beyond_the_period_raises(self, monkeypatch, z3_table,
                                            genus6_vectors):
        # both keys share one type through |G| = 3; v's type differs at level 4
        v, _ = genus6_vectors
        target = class_key(v, z3_table)

        def collapsed(T, k, g_quot, g, ck):
            mults = [0] * T.class_count
            if k > T.group.order and (g_quot, ck) == target:
                mults[0] = 1
            return MultiplicityVector(k, tuple(mults), regular=None)

        monkeypatch.setattr(decomposition, "_multiplicities", collapsed)
        rep = stabilization_report(genus6_vectors, z3_table, 3)
        assert rep.final.block_count == 1
        with pytest.raises(InternalConsistencyError, match="split the refinement"):
            stabilization_report(genus6_vectors, z3_table, 4)

    def test_partitions_k_and_k_plus_order_that_differ_raise(self, monkeypatch,
                                                             z3_table, genus6_vectors):
        # v_alt takes v's level-4 vector: level 4 merges what level 1 separates
        v, v_alt = genus6_vectors
        target = class_key(v_alt, z3_table)
        real_cw = decomposition._multiplicities
        v_quot, v_classes = class_key(v, z3_table)

        def merged(T, k, g_quot, g, ck):
            if k == T.group.order + 1 and (g_quot, ck) == target:
                return real_cw(T, k, v_quot, g, v_classes)
            return real_cw(T, k, g_quot, g, ck)

        monkeypatch.setattr(decomposition, "_multiplicities", merged)
        assert stabilization_report(genus6_vectors, z3_table, 3).final.block_count == 2
        with pytest.raises(InternalConsistencyError, match="differ"):
            stabilization_report(genus6_vectors, z3_table, 4)