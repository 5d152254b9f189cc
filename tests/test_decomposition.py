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
    RelationViolation,
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
    group_from_spec,
    refine,
    stabilization_report,
    validate,
)
from cwmoduli.groups import _row_groups
from conftest import block_types, conjugate_vector, item_keys, reference_key_levels


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
            assert D.ks == range(k, k + 1)

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
        assert CD.final.ks == range(1, 4)

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
        # 200,000 levels on two blocks: what the report keeps is its types
        # (3.2 MB) and one block count per level (1.6 MB); its ks is a range,
        # not one object per level
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
        assert isinstance(rep.final.ks, range)
        assert retained < 5e6, retained

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
                assert D.ks == range(1, G.order + 1), case
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
        # with cw_character's evaluation swapping the two degree-1
        # characters, it files swapped records; decompose, which evaluates
        # its keys through its own binding, neither reads them nor calls it
        T = character_table(s3)
        items = census(s3, 4)
        fresh = character_table(s3)
        want = stabilization_report(items, fresh, 8)
        records = [cw_character(v, fresh, k) for v in items for k in range(1, 9)]
        real = chevalley_weil._evaluate_keys
        monkeypatch.setattr(chevalley_weil, "_evaluate_keys",
                            lambda T, keys, g, ks: real(T, keys, g, ks)[:, :, [1, 0, 2]])
        swapped = [cw_character(v, T, k) for v in items for k in range(1, 9)]
        assert swapped != records
        assert stabilization_report(items, T, 8) == want
        assert canonical_decomposition(items, T) == canonical_decomposition(items, fresh)
        for k in (1, 2, 7):
            assert decompose_at_k(items, T, k) == decompose_at_k(items, fresh, k)

    def test_one_evaluation_per_class_key(self, monkeypatch, s3, s3_table):
        # one batched evaluation of every (g', class key) per run, at the
        # levels it needs (at most two periods), one _class_columns per class,
        # and the bulk keys are the per-item class keys
        items = census(s3, 3)
        keys = {class_key(v, s3_table) for v in items}
        assert 1 < len(keys) < len(items)
        evaluations, columns, bulk_keys = [], Counter(), []
        real_evaluate = decomposition._evaluate_keys
        real_columns = chevalley_weil._class_columns
        real_keys = decomposition._class_keys

        def counting(T, batch, g, ks):
            evaluations.append((sorted(batch), ks))
            return real_evaluate(T, batch, g, ks)

        def building(T, cls):
            columns[cls] += 1
            return real_columns(T, cls)

        def recording(batch, T):
            found, key_of = real_keys(batch, T)
            bulk_keys.append([found[i] for i in key_of.tolist()])
            return found, key_of

        monkeypatch.setattr(decomposition, "_evaluate_keys", counting)
        monkeypatch.setattr(chevalley_weil, "_class_columns", building)
        monkeypatch.setattr(decomposition, "_class_keys", recording)
        classes = {c for _, ck in keys for c in ck}
        # exp(S3) = |S3| = 6: a scan past 12 levels evaluates levels 1..12
        runs = [(lambda: decompose_at_k(items, s3_table, 4), range(4, 5)),
                (lambda: canonical_decomposition(items, s3_table), range(1, 7)),
                (lambda: stabilization_report(items, s3_table, 13), range(1, 13)),
                (lambda: stabilization_report(items, s3_table, 500), range(1, 13))]
        for call, ks in runs:
            evaluations.clear()
            columns.clear()
            bulk_keys.clear()
            call()
            assert evaluations == [(sorted(keys), ks)]
            assert columns == Counter(dict.fromkeys(classes, 1))
            assert bulk_keys == [[class_key(v, s3_table) for v in items]]

    @pytest.mark.parametrize("spec", ["abelian:2,2", "abelian:2,4", "metacyclic:3,2,2",
                                      "cyclic:4"])
    def test_a_report_evaluates_at_most_two_periods(self, monkeypatch, spec):
        # at any k_max, levels 1..min(k_max, 2e) and no others; past them the
        # report continues by the shift, and matches one-key evaluation at
        # every level
        G = group_from_spec(spec)
        T, e = character_table(G), G.exponent()
        items = census(G, 3)
        assert items
        evaluated = []
        real = decomposition._evaluate_keys

        def counting(T, keys, g, ks):
            evaluated.append(ks)
            return real(T, keys, g, ks)

        monkeypatch.setattr(decomposition, "_evaluate_keys", counting)
        for k_max in (1, e, 2 * e, 2 * e + 1, 5 * G.order + 3, 20_000):
            evaluated.clear()
            rep = stabilization_report(items, T, k_max)
            assert evaluated == [range(1, min(k_max, 2 * e) + 1)], (spec, k_max)
            assert rep.stabilization_depth <= e
            for block, types in zip(rep.final.blocks, rep.final.types):
                g_quot, ck = class_key(items[block[0]], T)
                want = reference_key_levels(T, range(1, k_max + 1), g_quot,
                                            genus(items[0], G), ck)
                assert np.array_equal(types, want.T), (spec, k_max)


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
        monkeypatch.setattr(chevalley_weil, "_rows_valid",
                            lambda G, g_quot, entries, n_handles: False)
        # the first step holds the first run of one shape
        last = len(hurwitz._row_blocks(items)[0][2]) - 1
        message = f"bulk validation rejected items 0..{last}, which validate accepts"
        with pytest.raises(InternalConsistencyError, match=message):
            decompose_at_k(items, T, 1)

    def test_interleaved_shapes_raise_the_first_invalid_item(self, s3):
        # blocks A (shape 1), B (shape 2), C (shape 1): B's invalid vector
        # comes first, although A reached C's shape before B
        T = character_table(s3)
        items = census(s3, 4)
        shapes = [(v.g_quot, len(v.branches)) for v in items]
        one, two = sorted(set(shapes), key=shapes.index)[:2]
        A = [v for v, s in zip(items, shapes) if s == one]
        B = [v for v, s in zip(items, shapes) if s == two]
        other = next(x for x in s3.elements() if x not in (0, B[0].branches[-1]))
        bad_b = HurwitzVector(*B[0][:2], B[0].branches[:-1] + (other,))
        bad_c = HurwitzVector(*A[-1][:2], A[-1].branches[:-1] + (s3.order,))
        assert _raised(lambda: validate(bad_b, s3))[0] is RelationViolation
        assert _raised(lambda: validate(bad_c, s3))[0] is ValueError
        batch = A[:3] + B[1:3] + [bad_b] + A[3:5] + [bad_c] + A[5:7]
        assert len(hurwitz._VectorRows(hurwitz._row_blocks(batch)).blocks) == 3
        assert _raised(lambda: decompose_at_k(batch, T, 1)) == _raised(
            lambda: validate(bad_b, s3))

    def test_validate_runs_only_on_the_failing_step(self, validate_calls, s3):
        # the one invalid vector is in the second step of _CHUNK rows: no
        # item of the first step is validated one by one
        T = character_table(s3)
        good = next(v for v in census(s3, 3) if v.g_quot == 0)
        bad = HurwitzVector(0, (), good.branches[:-1] + (s3.order,))
        batch = [good] * (chevalley_weil._CHUNK + 2) + [bad]
        with pytest.raises(ValueError, match=f"entry {s3.order} is not an element id"):
            decompose_at_k(batch, T, 1)
        assert validate_calls == Counter({good: 2, bad: 1})

    @pytest.mark.parametrize("width, bound", [(6, 10), (31, 3), (7, 512), (32, 3), (0, 3)])
    def test_row_groups_match_grouping_by_hand(self, width, bound):
        # entries in 0..bound - 1: (7, 512) and (32, 3) are too wide for one
        # int64 code per row, and (0, 3) is one group of empty rows
        rng = np.random.default_rng(width)
        rows = rng.integers(0, min(bound, 3), size=(200, width))
        rows[::7] = bound - 1
        _check_row_groups(rows)

    @pytest.mark.parametrize("shared, steps", [(0, 1), (2000, 3)])
    def test_wide_rows_take_void_steps_until_every_row_is_alone(self, monkeypatch, shared, steps):
        # rows of 3,000 entries: 32 distinct ones go 2,048 columns a step,
        # and the first step tells them apart; 64, each with a twin, go
        # 1,024 columns a step, and alike in their first 2,000 columns they
        # need all three
        rng = np.random.default_rng(shared)
        rows = rng.integers(0, 3, size=(32, 3000))
        rows[:, :shared] = 1
        if shared:
            rows = np.concatenate([rows, rows])
        calls = []
        real = np.unique
        monkeypatch.setattr(np, "unique", lambda *a, **kw: calls.append(1) or real(*a, **kw))
        _check_row_groups(rows)
        assert len(calls) == steps

    def test_row_groups_past_int64_and_without_rows(self):
        rows = np.array([[2 ** 70, 1], [3, 2 ** 64], [2 ** 70, 1], [3, 5]], dtype=object)
        _check_row_groups(rows)
        for shape in ((0, 5), (0, 0), (0, 3, 4)):
            one, group = _row_groups(np.zeros(shape, dtype=np.int64))
            assert (one.tolist(), group.tolist()) == ([], [])
        _check_row_groups(np.array([[[3, 1], [0, 2]], [[3, 0], [9, 9]], [[3, 1], [0, 2]]]))


def _check_row_groups(rows):
    """_row_groups against grouping by hand: each row's representative is
    equal to it, and the representatives are distinct and sorted."""
    one, group = _row_groups(rows)
    flat = [tuple(np.ravel(row).tolist()) for row in rows]
    assert len(group) == len(flat)
    assert [flat[i] for i in one[group].tolist()] == flat
    # groups are numbered in lexicographic order of their rows
    assert [flat[i] for i in one.tolist()] == sorted(set(flat))


class TestArrayEvaluation:
    def test_batched_matches_one_key_evaluation_on_the_catalog(self, catalog):
        # every key of the catalog at genus 2..6, at levels 1..2e, at one
        # level past them, and continued to 2|G| + 5 by _extend, against
        # the one-key formula on each key alone
        opts = EnumerationOptions(up_to_conjugacy=True)
        checked = 0
        for label, G in catalog:
            T, e, k_max = character_table(G), G.exponent(), 2 * G.order + 5
            for g in range(2, 7):
                rows = hurwitz._VectorRows(
                    (d.g_quot, 2 * d.g_quot, r) for d in enumerate_branching_data(G, g)
                    for r in hurwitz.enumerate_hurwitz_rows(G, d, opts))
                keys = chevalley_weil._class_keys(rows, T)[0]
                head = chevalley_weil._evaluate_keys(T, keys, g, range(1, 2 * e + 1))
                last = chevalley_weil._evaluate_keys(T, keys, g, range(k_max, k_max + 1))
                full = chevalley_weil._extend(T, keys, g, head, k_max)
                for i, (g_quot, ck) in enumerate(keys):
                    want = reference_key_levels(T, range(1, k_max + 1), g_quot, g, ck).T
                    assert np.array_equal(full[i], want), (label, g, i)
                    assert np.array_equal(last[i], want[-1:]), (label, g, i)
                    checked += 1
        assert checked > 700

    @pytest.mark.parametrize("change, message", [
        ({1: 1}, "contract to dimension"),
        ({0: -1, 1: 1}, "trivial multiplicity"),
        ({1: -10 ** 6, 2: 10 ** 6}, "falls outside"),
    ], ids=["dimension", "trivial", "range"])
    def test_filled_levels_are_checked(self, monkeypatch, change, message):
        # a shift that breaks a closed form, used past the two evaluated
        # periods (the report's own shift check reads the evaluated ones)
        G = group_from_spec("abelian:2,2")
        T, items = character_table(G), census(G, 3)
        real = chevalley_weil._period_shift

        def wrong(T, g, k, period):
            shift = real(T, g, k, period)
            for rho, d in change.items():
                shift[rho] += d
            return shift

        monkeypatch.setattr(chevalley_weil, "_period_shift", wrong)
        stabilization_report(items, T, 2 * G.exponent())  # nothing is filled
        with pytest.raises(InternalConsistencyError, match=message):
            stabilization_report(items, T, 2 * G.exponent() + 1)

    def test_several_keys_past_int64(self, s3):
        # S3 at genus 4 at a level whose dimension passes int64: the types are
        # Python ints, ordered on their own exact path
        T, reference = character_table(s3), character_table(s3)
        items = census(s3, 4)
        k = 2 ** 70
        by_type = {}
        for idx, v in enumerate(items):
            by_type.setdefault(cw_character(v, reference, k).mults, []).append(idx)
        assert len({class_key(v, T) for v in items}) > 2 and len(by_type) > 2
        D = decompose_at_k(items, T, k)
        assert D.types.dtype == object
        assert all(type(m) is int for m in D.types.ravel())
        assert block_types(D) == tuple((key,) for key in sorted(by_type))
        assert D.blocks == tuple(tuple(by_type[key]) for key in sorted(by_type))

    def test_levels_beyond_int64_stay_exact(self):
        # a free action of S3: Python ints replace int64 once the scaled
        # entries could pass 2^63
        G = build_metacyclic(MetacyclicParams(3, 2, 2))
        items = list(enumerate_hurwitz_vectors(G, BranchingData(2, ())))
        g = genus(items[0], G)
        T, reference = character_table(G), character_table(G)
        for k in (2 ** 50, 2 ** 62, 2 ** 70):
            assert chevalley_weil._evaluate_keys(T, [(2, ())], g, (k,)).dtype == (
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
    """Multiplicities that break periodicity above exp(G) must be caught.

    Each test replaces the batched evaluation (decomposition._evaluate_keys:
    keys x levels x characters) with one that breaks periodicity.
    """

    def test_split_beyond_the_period_raises(self, monkeypatch, z3_table,
                                            genus6_vectors):
        # both keys share one type through exp(G) = |G| = 3; v's type
        # differs at level 4
        v, _ = genus6_vectors
        target = class_key(v, z3_table)

        def collapsed(T, keys, g, ks):
            mults = np.zeros((len(keys), len(ks), T.class_count), dtype=np.int64)
            mults[keys.index(target), :, 0] = [k > T.group.order for k in ks]
            return mults

        monkeypatch.setattr(decomposition, "_evaluate_keys", collapsed)
        rep = stabilization_report(genus6_vectors, z3_table, 3)
        assert rep.final.block_count == 1
        with pytest.raises(InternalConsistencyError, match="split the refinement"):
            stabilization_report(genus6_vectors, z3_table, 4)

    def test_a_split_between_the_exponent_and_the_order_raises(self, monkeypatch):
        # abelian:2,2 has exp(G) = 2 < |G| = 4: a split at level 3 comes after
        # the period, though within |G|
        G = group_from_spec("abelian:2,2")
        T = character_table(G)
        items = census(G, 3)
        target = class_key(items[0], T)

        def late(T, keys, g, ks):
            mults = np.zeros((len(keys), len(ks), T.class_count), dtype=np.int64)
            mults[keys.index(target), :, 0] = [k == 3 for k in ks]
            return mults

        monkeypatch.setattr(decomposition, "_evaluate_keys", late)
        assert stabilization_report(items, T, 2).final.block_count == 1
        with pytest.raises(InternalConsistencyError,
                           match=r"level 3 split .* new splits at exp\(G\) = 2"):
            stabilization_report(items, T, G.order)

    def test_partitions_k_and_k_plus_order_that_differ_raise(self, monkeypatch,
                                                             z3_table, genus6_vectors):
        # v_alt takes v's level-4 vector: level 4 merges what level 1 separates
        v, v_alt = genus6_vectors
        target = class_key(v_alt, z3_table)
        real = decomposition._evaluate_keys

        def merged(T, keys, g, ks):
            mults = real(T, keys, g, ks)
            k = T.group.order + 1
            if k in ks:
                mults[keys.index(target), ks.index(k)] = real(
                    T, [class_key(v, T)], g, range(k, k + 1))[0, 0]
            return mults

        monkeypatch.setattr(decomposition, "_evaluate_keys", merged)
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

        def relabelled(T, keys, g, ks):
            mults = np.zeros((len(keys), len(ks), T.class_count), dtype=np.int64)
            for i, (g_quot, _) in enumerate(keys):
                mults[i, :, 0] = [labels[k][g_quot] for k in ks]
            return mults

        monkeypatch.setattr(decomposition, "_evaluate_keys", relabelled)
        rep = stabilization_report(items, z3_table, 3)
        assert rep.block_counts.tolist() == [2, 3, 3]
        with pytest.raises(InternalConsistencyError, match="levels 1 and 4 differ"):
            stabilization_report(items, z3_table, 4)

    @pytest.mark.parametrize("level", [1, 2])
    def test_a_shift_shared_by_every_block_is_caught(self, monkeypatch, z3_table,
                                                     genus6_vectors, level):
        # one character gains 1 at level + exp(G) on every key alike: every
        # standalone partition stays as it was, but the shift between levels
        # level and level + exp(G) leaves its closed form
        real = decomposition._evaluate_keys
        k = level + z3_table.group.exponent()

        def shifted(T, keys, g, ks):
            mults = real(T, keys, g, ks)
            if k in ks:
                mults[:, ks.index(k), 1] += 1
            return mults

        monkeypatch.setattr(decomposition, "_evaluate_keys", shifted)
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
