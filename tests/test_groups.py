"""Group construction, axioms, conjugacy, and spec-string parsing."""

import io
import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest

from cwmoduli import (
    FiniteGroup,
    GroupSizeError,
    GroupSpecError,
    MetacyclicParams,
    build_abelian,
    build_cyclic,
    build_from_permutations,
    build_from_table,
    build_metacyclic,
    closure,
    conjugacy_classes,
    generates,
    group_from_spec,
    run,
)
from cwmoduli.groups import _TABLE_FILE_BYTES, greedy_generators

from conftest import A4_PERM_GENS, Q8_PERM_GENS, S3_PERM_GENS, S4_PERM_GENS

A6_PERM_GENS = ["(1,2,3)", "(2,3,4,5,6)"]
# S3 acting identically on {1,2,3}, {4,5,6} and {10,20,30}: the builder keeps
# one copy, the brute force in test_permutation_table_matches_brute_force all
S3_COPIES_GENS = ["(1,2)(4,5)(10,20)", "(1,2,3)(4,5,6)(10,20,30)"]
# S3 on {1,2,3}, and on {4,5,6} through a different labelling of its points
S3_TWISTED_GENS = ["(1,2)(5,6)", "(1,2,3)(4,5,6)"]

# order-5 loop: latin square with two-sided identity 0 but (1*1)*2 != 1*(1*2)
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def brute_force_isomorphic(G, H):
    """Search all identity-fixing bijections; only for tiny orders."""
    if G.order != H.order:
        return False
    n = G.order
    if sorted(G.element_orders()) != sorted(H.element_orders()):
        return False
    for tail in itertools.permutations(range(1, n)):
        f = (0,) + tail
        if all(f[G.mul(a, b)] == H.mul(f[a], f[b])
               for a in range(n) for b in range(n)):
            return True
    return False


class TestBuilders:
    def test_cyclic_orders(self):
        assert build_cyclic(1).element_orders() == (1,)
        assert build_cyclic(6).element_orders() == (1, 6, 3, 2, 3, 6)
        G = build_cyclic(12)
        assert G.order == 12
        assert G.exponent() == 12
        assert G.is_abelian()

    def test_cyclic_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            build_cyclic(0)
        with pytest.raises(TypeError):
            build_cyclic(2.5)

    def test_abelian_encoding_is_mixed_radix(self):
        G = build_abelian([2, 3])
        # (i, j) has id 3*i + j; (1,0) + (0,1) = (1,1)
        assert G.mul(3, 1) == 4
        assert G.element_orders() == (1, 3, 3, 2, 6, 6)
        assert G.exponent() == 6

    def test_abelian_is_product_of_cyclics(self):
        G = build_abelian([2, 2])
        assert G.element_orders() == (1, 2, 2, 2)
        assert G.is_abelian()

    def test_abelian_rejects_bad_factors(self):
        with pytest.raises(ValueError):
            build_abelian([])
        with pytest.raises(ValueError):
            build_abelian([2, 0])
        with pytest.raises(TypeError):
            build_abelian((2.5, 2))
        with pytest.raises(TypeError):
            build_abelian((True, 2))
        with pytest.raises(TypeError):
            build_cyclic(True)
        assert build_abelian((np.int64(2), 3)).label == "abelian:2,3"

    def test_metacyclic_s3(self):
        G = build_metacyclic(MetacyclicParams(3, 2, 2))
        assert G.order == 6
        assert not G.is_abelian()
        assert sorted(G.element_orders()) == [1, 2, 2, 2, 3, 3]
        H = build_from_permutations(["(1,2)", "(1,2,3)"])
        assert brute_force_isomorphic(G, H)

    def test_metacyclic_relation(self):
        # y x y^-1 = x^r with x = id n, y = id 1
        for m, n, r in [(4, 2, 3), (5, 4, 2), (7, 3, 2)]:
            G = build_metacyclic(MetacyclicParams(m, n, r))
            x, y = n, 1
            lhs = G.mul(G.mul(y, x), G.inv(y))
            assert lhs == G.power(x, r)

    def test_metacyclic_trivial_twist_is_abelian(self):
        G = build_metacyclic(MetacyclicParams(4, 2, 1))
        assert G.is_abelian()
        assert sorted(G.element_orders()) == sorted(
            build_abelian([4, 2]).element_orders())

    def test_metacyclic_frobenius20_has_trivial_center(self):
        G = build_metacyclic(MetacyclicParams(5, 4, 2))
        center = [g for g in G.elements()
                  if all(G.mul(g, h) == G.mul(h, g) for h in G.elements())]
        assert center == [0]

    def test_metacyclic_params_validation(self):
        with pytest.raises(ValueError):
            MetacyclicParams(0, 2, 1)
        with pytest.raises(ValueError):
            MetacyclicParams(4, 2, 5)
        with pytest.raises(ValueError):
            MetacyclicParams(4, 2, 2)  # 2^2 = 4 != 1 mod 4

    def test_permutation_group_q8(self):
        G = build_from_permutations(["(1,2,3,4)(5,6,7,8)", "(1,5,3,7)(2,8,4,6)"])
        assert G.order == 8
        assert sorted(G.element_orders()) == [1, 2, 4, 4, 4, 4, 4, 4]
        assert not G.is_abelian()

    def test_permutation_composition_left_to_right(self):
        G = build_from_permutations(["(1,2)", "(2,3)"])
        assert G.order == 6
        # ids follow BFS discovery: 0 = e, 1 = (1,2), 2 = (2,3)
        # (1,2) then (2,3) maps 1 -> 2 -> 3, a 3-cycle
        assert G.elem_order(G.mul(1, 2)) == 3

    @pytest.mark.parametrize("gens", [S3_PERM_GENS, A4_PERM_GENS, S4_PERM_GENS,
                                      Q8_PERM_GENS, A6_PERM_GENS, S3_COPIES_GENS,
                                      S3_TWISTED_GENS])
    def test_permutation_table_matches_brute_force(self, gens):
        # ids in breadth-first discovery order, then every product composed
        # point by point: (p*q)(x) = q(p(x))
        degree = max(int(t) for g in gens for t in g.replace("(", ",").replace(")", ",")
                     .split(",") if t)
        perms = []
        for g in gens:
            img = list(range(degree))
            for cyc in g.strip("()").split(")("):
                pts = [int(t) - 1 for t in cyc.split(",")]
                for a, b in zip(pts, pts[1:] + pts[:1]):
                    img[a] = b
            perms.append(tuple(img))
        elems = [tuple(range(degree))]
        ids = {elems[0]: 0}
        for p in elems:
            for q in perms:
                r = tuple(q[x] for x in p)
                if r not in ids:
                    ids[r] = len(elems)
                    elems.append(r)
        expect = [[ids[tuple(q[x] for x in p)] for q in elems] for p in elems]
        G = build_from_permutations(gens)
        assert G.mul_table.tolist() == expect

    def test_points_are_relabelled_to_those_written(self):
        # only the two points written are acted on, not 1..300000
        tracemalloc.start()
        try:
            G = group_from_spec("perm:(1,300000)")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert G.order == 2
        assert peak < 2 ** 20

    def test_relabelling_points_keeps_the_table(self):
        G = group_from_spec("perm:(1,1000);(1000,7,3)")
        H = group_from_spec("perm:(1,4);(4,3,2)")
        assert np.array_equal(G.mul_table, H.mul_table)

    def test_permutation_cap(self):
        with pytest.raises(GroupSizeError):
            build_from_permutations(["(1,2,3,4,5,6,7,8,9,10,11,12,13)", "(1,2)"])

    @pytest.mark.parametrize("spec, point", [("perm:(1,2)(2,3)", 2),
                                             ("perm:(4,5);(1,2,3)(7,3)", 3)])
    def test_overlapping_cycles_name_the_point(self, spec, point):
        # overlapping cycles would not define a bijection
        with pytest.raises(GroupSpecError, match=f"point {point} appears twice"):
            group_from_spec(spec)

    def test_generator_order_cap_before_tuples(self):
        # one 20000-cycle has order 20000: rejected before any permutation
        # tuple or closure step is built
        spec = "perm:(" + ",".join(str(i) for i in range(1, 20001)) + ")"
        tracemalloc.start()
        try:
            with pytest.raises(GroupSizeError, match="cap of 512"):
                group_from_spec(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 24

    def test_orbit_length_cap_before_tuples(self):
        # two involutions joining 20000 points into one orbit generate a
        # dihedral group of order 20000: rejected before any permutation tuple
        a = "".join(f"({i},{i + 1})" for i in range(1, 20000, 2))
        b = "".join(f"({i},{i + 1})" for i in range(2, 19999, 2))
        tracemalloc.start()
        try:
            with pytest.raises(GroupSizeError, match="permutation closure exceeds the cap of 512"):
                group_from_spec(f"perm:{a};{b}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20

    def test_repeated_short_orbits_cap_before_full_degree_tuples(self):
        # two involutions acting as a 500-point dihedral pattern on 40
        # disjoint blocks (20000 points, order 1000): the copies are dropped
        # before any tuple is built, so the closure runs on 500 points
        a = "".join(f"({i},{i + 1})" for blk in range(0, 20000, 500)
                    for i in range(blk + 1, blk + 500, 2))
        b = "".join(f"({i},{i + 1})" for blk in range(0, 20000, 500)
                    for i in range(blk + 2, blk + 499, 2))
        tracemalloc.start()
        try:
            with pytest.raises(GroupSizeError, match="permutation closure exceeds the cap of 512"):
                group_from_spec(f"perm:{a};{b}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 20 * 2 ** 20

    def test_permutation_malformed(self):
        with pytest.raises(GroupSpecError):
            build_from_permutations(["(1,2"])
        with pytest.raises(GroupSpecError):
            build_from_permutations(["(1,1,2)"])
        with pytest.raises(GroupSpecError):
            build_from_permutations(["(0,1)"])

    def test_table_roundtrip(self, tmp_path):
        G = build_metacyclic(MetacyclicParams(4, 2, 3))
        payload = {"order": 8, "mul": G.mul_rows()}
        H = build_from_table(payload)
        assert np.array_equal(G.mul_table, H.mul_table)
        path = tmp_path / "d4.json"
        path.write_text(json.dumps(payload))
        K = build_from_table(str(path))
        assert np.array_equal(G.mul_table, K.mul_table)

    def test_table_errors(self, tmp_path):
        with pytest.raises(GroupSpecError):
            build_from_table({"order": 3})
        with pytest.raises(GroupSpecError):
            build_from_table({"order": 5, "mul": [[0, 1], [1, 0]]})
        with pytest.raises(GroupSpecError):
            build_from_table({"order": 2, "mul": [[0, 1], [1, 1]]})
        bad = tmp_path / "bad.json"
        bad.write_text("not json {")
        with pytest.raises(GroupSpecError):
            build_from_table(str(bad))
        with pytest.raises(GroupSpecError):
            build_from_table(str(tmp_path / "missing.json"))

    def test_oversized_table_file_is_rejected_before_parsing(self, tmp_path):
        # a valid order-1 table padded past the bound: the file size alone
        # decides, and nothing of the file is read
        path = tmp_path / "padded.json"
        path.write_text('{"order": 1, "mul": [[0]]}' + " " * _TABLE_FILE_BYTES)
        tracemalloc.start()
        try:
            with pytest.raises(GroupSizeError, match="bytes, over the cap"):
                group_from_spec(f"table:{path}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 16

    def test_indented_table_file_at_the_order_cap_is_under_the_bound(self, tmp_path):
        # the Z/512 table, written out but not built
        mul = [[(a + b) % 512 for b in range(512)] for a in range(512)]
        path = tmp_path / "c512.json"
        with open(path, "w") as fh:
            json.dump({"order": 512, "mul": mul}, fh, indent=2)
        assert 0.5 * _TABLE_FILE_BYTES < path.stat().st_size <= _TABLE_FILE_BYTES


class TestAxioms:
    def test_rejects_missing_identity(self):
        # subtraction mod 5: latin square, right identity only
        table = [[(a - b) % 5 for b in range(5)] for a in range(5)]
        with pytest.raises(ValueError):
            FiniteGroup(table)

    def test_rejects_non_latin(self):
        with pytest.raises(ValueError):
            FiniteGroup([[0, 1], [1, 1]])

    def test_rejects_nonassociative_loop(self):
        t = NONASSOC_LOOP
        assert t[t[1][1]][2] != t[1][t[1][2]]
        with pytest.raises(ValueError):
            FiniteGroup(t)

    def test_nonassociative_table_file_of_order_260_is_rejected(self, tmp_path):
        # Z/260 with the intercalate on rows 1, 131 and columns 2, 132 swapped:
        # still a latin square with identity 0, but no longer associative
        table = build_cyclic(260).mul_rows()
        for a in (1, 131):
            table[a][2], table[a][132] = table[a][132], table[a][2]
        path = tmp_path / "swapped.json"
        path.write_text(json.dumps({"order": 260, "mul": table}))
        with pytest.raises(GroupSpecError, match="not associative"):
            group_from_spec(f"table:{path}")
        out, err = io.StringIO(), io.StringIO()
        code = run(["group-info", "--group", f"table:{path}"], out=out, err=err)
        assert (code, out.getvalue()) == (2, "")
        assert "not associative" in err.getvalue()

    def test_table_file_at_the_order_cap_is_accepted(self, tmp_path):
        G = build_metacyclic(MetacyclicParams(32, 16, 3))
        path = tmp_path / "m512.json"
        path.write_text(json.dumps({"order": 512, "mul": G.mul_rows()}))
        assert np.array_equal(group_from_spec(f"table:{path}").mul_table, G.mul_table)
        out, err = io.StringIO(), io.StringIO()
        code = run(["hurwitz-enumerate", "--group", f"table:{path}", "--genus", "2"],
                   out=out, err=err)
        assert (code, err.getvalue()) == (0, "")
        assert out.getvalue().splitlines()[-1] == "total: 0"

    @pytest.mark.parametrize("payload", [
        {"order": True, "mul": [[0]]},
        {"order": 2.0, "mul": [[0, 1], [1, 0]]},
        {"order": 2, "mul": [[0, 1], [1.7, 0]]},
        {"order": 2, "mul": [[0, True], [1, 0]]},
        {"order": 2, "mul": [[0, "1"], [1, 0]]},
    ], ids=["order-true", "order-float", "entry-float", "entry-true", "entry-string"])
    def test_non_integer_table_json_is_rejected(self, tmp_path, payload):
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(payload))
        out, err = io.StringIO(), io.StringIO()
        code = run(["group-info", "--group", f"table:{path}"], out=out, err=err)
        assert (code, out.getvalue()) == (2, "")
        assert "must be an integer" in err.getvalue()

    def test_table_mul_must_be_a_list_of_lists(self):
        with pytest.raises(GroupSpecError, match="lists of integers"):
            build_from_table({"order": 2, "mul": [[0, 1], (1, 0)]})

    def test_light_test_matches_brute_force(self):
        # every intercalate swap away from the identity row and column of a
        # few small group tables, and random relabelings of the same tables:
        # accepted iff the O(n^3) check passes
        rng = random.Random(11)
        seen = {True: 0, False: 0}
        for G in (build_cyclic(6), build_metacyclic(MetacyclicParams(3, 2, 2)),
                  build_metacyclic(MetacyclicParams(4, 2, 3)), build_abelian([2, 4])):
            n = G.order
            rows = G.mul_rows()
            tables = []
            for a, b in itertools.combinations(range(1, n), 2):
                for c, d in itertools.combinations(range(1, n), 2):
                    if rows[a][c] == rows[b][d] and rows[a][d] == rows[b][c]:
                        t = [row[:] for row in rows]
                        t[a][c], t[a][d] = t[a][d], t[a][c]
                        t[b][c], t[b][d] = t[b][d], t[b][c]
                        tables.append(t)
            for _ in range(5):
                perm = [0] + rng.sample(range(1, n), n - 1)
                back = {p: i for i, p in enumerate(perm)}
                tables.append([[back[rows[perm[x]][perm[y]]] for y in range(n)]
                               for x in range(n)])
            for t in tables:
                assoc = all(t[t[x][y]][z] == t[x][t[y][z]]
                            for x, y, z in itertools.product(range(n), repeat=3))
                seen[assoc] += 1
                if assoc:
                    FiniteGroup(t)
                else:
                    with pytest.raises(ValueError, match="not associative"):
                        FiniteGroup(t)
        assert seen == {True: 20, False: 88}

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            FiniteGroup([[0, 1]])

    def test_table_is_immutable(self):
        G = build_cyclic(4)
        with pytest.raises(ValueError):
            G.mul_table[0, 0] = 1

    def test_power_and_inverse(self):
        G = build_metacyclic(MetacyclicParams(5, 4, 2))
        rng = random.Random(7)
        for _ in range(200):
            g = rng.randrange(G.order)
            assert G.mul(g, G.inv(g)) == G.identity
            e = rng.randrange(-3, 12)
            acc = G.identity
            if e >= 0:
                for _ in range(e):
                    acc = G.mul(acc, g)
            else:
                for _ in range(-e):
                    acc = G.mul(acc, G.inv(g))
            assert G.power(g, e) == acc


class TestConjugacy:
    def test_cyclic_classes_are_singletons(self):
        G = build_cyclic(5)
        C = conjugacy_classes(G)
        assert C.class_count == 5
        assert C.class_sizes == (1, 1, 1, 1, 1)
        assert C.representatives == (0, 1, 2, 3, 4)

    def test_s3_class_sizes(self):
        G = build_metacyclic(MetacyclicParams(3, 2, 2))
        C = conjugacy_classes(G)
        assert C.class_sizes == (1, 3, 2)
        assert C.representatives[0] == G.identity

    def test_d4_class_structure(self):
        G = build_metacyclic(MetacyclicParams(4, 2, 3))
        C = conjugacy_classes(G)
        assert C.class_sizes == (1, 2, 2, 2, 1)
        # representatives are the smallest member of each class, ascending
        assert C.representatives == (0, 1, 2, 3, 4)
        assert sorted(C.members(1)) == [1, 5]
        assert sorted(C.members(2)) == [2, 6]

    def test_class_of_is_conjugation_invariant(self, catalog_le_12):
        rng = random.Random(11)
        for _, G in catalog_le_12:
            C = conjugacy_classes(G)
            for _ in range(30):
                g = rng.randrange(G.order)
                h = rng.randrange(G.order)
                conj = G.mul(G.mul(h, g), G.inv(h))
                assert C.class_of[conj] == C.class_of[g]

    def test_class_sizes_partition_group(self, catalog):
        for _, G in catalog:
            C = conjugacy_classes(G)
            assert sum(C.class_sizes) == G.order
            for size in C.class_sizes:
                assert G.order % size == 0

    def test_power_class_matches_member_powers(self, catalog_le_12):
        rng = random.Random(13)
        for _, G in catalog_le_12:
            C = conjugacy_classes(G)
            e = G.exponent()
            assert C.power_class.shape == (C.class_count, e)
            for i in range(C.class_count):
                for j in range(e):
                    expect = C.class_of[G.power(C.representatives[i], j)]
                    assert C.power_class[i, j] == expect
            for _ in range(20):
                i = rng.randrange(C.class_count)
                member = rng.choice(sorted(C.members(i)))
                j = rng.randrange(e)
                assert C.power_class[i, j] == C.class_of[G.power(member, j)]

    def test_inverse_class_is_involution(self, catalog):
        for _, G in catalog:
            C = conjugacy_classes(G)
            for i in range(C.class_count):
                j = C.inverse_class(i)
                assert C.inverse_class(j) == i
                assert C.class_of[G.inv(C.representatives[i])] == j


def reference_conjugacy(G):
    """Classes and power maps by conjugating one class at a time and stepping
    one power at a time: (class_of, representatives, class_sizes, power_class)."""
    n = G.order
    tbl = G.mul_table
    inv = G.inv_table
    all_h = np.arange(n)
    class_of = np.full(n, -1, dtype=np.int64)
    reps = []
    for g in range(n):
        if class_of[g] >= 0:
            continue
        orbit = np.unique(tbl[tbl[all_h, g], inv])
        class_of[orbit] = len(reps)
        reps.append(g)
    sizes = tuple(int((class_of == i).sum()) for i in range(len(reps)))
    e = G.exponent()
    power_class = np.zeros((len(reps), e), dtype=np.int64)
    for i, r in enumerate(reps):
        cur = 0
        for j in range(e):
            power_class[i, j] = class_of[cur]
            cur = int(tbl[cur, r])
    return class_of, tuple(reps), sizes, power_class


ORACLE_SPECS = [
    "perm:" + ";".join(A6_PERM_GENS),
    "cyclic:512",
    "abelian:2,2,2,2,2,2,2,2,2",
    "metacyclic:32,16,3",
]


class TestConjugacyOracle:
    @pytest.fixture(scope="class")
    def groups(self, catalog):
        return catalog + [(spec, group_from_spec(spec)) for spec in ORACLE_SPECS]

    def test_matches_reference_field_by_field(self, groups):
        for label, G in groups:
            class_of, reps, sizes, power_class = reference_conjugacy(G)
            C = conjugacy_classes(G)
            assert C.class_of.dtype == class_of.dtype, label
            assert np.array_equal(C.class_of, class_of), label
            assert C.representatives == reps, label
            assert C.class_sizes == sizes, label
            assert C.power_class.dtype == power_class.dtype, label
            assert C.power_class.shape == power_class.shape, label
            assert np.array_equal(C.power_class, power_class), label
            assert C.class_list() == class_of.tolist(), label
            assert [C.inverse_class(i) for i in range(len(reps))] == [
                int(class_of[G.inv(r)]) for r in reps], label

    def test_fields_are_python_ints_and_read_only(self, groups):
        for label, G in groups:
            C = conjugacy_classes(G)
            for field in (C.representatives, C.class_sizes):
                assert type(field) is tuple, label
                assert all(type(x) is int for x in field), label
            for arr in (C.class_of, C.power_class):
                assert not arr.flags.writeable, label
                with pytest.raises(ValueError):
                    arr[0] = 0


class TestClosure:
    def test_cyclic_generators(self):
        G = build_cyclic(4)
        assert generates(G, [1])
        assert not generates(G, [2])
        assert closure(G, [2]) == {0, 2}

    def test_empty_set_generates_only_identity(self):
        assert closure(build_cyclic(3), []) == {0}
        assert generates(build_cyclic(1), [])

    def test_metacyclic_generators(self):
        G = build_metacyclic(MetacyclicParams(5, 4, 2))
        x, y = 4, 1
        assert generates(G, [x, y])
        assert not generates(G, [x])
        assert closure(G, [x]) == {0, 4, 8, 12, 16}

    def test_lattice_agrees_with_closure_on_random_sets(self, catalog):
        # an oracle that shares no table with the lattice: random entry
        # lists of every length up to 8, in any order and with repeats, on
        # each catalog group (lattice shared with other tests) and on a
        # fresh (Z/2)^5, whose subgroups are the 374 subspaces of F_2^5
        rng = random.Random(37)
        groups = [G for _, G in catalog] + [group_from_spec("abelian:2,2,2,2,2")]
        for G in groups:
            met = set()
            for _ in range(300):
                S = rng.choices(range(G.order), k=rng.randrange(9))
                expected = len(closure(G, S)) == G.order
                met.add(expected)
                assert generates(G, S) is expected, (G.label, S)
                rng.shuffle(S)
                assert generates(G, S + S[:2]) is expected, (G.label, S)
            assert met == {True, False} or G.order <= 2, G.label


class TestGreedyGenerators:
    def test_generates_with_at_most_log2_order_elements(self, catalog):
        for _, G in catalog:
            gens = list(greedy_generators(G.mul_rows()))
            assert generates(G, gens)
            assert 2 ** len(gens) <= G.order
            assert gens == sorted(gens)
            # each one lies outside the subgroup the earlier ones generate
            for i, g in enumerate(gens):
                assert g not in closure(G, gens[:i])

    def test_abelian_2_power_picks_the_unit_vectors(self):
        G = build_abelian([2] * 6)
        assert list(greedy_generators(G.mul_rows())) == [1, 2, 4, 8, 16, 32]


class TestGroupFromSpec:
    def test_dispatch_matches_builders(self):
        pairs = [
            ("cyclic:6", build_cyclic(6)),
            ("abelian:2,4", build_abelian([2, 4])),
            ("metacyclic:4,2,3", build_metacyclic(MetacyclicParams(4, 2, 3))),
            ("perm:(1,2);(1,2,3)", build_from_permutations(["(1,2)", "(1,2,3)"])),
        ]
        for spec, direct in pairs:
            G = group_from_spec(spec)
            assert np.array_equal(G.mul_table, direct.mul_table)

    def test_table_spec_reads_file(self, tmp_path):
        G = build_cyclic(3)
        path = tmp_path / "z3.json"
        path.write_text(json.dumps({"order": 3, "mul": G.mul_rows()}))
        H = group_from_spec(f"table:{path}")
        assert np.array_equal(G.mul_table, H.mul_table)

    def test_element_reads_are_python_ints(self, tmp_path):
        path = tmp_path / "d4.json"
        path.write_text(json.dumps(
            {"order": 8, "mul": build_metacyclic(MetacyclicParams(4, 2, 3)).mul_rows()}))
        for spec in ["cyclic:6", "abelian:2,4", "metacyclic:4,2,3",
                     "perm:(1,2);(1,2,3)", f"table:{path}"]:
            G = group_from_spec(spec)
            conj = conjugacy_classes(G)
            reads = list(G.element_orders()) + list(conj.class_list())
            for x in G.elements():
                reads += [G.elem_order(x), G.inv(x), G.power(x, 3)]
                reads += [G.mul(x, y) for y in G.elements()]
            assert {type(r) for r in reads} == {int}, spec
            # the same values as the arrays
            tbl = G.mul_table
            assert [[G.mul(x, y) for y in G.elements()] for x in G.elements()] \
                == tbl.tolist()
            assert [G.inv(x) for x in G.elements()] == G.inv_table.tolist()
            assert conj.class_list() == conj.class_of.tolist()
            for x in G.elements():
                assert G.power(x, 3) == tbl[tbl[x, x], x]
                acc, k = x, 1
                while acc != 0:
                    acc, k = tbl[acc, x], k + 1
                assert G.elem_order(x) == G.element_orders()[x] == k

    def test_malformed_specs(self):
        for spec in ["wat:3", "cyclic:x", "cyclic:2,3", "cyclic:0",
                     "abelian:", "metacyclic:4,2", "perm:(1,2", "nospec"]:
            with pytest.raises(GroupSpecError):
                group_from_spec(spec)

    def test_impossible_metacyclic_params_raise_value_error(self):
        with pytest.raises(ValueError):
            group_from_spec("metacyclic:4,2,2")

    def test_order_cap_respected(self):
        with pytest.raises(GroupSizeError):
            group_from_spec("cyclic:513")

    @pytest.mark.parametrize("spec", ["cyclic:3000", "metacyclic:3,30000000,2"])
    def test_cap_is_checked_before_allocation(self, spec):
        tracemalloc.start()
        try:
            with pytest.raises(GroupSizeError):
                group_from_spec(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
