"""Hurwitz vectors: validation, genus arithmetic, and exhaustive enumeration.

Counts are frozen from literal brute-force loops over raw tuples, written out
in the tests themselves so they do not depend on the enumerator under test.
"""

import itertools
import random

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
    branching_data_of,
    build_cyclic,
    build_metacyclic,
    conjugate_vector,
    enumerate_branching_data,
    enumerate_hurwitz_vectors,
    enumerate_hurwitz_vectors_parallel,
    genus,
    validate,
)


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

    def test_z2_genus2(self, z2):
        assert enumerate_branching_data(z2, 2) == [
            BranchingData(0, (2,) * 6),
            BranchingData(1, (2, 2)),
        ]

    def test_trivial_group(self):
        G = build_cyclic(1)
        assert enumerate_branching_data(G, 2) == [BranchingData(2, ())]

    def test_every_datum_hits_the_genus(self, s3):
        for g in (2, 3, 4, 5):
            for d in enumerate_branching_data(s3, g):
                assert genus(d, s3) == g

    def test_genus_below_two_rejected(self, z3):
        with pytest.raises(ValueError):
            enumerate_branching_data(z3, 1)


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
            EnumerationOptions(max_vectors=0)


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


class TestMetacyclicEnumeration:
    def test_d4_genus3_counts(self):
        G = build_metacyclic(MetacyclicParams(4, 2, 3))
        for d in enumerate_branching_data(G, 3):
            vecs = list(enumerate_hurwitz_vectors(G, d))
            for v in vecs:
                assert validate(v, G) is v
                assert genus(v, G) == 3


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
