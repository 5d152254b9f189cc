"""Schur multiplier orders and the free-action component bound."""

import math
import tracemalloc

import pytest

from cwmoduli import (
    AbelianGroup,
    MetacyclicParams,
    NoFreeAction,
    SchurResult,
    rr_component_lower_bound,
    schur_multiplier_order,
)


def brute_multiplier(m, n, r):
    """The closed form evaluated independently, term by term."""
    geometric = sum(r ** i for i in range(n))
    return math.gcd(m, r - 1) * math.gcd(m, geometric) // m


class TestSchurMultiplier:
    def test_known_values(self):
        cases = [
            ((5, 2, 4), 1),   # D5
            ((4, 2, 3), 2),   # D4
            ((3, 2, 2), 1),   # S3
            ((5, 4, 2), 1),   # Frobenius of order 20
            ((7, 3, 2), 1),   # Frobenius of order 21
            ((3, 4, 2), 1),   # dicyclic of order 12
        ]
        for (m, n, r), want in cases:
            res = schur_multiplier_order(MetacyclicParams(m, n, r))
            assert isinstance(res, SchurResult)
            assert res.d == want
            assert res.params.m == m

    def test_dihedral_closed_form(self):
        # D_m for odd m has trivial multiplier; for even m it is Z/2
        for m in range(3, 13):
            d = schur_multiplier_order(MetacyclicParams(m, 2, m - 1)).d
            assert d == (2 if m % 2 == 0 else 1)

    def test_abelian_closed_form(self):
        # r = 1 gives Z/m x Z/n with multiplier Z/gcd(m, n)
        for m in range(1, 13):
            for n in range(1, 13):
                d = schur_multiplier_order(MetacyclicParams(m, n, 1)).d
                assert d == math.gcd(m, n)

    def test_matches_formula_on_all_small_params(self):
        for m in range(1, 23):
            for n in range(1, 23):
                if m * n > 500:
                    continue
                for r in range(1, m + 1):
                    if (r ** n - 1) % m != 0:
                        continue
                    p = MetacyclicParams(m, n, r)
                    assert schur_multiplier_order(p).d == brute_multiplier(m, n, r)

    def test_large_n_needs_no_large_power(self):
        # 2 has order 3 mod 7, so the geometric sum is 0 mod 7 as for n = 3;
        # r^n itself would have 3 * 10^7 bits
        tracemalloc.start()
        try:
            d = schur_multiplier_order(MetacyclicParams(7, 3 * 10 ** 7, 2)).d
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert d == brute_multiplier(7, 3, 2)
        assert peak < 2 ** 20

    def test_trivial_edges(self):
        assert schur_multiplier_order(MetacyclicParams(1, 5, 1)).d == 1
        assert schur_multiplier_order(MetacyclicParams(9, 1, 1)).d == 1


class TestComponentBound:
    def test_d4_examples(self):
        p = MetacyclicParams(4, 2, 3)
        assert rr_component_lower_bound(p, 9) == 2
        assert rr_component_lower_bound(p, 17) == 2
        with pytest.raises(NoFreeAction):
            rr_component_lower_bound(p, 8)

    def test_s3_example(self):
        assert rr_component_lower_bound(MetacyclicParams(3, 2, 2), 7) == 1

    def test_abelian_rejected(self):
        with pytest.raises(AbelianGroup):
            rr_component_lower_bound(MetacyclicParams(4, 2, 1), 9)
        with pytest.raises(AbelianGroup):
            rr_component_lower_bound(MetacyclicParams(1, 6, 1), 7)

    def test_quotient_genus_must_reach_two(self):
        p = MetacyclicParams(4, 2, 3)
        with pytest.raises(NoFreeAction) as exc:
            rr_component_lower_bound(p, 1)
        assert "below 2" in str(exc.value)

    def test_divisibility_message(self):
        p = MetacyclicParams(4, 2, 3)
        with pytest.raises(NoFreeAction) as exc:
            rr_component_lower_bound(p, 10)
        assert "g - 1 = 9" in str(exc.value)

    def test_bound_value_is_the_multiplier(self):
        for m, n, r in [(4, 2, 3), (8, 2, 7), (12, 2, 11), (5, 4, 2)]:
            p = MetacyclicParams(m, n, r)
            g = m * n + 1
            assert rr_component_lower_bound(p, g) == schur_multiplier_order(p).d
