"""Working-prime selection, integer recovery, and root-of-unity power sums."""

import random

import pytest

from cwmoduli import (
    MetacyclicParams,
    WorkingPrime,
    build_cyclic,
    build_metacyclic,
    choose_prime,
    recover_integer,
    root_power_sum,
    session_bound,
)
from cwmoduli.modular import _is_prime


def sieve(n):
    flags = [True] * (n + 1)
    flags[0] = flags[1] = False
    for i in range(2, int(n ** 0.5) + 1):
        if flags[i]:
            for j in range(i * i, n + 1, i):
                flags[j] = False
    return flags


class TestSessionBound:
    def test_trivial_group(self):
        # |G| = 1, k = 1, g = 2: the dimension term is 1, 2*sqrt(1) = 2
        assert session_bound(1, 1, 2) == 2

    def test_genus6_example(self):
        # (2*3 - 1) * 5 * 3 = 75 dominates
        assert session_bound(3, 3, 6) == 75

    def test_sqrt_term_is_exact_ceiling(self):
        # with k = 1, g = 2 the dimension term equals the order, so the root
        # term dominates only when it exceeds the order
        assert session_bound(2, 1, 2) == 3   # ceil(2*sqrt(2)) = 3
        assert session_bound(3, 1, 2) == 4   # ceil(2*sqrt(3)) = 4
        assert session_bound(4, 1, 2) == 4

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            session_bound(0, 1, 2)
        with pytest.raises(ValueError):
            session_bound(1, 0, 2)
        with pytest.raises(ValueError):
            session_bound(1, 1, 1)

    def test_monotone_in_each_argument(self):
        base = session_bound(6, 2, 3)
        assert session_bound(6, 3, 3) >= base
        assert session_bound(6, 2, 4) >= base
        assert session_bound(12, 2, 3) >= base


class TestChoosePrime:
    def test_trivial_group_gets_five(self):
        wp = choose_prime(build_cyclic(1))
        assert wp.p == 5
        assert wp.e == 1
        assert wp.z == 1

    def test_genus6_session(self):
        wp = choose_prime(build_cyclic(3), k_max=3, g_max=6)
        assert wp.bound == 75
        assert wp.p == 151
        assert wp.p % 3 == 1
        assert wp.p > 2 * wp.bound

    def test_prime_congruent_to_exponent(self, catalog):
        for _, G in catalog:
            wp = choose_prime(G)
            assert _is_prime(wp.p)
            assert wp.e == G.exponent()
            assert (wp.p - 1) % wp.e == 0
            assert wp.p > 2 * wp.bound
            assert wp.bound >= G.order

    def test_unity_root_has_exact_order(self, catalog):
        for _, G in catalog:
            wp = choose_prime(G)
            e = wp.e
            assert pow(wp.z, e, wp.p) == 1
            for q in range(2, e + 1):
                if e % q == 0 and _is_prime(q):
                    assert pow(wp.z, e // q, wp.p) != 1

    def test_seed_changes_only_the_root(self):
        G = build_metacyclic(MetacyclicParams(4, 2, 3))
        a = choose_prime(G)
        b = choose_prime(G)
        assert a.p == b.p
        assert a.bound == b.bound
        assert pow(b.z, b.e, b.p) == 1
        assert a == b  # the root comes from a deterministic scan

    def test_smallest_qualifying_prime(self):
        # exhaustively confirm no smaller prime works for the genus-6 session
        wp = choose_prime(build_cyclic(3), k_max=3, g_max=6)
        flags = sieve(wp.p)
        for q in range(2 * wp.bound + 1, wp.p):
            assert not (flags[q] and q % 3 == 1)


class TestPrimality:
    def test_matches_sieve(self):
        flags = sieve(10000)
        for n in range(10000 + 1):
            assert _is_prime(n) == flags[n]

    def test_strong_pseudoprimes_rejected(self):
        # Carmichael numbers and large semiprimes
        for n in [561, 1105, 1729, 2821, 6601, 8911, 10585, 2 ** 31 - 1]:
            assert _is_prime(n) == (n == 2 ** 31 - 1)


class TestRecovery:
    def test_small_values(self):
        wp = choose_prime(build_cyclic(3), k_max=3, g_max=6)
        assert recover_integer(0, wp) == 0
        assert recover_integer(1, wp) == 1
        assert recover_integer(wp.p - 1, wp) == -1

    def test_roundtrip_entire_window(self):
        wp = choose_prime(build_cyclic(3), k_max=3, g_max=6)
        for v in range(-wp.bound, wp.bound + 1):
            assert recover_integer(v % wp.p, wp) == v

    def test_inverse(self):
        wp = choose_prime(build_cyclic(6))
        rng = random.Random(3)
        for _ in range(100):
            a = rng.randrange(1, wp.p)
            assert a * wp.inv(a) % wp.p == 1


class TestRootPowerSum:
    def setup_method(self):
        self.wp = choose_prime(build_cyclic(6), k_max=2, g_max=3)

    def test_unity_root_accessor(self):
        wp = self.wp
        z = wp.unity_root(1)
        assert pow(z, wp.e, wp.p) == 1
        assert wp.unity_root(0) == 1
        assert wp.unity_root(wp.e) == 1

    def test_orthogonality(self):
        # values (zeta^(beta*j))_j average against alpha to the indicator
        wp = self.wp
        for m in [1, 2, 3, 6]:
            zeta = wp.unity_root(wp.e // m)
            for beta in range(m):
                values = [pow(zeta, beta * j, wp.p) for j in range(m)]
                for alpha in range(m):
                    got = root_power_sum(values, alpha, m, wp)
                    assert got == (1 if alpha == beta else 0)

    def test_linear_combinations(self):
        wp = self.wp
        m = 6
        zeta = wp.unity_root(wp.e // m)
        rng = random.Random(5)
        for _ in range(50):
            counts = [rng.randrange(0, 5) for _ in range(m)]
            values = [
                sum(counts[b] * pow(zeta, b * j, wp.p) for b in range(m)) % wp.p
                for j in range(m)
            ]
            for alpha in range(m):
                assert root_power_sum(values, alpha, m, wp) == counts[alpha]

    def test_validation(self):
        wp = self.wp
        with pytest.raises(ValueError):
            root_power_sum([1], 0, 0, wp)
        with pytest.raises(ValueError):
            root_power_sum([1, 1, 1, 1], 0, 4, wp)  # 4 does not divide e = 6
        with pytest.raises(ValueError):
            root_power_sum([1, 1], 0, 3, wp)  # wrong length


class TestWorkingPrime:
    def test_frozen(self):
        wp = WorkingPrime(5, 1, 1, 2)
        with pytest.raises(AttributeError):
            wp.p = 7
