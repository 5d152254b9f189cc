"""Shared fixtures: the builder-library catalog, the genus-6 running example, a
counter of the validate calls made through the multiplicity memo and a
counter of the subgroup closures run by the generation test. Shared helpers:
conjugation and branching data of a vector, the item keys of a decomposition,
the eigenvalue-count rows of a table, and the GF(p) root power sum that is
the reference for the count matrices."""

from collections import Counter

import numpy as np
import pytest

from cwmoduli import chevalley_weil, groups
from cwmoduli import (
    BranchingData,
    HurwitzVector,
    MetacyclicParams,
    build_abelian,
    build_cyclic,
    build_from_permutations,
    build_from_table,
    build_metacyclic,
    character_table,
    eigenvalue_counts,
)

S3_PERM_GENS = ["(1,2)", "(1,2,3)"]
A4_PERM_GENS = ["(1,2,3)", "(2,3,4)"]
S4_PERM_GENS = ["(1,2)", "(1,2,3,4)"]
Q8_PERM_GENS = ["(1,2,3,4)(5,6,7,8)", "(1,5,3,7)(2,8,4,6)"]

ABELIAN_FACTOR_LISTS = [
    (2, 2),
    (2, 4),
    (3, 3),
    (2, 2, 2),
    (2, 6),
    (2, 10),
    (2, 2, 2, 3),
]

# (m, n, r): dihedral families, Frobenius groups, a dicyclic case, and one
# abelian presentation (r = 1)
METACYCLIC_TRIPLES = [
    (3, 2, 2),
    (4, 2, 3),
    (5, 2, 4),
    (6, 2, 5),
    (8, 2, 7),
    (12, 2, 11),
    (5, 4, 2),
    (7, 3, 2),
    (3, 4, 2),
    (4, 2, 1),
]


def _build_catalog():
    groups = []
    for n in list(range(1, 13)) + [16, 24]:
        groups.append((f"cyclic:{n}", build_cyclic(n)))
    for factors in ABELIAN_FACTOR_LISTS:
        label = "abelian:" + ",".join(str(f) for f in factors)
        groups.append((label, build_abelian(factors)))
    for m, n, r in METACYCLIC_TRIPLES:
        groups.append(
            (f"metacyclic:{m},{n},{r}", build_metacyclic(MetacyclicParams(m, n, r)))
        )
    groups.append(("perm:S3", build_from_permutations(S3_PERM_GENS)))
    groups.append(("perm:A4", build_from_permutations(A4_PERM_GENS)))
    groups.append(("perm:S4", build_from_permutations(S4_PERM_GENS)))
    groups.append(("perm:Q8", build_from_permutations(Q8_PERM_GENS)))
    d4 = build_metacyclic(MetacyclicParams(4, 2, 3))
    groups.append(
        ("table:D4", build_from_table({"order": 8, "mul": d4.mul_rows()}))
    )
    return groups


_CATALOG = _build_catalog()


@pytest.fixture(scope="session")
def catalog():
    return list(_CATALOG)


@pytest.fixture(scope="session")
def catalog_le_12():
    return [(label, G) for label, G in _CATALOG if G.order <= 12]


@pytest.fixture(scope="session")
def z3():
    return build_cyclic(3)


@pytest.fixture(scope="session")
def z3_table(z3):
    # the working prime sized for the genus-6 running example up to k = 3
    return character_table(z3, k_max=3, g_max=6)


@pytest.fixture(scope="session")
def z2():
    return build_cyclic(2)


@pytest.fixture(scope="session")
def z2_table(z2):
    return character_table(z2, k_max=2, g_max=3)


@pytest.fixture(scope="session")
def s3():
    return build_metacyclic(MetacyclicParams(3, 2, 2))


@pytest.fixture(scope="session")
def s3_table(s3):
    return character_table(s3, k_max=2, g_max=4)


@pytest.fixture()
def genus6_vectors():
    # both uniformize a genus-6 curve with a Z/3 action
    v = HurwitzVector(2, (1, 0, 0, 2), (2, 1))
    v_alt = HurwitzVector(0, (), (1, 1, 2, 2, 1, 1, 2, 2))
    return v, v_alt


@pytest.fixture()
def validate_calls(monkeypatch):
    """Counter of the validate calls made through the multiplicity memo, per vector."""
    calls = Counter()
    real = chevalley_weil.validate

    def counting(v, G):
        calls[v] += 1
        return real(v, G)

    monkeypatch.setattr(chevalley_weil, "validate", counting)
    return calls


@pytest.fixture()
def closure_calls(monkeypatch):
    """Counter of the closure calls made by generates, per generating set."""
    calls = Counter()
    real = groups.closure

    def counting(G, S):
        S = frozenset(S)
        calls[S] += 1
        return real(G, S)

    monkeypatch.setattr(groups, "closure", counting)
    return calls


def conjugate_vector(v, G, h):
    """Simultaneous conjugation x -> h x h^-1 of every entry."""
    hi = G.inv(h)
    conj = lambda x: G.mul(G.mul(h, x), hi)
    return HurwitzVector(v.g_quot, tuple(conj(x) for x in v.handles),
                         tuple(conj(x) for x in v.branches))


def branching_data_of(v, G):
    return BranchingData(v.g_quot, tuple(G.elem_order(c) for c in v.branches))


def item_keys(D):
    """The block key of every item of a decomposition, in item order."""
    keys = [None] * len(D.items)
    for block, key in zip(D.blocks, D.keys):
        for idx in block:
            keys[idx] = key
    return keys


def count_rows(T):
    """Per character, its fingerprint: the bytes of its eigenvalue-count rows
    over all classes.

    The counts determine the character on every element, and the table's
    prime and root of unity do not change them, so the rows name characters
    across tables.
    """
    stacked = np.hstack([eigenvalue_counts(T, c) for c in range(T.class_count)])
    return [row.tobytes() for row in stacked]


def root_power_sum(values, alpha, m, wp):
    """(1/m) * sum_j values[j] * zeta^(-alpha*j) in GF(p), zeta of order m.

    values[j] is the character value on the j-th power of a fixed element of
    order m; the result counts the eigenvalue zeta^alpha.
    """
    stride = wp.e // m
    total = 0
    for j, v in enumerate(values):
        total += v * wp.unity_root((-alpha * j % m) * stride)
    return total % wp.p * wp.inv(m) % wp.p
