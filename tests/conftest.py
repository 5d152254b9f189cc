"""Shared fixtures: the builder-library catalog, the genus-6 running example, a
counter of the validate calls made through the multiplicity memo, a counter
of the rows checked by bulk validation and a counter of the subgroup
closures run by the generation test. Shared helpers:
conjugation and branching data of a vector, the item keys of a decomposition,
the eigenvalue-count rows of a table, the GF(p) root power sum that is
the reference for the count matrices, the one-key multiplicity formula that
is the reference for the batched evaluator, the np.unique tally of the keys'
terms that is the reference for chevalley_weil._key_terms, the per-piece class-matrix split
that is the reference for the batched one, the depth-first search that
is the reference for the row enumerator, and the CLI's formatters of
integer rows that are the reference for its one renderer, cli._lines."""

import json
from collections import Counter
from itertools import chain

import numpy as np
import pytest

from cwmoduli import chevalley_weil, cli, groups
from cwmoduli.groups import generates
from cwmoduli.characters import (_class_matrix, _matmul_mod, _roots_at,
                                 _splitting_order)
from cwmoduli.errors import InternalConsistencyError
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
def checked_rows(monkeypatch):
    """Counter of the (quotient genus, entries) rows checked by bulk validation."""
    rows = Counter()
    real = chevalley_weil._rows_valid

    def counting(G, g_quot, entries, n_handles):
        rows.update((g_quot, tuple(row)) for row in entries.tolist())
        return real(G, g_quot, entries, n_handles)

    monkeypatch.setattr(chevalley_weil, "_rows_valid", counting)
    return rows


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


def block_types(D):
    """Each block's type read off D.types, as one tuple of multiplicities per level."""
    return tuple(tuple(map(tuple, levels)) for levels in D.types.tolist())


def item_keys(D):
    """The block type of every item of a decomposition, in item order."""
    keys = [None] * len(D.items)
    for block, key in zip(D.blocks, block_types(D)):
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


def reference_key_levels(T, ks, g_quot, g, class_key):
    """One key's multiplicities at the levels ks, characters x levels: the
    reference for chevalley_weil._evaluate_keys.

    With N = counts at the class of c_i (order m_i), |G| times the
    multiplicity of rho is
      k = 1:  |G| deg (g'-1) + sum_i (|G|/m_i) sum_a a N[rho, a]  (+|G| if trivial),
      k >= 2: 2k deg (g-1) - |G| deg (g'-1)
              - sum_i (|G|/m_i) sum_a N[rho, a] [-a-k]_{m_i},
    each class sum one product of the counts with its weights at every
    level, in int64 (asserted to hold every term).
    """
    order, k = T.group.order, np.array(ks, dtype=np.int64)
    degrees = np.array(T.degrees, dtype=np.int64)[:, None]
    assert order * (2 * int(k.max()) * g + int(degrees.max()) * (g_quot + 1 + len(class_key))
                    + 1) < 2 ** 63
    first = k == 1
    scaled = degrees * np.where(first, order * (g_quot - 1),
                                2 * k * (g - 1) - order * (g_quot - 1))
    scaled[0, first] += order
    for cls in class_key:
        N = eigenvalue_counts(T, cls).astype(np.int64)
        m = N.shape[1]
        a = np.arange(m)[:, None]
        scaled += order // m * (N @ np.where(first, a, -((-a - k) % m)))
    mults, rem = np.divmod(scaled, order)
    assert not rem.any()
    return mults


def reference_key_terms(T, keys):
    """The keys' terms by np.unique and np.add.at: the reference for
    chevalley_weil._key_terms.

    Returns each key's quotient genus, the distinct branch orders, each key's
    count of branch points of each order (keys x orders), and per class held
    by any key (class, the keys that hold it, how often each does).
    """
    n = len(keys)
    sizes = [len(ck) for _, ck in keys]
    flat = np.fromiter(chain.from_iterable(ck for _, ck in keys), dtype=np.int64,
                       count=sum(sizes))
    owner = np.repeat(np.arange(n), sizes)
    order_of = np.array([T.group.elem_order(x) for x in T.classes.representatives])
    orders, at = np.unique(order_of[flat], return_inverse=True)
    counts = np.zeros((n, len(orders)), dtype=np.int64)
    np.add.at(counts, (owner, at.ravel()), 1)
    # (class, key) pairs sorted by class, so each class's keys are one run
    pairs, times = np.unique(flat * n + owner, return_counts=True)
    cls, rows = np.divmod(pairs, max(n, 1))
    starts = np.flatnonzero(np.diff(cls, prepend=-1))
    held = [(int(cls[a]), rows[a:b], times[a:b])
            for a, b in zip(starts, [*starts[1:], len(cls)])]
    return np.array([q for q, _ in keys], dtype=np.int64), orders, counts, held


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


def reference_spin(M, u, p):
    """The components of one piece u in the eigenspaces of M, coordinate 0 equal to 1.

    The Krylov sequence u, Mu, M^2 u, ... of u alone, a reduced echelon basis
    of its span with each basis row written as a polynomial in M applied to
    u, the monic minimal polynomial mu of M on u from the first dependence,
    its roots lam in ascending order, and q(M) u for q = mu / (x - lam).
    """
    s = u.shape[0]
    krylov = np.empty((s + 1, s), dtype=np.int64)  # rows past k are never read
    basis = np.empty((s, s), dtype=np.int64)
    polys = np.empty((s, s + 1), dtype=np.int64)
    pivots = []
    krylov[0] = u
    for k in range(s + 1):
        v = krylov[k]
        c = v[pivots]
        rows = np.flatnonzero(c)
        r = (v - _matmul_mod(c[rows], basis[rows], p)) % p
        poly = (-_matmul_mod(c[rows], polys[rows, :k + 1], p)) % p
        poly[k] = 1
        nonzero = np.flatnonzero(r)
        if nonzero.size == 0:
            break
        j = int(nonzero[0])
        scale = pow(int(r[j]), p - 2, p)
        basis[k] = r * scale % p
        polys[k, :k + 1] = poly * scale % p
        polys[k, k + 1:] = 0
        col = basis[:k, j].copy()
        rows = np.flatnonzero(col)
        basis[rows] = (basis[rows] - col[rows, None] * basis[k]) % p
        polys[rows, :k + 1] = (polys[rows, :k + 1] - col[rows, None] * polys[k, :k + 1]) % p
        pivots.append(j)
        krylov[k + 1] = (M @ v).astype(np.int64) % p
    lam = _roots_at(poly, p)
    assert len(lam) == k
    Q = np.zeros((k, k), dtype=np.int64)  # row t: coefficients of mu / (x - lam_t)
    Q[:, k - 1] = 1
    for j in range(k - 1, 0, -1):
        Q[:, j - 1] = (poly[j] + lam * Q[:, j]) % p
    parts = _matmul_mod(Q, krylov[:k], p)
    assert parts[:, 0].all()
    return parts * np.array([pow(int(x), p - 2, p) for x in parts[:, 0]],
                            dtype=np.int64)[:, None] % p


def reference_split(G, conj, wp):
    """The rows w_j = |C_j| chi(g_j) / chi(1) of every character, split piece by piece.

    Starts from the identity-class vector and takes the class matrices in
    the order of the library's split; every piece a matrix moves goes
    through reference_spin on its own and is replaced in place by its
    components. Returns the rows in the order found.
    """
    s, p = conj.class_count, wp.p
    pieces = np.zeros((1, s), dtype=np.int64)
    pieces[0, 0] = 1
    for i in _splitting_order(G, conj):
        if len(pieces) == s:
            break
        M = _class_matrix(G, conj, i).astype(np.float64)
        images = (pieces @ M.T).astype(np.int64) % p
        moved = ((images - images[:, :1] * pieces) % p).any(axis=1)
        pieces = np.vstack([reference_spin(M, u, p) if m else u[None]
                            for u, m in zip(pieces, moved)])
    if len(pieces) != s:
        raise InternalConsistencyError("class matrices failed to separate the eigenspaces")
    return pieces


def conjugation_rows(G):
    """The rows x -> h x h^-1 of every non-central h, in element-id order."""
    rows = G.mul_rows()
    out = []
    for h in G.elements():
        row_h, hi = rows[h], G.inv(h)
        conj = [rows[row_h[x]][hi] for x in G.elements()]
        if conj != rows[0]:
            out.append(conj)
    return out


def _tied(x, conj):
    """The conjugation rows that fix x; None if one of them moves x lower."""
    keep = []
    for c in conj:
        y = c[x]
        if y < x:
            return None
        if y == x:
            keep.append(c)
    return keep


def reference_vectors(G, data, up_to_conjugacy=False):
    """The entries of every Hurwitz vector of data, handles first, in order.

    One depth-first search over an explicit stack, one frame per placed slot
    (candidate iterator, relation product so far, the conjugation rows of
    the non-central h that fix the prefix, whether the prefix generates G).
    Placing x prunes the subtree if one carried row maps x below x, drops the
    rows that map x above x and keeps those that fix it, so with
    up_to_conjugacy only orbit minima are reached. The final branch entry is
    forced by the relation. No cap.
    """
    n_handles = 2 * data.g_quot
    orders = data.branch_orders
    r = len(orders)
    total = n_handles + r
    order_of = G.element_orders()
    by_order = {}
    for m in set(orders):
        cand = [x for x in G.elements() if order_of[x] == m]
        if not cand:
            return
        by_order[m] = cand
    rows = G.mul_rows()
    inv = G.inv_list()
    all_elems = list(G.elements())
    as_is = rows[0]
    if n_handles:
        no_step = [G.identity] * G.order
        comm = [[rows[rows[rows[a][b]][inv[a]]][inv[b]] for b in all_elems]
                for a in all_elems]
    slots = [all_elems] * n_handles + [by_order[m] for m in orders[:-1]]
    last_order = orders[-1] if r else None
    if not slots:
        if not r and G.order == 1:
            yield ()
        return
    if not generates(G, set().union(*slots)):
        return
    identity = G.identity
    flat = [0] * total
    last = len(slots) - 1
    conj = conjugation_rows(G) if up_to_conjugacy else []
    stack = [(iter(slots[0]), identity, conj, False)]
    while stack:
        slot = len(stack) - 1
        candidates, acc, conj, gen = stack[-1]
        if slot >= n_handles:
            step = as_is
        elif slot % 2:
            step = comm[flat[slot - 1]]
        else:
            step = no_step
        row_acc = rows[acc]
        for x in candidates:
            keep = conj
            if conj:
                keep = _tied(x, conj)
                if keep is None:
                    continue
            flat[slot] = x
            prod = row_acc[step[x]]
            if slot < last:
                stack.append((iter(slots[slot + 1]), prod, keep,
                              gen or (x not in flat[:slot]
                                      and generates(G, flat[:slot + 1]))))
                break
            if r:
                forced = inv[prod]
                if order_of[forced] != last_order:
                    continue
                flat[-1] = forced
            elif prod != identity:
                continue
            if not (gen or generates(G, flat)):
                continue
            yield tuple(flat)
        else:
            stack.pop()


# The CLI's formatters of integer rows before cli._lines: a gather from id
# strings for vector text, and one join or json.dumps per record otherwise

# what follows an entry of a vector line: another entry, the end of the
# handles, the end of the line, or the end of a line with no branch entries
_SEPARATORS = (" ", " ; ", ")\n", " ; )\n")


def reference_id_strings(n):
    """Per separator, the object array of each element id x < n as text, then it."""
    ids = np.array([str(x) for x in range(n)], dtype=object)
    return {sep: ids + sep for sep in _SEPARATORS}


def reference_vector_lines(rows, n_handles, ids):
    """The text lines of the vectors whose entries are the rows, as one string:
    each is two spaces and "(a_1 b_1 ... ; c_1 ... c_r)"; ids is
    reference_id_strings of the group."""
    count, width = rows.shape
    if not width:
        return "  ( ; )\n" * count
    seps = [" "] * width
    if n_handles:
        seps[n_handles - 1] = " ; "
    seps[-1] = ")\n" if width > n_handles else " ; )\n"
    tokens = np.empty((count, width + 1), dtype=object)
    tokens[:, 0] = "  (" if n_handles else "  ( ; "
    for j, sep in enumerate(seps):
        tokens[:, j + 1] = ids[sep][rows[:, j]]
    return "".join(tokens.ravel().tolist())


def reference_vector_text(v, ids):
    """One vector's text line, without its indent and newline."""
    return reference_vector_lines(np.array([v.entries], dtype=np.intp), len(v.handles),
                                  ids)[2:-1]


def reference_level_lines(ks, types):
    """decompose's text lines "  k=K: (m_1, ..., m_s)" of a block's type, one per level."""
    return "".join(f"  k={k}: ({', '.join(map(str, mults.tolist()))})\n"
                   for k, mults in zip(ks, types))


def reference_cw_records(ks, types):
    """cw --json's lines, one record per level."""
    return "".join(json.dumps({"schema": cli.SCHEMA, "k": k, "mults": mults}) + "\n"
                   for k, mults in zip(ks, types.tolist()))


def reference_vector_records(g_quot, n_handles, rows, **fields):
    """The JSON record of each row's vector, with the fields added, one string per row."""
    return [json.dumps(dict(cli._vector_record(g_quot, r[:n_handles], r[n_handles:]), **fields))
            for r in rows.tolist()]
