"""Exact irreducible character tables over a prime field.

The table is found by the class-matrix method of Dixon (1967) and Schneider
(1990): the structure-constant matrices of the class sums commute, and their
simultaneous eigenvectors over GF(p) are, up to scale, the vectors
j -> |C_j| chi(g_j) / chi(1). Here they are reached by spinning the
identity-class vector: a Krylov sequence under one class matrix at a time
splits it into its eigenspace components, classes of a generating set first,
until there are as many pieces as classes. The eigenvalues of each split are
the roots of a minimal polynomial over GF(p), central-character values
|C_i| chi(g_i) / chi(1): found, as Dixon and Schneider do, by trying every
residue when p is at most ROOT_EVAL_PRIME_LIMIT, and above it by trying the
s values that the table at the default prime gives through its eigenvalue
counts. Degrees and values are then recovered from the norm, and the
result is checked against the eigenvector equations and row orthogonality.
Everything is exact: p is chosen by the modular module so that every reported
integer is a least absolute residue, and the matrix products run in float64
only on integer limbs whose sums stay below 2^53. Built with the table: which
values are rational, from the Galois action on classes given by the power
map. Memoized per class on first use: the integer eigenvalue counts, one
matrix product per class, read by multiplicities and by the central
characters that seed root finding above ROOT_EVAL_PRIME_LIMIT.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InternalConsistencyError
from .groups import FiniteGroup, ConjugacyData, conjugacy_classes, greedy_generators
from .modular import WorkingPrime, choose_prime, recover_integer

__all__ = [
    "CharacterTable",
    "character_table",
    "eigenvalue_counts",
    "eigenvalue_multiplicities",
    "inner_product",
    "rational_character_value",
    "rational_character_values",
]

# Largest prime at which a split tries every residue as a root; above it, a
# table costs one more table at the default prime. Every default prime under
# the order cap is below the limit: the largest is 13711, for cyclic:457.
ROOT_EVAL_PRIME_LIMIT = 2 ** 15


class CharacterTable:
    """Irreducible characters of a group, all values as residues mod prime.p.

    values[rho, c] is the residue of chi_rho on class c, in a read-only int64
    matrix; degrees[rho] is chi_rho(1) as a Python int. Row 0 is the trivial
    character; the rest are sorted by degree and then by recovered values.
    Construction also fixes a read-only matrix saying which values are
    rational. None of this changes afterwards; the table memoizes the
    eigenvalue counts of each class on first use, and the multiplicity module
    keeps its per-table caches here. Whether a vector's entries generate G is
    memoized on the group instead, once per entry set per group.
    """

    def __init__(self, group: FiniteGroup, classes: ConjugacyData,
                 prime: WorkingPrime, degrees: Tuple[int, ...], values: np.ndarray):
        self.group = group
        self.classes = classes
        self.prime = prime
        self.degrees = degrees
        values.flags.writeable = False
        self.values = values
        self._rational = _galois_rational(values, classes.power_class)
        # class index -> eigenvalue counts of every character
        self._counts: Dict[int, np.ndarray] = {}
        # one entry per HurwitzVector queried through cw_character or
        # periodicity_delta (a tuple record, so equal vectors share it) ->
        # (genus, sorted branch class ids, level dict); decompose adds none
        self._validated: Dict[tuple, tuple] = {}
        # (quotient genus, class key) -> level dict {k: MultiplicityVector},
        # filled by decompose and cw_character alike and shared by the memo
        # entries of every vector with that key
        self._levels: Dict[tuple, Dict[int, object]] = {}

    @property
    def class_count(self) -> int:
        return self.classes.class_count

    def __repr__(self) -> str:
        return (f"CharacterTable({self.group.label!r}, classes={self.class_count}, "
                f"p={self.prime.p})")


def character_table(G: FiniteGroup, *, k_max: int = 1, g_max: int = 2,
                    seed: int = 0) -> CharacterTable:
    """Compute the full irreducible character table of G.

    k_max and g_max size the working prime; they do not change the characters
    themselves, and multiplicity queries at any level and genus are exact on
    any table. seed is accepted for compatibility and no longer changes
    anything.
    """
    conj = conjugacy_classes(G)
    wp = choose_prime(G, k_max, g_max)
    base = None
    if wp.p > ROOT_EVAL_PRIME_LIMIT:
        base = _table(G, conj, choose_prime(G), None)
    return _table(G, conj, wp, base)


def _table(G: FiniteGroup, conj: ConjugacyData, wp: WorkingPrime,
           base: Optional[CharacterTable]) -> CharacterTable:
    degrees, X = _class_matrix_characters(G, conj, wp, base)
    return CharacterTable(G, conj, wp, *_sort_characters(degrees, X, wp, G.order))


def _galois_rational(values: np.ndarray, power_class: np.ndarray) -> np.ndarray:
    """Read-only boolean matrix: [rho, c] iff chi_rho has one residue on c's Galois orbit.

    The orbit {class of g^t : t prime to the exponent} is named by its
    smallest class; residues are compared with the one there, and a grouped
    OR spreads any difference over the orbit (see rational_character_value).
    """
    e = power_class.shape[1]
    units = [t for t in range(e) if math.gcd(t, e) == 1]
    root = power_class[:, units].min(axis=1)
    differs = values != values[:, root]
    spoiled = np.zeros_like(differs)  # column r: some class of orbit r differs
    np.logical_or.at(spoiled.T, root, differs.T)
    rational = ~spoiled[:, root]
    rational.flags.writeable = False
    return rational


def _count_matrix(T: CharacterTable, cls: int) -> np.ndarray:
    """Eigenvalue counts of every character at one class.

    N = V F over GF(p), where V[rho, j] = chi_rho(g^j) and
    F[j, a] = zeta_m^(-a j) / m, then lifted to integers.
    """
    wp = T.prime
    p = wp.p
    m = T.group.elem_order(T.classes.representatives[cls])
    V = T.values[:, T.classes.power_class[cls, :m]]
    zeta = np.array([wp.unity_root(t * (wp.e // m)) for t in range(m)], dtype=np.int64)
    j = np.arange(m)
    F = zeta[np.outer(j, -j) % m] * wp.inv(m) % p
    N = _matmul_mod(V, F, p)
    N[2 * N > p] -= p
    degrees = np.array(T.degrees, dtype=np.int64)
    bad = np.flatnonzero((N < 0).any(axis=1) | (N > degrees[:, None]).any(axis=1)
                         | (N.sum(axis=1) != degrees))
    if bad.size:
        rho = int(bad[0])
        raise InternalConsistencyError(
            f"eigenvalue counts {N[rho].tolist()} of character {rho} at class {cls} "
            f"are not in [0, {T.degrees[rho]}] with sum {T.degrees[rho]}")
    N = N.astype(np.min_scalar_type(max(T.degrees)))  # uint8 under the order cap
    N.flags.writeable = False
    return N


def eigenvalue_counts(T: CharacterTable, class_index: int) -> np.ndarray:
    """Read-only integer matrix N[rho, a] for the given class.

    N[rho, a] is the multiplicity of zeta_m^a as an eigenvalue of rho(g), for
    g in the class, m its order and zeta_m = z^(e/m). Computed on first use of
    the class with one matrix product; rows are in range [0, deg] and sum to
    the degree, which is asserted.
    """
    N = T._counts.get(class_index)
    if N is None:
        N = T._counts[class_index] = _count_matrix(T, class_index)
    return N


def eigenvalue_multiplicities(T: CharacterTable, rho: int, c: int) -> Tuple[int, ...]:
    """Eigenvalue counts of rho evaluated at the element c, of order m.

    Entry a is row rho of the count matrix of the class of c: the number of
    eigenvalues zeta_m^a of rho(c). There are m entries, summing to the degree.
    """
    return tuple(eigenvalue_counts(T, T.classes.class_list()[c])[rho].tolist())


def inner_product(T: CharacterTable, a: Sequence[int], b: int) -> int:
    """<a, chi_b> = |G|^-1 sum_j |C_j| a[j] chi_b(g_j^-1), recovered to an integer.

    a is any class function given as field residues per class, in class order.
    """
    wp = T.prime
    conj = T.classes
    if len(a) != conj.class_count:
        raise ValueError(
            f"class function has {len(a)} entries, expected {conj.class_count}")
    chi = T.values[b].tolist()
    total = 0
    for j in range(conj.class_count):
        total += conj.class_sizes[j] * (a[j] % wp.p) * chi[conj.inverse_class(j)]
    total = total % wp.p * wp.inv(T.group.order) % wp.p
    return recover_integer(total, wp)


def rational_character_value(T: CharacterTable, rho: int,
                             class_index: int) -> Optional[int]:
    """The integer chi_rho(g) if the value is rational, else None.

    Read from the matrix built with the table: chi(g) is rational iff its
    residue is the same at every class of g^t, t prime to the exponent, since
    chi(g^t) = sigma_t(chi(g)). This is exact: if c is the least absolute
    residue and the residues agree, chi(g) - c lies in every prime of
    Z[zeta_m] over p (p = 1 mod m), hence in p Z[zeta_m]; its conjugates have
    modulus at most deg + p/2 < p, so (chi(g) - c)/p has norm below 1 and is 0.
    This is rationality at g, not on all of <g>: in the modular group of
    order 16 the degree-2 characters are 0 at elements of order 8 but
    irrational at their squares.
    """
    return rational_character_values(T, rho, class_index)


def rational_character_values(T: CharacterTable, rho=slice(None), cls=slice(None)):
    """rational_character_value over T.values[rho, cls], in one array step.

    rho and cls are numpy indices (integers, slices or index arrays). The
    result is T.values[rho, cls].tolist() with every rational value lifted
    to its least absolute residue, as recover_integer does, and every
    irrational one replaced by None.
    """
    p = T.prime.p
    X = T.values[rho, cls]
    return np.where(T._rational[rho, cls], np.where(2 * X > p, X - p, X), None).tolist()


# ---------------------------------------------------------------------------
# class-matrix eigenvector computation


def _class_matrix(G: FiniteGroup, conj: ConjugacyData, i: int) -> np.ndarray:
    """M_i with M_i[j, k] = #{x in C_i : x^-1 g_k in C_j}.

    These are the structure constants of the class sums: the vector
    w_j = |C_j| chi(g_j) / chi(1) satisfies M_i w = omega_i w with
    omega_i = |C_i| chi(g_i) / chi(1).
    """
    s = conj.class_count
    members = conj.members(i)
    reps = np.asarray(conj.representatives)
    prods = conj.class_of[G.mul_table[G.inv_table[members][:, None], reps[None, :]]]
    M = np.zeros((s, s), dtype=np.int64)
    np.add.at(M, (prods, np.broadcast_to(np.arange(s), prods.shape)), 1)
    return M


def _class_matrix_characters(G: FiniteGroup, conj: ConjugacyData, wp: WorkingPrime,
                             base: Optional[CharacterTable]) -> Tuple[np.ndarray, np.ndarray]:
    """Degrees and value rows mod p of all irreducible characters, in no particular order.

    Spins the identity-class vector e_0 into the common eigenvectors. In the
    basis w_chi (w_chi[0] = 1), e_0 = sum_chi chi(1)^2/|G| w_chi, and every
    partial sum of those coefficients is nonzero mod p because p > |G|. So
    each piece below is a multiple of the projection of e_0 onto a joint
    eigenspace of the class matrices used so far, scaled so that its
    coordinate 0 is 1. For each class matrix M in turn, built one at a time,
    each piece u is kept if M is a scalar on it, and otherwise replaced by
    its components in the eigenspaces of M (see _spin). Classes of a greedy
    generating set come first; the split stops at s pieces. Roots are tried
    among every residue, or among _central_characters of base if given. Root
    and class order are fixed, so the outcome is deterministic.
    """
    s = conj.class_count
    if s == 1:
        return np.ones(1, dtype=np.int64), np.ones((1, 1), dtype=np.int64)
    p = wp.p
    if s * G.order * p >= 2 ** 53:
        raise ValueError(f"order {G.order} with p = {p} is too large for exact float64 products")
    pieces = np.zeros((1, s), dtype=np.int64)
    pieces[0, 0] = 1
    used: List[int] = []
    for i in _splitting_order(G, conj):
        M = _class_matrix(G, conj, i).astype(np.float64)
        images = (pieces @ M.T).astype(np.int64) % p  # exact, as in _spin
        moved = ((images - images[:, :1] * pieces) % p).any(axis=1)
        if moved.any():
            used.append(i)
            roots = (np.arange(p, dtype=np.int64) if base is None
                     else _central_characters(base, i, wp))
            pieces = np.vstack([_spin(M, u, p, roots) if m else u[None]
                                for u, m in zip(pieces, moved)])
            if len(pieces) == s:
                break
    if len(pieces) != s:
        raise InternalConsistencyError(
            "class matrices failed to separate the common eigenspaces")
    _check_common_eigenvectors((_class_matrix(G, conj, i) for i in used), pieces, p)
    return _characters_from_vectors(G, conj, wp, pieces)


def _splitting_order(G: FiniteGroup, conj: ConjugacyData) -> List[int]:
    """Classes of a greedy generating set, then every other nonidentity class."""
    first = dict.fromkeys(conj.class_list()[g] for g in greedy_generators(G.mul_rows()))
    return list(first) + [i for i in range(1, conj.class_count) if i not in first]


def _central_characters(base: CharacterTable, i: int, wp: WorkingPrime) -> np.ndarray:
    """The distinct |C_i| chi(g_i) / chi(1) mod wp.p over all chi, ascending.

    chi(g_i) = sum_a N[chi, a] z^(a e/m), N being base's eigenvalue counts at
    class i: every complex character reduced at wp.p, so every eigenvalue of
    class matrix i there.
    """
    p = wp.p
    N = eigenvalue_counts(base, i).astype(np.int64)
    m = N.shape[1]
    zeta = np.array([wp.unity_root(a * (wp.e // m)) for a in range(m)], dtype=np.int64)
    chi = N @ zeta % p  # a row of N sums to the degree: below 2^36 before reduction
    inv_degrees = np.array([wp.inv(d) for d in base.degrees], dtype=np.int64)
    return np.unique(chi * inv_degrees % p * base.classes.class_sizes[i] % p)


def _spin(M: np.ndarray, u: np.ndarray, p: int, roots: np.ndarray) -> np.ndarray:
    """The components of u in the eigenspaces of M, as rows with coordinate 0 equal to 1.

    M is a class matrix in float64. Builds the Krylov sequence u, Mu, M^2 u,
    ... while keeping a reduced echelon basis of its span, each basis row
    written as a polynomial in M applied to u, until the next vector is
    dependent; that dependence is the monic minimal polynomial mu of M on u.
    mu is squarefree and splits over GF(p), since u is a sum of common
    eigenvectors, and q(M) u for q = mu / (x - lam) is the component at the
    root lam, up to the nonzero factor q(lam), in the ascending order of
    `roots`, which must hold every root. M u is exact in float64: the row
    sums of M are at most s |G| and the entries of u are below p, so every
    sum is below 2^53 (2^49 at the order cap).
    """
    s = u.shape[0]
    krylov = np.empty((s + 1, s), dtype=np.int64)  # rows past k are never read
    basis = np.empty((s, s), dtype=np.int64)
    polys = np.empty((s, s + 1), dtype=np.int64)
    pivots: List[int] = []
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
    lam = _roots_at(poly, p, roots)
    if len(lam) != k:
        raise InternalConsistencyError(
            f"minimal polynomial of degree {k} of a class matrix has {len(lam)} "
            f"roots among {len(roots)} candidates")
    Q = np.zeros((k, k), dtype=np.int64)  # row t: coefficients of mu / (x - lam_t)
    Q[:, k - 1] = 1
    for j in range(k - 1, 0, -1):
        Q[:, j - 1] = (poly[j] + lam * Q[:, j]) % p
    parts = _matmul_mod(Q, krylov[:k], p)
    if not parts[:, 0].all():
        raise InternalConsistencyError("a split piece vanishes at the identity class")
    return parts * np.array([pow(int(x), p - 2, p) for x in parts[:, 0]],
                            dtype=np.int64)[:, None] % p


def _roots_at(f: np.ndarray, p: int, candidates: np.ndarray) -> np.ndarray:
    """The candidates at which f vanishes mod p, in the candidates' order.

    f and the candidates are int64 with entries in [0, p). Horner's rule
    runs on the vector of all candidates at once. It reduces mod p only every
    `lazy` steps, which is exact: from a reduced value, j steps of
    acc * x + c with x, c < p stay below p^(j+1), and p^(lazy+1) < 2^63;
    lazy >= 1 for every p below 2^31, the prime search limit.
    """
    acc = np.zeros(len(candidates), dtype=np.int64)
    lazy = 63 // p.bit_length() - 1
    for i, c in enumerate(f[::-1].tolist()):
        acc *= candidates
        acc += c
        if i % lazy == lazy - 1:
            acc %= p
    return candidates[acc % p == 0]


def _check_common_eigenvectors(mats: Iterable[np.ndarray], W: np.ndarray,
                               p: int) -> None:
    """Assert that the rows of W are common eigenvectors with distinct eigenvalues.

    W rows have coordinate 0 equal to 1, so the eigenvalue of M at w is
    (M w)[0]. If every row is an eigenvector of every matrix given and the
    tuples of eigenvalues are pairwise distinct, the s rows span the space
    and each joint eigenspace is a line; the commutative class algebra
    preserves those lines, so the rows are common eigenvectors of every
    class matrix, used or not.
    """
    eigenvalues = []
    for M in mats:
        MW = _matmul_mod(M, W.T, p)
        if ((MW - MW[0] * W.T) % p).any():
            raise InternalConsistencyError(
                "candidate vectors are not eigenvectors of every class matrix used")
        eigenvalues.append(MW[0])
    tuples = set(zip(*(row.tolist() for row in eigenvalues)))
    if len(tuples) != W.shape[0]:
        raise InternalConsistencyError(
            "two candidate vectors share their eigenvalues on every class matrix used")


def _characters_from_vectors(G: FiniteGroup, conj: ConjugacyData, wp: WorkingPrime,
                             W: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Recover degrees and chi values from the rows w_j = |C_j| chi(g_j) / chi(1).

    chi(1)^2 = |G| / sum_j w_j w_{j'} / |C_j|, where j' is the class of the
    inverses. Row orthogonality, sum_j |C_j| chi(g_j) psi(g_j^-1) = |G| delta,
    is asserted as one s x s product.
    """
    p = wp.p
    s = conj.class_count
    inv_class = np.array([conj.inverse_class(j) for j in range(s)])
    sizes = np.array(conj.class_sizes, dtype=np.int64)
    inv_sizes = np.array([wp.inv(c) for c in conj.class_sizes], dtype=np.int64)
    denoms = (W * W[:, inv_class] % p * inv_sizes % p).sum(axis=1) % p
    degrees = []
    for denom in denoms.tolist():
        if denom == 0:
            raise InternalConsistencyError("degree denominator vanished mod p")
        d2 = recover_integer(G.order * wp.inv(denom) % p, wp)
        d = math.isqrt(max(d2, 0))
        if d2 < 1 or d * d != d2:
            raise InternalConsistencyError(f"recovered squared degree {d2} is not a square")
        degrees.append(d)
    degrees = np.array(degrees, dtype=np.int64)
    X = W * degrees[:, None] % p * inv_sizes % p
    gram = _matmul_mod(X, (X[:, inv_class] * sizes % p).T, p)
    if not np.array_equal(gram, G.order % p * np.eye(s, dtype=np.int64)):
        raise InternalConsistencyError("recovered characters are not orthonormal")
    return degrees, X


def _matmul_mod(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray:
    """A @ B mod p, exactly, for nonnegative int64 A and B with entries of B below p.

    The product runs in float64 (BLAS) on limbs of A sized so that every
    partial sum stays below 2^52 and is therefore an exact integer.
    """
    inner = A.shape[-1]
    bits = 52 - (p - 1).bit_length() - inner.bit_length()
    if bits < 1:
        raise ValueError(f"inner dimension {inner} too large for exact products mod {p}")
    Bf = B.astype(np.float64)
    limbs = max(1, -(-int(A.max(initial=0)).bit_length() // bits))
    acc = np.zeros(A.shape[:-1] + B.shape[1:], dtype=np.int64)
    for t in reversed(range(limbs)):
        limb = ((A >> (t * bits)) & ((1 << bits) - 1)).astype(np.float64)
        acc = (acc * (1 << bits) + (limb @ Bf).astype(np.int64)) % p
    return acc


def _sort_characters(degrees: np.ndarray, X: np.ndarray, wp: WorkingPrime,
                     order: int) -> Tuple[Tuple[int, ...], np.ndarray]:
    """Degrees and value rows, trivial character first, then by degree and lifted values."""
    total = int((degrees * degrees).sum())
    if total != order:
        raise InternalConsistencyError(
            f"squared degrees sum to {total}, expected {order}")
    trivial = np.flatnonzero((X == 1).all(axis=1))
    if len(trivial) != 1:
        raise InternalConsistencyError(
            f"expected exactly one trivial character, found {len(trivial)}")
    lifted = np.where(2 * X > wp.p, X - wp.p, X)
    ranked = np.lexsort(np.vstack([lifted.T[::-1], degrees]))
    ordered = [int(trivial[0])] + [int(i) for i in ranked if i != trivial[0]]
    return tuple(degrees[ordered].tolist()), X[ordered]

