"""Exact irreducible character tables over a prime field.

The table is found by the classical class-matrix method: the structure-constant
matrices of the class sums commute, and their simultaneous eigenvectors over
GF(p) are, up to scale, the columns j -> |C_j| chi(g_j) / chi(1). A random
field combination of the class matrices separates the eigenspaces; degrees and
values are then recovered from orthogonality. Everything is exact: p is chosen
by the modular module so that every reported integer is a least absolute
residue.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import InternalConsistencyError
from .groups import FiniteGroup, ConjugacyData, conjugacy_classes
from .modular import WorkingPrime, choose_prime, recover_integer, root_power_sum

__all__ = [
    "Character",
    "CharacterTable",
    "EigenvalueMultiplicities",
    "character_table",
    "eigenvalue_multiplicities",
    "inner_product",
    "rational_character_value",
    "character_fingerprint",
]

# Shifts tried when splitting a product of distinct linear factors; the scan is
# deterministic so tables are reproducible.
MAX_ROOT_SHIFTS = 10000


@dataclass(frozen=True)
class Character:
    """One irreducible character: degree, field residues per class, table index."""

    degree: int
    values: Tuple[int, ...]
    index: int


@dataclass(frozen=True)
class EigenvalueMultiplicities:
    """Eigenvalue counts of rho(c) for an element c of order m.

    counts[a] is the multiplicity of the primitive-root power zeta_m^a; the
    counts sum to the character degree.
    """

    m: int
    counts: Tuple[int, ...]


class CharacterTable:
    """Irreducible characters of a group, all values as residues mod prime.p.

    irreducibles[0] is the trivial character; the rest are sorted by degree and
    then by recovered values. The table is immutable apart from internal
    memoization caches.
    """

    def __init__(self, group: FiniteGroup, classes: ConjugacyData,
                 prime: WorkingPrime, irreducibles: Tuple[Character, ...],
                 *, k_max: int, g_max: int):
        self.group = group
        self.classes = classes
        self.prime = prime
        self.irreducibles = irreducibles
        self.session_k_max = k_max
        self.session_g_max = g_max
        self._mult_cache: Dict[Tuple[int, int], EigenvalueMultiplicities] = {}
        self._cw_cache: Dict[tuple, Tuple[int, ...]] = {}
        self._validated: Dict[tuple, int] = {}  # vector key -> genus
        self._widened: Dict[Tuple[int, int], tuple] = {}

    @property
    def class_count(self) -> int:
        return self.classes.class_count

    @property
    def degrees(self) -> Tuple[int, ...]:
        return tuple(c.degree for c in self.irreducibles)

    @property
    def regular_character(self) -> Tuple[int, ...]:
        """Multiplicities of the regular representation: degree(rho) at each rho."""
        return self.degrees

    def __repr__(self) -> str:
        return (f"CharacterTable({self.group.label!r}, classes={self.class_count}, "
                f"p={self.prime.p})")


def character_table(G: FiniteGroup, *, k_max: int = 1, g_max: int = 2,
                    seed: int = 0) -> CharacterTable:
    """Compute the full irreducible character table of G.

    k_max and g_max size the working prime so that later multiplicity queries
    up to that pluricanonical level and genus recover exactly; they do not
    change the characters themselves. seed is accepted for compatibility and
    no longer changes anything.
    """
    conj = conjugacy_classes(G)
    wp = choose_prime(G, k_max, g_max)
    raw = _class_matrix_characters(G, conj, wp)
    chars = _sort_characters(raw, wp, G.order)
    return CharacterTable(G, conj, wp, chars, k_max=k_max, g_max=g_max)


def eigenvalue_multiplicities(T: CharacterTable, rho: int,
                              c: int) -> EigenvalueMultiplicities:
    """Eigenvalue multiplicities of rho evaluated at the element c.

    counts[a] is recovered from the inverse DFT of j -> chi(c^j) over the
    cyclic group generated by c; it counts the eigenvalue zeta_m^a of rho(c).
    """
    cls = int(T.classes.class_of[c])
    key = (rho, cls)
    hit = T._mult_cache.get(key)
    if hit is not None:
        return hit
    chi = T.irreducibles[rho]
    m = T.group.elem_order(c)
    values = [chi.values[int(T.classes.power_class[cls, j])] for j in range(m)]
    counts = []
    for alpha in range(m):
        n = recover_integer(root_power_sum(values, alpha, m, T.prime), T.prime)
        if not 0 <= n <= chi.degree:
            raise InternalConsistencyError(
                f"eigenvalue count {n} for character {rho} at class {cls} "
                f"falls outside [0, {chi.degree}]")
        counts.append(n)
    if sum(counts) != chi.degree:
        raise InternalConsistencyError(
            f"eigenvalue counts {counts} do not sum to the degree {chi.degree}")
    out = EigenvalueMultiplicities(m, tuple(counts))
    T._mult_cache[key] = out
    return out


def inner_product(T: CharacterTable, a: Sequence[int], b: int) -> int:
    """<a, chi_b> = |G|^-1 sum_j |C_j| a[j] chi_b(g_j^-1), recovered to an integer.

    a is any class function given as field residues per class, in class order.
    """
    wp = T.prime
    conj = T.classes
    if len(a) != conj.class_count:
        raise ValueError(
            f"class function has {len(a)} entries, expected {conj.class_count}")
    chi = T.irreducibles[b]
    total = 0
    for j in range(conj.class_count):
        total += conj.class_sizes[j] * (a[j] % wp.p) * chi.values[conj.inverse_class(j)]
    total = total % wp.p * wp.inv(T.group.order) % wp.p
    return recover_integer(total, wp)


def rational_character_value(T: CharacterTable, rho: int,
                             class_index: int) -> Optional[int]:
    """The integer chi_rho(g) if the value is rational, else None.

    Rationality is decided by Galois stability of the eigenvalue counts: the
    value is rational iff counts[t*a mod m] = counts[a] for every t coprime
    to m.
    """
    rep = T.classes.representatives[class_index]
    em = eigenvalue_multiplicities(T, rho, rep)
    m = em.m
    for t in range(2, m):
        if math.gcd(t, m) != 1:
            continue
        if any(em.counts[t * a % m] != em.counts[a] for a in range(m)):
            return None
    return recover_integer(T.irreducibles[rho].values[class_index], T.prime)


def character_fingerprint(T: CharacterTable, rho: int) -> tuple:
    """Prime-independent identifier: degree plus eigenvalue counts on every class.

    The counts determine chi on every element, so distinct characters always
    get distinct fingerprints; used to match characters across tables built
    with different working primes.
    """
    profile = tuple(
        eigenvalue_multiplicities(T, rho, T.classes.representatives[cls]).counts
        for cls in range(T.classes.class_count))
    return (T.irreducibles[rho].degree, profile)


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


def _class_matrix_characters(G: FiniteGroup, conj: ConjugacyData,
                             wp: WorkingPrime) -> List[Tuple[int, Tuple[int, ...]]]:
    """All (degree, values mod p) pairs, in no particular order.

    Iteratively refines the full space by the eigenspaces of each class matrix
    in turn. The class algebra is semisimple mod p (p > |G|) and its central
    characters stay pairwise distinct, so the refinement always terminates in
    one-dimensional common eigenspaces. Matrix order and pivot choice are
    fixed, so the outcome is deterministic.
    """
    s = conj.class_count
    if s == 1:
        return [(1, (1,))]
    p = wp.p
    mats = [_class_matrix(G, conj, i) for i in range(s)]
    subspaces = [np.eye(s, dtype=np.int64)]
    for Mi in mats[1:]:  # M_0 is the identity and never splits anything
        nxt: List[np.ndarray] = []
        for basis in subspaces:
            if basis.shape[0] == 1:
                nxt.append(basis)
            else:
                nxt.extend(_split_subspace(basis, Mi, p))
        subspaces = nxt
        if all(b.shape[0] == 1 for b in subspaces):
            break
    if any(b.shape[0] > 1 for b in subspaces):
        raise InternalConsistencyError(
            "class matrices failed to separate the common eigenspaces")
    vectors = []
    for basis in subspaces:
        w = [int(x) for x in basis[0]]
        if w[0] == 0:
            raise InternalConsistencyError("common eigenvector vanishes at the identity")
        inv0 = pow(w[0], p - 2, p)
        vectors.append([x * inv0 % p for x in w])
    if not _common_eigenvectors(mats, vectors, p):
        raise InternalConsistencyError(
            "candidate vectors are not common eigenvectors of all class matrices")
    return [_character_from_vector(G, conj, wp, w) for w in vectors]


def _split_subspace(basis: np.ndarray, Mi: np.ndarray, p: int) -> List[np.ndarray]:
    """Refine an invariant subspace into the eigenspaces of Mi restricted to it.

    basis rows are in reduced row echelon form, so coordinates of any vector
    in the span can be read off at the pivot columns.
    """
    d = basis.shape[0]
    pivots = [int(np.flatnonzero(row)[0]) for row in basis]
    # images of basis vectors: Mi entries <= |G|, basis entries < p <= 2^31
    images = Mi @ basis.T % p  # column t = Mi b_t
    A = images[pivots, :]  # A[t1, t2]: coefficient of b_t1 in Mi b_t2
    if ((A.T @ basis - images.T) % p).any():
        raise InternalConsistencyError("subspace is not invariant under a class matrix")
    f = _charpoly_mod(A, p)
    g = _poly_gcd(f, _poly_derivative(f, p), p)
    h, rem = _poly_divmod(f, g, p)
    if _poly_trim(rem) != [0]:
        raise InternalConsistencyError("squarefree reduction of a charpoly failed")
    roots = sorted(_roots_of_split_poly(h, p))
    if len(roots) == 1:
        return [basis]  # Mi acts as a scalar here; nothing to refine
    parts: List[np.ndarray] = []
    total = 0
    for lam in roots:
        coeffs = _nullspace_basis((A - lam * np.eye(d, dtype=np.int64)) % p, p)
        rows = np.array(coeffs, dtype=np.int64) @ basis % p
        part, _ = _rref(rows, p)
        total += part.shape[0]
        parts.append(part)
    if total != d:
        raise InternalConsistencyError(
            "eigenspace dimensions do not add up; a class matrix is not semisimple")
    return parts


def _common_eigenvectors(mats: Sequence[np.ndarray], vectors: Sequence[List[int]],
                         p: int) -> bool:
    """Check M_i w = omega_i w for every class matrix and candidate vector."""
    W = [np.asarray(w, dtype=np.int64) for w in vectors]
    for Mi in mats:
        for w in W:
            u = (Mi @ w) % p  # |entries| < |G| * p * s < 2^63
            if ((u - int(u[0]) * w) % p).any():  # w[0] = 1, so omega = u[0]
                return False
    return True


def _character_from_vector(G: FiniteGroup, conj: ConjugacyData, wp: WorkingPrime,
                           w: List[int]) -> Tuple[int, Tuple[int, ...]]:
    """Recover (degree, chi values) from w_j = |C_j| chi(g_j) / chi(1)."""
    p = wp.p
    s = conj.class_count
    denom = 0
    for j in range(s):
        denom += w[j] * w[conj.inverse_class(j)] % p * wp.inv(conj.class_sizes[j])
    denom %= p
    if denom == 0:
        raise InternalConsistencyError("degree denominator vanished mod p")
    d2 = recover_integer(G.order * wp.inv(denom) % p, wp)
    d = math.isqrt(max(d2, 0))
    if d2 < 1 or d * d != d2:
        raise InternalConsistencyError(f"recovered squared degree {d2} is not a square")
    values = tuple(d * w[j] % p * wp.inv(conj.class_sizes[j]) % p for j in range(s))
    return d, values


def _sort_characters(raw: List[Tuple[int, Tuple[int, ...]]], wp: WorkingPrime,
                     order: int) -> Tuple[Character, ...]:
    if sum(d * d for d, _ in raw) != order:
        raise InternalConsistencyError(
            f"squared degrees sum to {sum(d * d for d, _ in raw)}, expected {order}")
    trivial = [rv for rv in raw if all(v == 1 for v in rv[1])]
    if len(trivial) != 1:
        raise InternalConsistencyError(
            f"expected exactly one trivial character, found {len(trivial)}")
    rest = [rv for rv in raw if rv is not trivial[0]]
    rest.sort(key=lambda rv: (rv[0], tuple(recover_integer(v, wp) for v in rv[1])))
    ordered = trivial + rest
    return tuple(Character(d, values, i) for i, (d, values) in enumerate(ordered))


# ---------------------------------------------------------------------------
# polynomial arithmetic mod p (coefficient lists, ascending powers)


def _poly_trim(f: List[int]) -> List[int]:
    while len(f) > 1 and f[-1] == 0:
        f.pop()
    return f


def _poly_deg(f: Sequence[int]) -> int:
    return len(f) - 1


def _poly_derivative(f: Sequence[int], p: int) -> List[int]:
    return _poly_trim([i * c % p for i, c in enumerate(f)][1:] or [0])


def _poly_mul(f: Sequence[int], g: Sequence[int], p: int) -> List[int]:
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _poly_trim(out)


def _poly_divmod(f: Sequence[int], g: Sequence[int], p: int) -> Tuple[List[int], List[int]]:
    rem = list(f)
    dg = _poly_deg(g)
    lead_inv = pow(g[-1], p - 2, p)
    quot = [0] * max(len(f) - dg, 1)
    for i in range(len(rem) - 1, dg - 1, -1):
        c = rem[i] * lead_inv % p
        if c:
            quot[i - dg] = c
            for j, b in enumerate(g):
                rem[i - dg + j] = (rem[i - dg + j] - c * b) % p
    return _poly_trim(quot), _poly_trim(rem[:dg] or [0])


def _poly_gcd(f: Sequence[int], g: Sequence[int], p: int) -> List[int]:
    a, b = _poly_trim(list(f)), _poly_trim(list(g))
    while b != [0]:
        a, b = b, _poly_divmod(a, b, p)[1]
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _poly_powmod(base: Sequence[int], exp: int, mod: Sequence[int], p: int) -> List[int]:
    result = [1]
    acc = _poly_divmod(base, mod, p)[1]
    while exp:
        if exp & 1:
            result = _poly_divmod(_poly_mul(result, acc, p), mod, p)[1]
        acc = _poly_divmod(_poly_mul(acc, acc, p), mod, p)[1]
        exp >>= 1
    return result


def _charpoly_mod(M: np.ndarray, p: int) -> List[int]:
    """Characteristic polynomial of M over GF(p), monic, ascending coefficients.

    M is first reduced to upper Hessenberg form by similarity row/column
    operations, then the determinant recurrence for Hessenberg matrices runs
    in exact field arithmetic.
    """
    H = M.copy() % p
    n = H.shape[0]
    for col in range(n - 2):
        piv = next((r for r in range(col + 1, n) if H[r, col]), None)
        if piv is None:
            continue
        if piv != col + 1:
            H[[col + 1, piv]] = H[[piv, col + 1]]
            H[:, [col + 1, piv]] = H[:, [piv, col + 1]]
        inv = pow(int(H[col + 1, col]), p - 2, p)
        for r in range(col + 2, n):
            factor = int(H[r, col]) * inv % p
            if factor:
                H[r] = (H[r] - factor * H[col + 1]) % p
                H[:, col + 1] = (H[:, col + 1] + factor * H[:, r]) % p
    polys: List[List[int]] = [[1]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        cur = [0] + list(prev)  # x * prev
        hkk = int(H[k - 1, k - 1])
        for idx, c in enumerate(prev):
            cur[idx] = (cur[idx] - hkk * c) % p
        prod = 1
        for i in range(k - 1, 0, -1):  # cumulative subdiagonal product
            prod = prod * int(H[i, i - 1]) % p
            if prod == 0:
                break
            coef = int(H[i - 1, k - 1]) * prod % p
            if coef:
                for idx, c in enumerate(polys[i - 1]):
                    cur[idx] = (cur[idx] - coef * c) % p
        polys.append(cur)
    return polys[n]


def _roots_of_split_poly(f: Sequence[int], p: int) -> List[int]:
    """Roots of a squarefree polynomial known to split into linear factors.

    Splits recursively with gcd(f, (x+shift)^((p-1)/2) - 1) over a
    deterministic shift scan; a polynomial that refuses to split signals
    eigenvalues outside the field, which the working-prime choice rules out.
    """
    inv = pow(f[-1], p - 2, p)
    stack = [[c * inv % p for c in f]]
    roots: List[int] = []
    while stack:
        h = stack.pop()
        if _poly_deg(h) == 0:
            continue
        if _poly_deg(h) == 1:
            roots.append(-h[0] % p)
            continue
        for shift in range(MAX_ROOT_SHIFTS):
            a = _poly_powmod([shift, 1], (p - 1) // 2, h, p)
            a = _poly_trim([(a[0] - 1) % p] + list(a[1:]))
            g = _poly_gcd(a, h, p)
            if 0 < _poly_deg(g) < _poly_deg(h):
                stack.append(g)
                stack.append(_poly_divmod(h, g, p)[0])
                break
        else:
            raise InternalConsistencyError(
                f"degree-{_poly_deg(h)} factor did not split over GF({p})")
    return roots


def _rref(A: np.ndarray, p: int) -> Tuple[np.ndarray, List[int]]:
    """Reduced row echelon form mod p with its pivot columns, zero rows dropped.

    Pivots are chosen lexicographically (first nonzero row, leftmost column)
    so the result is deterministic.
    """
    A = A.copy() % p
    rows, cols = A.shape
    pivot_cols: List[int] = []
    row = 0
    for col in range(cols):
        sel = next((r for r in range(row, rows) if A[r, col]), None)
        if sel is None:
            continue
        if sel != row:
            A[[row, sel]] = A[[sel, row]]
        A[row] = A[row] * pow(int(A[row, col]), p - 2, p) % p
        for r in range(rows):
            if r != row and A[r, col]:
                A[r] = (A[r] - int(A[r, col]) * A[row]) % p
        pivot_cols.append(col)
        row += 1
        if row == rows:
            break
    return A[:row], pivot_cols


def _nullspace_basis(A: np.ndarray, p: int) -> List[List[int]]:
    """Kernel basis of a square matrix mod p, one vector per free column."""
    n = A.shape[1]
    R, pivot_cols = _rref(A, p)
    basis = []
    for free in (c for c in range(n) if c not in pivot_cols):
        w = [0] * n
        w[free] = 1
        for r, c in enumerate(pivot_cols):
            w[c] = int(-R[r, free]) % p
        basis.append(w)
    return basis
