"""Independent oracles shared by the test suite.

Everything here deliberately avoids the package's own linear algebra:
determinants are cofactor expansions, systems are solved by divide-and-pivot
Gauss-Jordan over Fraction, ranks come from that elimination, the graded
quotient used to cross-check straightening/projection is rebuilt from raw
monomial indicator vectors, and matrices of rational functions are
multiplied and compared as unreduced (numerator, denominator) pairs with
ring operations only (no gcd, no exact division), and sparse polynomials are
dictionaries from exponent tuples to ``Fraction`` coefficients, ordered by
comparing (total degree, exponents) as tuples, without the package's
monomial keys.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from gmarr.arrangement import Realization, RealizationError, compute_type
from gmarr.exact import RatFunc


def cofactor_det(m):
    n = len(m)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m[0][0]
    total = Fraction(0)
    for j in range(n):
        if m[0][j]:
            minor = [row[:j] + row[j + 1 :] for row in m[1:]]
            term = m[0][j] * cofactor_det(minor)
            total += term if j % 2 == 0 else -term
    return total


def proportional(r1, r2) -> bool:
    """Whether two rows are proportional: every 2×2 minor of the pair
    vanishes (over Q, or over Q(t) for rows of ``PathPoly`` entries)."""
    return all(a * d == b * c for (a, b), (c, d) in itertools.combinations(zip(r1, r2), 2))


def first_proportional_pair(rows):
    """The first 1-based pair (i, j) of proportional rows in a pairwise scan,
    or None."""
    return next(((i, j) for i, j in itertools.combinations(range(1, len(rows) + 1), 2)
                 if proportional(rows[i - 1], rows[j - 1])), None)


def dense_matmul(A, B, zero):
    """A·B with every product formed: each entry is ``zero`` plus the
    products of its row and column, in inner order."""
    return [[sum((a * b for a, b in zip(row, col)), zero) for col in zip(*B)] for row in A]


def rref(matrix):
    """Gauss-Jordan over Fraction; returns (reduced rows, pivot columns).

    ``int`` entries are lifted to ``Fraction`` first, so an integer matrix is
    not divided in floats."""
    M = [[Fraction(x) if isinstance(x, int) else x for x in row] for row in matrix]
    rows = len(M)
    cols = len(M[0]) if M else 0
    pivots = []
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = M[r][c]
        M[r] = [x / inv for x in M[r]]
        for i in range(rows):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return M, pivots


def rref_rank(matrix):
    return len(rref(matrix)[1]) if matrix else 0


def rref_solve(A_columns, b):
    """One solution x of (columns)·x = b over Fraction, or None.

    A_columns is a list of column vectors; free variables are set to zero.
    """
    cols = len(A_columns)
    rows = len(b)
    aug = [[A_columns[j][i] for j in range(cols)] + [b[i]] for i in range(rows)]
    M, pivots = rref(aug)
    for row in M:
        if not any(row[:-1]) and row[-1]:
            return None
    x = [Fraction(0)] * cols
    for i, c in enumerate(pivots):
        if c == cols:
            return None
        x[c] = M[i][-1]
    return x


def perm_sign(word):
    """Sign of the permutation sorting a repeat-free word, 0 on repeats."""
    if len(set(word)) != len(word):
        return 0
    sign = 1
    for i in range(len(word)):
        for j in range(i + 1, len(word)):
            if word[i] > word[j]:
                sign = -sign
    return sign


# ---------------------------------------------------------------------------
# rational-function matrices as unreduced (numerator, denominator) pairs
# ---------------------------------------------------------------------------


def pair_matrix(entries):
    """Entries as (numerator, denominator) pairs: a ``RatFunc`` gives its two
    polynomials, any other scalar (int, Fraction, MultiPoly) is over 1."""
    return [[(x.num, x.den) if isinstance(x, RatFunc) else (x, 1) for x in row] for row in entries]


def pair_add(x, y):
    """a/b + c/d = (ad + bc)/(bd), not reduced."""
    (a, b), (c, d) = x, y
    return a * d + c * b, b * d


def pair_mul(A, B):
    """A·B over (num, den) pairs, a/b·c/e = ac/(be); zero products are
    skipped and nothing is reduced."""
    out = []
    for row in A:
        out_row = []
        for col in zip(*B):
            acc = (0, 1)
            for (a, b), (c, e) in zip(row, col):
                if a and c:
                    acc = pair_add(acc, (a * c, b * e))
            out_row.append(acc)
        out.append(out_row)
    return out


def pair_eq(x, y) -> bool:
    """a/b = c/d exactly when a·d = b·c."""
    (a, b), (c, d) = x, y
    return a * d == b * c


def pair_matrices_eq(A, B) -> bool:
    return len(A) == len(B) and all(
        len(ra) == len(rb) and all(pair_eq(x, y) for x, y in zip(ra, rb))
        for ra, rb in zip(A, B)
    )


# ---------------------------------------------------------------------------
# sparse polynomials as exponent-tuple dictionaries
# ---------------------------------------------------------------------------


def grlex(e):
    """Graded-lex sort key of an exponent tuple: total degree first, then the
    exponents themselves, so higher powers of earlier variables come first."""
    return (sum(e), tuple(e))


def tuple_poly_add(a, b, sign=1):
    """a + sign·b over exponent-tuple dictionaries, zero terms dropped."""
    out = {e: Fraction(c) for e, c in a.items()}
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * Fraction(c)
    return {e: c for e, c in out.items() if c}


def tuple_poly_mul(a, b):
    """a·b over exponent-tuple dictionaries, every pair of terms multiplied."""
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + Fraction(ca) * Fraction(cb)
    return {e: c for e, c in out.items() if c}


# ---------------------------------------------------------------------------
# matroid data recomputed from the rows alone
# ---------------------------------------------------------------------------


def closure_vectors(r: Realization) -> dict[int, list[Fraction]]:
    return {i: list(r.row(i)) for i in range(1, r.n + 2)}


def brute_rank(vectors, S) -> int:
    return rref_rank([vectors[i] for i in S])


def brute_circuits(vectors, ground) -> list[tuple[int, ...]]:
    """Minimal linearly dependent subsets, smallest first, by brute force."""
    circuits: list[tuple[int, ...]] = []
    ground = list(ground)
    for size in range(1, len(ground) + 1):
        for S in itertools.combinations(ground, size):
            if any(set(c) <= set(S) for c in circuits):
                continue
            if brute_rank(vectors, S) < len(S):
                circuits.append(S)
    return circuits


def brute_affinely_dependent(vectors, S, n) -> bool:
    return brute_rank(vectors, tuple(S) + (n + 1,)) < len(S) + 1


def brute_central_circuits(vectors, n) -> list[tuple[int, ...]]:
    """Minimal linearly dependent C ⊆ [n] whose hyperplanes still meet
    (adding the infinity vector raises the rank)."""
    found: list[set] = []
    out = []
    for size in range(1, n + 1):
        for C in itertools.combinations(range(1, n + 1), size):
            if any(f <= set(C) for f in found):
                continue
            rank = brute_rank(vectors, C)
            if rank < size and brute_rank(vectors, C + (n + 1,)) == rank + 1:
                found.append(set(C))
                out.append(C)
    return out


def brute_flats(vectors, ell) -> dict[tuple[int, ...], tuple[int, bool]]:
    """Each rank-1..ℓ flat of the closure mapped to (rank, dense), from ranks
    alone.  The closure of S is every x with r(S ∪ {x}) = r(S); a flat X of
    rank r is dense when no nonempty proper A ⊂ X has r(A) + r(X ∖ A) = r
    (X has no separator), which does not go through circuits."""
    ground = sorted(vectors)
    flats: dict[tuple[int, ...], int] = {}
    for size in range(1, ell + 1):
        for S in itertools.combinations(ground, size):
            r = brute_rank(vectors, S)
            X = tuple(x for x in ground if brute_rank(vectors, S + (x,)) == r)
            flats.setdefault(X, r)
    out = {}
    for X, r in flats.items():
        first, rest = X[0], X[1:]  # A holds X[0]; X ∖ A is then nonempty
        out[X] = r, not any(
            brute_rank(vectors, (first,) + A)
            + brute_rank(vectors, tuple(x for x in rest if x not in A))
            == r
            for k in range(len(rest))
            for A in itertools.combinations(rest, k)
        )
    return out


def brute_nbc(r: Realization, q: int) -> list[tuple[int, ...]]:
    """Degree-q standard monomials: affinely independent q-subsets of [n]
    containing no broken circuit (circuit minus its least element)."""
    vectors = closure_vectors(r)
    n = r.n
    broken = [set(C[1:]) for C in brute_central_circuits(vectors, n)]
    out = []
    for S in itertools.combinations(range(1, n + 1), q):
        if brute_affinely_dependent(vectors, S, n):
            continue
        if any(b <= set(S) for b in broken):
            continue
        out.append(S)
    return out


# ---------------------------------------------------------------------------
# graded-quotient oracle: relations as raw indicator vectors
# ---------------------------------------------------------------------------


class QuotientOracle:
    """Degree-q piece of the algebra as (free span of q-subsets) / relations.

    Relations: the indicator of every affinely dependent q-subset, plus every
    shuffle product of a boundary of a minimal linearly dependent subset with
    a disjoint monomial.
    """

    def __init__(self, r: Realization, q: int):
        self.r = r
        self.q = q
        self.n = r.n
        self.subsets = list(itertools.combinations(range(1, r.n + 1), q))
        self.index = {S: k for k, S in enumerate(self.subsets)}
        vectors = closure_vectors(r)
        self.relations: list[list[Fraction]] = []
        for W in self.subsets:
            if brute_affinely_dependent(vectors, W, r.n):
                vec = [Fraction(0)] * len(self.subsets)
                vec[self.index[W]] = Fraction(1)
                self.relations.append(vec)
        for C in brute_circuits(vectors, range(1, r.n + 1)):
            if len(C) > q + 1:
                continue
            rest = [x for x in range(1, r.n + 1) if x not in C]
            for T in itertools.combinations(rest, q + 1 - len(C)):
                vec = [Fraction(0)] * len(self.subsets)
                for k in range(len(C)):
                    word = T + C[:k] + C[k + 1 :]
                    sign = perm_sign(word)
                    if sign:
                        vec[self.index[tuple(sorted(word))]] += Fraction((-1) ** k * sign)
                if any(vec):
                    self.relations.append(vec)

    def monomial(self, S) -> list[Fraction]:
        vec = [Fraction(0)] * len(self.subsets)
        vec[self.index[tuple(S)]] = Fraction(1)
        return vec

    def coordinates(self, vec, basis_columns, basis_labels):
        """Unique coordinates of vec on basis_columns modulo the relations.

        Asserts that the basis really is independent modulo the relations.
        """
        rel_rank = rref_rank(self.relations)
        joint = self.relations + [list(c) for c in basis_columns]
        assert rref_rank(joint) == rel_rank + len(basis_columns), (
            "oracle basis is dependent modulo the relations"
        )
        columns = [list(v) for v in self.relations] + [list(c) for c in basis_columns]
        x = rref_solve(columns, list(vec))
        if x is None:
            return None
        offset = len(self.relations)
        return {
            basis_labels[k]: x[offset + k]
            for k in range(len(basis_labels))
            if x[offset + k]
        }


def straighten_oracle(r: Realization, S):
    """Standard-monomial coordinates of the degree-|S| monomial on S, or {}."""
    q = len(S)
    oracle = QuotientOracle(r, q)
    nbc = brute_nbc(r, q)
    cols = [oracle.monomial(B) for B in nbc]
    coords = oracle.coordinates(oracle.monomial(tuple(sorted(S))), cols, nbc)
    assert coords is not None, "monomial not straightenable: relations incomplete"
    return coords


def projection_oracle(r: Realization, weight_values):
    """Rows of the projection matrix at concrete weights, via raw elimination.

    For each degree-ell standard monomial I of the free type, expresses its
    class as  sum_B c_B * (prod of weights over B) * e_B  +  (weight one-form
    wedge u)  + relations, with B over the frames of r's type; returns the
    c_B rows keyed by I, in the same orderings the package uses.
    """
    from gmarr.arrangement import betanbc_frames, general_position_type

    T = compute_type(r)
    n, ell = r.n, r.ell
    weights = list(weight_values)
    w_inf = -sum(weights, Fraction(0))

    oracle = QuotientOracle(r, ell)
    lower = list(itertools.combinations(range(1, n + 1), ell - 1))

    def wedge_weight_form(U):
        vec = [Fraction(0)] * len(oracle.subsets)
        for j in range(1, n + 1):
            if j in U:
                continue
            word = (j,) + tuple(U)
            sign = perm_sign(word)
            vec[oracle.index[tuple(sorted(word))]] += weights[j - 1] * sign
        return vec

    d_cols = [wedge_weight_form(U) for U in lower]
    frames = betanbc_frames(T)
    frame_cols = []
    for B in frames:
        scale = Fraction(1)
        for b in B:
            scale *= weights[b - 1]
        col = [x * scale for x in oracle.monomial(B)]
        frame_cols.append(col)

    rel_cols = [list(v) for v in oracle.relations]
    columns = rel_cols + d_cols + frame_cols
    assert rref_rank(columns) == rref_rank(rel_cols + d_cols) + len(frame_cols), (
        "scaled frame classes are dependent modulo coboundaries"
    )
    offset = len(rel_cols) + len(d_cols)

    rows = {}
    for I in betanbc_frames(general_position_type(n, ell)):
        scale = Fraction(1)
        for i in I:
            scale *= weights[i - 1]
        rhs = [x * scale for x in oracle.monomial(I)]
        x = rref_solve(columns, rhs)
        assert x is not None, f"no decomposition for {I}"
        rows[I] = [x[offset + k] for k in range(len(frames))]
    return frames, rows


# ---------------------------------------------------------------------------
# point counts over small prime fields: independent Betti numbers
# ---------------------------------------------------------------------------


_PRIME_POOL = (
    101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173,
    179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233, 239, 241, 251,
)


def good_primes(r: Realization, count: int, pool=_PRIME_POOL) -> list[int]:
    """Primes that preserve every rank pattern of the closure rows mod p:
    no entry denominator and no nonzero square-minor numerator divisible."""
    vectors = [list(r.row(i)) for i in range(1, r.n + 2)]
    numerators = set()
    denominators = set()
    for row in vectors:
        for x in row:
            denominators.add(Fraction(x).denominator)
    for k in range(1, r.ell + 2):
        for rows in itertools.combinations(vectors, k):
            for cols in itertools.combinations(range(r.ell + 1), k):
                d = cofactor_det([[row[c] for c in cols] for row in rows])
                if d:
                    numerators.add(abs(d.numerator))
                    denominators.add(d.denominator)
    out = []
    for p in pool:
        if all(v % p for v in numerators) and all(v % p for v in denominators):
            out.append(p)
            if len(out) == count:
                return out
    raise ValueError("prime pool exhausted")


def _affine_system_rank_mod_p(rows_mod, S, p: int, ell: int):
    """Rank of the linear parts for rows S over F_p, or None if the affine
    system {row_i · (1, x) = 0 : i in S} has no solution."""
    M = [
        [rows_mod[i - 1][k + 1] for k in range(ell)] + [(-rows_mod[i - 1][0]) % p]
        for i in S
    ]
    r = 0
    for c in range(ell):
        piv = next((i for i in range(r, len(M)) if M[i][c]), None)
        if piv is None:
            continue
        M[r], M[piv] = M[piv], M[r]
        inv = pow(M[r][c], -1, p)
        M[r] = [(x * inv) % p for x in M[r]]
        for i in range(len(M)):
            if i != r and M[i][c]:
                f = M[i][c]
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[r])]
        r += 1
    for i in range(r, len(M)):
        if M[i][ell]:
            return None
    return r


def count_complement_points(r: Realization, p: int) -> int:
    """|F_p^ell minus the union of the hyperplanes|, by inclusion-exclusion
    over subsets of hyperplanes (each intersection is p^(ell - rank) points)."""
    rows_mod = []
    for i in range(1, r.n + 1):
        row = []
        for x in r.row(i):
            f = Fraction(x)
            if f.denominator % p == 0:
                raise ValueError("prime divides a denominator")
            row.append(f.numerator * pow(f.denominator, -1, p) % p)
        rows_mod.append(row)
    count = 0
    for size in range(r.n + 1):
        for S in itertools.combinations(range(1, r.n + 1), size):
            rank = _affine_system_rank_mod_p(rows_mod, S, p, r.ell)
            if rank is None:
                continue
            count += (-1) ** size * p ** (r.ell - rank)
    return count


def betti_oracle(r: Realization, primes) -> tuple[list[int], int]:
    """Betti numbers of the complement from point counts at len(primes) =
    ell + 1 primes: the count is a polynomial in p whose coefficients are the
    signed Betti numbers."""
    ell = r.ell
    primes = list(primes)
    assert len(primes) == ell + 1
    counts = [Fraction(count_complement_points(r, p)) for p in primes]
    # count(p) = sum_q w_q p^(ell-q), betti_q = |w_q|
    columns = [
        [Fraction(p) ** (ell - q) for p in primes] for q in range(ell + 1)
    ]
    w = rref_solve(columns, counts)
    assert w is not None
    betti = [abs(x) for x in w]
    assert all(x.denominator == 1 and abs(x) == (-1) ** q * x for q, x in enumerate(w)), (
        f"point counts do not fit an alternating integer polynomial: {w}"
    )
    chi = sum(w)
    return [int(b) for b in betti], int(chi)


# ---------------------------------------------------------------------------
# random inputs
# ---------------------------------------------------------------------------


def random_realization(rng: random.Random, n: int, ell: int, forced: int = 0) -> Realization:
    """Rejection-sample a full-rank realization with small rational entries.

    The last ``forced`` rows are each a combination of two earlier rows, or of
    one earlier row and the row at infinity (a hyperplane parallel to it), so
    they force circuits, dense edges and non-affine circuits."""
    while True:
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(ell + 1)]
            for _ in range(n - forced)
        ]
        infinity = [Fraction(1)] + [Fraction(0)] * ell
        for _ in range(forced):
            a, b = rng.sample(rows + [infinity], 2)
            c, d = (rng.choice((-3, -2, -1, 1, 2, 3)) for _ in range(2))
            rows.append([c * x + d * y for x, y in zip(a, b)])
        try:
            r = Realization(rows)
        except RealizationError:
            continue
        if rref_rank([list(row[1:]) for row in rows]) < ell:
            continue
        try:
            compute_type(r)
        except ValueError:
            continue
        return r


def ladder_path(rng: random.Random, n: int, ell: int, k: int):
    """A ladder path with witness t = 1: k hyperplanes u_ell = c*t
    (c = 0, 2, 3, ...) that meet at t = 0, and n - k fixed ones with entries
    in ±[1, 9].  Gives up after 1000 draws, so a broken typing fails
    instead of looping."""
    from gmarr.exact import PathPoly
    from gmarr.gauss_manin import DegenerationPath, PathError

    for _ in range(1000):
        positions = set(rng.sample(range(n), k))
        cs = iter([0] + list(range(2, k + 1)))
        rows = []
        for i in range(n):
            if i in positions:
                row = [PathPoly([0, -next(cs)])] + [PathPoly()] * (ell - 1) + [PathPoly([1])]
            else:
                row = [PathPoly([rng.choice((-1, 1)) * rng.randint(1, 9)]) for _ in range(ell + 1)]
            rows.append(row)
        try:
            return DegenerationPath(Realization(rows), 1)
        except (PathError, RealizationError):
            continue
    raise AssertionError(f"no ladder path with n={n}, ell={ell}, k={k} in 1000 draws")


def pencil_path(rng: random.Random, n: int, ell: int) -> Realization:
    """A path realization in which one row moves into the pencil of two
    others: rows with entries in {-2, ..., 2}, and a random row k is
    r_k(t) = (a·r_i + b·r_j) + t·(r_k − a·r_i − b·r_j) for small nonzero a
    and b.  The other rows stay where they are.  The path need not be a
    degeneration."""
    from gmarr.exact import PathPoly

    while True:
        rows = [[rng.randint(-2, 2) for _ in range(ell + 1)] for _ in range(n)]
        k, i, j = rng.sample(range(n), 3)
        a, b = (rng.choice((-2, -1, 1, 2)) for _ in range(2))
        into = [a * x + b * y for x, y in zip(rows[i], rows[j])]
        path = [[PathPoly([x]) for x in row] for row in rows]
        path[k] = [PathPoly([p, x - p]) for p, x in zip(into, rows[k])]
        try:
            return Realization(path)
        except RealizationError:
            continue


def random_nonresonant_weights(rng: random.Random, T) -> list[Fraction]:
    """Concrete weights with every dense-edge sum outside 0, 1, 2, ..."""
    from gmarr.arrangement import Weights, stv_check

    while True:
        vals = [Fraction(rng.randint(-12, 12), rng.choice([5, 7, 11, 13])) for _ in range(T.n)]
        if any(v == 0 for v in vals):
            continue
        if stv_check(T, Weights.concrete(vals)).ok:
            return vals
