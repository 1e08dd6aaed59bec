"""The sparse and single-term routes against dense, independent oracles.

``linalg.mat_mul`` forms only the nonzero products, ``fraction_free_echelon``
visits only the columns where an update product is nonzero,
``arrangement._det_small`` expands along its sparsest row,
``combined_omega`` adds each block's entries straight into one table of
rows, ``solve_connection`` reads a concrete Ω off over ints, and
``MultiPoly`` multiplies two single terms, subtracts and divides by a
monomial without its general loops.  Each oracle here is written out in
full: a dense triple loop for the product, the dense Bareiss loop for the
elimination, the row-0 cofactor expansion of ``_helpers`` for the
determinant, the dense product of ``_helpers`` over whole blocks for the
weighted sum, a Gauss–Jordan solve of P·Ω = B·P over ``Fraction`` for the
connection, and term-by-term dictionaries for the polynomial routes.  The
checks compare values and the ``type`` of every entry and coefficient, so a
fast route that returns an equal value of another type fails too.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    cofactor_det,
    dense_matmul,
    ladder_path,
    random_nonresonant_weights,
    rref,
)

from gmarr import (
    CombinatorialType,
    ConnectionMatrix,
    Realization,
    Weights,
    arrangement,
    combined_omega,
    general_position_type,
    multiplicities,
    omega_general,
    projection_matrix,
    solve_connection,
)
from gmarr.exact import MultiPoly, PathPoly, poly_exact_div
from gmarr.linalg import fraction_free_echelon, mat_mul

NVARS = 2


def dense_mat_mul(A, B):
    """Every cell visited: the sum of the nonzero products in inner order,
    and ``A[i][0] * B[0][j]`` where there is none."""
    out = []
    for row in A:
        out_row = []
        for j in range(len(B[0])):
            acc = None
            for s in range(len(B)):
                if row[s] and B[s][j]:
                    acc = row[s] * B[s][j] if acc is None else acc + row[s] * B[s][j]
            out_row.append(row[0] * B[0][j] if acc is None else acc)
        out.append(out_row)
    return out


def dense_bareiss(matrix, ncols):
    """The Bareiss loop over every cell right of the pivot column."""
    m = [list(row) for row in matrix]
    nr, width = len(m), len(m[0])
    prev, pr = None, 0
    for c in range(ncols):
        piv = next((i for i in range(pr, nr) if m[i][c]), None)
        if piv is None:
            continue
        m[pr], m[piv] = m[piv], m[pr]
        p = m[pr][c]
        for i in range(pr + 1, nr):
            f = m[i][c]
            for j in range(c + 1, width):
                a, b = m[i][j], m[pr][j]
                if f and b:
                    e = p * a - f * b if a else -(f * b)
                elif a:
                    e = p * a
                else:
                    continue
                m[i][j] = e if prev is None else _divide(e, prev)
            m[i][c] = p - p
        prev, pr = p, pr + 1
        if pr == nr:
            break
    return m


def _divide(e, d):
    if isinstance(e, int):
        assert e % d == 0
        return e // d
    if isinstance(e, MultiPoly):
        return poly_exact_div(e, d)
    return e / d


def _same(X, Y):
    """Equal entries of the same types, cell by cell."""
    assert len(X) == len(Y)
    for rx, ry in zip(X, Y):
        assert [(type(x), x) for x in rx] == [(type(y), y) for y in ry]


def _stored_form(p: MultiPoly):
    """Every coefficient nonzero, and an ``int`` exactly when integral."""
    for c in p.terms.values():
        assert c
        assert (type(c) is int) == (Fraction(c).denominator == 1), p.terms


# ---------------------------------------------------------------------------
# entries: int, Fraction and MultiPoly, multi-term, with zeros of every type
# ---------------------------------------------------------------------------

_coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def polys(draw, max_terms=3):
    exps = st.tuples(*[st.integers(0, 2)] * NVARS)
    terms = draw(st.dictionaries(exps, _coeffs, max_size=max_terms))
    return MultiPoly(NVARS, terms)


def _zeros(kind):
    if kind == "multipoly":
        return st.sampled_from([0, Fraction(0), MultiPoly.zero(NVARS)])
    return st.sampled_from([0, Fraction(0)])


def _nonzeros(kind):
    if kind == "int":
        return st.integers(-5, 5).filter(bool)
    if kind == "fraction":
        return _coeffs.filter(bool)
    return polys().filter(bool)


@st.composite
def matrices(draw, kind, rows, cols):
    M = [[draw(st.one_of(_zeros(kind), _nonzeros(kind))) for _ in range(cols)]
         for _ in range(rows)]
    # a zero row and a zero column, each half the time
    if draw(st.booleans()):
        M[draw(st.integers(0, rows - 1))] = [draw(_zeros(kind)) for _ in range(cols)]
    if draw(st.booleans()):
        j = draw(st.integers(0, cols - 1))
        for row in M:
            row[j] = draw(_zeros(kind))
    return M


@st.composite
def products(draw):
    kind = draw(st.sampled_from(["int", "fraction", "multipoly"]))
    r, k, c = (draw(st.integers(1, 4)) for _ in range(3))
    A = draw(matrices(kind, r, k))
    B = draw(matrices(kind, k, c))
    return A, B


@given(products())
@settings(max_examples=100, deadline=None)
def test_mat_mul_matches_the_dense_triple_loop(AB):
    A, B = AB
    _same(mat_mul(A, B), dense_mat_mul(A, B))


def test_mat_mul_with_an_empty_operand():
    assert mat_mul([], [[1, 2]]) == mat_mul([[1, 2]], []) == []


def test_mat_mul_cancellations_and_typed_zeros():
    l1, l2 = MultiPoly.variable(NVARS, 1), MultiPoly.variable(NVARS, 2)
    p, q = l1 + 2 * l2, l1 * l2 - Fraction(1, 2)
    A = [[p, p, 0], [0, Fraction(0), MultiPoly.zero(NVARS)], [q, 0, l1]]
    B = [[q, Fraction(0), l2], [-q, 0, l2], [l2, MultiPoly.zero(NVARS), 0]]
    got = mat_mul(A, B)
    _same(got, dense_mat_mul(A, B))
    assert got[0][0] == 0 and type(got[0][0]) is MultiPoly  # p·q − p·q cancels
    assert type(got[1][0]) is MultiPoly and type(got[1][1]) is Fraction  # 0·q, 0·0
    assert type(got[0][1]) is MultiPoly  # no nonzero product: p·Fraction(0)


# ---------------------------------------------------------------------------
# Bareiss: rows with a zero and a nonzero entry in the pivot column
# ---------------------------------------------------------------------------


def _check_echelon(M, ncols):
    ech = fraction_free_echelon(M, ncols)
    _same(ech.rows, dense_bareiss(M, ncols))
    # the read-off below the rank is the minor of the pivot rows (Sylvester)
    pcols = [c for _, c in ech.pivots]
    above = [M[i] for i in ech.order[: ech.rank]]
    for r in range(ech.rank, len(M)):
        for j in range(ncols, len(M[0])):
            block = [[x[c] for c in pcols + [j]] for x in above + [M[ech.order[r]]]]
            assert ech.rows[r][j] == cofactor_det(block), (r, j)
    return ech


def test_echelon_pivot_column_zero_in_some_rows():
    # column 0: rows 2 and 4 hold zero, rows 1 and 3 do not; row 2 has
    # entries where the pivot row is zero, row 3 cancels in column 2
    M = [
        [2, 0, 3, 0, 1],
        [4, 1, 0, 0, 5],
        [0, 0, 7, 2, 0],
        [6, 0, 9, 0, 3],
        [0, 5, 0, 0, 0],
        [1, 0, 0, 4, 2],
    ]
    ech = _check_echelon(M, 3)
    assert ech.rank == 3
    l1, l2 = MultiPoly.variable(NVARS, 1), MultiPoly.variable(NVARS, 2)
    z = MultiPoly.zero(NVARS)
    P = [
        [l1, z, l2, z, l1 * l2],
        [l2, l1 + l2, z, z, l1],
        [z, z, l1 * l1 - l2, l2, z],
        [l1 * l2, z, l2 * l2, z, 2 * l1],
        [z, 3 * l1, z, z, z],
        [l2, z, z, l1, l2 - 1],
    ]
    _check_echelon(P, 3)
    F = [[Fraction(x, 3) if x else 0 for x in row] for row in M]
    _check_echelon(F, 3)


@given(st.sampled_from(["int", "fraction", "multipoly"]), st.integers(2, 5),
       st.integers(1, 3), st.integers(1, 3), st.data())
@settings(max_examples=80, deadline=None)
def test_echelon_matches_the_dense_loop(kind, rows, ncols, tail, data):
    M = data.draw(matrices(kind, rows, ncols + tail))
    ech = fraction_free_echelon(M, ncols)
    _same(ech.rows, dense_bareiss(M, ncols))


# ---------------------------------------------------------------------------
# determinants: the sparsest-row expansion against the row-0 cofactor oracle
# ---------------------------------------------------------------------------

# The nonzero values of ``_coeffs``, simplest first.  The matrices below draw
# entries nonzero by construction and zero or not by one boolean
# (``_draw_row``): with filtered entries and ``st.one_of`` cells, shrinking a
# failing 8×8 example took minutes.
_NONZERO_COEFFS = st.sampled_from(sorted(
    {Fraction(p, q) for q in (1, 2, 3) for p in range(-3 * q, 3 * q + 1) if p},
    key=lambda c: (c.denominator, abs(c), c < 0)))

# ring: (zero, one, nonzero entries); a path entry has a nonzero top coefficient
_DET_ENTRIES = {
    int: (0, 1, st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4])),
    Fraction: (Fraction(0), Fraction(1), _NONZERO_COEFFS),
    PathPoly: (PathPoly(), PathPoly.const(1),
               st.builds(lambda low, top: PathPoly(low + [top]),
                         st.lists(_coeffs, max_size=2), _NONZERO_COEFFS)),
}


def _draw_row(draw, ring, n):
    """n entries of ``ring``, each zero or nonzero with even odds; a
    boolean is cheaper to draw than ``st.one_of``, which builds a strategy
    per draw."""
    zero, _, entry = _DET_ENTRIES[ring]
    return [draw(entry) if draw(st.booleans()) else zero for _ in range(n)]


@st.composite
def square_matrices(draw):
    """A matrix over one ring, about half its entries zero, with up to three
    rows overwritten at any index: a zero row, a unit row, or a row zero
    outside a few columns, which is then often the sparsest row."""
    ring = draw(st.sampled_from(list(_DET_ENTRIES)))
    n = draw(st.integers(1, 8))
    zero, one, entry = _DET_ENTRIES[ring]
    M = [_draw_row(draw, ring, n) for _ in range(n)]
    for i in draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True)):
        shape = draw(st.sampled_from(["zero", "unit", "sparse"]))
        if shape == "zero":
            M[i] = [zero] * n
        elif shape == "unit":
            j = draw(st.integers(0, n - 1))
            M[i] = [one if c == j else zero for c in range(n)]
        else:
            keep = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
            M[i] = [draw(entry) if c in keep else zero for c in range(n)]
    return ring, M


def _counted_det(M):
    """``_det_small(M)`` and the number of blocks it expanded, the whole
    matrix included: ``_expand`` recurses through the module global, which
    is wrapped here."""
    expand, calls = arrangement._expand, 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return expand(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arrangement, "_expand", counting)
        value = arrangement._det_small(M)
    return value, calls


def _sparsest_row_calls(M):
    """Blocks expanded by an expansion along the first row with the fewest
    nonzero entries, one per nonzero entry of that row, down to 2×2."""
    n = len(M)
    if n <= 2:
        return 1
    counts = [len([a for a in row if a]) for row in M]
    r = counts.index(min(counts))
    return 1 + sum(
        _sparsest_row_calls([row[:j] + row[j + 1 :] for i, row in enumerate(M) if i != r])
        for j in range(n)
        if M[r][j]
    )


@given(square_matrices())
@settings(max_examples=150, deadline=None)
def test_det_small_matches_the_cofactor_oracle(ring_M):
    ring, M = ring_M
    value, calls = _counted_det(M)
    assert value == cofactor_det(M)
    assert type(value) is ring  # a zero determinant is the zero of the ring
    assert calls == _sparsest_row_calls(M)


def test_det_small_sparsest_row_at_an_odd_index():
    # row 1 is the only sparsest row: expanding along it makes the sign
    # (−1)^(1+j), not (−1)^j
    M = [[2, 3, 5, 7], [0, 0, 4, 0], [1, 8, 6, 9], [3, 2, 2, 5]]
    assert arrangement._det_small(M) == cofactor_det(M) == -4 * cofactor_det(
        [[2, 3, 7], [1, 8, 9], [3, 2, 5]])


def test_det_small_calls_on_closure_minors():
    """A 4×4 minor containing the row at infinity (1, 0, 0, 0) expands along
    it: one 3×3 call and its three 2×2 calls.  A dense minor expands along
    row 0: 1 + 4 + 4·3 calls."""
    r = Realization([[1, 2, -3, 4], [-2, 5, 1, 3], [3, -1, 2, 7], [4, 3, -5, 1]])
    assert _counted_det([list(r.row(i)) for i in (1, 2, 3, 5)])[1] == 5
    assert _counted_det([list(r.row(i)) for i in (1, 2, 3, 4)])[1] == 17


@st.composite
def labelled_pairs(draw):
    """Two matrices over one ring of ``square_matrices`` that agree on their
    labelled rows, and the labels: each row a distinct label drawn at
    random, or None, and each unlabelled row drawn afresh for the second
    matrix."""
    ring, M = draw(square_matrices())
    n = len(M)
    labels = tuple(label if draw(st.booleans()) else None
                   for label in draw(st.permutations(range(1, n + 1))))
    N = [row if label is not None else _draw_row(draw, ring, n) for row, label in zip(M, labels)]
    return ring, labels, M, N


@given(labelled_pairs())
@settings(max_examples=150, deadline=None)
def test_shared_table_matches_the_cofactor_oracle(pair):
    """Two determinants through one table: each equals the cofactor oracle
    and has the type of the ring, and every stored entry is the oracle's
    determinant of the labelled rows and the columns of its key's mask."""
    ring, labels, M, N = pair
    n, table = len(M), {}
    for A in (M, N):
        value = arrangement._det_small(A, (labels, (1 << n) - 1, table))
        assert value == cofactor_det(A)
        assert type(value) is ring
    for (keyed, cols), value in table.items():
        assert None not in keyed
        block = [[M[labels.index(label)][c] for c in range(n) if cols >> c & 1] for label in keyed]
        assert value == cofactor_det(block), (keyed, cols)
        assert type(value) is ring


# ---------------------------------------------------------------------------
# MultiPoly: term times term, direct subtraction, division by a monomial
# ---------------------------------------------------------------------------


def _product_terms(a, b):
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            out[e] = out.get(e, 0) + Fraction(ca) * Fraction(cb)
    return {e: c for e, c in out.items() if c}


@st.composite
def monomials(draw):
    e = tuple(draw(st.integers(0, 2)) for _ in range(NVARS))
    return MultiPoly(NVARS, {e: draw(_coeffs.filter(bool))})


@given(monomials(), monomials())
@settings(max_examples=100, deadline=None)
def test_single_term_product(a, b):
    p = a * b
    assert type(p) is MultiPoly
    assert p.terms == _product_terms(a, b)
    _stored_form(p)


def test_single_term_product_stores_integral_coefficients_as_int():
    l1 = MultiPoly.variable(NVARS, 1)
    p = (Fraction(3, 2) * l1) * (Fraction(2, 3) * l1)
    assert p.terms == {(2, 0): 1} and type(p.terms[(2, 0)]) is int
    q = (Fraction(1, 2) * l1) * (4 * l1)
    assert type(q.terms[(2, 0)]) is int and q.terms[(2, 0)] == 2


@given(polys(), polys())
@settings(max_examples=100, deadline=None)
def test_subtraction(a, b):
    d = a - b
    expected = {e: Fraction(a.terms.get(e, 0)) - Fraction(b.terms.get(e, 0))
                for e in set(a.terms) | set(b.terms)}
    assert d.terms == {e: c for e, c in expected.items() if c}
    _stored_form(d)
    zero = a - a
    assert zero.terms == {} and not zero and type(zero) is MultiPoly
    assert 1 - a == MultiPoly.const(NVARS, 1) - a


def test_subtraction_cancels_to_int_coefficients():
    l1 = MultiPoly.variable(NVARS, 1)
    d = Fraction(5, 2) * l1 - Fraction(1, 2) * l1
    assert d.terms == {(1, 0): 2} and type(d.terms[(1, 0)]) is int


@given(monomials(), polys())
@settings(max_examples=100, deadline=None)
def test_division_by_a_monomial(m, q):
    ((em, cm),) = m.terms.items()
    p = m * q
    got = poly_exact_div(p, m)
    expected = {tuple(x - y for x, y in zip(e, em)): Fraction(c) / Fraction(cm)
                for e, c in p.terms.items()}
    assert got.terms == expected
    _stored_form(got)


@given(st.one_of(polys(), st.lists(_coeffs, max_size=4).map(PathPoly)),
       st.sampled_from([1, -1, 3, Fraction(-2, 3), Fraction(5, 7)]))
@settings(max_examples=100, deadline=None)
def test_division_by_a_constant(p, c):
    """A constant divisor is the monomial of exponent zero: the quotient is
    p times 1/c, of p's class, with integral coefficients stored as int."""
    const = PathPoly.const(c) if type(p) is PathPoly else MultiPoly.const(NVARS, c)
    got = poly_exact_div(p, const)
    assert type(got) is type(p)
    assert got == p * (1 / Fraction(c))
    assert got.terms == {e: Fraction(x) / c for e, x in p.terms.items()}
    _stored_form(got)


@pytest.mark.parametrize("num, den", [
    ({(1, 1): 1}, {(2, 0): 1}),       # l1^2 does not divide l1*l2
    ({(1, 0): 1, (0, 1): 3}, {(0, 1): 2}),  # 2*l2 misses the l1 term
    ({(0, 0): 4}, {(1, 0): 1}),       # a constant over l1
])
def test_division_by_a_non_dividing_monomial_raises(num, den):
    with pytest.raises(ValueError, match="does not divide"):
        poly_exact_div(MultiPoly(NVARS, num), MultiPoly(NVARS, den))


def test_random_sparse_products_match_the_dense_loop():
    """Larger, sparser matrices of single-term entries, as on the ladder."""
    rng = random.Random(11)
    l1, l2 = MultiPoly.variable(NVARS, 1), MultiPoly.variable(NVARS, 2)
    z = MultiPoly.zero(NVARS)

    def entry():
        if rng.random() < 0.8:
            return z
        return rng.choice((-3, -1, 1, 2)) * l1 ** rng.randint(0, 2) * l2 ** rng.randint(0, 2)

    for _ in range(5):
        A = [[entry() for _ in range(12)] for _ in range(9)]
        B = [[entry() for _ in range(7)] for _ in range(12)]
        _same(mat_mul(A, B), dense_mat_mul(A, B))
        _check_echelon([row + brow[:3] for row, brow in zip(A, B)], 8)


# ---------------------------------------------------------------------------
# the combined block: Σ m_J·Ω_J summed straight into one table of rows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, ell", [(5, 1), (6, 2), (6, 3)])
def test_combined_omega_is_the_dense_weighted_sum(n, ell):
    """``combined_omega`` against the row of multiplicities times the
    flattened dense blocks ``omega_general(J).entries``, one row per J.
    Concrete weights −1, 0, 1, …, n−2 make some block entries zero (λ₂ = 0
    and λ₁ + λ₂ + λ₃ = 0), and some sums of overlapping blocks cancel."""
    rng = random.Random(100 * n + ell)
    T = general_position_type(n, ell)
    subsets = list(itertools.combinations(range(1, n + 2), ell + 1))
    for w in (Weights.generic(n), Weights.concrete(range(-1, n - 1))):
        for _ in range(4):
            Js = sorted(rng.sample(subsets, rng.randint(1, 4)))
            mult = {J: rng.randint(1, 3) for J in Js}
            got = combined_omega(T, CombinatorialType(n, ell, Js), mult, n, ell, w).entries
            blocks = [[x for row in omega_general(J, n, ell, w).entries for x in row] for J in Js]
            flat = dense_matmul([[mult[J] for J in Js]], blocks, w.zero_scalar())[0]
            size = len(got)
            _same(got, [flat[i * size:(i + 1) * size] for i in range(size)])


# ---------------------------------------------------------------------------
# the concrete connection: Ω read off over ints, as W/(d·s)
# ---------------------------------------------------------------------------


def _dense_connection(P, B):
    """Ω from P·Ω = B·P by Gauss–Jordan over ``Fraction``, with P = N/d and
    B·P formed densely; the system must be consistent with a unique
    solution."""
    Pf = [[Fraction(x) / P.denominator for x in row] for row in P.numerators]
    BP = dense_matmul(B.entries, Pf, Fraction(0))
    c = len(P.col_basis)
    R, pivots = rref([p + bp for p, bp in zip(Pf, BP)])
    assert pivots == list(range(c))
    assert not any(x for row in R[c:] for x in row)
    return [row[c:] for row in R[:c]]


@pytest.mark.parametrize("seed", range(3))
def test_concrete_connection_matches_a_dense_fraction_solve(seed):
    """(7, 3, 2) ladder paths with weights whose denominators are the primes
    5, 7, 11, 13, so B has non-integral entries (s > 1), and the same B
    times s as Python ``int`` entries (s = 1), whose Ω is s times the
    first."""
    rng = random.Random(seed)
    p = ladder_path(rng, 7, 3, 2)
    w = Weights.concrete(random_nonresonant_weights(rng, p.T))
    B = combined_omega(p.T, p.Tprime, multiplicities(p), 7, 3, w)
    P = projection_matrix(p.T, w)
    s = math.lcm(*(x.denominator for row in B.entries for x in row))
    assert s > 1
    B_int = ConnectionMatrix(B.basis, tuple(tuple(int(x * s) for x in row) for row in B.entries))
    omegas = []
    for M in (B, B_int):
        got = solve_connection(P, M)
        assert got.basis == P.col_basis
        _same(got.entries, _dense_connection(P, M))
        omegas.append(got.entries)
    assert omegas[1] == tuple(tuple(s * x for x in row) for row in omegas[0])
