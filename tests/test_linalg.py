"""fraction_free_echelon and the Sylvester read-off, against the Gauss-Jordan
oracles and cofactor minors.

``orlik_solomon.projection_matrix`` runs no back-substitution: it eliminates
on the leading columns only and reads each row left below the pivots by
Sylvester's identity.  For every output row r at or below the rank and
every column j beyond the pivoting ones, ``rows[r][j]`` is the minor of the
input rows ``order[0..rank-1]`` and ``order[r]`` on the pivot columns plus
j.  Every check here goes through that read-off, over ``int``, ``Fraction``
and ``MultiPoly`` entries; ``Fraction`` systems are also eliminated over
their integer rows, as the projection does, where each read-off entry gains
the row scales of its minor.  A linear system A·X = B is solved the same
way: below [A | B] sit the rows (−e_c | 0), whose read-offs are d·X[c].
"""

import math
import random
from fractions import Fraction

import pytest
from _helpers import cofactor_det, rref_rank, rref_solve

from gmarr.exact import MultiPoly, evaluate
from gmarr.linalg import _exact_div, _integer_row, fraction_free_echelon

PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173)


def _random_entry(rng, density):
    if rng.random() >= density:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice(PRIMES) * rng.choice((1, rng.choice(PRIMES))))


def _random_matrix(rng, rows, cols, density=0.7):
    return [[_random_entry(rng, density) for _ in range(cols)] for _ in range(rows)]


def _product(A, X):
    return [
        [sum((a * X[s][j] for s, a in enumerate(row)), 0 * X[0][j]) for j in range(len(X[0]))]
        for row in A
    ]


def _rank_deficient(rng, rows, cols, rank):
    """rows×cols product of random rows×rank and rank×cols factors."""
    return _product(
        _random_matrix(rng, rows, rank, density=1.0),
        _random_matrix(rng, rank, cols, density=1.0),
    )


def _column(M, j):
    return [row[j] for row in M]


def _read_off(M, ncols):
    """Eliminate M on its first ``ncols`` columns and check the read-off:
    ``order`` is a permutation, the last pivot is the minor of the pivot rows
    on the pivot columns, and every row below the rank is zero on the
    pivoting columns and holds the Sylvester minors beyond them."""
    ech = fraction_free_echelon(M, ncols)
    assert sorted(ech.order) == list(range(len(M)))
    pcols = [c for _, c in ech.pivots]
    above = [M[i] for i in ech.order[: ech.rank]]
    if pcols:
        assert ech.rows[ech.rank - 1][pcols[-1]] == cofactor_det([[x[c] for c in pcols] for x in above])
    for r in range(ech.rank, len(M)):
        row = ech.rows[r]
        assert not any(row[:ncols])
        for j in range(ncols, len(row)):
            block = [[x[c] for c in pcols + [j]] for x in above + [M[ech.order[r]]]]
            assert row[j] == cofactor_det(block), (r, j)
    return ech


def _read_off_integer_rows(M, ncols):
    """The read-off of a Fraction matrix over its integer rows: the same
    pivots and order, ``int`` entries, and each entry below the rank the
    Fraction one times the row scales of its minor."""
    ech = _read_off(M, ncols)
    scales, ints = zip(*(_integer_row(row) for row in M))
    ech_int = _read_off(list(ints), ncols)
    assert (ech_int.pivots, ech_int.order) == (ech.pivots, ech.order)
    pivot_scale = math.prod(scales[i] for i in ech.order[: ech.rank])
    for r in range(ech.rank, len(M)):
        scale = pivot_scale * scales[ech.order[r]]
        for j in range(ncols, len(M[r])):
            assert type(ech_int.rows[r][j]) is int
            assert ech_int.rows[r][j] == scale * ech.rows[r][j]
    return ech


def _check_system(A, B):
    """[A | B] read off on A's columns: the rank is the oracle's, and the rows
    below the rank are zero beyond A exactly when the oracle solves every
    column of B."""
    k = len(A[0])
    ech = _read_off_integer_rows([list(a) + list(b) for a, b in zip(A, B)], k)
    assert ech.rank == rref_rank(A)
    A_columns = [_column(A, c) for c in range(k)]
    consistent = all(rref_solve(A_columns, _column(B, j)) is not None for j in range(len(B[0])))
    assert consistent == all(not any(row[k:]) for row in ech.rows[ech.rank:])
    return ech


def _read_off_solution(A, B, one):
    """N and d with A·N = d·B for A of full column rank k, read off the rows
    (−e_c | 0) appended below [A | B]: the pivots stay in A's rows, and by
    Sylvester's identity row (−e_c | 0) holds d·X[c], d the last pivot."""
    k, zero = len(A[0]), one - one
    units = [[-one if c == i else zero for c in range(k)] + [zero] * len(B[0]) for i in range(k)]
    M = [list(a) + list(b) for a, b in zip(A, B)] + units
    ech = _read_off(M, k)
    assert ech.pivots == [(c, c) for c in range(k)]
    assert ech.order[len(A):] == list(range(len(A), len(M)))
    d = ech.rows[k - 1][k - 1]
    N = [ech.rows[len(A) + c][k:] for c in range(k)]
    assert _product(A, N) == [[d * b for b in row] for row in B]
    return N, d


@pytest.mark.parametrize("seed", range(8))
def test_random_fraction_systems_match_oracle(seed):
    rng = random.Random(seed)
    m = rng.randint(2, 7)
    k = rng.randint(1, m)
    A = _random_matrix(rng, m, k, density=rng.choice((0.4, 0.7, 1.0)))
    X = _random_matrix(rng, k, 3)
    B = _product(A, X)
    ech = _check_system(A, B)
    assert not any(x for row in ech.rows[ech.rank:] for x in row)
    if ech.rank == k:
        # over the integer rows, as the projection reads P: N and d are ints
        ints = [_integer_row(a + b)[1] for a, b in zip(A, B)]
        N, d = _read_off_solution([row[:k] for row in ints], [row[k:] for row in ints], 1)
        assert type(d) is int and all(type(x) is int for row in N for x in row)
        assert [[Fraction(x, d) for x in row] for row in N] == X


@pytest.mark.parametrize("seed", range(6))
def test_rank_deficient_systems_match_oracle(seed):
    rng = random.Random(100 + seed)
    m, k = rng.randint(3, 7), rng.randint(3, 6)
    rank = rng.randint(1, min(m, k) - 1)
    A = _rank_deficient(rng, m, k, rank)
    B = _product(A, _random_matrix(rng, k, 2))
    ech = _check_system(A, B)
    assert ech.rank == rank
    assert not any(x for row in ech.rows[rank:] for x in row)


@pytest.mark.parametrize("seed", range(6))
def test_random_inconsistent_systems_match_oracle(seed):
    rng = random.Random(200 + seed)
    m, k = rng.randint(3, 7), rng.randint(2, 5)
    rank = rng.randint(1, min(m - 1, k))
    A = _rank_deficient(rng, m, k, rank)
    B = _random_matrix(rng, m, 2, density=1.0)
    ech = _check_system(A, B)
    assert any(any(row[k:]) for row in ech.rows[rank:])


@pytest.mark.parametrize(
    "A, B, rank, bad_row",
    [
        # the only pivot is in row 1, so rows 0 and 1 swap and row 1 of the
        # echelon form (input row 0) carries the inconsistency
        ([[0], [1], [0]], [[5], [1], [0]], 1, 1),
        ([[0, 1], [0, 2], [0, 0]], [[1], [3], [0]], 1, 1),
        ([[0, 0], [1, 1], [2, 2], [0, 0]], [[0], [1], [2], [7]], 1, 3),
        (
            [[Fraction(1, 3)], [Fraction(2, 7)]],
            [[Fraction(1, 5)], [Fraction(1, 2)]],
            1,
            1,
        ),
        (
            [[Fraction(1, 101), Fraction(2, 103)], [Fraction(3, 101), Fraction(6, 103)]],
            [[Fraction(0)], [Fraction(1, 173)]],
            1,
            1,
        ),
    ],
)
def test_inconsistent_system_names_its_row(A, B, rank, bad_row):
    """The first output row below the rank with a nonzero read-off beyond A."""
    A = [[Fraction(x) for x in row] for row in A]
    B = [[Fraction(x) for x in row] for row in B]
    k = len(A[0])
    ech = _check_system(A, B)
    first = next(r for r in range(ech.rank, len(A)) if any(ech.rows[r][k:]))
    assert (ech.rank, first) == (rank, bad_row)


def test_zero_rows_and_columns():
    z = Fraction(0)
    A = [
        [z, Fraction(2, 101), z, Fraction(-1, 103)],
        [z, z, z, z],
        [z, Fraction(5, 107), z, Fraction(3, 109)],
        [z, z, z, z],
    ]
    B = [[Fraction(1, 113), z], [z, z], [Fraction(-4, 127), z], [z, z]]
    ech = _check_system(A, B)
    assert ech.rank == 2 and [c for _, c in ech.pivots] == [1, 3]
    assert sorted(ech.order[2:]) == [1, 3]
    assert not any(x for row in ech.rows[2:] for x in row)

    # rank 0: every row is read off, each entry its own 1×1 minor
    for M in ([[z, z, z], [z, z, z]], [[0, 0, 5], [0, 0, 0]], [[z, z, Fraction(-3, 7)]]):
        ech = _read_off_integer_rows(M, 2)
        assert (ech.rank, ech.order, ech.rows) == (0, list(range(len(M))), M)


def test_integer_input_solves_to_fractions():
    N, d = _read_off_solution([[2, 1], [1, 3]], [[1], [2]], 1)
    assert (N, d) == ([[1], [3]], 5)
    assert all(type(x) is int for row in N for x in row)
    assert [Fraction(x, d) for (x,) in N] == [Fraction(1, 5), Fraction(3, 5)]


def test_multipoly_system_matches_oracle_at_a_point():
    l1, l2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    one = MultiPoly.const(2, 1)
    zero = MultiPoly.zero(2)
    A = [
        [l1, l2, zero],
        [one, l1 + l2, l2],
        [zero, l1 * l2, l1 - one],
    ]
    B = [[l1 * l2], [zero], [one]]
    N, d = _read_off_solution(A, B, one)
    assert all(isinstance(x, MultiPoly) for row in N for x in row)
    assert d in (cofactor_det(A), -cofactor_det(A))
    for point in ([Fraction(2), Fraction(-3, 5)], [Fraction(7, 3), Fraction(1, 4)]):
        A_at = [[evaluate(x, point) for x in row] for row in A]
        b_at = [evaluate(row[0], point) for row in B]
        expected = rref_solve([_column(A_at, c) for c in range(3)], b_at)
        assert [evaluate(x, point) / evaluate(d, point) for (x,) in N] == expected


def test_multipoly_rank_deficiency_is_seen():
    l1, l2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    zero = MultiPoly.zero(2)
    A = [[l1, l2, zero], [l1 * l1, l1 * l2, zero], [zero, zero, zero]]
    assert fraction_free_echelon(A).rank == 1


# rank 3; eliminated in floats, the oracle once read rank 4 off it
_RANK3_INTS = [
    [-8, 45, 10, -18],
    [24, -3, 0, 9],
    [-14, -9, -2, 27],
    [56, -7, 0, 21],
    [-18, 76, 16, -81],
    [64, -8, 0, 24],
]


@pytest.mark.parametrize("seed", [0, 1, 2, 3, "ints"])
def test_echelon_rank_on_sparse_matrices(seed):
    if seed == "ints":
        M = _RANK3_INTS
        assert rref_rank(M) == 3
    else:
        M = _random_matrix(random.Random(300 + seed), 6, 7, density=0.3)
    assert fraction_free_echelon(M).rank == rref_rank(M)


def _echelon_case(rng, kind):
    """A sparse int, Fraction or MultiPoly matrix and the number of columns
    to pivot on.  Those columns have rank at most ``inner`` < rows, so rows
    remain below the pivots; the columns after them are dense.  A zero row
    and a zero pivoting column are each inserted at random half the time."""
    if kind == "multipoly":
        l1, l2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
        dense = lambda: rng.randint(-3, 3) * l1 + rng.randint(-3, 3) * l2 + rng.randint(1, 3)
    elif kind == "int":
        dense = lambda: rng.randint(1, 9) * rng.choice((-1, 1))
    else:
        dense = lambda: _random_entry(rng, 1.0) or Fraction(1, 101)
    entry = lambda: dense() if rng.random() < 0.5 else 0 * dense()
    rows, ncols, tail = rng.randint(3, 6), rng.randint(1, 4), rng.randint(1, 3)
    inner = rng.randint(1, min(rows - 1, ncols))
    left = [[entry() for _ in range(inner)] for _ in range(rows)]
    right = [[entry() for _ in range(ncols)] for _ in range(inner)]
    zero = 0 * dense()
    M = [
        [sum((a * right[s][j] for s, a in enumerate(row)), zero) for j in range(ncols)]
        + [dense() for _ in range(tail)]
        for row in left
    ]
    if rng.random() < 0.5:
        M.insert(rng.randint(0, rows), [zero] * (ncols + tail))
    if rng.random() < 0.5:
        at = rng.randint(0, ncols)
        M = [row[:at] + [zero] + row[at:] for row in M]
        ncols += 1
    return M, ncols


@pytest.mark.parametrize("kind", ["int", "fraction", "multipoly"])
@pytest.mark.parametrize("seed", range(8))
def test_echelon_reports_the_input_row_of_each_output_row(kind, seed):
    """The Sylvester read-off on ten random matrices per case, with the rank
    of the oracle (at a point for MultiPoly entries)."""
    rng = random.Random(400 + seed)
    point = [Fraction(31, 7), Fraction(-53, 11)]
    for _ in range(10):
        M, ncols = _echelon_case(rng, kind)
        ech = _read_off(M, ncols) if kind == "multipoly" else _read_off_integer_rows(M, ncols)
        pivoting = [[evaluate(x, point) if kind == "multipoly" else x for x in row[:ncols]]
                    for row in M]
        assert ech.rank == rref_rank(pivoting)


def test_integer_exact_division():
    assert _exact_div(-12, 4) == -3
    assert type(_exact_div(12, -4)) is int
    with pytest.raises(ValueError):
        _exact_div(7, 2)
    with pytest.raises(ValueError):
        _exact_div(-7, 3)
