"""solve_all and fraction_free_echelon against the Gauss-Jordan oracles and
cofactor minors.

solve_all returns N = d·X over one common denominator d.  Fraction systems
are eliminated over integer rows, so every check here also asserts that N
and d come back as ints, that A·N = d·B exactly, that d is the determinant
of a pivot block of the integer rows (up to sign, by cofactor expansion),
and that N/d agrees entry for entry with the divide-and-pivot oracle in
``_helpers``.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from _helpers import cofactor_det, rref_rank, rref_solve

from gmarr.exact import MultiPoly, RatFunc, evaluate
from gmarr.linalg import _exact_div, fraction_free_echelon, solve_all

PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173)


def _random_entry(rng, density):
    if rng.random() >= density:
        return Fraction(0)
    return Fraction(rng.randint(-9, 9), rng.choice(PRIMES) * rng.choice((1, rng.choice(PRIMES))))


def _random_matrix(rng, rows, cols, density=0.7):
    return [[_random_entry(rng, density) for _ in range(cols)] for _ in range(rows)]


def _product(A, X):
    return [
        [sum((a * X[s][j] for s, a in enumerate(row)), Fraction(0)) for j in range(len(X[0]))]
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


def _pivot_block_dets(M, pivots):
    """|det| of every square block of M on the pivot columns."""
    return {
        abs(cofactor_det([[M[i][c] for c in pivots] for i in rows]))
        for rows in itertools.combinations(range(len(M)), len(pivots))
    }


def _check_against_oracle(A, B):
    """solve_all(A, B) agrees with rref_rank / rref_solve, A·N = d·B exactly,
    and d is ± the determinant of a pivot block of the integer rows."""
    res = solve_all(A, B)
    k, r = len(A[0]), len(B[0])
    A_columns = [_column(A, c) for c in range(k)]
    expected = [rref_solve(A_columns, _column(B, j)) for j in range(r)]
    assert res.rank == rref_rank(A)
    assert res.consistent == all(x is not None for x in expected)
    if not res.consistent:
        assert res.solution is None
        assert res.rank <= res.bad_row < len(A)
        return res
    assert res.bad_row is None
    N, d = res.solution, res.denominator
    assert type(d) is int and d
    for j in range(r):
        for c in range(k):
            entry = N[c][j]
            assert type(entry) is int
            assert Fraction(entry, d) == expected[j][c]
    assert _product(A, N) == [[d * b for b in row] for row in B]
    scaled = [
        [x * math.lcm(*(y.denominator for y in A[i] + B[i])) for x in A[i]]
        for i in range(len(A))
    ]
    assert abs(d) in _pivot_block_dets(scaled, res.pivots)
    return res


@pytest.mark.parametrize("seed", range(8))
def test_random_fraction_systems_match_oracle(seed):
    rng = random.Random(seed)
    m = rng.randint(2, 7)
    k = rng.randint(1, m)
    A = _random_matrix(rng, m, k, density=rng.choice((0.4, 0.7, 1.0)))
    X = _random_matrix(rng, k, 3)
    B = _product(A, X)
    res = _check_against_oracle(A, B)
    assert res.consistent
    if res.rank == k:
        d = res.denominator
        assert [[Fraction(res.solution[c][j], d) for j in range(3)] for c in range(k)] == X


@pytest.mark.parametrize("seed", range(6))
def test_rank_deficient_systems_match_oracle(seed):
    rng = random.Random(100 + seed)
    m, k = rng.randint(3, 7), rng.randint(3, 6)
    rank = rng.randint(1, min(m, k) - 1)
    A = _rank_deficient(rng, m, k, rank)
    X = _random_matrix(rng, k, 2)
    B = _product(A, X)
    res = _check_against_oracle(A, B)
    assert res.rank == rank
    assert res.consistent


@pytest.mark.parametrize("seed", range(6))
def test_random_inconsistent_systems_match_oracle(seed):
    rng = random.Random(200 + seed)
    m, k = rng.randint(3, 7), rng.randint(2, 5)
    rank = rng.randint(1, min(m - 1, k))
    A = _rank_deficient(rng, m, k, rank)
    B = _random_matrix(rng, m, 2, density=1.0)
    res = _check_against_oracle(A, B)
    assert not res.consistent


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
    A = [[Fraction(x) for x in row] for row in A]
    B = [[Fraction(x) for x in row] for row in B]
    res = solve_all(A, B)
    assert (res.rank, res.consistent, res.solution, res.bad_row) == (rank, False, None, bad_row)
    _check_against_oracle(A, B)


def test_zero_rows_and_columns():
    z = Fraction(0)
    A = [
        [z, Fraction(2, 101), z, Fraction(-1, 103)],
        [z, z, z, z],
        [z, Fraction(5, 107), z, Fraction(3, 109)],
        [z, z, z, z],
    ]
    B = [[Fraction(1, 113), z], [z, z], [Fraction(-4, 127), z], [z, z]]
    res = _check_against_oracle(A, B)
    assert res.rank == 2 and res.consistent
    assert all(res.solution[c][j] == 0 for c in (0, 2) for j in range(2))
    assert all(x == 0 for x in _column(res.solution, 1))

    res = _check_against_oracle([[z, z], [z, z]], [[z], [z]])
    assert (res.rank, res.consistent) == (0, True)
    assert res.solution == [[0], [0]] and res.denominator == 1


def test_integer_input_solves_to_fractions():
    A = [[2, 1], [1, 3]]
    B = [[1], [2]]
    res = solve_all(A, B)
    assert (res.solution, res.denominator) == ([[1], [3]], 5)
    assert all(type(x) is int for row in res.solution for x in row)
    assert [Fraction(x, res.denominator) for (x,) in res.solution] == [
        Fraction(1, 5),
        Fraction(3, 5),
    ]


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
    res = solve_all(A, B)
    assert res.rank == 3 and res.consistent
    N, d = res.solution, res.denominator
    assert all(isinstance(x, MultiPoly) for row in N for x in row)
    assert d in (cofactor_det(A), -cofactor_det(A))
    for i in range(3):
        lhs = sum((A[i][c] * N[c][0] for c in range(3)), zero)
        assert lhs == d * B[i][0]
    X = [RatFunc(row[0], d) for row in N]
    for point in ([Fraction(2), Fraction(-3, 5)], [Fraction(7, 3), Fraction(1, 4)]):
        A_at = [[evaluate(x, point) for x in row] for row in A]
        b_at = [evaluate(row[0], point) for row in B]
        expected = rref_solve([_column(A_at, c) for c in range(3)], b_at)
        assert [evaluate(x, point) for x in X] == expected


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
    remain below the pivots; the columns after them are dense."""
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
    return [
        [sum((a * right[s][j] for s, a in enumerate(row)), zero) for j in range(ncols)]
        + [dense() for _ in range(tail)]
        for row in left
    ], ncols


@pytest.mark.parametrize("kind", ["int", "fraction", "multipoly"])
@pytest.mark.parametrize("seed", range(8))
def test_echelon_reports_the_input_row_of_each_output_row(kind, seed):
    """``order`` is a permutation; below the rank every row is zero on the
    pivoting columns, and by Sylvester's identity each of its other entries
    is the minor of the pivot rows and that row's input row on the pivot
    columns and its own, the last pivot that minor without the border."""
    M, ncols = _echelon_case(random.Random(400 + seed), kind)
    ech = fraction_free_echelon(M, ncols)
    assert sorted(ech.order) == list(range(len(M)))
    point = [Fraction(31, 7), Fraction(-53, 11)]
    pivoting = [[evaluate(x, point) if kind == "multipoly" else Fraction(x) for x in row[:ncols]]
                for row in M]
    assert ech.rank == rref_rank(pivoting)
    pcols = [c for _, c in ech.pivots]
    above = [M[i] for i in ech.order[: ech.rank]]
    if pcols:
        assert ech.rows[ech.rank - 1][pcols[-1]] == cofactor_det([[x[c] for c in pcols] for x in above])
    for pos in range(ech.rank, len(M)):
        row = ech.rows[pos]
        assert not any(row[:ncols])
        for j in range(ncols, len(row)):
            block = [[x[c] for c in pcols + [j]] for x in above + [M[ech.order[pos]]]]
            assert row[j] == cofactor_det(block), (pos, j)


def test_integer_exact_division():
    assert _exact_div(-12, 4) == -3
    assert type(_exact_div(12, -4)) is int
    with pytest.raises(ValueError):
        _exact_div(7, 2)
    with pytest.raises(ValueError):
        _exact_div(-7, 3)
