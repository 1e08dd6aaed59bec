"""Tests for the general-position connection matrices and the exchange sign.

The sign is pinned by hand-worked examples plus a symmetry property; the five
worked matrices are compared with the golden values of ``gmarr.reference``;
the four structural cases are
checked on random inputs (support pattern, homogeneity, integrality); and all
blocks together are checked against an independent property, the flatness of
the general-position connection they assemble into.
"""

import itertools
import random
from fractions import Fraction

import pytest

from gmarr import ConnectionMatrix, Weights, epsilon, omega_general
from gmarr.aomoto_kita import MAX_GENERAL_BASIS, _general_basis
from gmarr.exact import MultiPoly
from gmarr.reference import EXPECTED, render_scalar

from _helpers import cofactor_det, pair_matrices_eq, pair_matrix, pair_mul


# ---------------------------------------------------------------------------
# the exchange sign
# ---------------------------------------------------------------------------


def test_epsilon_hand_examples():
    # K = {2,3,4}: (2,3) omits the 3rd smallest, (2,4) the 2nd, (3,4) the 1st
    assert epsilon((2, 3), (2, 4)) == -1
    assert epsilon((2, 3), (3, 4)) == 1
    assert epsilon((2, 4), (3, 4)) == -1
    # K = {1,2,3}
    assert epsilon((1, 2), (1, 3)) == -1
    assert epsilon((1, 2), (2, 3)) == 1
    # singletons: K = {p-th, q-th}
    assert epsilon((5,), (9,)) == -1
    assert epsilon((9,), (5,)) == -1


def test_epsilon_is_symmetric():
    rng = random.Random(41)
    for _ in range(50):
        k = rng.randint(2, 6)
        K = sorted(rng.sample(range(1, 30), k))
        a, b = rng.sample(range(k), 2)
        I = tuple(x for i, x in enumerate(K) if i != a)
        Ip = tuple(x for i, x in enumerate(K) if i != b)
        assert epsilon(I, Ip) == epsilon(Ip, I)
        # and the parity is the distance of the omitted positions
        assert epsilon(I, Ip) == (-1) ** (a + b)


def test_epsilon_validation():
    with pytest.raises(ValueError):
        epsilon((3, 2), (2, 4))  # not increasing
    with pytest.raises(ValueError):
        epsilon((2, 2), (2, 4))  # repeats
    with pytest.raises(ValueError):
        epsilon((2, 3), (2, 3, 4))  # size mismatch
    with pytest.raises(ValueError):
        epsilon((1, 2), (3, 4))  # overlap too small
    with pytest.raises(ValueError):
        epsilon((1, 2), (1, 2))  # overlap too large


# ---------------------------------------------------------------------------
# worked matrices, n = 4 and ell = 2 (basis (2,3), (2,4), (3,4))
# ---------------------------------------------------------------------------


def _rendered(m: ConnectionMatrix):
    return tuple(tuple(render_scalar(x) for x in row) for row in m.entries)


def test_omega_basis_order():
    m = omega_general((3, 4, 5), 4, 2)
    assert m.basis == ((2, 3), (2, 4), (3, 4))


def test_omega_345():
    assert _rendered(omega_general((3, 4, 5), 4, 2)) == EXPECTED["omega-general 345"]


def test_omega_125():
    assert _rendered(omega_general((1, 2, 5), 4, 2)) == EXPECTED["omega-general 125"]


def test_omega_124():
    assert _rendered(omega_general((1, 2, 4), 4, 2)) == EXPECTED["omega-general 124"]


def test_omega_134():
    assert _rendered(omega_general((1, 3, 4), 4, 2)) == EXPECTED["omega-general 134"]


def test_omega_234():
    assert _rendered(omega_general((2, 3, 4), 4, 2)) == EXPECTED["omega-general 234"]


def test_omega_entry_lookup():
    m = omega_general((2, 3, 4), 4, 2)
    assert render_scalar(m.entry((2, 4), (3, 4))) == "-l2"
    with pytest.raises(ValueError):
        m.entry((1, 2), (3, 4))


# ---------------------------------------------------------------------------
# structure of the four cases on random inputs
# ---------------------------------------------------------------------------


def _support(m: ConnectionMatrix):
    rows, cols = set(), set()
    for I, row in zip(m.basis, m.entries):
        for Ip, x in zip(m.basis, row):
            if x:
                rows.add(I)
                cols.add(Ip)
    return rows, cols


def _random_J(rng, n, ell, *, with_one, with_inf):
    pool = list(range(2, n + 1))
    size = ell + 1 - with_one - with_inf
    body = sorted(rng.sample(pool, size))
    J = ([1] if with_one else []) + body + ([n + 1] if with_inf else [])
    return tuple(J)


def _entries_are_integer_linear(m: ConnectionMatrix, n: int):
    for row in m.entries:
        for x in row:
            assert isinstance(x, MultiPoly)
            assert x.nvars == n  # variables l1..ln only, never the last row
            for e, c in x.terms.items():
                assert sum(e) == 1
                assert Fraction(c).denominator == 1


def test_case_without_one_or_last():
    rng = random.Random(43)
    for _ in range(8):
        n = rng.randint(4, 7)
        ell = rng.randint(2, min(3, n - 2))
        J = _random_J(rng, n, ell, with_one=False, with_inf=False)
        m = omega_general(J, n, ell)
        allowed = {tuple(x for x in J if x != j) for j in J}
        rows, cols = _support(m)
        assert rows <= allowed and cols <= allowed
        _entries_are_integer_linear(m, n)


def test_case_with_last_only():
    rng = random.Random(47)
    for _ in range(8):
        n = rng.randint(4, 7)
        ell = rng.randint(2, min(3, n - 1))
        J = _random_J(rng, n, ell, with_one=False, with_inf=True)
        m = omega_general(J, n, ell)
        Jp = J[:-1]
        rows, cols = _support(m)
        assert cols <= {Jp}
        for I in rows:
            assert I == Jp or len(set(I) - set(Jp)) == 1
        _entries_are_integer_linear(m, n)


def test_case_with_one_only():
    rng = random.Random(53)
    for _ in range(8):
        n = rng.randint(4, 7)
        ell = rng.randint(2, min(3, n - 1))
        J = _random_J(rng, n, ell, with_one=True, with_inf=False)
        m = omega_general(J, n, ell)
        J1 = J[1:]
        rows, cols = _support(m)
        assert rows <= {J1}
        for Ip in cols:
            assert Ip == J1 or len(set(J1) & set(Ip)) == ell - 1
        _entries_are_integer_linear(m, n)


def test_case_with_one_and_last():
    rng = random.Random(59)
    for _ in range(8):
        n = rng.randint(4, 7)
        ell = rng.randint(2, min(3, n - 1))
        J = _random_J(rng, n, ell, with_one=True, with_inf=True)
        m = omega_general(J, n, ell)
        core = set(J) - {1, n + 1}
        for I, row in zip(m.basis, m.entries):
            if not core <= set(I):
                assert all(not x for x in row)
                continue
            lam = Weights.generic(n).weight(next(iter(set(I) - core)))
            for Ip, x in zip(m.basis, row):
                if Ip == I:
                    assert x == -lam
                elif set(I) & set(Ip) == core:
                    assert x == (lam if epsilon(I, Ip) == 1 else -lam)
                else:
                    assert not x
        _entries_are_integer_linear(m, n)


def test_diagonal_values_match_weight_sums():
    w = Weights.generic(6)
    # last-row case: diagonal is minus the sum of the weights outside J'
    m = omega_general((2, 4, 7), 6, 2)
    assert m.entry((2, 4), (2, 4)) == -(
        w.weight(1) + w.weight(3) + w.weight(5) + w.weight(6)
    )
    # first-row case: diagonal is the sum of the weights of J itself
    m = omega_general((1, 3, 5), 6, 2)
    assert m.entry((3, 5), (3, 5)) == w.weight(1) + w.weight(3) + w.weight(5)


def test_omega_concrete_matches_symbolic():
    rng = random.Random(61)
    drawn = [Fraction(rng.randint(1, 9), rng.choice([5, 7, 11])) for _ in range(4)]
    # a zero weight and a pair summing to zero make some block entries zero
    zeros = [Fraction(0), Fraction(2, 7), Fraction(-2, 7), Fraction(3, 5)]
    for vals in (drawn, zeros):
        wc = Weights.concrete(vals)
        for J in itertools.combinations(range(1, 6), 3):
            sym = omega_general(J, 4, 2)
            num = omega_general(J, 4, 2, wc)
            for rs, rn in zip(sym.entries, num.entries):
                for s, c in zip(rs, rn):
                    assert type(c) is Fraction and s.evaluate(vals) == c


def test_omega_validation():
    with pytest.raises(ValueError):
        omega_general((3, 1, 4), 4, 2)  # not increasing
    with pytest.raises(ValueError):
        omega_general((1, 2), 4, 2)  # wrong size
    with pytest.raises(ValueError):
        omega_general((1, 2, 6), 4, 2)  # out of range
    with pytest.raises(ValueError):
        omega_general((0, 2, 3), 4, 2)
    with pytest.raises(ValueError):
        omega_general((1, 2, 3), 4, 2, Weights.generic(5))
    for n, ell in ((0, 0), (3, 0), (2, 3), (1, -1)):
        with pytest.raises(ValueError, match=f"need n >= ell >= 1, got n={n}, ell={ell}"):
            omega_general((1,), n, ell)


def test_general_basis_size_limit():
    # at ell = 1 the basis has n - 1 frames: exactly the limit, then one more
    n = MAX_GENERAL_BASIS + 1
    assert len(_general_basis(n, 1)) == MAX_GENERAL_BASIS
    assert len(omega_general((1, 2), n, 1).basis) == MAX_GENERAL_BASIS
    message = f"C\\({n}, 1\\) = {n} frames: over the limit {MAX_GENERAL_BASIS}"
    with pytest.raises(ValueError, match=message):
        _general_basis(n + 1, 1)
    with pytest.raises(ValueError, match=message):
        omega_general((1, 2), n + 1, 1)
    assert len(_general_basis(33, 2)) == 496
    with pytest.raises(ValueError, match="C\\(33, 2\\) = 528 frames"):
        _general_basis(34, 2)


# ---------------------------------------------------------------------------
# flatness: ω = Σ_J Ω_J·dlog Δ_J satisfies ω∧ω = 0
# ---------------------------------------------------------------------------


def _closure_point(rng, n, ell):
    """Rational closure rows (row n+1 at infinity) with no vanishing maximal
    minor Δ_J, and those minors."""
    subsets = list(itertools.combinations(range(1, n + 2), ell + 1))
    while True:
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(ell + 1)]
            for _ in range(n)
        ] + [[Fraction(1)] + [Fraction(0)] * ell]
        minors = {J: cofactor_det([rows[j - 1] for j in J]) for J in subsets}
        if all(minors.values()):
            return rows, minors


def _coordinate_matrices(n, ell, rng):
    """A_a = Σ_J (∂_aΔ_J/Δ_J)·Ω_J for every entry a of the finite rows, at a
    rational point; the derivative of Δ_J by an entry of its row is the
    signed cofactor of that entry."""
    rows, minors = _closure_point(rng, n, ell)
    blocks = {J: omega_general(J, n, ell).entries for J in minors}
    k = len(blocks[next(iter(blocks))])
    zero = MultiPoly.zero(n)
    out = []
    for i, c in itertools.product(range(1, n + 1), range(ell + 1)):
        A = [[zero] * k for _ in range(k)]
        for J, block in blocks.items():
            if i not in J:
                continue
            r = J.index(i)
            cofactor = [rows[j - 1][:c] + rows[j - 1][c + 1:] for j in J if j != i]
            g = (-1) ** (r + c) * cofactor_det(cofactor) / minors[J]
            if g:
                A = [[x + g * y for x, y in zip(ra, rb)] for ra, rb in zip(A, block)]
        out.append(A)
    return out


@pytest.mark.parametrize("n,ell", [(3, 1), (4, 1), (4, 2), (5, 2), (5, 3)])
def test_general_position_connection_is_flat(n, ell):
    # the coefficient of da∧db in ω∧ω is the commutator [A_a, A_b]; the blocks
    # keep symbolic weights, so every commutator must vanish identically
    A = [pair_matrix(M) for M in _coordinate_matrices(n, ell, random.Random(100 * n + ell))]
    bad = [
        (a, b)
        for a, b in itertools.combinations(range(len(A)), 2)
        if not pair_matrices_eq(pair_mul(A[a], A[b]), pair_mul(A[b], A[a]))
    ]
    assert not bad, f"{len(bad)} of {len(A) * (len(A) - 1) // 2} commutators are nonzero"
