"""Tests for the twisted Orlik-Solomon layer: straightening, cocycles,
the multiplication-by-a_lambda matrices and the projection matrix.

Derived values are cross-checked against the raw exterior-algebra quotient
oracle in _helpers (free wedge monomials modulo explicitly listed relations,
plain Gauss-Jordan); worked values are frozen as rendered strings.
"""

import itertools
import random
from fractions import Fraction

import pytest

from gmarr import (
    OSElement,
    ResonantWeights,
    SpanDefect,
    Weights,
    a_lambda_matrix,
    betanbc_frames,
    compute_type,
    general_position_type,
    nbc_sets,
    projection_matrix,
    straighten,
    stv_check,
    zeta,
)
from gmarr.reference import render_scalar

from _helpers import (
    QuotientOracle,
    projection_oracle,
    random_nonresonant_weights,
    random_realization,
    rref_rank,
    straighten_oracle,
)


def rational_rows(rows):
    from gmarr import Realization

    return Realization(tuple(tuple(Fraction(x) for x in row) for row in rows))


TRIPLE_POINT = rational_rows(
    [[0, 1, 0], [-1, 1, 1], [-2, 1, 2], [0, 1, -1]]
)
SELBERG = rational_rows(
    [[0, 1, 0], [-1, 1, 0], [0, 0, 1], [-1, 0, 1], [0, 1, -1]]
)

# l = 3 arrangements with three planes through a line (planes 1, 2, 3).  A
# monomial can then hold a broken circuit and more, so straightening rewrites
# a_S = ± a_R ∧ a_bc with a nonempty remainder R and its shuffle signs matter;
# at l = 2 a broken circuit fills the whole top-degree monomial.
PENCILS_L3 = [
    rational_rows([[0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 1, 0], [-1, 0, 0, 1], [-1, 1, 2, 3]]),
    rational_rows(
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 1], [-1, 1, 1, 1], [-2, 1, -1, 2]]
    ),
    rational_rows(
        [[0, 1, 0, 0], [0, 0, 1, 0], [0, 1, -1, 0], [0, 0, 0, 1], [0, 1, 0, 1], [-1, 1, 2, 3]]
    ),
]

T_TRIPLE = compute_type(TRIPLE_POINT)
T_SELBERG = compute_type(SELBERG)
G42 = general_position_type(4, 2)


# ---------------------------------------------------------------------------
# OSElement basics
# ---------------------------------------------------------------------------


def test_oselement_zero_add_neg():
    z = OSElement.zero(2)
    a = OSElement(2, {(1, 2): Fraction(3)})
    assert not z
    assert a + z == a
    assert a - a == OSElement.zero(2)
    assert (-a).coeffs == {(1, 2): Fraction(-3)}


def test_oselement_degree_mismatch():
    a = OSElement(1, {(1,): Fraction(1)})
    b = OSElement(2, {(1, 2): Fraction(1)})
    with pytest.raises(ValueError):
        a + b


def test_oselement_scale_drops_zeros():
    a = OSElement(1, {(1,): Fraction(2), (3,): Fraction(5)})
    assert a.scale(Fraction(0)) == OSElement.zero(1)


# ---------------------------------------------------------------------------
# straightening into the nbc basis
# ---------------------------------------------------------------------------


def test_straighten_broken_circuit_triple_point():
    # {2,3} is the broken circuit of the concurrent triple {1,2,3}.
    out = straighten((2, 3), T_TRIPLE)
    assert out.coeffs == {(1, 3): Fraction(1), (1, 2): Fraction(-1)}


def test_straighten_nbc_monomial_is_fixed():
    for S in nbc_sets(T_TRIPLE, 2):
        assert straighten(S, T_TRIPLE).coeffs == {S: Fraction(1)}
    for S in nbc_sets(T_SELBERG, 2):
        assert straighten(S, T_SELBERG).coeffs == {S: Fraction(1)}


def test_straighten_dependent_pair_is_zero():
    # rows 1 and 2 of the Selberg figure are parallel lines.
    assert straighten((1, 2), T_SELBERG) == OSElement.zero(2)


def test_straighten_selberg_broken_circuits():
    # circuits {1,3,5}, {2,4,5} break to {3,5}, {4,5}.
    assert straighten((3, 5), T_SELBERG).coeffs == {
        (1, 5): Fraction(1),
        (1, 3): Fraction(-1),
    }
    assert straighten((4, 5), T_SELBERG).coeffs == {
        (2, 5): Fraction(1),
        (2, 4): Fraction(-1),
    }


def test_straighten_empty_and_singletons():
    assert straighten((), T_TRIPLE).coeffs == {(): Fraction(1)}
    for j in range(1, 5):
        assert straighten((j,), T_TRIPLE).coeffs == {(j,): Fraction(1)}


def test_straighten_validation():
    with pytest.raises(ValueError):
        straighten((2, 2), T_TRIPLE)
    with pytest.raises(ValueError):
        straighten((0, 1), T_TRIPLE)
    with pytest.raises(ValueError):
        straighten((1, 5), T_TRIPLE)


def test_straighten_keys_are_nbc():
    for T, r in [(T_TRIPLE, TRIPLE_POINT), (T_SELBERG, SELBERG)]:
        for q in range(T.ell + 1):
            allowed = set(nbc_sets(T, q))
            for S in itertools.combinations(range(1, T.n + 1), q):
                assert set(straighten(S, T).coeffs) <= allowed


def test_straighten_matches_oracle_on_examples():
    for r in [TRIPLE_POINT, SELBERG]:
        T = compute_type(r)
        for q in range(1, T.ell + 1):
            for S in itertools.combinations(range(1, T.n + 1), q):
                expected = straighten_oracle(r, S)
                got = {k: v for k, v in straighten(S, T).coeffs.items() if v}
                assert got == expected, (S, got, expected)


def test_straighten_matches_oracle_on_random_realizations():
    rng = random.Random(20260821)
    for _ in range(6):
        n = rng.choice([4, 5])
        r = random_realization(rng, n, 2)
        T = compute_type(r)
        for S in itertools.combinations(range(1, n + 1), 2):
            assert {
                k: v for k, v in straighten(S, T).coeffs.items() if v
            } == straighten_oracle(r, S), (r.rows, S)


def test_straighten_matches_oracle_with_a_remainder():
    for r in PENCILS_L3:
        T = compute_type(r)
        for q in range(1, T.ell + 1):
            for S in itertools.combinations(range(1, T.n + 1), q):
                got = {k: v for k, v in straighten(S, T).coeffs.items() if v}
                assert got == straighten_oracle(r, S), (r.rows, S)


def test_straighten_is_linear_over_circuit_boundaries():
    # the signed alternating sum over any concurrent triple straightens to 0
    for T, dep in [(T_TRIPLE, (1, 2, 3)), (T_SELBERG, (2, 4, 5))]:
        total = OSElement.zero(2)
        for i, drop in enumerate(dep):
            rest = tuple(x for x in dep if x != drop)
            sign = Fraction(-1) if i % 2 else Fraction(1)
            total = total + straighten(rest, T).scale(sign)
        assert total == OSElement.zero(2)


# ---------------------------------------------------------------------------
# cocycles of betanbc frames
# ---------------------------------------------------------------------------


def test_zeta_general_position_is_scaled_monomial():
    w = Weights.generic(4)
    for B in betanbc_frames(G42):
        z = zeta(B, G42, w)
        lam = w.weight(B[0]) * w.weight(B[1])
        assert z.coeffs == {B: lam}


def test_zeta_triple_point_frames():
    w = Weights.generic(4)
    for B in betanbc_frames(T_TRIPLE):
        z = zeta(B, T_TRIPLE, w)
        assert z.coeffs == {B: w.weight(B[0]) * w.weight(B[1])}


def test_zeta_selberg_24_hand_value():
    # flat through rows 2 and 4 also contains row 5, so the first factor is
    # l2*a2 + l4*a4 + l5*a5 and the wedge with l4*a4 leaves
    # l2*l4*a24 - l4*l5*a45; straightening a45 = a25 - a24 gives the result.
    w = Weights.generic(5)
    z = zeta((2, 4), T_SELBERG, w)
    l2, l4, l5 = w.weight(2), w.weight(4), w.weight(5)
    expected = straighten((2, 4), T_SELBERG).scale(l2 * l4) - straighten(
        (4, 5), T_SELBERG
    ).scale(l4 * l5)
    assert z == expected
    assert {k: render_scalar(v) for k, v in sorted(z.coeffs.items())} == {
        (2, 4): "l2*l4 + l4*l5",
        (2, 5): "-l4*l5",
    }


def test_zeta_selberg_25_hand_value():
    # same flat {2,4,5}, second factor l5*a5: the wedge is
    # l2*l5*a25 + l4*l5*a45, and a45 = a25 - a24 under straightening.
    w = Weights.generic(5)
    z = zeta((2, 5), T_SELBERG, w)
    assert set(z.coeffs) <= set(nbc_sets(T_SELBERG, 2))
    l2, l4, l5 = w.weight(2), w.weight(4), w.weight(5)
    expected = straighten((2, 5), T_SELBERG).scale(l2 * l5) + straighten(
        (4, 5), T_SELBERG
    ).scale(l4 * l5)
    assert z == expected
    assert {k: render_scalar(v) for k, v in sorted(z.coeffs.items())} == {
        (2, 4): "-l4*l5",
        (2, 5): "l2*l5 + l4*l5",
    }


def test_zeta_rejects_non_frame():
    w = Weights.generic(4)
    with pytest.raises(ValueError):
        zeta((2, 3), T_TRIPLE, w)  # not a betanbc frame of the triple point
    with pytest.raises(ValueError):
        zeta((1, 2), G42, w)  # frames never contain row 1
    with pytest.raises(ValueError):
        zeta((2, 4), T_TRIPLE, Weights.generic(5))


def test_zeta_concrete_weights_match_generic_evaluation():
    rng = random.Random(7)
    vals = random_nonresonant_weights(rng, T_SELBERG)
    wg = Weights.generic(5)
    wc = Weights.concrete(vals)
    for B in betanbc_frames(T_SELBERG):
        sym = zeta(B, T_SELBERG, wg)
        num = zeta(B, T_SELBERG, wc)
        for key in set(sym.coeffs) | set(num.coeffs):
            s = sym.coeffs.get(key, wg.zero_scalar())
            cval = num.coeffs.get(key, Fraction(0))
            assert s.evaluate(vals) == Fraction(cval)


# ---------------------------------------------------------------------------
# the multiplication-by-a_lambda matrices
# ---------------------------------------------------------------------------


def _matmul(A, B, zero):
    return [
        [sum((a * b for a, b in zip(row, col)), zero) for col in zip(*B)]
        for row in A
    ]


def test_a_lambda_matrix_shapes():
    w = Weights.generic(5)
    for q in range(T_SELBERG.ell):
        m = a_lambda_matrix(T_SELBERG, w, q)
        assert len(m) == len(nbc_sets(T_SELBERG, q + 1))
        assert all(len(row) == len(nbc_sets(T_SELBERG, q)) for row in m)


def test_a_lambda_matrix_validation():
    w = Weights.generic(4)
    with pytest.raises(ValueError):
        a_lambda_matrix(T_TRIPLE, w, 2)
    with pytest.raises(ValueError):
        a_lambda_matrix(T_TRIPLE, w, -1)
    with pytest.raises(ValueError):
        a_lambda_matrix(T_TRIPLE, Weights.generic(5), 0)


def test_a_lambda_composite_is_zero_generic():
    for T, n in [(T_TRIPLE, 4), (T_SELBERG, 5), (G42, 4)]:
        w = Weights.generic(n)
        d0 = a_lambda_matrix(T, w, 0)
        d1 = a_lambda_matrix(T, w, 1)
        prod = _matmul(d1, d0, w.zero_scalar())
        assert all(not x for row in prod for x in row)


def test_a_lambda_composite_is_zero_random_concrete():
    rng = random.Random(99)
    for _ in range(4):
        r = random_realization(rng, rng.choice([4, 5]), 2)
        T = compute_type(r)
        vals = random_nonresonant_weights(rng, T)
        w = Weights.concrete(vals)
        d0 = a_lambda_matrix(T, w, 0)
        d1 = a_lambda_matrix(T, w, 1)
        prod = _matmul(d1, d0, Fraction(0))
        assert all(x == 0 for row in prod for x in row)


def test_a_lambda_columns_match_quotient_oracle():
    # brute-force check: each column is the wedge of the weight one-form with
    # a basis monomial, reduced in the raw quotient by Gauss-Jordan.
    rng = random.Random(5)
    for r in [TRIPLE_POINT, SELBERG, random_realization(rng, 5, 2)]:
        T = compute_type(r)
        vals = random_nonresonant_weights(rng, T)
        w = Weights.concrete(vals)
        weights = list(vals)
        for q in range(T.ell):
            rows = nbc_sets(T, q + 1)
            cols = nbc_sets(T, q)
            m = a_lambda_matrix(T, w, q)
            oracle = QuotientOracle(r, q + 1)
            basis_cols = [oracle.monomial(R) for R in rows]
            for cidx, S in enumerate(cols):
                vec = [Fraction(0)] * len(oracle.subsets)
                for j in range(1, T.n + 1):
                    if j in S:
                        continue
                    smaller = sum(1 for s in S if s < j)
                    sign = -1 if smaller % 2 else 1
                    key = tuple(sorted(S + (j,)))
                    vec[oracle.index[key]] += sign * weights[j - 1]
                coords = oracle.coordinates(vec, basis_cols, rows)
                assert coords is not None
                got = {rows[i]: m[i][cidx] for i in range(len(rows)) if m[i][cidx]}
                assert got == coords, (S, got, coords)


def test_a_lambda_top_corank_equals_betanbc_count():
    rng = random.Random(11)
    cases = [TRIPLE_POINT, SELBERG]
    cases.extend(random_realization(rng, rng.choice([4, 5]), 2) for _ in range(3))
    for r in cases:
        T = compute_type(r)
        vals = random_nonresonant_weights(rng, T)
        w = Weights.concrete(vals)
        m = a_lambda_matrix(T, w, T.ell - 1)
        top = len(nbc_sets(T, T.ell))
        assert top - rref_rank(m) == len(betanbc_frames(T))


def test_zeta_and_a_lambda_image_span_top_degree():
    # the cocycles of the betanbc frames complement the coboundaries
    rng = random.Random(13)
    for r in [TRIPLE_POINT, SELBERG, random_realization(rng, 5, 2)]:
        T = compute_type(r)
        vals = random_nonresonant_weights(rng, T)
        w = Weights.concrete(vals)
        top = nbc_sets(T, T.ell)
        index = {S: i for i, S in enumerate(top)}
        columns = [list(col) for col in zip(*a_lambda_matrix(T, w, T.ell - 1))]
        for B in betanbc_frames(T):
            vec = [Fraction(0)] * len(top)
            for S, c in zeta(B, T, w).coeffs.items():
                vec[index[S]] = Fraction(c)
            columns.append(vec)
        assert rref_rank(columns) == len(top)


# ---------------------------------------------------------------------------
# the projection matrix
# ---------------------------------------------------------------------------


def test_projection_general_position_is_identity():
    P = projection_matrix(G42, Weights.generic(4))
    assert P.row_basis == P.col_basis == betanbc_frames(G42)
    rendered = [[render_scalar(e) for e in row] for row in P.entries]
    assert rendered == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def test_projection_triple_point_rendered():
    P = projection_matrix(T_TRIPLE, Weights.generic(4))
    assert P.row_basis == ((2, 3), (2, 4), (3, 4))
    assert P.col_basis == ((2, 4), (3, 4))
    rendered = [[render_scalar(e) for e in row] for row in P.entries]
    assert rendered == [
        ["(-l3)/(l1 + l2 + l3)", "(l2)/(l1 + l2 + l3)"],
        ["1", "0"],
        ["0", "1"],
    ]


def test_projection_selberg_rendered():
    P = projection_matrix(T_SELBERG, Weights.generic(5))
    assert P.row_basis == ((2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5))
    assert P.col_basis == ((2, 4), (2, 5))
    rendered = {
        I: [render_scalar(e) for e in row]
        for I, row in zip(P.row_basis, P.entries)
    }
    assert rendered == {
        (2, 3): ["-1", "-1"],
        (2, 4): ["1", "0"],
        (2, 5): ["0", "1"],
        (3, 4): ["0", "0"],
        (3, 5): [
            "(-l2*l5 + l3*l5)/(l1*l2 + l2*l3 + l2*l5)",
            "(-l2*l3 - l2*l5 - l3*l4)/(l1*l2 + l2*l3 + l2*l5)",
        ],
        (4, 5): ["(-l5)/(l2)", "(l4)/(l2)"],
    }


def test_projection_entry_lookup():
    P = projection_matrix(T_TRIPLE, Weights.generic(4))
    assert render_scalar(P.entry((2, 3), (3, 4))) == "(l2)/(l1 + l2 + l3)"
    with pytest.raises(ValueError):
        P.entry((1, 2), (2, 4))


def test_projection_unit_rows_for_own_frames():
    rng = random.Random(17)
    for _ in range(4):
        r = random_realization(rng, rng.choice([4, 5]), 2)
        T = compute_type(r)
        P = projection_matrix(T, Weights.generic(T.n))
        for B in P.col_basis:
            row = P.entries[P.row_basis.index(B)]
            assert [render_scalar(x) for x in row] == [
                "1" if C == B else "0" for C in P.col_basis
            ]


def test_projection_matches_oracle_on_examples():
    rng = random.Random(23)
    for r in [TRIPLE_POINT, SELBERG]:
        T = compute_type(r)
        vals = random_nonresonant_weights(rng, T)
        P = projection_matrix(T, Weights.concrete(vals))
        frames, rows = projection_oracle(r, vals)
        assert P.col_basis == frames
        for I, row in zip(P.row_basis, P.entries):
            assert [Fraction(x) for x in row] == rows[I], I


def test_projection_matches_oracle_on_random_realizations():
    rng = random.Random(29)
    done = 0
    while done < 5:
        r = random_realization(rng, rng.choice([4, 5]), 2)
        T = compute_type(r)
        if not betanbc_frames(T):
            continue
        vals = random_nonresonant_weights(rng, T)
        P = projection_matrix(T, Weights.concrete(vals))
        frames, rows = projection_oracle(r, vals)
        assert P.col_basis == frames
        for I, row in zip(P.row_basis, P.entries):
            assert [Fraction(x) for x in row] == rows[I], (r.rows, I)
        done += 1


def test_projection_matches_oracle_with_a_remainder():
    rng = random.Random(41)
    for r in PENCILS_L3:
        T = compute_type(r)
        vals = random_nonresonant_weights(rng, T)
        P = projection_matrix(T, Weights.concrete(vals))
        frames, rows = projection_oracle(r, vals)
        assert P.col_basis == frames
        for I, row in zip(P.row_basis, P.entries):
            assert [Fraction(x) for x in row] == rows[I], (r.rows, I)


def test_projection_symbolic_evaluates_to_numeric():
    rng = random.Random(31)
    Psym = projection_matrix(T_TRIPLE, Weights.generic(4))
    for _ in range(3):
        vals = random_nonresonant_weights(rng, T_TRIPLE)
        Pnum = projection_matrix(T_TRIPLE, Weights.concrete(vals))
        for rsym, rnum in zip(Psym.entries, Pnum.entries):
            for s, c in zip(rsym, rnum):
                from gmarr.exact import evaluate

                assert evaluate(s, vals) == Fraction(c)


def test_projection_rejects_resonant_weights():
    # l1 + l2 + l3 = 0 on the dense triple point violates nonresonance
    w = Weights.concrete([Fraction(1), Fraction(1), Fraction(-2), Fraction(1, 2)])
    report = stv_check(T_TRIPLE, w)
    assert not report.ok
    with pytest.raises(ResonantWeights) as exc:
        projection_matrix(T_TRIPLE, w)
    assert exc.value.report.violations == report.violations


def test_projection_rejects_integer_single_weight():
    w = Weights.concrete([Fraction(2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)])
    with pytest.raises(ResonantWeights):
        projection_matrix(T_TRIPLE, w)


def test_projection_weights_size_mismatch():
    with pytest.raises(ValueError):
        projection_matrix(T_TRIPLE, Weights.generic(5))


def test_span_defect_attributes():
    # defensive failure type for a basis that cannot absorb the image classes;
    # unreachable through the public pipeline (the nonresonance gate runs
    # first), so it is exercised directly.
    err = SpanDefect(2, "short by 2")
    assert err.defect == 2
    assert "short by 2" in str(err)
    assert isinstance(err, RuntimeError)
