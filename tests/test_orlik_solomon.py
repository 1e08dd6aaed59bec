"""Tests for the twisted Orlik-Solomon layer: straightening, the
multiplication-by-a_lambda matrices and the projection matrix.

Derived values are cross-checked against the raw exterior-algebra quotient
oracle in _helpers (free wedge monomials modulo explicitly listed relations,
plain Gauss-Jordan); worked values are frozen as rendered strings, and the
two worked projection matrices are compared with the golden values of
``gmarr.reference``.
"""

import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from gmarr import (
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
)
from gmarr.exact import RatFunc
from gmarr.reference import EXAMPLES, EXPECTED, render_scalar

from _helpers import (
    QuotientOracle,
    dense_matmul,
    ladder_path,
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
SELBERG = rational_rows(EXAMPLES["selberg"]["rows"])

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


def _combine(terms):
    """Σ c·x over (scalar c, element x) pairs of nbc-basis dicts, with the
    zero coefficients dropped."""
    out = {}
    for c, x in terms:
        for S, v in x.items():
            out[S] = out.get(S, 0) + c * v
    return {S: v for S, v in out.items() if v}


# ---------------------------------------------------------------------------
# straightening into the nbc basis
# ---------------------------------------------------------------------------


def test_straighten_broken_circuit_triple_point():
    # {2,3} is the broken circuit of the concurrent triple {1,2,3}.
    assert straighten((2, 3), T_TRIPLE) == {(1, 3): 1, (1, 2): -1}


def test_straighten_nbc_monomial_is_fixed():
    for S in nbc_sets(T_TRIPLE, 2):
        assert straighten(S, T_TRIPLE) == {S: 1}
    for S in nbc_sets(T_SELBERG, 2):
        assert straighten(S, T_SELBERG) == {S: 1}


def test_straighten_dependent_pair_is_zero():
    # rows 1 and 2 of the Selberg figure are parallel lines.
    assert straighten((1, 2), T_SELBERG) == {}


def test_straighten_selberg_broken_circuits():
    # circuits {1,3,5}, {2,4,5} break to {3,5}, {4,5}.
    assert straighten((3, 5), T_SELBERG) == {(1, 5): 1, (1, 3): -1}
    assert straighten((4, 5), T_SELBERG) == {(2, 5): 1, (2, 4): -1}


def test_straighten_empty_and_singletons():
    assert straighten((), T_TRIPLE) == {(): 1}
    for j in range(1, 5):
        assert straighten((j,), T_TRIPLE) == {(j,): 1}


def test_straighten_returns_integer_coefficients_in_a_fresh_dict():
    for S in itertools.combinations(range(1, T_SELBERG.n + 1), 2):
        out = straighten(S, T_SELBERG)
        assert type(out) is dict and all(type(c) is int and c for c in out.values())
        # the caller owns the result: changing it leaves the memo alone
        out[S] = 7
        assert straighten(S, T_SELBERG) != out


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
                assert set(straighten(S, T)) <= allowed


def test_straighten_matches_oracle_on_examples():
    for r in [TRIPLE_POINT, SELBERG]:
        T = compute_type(r)
        for q in range(1, T.ell + 1):
            for S in itertools.combinations(range(1, T.n + 1), q):
                expected = straighten_oracle(r, S)
                got = straighten(S, T)
                assert got == expected, (S, got, expected)


def test_straighten_matches_oracle_on_random_realizations():
    rng = random.Random(20260821)
    for _ in range(6):
        n = rng.choice([4, 5])
        r = random_realization(rng, n, 2)
        T = compute_type(r)
        for S in itertools.combinations(range(1, n + 1), 2):
            assert straighten(S, T) == straighten_oracle(r, S), (r.rows, S)


def test_straighten_matches_oracle_with_a_remainder():
    for r in PENCILS_L3:
        T = compute_type(r)
        for q in range(1, T.ell + 1):
            for S in itertools.combinations(range(1, T.n + 1), q):
                assert straighten(S, T) == straighten_oracle(r, S), (r.rows, S)


def test_straighten_matches_oracle_through_affine_circuits():
    # forced dependencies at ℓ = 3 and ℓ = 4, each type with an affinely
    # independent monomial that holds a broken circuit, so that the circuit
    # branch of the rewrite runs
    rng = random.Random(27)
    for n, ell in ((6, 3), (6, 3), (6, 4), (6, 4)):
        monomials = [S for q in range(1, ell + 1) for S in itertools.combinations(range(1, n + 1), q)]
        for _ in range(100):
            r = random_realization(rng, n, ell, forced=n - ell - 1)
            T = compute_type(r)
            if any(straighten(S, T) not in ({S: 1}, {}) for S in monomials):
                break
        else:
            raise AssertionError(f"no n={n}, ell={ell} type in 100 draws rewrites a monomial")
        for S in monomials:
            assert straighten(S, T) == straighten_oracle(r, S), (r.rows, S)


def test_straighten_is_linear_over_circuit_boundaries():
    # the signed alternating sum over any concurrent triple straightens to 0
    for T, dep in [(T_TRIPLE, (1, 2, 3)), (T_SELBERG, (2, 4, 5))]:
        terms = []
        for i, drop in enumerate(dep):
            rest = tuple(x for x in dep if x != drop)
            terms.append((-1 if i % 2 else 1, straighten(rest, T)))
        assert _combine(terms) == {}


# ---------------------------------------------------------------------------
# the multiplication-by-a_lambda matrices
# ---------------------------------------------------------------------------


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
        prod = dense_matmul(d1, d0, w.zero_scalar())
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
        prod = dense_matmul(d1, d0, Fraction(0))
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


def test_frame_monomials_and_coboundaries_span_top_degree():
    """Each betanbc frame contributes the unit vector of its own nbc
    monomial: those vectors complement the coboundaries a_λ∧a_S in top
    degree, so the coboundary columns have rank |nbc_ℓ| − |βnbc| and reach
    |nbc_ℓ| with the frames' vectors added."""
    rng = random.Random(13)
    cases = [TRIPLE_POINT, SELBERG]
    cases += [random_realization(rng, n, ell, forced)
              for n, ell, forced in [(5, 2, 0), (6, 2, 2), (5, 3, 1), (6, 3, 0), (6, 3, 2)]]
    for r in cases:
        T = compute_type(r)
        w = Weights.concrete(random_nonresonant_weights(rng, T))
        top = nbc_sets(T, T.ell)
        frames = betanbc_frames(T)
        assert set(frames) <= set(top)
        columns = [list(col) for col in zip(*a_lambda_matrix(T, w, T.ell - 1))]
        assert rref_rank(columns) == len(top) - len(frames), sorted(T.dep)
        units = [[Fraction(S == B) for S in top] for B in frames]
        assert rref_rank(columns + units) == len(top), sorted(T.dep)


# ---------------------------------------------------------------------------
# the projection matrix
# ---------------------------------------------------------------------------


def test_projection_general_position_is_identity():
    P = projection_matrix(G42, Weights.generic(4))
    assert P.row_basis == P.col_basis == betanbc_frames(G42)
    rendered = [[render_scalar(e) for e in row] for row in P.entries]
    assert rendered == [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]


def _rendered(P):
    return tuple(tuple(render_scalar(e) for e in row) for row in P.entries)


def test_projection_triple_point_rendered():
    P = projection_matrix(T_TRIPLE, Weights.generic(4))
    assert P.row_basis == ((2, 3), (2, 4), (3, 4))
    assert P.col_basis == ((2, 4), (3, 4))
    assert _rendered(P) == EXPECTED["projection triple-point"]


def test_projection_selberg_rendered():
    P = projection_matrix(T_SELBERG, Weights.generic(5))
    assert P.row_basis == ((2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5))
    assert P.col_basis == ((2, 4), (2, 5))
    assert _rendered(P) == EXPECTED["selberg projection"]


def test_projection_entry_lookup():
    P = projection_matrix(T_TRIPLE, Weights.generic(4))
    assert render_scalar(P.entry((2, 3), (3, 4))) == EXPECTED["projection triple-point"][0][1]
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


# ---------------------------------------------------------------------------
# frame rows are unit vectors, the other rows are read off the elimination
# ---------------------------------------------------------------------------

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def _fixture_realizations():
    """Every fixture as a rational realization; a path at its witness."""
    from gmarr.cli import parse_arrangement_file, parse_path_file

    for f in sorted(FIXTURES.glob("*.json")):
        if "t_witness" in json.loads(f.read_text()):
            pf = parse_path_file(f.read_bytes())
            yield f.name, pf.realization.specialize(pf.t_witness)
        else:
            yield f.name, parse_arrangement_file(f.read_bytes())[0]


def _check_rows_against_oracle(where, r, vals):
    T = compute_type(r)
    P = projection_matrix(T, Weights.concrete(vals))
    frames, rows = projection_oracle(r, vals)
    assert P.col_basis == frames, where
    assert all(type(x) is int for row in P.numerators for x in row + (P.denominator,)), where
    for I, row in zip(P.row_basis, P.entries):
        assert all(type(x) is Fraction for x in row), (where, I)
        if I in frames:
            assert list(row) == [int(B == I) for B in frames], (where, I)
        else:
            assert list(row) == rows[I], (where, I)
    Psym = projection_matrix(T, Weights.generic(T.n))
    for I, row in zip(Psym.row_basis, Psym.entries):
        assert all(type(x) is RatFunc for x in row), (where, I)
        if I in frames:
            assert list(row) == [int(B == I) for B in frames], (where, I)


def test_projection_frame_rows_are_unit_vectors_on_fixtures():
    rng = random.Random(43)
    for name, r in _fixture_realizations():
        _check_rows_against_oracle(name, r, random_nonresonant_weights(rng, compute_type(r)))


def test_projection_frame_rows_are_unit_vectors_on_ladder_paths():
    rng = random.Random(47)
    for rung in ((5, 2, 3), (6, 2, 3), (5, 3, 2), (6, 3, 2), (7, 3, 3), (8, 2, 3)):
        r = ladder_path(rng, *rung).realization.specialize(1)
        _check_rows_against_oracle(rung, r, random_nonresonant_weights(rng, compute_type(r)))


def test_dependent_frame_image_raises_span_defect(monkeypatch):
    from gmarr import orlik_solomon

    frames = betanbc_frames(T_SELBERG)
    assert len(frames) >= 2
    real = orlik_solomon._eta_image

    def copied(I, T, w):
        # the last frame's image is a copy of the first one's
        return real(frames[0] if I == frames[-1] else I, T, w)

    monkeypatch.setattr(orlik_solomon, "_eta_image", copied)
    with pytest.raises(SpanDefect):
        projection_matrix(T_SELBERG, Weights.generic(T_SELBERG.n))


def test_zero_weight_on_a_frame_raises_span_defect(monkeypatch):
    # a zero weight is resonant, so the nonresonance gate is bypassed here:
    # the frame's image λ_B·a_B then drops out and must be reported, not
    # divided by
    from gmarr import orlik_solomon

    frame = betanbc_frames(T_TRIPLE)[0]
    vals = [Fraction(1, 3), Fraction(2, 5), Fraction(-1, 7), Fraction(1, 11)]
    vals[frame[0] - 1] = Fraction(0)
    monkeypatch.setattr(orlik_solomon, "stv_check", lambda T, w: stv_check(T, Weights.generic(T.n)))
    with pytest.raises(SpanDefect, match="not nonzero multiples") as exc:
        projection_matrix(T_TRIPLE, Weights.concrete(vals))
    assert f"frames {[frame]} are" in str(exc.value)


def test_frame_column_off_the_pivots_raises_span_defect(monkeypatch):
    # an extra copy of a frame keeps the system's rank full, so only the
    # pivot check can see that its column depends on the others
    from gmarr import orlik_solomon

    frames = betanbc_frames(T_TRIPLE)
    monkeypatch.setattr(orlik_solomon, "betanbc_frames", lambda T: frames + frames[:1])
    concrete = Weights.concrete([Fraction(1, 3), Fraction(2, 5), Fraction(-1, 7), Fraction(1, 11)])
    for w in (Weights.generic(T_TRIPLE.n), concrete):
        with pytest.raises(SpanDefect, match="dependent modulo coboundaries") as exc:
            projection_matrix(T_TRIPLE, w)
        assert exc.value.defect == 1


def test_coboundary_on_one_frame_row_raises_span_defect(monkeypatch):
    # one coboundary column replaced by a frame's unit vector: the non-frame
    # rows keep full rank, so only that frame's row can take the pivot
    from gmarr import orlik_solomon

    T = T_SELBERG
    frame = betanbc_frames(T)[0]
    top = nbc_sets(T, T.ell)
    free = [i for i, S in enumerate(top) if S not in betanbc_frames(T)]
    concrete = Weights.concrete(random_nonresonant_weights(random.Random(59), T))
    D = a_lambda_matrix(T, concrete, T.ell - 1)
    col = next(
        c for c in range(len(D[0]))
        if rref_rank([D[i][:c] + D[i][c + 1:] for i in free]) == len(free)
    )
    real = orlik_solomon.a_lambda_matrix

    def faulty(T, w, q):
        m = real(T, w, q)
        for i, S in enumerate(top):
            m[i][col] = w.one_scalar() if S == frame else w.zero_scalar()
        return m

    monkeypatch.setattr(orlik_solomon, "a_lambda_matrix", faulty)
    for w in (Weights.generic(T.n), concrete):
        with pytest.raises(SpanDefect, match="dependent modulo coboundaries") as exc:
            projection_matrix(T, w)
        assert exc.value.defect == 1
        assert f"frames {[frame]} are" in str(exc.value)


def test_coboundaries_short_of_the_non_frame_rows_raise_span_defect(monkeypatch):
    # zeroed coboundary columns leave the non-frame rows short of full rank
    # while no frame row takes a pivot: the defect is a codimension
    from gmarr import orlik_solomon

    real = orlik_solomon.a_lambda_matrix
    concrete = Weights.concrete([Fraction(1, 3), Fraction(2, 5), Fraction(-1, 7), Fraction(1, 11)])
    for zeroed, defect in (((0, 1), 1), ((0, 1, 2, 3), 3)):
        def faulty(T, w, q, zeroed=zeroed):
            m = real(T, w, q)
            for row in m:
                for c in zeroed:
                    row[c] = w.zero_scalar()
            return m

        monkeypatch.setattr(orlik_solomon, "a_lambda_matrix", faulty)
        for w in (Weights.generic(T_TRIPLE.n), concrete):
            with pytest.raises(SpanDefect, match=f"span a subspace of codimension {defect} in degree 2") as exc:
                projection_matrix(T_TRIPLE, w)
            assert exc.value.defect == defect


def test_projection_is_one_elimination_over_the_coboundary_columns(monkeypatch):
    # no frame columns and no second elimination (a back-substitution or a
    # solve for the frame rows would show here)
    from gmarr import linalg, orlik_solomon

    T = ladder_path(random.Random(61), 8, 3, 3).T
    frames = betanbc_frames(T)
    sources = [I for I in itertools.combinations(range(2, T.n + 1), T.ell) if I not in frames]
    coboundaries = len(nbc_sets(T, T.ell - 1))
    real = linalg.fraction_free_echelon
    calls = []

    def spy(matrix, ncols=None):
        calls.append((len(matrix), {len(row) for row in matrix}, ncols))
        return real(matrix, ncols)

    monkeypatch.setattr(linalg, "fraction_free_echelon", spy)
    monkeypatch.setattr(orlik_solomon, "fraction_free_echelon", spy)
    for w in (Weights.generic(T.n), Weights.concrete(random_nonresonant_weights(random.Random(67), T))):
        calls.clear()
        projection_matrix(T, w)
        assert calls == [(len(nbc_sets(T, T.ell)), {coboundaries + len(sources)}, coboundaries)]


def test_projection_refuses_an_oversized_basis_before_building_the_system(monkeypatch):
    from gmarr import orlik_solomon

    def unreachable(*args):
        raise AssertionError("the projection system was built")

    for name in ("nbc_sets", "a_lambda_matrix", "_eta_image"):
        monkeypatch.setattr(orlik_solomon, name, unreachable)
    with pytest.raises(ValueError, match="over the limit"):
        projection_matrix(general_position_type(34, 2), Weights.generic(34))


# ---------------------------------------------------------------------------
# bounded per-type caches
# ---------------------------------------------------------------------------


def test_per_type_caches_stay_within_their_bound():
    from gmarr import arrangement, orlik_solomon
    from gmarr.arrangement import TYPE_CACHE_SIZE, affine_circuits, flats_and_dense_edges

    caches = [v for v in vars(arrangement).values() if callable(getattr(v, "cache_info", None))]
    assert len(caches) == 5
    rng = random.Random(53)
    types = []
    while len(types) < TYPE_CACHE_SIZE + 3:
        T = compute_type(random_realization(rng, 5, 2))
        if T not in types and betanbc_frames(T):
            types.append(T)

    def results(T):
        w = Weights.generic(T.n)
        return (affine_circuits(T), flats_and_dense_edges(T), nbc_sets(T, 1),
                projection_matrix(T, w), a_lambda_matrix(T, w, 1))

    first = results(types[0])
    for T in types[1:]:
        results(T)
        assert all(fn.cache_info().currsize <= TYPE_CACHE_SIZE for fn in caches)
        assert len(orlik_solomon._STRAIGHTENERS) <= TYPE_CACHE_SIZE
    assert types[0] not in orlik_solomon._STRAIGHTENERS
    assert results(types[0]) == first
