import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmarr.arrangement import (
    CombinatorialType,
    Realization,
    RealizationError,
    Weights,
    _matroid_of,
    affine_circuits,
    betanbc_frames,
    betti_and_euler,
    compute_type,
    dense_edges,
    flats_and_dense_edges,
    frames,
    general_position_type,
    nbc_sets,
    stv_check,
)
from gmarr.exact import MultiPoly, PathPoly, RatFunc, parse_path_poly, parse_rational, poly_exact_div
from gmarr.reference import EXAMPLES, EXPECTED

from _helpers import (
    betti_oracle,
    brute_central_circuits,
    brute_circuits,
    brute_flats,
    brute_nbc,
    closure_vectors,
    cofactor_det,
    first_proportional_pair,
    good_primes,
    random_realization,
)

F = Fraction


def rational_rows(rows):
    return [[parse_rational(e) for e in row] for row in rows]


def path_rows(rows):
    return [[parse_path_poly(e) for e in row] for row in rows]


TRIPLE_POINT = rational_rows(EXAMPLES["triple_point"]["rows"])
SELBERG = rational_rows(EXAMPLES["selberg"]["rows"])


# ---------------------------------------------------------------------------
# realizations and minors
# ---------------------------------------------------------------------------


def test_row_indexing_and_infinity():
    r = Realization(TRIPLE_POINT)
    assert r.n == 4 and r.ell == 2
    assert r.row(1) == (F(0), F(1), F(1))
    assert r.row(5) == (F(1), F(0), F(0))
    with pytest.raises(ValueError):
        r.row(6)
    with pytest.raises(ValueError):
        r.row(0)


def test_minor_matches_cofactor_expansion():
    r = Realization(TRIPLE_POINT)
    for I in itertools.combinations(range(1, 6), 3):
        expected = cofactor_det([list(r.row(i)) for i in I])
        assert r.minor(I) == expected


def test_minor_random_matches_cofactor_expansion():
    rng = random.Random(20240817)
    for _ in range(10):
        r = random_realization(rng, 5, 3)
        for I in itertools.combinations(range(1, 7), 4):
            assert r.minor(I) == cofactor_det([list(r.row(i)) for i in I])


def test_minor_validates_index_sets():
    r = Realization(TRIPLE_POINT)
    with pytest.raises(ValueError):
        r.minor((2, 1, 3))  # unsorted
    with pytest.raises(ValueError):
        r.minor((1, 2))  # wrong size
    with pytest.raises(ValueError):
        r.minor((1, 2, 6))  # out of range


def test_zero_row_rejected():
    rows = [[F(0), F(0), F(0)], [F(0), F(1), F(0)], [F(1), F(1), F(1)]]
    with pytest.raises(RealizationError):
        Realization(rows)


def test_projectively_duplicate_rows_rejected():
    rows = [[F(1), F(2), F(3)], [F(-2), F(-4), F(-6)], [F(0), F(1), F(0)]]
    with pytest.raises(RealizationError):
        Realization(rows)


def test_first_projectively_equal_pair_is_reported():
    # rows are grouped by projective class; the pair reported is the first
    # a pairwise scan would find
    A, B = [F(1), F(2), F(3)], [F(0), F(1), F(-1)]
    rows = [A, B, [F(0), F(-3), F(3)], [F(-1, 2), F(-1), F(-3, 2)]]
    with pytest.raises(RealizationError, match="^rows 1 and 4 are projectively equal$"):
        Realization(rows)
    # over Q(t): row 3 is row 2 times 1 + t, row 4 is row 1 times -t/2
    rows = path_rows([["1", "2 + t", "t"], ["0", "1", "-1"],
                      ["0", "1 + t", "-1 - t"], ["-1/2*t", "-t - 1/2*t^2", "-1/2*t^2"]])
    with pytest.raises(RealizationError,
                       match="^rows 1 and 4 are projectively equal along the whole path$"):
        Realization(rows)


def _classes_rows(rng, path):
    """Six rows of width 3 drawn from four random classes, with zero entries
    and nonzero linear parts, each scaled by a random multiplier: a rational
    one, or for path rows also t, 1 + t, 2 - t² or t·(1 + t), which leave a
    row without a constant entry or with a common factor."""
    def entry():
        if path:
            return PathPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
        return F(rng.randint(-2, 2))

    scales = [1, -1, 2, F(1, 3), F(-5, 2)]
    if path:
        scales += path_rows([["t", "1 + t", "2 - t^2", "t + t^2"]])[0]
    pool = [row for row in ([entry() for _ in range(3)] for _ in range(4)) if any(row[1:])]
    rows = [[rng.choice(scales) * x for x in rng.choice(pool)] for _ in range(6)]
    if rng.random() < 0.2:  # repeated classes A, B, B, A
        rows[:4] = [rows[0], rows[1], [rng.choice(scales) * x for x in rows[1]], rows[0]]
    return rows


def test_projective_classes_match_the_pairwise_oracle():
    rng = random.Random(73)
    seen = {True: 0, False: 0}
    for k in range(400):
        rows = _classes_rows(rng, path=k % 2)
        first = first_proportional_pair(rows)
        seen[first is None] += 1
        if first is None:
            assert Realization(rows).n == 6
            continue
        along = " along the whole path" if k % 2 else ""
        with pytest.raises(RealizationError,
                           match=f"^rows {first[0]} and {first[1]} are projectively equal{along}$"):
            Realization(rows)
    assert min(seen.values()) > 50, seen


def test_row_parallel_to_infinity_rejected():
    rows = [[F(3), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]]
    with pytest.raises(RealizationError):
        Realization(rows)


def test_ragged_rows_rejected():
    with pytest.raises(RealizationError):
        Realization([[F(0), F(1), F(1)], [F(0), F(1)]])


def test_normal_position_flag():
    assert compute_type(Realization(TRIPLE_POINT)).normal_position
    # first two rows of the second example are parallel lines
    assert not compute_type(Realization(SELBERG)).normal_position


def test_path_specialize_and_minor():
    rows = path_rows(
        [["0", "1", "0"], ["-1", "1", "0"], ["0", "0", "1"], ["-t", "0", "1"], ["0", "t", "-1"]]
    )
    r = Realization(rows)
    assert r.is_path
    assert r.minor((3, 4, 5)) == PathPoly((F(0), F(0), F(-1)))  # -t^2
    at1 = r.specialize(1)
    assert not at1.is_path
    assert at1.row(4) == (F(-1), F(0), F(1))
    at0 = r.specialize(0)  # rows 3 and 4 coincide at the degenerate end
    assert at0.row(4) == (F(0), F(0), F(1)) == at0.row(3)


def test_rows_coincide_only_at_zero():
    def family(c):  # rows 3 and 4 coincide where c vanishes
        rows = [["0", "1", "0"], ["-1", "1", "0"], ["0", "0", "1"], [c, "0", "1"], ["0", "t", "-1"]]
        return Realization(path_rows(rows))

    at_zero = family("-t")
    assert compute_type(at_zero.specialize(0)) == at_zero.type_at(0)
    at_two = family("2 - t")
    assert at_two.specialize(0).row(4) == (F(2), F(0), F(1))
    for call in (at_two.specialize, at_two.type_at):
        with pytest.raises(RealizationError, match="rows 3 and 4 are projectively equal"):
            call(2)


def test_specialize_requires_path():
    with pytest.raises(ValueError):
        Realization(TRIPLE_POINT).specialize(1)


# ---------------------------------------------------------------------------
# combinatorial types
# ---------------------------------------------------------------------------


def test_triple_point_type():
    T = compute_type(Realization(TRIPLE_POINT))
    assert (T.n, T.ell) == (4, 2)
    assert tuple(sorted(T.dep)) == EXPECTED["triple-point dep"]
    assert T.normal_position


def test_selberg_type():
    S = compute_type(Realization(SELBERG))
    assert tuple(sorted(S.dep)) == EXPECTED["selberg dep"]
    assert not S.normal_position


def test_general_position_type():
    G = general_position_type(4, 2)
    assert G.dep == frozenset()


def test_compute_type_rejects_paths():
    rows = path_rows([["0", "1", "1"], ["0", "1", "0"], ["0", "1", "-1"], ["-t", "0", "1"]])
    with pytest.raises(ValueError):
        compute_type(Realization(rows))


def test_compute_type_size_limit_at_and_past(monkeypatch):
    """C(5, 3)·3! = 60 products for the triple point: it is typed at a
    limit of 60 and refused at 59, before its first minor."""
    from gmarr import arrangement

    r = Realization(TRIPLE_POINT)
    monkeypatch.setattr(arrangement, "MAX_TYPE_PRODUCTS", 60)
    assert tuple(sorted(compute_type(r).dep)) == EXPECTED["triple-point dep"]
    monkeypatch.setattr(arrangement, "MAX_TYPE_PRODUCTS", 59)
    monkeypatch.setattr(Realization, "minor", lambda self, J: pytest.fail("a minor was computed"))
    with pytest.raises(ValueError, match=r"^typing n=4, ell=2 takes C\(5, 3\)·3! = 60 cofactor "
                                         r"products: over the limit 59$"):
        compute_type(r)


def test_affine_circuits_triple_point():
    T = compute_type(Realization(TRIPLE_POINT))
    assert affine_circuits(T) == ((1, 2, 3),)


def test_affine_circuits_selberg():
    S = compute_type(Realization(SELBERG))
    assert affine_circuits(S) == ((1, 3, 5), (2, 4, 5))


# ---------------------------------------------------------------------------
# nbc sets and frames
# ---------------------------------------------------------------------------


def test_nbc_triple_point_frozen():
    T = compute_type(Realization(TRIPLE_POINT))
    assert nbc_sets(T, 0) == ((),)
    assert nbc_sets(T, 1) == ((1,), (2,), (3,), (4,))
    assert nbc_sets(T, 2) == ((1, 2), (1, 3), (1, 4), (2, 4), (3, 4))


def test_nbc_matches_brute_force_on_examples():
    for rows in (TRIPLE_POINT, SELBERG):
        r = Realization(rows)
        T = compute_type(r)
        for q in range(T.ell + 1):
            assert nbc_sets(T, q) == tuple(brute_nbc(r, q))


def test_nbc_matches_brute_force_random():
    rng = random.Random(99)
    for _ in range(6):
        r = random_realization(rng, 5, 2)
        T = compute_type(r)
        for q in range(3):
            assert nbc_sets(T, q) == tuple(brute_nbc(r, q))


def test_betanbc_frozen_values():
    T = compute_type(Realization(TRIPLE_POINT))
    S = compute_type(Realization(SELBERG))
    assert betanbc_frames(T) == EXPECTED["triple-point betanbc"]
    assert betanbc_frames(S) == EXPECTED["selberg betanbc"]
    assert betanbc_frames(general_position_type(4, 2)) == EXPECTED["general betanbc (n=4)"]


def test_betanbc_general_position_count():
    # ell-subsets of {2..n}: binomial(n-1, ell) of them
    import math

    for n, ell in [(4, 2), (5, 2), (6, 3), (5, 4)]:
        G = general_position_type(n, ell)
        got = betanbc_frames(G)
        assert len(got) == math.comb(n - 1, ell)
        assert all(B[0] >= 2 for B in got)


def test_betanbc_subset_of_general_position():
    rng = random.Random(4)
    for _ in range(8):
        r = random_realization(rng, 5, 2)
        T = compute_type(r)
        G = general_position_type(5, 2)
        assert set(betanbc_frames(T)) <= set(betanbc_frames(G))


def test_betanbc_exchange_property():
    # every member of a frame in the distinguished set can be swapped down
    rng = random.Random(11)
    for _ in range(10):
        r = random_realization(rng, 6, 2)
        T = compute_type(r)
        all_frames = set(frames(T))
        for B in betanbc_frames(T):
            for k, jk in enumerate(B):
                replaced = [
                    tuple(sorted(set(B) - {jk} | {h}))
                    for h in range(1, jk)
                    if h not in B
                ]
                assert any(Bp in all_frames for Bp in replaced), (B, jk)


# ---------------------------------------------------------------------------
# betti numbers against finite-field point counts
# ---------------------------------------------------------------------------


def test_betti_triple_point():
    r = Realization(TRIPLE_POINT)
    T = compute_type(r)
    be = betti_and_euler(T)
    assert be.betti == (1, 4, 5)
    assert be.euler == 2
    assert betti_oracle(r, (101, 103, 107)) == ([1, 4, 5], 2)


def test_betti_selberg():
    r = Realization(SELBERG)
    S = compute_type(r)
    be = betti_and_euler(S)
    assert be.betti == (1, 5, 6)
    assert be.euler == 2
    assert betti_oracle(r, (101, 103, 107)) == ([1, 5, 6], 2)


def test_betti_general_position():
    G = general_position_type(4, 2)
    assert betti_and_euler(G).betti == (1, 4, 6)
    assert betti_and_euler(G).euler == 3


def test_betti_random_against_point_counts():
    rng = random.Random(321)
    for _ in range(4):
        r = random_realization(rng, 5, 2)
        T = compute_type(r)
        be = betti_and_euler(T)
        assert betti_oracle(r, good_primes(r, 3)) == (list(be.betti), be.euler)


def test_betti_random_dimension_three():
    rng = random.Random(322)
    r = random_realization(rng, 4, 3)
    T = compute_type(r)
    be = betti_and_euler(T)
    assert betti_oracle(r, good_primes(r, 4)) == (list(be.betti), be.euler)


def test_betanbc_counts_euler_characteristic():
    rng = random.Random(5150)
    for _ in range(12):
        r = random_realization(rng, 5, 2)
        T = compute_type(r)
        assert len(betanbc_frames(T)) == abs(betti_and_euler(T).euler)


# ---------------------------------------------------------------------------
# dense edges and the nonresonance check
# ---------------------------------------------------------------------------


def test_dense_edges_triple_point():
    T = compute_type(Realization(TRIPLE_POINT))
    members = tuple(f.members for f in dense_edges(T))
    assert members == EXPECTED["triple-point dense edges"]


def test_dense_edges_selberg():
    S = compute_type(Realization(SELBERG))
    members = tuple(f.members for f in dense_edges(S))
    assert members == EXPECTED["selberg dense edges"]


def test_flats_and_circuits_match_rank_oracles():
    # half the realizations force circuits: rows combined from two earlier
    # rows, or parallel to an earlier one
    rng = random.Random(17)
    for n, ell in ((5, 2), (6, 2), (5, 3), (6, 3)):
        for k in range(8):
            r = random_realization(rng, n, ell, forced=k % 2 * (n - ell - 1))
            T = compute_type(r)
            vectors = closure_vectors(r)
            expected = sorted(brute_flats(vectors, ell).items(), key=lambda f: (f[1][0], f[0]))
            got = [(f.members, (f.rank, f.dense)) for f in flats_and_dense_edges(T)]
            assert got == expected, T
            assert affine_circuits(T) == tuple(brute_central_circuits(vectors, n)), T
            circuits = _matroid_of(T).circuits_within(range(1, n + 2))
            assert [tuple(sorted(C)) for C in circuits] == brute_circuits(vectors, range(1, n + 2))


def test_stv_generic_is_symbolic():
    T = compute_type(Realization(TRIPLE_POINT))
    report = stv_check(T, Weights.generic(4))
    assert report.ok and report.generic
    assert [c[0] for c in report.conditions] == [
        (1,), (2,), (3,), (4,), (5,), (1, 2, 3)
    ]


def test_stv_concrete_values_frozen():
    T = compute_type(Realization(TRIPLE_POINT))
    w = Weights.concrete([F(-1, 2), F(-1, 3), F(-1, 5), F(-1, 7)])
    report = stv_check(T, w)
    assert report.ok and not report.generic
    sums = dict((c[0], c[1]) for c in report.conditions)
    assert sums[(5,)] == F(247, 210)
    assert sums[(1, 2, 3)] == F(-31, 30)


def test_stv_flags_nonnegative_integer_sums():
    T = compute_type(Realization(TRIPLE_POINT))
    w = Weights.concrete([F(1), F(-1, 3), F(-1, 5), F(-1, 7)])
    report = stv_check(T, w)
    assert not report.ok
    assert ((1,), F(1)) in report.violations
    # a negative or non-integer sum is fine
    w2 = Weights.concrete([F(-3, 2), F(-1, 3), F(-1, 5), F(-1, 7)])
    assert stv_check(T, w2).ok


def test_weights_infinity_index():
    w = Weights.concrete([F(-1, 2), F(-1, 3), F(-1, 5), F(-1, 7)])
    assert w.weight(5) == F(247, 210)
    g = Weights.generic(4)
    assert str(g.weight(5)) == "-l1 - l2 - l3 - l4"
    assert str(g.weight_sum((1, 2, 5))) == "-l3 - l4"
    with pytest.raises(ValueError):
        g.weight(6)


def test_concrete_weights_from_a_generator():
    w = Weights.concrete(F(k, 3) for k in (1, 2, 4))
    assert w.n == 3 and w.values == (F(1, 3), F(2, 3), F(4, 3))
    assert w.weight(4) == F(-7, 3)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 8), st.data())
def test_weights_match_an_independent_formula(n, data):
    """λ_j and λ_S against formulas of their own: exponent dicts for generic
    weights, Fraction sums for concrete ones (one weight always zero)."""
    values = data.draw(st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=9), min_size=n, max_size=n))
    values[data.draw(st.integers(0, n - 1))] = F(0)
    S = data.draw(st.lists(st.integers(1, n + 1), unique=True))

    def unit(k):  # exponent vector of l_k
        return tuple(int(i == k - 1) for i in range(n))

    def generic_sum(S):  # λ_{n+1} = -(l1 + ... + ln)
        coeff = {k: (k in S) - (n + 1 in S) for k in range(1, n + 1)}
        return MultiPoly(n, {unit(k): c for k, c in coeff.items() if c})

    def concrete_sum(S):
        return sum((values[j - 1] for j in S if j <= n), F(0)) - (
            sum(values, F(0)) if n + 1 in S else F(0))

    for w, formula, ring in ((Weights.generic(n), generic_sum, MultiPoly),
                             (Weights.concrete(values), concrete_sum, F)):
        for j in range(1, n + 2):
            assert w.weight(j) == formula((j,)) and type(w.weight(j)) is ring
            assert w.weight(j) is w.weight(j)  # stored, not rebuilt
        total = w.weight_sum(S)
        assert total == formula(S) and type(total) is ring
        zero = w.weight_sum(())
        assert type(zero) is ring and zero == 0 and zero == w.zero_scalar()
        assert type(w.one_scalar()) is ring and w.one_scalar() == 1
        if ring is MultiPoly:
            assert total.nvars == zero.nvars == n
        for j in (0, n + 2):
            with pytest.raises(ValueError, match="out of range"):
                w.weight(j)
            with pytest.raises(ValueError, match="out of range"):
                w.weight_sum((1, j))


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_type_is_stable_under_row_scaling(seed):
    rng = random.Random(seed)
    r = random_realization(rng, 4, 2)
    scaled_rows = []
    for row in r.rows:
        c = Fraction(rng.choice([1, 2, 3, -1, -5]))
        scaled_rows.append([c * x for x in row])
    scaled = Realization(scaled_rows)
    assert compute_type(scaled) == compute_type(r)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_betanbc_euler_random(seed):
    rng = random.Random(seed)
    n, ell = rng.choice([(4, 2), (5, 2), (5, 3)])
    r = random_realization(rng, n, ell)
    T = compute_type(r)
    assert len(betanbc_frames(T)) == abs(betti_and_euler(T).euler)


def test_combinatorial_type_equality_and_hash():
    T1 = CombinatorialType(4, 2, frozenset({(1, 2, 3)}))
    T2 = CombinatorialType(4, 2, frozenset({(1, 2, 3)}))
    assert T1 == T2 and hash(T1) == hash(T2)
    assert T1 != CombinatorialType(4, 2, frozenset())


@pytest.mark.parametrize("owner, attr, value", [
    ("realization", "n", 3),
    ("realization", "ell", 1),
    ("realization", "is_path", True),
    ("type", "n", 3),
    ("type", "ell", 1),
    ("type", "dep", frozenset()),
])
def test_sizes_and_dep_are_read_only(owner, attr, value):
    # writable, r.n = 3 made compute_type(r) return an n = 3 type, and
    # T.dep = frozenset() made T equal general position while betanbc_frames(T)
    # still answered the triple point's frames from its cache
    r = Realization(TRIPLE_POINT)
    T = compute_type(r)
    assert betanbc_frames(T) == EXPECTED["triple-point betanbc"]
    with pytest.raises(AttributeError):
        setattr(r if owner == "realization" else T, attr, value)
    assert (r.n, r.ell, r.is_path) == (4, 2, False)
    assert compute_type(r) == T != general_position_type(4, 2)
    assert betanbc_frames(T) == EXPECTED["triple-point betanbc"]
    assert betanbc_frames(general_position_type(4, 2)) == EXPECTED["general betanbc (n=4)"]


# ---------------------------------------------------------------------------
# refusals of malformed arguments
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("call, error, message", [
    (lambda: Realization([]), RealizationError, "empty realization"),
    (lambda: CombinatorialType(1, 2, ()), ValueError, "need n >= ell >= 1, got n=1, ell=2"),
    (lambda: CombinatorialType(4, 2, [(1, 2)]), ValueError,
     "dep member (1, 2) is not an (ell+1)-subset"),
    (lambda: CombinatorialType(4, 2, [(2, 1, 6)]), ValueError, "dep member (1, 2, 6) out of range 1..5"),
    (lambda: Weights(3, [1, 2]), ValueError, "expected 3 weights, got 2"),
    (lambda: Weights.concrete([0.5]), TypeError, "expected an exact rational coefficient, got float"),
    (lambda: stv_check(general_position_type(4, 2), Weights.generic(5)), ValueError,
     "weights are for n=5, type has n=4"),
    (lambda: MultiPoly.variable(2, 3), ValueError, "variable index 3 out of range 1..2"),
    (lambda: MultiPoly.variable(2, 1).const_value(), ValueError, "l1 is not constant"),
    (lambda: MultiPoly.zero(2).leading(), ValueError, "zero polynomial has no leading term"),
    (lambda: MultiPoly.variable(2, 1) ** -1, ValueError, "negative power of a polynomial"),
    (lambda: MultiPoly.variable(2, 1).evaluate([F(1)]), ValueError, "expected 2 values, got 1"),
    (lambda: poly_exact_div(MultiPoly.variable(2, 1), MultiPoly.zero(2)), ZeroDivisionError,
     "polynomial division by zero"),
    (lambda: RatFunc(F(1)), TypeError, "RatFunc numerator must be a MultiPoly"),
])
def test_malformed_arguments_are_refused(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message
