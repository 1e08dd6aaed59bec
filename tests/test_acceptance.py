"""Acceptance gate: one test per shipped guarantee, all at zero tolerance.

Every comparison is exact (rational/polynomial equality, never floats).
Each test prints a single PASS line on success; a failure shows up both as
the pytest failure and as the missing line.
"""

import random
import time
from fractions import Fraction

import pytest

from gmarr import (
    CombinatorialType,
    DegenerationPath,
    InconsistentSystem,
    PathError,
    Realization,
    Weights,
    a_lambda_matrix,
    betanbc_frames,
    betti_and_euler,
    codim1_projection_closed_form,
    combined_omega,
    compute_type,
    connection_for_path,
    multiplicities,
    nbc_sets,
    omega_general,
    projection_matrix,
    solve_connection,
    stv_check,
)
from gmarr.exact import evaluate, parse_path_poly
from gmarr.reference import EXAMPLES, EXPECTED, render_scalar

from _helpers import (
    dense_matmul,
    pair_matrices_eq,
    pair_matrix,
    pair_mul,
    random_nonresonant_weights,
    random_realization,
    rref_rank,
)

# the degeneration paths among the worked examples of the golden source
PATH_STEMS = [stem for stem, doc in EXAMPLES.items() if "t_witness" in doc]


def rational_rows(rows):
    return Realization(tuple(tuple(Fraction(x) for x in row) for row in rows))


def path_rows(rows):
    return Realization(tuple(tuple(parse_path_poly(c) for c in row) for row in rows))


def example_path(stem):
    doc = EXAMPLES[stem]
    return DegenerationPath(path_rows(doc["rows"]), Fraction(doc["t_witness"]))


def rendered(entries):
    return tuple(tuple(render_scalar(x) for x in row) for row in entries)


def report(line: str):
    print(line, flush=True)


def test_criterion_1_worked_example_golden_suite():
    start = time.monotonic()
    T = compute_type(rational_rows(EXAMPLES["triple_point"]["rows"]))
    w = Weights.generic(4)

    P = projection_matrix(T, w)
    assert P.row_basis == ((2, 3), (2, 4), (3, 4))
    assert P.col_basis == ((2, 4), (3, 4))
    assert rendered(P.entries) == EXPECTED["projection triple-point"]

    for J in [(3, 4, 5), (1, 2, 5), (1, 2, 4), (1, 3, 4), (2, 3, 4)]:
        expected = EXPECTED["omega-general " + "".join(map(str, J))]
        assert rendered(omega_general(J, 4, 2, w).entries) == expected, J

    for k in (1, 2, 3):
        omega, _ = connection_for_path(example_path(f"triple_point_path_{k}"))
        assert omega.basis == ((2, 4), (3, 4))
        assert rendered(omega.entries) == EXPECTED[f"connection T{k}"], k

    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"golden suite took {elapsed:.2f}s"
    report(
        "criterion 1: PASS - projection, five general blocks and three "
        f"connection matrices match the worked example exactly ({elapsed:.2f}s)"
    )


def test_criterion_2_doubled_order_golden_suite():
    start = time.monotonic()
    S = compute_type(rational_rows(EXAMPLES["selberg"]["rows"]))
    w = Weights.generic(5)

    assert betanbc_frames(S) == EXPECTED["selberg betanbc"]

    conditions = stv_check(S, w).conditions
    assert tuple(members for members, _ in conditions) == EXPECTED["selberg dense edges"]

    P = projection_matrix(S, w)
    assert P.row_basis == ((2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5))
    assert rendered(P.entries) == EXPECTED["selberg projection"]

    dp = example_path("selberg_path")
    table = multiplicities(dp).mapping()
    assert table[(3, 4, 5)] == 2
    assert all(m == 1 for J, m in table.items() if J != (3, 4, 5))
    assert len(table) == 7

    omega, _ = connection_for_path(dp)
    assert omega.basis == ((2, 4), (2, 5))
    assert rendered(omega.entries) == EXPECTED["selberg connection"]

    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"doubled-order suite took {elapsed:.2f}s"
    report(
        "criterion 2: PASS - frames, conditions, projection, the doubled "
        f"vanishing order and the scalar connection all match ({elapsed:.2f}s)"
    )


def _assert_specializes(sym_entries, num_entries, vals):
    for rs, rn in zip(sym_entries, num_entries):
        for s, c in zip(rs, rn):
            assert evaluate(s, vals) == Fraction(c)


def test_criterion_3_symbolic_specializes_to_numeric():
    # every worked path, grouped by the type at its witness
    rng = random.Random(20260821)
    by_type = {}
    for stem in PATH_STEMS:
        p = example_path(stem)
        by_type.setdefault(p.T, []).append((p, multiplicities(p), connection_for_path(p)[0]))

    for T, paths in by_type.items():
        Psym = projection_matrix(T, Weights.generic(T.n))
        for _ in range(50):
            vals = random_nonresonant_weights(rng, T)
            w = Weights.concrete(vals)
            Pnum = projection_matrix(T, w)
            _assert_specializes(Psym.entries, Pnum.entries, vals)
            for p, table, sym_omega in paths:
                B = combined_omega(p.T, p.Tprime, table, T.n, T.ell, w)
                _assert_specializes(sym_omega.entries, solve_connection(Pnum, B).entries, vals)
    report(
        f"criterion 3: PASS - 50 random nonresonant weight vectors on each of "
        f"{len(PATH_STEMS)} worked paths: numeric projection and connection "
        "equal the evaluated symbolic ones"
    )


def test_criterion_4_random_realizations_invariants():
    start = time.monotonic()
    rng = random.Random(97)
    checked = 0
    for i in range(100):
        if i % 3 == 2:
            ell = 3
            n = 4 + (i // 3) % 2
        else:
            ell = 2
            n = 3 + i % 4
        r = random_realization(rng, n, ell)
        T = compute_type(r)
        frames = betanbc_frames(T)
        be = betti_and_euler(T)
        assert len(frames) == abs(be.euler), (r.rows, frames, be)

        vals = random_nonresonant_weights(rng, T)
        w = Weights.concrete(vals)
        mats = [a_lambda_matrix(T, w, q) for q in range(ell)]
        top = len(nbc_sets(T, ell))
        assert top - rref_rank(mats[-1]) == len(frames), r.rows
        for q in range(ell - 1):
            prod = dense_matmul(mats[q + 1], mats[q], Fraction(0))
            assert all(x == 0 for row in prod for x in row), (r.rows, q)
        checked += 1
    elapsed = time.monotonic() - start
    assert checked == 100
    assert elapsed < 60.0, f"random-realization sweep took {elapsed:.2f}s"
    report(
        "criterion 4: PASS - 100 random realizations: frame count equals "
        "|euler|, top corank equals frame count, composites vanish "
        f"({elapsed:.2f}s)"
    )


def test_criterion_5_codim1_closed_form_matches_solver():
    cases = []
    for ell, ns in [(2, range(4, 10)), (3, range(5, 9)), (4, range(6, 8))]:
        for n in ns:
            if n < ell + 2:
                continue
            cases.append((n, ell, tuple(range(1, ell + 2))))
            cases.append((n, ell, tuple(range(n - ell + 1, n + 2))))
    assert len(cases) >= 20
    for n, ell, K in cases:
        T = CombinatorialType(n, ell, [K])
        closed = codim1_projection_closed_form(T)
        solved = projection_matrix(T, Weights.generic(n))
        assert closed.row_basis == solved.row_basis
        assert closed.col_basis == solved.col_basis
        for ra, rb in zip(closed.entries, solved.entries):
            for x, y in zip(ra, rb):
                assert x == y, (n, ell, K)
    report(
        f"criterion 5: PASS - {len(cases)} single-dependency types on both "
        "branches: closed form equals the solved projection"
    )


def test_criterion_6_connection_equation_and_corruption():
    for stem in PATH_STEMS:
        p = example_path(stem)
        w = Weights.generic(p.T.n)
        mult = multiplicities(p)
        B = combined_omega(p.T, p.Tprime, mult, p.T.n, p.T.ell, w)
        P = projection_matrix(p.T, w)
        omega = solve_connection(P, B)
        # exact over unreduced (numerator, denominator) pairs
        Pp, Bp, Op = (pair_matrix(m.entries) for m in (P, B, omega))
        assert pair_matrices_eq(pair_mul(Pp, Op), pair_mul(Bp, Pp))

    # corrupting the doubled order must not go unnoticed
    p = example_path("selberg_path")
    w = Weights.generic(5)
    corrupted = multiplicities(p).mapping()
    corrupted[(3, 4, 5)] = 1
    B = combined_omega(p.T, p.Tprime, corrupted, 5, 2, w)
    P = projection_matrix(p.T, w)
    honest, _ = connection_for_path(p)
    try:
        wrong = solve_connection(P, B)
    except InconsistentSystem:
        detected = "rejected as inconsistent"
    else:
        assert wrong.entries != honest.entries
        detected = "produced a visibly different matrix"
    report(
        "criterion 6: PASS - P*Omega = B*P verified on every solve; "
        f"corrupted multiplicity {detected}"
    )


def test_criterion_7_invalid_paths_rejected():
    # declared limit type the rows do not realize
    wrong = CombinatorialType(4, 2, [(1, 2, 3), (1, 2, 4)])
    with pytest.raises(PathError, match="T' at t = 0"):
        DegenerationPath(
            example_path("triple_point_path_1").realization, Fraction(1), declared_Tprime=wrong
        )

    # a stored type hiding an identically-vanishing minor
    always = [
        ["0", "1", "0"],
        ["-1", "2", "3"],
        ["0", "0", "1"],
        ["-t", "1", "0"],
        ["-t", "1", "1"],
    ]
    honest = DegenerationPath(path_rows(always), Fraction(1))
    assert (3, 4, 5) in honest.T.dep
    tampered = object.__new__(DegenerationPath)
    tampered.realization = honest.realization
    tampered.t_witness = honest.t_witness
    tampered.T = CombinatorialType(5, 2, [(1, 4, 6)])
    tampered.Tprime = honest.Tprime
    with pytest.raises(PathError, match="vanishes identically"):
        multiplicities(tampered)
    report(
        "criterion 7: PASS - paths failing their declared limit type and "
        "identically-degenerate minors are both rejected"
    )
