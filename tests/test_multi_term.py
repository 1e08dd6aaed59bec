"""Projections whose entries have many terms, and a pole of the frame basis.

The ladder paths of the benchmark give single-term entries.  Here the
generic projection of a random line arrangement has multi-term numerators
and a multi-term denominator, and it must specialise to the concrete
projection, which runs on ints.  The second case is a frame-basis pole: at
weights with λ₂ + λ₆ + λ₇ = 0 the frame monomials stop spanning top
cohomology modulo coboundaries, and the generic denominator carries that
linear factor.  Random pencil paths, one row moving into the pencil of two
others, give multi-term connection matrices along whole degenerations.
"""

import json
import random
from fractions import Fraction

import pytest

from _helpers import pencil_path, random_nonresonant_weights

from gmarr.arrangement import Realization, RealizationError, Weights, compute_type
from gmarr.cli import main
from gmarr.exact import MultiPoly, evaluate, poly_exact_div
from gmarr.gauss_manin import DegenerationPath, PathError, connection_for_path
from gmarr.orlik_solomon import SpanDefect, projection_matrix

# nine lines in the plane with entries in {-1, 0, 1}
NINE_LINES = [[1, 1, 0], [0, -1, -1], [1, 1, 1], [0, -1, 1], [-1, 1, 0],
              [-1, -1, 1], [0, 1, 0], [1, -1, -1], [0, 0, 1]]
PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139)

# seven planes in 3-space and weights with λ2 + λ6 + λ7 = 0
POLE_ROWS = [[-2, 1, 1, 0], [0, -1, 1, -2], [2, -2, -1, 1], [-2, -2, -1, 2],
             [0, 2, 2, 0], [0, 0, -1, -1], [0, -2, -2, -1]]
POLE_WEIGHTS = ["1/101", "3/103", "5/107", "7/109", "11/113", "13/127", "-1720/13081"]


def test_multi_term_generic_projection_specialises_to_the_concrete_one():
    T = compute_type(Realization(NINE_LINES))
    P = projection_matrix(T, Weights.generic(T.n))
    assert max(len(x.terms) for row in P.numerators for x in row) > 1
    assert len(P.denominator.terms) > 1
    w = [Fraction((-1) ** j * (2 * j + 1), p) for j, p in enumerate(PRIMES)]
    Q = projection_matrix(T, Weights.concrete(w))
    assert type(Q.denominator) is int
    assert (P.row_basis, P.col_basis) == (Q.row_basis, Q.col_basis)
    for row, concrete in zip(P.entries, Q.entries):
        assert [x.evaluate(w) for x in row] == list(concrete)


def test_frame_basis_pole_is_refused_at_concrete_weights():
    T = compute_type(Realization(POLE_ROWS))
    w = [Fraction(v) for v in POLE_WEIGHTS]
    assert w[1] + w[5] + w[6] == 0
    with pytest.raises(SpanDefect, match="dependent modulo coboundaries") as exc:
        projection_matrix(T, Weights.concrete(w))
    assert "(2, 6, 7)" in str(exc.value)


def test_frame_basis_pole_divides_the_generic_denominator():
    T = compute_type(Realization(POLE_ROWS))
    d = projection_matrix(T, Weights.generic(T.n)).denominator
    l2, l6, l7 = (MultiPoly.variable(T.n, j) for j in (2, 6, 7))
    q = poly_exact_div(d, l2 + l6 + l7)
    assert q * (l2 + l6 + l7) == d and len(q.terms) == 1


def test_connection_through_the_frame_basis_pole_with_generic_weights(tmp_path, capsys):
    # row 4 moves into the pencil of rows 6 and 7; the witness is t = 1
    rows = [[str(x) for x in row] for row in POLE_ROWS]
    rows[3] = ["-2*t", "-4 + 2*t", "-5 + 4*t", "-3 + 5*t"]
    f = tmp_path / "pole_path.json"
    f.write_text(json.dumps({"n": 7, "ell": 3, "rows": rows,
                             "weights": POLE_WEIGHTS, "t_witness": "1"}))
    assert main(["connection", str(f), "--weights", "generic"]) == 0
    assert capsys.readouterr().out
    assert main(["connection", str(f)]) == 2
    assert "(2, 6, 7)" in capsys.readouterr().err


def test_pencil_paths_specialise_to_the_concrete_connection():
    """Eighty seeded pencil paths (n ∈ {6, 7}, ℓ ∈ {2, 3}, witness t = 1):
    each is refused with ``PathError`` or ``RealizationError``, or its
    symbolic Ω, whose entries have many terms, evaluates exactly to the
    concrete Ω at two nonresonant weight vectors.  Their projections run
    the general routes of ``poly_exact_div`` and ``poly_gcd``."""
    degenerations, most_terms = 0, 0
    for seed in range(80):
        rng = random.Random(seed)
        n, ell = rng.choice((6, 7)), rng.choice((2, 3))
        try:
            p = DegenerationPath(pencil_path(rng, n, ell), 1)
        except (PathError, RealizationError):
            continue
        degenerations += 1
        omega, _ = connection_for_path(p)
        most_terms = max([most_terms, *(len(x.num.terms) for row in omega.entries for x in row)])
        for _ in range(2):
            values = random_nonresonant_weights(rng, p.T)
            concrete, _ = connection_for_path(p, Weights.concrete(values))
            assert concrete.basis == omega.basis, seed
            specialised = tuple(tuple(evaluate(x, values) for x in row) for row in omega.entries)
            assert specialised == concrete.entries, seed
    assert degenerations >= 10 and most_terms > 1, (degenerations, most_terms)
