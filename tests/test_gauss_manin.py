"""Tests for degeneration paths, vanishing orders, the combined matrix and
the solved connection, plus the codimension-one closed forms.

Vanishing orders are cross-checked with a Lagrange-interpolation oracle that
samples the minors at rational parameter values and never touches the
package's polynomial arithmetic.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from gmarr import (
    COVER_CAVEAT,
    CombinatorialType,
    ConnectionMatrix,
    DegenerationPath,
    InconsistentSystem,
    PathError,
    ProjectionMatrix,
    Realization,
    RealizationError,
    ResonantWeights,
    Weights,
    affine_circuits,
    betanbc_frames,
    codim1_projection_closed_form,
    combined_omega,
    compute_type,
    connection_for_path,
    general_position_type,
    multiplicities,
    normalize_codim1_type,
    omega_general,
    projection_matrix,
    relative_dep,
    solve_connection,
)
from gmarr.exact import PathPoly, evaluate, parse_path_poly
from gmarr.linalg import mat_mul
from gmarr.reference import EXAMPLES, EXPECTED, render_scalar

from _helpers import (
    cofactor_det,
    dense_matmul,
    ladder_path,
    pair_add,
    pair_eq,
    pair_matrices_eq,
    pair_matrix,
    pair_mul,
    pencil_path,
    random_nonresonant_weights,
    rref_rank,
)


def path_rows(rows):
    return Realization(
        tuple(tuple(parse_path_poly(c) for c in row) for row in rows)
    )


def rational_rows(rows):
    return Realization(
        tuple(tuple(Fraction(x) for x in row) for row in rows)
    )


TRIPLE_POINT_ROWS = EXAMPLES["triple_point"]["rows"]

PATH_T1 = EXAMPLES["triple_point_path_1"]["rows"]
PATH_T2 = EXAMPLES["triple_point_path_2"]["rows"]
PATH_T3 = EXAMPLES["triple_point_path_3"]["rows"]
PATH_SELBERG = EXAMPLES["selberg_path"]["rows"]

# rows 3, 4, 5 sum to zero identically: the (3,4,5)-minor vanishes for every t
PATH_ALWAYS_DEP = [
    ["0", "1", "0"],
    ["-1", "2", "3"],
    ["0", "0", "1"],
    ["-t", "1", "0"],
    ["-t", "1", "1"],
]


def _path(rows, witness="1", **kw):
    return DegenerationPath(path_rows(rows), Fraction(witness), **kw)


# ---------------------------------------------------------------------------
# relative_dep
# ---------------------------------------------------------------------------


def test_relative_dep_of_fixture_paths():
    assert relative_dep(_path(PATH_T1).T, _path(PATH_T1).Tprime) == ((3, 4, 5),)
    assert relative_dep(_path(PATH_T2).T, _path(PATH_T2).Tprime) == (
        (1, 2, 4),
        (1, 2, 5),
    )
    assert relative_dep(_path(PATH_T3).T, _path(PATH_T3).Tprime) == (
        (1, 2, 4),
        (1, 3, 4),
        (2, 3, 4),
    )
    p = _path(PATH_SELBERG)
    assert relative_dep(p.T, p.Tprime) == EXPECTED["selberg relative dep"]


def test_relative_dep_errors():
    T = compute_type(rational_rows(TRIPLE_POINT_ROWS))
    with pytest.raises(ValueError):
        relative_dep(T, T)  # not strict
    with pytest.raises(ValueError):
        relative_dep(T, general_position_type(4, 2))  # reversed
    with pytest.raises(ValueError):
        relative_dep(T, general_position_type(5, 2))  # different n


# ---------------------------------------------------------------------------
# DegenerationPath validation
# ---------------------------------------------------------------------------


def test_path_endpoint_types():
    p = _path(PATH_T1)
    assert sorted(p.T.dep) == [(1, 2, 3)]
    assert sorted(p.Tprime.dep) == [(1, 2, 3), (3, 4, 5)]
    assert p.t_witness == Fraction(1)
    p3 = _path(PATH_T3)
    assert sorted(p3.Tprime.dep) == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]
    ps = _path(PATH_SELBERG)
    assert tuple(sorted(ps.T.dep)) == EXPECTED["selberg dep"]
    assert len(ps.Tprime.dep) == 11


def test_path_requires_parameter():
    with pytest.raises(PathError, match="not a path"):
        DegenerationPath(rational_rows(TRIPLE_POINT_ROWS), Fraction(1))


def test_path_rejects_zero_witness():
    with pytest.raises(PathError, match="nonzero"):
        DegenerationPath(path_rows(PATH_T1), Fraction(0))


def test_path_witness_size_limit():
    # bits of the witness times the highest power of t in the rows
    from gmarr.gauss_manin import MAX_WITNESS_BITS

    rows = [["0", "1", "1"], ["0", "1", "0"], ["0", "1", "-1"], ["-t^10", "0", "1"]]
    bits = MAX_WITNESS_BITS // 10
    for witness in (Fraction(2**bits - 1), Fraction(1, 2**bits - 1)):
        assert _path(rows, witness).Tprime.dep
    for witness in (Fraction(2**bits), Fraction(3, 2**bits)):
        with pytest.raises(PathError, match=f"t_witness has {bits + 1}-bit .* t\\^10"):
            _path(rows, witness)


def test_path_degenerate_at_witness():
    # rows 2 and 5 become projectively equal at t = 1
    rows = [["0", "1", "0"], ["-1", "1", "1"], ["0", "0", "1"], ["-t", "1", "0"], ["-t", "1", "1"]]
    with pytest.raises(PathError, match="degenerate at the witness"):
        _path(rows)


def test_path_requires_strict_degeneration():
    # dependence at the witness that disappears at t = 0
    rows = [["0", "1", "0"], ["-1", "1", "1 - t"], ["0", "0", "1"], ["-1", "0", "1"]]
    with pytest.raises(PathError, match="not a degeneration"):
        _path(rows)


def test_path_declared_types_checked():
    honest = _path(PATH_T1)
    ok = _path(PATH_T1, declared_T=honest.T, declared_Tprime=honest.Tprime)
    assert ok.T == honest.T and ok.Tprime == honest.Tprime
    with pytest.raises(PathError, match="T at the witness"):
        _path(PATH_T1, declared_T=general_position_type(4, 2))
    with pytest.raises(PathError, match="T' at t = 0"):
        _path(PATH_T1, declared_Tprime=honest.T)
    try:
        _path(PATH_T1, declared_Tprime=CombinatorialType(4, 2, [(1, 2, 3), (1, 2, 4)]))
    except PathError as e:
        msg = str(e)
        assert "declared-but-absent: [(1, 2, 4)]" in msg
        assert "present-but-undeclared: [(3, 4, 5)]" in msg
    else:
        pytest.fail("mismatched declared type accepted")


# ---------------------------------------------------------------------------
# vanishing orders, with a Lagrange-interpolation oracle
# ---------------------------------------------------------------------------


def _polymul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _lagrange_coeffs(xs, ys):
    acc = [Fraction(0)] * len(xs)
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, xj in enumerate(xs):
            if j == i:
                continue
            basis = _polymul(basis, [-xj, Fraction(1)])
            denom *= xi - xj
        scale = yi / denom
        for k, c in enumerate(basis):
            acc[k] += scale * c
    return acc


def ord_oracle(realization, J):
    """Order of vanishing at 0 of the J-minor, from sampled determinants."""
    bound = 0
    for i in J:
        row = realization.row(i)
        bound += max(
            (len(x.coeffs) - 1 if isinstance(x, PathPoly) else 0) for x in row
        )
    bound = max(bound, 0)
    xs = [Fraction(k) for k in range(1, bound + 2)]
    ys = []
    for t in xs:
        mat = [
            [
                x.evaluate(t) if isinstance(x, PathPoly) else Fraction(x)
                for x in realization.row(i)
            ]
            for i in J
        ]
        ys.append(cofactor_det(mat))
    for k, c in enumerate(_lagrange_coeffs(xs, ys)):
        if c:
            return k
    return None


def test_multiplicities_fixture_tables():
    assert multiplicities(_path(PATH_T1)).items == (((3, 4, 5), 1),)
    assert multiplicities(_path(PATH_T2)).items == (
        ((1, 2, 4), 1),
        ((1, 2, 5), 1),
    )
    assert multiplicities(_path(PATH_T3)).items == (
        ((1, 2, 4), 1),
        ((1, 3, 4), 1),
        ((2, 3, 4), 1),
    )
    table = multiplicities(_path(PATH_SELBERG))
    assert table.items == EXPECTED["selberg multiplicities"]
    assert table.caveat == COVER_CAVEAT


def test_multiplicities_match_interpolation_oracle():
    for rows in [PATH_T1, PATH_T2, PATH_T3, PATH_SELBERG, PATH_ALWAYS_DEP]:
        p = _path(rows)
        table = multiplicities(p).mapping()
        for J in relative_dep(p.T, p.Tprime):
            assert table[J] == ord_oracle(p.realization, J), (rows, J)


def test_ord_oracle_sees_identically_zero_minor():
    p = _path(PATH_ALWAYS_DEP)
    assert ord_oracle(p.realization, (3, 4, 5)) is None
    assert (3, 4, 5) in p.T.dep  # dependent at the witness already


def _tampered(p, T=None, Tprime=None):
    bad = object.__new__(DegenerationPath)
    bad.realization = p.realization
    bad.t_witness = p.t_witness
    bad.T = T if T is not None else p.T
    bad.Tprime = Tprime if Tprime is not None else p.Tprime
    return bad


def test_multiplicities_reject_identically_zero_minor():
    # a stored T that hides the always-dependent subset puts it into the
    # relative list, where its minor vanishes for every t
    p = _path(PATH_ALWAYS_DEP)
    lying = CombinatorialType(5, 2, [(1, 4, 6)])
    with pytest.raises(PathError, match="vanishes identically"):
        multiplicities(_tampered(p, T=lying))


def test_multiplicities_reject_nonvanishing_minor():
    p = _path(PATH_SELBERG)
    fake = CombinatorialType(5, 2, sorted(set(p.Tprime.dep) | {(1, 2, 3)}))
    with pytest.raises(PathError, match="does not vanish at t = 0"):
        multiplicities(_tampered(p, Tprime=fake))


def test_multiplicities_recompute_endpoint_types():
    p = _path(PATH_SELBERG)
    fake = CombinatorialType(
        5, 2, [S for S in p.Tprime.dep if S != (3, 4, 5)]
    )
    with pytest.raises(PathError, match="do not match a recomputation"):
        multiplicities(_tampered(p, Tprime=fake))


WORKED_PATHS = [name for name in EXAMPLES if "t_witness" in EXAMPLES[name]]


def test_connection_types_each_endpoint_once(monkeypatch):
    from gmarr import arrangement, gauss_manin

    real = arrangement.compute_type
    calls = []

    def counted(r):
        calls.append(r)
        return real(r)

    # count calls made through either module's name for it
    monkeypatch.setattr(arrangement, "compute_type", counted)
    monkeypatch.setattr(gauss_manin, "compute_type", counted, raising=False)
    for rows in (path_rows(PATH_SELBERG).rows, ladder_path(random.Random(5), 7, 3, 2).realization.rows):
        calls.clear()
        connection_for_path(DegenerationPath(Realization(rows), 1))
        assert len(calls) == 2


@pytest.mark.parametrize("name", WORKED_PATHS)
def test_type_at_matches_compute_type(name):
    ex = EXAMPLES[name]
    p = _path(ex["rows"], ex["t_witness"])
    r = p.realization
    assert r.type_at(p.t_witness) == compute_type(r.specialize(p.t_witness)) == p.T
    at_zero = compute_type(r.specialize(0))
    assert r.type_at(0) == at_zero == p.Tprime


def test_type_at_follows_replaced_rows():
    # rows are read-only: other rows make a new realization, with its own
    # type memo and its own table of unmoving-row minors
    r = _path(PATH_T1).realization
    other = _path(PATH_T3).realization
    assert r.type_at(0) != other.type_at(0)
    at_one = r.specialize(1)
    for x in (r, at_one):
        with pytest.raises(AttributeError):
            x.rows = other.rows
    assert r.rows == path_rows(PATH_T1).rows
    fresh = Realization(other.rows)
    assert fresh.type_at(1) == other.type_at(1)
    assert fresh.type_at(0) == other.type_at(0)
    # rows 1–3 stay the unmoving ones, but no longer meet in a point: a
    # minor kept from another path's table would still call (1, 2, 3) dependent
    moved = _path([["1", "1", "1"], *PATH_T3[1:]]).realization
    assert (1, 2, 3) in r.type_at(0).dep and not at_one.minor((1, 2, 3))
    fresh = Realization(moved.rows)
    assert (1, 2, 3) not in fresh.type_at(0).dep
    assert fresh.type_at(1) == moved.type_at(1)
    assert fresh.type_at(0) == moved.type_at(0)
    assert fresh.specialize(1).minor((1, 2, 3))
    assert not r.specialize(1).minor((1, 2, 3))


# every row moves; the witness type is general position, and (1, 3, 5)
# becomes dependent at t = 0
PATH_ALL_MOVING = [
    ["t", "-1", "1 + t"],
    ["1 - t", "1", "1 + t"],
    ["1 - t", "1 + t", "-1 + t"],
    ["1", "-t", "-1"],
]


def _unmoving(r):
    """Indices of the closure whose rows are the same at every t: rows of
    constant entries, and the row at infinity."""
    fixed = {i for i, row in enumerate(r.rows, start=1) if all(len(e.coeffs) <= 1 for e in row)}
    return fixed | {r.n + 1}


def _fresh_dep(r, t):
    """dep of the path at t, from rows evaluated afresh and cofactor
    determinants; None where the rows at t are no realization (a zero row,
    or away from t = 0 two proportional rows or a zero linear part)."""
    rows = [[sum(c * t**k for k, c in enumerate(e.coeffs)) for e in row] for row in r.rows]
    if not all(map(any, rows)):
        return None
    if t and (not all(any(row[1:]) for row in rows)
              or any(rref_rank([a, b]) < 2 for a, b in itertools.combinations(rows, 2))):
        return None
    closure = rows + [[1] + [0] * r.ell]
    return {
        I
        for I in itertools.combinations(range(1, r.n + 2), r.ell + 1)
        if not cofactor_det([closure[i - 1] for i in I])
    }


def _moving_rows(rng, n, ell):
    """A path realization in which every row moves: p + t·q, entries of p and
    q in {-2, ..., 2}, each row with some q ≠ 0."""
    while True:
        rows = [[PathPoly([rng.randint(-2, 2), rng.randint(-2, 2)]) for _ in range(ell + 1)]
                for _ in range(n)]
        if any(all(len(e.coeffs) <= 1 for e in row) for row in rows):
            continue
        try:
            return Realization(rows)
        except RealizationError:
            continue


def _typing_paths(rng):
    """Path realizations for the typing property, drawn one at a time."""
    yield path_rows(PATH_T1)
    yield path_rows(PATH_ALL_MOVING)
    for n, ell, k in ((6, 2, 2), (7, 2, 3), (7, 3, 2), (8, 3, 4)):
        yield Realization(ladder_path(rng, n, ell, k).realization.rows)
    for n, ell in itertools.product((6, 7), (2, 3)):
        for _ in range(3):
            yield pencil_path(rng, n, ell)
    for n, ell in ((5, 2), (6, 2), (6, 3), (7, 3)):
        yield _moving_rows(rng, n, ell)


def test_type_at_matches_fresh_cofactor_dep():
    """Typed at the witness, then at 0 and 1/2 from the same realization
    (so the later types read minors kept from the first), every type equals
    the dep of freshly evaluated rows."""
    seen, typed, paths = set(), 0, 0
    for r in _typing_paths(random.Random(22)):
        paths += 1
        fixed = _unmoving(r)
        if fixed == {r.n + 1}:
            seen.add("no unmoving finite row")
        if len(fixed) == r.n:
            seen.add("one moving row")
        for t in (Fraction(1), Fraction(0), Fraction(1, 2)):
            dep = _fresh_dep(r, t)
            if dep is None:
                with pytest.raises(RealizationError):
                    r.type_at(t)
                continue
            assert r.type_at(t).dep == dep, (r.rows, t)
            typed += 1
            if any(fixed.issuperset(J) for J in dep):
                seen.add("dependent unmoving subset")
    assert seen == {"no unmoving finite row", "one moving row", "dependent unmoving subset"}
    assert typed >= 2 * paths


def _top_level_dets(monkeypatch, ell):
    """A list that gains one entry per top-level ``_det_small`` call (an
    (ℓ+1)×(ℓ+1) matrix; the recursive calls are smaller)."""
    from gmarr import arrangement

    real, calls = arrangement._det_small, []

    def counted(rows, *shared):
        if len(rows) == ell + 1:
            calls.append(rows)
        return real(rows, *shared)

    monkeypatch.setattr(arrangement, "_det_small", counted)
    return calls


@pytest.mark.parametrize("make, u", [
    (lambda: path_rows(PATH_T1), 4),  # rows 1–3 and infinity
    (lambda: path_rows(PATH_SELBERG), 4),  # rows 1–3 and infinity
    # the five fixed rows, the rung u_3 = 0 (c = 0) and infinity
    (lambda: Realization(ladder_path(random.Random(5), 7, 3, 2).realization.rows), 7),
    (lambda: path_rows(PATH_ALL_MOVING), 1),  # infinity only: nothing shared
], ids=["triple-point", "selberg", "ladder-7-3-2", "all-moving"])
def test_path_endpoints_share_unmoving_minors(monkeypatch, make, u):
    """Typing both endpoints evaluates 2·C(n+1, ℓ+1) − C(u, ℓ+1) minors: the
    ones made only of the u unmoving rows are computed once."""
    r = make()
    assert len(_unmoving(r)) == u
    calls = _top_level_dets(monkeypatch, r.ell)
    DegenerationPath(r, 1)
    assert len(calls) == 2 * math.comb(r.n + 1, r.ell + 1) - math.comb(u, r.ell + 1)
    if u > r.ell:  # the path's own unmoving minor is still a polynomial in t
        assert isinstance(r.minor(sorted(_unmoving(r))[: r.ell + 1]), PathPoly)


def test_rational_compute_type_evaluates_every_minor(monkeypatch):
    r = rational_rows(TRIPLE_POINT_ROWS)
    calls = _top_level_dets(monkeypatch, r.ell)
    assert compute_type(r) == compute_type(r)
    assert len(calls) == 2 * math.comb(5, 3)


def _masked_rows(monkeypatch):
    """A list that gains each row whose nonzero-column mask is read."""
    from gmarr import arrangement

    real, rows = arrangement._row_mask, []

    def counted(row):
        rows.append(row)
        return real(row)

    monkeypatch.setattr(arrangement, "_row_mask", counted)
    return rows


def test_closure_row_masks_are_read_once_per_realization(monkeypatch):
    """Each closure row's mask is read once, when the realization is built,
    not once per minor (3·C(5, 3) = 30 reads for the triple point): typing
    the triple point twice reads none, and typing both ends of a path reads
    the n+1 rows of each endpoint."""
    masked = _masked_rows(monkeypatch)
    r = rational_rows(TRIPLE_POINT_ROWS)
    assert masked == [r.row(i) for i in range(1, r.n + 2)]
    masked.clear()
    assert compute_type(r) == compute_type(r) and masked == []
    for rows in (PATH_T1, PATH_SELBERG, PATH_ALL_MOVING):
        r = path_rows(rows)
        masked.clear()
        ends = [r.specialize(t) for t in (1, 0)]
        assert masked == [s.row(i) for s in ends for i in range(1, r.n + 2)]
        masked.clear()
        for s in ends:
            compute_type(s)
        assert masked == []


def test_path_typing_refuses_oversized_inputs_before_any_minor(monkeypatch):
    from gmarr import arrangement

    monkeypatch.setattr(arrangement, "MAX_TYPE_PRODUCTS", 59)
    monkeypatch.setattr(arrangement, "_det_small", lambda rows: pytest.fail("a minor was evaluated"))
    with pytest.raises(ValueError, match=r"= 60 cofactor products: over the limit 59$"):
        DegenerationPath(path_rows(PATH_T1), 1)


def _evaluated(r, t):
    """The closure's rows at t, evaluated afresh from the coefficients."""
    rows = [[sum(c * t**k for k, c in enumerate(e.coeffs)) for e in row] for row in r.rows]
    return rows + [[1] + [0] * r.ell]


def _wide_path(n, ell, k):
    """n rows with entries in ±[1, 9] drawn from ``random.Random(7)``; each
    of the first k moves onto the sum of rows k+1 and k+2 at t = 0 and is
    its own drawn row at t = 1."""
    rng = random.Random(7)
    rows = [[rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(ell + 1)] for _ in range(n)]
    into = [a + b for a, b in zip(rows[k], rows[k + 1])]
    path = [[PathPoly([x]) for x in row] for row in rows]
    for i in range(k):
        path[i] = [PathPoly([a, x - a]) for a, x in zip(into, rows[i])]
    return Realization(path)


def test_endpoint_minors_match_the_cofactor_oracle():
    """Both endpoints of each path, typed witness first or t = 0 first
    through one shared table: every minor equals the cofactor determinant
    of the evaluated rows, and so does every sub-minor the table holds."""
    paths = shared = 0
    for r in _typing_paths(random.Random(26)):
        for order in ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))):
            path = Realization(r.rows)  # a fresh table for each order
            for t in order:
                if _fresh_dep(r, t) is None:
                    continue
                s, closure = path.specialize(t), _evaluated(r, t)
                for I in itertools.combinations(range(1, r.n + 2), r.ell + 1):
                    assert s.minor(I) == cofactor_det([closure[i - 1] for i in I]), (r.rows, t, I)
            if path._fixed is None:
                continue
            paths += 1
            for (labels, cols), value in path._fixed[1].items():
                assert _unmoving(r).issuperset(labels)
                block = [[closure[i - 1][c] for c in range(r.ell + 1) if cols >> c & 1] for i in labels]
                assert value == cofactor_det(block)
                shared += len(labels) < r.ell + 1
    assert paths >= 30 and shared > 0


def _det_calls(monkeypatch):
    """A list that gains (size, key) for every block ``_det_small`` expands,
    the whole minor included; key is the block's (labels, column mask), or
    None for a block without a table."""
    from gmarr import arrangement

    real, calls = arrangement._expand, []

    def counted(rows, masks, pos, cols, labels, table):
        calls.append((len(pos), None if labels is None else (labels, cols)))
        return real(rows, masks, pos, cols, labels, table)

    monkeypatch.setattr(arrangement, "_expand", counted)
    return calls


def test_each_shared_block_is_computed_once(monkeypatch):
    """Typing both endpoints computes each (labels, columns) block of
    unmoving rows once: the second endpoint, and every later minor of the
    first, read it from the table."""
    calls = _det_calls(monkeypatch)
    for r in (path_rows(PATH_T1), Realization(ladder_path(random.Random(5), 7, 3, 2).realization.rows),
              _wide_path(9, 6, 1)):
        calls.clear()
        DegenerationPath(r, 1)
        computed = [key for _, key in calls if key is not None and None not in key[0]]
        assert len(computed) == len(set(computed)) == len(r._fixed[1]) > 0
        assert set(computed) == set(r._fixed[1])


def test_all_moving_paths_expand_as_without_a_table(monkeypatch):
    """When every finite row moves, every block below a minor keeps a row
    with no label, so typing both endpoints expands the same blocks as
    typing the same rows without a table."""
    paths = [r for r in _typing_paths(random.Random(22)) if _unmoving(r) == {r.n + 1}
             and _fresh_dep(r, Fraction(1)) is not None and _fresh_dep(r, Fraction(0)) is not None]
    assert len(paths) >= 3
    calls = _det_calls(monkeypatch)
    for r in paths:
        ends = [r.specialize(t) for t in (1, 0)]
        calls.clear()
        tabled = [compute_type(s) for s in ends], sorted(size for size, _ in calls)
        calls.clear()
        plain = [compute_type(Realization(s.rows, allow_coincident=True)) for s in ends]
        assert tabled == (plain, sorted(size for size, _ in calls))


def test_wide_path_typing_calls(monkeypatch):
    """n = 9, ℓ = 6, row 1 moving onto the sum of rows 2 and 3: typing both
    endpoints expands 2724 blocks, the whole minors included, where sharing
    only whole minors of unmoving rows took 304200.  At t = 0
    the dependent 7-subsets are the C(7, 4) = 35 that hold rows 1, 2 and 3."""
    r, calls = _wide_path(9, 6, 1), _det_calls(monkeypatch)
    assert r.type_at(1).dep == frozenset()
    assert r.type_at(0).dep == {I for I in itertools.combinations(range(1, 11), 7) if I[:3] == (1, 2, 3)}
    assert len(calls) == 2724


# ---------------------------------------------------------------------------
# the combined matrix
# ---------------------------------------------------------------------------


def test_combined_omega_weighted_sum():
    p = _path(PATH_SELBERG)
    table = multiplicities(p)
    w = Weights.generic(5)
    got = combined_omega(p.T, p.Tprime, table, 5, 2, w)
    acc = None
    for J, m in sorted(table.items):
        M = omega_general(J, 5, 2, w)
        rows = [[m * x for x in row] for row in M.entries]
        if acc is None:
            acc = rows
        else:
            acc = [
                [a + b for a, b in zip(ra, rb)] for ra, rb in zip(acc, rows)
            ]
    assert got.entries == tuple(tuple(r) for r in acc)


def test_combined_omega_equal_types_gives_zero():
    T = compute_type(rational_rows(TRIPLE_POINT_ROWS))
    m = combined_omega(T, T, {}, 4, 2)
    assert all(not x for row in m.entries for x in row)
    assert m.basis == ((2, 3), (2, 4), (3, 4))


def test_combined_omega_key_mismatch():
    p = _path(PATH_T1)
    with pytest.raises(ValueError, match="missing \\[\\(3, 4, 5\\)\\]"):
        combined_omega(p.T, p.Tprime, {}, 4, 2)
    with pytest.raises(ValueError, match="unexpected"):
        combined_omega(
            p.T, p.Tprime, {(3, 4, 5): 1, (1, 2, 4): 1}, 4, 2
        )


def test_combined_omega_rejects_bad_multiplicity():
    p = _path(PATH_T1)
    with pytest.raises(ValueError, match="positive integer"):
        combined_omega(p.T, p.Tprime, {(3, 4, 5): 0}, 4, 2)


def test_combined_omega_shape_errors():
    p = _path(PATH_T1)
    with pytest.raises(ValueError, match="n, ell"):
        combined_omega(p.T, p.Tprime, {(3, 4, 5): 1}, 5, 2)
    with pytest.raises(ValueError, match="not a degeneration"):
        combined_omega(p.Tprime, p.T, {(3, 4, 5): 1}, 4, 2)


# ---------------------------------------------------------------------------
# the solved connection
# ---------------------------------------------------------------------------


def _rendered(m: ConnectionMatrix):
    return tuple(tuple(render_scalar(x) for x in row) for row in m.entries)


def test_connection_t1():
    omega, mult = connection_for_path(_path(PATH_T1))
    assert omega.basis == ((2, 4), (3, 4))
    assert mult.items == (((3, 4, 5), 1),)
    assert _rendered(omega) == EXPECTED["connection T1"]


def test_connection_t2():
    omega, _ = connection_for_path(_path(PATH_T2))
    assert _rendered(omega) == EXPECTED["connection T2"]


def test_connection_t3():
    omega, _ = connection_for_path(_path(PATH_T3))
    assert _rendered(omega) == EXPECTED["connection T3"]


def test_connection_selberg():
    omega, mult = connection_for_path(_path(PATH_SELBERG))
    assert omega.basis == ((2, 4), (2, 5))
    assert mult.mapping()[(3, 4, 5)] == 2
    assert _rendered(omega) == EXPECTED["selberg connection"]


def test_connection_equation_holds_generic():
    for rows in [PATH_T1, PATH_T2, PATH_T3, PATH_SELBERG]:
        p = _path(rows)
        w = Weights.generic(p.T.n)
        mult = multiplicities(p)
        B = combined_omega(p.T, p.Tprime, mult, p.T.n, p.T.ell, w)
        P = projection_matrix(p.T, w)
        omega = solve_connection(P, B)
        # checked over unreduced (numerator, denominator) pairs, not through RatFunc
        Pp, Bp, Op = (pair_matrix(m.entries) for m in (P, B, omega))
        assert pair_matrices_eq(pair_mul(Pp, Op), pair_mul(Bp, Pp))


def test_connection_equation_holds_concrete():
    # independent check in plain Fraction arithmetic
    rng = random.Random(67)
    for rows in [PATH_T1, PATH_T2, PATH_T3, PATH_SELBERG]:
        p = _path(rows)
        vals = random_nonresonant_weights(rng, p.T)
        w = Weights.concrete(vals)
        mult = multiplicities(p)
        B = combined_omega(p.T, p.Tprime, mult, p.T.n, p.T.ell, w)
        P = projection_matrix(p.T, w)
        omega = solve_connection(P, B)
        Pe = [[Fraction(x) for x in row] for row in P.entries]
        Be = [[Fraction(x) for x in row] for row in B.entries]
        Oe = [[Fraction(x) for x in row] for row in omega.entries]
        assert dense_matmul(Pe, Oe, Fraction(0)) == dense_matmul(Be, Pe, Fraction(0))


# ---------------------------------------------------------------------------
# spectral certificate: Ω/λ_X is idempotent (Cohen-Orlik, Part I)
# ---------------------------------------------------------------------------


def _spectral_rank(omega: ConnectionMatrix, lam) -> int:
    """Check Ω² = λ·Ω exactly and return the integer r with tr Ω = r·λ,
    1 ≤ r ≤ |basis|; the rank of Ω, as Ω/λ is a projection."""
    assert lam, "λ_X = 0 would make the certificate vacuous"
    O = pair_matrix(omega.entries)
    assert pair_matrices_eq(pair_mul(O, O), [[(lam * a, b) for a, b in row] for row in O])
    trace = (0, 1)
    for i, row in enumerate(O):
        trace = pair_add(trace, row[i])
    ranks = [r for r in range(1, len(O) + 1) if pair_eq(trace, (r * lam, 1))]
    assert len(ranks) == 1, f"tr Ω is not r·λ_X for an r in 1..{len(O)}"
    return ranks[0]


# the collapsing edge X of each worked path (n + 1 is infinity), λ_X and the rank
SPECTRAL = EXPECTED["spectral"]


@pytest.mark.parametrize("stem", sorted(SPECTRAL))
def test_spectral_certificate_on_worked_paths(stem):
    X, lam_text, rank = SPECTRAL[stem]
    p = _path(EXAMPLES[stem]["rows"], EXAMPLES[stem]["t_witness"])
    w = Weights.generic(p.T.n)
    assert str(w.weight_sum(X)) == lam_text
    omega, _ = connection_for_path(p)
    assert _spectral_rank(omega, w.weight_sum(X)) == rank
    wc = Weights.concrete(random_nonresonant_weights(random.Random(len(stem)), p.T))
    omega, _ = connection_for_path(p, wc)
    assert _spectral_rank(omega, wc.weight_sum(X)) == rank


@pytest.mark.parametrize("stem", sorted(SPECTRAL))
def test_spectral_certificate_under_relabelling(stem):
    """Relabel the finite hyperplanes in every order: X follows the
    relabelling with ∞ fixed, and Ω² = λ_σ(X)·Ω holds with the same rank."""
    X, _, rank = SPECTRAL[stem]
    rows = EXAMPLES[stem]["rows"]
    n = len(rows)
    for perm in itertools.permutations(range(1, n + 1)):
        new_label = {old: new for new, old in enumerate(perm, 1)} | {n + 1: n + 1}
        p = _path([rows[old - 1] for old in perm], EXAMPLES[stem]["t_witness"])
        omega, _ = connection_for_path(p)
        lam = Weights.generic(n).weight_sum(sorted(new_label[i] for i in X))
        assert _spectral_rank(omega, lam) == rank, perm


@pytest.mark.parametrize(
    "rung", [(6, 3, 2), (7, 2, 3), (7, 3, 3), (8, 2, 3), (7, 3, 2)], ids=str
)
def test_spectral_certificate_on_ladder_paths(rung):
    # X is the set of rows that coincide in u_ell = 0 at t = 0; the rank is
    # |βnbc(T)| − |βnbc(A₀)|, A₀ the arrangement at t = 0 with X merged
    n, ell, _ = rung
    p = ladder_path(random.Random(sum(rung)), *rung)
    at0 = p.realization.specialize(0)
    unit = (0,) * ell + (1,)
    X = tuple(i for i in range(1, n + 1) if at0.row(i) == unit)
    omega, _ = connection_for_path(p)
    rank = _spectral_rank(omega, Weights.generic(n).weight_sum(X))
    merged = [at0.row(i) for i in range(1, n + 1) if i not in X[1:]]
    A0 = compute_type(Realization(merged))
    assert rank == len(betanbc_frames(p.T)) - len(betanbc_frames(A0))


@pytest.mark.parametrize("rung, rank", [((6, 3, 2), 3), ((7, 2, 3), 6)], ids=str)
def test_spectral_certificate_on_relabelled_ladder_paths(rung, rank):
    """Seeded relabellings of the finite hyperplanes of two ladder rungs: X
    follows the relabelling with ∞ fixed, and Ω² = λ_σ(X)·Ω holds with the
    rank of the path in its own labels."""
    n, ell, _ = rung
    p = ladder_path(random.Random(sum(rung)), *rung)
    rows = p.realization.rows
    at0 = p.realization.specialize(0)
    X = tuple(i for i in range(1, n + 1) if at0.row(i) == (0,) * ell + (1,))
    rng = random.Random(n * ell)
    for _ in range(4):
        perm = rng.sample(range(1, n + 1), n)
        new_label = {old: new for new, old in enumerate(perm, 1)}
        q = DegenerationPath(Realization([rows[old - 1] for old in perm]), p.t_witness)
        omega, _ = connection_for_path(q)
        lam = Weights.generic(n).weight_sum(sorted(new_label[i] for i in X))
        assert _spectral_rank(omega, lam) == rank, perm


def test_connection_symbolic_evaluates_to_concrete():
    rng = random.Random(71)
    cases = [(_path(PATH_SELBERG), 3)]
    cases += [(ladder_path(random.Random(73), n, 3, 2), 2) for n in (6, 7)]
    for p, draws in cases:
        sym, _ = connection_for_path(p)
        for _ in range(draws):
            vals = random_nonresonant_weights(rng, p.T)
            num, _ = connection_for_path(p, Weights.concrete(vals))
            for rs, rn in zip(sym.entries, num.entries):
                for s, c in zip(rs, rn):
                    assert evaluate(s, vals) == Fraction(c)


def _witness_circuit_path(rng, n, ell):
    """A path already degenerate at the witness t = 1, like the Selberg
    path: u_1 = 0, u_2 = 0 and u_1 = u_2 meet in a codimension-two flat (a
    triple point at ℓ = 2, three planes through a line at ℓ = 3), the
    fourth hyperplane u_1 + 2·u_2 = t moves into that flat at t = 0, and the
    other n − 4 are fixed with entries in ±[1, 9]."""
    pad = [PathPoly([0])] * (ell - 2)
    const = lambda *cs: [PathPoly([c]) for c in cs] + pad
    fixed = [const(0, 1, 0), const(0, 0, 1), const(0, 1, -1),
             [PathPoly([0, -1]), PathPoly([1]), PathPoly([2])] + pad]
    while True:
        rows = fixed + [[PathPoly([rng.choice((-1, 1)) * rng.randint(1, 9)])
                         for _ in range(ell + 1)] for _ in range(n - 4)]
        try:
            return DegenerationPath(Realization(rows), 1)
        except (PathError, RealizationError):
            continue


@pytest.mark.parametrize("n, ell", [(9, 2), (8, 3)], ids=str)
def test_degenerate_witness_paths_with_multi_term_entries(n, ell):
    """Affine circuits at the witness give multi-term entries, which the
    ladder never has: symbolic Ω specialises to the concrete Ω at three
    seeded weight vectors, and P·Ω = B·P over unreduced pairs."""
    p = _witness_circuit_path(random.Random(n * ell), n, ell)
    assert affine_circuits(p.T)
    w = Weights.generic(n)
    B = combined_omega(p.T, p.Tprime, multiplicities(p), n, ell, w)
    P = projection_matrix(p.T, w)
    omega = solve_connection(P, B)
    assert max(len(x.terms) for row in P.numerators for x in row) > 1
    Pp, Bp, Op = (pair_matrix(m.entries) for m in (P, B, omega))
    assert pair_matrices_eq(pair_mul(Pp, Op), pair_mul(Bp, Pp))
    rng = random.Random(n + ell)
    for _ in range(3):
        vals = random_nonresonant_weights(rng, p.T)
        concrete, _ = connection_for_path(p, Weights.concrete(vals))
        assert concrete.basis == omega.basis
        for rs, rc in zip(omega.entries, concrete.entries):
            assert [evaluate(s, vals) for s in rs] == [Fraction(c) for c in rc]


def test_corrupted_multiplicity_detected_or_differs():
    p = _path(PATH_SELBERG)
    honest = multiplicities(p).mapping()
    corrupted = dict(honest)
    corrupted[(3, 4, 5)] = 1
    w = Weights.generic(5)
    B = combined_omega(p.T, p.Tprime, corrupted, 5, 2, w)
    P = projection_matrix(p.T, w)
    try:
        omega = solve_connection(P, B)
    except InconsistentSystem as e:
        assert e.row_label is not None
        return
    honest_omega, _ = connection_for_path(p)
    assert omega.entries != honest_omega.entries


def test_solve_connection_basis_mismatch():
    p = _path(PATH_T1)
    w = Weights.generic(4)
    P = projection_matrix(p.T, w)
    bad = ConnectionMatrix(
        basis=((2, 3), (2, 4)), entries=((w.zero_scalar(),) * 2,) * 2
    )
    with pytest.raises(ValueError, match="disagree"):
        solve_connection(P, bad)


def _zero_connection(basis):
    return ConnectionMatrix(
        basis=basis, entries=((Fraction(0),) * len(basis),) * len(basis)
    )


def test_solve_connection_non_unit_frame_row():
    # P = N/2: the row for (2, 4) is (1, 1/2), not its unit vector
    rows = ((2, 3), (2, 4), (3, 4))
    P = ProjectionMatrix(
        row_basis=rows,
        col_basis=((2, 4), (3, 4)),
        numerators=((2, 2), (2, 1), (0, 2)),
        denominator=2,
    )
    with pytest.raises(InconsistentSystem) as exc:
        solve_connection(P, _zero_connection(rows))
    assert exc.value.row_label == (2, 4)


def test_solve_connection_frame_without_row():
    # P = N/3: the frame (2, 4) has its unit row, (2, 5) labels no row
    rows = ((2, 3), (2, 4), (3, 4))
    P = ProjectionMatrix(
        row_basis=rows,
        col_basis=((2, 4), (2, 5)),
        numerators=((0, 3), (3, 0), (3, 3)),
        denominator=3,
    )
    with pytest.raises(InconsistentSystem) as exc:
        solve_connection(P, _zero_connection(rows))
    assert exc.value.row_label == (2, 5)


def test_solve_connection_names_a_corrupted_numerator_row():
    # On the Selberg path, adding d to one numerator of the rows below makes
    # N·W = d·(B·N) fail first on that row.  (A corrupted (4, 5) row is
    # caught too, but first on the row (3, 5): through the frame rows of B
    # it also changes W.)  Concrete weights take the integer route, with
    # B scaled by s > 1: some entry of B is not integral.
    p = _path(PATH_SELBERG)
    mult = multiplicities(p)
    concrete = Weights.concrete(random_nonresonant_weights(random.Random(677), p.T))
    for w in (Weights.generic(5), concrete):
        B = combined_omega(p.T, p.Tprime, mult, 5, 2, w)
        P = projection_matrix(p.T, w)
        assert P.denominator != 1
        if w is concrete:
            assert any(x.denominator != 1 for row in B.entries for x in row)
        solve_connection(P, B)
        for label in ((2, 3), (3, 4), (3, 5)):
            i = P.row_basis.index(label)
            for j in range(len(P.col_basis)):
                N = [list(row) for row in P.numerators]
                N[i][j] = N[i][j] + P.denominator  # P's entry plus 1
                bad = ProjectionMatrix(P.row_basis, P.col_basis, tuple(map(tuple, N)), P.denominator)
                with pytest.raises(InconsistentSystem) as exc:
                    solve_connection(bad, B)
                assert exc.value.row_label == label, (w, label, j)


def test_mat_mul_rejects_mismatched_inner_dimensions():
    with pytest.raises(ValueError, match="inner dimensions"):
        mat_mul([[Fraction(1), Fraction(2), Fraction(3)]], [[Fraction(1)]] * 2)


def test_solve_connection_empty_target():
    P = ProjectionMatrix(row_basis=((2, 3),), col_basis=(), numerators=((),), denominator=1)
    B = ConnectionMatrix(basis=((2, 3),), entries=((Fraction(0),),))
    out = solve_connection(P, B)
    assert out.basis == () and out.entries == ()


def test_inconsistent_system_attributes():
    err = InconsistentSystem((2, 4), "row mismatch")
    assert err.row_label == (2, 4)
    assert "row mismatch" in str(err)


# ---------------------------------------------------------------------------
# codimension-one closed forms
# ---------------------------------------------------------------------------


def _assert_same_projection(a: ProjectionMatrix, b: ProjectionMatrix):
    assert a.row_basis == b.row_basis
    assert a.col_basis == b.col_basis
    for ra, rb in zip(a.entries, b.entries):
        for x, y in zip(ra, rb):
            assert x == y, (render_scalar(x), render_scalar(y))


def test_codim1_first_branch_matches_solver():
    T = CombinatorialType(4, 2, [(1, 2, 3)])
    _assert_same_projection(
        codim1_projection_closed_form(T), projection_matrix(T, Weights.generic(4))
    )


def test_codim1_last_branch_matches_solver():
    T = CombinatorialType(4, 2, [(3, 4, 5)])
    _assert_same_projection(
        codim1_projection_closed_form(T), projection_matrix(T, Weights.generic(4))
    )


def test_codim1_dimension_three_both_branches():
    for dep in [(1, 2, 3, 4), (3, 4, 5, 6)]:
        T = CombinatorialType(5, 3, [dep])
        _assert_same_projection(
            codim1_projection_closed_form(T),
            projection_matrix(T, Weights.generic(5)),
        )


def test_codim1_triple_point_gives_the_solved_omega():
    # the closed form's denominator is λ_K, the solver's d'·lcm_B(λ_B); both
    # P must give the same Ω through solve_connection
    rng = random.Random(79)
    for rows in (PATH_T1, PATH_T2, PATH_T3):
        p = _path(rows)
        assert p.T.dep == frozenset({(1, 2, 3)})
        for w in (Weights.generic(4), Weights.concrete(random_nonresonant_weights(rng, p.T))):
            B = combined_omega(p.T, p.Tprime, multiplicities(p), 4, 2, w)
            closed = codim1_projection_closed_form(p.T, w)
            solved = projection_matrix(p.T, w)
            assert closed.denominator == w.weight_sum((1, 2, 3))
            assert closed.denominator != solved.denominator
            assert solve_connection(closed, B) == solve_connection(solved, B)


def test_codim1_concrete_weights():
    rng = random.Random(73)
    for dep in [(1, 2, 3), (3, 4, 5)]:
        T = CombinatorialType(4, 2, [dep])
        vals = random_nonresonant_weights(rng, T)
        w = Weights.concrete(vals)
        _assert_same_projection(
            codim1_projection_closed_form(T, w), projection_matrix(T, w)
        )


def test_codim1_requires_standard_position():
    T = CombinatorialType(5, 2, [(2, 4, 5)])
    with pytest.raises(ValueError, match="standard position"):
        codim1_projection_closed_form(T)


def test_codim1_basis_is_the_betanbc_frames_of_every_standard_type(monkeypatch):
    """The closed form's columns are the betanbc frames of T for both
    standard positions of K, every 1 <= ℓ <= 4 and ℓ < n <= 8, so its guard
    against disagreeing frames holds there; with the frames changed, the
    guard refuses."""
    from gmarr import gauss_manin

    for ell in range(1, 5):
        for n in range(ell + 1, 9):
            for K in (tuple(range(1, ell + 2)), tuple(range(n - ell + 1, n + 2))):
                T = CombinatorialType(n, ell, [K])
                assert codim1_projection_closed_form(T).col_basis == betanbc_frames(T)
    monkeypatch.setattr(gauss_manin, "betanbc_frames", lambda T: betanbc_frames(T)[1:])
    with pytest.raises(RuntimeError, match="betanbc frames disagree"):
        codim1_projection_closed_form(CombinatorialType(4, 2, [(1, 2, 3)]))


def test_normalize_codim1_type():
    T = CombinatorialType(5, 2, [(2, 4, 5)])
    normalized, perm = normalize_codim1_type(T)
    assert normalized.dep == frozenset({(1, 2, 3)})
    assert perm == {2: 1, 4: 2, 5: 3, 1: 4, 3: 5}
    _assert_same_projection(
        codim1_projection_closed_form(normalized),
        projection_matrix(normalized, Weights.generic(5)),
    )


def test_normalize_codim1_keeps_last_row():
    T = CombinatorialType(5, 2, [(1, 3, 6)])
    normalized, perm = normalize_codim1_type(T)
    assert normalized.dep == frozenset({(4, 5, 6)})
    assert perm[1] == 4 and perm[3] == 5
    assert 6 not in perm


def test_codim1_rejects_wrong_dep_count():
    with pytest.raises(ValueError, match="need exactly 1"):
        codim1_projection_closed_form(general_position_type(4, 2))
    with pytest.raises(ValueError, match="need exactly 1"):
        normalize_codim1_type(general_position_type(4, 2))
    p = _path(PATH_SELBERG)
    with pytest.raises(ValueError, match="need exactly 1"):
        codim1_projection_closed_form(p.T)


def test_codim1_resonant_weights_rejected():
    T = CombinatorialType(4, 2, [(1, 2, 3)])
    w = Weights.concrete([Fraction(1), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7)])
    with pytest.raises(ResonantWeights):
        codim1_projection_closed_form(T, w)


def test_codim1_weights_size_mismatch():
    T = CombinatorialType(4, 2, [(1, 2, 3)])
    with pytest.raises(ValueError):
        codim1_projection_closed_form(T, Weights.generic(5))
