"""End-to-end tests for the command line: file parsing, rendered output in
both formats, exit codes and error channels.

Commands run in-process through ``main(argv)`` with captured streams; one
subprocess test exercises the ``python3 -m`` entry point.
"""

import json
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gmarr import COVER_CAVEAT, InconsistentSystem
from gmarr.cli import (
    InputError,
    main,
    parse_arrangement_file,
    parse_path_file,
)
from gmarr.reference import EXAMPLES, EXPECTED, render_scalar

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

ARRANGEMENT_FILES = ["triple_point.json", "selberg.json"]
PATH_FILES = [
    "triple_point_path_1.json",
    "triple_point_path_2.json",
    "triple_point_path_3.json",
    "selberg_path.json",
]


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fx(name: str) -> str:
    return str(FIXTURES / name)


# ---------------------------------------------------------------------------
# file parsing
# ---------------------------------------------------------------------------


def test_fixtures_equal_the_golden_examples():
    fixtures = {f.stem: json.loads(f.read_text()) for f in FIXTURES.glob("*.json")}
    assert set(fixtures) == set(EXAMPLES)
    for stem, doc in fixtures.items():
        assert doc == EXAMPLES[stem], stem


def test_fixture_lists_cover_every_file():
    assert sorted(ARRANGEMENT_FILES + PATH_FILES) == sorted(f.name for f in FIXTURES.glob("*.json"))


def _assert_renders_back(name, r, w):
    doc = json.loads((FIXTURES / name).read_text())
    rows = [[render_scalar(e) for e in r.row(i)] for i in range(1, r.n + 1)]
    assert rows == doc["rows"], name
    assert ("generic" if w.is_generic else [str(v) for v in w.values]) == doc["weights"], name
    return doc


def test_arrangement_files_round_trip():
    """What an arrangement file parses to renders back to the file's
    strings: every row entry through ``render_scalar``, and the weights."""
    for name in ARRANGEMENT_FILES:
        _assert_renders_back(name, *parse_arrangement_file((FIXTURES / name).read_bytes()))


def test_path_files_round_trip():
    """As for arrangement files, and the witness and the declared dependent
    sets equal the file's values."""
    for name in PATH_FILES:
        pf = parse_path_file((FIXTURES / name).read_bytes())
        doc = _assert_renders_back(name, pf.realization, pf.weights)
        assert str(pf.t_witness) == doc["t_witness"], name
        for key, T in [("declared_dep", pf.declared_T),
                       ("declared_dep_prime", pf.declared_Tprime)]:
            declared = {tuple(J) for J in doc[key]} if key in doc else None
            assert (None if T is None else T.dep) == declared, (name, key)


def test_selberg_path_file_declares_limit_type():
    pf = parse_path_file((FIXTURES / "selberg_path.json").read_bytes())
    assert pf.declared_T is None
    assert pf.declared_Tprime is not None
    assert len(pf.declared_Tprime.dep) == 11
    assert pf.t_witness == Fraction(1)


GOOD_DOC = EXAMPLES["triple_point"]
ROWS = GOOD_DOC["rows"]


def _mutated(**changes):
    return json.dumps({**GOOD_DOC, **changes})


def test_integer_cells_accepted():
    r, w = parse_arrangement_file(_mutated(rows=[[int(x) for x in row] for row in ROWS]))
    assert r.n == 4 and w.is_generic


def test_concrete_weights_parsed():
    _, w = parse_arrangement_file(_mutated(weights=["1/5", "-2/7", "3/11", "1/13"]))
    assert not w.is_generic
    assert w.values == (
        Fraction(1, 5),
        Fraction(-2, 7),
        Fraction(3, 11),
        Fraction(1, 13),
    )


@pytest.mark.parametrize(
    "data, fragment",
    [
        (b"{ not json", "not valid JSON"),
        (b"[1, 2]", "top level must be a JSON object"),
        (b"\xff\xfe{}", "not UTF-8"),
        (_mutated(n="4"), '"n" must be a positive integer'),
        (_mutated(n=0), '"n" must be a positive integer'),
        (_mutated(n=True), '"n" must be a positive integer'),
        (_mutated(ell=None), '"ell" must be a positive integer'),
        (_mutated(rows="nope"), '"rows" must be a list of 4 rows'),
        (_mutated(rows=[ROWS[0]]), '"rows" must be a list of 4 rows'),
        (
            _mutated(rows=[["0", "1"], *ROWS[1:]]),
            "row 1 must have 3 entries",
        ),
        (
            _mutated(rows=[["0", "1", 1.5], *ROWS[1:]]),
            "entries must be exact rational strings",
        ),
        (
            _mutated(rows=[["0", "1", "x"], *ROWS[1:]]),
            "row 1, entry 3",
        ),
        (
            _mutated(rows=[["0", "1", "1 - t"], *ROWS[1:]]),
            "row 1, entry 3",
        ),
        (_mutated(weights=["1", "2"]), '"weights" must list 4 values'),
        (_mutated(weights={"a": 1}), '"weights" must be "generic"'),
        (_mutated(weights=["1", "2", "1/0", "4"]), "weight 3"),
        (
            _mutated(rows=[ROWS[0], ["0", "2", "2"], *ROWS[2:]]),
            "projectively equal",
        ),
        (
            _mutated(rows=[["0", "0", "0"], *ROWS[1:]]),
            "zero",
        ),
    ],
)
def test_arrangement_parse_errors(data, fragment):
    with pytest.raises(InputError) as exc:
        parse_arrangement_file(data)
    assert fragment in str(exc.value)


def _path_doc(**changes):
    return json.dumps({**EXAMPLES["triple_point_path_3"], **changes})


def test_path_parse_errors():
    doc = json.loads(_path_doc())
    del doc["t_witness"]
    with pytest.raises(InputError, match="t_witness"):
        parse_path_file(json.dumps(doc))
    with pytest.raises(InputError, match='"t_witness"'):
        parse_path_file(_path_doc(t_witness="one"))
    with pytest.raises(InputError, match="must be a list of index lists"):
        parse_path_file(_path_doc(declared_dep="x"))
    with pytest.raises(InputError, match="lists of 3 integers"):
        parse_path_file(_path_doc(declared_dep=[[1, 2]]))
    with pytest.raises(InputError, match="not a subset"):
        parse_path_file(_path_doc(declared_dep=[[1, 2, 9]]))
    with pytest.raises(InputError, match="not a subset"):
        parse_path_file(_path_doc(declared_dep=[[1, 2, 2]]))


def test_path_file_accepts_polynomials():
    pf = parse_path_file(_path_doc())
    assert pf.realization.is_path
    assert pf.t_witness == Fraction(1)


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200000)
    message = "not valid JSON: nested too deeply"
    for command in ("analyze", "connection"):
        code, out, err = run(capsys, command, str(deep))
        assert (code, out, err) == (1, "", f"error: {message}\n"), command
        code, out, err = run(capsys, command, "--format", "json", str(deep))
        assert (code, err) == (1, "") and json.loads(out) == {"error": message}, command


def test_path_rows_equal_along_the_whole_path(tmp_path, capsys):
    # row 4 is twice row 2 at every t
    doc = dict(PARALLEL_AT_WITNESS, rows=[*PARALLEL_AT_WITNESS["rows"][:3], ["-2", "2", "2*t^2 - 2*t"]])
    message = "rows 2 and 4 are projectively equal along the whole path"
    f = tmp_path / "equal_rows.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(InputError, match=f"^{message}$"):
        parse_path_file(f.read_bytes())
    for command in ("multiplicity", "connection"):
        code, out, err = run(capsys, command, str(f))
        assert (code, out, err) == (1, "", f"error: {message}\n"), command
        code, out, err = run(capsys, command, "--format", "json", str(f))
        assert (code, err) == (1, "") and json.loads(out) == {"error": message}, command


# ---------------------------------------------------------------------------
# analyze / check-weights
# ---------------------------------------------------------------------------


def test_analyze_triple_point_text(capsys):
    code, out, err = run(capsys, "analyze", fx("triple_point.json"))
    assert code == 0 and err == ""
    assert out == (
        "n: 4\n"
        "ell: 2\n"
        "dep: (1,2,3)\n"
        "normal position: yes\n"
        "betanbc frames: (2,4) (3,4)\n"
        "dense edges: (1) (2) (3) (4) (5) (1,2,3)\n"
        "betti: 1 4 5\n"
        "|euler|: 2\n"
    )


def test_analyze_triple_point_json(capsys):
    code, out, err = run(capsys, "analyze", "--format", "json", fx("triple_point.json"))
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["command"] == "analyze"
    assert doc["dep"] == [[1, 2, 3]]
    assert doc["betanbc"] == [[2, 4], [3, 4]]
    assert doc["betti"] == [1, 4, 5]
    assert doc["abs_euler"] == 2
    assert doc["normal_position"] is True


def test_analyze_selberg_notes_row_order(capsys):
    code, out, err = run(capsys, "analyze", fx("selberg.json"))
    assert code == 0
    assert "note: the first ell rows are linearly dependent" in err
    assert "dep: (1,2,6) (1,3,5) (2,4,5) (3,4,6)" in out
    assert "betanbc frames: (2,4) (2,5)" in out
    assert "betti: 1 5 6" in out


def test_check_weights_generic_ok(capsys):
    code, out, err = run(capsys, "check-weights", fx("triple_point.json"))
    assert code == 0 and err == ""
    assert "verdict: ok (symbolic weights satisfy every condition)" in out
    assert "(1,2,3): l1 + l2 + l3" in out
    assert "(5): -l1 - l2 - l3 - l4" in out


def test_check_weights_concrete_ok(tmp_path, capsys):
    f = tmp_path / "nonresonant.json"
    f.write_text(_mutated(weights=["1/5", "-2/7", "3/11", "1/13"]))
    code, out, err = run(capsys, "check-weights", str(f))
    assert code == 0 and err == ""
    assert out.startswith("weights: concrete\n") and out.endswith("\nverdict: ok\n")
    code, out, err = run(capsys, "check-weights", "--format", "json", str(f))
    parsed = json.loads(out)
    assert code == 0 and parsed["ok"] is True and parsed["generic"] is False


def test_check_weights_resonant(tmp_path, capsys):
    bad = tmp_path / "resonant.json"
    bad.write_text(_mutated(weights=["1", "1", "-2", "1/2"]))
    code, out, err = run(capsys, "check-weights", str(bad))
    assert code == 1
    assert "verdict: resonant" in out
    assert "violated at" in out

    code, out, err = run(capsys, "check-weights", "--format", "json", str(bad))
    assert code == 1
    parsed = json.loads(out)
    assert parsed["ok"] is False and parsed["generic"] is False
    assert parsed["violations"]

    # forcing generic weights overrides the file and passes
    code, out, err = run(capsys, "check-weights", "--weights", "generic", str(bad))
    assert code == 0
    assert "verdict: ok (symbolic weights satisfy every condition)" in out


def test_non_essential_arrangement_named(tmp_path, capsys):
    # three parallel lines: with the line at infinity they span rank 2 < ell+1
    doc = {"n": 3, "ell": 2, "rows": [["0", "1", "0"], ["1", "1", "0"], ["2", "1", "0"]]}
    f = tmp_path / "parallel.json"
    f.write_text(json.dumps(doc))
    message = ("the hyperplanes and the hyperplane at infinity have rank below ell+1 = 3: "
               "the arrangement is not essential")
    for command in ("analyze", "projection", "check-weights"):
        code, out, err = run(capsys, command, str(f))
        assert code == 1 and out == ""
        assert err.endswith(f"error: {message}\n"), command
        code, out, err = run(capsys, command, "--format", "json", str(f))
        assert code == 1
        assert json.loads(out) == {"error": message}, command


# ---------------------------------------------------------------------------
# projection / omega-general
# ---------------------------------------------------------------------------


def test_projection_triple_point_text(capsys):
    code, out, err = run(capsys, "projection", fx("triple_point.json"))
    assert code == 0 and err == ""
    assert out == (
        "projection matrix (3 x 2); rows: general-position frames, "
        "cols: frames of the type\n"
        "        (2,4)                 (3,4)\n"
        "(2,3) | (-l3)/(l1 + l2 + l3)  (l2)/(l1 + l2 + l3)\n"
        "(2,4) | 1                     0\n"
        "(3,4) | 0                     1\n"
    )


def test_projection_selberg_json(capsys):
    code, out, _ = run(capsys, "projection", "--format", "json", fx("selberg.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["row_basis"] == [[2, 3], [2, 4], [2, 5], [3, 4], [3, 5], [4, 5]]
    assert doc["col_basis"] == [[2, 4], [2, 5]]
    assert doc["entries"] == [list(row) for row in EXPECTED["selberg projection"]]


def test_projection_resonant_weights_exit_1(tmp_path, capsys):
    bad = tmp_path / "resonant.json"
    bad.write_text(_mutated(weights=["1", "1", "-2", "1/2"]))
    code, out, err = run(capsys, "projection", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error:")


def test_projection_size_limit_at_and_past(monkeypatch, capsys):
    """The predicted size is the size of the system eliminated; a system
    at the limit runs, one cell past it is refused in both formats."""
    from gmarr import orlik_solomon

    seen = []
    eliminate = orlik_solomon.fraction_free_echelon

    def recording(matrix, ncols):
        seen.append((len(matrix), len(matrix[0])))
        return eliminate(matrix, ncols)

    monkeypatch.setattr(orlik_solomon, "fraction_free_echelon", recording)
    code, out, _ = run(capsys, "projection", "--format", "json", fx("selberg.json"))
    ((rows, cols),) = seen
    assert code == 0
    monkeypatch.setattr(orlik_solomon, "MAX_PROJECTION_CELLS", rows * cols)
    assert run(capsys, "projection", "--format", "json", fx("selberg.json"))[:2] == (0, out)
    monkeypatch.setattr(orlik_solomon, "MAX_PROJECTION_CELLS", rows * cols - 1)
    named = f"has {rows} rows and "
    cells = f"({rows * cols} cells): over the limit {rows * cols - 1}"
    code, out, err = run(capsys, "projection", fx("selberg.json"))
    assert code == 1 and out == "" and named in err and cells in err
    code, out, _ = run(capsys, "projection", "--format", "json", fx("selberg.json"))
    assert code == 1 and named in json.loads(out)["error"]
    code, out, _ = run(capsys, "connection", "--format", "json", fx("selberg_path.json"))
    assert code == 1 and cells in json.loads(out)["error"]
    assert len(seen) == 2  # the refused systems were never built


def test_oversized_projection_is_refused_fast(tmp_path, capsys):
    # six parallel planes and eight others: 219 rows by 76 + 130 columns
    rng = random.Random(3)
    rows = [[str(-i), "0", "0", "1"] for i in range(6)]
    rows += [[str(rng.randint(-9, 9) or 1) for _ in range(4)] for _ in range(8)]
    f = tmp_path / "wide.json"
    f.write_text(json.dumps({"n": 14, "ell": 3, "rows": rows, "weights": "generic"}))
    for fmt in ("text", "json"):
        start = time.perf_counter()
        code, out, err = run(capsys, "projection", "--format", fmt, str(f))
        assert time.perf_counter() - start < 1.0
        assert code == 1
        message = err if fmt == "text" else json.loads(out)["error"]
        assert "has 219 rows and 76 + 130 columns (45114 cells): over the limit" in message


def _wide_files(tmp_path):
    """An arrangement file and a path file with n = 60, ell = 5: the same
    random rows, the path's first entry replaced by t."""
    rng = random.Random(5)
    rows = [[str(rng.randint(-50, 50)) for _ in range(6)] for _ in range(60)]
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"n": 60, "ell": 5, "rows": rows, "weights": "generic"}))
    rows[0][0] = "t"
    path = tmp_path / "wide_path.json"
    path.write_text(
        json.dumps({"n": 60, "ell": 5, "rows": rows, "weights": "generic", "t_witness": "1"})
    )
    return wide, path


def test_oversized_general_basis_is_refused_before_typing(tmp_path, monkeypatch, capsys):
    # n = 60, ell = 5: typing would test C(61, 6) minors before the refusal
    from gmarr import arrangement
    import gmarr.cli as cli_mod

    def untyped(r):
        raise AssertionError("the type was computed")

    monkeypatch.setattr(arrangement, "compute_type", untyped)
    monkeypatch.setattr(cli_mod, "compute_type", untyped)
    wide, path = _wide_files(tmp_path)
    message = ("the general-position basis for n=60, ell=5 has C(59, 5) = 5006386 "
               "frames: over the limit 500")
    for command, f in (("projection", wide), ("connection", path)):
        code, out, err = run(capsys, command, str(f))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        code, out, err = run(capsys, command, "--format", "json", str(f))
        assert code == 1 and err == ""
        assert json.loads(out) == {"error": message}


def test_oversized_type_is_refused_before_the_first_minor(tmp_path, monkeypatch, capsys):
    # n = 60, ell = 5: C(61, 6) = 55525372 minors of 6 rows each
    from gmarr import arrangement

    def unexpanded(self, J):
        raise AssertionError("a minor was computed")

    monkeypatch.setattr(arrangement.Realization, "minor", unexpanded)
    wide, path = _wide_files(tmp_path)
    message = ("typing n=60, ell=5 takes C(61, 6)·6! = 39978267840 cofactor products: "
               "over the limit 1000000")
    for command, f in (("analyze", wide), ("check-weights", wide), ("multiplicity", path)):
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(f))
        assert (code, out, err) == (1, "", f"error: {message}\n"), command
        code, out, err = run(capsys, command, "--format", "json", str(f))
        assert code == 1 and err == "" and json.loads(out) == {"error": message}, command
        assert time.perf_counter() - start < 1.0, command


def _table_cells(lines: list[str]) -> tuple[list[str], list[list[str]]]:
    """Row labels and cells of a text table, cut at the offsets where the
    header's column labels start."""
    header, *rows = lines
    starts = [m.start() for m in re.finditer(r"\(", header)]
    bounds = list(zip(starts, starts[1:] + [None]))
    labels = [row[: starts[0]].removesuffix(" | ").rstrip() for row in rows]
    return labels, [[row[a:b].rstrip() for a, b in bounds] for row in rows]


def test_text_and_json_tables_carry_the_same_cells(capsys):
    runs = [("projection", name) for name in ARRANGEMENT_FILES]
    runs += [("connection", name) for name in PATH_FILES]
    for command, name in runs:
        code, text, _ = run(capsys, command, fx(name))
        assert code == 0
        code, out, _ = run(capsys, command, "--format", "json", fx(name))
        assert code == 0
        doc = json.loads(out)
        table = text.splitlines()[-len(doc["row_basis"]) - 1 :]
        labels, cells = _table_cells(table)
        assert labels == ["(" + ",".join(map(str, r)) + ")" for r in doc["row_basis"]]
        assert cells == doc["entries"], (command, name)


def test_omega_general_text(capsys):
    code, out, err = run(capsys, "omega-general", "--n", "4", "--ell", "2", "--J", "3,4,5")
    assert code == 0 and err == ""
    assert out == (
        "general-position connection block for J = (3,4,5)\n"
        "        (2,3)  (2,4)  (3,4)\n"
        "(2,3) | 0      0      -l2\n"
        "(2,4) | 0      0      l2\n"
        "(3,4) | 0      0      -l1 - l2\n"
    )


def test_omega_general_json(capsys):
    code, out, _ = run(
        capsys, "omega-general", "--format", "json", "--n", "4", "--ell", "2", "--J", "1,2,4"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["J"] == [1, 2, 4]
    assert doc["entries"] == [list(row) for row in EXPECTED["omega-general 124"]]


def test_omega_general_bad_J(capsys):
    code, out, err = run(capsys, "omega-general", "--n", "4", "--ell", "2", "--J", "a,b")
    assert code == 1 and out == ""
    assert "comma-separated integers" in err
    code, out, err = run(capsys, "omega-general", "--n", "4", "--ell", "2", "--J", "1,2")
    assert code == 1
    assert "ell + 1" in err


@pytest.mark.parametrize("n, ell", [(0, 0), (3, 0), (2, 3)])
def test_omega_general_bad_n_ell(capsys, n, ell):
    args = ("omega-general", "--n", str(n), "--ell", str(ell), "--J", "1")
    message = f"need n >= ell >= 1, got n={n}, ell={ell}"
    code, out, err = run(capsys, *args)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"
    code, out, err = run(capsys, args[0], "--format", "json", *args[1:])
    assert code == 1 and err == ""
    assert json.loads(out) == {"error": message}


def test_omega_general_basis_limit(capsys):
    # C(2999, 2)^2 entries would exhaust memory; the limit refuses at once
    args = ("omega-general", "--n", "3000", "--ell", "2", "--J", "1,2,3")
    message = ("the general-position basis for n=3000, ell=2 has C(2999, 2) = 4495501 "
               "frames: over the limit 500")
    start = time.perf_counter()
    code, out, err = run(capsys, *args)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"
    code, out, err = run(capsys, args[0], "--format", "json", *args[1:])
    assert code == 1 and err == ""
    assert json.loads(out) == {"error": message}
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# multiplicity / connection
# ---------------------------------------------------------------------------


def test_multiplicity_text(capsys):
    code, out, err = run(capsys, "multiplicity", fx("triple_point_path_1.json"))
    assert code == 0 and err == ""
    assert out == (
        "dep at witness t = 1: (1,2,3)\n"
        "dep at t = 0: (1,2,3) (3,4,5)\n"
        "multiplicities (vanishing order of each new minor):\n"
        "  (3,4,5): 1\n"
        "note: cover relation not verified: the tool checks dep(T) is a "
        "proper subset of dep(T') and that the path is valid, but not that "
        "no intermediate type exists\n"
    )


def test_multiplicity_selberg_json(capsys):
    code, out, err = run(
        capsys, "multiplicity", "--format", "json", fx("selberg_path.json")
    )
    assert code == 0
    assert "note: the first ell rows are linearly dependent" in err
    doc = json.loads(out)
    assert {"J": [3, 4, 5], "m": 2} in doc["multiplicities"]
    assert all(
        item["m"] == 1
        for item in doc["multiplicities"]
        if item["J"] != [3, 4, 5]
    )
    assert len(doc["dep_prime"]) == 11
    assert doc["caveat"].startswith("cover relation not verified")


ROW_ORDER_NOTE = (
    "note: the first ell rows are linearly dependent; computations keep the "
    "input order as given\n"
)

# rows 1 and 2 are parallel at the witness t = 1 and at t = 0, but not along
# the whole path: their minor with the row at infinity is ±(t^2 - t)
PARALLEL_AT_WITNESS = {
    "n": 4, "ell": 2, "weights": "generic", "t_witness": "1",
    "rows": [["0", "1", "0"], ["-1", "1", "t^2 - t"], ["0", "0", "1"], ["-2*t", "1", "1"]],
}


def test_row_order_note_follows_the_witness_type(tmp_path, capsys):
    f = tmp_path / "parallel.json"
    f.write_text(json.dumps(PARALLEL_AT_WITNESS))
    mult_text = (
        "dep at witness t = 1: (1,2,5)\n"
        "dep at t = 0: (1,2,5) (1,3,4)\n"
        "multiplicities (vanishing order of each new minor):\n"
        "  (1,3,4): 1\n"
        f"note: {COVER_CAVEAT}\n"
    )
    code, out, err = run(capsys, "multiplicity", str(f))
    assert (code, out, err) == (0, mult_text, ROW_ORDER_NOTE)
    code, out, err = run(capsys, "connection", str(f))
    assert (code, err) == (0, ROW_ORDER_NOTE)
    assert out == mult_text + (
        "connection matrix on the frame basis of the type (2 x 2)\n"
        "        (2,4)    (3,4)\n"
        "(2,4) | 0        0\n"
        "(3,4) | l3 + l4  l1 + l3 + l4\n"
    )
    for command in ("multiplicity", "connection"):
        code, out, err = run(capsys, command, "--format", "json", str(f))
        assert code == 0 and err == ROW_ORDER_NOTE
        assert json.loads(out)["dep"] == [[1, 2, 5]]


def test_rejected_path_prints_only_its_error(tmp_path, capsys):
    # the first two rows stay dependent, but the path is refused before the note
    cases = [
        (dict(EXAMPLES["selberg_path"], t_witness="0"), "witness parameter value must be nonzero"),
        (dict(PARALLEL_AT_WITNESS, declared_dep=[[1, 3, 4]]), "declared type for T at the witness"),
    ]
    for doc, message in cases:
        f = tmp_path / "rejected.json"
        f.write_text(json.dumps(doc))
        for command in ("multiplicity", "connection"):
            code, out, err = run(capsys, command, str(f))
            assert code == 1 and out == ""
            assert err.startswith(f"error: {message}") and err.count("\n") == 1
            code, out, err = run(capsys, command, "--format", "json", str(f))
            assert code == 1 and err == ""
            assert json.loads(out)["error"].startswith(message)


def test_row_vanishing_at_zero_names_that_end(tmp_path, capsys):
    # row 4 is t·(1, 1, 1): nonzero at the witness, zero at t = 0
    doc = {"n": 4, "ell": 2, "rows": [["0", "1", "1"], ["0", "1", "0"], ["0", "1", "-1"], ["t", "t", "t"]],
           "weights": "generic", "t_witness": "1"}
    message = "path is degenerate at t = 0: row 4 is zero"
    f = tmp_path / "vanishing_row.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, "multiplicity", str(f))
    assert (code, out, err) == (1, "", f"error: {message}\n")
    code, out, err = run(capsys, "multiplicity", "--format", "json", str(f))
    assert (code, err) == (1, "") and json.loads(out) == {"error": message}


def test_connection_triple_point_2_json(capsys):
    code, out, _ = run(
        capsys, "connection", "--format", "json", fx("triple_point_path_2.json")
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["row_basis"] == [[2, 4], [3, 4]]
    assert doc["entries"] == [list(row) for row in EXPECTED["connection T2"]]


def test_connection_selberg_text(capsys):
    code, out, err = run(capsys, "connection", fx("selberg_path.json"))
    assert code == 0
    assert "(3,4,5): 2" in out
    assert "connection matrix on the frame basis of the type (2 x 2)" in out
    assert "(2,4) | l3 + l4 + l5  0" in out
    assert "(2,5) | 0             l3 + l4 + l5" in out


def test_connection_jobs_byte_identical(capsys):
    base = run(capsys, "connection", fx("selberg_path.json"))
    jobs = run(capsys, "connection", "--jobs", "4", fx("selberg_path.json"))
    assert base == jobs
    base_json = run(capsys, "connection", "--format", "json", fx("selberg_path.json"))
    jobs_json = run(
        capsys, "connection", "--format", "json", "--jobs", "3", fx("selberg_path.json")
    )
    assert base_json == jobs_json


def test_connection_rejects_zero_witness(tmp_path, capsys):
    doc = json.loads(_path_doc(t_witness="0"))
    f = tmp_path / "zero.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, "connection", str(f))
    assert code == 1 and out == ""
    assert "nonzero" in err


def test_path_entry_degree_limit(tmp_path, capsys):
    doc = json.loads((FIXTURES / "triple_point_path_1.json").read_text())
    for power in (1001, 99999999):
        doc["rows"][3][1] = f"1 - t^{power}"
        f = tmp_path / f"deg{power}.json"
        f.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "connection", str(f))
        assert code == 1 and out == ""
        assert err.startswith("error: row 4, entry 2: ") and f"t^{power}" in err
        assert "exceeds the limit t^1000" in err
        code, out, err = run(capsys, "multiplicity", "--format", "json", str(f))
        assert code == 1 and err == ""
        assert json.loads(out)["error"].startswith("row 4, entry 2: ")
        assert time.perf_counter() - start < 2.0


def test_path_witness_size_limit(tmp_path, capsys):
    # witness^1000 with a 4000-digit witness would run for many seconds
    doc = json.loads((FIXTURES / "triple_point_path_1.json").read_text())
    doc["rows"][3] = ["-1 + t^1000", "1 - t^1000", "-1 + 2*t^1000"]
    for witness in ("3" * 4000, "1/" + "7" * 400):
        doc["t_witness"] = witness
        f = tmp_path / "witness.json"
        f.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "multiplicity", str(f))
        assert code == 1 and out == ""
        assert err.startswith("error: t_witness has ") and "t^1000" in err
        code, out, err = run(capsys, "connection", "--format", "json", str(f))
        assert code == 1 and err == ""
        assert json.loads(out)["error"].startswith("t_witness has ")
        assert time.perf_counter() - start < 2.0


def test_path_witness_size_within_limit(tmp_path, capsys):
    # a long witness is fine when the rows carry only low powers of t, and a
    # short one when they carry high powers
    doc = json.loads((FIXTURES / "triple_point_path_1.json").read_text())
    for witness, row, m in (
        ("3" * 4000, doc["rows"][3], 1),
        ("2", ["-1 + t^1000", "1 - t^1000", "-1 + 2*t^1000"], 1000),
    ):
        doc["t_witness"], doc["rows"][3] = witness, row
        f = tmp_path / "witness.json"
        f.write_text(json.dumps(doc))
        start = time.perf_counter()
        code, out, err = run(capsys, "multiplicity", "--format", "json", str(f))
        assert code == 0 and err == ""
        assert json.loads(out)["multiplicities"] == [{"J": [3, 4, 5], "m": m}]
        assert time.perf_counter() - start < 2.0


def test_multiplicity_rejects_wrong_declaration(tmp_path, capsys):
    doc = json.loads(_path_doc(declared_dep=[[1, 2, 4]]))
    f = tmp_path / "lie.json"
    f.write_text(json.dumps(doc))
    code, out, err = run(capsys, "multiplicity", str(f))
    assert code == 1
    assert "declared type for T at the witness" in err

    code, out, err = run(capsys, "multiplicity", "--format", "json", str(f))
    assert code == 1 and err == ""
    assert "declared type" in json.loads(out)["error"]


def test_inconsistent_system_maps_to_exit_2(monkeypatch, capsys):
    import gmarr.cli as cli_mod

    def boom(dp, w, jobs=1):
        raise InconsistentSystem((2, 4), "connection equation fails on the row")

    monkeypatch.setattr(cli_mod, "connection_for_path", boom)
    code, out, err = run(capsys, "connection", fx("selberg_path.json"))
    assert code == 2 and out == ""
    assert "error: connection equation fails on the row" in err

    code, out, err = run(
        capsys, "connection", "--format", "json", fx("selberg_path.json")
    )
    assert code == 2
    assert "error:" not in err  # stderr may carry the row-order note only
    assert json.loads(out)["error"].startswith("connection equation fails")


# ---------------------------------------------------------------------------
# verify-paper, errors, usage
# ---------------------------------------------------------------------------


def test_verify_all_checks_pass(capsys):
    code, out, err = run(capsys, "verify-paper")
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert lines[-1].endswith("checks, all passed")
    assert all(line.startswith("ok   ") for line in lines[:-1])
    assert len(lines) >= 20
    assert {f"ok   spectral {stem}" for stem in EXPECTED["spectral"]} <= set(lines)


def test_verify_spectral_checks_catch_a_wrong_rank_lambda_or_entry(monkeypatch):
    from gmarr import ConnectionMatrix, connection_for_path, reference
    from gmarr.exact import RatFunc

    stem = "selberg_path"
    omega, _ = connection_for_path(reference._path(stem))
    assert reference._spectral(stem, omega).ok
    X, lam, rank = EXPECTED["spectral"][stem]
    for wrong in [(X, lam, rank + 1), (X, "l3 + l4", rank), ((3, 4), lam, rank)]:
        monkeypatch.setitem(EXPECTED["spectral"], stem, wrong)
        assert not reference._spectral(stem, omega).ok, wrong
    monkeypatch.setitem(EXPECTED["spectral"], stem, (X, lam, rank))
    (a, b), (c, d) = omega.entries
    for entries in [((a, a), (c, d)), ((a, b), (c, RatFunc(d.num, d.num + 1)))]:
        changed = ConnectionMatrix(basis=omega.basis, entries=entries)
        assert not reference._spectral(stem, changed).ok


def test_verify_reports_a_failing_check(monkeypatch, capsys):
    monkeypatch.setitem(EXPECTED, "triple-point dep", ((1, 2, 4),))
    code, out, err = run(capsys, "verify-paper")
    lines = out.strip().splitlines()
    assert code == 2 and err == ""
    assert [line for line in lines if not line.startswith("ok   ")] == [
        "FAIL triple-point dep: expected ((1, 2, 4),), got ((1, 2, 3),)",
        f"{len(lines) - 1} checks, 1 failures",
    ]
    code, out, err = run(capsys, "verify-paper", "--format", "json")
    doc = json.loads(out)
    assert code == 2 and doc["ok"] is False
    assert [c for c in doc["checks"] if not c["ok"]] == [
        {"name": "triple-point dep", "ok": False, "detail": "expected ((1, 2, 4),), got ((1, 2, 3),)"}
    ]


def test_verify_reports_a_path_of_another_type(monkeypatch, capsys):
    # the first triple-point path replaced by one from general position: its
    # witness type is checked before any connection, so it has no Ω to certify
    rows = [["0", "1", "0"], ["0", "0", "1"], ["-t", "1", "1"], ["-2", "1", "-1"]]
    monkeypatch.setitem(EXAMPLES, "triple_point_path_1",
                        {**EXAMPLES["triple_point_path_1"], "rows": rows})
    code, out, err = run(capsys, "verify-paper")
    lines = out.strip().splitlines()
    assert code == 2 and err == ""
    assert [line for line in lines if not line.startswith("ok   ")] == [
        "FAIL connection T1: path witness type is [], expected [(1, 2, 3)]",
        "FAIL spectral triple_point_path_1: the path has no connection matrix",
        f"{len(lines) - 1} checks, 2 failures",
    ]


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify-paper", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["checks"] and all(c["ok"] for c in doc["checks"])


def test_missing_file_text_and_json(capsys):
    code, out, err = run(capsys, "analyze", "no_such_file.json")
    assert code == 1 and out == ""
    assert err.startswith("error: cannot read no_such_file.json")

    code, out, err = run(capsys, "analyze", "--format", "json", "no_such_file.json")
    assert code == 1 and err == ""
    assert "cannot read" in json.loads(out)["error"]


def test_usage_errors_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["omega-general", "--n", "4", "--ell", "2"])  # missing --J
    assert exc.value.code == 1
    capsys.readouterr()


def test_parser_is_built_once_and_survives_a_usage_error(capsys):
    from gmarr.cli import _build_parser

    assert _build_parser() is _build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["projection", "--weights", "neither", fx("triple_point.json")])
    assert exc.value.code == 1
    capsys.readouterr()
    code, out, err = run(capsys, "projection", "--format", "json", fx("triple_point.json"))
    assert code == 0 and err == ""
    assert json.loads(out)["command"] == "projection"


def test_commands_in_one_process_print_as_in_separate_ones(capsys):
    """The one parser carries no option from a call into the next: each
    command prints what it prints in a fresh process."""
    calls = [
        ["projection", "--weights", "generic", "--format", "json", fx("selberg.json")],
        ["projection", fx("selberg.json")],
        ["connection", "--jobs", "3", fx("triple_point_path_1.json")],
        ["omega-general", "--n", "4", "--ell", "2", "--J", "1,2,5"],
    ]
    in_process = [run(capsys, *argv) for argv in calls]
    for argv, (code, out, err) in zip(calls, in_process):
        proc = subprocess.run([sys.executable, "-m", "gmarr", *argv],
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err), argv


def test_output_is_deterministic(capsys):
    first = run(capsys, "analyze", "--format", "json", fx("selberg.json"))
    second = run(capsys, "analyze", "--format", "json", fx("selberg.json"))
    assert first == second


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "gmarr", "analyze", fx("triple_point.json")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "betanbc frames: (2,4) (3,4)" in proc.stdout
