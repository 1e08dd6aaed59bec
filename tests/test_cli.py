"""End-to-end tests for the command line: file parsing, rendered output in
both formats, exit codes and error channels.

Commands run in-process through ``main(argv)`` with captured streams; one
subprocess test exercises the ``python3 -m`` entry point.
"""

import json
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from gmarr import CombinatorialType, InconsistentSystem, Weights
from gmarr.cli import (
    InputError,
    main,
    parse_arrangement_file,
    parse_path_file,
    render_fixture,
)

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
# file parsing and serialization
# ---------------------------------------------------------------------------


def test_arrangement_files_round_trip():
    for name in ARRANGEMENT_FILES:
        data = (FIXTURES / name).read_bytes()
        r, w = parse_arrangement_file(data)
        text = render_fixture(r, w)
        r2, w2 = parse_arrangement_file(text)
        assert render_fixture(r2, w2) == text
        assert r2.n == r.n and r2.ell == r.ell
        assert w2.is_generic == w.is_generic


def test_path_files_round_trip():
    for name in PATH_FILES:
        data = (FIXTURES / name).read_bytes()
        pf = parse_path_file(data)
        text = render_fixture(
            pf.realization,
            pf.weights,
            t_witness=pf.t_witness,
            declared_T=pf.declared_T,
            declared_Tprime=pf.declared_Tprime,
        )
        pf2 = parse_path_file(text)
        assert pf2.t_witness == pf.t_witness
        assert pf2.declared_T == pf.declared_T
        assert pf2.declared_Tprime == pf.declared_Tprime
        assert render_fixture(
            pf2.realization,
            pf2.weights,
            t_witness=pf2.t_witness,
            declared_T=pf2.declared_T,
            declared_Tprime=pf2.declared_Tprime,
        ) == text


def test_selberg_path_file_declares_limit_type():
    pf = parse_path_file((FIXTURES / "selberg_path.json").read_bytes())
    assert pf.declared_T is None
    assert pf.declared_Tprime is not None
    assert len(pf.declared_Tprime.dep) == 11
    assert pf.t_witness == Fraction(1)


def test_integer_cells_accepted():
    doc = {
        "n": 4,
        "ell": 2,
        "rows": [[0, 1, 1], [0, 1, 0], [0, 1, -1], [-1, 0, 1]],
        "weights": "generic",
    }
    r, w = parse_arrangement_file(json.dumps(doc))
    assert r.n == 4 and w.is_generic


def test_concrete_weights_parsed():
    doc = {
        "n": 4,
        "ell": 2,
        "rows": [["0", "1", "1"], ["0", "1", "0"], ["0", "1", "-1"], ["-1", "0", "1"]],
        "weights": ["1/5", "-2/7", "3/11", "1/13"],
    }
    _, w = parse_arrangement_file(json.dumps(doc))
    assert not w.is_generic
    assert w.values == (
        Fraction(1, 5),
        Fraction(-2, 7),
        Fraction(3, 11),
        Fraction(1, 13),
    )


GOOD_DOC = {
    "n": 4,
    "ell": 2,
    "rows": [["0", "1", "1"], ["0", "1", "0"], ["0", "1", "-1"], ["-1", "0", "1"]],
    "weights": "generic",
}


def _mutated(**changes):
    doc = json.loads(json.dumps(GOOD_DOC))
    doc.update(changes)
    return json.dumps(doc)


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
        (_mutated(rows=[["0", "1", "1"]]), '"rows" must be a list of 4 rows'),
        (
            _mutated(rows=[["0", "1"], ["0", "1", "0"], ["0", "1", "-1"], ["-1", "0", "1"]]),
            "row 1 must have 3 entries",
        ),
        (
            _mutated(rows=[["0", "1", 1.5], ["0", "1", "0"], ["0", "1", "-1"], ["-1", "0", "1"]]),
            "entries must be exact rational strings",
        ),
        (
            _mutated(rows=[["0", "1", "x"], ["0", "1", "0"], ["0", "1", "-1"], ["-1", "0", "1"]]),
            "row 1, entry 3",
        ),
        (
            _mutated(rows=[["0", "1", "1 - t"], ["0", "1", "0"], ["0", "1", "-1"], ["-1", "0", "1"]]),
            "row 1, entry 3",
        ),
        (_mutated(weights=["1", "2"]), '"weights" must list 4 values'),
        (_mutated(weights={"a": 1}), '"weights" must be "generic"'),
        (_mutated(weights=["1", "2", "1/0", "4"]), "weight 3"),
        (
            _mutated(rows=[["0", "1", "1"], ["0", "2", "2"], ["0", "1", "-1"], ["-1", "0", "1"]]),
            "projectively equal",
        ),
        (
            _mutated(rows=[["0", "0", "0"], ["0", "1", "0"], ["0", "1", "-1"], ["-1", "0", "1"]]),
            "zero",
        ),
    ],
)
def test_arrangement_parse_errors(data, fragment):
    with pytest.raises(InputError) as exc:
        parse_arrangement_file(data)
    assert fragment in str(exc.value)


def _path_doc(**changes):
    doc = {
        "n": 4,
        "ell": 2,
        "rows": [["0", "1", "1"], ["0", "1", "0"], ["0", "1", "-1"], ["-t", "0", "1"]],
        "weights": "generic",
        "t_witness": "1",
    }
    doc.update(changes)
    return json.dumps(doc)


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


def test_check_weights_resonant(tmp_path, capsys):
    bad = tmp_path / "resonant.json"
    doc = json.loads(json.dumps(GOOD_DOC))
    doc["weights"] = ["1", "1", "-2", "1/2"]
    bad.write_text(json.dumps(doc))
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
    assert doc["entries"][5] == ["(-l5)/(l2)", "(l4)/(l2)"]


def test_projection_resonant_weights_exit_1(tmp_path, capsys):
    bad = tmp_path / "resonant.json"
    doc = json.loads(json.dumps(GOOD_DOC))
    doc["weights"] = ["1", "1", "-2", "1/2"]
    bad.write_text(json.dumps(doc))
    code, out, err = run(capsys, "projection", str(bad))
    assert code == 1 and out == ""
    assert err.startswith("error:")


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
    assert doc["entries"] == [
        ["0", "0", "0"],
        ["l4", "l1 + l2 + l4", "l2"],
        ["0", "0", "0"],
    ]


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


def test_connection_triple_point_2_json(capsys):
    code, out, _ = run(
        capsys, "connection", "--format", "json", fx("triple_point_path_2.json")
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["row_basis"] == [[2, 4], [3, 4]]
    assert doc["entries"] == [["l1 + l2", "l2"], ["0", "0"]]


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
