"""The benchmark's checks are not vacuous: each passes on gmarr's real
output and reports a failure on a corrupted copy of it.

Run with ``python3 -m pytest gmbench`` from the root of a checkout.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import bench_inputs as inputs  # noqa: E402
import bench_oracle as oracle  # noqa: E402
import bench_workloads as workloads  # noqa: E402
import gmarr  # noqa: E402
import gmarr.cli  # noqa: E402
import gmarr.exact  # noqa: E402

MODS = SimpleNamespace(gmarr=gmarr, cli=gmarr.cli, exact=gmarr.exact)


def _names(fails):
    return {name for name, _ in fails}


def _degen_case(tmp_path):
    rng = random.Random("test")
    case = inputs.ladder_path(rng, 6, 3, 2, first=True)
    case.update(id="degen/test", doubling=True, point=inputs.nonresonant_weights(rng, 6))
    case["file"] = str(tmp_path / "case.json")
    with open(case["file"], "w", encoding="utf-8") as fh:
        json.dump(inputs.path_document(case["rows"], case["ell"]), fh)
    return case, json.loads(workloads.run_degen(MODS, case))


def _check_degen(case, doc):
    return _names(workloads.check_degen(MODS, case, json.dumps(doc), {}))


def test_degen_output_passes(tmp_path):
    case, doc = _degen_case(tmp_path)
    assert _check_degen(case, doc) == set()


def test_corrupted_omega_entry_is_reported(tmp_path):
    case, doc = _degen_case(tmp_path)
    doc["entries"][0][0] = f"({doc['entries'][0][0]}) + l1"
    assert "connection-equation" in _check_degen(case, doc)


def test_corrupted_multiplicity_is_reported(tmp_path):
    case, doc = _degen_case(tmp_path)
    doc["multiplicities"][0]["m"] += 1
    assert "multiplicity" in _check_degen(case, doc)


def test_wrong_dep_set_is_reported(tmp_path):
    case, doc = _degen_case(tmp_path)
    independent = next(J for J in map(list, doc["dep_prime"]) if J not in doc["dep"])
    doc["dep"].append(independent)
    assert "dep-witness" in _check_degen(case, doc)
    doc["dep"].remove(independent)
    doc["dep_prime"].remove(independent)
    assert "dep-zero" in _check_degen(case, doc)


def test_sweep_corrupted_entry_is_reported():
    case = inputs.sweep_cases(1)[0]
    case["row_text"] = [[inputs.render_t(e) for e in r] for r in case["rows"]]
    out = workloads.run_sweep(MODS, case)
    assert workloads.check_sweep(MODS, case, out, {}) == []
    doc = json.loads(out)
    doc["entries"][0][0] = str(oracle.evaluate(doc["entries"][0][0], []) + 1)
    assert "specializes" in _names(workloads.check_sweep(MODS, case, json.dumps(doc), {}))


def test_wide_wrong_dep_is_reported():
    case = next(c for c in inputs.wide_cases(1) if not c["generic"])
    out = workloads.run_wide(MODS, case)
    assert workloads.check_wide(MODS, case, out, {}) == []
    doc = json.loads(out)
    doc["dep"].pop()
    doc["betanbc"].pop()
    assert {"dep", "betanbc-euler"} <= _names(workloads.check_wide(MODS, case, json.dumps(doc), {}))


def test_whitney_betti_of_known_arrangements():
    # three lines through a point, plus one line in general position:
    # (1 + 3t + 2t^2) + t(1 + 3t) by deletion-restriction
    rows = [[0, 1, 0], [0, 0, 1], [0, 1, 1], [-1, 1, 2]]
    assert oracle.whitney_betti(rows) == [1, 4, 5]
    # generic: C(n, q)
    assert oracle.whitney_betti([[1, 2, 3], [-1, 5, 1], [2, -1, 4], [3, 3, -7]]) == [1, 4, 6]


def test_vanishing_order_by_interpolation():
    # u1 = 0, u2 = 0 and u2 = t^2 meet in a point only at t = 0, where the
    # minor -t^2 vanishes to order 2; u2 = 0, u2 = t^2 and infinity are
    # dependent along the whole path
    rows = [[(0,), (1,), (0,)], [(0,), (0,), (1,)], [(0, 0, -1), (0,), (1,)]]
    assert oracle.vanishing_order(rows, (1, 2, 3)) == 2
    assert oracle.vanishing_order(rows, (2, 3, 4)) is None


def test_tracer_reports_absent_names_and_wraps_the_rest():
    import types

    import bench_trace

    linalg = types.ModuleType("linalg")
    linalg.solve_all = lambda A, B: "solved"
    tracer = bench_trace.Tracer()
    tracer.install({"linalg": linalg})
    assert {"linalg.fraction_free_echelon", "cli.main"} <= set(tracer.absent)
    assert tracer.run_case(linalg.solve_all, [], []) == "solved"
    assert tracer.calls["linalg.solve_all"] == 1
    assert tracer.metrics(tracer.cache_counts())["linalg.echelon_calls"] == 0
