"""The three workloads: how a case is run through gmarr, and how its output
is checked against the benchmark's own computations.

A workload is three functions:

* ``prepare(seed, workdir)`` builds the cases (plain data; ``degen-generic``
  also writes one gmarr path file per case);
* ``run(mods, case)`` is the timed operation; it calls gmarr's public
  functions through ``mods`` and returns the rendered output (a string);
* ``check(mods, case, output, memo)`` runs outside the timed phase and
  returns a list of ``(check name, detail)`` failures; ``memo`` is a dict
  shared by the checks of one run (``sweep-concrete`` keeps each path's
  symbolic Omega there).

``mods`` holds the freshly imported ``gmarr``, ``gmarr.cli`` and
``gmarr.exact`` modules of the current round.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from math import comb

import bench_inputs as inputs
import bench_oracle as oracle


def _rendered(x) -> str:
    return x.render() if hasattr(x, "render") else str(x)


# ---------------------------------------------------------------------------
# degen-generic: `gmarr connection --format json` in-process
# ---------------------------------------------------------------------------


def prepare_degen(seed, workdir):
    cases = inputs.degen_cases(seed)
    for case in cases:
        doc = inputs.path_document(case["rows"], case["ell"])
        case["file"] = str(workdir / (case["id"].replace("/", "_") + ".json"))
        with open(case["file"], "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return cases


def run_degen(mods, case) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = mods.cli.main(["connection", case["file"], "--format", "json"])
    out = buf.getvalue()
    if code != 0:
        raise RuntimeError(f"gmarr connection exited {code}: {out.strip()}")
    return out


def _gmarr_path(mods, rows):
    parse = mods.exact.parse_path_poly
    family = mods.gmarr.Realization(
        tuple(tuple(parse(inputs.render_t(e)) for e in r) for r in rows)
    )
    return mods.gmarr.DegenerationPath(family, Fraction(1))


def _evaluate_at(rendered_mats, point):
    """Evaluate rendered matrices at ``point``; on a vanishing denominator,
    move the point by a fixed step (deterministic) and try again."""
    for attempt in range(8):
        pt = [x + Fraction(attempt, 997) for x in point]
        try:
            return [oracle.evaluate_matrix(m, pt) for m in rendered_mats]
        except ZeroDivisionError:
            continue
    raise ZeroDivisionError("every trial point hits a denominator")


def check_degen(mods, case, output, memo):
    fails = []
    n, ell, rows = case["n"], case["ell"], case["rows"]
    doc = json.loads(output)
    witness = oracle.rows_at(rows, Fraction(1))
    dep1 = oracle.dependent_subsets(witness)
    dep0 = oracle.dependent_subsets(oracle.rows_at(rows, Fraction(0)))
    got1 = {tuple(J) for J in doc["dep"]}
    got0 = {tuple(J) for J in doc["dep_prime"]}
    if got1 != dep1:
        fails.append(("dep-witness", f"gmarr {sorted(got1 ^ dep1)} differ"))
    if got0 != dep0:
        fails.append(("dep-zero", f"gmarr {sorted(got0 ^ dep0)} differ"))
    mult = {tuple(item["J"]): item["m"] for item in doc["multiplicities"]}
    if set(mult) != dep0 - dep1:
        fails.append(("multiplicity", "keys are not dep(T') minus dep(T)"))
    for J, m in sorted(mult.items()):
        order = oracle.vanishing_order(rows, J)
        if m != order:
            fails.append(("multiplicity", f"{J}: gmarr {m}, interpolation {order}"))

    chi = oracle.euler_abs(oracle.whitney_betti(witness))
    basis = [tuple(S) for S in doc["col_basis"]]
    omega = doc["entries"]
    if (
        len(basis) != chi
        or [tuple(S) for S in doc["row_basis"]] != basis
        or len(omega) != chi
        or any(len(r) != chi for r in omega)
    ):
        fails.append(("omega-shape", f"Omega is not |chi(T)| = {chi} square"))
        return fails

    path = _gmarr_path(mods, rows)
    generic = mods.gmarr.Weights.generic(n)
    P = mods.gmarr.projection_matrix(path.T, generic)
    if tuple(P.col_basis) != tuple(basis) or len(mods.gmarr.betanbc_frames(path.T)) != chi:
        fails.append(("omega-shape", "betanbc frames of T differ from Omega's basis"))
        return fails
    Pr = [[_rendered(e) for e in row] for row in P.entries]
    for j, F in enumerate(P.col_basis):
        row = Pr[list(P.row_basis).index(F)]
        if row != ["1" if c == j else "0" for c in range(len(row))]:
            fails.append(("unit-rows", f"P's row for {F} is not a unit vector"))
    B = mods.gmarr.combined_omega(path.T, path.Tprime, mult, n, ell, generic)
    Br = [[_rendered(e) for e in row] for row in B.entries]
    Pv, Bv, Ov = _evaluate_at([Pr, Br, omega], case["point"])
    if oracle.mat_mul(Pv, Ov) != oracle.mat_mul(Bv, Pv):
        fails.append(("connection-equation", "P*Omega != B*P at the trial point"))

    if case["doubling"]:
        squared = _gmarr_path(mods, inputs.substitute_t_squared(rows))
        omega2, mult2 = mods.gmarr.connection_for_path(squared)
        if mult2.mapping() != {J: 2 * m for J, m in mult.items()}:
            fails.append(("t-squared-doubles", "multiplicities do not double"))
        rendered2 = [[_rendered(e) for e in row] for row in omega2.entries]
        O2, O1 = _evaluate_at([rendered2, omega], case["point"])
        if O2 != [[2 * x for x in row] for row in O1]:
            fails.append(("t-squared-doubles", "Omega does not double under t -> t^2"))
    return fails


# ---------------------------------------------------------------------------
# sweep-concrete: connection_for_path over many concrete weight vectors
# ---------------------------------------------------------------------------


def prepare_sweep(seed, workdir):
    cases = inputs.sweep_cases(seed)
    for case in cases:
        case["row_text"] = [[inputs.render_t(e) for e in r] for r in case["rows"]]
    return cases


def run_sweep(mods, case) -> str:
    g = mods.gmarr
    parse = mods.exact.parse_path_poly
    family = g.Realization(tuple(tuple(parse(e) for e in r) for r in case["row_text"]))
    path = g.DegenerationPath(family, Fraction(1))
    omega, mult = g.connection_for_path(path, g.Weights.concrete(case["weights"]))
    return json.dumps(
        {
            "basis": [list(S) for S in omega.basis],
            "multiplicities": [[list(J), m] for J, m in mult.items],
            "entries": [[_rendered(e) for e in row] for row in omega.entries],
        }
    )


def check_sweep(mods, case, output, memo):
    doc = json.loads(output)
    if case["path"] not in memo:
        omega, _ = mods.gmarr.connection_for_path(_gmarr_path(mods, case["rows"]))
        memo[case["path"]] = (
            [list(S) for S in omega.basis],
            [[_rendered(e) for e in row] for row in omega.entries],
        )
    basis, symbolic = memo[case["path"]]
    if doc["basis"] != basis:
        return [("specializes", "concrete and symbolic bases differ")]
    want = oracle.evaluate_matrix(symbolic, case["weights"])
    got = [[Fraction(x) for x in row] for row in doc["entries"]]
    if got != want:
        bad = next(
            (i, j) for i, row in enumerate(got) for j, x in enumerate(row) if x != want[i][j]
        )
        return [("specializes", f"Omega(w) differs from symbolic Omega at w in entry {bad}")]
    return []


# ---------------------------------------------------------------------------
# types-wide: type, frames, dense edges, Betti numbers and nonresonance
# ---------------------------------------------------------------------------


def prepare_wide(seed, workdir):
    return inputs.wide_cases(seed)


def run_wide(mods, case) -> str:
    g = mods.gmarr
    T = g.compute_type(g.Realization(case["rows"]))
    frames = g.betanbc_frames(T)
    edges = g.dense_edges(T)
    be = g.betti_and_euler(T)
    report = g.stv_check(T, g.Weights.concrete(case["weights"]))
    return json.dumps(
        {
            "dep": sorted(list(J) for J in T.dep),
            "betanbc": [list(B) for B in frames],
            "dense_edges": [list(f.members) for f in edges],
            "betti": list(be.betti),
            "euler": be.euler,
            "nonresonant": report.ok,
            "conditions": len(report.conditions),
        }
    )


def check_wide(mods, case, output, memo):
    fails = []
    doc = json.loads(output)
    rows, n, ell = case["rows"], case["n"], case["ell"]
    dep = {tuple(J) for J in doc["dep"]}
    want = oracle.dependent_subsets(rows)
    if dep != want:
        fails.append(("dep", f"gmarr {sorted(dep ^ want)} differ"))
    betti = oracle.whitney_betti(rows)
    if len(doc["betanbc"]) != oracle.euler_abs(betti):
        fails.append(("betanbc-euler", f"|betanbc| = {len(doc['betanbc'])}, |chi| = {oracle.euler_abs(betti)}"))
    if doc["betti"] != betti:
        fails.append(("betti", f"gmarr {doc['betti']}, Whitney {betti}"))
    if case["generic"] and doc["betti"] != [comb(n, q) for q in range(ell + 1)]:
        fails.append(("betti-generic", f"{doc['betti']} is not C(n, q)"))
    if not doc["nonresonant"] or doc["conditions"] != len(doc["dense_edges"]):
        fails.append(("nonresonant", "nonresonant weights were not accepted"))
    return fails


WORKLOADS = {
    "degen-generic": (prepare_degen, run_degen, check_degen),
    "sweep-concrete": (prepare_sweep, run_sweep, check_sweep),
    "types-wide": (prepare_wide, run_wide, check_wide),
}
