"""Command-line interface.

Input files are JSON.  An arrangement file looks like

    {"n": 4, "ell": 2,
     "rows": [["0", "1", "1"], ["0", "1", "0"], ["0", "1", "-1"], ["-1", "0", "1"]],
     "weights": "generic"}

with one row of ``ell + 1`` exact rational strings per hyperplane (the
hyperplane at infinity is implicit and never appears in the file), and
``weights`` either the string ``"generic"`` or a list of ``n`` rational
strings.  A path file has the same shape except that row entries may be
polynomials in the deformation parameter ``t`` (e.g. ``"1 - t"``; powers of
``t`` above ``exact.MAX_T_DEGREE`` = 1000 are rejected as bad input), it must
declare a nonzero rational ``"t_witness"`` where the family is in its
nondegenerate position (bounded against the powers of ``t`` by
``gauss_manin.MAX_WITNESS_BITS``), and it may optionally declare the
expected dependent sets at the witness (``"declared_dep"``) and at ``t = 0``
(``"declared_dep_prime"``) as lists of index lists; declared sets are checked
against what the rows actually realize, never trusted.  A general-position
basis over ``aomoto_kita.MAX_GENERAL_BASIS`` = 500 frames is bad input, so
is a type whose projection system has over
``orlik_solomon.MAX_PROJECTION_CELLS`` = 25000 cells, and so is an
arrangement whose type would take over ``arrangement.MAX_TYPE_PRODUCTS`` =
10⁶ cofactor products, C(n+1, ℓ+1)·(ℓ+1)!.

All output is byte-deterministic: the same invocation prints the same bytes.
``connection --jobs N`` is still accepted but has no effect.  Exit status is
0 on success, 1 on a domain error (bad file, resonant weights, invalid path),
and 2 on a verification failure (an inconsistent linear system, or a
mismatch found by ``verify-paper``).
In ``--format json`` mode errors are reported on stdout as
``{"error": "..."}``; in text mode they go to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import reference
from .aomoto_kita import _general_basis, omega_general
from .arrangement import (
    CombinatorialType,
    Realization,
    RealizationError,
    Weights,
    betanbc_frames,
    betti_and_euler,
    compute_type,
    dense_edges,
    stv_check,
)
from .exact import parse_path_poly, parse_rational
from .gauss_manin import (
    DegenerationPath,
    InconsistentSystem,
    connection_for_path,
    multiplicities,
)
from .orlik_solomon import SpanDefect, projection_matrix
from .reference import render_scalar


class InputError(ValueError):
    """An input file does not follow the documented JSON shape."""


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def _load_doc(data) -> dict:
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as e:
            raise InputError(f"file is not UTF-8: {e}") from None
    try:
        doc = json.loads(data)
    except ValueError as e:
        raise InputError(f"not valid JSON: {e}") from None
    except RecursionError:
        raise InputError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise InputError("top level must be a JSON object")
    return doc


def _require_size(doc: dict, key: str) -> int:
    v = doc.get(key)
    if not isinstance(v, int) or isinstance(v, bool) or v < 1:
        raise InputError(f'"{key}" must be a positive integer')
    return v


def _cell_text(v, where: str) -> str:
    if isinstance(v, str):
        return v
    if isinstance(v, int) and not isinstance(v, bool):
        return str(v)
    raise InputError(
        f"{where}: entries must be exact rational strings, got {type(v).__name__}"
    )


def _parse_rows(doc: dict, n: int, ell: int, cell_parser):
    rows = doc.get("rows")
    if not isinstance(rows, list) or len(rows) != n:
        raise InputError(f'"rows" must be a list of {n} rows')
    out = []
    for i, row in enumerate(rows, start=1):
        if not isinstance(row, list) or len(row) != ell + 1:
            raise InputError(f"row {i} must have {ell + 1} entries")
        parsed = []
        for k, cell in enumerate(row):
            text = _cell_text(cell, f"row {i}")
            try:
                parsed.append(cell_parser(text))
            except ValueError as e:
                raise InputError(f"row {i}, entry {k + 1}: {e}") from None
        out.append(parsed)
    return out


def _parse_weights(doc: dict, n: int) -> Weights:
    w = doc.get("weights", "generic")
    if w == "generic":
        return Weights.generic(n)
    if isinstance(w, list):
        if len(w) != n:
            raise InputError(f'"weights" must list {n} values, got {len(w)}')
        vals = []
        for k, cell in enumerate(w, start=1):
            text = _cell_text(cell, "weights")
            try:
                vals.append(parse_rational(text))
            except ValueError as e:
                raise InputError(f"weight {k}: {e}") from None
        return Weights.concrete(vals)
    raise InputError('"weights" must be "generic" or a list of rational strings')


def _parse_declared(doc: dict, key: str, n: int, ell: int) -> CombinatorialType | None:
    raw = doc.get(key)
    if raw is None:
        return None
    if not isinstance(raw, list):
        raise InputError(f'"{key}" must be a list of index lists')
    members = set()
    for item in raw:
        if (
            not isinstance(item, list)
            or len(item) != ell + 1
            or not all(isinstance(x, int) and not isinstance(x, bool) for x in item)
        ):
            raise InputError(f'"{key}" entries must be lists of {ell + 1} integers')
        J = tuple(sorted(item))
        if len(set(J)) != len(J) or not all(1 <= x <= n + 1 for x in J):
            raise InputError(f'"{key}" entry {item} is not a subset of 1..{n + 1}')
        members.add(J)
    return CombinatorialType(n, ell, frozenset(members))


def parse_arrangement_file(data) -> tuple[Realization, Weights]:
    """Strict parse of an arrangement file (rational entries only)."""
    doc = _load_doc(data)
    n = _require_size(doc, "n")
    ell = _require_size(doc, "ell")
    rows = _parse_rows(doc, n, ell, parse_rational)
    w = _parse_weights(doc, n)
    try:
        r = Realization(rows)
    except RealizationError as e:
        raise InputError(str(e)) from None
    return r, w


class PathFile:
    __slots__ = ("realization", "weights", "t_witness", "declared_T", "declared_Tprime")

    def __init__(self, realization, weights, t_witness, declared_T, declared_Tprime):
        self.realization = realization
        self.weights = weights
        self.t_witness = t_witness
        self.declared_T = declared_T
        self.declared_Tprime = declared_Tprime


def parse_path_file(data) -> PathFile:
    """Strict parse of a path file (entries may be polynomials in t)."""
    doc = _load_doc(data)
    n = _require_size(doc, "n")
    ell = _require_size(doc, "ell")
    rows = _parse_rows(doc, n, ell, parse_path_poly)
    w = _parse_weights(doc, n)
    if "t_witness" not in doc:
        raise InputError('path files must declare a nonzero rational "t_witness"')
    try:
        witness = parse_rational(_cell_text(doc["t_witness"], '"t_witness"'))
    except ValueError as e:
        raise InputError(f'"t_witness": {e}') from None
    declared_T = _parse_declared(doc, "declared_dep", n, ell)
    declared_Tprime = _parse_declared(doc, "declared_dep_prime", n, ell)
    try:
        r = Realization(rows)
    except RealizationError as e:
        raise InputError(str(e)) from None
    return PathFile(r, w, witness, declared_T, declared_Tprime)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _label(S) -> str:
    return "(" + ",".join(str(x) for x in S) + ")"


def _matrix_lines(matrix: dict) -> list[str]:
    """The text table of a matrix as ``_matrix_json`` rendered it."""
    rows = [_label(r) for r in matrix["row_basis"]]
    cols = [_label(c) for c in matrix["col_basis"]]
    cells = matrix["entries"]
    widths = [
        max([len(cols[j])] + [len(cells[i][j]) for i in range(len(rows))])
        for j in range(len(cols))
    ]
    label_w = max(len(x) for x in rows) if rows else 0

    def line(label, sep, texts):
        return label.ljust(label_w) + sep + "  ".join(map(str.ljust, texts, widths)).rstrip()

    return [line("", "   ", cols)] + [line(r, " | ", row) for r, row in zip(rows, cells)]


def _matrix_json(row_basis, col_basis, entries) -> dict:
    return {
        "row_basis": [list(r) for r in row_basis],
        "col_basis": [list(c) for c in col_basis],
        "entries": [[render_scalar(e) for e in row] for row in entries],
    }


def _emit(ns, text_lines: list[str], json_doc: dict) -> str:
    if ns.format == "json":
        return json.dumps(json_doc, indent=2) + "\n"
    return "\n".join(text_lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _read_file(path: str) -> bytes:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None


def _pick_weights(ns, file_weights: Weights) -> Weights:
    if getattr(ns, "weights", "file") == "generic":
        return Weights.generic(file_weights.n)
    return file_weights


def _note_row_order(T: CombinatorialType) -> None:
    if not T.normal_position:
        print(
            "note: the first ell rows are linearly dependent; computations "
            "keep the input order as given",
            file=sys.stderr,
        )


def _cmd_analyze(ns) -> str:
    r, _ = parse_arrangement_file(_read_file(ns.file))
    T = compute_type(r)
    _note_row_order(T)
    frames = betanbc_frames(T)
    edges = dense_edges(T)
    be = betti_and_euler(T)
    text = [
        f"n: {T.n}",
        f"ell: {T.ell}",
        "dep: " + (" ".join(_label(J) for J in sorted(T.dep)) or "(none)"),
        f"normal position: {'yes' if T.normal_position else 'no'}",
        "betanbc frames: " + (" ".join(_label(B) for B in frames) or "(none)"),
        "dense edges: " + " ".join(_label(f.members) for f in edges),
        "betti: " + " ".join(str(b) for b in be.betti),
        f"|euler|: {abs(be.euler)}",
    ]
    doc = {
        "command": "analyze",
        "n": T.n,
        "ell": T.ell,
        "dep": [list(J) for J in sorted(T.dep)],
        "normal_position": T.normal_position,
        "betanbc": [list(B) for B in frames],
        "dense_edges": [list(f.members) for f in edges],
        "betti": list(be.betti),
        "abs_euler": abs(be.euler),
    }
    return _emit(ns, text, doc)


def _cmd_check_weights(ns) -> tuple[str, int]:
    r, w_file = parse_arrangement_file(_read_file(ns.file))
    w = _pick_weights(ns, w_file)
    T = compute_type(r)
    _note_row_order(T)
    report = stv_check(T, w)
    text = [f"weights: {'generic' if report.generic else 'concrete'}"]
    text.append("nonresonance conditions (dense edge: weight sum not in 0,1,2,...):")
    for members, lam in report.conditions:
        text.append(f"  {_label(members)}: {render_scalar(lam)}")
    if report.generic:
        text.append("verdict: ok (symbolic weights satisfy every condition)")
    elif report.ok:
        text.append("verdict: ok")
    else:
        text.append("verdict: resonant")
        for members, lam in report.violations:
            text.append(f"  violated at {_label(members)}: weight sum = {lam}")
    doc = {
        "command": "check-weights",
        "generic": report.generic,
        "ok": report.ok,
        "conditions": [
            {"members": list(members), "weight_sum": render_scalar(lam)}
            for members, lam in report.conditions
        ],
        "violations": [
            {"members": list(members), "weight_sum": str(lam)}
            for members, lam in report.violations
        ],
    }
    return _emit(ns, text, doc), (0 if report.ok else 1)


def _cmd_projection(ns) -> str:
    r, w_file = parse_arrangement_file(_read_file(ns.file))
    _general_basis(r.n, r.ell)  # refuses an oversized basis before the type is computed
    w = _pick_weights(ns, w_file)
    T = compute_type(r)
    _note_row_order(T)
    P = projection_matrix(T, w)
    matrix = _matrix_json(P.row_basis, P.col_basis, P.entries)
    text = [
        f"projection matrix ({len(P.row_basis)} x {len(P.col_basis)}); "
        "rows: general-position frames, cols: frames of the type"
    ]
    text += _matrix_lines(matrix)
    doc = {"command": "projection", **matrix}
    return _emit(ns, text, doc)


def _parse_J(raw: str) -> tuple[int, ...]:
    try:
        J = tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise InputError(f"--J must be comma-separated integers, got {raw!r}") from None
    return J


def _cmd_omega_general(ns) -> str:
    J = _parse_J(ns.J)
    M = omega_general(J, ns.n, ns.ell)
    matrix = _matrix_json(M.basis, M.basis, M.entries)
    text = [f"general-position connection block for J = {_label(J)}"]
    text += _matrix_lines(matrix)
    doc = {"command": "omega-general", "J": list(J), **matrix}
    return _emit(ns, text, doc)


def _degeneration_path(pf: PathFile) -> DegenerationPath:
    dp = DegenerationPath(
        pf.realization,
        pf.t_witness,
        declared_T=pf.declared_T,
        declared_Tprime=pf.declared_Tprime,
    )
    _note_row_order(dp.T)  # the type at the witness, which the computation uses
    return dp


def _mult_payload(dp: DegenerationPath, mult) -> tuple[list[str], dict]:
    text = [
        f"dep at witness t = {dp.t_witness}: "
        + (" ".join(_label(J) for J in sorted(dp.T.dep)) or "(none)"),
        "dep at t = 0: " + " ".join(_label(J) for J in sorted(dp.Tprime.dep)),
        "multiplicities (vanishing order of each new minor):",
    ]
    for J, m in mult.items:
        text.append(f"  {_label(J)}: {m}")
    text.append(f"note: {mult.caveat}")
    doc = {
        "t_witness": str(dp.t_witness),
        "dep": [list(J) for J in sorted(dp.T.dep)],
        "dep_prime": [list(J) for J in sorted(dp.Tprime.dep)],
        "multiplicities": [{"J": list(J), "m": m} for J, m in mult.items],
        "caveat": mult.caveat,
    }
    return text, doc


def _cmd_multiplicity(ns) -> str:
    dp = _degeneration_path(parse_path_file(_read_file(ns.file)))
    mult = multiplicities(dp)
    text, payload = _mult_payload(dp, mult)
    doc = {"command": "multiplicity", "n": dp.T.n, "ell": dp.T.ell}
    doc.update(payload)
    return _emit(ns, text, doc)


def _cmd_connection(ns) -> str:
    pf = parse_path_file(_read_file(ns.file))
    # refuses an oversized basis before the path is typed
    _general_basis(pf.realization.n, pf.realization.ell)
    dp = _degeneration_path(pf)
    w = _pick_weights(ns, pf.weights)
    omega, mult = connection_for_path(dp, w)
    matrix = _matrix_json(omega.basis, omega.basis, omega.entries)
    text, payload = _mult_payload(dp, mult)
    text.append(
        f"connection matrix on the frame basis of the type "
        f"({len(omega.basis)} x {len(omega.basis)})"
    )
    text += _matrix_lines(matrix)
    doc = {"command": "connection", "n": dp.T.n, "ell": dp.T.ell}
    doc.update(payload)
    doc.update(matrix)
    return _emit(ns, text, doc)


def _cmd_verify(ns) -> tuple[str, int]:
    ok, results = reference.run_suite()
    text = []
    for c in results:
        if c.ok:
            text.append(f"ok   {c.name}")
        else:
            text.append(f"FAIL {c.name}: {c.detail}")
    n_fail = sum(1 for c in results if not c.ok)
    text.append(
        f"{len(results)} checks, {n_fail} failures"
        if n_fail
        else f"{len(results)} checks, all passed"
    )
    doc = {
        "command": "verify-paper",
        "ok": ok,
        "checks": [
            {"name": c.name, "ok": c.ok, **({"detail": c.detail} if not c.ok else {})}
            for c in results
        ],
    }
    return _emit(ns, text, doc), (0 if ok else 2)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    # usage mistakes are domain errors (exit 1), like every other bad input
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"error: {message}\n")


@functools.cache  # once per process: parsing leaves the parser unchanged
def _build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="gmarr",
        description=(
            "Exact connection matrices for one-parameter degenerations of "
            "hyperplane arrangements."
        ),
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *, weights=False, jobs=False):
        sp.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format (default: text)",
        )
        if weights:
            sp.add_argument(
                "--weights", choices=("file", "generic"), default="file",
                help='use the weights from the file, or force "generic"',
            )
        if jobs:
            sp.add_argument(
                "--jobs", type=int, default=1, metavar="N",
                help="accepted for compatibility; has no effect",
            )

    sp = sub.add_parser("analyze", help="combinatorial type, frames, dense edges")
    sp.add_argument("file")
    common(sp)

    sp = sub.add_parser("check-weights", help="nonresonance verdict for the weights")
    sp.add_argument("file")
    common(sp, weights=True)

    sp = sub.add_parser("projection", help="projection matrix onto the type's frames")
    sp.add_argument("file")
    common(sp, weights=True)

    sp = sub.add_parser(
        "omega-general", help="connection block for one index set in general position"
    )
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--J", required=True, help="comma-separated indices, e.g. 3,4,5")
    common(sp)

    sp = sub.add_parser("multiplicity", help="vanishing orders along a path")
    sp.add_argument("file")
    common(sp)

    sp = sub.add_parser("connection", help="connection matrix for a degeneration path")
    sp.add_argument("file")
    common(sp, weights=True, jobs=True)

    sp = sub.add_parser("verify-paper", help="recompute the built-in worked examples")
    common(sp)

    return p


_DISPATCH = {
    "analyze": _cmd_analyze,
    "check-weights": _cmd_check_weights,
    "projection": _cmd_projection,
    "omega-general": _cmd_omega_general,
    "multiplicity": _cmd_multiplicity,
    "connection": _cmd_connection,
    "verify-paper": _cmd_verify,
}


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        out = _DISPATCH[ns.command](ns)
    except (InconsistentSystem, SpanDefect) as e:
        return _report_error(ns, e, 2)
    except ValueError as e:
        return _report_error(ns, e, 1)
    code = 0
    if isinstance(out, tuple):
        out, code = out
    sys.stdout.write(out)
    return code


def _report_error(ns, e, code: int) -> int:
    if ns.format == "json":
        sys.stdout.write(json.dumps({"error": str(e)}) + "\n")
    else:
        print(f"error: {e}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
