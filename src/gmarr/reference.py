"""Built-in verification suite over the two worked examples.

This module is the one golden source of the worked examples: the four-line
triple-point arrangement with its three one-parameter degenerations, and the
five-line arrangement with a doubled vanishing order.  ``EXAMPLES`` holds
their input files (``fixtures/`` holds the same documents as JSON, and the
tests check that they agree) and ``EXPECTED`` the expected values, matrices
as canonical rendered strings.  Each check recomputes one artifact from
scratch and compares exactly; there is no tolerance.  The spectral checks
certify each worked path's connection matrix Ω: with X the edge that
collapses, Ω² = λ_X·Ω and tr Ω = r·λ_X, so Ω/λ_X is a projection of rank r.
"""

from __future__ import annotations

from .aomoto_kita import omega_general
from .arrangement import (
    Realization,
    Weights,
    betanbc_frames,
    compute_type,
    dense_edges,
    general_position_type,
)
from .exact import parse_path_poly, parse_rational
from .gauss_manin import (
    DegenerationPath,
    connection_for_path,
    multiplicities,
    relative_dep,
)
from .linalg import mat_mul
from .orlik_solomon import projection_matrix


def _example(rows, **path_keys) -> dict:
    """An input file of the command-line format, with symbolic weights."""
    doc = {"n": len(rows), "ell": len(rows[0]) - 1, "rows": rows, "weights": "generic"}
    return {**doc, **path_keys}


# The worked examples as input files, keyed by stem: EXAMPLES[stem] equals
# json.loads of fixtures/<stem>.json.  The triple-point arrangement has three
# degenerations: line 4 sweeping onto the triple point, lines 1 and 2
# colliding, line 4 moving out to infinity.  On the Selberg path lines 3, 4, 5
# collapse onto the horizontal axis as t -> 0.
EXAMPLES = {
    "triple_point": _example(
        [["0", "1", "1"], ["0", "1", "0"], ["0", "1", "-1"], ["-1", "0", "1"]],
    ),
    "triple_point_path_1": _example(
        [["0", "1", "1"], ["0", "1", "0"], ["0", "1", "-1"], ["-1", "1 - t", "-1 + 2*t"]],
        t_witness="1",
    ),
    "triple_point_path_2": _example(
        [["0", "1", "1"], ["0", "1", "1 - t"], ["0", "1", "-1"], ["-1", "0", "1"]],
        t_witness="1",
    ),
    "triple_point_path_3": _example(
        [["0", "1", "1"], ["0", "1", "0"], ["0", "1", "-1"], ["-t", "0", "1"]],
        t_witness="1",
    ),
    "selberg": _example(
        [["0", "1", "0"], ["-1", "1", "0"], ["0", "0", "1"], ["-1", "0", "1"], ["0", "1", "-1"]],
    ),
    "selberg_path": _example(
        [["0", "1", "0"], ["-1", "1", "0"], ["0", "0", "1"], ["-t", "0", "1"], ["0", "t", "-1"]],
        t_witness="1",
        declared_dep_prime=[
            [1, 2, 6], [1, 3, 4], [1, 3, 5], [1, 4, 5], [2, 3, 4], [2, 3, 5],
            [2, 4, 5], [3, 4, 5], [3, 4, 6], [3, 5, 6], [4, 5, 6],
        ],
    ),
}

EXPECTED = {
    "triple-point dep": ((1, 2, 3),),
    "triple-point betanbc": ((2, 4), (3, 4)),
    "general betanbc (n=4)": ((2, 3), (2, 4), (3, 4)),
    "triple-point dense edges": (
        (1,), (2,), (3,), (4,), (5,), (1, 2, 3),
    ),
    "projection triple-point": (
        ("(-l3)/(l1 + l2 + l3)", "(l2)/(l1 + l2 + l3)"),
        ("1", "0"),
        ("0", "1"),
    ),
    "omega-general 345": (
        ("0", "0", "-l2"),
        ("0", "0", "l2"),
        ("0", "0", "-l1 - l2"),
    ),
    "omega-general 125": (
        ("-l3", "-l3", "0"),
        ("-l4", "-l4", "0"),
        ("0", "0", "0"),
    ),
    "omega-general 124": (
        ("0", "0", "0"),
        ("l4", "l1 + l2 + l4", "l2"),
        ("0", "0", "0"),
    ),
    "omega-general 134": (
        ("0", "0", "0"),
        ("0", "0", "0"),
        ("-l4", "l3", "l1 + l3 + l4"),
    ),
    "omega-general 234": (
        ("l4", "-l3", "l2"),
        ("-l4", "l3", "-l2"),
        ("l4", "-l3", "l2"),
    ),
    "connection T1": (("0", "l2"), ("0", "-l1 - l2")),
    "connection T2": (("l1 + l2", "l2"), ("0", "0")),
    "connection T3": (
        ("l1 + l2 + l3 + l4", "0"),
        ("0", "l1 + l2 + l3 + l4"),
    ),
    "selberg dep": ((1, 2, 6), (1, 3, 5), (2, 4, 5), (3, 4, 6)),
    "selberg betanbc": ((2, 4), (2, 5)),
    "selberg dense edges": (
        (1,), (2,), (3,), (4,), (5,), (6,),
        (1, 2, 6), (1, 3, 5), (2, 4, 5), (3, 4, 6),
    ),
    "selberg projection": (
        ("-1", "-1"),
        ("1", "0"),
        ("0", "1"),
        ("0", "0"),
        (
            "(-l2*l5 + l3*l5)/(l1*l2 + l2*l3 + l2*l5)",
            "(-l2*l3 - l2*l5 - l3*l4)/(l1*l2 + l2*l3 + l2*l5)",
        ),
        ("(-l5)/(l2)", "(l4)/(l2)"),
    ),
    "selberg relative dep": (
        (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
        (3, 4, 5), (3, 5, 6), (4, 5, 6),
    ),
    "selberg multiplicities": (
        ((1, 3, 4), 1), ((1, 4, 5), 1), ((2, 3, 4), 1), ((2, 3, 5), 1),
        ((3, 4, 5), 2), ((3, 5, 6), 1), ((4, 5, 6), 1),
    ),
    "selberg connection": (
        ("l3 + l4 + l5", "0"),
        ("0", "l3 + l4 + l5"),
    ),
    # per path: the collapsing edge X (n + 1 is infinity), λ_X and the rank
    "spectral": {
        "triple_point_path_1": ((3, 4, 5), "-l1 - l2", 1),
        "triple_point_path_2": ((1, 2), "l1 + l2", 1),
        "triple_point_path_3": ((1, 2, 3, 4), "l1 + l2 + l3 + l4", 2),
        "selberg_path": ((3, 4, 5), "l3 + l4 + l5", 2),
    },
}


def _realization(stem: str) -> Realization:
    rows = EXAMPLES[stem]["rows"]
    return Realization([[parse_rational(e) for e in row] for row in rows])


def _path(stem: str) -> DegenerationPath:
    doc = EXAMPLES[stem]
    rows = [[parse_path_poly(e) for e in row] for row in doc["rows"]]
    return DegenerationPath(Realization(rows), parse_rational(doc["t_witness"]))


def render_scalar(x) -> str:
    return x.render() if hasattr(x, "render") else str(x)


def _rendered(entries):
    return tuple(tuple(render_scalar(e) for e in row) for row in entries)


class CheckResult:
    __slots__ = ("name", "ok", "detail")

    def __init__(self, name: str, ok: bool, detail: str = ""):
        self.name = name
        self.ok = ok
        self.detail = detail


def _compare(name: str, got) -> CheckResult:
    want = EXPECTED[name]
    if got == want:
        return CheckResult(name, True)
    return CheckResult(name, False, f"expected {want!r}, got {got!r}")


def _spectral(stem: str, omega) -> CheckResult:
    """Ω² = λ_X·Ω and tr Ω = r·λ_X, over the numerators of Ω (its entries
    are polynomials in the weights), with X, λ_X and r from EXPECTED."""
    name = f"spectral {stem}"
    X, lam_text, rank = EXPECTED["spectral"][stem]
    w = Weights.generic(len(EXAMPLES[stem]["rows"]))
    lam = w.weight_sum(X)
    if render_scalar(lam) != lam_text:
        return CheckResult(name, False, f"lambda_X is {render_scalar(lam)}, expected {lam_text}")
    if omega is None:
        return CheckResult(name, False, "the path has no connection matrix")
    if not all(x.den.is_one() for row in omega.entries for x in row):
        return CheckResult(name, False, "an entry of the connection matrix has a denominator")
    N = [[x.num for x in row] for row in omega.entries]
    if mat_mul(N, N) != [[lam * x for x in row] for row in N]:
        return CheckResult(name, False, "the connection matrix squared is not lambda_X times it")
    trace = sum((row[i] for i, row in enumerate(N)), w.zero_scalar())
    if trace != lam * rank:
        detail = f"the trace is {render_scalar(trace)}, expected {rank}*({lam_text})"
        return CheckResult(name, False, detail)
    return CheckResult(name, True)


def run_checks() -> list[CheckResult]:
    """Recompute the full worked-example suite and compare to expectations."""
    out: list[CheckResult] = []

    T = compute_type(_realization("triple_point"))
    w4 = Weights.generic(4)
    out.append(_compare("triple-point dep", tuple(sorted(T.dep))))
    out.append(_compare("triple-point betanbc", betanbc_frames(T)))
    out.append(
        _compare("general betanbc (n=4)", betanbc_frames(general_position_type(4, 2)))
    )
    out.append(
        _compare(
            "triple-point dense edges",
            tuple(f.members for f in dense_edges(T)),
        )
    )
    out.append(_compare("projection triple-point", _rendered(projection_matrix(T, w4).entries)))

    for J, name in [
        ((3, 4, 5), "omega-general 345"),
        ((1, 2, 5), "omega-general 125"),
        ((1, 2, 4), "omega-general 124"),
        ((1, 3, 4), "omega-general 134"),
        ((2, 3, 4), "omega-general 234"),
    ]:
        out.append(_compare(name, _rendered(omega_general(J, 4, 2).entries)))

    omegas = {}
    for k in (1, 2, 3):
        dp = _path(f"triple_point_path_{k}")
        if dp.T != T:
            out.append(
                CheckResult(
                    f"connection T{k}", False,
                    f"path witness type is {sorted(dp.T.dep)}, expected {sorted(T.dep)}",
                )
            )
            continue
        omega, _ = connection_for_path(dp)
        out.append(_compare(f"connection T{k}", _rendered(omega.entries)))
        omegas[f"triple_point_path_{k}"] = omega

    S = compute_type(_realization("selberg"))
    w5 = Weights.generic(5)
    out.append(_compare("selberg dep", tuple(sorted(S.dep))))
    out.append(_compare("selberg betanbc", betanbc_frames(S)))
    out.append(
        _compare("selberg dense edges", tuple(f.members for f in dense_edges(S)))
    )
    out.append(_compare("selberg projection", _rendered(projection_matrix(S, w5).entries)))

    dp = _path("selberg_path")
    ok_types = dp.T == S
    out.append(
        CheckResult(
            "selberg path endpoints", ok_types,
            "" if ok_types else f"witness type {sorted(dp.T.dep)} differs from {sorted(S.dep)}",
        )
    )
    out.append(_compare("selberg relative dep", relative_dep(dp.T, dp.Tprime)))
    mult = multiplicities(dp)
    out.append(_compare("selberg multiplicities", mult.items))
    omega_s, _ = connection_for_path(dp)
    out.append(_compare("selberg connection", _rendered(omega_s.entries)))
    omegas["selberg_path"] = omega_s

    out.extend(_spectral(stem, omegas.get(stem)) for stem in EXPECTED["spectral"])

    return out

