"""Degeneration paths, vanishing multiplicities, and the connection matrix.

A one-parameter family of arrangements (rows over PathPoly) realizes a type
T away from finitely many parameter values and a more degenerate type T' at
t = 0.  For each newly dependent (ℓ+1)-subset J the multiplicity m_J is the
order of vanishing of the corresponding minor along the path.  The connection
matrix on the degenerate-locus side is the Ω with

    P(T) · Ω = (Σ_J m_J · Ω_general(J)) · P(T)

over the weight field.  Every frame of T labels a unit row of P(T), so Ω is
read off the right-hand side at those rows; every row of the equation is
then checked exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .aomoto_kita import ConnectionMatrix, _general_basis, omega_general
from .arrangement import (
    CombinatorialType,
    Realization,
    RealizationError,
    Weights,
    betanbc_frames,
    compute_type,
    stv_check,
)
from .exact import RatFunc, _as_fraction
from .linalg import mat_mul
from .orlik_solomon import ProjectionMatrix, ResonantWeights, projection_matrix

COVER_CAVEAT = (
    "cover relation not verified: the tool checks dep(T) is a proper subset "
    "of dep(T') and that the path is valid, but not that no intermediate "
    "type exists"
)


class PathError(ValueError):
    """A degeneration path fails validation."""


class InconsistentSystem(RuntimeError):
    """The connection equation has no exact solution on the given data."""

    def __init__(self, row_label, message):
        self.row_label = row_label
        super().__init__(message)


def relative_dep(T: CombinatorialType, Tprime: CombinatorialType):
    """Newly dependent (ℓ+1)-subsets: dep(T') ∖ dep(T), requiring a strict
    inclusion dep(T) ⊊ dep(T')."""
    if (T.n, T.ell) != (Tprime.n, Tprime.ell):
        raise ValueError(
            f"types do not share (n, ell): ({T.n},{T.ell}) vs ({Tprime.n},{Tprime.ell})"
        )
    if not (T.dep < Tprime.dep):
        raise ValueError(
            "not a degeneration: dep of the first type must be a proper "
            "subset of dep of the second"
        )
    return tuple(sorted(Tprime.dep - T.dep))


class DegenerationPath:
    """A validated one-parameter family connecting T (at the witness) to the
    degenerate type T' (at t = 0).

    Declared types, when supplied, are checked against the recomputed ones;
    mismatches are reported with the offending subsets.
    """

    __slots__ = ("realization", "t_witness", "T", "Tprime")

    def __init__(
        self,
        realization: Realization,
        t_witness,
        declared_T: CombinatorialType | None = None,
        declared_Tprime: CombinatorialType | None = None,
    ):
        if not realization.is_path:
            raise PathError("realization has no parameter: not a path")
        t_star = _as_fraction(t_witness)
        if not t_star:
            raise PathError("witness parameter value must be nonzero")
        try:
            at_witness = realization.specialize(t_star)
        except RealizationError as e:
            raise PathError(f"path is degenerate at the witness t = {t_star}: {e}") from e
        T = compute_type(at_witness)
        at_zero = realization.specialize(0, allow_coincident=True)
        Tprime = compute_type(at_zero)
        if declared_T is not None and declared_T != T:
            raise PathError(_declared_mismatch("T at the witness", declared_T, T))
        if declared_Tprime is not None and declared_Tprime != Tprime:
            raise PathError(_declared_mismatch("T' at t = 0", declared_Tprime, Tprime))
        if not (T.dep < Tprime.dep):
            raise PathError(
                "not a degeneration: the type at t = 0 must be strictly more "
                "dependent than the type at the witness"
            )
        self.realization = realization
        self.t_witness = t_star
        self.T = T
        self.Tprime = Tprime


def _declared_mismatch(what, declared, computed) -> str:
    missing = sorted(declared.dep - computed.dep)
    extra = sorted(computed.dep - declared.dep)
    parts = [f"declared type for {what} does not match the path"]
    if missing:
        parts.append(f"declared-but-absent: {missing}")
    if extra:
        parts.append(f"present-but-undeclared: {extra}")
    return "; ".join(parts)


@dataclass(frozen=True)
class MultiplicityTable:
    """Vanishing orders m_J for J in dep(T',T), with the standing caveat."""

    items: tuple[tuple[tuple[int, ...], int], ...]
    caveat: str = COVER_CAVEAT

    def mapping(self) -> dict[tuple[int, ...], int]:
        return dict(self.items)


def multiplicities(p: DegenerationPath) -> MultiplicityTable:
    """m_J = order of vanishing at t = 0 of the J-minor along the path.

    The endpoint types are recomputed from the rows rather than trusted, so
    a path object whose stored types were tampered with is rejected here;
    the per-minor checks run first so a claimed newly-dependent subset whose
    minor never vanishes, or never varies, gets the specific diagnostic.
    """
    rel = relative_dep(p.T, p.Tprime)
    items = []
    for J in rel:
        poly = p.realization.minor(J)
        order = poly.ord_t()
        if order is None:
            raise PathError(
                f"minor for {J} vanishes identically along the path; the "
                "subset is degenerate for every parameter value"
            )
        if order < 1:
            raise PathError(
                f"minor for {J} does not vanish at t = 0; the path does not "
                "realize the degenerate type"
            )
        items.append((J, order))
    t_w = compute_type(p.realization.specialize(p.t_witness))
    t_0 = compute_type(p.realization.specialize(0, allow_coincident=True))
    if t_w != p.T or t_0 != p.Tprime:
        raise PathError(
            "stored endpoint types do not match a recomputation from the rows"
        )
    return MultiplicityTable(items=tuple(items))


def combined_omega(
    T: CombinatorialType,
    Tprime: CombinatorialType,
    mult: MultiplicityTable | Mapping[tuple[int, ...], int],
    n: int,
    ell: int,
    w: Weights | None = None,
) -> ConnectionMatrix:
    """Σ_J m_J · omega_general(J) over the general-position basis, summed in
    sorted-J order."""
    if (T.n, T.ell) != (n, ell) or (Tprime.n, Tprime.ell) != (n, ell):
        raise ValueError("types disagree with the supplied n, ell")
    if not T.dep <= Tprime.dep:
        raise ValueError(
            "not a degeneration: dep of the first type must be contained in "
            "dep of the second"
        )
    table = mult.mapping() if isinstance(mult, MultiplicityTable) else dict(mult)
    expected = set(Tprime.dep - T.dep)
    if set(table) != expected:
        missing = sorted(expected - set(table))
        extra = sorted(set(table) - expected)
        raise ValueError(
            f"multiplicity keys do not match dep(T',T); missing {missing}, "
            f"unexpected {extra}"
        )
    if w is None:
        w = Weights.generic(n)
    zero = w.zero_scalar()
    basis = _general_basis(n, ell)
    acc = [[zero for _ in basis] for _ in basis]
    order = sorted(table)
    for J in order:
        m = table[J]
        if not (isinstance(m, int) and m >= 1):
            raise ValueError(f"multiplicity for {J} must be a positive integer")
    for J in order:
        m = table[J]
        M = omega_general(J, n, ell, w)
        for i in range(len(basis)):
            row = M.entries[i]
            for j in range(len(basis)):
                if row[j]:
                    acc[i][j] = acc[i][j] + m * row[j]
    return ConnectionMatrix(basis=basis, entries=tuple(tuple(r) for r in acc))


def solve_connection(P: ProjectionMatrix, B: ConnectionMatrix) -> ConnectionMatrix:
    """Read Ω off P·Ω = B·P and verify every row of the system exactly.

    Each frame of the column basis also labels a row of P, and that row is
    the frame's unit vector, so its row of P·Ω is its row of Ω: Ω's row for
    the frame is B·P's row for it.  No elimination is run.  A frame that
    labels no row of P, or whose row is not its unit vector, is reported as
    an inconsistency; so is any row of P·Ω that differs from B·P.
    """
    if P.row_basis != B.basis:
        raise ValueError("projection rows and connection basis disagree")
    if not P.col_basis:
        return ConnectionMatrix(basis=(), entries=())
    rhs = mat_mul(B.entries, P.entries)
    row_of = {label: i for i, label in enumerate(P.row_basis)}
    omega = []
    for j, frame in enumerate(P.col_basis):
        i = row_of.get(frame)
        if i is None:
            raise InconsistentSystem(
                frame, f"frame {frame} of the target type labels no row of P"
            )
        row = P.entries[i]
        if row[j] != 1 or any(e for c, e in enumerate(row) if c != j):
            raise InconsistentSystem(
                frame, f"the row of P for the frame {frame} is not its unit vector"
            )
        omega.append(tuple(rhs[i]))
    lhs = mat_mul(P.entries, omega)
    for i, label in enumerate(P.row_basis):
        if lhs[i] != rhs[i]:
            raise InconsistentSystem(
                label,
                f"connection equation fails on the row for {label}: "
                "resonant weights, an invalid path, or inconsistent bases",
            )
    return ConnectionMatrix(basis=P.col_basis, entries=tuple(omega))


def connection_for_path(
    p: DegenerationPath, w: Weights | None = None
) -> tuple[ConnectionMatrix, MultiplicityTable]:
    """End-to-end: multiplicities, combined general matrix, projection, and
    the verified read-off of Ω."""
    if w is None:
        w = Weights.generic(p.T.n)
    mult = multiplicities(p)
    B = combined_omega(p.T, p.Tprime, mult, p.T.n, p.T.ell, w)
    P = projection_matrix(p.T, w)
    return solve_connection(P, B), mult


# ---------------------------------------------------------------------------
# codimension-one closed forms
# ---------------------------------------------------------------------------


def normalize_codim1_type(T: CombinatorialType):
    """Relabel hyperplanes so the unique dependent subset sits in standard
    position: [1..ℓ+1] when the subset avoids n+1, else [n−ℓ+1..n+1].

    Returns (normalized type, mapping old index → new index on [n]); the
    infinity index n+1 is never moved.  Frame labels produced for the
    normalized type refer to the new indices.
    """
    if len(T.dep) != 1:
        raise ValueError(f"type has {len(T.dep)} dependent subsets; need exactly 1")
    (K,) = T.dep
    n, ell = T.n, T.ell
    finite = [x for x in K if x <= n]
    if n + 1 in K:
        targets = list(range(n - ell + 1, n + 1))
    else:
        targets = list(range(1, ell + 2))
    perm: dict[int, int] = {}
    for old, new in zip(finite, targets):
        perm[old] = new
    others = [x for x in range(1, n + 1) if x not in perm]
    slots = [x for x in range(1, n + 1) if x not in set(targets)]
    for old, new in zip(others, slots):
        perm[old] = new
    new_K = tuple(sorted(perm.get(x, x) for x in K))
    return CombinatorialType(n, ell, [new_K]), perm


def codim1_projection_closed_form(
    T: CombinatorialType, w: Weights | None = None
) -> ProjectionMatrix:
    """Projection matrix of a type with exactly one dependent subset, by the
    known closed form (no linear solve).

    The dependent subset must be in standard position ([1..ℓ+1] or
    [n−ℓ+1..n+1]); use normalize_codim1_type to relabel first.  Frame bases
    are order-sensitive, so results for a relabeled type are expressed in
    the new labels and are not mapped back.
    """
    if len(T.dep) != 1:
        raise ValueError(f"type has {len(T.dep)} dependent subsets; need exactly 1")
    (K,) = T.dep
    n, ell = T.n, T.ell
    if w is None:
        w = Weights.generic(n)
    elif w.n != n:
        raise ValueError(f"weights are for n={w.n}, type has n={T.n}")
    if not w.is_generic:
        report = stv_check(T, w)
        if not report.ok:
            raise ResonantWeights(report)
    sources = _general_basis(n, ell)
    cols = betanbc_frames(T)
    zero = w.zero_scalar()
    one = w.one_scalar()

    if n + 1 in K:
        expected = tuple(range(n - ell + 1, n + 2))
        if K != expected:
            raise ValueError(
                f"dependent subset {K} is not in standard position {expected}; "
                "apply normalize_codim1_type first"
            )
        L = K[:-1]
        if cols != tuple(S for S in sources if S != L):
            raise RuntimeError(
                "betanbc frames disagree with the closed form's basis"
            )
        col_index = {S: i for i, S in enumerate(cols)}
        entries = []
        for I in sources:
            row = [zero] * len(cols)
            if I != L:
                row[col_index[I]] = one
            entries.append(tuple(row))
        return ProjectionMatrix(row_basis=sources, col_basis=cols, entries=tuple(entries))

    expected = tuple(range(1, ell + 2))
    if K != expected:
        raise ValueError(
            f"dependent subset {K} is not in standard position {expected}; "
            "apply normalize_codim1_type first"
        )
    F = tuple(range(2, ell + 2))
    if cols != tuple(S for S in sources if S != F):
        raise RuntimeError("betanbc frames disagree with the closed form's basis")
    col_index = {S: i for i, S in enumerate(cols)}
    lam_K = w.weight_sum(K)
    entries = []
    for I in sources:
        row = [zero] * len(cols)
        if I != F:
            row[col_index[I]] = one
        else:
            for j in range(2, ell + 2):
                lam_j = w.weight(j)
                sign = -1 if (j + ell) % 2 else 1
                for q in range(ell + 2, n + 1):
                    target = tuple(x for x in F if x != j) + (q,)
                    if w.is_generic:
                        value = RatFunc(sign * lam_j, lam_K)
                    else:
                        value = Fraction(sign) * lam_j / lam_K
                    row[col_index[target]] = value
        entries.append(tuple(row))
    return ProjectionMatrix(row_basis=sources, col_basis=cols, entries=tuple(entries))
