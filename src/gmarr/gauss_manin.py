"""Degeneration paths, vanishing multiplicities, and the connection matrix.

A one-parameter family of arrangements (rows over PathPoly) realizes a type
T away from finitely many parameter values and a more degenerate type T' at
t = 0.  For each newly dependent (ℓ+1)-subset J the multiplicity m_J is the
order of vanishing of the corresponding minor along the path.  The connection
matrix on the degenerate-locus side is the Ω with

    P(T) · Ω = (Σ_J m_J · Ω_general(J)) · P(T)

over the weight field.  P(T) = N/d over one common denominator, and every
frame of T labels a row d·e of N, so Ω = W/d for W the frame rows of B·N;
every row of the polynomial identity N·W = d·(B·N) is then checked exactly.
With concrete weights N and d are ints, and B is scaled to ints by s, the
lcm of its denominators: W, both products and the check run on Python ints,
and Ω = W/(d·s).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .aomoto_kita import ConnectionMatrix, _general_basis, _weighted_sum
from .arrangement import (
    CombinatorialType,
    Realization,
    RealizationError,
    Weights,
    betanbc_frames,
    stv_check,
)
from .exact import _as_fraction, quotient
from .linalg import _integer_row, mat_mul
from .orlik_solomon import ProjectionMatrix, ResonantWeights, projection_matrix

COVER_CAVEAT = (
    "cover relation not verified: the tool checks dep(T) is a proper subset "
    "of dep(T') and that the path is valid, but not that no intermediate "
    "type exists"
)


# Limit on (bits of the witness's numerator or denominator) × (highest power
# of t in the rows).  Seven rows of degree 1000 take 1.1–1.5 s to specialise
# and type at a 65-bit witness, and minutes at 2^20.
MAX_WITNESS_BITS = 2**16


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

    Both types come from ``realization.type_at``; a realization is
    immutable, so they are computed once and kept on it for
    ``multiplicities`` to check against, and
    the determinants of blocks made only of unmoving rows, minors and
    sub-minors, are computed once and read back at the other end.
    Rows may coincide at t = 0 only: the witness is nonzero, and there
    ``type_at`` refuses coincident rows.  A row that vanishes at either end
    is a ``PathError`` naming that end.
    Declared types, when supplied, are checked against the computed ones;
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
        bits = max(t_star.numerator.bit_length(), t_star.denominator.bit_length())
        degree = max(e.total_degree() for row in realization.rows for e in row)
        if bits * degree > MAX_WITNESS_BITS:
            raise PathError(f"t_witness has {bits}-bit numerator or denominator and "
                            f"the rows carry t^{degree}: over the limit {MAX_WITNESS_BITS}")
        try:
            T = realization.type_at(t_star)
        except RealizationError as e:
            raise PathError(f"path is degenerate at the witness t = {t_star}: {e}") from e
        try:
            Tprime = realization.type_at(0)
        except RealizationError as e:
            raise PathError(f"path is degenerate at t = 0: {e}") from e
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
    caveat = COVER_CAVEAT

    def mapping(self) -> dict[tuple[int, ...], int]:
        return dict(self.items)


def multiplicities(p: DegenerationPath) -> MultiplicityTable:
    """m_J = order of vanishing at t = 0 of the J-minor along the path.

    The stored endpoint types are not trusted: they are compared with
    ``p.realization.type_at`` at the witness and at 0, which types the
    realization's rows (once per realization), so a path object whose stored types
    were tampered with is rejected here.  The per-minor checks run first so a
    claimed newly-dependent subset whose minor never vanishes, or never
    varies, gets the specific diagnostic.
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
    t_w = p.realization.type_at(p.t_witness)
    t_0 = p.realization.type_at(0)
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
    terms = sorted(table.items())
    for J, m in terms:
        if not (isinstance(m, int) and m >= 1):
            raise ValueError(f"multiplicity for {J} must be a positive integer")
    return _weighted_sum(terms, n, ell, w)


def solve_connection(P: ProjectionMatrix, B: ConnectionMatrix) -> ConnectionMatrix:
    """Read Ω off P·Ω = B·P and verify every row of the system exactly.

    With P = N/d, each frame of the column basis also labels a row of N,
    and that row is d times the frame's unit vector, so Ω's row for the
    frame is the row of B·N for it, over d: Ω = W/d.  No elimination is run.
    A frame that labels no row of P, or whose row of N is not d times its
    unit vector, is reported as an inconsistency; so is any row of N·W that
    differs from d·(B·N), the equation times d² over the domain.

    When d and every entry of B are ``int`` or ``Fraction`` (concrete
    weights), B is first multiplied by s, the lcm of its entries'
    denominators (the ``linalg._integer_row`` rule over the whole matrix).
    Then B·N, W and N·W are Python ints, each row of the check is s times
    the unscaled one, and each entry of Ω is formed once as W/(d·s).  A
    ``MultiPoly`` B or d is used as it is.
    """
    if P.row_basis != B.basis:
        raise ValueError("projection rows and connection basis disagree")
    if not P.col_basis:
        return ConnectionMatrix(basis=(), entries=())
    N, d = P.numerators, P.denominator
    entries, s = B.entries, 1
    flat = [x for row in entries for x in row]
    if all(isinstance(x, (int, Fraction)) for x in (d, *flat)):
        s, flat = _integer_row(flat)
        it = iter(flat)
        entries = [[next(it) for _ in row] for row in entries]
    BN = mat_mul(entries, N)
    row_of = {label: i for i, label in enumerate(P.row_basis)}
    W = []
    for j, frame in enumerate(P.col_basis):
        i = row_of.get(frame)
        if i is None:
            raise InconsistentSystem(
                frame, f"frame {frame} of the target type labels no row of P"
            )
        row = N[i]
        if row[j] != d or any(e for c, e in enumerate(row) if c != j):
            raise InconsistentSystem(
                frame, f"the row of P for the frame {frame} is not its unit vector"
            )
        W.append(BN[i])
    NW = mat_mul(N, W)
    for i, label in enumerate(P.row_basis):
        if NW[i] != [d * x for x in BN[i]]:
            raise InconsistentSystem(
                label,
                f"connection equation fails on the row for {label}: "
                "resonant weights, an invalid path, or inconsistent bases",
            )
    ds = d * s
    omega = tuple(tuple(quotient(x, ds) for x in row) for row in W)
    return ConnectionMatrix(basis=P.col_basis, entries=omega)


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
    the new labels and are not mapped back.  The common denominator is λ_K
    for K = [1..ℓ+1], and 1 for K = [n−ℓ+1..n+1], where P has no fractions.
    """
    if len(T.dep) != 1:
        raise ValueError(f"type has {len(T.dep)} dependent subsets; need exactly 1")
    (K,) = T.dep
    n, ell = T.n, T.ell
    sources = _general_basis(n, ell)
    if w is None:
        w = Weights.generic(n)
    elif w.n != n:
        raise ValueError(f"weights are for n={w.n}, type has n={T.n}")
    if not w.is_generic:
        report = stv_check(T, w)
        if not report.ok:
            raise ResonantWeights(report)
    cols = betanbc_frames(T)
    zero = w.zero_scalar()

    if n + 1 in K:
        expected = tuple(range(n - ell + 1, n + 2))
        special = K[:-1]  # its row of P is zero
        d = w.one_scalar()
    else:
        expected = tuple(range(1, ell + 2))
        special = tuple(range(2, ell + 2))
        d = w.weight_sum(K)
    if K != expected:
        raise ValueError(
            f"dependent subset {K} is not in standard position {expected}; "
            "apply normalize_codim1_type first"
        )
    if cols != tuple(S for S in sources if S != special):
        raise RuntimeError("betanbc frames disagree with the closed form's basis")
    col_index = {S: i for i, S in enumerate(cols)}
    numerators = []
    for I in sources:
        row = [zero] * len(cols)
        if I != special:
            row[col_index[I]] = d
        elif n + 1 not in K:
            for j in range(2, ell + 2):
                lam_j = w.weight(j)
                sign = -1 if (j + ell) % 2 else 1
                for q in range(ell + 2, n + 1):
                    target = tuple(x for x in special if x != j) + (q,)
                    row[col_index[target]] = sign * lam_j
        numerators.append(tuple(row))
    return ProjectionMatrix(sources, cols, tuple(numerators), d)
