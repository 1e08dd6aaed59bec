"""The graded algebra of an arrangement in its no-broken-circuit basis.

Degree-q elements are combinations of monomials a_S over sorted q-subsets
of [n]; the defining relations are

  * a_S = 0 whenever S is affinely dependent, and
  * Σ_k (−1)^k a_{C∖{c_k}} = 0 for every affine circuit C = {c_0 < … < c_q},

so every element rewrites uniquely onto the monomials indexed by nbc sets
(*straightening*).  An element in that basis is a plain dict from nbc sets
to nonzero coefficients.  On top of that sit the twisted differential a_λ∧·
and the projection matrix carrying the general-position top cohomology
basis onto the one of a degenerate type.

Scalars follow the weight mode: MultiPoly for generic weights, Fraction for
concrete ones; the projection matrix is kept over one common denominator.
With concrete weights that denominator d and the numerators N are Python
ints; ``gauss_manin.solve_connection`` says how Ω is read off them over ints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .aomoto_kita import _general_basis
from .arrangement import (
    TYPE_CACHE_SIZE,
    CombinatorialType,
    Weights,
    _affine_independent,
    _broken_circuits,
    betanbc_frames,
    nbc_sets,
    stv_check,
)
from .exact import poly_exact_div, poly_gcd, quotient
from .linalg import _integer_row, fraction_free_echelon


# Largest projection system, |nbc_ℓ| rows × (|nbc_{ℓ-1}| + non-frame
# sources) columns: 140 × 149 single-term rows (a ladder path at n = 10,
# ℓ = 4) take 0.27 s; the tests and the benchmark reach 40 × 38.
MAX_PROJECTION_CELLS = 25_000


class ResonantWeights(ValueError):
    """Concrete weights hit a nonresonance condition; carries the report."""

    def __init__(self, report):
        self.report = report
        bad = ", ".join(
            f"sum over {members} = {value}" for members, value in report.violations
        )
        super().__init__(f"weights are resonant: {bad}")


class SpanDefect(RuntimeError):
    """The frames' images together with the coboundaries fail to span top degree."""

    def __init__(self, defect: int, message: str):
        self.defect = defect
        super().__init__(message)


def _shuffle_sign(left: Iterable[int], right: Iterable[int]) -> int:
    """Sign of sorting the concatenation of two disjoint sorted tuples."""
    inversions = 0
    for a in left:
        for b in right:
            if a > b:
                inversions += 1
    return -1 if inversions % 2 else 1


class _Straightener:
    """Per-type rewriting engine with a memo table.

    Rewrites always target the lexicographically least broken circuit inside
    the monomial and use the completing circuit with the smallest added
    element, so results are deterministic; every replacement monomial is
    lexicographically smaller, so the recursion terminates.
    """

    def __init__(self, T: CombinatorialType, complete: dict[tuple[int, ...], int]):
        self.T = T
        # broken circuit -> least completing element, in lexicographic order
        self.complete = complete
        self.memo: dict[tuple[int, ...], dict[tuple[int, ...], int]] = {}

    def rewrite(self, S: tuple[int, ...]) -> dict[tuple[int, ...], int]:
        hit = self.memo.get(S)
        if hit is not None:
            return hit
        if not _affine_independent(self.T, S):
            result: dict[tuple[int, ...], int] = {}
            self.memo[S] = result
            return result
        sset = set(S)
        bc = next((b for b in self.complete if sset.issuperset(b)), None)
        if bc is None:
            result = {S: 1}
            self.memo[S] = result
            return result
        c0 = self.complete[bc]
        C = (c0,) + bc
        R = tuple(x for x in S if x not in bc)
        # a_S = sign1 · a_R ∧ a_bc, then replace a_bc via the circuit relation
        sign1 = _shuffle_sign(R, bc)
        result = {}
        for k in range(1, len(C)):
            D = C[:k] + C[k + 1:]
            coeff = sign1 * (-1 if k % 2 == 0 else 1) * _shuffle_sign(R, D)
            piece = tuple(sorted(R + D))
            for key, val in self.rewrite(piece).items():
                cur = result.get(key)
                new = coeff * val if cur is None else cur + coeff * val
                if new:
                    result[key] = new
                elif cur is not None:
                    del result[key]
        self.memo[S] = result
        return result


# least recently used first; at most TYPE_CACHE_SIZE engines
_STRAIGHTENERS: dict[CombinatorialType, _Straightener] = {}


def _straightener(T: CombinatorialType) -> _Straightener:
    eng = _STRAIGHTENERS.pop(T, None) or _Straightener(T, _broken_circuits(T))
    if len(_STRAIGHTENERS) >= TYPE_CACHE_SIZE:
        del _STRAIGHTENERS[next(iter(_STRAIGHTENERS))]
    _STRAIGHTENERS[T] = eng
    return eng


def straighten(S: Iterable[int], T: CombinatorialType) -> dict[tuple[int, ...], int]:
    """Expand the monomial a_S in the nbc basis: a fresh dict from nbc
    |S|-sets to nonzero integer coefficients, empty when a_S = 0."""
    S = tuple(sorted(S))
    if len(set(S)) != len(S):
        raise ValueError(f"monomial index set {S} has repeats")
    if S and not (1 <= S[0] and S[-1] <= T.n):
        raise ValueError(f"monomial index set {S} out of range 1..{T.n}")
    return dict(_straightener(T).rewrite(S))


def a_lambda_matrix(T: CombinatorialType, w: Weights, q: int):
    """Matrix of a_λ∧· from degree q to degree q+1 in the nbc bases.

    Row index: nbc (q+1)-sets (lexicographic); column index: nbc q-sets.
    """
    if not 0 <= q < T.ell:
        raise ValueError(f"need 0 <= q < ell = {T.ell}, got q={q}")
    if w.n != T.n:
        raise ValueError(f"weights are for n={w.n}, type has n={T.n}")
    rows = nbc_sets(T, q + 1)
    cols = nbc_sets(T, q)
    row_index = {S: i for i, S in enumerate(rows)}
    zero = w.zero_scalar()
    matrix = [[zero for _ in cols] for _ in rows]
    rewrite = _straightener(T).rewrite
    for cidx, S in enumerate(cols):
        acc: dict[tuple[int, ...], object] = {}
        for j in range(1, T.n + 1):
            if j in S:
                continue
            smaller = sum(1 for s in S if s < j)
            lam = w.weight(j)
            scalar = -lam if smaller % 2 else lam
            for key, val in rewrite(tuple(sorted(S + (j,)))).items():
                term = scalar * val
                cur = acc.get(key)
                acc[key] = term if cur is None else cur + term
        for key, val in acc.items():
            if val:
                matrix[row_index[key]][cidx] = val
    return matrix


@dataclass(frozen=True)
class ProjectionMatrix:
    """Top-degree cohomology projection P = N/d, rows acting as source basis
    labels, stored as the domain ``numerators`` N over one ``denominator`` d.

    ``entries[i][j]``, built on first use, is the coefficient of the class
    of the image of col_basis[j]'s monomial in the image of the source class
    labelled by row_basis[i]; rows labelled by a frame that is itself in the
    column basis are standard unit vectors (d times them in N).  From
    ``projection_matrix``, d = d'·lcm_B(λ_B), d' the last Bareiss pivot of
    the coboundary columns (see there); N and d are ``int`` for concrete
    weights.
    """

    row_basis: tuple[tuple[int, ...], ...]
    col_basis: tuple[tuple[int, ...], ...]
    numerators: tuple[tuple[object, ...], ...]
    denominator: object

    @cached_property
    def entries(self) -> tuple[tuple[object, ...], ...]:
        d = self.denominator
        return tuple(tuple(quotient(x, d) for x in row) for row in self.numerators)

    def entry(self, I: tuple[int, ...], B: tuple[int, ...]):
        return self.entries[self.row_basis.index(I)][self.col_basis.index(B)]


def _eta_image(I: tuple[int, ...], T: CombinatorialType, w: Weights) -> dict:
    """λ_{i₁}⋯λ_{i_ℓ} · a_I, straightened in the target type; a zero
    product is dropped, so a zero weight leaves its monomial out."""
    lam_prod = math.prod(map(w.weight, I), start=w.one_scalar())
    return {S: c for S, v in straighten(I, T).items() if (c := lam_prod * v)}


def projection_matrix(T: CombinatorialType, w: Weights) -> ProjectionMatrix:
    """Matrix of the restriction map from general-position top cohomology.

    Row for each betanbc frame I of the general-position type over the same
    n, ℓ (the ℓ-subsets of [2..n]): the product λ_{i₁}⋯λ_{i_ℓ}·a_I is
    straightened in the target type and decomposed as
    Σ_B c_B · (λ_{b₁}⋯λ_{b_ℓ} a_B) + a_λ∧u, B running over the betanbc
    frames of the target; the row stores (c_B)_B.  This is the display
    convention of the worked examples.

    A frame B is an nbc set, so its image is λ_B times the unit vector of
    its own row.  So the system has no frame columns: its rows are the nbc
    ℓ-sets, non-frame ones first, and its columns the coboundaries a_λ∧a_S,
    the only pivot columns, then the images of the non-frame sources.  By
    Sylvester's identity, after one Bareiss elimination each frame row holds
    d'·λ_B·c_B, d' the last pivot, and P is read off those rows with no
    back-substitution; a source that is a frame gets d times its unit
    vector.  SpanDefect is raised when a frame's image is not a nonzero
    multiple of its own monomial, when a frame is listed twice or its row
    takes a pivot (the frames dependent modulo coboundaries), and when the
    coboundaries miss a non-frame row.  A system over
    ``MAX_PROJECTION_CELLS`` is refused with ValueError before it is built.
    """
    if w.n != T.n:
        raise ValueError(f"weights are for n={w.n}, type has n={T.n}")
    ell = T.ell
    sources = _general_basis(T.n, ell)  # refuses an oversized basis first
    betas = betanbc_frames(T)
    frame_set = set(betas)
    solved = [I for I in sources if I not in frame_set]
    top = nbc_sets(T, ell)
    ncols_d = len(nbc_sets(T, ell - 1))
    if (cells := len(top) * (ncols_d + len(solved))) > MAX_PROJECTION_CELLS:
        raise ValueError(f"the projection's elimination has {len(top)} rows and {ncols_d} + "
                         f"{len(solved)} columns ({cells} cells): over the limit {MAX_PROJECTION_CELLS}")
    if not w.is_generic:
        report = stv_check(T, w)
        if not report.ok:
            raise ResonantWeights(report)
    if twice := [B for k, B in enumerate(betas) if B in betas[:k]]:
        raise SpanDefect(len(twice), f"the images of the frames {twice} are "
                         f"dependent modulo coboundaries in degree {ell}")
    images = [_eta_image(B, T, w) for B in betas]
    if bad := [B for B, image in zip(betas, images) if set(image) != {B}]:
        raise SpanDefect(len(bad), f"the images of the frames {bad} are not nonzero "
                         f"multiples of their own monomials in degree {ell}")

    zero = w.zero_scalar()
    dmat = a_lambda_matrix(T, w, ell - 1)
    by_label = {S: list(r) + [zero] * len(solved) for S, r in zip(top, dmat)}
    for cidx, I in enumerate(solved, ncols_d):
        for S, c in _eta_image(I, T, w).items():
            by_label[S][cidx] = c
    labels = [S for S in top if S not in frame_set] + list(betas)
    free = len(top) - len(betas)  # the non-frame rows come first
    system = [by_label[S] for S in labels]
    factors = [image[B] for B, image in zip(betas, images)]
    if not w.is_generic:
        scaled = [_integer_row(row) for row in system]
        system = [row for _, row in scaled]
        factors = [f * scale for f, (scale, _) in zip(factors, scaled[free:])]

    ech = fraction_free_echelon(system, ncols=ncols_d)
    if dependent := sorted(i for i in ech.order[: ech.rank] if i >= free):
        raise SpanDefect(len(dependent), f"the images of the frames "
                         f"{[labels[i] for i in dependent]} are dependent modulo "
                         f"coboundaries in degree {ell}")
    if ech.rank < free:
        defect = free - ech.rank
        raise SpanDefect(
            defect,
            f"basis images plus coboundaries span a subspace of codimension "
            f"{defect} in degree {ell} (resonant weights or broken input)",
        )

    # frame B's row holds d'·f_B·c_B, f_B = λ_B times the row's integer scale;
    # over d = d'·lcm_B(f_B) the numerators of c_B are that row times lcm/f_B
    if w.is_generic:
        lcm = w.one_scalar()
        for f in factors:
            lcm = lcm * poly_exact_div(f, poly_gcd(lcm, f))
        mults = [poly_exact_div(lcm, f) for f in factors]
    else:
        lcm = math.lcm(*(f.numerator for f in factors))
        mults = [lcm // f.numerator * f.denominator for f in factors]
    d = (ech.rows[ech.rank - 1][ech.pivots[-1][1]] if ech.pivots else 1) * lcm
    # no frame row took a pivot, so no row swap moved one: they end in order
    cols = [[e * m for e in row[ncols_d:]] for row, m in zip(ech.rows[free:], mults)]
    rows = {I: tuple(col[c] for col in cols) for c, I in enumerate(solved)}
    numerators = tuple(
        rows[I] if I in rows else tuple(d if B == I else d - d for B in betas)
        for I in sources
    )
    return ProjectionMatrix(sources, betas, numerators, d)
