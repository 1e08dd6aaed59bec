"""The graded algebra of an arrangement in its no-broken-circuit basis.

Degree-q elements are rational combinations of monomials a_S over sorted
q-subsets of [n]; the defining relations are

  * a_S = 0 whenever S is affinely dependent, and
  * Σ_k (−1)^k a_{C∖{c_k}} = 0 for every affine circuit C = {c_0 < … < c_q},

so every element rewrites uniquely onto the monomials indexed by nbc sets
(*straightening*).  On top of that sit the twisted differential a_λ∧·, the
cocycles ζ(B) attached to betanbc frames, and the projection matrix carrying
the general-position top cohomology basis onto the one of a degenerate type.

Scalars follow the weight mode: MultiPoly/RatFunc for generic weights,
Fraction for concrete ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .aomoto_kita import _general_basis
from .arrangement import (
    CombinatorialType,
    Weights,
    _affine_independent,
    _matroid_of,
    affine_circuits,
    betanbc_frames,
    nbc_sets,
    stv_check,
)
from .linalg import solve_all


class ResonantWeights(ValueError):
    """Concrete weights hit a nonresonance condition; carries the report."""

    def __init__(self, report):
        self.report = report
        bad = ", ".join(
            f"sum over {members} = {value}" for members, value in report.violations
        )
        super().__init__(f"weights are resonant: {bad}")


class SpanDefect(RuntimeError):
    """The cocycles together with the coboundaries fail to span top degree."""

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


class OSElement:
    """Homogeneous element: map from nbc q-sets to scalar coefficients."""

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree: int, coeffs: Mapping[tuple[int, ...], object]):
        self.degree = degree
        self.coeffs = {S: c for S, c in coeffs.items() if c}

    @classmethod
    def zero(cls, degree: int) -> "OSElement":
        return cls(degree, {})

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, OSElement):
            return NotImplemented
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __add__(self, other: "OSElement") -> "OSElement":
        if self.degree != other.degree:
            raise ValueError("cannot add elements of different degrees")
        out = dict(self.coeffs)
        for S, c in other.coeffs.items():
            cur = out.get(S)
            out[S] = c if cur is None else cur + c
        return OSElement(self.degree, out)

    def __neg__(self) -> "OSElement":
        return OSElement(self.degree, {S: -c for S, c in self.coeffs.items()})

    def __sub__(self, other: "OSElement") -> "OSElement":
        return self + (-other)

    def scale(self, c) -> "OSElement":
        if not c:
            return OSElement.zero(self.degree)
        return OSElement(self.degree, {S: c * v for S, v in self.coeffs.items()})

    def __repr__(self):
        if not self.coeffs:
            return f"OSElement({self.degree}, 0)"
        parts = [f"{c!r}*a{S}" for S, c in sorted(self.coeffs.items())]
        return " + ".join(parts)


class _Straightener:
    """Per-type rewriting engine with a memo table.

    Rewrites always target the lexicographically least broken circuit inside
    the monomial and use the completing circuit with the smallest added
    element, so results are deterministic; every replacement monomial is
    lexicographically smaller, so the recursion terminates.
    """

    def __init__(self, T: CombinatorialType):
        self.T = T
        complete: dict[tuple[int, ...], int] = {}
        for C in affine_circuits(T):
            bc = C[1:]
            head = complete.get(bc)
            if head is None or C[0] < head:
                complete[bc] = C[0]
        # broken circuits in lexicographic order for deterministic choice
        self.broken = sorted(complete)
        self.complete = complete
        self.memo: dict[tuple[int, ...], dict[tuple[int, ...], Fraction]] = {}

    def rewrite(self, S: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
        hit = self.memo.get(S)
        if hit is not None:
            return hit
        if not _affine_independent(self.T, S):
            result: dict[tuple[int, ...], Fraction] = {}
            self.memo[S] = result
            return result
        sset = set(S)
        bc = next((b for b in self.broken if sset.issuperset(b)), None)
        if bc is None:
            result = {S: Fraction(1)}
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
            coeff = Fraction(sign1 * (-1 if k % 2 == 0 else 1) * _shuffle_sign(R, D))
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


_STRAIGHTENERS: dict[CombinatorialType, _Straightener] = {}


def _straightener(T: CombinatorialType) -> _Straightener:
    eng = _STRAIGHTENERS.get(T)
    if eng is None:
        eng = _Straightener(T)
        _STRAIGHTENERS[T] = eng
    return eng


def straighten(S: Iterable[int], T: CombinatorialType) -> OSElement:
    """Expand the monomial a_S in the nbc basis (rational coefficients)."""
    S = tuple(sorted(S))
    if len(set(S)) != len(S):
        raise ValueError(f"monomial index set {S} has repeats")
    if S and not (1 <= S[0] and S[-1] <= T.n):
        raise ValueError(f"monomial index set {S} out of range 1..{T.n}")
    return OSElement(len(S), _straightener(T).rewrite(S))


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
    for cidx, S in enumerate(cols):
        acc: dict[tuple[int, ...], object] = {}
        for j in range(1, T.n + 1):
            if j in S:
                continue
            smaller = sum(1 for s in S if s < j)
            lam = w.weight(j)
            scalar = -lam if smaller % 2 else lam
            _wedge_front(S, j, scalar, T, acc)
        for key, val in acc.items():
            if val:
                matrix[row_index[key]][cidx] = val
    return matrix


def _wedge_front(S: tuple[int, ...], j: int, scalar, T, acc) -> None:
    """Accumulate scalar · a_{sorted(S ∪ {j})} straightened into acc."""
    eng = _straightener(T)
    piece = tuple(sorted(S + (j,)))
    for key, val in eng.rewrite(piece).items():
        term = scalar * val
        cur = acc.get(key)
        acc[key] = term if cur is None else cur + term


def zeta(B: Iterable[int], T: CombinatorialType, w: Weights) -> OSElement:
    """Cocycle of a betanbc frame: ∧_p Σ {λ_i a_i : i in the flat of B[p:]}."""
    B = tuple(B)
    if B not in betanbc_frames(T):
        raise ValueError(f"{B} is not a betanbc frame of this type")
    if w.n != T.n:
        raise ValueError(f"weights are for n={w.n}, type has n={T.n}")
    m = _matroid_of(T)
    acc: dict[tuple[int, ...], object] = {(): w.one_scalar()}
    for p in range(T.ell):
        flat = sorted(x for x in m.closure(B[p:]) if x <= T.n)
        nxt: dict[tuple[int, ...], object] = {}
        for S, c in acc.items():
            for i in flat:
                if i in S:
                    continue
                bigger = sum(1 for s in S if s > i)
                lam = w.weight(i)
                scalar = c * (-lam if bigger % 2 else lam)
                _wedge_front(S, i, scalar, T, nxt)
        acc = {k: v for k, v in nxt.items() if v}
    return OSElement(T.ell, acc)


@dataclass(frozen=True)
class ProjectionMatrix:
    """Top-degree cohomology projection, rows acting as source basis labels.

    ``entries[i][j]`` is the coefficient of the class of the image of
    col_basis[j]'s monomial in the image of the source class labelled by
    row_basis[i]; rows labelled by a frame that is itself in the column
    basis are standard unit vectors.
    """

    row_basis: tuple[tuple[int, ...], ...]
    col_basis: tuple[tuple[int, ...], ...]
    entries: tuple[tuple[object, ...], ...]

    def entry(self, I: tuple[int, ...], B: tuple[int, ...]):
        return self.entries[self.row_basis.index(I)][self.col_basis.index(B)]


def _eta_image(I: tuple[int, ...], T: CombinatorialType, w: Weights) -> OSElement:
    """λ_{i₁}⋯λ_{i_ℓ} · a_I, straightened in the target type."""
    image = straighten(I, T)
    lam_prod = w.one_scalar()
    for i in I:
        lam_prod = lam_prod * w.weight(i)
    return image.scale(lam_prod)


def projection_matrix(T: CombinatorialType, w: Weights) -> ProjectionMatrix:
    """Matrix of the restriction map from general-position top cohomology.

    Row for each betanbc frame I of the general-position type over the same
    n, ℓ (the ℓ-subsets of [2..n]): the product λ_{i₁}⋯λ_{i_ℓ}·a_I is
    straightened in the target type and decomposed as
    Σ_B c_B · (λ_{b₁}⋯λ_{b_ℓ} a_B) + a_λ∧u by one exact linear solve, B
    running over the betanbc frames of the target; the row stores (c_B)_B.  This is the display convention of the worked examples:
    rows labelled by target betanbc frames come out as unit vectors.
    """
    if w.n != T.n:
        raise ValueError(f"weights are for n={w.n}, type has n={T.n}")
    if not w.is_generic:
        report = stv_check(T, w)
        if not report.ok:
            raise ResonantWeights(report)
    ell = T.ell
    top = nbc_sets(T, ell)
    top_index = {S: i for i, S in enumerate(top)}
    betas = betanbc_frames(T)
    dmat = a_lambda_matrix(T, w, ell - 1)
    ncols_d = len(nbc_sets(T, ell - 1))
    zero = w.zero_scalar()

    system = [list(dmat[r]) for r in range(len(top))]
    for B in betas:
        vb = _eta_image(B, T, w)
        for r, S in enumerate(top):
            system[r].append(vb.coeffs.get(S, zero))

    sources = _general_basis(T.n, ell)
    rhs = [[zero for _ in sources] for _ in top]
    for cidx, I in enumerate(sources):
        for S, c in _eta_image(I, T, w).coeffs.items():
            rhs[top_index[S]][cidx] = c

    res = solve_all(system, rhs)
    if res.rank < len(top) or not res.consistent:
        defect = len(top) - res.rank
        raise SpanDefect(
            defect,
            f"basis images plus coboundaries span a subspace of codimension "
            f"{defect} in degree {ell} (resonant weights or broken input)",
        )
    entries = tuple(
        tuple(res.solution[ncols_d + bidx][cidx] for bidx in range(len(betas)))
        for cidx in range(len(sources))
    )
    return ProjectionMatrix(row_basis=sources, col_basis=betas, entries=entries)
