"""Realization matrices and the combinatorics of projectively closed arrangements.

A *realization* is an n×(ℓ+1) matrix over the rationals (or over univariate
path polynomials for one-parameter families): row i holds the coefficients
(x_{i,0}, x_{i,1}, ..., x_{i,ℓ}) of the affine form x_{i,0} + Σ_j x_{i,j} u_j
cutting out hyperplane i.  The projective closure appends the hyperplane at
infinity as index n+1 with implicit row (1, 0, ..., 0).

A *combinatorial type* records which (ℓ+1)-subsets of the closure have
vanishing minor.  All matroid data — circuits, frames, nbc and betanbc sets,
flats, dense edges, Betti numbers, the nonresonance check — derives from it.

Hyperplane order is the input row order and is never changed silently: the
no-broken-circuit combinatorics depends on it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .exact import MultiPoly, PathPoly, _as_fraction


class RealizationError(ValueError):
    """Malformed realization matrix."""


class NotMatroidal(ValueError):
    """A directly supplied dependence set violates basis exchange."""


def _det_small(rows: list[list]) -> object:
    """Cofactor-expansion determinant; works over any commutative ring."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = None
    for j, a in enumerate(rows[0]):
        if not a:
            continue
        sub = [[r[c] for c in range(n) if c != j] for r in rows[1:]]
        term = a * _det_small(sub)
        if j % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        total = rows[0][0] - rows[0][0]  # zero of the entry ring
    return total


class Realization:
    """n ordered affine hyperplanes in C^ℓ, rational or one-parameter."""

    __slots__ = ("n", "ell", "rows", "is_path")

    def __init__(self, rows: Sequence[Sequence], *, allow_coincident: bool = False):
        rows = [list(r) for r in rows]
        if not rows:
            raise RealizationError("empty realization")
        width = len(rows[0])
        if width < 2 or any(len(r) != width for r in rows):
            raise RealizationError("rows must all have length ell + 1 >= 2")
        self.n = len(rows)
        self.ell = width - 1
        is_path = any(isinstance(e, PathPoly) for r in rows for e in r)

        def lift(e):
            if not is_path:
                return _as_fraction(e)
            return e if isinstance(e, PathPoly) else PathPoly.const(e)

        self.rows = tuple(tuple(lift(e) for e in r) for r in rows)
        self.is_path = is_path
        self._validate(allow_coincident)

    # -- validation --------------------------------------------------------

    def _validate(self, allow_coincident: bool) -> None:
        for i, r in enumerate(self.rows, start=1):
            if not any(r):
                raise RealizationError(f"row {i} is zero")
        if allow_coincident and not self.is_path:
            return
        # path rows are compared as polynomial rows (collisions at isolated
        # parameter values are fine)
        along = " along the whole path" if self.is_path else ""
        for i, j in itertools.combinations(range(self.n), 2):
            if self._proportional(self.rows[i], self.rows[j]):
                raise RealizationError(f"rows {i + 1} and {j + 1} are projectively equal{along}")
        if self.is_path:
            zero_linear = (
                "identically zero linear part (coincides with the hyperplane at infinity)"
            )
        else:
            zero_linear = "zero linear part (projectively equal to the hyperplane at infinity)"
        for i, r in enumerate(self.rows, start=1):
            if not any(r[1:]):
                raise RealizationError(f"row {i} has {zero_linear}")

    @staticmethod
    def _proportional(r1, r2) -> bool:
        for a in range(len(r1)):
            for b in range(a + 1, len(r1)):
                if r1[a] * r2[b] - r1[b] * r2[a]:
                    return False
        return True

    # -- access --------------------------------------------------------------

    def row(self, i: int):
        """Row of the projective closure, 1-based; i = n+1 is infinity."""
        if 1 <= i <= self.n:
            return self.rows[i - 1]
        if i == self.n + 1:
            unit = PathPoly.const if self.is_path else Fraction
            return (unit(1),) + (unit(0),) * self.ell
        raise ValueError(f"row index {i} out of range 1..{self.n + 1}")

    @property
    def normal_position(self) -> bool:
        """Whether the first ℓ hyperplanes are linearly independent (the
        normalization the source theory assumes for its moduli coordinates;
        a convention, not a validity requirement)."""
        if self.n < self.ell:
            return False
        block = [list(self.rows[i][1:]) for i in range(self.ell)]
        return bool(_det_small(block))

    def minor(self, I: Iterable[int]):
        """Exact determinant of the rows indexed by the sorted (ℓ+1)-set I."""
        I = tuple(I)
        if len(I) != self.ell + 1 or len(set(I)) != len(I) or list(I) != sorted(I):
            raise ValueError(f"index set {I} must be a sorted ({self.ell + 1})-subset")
        if not all(1 <= i <= self.n + 1 for i in I):
            raise ValueError(f"index set {I} out of range 1..{self.n + 1}")
        return _det_small([list(self.row(i)) for i in I])

    def specialize(self, t, *, allow_coincident: bool = False) -> "Realization":
        """Evaluate a path realization at a parameter value."""
        if not self.is_path:
            raise ValueError("specialize applies to path realizations")
        t = _as_fraction(t)
        rows = [[e.evaluate(t) for e in r] for r in self.rows]
        return Realization(rows, allow_coincident=allow_coincident)


class CombinatorialType:
    """(n, ℓ, dep): which (ℓ+1)-subsets of the projective closure degenerate."""

    __slots__ = ("n", "ell", "dep", "_hash")

    def __init__(self, n: int, ell: int, dep: Iterable[Iterable[int]]):
        if ell < 1 or n < ell:
            raise ValueError(f"need n >= ell >= 1, got n={n}, ell={ell}")
        clean = set()
        for J in dep:
            J = tuple(sorted(J))
            if len(J) != ell + 1 or len(set(J)) != ell + 1:
                raise ValueError(f"dep member {J} is not an (ell+1)-subset")
            if not all(1 <= j <= n + 1 for j in J):
                raise ValueError(f"dep member {J} out of range 1..{n + 1}")
            clean.add(J)
        self.n = n
        self.ell = ell
        self.dep = frozenset(clean)
        self._hash = hash((n, ell, self.dep))

    @property
    def ind(self) -> tuple[tuple[int, ...], ...]:
        return tuple(
            I
            for I in itertools.combinations(range(1, self.n + 2), self.ell + 1)
            if I not in self.dep
        )

    @property
    def normal_position(self) -> bool:
        I0 = tuple(range(1, self.ell + 1)) + (self.n + 1,)
        return I0 not in self.dep

    def is_general_position(self) -> bool:
        return not self.dep

    def __eq__(self, other):
        if not isinstance(other, CombinatorialType):
            return NotImplemented
        return (self.n, self.ell, self.dep) == (other.n, other.ell, other.dep)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        dep = sorted(self.dep)
        return f"CombinatorialType(n={self.n}, ell={self.ell}, dep={dep})"


def general_position_type(n: int, ell: int) -> CombinatorialType:
    return CombinatorialType(n, ell, ())


def compute_type(r: Realization) -> CombinatorialType:
    """The combinatorial type of a rational realization (all minors tested)."""
    if r.is_path:
        raise ValueError("compute_type needs a rational realization; specialize the path first")
    dep = [
        I
        for I in itertools.combinations(range(1, r.n + 2), r.ell + 1)
        if not r.minor(I)
    ]
    return CombinatorialType(r.n, r.ell, dep)


# ---------------------------------------------------------------------------
# matroid of the projective closure
# ---------------------------------------------------------------------------


class _Matroid:
    """Rank-(ℓ+1) matroid on [n+1] given by its set of bases."""

    def __init__(self, ground: int, bases: Sequence[tuple[int, ...]], full_rank: int):
        if not bases:
            raise NotMatroidal("no independent (ell+1)-subsets: dep cannot be realizable")
        self.ground = ground
        self.full_rank = full_rank
        self.bases = tuple(frozenset(b) for b in bases)
        self._rank_memo: dict[frozenset, int] = {}

    def rank(self, S: Iterable[int]) -> int:
        S = frozenset(S)
        cached = self._rank_memo.get(S)
        if cached is not None:
            return cached
        best = 0
        size = len(S)
        cap = min(size, self.full_rank)
        for B in self.bases:
            k = len(S & B)
            if k > best:
                best = k
                if best == cap:
                    break
        self._rank_memo[S] = best
        return best

    def independent(self, S: Iterable[int]) -> bool:
        S = frozenset(S)
        return self.rank(S) == len(S)

    def closure(self, S: Iterable[int]) -> frozenset:
        S = frozenset(S)
        r = self.rank(S)
        out = set(S)
        for x in range(1, self.ground + 1):
            if x not in out and self.rank(S | {x}) == r:
                out.add(x)
        return frozenset(out)

    def circuits_within(self, X: Iterable[int]) -> list[frozenset]:
        """Inclusion-minimal dependent subsets of X."""
        X = sorted(X)
        found: list[frozenset] = []
        max_size = min(len(X), self.full_rank + 1)
        for size in range(1, max_size + 1):
            for S in itertools.combinations(X, size):
                fs = frozenset(S)
                if any(c <= fs for c in found):
                    continue
                if self.rank(fs) < size:
                    found.append(fs)
        return found

    def verify_exchange(self, cap: int = 250_000) -> None:
        """Check basis exchange on all pairs (or a deterministic prefix)."""
        bases = self.bases
        base_set = set(bases)
        checked = 0
        for ia, ib in itertools.combinations(range(len(bases)), 2):
            if checked >= cap:
                break
            B1, B2 = bases[ia], bases[ib]
            for x in B1 - B2:
                ok = any(B1 - {x} | {y} in base_set for y in B2 - B1)
                if not ok:
                    raise NotMatroidal(
                        f"basis exchange fails for {tuple(sorted(B1))}, "
                        f"{tuple(sorted(B2))} at element {x}"
                    )
            checked += 1


@lru_cache(maxsize=None)
def _matroid_of(T: CombinatorialType) -> _Matroid:
    return _Matroid(T.n + 1, T.ind, T.ell + 1)


class MatroidData(NamedTuple):
    bases: tuple[tuple[int, ...], ...]
    circuits: tuple[tuple[int, ...], ...]
    circuits_affine: tuple[tuple[int, ...], ...]


@lru_cache(maxsize=None)
def _circuits_full(T: CombinatorialType) -> tuple[tuple[int, ...], ...]:
    m = _matroid_of(T)
    return tuple(
        tuple(sorted(c)) for c in sorted(
            m.circuits_within(range(1, T.n + 2)), key=lambda c: (len(c), tuple(sorted(c)))
        )
    )


@lru_cache(maxsize=None)
def affine_circuits(T: CombinatorialType) -> tuple[tuple[int, ...], ...]:
    """Inclusion-minimal S ⊆ [n] that are dependent in the projective closure
    and have nonempty intersection (n+1 outside the closure of S)."""
    m = _matroid_of(T)
    inf = T.n + 1
    found: list[frozenset] = []
    out: list[tuple[int, ...]] = []
    for size in range(1, T.ell + 2):
        for S in itertools.combinations(range(1, T.n + 1), size):
            fs = frozenset(S)
            if any(c <= fs for c in found):
                continue
            r = m.rank(fs)
            if r < size and m.rank(fs | {inf}) == r + 1:
                found.append(fs)
                out.append(S)
    return tuple(sorted(out, key=lambda c: (len(c), c)))


def bases_and_circuits(T: CombinatorialType) -> MatroidData:
    m = _matroid_of(T)
    m.verify_exchange()
    return MatroidData(bases=T.ind, circuits=_circuits_full(T), circuits_affine=affine_circuits(T))


# ---------------------------------------------------------------------------
# nbc / betanbc combinatorics
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _broken_circuits(T: CombinatorialType) -> tuple[frozenset, ...]:
    out = {frozenset(C[1:]) for C in affine_circuits(T) if len(C) > 1}
    return tuple(sorted(out, key=lambda s: (len(s), tuple(sorted(s)))))


def _affine_independent(T: CombinatorialType, S: Iterable[int]) -> bool:
    m = _matroid_of(T)
    S = frozenset(S)
    return m.rank(S | {T.n + 1}) == len(S) + 1


@lru_cache(maxsize=None)
def nbc_sets(T: CombinatorialType, q: int) -> tuple[tuple[int, ...], ...]:
    """Sorted q-subsets of [n]: affinely independent, containing no broken circuit."""
    if q < 0 or q > T.ell:
        return ()
    if q == 0:
        return ((),)
    bcs = _broken_circuits(T)
    out = []
    for S in itertools.combinations(range(1, T.n + 1), q):
        fs = frozenset(S)
        if any(bc <= fs for bc in bcs):
            continue
        if _affine_independent(T, fs):
            out.append(S)
    return tuple(out)


@lru_cache(maxsize=None)
def frames(T: CombinatorialType) -> tuple[tuple[int, ...], ...]:
    """All affinely independent ℓ-subsets of [n] (maximal independent sets)."""
    return tuple(
        S
        for S in itertools.combinations(range(1, T.n + 1), T.ell)
        if _affine_independent(T, S)
    )


def nbc_frames(T: CombinatorialType) -> tuple[tuple[int, ...], ...]:
    return nbc_sets(T, T.ell)


@lru_cache(maxsize=None)
def betanbc_frames(T: CombinatorialType) -> tuple[tuple[int, ...], ...]:
    """nbc frames B such that for every k there is an H < B[k] outside B with
    (B ∖ {B[k]}) ∪ {H} still a frame."""
    frame_set = set(frames(T))
    out = []
    for B in nbc_frames(T):
        ok = True
        for k, jk in enumerate(B):
            if not any(
                H not in B and tuple(sorted(set(B) - {jk} | {H})) in frame_set
                for H in range(1, jk)
            ):
                ok = False
                break
        if ok:
            out.append(B)
    return tuple(out)


# ---------------------------------------------------------------------------
# flats, dense edges, Betti numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Flat:
    members: tuple[int, ...]
    rank: int
    dense: bool


@lru_cache(maxsize=None)
def flats_and_dense_edges(T: CombinatorialType) -> tuple[Flat, ...]:
    """All rank-1..ℓ flats of the projective closure, with density flags.

    A flat is dense when the matroid restricted to it is connected (any two
    members share a circuit of the restriction); rank-1 flats are dense.
    """
    m = _matroid_of(T)
    flats: dict[frozenset, int] = {}
    for r in range(1, T.ell + 1):
        for S in itertools.combinations(range(1, T.n + 2), r):
            if not m.independent(S):
                continue
            cl = m.closure(S)
            if cl not in flats:
                flats[cl] = r
    out = []
    for members, r in flats.items():
        out.append(Flat(tuple(sorted(members)), r, _is_dense(m, members, r)))
    out.sort(key=lambda f: (f.rank, f.members))
    return tuple(out)


def _is_dense(m: _Matroid, members: frozenset, rank: int) -> bool:
    if rank == 1:
        return True
    if len(members) <= rank:
        # independent flat: restriction is a Boolean matroid, disconnected
        return False
    # union-find over the circuits of the restriction
    parent = {x: x for x in members}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for c in m.circuits_within(members):
        it = iter(c)
        first = find(next(it))
        for y in it:
            parent[find(y)] = first
    roots = {find(x) for x in members}
    return len(roots) == 1


def dense_edges(T: CombinatorialType) -> tuple[Flat, ...]:
    return tuple(f for f in flats_and_dense_edges(T) if f.dense)


class BettiEuler(NamedTuple):
    betti: tuple[int, ...]
    euler: int


def betti_and_euler(T: CombinatorialType) -> BettiEuler:
    b = tuple(len(nbc_sets(T, q)) for q in range(T.ell + 1))
    chi = sum((-1) ** q * bq for q, bq in enumerate(b))
    return BettiEuler(b, chi)


# ---------------------------------------------------------------------------
# weights and the nonresonance check
# ---------------------------------------------------------------------------


class Weights:
    """Either symbolic generic weights or a concrete rational weight vector.

    ``weight(j)`` is a MultiPoly (generic) or Fraction (concrete); the weight
    of the hyperplane at infinity (j = n+1) is always -(λ₁ + ... + λₙ).
    """

    __slots__ = ("n", "values")

    def __init__(self, n: int, values: Sequence | None = None):
        self.n = n
        if values is None:
            self.values = None
        else:
            vals = tuple(_as_fraction(v) for v in values)
            if len(vals) != n:
                raise ValueError(f"expected {n} weights, got {len(vals)}")
            self.values = vals

    @classmethod
    def generic(cls, n: int) -> "Weights":
        return cls(n)

    @classmethod
    def concrete(cls, values: Sequence) -> "Weights":
        return cls(len(tuple(values)), tuple(values))

    @property
    def is_generic(self) -> bool:
        return self.values is None

    def weight(self, j: int):
        if not 1 <= j <= self.n + 1:
            raise ValueError(f"weight index {j} out of range 1..{self.n + 1}")
        if self.is_generic:
            if j <= self.n:
                return MultiPoly.variable(self.n, j)
            return MultiPoly(
                self.n,
                {
                    tuple(1 if i == k else 0 for i in range(self.n)): Fraction(-1)
                    for k in range(self.n)
                },
            )
        if j <= self.n:
            return self.values[j - 1]
        return -sum(self.values, Fraction(0))

    def weight_sum(self, S: Iterable[int]):
        total = None
        for j in S:
            w = self.weight(j)
            total = w if total is None else total + w
        if total is None:
            return Fraction(0) if not self.is_generic else MultiPoly.zero(self.n)
        return total

    def zero_scalar(self):
        return MultiPoly.zero(self.n) if self.is_generic else Fraction(0)

    def one_scalar(self):
        return MultiPoly.const(self.n, 1) if self.is_generic else Fraction(1)

    def __repr__(self):
        if self.is_generic:
            return f"Weights.generic({self.n})"
        return f"Weights.concrete({self.values})"


@dataclass(frozen=True)
class StvReport:
    ok: bool
    generic: bool
    conditions: tuple[tuple[tuple[int, ...], object], ...]  # (flat members, λ_X)
    violations: tuple[tuple[tuple[int, ...], Fraction], ...]


def stv_check(T: CombinatorialType, w: Weights) -> StvReport:
    """Nonresonance: λ_X ∉ {0, 1, 2, ...} for every dense flat X of the closure."""
    if w.n != T.n:
        raise ValueError(f"weights are for n={w.n}, type has n={T.n}")
    conditions = []
    violations = []
    for f in dense_edges(T):
        lam = w.weight_sum(f.members)
        conditions.append((f.members, lam))
        if not w.is_generic and lam.denominator == 1 and lam >= 0:
            violations.append((f.members, lam))
    return StvReport(
        ok=not violations,
        generic=w.is_generic,
        conditions=tuple(conditions),
        violations=tuple(violations),
    )
