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
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce
from typing import Iterable, NamedTuple, Sequence

from .exact import MultiPoly, PathPoly, _as_fraction, _from_terms, _unit, poly_exact_div, poly_gcd

# Entries kept by each per-type cache (the lru_caches below and the
# straightener table of ``orlik_solomon``): one computation revisits only a
# few types, and unbounded tables would grow with every new type a process meets.
TYPE_CACHE_SIZE = 8

# Largest C(n+1, ℓ+1)·(ℓ+1)! that ``compute_type`` takes on: the cofactor
# products of its minors when every row is dense.  ``gmarr analyze`` on dense
# random files (2-vCPU x86-64, CPython 3.11): accepted, ℓ = 2, n = 40
# (63960) 0.9 s and n = 100 (999900) 29 s, 5.8 s of it minors; ℓ = 3, n = 32
# (982080) 5.8 s; ℓ = 6, n = 9 (604800) 1.1 s.  Refused: ℓ = 3, n = 35
# (1413720) 13 s; ℓ = 6, n = 10 (1663200) 3.1–3.9 s.  The tests and the
# benchmark reach 32760 (ℓ = 3, n = 14).
MAX_TYPE_PRODUCTS = 1_000_000


class RealizationError(ValueError):
    """Malformed realization matrix."""


class NotMatroidal(ValueError):
    """The type has no independent (ℓ+1)-subset: the hyperplanes and the one at
    infinity have rank below ℓ+1, so the arrangement is not essential."""


def _det_small(rows: list[list]) -> object:
    """Cofactor-expansion determinant; works over any commutative ring.

    Each level expands along the row with the most zeros, the first on a tie
    (so a matrix without zeros expands along row 0), and skips a zero entry
    with its subtree: the row at infinity (1, 0, …, 0) and a path's unit
    rows then cost one recursive call instead of one per column."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    nonzero = [sum(map(bool, row)) for row in rows]
    r = nonzero.index(min(nonzero))
    total = None
    for j, a in enumerate(rows[r]):
        if not a:
            continue
        sub = [[row[c] for c in range(n) if c != j] for i, row in enumerate(rows) if i != r]
        term = a * _det_small(sub)
        if (r + j) % 2:
            term = -term
        total = term if total is None else total + term
    if total is None:
        total = rows[r][0] - rows[r][0]  # zero of the entry ring
    return total


class Realization:
    """n ordered affine hyperplanes in C^ℓ, rational or one-parameter.

    A realization is an immutable value: ``rows`` is read-only, set once in
    ``__init__``, and ``n``, ``ell`` and ``is_path`` are read off it.
    ``type_at`` memoizes the type of a specialization on the instance.  Every
    specialization of one path shares one table of the minors made only of
    unmoving rows (rows of constant entries, and the row at infinity), whose
    value is the same at every t.
    """

    __slots__ = ("_rows", "_types", "_fixed")

    def __init__(self, rows: Sequence[Sequence], *, allow_coincident: bool = False):
        rows = [list(r) for r in rows]
        if not rows:
            raise RealizationError("empty realization")
        width = len(rows[0])
        if width < 2 or any(len(r) != width for r in rows):
            raise RealizationError("rows must all have length ell + 1 >= 2")
        is_path = any(isinstance(e, PathPoly) for r in rows for e in r)

        def lift(e):
            if not is_path:
                return _as_fraction(e)
            return e if isinstance(e, PathPoly) else PathPoly.const(e)

        self._rows = tuple(tuple(lift(e) for e in r) for r in rows)
        self._types = {}
        # (unmoving indices, {I: minor}): on a path, the table its
        # specializations share; on a specialization, the table ``minor`` reads
        self._fixed = None
        self._validate(allow_coincident)

    @property
    def rows(self) -> tuple[tuple, ...]:
        return self._rows

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def ell(self) -> int:
        return len(self._rows[0]) - 1

    @property
    def is_path(self) -> bool:
        return type(self._rows[0][0]) is PathPoly

    # -- validation --------------------------------------------------------

    def _validate(self, allow_coincident: bool) -> None:
        for i, r in enumerate(self.rows, start=1):
            if not any(r):
                raise RealizationError(f"row {i} is zero")
        if allow_coincident and not self.is_path:
            return
        # a row keys its projective class once scaled so that (the leading
        # coefficient of) its first nonzero entry is 1, a path row after
        # division by the monic gcd of its entries, which is 1 when an entry is
        # a nonzero constant.  Q[t] is a UFD, so path keys agree exactly when
        # the rows are proportional over Q(t): collisions at isolated values
        # of t are fine.  The least pair is the one a pairwise scan reports.
        first: dict[tuple, int] = {}
        pairs = []
        for j, r in enumerate(self.rows, start=1):
            if self.is_path and not any(e and e.is_const() for e in r):
                g = reduce(poly_gcd, r)
                r = [poly_exact_div(e, g) for e in r]
            lead = next(x for x in r if x)
            inv = Fraction(1, lead.leading()[1]) if self.is_path else 1 / lead
            if (i := first.setdefault(tuple(x * inv for x in r), j)) != j:
                pairs.append((i, j))
        if pairs:
            i, j = min(pairs)
            along = " along the whole path" if self.is_path else ""
            raise RealizationError(f"rows {i} and {j} are projectively equal{along}")
        if self.is_path:
            zero_linear = "identically zero linear part (coincides with the hyperplane at infinity)"
        else:
            zero_linear = "zero linear part (projectively equal to the hyperplane at infinity)"
        for i, r in enumerate(self.rows, start=1):
            if not any(r[1:]):
                raise RealizationError(f"row {i} has {zero_linear}")

    # -- access --------------------------------------------------------------

    def row(self, i: int):
        """Row of the projective closure, 1-based; i = n+1 is infinity."""
        if 1 <= i <= len(self._rows):
            return self._rows[i - 1]
        if i == self.n + 1:
            unit = PathPoly.const if self.is_path else Fraction
            return (unit(1),) + (unit(0),) * self.ell
        raise ValueError(f"row index {i} out of range 1..{self.n + 1}")

    def minor(self, I: Iterable[int]):
        """Exact determinant of the rows indexed by the sorted (ℓ+1)-set I.

        On a specialization of a path, a minor made only of the path's
        unmoving rows is read from the table the path's specializations
        share, or computed and stored there."""
        I = tuple(I)
        if len(I) != self.ell + 1 or len(set(I)) != len(I) or list(I) != sorted(I):
            raise ValueError(f"index set {I} must be a sorted ({self.ell + 1})-subset")
        if not all(1 <= i <= self.n + 1 for i in I):
            raise ValueError(f"index set {I} out of range 1..{self.n + 1}")
        fixed = self._fixed
        if fixed is None or self.is_path or not fixed[0].issuperset(I):
            return _det_small([list(self.row(i)) for i in I])
        value = fixed[1].get(I)
        if value is None:
            value = fixed[1][I] = _det_small([list(self.row(i)) for i in I])
        return value

    def specialize(self, t) -> "Realization":
        """Evaluate a path realization at a parameter value.  Rows may
        coincide only at t = 0, the degenerate end of a path; at any other t
        coincident rows raise RealizationError.  The result shares the path's
        table of unmoving-row minors (see ``minor``)."""
        if not self.is_path:
            raise ValueError("specialize applies to path realizations")
        t = _as_fraction(t)
        out = Realization([[e.evaluate(t) for e in r] for r in self.rows], allow_coincident=not t)
        if self._fixed is None:
            unmoving = [i for i, r in enumerate(self.rows, start=1) if all(e.is_const() for e in r)]
            self._fixed = (frozenset(unmoving + [self.n + 1]), {})
        out._fixed = self._fixed
        return out

    def type_at(self, t) -> "CombinatorialType":
        """``compute_type(self.specialize(t))``, computed at most once per t."""
        t = _as_fraction(t)
        T = self._types.get(t)
        if T is None:
            T = self._types[t] = compute_type(self.specialize(t))
        return T


class CombinatorialType:
    """(n, ℓ, dep): which (ℓ+1)-subsets of the projective closure degenerate.

    An immutable value: every attribute is set once in ``__init__``, and the
    hash the per-type caches key on is computed there."""

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
        dep = frozenset(clean)
        for name, value in (("n", n), ("ell", ell), ("dep", dep), ("_hash", hash((n, ell, dep)))):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"CombinatorialType is immutable: cannot set {name!r}")

    @property
    def normal_position(self) -> bool:
        I0 = tuple(range(1, self.ell + 1)) + (self.n + 1,)
        return I0 not in self.dep

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
    if (count := math.comb(r.n + 1, r.ell + 1) * math.factorial(r.ell + 1)) > MAX_TYPE_PRODUCTS:
        raise ValueError(f"typing n={r.n}, ell={r.ell} takes C({r.n + 1}, {r.ell + 1})·{r.ell + 1}! = "
                         f"{count} cofactor products: over the limit {MAX_TYPE_PRODUCTS}")
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
    """Rank-(ℓ+1) matroid on [n+1], held as its family of independent sets:
    every subset of a basis, the empty set included."""

    def __init__(self, ground: int, bases: Sequence[tuple[int, ...]], full_rank: int):
        if not bases:
            raise NotMatroidal(
                "the hyperplanes and the hyperplane at infinity have rank below "
                f"ell+1 = {full_rank}: the arrangement is not essential"
            )
        self.ground = ground
        self.full_rank = full_rank
        level = {frozenset(B) for B in bases}
        indep = set(level)
        for _ in range(full_rank):
            level = {S - {x} for S in level for x in S}
            indep |= level
        self.indep = frozenset(indep)

    def closure(self, S: Iterable[int]) -> frozenset:
        """Closure of an independent S: S with every x that makes it dependent."""
        S = frozenset(S)
        return S | {x for x in range(1, self.ground + 1) if S | {x} not in self.indep}

    def circuits_within(self, X: Iterable[int], largest: int | None = None) -> list[frozenset]:
        """Inclusion-minimal dependent subsets of X (dependent sets whose
        one-smaller subsets are all independent) of at most ``largest``
        elements (default full rank + 1, the size of every circuit), by
        size, then lexicographically."""
        X = sorted(X)
        if largest is None:
            largest = self.full_rank + 1
        return [
            C
            for size in range(1, min(len(X), largest) + 1)
            for C in map(frozenset, itertools.combinations(X, size))
            if C not in self.indep and all(C - {x} in self.indep for x in C)
        ]


@lru_cache(maxsize=TYPE_CACHE_SIZE)
def _matroid_of(T: CombinatorialType) -> _Matroid:
    bases = [
        I
        for I in itertools.combinations(range(1, T.n + 2), T.ell + 1)
        if I not in T.dep
    ]
    return _Matroid(T.n + 1, bases, T.ell + 1)


def affine_circuits(T: CombinatorialType) -> tuple[tuple[int, ...], ...]:
    """Inclusion-minimal S ⊆ [n] that are dependent in the projective closure
    and have nonempty intersection (n+1 outside the closure of S), by size,
    then lexicographically."""
    m = _matroid_of(T)
    # C ∖ {min C} spans the circuit C, so n+1 is outside the closure of C
    # exactly when adding it to C ∖ {min C} leaves an independent set, which
    # has at most ℓ+1 elements: no (ℓ+2)-circuit qualifies
    return tuple(
        tuple(sorted(C))
        for C in m.circuits_within(range(1, T.n + 1), T.ell + 1)
        if C - {min(C)} | {T.n + 1} in m.indep
    )


# ---------------------------------------------------------------------------
# nbc / betanbc combinatorics
# ---------------------------------------------------------------------------


@lru_cache(maxsize=TYPE_CACHE_SIZE)
def _broken_circuits(T: CombinatorialType) -> dict[tuple[int, ...], int]:
    """Each broken circuit C ∖ {min C} of an affine circuit C, in
    lexicographic order, mapped to the least min C that completes it."""
    complete: dict[tuple[int, ...], int] = {}
    for C in affine_circuits(T):
        if len(C) > 1 and C[0] < complete.get(C[1:], T.n + 1):
            complete[C[1:]] = C[0]
    return dict(sorted(complete.items()))


def _affine_independent(T: CombinatorialType, S: Iterable[int]) -> bool:
    return frozenset(S) | {T.n + 1} in _matroid_of(T).indep


@lru_cache(maxsize=TYPE_CACHE_SIZE)
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
        if any(fs.issuperset(bc) for bc in bcs):
            continue
        if _affine_independent(T, fs):
            out.append(S)
    return tuple(out)


def frames(T: CombinatorialType) -> tuple[tuple[int, ...], ...]:
    """All affinely independent ℓ-subsets of [n] (maximal independent sets)."""
    return tuple(
        S
        for S in itertools.combinations(range(1, T.n + 1), T.ell)
        if _affine_independent(T, S)
    )


@lru_cache(maxsize=TYPE_CACHE_SIZE)
def betanbc_frames(T: CombinatorialType) -> tuple[tuple[int, ...], ...]:
    """nbc frames B such that for every k there is an H < B[k] outside B with
    (B ∖ {B[k]}) ∪ {H} still a frame."""
    frame_set = set(frames(T))
    out = []
    for B in nbc_sets(T, T.ell):
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


@lru_cache(maxsize=TYPE_CACHE_SIZE)
def flats_and_dense_edges(T: CombinatorialType) -> tuple[Flat, ...]:
    """All rank-1..ℓ flats of the projective closure, with density flags.

    A flat is dense when the matroid restricted to it is connected (any two
    members share a circuit of the restriction); rank-1 flats are dense.
    """
    m = _matroid_of(T)
    flats = {m.closure(S): len(S) for S in m.indep if 0 < len(S) <= T.ell}
    out = [Flat(tuple(sorted(X)), r, _is_dense(m, X)) for X, r in flats.items()]
    out.sort(key=lambda f: (f.rank, f.members))
    return tuple(out)


def _is_dense(m: _Matroid, members: frozenset) -> bool:
    # "x = y, or a circuit holds both" is an equivalence relation whose classes
    # are the connected components (Oxley, Matroid Theory, Prop. 4.1.2), so
    # the restriction is connected when the circuits through one member cover it
    least = min(members)
    return members == {least}.union(*(C for C in m.circuits_within(members) if least in C))


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

    λ₁..λₙ₊₁ and the zero and one of their ring are built once, in
    ``__init__``: ``weight(j)`` returns the same MultiPoly (generic) or
    Fraction (concrete) on every call, and the weight of the hyperplane at
    infinity (j = n+1) is -(λ₁ + ... + λₙ).
    """

    __slots__ = ("n", "values", "_lams", "_zero", "_one")

    def __init__(self, n: int, values: Sequence | None = None):
        self.n = n
        if values is None:
            self.values = None
            self._zero, self._one = MultiPoly.zero(n), MultiPoly.const(n, 1)
            lams = [MultiPoly.variable(n, j) for j in range(1, n + 1)]
            # -(l1 + ... + ln) in one pass over the unit keys, not n additions
            last = _from_terms(MultiPoly, n, {_unit(n, v): -1 for v in range(n)})
        else:
            vals = tuple(_as_fraction(v) for v in values)
            if len(vals) != n:
                raise ValueError(f"expected {n} weights, got {len(vals)}")
            self.values = vals
            self._zero, self._one = Fraction(0), Fraction(1)
            lams = list(vals)
            last = -sum(vals, self._zero)
        self._lams = (*lams, last)

    @classmethod
    def generic(cls, n: int) -> "Weights":
        return cls(n)

    @classmethod
    def concrete(cls, values: Iterable) -> "Weights":
        values = tuple(values)  # once: a generator is spent after one pass
        return cls(len(values), values)

    @property
    def is_generic(self) -> bool:
        return self.values is None

    def weight(self, j: int):
        if not 1 <= j <= self.n + 1:
            raise ValueError(f"weight index {j} out of range 1..{self.n + 1}")
        return self._lams[j - 1]

    def weight_sum(self, S: Iterable[int]):
        return sum(map(self.weight, S), self._zero)

    def zero_scalar(self):
        return self._zero

    def one_scalar(self):
        return self._one

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
