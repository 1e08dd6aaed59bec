"""Realization matrices and the combinatorics of projectively closed arrangements.

A *realization* is an n×(ℓ+1) matrix over the rationals (or over univariate
path polynomials for one-parameter families): row i holds the coefficients
(x_{i,0}, x_{i,1}, ..., x_{i,ℓ}) of the affine form x_{i,0} + Σ_j x_{i,j} u_j
cutting out hyperplane i.  The projective closure appends the hyperplane at
infinity as index n+1 with implicit row (1, 0, ..., 0).

A *combinatorial type* records which (ℓ+1)-subsets of the closure have
vanishing minor.  All matroid data — circuits, frames, nbc and betanbc sets,
flats, dense edges, Betti numbers, the nonresonance check — derives from it,
through the type's matroid, whose sets are int bit masks: element x at bit x,
the hyperplane at infinity at bit n+1.

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
# random files (shared 2-vCPU x86-64, CPython 3.11, medians): accepted, ℓ = 2,
# n = 40 (63960) 0.6 s and n = 100 (999900) 5.0 s, 3.8 s of it minors; ℓ = 3,
# n = 32 (982080) 4.3 s; ℓ = 6, n = 9 (604800) 1.1 s.  Refused, minors alone
# with the limit lifted: ℓ = 3, n = 35 (1413720) 5.7 s; ℓ = 6, n = 10
# (1663200) 3.4 s.  The tests and the benchmark reach 32760 (ℓ = 3, n = 14).
MAX_TYPE_PRODUCTS = 1_000_000


class RealizationError(ValueError):
    """Malformed realization matrix."""


class NotMatroidal(ValueError):
    """The type has no independent (ℓ+1)-subset: the hyperplanes and the one at
    infinity have rank below ℓ+1, so the arrangement is not essential."""


def _row_mask(row: Sequence) -> int:
    """The nonzero columns of a row as an int mask: column j at bit j."""
    return sum(1 << j for j, a in enumerate(row) if a)


def _det_small(rows: Sequence[Sequence], shared: tuple | None = None, masks: list | None = None) -> object:
    """Cofactor-expansion determinant; works over any commutative ring.

    Each row's nonzero columns are read once into an int mask (``masks``, when
    the caller holds them), and ``_expand`` expands in place over row positions
    and a column mask.  Each level expands along the row with the most zeros,
    the first on a tie (so a matrix without zeros expands along row 0), and
    skips a zero entry with its subtree: the row at infinity (1, 0, …, 0) and
    a path's unit rows then cost one call.

    ``shared`` = (labels, cols, table) shares sub-determinants between
    matrices: a block whose rows all carry a label (None marks a row that
    differs between them) is keyed by its labels and its column mask (``cols``
    is the whole matrix's), and computed once.  Unless a row has one nonzero
    entry, the sparsest unlabelled row goes first, so the blocks below are keyed."""
    if masks is None:
        masks = list(map(_row_mask, rows))
    labels, cols, table = shared or (None, (1 << len(rows)) - 1, None)
    return _expand(rows, masks, tuple(range(len(rows))), cols, labels, table)


def _expand(rows, masks, pos, cols, labels, table):
    """Rows ``pos`` × columns ``cols`` of ``_det_small``; ``labels`` None drops the table."""
    n = len(pos)
    if n == 2:
        a, b, j, k = rows[pos[0]], rows[pos[1]], (cols & -cols).bit_length() - 1, cols.bit_length() - 1
        return a[j] * b[k] - a[k] * b[j]
    if n == 1:
        return rows[pos[0]][cols.bit_length() - 1]
    nonzero = [(masks[p] & cols).bit_count() for p in pos]
    r = nonzero.index(min(nonzero))
    if labels is not None and labels.count(None) < n - 1:
        if nonzero[r] > 1 and None in labels:
            r = min((c, i) for i, c in enumerate(nonzero) if labels[i] is None)[1]
        labels = labels[:r] + labels[r + 1 :]
        keyed = None not in labels
    else:
        labels = keyed = None  # every block below keeps an unlabelled row
    row, rest, bits, total = rows[pos[r]], pos[:r] + pos[r + 1 :], masks[pos[r]] & cols, None
    while bits:
        low = bits & -bits
        bits ^= low
        sub = cols ^ low
        d = table.get((labels, sub)) if keyed else None
        if d is None:
            d = _expand(rows, masks, rest, sub, labels, table)
            if keyed:
                table[labels, sub] = d
        term = row[low.bit_length() - 1] * d
        if (r + (cols & (low - 1)).bit_count()) & 1:
            term = -term
        total = term if total is None else total + term
    if total is None:  # the zero of the entry ring
        total = row[cols.bit_length() - 1] - row[cols.bit_length() - 1]
    return total


class Realization:
    """n ordered affine hyperplanes in C^ℓ, rational or one-parameter.

    A realization is an immutable value: ``rows`` is read-only and set once
    in ``__init__``, as are the closure's rows and their ``_row_mask``s
    (closure index i at position i); ``n``, ``ell`` and ``is_path`` are read off it.
    ``type_at`` memoizes the type of a specialization on the instance.  Every
    specialization of one path shares one table of the minors and sub-minors
    made only of unmoving rows (rows of constant entries, and the row at
    infinity), whose value is the same at every t.
    """

    __slots__ = ("_rows", "_types", "_fixed", "_closure", "_masks")

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
        # (label of each closure index, {(labels, column mask): determinant}), shared with specializations
        self._fixed = None
        self._validate(allow_coincident)
        self._closure = (None, *self._rows, (lift(1),) + (lift(0),) * (width - 1))
        self._masks = (0, *map(_row_mask, self._closure[1:]))

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
        if type(i) is not int:
            raise ValueError(f"row index {i!r} is not an int")
        if 1 <= i <= self.n + 1:
            return self._closure[i]
        raise ValueError(f"row index {i} out of range 1..{self.n + 1}")

    def minor(self, I: Iterable[int]):
        """Exact determinant of the rows indexed by the sorted (ℓ+1)-set I.

        On a specialization of a path it goes through the path's table: row i
        is labelled i when it is unmoving, the same at every t; a moving row
        has no label, so no block that holds it is read back at another t."""
        I, last, top = tuple(I), 0, len(self._closure) - 1
        ok = len(I) == self.ell + 1
        for i in I:  # one pass: ints, increasing, at most n+1
            ok = ok and type(i) is int and last < i <= top
            last = i
        if not ok:
            if not all(type(i) is int for i in I):
                raise ValueError(f"index set {I} holds an index that is not an int")
            if len(I) == self.ell + 1 and all(map(int.__lt__, I, I[1:])):
                raise ValueError(f"index set {I} out of range 1..{top}")
            raise ValueError(f"index set {I} must be a sorted ({self.ell + 1})-subset")
        rows, masks = [self._closure[i] for i in I], [self._masks[i] for i in I]
        if self._fixed is None or self.is_path:
            return _det_small(rows, None, masks)
        labels, table = self._fixed
        key = tuple(labels[i] for i in I), (1 << len(I)) - 1
        if None in key[0]:
            return _det_small(rows, (*key, table), masks)
        if (value := table.get(key)) is None:
            value = table[key] = _det_small(rows, (*key, table), masks)
        return value

    def specialize(self, t) -> "Realization":
        """Evaluate a path realization at a parameter value.  Rows may
        coincide only at t = 0, the degenerate end of a path; at any other t
        coincident rows raise RealizationError.  The result shares the path's
        table of unmoving-row determinants (see ``minor``)."""
        if not self.is_path:
            raise ValueError("specialize applies to path realizations")
        t = _as_fraction(t)
        out = Realization([[e.evaluate(t) for e in r] for r in self.rows], allow_coincident=not t)
        if self._fixed is None:
            labels = (i if all(e.is_const() for e in r) else None for i, r in enumerate(self.rows, start=1))
            self._fixed = ((None, *labels, self.n + 1), {})
        out._fixed = self._fixed
        return out

    def type_at(self, t) -> "CombinatorialType":
        """``compute_type(self.specialize(t))``, computed at most once per t."""
        t = _as_fraction(t)
        T = self._types.get(t)
        if T is None:
            T = self._types[t] = compute_type(self.specialize(t))
        return T


@dataclass(frozen=True, slots=True, repr=False)
class CombinatorialType:
    """(n, ℓ, dep): which (ℓ+1)-subsets of the projective closure degenerate.

    An immutable value; ``dep`` is stored as a frozenset of sorted tuples,
    whatever iterable of subsets it is given as."""

    n: int
    ell: int
    dep: frozenset[tuple[int, ...]]

    def __post_init__(self):
        n, ell = self.n, self.ell
        if ell < 1 or n < ell:
            raise ValueError(f"need n >= ell >= 1, got n={n}, ell={ell}")
        clean = set()
        for J in self.dep:
            J = tuple(sorted(J))
            if len(J) != ell + 1 or len(set(J)) != ell + 1:
                raise ValueError(f"dep member {J} is not an (ell+1)-subset")
            if not all(1 <= j <= n + 1 for j in J):
                raise ValueError(f"dep member {J} out of range 1..{n + 1}")
            clean.add(J)
        object.__setattr__(self, "dep", frozenset(clean))

    @property
    def normal_position(self) -> bool:
        I0 = tuple(range(1, self.ell + 1)) + (self.n + 1,)
        return I0 not in self.dep

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
    dep = [I for I in itertools.combinations(range(1, r.n + 2), r.ell + 1) if not r.minor(I)]
    return CombinatorialType(r.n, r.ell, dep)


# ---------------------------------------------------------------------------
# matroid of the projective closure
# ---------------------------------------------------------------------------


def _mask(S: Iterable[int]) -> int:
    """Bit mask of a set of closure indices: element x at bit x."""
    return reduce(int.__or__, (1 << x for x in S), 0)


def _members(mask: int) -> tuple[int, ...]:
    """The elements of a bit mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class _Matroid:
    """Rank-(ℓ+1) matroid on [n+1], held as its family of independent sets:
    every subset of a basis, the empty set included.  A set is an int bit
    mask (``_mask``): element x at bit x, so the hyperplane at infinity is
    bit n+1 and bit 0 is unused."""

    def __init__(self, ground: int, bases: Sequence[tuple[int, ...]], full_rank: int):
        if not bases:
            raise NotMatroidal(
                "the hyperplanes and the hyperplane at infinity have rank below "
                f"ell+1 = {full_rank}: the arrangement is not essential"
            )
        self.ground = ground
        self.full_rank = full_rank
        level = set(map(_mask, bases))
        indep = set(level)
        for _ in range(full_rank):
            level = {S ^ 1 << x for S in level for x in _members(S)}
            indep |= level
        self.indep = frozenset(indep)

    def closure(self, S: int) -> int:
        """Closure of an independent mask S: S with every x that makes it dependent."""
        return S | _mask(x for x in range(1, self.ground + 1) if S | 1 << x not in self.indep)

    def circuits_within(self, X: Iterable[int], largest: int | None = None) -> list[frozenset]:
        """Inclusion-minimal dependent subsets of X (dependent sets whose
        one-smaller subsets are all independent) of at most ``largest``
        elements (default full rank + 1, the size of every circuit), by
        size, then lexicographically."""
        X = sorted(X)
        if largest is None:
            largest = self.full_rank + 1
        return [
            frozenset(C)
            for size in range(1, min(len(X), largest) + 1)
            for C in itertools.combinations(X, size)
            if (c := _mask(C)) not in self.indep and all(c ^ 1 << x in self.indep for x in C)
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
        if _mask(C) ^ 1 << min(C) | 1 << T.n + 1 in m.indep
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
    return _mask(S) | 1 << T.n + 1 in _matroid_of(T).indep


@lru_cache(maxsize=TYPE_CACHE_SIZE)
def nbc_sets(T: CombinatorialType, q: int) -> tuple[tuple[int, ...], ...]:
    """Sorted q-subsets of [n]: affinely independent, containing no broken circuit."""
    if q < 0 or q > T.ell:
        return ()
    indep, infinity = _matroid_of(T).indep, 1 << T.n + 1
    bcs = list(map(_mask, _broken_circuits(T)))
    out = []
    for S in itertools.combinations(range(1, T.n + 1), q):
        s = _mask(S)
        if s | infinity in indep and not any(b & s == b for b in bcs):
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
    indep, infinity = _matroid_of(T).indep, 1 << T.n + 1
    out = []
    for B in nbc_sets(T, T.ell):
        b = _mask(B) | infinity
        if all(
            any(b ^ 1 << jk | 1 << H in indep for H in range(1, jk) if not b >> H & 1)
            for jk in B
        ):
            out.append(B)
    return tuple(out)


# ---------------------------------------------------------------------------
# flats, dense edges, Betti numbers
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
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
    flats = {m.closure(S): S.bit_count() for S in m.indep if 0 < S.bit_count() <= T.ell}
    out = [Flat(X, r, _is_dense(m, X)) for X, r in zip(map(_members, flats), flats.values())]
    out.sort(key=lambda f: (f.rank, f.members))
    return tuple(out)


def _is_dense(m: _Matroid, members: tuple[int, ...]) -> bool:
    # "x = y, or a circuit holds both" is an equivalence relation whose classes
    # are the connected components (Oxley, Matroid Theory, Prop. 4.1.2), so
    # the restriction is connected when the circuits through one member cover it
    least = members[0]
    return set(members) == {least}.union(*(C for C in m.circuits_within(members) if least in C))


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
