"""Exact arithmetic of the benchmark's own, kept apart from gmarr.

Everything here works on plain ``int`` / ``Fraction`` data so that the
checks in ``bench_checks`` never route through the code they judge:

* ``rank`` / ``det``: Gaussian elimination over ``Fraction``;
* ``whitney_betti``: Betti numbers of an affine arrangement complement from
  Whitney's formula, summing over central subsets of hyperplanes;
* ``vanishing_order``: the order at t = 0 of a minor along a path, by
  evaluating the determinant at several t and interpolating;
* ``evaluate``: a small parser/evaluator for gmarr's rendered scalars
  (``"l1^2 - 1/2*l2"``, ``"(l1 + l2)/(l3)"``) at a rational point;
* ``mat_mul``: a plain matrix product.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction


def _echelon(rows):
    """Row-reduce a copy of ``rows`` over Fraction; returns (rank, det of the
    leading square block up to the rank)."""
    m = [[Fraction(x) for x in r] for r in rows]
    nr = len(m)
    nc = len(m[0]) if nr else 0
    rank = 0
    sign = 1
    prod = Fraction(1)
    for c in range(nc):
        piv = next((i for i in range(rank, nr) if m[i][c]), None)
        if piv is None:
            continue
        if piv != rank:
            m[rank], m[piv] = m[piv], m[rank]
            sign = -sign
        p = m[rank][c]
        prod *= p
        for i in range(rank + 1, nr):
            f = m[i][c] / p
            if f:
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
        if rank == nr:
            break
    return rank, sign * prod


def _int_det_is_zero(rows) -> bool:
    """Bareiss elimination over int: whether a square int matrix is singular."""
    m = [list(r) for r in rows]
    n = len(m)
    prev = 1
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c]), None)
        if piv is None:
            return True
        m[c], m[piv] = m[piv], m[c]
        p = m[c][c]
        for i in range(c + 1, n):
            row = m[i]
            f = row[c]
            for j in range(c + 1, n):
                row[j] = (p * row[j] - f * m[c][j]) // prev
        prev = p
    return False


def rank(rows) -> int:
    return _echelon(rows)[0] if rows else 0


def det(rows) -> Fraction:
    r, d = _echelon(rows)
    return d if r == len(rows) else Fraction(0)


def closure_rows(rows):
    """The rows of the projective closure: the n given rows, then infinity."""
    ell = len(rows[0]) - 1
    return [list(r) for r in rows] + [[1] + [0] * ell]


def dependent_subsets(rows) -> set[tuple[int, ...]]:
    """1-based (ℓ+1)-subsets of the closure whose minor vanishes."""
    full = closure_rows(rows)
    ell = len(rows[0]) - 1
    if all(Fraction(x).denominator == 1 for r in full for x in r):
        full = [[int(x) for x in r] for r in full]
        singular = _int_det_is_zero
    else:
        singular = lambda sub: not det(sub)  # noqa: E731
    return {
        tuple(i + 1 for i in I)
        for I in itertools.combinations(range(len(full)), ell + 1)
        if singular([full[i] for i in I])
    }


def _reduce(basis, v):
    """Reduce v against an echelon basis of (pivot, row) pairs with unit
    pivots; return the new basis pair, or None when v lies in the span."""
    v = [Fraction(x) for x in v]
    for p, b in basis:
        f = v[p]
        if f:
            v = [x - f * y for x, y in zip(v, b)]
    p = next((i for i, x in enumerate(v) if x), None)
    if p is None:
        return None
    return p, [x / v[p] for x in v]


def whitney_betti(rows) -> list[int]:
    """Betti numbers b_0..b_ℓ of the complement of the affine arrangement.

    Poincaré polynomial = Σ over central S (hyperplanes with a common point)
    of (−1)^{|S|} (−t)^{rank S}.  A depth-first walk in increasing index
    order carries echelon bases of the subset's linear parts and of its
    augmented rows; S is central when both have the same rank, and every
    superset of a non-central subset is pruned.
    """
    ell = len(rows[0]) - 1
    betti = [0] * (ell + 1)
    n = len(rows)

    def walk(start, linear, augmented, size):
        q = len(linear)
        betti[q] += (-1) ** (size + q)
        for i in range(start, n):
            lin_new = _reduce(linear, rows[i][1:])
            aug_new = _reduce(augmented, rows[i])
            if (lin_new is None) != (aug_new is None):
                continue  # the new hyperplane misses the common point
            lin = linear if lin_new is None else linear + [lin_new]
            aug = augmented if aug_new is None else augmented + [aug_new]
            walk(i + 1, lin, aug, size + 1)

    walk(0, [], [], 0)
    return betti


def euler_abs(betti) -> int:
    return abs(sum((-1) ** q * b for q, b in enumerate(betti)))


# -- polynomials in t, as ascending coefficient tuples ------------------------


def t_eval(coeffs, t) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * t + c
    return total


def rows_at(path_rows, t):
    return [[t_eval(e, t) for e in r] for r in path_rows]


def interpolate(values) -> list[Fraction]:
    """Coefficients of the polynomial of degree < len(values) through
    (0, values[0]), (1, values[1]), ... (Vandermonde solve)."""
    k = len(values)
    aug = [[Fraction(x) ** j for j in range(k)] + [Fraction(v)] for x, v in enumerate(values)]
    for c in range(k):
        piv = next(i for i in range(c, k) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        p = aug[c][c]
        aug[c] = [a / p for a in aug[c]]
        for i in range(k):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[c])]
    return [aug[i][k] for i in range(k)]


def vanishing_order(path_rows, J) -> int | None:
    """Order at t = 0 of the J-minor of the closure along the path (None if
    it vanishes identically)."""
    ell = len(path_rows[0]) - 1
    full = list(path_rows) + [[(1,)] + [()] * ell]
    sub = [full[j - 1] for j in J]
    degree = sum(max(len(e) for e in r) - 1 for r in sub if any(r))
    samples = [det(rows_at(sub, Fraction(x))) for x in range(max(degree, 0) + 1)]
    coeffs = interpolate(samples)
    return next((i for i, c in enumerate(coeffs) if c), None)


# -- rendered scalars ---------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|l(\d+)|(\S))")


def _tokens(text):
    pos = 0
    out = []
    text = text.strip()
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ValueError(f"cannot tokenize {text!r} at {pos}")
        num, var, op = m.groups()
        if num is not None:
            out.append(("num", int(num)))
        elif var is not None:
            out.append(("var", int(var)))
        else:
            out.append(("op", op))
        pos = m.end()
    return out


def evaluate(text: str, point) -> Fraction:
    """Value of a rendered scalar at ``point`` (l_k = point[k-1])."""
    toks = _tokens(text)
    pos = 0

    def peek():
        return toks[pos] if pos < len(toks) else ("end", None)

    def take(kind, value=None):
        nonlocal pos
        tok = peek()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ValueError(f"expected {value or kind} in {text!r}, got {tok}")
        pos += 1
        return tok[1]

    def expr():
        v = term()
        while peek() in (("op", "+"), ("op", "-")):
            op = take("op")
            v = v + term() if op == "+" else v - term()
        return v

    def term():
        v = unary()
        while peek() in (("op", "*"), ("op", "/")):
            op = take("op")
            v = v * unary() if op == "*" else v / unary()
        return v

    def unary():
        if peek() == ("op", "-"):
            take("op")
            return -unary()
        return power()

    def power():
        v = atom()
        if peek() == ("op", "^"):
            take("op")
            v = v ** take("num")
        return v

    def atom():
        kind, value = peek()
        if kind == "num":
            take("num")
            return Fraction(value)
        if kind == "var":
            take("var")
            return Fraction(point[value - 1])
        take("op", "(")
        v = expr()
        take("op", ")")
        return v

    value = expr()
    if pos != len(toks):
        raise ValueError(f"trailing input in {text!r}")
    return value


def evaluate_matrix(rendered, point):
    return [[evaluate(e, point) for e in row] for row in rendered]


def mat_mul(A, B):
    """Plain matrix product over Fraction, skipping zero terms."""
    if not A or not B:
        return []
    cols = range(len(B[0]))
    out = []
    for row in A:
        terms = [(a, B[s]) for s, a in enumerate(row) if a]
        out.append([sum((a * b[j] for a, b in terms if b[j]), Fraction(0)) for j in cols])
    return out
