"""Fraction-free exact linear algebra.

Bareiss elimination (Math. Comp. 22, 1968): every intermediate entry is a
minor of the input matrix, and each step divides exactly by the previous
pivot, so entries stay in the domain.  ``fraction_free_echelon`` reports the
input index of each output row, so a row left below the pivots can be read
by Sylvester's identity: its entry in a column beyond the pivoting ones is
d' times the Schur complement of the pivot block there, d' the last pivot.
``orlik_solomon.projection_matrix`` reads the projection off those rows, so
no fraction or rational function is built here.  Three domains meet the one
routine:

* ``Fraction`` systems are scaled row by row to Python ``int`` rows by the
  lcm of their denominators (``_integer_row``); the scaling changes neither
  the nonzero pattern the pivots are chosen from nor the rank, and it
  multiplies each read-off entry by the scales of the rows in its minor.
  ``gauss_manin.solve_connection`` scales a whole concrete B by the same
  rule (see there).
* ``MultiPoly`` systems, divided exactly by ``poly_exact_div``, with
  ``int`` coefficients wherever they are integral.  On the ladder
  degenerations every entry and pivot is a single term, so the division
  takes its monomial route.
* ``int`` exact division by ``divmod``, which raises ``ValueError`` on a
  nonzero remainder, as ``poly_exact_div`` does on a non-divisor.

No product with a zero factor is formed.  The elimination keeps the
nonzero columns of each row: a row with a zero pivot-column entry rescales
only its own nonzero entries, and any other row visits the union of its
support and the pivot row's; every other entry keeps its value and type.
``mat_mul`` sums only the nonzero products, in increasing inner index, and
an entry with none is ``A[i][0] * B[0][j]``, the typed zero the dense
product gives (a ``MultiPoly`` zero from a polynomial factor).

Pivoting is deterministic: columns are processed left to right and the first
row with a nonzero entry is chosen, so results are reproducible.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .exact import MultiPoly, poly_exact_div


def _exact_div(a, b):
    if isinstance(a, int):
        q, r = divmod(a, b)
        if r:
            raise ValueError(f"{b} does not divide {a}")
        return q
    if isinstance(a, MultiPoly):
        return poly_exact_div(a, b)
    return a / b


class EchelonResult(NamedTuple):
    rows: list[list]                # echelon form, Bareiss-scaled
    pivots: list[tuple[int, int]]   # (row, col) of each pivot
    order: list[int]                # input index of each output row

    @property
    def rank(self) -> int:
        return len(self.pivots)


def fraction_free_echelon(matrix: Sequence[Sequence], ncols: int | None = None) -> EchelonResult:
    """Bareiss row echelon form. ``ncols`` limits pivoting to the first
    columns (useful for augmented systems); elimination always updates every
    column."""
    m = [list(row) for row in matrix]
    # the columns of each row's nonzero entries, kept up to date
    nz = [{j for j, x in enumerate(row) if x} for row in m]
    nr = len(m)
    order = list(range(nr))
    if ncols is None:
        ncols = len(m[0]) if nr else 0
    pivots: list[tuple[int, int]] = []
    prev = None
    pr = 0
    for c in range(ncols):
        piv = next((i for i in range(pr, nr) if c in nz[i]), None)
        if piv is None:
            continue
        if piv != pr:
            m[pr], m[piv] = m[piv], m[pr]
            nz[pr], nz[piv] = nz[piv], nz[pr]
            order[pr], order[piv] = order[piv], order[pr]
        prow = m[pr]
        p = prow[c]
        zero = p - p
        # rows from pr on are zero left of c, so these are the columns > c
        pcols = nz[pr] - {c}
        pnz = [(j, prow[j]) for j in sorted(pcols)]
        for i in range(pr + 1, nr):
            row, rnz = m[i], nz[i]
            if c in rnz:  # f ≠ 0: both supports
                f = row[c]
                rnz.discard(c)
                updates = [(j, p * row[j] - f * b if j in rnz else -(f * b)) for j, b in pnz]
                updates += [(j, p * row[j]) for j in rnz - pcols]
            else:
                updates = [(j, p * row[j]) for j in rnz]
            for j, e in updates:
                row[j] = e = e if prev is None else _exact_div(e, prev)
                (rnz.add if e else rnz.discard)(j)
            row[c] = zero
        prev = p
        pivots.append((pr, c))
        pr += 1
        if pr == nr:
            break
    return EchelonResult(m, pivots, order)


def _integer_row(row: list) -> tuple[int, list[int]]:
    """The lcm of the row's denominators, and the row times it as Python
    ints."""
    scale = math.lcm(*(x.denominator for x in row))
    return scale, [x.numerator * (scale // x.denominator) for x in row]


def mat_mul(A: Sequence[Sequence], B: Sequence[Sequence]):
    """Plain matrix product (entries must share a common arithmetic)."""
    if not A or not B:
        return []
    k = len(B)
    if any(len(row) != k for row in A):
        raise ValueError("inner dimensions disagree")
    cols = len(B[0])
    # the nonzero (column, entry) pairs of each row of B, listed once
    nonzero = [[(j, b) for j, b in enumerate(brow) if b] for brow in B]
    B0 = B[0]
    out = []
    for row in A:
        acc = [None] * cols
        for a, pairs in zip(row, nonzero):
            if a:
                for j, b in pairs:
                    term = a * b
                    x = acc[j]
                    acc[j] = term if x is None else x + term
        out.append([row[0] * B0[j] if x is None else x for j, x in enumerate(acc)])
    return out
