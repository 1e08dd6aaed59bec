"""Closed-form connection matrices for general-position arrangements.

For the general-position type the monodromy action of a small loop around
the locus where one (ℓ+1)-subset J of the closed arrangement degenerates is
known in closed form on the standard top-cohomology basis (ℓ-subsets of
[2..n]).  There are four shapes, split by J ∩ {1, n+1}; all entries are
integer-coefficient linear forms in λ₁..λₙ (the weight of the hyperplane at
infinity is always eliminated).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

from .arrangement import Weights


def epsilon(I: Iterable[int], Iprime: Iterable[int]) -> int:
    """Sign (−1)^{p+q} where K = I ∪ I' and I, I' omit the p-th and q-th
    smallest elements of K respectively."""
    I = tuple(I)
    Iprime = tuple(Iprime)
    for name, S in (("I", I), ("Iprime", Iprime)):
        if list(S) != sorted(set(S)):
            raise ValueError(f"{name} = {S} must be strictly increasing")
    if len(I) != len(Iprime):
        raise ValueError(f"size mismatch: |{I}| != |{Iprime}|")
    overlap = set(I) & set(Iprime)
    if len(overlap) != len(I) - 1:
        raise ValueError(
            f"overlap condition violated: {I} and {Iprime} must share all but "
            "one element"
        )
    K = sorted(set(I) | set(Iprime))
    p = K.index(next(iter(set(K) - set(I)))) + 1
    q = K.index(next(iter(set(K) - set(Iprime)))) + 1
    return -1 if (p + q) % 2 else 1


@dataclass(frozen=True)
class ConnectionMatrix:
    """Square matrix acting on classes labelled by ``basis`` frames; the row
    for a frame I holds the coefficients of the image of its class."""

    basis: tuple[tuple[int, ...], ...]
    entries: tuple[tuple[object, ...], ...]

    @cached_property
    def nonzero(self) -> tuple[tuple[tuple[int, object], ...], ...]:
        """The (column, entry) pairs of each row's nonzero entries, by column."""
        return tuple(tuple((j, x) for j, x in enumerate(row) if x) for row in self.entries)

    def entry(self, I: tuple[int, ...], Iprime: tuple[int, ...]):
        return self.entries[self.basis.index(I)][self.basis.index(Iprime)]


# Largest general-position basis, C(n-1, ell) frames, that is built.  Blocks
# are square in it: 496 frames (n = 33, ell = 2) take 1 s in omega-general.
MAX_GENERAL_BASIS = 500


def _from_rows(basis, rows: dict[int, dict[int, object]], zero) -> ConnectionMatrix:
    """The square matrix with the entries ``rows[i][j]`` and ``zero`` elsewhere,
    and its ``nonzero`` read off ``rows``: no step visits every entry."""
    zero_row = (zero,) * len(basis)
    entries, nonzero = [zero_row] * len(basis), [()] * len(basis)
    for i, row in rows.items():
        full = list(zero_row)
        for j, x in row.items():
            full[j] = x
        entries[i] = tuple(full)
        nonzero[i] = tuple((j, row[j]) for j in sorted(row) if row[j])
    M = ConnectionMatrix(basis=basis, entries=tuple(entries))
    object.__setattr__(M, "nonzero", tuple(nonzero))  # fills the cached property
    return M


def _general_basis(n: int, ell: int) -> tuple[tuple[int, ...], ...]:
    if (size := math.comb(n - 1, ell)) > MAX_GENERAL_BASIS:
        raise ValueError(f"the general-position basis for n={n}, ell={ell} has "
                         f"C({n - 1}, {ell}) = {size} frames: over the limit {MAX_GENERAL_BASIS}")
    return tuple(itertools.combinations(range(2, n + 1), ell))


def omega_general(
    J: Iterable[int], n: int, ell: int, w: Weights | None = None
) -> ConnectionMatrix:
    """Connection matrix for the degeneration of the single subset J in the
    general-position type on n hyperplanes in dimension ℓ."""
    if not 1 <= ell <= n:
        raise ValueError(f"need n >= ell >= 1, got n={n}, ell={ell}")
    J = tuple(J)
    if list(J) != sorted(set(J)):
        raise ValueError(f"J = {J} must be strictly increasing")
    if len(J) != ell + 1:
        raise ValueError(f"J = {J} must have ell + 1 = {ell + 1} elements")
    if not (1 <= J[0] and J[-1] <= n + 1):
        raise ValueError(f"J = {J} out of range 1..{n + 1}")
    basis = _general_basis(n, ell)  # refuses an oversized basis before building weights
    if w is None:
        w = Weights.generic(n)
    elif w.n != n:
        raise ValueError(f"weights are for n={w.n}, expected n={n}")

    index = {B: i for i, B in enumerate(basis)}
    rows: dict[int, dict[int, object]] = {}
    inf = n + 1
    has_one = 1 in J
    has_inf = inf in J

    if not has_one and not has_inf:
        # every J ∖ {j_p} is a basis frame; they exchange among themselves
        deleted = [(J[:p] + J[p + 1:], J[p]) for p in range(len(J))]
        for p0, (row_frame, _) in enumerate(deleted):
            row = rows.setdefault(index[row_frame], {})
            for p, (col_frame, jp) in enumerate(deleted):
                lam = w.weight(jp)
                row[index[col_frame]] = -lam if (p0 + p) % 2 else lam
    elif has_inf and not has_one:
        Jp = tuple(x for x in J if x != inf)
        col = index[Jp]
        outside = [j for j in range(1, n + 1) if j not in Jp]
        rows[col] = {col: -w.weight_sum(outside)}
        jset = set(Jp)
        for I in basis:
            extra = set(I) - jset
            if len(extra) != 1 or I == Jp:
                continue
            lam = w.weight(extra.pop())
            rows.setdefault(index[I], {})[col] = -lam if epsilon(I, Jp) == 1 else lam
    elif has_one and not has_inf:
        J1 = J[1:]
        row = rows[index[J1]] = {index[J1]: w.weight_sum(J)}
        jset = set(J1)
        for Ip in basis:
            common = jset & set(Ip)
            if len(common) != ell - 1 or Ip == J1:
                continue
            lam = w.weight(next(iter(jset - common)))
            row[index[Ip]] = -lam if epsilon(J1, Ip) == 1 else lam
    else:
        # the frames holding J2 = J ∖ {1, n+1} are J2 ∪ {x}, pairwise meeting in J2
        J2 = tuple(x for x in J if x != 1 and x != inf)
        extras = [x for x in range(2, n + 1) if x not in J2]
        holding = [tuple(sorted(J2 + (x,))) for x in extras]
        for x, I in zip(extras, holding):
            lam = w.weight(x)
            row = rows[index[I]] = {index[I]: -lam}
            for Ip in holding:
                if Ip != I:
                    row[index[Ip]] = lam if epsilon(I, Ip) == 1 else -lam

    return _from_rows(basis, rows, w.zero_scalar())
