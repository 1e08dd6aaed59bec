"""Closed-form connection matrices for general-position arrangements.

For the general-position type the monodromy action of a small loop around
the locus where one (ℓ+1)-subset J of the closed arrangement degenerates is
known in closed form on the standard top-cohomology basis (ℓ-subsets of
[2..n]).  There are four shapes, split by J ∩ {1, n+1}; all entries are
integer-coefficient linear forms in λ₁..λₙ (the weight of the hyperplane at
infinity is always eliminated).  ``_block`` yields the entries of one block
Ω_J; ``_weighted_sum`` is the one builder of a matrix Σ m_J·Ω_J, and
``omega_general`` is its one-term sum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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

    def entry(self, I: tuple[int, ...], Iprime: tuple[int, ...]):
        return self.entries[self.basis.index(I)][self.basis.index(Iprime)]


# Largest general-position basis, C(n-1, ell) frames, that is built.  Blocks
# are square in it: 496 frames (n = 33, ell = 2) take 1 s in omega-general.
MAX_GENERAL_BASIS = 500


def _general_basis(n: int, ell: int) -> tuple[tuple[int, ...], ...]:
    if (size := math.comb(n - 1, ell)) > MAX_GENERAL_BASIS:
        raise ValueError(f"the general-position basis for n={n}, ell={ell} has "
                         f"C({n - 1}, {ell}) = {size} frames: over the limit {MAX_GENERAL_BASIS}")
    return tuple(itertools.combinations(range(2, n + 1), ell))


def _block(J: tuple[int, ...], w: Weights, basis, index):
    """Yield (row, column, entry) for each entry the block of J sets, once
    each; rows and columns are ``index`` positions in ``basis``."""
    n, ell = w.n, len(J) - 1
    inf = n + 1
    if 1 not in J and inf not in J:
        # every J ∖ {j_p} is a basis frame; they exchange among themselves
        deleted = [(index[J[:p] + J[p + 1:]], w.weight(J[p])) for p in range(len(J))]
        for p0, (i, _) in enumerate(deleted):
            for p, (j, lam) in enumerate(deleted):
                yield i, j, -lam if (p0 + p) % 2 else lam
    elif 1 not in J:  # J holds n+1
        Jp = tuple(x for x in J if x != inf)
        col = index[Jp]
        yield col, col, w.weight_sum(J)
        jset = set(Jp)
        for I in basis:
            extra = set(I) - jset
            if len(extra) != 1 or I == Jp:
                continue
            lam = w.weight(extra.pop())
            yield index[I], col, -lam if epsilon(I, Jp) == 1 else lam
    elif inf not in J:  # J holds 1
        J1 = J[1:]
        row = index[J1]
        yield row, row, w.weight_sum(J)
        jset = set(J1)
        for Ip in basis:
            common = jset & set(Ip)
            if len(common) != ell - 1 or Ip == J1:
                continue
            lam = w.weight(next(iter(jset - common)))
            yield row, index[Ip], -lam if epsilon(J1, Ip) == 1 else lam
    else:
        # the frames holding J2 = J ∖ {1, n+1} are J2 ∪ {x}, pairwise meeting in J2
        J2 = tuple(x for x in J if x != 1 and x != inf)
        extras = [x for x in range(2, n + 1) if x not in J2]
        holding = [tuple(sorted(J2 + (x,))) for x in extras]
        for x, I in zip(extras, holding):
            lam = w.weight(x)
            yield index[I], index[I], -lam
            for Ip in holding:
                if Ip != I:
                    yield index[I], index[Ip], lam if epsilon(I, Ip) == 1 else -lam


def omega_general(J: Iterable[int], n: int, ell: int, w: Weights | None = None) -> ConnectionMatrix:
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
    return _weighted_sum(((J, 1),), n, ell, w)


def _weighted_sum(terms, n: int, ell: int, w: Weights | None = None) -> ConnectionMatrix:
    """Σ m · Ω_J over the (J, m) of ``terms``, added in their order into one
    table of rows; a zero block entry adds nothing, and every entry no block
    sets is ``w.zero_scalar()``."""
    basis = _general_basis(n, ell)  # refuses an oversized basis before building weights
    if w is None:
        w = Weights.generic(n)
    elif w.n != n:
        raise ValueError(f"weights are for n={w.n}, expected n={n}")
    index = {B: i for i, B in enumerate(basis)}
    rows: dict[int, dict[int, object]] = {}
    for J, m in terms:
        for i, j, x in _block(J, w, basis, index):
            if x:
                row = rows.setdefault(i, {})
                row[j] = m * x if (y := row.get(j)) is None else y + m * x
    zero_row = (w.zero_scalar(),) * len(basis)
    entries = [zero_row] * len(basis)
    for i, row in rows.items():
        entries[i] = tuple(map(row.get, range(len(basis)), zero_row))
    return ConnectionMatrix(basis=basis, entries=tuple(entries))
