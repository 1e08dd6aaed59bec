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
    if w is None:
        w = Weights.generic(n)
    elif w.n != n:
        raise ValueError(f"weights are for n={w.n}, expected n={n}")

    basis = _general_basis(n, ell)
    index = {B: i for i, B in enumerate(basis)}
    zero = w.zero_scalar()
    entries = [[zero for _ in basis] for _ in basis]
    inf = n + 1
    has_one = 1 in J
    has_inf = inf in J

    if not has_one and not has_inf:
        # every J ∖ {j_p} is a basis frame; they exchange among themselves
        deleted = [(J[:p] + J[p + 1:], J[p]) for p in range(len(J))]
        for p0, (row_frame, _) in enumerate(deleted):
            row = index[row_frame]
            for p, (col_frame, jp) in enumerate(deleted):
                lam = w.weight(jp)
                entries[row][index[col_frame]] = -lam if (p0 + p) % 2 else lam
    elif has_inf and not has_one:
        Jp = tuple(x for x in J if x != inf)
        col = index[Jp]
        outside = [j for j in range(1, n + 1) if j not in Jp]
        entries[col][col] = -w.weight_sum(outside)
        jset = set(Jp)
        for I in basis:
            extra = set(I) - jset
            if len(extra) != 1 or I == Jp:
                continue
            lam = w.weight(extra.pop())
            entries[index[I]][col] = -lam if epsilon(I, Jp) == 1 else lam
    elif has_one and not has_inf:
        J1 = J[1:]
        row = index[J1]
        entries[row][row] = w.weight_sum(J)
        jset = set(J1)
        for Ip in basis:
            common = jset & set(Ip)
            if len(common) != ell - 1 or Ip == J1:
                continue
            lam = w.weight(next(iter(jset - common)))
            entries[row][index[Ip]] = -lam if epsilon(J1, Ip) == 1 else lam
    else:
        J2 = tuple(x for x in J if x != 1 and x != inf)
        j2set = set(J2)
        for I in basis:
            if not j2set <= set(I):
                continue
            row = index[I]
            lam = w.weight(next(iter(set(I) - j2set)))
            entries[row][row] = -lam
            for Ip in basis:
                if Ip != I and set(I) & set(Ip) == j2set:
                    entries[row][index[Ip]] = (
                        lam if epsilon(I, Ip) == 1 else -lam
                    )

    return ConnectionMatrix(basis=basis, entries=tuple(tuple(r) for r in entries))
