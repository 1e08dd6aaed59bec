"""Seeded inputs for the three workloads, as plain data.

Nothing here imports gmarr: inputs are ints, Fractions and strings, and the
rejection tests use the benchmark's own exact rank (``bench_oracle``), so
the same seed gives the same inputs whatever gmarr does.

The degeneration family is the ladder of ROADMAP.md: ``k`` hyperplanes
``u_ℓ = c·t`` (``c = 0, 2, 3, …``) collapse onto ``u_ℓ = 0`` at ``t = 0``,
and ``n − k`` seeded hyperplanes with integer entries in ±[1, 9] stay put.
The witness is ``t = 1``.  The collapsing rows sit at seeded positions, so
two cases of one rung have different combinatorial types.  Whether
hyperplane 1 (the one the general-position basis leaves out) collapses
changes a case's cost by about a quarter, so that choice is not left to the
seed: it is made for a fixed number of each rung's cases.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import bench_oracle as oracle

# ((n, ell, k), cases per round, cases where hyperplane 1 collapses).  As
# many cases lie below the (7,2,3) rung as above it, so the median case
# falls in the middle of that rung's cases.
DEGEN_LADDER = (
    ((6, 3, 2), 9, 3),
    ((7, 2, 3), 15, 0),
    ((7, 3, 3), 2, 1),
    ((8, 2, 3), 2, 1),
    ((7, 3, 2), 2, 1),
    ((9, 2, 3), 2, 1),
    ((8, 3, 3), 2, 1),
)
# rungs small enough for the t -> t^2 reparametrisation check
DOUBLING_RUNGS = ((6, 3, 2),)

# paths of one rung, each solved for several weight vectors; (7,3,2) is the
# rung whose cost varies least from one seeded path to the next
SWEEP_RUNG = (7, 3, 2)
SWEEP_PATHS = 5
SWEEP_WEIGHTS_PER_PATH = 4

# (ell, n) sizes of the types-wide arrangements, each drawn generic and forced
# Nine sizes with as many cases each: sorted by cost, the median case falls
# in the middle of the fifth size ((4, 6), next to (3, 7)) rather than
# between two sizes of different cost.
WIDE_SIZES = ((2, 7), (2, 8), (2, 9), (3, 6), (3, 7), (3, 8), (4, 6), (4, 7), (4, 8))
WIDE_PER_SIZE = 24

_PRIMES = (101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151, 157, 163, 167, 173)


def _nonzero(rng, lo, hi):
    return rng.choice((-1, 1)) * rng.randint(lo, hi)


def nonresonant_weights(rng: random.Random, n: int) -> list[Fraction]:
    """λ_j = ±a_j / p_j with distinct primes p_j ∤ a_j: the sum over any
    nonempty proper subset of the n + 1 weights (λ_{n+1} = −Σλ_j) is not an
    integer, so every nonresonance condition holds."""
    primes = rng.sample(_PRIMES, n)
    return [Fraction(_nonzero(rng, 1, p - 1), p) for p in primes]


def render_t(coeffs) -> str:
    """Render an ascending int coefficient tuple in t as gmarr's path syntax."""
    parts = []
    for i, c in enumerate(coeffs):
        if not c:
            continue
        mono = "" if i == 0 else ("t" if i == 1 else f"t^{i}")
        mag = abs(c)
        body = str(mag) if not mono else (mono if mag == 1 else f"{mag}*{mono}")
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def _acceptable_path(rows, collapsing, ell) -> bool:
    witness = oracle.rows_at(rows, Fraction(1))
    if oracle.rank([r[1:] for r in witness[:ell]]) < ell:
        return False  # keep the first ell rows in normal position
    dep1 = oracle.dependent_subsets(witness)
    if any(len(set(J) & collapsing) < 2 for J in dep1):
        return False  # the seeded rows must add no dependency of their own
    dep0 = oracle.dependent_subsets(oracle.rows_at(rows, Fraction(0)))
    return dep1 < dep0


def ladder_path(rng: random.Random, n: int, ell: int, k: int, first: bool, taken=()) -> dict:
    """One seeded member of the ladder family (rows as int coefficient
    tuples in t).  Hyperplane 1 collapses exactly when ``first``; ``taken``
    lists collapsing positions already used."""
    for _ in range(10_000):
        positions = tuple(sorted(rng.sample(range(n), k)))
        if (0 in positions) != first or positions in taken:
            continue
        cs = iter([0] + list(range(2, k + 1)))
        rows = []
        for i in range(n):
            if i in positions:
                rows.append([(0, -next(cs))] + [()] * (ell - 1) + [(1,)])
            else:
                rows.append([(_nonzero(rng, 1, 9),) for _ in range(ell + 1)])
        if _acceptable_path(rows, {p + 1 for p in positions}, ell):
            return {"n": n, "ell": ell, "k": k, "positions": positions, "rows": rows}
    raise RuntimeError(f"no acceptable ({n},{ell},{k}) path left to draw")


def substitute_t_squared(rows):
    """The same family reparametrised by t -> t^2."""
    out = []
    for r in rows:
        new = []
        for e in r:
            sq = [0] * (2 * len(e) - 1) if e else []
            for i, c in enumerate(e):
                sq[2 * i] = c
            new.append(tuple(sq))
        out.append(new)
    return out


def path_document(rows, ell: int) -> dict:
    """A gmarr path file for these rows, with symbolic weights."""
    return {
        "n": len(rows),
        "ell": ell,
        "rows": [[render_t(e) for e in r] for r in rows],
        "weights": "generic",
        "t_witness": "1",
    }


def degen_cases(seed: int) -> list[dict]:
    rng = random.Random(f"degen-generic/{seed}")
    cases = []
    for rung, count, firsts in DEGEN_LADDER:
        taken = []
        for s in range(count):
            path = ladder_path(rng, *rung, first=s < firsts, taken=taken)
            taken.append(path["positions"])
            path["id"] = "degen/{}-{}-{}/{}".format(*rung, s)
            path["doubling"] = rung in DOUBLING_RUNGS
            # small integers keep the evaluated matrices cheap to multiply
            path["point"] = [Fraction(_nonzero(rng, 2, 50)) for _ in range(rung[0])]
            cases.append(path)
    return cases


def sweep_cases(seed: int) -> list[dict]:
    rng = random.Random(f"sweep-concrete/{seed}")
    cases = []
    n, ell, k = SWEEP_RUNG
    for p in range(SWEEP_PATHS):
        path = ladder_path(rng, n, ell, k, first=False)
        for s in range(SWEEP_WEIGHTS_PER_PATH):
            cases.append(
                {
                    "id": f"sweep/{n}-{ell}-{k}/{p}/{s}",
                    "path": p,
                    "n": n,
                    "ell": ell,
                    "rows": path["rows"],
                    "weights": nonresonant_weights(rng, n),
                }
            )
    return cases


def _pairwise_distinct(rows) -> bool:
    return all(
        any(r[1:]) for r in rows
    ) and all(oracle.rank([a, b]) == 2 for a, b in itertools.combinations(rows, 2))


def random_arrangement(rng: random.Random, n: int, ell: int, forced: bool) -> list[list[int]]:
    """Integer rows: in general position (with the hyperplane at infinity)
    when not ``forced``; otherwise with 1 to 3 rows made concurrent with, or
    parallel to, others."""
    while True:
        rows = [[rng.randint(-9, 9) for _ in range(ell + 1)] for _ in range(n)]
        if forced:
            for r in rng.sample(range(ell, n), rng.randint(1, min(3, n - ell))):
                others = [i for i in range(n) if i != r]
                if rng.random() < 0.5:
                    support, shift = rng.sample(others, rng.randint(2, ell)), 0
                else:
                    support, shift = rng.sample(others, rng.randint(1, ell - 1)), _nonzero(rng, 1, 5)
                combo = [0] * (ell + 1)
                for i in support:
                    a = _nonzero(rng, 1, 3)
                    combo = [x + a * y for x, y in zip(combo, rows[i])]
                combo[0] += shift
                rows[r] = combo
            if _pairwise_distinct(rows) and oracle.rank(oracle.closure_rows(rows)) == ell + 1:
                return rows
        elif not oracle.dependent_subsets(rows):
            return rows


def wide_cases(seed: int) -> list[dict]:
    rng = random.Random(f"types-wide/{seed}")
    cases = []
    for ell, n in WIDE_SIZES:
        for s in range(WIDE_PER_SIZE):
            forced = bool(s % 2)
            cases.append(
                {
                    "id": f"wide/{ell}-{n}/{s}",
                    "n": n,
                    "ell": ell,
                    "generic": not forced,
                    "rows": random_arrangement(rng, n, ell, forced),
                    "weights": nonresonant_weights(rng, n),
                }
            )
    return cases
