"""Exact scalar arithmetic for the whole package.

Two value families cover every scalar that appears downstream:

* :class:`fractions.Fraction`: plain exact rationals.
* :class:`MultiPoly`: sparse polynomials in the symbolic weight variables
  ``l1 .. ln``.  The weight of the hyperplane at infinity is never a stored
  variable; callers substitute ``-(l1 + ... + ln)`` eagerly, so the
  variables stay algebraically independent and gcd-based canonical forms
  are sound.

Every computation runs in the polynomial domain.  :class:`RatFunc`, the
reduced quotient of two polynomials, is only the canonical output value that
:func:`quotient` forms from a domain numerator and denominator: it compares,
hashes, evaluates and renders, and has no field operators.

:class:`PathPoly`, the polynomials in the deformation parameter ``t`` of
one-parameter families, is the one-variable :class:`MultiPoly` in ``t``: it
shares the ring operations, and sums, products and quotients of path
polynomials stay path polynomials.  Classes must match exactly, so a path
polynomial never combines with (``TypeError``) or equals a polynomial in the
weights.  Parsed path polynomials carry powers of ``t`` up to
``MAX_T_DEGREE``.

All values are immutable.  Every constructor produces the canonical
representative (zero terms dropped, rational functions gcd-reduced with
monic denominator, a coefficient stored as an ``int`` when it is integral
and as a ``Fraction`` otherwise), so ``==`` is plain representational
equality; canonical is meant in value, as ``3 == Fraction(3)`` with equal
hashes.  Every coefficient division goes through one helper that keeps the
stored form (``1 / c`` on an ``int`` would be a float).

Operands recognised by their shape take shortcuts that return the same
canonical object as the general route: a gcd with a single-term argument is
the monic monomial of least exponents over both arguments' terms, an exact
division by a single term shifts exponents and scales coefficients, and a
product with an ``int`` or ``Fraction`` scales the coefficients.  A product
of two single terms is one term, with no product loop, and a difference is
taken term by term, not as a sum with the negation.  The subresultant gcd
runs only when both arguments have two or more terms.

Each monomial is one ``int`` key: the total degree in the top field, then the
exponents of ``l1 .. ln`` in 32-bit fields, so int order is graded-lex order
with ``l1 > l2 > ... > ln``.  A monomial product is one addition of keys, and
one mask over the top (guard) bit of every field tests divisibility.  A total
degree above ``MAX_DEGREE`` = 2^31 - 1 would reach a guard bit, so it raises
:class:`DegreeLimitExceeded`, a ``ValueError``.  Rendering follows graded-lex
order descending, e.g. ``"l1^2 + 3*l1*l2 - 1/2"``.  Rational functions render
as ``"(numer)/(denom)"`` with the denominator omitted when it is 1.  Path
polynomials render ascending: ``"1 - 2*t + t^2"``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cache, reduce
from itertools import chain
from operator import add, or_, sub
from struct import Struct
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence, Union

Scalarish = Union[int, Fraction, "MultiPoly", "RatFunc"]

_FIELD = 32  # bits of one field of a monomial key (the "I" of _layout), guard bit included
MAX_DEGREE = (1 << (_FIELD - 1)) - 1  # keeps every field below its guard bit


class DenominatorVanishes(ArithmeticError):
    """Raised when a rational function is evaluated at a zero of its denominator."""

    def __init__(self, denominator: "MultiPoly", point: tuple[Fraction, ...]):
        self.denominator = denominator
        self.point = point
        super().__init__(
            f"denominator {denominator} vanishes at ({', '.join(map(str, point))})"
        )


class DegreeLimitExceeded(ValueError):
    """A monomial of total degree above ``MAX_DEGREE``, which no key holds."""

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"total degree {degree} exceeds the limit MAX_DEGREE = {MAX_DEGREE}")


@cache
def _layout(nvars: int) -> Struct:
    """A key's bytes: the degree, then the exponents, as 32-bit unsigned ints."""
    return Struct(f">{nvars + 1}I")


def _pack(e: Sequence[int]) -> int:
    """The key of the monomial with exponents ``e`` (nonnegative ints)."""
    if (d := sum(e)) > MAX_DEGREE:
        raise DegreeLimitExceeded(d)
    return int.from_bytes(_layout(len(e)).pack(d, *e), "big")


def _unpack(k: int, nvars: int) -> tuple[int, ...]:
    """The exponents of ``l1 .. l{nvars}`` in the key ``k``."""
    layout = _layout(nvars)
    return layout.unpack(k.to_bytes(layout.size, "big"))[1:]


@cache
def _guard(nvars: int) -> int:
    """G, the top bit of every field: b divides a iff ((a | G) - b) & G == G."""
    return sum(1 << (_FIELD * i + _FIELD - 1) for i in range(nvars + 1))


def _unit(nvars: int, v: int) -> int:
    """The key of the variable of 0-based index ``v``: ``_pack`` of its unit exponent."""
    return 1 << _FIELD * nvars | 1 << _FIELD * (nvars - 1 - v)


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an exact rational coefficient, got {type(c).__name__}")


def _coeff(c) -> int | Fraction:
    """The stored form of an exact rational: an ``int`` when it is integral."""
    if type(c) is int:
        return c
    c = _as_fraction(c)
    return c.numerator if c.denominator == 1 else c


def _ints(terms: dict) -> dict:
    """Store every integral coefficient of ``terms`` as an ``int``, in place."""
    for e, c in terms.items():
        if type(c) is not int and c.denominator == 1:
            terms[e] = c.numerator
    return terms


def _cdiv(a, b) -> int | Fraction:
    """The exact quotient of two coefficients, in stored form (``a / b`` on
    ints would be a float)."""
    if type(a) is int and type(b) is int and not a % b:
        return a // b
    return _coeff(Fraction(a, b))


def _render_terms(ordered: Iterable[tuple[str, Fraction]]) -> str:
    """Join (monomial-string, coefficient) pairs with " + " / " - "."""
    parts: list[str] = []
    for mono, c in ordered:
        mag = -c if c < 0 else c
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(f"-{body}" if c < 0 else body)
        else:
            parts.append(f" - {body}" if c < 0 else f" + {body}")
    return "".join(parts) if parts else "0"


def _from_terms(cls: type, nvars: int, terms: dict[int, Fraction]) -> "MultiPoly":
    """A ``cls`` (MultiPoly or PathPoly) over packed terms that are already
    canonical (nonzero coefficients in stored form), skipping the
    constructor's validation."""
    out = cls.__new__(cls)
    out.nvars, out._terms, out._hash = nvars, terms, None
    return out


class MultiPoly:
    """Sparse polynomial in ``nvars`` variables over the rationals.

    ``_terms`` maps monomial keys (``_pack``: total degree on top, then one
    32-bit field per variable) to nonzero coefficients, each an ``int`` when
    integral and a ``Fraction`` otherwise; a total degree above
    ``MAX_DEGREE`` raises :class:`DegreeLimitExceeded`.  ``terms`` is a
    read-only view keyed by exponent tuples.  Instances are immutable.
    """

    __slots__ = ("nvars", "_terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.nvars = nvars
        clean: dict[int, Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = _coeff(c)
                if not c:
                    continue
                if len(e) != nvars or any(k < 0 for k in e):
                    raise ValueError(f"bad exponent vector {e} for {nvars} variables")
                clean[_pack(e)] = c
        self._terms = clean
        self._hash = None

    @property
    def terms(self) -> Mapping[tuple[int, ...], int | Fraction]:
        """Read-only view: exponent tuple -> coefficient."""
        return MappingProxyType({_unpack(k, self.nvars): c for k, c in self._terms.items()})

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return _from_terms(cls, nvars, {})

    @classmethod
    def const(cls, nvars: int, c) -> "MultiPoly":
        c = _coeff(c)
        return _from_terms(cls, nvars, {0: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, j: int) -> "MultiPoly":
        """The variable ``l{j}`` (1-based)."""
        if not 1 <= j <= nvars:
            raise ValueError(f"variable index {j} out of range 1..{nvars}")
        return _from_terms(cls, nvars, {_unit(nvars, j - 1): 1})

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._terms

    def is_const(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    def const_value(self) -> int | Fraction:
        if not self._terms:
            return 0
        if self.is_const():
            return self._terms[0]
        raise ValueError(f"{self} is not constant")

    def is_one(self) -> bool:
        return self.is_const() and self.const_value() == 1

    def __bool__(self) -> bool:
        return bool(self._terms)

    def total_degree(self) -> int:
        # degree of the zero polynomial reported as -1
        return max(self._terms) >> (_FIELD * self.nvars) if self._terms else -1

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading (exponent, coefficient) in graded-lex order."""
        if not self._terms:
            raise ValueError("zero polynomial has no leading term")
        k = max(self._terms)
        return _unpack(k, self.nvars), self._terms[k]

    # -- ring operations -------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if type(other) is not type(self):  # a path polynomial never meets a weight one
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            self._check(other)  # callers pass only another class or size, which it refuses
        if isinstance(other, (int, Fraction)):
            c = _coeff(other)
            return _from_terms(type(self), self.nvars, {0: c} if c else {})
        return None

    def _merge(self, other, op):  # op is add or sub, applied term by term
        if type(other) is not type(self) or other.nvars != self.nvars:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        terms = dict(self._terms)
        for k, c in other._terms.items():
            if s := op(terms.get(k, 0), c):
                terms[k] = s if type(s) is int or s.denominator != 1 else s.numerator
            else:
                terms.pop(k, None)
        return _from_terms(type(self), self.nvars, terms)

    def __add__(self, other):
        return self._merge(other, add)

    __radd__ = __add__

    def __neg__(self):
        return _from_terms(type(self), self.nvars, {k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        return self._merge(other, sub)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        if type(other) is not type(self) or other.nvars != self.nvars:
            if isinstance(other, (int, Fraction)):
                # scalar: scale the coefficients, no product of term lists
                terms = {k: c * other for k, c in self._terms.items()} if other else {}
                return _from_terms(type(self), self.nvars, _ints(terms))
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        a, b = self._terms, other._terms
        if not a or not b:
            return _from_terms(type(self), self.nvars, {})
        top = (max(a) + max(b)) >> (_FIELD * self.nvars)
        if top > MAX_DEGREE:
            raise DegreeLimitExceeded(top)
        if len(a) == 1 and len(b) == 1:
            # term times term: one key sum, one coefficient product
            ((ka, ca),), ((kb, cb),) = a.items(), b.items()
            c = ca * cb
            if type(c) is not int and c.denominator == 1:
                c = c.numerator
            return _from_terms(type(self), self.nvars, {ka + kb: c})
        # multiply the smaller term list into the larger one
        if len(a) > len(b):
            a, b = b, a
        terms: dict[int, Fraction] = {}
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                s = terms.get(k, 0) + ca * cb
                if s:
                    terms[k] = s
                else:
                    del terms[k]
        return _from_terms(type(self), self.nvars, _ints(terms))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        out = self._coerce(1)
        for _ in range(k):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.is_const() and self.const_value() == other
        if isinstance(other, MultiPoly):
            return (
                type(other) is type(self)
                and self.nvars == other.nvars
                and self._terms == other._terms
            )
        if isinstance(other, RatFunc):
            return other == self
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            if self.is_const():
                self._hash = hash(self.const_value())
            else:
                self._hash = hash((self.nvars, frozenset(self._terms.items())))
        return self._hash

    # -- evaluation and rendering ----------------------------------------

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(values)}")
        vals = [_as_fraction(v) for v in values]
        total = Fraction(0)
        for k, c in self._terms.items():
            term = c
            for v, e in zip(vals, _unpack(k, self.nvars)):
                if e:
                    term *= v**e
            total += term
        return total

    def render(self) -> str:
        def mono(k: int) -> str:
            return "*".join(
                f"l{i + 1}^{e}" if e > 1 else f"l{i + 1}"
                for i, e in enumerate(_unpack(k, self.nvars))
                if e
            )
        return _render_terms((mono(k), c) for k, c in sorted(self._terms.items(), reverse=True))

    __str__ = render

    def __repr__(self):
        return f"{type(self).__name__}({self.render()!r})"


# --------------------------------------------------------------------------
# exact division and gcd
# --------------------------------------------------------------------------


def poly_exact_div(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Exact polynomial division; raises ValueError if ``b`` does not divide ``a``."""
    a._check(b)
    if b.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero():
        return a
    if b.is_const():
        return a * _cdiv(1, b.const_value())
    guard = _guard(a.nvars)
    if len(b._terms) == 1:
        # monomial divisor: shift every key, scale every coefficient
        ((kb, cb),) = b._terms.items()
        quot = {}
        for ka, ca in a._terms.items():
            if ((ka | guard) - kb) & guard != guard:
                raise ValueError(f"({b}) does not divide ({a})")
            quot[ka - kb] = _cdiv(ca, cb)
        return _from_terms(type(a), a.nvars, quot)
    kb = max(b._terms)
    cb = b._terms[kb]
    rem = dict(a._terms)
    quot: dict[int, Fraction] = {}
    while rem:
        kr = max(rem)
        if ((kr | guard) - kb) & guard != guard:
            raise ValueError(f"({b}) does not divide ({a})")
        kq = kr - kb
        cq = _cdiv(rem[kr], cb)
        quot[kq] = cq
        for k2, c2 in b._terms.items():
            k = kq + k2
            s = rem.get(k, 0) - cq * c2
            if s:
                rem[k] = s
            else:
                rem.pop(k, None)
    return _from_terms(type(a), a.nvars, quot)


def _top_variable(a: MultiPoly, b: MultiPoly) -> int | None:
    """Smallest variable index (0-based) occurring in either polynomial."""
    # or-ing the keys keeps every field nonzero that is nonzero in some key
    e = _unpack(reduce(or_, chain(a._terms, b._terms), 0), a.nvars)
    return next((i for i, k in enumerate(e) if k), None)


def _to_univar(p: MultiPoly, v: int) -> list[MultiPoly]:
    """Coefficients of p as a polynomial in variable v; index = power of v."""
    unit = _unit(p.nvars, v)
    powers = [(_unpack(k, p.nvars)[v], k, c) for k, c in p._terms.items()]
    buckets: list[dict] = [{} for _ in range(max((j for j, _, _ in powers), default=0) + 1)]
    for j, k, c in powers:
        buckets[j][k - j * unit] = c
    return [_from_terms(type(p), p.nvars, b) for b in buckets]


def _from_univar(coeffs: Sequence[MultiPoly], v: int, nvars: int) -> MultiPoly:
    unit = _unit(nvars, v)
    terms: dict[int, Fraction] = {}
    for j, c in enumerate(coeffs):
        for k, q in c._terms.items():
            terms[k + j * unit] = q
    return _from_terms(type(coeffs[0]), nvars, terms)


def _trim(f: list[MultiPoly]) -> list[MultiPoly]:
    while f and f[-1].is_zero():
        f.pop()
    return f


def _content(coeffs: Sequence[MultiPoly]) -> MultiPoly:
    g = type(coeffs[0]).zero(coeffs[0].nvars)
    for c in coeffs:
        g = poly_gcd(g, c)
        if g.is_one():
            break
    return g


def _pseudo_rem(f: list[MultiPoly], g: list[MultiPoly]) -> list[MultiPoly]:
    """Standard pseudo-remainder: lc(g)^(deg f - deg g + 1) * f mod g.

    The fixed power of lc(g) is what makes the subresultant divisions exact,
    so the remainder is rescaled when a reduction step drops the degree by
    more than one.
    """
    f = _trim(list(f))
    dg = len(g) - 1
    lg = g[-1]
    scale_target = (len(f) - 1) - dg + 1
    steps = 0
    while f and len(f) - 1 >= dg:
        lf = f[-1]
        shift = (len(f) - 1) - dg
        f = [c * lg for c in f]
        for i, gc in enumerate(g):
            f[i + shift] = f[i + shift] - lf * gc
        f.pop()  # leading term cancels exactly
        _trim(f)
        steps += 1
    if f and steps < scale_target:
        mult = lg ** (scale_target - steps)
        f = [c * mult for c in f]
    return f


def poly_gcd(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    """Monic greatest common divisor.

    Zero arguments are handled first.  When either argument is a single term
    (a nonzero constant included), every divisor of it is a monomial, so the
    gcd is the monic monomial whose exponent in each variable is the least
    over the terms of both arguments.  Otherwise: content extraction +
    subresultant PRS.
    """
    a._check(b)
    if a.is_zero() and b.is_zero():
        return a
    if a.is_zero() or b.is_zero():
        p = b if a.is_zero() else a
        _, lc = p.leading()
        return p * _cdiv(1, lc)
    if len(a._terms) == 1 or len(b._terms) == 1:
        # a monomial's divisors are monomials: take the least exponent of
        # each variable over every term of both arguments (a nonzero
        # constant is the monomial of exponent zero, so its gcd is 1)
        e = map(min, *(_unpack(k, a.nvars) for k in chain(a._terms, b._terms)))
        return _from_terms(type(a), a.nvars, {_pack(tuple(e)): 1})

    v = _top_variable(a, b)
    fa, fb = _to_univar(a, v), _to_univar(b, v)
    ca, cb = _content(fa), _content(fb)
    cont = poly_gcd(ca, cb)
    fa = [poly_exact_div(c, ca) for c in fa]
    fb = [poly_exact_div(c, cb) for c in fb]
    if len(fa) < len(fb):
        fa, fb = fb, fa

    # subresultant polynomial remainder sequence on the primitive parts
    one = a._coerce(1)
    g, h = one, one
    F, G = fa, fb
    prim: list[MultiPoly] | None
    while True:
        if len(G) == 1:
            # degree 0 in the top variable: primitive parts are coprime
            prim = None
            break
        delta = len(F) - len(G)
        R = _pseudo_rem(F, G)
        if not R:
            prim = G
            break
        divisor = g * h**delta
        F, G = G, [poly_exact_div(c, divisor) for c in R]
        g = F[-1]
        if delta == 1:
            h = g
        elif delta > 1:
            h = poly_exact_div(g**delta, h ** (delta - 1))
    if prim is None:
        result = cont
    else:
        pc = _content(prim)
        prim_parts = [poly_exact_div(c, pc) for c in prim]
        result = cont * _from_univar(prim_parts, v, a.nvars)
    _, lc = result.leading()
    return result * _cdiv(1, lc)


# --------------------------------------------------------------------------
# rational functions
# --------------------------------------------------------------------------


class RatFunc:
    """Reduced rational function: gcd(num, den) = 1, den monic in graded-lex.

    An output value: it compares, hashes, evaluates and renders, but has no
    arithmetic operators.  ``RatFunc(p)`` is the polynomial p over 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: MultiPoly, den: MultiPoly | None = None):
        if not isinstance(num, MultiPoly):
            raise TypeError("RatFunc numerator must be a MultiPoly")
        if den is None:
            den = MultiPoly.const(num.nvars, 1)
        num._check(den)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = MultiPoly.const(num.nvars, 1)
        else:
            g = poly_gcd(num, den)
            if not g.is_one():
                num = poly_exact_div(num, g)
                den = poly_exact_div(den, g)
            _, lc = den.leading()
            if lc != 1:
                inv = _cdiv(1, lc)
                num, den = num * inv, den * inv
        self.num = num
        self.den = den

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            return self.den.is_one() and self.num == other
        if isinstance(other, RatFunc):
            return self.num == other.num and self.den == other.den
        return NotImplemented

    def __hash__(self):
        if self.den.is_one():
            return hash(self.num)
        return hash((self.num, self.den))

    # -- evaluation and rendering ---------------------------------------------

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        dv = self.den.evaluate(values)
        if dv == 0:
            raise DenominatorVanishes(self.den, tuple(_as_fraction(v) for v in values))
        return self.num.evaluate(values) / dv

    def render(self) -> str:
        if self.den.is_one():
            return self.num.render()
        return f"({self.num.render()})/({self.den.render()})"

    __str__ = render

    def __repr__(self):
        return f"RatFunc({self.render()!r})"


def quotient(num, den):
    """The field element num/den of a domain quotient: the canonical
    ``RatFunc`` over polynomials, a ``Fraction`` over rationals."""
    if isinstance(num, MultiPoly):
        return RatFunc(num, den)
    return Fraction(num) / den


def evaluate(f: Scalarish, values: Sequence[Fraction]) -> Fraction:
    """Evaluate a scalar (int, Fraction, MultiPoly or RatFunc) at concrete weights."""
    if isinstance(f, (int, Fraction)):
        return _as_fraction(f)
    return f.evaluate(values)


# --------------------------------------------------------------------------
# univariate polynomials in the deformation parameter t
# --------------------------------------------------------------------------


class PathPoly(MultiPoly):
    """Polynomial in t over the rationals: the one-variable MultiPoly whose
    exponent ``(k,)`` is the power t^k.  ``PathPoly(coeffs)`` takes dense
    coefficients, coefficient i belonging to t^i."""

    __slots__ = ()

    def __init__(self, coeffs: Sequence = ()):
        super().__init__(1, {(i,): c for i, c in enumerate(coeffs)})

    @classmethod
    def const(cls, c) -> "PathPoly":
        return super().const(1, c)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Dense coefficients up to the degree; empty for the zero polynomial."""
        dense = {_unpack(k, 1)[0]: c for k, c in self._terms.items()}
        return tuple(dense.get(i, 0) for i in range(max(dense, default=-1) + 1))

    def evaluate(self, t) -> Fraction:
        return super().evaluate((t,))

    def ord_t(self) -> int | None:
        """Order of vanishing at t = 0: the lowest power of t with a nonzero
        coefficient; None for zero."""
        return _unpack(min(self._terms), 1)[0] if self._terms else None

    def render(self) -> str:
        def mono(k: int) -> str:
            (i,) = _unpack(k, 1)
            if i == 0:
                return ""
            return "t" if i == 1 else f"t^{i}"
        return _render_terms((mono(k), c) for k, c in sorted(self._terms.items()))

    __str__ = render


# --------------------------------------------------------------------------
# text parsing (file formats use these; rendering is the inverse)
# --------------------------------------------------------------------------

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(text: str) -> Fraction:
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"malformed rational {text!r} (expected e.g. '3', '-1/2')")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in rational {text!r}") from None


# Largest power of t a path polynomial may carry.  Path entries are evaluated
# at the witness and multiplied into minors, so an unbounded exponent such as
# t^99999999 would build integers of that many bits; t^1000 stays cheap.
MAX_T_DEGREE = 1000

_PATH_TERM_RE = re.compile(
    r"^(?:(?P<coeff>\d+(?:/\d+)?)(?:\*(?=t))?)?(?:(?P<t>t)(?:\^(?P<pow>\d+))?)?$"
)


def parse_path_poly(text: str) -> PathPoly:
    """Parse expressions like ``"1 - 2*t + t^2"``, ``"-t"``, ``"3/4"``.

    Raises ValueError on malformed text and on a power of t above
    ``MAX_T_DEGREE``.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty path polynomial")
    # split into signed terms
    chunks = re.split(r"\s*([+-])\s*", s)
    if chunks[0] == "":
        chunks = chunks[1:]
    else:
        chunks = ["+"] + chunks
    terms: dict[int, Fraction] = {}
    for sign, term in zip(chunks[::2], chunks[1::2]):
        m = _PATH_TERM_RE.match(term.replace(" ", ""))
        if not m or (m.group("coeff") is None and m.group("t") is None):
            raise ValueError(f"malformed term {term!r} in path polynomial {text!r}")
        try:
            c = Fraction(m.group("coeff")) if m.group("coeff") else 1
        except ZeroDivisionError:
            raise ValueError(
                f"zero denominator in term {term!r} of path polynomial {text!r}"
            ) from None
        if sign == "-":
            c = -c
        if m.group("t"):
            k = int(m.group("pow")) if m.group("pow") else 1
        else:
            k = 0
        if k > MAX_T_DEGREE:
            raise ValueError(
                f"power t^{k} in path polynomial {text!r} exceeds the limit "
                f"t^{MAX_T_DEGREE}"
            )
        terms[k] = terms.get(k, 0) + c
    return _from_terms(PathPoly, 1, {_pack((k,)): _coeff(c) for k, c in terms.items() if c})
