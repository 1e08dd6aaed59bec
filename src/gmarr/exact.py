"""Exact scalar arithmetic for the whole package.

Two value families cover every scalar that appears downstream:

* ``Rational`` (= :class:`fractions.Fraction`): plain exact rationals.
* :class:`MultiPoly` and :class:`RatFunc`: sparse polynomials and reduced
  rational functions in the symbolic weight variables ``l1 .. ln``.  The
  weight of the hyperplane at infinity is never a stored variable; callers
  substitute ``-(l1 + ... + ln)`` eagerly, so the variables stay
  algebraically independent and gcd-based canonical forms are sound.

:class:`PathPoly`, the polynomials in the deformation parameter ``t`` of
one-parameter families, is the one-variable :class:`MultiPoly` in ``t``: it
shares the ring operations, and sums, products and quotients of path
polynomials stay path polynomials.  Classes must match exactly, so a path
polynomial never combines with (``TypeError``) or equals a polynomial in the
weights.  Parsed path polynomials carry powers of ``t`` up to
``MAX_T_DEGREE``.

All values are immutable.  Every constructor produces the canonical
representative (zero terms dropped, fractions reduced, rational functions
gcd-reduced with monic denominator), so ``==`` is plain representational
equality.

Operands recognised by their shape take shortcuts that return the same
canonical object as the general route: a gcd with a single-term argument is
the monic monomial of least exponents over both arguments' terms, an exact
division by a single term shifts exponents and scales coefficients, and a
product with an ``int`` or ``Fraction`` scales the coefficients.  The
subresultant gcd runs only when both arguments have two or more terms.

Monomials are ordered graded-lexicographically with ``l1 > l2 > ... > ln``;
rendering follows that order descending, e.g. ``"l1^2 + 3*l1*l2 - 1/2"``.
Rational functions render as ``"(numer)/(denom)"`` with the denominator
omitted when it is 1.  Path polynomials render ascending: ``"1 - 2*t + t^2"``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Union

Rational = Fraction

Scalarish = Union[int, Fraction, "MultiPoly", "RatFunc"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class DenominatorVanishes(ArithmeticError):
    """Raised when a rational function is evaluated at a zero of its denominator."""

    def __init__(self, denominator: "MultiPoly", point: tuple[Fraction, ...]):
        self.denominator = denominator
        self.point = point
        super().__init__(
            f"denominator {denominator} vanishes at ({', '.join(map(str, point))})"
        )


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"expected an exact rational coefficient, got {type(c).__name__}")


def _grlex(e: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    # graded-lex key: total degree first, then the exponent vector itself
    # (tuple comparison puts higher powers of earlier variables first).
    return (sum(e), e)


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


def _from_terms(cls: type, nvars: int, terms: dict[tuple[int, ...], Fraction]) -> "MultiPoly":
    """A ``cls`` (MultiPoly or PathPoly) over terms that are already canonical
    (valid exponents, nonzero Fraction coefficients), skipping the
    constructor's validation."""
    out = cls.__new__(cls)
    out.nvars, out.terms, out._hash = nvars, terms, None
    return out


class MultiPoly:
    """Sparse polynomial in ``nvars`` variables over the rationals.

    ``terms`` maps exponent tuples (length ``nvars``) to nonzero Fractions.
    Instances are treated as immutable; do not mutate ``terms``.
    """

    __slots__ = ("nvars", "terms", "_hash")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], Fraction] | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = _as_fraction(c)
                if not c:
                    continue
                if len(e) != nvars or any(k < 0 for k in e):
                    raise ValueError(f"bad exponent vector {e} for {nvars} variables")
                clean[tuple(e)] = c
        self.terms = clean
        self._hash = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "MultiPoly":
        return _from_terms(cls, nvars, {})

    @classmethod
    def const(cls, nvars: int, c) -> "MultiPoly":
        c = _as_fraction(c)
        return _from_terms(cls, nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def variable(cls, nvars: int, j: int) -> "MultiPoly":
        """The variable ``l{j}`` (1-based)."""
        if not 1 <= j <= nvars:
            raise ValueError(f"variable index {j} out of range 1..{nvars}")
        e = tuple(1 if i == j - 1 else 0 for i in range(nvars))
        return _from_terms(cls, nvars, {e: _ONE})

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0,) * self.nvars in self.terms)

    def const_value(self) -> Fraction:
        if not self.terms:
            return _ZERO
        if self.is_const():
            return self.terms[(0,) * self.nvars]
        raise ValueError(f"{self} is not constant")

    def is_one(self) -> bool:
        return self.is_const() and self.const_value() == 1

    def __bool__(self) -> bool:
        return bool(self.terms)

    def total_degree(self) -> int:
        # degree of the zero polynomial reported as -1
        return max((sum(e) for e in self.terms), default=-1)

    def leading(self) -> tuple[tuple[int, ...], Fraction]:
        """Leading (exponent, coefficient) in graded-lex order."""
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        e = max(self.terms, key=_grlex)
        return e, self.terms[e]

    # -- ring operations -------------------------------------------------

    def _check(self, other: "MultiPoly") -> None:
        if type(other) is not type(self):  # a path polynomial never meets a weight one
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.nvars != other.nvars:
            raise ValueError(f"variable count mismatch: {self.nvars} vs {other.nvars}")

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            self._check(other)
            return other
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return _from_terms(type(self), self.nvars, {(0,) * self.nvars: c} if c else {})
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        terms = dict(self.terms)
        for e, c in o.terms.items():
            s = terms.get(e, _ZERO) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return _from_terms(type(self), self.nvars, terms)

    __radd__ = __add__

    def __neg__(self):
        return _from_terms(type(self), self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # scalar: scale the coefficients, no product of term lists
            terms = {e: c * other for e, c in self.terms.items()} if other else {}
            return _from_terms(type(self), self.nvars, terms)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.terms or not o.terms:
            return _from_terms(type(self), self.nvars, {})
        # multiply the smaller term list into the larger one
        a, b = (self.terms, o.terms) if len(self.terms) <= len(o.terms) else (o.terms, self.terms)
        terms: dict[tuple[int, ...], Fraction] = {}
        for ea, ca in a.items():
            for eb, cb in b.items():
                e = tuple(x + y for x, y in zip(ea, eb))
                s = terms.get(e, _ZERO) + ca * cb
                if s:
                    terms[e] = s
                else:
                    del terms[e]
        return _from_terms(type(self), self.nvars, terms)

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
                and self.terms == other.terms
            )
        if isinstance(other, RatFunc):
            return other == self
        return NotImplemented

    def __hash__(self):
        if self._hash is None:
            if self.is_const():
                self._hash = hash(self.const_value())
            else:
                self._hash = hash((self.nvars, frozenset(self.terms.items())))
        return self._hash

    # -- evaluation and rendering ----------------------------------------

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        if len(values) != self.nvars:
            raise ValueError(f"expected {self.nvars} values, got {len(values)}")
        vals = [_as_fraction(v) for v in values]
        total = _ZERO
        for e, c in self.terms.items():
            term = c
            for v, k in zip(vals, e):
                if k:
                    term *= v**k
            total += term
        return total

    def render(self) -> str:
        ordered = sorted(self.terms, key=_grlex, reverse=True)
        def mono(e: tuple[int, ...]) -> str:
            return "*".join(
                f"l{i + 1}^{k}" if k > 1 else f"l{i + 1}"
                for i, k in enumerate(e)
                if k
            )
        return _render_terms((mono(e), self.terms[e]) for e in ordered)

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
        inv = 1 / b.const_value()
        return a * inv
    if len(b.terms) == 1:
        # monomial divisor: shift every exponent, scale every coefficient
        ((eb, cb),) = b.terms.items()
        quot = {}
        for ea, ca in a.terms.items():
            eq = tuple(x - y for x, y in zip(ea, eb))
            if min(eq) < 0:
                raise ValueError(f"({b}) does not divide ({a})")
            quot[eq] = ca / cb
        return _from_terms(type(a), a.nvars, quot)
    eb, cb = b.leading()
    rem = dict(a.terms)
    quot: dict[tuple[int, ...], Fraction] = {}
    while rem:
        er = max(rem, key=_grlex)
        eq = tuple(x - y for x, y in zip(er, eb))
        if any(k < 0 for k in eq):
            raise ValueError(f"({b}) does not divide ({a})")
        cq = rem[er] / cb
        quot[eq] = cq
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(eq, e2))
            s = rem.get(e, _ZERO) - cq * c2
            if s:
                rem[e] = s
            else:
                rem.pop(e, None)
    return _from_terms(type(a), a.nvars, quot)


def _top_variable(a: MultiPoly, b: MultiPoly) -> int | None:
    """Smallest variable index (0-based) occurring in either polynomial."""
    for i in range(a.nvars):
        if any(e[i] for e in a.terms) or any(e[i] for e in b.terms):
            return i
    return None


def _to_univar(p: MultiPoly, v: int) -> list[MultiPoly]:
    """Coefficients of p as a polynomial in variable v; index = power of v."""
    deg = max((e[v] for e in p.terms), default=0)
    buckets: list[dict[tuple[int, ...], Fraction]] = [{} for _ in range(deg + 1)]
    for e, c in p.terms.items():
        stripped = tuple(0 if i == v else k for i, k in enumerate(e))
        buckets[e[v]][stripped] = c
    return [_from_terms(type(p), p.nvars, b) for b in buckets]


def _from_univar(coeffs: Sequence[MultiPoly], v: int, nvars: int) -> MultiPoly:
    terms: dict[tuple[int, ...], Fraction] = {}
    for k, c in enumerate(coeffs):
        for e, q in c.terms.items():
            e2 = tuple(ei + k if i == v else ei for i, ei in enumerate(e))
            terms[e2] = q
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
    if not f or len(f) - 1 < dg:
        return f
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
        return p * (1 / lc)
    if len(a.terms) == 1 or len(b.terms) == 1:
        # a monomial's divisors are monomials: take the least exponent of
        # each variable over every term of both arguments (a nonzero
        # constant is the monomial of exponent zero, so its gcd is 1)
        e = tuple(map(min, *a.terms, *b.terms))
        return _from_terms(type(a), a.nvars, {e: _ONE})

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
    return result * (1 / lc)


# --------------------------------------------------------------------------
# rational functions
# --------------------------------------------------------------------------


class RatFunc:
    """Reduced rational function: gcd(num, den) = 1, den monic in graded-lex."""

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
        elif den.is_const():
            num = num * (1 / den.const_value())
            den = MultiPoly.const(num.nvars, 1)
        else:
            g = poly_gcd(num, den)
            if not g.is_one():
                num = poly_exact_div(num, g)
                den = poly_exact_div(den, g)
            _, lc = den.leading()
            if lc != 1:
                inv = 1 / lc
                num, den = num * inv, den * inv
        self.num = num
        self.den = den

    # -- helpers -----------------------------------------------------------

    @classmethod
    def const(cls, nvars: int, c) -> "RatFunc":
        return cls(MultiPoly.const(nvars, c))

    @classmethod
    def variable(cls, nvars: int, j: int) -> "RatFunc":
        return cls(MultiPoly.variable(nvars, j))

    def _coerce(self, other) -> "RatFunc | None":
        if isinstance(other, RatFunc):
            if other.num.nvars != self.num.nvars:
                raise ValueError("variable count mismatch")
            return other
        if isinstance(other, MultiPoly):
            return RatFunc(other)
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(self.num.nvars, other)
        return None

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return self.den.is_one()

    def __bool__(self) -> bool:
        return not self.num.is_zero()

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den.terms == o.den.terms:
            return RatFunc(self.num + o.num, self.den)
        return RatFunc(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        out = RatFunc.__new__(RatFunc)
        out.num, out.den = -self.num, self.den
        return out

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatFunc(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

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


def ratfunc_normalize(num: MultiPoly, den: MultiPoly) -> RatFunc:
    """Canonical rational function num/den (reduced, monic denominator)."""
    return RatFunc(num, den)


def evaluate(f: Scalarish, values: Sequence[Fraction]) -> Fraction:
    """Evaluate a scalar (Rational, MultiPoly or RatFunc) at concrete weights."""
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
        size = max((k for (k,) in self.terms), default=-1) + 1
        return tuple(self.terms.get((i,), _ZERO) for i in range(size))

    def evaluate(self, t) -> Fraction:
        return super().evaluate((t,))

    def ord_t(self) -> int | None:
        """Lowest power of t with a nonzero coefficient; None for zero."""
        return min((k for (k,) in self.terms), default=None)

    def render(self) -> str:
        def mono(i: int) -> str:
            if i == 0:
                return ""
            return "t" if i == 1 else f"t^{i}"
        return _render_terms((mono(k), self.terms[(k,)]) for (k,) in sorted(self.terms))

    __str__ = render


def ord_t(p: PathPoly) -> int | None:
    """Order of vanishing at t = 0; None when p is identically zero."""
    return p.ord_t()


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
    if len(chunks) % 2 != 0:
        raise ValueError(f"malformed path polynomial {text!r}")
    terms: dict[tuple[int], Fraction] = {}
    for sign, term in zip(chunks[::2], chunks[1::2]):
        m = _PATH_TERM_RE.match(term.replace(" ", ""))
        if not m or (m.group("coeff") is None and m.group("t") is None):
            raise ValueError(f"malformed term {term!r} in path polynomial {text!r}")
        try:
            c = Fraction(m.group("coeff")) if m.group("coeff") else _ONE
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
        terms[(k,)] = terms.get((k,), _ZERO) + c
    return _from_terms(PathPoly, 1, {e: c for e, c in terms.items() if c})
