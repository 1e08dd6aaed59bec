"""The packed monomial keys of ``MultiPoly`` and ``PathPoly`` against an
exponent-tuple oracle, and the degree limit that keeps every key field
below its guard bit.

The oracle (``tests/_helpers.py``) adds and multiplies dictionaries keyed
by exponent tuples and orders them by (total degree, exponents); the
polynomials are read back through the ``terms`` view only.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import grlex, tuple_poly_add, tuple_poly_mul
from gmarr.exact import (
    MAX_DEGREE,
    DegreeLimitExceeded,
    MultiPoly,
    PathPoly,
    _pack,
    _unit,
    poly_exact_div,
    poly_gcd,
)

_coeffs = st.fractions(min_value=-5, max_value=5, max_denominator=4).filter(bool)


@st.composite
def _terms(draw, nvars, max_terms=6):
    """An exponent-tuple dictionary: 0..max_terms terms, exponents <= 6."""
    exps = draw(st.lists(st.tuples(*[st.integers(0, 6)] * nvars),
                         max_size=max_terms, unique=True))
    return {e: draw(_coeffs) for e in exps}


def _poly(nvars, terms):
    if nvars == 0:
        return PathPoly([terms.get((k,), 0) for k in range(7)])
    return MultiPoly(nvars, terms)


@st.composite
def _operands(draw, count, max_terms=6):
    """``count`` polynomials of one class over the same variables, each with
    its oracle dictionary: a MultiPoly in 1..4 variables or a PathPoly (drawn
    as ``nvars == 0``)."""
    nvars = draw(st.integers(0, 4))
    dicts = [draw(_terms(nvars or 1, max_terms)) for _ in range(count)]
    return [(_poly(nvars, d), d) for d in dicts]


def _order(p, terms):
    """The oracle's rendering order: graded-lex descending, or ascending
    powers of t for a path polynomial."""
    if type(p) is PathPoly:
        return sorted(terms)
    return sorted(terms, key=grlex, reverse=True)


@given(_operands(2))
@settings(max_examples=150, deadline=None)
def test_ring_operations_match_the_tuple_oracle(ops):
    (a, ta), (b, tb) = ops
    assert dict((a * b).terms) == tuple_poly_mul(ta, tb)
    assert dict((a + b).terms) == tuple_poly_add(ta, tb)
    assert dict((a - b).terms) == tuple_poly_add(ta, tb, -1)
    assert type(a * b) is type(a) and type(a - b) is type(a)


@given(_operands(2))
@settings(max_examples=150, deadline=None)
def test_exact_division_inverts_the_product(ops):
    (a, _), (b, tb) = ops
    if not b:
        return
    assert poly_exact_div(a * b, b) == a
    if any(map(any, tb)):
        # b is not constant, so it divides no a·b + c with c a nonzero
        # constant (both the monomial and the general route)
        with pytest.raises(ValueError, match="does not divide"):
            poly_exact_div(a * b + 3, b)


@given(_operands(1))
@settings(max_examples=150, deadline=None)
def test_leading_term_and_render_order_are_graded_lex(ops):
    ((p, tp),) = ops
    if not tp:
        assert p.render() == "0"
        return
    e = max(tp, key=grlex)
    assert p.leading() == (e, tp[e])
    # the sum renders as its single terms, one after another, in that order
    parts = [_poly(p.nvars if type(p) is MultiPoly else 0, {f: tp[f]}).render()
             for f in _order(p, tp)]
    expected = parts[0] + "".join(
        f" - {s[1:]}" if s.startswith("-") else f" + {s}" for s in parts[1:]
    )
    assert p.render() == expected


@given(_operands(3, max_terms=4))
@settings(max_examples=60, deadline=None)
def test_gcd_is_monic_and_divides_both_arguments(ops):
    (a, _), (b, _), (c, _) = ops
    if not c:
        return
    x, y = a * c, b * c
    g = poly_gcd(x, y)
    if not x and not y:
        assert not g
        return
    assert g.leading()[1] == 1
    for f in (x, y):
        assert poly_exact_div(f, g) * g == f
    assert poly_exact_div(g, c) * c == g


def test_a_variable_key_is_the_packed_unit_exponent():
    for nvars in (1, 2, 3, 7, 40):
        for v in {0, nvars // 2, nvars - 1}:
            e = tuple(int(i == v) for i in range(nvars))
            assert _unit(nvars, v) == _pack(e)
            assert dict(MultiPoly.variable(nvars, v + 1).terms) == {e: 1}


# ---------------------------------------------------------------------------
# the degree limit
# ---------------------------------------------------------------------------


def test_a_polynomial_at_the_degree_limit_is_accepted():
    top = MultiPoly(2, {(MAX_DEGREE - 5, 5): 3, (1, 0): 1})
    assert top.total_degree() == MAX_DEGREE
    assert dict(top.terms) == {(MAX_DEGREE - 5, 5): 3, (1, 0): 1}
    assert top.leading() == ((MAX_DEGREE - 5, 5), 3)
    l1 = MultiPoly.variable(2, 1)
    below = MultiPoly(2, {(MAX_DEGREE - 1, 0): 1})
    assert dict((below * l1).terms) == {(MAX_DEGREE, 0): 1}
    assert poly_exact_div(below * l1, l1) == below


@pytest.mark.parametrize("e", [(MAX_DEGREE + 1, 0), (MAX_DEGREE, 1), (0, MAX_DEGREE + 1)])
def test_a_constructor_over_the_degree_limit_is_refused(e):
    with pytest.raises(DegreeLimitExceeded, match=f"limit MAX_DEGREE = {MAX_DEGREE}") as exc:
        MultiPoly(2, {e: 1, (0, 0): 1})
    assert isinstance(exc.value, ValueError) and not isinstance(exc.value, OverflowError)
    assert exc.value.degree == sum(e)


def test_a_product_crossing_the_degree_limit_is_refused():
    l1, l2 = MultiPoly.variable(2, 1), MultiPoly.variable(2, 2)
    top = MultiPoly(2, {(0, MAX_DEGREE): Fraction(1, 2)})
    for a, b in ((top, l1), (l2, top), (top + 1, l1 - l2), (top * 3 - l1, top)):
        with pytest.raises(DegreeLimitExceeded, match=str(MAX_DEGREE)):
            a * b
    assert (top * 2).total_degree() == MAX_DEGREE
