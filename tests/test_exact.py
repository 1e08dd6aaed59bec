import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmarr.exact import (
    MAX_T_DEGREE,
    DenominatorVanishes,
    MultiPoly,
    PathPoly,
    RatFunc,
    evaluate,
    parse_path_poly,
    parse_rational,
    poly_exact_div,
    poly_gcd,
)


def L(nvars, j):
    return MultiPoly.variable(nvars, j)


# ---------------------------------------------------------------------------
# polynomial ring basics
# ---------------------------------------------------------------------------


def test_add_cancellation():
    l1, l2 = L(2, 1), L(2, 2)
    assert (l1 + l2) + (-l2) == l1


def test_difference_of_squares():
    l1, l2 = L(2, 1), L(2, 2)
    assert (l1 + l2) * (l1 - l2) == l1 * l1 - l2 * l2


def test_zero_annihilates():
    l3 = L(3, 3)
    z = MultiPoly.zero(3) * l3
    assert z.is_zero()
    assert z.terms == {}


def test_variable_count_mismatch_rejected():
    with pytest.raises(ValueError):
        L(2, 1) + L(3, 1)


def test_render_grammar():
    l1, l2, l3 = L(3, 1), L(3, 2), L(3, 3)
    assert str(l1 + l2) == "l1 + l2"
    assert str(-l1 - l2) == "-l1 - l2"
    assert str(l1 * l1 - Fraction(1, 2)) == "l1^2 - 1/2"
    assert str(2 * l1 * l2 + l3) == "2*l1*l2 + l3"
    assert str(MultiPoly.zero(3)) == "0"
    assert str(MultiPoly.const(3, Fraction(-7, 3))) == "-7/3"


# ---------------------------------------------------------------------------
# gcd
# ---------------------------------------------------------------------------


def test_gcd_difference_of_squares():
    l1, l2 = L(2, 1), L(2, 2)
    assert poly_gcd(l1 * l1 - l2 * l2, l1 + l2) == l1 + l2


def test_gcd_with_zero_is_monic_normalization():
    l1, l2 = L(2, 1), L(2, 2)
    p = 3 * l1 + 6 * l2
    assert poly_gcd(p, MultiPoly.zero(2)) == l1 + 2 * l2
    assert poly_gcd(MultiPoly.zero(2), p) == l1 + 2 * l2


def test_gcd_disjoint_variables():
    l1, l2, l3 = L(3, 1), L(3, 2), L(3, 3)
    assert poly_gcd(l1 * l2, l3) == MultiPoly.const(3, 1)


def test_gcd_shared_quadratic_factor():
    l1, l2, l3 = L(3, 1), L(3, 2), L(3, 3)
    common = (l1 + l2) * (l1 - l3)
    g = poly_gcd(common * (l2 + 2), common * l3)
    assert g == common  # already monic: leading term l1^2
    # and the gcd divides both inputs exactly
    poly_exact_div(common * (l2 + 2), g)
    poly_exact_div(common * l3, g)


# ---------------------------------------------------------------------------
# rational functions
# ---------------------------------------------------------------------------


def test_normalize_cancels_common_factor():
    l1, l2, l3 = L(3, 1), L(3, 2), L(3, 3)
    f = RatFunc(l2 * l2 + l2 * l3, l2 * l1 + l2 * l2 + l2 * l3)
    assert f.num == l2 + l3
    assert f.den == l1 + l2 + l3
    assert str(f) == "(l2 + l3)/(l1 + l2 + l3)"


def test_normalize_already_canonical():
    l1, l2, l3 = L(3, 1), L(3, 2), L(3, 3)
    f = RatFunc(-l3, l1 + l2 + l3)
    assert str(f) == "(-l3)/(l1 + l2 + l3)"


def test_normalize_zero_numerator():
    l1 = L(3, 1)
    f = RatFunc(MultiPoly.zero(3), l1)
    assert not f and f.num.is_zero()
    assert f.den.is_one()


def test_polynomial_over_a_constant_is_the_polynomial():
    # a constant denominator takes the general route: gcd 1, then the
    # scaling by its leading coefficient leaves the denominator 1
    p = L(2, 1) * L(2, 1) - Fraction(1, 2) * L(2, 2)
    for c in (1, Fraction(-2, 3)):
        f = RatFunc(p * c, MultiPoly.const(2, c))
        assert f.num == p and f.den.is_one() and f == p
    assert hash(RatFunc(p)) == hash(p)


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDivisionError):
        RatFunc(L(2, 1), MultiPoly.zero(2))


def test_evaluate_projection_entry():
    l1, l2, l3 = L(3, 1), L(3, 2), L(3, 3)
    f = RatFunc(-l3, l1 + l2 + l3)
    w = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
    assert evaluate(f, w) == Fraction(-6, 31)


def test_evaluate_constant():
    assert evaluate(RatFunc(MultiPoly.const(4, 7)), (0, 0, 0, 0)) == 7
    assert evaluate(Fraction(7), ()) == 7


def test_evaluate_denominator_vanishes():
    l1, l2 = L(2, 1), L(2, 2)
    f = RatFunc(MultiPoly.const(2, 1), l1 + l2)
    with pytest.raises(DenominatorVanishes) as exc:
        f.evaluate((Fraction(1), Fraction(-1)))
    assert exc.value.denominator == l1 + l2


# ---------------------------------------------------------------------------
# path polynomials
# ---------------------------------------------------------------------------


def test_ord_t_examples():
    p = PathPoly((0, 0, 3, 1))  # 3t^2 + t^3
    assert p.ord_t() == 2
    assert PathPoly.const(5).ord_t() == 0
    assert PathPoly().ord_t() is None


def test_path_poly_render_and_parse_round_trip():
    p = PathPoly((1, -2, 1))
    assert str(p) == "1 - 2*t + t^2"
    assert parse_path_poly("1 - 2*t + t^2") == p
    assert parse_path_poly("-t") == PathPoly((0, -1))
    assert parse_path_poly("3/4") == PathPoly.const(Fraction(3, 4))
    assert parse_path_poly("t^3") == PathPoly((0, 0, 0, 1))
    assert parse_path_poly("0") == PathPoly()


def test_path_poly_parse_rejects_garbage():
    for bad in ("", "t^", "2**t", "l1", "1 + + t", "t2"):
        with pytest.raises(ValueError):
            parse_path_poly(bad)


def test_path_poly_evaluate():
    p = parse_path_poly("1 - 2*t + t^2")
    assert p.evaluate(Fraction(1, 2)) == Fraction(1, 4)
    assert p.evaluate(1) == 0


def test_path_poly_degree_limit():
    top = parse_path_poly(f"1 - t^{MAX_T_DEGREE}")
    assert top.coeffs[-1] == -1 and len(top.coeffs) == MAX_T_DEGREE + 1
    assert top.evaluate(2) == 1 - 2**MAX_T_DEGREE
    with pytest.raises(ValueError, match=f"exceeds the limit t\\^{MAX_T_DEGREE}"):
        parse_path_poly(f"t^{MAX_T_DEGREE + 1}")
    start = time.perf_counter()
    with pytest.raises(ValueError, match="t\\^99999999"):
        parse_path_poly("1 - t^99999999")
    assert time.perf_counter() - start < 1.0


def test_path_poly_operations_stay_path_polys():
    p, q = parse_path_poly("1 - t"), parse_path_poly("2*t + t^3")
    for r in (p + q, p - q, -p, p * q, 3 * p, p + 1, 1 - p, p**2, poly_exact_div(p * q, q)):
        assert type(r) is PathPoly
    assert poly_exact_div(p * q, q) == p
    g = poly_gcd(p * q, p * (q + 1))
    assert type(g) is PathPoly and g == parse_path_poly("-1 + t")
    assert str(p * q) == "2*t - 2*t^2 + t^3 - t^4"
    assert repr(p) == "PathPoly('1 - t')"
    assert (p * q).coeffs == (0, 2, -2, 1, -1)


def test_path_and_weight_polys_do_not_mix():
    t = parse_path_poly("t")
    l1 = MultiPoly.variable(1, 1)
    for op in (
        lambda a, b: a + b,
        lambda a, b: a - b,
        lambda a, b: a * b,
    ):
        for a, b in ((t, l1), (l1, t)):
            with pytest.raises(TypeError):
                op(a, b)
    with pytest.raises(TypeError):
        RatFunc(t)
    assert t != l1 and l1 != t
    assert RatFunc(l1) != t
    assert PathPoly.const(2) != MultiPoly.const(1, 2)
    assert PathPoly.const(2) == 2 and hash(PathPoly.const(2)) == hash(2)


def test_parse_rational():
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational(" 7 ") == 7
    for bad in ("", "0.5", "1/", "--3", "a"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_zero_denominator_is_value_error():
    with pytest.raises(ValueError, match="zero denominator"):
        parse_rational("1/0")
    with pytest.raises(ValueError, match="zero denominator"):
        parse_path_poly("1 - 3/0*t")


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

_coeffs = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3
)


@st.composite
def polys(draw, nvars=3, max_terms=4, max_pow=2):
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {}
    for _ in range(n):
        e = tuple(
            draw(st.integers(min_value=0, max_value=max_pow)) for _ in range(nvars)
        )
        terms[e] = draw(_coeffs)
    return MultiPoly(nvars, terms)


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_distributivity(a, b, c):
    assert (a + b) * c == a * c + b * c


@given(polys(), polys(), polys())
@settings(max_examples=60, deadline=None)
def test_associativity(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert (a + b) + c == a + (b + c)


@given(polys(), polys())
@settings(max_examples=40, deadline=None)
def test_gcd_divides_both(a, b):
    g = poly_gcd(a, b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    assert g.leading()[1] == 1
    poly_exact_div(a, g)
    poly_exact_div(b, g)


@given(polys(max_terms=3, max_pow=1), polys(max_terms=3, max_pow=1), polys(max_terms=2, max_pow=1))
@settings(max_examples=30, deadline=None)
def test_normalize_scale_invariance(p, q, r):
    if q.is_zero() or r.is_zero():
        return
    assert RatFunc(p * r, q * r) == RatFunc(p, q)


@given(polys(max_terms=3), polys(max_terms=3))
@settings(max_examples=40, deadline=None)
def test_normalize_idempotent(p, q):
    if q.is_zero():
        return
    f = RatFunc(p, q)
    assert RatFunc(f.num, f.den) == f


@given(polys(max_terms=3), polys(max_terms=3),
       st.tuples(_coeffs, _coeffs, _coeffs))
@settings(max_examples=40, deadline=None)
def test_evaluate_is_ring_homomorphism(p, q, w):
    assert evaluate(p * q, w) == evaluate(p, w) * evaluate(q, w)
    assert evaluate(p + q, w) == evaluate(p, w) + evaluate(q, w)


@st.composite
def path_polys(draw, max_deg=4):
    coeffs = draw(st.lists(_coeffs, min_size=0, max_size=max_deg + 1))
    return PathPoly(coeffs)


@given(path_polys(), path_polys())
@settings(max_examples=60, deadline=None)
def test_ord_t_additive(p, q):
    if p.is_zero() or q.is_zero():
        assert (p * q).ord_t() is None
    else:
        assert (p * q).ord_t() == p.ord_t() + q.ord_t()


@given(path_polys(), path_polys(), _coeffs)
@settings(max_examples=60, deadline=None)
def test_path_poly_evaluate_is_ring_homomorphism(p, q, t):
    assert (p * q).evaluate(t) == p.evaluate(t) * q.evaluate(t)
    assert (p - q).evaluate(t) == p.evaluate(t) - q.evaluate(t)


@given(path_polys())
@settings(max_examples=60, deadline=None)
def test_path_poly_text_round_trip(p):
    assert parse_path_poly(str(p)) == p


# ---------------------------------------------------------------------------
# single-term and scalar cases
# ---------------------------------------------------------------------------


@st.composite
def monomials(draw, nvars=3, max_pow=2):
    e = tuple(draw(st.integers(min_value=0, max_value=max_pow)) for _ in range(nvars))
    return MultiPoly(nvars, {e: draw(_coeffs.filter(bool))})


def _divides(d, p):
    """Whether d divides p, with the quotient checked by the general product."""
    try:
        q = poly_exact_div(p, d)
    except ValueError:
        return False
    assert q * d == p
    return True


@given(monomials(), polys())
@settings(max_examples=80, deadline=None)
def test_gcd_single_term_is_greatest_monic_common_divisor(m, f):
    g = poly_gcd(m, f)
    assert g == poly_gcd(f, m)
    assert g.leading()[1] == 1
    assert _divides(g, m) and _divides(g, f)
    # divisors of a monomial are monomials, so no l_i * g dividing both
    # means no common divisor strictly above g
    for i in range(1, m.nvars + 1):
        h = L(m.nvars, i) * g
        assert not (_divides(h, m) and _divides(h, f))


def test_gcd_single_term_examples():
    l1, l2, l3 = L(3, 1), L(3, 2), L(3, 3)
    assert poly_gcd(6 * l1 * l1 * l2, 4 * l1 * l2 * l2 + 2 * l1 * l3) == l1
    assert poly_gcd(l2 * l3, l1 * l1 + l1) == 1
    assert poly_gcd(-3 * l1 * l2, 5 * l1 * l2) == l1 * l2


@given(monomials(), polys())
@settings(max_examples=80, deadline=None)
def test_exact_div_single_term_round_trip(m, q):
    assert poly_exact_div(m * q, m) == q


@given(monomials(), polys(), _coeffs.filter(bool))
@settings(max_examples=40, deadline=None)
def test_exact_div_single_term_non_multiple_raises(m, q, c):
    if m.is_const():
        return
    # m * q has no constant term, so m cannot divide m * q + c
    with pytest.raises(ValueError, match="does not divide"):
        poly_exact_div(m * q + c, m)


def test_exact_div_single_term_message():
    l1, l2 = L(2, 1), L(2, 2)
    with pytest.raises(ValueError) as info:
        poly_exact_div(l1 * l2 + l2, 2 * l1)
    assert str(info.value) == "(2*l1) does not divide (l1*l2 + l2)"


@given(polys(), st.one_of(st.integers(min_value=-5, max_value=5), _coeffs))
@settings(max_examples=80, deadline=None)
def test_scalar_product_matches_constant_polynomial(p, c):
    expected = p * MultiPoly.const(p.nvars, c)
    for got in (p * c, c * p):
        assert got == expected
        assert all(got.terms.values())
    zero = p * 0
    assert zero.is_zero() and zero.terms == {}


def test_constructor_validates_outside_terms():
    with pytest.raises(ValueError):
        MultiPoly(2, {(1, -1): 1})
    with pytest.raises(ValueError):
        MultiPoly(2, {(1,): 1})
    assert MultiPoly(2, {(0, 0): 0}).terms == {}
    assert MultiPoly.const(2, 0).terms == {}
    assert MultiPoly.const(2, 3) == MultiPoly(2, {(0, 0): 3})


# ---------------------------------------------------------------------------
# stored coefficients: an int when integral, otherwise a Fraction
# ---------------------------------------------------------------------------

_int_coeffs = st.integers(min_value=-6, max_value=6)


@st.composite
def int_polys(draw, nvars=3, max_terms=4, max_pow=2):
    """A MultiPoly, or with nvars=1 a PathPoly, with integer coefficients."""
    n = draw(st.integers(min_value=0, max_value=max_terms))
    terms = {
        tuple(draw(st.integers(min_value=0, max_value=max_pow)) for _ in range(nvars)):
        draw(_int_coeffs)
        for _ in range(n)
    }
    if nvars == 1:
        return PathPoly([terms.get((i,), 0) for i in range(max_pow + 1)])
    return MultiPoly(nvars, terms)


def _all_int(p):
    return all(type(c) is int for c in p.terms.values())


def _stored_canonically(p):
    # no float, and no Fraction with denominator 1
    return all(
        type(c) is int or (type(c) is Fraction and c.denominator != 1)
        for c in p.terms.values()
    )


_int_pairs = st.one_of(
    st.tuples(int_polys(), int_polys()),
    st.tuples(int_polys(nvars=1, max_pow=4), int_polys(nvars=1, max_pow=4)),
)


@given(_int_pairs)
@settings(max_examples=80, deadline=None)
def test_integer_coefficients_stay_ints(pq):
    p, q = pq
    for r in (p + q, p - q, p * q, -p, 3 * p, p + 2, p - 1):
        assert _all_int(r), r
    if q:
        quot = poly_exact_div(p * q, q)
        assert quot == p and _all_int(quot)


@given(st.one_of(st.tuples(polys(), polys()), st.tuples(path_polys(), path_polys())),
       _coeffs)
@settings(max_examples=80, deadline=None)
def test_no_operation_stores_a_float_or_an_integral_fraction(pq, c):
    p, q = pq
    results = [p + q, p - q, p * q, -p, p * c, c * p, p + c, p**2]
    if q:
        results += [poly_exact_div(p * q, q), poly_gcd(p, q)]
    if q and type(p) is MultiPoly:
        f = RatFunc(p, q)
        results += [f.num, f.den, RatFunc(p * p, q * q).num, RatFunc(p + q, q).num,
                    RatFunc(p - q * c, q).den, RatFunc(p * c).num]
    for r in results:
        assert _stored_canonically(r), r


@given(st.dictionaries(
    st.tuples(*[st.integers(min_value=0, max_value=2)] * 3), _int_coeffs, max_size=4
))
@settings(max_examples=40, deadline=None)
def test_integral_fraction_input_is_stored_as_int(terms):
    p = MultiPoly(3, {e: Fraction(2 * c, 2) for e, c in terms.items()})
    assert _all_int(p) and p == MultiPoly(3, terms)
    coeffs = [Fraction(3 * c, 3) for c in terms.values()]
    assert _all_int(PathPoly(coeffs)) and PathPoly(coeffs) == PathPoly(list(terms.values()))


def test_integral_fraction_input_is_stored_as_int_examples():
    assert type(MultiPoly.const(2, Fraction(4, 2)).terms[(0, 0)]) is int
    assert type((L(2, 1) + Fraction(6, 3)).terms[(0, 0)]) is int
    assert type((L(2, 1) * Fraction(1, 2) * 2).terms[(1, 0)]) is int
    assert _all_int(parse_path_poly("4/2 - 6/3*t + t^2"))
    assert _all_int(RatFunc(2 * L(2, 1), MultiPoly.const(2, 2)).num)


@given(st.one_of(int_polys(), int_polys(nvars=1, max_pow=4)),
       st.integers(min_value=2, max_value=9))
@settings(max_examples=60, deadline=None)
def test_non_integral_quotient_is_a_fraction(p, d):
    x = PathPoly([0, 1]) if type(p) is PathPoly else L(p.nvars, 1)
    one = x**0
    divisors = (one * d, x * d, (x + 1) * d)
    for divisor, dividend in zip(divisors, (p, p * x, p * (x + 1))):
        q = poly_exact_div(dividend, divisor)
        assert q * divisor == dividend
        for e, c in q.terms.items():
            assert c == Fraction(p.terms[e], d)
            assert type(c) is (int if p.terms[e] % d == 0 else Fraction)
