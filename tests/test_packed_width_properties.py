"""Property tests for packed monomial keys across field-width boundaries.

Exponents are drawn next to the degrees where a polynomial's field width
changes (127/128 for 8 to 16 bits, 32767/32768 for 16 to 24 bits), so sums,
products, quotients and stripped contents keep crossing a boundary in one
direction or the other. Each result must equal a fresh construction from
its Monomials, and the arithmetic must agree with exponent-tuple oracles.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from polymf3 import Monomial, Polynomial, VarContext, gcd  # noqa: E402
from test_poly import monomial_min_gcd, naive_mul  # noqa: E402

CTX = VarContext("x y z")
EXPONENTS = st.sampled_from([0, 1, 2, 63, 64, 126, 127, 128, 129, 255, 16383, 32767, 32768])
MONOMIALS = st.tuples(EXPONENTS, EXPONENTS, EXPONENTS).map(lambda e: Monomial(enumerate(e)))
COEFFICIENTS = st.integers(-3, 3)


@st.composite
def polynomials(draw, max_terms=3):
    terms = draw(st.lists(st.tuples(MONOMIALS, COEFFICIENTS), min_size=1, max_size=max_terms))
    return Polynomial(CTX, terms)


nonzero = polynomials().filter(lambda p: not p.is_zero)
single_terms = polynomials(max_terms=1).filter(lambda p: not p.is_zero)
widths = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def assert_canonical(p):
    fresh = Polynomial(CTX, p.terms())
    assert p == fresh
    assert hash(p) == hash(fresh)
    assert p.terms() == fresh.terms()


@widths
@given(polynomials(), polynomials())
def test_products_match_the_naive_oracle(a, b):
    product = a * b
    assert_canonical(product)
    assert product == naive_mul(a, b)


@widths
@given(polynomials(), nonzero)
def test_a_product_divided_by_a_factor_gives_back_the_other(q, d):
    quotient = (q * d).try_exact_div(d)
    assert_canonical(quotient)
    assert quotient == q


@widths
@given(polynomials(), polynomials())
def test_sums_and_cancellations_stay_canonical(a, b):
    total = a + b
    assert_canonical(total)
    back = total - b
    assert_canonical(back)
    assert back == a


@widths
@given(nonzero)
def test_stripped_content_divides_every_term(p):
    content, rest = p._strip_monomial_content()
    assert_canonical(content)
    assert_canonical(rest)
    assert content * rest == p
    assert content.is_single_term and content.leading_coefficient() == 1
    # nothing more can be stripped
    again, _ = rest._strip_monomial_content()
    assert again.is_one


@widths
@given(single_terms, single_terms)
def test_monomial_gcds_are_exponent_minima(a, b):
    g = gcd(a, b)
    assert_canonical(g)
    assert g == monomial_min_gcd(a, b)
