"""Width transitions of the packed monomial keys.

A polynomial packs its monomials into fields whose width depends on its total
degree alone: 8 bits up to degree 127, 16 bits up to 32767, 24 bits up to
2^23 - 1, and so on. Results that cross one of these boundaries, in either
direction, must equal a fresh construction from Monomials, which packs at
the width the result's degree asks for: same ==, same hash, same terms().
"""

import pytest

from polymf3 import Monomial, Polynomial, VarContext, gcd
from test_poly import naive_mul

CTX = VarContext("x y z")
HUGE = 99999999999999999999


def poly(*terms):
    """Polynomial over CTX from (coefficient, x-exp, y-exp, z-exp) tuples."""
    return Polynomial(CTX, {Monomial(enumerate(exps)): c for c, *exps in terms})


def assert_canonical(p, expected):
    fresh = Polynomial(expected.context, expected.terms())
    for q in (expected, fresh):
        assert p == q
        assert hash(p) == hash(q)
        assert p.terms() == q.terms()
    assert str(p) == str(fresh)


@pytest.mark.parametrize("da, db", [(127, 1), (64, 64), (100, 27), (32767, 1), (16383, 16385)])
def test_products_that_widen(da, db):
    a = poly((2, da, 0, 0), (-1, 0, 1, 0))
    b = poly((1, db, 0, 0), (3, 0, 0, 1))
    product = a * b
    assert product.total_degree() == da + db
    assert_canonical(product, poly((2, da + db, 0, 0), (6, da, 0, 1), (-1, db, 1, 0), (-3, 0, 1, 1)))
    assert product == naive_mul(a, b)


@pytest.mark.parametrize("deg", [126, 127, 128, 129, 255, 256, 32767, 32768])
def test_powers_across_the_boundaries(deg):
    x = poly((1, 1, 0, 0))
    assert_canonical(x**deg, poly((1, deg, 0, 0)))
    assert_canonical(poly((-1, 1, 1, 0)) ** deg, poly(((-1) ** deg, deg, deg, 0)))


@pytest.mark.parametrize("high, low", [(128, 127), (200, 3), (32768, 32767), (40000, 100)])
def test_quotients_that_narrow(high, low):
    single = poly((4, high, 1, 0))
    assert_canonical(single.try_exact_div(poly((2, high - low, 0, 0))), poly((2, low, 1, 0)))
    q = poly((1, low, 0, 0), (5, 0, 1, 1), (-2, 0, 0, 0))
    d = poly((3, high - low, 0, 1), (1, 0, 2, 0))
    assert_canonical((q * d).try_exact_div(d), q)
    assert_canonical((q * d).try_exact_div(q), d)
    assert (q * d + 1).try_exact_div(d) is None


def test_a_wide_divisor_never_divides_a_narrow_dividend():
    assert poly((1, 3, 0, 0)).try_exact_div(poly((1, 130, 0, 0), (1, 0, 0, 0))) is None
    assert poly((1, 3, 0, 0)).try_exact_div(poly((1, 130, 0, 0))) is None


@pytest.mark.parametrize("deg", [128, 32768, HUGE])
def test_cancelling_sums_narrow(deg):
    wide = poly((1, deg, 0, 0), (7, 0, 1, 0))
    assert_canonical(wide + poly((-1, deg, 0, 0)), poly((7, 0, 1, 0)))
    assert_canonical(wide - wide, Polynomial.zero(CTX))
    # a narrow operand is widened before the sum
    assert_canonical(wide + poly((1, 0, 1, 2)), poly((1, deg, 0, 0), (7, 0, 1, 0), (1, 0, 1, 2)))


def test_gcd_results_narrow():
    a = poly((1, 200, 1, 0), (1, 150, 0, 0))
    b = poly((1, 100, 2, 0), (3, 100, 0, 1))
    assert_canonical(gcd(a, b), poly((1, 100, 0, 0)))
    assert_canonical(gcd(poly((1, 200, 1, 0)), poly((1, 100, 2, 0))), poly((1, 100, 1, 0)))
    c = poly((1, 1, 1, 0), (-1, 0, 0, 1))
    assert_canonical(gcd(c * poly((1, 300, 0, 0)), c * poly((1, 0, 0, 40000))), c)


@pytest.mark.parametrize("deg", [127, 128, 32768, HUGE])
def test_strip_monomial_content_narrows(deg):
    p = poly((3, deg, 1, 0), (-1, deg, 0, 2))
    content, rest = p._strip_monomial_content()
    assert_canonical(content, poly((1, deg, 0, 0)))
    assert_canonical(rest, poly((3, 0, 1, 0), (-1, 0, 0, 2)))
    content, rest = (p + 1)._strip_monomial_content()
    assert_canonical(content, Polynomial.one(CTX))
    assert rest == p + 1


@pytest.mark.parametrize("deg", [5, 128, 32768, HUGE])
def test_in_context_of_a_wide_polynomial(deg):
    wide = VarContext("w z y x")
    p = poly((2, deg, 0, 1), (1, 0, 3, 0))
    moved = p.in_context(wide)
    expected = Polynomial(wide, {Monomial({3: deg, 1: 1}): 2, Monomial({2: 3}): 1})
    assert_canonical(moved, expected)
    assert moved.in_context(CTX) == p


def test_huge_exponent_arithmetic():
    x, y = poly((1, 1, 0, 0)), poly((1, 0, 1, 0))
    p = poly((1, HUGE, 1, 0))
    assert p.total_degree() == HUGE + 1
    assert str(p) == f"x^{HUGE}*y"
    assert_canonical(p * p, poly((1, 2 * HUGE, 2, 0)))
    assert_canonical(p * x + y, poly((1, HUGE + 1, 1, 0), (1, 0, 1, 0)))
    assert_canonical((p * (x + y)).try_exact_div(x + y), p)
    assert_canonical(gcd(p, x**3 * y), x**3 * y)
    assert p.degree_in(0) == HUGE and p.var_indices() == (0, 1)
    assert (p * x).leading_term() == (Monomial({0: HUGE + 1, 1: 1}), 1)
