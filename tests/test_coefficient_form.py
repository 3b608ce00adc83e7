"""Every stored coefficient has one canonical form: an int when it is
integral, a Fraction with a denominator above 1 otherwise, never a float."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from polymf3 import Monomial, Polynomial, RationalFunction, VarContext, gcd  # noqa: E402

CTX = VarContext("x y z")

# Fraction values, integral ones such as Fraction(2) included
coefficients = st.fractions(min_value=-4, max_value=4, max_denominator=3)
terms = st.lists(
    st.tuples(st.tuples(*[st.integers(0, 2)] * 3), coefficients), min_size=1, max_size=3
)


@st.composite
def polynomials(draw):
    return Polynomial(CTX, [(Monomial(enumerate(exps)), c) for exps, c in draw(terms)])


nonzero_polynomials = polynomials().filter(lambda p: not p.is_zero)
# fixed draws and no example database: tier-1 stays repeatable and fast
normal_form = settings(max_examples=40, deadline=None, derandomize=True, database=None)


def assert_normal(*values):
    for value in values:
        if isinstance(value, RationalFunction):
            assert_normal(value.numerator, value.denominator)
            continue
        for c in value.terms().values():
            assert type(c) is int or (type(c) is Fraction and c.denominator > 1), repr(c)


@normal_form
@given(polynomials(), polynomials(), st.integers(0, 3), coefficients)
def test_ring_operations_store_normal_coefficients(a, b, e, c):
    assert_normal(a, b, a + b, a - b, -a, a * b, a**e, a.scale(c), a.monic())


@normal_form
@given(polynomials(), nonzero_polynomials)
def test_division_and_gcd_store_normal_coefficients(a, b):
    assert_normal((a * b).try_exact_div(b), gcd(a, b))
    q = a.try_exact_div(b)
    if q is not None:
        assert_normal(q)
        assert q * b == a


@normal_form
@given(polynomials(), nonzero_polynomials, polynomials(), nonzero_polynomials)
def test_field_operations_store_normal_coefficients(a, b, c, d):
    r, s = RationalFunction(a, b), RationalFunction(c, d)
    assert_normal(r, s, r + s, r * s)
    if not r.is_zero:
        assert_normal(r.inverse())


def test_dividing_by_an_int_gives_fractions_not_floats():
    x = Polynomial.variable(CTX, "x")
    third = (x - 1).try_exact_div(Polynomial.constant(CTX, 3))
    assert third.terms() == {Monomial({0: 1}): Fraction(1, 3), Monomial(): Fraction(-1, 3)}
    assert_normal(third)
    assert_normal(RationalFunction(x - 1, Polynomial.constant(CTX, 3)))
    assert_normal((2 * x + 4).monic(), (x / 2).numerator, x.scale(0.5))


def test_integral_fraction_is_stored_as_int():
    m = Monomial({1: 2})
    p, q = Polynomial(CTX, {m: Fraction(2)}), Polynomial(CTX, {m: 2})
    assert p == q
    assert hash(p) == hash(q)
    assert type(p.terms()[m]) is int
    assert type(Polynomial.constant(CTX, Fraction(6, 3)).terms()[Monomial()]) is int
