"""Field axioms of RationalFunction on small generated values, with every
result checked to be in canonical form."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from polymf3 import Monomial, Polynomial, RationalFunction, VarContext, gcd  # noqa: E402

CTX = VarContext("x y z")

terms = st.lists(
    st.tuples(
        st.tuples(*[st.integers(0, 1)] * 3),
        st.fractions(min_value=-3, max_value=3, max_denominator=2),
    ),
    min_size=1,
    max_size=2,
)


@st.composite
def polynomials(draw):
    return Polynomial(CTX, [(Monomial(enumerate(exps)), c) for exps, c in draw(terms)])


@st.composite
def rational_functions(draw):
    den = draw(polynomials().filter(lambda p: not p.is_zero))
    return RationalFunction(draw(polynomials()), den)


nonzero = rational_functions().filter(lambda r: not r.is_zero)
# fixed draws and no example database: tier-1 stays repeatable and fast
axioms = settings(max_examples=25, deadline=None, derandomize=True, database=None)


def assert_canonical(r):
    num, den = r.numerator, r.denominator
    if num.is_zero:
        assert den.is_one
    else:
        assert gcd(num, den).is_one
        assert den.leading_coefficient() == Fraction(1)


@axioms
@given(rational_functions(), rational_functions(), rational_functions())
def test_associativity(a, b, c):
    for left, right in [((a + b) + c, a + (b + c)), ((a * b) * c, a * (b * c))]:
        assert_canonical(left)
        assert_canonical(right)
        assert left == right


@axioms
@given(rational_functions(), rational_functions(), rational_functions())
def test_distributivity(a, b, c):
    left, right = a * (b + c), a * b + a * c
    assert_canonical(left)
    assert_canonical(right)
    assert left == right


@axioms
@given(nonzero)
def test_inverse(a):
    inv = a.inverse()
    assert_canonical(inv)
    assert (a * inv).is_one


@axioms
@given(rational_functions(), nonzero)
def test_division_undoes_multiplication(a, b):
    product = a * b
    assert_canonical(product)
    quotient = product / b
    assert_canonical(quotient)
    assert quotient == a
