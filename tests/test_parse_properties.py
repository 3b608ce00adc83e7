"""parse -> str -> parse round trips on small generated polynomials and
rational functions, powers included."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from polymf3 import (  # noqa: E402
    Monomial,
    Polynomial,
    RationalFunction,
    VarContext,
    parse_polynomial,
    parse_rational_function,
)

CTX = VarContext("x y z")

terms = st.lists(
    st.tuples(
        st.tuples(*[st.integers(0, 3)] * 3),
        st.fractions(min_value=-5, max_value=5, max_denominator=4),
    ),
    min_size=1,
    max_size=3,
)


@st.composite
def polynomials(draw):
    return Polynomial(CTX, [(Monomial(enumerate(exps)), c) for exps, c in draw(terms)])


@st.composite
def rational_functions(draw):
    den = draw(polynomials().filter(lambda p: not p.is_zero))
    return RationalFunction(draw(polynomials()), den)


# fixed draws and no example database: tier-1 stays repeatable and fast
round_trips = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@round_trips
@given(polynomials())
def test_polynomial_round_trip(p):
    parsed = parse_polynomial(str(p), CTX)
    assert parsed == p
    assert str(parsed) == str(p)


@round_trips
@given(rational_functions())
def test_rational_function_round_trip(r):
    parsed = parse_rational_function(str(r), CTX)
    assert parsed == r
    assert str(parsed) == str(r)


@round_trips
@given(polynomials(), st.integers(0, 4))
def test_parsed_power_is_the_repeated_product(p, e):
    product = Polynomial.one(CTX)
    for _ in range(e):
        product = product * p
    assert parse_polynomial(f"({p})^{e}", CTX) == product
    assert p**e == product
