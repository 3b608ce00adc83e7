"""parse -> str -> parse round trips on small generated polynomials and
rational functions, powers included, and the stored-entry reader checked
against the general grammar."""

from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from polymf3 import (  # noqa: E402
    Monomial,
    Polynomial,
    PolymfError,
    RationalFunction,
    VarContext,
    parse_polynomial,
    parse_rational_function,
)
from polymf3 import parsing  # noqa: E402
from polymf3.parsing import read_polynomial, read_rational_function  # noqa: E402

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


# -- the stored-text readers against the general grammar -------------------------


def outcome(read, text):
    """read(text, CTX)'s value, or its error's type, message and position."""
    try:
        return read(text, CTX)
    except (PolymfError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "pos", None)


@round_trips
@given(rational_functions())
def test_the_readers_take_written_text_without_the_general_grammar(r):
    with mock.patch.object(parsing, "parse_rational_function", side_effect=AssertionError):
        assert read_rational_function(str(r), CTX) == r
    with mock.patch.object(parsing, "parse_polynomial", side_effect=AssertionError):
        assert read_polynomial(str(r.numerator), CTX) == r.numerator


# each turns a written entry into text outside the writer's grammar, or into
# text in it that the general grammar refuses or bounds
PERTURBATIONS = {
    "no spaces": lambda t, r: t.replace(" ", ""),
    "double spaces": lambda t, r: t.replace(" + ", "  + ").replace(" - ", " -  "),
    "leading space": lambda t, r: f" {t}",
    "parenthesized": lambda t, r: f"({t})",
    "parenthesized variable": lambda t, r: t.replace("x", "(x)", 1),
    "one times": lambda t, r: t.replace("x", "1*x", 1),
    "repeated variable": lambda t, r: t.replace("y", "y*y", 1),
    "zeroth power": lambda t, r: t.replace("z", "z^0", 1),
    "unknown name": lambda t, r: t.replace("y", "w", 1),
    "zero denominator": lambda t, r: f"({r.numerator})/0",
    "zero side": lambda t, r: f"({r.numerator})/(x - x)",
    "zero literal denominator": lambda t, r: f"{r.numerator} + 3/0*x",
    "two slashes": lambda t, r: f"1/2/3*{t}",
    "non-ASCII digit": lambda t, r: f"٣*{t}".replace("2", "٢"),
    "superscript": lambda t, r: t.replace("^2", "²"),
    "5000 digits": lambda t, r: f"{'7' * 5000}*x - {r.numerator}",
    "5000-digit exponent": lambda t, r: f"x^{'1' * 5000}",
}


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(rational_functions(), st.sampled_from(sorted(PERTURBATIONS)))
def test_the_readers_read_any_other_text_as_the_general_grammar(r, name):
    text = PERTURBATIONS[name](str(r), r)
    assert outcome(read_rational_function, text) == outcome(parse_rational_function, text)
    assert outcome(read_polynomial, text) == outcome(parse_polynomial, text)
