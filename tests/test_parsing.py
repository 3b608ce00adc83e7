"""Grammar, error positions, and print/parse round trips."""

import random
from fractions import Fraction

import pytest

import polymf3.parsing
from polymf3 import (
    ParseError,
    Polynomial,
    RationalFunction,
    UnknownVariableError,
    VarContext,
    infer_context,
    parse_polynomial,
    parse_rational_function,
    parse_summands,
)
from polymf3.laws import random_polynomial


@pytest.fixture
def ctx():
    return VarContext("x y z")


def test_parse_simple_sum(ctx):
    x, y, _ = ctx.gens()
    assert parse_polynomial("x^3 + y^2", ctx) == x**3 + y**2


def test_parse_zero(ctx):
    assert parse_polynomial("0", ctx) == Polynomial.zero(ctx)


def test_parse_grouped_product(ctx):
    x, y, z = ctx.gens()
    assert parse_polynomial("x*y + (x^2 + y*z)*z", ctx) == x * y + x**2 * z + y * z**2


def test_parse_rational_literals(ctx):
    x, _, _ = ctx.gens()
    assert parse_polynomial("5/7", ctx) == Polynomial.constant(ctx, Fraction(5, 7))
    assert parse_polynomial("5/7*x + 3", ctx) == x.scale(Fraction(5, 7)) + 3
    assert parse_polynomial("-2", ctx) == Polynomial.constant(ctx, -2)


def test_unary_minus_and_precedence(ctx):
    x, y, _ = ctx.gens()
    assert parse_polynomial("-x^2 + y", ctx) == -(x**2) + y
    assert parse_polynomial("2*x^3", ctx) == 2 * x**3


def test_syntax_error_reports_position(ctx):
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + + y", ctx)
    assert err.value.pos == 4
    with pytest.raises(ParseError):
        parse_polynomial("x + (y", ctx)
    with pytest.raises(ParseError):
        parse_polynomial("2x", ctx)  # implicit multiplication is not supported
    with pytest.raises(ParseError):
        parse_polynomial("x / y", ctx)  # no division operator


@pytest.mark.parametrize(
    "text, char, pos",
    [
        ("x^\u0663", "\u0663", 2),
        ("\u00b2", "\u00b2", 0),
        ("x\u0663 + 1", "\u0663", 1),
        ("y\u00e9", "\u00e9", 1),
    ],
    ids=["arabic-indic-exponent", "superscript-two", "digit-in-identifier", "accented-letter"],
)
def test_only_ascii_digits_and_letters_are_tokens(ctx, text, char, pos):
    for context in (ctx, None):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, context)
        assert str(err.value) == f"unexpected character {char!r} (at position {pos})"


def test_unknown_variable(ctx):
    with pytest.raises(UnknownVariableError):
        parse_polynomial("x + w", ctx)


def test_inferred_context_order():
    p = parse_polynomial("y^2 + x^2")
    assert p.context.names == ("y", "x")
    assert str(p) == "y^2 + x^2"
    assert infer_context("b*a + c").names == ("b", "a", "c")


def test_round_trip_on_literals(ctx):
    for text in ("x^3 + y^2", "x^2*z + y*z^2 + x*y", "-x + 5/7", "0", "3"):
        p = parse_polynomial(text, ctx)
        assert parse_polynomial(str(p), ctx) == p
        assert str(parse_polynomial(str(p), ctx)) == str(p)


def test_round_trip_randomized(ctx):
    rng = random.Random(41)
    for _ in range(40):
        p = random_polynomial(rng, ctx, max_terms=5, max_degree=4)
        assert parse_polynomial(str(p), ctx) == p


def test_rational_function_round_trip(ctx):
    x, y, z = ctx.gens()
    cases = [
        y / x,
        RationalFunction(x**2 + y**2, x),
        RationalFunction(x * z + y * z, y),
        -(y / x),
        RationalFunction.from_value(ctx, 7),
        RationalFunction(Polynomial.constant(ctx, 5), 7 * x),
    ]
    for r in cases:
        assert parse_rational_function(str(r), ctx) == r


def test_parse_summands_keeps_product_structure(ctx):
    x, y, z = ctx.gens()
    parts = parse_summands("x*y + (x^2+y*z)*z", ctx)
    assert len(parts) == 2
    assert parts[0] == [x, y]
    assert parts[1] == [x**2 + y * z, z]
    signed = parse_summands("x*y - x*y", ctx)
    assert signed[1] == [-x, y]


def test_rational_function_is_parsed_in_one_pass(ctx, monkeypatch):
    with pytest.raises(ParseError) as err:
        parse_rational_function("x/(y+)", ctx)
    assert err.value.pos == 5 and err.value.text == "x/(y+)"
    for text, second in (("x/2/3", 3), ("1/2*x/y", 5), ("2/3/x", 3)):
        with pytest.raises(ParseError, match="more than one top-level '/'") as err:
            parse_rational_function(text, ctx)
        assert err.value.pos == second and err.value.text == text
    with pytest.raises(ParseError, match=r"^zero denominator \("):
        parse_rational_function("x/ 0", ctx)
    x, y, _ = ctx.gens()
    half_x = x.scale(Fraction(1, 2))
    # each entry is tokenized once and never handed to parse_polynomial
    tokenized = []
    real_tokenize = polymf3.parsing._tokenize

    def counting_tokenize(text):
        tokenized.append(text)
        return real_tokenize(text)

    monkeypatch.setattr(polymf3.parsing, "_tokenize", counting_tokenize)
    monkeypatch.setattr(polymf3.parsing, "parse_polynomial", None)
    assert parse_rational_function("1/2*x + 1/3", ctx) == half_x + Fraction(1, 3)
    assert parse_rational_function("(1/2*x)/y", ctx) == RationalFunction(half_x, y)
    assert tokenized == ["1/2*x + 1/3", "(1/2*x)/y"]
