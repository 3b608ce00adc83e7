"""Canonical rational functions and the field axioms."""

import random
from fractions import Fraction

import pytest

from polymf3 import Polynomial, RationalFunction, VarContext, parse_polynomial
from polymf3.laws import random_polynomial


def cross_mult_equal(r1, r2):
    """Independent equality oracle: a/b == c/d iff a*d == c*b."""
    return r1.numerator * r2.denominator == r2.numerator * r1.denominator


@pytest.fixture
def gens():
    return VarContext("x y z").gens()


def test_make_simple_quotient(gens):
    x, y, _ = gens
    r = RationalFunction(y, x)
    assert r.numerator == y and r.denominator == x
    assert str(r) == "y/x"


def test_make_cancels_common_factor(gens):
    x, y, _ = gens
    r = RationalFunction(x**2 + x * y, x)
    assert r == x + y
    assert cross_mult_equal(r, RationalFunction(x**2 + x * y, x))


def test_zero_normalization(gens):
    x, _, _ = gens
    r = RationalFunction(Polynomial.zero(x.context), x**3)
    assert r.is_zero
    assert r.numerator.is_zero and r.denominator.is_one
    assert str(r) == "0"


def test_zero_denominator_rejected(gens):
    x, _, _ = gens
    with pytest.raises(ZeroDivisionError):
        RationalFunction(x, Polynomial.zero(x.context))
    with pytest.raises(ZeroDivisionError):
        RationalFunction.zero(x.context).inverse()


def test_add_paper_entry(gens):
    x, y, _ = gens
    lhs = RationalFunction.from_value(x.context, x) + RationalFunction(y**2, x)
    assert lhs == RationalFunction(x**2 + y**2, x)


def test_inverse_pair(gens):
    x, y, _ = gens
    assert RationalFunction(y, x) * RationalFunction(x, y) == 1


def test_monic_denominator_normalization(gens):
    x, y, _ = gens
    r = RationalFunction(y, 2 * x)
    assert r.denominator == x
    assert r.numerator == y.scale(Fraction(1, 2))


def test_add_matches_cross_multiplication_oracle():
    ctx = VarContext("x y")
    rng = random.Random(17)
    for _ in range(50):
        a = random_polynomial(rng, ctx, 2, 2)
        b = random_polynomial(rng, ctx, 2, 2)
        c = random_polynomial(rng, ctx, 2, 2)
        d = random_polynomial(rng, ctx, 2, 2)
        total = RationalFunction(a, b) + RationalFunction(c, d)
        expected = RationalFunction(a * d + c * b, b * d)
        assert total == expected
        assert cross_mult_equal(total, expected)


def test_canonicity_under_common_factors():
    ctx = VarContext("x y")
    rng = random.Random(19)
    for _ in range(25):
        a = random_polynomial(rng, ctx, 2, 2)
        b = random_polynomial(rng, ctx, 2, 2)
        c = random_polynomial(rng, ctx, 2, 2)
        assert RationalFunction(a * c, b * c) == RationalFunction(a, b)


def test_field_axioms_randomized():
    ctx = VarContext("x y")
    rng = random.Random(31)
    for _ in range(20):
        r = RationalFunction(random_polynomial(rng, ctx, 2, 2), random_polynomial(rng, ctx, 2, 2))
        s = RationalFunction(random_polynomial(rng, ctx, 2, 2), random_polynomial(rng, ctx, 2, 2))
        t = RationalFunction(random_polynomial(rng, ctx, 2, 2), random_polynomial(rng, ctx, 2, 2))
        assert r + s == s + r
        assert (r + s) + t == r + (s + t)
        assert r * s == s * r
        assert (r * s) * t == r * (s * t)
        assert r * (s + t) == r * s + r * t
        assert r + (-r) == RationalFunction.zero(ctx)
        if not r.is_zero:
            assert r * r.inverse() == 1


def test_division_and_powers(gens):
    x, y, _ = gens
    r = y / x  # Polynomial.__truediv__ produces a RationalFunction
    assert isinstance(r, RationalFunction)
    assert r**2 == RationalFunction(y**2, x**2)
    assert r**-1 == x / y
    assert (r / r) == 1
    assert 1 / r == x / y and 2 / r == (2 * x) / y  # RationalFunction.__rtruediv__


def test_string_forms(gens):
    x, y, _ = gens
    assert str(RationalFunction(x**2 + y**2, x)) == "(x^2 + y^2)/x"
    assert str(-(y / x)) == "(-y)/x"
    assert str(RationalFunction.from_value(x.context, Fraction(5, 7))) == "5/7"


def test_in_context_keeps_canonical_form_in_wider_contexts():
    rng = random.Random(11)
    ctx = VarContext("x y z")
    kept = [VarContext("w x y z"), VarContext("x a y b z"), VarContext("x y z t")]
    reordered = [VarContext("z y x w"), VarContext("y x z"), VarContext("t z x y")]
    for _ in range(15):
        r = RationalFunction(
            random_polynomial(rng, ctx, max_terms=3, max_degree=3),
            random_polynomial(rng, ctx, max_terms=3, max_degree=3),
        )
        for new in kept + reordered:
            moved = r.in_context(new)
            fresh = RationalFunction(
                parse_polynomial(str(r.numerator), new),
                parse_polynomial(str(r.denominator), new),
            )
            assert moved.numerator == fresh.numerator
            assert moved.denominator == fresh.denominator
            if new in kept:
                assert str(moved) == str(r)
