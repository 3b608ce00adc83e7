"""Canonical rational functions and the field axioms."""

import random
from fractions import Fraction

import pytest

from polymf3 import Polynomial, RationalFunction, VarContext, parse_polynomial
from polymf3.parsing import parse_rational_function
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


def _reference_side(p: Polynomial) -> str:
    """A quotient side by its terms: bare when it is one term that is a
    nonnegative integer, or one variable to a power with coefficient 1."""
    terms = list(p.terms().items())
    if len(terms) != 1:
        return f"({p})"
    ((mono, c),) = terms
    if mono.powers:
        bare = c == 1 and len(mono.powers) == 1
    else:
        bare = c >= 0 and c.denominator == 1
    return str(p) if bare else f"({p})"


def _side_shapes(ctx: VarContext) -> list[Polynomial]:
    g = ctx.gens()
    x, y = g[0], g[-1]
    sides = [
        Polynomial.constant(ctx, 7), Polynomial.constant(ctx, Fraction(2, 3)),
        Polynomial.constant(ctx, -5), x**4, 2 * x, -y, x * y, x**2 * y, x + y - 1,
        Polynomial.constant(ctx, Fraction(-5, 3)) * y**3 + 10**30,
    ]
    if len(ctx) == 14:
        # total degree 128 and above packs each of the 14 fields 16 bits wide
        whole = 1
        for v in g:
            whole = whole * v
        sides += [y**200, x**130 * y, whole**10, whole - y**300]
    return sides


@pytest.mark.parametrize("names", ["x y z", " ".join(f"a{i}" for i in range(14))])
def test_quotient_sides_are_parenthesized_by_their_terms(names):
    ctx = VarContext(names)
    sides = _side_shapes(ctx)
    for num in sides:
        for den in sides:
            r = RationalFunction(num, den)
            if r.denominator.is_one:
                expected = str(r.numerator)
            else:
                expected = f"{_reference_side(r.numerator)}/{_reference_side(r.denominator)}"
            assert str(r) == expected
            assert parse_rational_function(str(r), ctx) == r
