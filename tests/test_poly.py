"""Polynomial arithmetic, graded-lex canonical forms, and gcd."""

import random
from fractions import Fraction

import pytest

from polymf3 import ContextError, Monomial, Polynomial, VarContext, gcd
from polymf3.laws import random_polynomial, random_single_term


def naive_mul(a, b):
    """Brute-force product oracle working directly on exponent tuples."""
    ctx = a.context
    n = len(ctx)
    out = {}
    for m1, c1 in a.terms().items():
        e1 = [m1.exponent(i) for i in range(n)]
        for m2, c2 in b.terms().items():
            e2 = tuple(x + m2.exponent(i) for i, x in enumerate(e1))
            out[e2] = out.get(e2, Fraction(0)) + c1 * c2
    return Polynomial(ctx, {Monomial(enumerate(e)): c for e, c in out.items()})


def monomial_min_gcd(a, b):
    """Exponent-minima oracle for single-term gcds."""
    ctx = a.context
    n = len(ctx)
    (ma, _), = a.terms().items()
    (mb, _), = b.terms().items()
    exps = {i: min(ma.exponent(i), mb.exponent(i)) for i in range(n)}
    return Polynomial(ctx, {Monomial(exps): 1})


@pytest.fixture
def ctx():
    return VarContext("x y z")


@pytest.fixture
def gens(ctx):
    return ctx.gens()


def test_add_builds_the_three_term_sum(gens):
    x, y, z = gens
    assert (x * y + x**2 * z) + y * z**2 == x * y + x**2 * z + y * z**2


def test_add_identity_and_inverse(gens):
    x, y, _ = gens
    p = 3 * x**2 - y
    assert p + Polynomial.zero(p.context) == p
    assert (x**2 - y**2) + (y**2 - x**2) == Polynomial.zero(p.context)


def test_mul_identities(gens):
    x, y, _ = gens
    assert (x**3 + y**2) * Polynomial.one(x.context) == x**3 + y**2
    assert x * x**2 == x**3


def test_mul_matches_naive_oracle(gens):
    x, y, _ = gens
    assert naive_mul(x + y, x - y) == x**2 - y**2
    assert (x + y) * (x - y) == naive_mul(x + y, x - y)


def test_mul_matches_naive_oracle_randomized(ctx):
    rng = random.Random(11)
    for _ in range(30):
        a = random_polynomial(rng, ctx, max_terms=4, max_degree=3)
        b = random_polynomial(rng, ctx, max_terms=4, max_degree=3)
        assert a * b == naive_mul(a, b)


def test_ring_axioms_randomized():
    ctx = VarContext("a b c d")
    rng = random.Random(5)
    for _ in range(25):
        p = random_polynomial(rng, ctx, max_terms=6, max_degree=4)
        q = random_polynomial(rng, ctx, max_terms=6, max_degree=4)
        r = random_polynomial(rng, ctx, max_terms=6, max_degree=4)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r


def test_context_mismatch_raises(gens):
    other = VarContext("u v")
    u, _ = other.gens()
    with pytest.raises(ContextError):
        gens[0] + u
    with pytest.raises(ContextError):
        gens[0] * u


def test_pow_and_scalar_coercion(gens):
    x, y, _ = gens
    assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
    assert 2 * x == x + x
    assert x - 1 == x + Polynomial.constant(x.context, -1)
    assert (x + y) ** 0 == 1


def test_grlex_ordering_and_leading_term(gens):
    x, y, z = gens
    h = x * y + x**2 * z + y * z**2
    mono, coeff = h.leading_term()
    assert coeff == 1
    assert mono.exponent(0) == 2 and mono.exponent(2) == 1
    assert str(h) == "x^2*z + y*z^2 + x*y"


def test_gcd_monomials_matches_minima_oracle(gens):
    x, y, _ = gens
    a, b = x**2 * y, x * y**2
    assert monomial_min_gcd(a, b) == x * y
    assert gcd(a, b) == x * y


def test_gcd_with_zero_normalizes(gens):
    x, y, _ = gens
    zero = Polynomial.zero(x.context)
    assert gcd(3 * x * y + 6 * x, zero) == x * y + 2 * x
    assert gcd(zero, zero) == zero


def test_gcd_difference_of_squares(gens):
    x, y, _ = gens
    g = gcd(x**2 - y**2, x + y)
    assert g == x + y
    # divisibility witnesses, checked by multiplication
    assert (x + y) * (x - y) == x**2 - y**2
    assert (x + y) * 1 == x + y


def test_gcd_divides_both_exactly(ctx):
    rng = random.Random(23)
    for _ in range(25):
        a = random_polynomial(rng, ctx, max_terms=3, max_degree=3)
        b = random_polynomial(rng, ctx, max_terms=3, max_degree=3)
        g = gcd(a, b)
        qa = a.try_exact_div(g)
        qb = b.try_exact_div(g)
        assert qa is not None and qa * g == a
        assert qb is not None and qb * g == b


def test_gcd_multiplicativity(ctx):
    rng = random.Random(29)
    for _ in range(20):
        a = random_polynomial(rng, ctx, max_terms=3, max_degree=2)
        b = random_polynomial(rng, ctx, max_terms=3, max_degree=2)
        c = random_polynomial(rng, ctx, max_terms=2, max_degree=2)
        assert gcd(a * c, b * c) == (c * gcd(a, b)).monic()


def test_exact_division_failure(gens):
    x, y, _ = gens
    assert (x**2 + 1).try_exact_div(y) is None
    with pytest.raises(ValueError):
        (x**2 + 1).exact_div(y)
    with pytest.raises(ZeroDivisionError):
        x.exact_div(Polynomial.zero(x.context))


def test_evaluate(gens):
    x, y, z = gens
    h = x * y + x**2 * z + y * z**2
    assert h.evaluate({"x": 1, "y": 2, "z": 3}) == 1 * 2 + 1 * 3 + 2 * 9


def test_in_context_remap(gens):
    x, y, _ = gens
    wide = VarContext("w x y z")
    p = (x + y) ** 2
    q = p.in_context(wide)
    assert q.context == wide
    assert str(q) == str(p)
    with pytest.raises(ContextError):
        p.in_context(VarContext("x"))


# -- exact division: remainder bookkeeping ------------------------------------


def test_division_leaves_the_dividend_unchanged(gens):
    x, y, z = gens
    d = x + y + 1
    good = d * (x * z - y**2 + 3)
    bad = good + z
    for dividend in (good, bad):
        before = dividend.terms()
        dividend.try_exact_div(d)
        assert dividend.terms() == before
    assert good.try_exact_div(d) == x * z - y**2 + 3
    assert bad.try_exact_div(d) is None


def test_division_when_a_remainder_monomial_cancels_and_reappears(gens):
    x, y, _ = gens
    d = -2 * x * y + 2 * x - 1
    q = x * y + 2 * y + 2
    dividend = d * q  # -2x^2y^2 + 2x^2y - 4xy^2 - xy + 4x - 2y - 2
    # quotient term x*y: its tail -x*y cancels the dividend's -x*y;
    # quotient term 2*y: its tail 4*x*y brings x*y back, to be divided last
    assert dividend.try_exact_div(d) == q
    assert (dividend + x * y).try_exact_div(d) is None


def test_division_fails_only_at_the_last_term(gens):
    x, y, z = gens
    d = x**2 + y * z + 2 * z + 1
    q = x * y - z**2 + 5
    dividend = d * q
    assert dividend.try_exact_div(d) == q
    # a constant is last in grlex order, so every quotient term of q is found
    # before the leftover constant fails to divide
    assert (dividend + Fraction(1, 7)).try_exact_div(d) is None
    assert (dividend - 5).try_exact_div(d) is None


def test_division_by_long_divisors_randomized(ctx):
    rng = random.Random(20)
    for _ in range(30):
        d = random_polynomial(rng, ctx, max_terms=8, max_degree=3)
        while len(d) < 6:
            d = d + random_polynomial(rng, ctx, max_terms=3, max_degree=3)
        q = random_polynomial(rng, ctx, max_terms=5, max_degree=3)
        dividend = d * q
        quotient = dividend.try_exact_div(d)
        assert quotient * d == dividend
        assert quotient == q
        # a nonzero single term is never a multiple of a 6-term divisor
        extra = random_single_term(rng, ctx, 4)
        assert (dividend + extra).try_exact_div(d) is None


def test_division_by_a_constant_and_of_zero(gens):
    x, y, _ = gens
    p = 3 * x**2 - x * y + Fraction(1, 2)
    assert p.try_exact_div(Polynomial.constant(x.context, Fraction(3, 4))) == p.scale(
        Fraction(4, 3)
    )
    zero = Polynomial.zero(x.context)
    assert zero.try_exact_div(x + y + 1) == zero
    assert zero.try_exact_div(2) == zero


def test_division_by_one_returns_the_dividend(gens):
    x, y, _ = gens
    p = 3 * x**2 - x * y + Fraction(1, 2)
    assert p.try_exact_div(1) is p
    assert p.try_exact_div(Polynomial.one(x.context)) is p


def test_gcd_with_a_constant_or_single_term_operand_randomized(ctx):
    """gcd(c, p) = 1, and gcd(c*m, p) is the exponent-wise minimum of m and
    every monomial of p, with coefficient 1 (wide exponents included)."""
    rng = random.Random(11)
    for case in range(300):
        p = random_polynomial(rng, ctx, max_terms=4, max_degree=3)
        single = random_single_term(rng, ctx, 3)
        if rng.random() < 0.3:
            p = p * random_single_term(rng, ctx, 200)
        if p.is_zero or single.is_zero:
            continue
        c = Polynomial.constant(ctx, Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        assert gcd(c, p).is_one and gcd(p, c).is_one, case
        exps = [single.leading_term()[0].exponent(i) for i in range(3)]
        for mono in p.terms():
            exps = [min(e, mono.exponent(i)) for i, e in enumerate(exps)]
        expected = Polynomial(ctx, {Monomial(enumerate(exps)): 1})
        for g in (gcd(single, p), gcd(p, single)):
            assert g == expected and str(g) == str(expected), case
            assert g.terms() == expected.terms() and hash(g) == hash(expected), case


def test_equal_contexts_built_apart_mix(ctx):
    x = Polynomial.variable(ctx, "x")
    same = VarContext("x y z")
    x2, y2, _ = same.gens()
    assert x == x2 and x + x2 == 2 * x
    assert gcd(x * y2 + x2, x**2) == x


def test_monomial_sums_the_exponents_of_a_repeated_index(ctx):
    repeated = Monomial([(0, 1), (0, 2)])
    assert repeated == Monomial({0: 3}) and hash(repeated) == hash(Monomial({0: 3}))
    assert repeated.degree == 3
    x = Polynomial.variable(ctx, "x")
    assert Polynomial(ctx, {repeated: 1}) - x**3 == Polynomial.zero(ctx)
