"""The polynomial kernel and the canonical fraction form checked against sympy.

sympy is an independent implementation: every case converts polymf3 values
to sympy polynomials over QQ term by term and compares the results exactly.
Graded-lex order is defined here as well (total degree, then exponents in
context order), so a canonical form that drifts from "gcd(num, den) = 1, den
graded-lex monic" fails even where sympy's own normalization would hide it.
"""

import random
from fractions import Fraction

import pytest

from polymf3 import Monomial, Polynomial, RationalFunction, VarContext, gcd
from polymf3.parsing import parse_polynomial

sympy = pytest.importorskip("sympy")

CTX = VarContext("x y z")
GENS = sympy.symbols("x y z")
CASES = 200


def random_poly(rng: random.Random, max_terms: int = 3, max_degree: int = 2) -> Polynomial:
    """A nonzero polynomial in x, y, z with small rational coefficients."""
    while True:
        terms = {}
        for _ in range(rng.randint(1, max_terms)):
            mono = Monomial((i, rng.randint(0, max_degree)) for i in range(3))
            terms[mono] = Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
        p = Polynomial(CTX, terms)
        if not p.is_zero:
            return p


def to_sympy(p: Polynomial):
    terms = {}
    for mono, coeff in p.terms().items():
        exps = [0, 0, 0]
        for i, e in mono.powers:
            exps[i] = e
        terms[tuple(exps)] = sympy.Rational(coeff.numerator, coeff.denominator)
    return sympy.Poly.from_dict(terms, *GENS, domain=sympy.QQ)


def grlex_lc(p):
    """Leading coefficient of a sympy Poly under graded-lex order in x > y > z."""
    return p.coeff_monomial(max(p.monoms(), key=lambda m: (sum(m), m)))


def cases(salt: int):
    for case in range(CASES):
        yield case, random.Random(1000 * salt + case)


def test_gcd_matches_sympy_up_to_a_constant():
    for case, rng in cases(1):
        common = random_poly(rng, max_terms=2)
        a, b = common * random_poly(rng), common * random_poly(rng)
        expected = sympy.gcd(to_sympy(a), to_sympy(b))
        g = gcd(a, b)
        assert to_sympy(g) == expected * (1 / grlex_lc(expected)), case
        assert g.leading_coefficient() == 1, case


def test_try_exact_div_matches_sympy_div():
    for case, rng in cases(2):
        divisor = random_poly(rng, max_terms=rng.choice([1, 2, 3]))
        dividend = random_poly(rng)
        if case % 2:
            dividend = dividend * divisor
        q_expected, r_expected = sympy.div(to_sympy(dividend), to_sympy(divisor))
        q = dividend.try_exact_div(divisor)
        if r_expected.is_zero:
            assert q is not None and to_sympy(q) == q_expected, case
        else:
            assert q is None, case


def test_canonical_form_matches_sympy_cancel():
    for case, rng in cases(3):
        common = random_poly(rng, max_terms=2)
        num, den = common * random_poly(rng), common * random_poly(rng)
        r = RationalFunction(num, den)
        n, d = to_sympy(num), to_sympy(den)
        cn, cd = n.cancel(d, include=True)
        rn, rd = to_sympy(r.numerator), to_sympy(r.denominator)
        assert rn * cd == rd * cn, case
        assert rn * d == rd * n, case
        assert sympy.gcd(rn, rd).total_degree() == 0, case
        assert grlex_lc(rd) == 1, case


def test_power_matches_repeated_multiplication():
    for case, rng in cases(4):
        r = RationalFunction(random_poly(rng, max_terms=2), random_poly(rng, max_terms=2))
        for k in range(-3, 4):
            num, den = Polynomial.one(CTX), Polynomial.one(CTX)
            for _ in range(abs(k)):
                num, den = num * r.numerator, den * r.denominator
            expected = RationalFunction(num, den) if k >= 0 else RationalFunction(den, num)
            power = r**k
            assert power.numerator == expected.numerator, (case, k)
            assert power.denominator == expected.denominator, (case, k)


def test_in_context_matches_a_fresh_build():
    for case, rng in cases(5):
        num = Polynomial.zero(CTX) if case % 10 == 0 else random_poly(rng)
        r = RationalFunction(num, random_poly(rng))
        permuted = VarContext(rng.sample(CTX.names, 3))
        moved = r.in_context(permuted)
        fresh = RationalFunction(
            parse_polynomial(str(r.numerator), permuted),
            parse_polynomial(str(r.denominator), permuted),
        )
        assert moved.context == permuted, case
        assert moved.numerator == fresh.numerator, case
        assert moved.denominator == fresh.denominator, case
