"""The coprimality proof by modular images, checked against sympy.

gcd proves two operands coprime from univariate images mod 2^61-1
(poly._coprime_image) before it runs the subresultant PRS. Each edge case
below pins whether the proof is given or refused, and checks the gcd that
gcd returns either way against sympy's, so a wrong proof and a refusal that
loses the exact answer both fail here.
"""

import itertools
import random
from fractions import Fraction

import pytest

from polymf3 import Monomial, Polynomial, RationalFunction, VarContext, gcd
from polymf3.poly import _P, _coprime_image, _image_point

sympy = pytest.importorskip("sympy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from test_kernel_oracle import CTX, grlex_lc, random_poly, to_sympy  # noqa: E402

x, y, z = CTX.gens()


def assert_gcd_matches_sympy(a, b):
    expected = sympy.gcd(to_sympy(a), to_sympy(b))
    assert to_sympy(gcd(a, b)) == expected * (1 / grlex_lc(expected))


@pytest.mark.parametrize(
    "a, b, proven",
    [
        (x**2 + 1, y * z + 2, True),
        (x * y + z, x + 1, True),
        (x * y + 1, x**2 + z**2 + 3, True),
        (x * y * Fraction(1, _P) + 1, x + y, False),
        ((y - _image_point(1)) * x**2 + x + z, x**2 + y, False),
        ((x**2 + 3) * (y + z), (x**2 + 3) * (y * z - 2), False),
        (z**2 + z + 2 * x - y, z**2 + 2 * z + 2 * x - y, True),
    ],
    ids=[
        "disjoint-variables",
        "variable-in-one-operand",
        "shared-variable-proven",
        "denominator-divisible-by-p",
        "leading-coefficient-vanishes",
        "common-factor-in-one-variable",
        "coprime-off-the-plane-2x-y",
    ],
)
def test_edge_cases(a, b, proven):
    assert _coprime_image(a, b) is proven
    assert_gcd_matches_sympy(a, b)


def test_the_point_satisfies_no_small_linear_relation():
    # on a point like (c, 2c, 3c), 2*x - y vanishes, and the last edge case
    # above would be refused although its operands are coprime
    point = [_image_point(i) for i in range(4)]
    for coeffs in itertools.product(range(-3, 4), repeat=5):
        if any(coeffs):
            value = coeffs[0] + sum(c * v for c, v in zip(coeffs[1:], point))
            assert value % _P, coeffs


def test_the_prs_returns_the_factor_the_proof_refused():
    a, b = (x**2 + 3) * (y + z), (x**2 + 3) * (y * z - 2)
    assert gcd(a, b) == x**2 + 3


def test_a_proof_is_never_wrong():
    proofs = 0
    for case in range(200):
        rng = random.Random(5000 + case)
        common = random_poly(rng, max_terms=2) if case % 2 else Polynomial.one(CTX)
        a, b = common * random_poly(rng), common * random_poly(rng)
        if a.is_constant or b.is_constant:
            continue
        _, a1 = a._strip_monomial_content()
        _, b1 = b._strip_monomial_content()
        if _coprime_image(a1, b1):
            proofs += 1
            assert sympy.gcd(to_sympy(a1), to_sympy(b1)).total_degree() == 0, case
        assert_gcd_matches_sympy(a, b)
    assert proofs > 50


# a sum of three random rational functions over x, y, z: numerators and
# denominators of one to three terms, exponents up to 2, coefficients
# +-1..3 over 1..3; their canonical forms reach some 50 terms
terms = st.lists(
    st.tuples(
        st.tuples(*[st.integers(0, 2)] * 3),
        st.integers(1, 3).flatmap(lambda n: st.sampled_from([n, -n])),
        st.integers(1, 3),
    ),
    min_size=1,
    max_size=3,
)
polynomials = terms.map(
    lambda ts: Polynomial(CTX, [(Monomial(enumerate(e)), Fraction(n, d)) for e, n, d in ts])
).filter(lambda p: not p.is_zero)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(polynomials, polynomials), min_size=3, max_size=3))
def test_sums_of_rational_functions_match_sympy_cancel(parts):
    total = RationalFunction.zero(CTX)
    for num, den in parts:
        total = total + RationalFunction(num, den)
    num, den = total.numerator, total.denominator
    assert gcd(num, den).is_one
    (n1, d1), (n2, d2), (n3, d3) = [(to_sympy(n), to_sympy(d)) for n, d in parts]
    cn, cd = (n1 * d2 * d3 + n2 * d1 * d3 + n3 * d1 * d2).cancel(d1 * d2 * d3, include=True)
    n, d = to_sympy(num), to_sympy(den)
    assert n * cd == d * cn
    # both sides are reduced, so they agree up to a constant factor
    assert sympy.gcd(n, d).total_degree() == 0 and grlex_lc(d) == 1
