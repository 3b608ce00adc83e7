"""The certificate multiplies in its own order; its verdict and text do not show it."""

import pytest

from polymf3 import (
    MF2,
    MF3,
    CertificateError,
    RatMatrix,
    VarContext,
    first_difference,
    parse_polynomial,
    promote,
    standard_method,
    tensor3,
)


@pytest.fixture
def ctx():
    return VarContext("x y z w")


def left_to_right_error(label, components, f):
    """The CertificateError text of the plain product ((C1@C2)@C3)..."""
    product = components[0]
    for m in components[1:]:
        product = product @ m
    expected = RatMatrix.scalar(f.context, product.rows, f)
    spot = first_difference(product, expected)
    assert spot is not None
    i, j = spot
    return str(CertificateError(label, i, j, product[i, j], expected[i, j]))


def tampered(m, i, j, delta):
    rows = m.row_lists()
    rows[i][j] = rows[i][j] + delta
    return RatMatrix.from_rows(m.context, rows)


def assert_same_errors(X, deltas):
    """Tamper each entry spot of each component in turn; the constructor's
    error must read exactly as the left-to-right product's."""
    cls, label, n = type(X), "*".join(X.names), X.size
    for k in range(len(X.components)):
        for i, j in {(0, 0), (n - 1, 0), (0, n - 1), (n // 2, n // 2)}:
            for delta in deltas:
                parts = list(X.components)
                parts[k] = tampered(parts[k], i, j, delta)
                with pytest.raises(CertificateError) as err:
                    cls(*parts, X.target)
                assert str(err.value) == left_to_right_error(label, parts, X.target)


def test_promote_second_errors_match_the_left_to_right_product(ctx):
    x, y, _, _ = ctx.gens()
    X = standard_method(parse_polynomial("x*y + z*w + x^2", ctx))
    triple = promote(X, which="second", method="doolittle", pivot=True)
    assert_same_errors(triple, [x, x / (y + 1)])


def test_tensor3_errors_match_the_left_to_right_product(ctx):
    x, _, z, _ = ctx.gens()
    f = standard_method(parse_polynomial("x*y + z^2", ctx))
    g = standard_method(parse_polynomial("w*x - y", ctx))
    T = tensor3(promote(f, which="first"), promote(g, which="second", method="crout"))
    assert_same_errors(T, [z, z / x])


def test_mf2_errors_are_unchanged(ctx):
    x, y, _, w = ctx.gens()
    X = standard_method(parse_polynomial("x*y + z*w + x^2", ctx))
    assert_same_errors(MF2(X.P, X.Q, X.target), [w, y / (x - 1)])


def test_certificate_accepts_the_denominators_in_any_component(ctx):
    x, y, _, _ = ctx.gens()
    one = RatMatrix.identity(ctx, 1)
    fraction = RatMatrix.from_rows(ctx, [[x / (x + y)]])
    poly = RatMatrix.from_rows(ctx, [[y * (x + y)]])
    for parts in [(fraction, poly, one), (poly, one, fraction), (one, fraction, poly)]:
        assert MF3(*parts, x * y).size == 1
