"""Exact matrices: products, Kronecker, direct sums, perfect shuffles."""

import random

import pytest

from polymf3 import (
    DimensionError,
    PermutationMatrix,
    RatMatrix,
    RationalFunction,
    VarContext,
    perfect_shuffle,
)
from polymf3.laws import random_polynomial
from polymf3.matrix import first_difference


def naive_matmul(a, b):
    """Independent triple-loop multiplication oracle."""
    ctx = a.context
    entries = []
    for i in range(a.rows):
        for j in range(b.cols):
            total = RationalFunction.zero(ctx)
            for k in range(a.cols):
                total = total + a[i, k] * b[k, j]
            entries.append(total)
    return RatMatrix(ctx, a.rows, b.cols, entries)


def random_matrix(rng, ctx, rows, cols):
    return RatMatrix.from_rows(
        ctx,
        [
            [random_polynomial(rng, ctx, 2, 2) for _ in range(cols)]
            for _ in range(rows)
        ],
    )


@pytest.fixture
def ctx():
    return VarContext("x y z")


@pytest.fixture
def gens(ctx):
    return ctx.gens()


def test_product_of_rotation_pair(ctx, gens):
    x, y, _ = gens
    a = RatMatrix.from_rows(ctx, [[x, -y], [y, x]])
    b = RatMatrix.from_rows(ctx, [[x, y], [-y, x]])
    assert a @ b == RatMatrix.scalar(ctx, 2, x**2 + y**2)


def test_identity_and_dimension_error(ctx, gens):
    rng = random.Random(3)
    a = random_matrix(rng, ctx, 2, 3)
    assert a @ RatMatrix.identity(ctx, 3) == a
    with pytest.raises(DimensionError):
        a @ a


def test_matmul_matches_naive_oracle(ctx):
    rng = random.Random(13)
    for _ in range(10):
        a = random_matrix(rng, ctx, 3, 3)
        b = random_matrix(rng, ctx, 3, 3)
        assert a @ b == naive_matmul(a, b)


def test_matmul_associative(ctx):
    rng = random.Random(37)
    a = random_matrix(rng, ctx, 2, 3)
    b = random_matrix(rng, ctx, 3, 2)
    c = random_matrix(rng, ctx, 2, 2)
    assert (a @ b) @ c == a @ (b @ c)


def test_kron_of_unitriangular_factors(ctx, gens):
    x, y, _ = gens
    a = RatMatrix.from_rows(ctx, [[1, 0], [y / x, 1]])
    b = RatMatrix.from_rows(ctx, [[1, 0], [x / y, 1]])
    expected = RatMatrix.from_rows(
        ctx,
        [
            [1, 0, 0, 0],
            [x / y, 1, 0, 0],
            [y / x, 0, 1, 0],
            [1, y / x, x / y, 1],
        ],
    )
    assert a.kron(b) == expected


def test_kron_identities(ctx):
    assert RatMatrix.identity(ctx, 2).kron(RatMatrix.identity(ctx, 3)) == RatMatrix.identity(ctx, 6)


def test_kron_mixed_product(ctx):
    rng = random.Random(43)
    for _ in range(5):
        a = random_matrix(rng, ctx, 2, 2)
        b = random_matrix(rng, ctx, 2, 2)
        c = random_matrix(rng, ctx, 2, 2)
        d = random_matrix(rng, ctx, 2, 2)
        assert a.kron(b) @ c.kron(d) == (a @ c).kron(b @ d)


def test_kron_associative(ctx):
    rng = random.Random(47)
    a = random_matrix(rng, ctx, 2, 2)
    b = random_matrix(rng, ctx, 2, 1)
    c = random_matrix(rng, ctx, 1, 2)
    assert a.kron(b).kron(c) == a.kron(b.kron(c))


def test_direct_sum_blocks(ctx, gens):
    x, y, _ = gens
    rng = random.Random(53)
    a = random_matrix(rng, ctx, 2, 2)
    b = random_matrix(rng, ctx, 3, 3)
    s = a.direct_sum(b)
    assert s.shape == (5, 5)
    zero = RationalFunction.zero(ctx)
    assert all(s[i, j] == zero for i in range(2) for j in range(2, 5))
    assert all(s[i, j] == zero for i in range(2, 5) for j in range(2))
    # 1x1 case
    d = RatMatrix.from_rows(ctx, [[x]]).direct_sum(RatMatrix.from_rows(ctx, [[y]]))
    assert d == RatMatrix.from_rows(ctx, [[x, 0], [0, y]])


def test_direct_sum_multiplicative(ctx):
    rng = random.Random(59)
    a = random_matrix(rng, ctx, 2, 2)
    b = random_matrix(rng, ctx, 3, 3)
    c = random_matrix(rng, ctx, 2, 2)
    d = random_matrix(rng, ctx, 3, 3)
    assert a.direct_sum(b) @ c.direct_sum(d) == (a @ c).direct_sum(b @ d)


def shuffle_from_sum_formula(ctx, m, n):
    """Evaluate sum_i (e_i^T kron I_n kron e_i) directly."""
    total = RatMatrix.zeros(ctx, m * n, m * n)
    eye = RatMatrix.identity(ctx, n)
    for i in range(m):
        row = RatMatrix.from_rows(ctx, [[1 if j == i else 0 for j in range(m)]])
        col = row.transpose()
        total = total + row.kron(eye).kron(col)
    return total


def test_perfect_shuffle_trivial_and_2x2(ctx):
    assert perfect_shuffle(1, 4).is_identity
    s = perfect_shuffle(2, 2)
    assert s.image == (0, 2, 1, 3)
    assert s.to_matrix(ctx) == shuffle_from_sum_formula(ctx, 2, 2)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 2), (1, 5), (4, 4)])
def test_perfect_shuffle_matches_sum_formula(ctx, m, n):
    assert perfect_shuffle(m, n).to_matrix(ctx) == shuffle_from_sum_formula(ctx, m, n)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 4)])
def test_perfect_shuffle_orthogonal(ctx, m, n):
    s = perfect_shuffle(m, n)
    sm = s.to_matrix(ctx)
    assert sm @ s.transpose().to_matrix(ctx) == RatMatrix.identity(ctx, m * n)
    assert s.transpose().to_matrix(ctx) == sm.transpose()


def test_shuffle_commutation_square(ctx):
    rng = random.Random(61)
    c = random_matrix(rng, ctx, 2, 2)
    d = random_matrix(rng, ctx, 3, 3)
    s = perfect_shuffle(2, 3).to_matrix(ctx)
    assert d.kron(c) == s @ c.kron(d) @ s.transpose()


def test_shuffle_commutation_rectangular(ctx):
    rng = random.Random(67)
    c = random_matrix(rng, ctx, 2, 3)  # p x q
    d = random_matrix(rng, ctx, 3, 2)  # r x s
    left = perfect_shuffle(2, 3).to_matrix(ctx)  # S(p, r)
    right = perfect_shuffle(3, 2).to_matrix(ctx).transpose()  # S(q, s)^T
    assert d.kron(c) == left @ c.kron(d) @ right


def test_permutation_apply_rows(ctx):
    rng = random.Random(71)
    a = random_matrix(rng, ctx, 3, 2)
    p = PermutationMatrix((2, 0, 1))
    assert p.apply_rows(a) == p.to_matrix(ctx) @ a
    assert p.transpose().apply_rows(p.apply_rows(a)) == a


def test_first_difference_on_rectangular_matrices(ctx):
    a = RatMatrix.from_rows(ctx, [[1, 2, 3], [4, 5, 6]])
    assert first_difference(a, a) is None
    assert first_difference(a, RatMatrix.from_rows(ctx, [[1, 2, 0], [4, 5, 6]])) == (0, 2)
    assert first_difference(a, RatMatrix.from_rows(ctx, [[1, 2, 3], [0, 5, 6]])) == (1, 0)
    assert first_difference(a, RatMatrix.from_rows(ctx, [[1, 2, 0], [0, 5, 6]])) == (0, 2)
    with pytest.raises(DimensionError):
        first_difference(a, a.transpose())
