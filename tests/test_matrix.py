"""Exact matrices: products, Kronecker, direct sums, perfect shuffles."""

import random
from fractions import Fraction

import pytest

from conftest import random_fraction_entry
from polymf3 import (
    ContextError,
    DimensionError,
    PermutationMatrix,
    RatMatrix,
    RationalFunction,
    VarContext,
    perfect_shuffle,
)
from polymf3.laws import random_polynomial
from polymf3.matrix import first_difference
from polymf3.mf2 import standard_method


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


def _block_step_scalars(ctx):
    """t/s, c/s and b/s of mf3._block_lu's step on a standard-method factor."""
    x, y, z, w = ctx.gens()
    m = standard_method(x * y + z * w - x * z + y * w).components[0]
    h = m.rows // 2
    b, c = m[0, h], m[h, 0]
    s = sum((m[0, k] * m[k + h, h] for k in range(h)), RationalFunction.zero(ctx))
    t = s - c * b
    return [t / s, c / s, b / s]


def _scalars(ctx):
    x, y, z, _ = ctx.gens()
    constants = [0, 1, -1, 2, Fraction(1, 2), Fraction(-1, 3)]
    return constants + [x * y - z, RationalFunction(x, y + z)] + _block_step_scalars(ctx)


@pytest.mark.parametrize("seed, shape", [(0, (2, 3)), (1, (3, 2)), (2, (1, 4)), (3, (4, 4))])
def test_matrix_times_scalar_equals_the_entrywise_products(seed, shape):
    ctx = VarContext("x y z w")
    rng = random.Random(seed)
    rows, cols = shape
    entries = [random_fraction_entry(rng, ctx) for _ in range(rows * cols)]
    # a denominator the block-step scalars share
    entries[0] = RationalFunction(ctx.gens()[0], _block_step_scalars(ctx)[0].denominator)
    m = RatMatrix(ctx, rows, cols, entries)
    for c in _scalars(ctx):
        expected = RatMatrix(ctx, rows, cols, [e * c for e in entries])
        assert m * c == expected, c
        assert c * m == expected, c
        assert [str(e) for e in (m * c).row(0)] == [str(e) for e in expected.row(0)]


def test_matrix_times_a_non_scalar_or_a_foreign_scalar_is_refused():
    ctx = VarContext("x y")
    m = RatMatrix.from_rows(ctx, [[1, ctx.gens()[0], 0]])
    with pytest.raises(TypeError):
        m * "x"
    with pytest.raises(TypeError):
        "x" * m
    u = VarContext("u").gens()[0]
    for c in (u, RationalFunction(u, u + 1)):
        with pytest.raises(ContextError):
            m * c
        with pytest.raises(ContextError):
            c * m


def test_negation_and_difference_equal_the_entrywise_results():
    ctx = VarContext("x y z")
    rng = random.Random(5)
    a_entries = [random_fraction_entry(rng, ctx) for _ in range(6)]
    b_entries = [random_fraction_entry(rng, ctx) for _ in range(6)]
    a, b = RatMatrix(ctx, 2, 3, a_entries), RatMatrix(ctx, 2, 3, b_entries)
    assert -a == RatMatrix(ctx, 2, 3, [-e for e in a_entries])
    assert a - b == RatMatrix(ctx, 2, 3, [p - q for p, q in zip(a_entries, b_entries)])
    assert a - a == RatMatrix.zeros(ctx, 2, 3)
    with pytest.raises(DimensionError):
        a - RatMatrix.zeros(ctx, 3, 2)


def test_apply_rows_on_a_rectangular_matrix_gathers_its_rows():
    ctx = VarContext("x y z")
    rng = random.Random(11)
    m = RatMatrix(ctx, 4, 3, [random_fraction_entry(rng, ctx) for _ in range(12)])
    image = [2, 0, 3, 1]
    gathered = []
    for i in range(4):
        for j in range(3):
            gathered.append(m[image[i], j])
    assert PermutationMatrix(image).apply_rows(m) == RatMatrix(ctx, 4, 3, gathered)
    assert PermutationMatrix(image).to_matrix(ctx) @ m == RatMatrix(ctx, 4, 3, gathered)
    with pytest.raises(DimensionError):
        PermutationMatrix([1, 0]).apply_rows(m)
