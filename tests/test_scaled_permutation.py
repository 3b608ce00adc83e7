"""Products with a scaled permutation operand (one nonzero constant in each
row and each column) against a textbook triple loop, on both sides of
general operands; near misses that must go through the general kernel; and
a wrong scalar morphism that must still fail its square."""

import random
from fractions import Fraction

import pytest

from polymf3 import MF2, Morphism3, MorphismError, RatMatrix, RationalFunction, VarContext, promote
from polymf3 import matrix as matrix_module

CTX = VarContext("x y z")
X, Y, Z = CTX.gens()
CONSTANTS = [1, -1, 2, Fraction(1, 2), Fraction(-1, 3), 3]
# multi-term denominators, one of them shared, so that fractions meet in sums
DENOMINATORS = [X + 1, X * Y - Z, Y**2 + Fraction(1, 3) * Z + 1, X + 1]


def _entry(rng: random.Random) -> RationalFunction:
    roll = rng.random()
    if roll < 0.2:
        return RationalFunction.zero(CTX)
    num = rng.choice(CONSTANTS) * X ** rng.randint(0, 2) * Y ** rng.randint(0, 1) + rng.choice([0, 1, Z])
    if roll < 0.5:
        return RationalFunction.from_value(CTX, num)
    return RationalFunction(num, rng.choice(DENOMINATORS))


def _general(rng: random.Random, rows: int, cols: int) -> RatMatrix:
    return RatMatrix.from_rows(CTX, [[_entry(rng) for _ in range(cols)] for _ in range(rows)])


def _random_scaled_permutation(rng: random.Random, n: int) -> RatMatrix:
    kind = rng.choice(["identity", "scalar", "signed"])
    if kind == "identity":
        return RatMatrix.identity(CTX, n)
    if kind == "scalar":
        return RatMatrix.scalar(CTX, n, rng.choice(CONSTANTS))
    image = list(range(n))
    rng.shuffle(image)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(image):
        rows[i][j] = rng.choice(CONSTANTS)
    return RatMatrix.from_rows(CTX, rows)


def _textbook(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            acc = RationalFunction.zero(CTX)
            for k in range(a.cols):
                acc = acc + a[i, k] * b[k, j]
            row.append(acc)
        rows.append(row)
    return RatMatrix.from_rows(CTX, rows)


def _no_kernel(monkeypatch):
    """Make any call into the general kernel fail: it builds a _Memo first."""

    def refuse():
        raise AssertionError("the general kernel ran")

    monkeypatch.setattr(matrix_module, "_Memo", refuse)


@pytest.mark.parametrize("seed", range(40))
def test_scaled_permutation_products_match_the_textbook_loop(seed, monkeypatch):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    m = _random_scaled_permutation(rng, n)
    left, right = _general(rng, rng.randint(1, 4), n), _general(rng, n, rng.randint(1, 4))
    expected = [_textbook(m, right), _textbook(left, m), _textbook(m, m)]
    _no_kernel(monkeypatch)
    assert [m @ right, left @ m, m @ m] == expected
    # every entry is canonical: it prints as the textbook's does
    assert [repr(p) for p in (m @ right, left @ m)] == [repr(p) for p in expected[:2]]


def test_a_factor_1_reuses_the_entry():
    a = _general(random.Random(7), 3, 3)
    swap = RatMatrix.from_rows(CTX, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    by_rows, by_cols = swap @ a, a @ swap
    for i in range(3):
        for j in range(3):
            assert by_rows[i, j] is a[[1, 0, 2][i], j]
            assert by_cols[i, j] is a[i, [1, 0, 2][j]]


NEAR_MISSES = {
    "two nonzeros in a row": [[1, 2, 0], [0, 0, 1], [0, 1, 0]],
    "a nonconstant entry": [[1, 0, 0], [0, X, 0], [0, 0, 1]],
    "an entry 1/x": [[1, 0, 0], [0, 0, RationalFunction.one(CTX) / X], [0, 1, 0]],
    "a zero row": [[1, 0, 0], [0, 0, 0], [0, 0, 1]],
    "two rows using one column": [[0, 1, 0], [0, 2, 0], [1, 0, 0]],
    "a zero last row": [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
    "a non-square operand": [[1, 0, 0], [0, 1, 0]],
}


@pytest.mark.parametrize("name", list(NEAR_MISSES))
def test_near_misses_go_through_the_kernel(name):
    m = RatMatrix.from_rows(CTX, NEAR_MISSES[name])
    assert matrix_module._scaled_permutation(m) is None
    rng = random.Random(name)
    left, right = _general(rng, 2, m.rows), _general(rng, m.cols, 2)
    assert m @ right == _textbook(m, right)
    assert left @ m == _textbook(left, m)


def test_the_scan_reports_each_rows_column_and_constant():
    m = RatMatrix.from_rows(CTX, [[0, Fraction(-1, 3)], [2, 0]])
    assert matrix_module._scaled_permutation(m) == [(1, Fraction(-1, 3)), (0, 2)]
    assert matrix_module._scaled_permutation(RatMatrix.identity(CTX, 1)) == [(0, 1)]


def test_a_wrong_scalar_morphism_still_fails_its_square():
    pair = MF2(
        RatMatrix.from_rows(CTX, [[X, -Y], [Y, X]]),
        RatMatrix.from_rows(CTX, [[X, Y], [-Y, X]]),
        X**2 + Y**2,
    )
    triple = promote(pair, "first", "doolittle")
    two, three = RatMatrix.scalar(CTX, 2, 2), RatMatrix.scalar(CTX, 2, 3)
    with pytest.raises(MorphismError) as err:
        Morphism3(triple, triple, two, two, three)
    assert str(err.value) == "morphism equation psi2*delta = beta*psi1 fails at entry [0][0]"
    assert Morphism3(triple, triple, three, three, three).components == (three, three, three)
