"""The coprime denominator base of one matrix product (ratfunc._Memo): which
factors it certifies, which denominators it factors, and sums and products
over it against the public operators and the reducing constructor."""

import json
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from polymf3 import Polynomial, RatMatrix, RationalFunction, VarContext
from polymf3 import matrix as matrix_module
from polymf3 import ratfunc
from polymf3.ratfunc import _irreducible, _Memo

CTX = VarContext("x y z")
X, Y, Z = CTX.gens()


def _memo(*entries: RationalFunction) -> _Memo:
    return _Memo((entries,))


def _assert_same(got: RationalFunction, want: RationalFunction):
    assert got == want and hash(got) == hash(want) and str(got) == str(want)
    assert got.numerator._w == want.numerator._w
    assert got.denominator._w == want.denominator._w


def _check_sum_and_product(p: RationalFunction, q: RationalFunction, memo: _Memo):
    """p + q and p * q through memo against the public operators and the
    constructor's full gcd."""
    (n1, d1), (n2, d2) = (p.numerator, p.denominator), (q.numerator, q.denominator)
    total, product = p._add(q, memo), p._mul(q, memo)
    _assert_same(total, p + q)
    _assert_same(total, RationalFunction(n1 * d2 + n2 * d1, d1 * d2))
    _assert_same(product, p * q)
    _assert_same(product, RationalFunction(n1 * n2, d1 * d2))


def test_repeated_reducible_denominator_factors_over_its_base():
    d = (X + Y) ** 2 * (X - Y)
    p, q = RationalFunction(Z, d), RationalFunction(X, (X + Y) * (X - Y) ** 2)
    memo = _memo(p, q)
    base = dict(zip(map(str, (X + Y, X - Y)), ((2, 1), (1, 2))))
    assert memo.vector(d) is not None
    assert {str(b) for b in memo.base} == set(base)
    for b, e in zip(memo.base, memo.vector(d)):
        assert e == base[str(b)][0]
    _check_sum_and_product(p, q, memo)
    # a sum whose numerator takes one x + y back out of the common part
    _check_sum_and_product(p, RationalFunction(X + Y - Z, d), memo)


def test_monomial_content_enters_the_base_as_its_variables():
    d = X * (X + Y)
    p, q = RationalFunction(Z + 1, d), RationalFunction(Y, X**2 * Z)
    memo = _memo(p, q)
    assert memo.vector(d) is not None
    assert {str(b) for b in memo.base} == {"x", "z", "x + y"}
    _check_sum_and_product(p, q, memo)
    # x divides the numerator twice, the denominator once
    _check_sum_and_product(p, RationalFunction.from_value(CTX, X**2 * (Y + Z)), memo)


def test_numerator_divisible_twice_by_one_base_factor():
    d = (X + Y) ** 2 * (X - Y)
    p = RationalFunction(Z, d)
    # refinement splits a square only against another denominator
    memo = _memo(p, RationalFunction(Y, X + Y))
    assert memo.vector(d) is not None
    q = RationalFunction.from_value(CTX, (X + Y) ** 2 * (Y + 2))
    got = p._mul(q, memo)
    _assert_same(got, RationalFunction(Z * (Y + 2), X - Y))
    _check_sum_and_product(p, q, memo)
    # a sum over equal denominators whose numerator is (x + y)^2 * (z + 1)
    r = RationalFunction((X + Y) ** 2 * (Z + 1) - Z, d)
    total = p._add(r, memo)
    _assert_same(total, RationalFunction(Z + 1, X - Y))
    _check_sum_and_product(p, r, memo)


def test_factor_nonlinear_in_every_variable_takes_the_fallback():
    f = X**2 + Y**2 + 1
    assert not _irreducible(f)
    p, q = RationalFunction(Z, f * (X + 2)), RationalFunction(Y, f)
    memo = _memo(p, q)
    assert memo.vector(f * (X + 2)) is None and memo.vector(f) is None
    assert [str(b) for b in memo.base] == ["x + 2"]
    _check_sum_and_product(p, q, memo)
    _check_sum_and_product(p, RationalFunction.from_value(CTX, f * Z), memo)


def test_linear_but_not_primitive_factor_stays_uncertified():
    # (x + 1)*(y + 1): degree 1 in x and in y, content y + 1 and x + 1
    d = X * Y + X + Y + 1
    assert not _irreducible(d)
    p = RationalFunction(Z, d)
    memo = _memo(p)
    assert memo.vector(d) is None and memo.base == []
    q = RationalFunction.from_value(CTX, (X + 1) * Z)
    _assert_same(p._mul(q, memo), RationalFunction(Z**2, Y + 1))
    _check_sum_and_product(p, q, memo)
    _check_sum_and_product(p, RationalFunction(X, d), memo)


def test_empty_memo_takes_the_gcd_path():
    d = (X + Y) * (X - 1)
    p, q = RationalFunction(Z, d), RationalFunction((X + Y) * Z + 1, (X - 1) ** 2)
    for memo in (_Memo(), _Memo()):
        _check_sum_and_product(p, q, memo)
        assert memo.base == [] and memo.vector(d) is None
    _assert_same(p._add(q, _Memo()), p + q)
    _assert_same(p._mul(q, _Memo()), p * q)


def test_certificates():
    assert _irreducible(X)
    assert _irreducible(X * Y - Z)
    assert _irreducible(Fraction(1, 3) * X**2 * Y + Z**2)
    assert not _irreducible(X**2 - Y**2)  # (x - y)*(x + y), degree 2 in both
    assert not _irreducible(X * Y)  # content y in x, x in y


# -- whole products over the base -----------------------------------------------


LINEAR = [X + Y, X - Y, Y + Z + 1, X * Y - Z, Fraction(1, 2) * X + Z]


def _entry(rng: random.Random) -> RationalFunction:
    roll = rng.random()
    if roll < 0.2:
        return RationalFunction.zero(CTX)
    num = rng.choice([X, Y - 2, Z + X]) * rng.choice([1, 1, *LINEAR])
    if roll < 0.45:
        return RationalFunction.from_value(CTX, num)
    den = rng.choice(LINEAR) ** rng.randint(1, 2) * rng.choice([1, 1, X, *LINEAR, X**2 + Y**2 + 1])
    return RationalFunction(num, den)


@pytest.mark.parametrize("seed", range(12))
def test_products_over_the_base_match_the_public_operators(seed):
    rng = random.Random(500 + seed)
    n = rng.randint(1, 3)
    a = RatMatrix.from_rows(CTX, [[_entry(rng) for _ in range(n)] for _ in range(n)])
    b = RatMatrix.from_rows(CTX, [[_entry(rng) for _ in range(n)] for _ in range(n)])
    got, v = a @ b, _entry(rng)
    scaled = a * v
    for i in range(n):
        for j in range(n):
            want = RationalFunction.zero(CTX)
            for k in range(n):
                want = want + a[i, k] * b[k, j]
            _assert_same(got[i, j], want)
            _assert_same(scaled[i, j], a[i, j] * v)


def test_each_product_builds_its_base_from_both_operands(monkeypatch):
    made = []

    class Spy(_Memo):
        __slots__ = ()

        def __init__(self, operands=()):
            super().__init__(operands)
            made.append(self)

    monkeypatch.setattr(matrix_module, "_Memo", Spy)
    a = RatMatrix.from_rows(CTX, [[RationalFunction(Z, X + Y), 1], [0, RationalFunction(X, Y + Z + 1)]])
    v = RationalFunction(X + Y, X - Y)
    scaled = a * v
    assert {str(b) for b in made[0].base} == {"x + y", "x - y", "y + z + 1"}
    product = a @ a.transpose()
    assert {str(b) for b in made[1].base} == {"x + y", "y + z + 1"}
    assert len(made) == 2
    for i in range(2):
        for j in range(2):
            _assert_same(scaled[i, j], a[i, j] * v)
            _assert_same(product[i, j], a[i, 0] * a[j, 0] + a[i, 1] * a[j, 1])


def test_monomial_denominators_build_a_base_of_variables(monkeypatch):
    bases, coprime_base = [], ratfunc._coprime_base

    def recording_base(operands):
        bases.append(base := coprime_base(operands))
        return base

    monkeypatch.setattr(ratfunc, "_coprime_base", recording_base)
    a = RatMatrix.from_rows(CTX, [
        [RationalFunction(Y + 1, X), RationalFunction(Z, X * Y**2)], [1, RationalFunction(X - Z, Z**2)],
    ])
    b = RatMatrix.from_rows(CTX, [
        [RationalFunction(X, Y), Z], [RationalFunction(X * Y, Z), RationalFunction(Y + Z, X**2 * Y)],
    ])
    product = a @ b
    # every denominator is a monomial, so the base holds only their variables
    assert len(bases) == 1 and sorted(map(str, bases[0])) == ["x", "y", "z"]
    for i in range(2):
        for j in range(2):
            _assert_same(product[i, j], a[i, 0] * b[0, j] + a[i, 1] * b[1, j])


# -- constants between contexts and a left entry 1 in kron ---------------------


def test_constant_moves_to_the_new_context():
    wide = VarContext("w x y z")
    for c in (Polynomial.one(CTX), Polynomial.constant(CTX, Fraction(-3, 4)), Polynomial.zero(CTX)):
        moved = c.in_context(wide)
        assert moved.context is wide
        assert moved == Polynomial.constant(wide, c.leading_coefficient() if c._terms else 0)


def test_kron_reuses_the_right_block_for_a_left_entry_one():
    left = RatMatrix.from_rows(CTX, [[1, 0], [X, 1]])
    right = RatMatrix.from_rows(CTX, [[RationalFunction(Y, X + 1), Z], [0, 2]])
    got = left.kron(right)
    assert got[0, 0] is right[0, 0] and got[3, 3] is right[1, 1]
    for i in range(4):
        for j in range(4):
            _assert_same(got[i, j], left[i // 2, j // 2] * right[i % 2, j % 2])


_HASH_SEED_PROBE = """
import json
from polymf3 import RatMatrix, RationalFunction, VarContext
from polymf3 import ratfunc

ctx = VarContext("x y z")
x, y, z = ctx.gens()
calls, bases = [0], []
gcd, coprime_base = ratfunc.gcd, ratfunc._coprime_base

def counting_gcd(a, b):
    calls[0] += 1
    return gcd(a, b)

def recording_base(operands):
    base = coprime_base(operands)
    bases.append([str(b) for b in base])
    return base

ratfunc.gcd, ratfunc._coprime_base = counting_gcd, recording_base
dens = [x**2 - y**2, (x + y) * (y + z), (x - y) * (x + z), x**2 + y*z, (y + z) * (x + z), z**2 - x**2]
a = RatMatrix.from_rows(ctx, [
    [RationalFunction(x, d) for d in dens[:3]], [RationalFunction(y, d) for d in dens[3:]],
])
b = RatMatrix.from_rows(ctx, [[RationalFunction(z, d), 1] for d in dens[1:4]])
a @ b
print(json.dumps([calls[0], bases]))
"""


def test_the_work_of_a_product_does_not_depend_on_the_hash_seed():
    """The base is refined in first-seen order of the denominators, so the
    gcds it runs and the order of its factors are the same in every process."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    reports = []
    for seed in ("0", "1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", _HASH_SEED_PROBE],
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True, text=True, check=True, timeout=60,
        )
        reports.append(json.loads(done.stdout))
    calls, bases = reports[0]
    assert len(bases) == 1 and len(bases[0]) == 6 and calls > 0
    assert reports[1] == reports[0] and reports[2] == reports[0]
