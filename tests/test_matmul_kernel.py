"""The matrix product kernel against a textbook triple loop, its sums against
the general Henrici path, and certifying an endomorphism's tensor product once."""

import gc
import json
import random
from fractions import Fraction

import pytest

from polymf3 import MF3, Morphism3, Polynomial, RatMatrix, RationalFunction, VarContext
from polymf3 import matrix as matrix_module
from polymf3 import tensor3_morphism
from polymf3.poly import gcd
from polymf3.ratfunc import _Memo
from polymf3.serialize import morphism_from_obj, morphism_to_obj

CTX = VarContext("x y z")
X, Y, Z = CTX.gens()
# a few shared denominators, so that equal and unequal ones both meet in sums
DENOMINATORS = [X + 1, X * Y - Z, Y**2 + Fraction(1, 3) * Z, X + 1, Z + 2]


def _poly(rng: random.Random) -> Polynomial:
    terms = rng.randint(1, 3)
    out = Polynomial.zero(CTX)
    for _ in range(terms):
        c = rng.choice([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])
        out = out + c * X ** rng.randint(0, 2) * Y ** rng.randint(0, 2) * Z ** rng.randint(0, 1)
    return out


def _entry(rng: random.Random) -> RationalFunction:
    roll = rng.random()
    if roll < 0.25:
        return RationalFunction.zero(CTX)
    # a factor that some denominators have, so that products cancel and
    # one operand meets several different gcds
    num = _poly(rng) * rng.choice([1, 1, *DENOMINATORS])
    if roll < 0.6:
        return RationalFunction.from_value(CTX, num)
    return RationalFunction(num, rng.choice(DENOMINATORS) * rng.choice([1, 1, Z + 2]))


def _random_pair(rng: random.Random) -> tuple[RatMatrix, RatMatrix]:
    n, k, m = rng.randint(1, 4), rng.randint(1, 4), rng.randint(1, 4)
    a = [[_entry(rng) for _ in range(k)] for _ in range(n)]
    b = [[_entry(rng) for _ in range(m)] for _ in range(k)]
    if n > 1:
        a[rng.randrange(n)] = [RationalFunction.zero(CTX)] * k  # a zero row
    if m > 1:
        col = rng.randrange(m)
        for row in b:
            row[col] = RationalFunction.zero(CTX)  # a zero column
    if k > 1:
        # column 1 of a copies column 0 and row 1 of b negates row 0, so
        # their terms cancel in every entry of the product
        for row in a:
            row[1] = row[0]
        b[1] = [-e for e in b[0]]
    return RatMatrix.from_rows(CTX, a), RatMatrix.from_rows(CTX, b)


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


def _by_constructor(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    """The same loop with no fraction-field operator: every product and sum
    is one num/den pair, reduced by the constructor's full gcd."""
    rows = []
    for i in range(a.rows):
        row = []
        for j in range(b.cols):
            num, den = Polynomial.zero(CTX), Polynomial.one(CTX)
            for k in range(a.cols):
                p, q = a[i, k], b[k, j]
                tn, td = p.numerator * q.numerator, p.denominator * q.denominator
                num, den = num * td + tn * den, den * td
            row.append(RationalFunction(num, den))
        rows.append(row)
    return RatMatrix.from_rows(CTX, rows)


def _assert_same(got: RatMatrix, want: RatMatrix):
    assert got == want
    assert hash(got) == hash(want)
    assert repr(got) == repr(want)
    for e, f in zip(got.row_lists(), want.row_lists()):
        assert [str(v) for v in e] == [str(v) for v in f]
        assert [hash(v) for v in e] == [hash(v) for v in f]
        # equal polynomials share one packing width, whatever path built them
        assert [(v.numerator._w, v.denominator._w) for v in e] == [
            (v.numerator._w, v.denominator._w) for v in f
        ]


@pytest.mark.parametrize("seed", range(40))
def test_product_matches_textbook_loop(seed):
    a, b = _random_pair(random.Random(seed))
    got = a @ b
    _assert_same(got, _textbook(a, b))
    _assert_same(got, _by_constructor(a, b))


def test_degree_falls_back_across_the_width_boundary():
    # each product has degree 128 (16-bit fields); the sum of the polynomial
    # terms, and of the fraction terms, cancels down to degree 65 (8-bit fields)
    d = DENOMINATORS[1]
    a = RatMatrix.from_rows(CTX, [[X**64, X**64, 1]])
    b = RatMatrix.from_rows(
        CTX,
        [
            [X**64 + Y, RationalFunction(X**64, d)],
            [-(X**64) + Z, RationalFunction(-(X**64) + Y, d)],
            [X, 0],
        ],
    )
    got = a @ b
    _assert_same(got, _textbook(a, b))
    _assert_same(got, _by_constructor(a, b))
    assert got[0, 0] == RationalFunction(X**64 * (Y + Z) + X)
    assert got[0, 1] == RationalFunction(X**64 * Y, d)
    assert got[0, 0].numerator._w == got[0, 1].numerator._w == 8


def test_the_widest_product_of_an_entry_sets_its_width():
    # the first pair's product has degree 0 (8-bit fields) and the second's
    # degree 301 (16-bit fields): a width taken from the first pair alone
    # wraps x^300*y around to x^44*y
    a = RatMatrix.from_rows(CTX, [[1, X**200]])
    b = RatMatrix.from_rows(CTX, [[1], [X**100 * Y]])
    got = a @ b
    _assert_same(got, _textbook(a, b))
    assert got == RatMatrix.from_rows(CTX, [[X**300 * Y + 1]])
    assert got[0, 0].numerator._w == 16


def test_entries_that_cancel_to_zero():
    p, q = RationalFunction(X + Y, DENOMINATORS[0]), RationalFunction.from_value(CTX, Z * X)
    a = RatMatrix.from_rows(CTX, [[p, p, q, q], [0, 0, 0, 0]])
    b = RatMatrix.from_rows(CTX, [[q, 1], [-q, 0], [p, 0], [-p, 0]])
    got = a @ b
    _assert_same(got, _textbook(a, b))
    _assert_same(got, _by_constructor(a, b))
    assert got[0, 0].is_zero and got[0, 0].denominator.is_one
    assert got[1, 0].is_zero and got[1, 1].is_zero


def test_one_operand_meets_different_gcds_in_one_product():
    # the memo must key on both operands: B's entry has gcd x + 1 with the
    # first denominator and z + 2 with the second
    a = RatMatrix.from_rows(CTX, [[RationalFunction(Y, X + 1)], [RationalFunction(Y, Z + 2)]])
    b = RatMatrix.from_rows(CTX, [[(X + 1) * (Z + 2) * Y]])
    got = a @ b
    _assert_same(got, _by_constructor(a, b))
    assert got == RatMatrix.from_rows(CTX, [[(Z + 2) * Y**2], [(X + 1) * Y**2]])


def test_polynomial_pairs_are_summed_by_one_dot_per_entry(monkeypatch):
    # pairs of entries with denominator 1 on both sides go to _dot, one call
    # per output entry; a pair with a fraction goes through the fraction field
    calls, dot = [], matrix_module._dot

    def spy(ctx, pairs):
        calls.append([(str(p), str(q)) for p, q in pairs])
        return dot(ctx, pairs)

    monkeypatch.setattr(matrix_module, "_dot", spy)
    a = RatMatrix.from_rows(CTX, [[X, 0, RationalFunction(Y, X + 1)], [1, Y, Z]])
    b = RatMatrix.from_rows(CTX, [[Y], [Z], [X + 1]])
    got = a @ b
    _assert_same(got, _textbook(a, b))
    assert calls == [[("x", "y")], [("1", "y"), ("y", "z"), ("z", "x + 1")]]


def test_each_product_makes_and_drops_its_own_memo(monkeypatch):
    made = []

    class Spy(_Memo):
        __slots__ = ()

        def __init__(self, operands=()):
            super().__init__(operands)
            made.append(self)

    monkeypatch.setattr(matrix_module, "_Memo", Spy)
    a, b = _random_pair(random.Random(7))
    a @ b
    a @ b
    assert len(made) == 2 and made[0] is not made[1]
    made.clear()
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, _Memo)]


# -- equal denominators ------------------------------------------------------


def _henrici(p: RationalFunction, q: RationalFunction) -> RationalFunction:
    """The general Henrici sum, with no shortcut for equal denominators."""
    (n1, d1), (n2, d2) = (p.numerator, p.denominator), (q.numerator, q.denominator)
    g0 = gcd(d1, d2)
    d1r, d2r = d1.exact_div(g0), d2.exact_div(g0)
    num, den = n1 * d2r + n2 * d1r, d1 * d2r
    h = gcd(num, g0)
    return RationalFunction(num.exact_div(h), den.exact_div(h))


def _coprime_to(d: Polynomial, make) -> Polynomial:
    while True:
        num = make()
        if not num.is_zero and gcd(num, d).is_one:
            return num


@pytest.mark.parametrize("seed", range(30))
def test_equal_denominator_sum_matches_general_henrici(seed):
    rng = random.Random(1000 + seed)
    base = rng.choice(DENOMINATORS[:3])
    d = base * rng.choice([1, X, Y + Z])
    n1 = _coprime_to(d, lambda: _poly(rng))
    # every other case, the numerators sum to a multiple of base, so the sum
    # must be reduced by a gcd h that is not 1
    n2 = _coprime_to(d, (lambda: base * _poly(rng) - n1) if seed % 2 else (lambda: _poly(rng)))
    p, q = RationalFunction(n1, d), RationalFunction(n2, d)
    assert p.denominator == q.denominator == d
    want = _henrici(p, q)
    for got in (p + q, p._add(q, None), p._add(q, _Memo())):
        assert got == want and str(got) == str(want) and hash(got) == hash(want)
    if seed % 2:
        assert want.denominator != d
    assert p + (-p) == RationalFunction.zero(CTX)
    assert (p + (-p)).denominator.is_one


def test_equal_denominator_sum_reduces_a_shared_factor():
    d = (X + 1) * (Y - 2)
    # the numerators sum to (y - 2)*z, which shares y - 2 with d
    p, q = RationalFunction(Y, d), RationalFunction(Y * Z - 2 * Z - Y, d)
    got = p + q
    assert p.denominator == q.denominator == d
    assert got == _henrici(p, q)
    assert (got.numerator, got.denominator) == (Z, X + 1)


# -- an endomorphism's tensor product is certified once ------------------------


@pytest.fixture
def endomorphisms():
    from polymf3.laws import random_mf3, random_scalar_endomorphism

    rng = random.Random(5)
    f, g = random_mf3(rng, VarContext("a b")), random_mf3(rng, VarContext("c"))
    return random_scalar_endomorphism(rng, f), random_scalar_endomorphism(rng, g)


def _count_mf3_inits(monkeypatch) -> list:
    calls = []
    original = MF3.__init__

    def spy(self, *args, **kwargs):
        calls.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(MF3, "__init__", spy)
    return calls


def test_tensor_of_endomorphisms_certifies_one_mf3(monkeypatch, endomorphisms):
    mf, mg = endomorphisms
    calls = _count_mf3_inits(monkeypatch)
    t = tensor3_morphism(mf, mg)
    assert len(calls) == 1
    assert t.target is t.source


def test_tensor_of_other_morphisms_certifies_both_ends(monkeypatch, endomorphisms):
    mf, mg = endomorphisms
    # same source and target objects, but built apart: not an endomorphism by identity
    other = Morphism3(mf.source, MF3(*mf.source.components, mf.source.target), *mf.components)
    calls = _count_mf3_inits(monkeypatch)
    t = tensor3_morphism(other, mg)
    assert len(calls) == 2
    assert t.target == t.source and t.target is not t.source


def test_loading_an_endomorphism_certifies_its_factorization_once(monkeypatch, endomorphisms):
    obj = json.loads(json.dumps(morphism_to_obj(endomorphisms[0])))
    calls = _count_mf3_inits(monkeypatch)
    m = morphism_from_obj(obj)
    assert len(calls) == 1 and m.target is m.source
    assert m == endomorphisms[0]


# -- one-pass fraction sums over the base ----------------------------------------


def _lazy_results(monkeypatch) -> list:
    """Record what each _Memo.lazy_sum call returns: None for the pairwise path."""
    results, lazy_sum = [], _Memo.lazy_sum

    def spy(self, terms):
        results.append(out := lazy_sum(self, terms))
        return out

    monkeypatch.setattr(_Memo, "lazy_sum", spy)
    return results


def _sum_of(*fractions) -> tuple[RatMatrix, RatMatrix]:
    """A row of fractions and a column of ones: the product sums the row."""
    return RatMatrix.from_rows(CTX, [list(fractions)]), RatMatrix.from_rows(CTX, [[1]] * len(fractions))


@pytest.mark.parametrize("power, lazy", [(2, True), (3, False)])
def test_entries_at_and_past_the_cap(monkeypatch, power, lazy):
    from polymf3.ratfunc import LAZY_SUM_CAP

    # the common denominator (x + y)^2*(x - y)^power has exponent sum 2 + power
    assert (2 + power <= LAZY_SUM_CAP) == lazy
    results = _lazy_results(monkeypatch)
    a = RatMatrix.from_rows(CTX, [[RationalFunction(Z, (X + Y) ** 2), RationalFunction(X + Z, (X - Y) ** power)]])
    # the second column puts x + y and x - y themselves among the denominators,
    # so the base refines the powers into certified factors
    b = RatMatrix.from_rows(CTX, [[1, RationalFunction(Z, X + Y)], [1, RationalFunction(Z, X - Y)]])
    got = a @ b
    _assert_same(got, _textbook(a, b))
    assert len(results) == 2 and (results[0] is not None) == lazy


def test_a_lazy_sum_that_cancels_to_zero(monkeypatch):
    results = _lazy_results(monkeypatch)
    p = RationalFunction(Z, (X + Y) * (X - Y))
    a, b = _sum_of(p, RationalFunction(X, X + Y), -p, RationalFunction(-X, X + Y))
    got = a @ b
    _assert_same(got, _textbook(a, b))
    assert got[0, 0].is_zero and got[0, 0].denominator.is_one
    assert len(results) == 1 and results[0] is not None


def test_a_lazy_sum_that_cancels_to_a_polynomial(monkeypatch):
    results = _lazy_results(monkeypatch)
    a, b = _sum_of(RationalFunction(X * Z, X + Y), RationalFunction(Y * Z, X + Y), RationalFunction(Z, X - Y))
    b = RatMatrix.from_rows(CTX, [[1], [1], [X - Y]])
    got = a @ b
    _assert_same(got, _textbook(a, b))
    assert got[0, 0] == RationalFunction.from_value(CTX, 2 * Z)
    assert len(results) == 1 and results[0] is not None


def test_a_term_off_the_base_falls_back(monkeypatch):
    # (x + y)^2*(x - y) alone is no product of certified factors
    results = _lazy_results(monkeypatch)
    d = (X + Y) ** 2 * (X - Y)
    a, b = _sum_of(RationalFunction(Z, d), RationalFunction(X, d))
    got = a @ b
    _assert_same(got, _textbook(a, b))
    assert got[0, 0] == RationalFunction(X + Z, d)
    assert results == [None]


def test_a_pair_with_one_denominator_on_the_base_and_one_off_it_falls_back(monkeypatch):
    # x + y and x + z are certified factors; x^2 + y^2 has degree 2 in both
    # variables, so it stays off the base
    results = _lazy_results(monkeypatch)
    a = RatMatrix.from_rows(CTX, [[RationalFunction(Z, (X + Y) * (X + Z)), RationalFunction(Z + 1, X + Y)]])
    b = RatMatrix.from_rows(CTX, [[RationalFunction(X, X**2 + Y**2)], [RationalFunction(Y, X + Z)]])
    got = a @ b
    _assert_same(got, _textbook(a, b))
    assert results == [None]


def test_lazy_sums_match_the_textbook_loop_on_both_sides_of_the_cap(monkeypatch):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # each lazy_sum call: did it sum at once, and were all its denominators on the base?
    calls, lazy_sum = [], _Memo.lazy_sum

    def spy(self, terms):
        out = lazy_sum(self, terms)
        dens = [d for a, b in terms for d in (a._den, b._den) if not d.is_one]
        calls.append((out is not None, all(self.vector(d) is not None for d in dens)))
        return out

    monkeypatch.setattr(_Memo, "lazy_sum", spy)
    binomials = [X + Y, X - Y, Y + Z, X + 2 * Z]
    numerators = [X, Y - 2, Z + X, Fraction(1, 2) * Y * Z, X + Y]

    @st.composite
    def entries(draw):
        if draw(st.booleans()):
            return RationalFunction.from_value(CTX, draw(st.sampled_from(numerators)))
        den = Polynomial.one(CTX)
        for b in binomials:
            # squarefree, so that the base refines to the binomials themselves
            den = den * b ** draw(st.integers(0, 1))
        return RationalFunction(draw(st.sampled_from(numerators)), den)

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.integers(1, 3), st.data())
    def check(n, data):
        a = RatMatrix.from_rows(CTX, [[data.draw(entries()) for _ in range(n)] for _ in range(2)])
        b = RatMatrix.from_rows(CTX, [[data.draw(entries()) for _ in range(2)] for _ in range(n)])
        _assert_same(a @ b, _textbook(a, b))

    check()
    # the draws reach both sides of the cap: entries summed at once, and
    # entries on the base that the cap sends to the pairwise sums
    assert (True, True) in calls and (False, True) in calls
