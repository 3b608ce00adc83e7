"""LU decomposition over the fraction field and MF3 promotion."""

import random
from fractions import Fraction

import pytest

from polymf3 import (
    MF2,
    MF3,
    CertificateError,
    RatMatrix,
    RationalFunction,
    SingularPivotError,
    StructurallySingularError,
    TermSplit,
    VarContext,
    lu_decompose,
    promote,
    standard_method,
)
from polymf3 import mf3
from conftest import random_fraction_matrix


def cofactor_det(m):
    """Naive cofactor-expansion determinant oracle."""
    n = m.rows
    if n == 1:
        return m[0, 0]
    total = RationalFunction.zero(m.context)
    for j in range(n):
        if m[0, j].is_zero:
            continue
        minor_rows = [
            [m[i, k] for k in range(n) if k != j] for i in range(1, n)
        ]
        minor = RatMatrix(m.context, n - 1, n - 1, [e for row in minor_rows for e in row])
        term = m[0, j] * cofactor_det(minor)
        total = total + (term if j % 2 == 0 else -term)
    return total




def assert_triangular(result):
    L, U, n = result.L, result.U, result.L.rows
    one = RationalFunction.one(L.context)
    zero = RationalFunction.zero(L.context)
    for i in range(n):
        for j in range(n):
            if j > i:
                assert L[i, j] == zero
            if j < i:
                assert U[i, j] == zero
    if result.method == "doolittle":
        assert all(L[i, i] == one for i in range(n))
    else:
        assert all(U[i, i] == one for i in range(n))


@pytest.fixture
def ctx():
    return VarContext("x y z")


@pytest.fixture
def gens(ctx):
    return ctx.gens()


def test_doolittle_rotation_example(ctx, gens):
    x, y, _ = gens
    res = lu_decompose(RatMatrix.from_rows(ctx, [[x, -y], [y, x]]), "doolittle")
    assert res.L == RatMatrix.from_rows(ctx, [[1, 0], [y / x, 1]])
    assert res.U == RatMatrix.from_rows(ctx, [[x, -y], [0, x + (y**2) / x]])
    assert res.permutation is None
    assert_triangular(res)


def test_doolittle_mixed_example(ctx, gens):
    x, y, z = gens
    res = lu_decompose(RatMatrix.from_rows(ctx, [[x * y, -z], [x**2, z]]), "doolittle")
    assert res.L == RatMatrix.from_rows(ctx, [[1, 0], [x / y, 1]])
    assert res.U == RatMatrix.from_rows(ctx, [[x * y, -z], [0, z + (z * x) / y]])


def test_identity_input(ctx):
    for method in ("doolittle", "crout"):
        res = lu_decompose(RatMatrix.identity(ctx, 3), method)
        assert res.L == RatMatrix.identity(ctx, 3)
        assert res.U == RatMatrix.identity(ctx, 3)


def test_lu_round_trip_randomized(ctx):
    rng = random.Random(79)
    done = 0
    while done < 12:
        n = rng.randint(1, 4)
        a = random_fraction_matrix(rng, ctx, n)
        for method in ("doolittle", "crout"):
            try:
                res = lu_decompose(a, method, pivot=True)
            except StructurallySingularError:
                break
            product = res.L @ res.U
            expected = a if res.permutation is None else res.permutation.apply_rows(a)
            assert product == expected
            assert_triangular(res)
        else:
            done += 1


def test_crout_doolittle_duality(ctx):
    rng = random.Random(83)
    for _ in range(6):
        a = random_fraction_matrix(rng, ctx, 3)
        try:
            crout = lu_decompose(a, "crout")
            dool = lu_decompose(a.transpose(), "doolittle")
        except (SingularPivotError, StructurallySingularError):
            continue
        assert crout.L == dool.U.transpose()
        assert crout.U == dool.L.transpose()


def test_zero_pivot_policy(ctx, gens):
    x, y, _ = gens
    a = RatMatrix.from_rows(ctx, [[0, x], [y, 0]])
    with pytest.raises(SingularPivotError) as err:
        lu_decompose(a, "doolittle")
    assert err.value.order == 1
    res = lu_decompose(a, "doolittle", pivot=True)
    assert res.permutation is not None
    assert res.L @ res.U == res.permutation.apply_rows(a)


def test_pivot_swaps_compose_and_carry_their_multipliers(ctx, gens):
    x, y, _ = gens
    a = RatMatrix.from_rows(ctx, [[0, 0, x], [y, 1, 0], [1, y, 1]])
    with pytest.raises(SingularPivotError):
        mf3._eliminate(a, pivot=False)
    L, U, permutation = mf3._eliminate(a, pivot=True)
    # row 0 swaps with row 1, then, after the first column is cleared, with
    # row 2: the rows come in the order 1, 2, 0, and the multiplier 1/y
    # found for old row 2 moves up with it
    inverse_y = RationalFunction.one(ctx) / y
    assert permutation.image == (1, 2, 0)
    assert L == RatMatrix.from_rows(ctx, [[1, 0, 0], [inverse_y, 1, 0], [0, 0, 1]])
    assert U == RatMatrix.from_rows(ctx, [[y, 1, 0], [0, y - inverse_y, 1], [0, 0, x]])
    assert L @ U == permutation.apply_rows(a)


def test_structurally_singular(ctx, gens):
    x, _, _ = gens
    singular = RatMatrix.from_rows(ctx, [[x, x], [x, x]])
    with pytest.raises(StructurallySingularError):
        lu_decompose(singular, "doolittle", pivot=True)


def test_promote_first_doolittle(ctx, gens):
    x, y, _ = gens
    pair = MF2(
        RatMatrix.from_rows(ctx, [[x, -y], [y, x]]),
        RatMatrix.from_rows(ctx, [[x, y], [-y, x]]),
        x**2 + y**2,
    )
    triple = promote(pair, "first", "doolittle")
    assert triple.A1 == RatMatrix.from_rows(ctx, [[1, 0], [y / x, 1]])
    assert triple.A2 == RatMatrix.from_rows(ctx, [[x, -y], [0, x + (y**2) / x]])
    assert triple.A3 == pair.Q
    assert triple.provenance.method == "doolittle"
    assert triple.provenance.decomposed == "first"
    assert not triple.provenance.pivoted


def test_promote_mixed_target(ctx, gens):
    x, y, z = gens
    pair = MF2(
        RatMatrix.from_rows(ctx, [[x * y, -z], [x**2, z]]),
        RatMatrix.from_rows(ctx, [[z, z], [-(x**2), x * y]]),
        x * y * z + z * x**2,
    )
    triple = promote(pair, "first", "doolittle")
    assert triple.A1[1, 0] == x / y
    assert triple.A2[1, 1] == z + (z * x) / y
    assert triple.target == x * y * z + z * x**2


def test_promote_second_and_crout(ctx, gens):
    x, y, _ = gens
    pair = MF2(
        RatMatrix.from_rows(ctx, [[x, -y], [y, x]]),
        RatMatrix.from_rows(ctx, [[x, y], [-y, x]]),
        x**2 + y**2,
    )
    second = promote(pair, "second", "doolittle")
    assert second.A1 == pair.P
    assert second.A2 @ second.A3 == pair.Q
    crout = promote(pair, "first", "crout")
    assert crout.A1 @ crout.A2 == pair.P
    assert crout.A2[0, 0] == 1 and crout.A2[1, 1] == 1


def test_promote_trivial(ctx, gens):
    x, y, _ = gens
    f = x**3 + y**2
    pair = MF2(RatMatrix.from_rows(ctx, [[f]]), RatMatrix.identity(ctx, 1), f)
    triple = promote(pair, "first", "doolittle")
    assert [triple.A1[0, 0], triple.A2[0, 0], triple.A3[0, 0]] == [1, f, 1]


def test_promote_with_pivoting_keeps_certificate(ctx, gens):
    x, y, _ = gens
    swapped = RatMatrix.from_rows(ctx, [[0, x], [y, 0]])
    pair = MF2(swapped, RatMatrix.from_rows(ctx, [[0, x], [y, 0]]), x * y)
    with pytest.raises(SingularPivotError):
        promote(pair, "first", "doolittle")
    triple = promote(pair, "first", "doolittle", pivot=True)
    assert triple.provenance.pivoted
    assert triple.A1 @ triple.A2 == pair.P


def test_triplet_certification(ctx, gens):
    x, y, z = gens
    one = RatMatrix.identity(ctx, 1)
    ok = MF3(
        RatMatrix.from_rows(ctx, [[x]]),
        RatMatrix.from_rows(ctx, [[y]]),
        RatMatrix.from_rows(ctx, [[z]]),
        x * y * z,
    )
    assert ok.size == 1
    assert MF3(one, one, RatMatrix.from_rows(ctx, [[x * y]]), x * y).size == 1
    with pytest.raises(CertificateError):
        MF3(
            RatMatrix.from_rows(ctx, [[x]]),
            RatMatrix.from_rows(ctx, [[y]]),
            RatMatrix.from_rows(ctx, [[z]]),
            x * y,
        )


def test_identity_scalar_triplet(ctx, gens):
    x, y, _ = gens
    f = x**2 + y**2
    t = MF3(
        RatMatrix.identity(ctx, 3),
        RatMatrix.identity(ctx, 3),
        RatMatrix.scalar(ctx, 3, f),
        f,
    )
    assert t.size == 3


def test_direct_sum(ctx, gens):
    x, y, _ = gens
    pair = MF2(
        RatMatrix.from_rows(ctx, [[x, -y], [y, x]]),
        RatMatrix.from_rows(ctx, [[x, y], [-y, x]]),
        x**2 + y**2,
    )
    t = promote(pair, "first", "doolittle")
    doubled = t.direct_sum(t)
    assert doubled.size == 4
    one = RatMatrix.identity(ctx, 1)
    small = MF3(one, one, RatMatrix.from_rows(ctx, [[x**2 + y**2]]), x**2 + y**2)
    mixed = small.direct_sum(t)
    assert mixed.size == 3
    with pytest.raises(ValueError):
        small.direct_sum(MF3(one, one, RatMatrix.from_rows(ctx, [[x * y]]), x * y))


def test_determinant_consistency(ctx):
    rng = random.Random(89)
    checked = 0
    while checked < 6:
        n = rng.randint(2, 4)
        a = random_fraction_matrix(rng, ctx, n)
        try:
            res = lu_decompose(a, "doolittle")
        except (SingularPivotError, StructurallySingularError):
            continue
        assert cofactor_det(a) == cofactor_det(res.L) * cofactor_det(res.U)
        checked += 1


# -- the block step against a textbook reference ------------------------------


def textbook_doolittle(m, pivot):
    """Reference LU: Gaussian elimination that keeps each multiplier as an
    entry of L, taking the first row with a nonzero pivot when pivot=True.
    Returns the rows of L and U and the row order, or raises the errors
    lu_decompose documents."""
    n = m.rows
    zero, one = RationalFunction.zero(m.context), RationalFunction.one(m.context)
    U = [list(m.row(i)) for i in range(n)]
    L = [[one if i == j else zero for j in range(n)] for i in range(n)]
    order = list(range(n))
    for k in range(n):
        r = next((r for r in range(k, n) if not U[r][k].is_zero), None)
        if r != k and not pivot:
            raise SingularPivotError(k + 1)
        if r is None:
            raise StructurallySingularError(k)
        U[k], U[r] = U[r], U[k]
        L[k][:k], L[r][:k] = L[r][:k], L[k][:k]
        order[k], order[r] = order[r], order[k]
        for i in range(k + 1, n):
            L[i][k] = U[i][k] / U[k][k]
            U[i] = [zero] * (k + 1) + [U[i][j] - L[i][k] * U[k][j] for j in range(k + 1, n)]
    return L, U, None if order == list(range(n)) else tuple(order)


def check_against_reference(m):
    """lu_decompose(m) matches the reference for every method and pivot
    setting, errors included; returns what happened for pivot False, True."""
    n, ctx = m.rows, m.context
    outcomes, reference = [], None
    for pivot in (False, True):
        try:
            # a factorization found without pivoting is also the one with it
            reference = reference or textbook_doolittle(m, pivot)
        except (SingularPivotError, StructurallySingularError) as want:
            for method in ("doolittle", "crout"):
                with pytest.raises(type(want)) as got:
                    lu_decompose(m, method, pivot)
                assert str(got.value) == str(want)
            outcomes.append("raised")
            continue
        L, U, order = reference
        crout_L = [[L[i][j] * U[j][j] for j in range(n)] for i in range(n)]
        crout_U = [[U[i][j] / U[i][i] for j in range(n)] for i in range(n)]
        for method, lower, upper in (("doolittle", L, U), ("crout", crout_L, crout_U)):
            res = lu_decompose(m, method, pivot)
            assert res.L == RatMatrix.from_rows(ctx, lower)
            assert res.U == RatMatrix.from_rows(ctx, upper)
            assert (None if res.permutation is None else res.permutation.image) == order
        outcomes.append("factored")
    return outcomes


def random_standard_pair(rng, ctx, k):
    """A standard-method pair of k seeded splits: rational coefficients,
    variables repeated within and across summands, multi-term right sides."""
    gens = ctx.gens()
    coeffs = [1, -1, 2, Fraction(1, 2), Fraction(-3, 2)]
    splits = []
    for _ in range(k):
        left = rng.choice(coeffs) * rng.choice(gens) ** rng.randint(1, 2)
        right = rng.choice(gens) * rng.choice(gens)
        if rng.random() < 0.5:
            right = right + Fraction(2, 3) * rng.choice(gens)
        splits.append(TermSplit(left, right))
    f = sum((s.summand for s in splits[1:]), splits[0].summand)
    return standard_method(f, splits)


# The reference eliminates without the block step, and its time grows fast
# with repeated variables: over four variables one k = 5 factor takes 5 s.
# Ten variables, and a seed whose pairs it factors in under a second in all,
# keep the suite quick while variables still repeat within and across summands.
WIDE = VarContext("a b c d e f g h x y")
SEED = 3


def test_block_step_matches_textbook_doolittle_on_standard_method_pairs():
    rng = random.Random(SEED)
    pairs = [random_standard_pair(rng, WIDE, k) for k in (2, 3, 3, 4, 4, 5)]
    a, b, c, d = WIDE.gens()[:4]
    for summands in ([(a, b), (-a, b), (c, d)], [(a, b), (-a, b), (c, d), (a, c)]):
        splits = [TermSplit(left, right) for left, right in summands]
        pairs.append(standard_method(sum(s.summand for s in splits), splits))
    outcomes = [
        check_against_reference(factor) for pair in pairs for factor in (pair.P, pair.Q)
    ]
    # a zero partial sum needs a row swap: without pivoting it raises, with it
    # the elimination loop swaps rows
    assert outcomes == [["factored", "factored"]] * 12 + [["raised", "factored"]] * 4


def test_block_step_leaves_only_2x2_blocks_to_elimination(monkeypatch):
    pair = random_standard_pair(random.Random(SEED), WIDE, 5)
    sizes = []
    eliminate = mf3._eliminate

    def spy(a, pivot):
        sizes.append(a.rows)
        return eliminate(a, pivot)

    monkeypatch.setattr(mf3, "_eliminate", spy)
    for factor in (pair.P, pair.Q):
        lu_decompose(factor, "doolittle")
    # 16 = 2 * 8 = 4 * 4 = 8 * 2: eight 2x2 leaves per factor
    assert sizes == [2] * 16


def test_crout_block_step_rescales_only_2x2_leaves(monkeypatch):
    pair = random_standard_pair(random.Random(SEED), WIDE, 5)
    calls = []
    eliminate, to_crout = mf3._eliminate, mf3._to_crout

    def eliminate_spy(a, pivot):
        calls.append(("eliminate", a.rows))
        return eliminate(a, pivot)

    def to_crout_spy(L, U):
        calls.append(("to_crout", L.rows))
        return to_crout(L, U)

    monkeypatch.setattr(mf3, "_eliminate", eliminate_spy)
    monkeypatch.setattr(mf3, "_to_crout", to_crout_spy)
    for factor in (pair.P, pair.Q):
        res = lu_decompose(factor, "crout")
        assert res.L @ res.U == factor
        assert all(res.U[i, i].is_one for i in range(factor.rows))
    # the block step assembles Crout factors itself: only the 2x2 leaves are
    # eliminated and rescaled, never a whole factor
    assert calls == [("eliminate", 2), ("to_crout", 2)] * 16


def test_block_step_falls_back_on_crafted_blocks():
    ctx = VarContext("x y z")
    x, y, z = ctx.gens()

    def crafted(A, b, c, D):
        return RatMatrix.from_rows(
            ctx,
            [A[0] + [b, 0], A[1] + [0, b], [c, 0] + D[0], [0, c] + D[1]],
        )

    not_scalar = crafted([[x, 1], [0, y]], z, 2, [[y, 0], [1, x]])
    assert check_against_reference(not_scalar) == ["factored", "factored"]
    res = lu_decompose(not_scalar)
    assert res.L @ res.U == not_scalar
    # A @ D = x*y*I but b*c = x*y: t == 0 and the matrix is singular
    singular = crafted([[x, 0], [0, x]], x, y, [[y, 0], [0, y]])
    assert check_against_reference(singular) == ["raised", "raised"]
