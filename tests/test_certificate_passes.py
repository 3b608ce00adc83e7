"""The certificate's single passes against the per-entry operations they
replace (first_difference, check_product_is_scalar, RatMatrix.in_context),
parsing each entry text of a stored matrix once, and the MAX_SIZE bound."""

import json
import pathlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from polymf3 import (
    MF3,
    CertificateError,
    ContextError,
    DimensionError,
    Morphism,
    ParseError,
    Polynomial,
    RatMatrix,
    RationalFunction,
    VarContext,
    first_difference,
    tensor3,
)
from polymf3 import serialize
from polymf3.cli import main
from polymf3.matrix import MAX_SIZE
from polymf3.mf2 import check_product_is_scalar
from polymf3.parsing import parse_rational_function
from polymf3.serialize import factorization_to_obj, matrix_from_obj

GOLDEN = pathlib.Path(__file__).parent / "golden"
CTX = VarContext("x y z")
X, Y, Z = CTX.gens()
ONE = RationalFunction.one(CTX)


def _entry(rng: random.Random, ctx: VarContext) -> RationalFunction:
    """A zero, constant, polynomial or fraction entry; some have an exponent
    of 128 or more, so their keys are packed at 16 bits."""
    x, y, z = (Polynomial.variable(ctx, name) for name in "xyz")
    roll = rng.random()
    if roll < 0.2:
        return RationalFunction.zero(ctx)
    if roll < 0.3:
        return RationalFunction.from_value(ctx, rng.choice([1, -2, Fraction(3, 4)]))
    num = rng.choice([1, -1, 2, Fraction(1, 3)]) * x ** rng.randint(0, 2) * y ** rng.choice(
        [0, 1, 130]
    ) + rng.choice([0, 1, z])
    if roll < 0.65:
        return RationalFunction.from_value(ctx, num)
    return RationalFunction(num, rng.choice([x + 2 * z, 3 * y - z, z**128 + x]))


def _matrix(rng: random.Random, ctx: VarContext, rows: int, cols: int) -> RatMatrix:
    return RatMatrix(ctx, rows, cols, [_entry(rng, ctx) for _ in range(rows * cols)])


def entrywise_difference(a: RatMatrix, b: RatMatrix):
    """The oracle: the first (i, j) with a[i, j] != b[i, j], by the public
    RationalFunction equality, which also compares contexts."""
    if a.shape != b.shape:
        raise DimensionError("shapes differ")
    for i in range(a.rows):
        for j in range(a.cols):
            if a[i, j] != b[i, j]:
                return i, j
    return None


def rebuilt(m: RatMatrix, ctx: VarContext) -> list[RationalFunction]:
    """m's entries parsed again from their text: equal, but distinct objects."""
    return [parse_rational_function(str(e), ctx) for e in m._entries]


# -- first_difference ------------------------------------------------------------


@pytest.mark.parametrize("seed", range(40))
def test_first_difference_matches_the_entrywise_oracle(seed):
    rng = random.Random(seed)
    rows, cols = rng.randint(1, 4), rng.randint(1, 4)
    a = _matrix(rng, CTX, rows, cols)
    apart = VarContext("x y z")  # equal to CTX, built apart
    entries = rebuilt(a, apart)
    assert all(x is not y for x, y in zip(a._entries, entries) if not x.is_zero)
    for _ in range(rng.randint(0, 2)):
        entries[rng.randrange(len(entries))] = _entry(rng, apart)
    b = RatMatrix(apart, rows, cols, entries)
    assert first_difference(a, b) == entrywise_difference(a, b)
    assert first_difference(b, a) == entrywise_difference(b, a)
    assert first_difference(a, a) is None


def test_first_difference_sees_a_denominator_alone_and_wide_keys():
    wide = Y**130 + X
    assert wide._w == 16
    a = RatMatrix.from_rows(CTX, [[1, wide / (X + 2 * Z)], [wide, 0]])
    same = RatMatrix(VarContext("x y z"), 2, 2, rebuilt(a, VarContext("x y z")))
    assert first_difference(a, same) is None
    # only the denominator differs, then only one wide coefficient
    other_den = RatMatrix.from_rows(CTX, [[1, wide / (Y + Z)], [wide, 0]])
    assert a[0, 1].numerator == other_den[0, 1].numerator
    assert first_difference(a, other_den) == entrywise_difference(a, other_den) == (0, 1)
    other_coeff = RatMatrix.from_rows(CTX, [[1, wide / (X + 2 * Z)], [Y**130 + 2 * X, 0]])
    assert first_difference(a, other_coeff) == entrywise_difference(a, other_coeff) == (1, 0)


@pytest.mark.parametrize("names", ["x y w", "y x z", "x y z w"])
def test_first_difference_of_different_contexts_is_the_first_entry(names):
    a = RatMatrix.from_rows(CTX, [[1, 0], [0, 1]])
    b = RatMatrix.from_rows(VarContext(names), [[1, 0], [0, 1]])
    assert first_difference(a, b) == entrywise_difference(a, b) == (0, 0)


def test_first_difference_of_different_shapes_raises():
    a = RatMatrix.from_rows(CTX, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DimensionError, match=r"cannot compare \(2, 3\) with \(3, 2\)"):
        first_difference(a, a.transpose())


# -- check_product_is_scalar -------------------------------------------------------


def expected_matrix_error(label: str, product: RatMatrix, f: Polynomial) -> str:
    """The error text of the check as it was: product against a built f*I."""
    expected = RatMatrix.scalar(product.context, product.rows, f)
    i, j = entrywise_difference(product, expected)
    return str(CertificateError(label, i, j, product[i, j], expected[i, j]))


F = X * Y + 1


def _with(i, j, value) -> RatMatrix:
    rows = RatMatrix.scalar(CTX, 3, F).row_lists()
    rows[i][j] = value
    return RatMatrix.from_rows(CTX, rows)


@pytest.mark.parametrize(
    "product",
    [
        _with(1, 2, Z),  # a nonzero off-diagonal entry
        _with(1, 1, F + 1),  # a wrong diagonal numerator
        _with(2, 2, RationalFunction(F, X + 2)),  # f over a denominator other than 1
    ],
    ids=["off-diagonal", "diagonal-numerator", "diagonal-denominator"],
)
def test_scalar_check_errors_read_as_against_the_expected_matrix(product):
    assert product[2, 2].numerator == F  # the denominator case keeps f's terms
    with pytest.raises(CertificateError) as err:
        check_product_is_scalar("A1*A2*A3", product, F)
    assert str(err.value) == expected_matrix_error("A1*A2*A3", product, F)


def test_scalar_check_accepts_f_times_identity_and_reports_the_first_entry():
    check_product_is_scalar("P*Q", RatMatrix.scalar(CTX, 3, F), F)
    check_product_is_scalar("P*Q", RatMatrix.zeros(CTX, 2, 2), Polynomial.zero(CTX))
    rows = RatMatrix.scalar(CTX, 3, F).row_lists()
    rows[2][0], rows[1][1] = X, F * 2
    product = RatMatrix.from_rows(CTX, rows)
    with pytest.raises(CertificateError, match=r"P\*Q\[1\]\[1\]"):
        check_product_is_scalar("P*Q", product, F)


# -- RatMatrix.in_context ------------------------------------------------------


def entrywise_move(m: RatMatrix, ctx: VarContext) -> RatMatrix:
    return RatMatrix(ctx, m.rows, m.cols, [e.in_context(ctx) for e in m._entries])


def assert_moves_as_each_entry(m: RatMatrix, ctx: VarContext) -> RatMatrix:
    """m.in_context(ctx) against the per-entry move, which shares poly._mover,
    and against each entry's text parsed by name in ctx, which does not."""
    moved = m.in_context(ctx)
    assert moved.context == ctx and (moved is m) == (ctx == m.context)
    assert moved == entrywise_move(m, ctx)
    assert moved == RatMatrix(ctx, m.rows, m.cols, rebuilt(m, ctx))
    assert [str(e) for e in moved._entries] == [str(e.in_context(ctx)) for e in m._entries]
    zeros = [e for e in moved._entries if e.is_zero]
    assert moved is m or all(e is zeros[0] for e in zeros)  # a move shares one zero
    return moved


def test_in_context_rescales_a_denominator_whose_leading_term_changes():
    m = RatMatrix.from_rows(CTX, [[ONE / (X + 2 * Z), Y], [0, X / (X + 2 * Z)]])
    assert m[0, 0].denominator.leading_coefficient() == 1
    reordered = VarContext("z y x")
    moved = assert_moves_as_each_entry(m, reordered)
    x, _, z = (Polynomial.variable(reordered, name) for name in "xyz")
    # z now leads x + 2z, so the entry is rescaled to (1/2) / (z + x/2)
    assert moved[0, 0].denominator == z + Fraction(1, 2) * x
    assert moved[0, 0].numerator == Polynomial.constant(reordered, Fraction(1, 2))


def test_in_context_of_constant_zero_and_wide_entries():
    m = RatMatrix.from_rows(
        CTX,
        [[0, 5, Fraction(-3, 4)], [Y**200 * X + 1, X**300 / (Y + 1), 0], [Z**40000, 1, Z / Y**129]],
    )
    assert {e.numerator._w for e in m._entries} == {8, 16, 24}
    for names in ["z y x", "u x y z", "y z x u v"]:
        assert_moves_as_each_entry(m, VarContext(names))


def test_in_context_without_an_unused_variable():
    m = RatMatrix.from_rows(CTX, [[X * Y + 1, 0], [ONE / (Y - 2 * X), X**130]])
    moved = assert_moves_as_each_entry(m, VarContext("y x"))
    assert moved.in_context(CTX) == m


def test_in_context_without_a_used_variable_raises_as_each_entry():
    m = RatMatrix.from_rows(CTX, [[X, 1], [Y / (Z + 1), 0]])
    target = VarContext("y x")
    with pytest.raises(ContextError) as per_entry:
        entrywise_move(m, target)
    with pytest.raises(ContextError) as whole:
        m.in_context(target)
    assert str(whole.value) == str(per_entry.value) == "variable 'z' is not in this context"


@pytest.mark.parametrize("seed", range(20))
def test_in_context_matches_each_entry_on_random_contexts(seed):
    rng = random.Random(seed)
    m = _matrix(rng, CTX, rng.randint(1, 3), rng.randint(1, 3))
    names = ["x", "y", "z"] + rng.sample(["u", "v", "w"], rng.randint(0, 2))
    rng.shuffle(names)
    assert_moves_as_each_entry(m, VarContext(names))


# -- parsing stored matrices -----------------------------------------------------


@pytest.fixture
def parse_calls(monkeypatch):
    calls = Counter()

    def spy(text, ctx):
        calls[text] += 1
        return parse_rational_function(text, ctx)

    monkeypatch.setattr(serialize, "parse_rational_function", spy)
    return calls


def test_each_distinct_entry_text_is_parsed_once(parse_calls):
    grid = [["0", "x", "0"], ["x", "0", "1/(x + y)"], ["0", "x", "1/(x + y)"]]
    m = matrix_from_obj({"rows": 3, "cols": 3, "entries": grid}, CTX)
    assert parse_calls == {"0": 1, "x": 1, "1/(x + y)": 1}
    parsed = [parse_rational_function(text, CTX) for row in grid for text in row]
    assert m == RatMatrix(CTX, 3, 3, parsed)


@pytest.mark.parametrize("bad", ["x +", "x^", 7, {"x": 1}], ids=["sum", "power", "int", "object"])
def test_a_malformed_repeated_entry_fails_as_before(bad):
    with pytest.raises((ParseError, TypeError, KeyError)) as once:
        parse_rational_function(bad, CTX)
    with pytest.raises(type(once.value)) as err:
        matrix_from_obj({"rows": 2, "cols": 2, "entries": [[bad, "x"], ["x", bad]]}, CTX)
    assert str(err.value) == str(once.value)


# -- the size bound ----------------------------------------------------------------


def diagonal_triple(ctx: VarContext, n: int) -> MF3:
    """(I, I, v*I) for the first variable v of ctx: a cheap MF3 of size n."""
    v = ctx.gens()[0]
    one = RatMatrix.identity(ctx, n)
    return MF3(one, one, RatMatrix.scalar(ctx, n, v), v)


def test_tensor3_refuses_a_product_above_the_bound_before_any_work(monkeypatch):
    X16, Y17 = diagonal_triple(VarContext("a"), 16), diagonal_triple(VarContext("b"), 17)

    def forbidden(*args):
        raise AssertionError("tensor3 moved or multiplied before refusing")

    for cls, name in [(RatMatrix, "in_context"), (RatMatrix, "kron"), (Polynomial, "in_context")]:
        monkeypatch.setattr(cls, name, forbidden)
    with pytest.raises(ValueError, match=r"272x272; at most 256x256"):
        tensor3(X16, Y17)


def write(tmp_path, name, artifact) -> str:
    path = tmp_path / name
    path.write_text(serialize.to_json(factorization_to_obj(artifact)))
    return str(path)


def test_tensor3_at_the_bound_writes_an_artifact_that_loads(tmp_path, capsys):
    assert MAX_SIZE == 256
    left = write(tmp_path, "a.json", diagonal_triple(VarContext("a"), 128))
    right = write(tmp_path, "b.json", diagonal_triple(VarContext("b"), 2))
    out = tmp_path / "t.json"
    assert main(["tensor3", left, right, "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["size"] == 256
    assert main(["verify", str(out)]) == 0
    assert "verification: PASS" in capsys.readouterr().out


def test_cli_tensor3_above_the_bound_exits_2_with_one_line(tmp_path, capsys):
    left = write(tmp_path, "a.json", diagonal_triple(VarContext("a"), 16))
    right = write(tmp_path, "b.json", diagonal_triple(VarContext("b"), 17))
    assert main(["tensor3", left, right]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tensor3 would be 272x272; at most 256x256 is supported\n"


def claiming(tmp_path, name, n) -> str:
    """An MF3 object whose matrices claim n x n: grids of "0", which would
    fail the certificate."""
    grid = {"rows": n, "cols": n, "entries": [["0"] * n for _ in range(n)]}
    obj = {"f": "x", "size": n, "A1": grid, "A2": grid, "A3": grid, "vars": ["x"]}
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def test_cli_tensor3_refuses_claimed_shapes_before_parsing_or_certifying(tmp_path, capsys, monkeypatch):
    def forbidden(*args):
        raise AssertionError("parsed or certified before refusing")

    for name in ("parse_rational_function", "parse_polynomial"):
        monkeypatch.setattr(serialize, name, forbidden)
    monkeypatch.setattr(MF3, "__init__", forbidden)
    left, right = claiming(tmp_path, "a.json", 64), claiming(tmp_path, "b.json", 64)
    assert main(["tensor3", left, right]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tensor3 would be 4096x4096; at most 256x256 is supported\n"


@pytest.mark.parametrize("position", ["first", "second"])
def test_cli_tensor3_refuses_another_kind_before_parsing_or_certifying(capsys, monkeypatch, position):
    def forbidden(*args):
        raise AssertionError("parsed or certified before refusing")

    monkeypatch.setattr(serialize, "parse_rational_function", forbidden)
    for cls in (Morphism, MF3):
        monkeypatch.setattr(cls, "__init__", forbidden)
    morphism, triple = str(GOLDEN / "morphism.json"), str(GOLDEN / "factor3-default.json")
    files = [morphism, triple] if position == "first" else [triple, morphism]
    assert main(["tensor3", *files]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {morphism} does not hold a 3-matrix factorization\n"


def test_cli_tensor3_reports_a_malformed_first_file_before_an_unreadable_second(tmp_path, capsys):
    # the second file is read before the first is parsed, but its error still comes second
    left = tmp_path / "a.json"
    left.write_text(json.dumps({"A1": {}, "vars": ["x"]}))
    assert main(["tensor3", str(left), str(tmp_path / "missing.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: malformed mf3 artifact: 'f'\n"


@pytest.mark.parametrize("rows, cols", [(257, 1), (1, 257), (257, 257)])
def test_a_stored_matrix_above_the_bound_is_refused_before_parsing(parse_calls, rows, cols):
    grid = [["0"] * cols for _ in range(rows)]
    with pytest.raises(ParseError, match=f"matrix is {rows}x{cols}; at most 256x256"):
        matrix_from_obj({"rows": rows, "cols": cols, "entries": grid}, CTX)
    assert not parse_calls


def test_a_stored_matrix_at_the_bound_loads(parse_calls):
    grid = [["1" if i == j else "0" for j in range(256)] for i in range(256)]
    m = matrix_from_obj({"rows": 256, "cols": 256, "entries": grid}, CTX)
    assert m == RatMatrix.identity(CTX, 256)
    assert parse_calls == {"0": 1, "1": 1}


def test_cli_verify_of_an_oversized_artifact_exits_2_with_one_line(tmp_path, capsys):
    obj = factorization_to_obj(diagonal_triple(CTX, 2))
    big = {"rows": 300, "cols": 300, "entries": [["0"] * 300 for _ in range(300)]}
    obj.update(A1=big, A2=big, A3=big, size=300)
    path = tmp_path / "big.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: matrix is 300x300; at most 256x256 is supported\n"
