"""The exact text of reachable error and failure paths that no other test runs."""

import json
import pathlib

import pytest

from polymf3 import (
    MF2,
    MF3,
    ContextError,
    DimensionError,
    Monomial,
    Morphism,
    PermutationMatrix,
    Polynomial,
    RationalFunction,
    RatMatrix,
    VarContext,
    add_factorizations,
    lu_decompose,
    perfect_shuffle,
    promote,
    standard_method,
)
from polymf3.cli import main
from polymf3.context import same_context
from polymf3.laws import SuiteResult
from polymf3.serialize import artifact_to_obj

GOLDEN = pathlib.Path(__file__).parent / "golden"
X_CTX = VarContext("x y")
Y_CTX = VarContext("u v")


def matrix(ctx, rows):
    return RatMatrix.from_rows(ctx, rows)


def pair(ctx, f):
    """The 1x1 factorization ([f], [1]) of f."""
    return MF2(matrix(ctx, [[f]]), matrix(ctx, [[1]]), f)


# -- factorization shapes ---------------------------------------------------------


def test_factors_of_different_sizes_are_refused():
    x, y = X_CTX.gens()
    with pytest.raises(DimensionError) as err:
        MF2(matrix(X_CTX, [[x]]), matrix(X_CTX, [[1, 0], [0, 1]]), x)
    assert str(err.value) == "factors must be square and equal-sized, got (1, 1) and (2, 2)"
    row = matrix(X_CTX, [[x, y]])
    with pytest.raises(DimensionError) as err:
        MF3(row, row, row, x)
    assert str(err.value) == (
        "factors must be square and equal-sized, got (1, 2), (1, 2), (1, 2)"
    )


def test_a_one_sided_pair_is_not_two_sided():
    P = matrix(X_CTX, [[0, 1], [0, 0]])
    Q = matrix(X_CTX, [[1, 0], [0, 0]])
    X = MF2(P, Q, Polynomial.zero(X_CTX))
    assert not X.is_two_sided()


# -- construction arguments ---------------------------------------------------------


def test_construction_arguments_are_refused_with_their_text():
    x, y = X_CTX.gens()
    with pytest.raises(ValueError, match="^at least one split is required$"):
        standard_method(x + y, [])
    M = matrix(X_CTX, [[x, y], [1, x]])
    with pytest.raises(ValueError, match="^unknown LU method 'gauss'$"):
        lu_decompose(M, "gauss")
    with pytest.raises(DimensionError) as err:
        lu_decompose(matrix(X_CTX, [[x, y]]))
    assert str(err.value) == "LU decomposition needs a square matrix, got (1, 2)"
    with pytest.raises(ValueError) as err:
        promote(standard_method(x * y + y), "third")
    assert str(err.value) == "which must be 'first' or 'second', got 'third'"


# -- morphisms ------------------------------------------------------------------------


def test_a_morphism_needs_one_target_and_components_of_its_shape():
    x, y = X_CTX.gens()
    X = pair(X_CTX, x)
    with pytest.raises(ValueError) as err:
        Morphism(X, pair(X_CTX, y), matrix(X_CTX, [[1]]), matrix(X_CTX, [[1]]))
    assert str(err.value) == "source and target factor different polynomials: x vs y"
    Z = standard_method(x * y + y)  # size 2
    one = matrix(X_CTX, [[1]])
    with pytest.raises(DimensionError) as err:
        Morphism(Z, Z, RatMatrix.identity(X_CTX, 2), one)
    assert str(err.value) == "m1 must be 2x2, got 1x1"


# -- contexts ------------------------------------------------------------------------


def test_operands_from_different_contexts_are_refused():
    x, _ = X_CTX.gens()
    u, _ = Y_CTX.gens()
    with pytest.raises(ContextError) as err:
        same_context(x, u)
    assert str(err.value) == "mixed variable contexts: VarContext(x, y) vs VarContext(u, v)"
    with pytest.raises(ContextError, match="^factorizations from different variable contexts$"):
        pair(X_CTX, x).direct_sum(pair(Y_CTX, u))
    with pytest.raises(ContextError, match="^factorizations from different variable contexts$"):
        add_factorizations(pair(X_CTX, x), pair(Y_CTX, u))


# -- matrix products ------------------------------------------------------------------


def test_star_scales_a_matrix_and_refuses_a_matrix():
    x, y = X_CTX.gens()
    M = matrix(X_CTX, [[x, y / x], [1, 0]])
    with pytest.raises(TypeError):
        M * M
    three = M @ RatMatrix.scalar(X_CTX, 2, 3)
    assert M * 3 == three
    assert 3 * M == three


# -- the laws verb's failure report ------------------------------------------------------


def test_laws_reports_the_first_failure_and_how_to_reproduce_it(monkeypatch, capsys):
    failures = [(3, "target x != y"), (5, "later")]
    monkeypatch.setattr(
        "polymf3.cli.run_laws",
        lambda seed, cases: [SuiteResult("associativity", cases, failures)],
    )
    assert main(["laws", "--seed", "4", "--cases", "6"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "seed: 4  cases per suite: 6",
        "associativity     6 cases  FAIL",
        "  first failure at case 3: target x != y",
        "  reproduce with: polymf3 laws --seed 4 --cases 6",
        "result: FAIL",
    ]


# -- a morphism artifact's claimed f ------------------------------------------------------


def test_a_long_claimed_f_gives_a_bounded_fail_line(tmp_path, capsys):
    obj = json.loads((GOLDEN / "morphism.json").read_text())
    obj["f"] = " + ".join(f"x^{i}" for i in range(1, 2001))
    path = tmp_path / "long-f-morphism.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    last = captured.out.splitlines()[-1]
    assert len(last) < 200
    # the claim is cut to 40 characters; the source's target stays whole
    assert last == (
        "verification: FAIL (morphism claims f = x^2000 + x^1999 + x^1998 + x^1997 + x^19..., "
        "but its source factors x^2*u^2*w + x^2*u*v*w + y^2*u^2*w + y^2*u*v*w)"
    )


# -- matrix construction and indexing ------------------------------------------------


def test_a_matrix_needs_positive_dimensions():
    for build in (
        lambda: RatMatrix(X_CTX, 0, 1, []),
        lambda: RatMatrix.zeros(X_CTX, 0, 1),
        lambda: RatMatrix.scalar(X_CTX, 0, 1),
    ):
        with pytest.raises(DimensionError) as err:
            build()
        assert str(err.value) == "matrix dimensions must be positive"


def test_matrix_entries_are_refused_with_their_text():
    one = RationalFunction.one(X_CTX)
    with pytest.raises(DimensionError) as err:
        RatMatrix(X_CTX, 2, 2, [one] * 3)
    assert str(err.value) == "expected 4 entries, got 3"
    with pytest.raises(TypeError) as err:
        RatMatrix(X_CTX, 1, 2, [one, 1])
    assert str(err.value) == "matrix entry 1 is not a RationalFunction"
    with pytest.raises(ContextError) as err:
        RatMatrix(X_CTX, 1, 2, [one, RationalFunction.one(Y_CTX)])
    assert str(err.value) == "matrix entries from different variable contexts"


def test_matrix_rows_are_refused_with_their_text():
    with pytest.raises(DimensionError) as err:
        matrix(X_CTX, [])
    assert str(err.value) == "matrix needs at least one row and column"
    with pytest.raises(DimensionError) as err:
        matrix(X_CTX, [[1, 2], [3]])
    assert str(err.value) == "ragged rows"


def test_an_entry_out_of_range_is_an_index_error():
    with pytest.raises(IndexError) as err:
        RatMatrix.identity(X_CTX, 2)[2, 0]
    assert str(err.value) == "entry (2, 0) out of range for (2, 2)"


def test_permutations_are_refused_with_their_text():
    with pytest.raises(ValueError) as err:
        PermutationMatrix([0, 0])
    assert str(err.value) == "(0, 0) is not a permutation"
    with pytest.raises(ValueError) as err:
        perfect_shuffle(0, 2)
    assert str(err.value) == "shuffle block sizes must be positive"


# -- polynomials ----------------------------------------------------------------------


def test_polynomial_arguments_are_refused_with_their_text():
    x, y = X_CTX.gens()
    with pytest.raises(ValueError) as err:
        Monomial({0: -1})
    assert str(err.value) == "negative exponent in monomial"
    with pytest.raises(ValueError) as err:
        Polynomial.zero(X_CTX).leading_coefficient()
    assert str(err.value) == "the zero polynomial has no leading term"
    with pytest.raises(ValueError) as err:
        x ** -1
    assert str(err.value) == "polynomial exponent must be a nonnegative integer"
    with pytest.raises(ValueError) as err:
        (x + y).evaluate({"x": 1})
    assert str(err.value) == "no value supplied for variable 'y'"


# -- serialization --------------------------------------------------------------------


def test_an_object_that_is_no_artifact_cannot_be_serialized():
    with pytest.raises(TypeError) as err:
        artifact_to_obj(object())
    assert str(err.value).startswith("cannot serialize")


def test_a_doolittle_claim_on_a_crout_factor_fails_verification(tmp_path, capsys):
    obj = json.loads((GOLDEN / "factor3-crout-first.json").read_text())
    obj["provenance"]["method"] = "doolittle"
    path = tmp_path / "claims-doolittle.json"
    path.write_text(json.dumps(obj))
    assert main(["verify", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[-1] == (
        "verification: FAIL (provenance claims doolittle on the first factor, "
        "but A1 has a non-unit diagonal)"
    )
