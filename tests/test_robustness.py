"""verify checks every claim of an artifact; hostile expressions end cleanly."""

import json
import pathlib
import time

import pytest

from polymf3 import MF2, Morphism3, RatMatrix, VarContext, gcd, promote
from polymf3.cli import main
from polymf3.mf2 import MAX_SPLITS
from polymf3.parsing import MAX_COEFFICIENT_BITS, MAX_NESTING
from polymf3.serialize import morphism_to_obj, to_json
from polymf3.serialize import factorization_to_obj

SQUARES = ["factor3", "x^2 + y^2", "--splits", "x*x + y*y", "--format", "json"]
ZERO_PIVOT = ["factor3", "z^2", "--splits", "x*y - x*y + z*z", "--pivot", "--format", "json"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stored(capsys, tmp_path, argv) -> tuple:
    path = tmp_path / "artifact.json"
    assert main(argv + ["--out", str(path)]) == 0
    capsys.readouterr()
    return path, json.loads(path.read_text())


def provenance(method="doolittle", decomposed="first"):
    return {"provenance": {"method": method, "decomposed": decomposed, "pivoted": False}}


@pytest.mark.parametrize(
    "change, reason",
    [
        ({"size": 99}, "artifact claims size 99, but its matrices are 2x2"),
        (provenance(method="crout"), "A2 has a non-unit diagonal"),
        (provenance(method="bogus"), "provenance method 'bogus' is not doolittle or crout"),
        (provenance(decomposed="third"), "provenance decomposed 'third' is not first or second"),
        (provenance(decomposed="second"), "A3 is not upper triangular"),
    ],
    ids=["size", "doolittle-as-crout", "unknown-method", "unknown-factor", "wrong-factor"],
)
def test_verify_fails_a_false_claim(tmp_path, capsys, change, reason):
    path, obj = stored(capsys, tmp_path, SQUARES)
    assert obj["provenance"] == provenance()["provenance"]
    obj.update(change)
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and err == ""
    last = out.splitlines()[-1]
    assert last.startswith("verification: FAIL (") and reason in last


def test_verify_accepts_an_artifact_without_size(tmp_path, capsys):
    path, obj = stored(capsys, tmp_path, SQUARES)
    del obj["size"]
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and "verification: PASS" in out


@pytest.mark.parametrize(
    "key, value, reason",
    [
        ("size", "2", 'size "2" is not an integer'),
        ("size", 2.0, "size 2.0 is not an integer"),
        ("size", True, "size true is not an integer"),
        ("size", None, "size null is not an integer"),
        ("pivoted", "false", 'pivoted "false" is not true or false'),
        ("pivoted", "no", 'pivoted "no" is not true or false'),
        ("pivoted", 1, "pivoted 1 is not true or false"),
        ("pivoted", None, "pivoted null is not true or false"),
    ],
    ids=[
        "size-string", "size-float", "size-bool", "size-null",
        "pivoted-string-false", "pivoted-string-no", "pivoted-one", "pivoted-null",
    ],
)
def test_a_mistyped_claim_is_a_malformed_artifact(tmp_path, capsys, key, value, reason):
    path, obj = stored(capsys, tmp_path, SQUARES)
    (obj if key == "size" else obj["provenance"])[key] = value
    path.write_text(json.dumps(obj))
    for argv in (["verify", str(path)], ["tensor3", str(path), str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: malformed artifact: {reason}\n"


def test_tensor3_fails_a_false_provenance_with_exit_1(tmp_path, capsys):
    path, obj = stored(capsys, tmp_path, SQUARES)
    obj.update(provenance(method="crout"))
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "tensor3", str(path), str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: provenance claims crout") and err.count("\n") == 1


def test_verify_fails_an_unrecorded_pivot(tmp_path, capsys):
    path, obj = stored(capsys, tmp_path, ZERO_PIVOT)
    assert run(capsys, "verify", str(path))[0] == 0
    obj["provenance"]["pivoted"] = False
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "A1 is not lower triangular)" in out


def identity_morphism_obj() -> dict:
    ctx = VarContext("x y")
    x, y = ctx.gens()
    pair = MF2(
        RatMatrix.from_rows(ctx, [[x, -y], [y, x]]),
        RatMatrix.from_rows(ctx, [[x, y], [-y, x]]),
        x**2 + y**2,
    )
    return morphism_to_obj(Morphism3.identity(promote(pair)))


def test_verify_reports_a_context_mismatch(tmp_path, capsys):
    obj = identity_morphism_obj()
    obj["vars"] = ["x", "y", "z"]
    path = tmp_path / "m.json"
    path.write_text(to_json(obj))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and err == ""
    assert out.splitlines()[-1] == (
        "verification: FAIL (matrices from different variable contexts)"
    )


@pytest.mark.parametrize("key", ["source", "target"])
def test_morphism_with_a_non_object_factorization_exits_2(tmp_path, capsys, key):
    obj = identity_morphism_obj()
    obj[key] = [1]
    path = tmp_path / "m.json"
    path.write_text(to_json(obj))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err == "error: malformed artifact: nested artifact is not a JSON object\n"


@pytest.mark.parametrize(
    "expr, reason",
    [
        ("(" * 2000 + "x" + ")" * 2000, f"nested more than {MAX_NESTING} levels deep"),
        ("0" + "-" * 3000 + "x", f"nested more than {MAX_NESTING} levels deep"),
        ("(x+y)^100000", "expansion needs more than"),
        ("(x+y)^500", "expansion needs more than"),
        ("*".join(f"(a{i}+b{i})" for i in range(20)), "expansion needs more than"),
        ("((2^1000)^1000)^1000", f"coefficients may exceed {MAX_COEFFICIENT_BITS} bits"),
        ("2^60000*2^60000", f"coefficients may exceed {MAX_COEFFICIENT_BITS} bits"),
        ("(x+y)^150", f"151 summands would give size 2^150; at most {MAX_SPLITS}"),
        ("*".join(f"(a{i}+b{i})" for i in range(13)), f"at most {MAX_SPLITS} are supported"),
    ],
    ids=[
        "parentheses", "minus-signs", "large-power", "power-expansion", "product-expansion",
        "nested-constant-powers", "constant-product", "binomial-power-splits",
        "binomial-product-splits",
    ],
)
def test_hostile_expression_exits_2_quickly(capsys, expr, reason):
    start = time.monotonic()
    code, out, err = run(capsys, "factor2", expr)
    assert time.monotonic() - start < 2
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: ") and reason in err


def test_nesting_below_the_limit_parses(capsys):
    depth = MAX_NESTING - 1
    code, out, _ = run(capsys, "factor2", "(" * depth + "x*y" + ")" * depth)
    assert code == 0 and "2-matrix factorization of f = x*y" in out


@pytest.mark.parametrize(
    "expr", ["x^1000*x^1000", "x^99999999999999999999", "x^600*y + x*y^700"]
)
def test_high_degree_artifacts_verify_and_tensor(tmp_path, capsys, expr):
    # exponents alone are not bounded, so whatever factor2/factor3 writes loads again
    path = tmp_path / "f2.json"
    assert main(["factor2", expr, "--format", "json", "--out", str(path)]) == 0
    code, out, err = run(capsys, "verify", str(path))
    assert code == 0 and err == "" and "verification: PASS" in out
    path3 = tmp_path / "f3.json"
    assert main(["factor3", expr, "--format", "json", "--out", str(path3)]) == 0
    product = tmp_path / "t.json"
    assert main(["tensor3", str(path3), str(path3), "--format", "json", "--out", str(product)]) == 0
    code, out, _ = run(capsys, "verify", str(product))
    assert code == 0 and "verification: PASS" in out


@pytest.mark.parametrize(
    "names", [["x", "x"], ["x", "1y"], "x y"], ids=["duplicate", "invalid", "string"]
)
@pytest.mark.parametrize("verb", ["verify", "tensor3"])
def test_malformed_vars_exit_2_in_both_verbs(tmp_path, capsys, verb, names):
    path, obj = stored(capsys, tmp_path, SQUARES)
    obj["vars"] = names
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, verb, *[str(path)] * (1 if verb == "verify" else 2))
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: malformed artifact: ")


def test_verify_fails_a_morphism_between_factorizations_of_different_targets(tmp_path, capsys):
    obj = identity_morphism_obj()
    ctx = VarContext("x y")
    x, y = ctx.gens()
    doubled = MF2(
        RatMatrix.from_rows(ctx, [[2 * x, -2 * y], [2 * y, 2 * x]]),
        RatMatrix.from_rows(ctx, [[x, y], [-y, x]]),
        2 * (x**2 + y**2),
    )
    obj["target"] = factorization_to_obj(promote(doubled))
    path = tmp_path / "m.json"
    path.write_text(to_json(obj))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and err == ""
    assert out.splitlines()[-1].startswith(
        "verification: FAIL (source and target factor different polynomials"
    )


def test_an_unwritable_out_path_exits_1_with_one_line(tmp_path, capsys):
    target = tmp_path / "missing" / "f.json"
    code, out, err = run(capsys, "factor2", "x + y", "--out", str(target))
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1
    assert not target.exists()


@pytest.mark.parametrize(
    "new, pos", [("x^\u0663", 2), ("\u00b2", 0)], ids=["arabic-indic-exponent", "superscript-two"]
)
def test_a_non_ascii_digit_is_a_parse_error_in_factor2_and_verify(tmp_path, capsys, new, pos):
    path, obj = stored(capsys, tmp_path, ["factor2", "x^3 + y^3", "--format", "json"])
    assert obj["P"]["entries"][0][0] == "x^3"
    obj["P"]["entries"][0][0] = new
    path.write_text(json.dumps(obj))
    expected = f"error: unexpected character {new[pos]!r} (at position {pos})\n"
    for argv in (["factor2", new + " + y^3"], ["verify", str(path)]):
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", expected)


def test_gcd_with_huge_exponents_ends_at_once():
    x, y = VarContext("x y").gens()
    big = x ** (10**20)
    start = time.monotonic()
    assert gcd(big * y + 1, big + y**2 + 1).is_one
    assert time.monotonic() - start < 2


# tests/golden/factor2-monomials.json with P[0][0] replaced by the canonical
# sum of three small random rational functions over x, y, z; the gcd that
# parsing it needs ran for over a minute in the subresultant PRS
HOSTILE = pathlib.Path(__file__).parent / "data" / "factor2-monomials-hostile-entry.json"


def test_verify_fails_a_hostile_entry_within_10_s(capsys):
    start = time.monotonic()
    code, out, err = run(capsys, "verify", str(HOSTILE))
    assert time.monotonic() - start < 10
    assert code == 1 and err == ""
    assert out.splitlines()[-1].startswith("verification: FAIL (certificate failed: P*Q[0][0]")
