"""verify checks every claim of an artifact; hostile expressions end cleanly."""

import json
import pathlib
import subprocess
import sys
import time

import pytest

from polymf3 import MF2, Morphism3, RatMatrix, VarContext, gcd, promote
from polymf3.cli import main
from polymf3.mf2 import MAX_SPLITS
from polymf3.parsing import MAX_COEFFICIENT_BITS, MAX_EXPONENT_DIGITS, MAX_NESTING
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


@pytest.mark.parametrize(
    "keys, value, reason",
    [
        (("rows", "cols"), True, "rows true is not an integer"),
        (("cols",), True, "cols true is not an integer"),
        (("rows",), 1.0, "rows 1.0 is not an integer"),
    ],
    ids=["rows-and-cols-bool", "cols-bool", "rows-float"],
)
def test_a_mistyped_matrix_shape_is_a_malformed_matrix(tmp_path, capsys, keys, value, reason):
    # a 1x1 factorization, so that a shape true would equal 1
    path, obj = stored(capsys, tmp_path, ["factor2", "x*y", "--format", "json"])
    for name in ("P", "Q"):
        obj[name].update(dict.fromkeys(keys, value))
    del obj["size"]
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err == f"error: malformed matrix object: {reason}\n"


def test_json_nested_too_deeply_is_a_one_line_parse_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    triple = str(stored(capsys, tmp_path, ["factor3", "x*y", "--format", "json"])[0])
    for argv in (["verify", str(deep)], ["tensor3", str(deep), triple], ["tensor3", triple, str(deep)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {deep} is not valid JSON: ") and "recursion" in err
        assert err.count("\n") == 1


def test_a_file_that_is_not_utf8_is_a_one_line_parse_error_naming_it(tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{}")
    triple = str(stored(capsys, tmp_path, ["factor3", "x*y", "--format", "json"])[0])
    for argv in (["verify", str(bad)], ["tensor3", str(bad), triple], ["tensor3", triple, str(bad)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad} is not UTF-8 text: ") and err.count("\n") == 1


LONG_LIST, LONG_STRING = list(range(5000)), "9" * 10_000


@pytest.mark.parametrize(
    "field, value",
    [
        ("rows", LONG_LIST),
        ("rows", LONG_STRING),
        ("f", LONG_LIST),
        ("size", LONG_LIST),
        ("size", LONG_STRING),
        ("pivoted", LONG_LIST),
        ("pivoted", LONG_STRING),
    ],
    ids=["rows-list", "rows-string", "f-list", "size-list", "size-string", "pivoted-list", "pivoted-string"],
)
def test_a_long_mistyped_value_is_echoed_as_a_short_prefix(tmp_path, capsys, field, value):
    path, obj = stored(capsys, tmp_path, SQUARES)
    {"rows": obj["A1"], "f": obj, "size": obj, "pivoted": obj["provenance"]}[field][field] = value
    path.write_text(json.dumps(obj))
    for argv in (["verify", str(path)], ["tensor3", str(path), str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert f" {field} {json.dumps(value)[:40]}... is not " in err
        assert err.count("\n") == 1 and len(err) < 150


NOT_ROWS ="malformed matrix object: entries is not a list of rows"
NOT_OBJECT = "malformed matrix object: not a JSON object"


@pytest.mark.parametrize(
    "change, reason",
    [
        (lambda obj: obj["A1"].update(entries="1"), NOT_ROWS),
        (lambda obj: obj["A1"].update(entries=["1"]), NOT_ROWS),
        # a non-string entry fails as a direct parse of it does
        (lambda obj: obj["A1"].update(entries=[[1]]), "expected a string, got int"),
        (lambda obj: obj["A1"].update(entries=[[None]]), "expected a string, got NoneType"),
        (lambda obj: obj.update(f=5), "malformed artifact: f 5 is not a string"),
        (
            lambda obj: obj["A1"].update(entries=[["1", "0"]]),
            "malformed matrix object: entry grid does not match shape",
        ),
        (lambda obj: obj.update(A1=1), NOT_OBJECT),
        (lambda obj: obj.update(A1="x"), NOT_OBJECT),
        (lambda obj: obj.update(A1=[1]), NOT_OBJECT),
        (lambda obj: obj["A1"].pop("rows"), "malformed matrix object: missing 'rows'"),
    ],
    ids=[
        "string-grid", "string-row", "int-entry", "null-entry", "int-f", "grid-shape",
        "int-matrix", "string-matrix", "list-matrix", "no-rows",
    ],
)
def test_a_mistyped_entry_grid_or_target_is_malformed(tmp_path, capsys, change, reason):
    # a 1x1 triple: a string "1" would pass for a 1x1 grid of its characters
    path, obj = stored(capsys, tmp_path, ["factor3", "x*y", "--format", "json"])
    change(obj)
    path.write_text(json.dumps(obj))
    for argv in (["verify", str(path)], ["tensor3", str(path), str(path)]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        assert err == f"error: {reason}\n"


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


def test_verify_checks_a_morphisms_f_against_its_source(tmp_path, capsys):
    golden = pathlib.Path(__file__).parent / "golden"
    obj = json.loads((golden / "morphism.json").read_text())
    path = tmp_path / "m.json"
    obj["f"] = "x + 1"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and err == ""
    assert out.splitlines()[1] == "f: x + 1"
    assert out.splitlines()[-1] == (
        "verification: FAIL (morphism claims f = x + 1, but its source factors "
        "x^2*u^2*w + x^2*u*v*w + y^2*u^2*w + y^2*u*v*w)"
    )
    # the same polynomial written another way is the same claim
    obj["f"] = "(x^2 + y^2)*(u^2*w + u*v*w)"
    path.write_text(json.dumps(obj))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0 and out.splitlines()[-1].startswith("verification: PASS")
    obj["f"] = 5
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == ""
    assert err == "error: malformed artifact: f 5 is not a string\n"


def _long_name_cases():
    def f_name(obj):
        obj["f"] = "x" * 10_000

    def entry_name(obj):
        obj["P"]["entries"][0][0] = "z" * 5000

    def f_unexpected(obj):
        obj["f"] = "x " + "1" * 5000

    def vars_invalid(obj):
        obj["vars"].append("1" + "a" * 4999)

    def vars_duplicate(obj):
        obj["vars"] += ["a" * 5000, "a" * 5000]

    return [
        (f_name, "unknown variable 'xxxx"),
        (entry_name, "unknown variable 'zzzz"),
        (f_unexpected, "unexpected '1111"),
        (vars_invalid, "invalid variable name: '1aaa"),
        (vars_duplicate, "duplicate variable name: 'aaaa"),
    ]


@pytest.mark.parametrize(
    "change, echo", _long_name_cases(),
    ids=["f-name", "entry-name", "f-unexpected", "vars-invalid", "vars-duplicate"],
)
def test_a_long_value_in_a_stored_text_is_echoed_as_a_short_prefix(tmp_path, change, echo):
    root = pathlib.Path(__file__).resolve().parents[1]
    obj = json.loads((root / "tests" / "golden" / "factor2-paper.json").read_text())
    change(obj)
    path = tmp_path / "long.json"
    path.write_text(json.dumps(obj))
    done = subprocess.run(
        [sys.executable, "-m", "polymf3.cli", "verify", str(path)],
        env={"PYTHONPATH": str(root / "src")}, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.count("\n") == 1 and len(done.stderr) < 300
    assert "Traceback" not in done.stderr
    assert echo in done.stderr and "..." in done.stderr


def test_a_long_provenance_value_is_echoed_as_a_short_prefix(tmp_path, capsys):
    path, obj = stored(capsys, tmp_path, SQUARES)
    obj["provenance"]["method"] = "m" * 5000
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and err == ""
    assert out.splitlines()[-1] == (
        f"verification: FAIL (provenance method '{'m' * 39}... is not doolittle or crout)"
    )


def test_a_short_echoed_value_keeps_its_whole_text(tmp_path, capsys):
    code, _, err = run(capsys, "factor2", "x + y", "--vars", "x,x")
    assert code == 2 and err == "error: duplicate variable name: 'x'\n"
    code, _, err = run(capsys, "factor2", "x + w", "--vars", "x,y")
    assert code == 2 and err == "error: unknown variable 'w' (at position 4)\n"
    code, _, err = run(capsys, "factor2", "x y")
    assert code == 2 and err == "error: unexpected 'y' (at position 2)\n"


# -- coefficients past int()'s and str()'s digit limit ---------------------------


def _digit_limit():
    # sys.get_int_max_str_digits exists from Python 3.11 on
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


def test_a_coefficient_of_6021_digits_is_written_verified_and_reloaded(tmp_path, capsys):
    from decimal import Decimal

    from polymf3.serialize import artifact_from_obj, artifact_to_obj

    limit = _digit_limit()
    path = tmp_path / "f2.json"
    code, _, err = run(capsys, "factor2", "2^20000*x", "--format", "json", "--out", str(path))
    assert code == 0 and err == ""
    text = path.read_text()
    # Decimal prints an int of any length, independently of the writer
    assert json.loads(text)["f"] == f"{Decimal(2**20000)}*x"
    code, out, err = run(capsys, "verify", str(path))
    assert code == 0 and err == "" and out.endswith("verification: PASS (P*Q = f*I exactly)\n")
    assert to_json(artifact_to_obj(artifact_from_obj(json.loads(text)))) == text
    assert _digit_limit() == limit


def test_a_true_artifact_with_a_5001_digit_coefficient_verifies(tmp_path, capsys):
    c = "1" + "0" * 5000
    obj = {
        "f": f"{c}*x*y", "size": 1, "vars": ["x", "y"],
        "P": {"rows": 1, "cols": 1, "entries": [[f"{c}*x"]]},
        "Q": {"rows": 1, "cols": 1, "entries": [["y"]]},
    }
    path = tmp_path / "long.json"
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 0 and err == "" and out.endswith("verification: PASS (P*Q = f*I exactly)\n")
    # a false claim with the same coefficient still fails on its arithmetic
    obj["Q"]["entries"] = [["2*y"]]
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 1 and err == ""
    assert out.splitlines()[-1].startswith("verification: FAIL (certificate failed: P*Q[0][0] = 2000")


def test_an_exponent_past_its_digit_bound_is_refused_at_the_token(tmp_path, capsys):
    # 5,001 digits: past str()'s default limit on Python 3.11 and later, and
    # refused by the same bound on an interpreter without that limit
    wanted = f"exponents may have at most {MAX_EXPONENT_DIGITS} digits (at position 2)"
    code, out, err = run(capsys, "factor2", "x^1" + "0" * 5000)
    assert code == 2 and out == "" and err == f"error: {wanted}\n"
    # at the bound, the exponent is written, verified and reloaded
    path = tmp_path / "f2.json"
    code, _, err = run(capsys, "factor2", "x^" + "9" * MAX_EXPONENT_DIGITS + "*y", "--format", "json", "--out", str(path))
    assert code == 0 and err == ""
    code, out, err = run(capsys, "verify", str(path))
    assert code == 0 and err == "" and out.endswith("verification: PASS (P*Q = f*I exactly)\n")
    # a stored entry past the bound is refused by the same error
    obj = json.loads(path.read_text())
    obj["P"]["entries"][0][0] = "x^1" + "0" * 5000
    path.write_text(json.dumps(obj))
    code, out, err = run(capsys, "verify", str(path))
    assert code == 2 and out == "" and err == f"error: {wanted}\n"


def test_a_literal_past_the_coefficient_bound_is_refused_before_it_is_read(capsys):
    # 40,000 digits: a value past 2^100,000 on its own, refused at the literal
    start = time.monotonic()
    code, out, err = run(capsys, "factor2", "x + " + "9" * 40_000)
    assert time.monotonic() - start < 2
    assert code == 2 and out == ""
    assert err == f"error: coefficients may exceed {MAX_COEFFICIENT_BITS} bits (at position 4)\n"
