"""CLI verbs, exit codes, and output determinism."""

import json

import pytest

from polymf3.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_factor2_paper_splits(capsys):
    code, out, _ = run(capsys, "factor2", "x*y + (x^2 + y*z)*z", "--splits", "x*y + (x^2+y*z)*z")
    assert code == 0
    assert "2-matrix factorization of f = x^2*z + y*z^2 + x*y" in out
    assert "size: 2x2" in out


def test_factor2_sizes(capsys):
    code, out, _ = run(capsys, "factor2", "x*y", "--format", "json")
    assert code == 0 and json.loads(out)["size"] == 1
    code, out, _ = run(capsys, "factor2", "x*y + x^2*z + y*z^2", "--format", "json")
    assert code == 0 and json.loads(out)["size"] == 4


def test_factor3_reproduces_lu_entries(capsys):
    code, out, _ = run(
        capsys, "factor3", "x^2 + y^2", "--splits", "x*x + y*y", "--format", "json"
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["A1"]["entries"][1] == ["y/x", "1"]
    assert obj["A2"]["entries"][1] == ["0", "(x^2 + y^2)/x"]
    assert obj["provenance"] == {
        "method": "doolittle",
        "decomposed": "first",
        "pivoted": False,
    }


def test_factor3_crout_and_second(capsys):
    code, out, _ = run(
        capsys,
        "factor3", "x^2 + y^2", "--splits", "x*x + y*y",
        "--method", "crout", "--which", "second", "--format", "json",
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["provenance"]["method"] == "crout"
    assert obj["provenance"]["decomposed"] == "second"


def test_factor3_singular_pivot_flow(capsys):
    code, _, err = run(capsys, "factor3", "z^2", "--splits", "x*y - x*y + z*z")
    assert code == 1
    assert "zero pivot" in err and "--pivot" in err
    code, out, _ = run(
        capsys, "factor3", "z^2", "--splits", "x*y - x*y + z*z", "--pivot", "--format", "json"
    )
    assert code == 0
    assert json.loads(out)["provenance"]["pivoted"] is True


def test_tensor3_verify_round_trip(tmp_path, capsys):
    f_path = tmp_path / "f.json"
    g_path = tmp_path / "g.json"
    t_path = tmp_path / "fg.json"
    assert main(["factor3", "x^2 + y^2", "--splits", "x*x + y*y",
                 "--format", "json", "--out", str(f_path)]) == 0
    assert main(["factor3", "u*v*w + w*u^2", "--splits", "(u*v)*w + w*u^2",
                 "--format", "json", "--out", str(g_path)]) == 0
    assert main(["tensor3", str(f_path), str(g_path),
                 "--format", "json", "--out", str(t_path)]) == 0
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", str(t_path))
    assert code == 0 and "verification: PASS" in out
    obj = json.loads(t_path.read_text())
    assert obj["size"] == 4
    assert obj["vars"] == ["x", "y", "u", "v", "w"]


def test_verify_detects_tampering(tmp_path, capsys):
    path = tmp_path / "f.json"
    main(["factor3", "x^2 + y^2", "--splits", "x*x + y*y", "--format", "json", "--out", str(path)])
    obj = json.loads(path.read_text())
    obj["A3"]["entries"][0][0] = "(-x)"
    path.write_text(json.dumps(obj))
    capsys.readouterr()
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 1
    assert "verification: FAIL" in out
    assert "A1*A2*A3[0][0]" in out


def test_verify_morphism_file(tmp_path, capsys):
    from polymf3 import MF2, Morphism3, RatMatrix, VarContext, promote
    from polymf3.serialize import morphism_to_obj, to_json

    ctx = VarContext("x y")
    x, y = ctx.gens()
    pair = MF2(
        RatMatrix.from_rows(ctx, [[x, -y], [y, x]]),
        RatMatrix.from_rows(ctx, [[x, y], [-y, x]]),
        x**2 + y**2,
    )
    triple = promote(pair, "first", "doolittle")
    path = tmp_path / "m.json"
    path.write_text(to_json(morphism_to_obj(Morphism3.identity(triple))))
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "morphism" in out and "verification: PASS" in out


def test_verify_malformed_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, _, err = run(capsys, "verify", str(path))
    assert code == 2 and "error" in err


def test_write_read_write_is_byte_identical(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    main(["factor3", "x*y*z + z*x^2", "--format", "json", "--out", str(first)])
    from polymf3.serialize import artifact_from_obj, artifact_to_obj, to_json

    raw = first.read_text()
    again = to_json(artifact_to_obj(artifact_from_obj(json.loads(raw))))
    second.write_text(again)
    assert second.read_text() == raw


def test_laws_deterministic_output(capsys):
    code1, out1, _ = run(capsys, "laws", "--seed", "1", "--cases", "5")
    code2, out2, _ = run(capsys, "laws", "--seed", "1", "--cases", "5")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "all suites PASS" in out1


def test_laws_zero_cases(capsys):
    code, out, _ = run(capsys, "laws", "--seed", "2", "--cases", "0")
    assert code == 0 and "all suites PASS" in out


def test_laws_negative_cases_exit_2(capsys):
    code, out, err = run(capsys, "laws", "--cases", "-3")
    assert code == 2 and out == ""
    assert err == "error: the number of cases must be nonnegative, got -3\n"


def test_parse_errors_exit_2(capsys):
    code, _, err = run(capsys, "factor2", "x +* y")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "factor2", "x + w", "--vars", "x,y")
    assert code == 2 and "unknown variable" in err


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["factor3", "x", "--method", "cholesky"])
    assert exc.value.code == 2


def test_demo_runs(capsys):
    code, out, _ = run(capsys, "demo")
    assert code == 0
    assert "multiplicative tensor product" in out
    assert "PASS" in out
