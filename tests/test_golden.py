"""CLI output compared byte for byte with the files in tests/golden/.

Each case runs one `polymf3` command in-process and compares its standard
output, and its exit code of 0, with a stored file. The stored files fix the
JSON artifacts, the aligned text, the verify reports and the laws report, so
a refactor that changes any byte of them fails here. Later cases read the
JSON files of earlier ones as inputs (tensor3, verify). One case, the
morphism artifact, is written by the library rather than by a command, and
each script in demos/ is run in a subprocess and its output compared too.
Every stored JSON artifact is also loaded and serialized again, and must
give back its own bytes, and its target and each of its entries must read
to the same value through the stored-text readers as through the general
grammar. Each must also satisfy its identities under perfbench/oracle.py,
which evaluates the stored text at rational points without polymf3, and a
copy with one entry changed must fail both that oracle and `verify`.

Regenerate the files only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import importlib.util
import io
import json
import os
import pathlib
import random
import subprocess
import sys
from collections.abc import Callable
from unittest import mock

import pytest

from polymf3 import (
    Morphism3,
    RatMatrix,
    VarContext,
    parse_polynomial,
    parse_rational_function,
    tensor3_morphism,
)
from polymf3 import parsing
from polymf3.cli import main
from polymf3.parsing import read_polynomial, read_rational_function
from polymf3.serialize import (
    artifact_from_obj,
    artifact_to_obj,
    mf3_from_obj,
    morphism_to_obj,
    to_json,
)

GOLDEN = pathlib.Path(__file__).parent / "golden"
ROOT = pathlib.Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ORACLE_SPEC = importlib.util.spec_from_file_location("oracle", ROOT / "perfbench" / "oracle.py")
oracle = importlib.util.module_from_spec(ORACLE_SPEC)
ORACLE_SPEC.loader.exec_module(oracle)

PAPER = ["x*y + (x^2 + y*z)*z", "--splits", "x*y + (x^2+y*z)*z"]
SQUARES = ["x^2 + y^2", "--splits", "x*x + y*y"]
ZERO_PIVOT = ["z^2", "--splits", "x*y - x*y + z*z", "--pivot"]
DISJOINT = ["u*v*w + w*u^2", "--splits", "(u*v)*w + w*u^2"]


def _factor_cases() -> dict[str, list[str]]:
    runs = {
        "factor2-paper": ["factor2", *PAPER],
        "factor2-monomials": ["factor2", "x*y + x^2*z + y*z^2"],
    }
    for method in ("doolittle", "crout"):
        for which in ("first", "second"):
            runs[f"factor3-{method}-{which}"] = [
                "factor3", *SQUARES, "--method", method, "--which", which,
            ]
            runs[f"factor3-pivot-{method}-{which}"] = [
                "factor3", *ZERO_PIVOT, "--method", method, "--which", which,
            ]
    runs["factor3-default"] = ["factor3", "x*y*z + z*x^2"]
    runs["factor3-disjoint"] = ["factor3", *DISJOINT, "--method", "crout"]
    cases = {}
    for name, argv in runs.items():
        cases[f"{name}.json"] = argv + ["--format", "json"]
        cases[f"{name}.txt"] = argv + ["--format", "text"]
    return cases


def _cases() -> dict[str, list[str] | Callable[[], str]]:
    cases = _factor_cases()
    pair = [str(GOLDEN / "factor3-doolittle-first.json"), str(GOLDEN / "factor3-disjoint.json")]
    cases["tensor3.json"] = ["tensor3", *pair, "--format", "json"]
    cases["tensor3.txt"] = ["tensor3", *pair, "--format", "text"]
    cases["morphism.json"] = _morphism_json
    for name in [n for n in cases if n.endswith(".json")]:
        cases[f"verify-{name[:-5]}.txt"] = ["verify", str(GOLDEN / name)]
    cases["laws-seed2-cases6.txt"] = ["laws", "--seed", "2", "--cases", "6"]
    cases["laws-seed1-cases25.txt"] = ["laws", "--seed", "1", "--cases", "25"]
    cases["demo.txt"] = ["demo"]
    return cases


def _morphism_json() -> str:
    """tensor3_morphism of the scalar endomorphisms 2 and 3 of two stored triples."""
    morphisms = []
    for name, scalar in (("factor3-doolittle-first", 2), ("factor3-disjoint", 3)):
        x = mf3_from_obj(json.loads((GOLDEN / f"{name}.json").read_text()))
        m = RatMatrix.scalar(x.context, x.size, scalar)
        morphisms.append(Morphism3(x, x, m, m, m))
    return to_json(morphism_to_obj(tensor3_morphism(*morphisms)))


CASES = _cases()


def _run(argv) -> tuple[int, bytes]:
    if callable(argv):
        return 0, argv().encode()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode()


@pytest.mark.parametrize("name", list(CASES))
def test_output_matches_golden(name):
    code, out = _run(CASES[name])
    assert code == 0
    assert out == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_json_artifact_reemits_byte_for_byte(name):
    text = (GOLDEN / name).read_text()
    assert to_json(artifact_to_obj(artifact_from_obj(json.loads(text)))) == text


def _stored(obj, ctx=None):
    """(key, text, context) of every target ('f') and matrix entry
    ('entries') of an artifact object, nested artifacts included, each in
    the context of the nearest enclosing 'vars'."""
    if isinstance(obj, dict):
        ctx = VarContext(obj["vars"]) if "vars" in obj else ctx
        if "f" in obj:
            yield "f", obj["f"], ctx
        for row in obj.get("entries", ()):
            yield from (("entries", text, ctx) for text in row)
        for value in obj.values():
            yield from _stored(value, ctx)


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_every_stored_text_reads_as_the_general_grammar_reads_it(name):
    stored = list(_stored(json.loads((GOLDEN / name).read_text())))
    for key, read, general in [
        ("f", read_polynomial, parse_polynomial),
        ("entries", read_rational_function, parse_rational_function),
    ]:
        texts = [(text, ctx) for k, text, ctx in stored if k == key]
        assert texts
        expected = [general(text, ctx) for text, ctx in texts]
        # the writer's grammar: no text reaches the general grammar
        with mock.patch.object(parsing, general.__name__, side_effect=AssertionError):
            assert [read(text, ctx) for text, ctx in texts] == expected


def _oracle_problems(obj) -> list[str]:
    """What the oracle finds wrong with an artifact object at two points: a
    factorization's product against f*I; a morphism's source and target that
    way, and its three commuting squares."""
    rng = random.Random(0)
    if "alpha" not in obj:
        grids = _grids(obj)
        return oracle.at_points(
            rng, obj["vars"], 2, lambda pt: oracle.product_is_scalar("certificate", grids, obj["f"], pt)
        )

    def squares(pt):
        a, b, d = (oracle.evaluate_grid(obj[name]["entries"], pt) for name in ("alpha", "beta", "delta"))
        s1, s2, s3 = (oracle.evaluate_grid(g, pt) for g in _grids(obj["source"]))
        t1, t2, t3 = (oracle.evaluate_grid(g, pt) for g in _grids(obj["target"]))
        mm = oracle.matmul
        return [
            problem
            for label, lhs, rhs in (
                ("alpha*phi1 = phi2*beta", mm(a, s1), mm(t1, b)),
                ("psi2*delta = beta*psi1", mm(t2, d), mm(b, s2)),
                ("delta*theta1 = theta2*alpha", mm(d, s3), mm(t3, a)),
            )
            for problem in oracle.same_matrix(label, lhs, rhs, pt)
        ]

    nested = _oracle_problems(obj["source"]) + _oracle_problems(obj["target"])
    return nested + oracle.at_points(rng, obj["vars"], 2, squares)


def _grids(factorization) -> list[list[list[str]]]:
    """The entry grids of a factorization object, in product order."""
    names = ("P", "Q") if "P" in factorization else ("A1", "A2", "A3")
    return [factorization[name]["entries"] for name in names]


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_the_independent_oracle_passes_each_artifact_and_fails_a_tampered_copy(name, tmp_path):
    obj = json.loads((GOLDEN / name).read_text())
    assert _oracle_problems(obj) == []
    # the first matrix of the artifact (P, A1 or alpha), its top-left entry changed
    first = next(value for value in obj.values() if isinstance(value, dict) and "entries" in value)
    first["entries"][0][0] = "1" if first["entries"][0][0] == "0" else "0"
    assert _oracle_problems(obj) != []
    tampered = tmp_path / name
    tampered.write_text(json.dumps(obj))
    code, out = _run(["verify", str(tampered)])
    assert code == 1 and b"verification: FAIL" in out


def _demo_output(path: pathlib.Path) -> bytes:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(path)], env=env, capture_output=True, check=True, timeout=120
    )
    return run.stdout


def _demo_golden(path: pathlib.Path) -> pathlib.Path:
    return GOLDEN / f"demo-{path.name[:2]}.txt"


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output_matches_golden(path):
    assert _demo_output(path) == _demo_golden(path).read_bytes()


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        code, out = _run(argv)
        if code != 0:
            sys.exit(f"{name}: exit {code}")
        (GOLDEN / name).write_bytes(out)
    for path in DEMOS:
        _demo_golden(path).write_bytes(_demo_output(path))
