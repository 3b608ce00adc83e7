"""CLI output compared byte for byte with the files in tests/golden/.

Each case runs one `polymf3` command in-process and compares its standard
output, and its exit code of 0, with a stored file. The stored files fix the
JSON artifacts, the aligned text, the verify reports and the laws report, so
a refactor that changes any byte of them fails here. Later cases read the
JSON files of earlier ones as inputs (tensor3, verify). One case, the
morphism artifact, is written by the library rather than by a command, and
each script in demos/ is run in a subprocess and its output compared too.
Every stored JSON artifact is also loaded and serialized again, and must
give back its own bytes.

Regenerate the files only for an intended change of output:

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys
from collections.abc import Callable

import pytest

from polymf3 import Morphism3, RatMatrix, tensor3_morphism
from polymf3.cli import main
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
