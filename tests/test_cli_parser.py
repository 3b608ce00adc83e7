"""main() builds its argument parser once per process and reuses it.

Each call must still behave as if it were the first: no option, default or
error state carries over from one call to the next.
"""

import argparse
import json
import pathlib
import subprocess
import sys

import pytest

from polymf3 import cli
from polymf3.cli import build_parser, main

GOLDEN = pathlib.Path(__file__).parent / "golden"
SRC = pathlib.Path(__file__).parent.parent / "src"
SQUARES = ["factor3", "x^2 + y^2", "--splits", "x*x + y*y"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_options_of_one_call_do_not_leak_into_the_next(capsys, tmp_path):
    out_file = tmp_path / "f.json"
    flags = ["--pivot", "--method", "crout", "--which", "second", "--format", "json"]
    code, out, _ = run(capsys, *SQUARES, *flags, "--out", str(out_file))
    assert code == 0 and out == ""
    assert json.loads(out_file.read_text())["provenance"]["method"] == "crout"
    code, out, _ = run(capsys, *SQUARES)
    assert code == 0
    assert "pivoted: no" in out
    assert out == (GOLDEN / "factor3-doolittle-first.txt").read_text()


def test_a_usage_error_leaves_the_next_call_intact(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["factor3", "x", "--method", "cholesky"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "invalid choice: 'cholesky'" in captured.err
    code, out, err = run(capsys, "verify", str(GOLDEN / "factor3-default.json"))
    assert code == 0 and err == ""
    assert out == (GOLDEN / "verify-factor3-default.txt").read_text()


@pytest.mark.parametrize("argv", [["--help"], ["factor3", "--help"]], ids=["top", "factor3"])
def test_help_is_the_same_on_every_call(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    texts = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        texts.append(capsys.readouterr().out)
    assert texts[0] == texts[1] and texts[0].startswith("usage: polymf3")
    if argv == ["--help"]:
        assert texts[0] == build_parser().format_help()


def test_warm_calls_construct_no_parser(capsys, monkeypatch):
    main(["verify", str(GOLDEN / "factor2-paper.json")])
    constructed = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(10):
        assert main(["verify", str(GOLDEN / "factor2-paper.json")]) == 0
    assert constructed == []
    # the counter does see a build: one parser and six subparsers
    build_parser()
    assert len(constructed) == 7
    capsys.readouterr()


def test_build_parser_returns_a_parser_main_does_not_share(capsys):
    main(["verify", str(GOLDEN / "factor2-paper.json")])
    capsys.readouterr()
    parser = build_parser()
    assert parser is not build_parser() and parser is not cli._parser()
    parser.set_defaults(verb="demo")
    code, out, _ = run(capsys, "verify", str(GOLDEN / "factor2-paper.json"))
    assert code == 0 and out == (GOLDEN / "verify-factor2-paper.txt").read_text()


def test_importing_the_cli_builds_no_parser():
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import polymf3.cli\n"
        "print(len(built))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout == "0\n"
