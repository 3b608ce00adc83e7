"""Command-line front end.

    polymf3 factor2 EXPR [--splits SPEC] [--vars x,y,z] [--format json|text]
    polymf3 factor3 EXPR [--splits SPEC] [--method doolittle|crout]
                         [--which first|second] [--pivot] [--vars ...] [--format ...]
    polymf3 tensor3 FILE1 FILE2 [--format ...]
    polymf3 verify FILE
    polymf3 laws [--seed N] [--cases N]
    polymf3 demo

Exit codes: 0 success/PASS, 1 verification or construction failure,
2 usage or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .category import check_tensor_size, tensor3
from .context import VarContext
from .errors import ParseError, PolymfError, SingularPivotError
from .laws import run_laws
from .matrix import RatMatrix
from .mf2 import MF2, splits_from_factors, standard_method
from .mf3 import promote
from .parsing import infer_context, parse_polynomial, parse_summands
from .serialize import (
    artifact_from_obj,
    artifact_kind,
    artifact_to_obj,
    claimed_size,
    format_factorization,
    to_json,
    verify_obj,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polymf3",
        description="Exact 2- and 3-matrix factorizations of multivariate polynomials.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, with_expr=True):
        if with_expr:
            p.add_argument("expr", help="polynomial expression, e.g. 'x^2 + y^2'")
            p.add_argument(
                "--splits",
                help="sum-of-products expression fixing the splits, "
                "e.g. 'x*y + (x^2+y*z)*z'",
            )
            p.add_argument(
                "--vars",
                help="comma-separated variable order (default: order of first appearance)",
            )
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", help="write the output to this file instead of stdout")

    p2 = sub.add_parser("factor2", help="build a certified 2-matrix factorization")
    add_common(p2)

    p3 = sub.add_parser("factor3", help="build a certified 3-matrix factorization via LU")
    add_common(p3)
    p3.add_argument("--method", choices=("doolittle", "crout"), default="doolittle")
    p3.add_argument("--which", choices=("first", "second"), default="first")
    p3.add_argument("--pivot", action="store_true", help="allow row pivoting on zero pivots")

    pt = sub.add_parser("tensor3", help="multiplicative tensor product of two stored MF3s")
    pt.add_argument("file1")
    pt.add_argument("file2")
    add_common(pt, with_expr=False)

    pv = sub.add_parser("verify", help="re-check a stored factorization or morphism")
    pv.add_argument("file")

    pl = sub.add_parser("laws", help="run the randomized tensor-product law suites")
    pl.add_argument("--seed", type=int, default=1)
    pl.add_argument("--cases", type=int, default=25)

    sub.add_parser("demo", help="walk through the worked factor2/factor3/tensor3 pipeline")
    return parser


# main's parser, built on the first call rather than at import and shared by
# the calls after it: each parse_args call still returns a fresh namespace
_parser = cache(build_parser)


def _emit(args, text: str):
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise PolymfError(f"cannot write {args.out}: {exc}") from None
    else:
        sys.stdout.write(text)


def _emit_artifact(args, artifact):
    if args.format == "json":
        _emit(args, to_json(artifact_to_obj(artifact)))
    else:
        _emit(args, format_factorization(artifact))


def _build_mf2(args) -> MF2:
    if args.vars:
        ctx = VarContext(args.vars)
    else:
        ctx = infer_context(args.expr if not args.splits else f"{args.expr} + {args.splits}")
    f = parse_polynomial(args.expr, ctx)
    splits = None
    if args.splits:
        splits = splits_from_factors(parse_summands(args.splits, ctx))
    return standard_method(f, splits)


def cmd_factor2(args) -> int:
    _emit_artifact(args, _build_mf2(args))
    return 0


def cmd_factor3(args) -> int:
    pair = _build_mf2(args)
    try:
        triple = promote(pair, which=args.which, method=args.method, pivot=args.pivot)
    except SingularPivotError as exc:
        sys.stderr.write(
            f"error: {exc}\n"
            "hint: retry with --pivot, or decompose the other factor "
            "(--which second), or switch --method\n"
        )
        return 1
    _emit_artifact(args, triple)
    return 0


def _load_obj(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise PolymfError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"{path} is not valid JSON: {exc}") from None


def cmd_tensor3(args) -> int:
    # refuse another kind of artifact, or a product above MAX_SIZE by the stored
    # shapes, before any parsing; a file2 that cannot be read is reported after file1 is parsed
    first = _load_obj(args.file1)
    try:
        second = _load_obj(args.file2)
    except PolymfError as exc:
        second = exc
    for path, obj in ((args.file1, first), (args.file2, second)):
        if not isinstance(obj, PolymfError) and artifact_kind(obj) != "mf3":
            raise PolymfError(f"{path} does not hold a 3-matrix factorization")
    check_tensor_size(claimed_size(first) * claimed_size(second))
    x = artifact_from_obj(first)
    if isinstance(second, PolymfError):
        raise second
    _emit_artifact(args, tensor3(x, artifact_from_obj(second)))
    return 0


def cmd_verify(args) -> int:
    report = verify_obj(_load_obj(args.file))
    for line in report.lines():
        print(line)
    return 0 if report.ok else 1


def cmd_laws(args) -> int:
    results = run_laws(seed=args.seed, cases=args.cases)
    print(f"seed: {args.seed}  cases per suite: {args.cases}")
    width = max(len(r.name) for r in results)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name.ljust(width)}  {r.cases:>4} cases  {status}")
        if not r.passed:
            failed = True
            case, message = r.failures[0]
            print(
                f"  first failure at case {case}: {message}\n"
                f"  reproduce with: polymf3 laws --seed {args.seed} --cases {args.cases}"
            )
    print("result: " + ("FAIL" if failed else "all suites PASS"))
    return 1 if failed else 0


def cmd_demo(args) -> int:
    ctx = VarContext("x y z")
    x, y, z = ctx.gens()

    print("A 2-matrix factorization of f = x^2 + y^2:")
    pair_f = MF2(
        RatMatrix.from_rows(ctx, [[x, -y], [y, x]]),
        RatMatrix.from_rows(ctx, [[x, y], [-y, x]]),
        x**2 + y**2,
    )
    print(format_factorization(pair_f))

    print("Doolittle LU of the first factor promotes it to a triple:")
    triple_f = promote(pair_f, which="first", method="doolittle")
    print(format_factorization(triple_f))

    print("The same pipeline for g = x*y*z + z*x^2:")
    pair_g = MF2(
        RatMatrix.from_rows(ctx, [[x * y, -z], [x**2, z]]),
        RatMatrix.from_rows(ctx, [[z, z], [-(x**2), x * y]]),
        x * y * z + z * x**2,
    )
    triple_g = promote(pair_g, which="first", method="doolittle")
    print(format_factorization(triple_g))

    print("Their multiplicative tensor product factors f*g at size 4:")
    product = tensor3(triple_f, triple_g)
    print(format_factorization(product))

    print("Randomized law suites (seed 1, 5 cases each):")
    for r in run_laws(seed=1, cases=5):
        print(f"  {r.name}: {'PASS' if r.passed else 'FAIL'}")
    return 0


_COMMANDS = {
    "factor2": cmd_factor2,
    "factor3": cmd_factor3,
    "tensor3": cmd_tensor3,
    "verify": cmd_verify,
    "laws": cmd_laws,
    "demo": cmd_demo,
}


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except (PolymfError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2 if isinstance(exc, (ParseError, ValueError)) else 1


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
