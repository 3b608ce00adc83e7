"""Canonical JSON and aligned-text forms for matrices and factorizations.

JSON entries are canonical rational-function strings ("num/den", the
denominator omitted when it is 1), and every artifact records its variable
order so a write/read cycle reproduces the bytes exactly.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .category import Morphism3
from .context import VarContext
from .errors import CertificateError, ContextError, DimensionError, MorphismError, ParseError
from .matrix import RatMatrix
from .mf2 import MF2, Factorization
from .mf3 import MF3, Provenance
from .parsing import parse_polynomial, parse_rational_function


def matrix_to_obj(m: RatMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[str(e) for e in m.row(i)] for i in range(m.rows)],
    }


def matrix_from_obj(obj, ctx: VarContext) -> RatMatrix:
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except (TypeError, KeyError) as exc:
        raise ParseError(f"malformed matrix object: missing {exc}") from None
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ParseError("malformed matrix object: entry grid does not match shape")
    values = [parse_rational_function(text, ctx) for row in entries for text in row]
    return RatMatrix(ctx, rows, cols, values)


def _context_from_obj(obj) -> VarContext:
    if not isinstance(obj, dict):
        raise ParseError("malformed artifact: nested artifact is not a JSON object")
    names = obj.get("vars")
    if names is None:
        raise ParseError("malformed artifact: missing 'vars'")
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise ParseError("malformed artifact: 'vars' is not a list of strings")
    try:
        return VarContext(names)
    except ValueError as exc:
        raise ParseError(f"malformed artifact: {exc}") from None


def factorization_to_obj(x: Factorization) -> dict:
    obj = {"f": str(x.target), "size": x.size}
    obj.update((name, matrix_to_obj(m)) for name, m in zip(x.names, x.components))
    if isinstance(x, MF3):
        obj["provenance"] = None if x.provenance is None else asdict(x.provenance)
    obj["vars"] = list(x.context.names)
    return obj


def factorization_from_obj(obj, cls: type[Factorization]) -> Factorization:
    """Load and re-certify a factorization of class cls, checking its size claim if any."""
    ctx = _context_from_obj(obj)
    if "size" in obj and type(obj["size"]) is not int:
        raise ParseError(f"malformed artifact: size {json.dumps(obj['size'])} is not an integer")
    f = parse_polynomial(obj["f"], ctx)
    args = [matrix_from_obj(obj[name], ctx) for name in cls.names] + [f]
    if cls is MF3:
        p = obj.get("provenance")
        if p is not None:
            if type(p["pivoted"]) is not bool:
                pivoted = json.dumps(p["pivoted"])
                raise ParseError(f"malformed artifact: pivoted {pivoted} is not true or false")
            args.append(Provenance(p["method"], p["decomposed"], p["pivoted"]))
    x = cls(*args)
    if "size" in obj and obj["size"] != x.size:
        raise DimensionError(
            f"artifact claims size {obj['size']}, but its matrices are {x.size}x{x.size}"
        )
    return x


# the former per-kind names of the two functions above
mf3_to_obj = factorization_to_obj


def mf3_from_obj(obj) -> MF3:
    return factorization_from_obj(obj, MF3)


def morphism_to_obj(m: Morphism3) -> dict:
    obj = {"f": str(m.source.target)}
    obj.update((key, factorization_to_obj(getattr(m, key))) for key in ("source", "target"))
    obj.update((name, matrix_to_obj(c)) for name, c in zip(Morphism3.names, m.components))
    obj["vars"] = list(m.source.context.names)
    return obj


def morphism_from_obj(obj) -> Morphism3:
    ctx = _context_from_obj(obj)
    source, target = (factorization_from_obj(obj[key], MF3) for key in ("source", "target"))
    matrices = (matrix_from_obj(obj[name], ctx) for name in Morphism3.names)
    return Morphism3(source, target, *matrices)


def artifact_to_obj(artifact) -> dict:
    if isinstance(artifact, Factorization):
        return factorization_to_obj(artifact)
    if isinstance(artifact, Morphism3):
        return morphism_to_obj(artifact)
    raise TypeError(f"cannot serialize {artifact!r}")


# JSON kind -> artifact class, recognized by the first component's key
_KINDS = {"morphism3": Morphism3, "mf3": MF3, "mf2": MF2}


def artifact_kind(obj) -> str:
    if not isinstance(obj, dict):
        raise ParseError("malformed artifact: not a JSON object")
    for kind, cls in _KINDS.items():
        if cls.names[0] in obj:
            return kind
    raise ParseError("malformed artifact: unrecognized structure")


def artifact_from_obj(obj):
    kind = artifact_kind(obj)
    try:
        if kind == "morphism3":
            return morphism_from_obj(obj)
        return factorization_from_obj(obj, _KINDS[kind])
    except (KeyError, TypeError) as exc:
        raise ParseError(f"malformed {kind} artifact: {exc}") from None


def to_json(obj: dict) -> str:
    return json.dumps(obj, indent=2) + "\n"


# -- verification reports ----------------------------------------------------


def _describe(kind: str) -> tuple[str, str]:
    """(name, identity checked) of an artifact kind, for reports."""
    if kind == "morphism3":
        return "morphism of 3-matrix factorizations", "all three commuting squares hold"
    names = _KINDS[kind].names
    return f"{len(names)}-matrix factorization ({', '.join(names)})", f"{'*'.join(names)} = f*I"


@dataclass
class VerifyReport:
    kind: str
    target: str
    size: int
    ok: bool
    detail: str

    def lines(self) -> list[str]:
        return [
            f"kind: {_describe(self.kind)[0]}",
            f"f: {self.target}",
            f"size: {self.size}",
            ("verification: PASS " if self.ok else "verification: FAIL ") + self.detail,
        ]


def verify_obj(obj) -> VerifyReport:
    """Re-check an artifact's certificate and claims, reporting instead of raising."""
    kind = artifact_kind(obj)
    target = obj.get("f", "?")
    nested = obj.get("target") if kind == "morphism3" else obj
    size = nested.get("size", 0) if isinstance(nested, dict) else 0
    try:
        artifact_from_obj(obj)
    except (CertificateError, MorphismError, DimensionError, ContextError, ValueError) as exc:
        return VerifyReport(kind, target, size, False, f"({exc})")
    return VerifyReport(kind, target, size, True, f"({_describe(kind)[1]} exactly)")


# -- aligned text --------------------------------------------------------------


def format_matrix(m: RatMatrix) -> str:
    grid = [[str(e) for e in m.row(i)] for i in range(m.rows)]
    widths = [max(len(grid[i][j]) for i in range(m.rows)) for j in range(m.cols)]
    lines = []
    for row in grid:
        cells = "  ".join(cell.ljust(w) for cell, w in zip(row, widths))
        lines.append(f"  [ {cells} ]")
    return "\n".join(lines)


def format_factorization(x: Factorization) -> str:
    parts = [
        f"{len(x.names)}-matrix factorization of f = {x.target}",
        f"size: {x.size}x{x.size}",
    ]
    if isinstance(x, MF3) and x.provenance is not None:
        p = x.provenance
        parts.append(
            f"method: {p.method}, decomposed: {p.decomposed} factor, "
            f"pivoted: {'yes' if p.pivoted else 'no'}"
        )
    for name, m in zip(x.names, x.components):
        parts.append(f"{name} =")
        parts.append(format_matrix(m))
    parts.append(f"certificate: {'*'.join(x.names)} = f*I holds exactly")
    return "\n".join(parts) + "\n"
