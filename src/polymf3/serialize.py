"""Canonical JSON and aligned-text forms for matrices and factorizations.

JSON entries are canonical rational-function strings ("num/den", the
denominator omitted when it is 1), and every artifact records its variable
order so a write/read cycle reproduces the bytes exactly. Loading reads
the target and each distinct entry text of a matrix once, through
parsing's readers of the writer's grammar, which hand hand-edited text to
the general grammar, so values and errors are the general grammar's.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from .category import Morphism3
from .context import VarContext
from .errors import CertificateError, ContextError, DimensionError, MorphismError, ParseError, _shown
from .matrix import MAX_SIZE, RatMatrix
from .mf2 import MF2, Factorization
from .mf3 import MF3, Provenance

# serialize reads every stored target and entry through these two names:
# the readers of the writer's grammar, which hand any other text to the
# general grammar
from .parsing import read_polynomial as parse_polynomial
from .parsing import read_rational_function as parse_rational_function


def matrix_to_obj(m: RatMatrix) -> dict:
    return {
        "rows": m.rows,
        "cols": m.cols,
        "entries": [[str(e) for e in m.row(i)] for i in range(m.rows)],
    }


def matrix_from_obj(obj, ctx: VarContext) -> RatMatrix:
    if not isinstance(obj, dict):
        raise ParseError("malformed matrix object: not a JSON object")
    try:
        rows, cols, entries = obj["rows"], obj["cols"], obj["entries"]
    except KeyError as exc:
        raise ParseError(f"malformed matrix object: missing {exc}") from None
    for name, value in (("rows", rows), ("cols", cols)):
        if type(value) is not int:
            shown = _shown(json.dumps(value))
            raise ParseError(f"malformed matrix object: {name} {shown} is not an integer")
    # a string would pass for a row of its characters; a non-string entry is
    # the grammar's to refuse, with the error a direct parse of it gives
    if not isinstance(entries, list) or not all(isinstance(row, list) for row in entries):
        raise ParseError("malformed matrix object: entries is not a list of rows")
    if len(entries) != rows or any(len(r) != cols for r in entries):
        raise ParseError("malformed matrix object: entry grid does not match shape")
    if rows > MAX_SIZE or rows and cols > MAX_SIZE:
        raise ParseError(f"matrix is {rows}x{cols}; at most {MAX_SIZE}x{MAX_SIZE} is supported")
    # entries repeat within a matrix ("0" most of all): parse each text once
    parsed, values = {}, []
    for row in entries:
        for text in row:
            value = parsed.get(text) if type(text) is str else None
            if value is None:
                value = parsed[text] = parse_rational_function(text, ctx)
            values.append(value)
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


def _target_from_obj(obj, ctx: VarContext):
    """The polynomial an artifact's "f" names."""
    if type(obj["f"]) is not str:
        raise ParseError(f"malformed artifact: f {_shown(json.dumps(obj['f']))} is not a string")
    return parse_polynomial(obj["f"], ctx)


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
        raise ParseError(f"malformed artifact: size {_shown(json.dumps(obj['size']))} is not an integer")
    f = _target_from_obj(obj, ctx)
    args = [matrix_from_obj(obj[name], ctx) for name in cls.names] + [f]
    if cls is MF3:
        p = obj.get("provenance")
        if p is not None:
            if type(p["pivoted"]) is not bool:
                shown = _shown(json.dumps(p["pivoted"]))
                raise ParseError(f"malformed artifact: pivoted {shown} is not true or false")
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
    f = _target_from_obj(obj, ctx)
    source = factorization_from_obj(obj["source"], MF3)
    # an endomorphism's target is its source: load and certify it once
    target = obj["target"]
    target = source if target == obj["source"] else factorization_from_obj(target, MF3)
    matrices = (matrix_from_obj(obj[name], ctx) for name in Morphism3.names)
    m = Morphism3(source, target, *matrices)
    # compared once the constructor has checked that every context agrees
    if f != source.target:
        raise ValueError(f"morphism claims f = {_shown(str(f))}, but its source factors {source.target}")
    return m


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


def claimed_size(obj) -> int:
    """The size an MF3 object claims by its A1 rows, read without parsing,
    when they are a positive int; else 0."""
    a1 = obj.get("A1") if isinstance(obj, dict) else None
    rows = a1.get("rows") if isinstance(a1, dict) else None
    return rows if type(rows) is int and rows > 0 else 0


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
    """Re-check an artifact's certificate and claims, reporting instead of raising.

    The size reported is the certified matrices' (a morphism's target's)
    when the artifact loads, its size claim having been checked against
    them; else the claim, or 0 without one."""
    kind = artifact_kind(obj)
    target = obj.get("f", "?")
    nested = obj.get("target") if kind == "morphism3" else obj
    size = nested.get("size", 0) if isinstance(nested, dict) else 0
    try:
        artifact = artifact_from_obj(obj)
    except (CertificateError, MorphismError, DimensionError, ContextError, ValueError) as exc:
        return VerifyReport(kind, target, size, False, f"({exc})")
    size = (artifact.target if kind == "morphism3" else artifact).size
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
