"""Per-layer tracing, installed from inside the benchmark's own process.

Each layer boundary is a wrapper around a polymf3 function or method. A
wrapper records a span (name, parent span, start, end), the call count and
the span's self time: its duration minus the time of wrapped calls nested
inside it. Module-level functions are replaced in every polymf3 module
that bound the name (ratfunc binds its own `gcd`, mf2/category/laws their
own `first_difference`, cli its own serializers), so no call escapes.
Nothing under src/ changes; disabling restores the original objects.
"""

from __future__ import annotations

import sys
import time

# layers reported as <layer>.calls and <layer>.self_ms
SPAN_LAYERS = [
    "poly.mul", "poly.add", "poly.exact_div", "poly.is_one", "poly.gcd",
    "ratfunc.add", "ratfunc.mul", "ratfunc.canonicalize",
    "matrix.matmul", "matrix.kron", "matrix.first_difference", "matrix.in_context",
    "mf2.standard_method", "mf2.certify", "mf3.lu_decompose", "mf3.certify",
    "category.tensor3", "category.morphism_certify", "parsing.parse",
]
SELF_ONLY_LAYERS = ["serialize.dump", "serialize.load", "cli.main"]
COUNTERS = [
    ("poly.mul.term_products", "count", "lower"),
    ("poly.gcd.prs_fallbacks", "count", "lower"),
    ("matrix.matmul.entry_products", "count", "lower"),
    ("serialize.json_bytes", "B", "lower"),
]
LAW_SUITES = [
    "tensor-certificate", "associativity", "commutativity-shuffle",
    "distributivity", "bifunctor-axioms", "morphism-closure",
]


def per_layer_metrics() -> list[tuple[str, str, str]]:
    out = []
    for layer in SPAN_LAYERS:
        out += [(f"{layer}.calls", "count", "lower"), (f"{layer}.self_ms", "ms", "lower")]
    out += [(f"{layer}.self_ms", "ms", "lower") for layer in SELF_ONLY_LAYERS]
    out += COUNTERS
    out.append(("poly.gcd.shortcut_ratio", "ratio", "higher"))
    out += [(f"laws.{suite}.ms", "ms", "lower") for suite in LAW_SUITES]
    out.append(("trace.overhead_s", "s", "lower"))
    return out


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.spans: list[tuple[int, int, str, int, int]] = []  # id, parent, name, start, end
        self.keep_spans = False
        self._next_id = 0
        self._stack: list[list[int]] = []  # open spans: [id, nested ns]
        self._patches: list[tuple[object, str, object, object]] = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name: str, fn, count=None):
        """fn wrapped in a span; count(args, result) returns (counter, amount) or None."""
        self.calls.setdefault(name, 0)
        self.self_ns.setdefault(name, 0)
        calls, self_ns, stack, clock = self.calls, self.self_ns, self._stack, time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                calls[name] += 1
                self_ns[name] += duration - frame[1]
                if tracer.keep_spans:
                    parent = stack[-1][0] if stack else -1
                    tracer.spans.append((sid, parent, name, start, end))
            if count is not None:
                tracer.add(*count(args, result))
            return result

        return traced

    def counter(self, name: str, fn):
        """fn wrapped to count its calls under `name`, without a span."""
        self.counts.setdefault(name, 0)
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def add(self, name: str, amount: int):
        self.counts[name] = self.counts.get(name, 0) + amount

    # -- installation -----------------------------------------------------

    def patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr), replacement))

    def patch_function(self, original, replacement):
        """Replace `original` in every loaded polymf3 module that bound it."""
        for modname, module in list(sys.modules.items()):
            if modname == "polymf3" or modname.startswith("polymf3."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.patch(module, attr, replacement)

    def enable(self):
        for owner, attr, _, replacement in self._patches:
            setattr(owner, attr, replacement)

    def disable(self):
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- reading ------------------------------------------------------------

    def snapshot(self) -> dict[str, int]:
        """Every count and self time so far, for differencing between rounds."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update({f"{k}.self_ns": v for k, v in self.self_ns.items()})
        out.update(self.counts)
        return out

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            for sid, parent, name, start, end in sorted(self.spans):
                fh.write(f"{sid},{parent},{name},{start},{end}\n")


def install(tracer: Tracer, pm):
    """Register the layer wrappers on the imported package `pm` (not yet enabled)."""
    poly, ratfunc, matrix = pm.poly, pm.ratfunc, pm.matrix
    P, R, M = poly.Polynomial, ratfunc.RationalFunction, matrix.RatMatrix

    def term_products(args, result):
        a, b = args
        return "poly.mul.term_products", len(a) * (len(b) if isinstance(b, P) else 1)

    def entry_products(args, result):
        a, b = args
        col_nonzero = [0] * a.cols
        for i in range(a.rows):
            for k, e in enumerate(a.row(i)):
                if not e.is_zero:
                    col_nonzero[k] += 1
        return "matrix.matmul.entry_products", sum(
            col_nonzero[k] * sum(1 for e in b.row(k) if not e.is_zero) for k in range(b.rows)
        )

    def json_bytes(args, result):
        return "serialize.json_bytes", len(result.encode())

    methods = [
        (P, "__mul__", "poly.mul", term_products),
        (P, "__rmul__", "poly.mul", term_products),
        (P, "__add__", "poly.add", None),
        (P, "__radd__", "poly.add", None),
        (P, "try_exact_div", "poly.exact_div", None),
        (R, "__init__", "ratfunc.canonicalize", None),
        (R, "__add__", "ratfunc.add", None),
        (R, "__radd__", "ratfunc.add", None),
        (R, "__mul__", "ratfunc.mul", None),
        (R, "__rmul__", "ratfunc.mul", None),
        (M, "__matmul__", "matrix.matmul", entry_products),
        (M, "kron", "matrix.kron", None),
        (M, "in_context", "matrix.in_context", None),
        (pm.mf2.MF2, "__init__", "mf2.certify", None),
        (pm.mf3.MF3, "__init__", "mf3.certify", None),
        (pm.category.Morphism3, "__init__", "category.morphism_certify", None),
    ]
    for owner, attr, name, count in methods:
        tracer.patch(owner, attr, tracer.span(name, vars(owner)[attr], count))
    tracer.patch(P, "is_one", property(tracer.span("poly.is_one", vars(P)["is_one"].fget)))

    functions = [
        (poly.gcd, "poly.gcd", None),
        (matrix.first_difference, "matrix.first_difference", None),
        (pm.mf2.standard_method, "mf2.standard_method", None),
        (pm.mf3.lu_decompose, "mf3.lu_decompose", None),
        (pm.category.tensor3, "category.tensor3", None),
        (pm.parsing.parse_polynomial, "parsing.parse", None),
        (pm.serialize.artifact_to_obj, "serialize.dump", None),
        (pm.serialize.to_json, "serialize.dump", json_bytes),
        (pm.serialize.artifact_from_obj, "serialize.load", None),
        (pm.cli.main, "cli.main", None),
    ]
    for fn, name, count in functions:
        tracer.patch_function(fn, tracer.span(name, fn, count))
    tracer.patch_function(poly._gcd_core, tracer.counter("poly.gcd.prs_fallbacks", poly._gcd_core))
