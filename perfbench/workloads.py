"""The benchmark's workloads: seeded inputs, timed operations and their checks.

Each workload is a function (pm, seed, workdir) -> list[Op]. `pm` is the
freshly imported polymf3 package; the function builds every input the
operations need (this is the timed set-up). An operation's `run` is the
timed call. `view` turns its result into plain data (strings, exit codes,
artifact JSON) outside the timed section; `verify` checks a view with the
independent oracle and returns the problems it found. Views of later
rounds must equal the view verified in the warm-up round.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import random
from dataclasses import dataclass
from typing import Callable

import oracle

COEFFS = (1, -1, 2, -2, 3, -3)
METHODS = ("doolittle", "crout")
WHICH = ("first", "second")
POINTS = 2

# Monomial exponents (x, y, z) of the dense family: summand i is
# left_i * (right_i terms), over three shared variables.
DENSE_TEMPLATE = [
    ((1, 0, 0), [(0, 1, 0), (0, 0, 1)]),
    ((0, 1, 0), [(1, 0, 1), (0, 0, 0)]),
    ((0, 0, 1), [(1, 1, 0), (0, 1, 0), (1, 0, 0)]),
    ((1, 1, 0), [(0, 0, 1), (1, 0, 0)]),
]


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    view: Callable[[object], dict]
    verify: Callable[[dict, random.Random], list[str]]
    plant: Callable[[dict], dict] | None = None  # corrupts one entry of a view
    known_fault: str | None = None  # why this operation is expected to fail today


# -- input text ----------------------------------------------------------------


def _term(coeff: int, factors: list[str]) -> str:
    body = "*".join(factors) or "1"
    if coeff == 1:
        return body
    if coeff == -1:
        return f"-{body}"
    return f"{coeff}*{body}"


def _sum(terms: list[str]) -> str:
    out = terms[0]
    for t in terms[1:]:
        out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
    return out


def sparse_target(rng: random.Random, k: int, prefix: str = "") -> tuple[list[str], str, str]:
    """(vars, f, splits) for c1*a1*b1 + ... + ck*ak*bk over disjoint variables."""
    names = [f"{prefix}{v}{i}" for i in range(1, k + 1) for v in "ab"]
    summands = [(rng.choice(COEFFS), names[2 * i], names[2 * i + 1]) for i in range(k)]
    f = _sum([_term(c, [a, b]) for c, a, b in summands])
    splits = _sum([_term(c, [a]) + f"*{b}" for c, a, b in summands])
    return names, f, splits


def dense_target(rng: random.Random, k: int) -> tuple[list[str], str, str]:
    """(vars, f, splits) for sum_i (c_i * m_i) * (multi-term r_i) over x, y, z."""
    names = ["x", "y", "z"]

    def mono(exps):
        return [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]

    products, splits = [], []
    for left, rights in DENSE_TEMPLATE[:k]:
        c = rng.choice(COEFFS)
        right_terms = [(rng.choice(COEFFS), r) for r in rights]
        rt = _sum([_term(d, mono(r)) for d, r in right_terms])
        splits.append(f"{_term(c, mono(left))}*({rt})")
        for d, r in right_terms:
            products.append(f"{_term(c, mono(left))}*{_term(d, mono(r))}")
    # f is written unexpanded; the program expands it and the oracle evaluates it
    f = " + ".join(f"({p})" for p in products)
    return names, f, " + ".join(splits)


def build_pair(pm, names, f_text, splits_text):
    """The factor2/factor3 input path: parse f and its splits in a fixed context."""
    ctx = pm.VarContext(names)
    f = pm.parse_polynomial(f_text, ctx)
    splits = pm.splits_from_factors(pm.parse_summands(splits_text, ctx))
    return f, splits


# -- views and checks ------------------------------------------------------------


def grid(m) -> list[list[str]]:
    return [[str(e) for e in m.row(i)] for i in range(m.rows)]


def _triangle_problems(label, lower, upper, method, pivoted) -> list[str]:
    """Doolittle: L unit lower triangular; Crout: U unit upper triangular.

    `lower` is L with its rows permuted back by the pivoting, so each row's
    last nonzero entry marks its row in L.
    """
    n = len(lower)
    problems = []
    last = [max((j for j in range(n) if row[j] != "0"), default=-1) for row in lower]
    if sorted(last) != list(range(n)):
        problems.append(f"{label}: L is not a row permutation of a lower triangular matrix")
    elif not pivoted and last != list(range(n)):
        problems.append(f"{label}: L is not lower triangular although no pivoting is recorded")
    elif method == "doolittle" and any(lower[i][last[i]] != "1" for i in range(n)):
        problems.append(f"{label}: Doolittle L has a non-unit diagonal")
    if any(upper[i][j] != "0" for i in range(n) for j in range(i)):
        problems.append(f"{label}: U is not upper triangular")
    if method == "crout" and any(upper[i][i] != "1" for i in range(n)):
        problems.append(f"{label}: Crout U has a non-unit diagonal")
    return problems


def factor2_op(pm, name, names, f_text, splits_text, k) -> Op:
    f, splits = build_pair(pm, names, f_text, splits_text)

    def view(pair):
        return {"size": pair.size, "P": grid(pair.P), "Q": grid(pair.Q)}

    def verify(v, rng):
        if v["size"] != 2 ** (k - 1):
            return [f"size {v['size']}, expected {2 ** (k - 1)}"]
        return oracle.at_points(
            rng, names, POINTS,
            lambda pt: oracle.product_is_scalar("P*Q", [v["P"], v["Q"]], f_text, pt),
        )

    def plant(v):
        v = copy.deepcopy(v)
        v["Q"][0][0] = f"{v['Q'][0][0]} + 1"
        return v

    return Op(name, lambda: pm.standard_method(f, splits), view, verify, plant)


def factor3_op(pm, name, names, f_text, splits_text, k, method, which) -> Op:
    f, splits = build_pair(pm, names, f_text, splits_text)

    def run():
        pair = pm.standard_method(f, splits)
        return pair, pm.promote(pair, which=which, method=method, pivot=True)

    def view(out):
        pair, triple = out
        p = triple.provenance
        return {
            "size": triple.size,
            "P": grid(pair.P),
            "Q": grid(pair.Q),
            "A": [grid(m) for m in triple.components],
            "provenance": [p.method, p.decomposed, p.pivoted],
        }

    def verify(v, rng):
        n = 2 ** (k - 1)
        if v["size"] != n or len(v["A"][0]) != n:
            return [f"size {v['size']}, expected {n}"]
        got_method, got_which, pivoted = v["provenance"]
        if (got_method, got_which) != (method, which):
            return [f"provenance says {got_method}/{got_which}"]
        A1, A2, A3 = v["A"]
        factor, (lower, upper) = (v["P"], (A1, A2)) if which == "first" else (v["Q"], (A2, A3))
        problems = _triangle_problems(name, lower, upper, method, pivoted)

        def at(pt):
            found = oracle.product_is_scalar("P*Q", [v["P"], v["Q"]], f_text, pt)
            found += oracle.product_is_scalar("A1*A2*A3", v["A"], f_text, pt)
            lu = oracle.matmul(oracle.evaluate_grid(lower, pt), oracle.evaluate_grid(upper, pt))
            found += oracle.same_matrix("L*U vs the decomposed factor", lu,
                                        oracle.evaluate_grid(factor, pt), pt)
            return found

        return problems + oracle.at_points(rng, names, POINTS, at)

    return Op(name, run, view, verify)


# -- promote-ladder ---------------------------------------------------------------

SPARSE_FACTOR2_K = range(2, 7)
SPARSE_FACTOR3_K = range(2, 6)
DENSE_FACTOR3_K = range(2, 5)


def promote_ladder(pm, seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    sparse = {k: sparse_target(rng, k) for k in SPARSE_FACTOR2_K}
    dense = {k: dense_target(rng, k) for k in DENSE_FACTOR3_K}
    ops = [factor2_op(pm, f"factor2.sparse.k{k}", *sparse[k], k) for k in SPARSE_FACTOR2_K]
    for family, ks, targets in (
        ("sparse", SPARSE_FACTOR3_K, sparse),
        ("dense", DENSE_FACTOR3_K, dense),
    ):
        for k in ks:
            for method in METHODS:
                for which in WHICH:
                    name = f"factor3.{family}.k{k}.{method}.{which}"
                    ops.append(factor3_op(pm, name, *targets[k], k, method, which))
    return ops


# -- tensor-verify ----------------------------------------------------------------

# Stored triples of the sparse family: (label, k, method, which). Disjoint
# variables per label, so tensor products merge contexts.
STORED = [
    ("A", 2, "doolittle", "first"),
    ("B", 3, "crout", "second"),
    ("C", 2, "crout", "first"),
    ("D", 3, "doolittle", "second"),
]
# (output, left, right): chains of stored and produced triples.
TENSORS = [("AB", "A", "B"), ("ABC", "AB", "C"), ("CD", "C", "D"), ("CDA", "CD", "A")]
KNOWN_VERIFY_FAULT = (
    "serialize.verify_obj re-runs only the matrix identity, so it passes an "
    "artifact whose other claims are false"
)


def _cli(pm, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pm.cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _read(path) -> str:
    with open(path) as fh:
        return fh.read()


def _write(path, text):
    with open(path, "w") as fh:
        fh.write(text)


def _grids(obj) -> list[list[list[str]]]:
    return [obj[c]["entries"] for c in ("A1", "A2", "A3")]


def _round_trip(pm, text: str) -> list[str]:
    s = pm.serialize
    try:
        again = s.to_json(s.artifact_to_obj(s.artifact_from_obj(json.loads(text))))
    except pm.PolymfError as exc:
        return [f"artifact does not load again: {exc}"]
    return [] if again == text else ["artifact does not re-emit byte-identically"]


def tensor_verify(pm, seed: int, workdir: str) -> list[Op]:
    rng = random.Random(seed)
    path = {label: os.path.join(workdir, f"{label}.json") for label in
            [s[0] for s in STORED] + [t[0] for t in TENSORS] + ["M"]}
    targets = {}
    stored = {}
    for label, k, method, which in STORED:
        names, f_text, splits_text = sparse_target(rng, k, prefix=label.lower())
        f, splits = build_pair(pm, names, f_text, splits_text)
        triple = pm.promote(pm.standard_method(f, splits), which=which, method=method, pivot=True)
        stored[label] = triple
        targets[label] = f_text
        _write(path[label], pm.serialize.to_json(pm.serialize.artifact_to_obj(triple)))
    # scalar endomorphisms of two stored triples, for the tensored morphism
    c1, c2 = (rng.choice(COEFFS) for _ in range(2))
    morphisms = []
    for label, c in (("A", c1), ("D", c2)):
        x = stored[label]
        m = pm.RatMatrix.scalar(x.context, x.size, c)
        morphisms.append(pm.Morphism3(x, x, m, m, m))
    tampered = _tampered(path, workdir)
    ops = []

    def f_of(label):
        return targets.get(label) or json.loads(_read(path[label]))["f"]

    for out, left, right in TENSORS:
        ops.append(_tensor_op(pm, path, out, left, right, f_of))
    ops.append(_morphism_op(pm, path["M"], morphisms, rng))
    for label in [s[0] for s in STORED] + [t[0] for t in TENSORS] + ["M"]:
        ops.append(_verify_op(pm, f"verify.{label}", path[label], True,
                              targets.get(label)))
    for kind, (file, fault) in tampered.items():
        ops.append(_verify_op(pm, f"verify.tampered-{kind}", file, False, None, fault))
    return ops


def _tampered(path, workdir) -> dict[str, tuple[str, str | None]]:
    """Artifacts with one false claim each: (file, known fault or None)."""
    out = {}
    a = json.loads(_read(path["A"]))  # Doolittle split of the first factor
    entry = copy.deepcopy(a)
    entry["A3"]["entries"][0][0] = f"{entry['A3']['entries'][0][0]} + 1"
    out["entry"] = (entry, None)
    size = copy.deepcopy(a)
    size["size"] = 99
    out["size"] = (size, KNOWN_VERIFY_FAULT + ": a size field of 99 on a 2x2 factorization")
    provenance = copy.deepcopy(a)
    provenance["provenance"]["method"] = "crout"
    out["provenance"] = (
        provenance,
        KNOWN_VERIFY_FAULT + ": provenance claims crout for a unit lower triangular A1",
    )
    files = {}
    for kind, (obj, fault) in out.items():
        file = os.path.join(workdir, f"tampered-{kind}.json")
        _write(file, json.dumps(obj, indent=2) + "\n")
        files[kind] = (file, fault)
    return files


def _tensor_op(pm, path, out, left, right, f_of) -> Op:
    argv = ["tensor3", path[left], path[right], "--format", "json", "--out", path[out]]

    def view(result):
        code, stdout, stderr = result
        return {"exit": code, "stdout": stdout, "stderr": stderr, "text": _read(path[out]),
                "left": _read(path[left]), "right": _read(path[right])}

    def verify(v, rng):
        if v["exit"] != 0:
            return [f"tensor3 exited {v['exit']}: {v['stderr'].strip()}"]
        obj, lo, ro = (json.loads(v[k]) for k in ("text", "left", "right"))
        if obj["size"] != lo["size"] * ro["size"] or len(obj["A1"]["entries"]) != obj["size"]:
            return [f"size {obj['size']} is not {lo['size']}*{ro['size']}"]
        f_left, f_right = f_of(left), f_of(right)

        def at(pt):
            found = oracle.product_is_scalar("A1*A2*A3", _grids(obj), obj["f"], pt)
            if oracle.evaluate(obj["f"], pt) != (
                oracle.evaluate(f_left, pt) * oracle.evaluate(f_right, pt)
            ):
                found.append("target is not the product of the input targets")
            for c, g, gl, gr in zip(("A1", "A2", "A3"), _grids(obj), _grids(lo), _grids(ro)):
                want = oracle.kron(oracle.evaluate_grid(gl, pt), oracle.evaluate_grid(gr, pt))
                found += oracle.same_matrix(f"{c} vs kron of inputs", oracle.evaluate_grid(g, pt),
                                            want, pt)
            return found

        return oracle.at_points(rng, obj["vars"], POINTS, at) or _round_trip(pm, v["text"])

    def plant(v):
        v = dict(v)
        obj = json.loads(v["text"])
        obj["A2"]["entries"][0][0] = f"({obj['A2']['entries'][0][0]}) + 1"
        v["text"] = json.dumps(obj)
        return v

    return Op(f"tensor3.{out}", lambda: _cli(pm, argv), view, verify, plant)


def _morphism_op(pm, file, morphisms, rng) -> Op:
    mf, mg = morphisms
    # the inputs as the oracle sees them: scalar components and their sources
    src = [[grid(m) for m in x.source.components] for x in morphisms]
    comps = [[grid(m) for m in x.components] for x in morphisms]

    def run():
        t = pm.tensor3_morphism(mf, mg)
        _write(file, pm.serialize.to_json(pm.serialize.artifact_to_obj(t)))
        return t

    def view(_):
        return {"text": _read(file)}

    def verify(v, rng):
        obj = json.loads(v["text"])
        phi1 = _grids(obj["source"])
        phi2 = _grids(obj["target"])
        alpha, beta, delta = (obj[c]["entries"] for c in ("alpha", "beta", "delta"))

        def at(pt):
            def ev(g):
                return oracle.evaluate_grid(g, pt)

            a, b, d = ev(alpha), ev(beta), ev(delta)
            s1, s2, s3 = (ev(g) for g in phi1)
            t1, t2, t3 = (ev(g) for g in phi2)
            mm = oracle.matmul
            found = []
            for label, lhs, rhs in (
                ("alpha*phi1 = phi2*beta", mm(a, s1), mm(t1, b)),
                ("psi2*delta = beta*psi1", mm(t2, d), mm(b, s2)),
                ("delta*theta1 = theta2*alpha", mm(d, s3), mm(t3, a)),
            ):
                found += oracle.same_matrix(label, lhs, rhs, pt)
            for label, got, i in (("alpha", a, 0), ("beta", b, 1), ("delta", d, 2)):
                want = oracle.kron(ev(comps[0][i]), ev(comps[1][i]))
                found += oracle.same_matrix(f"{label} vs kron of inputs", got, want, pt)
            for label, got, i in (("source A1", s1, 0), ("source A2", s2, 1), ("source A3", s3, 2)):
                want = oracle.kron(ev(src[0][i]), ev(src[1][i]))
                found += oracle.same_matrix(f"{label} vs kron of inputs", got, want, pt)
            return found

        return oracle.at_points(rng, obj["vars"], POINTS, at) or _round_trip(pm, v["text"])

    return Op("tensor3-morphism.AD", run, view, verify)


def _verify_op(pm, name, file, genuine, f_text, fault=None) -> Op:
    def view(result):
        code, stdout, stderr = result
        return {"exit": code, "stdout": stdout, "stderr": stderr, "text": _read(file)}

    def verify(v, rng):
        status = [ln for ln in v["stdout"].splitlines() if ln.startswith("verification:")]
        if genuine:
            if v["exit"] != 0 or not status or not status[0].startswith("verification: PASS"):
                return [f"verify of a genuine artifact gave exit {v['exit']}: {status}"]
            if f_text is None:
                return []
            # a stored triple: check it against the benchmark's own f
            obj = json.loads(v["text"])
            return oracle.at_points(
                rng, obj["vars"], POINTS,
                lambda pt: oracle.product_is_scalar("A1*A2*A3", _grids(obj), f_text, pt),
            )
        if v["exit"] != 1 or not status or not status[0].startswith("verification: FAIL"):
            return [f"verify of a tampered artifact gave exit {v['exit']}: {status}"]
        return []

    return Op(name, lambda: _cli(pm, ["verify", file]), view, verify, known_fault=fault)


# -- laws -------------------------------------------------------------------------

LAWS_SEED = 1
LAWS_CASES = 25


def laws(pm, seed: int, workdir: str) -> list[Op]:
    ops = []
    for suite in pm.laws.SUITES:
        def run(suite=suite):
            return pm.run_laws(seed=LAWS_SEED, cases=LAWS_CASES, suites=[suite])

        def view(results):
            return {"results": [[r.name, r.cases, r.failures] for r in results]}

        def verify(v, rng, name=suite[0]):
            (got, cases, failures), = v["results"]
            if got != name or cases != LAWS_CASES:
                return [f"ran {got} with {cases} cases"]
            return [f"case {k}: {msg}" for k, msg in failures]

        ops.append(Op(f"laws.{suite[0]}", run, view, verify))
    return ops


WORKLOADS = {
    "promote-ladder": promote_ladder,
    "tensor-verify": tensor_verify,
    "laws": laws,
}
