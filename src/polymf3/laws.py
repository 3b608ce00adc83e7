"""Seeded randomized suites for the tensor-product laws.

Each suite draws small certified factorizations (sizes <= 3, at most three
variables per side, term degrees <= 3) from a deterministic generator and
checks one law exactly. A fixed seed reproduces a run bit-for-bit, which is
what the `laws` command reports rely on.

Note on distributivity: pushing a direct sum through the left tensor slot
is an exact block identity; through the right slot it holds only up to
conjugation by an explicit shuffle permutation (Kronecker blocks
interleave), so that is the form checked here.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .category import (
    Morphism3,
    commutativity_witness,
    tensor3,
    tensor3_morphism,
    violated_equation,
)
from .context import VarContext
from .matrix import RatMatrix, first_difference, perfect_shuffle
from .mf2 import TermSplit, standard_method
from .mf3 import CROUT, DOOLITTLE, MF3, promote
from .poly import Monomial, Polynomial

_COEFFS = [Fraction(n) for n in (-3, -2, -1, 1, 2, 3)]


# -- generators ------------------------------------------------------------


def _context(rng: random.Random, prefix: str) -> VarContext:
    count = rng.randint(1, 3)
    return VarContext([f"{prefix}{i}" for i in range(1, count + 1)])


def random_single_term(
    rng: random.Random, ctx: VarContext, max_degree: int
) -> Polynomial:
    total = rng.randint(0, max_degree)
    exps: dict[int, int] = {}
    for _ in range(total):
        i = rng.randrange(len(ctx))
        exps[i] = exps.get(i, 0) + 1
    return Polynomial(ctx, {Monomial(exps): rng.choice(_COEFFS)})


def random_polynomial(
    rng: random.Random, ctx: VarContext, max_terms: int = 3, max_degree: int = 3
) -> Polynomial:
    """A nonzero polynomial with small terms."""
    while True:
        total = Polynomial.zero(ctx)
        for _ in range(rng.randint(1, max_terms)):
            total = total + random_single_term(rng, ctx, max_degree)
        if not total.is_zero:
            return total


def random_target(
    rng: random.Random, ctx: VarContext, summands: int
) -> tuple[Polynomial, list[TermSplit]]:
    """A nonzero sum of `summands` products together with its splits."""
    while True:
        splits = []
        total = Polynomial.zero(ctx)
        for _ in range(summands):
            left = random_single_term(rng, ctx, 2)
            while left.is_zero:
                left = random_single_term(rng, ctx, 2)
            right = random_single_term(rng, ctx, 1)
            splits.append(TermSplit(left, right))
            total = total + splits[-1].summand
        if not total.is_zero:
            return total, splits


def random_mf3_of(
    rng: random.Random, f: Polynomial, splits: list[TermSplit]
) -> MF3:
    """A certified factorization of f; size 1, 2 or 3 depending on the draw."""
    ctx = f.context
    styles = ["trivial"]
    if len(splits) == 1:
        styles.append("scalar")
    if len(splits) == 2:
        styles.extend(["promoted", "promoted", "summed"])
    style = rng.choice(styles)

    def trivial() -> MF3:
        """The 1x1 triple with f in one random slot and 1 in the others."""
        parts = [Polynomial.one(ctx)] * 3
        parts[rng.randrange(3)] = f
        return MF3(*(RatMatrix.from_rows(ctx, [[p]]) for p in parts), f)

    if style == "trivial":
        return trivial()
    if style == "scalar":
        parts = [splits[0].left, splits[0].right, Polynomial.one(ctx)]
        rng.shuffle(parts)
        return MF3(*(RatMatrix.from_rows(ctx, [[p]]) for p in parts), f)
    promoted = promote(
        standard_method(f, splits),
        which=rng.choice(["first", "second"]),
        method=rng.choice([DOOLITTLE, CROUT]),
    )
    if style == "promoted":
        return promoted
    small = trivial()
    return small.direct_sum(promoted) if rng.random() < 0.5 else promoted.direct_sum(small)


def random_mf3(rng: random.Random, ctx: VarContext) -> MF3:
    f, splits = random_target(rng, ctx, rng.choice([1, 2, 2]))
    return random_mf3_of(rng, f, splits)


def random_scalar_endomorphism(rng: random.Random, X: MF3) -> Morphism3:
    c = rng.choice(_COEFFS + [Fraction(1, 2), Fraction(-1, 3)])
    m = RatMatrix.scalar(X.context, X.size, c)
    return Morphism3(X, X, m, m, m)


# -- one randomized case per law --------------------------------------------


def _mismatch(label: str, a: RatMatrix, b: RatMatrix) -> str | None:
    spot = first_difference(a, b)
    if spot is None:
        return None
    i, j = spot
    return f"{label} differs at [{i}][{j}]: {a[i, j]} vs {b[i, j]}"


def _compare_mf3(label: str, a: MF3, b: MF3) -> str | None:
    if a.target != b.target:
        return f"{label}: targets differ ({a.target} vs {b.target})"
    for name, ma, mb in zip(a.names, a.components, b.components):
        msg = _mismatch(f"{label}.{name}", ma, mb)
        if msg:
            return msg
    return None


def case_tensor_certificate(rng: random.Random) -> str | None:
    X = random_mf3(rng, _context(rng, "x"))
    Y = random_mf3(rng, _context(rng, "y"))
    T = tensor3(X, Y)  # construction re-certifies the product
    if T.size != X.size * Y.size:
        return f"expected size {X.size * Y.size}, got {T.size}"
    ctx = T.context
    expected = X.target.in_context(ctx) * Y.target.in_context(ctx)
    if T.target != expected:
        return f"target {T.target} != {expected}"
    return None


def case_associativity(rng: random.Random) -> str | None:
    while True:
        X = random_mf3(rng, _context(rng, "x"))
        Y = random_mf3(rng, _context(rng, "y"))
        Z = random_mf3(rng, _context(rng, "z"))
        if X.size * Y.size * Z.size <= 12:
            break
    lhs = tensor3(tensor3(X, Y), Z)
    rhs = tensor3(X, tensor3(Y, Z))
    return _compare_mf3("(X@Y)@Z vs X@(Y@Z)", lhs, rhs)


def case_commutativity(rng: random.Random) -> str | None:
    X = random_mf3(rng, _context(rng, "x"))
    Y = random_mf3(rng, _context(rng, "y"))
    XY = tensor3(X, Y)
    YX = tensor3(Y, X)
    ctx = XY.context
    S = commutativity_witness(X, Y).to_matrix(ctx)
    St = S.transpose()
    for name, xy, yx in zip(XY.names, XY.components, YX.components):
        msg = _mismatch(f"shuffle conjugation of {name}", yx.in_context(ctx), S @ xy @ St)
        if msg:
            return msg
    return None


def case_distributivity(rng: random.Random) -> str | None:
    ctx_x = _context(rng, "x")
    f, splits = random_target(rng, ctx_x, 2)
    X1 = random_mf3_of(rng, f, splits)
    X2 = random_mf3_of(rng, f, splits)
    Xp = random_mf3(rng, _context(rng, "y"))
    # left slot: exact block identity
    lhs = tensor3(X1.direct_sum(X2), Xp)
    rhs = tensor3(X1, Xp).direct_sum(tensor3(X2, Xp))
    msg = _compare_mf3("(X1+X2)@X' vs (X1@X')+(X2@X')", lhs, rhs)
    if msg:
        return msg
    # right slot: exact only after conjugating by W = S(m,n1+n2)^T (S(m,n1)+S(m,n2))
    lhs = tensor3(Xp, X1.direct_sum(X2))
    inner = tensor3(Xp, X1).direct_sum(tensor3(Xp, X2))
    ctx = lhs.context
    m, n1, n2 = Xp.size, X1.size, X2.size
    W = perfect_shuffle(m, n1 + n2).transpose().to_matrix(ctx) @ (
        perfect_shuffle(m, n1).to_matrix(ctx).direct_sum(perfect_shuffle(m, n2).to_matrix(ctx))
    )
    Wt = W.transpose()
    for name, a, b in zip(lhs.names, lhs.components, inner.components):
        msg = _mismatch(f"X'@(X1+X2) vs conjugated sum, {name}", a, W @ b @ Wt)
        if msg:
            return msg
    return None


def case_bifunctor(rng: random.Random) -> str | None:
    X = random_mf3(rng, _context(rng, "x"))
    Y = random_mf3(rng, _context(rng, "y"))
    T = tensor3(X, Y)
    # identity axiom
    tensored_ids = tensor3_morphism(Morphism3.identity(X), Morphism3.identity(Y))
    if tensored_ids != Morphism3.identity(T):
        return "tensor of identities is not the identity of the tensor"
    # composition axiom, on scalar endomorphisms
    phi1 = random_scalar_endomorphism(rng, X)
    phi2 = random_scalar_endomorphism(rng, X)
    psi1 = random_scalar_endomorphism(rng, Y)
    psi2 = random_scalar_endomorphism(rng, Y)
    lhs = tensor3_morphism(phi2.compose(phi1), psi2.compose(psi1))
    rhs = tensor3_morphism(phi2, psi2).compose(tensor3_morphism(phi1, psi1))
    if lhs != rhs:
        return "F(g1 o f1, g2 o f2) != F(g1, g2) o F(f1, f2)"
    return None


def case_morphism_closure(rng: random.Random) -> str | None:
    X = random_mf3(rng, _context(rng, "x"))
    Y = random_mf3(rng, _context(rng, "y"))
    mf = random_scalar_endomorphism(rng, X)
    mg = random_scalar_endomorphism(rng, Y)
    t = tensor3_morphism(mf, mg)  # constructor re-runs the morphism check
    bad = violated_equation(*t.components, t.source, t.target)
    if bad is not None:
        return f"tensored morphism violates {bad[0]} at [{bad[1]}][{bad[2]}]"
    return None


SUITES: list[tuple[str, object]] = [
    ("tensor-certificate", case_tensor_certificate),
    ("associativity", case_associativity),
    ("commutativity-shuffle", case_commutativity),
    ("distributivity", case_distributivity),
    ("bifunctor-axioms", case_bifunctor),
    ("morphism-closure", case_morphism_closure),
]


@dataclass
class SuiteResult:
    name: str
    cases: int
    failures: list[tuple[int, str]]

    @property
    def passed(self) -> bool:
        return not self.failures


def run_laws(seed: int = 1, cases: int = 25, suites=None) -> list[SuiteResult]:
    """Run every law suite with a per-suite rng derived from the seed."""
    if cases < 0:
        raise ValueError(f"the number of cases must be nonnegative, got {cases}")
    chosen = SUITES if suites is None else suites
    results = []
    for index, (name, case_fn) in enumerate(chosen):
        rng = random.Random(1_000_003 * seed + 7919 * index + 17)
        failures = []
        for k in range(cases):
            try:
                message = case_fn(rng)
            except Exception as exc:  # a raised check is a law failure, not a crash
                message = f"{type(exc).__name__}: {exc}"
            if message is not None:
                failures.append((k, message))
        results.append(SuiteResult(name, cases, failures))
    return results
