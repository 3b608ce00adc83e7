#!/usr/bin/env python3
# The category of 3-matrix factorizations and the tensor-product laws.
#
# Fix a target polynomial f. The factorizations (C_0, ..., C_{n-1}) of f form
# a category: a morphism to (C'_0, ..., C'_{n-1}) is a tuple of matrices
# (m_0, ..., m_{n-1}) with m_i*C_i = C'_i*m_{i+1 mod n} for every i. For
# pairs (n = 2) these are the usual morphisms of matrix factorizations; for
# triples (phi1, psi1, theta1) -> (phi2, psi2, theta2) they are the triples
# (alpha, beta, delta) of Morphism3, making three squares commute.
# Composition is componentwise, and identity tuples are identities. tensor3
# acts on morphisms too (componentwise Kronecker), and that action respects
# identity and composition: it is a bifunctor.

import random

from polymf3 import (
    MF2,
    Morphism3,
    MorphismError,
    RatMatrix,
    VarContext,
    promote,
    run_laws,
    tensor3,
    tensor3_morphism,
)
from polymf3.laws import random_mf3, random_scalar_endomorphism

ctx = VarContext("x y")
x, y = ctx.gens()
f = x**2 + y**2

X = promote(
    MF2(
        RatMatrix.from_rows(ctx, [[x, -y], [y, x]]),
        RatMatrix.from_rows(ctx, [[x, y], [-y, x]]),
        f,
    ),
    "first",
    "doolittle",
)

# Scalar multiples of the identity are always endomorphisms.
two = RatMatrix.scalar(ctx, 2, 2)
double = Morphism3(X, X, two, two, two)
ident = Morphism3.identity(X)
print("identity laws:", ident @ double == double == double @ ident)

# A perturbed triple is rejected with the violated equation named.
bumped = RatMatrix.from_rows(ctx, [[1, x], [0, 1]])
try:
    Morphism3(X, X, bumped, two, two)
except MorphismError as exc:
    print("rejected:", exc)

# The tensor product of morphisms is a morphism between the tensored objects,
# and the bifunctor axioms hold on the nose.
rng = random.Random(0)
Y = random_mf3(rng, VarContext("u v"))
mf1, mf2_ = random_scalar_endomorphism(rng, X), random_scalar_endomorphism(rng, X)
mg1, mg2 = random_scalar_endomorphism(rng, Y), random_scalar_endomorphism(rng, Y)
print(
    "composition axiom:",
    tensor3_morphism(mf2_ @ mf1, mg2 @ mg1)
    == tensor3_morphism(mf2_, mg2) @ tensor3_morphism(mf1, mg1),
)
print(
    "identity axiom:",
    tensor3_morphism(Morphism3.identity(X), Morphism3.identity(Y))
    == Morphism3.identity(tensor3(X, Y)),
)

# The seeded law suites check everything at scale: product certificates,
# associativity, shuffle commutativity, distributivity, bifunctor axioms,
# and closure of tensored morphisms. Same seed, same report, every time.
print("\nlaw suites (seed 1, 25 cases each):")
for r in run_laws(seed=1, cases=25):
    print(f"  {r.name:<22} {'PASS' if r.passed else 'FAIL'}")
