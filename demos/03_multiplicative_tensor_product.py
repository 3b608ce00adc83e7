#!/usr/bin/env python3
# The multiplicative tensor product of 3-matrix factorizations.
#
# If X factors f and Y factors g, the componentwise Kronecker product
# tensor3(X, Y) factors f*g, at size n*m. The certificate follows from the
# mixed-product identity (A kron B)(C kron D) = AC kron BD, and it is checked
# exactly on construction here.

from polymf3 import (
    MF2,
    MF3,
    RatMatrix,
    VarContext,
    commutativity_witness,
    promote,
    tensor3,
)
from polymf3.serialize import format_factorization, format_matrix

ctx = VarContext("x y z")
x, y, z = ctx.gens()

f = x**2 + y**2
g = x * y * z + z * x**2

X = promote(
    MF2(
        RatMatrix.from_rows(ctx, [[x, -y], [y, x]]),
        RatMatrix.from_rows(ctx, [[x, y], [-y, x]]),
        f,
    ),
    "first",
    "doolittle",
)
Y = promote(
    MF2(
        RatMatrix.from_rows(ctx, [[x * y, -z], [x**2, z]]),
        RatMatrix.from_rows(ctx, [[z, z], [-(x**2), x * y]]),
        g,
    ),
    "first",
    "doolittle",
)

T = tensor3(X, Y)
print(f"tensor3 of a factorization of f = {f} and one of g = {g}:")
print(format_factorization(T))

# Swapping the tensor order gives a different but isomorphic factorization:
# every component of tensor3(Y, X) is the perfect-shuffle conjugate of the
# corresponding component of tensor3(X, Y).
S = commutativity_witness(X, Y)
Sm = S.to_matrix(T.context)
swapped = tensor3(Y, X)
conjugated = [Sm @ c @ Sm.transpose() for c in T.components]
print("shuffle-conjugation reproduces tensor3(Y, X):",
      all(a == b for a, b in zip(swapped.components, conjugated)))
print("the witness permutation:")
print(format_matrix(Sm))

# Tensoring over disjoint variable sets merges the contexts.
cu = VarContext("u")
(u,) = cu.gens()
one = RatMatrix.identity(cu, 1)
U = tensor3(X, MF3(RatMatrix.from_rows(cu, [[u]]), one, one, u))
print("disjoint-variable product lives over", U.context, "and factors", U.target)
