#!/usr/bin/env python3
# From two matrix factors to three, via LU decomposition.
#
# Splitting one factor of a certified pair (P, Q) as P = L*U turns it into a
# triple (L, U, Q) with L*U*Q = f*I. The L and U entries live in the fraction
# field K(x, y, ...), which is why rational-function arithmetic is needed at
# all. Doolittle puts 1's on L's diagonal; Crout puts them on U's.

from polymf3 import (
    MF2,
    RatMatrix,
    SingularPivotError,
    VarContext,
    lu_decompose,
    promote,
)
from polymf3.serialize import format_factorization, format_matrix

ctx = VarContext("x y")
x, y = ctx.gens()

f = x**2 + y**2
pair = MF2(
    RatMatrix.from_rows(ctx, [[x, -y], [y, x]]),
    RatMatrix.from_rows(ctx, [[x, y], [-y, x]]),
    f,
)

# The Doolittle elimination is exact: the (2,1) multiplier is y/x and the
# last pivot is x + y^2/x = (x^2 + y^2)/x.
res = lu_decompose(pair.P, "doolittle")
print("L =")
print(format_matrix(res.L))
print("U =")
print(format_matrix(res.U))

print("\nPromoted triple (L, U, Q):")
print(format_factorization(promote(pair, "first", "doolittle")))

# Crout is the other normalization of the same elimination.
crout = lu_decompose(pair.P, "crout")
print("Crout L diagonal carries the pivots:", [str(crout.L[i, i]) for i in range(2)])

# Zero pivots are a real possibility, not a numerical artifact. This pair
# factors x*y but its first factor has a zero leading entry:
swapped = RatMatrix.from_rows(ctx, [[0, x], [y, 0]])
stuck = MF2(swapped, RatMatrix.from_rows(ctx, [[0, x], [y, 0]]), x * y)
try:
    promote(stuck, "first", "doolittle")
except SingularPivotError as exc:
    print("\nwithout pivoting:", exc)

# Allowing row pivoting absorbs the permutation back into the L-side factor,
# so the triple certificate still holds exactly.
triple = promote(stuck, "first", "doolittle", pivot=True)
print("with pivoting:", triple, "->", triple.provenance)
print(format_factorization(triple))
