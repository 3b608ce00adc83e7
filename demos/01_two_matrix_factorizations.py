#!/usr/bin/env python3
# Factoring polynomials with pairs of matrices.
#
# An irreducible polynomial can still be "factored" once matrix entries are
# allowed: a pair (P, Q) of square matrices with P*Q = f*I is a 2-matrix
# factorization of f. Everything here is exact rational arithmetic, and
# every constructed pair is certified by multiplying it back out.

from polymf3 import (
    MF2,
    RatMatrix,
    VarContext,
    parse_polynomial,
    parse_summands,
    splits_from_factors,
    standard_method,
)
from polymf3.serialize import format_factorization, format_matrix

ctx = VarContext("x y z")
x, y, z = ctx.gens()

# x^3 + y^2 has no polynomial factors, but it does have matrix ones:
pair = MF2(
    RatMatrix.from_rows(ctx, [[x, -y], [y, x**2]]),
    RatMatrix.from_rows(ctx, [[x**2, y], [-y, x]]),
    x**3 + y**2,
)
print("A 2x2 factorization of x^3 + y^2 (the constructor verified P*Q = f*I):")
print(format_factorization(pair))

# The recursive construction: factor each summand as left*right, start from
# the 1x1 pairs ([left], [right]), and fold summands together, doubling the
# size each time. A sum of k products factors at size 2^(k-1).
l = parse_polynomial("x*y + (x^2 + y*z)*z", ctx)
splits = splits_from_factors(parse_summands("x*y + (x^2+y*z)*z", ctx))
print(f"l = {l}, written as two products -> size {standard_method(l, splits).size}")
print(format_factorization(standard_method(l, splits)))

# The same polynomial split into its three monomials gives a 4x4 pair whose
# entries are all monomials.
h = parse_polynomial("x*y + x^2*z + y*z^2", ctx)
four = standard_method(h)
print(f"h = {h}, split per monomial -> size {four.size}")
print("P =")
print(format_matrix(four.P))

# Certificates are two-sided for nonzero targets: Q*P = f*I as well.
print("\ntwo-sided:", four.is_two_sided())
