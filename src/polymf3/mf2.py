"""Certified matrix factorizations, and the 2-matrix ones (P, Q) with P*Q = f*I.

Factorization holds what every certified factorization shares: square,
equal-sized components whose left-to-right product is f*I, checked on
construction. MF2 is the pair (P, Q); MF3 (in mf3.py) is the triple
(A1, A2, A3).

The recursive sum construction combines a factorization of f1 and one of
f2 into a factorization of f1 + f2 of size 2*n1*n2, doubling on each added
summand, so a sum of k products factors at size 2^(k-1) starting from the
1x1 base pairs ([left], [right]).
"""

from __future__ import annotations

from dataclasses import dataclass

from .context import same_context
from .errors import CertificateError, ContextError, DimensionError
from .matrix import RatMatrix, first_difference
from .poly import Monomial, Polynomial

# standard_method builds a size 2^(k-1) factorization from k summands; at
# k = 9 (size 256) that already takes seconds, and each summand more ~3-4x
MAX_SPLITS = 8


def check_product_is_scalar(label: str, product: RatMatrix, f: Polynomial):
    """Raise CertificateError at the first entry where product != f*I."""
    expected = RatMatrix.scalar(product.context, product.rows, f)
    spot = first_difference(product, expected)
    if spot is not None:
        i, j = spot
        raise CertificateError(label, i, j, product[i, j], expected[i, j])


def _fraction_entries(m: RatMatrix) -> int:
    """How many entries of m have a denominator other than 1."""
    return sum(1 for i in range(m.rows) for e in m.row(i) if not e.denominator.is_one)


def _certificate_product(components) -> RatMatrix:
    """The full product C1*C2*...*Cn, associated in the cheap order.

    While more than one factor is left, multiply the adjacent pair with the
    most non-polynomial entries, leftmost on a tie: after promote that
    is the L, U pair, whose product clears its denominators. Exact products
    are canonical, so the result does not depend on the order.
    """
    factors = list(components)
    while len(factors) > 1:
        counts = [_fraction_entries(m) for m in factors]
        k = max(range(len(factors) - 1), key=lambda i: counts[i] + counts[i + 1])
        factors[k : k + 2] = [factors[k] @ factors[k + 1]]
    return factors[0]


class Factorization:
    """A certified tuple of square matrices whose product is target*I.

    Subclasses name the components; the certificate multiplies them out in
    full, associated in the cheap order of _certificate_product, and is
    labelled by the joined names ("P*Q", "A1*A2*A3").
    """

    __slots__ = ("_components", "_target")
    names: tuple[str, ...] = ()

    def __init__(self, components: tuple, target: Polynomial):
        shapes = [m.shape for m in components]
        if not (components[0].is_square and len(set(shapes)) == 1):
            separator = " and " if len(shapes) == 2 else ", "
            raise DimensionError(
                "factors must be square and equal-sized, got "
                + separator.join(str(shape) for shape in shapes)
            )
        same_context(*components, target)
        check_product_is_scalar("*".join(self.names), _certificate_product(components), target)
        self._components = components
        self._target = target

    @property
    def components(self) -> tuple[RatMatrix, ...]:
        return self._components

    @property
    def target(self) -> Polynomial:
        return self._target

    @property
    def size(self) -> int:
        return self._components[0].rows

    @property
    def context(self):
        return self._target.context

    def direct_sum(self, other):
        """Componentwise block-diagonal sum of two factorizations of the same f."""
        if self.context != other.context:
            raise ContextError("factorizations from different variable contexts")
        if self._target != other._target:
            raise ValueError(
                f"direct sum needs equal targets, got {self._target} and {other._target}"
            )
        return type(self)(
            *(a.direct_sum(b) for a, b in zip(self._components, other._components)),
            self._target,
        )

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._target == other._target and self._components == other._components

    def __hash__(self):
        return hash((self._components, self._target))

    def __repr__(self):
        return f"{type(self).__name__}(size={self.size}, target={self._target})"


class MF2(Factorization):
    """A certified pair of square matrices with P*Q = target*I."""

    __slots__ = ()
    names = ("P", "Q")

    def __init__(self, P: RatMatrix, Q: RatMatrix, target: Polynomial):
        super().__init__((P, Q), target)

    @property
    def P(self) -> RatMatrix:
        return self._components[0]

    @property
    def Q(self) -> RatMatrix:
        return self._components[1]

    def is_two_sided(self) -> bool:
        """Whether Q*P = target*I as well (automatic when target != 0)."""
        try:
            check_product_is_scalar("Q*P", self.Q @ self.P, self._target)
        except CertificateError:
            return False
        return True


@dataclass(frozen=True)
class TermSplit:
    """One summand of the target written as left * right, left a single term."""

    left: Polynomial
    right: Polynomial

    def __post_init__(self):
        same_context(self.left, self.right)
        if not self.left.is_single_term:
            raise ValueError(f"split left factor must be a single term, got {self.left}")

    @property
    def summand(self) -> Polynomial:
        return self.left * self.right

    def base_factorization(self) -> MF2:
        return MF2(
            RatMatrix.from_rows(self.left.context, [[self.left]]),
            RatMatrix.from_rows(self.right.context, [[self.right]]),
            self.summand,
        )


def default_splits(f: Polynomial) -> list[TermSplit]:
    """One split per term of f, in graded-lex order (largest term first): the
    lowest-ordered variable at its full exponent carries the coefficient, and
    the rest of the monomial (1 for a constant term) is the right side."""
    ctx = f.context
    return [
        TermSplit(
            Polynomial(ctx, {Monomial(mono.powers[:1]): coeff}),
            Polynomial(ctx, {Monomial(mono.powers[1:]): 1}),
        )
        for mono, coeff in f.terms_grlex()
    ]


def splits_from_factors(summands: list[list[Polynomial]]) -> list[TermSplit]:
    """Build TermSplits from the product structure of parsed summands.

    The first single-term factor becomes the left side; everything else
    multiplies into the right side.
    """
    splits = []
    for factors in summands:
        pick = next((i for i, p in enumerate(factors) if p.is_single_term), None)
        if pick is None:
            raise ValueError(
                "split term has no single-term factor: "
                + " * ".join(f"({p})" for p in factors)
            )
        left = factors[pick]
        right = Polynomial.one(left.context)
        for i, p in enumerate(factors):
            if i != pick:
                right = right * p
        splits.append(TermSplit(left, right))
    return splits


def add_factorizations(x1: MF2, x2: MF2) -> MF2:
    """Combine factorizations of f1 and f2 into one of f1 + f2.

    Blocks:
        P = [[P1 kron I,  -(I kron P2)], [I kron Q2,  Q1 kron I]]
        Q = [[Q1 kron I,    I kron P2 ], [-(I kron Q2), P1 kron I]]

    The output is certified; size is 2 * n1 * n2.
    """
    if x1.context != x2.context:
        raise ContextError("factorizations from different variable contexts")
    i1 = RatMatrix.identity(x1.context, x1.size)
    i2 = RatMatrix.identity(x2.context, x2.size)
    p1i = x1.P.kron(i2)
    q1i = x1.Q.kron(i2)
    ip2 = i1.kron(x2.P)
    iq2 = i1.kron(x2.Q)
    P = _blocks((p1i, -ip2), (iq2, q1i))
    Q = _blocks((q1i, ip2), (-iq2, p1i))
    return MF2(P, Q, x1.target + x2.target)


def standard_method(f: Polynomial, splits: list[TermSplit] | None = None) -> MF2:
    """Factor f presented as a sum of products, doubling size per summand.

    With splits=None each graded-lex term of f is split by the default rule.
    Explicit splits must multiply and sum back to f exactly. At most
    MAX_SPLITS summands are accepted.
    """
    count = len(f) if splits is None else len(splits)
    if count > MAX_SPLITS:
        raise ValueError(
            f"{count} summands would give size 2^{count - 1}; at most {MAX_SPLITS} are supported"
        )
    if splits is None:
        if f.is_zero:
            raise ValueError(
                "cannot split the zero polynomial; build the pair ([0], [1]) directly"
            )
        splits = default_splits(f)
    if not splits:
        raise ValueError("at least one split is required")
    total = Polynomial.zero(f.context)
    for s in splits:
        total = total + s.summand
    if total != f:
        raise ValueError(f"splits sum to {total}, not to {f}")
    result = splits[0].base_factorization()
    for s in splits[1:]:
        result = add_factorizations(result, s.base_factorization())
    return result


def _blocks(top: tuple, bottom: tuple) -> RatMatrix:
    """The block matrix [[top[0], top[1]], [bottom[0], bottom[1]]] of n x n blocks."""
    entries = []
    for left, right in (top, bottom):
        for i in range(left.rows):
            entries.extend(left.row(i) + right.row(i))
    n = 2 * top[0].rows
    return RatMatrix(top[0].context, n, n, entries)
