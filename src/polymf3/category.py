"""The category of 3-matrix factorizations of a fixed polynomial.

Objects are certified MF3 triples (phi, psi, theta). A morphism from
(phi1, psi1, theta1) to (phi2, psi2, theta2), both of target f, is a
triplet (alpha, beta, delta) of n2 x n1 matrices satisfying

    alpha @ phi1 == phi2 @ beta
    psi2 @ delta == beta @ psi1
    delta @ theta1 == theta2 @ alpha

Composition is componentwise matrix product; identities are identity
triples. tensor3 is the multiplicative tensor product: the componentwise
Kronecker product, which takes factorizations of f and g to one of f*g,
and acts on morphisms the same way, making it a bifunctor.
"""

from __future__ import annotations

from .errors import DimensionError, MorphismError
from .matrix import PermutationMatrix, RatMatrix, first_difference, perfect_shuffle
from .mf3 import MF3


def violated_equation(
    alpha: RatMatrix, beta: RatMatrix, delta: RatMatrix, source: MF3, target: MF3
) -> tuple[str, int, int] | None:
    """The first failing commuting-square equation, or None when all hold."""
    phi1, psi1, theta1 = source.components
    phi2, psi2, theta2 = target.components
    checks = (
        ("alpha*phi1 = phi2*beta", alpha @ phi1, phi2 @ beta),
        ("psi2*delta = beta*psi1", psi2 @ delta, beta @ psi1),
        ("delta*theta1 = theta2*alpha", delta @ theta1, theta2 @ alpha),
    )
    for name, lhs, rhs in checks:
        spot = first_difference(lhs, rhs)
        if spot is not None:
            return name, spot[0], spot[1]
    return None


class Morphism3:
    """A certified morphism (alpha, beta, delta) between two MF3 objects."""

    __slots__ = ("_source", "_target", "_alpha", "_beta", "_delta")

    def __init__(
        self,
        source: MF3,
        target: MF3,
        alpha: RatMatrix,
        beta: RatMatrix,
        delta: RatMatrix,
    ):
        if source.target != target.target:
            raise ValueError(
                f"source and target factor different polynomials: "
                f"{source.target} vs {target.target}"
            )
        want = (target.size, source.size)
        for name, m in (("alpha", alpha), ("beta", beta), ("delta", delta)):
            if m.shape != want:
                raise DimensionError(
                    f"{name} must be {want[0]}x{want[1]}, got {m.shape[0]}x{m.shape[1]}"
                )
        bad = violated_equation(alpha, beta, delta, source, target)
        if bad is not None:
            raise MorphismError(*bad)
        self._source = source
        self._target = target
        self._alpha = alpha
        self._beta = beta
        self._delta = delta

    @classmethod
    def identity(cls, X: MF3) -> Morphism3:
        i = RatMatrix.identity(X.context, X.size)
        return cls(X, X, i, i, i)

    @property
    def source(self) -> MF3:
        return self._source

    @property
    def target(self) -> MF3:
        return self._target

    @property
    def alpha(self) -> RatMatrix:
        return self._alpha

    @property
    def beta(self) -> RatMatrix:
        return self._beta

    @property
    def delta(self) -> RatMatrix:
        return self._delta

    @property
    def components(self) -> tuple[RatMatrix, RatMatrix, RatMatrix]:
        return self._alpha, self._beta, self._delta

    def compose(self, inner: Morphism3) -> Morphism3:
        """self after inner: (a2*a1, b2*b1, d2*d1)."""
        if inner._target != self._source:
            raise ValueError("codomain of the inner morphism must match this domain")
        return Morphism3(
            inner._source,
            self._target,
            self._alpha @ inner._alpha,
            self._beta @ inner._beta,
            self._delta @ inner._delta,
        )

    def __matmul__(self, inner: Morphism3) -> Morphism3:
        if not isinstance(inner, Morphism3):
            return NotImplemented
        return self.compose(inner)

    def __eq__(self, other):
        if not isinstance(other, Morphism3):
            return NotImplemented
        return (
            self._source == other._source
            and self._target == other._target
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self._source, self._target, self.components))

    def __repr__(self):
        return f"Morphism3({self._source!r} -> {self._target!r})"


def tensor3(X: MF3, Y: MF3) -> MF3:
    """Multiplicative tensor product: componentwise Kronecker product.

    The variable contexts are merged (ordered union, X's variables first)
    and the result is a certified factorization of X.target * Y.target of
    size X.size * Y.size.
    """
    ctx = X.context.merge(Y.context)
    target = X.target.in_context(ctx) * Y.target.in_context(ctx)
    return MF3(*_kron_pairs(X.components, Y.components, ctx), target)


def tensor3_morphism(mf: Morphism3, mg: Morphism3) -> Morphism3:
    """Tensor two morphisms: componentwise Kronecker product of the triples.

    The result maps tensor3(sources) to tensor3(targets) and is re-certified
    on construction.
    """
    source = tensor3(mf.source, mg.source)
    target = tensor3(mf.target, mg.target)
    return Morphism3(
        source, target, *_kron_pairs(mf.components, mg.components, source.context)
    )


def _kron_pairs(left, right, ctx) -> list[RatMatrix]:
    """Componentwise Kronecker products, both sides moved into ctx first."""
    return [a.in_context(ctx).kron(b.in_context(ctx)) for a, b in zip(left, right)]


def commutativity_witness(X: MF3, Y: MF3) -> PermutationMatrix:
    """The shuffle S with components of tensor3(Y, X) equal to
    S @ (components of tensor3(X, Y)) @ S.transpose()."""
    return perfect_shuffle(X.size, Y.size)
