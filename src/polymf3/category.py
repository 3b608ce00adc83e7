"""The category of matrix factorizations of a fixed polynomial.

Objects are certified factorizations (C_0, ..., C_{n-1}) of f, pairs (MF2)
or triples (MF3). A morphism to (C'_0, ..., C'_{n-1}), also of target f, is
a tuple (m_0, ..., m_{n-1}) of n2 x n1 matrices with, for every i,

    m_i @ C_i == C'_i @ m_{i+1 mod n}

For n = 2 these are the usual morphisms of matrix factorizations (Eisenbud
1980); Morphism3 names the n = 3 components (alpha, beta, delta) and its
squares. Composition is componentwise matrix product; identities are tuples
of identity matrices. tensor3 is the multiplicative tensor product: the
componentwise Kronecker product, which takes factorizations of f and g to
one of f*g, and acts on morphisms the same way, making it a bifunctor.
"""

from __future__ import annotations

from .errors import DimensionError, MorphismError
from .matrix import MAX_SIZE, PermutationMatrix, RatMatrix, first_difference, perfect_shuffle
from .mf2 import Components, Factorization
from .mf3 import MF3


def violated_equation(*args) -> tuple[str, int, int] | None:
    """The first failing square m_i*C_i = C'_i*m_{i+1 mod n}, or None when all hold.

    Call as violated_equation(*components, source, target). A triple's squares
    carry Morphism3's labels; other lengths are labelled by component index.
    """
    *components, source, target = args
    n = len(components)
    for i in range(n):
        lhs = components[i] @ source.components[i]
        spot = first_difference(lhs, target.components[i] @ components[(i + 1) % n])
        if spot is not None:
            label = Morphism3.equations[i] if n == 3 else f"m{i}*C{i} = C'{i}*m{(i + 1) % n}"
            return label, spot[0], spot[1]
    return None


class Morphism(Components):
    """A morphism between two factorizations of one polynomial, its squares
    checked on construction. Subclasses may name the components (else m0, m1, ...)."""

    __slots__ = ("_source", "_target")

    def __init__(self, source: Factorization, target: Factorization, *components: RatMatrix):
        if source.target != target.target:
            raise ValueError(
                f"source and target factor different polynomials: "
                f"{source.target} vs {target.target}"
            )
        n = len(components)
        if {len(source.components), len(target.components)} != {n}:
            raise DimensionError(f"{n} components cannot map {source!r} to {target!r}")
        want = (target.size, source.size)
        for i, m in enumerate(components):
            if m.shape != want:
                raise DimensionError(
                    f"{self.names[i] if self.names else f'm{i}'} must be "
                    f"{want[0]}x{want[1]}, got {m.shape[0]}x{m.shape[1]}"
                )
        bad = violated_equation(*components, source, target)
        if bad is not None:
            raise MorphismError(*bad)
        self._source = source
        self._target = target
        self._components = components

    @classmethod
    def identity(cls, X: Factorization) -> Morphism:
        return cls(X, X, *[RatMatrix.identity(X.context, X.size)] * len(X.components))

    @property
    def source(self) -> Factorization:
        return self._source

    @property
    def target(self) -> Factorization:
        return self._target

    def compose(self, inner: Morphism) -> Morphism:
        """self after inner: componentwise products (m2_i * m1_i)."""
        if inner._target != self._source:
            raise ValueError("codomain of the inner morphism must match this domain")
        products = (a @ b for a, b in zip(self._components, inner._components))
        return type(self)(inner._source, self._target, *products)

    def __matmul__(self, inner: Morphism) -> Morphism:
        if not isinstance(inner, Morphism):
            return NotImplemented
        return self.compose(inner)

    def __eq__(self, other):
        if not isinstance(other, Morphism):
            return NotImplemented
        return (
            self._source == other._source
            and self._target == other._target
            and self._components == other._components
        )

    def __hash__(self):
        return hash((self._source, self._target, self._components))

    def __repr__(self):
        return f"{type(self).__name__}({self._source!r} -> {self._target!r})"


class Morphism3(Morphism):
    """A certified morphism (alpha, beta, delta) between two MF3 objects."""

    __slots__ = ()
    names = ("alpha", "beta", "delta")
    equations = ("alpha*phi1 = phi2*beta", "psi2*delta = beta*psi1", "delta*theta1 = theta2*alpha")

    def __init__(
        self, source: MF3, target: MF3, alpha: RatMatrix, beta: RatMatrix, delta: RatMatrix
    ):
        super().__init__(source, target, alpha, beta, delta)


def check_tensor_size(n: int):
    """Refuse a tensor3 product of size n above MAX_SIZE."""
    if n > MAX_SIZE:
        raise ValueError(f"tensor3 would be {n}x{n}; at most {MAX_SIZE}x{MAX_SIZE} is supported")


def tensor3(X: MF3, Y: MF3) -> MF3:
    """Multiplicative tensor product: componentwise Kronecker product.

    The variable contexts are merged (ordered union, X's variables first)
    and the result is a certified factorization of X.target * Y.target of
    size X.size * Y.size, at most MAX_SIZE.
    """
    check_tensor_size(X.size * Y.size)
    ctx = X.context.merge(Y.context)
    target = X.target.in_context(ctx) * Y.target.in_context(ctx)
    return MF3(*_kron_pairs(X.components, Y.components, ctx), target)


def tensor3_morphism(mf: Morphism3, mg: Morphism3) -> Morphism3:
    """Tensor two morphisms: componentwise Kronecker product of the triples.

    The result maps tensor3(sources) to tensor3(targets) and is re-certified
    on construction. For two endomorphisms the targets are the sources, so
    their tensor product is built and certified once.
    """
    source = tensor3(mf.source, mg.source)
    endo = mf.target is mf.source and mg.target is mg.source
    target = source if endo else tensor3(mf.target, mg.target)
    return type(mf)(source, target, *_kron_pairs(mf.components, mg.components, source.context))


def _kron_pairs(left, right, ctx) -> list[RatMatrix]:
    """Componentwise Kronecker products, both sides moved into ctx first."""
    return [a.in_context(ctx).kron(b.in_context(ctx)) for a, b in zip(left, right)]


def commutativity_witness(X: MF3, Y: MF3) -> PermutationMatrix:
    """The shuffle S with components of tensor3(Y, X) equal to
    S @ (components of tensor3(X, Y)) @ S.transpose()."""
    return perfect_shuffle(X.size, Y.size)
