"""The fraction field: reduced quotients of polynomials.

Canonical form: gcd(num, den) = 1, den has graded-lex leading coefficient 1,
and zero is 0/1. Equality is therefore structural. The constructor reduces
any num/den to this form; operations whose results are already coprime build
them through RationalFunction._raw. Sums and products build monic
denominators, as every gcd is monic and so is any product or exact quotient
of monic polynomials; only an inverse or a context move rescales (_monic).

The private _add and _mul take a _Memo, one matrix product's denominators
over a coprime base of factors certified irreducible, built from both
operands when the product starts. Over it a gcd of denominators is an
exponent minimum and a gcd of a numerator with a denominator is found by
trial division; a denominator off the base, or no memo, takes the general
gcd of the poly module. _Memo.lazy_sum sums a matrix entry's fractions over
their common denominator and reduces once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from operator import add, mul

from .context import VarContext, same_context
from .errors import ContextError
from .poly import Polynomial, _coefficients_in, _dot, _quotient, gcd

# the most base factors in an entry's common denominator for _Memo.lazy_sum.
# Timed per entry against Henrici's pairwise sums, the one-pass sum is ahead
# or level up to 3; at 4 it wins on small entries (tensor3's products) and
# loses on large ones (a size-64 factor3 certificate); past 4 it loses or ties
LAZY_SUM_CAP = 4


def _monic(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Scale num/den so den has graded-lex leading coefficient 1."""
    lc = den.leading_coefficient()
    if lc == 1:
        return num, den
    inverse = _quotient(1, lc)
    return num.scale(inverse), den.scale(inverse)


class _Memo:
    """The denominators of one matrix product over a coprime base.

    RatMatrix makes one per product over the entry sequences it multiplies,
    and drops it when the product returns: within a product the same few
    factors recur, and a table that outlived it would only grow. The
    constructor builds the base (_coprime_base) from every denominator of
    the operands at once; a product with only denominators 1 gets an empty
    base. A denominator that is a product of base factors is an exponent
    vector (1 is the zero vector), and the gcd of a numerator with it is the
    product of b^min(e, v_b(num)), found by trial division: a certified
    irreducible b that does not divide proves coprimality. Monomial
    denominators factor over the base's variables. Sums and products of such
    fractions have such denominators again, so a product's certificate stays
    on the base. A denominator off the base (an uncertified factor) leaves
    its operation to the general gcd.
    """

    __slots__ = ("base", "vectors", "powers", "seen")

    def __init__(self, operands=()):
        self.base = _coprime_base(operands)
        self.vectors: dict[Polynomial, tuple[int, ...] | None] = {}
        self.powers: dict[tuple[int, ...], Polynomial] = {}
        # id(d) -> (d, its vector): holding d keeps its id from being reused
        self.seen: dict[int, tuple[Polynomial, tuple[int, ...] | None]] = {}

    def vector(self, d: Polynomial) -> tuple[int, ...] | None:
        """d's exponents over the base, or None when d is not a product of
        base factors."""
        if (hit := self.seen.get(id(d))) is not None:
            return hit[1]  # no term-by-term comparison for a d looked up before
        if (v := self.vectors.get(d, d)) is d:
            # no base factor divides d more often than its degree
            rest, v = self.divide(d, [d.total_degree()] * len(self.base))
            v = self.vectors[d] = v if rest.is_one else None
        self.seen[id(d)] = d, v
        return v

    def power(self, v: tuple[int, ...]) -> Polynomial:
        """The product of the base factors to the exponents v."""
        p = self.powers.get(v)
        if p is None:
            factors = [b**e for b, e in zip(self.base, v) if e]
            p = reduce(mul, factors) if factors else Polynomial.one(self.base[0]._ctx)
            self.powers[v] = p
            self.vectors[p] = v
        return p

    def divide(self, num: Polynomial, v) -> tuple[Polynomial, tuple[int, ...]]:
        """(num / g, the exponents of g) for g = gcd(num, power(v)), the base
        factors being irreducible and pairwise coprime."""
        exponents = []
        for b, e in zip(self.base, v):
            k = 0
            while k < e and (q := num.try_exact_div(b)) is not None:
                num, k = q, k + 1
            exponents.append(k)
        return num, tuple(exponents)

    def lazy_sum(self, terms) -> RationalFunction | None:
        """The sum of a*b over pairs of nonzero fractions not both polynomials:
        numerators grouped by the exponents v of d(a)*d(b), each group summed
        by one _dot, lifted to power(top), top the exponent maximum, and one
        divide. None when a denominator is off the base or sum(top) > LAZY_SUM_CAP."""
        groups: dict[tuple[int, ...], list] = {}
        for a, b in terms:
            if (v := self.vector(a._den)) is None or (w := self.vector(b._den)) is None:
                return None
            groups.setdefault(tuple(map(add, v, w)), []).append((a._num, b._num))
        top = tuple(map(max, zip(*groups)))
        if sum(top) > LAZY_SUM_CAP:
            return None
        ctx = self.base[0]._ctx
        # a group that cancels to 0 is left out, as _dot takes nonzero factors
        lifted = [(s, self.power(_sub(top, v))) for v, pairs in groups.items() if (s := _dot(ctx, pairs))._terms]
        if not (num := _dot(ctx, lifted))._terms:
            return RationalFunction.zero(ctx)
        num, h = self.divide(num, top)
        return RationalFunction._raw(num, self.power(_sub(top, h)))


def _coprime_base(operands) -> list[Polynomial]:
    """Pairwise coprime irreducible factors of the denominators among the
    entries of operands: the variables of their monomial contents, and the
    factors that _irreducible certifies among a naive factor refinement of
    the rest (Bach, Driscoll and Shallit, J. Algorithms 15, 1993). Those
    are monic and free of monomial factors, so coprime to the variables."""
    variables: dict[int, Polynomial] = {}
    base: dict[Polynomial, bool] = {}  # each factor: certified irreducible?
    # first-seen order, so the refinement and its gcds do not depend on the hash seed
    for d in dict.fromkeys(e._den for entries in operands for e in entries if not e._den.is_one):
        m, rest = d._strip_monomial_content()
        for i in m.var_indices():
            variables[i] = Polynomial.variable(d._ctx, d._ctx.name_of(i))
        todo = [] if rest.is_constant else [rest]
        while todo:
            q = todo.pop()
            for b, certified in base.items():
                # an irreducible b shares a factor with q only by dividing it
                if certified:
                    g = b if q.try_exact_div(b) is not None else None
                else:
                    g = gcd(q, b)
                if g is not None and not g.is_one:
                    # replace b by g, q/g and b/g: the total degree falls,
                    # so the refinement ends
                    del base[b]
                    todo += [p for p in (g, q.exact_div(g), b.exact_div(g)) if not p.is_constant]
                    break
            else:
                base[q] = _irreducible(q)
    return [b for b, certified in base.items() if certified] + list(variables.values())


def _sub(v, w) -> tuple[int, ...]:
    """The exponent vector v - w."""
    return tuple(a - b for a, b in zip(v, w))


def _irreducible(b: Polynomial) -> bool:
    """True when b has degree 1 in some variable x and content 1 in x, which
    proves b irreducible: in any split, one factor has degree 0 in x and so
    divides that content. False proves nothing."""
    for x in b.var_indices():
        if b.degree_in(x) == 1:
            coeffs = _coefficients_in(b, x)
            if gcd(coeffs[1], coeffs.get(0, Polynomial.zero(b._ctx))).is_one:
                return True
    return False


class RationalFunction:
    __slots__ = ("_num", "_den")

    def __init__(self, num: Polynomial, den: Polynomial | None = None):
        if den is None:
            den = Polynomial.one(num.context)
        same_context(num, den)
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in rational function")
        if num.is_zero:
            num, den = num, Polynomial.one(num.context)
        else:
            g = gcd(num, den)
            if not g.is_one:
                num = num.exact_div(g)
                den = den.exact_div(g)
            num, den = _monic(num, den)
        self._num = num
        self._den = den

    @classmethod
    def _raw(cls, num: Polynomial, den: Polynomial) -> RationalFunction:
        """Wrap already-canonical parts without re-reducing."""
        out = cls.__new__(cls)
        out._num = num
        out._den = den
        return out

    @classmethod
    def zero(cls, context: VarContext) -> RationalFunction:
        return cls._raw(Polynomial.zero(context), Polynomial.one(context))

    @classmethod
    def one(cls, context: VarContext) -> RationalFunction:
        one = Polynomial.one(context)
        return cls._raw(one, one)

    @classmethod
    def from_value(cls, context: VarContext, value) -> RationalFunction:
        """Coerce a RationalFunction, Polynomial, int or Fraction."""
        if isinstance(value, RationalFunction):
            if value._num._ctx is not context and value._num._ctx != context:
                raise ContextError("rational function from a different context")
            return value
        if isinstance(value, Polynomial):
            if value._ctx is not context and value._ctx != context:
                raise ContextError("polynomial from a different context")
            return cls._raw(value, Polynomial.one(context))
        if isinstance(value, (int, Fraction)):
            return cls._raw(
                Polynomial.constant(context, value), Polynomial.one(context)
            )
        raise TypeError(f"cannot interpret {value!r} as a rational function")

    @property
    def numerator(self) -> Polynomial:
        return self._num

    @property
    def denominator(self) -> Polynomial:
        return self._den

    @property
    def context(self) -> VarContext:
        return self._num.context

    @property
    def is_zero(self) -> bool:
        return self._num.is_zero

    @property
    def is_one(self) -> bool:
        return self._num.is_one and self._den.is_one

    def __bool__(self):
        return not self._num.is_zero

    # -- field operations --------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, (RationalFunction, Polynomial, int, Fraction)):
            return RationalFunction.from_value(self.context, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._add(other, None)

    def _add(self, other: RationalFunction, memo: _Memo | None) -> RationalFunction:
        """self + other for a RationalFunction of the same context, over
        memo's base when both denominators factor over it (see _Memo)."""
        n1, d1, n2, d2 = self._num, self._den, other._num, other._den
        if not n1._terms:
            return other
        if not n2._terms:
            return self
        # Henrici's scheme: reduce against the denominators' gcd g0 only, which
        # keeps every gcd call small even when numerators are large. Equal
        # denominators are their own gcd with cofactors 1, and a denominator
        # 1 leaves the other one coprime to the sum's numerator
        equal = d1 is d2 or d1 == d2
        if equal:
            if d1.is_one:
                return RationalFunction._raw(n1 + n2, d1)
        elif d2.is_one:
            return RationalFunction._raw(n1 + n2 * d1, d1)
        elif d1.is_one:
            return RationalFunction._raw(n1 * d2 + n2, d2)
        if memo is not None and (e1 := memo.vector(d1)) is not None and (e2 := memo.vector(d2)) is not None:
            # g0 is the exponent minimum, and h = gcd(num, g0) comes from trial division
            e0 = tuple(map(min, e1, e2))
            if equal:
                num = n1 + n2
            else:
                num = n1 * memo.power(_sub(e2, e0)) + n2 * memo.power(_sub(e1, e0))
            if not num._terms:
                return RationalFunction.zero(self.context)
            num, h = memo.divide(num, e0)
            return RationalFunction._raw(num, memo.power(_sub(map(max, e1, e2), h)))
        if equal:
            num, den, g0 = n1 + n2, d1, d1
        else:
            g0 = gcd(d1, d2)
            d1r = d1.exact_div(g0)
            d2r = d2.exact_div(g0)
            num = n1 * d2r + n2 * d1r
            den = d1 * d2r
        if not num._terms:
            return RationalFunction.zero(self.context)
        h = gcd(num, g0)
        if not h.is_one:
            num = num.exact_div(h)
            den = den.exact_div(h)
        return RationalFunction._raw(num, den)

    __radd__ = __add__

    def __neg__(self):
        return RationalFunction._raw(-self._num, self._den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._mul(other, None)

    def _mul(self, other: RationalFunction, memo: _Memo | None) -> RationalFunction:
        """self * other for a RationalFunction of the same context, over
        memo's base as in _add."""
        n1, d1, n2, d2 = self._num, self._den, other._num, other._den
        if not n1._terms or not n2._terms:
            return RationalFunction.zero(self.context)
        if d1.is_one and d2.is_one:
            return RationalFunction._raw(n1 * n2, d1)
        if d1.is_one:  # so that below only d2 may be 1
            n1, d1, n2, d2 = n2, d2, n1, d1
        if memo is not None and (e1 := memo.vector(d1)) is not None and (e2 := memo.vector(d2)) is not None:
            # each cross gcd by trial division over the base
            n1, g1 = memo.divide(n1, e2)
            n2, g2 = memo.divide(n2, e1)
            return RationalFunction._raw(n1 * n2, memo.power(_sub(map(add, e1, e2), map(add, g1, g2))))
        if d2.is_one:
            # n1/d1 times the polynomial n2: only n2 and d1 can share a factor
            g = gcd(n2, d1)
            return RationalFunction._raw(n1 * n2.exact_div(g), d1.exact_div(g))
        # cross-reduce before multiplying; both inputs are canonical, so the
        # result is already reduced
        g1 = gcd(n1, d2)
        g2 = gcd(n2, d1)
        num = n1.exact_div(g1) * n2.exact_div(g2)
        den = d1.exact_div(g2) * d2.exact_div(g1)
        return RationalFunction._raw(num, den)

    __rmul__ = __mul__

    def inverse(self) -> RationalFunction:
        if self.is_zero:
            raise ZeroDivisionError("inverse of the zero rational function")
        return RationalFunction._raw(*_monic(self._den, self._num))

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        # powers of coprime parts stay coprime and a monic power stays monic
        return RationalFunction._raw(self._num**exponent, self._den**exponent)

    # -- equality and display ------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (Polynomial, int, Fraction)):
            other = RationalFunction.from_value(self.context, other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self._num == other._num and self._den == other._den

    def __hash__(self):
        return hash((self._num, self._den))

    def in_context(self, new_ctx: VarContext) -> RationalFunction:
        if new_ctx == self.context:
            return self
        # renaming preserves coprimality; only the monic normalization can change
        return RationalFunction._raw(
            *_monic(self._num.in_context(new_ctx), self._den.in_context(new_ctx))
        )

    def __str__(self):
        if self._den.is_one:
            return str(self._num)
        # a side stays bare when it is the writer grammar's INT or NAME ['^' INT]
        # (see parsing), the only polynomial texts with none of ' ', '-', '*', '/'
        return "/".join(
            f"({s})" if any(c in s for c in " -*/") else s for s in (str(self._num), str(self._den))
        )

    def __repr__(self):
        return f"RationalFunction({self})"

