"""The fraction field: reduced quotients of polynomials.

Canonical form: gcd(num, den) = 1, den has graded-lex leading coefficient 1,
and zero is 0/1. Equality is therefore structural. The constructor reduces
any num/den to this form; operations whose results are already coprime build
them through RationalFunction._raw after the one monic step, _monic.
"""

from __future__ import annotations

from fractions import Fraction

from .context import VarContext, same_context
from .errors import ContextError
from .poly import Polynomial, _quotient, gcd


def _monic(num: Polynomial, den: Polynomial) -> tuple[Polynomial, Polynomial]:
    """Scale num/den so den has graded-lex leading coefficient 1."""
    lc = den.leading_coefficient()
    if lc == 1:
        return num, den
    inverse = _quotient(1, lc)
    return num.scale(inverse), den.scale(inverse)


class _Memo:
    """The gcds and exact quotients of one matrix product, keyed by operand
    pair. RatMatrix.__matmul__ makes one per product and drops it when the
    product returns: within a product the same denominators meet again and
    again, and a table that outlived it would only grow."""

    __slots__ = ("gcds", "quotients")

    def __init__(self):
        self.gcds: dict[tuple[Polynomial, Polynomial], Polynomial] = {}
        self.quotients: dict[tuple[Polynomial, Polynomial], Polynomial] = {}


def _gcd(a: Polynomial, b: Polynomial, memo: _Memo | None) -> Polynomial:
    """gcd(a, b), looked up in memo when there is one; a constant or
    single-term operand goes to gcd's own shortcut, not to the memo."""
    if memo is None or len(a._terms) < 2 or len(b._terms) < 2:
        return gcd(a, b)
    key = (a, b)
    g = memo.gcds.get(key)
    if g is None:
        g = memo.gcds[key] = gcd(a, b)
    return g


def _div(a: Polynomial, b: Polynomial, memo: _Memo | None) -> Polynomial:
    """The exact quotient a/b, looked up in memo like _gcd."""
    if memo is None or len(b._terms) < 2:
        return a.exact_div(b)
    key = (a, b)
    q = memo.quotients.get(key)
    if q is None:
        q = memo.quotients[key] = a.exact_div(b)
    return q


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
        """self + other for a RationalFunction of the same context; memo as in _gcd."""
        n1, d1, n2, d2 = self._num, self._den, other._num, other._den
        if not n1._terms:
            return other
        if not n2._terms:
            return self
        # Henrici's scheme: reduce against the denominators' gcd g0 only, which
        # keeps every gcd call small even when numerators are large. Equal
        # denominators are their own gcd with cofactors 1, and a denominator
        # 1 leaves the other one coprime to the sum's numerator
        if d1 is d2 or d1 == d2:
            if d1.is_one:
                return RationalFunction._raw(n1 + n2, d1)
            num, den, g0 = n1 + n2, d1, d1
        elif d2.is_one:
            return RationalFunction._raw(n1 + n2 * d1, d1)
        elif d1.is_one:
            return RationalFunction._raw(n1 * d2 + n2, d2)
        else:
            g0 = _gcd(d1, d2, memo)
            d1r = _div(d1, g0, memo)
            d2r = _div(d2, g0, memo)
            num = n1 * d2r + n2 * d1r
            den = d1 * d2r
        if not num._terms:
            return RationalFunction.zero(self.context)
        h = _gcd(num, g0, memo)
        if not h.is_one:
            num = _div(num, h, memo)
            den = _div(den, h, memo)
        return RationalFunction._raw(*_monic(num, den))

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
        """self * other for a RationalFunction of the same context; memo as in _gcd."""
        n1, d1, n2, d2 = self._num, self._den, other._num, other._den
        if not n1._terms or not n2._terms:
            return RationalFunction.zero(self.context)
        if d1.is_one:
            if d2.is_one:
                return RationalFunction._raw(n1 * n2, d1)
            n1, d1, n2, d2 = n2, d2, n1, d1
        if d2.is_one:
            # n1/d1 times the polynomial n2: only n2 and d1 can share a factor
            g = _gcd(n2, d1, memo)
            return RationalFunction._raw(*_monic(n1 * _div(n2, g, memo), _div(d1, g, memo)))
        # cross-reduce before multiplying; both inputs are canonical, so the
        # result is already reduced and only needs a monic denominator
        g1 = _gcd(n1, d2, memo)
        g2 = _gcd(n2, d1, memo)
        num = _div(n1, g1, memo) * _div(n2, g2, memo)
        den = _div(d1, g2, memo) * _div(d2, g1, memo)
        return RationalFunction._raw(*_monic(num, den))

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

    @staticmethod
    def _atomic(p: Polynomial) -> bool:
        """True when str(p) needs no parentheses inside a num/den quotient."""
        if len(p) != 1:
            return False
        mono, coeff = p.leading_term()
        if mono.is_one():
            return coeff >= 0 and coeff.denominator == 1
        return coeff == 1 and len(mono.powers) == 1

    def __str__(self):
        if self._den.is_one:
            return str(self._num)
        num = str(self._num) if self._atomic(self._num) else f"({self._num})"
        den = str(self._den) if self._atomic(self._den) else f"({self._den})"
        return f"{num}/{den}"

    def __repr__(self):
        return f"RationalFunction({self})"
