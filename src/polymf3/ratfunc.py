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
            if value.context != context:
                raise ContextError("rational function from a different context")
            return value
        if isinstance(value, Polynomial):
            if value.context != context:
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
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        if self._den.is_one and other._den.is_one:
            return RationalFunction._raw(self._num + other._num, self._den)
        # Henrici's scheme: reduce against the denominators' gcd only, which
        # keeps every gcd call small even when numerators are large
        g0 = gcd(self._den, other._den)
        d1r = self._den.exact_div(g0)
        d2r = other._den.exact_div(g0)
        num = self._num * d2r + other._num * d1r
        h = gcd(num, g0)
        den = self._den * d2r
        if not h.is_one:
            num = num.exact_div(h)
            den = den.exact_div(h)
        if num.is_zero:
            return RationalFunction.zero(self.context)
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
        if self.is_zero or other.is_zero:
            return RationalFunction.zero(self.context)
        if self._den.is_one and other._den.is_one:
            return RationalFunction._raw(self._num * other._num, self._den)
        # cross-reduce before multiplying; both inputs are canonical, so the
        # result is already reduced and only needs a monic denominator
        g1 = gcd(self._num, other._den)
        g2 = gcd(other._num, self._den)
        num = self._num.exact_div(g1) * other._num.exact_div(g2)
        den = self._den.exact_div(g2) * other._den.exact_div(g1)
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
