"""Parsing for the polynomial expression grammar.

Grammar (whitespace insignificant, ^ binds tightest, * explicit):

    quotient := expr ['/' expr]    (a stored rational-function entry)
    expr     := term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := '-' factor | power
    power    := atom ['^' INT]
    atom     := INT ['/' INT] | IDENT | '(' expr ')'

Identifiers match [a-zA-Z][a-zA-Z0-9_]*; INT is a nonnegative integer and
INT '/' INT is a rational literal. Inside an expr a '/' is only consumed
between two integer literals; a quotient's '/' must be the only '/' at
parenthesis depth 0, literals included, so "1/2*x/y" is refused.

Hostile input ends in a ParseError at three limits: parentheses and unary
minus nest at most MAX_NESTING deep, and expanding one product or power takes
at most MAX_TERM_PRODUCTS term products and reaches at most an estimated
MAX_COEFFICIENT_BITS per coefficient. Exponents are not bounded themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, prod
from string import ascii_letters, digits

from .context import VarContext
from .errors import ParseError, UnknownVariableError
from .poly import Polynomial
from .ratfunc import RationalFunction


@dataclass(frozen=True)
class _Token:
    kind: str  # INT | IDENT | OP | END
    value: str
    pos: int


_OPS = set("+-*^/()")
# ASCII only, as the grammar says: str.isdigit also takes '٣' and '²'
_IDENT_CHARS = set(ascii_letters + digits + "_")

MAX_NESTING = 100
MAX_TERM_PRODUCTS = 10_000
MAX_COEFFICIENT_BITS = 100_000


def _growth_bits(p: Polynomial) -> int:
    """Estimated bits factor p adds to a product's coefficients: its largest
    coefficient's numerator and denominator bits, plus its term count's bits."""
    bits = [c.numerator.bit_length() + c.denominator.bit_length() - 2 for c in p.coefficients()]
    return max(bits, default=0) + max(len(p) - 1, 0).bit_length()


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in digits:
            j = i
            while j < n and text[j] in digits:
                j += 1
            tokens.append(_Token("INT", text[i:j], i))
            i = j
            continue
        if ch in ascii_letters:
            j = i
            while j < n and text[j] in _IDENT_CHARS:
                j += 1
            tokens.append(_Token("IDENT", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", text, i)
    tokens.append(_Token("END", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str, ctx: VarContext):
        self.text = text
        self.ctx = ctx
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def at_op(self, *chars) -> bool:
        tok = self.peek()
        return tok.kind == "OP" and tok.value in chars

    def expect_op(self, char):
        tok = self.advance()
        if tok.kind != "OP" or tok.value != char:
            raise ParseError(f"expected {char!r}", self.text, tok.pos)
        return tok

    def fail(self, message):
        raise ParseError(message, self.text, self.peek().pos)

    def end(self):
        tok = self.advance()
        if tok.kind != "END":
            raise ParseError(f"unexpected {tok.value!r}", self.text, tok.pos)

    def check_expansion(self, term_products: int, coefficient_bits: int, pos: int):
        if term_products > MAX_TERM_PRODUCTS:
            raise ParseError(
                f"expansion needs more than {MAX_TERM_PRODUCTS} term products", self.text, pos
            )
        if coefficient_bits > MAX_COEFFICIENT_BITS:
            raise ParseError(
                f"coefficients may exceed {MAX_COEFFICIENT_BITS} bits", self.text, pos
            )

    # -- grammar rules ---------------------------------------------------

    def quotient(self) -> RationalFunction:
        """expr ['/' expr], refusing a second '/' at depth 0 when '/' splits."""
        num = self.expr()
        if not self.at_op("/"):
            return RationalFunction.from_value(self.ctx, num)
        depth, slashes = 0, []
        for tok in self.tokens:
            if tok.kind == "OP":
                depth += (tok.value == "(") - (tok.value == ")")
                if tok.value == "/" and depth == 0:
                    slashes.append(tok.pos)
        if len(slashes) > 1:
            raise ParseError("more than one top-level '/'", self.text, slashes[1])
        slash = self.advance()
        den = self.expr()
        if den.is_zero:
            raise ParseError("zero denominator", self.text, slash.pos + 1)
        return RationalFunction(num, den)

    def expr(self) -> Polynomial:
        total = self.term()
        while self.at_op("+", "-"):
            op = self.advance().value
            rhs = self.term()
            total = total + rhs if op == "+" else total - rhs
        return total

    def term(self) -> Polynomial:
        factors = self.term_factors()
        return prod(factors[1:], start=factors[0])

    def term_factors(self) -> list[Polynomial]:
        """The factors of one product, unexpanded."""
        factors = [self.factor()]
        term_products = len(factors[0])
        coefficient_bits = _growth_bits(factors[0])
        while self.at_op("*"):
            pos = self.advance().pos
            factors.append(self.factor())
            term_products *= len(factors[-1])
            coefficient_bits += _growth_bits(factors[-1])
            self.check_expansion(term_products, coefficient_bits, pos)
        return factors

    def factor(self) -> Polynomial:
        if self.depth == MAX_NESTING:
            self.fail(f"expression nested more than {MAX_NESTING} levels deep")
        self.depth += 1
        if self.at_op("-"):
            self.advance()
            result = -self.factor()
        else:
            result = self.power()
        self.depth -= 1
        return result

    def power(self) -> Polynomial:
        base = self.atom()
        if not self.at_op("^"):
            return base
        self.advance()
        tok = self.advance()
        if tok.kind != "INT":
            raise ParseError("expected an integer exponent", self.text, tok.pos)
        exponent = int(tok.value)
        # base^e is base^(e//2) * base^(e - e//2); a t-term base^k has <= C(t+k-1, k) terms
        half = exponent // 2
        bounds = [comb(max(len(base) - 1, 0) + k, k) for k in (half, exponent - half)]
        self.check_expansion(bounds[0] * bounds[1], exponent * _growth_bits(base), tok.pos)
        return base ** exponent

    def atom(self) -> Polynomial:
        tok = self.advance()
        if tok.kind == "INT":
            value = int(tok.value)
            if self.at_op("/") and self.tokens[self.i + 1].kind == "INT":
                self.advance()
                den = int(self.advance().value)
                if den == 0:
                    raise ParseError("zero denominator in rational literal", self.text, tok.pos)
                value = Fraction(int(tok.value), den)
            return Polynomial.constant(self.ctx, value)
        if tok.kind == "IDENT":
            if tok.value not in self.ctx:
                raise UnknownVariableError(
                    f"unknown variable {tok.value!r}", self.text, tok.pos
                )
            return Polynomial.variable(self.ctx, tok.value)
        if tok.kind == "OP" and tok.value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(
            f"unexpected {tok.value!r}" if tok.kind != "END" else "unexpected end of input",
            self.text,
            tok.pos,
        )


def infer_context(text: str) -> VarContext:
    """Context from the identifiers of text, in order of first appearance."""
    names = []
    for tok in _tokenize(text):
        if tok.kind == "IDENT" and tok.value not in names:
            names.append(tok.value)
    return VarContext(names)


def parse_polynomial(text: str, ctx: VarContext | None = None) -> Polynomial:
    """Parse text to a canonical Polynomial.

    With ctx=None the variable context is inferred from the order of first
    appearance in the text.
    """
    if ctx is None:
        ctx = infer_context(text)
    parser = _Parser(text, ctx)
    poly = parser.expr()
    parser.end()
    return poly


def parse_summands(text: str, ctx: VarContext) -> list[list[Polynomial]]:
    """Top-level summands of text as signed factor lists.

    Each summand keeps its written product structure; a leading minus is
    folded into the first factor.
    """
    parser = _Parser(text, ctx)
    summands = []
    sign = 1
    if parser.at_op("-"):
        parser.advance()
        sign = -1
    while True:
        factors = parser.term_factors()
        if sign < 0:
            factors[0] = -factors[0]
        summands.append(factors)
        if parser.at_op("+", "-"):
            sign = 1 if parser.advance().value == "+" else -1
            continue
        break
    parser.end()
    return summands


def parse_rational_function(text: str, ctx: VarContext) -> RationalFunction:
    """Parse a canonical rational-function string "num/den" (den omitted when 1)."""
    parser = _Parser(text, ctx)
    value = parser.quotient()
    parser.end()
    return value
