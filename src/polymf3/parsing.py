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

Hostile input ends in a ParseError at four limits: parentheses and unary
minus nest at most MAX_NESTING deep, expanding one product or power takes
at most MAX_TERM_PRODUCTS term products and reaches at most an estimated
MAX_COEFFICIENT_BITS per coefficient, and an exponent has at most
MAX_EXPONENT_DIGITS digits, the most that Polynomial.__str__ writes.

Stored entries and targets are read by read_rational_function and
read_polynomial, which take the text that RationalFunction.__str__ and
Polynomial.__str__ write with one regex match (_ENTRY) and string splits,
and hand any other text to parse_rational_function and parse_polynomial.
The writer's grammar, single spaces included:

    entry := poly | side '/' side
    side  := '(' poly ')' | INT | NAME ['^' INT]
    poly  := ['-'] term ((' + ' | ' - ') term)*
    term  := coef | [coef '*'] mono
    coef  := INT ['/' INT]
    mono  := NAME ['^' INT] ('*' NAME ['^' INT])*
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import comb, prod
from string import digits

from .context import VarContext
from .errors import ParseError, UnknownVariableError, _shown
from .poly import Polynomial, _quotient
from .ratfunc import RationalFunction


@dataclass(frozen=True)
class _Token:
    kind: str  # INT | IDENT | OP | END
    value: str
    pos: int


MAX_NESTING = 100
MAX_TERM_PRODUCTS = 10_000
MAX_COEFFICIENT_BITS = 100_000
# str()'s default digit limit on Python 3.11 and later: Polynomial.__str__
# writes exponents with str(), so every exponent it writes reads back
MAX_EXPONENT_DIGITS = 4_300


def _literal(text: str) -> int:
    """The integer a literal of ASCII digits writes, past int()'s digit limit
    too. ValueError past MAX_COEFFICIENT_BITS // 3 digits (10^33,333 >
    2^110,000), which bounds the time it takes."""
    if len(text) > MAX_COEFFICIENT_BITS // 3:
        raise ValueError(f"coefficients may exceed {MAX_COEFFICIENT_BITS} bits")
    try:
        return int(text)
    except ValueError:  # too many digits: read each half
        half = len(text) // 2
        return _literal(text[:half]) * 10 ** (len(text) - half) + _literal(text[half:])


def _exponent(text: str) -> int:
    """int(text), with a ValueError past MAX_EXPONENT_DIGITS on every interpreter."""
    if len(text) > MAX_EXPONENT_DIGITS:
        raise ValueError(f"exponents may have at most {MAX_EXPONENT_DIGITS} digits")
    return int(text)


def _coefficient_bits(c) -> int:
    """The bits of a coefficient's numerator and denominator, less two."""
    return c.numerator.bit_length() + c.denominator.bit_length() - 2


def _growth_bits(p: Polynomial) -> int:
    """Estimated bits factor p adds to a product's coefficients: its largest
    coefficient's numerator and denominator bits, plus its term count's bits."""
    bits = [_coefficient_bits(c) for c in p._terms.values()]
    return max(bits, default=0) + max(len(p) - 1, 0).bit_length()


# the regexes below are compiled on first use, so a process that reads no
# stored artifact (factor2, say, or laws) never compiles the large _ENTRY
_compiled = cache(re.compile)

# ASCII only, as the grammar says: \d and str.isdigit also take '٣' and '²'
_TOKEN = (
    r"\s*(?:(?P<INT>[0-9]+)|(?P<IDENT>[a-zA-Z][a-zA-Z0-9_]*)|(?P<OP>[-+*^/()])"
    r"|(?P<END>\Z)|(?P<BAD>.))"
)


def _tokenize(text: str) -> list[_Token]:
    if not isinstance(text, str):
        raise ParseError(f"expected a string, got {type(text).__name__}")
    tokens = []
    # every position starts a match, so the matches follow one another
    for match in _compiled(_TOKEN).finditer(text):
        kind = match.lastgroup
        if kind == "BAD":
            raise ParseError(f"unexpected character {match[kind]!r}", text, match.start(kind))
        tokens.append(_Token(kind, match[kind], match.start(kind)))
        if kind == "END":
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

    def literal(self, tok: _Token, read=_literal) -> int:
        try:
            return read(tok.value)
        except ValueError as exc:
            raise ParseError(str(exc), self.text, tok.pos) from None

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
        products = [prod(factors[1:], start=factors[0]) for factors in self.summands()]
        return sum(products[1:], start=products[0])

    def summands(self) -> list[list[Polynomial]]:
        """Each term's factors, unexpanded, with the term's sign on its first factor."""
        summands = [self.term_factors()]
        while self.at_op("+", "-"):
            negate = self.advance().value == "-"
            factors = self.term_factors()
            summands.append([-factors[0], *factors[1:]] if negate else factors)
        return summands

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
            raise ParseError(
                f"expression nested more than {MAX_NESTING} levels deep", self.text, self.peek().pos
            )
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
        exponent = self.literal(tok, _exponent)
        # base^e is base^(e//2) * base^(e - e//2); a t-term base^k has <= C(t+k-1, k) terms
        half = exponent // 2
        bounds = [comb(max(len(base) - 1, 0) + k, k) for k in (half, exponent - half)]
        self.check_expansion(bounds[0] * bounds[1], exponent * _growth_bits(base), tok.pos)
        return base ** exponent

    def atom(self) -> Polynomial:
        tok = self.advance()
        if tok.kind == "INT":
            value = self.literal(tok)
            if self.at_op("/") and self.tokens[self.i + 1].kind == "INT":
                self.advance()
                den = self.literal(self.advance())
                if den == 0:
                    raise ParseError("zero denominator in rational literal", self.text, tok.pos)
                value = Fraction(value, den)
            return Polynomial.constant(self.ctx, value)
        if tok.kind == "IDENT":
            if tok.value not in self.ctx:
                raise UnknownVariableError(
                    f"unknown variable {_shown(repr(tok.value))}", self.text, tok.pos
                )
            return Polynomial.variable(self.ctx, tok.value)
        if tok.kind == "OP" and tok.value == "(":
            inner = self.expr()
            tok = self.advance()
            if tok.kind != "OP" or tok.value != ")":
                raise ParseError("expected ')'", self.text, tok.pos)
            return inner
        raise ParseError(
            f"unexpected {_shown(repr(tok.value))}" if tok.kind != "END" else "unexpected end of input",
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


def _parse(text: str, ctx: VarContext, rule):
    """The value of one _Parser rule that spans the whole of text."""
    parser = _Parser(text, ctx)
    value = rule(parser)
    tok = parser.advance()
    if tok.kind != "END":
        raise ParseError(f"unexpected {_shown(repr(tok.value))}", text, tok.pos)
    return value


def parse_polynomial(text: str, ctx: VarContext | None = None) -> Polynomial:
    """Parse text to a canonical Polynomial.

    With ctx=None the variable context is inferred from the order of first
    appearance in the text.
    """
    if ctx is None:
        ctx = infer_context(text)
    return _parse(text, ctx, _Parser.expr)


def parse_summands(text: str, ctx: VarContext) -> list[list[Polynomial]]:
    """Top-level summands of text as signed factor lists.

    Each summand keeps its written product structure; a leading minus is
    folded into the first factor.
    """
    return _parse(text, ctx, _Parser.summands)


def parse_rational_function(text: str, ctx: VarContext) -> RationalFunction:
    """Parse a canonical rational-function string "num/den" (den omitted when 1)."""
    return _parse(text, ctx, _Parser.quotient)


# -- stored entries ------------------------------------------------------------

_INT = "[0-9]+"  # ASCII digits only, as in _TOKEN
_POWER = r"[a-zA-Z][a-zA-Z0-9_]*(?:\^[0-9]+)?"
_MONO = rf"{_POWER}(?:\*{_POWER})*"
_TERM = rf"(?:{_INT}(?:/{_INT})?(?:\*{_MONO})?|{_MONO})"
_POLY = rf"-?{_TERM}(?: [+-] {_TERM})*"
_SIDE = rf"\(({_POLY})\)|({_INT}|{_POWER})"
# groups: the poly of a whole entry, or each side's parenthesized or bare text
_ENTRY = rf"({_POLY})|(?:{_SIDE})/(?:{_SIDE})"


def _read_polynomial(text: str, ctx: VarContext) -> Polynomial | None:
    """The polynomial of a poly that _ENTRY matched; None when it names a
    variable outside ctx or holds a literal that the general grammar would
    refuse (a zero denominator, a literal past _literal's bound, an exponent
    past _exponent's) or bound (MAX_COEFFICIENT_BITS)."""
    index = ctx._index
    terms, top = [], 0
    try:
        for term in text.replace(" - ", " + -").split(" + "):
            sign = 1
            if term[0] == "-":
                sign, term = -1, term[1:]
            factors = term.split("*")
            coeff = sign
            if term[0] in digits:
                num, _, den = factors.pop(0).partition("/")
                if den:
                    den = _literal(den)
                    if not den:
                        return None
                    coeff = _quotient(sign * _literal(num), den)
                else:
                    coeff = sign * _literal(num)
                if factors and _coefficient_bits(coeff) > MAX_COEFFICIENT_BITS:
                    return None
            powers, degree = [], 0
            for factor in factors:
                name, _, exponent = factor.partition("^")
                i = index.get(name)
                if i is None:
                    return None
                e = _exponent(exponent) if exponent else 1
                powers.append((i, e))
                degree += e
            terms.append((powers, coeff))
            top = max(top, degree)
    except ValueError:  # a literal or an exponent past its bound
        return None
    return Polynomial._from_powers(ctx, terms, top)


def read_polynomial(text: str, ctx: VarContext) -> Polynomial:
    """A stored polynomial (an artifact's f), read as parse_polynomial reads
    it: text in the writer's grammar through _ENTRY's whole-poly group, any
    other text through parse_polynomial."""
    match = _compiled(_ENTRY).fullmatch(text) if isinstance(text, str) else None
    if match is not None and match[1] is not None:
        poly = _read_polynomial(text, ctx)
        if poly is not None:
            return poly
    return parse_polynomial(text, ctx)


def read_rational_function(text: str, ctx: VarContext) -> RationalFunction:
    """A stored entry, read as parse_rational_function reads it: text in
    the writer's grammar (see the module docstring) in one regex match,
    reduced by RationalFunction as the general grammar reduces it; any other
    text, or text the reader cannot vouch for (see _read_polynomial, and a
    zero denominator), through parse_rational_function, for its values,
    errors and positions."""
    match = _compiled(_ENTRY).fullmatch(text) if isinstance(text, str) else None
    if match is not None:
        whole, num, bare_num, den, bare_den = match.groups()
        if whole is not None:
            poly = _read_polynomial(whole, ctx)
            if poly is not None:
                return RationalFunction._raw(poly, Polynomial.one(ctx))
        else:
            num = _read_polynomial(num or bare_num, ctx)
            den = _read_polynomial(den or bare_den, ctx)
            if num is not None and den is not None and not den.is_zero:
                return RationalFunction(num, den)
    return parse_rational_function(text, ctx)
