"""Sparse multivariate polynomials over the rationals.

Terms map monomials to nonzero exact rational coefficients, each in one
canonical form: an int when it is integral, a Fraction otherwise (never a
Fraction with denominator 1), so most arithmetic stays in int. _coeff
brings any value to this form, and _quotient is the one place where
coefficients are divided. The zero polynomial has no terms. All values
are immutable after construction. The public constructor cleans outside
input (coerces, merges and drops zero coefficients, checks variable
indices); arithmetic builds its results, already clean, through the
trusted Polynomial._raw. The term order everywhere (leading terms,
printing, leading-coefficient normalization) is graded-lexicographic with
respect to the owning variable context.

Each monomial is one packed int (Monagan and Pearce, CASC 2007): w-bit
fields hold, most significant first, the total degree and the exponents of
variables 0..n-1. Int order is grlex order, a monomial product is a sum of
keys, and a difference of keys is an exact quotient iff no field's top
(guard) bit is set. w depends on the total degree alone (_width), so equal
polynomials have equal term dicts, and a result of another degree class is
repacked (_in_width): exponents stay unbounded. Monomial is the boundary
type, packed by the public constructor and unpacked by terms().

Exact division keeps its remainder in one mutable dict and finds each
leading term through a heap of negated keys, so a quotient term costs one
pass over the divisor's tail instead of a rebuilt remainder and a scan.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from heapq import heapify, heappop, heappush
from operator import or_

from .context import VarContext, same_context
from .errors import ContextError


def _coeff(value) -> int | Fraction:
    """value as a stored coefficient: an int when it is integral, else a Fraction."""
    if value.__class__ is not Fraction:
        if value.__class__ is int:
            return value
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def _quotient(a, b) -> int | Fraction:
    """The exact quotient a/b of two coefficients, as a stored coefficient."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return _coeff(a / b)


def _width(degree: int) -> int:
    """Field width for a total degree: whole bytes, at least 8 bits, and
    every exponent (at most the degree) below 2**(w-1), its guard bit clear."""
    return (degree.bit_length() // 8 + 1) * 8


def _pack(powers, n: int, w: int) -> int:
    """The key of (variable index, exponent) pairs, in fields of w bits."""
    key = degree = 0
    for i, e in powers:
        key |= e << (n - 1 - i) * w
        degree += e
    return degree << n * w | key


def _unpack(key: int, n: int, w: int) -> list[int]:
    """The exponents of variables 0..n-1 in a key of width w."""
    mask = (1 << w) - 1
    return [(key >> (n - 1 - i) * w) & mask for i in range(n)]


@cache
def _guards(n: int, w: int) -> int:
    """The guard bits of the n variable fields of width w."""
    return sum(1 << (j * w + w - 1) for j in range(n))


class Monomial:
    """A product of variables raised to positive powers; () is the monomial 1.

    Exponents are keyed by variable index; the owning polynomial's context
    gives the indices meaning. The constructor sums the exponents of an index
    given more than once.
    """

    __slots__ = ("_powers", "_degree")

    def __init__(self, powers=()):
        if isinstance(powers, dict):
            powers = powers.items()
        merged = {}
        for i, e in powers:
            if e < 0:
                raise ValueError("negative exponent in monomial")
            if e:
                i = int(i)
                merged[i] = merged.get(i, 0) + int(e)
        self._powers = tuple(sorted(merged.items()))
        self._degree = sum(merged.values())

    @property
    def powers(self) -> tuple[tuple[int, int], ...]:
        return self._powers

    @property
    def degree(self) -> int:
        return self._degree

    def is_one(self) -> bool:
        return not self._powers

    def exponent(self, index: int) -> int:
        for i, e in self._powers:
            if i == index:
                return e
        return 0

    def __eq__(self, other):
        if not isinstance(other, Monomial):
            return NotImplemented
        return self._powers == other._powers

    def __hash__(self):
        return hash(self._powers)

    def __repr__(self):
        if not self._powers:
            return "Monomial(1)"
        body = "*".join(f"v{i}^{e}" for i, e in self._powers)
        return f"Monomial({body})"


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients (see _coeff)
    keyed by monomials packed in width _w (see the module docstring)."""

    __slots__ = ("_ctx", "_terms", "_w")

    def __init__(self, context: VarContext, terms=()):
        if isinstance(terms, dict):
            terms = terms.items()
        cleaned = {}
        nvars = len(context)
        for mono, coeff in terms:
            coeff = _coeff(coeff)
            if not coeff:
                continue
            if mono.powers and not 0 <= mono.powers[0][0] <= mono.powers[-1][0] < nvars:
                raise ContextError(
                    f"monomial {mono!r} uses a variable index outside the context"
                )
            acc = cleaned.get(mono)
            coeff = coeff if acc is None else _coeff(acc + coeff)
            if coeff:
                cleaned[mono] = coeff
            elif acc is not None:
                del cleaned[mono]
        w = _width(max((m.degree for m in cleaned), default=0))
        self._ctx = context
        self._terms = {_pack(m.powers, nvars, w): c for m, c in cleaned.items()}
        self._w = w

    # -- construction ----------------------------------------------------

    @classmethod
    def _raw(cls, context: VarContext, terms: dict, w: int) -> Polynomial:
        """Wrap a term dict that is already clean: nonzero canonical coefficients
        (see _coeff), keys packed in a width w that holds their degree. A
        degree that fell below w, after a division or a cancelling sum, say,
        gets its own narrower width (8 for the zero polynomial's -1)."""
        out = cls.__new__(cls)
        out._ctx = context
        out._terms = terms
        out._w = w
        if w > 8 and (fit := _width(out.total_degree())) < w:
            out._terms, out._w = out._in_width(fit), fit
        return out

    @classmethod
    def zero(cls, context: VarContext) -> Polynomial:
        return cls._raw(context, {}, 8)

    @classmethod
    def one(cls, context: VarContext) -> Polynomial:
        return cls._raw(context, {0: 1}, 8)

    @classmethod
    def constant(cls, context: VarContext, value) -> Polynomial:
        value = _coeff(value)
        return cls._raw(context, {0: value} if value else {}, 8)

    @classmethod
    def variable(cls, context: VarContext, name: str) -> Polynomial:
        return cls._raw(context, {_pack([(context.index_of(name), 1)], len(context), 8): 1}, 8)

    # -- inspection ------------------------------------------------------

    @property
    def context(self) -> VarContext:
        return self._ctx

    @property
    def is_zero(self) -> bool:
        return not self._terms

    @property
    def is_one(self) -> bool:
        t = self._terms
        return len(t) == 1 and t.get(0) == 1

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and 0 in self._terms)

    @property
    def is_single_term(self) -> bool:
        return len(self._terms) == 1

    def __len__(self):
        return len(self._terms)

    def coefficients(self):
        return self._terms.values()

    def _exponents(self, key: int) -> list[int]:
        return _unpack(key, len(self._ctx), self._w)

    def terms(self) -> dict[Monomial, int | Fraction]:
        return {Monomial(enumerate(self._exponents(k))): c for k, c in self._terms.items()}

    def terms_grlex(self) -> list[tuple[Monomial, int | Fraction]]:
        """Terms sorted graded-lexicographically, largest first."""
        return [
            (Monomial(enumerate(self._exponents(k))), self._terms[k])
            for k in sorted(self._terms, reverse=True)
        ]

    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(self._terms) >> len(self._ctx) * self._w

    def leading_term(self) -> tuple[Monomial, int | Fraction]:
        coeff = self.leading_coefficient()
        return Monomial(enumerate(self._exponents(max(self._terms)))), coeff

    def leading_coefficient(self) -> int | Fraction:
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        return self._terms[max(self._terms)]

    def var_indices(self) -> tuple[int, ...]:
        used = reduce(or_, self._terms, 0)
        return tuple(i for i, e in enumerate(self._exponents(used)) if e)

    def degree_in(self, index: int) -> int:
        shift, mask = (len(self._ctx) - 1 - index) * self._w, (1 << self._w) - 1
        return max((k >> shift & mask for k in self._terms), default=-1)

    def _in_width(self, w: int) -> dict:
        """The term dict packed in width w, which must hold self's degree."""
        if w == self._w:
            return self._terms
        n = len(self._ctx)
        return {_pack(enumerate(_unpack(k, n, self._w)), n, w): c for k, c in self._terms.items()}

    # -- arithmetic ------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Polynomial):
            if other._ctx != self._ctx:
                raise ContextError("polynomials from different variable contexts")
            return other
        if isinstance(other, (int, Fraction)):
            return Polynomial.constant(self._ctx, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        w = max(self._w, other._w)
        merged = dict(self._in_width(w))
        for mono, coeff in other._in_width(w).items():
            total = merged.get(mono, 0) + coeff
            if total:
                merged[mono] = _coeff(total)
            else:
                merged.pop(mono, None)
        return Polynomial._raw(self._ctx, merged, w)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self._ctx, {m: -c for m, c in self._terms.items()}, self._w)

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
        if not self._terms or not other._terms:
            return Polynomial.zero(self._ctx)
        # leading terms never cancel, so the degrees add and fix the width
        n = len(self._ctx)
        w = _width((max(self._terms) >> n * self._w) + (max(other._terms) >> n * other._w))
        right = other._in_width(w).items()
        product: dict[int, int | Fraction] = {}
        get = product.get
        for m1, c1 in self._in_width(w).items():
            for m2, c2 in right:
                mono = m1 + m2
                acc = get(mono)
                total = c1 * c2 if acc is None else acc + c1 * c2
                if total:
                    product[mono] = _coeff(total)
                elif acc is not None:
                    del product[mono]
        return Polynomial._raw(self._ctx, product, w)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        if exponent and len(self._terms) == 1:
            # (c*m)^e is the single term c^e * m^e
            w = _width(self.total_degree() * exponent)
            (m, c), = self._in_width(w).items()
            return Polynomial._raw(self._ctx, {m * exponent: c**exponent}, w)
        result = Polynomial.one(self._ctx)
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base if exponent > 1 else base
            exponent >>= 1
        return result

    def __truediv__(self, other):
        from .ratfunc import RationalFunction

        if isinstance(other, (Polynomial, int, Fraction)):
            den = self._coerce(other)
            return RationalFunction(self, den)
        return NotImplemented

    def scale(self, coeff) -> Polynomial:
        coeff = _coeff(coeff)
        if not coeff:
            return Polynomial.zero(self._ctx)
        return Polynomial._raw(
            self._ctx, {m: _coeff(c * coeff) for m, c in self._terms.items()}, self._w
        )

    def monic(self) -> Polynomial:
        """Scale so the graded-lex leading coefficient is 1."""
        if not self._terms:
            return self
        return self.scale(_quotient(1, self.leading_coefficient()))

    # -- division and gcd support ----------------------------------------

    def try_exact_div(self, divisor: Polynomial) -> Polynomial | None:
        """Exact quotient self/divisor, or None when divisor does not divide self.

        Sparse division with a heap (Johnson 1974; Monagan and Pearce 2011):
        the remainder is one mutable copy of self's terms, and a heap of
        negated keys yields its leading term. Each quotient term qc*qm
        subtracts only qc*qm*(divisor tail), since the leading parts cancel
        by construction. The first leading term that lt(divisor) does not
        divide gives None.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if not self._terms:
            return Polynomial.zero(self._ctx)
        w = self._w
        if divisor._w > w:
            return None  # the divisor's degree exceeds self's
        # every remainder term, and so every product below, has degree at
        # most self's, so width w holds them all
        dterms = divisor._in_width(w)
        guards = _guards(len(self._ctx), w)
        if len(dterms) == 1:
            (dm, dc), = dterms.items()
            quotient = {}
            for m, c in self._terms.items():
                qm = m - dm
                if qm & guards:
                    return None
                quotient[qm] = _quotient(c, dc)
            return Polynomial._raw(self._ctx, quotient, w)
        dm = max(dterms)
        dc = dterms[dm]
        tail = [(m, c) for m, c in dterms.items() if m != dm]
        # the remainder is a private copy; the heap holds its negated keys,
        # and a key whose term has since cancelled is skipped
        rest = dict(self._terms)
        heap = [-m for m in rest]
        heapify(heap)
        quotient: dict[int, int | Fraction] = {}
        while heap:
            rm = -heappop(heap)
            rc = rest.pop(rm, None)
            if rc is None:
                continue
            qm = rm - dm
            if qm & guards:
                return None
            qc = _quotient(rc, dc)
            quotient[qm] = qc
            for tm, tc in tail:
                m = qm + tm
                acc = rest.get(m)
                if acc is None:
                    rest[m] = -qc * tc
                    heappush(heap, -m)
                else:
                    total = acc - qc * tc
                    if total:
                        rest[m] = total
                    else:
                        del rest[m]
        return Polynomial._raw(self._ctx, quotient, w)

    def exact_div(self, divisor: Polynomial) -> Polynomial:
        q = self.try_exact_div(divisor)
        if q is None:
            raise ValueError(f"({divisor}) does not divide ({self})")
        return q

    def _strip_monomial_content(self) -> tuple[Polynomial, Polynomial]:
        """(m, self/m) for the largest monomial m dividing every term, m with
        coefficient 1; m is 1 for a constant term and for the zero polynomial."""
        t, n, w = self._terms, len(self._ctx), self._w
        if not t or 0 in t:
            return Polynomial.one(self._ctx), self
        guards, low = _guards(n, w), (1 << n * w) - 1
        keys = iter(t)
        g = next(keys) & low  # the variable fields of the content so far
        for k in keys:
            # a field of g|guards - k keeps its guard bit exactly when g's
            # exponent there is >= k's; take k's exponent in those fields
            ge = ((g | guards) - (k & low)) & guards
            take = ge - (ge >> w - 1)
            g = g & ~take | k & take
            if not g:
                return Polynomial.one(self._ctx), self
        # field n-1 of g * (1 + 2**w + ... + 2**((n-1)*w)) sums g's fields
        g |= (g * (guards >> w - 1) >> (n - 1) * w & (1 << w) - 1) << n * w
        return (
            Polynomial._raw(self._ctx, {g: 1}, w),
            Polynomial._raw(self._ctx, {k - g: c for k, c in t.items()}, w),
        )

    # -- evaluation, equality, printing ----------------------------------

    def evaluate(self, values) -> Fraction:
        """Evaluate at a {name: value} assignment covering every used variable."""
        resolved = {}
        for idx in self.var_indices():
            name = self._ctx.name_of(idx)
            if name not in values:
                raise ValueError(f"no value supplied for variable {name!r}")
            resolved[idx] = Fraction(values[name])
        total = Fraction(0)
        for mono, coeff in self.terms().items():
            term = coeff
            for i, e in mono.powers:
                term *= resolved[i] ** e
            total += term
        return total

    def in_context(self, new_ctx: VarContext) -> Polynomial:
        """Reinterpret in a context that contains every used variable by name."""
        if new_ctx == self._ctx:
            return self
        n, new_n, w = len(self._ctx), len(new_ctx), self._w
        mask = (1 << w) - 1
        # the degree field moves to the new top, and each used variable's
        # field to its new index; the degree, and so the width, stays
        moves = [
            ((n - 1 - i) * w, (new_n - 1 - new_ctx.index_of(self._ctx.name_of(i))) * w)
            for i in self.var_indices()
        ]
        terms = {}
        for k, c in self._terms.items():
            key = k >> n * w << new_n * w
            for src, dst in moves:
                key |= (k >> src & mask) << dst
            terms[key] = c
        return Polynomial._raw(new_ctx, terms, w)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self._ctx, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._ctx == other._ctx and self._terms == other._terms

    def __hash__(self):
        return hash((self._ctx, frozenset(self._terms.items())))

    def __str__(self):
        if not self._terms:
            return "0"
        n, w = len(self._ctx), self._w
        fields = [(name, (n - 1 - i) * w) for i, name in enumerate(self._ctx.names)]
        mask = (1 << w) - 1
        pieces = []
        for key in sorted(self._terms, reverse=True):
            coeff = self._terms[key]
            mag = -coeff if coeff < 0 else coeff
            powers = [(name, key >> shift & mask) for name, shift in fields]
            mono = "*".join(name if e == 1 else f"{name}^{e}" for name, e in powers if e)
            body = str(mag) if not key else mono if mag == 1 else f"{mag}*{mono}"
            if not pieces:
                pieces.append(f"-{body}" if coeff < 0 else body)
            else:
                pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"Polynomial({self})"


# -- greatest common divisor ----------------------------------------------
#
# Shortcuts first (monomial content, equal parts, trial division); otherwise
# _gcd_core picks a main variable x, splits each operand into its content in
# x (the gcd of its coefficients in x, polynomials in the other variables, so
# the recursion through gcd terminates) and its primitive part, and runs a
# subresultant polynomial remainder sequence (Brown 1971; Geddes, Czapor and
# Labahn 1992, ch. 7) on the primitive parts. Every step of the sequence is
# whole-Polynomial arithmetic; _coefficients_in only reads off coefficients.


def gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Greatest common divisor, normalized to graded-lex leading coefficient 1.

    gcd(p, 0) is the monic normalization of p; gcd(0, 0) is 0.
    """
    same_context(a, b)
    if a.is_zero and b.is_zero:
        return a
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    ma, a1 = a._strip_monomial_content()
    mb, b1 = b._strip_monomial_content()
    common = ma if ma.is_constant else mb
    if not common.is_constant:
        # the gcd of two monomials is the monomial content of their sum
        w = max(ma._w, mb._w)
        both = Polynomial._raw(a.context, {**ma._in_width(w), **mb._in_width(w)}, w)
        common, _ = both._strip_monomial_content()
    if a1.is_constant or b1.is_constant:
        return common
    if a1 == b1:
        return (common * a1).monic()
    # trial division first: full cancellation is the common case in practice
    # (fraction-field elimination nests denominators) and one division is far
    # cheaper than a remainder sequence
    low, high = (a1, b1) if a1.total_degree() <= b1.total_degree() else (b1, a1)
    if high.try_exact_div(low) is not None:
        return (common * low).monic()
    return (common * _gcd_core(a1, b1)).monic()


def _gcd_core(a: Polynomial, b: Polynomial) -> Polynomial:
    # the shortest remainder sequence comes from the variable of lowest degree
    candidates = set(a.var_indices()) | set(b.var_indices())
    x = min(candidates, key=lambda i: (max(a.degree_in(i), b.degree_in(i)), i))
    ca, pa = _content_and_primitive(a, x)
    cb, pb = _content_and_primitive(b, x)
    return gcd(ca, cb) * _subresultant_prs_gcd(pa, pb, x)


def _coefficients_in(p: Polynomial, x: int) -> dict[int, Polynomial]:
    """p's coefficients in the variable x, keyed by degree in x; each is free of x."""
    ctx, w = p.context, p._w
    top, shift, mask = len(ctx) * w, (len(ctx) - 1 - x) * w, (1 << w) - 1
    coeffs: dict[int, dict[int, int | Fraction]] = {}
    for key, coeff in p._terms.items():
        deg = key >> shift & mask
        # clear x's field and take its exponent off the degree
        coeffs.setdefault(deg, {})[key - (deg << shift) - (deg << top)] = coeff
    return {d: Polynomial._raw(ctx, t, w) for d, t in coeffs.items()}


def _content_and_primitive(p: Polynomial, x: int) -> tuple[Polynomial, Polynomial]:
    """(c, p/c) for c the gcd of p's coefficients in x (one coefficient is c itself)."""
    content, *rest = _coefficients_in(p, x).values()
    for c in rest:
        content = gcd(content, c)
        if content.is_one:
            break
    return content, (p if content.is_one else p.exact_div(content))


def _prem(f: Polynomial, g: Polynomial, x: int) -> Polynomial:
    """Pseudo-remainder in x: lc(g)^(deg f - deg g + 1) * f mod g, where lc and
    deg are taken in x. Each step cancels f's leading coefficient in x."""
    ctx = f.context
    coeffs = _coefficients_in(g, x)
    dg = max(coeffs)
    lc_g = coeffs[dg]
    coeffs = _coefficients_in(f, x)
    n = max(coeffs) - dg + 1
    while coeffs and (df := max(coeffs)) >= dg:
        lc_f = coeffs[df]
        if df > dg:  # times x^(df - dg)
            w = _width(df - dg)
            lc_f = lc_f * Polynomial._raw(ctx, {_pack([(x, df - dg)], len(ctx), w): 1}, w)
        f = f * lc_g - lc_f * g
        coeffs = _coefficients_in(f, x)
        n -= 1
    return f * lc_g**n if n > 0 else f


def _subresultant_prs_gcd(f: Polynomial, g: Polynomial, x: int) -> Polynomial:
    """Primitive gcd of two polynomials that are primitive in x."""
    df, dg = f.degree_in(x), g.degree_in(x)
    if df < dg:
        f, g, df, dg = g, f, dg, df
    one = Polynomial.one(f.context)
    lead = psi = one
    while True:
        r = _prem(f, g, x)
        if r.is_zero:
            break
        delta = df - dg
        f, g = g, r.exact_div(lead * psi**delta)
        df, dg = dg, g.degree_in(x)
        if dg == 0:
            return one  # a nonzero remainder free of x: primitive parts are coprime
        lead = _coefficients_in(f, x)[df]
        if delta == 1:
            psi = lead
        elif delta > 1:
            psi = (lead**delta).exact_div(psi ** (delta - 1))
    if dg == 0:
        return one
    return _content_and_primitive(g, x)[1]
