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

Exact division keeps its remainder in one mutable dict and finds each
leading term through a heap of grlex keys, so a quotient term costs one
pass over the divisor's tail instead of a rebuilt remainder and a scan.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush

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

    def var_indices(self):
        return tuple(i for i, _ in self._powers)

    @classmethod
    def _make(cls, powers: tuple, degree: int) -> Monomial:
        out = cls.__new__(cls)
        out._powers = powers
        out._degree = degree
        return out

    def __mul__(self, other: Monomial) -> Monomial:
        a, b = self._powers, other._powers
        if not a:
            return other
        if not b:
            return self
        # merge two index-sorted exponent tuples
        merged = []
        i = j = 0
        na, nb = len(a), len(b)
        while i < na and j < nb:
            ia, ea = a[i]
            ib, eb = b[j]
            if ia == ib:
                merged.append((ia, ea + eb))
                i += 1
                j += 1
            elif ia < ib:
                merged.append(a[i])
                i += 1
            else:
                merged.append(b[j])
                j += 1
        merged.extend(a[i:])
        merged.extend(b[j:])
        return Monomial._make(tuple(merged), self._degree + other._degree)

    def div(self, other: Monomial) -> Monomial | None:
        """Exact quotient self / other, or None when other does not divide self."""
        a = self._powers
        # walk both index-sorted exponent tuples; every index of other must
        # appear in self with at least its exponent
        quotient = []
        i, na = 0, len(a)
        for ib, eb in other._powers:
            while i < na and a[i][0] < ib:
                quotient.append(a[i])
                i += 1
            if i == na or a[i][0] != ib or a[i][1] < eb:
                return None
            if a[i][1] > eb:
                quotient.append((ib, a[i][1] - eb))
            i += 1
        quotient.extend(a[i:])
        return Monomial._make(tuple(quotient), self._degree - other._degree)

    def gcd(self, other: Monomial) -> Monomial:
        lookup = dict(other._powers)
        # self's powers are index-sorted, so the filtered ones are too
        common = tuple((i, min(e, lookup[i])) for i, e in self._powers if i in lookup)
        return Monomial._make(common, sum(e for _, e in common))

    def grlex_key(self, nvars: int, sign: int = 1):
        """Sort key of the graded-lex order; sign=-1 negates it, so that
        ascending order (as in heapq) is descending graded-lex order."""
        exps = [0] * nvars
        for i, e in self._powers:
            exps[i] = sign * e
        return (sign * self._degree, tuple(exps))

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


_ONE_MONOMIAL = Monomial()


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients (see _coeff)."""

    __slots__ = ("_ctx", "_terms")

    def __init__(self, context: VarContext, terms=()):
        if isinstance(terms, dict):
            terms = terms.items()
        cleaned = {}
        nvars = len(context)
        for mono, coeff in terms:
            coeff = _coeff(coeff)
            if not coeff:
                continue
            if mono.powers and mono.powers[-1][0] >= nvars:
                raise ContextError(
                    f"monomial {mono!r} uses a variable index outside the context"
                )
            acc = cleaned.get(mono)
            coeff = coeff if acc is None else _coeff(acc + coeff)
            if coeff:
                cleaned[mono] = coeff
            elif acc is not None:
                del cleaned[mono]
        self._ctx = context
        self._terms = cleaned

    # -- construction ----------------------------------------------------

    @classmethod
    def _raw(cls, context: VarContext, terms: dict) -> Polynomial:
        """Wrap a term dict that is already clean: nonzero canonical coefficients
        (see _coeff), indices in context."""
        out = cls.__new__(cls)
        out._ctx = context
        out._terms = terms
        return out

    @classmethod
    def zero(cls, context: VarContext) -> Polynomial:
        return cls._raw(context, {})

    @classmethod
    def one(cls, context: VarContext) -> Polynomial:
        return cls._raw(context, {_ONE_MONOMIAL: 1})

    @classmethod
    def constant(cls, context: VarContext, value) -> Polynomial:
        return cls(context, {_ONE_MONOMIAL: value})

    @classmethod
    def variable(cls, context: VarContext, name: str) -> Polynomial:
        idx = context.index_of(name)
        return cls(context, {Monomial(((idx, 1),)): 1})

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
        return len(t) == 1 and t.get(_ONE_MONOMIAL) == 1

    @property
    def is_constant(self) -> bool:
        return not self._terms or (len(self._terms) == 1 and _ONE_MONOMIAL in self._terms)

    @property
    def is_single_term(self) -> bool:
        return len(self._terms) == 1

    def __len__(self):
        return len(self._terms)

    def terms(self) -> dict[Monomial, int | Fraction]:
        return dict(self._terms)

    def terms_grlex(self) -> list[tuple[Monomial, int | Fraction]]:
        """Terms sorted graded-lexicographically, largest first."""
        nvars = len(self._ctx)
        return sorted(
            self._terms.items(), key=lambda t: t[0].grlex_key(nvars), reverse=True
        )

    def total_degree(self) -> int:
        """Maximum term degree; -1 for the zero polynomial."""
        if not self._terms:
            return -1
        return max(m.degree for m in self._terms)

    def leading_term(self) -> tuple[Monomial, int | Fraction]:
        if not self._terms:
            raise ValueError("the zero polynomial has no leading term")
        nvars = len(self._ctx)
        mono = max(self._terms, key=lambda m: m.grlex_key(nvars))
        return mono, self._terms[mono]

    def leading_coefficient(self) -> int | Fraction:
        return self.leading_term()[1]

    def var_indices(self) -> tuple[int, ...]:
        used = set()
        for m in self._terms:
            used.update(m.var_indices())
        return tuple(sorted(used))

    def degree_in(self, index: int) -> int:
        if not self._terms:
            return -1
        return max(m.exponent(index) for m in self._terms)

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
        merged = dict(self._terms)
        for mono, coeff in other._terms.items():
            total = merged.get(mono, 0) + coeff
            if total:
                merged[mono] = _coeff(total)
            else:
                merged.pop(mono, None)
        return Polynomial._raw(self._ctx, merged)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._raw(self._ctx, {m: -c for m, c in self._terms.items()})

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
        product: dict[Monomial, int | Fraction] = {}
        get = product.get
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = m1 * m2
                acc = get(mono)
                total = c1 * c2 if acc is None else acc + c1 * c2
                if total:
                    product[mono] = _coeff(total)
                elif acc is not None:
                    del product[mono]
        return Polynomial._raw(self._ctx, product)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("polynomial exponent must be a nonnegative integer")
        if exponent and len(self._terms) == 1:
            # (c*m)^e is the single term c^e * m^e
            (m, c), = self._terms.items()
            powers = tuple((i, e * exponent) for i, e in m._powers)
            return Polynomial._raw(
                self._ctx, {Monomial._make(powers, m._degree * exponent): c**exponent}
            )
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
        return Polynomial._raw(self._ctx, {m: _coeff(c * coeff) for m, c in self._terms.items()})

    def monic(self) -> Polynomial:
        """Scale so the graded-lex leading coefficient is 1."""
        if not self._terms:
            return self
        return self.scale(_quotient(1, self.leading_coefficient()))

    # -- division and gcd support ----------------------------------------

    def try_exact_div(self, divisor: Polynomial) -> Polynomial | None:
        """Exact quotient self/divisor, or None when divisor does not divide self.

        Sparse division with a heap (Johnson 1974; Monagan and Pearce 2011):
        the remainder is one mutable copy of self's terms, and a heap of grlex
        keys yields its leading term. Each quotient term qc*qm subtracts only
        qc*qm*(divisor tail), since the leading parts cancel by construction.
        The first leading term that lt(divisor) does not divide gives None.
        """
        divisor = self._coerce(divisor)
        if divisor.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if not self._terms:
            return Polynomial.zero(self._ctx)
        if len(divisor._terms) == 1:
            (dm, dc), = divisor._terms.items()
            quotient = {}
            for m, c in self._terms.items():
                qm = m.div(dm)
                if qm is None:
                    return None
                quotient[qm] = _quotient(c, dc)
            return Polynomial._raw(self._ctx, quotient)
        nvars = len(self._ctx)
        dm, dc = divisor.leading_term()
        tail = [(m, c) for m, c in divisor._terms.items() if m != dm]
        # the remainder is a private copy; the heap holds the grlex keys of its
        # monomials, and a key whose monomial has since cancelled is skipped
        rest = dict(self._terms)
        by_key = {m.grlex_key(nvars, -1): m for m in rest}
        heap = list(by_key)
        heapify(heap)
        quotient: dict[Monomial, int | Fraction] = {}
        while heap:
            rm = by_key[heappop(heap)]
            rc = rest.pop(rm, None)
            if rc is None:
                continue
            qm = rm.div(dm)
            if qm is None:
                return None
            qc = _quotient(rc, dc)
            quotient[qm] = qc
            for tm, tc in tail:
                m = qm * tm
                acc = rest.get(m)
                if acc is None:
                    rest[m] = -qc * tc
                    key = m.grlex_key(nvars, -1)
                    heappush(heap, key)
                    by_key[key] = m
                else:
                    total = acc - qc * tc
                    if total:
                        rest[m] = total
                    else:
                        del rest[m]
        return Polynomial._raw(self._ctx, quotient)

    def exact_div(self, divisor: Polynomial) -> Polynomial:
        q = self.try_exact_div(divisor)
        if q is None:
            raise ValueError(f"({divisor}) does not divide ({self})")
        return q

    def monomial_content(self) -> Monomial:
        """The largest monomial dividing every term (1 for the zero polynomial)."""
        result = None
        for m in self._terms:
            result = m if result is None else result.gcd(m)
            if result.is_one():
                break
        return result if result is not None else _ONE_MONOMIAL

    def _strip_monomial_content(self) -> tuple[Monomial, Polynomial]:
        m = self.monomial_content()
        if m.is_one():
            return m, self
        return m, Polynomial._raw(self._ctx, {mono.div(m): c for mono, c in self._terms.items()})

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
        for mono, coeff in self._terms.items():
            term = coeff
            for i, e in mono.powers:
                term *= resolved[i] ** e
            total += term
        return total

    def in_context(self, new_ctx: VarContext) -> Polynomial:
        """Reinterpret in a context that contains every used variable by name."""
        if new_ctx == self._ctx:
            return self
        mapping = {
            idx: new_ctx.index_of(self._ctx.name_of(idx)) for idx in self.var_indices()
        }
        # distinct names get distinct indices, so the terms stay clean; only
        # the index order of a monomial's powers can change, and a sort fixes it
        return Polynomial._raw(new_ctx, {
            Monomial._make(tuple(sorted((mapping[i], e) for i, e in m._powers)), m._degree): c
            for m, c in self._terms.items()
        })

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self._ctx, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._ctx == other._ctx and self._terms == other._terms

    def __hash__(self):
        return hash((self._ctx, frozenset(self._terms.items())))

    def _format_monomial(self, mono: Monomial) -> str:
        return "*".join(
            self._ctx.name_of(i) if e == 1 else f"{self._ctx.name_of(i)}^{e}"
            for i, e in mono.powers
        )

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for mono, coeff in self.terms_grlex():
            mag = -coeff if coeff < 0 else coeff
            if mono.is_one():
                body = str(mag)
            elif mag == 1:
                body = self._format_monomial(mono)
            else:
                body = f"{mag}*{self._format_monomial(mono)}"
            if not pieces:
                pieces.append(f"-{body}" if coeff < 0 else body)
            else:
                pieces.append(f"- {body}" if coeff < 0 else f"+ {body}")
        return " ".join(pieces)

    def __repr__(self):
        return f"Polynomial({self})"


# -- greatest common divisor ----------------------------------------------
#
# Recursive content/primitive-part reduction to a univariate problem in one
# of the variables present, with a subresultant polynomial remainder
# sequence on the primitive parts. Coefficients of the univariate view are
# polynomials in the remaining variables, so the recursion terminates.


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
    common = Polynomial._raw(a.context, {ma.gcd(mb): 1})
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
    main = min(
        candidates, key=lambda i: (max(a.degree_in(i), b.degree_in(i)), i)
    )
    ua = _to_univar(a, main)
    ub = _to_univar(b, main)
    ca, pa = _content_and_primitive(ua)
    cb, pb = _content_and_primitive(ub)
    cont_gcd = gcd(ca, cb)
    prim_gcd = _subresultant_prs_gcd(pa, pb)
    return cont_gcd * _from_univar(prim_gcd, main, a.context)


def _to_univar(p: Polynomial, main: int) -> dict[int, Polynomial]:
    """View p as univariate in the main variable, coefficients in the rest."""
    ctx = p.context
    coeffs: dict[int, dict[Monomial, int | Fraction]] = {}
    for mono, coeff in p.terms().items():
        deg = mono.exponent(main)
        rest = Monomial((i, e) for i, e in mono.powers if i != main)
        coeffs.setdefault(deg, {})[rest] = coeff
    return {d: Polynomial(ctx, t) for d, t in coeffs.items()}


def _from_univar(u: dict[int, Polynomial], main: int, ctx: VarContext) -> Polynomial:
    xpow = {d: Polynomial(ctx, {Monomial(((main, d),)): 1}) for d in u if d}
    total = Polynomial.zero(ctx)
    for d, coeff in u.items():
        total = total + (coeff * xpow[d] if d else coeff)
    return total


def _uni_degree(u) -> int:
    return max(u) if u else -1


def _uni_scale(u, factor: Polynomial):
    return {d: c * factor for d, c in u.items()}


def _uni_sub(u, v):
    out = dict(u)
    for d, c in v.items():
        total = out.get(d)
        total = -c if total is None else total - c
        if total.is_zero:
            out.pop(d, None)
        else:
            out[d] = total
    return out


def _uni_prem(f, g):
    """Pseudo-remainder of f by g: lc(g)^(deg f - deg g + 1) * f mod g."""
    df, dg = _uni_degree(f), _uni_degree(g)
    lc_g = g[dg]
    n = df - dg + 1
    r = dict(f)
    while r and (dr := max(r)) >= dg:
        lc_r = r[dr]
        shift = dr - dg
        n -= 1
        r = _uni_sub(
            _uni_scale(r, lc_g),
            {d + shift: c * lc_r for d, c in g.items()},
        )
    if n > 0:
        factor = lc_g**n
        r = _uni_scale(r, factor)
    return r


def _uni_exact_div(u, divisor: Polynomial):
    out = {}
    for d, c in u.items():
        q = c.try_exact_div(divisor)
        if q is None:
            raise ArithmeticError("inexact division inside the subresultant sequence")
        out[d] = q
    return out


def _content_and_primitive(u):
    coeffs = list(u.values())
    content = coeffs[0]
    for c in coeffs[1:]:
        content = gcd(content, c)
        if content.is_one:
            break
    if content.is_one:
        return content, u
    return content, _uni_exact_div(u, content)


def _subresultant_prs_gcd(f, g):
    """Primitive gcd of two primitive univariate polynomials (dict views)."""
    if _uni_degree(f) < _uni_degree(g):
        f, g = g, f
    ctx = next(iter(f.values())).context
    one = Polynomial.one(ctx)
    lead = one
    psi = one
    while True:
        delta = _uni_degree(f) - _uni_degree(g)
        r = _uni_prem(f, g)
        if not r:
            break
        divisor = lead * psi**delta
        f, g = g, _uni_exact_div(r, divisor)
        if _uni_degree(g) == 0:
            return {0: one}  # a nonzero constant remainder: primitive parts are coprime
        lead = f[_uni_degree(f)]
        if delta == 1:
            psi = lead
        elif delta > 1:
            psi = (lead**delta).exact_div(psi ** (delta - 1))
    if _uni_degree(g) == 0:
        return {0: one}
    _, primitive = _content_and_primitive(g)
    return primitive
