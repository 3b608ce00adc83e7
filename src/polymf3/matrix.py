"""Dense matrices over the fraction field, plus permutation matrices.

Everything is exact and immutable. Storage is a flat row-major tuple:
factor2 and factor3 reach 128x128, and no matrix is larger than MAX_SIZE.

A product builds each entry (i, j) from its nonzero terms A[i,k]*B[k,j] in
one kernel, which classifies each operand entry once, inline: the entry, and
its numerator when its denominator is 1. The terms with two polynomial
factors are summed into one term dict (poly._dot, the one sparse product
loop, which Polynomial.__mul__ calls too); the others go through the
fraction field's private _mul/_add, which skip coercion. Within one product
the denominators are products of a few factors, so each product starts by
building a ratfunc._Memo from both operands' entries for those operators: it
factors every denominator over a certified coprime base, which turns their
gcds into trial divisions, and is dropped when the product returns. An
entry's fraction terms are summed and reduced at once (_Memo.lazy_sum), or
pairwise past LAZY_SUM_CAP or off the base. A scaled permutation operand
(one nonzero constant in each row and each column: an identity, a scalar
matrix, a signed shuffle) skips the kernel: the product permutes the other
operand's rows or columns and scales each entry's numerator by the constant,
reusing the entry when it is 1. M * c is M @ (c*I), and P.apply_rows(M) is
P's 0/1 matrix @ M. Every entry is still computed exactly. Every result is
canonical, so the entries are the ones a textbook triple loop of * and +
would give.

The steps with no arithmetic are single passes over the entry tuple:
first_difference compares the contexts once, then canonical term dicts, and
in_context moves every entry with one variable remap (poly._mover). One
block assembly, _blocks, lays out a grid of blocks of any sizes for
direct_sum, mf2.add_factorizations and mf3's block LU step.
"""

from __future__ import annotations

from .context import VarContext
from .errors import ContextError, DimensionError
from .poly import Polynomial, _dot, _mover
from .ratfunc import RationalFunction, _Memo, _monic

# the largest side of a matrix that tensor3 builds or an artifact stores;
# factor2 and factor3 stop at 128 (mf2.MAX_SPLITS)
MAX_SIZE = 256


class RatMatrix:
    __slots__ = ("_ctx", "_rows", "_cols", "_entries")

    def __init__(self, ctx: VarContext, rows: int, cols: int, entries):
        entries = tuple(entries)
        if rows < 1 or cols < 1:
            raise DimensionError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise DimensionError(
                f"expected {rows * cols} entries, got {len(entries)}"
            )
        for e in entries:
            if not isinstance(e, RationalFunction):
                raise TypeError(f"matrix entry {e!r} is not a RationalFunction")
            if e._num._ctx is not ctx and e._num._ctx != ctx:
                raise ContextError("matrix entries from different variable contexts")
        self._ctx = ctx
        self._rows = rows
        self._cols = cols
        self._entries = entries

    @classmethod
    def _raw(cls, ctx: VarContext, rows: int, cols: int, entries: tuple) -> RatMatrix:
        """Wrap an entry tuple that is already checked: rows*cols RationalFunctions of ctx."""
        out = cls.__new__(cls)
        out._ctx = ctx
        out._rows = rows
        out._cols = cols
        out._entries = entries
        return out

    @classmethod
    def from_rows(cls, ctx: VarContext, rows) -> RatMatrix:
        """Build from nested lists; entries may be RationalFunction, Polynomial,
        int or Fraction."""
        rows = [list(r) for r in rows]
        if not rows or not rows[0]:
            raise DimensionError("matrix needs at least one row and column")
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise DimensionError("ragged rows")
        entries = [
            RationalFunction.from_value(ctx, v) for row in rows for v in row
        ]
        return cls(ctx, len(rows), ncols, entries)

    @classmethod
    def identity(cls, ctx: VarContext, n: int) -> RatMatrix:
        return cls.scalar(ctx, n, 1)

    @classmethod
    def zeros(cls, ctx: VarContext, rows: int, cols: int) -> RatMatrix:
        if rows < 1 or cols < 1:
            raise DimensionError("matrix dimensions must be positive")
        return cls._raw(ctx, rows, cols, (RationalFunction.zero(ctx),) * (rows * cols))

    @classmethod
    def scalar(cls, ctx: VarContext, n: int, value) -> RatMatrix:
        """value * identity."""
        if n < 1:
            raise DimensionError("matrix dimensions must be positive")
        v = RationalFunction.from_value(ctx, value)
        zero = RationalFunction.zero(ctx)
        return cls._raw(ctx, n, n, tuple(v if i == j else zero for i in range(n) for j in range(n)))

    # -- inspection --------------------------------------------------------

    @property
    def context(self) -> VarContext:
        return self._ctx

    @property
    def rows(self) -> int:
        return self._rows

    @property
    def cols(self) -> int:
        return self._cols

    @property
    def shape(self) -> tuple[int, int]:
        return self._rows, self._cols

    @property
    def is_square(self) -> bool:
        return self._rows == self._cols

    def __getitem__(self, key):
        i, j = key
        if not (0 <= i < self._rows and 0 <= j < self._cols):
            raise IndexError(f"entry ({i}, {j}) out of range for {self.shape}")
        return self._entries[i * self._cols + j]

    def row(self, i: int) -> tuple[RationalFunction, ...]:
        return self._entries[i * self._cols : (i + 1) * self._cols]

    def row_lists(self) -> list[list[RationalFunction]]:
        return [list(self.row(i)) for i in range(self._rows)]

    # -- algebra -----------------------------------------------------------

    def _check_ctx(self, other: RatMatrix):
        if self._ctx is not other._ctx and self._ctx != other._ctx:
            raise ContextError("matrices from different variable contexts")

    def __matmul__(self, other: RatMatrix) -> RatMatrix:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        self._check_ctx(other)
        if self._cols != other._rows:
            raise DimensionError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        ctx, m = self._ctx, other._cols
        if (perm := _scaled_permutation(self)) is not None:
            # row i of the product is c * (row j of other), where self[i, j] = c
            out = []
            for j, c in perm:
                row = other._entries[j * m : (j + 1) * m]
                out.extend(row if c == 1 else [_times(e, c) for e in row])
            return RatMatrix._raw(ctx, self._rows, m, tuple(out))
        if (perm := _scaled_permutation(other)) is not None:
            # column j of the product is c * (column i of self), where other[i, j] = c
            source = sorted((j, i, c) for i, (j, c) in enumerate(perm))
            a = self._entries
            return RatMatrix._raw(ctx, self._rows, m, tuple(
                _times(a[r + i], c) for r in range(0, self._rows * m, m) for _, i, c in source
            ))
        zero, one = RationalFunction.zero(ctx), Polynomial.one(ctx)
        memo = _Memo((self._entries, other._entries))
        # operand entries as (entry, its numerator when its denominator is 1,
        # else None): all of other's, with None for 0, and self's nonzero ones
        right = [(e, e._num if e._den.is_one else None) if e._num._terms else None for e in other._entries]
        out = []
        for i in range(self._rows):
            row = [
                (k, a, a._num if a._den.is_one else None) for k, a in enumerate(self.row(i)) if a._num._terms
            ]
            for j in range(m):
                # entry (i, j): the products of two polynomials summed in one
                # term dict, the others through the fraction field; the
                # polynomial sum comes last, as it adds to a fraction with no gcd
                polys, fracs = [], []
                for k, a, pa in row:
                    if (e := right[k * m + j]) is None:
                        continue
                    b, pb = e
                    if pa is not None and pb is not None:
                        polys.append((pa, pb))
                    else:
                        fracs.append((a, b))
                acc = zero
                if fracs and (len(fracs) == 1 or (acc := memo.lazy_sum(fracs)) is None):
                    # one term, or off the base, or past LAZY_SUM_CAP: Henrici's pairwise sums
                    acc = zero
                    for a, b in fracs:
                        acc = acc._add(a._mul(b, memo), memo)
                if polys:
                    acc = acc._add(RationalFunction._raw(_dot(ctx, polys), one), memo)
                out.append(acc)
        return RatMatrix._raw(ctx, self._rows, m, tuple(out))

    def __mul__(self, other):
        try:
            scalar = RatMatrix.scalar(self._ctx, self._cols, other)
        except TypeError:
            return NotImplemented
        return self @ scalar

    __rmul__ = __mul__

    def __add__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        self._check_ctx(other)
        if self.shape != other.shape:
            raise DimensionError(f"cannot add {self.shape} and {other.shape}")
        return RatMatrix(
            self._ctx,
            self._rows,
            self._cols,
            [a + b for a, b in zip(self._entries, other._entries)],
        )

    def __sub__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return RatMatrix._raw(self._ctx, self._rows, self._cols, tuple(-e for e in self._entries))

    def transpose(self) -> RatMatrix:
        cols = self._cols
        return RatMatrix._raw(
            self._ctx,
            cols,
            self._rows,
            tuple(self._entries[i * cols + j] for j in range(cols) for i in range(self._rows)),
        )

    def kron(self, other: RatMatrix) -> RatMatrix:
        """Kronecker product: block (i, j) of the result is self[i,j] * other."""
        self._check_ctx(other)
        p, q = other._rows, other._cols
        rows, cols = self._rows * p, self._cols * q
        # the block of a zero entry of self stays as filled here, the block
        # of an entry 1 is other's own entries, and every zero is one object
        zero = RationalFunction.zero(self._ctx)
        entries = [zero] * (rows * cols)
        block = [other._entries[k * q : (k + 1) * q] for k in range(p)]
        for i in range(self._rows):
            for j, a in enumerate(self.row(i)):
                if a.is_zero:
                    continue
                for k, brow in enumerate(block):
                    base = (i * p + k) * cols + j * q
                    entries[base : base + q] = brow if a.is_one else [
                        a._mul(b, None) if b._num._terms else zero for b in brow
                    ]
        return RatMatrix._raw(self._ctx, rows, cols, tuple(entries))

    def direct_sum(self, other: RatMatrix) -> RatMatrix:
        """Block-diagonal assembly [[self, 0], [0, other]]."""
        self._check_ctx(other)
        return _blocks((
            (self, RatMatrix.zeros(self._ctx, self._rows, other._cols)),
            (RatMatrix.zeros(self._ctx, other._rows, self._cols), other),
        ))

    def in_context(self, new_ctx: VarContext) -> RatMatrix:
        """Every entry reinterpreted in new_ctx, as RationalFunction.in_context
        does, with one mover for the whole matrix."""
        if new_ctx is self._ctx or new_ctx == self._ctx:
            return self
        move, zero = _mover(self._ctx, new_ctx), RationalFunction.zero(new_ctx)
        # renaming keeps each entry reduced; the new variable order may change
        # its denominator's leading term, so _monic makes it monic again
        entries = tuple(
            RationalFunction._raw(*_monic(move(e._num), move(e._den))) if e._num._terms else zero
            for e in self._entries
        )
        return RatMatrix._raw(new_ctx, self._rows, self._cols, entries)

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return (
            self._ctx == other._ctx
            and self.shape == other.shape
            and self._entries == other._entries
        )

    def __hash__(self):
        return hash((self._ctx, self._rows, self._cols, self._entries))

    def __repr__(self):
        body = "; ".join(
            ", ".join(str(e) for e in self.row(i)) for i in range(self._rows)
        )
        return f"RatMatrix({self._rows}x{self._cols}: [{body}])"


def _blocks(grid) -> RatMatrix:
    """The matrix of a grid of blocks of one context, given as rows of blocks."""
    entries = [e for blocks in grid for i in range(blocks[0]._rows) for b in blocks for e in b.row(i)]
    cols = sum(b._cols for b in grid[0])
    return RatMatrix._raw(grid[0][0]._ctx, len(entries) // cols, cols, tuple(entries))


def _scaled_permutation(m: RatMatrix) -> list | None:
    """For a square m with exactly one nonzero entry in each row and each
    column, each a constant c, the pair (j, c) of each row i with m[i, j] = c;
    else None. The scan stops at the first entry that rules m out."""
    n = m._rows
    if n != m._cols:
        return None
    perm, used = [], set()
    for k, e in enumerate(m._entries):
        if not (t := e._num._terms):
            continue
        # key 0 is the constant monomial; a constant monic denominator is 1
        d = e._den._terms
        if len(t) != 1 or 0 not in t or len(d) != 1 or 0 not in d:
            return None
        i, j = divmod(k, n)
        # a row before this one had no nonzero, or this row has a second one
        if len(perm) != i or j in used:
            return None
        perm.append((j, t[0]))
        used.add(j)
    return perm if len(perm) == n else None


def _times(e: RationalFunction, c) -> RationalFunction:
    """e * c for a nonzero constant c: scaling the numerator keeps e reduced
    and its denominator monic, so the result is canonical."""
    if c == 1 or not e._num._terms:
        return e
    return RationalFunction._raw(e._num.scale(c), e._den)


def first_difference(a: RatMatrix, b: RatMatrix) -> tuple[int, int] | None:
    """Row-major position of the first differing entry, or None if equal;
    (0, 0) for matrices of different contexts, whose entries all differ."""
    if a.shape != b.shape:
        raise DimensionError(f"cannot compare {a.shape} with {b.shape}")
    if a._ctx is not b._ctx and a._ctx != b._ctx:
        return 0, 0
    # canonical entries of one context are equal iff their term dicts are
    for k, (x, y) in enumerate(zip(a._entries, b._entries)):
        if x is not y and (x._num._terms != y._num._terms or x._den._terms != y._den._terms):
            return divmod(k, a._cols)
    return None


class PermutationMatrix:
    """A permutation stored as an index map; row i has its single 1 in
    column image[i], so (P @ v)[i] = v[image[i]]."""

    __slots__ = ("_image",)

    def __init__(self, image):
        image = tuple(int(i) for i in image)
        if sorted(image) != list(range(len(image))):
            raise ValueError(f"{image!r} is not a permutation")
        self._image = image

    @property
    def size(self) -> int:
        return len(self._image)

    @property
    def image(self) -> tuple[int, ...]:
        return self._image

    @property
    def is_identity(self) -> bool:
        return all(i == v for i, v in enumerate(self._image))

    def transpose(self) -> PermutationMatrix:
        inverse = [0] * len(self._image)
        for i, v in enumerate(self._image):
            inverse[v] = i
        return PermutationMatrix(inverse)

    def to_matrix(self, ctx: VarContext) -> RatMatrix:
        n, zero, one = len(self._image), RationalFunction.zero(ctx), RationalFunction.one(ctx)
        return RatMatrix(ctx, n, n, [one if j == v else zero for v in self._image for j in range(n)])

    def apply_rows(self, m: RatMatrix) -> RatMatrix:
        """Left multiplication, by @: row i of the result is row image[i] of m."""
        if m.rows != len(self._image):
            raise DimensionError("permutation size does not match row count")
        return self.to_matrix(m.context) @ m

    def __eq__(self, other):
        if not isinstance(other, PermutationMatrix):
            return NotImplemented
        return self._image == other._image

    def __hash__(self):
        return hash(self._image)

    def __repr__(self):
        return f"PermutationMatrix({list(self._image)})"


def perfect_shuffle(m: int, n: int) -> PermutationMatrix:
    """The mn x mn perfect-shuffle permutation S(m, n).

    Its defining identity: for C (p x q) and D (r x s),
    D kron C = S(p, r) @ (C kron D) @ S(q, s).transpose().
    """
    if m < 1 or n < 1:
        raise ValueError("shuffle block sizes must be positive")
    image = [0] * (m * n)
    for i in range(m):
        for r in range(n):
            image[r * m + i] = i * n + r
    return PermutationMatrix(image)
