"""Dense matrices over the fraction field, plus permutation matrices.

Everything is exact and immutable. Sizes stay small (factorization
matrices top out around 16x16 at desk scale), so storage is a flat
row-major tuple and products skip zero entries rather than anything
fancier.
"""

from __future__ import annotations

from .context import VarContext
from .errors import ContextError, DimensionError
from .ratfunc import RationalFunction


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
            if e.context != ctx:
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
        if self._ctx != other._ctx:
            raise ContextError("matrices from different variable contexts")

    def __matmul__(self, other: RatMatrix) -> RatMatrix:
        if not isinstance(other, RatMatrix):
            return NotImplemented
        self._check_ctx(other)
        if self._cols != other._rows:
            raise DimensionError(
                f"cannot multiply {self.shape} by {other.shape}"
            )
        zero = RationalFunction.zero(self._ctx)
        out = []
        for i in range(self._rows):
            acc = [zero] * other._cols
            for k, a in enumerate(self.row(i)):
                if a.is_zero:
                    continue
                brow = other.row(k)
                for j, b in enumerate(brow):
                    if not b.is_zero:
                        acc[j] = acc[j] + a * b
            out.extend(acc)
        return RatMatrix._raw(self._ctx, self._rows, other._cols, tuple(out))

    def __mul__(self, other):
        if isinstance(other, RatMatrix):
            return self.__matmul__(other)
        try:
            v = RationalFunction.from_value(self._ctx, other)
        except TypeError:
            return NotImplemented
        return self.map_entries(lambda e: e * v)

    def __rmul__(self, other):
        return self.__mul__(other)

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
        return self + other.map_entries(lambda e: -e)

    def __neg__(self):
        return self.map_entries(lambda e: -e)

    def transpose(self) -> RatMatrix:
        cols = self._cols
        return RatMatrix._raw(
            self._ctx,
            cols,
            self._rows,
            tuple(self._entries[i * cols + j] for j in range(cols) for i in range(self._rows)),
        )

    def map_entries(self, fn) -> RatMatrix:
        return RatMatrix(self._ctx, self._rows, self._cols, [fn(e) for e in self._entries])

    def kron(self, other: RatMatrix) -> RatMatrix:
        """Kronecker product: block (i, j) of the result is self[i,j] * other."""
        self._check_ctx(other)
        rows = self._rows * other._rows
        cols = self._cols * other._cols
        entries = [None] * (rows * cols)
        for i in range(self._rows):
            for j in range(self._cols):
                a = self[i, j]
                for k in range(other._rows):
                    base = (i * other._rows + k) * cols + j * other._cols
                    for l in range(other._cols):
                        entries[base + l] = a * other[k, l]
        return RatMatrix._raw(self._ctx, rows, cols, tuple(entries))

    def direct_sum(self, other: RatMatrix) -> RatMatrix:
        """Block-diagonal assembly [[self, 0], [0, other]]."""
        self._check_ctx(other)
        rows = self._rows + other._rows
        cols = self._cols + other._cols
        zero = RationalFunction.zero(self._ctx)
        entries = []
        for i in range(self._rows):
            entries.extend(self.row(i))
            entries.extend([zero] * other._cols)
        for i in range(other._rows):
            entries.extend([zero] * self._cols)
            entries.extend(other.row(i))
        return RatMatrix._raw(self._ctx, rows, cols, tuple(entries))

    def in_context(self, new_ctx: VarContext) -> RatMatrix:
        if new_ctx == self._ctx:
            return self
        return RatMatrix(
            new_ctx,
            self._rows,
            self._cols,
            [e.in_context(new_ctx) for e in self._entries],
        )

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


def first_difference(a: RatMatrix, b: RatMatrix) -> tuple[int, int] | None:
    """Row-major position of the first differing entry, or None if equal."""
    if a.shape != b.shape:
        raise DimensionError(f"cannot compare {a.shape} with {b.shape}")
    for k, (x, y) in enumerate(zip(a._entries, b._entries)):
        if x != y:
            return divmod(k, a.cols)
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
        return self.apply_rows(RatMatrix.identity(ctx, len(self._image)))

    def apply_rows(self, m: RatMatrix) -> RatMatrix:
        """Left multiplication: row i of the result is row image[i] of m."""
        if m.rows != len(self._image):
            raise DimensionError("permutation size does not match row count")
        entries = []
        for i in range(m.rows):
            entries.extend(m.row(self._image[i]))
        return RatMatrix._raw(m.context, m.rows, m.cols, tuple(entries))

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
