"""Exception types shared across the package, and the bound on what their
one-line messages echo of an input value."""


def _shown(text: str) -> str:
    """A value's text (its repr, say) as a one-line error echoes it: cut to
    its first 40 characters and '...' when longer."""
    return text if len(text) <= 40 else text[:40] + "..."


class PolymfError(Exception):
    """Base class for all domain errors raised by polymf3."""


class ContextError(PolymfError):
    """Operands belong to different variable contexts."""


class ParseError(PolymfError):
    """Expression text violates the polynomial grammar."""

    def __init__(self, message, text=None, pos=None):
        self.text = text
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


class UnknownVariableError(ParseError):
    """An identifier in the input is not part of the variable context."""


class DimensionError(PolymfError):
    """Matrix shapes are incompatible with the requested operation, or differ
    from what an artifact claims (its size, or the LU shape of its provenance)."""


class CertificateError(PolymfError):
    """A factorization certificate P*Q = f*I or A1*A2*A3 = f*I failed.

    Carries the first offending entry so verification reports can
    pinpoint it.
    """

    def __init__(self, label, row, col, got, expected):
        self.label = label
        self.row = row
        self.col = col
        self.got = got
        self.expected = expected
        super().__init__(
            f"certificate failed: {label}[{row}][{col}] = {got}, expected {expected}"
        )


class SingularPivotError(PolymfError):
    """A zero pivot was hit while row pivoting was disabled."""

    def __init__(self, order):
        self.order = order
        super().__init__(
            f"zero pivot: the leading principal {order}x{order} submatrix is singular "
            "(enable pivoting to search for a usable row)"
        )


class StructurallySingularError(PolymfError):
    """No nonzero pivot exists in any remaining row; the matrix is singular."""

    def __init__(self, column):
        self.column = column
        super().__init__(
            f"matrix is singular: no nonzero pivot available in column {column}"
        )


class MorphismError(PolymfError):
    """A morphism violates a commuting square m_i*C_i = C'_i*m_{i+1 mod n}."""

    def __init__(self, equation, row, col):
        self.equation = equation
        self.row = row
        self.col = col
        super().__init__(
            f"morphism equation {equation} fails at entry [{row}][{col}]"
        )
