"""Variable contexts: the fixed, totally ordered set of indeterminates."""

from __future__ import annotations

import re

from .errors import ContextError

_IDENT = re.compile(r"[a-zA-Z][a-zA-Z0-9_]*\Z")


class VarContext:
    """An immutable ordered tuple of variable names.

    The position of a name fixes the variable ordering used for
    graded-lexicographic comparisons, leading-coefficient normalization
    and printing. Two contexts are equal iff they list the same names in
    the same order.
    """

    __slots__ = ("_names", "_index")

    def __init__(self, names):
        if isinstance(names, str):
            names = names.replace(",", " ").split()
        names = tuple(names)
        seen = {}
        for i, name in enumerate(names):
            if not _IDENT.match(name):
                raise ValueError(f"invalid variable name: {name!r}")
            if name in seen:
                raise ValueError(f"duplicate variable name: {name!r}")
            seen[name] = i
        self._names = names
        self._index = seen

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    def __len__(self):
        return len(self._names)

    def __contains__(self, name):
        return name in self._index

    def index_of(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise ContextError(f"variable {name!r} is not in this context") from None

    def name_of(self, index: int) -> str:
        return self._names[index]

    def merge(self, other: VarContext) -> VarContext:
        """Ordered union: this context's names first, then the other's new ones."""
        extra = [n for n in other._names if n not in self._index]
        if not extra:
            return self
        return VarContext(self._names + tuple(extra))

    def gens(self):
        """Polynomial generators, one per variable, in context order."""
        from .poly import Polynomial

        return tuple(Polynomial.variable(self, n) for n in self._names)

    def __eq__(self, other):
        if not isinstance(other, VarContext):
            return NotImplemented
        return self._names == other._names

    def __hash__(self):
        return hash(self._names)

    def __repr__(self):
        return f"VarContext({', '.join(self._names)})"


def same_context(*objects):
    """Return the shared context of the arguments, or raise ContextError."""
    ctx = objects[0].context
    for obj in objects[1:]:
        if obj.context != ctx:
            raise ContextError(
                f"mixed variable contexts: {ctx!r} vs {obj.context!r}"
            )
    return ctx
