"""Independent oracle: evaluates canonical entry strings at rational points.

Nothing here imports polymf3. Entries are read as plain arithmetic text
(`+ - * / ^`, parentheses, integers, identifiers) and evaluated with
fractions.Fraction, so a check agrees with the program only when the
program's printed matrices really satisfy the identity. Points are drawn
from a seeded generator and redrawn when a denominator vanishes.
"""

from __future__ import annotations

import random
import re
from fractions import Fraction

_TOKEN = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|(.))")
_POINT_ATTEMPTS = 50


def _tokens(text: str) -> list[str]:
    out = []
    for number, name, op in _TOKEN.findall(text):
        if op and op not in "+-*/^()":
            raise ValueError(f"unexpected character {op!r} in {text!r}")
        out.append(number or name or op)
    return out


class _Eval:
    """Recursive descent over: expr := term (('+'|'-') term)*;
    term := factor (('*'|'/') factor)*; factor := '-' factor | atom ['^' INT];
    atom := INT | NAME | '(' expr ')'."""

    def __init__(self, text: str, point: dict[str, Fraction]):
        self.toks = _tokens(text)
        self.i = 0
        self.point = point

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expr(self) -> Fraction:
        value = self.term()
        while self.peek() in ("+", "-"):
            value = value + self.term() if self.take() == "+" else value - self.term()
        return value

    def term(self) -> Fraction:
        value = self.factor()
        while self.peek() in ("*", "/"):
            value = value * self.factor() if self.take() == "*" else value / self.factor()
        return value

    def factor(self) -> Fraction:
        if self.peek() == "-":
            self.take()
            return -self.factor()
        base = self.atom()
        if self.peek() == "^":
            self.take()
            return base ** int(self.take())
        return base

    def atom(self) -> Fraction:
        tok = self.take()
        if tok is None:
            raise ValueError("unexpected end of entry")
        if tok.isdigit():
            return Fraction(int(tok))
        if tok == "(":
            value = self.expr()
            if self.take() != ")":
                raise ValueError("unbalanced parentheses")
            return value
        if tok in self.point:
            return self.point[tok]
        raise ValueError(f"no value for {tok!r}")


def evaluate(text: str, point: dict[str, Fraction]) -> Fraction:
    """Value of an entry string at a point; ZeroDivisionError if a denominator vanishes."""
    ev = _Eval(text, point)
    value = ev.expr()
    if ev.peek() is not None:
        raise ValueError(f"trailing {ev.peek()!r} in {text!r}")
    return value


def evaluate_grid(grid: list[list[str]], point) -> list[list[Fraction]]:
    return [[evaluate(text, point) for text in row] for row in grid]


def matmul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def scalar(n: int, value: Fraction):
    return [[value if i == j else Fraction(0) for j in range(n)] for i in range(n)]


def at_points(rng: random.Random, names, count: int, body) -> list[str]:
    """Run body(point) at `count` points where it evaluates; collect its problems.

    A point at which some denominator vanishes is redrawn.
    """
    problems: list[str] = []
    done = 0
    for _ in range(_POINT_ATTEMPTS):
        point = {n: Fraction(rng.randint(-97, 97), rng.randint(1, 13)) for n in names}
        try:
            found = body(point)
        except ZeroDivisionError:
            continue
        problems.extend(found)
        done += 1
        if done == count or problems:
            return problems
    return problems + [f"no evaluable point after {_POINT_ATTEMPTS} draws"]


def product_is_scalar(label: str, grids, f_text: str, point) -> list[str]:
    """Check grids[0] @ grids[1] @ ... == f*I at one point."""
    mats = [evaluate_grid(g, point) for g in grids]
    prod = mats[0]
    for m in mats[1:]:
        prod = matmul(prod, m)
    want = scalar(len(prod), evaluate(f_text, point))
    return [] if prod == want else [f"{label} != f*I at {_show(point)}"]


def same_matrix(label: str, got, want, point) -> list[str]:
    return [] if got == want else [f"{label} differs at {_show(point)}"]


def _show(point) -> str:
    return "{" + ", ".join(f"{k}={v}" for k, v in sorted(point.items())) + "}"


def self_test() -> list[str]:
    """The oracle accepts a known factorization and flags it with one entry changed."""
    P = [["x", "-y"], ["y", "x^2"]]
    Q = [["x^2", "y"], ["-y", "x"]]
    f = "x^3 + y^2"
    rng = random.Random(0)
    problems = []
    if at_points(rng, ["x", "y"], 2, lambda pt: product_is_scalar("P*Q", [P, Q], f, pt)):
        problems.append("oracle rejects a valid factorization")
    planted = [row[:] for row in Q]
    planted[1][1] = "x + 1/3"
    if not at_points(rng, ["x", "y"], 2, lambda pt: product_is_scalar("P*Q", [P, planted], f, pt)):
        problems.append("oracle accepts a planted wrong entry")
    if evaluate("(-3/2*x + y^2)/(x - 1)", {"x": Fraction(3), "y": Fraction(2)}) != Fraction(-1, 4):
        problems.append("oracle misreads a canonical quotient")
    return problems
