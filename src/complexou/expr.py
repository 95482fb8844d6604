"""Tiny expression language for polynomial literals on the command line.

Grammar (whitespace insensitive)::

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := ('+' | '-')* power
    power  := atom ('^' INTEGER)*
    atom   := 'z' | 'zbar' | 'i' | NUMBER | '(' expr ')'

NUMBER is a nonnegative decimal literal (42, 0.5, 1e-3); 'i' is the imaginary
unit.  Multiplication must be written explicitly ("2*z", not "2z").  The
ASCII hyphen and the unicode minus sign are both accepted.  Parsing produces
a :class:`~.poly.PolyZZbar`; errors raise :class:`ExprError` with the
offending position.  A product or power whose total degree would exceed
``MAX_TOTAL_DEGREE`` (64) is an error too, raised before it is computed, so a
literal such as ``z^2000`` fails at once instead of building a huge array.
So is a number that is not finite as a double (``1e400``), a sum, product or
power whose coefficients overflow (``2^3000*z``, ``1e200*1e200``), and an
exponent too long to convert to an integer.
"""

from __future__ import annotations

import re

import numpy as np

from .poly import PolyZZbar
from .spectral import MAX_TOTAL_DEGREE

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>zbar|z|i)"
    r"|(?P<op>[+\-*^()])"
    r")"
)


class ExprError(ValueError):
    """Raised on any lexical or syntactic problem in a polynomial literal, on a
    product or power above ``MAX_TOTAL_DEGREE``, and on a non-finite number or
    coefficient."""


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    text = text.replace("−", "-")  # unicode minus
    while pos < len(text):
        match = _TOKEN.match(text, pos)
        if match is None:
            rest = text[pos:].lstrip()
            if not rest:
                break
            raise ExprError(f"unexpected character {rest[0]!r} at position {pos}")
        kind = match.lastgroup
        tokens.append((kind, match.group(kind), match.start(kind)))
        pos = match.end()
    return tokens


def _check_degree(degree: int, start: int) -> None:
    if degree > MAX_TOTAL_DEGREE:
        raise ExprError(
            f"total degree {degree} exceeds {MAX_TOTAL_DEGREE} at position {start}"
        )


def _finite(p: PolyZZbar, what: str, start: int) -> PolyZZbar:
    if not np.isfinite(p._c).all():
        raise ExprError(f"{what} at position {start} is not finite")
    return p


class _Parser:
    def __init__(self, tokens: list[tuple[str, str, int]], text: str):
        self.tokens = tokens
        self.text = text
        self.pos = 0

    def _peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise ExprError(f"unexpected end of expression in {self.text!r}")
        self.pos += 1
        return tok

    def _accept_op(self, *ops: str) -> str | None:
        tok = self._peek()
        if tok is not None and tok[0] == "op" and tok[1] in ops:
            self.pos += 1
            return tok[1]
        return None

    def parse(self) -> PolyZZbar:
        result = self.expr()
        tok = self._peek()
        if tok is not None:
            raise ExprError(f"unexpected {tok[1]!r} at position {tok[2]}")
        return result

    def expr(self) -> PolyZZbar:
        result = self.term()
        while True:
            op = self._accept_op("+", "-")
            if op is None:
                return result
            start = self.tokens[self.pos - 1][2]
            rhs = self.term()
            result = _finite(result + rhs if op == "+" else result - rhs, "sum", start)

    def term(self) -> PolyZZbar:
        result = self.factor()
        while self._accept_op("*"):
            start = self.tokens[self.pos - 1][2]
            rhs = self.factor()
            if result and rhs:
                _check_degree(result.degree + rhs.degree, start)
            result = _finite(result * rhs, "product", start)
        return result

    def factor(self) -> PolyZZbar:
        negate = False
        while (op := self._accept_op("+", "-")) is not None:
            negate ^= op == "-"
        return -self.power() if negate else self.power()

    def power(self) -> PolyZZbar:
        result = self.atom()
        while self._accept_op("^"):
            kind, text, start = self._next()
            if kind != "num" or not text.isdigit():
                raise ExprError(
                    f"exponent must be a nonnegative integer, got {text!r} at position {start}"
                )
            try:
                exponent = int(text)
            except ValueError:  # more digits than int() converts
                raise ExprError(
                    f"exponent of {len(text)} digits is too long at position {start}"
                ) from None
            if result:
                _check_degree(result.degree * exponent, start)
            result = _finite(result ** exponent, "power", start)
        return result

    def atom(self) -> PolyZZbar:
        kind, text, start = self._next()
        if kind == "num":
            return _finite(PolyZZbar.constant(float(text)), f"number {text!r}", start)
        if kind == "name":
            if text == "z":
                return PolyZZbar.z()
            if text == "zbar":
                return PolyZZbar.zbar()
            return PolyZZbar.constant(1j)
        if kind == "op" and text == "(":
            inner = self.expr()
            if not self._accept_op(")"):
                raise ExprError(f"missing ')' for '(' at position {start}")
            return inner
        raise ExprError(f"unexpected {text!r} at position {start}")


def parse_poly(text: str) -> PolyZZbar:
    """Parse a polynomial literal such as "z*zbar - 2" or "(1+i)*z^2"."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExprError("empty expression")
    # an overflow is reported as an ExprError by _finite, not as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        return _Parser(tokens, text).parse()
