"""Function literals: structured objects and a small infix grammar.

Structured form: {"type":"poly","coeffs":[[re,im],...]}, rational and
blaschke variants as documented on UnitCircleFunction.  The infix form
accepts decimal numbers (with an optional exponent, 2.5e-3), i, z,
+ - * / ^, parentheses, and implicit multiplication, so "(1+z)/2",
"z(1+z)/2" and "1e-3+2.5E+2z" all parse.
"""

from __future__ import annotations

import json
import math

from .boundary import UnitCircleFunction


# the largest degree, exponent times the degree of the base, that a power
# may have; checked before any multiplication
POWER_MAX_DEGREE = 512


class ParseError(ValueError):
    pass


def parse_function(text) -> UnitCircleFunction:
    """Parse a structured object, JSON string, or infix expression."""
    if isinstance(text, dict):
        return UnitCircleFunction.from_dict(text)
    s = str(text).strip()
    if s.startswith("{"):
        return UnitCircleFunction.from_dict(json.loads(s))
    return _Parser(s).parse()


class _Parser:
    def __init__(self, text: str):
        self.tokens = _lex(text)
        self.pos = 0

    def parse(self) -> UnitCircleFunction:
        try:
            value = self._expr()
        except OverflowError as exc:    # the arithmetic's, not a zero
            raise ParseError(f"{exc} in a product or quotient") from None
        if self.pos != len(self.tokens):
            raise ParseError(f"unexpected token {self._peek()!r}")
        return value

    def _peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _take(self):
        tok = self._peek()
        self.pos += 1
        return tok

    def _expr(self):
        value = self._term()
        while self._peek() in ("+", "-"):
            op = self._take()
            rhs = self._term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def _term(self):
        value = self._unary()
        while True:
            tok = self._peek()
            if tok in ("*", "/"):
                self._take()
                rhs = self._unary()
                value = value * rhs if tok == "*" else value / rhs
            elif tok is not None and (tok == "(" or tok == "z" or
                                      tok == "i" or
                                      isinstance(tok, float)):
                value = value * self._unary()
            else:
                return value

    def _unary(self):
        sign = 1.0
        while self._peek() in ("+", "-"):
            if self._take() == "-":
                sign = -sign
        value = self._power()
        return value if sign > 0 else value * (-1.0)

    def _power(self):
        base = self._atom()
        if self._peek() == "^":
            self._take()
            tok = self._take()
            if not isinstance(tok, float) or tok != int(tok) or tok < 0:
                raise ParseError("exponent must be a nonnegative integer")
            n = int(tok)
            if n * base.degree() > POWER_MAX_DEGREE:
                raise ParseError(
                    f"power above the degree cap {POWER_MAX_DEGREE} "
                    f"(exponent {tok:g}, base degree {base.degree()})")
            out = UnitCircleFunction.constant(1.0)
            while n:                    # by squaring
                if n & 1:
                    out = out * base
                n >>= 1
                if n:
                    base = base * base
            return out
        return base

    def _atom(self):
        tok = self._take()
        if tok == "(":
            value = self._expr()
            if self._take() != ")":
                raise ParseError("missing closing parenthesis")
            return value
        if tok == "z":
            return UnitCircleFunction.polynomial([0.0, 1.0])
        if tok == "i":
            return UnitCircleFunction.constant(1j)
        if isinstance(tok, float):
            return UnitCircleFunction.constant(tok)
        raise ParseError(f"unexpected token {tok!r}")


def _lex(text: str):
    out = []
    k = 0
    while k < len(text):
        c = text[k]
        if c.isspace():
            k += 1
        elif c in "+-*/^()":
            out.append(c)
            k += 1
        elif c in "zZ":
            out.append("z")
            k += 1
        elif c in "iIjJ":
            out.append("i")
            k += 1
        elif c.isdigit() or c == ".":
            j = k
            while j < len(text) and (text[j].isdigit() or text[j] == "."):
                j += 1
            if text[j:j + 1] in ("e", "E"):     # an exponent: e[+-]digits
                j += 1
                if text[j:j + 1] in ("+", "-"):
                    j += 1
                if not text[j:j + 1].isdigit():
                    raise ParseError(f"bad number {text[k:j]!r}")
                while j < len(text) and text[j].isdigit():
                    j += 1
            try:
                value = float(text[k:j])
            except ValueError as exc:
                raise ParseError(f"bad number {text[k:j]!r}") from exc
            if not math.isfinite(value):
                raise ParseError(f"number {text[k:j]!r} is not finite")
            out.append(value)
            k = j
        else:
            raise ParseError(f"unexpected character {c!r}")
    if not out:
        raise ParseError("empty expression")
    return out
