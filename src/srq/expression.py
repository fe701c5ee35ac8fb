"""Parser and printer for the small polynomial grammar used by the CLI.

Grammar (whitespace insensitive):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := ('+' | '-')* primary ('^' INTEGER)?
    primary := NUMBER [ijk]? | 'i' | 'j' | 'k' | 'q' | '(' expr ')'

Every value is a regular polynomial in q; '*' is the star product, which on
constants is the ordinary quaternion product.
"""

from __future__ import annotations

import math
import re

from .errors import ParseError
from .quaternion import _NUMBER, I, J, K, ONE, Quaternion
from .series import RegularPolynomial

_TOKEN = re.compile(
    r"\s*(?:"
    r"(?P<num>" + _NUMBER + r")(?P<unit>[ijk])?"
    r"|(?P<name>[ijkq])"
    r"|(?P<op>[-+*^()])"
    r")")

_UNITS = {"i": I, "j": J, "k": K}


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r} at offset {pos}")
        if m.group("num") is not None:
            value = float(m.group("num"))
            if math.isinf(value):
                raise ParseError(f"number {m.group('num')!r} at offset {m.start('num')} overflows")
            unit = m.group("unit")
            quat = _UNITS[unit] * value if unit else Quaternion(value)
            tokens.append(("const", quat))
        elif m.group("name") is not None:
            name = m.group("name")
            if name == "q":
                tokens.append(("q", None))
            else:
                tokens.append(("const", _UNITS[name]))
        else:
            tokens.append(("op", m.group("op")))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, symbol: str):
        kind, value = self.advance()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r} in {self.text!r}")

    def parse(self) -> RegularPolynomial:
        value = self.expr()
        if self.peek()[0] != "end":
            raise ParseError(f"trailing input in {self.text!r}")
        return value

    def expr(self) -> RegularPolynomial:
        value = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            _, op = self.advance()
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self) -> RegularPolynomial:
        value = self.factor()
        while self.peek() == ("op", "*"):
            self.advance()
            value = value * self.factor()
        return value

    def factor(self) -> RegularPolynomial:
        sign = 1.0
        while self.peek() in (("op", "+"), ("op", "-")):
            if self.advance()[1] == "-":
                sign = -sign
        value = self.primary()
        if self.peek() == ("op", "^"):
            self.advance()
            kind, const = self.advance()
            if kind != "const" or not const.is_real() or const.w < 0 or const.w != int(const.w):
                raise ParseError(f"exponent must be a nonnegative integer in {self.text!r}")
            value = value ** int(const.w)
        return value * sign if sign < 0 else value

    def primary(self) -> RegularPolynomial:
        kind, value = self.advance()
        if kind == "const":
            return RegularPolynomial([value])
        if kind == "q":
            return RegularPolynomial.identity()
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError(f"unexpected token in {self.text!r}")


def parse_polynomial(text: str) -> RegularPolynomial:
    if not text or not text.strip():
        raise ParseError("empty expression")
    return _Parser(text).parse()


_SIMPLE_COEFF = re.compile(r"^(?:\d+(?:\.\d+)?(?:e-?\d+)?)?[ijk]?$")


def _coefficient_str(c: Quaternion, standalone: bool) -> str:
    s = str(c)
    if standalone or _SIMPLE_COEFF.match(s):
        return s
    return f"({s})"


def format_polynomial(p: RegularPolynomial) -> str:
    """Render with descending powers, e.g. 'q^2 + q*(-i-j) + k'."""
    if p.is_zero:
        return "0"
    parts = []
    for n in range(p.degree, -1, -1):
        c = p.coefficient(n)
        if c == Quaternion():
            continue
        if n == 0:
            parts.append(_coefficient_str(c, standalone=True))
            continue
        power = "q" if n == 1 else f"q^{n}"
        if c == ONE:
            parts.append(power)
        else:
            parts.append(f"{power}*{_coefficient_str(c, standalone=False)}")
    return " + ".join(parts)
