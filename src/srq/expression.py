"""Parser and printer for the small polynomial grammar used by the CLI.

Grammar (blanks are allowed at both ends and between any two tokens):

    expr    := term (('+' | '-') term)*
    term    := factor ('*' factor)*
    factor  := ('+' | '-')* primary ('^' INTEGER)?
    primary := NUMBER [ijk]? | 'i' | 'j' | 'k' | 'q' | '(' expr ')'

Every value is a regular polynomial in q; '*' is the star product, which on
constants is the ordinary quaternion product.  A power may take its exponent
and its degree, and a product its degree, up to ``_MAX_DEGREE``; the polynomial
operations of one text share a budget of ``_BUDGET`` coefficient operations,
and parentheses nested deeper than the recursion limit allows are a
``ParseError`` too.
Constants fold as float 4-tuples (w, x, y, z) until they meet q, and ``q^n``
is built directly, yet every coefficient has the bits of ``RegularPolynomial``
arithmetic, signed zeros included: unary minus is the product with -1.0, and a
zero constant is the zero polynomial.  Only the result is built, a polynomial
or ``parse_quaternion``'s quaternion.  An overflow anywhere is a ``ParseError``.
A quaternion is JSON ``[w, x, y, z]`` or a text of this grammar without q.
"""

from __future__ import annotations

import json
import math
import re
from itertools import repeat

from .errors import ParseError
from .quaternion import Quaternion, _finite, _hamilton, _make
from .series import _ZERO4, RegularPolynomial, _from_parts

# an unsigned decimal literal; blanks never split it from its digits or its unit
_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d+)?"
_TOKEN = re.compile(r"\s*(?:(" + _NUMBER + r")([ijk]?)|([-+*^()ijkq])|(\S))")
_MAX_DEGREE = 1000
#: Coefficient operations one text may spend: a product of two polynomials costs
#: its coefficient products, a sum or a constant times a polynomial its
#: coefficient count.  The slowest power allowed, (q+i)^1000, spends
#: 4 + 6 + ... + 2000 = 1,000,998 products, which leaves room for ten sums or
#: constant maps of degree 1000 around it.
_BUDGET = (_MAX_DEGREE + 10) * (_MAX_DEGREE + 1)
_Q = RegularPolynomial.identity()
_NAMES = {"i": (0.0, 1.0, 0.0, 0.0), "j": (0.0, 0.0, 1.0, 0.0), "k": (0.0, 0.0, 0.0, 1.0), "q": _Q}
_UNITS = {"": 0, "i": 1, "j": 2, "k": 3}
_ONE = (1.0, 0.0, 0.0, 0.0)
_MINUS_ONE = (-1.0, 0.0, 0.0, 0.0)


def _tokenize(text: str) -> list:
    """The tokens of ``text``, closed by None: a float 4-tuple per constant,
    ``_Q`` for q and every operator as its character."""
    tokens = []
    for num, unit, op, _ in _TOKEN.findall(text):
        if op:
            tokens.append(_NAMES.get(op, op))
        elif num and not math.isinf(value := float(num)):
            # the bits of value * i and the like: value is finite and unsigned
            parts = [0.0, 0.0, 0.0, 0.0]
            parts[_UNITS[unit]] = value
            tokens.append(tuple(parts))
        else:
            _token_error(text)
    tokens.append(None)
    return tokens


def _token_error(text: str):
    """Raise the first error in ``text``: a stray character or a number that overflows."""
    for m in _TOKEN.finditer(text):
        num, _, _, bad = m.groups()
        if bad:
            raise ParseError(f"unexpected character {bad!r} at offset {m.start(4)}")
        if num and math.isinf(float(num)):
            raise ParseError(f"number {num!r} at offset {m.start(1)} overflows")


def _reduced(p: RegularPolynomial):
    """``p`` as a value: a constant when its degree is below 1."""
    return p if len(p._c) > 1 else p._c[0] if p._c else _ZERO4


def _polynomial(value) -> RegularPolynomial:
    """A value as a polynomial; a zero constant is the zero polynomial."""
    return value if type(value) is RegularPolynomial else _from_parts([value])


def _times(a: tuple, b: tuple) -> tuple:
    """The star product of constants, float 4-tuples: each component of a * b
    summed onto +0.0, as the convolution sums it."""
    w, x, y, z = _hamilton(a, b)
    return 0.0 + w, 0.0 + x, 0.0 + y, 0.0 + z


def _negated(value):
    """value * -1.0, the product with the quaternion -1 (not plain negation), which
    keeps every value finite; a polynomial maps each coefficient so."""
    if type(value) is tuple:
        return _ZERO4 if value == _ZERO4 else _hamilton(value, _MINUS_ONE)
    return _from_parts(list(map(_hamilton, value._c, repeat(_MINUS_ONE))))


class _Parser:
    """Recursive descent over the tokens.  Each rule takes the index of its
    first token and returns its value and the index after it; a value is a
    float 4-tuple or a ``RegularPolynomial`` of degree at least 1."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.budget = _BUDGET

    def spend(self, cost: int):
        """Charge ``cost`` coefficient operations, refusing the text once it
        overdraws its budget."""
        self.budget -= cost
        if self.budget < 0:
            raise ParseError(f"{self.text!r} needs more than {_BUDGET} coefficient operations")

    def product(self, a, b):
        """a * b; a polynomial times a constant maps its coefficients, so ``q^n * c``
        is a shifted coefficient list, and a product of two polynomials is refused
        if its degree would exceed ``_MAX_DEGREE``.  Each is charged before it is built."""
        if type(a) is tuple:
            if type(b) is tuple:
                return _finite(_times(a, b))
            self.spend(len(b._c))
            return _reduced(_from_parts([c if c is _ZERO4 else _times(a, c) for c in b._c]))
        if type(b) is tuple:
            self.spend(len(a._c))
            return _reduced(_from_parts([c if c is _ZERO4 else _times(c, b) for c in a._c]))
        if a.degree + b.degree > _MAX_DEGREE:
            raise ParseError(f"product in {self.text!r} exceeds degree {_MAX_DEGREE}")
        self.spend(len(a._c) * len(b._c))
        return _reduced(a * b)

    def power(self, base, n: int):
        """base^n by the loop out = out * base from out = 1, with q^n built directly."""
        if base is _Q and n:
            return _from_parts([_ZERO4] * n + [_ONE])
        value = _ONE
        for _ in range(n):
            value = self.product(value, base)
        return value

    def expr(self, i: int):
        value, i = self.term(i)
        op = self.tokens[i]
        while op == "+" or op == "-":
            rhs, i = self.term(i + 1)
            if type(value) is tuple and type(rhs) is tuple:
                (w1, x1, y1, z1), (w2, x2, y2, z2) = value, rhs
                value = _finite((w1 + w2, x1 + x2, y1 + y2, z1 + z2) if op == "+"
                                else (w1 - w2, x1 - x2, y1 - y2, z1 - z2))
                if value == _ZERO4:  # a sum that cancels is the zero polynomial
                    value = _ZERO4
            else:
                self.spend(max(v.degree + 1 for v in (value, rhs) if type(v) is RegularPolynomial))
                value, rhs = _polynomial(value), _polynomial(rhs)
                value = _reduced(value + rhs if op == "+" else value - rhs)
            op = self.tokens[i]
        return value, i

    def term(self, i: int):
        value, i = self.factor(i)
        while self.tokens[i] == "*":
            rhs, i = self.factor(i + 1)
            value = self.product(value, rhs)
        return value, i

    def factor(self, i: int):
        tokens = self.tokens
        tok = tokens[i]
        negative = False
        while type(tok) is str and tok in "+-":
            negative ^= tok == "-"
            i += 1
            tok = tokens[i]
        if type(tok) is tuple or tok is _Q:
            value = tok
            i += 1
        elif tok == "(":
            value, i = self.expr(i + 1)
            if tokens[i] != ")":
                raise ParseError(f"expected ')' in {self.text!r}")
            i += 1
        else:
            raise ParseError(f"unexpected token in {self.text!r}")
        if tokens[i] == "^":
            n = tokens[i + 1]
            if type(n) is not tuple or n[1] or n[2] or n[3] or n[0] < 0 or n[0] != int(n[0]):
                raise ParseError(f"exponent must be a nonnegative integer in {self.text!r}")
            n = n[0]
            degree = 1 if type(value) is tuple else value.degree
            if n * degree > _MAX_DEGREE:
                raise ParseError(f"power in {self.text!r} exceeds degree {_MAX_DEGREE}")
            value = self.power(value, int(n))
            i += 2
        return (_negated(value) if negative else value), i


def _parse(text: str):
    """The value of ``text``: a float 4-tuple or a polynomial of degree at least 1."""
    if not text or not text.strip():
        raise ParseError("empty expression")
    parser = _Parser(text)
    try:
        value, i = parser.expr(0)
    except RecursionError:  # each '(' is three frames deeper
        raise ParseError("parentheses nest too deeply") from None
    except ValueError as exc:  # _make's test: a constant or coefficient overflowed
        raise ParseError(f"{text!r} overflows: {exc}") from None
    if parser.tokens[i] is not None:
        raise ParseError(f"trailing input in {text!r}")
    return value


def parse_polynomial(text: str) -> RegularPolynomial:
    return _polynomial(_parse(text))


def parse_quaternion(text: str) -> Quaternion:
    """JSON ``[w, x, y, z]``, or a polynomial text that does not depend on q."""
    s = text.strip()
    if s.startswith("["):
        try:
            obj = json.loads(s)
        except ValueError as exc:  # malformed, or an int beyond the digit limit
            raise ParseError(f"bad quaternion JSON {text!r}: {exc}") from exc
        return Quaternion.from_json(obj)
    value = _parse(text)
    if type(value) is not tuple:
        raise ParseError(f"a quaternion cannot depend on q, got {text!r}")
    w, x, y, z = value
    # each component summed onto +0.0, so no literal reads as -0.0
    return _make(0.0 + w, 0.0 + x, 0.0 + y, 0.0 + z)


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
        c = p._c[n]
        if c == _ZERO4:
            continue
        if n == 0:
            parts.append(_coefficient_str(_make(*c), standalone=True))
            continue
        power = "q" if n == 1 else f"q^{n}"
        if c == _ONE:
            parts.append(power)
        else:
            parts.append(f"{power}*{_coefficient_str(_make(*c), standalone=False)}")
    return " + ".join(parts)
