"""The polynomial grammar of the CLI: parsing, printing and their round trip."""

import json
import re
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from srq.errors import ParseError
from srq.expression import _Parser, format_polynomial, parse_polynomial, parse_quaternion
from srq.quaternion import I, J, K, ONE, ZERO, Quaternion, _make
from srq.series import RegularPolynomial

Q = RegularPolynomial.identity()

component = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e16, -1e16, 5e-324, 1e300, -1e300]),
    st.integers(min_value=-1000, max_value=1000).map(float),
    st.floats(allow_nan=False, allow_infinity=False))
quaternion = st.builds(Quaternion, component, component, component, component)
polynomial = st.lists(quaternion, max_size=6).map(RegularPolynomial)


@given(polynomial)
def test_format_then_parse_is_the_identity(p):
    assert parse_polynomial(format_polynomial(p)) == p


@pytest.mark.parametrize("text, value", [
    ("(q - i)*(q - j)", (Q - I) * (Q - J)),
    ("q*i", Q * I),
    ("i*q", I * Q),  # constants commute with q under the star product
    ("2*(q + 1)^2", (Q + ONE) * (Q + ONE) * 2.0),
    ("((q))", Q),
    ("-q", -Q),
    ("--q", Q),
    ("+-+q", -Q),
    ("-q^2", -(Q * Q)),
    ("3 - -2k", RegularPolynomial([Quaternion(3, 0, 0, 2)])),
    ("q^0", RegularPolynomial([ONE])),
    ("0*q", RegularPolynomial()),
])
def test_parse_products_parentheses_and_signs(text, value):
    assert parse_polynomial(text) == value


@pytest.mark.parametrize("text, message", [
    ("q $ 1", "unexpected character"),
    ("(q + 1", "expected ')'"),
    ("q q", "trailing input"),
    ("q)", "trailing input"),
    ("q^-1", "exponent must be"),
    ("q^1.5", "exponent must be"),
    ("q^i", "exponent must be"),
    ("q^q", "exponent must be"),
    ("", "empty expression"),
    ("   ", "empty expression"),
    ("q + *", "unexpected token"),
    ("q +", "unexpected token"),
    ("1e400*q", "overflows"),
    ("q + @", "unexpected character '@' at offset 4"),
    ("  1e400", "number '1e400' at offset 2 overflows"),
    ("q^1001", "exceeds"),
    ("i^1001", "exceeds"),
    ("(q^10 + 1)^101", "exceeds"),
    ("q^1e300", "exceeds"),
    ("(q+1)^100000", "exceeds"),
    ("2^1e300", "exceeds"),
    ("0^1e300", "exceeds"),
    ("q^1000*q^1000*q^1000*q^1000", "product in"),
    ("q * q^1000", "product in"),
    ("q^600 * (q + 1)^401", "exceeds"),
])
def test_parse_errors(text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_polynomial(text)


@pytest.mark.parametrize("text", ["q ", "q\n", "\tq^2 + 1 ", " ( q - i ) * ( q - j ) \r\n",
                                  "q ^ 2", "- - q", "2 * i"])
def test_whitespace_is_allowed_at_both_ends_and_between_tokens(text):
    assert parse_polynomial(text) == parse_polynomial("".join(text.split()))


def test_the_largest_powers_are_accepted():
    assert parse_polynomial("q^1000").degree == 1000
    assert parse_polynomial("(q^10 + 1)^100").degree == 1000
    assert parse_polynomial("i^1000") == RegularPolynomial([ONE])
    assert parse_polynomial("q^500*q^500").degree == 1000
    # a constant factor leaves the degree as it is
    assert parse_polynomial("2 * q^1000 * (q - q + i)").degree == 1000


def test_one_budget_of_coefficient_products_for_the_whole_text(monkeypatch):
    spent = []
    star = RegularPolynomial.__mul__

    def counting(a, b):
        if isinstance(b, RegularPolynomial):
            spent.append(len(a.coeffs) * len(b.coeffs))
        return star(a, b)

    monkeypatch.setattr(RegularPolynomial, "__mul__", counting)
    # the slowest power allowed spends just below the budget of one text
    binomial = parse_polynomial("(q+i)^1000")
    assert binomial.degree == 1000 and sum(spent) <= 1001000
    # a second such term overdraws it within the headroom, so the text is
    # refused after one term's products, not after all three
    spent.clear()
    term = "(0.5*q+0.5i)^1000"
    with pytest.raises(ParseError, match="needs more than 1011010 coefficient operations"):
        parse_polynomial(" + ".join([term] * 3))
    assert sum(spent) <= 1011010


def test_sums_and_constant_maps_spend_the_same_budget(monkeypatch):
    # the headroom above (q+i)^1000 takes the sums and constants around it
    assert parse_polynomial("(q+i)^1000 + q^1000*i + 1").degree == 1000
    sums, products = [], []
    add, product = RegularPolynomial.__add__, _Parser.product
    monkeypatch.setattr(RegularPolynomial, "__add__", lambda f, g: sums.append(1) or add(f, g))
    monkeypatch.setattr(_Parser, "product", lambda p, a, b: products.append(1) or product(p, a, b))
    # every term is built directly and every sum costs 1001, so about a
    # thousand of the 20,000 sums run before the text is refused
    with pytest.raises(ParseError, match="needs more than 1011010 coefficient operations"):
        parse_polynomial("+".join(["q^1000"] * 20000))
    assert 1000 <= len(sums) <= 1011
    # a constant times q^1000 costs 1001 as well
    with pytest.raises(ParseError, match="needs more than 1011010 coefficient operations"):
        parse_polynomial("q^1000" + "*i" * 20000)
    assert 1000 <= len(products) <= 1011


@pytest.mark.parametrize("depth", [340, 10000])
def test_deep_nesting_is_a_parse_error(depth):
    with pytest.raises(ParseError, match="nest too deeply"):
        parse_polynomial("(" * depth + "q" + ")" * depth)
    assert parse_polynomial("(" * 100 + "q" + ")" * 100) == Q


def test_format_examples():
    assert format_polynomial(RegularPolynomial()) == "0"
    assert format_polynomial((Q - I) * (Q - J)) == "q^2 + q*(-i-j) + k"
    # zero coefficients are skipped, unit ones print as the bare power
    assert format_polynomial(RegularPolynomial([ONE, ZERO, ONE])) == "q^2 + 1"
    assert format_polynomial(RegularPolynomial([ZERO, ONE])) == "q"
    assert format_polynomial(RegularPolynomial([ZERO, Quaternion(-2), K])) == "q^2*k + q*(-2)"
    assert format_polynomial(RegularPolynomial([ZERO, J * 0.5])) == "q*0.5j"


def _bits(p):
    return [[repr(v) for v in c.to_json()] for c in p.coeffs]


PARSE_CASES = json.loads((Path(__file__).parent / "data" / "parse_cases.json").read_text())


@pytest.mark.parametrize("case", PARSE_CASES,
                         ids=[f"{c['group']}-{n}" for n, c in enumerate(PARSE_CASES)])
def test_recorded_texts_parse_bit_for_bit(case):
    # texts in the benchmark generator's shapes, the CLI tests' texts, sign edge cases
    # and seeded random trees, with the coefficients (as repr, so the signs of zeros
    # count) that the token-by-token RegularPolynomial parser returned
    assert _bits(parse_polynomial(case["text"])) == case["coeffs"]


def test_parsing_builds_no_quaternion(monkeypatch):
    # constants fold as float 4-tuples, so a polynomial text builds no quaternion
    # and a quaternion text builds only its result; _make is counted in every
    # module that imported it
    made = []
    init, make = Quaternion.__init__, _make
    monkeypatch.setattr(Quaternion, "__init__", lambda q, *args: made.append(1) or init(q, *args))
    for module in [m for name, m in sys.modules.items()
                   if name.startswith("srq") and getattr(m, "_make", None) is make]:
        monkeypatch.setattr(module, "_make", lambda *args: made.append(1) or make(*args))
    constants = 0
    for case in PARSE_CASES:
        made.clear()
        parse_polynomial(case["text"])
        assert made == [], case["text"]
        try:
            parse_quaternion(case["text"])
        except ParseError:
            assert made == [], case["text"]
        else:
            assert made == [1], case["text"]
            constants += 1
    assert constants == sum(parse_polynomial(case["text"]).degree < 1 for case in PARSE_CASES) > 0


# An expression tree is (text, level, value): the text in the grammar, with
# optional blanks between tokens, the level of its outermost operation (0 sum,
# 1 product, 2 signed factor or power, 3 primary) and the value built directly
# with RegularPolynomial arithmetic, unary minus as the product with -1.0.  The
# value is ParseError where that arithmetic overflows or where a power or a
# product of two polynomials exceeds degree 1000; an operation takes the error
# of its first failing operand, as the parser reads left to right.
blank = st.sampled_from(["", "", " "])
literal = st.one_of(
    st.sampled_from(["0", "1", "2", "0.5", "1e-3", "i", "j", "k", "0i", "2i", "0.5j", "1.5k",
                     "1e300", "5e-324"]),
    st.builds(lambda v, unit: repr(v) + unit,
              st.floats(min_value=0.0, max_value=1e6), st.sampled_from(["", "i", "j", "k"])))


def _constant(literal):
    """The constant polynomial of an unsigned literal, built from ``float`` and
    its unit rather than by any parser."""
    unit = literal[-1] if literal[-1] in "ijk" else ""
    num = literal[:len(literal) - len(unit)]
    parts = [0.0] * 4
    parts["_ijk".index(unit or "_")] = float(num) if num else 1.0
    return RegularPolynomial([Quaternion(*parts)])


leaf = st.one_of(
    st.just(("q", 3, Q)),
    literal.map(lambda s: (s, 3, _constant(s))))


def _text(node, level):
    text, own, _ = node
    return text if own >= level else "(" + text + ")"


def _apply(op, *values):
    for value in values:
        if isinstance(value, type):
            return value
    try:
        return op(*values)
    except ValueError:  # a non-finite coefficient
        return ParseError


def _star(f, g):
    if min(f.degree, g.degree) >= 1 and f.degree + g.degree > 1000:
        return ParseError
    return f * g


def _pow(f, n):
    return ParseError if n * max(f.degree, 1) > 1000 else f ** n


def _extend(children):
    def binary(a, b, op, sp):
        if op == "*":
            return (_text(a, 1) + sp + "*" + sp + _text(b, 2), 1,
                    _apply(_star, a[2], b[2]))
        value = _apply((lambda f, g: f + g) if op == "+" else (lambda f, g: f - g), a[2], b[2])
        return (_text(a, 0) + sp + op + sp + _text(b, 1), 0, value)

    def signed(a, signs, sp):
        # a signed operand is parenthesized: adjacent signs would fold into one factor
        inner = _text(a, 3) if a[1] == 2 and a[0][0] in "+-" else _text(a, 2)
        value = _apply(lambda f: f * -1.0, a[2]) if signs.count("-") % 2 else a[2]
        return (sp.join(signs) + sp + inner, 2, value)

    def power(a, n, sp):
        return (_text(a, 3) + sp + "^" + sp + n, 2, _apply(_pow, a[2], int(float(n))))

    return st.one_of(
        st.builds(binary, children, children, st.sampled_from(["+", "-", "*"]), blank),
        st.builds(signed, children, st.sampled_from(["-", "+", "--", "-+-", "+-"]), blank),
        st.builds(power, children, st.sampled_from(["0", "1", "2", "3", "2.0", "1e0"]), blank))


@settings(max_examples=300)
@given(st.recursive(leaf, _extend, max_leaves=10), blank)
# overflows, which the derandomized draw may miss: a power, a product of
# constants before q and a sum of constants
@example(("1e300^2", 2, _apply(_pow, _constant("1e300"), 2)), "")
@example(("1e300*1e300*q", 1,
          _apply(_star, _apply(_star, _constant("1e300"), _constant("1e300")), Q)), "")
@example(("1e308+1e308", 0,
          _apply(lambda f, g: f + g, _constant("1e308"), _constant("1e308"))), "")
def test_parse_matches_direct_arithmetic_bit_for_bit(tree, sp):
    text, _, value = tree
    if isinstance(value, type):
        with pytest.raises(value):
            parse_polynomial(sp + text)
    else:
        assert json.dumps(parse_polynomial(sp + text).to_json()) == json.dumps(value.to_json())


def _outcome(text):
    try:
        return [repr(v) for v in parse_quaternion(text).to_json()]
    except ParseError:
        return "ParseError"


LITERAL_CASES = json.loads((Path(__file__).parent / "data" / "literal_cases.json").read_text())
# the literals that the term grammar of Quaternion.parse refused and the
# polynomial grammar reads: signs repeated or operators between constants
CHANGED_LITERALS = ["- - 1", "1 + + 2", "2i*3", "(1+i)", "--1"]


def test_recorded_literals_keep_their_outcomes():
    # README's, test_quaternion's and test_cli's literals, blanks around signs,
    # signed zeros, the literals the two grammars disagreed on and seeded random
    # term-grammar literals (overflows among them), each with the component
    # reprs or the error that Quaternion.parse gave ("old"); a changed entry
    # also records what it reads as now ("new")
    assert [c["text"] for c in LITERAL_CASES if "new" in c] == CHANGED_LITERALS
    want = [c.get("new", c["old"]) for c in LITERAL_CASES]
    got = [_outcome(c["text"]) for c in LITERAL_CASES]
    assert [(c["text"], w, g) for c, w, g in zip(LITERAL_CASES, want, got) if w != g] == []

