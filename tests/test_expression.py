"""The polynomial grammar of the CLI: parsing, printing and their round trip."""

import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from srq.errors import ParseError
from srq.expression import format_polynomial, parse_polynomial
from srq.quaternion import I, J, K, ONE, ZERO, Quaternion
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
])
def test_parse_errors(text, message):
    with pytest.raises(ParseError, match=re.escape(message)):
        parse_polynomial(text)


def test_format_examples():
    assert format_polynomial(RegularPolynomial()) == "0"
    assert format_polynomial((Q - I) * (Q - J)) == "q^2 + q*(-i-j) + k"
    # zero coefficients are skipped, unit ones print as the bare power
    assert format_polynomial(RegularPolynomial([ONE, ZERO, ONE])) == "q^2 + 1"
    assert format_polynomial(RegularPolynomial([ZERO, ONE])) == "q"
    assert format_polynomial(RegularPolynomial([ZERO, Quaternion(-2), K])) == "q^2*k + q*(-2)"
    assert format_polynomial(RegularPolynomial([ZERO, J * 0.5])) == "q*0.5j"
