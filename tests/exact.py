"""An exact oracle for quotient moduli, over ``fractions.Fraction``.

It shares no kernel with ``srq``: a quaternion here is a 4-tuple of
Fractions, every float converts to one exactly, and the Hamilton product, the
Horner evaluation and the squared moduli are computed without rounding.  The
only rounding left is the one that turns an exact value into a float error
estimate at the very end.
"""

import math
from fractions import Fraction


def exact(components) -> tuple:
    """A float 4-tuple (or any four numbers) as an exact quaternion."""
    return tuple(Fraction(v) for v in components)


def mul(a, b) -> tuple:
    """The Hamilton product a b."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def horner(coeffs, q) -> tuple:
    """sum_n q^n a_n for exact coefficients a_n (on the right) and an exact q."""
    acc = (Fraction(0),) * 4
    for a in reversed(coeffs):
        acc = tuple(u + v for u, v in zip(mul(q, acc), a))
    return acc


def norm_sq(a) -> Fraction:
    return a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3]


def modulus_sq(coeffs, q) -> Fraction:
    """|F(q)|^2, exactly, for F's float coefficient 4-tuples and a float 4-tuple q."""
    return norm_sq(horner([exact(c) for c in coeffs], exact(q)))


def quotient_modulus_sq(sym, conum, q) -> Fraction:
    """|S(q)^{-1} P(q)|^2 = |P(q)|^2 / |S(q)|^2, exactly, for float coefficient
    4-tuples ``sym`` (S) and ``conum`` (P) and a float 4-tuple ``q``."""
    return modulus_sq(conum, q) / modulus_sq(sym, q)


def relative_error(computed: float, exact_sq: Fraction) -> float:
    """|m - r| / r for a float m and the exact r = sqrt(exact_sq) > 0, from the
    exact |m^2 - r^2| = |m - r| (m + r)."""
    r = math.sqrt(exact_sq)
    return abs(float(Fraction(computed) ** 2 - exact_sq)) / (r * (computed + r))
