"""An exact oracle for quotient moduli, over ``fractions.Fraction``.

It shares no kernel with ``srq``: a quaternion here is a 4-tuple of
Fractions, every float converts to one exactly, and the Hamilton product, the
Horner evaluation and the squared moduli are computed without rounding.  The
only rounding left is the one that turns an exact value into a float error
estimate at the very end.
"""

import math
from fractions import Fraction
from itertools import zip_longest


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


# -- Yun's square-free split over the rationals --------------------------------------
#
# Real polynomials are coefficient lists, lowest degree first, of Fractions with
# no trailing zero.


def _strip(a) -> list:
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def derivative(a) -> list:
    return _strip(c * k for k, c in enumerate(a) if k)


def divmod_poly(a, b) -> tuple:
    """Quotient and remainder of ``a`` by ``b`` != 0, exactly."""
    r = list(a)
    q = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    for i in range(len(q) - 1, -1, -1):
        t = q[i] = r[i + len(b) - 1] / b[-1]
        for j, c in enumerate(b):
            r[i + j] -= t * c
    return _strip(q), _strip(r)


def monic(a) -> list:
    return [c / a[-1] for c in a]


def gcd_poly(a, b) -> list:
    """The monic greatest common divisor of ``a`` and ``b``, not both zero."""
    while b:
        a, b = b, divmod_poly(a, b)[1]
    return monic(a)


def exact_quotient(a, b) -> list:
    q, r = divmod_poly(a, b)
    assert not r, "the divisor must divide exactly"
    return q


def yun(p) -> list:
    """Yun's square-free split of ``p`` (degree >= 1): ``(factor, multiplicity)``
    pairs of monic factors of degree >= 1, whose product, each to its
    multiplicity, is ``p`` made monic."""
    p = monic(_strip(Fraction(c) for c in p))
    dp = derivative(p)
    g = gcd_poly(p, dp)
    b, c = exact_quotient(p, g), exact_quotient(dp, g)
    out = []
    m = 1
    while len(b) > 1:
        d = _strip(u - v for u, v in zip_longest(c, derivative(b), fillvalue=0))
        a = gcd_poly(b, d) if d else monic(b)
        if len(a) > 1:
            out.append((a, m))
        b = exact_quotient(b, a)
        c = exact_quotient(d, a) if d else []
        m += 1
    return out
