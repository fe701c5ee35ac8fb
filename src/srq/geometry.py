"""Hyperbolic geometry of the quaternionic unit ball.

The distance here is the one preserved by the classical Moebius self-maps of
the ball.  Its regular analogs factor through a pointwise Moebius map and a
twist of the ball; the twist moves points, which is exactly why the regular
maps fail to be isometries, and their two directional multipliers at the
center have different moduli, which is why they fail to be conformal.
"""

from __future__ import annotations

import math

from .errors import CoincidentPoints, DegenerateCenter, OutsideBall, RealPoint
from .quaternion import (EPS, ONE, Quaternion, _Frozen, _make, _norm, _slice_point, _zero_bound,
                         as_quaternion)
from .rational import RegularQuotient, star_transform, star_transform_inverse
from .series import RegularPolynomial, SphericalExpansion


def _in_ball(q, name: str) -> Quaternion:
    """Coerce an evaluation point; beyond |q| = 1 - EPS it is rejected, not extrapolated."""
    q = as_quaternion(q)
    if q.norm() > 1.0 - EPS:
        raise OutsideBall(f"{name} = {q} is not inside the open unit ball")
    return q


def _require_unit(u: Quaternion, name: str) -> None:
    if abs(u.norm() - 1.0) > 1e-9:
        raise ValueError(f"{name} must be unit, got modulus {u.norm():g}")


def _cube_point(rng) -> Quaternion:
    """Uniform point of the cube [-1, 1]^4, drawn in w, x, y, z order from
    ``rng``; each component is exactly ``rng.uniform(-1, 1)``."""
    draw = rng.random
    return _make(-1.0 + 2.0 * draw(), -1.0 + 2.0 * draw(),
                 -1.0 + 2.0 * draw(), -1.0 + 2.0 * draw())


def _ball_floats(rng, radius: float, count: int) -> list:
    """``count`` uniform points of the ball of the given radius as float 4-tuples,
    by rejection from the cube: the draws of ``count`` calls of ``sample_ball``,
    each cube point drawn as ``_cube_point`` draws it."""
    draw = rng.random
    out = []
    while len(out) < count:
        w, x, y, z = (-1.0 + 2.0 * draw(), -1.0 + 2.0 * draw(),
                      -1.0 + 2.0 * draw(), -1.0 + 2.0 * draw())
        if _norm(w, x, y, z) < radius:
            out.append((w, x, y, z))
    return out


def sample_ball(rng, radius: float = 0.99) -> Quaternion:
    """Uniform point of the ball of the given radius, by rejection from the cube;
    only the accepted point is built as a quaternion."""
    return _make(*_ball_floats(rng, radius, 1)[0])


_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's constant: splits a double into two 26-bit halves


def _one_minus_norm_sq(q: Quaternion) -> float:
    """1 - |q|^2 rounded once, where ``1.0 - q.norm_sq()`` loses the digits of a
    rounded |q|^2 near the boundary: each square is split error-free into its
    rounded value and its rounding error (Dekker 1971), and ``math.fsum`` adds
    the nine terms exactly."""
    terms = [1.0]
    for v in (q.w, q.x, q.y, q.z):
        c = _SPLIT * v
        hi = c - (c - v)
        lo = v - hi
        sq = v * v
        terms += (-sq, -(((hi * hi - sq) + 2.0 * hi * lo) + lo * lo))
    return math.fsum(terms)


def _one_minus_t_sq(q1: Quaternion, q2: Quaternion) -> float:
    """1 - t^2 for the pseudo-distance t, from D - |q1 - q2|^2 = (1 - |q1|^2)(1 - |q2|^2)
    with D = |1 - q1 conj(q2)|^2, without subtracting from 1 a t that rounds to 1."""
    return _one_minus_norm_sq(q1) * _one_minus_norm_sq(q2) / (ONE - q1 * q2.conjugate()).norm_sq()


def pseudo_distance_sq(q1, q2) -> float:
    """|q1 - q2|^2 / |1 - q1 conj(q2)|^2, the squared ratio inside the distance."""
    q1 = _in_ball(q1, "q1")
    q2 = _in_ball(q2, "q2")
    return (q1 - q2).norm_sq() / (ONE - q1 * q2.conjugate()).norm_sq()


def poincare_distance(q1, q2) -> float:
    """atanh(t) for the pseudo-distance t; symmetric, zero iff q1 == q2.

    With s = 1 - t^2 from ``_one_minus_t_sq`` and 1 - t = s / (1 + t),
    atanh(t) = (1/2) log1p(2t(1 + t) / s), finite for every pair of points of
    the open ball and as accurate at its edge as inside it.
    """
    q1 = _in_ball(q1, "q1")
    q2 = _in_ball(q2, "q2")
    t = math.sqrt(pseudo_distance_sq(q1, q2))
    return 0.5 * math.log1p(2.0 * t * (1.0 + t) / _one_minus_t_sq(q1, q2))


def classical_moebius(q0, u, v, q) -> Quaternion:
    """v^{-1} (1 - q conj(q0))^{-1} (q - q0) u, an isometry of the ball."""
    q0 = _in_ball(q0, "q0")
    q = _in_ball(q, "q")
    u = as_quaternion(u)
    v = as_quaternion(v)
    _require_unit(u, "u")
    _require_unit(v, "v")
    return v.inverse() * ((ONE - q * q0.conjugate()).inverse() * ((q - q0) * u))


def _moebius_to_zero(q0: Quaternion, q: Quaternion) -> Quaternion:
    return (ONE - q * q0.conjugate()).inverse() * (q - q0)


def _moebius_from_zero(q0: Quaternion, p: Quaternion) -> Quaternion:
    return (p + q0) * (ONE + q0.conjugate() * p).inverse()


def _moebius_den(q0: Quaternion) -> RegularPolynomial:
    """1 - q conj(q0), the denominator of the regular Moebius map centered at q0."""
    return RegularPolynomial([ONE, -q0.conjugate()])


def regular_moebius_map(q0, u=ONE, side: str = "left") -> RegularQuotient:
    """The regular quotient (1 - q conj(q0))^{-*} * (q - q0) u.

    The same polynomial pair also represents the right-quotient form
    (q - q0) u' * (1 - conj(q0) q)^{-*}; both evaluate identically.
    """
    q0 = _in_ball(q0, "q0")
    u = as_quaternion(u)
    _require_unit(u, "u")
    num = RegularPolynomial([-(q0 * u), u])
    return RegularQuotient(_moebius_den(q0), num, side)


def regular_moebius(q0, u, q) -> Quaternion:
    q = _in_ball(q, "q")
    return regular_moebius_map(q0, u).evaluate(q)


def twist_map(q0, q) -> Quaternion:
    """T(q) = (1 - q q0)^{-1} q (1 - q q0), the star transform of the regular map's
    denominator; the regular map factors through it into the classical one."""
    return star_transform(_moebius_den(_in_ball(q0, "q0")), _in_ball(q, "q"))


def twist_map_inverse(q0, q) -> Quaternion:
    return star_transform_inverse(_moebius_den(_in_ball(q0, "q0")), _in_ball(q, "q"))


def moebius_expansion_coefficients(q0, n_max: int) -> SphericalExpansion:
    """Closed-form spherical coefficients of the regular self-map centered at q0.

    For n >= 1 (everything commutes inside the slice of q0, so the division
    is unambiguous):

        A_{2n-1} = conj(q0)^{2n-2} / ((1-|q0|^2)^{n-1} (1-conj(q0)^2)^n)
        A_{2n}   = conj(q0)^{2n-1} / ((1-|q0|^2)^n     (1-conj(q0)^2)^n)

    and A_0 = 0.  Returned with the same coefficient layout as the
    remainder-based expansion: A_0 .. A_{2*n_max+1}.
    """
    q0 = _in_ball(q0, "q0")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    sc = q0.slice_decompose()
    if sc.y0 == 0.0 and n_max > 1:
        raise DegenerateCenter(f"center {q0} is real: the sphere through it degenerates")
    zbar = complex(sc.x0, -sc.y0)
    one_minus_sq = 1.0 - (sc.x0 * sc.x0 + sc.y0 * sc.y0)
    one_minus_zbar2 = 1.0 - zbar * zbar

    coeffs = [Quaternion()]
    for n in range(1, n_max + 2):
        odd = zbar ** (2 * n - 2) / (one_minus_sq ** (n - 1) * one_minus_zbar2 ** n)
        coeffs.append(_slice_point(odd.real, odd.imag, sc.I))
        if n <= n_max:
            even = zbar ** (2 * n - 1) / (one_minus_sq ** n * one_minus_zbar2 ** n)
            coeffs.append(_slice_point(even.real, even.imag, sc.I))
    return SphericalExpansion(q0, coeffs)


def conformality_defect(q0) -> tuple:
    """Moduli of the two directional multipliers of the regular self-map at q0.

    Returns (|slice multiplier|, |orthogonal multiplier|) =
    ((1-|q0|^2)^{-1}, |1-conj(q0)^2|^{-1}).  The first is strictly larger for
    every non-real center, so the map is not conformal there.
    """
    q0 = _in_ball(q0, "q0")
    if q0.is_real(_zero_bound(q0.norm())):
        raise RealPoint(f"conformality defect is undefined at the real point {q0}")
    qc = q0.conjugate()
    return (1.0 / (1.0 - q0.norm_sq()), 1.0 / (ONE - qc * qc).norm())


class GeodesicSegment(_Frozen):
    """The non-Euclidean segment between two points of the ball.

    Built by transporting the first endpoint to the origin with a classical
    isometry, walking the straight diameter to the image of the second, and
    transporting back; distance along the curve is additive.  The endpoints
    must be distinct points of the open ball.

    Near the boundary that image rounds onto the unit sphere, so each point is
    taken in the chart of its nearer endpoint: seen from q2, the point t of the
    diameter from q1 is the point tau = (1 - t) / ((1 - t) + t s) of the
    diameter from q2, with s = 1 - t^2 for the pseudo-distance t of the pair.
    """

    __slots__ = ("q1", "q2", "_image", "_back", "_s")

    def __init__(self, q1, q2):
        q1 = _in_ball(q1, "q1")
        q2 = _in_ball(q2, "q2")
        if (q1 - q2).norm() <= _zero_bound(max(q1.norm(), q2.norm())):
            raise CoincidentPoints(f"geodesic endpoints coincide at {q1}")
        super().__init__(q1, q2, _moebius_to_zero(q1, q2), _moebius_to_zero(q2, q1),
                         _one_minus_t_sq(q1, q2))

    def point(self, t: float) -> Quaternion:
        if not 0.0 <= t <= 1.0:
            raise ValueError("parameter must lie in [0, 1]")
        tau = (1.0 - t) / ((1.0 - t) + t * self._s)
        if tau < t:
            return _moebius_from_zero(self.q2, self._back * tau)
        return _moebius_from_zero(self.q1, self._image * t)

    __call__ = point

    def length(self) -> float:
        return poincare_distance(self.q1, self.q2)


geodesic = GeodesicSegment
