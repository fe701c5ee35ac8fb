"""Regular polynomials under the star product.

A regular polynomial is a finite series sum_n q^n a_n with quaternionic
coefficients on the *right*.  The star product convolves coefficients, which
restricts the noncommutative product of regular functions to polynomials.
Together with regular conjugation, symmetrization, remainders, and the
spherical expansion this is the algebraic core of the package.
"""

from __future__ import annotations

import math
from itertools import starmap, zip_longest

from .errors import DegenerateCenter, RealPoint
from .quaternion import (EPS, ONE, ZERO, Quaternion, _finite, _fold_sum, _Frozen, _hamilton,
                         _make, _norm, _setters, _zero_bound, as_quaternion)

_ZERO4 = (0.0, 0.0, 0.0, 0.0)


class RegularPolynomial(_Frozen):
    """Finite sequence of right coefficients (a_0, ..., a_N) for sum q^n a_n.

    Trailing zero coefficients are stripped so the degree is normalized; the
    zero polynomial has no coefficients and degree -1.  ``_c`` holds them as
    float 4-tuples (w, x, y, z), the form every kernel runs on; ``coeffs``
    builds them as quaternions on each read.
    """

    __slots__ = ("_c",)

    def __init__(self, coeffs=()):
        _from_parts([(c.w, c.x, c.y, c.z) for c in map(as_quaternion, coeffs)], self)

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, c) -> "RegularPolynomial":
        return cls([as_quaternion(c)])

    @classmethod
    def identity(cls) -> "RegularPolynomial":
        """The polynomial q."""
        return cls([ZERO, ONE])

    @classmethod
    def from_json(cls, obj) -> "RegularPolynomial":
        if not isinstance(obj, dict) or "coeffs" not in obj:
            raise ValueError(f'polynomial JSON must look like {{"coeffs": [[w,x,y,z], ...]}}, got {obj!r}')
        return cls([Quaternion.from_json(c) for c in obj["coeffs"]])

    def to_json(self) -> dict:
        return {"coeffs": [list(c) for c in self._c]}

    # -- basic structure -------------------------------------------------------

    @property
    def coeffs(self) -> tuple:
        """The coefficients as quaternions, built on each read: a loop reads them
        once, or one at a time through ``coefficient(n)``."""
        return tuple(starmap(_make, self._c))

    @property
    def degree(self) -> int:
        return len(self._c) - 1

    @property
    def is_zero(self) -> bool:
        return not self._c

    def coefficient(self, n: int) -> Quaternion:
        return _make(*self._c[n]) if 0 <= n < len(self._c) else ZERO

    def coefficient_norm_sum(self) -> float:
        """sum |a_n|; bounds |f| on the closed unit ball."""
        return _fold_sum(starmap(_norm, self._c))

    def is_real(self, tol: float = 0.0) -> bool:
        return all(_norm(0.0, x, y, z) <= tol for _, x, y, z in self._c)

    # -- evaluation -------------------------------------------------------------

    def evaluate(self, q) -> Quaternion:
        """Horner evaluation a_0 + q(a_1 + q(a_2 + ...)), q multiplying from the left.

        The loop is ``_horner_floats``; only its result is built as a
        quaternion, which checks that it is finite (a NaN/Inf, once produced,
        reaches every later component).
        """
        q = as_quaternion(q)
        return _make(*_horner_floats(self._c, [(q.w, q.x, q.y, q.z)])[0])

    __call__ = evaluate

    # -- vector-space operations --------------------------------------------------

    def __add__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return _from_parts([(w1 + w2, x1 + x2, y1 + y2, z1 + z2) for (w1, x1, y1, z1), (w2, x2, y2, z2)
                            in zip_longest(self._c, other._c, fillvalue=_ZERO4)])

    __radd__ = __add__

    def __sub__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return _from_parts([(w1 - w2, x1 - x2, y1 - y2, z1 - z2) for (w1, x1, y1, z1), (w2, x2, y2, z2)
                            in zip_longest(self._c, other._c, fillvalue=_ZERO4)])

    def __rsub__(self, other):
        other = _lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        # negation keeps every coefficient finite and the last one nonzero
        return _polynomial_of([(-w, -x, -y, -z) for w, x, y, z in self._c])

    # -- star product ----------------------------------------------------------------

    def __mul__(self, other):
        """Star product: coefficient convolution c_n = sum_k a_k b_{n-k}.

        The kernel follows the operands.  An operand whose coefficients are
        all real takes ``_real_star``, in either order; anything else runs the
        Hamilton convolution on four float lists, in the quaternion-level
        operation order, so every coefficient is bit-identical to it.
        """
        if isinstance(other, (int, float, Quaternion)):
            c = as_quaternion(other)
            c = (c.w, c.x, c.y, c.z)
            return _from_parts([_hamilton(a, c) for a in self._c])
        if isinstance(other, RegularPolynomial):
            if self.is_zero or other.is_zero:
                return RegularPolynomial()
            a, b = self._c, other._c
            ra = _exact_real_parts(a)
            if ra is not None:
                return _real_star(ra, b)
            rb = _exact_real_parts(b)
            if rb is not None:
                return _real_star(rb, a, real_first=False)
            size = len(a) + len(b) - 1
            parts = ow, ox, oy, oz = [0.0] * size, [0.0] * size, [0.0] * size, [0.0] * size
            for k, (w1, x1, y1, z1) in enumerate(a):
                for n, (w2, x2, y2, z2) in enumerate(b, k):
                    ow[n] = ow[n] + (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2)
                    ox[n] = ox[n] + (w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2)
                    oy[n] = oy[n] + (w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2)
                    oz[n] = oz[n] + (w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)
            return _from_parts(list(zip(*parts)))
        return NotImplemented

    def __rmul__(self, other):
        # constant * f multiplies every coefficient on the left
        if isinstance(other, (int, float, Quaternion)):
            c = as_quaternion(other)
            c = (c.w, c.x, c.y, c.z)
            return _from_parts([_hamilton(c, a) for a in self._c])
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = RegularPolynomial([ONE])
        for _ in range(n):
            out = out * self
        return out

    # -- conjugation ------------------------------------------------------------------

    def conjugate(self) -> "RegularPolynomial":
        """Regular conjugate f^c: the same powers with conjugated coefficients."""
        return _polynomial_of([(w, -x, -y, -z) for w, x, y, z in self._c])

    def symmetrization(self) -> "RegularPolynomial":
        """f^s = f * f^c, which has real coefficients (``_symmetrized``)."""
        return _real_polynomial(_symmetrized(self._c))

    # -- calculus -----------------------------------------------------------------------

    def remainder(self, q0) -> "RegularPolynomial":
        """The unique R with f(q) - f(q0) = (q - q0) * R(q).

        Computed top-down from the leading coefficient, b_{n-1} = c_n + q0 b_n,
        with no division; the degree drops by one.
        """
        q0 = as_quaternion(q0)
        q0 = (q0.w, q0.x, q0.y, q0.z)
        c = self._c
        b = list(c[1:])  # b_{N-1} = c_N; the loop overwrites the rest
        for n in range(len(b) - 1, 0, -1):
            w, x, y, z = _hamilton(q0, b[n])
            w0, x0, y0, z0 = c[n]
            b[n - 1] = (w0 + w, x0 + x, y0 + y, z0 + z)
        return _from_parts(b)

    def cullen_derivative(self) -> "RegularPolynomial":
        """Termwise derivative sum q^{n-1} n a_n (an int n multiplies as float(n))."""
        return _from_parts([(w * n, x * n, y * n, z * n)
                            for n, (w, x, y, z) in enumerate(self._c[1:], 1)])

    def spherical_expansion(self, q0, n_max: int) -> "SphericalExpansion":
        """Expansion around the sphere through q0 by iterated remainders.

        Returns coefficients A_0 .. A_{2*n_max+1}, where A_{2n} is the n-fold
        double remainder evaluated at q0 and A_{2n+1} the extra remainder
        evaluated at conj(q0).  A real center carries no sphere: only
        ``n_max == 0`` is allowed there (giving the single coefficient A_0);
        odd coefficients are refused with :class:`DegenerateCenter` rather
        than silently returning a derivative limit.
        """
        q0 = as_quaternion(q0)
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        if q0.is_real():
            if n_max > 0:
                raise DegenerateCenter(
                    f"center {q0} is real: the sphere through it degenerates")
            return SphericalExpansion(q0, [self.evaluate(q0)])
        qc = q0.conjugate()
        coeffs = []
        g = self
        for _ in range(n_max + 1):
            coeffs.append(g.evaluate(q0))
            h = g.remainder(q0)
            coeffs.append(h.evaluate(qc))
            g = h.remainder(qc)
        return SphericalExpansion(q0, coeffs)

    # -- misc -----------------------------------------------------------------------------

    def isclose(self, other: "RegularPolynomial", rel_tol: float = EPS,
                abs_tol: float = 0.0) -> bool:
        scale = max(self.coefficient_norm_sum(), other.coefficient_norm_sum())
        bound = max(rel_tol * scale, abs_tol)
        return all((self.coefficient(k) - other.coefficient(k)).norm() <= bound
                   for k in range(max(self.degree, other.degree) + 1))

    def __repr__(self):
        return f"RegularPolynomial({[str(c) for c in self.coeffs]})"


def _from_parts(parts: list, poly=None) -> RegularPolynomial:
    """The polynomial with the coefficients ``parts``, float 4-tuples, trailing
    zeros (either sign) stripped, filled into ``poly`` if given.  The first
    coefficient that holds a NaN or an infinity raises ``_make``'s ``ValueError``."""
    while parts and parts[-1] == _ZERO4:
        parts.pop()
    for w, x, y, z in parts:
        if not math.isfinite(0.0 * w + 0.0 * x + 0.0 * y + 0.0 * z):  # _make's test
            _make(w, x, y, z)
    if poly is None:
        poly = _new(RegularPolynomial)
    _set_c(poly, tuple(parts))
    return poly


def _polynomial_of(parts: list) -> RegularPolynomial:
    """The polynomial with the coefficients ``parts``, float 4-tuples with a nonzero
    last one, taken without ``_from_parts``' scan: for coefficients known to be
    finite, or that a later scan tests."""
    poly = _new(RegularPolynomial)
    _set_c(poly, tuple(parts))
    return poly


_new = object.__new__
_set_c = RegularPolynomial.__dict__["_c"].__set__


def _horner_floats(coeffs, points) -> list:
    """The components of sum_n q^n coeffs[n] at each q of ``points``, for sequences
    ``coeffs`` and ``points`` of float 4-tuples (w, x, y, z), as a list of them.

    Each Horner step ``acc = q * acc + a_n`` runs on unpacked floats in the
    exact operation order of the Hamilton product and sum, so every result is
    bit-identical to the quaternion-level loop.  The step keeps the
    accumulator in four locals, with no tuple built and unpacked: the new w,
    x and y go to ``nw``, ``nx`` and ``ny`` first, since z's formula reads the
    old ones.  An empty list gives 0 at every point.
    """
    if not coeffs:
        return [_ZERO4] * len(points)
    tw, tx, ty, tz = coeffs[-1]
    rest = coeffs[-2::-1]
    out = []
    for qw, qx, qy, qz in points:
        w, x, y, z = tw, tx, ty, tz
        for cw, cx, cy, cz in rest:
            nw = qw * w - qx * x - qy * y - qz * z + cw
            nx = qw * x + qx * w + qy * z - qz * y + cx
            ny = qw * y - qx * z + qy * w + qz * x + cy
            z = qw * z + qx * y - qy * x + qz * w + cz
            w = nw
            x = nx
            y = ny
        out.append((w, x, y, z))
    return out


def _exact_real_parts(coeffs):
    """The w parts of the 4-tuples ``coeffs`` if every x, y and z is exactly 0.0,
    else None.

    This picks a star-product kernel, so it is exact on purpose: a
    coefficient that is real only within a tolerance (``is_real(tol)``)
    takes the Hamilton kernel, whose zero terms would not be zero for it.
    """
    if all(x == y == z == 0.0 for _, x, y, z in coeffs):
        return [c[0] for c in coeffs]
    return None


def _convolve(a, b):
    """c_n = sum_k a_k b_{n-k} on float lists, summed in increasing k from +0.0,
    the order of the quaternion convolution."""
    out = [0.0] * (len(a) + len(b) - 1)
    for k, s in enumerate(a):
        for n, t in enumerate(b, k):
            out[n] = out[n] + s * t
    return out


def _real_star(real, coeffs, real_first: bool = True) -> RegularPolynomial:
    """The star product ``real * coeffs`` (``coeffs * real`` if not ``real_first``)
    of real coefficients, floats, and quaternion ones, float 4-tuples.

    Real coefficients are central, so each component is a float convolution,
    summed in the left operand's order (``real`` taken last to first when it
    is on the right).  The Hamilton terms dropped are exact zeros and every
    accumulator starts at +0.0, so it is bit-identical to the Hamilton
    convolution, and the imaginary parts of a real-by-real product are +0.0.
    A unit ``real`` leaves one term, ``0.0 + 1.0 * c``, which is ``0.0 + c``.
    """
    if len(real) == 1 and real[0] == 1.0:
        return _from_parts([(0.0 + w, 0.0 + x, 0.0 + y, 0.0 + z) for w, x, y, z in coeffs])
    size = len(real) + len(coeffs) - 1
    out = ow, ox, oy, oz = [0.0] * size, [0.0] * size, [0.0] * size, [0.0] * size
    for k in range(len(real)) if real_first else range(len(real) - 1, -1, -1):
        s = real[k]
        for n, (w, x, y, z) in enumerate(coeffs, k):
            ow[n] = ow[n] + s * w
            ox[n] = ox[n] + s * x
            oy[n] = oy[n] + s * y
            oz[n] = oz[n] + s * z
    return _from_parts(list(zip(*out)))


def _symmetrized(coeffs) -> tuple:
    """The real coefficients (``_reals``) of f^s = f * f^c for f's ``coeffs``, float 4-tuples.

    Only the real part of the convolution is accumulated: the Hamilton real
    part w1*w2 - x1*(-x2) - y1*(-y2) - z1*(-z2) against the conjugate is
    exactly w1*w2 + x1*x2 + y1*y2 + z1*z2, so each value is bit-identical to
    the real part of ``f * f.conjugate()``.  Its imaginary parts, zero up to
    rounding, are never formed.
    """
    out = [0.0] * (2 * len(coeffs) - 1)  # empty for the zero polynomial
    for k, (w1, x1, y1, z1) in enumerate(coeffs):
        for n, (w2, x2, y2, z2) in enumerate(coeffs, k):
            out[n] = out[n] + (w1 * w2 + x1 * x2 + y1 * y2 + z1 * z2)
    return _reals(out)


def _reals(values: list) -> tuple:
    """Real coefficients as a tuple, trailing zeros stripped as ``_from_parts``
    strips them; a NaN or an infinity raises ``ValueError`` as ``_make`` does."""
    while values and values[-1] == 0.0:
        values.pop()
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite real coefficient in {values}")
    return tuple(values)


def _real_polynomial(reals) -> RegularPolynomial:
    """The polynomial with the real coefficients ``reals``, each (w, 0.0, 0.0, 0.0)."""
    return _from_parts([(w, 0.0, 0.0, 0.0) for w in reals])


def _lift(value):
    if isinstance(value, RegularPolynomial):
        return value
    if isinstance(value, (int, float, Quaternion)):
        return RegularPolynomial([as_quaternion(value)])
    return NotImplemented


class SphericalExpansion(_Frozen):
    """Coefficients A_n of f(q) = sum_n [(q-x0)^2 + y0^2]^n [A_2n + (q-q0) A_2n+1].

    The bracket [(q-x0)^2 + y0^2] vanishes exactly on the sphere x0 + y0*S
    through the center, so partial sums converge inside the corresponding
    symmetric neighborhood; for a polynomial the sum is exact once enough
    coefficients are kept.
    """

    __slots__ = ("center", "coefficients", "x0", "y0")

    def __init__(self, center, coefficients):
        center = as_quaternion(center)
        _set_center(self, center)
        _set_coefficients(self, tuple(map(as_quaternion, coefficients)))
        _set_x0(self, center.w)  # the center's slice coordinates
        _set_y0(self, center.imag_norm())

    def evaluate(self, q) -> Quaternion:
        """sum_n S^n [A_2n + (q-q0) A_2n+1], S = (q-x0)^2 + y0^2, by Horner's rule in S,
        on float 4-tuples with the bits and finiteness tests of the quaternion expression."""
        q = as_quaternion(q)
        c = self.center
        offset = _finite((q.w - c.w, q.x - c.x, q.y - c.y, q.z - c.z))
        coeffs = [(a.w, a.x, a.y, a.z) for a in self.coefficients]
        brackets = []
        for (aw, ax, ay, az), b in zip(coeffs[0::2], coeffs[1::2]):
            w, x, y, z = _finite(_hamilton(offset, b))
            brackets.append(_finite((aw + w, ax + x, ay + y, az + z)))
        if len(coeffs) % 2:
            brackets.append(coeffs[-1])
        shifted = _finite((q.w - self.x0, q.x, q.y, q.z))
        w, x, y, z = _finite(_hamilton(shifted, shifted))
        s = _finite((w + self.y0 * self.y0, x, y, z))
        return _make(*_horner_floats(brackets, [s])[0])

    __call__ = evaluate

    def to_json(self) -> dict:
        return {"center": self.center.to_json(),
                "coefficients": [c.to_json() for c in self.coefficients]}

    def __repr__(self):
        return (f"SphericalExpansion(center={self.center!s}, "
                f"coefficients={[str(c) for c in self.coefficients]})")


_set_center, _set_coefficients, _set_x0, _set_y0 = _setters(SphericalExpansion)


def evaluate_any(f, q) -> Quaternion:
    """Evaluate a polynomial, quotient, expansion, or plain callable at q."""
    if hasattr(f, "evaluate"):
        return f.evaluate(q)
    return as_quaternion(f(as_quaternion(q)))


def spherical_derivative_at(f, q) -> Quaternion:
    """(2 Im q)^{-1} (f(q) - f(conj q)); undefined at real points."""
    q = as_quaternion(q)
    if q.is_real(_zero_bound(q.norm())):
        raise RealPoint(f"spherical derivative is undefined at the real point {q}")
    return (2.0 * q.imag()).inverse() * (evaluate_any(f, q) - evaluate_any(f, q.conjugate()))


def directional_derivative(f: RegularPolynomial, q0, v) -> Quaternion:
    """Derivative of f at q0 along v, as v*A_1 + (q0 v - v conj(q0))*A_2.

    A_1 and A_2 come from the spherical expansion at q0, so a real center
    raises :class:`DegenerateCenter`.
    """
    q0 = as_quaternion(q0)
    v = as_quaternion(v)
    if v == ZERO:
        return ZERO
    exp = f.spherical_expansion(q0, 1)
    a1, a2 = exp.coefficients[1], exp.coefficients[2]
    return v * a1 + (q0 * v - v * q0.conjugate()) * a2
