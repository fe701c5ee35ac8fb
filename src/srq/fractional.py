"""2x2 quaternionic matrices and regular fractional transformations.

The matrix [[a, c], [b, d]] acts through the regular quotient
(qc+d)^{-*} * (qa+b); with this layout composition of the right action on
functions matches ordinary matrix multiplication.  The module also houses the
Dieudonne determinant, membership in the indefinite unitary group that fixes
diag(1, -1), the two group actions on quotients, the left/right factor swap,
and normal forms of the self-maps of the unit ball.
"""

from __future__ import annotations

import math
from itertools import repeat, starmap, zip_longest

from .errors import (DegenerateComposite, DegenerateSwap, NotHermitian,
                     NotSp11, PoleError, SingularMatrix)
from .geometry import _in_ball, _one_minus_norm_sq, _require_unit, sample_ball
from .quaternion import (ONE, ZERO, Quaternion, _finite, _Frozen, _hamilton, _inverse, _make,
                         _norm, _setters, _zero_bound, as_quaternion)
from .rational import RegularQuotient, as_quotient
from .series import _ZERO4, RegularPolynomial, _from_parts, _lift, _real_star

#: Entrywise tolerance of the matrix identities (membership, Hermitian shape),
#: relative to the entries' scale.
_MATRIX_TOL = 1e-9
#: How far from 1 ``normal_form`` lets |d| fall and the recovered phase's modulus stray.
_UNIT_TOL = 1e-6


class QuaternionMatrix2(_Frozen):
    """Quaternionic 2x2 matrix with rows (a, c) and (b, d); its kernels unpack each
    entry once (``_floats``) and keep the bits of the quaternion formulas."""

    __slots__ = ("a", "c", "b", "d")

    def __init__(self, a, c, b, d):
        _set_a(self, as_quaternion(a))
        _set_c(self, as_quaternion(c))
        _set_b(self, as_quaternion(b))
        _set_d(self, as_quaternion(d))

    @classmethod
    def identity(cls) -> "QuaternionMatrix2":
        return cls(ONE, ZERO, ZERO, ONE)

    @classmethod
    def from_json(cls, obj) -> "QuaternionMatrix2":
        return cls(Quaternion.from_json(obj["a"]), Quaternion.from_json(obj["c"]),
                   Quaternion.from_json(obj["b"]), Quaternion.from_json(obj["d"]))

    def to_json(self) -> dict:
        return {"a": self.a.to_json(), "c": self.c.to_json(),
                "b": self.b.to_json(), "d": self.d.to_json()}

    def __mul__(self, other):
        if not isinstance(other, QuaternionMatrix2):
            return NotImplemented
        (a, c, b, d), (a2, c2, b2, d2) = _floats(self), _floats(other)
        return QuaternionMatrix2(_dot(a, a2, c, b2), _dot(a, c2, c, d2),
                                 _dot(b, a2, d, b2), _dot(b, c2, d, d2))

    def scale(self, t: float) -> "QuaternionMatrix2":
        return QuaternionMatrix2(self.a * t, self.c * t, self.b * t, self.d * t)

    def conj(self) -> "QuaternionMatrix2":
        """Entrywise quaternion conjugation."""
        return QuaternionMatrix2(self.a.conjugate(), self.c.conjugate(),
                                 self.b.conjugate(), self.d.conjugate())

    def transpose(self) -> "QuaternionMatrix2":
        return QuaternionMatrix2(self.a, self.b, self.c, self.d)

    def entry_scale(self) -> float:
        return max(starmap(_norm, _floats(self)))

    def dieudonne_det(self) -> float:
        """The multiplicative nonnegative-real determinant.

        |a| |d - b a^{-1} c| when a is not zero beside the entries, else
        |b||c|; agrees with the square root of the determinant of the 4x4
        complex adjoint matrix.
        """
        return _det_and_scale(self)[0]

    def is_sp11(self, tol: float = _MATRIX_TOL) -> bool:
        """Whether conj-transpose * diag(1,-1) * self equals diag(1,-1) entrywise.

        Its entry (r, s) is conj(x_r) x_s - conj(y_r) y_s for the rows x = (a, c)
        and y = (b, d), which grows like the square of the entries, so ``tol`` is
        relative to (1 + entry_scale())^2.
        """
        a, c, b, d = e = _floats(self)
        gap = max(_gram_gap(a, a, b, b, 1.0), _gram_gap(a, c, b, d, 0.0),
                  _gram_gap(c, a, d, b, 0.0), _gram_gap(c, c, d, d, -1.0))
        s = 1.0 + max(starmap(_norm, e))
        return gap <= tol * (s * s)

    def __repr__(self):
        return (f"QuaternionMatrix2(a={self.a!s}, c={self.c!s}, "
                f"b={self.b!s}, d={self.d!s})")


_set_a, _set_c, _set_b, _set_d = _setters(QuaternionMatrix2)


def _floats(m: QuaternionMatrix2) -> tuple:
    """The entries a, c, b, d of ``m`` as float 4-tuples."""
    a, c, b, d = m.a, m.c, m.b, m.d
    return (a.w, a.x, a.y, a.z), (c.w, c.x, c.y, c.z), (b.w, b.x, b.y, b.z), (d.w, d.x, d.y, d.z)


def _dot(p: tuple, q: tuple, r: tuple, s: tuple) -> Quaternion:
    """p*q + r*s of float 4-tuples, with the bits of that quaternion expression."""
    w1, x1, y1, z1 = _hamilton(p, q)
    w2, x2, y2, z2 = _hamilton(r, s)
    return _make(w1 + w2, x1 + x2, y1 + y2, z1 + z2)


def _gram_gap(x: tuple, y: tuple, z: tuple, w: tuple, target: float) -> float:
    """|conj(x) y - conj(z) w - target|.  Negation is exact and rounding symmetric, so
    only the sign of an exact zero differs from the product conj(A)^T (diag(1,-1) A);
    ``_finite`` tests it as ``_make`` tested that product."""
    p = _hamilton((x[0], -x[1], -x[2], -x[3]), y)
    q = _hamilton((z[0], -z[1], -z[2], -z[3]), w)
    return _norm(*_finite((p[0] - q[0] - target, p[1] - q[1], p[2] - q[2], p[3] - q[3])))


def _det_and_scale(A: QuaternionMatrix2) -> tuple:
    """The Dieudonne determinant and the entry scale of ``A``, in one pass."""
    a, c, b, d = _floats(A)
    na, nb, nc = _norm(*a), _norm(*b), _norm(*c)
    scale = max(na, nb, nc, _norm(*d))
    if na <= _zero_bound(scale):
        return nb * nc, scale
    w, x, y, z = _hamilton(_hamilton(b, _inverse(*a)), c)
    return na * _make(d[0] - w, d[1] - x, d[2] - y, d[3] - z).norm(), scale


class MoebiusNormalForm(_Frozen):
    """The (zero, phase) pair identifying a regular self-map of the unit ball."""

    __slots__ = ("q0", "u")

    def __init__(self, q0, u):
        _set_q0(self, q0)
        _set_u(self, u)


_set_q0, _set_u = _setters(MoebiusNormalForm)


def _require_invertible(A: QuaternionMatrix2):
    det, scale = _det_and_scale(A)
    if det <= _zero_bound(scale) * (1.0 + scale):
        raise SingularMatrix(f"matrix has vanishing Dieudonne determinant: {A!r}")


def regular_fractional(A: QuaternionMatrix2) -> RegularQuotient:
    """The regular fractional transformation (qc+d)^{-*} * (qa+b)."""
    _require_invertible(A)
    den = RegularPolynomial([A.d, A.c])
    num = RegularPolynomial([A.b, A.a])
    return RegularQuotient(den, num, "left")


def classical_fractional(A: QuaternionMatrix2, q) -> Quaternion:
    """Pointwise classical value (qc+d)^{-1} (qa+b)."""
    q = as_quaternion(q)
    den = q * A.c + A.d
    if den.norm() < _zero_bound(A.entry_scale()) * (1.0 + q.norm()):
        raise PoleError(f"classical denominator vanishes at {q}")
    return den.inverse() * (q * A.a + A.b)


def generator(kind: str, param=None) -> QuaternionMatrix2:
    """The four classical generators: translation, unit rotation, dilation, inversion."""
    if kind == "translation":
        return QuaternionMatrix2(ONE, ZERO, as_quaternion(param), ONE)
    if kind == "rotation":
        a = as_quaternion(param)
        _require_unit(a, "rotation factor")
        return QuaternionMatrix2(a, ZERO, ZERO, ONE)
    if kind == "dilation":
        r = float(param)
        if r <= 0.0:
            raise ValueError("dilation factor must be a positive real")
        return QuaternionMatrix2(Quaternion(r), ZERO, ZERO, ONE)
    if kind == "inversion":
        return QuaternionMatrix2(ZERO, ONE, ONE, ZERO)
    raise ValueError(f"unknown generator kind {kind!r}")


# -- the two actions ---------------------------------------------------------------


def _as_pair(f, side: str):
    """``(den, num)`` of f read as a pair of ``side``.  A polynomial or a scalar g is
    the quotient 1^{-*}*g, read without building it: its left pair is (1, g) and its
    right pair, its (sym, conum), is (1, 1*g), each with the bits of that read."""
    g = _lift(f)
    if g is NotImplemented:
        return as_quotient(f)._pair(side)
    return RegularPolynomial([ONE]), (g if side == "left" else _real_star((1.0,), g._c))


def _combination(P, p: tuple, R, r: tuple, left: bool = False) -> RegularPolynomial:
    """P*p + R*r for coefficient lists P, R and constants p, r, all float 4-tuples
    (p*P + r*R if ``left``), with the bits and the first error of that polynomial
    expression: each product is stripped of trailing zeros before the sum.  A
    non-finite product coefficient makes its sum's non-finite, so the products are
    tested only when the sum fails."""
    if left:
        terms = list(map(_hamilton, repeat(p), P)), list(map(_hamilton, repeat(r), R))
    else:
        terms = list(map(_hamilton, P, repeat(p))), list(map(_hamilton, R, repeat(r)))
    for parts in terms:
        while parts and parts[-1] == _ZERO4:
            parts.pop()
    try:
        return _from_parts([(w1 + w2, x1 + x2, y1 + y2, z1 + z2) for (w1, x1, y1, z1), (w2, x2, y2, z2)
                            in zip_longest(*terms, fillvalue=_ZERO4)])
    except ValueError:
        for parts in terms:
            _from_parts(parts)  # the first product that fails raises as it did
        raise


def right_action(f, A: QuaternionMatrix2) -> RegularQuotient:
    """f.A = (f c + d)^{-*} * (f a + b).

    With f read as the left pair F^{-*}*G (any other quotient as S^{-*}*P
    from its sym and conum), this is the left pair den = G*c + F*d, num = G*a + F*b.
    """
    _require_invertible(A)
    F, G = _as_pair(f, "left")
    a, c, b, d = _floats(A)
    den = _combination(G._c, c, F._c, d)
    if den.is_zero:
        raise DegenerateComposite("composite denominator is identically zero")
    return RegularQuotient(den, _combination(G._c, a, F._c, b), "left")


def left_action(A: QuaternionMatrix2, f) -> RegularQuotient:
    """The left group action (a*f + b) * (c*f + d)^{-*}.

    The formula entries are read from the *transpose* of the acting matrix;
    with this labelling the map composes as a genuine left action, Hermitian
    matrices act the same way from either side (up to their own transpose),
    and the ball-preserving subgroup keeps self-maps inside the ball.  With f
    read as the right pair G*H^{-*} (a polynomial g as g*1^{-*}, any other
    quotient as P*S^{-*} from its sym and conum), this is the right pair
    num = a*G + b*H, den = c*G + d*H in the transpose's entries.
    """
    _require_invertible(A)
    H, G = _as_pair(f, "right")
    a, c, b, d = _floats(A)
    den = _combination(G._c, b, H._c, d, left=True)
    if den.is_zero:
        raise DegenerateComposite("composite denominator is identically zero")
    return RegularQuotient(den, _combination(G._c, a, H._c, c, left=True), "right")


def hermitian_coincidence_check(f, A: QuaternionMatrix2, *, points=None) -> bool:
    """For Hermitian A (real diagonal, c = conj(b)) the two actions coincide.

    Evaluates both composites on a fixed sample grid in the unit ball and
    reports whether they agree pointwise.  Points at a pole of either
    composite are skipped; if every point is skipped the check raises
    ``PoleError`` rather than pass with nothing compared.
    """
    tol = _MATRIX_TOL * (1.0 + A.entry_scale())
    if (A.a.imag_norm() > tol or A.d.imag_norm() > tol
            or (A.c - A.b.conjugate()).norm() > tol):
        raise NotHermitian(f"matrix is not Hermitian: {A!r}")
    r = right_action(f, A)
    l = left_action(A.transpose(), f)
    if points is None:
        import random  # only the default grid needs it

        rng = random.Random("hermitian-grid")
        points = [sample_ball(rng, 0.85) for _ in range(50)]
    if not points:
        raise ValueError("no sample points given")
    compared = 0
    for q in points:
        try:
            rv = r.evaluate(q)
            lv = l.evaluate(q)
        except PoleError:
            continue
        compared += 1
        if (rv - lv).norm() > 1e-10 * (1.0 + rv.norm()):
            return False
    if not compared:
        raise PoleError("every sample point is a pole of the composites")
    return True


def left_right_convert(A: QuaternionMatrix2) -> QuaternionMatrix2:
    """A matrix C whose left action on the identity equals (qc+d)^{-*}*(qa+b).

    With c = 0 the transformation is affine.  Otherwise normalize c to 1,
    write the denominator as q - p, and swap factors:
    (q - conj(p))*(q alpha + beta) = (q gamma + delta)*(q - p~) with p~ on the
    sphere of p, solved in closed form through p~^2 = 2 Re(p) p~ - |p|^2.
    """
    _require_invertible(A)
    if A.c.norm() <= _zero_bound(A.entry_scale()):
        dinv = A.d.inverse()
        return QuaternionMatrix2(dinv * A.a, dinv * A.b, ZERO, ONE)
    cinv = A.c.inverse()
    alpha = cinv * A.a
    beta = cinv * A.b
    p = -(cinv * A.d)
    pbar = p.conjugate()
    lead = beta - pbar * alpha + (2.0 * p.w) * alpha
    if lead.norm() <= _zero_bound(alpha.norm() + beta.norm()) * (1.0 + p.norm()):
        raise DegenerateSwap("factor swap hit a singular linear solve")
    ptilde = lead.inverse() * (pbar * beta + p.norm_sq() * alpha)
    delta = beta - pbar * alpha + alpha * ptilde
    return QuaternionMatrix2(alpha, delta, ONE, -ptilde.conjugate())


# -- normal forms of ball self-maps ---------------------------------------------------


def from_normal_form(q0, u) -> QuaternionMatrix2:
    """The normalized matrix of (1 - q conj(q0))^{-*} * (q - q0) u.

    The raw matrix is scaled by (1 - |q0|^2)^{-1/2}, which lands it exactly on
    the defining identity of the indefinite unitary group; 1 - |q0|^2 is
    ``_one_minus_norm_sq``'s, which keeps its digits near the boundary.
    """
    q0 = _in_ball(q0, "q0")
    u = as_quaternion(u)
    _require_unit(u, "phase")
    lam = 1.0 / math.sqrt(_one_minus_norm_sq(q0))
    w, x, y, z = p = q0.w, q0.x, q0.y, q0.z
    pw, px, py, pz = _hamilton(p, (u.w, u.x, u.y, u.z))
    return QuaternionMatrix2(_make(u.w * lam, u.x * lam, u.y * lam, u.z * lam),
                             _make(-w * lam, x * lam, y * lam, z * lam),
                             _make(-pw * lam, -px * lam, -py * lam, -pz * lam),
                             _make(lam, 0.0, 0.0, 0.0))


def normal_form(A: QuaternionMatrix2) -> MoebiusNormalForm:
    """Recover the unique (q0, u) with F_A = (1 - q conj(q0))^{-*} * (q - q0) u.

    Every member of the group is diag(w, w) * from_normal_form(q0, u) for a
    unit w, and the left factor leaves F_A unchanged; so d = w lam, c =
    -w lam conj(q0) and a = w lam u, which give q0 = -conj(d^{-1} c) and
    u = d^{-1} a.
    """
    if not A.is_sp11():
        raise NotSp11("matrix does not satisfy the defining identity")
    a, c, _, d = _floats(A)
    if _norm(*d) < 1.0 - _UNIT_TOL:  # is_sp11's tolerance grows with the entries
        raise NotSp11(f"|d| = {_norm(*d):g} is below 1, but |d|^2 = 1 + |c|^2 in the group")
    dinv = _inverse(*d)
    w, x, y, z = _hamilton(dinv, c)
    q0 = _make(-w, x, y, z)  # -conj(d^{-1} c)
    if q0.norm() >= 1.0:
        raise NotSp11(f"recovered zero |q0| = {q0.norm():g} escapes the ball")
    w, x, y, z = _hamilton(dinv, a)
    n = _norm(w, x, y, z)
    if abs(n - 1.0) > _UNIT_TOL:
        raise NotSp11(f"recovered phase is not unit: |u| = {n:g}")
    return MoebiusNormalForm(q0, _make(w / n, x / n, y / n, z / n))
