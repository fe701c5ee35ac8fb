"""2x2 quaternionic matrices and regular fractional transformations.

The matrix [[a, c], [b, d]] acts through the regular quotient
(qc+d)^{-*} * (qa+b); with this layout composition of the right action on
functions matches ordinary matrix multiplication.  The module also houses the
Dieudonne determinant, membership in the indefinite unitary group that fixes
diag(1, -1), the two group actions on quotients, the left/right factor swap,
and normal forms of the self-maps of the unit ball.
"""

from __future__ import annotations

from .errors import (DegenerateComposite, DegenerateSwap, NotHermitian,
                     NotSp11, PoleError, SingularMatrix)
from .geometry import _in_ball, _require_unit, sample_ball
from .quaternion import ONE, ZERO, Quaternion, _Frozen, _zero_bound, as_quaternion
from .rational import RegularQuotient, as_quotient
from .series import RegularPolynomial

#: Entrywise tolerance of the matrix identities (membership, Hermitian shape),
#: relative to the entries' scale.
_MATRIX_TOL = 1e-9


class QuaternionMatrix2(_Frozen):
    """Quaternionic 2x2 matrix with rows (a, c) and (b, d)."""

    __slots__ = ("a", "c", "b", "d")

    def __init__(self, a, c, b, d):
        super().__init__(as_quaternion(a), as_quaternion(c), as_quaternion(b), as_quaternion(d))

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
        return QuaternionMatrix2(
            self.a * other.a + self.c * other.b,
            self.a * other.c + self.c * other.d,
            self.b * other.a + self.d * other.b,
            self.b * other.c + self.d * other.d)

    def scale(self, t: float) -> "QuaternionMatrix2":
        return QuaternionMatrix2(self.a * t, self.c * t, self.b * t, self.d * t)

    def conj(self) -> "QuaternionMatrix2":
        """Entrywise quaternion conjugation."""
        return QuaternionMatrix2(self.a.conjugate(), self.c.conjugate(),
                                 self.b.conjugate(), self.d.conjugate())

    def transpose(self) -> "QuaternionMatrix2":
        return QuaternionMatrix2(self.a, self.b, self.c, self.d)

    def conj_transpose(self) -> "QuaternionMatrix2":
        return self.conj().transpose()

    def entry_scale(self) -> float:
        return max(self.a.norm(), self.b.norm(), self.c.norm(), self.d.norm())

    def isclose(self, other: "QuaternionMatrix2", tol: float) -> bool:
        return ((self.a - other.a).norm() <= tol and (self.c - other.c).norm() <= tol
                and (self.b - other.b).norm() <= tol and (self.d - other.d).norm() <= tol)

    def dieudonne_det(self) -> float:
        """The multiplicative nonnegative-real determinant.

        |a| |d - b a^{-1} c| when a is not zero beside the entries, else
        |b||c|; agrees with the square root of the determinant of the 4x4
        complex adjoint matrix.
        """
        if self.a.norm() > _zero_bound(self.entry_scale()):
            return self.a.norm() * (self.d - self.b * self.a.inverse() * self.c).norm()
        return self.b.norm() * self.c.norm()

    def is_sp11(self, tol: float = _MATRIX_TOL) -> bool:
        """Whether conj-transpose * diag(1,-1) * self equals diag(1,-1) entrywise.

        The product's entries grow like the square of the matrix entries, so
        ``tol`` is relative to (1 + entry_scale())^2.
        """
        h = QuaternionMatrix2(ONE, ZERO, ZERO, -ONE)
        m = self.conj_transpose() * (h * self)
        return m.isclose(h, tol * (1.0 + self.entry_scale()) ** 2)

    def __repr__(self):
        return (f"QuaternionMatrix2(a={self.a!s}, c={self.c!s}, "
                f"b={self.b!s}, d={self.d!s})")


class MoebiusNormalForm(_Frozen):
    """The (zero, phase) pair identifying a regular self-map of the unit ball."""

    __slots__ = ("q0", "u")


def _require_invertible(A: QuaternionMatrix2):
    scale = A.entry_scale()
    if A.dieudonne_det() <= _zero_bound(scale) * (1.0 + scale):
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


def right_action(f, A: QuaternionMatrix2) -> RegularQuotient:
    """f.A = (f c + d)^{-*} * (f a + b).

    With f read as the left pair F^{-*}*G (any other quotient as S^{-*}*P
    from its sym and conum), this is the left pair den = G*c + F*d, num = G*a + F*b.
    """
    _require_invertible(A)
    F, G = as_quotient(f)._pair("left")
    den = G * A.c + F * A.d
    if den.is_zero:
        raise DegenerateComposite("composite denominator is identically zero")
    return RegularQuotient(den, G * A.a + F * A.b, "left")


def left_action(A: QuaternionMatrix2, f) -> RegularQuotient:
    """The left group action (a*f + b) * (c*f + d)^{-*}.

    The formula entries are read from the *transpose* of the acting matrix;
    with this labelling the map composes as a genuine left action, Hermitian
    matrices act the same way from either side (up to their own transpose),
    and the ball-preserving subgroup keeps self-maps inside the ball.  With f
    read as the right pair G*H^{-*} (a polynomial g as g*1^{-*}, any other
    quotient as P*S^{-*} from its sym and conum), this is the right pair
    num = a*G + b*H, den = c*G + d*H.
    """
    _require_invertible(A)
    A = A.transpose()
    H, G = as_quotient(f)._pair("right")
    den = A.c * G + A.d * H
    if den.is_zero:
        raise DegenerateComposite("composite denominator is identically zero")
    return RegularQuotient(den, A.a * G + A.b * H, "right")


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
    the defining identity of the indefinite unitary group.
    """
    q0 = _in_ball(q0, "q0")
    u = as_quaternion(u)
    _require_unit(u, "phase")
    lam = 1.0 / (1.0 - q0.norm_sq()) ** 0.5
    return QuaternionMatrix2(u * lam, -q0.conjugate() * lam,
                             -(q0 * u) * lam, Quaternion(lam))


def normal_form(A: QuaternionMatrix2) -> MoebiusNormalForm:
    """Recover the unique (q0, u) with F_A = (1 - q conj(q0))^{-*} * (q - q0) u.

    Every member of the group is diag(w, w) * from_normal_form(q0, u) for a
    unit w, and the left factor leaves F_A unchanged; so d = w lam, c =
    -w lam conj(q0) and a = w lam u, which give q0 = -conj(d^{-1} c) and
    u = d^{-1} a.
    """
    if not A.is_sp11():
        raise NotSp11("matrix does not satisfy the defining identity")
    # |d|^2 = 1 + |c|^2 >= 1 for these matrices, so d is invertible
    dinv = A.d.inverse()
    q0 = -(dinv * A.c).conjugate()
    if q0.norm() >= 1.0:
        raise NotSp11(f"recovered zero |q0| = {q0.norm():g} escapes the ball")
    u = dinv * A.a
    if abs(u.norm() - 1.0) > 1e-6:
        raise NotSp11(f"recovered phase is not unit: |u| = {u.norm():g}")
    return MoebiusNormalForm(q0, u / u.norm())
