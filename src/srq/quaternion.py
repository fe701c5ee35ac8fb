"""Quaternion arithmetic, slice decomposition, and the printed and JSON forms.

Every value in the package ultimately reduces to the :class:`Quaternion`
defined here.  There are two ways to build one:

* the public constructor ``Quaternion(w, x, y, z)`` coerces each argument
  with ``float()`` and checks each component for NaN/Inf;
* the internal ``_make(w, x, y, z)`` takes components that are already
  Python floats (the results of arithmetic on existing quaternions, or
  outside scalars passed through ``float()`` first) and makes one exact
  finiteness check for all four.

Both keep the same invariant: every component is a finite, exact Python
``float``, and the instance is immutable, so it is safe for unrestricted
concurrent use.

Text is read by ``expression.parse_quaternion``, in the polynomial grammar.
"""

from __future__ import annotations

import math
import sys

from .errors import ParseError

#: The relative size at which a quantity counts as zero, scaled by what each test guards.
EPS = 1e-12
#: At or below it a squared modulus counts as zero: ``Quaternion.inverse`` refuses it.
_EPS_SQ = EPS * EPS
_INF = math.inf  # a module global: one lookup cheaper than math.inf on the hot path
_TINY = sys.float_info.min  # below it a sum of squares has lost precision or underflowed


def _zero_bound(size: float) -> float:
    """The modulus below which a value counts as zero beside a quantity of modulus ``size``."""
    return EPS * (1.0 + size)


class _Frozen:
    """Immutable value: by default built from one positional value per slot, in slot
    order, and compared, hashed and shown (``Name(slot=value, ...)``) slot by slot."""

    __slots__ = ()

    def __init__(self, *values):
        slots = type(self).__slots__
        if len(values) != len(slots):
            raise TypeError(f"{type(self).__name__}({', '.join(slots)}) takes "
                            f"{len(slots)} values, got {len(values)}")
        for name, value in zip(slots, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__slots__)

    def __eq__(self, other):
        if type(other) is type(self):
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        # pickle and copy restore slots as (None, {slot: value}), past __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


def _setters(cls) -> tuple:
    """The ``__set__`` of each slot's member descriptor of ``cls``, in slot order.  A value
    class fills its slots through them, which is faster than the generic ``_Frozen.__init__``
    and skips the immutability guard without weakening it."""
    return tuple(cls.__dict__[s].__set__ for s in cls.__slots__)


class Quaternion(_Frozen):
    """A quaternion w + x*i + y*j + z*k with double-precision components.

    Components are finite Python floats and cannot be reassigned.  The
    public constructor coerces and checks its arguments; arithmetic results
    come from ``_make``, which checks finiteness once.  Either way a NaN/Inf
    can never leave an operation silently: it raises ``ValueError``.
    """

    __slots__ = ("w", "x", "y", "z")

    def __init__(self, w=0.0, x=0.0, y=0.0, z=0.0):
        w, x, y, z = float(w), float(x), float(y), float(z)
        if not math.isfinite(0.0 * w + 0.0 * x + 0.0 * y + 0.0 * z):  # _make's test
            raise ValueError(f"non-finite quaternion component in ({w}, {x}, {y}, {z})")
        _set_w(self, w)
        _set_x(self, x)
        _set_y(self, y)
        _set_z(self, z)

    # -- algebra -----------------------------------------------------------
    # Outside scalars go through float() once, so a float subclass such as
    # numpy.float64 never ends up stored as a component.

    def __add__(self, other):
        if isinstance(other, Quaternion):
            return _make(self.w + other.w, self.x + other.x,
                         self.y + other.y, self.z + other.z)
        if isinstance(other, (int, float)):
            return _make(self.w + float(other), self.x, self.y, self.z)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Quaternion):
            return _make(self.w - other.w, self.x - other.x,
                         self.y - other.y, self.z - other.z)
        if isinstance(other, (int, float)):
            return _make(self.w - float(other), self.x, self.y, self.z)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, float)):
            return _make(float(other) - self.w, -self.x, -self.y, -self.z)
        return NotImplemented

    def __neg__(self):
        return _make(-self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            w1, x1, y1, z1 = self.w, self.x, self.y, self.z
            w2, x2, y2, z2 = other.w, other.x, other.y, other.z
            return _make(
                w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)
        if isinstance(other, (int, float)):
            s = float(other)
            return _make(self.w * s, self.x * s, self.y * s, self.z * s)
        return NotImplemented

    __rmul__ = __mul__  # only real scalars reach it, and they commute

    def __truediv__(self, other):
        # quotient by a quaternion is ambiguous (left vs right); use inverse()
        if isinstance(other, (int, float)):
            s = float(other)
            return _make(self.w / s, self.x / s, self.y / s, self.z / s)
        return NotImplemented

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            return NotImplemented
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, Quaternion):
            return (self.w == other.w and self.x == other.x
                    and self.y == other.y and self.z == other.z)
        if isinstance(other, (int, float)):
            return self.w == other and self.x == 0.0 and self.y == 0.0 and self.z == 0.0
        return NotImplemented

    def __hash__(self):
        # a real quaternion equals its float, so it must hash like one
        if self.x == 0.0 and self.y == 0.0 and self.z == 0.0:
            return hash(self.w)
        return hash((self.w, self.x, self.y, self.z))

    # -- metrics and involutions --------------------------------------------

    def conjugate(self) -> "Quaternion":
        return _make(self.w, -self.x, -self.y, -self.z)

    def norm_sq(self) -> float:
        return self.w * self.w + self.x * self.x + self.y * self.y + self.z * self.z

    def norm(self) -> float:
        return _norm(self.w, self.x, self.y, self.z)

    __abs__ = norm

    def inverse(self) -> "Quaternion":
        """q^{-1} = conj(q)/|q|^2; refuses when |q| is below ``EPS`` or overflows."""
        return _make(*_inverse(self.w, self.x, self.y, self.z))

    def imag(self) -> "Quaternion":
        return _make(0.0, self.x, self.y, self.z)

    def imag_norm(self) -> float:
        return _norm(0.0, self.x, self.y, self.z)

    def is_real(self, tol: float = 0.0) -> bool:
        return self.imag_norm() <= tol

    def isclose(self, other: "Quaternion", rel_tol: float = EPS, abs_tol: float = 0.0) -> bool:
        gap = (self - other).norm()
        return gap <= max(rel_tol * max(self.norm(), other.norm()), abs_tol)

    # -- slice structure ------------------------------------------------------

    def slice_decompose(self) -> "SliceCoordinates":
        """Split q = x0 + y0*I with y0 >= 0 and I a unit imaginary.

        Real points have no preferred imaginary unit; the canonical choice
        I = i keeps decomposition total.  Near-real points keep their actual
        tiny y0 and true axis, so the map stays continuous off the reals.
        """
        y0 = self.imag_norm()
        if y0 == 0.0:
            return SliceCoordinates(self.w, 0.0, I)
        axis = _make(0.0, self.x / y0, self.y / y0, self.z / y0)
        return SliceCoordinates(self.w, y0, axis)

    # -- formats ---------------------------------------------------------------

    def to_json(self) -> list:
        return [self.w, self.x, self.y, self.z]

    @classmethod
    def from_json(cls, obj) -> "Quaternion":
        if (not isinstance(obj, (list, tuple)) or len(obj) != 4
                or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in obj)):
            raise ParseError(f"quaternion JSON must be a list [w, x, y, z] of numbers, got {obj!r}")
        try:
            return cls(*obj)
        except (OverflowError, ValueError) as exc:  # an int too large for a float, or inf
            raise ParseError(str(exc)) from exc

    def __str__(self):
        parts = []
        for value, unit in ((self.w, ""), (self.x, "i"), (self.y, "j"), (self.z, "k")):
            if value == 0.0:
                continue
            mag = _fmt_float(abs(value))
            if unit and mag == "1":
                mag = ""
            parts.append(("-" if value < 0 else "+") + mag + unit)
        if not parts:
            return "0"
        joined = "".join(parts)
        return joined[1:] if joined.startswith("+") else joined

    def __repr__(self):
        return f"Quaternion({self.w!r}, {self.x!r}, {self.y!r}, {self.z!r})"


_new = object.__new__
_set_w, _set_x, _set_y, _set_z = _setters(Quaternion)


def _make(w: float, x: float, y: float, z: float) -> Quaternion:
    """Internal constructor for components that are already Python floats.

    ``0.0*w + 0.0*x + 0.0*y + 0.0*z`` is 0 when all four are finite and NaN
    otherwise, so one ``isfinite`` replaces four.  The slots are filled
    through their member descriptors, which skips ``__init__`` and the
    immutability guard of ``_Frozen`` without weakening it.
    """
    if not math.isfinite(0.0 * w + 0.0 * x + 0.0 * y + 0.0 * z):
        raise ValueError(f"non-finite quaternion component in ({w}, {x}, {y}, {z})")
    q = _new(Quaternion)
    _set_w(q, w)
    _set_x(q, x)
    _set_y(q, y)
    _set_z(q, z)
    return q


def _finite(v: tuple) -> tuple:
    """The float 4-tuple ``v`` once it passes ``_make``'s test, which raises its ``ValueError``."""
    w, x, y, z = v
    if not math.isfinite(0.0 * w + 0.0 * x + 0.0 * y + 0.0 * z):
        _make(w, x, y, z)
    return v


def _norm(w: float, x: float, y: float, z: float) -> float:
    """|w + xi + yj + zk| of unpacked floats: the square root of the sum of
    squares, or ``math.hypot`` when those squares under- or overflowed.

    A leading 0.0 adds nothing to either branch, so ``_norm(0.0, x, y, z)``
    is the modulus of the imaginary part.
    """
    n2 = w * w + x * x + y * y + z * z
    if _TINY <= n2 < _INF:
        return math.sqrt(n2)
    return math.hypot(w, x, y, z)


def _inverse(w: float, x: float, y: float, z: float) -> tuple:
    """The components of ``Quaternion(w, x, y, z).inverse()``, with its refusals."""
    n2 = w * w + x * x + y * y + z * z
    if n2 <= _EPS_SQ:
        raise ZeroDivisionError(f"quaternion too small to invert (|q| = {_norm(w, x, y, z):g})")
    if n2 < _INF:
        return w / n2, -x / n2, -y / n2, -z / n2
    n = _norm(w, x, y, z)  # |q|^2 overflowed, so divide by |q| twice
    if n == _INF:
        raise ZeroDivisionError(f"quaternion too large to invert ({_make(w, x, y, z)!r})")
    return w / n / n, -x / n / n, -y / n / n, -z / n / n


def _hamilton(p: tuple, q: tuple) -> tuple:
    """The Hamilton product p * q of float 4-tuples, in ``Quaternion.__mul__``'s
    operation order, so its bits are that product's."""
    w1, x1, y1, z1 = p
    w2, x2, y2, z2 = q
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def _slice_floats(x: float, y: float, I: Quaternion) -> tuple:
    """The components of x + y*I for floats x, y: the bits of ``Quaternion(x) + I * y``
    (each ``0.0 +`` turns -0.0 into +0.0, as that sum does)."""
    return x + I.w * y, 0.0 + I.x * y, 0.0 + I.y * y, 0.0 + I.z * y


def _slice_point(x: float, y: float, I: Quaternion) -> Quaternion:
    """x + y*I as one quaternion, not the three that ``Quaternion(x) + I * y`` builds."""
    return _make(*_slice_floats(x, y, I))


def _fold_sum(values, start=0.0):
    """The sum of ``values`` added left to right from ``start``, one rounding each.

    The builtin ``sum()`` of floats is compensated from Python 3.12 on, so it
    rounds differently across versions; this loop gives the same bits on all.
    """
    total = start
    for v in values:
        total = total + v
    return total


def _fmt_float(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


class SliceCoordinates(_Frozen):
    """Coordinates q = x0 + y0*I on the complex slice through q."""

    __slots__ = ("x0", "y0", "I")

    def __init__(self, x0, y0, I):
        _set_x0(self, x0)
        _set_y0(self, y0)
        _set_I(self, I)

    def reconstruct(self) -> Quaternion:
        return _slice_point(float(self.x0), float(self.y0), self.I)


_set_x0, _set_y0, _set_I = _setters(SliceCoordinates)


ZERO = Quaternion()
ONE = Quaternion(1.0)
I = Quaternion(0.0, 1.0)
J = Quaternion(0.0, 0.0, 1.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def as_quaternion(value) -> Quaternion:
    """Coerce a Quaternion, real number, or 4-sequence to a Quaternion."""
    if isinstance(value, Quaternion):
        return value
    if isinstance(value, (int, float)):
        return Quaternion(value)
    if isinstance(value, (list, tuple)) and len(value) == 4:
        return Quaternion(*value)
    raise TypeError(f"cannot interpret {value!r} as a quaternion")
