"""Regular quotients, the sphere-preserving change of variables, and zero sets.

Symmetrizations have real coefficients, and real-coefficient polynomials are
central for the star product.  Every regular quotient therefore evaluates as
``sym(q)^{-1} * conum(q)`` for a real polynomial ``sym`` and a polynomial
``conum`` (for a left quotient f^{-*}*g these are f^s and f^c*g), and in this
"expanded" form the ring of quotients multiplies componentwise:

    (S1, P1) * (S2, P2) = (S1*S2, P1*P2)

Quotients built from an explicit (den, num) pair keep the pair around; it
feeds the independent change-of-variables evaluation route and the cheap
pair-level conjugation and reciprocal.
"""

from __future__ import annotations

import cmath
import math
import sys

from .errors import NonConvergence, PoleError
from .quaternion import (_INF, EPS, ONE, ZERO, Quaternion, _finite, _fold_sum, _Frozen,
                         _hamilton, _inverse, _make, _norm, _setters, _slice_point,
                         _zero_bound, as_quaternion)
from .series import (RegularPolynomial, _convolve, _horner_floats, _lift, _real_polynomial,
                     _real_star, _reals, _symmetrized, evaluate_any)

#: Unit roundoff of IEEE double precision; the backward-error stop of
#: ``durand_kerner`` compares residuals with it.
_UNIT_ROUNDOFF = 2.0 ** -53
#: Natural log of the largest double: |z|^n overflows once n log|z| exceeds it.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


class RegularQuotient(_Frozen):
    """A quotient of regular polynomials under the star product.

    ``side="left"`` is f^{-*}*g with den=f, num=g, evaluating as
    f^s(q)^{-1} (f^c*g)(q); ``side="right"`` is g*h^{-*} with den=h, num=g,
    evaluating as h^s(q)^{-1} (g*h^c)(q).  Sums and star products leave the
    pair representation behind, in which case only the expanded form is
    carried (``side == "expanded"``); reciprocals and the group actions of
    ``srq.fractional`` always return pairs.

    Evaluation anywhere on the zero set of the denominator symmetrization is
    an error, never a silent value.  ``_sym`` holds its real coefficients.
    """

    __slots__ = ("den", "num", "side", "_sym", "conum", "_pole_scale")

    def __init__(self, den, num, side: str = "left"):
        den = _as_poly(den)
        num = _as_poly(num)
        if side not in ("left", "right"):
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
        if den.is_zero:
            raise ValueError("denominator is identically zero")
        sym = _symmetrized(den._c)
        conum = den.conjugate() * num if side == "left" else num * den.conjugate()
        self._install(den, num, side, sym, conum)

    def _install(self, den, num, side, sym, conum):
        _set_den(self, den)
        _set_num(self, num)
        _set_side(self, side)
        _set_sym(self, sym)
        _set_conum(self, conum)
        _set_pole_scale(self, _scale_of(sym))

    @property
    def sym(self) -> RegularPolynomial:
        """The denominator symmetrization, built on each read from the stored floats."""
        return _real_polynomial(self._sym)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_expanded(cls, sym: RegularPolynomial, conum: RegularPolynomial) -> "RegularQuotient":
        """S^{-1} P; imaginary parts of S below its pole scale are admitted and dropped."""
        sym, conum = _as_poly(sym), _as_poly(conum)
        reals = _reals([c.w for c in sym.coeffs])
        if not sym.is_real(_scale_of(reals)):
            raise ValueError("expanded denominator must have real coefficients")
        return cls._expanded(reals, conum)

    @classmethod
    def _expanded(cls, sym: tuple, conum: RegularPolynomial) -> "RegularQuotient":
        """S^{-1} P for the real coefficients ``sym`` of S."""
        if not sym:
            raise ValueError("expanded denominator is identically zero")
        obj = cls.__new__(cls)
        obj._install(None, None, "expanded", sym, conum)
        return obj

    @classmethod
    def from_polynomial(cls, p) -> "RegularQuotient":
        return cls(RegularPolynomial([ONE]), p, "left")

    @classmethod
    def from_json(cls, obj) -> "RegularQuotient":
        return cls(RegularPolynomial.from_json(obj["den"]),
                   RegularPolynomial.from_json(obj["num"]),
                   obj.get("side", "left"))

    def to_json(self) -> dict:
        if self.den is None:
            raise ValueError("only (den, num) pair quotients have a JSON form")
        return {"den": self.den.to_json(), "num": self.num.to_json(), "side": self.side}

    @property
    def is_pair(self) -> bool:
        return self.den is not None

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, q) -> Quaternion:
        """sym(q)^{-1} conum(q), refusing near the zero set of sym.

        The one-point case of ``_evaluate_floats``; only the result is built
        as a quaternion.
        """
        q = as_quaternion(q)
        return _make(*self._evaluate_floats([(q.w, q.x, q.y, q.z)])[0])

    def _evaluate_floats(self, points) -> list:
        """``evaluate`` at each of ``points``, float 4-tuples, as float 4-tuples.

        Both Horner passes, the pole test (``_norm``), the inverse (``_inverse``)
        and the product (``_hamilton``) run on unpacked floats, so each result
        is bit-identical to ``sym.evaluate(q).inverse() * conum.evaluate(q)``
        and the first point where that raises raises the same error here.  The
        pole scale exceeds ``EPS``, so no ``sym(q)`` that small reaches the inverse.
        """
        scale = self._pole_scale
        out = []
        sym = [(w, 0.0, 0.0, 0.0) for w in self._sym]
        for p, s, c in zip(points, _horner_floats(sym, points),
                           _horner_floats(self.conum._c, points)):
            n = _norm(*s)
            if not n < _INF:
                _make(*s)  # a non-finite sym(q) is reported as itself
            if n < scale:
                raise _pole_at(p)
            w, x, y, z = v = _hamilton(_inverse(*s), c)
            if 0.0 * w + 0.0 * x + 0.0 * y + 0.0 * z != 0.0:  # _make's finiteness test
                _make(*c)  # a non-finite conum(q) is reported as itself
                _make(*v)
            out.append(v)
        return out

    __call__ = evaluate

    def evaluate_via_transform(self, q) -> Quaternion:
        """Independent evaluation route through the change of variables.

        For a left quotient this is f(T_f(q))^{-1} g(T_f(q)).  For a right
        quotient g*h^{-*} it is the star product evaluated pointwise,
        g(q) h^{-*}(p) with p = g(q)^{-1} q g(q), valid where g(q) != 0, and
        h^{-*}(p) = h(T_h(p))^{-1} is the left route of h^{-*}*1.  Both
        routes exist for cross-validation against :meth:`evaluate`; they share
        no intermediate values (neither reads ``sym`` or ``conum``).  Each step
        runs on float 4-tuples with the bits, refusals and finiteness tests of
        the quaternion chain; only the result is built as a quaternion.
        """
        if self.den is None:
            raise ValueError("transform-route evaluation needs a (den, num) pair")
        q = as_quaternion(q)
        p = q4 = (q.w, q.x, q.y, q.z)
        num = self.num
        if self.side == "right":
            gq = _finite(_horner_floats(num._c, [q4])[0])
            if _norm(*gq) < _zero_bound(num.coefficient_norm_sum()):
                raise ValueError("transform route for a right quotient needs a nonzero numerator value")
            p = _conjugated(gq, q4)
        den = self.den
        bound = _zero_bound(den.coefficient_norm_sum())
        w = _transform_floats(den.conjugate()._c, bound, p)
        fw = _finite(_horner_floats(den._c, [w])[0])
        if _norm(*fw) < bound:
            raise PoleError(f"{q} maps onto a zero of the denominator")
        inverse = _inverse(*fw)
        if self.side == "right":
            return _make(*_hamilton(gq, inverse))
        return _make(*_hamilton(inverse, _finite(_horner_floats(num._c, [w])[0])))

    # -- ring structure --------------------------------------------------------------

    def conjugate(self) -> "RegularQuotient":
        """Regular conjugate; on pairs it conjugates both parts and flips the side."""
        if self.is_pair:
            flipped = "right" if self.side == "left" else "left"
            return RegularQuotient(self.den.conjugate(), self.num.conjugate(), flipped)
        return RegularQuotient._expanded(self._sym, self.conum.conjugate())

    def _pair(self, side: str):
        """``(den, num)`` of this quotient read as a pair of ``side``: sym is real,
        so S^{-1}P is both S^{-*}*P and P*S^{-*}, and a quotient that is not a
        pair of that side reads as (sym, conum)."""
        if self.side == side:
            return self.den, self.num
        return self.sym, self.conum

    def symmetrization(self) -> "RegularQuotient":
        """(f^{-*}*g)^s = (f^s)^{-1} g^s, with both parts real: f^s is sym for a
        pair, and sym*sym for an expanded S^{-1}P, whose f is S."""
        if self.is_pair:
            return RegularQuotient._expanded(self._sym, self.num.symmetrization())
        return RegularQuotient._expanded(_reals(_convolve(self._sym, self._sym)),
                                         self.conum.symmetrization())

    def reciprocal(self) -> "RegularQuotient":
        """(f^{-*}*g)^{-*} = g^{-*}*f and (g*h^{-*})^{-*} = h*g^{-*}; an
        expanded S^{-1}P, read as S^{-*}*P, gives the left pair P^{-*}*S."""
        side = "right" if self.side == "right" else "left"
        den, num = self._pair(side)
        if num.is_zero:
            raise ValueError("cannot invert the zero quotient")
        return RegularQuotient(num, den, side)

    def __mul__(self, other):
        other = _as_quotient(other)
        if other is NotImplemented:
            return NotImplemented
        return RegularQuotient._expanded(_reals(_convolve(self._sym, other._sym)),
                                         self.conum * other.conum)

    def __rmul__(self, other):
        other = _as_quotient(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self

    def __add__(self, other):
        other = _as_quotient(other)
        if other is NotImplemented:
            return NotImplemented
        return RegularQuotient._expanded(
            _reals(_convolve(self._sym, other._sym)),
            _real_star(other._sym, self.conum._c) + _real_star(self._sym, other.conum._c))

    __radd__ = __add__

    def __sub__(self, other):
        other = _as_quotient(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_quotient(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return RegularQuotient._expanded(self._sym, -self.conum)

    def remainder(self, q0) -> "RegularQuotient":
        """(q - q0)^{-*} * (f - f(q0)) inside the ring of quotients.

        With f = S^{-1} P the shifted conumerator P - S f(q0) vanishes at q0,
        so the linear factor divides out exactly on the polynomial side; the
        result S^{-1} (P - S f(q0)) / (q - q0) carries no removable
        singularity on the sphere of q0.
        """
        q0 = as_quaternion(q0)
        shifted = self.conum - self.sym * self.evaluate(q0)
        return RegularQuotient._expanded(self._sym, shifted.remainder(q0))

    def cullen_derivative(self) -> "RegularQuotient":
        """Slice derivative of S^{-1}P: (S^2)^{-1} (S P' - S' P)."""
        sym = self._sym
        ds = _reals(_derivative(sym))
        dp = self.conum.cullen_derivative()
        numerator = _real_star(sym, dp._c) - _real_star(ds, self.conum._c)
        return RegularQuotient._expanded(_reals(_convolve(sym, sym)), numerator)

    def sphere_zero_set(self) -> "SphereZeroSet":
        """The excluded spheres: zeros of the denominator symmetrization."""
        return _zero_set_of_real_polynomial(self._sym)

    def __repr__(self):
        if self.is_pair:
            return f"RegularQuotient(den={self.den!r}, num={self.num!r}, side={self.side!r})"
        return f"RegularQuotient.from_expanded({self.sym!r}, {self.conum!r})"


_set_den, _set_num, _set_side, _set_sym, _set_conum, _set_pole_scale = _setters(RegularQuotient)


def _scale_of(sym) -> float:
    """The zero bound of a polynomial's real coefficients ``sym``; for a quotient's S it is
    the pole scale ``_zero_bound(S.coefficient_norm_sum())``, |w| being w's norm() bit for bit."""
    return _zero_bound(_fold_sum(map(abs, sym)))


def _as_poly(value) -> RegularPolynomial:
    poly = _lift(value)
    if poly is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a regular polynomial")
    return poly


def _as_quotient(value):
    if isinstance(value, RegularQuotient):
        return value
    poly = _lift(value)
    return poly if poly is NotImplemented else RegularQuotient.from_polynomial(poly)


def as_quotient(value) -> RegularQuotient:
    out = _as_quotient(value)
    if out is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a regular quotient")
    return out


# -- evaluation over a point list ------------------------------------------------------


def _pole_at(p) -> PoleError:
    return PoleError(f"{_make(*p)} lies on the zero set of the denominator symmetrization")


def _values_at(f, points) -> list:
    """The values, as float 4-tuples, of a polynomial, a quotient or any map that
    ``evaluate_any`` takes, at ``points`` (float 4-tuples).  A polynomial's are
    not checked finite here."""
    if isinstance(f, RegularQuotient):
        return f._evaluate_floats(points)
    if isinstance(f, RegularPolynomial):
        return _horner_floats(f._c, points)
    out = []
    for p in points:
        v = evaluate_any(f, _make(*p))
        out.append((v.w, v.x, v.y, v.z))
    return out


def _moduli_at(maps, points) -> list:
    """For each of ``maps``, its moduli at ``points`` (float 4-tuples), raising at
    the first failing point of the first map that fails.

    A polynomial's or a plain map's are ``evaluate_any(f, q).norm()`` bit for
    bit.  A quotient S^{-1} P gives |P(q)| / |S(q)|, as the modulus is
    multiplicative: |P(q)| from the Hamilton pass and, S being real,
    |S(q)| = |S(z)| for z = w + i|Im q|, one complex pass shared by every
    quotient whose real ``sym`` coefficients compare equal.  Poles raise as in
    ``evaluate``; a modulus that is not finite goes through ``evaluate``.
    """
    slices = None
    syms = {}
    out = []
    for f in maps:
        moduli = []
        out.append(moduli)
        if not isinstance(f, RegularQuotient):
            for v in _values_at(f, points):
                n = _norm(*v)
                if not n < _INF:
                    _make(*v)  # raises on a NaN or an infinity, as evaluate would
                moduli.append(n)
            continue
        sym_moduli = syms.get(f._sym)
        if sym_moduli is None:
            if slices is None:
                slices = [complex(w, _norm(0.0, x, y, z)) for w, x, y, z in points]
            sym_moduli = syms[f._sym] = [_norm(s.real, s.imag, 0.0, 0.0)
                                         for s in _horner(f._sym, slices)]
        scale = f._pole_scale
        for p, s, c in zip(points, sym_moduli, _horner_floats(f.conum._c, points)):
            if s < scale:
                raise _pole_at(p)
            n = _norm(*c) / s
            if not n < _INF:
                f.evaluate(_make(*p))  # raises on a NaN or an infinity there
            moduli.append(n)
    return out


# -- change of variables ------------------------------------------------------------


def star_transform(f: RegularPolynomial, q) -> Quaternion:
    """T_f(q) = f^c(q)^{-1} q f^c(q); maps every sphere x+yS to itself.

    T_f relates the regular quotient to the pointwise one, is the identity on
    the reals, and is inverted by the transform of f^c.
    """
    q = as_quaternion(q)
    return _make(*_transform_floats(f.conjugate()._c, _zero_bound(f.coefficient_norm_sum()),
                                    (q.w, q.x, q.y, q.z)))


def _transform_floats(fc, bound: float, q: tuple) -> tuple:
    """T_f(q) for the coefficients ``fc`` of f^c and a point ``q``, float 4-tuples,
    with ``bound`` the zero bound of f's coefficient norm sum (f^c's, bit for bit):
    the bits, refusals, messages and finiteness tests of the quaternion chain
    ``v.inverse() * q * v`` for v = f^c(q)."""
    v = _finite(_horner_floats(fc, [q])[0])
    if _norm(*v) < bound:
        raise PoleError(f"conjugate denominator vanishes at {_make(*q)}")
    return _conjugated(v, q)


def _conjugated(v: tuple, q: tuple) -> tuple:
    """v^{-1} q v of float 4-tuples, each product tested finite as ``_make`` tests it
    (the inverse of a finite v is finite)."""
    return _finite(_hamilton(_finite(_hamilton(_inverse(*v), q)), v))


def star_transform_inverse(f: RegularPolynomial, q) -> Quaternion:
    return star_transform(f.conjugate(), q)


# -- zero sets -------------------------------------------------------------------------


class ZeroEntry(_Frozen):
    """One component of a symmetrization zero set: x + y*S (a point when y == 0)."""

    __slots__ = ("x", "y", "multiplicity")

    def __init__(self, x, y, multiplicity):
        _set_x(self, x)
        _set_y(self, y)
        _set_multiplicity(self, multiplicity)

    @property
    def is_real_point(self) -> bool:
        return self.y == 0.0


class SphereZeroSet(_Frozen):
    """Spheres and real points where a symmetrization vanishes."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        _set_entries(self, entries)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)


_set_x, _set_y, _set_multiplicity, _set_entries = _setters(ZeroEntry) + _setters(SphereZeroSet)


def durand_kerner(coeffs):
    """All complex roots of sum_n coeffs[n] z^n by simultaneous iteration.

    Exact-zero low-order coefficients are stripped first, each a root at 0.
    A linear polynomial and a real quadratic are solved in closed form
    (``_real_quadratic``).  Otherwise each sweep moves every root by a
    Jacobi-style Weierstrass step.  A real polynomial of even degree, as every
    symmetrization is, is iterated one root per conjugate pair (``_sweeps``)
    from the upper roots of its factors into real quadratics: a quartic's in
    closed form (``_quartic_start``), those of degree 6 and up deflated down to
    a quartic (``_deflated_start``).  Without them, as with real roots, pairs
    start from the upper arc of the circle about the centroid -c_{n-1}/n of
    radius |p(centroid)|^(1/n).  A pair that crosses the real axis twice, as
    between two simple real roots, or whose residual check fails, hands over
    to the full sweep, the only path for complex coefficients and odd degree.
    The iteration stops at the first of these events:

    - the sweep is stalled: for the monic p = sum c_k z^k, every root's
      computed residual |p(z)| is no larger than the rounding error of
      computing it, ``u * sum |c_k| |z|^k`` with ``u = 2**-53`` (a
      backward-error stop); the sweep's starting roots are returned, since
      further steps only move rounding noise around;
    - in pair sweeps, the largest step has not shrunk and every residual is
      within Horner's error bound ``2n u sum |c_k| |z|^k`` (Higham 2002,
      section 5.1); the sweep's starting roots are returned, as on a stall;
    - every step is below ``1e-14`` relative to the largest root;
    - 500 sweeps have run.

    Raises ValueError on a non-finite coefficient, and NonConvergence when a
    final root, closed forms included, fails ``_unconverged``.
    """
    c = [complex(v) for v in coeffs]
    if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in c):
        raise ValueError(f"polynomial coefficients must be finite, got {coeffs!r}")
    while c and abs(c[-1]) == 0.0:
        c.pop()
    zeros = 0
    while zeros < len(c) and c[zeros] == 0.0:
        zeros += 1
    n = len(c) - 1 - zeros
    if n <= 0:
        return [0j] * zeros
    lead = c[-1]
    monic = [v / lead for v in c[zeros:]]
    real = not any(v.imag for v in monic)
    if n == 1:  # closed forms; an overflowing normalization still fails the check
        roots = [-monic[0]]
    elif n == 2 and real:
        roots = _real_quadratic(monic[1].real / 2.0, monic[0].real)
    else:
        radius = 1.0 + max(abs(v) for v in monic[:-1])
        if n * math.log(radius) > _LOG_FLOAT_MAX:
            # |z|^n overflows Horner on that circle; Fujiwara's bound is tighter
            radius = 2.0 * max(abs(v) ** (1.0 / (n - k)) for k, v in enumerate(monic[:-1]))
        if n % 2 == 0 and real:
            m = n // 2
            roots = _quartic_start(monic) if n == 4 else None
            if roots is None:
                centre = -monic[-2] / n
                scale = abs(_horner(monic, [centre])[0]) ** (1.0 / n)
                if not 0.0 < scale < _INF:
                    scale = radius
                # Aberth's angles (2 pi k + pi/2) / n on the upper arc
                roots = [centre + scale * cmath.exp(1j * math.pi * (k + 0.25) / m)
                         for k in range(m)]
                if n > 4:
                    roots = _deflated_start(monic, roots) or roots
            roots = _sweeps(monic, roots, True)
            if roots is not None and _unconverged(monic, roots) is None:
                return roots + [z.conjugate() for z in roots] + [0j] * zeros
        seed = 0.4 + 0.9j
        roots = _sweeps(monic, [max(1.0, radius) * seed ** (k + 1) / abs(seed) ** (k + 1)
                                * (0.95 ** k) for k in range(n)], False)
    z = _unconverged(monic, roots)
    if z is not None:
        raise NonConvergence(f"root {z} did not converge: residual {abs(_horner(monic, [z])[0]):g}")
    return roots + [0j] * zeros


def _unconverged(monic, roots):
    """The first of ``roots`` whose residual |p(z)| on the monic p = sum c_k z^k is NaN,
    infinite or above ``_zero_bound(sum |c_k| |z|^k)``, the size of Horner's rounding
    error at z (Higham 2002, section 5.1); None when every residual counts as zero."""
    sizes = _horner([abs(v) for v in monic], [abs(z) for z in roots])
    for z, r, size in zip(roots, _horner(monic, roots), sizes):
        if not abs(r) <= _zero_bound(size) or abs(r) == _INF:
            return z
    return None


def _deflated_start(monic, arc):
    """Upper starts for the monic real ``monic`` of even degree n >= 6: Bairstow's iteration
    peels n/2 - 2 real quadratics z^2 + uz + v, the k-th from the k-th root of ``arc``, each
    giving its upper root, and the quartic left gives two (``_quartic_start``).  None when a
    step is not finite, a factor has not settled within 30 steps or has real roots, the
    quartic has no start, or two starts nearly coincide."""
    c = [v.real for v in monic]
    roots = []
    for z in arc[:len(c) // 2 - 2]:
        u, v = -2.0 * z.real, z.real * z.real + z.imag * z.imag
        for _ in range(30):
            # divided by z^2 + uz + v, c leaves b_1 z + b_0 + u b_1 and b gives f_1, f_2, f_3,
            # with d b_k / du = -f_{k+1} and d b_k / dv = -f_{k+2}
            b0 = b1 = f0 = f1 = f2 = 0.0
            for a in reversed(c):
                b0, b1 = a - u * b0 - v * b1, b0
                f0, f1, f2 = b1 - u * f0 - v * f1, f0, f1
            g = f0 - b1  # Newton's step for the remainder, row-reduced; a zero det gives NaN
            det = f1 * f1 - f2 * g or math.nan
            du, dv = (b1 * f1 - b0 * f2) / det, (b0 * f1 - b1 * g) / det
            u, v = u + du, v + dv
            if not abs(u) + abs(v) < _INF:
                return None
            if abs(du) * math.sqrt(abs(v)) + abs(dv) <= 1e-10 * abs(v):
                break
        else:
            return None
        if not v - u * u / 4.0 > 0.0:
            return None
        roots.append(_real_quadratic(u / 2.0, v)[0])
        c = _divide(c, [v, u, 1.0])[0]
    last = _quartic_start(c)
    if last is None:
        return None
    roots += last
    for k, z in enumerate(roots):
        if not z.imag > 0.0 or any(abs(z - w) <= 1e-8 * abs(z) for w in roots[:k]):
            return None
    return roots


def _quartic_start(monic):
    """The upper roots of the two real quadratics whose product is the monic real
    quartic ``monic``, or None unless both lie strictly above the real axis.  With
    z = t - h, h = c_3/4, it is t^4 + p t^2 + q t + r = (t^2 + s t + u)(t^2 - s t + v):
    s^2 = y is the largest root of Descartes' resolvent y^3 + 2p y^2 + (p^2 - 4r) y - q^2
    (three real roots when the quartic has none; Orellana and De Michele, ACM TOMS
    46(2), 2020), u + v = p + y, and v - u = q/s, whose square is (p + y)^2 - 4r."""
    c0, c1, c2, c3 = (v.real for v in monic[:4])
    h = c3 / 4.0
    p = c2 - 6.0 * h * h
    q = c1 - 2.0 * c2 * h + 8.0 * h * h * h
    r = c0 - c1 * h + c2 * h * h - 3.0 * h * h * h * h
    a = -(p * p / 3.0 + 4.0 * r)  # y = x - 2p/3 turns the resolvent into x^3 + a x + b
    b = 8.0 * p * r / 3.0 - 2.0 * p * p * p / 27.0 - q * q
    k = math.sqrt(max(-a / 3.0, 0.0))
    # a discriminant within rounding is a near-double root, which the clamp takes as double
    if not ((1.0 - 16.0 * _UNIT_ROUNDOFF) * b * b / 4.0 + a * a * a / 27.0 <= 0.0 and a * k < 0.0):
        return None  # not three real roots, so the quartic has real ones, or a * k underflows
    t = math.acos(max(-1.0, min(1.0, 1.5 * b / (a * k)))) / 3.0
    y = max(2.0 * k * math.cos(t) - 2.0 * p / 3.0, 0.0)  # the largest root is never negative
    s, sigma = math.sqrt(y), p + y
    disc = sigma * sigma - 4.0 * r
    # q/s rounds less than sqrt(disc) unless y is small beside the rounding error of disc
    d = q / s if abs(p * disc) < y * sigma * sigma else math.copysign(math.sqrt(abs(disc)), q)
    u, v = (sigma - d) / 2.0, (sigma + d) / 2.0
    if not u * v > 0.0:  # a factor t^2 + st + u with u <= 0 has real roots
        return None
    roots = [_real_quadratic(s / 2.0, u)[0] - h, _real_quadratic(-s / 2.0, v)[0] - h]
    return roots if all(0.0 < z.imag and abs(z) < _INF for z in roots) else None


def _real_quadratic(h, c) -> list:
    """The roots of z^2 + 2hz + c, c != 0: a conjugate pair, upper root first,
    or two real roots, the larger in modulus without cancellation and the
    other as c over it.  The discriminant h^2 - c is scaled by h^2 once
    |h| >= 1, so that it overflows only with the roots."""
    d = 1.0 - c / h / h if abs(h) >= 1.0 else h * h - c
    s = math.sqrt(abs(d)) * max(1.0, abs(h))
    if d < 0.0:
        return [complex(-h, s), complex(-h, -s)]
    r = -(h + math.copysign(s, h))
    return [complex(r), complex(c / r)]


def _sweeps(monic, roots, paired):
    """Weierstrass sweeps on ``roots`` until the stop rule of ``durand_kerner``.

    ``paired`` roots lie in the upper half-plane, each standing for itself and
    its conjugate, so the Weierstrass denominator of z_k is
    ``2i Im z_k * prod_{l != k} (z_k^2 - 2 Re z_l z_k + |z_l|^2)``.  A paired
    root stepped onto or across the real axis is reflected back, since its
    conjugate stands for the same pair; returns None once a sweep that is not
    stalled has made one root cross twice.
    """
    moduli = [abs(v) for v in monic]
    noise = 2.0 * (len(monic) - 1) * _UNIT_ROUNDOFF
    crossed = set()
    shift = _INF
    for _ in range(500):
        last, shift = shift, 0.0
        stalled = True
        recrossed = False
        new_roots = list(roots)
        others = ([(2.0 * w.real, w.real * w.real + w.imag * w.imag) for w in roots]
                  if paired else roots)
        residuals = _horner(monic, roots)
        for k, residual in enumerate(residuals):  # a Jacobi sweep on the old roots
            z = roots[k]
            if paired:
                denom = complex(0.0, 2.0 * z.imag)
                for t, s in others[:k] + others[k + 1:]:
                    denom *= z * (z - t) + s
            else:
                denom = 1 + 0j
                for w in others[:k] + others[k + 1:]:
                    denom *= z - w
            if denom == 0:
                denom = 1e-300
            if stalled:  # a NaN residual fails the comparison, so it never stalls
                stalled = abs(residual) <= _UNIT_ROUNDOFF * _horner(moduli, [abs(z)])[0]
            step = residual / denom
            new_roots[k] = z - step
            if paired and not new_roots[k].imag > 0.0:
                new_roots[k] = new_roots[k].conjugate()
                recrossed = recrossed or k in crossed
                crossed.add(k)
            shift = max(shift, abs(step))
        if stalled:
            break
        if recrossed:
            return None
        if paired and shift >= last and all(abs(r) <= noise * s for r, s in zip(
                residuals, _horner(moduli, [abs(z) for z in roots]))):
            break
        roots = new_roots
        if shift < 1e-14 * (1.0 + max(abs(z) for z in roots)):
            break
    return roots


def _horner(coeffs, points) -> list:
    """sum_n coeffs[n] t^n by Horner's rule at each t of ``points``, for float or
    complex coefficients and points."""
    out = []
    for t in points:
        acc = 0.0
        for a in reversed(coeffs):
            acc = acc * t + a
        out.append(acc)
    return out


def _zero_set_of_real_polynomial(sym: tuple) -> SphereZeroSet:
    """The zero set of the real polynomial ``sym``, solved factor by factor of
    its square-free split, each root carrying its factor's multiplicity.

    Each root of a factor takes two Newton steps on the derivative of ``sym``
    of which it is a simple root, and must then pass ``_unconverged`` on
    ``sym``; if one fails, or a factor does not converge, ``sym`` is solved
    whole, each root simple.  A root counts as real when no other root of its
    factor lies nearer its conjugate than the root itself; of a conjugate pair
    only the upper root is listed.
    """
    if not sym:
        raise ValueError("the zero polynomial vanishes everywhere")
    monic = [v / sym[-1] for v in sym]
    split = _square_free_split(monic)
    solved = None
    if split:
        try:
            solved = [(_newton(monic, durand_kerner(factor), m), m) for factor, m in split]
        except NonConvergence:
            pass
    if solved and _unconverged(monic, [z for roots, _ in solved for z in roots]) is not None:
        solved = None
    entries = []
    for roots, m in solved or [(durand_kerner(sym), 1)]:
        for z in roots:
            y, c = z.imag, z.conjugate()
            if not y or c not in roots and all(abs(w - c) >= 2.0 * abs(y) for w in roots):
                entries.append(ZeroEntry(z.real, 0.0, m))
            elif y > 0.0:
                entries.append(ZeroEntry(z.real, y, m))
    entries.sort(key=lambda e: (e.x, e.y))
    return SphereZeroSet(tuple(entries))


def _newton(coeffs, roots, m) -> list:
    """Each of ``roots``, roots of multiplicity ``m`` of ``coeffs``, after two
    Newton steps on the (m-1)-th derivative, of which they are simple roots."""
    for _ in range(m - 1):
        coeffs = _derivative(coeffs)
    slope = _derivative(coeffs)
    for _ in range(2):
        roots = [z - v / s if s else z
                 for z, v, s in zip(roots, _horner(coeffs, roots), _horner(slope, roots))]
    return roots


def _derivative(coeffs) -> list:
    """The coefficients of a real polynomial's derivative."""
    return [coeffs[k] * float(k) for k in range(1, len(coeffs))]


def _square_free_split(p: list):
    """Yun's square-free split of the monic real polynomial ``p``: ``(factor,
    multiplicity)`` pairs of monic factors with simple roots whose product,
    each to its multiplicity, is ``p``; None for a square-free ``p``, and for
    one whose split overflows or does not close.

    Each polynomial travels with an absolute error bound on its coefficients,
    ``_zero_bound`` of their moduli to begin with, which ``_gcd`` and
    ``_quotient`` carry along.  The leading coefficient of each ``d = c - b'``
    is exact: it counts the roots of multiplicity above m, so the split closes
    when it is 0, with b the last factor, and the degrees add up to p's.
    """
    n = len(p) - 1
    if n < 2 or not all(map(math.isfinite, p)):
        return None
    # z = 2^e u, exactly, with 2^e near the geometric mean of the roots' moduli if above 1
    e = max(0, round(math.log2(abs(p[0])) / n)) if p[0] else 0
    if e:
        p = [math.ldexp(v, e * (k - n)) for k, v in enumerate(p)]
    c = _derivative(p)
    p, c = (p, _scale_of(p)), (c, _scale_of(c))
    g = _gcd(p, c)
    if len(g[0]) == 1:
        return None
    b, c = _quotient(p, g), _quotient(c, g)
    split = []
    for m in range(1, n + 1):
        d = [u - v for u, v in zip(c[0], _derivative(b[0]))]
        if not d or d[-1] < 0.0:
            return None
        if d[-1] == 0.0:
            split.append((b[0], m))
            if e:
                split = [([math.ldexp(v, e * (len(a) - 1 - k)) for k, v in enumerate(a)], m)
                         for a, m in split]
            return split if all(math.isfinite(v) for a, _ in split for v in a) else None
        d = d, c[1] + len(d) * b[1]
        a = _gcd(b, d)
        if len(a[0]) > 1:
            split.append((a[0], m))
        b, c = _quotient(b, a), _quotient(d, a)
    return None


def _gcd(a, b) -> tuple:
    """The monic greatest common divisor of the monic ``a`` and of ``b``, of lower
    degree, by Euclid's algorithm on (coefficients, error bound) pairs.  A
    remainder's bound is the dividend's plus the quotient's moduli times the
    divisor's, and its leading coefficients count as zero within it, a
    backward-error test; the divisor then found is returned with the bound of
    its own coefficients plus what was discarded."""
    (a, err_a), (b, err_b) = a, (list(b[0]), b[1])
    while True:
        noise = 0.0
        while b and abs(b[-1]) <= err_b:
            noise += abs(b.pop())
        if len(b) < 2:  # a nonzero constant remainder: coprime
            return ([1.0], 0.0) if b else (a, _scale_of(a) + noise)
        lead = b[-1]
        divisor = [v / lead for v in b]
        _, b, size = _divide(a, divisor)
        a, err_a, err_b = divisor, err_b / abs(lead), err_a + size * err_b / abs(lead)


def _quotient(a, b) -> tuple:
    """``a`` divided by the monic ``b``, both (coefficients, error bound) pairs,
    where b divides a: the quotient, with a's bound plus the moduli of the
    remainder it drops."""
    q, r, _ = _divide(a[0], b[0])
    return q, a[1] + _fold_sum(map(abs, r))


def _divide(a, b) -> tuple:
    """Quotient and remainder of ``a`` by the monic ``b``, by synthetic division,
    and the sum of the quotient's moduli."""
    r = list(a)
    k = len(b) - 1
    q = []
    size = 0.0
    for i in range(len(a) - 1 - k, -1, -1):
        t = r[i + k]
        q.append(t)
        size += abs(t)
        for j in range(k):
            r[i + j] -= t * b[j]
    q.reverse()
    return q, r[:k], size


def sphere_zero_set(f: RegularPolynomial) -> SphereZeroSet:
    """Spheres x+yS (and real points) on which f has a zero.

    These are exactly the zeros of the symmetrization f^s, found as
    complex-polynomial roots on one slice; conjugate pairs collapse to one
    sphere entry, with multiplicities counted in f^s.
    """
    return _zero_set_of_real_polynomial(_symmetrized(f._c))


def zeros_on_sphere(f: RegularPolynomial, x: float, y: float):
    """Zeros of f on the sphere x + y*S.

    Writing f(x+yI) = b + I c with b, c independent of I, either c != 0 and
    the unique candidate is I = -b c^{-1} (a zero iff that is a unit
    imaginary), or b = c = 0 and the whole sphere vanishes.  Returns
    ``(is_spherical, zeros)``.
    """
    tol = 1e-6
    scale = 1.0 + f.coefficient_norm_sum()
    if abs(y) <= EPS:
        v = f.evaluate(Quaternion(x))
        return (False, [Quaternion(x)] if v.norm() <= tol * scale else [])
    z = complex(x, y)
    b = ZERO
    c = ZERO
    zn = 1 + 0j
    for a in f.coeffs:
        b = b + a * zn.real
        c = c + a * zn.imag
        zn *= z
    sphere_tol = 1e-9 * scale
    if c.norm() <= sphere_tol:
        return (b.norm() <= sphere_tol, [])
    axis = -(b * c.inverse())
    if abs(axis.w) > tol or abs(axis.norm() - 1.0) > tol:
        return (False, [])
    im = axis.imag()
    unit = im / im.norm()
    zero = _slice_point(float(x), float(y), unit)
    if f.evaluate(zero).norm() > tol * scale:
        return (False, [])
    return (False, [zero])
