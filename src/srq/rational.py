"""Regular quotients, the sphere-preserving change of variables, and the
entry points of the zero-set solver.

Symmetrizations have real coefficients, and real-coefficient polynomials are
central for the star product.  Every regular quotient therefore evaluates as
``sym(q)^{-1} * conum(q)`` for a real polynomial ``sym`` and a polynomial
``conum`` (for a left quotient f^{-*}*g these are f^s and f^c*g), and in this
"expanded" form the ring of quotients multiplies componentwise:

    (S1, P1) * (S2, P2) = (S1*S2, P1*P2)

Quotients built from an explicit (den, num) pair keep the pair around; it
feeds the independent change-of-variables evaluation route and the cheap
pair-level conjugation and reciprocal.

Zero sets have two entry points here, ``durand_kerner`` (the complex roots of
a polynomial) and ``sphere_zero_set`` (the spheres on which a regular
polynomial vanishes), with the method ``RegularQuotient.sphere_zero_set``
beside them.  The solver itself is ``srq.zeros``, which each entry point
imports when it runs, so importing this module, as ``verify`` and the CLI do,
does not load it.
"""

from __future__ import annotations

from .errors import PoleError
from .quaternion import (_INF, ONE, Quaternion, _finite, _fold_sum, _Frozen, _hamilton,
                         _inverse, _make, _norm, _setters, _zero_bound, as_quaternion)
from .series import (RegularPolynomial, _convolve, _horner_floats, _lift, _real_polynomial,
                     _real_star, _reals, _symmetrized, evaluate_any)


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
        self._install_pair(den, num, side, *_den_parts(den))

    @classmethod
    def _pairs(cls, den: RegularPolynomial, side: str, nums, sym=None) -> list:
        """``RegularQuotient(den, num, side)`` for each polynomial of ``nums``, slot
        for slot, with den's sym and conjugate formed once for all of them.  ``sym``,
        when given, is den's symmetrization already formed (a pair over den holds it)."""
        sym, denc = _den_parts(den, sym)
        out = []
        for num in nums:
            obj = cls.__new__(cls)
            obj._install_pair(den, num, side, sym, denc)
            out.append(obj)
        return out

    def _install_pair(self, den, num, side, sym, denc):
        """The one pair builder under ``__init__`` and ``_pairs``: the conumerator
        den^c*num of a left pair or num*den^c of a right one, for den's sym and
        its conjugate ``denc``."""
        self._install(den, num, side, sym, denc * num if side == "left" else num * denc)

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
        """1^{-*}*p, slot for slot what ``__init__`` builds for the denominator 1:
        its sym is (1.0,), and its conumerator 1^c*p takes ``_real_star``'s unit
        branch, ``0.0 + c`` for each component c of p."""
        p = _as_poly(p)
        obj = cls.__new__(cls)
        obj._install(_ONE_POLY, p, "left", _UNIT_SYM, _real_star(_UNIT_SYM, p._c))
        return obj

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
        import srq.zeros as zeros  # absolute: a relative import takes about 1 us more per call
        return zeros._zero_set_of_real_polynomial(self._sym)

    def __repr__(self):
        if self.is_pair:
            return f"RegularQuotient(den={self.den!r}, num={self.num!r}, side={self.side!r})"
        return f"RegularQuotient.from_expanded({self.sym!r}, {self.conum!r})"


_set_den, _set_num, _set_side, _set_sym, _set_conum, _set_pole_scale = _setters(RegularQuotient)
_ONE_POLY = RegularPolynomial([ONE])  # the denominator of every lifted polynomial
_UNIT_SYM = (1.0,)  # its sym, ``_symmetrized(_ONE_POLY._c)``


def _den_parts(den: RegularPolynomial, sym=None) -> tuple:
    """(sym, conjugate) of a pair's denominator, refusing one that is identically zero;
    ``sym`` is taken as given when it is not None."""
    if den.is_zero:
        raise ValueError("denominator is identically zero")
    return (_symmetrized(den._c) if sym is None else sym), den.conjugate()


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


# -- zero sets: entry points of the solver in ``srq.zeros`` --------------------------


def durand_kerner(coeffs):
    """All complex roots of sum_n coeffs[n] z^n by simultaneous iteration.

    Exact-zero low-order coefficients are stripped first, each a root at 0.
    A linear polynomial and a real quadratic are solved in closed form
    (``_real_quadratic``).  Otherwise each sweep moves every root by a
    Jacobi-style Weierstrass step.  A real polynomial of even degree, as every
    symmetrization is, is iterated one root per conjugate pair (``_sweeps``)
    from the upper roots of its factors into real quadratics: a quartic's in
    closed form (``_quartic_start``), those of degree 6 and up deflated down to
    a quartic (``_deflated_start``) unless p(0) or p(centroid) is negative, which
    puts a real root on each side.  Without them, as with real roots, pairs
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
    final root, closed forms included, fails ``_unconverged``.  The solver and
    the helpers named here are in ``srq.zeros``, loaded on the first call.
    """
    import srq.zeros as zeros
    return zeros._durand_kerner(coeffs)


def sphere_zero_set(f: RegularPolynomial) -> "SphereZeroSet":
    """Spheres x+yS (and real points) on which f has a zero.

    These are exactly the zeros of the symmetrization f^s, found as
    complex-polynomial roots on one slice; conjugate pairs collapse to one
    sphere entry, with multiplicities counted in f^s.
    """
    import srq.zeros as zeros
    return zeros._zero_set_of_real_polynomial(_symmetrized(f._c))


# -- scalar kernels --------------------------------------------------------------------


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


def _derivative(coeffs) -> list:
    """The coefficients of a real polynomial's derivative."""
    return [coeffs[k] * float(k) for k in range(1, len(coeffs))]
