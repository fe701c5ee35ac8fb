"""The zero-set solver: symmetrization zero sets and the roots behind them.

``rational.durand_kerner`` and ``rational.sphere_zero_set`` (and the method
``RegularQuotient.sphere_zero_set``) are the entry points; each imports this
module when it first runs, so ``verify`` and the CLI, which never solve, do
not load it.  Every solve made here goes through ``rational.durand_kerner``,
looked up on the module at call time, so a wrapper installed there sees
every solve, also one installed before or after this module loads.
"""

from __future__ import annotations

import cmath
import math
import sys

from . import rational
from .errors import NonConvergence
from .quaternion import (_INF, EPS, ZERO, Quaternion, _Frozen, _fold_sum, _setters, _slice_point,
                         _zero_bound)
from .rational import _derivative, _horner, _scale_of
from .series import RegularPolynomial

#: Unit roundoff of IEEE double precision; the backward-error stop of
#: ``durand_kerner`` compares residuals with it.
_UNIT_ROUNDOFF = 2.0 ** -53
#: Natural log of the largest double: |z|^n overflows once n log|z| exceeds it.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


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


def _durand_kerner(coeffs):
    """The body of ``rational.durand_kerner``, whose docstring describes it."""
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
                value = _horner(monic, [centre])[0]
                scale = abs(value) ** (1.0 / n)
                if not 0.0 < scale < _INF:
                    scale = radius
                # Aberth's angles (2 pi k + pi/2) / n on the upper arc
                roots = [centre + scale * cmath.exp(1j * math.pi * (k + 0.25) / m)
                         for k in range(m)]
                # the monic p of even degree has a real root on each side of a point where
                # it is negative, and the deflation refuses a factor with real roots
                if n > 4 and not (monic[0].real < 0.0 or value.real < 0.0):
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
            solved = [(_newton(monic, rational.durand_kerner(factor), m), m)
                      for factor, m in split]
        except NonConvergence:
            pass
    if solved and _unconverged(monic, [z for roots, _ in solved for z in roots]) is not None:
        solved = None
    entries = []
    for roots, m in solved or [(rational.durand_kerner(sym), 1)]:
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
