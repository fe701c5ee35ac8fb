"""Regular quotients, the change of variables, and symmetrization zero sets."""

import copy
import json
import math
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from srq import rational, zeros
from srq.errors import NonConvergence, PoleError
from srq.quaternion import I, J, K, ONE, ZERO, Quaternion, _zero_bound, as_quaternion
from srq.rational import (RegularQuotient, durand_kerner, sphere_zero_set,
                          star_transform, star_transform_inverse)
from srq.series import RegularPolynomial
from srq.zeros import zeros_on_sphere

import exact

Q = RegularPolynomial.identity()


def rand_quat(rng, scale=1.0):
    return Quaternion(rng.uniform(-scale, scale), rng.uniform(-scale, scale),
                      rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def rand_poly(rng, degree, scale=1.0):
    return RegularPolynomial([rand_quat(rng, scale) for _ in range(degree + 1)])


def point_off_poles(rng, quotient, scale=1.0):
    while True:
        q = rand_quat(rng, scale)
        if quotient.sym.evaluate(q).norm() > 1e-3 * (1 + quotient.sym.coefficient_norm_sum()):
            return q


def test_left_quotient_examples():
    rng = random.Random(0)
    g = rand_poly(rng, 3)
    trivial = RegularQuotient(RegularPolynomial([ONE]), g, "left")
    for _ in range(10):
        q = rand_quat(rng)
        assert trivial.evaluate(q).isclose(g.evaluate(q))

    recip = RegularQuotient(Q - I, RegularPolynomial([ONE]), "left")
    assert recip.evaluate(Quaternion(2)).isclose(Quaternion(0.4, 0.2))

    # the self-map centered at the origin is the identity
    m0 = RegularQuotient(RegularPolynomial([ONE]), Q, "left")
    assert m0.evaluate(Quaternion(0.1, 0.2, 0.3)).isclose(Quaternion(0.1, 0.2, 0.3))


def _slots(quotient) -> tuple:
    """Every slot of a pair quotient, floats as ``float.hex`` (which tells -0.0 from 0.0)."""
    def parts(coeffs):
        return [tuple(v.hex() for v in c) for c in coeffs]
    return ([v.hex() for v in quotient._sym], parts(quotient.conum._c),
            quotient._pole_scale.hex(), parts(quotient.den._c), parts(quotient.num._c),
            quotient.side)


def _lift_oracle(value):
    return RegularQuotient(RegularPolynomial([ONE]), value, "left")


_signed = st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-1e6, 1e6))
_signed_quats = st.builds(Quaternion, _signed, _signed, _signed, _signed)


@given(st.one_of(st.integers(-10**6, 10**6), _signed, _signed_quats,
                 st.lists(_signed_quats, max_size=5).map(RegularPolynomial)))
@example(RegularPolynomial())
@example(RegularPolynomial([Quaternion(-0.0, 1.0, -0.0, 0.0), Quaternion(0.0, -0.0, -0.0, -2.0)]))
@example(-0.0)
def test_a_lifted_polynomial_matches_the_quotient_over_one_slot_for_slot(value):
    # 1^{-*}*p is built without __init__; its conumerator 0.0 + c turns -0.0 to +0.0
    expected = _slots(_lift_oracle(value))
    assert _slots(RegularQuotient.from_polynomial(value)) == expected
    assert _slots(rational.as_quotient(value)) == expected


def _refusal(build, value):
    with pytest.raises((TypeError, ValueError)) as info:
        build(value)
    return info.type, str(info.value)


_signed_polys = st.lists(_signed_quats, max_size=4).map(RegularPolynomial)


@given(_signed_polys, st.lists(_signed_polys, max_size=3), st.sampled_from(["left", "right"]),
       st.booleans())
@example(RegularPolynomial([Quaternion(-0.0, 1.0, -0.0, 0.0), Quaternion(0.0, -0.0, -0.0, -2.0)]),
         [RegularPolynomial([Quaternion(-0.0, -0.0, 3.0, -0.0)]), RegularPolynomial()], "right", True)
@example(RegularPolynomial([Quaternion(0.0, -0.0, -0.0, -0.0)]), [Q], "left", False)
def test_pairs_over_one_denominator_match_the_quotient_slot_for_slot(den, nums, side, given_sym):
    # one sym and one conjugate of den serve every pair, given or formed once
    if den.is_zero:
        expected = _refusal(lambda d: RegularQuotient(d, ONE, side), den)
        assert expected == (ValueError, "denominator is identically zero")
        assert _refusal(lambda d: RegularQuotient._pairs(d, side, nums), den) == expected
        return
    sym = RegularQuotient(den, ONE, side)._sym if given_sym else None
    pairs = RegularQuotient._pairs(den, side, nums, sym)
    assert [_slots(p) for p in pairs] == [_slots(RegularQuotient(den, num, side)) for num in nums]
    assert all(p._sym is pairs[0]._sym for p in pairs)


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, "q", None, [ONE], 1j])
def test_a_lifted_polynomial_refuses_what_the_quotient_over_one_refuses(value):
    expected = _refusal(_lift_oracle, value)
    assert _refusal(RegularQuotient.from_polynomial, value) == expected
    if expected[0] is ValueError:
        assert _refusal(rational.as_quotient, value) == expected
    else:
        assert _refusal(rational.as_quotient, value) == \
            (TypeError, f"cannot interpret {value!r} as a regular quotient")


def test_right_quotient_definition():
    # g*h^{-*}(q) = h^s(q)^{-1} (g*h^c)(q)
    rng = random.Random(1)
    g, h = rand_poly(rng, 2), rand_poly(rng, 2)
    quotient = RegularQuotient(h, g, "right")
    for _ in range(10):
        q = point_off_poles(rng, quotient)
        expected = h.symmetrization().evaluate(q).inverse() * (g * h.conjugate()).evaluate(q)
        assert quotient.evaluate(q).isclose(expected, rel_tol=1e-12)


def test_pole_raises_on_whole_sphere():
    recip = RegularQuotient(Q - I, RegularPolynomial([ONE]), "left")
    for bad in (I, J, K, (I + J) / math.sqrt(2)):
        with pytest.raises(PoleError):
            recip.evaluate(bad)


def test_transform_route_at_real_points():
    # T_f fixes the reals, so there the quotient is the pointwise one
    rng = random.Random(2)
    f, g = rand_poly(rng, 2), rand_poly(rng, 2)
    quotient = RegularQuotient(f, g, "left")
    for x in (2.0, -0.75, 0.3):
        q = Quaternion(x)
        if quotient.sym.evaluate(q).norm() < 1e-6:
            continue
        expected = f.evaluate(q).inverse() * g.evaluate(q)
        assert quotient.evaluate(q).isclose(expected, rel_tol=1e-11)
        assert quotient.evaluate_via_transform(q).isclose(expected, rel_tol=1e-11)


def test_route_agreement_left():
    rng = random.Random(3)
    for _ in range(30):
        quotient = RegularQuotient(rand_poly(rng, rng.randint(1, 3)),
                                   rand_poly(rng, rng.randint(0, 3)), "left")
        for _ in range(20):
            q = point_off_poles(rng, quotient)
            direct = quotient.evaluate(q)
            via = quotient.evaluate_via_transform(q)
            assert (direct - via).norm() <= 1e-10 * (1 + direct.norm())


def test_route_agreement_right():
    rng = random.Random(4)
    for _ in range(20):
        num = rand_poly(rng, rng.randint(1, 3))
        quotient = RegularQuotient(rand_poly(rng, rng.randint(1, 3)), num, "right")
        for _ in range(20):
            q = point_off_poles(rng, quotient)
            if num.evaluate(q).norm() < 1e-2:
                continue
            direct = quotient.evaluate(q)
            via = quotient.evaluate_via_transform(q)
            assert (direct - via).norm() <= 1e-10 * (1 + direct.norm())


def test_star_transform_examples():
    f = Q - I
    for x in (-1.0, 0.0, 2.5):
        assert star_transform(f, Quaternion(x)).isclose(Quaternion(x))
    assert star_transform(f, J).isclose(I)
    # real constants act trivially; general constants conjugate
    assert star_transform(RegularPolynomial([Quaternion(3)]), J + K).isclose(J + K)
    c = Quaternion(1, 1)
    got = star_transform(RegularPolynomial([c]), J)
    expected = c.conjugate().inverse() * J * c.conjugate()
    assert got.isclose(expected)


def test_star_transform_refuses_a_zero_of_the_conjugate():
    # f = q - p has f^c = q - conj(p), which counts as zero within EPS (2 + |p|) = 2.5e-12
    p = Quaternion(0.0, 0.0, 0.5)
    f = RegularPolynomial([-p, ONE])
    with pytest.raises(PoleError):
        star_transform(f, p.conjugate() + 1e-12)
    assert star_transform(f, p.conjugate() + 1e-11).isclose(p.conjugate(), 1e-9)


def test_right_transform_route_refuses_a_zero_numerator_value():
    # the numerator q - j/2 counts as zero within EPS (1 + 1.5) = 2.5e-12 of j/2
    root = Quaternion(0.0, 0.0, 0.5)
    quotient = RegularQuotient(Q + 2.0, RegularPolynomial([-root, ONE]), "right")
    with pytest.raises(ValueError, match="nonzero numerator value"):
        quotient.evaluate_via_transform(root + 1e-12)
    q = root + 1e-11
    assert quotient.evaluate_via_transform(q).isclose(quotient.evaluate(q), abs_tol=1e-15)


def test_star_transform_preserves_spheres():
    rng = random.Random(5)
    for _ in range(30):
        f = rand_poly(rng, rng.randint(1, 3))
        q = rand_quat(rng)
        try:
            w = star_transform(f, q)
        except PoleError:
            continue
        assert abs(w.w - q.w) < 1e-10
        assert abs(w.imag_norm() - q.imag_norm()) < 1e-10
        # inverse transform comes from the conjugate polynomial
        assert star_transform_inverse(f, w).isclose(q, rel_tol=1e-9, abs_tol=1e-11)


def test_durand_kerner_against_companion_roots():
    rng = random.Random(6)
    for _ in range(25):
        coeffs = [rng.uniform(-2, 2) for _ in range(rng.randint(2, 7))]
        if abs(coeffs[-1]) < 0.1:
            coeffs[-1] = 1.0
        mine = sorted(durand_kerner(coeffs), key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        ref = sorted(np.roots(list(reversed(coeffs))),
                     key=lambda z: (round(z.real, 6), round(z.imag, 6)))
        assert len(mine) == len(ref)
        for a, b in zip(mine, ref):
            assert abs(a - complex(b)) < 1e-6


def _separated_centres(rng, count):
    """(x, y) sphere centres with y >= 0.2, pairwise at least 0.4 apart."""
    centres = []
    while len(centres) < count:
        x, y = rng.uniform(-0.8, 0.8), rng.uniform(0.2, 0.9)
        if all(math.hypot(x - a, y - b) >= 0.4 for a, b in centres):
            centres.append((x, y))
    return centres


def test_durand_kerner_recovers_separated_conjugate_pairs():
    rng = random.Random(61)
    for _ in range(200):
        wanted = [complex(x, y) for x, y in _separated_centres(rng, rng.randint(1, 4))]
        coeffs = [1.0]
        for r in wanted:  # times |r|^2 - 2 Re(r) z + z^2
            quad = (abs(r) ** 2, -2.0 * r.real, 1.0)
            coeffs = [sum(coeffs[n - k] * quad[k] for k in range(3) if 0 <= n - k < len(coeffs))
                      for n in range(len(coeffs) + 2)]
        roots = durand_kerner(coeffs)
        assert len(roots) == 2 * len(wanted)
        for r in wanted:
            for root in (r, r.conjugate()):
                assert min(abs(z - root) for z in roots) <= 1e-12 * (1.0 + abs(root))


@pytest.mark.parametrize("coeffs", [[math.nan, 0.0, 1.0], [1.0, math.inf, 1.0],
                                    [complex(0.0, math.nan), 1.0]])
def test_durand_kerner_refuses_non_finite_coefficients(coeffs):
    with pytest.raises(ValueError, match="finite"):
        durand_kerner(coeffs)


def test_durand_kerner_raises_on_nan_roots():
    # the monic normalization overflows; NaN roots used to pass the residual check
    with pytest.raises(NonConvergence):
        durand_kerner([1e308, 1.0, 1e-300])


def test_durand_kerner_degree_one_overflow_raises():
    # the closed-form root of 1e308 + 1e-300 z is -inf; it must not be returned
    with pytest.raises(NonConvergence):
        durand_kerner([1e308, 1e-300])
    with pytest.raises(NonConvergence):
        RegularQuotient.from_expanded(
            RegularPolynomial([Quaternion(1e308), Quaternion(1e-300)]), 1).sphere_zero_set()


@pytest.mark.parametrize("coeffs", [[3.0, 7.0], [1e300, 1e-5], [1 + 2j, 3 - 1j], [0.0, 2.0]])
def test_durand_kerner_degree_one_root_is_the_closed_form(coeffs):
    c0, c1 = (complex(v) for v in coeffs)
    assert durand_kerner(coeffs) == [-(c0 / c1)]


def test_overflowing_zero_set_is_not_reported_empty():
    # f vanishes on the sphere 0 + 1e300*S, which an empty set would hide
    with pytest.raises(NonConvergence):
        sphere_zero_set(RegularPolynomial([Quaternion(1e150), Quaternion(0, 1e-150)]))


@st.composite
def factor_products(draw):
    """One to three factors (q - p_j)^{m_j}, m_j <= 3, on spheres 0.4 apart."""
    count = draw(st.integers(1, 3))
    centre = st.tuples(st.floats(-0.8, 0.8), st.floats(0.2, 0.9))
    centres = draw(st.lists(centre, min_size=count, max_size=count))
    assume(all(math.hypot(a[0] - b[0], a[1] - b[1]) >= 0.4
               for n, a in enumerate(centres) for b in centres[:n]))
    f = RegularPolynomial([ONE])
    spheres = []
    for x, y in centres:
        axis = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))
        norm = math.sqrt(sum(v * v for v in axis))
        assume(norm > 0.1)
        m = draw(st.integers(1, 3))
        p = Quaternion(x, *(v * y / norm for v in axis))
        for _ in range(m):
            f = f * (Q - p)
        spheres.append((x, y, m))
    return f, spheres


@given(factor_products())
def test_zero_set_of_factor_products(case):
    f, spheres = case
    entries = list(sphere_zero_set(f))
    assert len(entries) == len(spheres)
    for x, y, m in spheres:  # spheres lie 0.4 apart, so the nearest entry is the match
        entry = min(entries, key=lambda e: math.hypot(e.x - x, e.y - y))
        assert abs(entry.x - x) <= 1e-6 and abs(entry.y - y) <= 1e-6
        assert entry.multiplicity == m


def test_zero_set_of_two_spheres_with_one_real_part():
    # (q-p1)(q-p2)(q-p3)^2 with p1 and p3 on two spheres of real part 0.365.  The
    # double sphere's x comes back off by up to about 1e-9, with a sign that depends
    # on the solver's rounding, so whether a pairing that sorts entries by (x, y)
    # swaps the two spheres at 0.365 is decided by that rounding; matched by nearest
    # centre, every sphere and its multiplicity is right within 1e-9
    p1 = Quaternion(0.365, -0.025, -0.071, -0.323)
    p2 = Quaternion(-0.279, 0.65, -0.197, -0.002)
    p3 = Quaternion(0.365, 0.704, -0.379, 0.148)
    f = (Q - p1) * (Q - p2) * (Q - p3) * (Q - p3)
    spheres = [(p.w, p.imag_norm(), m) for p, m in ((p2, 1), (p1, 1), (p3, 2))]
    entries = list(sphere_zero_set(f))
    assert len(entries) == 3
    for x, y, m in spheres:
        entry = min(entries, key=lambda e: math.hypot(e.x - x, e.y - y))
        assert abs(entry.x - x) <= 1e-9 and abs(entry.y - y) <= 1e-9
        assert entry.multiplicity == m
    # a sort by x rounded well above that error pairs them whatever its sign
    got = sorted((round(e.x, 6), e.y, e.multiplicity) for e in entries)
    assert [m for _, _, m in got] == [m for _, _, m in sorted(spheres)]


def test_sphere_zero_set_examples():
    entries = list(sphere_zero_set(Q - I))
    assert len(entries) == 1
    assert abs(entries[0].x) < 1e-9 and abs(entries[0].y - 1) < 1e-9
    assert entries[0].multiplicity == 1

    entries = list(sphere_zero_set(Q - 2))
    assert len(entries) == 1
    assert entries[0].is_real_point and abs(entries[0].x - 2) < 1e-6

    entries = list(sphere_zero_set((Q - I) * (Q - J)))
    assert len(entries) == 1
    assert abs(entries[0].x) < 1e-6 and abs(entries[0].y - 1) < 1e-6
    assert entries[0].multiplicity == 2


def test_every_zero_lies_on_a_listed_sphere():
    rng = random.Random(7)
    for _ in range(25):
        f = rand_poly(rng, rng.randint(1, 4))
        fs = f.symmetrization()
        for entry in sphere_zero_set(f):
            spherical, zeros = zeros_on_sphere(f, entry.x, entry.y)
            if spherical:
                # the whole sphere vanishes; check one representative
                rep = Quaternion(entry.x) + J * entry.y
                assert f.evaluate(rep).norm() < 1e-6 * (1 + f.coefficient_norm_sum())
                continue
            assert zeros, f"no zero found on listed sphere ({entry.x}, {entry.y})"
            for z in zeros:
                assert fs.evaluate(z).norm() < 1e-8 * (1 + fs.coefficient_norm_sum())


def test_zero_count_matches_conjugate():
    rng = random.Random(8)
    for _ in range(25):
        f = rand_poly(rng, rng.randint(1, 4))
        fc = f.conjugate()
        for entry in sphere_zero_set(f):
            sph_f, zf = zeros_on_sphere(f, entry.x, entry.y)
            sph_c, zc = zeros_on_sphere(fc, entry.x, entry.y)
            assert sph_f == sph_c
            assert len(zf) == len(zc)


def test_unique_zero_of_nonsymmetric_product():
    f = (Q - I) * (Q - J)
    spherical, zeros = zeros_on_sphere(f, 0.0, 1.0)
    assert not spherical
    assert len(zeros) == 1
    assert zeros[0].isclose(I, abs_tol=1e-9)
    # the conjugate has its single zero at -j
    spherical, zeros = zeros_on_sphere(f.conjugate(), 0.0, 1.0)
    assert zeros[0].isclose(-J, abs_tol=1e-9)


def test_a_candidate_off_the_zero_is_rejected_by_its_residual():
    # f = q * (q - p) vanishes at p = 0.5 + 3.9j.  On the sphere 0.5 + y S with
    # y = 3.9 (1 + 5e-7), I = -b c^-1 is within the 1e-6 unit test, but the
    # candidate 0.5 + y I misses the zero by a residual above 1e-6 (1 + sum |a_n|):
    # |c| is larger than the coefficient sum there, so the residual outgrows the test
    class Traced(RegularPolynomial):
        __slots__ = ()

        def evaluate(self, q):
            candidates.append(q)
            return RegularPolynomial.evaluate(self, q)

    p = Quaternion(0.5, 0.0, 3.9)
    f = Traced([ZERO, -p, ONE])
    candidates = []
    assert zeros_on_sphere(f, 0.5, 3.9) == (False, [p])
    candidates = []
    y = 3.9 * (1 + 5e-7)
    assert zeros_on_sphere(f, 0.5, y) == (False, [])
    assert len(candidates) == 1 and candidates[0].isclose(Quaternion(0.5, 0.0, y), abs_tol=1e-12)
    assert f.evaluate(candidates[0]).norm() > 1e-6 * (1.0 + f.coefficient_norm_sum())


def test_symmetrization_vanishes_on_whole_sphere():
    spherical, zeros = zeros_on_sphere((Q - I).symmetrization(), 0.0, 1.0)
    assert spherical and not zeros


def test_dense_sampling_refinement_oracle():
    # independent minimization over the sphere confirms the algebraic zero
    from scipy.optimize import minimize

    f = (Q - I) * (Q - J)

    def modulus(angles):
        theta, phi = angles
        axis = Quaternion(0, math.sin(theta) * math.cos(phi),
                          math.sin(theta) * math.sin(phi), math.cos(theta))
        return f.evaluate(axis).norm()

    best = None
    n = 40
    for a in range(n):
        for b in range(n):
            theta = math.pi * (a + 0.5) / n
            phi = 2 * math.pi * b / n
            val = modulus((theta, phi))
            if best is None or val < best[0]:
                best = (val, (theta, phi))
    refined = minimize(modulus, best[1], method="Nelder-Mead",
                       options={"xatol": 1e-12, "fatol": 1e-14})
    theta, phi = refined.x
    found = Quaternion(0, math.sin(theta) * math.cos(phi),
                       math.sin(theta) * math.sin(phi), math.cos(theta))
    assert refined.fun < 1e-6
    assert found.isclose(I, abs_tol=1e-4)
    assert f.symmetrization().evaluate(found).norm() < 1e-8


def test_quotient_conjugate_involution():
    rng = random.Random(9)
    q0 = I * 0.5
    m = RegularQuotient(RegularPolynomial([ONE, -q0.conjugate()]),
                        RegularPolynomial([-q0, ONE]), "left")
    mc = m.conjugate()
    assert mc.side == "right"
    back = mc.conjugate()
    for _ in range(20):
        q = point_off_poles(rng, m, 0.8)
        assert back.evaluate(q).isclose(m.evaluate(q), rel_tol=1e-12)


def test_conjugate_of_real_denominator():
    # real-coefficient denominator: Q^c = f^{-*} * g^c pointwise
    rng = random.Random(10)
    f = RegularPolynomial([Quaternion(2), Quaternion(1)])
    g = rand_poly(rng, 2)
    quotient = RegularQuotient(f, g, "left")
    conj = quotient.conjugate()
    manual = RegularQuotient(f, g.conjugate(), "left")
    for _ in range(15):
        q = point_off_poles(rng, quotient)
        assert conj.evaluate(q).isclose(manual.evaluate(q), rel_tol=1e-11)


def test_quotient_symmetrization_at_real_points():
    rng = random.Random(11)
    f, g = rand_poly(rng, 2), rand_poly(rng, 3)
    quotient = RegularQuotient(f, g, "left")
    for x in (0.5, -1.25, 2.0):
        q = Quaternion(x)
        value = quotient.symmetrization().evaluate(q)
        expected = f.symmetrization().evaluate(q).inverse() * g.symmetrization().evaluate(q)
        assert value.is_real(1e-9 * (1 + value.norm()))
        assert value.isclose(expected, rel_tol=1e-10)


def test_quotient_star_product():
    rng = random.Random(12)
    one = RegularQuotient(RegularPolynomial([ONE]), RegularPolynomial([ONE]), "left")
    q1 = RegularQuotient(rand_poly(rng, 2), rand_poly(rng, 2), "left")
    prod = q1 * one
    for _ in range(15):
        q = point_off_poles(rng, q1)
        assert prod.evaluate(q).isclose(q1.evaluate(q), rel_tol=1e-11)

    # (q-i)^{-*} squared: denominator-symmetrization (q^2+1)^2, conumerator (q+i)*(q+i)
    recip = RegularQuotient(Q - I, RegularPolynomial([ONE]), "left")
    square = recip * recip
    expected_sym = RegularPolynomial([ONE, ZERO, ONE]) ** 2
    assert square.sym.isclose(expected_sym, rel_tol=1e-12)
    assert square.conum.isclose((Q + I) * (Q + I), rel_tol=1e-12)

    # with trivial denominators the product is the star product of numerators
    f, g = rand_poly(rng, 2), rand_poly(rng, 2)
    both = RegularQuotient.from_polynomial(f) * RegularQuotient.from_polynomial(g)
    for _ in range(10):
        q = rand_quat(rng)
        assert both.evaluate(q).isclose((f * g).evaluate(q), rel_tol=1e-11)


def test_quotient_product_pointwise_formula():
    # (f^{-*}*g)*(h^{-*}*k)(q) = (f^s h^s)(q)^{-1} (f^c*g*h^c*k)(q)
    rng = random.Random(13)
    f, g, h, k = (rand_poly(rng, 2) for _ in range(4))
    prod = RegularQuotient(f, g, "left") * RegularQuotient(h, k, "left")
    big = f.conjugate() * g * h.conjugate() * k
    for _ in range(15):
        q = point_off_poles(rng, prod)
        expected = (f.symmetrization().evaluate(q) * h.symmetrization().evaluate(q)
                    ).inverse() * big.evaluate(q)
        assert prod.evaluate(q).isclose(expected, rel_tol=1e-9, abs_tol=1e-11)


def test_ring_operations_pointwise():
    rng = random.Random(14)
    q1 = RegularQuotient(rand_poly(rng, 2), rand_poly(rng, 2), "left")
    q2 = RegularQuotient(rand_poly(rng, 1), rand_poly(rng, 2), "right")
    total = q1 + q2
    # inversion is a ring identity: the star product with the reciprocal is 1
    unit = q1.reciprocal() * q1
    for _ in range(15):
        q = point_off_poles(rng, total)
        assert total.evaluate(q).isclose(q1.evaluate(q) + q2.evaluate(q),
                                         rel_tol=1e-9, abs_tol=1e-11)
    for _ in range(15):
        q = point_off_poles(rng, unit)
        assert unit.evaluate(q).isclose(ONE, rel_tol=1e-8)


def test_quotient_remainder_matches_polynomial_remainder():
    rng = random.Random(15)
    f = rand_poly(rng, 4)
    q0 = rand_quat(rng)
    ring = RegularQuotient.from_polynomial(f).remainder(q0)
    poly = f.remainder(q0)
    for _ in range(10):
        q = point_off_poles(rng, ring)
        assert ring.evaluate(q).isclose(poly.evaluate(q), rel_tol=1e-9, abs_tol=1e-11)


def test_json_roundtrip():
    quotient = RegularQuotient(Q - I, Q - J, "right")
    again = RegularQuotient.from_json(quotient.to_json())
    assert again.den == quotient.den
    assert again.num == quotient.num
    assert again.side == "right"


def test_zero_quotient_cannot_be_inverted():
    q1 = RegularQuotient(Q - I, RegularPolynomial(), "left")
    assert q1.evaluate(Quaternion(2)) == ZERO
    with pytest.raises(ValueError):
        q1.reciprocal()


def expanded_quotients(rng):
    a = RegularQuotient(rand_poly(rng, 2), rand_poly(rng, 1), "left")
    b = RegularQuotient(rand_poly(rng, 1), rand_poly(rng, 2), "right")
    return [a + b, a * b, a - b, a.cullen_derivative()]


def test_reciprocal_of_an_expanded_quotient_is_a_left_pair():
    rng = random.Random(13)
    for f in expanded_quotients(rng):
        assert not f.is_pair
        r = f.reciprocal()
        # S^{-1}P is the left pair S^{-*}*P, so its reciprocal is P^{-*}*S
        assert r.is_pair and (r.side, r.den, r.num) == ("left", f.conum, f.sym)
        assert (r.sym, r.conum) == (f.conum.symmetrization(), f.conum.conjugate() * f.sym)
        assert RegularQuotient.from_json(r.to_json()) == r
        for _ in range(10):
            q = point_off_poles(rng, r)
            if f.sym.evaluate(q).norm() < 1e-3:
                continue  # a pole of f, and so of r * f
            value = r.evaluate(q)
            assert (r.evaluate_via_transform(q) - value).norm() <= 1e-10 * (1 + value.norm())
            assert ((r * f).evaluate(q) - ONE).norm() <= 1e-10


def test_symmetrization_of_an_expanded_quotient_squares_its_sym():
    def hexes(p):
        return [[v.hex() for v in c.to_json()] for c in p.coeffs]

    rng = random.Random(14)
    for f in expanded_quotients(rng):
        got = f.symmetrization()
        assert hexes(got.sym) == hexes(f.sym * f.sym)
        assert hexes(got.conum) == hexes(f.conum.symmetrization())


def _corrupt_sym(quotient):
    # double sym's stored real coefficients in place: the direct route sees it,
    # an independent route must not
    object.__setattr__(quotient, "_sym", tuple(2.0 * w for w in quotient._sym))


@pytest.mark.parametrize("side", ["left", "right"])
def test_transform_route_does_not_read_sym(side):
    rng = random.Random(11)
    quotient = RegularQuotient(rand_poly(rng, 2), rand_poly(rng, 2), side)
    q = point_off_poles(rng, quotient)
    assert quotient.num.evaluate(q).norm() > 1e-2
    before = quotient.evaluate_via_transform(q)
    _corrupt_sym(quotient)
    direct = quotient.evaluate(q)
    via = quotient.evaluate_via_transform(q)
    assert via == before
    assert (direct - via).norm() > 0.1 * via.norm()


def test_right_routes_agree_to_rounding_level():
    rng = random.Random(12)
    checked = 0
    for _ in range(30):
        num = rand_poly(rng, rng.randint(1, 3))
        quotient = RegularQuotient(rand_poly(rng, rng.randint(1, 3)), num, "right")
        for _ in range(10):
            q = point_off_poles(rng, quotient)
            if num.evaluate(q).norm() < 1e-2:
                continue
            direct = quotient.evaluate(q)
            via = quotient.evaluate_via_transform(q)
            assert (direct - via).norm() <= 1e-12 * (1 + direct.norm())
            checked += 1
    assert checked > 200


def test_quotient_with_huge_coefficients_evaluates_to_its_tiny_value():
    # sym = (1e80 + q)^2 has |sym(q)|^2 near 1e320, which overflows a double
    quotient = RegularQuotient(RegularPolynomial([Quaternion(1e80), ONE]), RegularPolynomial([ONE]))
    value = quotient.evaluate(Quaternion(0.1))
    assert math.isclose(value.w, 1.0 / (1e80 + 0.1), rel_tol=1e-12)  # not 0
    assert value.imag_norm() == 0.0


def test_zero_polynomial_has_no_zero_set():
    with pytest.raises(ValueError, match="vanishes everywhere"):
        sphere_zero_set(RegularPolynomial())


@pytest.mark.parametrize("coeffs", [[1.0, 0.0, 0.0, 1e-200], [1.0] + [0.0] * 6 + [1e-300]])
def test_durand_kerner_finds_huge_roots_of_wide_range_coefficients(coeffs):
    # (1 + max|c_k|)^n of the monic polynomial overflows a double, so a start on
    # that circle made every Horner residual NaN; the roots (moduli 4.6e66 and
    # 7.2e42) are representable
    roots = durand_kerner(coeffs)
    ref = np.roots(list(reversed(coeffs)))
    assert len(roots) == len(ref) == len(coeffs) - 1
    for z in ref:
        assert min(abs(r - complex(z)) for r in roots) <= 1e-9 * abs(z)


def test_right_transform_pole_error_names_the_callers_point():
    # the route evaluates the denominator at g(q)^{-1} q g(q) = -j, but the caller asked about k
    quotient = RegularQuotient(Q - I, Q - J, "right")
    with pytest.raises(PoleError, match=r"^k maps onto a zero of the denominator$"):
        quotient.evaluate_via_transform(K)


# -- the fused evaluation against its quaternion-level oracle ---------------------------
#
# RegularQuotient.evaluate runs both Horner passes, the pole test, the inverse and
# the product on unpacked floats; the oracle is the quaternion-level body it
# replaces, and the two must agree bit for bit and raise the same errors.


def quotient_oracle(quotient, q):
    s = quotient.sym.evaluate(q)
    if s.norm() < quotient._pole_scale:
        raise PoleError(f"{q} lies on the zero set of the denominator symmetrization")
    return s.inverse() * quotient.conum.evaluate(q)


def outcome(evaluate, quotient, q):
    # float.hex tells -0.0 from 0.0, which == does not
    try:
        value = evaluate(quotient, q)
    except (PoleError, ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    return tuple(c.hex() for c in (value.w, value.x, value.y, value.z))


def signed_zero_quat(rng, scale=1.0):
    # each component is a signed zero or a random value, with some of each
    return Quaternion(*(rng.choice([0.0, -0.0]) if rng.random() < 0.5
                        else rng.uniform(-scale, scale) for _ in range(4)))


def fused_case(rng, side, den_degree, num_degree):
    """A quotient whose denominator vanishes at a known point, and that point."""
    pole = rand_quat(rng)
    den = RegularPolynomial([rand_quat(rng, 2.0)])
    if den_degree > 0:
        den = (Q - pole) * rand_poly(rng, den_degree - 1)
    num = RegularPolynomial() if num_degree < 0 else rand_poly(rng, num_degree)
    return RegularQuotient(den, num, side), pole


def fused_points(rng, quotient, pole, count):
    for n in range(count):
        kind = n % 5
        if kind == 0:
            yield rand_quat(rng, 1.5)
        elif kind == 1:  # real, with signed-zero imaginary parts
            yield Quaternion(rng.uniform(-1.5, 1.5), *(rng.choice([0.0, -0.0]) for _ in range(3)))
        elif kind == 2:
            yield signed_zero_quat(rng, 1.5)
        elif kind == 3:  # within 10 pole scales of the pole
            step = rand_quat(rng)
            yield pole + step * (10.0 * quotient._pole_scale * rng.random() / step.norm())
        else:  # the pole's whole sphere is excluded
            axis = rand_quat(rng).imag()
            sc = pole.slice_decompose()
            yield Quaternion(sc.x0) + axis * (sc.y0 / axis.norm())


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from(["left", "right"]),
       st.integers(0, 3), st.integers(-1, 3))
@settings(max_examples=120)
def test_fused_evaluation_matches_the_quaternion_oracle_bit_for_bit(seed, side, den_degree,
                                                                    num_degree):
    # 120 examples of 100 points: 12,000 evaluations
    rng = random.Random(seed)
    quotient, pole = fused_case(rng, side, den_degree, num_degree)
    for q in fused_points(rng, quotient, pole, 100):
        assert outcome(RegularQuotient.evaluate, quotient, q) == outcome(quotient_oracle, quotient, q)


def test_fused_evaluation_covers_its_degenerate_shapes():
    # the shapes the property above must reach, each seen at least once
    rng = random.Random(31)
    seen = set()
    for den_degree, num_degree in [(0, 0), (0, -1), (1, -1), (1, 0), (2, 3), (3, 2)]:
        for side in ("left", "right"):
            quotient, pole = fused_case(rng, side, den_degree, num_degree)
            for q in fused_points(rng, quotient, pole, 200):
                got = outcome(RegularQuotient.evaluate, quotient, q)
                assert got == outcome(quotient_oracle, quotient, q)
                seen.add(got[0] if got[0] is PoleError else "value")
                if quotient.sym.degree == 0:
                    seen.add("sym of degree 0")
                if quotient.conum.degree == 0:
                    seen.add("conum of degree 0")
                if quotient.conum.is_zero:
                    seen.add("zero conum")
    assert seen == {PoleError, "value", "sym of degree 0", "conum of degree 0", "zero conum"}


@pytest.mark.parametrize("quotient, q, error", [
    # sym = (1e153 (1 + q))^s has finite coefficients but overflows at q = 100
    (RegularQuotient(RegularPolynomial([1e153, 1e153]), ONE), Quaternion(100.0), ValueError),
    # conum = 1e300 q^2 overflows at q = 1e5 while sym = 1 does not
    (RegularQuotient(ONE, RegularPolynomial([0.0, 0.0, 1e300])), Quaternion(1e5), ValueError),
    (RegularQuotient(Q - I, ONE), I, PoleError),
    # den's squares underflow, so sym is the zero polynomial
    (RegularQuotient(RegularPolynomial([1e-300, 1e-300]), ONE), Quaternion(0.5), PoleError),
])
def test_fused_evaluation_raises_what_the_oracle_raises(quotient, q, error):
    expected = outcome(quotient_oracle, quotient, q)
    assert expected[0] is error
    assert outcome(RegularQuotient.evaluate, quotient, q) == expected


def test_empty_sym_quotient_is_a_pole_everywhere():
    quotient = RegularQuotient(RegularPolynomial([1e-300, 1e-300]), 1)
    assert quotient.sym.coeffs == ()
    for q in (ZERO, Quaternion(0.5), I):
        with pytest.raises(PoleError):
            quotient.evaluate(q)


def test_fused_evaluation_survives_an_overflowing_squared_modulus_bit_for_bit():
    # |sym(q)|^2 overflows: the inverse divides by |sym(q)| twice, as inverse() does
    quotient = RegularQuotient(RegularPolynomial([Quaternion(1e80, 1e79), ONE]), Q + J)
    for q in (Quaternion(0.1), Quaternion(0.1, -0.0, 0.2), J * 0.5):
        got = outcome(RegularQuotient.evaluate, quotient, q)
        assert got == outcome(quotient_oracle, quotient, q)
        assert got[0] != PoleError


# -- the transform route against its quaternion-level oracle ----------------------------
#
# star_transform and evaluate_via_transform run on float 4-tuples; the oracles are the
# quaternion-level bodies they replace, and the two must agree bit for bit and raise
# the same errors with the same messages.


def star_transform_oracle(f, q):
    q = as_quaternion(q)
    fc = f.conjugate()
    v = fc.evaluate(q)
    if v.norm() < _zero_bound(fc.coefficient_norm_sum()):
        raise PoleError(f"conjugate denominator vanishes at {q}")
    return v.inverse() * q * v


def transform_oracle(quotient, q):
    q = p = as_quaternion(q)
    if quotient.side == "right":
        gq = quotient.num.evaluate(q)
        if gq.norm() < _zero_bound(quotient.num.coefficient_norm_sum()):
            raise ValueError("transform route for a right quotient needs a nonzero numerator value")
        p = gq.inverse() * q * gq
    w = star_transform_oracle(quotient.den, p)
    fw = quotient.den.evaluate(w)
    if fw.norm() < _zero_bound(quotient.den.coefficient_norm_sum()):
        raise PoleError(f"{q} maps onto a zero of the denominator")
    if quotient.side == "right":
        return gq * fw.inverse()
    return fw.inverse() * quotient.num.evaluate(w)


@pytest.mark.parametrize("side", ["left", "right"])
def test_transform_route_matches_the_quaternion_oracle_bit_for_bit(side):
    # the fused cases' quotients and points, signed zeros and poles' spheres included
    rng = random.Random(f"transform-route-{side}")
    seen = set()
    for _ in range(60):
        quotient, pole = fused_case(rng, side, rng.randint(0, 3), rng.randint(-1, 3))
        for q in fused_points(rng, quotient, pole, 50):
            got = outcome(RegularQuotient.evaluate_via_transform, quotient, q)
            assert got == outcome(transform_oracle, quotient, q)
            assert (outcome(star_transform, quotient.den, q)
                    == outcome(star_transform_oracle, quotient.den, q))
            seen.add(got[0] if type(got[0]) is type else "value")
    assert {"value", PoleError} <= seen


c_unit = Quaternion(0.5, -0.5, -0.5, -0.5)
huge = 1e308


@pytest.mark.parametrize("quotient, q, error, message", [
    # f = q - i has f^c = q + i, which vanishes at -i
    (RegularQuotient(Q - I, Q + J), -I, PoleError, "conjugate denominator vanishes at -i"),
    (RegularQuotient(Q + 2.0, Q - J, "right"), J, ValueError, "nonzero numerator value"),
    # T_f(i) = i is a zero of f = q - i
    (RegularQuotient(Q - I, Q + J), I, PoleError, "i maps onto a zero of the denominator"),
    # f^c(q) = conj(c) makes T_f(q) a rotation of q, whose first product overflows
    (RegularQuotient(RegularPolynomial([c_unit]), Q), Quaternion(huge, huge, huge, huge),
     ValueError, "non-finite"),
    # T_f(q) is finite, but f(T_f(q))^{-1} g(T_f(q)) overflows
    (RegularQuotient(RegularPolynomial([c_unit]), Q), Quaternion(huge, -huge, -huge, -huge),
     ValueError, "non-finite"),
    # g(q) = c, and the first product of g(q)^{-1} q g(q) overflows
    (RegularQuotient(ONE, RegularPolynomial([c_unit]), "right"), Quaternion(huge, -huge, -huge, -huge),
     ValueError, "non-finite"),
])
def test_transform_route_raises_what_the_oracle_raises(quotient, q, error, message):
    expected = outcome(transform_oracle, quotient, q)
    assert expected[0] is error and message in expected[1]
    assert outcome(RegularQuotient.evaluate_via_transform, quotient, q) == expected


def test_zeros_on_sphere_at_a_real_point_and_on_a_sphere_without_zeros():
    f = (Q - 0.5) * (Q - I)
    assert zeros_on_sphere(f, 0.5, 0.0) == (False, [Quaternion(0.5)])
    assert zeros_on_sphere(f, 0.2, 0.0) == (False, [])
    assert zeros_on_sphere(f, 0.0, 0.5) == (False, [])  # the sphere of 0.5i holds no zero
    spherical, zeros = zeros_on_sphere(f, 0.0, 1.0)
    assert not spherical and len(zeros) == 1


def test_from_expanded_refuses_a_zero_or_non_real_denominator():
    with pytest.raises(ValueError, match="identically zero"):
        RegularQuotient.from_expanded(RegularPolynomial(), Q)
    with pytest.raises(ValueError, match="real coefficients"):
        RegularQuotient.from_expanded(Q - I, Q)
    # realness is judged within EPS (1 + sum |sym_n|), the scale of the pole test
    admitted = RegularQuotient.from_expanded(RegularPolynomial([Quaternion(1e6, 1e-7)]), Q)
    assert admitted._pole_scale == 1e-12 * (1.0 + Quaternion(1e6, 1e-7).norm())
    with pytest.raises(ValueError, match="real coefficients"):
        RegularQuotient.from_expanded(RegularPolynomial([Quaternion(1e6, 1e-5)]), Q)


def test_pair_quotient_refuses_a_bad_side_or_a_zero_denominator():
    with pytest.raises(ValueError, match="side must be 'left' or 'right', got 'up'"):
        RegularQuotient(Q - I, Q, "up")
    with pytest.raises(ValueError, match="denominator is identically zero"):
        RegularQuotient(RegularPolynomial(), Q)


def test_an_expanded_quotient_has_no_json_form_and_no_transform_route():
    expanded = RegularQuotient.from_expanded(RegularPolynomial([Quaternion(2.0)]), Q)
    with pytest.raises(ValueError, match=r"only \(den, num\) pair quotients"):
        expanded.to_json()
    with pytest.raises(ValueError, match=r"transform-route evaluation needs a \(den, num\) pair"):
        expanded.evaluate_via_transform(I * 0.5)


def test_expanded_quotient_conjugate_and_repr():
    pair = RegularQuotient(Q - I, Q + J * 0.5, "left")
    expanded = RegularQuotient.from_expanded(pair.sym, pair.conum)
    conj = expanded.conjugate()
    assert conj.side == "expanded" and conj.sym == pair.sym
    for q in (Quaternion(0.1, 0.2, -0.3, 0.1), Quaternion(0.3), K * 0.4):
        assert conj.evaluate(q).isclose(pair.conjugate().evaluate(q), rel_tol=1e-12)
    assert repr(expanded) == f"RegularQuotient.from_expanded({pair.sym!r}, {pair.conum!r})"


def test_number_minus_polynomial_or_quotient():
    f = Q * Q + I
    quotient = RegularQuotient(Q - J * 2.0, f, "right")
    q = Quaternion(0.2, -0.1, 0.3, 0.05)
    assert (2 - f).coeffs == (2 - f.coeffs[0], -f.coeffs[1], -f.coeffs[2])
    assert (2 - f).evaluate(q).isclose(2.0 - f.evaluate(q), rel_tol=1e-14)
    assert (2 - quotient).evaluate(q).isclose(2.0 - quotient.evaluate(q), rel_tol=1e-12)


def test_durand_kerner_strips_trailing_zeros_and_solves_constants():
    roots = sorted(durand_kerner([2.0, -3.0, 1.0, 0.0, 0.0]), key=lambda z: z.real)
    assert len(roots) == 2
    assert abs(roots[0] - 1.0) < 1e-12 and abs(roots[1] - 2.0) < 1e-12
    assert durand_kerner([5.0]) == []
    assert durand_kerner([5.0, 0.0, 0.0]) == []


@pytest.mark.parametrize("coeffs, wanted", [
    ([0.0, 0.0, 1e200, 1.0], [0j, 0j, -1e200]),  # z^2 used to overflow into a NaN residual
    ([0.0, 0.0, 3.0], [0j, 0j]),
    ([0.0, -2.0, 1.0], [0j, 2 + 0j]),
    ([0.0, 1.0, 0.0, 1.0], [0j, 1j, -1j]),
])
def test_durand_kerner_returns_exact_zero_roots(coeffs, wanted):
    roots = durand_kerner(coeffs)
    assert len(roots) == len(wanted)
    assert roots.count(0) == wanted.count(0)
    for z in wanted:
        assert min(abs(r - z) for r in roots) <= 1e-12 * (1.0 + abs(z))


def test_durand_kerner_steps_past_a_vanishing_weierstrass_denominator():
    # z^3 - z^2 - 2z = z (z - 2)(z + 1): the sweeps reach a root estimate whose
    # Weierstrass denominator is exactly 0, so this input crosses the denom == 0 guard
    coeffs = [0.0, -2.0, -1.0, 1.0]
    roots = durand_kerner(coeffs)
    assert len(roots) == 3
    bound = 1e-12 * (1.0 + sum(abs(c) for c in coeffs))
    for z in roots:
        assert abs(((z - 1.0) * z - 2.0) * z) <= bound
    for r in (2.0, -1.0, 0.0):
        assert min(abs(z - r) for z in roots) <= 1e-12 * (1.0 + abs(r))


# -- the conjugate-pair iteration ---------------------------------------------------------
#
# A real polynomial of even degree, every symmetrization among them, is iterated one
# root per conjugate pair; complex coefficients and odd degree keep the full sweep.

FULL_SWEEP_CASES = json.loads(
    (Path(__file__).parent / "data" / "durand_kerner_full_sweep.json").read_text())


@pytest.mark.parametrize("case", FULL_SWEEP_CASES,
                         ids=[("complex" if any(im for _, im in c["coeffs"]) else "real")
                              + f"-degree{len(c['coeffs']) - 1}" for c in FULL_SWEEP_CASES])
def test_full_sweep_inputs_keep_their_roots_bit_for_bit(case):
    # seeded complex-coefficient and odd-degree real inputs, with the roots that the
    # solver returned before the pair iteration existed
    coeffs = [complex(re, im) for re, im in case["coeffs"]]
    assert [[z.real, z.imag] for z in durand_kerner(coeffs)] == case["roots"]


def _spy_sweeps(monkeypatch):
    calls = []
    sweeps = zeros._sweeps

    def spy(monic, roots, paired):
        out = sweeps(monic, roots, paired)
        calls.append((paired, out is None))
        return out

    monkeypatch.setattr(zeros, "_sweeps", spy)
    return calls


def test_simple_real_roots_hand_over_to_the_full_sweep(monkeypatch):
    # (z - 1)(z - 2)(z^2 + 1): no pair in the upper half-plane can converge to 1 and 2
    calls = _spy_sweeps(monkeypatch)
    roots = durand_kerner([2.0, -3.0, 3.0, -3.0, 1.0])
    assert calls == [(True, True), (False, False)]
    assert len(roots) == 4
    for r in (1.0, 2.0, 1j, -1j):
        assert min(abs(z - r) for z in roots) <= 1e-12


def test_symmetrizations_are_solved_in_pairs(monkeypatch):
    calls = _spy_sweeps(monkeypatch)
    roots = durand_kerner([c.w for c in ((Q - I) * (Q - J * 2.0 + 0.5)).symmetrization().coeffs])
    assert calls == [(True, False)]
    assert roots[2:] == [z.conjugate() for z in roots[:2]]
    assert all(z.imag > 0.0 for z in roots[:2])


@st.composite
def symmetrizations(draw):
    """f^s for a random f, or for f built from factors: real zeros, double spheres,
    spheres near the real axis.  Returns (coefficients of f^s, simple roots of f^s)."""
    unit = st.floats(-1.0, 1.0)
    if draw(st.booleans()):
        coeffs = [Quaternion(*draw(st.tuples(unit, unit, unit, unit)))
                  for _ in range(draw(st.integers(2, 5)))]
        assume(coeffs[-1].norm() >= 0.1)
        sym = [c.w for c in RegularPolynomial(coeffs).symmetrization().coeffs]
        ref = [complex(r) for r in np.roots(sym[::-1])]
        return sym, [a for n, a in enumerate(ref)
                     if all(abs(a - b) > 1e-3 for b in ref[:n] + ref[n + 1:])]
    f = RegularPolynomial([ONE])
    simple = []
    centres = []
    for _ in range(draw(st.integers(1, 3))):
        x = draw(st.floats(-0.8, 0.8))
        y = draw(st.sampled_from([0.0, draw(st.floats(0.01, 0.1)), draw(st.floats(0.2, 0.9))]))
        assume(all(math.hypot(x - a, y - b) >= 0.3 for a, b in centres))
        centres.append((x, y))
        axis = draw(st.tuples(unit, unit, unit))
        norm = math.sqrt(sum(v * v for v in axis))
        assume(norm > 0.1)
        m = 1 if y == 0.0 else draw(st.integers(1, 2))
        for _ in range(m):
            f = f * (Q - Quaternion(x, *(v * y / norm for v in axis)))
        if y > 0.0 and m == 1:  # a real zero is a double root of f^s
            simple += [complex(x, y), complex(x, -y)]
    return [c.w for c in f.symmetrization().coeffs], simple


@given(symmetrizations())
def test_symmetrization_roots_are_conjugate_closed_and_backward_stable(case):
    sym, simple = case
    roots = durand_kerner(sym)
    assert len(roots) == len(sym) - 1
    for z in roots:
        assert min(abs(w - z.conjugate()) for w in roots) <= 1e-6 * (1.0 + abs(z))
    monic = [c / sym[-1] for c in sym]
    bound = 1e-12 * (1.0 + sum(abs(c) for c in monic))
    for z in roots:
        assert abs(np.polyval(monic[::-1], z)) <= bound
    for r in simple:
        assert min(abs(z - r) for z in roots) <= 1e-6 * (1.0 + abs(r))


# -- the quartic start ---------------------------------------------------------------------
#
# A real quartic, every sym of a quadratic among them, starts its pair sweep from the upper
# roots of its closed-form factorization into two real quadratics; one with real roots keeps
# the arc start.  The arc start is the solver as it was before the quartic start existed.


def _spy_sweep_counts(monkeypatch):
    """(paired, handed over, sweeps run) for each ``_sweeps`` call; each sweep takes one
    residual pass of ``_horner`` on the monic polynomial itself."""
    calls = []
    sweeps, horner = zeros._sweeps, zeros._horner

    def spy(monic, roots, paired):
        passes = []

        def counting(coeffs, points):
            passes.extend([None] if coeffs is monic else [])
            return horner(coeffs, points)

        monkeypatch.setattr(zeros, "_horner", counting)
        try:
            out = sweeps(monic, roots, paired)
        finally:
            monkeypatch.setattr(zeros, "_horner", horner)
        calls.append((paired, out is None, len(passes)))
        return out

    monkeypatch.setattr(zeros, "_sweeps", spy)
    return calls


def _arc_start(monic):
    return None


def test_quartic_symmetrizations_take_one_short_pair_sweep(monkeypatch):
    rng = random.Random(29)
    syms = [(Q - I) * (Q - J * 2.0 + 0.5)] + [rand_poly(rng, 2) for _ in range(200)]
    syms = [[c.w for c in f.symmetrization().coeffs] for f in syms]
    calls = _spy_sweep_counts(monkeypatch)
    for sym in syms:
        calls.clear()
        durand_kerner(sym)
        assert len(calls) == 1 and calls[0][:2] == (True, False) and calls[0][2] <= 3
    # from the arc the first of them takes more sweeps
    monkeypatch.setattr(zeros, "_quartic_start", _arc_start)
    calls.clear()
    durand_kerner(syms[0])
    assert calls[0][:2] == (True, False) and calls[0][2] > 3


def test_a_quartic_with_real_roots_keeps_the_arc_start():
    # (z - 1)(z - 2)(z^2 + 1) and (z^2 - 1)(z^2 - 4): no pair of upper roots to start from
    assert zeros._quartic_start([2.0, -3.0, 3.0, -3.0, 1.0]) is None
    assert zeros._quartic_start([4.0, 0.0, -5.0, 0.0, 1.0]) is None
    # (z - 1)^2 ((z - 1)^2 + 1): once depressed, a factor t^2 has its roots at t = 0
    assert zeros._quartic_start([2.0, -6.0, 7.0, -4.0, 1.0]) is None
    assert len(durand_kerner([2.0, -6.0, 7.0, -4.0, 1.0])) == 4
    # t^4 + p t^2 + r with p^2 just below 4r, two spheres a rounding apart: y rounds
    # below 0 and p^2 - 4r is negative, so the start takes no q/s with s = 0
    assert len(durand_kerner([3.662940699852555, 0.0, 3.8277621137435145, 0.0, 1.0])) == 4
    # (z^2 + 1)(z^2 + 4): y = 0 comes out as rounding, and s = sqrt(y) as its square root
    start = zeros._quartic_start([4.0, 0.0, 5.0, 0.0, 1.0])
    assert sorted(start, key=abs) == pytest.approx([1j, 2j], abs=1e-7)


# a * k underflows to 0; p^2 - 4r < 0 with y rounded to 0 (the input of the test above)
@example([1e-300, -0.0, -6.032641905012161e-150, 5e-324])
@example([3.662940699852555, 0.0, 3.8277621137435145, 0.0])
@given(st.lists(st.one_of(st.floats(), st.floats(-10.0, 10.0)), min_size=4, max_size=4))
def test_the_quartic_start_never_raises(low):
    # monic coefficients may be non-finite where normalizing by the leading one overflowed
    start = zeros._quartic_start(low + [1.0])
    assert start is None or (len(start) == 2 and all(
        0.0 < z.imag and abs(z) < math.inf for z in start))


def _linear(x, y, axis):
    norm = math.sqrt(sum(v * v for v in axis))
    return Q - Quaternion(x, *(v * y / norm for v in axis))


@st.composite
def quartic_symmetrizations(draw):
    """The coefficients of a real quartic, low order first: the sym of a random quaternion
    quadratic, of one with near-real zeros (|Im| about 1e-3), of one whose two spheres lie
    1e-4 apart, or of one with both spheres on one real part (a biquadratic once depressed);
    any of these with its roots scaled by 1e-6 to 1e6; or a quartic with two real roots."""
    unit = st.floats(-1.0, 1.0)
    axis = st.tuples(unit, unit, unit).filter(lambda v: math.sqrt(sum(c * c for c in v)) > 0.1)
    kind = draw(st.sampled_from(["random", "near-real", "close", "biquadratic", "real-roots"]))
    if kind == "real-roots":
        a, b = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
        assume(abs(a - b) >= 0.1)
        x, y = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.05, 1.0))
        return list(np.polymul(np.poly([a, b]), [1.0, -2.0 * x, x * x + y * y])[::-1])
    if kind == "random":
        f = RegularPolynomial([Quaternion(*draw(st.tuples(unit, unit, unit, unit)))
                               for _ in range(3)])
        assume(f.coefficient(2).norm() >= 0.1)
    else:
        x1, y1 = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.1, 1.0))
        if kind == "near-real":
            y1 = draw(st.floats(0.5e-3, 2e-3))
            x2, y2 = draw(st.floats(-1.0, 1.0)), draw(st.floats(0.5e-3, 2e-3))
        elif kind == "close":
            x2, y2 = x1 + draw(st.floats(-1e-4, 1e-4)), y1 + draw(st.floats(-1e-4, 1e-4))
        else:
            x2, y2 = x1, y1 + draw(st.sampled_from([-1.0, 1.0])) * draw(st.floats(1e-4, 0.5))
        assume(math.hypot(x1 - x2, y1 - y2) >= 0.5e-4)
        f = _linear(x1, y1, draw(axis)) * _linear(x2, y2, draw(axis))
    scale = 10.0 ** draw(st.sampled_from([-6, -3, 0, 3, 6]))
    return [c.w / scale ** (4 - n) for n, c in enumerate(f.symmetrization().coeffs)]


@settings(max_examples=300, deadline=None)
@given(quartic_symmetrizations())
def test_quartic_roots_from_the_closed_form_start_match_the_companion_roots(sym):
    try:
        roots = durand_kerner(sym)
    except NonConvergence:
        with mock.patch.object(zeros, "_quartic_start", _arc_start):
            with pytest.raises(NonConvergence):
                durand_kerner(sym)
        return
    assert len(roots) == 4
    monic = [c / sym[-1] for c in sym]
    for z in roots:  # backward stable at the scale of the terms, which may be far from 1
        size = sum(abs(c) * abs(z) ** k for k, c in enumerate(monic))
        assert abs(np.polyval(monic[::-1], z)) <= 1e-12 * (1.0 + size)
    for r in np.roots(sym[::-1]):
        assert min(abs(z - r) for z in roots) <= 1e-6 * (1.0 + abs(r))


def _spheres(pairs):
    """The monic real polynomial, low order first, that vanishes at x +- iy for each (x, y)."""
    p = np.array([1.0])
    for x, y in pairs:
        p = np.polymul(p, [1.0, -2.0 * x, x * x + y * y])
    return [float(c) for c in p[::-1]]


def test_quartics_on_nearly_coincident_spheres_start_from_the_closed_form(monkeypatch):
    # two spheres within 1e-4: the resolvent's two largest roots nearly coincide and its
    # discriminant rounds either way.  Refusing a positive one sent 100 of these 500 to the
    # arc start, and their solves to as many as 29 pair sweeps
    rng = random.Random(5)
    calls = _spy_sweep_counts(monkeypatch)
    for _ in range(500):
        x, y = rng.uniform(-1.0, 1.0), rng.uniform(0.1, 1.0)
        quartic = _spheres([(x, y), (x + rng.uniform(-1e-4, 1e-4), y + rng.uniform(-1e-4, 1e-4))])
        assert zeros._quartic_start(quartic) is not None
        calls.clear()
        roots = durand_kerner(quartic)
        assert len(calls) == 1 and calls[0][:2] == (True, False) and calls[0][2] <= 10
        for r in np.roots(quartic[::-1]):  # the worst error was 2.0e-10 with the arc, as now
            assert min(abs(z - r) for z in roots) <= 1e-9 * (1.0 + abs(r))


# -- the deflated start --------------------------------------------------------------------
#
# A real polynomial of even degree 6 and up starts its pair sweep from the upper roots of
# real quadratic factors, peeled by Bairstow's iteration down to a quartic, and of that
# quartic's closed form; one with real roots, or whose iteration does not settle, keeps the
# arc start.


def _no_deflation(monic, arc):
    return None


def test_sextic_symmetrizations_take_one_short_pair_sweep(monkeypatch):
    rng = random.Random(30)
    syms = [[c.w for c in rand_poly(rng, 3).symmetrization().coeffs] for _ in range(200)]
    calls = _spy_sweep_counts(monkeypatch)
    fallbacks = 0
    for sym in syms:
        calls.clear()
        durand_kerner(sym)
        assert len(calls) == 1 and calls[0][:2] == (True, False)
        fallbacks += calls[0][2] > 2
    assert fallbacks <= 2  # Bairstow's iteration settles on all but one of these
    # from the arc alone the first of them takes more sweeps
    monkeypatch.setattr(zeros, "_deflated_start", _no_deflation)
    calls.clear()
    durand_kerner(syms[0])
    assert calls[0][:2] == (True, False) and calls[0][2] > 2


@pytest.mark.parametrize("coeffs, roots", [
    # (z - 1)(z + 2)(z^2 + 1)(z^2 + 2z + 5): p(0) = -10
    ([-10.0, 1.0, -5.0, 4.0, 6.0, 3.0, 1.0],
     [("-0x1.fffffffffffffp-1", "0x1.0000000000000p+1"), ("0x1.50a7248000004p-56", "0x1.0000000000000p+0"),
      ("-0x1.0000000000000p+1", "0x0.0p+0"), ("-0x1.0000000000000p+0", "-0x1.0000000000000p+1"),
      ("0x1.a59107dae1476p-56", "-0x1.0000000000000p+0"), ("0x1.0000000000000p+0", "0x0.0p+0")]),
    # (z - 1)(z - 3)(z^2 - 4z + 5)(z^2 - 4z + 8): p(0) = 120, p(2) = -4 at the centroid
    ([120.0, -316.0, 335.0, -192.0, 64.0, -12.0, 1.0],
     [("0x1.0000000000000p+1", "0x1.0000000000000p+1"), ("0x1.ffffffffffff7p+0", "0x1.fffffffffffc6p-1"),
      ("0x1.0000000000003p+0", "0x1.0044000000000p-72"), ("0x1.ffffffffffff1p+0", "-0x1.ffffffffffff8p+0"),
      ("0x1.fffffffffffebp+0", "-0x1.0000000000019p+0"), ("0x1.7ffffffffffd7p+1", "-0x1.fa11800000000p-73")]),
], ids=["negative-at-0", "negative-at-the-centroid"])
def test_a_sextic_negative_at_0_or_its_centroid_skips_the_deflation(monkeypatch, coeffs, roots):
    # a real root lies on each side of a point where p < 0, and Bairstow's iteration,
    # which peels only factors with complex roots, would be refused; the roots are
    # those of the solver that still tried it, bit for bit
    calls = []
    monkeypatch.setattr(zeros, "_deflated_start", lambda monic, arc: calls.append(monic))
    assert [(z.real.hex(), z.imag.hex()) for z in durand_kerner(coeffs)] == roots
    assert calls == []


def test_real_roots_and_a_triple_factor_keep_the_arc_start():
    # (z - 1)(z - 2)(z^2 + 1)(z^2 + 4): the quartic left has the real roots
    monic = [complex(c) for c in np.polymul(np.poly([1.0, 2.0]), [1.0, 0.0, 5.0, 0.0, 4.0])[::-1]]
    assert zeros._deflated_start(monic, [0.5 + 0.5j, 1j, 2j]) is None
    assert len(durand_kerner(monic)) == 6
    # (z^2 + 1)^3: at a triple factor the iteration converges linearly and does not settle
    assert zeros._deflated_start([1.0, 0.0, 3.0, 0.0, 3.0, 0.0, 1.0], [0.5 + 1j, 2j, 3j]) is None


def test_a_double_sphere_keeps_the_arc_start(monkeypatch):
    # (z^2 - 2z + 2)(z^2 + 2z + 5/4)^2: the first factor peels, and the quartic left
    # starts its double sphere twice, two starts that would chase one root
    monic = [3.125, 6.875, 4.5625, 0.0, 0.5, 2.0, 1.0]
    quartic_starts, quartic_start = [], zeros._quartic_start

    def spy(c):
        quartic_starts.append(quartic_start(c))
        return quartic_starts[-1]

    monkeypatch.setattr(zeros, "_quartic_start", spy)
    assert zeros._deflated_start(monic, [0.5 + 1j, 2j, 3j]) is None
    (first, second), = quartic_starts
    assert abs(first - second) <= 1e-8 * abs(first)
    roots = sorted(durand_kerner(monic), key=lambda z: (round(z.real, 6), z.imag))
    expected = [-1 - 0.5j, -1 - 0.5j, -1 + 0.5j, -1 + 0.5j, 1 - 1j, 1 + 1j]
    assert all(abs(z - w) < 1e-7 for z, w in zip(roots, expected))


def test_coincident_starts_at_a_root_do_not_divide_by_zero():
    # two starts on one double root make a Weierstrass denominator exactly zero; the
    # residual there is zero too, so the sweep stalls where it started
    assert zeros._sweeps([1.0, -2.0, 1.0], [1 + 0j, 1 + 0j], False) == [1 + 0j, 1 + 0j]
    assert zeros._sweeps([1.0, 0.0, 2.0, 0.0, 1.0], [1j, 1j], True) == [1j, 1j]


# a zero Jacobian; a factor z^2, which settles at u = v = 0
@example([0.0] * 6, [1j, 1j, 1j])
@example([0.0, 0.0, 1.0, 2.0, 3.0, 4.0], [0.1 + 0.1j, 1j, 1j])
@given(st.lists(st.one_of(st.floats(), st.floats(-10.0, 10.0)), min_size=6, max_size=12)
       .filter(lambda low: len(low) % 2 == 0),
       st.lists(st.complex_numbers(max_magnitude=10.0), min_size=6, max_size=6))
def test_the_deflated_start_never_raises(low, arc):
    # monic coefficients may be non-finite where normalizing by the leading one overflowed
    start = zeros._deflated_start(low + [1.0], arc[:len(low) // 2])
    assert start is None or (len(start) == len(low) // 2 and all(
        0.0 < z.imag and abs(z) < math.inf for z in start))


@st.composite
def even_degree_polynomials(draw):
    """(kind, coefficients) of a real polynomial of degree 6 to 12, low order first: the sym
    of a random quaternion polynomial, its roots scaled by 1e-4 or 1e4 or not; a product of
    real quadratics whose roots lie near the real axis (|Im| about 1e-3), or have moduli
    from 1e-3 to 1e3, or of which two lie on spheres 1e-4 to 1e-3 apart; or such a product
    with two real roots in place of one quadratic."""
    m = draw(st.integers(3, 6))
    kind = draw(st.sampled_from(["random", "scaled", "near-real", "wide", "close", "real-roots"]))
    if kind in ("random", "scaled"):
        unit = st.floats(-1.0, 1.0)
        f = RegularPolynomial([Quaternion(*draw(st.tuples(unit, unit, unit, unit)))
                               for _ in range(m + 1)])
        assume(f.coefficient(m).norm() >= 0.1)
        scale = 10.0 ** (draw(st.sampled_from([-4, 4])) if kind == "scaled" else 0)
        return kind, [c.w / scale ** (2 * m - n) for n, c in enumerate(f.symmetrization().coeffs)]
    pairs = []
    for _ in range(m):
        if kind == "wide":
            r, t = 10.0 ** draw(st.floats(-3.0, 3.0)), draw(st.floats(0.05, math.pi - 0.05))
            pairs.append((r * math.cos(t), r * math.sin(t)))
        else:
            y = draw(st.floats(0.5e-3, 2e-3) if kind == "near-real" else st.floats(0.1, 1.0))
            pairs.append((draw(st.floats(-1.0, 1.0)), y))
    if kind == "close":
        (x, y), gap = pairs[0], draw(st.floats(1e-4, 1e-3))
        angle = draw(st.floats(0.0, 2.0 * math.pi))
        pairs[1] = (x + gap * math.cos(angle), y + abs(gap * math.sin(angle)) + 1e-4)
    for k, (x, y) in enumerate(pairs):
        for a, b in pairs[:k]:
            separation = abs(complex(x, y) - complex(a, b)) / max(abs(complex(x, y)), abs(complex(a, b)))
            assume(separation >= 0.05 or (kind == "close" and k == 1))
    coeffs = _spheres(pairs)
    if kind == "real-roots":
        a, b = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
        assume(abs(a - b) >= 0.1)
        coeffs = [float(c) for c in np.polymul(np.poly([a, b]), _spheres(pairs[1:])[::-1])[::-1]]
    return kind, coeffs


@settings(max_examples=300, deadline=None)
@given(even_degree_polynomials())
def test_roots_from_the_deflated_start_match_the_companion_roots(case):
    kind, coeffs = case
    try:
        roots = durand_kerner(coeffs)
    except NonConvergence:
        with mock.patch.object(zeros, "_deflated_start", _no_deflation):
            with pytest.raises(NonConvergence):
                durand_kerner(coeffs)
        return
    if kind == "real-roots":  # no start from factors: the solve is the arc start's, bit for bit
        with mock.patch.object(zeros, "_deflated_start", _no_deflation):
            assert durand_kerner(coeffs) == roots
    assert len(roots) == len(coeffs) - 1
    monic = [c / coeffs[-1] for c in coeffs]
    for z in roots:  # backward stable at the scale of the terms, which may be far from 1
        size = sum(abs(c) * abs(z) ** k for k, c in enumerate(monic))
        assert abs(np.polyval(monic[::-1], z)) <= 1e-12 * (1.0 + size)
    for r in np.roots(coeffs[::-1]):
        assert min(abs(z - r) for z in roots) <= 1e-6 * (1.0 + abs(r))


def test_a_pair_sweep_stops_once_its_steps_are_rounding_noise(monkeypatch):
    # six real quadratics, x in [-2, 2] and y in [0.2, 2].  From the arc its roots pass
    # _unconverged from sweep 25, but the largest step stays at 3.8e-14 to 6.1e-13, above
    # the stop at 1e-14 (1 + max |z|) = 3.4e-14, and the residuals above u sum |c_k| |z|^k:
    # from either start all 500 sweeps ran
    coeffs = [2188.246188956741, 6701.137339790401, 9410.912050035104, 7384.996642635989,
              3088.3526878833673, 162.1258208752522, -484.5550068198492, -134.87774769303553,
              120.98755994416194, 116.92761172269054, 47.02259434595139, 10.07010296044119, 1.0]
    calls = _spy_sweep_counts(monkeypatch)
    for start in (zeros._deflated_start, _no_deflation):
        monkeypatch.setattr(zeros, "_deflated_start", start)
        calls.clear()
        roots = durand_kerner(coeffs)
        assert len(calls) == 1 and calls[0][:2] == (True, False) and calls[0][2] <= 40
        for r in np.roots(coeffs[::-1]):
            assert min(abs(z - r) for z in roots) <= 1e-11 * (1.0 + abs(r))


# -- the float substrate of sym against the polynomial-level formulas --------------------
#
# A quotient stores its symmetrization as a tuple of real floats, and every ring
# operation works on those floats.  The model below is the polynomial-level
# algebra on (den, num, side, S, P), with S a RegularPolynomial built by
# symmetrization() and every product a RegularPolynomial star product, so each
# result must match it bit for bit: sym, conum, the pole scale and the value.


def _model_pair(den, num, side):
    conum = den.conjugate() * num if side == "left" else num * den.conjugate()
    return (den, num, side, den.symmetrization(), conum)


def _model_expanded(sym, conum):
    if sym.is_zero:
        raise ValueError("expanded denominator is identically zero")
    return (None, None, "expanded", sym, conum)


def _model_as_pair(m):
    side = "right" if m[2] == "right" else "left"
    return side, ((m[0], m[1]) if m[2] == side else (m[3], m[4]))


def _model_value(m, q):
    s = m[3].evaluate(q)
    if s.norm() < 1e-12 * (1.0 + m[3].coefficient_norm_sum()):
        raise PoleError(f"{q} lies on the zero set of the denominator symmetrization")
    return s.inverse() * m[4].evaluate(q)


def _model_neg(a):
    return _model_expanded(a[3], -a[4])


def _model_add(a, b):
    return _model_expanded(a[3] * b[3], b[3] * a[4] + a[3] * b[4])


def _model_conjugate(a):
    if a[0] is not None:
        return _model_pair(a[0].conjugate(), a[1].conjugate(),
                           "right" if a[2] == "left" else "left")
    return _model_expanded(a[3], a[4].conjugate())


def _model_reciprocal(a):
    side, (den, num) = _model_as_pair(a)
    if num.is_zero:
        raise ValueError("cannot invert the zero quotient")
    return _model_pair(num, den, side)


def _model_symmetrization(a):
    _, (den, num) = _model_as_pair(a)
    return _model_expanded(den.symmetrization(), num.symmetrization())


def _model_remainder(a, q0):
    shifted = a[4] - a[3] * _model_value(a, q0)
    return _model_expanded(a[3], shifted.remainder(q0))


def _model_derivative(a):
    s, p = a[3], a[4]
    return _model_expanded(s * s, s * p.cullen_derivative() - s.cullen_derivative() * p)


_UNARY = {
    "neg": (_model_neg, lambda f: -f),
    "conjugate": (_model_conjugate, RegularQuotient.conjugate),
    "reciprocal": (_model_reciprocal, RegularQuotient.reciprocal),
    "symmetrization": (_model_symmetrization, RegularQuotient.symmetrization),
    "cullen_derivative": (_model_derivative, RegularQuotient.cullen_derivative),
    "remainder": (lambda m: _model_remainder(m, _Q0), lambda f: f.remainder(_Q0)),
}
_BINARY = {
    "*": (lambda a, b: _model_expanded(a[3] * b[3], a[4] * b[4]), lambda f, g: f * g),
    "+": (_model_add, lambda f, g: f + g),
    "-": (lambda a, b: _model_add(a, _model_neg(b)), lambda f, g: f - g),
}
_Q0 = Quaternion(0.25, -0.5, 0.125, 0.375)


def _hexes(poly):
    return [tuple(v.hex() for v in c.to_json()) for c in poly.coeffs]


def _run(step, *args):
    try:
        return step(*args)
    except (PoleError, ValueError, ZeroDivisionError) as exc:
        return type(exc)


def _assert_matches(quotient, model):
    den, num, side, sym, conum = model
    assert (quotient.den, quotient.num, quotient.side) == (den, num, side)
    assert _hexes(quotient.sym) == _hexes(sym)
    assert _hexes(quotient.conum) == _hexes(conum)
    assert quotient._sym == tuple(c.w for c in sym.coeffs)
    assert quotient._pole_scale == 1e-12 * (1.0 + sym.coefficient_norm_sum())
    for q in (Quaternion(0.3, 0.1, -0.2, 0.05), Quaternion(-0.6), _Q0):
        assert outcome(RegularQuotient.evaluate, quotient, q) == \
            outcome(lambda _, p: _model_value(model, p), quotient, q)


signed = st.floats(-4.0, 4.0) | st.sampled_from([0.0, -0.0])
small_polys = st.lists(st.builds(Quaternion, signed, signed, signed, signed),
                       max_size=3).map(RegularPolynomial)
quotient_args = st.tuples(small_polys.filter(lambda p: not p.is_zero), small_polys,
                          st.sampled_from(["left", "right"]))
steps = st.lists(st.one_of(st.sampled_from(sorted(_UNARY)).map(lambda op: (op, None)),
                           st.tuples(st.sampled_from(sorted(_BINARY)), quotient_args)),
                 max_size=3)


@settings(max_examples=150, deadline=None)
@given(quotient_args, steps)
def test_ring_operations_on_the_float_sym_match_the_polynomial_formulas(first, chain):
    quotient, model = RegularQuotient(*first), _model_pair(*first)
    _assert_matches(quotient, model)
    for op, args in chain:
        if args is None:
            model_step, step = _UNARY[op]
            model, quotient = _run(model_step, model), _run(step, quotient)
        else:
            model_step, step = _BINARY[op]
            model = _run(model_step, model, _model_pair(*args))
            quotient = _run(step, quotient, RegularQuotient(*args))
        if isinstance(model, type):
            assert quotient is model
            return
        _assert_matches(quotient, model)


def test_a_quotient_with_float_sym_compares_hashes_copies_and_pickles():
    f = RegularQuotient(Q - I * 0.5, Q * Q + J, "right")
    expanded = f + RegularQuotient(Q + 2.0, ONE)
    for quotient in (f, expanded, RegularQuotient(RegularPolynomial([1e-300, 1e-300]), 1)):
        assert type(quotient._sym) is tuple
        assert all(type(w) is float for w in quotient._sym)
        for other in (copy.copy(quotient), copy.deepcopy(quotient),
                      pickle.loads(pickle.dumps(quotient))):
            assert other == quotient and hash(other) == hash(quotient)
            assert other._sym == quotient._sym and other.sym == quotient.sym
    assert RegularQuotient(Q - I * 0.5, Q * Q + J, "right") == f
    assert expanded != f and hash(RegularQuotient(Q - I * 0.5, Q * Q + J, "right")) == hash(f)
    with pytest.raises(AttributeError):
        f.sym = f.conum
    # the view is built on each read, with the bits symmetrization() gives
    assert f.sym is not f.sym and f.sym == (Q - I * 0.5).symmetrization()


def test_near_real_expanded_denominators_drop_their_imaginary_parts():
    # S = 1e6 (1 + q^2) admits imaginary parts up to 1e-12 (1 + 2e6), so 1e-7 i
    # is admitted; both evaluation routes see the exactly real S
    exact = RegularPolynomial([1e6, 0.0, 1e6])
    near = exact + RegularPolynomial([Quaternion(0.0, 1e-7)])
    conum = Q * J + I
    a = RegularQuotient.from_expanded(near, conum)
    b = RegularQuotient.from_expanded(exact, conum)
    assert a.sym == exact and a == b
    points = [Quaternion(0.3, 0.1, -0.2, 0.05), Quaternion(-0.6), Quaternion(0.0, 0.9)]
    for q in points:
        assert outcome(RegularQuotient.evaluate, a, q) == outcome(RegularQuotient.evaluate, b, q)
    floats = [(q.w, q.x, q.y, q.z) for q in points]
    assert rational._moduli_at([a], floats) == rational._moduli_at([b], floats)
    # an imaginary part that is not admitted is still refused, and one that is
    # admitted beside a zero real polynomial leaves nothing to divide by
    with pytest.raises(ValueError, match="real coefficients"):
        RegularQuotient.from_expanded(exact + RegularPolynomial([Quaternion(0.0, 1e-5)]), conum)
    with pytest.raises(ValueError, match="identically zero"):
        RegularQuotient.from_expanded(RegularPolynomial([Quaternion(0.0, 1e-13)]), conum)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_the_modulus_of_a_real_quaternion_is_its_absolute_value(w):
    # the pole scale sums |w| over sym's floats for the norm() of w + 0i + 0j + 0k
    assert Quaternion(w).norm() == abs(w)


def test_a_non_real_expanded_denominator_is_refused_as_non_real_even_with_zero_real_parts():
    with pytest.raises(ValueError, match="real coefficients"):
        RegularQuotient.from_expanded(RegularPolynomial([I]), Q)
    with pytest.raises(TypeError):
        RegularQuotient.from_expanded(RegularPolynomial([I]), "q")


# -- the square-free split ----------------------------------------------------------------
#
# A zero set splits sym into square-free factors by Yun's algorithm, solves each
# factor, and gives its roots the factor's multiplicity; a real quadratic, every
# factor of a sphere of simple zeros, is solved in closed form.


def test_durand_kerner_finds_a_small_root_beside_a_huge_one():
    # the discriminant h^2 - c of z^2 + 1e200 z + 1 overflows unless it is scaled
    # by h^2; the small root is c over the large one, so it keeps its digits
    small, large = sorted(durand_kerner([1.0, 1e200, 1.0]), key=abs)
    assert abs(large + 1e200) <= 1e-15 * 1e200
    assert abs(small + 1e-200) <= 1e-15 * 1e-200


@given(st.floats(-10.0, 10.0).filter(lambda v: abs(v) >= 1e-3), st.floats(-10.0, 10.0),
       st.floats(-10.0, 10.0).filter(lambda v: abs(v) >= 0.1))
def test_real_quadratics_are_solved_in_closed_form(c0, c1, c2):
    roots = durand_kerner([c0, c1, c2])
    monic = [c0 / c2, c1 / c2, 1.0]
    bound = 1e-12 * (1.0 + sum(abs(c) for c in monic))
    assert len(roots) == 2
    for z in roots:
        assert abs(np.polyval(monic[::-1], z)) <= bound
    a, b = roots
    assert (a.imag > 0.0 and b == a.conjugate()) or a.imag == b.imag == 0.0
    for z in np.roots([c2, c1, c0]):  # numpy's companion roots, to within a double root's spread
        assert min(abs(r - complex(z)) for r in roots) <= 1e-6 * (1.0 + abs(z))


@pytest.mark.parametrize("coeffs", [[2.0, -3.0, 1.0], [1.0, 0.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1e200, 1.0]])
def test_a_real_quadratic_takes_no_sweep(monkeypatch, coeffs):
    calls = _spy_sweeps(monkeypatch)
    assert len(durand_kerner(coeffs)) == 2
    assert calls == []


def test_zero_sets_with_multiple_factors_come_back_with_their_multiplicities():
    # the examples of the roadmap: a triple sphere, a quadruple real point beside a
    # simple sphere, and the zero quotient M + M - M - M of a regular Moebius map,
    # whose sym of degree 8 vanishes on M's one sphere to order 4
    entries = [(e.x, e.y, e.multiplicity) for e in sphere_zero_set((Q - I) ** 3)]
    assert len(entries) == 1 and entries[0][2] == 3
    assert abs(entries[0][0]) <= 1e-12 and abs(entries[0][1] - 1.0) <= 1e-12
    entries = sorted((e.x, e.y, e.multiplicity) for e in sphere_zero_set((Q - 0.5) ** 2 * (Q - I)))
    assert [m for _, _, m in entries] == [1, 4]
    assert abs(entries[1][0] - 0.5) <= 1e-12 and entries[1][1] == 0.0
    M = RegularQuotient(Q * Quaternion(-0.3, 0.2) + 1.0, Q - Quaternion(0.3, 0.2))
    (one,) = M.sphere_zero_set()
    (four,) = (M + M - M - M).sphere_zero_set()
    assert four.multiplicity == 4 and one.multiplicity == 1
    assert math.hypot(four.x - one.x, four.y - one.y) <= 1e-9
    (point,) = sphere_zero_set(Q - 2)
    assert (point.x, point.y, point.multiplicity) == (2.0, 0.0, 2)


def _assert_zero_set(f, spheres, tol=1e-6):
    """f's zero set lists each (x, y, m) of ``spheres`` once, matched by nearest
    centre, and nothing else, so its multiplicities add up to sym's degree."""
    entries = list(sphere_zero_set(f))
    assert len(entries) == len(spheres)
    assert sum(e.multiplicity * (1 if e.is_real_point else 2) for e in entries) == 2 * f.degree
    for x, y, m in spheres:
        entry = min(entries, key=lambda e: math.hypot(e.x - x, e.y - y))
        assert abs(entry.x - x) <= tol and abs(entry.y - y) <= tol
        assert entry.multiplicity == m and entry.is_real_point == (y == 0.0)


def _point_on(x, y, axis):
    norm = math.sqrt(sum(v * v for v in axis))
    assume(norm > 0.1)
    return Quaternion(x, *(v * y / norm for v in axis))


axes = st.tuples(*[st.floats(-1.0, 1.0)] * 3)


@given(st.tuples(st.floats(-0.8, 0.8), st.floats(0.03, 0.12)),
       st.tuples(st.floats(-0.8, 0.8), st.floats(0.03, 0.12)), axes, axes)
def test_near_real_double_spheres_come_back_once_each(a, b, axis_a, axis_b):
    # two double spheres of radius 0.03 to 0.12, centres at least 0.1 apart: pair-mode
    # iteration used to split each into two nearby simple spheres
    assume(math.hypot(a[0] - b[0], a[1] - b[1]) >= 0.1)
    pa, pb = _point_on(*a, axis_a), _point_on(*b, axis_b)
    _assert_zero_set((Q - pa) * (Q - pb) * (Q - pa) * (Q - pb), [(*a, 2), (*b, 2)])


@given(st.floats(-0.8, 0.8), st.lists(st.tuples(st.floats(-0.8, 0.8), st.floats(0.2, 0.9), axes),
                                       max_size=2))
def test_double_real_zeros_come_back_as_one_real_point(r, spheres):
    # (q - r)^2 g with real r: sym vanishes to order 4 at r
    centres = [(r, 0.0)] + [(x, y) for x, y, _ in spheres]
    assume(all(math.hypot(a[0] - b[0], a[1] - b[1]) >= 0.4
               for n, a in enumerate(centres) for b in centres[:n]))
    f = (Q - r) * (Q - r)
    for x, y, axis in spheres:
        f = f * (Q - _point_on(x, y, axis))
    _assert_zero_set(f, [(r, 0.0, 4)] + [(x, y, 1) for x, y, _ in spheres])


def test_the_float_split_matches_yun_over_the_rationals():
    # 240 seeded star products of linear factors with integer components, some on one
    # sphere or real, so that sym has integer coefficients and converts exactly; the
    # float split must find the factor degrees and multiplicities that Yun's
    # algorithm over Fractions finds.  Runs in about 0.2 s on CPython 3.11.
    rng = random.Random(26)
    shapes = set()
    for _ in range(240):
        f = RegularPolynomial([ONE])
        for _ in range(rng.randint(1, 3)):
            p = Quaternion(*(rng.randint(-2, 2) for _ in range(4)))
            for _ in range(rng.randint(1, 3)):
                f = f * (Q - p)
        sym = RegularQuotient(f, ONE)._sym
        assert all(v == int(v) for v in sym)
        want = sorted((len(a) - 1, m) for a, m in exact.yun(sym))
        split = zeros._square_free_split([v / sym[-1] for v in sym])
        assert sorted((len(a) - 1, m) for a, m in split or [(sym, 1)]) == want
        shapes.add(tuple(want))
    assert len(shapes) > 20


def _spy_solves(monkeypatch, fail=()):
    """Degrees handed to durand_kerner; those in ``fail`` raise NonConvergence."""
    degrees = []
    solve = rational.durand_kerner

    def spy(coeffs):
        degrees.append(len(coeffs) - 1)
        if len(coeffs) - 1 in fail:
            raise NonConvergence("refused by the test")
        return solve(coeffs)

    monkeypatch.setattr(rational, "durand_kerner", spy)
    return degrees


_DOUBLE = (Q - I) * (Q - I) * (Q - J * 0.5 + 0.3)  # sym = ((z^2 + 1)^2) ((z + 0.3)^2 + 0.25)


def _is_whole_solve(zero_set):
    return (all(e.multiplicity == 1 for e in zero_set)
            and sum(1 if e.is_real_point else 2 for e in zero_set) == 6)


def test_a_split_solves_each_factor_once(monkeypatch):
    degrees = _spy_solves(monkeypatch)
    assert sorted((e.multiplicity, round(e.y, 9)) for e in sphere_zero_set(_DOUBLE)) == [(1, 0.5), (2, 1.0)]
    assert sorted(degrees) == [2, 2]


def test_the_spy_sees_the_solves_of_a_quotients_zero_set(monkeypatch):
    # RegularQuotient.sphere_zero_set reaches the solver through srq.zeros, which solves
    # through the name durand_kerner on srq.rational
    degrees = _spy_solves(monkeypatch)
    zero_set = RegularQuotient(_DOUBLE, Q).sphere_zero_set()
    assert sorted((e.multiplicity, round(e.y, 9)) for e in zero_set) == [(1, 0.5), (2, 1.0)]
    assert sorted(degrees) == [2, 2]


def test_the_entry_points_are_on_rational_before_the_solver_loads():
    # a tracer resolves vars(srq.rational)["durand_kerner"] and ["sphere_zero_set"] before
    # anything has solved, and its wrapper must see the solves of a solver loaded under it
    # and none once it is removed again
    src = Path(__file__).resolve().parent.parent / "src"
    code = """if True:
        import sys
        import srq
        from srq import rational
        loaded = ["srq.zeros" in sys.modules]
        names = vars(rational)
        solve, zero_set = names["durand_kerner"], names["sphere_zero_set"]
        degrees = []

        def spy(coeffs):
            degrees.append(len(coeffs) - 1)
            return solve(coeffs)

        rational.durand_kerner = spy
        f = srq.parse_polynomial("q^2 + 1")
        zero_set(f * f)
        loaded.append("srq.zeros" in sys.modules)
        rational.durand_kerner = solve
        zero_set(f * f)
        print(loaded, degrees)
    """
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[False, True] [2]"


def test_a_split_that_does_not_close_falls_back_to_the_whole_solve(monkeypatch):
    # the first GCD, of sym and sym', is right; a second that claims all of b divides
    # d uses up b while roots of higher multiplicity are still counted, so the split
    # never closes
    gcd, calls = zeros._gcd, []

    def wrong(a, b):
        calls.append(len(a[0]) - 1)
        return gcd(a, b) if len(calls) == 1 else a

    monkeypatch.setattr(zeros, "_gcd", wrong)
    degrees = _spy_solves(monkeypatch)
    assert _is_whole_solve(sphere_zero_set(_DOUBLE))
    assert calls == [6, 4] and degrees == [6]


def test_a_split_whose_roots_fail_on_sym_falls_back_to_the_whole_solve(monkeypatch):
    monkeypatch.setattr(zeros, "_newton", lambda coeffs, roots, m: [z + 1e-3 for z in roots])
    degrees = _spy_solves(monkeypatch)
    assert _is_whole_solve(sphere_zero_set(_DOUBLE))
    assert degrees == [2, 2, 6]


def test_a_split_whose_factor_does_not_converge_falls_back_to_the_whole_solve(monkeypatch):
    degrees = _spy_solves(monkeypatch, fail={2})
    assert _is_whole_solve(sphere_zero_set(_DOUBLE))
    assert degrees == [2, 6]


@pytest.mark.parametrize("sym", [(1e300, 0.0, 0.0, 0.0, 1e-300), (1e300, 0.0, 2e-300, 0.0, 1e-300)])
def test_a_split_that_overflows_raises_as_the_whole_solve_does(monkeypatch, sym):
    # making sym monic overflows, so the split gives up and the whole solve reports it
    degrees = _spy_solves(monkeypatch)
    with pytest.raises(NonConvergence):
        RegularQuotient.from_expanded(RegularPolynomial(list(sym)), ONE).sphere_zero_set()
    assert degrees == [4]


@settings(max_examples=200)
@given(st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0),
                          st.floats(-1.0, 1.0)), min_size=2, max_size=6),
       st.integers(1, 3))
def test_a_zero_set_is_never_partial(coeffs, power):
    # random polynomials and their powers: every root of sym is listed, with its
    # multiplicity, or the solver says it failed
    f = RegularPolynomial([Quaternion(*c) for c in coeffs])
    assume(not f.is_zero and f.coeffs[-1].norm() >= 0.1)
    f = f ** power
    try:
        zero_set = sphere_zero_set(f)
    except NonConvergence:
        return
    assert sum(e.multiplicity * (1 if e.is_real_point else 2) for e in zero_set) == 2 * f.degree


# -- one acceptance rule for computed roots ----------------------------------------------
#
# A computed root z of the monic p = sum c_k z^k is accepted when its residual |p(z)| is
# at most _zero_bound(sum |c_k| |z|^k), the size of Horner's rounding error at z.  A bound
# sized by sum |c_k| alone refused converged roots of modulus well above 1.


def test_durand_kerner_solves_seeded_real_polynomials_with_separated_roots():
    # degree 2 to 10, coefficients uniform in [-2, 2], |lead| >= 0.1: 22 of these 1000
    # draws raised NonConvergence under a final check sized by sum |c_k|
    rng = random.Random(6)
    for _ in range(1000):
        coeffs = [rng.uniform(-2.0, 2.0) for _ in range(rng.randint(2, 10) + 1)]
        while abs(coeffs[-1]) < 0.1:
            coeffs[-1] = rng.uniform(-2.0, 2.0)
        ref = [complex(z) for z in np.roots(coeffs[::-1])]
        assert min(abs(a - b) for n, a in enumerate(ref) for b in ref[:n]) >= 1e-2
        roots = durand_kerner(coeffs)
        assert len(roots) == len(ref)
        for z in ref:
            assert min(abs(r - z) for r in roots) <= 1e-12 * (1.0 + abs(z))


def test_durand_kerner_accepts_a_converged_complex_root_far_from_the_unit_circle():
    # a small leading coefficient puts one root near 12.04 + 5.43i, where |p(z)| is
    # rounding noise of order sum |c_k| |z|^k, far above _zero_bound(sum |c_k|)
    coeffs = [-0.236 + 0.343j, 0.182 + 1.631j, -1.602 - 0.739j, 1.671 - 1.879j,
              0.835 + 0.56j, 1.719 + 1.36j, -0.166 - 0.038j]
    roots = durand_kerner(coeffs)
    ref = [complex(z) for z in np.roots(coeffs[::-1])]
    assert len(roots) == len(ref) == 6 and max(map(abs, ref)) > 13.0
    for z in ref:
        assert min(abs(r - z) for r in roots) <= 1e-12 * (1.0 + abs(z))


def test_a_generic_zero_set_whose_roots_pass_the_rule_on_sym_is_returned():
    # input 84 of the benchmark's defect_cases(20): a degree-8 polynomial whose sym of
    # degree 16 has simple roots up to |z| = 2.8, which the whole solve used to refuse
    f = RegularPolynomial([Quaternion(*c) for c in [
        (0.268, 0.551, 0.447, -0.992), (-0.893, -0.479, 0.338, -0.745),
        (0.616, 0.375, 0.532, -0.995), (-0.074, 0.125, -0.67, 0.091),
        (0.65, 0.558, 0.749, -0.18), (-0.505, 0.422, -0.356, -0.86),
        (-0.264, -0.839, 0.286, 0.893), (-0.646, 0.919, -0.758, 0.44),
        (-0.164, -0.25, -0.188, -0.308)]])
    zero_set = sphere_zero_set(f)
    assert sum(e.multiplicity * (1 if e.is_real_point else 2) for e in zero_set) == 16
    sym = RegularQuotient(f, ONE)._sym
    roots = [complex(e.x, sign * e.y) for e in zero_set for sign in (1.0, -1.0)]
    assert zeros._unconverged([v / sym[-1] for v in sym], roots) is None


def test_an_infinite_residual_is_refused_where_its_size_overflows():
    # durand_kerner([1, 1e200, 1]) returns -1e200 and -1e-200: at -1e200 the size
    # 1 + 1e200 |z| + |z|^2 overflows, and the residual is 1
    monic = [1.0, 1e200, 1.0]
    assert zeros._unconverged(monic, [complex(-1e200), complex(-1e-200)]) is None
    # at -1e300 the residual overflows as well
    assert zeros._unconverged(monic, [complex(-1e-200), complex(-1e300)]) == -1e300
    assert zeros._unconverged(monic, [complex(math.nan)]) is not None


def test_a_spurious_split_of_two_near_real_double_spheres_is_still_refused():
    # input 28 of the benchmark's defect_cases(143): sym of (q - p1)^2 (q - p2)^2 with
    # p1 = -0.47 - 0.036i + 0.006j + 0.012k and p2 = -0.594 + 0.072i + 0.024j - 0.021k.
    # Its split finds a spurious factor, whose roots fail on sym, so the whole solve
    # runs; an entry may come back simple, but never with a multiplicity it lacks
    sym = (0.006374619119576887, 0.09607731645052715, 0.6331777689144114, 2.3832609254319586,
           5.604077413320997, 8.430608983999997, 7.924649999999997, 4.255999999999999, 1.0)
    spheres = [(-0.594, 0.07874642849044013, 2), (-0.47, 0.03841874542459709, 2)]
    zero_set = RegularQuotient.from_expanded(RegularPolynomial(list(sym)), ONE).sphere_zero_set()
    assert sum(e.multiplicity * (1 if e.is_real_point else 2) for e in zero_set) == 8
    for e in zero_set:
        x, y, m = min(spheres, key=lambda s: math.hypot(e.x - s[0], e.y - s[1]))
        assert math.hypot(e.x - x, e.y - y) <= 1e-5 and e.multiplicity <= m


def test_a_candidate_off_a_far_zero_is_rejected_by_its_residual():
    # f = (q - p) * g vanishes at p, |Im p| = 30.  On p's sphere moved by a relative
    # 1e-7, I = -b c^-1 still passes the 1e-6 unit test, but the residual at the
    # candidate grows like |p|^deg f and exceeds 1e-6 (1 + sum |a_n|)
    class Traced(RegularPolynomial):
        __slots__ = ()

        def evaluate(self, q):
            candidates.append(q)
            return RegularPolynomial.evaluate(self, q)

    rng = random.Random(27)
    candidates = []
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0)
        axis = [rng.gauss(0.0, 1.0) for _ in range(3)]
        norm = math.sqrt(sum(v * v for v in axis))
        p = Quaternion(x, *(30.0 * v / norm for v in axis))
        f = Traced(list(((Q - p) * rand_poly(rng, 2)).coeffs))
        spherical, zeros = zeros_on_sphere(f, x, 30.0)
        assert not spherical and len(zeros) == 1 and zeros[0].isclose(p, abs_tol=1e-9 * 30.0)
        candidates = []
        assert zeros_on_sphere(f, x, 30.0 * (1 + 1e-7)) == (False, [])
        assert len(candidates) == 1
        assert f.evaluate(candidates[0]).norm() > 1e-6 * (1.0 + f.coefficient_norm_sum())
