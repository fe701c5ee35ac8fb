"""Star-product algebra, remainders, derivatives, and spherical expansions."""

import copy
import json
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from srq import series
from srq.errors import DegenerateCenter, RealPoint
from srq.fractional import _combination
from srq.quaternion import I, J, K, ONE, ZERO, Quaternion, _make
from srq.series import (RegularPolynomial, SphericalExpansion, _horner_floats,
                        directional_derivative, spherical_derivative_at)
from srq.verify import slice_regularity_residual

Q = RegularPolynomial.identity()


def rand_quat(rng, scale=1.0):
    return Quaternion(rng.uniform(-scale, scale), rng.uniform(-scale, scale),
                      rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def rand_poly(rng, degree, scale=1.0):
    return RegularPolynomial([rand_quat(rng, scale) for _ in range(degree + 1)])


def test_evaluate_examples():
    assert Q.evaluate(Quaternion(3, 1)) == Quaternion(3, 1)
    assert (Q * Q).evaluate(I) == -ONE
    assert (Q - I).evaluate(J) == J - I
    assert RegularPolynomial().evaluate(J) == ZERO


def test_evaluate_at_real_points_is_ordinary():
    rng = random.Random(18)
    f = rand_poly(rng, 4)
    for x in (2.0, -0.5, 0.0):
        expected = sum((f.coeffs[n] * x ** n for n in range(len(f.coeffs))), ZERO)
        assert f.evaluate(x).isclose(expected, rel_tol=1e-13, abs_tol=1e-15)


def test_evaluate_respects_right_coefficients():
    # q^2 * k evaluated by Horner: a_0 + q(a_1 + q a_2)
    f = RegularPolynomial([ZERO, ZERO, K])
    q = Quaternion(1, 1)
    assert f.evaluate(q).isclose(q * q * K)


def test_star_product_examples():
    fg = (Q - I) * (Q - J)
    assert fg == RegularPolynomial([K, -(I + J), ONE])
    f = rand_poly(random.Random(0), 3)
    assert f * RegularPolynomial([ONE]) == f
    assert (Q - I) * (Q + I) == RegularPolynomial([ONE, ZERO, ONE])


def test_star_degree_adds():
    rng = random.Random(1)
    f, g = rand_poly(rng, 3), rand_poly(rng, 2)
    assert (f * g).degree == 5


def test_star_associative_distributive():
    rng = random.Random(2)
    for _ in range(25):
        f, g, h = (rand_poly(rng, rng.randint(0, 3)) for _ in range(3))
        lhs = (f * g) * h
        rhs = f * (g * h)
        assert lhs.isclose(rhs, rel_tol=1e-11)
        assert (f * (g + h)).isclose(f * g + f * h, rel_tol=1e-11)


def test_star_point_formula():
    # (f*g)(q) = f(q) g(f(q)^{-1} q f(q)) when f(q) != 0
    rng = random.Random(3)
    for _ in range(40):
        f, g = rand_poly(rng, rng.randint(1, 3)), rand_poly(rng, rng.randint(0, 3))
        q = rand_quat(rng)
        fq = f.evaluate(q)
        if fq.norm() < 1e-3:
            continue
        expected = fq * g.evaluate(fq.inverse() * q * fq)
        got = (f * g).evaluate(q)
        assert got.isclose(expected, rel_tol=1e-10, abs_tol=1e-12)


def test_real_coefficient_star_is_pointwise():
    rng = random.Random(4)
    f = RegularPolynomial([Quaternion(rng.uniform(-1, 1)) for _ in range(4)])
    g = rand_poly(rng, 3)
    for _ in range(20):
        q = rand_quat(rng)
        assert (f * g).evaluate(q).isclose(f.evaluate(q) * g.evaluate(q),
                                           rel_tol=1e-11, abs_tol=1e-13)


def test_conjugate_examples():
    assert (Q - I).conjugate() == Q + I
    real = RegularPolynomial([Quaternion(2), Quaternion(-1), Quaternion(0.5)])
    assert real.conjugate() == real
    f = RegularPolynomial([ONE + J, K])
    assert f.conjugate() == RegularPolynomial([ONE - J, -K])
    rng = random.Random(5)
    f, g = rand_poly(rng, 3), rand_poly(rng, 2)
    assert (f * g).conjugate().isclose(g.conjugate() * f.conjugate(), rel_tol=1e-12)
    assert f.conjugate().conjugate() == f


def test_symmetrization_examples():
    assert (Q - I).symmetrization() == RegularPolynomial([ONE, ZERO, ONE])
    const = RegularPolynomial([Quaternion(1, 2)])
    assert const.symmetrization() == RegularPolynomial([Quaternion(5)])
    fg = (Q - I) * (Q - J)
    assert fg.symmetrization().isclose(
        RegularPolynomial([ONE, ZERO, Quaternion(2), ZERO, ONE]), rel_tol=1e-12)


def test_symmetrization_real_and_multiplicative():
    rng = random.Random(6)
    for _ in range(25):
        f, g = rand_poly(rng, rng.randint(0, 4)), rand_poly(rng, rng.randint(0, 4))
        fs = f.symmetrization()
        assert fs.is_real()
        # f^s = f^c * f as well
        assert fs.isclose(f.conjugate() * f, rel_tol=1e-11)
        assert (f * g).symmetrization().isclose(fs * g.symmetrization(), rel_tol=1e-10)


def test_remainder_examples():
    assert (Q * Q).remainder(I) == Q + I
    assert Q.remainder(rand_quat(random.Random(7))) == RegularPolynomial([ONE])
    assert RegularPolynomial([K]).remainder(I) == RegularPolynomial()


def test_remainder_division_identity():
    rng = random.Random(8)
    for _ in range(25):
        f = rand_poly(rng, rng.randint(1, 5))
        q0 = rand_quat(rng)
        r = f.remainder(q0)
        assert r.degree == f.degree - 1
        reassembled = RegularPolynomial([-q0, ONE]) * r + f.evaluate(q0)
        assert reassembled.isclose(f, rel_tol=1e-12)


def test_spherical_expansion_identity_map():
    e = Q.spherical_expansion(I * 0.5, 1)
    assert e.coefficients[0].isclose(I * 0.5)
    assert e.coefficients[1].isclose(ONE)
    assert e.coefficients[2] == ZERO
    assert e.coefficients[3] == ZERO
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        Q.spherical_expansion(I * 0.5, -1)


def test_spherical_expansion_square():
    # expansion of q^2 at i/2; values fixed by the reconstruction oracle below
    e = (Q * Q).spherical_expansion(I * 0.5, 1)
    assert e.coefficients[0].isclose(Quaternion(-0.25))
    assert e.coefficients[1].isclose(ZERO, abs_tol=1e-15)
    assert e.coefficients[2].isclose(ONE)
    assert e.coefficients[3].isclose(ZERO, abs_tol=1e-15)
    rng = random.Random(9)
    for _ in range(20):
        q = rand_quat(rng)
        assert e.evaluate(q).isclose((Q * Q).evaluate(q), rel_tol=1e-12, abs_tol=1e-13)


def test_spherical_expansion_reconstructs_polynomials():
    rng = random.Random(10)
    for _ in range(15):
        f = rand_poly(rng, rng.randint(1, 5))
        q0 = rand_quat(rng)
        if q0.is_real():
            continue
        e = f.spherical_expansion(q0, f.degree // 2 + 1)
        for _ in range(10):
            q = rand_quat(rng)
            assert e.evaluate(q).isclose(f.evaluate(q), rel_tol=1e-9, abs_tol=1e-11)


def test_spherical_expansion_evaluates_within_rounding_of_the_polynomial():
    rng = random.Random(1209)
    for _ in range(700):
        f = rand_poly(rng, rng.randint(0, 8))
        q0 = rand_quat(rng) * rng.uniform(0.05, 1.0)
        e = f.spherical_expansion(q0, f.degree // 2)
        for _ in range(3):
            q = rand_quat(rng) * rng.uniform(0.0, 1.2)
            value = f.evaluate(q)
            assert (e.evaluate(q) - value).norm() <= 1e-12 * (1.0 + value.norm())


def test_spherical_expansion_of_odd_length_and_empty():
    q0, q = Quaternion(0.1, 0.5), Quaternion(0.3, -0.2, 0.1, 0.4)
    a0, a1, a2 = Quaternion(1, 2, 3, 4), Quaternion(-1, 0.5, 0, 2), Quaternion(0.5, 0, -1, 1)
    sphere = (q - 0.1) * (q - 0.1) + 0.25
    want = a0 + (q - q0) * a1 + sphere * a2
    assert SphericalExpansion(q0, [a0, a1, a2]).evaluate(q).isclose(want, rel_tol=1e-15)
    assert SphericalExpansion(q0, []).evaluate(q) == ZERO


def test_spherical_expansion_real_center():
    f = rand_poly(random.Random(11), 3)
    e = f.spherical_expansion(Quaternion(0.25), 0)
    assert len(e.coefficients) == 1
    assert e.coefficients[0].isclose(f.evaluate(Quaternion(0.25)))
    with pytest.raises(DegenerateCenter):
        f.spherical_expansion(Quaternion(0.25), 1)


def test_zeroth_coefficient_is_value():
    rng = random.Random(12)
    f = rand_poly(rng, 4)
    q0 = Quaternion(0.1, 0.4, -0.2)
    assert f.spherical_expansion(q0, 0).coefficients[0].isclose(f.evaluate(q0))


def test_cullen_derivative():
    assert (Q * Q).cullen_derivative() == RegularPolynomial([ZERO, Quaternion(2)])
    assert RegularPolynomial([K]).cullen_derivative() == RegularPolynomial()


def test_cullen_matches_slice_difference_quotient():
    # (d/dx - I d/dy)/2 on the slice of q equals the termwise derivative
    rng = random.Random(13)
    h = 1e-6
    for _ in range(10):
        f = rand_poly(rng, rng.randint(1, 4))
        q = rand_quat(rng)
        sc = q.slice_decompose()
        if sc.y0 < 0.1:
            continue
        ax = sc.I

        def at(x, y):
            return f.evaluate(Quaternion(x) + ax * y)

        dx = (at(sc.x0 + h, sc.y0) - at(sc.x0 - h, sc.y0)) / (2 * h)
        dy = (at(sc.x0, sc.y0 + h) - at(sc.x0, sc.y0 - h)) / (2 * h)
        fd = 0.5 * (dx - ax * dy)
        assert fd.isclose(f.cullen_derivative().evaluate(q), rel_tol=1e-6, abs_tol=1e-6)


def test_spherical_derivative_examples():
    assert spherical_derivative_at(Q, Quaternion(0.3, 0.7, -0.1)).isclose(ONE)
    assert spherical_derivative_at(Q * Q, Quaternion(1, 1)).isclose(Quaternion(2))
    with pytest.raises(RealPoint):
        spherical_derivative_at(Q, Quaternion(0.5))


def test_spherical_derivative_is_first_odd_coefficient():
    rng = random.Random(14)
    for _ in range(20):
        f = rand_poly(rng, rng.randint(1, 4))
        q = rand_quat(rng)
        if q.imag_norm() < 0.1:
            continue
        a1 = f.spherical_expansion(q, 0).coefficients[1]
        assert spherical_derivative_at(f, q).isclose(a1, rel_tol=1e-10, abs_tol=1e-12)


def test_directional_derivative_examples():
    v = Quaternion(0.3, -1, 2, 0.5)
    assert directional_derivative(Q, I * 0.5, v).isclose(v)
    assert directional_derivative(Q * Q, I * 0.5, ZERO) == ZERO
    # for q^2 at i/2 along j the central difference quotient vanishes
    got = directional_derivative(Q * Q, I * 0.5, J)
    assert got.isclose(ZERO, abs_tol=1e-12)


def test_directional_derivative_matches_finite_differences():
    rng = random.Random(15)
    t = 1e-6
    for _ in range(25):
        f = rand_poly(rng, rng.randint(1, 4))
        q0 = rand_quat(rng)
        if q0.imag_norm() < 0.1:
            continue
        v = rand_quat(rng)
        fd = (f.evaluate(q0 + v * t) - f.evaluate(q0 + v * (-t))) / (2 * t)
        got = directional_derivative(f, q0, v)
        assert (got - fd).norm() <= 1e-6 * (1 + fd.norm())


def test_coefficient_norm_sum():
    assert (Q * Q).coefficient_norm_sum() == 1.0
    assert math.isclose((Q * 0.5 + RegularPolynomial([I * 0.25])).coefficient_norm_sum(), 0.75)
    assert RegularPolynomial().coefficient_norm_sum() == 0.0


def test_norm_sum_bounds_on_ball():
    rng = random.Random(16)
    for _ in range(10):
        f = rand_poly(rng, 4)
        bound = f.coefficient_norm_sum()
        for _ in range(50):
            q = rand_quat(rng, 0.5)
            while q.norm() >= 1:
                q = rand_quat(rng, 0.5)
            assert f.evaluate(q).norm() <= bound + 1e-12


def test_polynomials_are_slice_regular():
    rng = random.Random(17)
    for _ in range(10):
        f = rand_poly(rng, rng.randint(0, 5))
        x = rng.uniform(-0.5, 0.5)
        y = rng.uniform(0.1, 0.5)
        axis = rand_quat(rng).imag()
        axis = axis / axis.norm()
        assert slice_regularity_residual(f, x, y, axis) < 1e-5


def test_trailing_zeros_normalized():
    f = RegularPolynomial([ONE, ZERO, ZERO])
    assert f.degree == 0
    assert RegularPolynomial([ZERO]).is_zero


def test_json_roundtrip():
    f = RegularPolynomial([ONE + J, K * 2, Quaternion(-0.5)])
    assert RegularPolynomial.from_json(f.to_json()) == f
    with pytest.raises(ValueError):
        RegularPolynomial.from_json({"nope": []})


def test_expansion_beyond_degree_pads_with_zeros():
    f = Q * Q
    e = f.spherical_expansion(I * 0.5, 4)
    assert len(e.coefficients) == 10
    for c in e.coefficients[3:]:
        assert c.isclose(ZERO, abs_tol=1e-15)


# -- the float-level kernels against quaternion-level oracles --------------------------
#
# evaluate and the star product run on unpacked floats; these oracles are the
# quaternion-level loops they replace, and the two must agree bit for bit.


def horner_oracle(f, q):
    if f.is_zero:
        return ZERO
    acc = f.coeffs[-1]
    for c in reversed(f.coeffs[:-1]):
        acc = q * acc + c
    return acc


def star_oracle(f, g):
    if f.is_zero or g.is_zero:
        return RegularPolynomial()
    out = [ZERO] * (len(f.coeffs) + len(g.coeffs) - 1)
    for k, a in enumerate(f.coeffs):
        for l, b in enumerate(g.coeffs):
            out[k + l] = out[k + l] + a * b
    return RegularPolynomial(out)


def bits(q):
    # float.hex tells -0.0 from 0.0, which == does not
    return tuple(c.hex() for c in (q.w, q.x, q.y, q.z))


component = st.floats(min_value=-1e6, max_value=1e6)
quats = st.builds(Quaternion, component, component, component, component)
polys = st.lists(quats, max_size=9).map(RegularPolynomial)


@given(polys, quats)
def test_evaluate_matches_quaternion_horner_bit_for_bit(f, q):
    value = f.evaluate(q)
    expected = horner_oracle(f, q)
    assert value == expected
    assert bits(value) == bits(expected)


signed_component = st.one_of(st.sampled_from([-0.0, 0.0]), component)
signed_quats = st.builds(Quaternion, signed_component, signed_component, signed_component,
                         signed_component)


@given(st.lists(signed_quats, max_size=10).map(RegularPolynomial),
       st.lists(signed_quats, max_size=4))
def test_horner_floats_matches_quaternion_horner_at_every_point_bit_for_bit(f, points):
    # the step carries its components in locals across the inner loop, so a value
    # left over from one point must not reach the next
    values = _horner_floats(f._c, [(q.w, q.x, q.y, q.z) for q in points])
    assert [tuple(v.hex() for v in value) for value in values] == \
        [bits(horner_oracle(f, q)) for q in points]


@given(polys, polys)
def test_star_product_matches_quaternion_convolution_bit_for_bit(f, g):
    product = f * g
    expected = star_oracle(f, g)
    assert product == expected
    assert [bits(c) for c in product.coeffs] == [bits(c) for c in expected.coeffs]


def test_overflow_still_raises():
    big = Quaternion(1e300, 1e300, -1e300, 1e300)
    f = RegularPolynomial([big, big, big])
    with pytest.raises(ValueError):
        f.evaluate(big)
    with pytest.raises(ValueError):
        f * f


def test_evaluation_components_stay_python_floats():
    f = RegularPolynomial([ONE, I, J + K])
    for at in (np.float64(0.5), Quaternion(np.float64(0.5), np.float64(0.25))):
        value = f.evaluate(at)
        assert all(type(c) is float for c in (value.w, value.x, value.y, value.z))
    product = f * RegularPolynomial([Quaternion(np.float64(0.5))])
    assert all(type(c) is float for q in product.coeffs for c in (q.w, q.x, q.y, q.z))


@given(polys)
def test_symmetrization_is_the_real_part_of_f_star_fc_bit_for_bit(f):
    # the zero-set solver reads exactly these real parts (c.w of each coefficient)
    expected = [c.w.hex() for c in (f * f.conjugate()).coeffs]
    got = f.symmetrization()
    assert all(c.is_real() for c in got.coeffs)
    assert [c.w.hex() for c in got.coeffs] == expected[:len(got.coeffs)]
    assert all(float.fromhex(h) == 0.0 for h in expected[len(got.coeffs):])


# -- the real-coefficient kernels against the Hamilton convolution ----------------------
#
# a polynomial whose every x, y and z is exactly zero (either sign) takes a float
# convolution in the star product; star_oracle above is the Hamilton convolution
# it replaces, and the two must agree bit for bit, in either operand order.

zero = st.sampled_from([0.0, -0.0])
reals = st.builds(Quaternion, component, zero, zero, zero)
real_polys = st.lists(reals, max_size=9).map(RegularPolynomial)


def coefficient_bits(f):
    return [bits(c) for c in f.coeffs]


@given(real_polys, real_polys)
def test_real_star_real_matches_hamilton_convolution_bit_for_bit(f, g):
    assert coefficient_bits(f * g) == coefficient_bits(star_oracle(f, g))


@given(real_polys, polys)
def test_real_star_quaternion_matches_hamilton_convolution_bit_for_bit(f, g):
    assert coefficient_bits(f * g) == coefficient_bits(star_oracle(f, g))


@given(polys, real_polys)
def test_quaternion_star_real_matches_hamilton_convolution_bit_for_bit(f, g):
    assert coefficient_bits(f * g) == coefficient_bits(star_oracle(f, g))


@given(polys)
def test_imaginary_parts_of_f_star_fc_are_rounding_residue(f):
    # symmetrization forms only the real parts; the imaginary parts it never
    # computes stay at rounding level, below 1e-9 of the coefficient scale
    product = f * f.conjugate()
    bound = 1e-9 * (1.0 + product.coefficient_norm_sum())
    assert all(c.imag_norm() <= bound for c in product.coeffs)


def test_overflowing_real_kernels_still_raise():
    big = RegularPolynomial([Quaternion(1e200), Quaternion(-1e200)])
    with pytest.raises(ValueError, match="non-finite"):
        big * big
    with pytest.raises(ValueError, match="non-finite"):
        big * RegularPolynomial([Quaternion(0.0, 1e200)])
    with pytest.raises(ValueError, match="non-finite"):
        big.symmetrization()


def test_coefficient_norm_sum_adds_left_to_right():
    # a compensated sum, as the builtin sum() of floats is from Python 3.12 on,
    # would give 1e16 + 2; every Python gives the left-to-right 1e16 here
    f = RegularPolynomial([Quaternion(1e16), ONE, -ONE])
    assert f.coefficient_norm_sum() == 1e16


# -- the coefficient substrate against quaternion-level oracles --------------------------
#
# a polynomial stores its coefficients as float 4-tuples; every operation must give
# the bits of the quaternion-level loop below, written in the operation order of
# the quaternion implementation, signed zeros and trailing-zero strips included.

signed = st.one_of(component, zero)
signed_quats = st.builds(Quaternion, signed, signed, signed, signed)
signed_reals = st.builds(Quaternion, signed, zero, zero, zero)
zero_quats = st.builds(Quaternion, zero, zero, zero, zero)
substrate_polys = st.builds(
    lambda head, tail: RegularPolynomial(head + tail),
    st.one_of(st.lists(signed_quats, max_size=6), st.lists(signed_reals, max_size=6)),
    st.lists(zero_quats, max_size=2))
scalars = st.one_of(signed_quats, component, st.integers(-3, 3))


def stripped(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == ZERO:
        coeffs.pop()
    return [bits(c) for c in coeffs]


def padded(f, n):
    return list(f.coeffs) + [ZERO] * (n - len(f.coeffs))


def remainder_oracle(f, q0):
    if f.degree <= 0:
        return []
    b = [ZERO] * f.degree
    b[-1] = f.coeffs[-1]
    for n in range(f.degree - 1, 0, -1):
        b[n - 1] = f.coeffs[n] + q0 * b[n]
    return b


def sums_oracle(f, g):
    n = max(len(f.coeffs), len(g.coeffs))
    return [a + b for a, b in zip(padded(f, n), padded(g, n))]


def differences_oracle(f, g):
    n = max(len(f.coeffs), len(g.coeffs))
    return [a - b for a, b in zip(padded(f, n), padded(g, n))]


def products_oracle(f, g):
    if f.is_zero or g.is_zero:
        return []
    out = [ZERO] * (len(f.coeffs) + len(g.coeffs) - 1)
    for k, a in enumerate(f.coeffs):
        for l, b in enumerate(g.coeffs):
            out[k + l] = out[k + l] + a * b
    return out


@given(substrate_polys, substrate_polys)
def test_ring_operations_keep_the_bits_of_quaternion_arithmetic(f, g):
    assert coefficient_bits(f + g) == stripped(sums_oracle(f, g))
    assert coefficient_bits(f - g) == stripped(differences_oracle(f, g))
    assert coefficient_bits(-f) == stripped(-c for c in f.coeffs)
    assert coefficient_bits(f * g) == stripped(products_oracle(f, g))
    assert coefficient_bits(f.conjugate()) == stripped(c.conjugate() for c in f.coeffs)
    assert coefficient_bits(f.cullen_derivative()) == stripped(
        f.coeffs[n] * float(n) for n in range(1, len(f.coeffs)))
    real_parts = [Quaternion(c.w) for c in products_oracle(f, f.conjugate())]
    assert coefficient_bits(f.symmetrization()) == stripped(real_parts)


@given(substrate_polys, scalars)
def test_scalar_maps_are_the_full_hamilton_product_on_either_side(f, c):
    # f * c and c * f multiply each coefficient by the quaternion c, never by a float
    lifted = Quaternion(c) if not isinstance(c, Quaternion) else c
    assert coefficient_bits(f * c) == stripped(a * lifted for a in f.coeffs)
    assert coefficient_bits(c * f) == stripped(lifted * a for a in f.coeffs)
    assert coefficient_bits(f + c) == stripped(sums_oracle(f, RegularPolynomial([lifted])))
    assert coefficient_bits(c - f) == stripped(
        differences_oracle(RegularPolynomial([lifted]), f))


@given(substrate_polys, signed_quats, quats)
def test_evaluation_remainder_and_expansion_keep_their_bits(f, q0, q):
    assert bits(f.evaluate(q)) == bits(horner_oracle(f, q))
    assert coefficient_bits(f.remainder(q0)) == stripped(remainder_oracle(f, q0))
    if q0.is_real():
        return
    expected, g, qc = [], f, q0.conjugate()
    for _ in range(2):
        expected.append(horner_oracle(g, q0))
        h = RegularPolynomial(remainder_oracle(g, q0))
        expected.append(horner_oracle(h, qc))
        g = RegularPolynomial(remainder_oracle(h, qc))
    got = f.spherical_expansion(q0, 1).coefficients
    assert [bits(c) for c in got] == [bits(c) for c in expected]


@given(substrate_polys)
def test_the_coefficient_view_round_trips_and_compares_by_value(f):
    assert all(type(c) is Quaternion for c in f.coeffs)
    assert [bits(f.coefficient(n)) for n in range(-1, len(f.coeffs) + 2)] == (
        [bits(ZERO)] + coefficient_bits(f) + [bits(ZERO)] * 2)
    again = RegularPolynomial(f.coeffs)
    assert again == f and hash(again) == hash(f) and coefficient_bits(again) == coefficient_bits(f)
    assert RegularPolynomial.from_json(f.to_json()) == f
    assert RegularPolynomial.from_json(json.loads(json.dumps(f.to_json()))) == f
    for other in (copy.copy(f), copy.deepcopy(f), pickle.loads(pickle.dumps(f))):
        assert other == f and hash(other) == hash(f)
        assert coefficient_bits(other) == coefficient_bits(f)
    # -0.0 compares equal to 0.0, so a sign flip of a zero keeps equality and hash
    flipped = RegularPolynomial([Quaternion(*(-v if v == 0.0 else v for v in c.to_json()))
                                 for c in f.coeffs])
    assert flipped == f and hash(flipped) == hash(f)
    assert f != RegularPolynomial(list(f.coeffs) + [ONE])


_BIG = RegularPolynomial([Quaternion(1e200, -1e200, 0.0, 1e-300), Quaternion(1e308, 1e308, -1e308, 0.0)])


@pytest.mark.parametrize("operation, message", [
    (lambda: _BIG + RegularPolynomial([Quaternion(1.0, 2.0), Quaternion(-1e308, 1e308, 3.0, -0.0)]),
     "(0.0, inf, -1e+308, 0.0)"),
    (lambda: _BIG - RegularPolynomial([Quaternion(1.0, 2.0), Quaternion(-1e308, 1e308, 3.0, -0.0)]),
     "(inf, 0.0, -1e+308, 0.0)"),
    (lambda: _BIG * _BIG, "(nan, -inf, 0.0, 2e-100)"),
    (lambda: _BIG * RegularPolynomial([Quaternion(1e200, 0.5)]), "(inf, -inf, 5e-301, 1e-100)"),
    (lambda: RegularPolynomial([Quaternion(-1e200)]) * _BIG, "(-inf, inf, 0.0, -1e-100)"),
    (lambda: _BIG * Quaternion(1e200, 1.0), "(inf, -inf, 1e-300, 1e-100)"),
    (lambda: Quaternion(1e200, 1.0) * _BIG, "(inf, -inf, -1e-300, 1e-100)"),
    (lambda: _BIG * 1e300, "(inf, -inf, 0.0, 1.0)"),
    (lambda: RegularPolynomial([ZERO] * 5 + [Quaternion(1e308, -1e308, 2.0)]).cullen_derivative(),
     "(inf, -inf, 10.0, 0.0)"),
], ids=["sum", "difference", "star", "star-by-constant", "real-star", "times-scalar",
        "scalar-times", "times-float", "derivative"])
def test_an_overflow_reports_the_first_non_finite_coefficient(operation, message):
    # the messages an operation on quaternion coefficients gave, pinned
    with pytest.raises(ValueError) as raised:
        operation()
    assert str(raised.value) == "non-finite quaternion component in " + message


def _count_polynomials(monkeypatch):
    """The classes of the objects made by a call of RegularPolynomial, which runs its
    ``__init__``, or by the bare ``object.__new__`` of ``srq.series``, each listed once."""
    made = []
    init, new = RegularPolynomial.__init__, series._new

    def counting_init(self, *args):
        made.append(type(self))
        init(self, *args)

    def counting_new(cls):
        made.append(cls)
        return new(cls)

    monkeypatch.setattr(RegularPolynomial, "__init__", counting_init)
    monkeypatch.setattr(series, "_new", counting_new)
    return made


@pytest.mark.parametrize("left", [False, True], ids=["right-products", "left-products"])
def test_each_constructor_makes_one_polynomial(monkeypatch, left):
    P, R = [(1.0, 2.0, 0.0, 0.0), (0.5, 0.0, 1.0, 0.0)], [(1.0, 0.0, 0.0, -3.0)]
    p, r = (0.0, 1.0, 0.0, 0.0), (2.0, 0.0, -1.0, 0.0)
    f, g = (RegularPolynomial([_make(*c) for c in parts]) for parts in (P, R))
    # the polynomial expression that _combination stands for, bit for bit
    want = _make(*p) * f + _make(*r) * g if left else f * _make(*p) + g * _make(*r)
    made = _count_polynomials(monkeypatch)
    assert RegularPolynomial([ONE, I, ZERO])._c == ((1.0, 0.0, 0.0, 0.0), (0.0, 1.0, 0.0, 0.0))
    assert made == [RegularPolynomial]
    made.clear()
    assert _combination(P, p, R, r, left)._c == want._c
    assert made == [RegularPolynomial]


# -- the spherical expansion on floats against the quaternion chains it replaced ----------
#
# spherical_expansion chains evaluate and remainder on float 4-tuples, and the
# expansion evaluates its brackets and S = (q - x0)^2 + y0^2 on them too.  These
# oracles are the quaternion-level bodies they replace (whose last step, Horner's rule
# in S, already ran on floats): every value keeps its bits, signed zeros included, and
# an overflow raises the same error with the same message.


def expansion_oracle(f, q0, n_max):
    q0 = Quaternion(*q0.to_json())
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    if q0.is_real():
        if n_max > 0:
            raise DegenerateCenter(f"center {q0} is real: the sphere through it degenerates")
        return [f.evaluate(q0)], q0.w, 0.0
    qc = q0.conjugate()
    coeffs = []
    g = f
    for _ in range(n_max + 1):
        coeffs.append(g.evaluate(q0))
        h = g.remainder(q0)
        coeffs.append(h.evaluate(qc))
        g = h.remainder(qc)
    sc = q0.slice_decompose()
    return coeffs, sc.x0, sc.y0


def expansion_value_oracle(e, q):
    offset = q - e.center
    evens, odds = e.coefficients[0::2], e.coefficients[1::2]
    brackets = [a + offset * b for a, b in zip(evens, odds)] + list(evens[len(odds):])
    shifted = q - e.x0
    s = shifted * shifted + e.y0 * e.y0
    brackets = [(c.w, c.x, c.y, c.z) for c in brackets]
    return _make(*_horner_floats(brackets, [(s.w, s.x, s.y, s.z)])[0])


def result(func, *args):
    """The hex bits of a result (quaternions, lists of them and floats), or the type and
    message of its error."""
    try:
        value = func(*args)
    except (ValueError, DegenerateCenter) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(value, Quaternion):
        return bits(value)
    if isinstance(value, float):
        return value.hex()
    return [result(lambda: v) for v in value]


def expansion_of(f, q0, n_max):
    e = f.spherical_expansion(q0, n_max)
    return e.coefficients, e.x0, e.y0


# components from the unit range, both zeros, and values whose products overflow
wide = st.one_of(st.floats(min_value=-2.0, max_value=2.0),
                 st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 1e154, -1e154, 1e300, -1e300,
                                  1.5e308, -1.5e308]))
wide_quats = st.builds(Quaternion, wide, wide, wide, wide)
wide_polys = st.lists(wide_quats, max_size=7).map(RegularPolynomial)


@given(wide_polys, wide_quats, st.integers(0, 4), wide_quats)
def test_spherical_expansion_keeps_the_bits_of_the_quaternion_chain(f, q0, n_max, q):
    got = result(expansion_of, f, q0, n_max)
    assert got == result(expansion_oracle, f, q0, n_max)
    if isinstance(got, list):
        e = f.spherical_expansion(q0, n_max)
        assert result(e.evaluate, q) == result(expansion_value_oracle, e, q)


@given(wide_quats, st.lists(wide_quats, max_size=7), wide_quats)
def test_expansion_values_keep_the_bits_of_the_quaternion_chain(center, coefficients, q):
    e = SphericalExpansion(center, coefficients)
    sc = center.slice_decompose()
    assert (e.x0.hex(), e.y0.hex()) == (sc.x0.hex(), sc.y0.hex())
    assert result(e.evaluate, q) == result(expansion_value_oracle, e, q)


@pytest.mark.parametrize("f, q0, n_max, q", [
    (RegularPolynomial([ONE, Quaternion(1e300, 1.0)]), Quaternion(0.0, 1e10), 1, I),
    (RegularPolynomial([ONE, ONE, Quaternion(1e300)]), Quaternion(0.5, 1e300), 1, I),
    (RegularPolynomial([ONE]), Quaternion(1e308, 1.0), 0, Quaternion(-1e308, 1.0)),
    (RegularPolynomial([ONE, I, J]), Quaternion(0.5, 0.5), 1, Quaternion(-1e300, 1e300)),
    (RegularPolynomial([ONE, I, J]), Quaternion(0.5, 0.5), 1, Quaternion(1e160, 1.0)),
    (RegularPolynomial([ONE, I, J, K, ONE, I]), Quaternion(0.5, 0.5), 2, Quaternion(1e100, 1e100)),
], ids=["coefficient", "remainder", "offset", "offset-product", "sphere", "horner"])
def test_an_overflowing_expansion_raises_what_the_chain_raised(f, q0, n_max, q):
    # each input overflows at a different step; the one that fails names its components
    got = result(expansion_of, f, q0, n_max)
    assert got == result(expansion_oracle, f, q0, n_max)
    if isinstance(got, list):
        e = f.spherical_expansion(q0, n_max)
        got = result(e.evaluate, q)
        assert got == result(expansion_value_oracle, e, q)
    assert got[0] == "ValueError" and "non-finite quaternion component" in got[1]
