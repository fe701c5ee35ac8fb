"""Hyperbolic distance, Moebius self-maps, the twist, and geodesics."""

import decimal
import math
import random
from decimal import Decimal

import pytest

from srq import geometry
from srq.errors import (CoincidentPoints, DegenerateCenter, OutsideBall, RealPoint)
from srq.fractional import from_normal_form
from srq.geometry import (GeodesicSegment, classical_moebius, conformality_defect,
                          geodesic, moebius_expansion_coefficients, poincare_distance,
                          pseudo_distance_sq, regular_moebius, regular_moebius_map,
                          twist_map, twist_map_inverse)
from srq.quaternion import I, J, K, ONE, ZERO, Quaternion
from srq.rational import star_transform, star_transform_inverse
from srq.series import RegularPolynomial


def rand_quat(rng, scale=1.0):
    return Quaternion(rng.uniform(-scale, scale), rng.uniform(-scale, scale),
                      rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def sample_ball(rng, radius=0.9):
    while True:
        q = rand_quat(rng)
        if q.norm() < radius:
            return q


def sample_unit(rng):
    while True:
        q = Quaternion(rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1))
        if q.norm() > 1e-3:
            return q / q.norm()


def test_distance_examples():
    assert math.isclose(poincare_distance(ZERO, Quaternion(0.5)),
                        0.5 * math.log(3.0), rel_tol=1e-14)
    q = Quaternion(0.1, -0.2, 0.3)
    assert poincare_distance(q, q) == 0.0


def test_distance_metric_properties():
    rng = random.Random(0)
    for _ in range(50):
        a, b, c = sample_ball(rng), sample_ball(rng), sample_ball(rng)
        assert math.isclose(poincare_distance(a, b), poincare_distance(b, a),
                            rel_tol=1e-12)
        assert poincare_distance(a, b) >= 0.0
        assert (poincare_distance(a, c)
                <= poincare_distance(a, b) + poincare_distance(b, c) + 1e-12)


def test_distance_rejects_boundary():
    with pytest.raises(OutsideBall):
        poincare_distance(Quaternion(1.0), ZERO)
    with pytest.raises(OutsideBall):
        poincare_distance(ZERO, Quaternion(0, 2))


def _distance_oracle(q1, q2) -> float:
    """atanh(t), t^2 = |q1 - q2|^2 / |1 - q1 conj(q2)|^2, in 60-digit decimal
    arithmetic on the exact values of the float components."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        a = [Decimal(v) for v in q1.to_json()]
        b = [Decimal(v) for v in q2.to_json()]
        gap = sum((u - v) ** 2 for u, v in zip(a, b))
        # |1 - q1 conj(q2)|^2 = 1 - 2 <q1, q2> + |q1|^2 |q2|^2
        den = (1 - 2 * sum(u * v for u, v in zip(a, b))
               + sum(u * u for u in a) * sum(v * v for v in b))
        t = (gap / den).sqrt()
        return float(((1 + t) / (1 - t)).ln() / 2)


@pytest.mark.parametrize("gap", [1e-10, 2e-12])
def test_distance_is_finite_wherever_the_ball_accepts_points(gap):
    # t = |q1 - q2| / |1 - q1 conj(q2)| rounded to 1.0 here, and atanh(1.0) raised
    r = 1.0 - gap
    q1, q2, q3 = Quaternion(r), Quaternion(-r), Quaternion(0.0, 0.6 * r, 0.0, 0.8 * r)
    # the rounding of |q|^2 alone moves 1 - |q|^2 ~ 2 gap by up to 2^-53, which
    # moves the distance by up to about 2^-53 / gap: the accuracy the inputs allow
    near = 2.0 ** -52 / gap
    for a, b in ((q1, q2), (q1, q3), (q2, q3)):
        d = poincare_distance(a, b)
        assert math.isfinite(d) and d == poincare_distance(b, a)
        assert math.isclose(d, _distance_oracle(a, b), abs_tol=near)
        assert GeodesicSegment(a, b).length() == d


def test_distance_matches_a_decimal_oracle():
    rng = random.Random(1209)
    worst = 0.0
    for k in range(3000):
        q1 = sample_ball(rng, rng.choice([0.5, 0.9, 0.999]))
        if k % 3 == 0:  # nearby pairs, where t is small and cancellation threatens
            q2 = q1 + rand_quat(rng, 1e-4)
            if q2.norm() >= 1.0:
                continue
        else:
            q2 = sample_ball(rng, rng.choice([0.5, 0.9, 0.999]))
        want = _distance_oracle(q1, q2)
        worst = max(worst, abs(poincare_distance(q1, q2) - want) / want)
    assert worst < 3e-14


def test_distance_keeps_its_digits_at_the_edge_of_the_ball():
    # 1 - |q|^2 formed from a rounded |q|^2 was off by up to 2^-53, a relative
    # error of 2^-53 / (1 - |q|^2) that reached 1.4e-7 of the distance here
    rng = random.Random(2351)
    r = 1.0 - 1e-10
    pairs = [(Quaternion(r), Quaternion(-r))]
    for _ in range(500):
        pairs.append(tuple(sample_unit(rng) * (1.0 - 10.0 ** rng.uniform(-11, -6))
                           for _ in range(2)))
    worst = 0.0
    for q1, q2 in pairs:
        want = _distance_oracle(q1, q2)
        worst = max(worst, abs(poincare_distance(q1, q2) - want) / want)
    assert worst <= 1e-15


# every centre and point meets one open-ball rule, |q| <= 1 - EPS
_CENTRE_USERS = {
    "regular_moebius_map": lambda q0: regular_moebius_map(q0),
    "from_normal_form": lambda q0: from_normal_form(q0, ONE),
    "moebius_expansion_coefficients": lambda q0: moebius_expansion_coefficients(q0, 1),
    "classical_moebius": lambda q0: classical_moebius(q0, ONE, ONE, ZERO),
    "conformality_defect": conformality_defect,
    "GeodesicSegment": lambda q0: GeodesicSegment(q0, ZERO),
    "GeodesicSegment, second endpoint": lambda q0: GeodesicSegment(ZERO, q0),
}


@pytest.mark.parametrize("use", _CENTRE_USERS.values(), ids=_CENTRE_USERS.keys())
def test_one_open_ball_rule(use):
    with pytest.raises(OutsideBall):
        use(I * (1.0 - 5e-13))
    use(I * (1.0 - 2e-12))


def test_geodesic_segment_validates_its_endpoints():
    assert geodesic is GeodesicSegment
    with pytest.raises(OutsideBall):
        GeodesicSegment(Quaternion(2), Quaternion(0.5))
    with pytest.raises(CoincidentPoints):
        GeodesicSegment(Quaternion(0.1), Quaternion(0.1))


def test_classical_moebius_examples():
    rng = random.Random(1)
    for _ in range(10):
        q = sample_ball(rng)
        assert classical_moebius(ZERO, ONE, ONE, q).isclose(q)
    q0 = sample_ball(rng)
    assert classical_moebius(q0, ONE, ONE, q0).isclose(ZERO, abs_tol=1e-14)


def test_classical_moebius_is_isometry():
    rng = random.Random(2)
    for _ in range(20):
        q0 = sample_ball(rng)
        u = sample_unit(rng)
        v = sample_unit(rng)
        for _ in range(10):
            p, q = sample_ball(rng, 0.95), sample_ball(rng, 0.95)
            gp = classical_moebius(q0, u, v, p)
            gq = classical_moebius(q0, u, v, q)
            assert gp.norm() < 1.0 and gq.norm() < 1.0
            assert abs(poincare_distance(gp, gq) - poincare_distance(p, q)) < 1e-9


def test_conjugation_is_isometry():
    rng = random.Random(3)
    for _ in range(50):
        p, q = sample_ball(rng, 0.95), sample_ball(rng, 0.95)
        assert abs(poincare_distance(p.conjugate(), q.conjugate())
                   - poincare_distance(p, q)) < 1e-12


def test_regular_moebius_examples():
    rng = random.Random(4)
    u = sample_unit(rng)
    for _ in range(10):
        q = sample_ball(rng)
        assert regular_moebius(ZERO, u, q).isclose(q * u)
    q0 = sample_ball(rng)
    assert regular_moebius(q0, ONE, q0).norm() < 1e-13
    assert regular_moebius(I * 0.5, ONE, ZERO).isclose(I * (-0.5))


def test_regular_moebius_two_sided_forms_agree():
    rng = random.Random(5)
    for _ in range(10):
        q0 = sample_ball(rng, 0.8)
        left = regular_moebius_map(q0, side="left")
        right = regular_moebius_map(q0, side="right")
        for _ in range(15):
            q = sample_ball(rng, 0.95)
            assert left.evaluate(q).isclose(right.evaluate(q), rel_tol=1e-11, abs_tol=1e-13)


def test_twist_map_worked_example():
    q0 = I * 0.5
    q1 = J * 0.5
    assert twist_map(q0, q0).isclose(q0, abs_tol=1e-15)
    t1 = twist_map(q0, q1)
    assert t1.isclose(Quaternion(0, 8 / 34, 15 / 34, 0), abs_tol=1e-15)
    assert abs(pseudo_distance_sq(q1, q0) - 8 / 17) < 1e-15
    assert abs(pseudo_distance_sq(t1, q0) - 8 / 25) < 1e-15


def test_twist_map_real_center_is_identity():
    rng = random.Random(6)
    for _ in range(10):
        q = sample_ball(rng)
        assert twist_map(Quaternion(0.3), q).isclose(q, rel_tol=1e-13)


def test_twist_inverse():
    rng = random.Random(7)
    for _ in range(30):
        q0 = sample_ball(rng, 0.8)
        q = sample_ball(rng, 0.95)
        assert twist_map_inverse(q0, twist_map(q0, q)).isclose(q, rel_tol=1e-11,
                                                               abs_tol=1e-13)


def test_twist_is_star_transform_of_moebius_denominator_bit_for_bit():
    def bits(q):
        return [v.hex() for v in q.to_json()]

    rng = random.Random(19)
    pairs = [(sample_ball(rng, 0.9), sample_ball(rng, 0.95)) for _ in range(300)]
    pairs += [(Quaternion(0.4), sample_ball(rng)), (sample_ball(rng), Quaternion(-0.3)),
              (Quaternion(0.2), Quaternion(0.5)), (ZERO, sample_ball(rng))]
    for q0, q in pairs:
        den = RegularPolynomial([ONE, -q0.conjugate()])
        m = ONE - q * q0
        forward = twist_map(q0, q)
        assert bits(forward) == bits(star_transform(den, q)) == bits(m.inverse() * q * m)
        m = ONE - q * q0.conjugate()
        backward = twist_map_inverse(q0, q)
        assert bits(backward) == bits(star_transform_inverse(den, q)) == bits(m.inverse() * q * m)


def test_regular_moebius_factors_through_twist():
    # the regular self-map is the classical one composed with the twist
    rng = random.Random(8)
    for _ in range(20):
        q0 = sample_ball(rng, 0.8)
        for _ in range(10):
            q = sample_ball(rng, 0.95)
            lhs = regular_moebius(q0, ONE, q)
            rhs = classical_moebius(q0, ONE, ONE, twist_map(q0, q))
            assert lhs.isclose(rhs, rel_tol=1e-10, abs_tol=1e-12)


def test_twist_strictly_moves_the_witness_pair():
    q0 = I * 0.5
    q1 = J * 0.5
    t1 = twist_map(q0, q1)
    before = poincare_distance(q0, q1)
    after = poincare_distance(twist_map(q0, q0), t1)
    assert after < before
    # the inverse twist expands the image pair back: not a contraction either
    expanded = poincare_distance(twist_map_inverse(q0, twist_map(q0, q0)),
                                 twist_map_inverse(q0, t1))
    assert expanded > after


def test_moebius_derivatives_at_center():
    # slice derivative of the centered self-map is real 4/3 at i/2,
    # spherical derivative is 4/5
    from srq.series import spherical_derivative_at

    q0 = I * 0.5
    m = regular_moebius_map(q0)
    dc = m.cullen_derivative().evaluate(q0)
    assert dc.isclose(Quaternion(4 / 3), rel_tol=1e-12)
    assert dc.is_real(1e-13)
    ds = spherical_derivative_at(m, q0)
    assert ds.isclose(Quaternion(4 / 5), rel_tol=1e-12)


def test_moebius_injectivity_sampling():
    rng = random.Random(14)
    for _ in range(10):
        q0 = sample_ball(rng, 0.8)
        u = sample_unit(rng)
        seen = []
        for _ in range(40):
            q = sample_ball(rng, 0.95)
            value = regular_moebius(q0, u, q)
            for prev_q, prev_v in seen:
                if (q - prev_q).norm() > 1e-6:
                    assert (value - prev_v).norm() > 1e-12
            seen.append((q, value))


def test_moebius_expansion_closed_forms():
    e = moebius_expansion_coefficients(I * 0.5, 2)
    assert e.coefficients[0] == ZERO
    assert e.coefficients[1].isclose(Quaternion(0.8), rel_tol=1e-14)
    assert e.coefficients[2].isclose(I * (-8 / 15), rel_tol=1e-14)

    e0 = moebius_expansion_coefficients(ZERO, 1)
    assert e0.coefficients[1].isclose(ONE)
    assert e0.coefficients[2] == ZERO
    assert e0.coefficients[3] == ZERO

    with pytest.raises(DegenerateCenter):
        moebius_expansion_coefficients(Quaternion(0.5), 2)
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        moebius_expansion_coefficients(I * 0.5, -1)


def test_closed_forms_match_remainder_route():
    # geometric truncation of the quotient, then iterated remainders
    rng = random.Random(9)
    identity = RegularPolynomial.identity()
    for _ in range(5):
        q0 = sample_ball(rng, 0.6)
        if q0.imag_norm() < 0.05:
            continue
        qc = q0.conjugate()
        geom = RegularPolynomial([qc ** n for n in range(61)])
        truncated = geom * (identity - q0)
        mine = truncated.spherical_expansion(q0, 2)
        closed = moebius_expansion_coefficients(q0, 2)
        for n in range(1, 6):
            gap = (mine.coefficients[n] - closed.coefficients[n]).norm()
            assert gap < 1e-8, f"coefficient {n} off by {gap}"


def test_conformality_defect_values():
    slice_mult, orth_mult = conformality_defect(I * 0.5)
    assert math.isclose(slice_mult, 4 / 3, rel_tol=1e-14)
    assert math.isclose(orth_mult, 4 / 5, rel_tol=1e-14)

    slice_mult, orth_mult = conformality_defect((I + J) * 0.5)
    assert math.isclose(slice_mult, 2.0, rel_tol=1e-14)
    assert math.isclose(orth_mult, 2 / 3, rel_tol=1e-14)

    with pytest.raises(RealPoint):
        conformality_defect(Quaternion(0.5))


def test_conformality_defect_matches_finite_differences():
    # directional derivatives along the slice and orthogonal to it
    rng = random.Random(10)
    t = 1e-7
    for _ in range(10):
        q0 = sample_ball(rng, 0.7)
        if q0.imag_norm() < 0.1:
            continue
        sc = q0.slice_decompose()
        v_slice = sc.I
        v_orth = J if abs((sc.I - J).norm()) > 0.5 else K
        v_orth = v_orth - sc.I * ((sc.I.conjugate() * v_orth).w)  # project off the slice axis
        v_orth = (v_orth - Quaternion(v_orth.w)) / max(v_orth.norm(), 1e-9)

        def map_at(q):
            return regular_moebius(q0, ONE, q)

        d_slice = (map_at(q0 + v_slice * t) - map_at(q0 + v_slice * (-t))) / (2 * t)
        d_orth = (map_at(q0 + v_orth * t) - map_at(q0 + v_orth * (-t))) / (2 * t)
        slice_mult, orth_mult = conformality_defect(q0)
        assert math.isclose(d_slice.norm(), slice_mult, rel_tol=1e-5)
        assert math.isclose(d_orth.norm() / v_orth.norm(), orth_mult, rel_tol=1e-5)


def test_slice_multiplier_strictly_dominates():
    rng = random.Random(11)
    for _ in range(50):
        q0 = sample_ball(rng, 0.95)
        if q0.imag_norm() < 1e-6:
            continue
        slice_mult, orth_mult = conformality_defect(q0)
        assert slice_mult > orth_mult


def test_geodesic_examples():
    seg = geodesic(Quaternion(-0.5), Quaternion(0.5))
    assert seg.point(0.0).isclose(Quaternion(-0.5), abs_tol=1e-14)
    assert seg.point(1.0).isclose(Quaternion(0.5), abs_tol=1e-14)
    for t in (0.25, 0.5, 0.75):
        p = seg.point(t)
        assert p.imag_norm() < 1e-14  # the real diameter

    seg = geodesic(ZERO, Quaternion(0.5))
    mid = seg.point(0.5)
    # the Euclidean midpoint of a diameter segment is not the hyperbolic one,
    # but additivity still splits the length
    assert math.isclose(poincare_distance(ZERO, mid) + poincare_distance(mid, Quaternion(0.5)),
                        poincare_distance(ZERO, Quaternion(0.5)), rel_tol=1e-12)

    with pytest.raises(CoincidentPoints):
        geodesic(Quaternion(0.1), Quaternion(0.1))
    for t in (-0.5, 1.5, math.nan):
        with pytest.raises(ValueError, match="parameter must lie in"):
            seg.point(t)


def test_geodesic_stays_in_the_ball_at_its_edge():
    # in q1's chart q2 sits at modulus t, which rounds to 1 here, so point(1.0)
    # was -1.0, on the sphere, and no longer q2
    q1 = Quaternion(1.0 - 1e-10)
    q2 = -q1
    seg = GeodesicSegment(q1, q2)
    assert seg.point(0.0) == q1 and seg.point(1.0) == q2
    for t in (0.5, 0.75, 1 - 1e-9, 1 - 1e-11, 1 - 1e-14):
        geometry._in_ball(seg.point(t), f"point({t})")


def test_geodesic_keeps_its_parametrization_in_either_chart():
    # points near q2 come from q2's chart; inside the ball both charts give the point
    # t * phi_q1(q2) of q1's chart
    rng = random.Random(2352)
    for _ in range(300):
        q1, q2 = sample_ball(rng, 0.95), sample_ball(rng, 0.95)
        seg = GeodesicSegment(q1, q2)
        image = geometry._moebius_to_zero(q1, q2)
        for t in (0.3, 0.6, 0.8, 0.97, 1.0):
            want = geometry._moebius_from_zero(q1, image * t)
            assert seg.point(t).isclose(want, abs_tol=1e-13)


def test_geodesic_refuses_endpoints_that_count_as_one_point():
    # the coincidence test is relative to the endpoints' modulus, not an absolute 1e-13
    q = Quaternion(0.5, 0.1)
    with pytest.raises(CoincidentPoints):
        GeodesicSegment(q, q + 5e-13)
    assert GeodesicSegment(q, q + 5e-12).point(1.0) == q + 5e-12


def test_geodesic_additivity():
    rng = random.Random(12)
    for _ in range(25):
        q1, q2 = sample_ball(rng, 0.9), sample_ball(rng, 0.9)
        if (q1 - q2).norm() < 1e-6:
            continue
        seg = geodesic(q1, q2)
        total = poincare_distance(q1, q2)
        for t in (0.2, 0.5, 0.8):
            m = seg.point(t)
            assert m.norm() < 1.0
            assert abs(poincare_distance(q1, m) + poincare_distance(m, q2) - total) < 1e-8


def test_geodesic_endpoints_random():
    rng = random.Random(13)
    for _ in range(20):
        q1, q2 = sample_ball(rng, 0.9), sample_ball(rng, 0.9)
        if (q1 - q2).norm() < 1e-6:
            continue
        seg = geodesic(q1, q2)
        assert seg.point(0.0).isclose(q1, abs_tol=1e-12)
        assert seg.point(1.0).isclose(q2, abs_tol=1e-12)


# -- the float-level samplers against their quaternion-level oracles ---------------------
#
# sample_ball and _cube_point draw -1.0 + 2.0 * rng.random(), which is exactly
# rng.uniform(-1, 1); _modulus_batch and the Hermitian grid rely on that draw order.


def uniform_cube_oracle(rng):
    return Quaternion(rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1), rng.uniform(-1, 1))


def uniform_ball_oracle(rng, radius):
    while True:
        q = uniform_cube_oracle(rng)
        if math.sqrt(q.w * q.w + q.x * q.x + q.y * q.y + q.z * q.z) < radius:
            return q


def bits(q):
    return tuple(c.hex() for c in (q.w, q.x, q.y, q.z))


@pytest.mark.parametrize("radius", [0.7, 0.8, 0.9, 0.95, 0.99])
def test_samplers_match_the_uniform_oracle_and_its_stream(radius):
    rng, oracle = random.Random(f"ball:{radius}"), random.Random(f"ball:{radius}")
    for _ in range(500):
        assert bits(geometry.sample_ball(rng, radius)) == bits(uniform_ball_oracle(oracle, radius))
        assert bits(geometry._cube_point(rng)) == bits(uniform_cube_oracle(oracle))
    assert rng.getstate() == oracle.getstate()


def test_geodesic_length_is_the_distance_and_adds_up_along_the_segment():
    rng = random.Random(14)
    for _ in range(20):
        q1, q2 = sample_ball(rng, 0.95), sample_ball(rng, 0.95)
        seg = GeodesicSegment(q1, q2)
        length = seg.length()
        assert length == poincare_distance(q1, q2)
        cuts = [q1] + [seg.point(t) for t in (0.25, 0.6)] + [q2]
        pieces = [GeodesicSegment(a, b).length() for a, b in zip(cuts, cuts[1:])]
        assert math.isclose(math.fsum(pieces), length, rel_tol=1e-9)
