"""Matrices, determinants, group membership, actions, and normal forms."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from srq.errors import (DegenerateComposite, DegenerateSwap, NotHermitian, NotSp11, PoleError,
                        SingularMatrix)
from srq.fractional import (QuaternionMatrix2, _gram_gap, _require_invertible,
                            classical_fractional, from_normal_form, generator,
                            hermitian_coincidence_check, left_action, left_right_convert,
                            normal_form, regular_fractional, right_action)
from srq.geometry import regular_moebius_map
from srq.quaternion import I, J, K, ONE, ZERO, Quaternion, _hamilton, _make, _zero_bound
from srq.rational import RegularQuotient
from srq.series import RegularPolynomial

Q = RegularPolynomial.identity()
ID2 = QuaternionMatrix2.identity()


def rand_quat(rng, scale=1.0):
    return Quaternion(rng.uniform(-scale, scale), rng.uniform(-scale, scale),
                      rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def rand_matrix(rng, min_det=0.2):
    while True:
        m = QuaternionMatrix2(rand_quat(rng), rand_quat(rng), rand_quat(rng), rand_quat(rng))
        if m.dieudonne_det() > min_det:
            return m


def rand_poly(rng, degree, scale=1.0):
    return RegularPolynomial([rand_quat(rng, scale) for _ in range(degree + 1)])


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


def complex_adjoint(m):
    """4x4 complex matrix representing a quaternionic 2x2 matrix."""

    def block(q):
        z1 = complex(q.w, q.x)
        z2 = complex(q.y, q.z)
        return np.array([[z1, z2], [-z2.conjugate(), z1.conjugate()]])

    return np.block([[block(m.a), block(m.c)], [block(m.b), block(m.d)]])


def pointwise_close(f, g, rng, count=50, tol=1e-9, radius=0.9):
    for _ in range(count):
        q = sample_ball(rng, radius)
        try:
            a = f.evaluate(q)
            b = g.evaluate(q)
        except PoleError:
            continue
        assert (a - b).norm() <= tol * (1 + a.norm()), f"mismatch at {q}: {a} vs {b}"


def _entries(m):
    return m.a, m.c, m.b, m.d


def matrices_close(m, n, tol):
    """Every entry of ``m`` within ``tol`` of ``n``'s."""
    return all((p - q).norm() <= tol for p, q in zip(_entries(m), _entries(n)))


def test_matrix_multiplication():
    rng = random.Random(0)
    a, b = rand_matrix(rng), rand_matrix(rng)
    assert matrices_close(ID2 * a, a, 1e-15)
    assert matrices_close(a * ID2, a, 1e-15)
    # associativity
    c = rand_matrix(rng)
    assert matrices_close((a * b) * c, a * (b * c), 1e-12)


def test_dieudonne_det_examples():
    assert math.isclose(ID2.dieudonne_det(), 1.0)
    diag = QuaternionMatrix2(Quaternion(2), ZERO, ZERO, Quaternion(2))
    assert math.isclose(diag.dieudonne_det(), 4.0)
    off = QuaternionMatrix2(ZERO, J, I, ZERO)
    assert math.isclose(off.dieudonne_det(), 1.0)


def test_dieudonne_det_against_complex_adjoint():
    rng = random.Random(1)
    for _ in range(40):
        m = rand_matrix(rng, min_det=0.0)
        oracle = math.sqrt(abs(np.linalg.det(complex_adjoint(m))))
        assert math.isclose(m.dieudonne_det(), oracle, rel_tol=1e-9, abs_tol=1e-12)


def test_dieudonne_det_takes_a_as_zero_below_the_zero_bound():
    # entry scale 1, so |a| counts as zero at or below EPS * 2 = 2e-12; the determinant
    # |a - 1| then reads as |b||c| = 1 exactly (the old cut was an inline 1e-14)
    def det(a):
        return QuaternionMatrix2(Quaternion(a), ONE, ONE, ONE).dieudonne_det()

    assert det(1.9e-12) == 1.0
    assert abs(det(2.1e-12) - (1.0 - 2.1e-12)) < 1e-15


def test_dieudonne_det_multiplicative():
    rng = random.Random(2)
    for _ in range(30):
        a, b = rand_matrix(rng, 0.0), rand_matrix(rng, 0.0)
        assert math.isclose((a * b).dieudonne_det(),
                            a.dieudonne_det() * b.dieudonne_det(), rel_tol=1e-9)


def test_is_sp11_examples():
    h = QuaternionMatrix2(ONE, ZERO, ZERO, -ONE)
    assert h.is_sp11()
    assert ID2.is_sp11()
    built = from_normal_form(I * 0.5, ONE)
    assert built.is_sp11(1e-9)
    # the unscaled matrix misses the identity
    assert not built.scale(1.1).is_sp11(1e-6)
    rng = random.Random(3)
    for _ in range(20):
        assert not rand_matrix(rng).is_sp11(1e-6)


def test_sp11_matrices_have_unit_determinant():
    rng = random.Random(4)
    for _ in range(30):
        m = from_normal_form(sample_ball(rng), sample_unit(rng))
        assert abs(m.dieudonne_det() - 1.0) < 1e-9


def test_regular_fractional_examples():
    rng = random.Random(5)
    frac = regular_fractional(ID2)
    for _ in range(10):
        q = rand_quat(rng)
        assert frac.evaluate(q).isclose(q)

    affine = regular_fractional(QuaternionMatrix2(I, ZERO, J, ONE))
    for _ in range(10):
        q = rand_quat(rng)
        assert affine.evaluate(q).isclose(q * I + J)

    inv = regular_fractional(generator("inversion"))
    assert inv.evaluate(Quaternion(2)).isclose(Quaternion(0.5))

    with pytest.raises(SingularMatrix):
        regular_fractional(QuaternionMatrix2(ONE, ZERO, ONE, ZERO))


def test_right_action_examples():
    rng = random.Random(6)
    f = RegularQuotient(rand_poly(rng, 2), rand_poly(rng, 2), "left")
    pointwise_close(right_action(f, ID2), f, rng, tol=1e-12)

    a = rand_matrix(rng)
    pointwise_close(right_action(RegularQuotient.from_polynomial(Q), a),
                    regular_fractional(a), rng, tol=1e-12)

    # quaternion multiples of the identity stabilize the identity function
    c = rand_quat(rng)
    scalar = QuaternionMatrix2(c, ZERO, ZERO, c)
    pointwise_close(right_action(RegularQuotient.from_polynomial(Q), scalar),
                    RegularQuotient.from_polynomial(Q), rng, tol=1e-12)


def test_right_action_composition():
    rng = random.Random(7)
    for _ in range(10):
        a, b = rand_matrix(rng), rand_matrix(rng)
        f = rand_poly(rng, rng.randint(1, 3))
        lhs = right_action(right_action(f, a), b)
        rhs = right_action(f, a * b)
        pointwise_close(lhs, rhs, rng, count=20, tol=1e-9)


def test_left_action_composition():
    rng = random.Random(8)
    for _ in range(10):
        a, b = rand_matrix(rng), rand_matrix(rng)
        f = rand_poly(rng, rng.randint(1, 3))
        lhs = left_action(a, left_action(b, f))
        rhs = left_action(a * b, f)
        pointwise_close(lhs, rhs, rng, count=20, tol=1e-9)


def test_degenerate_composite():
    f = RegularPolynomial.constant(Quaternion(-2))
    bad = QuaternionMatrix2(ONE, ONE, ZERO, Quaternion(2))
    with pytest.raises(DegenerateComposite):
        right_action(f, bad)


def ring_right_action(f, A):
    """Oracle: right_action by generic ring arithmetic, (f*c + d)^{-1} * (f*a + b)."""
    return (f * A.c + A.d).reciprocal() * (f * A.a + A.b)


def ring_left_action(A, f):
    """Oracle: left_action by generic ring arithmetic, (a*f + b) * (c*f + d)^{-1}."""
    A = A.transpose()
    return (A.a * f + A.b) * (A.c * f + A.d).reciprocal()


def cross_kind_quotients(rng):
    """Quotients that neither action takes as a pair of its own side."""
    a = RegularQuotient(rand_poly(rng, 2), rand_poly(rng, 1), "left")
    b = RegularQuotient(rand_poly(rng, 1), rand_poly(rng, 2), "right")
    return [a + b, a * b, a - 2.0, a.cullen_derivative(), b.remainder(rand_quat(rng))]


def test_actions_on_cross_kind_quotients_match_ring_arithmetic():
    rng = random.Random(12)
    compared = 0
    for _ in range(8):
        A = rand_matrix(rng)
        left = RegularQuotient(rand_poly(rng, 2), rand_poly(rng, 2), "left")
        right = RegularQuotient(rand_poly(rng, 2), rand_poly(rng, 2), "right")
        expanded = cross_kind_quotients(rng)
        cases = [(right_action(f, A), ring_right_action(f, A), "left") for f in expanded + [right]]
        cases += [(left_action(A, f), ring_left_action(A, f), "right") for f in expanded + [left]]
        for got, want, side in cases:
            assert (got.side, want.side) == (side, "expanded")
            assert got.sym.degree <= want.sym.degree
            for _ in range(10):
                q = sample_ball(rng)
                if min(got.sym.evaluate(q).norm() / (1 + got.sym.coefficient_norm_sum()),
                       want.sym.evaluate(q).norm() / (1 + want.sym.coefficient_norm_sum())) < 1e-3:
                    continue  # near a pole both are ill-conditioned
                value = got.evaluate(q)
                assert (value - want.evaluate(q)).norm() <= 1e-9 * (1 + value.norm())
                assert (value - got.evaluate_via_transform(q)).norm() <= 1e-9 * (1 + value.norm())
                compared += 1
    assert compared > 600


def test_degenerate_composite_of_an_expanded_quotient():
    f = RegularQuotient.from_polynomial(Q) - (Q + 2.0)  # the constant -2, in expanded form
    assert not f.is_pair
    with pytest.raises(DegenerateComposite):
        right_action(f, QuaternionMatrix2(ONE, ONE, ONE, Quaternion(2)))
    with pytest.raises(DegenerateComposite):
        left_action(QuaternionMatrix2(ONE, ONE, ONE, Quaternion(2)), f)


def test_hermitian_coincidence():
    rng = random.Random(9)
    assert hermitian_coincidence_check(rand_poly(rng, 3), ID2)

    # the matrix of the canonical ball self-map is Hermitian (u = 1)
    m = from_normal_form(I * 0.5, ONE)
    assert hermitian_coincidence_check(RegularPolynomial.identity(), m)

    for _ in range(5):
        b = rand_quat(rng)
        herm = QuaternionMatrix2(Quaternion(rng.uniform(0.5, 2)), b.conjugate(),
                                 b, Quaternion(rng.uniform(0.5, 2)))
        assert hermitian_coincidence_check(Q * Q, herm)
        assert hermitian_coincidence_check(rand_poly(rng, 3), herm)

    with pytest.raises(NotHermitian):
        hermitian_coincidence_check(Q, QuaternionMatrix2(I, ZERO, ZERO, ONE))


def test_hermitian_coincidence_refuses_vacuous_pass():
    # every point of the list is a pole of the composites, so nothing is compared
    f = RegularQuotient(RegularPolynomial([-I, ONE]), RegularPolynomial([ONE]), "left")
    herm = QuaternionMatrix2(2, J, -J, 1)
    with pytest.raises(PoleError):
        hermitian_coincidence_check(f, herm, points=[I, J, -I])
    with pytest.raises(ValueError):
        hermitian_coincidence_check(f, herm, points=[])


def test_self_map_identity_two_quotient_forms():
    # (1 - f conj(a))^{-*} * (f - a) = (f - a) * (1 - conj(a) * f)^{-*} for self-maps
    rng = random.Random(10)
    a = sample_ball(rng, 0.8)
    left = RegularQuotient(RegularPolynomial([ONE, -a.conjugate()]),
                           RegularPolynomial([-a, ONE]), "left")
    right = RegularQuotient(RegularPolynomial([ONE, -a.conjugate()]),
                            RegularPolynomial([-a, ONE]), "right")
    pointwise_close(left, right, rng, tol=1e-11)


def test_conjugation_swaps_the_actions():
    rng = random.Random(11)
    for _ in range(10):
        a = rand_matrix(rng)
        f = rand_poly(rng, rng.randint(1, 3))
        lhs = right_action(f, a).conjugate()
        rhs = left_action(a.conj().transpose(), f.conjugate())
        pointwise_close(lhs, rhs, rng, count=20, tol=1e-10)


def test_left_right_convert_refuses_a_singular_swap():
    # with c = 1 the swap solves (b - d a) p~ = ..., and b - d a = 5e-12 passes the
    # determinant test, whose bound grows with the entries, but not the swap's
    with pytest.raises(DegenerateSwap, match="singular linear solve"):
        left_right_convert(QuaternionMatrix2(ONE, ONE, Quaternion(1.0 + 5e-12), ONE))


def test_left_right_convert():
    rng = random.Random(12)
    # diagonal case: F_A(q) = (d^{-1}a)*q + d^{-1}b
    a, b, d = rand_quat(rng), rand_quat(rng), rand_quat(rng) + Quaternion(2)
    diag = QuaternionMatrix2(a, ZERO, b, d)
    c = left_right_convert(diag)
    expected = RegularPolynomial([d.inverse() * b, d.inverse() * a])
    pointwise_close(left_action(c, Q), RegularQuotient.from_polynomial(expected),
                    rng, tol=1e-11)

    pointwise_close(left_action(left_right_convert(ID2), Q),
                    RegularQuotient.from_polynomial(Q), rng, tol=1e-12)

    for _ in range(15):
        m = rand_matrix(rng)
        converted = left_right_convert(m)
        pointwise_close(left_action(converted, Q), regular_fractional(m),
                        rng, count=50, tol=1e-9)


def test_conjugate_of_fractional_is_fractional():
    # the conjugate of (qc+d)^{-*}*(qa+b) is the right quotient
    # (q conj(a)+conj(b)) * (q conj(c)+conj(d))^{-*}; swapping the linear
    # factor back to the left exhibits it as a fractional transformation again
    rng = random.Random(18)
    for _ in range(15):
        m = rand_matrix(rng)
        if m.c.norm() < 0.1:
            continue
        target = regular_fractional(m).conjugate()
        cbar_inv = m.c.conjugate().inverse()
        alpha = m.a.conjugate() * cbar_inv
        beta = m.b.conjugate() * cbar_inv
        p = -(m.d.conjugate() * cbar_inv)
        lead = beta - alpha * p.conjugate() + alpha * (2.0 * p.w)
        if lead.norm() < 1e-6:
            continue
        phat = (beta * p.conjugate() + alpha * p.norm_sq()) * lead.inverse()
        gamma = alpha
        delta = beta - alpha * p.conjugate() + phat * gamma
        rebuilt = QuaternionMatrix2(gamma, ONE, delta, -phat.conjugate())
        pointwise_close(regular_fractional(rebuilt), target, rng, count=25, tol=1e-9)


def test_normal_form_example():
    m = from_normal_form(I * 0.5, ONE)
    frac = regular_fractional(m)
    assert frac.evaluate(ZERO).isclose(I * (-0.5), rel_tol=1e-12)
    assert frac.evaluate(I * 0.5).norm() < 1e-12
    nf = normal_form(m)
    assert nf.q0.isclose(I * 0.5, abs_tol=1e-12)
    assert nf.u.isclose(ONE, abs_tol=1e-12)


def test_normal_form_roundtrip():
    rng = random.Random(13)
    for _ in range(50):
        q0 = sample_ball(rng)
        u = sample_unit(rng)
        m = from_normal_form(q0, u)
        assert m.is_sp11(1e-9)
        nf = normal_form(m)
        assert nf.q0.isclose(q0, abs_tol=1e-10)
        assert nf.u.isclose(u, abs_tol=1e-10)


def test_normal_form_origin_phase_recovery():
    rng = random.Random(14)
    u = sample_unit(rng)
    m = from_normal_form(ZERO, u)
    nf = normal_form(m)
    assert nf.q0.isclose(ZERO, abs_tol=1e-12)
    assert nf.u.isclose(u, abs_tol=1e-12)


def test_normal_form_rejects_non_members():
    with pytest.raises(NotSp11):
        normal_form(QuaternionMatrix2(Quaternion(2), ZERO, ZERO, ONE))


@pytest.mark.parametrize("matrix, message", [
    # entries of 1e5 give the identity an absolute tolerance near 10, so these pass
    # is_sp11; all equal entries recover q0 = -1, on the boundary
    (QuaternionMatrix2(1e5, 1e5, 1e5, 1e5), "recovered zero |q0| = 1 escapes the ball"),
    # |c| just below |d| keeps q0 inside, but |a| / |d| = 1.001 is no unit phase
    (QuaternionMatrix2(1.001e5, 1e5 * (1 - 1e-11), 1.001e5 * (1 - 1e-11), 1e5),
     "recovered phase is not unit: |u| = 1.001"),
], ids=["zero-outside-the-ball", "phase-not-unit"])
def test_normal_form_refuses_members_within_tolerance_that_recover_no_normal_form(matrix, message):
    assert matrix.is_sp11()
    with pytest.raises(NotSp11, match=message.replace("|", r"\|")):
        normal_form(matrix)


def test_normal_form_refuses_a_member_within_tolerance_whose_d_vanishes():
    # entries of 1e5 pass is_sp11 with a determinant of 0; d = 0 has no inverse,
    # and every member of the group has |d|^2 = 1 + |c|^2 >= 1
    matrix = QuaternionMatrix2(1e5, 0, 1e5, 0)
    assert matrix.is_sp11()
    with pytest.raises(NotSp11, match=r"\|d\| = 0"):
        normal_form(matrix)


def test_sp11_maps_keep_the_ball():
    rng = random.Random(15)
    for _ in range(10):
        m = from_normal_form(sample_ball(rng), sample_unit(rng))
        frac = regular_fractional(m)
        for _ in range(100):
            q = sample_ball(rng, 0.99)
            assert frac.evaluate(q).norm() < 1.0


def test_classical_fractional_and_generators():
    assert classical_fractional(generator("inversion"), I).isclose(-I)
    assert classical_fractional(generator("translation", J), I).isclose(I + J)
    assert classical_fractional(generator("dilation", 2.0), ONE + K).isclose(
        Quaternion(2) + K * 2)
    assert classical_fractional(generator("rotation", J), I).isclose(I * J)
    with pytest.raises(PoleError):
        classical_fractional(generator("inversion"), ZERO)
    with pytest.raises(ValueError):
        generator("rotation", Quaternion(2))
    for factor in (0.0, -2.0):
        with pytest.raises(ValueError, match="dilation factor must be a positive real"):
            generator("dilation", factor)
    with pytest.raises(ValueError, match="unknown generator kind 'shear'"):
        generator("shear", 1.0)


def test_classical_matches_regular_at_real_points():
    rng = random.Random(16)
    for _ in range(20):
        m = rand_matrix(rng)
        x = Quaternion(rng.uniform(-2, 2))
        try:
            classical = classical_fractional(m, x)
            regular = regular_fractional(m).evaluate(x)
        except PoleError:
            continue
        assert classical.isclose(regular, rel_tol=1e-10, abs_tol=1e-12)


def test_matrix_json_roundtrip():
    rng = random.Random(17)
    m = rand_matrix(rng)
    again = QuaternionMatrix2.from_json(m.to_json())
    assert again == m


@pytest.mark.parametrize("junk", ["q", None, [1.0, 2.0]])
def test_left_action_refuses_what_it_cannot_lift(junk):
    m = from_normal_form(I * 0.5, ONE)
    with pytest.raises(TypeError):
        left_action(m, junk)
    with pytest.raises(TypeError):
        right_action(junk, m)


def test_left_action_lifts_scalars_and_polynomials_like_a_right_pair():
    m = from_normal_form(I * 0.5, J)
    for f in (2.0, Q * Q + I):
        got = left_action(m, f)
        want = left_action(m, RegularQuotient(1, f, "right"))
        assert (got.side, got.den, got.num, got.sym, got.conum) == \
            (want.side, want.den, want.num, want.sym, want.conum)


def test_default_hermitian_grid_is_fifty_seeded_ball_samples(monkeypatch):
    import srq.fractional as fractional
    from srq.verify import sample_ball as ball_sampler

    drawn = []

    def recording(rng, radius):
        q = ball_sampler(rng, radius)
        drawn.append((q, radius))
        return q

    monkeypatch.setattr(fractional, "sample_ball", recording)
    assert hermitian_coincidence_check(Q * Q, ID2)
    rng = random.Random("hermitian-grid")
    assert drawn == [(ball_sampler(rng, 0.85), 0.85) for _ in range(50)]
    # the same points as a rejection loop over four uniform draws in w, x, y, z order
    oracle, rng = [], random.Random("hermitian-grid")
    while len(oracle) < 50:
        q = rand_quat(rng)
        if q.norm() < 0.85:
            oracle.append(q)
    assert [q for q, _ in drawn] == oracle


# -- group membership near the boundary ------------------------------------------------


@pytest.mark.parametrize("gap", [1e-7, 1e-9, 1e-11])
def test_is_sp11_accepts_exact_members_near_the_boundary(gap):
    # the entries grow like 1/(1 - |q0|^2), and A* H A with them; an absolute
    # tolerance refused 62 of these 200 members at 1e-7 and all of them at 1e-9
    rng = random.Random(f"sp11-boundary:{gap}")
    for _ in range(200):
        q0 = sample_unit(rng) * (1.0 - gap)
        assert from_normal_form(q0, sample_unit(rng)).is_sp11()


def test_is_sp11_still_refuses_perturbed_members_and_random_matrices():
    rng = random.Random("sp11-perturbed")
    for _ in range(500):
        m = from_normal_form(sample_unit(rng) * rng.uniform(0.0, 1.0 - 1e-6), sample_unit(rng))

        def nudge(e):
            return e + sample_unit(rng) * (1e-6 * e.norm())

        assert not QuaternionMatrix2(nudge(m.a), nudge(m.c), nudge(m.b), nudge(m.d)).is_sp11()
    for _ in range(500):
        m = QuaternionMatrix2(rand_quat(rng, 2), rand_quat(rng, 2), rand_quat(rng, 2),
                              rand_quat(rng, 2))
        assert not m.is_sp11()


# -- the normal form read off the matrix ------------------------------------------------


def pull_back_normal_form(A):
    """The earlier route, kept as an oracle: pull the numerator's zero -b a^{-1}
    back through f = qc + d, then read the phase off F_A at a probe point."""
    w = -(A.b * A.a.inverse())
    fw = w * A.c + A.d
    q0 = fw.inverse() * w * fw
    frac = regular_fractional(A)
    if q0.norm() > 1e-9:
        u = -(q0.inverse() * frac.evaluate(ZERO))
    else:
        m = (ONE - q0.conjugate() * 0.5).inverse() * (Quaternion(0.5) - q0)
        u = m.inverse() * frac.evaluate(Quaternion(0.5))
    return q0, u / u.norm()


component = st.floats(min_value=-1.0, max_value=1.0)
units = st.builds(Quaternion, component, component, component, component).filter(
    lambda q: q.norm() > 0.1).map(lambda q: q / q.norm())
centers = st.builds(lambda d, r: d * r, units, st.floats(min_value=0.0, max_value=0.9))


def diag(w):
    return QuaternionMatrix2(w, ZERO, ZERO, w)


@given(centers, units, units)
def test_normal_form_ignores_a_left_scalar_factor(q0, u, w):
    A = from_normal_form(q0, u)
    nf = normal_form(diag(w) * A)
    assert nf.q0.isclose(q0, abs_tol=1e-14)
    assert nf.u.isclose(u, abs_tol=1e-14)


@given(centers, units, centers, units, units)
def test_normal_form_agrees_with_the_pull_back_on_products(q1, u1, q2, u2, w):
    # a product of members (and a scalar factor) has a non-real d, which
    # from_normal_form alone never produces
    A = diag(w) * from_normal_form(q1, u1) * from_normal_form(q2, u2)
    nf = normal_form(A)
    q0, u = pull_back_normal_form(A)
    assert nf.q0.isclose(q0, abs_tol=1e-12)
    assert nf.u.isclose(u, abs_tol=1e-12)


@given(centers, units, centers, units, units)
def test_normal_form_names_the_map_of_the_matrix(q1, u1, q2, u2, w):
    A = diag(w) * from_normal_form(q1, u1) * from_normal_form(q2, u2)
    nf = normal_form(A)
    frac = regular_fractional(A)
    moebius = regular_moebius_map(nf.q0, nf.u)
    rng = random.Random("normal-form-map")
    for _ in range(5):
        q = sample_ball(rng)
        assert frac.evaluate(q).isclose(moebius.evaluate(q), abs_tol=1e-10)


@pytest.mark.parametrize("radius", [0.999, 1.0 - 1e-9, 1.0 - 1e-11])
@given(units, units)
def test_normal_form_round_trips_near_the_boundary(radius, direction, u):
    q0 = direction * radius
    nf = normal_form(from_normal_form(q0, u))
    assert nf.q0.isclose(q0, abs_tol=1e-15)
    assert nf.u.isclose(u, abs_tol=1e-15)


def test_normal_form_builds_no_quotient(monkeypatch):
    def refuse(*args):
        raise AssertionError("normal_form built a RegularQuotient")

    monkeypatch.setattr(RegularQuotient, "_install", refuse)
    rng = random.Random("normal-form-accuracy")
    worst = 0.0
    for _ in range(4000):
        q0 = sample_unit(rng) * rng.uniform(0.0, 0.999)
        u = sample_unit(rng)
        nf = normal_form(from_normal_form(q0, u))
        worst = max(worst, (nf.q0 - q0).norm(), (nf.u - u).norm())
    assert worst <= 1e-15


def test_hermitian_coincidence_reports_actions_that_differ(monkeypatch):
    import srq.fractional as fractional

    rng = random.Random(10)
    f = rand_poly(rng, 2)
    b = rand_quat(rng)
    herm = QuaternionMatrix2(Quaternion(1.5), b.conjugate(), b, Quaternion(2.0))
    assert hermitian_coincidence_check(f, herm)
    left = fractional.left_action
    monkeypatch.setattr(fractional, "left_action", lambda A, g: left(A, g) + 1e-6)
    assert hermitian_coincidence_check(f, herm) is False


# -- the float kernels against the quaternion formulas they replaced --------------------
#
# The matrix kernels run on unpacked floats.  These oracles are the quaternion-level
# formulas they replaced; products, transposes, normal forms and determinants must
# keep their bits (repr shows the sign of a zero), and the membership and
# invertibility tests their verdicts.  An outcome is the value or the error's type.


def oracle_product(A, B):
    return QuaternionMatrix2(A.a * B.a + A.c * B.b, A.a * B.c + A.c * B.d,
                             A.b * B.a + A.d * B.b, A.b * B.c + A.d * B.d)


def oracle_entry_scale(A):
    return max(A.a.norm(), A.b.norm(), A.c.norm(), A.d.norm())


def oracle_det(A):
    if A.a.norm() > _zero_bound(oracle_entry_scale(A)):
        return A.a.norm() * (A.d - A.b * A.a.inverse() * A.c).norm()
    return A.b.norm() * A.c.norm()


def oracle_is_sp11(A, tol=1e-9):
    h = QuaternionMatrix2(ONE, ZERO, ZERO, -ONE)
    conj_transpose = QuaternionMatrix2(A.a.conjugate(), A.b.conjugate(),
                                       A.c.conjugate(), A.d.conjugate())
    m = oracle_product(conj_transpose, oracle_product(h, A))
    s = 1.0 + oracle_entry_scale(A)
    bound = tol * (s * s)
    return all((p - q).norm() <= bound for p, q in zip(_entries(m), _entries(h)))


def oracle_invertible(A):
    scale = oracle_entry_scale(A)
    return oracle_det(A) > _zero_bound(scale) * (1.0 + scale)


def oracle_from_normal_form(q0, u):
    lam = 1.0 / math.sqrt(1.0 - q0.norm_sq())
    return QuaternionMatrix2(u * lam, -q0.conjugate() * lam, -(q0 * u) * lam, Quaternion(lam))


def oracle_normal_form(A):
    if not oracle_is_sp11(A):
        raise NotSp11("matrix does not satisfy the defining identity")
    dinv = A.d.inverse()
    q0 = -(dinv * A.c).conjugate()
    if q0.norm() >= 1.0:
        raise NotSp11(f"recovered zero |q0| = {q0.norm():g} escapes the ball")
    u = dinv * A.a
    if abs(u.norm() - 1.0) > 1e-6:
        raise NotSp11(f"recovered phase is not unit: |u| = {u.norm():g}")
    return u / u.norm(), q0


def outcome(func, *args):
    """The bits of a result (quaternions, matrices and floats by repr), or the
    type and, for the normal form's refusals, the message of its error."""
    try:
        value = func(*args)
    except NotSp11 as exc:
        return "NotSp11", str(exc)
    except (ValueError, ZeroDivisionError, OverflowError, SingularMatrix) as exc:
        return type(exc).__name__
    if isinstance(value, QuaternionMatrix2):
        value = _entries(value)
    elif hasattr(value, "q0"):  # a MoebiusNormalForm
        value = value.u, value.q0
    return repr(value)


def verdict(func, *args):
    try:
        return bool(func(*args))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc).__name__


def _invertible(A):
    try:
        _require_invertible(A)
    except SingularMatrix:
        return False
    return True


# components: ordinary values, both zeros, values far below and far above one, and
# entries so large that the squares the identities form overflow
part = st.one_of(st.floats(min_value=-2.0, max_value=2.0),
                 st.sampled_from([0.0, -0.0, 1.0, -1.0, 1e-13, -1e-13, 1e-300, 1e5, -1e5,
                                  1e160, -1e160]))
quaternions = st.builds(Quaternion, part, part, part, part)
# a may be nonzero yet below the determinant's zero bound beside the other entries
tiny = st.builds(Quaternion, *[st.sampled_from([0.0, -0.0, 1e-13, -3e-13, 1.5e-12])] * 4)
raw_matrices = st.builds(QuaternionMatrix2, st.one_of(quaternions, tiny), quaternions,
                         quaternions, quaternions)
members = st.builds(lambda w, q0, u: diag(w) * from_normal_form(q0, u), units, centers, units)
# entries near 1e5, as in the refusals of the normal form above: the identity's
# tolerance is then near 10, so matrices far from the group pass is_sp11, and
# d = 0 passes it too and reaches the inverse of d
large = st.builds(lambda a, c, b, d, e: QuaternionMatrix2(a, c * (1 - e), b * (1 - e), d),
                  *[st.sampled_from([1e5, -1e5, 1.001e5, 0.0])] * 4,
                  st.sampled_from([0.0, 1e-11, 1e-9, 1e-5]))


@st.composite
def near_tolerance(draw):
    """A member scaled by 1 + delta, delta about where is_sp11's tolerance lies."""
    m = draw(members)
    s = oracle_entry_scale(m)
    delta = draw(st.floats(min_value=0.8, max_value=1.2)) * 0.5e-9 * (1.0 + s) ** 2
    return m.scale(1.0 + delta * draw(st.sampled_from([1.0, -1.0])))


matrices = st.one_of(raw_matrices, members, large, near_tolerance())


# exact members, where a zero tolerance is met with equality; a at its zero bound
# beside entries of modulus one (|a| = EPS * (1 + 1)); squares that overflow
@example(ID2, QuaternionMatrix2(ONE, ZERO, ZERO, -ONE))
@example(QuaternionMatrix2(2e-12, 1, 1, 1), QuaternionMatrix2(-0.0, -0.0, 0.0, 1))
@example(QuaternionMatrix2(1, 1e160, 1e160, 1), QuaternionMatrix2(1e160, 1, 1, 1e160))
@example(QuaternionMatrix2(1e290, 1e300, 1e300, 1), ID2)  # b a^{-1} c overflows
@given(matrices, matrices)
def test_matrix_kernels_keep_the_bits_of_the_quaternion_formulas(A, B):
    assert outcome(lambda: A * B) == outcome(oracle_product, A, B)
    assert outcome(A.transpose) == repr((A.a, A.b, A.c, A.d))
    assert outcome(A.dieudonne_det) == outcome(oracle_det, A)
    assert outcome(A.entry_scale) == outcome(oracle_entry_scale, A)
    assert verdict(A.is_sp11) == verdict(oracle_is_sp11, A)
    assert verdict(A.is_sp11, 1e-6) == verdict(oracle_is_sp11, A, 1e-6)
    assert verdict(A.is_sp11, 0.0) == verdict(oracle_is_sp11, A, 0.0)
    assert verdict(_invertible, A) == verdict(oracle_invertible, A)
    assert outcome(normal_form, A) == outcome(oracle_normal_form, A)


signed = st.one_of(st.floats(min_value=-0.5, max_value=0.5), st.sampled_from([0.0, -0.0]))


# zeros whose recovered components come back as -0.0
@example(Quaternion(-0.0, -0.0, -0.0, 0.0), ONE)
@example(Quaternion(-0.0, 0.0, -0.0, -0.0), ONE)
@example(Quaternion(-0.0, -0.0, 0.0, -0.0), ONE)
@given(st.builds(Quaternion, signed, signed, signed, signed), units)
def test_from_normal_form_keeps_the_bits_of_the_quaternion_formula(q0, u):
    assert outcome(from_normal_form, q0, u) == outcome(oracle_from_normal_form, q0, u)
    A = from_normal_form(q0, u)
    assert outcome(normal_form, A) == outcome(oracle_normal_form, A)


def gram_gap_oracle(x, y, z, w, target):
    # the entry gap with the quaternion _make built for its finiteness test and norm
    p = _hamilton((x[0], -x[1], -x[2], -x[3]), y)
    q = _hamilton((z[0], -z[1], -z[2], -z[3]), w)
    return _make(p[0] - q[0] - target, p[1] - q[1], p[2] - q[2], p[3] - q[3]).norm()


def gap_result(func, *args):
    try:
        return func(*args).hex()
    except ValueError as exc:
        return "ValueError", str(exc)


@example(QuaternionMatrix2(1e160, 1e160, 1, 1))  # the first gap overflows
@example(QuaternionMatrix2(1, 1, 1e160, -1e160))  # its conj(z) w term does
@given(matrices)
def test_each_gram_gap_keeps_its_bits_and_its_overflow_message(A):
    a, c, b, d = (tuple(q.to_json()) for q in (A.a, A.c, A.b, A.d))
    for args in ((a, a, b, b, 1.0), (a, c, b, d, 0.0), (c, a, d, b, 0.0), (c, c, d, d, -1.0)):
        assert gap_result(_gram_gap, *args) == gap_result(gram_gap_oracle, *args)


def test_near_tolerance_matrices_meet_both_verdicts():
    # the scale(1 + delta) strategy straddles is_sp11's tolerance, so the verdict
    # property above sees members and non-members that differ by a rounding
    rng = random.Random("near-tolerance")
    seen = set()
    for _ in range(200):
        m = diag(sample_unit(rng)) * from_normal_form(sample_ball(rng) * 0.9, sample_unit(rng))
        s = oracle_entry_scale(m)
        delta = rng.uniform(0.8, 1.2) * 0.5e-9 * (1.0 + s) ** 2
        scaled = m.scale(1.0 + delta)
        seen.add(scaled.is_sp11())
        assert scaled.is_sp11() == oracle_is_sp11(scaled)
    assert seen == {True, False}


@example(RegularPolynomial([Quaternion(-0.0, -0.0, -0.0, -0.0), Quaternion(0.0, -0.0, 0.25, -0.0)]))
@example(-0.0)
@example(Quaternion(0.5, -0.0, -0.0, 0.0))
@given(st.one_of(st.builds(RegularPolynomial, st.lists(st.builds(Quaternion, signed, signed, signed,
                                                                  signed), max_size=4)),
                 st.builds(Quaternion, signed, signed, signed, signed), signed))
def test_actions_on_polynomials_keep_the_bits_of_the_lifted_quotient(g):
    # the actions read a polynomial or a scalar as the pair of 1^{-*}*g without
    # building that quotient; each part keeps the bits that quotient's pair had.
    # The second matrix's zeros let the sign of a zero coefficient of g reach the result
    matrices = (from_normal_form(Quaternion(0.25, -0.5, 0.0, 0.125), Quaternion(0.6, 0.0, -0.8)),
                QuaternionMatrix2(Quaternion(-1.0, 1.0, -0.0, -0.0), Quaternion(-1.0, 0.0, -0.0, -1.0),
                                  Quaternion(1.0, 1.0, 1.0, 0.0), Quaternion(1.0, 0.0, 1.0, -0.0)))
    lifted = RegularQuotient.from_polynomial(g)

    def bits(f):
        return [repr(p._c) for p in (f.den, f.num, f.sym, f.conum)]

    for A in matrices:
        for act in (lambda h: left_action(A, h), lambda h: right_action(h, A)):
            assert outcome(lambda: bits(act(g))) == outcome(lambda: bits(act(lifted)))


# -- the group actions against their polynomial expressions ------------------------------
#
# Each action builds its denominator and numerator as one fused combination of
# coefficient lists; these oracles are the polynomial expressions it replaces.


def right_action_oracle(F, G, A):
    _require_invertible(A)
    den = G * A.c + F * A.d
    if den.is_zero:
        raise DegenerateComposite("composite denominator is identically zero")
    return RegularQuotient(den, G * A.a + F * A.b, "left")


def left_action_oracle(A, H, G):
    _require_invertible(A)
    den = A.b * G + A.d * H
    if den.is_zero:
        raise DegenerateComposite("composite denominator is identically zero")
    return RegularQuotient(den, A.a * G + A.c * H, "right")


def action_bits(act, *args):
    """repr(_c) of den, num, sym and conum, or the type and message of the error."""
    try:
        f = act(*args)
    except (ValueError, SingularMatrix, DegenerateComposite) as exc:
        return type(exc).__name__, str(exc)
    return [repr(p._c) for p in (f.den, f.num, f.sym, f.conum)]


signed_quaternions = st.builds(Quaternion, signed, signed, signed, signed)
signed_polynomials = st.builds(RegularPolynomial, st.lists(signed_quaternions, max_size=4))
# rotations and translations have zero entries
action_matrices = st.one_of(st.builds(QuaternionMatrix2, *[signed_quaternions] * 4),
                            units.map(lambda u: generator("rotation", u)),
                            signed_quaternions.map(lambda p: generator("translation", p)))
big = Quaternion(1e150)


# a numerator product overflows; a denominator product overflows where the other
# product's coefficient is nonzero, so the error must be that product's, not the sum's
@example(RegularPolynomial([Quaternion(1e160, 0.5)]), None, QuaternionMatrix2(big, ZERO, ZERO, big))
@example(RegularPolynomial([Quaternion(1e160, 0.5)]), RegularPolynomial([ONE]),
         QuaternionMatrix2(big, big, big, Quaternion(1e150, 1e150)))
@given(signed_polynomials, st.one_of(st.none(), signed_polynomials), action_matrices)
def test_actions_keep_the_bits_of_their_polynomial_expressions(g, F, A):
    one = RegularPolynomial([ONE])
    if F is None or F.is_zero:  # a polynomial g, read as 1^{-*}*g and g*1^{-*}
        assert action_bits(right_action, g, A) == action_bits(right_action_oracle, one, g, A)
        assert action_bits(left_action, A, g) == action_bits(left_action_oracle, A, one, one * g)
    else:
        assert (action_bits(right_action, RegularQuotient(F, g, "left"), A)
                == action_bits(right_action_oracle, F, g, A))
        assert (action_bits(left_action, A, RegularQuotient(F, g, "right"))
                == action_bits(left_action_oracle, A, F, g))


def test_an_action_whose_sum_overflows_from_finite_products_raises_the_sums_error():
    # an expanded quotient reads as the pair (sym, conum), whose products by the
    # unit entries stay finite while their sum overflows
    S, P = RegularPolynomial([Quaternion(1e308)]), RegularPolynomial([Quaternion(1.5e308)])
    f = RegularQuotient.from_expanded(S, P)
    overflow = ("ValueError", "non-finite quaternion component in (inf, 0.0, 0.0, 0.0)")
    A = QuaternionMatrix2(ONE, ONE, ZERO, ONE)
    assert action_bits(right_action, f, A) == action_bits(right_action_oracle, S, P, A) == overflow
    B = QuaternionMatrix2(ONE, ZERO, ONE, ONE)
    assert action_bits(left_action, B, f) == action_bits(left_action_oracle, B, S, P) == overflow
