"""Point-list evaluation against the per-point paths it serves, bit for bit.

``verify`` takes each map's values over its whole sample set at once: one
Horner pass per polynomial, one fused quotient pass (sharing ``sym`` between
quotients whose ``sym`` coefficients compare equal), one ball sampler call and
one pass of slice residuals.  Every modulus, residual, draw and error must be
the one the per-point path gives; float.hex tells -0.0 from 0.0, which ==
does not.
"""

import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import srq.rational as rational
from srq.errors import PoleError
from srq.geometry import _ball_floats, sample_ball
from srq.quaternion import I, ONE, Quaternion, _make, _norm
from srq.rational import RegularQuotient, _moduli_at
from srq.series import RegularPolynomial, SphericalExpansion, evaluate_any
from srq.verify import (_slice_residuals, _Tracker, sample_unit_imaginary,
                        slice_regularity_residual)

Q = RegularPolynomial.identity()

signed_zero = st.sampled_from([0.0, -0.0])
component = st.one_of(signed_zero, st.floats(min_value=-10.0, max_value=10.0))
quats = st.builds(Quaternion, component, component, component, component)
polys = st.lists(quats, max_size=6).map(RegularPolynomial)
point_lists = st.lists(quats, min_size=1, max_size=6)


def floats_of(points):
    return [(q.w, q.x, q.y, q.z) for q in points]


def outcome(compute):
    try:
        return [[v.hex() for v in row] for row in compute()]
    except (PoleError, ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


def per_point(maps, points):
    return outcome(lambda: [[evaluate_any(f, q).norm() for q in points] for f in maps])


def batched(maps, points):
    return outcome(lambda: _moduli_at(maps, floats_of(points)))


# -- the per-point loops that the point-list kernels replace ------------------------------


def horner_per_point(coeffs, qw, qx, qy, qz):
    if not coeffs:
        return 0.0, 0.0, 0.0, 0.0
    top = coeffs[-1]
    w, x, y, z = top.w, top.x, top.y, top.z
    for c in coeffs[-2::-1]:
        w, x, y, z = (qw * w - qx * x - qy * y - qz * z + c.w,
                      qw * x + qx * w + qy * z - qz * y + c.x,
                      qw * y - qx * z + qy * w + qz * x + c.y,
                      qw * z + qx * y - qy * x + qz * w + c.z)
    return w, x, y, z


def polynomial_per_point(f, q):
    if len(f.coeffs) < 2:
        return f.coeffs[0] if f.coeffs else Quaternion()
    return _make(*horner_per_point(f.coeffs, q.w, q.x, q.y, q.z))


def quotient_per_point(f, q):
    qw, qx, qy, qz = q.w, q.x, q.y, q.z
    sw, sx, sy, sz = horner_per_point(f.sym.coeffs, qw, qx, qy, qz)
    n2 = sw * sw + sx * sx + sy * sy + sz * sz
    if not 1e-24 < n2 < math.inf:
        s = _make(sw, sx, sy, sz)
        if s.norm() < f._pole_scale:
            raise PoleError(f"{q} lies on the zero set of the denominator symmetrization")
        return s.inverse() * _make(*horner_per_point(f.conum.coeffs, qw, qx, qy, qz))
    if math.sqrt(n2) < f._pole_scale:
        raise PoleError(f"{q} lies on the zero set of the denominator symmetrization")
    w1, x1, y1, z1 = sw / n2, -sx / n2, -sy / n2, -sz / n2
    w2, x2, y2, z2 = horner_per_point(f.conum.coeffs, qw, qx, qy, qz)
    try:
        return _make(w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
                     w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
                     w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
                     w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)
    except ValueError:
        _make(w2, x2, y2, z2)
        raise


def ball_per_point(rng, radius):
    while True:
        w, x, y, z = (rng.uniform(-1, 1), rng.uniform(-1, 1),
                      rng.uniform(-1, 1), rng.uniform(-1, 1))
        if _norm(w, x, y, z) < radius:
            return _make(w, x, y, z)


def residual_per_sample(f, x, y, I):
    step = 1e-5

    def at(xx, yy):
        return evaluate_any(f, Quaternion(xx) + I * yy)

    dx = (at(x + step, y) - at(x - step, y)) / (2.0 * step)
    dy = (at(x, y + step) - at(x, y - step)) / (2.0 * step)
    return (0.5 * (dx + I * dy)).norm()


def single(evaluate, f, q):
    return outcome(lambda: [[c for c in evaluate(f, q).to_json()]])


# -- polynomials and quotients -----------------------------------------------------------


@given(polys, point_lists)
@example(RegularPolynomial(), [Quaternion(0.5, -0.0), Quaternion()])
@example(RegularPolynomial([Quaternion(-0.0, 0.25, -0.0, 3.0)]), [Quaternion(2.0, 1.0)])
def test_polynomial_moduli_match_per_point_evaluation(f, points):
    assert batched([f], points) == per_point([f], points)


@given(st.sampled_from(["left", "right", "expanded"]), polys, polys, point_lists)
@settings(max_examples=150)
def test_quotient_moduli_match_per_point_evaluation(kind, den, num, points):
    if den.is_zero:
        den = RegularPolynomial([ONE])
    pair = RegularQuotient(den, num, "right" if kind == "right" else "left")
    f = RegularQuotient.from_expanded(pair.sym, pair.conum) if kind == "expanded" else pair
    points = points + [Quaternion(0.0, -0.0, 0.0, -0.0)]
    assert batched([f], points) == per_point([f], points)


@given(st.lists(st.tuples(st.floats(-4.0, 4.0) | signed_zero, signed_zero, signed_zero,
                          signed_zero), min_size=1, max_size=5),
       polys, polys, st.randoms(use_true_random=False), point_lists)
def test_a_shared_sym_pass_gives_the_unshared_moduli(sym_parts, p1, p2, rng, points):
    # the second sym flips the sign of every zero of the first, so the two
    # compare equal and share one pass, though their values may differ in signed zeros
    flipped = [tuple(-v if v == 0.0 and rng.random() < 0.5 else v for v in c) for c in sym_parts]
    s1 = RegularPolynomial([Quaternion(*c) for c in sym_parts])
    s2 = RegularPolynomial([Quaternion(*c) for c in flipped])
    if s1.is_zero:
        s1 = s2 = RegularPolynomial([ONE])
    assert s1.coeffs == s2.coeffs
    a = RegularQuotient.from_expanded(s1, p1)
    b = RegularQuotient.from_expanded(s2, p2)
    points = points + [Quaternion(0.5, -0.0, 0.0, -0.0)]
    assert batched([a, b], points) == outcome(
        lambda: [_moduli_at([a], floats_of(points))[0], _moduli_at([b], floats_of(points))[0]])
    assert batched([a, b], points) == per_point([a, b], points)


def test_quotients_with_equal_sym_share_one_pass(monkeypatch):
    calls = []

    def counting(coeffs, points):
        calls.append(coeffs)
        return horner(coeffs, points)

    horner = rational._horner_floats
    monkeypatch.setattr(rational, "_horner_floats", counting)
    a = RegularQuotient(Q - I * 0.5, Q + 1.0)
    b = RegularQuotient(Q - I * 0.5, Q * Q)
    c = RegularQuotient(Q + 2.0, ONE)
    _moduli_at([a, b, c, a], floats_of([Quaternion(0.1, 0.2), Quaternion(-0.3)]))
    # two sym passes (a and b share one) and four conum passes
    assert [k for k in calls if k in (a.sym.coeffs, c.sym.coeffs)] == [a.sym.coeffs, c.sym.coeffs]
    assert len(calls) == 6


@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 3), st.integers(-1, 3),
       st.sampled_from(["left", "right"]))
@settings(max_examples=60)
def test_one_point_evaluation_matches_the_per_point_loop(seed, den_degree, num_degree, side):
    rng = random.Random(seed)

    def rand_quat(scale=1.0):
        return Quaternion(*(rng.choice([0.0, -0.0]) if rng.random() < 0.2
                            else rng.uniform(-scale, scale) for _ in range(4)))

    den = RegularPolynomial([rand_quat(2.0) for _ in range(den_degree + 1)])
    num = RegularPolynomial([rand_quat() for _ in range(num_degree + 1)])
    if den.is_zero:
        den = RegularPolynomial([ONE])
    f = RegularQuotient(den, num, side)
    expansion = SphericalExpansion(rand_quat(), [rand_quat() for _ in range(num_degree + 2)])
    for _ in range(20):
        q = rand_quat(1.5)
        assert single(RegularQuotient.evaluate, f, q) == single(quotient_per_point, f, q)
        assert single(RegularPolynomial.evaluate, num, q) == single(polynomial_per_point, num, q)
        offset = q - expansion.center
        brackets = [a + offset * b for a, b in zip(expansion.coefficients[0::2],
                                                   expansion.coefficients[1::2])]
        brackets += list(expansion.coefficients[0::2][len(brackets):])
        s = (q - expansion.x0) * (q - expansion.x0) + expansion.y0 * expansion.y0
        expected = _make(*horner_per_point(brackets, s.w, s.x, s.y, s.z))
        assert [c.hex() for c in expansion.evaluate(q).to_json()] == \
               [c.hex() for c in expected.to_json()]


def test_a_point_on_the_sym_zero_set_raises_pole_error():
    f = RegularQuotient(Q - I, ONE)
    points = [Quaternion(0.5), I * -1.0, I]
    for q in points[1:]:
        with pytest.raises(PoleError, match=f"^{q} lies on the zero set"):
            f.evaluate(q)
    assert batched([f], points) == (PoleError, "-i lies on the zero set of the denominator "
                                               "symmetrization")


def test_a_non_finite_conumerator_raises_with_its_own_components():
    # conum = 1e300 q^2 overflows at q = 1e5, while sym = 1 does not
    f = RegularQuotient(ONE, RegularPolynomial([0.0, 0.0, 1e300]))
    q = Quaternion(1e5)
    expected = single(quotient_per_point, f, q)
    assert expected[0] is ValueError and expected[1].startswith("non-finite quaternion component")
    assert expected == single(lambda f, q: f.conum.evaluate(q), f, q)
    assert single(RegularQuotient.evaluate, f, q) == expected
    assert batched([f], [Quaternion(0.5), q]) == expected
    # a finite conumerator whose product with 1/sym overflows reports the product
    g = RegularQuotient.from_expanded(RegularPolynomial([1e-11]), RegularPolynomial([1e300]))
    assert single(RegularQuotient.evaluate, g, ONE) == single(quotient_per_point, g, ONE)
    assert batched([g], [ONE]) == single(quotient_per_point, g, ONE)


def test_a_batch_raises_at_the_first_failing_point_of_the_first_failing_map():
    # point by point the second map fails first, at 0.5; map by map the first
    # map fails first, at i
    first = RegularQuotient(Q - I, ONE)
    second = RegularQuotient(Q - 0.5, ONE)
    points = [Quaternion(0.25), Quaternion(0.5), I]
    with pytest.raises(PoleError, match="^0.5 lies"):
        for q in points:
            for f in (first, second):
                f.evaluate(q)
    assert batched([first, second], points) == (
        PoleError, "i lies on the zero set of the denominator symmetrization")


# -- the ball sampler and the slice residuals ------------------------------------------------


@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([0.3, 0.95, 0.99, 1.0]),
       st.integers(0, 40))
def test_ball_floats_make_the_draws_of_sample_ball(seed, radius, count):
    rng, one_by_one, oracle = random.Random(seed), random.Random(seed), random.Random(seed)
    got = _ball_floats(rng, radius, count)
    assert [[c.hex() for c in p] for p in got] == \
           [[c.hex() for c in sample_ball(one_by_one, radius).to_json()] for _ in range(count)] == \
           [[c.hex() for c in ball_per_point(oracle, radius).to_json()] for _ in range(count)]
    assert rng.getstate() == one_by_one.getstate() == oracle.getstate()


def pointwise_conjugation(q):
    return q.conjugate()


@pytest.mark.parametrize("f", [
    RegularPolynomial([Quaternion(0.1, 0.2), I * 0.5, Quaternion(-0.3, 0.0, 0.2, 0.1)]),
    RegularQuotient(Q - Quaternion(0.0, 2.0), Q * Q + I, "right"),
    pointwise_conjugation,
], ids=["polynomial", "quotient", "conjugation"])
def test_batched_slice_residuals_match_the_one_sample_residual(f):
    rng = random.Random(5)
    samples = [(rng.uniform(-0.7, 0.7), rng.uniform(0.05, 0.6), sample_unit_imaginary(rng))
               for _ in range(60)]
    got = [r.hex() for r in _slice_residuals(f, samples)]
    assert got == [slice_regularity_residual(f, *s).hex() for s in samples]
    assert got == [residual_per_sample(f, *s).hex() for s in samples]


def test_a_non_finite_residual_is_recomputed_on_quaternions():
    # near |q| = 0.92, 1e308 q^3 leaves the floats; the per-sample path raises
    # there, and the batch raises the same error at the same sample
    f = RegularPolynomial([0.0, 0.0, 0.0, 1e308])
    assert math.isfinite(residual_per_sample(f, 0.3, 0.2, I))
    with pytest.raises(ValueError, match="non-finite") as expected:
        residual_per_sample(f, 0.7, 0.6, I)
    with pytest.raises(ValueError, match="non-finite") as got:
        _slice_residuals(f, [(0.3, 0.2, I), (0.7, 0.6, I), (0.69, 0.59, I)])
    assert str(got.value) == str(expected.value)


# -- the margin tracker ------------------------------------------------------------------


def tracker_per_margin(rhs, lhs, tol):
    worst, worst_abs, violations, witness = None, 0.0, 0, {}
    for i, (r, l) in enumerate(zip(rhs, lhs)):
        margin = r - l
        worst_abs = max(worst_abs, abs(margin))
        if worst is None or margin < worst:
            worst = margin
            witness = dict({"i": i}, property="p", margin=margin)
        if margin < -tol * (1.0 + abs(r)):
            violations += 1
    return {"worst_margin": worst, "max_abs_margin": worst_abs, "violations": violations,
            "checked": len(rhs), "witness": witness}


@pytest.mark.parametrize("rhs, lhs, built_at", [
    # margins 0.5, -0.0, 0.0, nan, -2e-9, 3.0, -2e-9, -5.0
    ([1.0, -0.0, 0.5, math.nan, 1.0, 4.0, 1.0, 4.0],
     [0.5, 0.0, 0.5, 1.0, 1.0 + 2e-9, 1.0, 1.0 + 2e-9, 9.0], [0, 1, 4, 7]),
    ([math.nan, 1.0, 2.0, 1.0, 0.5, 1.0, 1.0, 9.0], [0.0, 2.0, 0.0, 1.0, 0.25, 5.0, 0.0, 9.0], [0]),
])
def test_tracker_update_is_the_per_margin_fold_and_builds_only_new_worst_witnesses(
        rhs, lhs, built_at):
    built = []
    batch = _Tracker("p", 1e-9)
    batch.update(rhs, lhs, lambda i: built.append(i) or {"i": i})
    assert repr(batch.summary()) == repr(tracker_per_margin(rhs, lhs, 1e-9))
    assert built == built_at
    one_by_one = _Tracker("p", 1e-9)
    for i, (r, l) in enumerate(zip(rhs, lhs)):
        one_by_one.update((r,), (l,), lambda _, i=i: {"i": i})
    assert repr(one_by_one.summary()) == repr(batch.summary())
