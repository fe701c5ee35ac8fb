"""Point-list evaluation against the per-point paths it serves, bit for bit.

``verify`` takes each map's values over its whole sample set at once: one
Horner pass per polynomial, one ball sampler call and one pass of slice
residuals, each giving the modulus, residual, draw or error of the per-point
path.  A quotient S^{-1} P's moduli are |P(q)| / |S(z)| on the complex slice
z = w + i|Im q| (one ``sym`` pass shared between quotients whose ``sym``
coefficients compare equal); they are pinned bit for bit to a test-local
copy of that formula, and their error to a bound checked against the exact
oracle of ``exact.py``.  float.hex tells -0.0 from 0.0, which == does not.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import srq.rational as rational
from exact import modulus_sq, quotient_modulus_sq, relative_error
from sampling import ball_oracle
from srq.errors import PoleError
from srq.geometry import _ball_floats, regular_moebius_map, sample_ball
from srq.quaternion import I, ONE, Quaternion, _make, _norm
from srq.rational import RegularQuotient, _moduli_at
from srq.series import RegularPolynomial, SphericalExpansion, evaluate_any
from srq.verify import (_fold, _margins, _slice_residuals, make_zero_case_map,
                        random_self_map, sample_unit, sample_unit_imaginary,
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


def reference(quotients, points):
    return outcome(lambda: [[quotient_modulus_at(f, q) for q in points] for f in quotients])


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


def quotient_modulus_at(f, q):
    # |P(q)| / |S(z)|, z = w + i|Im q|: S has real coefficients, so |S(q)| = |S(z)|
    z = complex(q.w, _norm(0.0, q.x, q.y, q.z))
    s = 0.0
    for c in reversed(f.sym.coeffs):
        s = s * z + c.w
    s = _norm(s.real, s.imag, 0.0, 0.0)
    if s < f._pole_scale:
        raise PoleError(f"{q} lies on the zero set of the denominator symmetrization")
    n = _norm(*horner_per_point(f.conum.coeffs, q.w, q.x, q.y, q.z)) / s
    if not n < math.inf:
        f.evaluate(q)
    return n


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
    # per point, |P(q)| / |S(z)|: the reference formula, not evaluate(q).norm()
    if den.is_zero:
        den = RegularPolynomial([ONE])
    pair = RegularQuotient(den, num, "right" if kind == "right" else "left")
    f = RegularQuotient.from_expanded(pair.sym, pair.conum) if kind == "expanded" else pair
    points = points + [Quaternion(0.0, -0.0, 0.0, -0.0)]
    assert batched([f], points) == reference([f], points)


# -- the error of the quotient moduli against the exact oracle --------------------------------

UNIT_ROUNDOFF = 2.0 ** -53


def error_bound(f, p):
    """(d + 2) u (kappa_P + kappa_S): d the larger degree, kappa_P =
    sum |p_n| |q|^n / |P(q)| and kappa_S = sum (n + 1) |s_n| |q|^n / |S(q)|, the
    n + 1 carrying the rounding of |Im q| through S'."""
    r = math.hypot(*p)
    exact_p = math.sqrt(modulus_sq([c.to_json() for c in f.conum.coeffs], p))
    exact_s = math.sqrt(modulus_sq([c.to_json() for c in f.sym.coeffs], p))
    kappa_p = math.fsum(c.norm() * r ** n for n, c in enumerate(f.conum.coeffs)) / exact_p
    kappa_s = math.fsum((n + 1) * c.norm() * r ** n for n, c in enumerate(f.sym.coeffs)) / exact_s
    return (max(f.sym.degree, f.conum.degree) + 2) * UNIT_ROUNDOFF * (kappa_p + kappa_s)


def near_sphere(rng, x0, y0, delta):
    # a point of the sphere x0 + y0 S, moved by delta in a random direction
    q = Quaternion(x0) + sample_unit_imaginary(rng) * y0 + sample_unit(rng) * delta
    return q.w, q.x, q.y, q.z


def oracle_cases():
    """Seeded quotients with their points: ball points and points 1e-2 to 1e-8 from
    a pole sphere, for pair quotients with a pole in the ball, and for zero-case
    ratios, whose sphere of q0 carries a removable singularity."""
    rng = random.Random(2012)
    cases = []
    for k in range(12):
        p = sample_ball(rng, 0.9)
        den = RegularPolynomial([-p, ONE])
        if k % 2:
            den = den * random_self_map(rng, rng.randint(1, 2))
        num = random_self_map(rng, rng.randint(0, 3))
        cases.append((RegularQuotient(den, num, "right" if k % 3 == 0 else "left"), p))
    for k in range(8):
        q0 = sample_ball(rng, 0.8)
        f = make_zero_case_map(rng, q0, rng.randint(1, 3))
        cases.append((regular_moebius_map(q0).reciprocal() * f, q0))
    out = []
    for f, centre in cases:
        sc = centre.slice_decompose()
        points = _ball_floats(rng, 0.95, 12)
        points += [near_sphere(rng, sc.x0, sc.y0, delta)
                   for delta in (1e-2, 1e-4, 1e-6, 1e-8) for _ in range(3)]
        out.append((f, points))
    return out


def test_quotient_moduli_stay_within_the_error_bound_of_the_exact_oracle():
    checked = 0
    for f, points in oracle_cases():
        sym = [c.to_json() for c in f.sym.coeffs]
        conum = [c.to_json() for c in f.conum.coeffs]
        for p, modulus in zip(points, _moduli_at([f], points)[0]):
            exact_sq = quotient_modulus_sq(sym, conum, p)
            bound = error_bound(f, p)
            assert relative_error(modulus, exact_sq) <= bound
            # the quaternion route keeps the same bound
            assert relative_error(f.evaluate(Quaternion(*p)).norm(), exact_sq) <= bound
            checked += 1
    assert checked == 20 * 24


def test_the_exact_oracle_agrees_with_exactly_representable_cases():
    # (q - i)^s = q^2 + 1 at q = 1 + j is 1 + 2j: |S|^2 = 5; conum q at it: |P|^2 = 2
    assert quotient_modulus_sq([(1.0, 0, 0, 0), (0, 0, 0, 0), (1.0, 0, 0, 0)],
                               [(0, 0, 0, 0), (1.0, 0, 0, 0)], (1.0, 0.0, 1.0, 0.0)) == \
        Fraction(2, 5)
    # i j = k, and the right coefficient multiplies from the right: q a at q = i, a = j
    assert quotient_modulus_sq([(1.0, 0, 0, 0)], [(0, 0, 0, 0), (0, 0, 1.0, 0)],
                               (0.0, 1.0, 0.0, 0.0)) == 1
    assert relative_error(1.5, Fraction(9, 4)) == 0.0
    assert relative_error(math.nextafter(1.0, 2.0), Fraction(1)) == 2.0 ** -52


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
    assert batched([a, b], points) == reference([a, b], points)


def test_quotients_with_equal_sym_share_one_pass(monkeypatch):
    calls = []

    def counting(kernel):
        def count(coeffs, points):
            calls.append((kernel.__name__, list(coeffs)))
            return kernel(coeffs, points)
        return count

    for name in ("_horner", "_horner_floats"):
        monkeypatch.setattr(rational, name, counting(getattr(rational, name)))
    a = RegularQuotient(Q - I * 0.5, Q + 1.0)
    b = RegularQuotient(Q - I * 0.5, Q * Q)
    c = RegularQuotient(Q + 2.0, ONE)
    _moduli_at([a, b, c, a], floats_of([Quaternion(0.1, 0.2), Quaternion(-0.3)]))
    def parts(f):
        return [(c.w, c.x, c.y, c.z) for c in f.conum.coeffs]

    # two scalar sym passes on the slice (a and b share one), four Hamilton conum passes
    assert calls == [("_horner", [0.25, 0.0, 1.0]), ("_horner_floats", parts(a)),
                     ("_horner_floats", parts(b)), ("_horner", [4.0, 4.0, 1.0]),
                     ("_horner_floats", parts(c)), ("_horner_floats", parts(a))]


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
    # a finite conumerator whose product with 1/sym overflows reports the product;
    # the modulus 1e300 / 1e-11 overflows too, and raises the same error
    g = RegularQuotient.from_expanded(RegularPolynomial([1e-11]), RegularPolynomial([1e300]))
    expected = single(quotient_per_point, g, ONE)
    assert expected[0] is ValueError and expected[1].startswith("non-finite quaternion component")
    assert single(RegularQuotient.evaluate, g, ONE) == expected
    assert batched([g], [ONE]) == expected


def test_a_finite_value_whose_modulus_overflows_keeps_an_infinite_modulus():
    # every component is finite, so evaluate raises nowhere, but |P| = 3e308
    # overflows; a polynomial gives norm() = inf there, and so does the quotient
    big = Quaternion(1.5e308, 1.5e308, 1.5e308, 1.5e308)
    f = RegularQuotient(ONE, RegularPolynomial([big]))
    assert f.evaluate(ONE) == big
    assert batched([f, RegularPolynomial([big])], [ONE]) == [[math.inf.hex()]] * 2


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
           [[c.hex() for c in ball_oracle(oracle, radius)] for _ in range(count)]
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


# -- the margin fold ---------------------------------------------------------------------


def margins_per_margin(rhs, lhs, tol):
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
     [0.5, 0.0, 0.5, 1.0, 1.0 + 2e-9, 1.0, 1.0 + 2e-9, 9.0], 7),
    # a NaN first margin stays the worst: nothing compares below it
    ([math.nan, 1.0, 2.0, 1.0, 0.5, 1.0, 1.0, 9.0], [0.0, 2.0, 0.0, 1.0, 0.25, 5.0, 0.0, 9.0], 0),
    # margins 1.0, -4.0, 0.0, -4.0, -4.0: the earliest of the tied smallest
    ([1.0, 1.0, 2.0, 0.0, 5.0], [0.0, 5.0, 2.0, 4.0, 9.0], 1),
    # -0.0 and 0.0 tie too
    ([0.0, 0.0, 1.0], [0.0, -0.0, 0.5], 0),
])
def test_margins_over_a_batch_is_the_fold_of_one_margin_summaries_and_builds_one_witness(
        rhs, lhs, built_at):
    # the witness is built once, for the earliest smallest margin; the oracle
    # of the summary, margins_per_margin, builds one at each new smallest margin
    built = []
    batch = _margins("p", 1e-9, rhs, lhs, lambda i: built.append(i) or {"i": i})
    assert repr(batch) == repr(margins_per_margin(rhs, lhs, 1e-9))
    assert built == [built_at]
    one_by_one = _fold([_margins("p", 1e-9, (r,), (l,), lambda _, i=i: {"i": i})
                        for i, (r, l) in enumerate(zip(rhs, lhs))])
    assert repr(one_by_one) == repr(batch)


def test_margins_over_no_margin_build_no_witness():
    def refuse(i):
        raise AssertionError(f"witness({i}) built for an empty batch")
    assert _margins("p", 1e-9, [], [], refuse) == {
        "worst_margin": None, "max_abs_margin": 0.0, "violations": 0, "checked": 0, "witness": {}}
