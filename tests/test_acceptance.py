"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS line on success; a failing assertion surfaces as an
ordinary pytest failure for that criterion.
"""

import json
import time

from srq.cli import main as cli_main
from srq.fractional import (QuaternionMatrix2, from_normal_form, hermitian_coincidence_check,
                            left_action, normal_form, regular_fractional, right_action)
from srq.geometry import (classical_moebius, moebius_expansion_coefficients,
                          poincare_distance, pseudo_distance_sq, twist_map)
from srq.quaternion import I, J, Quaternion
from srq.rational import RegularQuotient, sphere_zero_set, zeros_on_sphere
from srq.series import RegularPolynomial
from srq.verify import run_suite, sample_ball, sample_unit, stream

Q = RegularPolynomial.identity()


def rand_quat(rng, scale=1.0):
    return Quaternion(rng.uniform(-scale, scale), rng.uniform(-scale, scale),
                      rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def rand_poly(rng, degree, scale=1.0):
    return RegularPolynomial([rand_quat(rng, scale) for _ in range(degree + 1)])


def test_criterion_1_twist_example_reproduction():
    """Squared ratios 8/17 and 8/25 and the twisted point, to 1e-12."""
    start = time.perf_counter()
    q0 = I * 0.5
    q1 = J * 0.5
    assert abs(pseudo_distance_sq(q1, q0) - 8 / 17) <= 1e-12
    t1 = twist_map(q0, q1)
    expected = Quaternion(0, 8 / 34, 15 / 34, 0)
    assert abs(t1.w - expected.w) <= 1e-12
    assert abs(t1.x - expected.x) <= 1e-12
    assert abs(t1.y - expected.y) <= 1e-12
    assert abs(t1.z - expected.z) <= 1e-12
    assert abs(pseudo_distance_sq(t1, q0) - 8 / 25) <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 0.1
    print(f"\nACCEPTANCE 1 PASS: twist example ratios 8/17 and 8/25 reproduced "
          f"({elapsed * 1000:.2f} ms)")


def test_criterion_2_closed_form_coefficients():
    """Closed-form A_1..A_5 match the iterated-remainder route to 1e-8."""
    rng = stream(2025, "criterion-2")
    checked = 0
    worst = 0.0
    while checked < 50:
        q0 = sample_ball(rng, 0.6)
        if q0.imag_norm() < 0.05:
            continue
        checked += 1
        qc = q0.conjugate()
        geom = RegularPolynomial([qc ** n for n in range(61)])
        truncated = geom * (Q - q0)
        remainder_route = truncated.spherical_expansion(q0, 2)
        closed = moebius_expansion_coefficients(q0, 2)
        for n in range(1, 6):
            gap = (remainder_route.coefficients[n] - closed.coefficients[n]).norm()
            worst = max(worst, gap)
            assert gap <= 1e-8, f"A_{n} gap {gap} at center {q0}"
    print(f"\nACCEPTANCE 2 PASS: closed-form A_1..A_5 match remainders on 50 "
          f"centers (worst gap {worst:.2e})")


def test_criterion_3_quotient_route_agreement():
    """Direct and change-of-variables evaluation agree to 1e-10 on 200x100."""
    rng = stream(2025, "criterion-3")
    start = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        quotient = RegularQuotient(rand_poly(rng, rng.randint(1, 3)),
                                   rand_poly(rng, rng.randint(0, 3)), "left")
        scale = 1 + quotient.sym.coefficient_norm_sum()
        done = 0
        while done < 100:
            q = rand_quat(rng)
            if quotient.sym.evaluate(q).norm() <= 1e-3 * scale:
                continue
            done += 1
            direct = quotient.evaluate(q)
            via = quotient.evaluate_via_transform(q)
            rel = (direct - via).norm() / (1 + direct.norm())
            worst = max(worst, rel)
            assert rel <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"route agreement took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 3 PASS: 20000 dual evaluations agree "
          f"(worst {worst:.2e}, {elapsed:.2f}s)")


def test_criterion_4_sp11_characterization():
    """Normal forms are group members with unit determinant mapping into the
    ball; random non-members fail the membership test or escape."""
    rng = stream(2025, "criterion-4")
    for _ in range(100):
        q0 = sample_ball(rng, 0.9)
        u = sample_unit(rng)
        matrix = from_normal_form(q0, u)
        assert matrix.is_sp11(1e-9)
        assert abs(matrix.dieudonne_det() - 1.0) <= 1e-9
        frac = regular_fractional(matrix)
        sup = max(frac.evaluate(sample_ball(rng, 0.99)).norm() for _ in range(500))
        assert sup < 1.0

    rejected = 0
    for _ in range(100):
        matrix = QuaternionMatrix2(rand_quat(rng), rand_quat(rng),
                                   rand_quat(rng), rand_quat(rng))
        if matrix.dieudonne_det() < 0.05:
            matrix = QuaternionMatrix2(matrix.a + Quaternion(2), matrix.c,
                                       matrix.b, matrix.d + Quaternion(2))
        member = matrix.is_sp11(1e-9)
        if member:
            continue  # astronomically unlikely for random entries
        frac = regular_fractional(matrix)
        sup = 0.0
        for _ in range(100):
            try:
                sup = max(sup, frac.evaluate(sample_ball(rng, 0.99)).norm())
            except Exception:
                sup = float("inf")
                break
        assert (not member) or sup > 1.0
        rejected += 1
    assert rejected == 100
    print("\nACCEPTANCE 4 PASS: 100 normal forms certified, 100 non-members rejected")


def test_criterion_5_schwarz_pick_suite():
    """1e4 sampled triples, zero violations; equality margins < 1e-8."""
    start = time.perf_counter()
    report = run_suite("schwarz-pick", 42, 10000, tol=1e-9)
    elapsed = time.perf_counter() - start
    assert report.samples >= 10000
    assert report.passed
    for name in ("difference_bound", "remainder_bound", "derivative_bound"):
        assert report.properties[name]["violations"] == 0
    equality = report.properties["moebius_equality"]
    assert equality["checked"] > 0
    assert equality["max_abs_margin"] < 1e-8
    assert elapsed < 30.0, f"suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 5 PASS: {report.samples} triples, zero violations, "
          f"equality margin {equality['max_abs_margin']:.2e} ({elapsed:.1f}s)")


def test_criterion_6_isometry_dichotomy():
    """Classical maps preserve the distance; the regular witness decreases it."""
    rng = stream(2025, "criterion-6")
    worst = 0.0
    for _ in range(20):
        q0 = sample_ball(rng, 0.9)
        u = sample_unit(rng)
        v = sample_unit(rng)
        for _ in range(100):
            p, q = sample_ball(rng, 0.95), sample_ball(rng, 0.95)
            gap = abs(poincare_distance(classical_moebius(q0, u, v, p),
                                        classical_moebius(q0, u, v, q))
                      - poincare_distance(p, q))
            worst = max(worst, gap)
            assert gap <= 1e-9
    q0 = I * 0.5
    q1 = J * 0.5
    before = poincare_distance(q0, q1)
    after = poincare_distance(twist_map(q0, q0), twist_map(q0, q1))
    assert after < before - 1e-6
    print(f"\nACCEPTANCE 6 PASS: 2000 isometry pairs (worst drift {worst:.2e}); "
          f"witness distance {before:.6f} -> {after:.6f}")


def test_criterion_7_algebraic_identity_suite():
    """Associativity, anti-automorphism, real symmetrizations, zero counts,
    Hermitian coincidence, and the conjugation swap."""
    rng = stream(2025, "criterion-7")

    for _ in range(50):
        f, g, h = (rand_poly(rng, rng.randint(0, 3)) for _ in range(3))
        assert ((f * g) * h).isclose(f * (g * h), rel_tol=1e-11)
        assert (f * g).conjugate().isclose(g.conjugate() * f.conjugate(), rel_tol=1e-11)
        assert f.symmetrization().is_real()

    matched = 0
    for _ in range(100):
        f = rand_poly(rng, rng.randint(1, 4))
        fc = f.conjugate()
        fs = f.symmetrization()
        for entry in sphere_zero_set(f):
            sph_f, zeros_f = zeros_on_sphere(f, entry.x, entry.y)
            sph_c, zeros_c = zeros_on_sphere(fc, entry.x, entry.y)
            assert sph_f == sph_c
            assert len(zeros_f) == len(zeros_c)
            for z in zeros_f:
                assert fs.evaluate(z).norm() <= 1e-8 * (1 + fs.coefficient_norm_sum())
            matched += 1

    for _ in range(10):
        b = rand_quat(rng)
        herm = QuaternionMatrix2(Quaternion(rng.uniform(0.5, 2)), b.conjugate(),
                                 b, Quaternion(rng.uniform(0.5, 2)))
        assert hermitian_coincidence_check(rand_poly(rng, rng.randint(1, 3)), herm)

    for _ in range(10):
        while True:
            matrix = QuaternionMatrix2(rand_quat(rng), rand_quat(rng),
                                       rand_quat(rng), rand_quat(rng))
            if matrix.dieudonne_det() > 0.2:
                break
        f = rand_poly(rng, rng.randint(1, 3))
        lhs = right_action(f, matrix).conjugate()
        rhs = left_action(matrix.conj().transpose(), f.conjugate())
        for _ in range(20):
            q = sample_ball(rng, 0.9)
            try:
                a = lhs.evaluate(q)
                b2 = rhs.evaluate(q)
            except Exception:
                continue
            assert (a - b2).norm() <= 1e-9 * (1 + a.norm())
    print(f"\nACCEPTANCE 7 PASS: algebraic identity suite "
          f"({matched} sphere zero-count comparisons)")


def test_criterion_8_byte_identical_verification(capsys):
    """Two full verification runs with the same seed emit identical bytes."""
    code1 = cli_main(["verify", "all", "--seed", "42", "--json"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["verify", "all", "--seed", "42", "--json"])
    out2 = capsys.readouterr().out
    assert code1 == 0 and code2 == 0
    assert out1.encode() == out2.encode()
    doc = json.loads(out1)
    assert doc["pass"] is True
    print("\nACCEPTANCE 8 PASS: verification output is byte-identical across runs")
