"""The randomized verification engine: generators, checks, and determinism."""

import cmath
import json
import math
import random
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from docdiff import ABSENT, PINNED, assert_same_document, moved, pinned, summary
from sampling import disk_oracle, unit_oracle
from srq.errors import OutsideBall, PoleError
from srq.geometry import _ball_floats, _moebius_den, regular_moebius_map
from srq.quaternion import I, J, ONE, ZERO, Quaternion
from srq.rational import RegularQuotient, _moduli_at, as_quotient
from srq.series import RegularPolynomial, spherical_derivative_at
from srq.verify import (SUITE_NAMES, check_modulus_product, check_reg_preservation,
                        check_schwarz_pick, check_slice_regularity, check_zero_case,
                        make_zero_case_map, random_self_map, random_sp11, run_all,
                        run_suite, sample_ball, sample_unit, sample_unit_imaginary,
                        stream)

Q = RegularPolynomial.identity()


def test_random_self_map_contract():
    f = random_self_map(123, 3)
    again = random_self_map(123, 3)
    assert f == again  # same seed, identical coefficients
    assert f.coefficient_norm_sum() < 1.0 - 1e-6
    assert random_self_map(124, 3) != f

    rng = stream(7, "cover")
    for _ in range(5):
        g = random_self_map(rng, 4)
        probe = stream(8, "probe")
        for _ in range(500):
            q = sample_ball(probe)
            assert g.evaluate(q).norm() < 1.0

    const = random_self_map(5, 0)
    assert const.degree <= 0
    assert const.evaluate(ZERO).norm() < 1.0
    with pytest.raises(ValueError, match="degree must be >= 0"):
        random_self_map(5, -1)


def test_schwarz_pick_square_at_origin():
    # at the origin the difference bound reduces to |f(q)| <= |q|
    rep = check_schwarz_pick(Q * Q, ZERO, 200, seed=1)
    assert rep.passed
    assert rep.properties["difference_bound"]["violations"] == 0
    assert rep.properties["difference_bound"]["worst_margin"] > 0.0


def test_schwarz_pick_constant_map():
    rep = check_schwarz_pick(RegularPolynomial.constant(I * 0.3), J * 0.2, 100, seed=2)
    assert rep.passed


def test_schwarz_pick_moebius_equality():
    rng = stream(3, "moebius")
    for _ in range(5):
        f = regular_moebius_map(sample_ball(rng, 0.7), sample_unit(rng))
        q0 = sample_ball(rng, 0.8)
        rep = check_schwarz_pick(f, q0, 60, rng=rng)
        assert rep.passed
        assert rep.properties["remainder_bound"]["max_abs_margin"] < 1e-8
        assert rep.properties["derivative_bound"]["max_abs_margin"] < 1e-8


def test_schwarz_pick_rejects_non_self_map():
    with pytest.raises(ValueError):
        check_schwarz_pick(Q * 3.0, Quaternion(0.9), 10, seed=4)


def test_zero_case_moebius_itself():
    q0 = I * 0.4 + Quaternion(0.2)
    f = regular_moebius_map(q0, side="right")
    rep = check_zero_case(f, q0, 100, seed=5)
    assert rep.passed
    # the quotient against itself is a unit constant: margins hug zero
    assert abs(rep.properties["factor_bound"]["worst_margin"]) < 1e-10


def test_zero_case_composed_map_strict():
    q0 = J * 0.3
    f = regular_moebius_map(q0, side="right") * (Q * 0.5)
    rep = check_zero_case(f, q0, 100, seed=6)
    assert rep.passed
    assert rep.properties["factor_bound"]["worst_margin"] > 0.0


def test_zero_case_derivative_at_origin():
    rep = check_zero_case(Q * Q, ZERO, 50, seed=7)
    assert rep.passed
    # |d_c q^2| = 0 at the origin, bound is 1
    assert abs(rep.properties["slice_derivative_bound"]["worst_margin"] - 1.0) < 1e-12


def test_zero_case_requires_vanishing():
    with pytest.raises(ValueError):
        check_zero_case(Q * 0.5 + 0.1, ZERO, 10, seed=8)


@pytest.mark.parametrize("modulus", [2.0, 1.0, 0.9999999999999999])
def test_zero_case_and_schwarz_pick_refuse_a_q0_on_or_outside_the_ball(modulus):
    # the bounds hold for q0 in the open ball only; unrefused, zero-case would
    # report violations of f = q - q0 at |q0| = 2 and divide by zero at
    # |q0| = 1.  Both checks refuse q0 before they touch f, here also no map
    q0 = I * modulus
    for check in (check_zero_case, check_schwarz_pick):
        for f in (Q - q0, None):
            with pytest.raises(OutsideBall, match="q0 = .* is not inside the open unit ball"):
                check(f, q0, 10, seed=1)


def test_make_zero_case_map_vanishes():
    rng = stream(9, "zc")
    for _ in range(10):
        q0 = sample_ball(rng, 0.8)
        f = make_zero_case_map(rng, q0, 3)
        assert f.evaluate(q0).norm() < 1e-12
        q = sample_ball(rng, 0.95)
        assert f.evaluate(q).norm() < 1.0


def test_modulus_product_examples():
    rng = stream(10, "mp")
    h = RegularPolynomial([ONE + I, J, Quaternion(0.5)])
    assert check_modulus_product(h, Q * 0.5, Q, 100, seed=22).passed
    g = random_self_map(rng, 3)
    assert check_modulus_product(h, g * 0.5, g, 100, seed=11).passed
    assert check_modulus_product(h, g, g, 100, seed=12).passed
    scaled = g * (sample_unit(rng) * 0.9)
    assert check_modulus_product(h, scaled, g, 100, seed=13).passed


def test_modulus_product_checks_hypothesis():
    h = RegularPolynomial([ONE])
    g = random_self_map(14, 2)
    with pytest.raises(ValueError):
        check_modulus_product(h, g * 3.0, g, 20, seed=15)


def test_modulus_product_hypothesis_slack_is_relative_to_g():
    # |f| = |g| (1 + 1e-13) is equality to rounding; an absolute slack of 1e-12 refused it
    h = RegularPolynomial([Quaternion(0.5)])
    g = RegularPolynomial([Quaternion(100.0)])
    assert check_modulus_product(h, g * (1.0 + 1e-13), g, 20, seed=15).passed
    with pytest.raises(ValueError):
        check_modulus_product(h, g * (1.0 + 1e-11), g, 20, seed=15)


def test_reg_preservation():
    rng = stream(16, "rp")
    f = random_self_map(rng, 3)
    A = random_sp11(rng)
    rep = check_reg_preservation(f, A, 200, rng=rng)
    assert rep.passed
    for name in ("right_action_in_ball", "left_action_in_ball", "conjugate_in_ball"):
        assert rep.properties[name]["violations"] == 0

    from srq.fractional import QuaternionMatrix2
    ident = QuaternionMatrix2.identity()
    rep = check_reg_preservation(f, ident, 50, rng=rng)
    assert rep.passed

    with pytest.raises(ValueError):
        check_reg_preservation(f, QuaternionMatrix2(Quaternion(2), ZERO, ZERO, ONE), 10)


@pytest.mark.parametrize("check", [
    lambda n: check_schwarz_pick(Q * Q, ZERO, n, seed=1),
    lambda n: check_zero_case(Q * Q, ZERO, n, seed=7),
    lambda n: check_modulus_product(RegularPolynomial([ONE + I]), Q * 0.5, Q, n, seed=22),
    lambda n: check_reg_preservation(Q * 0.5, random_sp11(random.Random(3)), n, seed=3),
    lambda n: check_slice_regularity(Q * Q, n, seed=18),
], ids=["schwarz-pick", "zero-case", "modulus-product", "reg-preservation",
        "slice-regularity"])
def test_checks_refuse_an_empty_sample(check):
    # a sampled property that checked no point must not pass vacuously
    assert check(1).passed
    for n in (0, -3):
        with pytest.raises(ValueError, match="sample_count"):
            check(n)


def test_moebius_orbit_of_identity_stays_in_ball():
    rng = stream(17, "orbit")
    from srq.fractional import right_action
    for _ in range(5):
        A = random_sp11(rng)
        moved = right_action(Q, A)
        for _ in range(100):
            q = sample_ball(rng, 0.99)
            assert moved.evaluate(q).norm() < 1.0


def test_slice_regularity_flags_conjugation():
    assert check_slice_regularity(Q * Q, 50, seed=18).passed
    assert check_slice_regularity(RegularPolynomial.constant(I), 20, seed=19).passed
    rep = check_slice_regularity(lambda q: q.conjugate(), 50, seed=20)
    assert not rep.passed
    # residual of pointwise conjugation is 1 on every slice
    assert abs(rep.properties["slice_regularity"]["worst_margin"] + 1.0) < 1e-4


def test_suites_pass_and_are_deterministic():
    doc = run_all(99, 250)
    assert doc["pass"]
    again = run_all(99, 250)
    assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)
    different = run_all(100, 250)
    assert json.dumps(different, sort_keys=True) != json.dumps(doc, sort_keys=True)
    # tol does not reach slice-regularity, whose residual bound stays 1e-5
    loose = run_suite("slice-regularity", 99, 250, tol=0.5)
    assert loose.to_json_dict() == doc["suites"][SUITE_NAMES.index("slice-regularity")]


def test_core_empirical_guarantee():
    # ten thousand total samples across the suites, zero violations
    doc = run_all(42, 2000)
    assert doc["pass"]
    total = sum(r["samples"] for r in doc["suites"])
    assert total >= 10000


def test_single_suite_report_shape():
    rep = run_suite("schwarz-pick", 21, 150)
    d = rep.to_json_dict()
    assert d["suite"] == "schwarz-pick"
    assert d["seed"] == 21
    assert d["samples"] >= 150
    assert isinstance(d["pass"], bool)
    assert isinstance(d["worst_margin"], float)
    assert "witness" in d
    # 150 samples hold no Moebius batch, so the equality check is skipped, not passed
    assert d["properties"]["moebius_equality"] == {"checked": 0, "skipped": True}
    with pytest.raises(ValueError):
        run_suite("nope", 0, 10)


def test_modulus_product_strict_at_origin():
    # away from the zeros of h the halved map is strictly smaller
    h = RegularPolynomial([ONE + I, J])
    g = random_self_map(21, 2)
    hf = h * (g * 0.5)
    hg = h * g
    assert hf.evaluate(ZERO).norm() < hg.evaluate(ZERO).norm()


def test_report_merging_is_order_independent():
    from srq.verify import _fold, check_slice_regularity

    reports = [check_slice_regularity(random_self_map(s, 3), 20, seed=s)
               for s in (1, 2, 3, 4)]
    summaries = [rep.properties["slice_regularity"] for rep in reports]
    forward = _fold(summaries)
    backward = _fold(list(reversed(summaries)))
    assert forward == backward
    assert forward["checked"] == 80
    assert forward["worst_margin"] == min(s["worst_margin"] for s in summaries)


def refuses_tol_before_any_map_is_built(tol):
    """Each check that takes ``tol`` refuses a bad one on entry: before it
    touches its maps, which here are not maps, or tests a precondition that
    fails, such as f(q0) = q0 != 0 in check_zero_case."""
    checks = [lambda: check_schwarz_pick(None, None, 10, tol=tol),
              lambda: check_zero_case(None, None, 10, tol=tol),
              lambda: check_zero_case(Q, I * 0.5, 10, tol=tol),
              lambda: check_modulus_product(None, None, None, 10, tol=tol),
              lambda: check_reg_preservation(None, None, 10, tol=tol)]
    for check in checks:
        with pytest.raises(ValueError, match="tol"):
            check()


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
def test_tolerance_that_passes_every_margin_is_refused(tol):
    assert check_modulus_product(RegularPolynomial([ONE + I]), Q * 0.5, Q, 10, seed=22,
                                 tol=0.0).passed
    refuses_tol_before_any_map_is_built(tol)
    for name in SUITE_NAMES:
        if name != "slice-regularity":  # tol does not reach its own residual bound
            with pytest.raises(ValueError, match="tol"):
                run_suite(name, 1, 50, tol=tol)


def test_tolerance_of_one_or_more_is_refused():
    # at tol=1e300 a margin of -5 against rhs=1 counted no violation
    assert check_modulus_product(RegularPolynomial([ONE + I]), Q * 0.5, Q, 10, seed=22,
                                 tol=0.5).passed
    for tol in (1.0, 1e300):
        refuses_tol_before_any_map_is_built(tol)
        with pytest.raises(ValueError, match="tol"):
            run_suite("schwarz-pick", 1, 50, tol=tol)


def test_random_sp11_takes_only_a_stream():
    import inspect

    assert list(inspect.signature(random_sp11).parameters) == ["rng"]
    assert random_sp11(random.Random(5)) == random_sp11(random.Random(5))


def test_sample_ball_lives_in_geometry():
    from srq import geometry

    assert sample_ball is geometry.sample_ball
    rng = random.Random(6)
    assert all(sample_ball(rng, 0.3).norm() < 0.3 for _ in range(200))


def test_modulus_product_with_huge_coefficients_has_finite_margins():
    report = check_modulus_product(RegularPolynomial([Quaternion(1e200)]), Q * 0.5, Q, 20, seed=1)
    summary = report.properties["modulus_product"]
    assert report.passed
    assert math.isfinite(report.worst_margin) and report.worst_margin > 0.0
    assert summary["max_abs_margin"] > 1e199


# a regenerated document keeps the test's name
@pytest.mark.parametrize("seed, samples", [(7, 1000), (99, 50), (11, 50)],
                         ids=["7-1000", "99-50", "11-50"])
def test_run_all_documents_are_the_same_on_every_python(seed, samples):
    # the builtin sum() of floats is compensated from Python 3.12 on, and these
    # documents moved with it; a left-to-right fold keeps them byte-identical.
    # Each is pinned in the CLI's --json form, as `srq verify all --json` prints it
    doc = json.dumps(run_all(seed, samples), sort_keys=True) + "\n"
    assert_same_document(doc, pinned(seed, samples))


def test_a_moved_field_is_named_with_its_old_and_new_value():
    golden = pinned(42, 200)
    doc = json.loads(golden.read_text())
    doc["suites"][2]["properties"]["modulus_product"]["checked"] = 199
    with pytest.raises(AssertionError) as failure:
        assert_same_document(json.dumps(doc, sort_keys=True) + "\n", golden)
    assert str(failure.value).splitlines()[1:] == [
        "suites[2].properties.modulus_product.checked: 200 -> 199 (relative change -0.005)"]
    # signed zeros differ, NaN equals NaN, and a layout change moves no field
    assert moved({"a": 0.0, "b": [math.nan]}, {"a": -0.0, "b": [math.nan]}) == [("a", 0.0, -0.0)]
    assert moved([1, True], [1.0, True, 2]) == [("[0]", 1, 1.0), ("[2]", ABSENT, 2)]
    with pytest.raises(AssertionError, match="no field moved"):
        assert_same_document(json.dumps(json.loads(golden.read_text()), indent=1), golden)


def _right_sides(monkeypatch) -> dict:
    """The right sides each check passes to ``_margins``, by property name."""
    import srq.verify as verify

    seen, margins = {}, verify._margins

    def recording(name, tol, rhs, lhs, witness):
        seen[name] = list(rhs)
        return margins(name, tol, rhs, lhs, witness)

    monkeypatch.setattr(verify, "_margins", recording)
    return seen


@pytest.mark.parametrize("gap", [0.2, 1e-9])
def test_derivative_bounds_take_the_compensated_one_minus_norm_sq(monkeypatch, gap):
    from fractions import Fraction

    from exact import exact, norm_sq
    from srq.geometry import _one_minus_norm_sq

    d = (0.3, 0.5, -0.1, 0.2)
    scale = (1.0 - gap) / math.sqrt(math.fsum(v * v for v in d))
    q0 = Quaternion(*(v * scale for v in d))
    seen = _right_sides(monkeypatch)
    check_schwarz_pick(Q * 0.5, q0, 10)
    check_zero_case(RegularPolynomial([-(q0 * 0.25), Quaternion(0.25)]), q0, 10)
    bound = 1.0 / _one_minus_norm_sq(q0)
    assert [seen[name][0].hex() for name in ("derivative_bound", "slice_derivative_bound")] == \
        [bound.hex()] * 2
    if gap < 1e-6:
        # 1 - |q0|^2 from a rounded |q0|^2 keeps about 7 of its digits here
        truth = 1 / (1 - norm_sq(exact(q0.to_json())))
        assert abs(Fraction(bound) - truth) < abs(Fraction(1.0 / (1.0 - q0.norm_sq())) - truth)


def test_the_summary_counts_moved_paths_per_suite_and_property():
    golden = pinned(42, 200)
    doc = json.loads(golden.read_text())
    doc["suites"][0]["properties"]["derivative_bound"]["worst_margin"] = 0.5
    doc["suites"][2]["witness"]["q"][1] = -0.0
    planted = json.dumps(doc, sort_keys=True) + "\n"
    assert summary(golden.name, golden.read_text(), planted).splitlines() == [
        "verify_all_seed42_samples200.json: 2 moved paths",
        "  schwarz-pick: 1 (derivative_bound 1)",
        "  modulus-product: 1 (report 1)"]
    assert summary("d.json", planted, planted) == "d.json: 0 moved paths"
    assert summary("d.json", '{"pass": true}', '{"pass": false}').splitlines()[1:] == [
        "  document: 1 (report 1)"]
    # the regeneration covers every pinned document
    assert sorted(p.name for p in pinned(42, 200).parent.glob("verify_all_*.json")) == \
        sorted(pinned(*run).name for run in PINNED)


def _refuse(*args, **kwargs):
    raise AssertionError("a libm function was called on the seeded path")


def test_the_seeded_stream_calls_no_libm_function(monkeypatch):
    # the seeded path uses only random(), getrandbits, + - * / and sqrt, all
    # correctly rounded, so its bits do not depend on the platform's libm
    monkeypatch.setattr(random.Random, "gauss", _refuse)
    for name in ("log", "log1p", "exp", "sin", "cos", "acos", "pow"):
        monkeypatch.setattr(math, name, _refuse)
    monkeypatch.setattr(cmath, "exp", _refuse)
    doc = json.dumps(run_all(42, 200), sort_keys=True) + "\n"
    assert_same_document(doc, pinned(42, 200))


def unit_oracle_of(rng, imaginary):
    # Marsaglia's unit, or his point of the 2-sphere from one disk point,
    # written from rng.random() alone
    if not imaginary:
        return Quaternion(*unit_oracle(rng))
    a, b, s = disk_oracle(rng)
    t = 2.0 * math.sqrt(1.0 - s)
    return Quaternion(0.0, a * t, b * t, 1.0 - 2.0 * s)


@pytest.mark.parametrize("sampler, imaginary", [(sample_unit, False),
                                                (sample_unit_imaginary, True)])
def test_unit_samplers_match_the_ball_oracle_and_its_stream(sampler, imaginary):
    rng, oracle = random.Random(17), random.Random(17)
    for _ in range(2000):
        got, expected = sampler(rng), unit_oracle_of(oracle, imaginary)
        assert [c.hex() for c in got.to_json()] == [c.hex() for c in expected.to_json()]
    assert rng.getstate() == oracle.getstate()


def sphere_moment(d, k):
    """E[x^(2k)] of one coordinate of a uniform point of the unit sphere of R^d."""
    value = 1.0
    for i in range(k):
        value *= (2 * i + 1) / (d + 2 * i)
    return value


@pytest.mark.parametrize("sampler, d", [(sample_unit, 4), (sample_unit_imaginary, 3)])
def test_unit_samplers_are_uniform_on_their_spheres(sampler, d):
    # E[w^2] = 1/4 and E[w^4] = 1/8 on S^3, E[x^2] = 1/3 and E[x^4] = 1/5 on S^2:
    # each coordinate's sample mean lies within 5 standard errors.  Marsaglia's
    # sphere point is uniform on S^2: its height 1 - 2s is uniform on [-1, 1]
    # (Archimedes), and its direction about that axis is the disk point's
    n = 20000
    rng = random.Random(2024)
    draws = [sampler(rng).to_json() for _ in range(n)]
    assert d == 4 or all(q[0] == 0.0 for q in draws)
    for k in (1, 2):
        mean, second = sphere_moment(d, k), sphere_moment(d, 2 * k)
        sigma = math.sqrt((second - mean * mean) / n)
        for axis in range(4 - d, 4):
            got = math.fsum(q[axis] ** (2 * k) for q in draws) / n
            assert abs(got - mean) < 5.0 * sigma, (axis, k, got, mean)


def _summary(worst, witness, max_abs=1.0, violations=0, checked=2):
    return {"worst_margin": worst, "max_abs_margin": max_abs, "violations": violations,
            "checked": checked, "witness": witness}


def test_fold_adds_counts_and_keeps_the_earliest_smallest_margin():
    from srq.verify import _fold

    folded = _fold([_summary(0.5, {"at": 0}), _summary(-0.0, {"at": 1}, 3.0),
                    _summary(0.0, {"at": 2}, 2.0, violations=1)])
    assert folded == _summary(-0.0, {"at": 1}, 3.0, violations=1, checked=6)
    # 0.0 < -0.0 is false, so the tie keeps the earlier witness and its sign
    assert math.copysign(1.0, folded["worst_margin"]) == -1.0
    assert _fold([_summary(None, {}), _summary(0.25, {"at": 3})])["witness"] == {"at": 3}


def test_report_maps_only_a_missing_worst_margin_to_zero():
    from srq.verify import _report

    report = _report("x", 0, 2, {"a": _summary(-0.0, {"at": 1})})
    assert report.passed and math.copysign(1.0, report.worst_margin) == -1.0
    report = _report("x", 0, 0, {"a": _summary(None, {}, 0.0, checked=0)})
    assert report.worst_margin == 0.0 and report.witness == {}
    report = _report("x", 0, 2, {"a": _summary(0.5, {"at": 1}, violations=1)})
    assert not report.passed


def test_fold_merges_equality_summaries_by_count_and_maximum():
    from srq.verify import _fold

    # the first is the identity a batch without a map in normal form adds
    folded = _fold([{"max_abs_margin": 0.0, "checked": 0}, {"max_abs_margin": 3e-9, "checked": 1},
                    {"max_abs_margin": 1e-9, "checked": 1}])
    assert folded == {"max_abs_margin": 3e-9, "checked": 2}


def test_report_judges_an_equality_by_a_strict_bound_and_skips_one_that_checked_nothing():
    from srq.verify import EQUALITY_TOL, _report

    def report(equality):
        return _report("x", 0, 2, {"a": _summary(0.25, {"at": 1}), "e": equality})

    skipped = report({"max_abs_margin": 0.0, "checked": 0})
    assert skipped.passed and skipped.properties["e"] == {"checked": 0, "skipped": True}
    below = report({"max_abs_margin": 0.5 * EQUALITY_TOL, "checked": 2})
    assert below.passed and below.properties["e"]["pass"] is True
    at = report({"max_abs_margin": EQUALITY_TOL, "checked": 2})
    assert at.properties["e"] == {"max_abs_margin": EQUALITY_TOL, "checked": 2, "pass": False}
    assert at.passed is False
    # an equality's |margin| is no margin of a bound: the suite's fields come from "a"
    for rep in (skipped, below, at, report({"max_abs_margin": 7.0, "checked": 1})):
        assert (rep.worst_margin, rep.witness) == (0.25, {"at": 1})


def test_schwarz_pick_fails_when_moebius_equality_fails(monkeypatch):
    import srq.verify as verify

    # 200 samples make four batches, and batch 3 is a Moebius batch
    monkeypatch.setattr(verify, "EQUALITY_TOL", -1.0)
    report = run_suite("schwarz-pick", 3, 200)
    equality = report.properties["moebius_equality"]
    assert equality["checked"] > 0 and equality["pass"] is False
    assert all(report.properties[name]["violations"] == 0
               for name in ("difference_bound", "remainder_bound", "derivative_bound"))
    assert report.passed is False
    monkeypatch.undo()
    assert run_suite("schwarz-pick", 3, 200).passed is True


def test_run_suite_and_run_all_refuse_a_negative_sample_count():
    # the CLI refuses negative counts; the library counted them as one batch
    for name in SUITE_NAMES:
        with pytest.raises(ValueError, match=r"samples must be >= 0, got -3"):
            run_suite(name, 1, -3)
    with pytest.raises(ValueError, match=r"samples must be >= 0, got -1"):
        run_all(1, -1)
    # 0 still means one batch
    assert run_suite("schwarz-pick", 1, 0).samples == 50
    assert run_suite("slice-regularity", 1, 0).samples == 25


@pytest.mark.parametrize("samples", [50, 150])
def test_moebius_equality_without_a_moebius_batch_is_skipped_not_passed(samples):
    # only batch 3 is a Moebius batch, so up to 150 samples check no map in
    # normal form; the property reported checked: 0, pass: true there
    report = run_suite("schwarz-pick", 3, samples)
    equality = report.properties["moebius_equality"]
    assert equality["checked"] == 0 and equality["skipped"] is True
    assert "pass" not in equality
    assert report.passed is True
    assert run_suite("schwarz-pick", 3, 200).properties["moebius_equality"]["pass"] is True


def test_random_sp11_reaches_unit_diagonal_factors_and_keeps_self_maps_in_the_ball():
    # from_normal_form alone has a real positive d and covers 7 of the group's
    # 10 real dimensions; a seeded unit diag(w, w) factor adds the other 3
    rng = stream(23, "sp11")
    for _ in range(20):
        A = random_sp11(rng)
        assert A.is_sp11()
        assert A.d.imag_norm() > 1e-6 * A.d.norm()
        f = random_self_map(rng, 2)
        assert check_reg_preservation(f, A, 50, rng=rng).passed


def test_random_self_map_redraws_a_leading_coefficient_below_one_hundredth(monkeypatch):
    # a draw that small has probability about 3e-9, so no seed reaches the
    # redraw; a stand-in for the cube draws makes the leading one tiny twice
    import srq.verify as verify

    cube_point, drawn = verify._cube_point, []

    def tiny_lead_twice(rng):
        q = Quaternion(0.0, 0.0, 5e-3) if len(drawn) in (2, 3) else cube_point(rng)
        drawn.append(q)
        return q

    monkeypatch.setattr(verify, "_cube_point", tiny_lead_twice)
    f = random_self_map(3, 2)
    assert len(drawn) == 5 and f.degree == 2
    # every coefficient is its draw times one scale, the third draw replaced by the fifth
    scale = f.coefficient(0).norm() / drawn[0].norm()
    assert f.coefficient(1).isclose(drawn[1] * scale)
    assert f.coefficient(2).isclose(drawn[4] * scale)


def test_modulus_batch_replaces_a_zero_h_with_one(monkeypatch):
    # h is zero only when every one of its cube draws is, which no seed reaches;
    # a stand-in returns zero for h's draws and the real points after them
    import srq.verify as verify

    rng = stream(5, "modulus")
    probe = random.Random()
    probe.setstate(rng.getstate())
    h_draws = probe.randint(1, 4)  # the batch draws h's length first
    cube_point, drawn, checked = verify._cube_point, [], []

    def zero_for_h(r):
        drawn.append(1)
        return ZERO if len(drawn) <= h_draws else cube_point(r)

    def recording(h, f, g, n, **kwargs):
        checked.append(h)
        return check_modulus_product(h, f, g, n, **kwargs)

    monkeypatch.setattr(verify, "_cube_point", zero_for_h)
    monkeypatch.setattr(verify, "check_modulus_product", recording)
    summaries = verify._modulus_batch(rng, 0, 20, verify.DEFAULT_TOL)
    assert checked == [RegularPolynomial([ONE])]
    assert len(summaries) == 1 and summaries[0]["modulus_product"]["violations"] == 0


def test_zero_case_evaluates_every_sample_on_the_sphere_of_q0(monkeypatch):
    # the factor (1 - q conj(q0)) * R_{q0} f has the sym of f, with no zero on
    # the sphere of q0, so points there evaluate
    import srq.verify as verify

    q0 = Quaternion(0.2, 0.4)
    sphere = [(0.2, 0.4, 0.0, 0.0), (0.2, -0.4, 0.0, 0.0), (0.2, 0.0, 0.4, 0.0),
              (0.2, 0.0, 0.0, -0.4)]
    monkeypatch.setattr(verify, "_ball_floats", lambda rng, radius, n: sphere[:n])
    moebius = regular_moebius_map(q0, side="right")
    # M^{-*} * f is 1 for f = M, and q/2 for f = M * (q/2), of modulus |q0|/2 on the sphere
    for f, modulus in ((moebius, 1.0), (moebius * (Q * 0.5), 0.5 * q0.norm())):
        report = check_zero_case(f, q0, 4, seed=7)
        bound = report.properties["factor_bound"]
        assert report.passed and bound["checked"] == 4
        assert abs(bound["worst_margin"] - (1.0 - modulus)) < 1e-14


def test_zero_case_raises_no_pole_error_near_the_boundary():
    # 30 Moebius maps per gap 1 - |q0|, each vanishing at its own q0; a quotient
    # with sym S^2, where |S^2(q0)| ~ gap^2, would meet the pole test at q0
    rng = random.Random(3)
    for gap in (1e-4, 1e-6, 1e-8, 1e-10):
        reports = []
        for _ in range(30):
            q0 = sample_unit(rng) * (1.0 - gap)
            # f(q0)'s rounding error grows like u / gap, and so does the scale the
            # precondition is relative to: |f(q0)| stays below 4.5e-5 of its bound
            # here, so no map is refused
            reports.append(check_zero_case(regular_moebius_map(q0, side="right"), q0, 20,
                                           rng=rng))
        assert all(rep.properties["factor_bound"]["violations"] == 0 for rep in reports)
        if gap >= 1e-6:
            # the derivative bounds' error grows like u / gap too, and 14 and 22
            # maps fail one at 1e-8 and 1e-10; only the two widest gaps pass
            assert len(reports) == 30 and all(rep.passed for rep in reports)


def test_zero_case_still_refuses_a_map_that_misses_zero_by_1e_8():
    # the relative precondition is about 1e-12 * (1 + size), with size below 30
    # at |q0| <= 0.8, so an offset of 1e-8 stays far above it
    rng = random.Random(9)
    for _ in range(50):
        q0 = sample_ball(rng, 0.8)
        with pytest.raises(ValueError, match="precondition violated"):
            check_zero_case(regular_moebius_map(q0, side="right") + 1e-8, q0, 5)


# -- the remainder against the derivative routes it replaced ---------------------------
#
# check_zero_case and check_schwarz_pick read their derivative and factor bounds
# off R = R_{q0} f; the quotients they built before stay here as oracles.  Each
# identity holds within 1e-12 relative to 1 + |old value|; on 3000 seeded draws
# of these families the largest deviation was 7.7e-15.

_center = st.floats(-0.4, 0.4)
centers = st.builds(Quaternion, _center, _center, _center, _center)  # |q0| <= 0.8
_coefficient = st.floats(-1.0, 1.0)
_polys = st.lists(st.builds(Quaternion, _coefficient, _coefficient, _coefficient, _coefficient),
                  min_size=1, max_size=5).map(RegularPolynomial)
_tame = st.floats(-0.2, 0.2)
# 1 + a_1 q + ... + a_3 q^3 with |a_n| <= 0.4 stays above 0.2 in modulus on |q| <= 0.8
_dens = st.lists(st.builds(Quaternion, _tame, _tame, _tame, _tame),
                 max_size=3).map(lambda c: RegularPolynomial([ONE] + c))
maps = st.one_of(_polys.map(as_quotient),
                 st.builds(RegularQuotient, _dens, _polys, st.sampled_from(["left", "right"])))


def assert_close(new, old):
    assert (new - old).norm() <= 1e-12 * (1.0 + old.norm())


@given(maps, maps, centers)
def test_the_remainder_at_q0_is_the_slice_derivative(f, G, q0):
    R = f.remainder(q0)
    assert_close(R.evaluate(q0), f.cullen_derivative().evaluate(q0))
    # schwarz-pick's derivative bound: (q - q0) * R' * G vanishes at q0
    assert_close((R * G).evaluate(q0), (f.cullen_derivative() * G).evaluate(q0))


@given(maps, centers)
def test_the_remainder_at_conj_q0_is_the_spherical_derivative(f, q0):
    assume(q0.imag_norm() > 0.05)
    assert_close(f.remainder(q0).evaluate(q0.conjugate()), spherical_derivative_at(f, q0))


@given(maps, centers, centers)
def test_the_zero_case_factor_is_the_moebius_quotient_off_the_sphere_of_q0(g, q0, q):
    # q - q0 and 1 - q conj(q0) commute under *, so M^{-*} * (q - q0) * R = (1 - q conj(q0)) * R
    x, y = q0.w, q0.imag_norm()
    assume(((q - x) * (q - x) + y * y).norm() > 0.05)  # away from the sphere of q0
    f = (Q - q0) * g
    old = regular_moebius_map(q0).reciprocal() * f
    assert_close((_moebius_den(q0) * f.remainder(q0)).evaluate(q), old.evaluate(q))


# -- schwarz-pick's quotients against the ring chain they replaced ---------------------
#
# check_schwarz_pick builds (f - c) * G^{-*} and R_{q0} f * G^{-*}, G = 1 - conj(c) * f,
# as right pairs over G_S = S - conj(c) P for f = S^{-1} P.  The chain of quotient
# ring operations it built them with before stays here as the oracle.


class _Built(Exception):
    pass


def pick_quotients(f, q0):
    """The left sides (difference, remainder) that ``check_schwarz_pick`` builds
    for f at q0, caught on their way to ``_moduli_at``, before any is evaluated."""
    import srq.verify as verify

    seen = []

    def capture(maps, points):
        seen.extend(maps)
        raise _Built

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(verify, "_moduli_at", capture)
        with pytest.raises(_Built):
            check_schwarz_pick(f, q0, 1)
    return seen[1], seen[3]


def chain_quotients(f, q0):
    fq = as_quotient(f)
    c = fq.evaluate(q0)
    schur_inv = ((-c.conjugate()) * fq + ONE).reciprocal()
    return (fq - c) * schur_inv, fq.remainder(q0) * schur_inv


def moduli_outcome(maps, points, q0):
    """The bits of the maps' moduli at ``points`` and of their values at q0, or the
    type of the error raised."""
    try:
        moduli = _moduli_at(maps, points)
        return ([[m.hex() for m in row] for row in moduli],
                [[v.hex() for v in f.evaluate(q0).to_json()] for f in maps])
    except (PoleError, ValueError) as exc:
        return type(exc).__name__


_points = _ball_floats(random.Random(12), 0.95, 25)


@given(_polys.map(lambda p: p * 0.2), centers)
def test_schwarz_pick_keeps_the_chains_bits_for_a_polynomial(f, q0):
    assume(f.evaluate(q0).norm() < 1.0)
    assert moduli_outcome(pick_quotients(f, q0), _points, q0) == \
        moduli_outcome(chain_quotients(f, q0), _points, q0)


def test_schwarz_pick_keeps_the_chains_bits_for_seeded_self_maps():
    rng = random.Random(13)
    for _ in range(100):
        f = random_self_map(rng, rng.randint(1, 4))
        q0 = sample_ball(rng, 0.8)
        points = _ball_floats(rng, 0.95, 25)
        assert moduli_outcome(pick_quotients(f, q0), points, q0) == \
            moduli_outcome(chain_quotients(f, q0), points, q0)


def assert_same_values(new, old, points):
    for p in points:
        q = Quaternion(*p)
        assert_close(new.evaluate(q), old.evaluate(q))


# |f| <= 34 on |q| <= 0.8 for these maps (numerator at most 6.7, denominator at
# least 0.2), so f / 68 keeps |conj(c) f| <= 1/4 there and G has no zero on the
# spheres of these points
@given(maps.map(lambda f: f * (1.0 / 68.0)), centers)
def test_schwarz_pick_quotients_agree_with_the_chain_for_a_quotient(f, q0):
    points = [q0.to_json()] + _ball_floats(random.Random(14), 0.8, 10)
    for new, old in zip(pick_quotients(f, q0), chain_quotients(f, q0)):
        assert_same_values(new, old, points)


def moebius_draws(rng, count):
    for _ in range(count):
        yield regular_moebius_map(sample_ball(rng, 0.7), sample_unit(rng)), sample_ball(rng, 0.8)


def test_schwarz_pick_quotients_agree_with_the_chain_for_moebius_maps():
    rng = random.Random(15)
    for f, q0 in moebius_draws(rng, 50):
        points = [q0.to_json()] + _ball_floats(rng, 0.95, 25)
        for new, old in zip(pick_quotients(f, q0), chain_quotients(f, q0)):
            assert_same_values(new, old, points)


def test_schwarz_pick_cancels_the_sym_of_a_moebius_map():
    # G_S = S - conj(c) P has degree 2, so each quotient's sym G_S^s has degree 4;
    # the chain's carried f's own S (degree 2) on top, 6
    for f, q0 in moebius_draws(random.Random(16), 10):
        assert [new.sym.degree for new in pick_quotients(f, q0)] == [4, 4]
        assert [old.sym.degree for old in chain_quotients(f, q0)] == [6, 6]


def test_schwarz_pick_catches_moebius_maps_scaled_past_the_ball():
    # a map in normal form attains the remainder and derivative bounds; scaled by
    # 1 + 1e-8 it exceeds them by about 1e-8, ten times the tolerance
    rng = random.Random(9)
    caught = 0
    for _ in range(20):
        f = regular_moebius_map(sample_ball(rng, 0.7), sample_unit(rng)) * (1.0 + 1e-8)
        caught += not check_schwarz_pick(f, sample_ball(rng, 0.8), 25, rng=rng).passed
    assert caught == 20
