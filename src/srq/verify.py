"""Deterministic randomized verification of the package's analytic claims.

Every suite draws its randomness from streams derived from ``(seed, label)``
strings, so a rerun with the same seed reproduces identical reports
bit-for-bit.  Batches own independent streams and reports merge through
min/max reductions only, so batch evaluation order does not matter.

An inequality "margin" is always (right side) - (left side); a sample counts
as a violation only when the margin drops below ``-tol * (1 + |rhs|)``, which
keeps floating-point slack from either masking real violations or
manufacturing false ones.  ``tol`` lies in ``[0, 1)``: a slack as large as
the scale ``1 + |rhs|`` itself is no floating-point slack.
"""

from __future__ import annotations

import math
import random

from .errors import PoleError
from .fractional import QuaternionMatrix2, from_normal_form, left_action, right_action
from .geometry import _cube_point, _moebius_den, regular_moebius_map, sample_ball
from .quaternion import (ONE, Quaternion, _fold_sum, _Frozen, _make, _norm, _slice_point,
                         _zero_bound, as_quaternion)
from .rational import RegularQuotient, as_quotient
from .series import RegularPolynomial, evaluate_any, spherical_derivative_at

DEFAULT_TOL = 1e-9
EQUALITY_TOL = 1e-8
#: Finite-difference residual bound of check_slice_regularity; ``tol`` does not reach it.
_SLICE_TOL = 1e-5


# -- deterministic sampling ----------------------------------------------------


def stream(seed, label: str) -> random.Random:
    """An independent RNG stream for (seed, label); string seeding is stable."""
    return random.Random(f"{seed}:{label}")


def sample_unit(rng: random.Random) -> Quaternion:
    """Uniform unit quaternion: four Gaussian draws in w, x, y, z order, normalized."""
    gauss = rng.gauss
    while True:
        w, x, y, z = gauss(0, 1), gauss(0, 1), gauss(0, 1), gauss(0, 1)
        n = _norm(w, x, y, z)
        if n > 1e-3:
            return _make(w / n, x / n, y / n, z / n)


def sample_unit_imaginary(rng: random.Random) -> Quaternion:
    """Uniform unit imaginary quaternion: three Gaussian draws, normalized."""
    gauss = rng.gauss
    while True:
        x, y, z = gauss(0, 1), gauss(0, 1), gauss(0, 1)
        n = _norm(0.0, x, y, z)
        if n > 1e-3:
            return _make(0.0, x / n, y / n, z / n)


def random_self_map(seed, degree: int) -> RegularPolynomial:
    """A random polynomial self-map of the ball.

    Coefficients are rescaled so that sum |a_n| < 1 - 1e-6, which bounds |f|
    below 1 on the closed ball.  ``seed`` may be an integer or an existing
    stream; the same seed always yields the same coefficients.
    """
    rng = seed if isinstance(seed, random.Random) else stream(seed, "self-map")
    if degree < 0:
        raise ValueError("degree must be >= 0")
    coeffs = [_cube_point(rng) for _ in range(degree + 1)]
    while coeffs[-1].norm() < 1e-2:
        coeffs[-1] = _cube_point(rng)
    total = _fold_sum(c.norm() for c in coeffs)
    target = (1.0 - 1e-6) * rng.uniform(0.35, 1.0)
    return RegularPolynomial([c * (target / total) for c in coeffs])


def random_sp11(rng: random.Random) -> QuaternionMatrix2:
    """A random matrix of the indefinite unitary group, via its normal form (|q0| < 0.9)."""
    return from_normal_form(sample_ball(rng, 0.9), sample_unit(rng))


# -- reports ----------------------------------------------------------------------


class VerificationReport(_Frozen):
    """Outcome of one verification suite run."""

    __slots__ = ("suite", "seed", "samples", "passed", "worst_margin", "witness", "properties")

    def to_json_dict(self) -> dict:
        return {"suite": self.suite, "seed": self.seed, "samples": self.samples,
                "pass": self.passed, "worst_margin": self.worst_margin,
                "witness": self.witness, "properties": self.properties}


class _Tracker:
    """Running minimum margin with its witness, plus a violation count."""

    def __init__(self, name: str, tol: float):
        if not 0.0 <= tol < 1.0:  # NaN or inf passes every margin; 1 or more is no slack
            raise ValueError(f"tol must lie in [0, 1), got {tol!r}")
        self.name = name
        self.tol = tol
        self.worst = None
        self.worst_abs = 0.0
        self.violations = 0
        self.witness = {}
        self.count = 0

    def update(self, margin: float, rhs: float, witness: dict):
        self.count += 1
        self.worst_abs = max(self.worst_abs, abs(margin))
        if self.worst is None or margin < self.worst:
            self.worst = margin
            self.witness = dict(witness, property=self.name, margin=margin)
        if margin < -self.tol * (1.0 + abs(rhs)):
            self.violations += 1

    def summary(self) -> dict:
        return {"worst_margin": self.worst,
                "max_abs_margin": self.worst_abs,
                "violations": self.violations,
                "checked": self.count,
                "witness": self.witness}


def _fold(summaries) -> dict:
    """One summary of several: counts add up, the largest ``max_abs_margin``
    stays, and the smallest worst margin keeps its witness (the earliest on a tie)."""
    first, *rest = summaries
    acc = dict(first)
    for s in rest:
        acc["checked"] += s["checked"]
        acc["violations"] += s["violations"]
        acc["max_abs_margin"] = max(acc["max_abs_margin"], s["max_abs_margin"])
        worst = s["worst_margin"]
        if worst is not None and (acc["worst_margin"] is None or worst < acc["worst_margin"]):
            acc["worst_margin"] = worst
            acc["witness"] = s["witness"]
    return acc


def _report(suite: str, seed: int, total_samples: int, properties: dict,
            extra=None) -> VerificationReport:
    """The report over ``properties`` (name -> summary), folded, plus the suite's
    ``extra`` properties: it fails on a violation or on a failing extra property."""
    folded = _fold(properties.values())
    extra = extra or {}
    passed = folded["violations"] == 0 and not any(v.get("pass") is False for v in extra.values())
    properties.update(extra)
    worst = folded["worst_margin"]
    return VerificationReport(suite, seed, total_samples, passed,
                              0.0 if worst is None else worst, folded["witness"], properties)


def _merge(suite: str, seed: int, total_samples: int, trackers) -> VerificationReport:
    return _report(suite, seed, total_samples, {t.name: t.summary() for t in trackers})


# -- single-input checks -------------------------------------------------------------


def _require_samples(sample_count: int) -> None:
    # a sampled property that checked no point would pass vacuously
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")


def check_schwarz_pick(f, q0, sample_count: int = 100, *, rng=None,
                       tol: float = DEFAULT_TOL, seed: int = 0) -> VerificationReport:
    """Check the three self-map inequalities for one map at one base point.

    With c = f(q0) and G = 1 - conj(c)*f, the three statements bound, at
    sampled q:

      (difference)   |(f - c) * G^{-*}|(q)   <=  |canonical self-map centered q0|(q)
      (remainder)    |R_{q0} f * G^{-*}|(q)  <=  |(1 - q conj(q0))^{-*}|(q)
      (derivative)   |(d_c f * G^{-*})(q0)|  <=  1 / (1 - |q0|^2)

    The derivative bound is a single number per call; the others are sampled.
    For a regular self-map in normal form the remainder and derivative bounds
    hold with equality, which callers can read off ``max_abs_margin``.
    """
    _require_samples(sample_count)
    rng = rng or stream(seed, "schwarz-points")
    q0 = as_quaternion(q0)
    fq = as_quotient(f)
    c = fq.evaluate(q0)
    if c.norm() >= 1.0:
        raise ValueError(f"f(q0) = {c} escapes the ball; f is not a self-map")
    shifted = fq - c
    schur_inv = ((-c.conjugate()) * fq + ONE).reciprocal()
    lhs13 = shifted * schur_inv
    rhs13 = regular_moebius_map(q0)
    lhs14 = fq.remainder(q0) * schur_inv
    rhs14 = RegularQuotient(_moebius_den(q0), RegularPolynomial([ONE]), "left")
    t13 = _Tracker("difference_bound", tol)
    t14 = _Tracker("remainder_bound", tol)
    t15 = _Tracker("derivative_bound", tol)
    for _ in range(sample_count):
        q = sample_ball(rng, 0.95)
        witness = {"q": q.to_json(), "q0": q0.to_json()}
        r13 = rhs13.evaluate(q).norm()
        t13.update(r13 - lhs13.evaluate(q).norm(), r13, witness)
        r14 = rhs14.evaluate(q).norm()
        t14.update(r14 - lhs14.evaluate(q).norm(), r14, witness)
    d15 = (fq.cullen_derivative() * schur_inv).evaluate(q0).norm()
    r15 = 1.0 / (1.0 - q0.norm_sq())
    t15.update(r15 - d15, r15, {"q0": q0.to_json()})
    return _merge("schwarz-pick", seed, sample_count, (t13, t14, t15))


def make_zero_case_map(seed, q0, degree: int = 2) -> RegularQuotient:
    """A random regular self-map of the ball vanishing at q0.

    Star-multiplies the canonical self-map centered at q0 (written in its
    right-quotient form, so the zero sits in the left factor) by a random
    self-map of the ball.
    """
    rng = seed if isinstance(seed, random.Random) else stream(seed, "zero-case-map")
    g = random_self_map(rng, degree)
    return regular_moebius_map(q0, side="right") * g


def check_zero_case(f, q0, sample_count: int = 100, *, rng=None,
                    tol: float = DEFAULT_TOL, seed: int = 0) -> VerificationReport:
    """Bounds for a self-map vanishing at q0.

    |M^{-*} * f| <= 1 on samples, |d_c f(q0)| <= 1/(1-|q0|^2), and for
    non-real q0 also |d_s f(q0)| <= 1/|1 - conj(q0)^2|.
    """
    _require_samples(sample_count)
    rng = rng or stream(seed, "zero-case-points")
    q0 = as_quaternion(q0)
    fq = as_quotient(f)
    if fq.evaluate(q0).norm() > 1e-8:
        raise ValueError(f"f(q0) = {fq.evaluate(q0)} is not zero; precondition violated")
    ratio = regular_moebius_map(q0).reciprocal() * fq
    t1 = _Tracker("factor_bound", tol)
    for _ in range(sample_count):
        # the ratio carries a removable singularity on the sphere of q0;
        # resample the measure-zero hits instead of reporting them as poles
        for _ in range(10):
            q = sample_ball(rng, 0.95)
            try:
                value = ratio.evaluate(q)
                break
            except PoleError:
                continue
        else:
            raise PoleError("could not sample away from the sphere of q0")
        t1.update(1.0 - value.norm(), 1.0, {"q": q.to_json(), "q0": q0.to_json()})
    t2 = _Tracker("slice_derivative_bound", tol)
    r2 = 1.0 / (1.0 - q0.norm_sq())
    t2.update(r2 - fq.cullen_derivative().evaluate(q0).norm(), r2, {"q0": q0.to_json()})
    trackers = [t1, t2]
    if q0.imag_norm() > 1e-9:
        qc = q0.conjugate()
        t3 = _Tracker("spherical_derivative_bound", tol)
        r3 = 1.0 / (ONE - qc * qc).norm()
        t3.update(r3 - spherical_derivative_at(fq, q0).norm(), r3, {"q0": q0.to_json()})
        trackers.append(t3)
    return _merge("zero-case", seed, sample_count, trackers)


def check_modulus_product(h, f, g, sample_count: int = 100, *, rng=None,
                          tol: float = DEFAULT_TOL, seed: int = 0) -> VerificationReport:
    """If |f| <= |g| pointwise then |h*f| <= |h*g| pointwise.

    The hypothesis is verified on the sample set first; a hypothesis failure
    is an input error, not a reported violation.
    """
    _require_samples(sample_count)
    rng = rng or stream(seed, "modulus-points")
    points = [sample_ball(rng, 0.95) for _ in range(sample_count)]
    for q in points:
        gn = g.evaluate(q).norm()
        if f.evaluate(q).norm() > gn + _zero_bound(gn):
            raise ValueError(f"|f| > |g| at {q}; hypothesis violated on the sample set")
    hf = h * f
    hg = h * g
    t = _Tracker("modulus_product", tol)
    for q in points:
        rhs = hg.evaluate(q).norm()
        t.update(rhs - hf.evaluate(q).norm(), rhs, {"q": q.to_json()})
    return _merge("modulus-product", seed, sample_count, (t,))


def check_reg_preservation(f, A: QuaternionMatrix2, sample_count: int = 100, *,
                           rng=None, tol: float = DEFAULT_TOL,
                           seed: int = 0) -> VerificationReport:
    """Both actions of a ball-preserving matrix keep self-maps inside the ball.

    Also checks that the regular conjugate of f stays a self-map.
    """
    _require_samples(sample_count)
    if not A.is_sp11():
        raise ValueError("matrix does not preserve the ball; precondition violated")
    rng = rng or stream(seed, "preservation-points")
    moved_right = right_action(f, A)
    moved_left = left_action(A, f)
    conj = f.conjugate()
    t_r = _Tracker("right_action_in_ball", tol)
    t_l = _Tracker("left_action_in_ball", tol)
    t_c = _Tracker("conjugate_in_ball", tol)
    for _ in range(sample_count):
        q = sample_ball(rng, 0.99)
        witness = {"q": q.to_json()}
        t_r.update(1.0 - moved_right.evaluate(q).norm(), 1.0, witness)
        t_l.update(1.0 - moved_left.evaluate(q).norm(), 1.0, witness)
        t_c.update(1.0 - evaluate_any(conj, q).norm(), 1.0, witness)
    return _merge("reg-preservation", seed, sample_count, (t_r, t_l, t_c))


def slice_regularity_residual(f, x: float, y: float, I: Quaternion) -> float:
    """Central finite-difference residual of (d/dx + I d/dy)/2 on the slice of I."""
    step = 1e-5

    def at(xx, yy):
        return evaluate_any(f, _slice_point(xx, yy, I))

    dx = (at(x + step, y) - at(x - step, y)) / (2.0 * step)
    dy = (at(x, y + step) - at(x, y - step)) / (2.0 * step)
    return (0.5 * (dx + I * dy)).norm()


def check_slice_regularity(f, sample_count: int = 100, *, rng=None,
                           seed: int = 0) -> VerificationReport:
    """Finite-difference regularity test on random slices.

    Accepts polynomials, quotients, or arbitrary callables; a sample fails
    when its residual exceeds ``_SLICE_TOL``, and a genuinely non-regular map
    (such as pointwise conjugation) fails with residual around one.
    """
    _require_samples(sample_count)
    rng = rng or stream(seed, "slice-points")
    t = _Tracker("slice_regularity", 0.0)
    for _ in range(sample_count):
        x = rng.uniform(-0.7, 0.7)
        y = rng.uniform(0.05, 0.6)
        axis = sample_unit_imaginary(rng)
        residual = slice_regularity_residual(f, x, y, axis)
        t.update(_SLICE_TOL - residual, _SLICE_TOL, {"x": x, "y": y, "axis": axis.to_json()})
    return _merge("slice-regularity", seed, sample_count, (t,))


# -- suite drivers -----------------------------------------------------------------------
#
# A suite runs in max(1, ceil(samples / per_batch)) batches.  Batch b draws
# everything from its own stream (seed, "<label>:<b>"), so the batches are
# independent and the merged report does not depend on their order.  The
# table holds builders, not the checks: a builder looks its check up by
# module-level name at call time, so a wrapper installed on the module sees
# every call.


def _is_moebius_batch(b: int) -> bool:
    return b % 4 == 3


def _schwarz_batch(rng, b, n, tol):
    # two base points per map, each checked at n/2 points
    if _is_moebius_batch(b):
        f = regular_moebius_map(sample_ball(rng, 0.7), sample_unit(rng))
    else:
        f = random_self_map(rng, rng.randint(1, 4))
    return [check_schwarz_pick(f, sample_ball(rng, 0.8), n // 2, rng=rng, tol=tol)
            for _ in range(2)]


def _moebius_equality(batches) -> dict:
    """Maps in normal form attain the remainder and derivative bounds exactly."""
    reports = [rep for b, reps in enumerate(batches) if _is_moebius_batch(b) for rep in reps]
    worst = max((rep.properties[name]["max_abs_margin"] for rep in reports
                 for name in ("remainder_bound", "derivative_bound")), default=0.0)
    return {"moebius_equality": {"max_abs_margin": worst,
                                 "checked": len(reports),
                                 "pass": worst < EQUALITY_TOL}}


def _zero_batch(rng, b, n, tol):
    while True:
        q0 = sample_ball(rng, 0.8)
        if q0.imag_norm() > 0.05:
            break
    if b % 3 == 2:
        f = regular_moebius_map(q0, side="right")
    else:
        f = make_zero_case_map(rng, q0, rng.randint(1, 3))
    return [check_zero_case(f, q0, n, rng=rng, tol=tol)]


def _modulus_batch(rng, b, n, tol):
    h = RegularPolynomial([_cube_point(rng) for _ in range(rng.randint(1, 4))])
    if h.is_zero:
        h = RegularPolynomial([ONE])
    g = random_self_map(rng, rng.randint(1, 3))
    f = g * (sample_unit(rng) * rng.uniform(0.0, 1.0))
    return [check_modulus_product(h, f, g, n, rng=rng, tol=tol)]


def _preserve_batch(rng, b, n, tol):
    f = random_self_map(rng, rng.randint(0, 4))
    return [check_reg_preservation(f, random_sp11(rng), n, rng=rng, tol=tol)]


def _slice_batch(rng, b, n, tol):
    kind = b % 3
    if kind == 0:
        f = random_self_map(rng, rng.randint(1, 5))
    elif kind == 1:
        f = RegularPolynomial.identity()
    else:
        f = RegularPolynomial.constant(sample_ball(rng, 0.9))
    return [check_slice_regularity(f, n, rng=rng)]


class _Suite(_Frozen):
    # build: (rng, batch index, samples per batch, tol) -> the batch's reports;
    # extra: reports grouped by batch -> extra properties of the merged report, or None
    __slots__ = ("label", "per_batch", "build", "extra")


_SUITES = {
    "schwarz-pick": _Suite("schwarz", 50, _schwarz_batch, _moebius_equality),
    "zero-case": _Suite("zero", 50, _zero_batch, None),
    "modulus-product": _Suite("modulus", 50, _modulus_batch, None),
    "reg-preservation": _Suite("preserve", 50, _preserve_batch, None),
    # tol does not reach this suite: the finite-difference residual keeps
    # its own bound, _SLICE_TOL
    "slice-regularity": _Suite("slice", 25, _slice_batch, None),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(name: str, seed: int, samples: int, tol: float = DEFAULT_TOL) -> VerificationReport:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(_SUITES)}")
    suite = _SUITES[name]
    count = max(1, (samples + suite.per_batch - 1) // suite.per_batch)
    batches = [suite.build(stream(seed, f"{suite.label}:{b}"), b, suite.per_batch, tol)
               for b in range(count)]
    extra = suite.extra(batches) if suite.extra else None
    summaries = {}
    for reps in batches:
        for rep in reps:
            for prop, summary in rep.properties.items():
                summaries.setdefault(prop, []).append(summary)
    return _report(name, seed, count * suite.per_batch,
                   {prop: _fold(batch) for prop, batch in summaries.items()}, extra)


def run_all(seed: int, samples: int, tol: float = DEFAULT_TOL) -> dict:
    """Run every suite and aggregate into one JSON-ready document."""
    reports = [run_suite(name, seed, samples, tol) for name in SUITE_NAMES]
    return {"seed": seed, "samples": samples,
            "pass": all(r.passed for r in reports),
            "suites": [r.to_json_dict() for r in reports]}
