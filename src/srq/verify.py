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
from .geometry import _ball_floats, _cube_point, _moebius_den, regular_moebius_map, sample_ball
from .quaternion import (_INF, ONE, ZERO, Quaternion, _fold_sum, _Frozen, _hamilton, _make,
                         _norm, _slice_floats, _zero_bound, as_quaternion)
from .rational import RegularQuotient, _moduli_at, _values_at, as_quotient
from .series import RegularPolynomial, spherical_derivative_at

DEFAULT_TOL = 1e-9
EQUALITY_TOL = 1e-8
#: Finite-difference residual bound of check_slice_regularity; ``tol`` does not reach it.
_SLICE_TOL = 1e-5


# -- deterministic sampling ----------------------------------------------------


def stream(seed, label: str) -> random.Random:
    """An independent RNG stream for (seed, label); string seeding is stable."""
    return random.Random(f"{seed}:{label}")


def sample_unit(rng: random.Random) -> Quaternion:
    """Uniform unit quaternion: the direction of a uniform point of the unit ball."""
    while True:
        (w, x, y, z), = _ball_floats(rng, 1.0, 1)
        n = _norm(w, x, y, z)
        if n > 1e-3:
            return _make(w / n, x / n, y / n, z / n)


def sample_unit_imaginary(rng: random.Random) -> Quaternion:
    """Uniform unit imaginary quaternion: the direction of a unit-ball point's imaginary part."""
    while True:
        (_, x, y, z), = _ball_floats(rng, 1.0, 1)
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
    """A random matrix of the indefinite unitary group: its normal form (|q0| < 0.9,
    7 real dimensions) times a unit diag(w, w), which covers the other 3."""
    A = from_normal_form(sample_ball(rng, 0.9), sample_unit(rng))
    w = sample_unit(rng)
    return A * QuaternionMatrix2(w, ZERO, ZERO, w)


# -- reports ----------------------------------------------------------------------


class VerificationReport(_Frozen):
    """Outcome of one verification suite run."""

    __slots__ = ("suite", "seed", "samples", "passed", "worst_margin", "witness", "properties")

    def to_json_dict(self) -> dict:
        return {"suite": self.suite, "seed": self.seed, "samples": self.samples,
                "pass": self.passed, "worst_margin": self.worst_margin,
                "witness": self.witness, "properties": self.properties}


def _margins(name: str, tol: float, rhs, lhs, witness) -> dict:
    """The summary of the margins ``rhs[i] - lhs[i]``, folded in order: the
    smallest margin with its witness (the earliest on a tie), the largest
    |margin| and the violations.  ``witness(i)`` gives the fields of the i-th
    margin's witness; it is called only when that margin becomes the worst."""
    worst, worst_abs, violations, found = None, 0.0, 0, {}
    for i, (r, l) in enumerate(zip(rhs, lhs)):
        margin = r - l
        size = abs(margin)
        if size > worst_abs:  # max(worst_abs, size), NaN included
            worst_abs = size
        if worst is None or margin < worst:
            worst = margin
            found = dict(witness(i), property=name, margin=margin)
        if margin < -tol * (1.0 + abs(r)):
            violations += 1
    return {"worst_margin": worst,
            "max_abs_margin": worst_abs,
            "violations": violations,
            "checked": len(rhs),
            "witness": found}


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


# -- single-input checks -------------------------------------------------------------


def _require(sample_count: int, tol: float) -> None:
    # a sampled property that checked no point would pass vacuously
    if sample_count < 1:
        raise ValueError(f"sample_count must be >= 1, got {sample_count}")
    if not 0.0 <= tol < 1.0:  # NaN or inf passes every margin; 1 or more is no slack
        raise ValueError(f"tol must lie in [0, 1), got {tol!r}")


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
    _require(sample_count, tol)
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
    points = _ball_floats(rng, 0.95, sample_count)
    r13, l13, r14, l14 = _moduli_at((rhs13, lhs13, rhs14, lhs14), points)

    def witness(i):
        return {"q": list(points[i]), "q0": q0.to_json()}

    d15 = (fq.cullen_derivative() * schur_inv).evaluate(q0).norm()
    return _report("schwarz-pick", seed, sample_count, {
        "difference_bound": _margins("difference_bound", tol, r13, l13, witness),
        "remainder_bound": _margins("remainder_bound", tol, r14, l14, witness),
        "derivative_bound": _margins("derivative_bound", tol, (1.0 / (1.0 - q0.norm_sq()),),
                                     (d15,), lambda _: {"q0": q0.to_json()})})


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
    _require(sample_count, tol)
    rng = rng or stream(seed, "zero-case-points")
    q0 = as_quaternion(q0)
    fq = as_quotient(f)
    value = fq.evaluate(q0)
    if value.norm() > 1e-8:
        raise ValueError(f"f(q0) = {value} is not zero; precondition violated")
    ratio = regular_moebius_map(q0).reciprocal() * fq
    # the ratio carries a removable singularity on the sphere of q0; a batch
    # that hits it (a measure-zero event) is redrawn, not reported as a pole
    for _ in range(10):
        points = _ball_floats(rng, 0.95, sample_count)
        try:
            moduli, = _moduli_at((ratio,), points)
            break
        except PoleError:
            continue
    else:
        raise PoleError("could not sample away from the sphere of q0")
    properties = {
        "factor_bound": _margins("factor_bound", tol, [1.0] * sample_count, moduli,
                                 lambda i: {"q": list(points[i]), "q0": q0.to_json()}),
        "slice_derivative_bound": _margins(
            "slice_derivative_bound", tol, (1.0 / (1.0 - q0.norm_sq()),),
            (fq.cullen_derivative().evaluate(q0).norm(),), lambda _: {"q0": q0.to_json()})}
    if q0.imag_norm() > 1e-9:
        qc = q0.conjugate()
        properties["spherical_derivative_bound"] = _margins(
            "spherical_derivative_bound", tol, (1.0 / (ONE - qc * qc).norm(),),
            (spherical_derivative_at(fq, q0).norm(),), lambda _: {"q0": q0.to_json()})
    return _report("zero-case", seed, sample_count, properties)


def check_modulus_product(h, f, g, sample_count: int = 100, *, rng=None,
                          tol: float = DEFAULT_TOL, seed: int = 0) -> VerificationReport:
    """If |f| <= |g| pointwise then |h*f| <= |h*g| pointwise.

    The hypothesis is verified on the sample set first; a hypothesis failure
    is an input error, not a reported violation.
    """
    _require(sample_count, tol)
    rng = rng or stream(seed, "modulus-points")
    points = _ball_floats(rng, 0.95, sample_count)
    for p, fn, gn in zip(points, *_moduli_at((f, g), points)):
        if fn > gn + _zero_bound(gn):
            raise ValueError(f"|f| > |g| at {_make(*p)}; hypothesis violated on the sample set")
    hf = h * f
    hg = h * g
    rhs, lhs = _moduli_at((hg, hf), points)
    return _report("modulus-product", seed, sample_count, {
        "modulus_product": _margins("modulus_product", tol, rhs, lhs,
                                    lambda i: {"q": list(points[i])})})


def check_reg_preservation(f, A: QuaternionMatrix2, sample_count: int = 100, *,
                           rng=None, tol: float = DEFAULT_TOL,
                           seed: int = 0) -> VerificationReport:
    """Both actions of a ball-preserving matrix keep self-maps inside the ball.

    Also checks that the regular conjugate of f stays a self-map.
    """
    _require(sample_count, tol)
    if not A.is_sp11():
        raise ValueError("matrix does not preserve the ball; precondition violated")
    rng = rng or stream(seed, "preservation-points")
    maps = (right_action(f, A), left_action(A, f), f.conjugate())
    names = ("right_action_in_ball", "left_action_in_ball", "conjugate_in_ball")
    points = _ball_floats(rng, 0.99, sample_count)
    ones = [1.0] * sample_count
    return _report("reg-preservation", seed, sample_count, {
        name: _margins(name, tol, ones, moduli, lambda i: {"q": list(points[i])})
        for name, moduli in zip(names, _moduli_at(maps, points))})


def slice_regularity_residual(f, x: float, y: float, I: Quaternion) -> float:
    """Central finite-difference residual of (d/dx + I d/dy)/2 on the slice of I."""
    return _slice_residuals(f, [(x, y, I)])[0]


def _slice_residuals(f, samples) -> list:
    """``slice_regularity_residual`` at each (x, y, I) of ``samples``, with f
    evaluated at all 4 N slice points in one call.

    A residual runs on floats in the operation order of
    ``(0.5 * ((a - b) / h + I * ((c - d) / h))).norm()`` with h = 2 step, for
    f's values a, b at x ± step and c, d at y ± step.  One that is not finite
    is recomputed on quaternions, which raise where a value is not finite.
    """
    step = 1e-5
    h = 2.0 * step
    points = []
    for x, y, I in samples:
        points += (_slice_floats(x + step, y, I), _slice_floats(x - step, y, I),
                   _slice_floats(x, y + step, I), _slice_floats(x, y - step, I))
    values = iter(_values_at(f, points))
    out = []
    for (_, _, I), a, b, c, d in zip(samples, values, values, values, values):
        gw, gx, gy, gz = (a[0] - b[0]) / h, (a[1] - b[1]) / h, (a[2] - b[2]) / h, (a[3] - b[3]) / h
        e = (c[0] - d[0]) / h, (c[1] - d[1]) / h, (c[2] - d[2]) / h, (c[3] - d[3]) / h
        iw, ix, iy, iz = _hamilton((I.w, I.x, I.y, I.z), e)  # I * e
        residual = _norm(0.5 * (gw + iw), 0.5 * (gx + ix), 0.5 * (gy + iy), 0.5 * (gz + iz))
        if not residual < _INF:
            a, b, c, d = (_make(*v) for v in (a, b, c, d))
            residual = (0.5 * ((a - b) / h + I * ((c - d) / h))).norm()
        out.append(residual)
    return out


def check_slice_regularity(f, sample_count: int = 100, *, rng=None,
                           seed: int = 0) -> VerificationReport:
    """Finite-difference regularity test on random slices.

    Accepts polynomials, quotients, or arbitrary callables; a sample fails
    when its residual exceeds ``_SLICE_TOL``, and a genuinely non-regular map
    (such as pointwise conjugation) fails with residual around one.
    """
    _require(sample_count, 0.0)
    rng = rng or stream(seed, "slice-points")
    samples = []
    for _ in range(sample_count):
        x = rng.uniform(-0.7, 0.7)
        y = rng.uniform(0.05, 0.6)
        samples.append((x, y, sample_unit_imaginary(rng)))
    return _report("slice-regularity", seed, sample_count, {
        "slice_regularity": _margins(
            "slice_regularity", 0.0, [_SLICE_TOL] * sample_count, _slice_residuals(f, samples),
            lambda i: {"x": samples[i][0], "y": samples[i][1], "axis": samples[i][2].to_json()})})


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
    if not reports:  # no Moebius batch ran: nothing was checked, so nothing passed
        return {"moebius_equality": {"checked": 0, "skipped": True}}
    worst = max(rep.properties[name]["max_abs_margin"] for rep in reports
                for name in ("remainder_bound", "derivative_bound"))
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
    if samples < 0:
        raise ValueError(f"samples must be >= 0, got {samples}")
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
