"""Per-call timings of single layer operations, measured untraced."""

from __future__ import annotations

import random
import statistics
import timeit

from workloads import ball_point, factor_spec, factor_text, random_poly, unit_quaternion

#: (metric, statement, calls per repeat, seconds -> metric unit)
CASES = (
    ("quaternion.new_ns", "Q(*w)", 20000, 1e9),
    ("quaternion.mul_ns", "a * b", 20000, 1e9),
    ("series.evaluate_deg3_us", "cubic.evaluate(a)", 2000, 1e6),
    ("series.star_4x4_us", "cubic * other", 500, 1e6),
    ("rational.moebius_evaluate_us", "moebius.evaluate(a)", 1000, 1e6),
    ("rational.transform_evaluate_us", "moebius.evaluate_via_transform(a)", 1000, 1e6),
    ("rational.durand_kerner_deg8_us", "durand_kerner(sym8)", 100, 1e6),
    ("fractional.normal_form_us", "normal_form(matrix)", 500, 1e6),
)


def micro_timings(srq, seed, repeat=5):
    """Median per-call time of each case over ``repeat`` repeats."""
    rng = random.Random(f"perfbench:micro:{seed}")
    Q = srq.Quaternion

    def poly(coeffs):
        return srq.RegularPolynomial([Q(*c) for c in coeffs])

    space = {
        "Q": Q,
        "w": ball_point(rng, 0.9),
        "a": Q(*ball_point(rng, 0.9)),
        "b": Q(*ball_point(rng, 0.9)),
        "cubic": poly(random_poly(rng, 3)),
        "other": poly(random_poly(rng, 3)),
        "moebius": srq.regular_moebius_map(Q(*ball_point(rng, 0.8)), Q(*unit_quaternion(rng))),
        "durand_kerner": srq.durand_kerner,
        # four simple factors on separated spheres: a root set the solver handles
        "sym8": [c.w for c in srq.parse_polynomial(
            factor_text(factor_spec(rng, 4, (1, 1, 1, 1), 0.3))).symmetrization().coeffs],
        "normal_form": srq.normal_form,
        "matrix": srq.from_normal_form(Q(*ball_point(rng, 0.9)), Q(*unit_quaternion(rng))),
    }
    out = {}
    for name, stmt, number, scale in CASES:
        times = timeit.repeat(stmt, globals=space, number=number, repeat=repeat)
        out[name] = statistics.median(times) / number * scale
    return out
