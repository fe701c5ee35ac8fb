"""The benchmark's workloads: seeded inputs, the timed operation, and its checks.

A workload turns ``--seed`` into a list of plain-Python inputs (floats,
strings, argument lists); the library only ever sees those.  ``call`` is the
timed operation, ``check`` inspects its output without calling the library
and returns a failure kind or ``None``, and ``units`` says how much work the
operation completed (checked samples, cases or calls).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
#: Relative tolerance of the two quotient evaluation routes (acceptance 3).
ROUTE_TOL = 1e-10
#: Relative tolerance of the ring-arithmetic and expansion identities.
IDENTITY_TOL = 1e-9
#: Tolerance on recovered sphere centres and radii of factor-built polynomials.
SPHERE_TOL = 1e-6


# -- plain-Python quaternion helpers (inputs and checks, never timed) -----------


def _qmul(a, b):
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def _qnorm(a):
    return math.sqrt(sum(v * v for v in a))


def _gap(a, b):
    """|a - b| / (1 + |a|) for library quaternions."""
    return (a - b).norm() / (1.0 + a.norm())


def _coeff(rng):
    """A coefficient with three decimals, so its text form parses exactly."""
    return tuple(round(rng.uniform(-1.0, 1.0), 3) for _ in range(4))


def ball_point(rng, radius):
    while True:
        q = tuple(rng.uniform(-1.0, 1.0) for _ in range(4))
        if _qnorm(q) < radius:
            return q


def unit_quaternion(rng):
    while True:
        q = tuple(rng.gauss(0.0, 1.0) for _ in range(4))
        n = _qnorm(q)
        if n > 1e-3:
            return tuple(v / n for v in q)


def random_poly(rng, degree):
    coeffs = [_coeff(rng) for _ in range(degree + 1)]
    while _qnorm(coeffs[-1]) < 0.1:
        coeffs[-1] = _coeff(rng)
    return coeffs


def _dominant_poly(rng, degree):
    """Coefficients with |a_0| = 1.5 * sum_{n>0} |a_n|.

    Then |f(q)| >= |a_0| / 3 on the unit ball, so a quotient with this
    denominator has no pole near any sample point and both evaluation routes
    are well conditioned there.
    """
    rest = random_poly(rng, degree)[1:]
    size = 1.5 * sum(_qnorm(c) for c in rest)
    direction = unit_quaternion(rng)
    return [tuple(round(v * size, 3) for v in direction)] + rest


def _quat_text(c):
    return "(" + "+".join(f"{v!r}{unit}" for v, unit in zip(c, ("", "i", "j", "k"))) + ")"


def _poly_text(coeffs):
    terms = []
    for n, c in enumerate(coeffs):
        power = "" if n == 0 else ("q*" if n == 1 else f"q^{n}*")
        terms.append(power + _quat_text(c))
    return " + ".join(terms)


def _sym_residual_ok(sym_coeffs, x, y):
    """Whether the real polynomial with these coefficients vanishes at x + iy."""
    z = complex(x, y)
    value = 0j
    for c in reversed(sym_coeffs):
        value = value * z + c
    scale = sum(abs(c) * abs(z) ** n for n, c in enumerate(sym_coeffs))
    return abs(value) <= 1e-8 * (1.0 + scale)


SUITES = ("schwarz-pick", "zero-case", "modulus-product", "reg-preservation",
          "slice-regularity")


# -- verify ---------------------------------------------------------------------


class Verify:
    """Repeated ``run_all(seed, samples)`` over all five suites."""

    name = "verify"
    unit = "samples"
    speed_reference = "kernel"
    SEEDS = 96
    SAMPLES = 50

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(f"perfbench:verify:{seed}")
        self.inputs = [rng.randrange(2 ** 31) for _ in range(self.SEEDS)]
        self.reference = {}

    def prepare(self, srq):
        pass

    def call(self, srq, run_seed):
        return srq.verify.run_all(run_seed, self.SAMPLES)

    trace_call = call

    def check(self, run_seed, doc):
        if doc["pass"] is not True:
            return "suite-failed"
        blob = json.dumps(doc, sort_keys=True).encode()
        if self.reference.setdefault(run_seed, blob) != blob:
            return "not-reproducible"
        return None

    def units(self, run_seed, doc):
        return sum(suite["samples"] for suite in doc["suites"])


# -- algebra --------------------------------------------------------------------


def _sphere_centres(rng, count, separation, radii=(0.2, 0.9)):
    """Sphere (x, y) pairs at least ``separation`` apart, with y in ``radii``."""
    centres = []
    while len(centres) < count:
        x, y = rng.uniform(-0.8, 0.8), rng.uniform(*radii)
        if all(math.hypot(x - a, y - b) >= separation for a, b in centres):
            centres.append((x, y))
    return centres


def factor_spec(rng, count, multiplicities, separation, radii=(0.2, 0.9)):
    """Linear factors q - p with p on the chosen spheres, as ((x, y, m), p) pairs."""
    spec = []
    for (x, y), m in zip(_sphere_centres(rng, count, separation, radii), multiplicities):
        axis = unit_quaternion(rng)[1:]
        n = _qnorm(axis)
        p = (round(x, 3),) + tuple(round(v * y / n, 3) for v in axis)
        spec.append(((p[0], _qnorm(p[1:]), m), p))
    return spec


def factor_text(spec):
    factors = []
    for (_, _, m), p in spec:
        factors.extend(["(q-" + _quat_text(p) + ")"] * m)
    return "*".join(factors)


def make_case(rng, index):
    """Algebra case number ``index`` as plain data.

    The case's shape (kind, degrees, factor count and multiplicities, number
    of points, text or coefficients) cycles with ``index``, so every seed
    gets the same mix and only the numbers change.
    """
    kind = "factor" if index % 4 == 3 else "generic"
    case = {"kind": kind,
            "den": _dominant_poly(rng, 1 + index % 3),
            "r": (_dominant_poly(rng, 2), random_poly(rng, 1)),
            "s": (_dominant_poly(rng, 2), random_poly(rng, 1)),
            "points": [ball_point(rng, 0.9) for _ in range(2 + (index // 3) % 3)],
            "nf": (ball_point(rng, 0.9), unit_quaternion(rng))}
    if kind == "factor":
        count = 1 + (index // 4) % 3
        multiplicities = [2 if (index // 12 + j) % 3 == 0 else 1 for j in range(count)]
        spec = factor_spec(rng, count, multiplicities, 0.4)
        case["spheres"] = sorted(entry for entry, _ in spec)
        case["num_text"] = factor_text(spec)
    else:
        case["num"] = random_poly(rng, (index // 5) % 4)
        if (index // 2) % 4 == 0:
            case["den_text"] = _poly_text(case["den"])
            case["num_text"] = _poly_text(case["num"])
    while True:
        centre = ball_point(rng, 0.8)
        if _qnorm(centre[1:]) > 0.1:
            break
    case["centre"] = centre
    return case


def _poly(srq, coeffs):
    return srq.RegularPolynomial([srq.Quaternion(*c) for c in coeffs])


def algebra_case(srq, case):
    """Build a case's objects from its raw inputs and evaluate them at a few points."""
    Q = srq.Quaternion
    den = (srq.parse_polynomial(case["den_text"]) if "den_text" in case
           else _poly(srq, case["den"]))
    num = (srq.parse_polynomial(case["num_text"]) if "num_text" in case
           else _poly(srq, case["num"]))
    den * num
    out = {"den": den, "num": num, "den_sym": den.symmetrization()}
    quotient = srq.RegularQuotient(den, num, "left")
    r = srq.RegularQuotient(_poly(srq, case["r"][0]), _poly(srq, case["r"][1]), "left")
    s = srq.RegularQuotient(_poly(srq, case["s"][0]), _poly(srq, case["s"][1]), "right")
    qr = quotient * r
    chain = qr + s

    zero_poly = num if case["kind"] == "factor" else den
    out["zero_set"] = srq.sphere_zero_set(zero_poly)
    out["zero_sym"] = out["den_sym"] if zero_poly is den else num.symmetrization()

    centre = Q(*case["centre"])
    n_max = zero_poly.degree // 2
    expansion = zero_poly.spherical_expansion(centre, n_max)
    zero_poly.remainder(centre)
    zero_poly.cullen_derivative()

    q0, u = Q(*case["nf"][0]), Q(*case["nf"][1])
    matrix = srq.from_normal_form(q0, u)
    out["normal_form"] = srq.normal_form(matrix)
    srq.right_action(quotient, matrix)
    srq.left_action(matrix, den)

    points = [Q(*p) for p in case["points"]]
    out["routes"] = [(quotient.evaluate(p), quotient.evaluate_via_transform(p))
                     for p in points[1:]]
    p0 = points[0]
    qv = quotient.evaluate(p0)
    out["ring"] = (qv, r.evaluate(qv.inverse() * p0 * qv), qr.evaluate(p0),
                   s.evaluate(p0), chain.evaluate(p0))
    out["expansion"] = (zero_poly.evaluate(p0), expansion.evaluate(p0))
    return out


def _zero_set_failure(case, out):
    sym = [c.w for c in out["zero_sym"].coeffs]
    entries = out["zero_set"].entries
    if not all(_sym_residual_ok(sym, e.x, e.y) for e in entries):
        return "zero-set-residual"
    if case["kind"] == "factor":
        got = sorted((e.x, e.y, e.multiplicity) for e in entries)
        want = case["spheres"]
        if len(got) != len(want) or any(
                abs(a[0] - b[0]) > SPHERE_TOL or abs(a[1] - b[1]) > SPHERE_TOL or a[2] != b[2]
                for a, b in zip(got, want)):
            return "zero-set-multiplicity"
    return None


def algebra_check(case, out):
    if "num_text" in case and case["kind"] == "generic":
        for key in ("den", "num"):
            if [c.to_json() for c in out[key].coeffs] != [list(c) for c in case[key]]:
                return "parse-mismatch"
    if any(_gap(d, v) > ROUTE_TOL for d, v in out["routes"]):
        return "route-disagreement"
    qv, rw, qrv, sv, cv = out["ring"]
    if _gap(qrv, qv * rw) > IDENTITY_TOL:
        return "star-product-rule"
    if _gap(cv, qrv + sv) > IDENTITY_TOL:
        return "sum-rule"
    direct, expanded = out["expansion"]
    if _gap(direct, expanded) > IDENTITY_TOL:
        return "spherical-expansion"
    nf = out["normal_form"]
    q0, u = case["nf"]
    if (_qnorm([a - b for a, b in zip(nf.q0.to_json(), q0)]) > IDENTITY_TOL
            or _qnorm([a - b for a, b in zip(nf.u.to_json(), u)]) > IDENTITY_TOL):
        return "normal-form-roundtrip"
    return _zero_set_failure(case, out)


class Algebra:
    """Fresh objects per case, evaluated at a handful of points.

    A quarter of the cases are products of one to three known linear factors
    (multiplicity 1 or 2, spheres at least 0.4 apart); the rest have random
    coefficients, a quarter of them entering as expression strings.
    """

    name = "algebra"
    unit = "cases"
    speed_reference = "kernel"
    CASES = 300

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(f"perfbench:algebra:{seed}")
        self.inputs = [make_case(rng, i) for i in range(self.CASES)]
        factor = [case for case in self.inputs if case["kind"] == "factor"]
        self.known_multiplicity_cases = len(factor)
        self.repeated_factor_share = sum(
            any(m > 1 for _, _, m in case["spheres"]) for case in factor) / self.CASES

    def prepare(self, srq):
        pass

    def call(self, srq, case):
        return algebra_case(srq, case)

    trace_call = call

    def check(self, case, out):
        return algebra_check(case, out)

    def units(self, case, out):
        return 1


def defect_cases(seed):
    """Inputs on which the seed commit is known to fail, kept out of the timed mix.

    Every triple factor comes back as three simple spheres, about a quarter of
    the double spheres close to the real axis split in two, and about 3% of
    the generic degree-16 symmetrizations stall the root solver.  The traced
    run reports them as ``defects.fail_frac`` and friends, so fixes show up.
    """
    rng = random.Random(f"perfbench:defects:{seed}")
    cases = []
    for _ in range(20):
        spec = factor_spec(rng, 2, (3, 1), 0.4)
        cases.append({"spheres": sorted(e for e, _ in spec), "text": factor_text(spec)})
    for _ in range(40):
        spec = factor_spec(rng, 2, (2, 2), 0.1, radii=(0.03, 0.12))
        cases.append({"spheres": sorted(e for e, _ in spec), "text": factor_text(spec)})
    for _ in range(100):
        cases.append({"coeffs": random_poly(rng, 8)})
    return cases


def defect_case(srq, case):
    f = srq.parse_polynomial(case["text"]) if "text" in case else _poly(srq, case["coeffs"])
    return {"zero_set": srq.sphere_zero_set(f), "zero_sym": f.symmetrization()}


def defect_check(case, out):
    return _zero_set_failure(dict(case, kind="factor" if "spheres" in case else "generic"), out)


def cli_env():
    """The environment of a CLI process: the checkout's sources on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- cli ------------------------------------------------------------------------


def _json_quat(q):
    return json.dumps(list(q))


def _cli_commands(rng, suite):
    """The fixed command mix, each with a fresh seeded input, and its library result."""
    q1, q2, at = (ball_point(rng, 0.9) for _ in range(3))
    f, g = random_poly(rng, 2), random_poly(rng, 1)
    den = _dominant_poly(rng, 2)
    q0, u = ball_point(rng, 0.8), unit_quaternion(rng)
    lam = 1.0 / math.sqrt(1.0 - sum(v * v for v in q0))
    q0_bar = (q0[0], -q0[1], -q0[2], -q0[3])
    matrix = {"a": [v * lam for v in u], "c": [-v * lam for v in q0_bar],
              "b": [-v * lam for v in _qmul(q0, u)], "d": [lam, 0.0, 0.0, 0.0]}
    while True:
        centre = ball_point(rng, 0.8)
        if _qnorm(centre[1:]) > 0.1:
            break
    run_seed = rng.randrange(2 ** 31)
    fp, gp, dp = _poly_text(f), _poly_text(g), _poly_text(den)

    def quotient(srq):
        value = srq.RegularQuotient(srq.parse_polynomial(dp), srq.parse_polynomial(fp), "left")
        point = srq.Quaternion(*at)
        direct, via = value.evaluate(point), value.evaluate_via_transform(point)
        return {"direct": direct.to_json(), "transform": via.to_json(),
                "gap": (direct - via).norm()}

    def normal_form(srq):
        nf = srq.normal_form(srq.QuaternionMatrix2.from_json(matrix))
        return {"q0": nf.q0.to_json(), "u": nf.u.to_json()}

    # JSON text round-trips floats exactly, so the library gets the CLI's numbers
    return [
        (["distance", _json_quat(q1), _json_quat(q2)],
         lambda srq: {"distance": srq.poincare_distance(srq.Quaternion(*q1),
                                                        srq.Quaternion(*q2))}),
        (["eval", "--f", fp, "--at", _json_quat(at)],
         lambda srq: srq.parse_polynomial(fp).evaluate(srq.Quaternion(*at)).to_json()),
        (["star", "--f", fp, "--g", gp],
         lambda srq: (srq.parse_polynomial(fp) * srq.parse_polynomial(gp)).to_json()),
        (["quotient", "--den", dp, "--num", fp, "--at", _json_quat(at), "--route", "both"],
         quotient),
        (["mobius", "--q0", _json_quat(q0), "--at", _json_quat(q1), "--u", _json_quat(u)],
         lambda srq: srq.regular_moebius(srq.Quaternion(*q0), srq.Quaternion(*u),
                                         srq.Quaternion(*q1)).to_json()),
        (["expand", "--f", fp, "--center", _json_quat(centre), "--nmax", "1"],
         lambda srq: srq.parse_polynomial(fp).spherical_expansion(
             srq.Quaternion(*centre), 1).to_json()),
        (["normal-form", "--matrix", json.dumps(matrix)], normal_form),
        (["verify", suite, "--seed", str(run_seed), "--samples", "50"],
         lambda srq: srq.run_suite(suite, run_seed, 50).to_json_dict()),
    ]


class Cli:
    """One ``python -m srq.cli`` process at a time over the fixed command mix.

    The traced run executes the same commands in this process instead, since
    a tracer cannot reach into a child; its overhead figure is in-process.
    """

    name = "cli"
    unit = "calls"
    speed_reference = "start"
    VARIANTS = 2

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(f"perfbench:cli:{seed}")
        self.commands = [cmd for variant in range(self.VARIANTS)
                         for cmd in _cli_commands(rng, SUITES[variant % len(SUITES)])]
        self.inputs = [tuple(argv) + ("--json",) for argv, _ in self.commands]
        self.expected = {}

    def prepare(self, srq):
        for (argv, library), key in zip(self.commands, self.inputs):
            self.expected[key] = json.dumps(library(srq), sort_keys=True) + "\n"

    def call(self, srq, argv):
        return subprocess.run([sys.executable, "-m", "srq.cli", *argv], env=cli_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=60)

    def trace_call(self, srq, argv):
        """The same command run in this process, so the tracer sees its layers."""
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            code = srq.cli.main(list(argv))
        return subprocess.CompletedProcess(argv, code, buffer.getvalue(), "")

    def check(self, argv, proc):
        if proc.returncode != 0:
            return f"exit-{proc.returncode}"
        return None if proc.stdout == self.expected[argv] else "stdout-mismatch"

    def units(self, argv, proc):
        return 1


WORKLOADS = {w.name: w for w in (Verify, Algebra, Cli)}
