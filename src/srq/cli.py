"""Command-line front end.

Subcommands: eval, star, quotient, mobius, distance, expand, normal-form,
verify.  Quaternion arguments accept 'w+xi+yj+zk' or JSON '[w,x,y,z]';
polynomial arguments use the expression grammar.  Exit codes: 0 success,
1 domain error (pole, outside ball, failed suite), 2 parse/usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import verify as verify_mod
from .errors import DomainError, ParseError
from .expression import format_polynomial, parse_polynomial
from .fractional import QuaternionMatrix2, from_normal_form, normal_form
from .geometry import (classical_moebius, poincare_distance, regular_moebius)
from .quaternion import Quaternion
from .rational import RegularQuotient


def _parse_quat(text: str) -> Quaternion:
    return Quaternion.parse(text)


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:  # argparse would name this function in its message
        raise argparse.ArgumentTypeError(f"tolerance must be a number, got {text!r}") from None
    if not 0.0 < value < 1.0:  # verify.py: tol is slack relative to 1 + |rhs|
        raise argparse.ArgumentTypeError(f"tolerance must lie in (0, 1), got {text}")
    return value


def _sample_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"sample count must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"sample count must be >= 0, got {text}")
    return value


def _add_format_flags(sub):
    sub.add_argument("--json", action="store_true", help="emit JSON")
    sub.add_argument("--csv", action="store_true", help="emit CSV")


def _emit(args, pretty: str, json_obj, csv_rows) -> None:
    if getattr(args, "json", False):
        print(json.dumps(json_obj, sort_keys=True))
    elif getattr(args, "csv", False):
        for row in csv_rows:
            print(",".join(str(v) for v in row))
    else:
        print(pretty)


def _quat_rows(q: Quaternion):
    return [("w", "x", "y", "z"), (q.w, q.x, q.y, q.z)]


def _poly_rows(p):
    rows = [("power", "w", "x", "y", "z")]
    for n, c in enumerate(p.coeffs):
        rows.append((n, c.w, c.x, c.y, c.z))
    return rows


# -- subcommand handlers -----------------------------------------------------------


def _cmd_eval(args) -> int:
    f = parse_polynomial(args.f)
    q = _parse_quat(args.at)
    value = f.evaluate(q)
    _emit(args, str(value), value.to_json(), _quat_rows(value))
    return 0


def _cmd_star(args) -> int:
    f = parse_polynomial(args.f)
    g = parse_polynomial(args.g)
    product = f * g
    _emit(args, format_polynomial(product), product.to_json(), _poly_rows(product))
    return 0


def _cmd_quotient(args) -> int:
    quotient = RegularQuotient(parse_polynomial(args.den), parse_polynomial(args.num),
                               args.side)
    q = _parse_quat(args.at)
    if args.route == "direct":
        value = quotient.evaluate(q)
        _emit(args, str(value), value.to_json(), _quat_rows(value))
    elif args.route == "transform":
        value = quotient.evaluate_via_transform(q)
        _emit(args, str(value), value.to_json(), _quat_rows(value))
    else:
        direct = quotient.evaluate(q)
        via = quotient.evaluate_via_transform(q)
        gap = (direct - via).norm()
        _emit(args,
              f"direct    = {direct}\ntransform = {via}\ngap       = {gap:.3e}",
              {"direct": direct.to_json(), "transform": via.to_json(), "gap": gap},
              [("route", "w", "x", "y", "z"),
               ("direct", direct.w, direct.x, direct.y, direct.z),
               ("transform", via.w, via.x, via.y, via.z)])
    return 0


def _cmd_mobius(args) -> int:
    q0 = _parse_quat(args.q0)
    q = _parse_quat(args.at)
    u = _parse_quat(args.u)
    if args.classical:
        value = classical_moebius(q0, u, _parse_quat(args.v), q)
    else:
        value = regular_moebius(q0, u, q)
    _emit(args, str(value), value.to_json(), _quat_rows(value))
    return 0


def _cmd_distance(args) -> int:
    d = poincare_distance(_parse_quat(args.q1), _parse_quat(args.q2))
    _emit(args, repr(d), {"distance": d}, [("distance",), (d,)])
    return 0


def _cmd_expand(args) -> int:
    f = parse_polynomial(args.f)
    expansion = f.spherical_expansion(_parse_quat(args.center), args.nmax)
    lines = [f"A_{n} = {c}" for n, c in enumerate(expansion.coefficients)]
    rows = [("index", "w", "x", "y", "z")]
    rows.extend((n, c.w, c.x, c.y, c.z) for n, c in enumerate(expansion.coefficients))
    _emit(args, "\n".join(lines), expansion.to_json(), rows)
    return 0


def _cmd_normal_form(args) -> int:
    if args.matrix is not None:
        try:
            obj = json.loads(args.matrix)
            matrix = QuaternionMatrix2.from_json(obj)
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise ParseError(f"bad matrix JSON: {exc}") from exc
        nf = normal_form(matrix)
        _emit(args, f"q0 = {nf.q0}\nu  = {nf.u}",
              {"q0": nf.q0.to_json(), "u": nf.u.to_json()},
              [("part", "w", "x", "y", "z"),
               ("q0", nf.q0.w, nf.q0.x, nf.q0.y, nf.q0.z),
               ("u", nf.u.w, nf.u.x, nf.u.y, nf.u.z)])
        return 0
    if args.q0 is None or args.u is None:
        raise ParseError("normal-form needs either --matrix or both --q0 and --u")
    matrix = from_normal_form(_parse_quat(args.q0), _parse_quat(args.u))
    pretty = (f"a = {matrix.a}\nc = {matrix.c}\nb = {matrix.b}\nd = {matrix.d}")
    rows = [("entry", "w", "x", "y", "z")]
    for name in ("a", "c", "b", "d"):
        e = getattr(matrix, name)
        rows.append((name, e.w, e.x, e.y, e.z))
    _emit(args, pretty, matrix.to_json(), rows)
    return 0


def _cmd_verify(args) -> int:
    tol = args.tol if args.tol is not None else verify_mod.DEFAULT_TOL
    if args.suite == "all":
        doc = verify_mod.run_all(args.seed, args.samples, tol)
        reports, width = doc["suites"], 18
    else:
        doc = verify_mod.run_suite(args.suite, args.seed, args.samples, tol).to_json_dict()
        reports, width = [doc], 0
    lines = [f"{r['suite']:<{width}} {'PASS' if r['pass'] else 'FAIL'}  "
             f"samples={r['samples']} worst_margin={r['worst_margin']:.3e}" for r in reports]
    if args.suite == "all":
        lines.append(f"{'overall':<{width}} {'PASS' if doc['pass'] else 'FAIL'}")
    rows = [("suite", "seed", "samples", "pass", "worst_margin")]
    rows.extend((r["suite"], r["seed"], r["samples"], r["pass"], r["worst_margin"])
                for r in reports)
    _emit(args, "\n".join(lines), doc, rows)
    return 0 if doc["pass"] else 1


# -- parser ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srq",
        description="Star products, regular Moebius transformations, and the "
                    "hyperbolic geometry of the quaternionic unit ball.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("eval", help="evaluate a polynomial at a point")
    p.add_argument("--f", required=True, help="polynomial expression")
    p.add_argument("--at", required=True, help="quaternion point")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_eval)

    p = subs.add_parser("star", help="star product of two polynomials")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    _add_format_flags(p)
    p.set_defaults(func=_cmd_star)

    p = subs.add_parser("quotient", help="evaluate a regular quotient")
    p.add_argument("--den", required=True, help="denominator polynomial")
    p.add_argument("--num", required=True, help="numerator polynomial")
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.add_argument("--at", required=True)
    p.add_argument("--route", choices=("direct", "transform", "both"), default="direct")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_quotient)

    p = subs.add_parser("mobius", help="evaluate a Moebius self-map of the ball")
    p.add_argument("--q0", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--u", default="1")
    p.add_argument("--v", default="1", help="extra phase for the classical map")
    p.add_argument("--classical", action="store_true",
                   help="use the pointwise classical map instead of the regular one")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_mobius)

    p = subs.add_parser("distance", help="hyperbolic distance between two points")
    p.add_argument("q1")
    p.add_argument("q2")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_distance)

    p = subs.add_parser("expand", help="spherical expansion of a polynomial")
    p.add_argument("--f", required=True)
    p.add_argument("--center", required=True)
    p.add_argument("--nmax", type=int, default=2,
                   help="number of sphere powers (coefficients up to A_{2*nmax+1})")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_expand)

    p = subs.add_parser("normal-form",
                        help="normal form of a ball-preserving matrix, or its inverse")
    p.add_argument("--matrix", help='matrix JSON {"a": [..], "c": [..], "b": [..], "d": [..]}')
    p.add_argument("--q0", help="build the matrix for this zero instead")
    p.add_argument("--u", help="phase for --q0")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_normal_form)

    p = subs.add_parser("verify", help="run verification suites")
    p.add_argument("suite", choices=verify_mod.SUITE_NAMES + ("all",))
    # a string default goes through type=int, so a malformed SRQ_SEED is a usage error
    p.add_argument("--seed", type=int, default=os.environ.get("SRQ_SEED", "0"),
                   help="random seed (default: $SRQ_SEED, else 0)")
    p.add_argument("--samples", type=_sample_count, default=1000)
    p.add_argument("--tol", type=_positive_float, default=None,
                   help=f"violation tolerance of the inequality suites (default "
                        f"{verify_mod.DEFAULT_TOL:g}); slice-regularity keeps its own "
                        f"finite-difference bound of {verify_mod._SLICE_TOL:g}")
    _add_format_flags(p)
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "json", False) and getattr(args, "csv", False):
        print("error: --json and --csv are mutually exclusive", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ZeroDivisionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
