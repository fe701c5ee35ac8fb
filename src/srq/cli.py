"""Command-line front end.

Subcommands: eval, star, quotient, mobius, distance, expand, normal-form,
verify.  Polynomial arguments use the expression grammar; quaternion
arguments are JSON '[w,x,y,z]' or the same grammar without q ('2i*3').
Exit codes: 0 success, 1 domain error (pole, outside ball, failed suite),
2 parse/usage error (an overflow in a text too).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import verify as verify_mod
from .errors import DomainError, ParseError
from .expression import format_polynomial, parse_polynomial, parse_quaternion
from .fractional import QuaternionMatrix2, from_normal_form, normal_form
from .geometry import (classical_moebius, poincare_distance, regular_moebius)
from .quaternion import Quaternion
from .rational import RegularQuotient


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:  # argparse would name this function in its message
        raise argparse.ArgumentTypeError(f"tolerance must be a number, got {text!r}") from None
    if not 0.0 < value < 1.0:  # verify.py: tol is slack relative to 1 + |rhs|
        raise argparse.ArgumentTypeError(f"tolerance must lie in (0, 1), got {text}")
    return value


def _count(text: str) -> int:
    try:
        value = int(text)
    except ValueError:  # argparse would name this function in its message
        raise argparse.ArgumentTypeError(f"count must be an integer, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"count must be >= 0, got {text}")
    return value


def _emit(args, pretty: str, json_obj, csv_rows) -> None:
    if args.format == "json":
        print(json.dumps(json_obj, sort_keys=True))
    elif args.format == "csv":
        for row in csv_rows:
            print(",".join(str(v) for v in row))
    else:
        print(pretty)


def _emit_quat(args, q: Quaternion) -> None:
    _emit(args, str(q), q.to_json(), [("w", "x", "y", "z"), q.to_json()])


def _quat_table(key: str, labelled) -> list:
    """CSV rows ``key,w,x,y,z``: a header, then one row per (label, quaternion)."""
    return [(key, "w", "x", "y", "z")] + [(label, *q.to_json()) for label, q in labelled]


# -- subcommand handlers -----------------------------------------------------------


def _cmd_eval(args) -> int:
    _emit_quat(args, parse_polynomial(args.f).evaluate(parse_quaternion(args.at)))
    return 0


def _cmd_star(args) -> int:
    product = parse_polynomial(args.f) * parse_polynomial(args.g)
    _emit(args, format_polynomial(product), product.to_json(),
          _quat_table("power", enumerate(product.coeffs)))
    return 0


def _cmd_quotient(args) -> int:
    quotient = RegularQuotient(parse_polynomial(args.den), parse_polynomial(args.num),
                               args.side)
    q = parse_quaternion(args.at)
    if args.route == "direct":
        _emit_quat(args, quotient.evaluate(q))
    elif args.route == "transform":
        _emit_quat(args, quotient.evaluate_via_transform(q))
    else:
        direct = quotient.evaluate(q)
        via = quotient.evaluate_via_transform(q)
        gap = (direct - via).norm()
        _emit(args,
              f"direct    = {direct}\ntransform = {via}\ngap       = {gap:.3e}",
              {"direct": direct.to_json(), "transform": via.to_json(), "gap": gap},
              _quat_table("route", [("direct", direct), ("transform", via)]))
    return 0


def _cmd_mobius(args) -> int:
    q0 = parse_quaternion(args.q0)
    q = parse_quaternion(args.at)
    u = parse_quaternion(args.u)
    if args.classical:
        value = classical_moebius(q0, u, parse_quaternion(args.v), q)
    else:
        value = regular_moebius(q0, u, q)
    _emit_quat(args, value)
    return 0


def _cmd_distance(args) -> int:
    d = poincare_distance(parse_quaternion(args.q1), parse_quaternion(args.q2))
    _emit(args, repr(d), {"distance": d}, [("distance",), (d,)])
    return 0


def _cmd_expand(args) -> int:
    f = parse_polynomial(args.f)
    expansion = f.spherical_expansion(parse_quaternion(args.center), args.nmax)
    lines = [f"A_{n} = {c}" for n, c in enumerate(expansion.coefficients)]
    _emit(args, "\n".join(lines), expansion.to_json(),
          _quat_table("index", enumerate(expansion.coefficients)))
    return 0


def _cmd_normal_form(args) -> int:
    if args.matrix is not None:
        if args.q0 is not None or args.u is not None:
            raise ParseError("normal-form takes either --matrix or --q0 and --u, not both")
        try:
            obj = json.loads(args.matrix)
            matrix = QuaternionMatrix2.from_json(obj)
        except (ValueError, KeyError, TypeError) as exc:  # malformed, or too many digits
            raise ParseError(f"bad matrix JSON: {exc}") from exc
        nf = normal_form(matrix)
        _emit(args, f"q0 = {nf.q0}\nu  = {nf.u}",
              {"q0": nf.q0.to_json(), "u": nf.u.to_json()},
              _quat_table("part", [("q0", nf.q0), ("u", nf.u)]))
        return 0
    if args.q0 is None or args.u is None:
        raise ParseError("normal-form needs either --matrix or both --q0 and --u")
    matrix = from_normal_form(parse_quaternion(args.q0), parse_quaternion(args.u))
    entries = [("a", matrix.a), ("c", matrix.c), ("b", matrix.b), ("d", matrix.d)]
    _emit(args, "\n".join(f"{name} = {e}" for name, e in entries), matrix.to_json(),
          _quat_table("entry", entries))
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


def _command(subs, name: str, func, help: str) -> argparse.ArgumentParser:
    """Add subcommand ``name`` run by ``func``, with its ``--json | --csv`` format."""
    p = subs.add_parser(name, help=help)
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", dest="format", action="store_const", const="json",
                     help="emit JSON")
    fmt.add_argument("--csv", dest="format", action="store_const", const="csv",
                     help="emit CSV")
    p.set_defaults(func=func, format="pretty")
    return p


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="srq",
        description="Star products, regular Moebius transformations, and the "
                    "hyperbolic geometry of the quaternionic unit ball.")
    subs = parser.add_subparsers(dest="command", required=True)

    p = _command(subs, "eval", _cmd_eval, help="evaluate a polynomial at a point")
    p.add_argument("--f", required=True, help="polynomial expression")
    p.add_argument("--at", required=True, help="quaternion point")

    p = _command(subs, "star", _cmd_star, help="star product of two polynomials")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)

    p = _command(subs, "quotient", _cmd_quotient, help="evaluate a regular quotient")
    p.add_argument("--den", required=True, help="denominator polynomial")
    p.add_argument("--num", required=True, help="numerator polynomial")
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.add_argument("--at", required=True)
    p.add_argument("--route", choices=("direct", "transform", "both"), default="direct")

    p = _command(subs, "mobius", _cmd_mobius, help="evaluate a Moebius self-map of the ball")
    p.add_argument("--q0", required=True)
    p.add_argument("--at", required=True)
    p.add_argument("--u", default="1")
    p.add_argument("--v", default="1", help="extra phase for the classical map")
    p.add_argument("--classical", action="store_true",
                   help="use the pointwise classical map instead of the regular one")

    p = _command(subs, "distance", _cmd_distance,
                 help="hyperbolic distance between two points")
    p.add_argument("q1")
    p.add_argument("q2")

    p = _command(subs, "expand", _cmd_expand, help="spherical expansion of a polynomial")
    p.add_argument("--f", required=True)
    p.add_argument("--center", required=True)
    p.add_argument("--nmax", type=_count, default=2,
                   help="number of sphere powers (coefficients up to A_{2*nmax+1})")

    p = _command(subs, "normal-form", _cmd_normal_form,
                 help="normal form of a ball-preserving matrix, or its inverse")
    p.add_argument("--matrix", help='matrix JSON {"a": [..], "c": [..], "b": [..], "d": [..]}')
    p.add_argument("--q0", help="build the matrix for this zero instead")
    p.add_argument("--u", help="phase for --q0")

    p = _command(subs, "verify", _cmd_verify, help="run verification suites")
    p.add_argument("suite", choices=verify_mod.SUITE_NAMES + ("all",))
    # a string default goes through type=int, so a malformed SRQ_SEED is a usage error
    p.add_argument("--seed", type=int, default=os.environ.get("SRQ_SEED", "0"),
                   help="random seed (default: $SRQ_SEED, else 0)")
    p.add_argument("--samples", type=_count, default=1000)
    p.add_argument("--tol", type=_positive_float, default=None,
                   help=f"violation tolerance of the inequality suites (default "
                        f"{verify_mod.DEFAULT_TOL:g}); slice-regularity keeps its own "
                        f"finite-difference bound of {verify_mod._SLICE_TOL:g}")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
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
