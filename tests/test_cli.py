"""Command-line interface: formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from docdiff import assert_same_document
from srq.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_star_pretty_output(capsys):
    code, out, _ = run_cli(capsys, "star", "--f", "q - i", "--g", "q - j")
    assert code == 0
    assert out.strip() == "q^2 + q*(-i-j) + k"


def test_star_json_output(capsys):
    code, out, _ = run_cli(capsys, "star", "--f", "q - i", "--g", "q - j", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["coeffs"] == [[0, 0, 0, 1], [0, -1, -1, 0], [1, 0, 0, 0]]


def test_distance(capsys):
    code, out, _ = run_cli(capsys, "distance", "0", "0.5")
    assert code == 0
    assert out.startswith("0.5493061443")


def test_eval(capsys):
    code, out, _ = run_cli(capsys, "eval", "--f", "q^2", "--at", "[0,1,0,0]")
    assert code == 0
    assert out.strip() == "-1"


def test_eval_csv(capsys):
    code, out, _ = run_cli(capsys, "eval", "--f", "q^2", "--at", "i", "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "w,x,y,z"
    assert [float(v) for v in lines[1].split(",")] == [-1.0, 0.0, 0.0, 0.0]


def test_quotient_routes_agree(capsys):
    code, out, _ = run_cli(capsys, "quotient", "--den", "q - i", "--num", "q - j",
                           "--at", "2", "--route", "both", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["gap"] < 1e-12
    assert obj["direct"] == pytest.approx([0.8, 0.4, -0.4, -0.2])


def test_quotient_pole_exit_code(capsys):
    code, _, err = run_cli(capsys, "quotient", "--den", "q - i", "--num", "1",
                           "--at", "i")
    assert code == 1
    assert "zero set" in err


def test_mobius_regular_and_classical(capsys):
    code, out, _ = run_cli(capsys, "mobius", "--q0", "0.5i", "--at", "0.5j", "--json")
    assert code == 0
    value = json.loads(out)
    assert value == pytest.approx([0.0, -0.4, 0.4, 0.0])

    code, out, _ = run_cli(capsys, "mobius", "--q0", "0.5i", "--at", "0.5i",
                           "--classical")
    assert code == 0
    assert out.strip() == "0"


def test_mobius_outside_ball(capsys):
    code, _, err = run_cli(capsys, "mobius", "--q0", "0.5i", "--at", "2")
    assert code == 1
    assert "ball" in err


def test_expand(capsys):
    code, out, _ = run_cli(capsys, "expand", "--f", "q^2", "--center", "0.5i",
                           "--nmax", "1", "--json")
    assert code == 0
    obj = json.loads(out)
    expected = [[-0.25, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]]
    assert len(obj["coefficients"]) == len(expected)
    for got, want in zip(obj["coefficients"], expected):
        assert got == pytest.approx(want, abs=1e-12)


def test_normal_form_both_directions(capsys):
    code, out, _ = run_cli(capsys, "normal-form", "--q0", "0.5i", "--u", "1", "--json")
    assert code == 0
    matrix = json.loads(out)
    code, out, _ = run_cli(capsys, "normal-form", "--matrix", json.dumps(matrix),
                           "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["q0"] == pytest.approx([0.0, 0.5, 0.0, 0.0])
    assert obj["u"] == pytest.approx([1.0, 0.0, 0.0, 0.0])


def test_verify_single_suite_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "schwarz-pick", "--seed", "42",
                           "--samples", "200", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["pass"] is True
    assert obj["seed"] == 42


def test_verify_all_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "all", "--seed", "42",
                             "--samples", "150", "--json")
    code2, out2, _ = run_cli(capsys, "verify", "all", "--seed", "42",
                             "--samples", "150", "--json")
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    obj = json.loads(out1)
    assert obj["pass"] is True
    assert len(obj["suites"]) == 5


def test_verify_quick_mode_structure(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--seed", "1", "--samples", "10",
                           "--json")
    assert code == 0
    obj = json.loads(out)
    assert {r["suite"] for r in obj["suites"]} == {
        "schwarz-pick", "zero-case", "modulus-product",
        "reg-preservation", "slice-regularity"}


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--seed", "3", "--samples", "10",
                           "--csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "suite,seed,samples,pass,worst_margin"
    assert len(lines) == 6


def test_bad_tolerance_exits_2(capsys):
    code, _, _ = run_cli(capsys, "verify", "all", "--tol", "-1")
    assert code == 2


def test_negative_samples_exits_2(capsys):
    code, out, err = run_cli(capsys, "verify", "slice-regularity", "--samples", "-5",
                             "--json")
    assert code == 2
    assert out == ""
    assert "--samples" in err
    # zero still runs the one-batch minimum
    code, out, _ = run_cli(capsys, "verify", "slice-regularity", "--samples", "0",
                           "--json")
    assert code == 0
    assert json.loads(out)["samples"] == 25


def test_bad_expression_exits_2(capsys):
    code, _, err = run_cli(capsys, "eval", "--f", "q +* 2", "--at", "1")
    assert code == 2
    assert "error" in err


def test_eval_accepts_a_trailing_blank(capsys):
    code, out, _ = run_cli(capsys, "eval", "--f", "q^2 + 1 ", "--at", "0.5")
    assert code == 0
    assert out.strip() == "1.25"


def test_huge_power_exits_2_at_once():
    # in a child process, so a parser that tries to build q^(10^300) fails by timeout
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-m", "srq.cli", "eval", "--f", "q^1e300", "--at", "0.5"],
                          env=env, capture_output=True, text=True, timeout=20)
    assert done.returncode == 2
    assert "exceeds" in done.stderr


@pytest.mark.parametrize("text, message", [
    ("q^1000*q^1000*q^1000*q^1000", "exceeds degree 1000"),
    # the first power spends most of the text's budget of coefficient operations,
    # so the second is refused within its first hundred products
    ("(q+i)^1000*(q+i)^1000", "needs more than 1011010 coefficient operations"),
    (" + ".join(["(0.5*q+0.5i)^1000"] * 3), "needs more than 1011010 coefficient operations"),
    # each sum of degree 1000 costs 1001, so the text is refused after about a thousand
    ("+".join(["q^1000"] * 20000), "needs more than 1011010 coefficient operations"),
    ("(" * 340 + "q" + ")" * 340, "nest too deeply"),
    ("(" * 10000 + "q" + ")" * 10000, "nest too deeply"),
], ids=["q-products", "binomial-product", "binomial-sum", "q-power-sums", "nested-340",
        "nested-10000"])
def test_unbounded_text_exits_2_with_an_error_line(capsys, text, message):
    code, out, err = run_cli(capsys, "eval", "--f", text, "--at", "0.5")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


def test_bad_quaternion_exits_2(capsys):
    code, _, _ = run_cli(capsys, "distance", "zebra", "0")
    assert code == 2


def test_json_csv_conflict_exits_2(capsys):
    code, _, _ = run_cli(capsys, "eval", "--f", "q", "--at", "1", "--json", "--csv")
    assert code == 2


def test_unknown_subcommand_exits_2(capsys):
    assert main(["frobnicate"]) == 2


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("SRQ_SEED", "77")
    # parser defaults are bound at construction, so rebuild through main
    code, out, _ = run_cli(capsys, "verify", "slice-regularity", "--samples", "25",
                           "--json")
    assert code == 0
    assert json.loads(out)["seed"] == 77


def test_malformed_env_seed_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("SRQ_SEED", "4x2")
    code, out, err = run_cli(capsys, "verify", "slice-regularity", "--samples", "25",
                             "--json")
    assert code == 2
    assert out == ""
    assert "--seed" in err
    # an explicit seed still overrides the environment
    code, out, _ = run_cli(capsys, "verify", "slice-regularity", "--samples", "25",
                           "--json", "--seed", "5")
    assert code == 0
    assert json.loads(out)["seed"] == 5


def test_expand_real_center_exits_1(capsys):
    code, _, err = run_cli(capsys, "expand", "--f", "q^2", "--center", "0.5",
                           "--nmax", "2")
    assert code == 1
    assert "real" in err


def test_normal_form_rejects_non_member(capsys):
    bad = {"a": [2, 0, 0, 0], "c": [0, 0, 0, 0], "b": [0, 0, 0, 0], "d": [1, 0, 0, 0]}
    code, _, _ = run_cli(capsys, "normal-form", "--matrix", json.dumps(bad))
    assert code == 1


def test_normal_form_refuses_a_member_within_tolerance_whose_d_vanishes(capsys):
    # it passes is_sp11 (entries of 1e5), so d = 0 must be refused before it is inverted
    vanishing_d = {"a": [1e5, 0, 0, 0], "c": [0, 0, 0, 0], "b": [1e5, 0, 0, 0], "d": [0, 0, 0, 0]}
    code, out, err = run_cli(capsys, "normal-form", "--matrix", json.dumps(vanishing_d))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "too small to invert" not in err


def test_normal_form_matrix_with_q0_or_u_is_a_usage_error(capsys):
    for extra in (("--q0", "0.1j", "--u", "k"), ("--q0", "0.1j"), ("--u", "k")):
        code, out, err = run_cli(capsys, "normal-form", "--matrix", _MATRIX, *extra)
        assert code == 2
        assert out == ""
        assert "--matrix" in err and "--q0" in err


def test_normal_form_without_matrix_needs_both_q0_and_u(capsys):
    for extra in ((), ("--q0", "0.1j"), ("--u", "k")):
        code, out, err = run_cli(capsys, "normal-form", *extra)
        assert code == 2
        assert out == ""
        assert "needs either --matrix or both --q0 and --u" in err


@pytest.mark.parametrize("text", ["-1", "x", "1.5"])
def test_malformed_nmax_exits_2(capsys, text):
    code, out, err = run_cli(capsys, "expand", "--f", "q^2", "--center", "0.5i", "--nmax", text)
    assert code == 2
    assert out == ""
    assert "--nmax" in err and text in err


def test_cli_import_loads_neither_dataclasses_nor_typing():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, srq.cli; "
            "print(sorted({'dataclasses', 'typing', 'inspect'} & set(sys.modules)))")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.strip() == "[]"


def test_verify_and_the_cli_do_not_load_the_zero_set_solver():
    # srq.zeros loads on the first solve, and neither verify nor any command solves
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys, srq, srq.cli; srq.run_all(1, 5); "
            "srq.cli.main(['distance', '0', '0.5']); print('srq.zeros' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert done.stdout.split()[1:] == ["False"]


def test_normal_form_bad_json_exits_2(capsys):
    code, _, _ = run_cli(capsys, "normal-form", "--matrix", "{not json")
    assert code == 2


def test_star_wildcard_import():
    import srq

    missing = [name for name in srq.__all__ if not hasattr(srq, name)]
    assert missing == []


def test_the_zero_set_names_stay_in_the_package_api():
    # three of them load srq.zeros on first use; the list itself is as it was
    import srq
    from srq import zeros

    assert srq.__all__ == [
        "CoincidentPoints", "DegenerateCenter", "DegenerateComposite", "DegenerateSwap",
        "DomainError", "GeodesicSegment", "I", "J", "K", "MoebiusNormalForm",
        "NonConvergence", "NotHermitian", "NotSp11", "ONE", "OutsideBall", "ParseError",
        "PoleError", "Quaternion", "QuaternionMatrix2", "RealPoint", "RegularPolynomial",
        "RegularQuotient", "SingularMatrix", "SliceCoordinates", "SphereZeroSet",
        "SphericalExpansion", "VerificationReport", "ZERO", "ZeroEntry", "as_quaternion",
        "as_quotient", "check_modulus_product", "check_reg_preservation",
        "check_schwarz_pick", "check_slice_regularity", "check_zero_case",
        "classical_fractional", "classical_moebius", "conformality_defect",
        "directional_derivative", "durand_kerner", "evaluate_any", "format_polynomial",
        "from_normal_form", "generator", "geodesic", "hermitian_coincidence_check",
        "left_action", "left_right_convert", "make_zero_case_map",
        "moebius_expansion_coefficients", "normal_form", "parse_polynomial",
        "parse_quaternion", "poincare_distance", "pseudo_distance_sq", "random_self_map",
        "random_sp11", "regular_fractional", "regular_moebius", "regular_moebius_map",
        "right_action", "run_all", "run_suite", "sphere_zero_set", "spherical_derivative_at",
        "star_transform", "star_transform_inverse", "twist_map", "twist_map_inverse",
        "zeros_on_sphere",
    ]
    assert (srq.ZeroEntry, srq.SphereZeroSet, srq.zeros_on_sphere) == (
        zeros.ZeroEntry, zeros.SphereZeroSet, zeros.zeros_on_sphere)
    with pytest.raises(AttributeError, match="no_such_name"):
        srq.no_such_name
    names = {}
    exec("from srq import *", names)
    assert set(srq.__all__) <= set(names)


def test_verify_all_matches_golden_document(capsys):
    # pins the draw order and arithmetic of every suite across versions
    golden = Path(__file__).parent / "data" / "verify_all_seed42_samples200.json"
    code, out, _ = run_cli(capsys, "verify", "all", "--seed", "42", "--samples", "200",
                           "--json")
    assert code == 0
    assert_same_document(out, golden)


@pytest.mark.parametrize("tol", ["nan", "inf", "Infinity"])
def test_non_finite_tolerance_exits_2(capsys, tol):
    # no margin is below -nan or -inf, so such a tolerance would pass every suite
    code, out, err = run_cli(capsys, "verify", "all", "--seed", "1", "--samples", "50",
                             "--tol", tol)
    assert code == 2
    assert out == ""
    assert "--tol" in err


def test_tolerance_of_one_or_more_exits_2(capsys):
    # a finite slack as large as 1 + |rhs| passed every suite
    for tol in ("1e300", "1", "1.0"):
        code, out, err = run_cli(capsys, "verify", "all", "--seed", "1", "--samples", "50",
                                 "--tol", tol)
        assert code == 2
        assert out == ""
        assert "--tol" in err


@pytest.mark.parametrize("option, text", [("--samples", "x"), ("--samples", "2.5"),
                                          ("--tol", "x")])
def test_malformed_number_error_names_no_helper(capsys, option, text):
    code, out, err = run_cli(capsys, "verify", "all", option, text)
    assert code == 2
    assert out == ""
    assert option in err and repr(text) in err
    assert "_sample_count" not in err and "_positive_float" not in err


_MATRIX = '{"a": [1.25, 0, 0, 0], "c": [0, 0.75, 0, 0], "b": [0, -0.75, 0, 0], "d": [1.25, 0, 0, 0]}'

# (argv, {format flag: exact stdout}) on inputs whose results are exact or
# correctly rounded, so every byte is platform independent
_PINNED_OUTPUTS = [
    (("star", "--f", "q - i", "--g", "q - j"), {
        "": "q^2 + q*(-i-j) + k\n",
        "--json": '{"coeffs": [[0.0, 0.0, 0.0, 1.0], [0.0, -1.0, -1.0, 0.0], '
                  '[1.0, 0.0, 0.0, 0.0]]}\n',
        "--csv": "power,w,x,y,z\n0,0.0,0.0,0.0,1.0\n1,0.0,-1.0,-1.0,0.0\n"
                 "2,1.0,0.0,0.0,0.0\n"}),
    (("eval", "--f", "q^2", "--at", "i"), {
        "": "-1\n",
        "--json": "[-1.0, 0.0, 0.0, 0.0]\n",
        "--csv": "w,x,y,z\n-1.0,0.0,0.0,0.0\n"}),
    (("quotient", "--den", "q - i", "--num", "q - j", "--at", "2", "--route", "both"), {
        "": "direct    = 0.8+0.4i-0.4j-0.2k\ntransform = 0.8+0.4i-0.4j-0.2k\n"
            "gap       = 0.000e+00\n",
        "--json": '{"direct": [0.8, 0.4, -0.4, -0.2], "gap": 0.0, '
                  '"transform": [0.8, 0.4, -0.4, -0.2]}\n',
        "--csv": "route,w,x,y,z\ndirect,0.8,0.4,-0.4,-0.2\n"
                 "transform,0.8,0.4,-0.4,-0.2\n"}),
    (("quotient", "--den", "q - i", "--num", "q - j", "--at", "2", "--route", "direct"), {
        "": "0.8+0.4i-0.4j-0.2k\n",
        "--json": "[0.8, 0.4, -0.4, -0.2]\n",
        "--csv": "w,x,y,z\n0.8,0.4,-0.4,-0.2\n"}),
    (("quotient", "--den", "q - i", "--num", "q - j", "--at", "2", "--route", "transform"), {
        "": "0.8+0.4i-0.4j-0.2k\n",
        "--json": "[0.8, 0.4, -0.4, -0.2]\n",
        "--csv": "w,x,y,z\n0.8,0.4,-0.4,-0.2\n"}),
    (("mobius", "--q0", "0.5i", "--at", "0.5j"), {
        "": "-0.4i+0.4j\n",
        "--json": "[0.0, -0.4, 0.4, 0.0]\n",
        "--csv": "w,x,y,z\n0.0,-0.4,0.4,0.0\n"}),
    (("mobius", "--q0", "0.5i", "--at", "0.5j", "--classical"), {
        "": "-0.5882352941176471i+0.3529411764705882j\n",
        "--json": "[0.0, -0.5882352941176471, 0.3529411764705882, 0.0]\n",
        "--csv": "w,x,y,z\n0.0,-0.5882352941176471,0.3529411764705882,0.0\n"}),
    (("expand", "--f", "q^2", "--center", "0.5i", "--nmax", "1"), {
        "": "A_0 = -0.25\nA_1 = 0\nA_2 = 1\nA_3 = 0\n",
        "--json": '{"center": [0.0, 0.5, 0.0, 0.0], "coefficients": [[-0.25, 0.0, 0.0, 0.0], '
                  '[0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]}\n',
        "--csv": "index,w,x,y,z\n0,-0.25,0.0,0.0,0.0\n1,0.0,0.0,0.0,0.0\n"
                 "2,1.0,0.0,0.0,0.0\n3,0.0,0.0,0.0,0.0\n"}),
    (("normal-form", "--q0", "0.6i", "--u", "1"), {
        "": "a = 1.25\nc = 0.75i\nb = -0.75i\nd = 1.25\n",
        "--json": '{"a": [1.25, 0.0, 0.0, 0.0], "b": [-0.0, -0.75, -0.0, -0.0], '
                  '"c": [-0.0, 0.75, 0.0, 0.0], "d": [1.25, 0.0, 0.0, 0.0]}\n',
        "--csv": "entry,w,x,y,z\na,1.25,0.0,0.0,0.0\nc,-0.0,0.75,0.0,0.0\n"
                 "b,-0.0,-0.75,-0.0,-0.0\nd,1.25,0.0,0.0,0.0\n"}),
    (("normal-form", "--matrix", _MATRIX), {
        "": "q0 = 0.6000000000000001i\nu  = 1\n",
        "--json": '{"q0": [-0.0, 0.6000000000000001, 0.0, 0.0], "u": [1.0, 0.0, 0.0, 0.0]}\n',
        "--csv": "part,w,x,y,z\nq0,-0.0,0.6000000000000001,0.0,0.0\nu,1.0,0.0,0.0,0.0\n"}),
]


def _library_outputs():
    """Expected stdout of the commands whose values go through libm or sampling."""
    from srq.geometry import poincare_distance
    from srq.quaternion import Quaternion
    from srq.verify import DEFAULT_TOL, run_all, run_suite

    d = poincare_distance(Quaternion(0), Quaternion(0.5))
    yield ("distance", "0", "0.5"), {
        "": f"{d!r}\n", "--json": json.dumps({"distance": d}) + "\n",
        "--csv": f"distance\n{d!r}\n"}

    def rows(reports):
        return "".join(f"{r['suite']},{r['seed']},{r['samples']},{r['pass']},"
                       f"{r['worst_margin']!r}\n" for r in reports)

    def line(r, width):
        return (f"{r['suite']:<{width}} {'PASS' if r['pass'] else 'FAIL'}  "
                f"samples={r['samples']} worst_margin={r['worst_margin']:.3e}\n")

    doc = run_all(1, 10, DEFAULT_TOL)
    yield ("verify", "all", "--seed", "1", "--samples", "10"), {
        "": "".join(line(r, 18) for r in doc["suites"]) + f"{'overall':<18} PASS\n",
        "--json": json.dumps(doc, sort_keys=True) + "\n",
        "--csv": "suite,seed,samples,pass,worst_margin\n" + rows(doc["suites"])}
    one = run_suite("zero-case", 1, 10, DEFAULT_TOL).to_json_dict()
    yield ("verify", "zero-case", "--seed", "1", "--samples", "10"), {
        "": line(one, 0), "--json": json.dumps(one, sort_keys=True) + "\n",
        "--csv": "suite,seed,samples,pass,worst_margin\n" + rows([one])}


@pytest.mark.parametrize("argv, outputs", [
    pytest.param(argv, outputs, id=" ".join(argv))
    for argv, outputs in _PINNED_OUTPUTS + list(_library_outputs())])
@pytest.mark.parametrize("flag", ["", "--json", "--csv"], ids=["pretty", "json", "csv"])
def test_every_command_output_is_pinned(capsys, argv, outputs, flag):
    code, out, err = run_cli(capsys, *argv, *([flag] if flag else []))
    assert (code, err) == (0, "")
    assert out == outputs[flag]


def test_quaternion_argument_with_split_digits_exits_2(capsys):
    # "1 5" used to be read as 15, and "0.1 2" as 0.12
    code, out, _ = run_cli(capsys, "eval", "--f", "q", "--at", "1 5")
    assert (code, out) == (2, "")
    code, out, _ = run_cli(capsys, "distance", "0.1 2", "0")
    assert (code, out) == (2, "")


def test_json_and_csv_together_is_a_usage_error(capsys):
    code, out, err = run_cli(capsys, "star", "--f", "q", "--g", "q", "--json", "--csv")
    assert code == 2
    assert out == ""
    assert "--json" in err and "--csv" in err


# quaternion arguments share the polynomial grammar, so an overflow anywhere in
# a text exits 2 as a malformed text does; a literal with an operator or a
# repeated sign exits 0 and prints its value, and one with q exits 2
@pytest.mark.parametrize("argv, code, message", [
    pytest.param(("distance", "1e400", "0"), 2, "error", id="text"),
    pytest.param(("distance", "[1e400,0,0,0]", "0"), 2, "error", id="json"),
    pytest.param(("eval", "--f", "1e400*q", "--at", "0"), 2, "error", id="expression"),
    pytest.param(("eval", "--f", "1e308+1e308", "--at", "0"), 2, "overflows", id="sum"),
    pytest.param(("eval", "--f", "(1e200*q)^2", "--at", "0"), 2, "overflows", id="power"),
    pytest.param(("eval", "--f", "q", "--at", "q"), 2, "cannot depend on q", id="q"),
    pytest.param(("eval", "--f", "q", "--at", "2i*3"), 0, "6i", id="product-literal"),
    pytest.param(("mobius", "--q0", "(0.5i)", "--at", "0.5j"), 0, "-0.4i+0.4j",
                 id="parenthesized-literal"),
    pytest.param(("eval", "--f", "q", "--at=--1"), 0, "1", id="double-sign-literal"),
])
def test_overflowing_literal_exits_2(capsys, argv, code, message):
    got, out, err = run_cli(capsys, *argv)
    assert got == code
    assert message in err if code else (out, err) == (message + "\n", "")


def test_valid_tolerance_reaches_the_suite(capsys):
    from srq.verify import run_suite

    code, out, _ = run_cli(capsys, "verify", "schwarz-pick", "--seed", "3", "--samples", "50",
                           "--tol", "1e-6", "--json")
    assert code == 0
    want = run_suite("schwarz-pick", 3, 50, tol=1e-6).to_json_dict()
    assert out == json.dumps(want, sort_keys=True) + "\n"


# a JSON quaternion holds JSON numbers only: a string or a boolean entry used to
# be coerced by float() ("1_0" read as 10, true as 1), and an integer too large
# for a float ended in an OverflowError traceback
_HUGE_INT = "1" + "0" * 400


def _matrix_with_d(entry):
    return '{"a":[1,0,0,0],"c":[0,0,0,0],"b":[0,0,0,0],"d":[%s,0,0,0]}' % entry


@pytest.mark.parametrize("argv", [
    pytest.param(("distance", '["1_0",0,0,0]', "0"), id="underscore-string"),
    pytest.param(("distance", '[" 4 ",0,0,0]', "0"), id="padded-string"),
    pytest.param(("distance", "[true,0,0,0]", "0"), id="boolean"),
    pytest.param(("distance", "[null,0,0,0]", "0"), id="null"),
    pytest.param(("eval", "--f", "q", "--at", "[%s,0,0,0]" % _HUGE_INT), id="overflowing-int"),
    pytest.param(("eval", "--f", "q", "--at", "[1%s,0,0,0]" % ("0" * 5000)),
                 id="int-beyond-the-digit-limit"),
    pytest.param(("normal-form", "--matrix", _matrix_with_d('"1"')), id="matrix-string"),
    pytest.param(("normal-form", "--matrix", _matrix_with_d("false")), id="matrix-boolean"),
    pytest.param(("normal-form", "--matrix", _matrix_with_d(_HUGE_INT)),
                 id="matrix-overflowing-int"),
])
def test_json_quaternion_entries_must_be_finite_numbers(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_json_quaternion_integers_are_numbers(capsys):
    code, out, _ = run_cli(capsys, "normal-form", "--matrix", _matrix_with_d("1"))
    assert (code, out) == (0, "q0 = 0\nu  = 1\n")
    code, out, _ = run_cli(capsys, "distance", "[0, 0.5, 0, 0]", "0")
    assert code == 0
