"""Quaternion arithmetic, slice decomposition, and parsing."""

import copy
import math
import pickle
import random
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from srq.errors import ParseError
from srq.expression import parse_quaternion
from srq.fractional import QuaternionMatrix2, from_normal_form, normal_form
from srq.geometry import geodesic
from srq.quaternion import (I, J, K, ONE, ZERO, Quaternion, _Frozen, _make, _slice_point,
                            as_quaternion)
from srq.rational import RegularQuotient, sphere_zero_set
from srq.series import RegularPolynomial
from srq.verify import _SUITES, run_suite
from srq.zeros import ZeroEntry


def rand_quat(rng, scale=1.0):
    return Quaternion(rng.uniform(-scale, scale), rng.uniform(-scale, scale),
                      rng.uniform(-scale, scale), rng.uniform(-scale, scale))


def test_hamilton_table():
    assert I * J == K
    assert J * K == I
    assert K * I == J
    assert J * I == -K
    assert I * I == -ONE
    assert J * J == -ONE
    assert K * K == -ONE
    assert I * J * K == -ONE


def test_bilinear_expansion():
    assert (ONE + I) * (ONE + J) == Quaternion(1, 1, 1, 1)


def test_inverse_examples():
    q = Quaternion(2, 1)
    assert (q * q.inverse()).isclose(ONE)
    assert I.inverse() == -I
    assert Quaternion(2).inverse() == Quaternion(0.5)
    # (i+j)(-i-j)/2 = 1 by direct Hamilton expansion
    inv = (I + J).inverse()
    assert inv.isclose(Quaternion(0, -0.5, -0.5, 0))
    assert ((I + J) * inv).isclose(ONE)


def test_inverse_refuses_near_zero():
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()
    with pytest.raises(ZeroDivisionError):
        Quaternion(1e-14).inverse()


def test_modulus():
    assert Quaternion(3, 4).norm() == 5.0
    p = ONE + I
    q = Quaternion(2) + J
    assert math.isclose(abs(p * q), math.sqrt(2) * math.sqrt(5), rel_tol=1e-12)


def test_conjugate():
    q = Quaternion(1, 1, 1, 1)
    assert q.conjugate() == Quaternion(1, -1, -1, -1)
    assert q.conjugate().conjugate() == q
    assert math.isclose(q.norm_sq(), 4.0)


def test_slice_decompose_examples():
    sc = Quaternion(1, 2).slice_decompose()
    assert sc.x0 == 1 and sc.y0 == 2 and sc.I == I

    sc = Quaternion(3).slice_decompose()
    assert sc.x0 == 3 and sc.y0 == 0 and sc.I == I

    sc = Quaternion(1, 1, 1).slice_decompose()
    assert math.isclose(sc.y0, math.sqrt(2), rel_tol=1e-15)
    assert sc.I.isclose((I + J) / math.sqrt(2))
    assert sc.reconstruct().isclose(Quaternion(1, 1, 1), abs_tol=1e-15)


def test_slice_decompose_near_real_no_snapping():
    q = Quaternion(0.5, 1e-13)
    sc = q.slice_decompose()
    assert sc.y0 == 1e-13
    assert sc.I == I
    assert sc.reconstruct().isclose(q, abs_tol=1e-20)


def test_unit_axis_squares_to_minus_one():
    rng = random.Random(11)
    for _ in range(50):
        q = rand_quat(rng)
        sc = q.slice_decompose()
        assert (sc.I * sc.I).isclose(-ONE, abs_tol=1e-12)
        assert sc.y0 >= 0.0
        assert sc.reconstruct().isclose(q, abs_tol=1e-12)


def test_product_properties():
    rng = random.Random(5)
    for _ in range(100):
        p, q, r = rand_quat(rng, 2), rand_quat(rng, 2), rand_quat(rng, 2)
        assert ((p * q) * r).isclose(p * (q * r), rel_tol=1e-12)
        assert math.isclose(abs(p * q), abs(p) * abs(q), rel_tol=1e-12)
        # real parts of pq and qp agree
        assert math.isclose((p * q).w, (q * p).w, rel_tol=1e-11, abs_tol=1e-13)


def test_distributivity():
    rng = random.Random(6)
    for _ in range(50):
        p, q, r = rand_quat(rng), rand_quat(rng), rand_quat(rng)
        assert (p * (q + r)).isclose(p * q + p * r, rel_tol=1e-12, abs_tol=1e-14)


def test_rejects_non_finite():
    with pytest.raises(ValueError):
        Quaternion(float("nan"))
    with pytest.raises(ValueError):
        Quaternion(0, float("inf"))


def test_parse_text_forms():
    assert parse_quaternion("1+2i+3j+4k") == Quaternion(1, 2, 3, 4)
    assert parse_quaternion("0.5i") == Quaternion(0, 0.5)
    assert parse_quaternion("-i+2") == Quaternion(2, -1)
    assert parse_quaternion("2") == Quaternion(2)
    assert parse_quaternion(" 1 - 0.25k ") == Quaternion(1, 0, 0, -0.25)
    assert parse_quaternion("1e-2i") == Quaternion(0, 0.01)
    assert parse_quaternion("[1, 2, 3, 4]") == Quaternion(1, 2, 3, 4)


def test_parse_rejects_garbage():
    for bad in ("", "1+", "x", "1i2", "[1,2]", "[1,2,3,\"a\"]", "++", "1..2"):
        with pytest.raises(ParseError):
            parse_quaternion(bad)


@pytest.mark.parametrize("text", ["1 2", "1e 3", "1 2i", "0.5 i", "1 + 2 i", "- 1 2"])
def test_parse_refuses_whitespace_inside_a_term(text):
    # removing the spaces first read "1 2" as 12 and "1e 3" as 1000
    with pytest.raises(ParseError):
        parse_quaternion(text)


@pytest.mark.parametrize("text, value", [("1 + 2i", Quaternion(1, 2)),
                                         ("1 +2i", Quaternion(1, 2)),
                                         ("1+ 2i", Quaternion(1, 2)),
                                         ("- 0.5j", Quaternion(0, 0, -0.5)),
                                         ("\t1 - k\n", Quaternion(1, 0, 0, -1))])
def test_parse_allows_whitespace_around_signs(text, value):
    assert parse_quaternion(text) == value


def test_str_parse_roundtrip():
    rng = random.Random(9)
    for _ in range(40):
        q = rand_quat(rng, 3)
        assert parse_quaternion(str(q)).isclose(q, abs_tol=1e-15)
    assert str(ZERO) == "0"
    assert str(-I) == "-i"
    assert str(Quaternion(1, -1)) == "1-i"


def test_json_roundtrip():
    q = Quaternion(1.5, -2, 0.25, 3)
    assert Quaternion.from_json(q.to_json()) == q
    with pytest.raises(ParseError):
        Quaternion.from_json([1, 2, 3])


@pytest.mark.parametrize("entry", ["1", "1_0", True, False, None, [1], 10 ** 400],
                         ids=["string", "underscore-string", "true", "false", "null", "list",
                              "overflowing-int"])
def test_json_entries_are_numbers_only(entry):
    with pytest.raises(ParseError):
        Quaternion.from_json([0, entry, 0, 0])
    with pytest.raises(ParseError):
        RegularPolynomial.from_json({"coeffs": [[1, 0, 0, 0], [0, 0, entry, 0]]})
    assert Quaternion.from_json([1, 2.5, -3, 0]) == Quaternion(1, 2.5, -3)


def test_real_quaternion_hashes_like_its_float():
    # equal objects must hash equally, or sets and dicts hold both
    for x in (1, 0.5, -2.0, 0.0):
        assert Quaternion(x) == x
        assert hash(Quaternion(x)) == hash(x)
    assert len({Quaternion(1), 1}) == 1
    assert len({Quaternion(1, 2), Quaternion(1.0, 2.0)}) == 1


# -- the internal constructor ------------------------------------------------------

any_float = st.floats(allow_nan=True, allow_infinity=True)
finite = st.floats(min_value=-1e150, max_value=1e150)
quats = st.builds(Quaternion, finite, finite, finite, finite)


def bits(q):
    # float.hex tells -0.0 from 0.0, which == does not
    return tuple(c.hex() for c in (q.w, q.x, q.y, q.z))


@given(any_float, any_float, any_float, any_float)
def test_make_checks_finiteness_exactly_like_the_public_constructor(w, x, y, z):
    finite_input = all(math.isfinite(c) for c in (w, x, y, z))
    if finite_input:
        assert bits(_make(w, x, y, z)) == bits(Quaternion(w, x, y, z))
    else:
        with pytest.raises(ValueError):
            _make(w, x, y, z)
        with pytest.raises(ValueError):
            Quaternion(w, x, y, z)


@given(quats, quats)
def test_hamilton_product_matches_its_formula_bit_for_bit(p, q):
    expected = Quaternion(p.w * q.w - p.x * q.x - p.y * q.y - p.z * q.z,
                          p.w * q.x + p.x * q.w + p.y * q.z - p.z * q.y,
                          p.w * q.y - p.x * q.z + p.y * q.w + p.z * q.x,
                          p.w * q.z + p.x * q.y - p.y * q.x + p.z * q.w)
    assert bits(p * q) == bits(expected)
    assert bits(p + q) == bits(Quaternion(p.w + q.w, p.x + q.x, p.y + q.y, p.z + q.z))
    assert bits(p - q) == bits(Quaternion(p.w - q.w, p.x - q.x, p.y - q.y, p.z - q.z))


def test_arithmetic_overflow_raises():
    big = Quaternion(1e300, 1e300, 1e300, 1e300)
    with pytest.raises(ValueError):
        big * big
    with pytest.raises(ValueError):
        Quaternion(1.5e308) + Quaternion(1.5e308)
    with pytest.raises(ValueError):
        big * 1e10


def test_components_stay_python_floats():
    scale = np.float64(0.5)
    q = Quaternion(1, 2, 3, 4)
    results = [q * scale, scale * q, q + scale, q - scale, 1 - q, q / scale, q * 2, q + True,
               q.inverse(), q.conjugate(), -q, q.imag()]
    for r in results:
        assert all(type(c) is float for c in (r.w, r.x, r.y, r.z)), repr(r)
    assert repr(q * scale) == "Quaternion(0.5, 1.0, 1.5, 2.0)"
    assert str(q * scale) == "0.5+i+1.5j+2k"


def test_arithmetic_results_are_immutable():
    for r in (I * J, ONE + I, -J, K.inverse(), Quaternion(1, 2).conjugate()):
        with pytest.raises(AttributeError):
            r.w = 3.0
        with pytest.raises(AttributeError):
            del r.x
    q = I * J
    assert q == K


_P = RegularPolynomial([ONE, I])
_FROZEN = [(Quaternion(1, 2, 3, 4), "w"),
           (_P, "coeffs"),
           (_P.spherical_expansion(I * 0.5, 1), "x0"),
           (RegularQuotient(_P, RegularPolynomial([J])), "sym"),
           (QuaternionMatrix2.identity(), "a"),
           (geodesic(ZERO, I * 0.5), "_image"),
           (Quaternion(1, 2, 3, 4).slice_decompose(), "y0"),
           (ZeroEntry(1.0, 0.0, 2), "x"),
           (RegularQuotient(RegularPolynomial([ONE, ZERO, ONE]), ONE).sphere_zero_set(), "entries"),
           (normal_form(QuaternionMatrix2.identity()), "u"),
           (run_suite("zero-case", 1, 10), "passed"),
           (_SUITES["zero-case"], "build")]


@pytest.mark.parametrize("value, attr", _FROZEN, ids=[type(v).__name__ for v, _ in _FROZEN])
def test_value_classes_refuse_assignment_and_deletion(value, attr):
    before = repr(value)
    with pytest.raises(AttributeError, match="is immutable"):
        setattr(value, attr, ONE)
    with pytest.raises(AttributeError, match="is immutable"):
        delattr(value, attr)
    assert repr(value) == before


@pytest.mark.parametrize("value", [v for v, _ in _FROZEN], ids=[type(v).__name__ for v, _ in _FROZEN])
def test_value_classes_pickle_and_copy(value):
    # slot state is restored past the refusing __setattr__
    copies = [pickle.loads(pickle.dumps(value, protocol))
              for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(value), copy.deepcopy(value)]
    for other in copies:
        assert type(other) is type(value)
        assert other == value
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(other, type(value).__slots__[0], ONE)


def test_every_value_class_is_frozen():
    assert all(isinstance(value, _Frozen) for value, _ in _FROZEN)


def test_record_repr_equality_and_arity():
    entry = ZeroEntry(1.0, 0.0, 2)
    assert repr(entry) == "ZeroEntry(x=1.0, y=0.0, multiplicity=2)"
    assert entry == ZeroEntry(1.0, 0.0, 2) and hash(entry) == hash(ZeroEntry(1.0, 0.0, 2))
    assert entry != ZeroEntry(1.0, 0.0, 1)
    assert entry != (1.0, 0.0, 2)
    with pytest.raises(TypeError):
        ZeroEntry(1.0, 0.0)
    with pytest.raises(TypeError):
        ZeroEntry(1.0, 0.0, 2, 3)

    class Pair(_Frozen):  # the generic constructor: one positional value per slot
        __slots__ = ("first", "second")

    assert Pair(1, 2) == Pair(1, 2) != Pair(1, 3)
    with pytest.raises(TypeError, match=r"Pair\(first, second\) takes 2 values, got 3"):
        Pair(1, 2, 3)


def test_value_construction_paths_use_neither_the_generic_init_nor_quaternion_products(
        monkeypatch):
    # zero sets, expansions and normal forms fill their slots through member
    # descriptors and multiply float 4-tuples; only their results are values
    f = RegularPolynomial([Quaternion(0.5, 0.1), Quaternion(-0.3, 0.2, 0.4), ONE])
    q0, q, u = Quaternion(0.2, 0.3, -0.1, 0.4), Quaternion(0.1, -0.5, 0.2), Quaternion(0.6, 0.0, 0.8)
    calls = []

    def counting(name, original):
        def spy(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return spy

    monkeypatch.setattr(_Frozen, "__init__", counting("_Frozen.__init__", _Frozen.__init__))
    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(Quaternion, name, counting(name, getattr(Quaternion, name)))
    zero_set = sphere_zero_set(f)
    expansion = f.spherical_expansion(q0, 2)
    value = expansion.evaluate(q)
    form = normal_form(from_normal_form(q0, u))
    assert calls == []
    assert len(zero_set) == 2 and value.isclose(f.evaluate(q), rel_tol=1e-12)
    assert form.q0.isclose(q0) and form.u.isclose(u)


def test_the_public_constructor_coerces_and_refuses_as_before():
    q = Quaternion(np.float64(0.5), 2, True, "1.5")
    assert [type(c) for c in q.to_json()] == [float] * 4 and q.to_json() == [0.5, 2.0, 1.0, 1.5]
    with pytest.raises(ValueError, match=r"^non-finite quaternion component in \(1.0, nan, 0.0, -inf\)$"):
        Quaternion(1, float("nan"), 0, float("-inf"))
    with pytest.raises(OverflowError):
        Quaternion(10 ** 400)
    with pytest.raises(TypeError):
        Quaternion(1, 2, 3, 4, 5)


scalar_component = st.floats(min_value=-1e6, max_value=1e6)


@given(st.builds(Quaternion, scalar_component, scalar_component, scalar_component,
                 scalar_component),
       st.one_of(scalar_component, st.integers(min_value=-10**6, max_value=10**6)))
def test_scalar_product_is_the_same_from_either_side(q, s):
    left, right = s * q, q * s
    assert type(left) is Quaternion
    assert [c.hex() for c in left.to_json()] == [c.hex() for c in right.to_json()]


def test_norm_of_a_huge_quaternion_does_not_overflow():
    assert Quaternion(1e200).norm() == 1e200
    assert Quaternion(0.0, 3e200, 0.0, 4e200).norm() == pytest.approx(5e200, rel=1e-15)
    assert abs(Quaternion(-1e300)) == 1e300


def test_inverse_of_a_huge_quaternion_is_not_zero():
    inv = Quaternion(1e200).inverse()
    assert math.isclose(inv.w, 1e-200, rel_tol=1e-15)  # not 0
    q = Quaternion(1e200, 2e200, -3e200, 4e200)
    assert (q * q.inverse()).isclose(ONE, rel_tol=1e-14)
    with pytest.raises(ZeroDivisionError):
        Quaternion(1e308, 1e308, 1e308, 1e308).inverse()  # |q| itself overflows


def test_norm_of_a_tiny_quaternion_does_not_underflow():
    # the squares of 1e-170 are below the smallest double, so |q|^2 reads 0
    assert Quaternion(3e-170, 4e-170).norm() == pytest.approx(5e-170, rel=1e-15)
    assert Quaternion(1e-170).norm() == 1e-170
    assert Quaternion(0.0, 1e-170, 0.0, 0.0).imag_norm() == 1e-170
    assert Quaternion(0.0, 0.0, 3e-170, 4e-170).imag_norm() == pytest.approx(5e-170, rel=1e-15)
    assert Quaternion(0.0, 3e200, 4e200).imag_norm() == pytest.approx(5e200, rel=1e-15)
    assert ZERO.norm() == 0.0 and ZERO.imag_norm() == 0.0


def test_tiny_imaginary_part_is_not_a_real_point():
    coords = Quaternion(0.5, 1e-170).slice_decompose()
    assert coords.y0 == 1e-170
    assert coords.I == I
    coords = Quaternion(0.5, 0.0, 1e-170, 0.0).slice_decompose()
    assert (coords.y0, coords.I) == (1e-170, J)  # not the real-point axis i


def test_inverse_of_a_tiny_quaternion_reports_its_modulus():
    with pytest.raises(ZeroDivisionError, match=r"\|q\| = 3e-170"):
        Quaternion(3e-170).inverse()


@pytest.mark.parametrize("text", ["1e400", "-2e999i", "1e308+1e308", "[1e400, 0, 0, 0]"])
def test_overflowing_literal_is_a_parse_error(text):
    with pytest.raises(ParseError):
        parse_quaternion(text)


def three_component_norm(x, y, z):
    # the rule imag_norm wrote out before it shared norm()'s helper
    n2 = x * x + y * y + z * z
    if sys.float_info.min <= n2 < math.inf:
        return math.sqrt(n2)
    return math.hypot(x, y, z)


wide = st.one_of(st.floats(min_value=-1e-150, max_value=1e-150),
                 st.floats(min_value=-1.7e308, max_value=1.7e308),
                 st.sampled_from([0.0, -0.0, 5e-324, -5e-324]))


@given(wide, wide, wide, wide)
def test_imag_norm_is_the_shared_norm_with_a_zero_real_part_bit_for_bit(w, x, y, z):
    q = Quaternion(w, x, y, z)
    assert q.imag_norm().hex() == three_component_norm(x, y, z).hex()
    assert q.imag_norm().hex() == Quaternion(0.0, x, y, z).norm().hex()


@given(wide, wide, st.tuples(wide, wide, wide, wide))
@example(-0.0, 0.0, (-0.0, -0.0, 0.0, -0.0))
@example(0.0, -1e300, (1e-300, -0.6, 0.0, 0.8))
@example(1.5, 2.0, (-1.0, 0.0, 0.0, 0.0))
def test_slice_point_is_the_slice_sum_bit_for_bit(x, y, axis):
    # _slice_point(x, y, I) replaces Quaternion(x) + I * y at every slice lift
    I_ = _make(*axis)
    try:
        want = Quaternion(x) + I_ * y
    except ValueError:  # a component overflowed
        with pytest.raises(ValueError):
            _slice_point(x, y, I_)
        return
    assert bits(_slice_point(x, y, I_)) == bits(want)


def test_as_quaternion_reads_a_four_sequence_and_refuses_other_input():
    assert bits(as_quaternion([1, 2, 3, 4])) == bits(Quaternion(1.0, 2.0, 3.0, 4.0))
    assert as_quaternion((0.5, -0.0, 0, 1e-300)) == Quaternion(0.5, 0.0, 0.0, 1e-300)
    for value in ("1", [1, 2, 3], (1, 2, 3, 4, 5), None, {"w": 1}):
        with pytest.raises(TypeError, match="cannot interpret"):
            as_quaternion(value)
