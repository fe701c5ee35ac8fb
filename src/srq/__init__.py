"""Algebra of quaternionic regular functions and the geometry of the unit ball.

The package provides exact double-precision quaternion arithmetic, regular
polynomials under the star product, regular quotients with two independent
evaluation routes, fractional transformations driven by 2x2 quaternionic
matrices, the hyperbolic geometry of the unit ball, and a deterministic
randomized verification engine exercising the analytic inequalities that tie
all of it together.
"""

from .errors import (CoincidentPoints, DegenerateCenter, DegenerateComposite,
                     DegenerateSwap, DomainError, NonConvergence, NotHermitian,
                     NotSp11, OutsideBall, ParseError, PoleError, RealPoint,
                     SingularMatrix)
from .expression import format_polynomial, parse_polynomial, parse_quaternion
from .fractional import (MoebiusNormalForm, QuaternionMatrix2, classical_fractional,
                         from_normal_form, generator, hermitian_coincidence_check,
                         left_action, left_right_convert, normal_form,
                         regular_fractional, right_action)
from .geometry import (GeodesicSegment, classical_moebius, conformality_defect,
                       geodesic, moebius_expansion_coefficients, poincare_distance,
                       pseudo_distance_sq, regular_moebius, regular_moebius_map,
                       twist_map, twist_map_inverse)
from .quaternion import I, J, K, ONE, ZERO, Quaternion, SliceCoordinates, as_quaternion
from .rational import (RegularQuotient, SphereZeroSet, ZeroEntry, as_quotient,
                       durand_kerner, sphere_zero_set, star_transform,
                       star_transform_inverse, zeros_on_sphere)
from .series import (RegularPolynomial, SphericalExpansion, directional_derivative,
                     evaluate_any, spherical_derivative_at)
from .verify import (VerificationReport, check_modulus_product, check_reg_preservation,
                     check_schwarz_pick, check_slice_regularity, check_zero_case,
                     make_zero_case_map, random_self_map, random_sp11, run_all,
                     run_suite)

__version__ = "0.1.0"

__all__ = [
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
