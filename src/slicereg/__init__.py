"""Slice-regular quaternionic function arithmetic and numerical
verification of the four-dimensional Jensen formula."""

from .quaternions import I, J, K, ONE, ZERO, Quaternion, decompose
from .slicepoly import (
    SlicePolynomial,
    log_abs,
    normal,
    slice_product,
    spherical_derivative,
    spherical_value,
)
from .zeros_poles import (
    PoleRecord,
    SemiregularFunction,
    ZeroRecord,
    characteristic_poly,
    classify_zeros,
    pole_structure,
    total_multiplicity,
    zero_spheres,
)
from .quadrature import (
    SphereQuadratureRule,
    boundary_means,
    build_rule,
    circular_reduction,
)
from .jensen import JensenReport, delta4_logNf_at0, jensen_check, pole_sum, zero_sum

__version__ = "0.1.0"

__all__ = [
    "Quaternion",
    "ZERO",
    "ONE",
    "I",
    "J",
    "K",
    "decompose",
    "SlicePolynomial",
    "slice_product",
    "normal",
    "spherical_value",
    "spherical_derivative",
    "log_abs",
    "ZeroRecord",
    "PoleRecord",
    "SemiregularFunction",
    "characteristic_poly",
    "zero_spheres",
    "classify_zeros",
    "total_multiplicity",
    "pole_structure",
    "SphereQuadratureRule",
    "build_rule",
    "circular_reduction",
    "boundary_means",
    "JensenReport",
    "delta4_logNf_at0",
    "zero_sum",
    "pole_sum",
    "jensen_check",
]
