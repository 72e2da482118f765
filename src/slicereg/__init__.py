"""Slice-regular quaternionic function arithmetic and numerical
verification of the four-dimensional Jensen formula."""

from .quaternions import I, J, K, ONE, ZERO, Quaternion, decompose, slice_embed
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
    blaschke_real,
    blaschke_spherical,
    characteristic_poly,
    classify_zeros,
    pole_structure,
    regularize,
    total_multiplicity,
    zero_spheres,
)
from .quadrature import (
    SphereQuadratureRule,
    S_map,
    T_map,
    boundary_means,
    build_rule,
    circular_reduction,
)
from .jensen import JensenReport, delta4_logNf_at0, jensen_check, jensen_lhs, pole_sum, zero_sum

__version__ = "0.1.0"

__all__ = [
    "Quaternion",
    "ZERO",
    "ONE",
    "I",
    "J",
    "K",
    "slice_embed",
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
    "blaschke_real",
    "blaschke_spherical",
    "regularize",
    "SphereQuadratureRule",
    "build_rule",
    "circular_reduction",
    "T_map",
    "S_map",
    "boundary_means",
    "JensenReport",
    "delta4_logNf_at0",
    "jensen_lhs",
    "zero_sum",
    "pole_sum",
    "jensen_check",
]
