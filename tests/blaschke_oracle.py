"""Blaschke regularization of semiregular functions: the oracle of the
semiregular formula.

The paper extends the Jensen formula to f = den^{-1} * num by multiplying
f with a Blaschke product g that has modulus 1 on the boundary sphere and
a zero at every pole of f, so that h = g * f is regular on the closed
ball.  ``jensen_check`` never builds g or h: it reads the poles' orders
off ``zeros_poles.analyze`` and adds their corrections directly.  The
tests use ``regularize`` as the independent route: |h| = |f| on the
boundary, and the formula must close for h as it does for f.  No
command runs this module.
"""

from __future__ import annotations

import math

import numpy as np

from slicereg.errors import ClassificationInconsistencyError, PoleOnBoundaryError, SliceRegError
from slicereg.quaternions import Quaternion, split, to_parts
from slicereg.slicepoly import SlicePolynomial, horner, slice_product
from slicereg.zeros_poles import TOL_DIVIDE, SemiregularFunction, analyze, on_boundary, root_spheres

from kernel_oracles import numpy_divide


class InvalidPoleError(SliceRegError):
    """Blaschke factor requested for a pole outside its admissible range."""


class PoleOutsideRegionError(SliceRegError):
    """Regularization requires every pole inside the ball."""


def divide_rows(p: SlicePolynomial, d) -> tuple[SlicePolynomial, SlicePolynomial]:
    """``numpy_divide`` of p's quaternion rows by the monic real d; quotient and remainder as polynomials."""
    q, rem = numpy_divide(np.reshape(p.coeffs, (-1, 4)), d)
    return SlicePolynomial(map(Quaternion.from_array, q)), SlicePolynomial(map(Quaternion.from_array, rem))


def evaluate(f: SemiregularFunction, x: Quaternion) -> Quaternion:
    """Oracle: den(x)^{-1} num(x); den is real, so den(alpha + J beta) = Re d + J Im d, d = den(alpha + i beta)."""
    alpha, beta, unit = split(x.pair())
    d = horner(f.den, complex(alpha, beta))
    return Quaternion(d.real, *(float(u) * d.imag for u in to_parts(unit)[1:])).inverse() * f.num.eval(x)


def unreduced(den: np.ndarray, num: SlicePolynomial) -> SemiregularFunction:
    """den^{-1} num as given, for monic real coefficients den coprime to num
    by construction, with den's root spheres.  The constructor's reduction
    tests coprimality at TOL_DIVIDE, which at small r cancels a Blaschke
    factor whose base point is near the boundary but outside its band."""
    f = object.__new__(SemiregularFunction)
    object.__setattr__(f, "den", den)
    object.__setattr__(f, "num", num)
    object.__setattr__(f, "den_spheres", tuple(root_spheres(den)))
    return f


def blaschke_real(p: float, r: float) -> SemiregularFunction:
    """Oracle: reciprocal r-Blaschke factor -(x - r^2/p)^{-1} (x - p) r/p.

    Slice-preserving, modulus 1 on the boundary sphere of radius r,
    vanishing at p, with its pole at r^2/p outside the closed ball.
    """
    if not 0.0 < abs(p) < r:
        raise InvalidPoleError(f"real Blaschke base point needs 0 < |p| < r, got p={p}, r={r}")
    den = np.array([-r * r / p, 1.0])
    num = SlicePolynomial.from_real([r, -r / p])
    return unreduced(den, num)


def blaschke_spherical(b: Quaternion, r: float) -> SemiregularFunction:
    """Oracle: reciprocal normal Blaschke factor
    Delta_{r^2 b^{-1}}^{-1} Delta_b r^2/|b|^2."""
    nb = b.norm2()
    if not 0.0 < math.sqrt(nb) < r:
        raise InvalidPoleError(f"spherical Blaschke base point needs 0 < |b| < r, got |b|={math.sqrt(nb)}, r={r}")
    if split(b.pair())[1] == 0.0:
        raise InvalidPoleError("spherical Blaschke base point must be nonreal")
    tb = b.trace()
    den = np.array([r**4 / nb, -r * r * tb / nb, 1.0])
    num = SlicePolynomial.from_real([r * r, -tb * r * r / nb, r * r / nb])
    return unreduced(den, num)


def regularize(f: SemiregularFunction, r: float) -> tuple[SemiregularFunction, SemiregularFunction]:
    """Oracle: Blaschke product g matching every pole of f, and h = g * f.

    h has no poles on a neighbourhood of the closed ball (its remaining
    denominator roots are the Blaschke reflections outside).  Poles of f
    on the boundary raise PoleOnBoundaryError; poles outside the ball
    raise PoleOutsideRegionError instead of being silently ignored.
    """
    if len(f.den) == 1:
        return SlicePolynomial.from_real([1.0]), f
    poles = analyze(f, math.inf).poles
    for rec in poles:
        rad = rec.point_radius
        if on_boundary(rad, r):
            raise PoleOnBoundaryError(f"pole sphere at radius {rad:.12g} sits on the boundary r={r}")
        if rad > r:
            raise PoleOutsideRegionError(
                f"pole sphere at radius {rad:.12g} lies outside the ball r={r}; shrink r"
            )
    g_den = np.array([1.0])
    g_num = SlicePolynomial.from_real([1.0])
    for rec in poles:
        if rec.kind == "real":
            fac = blaschke_real(rec.alpha, r)
            power = rec.order
        else:
            fac = blaschke_spherical(rec.representative, r)
            power = rec.spherical_order // 2
        for _ in range(power):
            g_den = np.convolve(g_den, fac.den)
            g_num = slice_product(g_num, fac.num)
    g = unreduced(g_den, g_num)
    # h = (g_den f_den)^{-1} (g_num f_num); f_den divides g_num f_num by
    # construction, so divide it out explicitly rather than re-detecting.
    h_num_full = slice_product(g_num, f.num)
    h_num, rem = divide_rows(h_num_full, f.den)
    if rem.coefficient_scale() > TOL_DIVIDE * max(h_num_full.coefficient_scale(), 1e-300):
        raise ClassificationInconsistencyError(
            "Blaschke numerator failed to cancel the denominator poles"
        )
    h = unreduced(g_den, h_num)
    return g, h
