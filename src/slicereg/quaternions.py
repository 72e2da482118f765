"""Quaternion arithmetic and the slice decomposition of H.

Scalar ground type for the whole package: immutable quaternions
q = w + x1*i + x2*j + x3*k with double-precision components, the
Hamilton product, conjugation/norm/trace, and the embedding
(alpha, beta, J) -> alpha + J*beta of complex half-plane points into
the slice C_J, together with its inverse (`decompose`).

Array code holds quaternions as "parts", 4-tuples of broadcastable
component arrays (``qmul_parts`` and the conjugate, norm and inverse
beside it), so that quadrature-scale workloads stay vectorized; they
implement the same formulas and are cross-checked in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Quaternion",
    "ZERO",
    "ONE",
    "I",
    "J",
    "K",
    "InvalidUnitError",
    "qmul",
    "qinv",
    "unit_from_vector",
    "validate_unit",
    "slice_embed",
    "decompose",
    "SlicePoint",
    "qmul_array",
    "qmul_parts",
]

# Renormalize near-unit imaginary parts instead of rejecting them;
# quadrature nodes are computed, not exact.
EPS_UNIT = 1e-10
UNIT_RENORM_BAND = 1e-6


class InvalidUnitError(ValueError):
    """Quaternion does not satisfy Re(J) = 0, |J| = 1 within tolerance."""


@dataclass(frozen=True, slots=True)
class Quaternion:
    """q = w + x1*i + x2*j + x3*k."""

    w: float = 0.0
    x1: float = 0.0
    x2: float = 0.0
    x3: float = 0.0

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "Quaternion | float") -> "Quaternion":
        o = _coerce(other)
        return Quaternion(self.w + o.w, self.x1 + o.x1, self.x2 + o.x2, self.x3 + o.x3)

    __radd__ = __add__

    def __sub__(self, other: "Quaternion | float") -> "Quaternion":
        o = _coerce(other)
        return Quaternion(self.w - o.w, self.x1 - o.x1, self.x2 - o.x2, self.x3 - o.x3)

    def __rsub__(self, other: "Quaternion | float") -> "Quaternion":
        return _coerce(other).__sub__(self)

    def __neg__(self) -> "Quaternion":
        return Quaternion(-self.w, -self.x1, -self.x2, -self.x3)

    def __mul__(self, other: "Quaternion | float") -> "Quaternion":
        if isinstance(other, (int, float)):
            return Quaternion(self.w * other, self.x1 * other, self.x2 * other, self.x3 * other)
        a0, a1, a2, a3 = self.w, self.x1, self.x2, self.x3
        b0, b1, b2, b3 = other.w, other.x1, other.x2, other.x3
        return Quaternion(
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        )

    def __rmul__(self, other: float) -> "Quaternion":
        # scalar * q with a real scalar; quaternion * quaternion goes through __mul__
        return Quaternion(self.w * other, self.x1 * other, self.x2 * other, self.x3 * other)

    def __truediv__(self, other: float) -> "Quaternion":
        return Quaternion(self.w / other, self.x1 / other, self.x2 / other, self.x3 / other)

    # -- involution and norms ------------------------------------------

    def conj(self) -> "Quaternion":
        return Quaternion(self.w, -self.x1, -self.x2, -self.x3)

    def norm2(self) -> float:
        """n(q) = q * conj(q) = |q|^2."""
        return self.w * self.w + self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3

    def abs(self) -> float:
        return math.sqrt(self.norm2())

    __abs__ = abs

    def trace(self) -> float:
        """t(q) = q + conj(q) = 2 Re(q)."""
        return 2.0 * self.w

    def re(self) -> float:
        return self.w

    def im(self) -> "Quaternion":
        return Quaternion(0.0, self.x1, self.x2, self.x3)

    def abs_im(self) -> float:
        return math.sqrt(self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3)

    def inverse(self) -> "Quaternion":
        n = self.norm2()
        if n <= (1e-13 * (1.0 + self.abs())) ** 2:
            raise ZeroDivisionError("quaternion inverse of (near-)zero value")
        return Quaternion(self.w / n, -self.x1 / n, -self.x2 / n, -self.x3 / n)

    # -- conversions ----------------------------------------------------

    def components(self) -> tuple[float, float, float, float]:
        return (self.w, self.x1, self.x2, self.x3)

    @staticmethod
    def from_array(a) -> "Quaternion":
        w, x1, x2, x3 = (float(v) for v in a)
        return Quaternion(w, x1, x2, x3)

    @staticmethod
    def real(value: float) -> "Quaternion":
        return Quaternion(float(value), 0.0, 0.0, 0.0)

    def isclose(self, other: "Quaternion", tol: float = 1e-12) -> bool:
        return (self - other).abs() <= tol * (1.0 + self.abs() + other.abs())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Quaternion({self.w!r}, {self.x1!r}, {self.x2!r}, {self.x3!r})"


def _coerce(value: "Quaternion | float") -> Quaternion:
    if isinstance(value, Quaternion):
        return value
    return Quaternion(float(value), 0.0, 0.0, 0.0)


ZERO = Quaternion(0.0, 0.0, 0.0, 0.0)
ONE = Quaternion(1.0, 0.0, 0.0, 0.0)
I = Quaternion(0.0, 1.0, 0.0, 0.0)
J = Quaternion(0.0, 0.0, 1.0, 0.0)
K = Quaternion(0.0, 0.0, 0.0, 1.0)


def qmul(p: Quaternion, q: Quaternion) -> Quaternion:
    """Hamilton product; n(p*q) = n(p) n(q)."""
    return p * q


def qinv(q: Quaternion) -> Quaternion:
    """Two-sided inverse conj(q)/n(q); raises ZeroDivisionError near 0."""
    return q.inverse()


def eps_zero(scale: float) -> float:
    """Scale-aware zero threshold for inversion and decomposition tests."""
    return 1e-13 * (1.0 + abs(scale))


def validate_unit(j: Quaternion) -> Quaternion:
    """Return j normalized onto the imaginary unit sphere.

    Accepts inputs within 1e-6 of the sphere (renormalizing the
    imaginary part and dropping the real part); anything further off
    raises InvalidUnitError.
    """
    n_im = j.abs_im()
    off = max(abs(j.w), abs(n_im - 1.0))
    if off <= EPS_UNIT:
        if j.w == 0.0 and n_im == 1.0:
            return j
        return Quaternion(0.0, j.x1 / n_im, j.x2 / n_im, j.x3 / n_im)
    if off <= UNIT_RENORM_BAND:
        return Quaternion(0.0, j.x1 / n_im, j.x2 / n_im, j.x3 / n_im)
    raise InvalidUnitError(f"not an imaginary unit (|Re|={abs(j.w):.3e}, ||Im|-1|={abs(n_im-1.0):.3e})")


def unit_from_vector(x1: float, x2: float, x3: float) -> Quaternion:
    n = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    if n == 0.0:
        raise InvalidUnitError("zero imaginary vector has no direction")
    return Quaternion(0.0, x1 / n, x2 / n, x3 / n)


@dataclass(frozen=True, slots=True)
class SlicePoint:
    """x = alpha + J*beta with complex shadow z = alpha + i*beta.

    ``unit_defined`` is False at real points, where J is a documented
    default (the basis unit i) that callers must not rely on.
    """

    alpha: float
    beta: float
    unit: Quaternion
    unit_defined: bool = True

    @property
    def z(self) -> complex:
        return complex(self.alpha, self.beta)

    def embed(self) -> Quaternion:
        return slice_embed(self.alpha, self.beta, self.unit)


def slice_embed(alpha: float, beta: float, unit: Quaternion) -> Quaternion:
    """Phi_J(alpha + i*beta) = alpha + J*beta."""
    if beta < 0.0:
        raise ValueError("beta must be >= 0")
    u = validate_unit(unit)
    return Quaternion(alpha, u.x1 * beta, u.x2 * beta, u.x3 * beta)


def decompose(x: Quaternion) -> SlicePoint:
    """Split x into (alpha, beta, J) with alpha = Re x, beta = |Im x| >= 0.

    At (numerically) real points the unit is undefined; the default i is
    returned with ``unit_defined=False``.
    """
    beta = x.abs_im()
    if beta <= eps_zero(x.abs()):
        return SlicePoint(x.w, 0.0, I, unit_defined=False)
    return SlicePoint(x.w, beta, Quaternion(0.0, x.x1 / beta, x.x2 / beta, x.x3 / beta))


# -- vectorized counterparts on "parts", 4-tuples of broadcastable
# component arrays, which keep each component contiguous


def qmul_parts(a, b):
    """Hamilton product of quaternions given as parts."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (
        a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
        a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
        a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
        a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
    )


def _qconj_parts(a):
    return (a[0], -a[1], -a[2], -a[3])


def _qnorm2_parts(a):
    return a[0] * a[0] + a[1] * a[1] + a[2] * a[2] + a[3] * a[3]


def _qinv_parts(a):
    n = _qnorm2_parts(a)
    return (a[0] / n, -a[1] / n, -a[2] / n, -a[3] / n)


def qmul_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product row by row for (n, 4) arrays (broadcastable).
    Nothing in the package calls it; the benchmark's
    ``perfbench/tracer.py`` patches it by name."""
    return np.stack(qmul_parts(np.moveaxis(a, -1, 0), np.moveaxis(b, -1, 0)), axis=-1)
