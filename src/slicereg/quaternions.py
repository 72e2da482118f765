"""Quaternion arithmetic and the slice decomposition of H.

Scalar ground type for the whole package: immutable quaternions
q = w + x1*i + x2*j + x3*k with double-precision components, the
Hamilton product, conjugation/norm/trace, and the split
x = alpha + J*beta of a quaternion into a point alpha + i*beta of the
closed upper half-plane and a unit J of its slice C_J (`split`, and
`decompose` for one Quaternion).

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
    "unit_from_vector",
    "validate_unit",
    "split",
    "decompose",
    "SlicePoint",
    "qmul_array",
    "qmul_parts",
]

# Renormalize near-unit imaginary parts instead of rejecting them;
# quadrature nodes are computed, not exact.
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
        if n <= eps_zero(self.abs()) ** 2:
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
    if max(abs(j.w), abs(n_im - 1.0)) <= UNIT_RENORM_BAND:
        return Quaternion(0.0, j.x1 / n_im, j.x2 / n_im, j.x3 / n_im)
    raise InvalidUnitError(f"not an imaginary unit (|Re|={abs(j.w):.3e}, ||Im|-1|={abs(n_im-1.0):.3e})")


def unit_from_vector(x1: float, x2: float, x3: float) -> Quaternion:
    n = math.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    if n == 0.0:
        raise InvalidUnitError("zero imaginary vector has no direction")
    return Quaternion(0.0, x1 / n, x2 / n, x3 / n)


@dataclass(frozen=True, slots=True)
class SlicePoint:
    """x = alpha + J*beta with beta >= 0 and J = unit; at real points
    (beta == 0) J is a placeholder, the basis unit i."""

    alpha: float
    beta: float
    unit: Quaternion


def split(x):
    """alpha = Re x, beta = |Im x| >= 0 and the unit J of x = alpha + J beta
    at a Quaternion or at parts; J comes back as parts.

    beta is 0 where |Im x| <= ``eps_zero(|x|)``, and J is there the
    placeholder i.
    """
    w, x1, x2, x3 = x.components() if isinstance(x, Quaternion) else x
    beta = np.sqrt(x1 * x1 + x2 * x2 + x3 * x3)
    off = beta > eps_zero(np.sqrt(w * w + x1 * x1 + x2 * x2 + x3 * x3))
    d = np.where(off, beta, 1.0)
    return w, beta * off, (0.0, np.where(off, x1 / d, 1.0), np.where(off, x2 / d, 0.0), np.where(off, x3 / d, 0.0))


def decompose(x: Quaternion) -> SlicePoint:
    """``split`` of one Quaternion, as floats and a unit Quaternion."""
    alpha, beta, unit = split(x)
    return SlicePoint(alpha, float(beta), Quaternion(*map(float, unit)))


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
