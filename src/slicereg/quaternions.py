"""Quaternion arithmetic and the slice decomposition of H.

One array format, pairs: q = a + b j with a = w + i x1 and b = x2 + i x3
in C_i, two complex scalars or broadcastable arrays (the splitting lemma
of Gentili, Stoppato & Struppa, *Regular Functions of a Quaternionic
Variable*, 2013).  Since j z = conj(z) j, one product is four complex
products and two sums, (a1 a2 - b1 conj(b2), a1 b2 + b1 conj(a2)).
Points, stems, polynomial values, stencils, S_f and the boundary means
all run on pairs; ``to_parts`` gives a pair's four real components
(w, x1, x2, x3) as views, for the kernels that need real arrays.
``Quaternion`` is the scalar type, the named tuple of one point's float
components, for input, output and records; ``Quaternion.pair`` is its
pair, and ``as_pair`` makes it a pair of arrays of shape (1,), so that
one point runs the array kernels as any point does: numpy may fuse the
multiply and add of an array complex product (it does where the CPU has
FMA), and never of a scalar one.

The Quaternion methods (Hamilton product, conjugation, norm, trace, inverse)
are the scalar reference on Python floats; the tests hold the pair kernels to
them within a few ulps.  ``split`` is the one split x = alpha + J*beta of a
point (one complex pair runs on floats) into alpha + i*beta in the closed upper
half-plane and a unit J of its slice C_J.  ``over`` divides a complex by a real
part by part, as floats divide; numpy's complex over real multiplies by 1 / d.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import SliceRegError

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
    "qmul_array",
    "to_parts",
    "as_pair",
    "pair_like",
    "over",
    "pmul",
    "pconj",
    "pnorm2",
    "pinv",
]

# Renormalize near-unit imaginary parts instead of rejecting them;
# quadrature nodes are computed, not exact.
UNIT_RENORM_BAND = 1e-6


class InvalidUnitError(SliceRegError, ValueError):
    """Quaternion does not satisfy Re(J) = 0, |J| = 1 within tolerance."""


class Quaternion(NamedTuple):
    """q = w + x1*i + x2*j + x3*k: the parts of one point, as floats.

    NumPy operands defer to the reflected operators below
    (``__array_ufunc__ = None``), so np.float64(2.0) * q is a Quaternion,
    not an array of its components."""

    w: float = 0.0
    x1: float = 0.0
    x2: float = 0.0
    x3: float = 0.0

    __array_ufunc__ = None

    # -- algebra -------------------------------------------------------

    def __add__(self, other: "Quaternion | float") -> "Quaternion":
        o = _coerce(other)
        return tuple.__new__(Quaternion, (self.w + o.w, self.x1 + o.x1, self.x2 + o.x2, self.x3 + o.x3))

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
        a0, a1, a2, a3 = self
        b0, b1, b2, b3 = other
        return tuple.__new__(Quaternion, (
            a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0,
        ))

    __rmul__ = __mul__  # real scalar * q; a real scalar commutes with q

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

    def abs_im(self) -> float:
        return math.sqrt(self.x1 * self.x1 + self.x2 * self.x2 + self.x3 * self.x3)

    def inverse(self) -> "Quaternion":
        n = self.norm2()
        if n <= eps_zero(self.abs()) ** 2:
            raise ZeroDivisionError("quaternion inverse of (near-)zero value")
        return Quaternion(self.w / n, -self.x1 / n, -self.x2 / n, -self.x3 / n)

    # -- conversions ----------------------------------------------------

    @staticmethod
    def from_array(a) -> "Quaternion":
        return Quaternion(*map(float, a))

    @staticmethod
    def real(value: float) -> "Quaternion":
        return Quaternion(float(value), 0.0, 0.0, 0.0)

    def pair(self) -> tuple[complex, complex]:
        """(w + i x1, x2 + i x3) as complex numbers."""
        return complex(self.w, self.x1), complex(self.x2, self.x3)

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


def split(x):
    """alpha = Re x, beta = |Im x| >= 0 and the unit J = Im x * (1 / beta)
    of x = alpha + J beta, at a pair x of complex scalars or arrays; J comes
    back as a pair.

    beta is 0 where |Im x| <= ``eps_zero(|x|)``, and J is there the
    placeholder i.
    """
    a, b = x
    s1, s2, s3 = a.imag * a.imag, b.real * b.real, b.imag * b.imag
    sqrt = math.sqrt if isinstance(a, complex) else np.sqrt  # one point runs on Python floats
    beta = sqrt(s1 + s2 + s3)
    off = beta > eps_zero(sqrt(a.real * a.real + s1 + s2 + s3))  # |x| as ``pnorm2`` sums it
    if off is True or np.all(off):  # no point on the real axis, no placeholder
        inv = 1.0 / beta
        return a.real, beta, (1j * (a.imag * inv), b * inv)
    if off is False:  # one point on the real axis
        return a.real, beta * off, (1j, 0j)
    inv = 1.0 / np.where(off, beta, 1.0)
    return a.real, beta * off, (np.where(off, 1j * (a.imag * inv), 1j), np.where(off, b * inv, 0j))


def qmul_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product row by row for (n, 4) arrays (broadcastable), by ``pmul``.
    Nothing in the package calls it; the benchmark's ``perfbench/tracer.py`` patches it by name."""
    a, b = (np.ascontiguousarray(q, dtype=float).view(complex) for q in (a, b))
    return np.stack(pmul((a[..., 0], a[..., 1]), (b[..., 0], b[..., 1])), axis=-1).view(float)


# -- pairs: q = a + b j, a and b complex scalars or broadcastable arrays


def to_parts(p):
    """The parts of a pair: real and imaginary views of its two components."""
    a, b = p
    return a.real, a.imag, b.real, b.imag


def as_pair(x):
    """A Quaternion x as a pair of arrays of shape (1,); a pair as it is."""
    return tuple(np.array([c]) for c in x.pair()) if isinstance(x, Quaternion) else x


def pair_like(x, p):
    """The first point of the pair p as a Quaternion when x is one, else p as a tuple."""
    return Quaternion(*(float(np.ravel(c)[0]) for c in to_parts(p))) if isinstance(x, Quaternion) else tuple(p)


def over(c, d):
    """c / d for a complex c and a real d, the real and imaginary parts
    divided as floats (on a float view of c with a last axis of 2)."""
    return (np.asarray(c, complex)[..., None].view(float) / np.expand_dims(d, -1)).view(complex)[..., 0]


def pmul(p, q):
    """Hamilton product of pairs: (a1 + b1 j)(a2 + b2 j) = (a1 a2 - b1 conj(b2)) + (a1 b2 + b1 conj(a2)) j."""
    a1, b1 = p
    a2, b2 = q
    return a1 * a2 - b1 * np.conj(b2), a1 * b2 + b1 * np.conj(a2)


def pconj(p):
    """conj(a + b j) = conj(a) - b j."""
    return np.conj(p[0]), -p[1]


def pnorm2(p):
    """|a|^2 + |b|^2, summed component by component in the order of parts
    (w^2 + x1^2 + x2^2 + x3^2), so it is the parts norm bit for bit."""
    a, b = p
    return a.real * a.real + a.imag * a.imag + b.real * b.real + b.imag * b.imag


def pinv(p):
    """q^{-1} = conj(q) / |q|^2, as conj(q) times 1 / |q|^2: a complex
    times a real takes half the time of a complex over a real.  Not finite
    where q = 0."""
    inv = 1.0 / pnorm2(p)
    return np.conj(p[0]) * inv, p[1] * -inv
