"""Slice-regular polynomials f(x) = sum_m x^m a_m with right quaternionic
coefficients.

The stem lifting F(z) = F1(z) + iota*F2(z) drives everything: evaluation
off the real axis is F1(z) + J*F2(z) at z = alpha + i*beta, the slice
product is coefficient convolution, the conjugate flips coefficients,
and the normal function N(f) = f * f^c is slice-preserving with real
coefficients.  Spherical value/derivative come from the stem as F1 and
F2/beta; the spherical derivative extends to the real axis with the
slice derivative (hard switch below BETA_SWITCH).

``stem_arrays`` is the one stem kernel: F1 and F2 as pairs (see
``quaternions``) at a complex scalar or array z, summed over complex
coefficient arrays g, h of a_m = g_m + h_m j that each polynomial forms once;
their parts are the Quaternion loop's stems bit for bit, and
``stem_components`` is the pair of Quaternions at one point.  ``eval`` is the
one point evaluator, a Horner on ``pmul`` with x^m on the left; it and the
spherical value and derivative take and give a Quaternion or a pair.
``horner`` evaluates real coefficients at complex scalars or arrays, one
polynomial or (d+1, m) columns.  Scalar loops (the slice product, ``horner`` at
a scalar) run on Python floats.

A ``SliceStack`` holds m polynomials side by side, one per centre of a
batched stencil: its g, h are (d+1, m) arrays, and it runs the same
Horner and stem loops as ``SlicePolynomial`` on points whose last axis
has length m, so centre j takes polynomial j, bit for bit as that
polynomial alone.  The spherical value and derivative accept it.

A polynomial is the semiregular function num / 1: ``num`` is itself, ``den``
one shared read-only [1.0] and ``den_spheres`` empty, and it forms its
``zero_polynomial`` once, which a quotient reads off its numerator.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from .errors import SliceRegError, ZeroPolynomialError
from .quaternions import ONE, ZERO, Quaternion, as_pair, over, pair_like, pmul, split, to_parts

__all__ = [
    "SlicePolynomial",
    "SliceStack",
    "NormalNotRealError",
    "slice_product",
    "normal",
    "spherical_value",
    "spherical_derivative",
    "horner",
]

DEGREE_CAP = 64
# largest |Im a_m| / max |a_m| of a slice-preserving polynomial
SLICE_PRESERVING_REL = 1e-10
# below this |Im x| the spherical derivative switches to the slice derivative
BETA_SWITCH = 1e-8


class NormalNotRealError(SliceRegError, RuntimeError):
    """N(f) came out with non-real coefficients: arithmetic bug upstream."""


def horner(c, z):
    """sum_m c[m] z^m for ascending real coefficients c at a complex scalar or array z.
    Columns c of shape (d+1, m) are m polynomials, zero-padded to one degree,
    and column j runs at z[..., j] with the float operations of c[:, j] alone.

    An array z updates one accumulator in place, acc *= z; acc += coef: the two rounded
    operations of acc = acc * z + coef, in the dtype that expression promotes to, with no
    temporary the size of z, from the leading coefficient (0 * z + c[-1] at finite z)."""
    if not isinstance(z, np.ndarray):
        acc = 0.0 + 0.0j
        for coef in reversed(c):
            acc = acc * z + coef
        return acc
    acc = np.full(z.shape, c[-1] if len(c) else 0, np.result_type(z, *c))
    for coef in reversed(c[:-1]):
        acc *= z
        acc += coef
    return acc


class _Loops:
    """The Horner and stem loops, over ``_pairs()``, the complex g_m, h_m of
    the ascending coefficients a_m = g_m + h_m j: (d+1,) arrays for a
    ``SlicePolynomial``, and (d+1, m) arrays, one column per centre, for a
    ``SliceStack``."""

    __slots__ = ()

    def eval(self, x):
        """Horner from the left, acc = x acc + a_m, on ``pmul``: powers of x
        sit left of the coefficients.  x is a Quaternion, and so is the
        value, or a pair, whose last axis runs over the centres of a stack."""
        p, (g, h) = as_pair(x), self._pairs()
        acc = (g[-1], h[-1]) if len(g) else (0j, 0j)
        for gm, hm in zip(g[-2::-1], h[-2::-1]):
            a, b = pmul(p, acc)
            acc = a + gm, b + hm
        return pair_like(x, acc)

    def stem_arrays(self, z) -> tuple[tuple, tuple]:
        """Stems F1 = sum_m a_m Re z^m and F2 = sum_m a_m Im z^m as pairs at
        a complex scalar or array z: F1 = (sum g_m Re z^m, sum h_m Re z^m),
        and F2 likewise.  A complex times a real rounds each component as
        the real product does, so the parts of these sums are the parts
        loop's bit for bit.  z^m is formed in real arithmetic, zr, zi =
        zr*x - zi*y, zr*y + zi*x, as CPython multiplies complex numbers.

        Not (G(z) +- G(conj z))/2 with G = sum z^m g_m: that difference
        loses F2's relative accuracy as beta -> 0."""
        x, y = z.real, z.imag
        a1 = b1 = a2 = b2 = np.zeros(np.shape(z), complex) if isinstance(z, np.ndarray) else 0j
        zr, zi = 1.0, 0.0
        for g, h in zip(*self._pairs()):
            a1, b1, a2, b2 = a1 + g * zr, b1 + h * zr, a2 + g * zi, b2 + h * zi
            zr, zi = zr * x - zi * y, zr * y + zi * x
        return (a1, b1), (a2, b2)


class SlicePolynomial(_Loops):
    """f(x) = sum_m x^m a_m, coefficients on the right; as a function, num / 1."""

    __slots__ = ("coeffs", "_pair_coeffs", "_zero_polynomial")
    den = np.ones(1)  # shared by every polynomial, so read-only
    den.setflags(write=False)
    den_spheres = ()
    num = property(lambda self: self)

    def __init__(self, coeffs: Iterable[Quaternion | float]):
        cs = [c if isinstance(c, Quaternion) else Quaternion.real(c) for c in coeffs]
        while cs and not any(cs[-1]):  # only zero coefficients are dropped
            cs.pop()
        if len(cs) - 1 > DEGREE_CAP:
            raise ValueError(f"degree {len(cs) - 1} exceeds cap {DEGREE_CAP}")
        object.__setattr__(self, "coeffs", tuple(cs))
        object.__setattr__(self, "_pair_coeffs", None)
        object.__setattr__(self, "_zero_polynomial", None)

    def __setattr__(self, name, value):  # immutable
        raise AttributeError("SlicePolynomial is immutable")

    # -- construction helpers ------------------------------------------

    @staticmethod
    def from_real(coeffs: Sequence[float]) -> "SlicePolynomial":
        return SlicePolynomial([Quaternion.real(c) for c in coeffs])

    @staticmethod
    def linear(root: Quaternion) -> "SlicePolynomial":
        """x - root."""
        return SlicePolynomial([-root, ONE])

    # -- basic queries ---------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient_scale(self) -> float:
        return max((c.abs() for c in self.coeffs), default=0.0)

    def coefficient(self, m: int) -> Quaternion:
        return self.coeffs[m] if 0 <= m < len(self.coeffs) else ZERO

    def is_slice_preserving(self, rel_tol: float = SLICE_PRESERVING_REL) -> bool:
        scale = self.coefficient_scale()
        return all(c.abs_im() <= rel_tol * scale for c in self.coeffs)

    def real_coeffs(self) -> np.ndarray:
        """Ascending real coefficient array; requires slice-preserving f."""
        if not self.is_slice_preserving():
            raise ValueError("polynomial is not slice-preserving")
        return np.array([c.w for c in self.coeffs], dtype=float)

    @property
    def zero_polynomial(self) -> tuple[np.ndarray, int]:
        """The real coefficients c carrying f's zeros and the divisor of their multiplicities, formed
        once: f and 1 when slice-preserving (never squared), else N(f) and 2, so N(f) = c^(2 / divisor)."""
        if self._zero_polynomial is None:
            if self.is_zero:
                raise ZeroPolynomialError("zero set of the zero polynomial is everything")
            pair = (self.real_coeffs(), 1) if self.is_slice_preserving() else (normal(self).real_coeffs(), 2)
            object.__setattr__(self, "_zero_polynomial", pair)
        return self._zero_polynomial

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "SlicePolynomial") -> "SlicePolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return SlicePolynomial([self.coefficient(m) + other.coefficient(m) for m in range(n)])

    def __mul__(self, other: "SlicePolynomial") -> "SlicePolynomial":
        return slice_product(self, other)

    def __pow__(self, n: int) -> "SlicePolynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        out = SlicePolynomial([ONE])
        base = self
        while n:
            if n & 1:
                out = slice_product(out, base)
            if n > 1:
                base = slice_product(base, base)
            n >>= 1
        return out

    # -- evaluation -------------------------------------------------------

    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """g_m = w + i x1 and h_m = x2 + i x3 of every a_m, formed on first use."""
        if self._pair_coeffs is None:
            cs = np.array(self.coeffs, dtype=float).reshape(len(self.coeffs), 4)
            object.__setattr__(self, "_pair_coeffs", (cs[:, 0] + 1j * cs[:, 1], cs[:, 2] + 1j * cs[:, 3]))
        return self._pair_coeffs

    def stem_scale(self, radius):
        """sum |a_m| * radius^m, the natural evaluation scale at |z| = radius."""
        s = 0.0
        rm = 1.0
        for c in self.coeffs:
            s = s + c.abs() * rm
            rm = rm * radius
        return s

    def stem_components(self, alpha: float, beta: float) -> tuple[Quaternion, Quaternion]:
        """(F1, F2) with F1 = sum Re(z^m) a_m and F2 = sum Im(z^m) a_m at z = alpha+i*beta."""
        f1, f2 = self.stem_arrays(complex(alpha, beta))
        return Quaternion(*map(float, to_parts(f1))), Quaternion(*map(float, to_parts(f2)))

    # -- calculus ----------------------------------------------------------

    def slice_derivative(self) -> "SlicePolynomial":
        return SlicePolynomial([self.coeffs[m] * float(m) for m in range(1, len(self.coeffs))])

    def conjugate(self) -> "SlicePolynomial":
        return SlicePolynomial([c.conj() for c in self.coeffs])

    def __repr__(self) -> str:  # pragma: no cover
        return f"SlicePolynomial({list(self.coeffs)!r})"


class SliceStack(_Loops):
    """m slice polynomials side by side, polynomial j at centre j of a
    batched stencil: g and h, the g_m and h_m of every polynomial, have
    shape (deg+1, m), the lower degrees padded with zero leading
    coefficients, which leave every loop's values as they are.  Points are
    pairs whose last axis has length m."""

    __slots__ = ("polys", "g", "h", "_derivative")

    def __init__(self, polys: Iterable[SlicePolynomial]):
        self.polys = tuple(polys)
        self._derivative = None
        n = max(len(f.coeffs) for f in self.polys)
        cs = np.array([[f.coefficient(k) for f in self.polys] for k in range(n)], dtype=float)
        self.g, self.h = cs[..., 0] + 1j * cs[..., 1], cs[..., 2] + 1j * cs[..., 3]

    def _pairs(self) -> tuple[np.ndarray, np.ndarray]:
        return self.g, self.h

    def slice_derivative(self) -> "SliceStack":
        """The stack of the slice derivatives, built once."""
        if self._derivative is None:
            self._derivative = SliceStack(f.slice_derivative() for f in self.polys)
        return self._derivative


def slice_product(f: SlicePolynomial, g: SlicePolynomial) -> SlicePolynomial:
    """Coefficient convolution c_n = sum_m a_m b_{n-m} (a left of b) on float
    components: each term is ``Quaternion``'s product, added part by part."""
    if f.is_zero or g.is_zero:
        return SlicePolynomial([])
    w, x1, x2, x3 = ([0.0] * (f.degree + g.degree + 1) for _ in range(4))
    for m, (a0, a1, a2, a3) in enumerate(f.coeffs):
        for k, (b0, b1, b2, b3) in enumerate(g.coeffs, m):
            w[k] += a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3
            x1[k] += a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2
            x2[k] += a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1
            x3[k] += a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0
    return SlicePolynomial(map(Quaternion, w, x1, x2, x3))


def normal(f: SlicePolynomial) -> SlicePolynomial:
    """N(f) = f * f^c; always slice-preserving."""
    nf = slice_product(f, f.conjugate())
    if not nf.is_slice_preserving():
        raise NormalNotRealError(f"N(f) has imaginary parts above {SLICE_PRESERVING_REL:g} of its coefficient scale")
    return SlicePolynomial([Quaternion.real(c.w) for c in nf.coeffs])


def spherical_value(f: "SlicePolynomial | SliceStack", x):
    """v_s f(x) = (f(x) + f(conj x))/2 = F1(z); constant on each sphere.
    x is a Quaternion or a pair, and so is the value."""
    alpha, beta, _ = split(as_pair(x))
    return pair_like(x, f.stem_arrays(alpha + 1j * beta)[0])


def spherical_derivative(f: "SlicePolynomial | SliceStack", x):
    """f'_s(x) = Im(x)^{-1} (f(x) - f(conj x))/2 = F2(z)/beta at a
    Quaternion or a pair x.

    Below BETA_SWITCH the slice-derivative extension takes over.
    """
    alpha, beta, _ = split(as_pair(x))
    d = f.slice_derivative().eval((alpha + 0j, 0j))
    f2 = f.stem_arrays(alpha + 1j * beta)[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return pair_like(x, tuple(np.where(beta < BETA_SWITCH, a, over(b, beta)) for a, b in zip(d, f2)))

