"""Slice-regular polynomials f(x) = sum_m x^m a_m with right quaternionic
coefficients.

The stem lifting F(z) = F1(z) + iota*F2(z) drives everything: evaluation
off the real axis is F1(z) + J*F2(z) at z = alpha + i*beta, the slice
product is coefficient convolution, the conjugate flips coefficients,
and the normal function N(f) = f * f^c is slice-preserving with real
coefficients.  Spherical value/derivative come from the stem as F1 and
F2/beta; the spherical derivative extends to the real axis with the
slice derivative (hard switch below BETA_SWITCH).

``stem_arrays`` is the one stem kernel: F1 and F2 as parts at a complex
scalar or array z, and at one point bit for bit the scalar
``stem_components``.  ``eval`` is ``eval_parts`` on one point; the
spherical value and derivative and ``log_abs`` take a Quaternion or
parts.  ``horner`` is the one evaluator of real coefficients at complex
scalars or arrays.

A ``SliceStack`` holds m polynomials side by side, one per centre of a
batched stencil: its coefficients are (m,) arrays, and it runs the same
Horner, stem and scale loops as ``SlicePolynomial`` on points whose last
axis has length m, so centre j takes polynomial j.  The spherical value
and derivative and ``log_abs`` accept it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .quaternions import ONE, ZERO, Quaternion, eps_zero, qmul_parts, split

__all__ = [
    "SlicePolynomial",
    "SliceStack",
    "StemValue",
    "NormalNotRealError",
    "LogOfZeroError",
    "slice_product",
    "normal",
    "spherical_value",
    "spherical_derivative",
    "log_abs",
    "horner",
]

DEGREE_CAP = 64
TRIM_REL = 1e-13
# largest |Im a_m| / (1 + max |a_m|) of a slice-preserving polynomial
SLICE_PRESERVING_REL = 1e-10
# below this |Im x| the spherical derivative switches to the slice derivative
BETA_SWITCH = 1e-8


class NormalNotRealError(RuntimeError):
    """N(f) came out with non-real coefficients: arithmetic bug upstream."""


class LogOfZeroError(ZeroDivisionError):
    """log|f(x)| requested at a (near-)zero of f."""


@dataclass(frozen=True, slots=True)
class StemValue:
    """Components of F(z) = F1 + iota*F2 at one z."""

    F1: Quaternion
    F2: Quaternion


def horner(c, z):
    """sum_m c[m] z^m for ascending real coefficients c at a complex scalar or array z.

    An array z updates one accumulator in place, acc *= z; acc += coef: the
    two rounded operations of acc = acc * z + coef, in the dtype that
    expression promotes to, without two temporaries the size of z."""
    if not isinstance(z, np.ndarray):
        acc = 0.0 + 0.0j
        for coef in reversed(c):
            acc = acc * z + coef
        return acc
    acc = np.zeros_like(z, dtype=np.result_type(z, *c))
    for coef in reversed(c):
        acc *= z
        acc += coef
    return acc


class _Loops:
    """The Horner, stem and scale loops, over ``_parts()`` and ``_moduli()``:
    the ascending coefficients as parts and their moduli, floats for a
    ``SlicePolynomial`` and (m,) arrays, one entry per centre, for a
    ``SliceStack``."""

    __slots__ = ()

    def eval_parts(self, x: tuple) -> tuple:
        """Horner from the left at points given as parts (component arrays,
        or the floats of one point): powers of x sit left of the coefficients."""
        cs = self._parts()
        acc = cs[-1] if cs else (0.0, 0.0, 0.0, 0.0)
        for c in cs[-2::-1]:
            acc = tuple(p + q for p, q in zip(qmul_parts(x, acc), c))
        return acc

    def stem_arrays(self, z) -> tuple[tuple, tuple]:
        """Stems (F1, F2) as parts at a complex scalar or array z.  z^m is
        formed in real arithmetic, zr, zi = zr*x - zi*y, zr*y + zi*x, as
        CPython multiplies complex numbers."""
        x, y = np.real(z), np.imag(z)
        zero = np.zeros(np.shape(z)) if isinstance(z, np.ndarray) else 0.0
        f1 = f2 = (zero,) * 4
        zr, zi = 1.0, 0.0
        for c in self._parts():
            f1 = tuple(s + a * zr for s, a in zip(f1, c))
            f2 = tuple(s + a * zi for s, a in zip(f2, c))
            zr, zi = zr * x - zi * y, zr * y + zi * x
        return f1, f2

    def stem_scale(self, radius):
        """sum |a_m| * radius^m, the natural evaluation scale at |z| = radius."""
        s = 0.0
        rm = 1.0
        for c in self._moduli():
            s = s + c * rm
            rm = rm * radius
        return s


class SlicePolynomial(_Loops):
    """f(x) = sum_m x^m a_m, coefficients on the right."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Quaternion | float]):
        cs = [c if isinstance(c, Quaternion) else Quaternion.real(c) for c in coeffs]
        scale = max((c.abs() for c in cs), default=0.0)
        tol = TRIM_REL * scale
        while cs and cs[-1].abs() <= tol:
            cs.pop()
        if len(cs) - 1 > DEGREE_CAP:
            raise ValueError(f"degree {len(cs) - 1} exceeds cap {DEGREE_CAP}")
        object.__setattr__(self, "coeffs", tuple(cs))

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
        return all(c.abs_im() <= rel_tol * (1.0 + scale) for c in self.coeffs)

    def real_coeffs(self) -> np.ndarray:
        """Ascending real coefficient array; requires slice-preserving f."""
        if not self.is_slice_preserving():
            raise ValueError("polynomial is not slice-preserving")
        return np.array([c.w for c in self.coeffs], dtype=float)

    # -- ring operations -------------------------------------------------

    def __add__(self, other: "SlicePolynomial") -> "SlicePolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return SlicePolynomial([self.coefficient(m) + other.coefficient(m) for m in range(n)])

    def __sub__(self, other: "SlicePolynomial") -> "SlicePolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        return SlicePolynomial([self.coefficient(m) - other.coefficient(m) for m in range(n)])

    def __neg__(self) -> "SlicePolynomial":
        return SlicePolynomial([-c for c in self.coeffs])

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

    def eval(self, x: Quaternion) -> Quaternion:
        return Quaternion(*self.eval_parts(x.components()))

    def _parts(self) -> list[tuple]:
        return [c.components() for c in self.coeffs]

    def _moduli(self) -> list[float]:
        return [c.abs() for c in self.coeffs]

    def stem_components(self, alpha: float, beta: float) -> StemValue:
        """F1 = sum Re(z^m) a_m and F2 = sum Im(z^m) a_m at z = alpha+i*beta."""
        f1, f2 = self.stem_arrays(complex(alpha, beta))
        return StemValue(Quaternion(*f1), Quaternion(*f2))

    def stem_partials(self, alpha: float, beta: float) -> tuple[Quaternion, Quaternion, Quaternion, Quaternion]:
        """Exact partials (dF1/da, dF1/db, dF2/da, dF2/db) at z = a+ib.

        From d(z^m)/da = m z^{m-1} and d(z^m)/db = i m z^{m-1}: with G the
        stems of the slice derivative, they are (G1, -G2, G2, G1).
        """
        g = self.slice_derivative().stem_components(alpha, beta)
        return g.F1, -g.F2, g.F2, g.F1

    # -- calculus ----------------------------------------------------------

    def slice_derivative(self) -> "SlicePolynomial":
        return SlicePolynomial([self.coeffs[m] * float(m) for m in range(1, len(self.coeffs))])

    def conjugate(self) -> "SlicePolynomial":
        return SlicePolynomial([c.conj() for c in self.coeffs])

    def __repr__(self) -> str:  # pragma: no cover
        return f"SlicePolynomial({list(self.coeffs)!r})"


class SliceStack(_Loops):
    """m slice polynomials side by side, polynomial j at centre j of a
    batched stencil: ``coeffs`` has shape (deg+1, 4, m), the lower degrees
    padded with zero leading coefficients, which leave every loop's values
    as they are.  Points are parts whose last axis has length m."""

    __slots__ = ("polys", "coeffs", "_derivative")

    def __init__(self, polys: Iterable[SlicePolynomial]):
        self.polys = tuple(polys)
        self._derivative = None
        n = max(len(f.coeffs) for f in self.polys)
        rows = [[f.coefficient(k).components() for f in self.polys] for k in range(n)]
        self.coeffs = np.array(rows, dtype=float).reshape(n, len(self.polys), 4).transpose(0, 2, 1).copy()

    def _parts(self) -> list[tuple]:
        return [tuple(c) for c in self.coeffs]

    def _moduli(self) -> list[np.ndarray]:
        """|a_m| of each polynomial, by ``Quaternion.abs``."""
        return [np.array([f.coefficient(k).abs() for f in self.polys]) for k in range(len(self.coeffs))]

    def slice_derivative(self) -> "SliceStack":
        """The stack of the slice derivatives, built once."""
        if self._derivative is None:
            self._derivative = SliceStack(f.slice_derivative() for f in self.polys)
        return self._derivative

    def is_slice_preserving(self) -> bool:
        return all(f.is_slice_preserving() for f in self.polys)


def slice_product(f: SlicePolynomial, g: SlicePolynomial) -> SlicePolynomial:
    """Coefficient convolution c_n = sum_m a_m b_{n-m} (a left of b)."""
    if f.is_zero or g.is_zero:
        return SlicePolynomial([])
    out = [ZERO] * (f.degree + g.degree + 1)
    for m, a in enumerate(f.coeffs):
        for n, b in enumerate(g.coeffs):
            out[m + n] = out[m + n] + a * b
    return SlicePolynomial(out)


def normal(f: SlicePolynomial) -> SlicePolynomial:
    """N(f) = f * f^c; always slice-preserving."""
    nf = slice_product(f, f.conjugate())
    if not nf.is_slice_preserving():
        raise NormalNotRealError(f"N(f) has imaginary parts above {SLICE_PRESERVING_REL:g} of its coefficient scale")
    return SlicePolynomial([Quaternion.real(c.w) for c in nf.coeffs])


def _like(x, v: tuple):
    """The parts v as a Quaternion when x is one, else as they are."""
    return Quaternion(*map(float, v)) if isinstance(x, Quaternion) else v


def spherical_value(f: "SlicePolynomial | SliceStack", x):
    """v_s f(x) = (f(x) + f(conj x))/2 = F1(z); constant on each sphere.
    x is a Quaternion or parts, and so is the value."""
    alpha, beta, _ = split(x)
    return _like(x, f.stem_arrays(alpha + 1j * beta)[0])


def spherical_derivative(f: "SlicePolynomial | SliceStack", x):
    """f'_s(x) = Im(x)^{-1} (f(x) - f(conj x))/2 = F2(z)/beta at a
    Quaternion or parts x.

    Below BETA_SWITCH the slice-derivative extension takes over.
    """
    alpha, beta, _ = split(x)
    d = f.slice_derivative().eval_parts((alpha, 0.0, 0.0, 0.0))
    f2 = f.stem_arrays(alpha + 1j * beta)[1]
    with np.errstate(divide="ignore", invalid="ignore"):
        return _like(x, tuple(np.where(beta < BETA_SWITCH, a, b / beta) for a, b in zip(d, f2)))


def log_abs(f: "SlicePolynomial | SliceStack", x: "Quaternion | tuple") -> "float | np.ndarray":
    """log|f(x)| for slice-preserving f (a circular function of x) at one
    Quaternion (a float) or at parts (an array).  The complex Horner runs
    in real arithmetic, product for product as CPython multiplies complex
    numbers: at one Quaternion it is bitwise the scalar ``horner`` at the
    shadow of x, on parts it matches array ``horner`` only to rounding.
    |f(x)| <= ``eps_zero(stem_scale(|x|))`` raises LogOfZeroError."""
    if not f.is_slice_preserving():
        raise ValueError("log_abs requires a slice-preserving polynomial")
    w, beta, _ = split(x)
    re = im = 0.0
    for c in reversed(f._parts()):
        re, im = re * w - im * beta + c[0], re * beta + im * w
    a2 = re * re + im * im
    zero = a2 <= eps_zero(f.stem_scale(np.hypot(w, beta))) ** 2
    if np.asarray(zero).any():
        w_k, beta_k, a2_k = (float(np.ravel(v)[np.argmax(zero)]) for v in (w, beta, a2))
        raise LogOfZeroError(f"|f(x)| ~ {math.sqrt(a2_k):.3e} at x with z = {complex(w_k, beta_k)}")
    logs = [0.5 * math.log(v) for v in np.ravel(a2).tolist()]
    return logs[0] if isinstance(x, Quaternion) else np.reshape(logs, np.shape(a2))
