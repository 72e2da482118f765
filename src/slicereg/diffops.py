"""Finite-difference realizations of the Cauchy-Riemann-Fueter operators,
the spherical Dirac operator Gamma, and the 4D (bi)laplacian.

These are verification oracles: every operator is built from central
differences on pointwise evaluations, independent of the algebraic
machinery it is checked against.  The quaternionic units multiply the
partial derivatives from the LEFT; the smoke test "dbar applied to the
identity map equals -2" pins that convention.

Default steps: h = 1e-3 (1 + |x|) for first and second order operators;
the composed bilaplacian stencil amplifies roundoff like h^-4 and runs
at h = 3e-2 (1 + |x|), optionally with one Richardson halving.
"""

from __future__ import annotations

from typing import Callable

from .quaternions import I, J, K, ONE, Quaternion

__all__ = [
    "fd_partial",
    "fd_crf",
    "fd_crf_conj",
    "fd_gamma",
    "fd_laplace4",
    "fd_laplace4_richardson",
    "fd_bilaplace4",
    "fd_bilaplace4_richardson",
]

QFunc = Callable[[Quaternion], "Quaternion | float"]

_AXES = (ONE, I, J, K)
_UNITS = (I, J, K)


def _as_quat(v) -> Quaternion:
    return v if isinstance(v, Quaternion) else Quaternion.real(float(v))


def fd_partial(u: QFunc, axis: int, x: Quaternion, h: float, order: int = 2) -> Quaternion:
    """Central difference along a coordinate axis (0..3)."""
    e = _AXES[axis]
    if order == 2:
        return (_as_quat(u(x + e * h)) - _as_quat(u(x - e * h))) / (2.0 * h)
    if order == 4:
        up2 = _as_quat(u(x + e * (2.0 * h)))
        up1 = _as_quat(u(x + e * h))
        um1 = _as_quat(u(x - e * h))
        um2 = _as_quat(u(x - e * (2.0 * h)))
        return (-up2 + up1 * 8.0 - um1 * 8.0 + um2) / (12.0 * h)
    raise ValueError("order must be 2 or 4")


def fd_crf(f: QFunc, x: Quaternion, h: float, order: int = 2) -> Quaternion:
    """dbar_CRF f = d0 f + i d1 f + j d2 f + k d3 f (units on the left)."""
    out = fd_partial(f, 0, x, h, order)
    for axis, unit in enumerate(_UNITS, start=1):
        out = out + unit * fd_partial(f, axis, x, h, order)
    return out


def fd_crf_conj(f: QFunc, x: Quaternion, h: float, order: int = 2) -> Quaternion:
    """d_CRF f = d0 f - i d1 f - j d2 f - k d3 f (units on the left)."""
    out = fd_partial(f, 0, x, h, order)
    for axis, unit in enumerate(_UNITS, start=1):
        out = out - unit * fd_partial(f, axis, x, h, order)
    return out


def fd_gamma(f: QFunc, x: Quaternion, h: float, order: int = 2) -> Quaternion:
    """Gamma f = -i L23 f + j L13 f - k L12 f with L_ab = x_a d_b - x_b d_a.

    Tangential to the spheres S_x; callers should stay away from the
    real axis where the coefficients all vanish.
    """
    d1 = fd_partial(f, 1, x, h, order)
    d2 = fd_partial(f, 2, x, h, order)
    d3 = fd_partial(f, 3, x, h, order)
    l23 = d3 * x.x2 - d2 * x.x3
    l13 = d3 * x.x1 - d1 * x.x3
    l12 = d2 * x.x1 - d1 * x.x2
    return -(I * l23) + J * l13 - K * l12


def fd_laplace4(u: QFunc, x: Quaternion, h: float) -> Quaternion:
    """9-point second-order Laplacian of R^4."""
    center = _as_quat(u(x)) * (-8.0)
    acc = center
    for e in _AXES:
        acc = acc + _as_quat(u(x + e * h)) + _as_quat(u(x - e * h))
    return acc / (h * h)


def fd_laplace4_richardson(u: QFunc, x: Quaternion, h: float) -> Quaternion:
    """One Richardson halving: error drops from O(h^2) to O(h^4)."""
    coarse = fd_laplace4(u, x, h)
    fine = fd_laplace4(u, x, 0.5 * h)
    return (fine * 4.0 - coarse) / 3.0


def fd_bilaplace4(u: QFunc, x: Quaternion, h: float) -> Quaternion:
    """Composed stencil for Delta_4^2; roundoff grows like h^-4."""
    return fd_laplace4(lambda y: fd_laplace4(u, y, h), x, h)


def fd_bilaplace4_richardson(u: QFunc, x: Quaternion, h: float) -> Quaternion:
    coarse = fd_bilaplace4(u, x, h)
    fine = fd_bilaplace4(u, x, 0.5 * h)
    return (fine * 4.0 - coarse) / 3.0
