"""Finite-difference realizations of the Cauchy-Riemann-Fueter operators,
the spherical Dirac operator Gamma, and the 4D (bi)laplacian.

These are verification oracles: every operator is built from central
differences on pointwise evaluations, independent of the algebraic
machinery it is checked against.  The quaternionic units multiply the
partial derivatives from the LEFT; the smoke test "dbar applied to the
identity map equals -2" pins that convention.

Stencils are batched: an integrand maps parts (four component arrays,
the ``qmul_parts`` convention) to parts or to one real array, and each
operator calls it once on all of its points; ``eval_parts``, ``log_abs``
and the spherical value and derivative (on the one stem kernel
``stem_arrays``) are such integrands.  A centre is one Quaternion
or parts, so a composed operator passes its points to the inner one as
centres (``fd_bilaplace4``: one call on 81 points).  The values combine
with the float operations of the pointwise formulas, in their order, so
results are bitwise the pointwise ones: the composed stencil amplifies
roundoff like h^-4, and one ulp moves a bilaplacian residual by ~1e-10.

Default steps: h = 1e-3 (1 + |x|) for first and second order operators;
the composed bilaplacian stencil runs at h = 3e-2 (1 + |x|), optionally
with one Richardson halving.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Callable

import numpy as np

from .quaternions import I, J, K, Quaternion, qmul_parts

__all__ = ["fd_partial", "fd_crf", "fd_crf_conj", "fd_gamma", "fd_laplace4", "fd_laplace4_richardson",
           "fd_bilaplace4", "fd_bilaplace4_richardson"]

PartsFunc = Callable[[tuple], "tuple | np.ndarray"]

_AXES = np.eye(4)  # the components of 1, i, j, k
_UNITS = np.array([I.components(), J.components(), K.components()]).T[:, :, None]  # as parts


def _centres(x) -> np.ndarray:
    return np.array(x.components(), dtype=float)[:, None] if isinstance(x, Quaternion) else np.asarray(x)


def _like(x, v: np.ndarray):
    """v (4, m) as a Quaternion when the centre x is one, else as parts."""
    return Quaternion(*(float(c[0]) for c in v)) if isinstance(x, Quaternion) else tuple(v)


def _values(u: PartsFunc, x, offsets: np.ndarray) -> np.ndarray:
    """u at x + o for every row o of offsets, from one call: (k, 4, m) for
    k offsets and m centres.  A real value v is the quaternion (v, 0, 0, 0)."""
    c = _centres(x)
    k, m = len(offsets), c.shape[1]
    v = u(tuple((ci + oi[:, None]).ravel() for ci, oi in zip(c, offsets.T)))
    out = np.zeros((4, k * m))
    for row, p in zip(out, v if isinstance(v, tuple) else (v,)):
        row[...] = p
    return out.reshape(4, k, m).transpose(1, 0, 2)


def _offsets(axes, steps) -> np.ndarray:
    """Rows e_a * s, axis by axis; e * (-h) is bitwise -(e * h)."""
    return (_AXES[list(axes), None, :] * np.array(steps)[:, None]).reshape(-1, 4)


def _units_times(q: np.ndarray) -> np.ndarray:
    """i q[0], j q[1], k q[2] for q of shape (3, 4, m), in one product."""
    return np.array(qmul_parts(_UNITS, q.transpose(1, 0, 2))).transpose(1, 0, 2)


def _partials(u: PartsFunc, x, h: float, order: int, axes) -> np.ndarray:
    """Central differences along each of the axes, (len(axes), 4, m), from one call."""
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    steps = (h, -h) if order == 2 else (2.0 * h, h, -h, -(2.0 * h))
    v = _values(u, x, _offsets(axes, steps)).reshape(len(axes), len(steps), 4, -1)
    if order == 2:
        return (v[:, 0] - v[:, 1]) / (2.0 * h)
    return (-v[:, 0] + v[:, 1] * 8.0 - v[:, 2] * 8.0 + v[:, 3]) / (12.0 * h)


def fd_partial(u: PartsFunc, axis: int, x, h: float, order: int = 2):
    """Central difference along a coordinate axis (0..3)."""
    return _like(x, _partials(u, x, h, order, (axis,))[0])


def _crf(f: PartsFunc, x, h: float, order: int, combine):
    d = _partials(f, x, h, order, range(4))
    return _like(x, reduce(combine, _units_times(d[1:]), d[0]))


def fd_crf(f: PartsFunc, x, h: float, order: int = 2):
    """dbar_CRF f = d0 f + i d1 f + j d2 f + k d3 f (units on the left)."""
    return _crf(f, x, h, order, operator.add)


def fd_crf_conj(f: PartsFunc, x, h: float, order: int = 2):
    """d_CRF f = d0 f - i d1 f - j d2 f - k d3 f (units on the left)."""
    return _crf(f, x, h, order, operator.sub)


def fd_gamma(f: PartsFunc, x, h: float, order: int = 2):
    """Gamma f = -i L23 f + j L13 f - k L12 f with L_ab = x_a d_b - x_b d_a.

    Tangential to the spheres S_x; callers should stay away from the
    real axis where the coefficients all vanish.
    """
    d1, d2, d3 = _partials(f, x, h, order, (1, 2, 3))
    _, x1, x2, x3 = _centres(x)
    l23, l13, l12 = d3 * x2 - d2 * x3, d3 * x1 - d1 * x3, d2 * x1 - d1 * x2
    i_l23, j_l13, k_l12 = _units_times(np.array([l23, l13, l12]))
    return _like(x, -i_l23 + j_l13 - k_l12)


def fd_laplace4(u: PartsFunc, x, h: float):
    """9-point second-order Laplacian of R^4."""
    # x + (-0.0) is bitwise x, signed zeros included
    v = _values(u, x, np.vstack([np.full(4, -0.0), _offsets(range(4), (h, -h))]))
    return _like(x, reduce(operator.add, v[1:], v[0] * (-8.0)) / (h * h))


def _richardson(op, u: PartsFunc, x, h: float):
    coarse, fine = (np.array(op(u, _centres(x), s)) for s in (h, 0.5 * h))
    return _like(x, (fine * 4.0 - coarse) / 3.0)


def fd_laplace4_richardson(u: PartsFunc, x, h: float):
    """One Richardson halving: error drops from O(h^2) to O(h^4)."""
    return _richardson(fd_laplace4, u, x, h)


def fd_bilaplace4(u: PartsFunc, x, h: float):
    """Composed stencil for Delta_4^2; roundoff grows like h^-4."""
    return fd_laplace4(lambda y: fd_laplace4(u, y, h), x, h)


def fd_bilaplace4_richardson(u: PartsFunc, x, h: float):
    return _richardson(fd_bilaplace4, u, x, h)
