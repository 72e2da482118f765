"""Finite-difference realizations of the Cauchy-Riemann-Fueter operators,
the spherical Dirac operator Gamma, and the 4D (bi)laplacian.

These are verification oracles: every operator is built from central
differences on pointwise evaluations, independent of the algebraic
machinery it is checked against.  The quaternionic units multiply the
partial derivatives from the LEFT; the smoke test "dbar applied to the
identity map equals -2" pins that convention.

Stencils are batched: an integrand maps a pair (see ``quaternions``) to
a pair or to one real array, and each operator calls it once on all of
its points; ``eval``, the spherical value and derivative, and the verify
suites' log|N(f)| are such integrands.  The centres are one Quaternion or a
pair of shape s, and the points x + e h of k offsets, e one of 1, i, j, k,
come as a pair of shape (k, *s), so a composed operator passes its points
to the inner one as centres (``fd_bilaplace4``: one call on 9 x 9 points a
centre).  The last axis runs over the centres at every depth: a step h
is a float or an array with one step per centre, and a ``SliceStack``
integrand gives each centre a polynomial of its own, so one call serves
the cases of a whole suite.  The values combine with the float
operations of the pointwise Quaternion formulas, in their order: pairs
add part by part, a pair times a real or a unit i, j, k rounds each part
as the Quaternion product does, and ``over`` divides the parts by a
real.  So results are bitwise the pointwise ones on the same integrand,
centre by centre: the composed stencil amplifies roundoff like h^-4, and
one ulp moves a bilaplacian residual by ~1e-10.

Every stencil is the second-order central one, and one Richardson halving
of a Laplacian is the only higher order.  Default steps: h = 1e-3 (1 + |x|)
for first and second order operators, and h = 3e-2 (1 + |x|) for the bilaplacian.
"""

from __future__ import annotations

import operator
from functools import reduce
from typing import Callable

import numpy as np

from .quaternions import as_pair, over, pair_like, pmul

__all__ = ["fd_partial", "fd_crf", "fd_crf_conj", "fd_gamma", "fd_laplace4", "fd_laplace4_richardson",
           "fd_bilaplace4", "fd_bilaplace4_richardson", "richardson"]

PairFunc = Callable[[tuple], "tuple | np.ndarray"]

_AXES = np.eye(4)  # the parts of 1, i, j, k
_UNITS = (np.array([1j, 0j, 0j]), np.array([0j, 1, 1j]))  # i, j, k as pairs


def _values(u: PairFunc, x, offsets: tuple) -> np.ndarray:
    """u at x + o for every offset o, from one call on points of shape
    (k, *s): (k, 2, *s) for k offsets (a pair of (k, 1 or m) arrays) and
    centres of shape s = (..., m).  A real value v is the pair (v, 0)."""
    a, b = as_pair(x)
    shape = np.shape(a)
    oa, ob = (o.reshape(len(o), *(1,) * (len(shape) - 1), -1) for o in offsets)
    v = u((a + oa, b + ob))
    out = np.zeros((2, len(oa), *shape), complex)
    for row, p in zip(out, v if isinstance(v, tuple) else (v,)):
        row[...] = p
    return out.swapaxes(0, 1)


def _offsets(axes, steps) -> tuple:
    """Units e_a times s, axis by axis, as a pair of (len(axes) * len(steps),
    m) arrays for steps of m values, one per centre (m = 1 for floats);
    e * (-h) is bitwise -(e * h)."""
    s = np.array(steps, dtype=float).reshape(len(steps), 1, -1)
    rows = (_AXES[list(axes), None, :, None] * s).reshape(-1, 4, s.shape[-1])
    pairs = np.ascontiguousarray(rows.swapaxes(1, 2)).view(complex)
    return pairs[..., 0], pairs[..., 1]


def _units_times(q: np.ndarray) -> np.ndarray:
    """i q[0], j q[1], k q[2] for q of shape (3, 2, *s), in one product."""
    units = tuple(u.reshape(3, *(1,) * (q.ndim - 2)) for u in _UNITS)
    return np.array(pmul(units, (q[:, 0], q[:, 1]))).swapaxes(0, 1)


def _partials(u: PairFunc, x, h: float, axes) -> np.ndarray:
    """Central differences along each of the axes, (len(axes), 2, m), from one call."""
    v = _values(u, x, _offsets(axes, (h, -h)))
    v = v.reshape(len(axes), 2, *v.shape[1:])
    return over(v[:, 0] - v[:, 1], 2.0 * h)


def fd_partial(u: PairFunc, axis: int, x, h: float):
    """Central difference along a coordinate axis (0..3)."""
    return pair_like(x, _partials(u, x, h, (axis,))[0])


def _crf(f: PairFunc, x, h: float, combine):
    d = _partials(f, x, h, range(4))
    return pair_like(x, reduce(combine, _units_times(d[1:]), d[0]))


def fd_crf(f: PairFunc, x, h: float):
    """dbar_CRF f = d0 f + i d1 f + j d2 f + k d3 f (units on the left)."""
    return _crf(f, x, h, operator.add)


def fd_crf_conj(f: PairFunc, x, h: float):
    """d_CRF f = d0 f - i d1 f - j d2 f - k d3 f (units on the left)."""
    return _crf(f, x, h, operator.sub)


def fd_gamma(f: PairFunc, x, h: float):
    """Gamma f = -i L23 f + j L13 f - k L12 f with L_ab = x_a d_b - x_b d_a.

    Tangential to the spheres S_x; callers should stay away from the
    real axis where the coefficients all vanish.
    """
    d1, d2, d3 = _partials(f, x, h, (1, 2, 3))
    a, b = as_pair(x)
    x1, x2, x3 = a.imag, b.real, b.imag
    l23, l13, l12 = d3 * x2 - d2 * x3, d3 * x1 - d1 * x3, d2 * x1 - d1 * x2
    i_l23, j_l13, k_l12 = _units_times(np.array([l23, l13, l12]))
    return pair_like(x, -i_l23 + j_l13 - k_l12)


def fd_laplace4(u: PairFunc, x, h: float):
    """9-point second-order Laplacian of R^4."""
    # x + (-0.0) is bitwise x, signed zeros included
    zero = complex(-0.0, -0.0)
    v = _values(u, x, [np.concatenate([np.full_like(o[:1], zero), o]) for o in _offsets(range(4), (h, -h))])
    return pair_like(x, over(reduce(operator.add, v[1:], v[0] * (-8.0)), h * h))


def richardson(coarse, fine) -> np.ndarray:
    """One Richardson halving (4 fine - coarse) / 3 of the values of an
    O(h^2) operator at h and h/2, given as pairs or (2, m) arrays."""
    return over(np.asarray(fine) * 4.0 - np.asarray(coarse), 3.0)


def _richardson(op, u: PairFunc, x, h: float):
    return pair_like(x, richardson(*(op(u, as_pair(x), s) for s in (h, 0.5 * h))))


def fd_laplace4_richardson(u: PairFunc, x, h: float):
    """One Richardson halving: error drops from O(h^2) to O(h^4)."""
    return _richardson(fd_laplace4, u, x, h)


def fd_bilaplace4(u: PairFunc, x, h: float):
    """Composed stencil for Delta_4^2; roundoff grows like h^-4."""
    return fd_laplace4(lambda y: fd_laplace4(u, y, h), x, h)


def fd_bilaplace4_richardson(u: PairFunc, x, h: float):
    return _richardson(fd_bilaplace4, u, x, h)
