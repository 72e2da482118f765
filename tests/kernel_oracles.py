"""The predecessors of slicereg's scalar kernels, kept as named oracles.

Each function here is the code that a kernel on Python floats replaced,
as it was: the kernel must give its results bit for bit.

- ``numpy_divide`` and ``numpy_quotients``: long division and the loop of
  quotients of ``zeros_poles`` on numpy arrays, real (m+1,) or quaternion
  rows (m+1, 4), ascending;
- ``pellet_scan``: ``zeros_poles._pellet_radius`` as the full scan of all
  PELLET_GRID radii;
- ``quaternion_slice_product``: ``slicepoly.slice_product`` as a loop of
  Quaternion products and sums;
- ``zero_start_horner``: ``slicepoly.horner`` on arrays, from a zero
  accumulator.
"""

from __future__ import annotations

import numpy as np

from slicereg.quaternions import ZERO
from slicereg.slicepoly import SlicePolynomial, horner
from slicereg.zeros_poles import PELLET_GRID, TOL_DIVIDE, _taylor


def numpy_divide(c, d) -> tuple[np.ndarray, np.ndarray]:
    """Long division of ascending c, real (m+1,) or quaternion rows (m+1, 4),
    by an ascending monic real d; (quotient, remainder), ascending."""
    r = np.array(np.asarray(c, dtype=float)[::-1])  # descending working copy
    dd = np.asarray(d, dtype=float)[::-1]
    qlen = max(len(r) - len(dd) + 1, 0)
    for k in range(qlen):
        for j in range(1, len(dd)):
            r[k + j] -= dd[j] * r[k]
    return r[:qlen][::-1], r[qlen:][::-1]


def _norms(c: np.ndarray) -> np.ndarray:
    return np.abs(c) if c.ndim == 1 else np.linalg.norm(c, axis=1)


def numpy_quotients(c, alpha: float, beta: float):
    """The successive quotients of ascending c by the real factor of
    (alpha, beta) while each remainder's largest norm is at most TOL_DIVIDE
    times its dividend's."""
    d = np.array([-alpha, 1.0] if beta == 0.0 else [alpha * alpha + beta * beta, -2.0 * alpha, 1.0])
    cur = np.asarray(c, dtype=float)
    keep = np.flatnonzero(cur.reshape(len(cur), -1).any(axis=1))
    cur = cur[: keep[-1] + 1] if keep.size else cur[:0]
    while len(cur) >= len(d):
        q, rem = numpy_divide(cur, d)
        if _norms(rem).max(initial=0.0) > TOL_DIVIDE * max(_norms(cur).max(), 1e-300):
            return
        yield q
        cur = q


def pellet_scan(c: list[float], s: complex, m: int, lo: float, hi: float) -> float | None:
    """The least of PELLET_GRID geometric radii from lo towards hi that
    passes the widened Pellet test, each radius tried in turn."""
    if not lo < hi:
        return None
    t, bound = _taylor(c, s)
    head = abs(t[m]) - bound[m]
    if head <= 0.0:
        return None
    rest = [abs(tk) + ek for tk, ek in zip(t, bound)]
    rest[m] = 0.0
    for j in range(PELLET_GRID):
        rho = lo * (hi / lo) ** (j / PELLET_GRID)
        if head * rho**m > horner(rest, rho).real:
            return rho
    return None


def quaternion_slice_product(f: SlicePolynomial, g: SlicePolynomial) -> SlicePolynomial:
    """c_n = sum_m a_m b_{n-m}, each term a Quaternion product added to a Quaternion."""
    if f.is_zero or g.is_zero:
        return SlicePolynomial([])
    out = [ZERO] * (f.degree + g.degree + 1)
    for m, a in enumerate(f.coeffs):
        for n, b in enumerate(g.coeffs):
            out[m + n] = out[m + n] + a * b
    return SlicePolynomial(out)


def zero_start_horner(c, z: np.ndarray) -> np.ndarray:
    """sum_m c[m] z^m on an array z, from an accumulator of zeros: acc *= z; acc += coef."""
    acc = np.zeros_like(z, dtype=np.result_type(z, *c))
    for coef in reversed(c):
        acc *= z
        acc += coef
    return acc
