"""Quadrature on the 3-sphere of radius r in R^4, the sphere
conjugation map S_f, and the two boundary integral means of the Jensen
formula.

Means path: a 1-D polar rule.  Every sphere S_x = alpha + S^2 beta with
z = alpha + i beta = r e^{i theta} on the boundary carries measure
4 pi (r sin theta)^2 r dtheta, and on it f(alpha + J beta) =
F1(z) + J F2(z), so |f|^2 = A(z) + <b(z), J> with A = |F1|^2 + |F2|^2
and b = 2 Im(F1 conj(F2)): affine in J.  By Archimedes' hat-box
theorem <b, J> / |b| is uniform on [-1, 1] over S^2, so the S^2 mean
of log|f| has a closed form in A and B = |b| (``sphere_mean_log_abs``).
The pointwise identity log|N(f)| = log|f| + log|f o S_f| then gives the
second mean as the polar mean of log|N(f)| minus the first.  Both need
the stems only at the shadows z_k = r e^{i theta_k} of ``polar_rule``,
graded toward the shadows of the zero and pole spheres.  Every
Gauss-Legendre rule here, the means' and the oracle's, comes from
``_gauss_legendre``: Newton on the Legendre recurrence, no LAPACK call.

Diagnostic oracle: a 3-D product rule.  Parameterization
x = r (cos t1, sin t1 cos t2, sin t1 sin t2 cos p, sin t1 sin t2 sin p)
with surface measure r^3 sin^2(t1) sin(t2) dt1 dt2 dp and total measure
|bd B_r| = 2 pi^2 r^3; Gauss-Legendre nodes in t1 and t2 and a uniform
grid in p, spectrally exact for the periodic direction.  The rule is
held as its two factors: the polar rule in t1 (r-dependent, graded like
the means' rule) and an S^2 grid of 2q^2 units J (cached per q).  Every
pass over it, the oracle's and the quadrature suite's 3-D cross-check,
walks ``SphereQuadratureRule.blocks``: whole polar angles, at most
``ORACLE_BLOCK`` nodes, with einsum S^2 means per angle, so its memory
does not grow with the rule.  ``oracle_orders`` gives the oracle orders of
its own, below the means' n: it shares their panel edges, not their nodes.
On a polar angle's sphere the stems are constants and S_f only moves the
unit J, so ``_identity_map`` makes f(x) and f(S_f x) there ratios of
affine maps of J, one per angle, which ``boundary_identity_residual``
applies block by block.  It is the independent check of the pointwise
boundary identity and of the sum of the two means, which is circular, so
the S^2 grid cancels from it; each mean alone carries the S^2 error
(2.5e-4 on the degree-8 corpus case at n = 48).

One array S_f: ``_sf_map``, the map of J per shadow, which the oracle
applies per angle and ``_sf_parts`` point by point for the bijectivity
roundtrip ``sf_roundtrip_errors``; its inverse ``_sf_inverse_parts``
conjugates by f'_s and then by f^c = conj(F1) + J conj(F2) (the map
T_f).  Their pointwise oracle, the scalar S_f, T_f and S_f^{-1} on one
quaternion at a time, lives in ``tests/test_quadrature.py``.

Sampled diagnostics draw from ``s3_points``, a seeded low-discrepancy
sequence on S^3 mapped by ``shoemake``, so no command imports ``numpy.random``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterator

import numpy as np

from .errors import DegeneratePointError, NonFiniteIntegrandError
from .quaternions import Quaternion, _qconj_parts, _qinv_parts, _qnorm2_parts, qmul_parts, split
from .slicepoly import horner
from .zeros_poles import as_semiregular, normal_coeffs

__all__ = [
    "SphereQuadratureRule",
    "build_rule",
    "oracle_orders",
    "s2_means",
    "circular_reduction",
    "polar_rule",
    "sphere_mean_log_abs",
    "boundary_means",
    "BoundaryMeans",
    "boundary_identity_residual",
    "ProductRuleCheck",
    "sf_roundtrip_errors",
    "s3_points",
    "log_normal_values",
]

SPHERE_MEASURE = 2.0 * math.pi**2  # |bd B_1|

# S_f falls back to the conjugation branch when the spherical derivative
# is this small relative to the stem scale
DEGENERATE_REL = 1e-12
# nodes every walk over a product rule evaluates at once, in whole polar angles:
# 32 of the oracle's S^2 grid at n = 48 (q = 12), 2 of the quadrature suite's
# (q = 48); working arrays about 1 MB; oracle blocks up to 147 456 nodes time the same
ORACLE_BLOCK = 32 * 2 * 12**2


@dataclass(frozen=True)
class SphereQuadratureRule:
    """The product rule as its two factors, each weight vector summing
    to 1: polar shadows z_k = r e^{i t1_k} with weights w_k, and 2q^2
    units J_j on S^2 with weights s_j.  Node (k, j) is Re z_k + J_j Im z_k
    with weight |bd B_r| w_k s_j.  The flat arrays over all nodes (alpha,
    beta, junits, nodes, weights) are built on first use; no command reads them."""

    radius: float
    orders: tuple[int, int, int]  # polar nodes per panel, S^2 angles, azimuths
    polar_z: np.ndarray  # (K,), Im > 0
    polar_weights: np.ndarray  # (K,)
    s2_units: np.ndarray  # (2q^2, 4), shared by every polar angle
    s2_weights: np.ndarray  # (2q^2,)

    @property
    def measure(self) -> float:
        return SPHERE_MEASURE * self.radius**3

    @cached_property
    def alpha(self) -> np.ndarray:
        return np.repeat(self.polar_z.real, len(self.s2_weights))

    @cached_property
    def beta(self) -> np.ndarray:
        return np.repeat(self.polar_z.imag, len(self.s2_weights))

    @cached_property
    def junits(self) -> np.ndarray:
        return np.tile(self.s2_units, (len(self.polar_z), 1))

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = self.polar_z.imag[:, None, None] * self.s2_units
        nodes[..., 0] = self.polar_z.real[:, None]
        return nodes.reshape(-1, 4)

    @cached_property
    def weights(self) -> np.ndarray:
        return (self.measure * np.outer(self.polar_weights, self.s2_weights)).ravel()

    def __len__(self) -> int:
        return len(self.polar_z) * len(self.s2_weights)

    def blocks(self, max_nodes: int) -> Iterator[slice]:
        """Slices of whole polar angles, at most max_nodes nodes (one angle at least)."""
        angles = max(1, max_nodes // len(self.s2_weights))
        return (slice(lo, lo + angles) for lo in range(0, len(self.polar_z), angles))


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes on [-1, 1], ascending, and weights in O(n^2)
    elementwise work: Newton on the recurrence for P_n and P'_n = n (P_{n-1}
    - x P_n) / (1 - x^2) from Tricomi's guesses for the nodes >= 0, then
    w = 2 / ((1 - x^2) P'_n^2); the nodes < 0 mirror them exactly."""
    k = np.arange(1, (n + 1) // 2 + 1)
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.cos(math.pi * (4 * k - 1) / (4 * n + 2))
    x[n // 2:] = 0.0  # empty unless n is odd
    step = np.ones_like(x)
    for _ in range(10):  # 3 or 4 steps reach roundoff
        p_prev, p = np.ones_like(x), x.copy()
        for j in range(1, n):
            p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
        dp = n * (p_prev - x * p) / (1.0 - x * x)
        if np.max(np.abs(step)) <= 1e-12:
            break
        step = p / dp
        x -= step
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    return np.concatenate([-x[: n // 2], x[::-1]]), np.concatenate([w[: n // 2], w[::-1]])


@lru_cache
def _polar_angles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Angles theta_k in (0, pi) of ``_gauss_legendre`` and its weights on
    [-1, 1] (Jacobian pi/2 left to the caller); cached, read-only."""
    t, wt = _gauss_legendre(n)
    theta = 0.5 * math.pi * (t + 1.0)
    theta.flags.writeable = wt.flags.writeable = False
    return theta, wt


@lru_cache
def _s2_factor(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The product rule's S^2 grid: units J = (0, cos t2, sin t2 cos p,
    sin t2 sin p) at the n Gauss-Legendre angles t2 and 2n uniform
    azimuths p (p fastest), and their weights sin(t2) dt2 dp / 4 pi;
    independent of r, cached, read-only."""
    theta, wt = _polar_angles(n)
    phi = 2.0 * math.pi * np.arange(2 * n) / (2 * n)
    s, c = np.sin(theta)[:, None], np.cos(theta)[:, None]
    units = np.stack(np.broadcast_arrays(0.0, c, s * np.cos(phi), s * np.sin(phi)), -1).reshape(-1, 4)
    weights = np.repeat(wt * np.sin(theta) * (math.pi / (8 * n)), 2 * n)
    units.flags.writeable = weights.flags.writeable = False
    return units, weights


MIN_ORDER = 4  # fewest Gauss-Legendre nodes per angle a rule accepts


def polar_rule(r: float, n: int, shadows=()) -> tuple[np.ndarray, np.ndarray]:
    """Shadows z_k = r e^{i theta_k} and weights w_k, sum w_k = 1, such
    that sum w_k g(z_k) is the mean over the 3-sphere of a circular
    integrand g (constant on every sphere S_x); the weight of theta_k is
    the measure 4 pi (r sin theta)^2 r dtheta of its sphere over 2 pi^2 r^3.

    n Gauss-Legendre angles on each panel of (0, pi).  A zero or pole
    sphere of g with shadow s = |s| e^{i phi} puts a log singularity
    delta = ||s| - r| / r from the contour, where one panel converges like
    (1 + delta)^{-2n}; the edges phi +- delta 2^k, while delta 2^k < pi,
    make each panel about as wide as its distance to s.  With no shadows
    this is the polar factor of ``build_rule``.
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    if n < MIN_ORDER:
        raise ValueError(f"need at least {MIN_ORDER} nodes per angle")
    edges = [0.0, math.pi]
    for s in shadows:
        phi, step = math.atan2(s.imag, s.real), abs(abs(s) - r) / r
        while 0.0 < step < math.pi:
            edges += [phi - step, phi + step]
            step *= 2.0
    edges = np.array(sorted({min(max(e, 0.0), math.pi) for e in edges}))
    theta, wt = _polar_angles(n)
    lo, width = edges[:-1, None], np.diff(edges)[:, None] / math.pi
    theta, wt = (lo + width * theta).ravel(), (width * wt).ravel()
    z = r * np.cos(theta) + 1j * (r * np.sin(theta))
    return z, wt * np.sin(theta) ** 2


def build_rule(r: float, n: int, shadows=(), s2_order: int | None = None) -> SphereQuadratureRule:
    """Product rule: ``polar_rule(r, n, shadows)`` times the S^2 grid of
    q Gauss-Legendre angles and 2q uniform azimuths, q = s2_order or n."""
    q = n if s2_order is None else s2_order
    if q < MIN_ORDER:
        raise ValueError(f"need at least {MIN_ORDER} nodes per angle")
    return SphereQuadratureRule(r, (n, q, 2 * q), *polar_rule(r, n, shadows), *_s2_factor(q))


def oracle_orders(n: int) -> tuple[int, int]:
    """Polar nodes per panel and S^2 order of the product-rule oracle
    beside means of order n: ceil(n/3) and ceil(n/4), at least MIN_ORDER.
    On the graded panels the corpus and the near-boundary spheres reach
    roundoff at (16, 12), the orders at n = 48, where no polar node of the
    oracle is one of the means'."""
    return max(MIN_ORDER, -(-n // 3)), max(MIN_ORDER, -(-n // 4))


def s2_means(rule: SphereQuadratureRule, values: np.ndarray, first: int = 0) -> np.ndarray:
    """S^2 means of values at the nodes of the polar angles first, first + 1, ...,
    by einsum: a row's mean does not depend on the rows beside it.  A non-finite value raises, naming its node."""
    values = values.reshape(-1, len(rule.s2_weights))
    means = np.einsum("km,m->k", values, rule.s2_weights)
    if not np.all(np.isfinite(means)) and not np.all(np.isfinite(values)):
        k = first * values.shape[1] + int(np.argmax(~np.isfinite(values)))
        angle, unit = divmod(k, values.shape[1])
        z = rule.polar_z[angle]
        node = Quaternion.from_array(np.append(z.real, z.imag * rule.s2_units[unit, 1:]))
        raise NonFiniteIntegrandError(f"integrand not finite at node {k} = {node}; a zero or pole "
                                      "sits on or near the integration sphere", node=node)
    return means


def circular_reduction(r: float, m: int, u: Callable[[Quaternion], float]) -> float:
    """Integral over the sphere of a circular integrand, by the polar rule
    of order m with u evaluated pointwise.  Nothing in the package calls
    it; the benchmark's ``perfbench/tracer.py`` patches it by name."""
    z, w = polar_rule(r, m)
    values = np.array([u(Quaternion(zk.real, zk.imag, 0.0, 0.0)) for zk in z])
    if not np.all(np.isfinite(values)):
        raise NonFiniteIntegrandError("circular integrand not finite on the sphere")
    return SPHERE_MEASURE * r**3 * float(np.dot(w, values))


# ---------------------------------------------------------------------------
# sphere conjugation map S_f on quaternion parts
# ---------------------------------------------------------------------------


def _conjugate_by(x, q):
    """q^{-1} x q."""
    return qmul_parts(_qinv_parts(q), qmul_parts(x, q))


def _degenerate(q, scale: float) -> np.ndarray:
    return _qnorm2_parts(q) <= (DEGENERATE_REL * (1.0 + scale)) ** 2


def _slice_value(f1, f2, junit):
    """F1 + J F2: the value at alpha + J beta of the function whose
    stems at alpha + i beta are F1, F2."""
    return tuple(a + b for a, b in zip(f1, qmul_parts(junit, f2)))


# S_f on one sphere, whose stems F1, F2 are constants: with g = F1 F2^{-1}
# and u = g + J, conj(u) J u = conj(g) J g + J + 2 Im g, so
# S_f(alpha + J beta) = u^{-1} conj(x) u = alpha - beta t(J) / d(J) with
# t(J) = conj(g) J g + J + 2 Im g and d(J) = |g + J|^2, both affine in J.
# An affine map of J is held as quaternion parts whose entries carry a
# last axis of 4 coefficients, one per coordinate of (1, J1, J2, J3); the
# unit J is then the parts (0, e1, e2, e3) and the constant 1 is e0.
_ONE, _E1, _E2, _E3 = np.eye(4)
_J = (0.0, _E1, _E2, _E3)


def _sf_ratio(f1, f2, degenerate):
    """g = F1 F2^{-1}, and 0 where F2 is degenerate: there u = J and S_f is
    conjugation."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return tuple(np.where(degenerate, 0.0, c) for c in qmul_parts(f1, _qinv_parts(f2)))


def _sf_map(g, junit, one):
    """The three imaginary parts of t(J), and d(J), at units junit with
    one = 1.0; at junit = _J and one = _ONE, their coefficients over
    (1, J1, J2, J3)."""
    _, *t = qmul_parts(_qconj_parts(g), qmul_parts(junit, g))
    t = [a + j + 2.0 * b * one for a, j, b in zip(t, junit[1:], g[1:])]
    d = (1.0 + _qnorm2_parts(g)) * one + 2.0 * (g[1] * junit[1] + g[2] * junit[2] + g[3] * junit[3])
    return t, d


def _sf_parts(x, junit, f1, f2, scale: float):
    """S_f(x) = alpha - beta t(J) / d(J) at x = alpha + J beta with stems
    F1, F2 at alpha + i beta, by ``_sf_map`` point by point: the
    conjugation s (u^{-1} conj(x) u) s^{-1} with u = F1 + J F2 and s = F2,
    regrouped.  Exactly conj(x) where F2 is degenerate; not finite where
    f vanishes."""
    degenerate = _degenerate(f2, scale)
    t, d = _sf_map(_sf_ratio(f1, f2, degenerate), junit, 1.0)
    beta = np.sqrt(x[1] * x[1] + x[2] * x[2] + x[3] * x[3])
    with np.errstate(divide="ignore", invalid="ignore"):
        step = -beta / d
        return (x[0], *(np.where(degenerate, -c, step * a) for c, a in zip(x[1:], t)))


def _sf_inverse_parts(f, y, scale: float):
    """S_f^{-1}(y) = T_f(w), w = conj(s^{-1} y s) with s = F2 at y, and
    T_f(w) = fc^{-1} w fc with fc = conj(F1) + J conj(F2) at w: y and
    w are split anew."""
    alpha, beta, _ = split(y)
    _, s = f.stem_arrays(alpha + 1j * beta)
    if np.any(_degenerate(s, scale)):
        raise DegeneratePointError("inverse of S_f undefined on the degenerate set")
    w = _qconj_parts(_conjugate_by(y, s))
    alpha, beta, junit = split(w)
    fc = _slice_value(*map(_qconj_parts, f.stem_arrays(alpha + 1j * beta)), junit)
    if np.any(_degenerate(fc, scale)):
        raise DegeneratePointError("f^c vanishes at the requested point")
    return _conjugate_by(w, fc)


# ---------------------------------------------------------------------------
# boundary means
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundaryMeans:
    """Raw means (1/|bd B_r|) int log|f| and log|f o S_f|; the 1/2
    prefactors of the Jensen statement are applied by the caller."""

    mean_log_f: float
    mean_log_f_sf: float

    @property
    def mean_log_normal(self) -> float:
        """(1/|bd B_r|) int log|N(f)|, by the pointwise boundary identity."""
        return self.mean_log_f + self.mean_log_f_sf


# below this u = B/A the closed form divides roundoff by u; the series
# -sum_m u^{2m} / (m (2m + 1)), truncated after u^6, is off by < 3e-26
SERIES_U = 1e-3
# |N(num)(z)| below this fraction of its Horner scale sum |c_k| r^k is
# rounding noise: num vanishes on that sphere as far as doubles can tell
NODE_HIT_REL = 1e-14


def sphere_mean_log_abs(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Mean over J in S^2 of (1/2) log(a + <b, J>), |b| = b, given c = a - b.

    <b, J> / b is uniform on [-1, 1] (Archimedes), so the mean is
    (1/4) int_{-1}^{1} log(a + b t) dt
      = (1/4) [((a+b) log(a+b) - c log c) / b - 2],
    evaluated as (1/2) log a + (1/4) g(b/a) with log1p, with c/a for
    1 - b/a from b/a = 1/2 on, and by its Taylor series for small b/a.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        u = b / a
        u2 = u * u
        series = -u2 * (1.0 / 3.0 + u2 * (1.0 / 10.0 + u2 / 21.0))
        v = np.where(u < 0.5, 1.0 - u, c / a)
        closed = ((1.0 + u) * np.log1p(u) - v * np.where(u < 0.5, np.log1p(-u), np.log(v))) / u - 2.0
        g = np.where(u < SERIES_U, series, closed)
        return 0.5 * np.log(a) + 0.25 * g


def boundary_means(f, r: float, n: int, shadows=(), nnum: np.ndarray | None = None) -> BoundaryMeans:
    """The two normalized boundary means of the Jensen right-hand side,
    by ``polar_rule(r, n, shadows)`` with exact S^2 averaging; nnum holds
    N(num)'s coefficients (``normal_coeffs``) when the caller has them.

    N(f) has the stem (F1 + i F2)(conj F1 + i conj F2) = |F1|^2 - |F2|^2
    + 2i Re(F1 conj F2); with |Im(F1 conj F2)|^2 = |F1|^2 |F2|^2 - Re(F1 conj F2)^2
    that is |N(f)(z)|^2 = A^2 - B^2, so the least |f|^2 on the sphere is
    A - B = |N(f)(z)|^2 / (A + B), free of the cancellation of A - B.

    Requires f nonvanishing and pole-free on the sphere; a zero on the
    sphere of a polar node (|N(num)(z)| within roundoff of its Horner
    sum), or a non-finite stem, raises NonFiniteIntegrandError.
    """
    z, w = polar_rule(r, n, shadows)
    f1, f2 = f.stem_arrays(z)
    a = _qnorm2_parts(f1) + _qnorm2_parts(f2)
    _, b1, b2, b3 = qmul_parts(f1, _qconj_parts(f2))
    b = 2.0 * np.sqrt(b1 * b1 + b2 * b2 + b3 * b3)
    if nnum is None:
        nnum = normal_coeffs(as_semiregular(f).num)
    num_abs = np.abs(horner(nnum, z))
    log_n = log_normal_values(f, z, num_abs)
    log_f = sphere_mean_log_abs(a, b, np.exp(2.0 * log_n) / (a + b))
    hit = num_abs <= NODE_HIT_REL * horner(np.abs(nnum), r).real
    bad = ~np.isfinite(log_f + log_n) | hit
    if np.any(bad):
        k = int(np.argmax(bad))
        node = Quaternion(z[k].real, z[k].imag, 0.0, 0.0)
        raise NonFiniteIntegrandError(f"integrand not finite on the sphere through polar node {k} = {node}; "
                                      "a zero or pole sits on or near the integration sphere", node=node)
    mean_log_f = float(np.dot(w, log_f))
    return BoundaryMeans(mean_log_f, float(np.dot(w, log_n)) - mean_log_f)


def log_normal_values(f, z: np.ndarray, num_abs: np.ndarray | None = None) -> np.ndarray:
    """log|N(f)| at shadows z; N(f) is circular so only z matters.  A
    constant den is 1 (den is monic), so only a nonconstant one enters.
    ``num_abs``: |N(num)| at z, when the caller has it."""
    fs = as_semiregular(f)
    if num_abs is None:
        num_abs = np.abs(horner(normal_coeffs(fs.num), z))
    log_n = np.log(num_abs)
    return log_n - 2.0 * np.log(np.abs(horner(fs.den.real_coeffs(), z))) if fs.den.degree else log_n


@dataclass(frozen=True)
class ProductRuleCheck:
    """The 3-D product-rule oracle: its own boundary means, and the
    largest violation of log|N(f)| = log|f| + log|f o S_f| over its
    nodes."""

    means: BoundaryMeans
    identity_max: float


def _identity_map(f1, f2, scale: float) -> np.ndarray:
    """Per polar angle with stems F1, F2, the C-contiguous (9, K, 4) map
    of (1, J) whose rows are f(x) = F1 + J F2 (0-3), the numerator
    F1 d - t F2 of f(S_f x) = F1 - t F2 / d (4-7) and d (8), with t
    and d from ``_sf_map``."""
    g = _sf_ratio(f1, f2, _degenerate(f2, scale))
    t, d = _sf_map([c[..., None] for c in g], _J, _ONE)
    f1, f2 = ([c[..., None] for c in q] for q in (f1, f2))
    fx = _slice_value([a * _ONE for a in f1], f2, _J)
    fy = tuple(a * d - b for a, b in zip(f1, qmul_parts((0.0, *t), f2)))
    return np.stack(np.broadcast_arrays(*fx, *fy, d))


def _homogeneous_units(rule: SphereQuadratureRule) -> np.ndarray:
    """The S^2 units as C-contiguous columns (1, J1, J2, J3), (4, 2q^2)."""
    units = rule.s2_units.T.copy()
    units[0] = 1.0
    return units


def _log_abs_f_and_f_sf(maps: np.ndarray, units: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log|f(x)| and log|f(S_f x)|, (b, 2q^2), at the units of b polar
    angles with ``_identity_map`` rows maps (9, b, 4)."""
    values = np.einsum("rkc,cm->rkm", maps, units)
    fx2, fy2 = (np.einsum("rkm,rkm->km", v, v) for v in (values[:4], values[4:8]))
    with np.errstate(divide="ignore", invalid="ignore"):
        return 0.5 * np.log(fx2), 0.5 * np.log(fy2 / values[8] ** 2)


def boundary_identity_residual(f, rule: SphereQuadratureRule, nnum: np.ndarray | None = None) -> ProductRuleCheck:
    """Evaluate f and f o S_f at every node of the product rule; nnum as
    in ``boundary_means``.

    The stems and log|N(f)| are evaluated once per polar angle, and so is
    ``_identity_map``, which makes f(x) and f(S_f x) on the angle's sphere
    ratios of affine maps of its unit J.  Blocks of whole angles, about
    ``ORACLE_BLOCK`` nodes each, apply the map to the 2q^2 units by one
    einsum and are reduced to S^2 means by einsum too: no BLAS, so no
    node's or angle's arithmetic depends on the blocks.  The polar
    weights are applied once at the end.
    """
    z = rule.polar_z
    log_n = log_normal_values(f, z, None if nnum is None else np.abs(horner(nnum, z)))[:, None]
    maps = _identity_map(*f.stem_arrays(z), f.stem_scale(rule.radius))
    units = _homogeneous_units(rule)
    sphere_means = np.empty((2, len(z)))
    identity = 0.0
    for blk in rule.blocks(ORACLE_BLOCK):
        log_fx, log_fy = _log_abs_f_and_f_sf(np.ascontiguousarray(maps[:, blk]), units)
        for row, values in zip(sphere_means, (log_fx, log_fy)):
            row[blk] = s2_means(rule, values, blk.start)
        identity = max(identity, float(np.max(np.abs(log_n[blk] - log_fx - log_fy))))
    mean_fx, mean_fy = sphere_means @ rule.polar_weights
    return ProductRuleCheck(BoundaryMeans(float(mean_fx), float(mean_fy)), identity)


# the steps (phi^-1, phi^-2, phi^-3), phi the positive root of x^4 = x + 1,
# of a Kronecker sequence of low discrepancy in [0, 1)^3
KRONECKER_STEPS = 1.2207440846057596 ** -np.arange(1.0, 4.0)
# frac(sqrt(p)), p = 2, 3, 5, in 64-bit fixed point: a seed's shift is
# frac(seed sqrt(p)), exact for any integer seed
_SEED_STEPS = (0x6A09E667F3BCC908, 0xBB67AE8584CAA73B, 0x3C6EF372FE94F82B)


def shoemake(u1, u2, u3) -> tuple:
    """Shoemake's measure-preserving map of [0, 1)^3 onto the unit quaternions, as parts:
    (sqrt(1 - u1) sin 2 pi u2, sqrt(1 - u1) cos 2 pi u2, sqrt(u1) sin 2 pi u3, sqrt(u1) cos 2 pi u3)."""
    a, b, t2, t3 = np.sqrt(1.0 - u1), np.sqrt(u1), 2.0 * math.pi * u2, 2.0 * math.pi * u3
    return a * np.sin(t2), a * np.cos(t2), b * np.sin(t3), b * np.cos(t3)


def s3_points(start: int, count: int, seed: int) -> np.ndarray:
    """Rows k = start, ..., start + count - 1 of one seeded sequence of unit
    quaternions: u_k = frac(1/2 + k KRONECKER_STEPS + shift(seed)) through
    ``shoemake``.  A shifted Kronecker sequence is one again, so every seed
    covers S^3 as evenly."""
    shift = np.array([seed * c % 2**64 / 2**64 for c in _SEED_STEPS])
    u = (0.5 + np.arange(start, start + count, dtype=float)[:, None] * KRONECKER_STEPS + shift) % 1.0
    return np.stack(shoemake(*u.T), axis=-1)


def _sf_domain_points(f, r: float, n_points: int, candidates: Callable[[int, int], np.ndarray]):
    """The first n_points boundary points x = r c, for the unit rows c of
    candidates(start, n_points) at start = 0, n_points, 2 n_points, ...,
    that pass the guards below, as parts, with their units J and stems
    F1, F2; at most 40 n_points candidates are tried, so fewer points, or
    none, come back where the guards reject most of the sphere."""
    scale = f.stem_scale(r)
    kept, accepted = [], 0
    for start in range(0, 40 * n_points, n_points):
        x = tuple(r * candidates(start, n_points).T)
        alpha, beta, junit = split(x)
        f1, f2 = f.stem_arrays(alpha + 1j * beta)
        # conditioning guard: conjugating by a tiny spherical derivative
        # amplifies its own rounding error
        keep = (
            (beta >= 1e-3 * r)
            & (np.sqrt(_qnorm2_parts(f2)) > 1e-4 * (1.0 + scale))
            & (np.sqrt(_qnorm2_parts(_slice_value(f1, f2, junit))) > 1e-9 * (1.0 + scale))
        )
        kept.append([np.broadcast_to(c, keep.shape)[keep] for c in (*x, *junit, *f1, *f2)])
        accepted += len(kept[-1][0])
        if accepted >= n_points:
            break
    cols = [np.concatenate(c)[:n_points] for c in zip(*kept)]
    return tuple(cols[:4]), tuple(cols[4:8]), tuple(cols[8:12]), tuple(cols[12:])


def sf_roundtrip_errors(f, r: float, n_points: int, seed: int) -> np.ndarray:
    """Inverse-roundtrip distances |x - S_f^{-1}(S_f(x))| at boundary points
    r ``s3_points``(., ., seed), restricted to the domain of the
    diffeomorphism (away from the degenerate set and zeros of N(f)): at
    most n_points of them, and none where no sampled point is in that domain."""
    if n_points < 1:
        raise ValueError("need at least one sample point")
    scale = f.stem_scale(r)
    x, junit, f1, f2 = _sf_domain_points(f, r, n_points, lambda start, count: s3_points(start, count, seed))
    back = _sf_inverse_parts(f, _sf_parts(x, junit, f1, f2, scale), scale)
    return np.sqrt(_qnorm2_parts(tuple(b - c for b, c in zip(back, x))))
