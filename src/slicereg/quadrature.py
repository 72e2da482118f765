"""Quadrature on the 3-sphere of radius r in R^4, the sphere
conjugation maps T_f and S_f, and the two boundary integral means of the
Jensen formula.

Means path: a 1-D polar rule.  Every sphere S_x = alpha + S^2 beta with
z = alpha + i beta = r e^{i theta} on the boundary carries measure
4 pi (r sin theta)^2 r dtheta, and on it f(alpha + J beta) =
F1(z) + J F2(z), so |f|^2 = A(z) + <b(z), J> with A = |F1|^2 + |F2|^2
and b = 2 Im(F1 conj(F2)): affine in J.  By Archimedes' hat-box
theorem <b, J> / |b| is uniform on [-1, 1] over S^2, so the S^2 mean
of log|f| has a closed form in A and B = |b| (``sphere_mean_log_abs``).
The pointwise identity log|N(f)| = log|f| + log|f o S_f| then gives the
second mean as the polar mean of log|N(f)| minus the first.  Both need
the stems only at the n Gauss-Legendre shadows z_k = r e^{i theta_k}
(``polar_rule``).

Diagnostic oracle: a 3-D product rule.  Parameterization
x = r (cos t1, sin t1 cos t2, sin t1 sin t2 cos p, sin t1 sin t2 sin p)
with surface measure r^3 sin^2(t1) sin(t2) dt1 dt2 dp and total measure
|bd B_r| = 2 pi^2 r^3; Gauss-Legendre nodes in t1 and t2 and a uniform
grid in p, spectrally exact for the periodic direction.  The rule is
held as its two factors: the polar rule in t1 (r-dependent) and an S^2
grid of 2n^2 units J (cached per n); its flat 2n^3-node arrays exist
only on demand.  ``boundary_identity_residual`` evaluates f and S_f at
every node, ``ORACLE_BLOCK`` polar angles at a time with S^2 means per
angle, so its memory does not grow with n^3.  It is the independent
check of the pointwise boundary identity and of the reduced means; its
S^2 grid resolves high-degree stems slowly, so the 1-D means are the
more accurate of the two.

One array S_f (``_sf_parts``, inverse ``_sf_inverse_parts``) serves the
product-rule oracle and the bijectivity roundtrip ``sf_roundtrip_errors``;
the scalar ``S_map``, ``s_inverse_map`` and ``T_map`` are only its
pointwise reference in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .errors import DegeneratePointError, NonFiniteIntegrandError
from .quaternions import Quaternion, _qconj_parts, _qinv_parts, _qnorm2_parts, decompose, qmul_parts
from .slicepoly import horner, normal
from .zeros_poles import as_semiregular

__all__ = [
    "SphereQuadratureRule",
    "build_rule",
    "integrate",
    "integrate_values",
    "circular_reduction",
    "T_map",
    "S_map",
    "s_inverse_map",
    "polar_rule",
    "sphere_mean_log_abs",
    "boundary_means",
    "BoundaryMeans",
    "boundary_identity_residual",
    "ProductRuleCheck",
    "sf_roundtrip_errors",
    "log_normal_values",
]

SPHERE_MEASURE = 2.0 * math.pi**2  # |bd B_1|

# S_f falls back to the conjugation branch when the spherical derivative
# is this small relative to the stem scale
DEGENERATE_REL = 1e-12
# polar angles the product-rule oracle takes through S_f at once
ORACLE_BLOCK = 8


@dataclass(frozen=True)
class SphereQuadratureRule:
    """The product rule as its two factors, each weight vector summing
    to 1: polar shadows z_k = r e^{i t1_k} with weights w_k, and 2n^2
    units J_j on S^2 with weights s_j.  Node (k, j) is Re z_k + J_j Im z_k
    with weight |bd B_r| w_k s_j.  The flat arrays over all N = 2n^3
    nodes (alpha, beta, junits, nodes, weights) are built on first use."""

    radius: float
    orders: tuple[int, int, int]
    polar_z: np.ndarray  # (n,), Im > 0
    polar_weights: np.ndarray  # (n,)
    s2_units: np.ndarray  # (2n^2, 4), shared by every polar angle
    s2_weights: np.ndarray  # (2n^2,)

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
        nodes = self.beta[:, None] * self.junits
        nodes[:, 0] = self.alpha
        return nodes

    @cached_property
    def weights(self) -> np.ndarray:
        return (self.measure * np.outer(self.polar_weights, self.s2_weights)).ravel()

    def __len__(self) -> int:
        return len(self.polar_z) * len(self.s2_weights)


@lru_cache
def _polar_angles(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre angles theta_k in (0, pi) and their weights on
    [-1, 1] (Jacobian pi/2 left to the caller); cached, read-only."""
    t, wt = np.polynomial.legendre.leggauss(n)
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


def polar_rule(r: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Shadows z_k = r e^{i theta_k} and weights w_k, sum w_k = 1, such
    that sum w_k g(z_k) is the mean over the 3-sphere of a circular
    integrand g (constant on every sphere S_x).

    The weight of theta_k is the measure 4 pi (r sin theta)^2 r dtheta
    of its sphere over 2 pi^2 r^3; this is the polar factor of
    ``build_rule``.
    """
    if r <= 0.0:
        raise ValueError("radius must be positive")
    if n < MIN_ORDER:
        raise ValueError(f"need at least {MIN_ORDER} nodes per angle")
    theta, wt = _polar_angles(n)
    z = r * np.cos(theta) + 1j * (r * np.sin(theta))
    return z, wt * np.sin(theta) ** 2


def build_rule(r: float, n: int) -> SphereQuadratureRule:
    """Product rule with n Gauss-Legendre nodes in each polar angle and
    2n uniform nodes in the azimuth: ``polar_rule`` times ``_s2_factor``."""
    return SphereQuadratureRule(r, (n, n, 2 * n), *polar_rule(r, n), *_s2_factor(n))


def integrate(rule: SphereQuadratureRule, u: Callable[[Quaternion], float]) -> float:
    """Sum w_i u(x_i) over the rule nodes for a pointwise integrand."""
    values = np.fromiter((u(Quaternion.from_array(row)) for row in rule.nodes), float, len(rule))
    return integrate_values(rule, values)


def integrate_values(rule: SphereQuadratureRule, values: np.ndarray) -> float:
    """Sum w_i v_i for values v at the rule nodes, one factor at a time."""
    s2_means = _s2_means(rule, values.reshape(len(rule.polar_z), -1), 0)
    return rule.measure * float(np.dot(rule.polar_weights, s2_means))


def _s2_means(rule: SphereQuadratureRule, values: np.ndarray, first: int) -> np.ndarray:
    """S^2 means of values (b, 2n^2) at the polar angles first, first + 1,
    ...; a non-finite value raises, naming its node."""
    means = values @ rule.s2_weights
    if not np.all(np.isfinite(means)) and not np.all(np.isfinite(values)):
        k = first * values.shape[1] + int(np.argmax(~np.isfinite(values)))
        node = Quaternion.from_array(rule.nodes[k])
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
# sphere conjugation maps
# ---------------------------------------------------------------------------


def _eval_conjugate(f, x: Quaternion) -> Quaternion:
    """f^c(x) from the stems: conj(F1)(z) + J conj(F2)(z)."""
    p = decompose(x)
    stem = f.stem_components(p.alpha, p.beta)
    if p.beta == 0.0:
        return stem.F1.conj()
    return stem.F1.conj() + p.unit * stem.F2.conj()


def T_map(f, x: Quaternion) -> Quaternion:
    """T_f(x) = f^c(x)^{-1} x f^c(x); maps each sphere S_x onto itself."""
    fc = _eval_conjugate(f, x)
    scale = f.stem_scale(x.abs())
    if fc.abs() <= DEGENERATE_REL * (1.0 + scale):
        raise DegeneratePointError("f^c vanishes at the requested point")
    return fc.inverse() * x * fc


def S_map(f, x: Quaternion) -> Quaternion:
    """S_f(x): conjugate of x within its sphere by f'_s and f.

    On the closure of the degenerate set (vanishing spherical
    derivative) the map is plain quaternionic conjugation.
    """
    p = decompose(x)
    if p.beta == 0.0:
        return x.conj()
    stem = f.stem_components(p.alpha, p.beta)
    scale = f.stem_scale(x.abs())
    if stem.F2.abs() <= DEGENERATE_REL * (1.0 + scale):
        return x.conj()
    v = stem.F1 + p.unit * stem.F2
    if v.abs() <= DEGENERATE_REL * (1.0 + scale):
        raise DegeneratePointError("S_f undefined where f vanishes")
    # f'_s = F2 / beta; the positive scalar 1/beta cancels in the conjugation
    s = stem.F2
    return s * (v.inverse() * x.conj() * v) * s.inverse()


def s_inverse_map(f, y: Quaternion) -> Quaternion:
    """Inverse of S_f: y -> T_f(conj(f'_s(y)^{-1} y f'_s(y)))."""
    p = decompose(y)
    stem = f.stem_components(p.alpha, p.beta)
    s = stem.F2  # f'_s direction; scalar factor cancels
    scale = f.stem_scale(y.abs())
    if s.abs() <= DEGENERATE_REL * (1.0 + scale):
        raise DegeneratePointError("inverse of S_f undefined on the degenerate set")
    w = (s.inverse() * y * s).conj()
    return T_map(f, w)


# ---------------------------------------------------------------------------
# array S_f on quaternion parts, checked against the scalar maps above
# ---------------------------------------------------------------------------


def _conjugate_by(x, q):
    """q^{-1} x q."""
    return qmul_parts(_qinv_parts(q), qmul_parts(x, q))


def _degenerate(q, scale: float) -> np.ndarray:
    return _qnorm2_parts(q) <= (DEGENERATE_REL * (1.0 + scale)) ** 2


def _split_parts(q):
    """Shadows alpha + i beta and units J of nonreal points q."""
    beta = np.sqrt(q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    return q[0] + 1j * beta, (0.0, q[1] / beta, q[2] / beta, q[3] / beta)


def _slice_value(f1, f2, junit):
    """F1 + J F2: the value at alpha + J beta of the function whose
    stems at alpha + i beta are F1, F2."""
    return tuple(a + b for a, b in zip(f1, qmul_parts(junit, f2)))


def _sf_parts(x, junit, f1, f2, scale: float):
    """S_f(x) = u^{-1} conj(x) u, u = f(x) F2^{-1} = F1 F2^{-1} + J, at
    x = alpha + J beta with stems F1, F2 at alpha + i beta: ``S_map``
    regrouped.  Conjugation where F2 is degenerate; not finite where f
    vanishes."""
    degenerate = _degenerate(f2, scale)
    with np.errstate(divide="ignore", invalid="ignore"):
        g = qmul_parts(f1, _qinv_parts(f2))
        u = tuple(np.where(degenerate, e, c + j) for e, c, j in zip((1.0, 0.0, 0.0, 0.0), g, junit))
        return _conjugate_by(_qconj_parts(x), u)


def _sf_inverse_parts(f, y, scale: float):
    """S_f^{-1}(y) = T_f(w), w = conj(s^{-1} y s) with s = F2 at y, and
    T_f(w) = fc^{-1} w fc with fc = conj(F1) + J conj(F2) at w, as in
    ``s_inverse_map`` and ``T_map``: y and w are split anew."""
    _, s = f.stem_arrays(_split_parts(y)[0])
    if np.any(_degenerate(s, scale)):
        raise DegeneratePointError("inverse of S_f undefined on the degenerate set")
    w = _qconj_parts(_conjugate_by(y, s))
    z, junit = _split_parts(w)
    fc = _slice_value(*map(_qconj_parts, f.stem_arrays(z)), junit)
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
# min |f|^2 = A - B on a node's sphere below this fraction of A is
# rounding noise: f vanishes on that sphere as far as doubles can tell
NODE_HIT_REL = 1e-14


def sphere_mean_log_abs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mean over J in S^2 of log|f| = (1/2) log(a + <b, J>) with |b| = b.

    <b, J> / b is uniform on [-1, 1] (Archimedes), so the mean is
    (1/4) int_{-1}^{1} log(a + b t) dt
      = (1/4) [((a+b) log(a+b) - (a-b) log(a-b)) / b - 2],
    evaluated as (1/2) log a + (1/4) g(b/a) with log1p, and by its
    Taylor series for small b/a.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        u = b / a
        u2 = u * u
        series = -u2 * (1.0 / 3.0 + u2 * (1.0 / 10.0 + u2 / 21.0))
        closed = ((1.0 + u) * np.log1p(u) - (1.0 - u) * np.log1p(-u)) / u - 2.0
        g = np.where(u < SERIES_U, series, closed)
        return 0.5 * np.log(a) + 0.25 * g


def boundary_means(f, r: float, n: int) -> BoundaryMeans:
    """The two normalized boundary means of the Jensen right-hand side,
    by the polar rule of order n with exact S^2 averaging.

    Requires f nonvanishing and pole-free on the sphere; a zero on the
    sphere of a polar node, or a non-finite stem, raises
    NonFiniteIntegrandError.
    """
    z, w = polar_rule(r, n)
    f1, f2 = f.stem_arrays(z)
    a = _qnorm2_parts(f1) + _qnorm2_parts(f2)
    _, b1, b2, b3 = qmul_parts(f1, _qconj_parts(f2))
    b = 2.0 * np.sqrt(b1 * b1 + b2 * b2 + b3 * b3)
    log_f = sphere_mean_log_abs(a, b)
    log_n = log_normal_values(f, z)
    bad = ~np.isfinite(log_f + log_n) | (a - b <= NODE_HIT_REL * a)
    if np.any(bad):
        k = int(np.argmax(bad))
        node = Quaternion(z[k].real, z[k].imag, 0.0, 0.0)
        raise NonFiniteIntegrandError(f"integrand not finite on the sphere through polar node {k} = {node}; "
                                      "a zero or pole sits on or near the integration sphere", node=node)
    mean_log_f = float(np.dot(w, log_f))
    return BoundaryMeans(mean_log_f, float(np.dot(w, log_n)) - mean_log_f)


def log_normal_values(f, z: np.ndarray) -> np.ndarray:
    """log|N(f)| at shadows z; N(f) is circular so only z matters.  A
    polynomial's den is 1, and log|1| = 0 leaves its values as they are."""
    fs = as_semiregular(f)
    nnum, den = normal(fs.num).real_coeffs(), fs.den.real_coeffs()
    return np.log(np.abs(horner(nnum, z))) - 2.0 * np.log(np.abs(horner(den, z)))


@dataclass(frozen=True)
class ProductRuleCheck:
    """The 3-D product-rule oracle: its own boundary means, and the
    largest violation of log|N(f)| = log|f| + log|f o S_f| over its
    nodes."""

    means: BoundaryMeans
    identity_max: float


def boundary_identity_residual(f, rule: SphereQuadratureRule) -> ProductRuleCheck:
    """Evaluate f and f o S_f at every node of the product rule.

    The stems and log|N(f)| are evaluated once per polar angle and
    broadcast against the 2n^2 units J.  ``ORACLE_BLOCK`` angles at a time
    go through S_f and are reduced to S^2 means, so the working arrays hold
    ``ORACLE_BLOCK`` * 2n^2 nodes at most; the polar weights are applied
    once at the end.
    """
    z = rule.polar_z[:, None]
    junit = (0.0, *np.ascontiguousarray(rule.s2_units[:, 1:].T))
    scale = f.stem_scale(rule.radius)
    log_n = log_normal_values(f, z)
    stems = f.stem_arrays(z)
    sphere_means = np.empty((2, len(z)))
    identity = 0.0
    for lo in range(0, len(z), ORACLE_BLOCK):
        blk = slice(lo, lo + ORACLE_BLOCK)
        alpha, beta = z[blk].real, z[blk].imag
        b1, b2 = (tuple(c[blk] for c in stem) for stem in stems)
        x = (alpha, beta * junit[1], beta * junit[2], beta * junit[3])
        y = _sf_parts(x, junit, b1, b2, scale)
        fx = _slice_value(b1, b2, junit)
        fy = _slice_value(b1, b2, (0.0, y[1] / beta, y[2] / beta, y[3] / beta))
        with np.errstate(divide="ignore", invalid="ignore"):
            log_fx = 0.5 * np.log(_qnorm2_parts(fx))
            log_fy = 0.5 * np.log(_qnorm2_parts(fy))
        sphere_means[:, blk] = _s2_means(rule, log_fx, lo), _s2_means(rule, log_fy, lo)
        identity = max(identity, float(np.max(np.abs(log_n[blk] - log_fx - log_fy))))
    mean_fx, mean_fy = sphere_means @ rule.polar_weights
    return ProductRuleCheck(BoundaryMeans(float(mean_fx), float(mean_fy)), identity)


def _sf_domain_points(f, r: float, n_points: int, rng: np.random.Generator) -> np.ndarray:
    """Rows of the first n_points boundary points x = r d / |d|, for
    successive rng.normal(size=4) draws d taken in batches, that pass
    the guards below; at most 40 n_points candidates are tried."""
    scale = f.stem_scale(r)
    kept, accepted = [], 0
    for _ in range(40):
        d = rng.normal(size=(n_points, 4))
        x = r * d / np.linalg.norm(d, axis=1)[:, None]
        z, junit = _split_parts(tuple(x.T))
        f1, f2 = f.stem_arrays(z)
        # conditioning guard: conjugating by a tiny spherical derivative
        # amplifies its own rounding error
        keep = (
            (z.imag >= 1e-3 * r)
            & (np.sqrt(_qnorm2_parts(f2)) > 1e-4 * (1.0 + scale))
            & (np.sqrt(_qnorm2_parts(_slice_value(f1, f2, junit))) > 1e-9 * (1.0 + scale))
        )
        kept.append(x[keep])
        accepted += len(kept[-1])
        if accepted >= n_points:
            return np.concatenate(kept)[:n_points]
    raise DegeneratePointError("could not sample enough boundary points in the S_f domain")


def sf_roundtrip_errors(f, r: float, n_points: int, rng: np.random.Generator) -> np.ndarray:
    """Inverse-roundtrip distances |x - S_f^{-1}(S_f(x))| at seeded
    boundary points, restricted to the domain of the diffeomorphism
    (away from the degenerate set and zeros of N(f))."""
    if n_points < 1:
        raise ValueError("need at least one sample point")
    scale = f.stem_scale(r)
    x = tuple(_sf_domain_points(f, r, n_points, rng).T)
    z, junit = _split_parts(x)
    y = _sf_parts(x, junit, *f.stem_arrays(z), scale)
    back = _sf_inverse_parts(f, y, scale)
    return np.sqrt(_qnorm2_parts(tuple(b - c for b, c in zip(back, x))))
