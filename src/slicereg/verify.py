"""Seeded verification suites for the differential identities, the
quadrature construction, and multiplicity bookkeeping.

Each finite-difference suite evaluates an identity at a step h and at
h/2 against an exact algebraic side, records per-case residual rows,
and checks second-order convergence (residual ratio in [3.5, 4.5]) plus
a terminal residual threshold.  Bilaplacian identities run the raw
composed stencil for the convergence pair and form one Richardson
halving from that pair for the terminal value, which is how those
operators are meant to be used.  The stencils are the batched ones of
``diffops``, and each suite makes one stencil call per identity and
step: its cases are the centres, with a step each, and a ``SliceStack``
gives each centre its own polynomial.  The exact sides take the same
stack and centres, and read f' from its one ``slice_derivative``.  Points,
values and exact sides are pairs (see ``quaternions``).  Every suite takes
its residuals as arrays over its cases and folds them with numpy, so a
NaN residual fails its suite.

The corpora come from ``Stream`` (standard-library Mersenne Twister draws,
so no suite imports ``numpy.random``), shaped so the identities are
exercised away from degenerate configurations: points keep |Im x| >= 0.25
(the angular operators lose meaning on the real axis), bilaplacian
polynomials have degree >= 6 (lower degrees are annihilated exactly by the
stencils and leave nothing to converge), and log|N(f)| is probed at points
well separated from the zero set.  The suites read N(f) only through the
polynomial's ``zero_polynomial`` (c, divisor), N(f) = c^(2 / divisor), as
the boundary means do: the two log|N(f)| stencil suites run the cases' c
as columns of one ``horner``, and the quadrature suite takes the means of
log|c| case by case, walking the product rule in blocks of
``ORACLE_BLOCK`` nodes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .diffops import fd_bilaplace4, fd_crf, fd_crf_conj, fd_gamma, fd_laplace4, fd_laplace4_richardson, richardson
from .jensen import delta4_logNf_at0
from .quadrature import ORACLE_BLOCK, build_rule, s2_means, shoemake
from .quaternions import Quaternion, over, pmul, pnorm2, split, to_parts
from .slicepoly import SlicePolynomial, SliceStack, horner, spherical_derivative, spherical_value
from .zeros_poles import _division_multiplicity, characteristic_poly, classify_zeros

__all__ = ["SuiteResult", "ResidualRow", "run_suite", "SUITES", "SUITE_ORDER"]

RATIO_WINDOW = (3.5, 4.5)
TOL_FIRST_ORDER = 1e-6
TOL_BILAPLACIAN = 1e-3
TOL_DELTA4_AT_0 = 1e-4
TOL_MEASURE_REL = 1e-10
TOL_CROSS_METHOD = 1e-12
# x -> ROTATION x is an isometry of R^4 that makes circular integrands non-circular
ROTATION = Quaternion(1.0, 2.0, 3.0, 4.0) / math.sqrt(30.0)


@dataclass(frozen=True)
class ResidualRow:
    identity: str
    case: int
    point: list[float]
    h: float
    residual: float
    expected_order: int

    def to_dict(self) -> dict:
        return {"identity": self.identity, "case": self.case, "point": self.point, "h": self.h,
                "residual": self.residual, "expected_order": self.expected_order}


@dataclass
class SuiteResult:
    name: str
    passed: bool
    summary: dict
    rows: list[ResidualRow] = field(default_factory=list)


# ---------------------------------------------------------------------------
# random corpora
# ---------------------------------------------------------------------------


class Stream:
    """Seeded draws from ``random.Random(seed).random()``, the one sequence
    CPython keeps across versions for an integer seed: lo + (hi - lo) u for a
    uniform, lo + floor((hi - lo) u) for an integer in [lo, hi), and a unit
    quaternion, uniform on S^3, from three u through ``shoemake``."""

    def __init__(self, seed: int):
        self._next = random.Random(seed).random

    def uniform(self, lo: float, hi: float, size: int | None = None):
        if size is None:
            return lo + (hi - lo) * self._next()
        return np.array([self.uniform(lo, hi) for _ in range(size)])

    def integer(self, lo: int, hi: int) -> int:
        return lo + int((hi - lo) * self._next())

    def choice(self, items):
        return items[self.integer(0, len(items))]

    def unit(self) -> Quaternion:
        return Quaternion(*map(float, shoemake(self._next(), self._next(), self._next())))


def _random_poly(stream: Stream, lo: int, hi: int, decay: float = 0.5) -> SlicePolynomial:
    deg = stream.integer(lo, hi + 1)
    coeffs = [Quaternion.from_array(stream.uniform(-1.0, 1.0, 4) * decay**m) for m in range(deg + 1)]
    lead = coeffs[-1]
    if lead.abs() < 0.25 * decay**deg:
        coeffs[-1] = lead + Quaternion.real(0.5 * decay**deg)
    return SlicePolynomial(coeffs)


def _random_point(stream: Stream, rmin: float = 0.4, rmax: float = 1.2, beta_min: float = 0.25) -> Quaternion:
    while True:
        x = stream.unit() * stream.uniform(rmin, rmax)
        if x.abs_im() >= beta_min:
            return x


def _product_poly(stream: Stream, rmin: float, rmax: float, max_factors: int = 4):
    """(f, c, [q_1, ..., q_k]) for f = c (x - q_1) * ... * (x - q_k) with q_k in
    an annulus: f(0) != 0 and the zeros are known by construction."""
    c = Quaternion.from_array(stream.uniform(-1.0, 1.0, 4))
    if c.abs() < 0.3:
        c = c + Quaternion.real(0.5)
    f = SlicePolynomial([c])
    roots = []
    for _ in range(stream.integer(1, max_factors + 1)):
        roots.append(stream.unit() * stream.uniform(rmin, rmax))
        f = f * SlicePolynomial.linear(roots[-1])
    return f, c, roots


def exact_mean_log_abs(lead: float, roots, r: float) -> float:
    """Mean over the 3-sphere of radius r of log|p| for the real
    polynomial p = lead prod_a (x - a), roots a closed under conjugation.

    p is circular: this is the mean of log|p(r e^{i theta})| with weight
    (2/pi) sin^2 theta on [0, pi].  Expand log|1 - a/z| (|a| < r) or
    log|1 - z/a| (|a| > r) in powers of e^{i theta}: only cos(2 theta)
    has a nonzero mean, -1/2, and sine terms cancel between conjugate
    roots.  So a root adds log max(r, |a|) + Re((a/r)^2) / 4 inside and
    log |a| + Re((r/a)^2) / 4 outside.
    """
    total = math.log(abs(lead))
    for a in roots:
        ratio = a / r if abs(a) < r else r / a
        total += math.log(max(r, abs(a))) + 0.25 * (ratio * ratio).real
    return total


# ---------------------------------------------------------------------------
# exact algebraic sides
# ---------------------------------------------------------------------------


def _exact_two_dx_sd(fs: SliceStack, xs: tuple) -> tuple:
    """2 d/dx (f'_s) at the centres xs from the stems G of f': the circular
    stem F2/beta of f'_s has partials G2/beta in alpha and G1/beta -
    F2/beta^2 in beta."""
    alpha, beta, unit = split(xs)
    z = alpha + 1j * beta
    g1, g2 = fs.slice_derivative().stem_arrays(z)
    db = tuple(over(a, beta) - over(b, beta * beta) for a, b in zip(g1, fs.stem_arrays(z)[1]))
    return tuple(over(a, beta) - b for a, b in zip(g2, pmul(unit, db)))


def _exact_two_dxc_vs(fs: SliceStack, xs: tuple) -> tuple:
    """2 d/dx^c (v_s f) at the centres xs from the stems G of f': the
    circular stem F1 of v_s f has partials G1 in alpha and -G2 in beta."""
    alpha, beta, unit = split(xs)
    g1, g2 = fs.slice_derivative().stem_arrays(alpha + 1j * beta)
    return tuple(a + b for a, b in zip(g1, pmul(unit, tuple(-c for c in g2))))


# ---------------------------------------------------------------------------
# finite-difference suites
# ---------------------------------------------------------------------------


def _pair_result(name: str, rows, res_h, res_h2, worst: float, tail: dict) -> SuiteResult:
    """Passes when the mean residuals at h and h/2 converge at second
    order and worst is within tail["tolerance"]; tail ends the summary."""
    mean_h, mean_h2 = float(np.mean(res_h)), float(np.mean(res_h2))
    ratio = mean_h / mean_h2 if mean_h2 > 0 else float("inf")
    passed = RATIO_WINDOW[0] <= ratio <= RATIO_WINDOW[1] and worst <= tail["tolerance"]
    summary = {"mean_residual_h": mean_h, "mean_residual_h_half": mean_h2, "convergence_ratio": ratio,
               "ratio_window": list(RATIO_WINDOW), **tail}
    return SuiteResult(name, passed, summary, rows)


def _centres(cases, h: float) -> tuple[list, tuple, tuple]:
    """The points of the cases, the same as a pair, one centre per case, and
    the steps h (1 + |x|) and half of it, one per case."""
    points = [x for _, x in cases]
    step = h * (1.0 + np.array([x.abs() for x in points]))
    return points, tuple(np.array([x.pair() for x in points]).T), (step, 0.5 * step)


def _gap(a, b=(0.0, 0.0)) -> np.ndarray:
    """|a - b| of pairs, centre by centre, with the float operations of
    ``Quaternion.abs``; b defaults to 0, and x - 0.0 is bitwise x."""
    return np.sqrt(pnorm2([p - q for p, q in zip(a, b)]))


def _rows(points, columns) -> list[ResidualRow]:
    """The rows case by case, one per (identity, steps, residuals, order)
    column in column order; steps and residuals hold a value per case, or
    steps one value for all of them."""
    columns = [(ident, np.broadcast_to(steps, len(points)), res, order) for ident, steps, res, order in columns]
    return [ResidualRow(ident, idx, list(x), float(steps[idx]), float(res[idx]), order)
            for idx, x in enumerate(points) for ident, steps, res, order in columns]


def _fd_pair_suite(name: str, cases, identities) -> SuiteResult:
    """Generic first-order suite: run each identity at h and h/2.  Both
    sides of an identity take the ``SliceStack`` of the cases and their
    centres, one per case, and return pairs; the FD side also takes the steps."""
    stack = SliceStack(f for f, _ in cases)
    points, centres, steps = _centres(cases, 1e-3)
    columns = []
    for ident, fd, exact in identities:
        want = exact(stack, centres)
        columns += [(ident, step, _gap(fd(stack, centres, step), want), 2) for step in steps]
    rows = _rows(points, columns)
    # the residuals at h and at h/2 in row order, case by case
    res_h, res_h2 = (np.column_stack([res for _, _, res, _ in columns[k::2]]).ravel() for k in (0, 1))
    worst = float(np.max(res_h))
    tail = {"max_residual_at_h": worst, "max_residual_at_h_half": float(np.max(res_h2)), "tolerance": TOL_FIRST_ORDER}
    return _pair_result(name, rows, res_h, res_h2, worst, tail)


def suite_crf(seed: int, n_cases: int = 20) -> SuiteResult:
    """Cauchy-Riemann-Fueter identities, including the conjugated
    operator and the circular-function variant with a nonvanishing
    d/dx^c side."""
    stream = Stream(seed)
    cases = [(_random_poly(stream, 2, 4, decay=0.25), _random_point(stream, 0.4, 0.85)) for _ in range(n_cases)]

    identities = [
        (
            "dbar_crf(f) = -2 f'_s",
            lambda fs, xs, h: fd_crf(fs.eval, xs, h),
            lambda fs, xs: tuple(v * (-2.0) for v in spherical_derivative(fs, xs)),
        ),
        (
            "d_crf(f) - 2 df/dx = 2 f'_s",
            lambda fs, xs, h: tuple(a - b * 2.0 for a, b in zip(fd_crf_conj(fs.eval, xs, h),
                                                                fs.slice_derivative().eval(xs))),
            lambda fs, xs: tuple(v * 2.0 for v in spherical_derivative(fs, xs)),
        ),
        (
            "2 d/dx f'_s = d_crf(f'_s)",
            lambda fs, xs, h: fd_crf_conj(partial(spherical_derivative, fs), xs, h),
            _exact_two_dx_sd,
        ),
        (
            "dbar_crf(v_s f) = 2 d/dx^c (v_s f)",
            lambda fs, xs, h: fd_crf(partial(spherical_value, fs), xs, h),
            _exact_two_dxc_vs,
        ),
    ]
    return _fd_pair_suite("crf", cases, identities)


def suite_gamma(seed: int, n_cases: int = 20) -> SuiteResult:
    stream = Stream(seed)
    cases = [(_random_poly(stream, 2, 4, decay=0.25), _random_point(stream, 0.4, 0.85)) for _ in range(n_cases)]
    identities = [
        (
            "gamma(f) = 2 Im(x) f'_s",
            lambda fs, xs, h: fd_gamma(fs.eval, xs, h),
            lambda fs, xs: tuple(v * 2.0 for v in pmul((xs[0] - xs[0].real, xs[1]), spherical_derivative(fs, xs))),
        ),
    ]
    return _fd_pair_suite("gamma", cases, identities)


def suite_harmonic(seed: int, n_cases: int = 20) -> SuiteResult:
    """Harmonicity of the spherical derivative; degree >= 6 so the
    stencil is not exact on the integrand."""
    stream = Stream(seed)
    cases = [(_random_poly(stream, 6, 7, decay=0.3), _random_point(stream, 0.4, 0.9)) for _ in range(n_cases)]
    identities = [
        (
            "laplace4(f'_s) = 0",
            lambda fs, xs, h: fd_laplace4(partial(spherical_derivative, fs), xs, h),
            lambda fs, xs: (np.zeros_like(xs[0]),) * 2,
        ),
    ]
    return _fd_pair_suite("harmonic", cases, identities)


def _bilaplacian_suite(name: str, cases, u) -> SuiteResult:
    """u is the integrand of all cases at once, case idx at centre idx."""
    points, centres, steps = _centres(cases, 3e-2)
    coarse, fine = (fd_bilaplace4(u, centres, step) for step in steps)
    res_h, res_h2 = _gap(coarse), _gap(fine)
    rich = _gap(richardson(coarse, fine))  # fd_bilaplace4_richardson, without recomputing
    rows = _rows(points, [(name + " raw", steps[0], res_h, 2), (name + " raw", steps[1], res_h2, 2),
                          (name + " richardson", steps[0], rich, 4)])
    worst = float(np.max(rich))
    tail = {"max_richardson_residual": worst, "tolerance": TOL_BILAPLACIAN}
    return _pair_result(name, rows, res_h, res_h2, worst, tail)


def suite_biharmonic(seed: int, n_cases: int = 20) -> SuiteResult:
    """Slice-regular functions are biharmonic; also dbar of the
    finite-difference laplacian vanishes."""
    stream = Stream(seed)
    cases = [(_random_poly(stream, 6, 8, decay=0.45), _random_point(stream, 0.3, 0.8)) for _ in range(n_cases)]
    stack = SliceStack(f for f, _ in cases)
    result = _bilaplacian_suite("bilaplace4(f)", cases, stack.eval)

    # dbar_crf of the FD laplacian, composed at matching steps; one
    # Richardson halving for the terminal value, as for the bilaplacian
    points, centres, steps = _centres(cases, 3e-2)
    raw = [fd_crf(lambda y, s=s: fd_laplace4(stack.eval, y, s), centres, s) for s in steps]
    rich = _gap(richardson(*raw))
    result.rows += _rows(points, [("dbar_crf(laplace4 f) raw", steps[0], _gap(raw[0]), 2),
                                  ("dbar_crf(laplace4 f) richardson", steps[0], rich, 4)])
    worst = float(np.max(rich))
    result.summary["max_dbar_laplace_residual"] = worst
    result.passed = result.passed and worst <= TOL_BILAPLACIAN
    return result


def _log_normal_stack(polys):
    """log|N(f)| as a stencil integrand, polynomial j at centre j: at the
    shadows z of pair points whose last axis runs over polys, column j is
    (2 / divisor) log|c(z)| for the ``zero_polynomial`` (c, divisor) of
    polys[j], as ``log_normal_values`` takes it, and one ``horner`` runs
    every c as a column of one (d+1, m) array."""
    zeros = [f.zero_polynomial for f in polys]
    columns = np.zeros((max(len(c) for c, _ in zeros), len(zeros)))
    for column, (c, _) in zip(columns.T, zeros):
        column[:len(c)] = c
    power = np.array([2 / divisor for _, divisor in zeros])

    def u(x) -> np.ndarray:
        alpha, beta, _ = split(x)
        return power * np.log(np.abs(horner(columns, alpha + 1j * beta)))

    return u


def suite_bilaplacian_logn(seed: int, n_cases: int = 20) -> SuiteResult:
    """log|N(f)| is biharmonic away from the zero set; zeros are placed
    outside an annulus around the evaluation points."""
    stream = Stream(seed)
    cases = [(_product_poly(stream, 2.2, 3.0, max_factors=3)[0], _random_point(stream, 0.3, 0.6, beta_min=0.15))
             for _ in range(n_cases)]
    return _bilaplacian_suite("bilaplace4(log|N(f)|)", cases, _log_normal_stack([f for f, _ in cases]))


def suite_delta4_at_0(seed: int, n_cases: int = 20) -> SuiteResult:
    """Closed-form Laplacian of log|N(f)| at 0 against Richardson FD,
    plus the analytic anchor at f = x + 1 (exact value 4)."""
    stream = Stream(seed)
    polys = [_product_poly(stream, 0.8, 1.8)[0] for _ in range(n_cases)]
    origin = (np.zeros(n_cases, complex),) * 2  # one centre per case
    fd = fd_laplace4_richardson(_log_normal_stack(polys), origin, 3e-2)[0].real
    err = np.abs(np.array([delta4_logNf_at0(f) for f in polys]) - fd)
    rows = _rows([[0.0, 0.0, 0.0, 0.0]] * n_cases, [("delta4 log|N| at 0: closed vs FD", 3e-2, err, 4)])
    worst = float(np.max(err))
    anchor = abs(delta4_logNf_at0(SlicePolynomial.from_real([1.0, 1.0])) - 4.0)
    rows.append(ResidualRow("anchor x+1 -> 4", n_cases, [0.0, 0.0, 0.0, 0.0], 0.0, anchor, 0))
    passed = worst <= TOL_DELTA4_AT_0 and anchor <= 1e-12
    summary = {"max_closed_vs_fd": worst, "tolerance": TOL_DELTA4_AT_0, "anchor_error": anchor}
    return SuiteResult("delta4-at-0", passed, summary, rows)


# ---------------------------------------------------------------------------
# quadrature and multiplicity suites
# ---------------------------------------------------------------------------


def suite_quadrature(seed: int) -> SuiteResult:
    stream = Stream(seed)
    rows: list[ResidualRow] = []
    for r in (0.8, 1.0, 1.5, 2.0):
        for n in (12, 24, 48):
            rule = build_rule(r, n)  # weights |bd B_r| w_k s_j, so sum each factor
            rel = abs(float(np.sum(rule.polar_weights)) * float(np.sum(rule.s2_weights)) - 1.0)
            rows.append(ResidualRow("sum(w) vs 2 pi^2 r^3", n, [r, 0.0, 0.0, 0.0], 0.0, rel, 0))
    worst_measure = float(np.max([row.residual for row in rows]))
    # mean log|N(f)| at n = 48 against its closed form: by the polar rule, and by the 3-D rule, walked by
    # blocks, on x -> log|N(f)(u x)|, which has the same mean; u (alpha_k + J beta_k) = alpha_k u + beta_k (u J)
    r, n = 1.0, 48
    rule = build_rule(r, n)
    cases = [_product_poly(stream, 0.3, 0.6, max_factors=3) for _ in range(5)]
    zeros = [f.zero_polynomial for f, _, _ in cases]
    uj = [c.copy() for c in to_parts(pmul(ROTATION.pair(), tuple(rule.s2_units.view(complex).T)))]
    sphere_means = np.empty((len(cases), len(rule.polar_z)))
    for blk in rule.blocks(ORACLE_BLOCK):
        alpha, beta = rule.polar_z[blk].real[:, None], rule.polar_z[blk].imag[:, None]
        ux = [alpha * a + beta * b for a, b in zip(ROTATION, uj)]  # the parts of u x, real
        z_rotated = ux[0] + 1j * np.sqrt(ux[1] * ux[1] + ux[2] * ux[2] + ux[3] * ux[3])
        sphere_means[:, blk] = [s2_means(rule, np.log(np.abs(horner(c, z_rotated))), blk.start) for c, _ in zeros]
    # N(f) = |c|^2 N(x - q_1) ... N(x - q_k): the roots Re q + i |Im q| of every q, then their conjugates
    shadows = [[complex(q.re(), b * q.abs_im()) for b in (1, -1) for q in roots] for _, _, roots in cases]
    exact = np.array([exact_mean_log_abs(c.norm2(), s, r) for (_, c, _), s in zip(cases, shadows)])
    # N(f) = c^(2 / divisor) for the zero polynomial (c, divisor), and the means are linear in log|c|
    power = np.array([2 / divisor for _, divisor in zeros])
    polar = power * np.array([np.dot(rule.polar_weights, np.log(np.abs(horner(c, rule.polar_z)))) for c, _ in zeros])
    full = power * np.array([np.dot(rule.polar_weights, means) for means in sphere_means])
    cross = (np.abs(polar - exact), np.abs(full - exact))
    rows += _rows([[r, 0, 0, 0]] * len(cases), [("polar rule vs exact (mean log|N|)", 0.0, cross[0], 0),
                                                 ("3D rule vs exact (mean log|N(u x)|)", 0.0, cross[1], 0)])
    worst_cross = float(np.max(cross))
    passed = worst_measure <= TOL_MEASURE_REL and worst_cross <= TOL_CROSS_METHOD
    summary = {"max_measure_rel_error": worst_measure, "measure_tolerance": TOL_MEASURE_REL,
               "max_cross_method_error": worst_cross, "cross_method_tolerance": TOL_CROSS_METHOD}
    return SuiteResult("quadrature", passed, summary, rows)


def suite_multiplicity(seed: int, n_cases: int = 50) -> SuiteResult:
    """Doubling law against the built multiplicities, over random products
    of x - q and Delta_q, q from small pools, with deliberate repetitions:
    each factor's zeros fill q's sphere with multiplicity its degree, so f's
    are known before any root is found.  Each record of f's one
    ``classify_zeros`` pass goes to its nearest built sphere (the pools'
    spheres lie >= 0.538 apart).  Per built sphere the matched records'
    multiplicities must sum to the built one, and N(f)'s, counted by
    division at q, must be twice it."""
    stream = Stream(seed)
    rows: list[ResidualRow] = []
    failures = 0
    # small pools so repeated factors (multiplicity > 1) are common
    reals = [Quaternion.real(0.5), Quaternion.real(-0.6)]
    points = [Quaternion(0.3, 0.7, 0.0, 0.0), Quaternion(-0.4, 0.0, 0.5, 0.0)]
    for idx in range(n_cases):
        f = SlicePolynomial.from_real([1.0])
        built: dict[Quaternion, int] = {}
        for _ in range(stream.integer(2, 5)):
            kind = stream.integer(0, 3)
            q = stream.choice(reals if kind == 0 else points)
            factor = characteristic_poly(q) if kind == 2 else SlicePolynomial.linear(q)
            f = f * factor
            built[q] = built.get(q, 0) + factor.degree
        c, divisor = f.zero_polynomial
        normal_c = np.convolve(c, c) if divisor == 1 else c  # N(f) = f^2 for a slice-preserving f
        found = dict.fromkeys(built, 0)
        for rec in classify_zeros(f):
            found[min(built, key=lambda q: math.hypot(rec.alpha - q.w, rec.beta - q.abs_im()))] += rec.multiplicity
        gaps = []
        for q, m in built.items():
            alpha, beta, _ = split(q.pair())  # N(f)'s count at q: its divisions by q's real factor, twice for a Delta_q
            m_normal = _division_multiplicity(normal_c, alpha, beta) * (1 if beta == 0.0 else 2)
            gaps.append(abs(found[q] - m) + abs(m_normal - 2 * m))
            rows.append(ResidualRow(f"m_N = 2 m_f = {2 * m} at ({q.w:.3g},{q.abs_im():.3g})", idx,
                                    list(q), 0.0, gaps[-1], 0))
        failures += any(gaps)
    summary = {"cases": n_cases, "failures": failures}
    return SuiteResult("multiplicity", failures == 0, summary, rows)


SUITES = {
    "crf": suite_crf,
    "gamma": suite_gamma,
    "harmonic": suite_harmonic,
    "biharmonic": suite_biharmonic,
    "bilaplacian-logN": suite_bilaplacian_logn,
    "delta4-at-0": suite_delta4_at_0,
    "quadrature": suite_quadrature,
    "multiplicity": suite_multiplicity,
}
SUITE_ORDER = list(SUITES)


def run_suite(name: str, seed: int) -> SuiteResult:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {', '.join(SUITE_ORDER)}")
    return SUITES[name](seed)
