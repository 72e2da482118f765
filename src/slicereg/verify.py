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
gives each centre its own polynomial.  The exact sides stay one case
at a time.

The corpora come from ``Stream`` (standard-library Mersenne Twister draws,
so no suite imports ``numpy.random``), shaped so the identities are
exercised away from degenerate configurations: points keep |Im x| >= 0.25
(the angular operators lose meaning on the real axis), bilaplacian
polynomials have degree >= 6 (lower degrees are annihilated exactly by the
stencils and leave nothing to converge), and log|N(f)| is probed at points
well separated from the zero set.  The quadrature suite forms each N(f)
once and walks the product rule in blocks of ``ORACLE_BLOCK`` nodes.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .diffops import fd_bilaplace4, fd_crf, fd_crf_conj, fd_gamma, fd_laplace4, fd_laplace4_richardson
from .jensen import delta4_logNf_at0
from .quadrature import ORACLE_BLOCK, build_rule, s2_means, shoemake
from .quaternions import Quaternion, decompose, qmul_parts
from .slicepoly import SlicePolynomial, SliceStack, horner, log_abs, normal, spherical_derivative, spherical_value
from .zeros_poles import characteristic_poly, classify_zeros, normal_coeffs, total_multiplicity

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

    def to_dict(self) -> dict:
        return {
            "suite": self.name,
            "passed": self.passed,
            "summary": self.summary,
            "rows": [r.to_dict() for r in self.rows],
        }


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


def _exact_two_dx_sd(f: SlicePolynomial, x: Quaternion) -> Quaternion:
    """2 d/dx (f'_s) from exact stem partials of the circular stem
    G1 = F2/beta."""
    p = decompose(x)
    stem = f.stem_components(p.alpha, p.beta)
    _, _, d2a, d2b = f.stem_partials(p.alpha, p.beta)
    g1a = d2a / p.beta
    g1b = d2b / p.beta - stem.F2 / (p.beta * p.beta)
    return g1a - p.unit * g1b


def _exact_two_dxc_vs(f: SlicePolynomial, x: Quaternion) -> Quaternion:
    """2 d/dx^c (v_s f) from exact stem partials of the circular stem
    G1 = F1."""
    p = decompose(x)
    d1a, d1b, _, _ = f.stem_partials(p.alpha, p.beta)
    return d1a + p.unit * d1b


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


def _centres(cases) -> tuple[tuple, np.ndarray]:
    """The points of the cases as parts, one centre per case, and 1 + |x| of each."""
    points = [x for _, x in cases]
    return tuple(np.array(c) for c in zip(*(x.components() for x in points))), 1.0 + np.array([x.abs() for x in points])


def _case(v: tuple, idx: int) -> Quaternion:
    """Centre idx of parts v."""
    return Quaternion(*(float(p[idx]) for p in v))


def _fd_pair_suite(name: str, cases, identities) -> SuiteResult:
    """Generic first-order suite: run each identity at h and h/2.  An
    identity's FD side maps (SliceStack, centres, steps) to parts, one
    centre per case; its exact side maps (f, x) to a Quaternion."""
    stack = SliceStack(f for f, _ in cases)
    centres, scale = _centres(cases)
    steps = (1e-3 * scale, 0.5 * (1e-3 * scale))
    fd = [[fd_side(stack, centres, step) for step in steps] for _, fd_side, _ in identities]
    rows: list[ResidualRow] = []
    res_h: list[float] = []
    res_h2: list[float] = []
    for idx, (f, x) in enumerate(cases):
        for (ident, _, exact_side), values in zip(identities, fd):
            exact = exact_side(f, x)
            for step, v, sink in zip(steps, values, (res_h, res_h2)):
                r = (_case(v, idx) - exact).abs()
                sink.append(r)
                rows.append(ResidualRow(ident, idx, list(x.components()), float(step[idx]), r, 2))
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
            lambda fs, xs, h: fd_crf(fs.eval_parts, xs, h),
            lambda f, x: spherical_derivative(f, x) * (-2.0),
        ),
        (
            "d_crf(f) - 2 df/dx = 2 f'_s",
            lambda fs, xs, h: tuple(a - b * 2.0 for a, b in zip(fd_crf_conj(fs.eval_parts, xs, h),
                                                                fs.slice_derivative().eval_parts(xs))),
            lambda f, x: spherical_derivative(f, x) * 2.0,
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
            lambda fs, xs, h: fd_gamma(fs.eval_parts, xs, h),
            lambda f, x: (x.im() * spherical_derivative(f, x)) * 2.0,
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
            lambda f, x: Quaternion.real(0.0),
        ),
    ]
    return _fd_pair_suite("harmonic", cases, identities)


def _bilaplacian_suite(name: str, cases, u) -> SuiteResult:
    """u is the integrand of all cases at once, case idx at centre idx."""
    rows: list[ResidualRow] = []
    res_h: list[float] = []
    res_h2: list[float] = []
    res_term: list[float] = []
    centres, scale = _centres(cases)
    steps = (3e-2 * scale, 0.5 * (3e-2 * scale))
    coarse_all, fine_all = (fd_bilaplace4(u, centres, step) for step in steps)
    for idx, (_, x) in enumerate(cases):
        h, h2 = (float(step[idx]) for step in steps)
        coarse, fine = _case(coarse_all, idx), _case(fine_all, idx)
        raw_h, raw_h2 = coarse.abs(), fine.abs()
        rich = ((fine * 4.0 - coarse) / 3.0).abs()  # fd_bilaplace4_richardson, without recomputing
        res_h.append(raw_h)
        res_h2.append(raw_h2)
        res_term.append(rich)
        pt = list(x.components())
        rows.append(ResidualRow(name + " raw", idx, pt, h, raw_h, 2))
        rows.append(ResidualRow(name + " raw", idx, pt, h2, raw_h2, 2))
        rows.append(ResidualRow(name + " richardson", idx, pt, h, rich, 4))
    worst = float(np.max(res_term))
    tail = {"max_richardson_residual": worst, "tolerance": TOL_BILAPLACIAN}
    return _pair_result(name, rows, res_h, res_h2, worst, tail)


def suite_biharmonic(seed: int, n_cases: int = 20) -> SuiteResult:
    """Slice-regular functions are biharmonic; also dbar of the
    finite-difference laplacian vanishes."""
    stream = Stream(seed)
    cases = [(_random_poly(stream, 6, 8, decay=0.45), _random_point(stream, 0.3, 0.8)) for _ in range(n_cases)]
    stack = SliceStack(f for f, _ in cases)
    result = _bilaplacian_suite("bilaplace4(f)", cases, stack.eval_parts)

    # dbar_crf of the FD laplacian, composed at matching steps; one
    # Richardson halving for the terminal value, as for the bilaplacian
    rows = []
    res = []
    centres, scale = _centres(cases)
    steps = (3e-2 * scale, 0.5 * (3e-2 * scale))
    raw = [fd_crf(lambda y, s=s: fd_laplace4(stack.eval_parts, y, s), centres, s) for s in steps]
    for idx, (_, x) in enumerate(cases):
        h = float(steps[0][idx])
        raw_h, raw_h2 = (_case(v, idx) for v in raw)
        rich = ((raw_h2 * 4.0 - raw_h) / 3.0).abs()
        res.append(rich)
        pt = list(x.components())
        rows.append(ResidualRow("dbar_crf(laplace4 f) raw", idx, pt, h, raw_h.abs(), 2))
        rows.append(ResidualRow("dbar_crf(laplace4 f) richardson", idx, pt, h, rich, 4))
    result.rows.extend(rows)
    result.summary["max_dbar_laplace_residual"] = float(np.max(res))
    result.passed = result.passed and float(np.max(res)) <= TOL_BILAPLACIAN
    return result


def suite_bilaplacian_logn(seed: int, n_cases: int = 20) -> SuiteResult:
    """log|N(f)| is biharmonic away from the zero set; zeros are placed
    outside an annulus around the evaluation points."""
    stream = Stream(seed)
    cases = [(_product_poly(stream, 2.2, 3.0, max_factors=3)[0], _random_point(stream, 0.3, 0.6, beta_min=0.15))
             for _ in range(n_cases)]
    return _bilaplacian_suite("bilaplace4(log|N(f)|)", cases, partial(log_abs, SliceStack(normal(f) for f, _ in cases)))


def suite_delta4_at_0(seed: int, n_cases: int = 20) -> SuiteResult:
    """Closed-form Laplacian of log|N(f)| at 0 against Richardson FD,
    plus the analytic anchor at f = x + 1 (exact value 4)."""
    stream = Stream(seed)
    rows: list[ResidualRow] = []
    worst = 0.0
    polys = [_product_poly(stream, 0.8, 1.8)[0] for _ in range(n_cases)]
    origin = (np.zeros(n_cases),) * 4  # one centre per case
    fd = fd_laplace4_richardson(partial(log_abs, SliceStack(normal(f) for f in polys)), origin, 3e-2)[0]
    for idx, f in enumerate(polys):
        err = abs(delta4_logNf_at0(f) - float(fd[idx]))
        worst = max(worst, err)
        rows.append(ResidualRow("delta4 log|N| at 0: closed vs FD", idx, [0.0, 0.0, 0.0, 0.0], 3e-2, err, 4))
    anchor = abs(delta4_logNf_at0(SlicePolynomial.from_real([1.0, 1.0])) - 4.0)
    rows.append(ResidualRow("anchor x+1 -> 4", n_cases, [0.0, 0.0, 0.0, 0.0], 0.0, anchor, 0))
    passed = worst <= TOL_DELTA4_AT_0 and anchor <= 1e-12
    summary = {
        "max_closed_vs_fd": worst,
        "tolerance": TOL_DELTA4_AT_0,
        "anchor_error": anchor,
    }
    return SuiteResult("delta4-at-0", passed, summary, rows)


# ---------------------------------------------------------------------------
# quadrature and multiplicity suites
# ---------------------------------------------------------------------------


def suite_quadrature(seed: int) -> SuiteResult:
    stream = Stream(seed)
    rows: list[ResidualRow] = []
    worst_measure = 0.0
    for r in (0.8, 1.0, 1.5, 2.0):
        for n in (12, 24, 48):
            rule = build_rule(r, n)  # weights |bd B_r| w_k s_j, so sum each factor
            rel = abs(float(np.sum(rule.polar_weights)) * float(np.sum(rule.s2_weights)) - 1.0)
            worst_measure = max(worst_measure, rel)
            rows.append(ResidualRow("sum(w) vs 2 pi^2 r^3", n, [r, 0.0, 0.0, 0.0], 0.0, rel, 0))
    # mean log|N(f)| at n = 48 against its closed form: by the polar rule, and by the 3-D rule, walked by
    # blocks, on x -> log|N(f)(u x)|, which has the same mean; u (alpha_k + J beta_k) = alpha_k u + beta_k (u J)
    worst_cross = 0.0
    r, n = 1.0, 48
    rule = build_rule(r, n)
    cases = [_product_poly(stream, 0.3, 0.6, max_factors=3) for _ in range(5)]
    nnums = [normal_coeffs(f) for f, _, _ in cases]  # f is a polynomial: log|N(f)| = log|horner(nnum)|
    u, uj = ROTATION.components(), qmul_parts(ROTATION.components(), tuple(rule.s2_units.T))
    sphere_means = np.empty((len(cases), len(rule.polar_z)))
    for blk in rule.blocks(ORACLE_BLOCK):
        alpha, beta = rule.polar_z[blk].real[:, None], rule.polar_z[blk].imag[:, None]
        ux = [alpha * a + beta * b for a, b in zip(u, uj)]
        z_rotated = ux[0] + 1j * np.sqrt(ux[1] * ux[1] + ux[2] * ux[2] + ux[3] * ux[3])
        sphere_means[:, blk] = [s2_means(rule, np.log(np.abs(horner(nnum, z_rotated))), blk.start) for nnum in nnums]
    for idx, ((f, c, roots), nnum, means) in enumerate(zip(cases, nnums, sphere_means)):
        # N(f) = |c|^2 N(x - q_1) ... N(x - q_k), with roots Re q +- i |Im q|
        shadows = [complex(q.re(), q.abs_im()) for q in roots]
        exact = exact_mean_log_abs(c.norm2(), shadows + [s.conjugate() for s in shadows], r)
        polar = float(np.dot(rule.polar_weights, np.log(np.abs(horner(nnum, rule.polar_z)))))
        full = rule.measure * float(np.dot(rule.polar_weights, means)) / rule.measure  # the integral / |bd B_r|
        for identity, mean in (("polar rule vs exact (mean log|N|)", polar), ("3D rule vs exact (mean log|N(u x)|)", full)):
            rows.append(ResidualRow(identity, idx, [r, 0, 0, 0], 0.0, abs(mean - exact), 0))
            worst_cross = max(worst_cross, rows[-1].residual)
    passed = worst_measure <= TOL_MEASURE_REL and worst_cross <= TOL_CROSS_METHOD
    summary = {
        "max_measure_rel_error": worst_measure,
        "measure_tolerance": TOL_MEASURE_REL,
        "max_cross_method_error": worst_cross,
        "cross_method_tolerance": TOL_CROSS_METHOD,
    }
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
        nf = normal(f)
        zpoly = (f.real_coeffs(), 1) if f.is_slice_preserving() else (nf.real_coeffs(), 2)  # _zero_polynomial(f)
        found = dict.fromkeys(built, 0)
        for rec in classify_zeros(f, zpoly):
            found[min(built, key=lambda q: math.hypot(rec.alpha - q.w, rec.beta - q.abs_im()))] += rec.multiplicity
        gaps = []
        for q, m in built.items():
            gaps.append(abs(found[q] - m) + abs(total_multiplicity(nf, q) - 2 * m))
            rows.append(ResidualRow(f"m_N = 2 m_f = {2 * m} at ({q.w:.3g},{q.abs_im():.3g})", idx,
                                    list(q.components()), 0.0, gaps[-1], 0))
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
