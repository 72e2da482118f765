"""Assembly of the four-dimensional Jensen formula, regular and
semiregular versions.

Left side: log|f(0)| plus two curvature terms built from the first and
second slice derivatives at the origin; algebraically the same data as
the Laplacian of log|N(f)| at 0, lhs = log|f(0)| + r^2/16 * Delta_4
log|N(f)|(0).  The diagnostic ``lhs_cross_check`` takes that Laplacian
from the lowest coefficients of N(num) and den instead, so a wrong
curvature term shows in it.

Right side: the half-sum of the two boundary means of log|f| and
log|f o S_f|, minus a correction per zero (real zeros with a radial
term, nonreal zeros with a sphere term in |a| and t(a)), plus the
mirrored corrections per pole.  Zeros and poles enter with their total
multiplicities / orders; nonuniform spherical poles contribute extra
zero-type terms at their exceptional points, weighted by the isolated
multiplicity.

Real zeros and poles at negative positions use |r_k| inside the
logarithm (the quartic term only sees r_k^2); such cases are flagged in
the report rather than silently normalized.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    PoleAtOriginError,
    PoleOnBoundaryError,
    ZeroAtOriginError,
    ZeroOnBoundaryError,
)
from .quaternions import Quaternion, unit_from_vector
from .quadrature import (
    boundary_identity_residual,
    boundary_means,
    build_rule,
    oracle_orders,
    sf_roundtrip_errors,
)
from .zeros_poles import (
    FunctionAnalysis,
    PoleRecord,
    ZeroRecord,
    analyze,
    as_semiregular,
    on_boundary,
)

__all__ = [
    "JensenReport",
    "delta4_logNf_at0",
    "jensen_lhs",
    "zero_sum",
    "pole_sum",
    "jensen_check",
    "boundary_gap",
]

ORIGIN_REL = 1e-12
DEFAULT_N = 48  # nodes per panel of the polar rule


def _origin_terms(f, r: float) -> tuple[tuple[float, float, float], float]:
    """The three lhs terms at radius r and Delta_4 log|N(f)|(0), from one
    evaluation of f(0), f'(0), f''(0); raises on a pole or a zero at the
    origin."""
    fs = as_semiregular(f)
    d0 = fs.den.coefficient(0).w
    if abs(d0) <= ORIGIN_REL * (1.0 + fs.den.coefficient_scale()):
        raise PoleAtOriginError("denominator vanishes at the origin")
    f0, f1, f2 = fs.derivatives_at_origin()
    if f0.abs() <= ORIGIN_REL * (1.0 + fs.num.coefficient_scale()):
        raise ZeroAtOriginError("f(0) = 0; the formula needs log|f(0)|")
    inv = f0.inverse()
    a = f1 * inv
    square, second = (a * a).re(), (inv * f2).re()
    quarter = r * r / 4.0
    return (math.log(f0.abs()), quarter * square, -quarter * second), -4.0 * second + 4.0 * square


def _delta4_logNf_from_coefficients(fs) -> float:
    """Delta_4 log|N(f)|(0) = D(N(num)) - 2 D(den), where D(p) = 2 (c1/c0)^2
    - 4 c2/c0 for the lowest coefficients c of a real p; shares no
    arithmetic with ``_origin_terms``."""
    a0, a1, a2 = (fs.num.coefficient(m) for m in range(3))
    n_num = (a0.norm2(), 2.0 * (a0 * a1.conj()).re(), a1.norm2() + 2.0 * (a0 * a2.conj()).re())
    d = [2.0 * (c1 / c0) ** 2 - 4.0 * c2 / c0 for c0, c1, c2 in (n_num, [fs.den.coefficient(m).w for m in range(3)])]
    return d[0] - 2.0 * d[1]


def delta4_logNf_at0(f) -> float:
    """Closed form for Delta_4 log|N(f)| at the origin:

        -4 Re(f(0)^{-1} f''(0)) + 4 Re((f'(0) f(0)^{-1})^2).

    The square term needs |a|^2 = |f'(0)|^2/|f(0)|^2 together with
    Re(a) = Re(f(0) conj(f'(0)))/|f(0)|^2, which pins the operand order
    to a = f'(0) f(0)^{-1} (up to conjugation, invisible under
    Re(a^2)); verified against the finite-difference Laplacian.
    """
    return _origin_terms(f, 1.0)[1]


def jensen_lhs(f, r: float) -> float:
    """log|f(0)| + (r^2/4) Re((f'(0) f(0)^{-1})^2)
    - (r^2/4) Re(f(0)^{-1} f''(0)); operand order as in
    delta4_logNf_at0, of which this is log|f(0)| + (r^2/16) times the
    value."""
    t0, t1, t2 = _origin_terms(f, r)[0]
    return t0 + t1 + t2


def point_term(norm2: float, trace: float, r: float) -> float:
    """Correction contributed by one unit of multiplicity at a point y
    with n(y) = norm2 and t(y) = trace:

        log(r/|y|) + (|y|^4 - r^4)/(8 r^2 |y|^4) (t(y)^2 - 2|y|^2).

    At real y this reduces exactly to the radial form
    log(r/|y|) + (y^4 - r^4)/(4 r^2 y^2).  Total multiplicities and
    spherical orders both already carry the conjugate-pair doubling of
    the normal function, so every unit of weight contributes one such
    term; the weights make real and nonreal bookkeeping uniform.
    """
    na = norm2
    return math.log(r / math.sqrt(na)) + (na * na - r**4) / (8.0 * r * r * na * na) * (
        trace * trace - 2.0 * na
    )


def _check_inside(radius: float, r: float, what: str) -> None:
    if radius <= ORIGIN_REL * max(r, 1.0):
        raise (ZeroAtOriginError if what == "zero" else PoleAtOriginError)(
            f"{what} at the origin"
        )
    if radius >= r or on_boundary(radius, r):
        raise (ZeroOnBoundaryError if what == "zero" else PoleOnBoundaryError)(
            f"{what} at radius {radius:.12g} not strictly inside r={r}"
        )


def zero_sum(zeros: list[ZeroRecord], r: float) -> float:
    """Total zero correction (the quantity subtracted on the right side),
    each point weighted by its total multiplicity."""
    total = 0.0
    for rec in zeros:
        _check_inside(rec.point_radius, r, "zero")
        a = rec.representative
        total += rec.multiplicity * point_term(a.norm2(), a.trace(), r)
    return total


def pole_sum(poles: list[PoleRecord], r: float) -> float:
    """Total pole correction (added on the right side): real poles
    weighted by their order, pole spheres by their spherical order."""
    total = 0.0
    for rec in poles:
        _check_inside(rec.point_radius, r, "pole")
        if rec.kind == "real":
            total += rec.order * point_term(rec.alpha * rec.alpha, 2.0 * rec.alpha, r)
        else:
            b = rec.representative
            total += rec.spherical_order * point_term(b.norm2(), b.trace(), r)
    return total


def boundary_gap(f, r: float) -> float:
    """min over zero and pole spheres of |sphere radius - r| / r."""
    return analyze(f, r).boundary_gap


@dataclass(frozen=True)
class JensenReport:
    lhs: float
    rhs: float
    residual: float
    breakdown: dict
    zeros: list[dict]
    poles: list[dict]
    config: dict
    diagnostics: dict
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)


def _boundary_hypotheses(analysis: FunctionAnalysis, r: float) -> None:
    for rec in analysis.zeros:
        if on_boundary(rec.point_radius, r):
            raise ZeroOnBoundaryError(f"zero sphere at radius {rec.point_radius:.12g} on the boundary r={r}")
    for alpha, beta, _ in analysis.pole_spheres:
        rad = math.hypot(alpha, beta)
        if on_boundary(rad, r):
            raise PoleOnBoundaryError(f"pole sphere at radius {rad:.12g} on the boundary r={r}")


def _representative_spread(records: list[ZeroRecord | PoleRecord], r: float, rng) -> float:
    """Spread of the correction term across random choices of the sphere
    representative; must vanish since |a| and t(a) are constant on the
    sphere."""
    worst = 0.0
    for rec in records:
        if rec.beta == 0.0:
            continue
        base = point_term(rec.representative.norm2(), rec.representative.trace(), r)
        for _ in range(5):
            u = unit_from_vector(*rng.normal(size=3))
            a = Quaternion.real(rec.alpha) + u * rec.beta
            worst = max(worst, abs(point_term(a.norm2(), a.trace(), r) - base))
    return worst


def jensen_check(
    f,
    r: float,
    n: int = DEFAULT_N,
    *,
    seed: int = 0,
    bijectivity_points: int = 1000,
    diagnostics: bool = True,
) -> JensenReport:
    """Evaluate both sides of the Jensen formula with n nodes per panel
    of the polar rule (the oracle's orders follow from n by
    ``oracle_orders``); report the residual.

    Every zero record inside the ball enters the zero sum once, with its
    total multiplicity; that includes the exceptional points of the
    nonuniform pole spheres, whose isolated multiplicities are the
    multiplicities of those records.
    """
    fs = as_semiregular(f)
    (t0, t1, t2), d4 = _origin_terms(fs, r)  # origin hypotheses, before any root finding
    analysis = analyze(fs, r)
    _boundary_hypotheses(analysis, r)

    poles = analysis.poles
    # zeros outside the ball drop out (on-boundary already rejected)
    zrecords = [z for z in analysis.zeros if z.point_radius < r]

    nonuniform_detail: list[dict] = []
    for p in poles:
        if p.kind != "spherical_nonuniform":
            continue
        zj = p.exceptional_point
        unit = point_term(p.representative.norm2(), p.representative.trace(), r)
        b_term = p.spherical_order * unit
        a_term = p.isolated_multiplicity * point_term(zj.norm2(), zj.trace(), r)
        nonuniform_detail.append(
            {
                "sphere": [p.alpha, p.beta],
                "pole_b_term": b_term,
                "exceptional_a_term": a_term,
                "net_contribution": b_term - a_term,
                "uniform_pole_value": b_term,
                "order_cancellation": bool(2 * p.isolated_multiplicity == p.spherical_order),
            }
        )

    zsum = zero_sum(zrecords, r)
    psum = pole_sum(poles, r)

    means = boundary_means(fs, r, n, analysis.shadows)
    lhs = t0 + t1 + t2
    rhs = 0.5 * (means.mean_log_f + means.mean_log_f_sf) - zsum + psum
    residual = lhs - rhs

    warnings: list[str] = []
    for rec in zrecords:
        if rec.kind == "real" and rec.alpha < 0.0:
            warnings.append(
                f"negative real zero at {rec.alpha:.12g}: using |r_k| in the log term"
            )
    for p in poles:
        if p.kind == "real" and p.alpha < 0.0:
            warnings.append(
                f"negative real pole at {p.alpha:.12g}: using |p_k| in the log term"
            )
    gap = analysis.boundary_gap

    diag: dict = {
        "delta4_logNf_at0": d4,
        "lhs_cross_check": abs(lhs - (t0 + (r * r / 16.0) * _delta4_logNf_from_coefficients(fs))),
        "boundary_gap": gap if math.isfinite(gap) else None,
    }
    if diagnostics:
        rng = np.random.default_rng(seed)
        # the 3-D product rule is the independent oracle of the polar rule:
        # the same panels at orders of its own
        p, q = oracle_orders(n)
        rule = build_rule(r, p, analysis.shadows, q)
        oracle = boundary_identity_residual(fs, rule)
        diag["oracle_orders"] = [p, q]
        diag["oracle_nodes"] = len(rule)
        diag["boundary_identity_max"] = oracle.identity_max
        diag["mean_sum_check"] = abs(oracle.means.mean_log_normal - means.mean_log_normal)
        diag["representative_spread"] = _representative_spread(
            zrecords + [p for p in poles if p.beta > 0.0], r, rng
        )
        if fs.num.degree > 0:
            errs = sf_roundtrip_errors(fs, r, bijectivity_points, rng)
            diag["sf_roundtrip_max"] = float(np.max(errs))
            diag["sf_roundtrip_points"] = int(len(errs))
    if nonuniform_detail:
        diag["nonuniform_poles"] = nonuniform_detail

    return JensenReport(
        lhs=lhs,
        rhs=rhs,
        residual=residual,
        breakdown={
            "log_f0": t0,
            "first_derivative_term": t1,
            "second_derivative_term": t2,
            "mean_log_f": means.mean_log_f,
            "mean_log_f_sf": means.mean_log_f_sf,
            "zero_sum": zsum,
            "pole_sum": psum,
        },
        zeros=[recd.to_dict() for recd in zrecords],
        poles=[p.to_dict() for p in poles],
        config={"r": r, "n": n, "seed": seed},
        diagnostics=diag,
        warnings=warnings,
    )

