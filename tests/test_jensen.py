import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from slicereg.errors import (
    PoleAtOriginError,
    PoleOnBoundaryError,
    ZeroAtOriginError,
    ZeroOnBoundaryError,
)
import slicereg.jensen as jensen
from slicereg.jensen import (
    boundary_gap,
    delta4_logNf_at0,
    jensen_check,
    point_term,
    sphere_sum,
)
from slicereg.io import load_function
from slicereg.quaternions import I, ONE, Quaternion
from slicereg.quadrature import (
    boundary_identity_residual,
    boundary_means,
    build_rule,
    log_normal_values,
    oracle_orders,
    polar_rule,
)
from slicereg.slicepoly import SlicePolynomial, normal, slice_product
from slicereg.verify import _log_normal_stack
from slicereg.zeros_poles import (
    BOUNDARY_BAND,
    SemiregularFunction,
    analyze,
    characteristic_poly,
)
from slicereg.diffops import fd_laplace4_richardson

from blaschke_oracle import regularize
from hard_cases import INNER, near_boundary_functions, sphere_at
from test_quadrature import integrate_values


def real_poly(*cs):
    return SlicePolynomial.from_real(list(cs))


def lin(*comps):
    return SlicePolynomial.linear(Quaternion(*comps))


# -- Laplacian closed form -------------------------------------------------


def test_delta4_examples():
    assert delta4_logNf_at0(real_poly(1.0, 1.0)) == pytest.approx(4.0)
    assert delta4_logNf_at0(real_poly(2.5)) == pytest.approx(0.0)
    assert delta4_logNf_at0(SlicePolynomial([I, ONE])) == pytest.approx(-4.0)


def test_delta4_fd_agreement_generic_coefficients():
    rng = np.random.default_rng(0)
    origin = Quaternion.real(0.0)
    for _ in range(10):
        f = SlicePolynomial([Quaternion.from_array(rng.uniform(-1, 1, 4)) for _ in range(4)])
        if f.coefficient(0).abs() < 0.3:
            continue
        fd = fd_laplace4_richardson(_log_normal_stack([f]), origin, 3e-2).re()
        assert delta4_logNf_at0(f) == pytest.approx(fd, abs=1e-4)


def test_delta4_errors():
    with pytest.raises(ZeroAtOriginError):
        delta4_logNf_at0(real_poly(0.0, 1.0))
    f = SemiregularFunction(real_poly(0.0, 1.0), real_poly(1.0))
    with pytest.raises(PoleAtOriginError):
        delta4_logNf_at0(f)


# -- left-hand side -----------------------------------------------------------


def test_jensen_lhs_examples():
    def lhs(f):
        return jensen_check(f, 1.0, diagnostics=False).lhs

    assert lhs(real_poly(2.0, 1.0)) == pytest.approx(math.log(2.0) + 1.0 / 16.0)
    assert lhs(real_poly(-3.0)) == pytest.approx(math.log(3.0))
    assert lhs(real_poly(-0.5, 1.0)) == pytest.approx(math.log(0.5) + 1.0)


def test_lhs_cross_check_identity():
    rng = np.random.default_rng(1)
    for _ in range(10):
        f = SlicePolynomial([Quaternion.from_array(rng.uniform(-1, 1, 4)) for _ in range(5)])
        if f.coefficient(0).abs() < 0.2:
            continue
        for r in (0.8, 1.3):
            want = math.log(f.coefficient(0).abs()) + (r * r / 16.0) * delta4_logNf_at0(f)
            assert abs(sum(jensen._origin_terms(f, r)[0]) - want) <= 1e-12 * (1 + abs(want))


def test_lhs_cross_check_sees_a_wrong_square_term(monkeypatch):
    # a mutation that takes Re(a^2) as |a|^2, a = f'(0) f(0)^{-1}, moves the
    # lhs and the Delta_4 of _origin_terms together; the cross-check's own
    # Laplacian from the coefficients of N(num) and den must still see it
    f = SemiregularFunction(real_poly(1.0, 0.5, 0.25), SlicePolynomial([ONE, Quaternion(0.3, 0.4, 0.2, 0.1)]))
    right = jensen._origin_terms

    def wrong_square(g, r):
        (t0, t1, t2), d4 = right(g, r)
        f0, f1, _ = jensen.derivatives_at_origin(g)
        a = f1 * f0.inverse()
        err = a.norm2() - (a * a).re()
        return (t0, t1 + r * r / 4.0 * err, t2), d4 + 4.0 * err

    assert jensen_check(f, 1.0, diagnostics=False).diagnostics["lhs_cross_check"] <= 1e-14
    monkeypatch.setattr(jensen, "_origin_terms", wrong_square)
    assert jensen_check(f, 1.0, diagnostics=False).diagnostics["lhs_cross_check"] >= 0.01


# -- zero and pole sums --------------------------------------------------------


# The sums read (alpha, beta, m) spheres; the hypotheses are jensen_check's.


def test_zero_sum_real_example():
    assert sphere_sum([(0.5, 0.0, 1)], 1.0) == pytest.approx(math.log(2.0) - 15.0 / 16.0)


def test_zero_sum_boundary_limit():
    vals = [abs(sphere_sum([(rk, 0.0, 1)], 1.0)) for rk in (0.9, 0.99, 0.999)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 2e-6


def test_zero_sum_spherical_term():
    # one unit of total multiplicity at a = i, r = 2 contributes
    # log 2 + 15/16; the multiplicity-2 spherical zero of x^2+1 doubles it
    assert sphere_sum([(0.0, 1.0, 2)], 2.0) == pytest.approx(2.0 * (math.log(2.0) + 15.0 / 16.0))
    assert point_term(1.0, 0.0, 2.0) == pytest.approx(math.log(2.0) + 15.0 / 16.0)
    report = jensen_check(real_poly(1.0, 0.0, 1.0), 2.0, diagnostics=False)
    assert report.breakdown["zero_sum"] == sphere_sum([(0.0, 1.0, 2)], 2.0)


def test_zero_sum_errors():
    with pytest.raises(ZeroOnBoundaryError):
        jensen_check(real_poly(-1.0, 1.0), 1.0, 8)
    # f(0) = -1e-11 passes the coefficient rule; the sphere at 1e-11 meets
    # the radius rule ORIGIN_REL * max(r, 1) = 1e-11 at r = 10
    with pytest.raises(ZeroAtOriginError):
        jensen_check(real_poly(-1e-11, 1.0), 10.0, 8)


def test_pole_sum_examples():
    assert sphere_sum([(0.5, 0.0, 1)], 1.0) == pytest.approx(math.log(2.0) - 15.0 / 16.0)
    assert sphere_sum([(0.0, 1.0, 2)], 2.0) == pytest.approx(2.0 * math.log(2.0) + 15.0 / 8.0)
    empty = sphere_sum([], 1.0)
    assert empty == 0.0 and type(empty) is float
    # the pole sum takes the pole spheres inside the ball with their
    # spherical order: (x^2 + 1)(x - 3) at r = 2 leaves the sphere at i
    f = SemiregularFunction(real_poly(1.0, 0.0, 1.0) * real_poly(-3.0, 1.0), real_poly(5.0, 1.0))
    report = jensen_check(f, 2.0, diagnostics=False)
    assert report.breakdown["pole_sum"] == sphere_sum([(0.0, 1.0, 2)], 2.0)
    assert report.breakdown["zero_sum"] == 0.0


def test_pole_sum_errors():
    with pytest.raises(PoleOnBoundaryError):
        jensen_check(SemiregularFunction(real_poly(-1.0, 1.0), real_poly(3.0, 1.0)), 1.0, 8)
    with pytest.raises(PoleAtOriginError):
        jensen_check(SemiregularFunction(real_poly(-1e-11, 1.0), real_poly(20.0, 1.0)), 10.0, 8)


def test_every_boundary_check_comes_before_the_origin_rule():
    # a pole on the boundary is named before a zero at the origin; without
    # it the zero at 5e-11 <= 1e-12 * 100 is named
    num = real_poly(-5e-11, 1.0)
    f = SemiregularFunction(real_poly(-100.0, 1.0) * real_poly(-0.001, 1.0), num)
    with pytest.raises(PoleOnBoundaryError):
        jensen_check(f, 100.0, 8)
    with pytest.raises(ZeroAtOriginError):
        jensen_check(SemiregularFunction(real_poly(-0.001, 1.0), num), 100.0, 8)


def _off_sphere(q):
    return None if q is None else Quaternion(q.w + 0.125, 2.0 * q.x1, 2.0 * q.x2, 2.0 * q.x3)


@pytest.mark.parametrize("name", ["deg8_all_kinds", "isolated_pair", "remark_nonuniform", "nonuniform_with_real_zero"])
def test_sums_read_spheres_not_representatives(name, monkeypatch):
    # every representative and exceptional point moved off its sphere leaves
    # the sums, the residual and the nonuniform detail bit for bit
    _, f, r = next(case for case in CORPUS_CASES if case[0] == name)
    own = jensen_check(f, r, diagnostics=False)

    def moved(g, radius):
        analysis = analyze(g, radius)
        poles = tuple(dataclasses.replace(p, representative=_off_sphere(p.representative),
                                          exceptional_point=_off_sphere(p.exceptional_point))
                      for p in analysis.poles)
        zeros = tuple(dataclasses.replace(z, representative=_off_sphere(z.representative)) for z in analysis.zeros)
        return dataclasses.replace(analysis, zeros=zeros, poles=poles)

    monkeypatch.setattr(jensen, "analyze", moved)
    report = jensen_check(f, r, diagnostics=False)
    assert report.zeros != own.zeros
    assert (report.breakdown, report.residual) == (own.breakdown, own.residual)
    assert report.diagnostics.get("nonuniform_poles") == own.diagnostics.get("nonuniform_poles")


# One boundary band, |rho - r| <= BOUNDARY_BAND max(r, 1), for every check.
# Below r = 1 that band is wider than r (1 +- BOUNDARY_BAND); at r = 2 they agree.
@pytest.mark.parametrize("r", [0.5, 2.0])
def test_zero_sum_rejects_a_zero_in_the_boundary_band(r):
    f = real_poly(-(r - 0.75 * BOUNDARY_BAND * max(r, 1.0)), 1.0)
    with pytest.raises(ZeroOnBoundaryError):
        jensen_check(f, r, 8)


@pytest.mark.parametrize("r", [0.5, 2.0])
def test_analyze_keeps_a_pole_in_the_boundary_band(r):
    rho = r + 0.75 * BOUNDARY_BAND * max(r, 1.0)
    f = SemiregularFunction(real_poly(-rho, 1.0), real_poly(4.0 * r, 1.0))
    with pytest.raises(PoleOnBoundaryError):
        jensen_check(f, r, 8)
    (pole,) = analyze(f, r).poles
    assert (pole.kind, pole.alpha) == ("real", pytest.approx(rho, rel=1e-15))


# -- full checks -----------------------------------------------------------------


def test_jensen_check_real_zero():
    rep = jensen_check(real_poly(-0.5, 1.0), 1.0, 48)
    assert abs(rep.residual) <= 1e-6
    assert rep.breakdown["mean_log_f"] == pytest.approx(1.0 / 16.0, abs=1e-12)


def test_jensen_check_no_zeros_biharmonic_mean():
    rep = jensen_check(real_poly(3.0, 1.0), 1.0, 48)
    assert abs(rep.residual) <= 1e-6
    assert rep.breakdown["zero_sum"] == 0.0
    assert rep.breakdown["pole_sum"] == 0.0


def test_jensen_check_remark_function():
    f = SemiregularFunction(real_poly(1.0, 0.0, 1.0), SlicePolynomial([I, ONE]))
    rep = jensen_check(f, 2.0, 48)
    assert abs(rep.residual) <= 1e-6
    detail = rep.diagnostics["nonuniform_poles"][0]
    assert detail["order_cancellation"] is True
    # b-term carries the uniform-pole value; the exceptional point gives
    # back exactly half of it when i_f = spherical order / 2
    assert detail["pole_b_term"] == pytest.approx(2 * math.log(2.0) + 15.0 / 8.0)
    assert detail["exceptional_a_term"] == pytest.approx(detail["pole_b_term"] / 2.0)
    assert detail["net_contribution"] == pytest.approx(
        detail["uniform_pole_value"] - detail["exceptional_a_term"]
    )


def test_jensen_check_negative_real_zero_flagged():
    rep = jensen_check(real_poly(0.45, 1.0), 1.0, 48)
    assert abs(rep.residual) <= 1e-6
    assert any("negative real zero" in w for w in rep.warnings)


def test_jensen_check_representative_independence():
    f = real_poly(0.25, 0.0, 1.0) * lin(0.2, 0.0, 0.5, 0.0)
    rep = jensen_check(f, 1.0, 24, seed=5)
    assert rep.diagnostics["representative_spread"] <= 1e-12


def test_jensen_check_hypothesis_errors():
    with pytest.raises(ZeroOnBoundaryError):
        jensen_check(real_poly(-1.0, 1.0), 1.0, 8)
    with pytest.raises(ZeroAtOriginError):
        jensen_check(real_poly(0.0, 1.0), 1.0, 8)
    pole_on = SemiregularFunction(real_poly(1.0, 0.0, 1.0), real_poly(1.0))
    with pytest.raises(PoleOnBoundaryError):
        jensen_check(pole_on, 1.0, 8)
    pole_at0 = SemiregularFunction(real_poly(0.0, 1.0), real_poly(1.0))
    with pytest.raises(PoleAtOriginError):
        jensen_check(pole_at0, 1.0, 8)


def test_jensen_residual_converges_with_n():
    cases = [
        (real_poly(0.64, 0.0, 1.0), 1.0),  # sphere at 0.8, the slow case
        (slice_product(lin(0, 0.5, 0, 0), lin(0, 0, 0.5, 0)), 1.0),
        (real_poly(-0.6, 1.0) * characteristic_poly(Quaternion(0.2, 0.7, 0, 0)), 1.5),
    ]
    floor = 1e-8
    for f, r in cases:
        residuals = [abs(jensen_check(f, r, n, diagnostics=False).residual) for n in (24, 48, 96)]
        assert residuals[2] <= floor
        for coarse, fine in zip(residuals, residuals[1:]):
            assert fine <= max(coarse, floor)


def test_boundary_gap():
    f = real_poly(0.64, 0.0, 1.0)
    assert boundary_gap(f, 1.0) == pytest.approx(0.2, abs=1e-9)
    g = SemiregularFunction(real_poly(-0.5, 1.0), real_poly(-0.25, 1.0))
    assert boundary_gap(g, 1.0) == pytest.approx(0.5, abs=1e-9)
    # spheres outside the ball count too: the pole at 3 is 0.5 r away
    h = SemiregularFunction(real_poly(-3.0, 1.0), real_poly(-0.5, 1.0))
    assert boundary_gap(h, 2.0) == pytest.approx(0.5, abs=1e-9)
    assert analyze(h, 2.0).poles == ()


def test_origin_hypotheses_come_before_root_finding(monkeypatch):
    import slicereg.jensen as jensen

    def no_root_finding(*args):
        raise AssertionError("root finding ran before the origin check")

    monkeypatch.setattr(jensen, "analyze", no_root_finding)
    with pytest.raises(ZeroAtOriginError):
        jensen_check(real_poly(0.0, 1.0), 1.0)


@pytest.mark.parametrize("name, r, normals", [("poly_real_triple.json", 0.8, 0), ("poly_isolated_pair.json", 1.0, 1),
                                               ("rat_remark_nonuniform.json", 2.0, 1)])
def test_one_normal_per_case(name, r, normals, monkeypatch, capsys):
    # a numerator polynomial forms N(num) once, for a non-slice-preserving num
    # only, and every pass reads it there: the Jensen check, the zeros
    # command, and analyze, the means and the oracle on one held function
    from slicereg import slicepoly
    from slicereg.cli import main

    f = load_function(CORPUS / name)
    calls = []
    monkeypatch.setattr(slicepoly, "normal", lambda g: calls.append(g) or normal(g))
    report = jensen_check(f, r)
    assert len(calls) == normals == (not f.num.is_slice_preserving())
    assert abs(report.residual) <= 1e-12
    calls.clear()
    assert main(["zeros", "--fn", str(CORPUS / name), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["zeros"] + payload["poles"] and len(calls) == normals
    calls.clear()
    fs = load_function(CORPUS / name)
    analysis = analyze(fs, r)
    boundary_means(fs, r, 16, analysis.shadows)
    boundary_identity_residual(fs, build_rule(r, 8, analysis.shadows, 6))
    assert len(calls) == normals


def test_lhs_cross_check_forms_its_own_normal(monkeypatch):
    # the lhs oracle takes N(num)'s lowest coefficients from num itself, not
    # from the function: an N(num) scaled by 1.5 before its first use moves
    # the residual by -log(1.5)/2 and leaves the cross-check at roundoff
    from slicereg import slicepoly

    path = CORPUS / "poly_isolated_pair.json"
    own = jensen_check(load_function(path), 1.0)
    monkeypatch.setattr(slicepoly, "normal", lambda g: SlicePolynomial.from_real(1.5 * normal(g).real_coeffs()))
    moved = jensen_check(load_function(path), 1.0)
    assert moved.lhs == own.lhs
    assert moved.residual - own.residual == pytest.approx(-0.5 * math.log(1.5), abs=1e-9)
    assert max(own.diagnostics["lhs_cross_check"], moved.diagnostics["lhs_cross_check"]) <= 1e-12


def test_rational_stem_scale_divides_by_the_denominator():
    # the stems of den^{-1} num are num's over den(z), so the S_f guards see
    # the rational (x^2 + 1e4)^{-1} num on the scale of the polynomial num / 1e4
    num = lin(0.2, 0.5, 0.3, 0.1) * lin(-0.4, 0.1, -0.6, 0.2)
    f = SemiregularFunction(real_poly(1e4, 0.0, 1.0), num)
    for g in (f, SlicePolynomial([c / 1e4 for c in num.coeffs])):
        report = jensen_check(g, 1.0)
        assert report.diagnostics["sf_roundtrip_points"] == 1000 and not report.warnings
        assert report.diagnostics["sf_roundtrip_max"] <= 1e-12
    assert f.stem_scale(1.0) == num.stem_scale(1.0) / 10001.0
    assert SemiregularFunction(real_poly(1.0), num).stem_scale(1.0) == num.stem_scale(1.0)  # den = 1: bit for bit


# -- semiregular consistency with the regularized product -----------------------


def test_semiregular_consistency_uniform_poles():
    # f with one real pole and one uniform spherical pole
    den = real_poly(-0.5, 1.0) * real_poly(0.25, 0.0, 1.0)
    num = real_poly(-0.3, 1.0) * real_poly(0.09, 0.0, 1.0)
    f = SemiregularFunction(den, num)
    r = 1.0
    g, h = regularize(f, r)

    # item 1: |h(0)| = |f(0)| |g(0)| = |f(0)| prod |p_k|/r prod |b_i|^2/r^2
    f0 = jensen.derivatives_at_origin(f)[0]
    g0 = jensen.derivatives_at_origin(g)[0]
    h0 = jensen.derivatives_at_origin(h)[0]
    assert h0.abs() == pytest.approx(f0.abs() * g0.abs(), rel=1e-10)
    assert g0.abs() == pytest.approx(0.5 * 0.25, rel=1e-10)

    # item 2: |h| = |f| and log|N(h)| = log|N(f)| on the boundary
    rule = build_rule(r, 16)
    mf = boundary_means(f, r, 16)
    mh = boundary_means(h, r, 16)
    assert mf.mean_log_f == pytest.approx(mh.mean_log_f, abs=1e-13)
    ln_f = integrate_values(rule, log_normal_values(f, rule.alpha + 1j * rule.beta))
    ln_h = integrate_values(rule, log_normal_values(h, rule.alpha + 1j * rule.beta))
    assert ln_f == pytest.approx(ln_h, abs=1e-12)

    # item 3: Laplacian shift by the Blaschke product, with the pair
    # doubling carried by the orders (single real pole p: shift
    # -4(p^4-r^4)/(r^4 p^2); sphere b: -4 nu (|b|^4-r^4)(t^2-2|b|^2)/(r^4 |b|^4))
    shift = delta4_logNf_at0(h) - delta4_logNf_at0(f)
    p = 0.5
    want = -4.0 * (p**4 - r**4) / (r**4 * p * p)
    nb, tb = 0.25, 0.0
    want += -4.0 * 1 * (nb * nb - r**4) * (tb * tb - 2 * nb) / (r**4 * nb * nb)
    assert shift == pytest.approx(want, rel=1e-8)

    # residuals match through the transfer
    rep_f = jensen_check(f, r, 48, diagnostics=False)
    rep_h = jensen_check(h, r, 48, diagnostics=False)
    assert abs(rep_f.residual) <= 1e-8
    assert abs(rep_h.residual) <= 1e-8


def test_jensen_matches_regularized_for_nonuniform():
    # the zero list of h inside the ball is exactly the exceptional
    # point with its isolated multiplicity
    f = SemiregularFunction(real_poly(1.0, 0.0, 1.0), SlicePolynomial([I, ONE]))
    g, h = regularize(f, 2.0)
    from slicereg.zeros_poles import classify_zeros

    recs = [r for r in classify_zeros(h.num) if r.point_radius < 2.0]
    assert len(recs) == 1
    assert recs[0].representative.isclose(-I)
    assert recs[0].multiplicity == 1
    rep_h = jensen_check(h, 2.0, 48, diagnostics=False)
    assert abs(rep_h.residual) <= 1e-8


@pytest.mark.parametrize("eps", [0.0, 1e-10, 1e-8, 1e-7, 1e-6, 1e-5])
def test_zero_near_a_pole_sphere_is_counted_once(eps):
    # f = Delta_b^{-1} (x - q)(x - p) with b = 0.6 j and |q| = 0.6 (1 + eps):
    # q sits on the pole sphere or just off it, and enters the zero sum once
    # whether or not the pole record claims it as its exceptional point
    q = Quaternion(0.0, 1.0, 0.0, 1.0) * (0.6 * (1.0 + eps) / math.sqrt(2.0))
    num = slice_product(SlicePolynomial.linear(q), lin(0.3, 0.2, 0.0, -0.1))
    f = SemiregularFunction(characteristic_poly(Quaternion(0.0, 0.0, 0.6, 0.0)), num)
    rep = jensen_check(f, 1.0, 48, diagnostics=False)
    assert abs(rep.residual) <= 1e-12
    at_q = [z for z in rep.zeros if Quaternion(*z["representative"]).isclose(q, 1e-6)]
    assert len(at_q) == 1 and at_q[0]["total_multiplicity"] == 1


def test_jensen_pole_outside_ball_ignored():
    f = SemiregularFunction(real_poly(4.0, 0.0, 1.0), real_poly(-0.5, 1.0))
    rep = jensen_check(f, 1.0, 48, diagnostics=False)
    assert abs(rep.residual) <= 1e-8
    assert rep.poles == []


def test_reports_are_deterministic():
    f = real_poly(0.25, 0.0, 1.0)
    a = jensen_check(f, 1.0, 24, seed=9).to_dict()
    b = jensen_check(f, 1.0, 24, seed=9).to_dict()
    assert a == b


def _random_semiregular(rng):
    from slicereg.quaternions import unit_from_vector

    den = real_poly(1.0)
    den_spheres = []
    for _ in range(int(rng.integers(1, 3))):
        if rng.random() < 0.4:
            p = rng.uniform(0.3, 0.65) * rng.choice([-1.0, 1.0])
            den = den * real_poly(-p, 1.0)
            den_spheres.append((p, 0.0))
        else:
            alpha = rng.uniform(-0.4, 0.4)
            beta = rng.uniform(0.25, 0.55)
            if np.hypot(alpha, beta) > 0.68:
                beta = 0.55 * beta / np.hypot(alpha, beta)
            den = den * characteristic_poly(Quaternion(alpha, beta, 0, 0))
            den_spheres.append((alpha, beta))
    num = SlicePolynomial([Quaternion.from_array(rng.uniform(-1, 1, 4))])
    if num.coefficient(0).abs() < 0.3:
        num = SlicePolynomial([num.coefficient(0) + Quaternion.real(0.6)])
    for _ in range(int(rng.integers(0, 4))):
        for _attempt in range(20):
            v = rng.normal(size=4)
            root = Quaternion.from_array(v / np.linalg.norm(v) * rng.uniform(0.2, 0.6))
            a, b = root.re(), root.abs_im()
            if all(np.hypot(a - da, b - db) > 0.06 for da, db in den_spheres):
                num = num * SlicePolynomial.linear(root)
                break
    if den_spheres and rng.random() < 0.4:
        a, b = den_spheres[0]
        if b > 0:
            u = unit_from_vector(*rng.normal(size=3))
            num = num * SlicePolynomial.linear(Quaternion.real(a) + u * b)
    return SemiregularFunction(den, num)


def test_random_semiregular_jensen():
    # end-to-end: random zero/pole layouts, including numerator zeros
    # planted on pole spheres (nonuniform orders arise organically)
    checked = 0
    nonuniform = 0
    for seed in range(40):
        rng = np.random.default_rng(1000 + seed)
        f = _random_semiregular(rng)
        if abs(f.den[0]) < 1e-6 or f.num.coefficient(0).abs() < 1e-6:
            continue
        rep = jensen_check(f, 1.0, 48, diagnostics=False)
        assert abs(rep.residual) <= 1e-6, (seed, rep.residual)
        checked += 1
        if rep.diagnostics.get("nonuniform_poles"):
            nonuniform += 1
    assert checked >= 30
    assert nonuniform >= 3


def test_random_generic_polynomial_jensen():
    # generic quaternion coefficients: zeros land inside and outside the
    # ball, some within 2e-3 r of the boundary
    for seed in range(150):
        rng = np.random.default_rng(5000 + seed)
        deg = int(rng.integers(1, 7))
        f = SlicePolynomial([Quaternion.from_array(rng.uniform(-1, 1, 4)) for _ in range(deg + 1)])
        assert f.coefficient(0).abs() >= 0.05
        rep = jensen_check(f, 1.0, 48, diagnostics=False)
        assert abs(rep.residual) <= 1e-12, (seed, rep.residual)


@pytest.mark.parametrize("kind", ["zero", "pole"])
@pytest.mark.parametrize("radius", [0.99, 0.999, 0.9999, 1.0001, 1.001, 1.01])
def test_sphere_near_the_boundary(kind, radius):
    # the polar rule grades its panels toward the sphere's shadow, so the
    # default order resolves the log singularity at any distance
    # (the ledger holds this zero sphere's Delta^m for m = 1-6 and 8)
    f = sphere_at(radius) * INNER if kind == "zero" else SemiregularFunction(sphere_at(radius), INNER)
    rep = jensen_check(f, 1.0, 48, diagnostics=False)
    assert abs(rep.residual) <= 1e-12
    assert rep.warnings == []


def test_high_multiplicity_zero_is_not_a_node_hit():
    # (x - q)^{*8} (x - p): min |f|^2 on a polar sphere is ~1e-14 of A, so
    # A - B by subtraction is rounding noise there; no node hit may be reported
    rng = np.random.default_rng(0)
    for _ in range(9):
        d = rng.normal(size=4)
        q = d * rng.uniform(0.3, 0.8) / np.linalg.norm(d)
        d = rng.normal(size=4)
        p = 0.5 * d / np.linalg.norm(d)
    f = SlicePolynomial.linear(Quaternion.from_array(q)) ** 8 * SlicePolynomial.linear(Quaternion.from_array(p))
    assert abs(jensen_check(f, 1.0, 48, diagnostics=False).residual) <= 1e-9


def test_escalated_diagnostic_run_memory_is_bounded():
    """jensen_check at n = 128 with diagnostics, on a zero sphere at
    0.99 r: the product-rule oracle's 92 160 nodes (orders capped at
    (16, 12) on the graded panels) are evaluated at most ORACLE_BLOCK
    nodes at a time, in 10 blocks; the run peaks at ~1.3 MB, where one
    block of every node takes ~10 MB."""
    import tracemalloc

    f = sphere_at(0.99, np.random.default_rng(3).normal(size=3)) * lin(0.2, 0.3, -0.1, 0.25)
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        report = jensen_check(f, 1.0, 128)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.diagnostics["boundary_identity_max"] <= 1e-9
    assert peak < 4 * 2**20


CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_CASES = [
    (entry["name"], load_function(CORPUS / entry["file"]), entry["r"])
    for manifest in ("polynomials.json", "rationals.json")
    for entry in json.loads((CORPUS / manifest).read_text())["cases"]
]


POLYNOMIAL_CASES = [c for c in CORPUS_CASES if isinstance(c[1], SlicePolynomial)]


@pytest.mark.parametrize("name, f, r", POLYNOMIAL_CASES, ids=[c[0] for c in POLYNOMIAL_CASES])
def test_a_polynomial_is_its_quotient_over_one(name, f, r):
    # a polynomial is num / 1 itself: its report, diagnostics included, and
    # its records are those of the quotient over den = 1, whose stems divide
    # by den(z) = 1, to the last bit of every number
    quotient = SemiregularFunction(SlicePolynomial.from_real([1.0]), f)
    assert quotient.num is f and quotient.den.tolist() == f.den.tolist() == [1.0] and f.den_spheres == ()
    own, over_one = jensen_check(f, r).to_dict(), jensen_check(quotient, r).to_dict()
    assert own == over_one and json.dumps(own) == json.dumps(over_one)
    assert analyze(f, r) == analyze(quotient, r)


ORACLE_CASES = CORPUS_CASES + [
    (f"nb{seed}_{name}", f, 1.0) for seed in (1, 2, 3) for name, f in near_boundary_functions(seed).items()
]


@pytest.mark.parametrize("name, f, r", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_product_rule_oracle_agrees_with_the_means(name, f, r):
    # the oracle runs on the means' graded panels at its own orders, so
    # its sum of the two means agrees with theirs to roundoff
    d = jensen_check(f, r, 48, bijectivity_points=1).diagnostics
    assert d["mean_sum_check"] <= 1e-12
    assert d["boundary_identity_max"] <= 1e-9


def test_oracle_orders_and_nodes_are_reported():
    name, f, r = next(c for c in CORPUS_CASES if c[0] == "near_boundary_sphere")
    d = jensen_check(f, r, 48, bijectivity_points=1).diagnostics
    p, q = oracle_orders(48)
    assert d["oracle_orders"] == [p, q] == [16, 12]
    shadows = analyze(f, r).shadows
    rule = build_rule(r, p, shadows, q)
    assert d["oracle_nodes"] == len(rule) == len(rule.polar_z) * 2 * q * q
    # the same panels, but no polar angle of the oracle is one of the means',
    # also where n is above the cap and the oracle keeps its n = 48 orders
    z, _ = polar_rule(r, 48, shadows)
    assert len(rule.polar_z) * 3 == len(z)
    for n in (48, 128, 256):
        assert oracle_orders(n) == (p, q)
        assert not set(polar_rule(r, n, shadows)[0].tolist()) & set(rule.polar_z.tolist())
    assert not {"oracle_orders", "oracle_nodes"} & set(jensen_check(f, r, 48, diagnostics=False).diagnostics)


@pytest.mark.parametrize("n, orders", [(4, (4, 4)), (13, (5, 4)), (48, (16, 12)), (128, (16, 12)),
                                       (256, (16, 12))])
def test_oracle_orders_follow_n(n, orders):
    assert oracle_orders(n) == orders


def test_a_zero_on_a_pole_sphere_adds_no_shadow():
    # the real zero of this case lies on the pole sphere 0.6 S inside the ball;
    # listed twice, its shadows -3.55e-17 + 0.6i and 0.6i put panels about
    # 1e-16 wide into both polar rules, each with a full set of nodes
    f = load_function(CORPUS / "rat_nonuniform_with_real_zero.json")
    analysis = analyze(f, 1.0)
    assert len(analysis.free_zeros) < len(analysis.zeros)
    assert analysis.shadows == [complex(z.alpha, z.beta) for z in analysis.free_zeros] + [0.6j]
    p, q = oracle_orders(48)
    for n in (48, p):
        theta = np.angle(polar_rule(1.0, n, analysis.shadows)[0]).reshape(-1, n)
        assert np.min(theta[:, -1] - theta[:, 0]) > 1e-12
    assert jensen_check(f, 1.0, 48, bijectivity_points=1).diagnostics["oracle_nodes"] == 32256


def test_sf_roundtrip_fails_a_forward_map_that_leaves_the_sphere(monkeypatch):
    # S_f^{-1} reads the stems of the sample's sphere, and both of its
    # conjugations keep Re and |Im|: a forward map that scales |Im| by
    # 1 + 1e-9 comes back off the sphere by about that much
    from slicereg import quadrature

    sf_points = quadrature._sf_points

    def stretched(x, beta, junit, f1, f2, scale):
        a, b = sf_points(x, beta, junit, f1, f2, scale)  # the pair a + b j, Im y = i Im a + b j
        return a.real + 1j * (a.imag * (1.0 + 1e-9)), b * (1.0 + 1e-9)

    f = load_function(CORPUS / "poly_isolated_pair.json")
    assert jensen_check(f, 1.0).diagnostics["sf_roundtrip_max"] <= 1e-12
    monkeypatch.setattr(quadrature, "_sf_points", stretched)
    assert jensen_check(f, 1.0).diagnostics["sf_roundtrip_max"] > 1e-10


def test_report_dict_holds_the_report_fields_as_they_are():
    import dataclasses

    from slicereg.io import render_json

    report = jensen_check(load_function(CORPUS / "rat_remark_nonuniform.json"), 2.0)
    d = report.to_dict()
    assert list(d) == [f.name for f in dataclasses.fields(report)]
    assert d["diagnostics"] is report.diagnostics and d["zeros"] is report.zeros
    assert render_json(d) == render_json(dataclasses.asdict(report))
