import json
import math
from pathlib import Path

import mpmath
import numpy as np
import pytest

from slicereg.errors import DegeneratePointError, NonFiniteIntegrandError
from slicereg.io import load_function
from slicereg.quaternions import I, J, ONE, ZERO, Quaternion, decompose
from slicereg.quadrature import (
    _polar_angles,
    _sf_domain_points,
    _sf_inverse_parts,
    _sf_parts,
    _slice_value,
    _split_parts,
    S_map,
    SPHERE_MEASURE,
    T_map,
    ORACLE_BLOCK,
    boundary_identity_residual,
    boundary_means,
    build_rule,
    circular_reduction,
    integrate,
    integrate_values,
    log_normal_values,
    polar_rule,
    s_inverse_map,
    sf_roundtrip_errors,
    sphere_mean_log_abs,
)
from slicereg.slicepoly import SlicePolynomial, horner, log_abs, normal, slice_product
from slicereg.verify import exact_mean_log_abs
from slicereg.zeros_poles import SemiregularFunction, as_semiregular


CORPUS = Path(__file__).resolve().parent.parent / "corpus"
CORPUS_CASES = [
    entry
    for manifest in ("polynomials.json", "rationals.json")
    for entry in json.loads((CORPUS / manifest).read_text())["cases"]
]


def real_poly(*cs):
    return SlicePolynomial.from_real(list(cs))


def random_poly(rng, deg=4):
    return SlicePolynomial([Quaternion.from_array(rng.normal(size=4)) for _ in range(deg + 1)])


# -- rule construction ---------------------------------------------------


def test_rule_invariants():
    for r, n in ((1.0, 8), (0.8, 16), (2.0, 48)):
        rule = build_rule(r, n)
        measure = SPHERE_MEASURE * r**3
        assert abs(float(np.sum(rule.weights)) - measure) <= 1e-10 * measure
        radii = np.linalg.norm(rule.nodes, axis=1)
        assert np.max(np.abs(radii - r)) <= 1e-12 * r
        assert np.all(rule.weights > 0)
        assert np.allclose(rule.nodes[:, 0], rule.alpha)
        assert np.allclose(np.linalg.norm(rule.nodes[:, 1:], axis=1), rule.beta)


def test_rule_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_rule(-1.0, 8)
    with pytest.raises(ValueError):
        build_rule(1.0, 2)


def test_integrate_constant_and_moments():
    rule = build_rule(1.0, 24)
    total = integrate(rule, lambda x: 1.0)
    assert total == pytest.approx(2 * math.pi**2, rel=1e-12)
    # by symmetry int x0^2 = measure/4; 1e7-sample Monte-Carlo oracle
    m2 = integrate(rule, lambda x: x.re() ** 2)
    assert m2 == pytest.approx(math.pi**2 / 2, rel=1e-10)
    rng = np.random.default_rng(0)
    acc = 0.0
    n_samples = 10_000_000
    chunk = 1_000_000
    for _ in range(n_samples // chunk):
        samples = rng.normal(size=(chunk, 4))
        acc += float(np.sum(samples[:, 0] ** 2 / np.einsum("ij,ij->i", samples, samples)))
    mc = acc / n_samples * 2 * math.pi**2
    assert m2 == pytest.approx(mc, rel=1e-3)
    # odd moment vanishes
    m11 = integrate(rule, lambda x: x.re() * x.x1)
    assert abs(m11) <= 1e-12


def test_integrate_log_radius():
    r = 1.7
    rule = build_rule(r, 16)
    val = integrate(rule, lambda x: math.log(x.abs()))
    assert val == pytest.approx(2 * math.pi**2 * r**3 * math.log(r), rel=1e-12)


def test_integrate_nonfinite_reports_node():
    rule = build_rule(1.0, 8)
    with pytest.raises(NonFiniteIntegrandError) as err:
        integrate(rule, lambda x: math.inf if x.re() > 0 else 0.0)
    assert err.value.node is not None


def _materialised_rule(r, n):
    """The product rule as a flat (2n^3, .) grid from the 3-D tensor
    product of its angles: the reference for the lazy arrays."""
    theta, wt = _polar_angles(n)
    w1 = 0.5 * math.pi * wt * np.sin(theta) ** 2
    w2 = 0.5 * math.pi * wt * np.sin(theta)
    phi = 2.0 * math.pi * np.arange(2 * n) / (2 * n)
    wphi = np.full(2 * n, math.pi / n)
    s1, c1 = np.sin(theta)[:, None, None], np.cos(theta)[:, None, None]
    s2, c2 = np.sin(theta)[None, :, None], np.cos(theta)[None, :, None]
    sp, cp = np.sin(phi)[None, None, :], np.cos(phi)[None, None, :]
    x0 = (r * c1) * np.ones_like(s2) * np.ones_like(sp)
    x1 = r * s1 * c2 * np.ones_like(sp)
    nodes = np.stack([x0, x1, r * s1 * s2 * cp, r * s1 * s2 * sp], axis=-1).reshape(-1, 4)
    weights = (r**3 * w1[:, None, None] * w2[None, :, None] * wphi[None, None, :]).reshape(-1)
    beta = (r * s1 * np.ones_like(s2) * np.ones_like(sp)).reshape(-1)
    junits = np.zeros_like(nodes)
    junits[:, 1:] = nodes[:, 1:] / beta[:, None]
    return {"nodes": nodes, "weights": weights, "alpha": nodes[:, 0].copy(), "beta": beta, "junits": junits}


@pytest.mark.parametrize("r, n", [(1.0, 8), (0.8, 35), (2.0, 48)])
def test_lazy_rule_arrays_match_materialised_grid(r, n):
    rule = build_rule(r, n)
    assert len(rule) == 2 * n**3
    assert not {"nodes", "weights", "alpha", "beta", "junits"} & set(vars(rule))
    for name, want in _materialised_rule(r, n).items():
        got = getattr(rule, name)
        assert got.shape == want.shape, name
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), name
    assert vars(rule)["nodes"] is rule.nodes  # built once


def test_rule_factors_are_shared_and_read_only():
    a, b = build_rule(1.0, 24), build_rule(2.5, 24)
    assert a.s2_units is b.s2_units and a.s2_weights is b.s2_weights
    assert not a.s2_units.flags.writeable and not a.s2_weights.flags.writeable
    assert float(np.sum(a.s2_weights)) == pytest.approx(1.0, abs=1e-15)
    z, w = polar_rule(2.5, 24)
    assert np.array_equal(b.polar_z, z) and np.array_equal(b.polar_weights, w)


# -- circular reduction and its exact mean ----------------------------------


def test_polar_angles_cached_read_only():
    theta, wt = _polar_angles(48)
    assert _polar_angles(48)[0] is theta
    assert not theta.flags.writeable and not wt.flags.writeable
    with pytest.raises(ValueError):
        theta[0] = 0.0
    # polar_rule is bitwise the uncached construction
    t, w = np.polynomial.legendre.leggauss(48)
    t = 0.5 * math.pi * (t + 1.0)
    for _ in range(2):
        z, wz = polar_rule(1.3, 48)
        assert np.array_equal(z, 1.3 * np.cos(t) + 1j * (1.3 * np.sin(t)))
        assert np.array_equal(wz, w * np.sin(t) ** 2)


def test_circular_reduction_constant():
    r = 1.3
    assert circular_reduction(r, 64, lambda x: 1.0) == pytest.approx(
        2 * math.pi**2 * r**3, rel=1e-12
    )


@pytest.mark.parametrize(
    "lead, roots, r",
    [
        (2.5, [0.3, -0.7], 1.0),
        (1.0, [2.0, -1.3], 1.0),
        (0.7, [0.2 + 0.5j, 0.2 - 0.5j], 1.0),
        (1.0, [1.5 + 2.0j, 1.5 - 2.0j], 1.2),
        (3.0, [0.4, 0.1 + 0.6j, 0.1 - 0.6j, -2.5, 1.0 + 1.5j, 1.0 - 1.5j, 0.0], 1.7),
    ],
    ids=["real-inside", "real-outside", "complex-inside", "complex-outside", "mixed"],
)
def test_exact_mean_against_mpmath(lead, roots, r):
    # 30-digit quadrature over theta of (2/pi) sin^2 theta log|p(r e^{i theta})|
    with mpmath.workdps(30):
        def integrand(t):
            z = r * mpmath.expj(t)
            value = mpmath.log(abs(lead)) + mpmath.fsum(mpmath.log(abs(z - a)) for a in roots)
            return 2 / mpmath.pi * mpmath.sin(t) ** 2 * value

        want = mpmath.quad(integrand, [0, mpmath.pi / 2, mpmath.pi])
    assert abs(exact_mean_log_abs(lead, roots, r) - float(want)) <= 1e-14


def test_circular_reduction_cross_method():
    # N(x - 0.5) = (x - 0.5)^2, evaluated at the nodes of the 3-D rule
    nf = normal(real_poly(-0.5, 1.0))
    rule = build_rule(1.0, 24)
    full = integrate(rule, lambda x: log_abs(nf, x)) / rule.measure
    assert abs(full - exact_mean_log_abs(1.0, [0.5, 0.5], 1.0)) <= 1e-13

    # (Re x)^2 is circular as well, with mean r^2 / 4
    full2 = integrate(rule, lambda x: x.re() ** 2) / rule.measure
    assert abs(full2 - 0.25) <= 1e-14


def test_log_x_minus_2_cross_method():
    f = real_poly(-2.0, 1.0)
    nf = normal(f)
    # log|x-2| = log|N|/2 is circular, with mean log 2 + (1/4) (1/2)^2
    exact = 0.5 * exact_mean_log_abs(1.0, [2.0, 2.0], 1.0)
    assert exact == pytest.approx(math.log(2.0) + 1.0 / 16.0, abs=1e-15)
    rule = build_rule(1.0, 24)
    full = integrate(rule, lambda x: 0.5 * log_abs(nf, x)) / rule.measure
    assert abs(full - exact) <= 1e-13


def test_quadrature_convergence_doubling():
    # f and the roots of N(f), known from the factors
    cases = [
        (real_poly(-0.3, 1.0) * real_poly(0.25, 0.0, 1.0), [0.3, 0.5j, -0.5j] * 2),
        (real_poly(0.36, 0.0, 1.0) * real_poly(0.45, 1.0), [0.6j, -0.6j, -0.45] * 2),
        (slice_product(SlicePolynomial.linear(I * 0.5), real_poly(-0.4, 1.0)), [0.5j, -0.5j, 0.4, 0.4]),
    ]
    floor = 1e-10
    for f, roots in cases:
        reference = exact_mean_log_abs(1.0, roots, 1.0)
        errors = []
        for n in (6, 12, 24):
            rule = build_rule(1.0, n)
            values = log_normal_values(f, rule.alpha + 1j * rule.beta)
            errors.append(abs(integrate_values(rule, values) - rule.measure * reference))
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= max(coarse / 4.0, floor)


# -- conjugation maps ---------------------------------------------------------


def test_t_map_slice_preserving_fixed_points():
    f = real_poly(2.0, 0.0, 1.0)
    x = Quaternion(0.4, 0.3, -0.2, 0.5)
    assert (T_map(f, x) - x).abs() <= 1e-12


def test_t_map_example_and_sphere_preservation():
    f = SlicePolynomial.linear(I)  # x - i; f^c(j) = j + i
    y = T_map(f, J)
    assert y.re() == pytest.approx(0.0, abs=1e-13)
    assert y.abs_im() == pytest.approx(1.0, rel=1e-13)
    assert y.isclose(I)  # direct quaternion arithmetic: (j+i)^{-1} j (j+i) = i


def test_t_map_roundtrip():
    rng = np.random.default_rng(1)
    f = random_poly(rng)
    fc = f.conjugate()
    for _ in range(10):
        x = Quaternion.from_array(rng.normal(size=4))
        if normal(f).eval(x).abs() < 1e-3:
            continue
        y = T_map(f, x)
        back = T_map(fc, y)
        assert (back - x).abs() <= 1e-10 * (1.0 + x.abs())


def test_s_map_slice_preserving_is_conjugation():
    f = real_poly(2.0, 0.0, 1.0)
    x = Quaternion(1, 0, 1, 0)
    assert S_map(f, x).isclose(Quaternion(1, 0, -1, 0))


def test_s_map_example():
    f = SlicePolynomial.linear(I)
    y = S_map(f, J)
    assert y.re() == pytest.approx(0.0, abs=1e-13)
    assert y.abs_im() == pytest.approx(1.0, rel=1e-13)
    assert y.isclose(I)  # (j-i)^{-1} (-j) (j-i) = i


def test_conjugation_maps_degenerate_points():
    from slicereg.errors import DegeneratePointError

    f = SlicePolynomial.linear(I)  # f^c = x + i vanishes at -i
    with pytest.raises(DegeneratePointError):
        T_map(f, -I)
    with pytest.raises(DegeneratePointError):
        S_map(f, I)  # f itself vanishes at i


def test_s_map_preserves_spheres():
    rng = np.random.default_rng(2)
    f = random_poly(rng)
    for _ in range(20):
        x = Quaternion.from_array(rng.normal(size=4))
        if x.abs_im() < 0.1:
            continue
        y = S_map(f, x)
        assert y.re() == pytest.approx(x.re(), abs=1e-10 * (1 + x.abs()))
        assert y.abs_im() == pytest.approx(x.abs_im(), abs=1e-10 * (1 + x.abs()))


def test_s_map_inverse_roundtrip():
    rng = np.random.default_rng(3)
    f = random_poly(rng)
    scale = f.stem_scale(1.0)
    count = 0
    while count < 50:
        v = rng.normal(size=4)
        x = Quaternion.from_array(v / np.linalg.norm(v))
        p = decompose(x)
        if p.beta < 0.1:
            continue
        stem = f.stem_components(p.alpha, p.beta)
        if stem.F2.abs() < 1e-4 * (1 + scale):
            continue
        y = S_map(f, x)
        back = s_inverse_map(f, y)
        assert (back - x).abs() <= 1e-9
        count += 1


# -- boundary means -------------------------------------------------------------


def test_boundary_means_slice_preserving_equal():
    # slice-preserving f has B = 0 on every sphere, so |f o S_f| = |f|
    rng = np.random.default_rng(11)
    for f in [real_poly(2.0, 1.0)] + [real_poly(*rng.uniform(-1.0, 1.0, size=5)) for _ in range(5)]:
        m = boundary_means(f, 1.0, 16)
        assert m.mean_log_f == pytest.approx(m.mean_log_f_sf, abs=1e-14)


def test_boundary_means_sum_is_log_normal_mean():
    # oracle: log|N(f)| integrated by the 3-D product rule
    rng = np.random.default_rng(4)
    f = random_poly(rng, deg=3)
    rule = build_rule(1.2, 24)
    m = boundary_means(f, 1.2, 24)
    mean_log_n = integrate_values(rule, log_normal_values(f, rule.alpha + 1j * rule.beta)) / rule.measure
    assert m.mean_log_normal == pytest.approx(mean_log_n, abs=1e-12)


def test_boundary_means_rational():
    # oracle: the 3-D product rule, which evaluates f and f o S_f at
    # every node instead of averaging over each sphere in closed form
    den = real_poly(0.25, 0.0, 1.0)
    num = SlicePolynomial([J, ONE])
    f = SemiregularFunction(den, num)
    # the rules share their polar angles, so the difference is the S^2
    # error of the product rule alone (1.5e-11 at n = 48)
    m = boundary_means(f, 1.3, 48)
    oracle = boundary_identity_residual(f, build_rule(1.3, 48)).means
    assert m.mean_log_f == pytest.approx(oracle.mean_log_f, abs=1e-10)
    assert m.mean_log_f_sf == pytest.approx(oracle.mean_log_f_sf, abs=1e-10)


# -- 1-D polar rule against its oracles ------------------------------------------


@pytest.mark.parametrize("entry", CORPUS_CASES, ids=lambda e: e["name"])
def test_polar_means_match_product_rule_oracle(entry):
    # independent oracle: the 3-D product rule, which evaluates f and
    # f o S_f at every node instead of averaging each sphere in closed form
    f = load_function(CORPUS / entry["file"])
    r = entry["r"]
    m = boundary_means(f, r, 48)
    oracle = boundary_identity_residual(f, build_rule(r, 48)).means
    if entry["name"] == "deg8_all_kinds":
        # the oracle's 48 x 96 grid on each S^2 under-resolves the degree-8
        # stems; the polar rule is already converged at n = 48
        fine = boundary_means(f, r, 192)
        assert abs(m.mean_log_f - fine.mean_log_f) <= 1e-13
        assert abs(m.mean_log_f_sf - fine.mean_log_f_sf) <= 1e-13
        assert abs(oracle.mean_log_f - fine.mean_log_f) >= 1e-9
        assert abs(oracle.mean_log_f_sf - fine.mean_log_f_sf) >= 1e-9
        return
    assert abs(m.mean_log_f - oracle.mean_log_f) <= 1e-12
    assert abs(m.mean_log_f_sf - oracle.mean_log_f_sf) <= 1e-12


def test_sphere_mean_closed_form_against_t_integral():
    # oracle: Gauss-Legendre in t = <b, J>/|b| of (1/2) log(A + B t),
    # on panels graded toward the near-singular end t = -1
    x, wx = np.polynomial.legendre.leggauss(40)
    edges = np.concatenate([[-1.0], -1.0 + 2.0 * 0.5 ** np.arange(60, -1, -1)])
    lo, hi = edges[:-1, None], edges[1:, None]
    t = (0.5 * (hi - lo) * x + 0.5 * (hi + lo)).ravel()
    wt = (0.5 * (hi - lo) * wx).ravel()
    a = 2.5
    for u in (1e-10, 1e-6, 1e-4, 9e-4, 1e-3, 1.1e-3, 1e-2, 0.1, 0.5, 0.9, 0.99, 0.999):
        want = 0.5 * float(np.dot(wt, 0.5 * np.log(a + a * u * t)))
        got = float(sphere_mean_log_abs(np.array([a]), np.array([a * u]))[0])
        assert got == pytest.approx(want, abs=1e-13), u
    # B = 0 is the series branch, exactly (1/2) log A
    assert sphere_mean_log_abs(np.array([a]), np.array([0.0]))[0] == 0.5 * math.log(a)


def test_boundary_identity_pointwise():
    rng = np.random.default_rng(5)
    for _ in range(5):
        f = random_poly(rng, deg=4)
        rule = build_rule(1.1, 16)
        if horner(normal(f).real_coeffs(), complex(0, 1.1)) == 0:
            continue
        assert boundary_identity_residual(f, rule).identity_max <= 1e-9


def test_boundary_zero_detected():
    # a zero exactly on the integration sphere is a hypothesis
    # violation; jensen_check flags it before any integration runs
    from slicereg.errors import ZeroOnBoundaryError
    from slicereg.jensen import jensen_check

    f = SlicePolynomial.linear(ONE)  # zero at 1 on the unit sphere
    with pytest.raises(ZeroOnBoundaryError):
        jensen_check(f, 1.0, 8)
    # a zero on the sphere of a polar node surfaces as a non-finite
    # integrand of the 1-D rule
    z, _ = polar_rule(1.0, 16)
    x0 = Quaternion(z[7].real, 0.0, z[7].imag * 0.6, z[7].imag * 0.8)
    g = SlicePolynomial.linear(x0)
    with pytest.raises(NonFiniteIntegrandError) as err:
        boundary_means(g, 1.0, 16)
    assert err.value.node == Quaternion(z[7].real, z[7].imag, 0.0, 0.0)


def test_sf_roundtrip_errors_small():
    rng = np.random.default_rng(6)
    f = slice_product(SlicePolynomial.linear(I * 0.5), SlicePolynomial.linear(J * 0.5))
    errs = sf_roundtrip_errors(f, 1.0, 200, rng)
    assert len(errs) == 200
    assert float(np.max(errs)) <= 1e-9


# -- array S_f against the scalar maps -------------------------------------------
#
# The scalar S_map / s_inverse_map / T_map are the oracle of the array S_f:
# they evaluate one point at a time with Quaternion arithmetic and
# ``stem_components``, sharing no code with the array path except the
# formulas themselves.


def _array_maps(f, pts, r):
    """S_f and S_f^{-1} of the rows pts by the array path, as rows."""
    scale = f.stem_scale(r)
    x = tuple(pts.T)
    z, junit = _split_parts(x)
    y = _sf_parts(x, junit, *f.stem_arrays(z), scale)
    back = _sf_inverse_parts(f, x, scale)
    return np.stack(y, axis=-1), np.stack(back, axis=-1)


def _sphere_points(rng, r, k):
    d = rng.normal(size=(k, 4))
    return r * d / np.linalg.norm(d, axis=1)[:, None]


def _sf_cases():
    rng = np.random.default_rng(21)
    cases = [(f"quaternionic_deg{deg}", random_poly(rng, deg=deg), 1.0) for deg in (1, 3, 5)]
    den = real_poly(0.25, 0.0, 1.0)  # pole sphere at radius 0.5
    cases.append(("rational", SemiregularFunction(den, SlicePolynomial([J, ONE, I * 0.5])), 1.3))
    return cases


SF_CASES = _sf_cases()


@pytest.mark.parametrize("name, f, r", SF_CASES, ids=[c[0] for c in SF_CASES])
def test_array_sf_matches_scalar_maps(name, f, r):
    """The array S_f and S_f^{-1} against their oracle, the scalar S_map
    and s_inverse_map, point by point."""
    pts = _sphere_points(np.random.default_rng(22), r, 200)
    y, back = _array_maps(f, pts, r)
    for row, y_row, back_row in zip(pts, y, back):
        x = Quaternion.from_array(row)
        tol = 1e-13 * (1.0 + x.abs())
        assert (Quaternion.from_array(y_row) - S_map(f, x)).abs() <= tol
        assert (Quaternion.from_array(back_row) - s_inverse_map(f, x)).abs() <= tol


def test_array_sf_conjugation_branches():
    """Where S_f is conjugation, against the scalar maps as the oracle."""
    # slice-preserving f: F1, F2 and x share one slice, so S_f(x) = conj(x)
    pts = _sphere_points(np.random.default_rng(23), 1.0, 50)
    f = real_poly(2.0, -0.5, 0.3, 0.25)
    y, back = _array_maps(f, pts, 1.0)
    for row, y_row, back_row in zip(pts, y, back):
        x = Quaternion.from_array(row)
        assert (Quaternion.from_array(y_row) - x.conj()).abs() <= 1e-13
        assert (Quaternion.from_array(y_row) - S_map(f, x)).abs() <= 1e-13
        assert (Quaternion.from_array(back_row) - s_inverse_map(f, x)).abs() <= 1e-13
    # degenerate set: F2 = Im(z^2) c = 0 on Re x = 0, where S_f falls back
    # to conjugation and its inverse is undefined
    g = SlicePolynomial([Quaternion(2.0, 0.5, 0.0, 0.0), ZERO, J])
    pts[:, 0] = 0.0
    x = tuple(pts.T)
    z, junit = _split_parts(x)
    y = _sf_parts(x, junit, *g.stem_arrays(z), g.stem_scale(1.0))
    for row, y_row in zip(pts, np.stack(y, axis=-1)):
        q = Quaternion.from_array(row)
        assert Quaternion.from_array(y_row) == q.conj() == S_map(g, q)
    with pytest.raises(DegeneratePointError):
        s_inverse_map(g, Quaternion.from_array(pts[0]))
    with pytest.raises(DegeneratePointError):
        _sf_inverse_parts(g, x, g.stem_scale(1.0))


def _scalar_domain_points(f, r, n_points, rng):
    """The sampler of the former scalar roundtrip: one rng.normal(size=4)
    draw per candidate and the same guards, kept as the reference."""
    points = []
    attempts = 0
    while len(points) < n_points and attempts < 40 * n_points:
        attempts += 1
        d = rng.normal(size=4)
        x = Quaternion.from_array(r * d / np.linalg.norm(d))
        p = decompose(x)
        if p.beta < 1e-3 * r:
            continue
        stem = f.stem_components(p.alpha, p.beta)
        scale = f.stem_scale(r)
        if stem.F2.abs() <= 1e-4 * (1.0 + scale):
            continue
        v = stem.F1 + p.unit * stem.F2
        if v.abs() <= 1e-9 * (1.0 + scale):
            continue
        points.append(x)
    return points


def test_sf_roundtrip_samples_like_scalar_loop():
    # |F2| = 2.3e-4 |Im x| for the last function, so the guard rejects the
    # candidates with |Im x| < 0.87, about 40%, and several batches are drawn
    guarded = SlicePolynomial([ONE, Quaternion(0.0, 0.6, 0.0, 0.8) * 2.3e-4])
    for f, r in [(f, r) for _, f, r in SF_CASES] + [(guarded, 1.0)]:
        want = _scalar_domain_points(f, r, 300, np.random.default_rng(24))
        got = _sf_domain_points(f, r, 300, np.random.default_rng(24))
        assert len(want) == len(got) == 300
        for x, row in zip(want, got):
            assert (x - Quaternion.from_array(row)).abs() <= 1e-15
        # the distances are roundoff on these points, as with the scalar maps
        errs = sf_roundtrip_errors(f, r, 300, np.random.default_rng(24))
        assert len(errs) == 300 and np.max(errs) <= 1e-12


def test_sf_roundtrip_guard_rejects_everything():
    f = SlicePolynomial([ONE, Quaternion.real(1e-6)])  # |F2| <= 1e-6 everywhere on the unit sphere
    with pytest.raises(DegeneratePointError):
        sf_roundtrip_errors(f, 1.0, 50, np.random.default_rng(25))
    with pytest.raises(ValueError):
        sf_roundtrip_errors(f, 1.0, 0, np.random.default_rng(25))


def test_sf_domain_points_skip_rows_near_the_real_axis():
    class Batches:
        """Stands in for the generator: hands out the given rows in turn."""

        def __init__(self, *batches):
            self.batches = list(batches)

        def normal(self, size):
            rows = self.batches.pop(0)
            assert rows.shape == size
            return rows

    # beta <= 8e-5 r; for x^10 at r = 1, |F2| ~ 10 beta clears 1e-4 (1 + scale),
    # so only the beta >= 1e-3 r guard stands between these rows and S_f
    near = np.array([[1.0, 5e-5, 0.0, 0.0], [-1.0, 0.0, 5e-5, 0.0], [1.0, 3e-5, 3e-5, 3e-5], [-1.0, 0.0, 0.0, 8e-5]])
    # beta = 2e-3 r sits just above the guard
    spread = np.array([[0.3, 1.0, 0.0, 0.0], [0.5, 0.2, 0.7, 0.1], [1.0, 0.0, 2e-3, 0.0], [-0.2, -0.4, 0.3, 0.9]])
    f = SlicePolynomial([ZERO] * 10 + [ONE])
    scale = f.stem_scale(1.0)
    z, junit = _split_parts(tuple(near.T / np.linalg.norm(near, axis=1)))
    f1, f2 = f.stem_arrays(z)
    assert np.all(z.imag < 1e-4)
    assert np.all(np.sqrt(sum(c * c for c in f2)) > 1e-4 * (1.0 + scale))
    assert np.all(np.sqrt(sum(c * c for c in _slice_value(f1, f2, junit))) > 1e-9 * (1.0 + scale))

    got = _sf_domain_points(f, 1.0, 4, Batches(near, spread))
    assert np.allclose(got, spread / np.linalg.norm(spread, axis=1)[:, None], rtol=0.0, atol=1e-15)


def _scalar_log_abs_stems(f, x):
    p = decompose(x)
    stem = f.stem_components(p.alpha, p.beta)
    return math.log((stem.F1 + p.unit * stem.F2).abs())


@pytest.mark.parametrize("name, f, r", SF_CASES, ids=[c[0] for c in SF_CASES])
def test_boundary_identity_residual_matches_scalar_nodes(name, f, r):
    """The product-rule oracle against every node of the n = 8 rule
    evaluated on its own with integrate, S_map and stem_components."""
    rule = build_rule(r, 8)
    check = boundary_identity_residual(f, rule)
    mean_f = integrate(rule, lambda x: _scalar_log_abs_stems(f, x)) / rule.measure
    mean_fs = integrate(rule, lambda x: _scalar_log_abs_stems(f, S_map(f, x))) / rule.measure
    if isinstance(f, SemiregularFunction):
        num, den = normal(f.num), f.den
        log_n = lambda x: log_abs(num, x) - 2.0 * log_abs(den, x)  # noqa: E731
    else:
        log_n = lambda x: log_abs(normal(f), x)  # noqa: E731
    identity = max(
        abs(log_n(x) - _scalar_log_abs_stems(f, x) - _scalar_log_abs_stems(f, S_map(f, x)))
        for x in map(Quaternion.from_array, rule.nodes)
    )
    assert check.means.mean_log_f == pytest.approx(mean_f, abs=1e-13)
    assert check.means.mean_log_f_sf == pytest.approx(mean_fs, abs=1e-13)
    assert check.identity_max == pytest.approx(identity, abs=1e-13)


def _unblocked_oracle(f, rule):
    """``boundary_identity_residual`` on the flat (n, 2n^2) node arrays
    at once, integrated with the flat weights."""
    per_angle = len(rule) // rule.orders[0]
    alpha, beta = rule.alpha[::per_angle, None], rule.beta[::per_angle, None]
    z = alpha + 1j * beta
    f1, f2 = f.stem_arrays(z)
    junit = (0.0, *np.ascontiguousarray(rule.junits[:per_angle, 1:].T))
    x = (alpha, beta * junit[1], beta * junit[2], beta * junit[3])
    y = _sf_parts(x, junit, f1, f2, f.stem_scale(rule.radius))
    log_fx = 0.5 * np.log(sum(c * c for c in _slice_value(f1, f2, junit)))
    fy = _slice_value(f1, f2, (0.0, y[1] / beta, y[2] / beta, y[3] / beta))
    log_fy = 0.5 * np.log(sum(c * c for c in fy))
    means = [float(np.dot(rule.weights, v.ravel())) / rule.measure for v in (log_fx, log_fy)]
    return means, float(np.max(np.abs(log_normal_values(f, z) - log_fx - log_fy)))


ODD_ORDER = 4 * ORACLE_BLOCK + 3  # the last block is short


@pytest.mark.parametrize("n", [48, ODD_ORDER])
def test_blocked_oracle_matches_unblocked_evaluation(n):
    assert ODD_ORDER % ORACLE_BLOCK
    for entry in CORPUS_CASES:
        f = as_semiregular(load_function(CORPUS / entry["file"]))
        rule = build_rule(entry["r"], n)
        check = boundary_identity_residual(f, rule)
        assert not {"nodes", "weights", "alpha", "beta", "junits"} & set(vars(rule))
        (mean_fx, mean_fy), identity = _unblocked_oracle(f, rule)
        assert abs(check.means.mean_log_f - mean_fx) <= 1e-14, entry["name"]
        assert abs(check.means.mean_log_f_sf - mean_fy) <= 1e-14, entry["name"]
        assert abs(check.identity_max - identity) <= 1e-14, entry["name"]


def test_blocked_oracle_names_the_nonfinite_node():
    # f(x) = x - x_k vanishes exactly at node k, so log|f| there is -inf;
    # the nodes sit in the first block, mid-way through a later block and
    # at the start of one
    n = 2 * ORACLE_BLOCK + 3
    rule = build_rule(1.0, n)
    per_angle = 2 * n * n
    for k in (5, (ORACLE_BLOCK + 1) * per_angle + 37, ORACLE_BLOCK * per_angle, len(rule) - 1):
        node = Quaternion.from_array(rule.nodes[k])
        with np.errstate(divide="ignore"), pytest.raises(NonFiniteIntegrandError) as err:
            # log|N(f)| is -inf on the node's sphere
            boundary_identity_residual(SlicePolynomial.linear(node), rule)
        assert err.value.node == node
        assert f"node {k} =" in str(err.value)
