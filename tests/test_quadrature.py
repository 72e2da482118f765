import json
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from slicereg.errors import DegeneratePointError, NonFiniteIntegrandError
from slicereg.io import load_function, parse_function
from slicereg.quaternions import I, J, ONE, ZERO, Quaternion, decompose, split
from slicereg.quadrature import (
    _gauss_legendre,
    _homogeneous_units,
    _identity_map,
    _log_abs_f_and_f_sf,
    _polar_angles,
    _sf_domain_points,
    _sf_inverse_parts,
    _sf_parts,
    _slice_value,
    DEGENERATE_REL,
    SPHERE_MEASURE,
    KRONECKER_STEPS,
    ORACLE_BLOCK,
    SphereQuadratureRule,
    boundary_identity_residual,
    boundary_means,
    build_rule,
    circular_reduction,
    log_normal_values,
    oracle_orders,
    polar_rule,
    s2_means,
    s3_points,
    sf_roundtrip_errors,
    sphere_mean_log_abs,
)
from slicereg.slicepoly import SlicePolynomial, horner, log_abs, normal, slice_product
from slicereg.verify import exact_mean_log_abs
from slicereg.zeros_poles import SemiregularFunction, analyze, as_semiregular

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import near_boundary_functions  # noqa: E402


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
    with pytest.raises(ValueError):
        build_rule(1.0, 8, (), 3)


def integrate_values(rule: SphereQuadratureRule, values: np.ndarray) -> float:
    """Sum w_i v_i for values v at the rule nodes, one factor at a time:
    the unblocked oracle of the walks over ``SphereQuadratureRule.blocks``."""
    return rule.measure * float(np.dot(rule.polar_weights, s2_means(rule, values)))


def integrate(rule, u) -> float:
    """Sum w_i u(x_i) over the product-rule nodes, one scalar call of u
    per node: the pointwise oracle of the array paths and of
    ``integrate_values``."""
    values = np.fromiter((u(Quaternion.from_array(row)) for row in rule.nodes), float, len(rule))
    return integrate_values(rule, values)


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


@pytest.mark.parametrize("n, shadows", [(12, ()), (48, ()), (16, (0.95j, 0.4 + 0.85j))],
                         ids=["n12", "n48", "graded"])
def test_rule_nodes_from_the_factors_match_the_flat_construction(n, shadows):
    rule = build_rule(1.0, n, shadows)
    nodes = rule.nodes
    assert not {"alpha", "beta", "junits"} & set(vars(rule))  # built from the two factors
    # the former construction, from the repeated and tiled flat arrays
    want = rule.beta[:, None] * rule.junits
    want[:, 0] = rule.alpha
    assert nodes.shape == want.shape and nodes.dtype == want.dtype
    assert nodes.tobytes() == want.tobytes()


def test_rule_factors_are_shared_and_read_only():
    a, b = build_rule(1.0, 24), build_rule(2.5, 24)
    assert a.s2_units is b.s2_units and a.s2_weights is b.s2_weights
    assert not a.s2_units.flags.writeable and not a.s2_weights.flags.writeable
    assert float(np.sum(a.s2_weights)) == pytest.approx(1.0, abs=1e-15)
    z, w = polar_rule(2.5, 24)
    assert np.array_equal(b.polar_z, z) and np.array_equal(b.polar_weights, w)
    # graded polar factor and an S^2 order of its own
    shadows = [2.4 * complex(math.cos(1.0), math.sin(1.0))]
    c = build_rule(2.5, 16, shadows, 24)
    assert c.orders == (16, 24, 48) and c.s2_units is a.s2_units
    z, w = polar_rule(2.5, 16, shadows)
    assert np.array_equal(c.polar_z, z) and np.array_equal(c.polar_weights, w)
    assert len(c) == len(z) * 2 * 24**2 and len(z) > 16


# -- circular reduction and its exact mean ----------------------------------


def test_polar_angles_cached_read_only():
    theta, wt = _polar_angles(48)
    assert _polar_angles(48)[0] is theta
    assert not theta.flags.writeable and not wt.flags.writeable
    with pytest.raises(ValueError):
        theta[0] = 0.0
    # polar_rule is bitwise the uncached construction
    t, w = _gauss_legendre(48)
    t = 0.5 * math.pi * (t + 1.0)
    for _ in range(2):
        z, wz = polar_rule(1.3, 48)
        assert np.array_equal(z, 1.3 * np.cos(t) + 1j * (1.3 * np.sin(t)))
        assert np.array_equal(wz, w * np.sin(t) ** 2)


def _mp_gauss_legendre(n: int, x0: float) -> tuple:
    """The Gauss-Legendre node next to x0 and its weight, by Newton on the
    recurrence in 40-digit mpmath, as floats."""
    with mpmath.workdps(40):
        x = mpmath.mpf(x0)
        for _ in range(3):  # from a double's 1e-16, past 40 digits
            p_prev, p = mpmath.mpf(1), x
            for j in range(1, n):
                p_prev, p = p, ((2 * j + 1) * x * p - j * p_prev) / (j + 1)
            dp = n * (p_prev - x * p) / (1 - x * x)
            x -= p / dp
        return float(x), float(2 / ((1 - x * x) * dp * dp))


@pytest.mark.parametrize("n", [4, 5, 12, 16, 24, 48, 128, 256])
def test_gauss_legendre_against_mpmath(n):
    x, w = _gauss_legendre(n)
    assert len(x) == len(w) == n and np.all(np.diff(x) > 0.0)
    want = np.array([_mp_gauss_legendre(n, xk) for xk in x[n // 2:]])
    assert np.all(np.abs(x[n // 2:] - want[:, 0]) <= 2 * np.spacing(want[:, 0]))
    assert np.max(np.abs(w[n // 2:] / want[:, 1] - 1.0)) <= (1e-13 if n <= 48 else 1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 12, 47, 48, 128])
def test_gauss_legendre_exact_on_even_monomials_and_symmetric(n):
    x, w = _gauss_legendre(n)
    for m in range(n):  # 2m <= 2n - 1
        assert abs(float(np.dot(w, x ** (2 * m))) - 2.0 / (2 * m + 1)) <= 1e-14, m
    assert x.tobytes() == (-x[::-1] + 0.0).tobytes() and w.tobytes() == w[::-1].tobytes()


@pytest.mark.parametrize("radius", [0.99, 0.9999, 1.0001, 1.01])
def test_graded_polar_rule_resolves_a_near_shadow(radius):
    # log|N| of a sphere at |s| = radius: the plain rule misses its
    # exact mean by > 1e-3, the rule graded toward s holds it to roundoff
    s = radius * complex(math.cos(1.0), math.sin(1.0))
    want = exact_mean_log_abs(1.0, [s, s.conjugate()], 1.0)

    def mean(z, w):
        return float(np.dot(w, np.log(np.abs(z - s)) + np.log(np.abs(z - s.conjugate()))))

    z, w = polar_rule(1.0, 16, [s])
    assert len(z) % 16 == 0 and float(np.sum(w)) == pytest.approx(1.0, abs=1e-15)
    assert abs(mean(z, w) - want) <= 1e-14
    assert abs(mean(*polar_rule(1.0, 16)) - want) >= 1e-3
    # a shadow on the contour or farther than pi r from it adds no panel
    for far in (1.0j, 5.0):
        assert np.array_equal(polar_rule(1.0, 16, [far])[0], polar_rule(1.0, 16)[0])


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
#
# The scalar T_map, S_map and s_inverse_map below are the pointwise oracle
# of the array S_f (``quadrature._sf_parts`` and ``_sf_inverse_parts``):
# they evaluate one point at a time with Quaternion arithmetic and
# ``stem_components``, sharing no code with the array path except the
# formulas themselves.  No command runs them.


def _eval_conjugate(f, x: Quaternion) -> Quaternion:
    """Oracle: f^c(x) from the stems, conj(F1)(z) + J conj(F2)(z)."""
    p = decompose(x)
    stem = f.stem_components(p.alpha, p.beta)
    if p.beta == 0.0:
        return stem.F1.conj()
    return stem.F1.conj() + p.unit * stem.F2.conj()


def T_map(f, x: Quaternion) -> Quaternion:
    """Oracle: T_f(x) = f^c(x)^{-1} x f^c(x); maps each sphere S_x onto itself."""
    fc = _eval_conjugate(f, x)
    scale = f.stem_scale(x.abs())
    if fc.abs() <= DEGENERATE_REL * (1.0 + scale):
        raise DegeneratePointError("f^c vanishes at the requested point")
    return fc.inverse() * x * fc


def S_map(f, x: Quaternion) -> Quaternion:
    """Oracle of the array S_f: S_f(x), the conjugate of x within its
    sphere by f'_s and f.

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
    """Oracle of the array S_f^{-1}: y -> T_f(conj(f'_s(y)^{-1} y f'_s(y)))."""
    p = decompose(y)
    stem = f.stem_components(p.alpha, p.beta)
    s = stem.F2  # f'_s direction; scalar factor cancels
    scale = f.stem_scale(y.abs())
    if s.abs() <= DEGENERATE_REL * (1.0 + scale):
        raise DegeneratePointError("inverse of S_f undefined on the degenerate set")
    w = (s.inverse() * y * s).conj()
    return T_map(f, w)


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
        got = float(sphere_mean_log_abs(np.array([a]), np.array([a * u]), np.array([a * (1.0 - u)]))[0])
        assert got == pytest.approx(want, abs=1e-13), u
    # B = 0 is the series branch, exactly (1/2) log A
    assert sphere_mean_log_abs(np.array([a]), np.array([0.0]), np.array([a]))[0] == 0.5 * math.log(a)
    # B = A in doubles with the least |f|^2 = C far below their rounding: 1 - B/A
    # comes from C, so the mean stays finite (A - B by subtraction would give 0 * log 0)
    got = sphere_mean_log_abs(np.array([a]), np.array([a]), np.array([1e-20 * a]))[0]
    assert got == pytest.approx(0.5 * math.log(a) + 0.5 * math.log(2.0) - 0.5, abs=1e-15)


NEAR_BOUNDARY_CASES = [(f"nb{seed}_{name}", record) for seed in (1, 2, 3)
                       for name, record in near_boundary_functions(seed).items()]
NEAR_BOUNDARY_CASES.append(("near_boundary_sphere", json.loads((CORPUS / "poly_near_boundary_sphere.json").read_text())))


def _mp_boundary_means(f, r: float, edges: list[float]) -> tuple[float, float]:
    """Both boundary means by 30-digit mpmath quadrature over the panels:
    the stems, |den|^2, the S^2 closed form and log|N(f)|, from the stem
    |F1|^2 - |F2|^2 + 2i F1.F2 of N(num), all in mpmath."""
    num = [[mpmath.mpf(x) for x in (c.w, c.x1, c.x2, c.x3)] for c in f.num.coeffs]
    den = [mpmath.mpf(c) for c in f.den.real_coeffs()]
    values = {}

    def at(t):
        if t not in values:
            zm = [(r * mpmath.expj(t)) ** m for m in range(len(num))]
            f1 = [mpmath.fsum(p.real * c[i] for p, c in zip(zm, num)) for i in range(4)]
            f2 = [mpmath.fsum(p.imag * c[i] for p, c in zip(zm, num)) for i in range(4)]
            d2 = abs(mpmath.fsum(p * c for p, c in zip(zm, den))) ** 2
            n1, n2 = (mpmath.fsum(x * x for x in q) for q in (f1, f2))
            dot = mpmath.fsum(x * y for x, y in zip(f1, f2))
            (p0, *pv), (q0, *qv) = f1, f2
            cross = [pv[1] * qv[2] - pv[2] * qv[1], pv[2] * qv[0] - pv[0] * qv[2], pv[0] * qv[1] - pv[1] * qv[0]]
            im = [q0 * pv[i] - p0 * qv[i] - cross[i] for i in range(3)]  # Im(F1 conj F2)
            a, b = (n1 + n2) / d2, 2 * mpmath.sqrt(mpmath.fsum(x * x for x in im)) / d2
            log_f = mpmath.log(a) / 2 if b == 0 else (((a + b) * mpmath.log(a + b) - (a - b) * mpmath.log(a - b)) / b - 2) / 4
            log_n = mpmath.log((n1 - n2) ** 2 + 4 * dot * dot) / 2 - mpmath.log(d2)
            weight = 2 / mpmath.pi * mpmath.sin(t) ** 2
            values[t] = weight * log_f, weight * log_n
        return values[t]

    with mpmath.workdps(30):
        mean_f, err_f = mpmath.quad(lambda t: at(t)[0], edges, method="gauss-legendre", error=True)
        mean_n, err_n = mpmath.quad(lambda t: at(t)[1], edges, method="gauss-legendre", error=True)
        assert max(err_f, err_n) <= 1e-20
        return float(mean_f), float(mean_n - mean_f)


@pytest.mark.parametrize("name, record", NEAR_BOUNDARY_CASES, ids=[c[0] for c in NEAR_BOUNDARY_CASES])
def test_graded_means_against_mpmath(name, record):
    # the panel edges of polar_rule, recomputed from the shadows
    f = as_semiregular(parse_function(record))
    shadows = analyze(f, 1.0).shadows
    edges = {0.0, math.pi}
    for s in shadows:
        phi, step = math.atan2(s.imag, s.real), abs(abs(s) - 1.0)
        while step < math.pi:
            edges |= {min(max(phi + sign * step, 0.0), math.pi) for sign in (-1, 1)}
            step *= 2.0
    want = _mp_boundary_means(f, 1.0, sorted(edges))
    got = boundary_means(f, 1.0, 48, shadows)
    assert abs(got.mean_log_f - want[0]) <= 1e-13
    assert abs(got.mean_log_f_sf - want[1]) <= 1e-13


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
    f = slice_product(SlicePolynomial.linear(I * 0.5), SlicePolynomial.linear(J * 0.5))
    errs = sf_roundtrip_errors(f, 1.0, 200, 6)
    assert len(errs) == 200
    assert float(np.max(errs)) <= 1e-9


# -- array S_f against the scalar maps -------------------------------------------
#
# The scalar S_map / s_inverse_map / T_map of the conjugation-maps section
# are the oracle of the array S_f.


def _array_maps(f, pts, r):
    """S_f and S_f^{-1} of the rows pts by the array path, as rows."""
    scale = f.stem_scale(r)
    x = tuple(pts.T)
    alpha, beta, junit = split(x)
    y = _sf_parts(x, junit, *f.stem_arrays(alpha + 1j * beta), scale)
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
    alpha, beta, junit = split(x)
    y = _sf_parts(x, junit, *g.stem_arrays(alpha + 1j * beta), g.stem_scale(1.0))
    for row, y_row in zip(pts, np.stack(y, axis=-1)):
        q = Quaternion.from_array(row)
        assert Quaternion.from_array(y_row) == q.conj() == S_map(g, q)
    with pytest.raises(DegeneratePointError):
        s_inverse_map(g, Quaternion.from_array(pts[0]))
    with pytest.raises(DegeneratePointError):
        _sf_inverse_parts(g, x, g.stem_scale(1.0))


def _scalar_domain_points(f, r, n_points, seed):
    """The sampler of the former scalar roundtrip: one ``s3_points`` row per
    candidate, in sequence order, and the same guards, kept as the reference."""
    points = []
    attempts = 0
    while len(points) < n_points and attempts < 40 * n_points:
        x = Quaternion.from_array(r * s3_points(attempts, 1, seed)[0])
        attempts += 1
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


def _seeded(seed):
    return lambda start, count: s3_points(start, count, seed)


def test_sf_roundtrip_samples_like_scalar_loop():
    # |F2| = 2.3e-4 |Im x| for the last function, so the guard rejects the
    # candidates with |Im x| < 0.87, about 40%, and several chunks are walked
    guarded = SlicePolynomial([ONE, Quaternion(0.0, 0.6, 0.0, 0.8) * 2.3e-4])
    for f, r in [(f, r) for _, f, r in SF_CASES] + [(guarded, 1.0)]:
        want = _scalar_domain_points(f, r, 300, 24)
        x, junit, f1, f2 = _sf_domain_points(f, r, 300, _seeded(24))
        assert len(want) == len(x[0]) == 300
        for q, row in zip(want, np.stack(x, axis=-1)):
            assert (q - Quaternion.from_array(row)).abs() <= 1e-15
        # the units and stems that come back are those of the points
        alpha, beta, units = split(x)
        for got, recomputed in zip((*junit[1:], *f1, *f2), (*units[1:], *sum(f.stem_arrays(alpha + 1j * beta), ()))):
            assert np.array_equal(got, recomputed)
        # the distances are roundoff on these points, as with the scalar maps
        errs = sf_roundtrip_errors(f, r, 300, 24)
        assert len(errs) == 300 and np.max(errs) <= 1e-12


def test_sf_roundtrip_guard_rejects_everything():
    f = SlicePolynomial([ONE, Quaternion.real(1e-6)])  # |F2| <= 1e-6 everywhere on the unit sphere
    # no point is in the domain: no distances, for the report to say so
    x, junit, f1, f2 = _sf_domain_points(f, 1.0, 50, _seeded(25))
    assert all(c.shape == (0,) for c in (*x, *junit, *f1, *f2))
    assert sf_roundtrip_errors(f, 1.0, 50, 25).shape == (0,)
    with pytest.raises(ValueError):
        sf_roundtrip_errors(f, 1.0, 0, 25)


class Chunks:
    """Stands in for the seeded sequence: hands out the given rows, scaled
    to unit length, one chunk per call, and records where each starts."""

    def __init__(self, *chunks):
        self.chunks, self.starts = list(chunks), []

    def __call__(self, start, count):
        rows = self.chunks.pop(0)
        assert rows.shape == (count, 4)
        self.starts.append(start)
        return rows / np.linalg.norm(rows, axis=1)[:, None]


def test_sf_domain_points_skip_rows_near_the_real_axis():
    # beta <= 8e-5 r; for x^10 at r = 1, |F2| ~ 10 beta clears 1e-4 (1 + scale),
    # so only the beta >= 1e-3 r guard stands between these rows and S_f
    near = np.array([[1.0, 5e-5, 0.0, 0.0], [-1.0, 0.0, 5e-5, 0.0], [1.0, 3e-5, 3e-5, 3e-5], [-1.0, 0.0, 0.0, 8e-5]])
    # beta = 2e-3 r sits just above the guard
    spread = np.array([[0.3, 1.0, 0.0, 0.0], [0.5, 0.2, 0.7, 0.1], [1.0, 0.0, 2e-3, 0.0], [-0.2, -0.4, 0.3, 0.9]])
    f = SlicePolynomial([ZERO] * 10 + [ONE])
    scale = f.stem_scale(1.0)
    alpha, beta, junit = split(tuple(near.T / np.linalg.norm(near, axis=1)))
    f1, f2 = f.stem_arrays(alpha + 1j * beta)
    assert np.all(beta < 1e-4)
    assert np.all(np.sqrt(sum(c * c for c in f2)) > 1e-4 * (1.0 + scale))
    assert np.all(np.sqrt(sum(c * c for c in _slice_value(f1, f2, junit))) > 1e-9 * (1.0 + scale))

    candidates = Chunks(near, spread)
    got = np.stack(_sf_domain_points(f, 1.0, 4, candidates)[0], axis=-1)
    assert candidates.starts == [0, 4]
    assert np.allclose(got, spread / np.linalg.norm(spread, axis=1)[:, None], rtol=0.0, atol=1e-15)


def test_sf_domain_points_return_what_they_accepted():
    # two rows of the first chunk pass the guards, and the 39 chunks after
    # it lie at the real axis: the two come back after 40 chunks
    near = np.array([[1.0, 5e-5, 0.0, 0.0], [-1.0, 0.0, 5e-5, 0.0], [1.0, 3e-5, 3e-5, 3e-5], [-1.0, 0.0, 0.0, 8e-5]])
    first = np.vstack([[0.3, 1.0, 0.0, 0.0], near[:2], [0.5, 0.2, 0.7, 0.1]])
    candidates = Chunks(first, *[near] * 39)
    got = np.stack(_sf_domain_points(SlicePolynomial([ZERO] * 10 + [ONE]), 1.0, 4, candidates)[0], axis=-1)
    assert candidates.chunks == [] and candidates.starts == list(range(0, 160, 4))
    assert np.array_equal(got, first[[0, 3]] / np.linalg.norm(first[[0, 3]], axis=1)[:, None])


# -- the seeded sample set on S^3 --------------------------------------------


def test_kronecker_steps_are_powers_of_the_root_of_x4_eq_x_plus_1():
    phi = mpmath.findroot(lambda x: x**4 - x - 1, 1.22)
    assert list(KRONECKER_STEPS) == pytest.approx([float(phi**-k) for k in (1, 2, 3)], rel=1e-15, abs=0.0)


@pytest.mark.parametrize("seed", [0, 1, 3, 2**70])
def test_s3_points_are_unit_and_reproducible(seed):
    rows = s3_points(0, 4000, seed)
    assert rows.shape == (4000, 4)
    assert np.max(np.abs(np.sqrt(np.sum(rows * rows, axis=1)) - 1.0)) <= 1e-15
    assert np.array_equal(rows, s3_points(0, 4000, seed))
    # a chunk of a long call is the same rows as a call of its own
    for start, count in ((0, 1), (7, 13), (1000, 1000), (3999, 1), (1234, 2049)):
        assert np.array_equal(rows[start:start + count], s3_points(start, count, seed))


def test_s3_points_differ_between_seeds():
    rows = [s3_points(0, 100, seed) for seed in (0, 1, 2, 3)]
    for a in range(4):
        for b in range(a):
            assert np.min(np.linalg.norm(rows[a] - rows[b], axis=1)) > 1e-3


@pytest.mark.parametrize("seed", [0, 1, 3])
def test_s3_points_cover_the_sphere_more_evenly_than_random_draws(seed):
    """The first and second moments of the uniform measure on S^3 are 0 and
    I/4; over 1000 rows the sequence is closer to both than 1000 seeded
    normal draws scaled to unit length."""
    def moment_errors(rows):
        return np.max(np.abs(rows.mean(axis=0))), np.linalg.norm(rows.T @ rows / len(rows) - np.eye(4) / 4)

    d = np.random.default_rng(seed).normal(size=(1000, 4))
    drawn = moment_errors(d / np.linalg.norm(d, axis=1)[:, None])
    sequence = moment_errors(s3_points(0, 1000, seed))
    assert sequence[0] < drawn[0] and sequence[1] < drawn[1], (sequence, drawn)


def _scalar_log_abs_stems(f, x):
    p = decompose(x)
    stem = f.stem_components(p.alpha, p.beta)
    return math.log((stem.F1 + p.unit * stem.F2).abs())


# F2 vanishes on the sphere of the polar node theta = pi/2 of an odd order,
# where S_f is conjugation; neither function has a zero on |x| = 1.  There
# F2 = Im(z^2) J is 2 cos(pi/2) = 1.2e-16 in doubles, under DEGENERATE_REL,
# but f o S_f barely depends on S_f where F2 is that small; F2 =
# (Im z + Im z^3) J is exactly 0, so without the branch g = F1 F2^{-1} and
# the oracle would not be finite.
DEGENERATE_ANGLE = [
    ("degenerate_angle", SlicePolynomial([Quaternion(2.0, 0.5, 0.0, 0.0), ZERO, J]), 1.0, 9),
    ("degenerate_angle_exact", SlicePolynomial([Quaternion(3.0, 0.5, 0.0, 0.0), J, ZERO, J]), 1.0, 9),
]
ORACLE_CASES = [(name, f, r, 8) for name, f, r in SF_CASES] + DEGENERATE_ANGLE


@pytest.mark.parametrize("name, f, r, n", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES])
def test_boundary_identity_residual_matches_scalar_nodes(name, f, r, n):
    """The product-rule oracle against every node of the order-n rule
    evaluated on its own with integrate, S_map and stem_components."""
    rule = build_rule(r, n)
    if name.startswith("degenerate_angle"):
        stems = [f.stem_components(z.real, z.imag) for z in rule.polar_z]
        assert sum(s.F2.abs() <= DEGENERATE_REL * (1.0 + f.stem_scale(r)) for s in stems) == 1
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
    """``boundary_identity_residual`` with its per-angle map applied to
    the whole (K, 2q^2) grid by one einsum, with no blocks: the same
    arithmetic per node and per angle."""
    z = rule.polar_z
    maps = _identity_map(*f.stem_arrays(z), f.stem_scale(rule.radius))
    log_fx, log_fy = _log_abs_f_and_f_sf(maps, _homogeneous_units(rule))
    sphere_means = np.stack([np.einsum("km,m->k", v, rule.s2_weights) for v in (log_fx, log_fy)])
    mean_fx, mean_fy = sphere_means @ rule.polar_weights
    return (mean_fx, mean_fy), float(np.max(np.abs(log_normal_values(f, z)[:, None] - log_fx - log_fy)))


def _block_angles(rule):
    """Polar angles per oracle block: whole S^2 grids of at most
    ORACLE_BLOCK nodes."""
    return ORACLE_BLOCK // len(rule.s2_weights)


def _assert_short_last_block(rule):
    angles, per_block = len(rule.polar_z), _block_angles(rule)
    assert angles > 2 * per_block and angles % per_block, (angles, per_block)


def _block_edge_cases(kind):
    """(name, f, rule) whose oracle runs in >= 3 blocks, the last one
    short.  plain: every corpus case on one panel of 40 angles with the
    q = 20 grid, 11 angles a block.  graded: near_boundary_sphere on its
    own shadows' 7 panels of 16 angles with the same grid."""
    for entry in CORPUS_CASES:
        if kind == "plain" or entry["name"] == "near_boundary_sphere":
            f, r = as_semiregular(load_function(CORPUS / entry["file"])), entry["r"]
            rule = build_rule(r, 40, (), 20) if kind == "plain" else build_rule(r, 16, analyze(f, r).shadows, 20)
            yield entry["name"], f, rule


@pytest.mark.parametrize("kind", ["plain", "graded"])
def test_blocked_oracle_matches_unblocked_evaluation(kind):
    cases = list(_block_edge_cases(kind))
    assert len(cases) == (len(CORPUS_CASES) if kind == "plain" else 1)
    for name, f, rule in cases:
        _assert_short_last_block(rule)
        check = boundary_identity_residual(f, rule)
        assert not {"nodes", "weights", "alpha", "beta", "junits"} & set(vars(rule))
        (mean_fx, mean_fy), identity = _unblocked_oracle(f, rule)
        assert (check.means.mean_log_f, check.means.mean_log_f_sf) == (mean_fx, mean_fy), name
        assert check.identity_max == identity, name


def test_blocked_oracle_names_the_nonfinite_node():
    # f(x) = x - x_k vanishes exactly at node k, so log|f| there is -inf;
    # the nodes sit in the first block, mid-way through a later block, at
    # the start of one and at the end of the short last block
    rule = build_rule(1.0, 40, (), 20)
    _assert_short_last_block(rule)
    per_angle, per_block = len(rule.s2_weights), _block_angles(rule)
    for k in (5, (per_block + 1) * per_angle + 37, per_block * per_angle, len(rule) - 1):
        node = Quaternion.from_array(rule.nodes[k])
        with np.errstate(divide="ignore"), pytest.raises(NonFiniteIntegrandError) as err:
            # log|N(f)| is -inf on the node's sphere
            boundary_identity_residual(SlicePolynomial.linear(node), rule)
        assert err.value.node == node
        assert f"node {k} =" in str(err.value)


@pytest.mark.parametrize("k", [0, 37, 2 * 2 * 12**2 + 5, 2 * 12**3 - 1])
def test_nonfinite_integrand_names_its_node_without_the_flat_arrays(k):
    rule = build_rule(1.0, 12)
    values = np.zeros(len(rule))
    values[k] = math.nan
    with pytest.raises(NonFiniteIntegrandError) as err:
        integrate_values(rule, values)
    assert not {"nodes", "weights", "alpha", "beta", "junits"} & set(vars(rule))
    node = Quaternion.from_array(rule.nodes[k])  # the flat array as the oracle
    assert err.value.node == node
    assert str(err.value) == (f"integrand not finite at node {k} = {node}; a zero or pole sits on or near "
                              "the integration sphere")


def test_rule_blocks_walk_whole_angles_in_order():
    rules = (build_rule(1.0, 48), build_rule(1.0, 40, (), 32), build_rule(1.0, 16, (0.95j,), 24),
             build_rule(1.0, 4, (), 128), build_rule(1.0, 16, (0.95j,), 12))
    for rule, max_nodes in ((rule, m) for rule in rules for m in (1, ORACLE_BLOCK, 8 * 2 * 48**2)):
        blocks = list(rule.blocks(max_nodes))
        angles = [range(len(rule.polar_z))[blk] for blk in blocks]
        assert [a for r in angles for a in r] == list(range(len(rule.polar_z)))
        assert all(len(r) == max(1, max_nodes // len(rule.s2_weights)) for r in angles[:-1])


def _oracle_rule(name):
    """f of the corpus case name and the rule of its oracle at n = 48."""
    entry = next(e for e in CORPUS_CASES if e["name"] == name)
    f, r = as_semiregular(load_function(CORPUS / entry["file"])), entry["r"]
    p, q = oracle_orders(48)
    return f, build_rule(r, p, analyze(f, r).shadows, q)


@pytest.mark.parametrize("name", ["deg8_all_kinds", "remark_nonuniform"])
def test_oracle_does_not_depend_on_its_block(name, monkeypatch):
    """One angle per block, the oracle's own block and the whole rule in
    one block give equal checks: no node's arithmetic depends on the walk."""
    import slicereg.quadrature as quadrature

    f, rule = _oracle_rule(name)
    own = boundary_identity_residual(f, rule)
    assert len(list(rule.blocks(ORACLE_BLOCK))) > 2
    for max_nodes in (1, len(rule)):
        monkeypatch.setattr(quadrature, "ORACLE_BLOCK", max_nodes)
        assert boundary_identity_residual(f, rule) == own, max_nodes


def test_oracle_memory_stays_under_2_mb():
    """The n = 48 oracle on deg8_all_kinds: 432 polar angles of 288 units.
    In blocks of 36 864 nodes its arrays peaked at 4.7 MB."""
    import tracemalloc

    f, rule = _oracle_rule("deg8_all_kinds")
    boundary_identity_residual(f, rule)  # caches the S^2 grid and the Gauss-Legendre angles
    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        boundary_identity_residual(f, rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# -- the quadrature suite's 3-D cross-check, walked by blocks ----------------


def test_quadrature_suite_never_builds_flat_rule_arrays(monkeypatch):
    from slicereg.quadrature import SphereQuadratureRule
    from slicereg.verify import suite_quadrature

    def flat(self):
        raise AssertionError("flat product-rule array built")

    for name in ("nodes", "weights", "alpha", "beta", "junits"):
        monkeypatch.setattr(SphereQuadratureRule, name, property(flat))
    for seed in (1, 7):
        assert suite_quadrature(seed).passed


def test_quadrature_suite_memory_does_not_grow_with_the_rule():
    """The n = 48 product rule has 221 184 nodes; as flat arrays with
    their rotation and shadows the suite peaked at 23 MB, and in blocks of
    36 864 nodes at 4.4 MB."""
    import tracemalloc

    from slicereg.verify import run_suite

    tracemalloc.start()  # numpy reports its buffers to tracemalloc
    try:
        result = run_suite("quadrature", 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed and peak < 1.5 * 2**20


@pytest.mark.parametrize("seed", [1, 7])
def test_quadrature_suite_blocked_means_match_unblocked_rule(seed, monkeypatch):
    """The suite's 3-D rows against the flat rule, bit for bit: it draws the
    polynomials of its seed's stream, and rotating every node at once by
    alpha u + beta (u J), log|N(f)| by ``log_normal_values`` and einsum S^2
    means give its residuals."""
    import slicereg.verify as verify
    from slicereg.quaternions import qmul_parts
    from slicereg.zeros_poles import normal_coeffs

    product_poly, drawn = verify._product_poly, []

    def recorded(*args, **kwargs):
        drawn.append(product_poly(*args, **kwargs))
        return drawn[-1]

    monkeypatch.setattr(verify, "_product_poly", recorded)
    rows = [row for row in verify.suite_quadrature(seed).rows if row.identity.startswith("3D rule")]
    stream = verify.Stream(seed)  # the suite's draws, in its order
    cases = [product_poly(stream, 0.3, 0.6, max_factors=3) for _ in range(5)]
    assert [(f.coeffs, c, roots) for f, c, roots in drawn] == [(f.coeffs, c, roots) for f, c, roots in cases]
    rule = build_rule(1.0, 48)
    u = verify.ROTATION.components()
    ux = [rule.alpha * a + rule.beta * b for a, b in zip(u, qmul_parts(u, tuple(rule.junits.T)))]
    direct = qmul_parts(u, tuple(rule.nodes.T))  # u x by one product per node: equal to roundoff
    assert max(float(np.max(np.abs(a - b))) for a, b in zip(ux, direct)) <= 1e-15
    z_rotated = ux[0] + 1j * np.sqrt(ux[1] * ux[1] + ux[2] * ux[2] + ux[3] * ux[3])
    assert len(rows) == 5
    for row, (f, c, roots) in zip(rows, cases):
        shadows = [complex(q.re(), q.abs_im()) for q in roots]
        exact = exact_mean_log_abs(c.norm2(), shadows + [s.conjugate() for s in shadows], 1.0)
        values = log_normal_values(f, z_rotated)
        assert np.array_equal(values, np.log(np.abs(horner(normal_coeffs(f), z_rotated))))  # the suite's hoisted N(f)
        full = integrate_values(rule, values) / rule.measure
        assert row.residual == abs(full - exact), row.case


def test_quadrature_suite_rows_do_not_depend_on_the_block(monkeypatch):
    """One polar angle per block, ``ORACLE_BLOCK`` (2 angles of q = 48) and
    the whole rule in one block give equal rows."""
    import slicereg.verify as verify

    own = verify.suite_quadrature(1)
    assert len(list(build_rule(1.0, 48).blocks(ORACLE_BLOCK))) > 2
    for max_nodes in (1, len(build_rule(1.0, 48))):
        monkeypatch.setattr(verify, "ORACLE_BLOCK", max_nodes)
        assert verify.suite_quadrature(1).rows == own.rows, max_nodes
