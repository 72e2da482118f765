import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicereg.quaternions import I, J, K, ONE, ZERO, Quaternion, decompose
from slicereg.slicepoly import (
    BETA_SWITCH,
    LogOfZeroError,
    NormalNotRealError,
    SlicePolynomial,
    horner,
    log_abs,
    normal,
    slice_product,
    spherical_derivative,
    spherical_value,
)
from slicereg.zeros_poles import SemiregularFunction

finite = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False)
coeffs = st.lists(st.builds(Quaternion, finite, finite, finite, finite), min_size=1, max_size=5)
polys = st.builds(SlicePolynomial, coeffs)


def nonreal_points(rng, n=10, rmax=1.5):
    pts = []
    while len(pts) < n:
        x = Quaternion.from_array(rng.uniform(-rmax, rmax, 4))
        if x.abs_im() > 0.1:
            pts.append(x)
    return pts


# -- evaluation ----------------------------------------------------------


def test_eval_examples():
    f = SlicePolynomial.from_real([1.0, 0.0, 1.0])  # x^2 + 1
    assert f.eval(J).isclose(Quaternion(0, 0, 0, 0))
    g = SlicePolynomial.linear(I)  # x - i
    assert g.eval(ONE).isclose(Quaternion(1, -1, 0, 0))
    prod = slice_product(SlicePolynomial.linear(I), SlicePolynomial.linear(J))
    assert prod.eval(J).isclose(K * 2.0)


def test_eval_agrees_with_stem_lifting():
    rng = np.random.default_rng(1)
    f = SlicePolynomial([Quaternion.from_array(rng.normal(size=4)) for _ in range(5)])
    for x in nonreal_points(rng):
        p = decompose(x)
        stem = f.stem_components(p.alpha, p.beta)
        lifted = stem.F1 + p.unit * stem.F2
        assert (f.eval(x) - lifted).abs() <= 1e-12 * (1.0 + lifted.abs())


def test_stem_component_examples():
    f = SlicePolynomial.from_real([0.0, 0.0, 1.0])  # x^2
    s = f.stem_components(0.0, 1.0)
    assert s.F1.isclose(-ONE) and s.F2.abs() <= 1e-15

    g = SlicePolynomial.linear(I)
    s = g.stem_components(0.0, 1.0)
    assert s.F1.isclose(-I) and s.F2.isclose(ONE)

    h = SlicePolynomial([Quaternion(0, 0, 0, 0), K, Quaternion(0, 0, 0, 0), ONE])  # x^3 + x k
    s = h.stem_components(1.0, 1.0)
    assert s.F1.isclose(Quaternion(-2, 0, 0, 1))
    assert s.F2.isclose(Quaternion(2, 0, 0, 1))


def test_stem_symmetry():
    rng = np.random.default_rng(2)
    f = SlicePolynomial([Quaternion.from_array(rng.normal(size=4)) for _ in range(6)])
    for _ in range(10):
        alpha, beta = rng.uniform(-1.5, 1.5), rng.uniform(0.1, 1.5)
        plus = f.stem_components(alpha, beta)
        minus = f.stem_components(alpha, -beta)
        assert (plus.F1 - minus.F1).abs() <= 1e-12 * (1 + plus.F1.abs())
        assert (plus.F2 + minus.F2).abs() <= 1e-12 * (1 + plus.F2.abs())


def test_stem_arrays_match_scalar():
    rng = np.random.default_rng(3)
    f = SlicePolynomial([Quaternion.from_array(rng.normal(size=4)) for _ in range(7)])
    z = rng.uniform(-1, 1, 16) + 1j * rng.uniform(0.05, 1, 16)
    f1, f2 = f.stem_arrays(z)
    for k in range(len(z)):
        s = f.stem_components(z[k].real, z[k].imag)
        assert np.allclose([c[k] for c in f1], s.F1.components(), atol=1e-12)
        assert np.allclose([c[k] for c in f2], s.F2.components(), atol=1e-12)


# -- the one stem kernel against the scalar loops it replaced ----------------


def _loop_stems(f, alpha, beta):
    """The former ``stem_components``: Quaternion sums, CPython complex powers."""
    z = complex(alpha, beta)
    f1 = f2 = ZERO
    zm = complex(1.0, 0.0)
    for c in f.coeffs:
        f1 = f1 + c * zm.real
        f2 = f2 + c * zm.imag
        zm *= z
    return f1, f2


def _loop_partials(f, alpha, beta):
    """The former ``stem_partials`` loop."""
    z = complex(alpha, beta)
    d1a = d1b = d2a = d2b = ZERO
    zm = complex(1.0, 0.0)
    for m in range(1, len(f.coeffs)):
        c = f.coeffs[m] * float(m)
        d1a = d1a + c * zm.real
        d1b = d1b - c * zm.imag
        d2a = d2a + c * zm.imag
        d2b = d2b + c * zm.real
        zm *= z
    return d1a, d1b, d2a, d2b


def _loop_spherical_value(f, x):
    p = decompose(x)
    return _loop_stems(f, p.alpha, p.beta)[0]


def _loop_spherical_derivative(f, x):
    p = decompose(x)
    if p.beta < BETA_SWITCH:
        return f.slice_derivative().eval(Quaternion.real(p.alpha))
    return _loop_stems(f, p.alpha, p.beta)[1] / p.beta


# real points, a negative real part and beta below BETA_SWITCH among them
SHADOWS = [(0.3, 0.7), (-1.2, 0.4), (0.9, 0.0), (-0.5, 0.0), (0.0, 1.3), (0.6, 1e-9), (-0.8, 1.1)]


def _at(parts, *index):
    """One point of parts as a Quaternion."""
    return Quaternion(*(float(c[index]) for c in parts))


def _kernel_case(deg):
    rng = np.random.default_rng(30 + deg)
    f = SlicePolynomial([Quaternion.from_array(rng.normal(size=4) * 0.7**m) for m in range(deg + 1)])
    z = np.array([complex(a, b) for a, b in SHADOWS] + list(rng.uniform(-1.2, 1.2, 8) + 1j * rng.uniform(0, 1.2, 8)))
    return f, z


@pytest.mark.parametrize("deg", range(9))
def test_stem_arrays_match_scalar_loop_bitwise(deg):
    f, z = _kernel_case(deg)
    f1, f2 = f.stem_arrays(z)
    column = f.stem_arrays(z[:, None])  # the layout of the product-rule oracle
    for k, zk in enumerate(z):
        want = _loop_stems(f, zk.real, zk.imag)
        s = f.stem_components(zk.real, zk.imag)
        assert (s.F1, s.F2) == want
        assert (_at(f1, k), _at(f2, k)) == want
        assert (_at(column[0], k, 0), _at(column[1], k, 0)) == want
    zero = SlicePolynomial([]).stem_arrays(z[:, None])
    assert all(c.shape == (len(z), 1) and not c.any() for stem in zero for c in stem)


@pytest.mark.parametrize("deg", range(9))
def test_stem_partials_match_scalar_loop(deg):
    f, z = _kernel_case(deg)
    for zk in z:
        assert f.stem_partials(zk.real, zk.imag) == _loop_partials(f, zk.real, zk.imag)


def _stems(f, alpha, beta):
    s = f.stem_components(alpha, beta)
    return s.F1, s.F2


def test_stem_partials_match_central_differences():
    h = 1e-6
    for deg in range(9):
        f, z = _kernel_case(deg)
        for zk in z:
            a, b = zk.real, zk.imag
            da = [(p - m) / (2.0 * h) for p, m in zip(_stems(f, a + h, b), _stems(f, a - h, b))]
            db = [(p - m) / (2.0 * h) for p, m in zip(_stems(f, a, b + h), _stems(f, a, b - h))]
            tol = 1e-7 * (1.0 + f.stem_scale(abs(zk) + h))
            for exact, fd in zip(f.stem_partials(a, b), (da[0], db[0], da[1], db[1])):
                assert (exact - fd).abs() <= tol, (deg, zk)


def test_spherical_operators_on_parts_match_quaternion_points():
    rng = np.random.default_rng(12)
    f = SlicePolynomial([Quaternion.from_array(rng.normal(size=4) * 0.6**m) for m in range(7)])
    points = nonreal_points(rng, 10) + [
        Quaternion.real(0.6), Quaternion.real(-1.1), Quaternion(0.3, 1e-20, 0.0, 0.0),  # (numerically) real
        Quaternion(0.6, 1e-9, 0.0, 0.0), Quaternion(-0.2, 0.0, -3e-9, 4e-9),  # beta < BETA_SWITCH
    ]
    parts = tuple(np.array(c) for c in zip(*(x.components() for x in points)))
    for op, loop in ((spherical_value, _loop_spherical_value), (spherical_derivative, _loop_spherical_derivative)):
        batched = op(f, parts)
        for k, x in enumerate(points):
            assert _at(batched, k) == op(f, x) == loop(f, x), (op.__name__, x)


def test_semiregular_stems_are_the_one_point_case_of_its_arrays():
    num = SlicePolynomial([Quaternion(0.3, -0.2, 0.5, 0.1), I, Quaternion(0.4, 0.0, 0.2, -0.7), ONE])
    fs = SemiregularFunction(SlicePolynomial.from_real([2.0, -0.5, 1.0]), num)
    _, z = _kernel_case(0)
    f1, f2 = fs.stem_arrays(z)
    for k, zk in enumerate(z):
        # the former scalar stems: CPython complex 1/d(z) times the num stems
        inv = 1.0 / horner([c.w for c in fs.den.coeffs], complex(zk))
        n1, n2 = _loop_stems(fs.num, zk.real, zk.imag)
        want = (n1 * inv.real - n2 * inv.imag, n1 * inv.imag + n2 * inv.real)
        s = fs.stem_components(zk.real, zk.imag)
        assert (s.F1, s.F2) == want
        got = (_at(f1, k), _at(f2, k))
        assert all((g - w).abs() <= 1e-15 * (1.0 + w.abs()) for g, w in zip(got, want))


# -- slice product -------------------------------------------------------


def test_slice_product_convolution_example():
    prod = slice_product(SlicePolynomial.linear(I), SlicePolynomial.linear(J))
    assert prod.coefficient(0).isclose(K)
    assert prod.coefficient(1).isclose(-(I + J))
    assert prod.coefficient(2).isclose(ONE)


def test_slice_product_identity():
    rng = np.random.default_rng(4)
    f = SlicePolynomial([Quaternion.from_array(rng.normal(size=4)) for _ in range(4)])
    one = SlicePolynomial.from_real([1.0])
    assert all(
        (a - b).abs() <= 1e-15 for a, b in zip(slice_product(f, one).coeffs, f.coeffs)
    )


@settings(max_examples=50)
@given(polys, polys, st.builds(Quaternion, finite, finite, finite, finite))
def test_pointwise_product_law(f, g, x):
    fx = f.eval(x)
    prod_at_x = slice_product(f, g).eval(x)
    scale = 1.0 + f.stem_scale(x.abs()) * g.stem_scale(x.abs())
    if fx.abs() <= 1e-6 * scale:
        return
    law = fx * g.eval(fx.inverse() * x * fx)
    assert (prod_at_x - law).abs() <= 1e-10 * scale


def test_product_vanishes_where_left_factor_does():
    f = SlicePolynomial.linear(I)
    g = SlicePolynomial.linear(Quaternion(0.3, 0.0, 0.7, 0.0))
    prod = slice_product(f, g)
    assert prod.eval(I).abs() <= 1e-14


def test_slice_preserving_commutation():
    rng = np.random.default_rng(5)
    g = SlicePolynomial.from_real(rng.normal(size=4))
    f = SlicePolynomial([Quaternion.from_array(rng.normal(size=4)) for _ in range(4)])
    left = slice_product(g, f)
    right = slice_product(f, g)
    for a, b in zip(left.coeffs, right.coeffs):
        assert (a - b).abs() <= 1e-12 * (1.0 + a.abs())


# -- conjugate and normal ------------------------------------------------


def test_conjugate_examples():
    f = SlicePolynomial.linear(I)
    assert f.conjugate().coefficient(0).isclose(I)
    g = SlicePolynomial.from_real([1.0, 2.0, 3.0])
    assert all((a - b).abs() == 0 for a, b in zip(g.conjugate().coeffs, g.coeffs))
    h = SlicePolynomial([K, J, ONE])  # x^2 + x j + k
    hc = h.conjugate()
    assert hc.coefficient(0).isclose(-K)
    assert hc.coefficient(1).isclose(-J)
    assert hc.coefficient(2).isclose(ONE)


def test_conjugate_at_real_points():
    rng = np.random.default_rng(6)
    f = SlicePolynomial([Quaternion.from_array(rng.normal(size=4)) for _ in range(5)])
    for a in (-1.3, 0.2, 0.9):
        x = Quaternion.real(a)
        assert (f.conjugate().eval(x) - f.eval(x).conj()).abs() <= 1e-13


def test_normal_examples():
    nf = normal(SlicePolynomial.linear(I))
    assert [c.w for c in nf.coeffs] == pytest.approx([1.0, 0.0, 1.0])
    ng = normal(SlicePolynomial.from_real([-0.5, 1.0]))
    assert [c.w for c in ng.coeffs] == pytest.approx([0.25, -1.0, 1.0])
    nprod = normal(slice_product(SlicePolynomial.linear(I), SlicePolynomial.linear(J)))
    assert [c.w for c in nprod.coeffs] == pytest.approx([1.0, 0.0, 2.0, 0.0, 1.0])


@settings(max_examples=50)
@given(polys)
def test_normal_symmetric_and_real(f):
    if f.is_zero:
        return
    left = slice_product(f, f.conjugate())
    right = slice_product(f.conjugate(), f)
    scale = 1.0 + f.coefficient_scale() ** 2
    for a, b in zip(left.coeffs, right.coeffs):
        assert (a - b).abs() <= 1e-12 * scale
    assert normal(f).is_slice_preserving(1e-12)


def test_normal_at_real_points_is_squared_modulus():
    rng = np.random.default_rng(7)
    f = SlicePolynomial([Quaternion.from_array(rng.normal(size=4)) for _ in range(4)])
    nf = normal(f)
    for a in (-0.7, 0.4, 1.1):
        x = Quaternion.real(a)
        assert nf.eval(x).re() == pytest.approx(f.eval(x).norm2(), rel=1e-10)


def test_normal_not_real_guard(monkeypatch):
    f = SlicePolynomial([I, ONE])
    import slicereg.slicepoly as sp

    def broken(g, h):  # deliberately wrong product to trip the check
        return SlicePolynomial([I, ONE, I])

    monkeypatch.setattr(sp, "slice_product", broken)
    with pytest.raises(NormalNotRealError):
        sp.normal(f)


# -- derivatives and spherical operators -----------------------------------


def test_slice_derivative_examples():
    f = SlicePolynomial([Quaternion(0, 0, 0, 0), J, ONE])  # x^2 + x j
    d = f.slice_derivative()
    assert d.coefficient(0).isclose(J)
    assert d.coefficient(1).isclose(ONE * 2.0)
    assert SlicePolynomial.from_real([3.0]).slice_derivative().is_zero
    g = SlicePolynomial([Quaternion(0, 0, 0, 0)] * 3 + [K])  # x^3 k
    d2 = g.slice_derivative().slice_derivative()
    assert d2.coefficient(1).isclose(K * 6.0)


def test_spherical_value_examples():
    x = Quaternion(2, 0, 3, 0)
    assert spherical_value(SlicePolynomial.from_real([0, 1]), x).isclose(Quaternion.real(2.0))
    sq = SlicePolynomial.from_real([0, 0, 1])
    assert spherical_value(sq, x).isclose(Quaternion.real(4.0 - 9.0))
    prod = slice_product(SlicePolynomial.linear(I), SlicePolynomial.linear(J))
    direct = (prod.eval(J) + prod.eval(-J)) * 0.5
    assert spherical_value(prod, J).isclose(direct)
    assert spherical_value(prod, J).isclose(Quaternion(-1, 0, 0, 1))


def test_spherical_derivative_examples():
    x = Quaternion(0.7, 0.2, -0.4, 1.1)
    ident = SlicePolynomial.from_real([0, 1])
    assert spherical_derivative(ident, x).isclose(ONE)
    sq = SlicePolynomial.from_real([0, 0, 1])
    assert spherical_derivative(sq, x).isclose(Quaternion.real(2 * x.re()))
    cube = SlicePolynomial.from_real([0, 0, 0, 1])
    # at real points: slice-derivative extension
    assert spherical_derivative(cube, Quaternion.real(2.0)).isclose(Quaternion.real(12.0))


def test_spherical_derivative_hard_switch_near_axis():
    f = SlicePolynomial.from_real([0.2, -0.4, 0.0, 1.0])
    d = f.slice_derivative()
    # below the switch: exactly the slice-derivative extension
    x_lo = Quaternion(0.6, 1e-9, 0.0, 0.0)
    assert spherical_derivative(f, x_lo).isclose(d.eval(Quaternion.real(0.6)))
    # just above: the stem quotient, continuous with the extension
    x_hi = Quaternion(0.6, 1e-7, 0.0, 0.0)
    diff = (spherical_derivative(f, x_hi) - d.eval(Quaternion.real(0.6))).abs()
    assert diff <= 1e-10


def test_representation_formula():
    rng = np.random.default_rng(8)
    f = SlicePolynomial([Quaternion.from_array(rng.normal(size=4)) for _ in range(6)])
    for x in nonreal_points(rng):
        rebuilt = spherical_value(f, x) + x.im() * spherical_derivative(f, x)
        assert (f.eval(x) - rebuilt).abs() <= 1e-12 * (1.0 + f.stem_scale(x.abs()))


def test_leibniz_rule_for_spherical_operators():
    rng = np.random.default_rng(9)
    for _ in range(20):
        f = SlicePolynomial([Quaternion.from_array(rng.normal(size=4)) for _ in range(4)])
        g = SlicePolynomial([Quaternion.from_array(rng.normal(size=4)) for _ in range(4)])
        x = nonreal_points(rng, 1)[0]
        lhs = spherical_derivative(slice_product(f, g), x)
        rhs = spherical_derivative(f, x) * spherical_value(g, x) + spherical_value(
            f, x
        ) * spherical_derivative(g, x)
        scale = 1.0 + f.stem_scale(x.abs()) * g.stem_scale(x.abs())
        assert (lhs - rhs).abs() <= 1e-10 * scale


def test_conjugate_stem_flips_second_component():
    # for slice-preserving g the conjugated function has stem (G1, -G2);
    # its spherical derivative is the negative of g's
    rng = np.random.default_rng(10)
    g = SlicePolynomial.from_real(rng.normal(size=5))
    for x in nonreal_points(rng, 5):
        p = decompose(x)
        gbar_x = g.eval(x).conj()
        gbar_xc = g.eval(x.conj()).conj()
        sd_bar = (x.im().inverse() * (gbar_x - gbar_xc)) * 0.5
        assert (sd_bar + spherical_derivative(g, x)).abs() <= 1e-12 * (
            1.0 + g.stem_scale(x.abs())
        )


def test_slice_preserving_conjugation_symmetry():
    rng = np.random.default_rng(11)
    g = SlicePolynomial.from_real(rng.normal(size=5))
    for x in nonreal_points(rng, 5):
        assert (g.eval(x.conj()) - g.eval(x).conj()).abs() <= 1e-12 * (
            1.0 + g.stem_scale(x.abs())
        )


# -- log_abs ----------------------------------------------------------------


def test_log_abs_examples():
    g = SlicePolynomial.from_real([1.0, 0.0, 1.0])
    assert log_abs(g, Quaternion.real(2.0)) == pytest.approx(math.log(5.0))
    assert log_abs(g, Quaternion(0, 0, 2, 0)) == pytest.approx(math.log(3.0))


def test_log_abs_circularity():
    rng = np.random.default_rng(12)
    nf = normal(slice_product(SlicePolynomial.linear(I), SlicePolynomial.linear(J)))
    base = log_abs(nf, Quaternion(1, 1, 0, 0))
    for _ in range(10):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        x = Quaternion(1.0, *v)
        assert log_abs(nf, x) == pytest.approx(base, abs=1e-12)


def test_log_abs_errors():
    g = SlicePolynomial.from_real([1.0, 0.0, 1.0])
    with pytest.raises(LogOfZeroError):
        log_abs(g, I)
    with pytest.raises(ValueError):
        log_abs(SlicePolynomial.linear(I), ONE)


# -- housekeeping -------------------------------------------------------------


def test_trailing_zero_coefficients_stripped():
    f = SlicePolynomial([ONE, I, Quaternion(0, 0, 0, 0)])
    assert f.degree == 1


def test_degree_cap():
    with pytest.raises(ValueError):
        SlicePolynomial([ONE] * 70)


def test_is_slice_preserving():
    assert SlicePolynomial.from_real([1, 2]).is_slice_preserving()
    assert not SlicePolynomial([I, ONE]).is_slice_preserving()
