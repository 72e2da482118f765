import math

import numpy as np
import pytest

from slicereg.diffops import (
    fd_bilaplace4,
    fd_bilaplace4_richardson,
    fd_crf,
    fd_crf_conj,
    fd_gamma,
    fd_laplace4,
    fd_laplace4_richardson,
    fd_partial,
)
from slicereg.quaternions import I, K, ONE, Quaternion
from slicereg.slicepoly import SlicePolynomial, log_abs, normal, spherical_derivative


def test_fd_partial_examples():
    u = lambda x: x.re() ** 2
    d = fd_partial(u, 0, Quaternion.real(1.0), 1e-3)
    assert d.re() == pytest.approx(2.0, abs=1e-9)

    const = lambda x: 3.7
    assert fd_partial(const, 2, Quaternion.real(0.3), 1e-3).abs() <= 1e-12

    bil = lambda x: x.re() * x.x1
    d1 = fd_partial(bil, 1, Quaternion(2, 3, 0, 0), 1e-3)
    assert d1.re() == pytest.approx(2.0, abs=1e-9)


def test_fd_partial_order4():
    u = lambda x: math.sin(x.x2)
    d = fd_partial(u, 2, Quaternion(0, 0, 0.3, 0), 1e-2, order=4)
    assert d.re() == pytest.approx(math.cos(0.3), abs=1e-9)
    with pytest.raises(ValueError):
        fd_partial(u, 2, Quaternion.real(0.0), 1e-2, order=3)


def test_crf_convention_smoke_test():
    # dbar_CRF applied to the identity map must give exactly -2:
    # 1 + i*i + j*j + k*k; this pins left multiplication by the units
    ident = lambda x: x
    val = fd_crf(ident, Quaternion(0.3, 0.2, -0.4, 0.6), 1e-4)
    assert (val - Quaternion.real(-2.0)).abs() <= 1e-9


def test_crf_on_square():
    # dbar_CRF x^2 = -4 x0 = -2 f'_s with f'_s = 2 alpha
    sq = SlicePolynomial.from_real([0, 0, 1])
    x = Quaternion(0.7, 0.1, 0.3, -0.2)
    val = fd_crf(sq.eval, x, 1e-4)
    assert (val - Quaternion.real(-4.0 * x.re())).abs() <= 1e-7


def test_crf_constant():
    assert fd_crf(lambda x: K, Quaternion.real(0.2), 1e-3).abs() <= 1e-12


def test_crf_conj_identity():
    # d_CRF x = 1 - i*i - j*j - k*k = 4
    ident = lambda x: x
    val = fd_crf_conj(ident, Quaternion(0.1, 0.5, 0.2, -0.3), 1e-4)
    assert (val - Quaternion.real(4.0)).abs() <= 1e-9


def test_gamma_identity_map():
    x = Quaternion(1, 0, 2, 0)
    val = fd_gamma(lambda y: y, x, 1e-4)
    assert (val - Quaternion(0, 0, 4, 0)).abs() <= 1e-9  # 2 Im(x) * 1


def test_gamma_annihilates_real_part_functions():
    val = fd_gamma(lambda y: Quaternion.real(2.0 * y.re()), Quaternion(0.5, 0.3, 0.2, 0.7), 1e-4)
    assert val.abs() <= 1e-10


def test_gamma_on_square_at_i():
    sq = SlicePolynomial.from_real([0, 0, 1])
    val = fd_gamma(sq.eval, I, 1e-4)
    # 2 Im(x) f'_s = 2i * (2*0) = 0
    assert val.abs() <= 1e-9


def test_laplace4_examples():
    u = lambda x: x.norm2()
    val = fd_laplace4(u, Quaternion(0.3, -0.1, 0.2, 0.5), 1e-3)
    assert val.re() == pytest.approx(8.0, abs=1e-7)

    # log|x - a| in R^4 has laplacian 2/|x-a|^2
    a = Quaternion.real(-1.0)
    u2 = lambda x: math.log((x - a).abs())
    val2 = fd_laplace4_richardson(u2, Quaternion.real(0.0), 3e-2)
    assert val2.re() == pytest.approx(2.0, abs=1e-6)

    harmonic = lambda x: x.re() ** 2 - x.x1**2
    val3 = fd_laplace4(harmonic, Quaternion(0.2, 0.4, 0.1, 0.3), 1e-3)
    assert val3.abs() <= 1e-9


def test_bilaplace_kills_low_degree():
    u = lambda x: x.norm2()  # quadratic: only roundoff survives
    val = fd_bilaplace4(u, Quaternion(0.1, 0.2, 0.3, 0.4), 3e-2)
    assert val.abs() <= 1e-7


def test_bilaplace_richardson_on_smooth_function():
    # u = |x|^4 has Delta^2 u = constant: Delta |x|^4 = (4n+8)|x|^2 hmm
    # compute directly: Delta |x|^4 = 24 |x|^2 in R^4, Delta^2 = 24 * 8
    u = lambda x: x.norm2() ** 2
    val = fd_bilaplace4_richardson(u, Quaternion(0.3, 0.1, -0.2, 0.4), 2e-2)
    assert val.re() == pytest.approx(192.0, rel=1e-6)


def test_bilaplace_log_normal_of_regular_poly():
    # zero at distance > 2 from the evaluation point: the composed
    # stencil needs clearance since its error grows like d^-8
    f = SlicePolynomial([Quaternion(2.0, 0.3, 0, 0.2), ONE])
    nf = normal(f)
    u = lambda x: log_abs(nf, x)
    x = Quaternion(0.3, 0.2, 0.3, 0.1)
    val = fd_bilaplace4_richardson(u, x, 3e-2 * (1 + x.abs()))
    assert val.abs() <= 1e-3


def test_spherical_derivative_harmonic():
    rng = np.random.default_rng(0)
    f = SlicePolynomial([Quaternion.from_array(rng.normal(size=4) * 0.3**m) for m in range(7)])
    x = Quaternion(0.5, 0.4, -0.3, 0.2)
    val = fd_laplace4(lambda y: spherical_derivative(f, y), x, 1e-3 * (1 + x.abs()))
    assert val.abs() <= 1e-6


def test_stencil_direction_flip_negates_odd_derivatives():
    # central differences: reversing an axis negates odd-order estimates exactly
    f = SlicePolynomial([Quaternion(0.2, -0.1, 0.4, 0.3), I, ONE])
    flipped = lambda x: f.eval(Quaternion(x.w, -x.x1, x.x2, x.x3))  # noqa: E731
    x = Quaternion(0.3, 0.5, -0.2, 0.1)
    x_flip = Quaternion(0.3, -0.5, -0.2, 0.1)
    for order in (2, 4):
        d = fd_partial(f.eval, 1, x, 1e-3, order)
        d_flip = fd_partial(flipped, 1, x_flip, 1e-3, order)
        assert (d + d_flip).abs() <= 1e-12 * (1.0 + d.abs())


def test_convergence_order_two():
    sq = SlicePolynomial([Quaternion.from_array([0.3, -0.2, 0.5, 0.1]) * 0.3**m for m in range(5)])
    x = Quaternion(0.6, 0.3, 0.2, -0.4)
    exact = spherical_derivative(sq, x) * (-2.0)
    r1 = (fd_crf(sq.eval, x, 2e-3) - exact).abs()
    r2 = (fd_crf(sq.eval, x, 1e-3) - exact).abs()
    assert 3.5 <= r1 / r2 <= 4.5
