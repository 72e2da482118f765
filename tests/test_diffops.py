import math
from functools import partial

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
from slicereg.quaternions import I, J, K, ONE, Quaternion, pnorm2, split, to_parts
from slicereg.slicepoly import SlicePolynomial, SliceStack, horner, normal, spherical_derivative, spherical_value
from slicereg.verify import Stream, _log_normal_stack, _product_poly, _random_point, _random_poly

from test_quaternions import to_pair


# ---------------------------------------------------------------------------
# bitwise reference: the pointwise operators the batched stencils replaced
# ---------------------------------------------------------------------------


class ScalarReference:
    """The pointwise finite-difference operators, one Quaternion at a time,
    as ``slicereg.diffops`` computed them before its stencils were batched.

    This is the reference the batched operators must equal bit for bit:
    the integrand u maps a Quaternion to a Quaternion or a float, and
    every combination below is the original float expression in its
    original order.
    """

    AXES = (ONE, I, J, K)
    UNITS = (I, J, K)

    @staticmethod
    def as_quat(v):
        return v if isinstance(v, Quaternion) else Quaternion.real(float(v))

    @classmethod
    def partial(cls, u, axis, x, h):
        q, e = cls.as_quat, cls.AXES[axis]
        return (q(u(x + e * h)) - q(u(x - e * h))) / (2.0 * h)

    @classmethod
    def crf(cls, f, x, h):
        out = cls.partial(f, 0, x, h)
        for axis, unit in enumerate(cls.UNITS, start=1):
            out = out + unit * cls.partial(f, axis, x, h)
        return out

    @classmethod
    def crf_conj(cls, f, x, h):
        out = cls.partial(f, 0, x, h)
        for axis, unit in enumerate(cls.UNITS, start=1):
            out = out - unit * cls.partial(f, axis, x, h)
        return out

    @classmethod
    def gamma(cls, f, x, h):
        d1, d2, d3 = (cls.partial(f, a, x, h) for a in (1, 2, 3))
        l23 = d3 * x.x2 - d2 * x.x3
        l13 = d3 * x.x1 - d1 * x.x3
        l12 = d2 * x.x1 - d1 * x.x2
        return -(I * l23) + J * l13 - K * l12

    @classmethod
    def laplace4(cls, u, x, h):
        acc = cls.as_quat(u(x)) * (-8.0)
        for e in cls.AXES:
            acc = acc + cls.as_quat(u(x + e * h)) + cls.as_quat(u(x - e * h))
        return acc / (h * h)

    @classmethod
    def laplace4_richardson(cls, u, x, h):
        return (cls.laplace4(u, x, 0.5 * h) * 4.0 - cls.laplace4(u, x, h)) / 3.0

    @classmethod
    def bilaplace4(cls, u, x, h):
        return cls.laplace4(lambda y: cls.laplace4(u, y, h), x, h)

    @classmethod
    def bilaplace4_richardson(cls, u, x, h):
        return (cls.bilaplace4(u, x, 0.5 * h) * 4.0 - cls.bilaplace4(u, x, h)) / 3.0


def _log_normal_at(f):
    """log|N(f)| at one Quaternion x, the pointwise oracle of the suites'
    integrand: (2 / divisor) log|c(z)| for the ``zero_polynomial`` (c,
    divisor) at the shadow z = Re x + i |Im x|, by the array ``horner`` at
    two copies of z.  numpy multiplies a one-element complex array in place
    as CPython does, and longer arrays, such as the stencils' points, with
    a fused multiply-add."""
    c, divisor = f.zero_polynomial

    def u(x):
        z = np.full(2, complex(x.re(), x.abs_im()))
        return float((2 / divisor) * np.log(np.abs(horner(c, z)))[0])

    return u


def test_fd_partial_examples():
    u = lambda x: x[0].real ** 2  # w^2 of the pair x = (w + i x1, x2 + i x3)
    d = fd_partial(u, 0, Quaternion.real(1.0), 1e-3)
    assert d.re() == pytest.approx(2.0, abs=1e-9)

    const = lambda x: 3.7
    assert fd_partial(const, 2, Quaternion.real(0.3), 1e-3).abs() <= 1e-12

    bil = lambda x: x[0].real * x[0].imag  # w x1
    d1 = fd_partial(bil, 1, Quaternion(2, 3, 0, 0), 1e-3)
    assert d1.re() == pytest.approx(2.0, abs=1e-9)


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
    assert fd_crf(lambda x: K.pair(), Quaternion.real(0.2), 1e-3).abs() <= 1e-12


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
    val = fd_gamma(lambda y: 2.0 * y[0].real, Quaternion(0.5, 0.3, 0.2, 0.7), 1e-4)
    assert val.abs() <= 1e-10


def test_gamma_on_square_at_i():
    sq = SlicePolynomial.from_real([0, 0, 1])
    val = fd_gamma(sq.eval, I, 1e-4)
    # 2 Im(x) f'_s = 2i * (2*0) = 0
    assert val.abs() <= 1e-9


def test_laplace4_examples():
    u = pnorm2
    val = fd_laplace4(u, Quaternion(0.3, -0.1, 0.2, 0.5), 1e-3)
    assert val.re() == pytest.approx(8.0, abs=1e-7)

    # log|x - a| in R^4 has laplacian 2/|x-a|^2
    a = Quaternion.real(-1.0)
    u2 = lambda x: 0.5 * np.log(pnorm2(tuple(p - q for p, q in zip(x, a.pair()))))
    val2 = fd_laplace4_richardson(u2, Quaternion.real(0.0), 3e-2)
    assert val2.re() == pytest.approx(2.0, abs=1e-6)

    harmonic = lambda x: x[0].real ** 2 - x[0].imag ** 2
    val3 = fd_laplace4(harmonic, Quaternion(0.2, 0.4, 0.1, 0.3), 1e-3)
    assert val3.abs() <= 1e-9


def test_bilaplace_kills_low_degree():
    u = pnorm2  # quadratic: only roundoff survives
    val = fd_bilaplace4(u, Quaternion(0.1, 0.2, 0.3, 0.4), 3e-2)
    assert val.abs() <= 1e-7


def test_bilaplace_richardson_on_smooth_function():
    # u = |x|^4 has Delta^2 u = constant: Delta |x|^4 = (4n+8)|x|^2 hmm
    # compute directly: Delta |x|^4 = 24 |x|^2 in R^4, Delta^2 = 24 * 8
    u = lambda x: pnorm2(x) ** 2
    val = fd_bilaplace4_richardson(u, Quaternion(0.3, 0.1, -0.2, 0.4), 2e-2)
    assert val.re() == pytest.approx(192.0, rel=1e-6)


def test_bilaplace_log_normal_of_regular_poly():
    # zero at distance > 2 from the evaluation point: the composed
    # stencil needs clearance since its error grows like d^-8
    f = SlicePolynomial([Quaternion(2.0, 0.3, 0, 0.2), ONE])
    u = _log_normal_stack([f])
    x = Quaternion(0.3, 0.2, 0.3, 0.1)
    val = fd_bilaplace4_richardson(u, x, 3e-2 * (1 + x.abs()))
    assert val.abs() <= 1e-3


def test_spherical_derivative_harmonic():
    rng = np.random.default_rng(0)
    f = SlicePolynomial([Quaternion.from_array(rng.normal(size=4) * 0.3**m) for m in range(7)])
    x = Quaternion(0.5, 0.4, -0.3, 0.2)
    val = fd_laplace4(partial(spherical_derivative, f), x, 1e-3 * (1 + x.abs()))
    assert val.abs() <= 1e-6


def test_stencil_direction_flip_negates_odd_derivatives():
    # central differences: reversing an axis negates odd-order estimates exactly
    f = SlicePolynomial([Quaternion(0.2, -0.1, 0.4, 0.3), I, ONE])
    flipped = lambda x: f.eval((np.conj(x[0]), x[1]))  # x1 -> -x1  # noqa: E731
    x = Quaternion(0.3, 0.5, -0.2, 0.1)
    x_flip = Quaternion(0.3, -0.5, -0.2, 0.1)
    d = fd_partial(f.eval, 1, x, 1e-3)
    d_flip = fd_partial(flipped, 1, x_flip, 1e-3)
    assert (d + d_flip).abs() <= 1e-12 * (1.0 + d.abs())


def test_convergence_order_two():
    sq = SlicePolynomial([Quaternion.from_array([0.3, -0.2, 0.5, 0.1]) * 0.3**m for m in range(5)])
    x = Quaternion(0.6, 0.3, 0.2, -0.4)
    exact = spherical_derivative(sq, x) * (-2.0)
    r1 = (fd_crf(sq.eval, x, 2e-3) - exact).abs()
    r2 = (fd_crf(sq.eval, x, 1e-3) - exact).abs()
    assert 3.5 <= r1 / r2 <= 4.5


# ---------------------------------------------------------------------------
# batched stencils against the scalar reference, bit for bit
# ---------------------------------------------------------------------------


def _integrands(seed):
    """(name, batched integrand, scalar integrand, point) triples: a
    quaternion-coefficient polynomial of degree 6..8, log|N(f)| with the
    zeros of f well away from the point, and the spherical derivative.
    ``eval`` and the spherical derivative take pairs and Quaternions alike,
    a Quaternion as a pair of one point (their Quaternion cases are held to
    the Quaternion Horner and the former scalar code in
    tests/test_slicepoly.py)."""
    stream = Stream(seed)
    f = _random_poly(stream, 6, 8, decay=0.45)
    g, _, _ = _product_poly(stream, 2.2, 3.0, max_factors=3)
    sd = partial(spherical_derivative, f)
    return [
        ("f", f.eval, f.eval, _random_point(stream, 0.3, 0.8)),
        ("log|N(f)|", _log_normal_stack([g]), _log_normal_at(g), _random_point(stream, 0.3, 0.6, beta_min=0.15)),
        ("f'_s", sd, sd, _random_point(stream, 0.4, 0.9)),
    ]


FIRST_ORDER = [
    ("fd_crf", fd_crf, ScalarReference.crf),
    ("fd_crf_conj", fd_crf_conj, ScalarReference.crf_conj),
    ("fd_gamma", fd_gamma, ScalarReference.gamma),
] + [
    (f"fd_partial_{a}", lambda u, x, h, a=a: fd_partial(u, a, x, h),
     lambda u, x, h, a=a: ScalarReference.partial(u, a, x, h))
    for a in range(4)
]
SECOND_ORDER = [
    ("fd_laplace4", fd_laplace4, ScalarReference.laplace4, 1e-3),
    ("fd_laplace4_richardson", fd_laplace4_richardson, ScalarReference.laplace4_richardson, 3e-2),
    ("fd_bilaplace4", fd_bilaplace4, ScalarReference.bilaplace4, 3e-2),
    ("fd_bilaplace4_richardson", fd_bilaplace4_richardson, ScalarReference.bilaplace4_richardson, 3e-2),
]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name, batched, scalar", FIRST_ORDER, ids=[c[0] for c in FIRST_ORDER])
def test_first_order_operators_match_scalar_reference_bitwise(name, batched, scalar, seed):
    for label, u, u_scalar, x in _integrands(seed):
        h = 1e-3 * (1.0 + x.abs())
        for step in (h, 0.5 * h):
            assert batched(u, x, step) == scalar(u_scalar, x, step), (label, step)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name, batched, scalar, step", SECOND_ORDER, ids=[c[0] for c in SECOND_ORDER])
def test_laplacians_match_scalar_reference_bitwise(name, batched, scalar, step, seed):
    for label, u, u_scalar, x in _integrands(seed):
        h = step * (1.0 + x.abs())
        for s in (h, 0.5 * h):
            assert batched(u, x, s) == scalar(u_scalar, x, s), (label, s)


def test_composed_crf_of_laplacian_matches_scalar_reference_bitwise():
    # the biharmonic suite's dbar_crf(laplace4 f): one integrand call on 72 points
    for seed in (1, 2):
        _, u, u_scalar, x = _integrands(seed)[0]
        h = 3e-2 * (1.0 + x.abs())
        got = fd_crf(lambda y: fd_laplace4(u, y, h), x, h)
        assert got == ScalarReference.crf(lambda y: ScalarReference.laplace4(u_scalar, y, h), x, h)


def test_composed_stencils_make_one_integrand_call():
    f = _random_poly(Stream(4), 6, 8)
    sizes = []

    def u(x):
        sizes.append(np.size(x[0]))
        return f.eval(x)

    x = Quaternion(0.3, 0.4, -0.2, 0.1)
    fd_bilaplace4(u, x, 3e-2)
    fd_crf(lambda y: fd_laplace4(u, y, 3e-2), x, 3e-2)
    fd_gamma(u, x, 1e-3)
    assert sizes == [81, 72, 6]


# ---------------------------------------------------------------------------
# many centres in one call: per-centre steps and per-centre polynomials
# ---------------------------------------------------------------------------


def _per_centre_integrands(seed, m=6):
    """(name, integrand of all m centres, scalar integrand of each centre)
    and the m points: polynomials of degree 2..8 mixed in one SliceStack,
    log|N| of products whose zeros lie 2.2-3 from the origin, and the
    spherical derivative and value, which take pairs and Quaternions alike."""
    stream = Stream(seed)
    polys = [_random_poly(stream, 2 + j, 3 + j, decay=0.45) for j in range(m)]
    products = [_product_poly(stream, 2.2, 3.0, max_factors=3)[0] for _ in range(m)]
    points = [_random_point(stream, 0.3, 0.6, beta_min=0.15) for _ in range(m)]
    stack = SliceStack(polys)
    assert len({f.degree for f in polys}) > 2
    assert stack.g.shape == stack.h.shape == (max(f.degree for f in polys) + 1, m)
    integrands = [
        ("f", stack.eval, [f.eval for f in polys]),
        ("log|N(f)|", _log_normal_stack(products), [_log_normal_at(g) for g in products]),
        ("f'_s", partial(spherical_derivative, stack), [partial(spherical_derivative, f) for f in polys]),
        ("v_s f", partial(spherical_value, stack), [partial(spherical_value, f) for f in polys]),
    ]
    return integrands, points


def _centre(v, j):
    return Quaternion(*(float(p[j]) for p in to_parts(v)))


def _check_per_centre(batched, scalar, step, seed):
    """batched on all centres at once, per-centre steps, equals scalar at
    each centre on its own, bit for bit."""
    integrands, points = _per_centre_integrands(seed)
    centres = to_pair(tuple(np.array(c) for c in zip(*points)))
    h = step * (1.0 + np.array([x.abs() for x in points]))
    for label, u, u_scalar in integrands:
        for steps in (h, 0.5 * h):
            got = batched(u, centres, steps)
            for j, x in enumerate(points):
                assert _centre(got, j) == scalar(u_scalar[j], x, float(steps[j])), (label, j)


@pytest.mark.parametrize("name, batched, scalar", FIRST_ORDER, ids=[c[0] for c in FIRST_ORDER])
def test_first_order_operators_on_many_centres_match_scalar_reference_bitwise(name, batched, scalar):
    _check_per_centre(batched, scalar, 1e-3, 4)


@pytest.mark.parametrize("name, batched, scalar, step", SECOND_ORDER, ids=[c[0] for c in SECOND_ORDER])
def test_laplacians_on_many_centres_match_scalar_reference_bitwise(name, batched, scalar, step):
    _check_per_centre(batched, scalar, step, 5)


def test_composed_crf_of_laplacian_on_many_centres_matches_scalar_reference_bitwise():
    _check_per_centre(lambda u, x, h: fd_crf(lambda y: fd_laplace4(u, y, h), x, h),
                      lambda u, x, h: ScalarReference.crf(lambda y: ScalarReference.laplace4(u, y, h), x, h), 3e-2, 6)


def test_one_step_for_all_centres_matches_scalar_reference_bitwise():
    # a float step serves every centre, as in the delta4-at-0 suite
    integrands, points = _per_centre_integrands(7)
    centres = to_pair(tuple(np.array(c) for c in zip(*points)))
    for label, u, u_scalar in integrands:
        got = fd_laplace4_richardson(u, centres, 3e-2)
        for j, x in enumerate(points):
            assert _centre(got, j) == ScalarReference.laplace4_richardson(u_scalar[j], x, 3e-2), (label, j)


# ---------------------------------------------------------------------------
# the suites' log|N(f)| integrand: the check's own path
# ---------------------------------------------------------------------------


def _log_normal_cases():
    """Slice-preserving polynomials (divisor 1: N(f) = f^2) and quaternionic
    products (divisor 2) of degrees 1 to 3 side by side, none vanishing at 0."""
    stream = Stream(11)
    real = [SlicePolynomial.from_real([1.0, 1.0]), SlicePolynomial.from_real([2.0, -0.5, 1.0]),
            SlicePolynomial.from_real([2.0, 0.0, 0.0, 1.0])]
    quaternionic = [_product_poly(stream, 0.8, 1.8)[0] for _ in range(3)]
    return [f for pair in zip(real, quaternionic) for f in pair]


def test_log_normal_stack_is_log_normal_values_of_each_case_at_its_shadows(monkeypatch):
    """Column j of the suites' integrand is ``log_normal_values`` of case j at
    the shadows of its points, bit for bit (each column holds two points or
    more; see ``_log_normal_at``), for the suites' cases and for a stack that
    mixes divisors 1 and 2."""
    import slicereg.verify as verify
    from slicereg.quadrature import log_normal_values

    polys = _log_normal_cases()
    assert sorted(f.zero_polynomial[1] for f in polys) == [1, 1, 1, 2, 2, 2]
    stream = Stream(12)
    points = [_random_point(stream, 0.0, 0.7, beta_min=0.0) for _ in range(9 * len(polys))]
    x = to_pair(tuple(np.array(c).reshape(9, len(polys)) for c in zip(*points)))
    z = np.array([complex(p.re(), p.abs_im()) for p in points]).reshape(9, len(polys))
    got = _log_normal_stack(polys)(x)
    for j, f in enumerate(polys):
        assert got[:, j].tolist() == log_normal_values(f, z[:, j].copy()).tolist(), j

    # the two suites, on their own cases and at every point their stencils ask for
    calls = []

    def recorded(cases):
        u = _log_normal_stack(cases)

        def call(y):
            calls.append((cases, y, u(y)))
            return calls[-1][2]

        return call

    monkeypatch.setattr(verify, "_log_normal_stack", recorded)
    assert verify.suite_bilaplacian_logn(1).passed and verify.suite_delta4_at_0(1).passed
    assert len(calls) == 4 and [len(cases) for cases, _, _ in calls] == [20] * 4
    for cases, y, values in calls:
        alpha, beta, _ = split(y)
        shadows = (alpha + 1j * beta).reshape(-1, len(cases))
        for j, f in enumerate(cases):
            assert values.reshape(-1, len(cases))[:, j].tolist() == log_normal_values(f, shadows[:, j].copy()).tolist()


def test_log_normal_stack_has_the_closed_form_laplacian_at_0():
    """delta4-at-0's check on the mixed stack: Richardson FD of the suites'
    integrand at 0 against ``delta4_logNf_at0``, within the suite's
    tolerance, for N(f) = f^2 and N(f) = f f^c alike."""
    from slicereg.jensen import delta4_logNf_at0
    from slicereg.verify import TOL_DELTA4_AT_0

    polys = _log_normal_cases()
    origin = (np.zeros(len(polys), complex),) * 2
    fd = fd_laplace4_richardson(_log_normal_stack(polys), origin, 3e-2)[0].real
    closed = np.array([delta4_logNf_at0(f) for f in polys])
    assert closed[0] == pytest.approx(4.0)  # the suite's anchor x + 1
    assert np.max(np.abs(closed - fd)) <= TOL_DELTA4_AT_0


@pytest.mark.parametrize("suite, calls", [
    ("crf", 8),  # 4 identities x 2 steps
    ("gamma", 2),
    ("harmonic", 2),
    ("biharmonic", 8),  # bilaplacian and dbar of the laplacian, 2 nested calls each, x 2 steps
    ("bilaplacian-logN", 4),
    ("delta4-at-0", 2),  # one Richardson pair
])
def test_fd_suites_make_one_stencil_call_per_identity_and_step(monkeypatch, suite, calls):
    import slicereg.diffops as diffops
    from slicereg.verify import SUITES

    values, seen = diffops._values, []

    def counted(*args):
        seen.append(np.size(args[1][0]))
        return values(*args)

    monkeypatch.setattr(diffops, "_values", counted)
    for n_cases in (2, 5):
        seen.clear()
        SUITES[suite](1, n_cases=n_cases)
        assert len(seen) == calls, n_cases
        assert all(size % n_cases == 0 for size in seen)  # every call takes all the cases


def test_suite_residuals_are_the_quaternion_arithmetic_they_replaced():
    """Reference: the per-case Quaternion loop the suites ran before they took
    residuals as arrays.  ``_gap`` is Quaternion.abs of the difference and
    ``richardson`` the Quaternion step, bit for bit, and ``_rows`` runs case
    by case, columns in order."""
    from slicereg.diffops import richardson
    from slicereg.verify import _gap, _rows

    rng = np.random.default_rng(3)
    coarse, fine = (to_pair(tuple(rng.normal(size=(4, 9)) * 10.0 ** rng.integers(-8, 3, size=(4, 9))))
                    for _ in range(2))

    def at(v, k):
        return Quaternion(*(float(p[k]) for p in to_parts(v)))

    gap, size, rich = _gap(coarse, fine), _gap(coarse), _gap(richardson(coarse, fine))
    for k in range(9):
        assert gap[k] == (at(coarse, k) - at(fine, k)).abs()
        assert size[k] == at(coarse, k).abs()
        assert rich[k] == ((at(fine, k) * 4.0 - at(coarse, k)) / 3.0).abs()
    rows = _rows([ONE, I], [("a", np.array([0.1, 0.2]), gap, 2), ("b", 0.5, rich, 4)])
    assert [(r.identity, r.case, r.point, r.h, r.residual, r.expected_order) for r in rows] == [
        ("a", 0, [1.0, 0.0, 0.0, 0.0], 0.1, gap[0], 2), ("b", 0, [1.0, 0.0, 0.0, 0.0], 0.5, rich[0], 4),
        ("a", 1, [0.0, 1.0, 0.0, 0.0], 0.2, gap[1], 2), ("b", 1, [0.0, 1.0, 0.0, 0.0], 0.5, rich[1], 4)]
    assert all(type(v) is float for r in rows for v in (r.h, r.residual))


# ---------------------------------------------------------------------------
# the seeded stream the suites draw their corpora from
# ---------------------------------------------------------------------------


def _corpus(stream):
    """One draw of each kind the suites make."""
    f = _random_poly(stream, 2, 8)
    g, c, roots = _product_poly(stream, 0.3, 0.6)
    quaternions = (*f.coeffs, *g.coeffs, c, *roots, _random_point(stream), stream.unit())
    return [*quaternions, stream.integer(2, 5), stream.choice([0.5, -0.6, 2.0])]


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_stream_gives_one_corpus_per_seed(seed):
    assert _corpus(Stream(seed)) == _corpus(Stream(seed))


def test_stream_corpora_differ_between_seeds():
    corpora = [_corpus(Stream(seed)) for seed in range(4)]
    units = [np.array(Stream(seed).unit()) for seed in range(4)]
    for a in range(4):
        for b in range(a):
            assert corpora[a] != corpora[b]
            assert np.linalg.norm(units[a] - units[b]) > 1e-3


def test_stream_units_are_unit_and_uniform():
    """Unit to 1e-15, with the first and second moments of the uniform
    measure on S^3, 0 and I/4, within 5 standard deviations over 4000 draws."""
    stream = Stream(3)
    units = np.array([stream.unit() for _ in range(4000)])
    assert np.max(np.abs(np.linalg.norm(units, axis=1) - 1.0)) <= 1e-15
    assert np.max(np.abs(units.mean(axis=0))) < 5 * 0.5 / math.sqrt(4000)
    assert np.max(np.abs(units.T @ units / len(units) - np.eye(4) / 4)) < 5 * 0.25 / math.sqrt(4000)


def test_stream_draws_are_the_documented_maps_of_the_random_sequence():
    import random

    from slicereg.quadrature import shoemake

    u, stream = random.Random(5).random, Stream(5)
    v = u()
    assert stream.uniform(-2.0, 3.0) == -2.0 + 5.0 * v
    v = [u() for _ in range(4)]
    assert stream.uniform(-1.0, 1.0, 4).tolist() == [-1.0 + 2.0 * w for w in v]
    v = u()
    assert stream.integer(2, 5) == 2 + math.floor(3 * v)
    v = u()
    assert stream.choice("abc") == "abc"[math.floor(3 * v)]
    u1, u2, u3 = u(), u(), u()
    unit = stream.unit()
    assert unit == tuple(float(c) for c in shoemake(u1, u2, u3))
    a, b = math.sqrt(1.0 - u1), math.sqrt(u1)
    written_out = (a * math.sin(2 * math.pi * u2), a * math.cos(2 * math.pi * u2),
                   b * math.sin(2 * math.pi * u3), b * math.cos(2 * math.pi * u3))
    assert max(abs(p - q) for p, q in zip(unit, written_out)) <= 1e-15
    assert stream.uniform(0.0, 1.0) == u()  # and the sequence goes on in step
    assert {stream.integer(2, 5) for _ in range(200)} == {2, 3, 4}


def test_crf_suite_builds_each_derivative_once(monkeypatch):
    """Both sides of every crf identity read f' from the suite's one
    ``SliceStack``: one slice derivative per case, 20 in all."""
    import slicereg.verify as verify

    built = []
    derivative = SlicePolynomial.slice_derivative
    monkeypatch.setattr(SlicePolynomial, "slice_derivative", lambda f: built.append(f) or derivative(f))
    assert verify.run_suite("crf", 1).passed
    assert len(built) == 20


@pytest.mark.parametrize("seed", [1, 7])
def test_multiplicity_suite_checks_the_factors_it_multiplies(monkeypatch, seed):
    """A Delta_q that leaves its pool point's sphere fails the suite: the
    records still double in N(f), but no longer where f was built to vanish."""
    import slicereg.verify as verify
    from slicereg.zeros_poles import characteristic_poly

    assert verify.suite_multiplicity(seed).passed
    shifted = SlicePolynomial.from_real([0.2])
    monkeypatch.setattr(verify, "characteristic_poly", lambda y: characteristic_poly(y) + shifted)
    result = verify.suite_multiplicity(seed)
    assert not result.passed and result.summary["failures"] > 0


def test_multiplicity_suite_forms_each_normal_once(monkeypatch):
    """classify_zeros and the N(f) count read the zero polynomial of the
    case's one polynomial, so N(f) is formed at most once per case, and
    only for an f that is not slice-preserving; the rows are those of
    classify_zeros on a copy of f, forming it again."""
    import slicereg.slicepoly as slicepoly
    import slicereg.verify as verify
    import slicereg.zeros_poles as zeros_poles

    own = verify.suite_multiplicity(1)
    formed, functions = [], []

    def counted(f):
        formed.append(f)
        return normal(f)

    monkeypatch.setattr(slicepoly, "normal", counted)
    monkeypatch.setattr(verify, "classify_zeros", lambda fs: functions.append(fs) or zeros_poles.classify_zeros(fs))
    assert verify.suite_multiplicity(1).rows == own.rows
    quaternionic = [fs.num for fs in functions if not fs.num.is_slice_preserving()]
    assert len(functions) == 50 and 0 < len(quaternionic) < 50
    assert formed == quaternionic  # by identity: each such num once, in case order
    monkeypatch.setattr(verify, "classify_zeros", lambda fs: zeros_poles.classify_zeros(SlicePolynomial(fs.coeffs)))
    assert verify.suite_multiplicity(1).rows == own.rows


def test_delta4_suite_fails_on_a_nan_residual(monkeypatch):
    """A NaN closed form in one case fails the suite: the residuals are
    folded with numpy, which keeps the NaN, where a Python max dropped it."""
    import slicereg.verify as verify

    assert verify.suite_delta4_at_0(1).passed
    closed, calls = verify.delta4_logNf_at0, []
    monkeypatch.setattr(verify, "delta4_logNf_at0",
                        lambda f: calls.append(f) or (math.nan if len(calls) == 4 else closed(f)))
    result = verify.suite_delta4_at_0(1)
    assert math.isnan(result.rows[3].residual)
    assert not result.passed
