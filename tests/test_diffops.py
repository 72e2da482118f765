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
from slicereg.quaternions import I, J, K, ONE, Quaternion, decompose
from slicereg.slicepoly import (
    LogOfZeroError,
    SlicePolynomial,
    SliceStack,
    horner,
    log_abs,
    normal,
    spherical_derivative,
    spherical_value,
)
from slicereg.verify import Stream, _product_poly, _random_point, _random_poly


def _norm2(x):
    return x[0] * x[0] + x[1] * x[1] + x[2] * x[2] + x[3] * x[3]


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
    def partial(cls, u, axis, x, h, order=2):
        q, e = cls.as_quat, cls.AXES[axis]
        if order == 2:
            return (q(u(x + e * h)) - q(u(x - e * h))) / (2.0 * h)
        up2, up1 = q(u(x + e * (2.0 * h))), q(u(x + e * h))
        um1, um2 = q(u(x - e * h)), q(u(x - e * (2.0 * h)))
        return (-up2 + up1 * 8.0 - um1 * 8.0 + um2) / (12.0 * h)

    @classmethod
    def crf(cls, f, x, h, order=2):
        out = cls.partial(f, 0, x, h, order)
        for axis, unit in enumerate(cls.UNITS, start=1):
            out = out + unit * cls.partial(f, axis, x, h, order)
        return out

    @classmethod
    def crf_conj(cls, f, x, h, order=2):
        out = cls.partial(f, 0, x, h, order)
        for axis, unit in enumerate(cls.UNITS, start=1):
            out = out - unit * cls.partial(f, axis, x, h, order)
        return out

    @classmethod
    def gamma(cls, f, x, h, order=2):
        d1, d2, d3 = (cls.partial(f, a, x, h, order) for a in (1, 2, 3))
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


def _scalar_horner(f, x):
    """Left Horner on Quaternions, as ``SlicePolynomial.eval`` was written."""
    if not f.coeffs:
        return Quaternion()
    acc = f.coeffs[-1]
    for m in range(len(f.coeffs) - 2, -1, -1):
        acc = x * acc + f.coeffs[m]
    return acc


def _scalar_log_abs(f, x):
    """log|f(x)| by ``decompose``, the complex Horner and ``math.log``."""
    p = decompose(x)
    z = complex(p.alpha, p.beta)
    v = horner([c.w for c in f.coeffs], z)
    a2 = v.real * v.real + v.imag * v.imag
    if a2 <= (1e-13 * (1.0 + f.stem_scale(abs(z)))) ** 2:
        raise LogOfZeroError(f"|f(x)| ~ {math.sqrt(a2):.3e} at x with z = {z}")
    return 0.5 * math.log(a2)


def test_fd_partial_examples():
    u = lambda x: x[0] ** 2
    d = fd_partial(u, 0, Quaternion.real(1.0), 1e-3)
    assert d.re() == pytest.approx(2.0, abs=1e-9)

    const = lambda x: 3.7
    assert fd_partial(const, 2, Quaternion.real(0.3), 1e-3).abs() <= 1e-12

    bil = lambda x: x[0] * x[1]
    d1 = fd_partial(bil, 1, Quaternion(2, 3, 0, 0), 1e-3)
    assert d1.re() == pytest.approx(2.0, abs=1e-9)


def test_fd_partial_order4():
    u = lambda x: np.sin(x[2])
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
    val = fd_crf(sq.eval_parts, x, 1e-4)
    assert (val - Quaternion.real(-4.0 * x.re())).abs() <= 1e-7


def test_crf_constant():
    assert fd_crf(lambda x: K.components(), Quaternion.real(0.2), 1e-3).abs() <= 1e-12


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
    val = fd_gamma(lambda y: 2.0 * y[0], Quaternion(0.5, 0.3, 0.2, 0.7), 1e-4)
    assert val.abs() <= 1e-10


def test_gamma_on_square_at_i():
    sq = SlicePolynomial.from_real([0, 0, 1])
    val = fd_gamma(sq.eval_parts, I, 1e-4)
    # 2 Im(x) f'_s = 2i * (2*0) = 0
    assert val.abs() <= 1e-9


def test_laplace4_examples():
    u = _norm2
    val = fd_laplace4(u, Quaternion(0.3, -0.1, 0.2, 0.5), 1e-3)
    assert val.re() == pytest.approx(8.0, abs=1e-7)

    # log|x - a| in R^4 has laplacian 2/|x-a|^2
    a = Quaternion.real(-1.0)
    u2 = lambda x: 0.5 * np.log(_norm2(tuple(p - q for p, q in zip(x, a.components()))))
    val2 = fd_laplace4_richardson(u2, Quaternion.real(0.0), 3e-2)
    assert val2.re() == pytest.approx(2.0, abs=1e-6)

    harmonic = lambda x: x[0] ** 2 - x[1] ** 2
    val3 = fd_laplace4(harmonic, Quaternion(0.2, 0.4, 0.1, 0.3), 1e-3)
    assert val3.abs() <= 1e-9


def test_bilaplace_kills_low_degree():
    u = _norm2  # quadratic: only roundoff survives
    val = fd_bilaplace4(u, Quaternion(0.1, 0.2, 0.3, 0.4), 3e-2)
    assert val.abs() <= 1e-7


def test_bilaplace_richardson_on_smooth_function():
    # u = |x|^4 has Delta^2 u = constant: Delta |x|^4 = (4n+8)|x|^2 hmm
    # compute directly: Delta |x|^4 = 24 |x|^2 in R^4, Delta^2 = 24 * 8
    u = lambda x: _norm2(x) ** 2
    val = fd_bilaplace4_richardson(u, Quaternion(0.3, 0.1, -0.2, 0.4), 2e-2)
    assert val.re() == pytest.approx(192.0, rel=1e-6)


def test_bilaplace_log_normal_of_regular_poly():
    # zero at distance > 2 from the evaluation point: the composed
    # stencil needs clearance since its error grows like d^-8
    f = SlicePolynomial([Quaternion(2.0, 0.3, 0, 0.2), ONE])
    nf = normal(f)
    u = partial(log_abs, nf)
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
    flipped = lambda x: f.eval_parts((x[0], -x[1], x[2], x[3]))  # noqa: E731
    x = Quaternion(0.3, 0.5, -0.2, 0.1)
    x_flip = Quaternion(0.3, -0.5, -0.2, 0.1)
    for order in (2, 4):
        d = fd_partial(f.eval_parts, 1, x, 1e-3, order)
        d_flip = fd_partial(flipped, 1, x_flip, 1e-3, order)
        assert (d + d_flip).abs() <= 1e-12 * (1.0 + d.abs())


def test_convergence_order_two():
    sq = SlicePolynomial([Quaternion.from_array([0.3, -0.2, 0.5, 0.1]) * 0.3**m for m in range(5)])
    x = Quaternion(0.6, 0.3, 0.2, -0.4)
    exact = spherical_derivative(sq, x) * (-2.0)
    r1 = (fd_crf(sq.eval_parts, x, 2e-3) - exact).abs()
    r2 = (fd_crf(sq.eval_parts, x, 1e-3) - exact).abs()
    assert 3.5 <= r1 / r2 <= 4.5


# ---------------------------------------------------------------------------
# batched stencils against the scalar reference, bit for bit
# ---------------------------------------------------------------------------


def _integrands(seed):
    """(name, batched integrand, scalar integrand, point) triples: a
    quaternion-coefficient polynomial of degree 6..8, log|N(f)| with the
    zeros of f well away from the point, and the spherical derivative,
    which takes parts and Quaternions alike (its Quaternion case is held
    to the former scalar code in tests/test_slicepoly.py)."""
    stream = Stream(seed)
    f = _random_poly(stream, 6, 8, decay=0.45)
    g, _, _ = _product_poly(stream, 2.2, 3.0, max_factors=3)
    ng = normal(g)
    sd = partial(spherical_derivative, f)
    return [
        ("f", f.eval_parts, partial(_scalar_horner, f), _random_point(stream, 0.3, 0.8)),
        ("log|N(f)|", partial(log_abs, ng), partial(_scalar_log_abs, ng), _random_point(stream, 0.3, 0.6, beta_min=0.15)),
        ("f'_s", sd, sd, _random_point(stream, 0.4, 0.9)),
    ]


FIRST_ORDER = [
    ("fd_crf", fd_crf, ScalarReference.crf),
    ("fd_crf_conj", fd_crf_conj, ScalarReference.crf_conj),
    ("fd_gamma", fd_gamma, ScalarReference.gamma),
] + [
    (f"fd_partial_{a}", lambda u, x, h, o, a=a: fd_partial(u, a, x, h, o),
     lambda u, x, h, o, a=a: ScalarReference.partial(u, a, x, h, o))
    for a in range(4)
]
SECOND_ORDER = [
    ("fd_laplace4", fd_laplace4, ScalarReference.laplace4, 1e-3),
    ("fd_laplace4_richardson", fd_laplace4_richardson, ScalarReference.laplace4_richardson, 3e-2),
    ("fd_bilaplace4", fd_bilaplace4, ScalarReference.bilaplace4, 3e-2),
    ("fd_bilaplace4_richardson", fd_bilaplace4_richardson, ScalarReference.bilaplace4_richardson, 3e-2),
]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("name, batched, scalar", FIRST_ORDER, ids=[c[0] for c in FIRST_ORDER])
def test_first_order_operators_match_scalar_reference_bitwise(name, batched, scalar, order, seed):
    for label, u, u_scalar, x in _integrands(seed):
        h = 1e-3 * (1.0 + x.abs())
        for step in (h, 0.5 * h):
            assert batched(u, x, step, order) == scalar(u_scalar, x, step, order), (label, step)


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
        return f.eval_parts(x)

    x = Quaternion(0.3, 0.4, -0.2, 0.1)
    fd_bilaplace4(u, x, 3e-2)
    fd_crf(lambda y: fd_laplace4(u, y, 3e-2), x, 3e-2)
    fd_gamma(u, x, 1e-3, order=4)
    assert sizes == [81, 72, 12]


def test_parts_horner_matches_scalar_loop_bitwise():
    stream = Stream(11)
    polys = [_random_poly(stream, lo, lo + 2) for lo in (0, 3, 6)]
    polys += [SlicePolynomial([]), SlicePolynomial([Quaternion(1, 2, 0, 0), ONE]), normal(polys[-1])]
    points = [_random_point(stream, 0.1, 1.5, beta_min=0.0) for _ in range(12)] + [Quaternion.real(0.7)]
    parts = tuple(np.array(c) for c in zip(*(x.components() for x in points)))
    for f in polys:
        batched = f.eval_parts(parts)
        for i, x in enumerate(points):
            want = _scalar_horner(f, x)
            assert f.eval(x) == want
            assert Quaternion(*(float(np.broadcast_to(c, (len(points),))[i]) for c in batched)) == want


def test_batched_log_abs_matches_scalar_and_raises_on_zero_sphere():
    # N(x - q) vanishes on the whole sphere Re q + S |Im q|
    q = Quaternion(0.2, 0.3, -0.4, 0.5)
    nf = normal(SlicePolynomial.linear(q) * SlicePolynomial.from_real([0.5, 1.0]))
    beta = q.abs_im()
    on_sphere = [q, Quaternion(q.w, beta, 0.0, 0.0), Quaternion(q.w, 0.0, 0.0, -beta)]
    off_sphere = [_random_point(Stream(5), 0.2, 1.4, beta_min=0.0) for _ in range(20)]
    off_sphere += [Quaternion.real(0.3), Quaternion(0.3, 1e-20, 0.0, 0.0)]  # real and numerically real
    off = tuple(np.array(c) for c in zip(*(x.components() for x in off_sphere)))
    assert log_abs(nf, off).tolist() == [_scalar_log_abs(nf, x) for x in off_sphere]
    assert [log_abs(nf, x) for x in off_sphere] == [_scalar_log_abs(nf, x) for x in off_sphere]
    for x in on_sphere:
        with pytest.raises(LogOfZeroError):
            _scalar_log_abs(nf, x)
        with pytest.raises(LogOfZeroError):
            log_abs(nf, x)
        mixed = tuple(np.append(c, v) for c, v in zip(off, x.components()))
        with pytest.raises(LogOfZeroError):
            log_abs(nf, mixed)


# ---------------------------------------------------------------------------
# many centres in one call: per-centre steps and per-centre polynomials
# ---------------------------------------------------------------------------


def _per_centre_integrands(seed, m=6):
    """(name, integrand of all m centres, scalar integrand of each centre)
    and the m points: polynomials of degree 2..8 mixed in one SliceStack,
    log|N| of products whose zeros lie 2.2-3 from the origin, and the
    spherical derivative and value, which take parts and Quaternions alike."""
    stream = Stream(seed)
    polys = [_random_poly(stream, 2 + j, 3 + j, decay=0.45) for j in range(m)]
    normals = [normal(_product_poly(stream, 2.2, 3.0, max_factors=3)[0]) for _ in range(m)]
    points = [_random_point(stream, 0.3, 0.6, beta_min=0.15) for _ in range(m)]
    stack = SliceStack(polys)
    assert len({f.degree for f in polys}) > 2 and stack.coeffs.shape == (max(f.degree for f in polys) + 1, 4, m)
    integrands = [
        ("f", stack.eval_parts, [partial(_scalar_horner, f) for f in polys]),
        ("log|N(f)|", partial(log_abs, SliceStack(normals)), [partial(_scalar_log_abs, g) for g in normals]),
        ("f'_s", partial(spherical_derivative, stack), [partial(spherical_derivative, f) for f in polys]),
        ("v_s f", partial(spherical_value, stack), [partial(spherical_value, f) for f in polys]),
    ]
    return integrands, points


def _centre(v, j):
    return Quaternion(*(float(p[j]) for p in v))


def _check_per_centre(batched, scalar, step, seed):
    """batched on all centres at once, per-centre steps, equals scalar at
    each centre on its own, bit for bit."""
    integrands, points = _per_centre_integrands(seed)
    centres = tuple(np.array(c) for c in zip(*(x.components() for x in points)))
    h = step * (1.0 + np.array([x.abs() for x in points]))
    for label, u, u_scalar in integrands:
        for steps in (h, 0.5 * h):
            got = batched(u, centres, steps)
            for j, x in enumerate(points):
                assert _centre(got, j) == scalar(u_scalar[j], x, float(steps[j])), (label, j)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("name, batched, scalar", FIRST_ORDER, ids=[c[0] for c in FIRST_ORDER])
def test_first_order_operators_on_many_centres_match_scalar_reference_bitwise(name, batched, scalar, order):
    _check_per_centre(lambda u, x, h: batched(u, x, h, order), lambda u, x, h: scalar(u, x, h, order), 1e-3, 4)


@pytest.mark.parametrize("name, batched, scalar, step", SECOND_ORDER, ids=[c[0] for c in SECOND_ORDER])
def test_laplacians_on_many_centres_match_scalar_reference_bitwise(name, batched, scalar, step):
    _check_per_centre(batched, scalar, step, 5)


def test_composed_crf_of_laplacian_on_many_centres_matches_scalar_reference_bitwise():
    _check_per_centre(lambda u, x, h: fd_crf(lambda y: fd_laplace4(u, y, h), x, h),
                      lambda u, x, h: ScalarReference.crf(lambda y: ScalarReference.laplace4(u, y, h), x, h), 3e-2, 6)


def test_one_step_for_all_centres_matches_scalar_reference_bitwise():
    # a float step serves every centre, as in the delta4-at-0 suite
    integrands, points = _per_centre_integrands(7)
    centres = tuple(np.array(c) for c in zip(*(x.components() for x in points)))
    for label, u, u_scalar in integrands:
        got = fd_laplace4_richardson(u, centres, 3e-2)
        for j, x in enumerate(points):
            assert _centre(got, j) == ScalarReference.laplace4_richardson(u_scalar[j], x, 3e-2), (label, j)


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


# ---------------------------------------------------------------------------
# the seeded stream the suites draw their corpora from
# ---------------------------------------------------------------------------


def _corpus(stream):
    """One draw of each kind the suites make, as components."""
    f = _random_poly(stream, 2, 8)
    g, c, roots = _product_poly(stream, 0.3, 0.6)
    quaternions = (*f.coeffs, *g.coeffs, c, *roots, _random_point(stream), stream.unit())
    return [q.components() for q in quaternions] + [stream.integer(2, 5), stream.choice([0.5, -0.6, 2.0])]


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_stream_gives_one_corpus_per_seed(seed):
    assert _corpus(Stream(seed)) == _corpus(Stream(seed))


def test_stream_corpora_differ_between_seeds():
    corpora = [_corpus(Stream(seed)) for seed in range(4)]
    units = [np.array(Stream(seed).unit().components()) for seed in range(4)]
    for a in range(4):
        for b in range(a):
            assert corpora[a] != corpora[b]
            assert np.linalg.norm(units[a] - units[b]) > 1e-3


def test_stream_units_are_unit_and_uniform():
    """Unit to 1e-15, with the first and second moments of the uniform
    measure on S^3, 0 and I/4, within 5 standard deviations over 4000 draws."""
    stream = Stream(3)
    units = np.array([stream.unit().components() for _ in range(4000)])
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
    unit = stream.unit().components()
    assert unit == tuple(float(c) for c in shoemake(u1, u2, u3))
    a, b = math.sqrt(1.0 - u1), math.sqrt(u1)
    written_out = (a * math.sin(2 * math.pi * u2), a * math.cos(2 * math.pi * u2),
                   b * math.sin(2 * math.pi * u3), b * math.cos(2 * math.pi * u3))
    assert max(abs(p - q) for p, q in zip(unit, written_out)) <= 1e-15
    assert stream.uniform(0.0, 1.0) == u()  # and the sequence goes on in step
    assert {stream.integer(2, 5) for _ in range(200)} == {2, 3, 4}


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
    """classify_zeros takes the suite's zero polynomial, so N(f) is formed
    once per case; the rows are those of classify_zeros forming it again."""
    import slicereg.verify as verify
    import slicereg.zeros_poles as zeros_poles

    own = verify.suite_multiplicity(1)
    formed = []

    def counted(f):
        formed.append(f)
        return normal(f)

    monkeypatch.setattr(verify, "normal", counted)
    monkeypatch.setattr(zeros_poles, "normal", counted)
    assert verify.suite_multiplicity(1).rows == own.rows
    assert len(formed) == 50 and not all(f.is_slice_preserving() for f in formed)
    monkeypatch.setattr(verify, "classify_zeros", lambda f, zpoly: zeros_poles.classify_zeros(f))
    assert verify.suite_multiplicity(1).rows == own.rows
