from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slicereg.io import InputFormatError, parse_function, parse_polynomial
from slicereg.quaternions import I, J, K, ONE, ZERO, Quaternion, split, to_parts
from slicereg.slicepoly import (
    BETA_SWITCH,
    NormalNotRealError,
    SlicePolynomial,
    SliceStack,
    horner,
    normal,
    slice_product,
    spherical_derivative,
    spherical_value,
)
from slicereg.zeros_poles import SemiregularFunction

from kernel_oracles import quaternion_slice_product, zero_start_horner
from test_quaternions import split_point, to_pair

CORPUS = Path(__file__).resolve().parent.parent / "corpus"
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
        alpha, beta, unit = split_point(x)
        f1, f2 = f.stem_components(alpha, beta)
        lifted = f1 + unit * f2
        assert (f.eval(x) - lifted).abs() <= 1e-12 * (1.0 + lifted.abs())


def test_stem_component_examples():
    f = SlicePolynomial.from_real([0.0, 0.0, 1.0])  # x^2
    f1, f2 = f.stem_components(0.0, 1.0)
    assert f1.isclose(-ONE) and f2.abs() <= 1e-15

    g = SlicePolynomial.linear(I)
    f1, f2 = g.stem_components(0.0, 1.0)
    assert f1.isclose(-I) and f2.isclose(ONE)

    h = SlicePolynomial([Quaternion(0, 0, 0, 0), K, Quaternion(0, 0, 0, 0), ONE])  # x^3 + x k
    f1, f2 = h.stem_components(1.0, 1.0)
    assert f1.isclose(Quaternion(-2, 0, 0, 1))
    assert f2.isclose(Quaternion(2, 0, 0, 1))


def test_stem_symmetry():
    rng = np.random.default_rng(2)
    f = SlicePolynomial([Quaternion.from_array(rng.normal(size=4)) for _ in range(6)])
    for _ in range(10):
        alpha, beta = rng.uniform(-1.5, 1.5), rng.uniform(0.1, 1.5)
        plus1, plus2 = f.stem_components(alpha, beta)
        minus1, minus2 = f.stem_components(alpha, -beta)
        assert (plus1 - minus1).abs() <= 1e-12 * (1 + plus1.abs())
        assert (plus2 + minus2).abs() <= 1e-12 * (1 + plus2.abs())


def test_stem_arrays_match_scalar():
    rng = np.random.default_rng(3)
    f = SlicePolynomial([Quaternion.from_array(rng.normal(size=4)) for _ in range(7)])
    z = rng.uniform(-1, 1, 16) + 1j * rng.uniform(0.05, 1, 16)
    f1, f2 = map(to_parts, f.stem_arrays(z))
    for k in range(len(z)):
        s1, s2 = f.stem_components(z[k].real, z[k].imag)
        assert np.allclose([c[k] for c in f1], s1, atol=1e-12)
        assert np.allclose([c[k] for c in f2], s2, atol=1e-12)


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
    """The partials of the stems at alpha + i beta by a loop of their own."""
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
    alpha, beta, _ = split(x.pair())
    return _loop_stems(f, alpha, beta)[0]


def _loop_spherical_derivative(f, x):
    alpha, beta, _ = split_point(x)
    if beta < BETA_SWITCH:
        return f.slice_derivative().eval(Quaternion.real(alpha))
    return _loop_stems(f, alpha, beta)[1] / beta


# real points, a negative real part and beta below BETA_SWITCH among them
SHADOWS = [(0.3, 0.7), (-1.2, 0.4), (0.9, 0.0), (-0.5, 0.0), (0.0, 1.3), (0.6, 1e-9), (-0.8, 1.1)]


def _at(parts, *index):
    """One point of parts as a Quaternion."""
    return Quaternion(*(float(c[index]) for c in parts))


def _stem_parts(stems):
    """Two pairs, such as the stems (F1, F2) of ``stem_arrays``, as parts."""
    return tuple(to_parts(s) for s in stems)


def _kernel_case(deg):
    rng = np.random.default_rng(30 + deg)
    f = SlicePolynomial([Quaternion.from_array(rng.normal(size=4) * 0.7**m) for m in range(deg + 1)])
    z = np.array([complex(a, b) for a, b in SHADOWS] + list(rng.uniform(-1.2, 1.2, 8) + 1j * rng.uniform(0, 1.2, 8)))
    return f, z


@pytest.mark.parametrize("deg", range(9))
def test_stem_arrays_match_scalar_loop_bitwise(deg):
    f, z = _kernel_case(deg)
    f1, f2 = _stem_parts(f.stem_arrays(z))
    column = _stem_parts(f.stem_arrays(z[:, None]))  # the layout of the product-rule oracle
    for k, zk in enumerate(z):
        want = _loop_stems(f, zk.real, zk.imag)
        assert f.stem_components(zk.real, zk.imag) == want
        assert (_at(f1, k), _at(f2, k)) == want
        assert (_at(column[0], k, 0), _at(column[1], k, 0)) == want
    zero = SlicePolynomial([]).stem_arrays(z[:, None])
    assert all(c.shape == (len(z), 1) and not c.any() for stem in zero for c in stem)


def test_stem_f2_keeps_its_relative_accuracy_next_to_the_real_axis():
    """F2 = sum a_m Im z^m at beta = 1e-8 on a random degree-8 quaternionic f,
    against mpmath at 50 digits on the same doubles: within 1e-15 of |F2|.
    Im z^m = Re z^{m-1} beta + Im z^{m-1} alpha adds terms of one sign, so
    the power sums keep F2's relative accuracy; (G(z) - G(conj z)) / 2 with
    G = sum z^m g_m cancels to it from values eps / beta larger."""
    import mpmath

    rng = np.random.default_rng(44)
    f = SlicePolynomial([Quaternion.from_array(rng.normal(size=4)) for _ in range(9)])
    z = np.linspace(-1.2, 1.2, 13) + 1e-8j
    f2 = to_parts(f.stem_arrays(z)[1])
    with mpmath.workdps(50):
        for k, zk in enumerate(z):
            powers = [mpmath.mpc(zk.real, zk.imag) ** m for m in range(len(f.coeffs))]
            want = [mpmath.fsum(mpmath.mpf(a[c]) * p.imag for a, p in zip(f.coeffs, powers)) for c in range(4)]
            err = mpmath.sqrt(mpmath.fsum((mpmath.mpf(float(f2[c][k])) - want[c]) ** 2 for c in range(4)))
            assert err <= 1e-15 * mpmath.sqrt(mpmath.fsum(w * w for w in want)), zk


def _stack_partials(deg, z):
    """(dF1/da, dF1/db, dF2/da, dF2/db) of the degree-deg kernel polynomial
    at each point of z, as the crf suite's exact sides read them: with G
    the stems of f' on the stack of all nine kernel polynomials, the lower
    degrees zero-padded, they are (G1, -G2, G2, G1), from d(z^m)/da = m
    z^{m-1} and d(z^m)/db = i m z^{m-1}."""
    g1, g2 = _stem_parts(SliceStack(_kernel_case(d)[0] for d in range(9)).slice_derivative().stem_arrays(z[:, None]))
    return [(_at(g1, k, deg), -_at(g2, k, deg), _at(g2, k, deg), _at(g1, k, deg)) for k in range(len(z))]


@pytest.mark.parametrize("deg", range(9))
def test_stem_partials_match_scalar_loop(deg):
    f, z = _kernel_case(deg)
    for partials, zk in zip(_stack_partials(deg, z), z):
        assert partials == _loop_partials(f, zk.real, zk.imag)


def test_stem_partials_match_central_differences():
    h = 1e-6
    for deg in range(9):
        f, z = _kernel_case(deg)
        for partials, zk in zip(_stack_partials(deg, z), z):
            a, b = zk.real, zk.imag
            da = [(p - m) / (2.0 * h) for p, m in zip(f.stem_components(a + h, b), f.stem_components(a - h, b))]
            db = [(p - m) / (2.0 * h) for p, m in zip(f.stem_components(a, b + h), f.stem_components(a, b - h))]
            tol = 1e-7 * (1.0 + f.stem_scale(abs(zk) + h))
            for exact, fd in zip(partials, (da[0], db[0], da[1], db[1])):
                assert (exact - fd).abs() <= tol, (deg, zk)


def test_spherical_operators_on_parts_match_quaternion_points():
    rng = np.random.default_rng(12)
    f = SlicePolynomial([Quaternion.from_array(rng.normal(size=4) * 0.6**m) for m in range(7)])
    points = nonreal_points(rng, 10) + [
        Quaternion.real(0.6), Quaternion.real(-1.1), Quaternion(0.3, 1e-20, 0.0, 0.0),  # (numerically) real
        Quaternion(0.6, 1e-9, 0.0, 0.0), Quaternion(-0.2, 0.0, -3e-9, 4e-9),  # beta < BETA_SWITCH
    ]
    pair = to_pair(tuple(np.array(c) for c in zip(*points)))
    for op, loop in ((spherical_value, _loop_spherical_value), (spherical_derivative, _loop_spherical_derivative)):
        batched = to_parts(op(f, pair))
        for k, x in enumerate(points):
            assert _at(batched, k) == op(f, x) == loop(f, x), (op.__name__, x)


def test_slice_stack_runs_each_polynomial_at_its_centre_bitwise():
    # degrees 0..5 and the zero polynomial side by side; a (rows, centres) grid
    # of points, column j at polynomial j, as a stencil hands them out
    rng = np.random.default_rng(13)
    polys = [SlicePolynomial([Quaternion.from_array(rng.normal(size=4) * 0.6**k) for k in range(d + 1)])
             for d in (3, 0, 5, 1)] + [SlicePolynomial([])]
    stack = SliceStack(polys)
    assert stack.g.shape == stack.h.shape == (6, 5) and not (stack.g[4:, 0].any() or stack.h[4:, 0].any())
    grid = [nonreal_points(rng, 3) + [Quaternion.real(0.4), Quaternion(0.6, 1e-9, 0.0, 0.0)] for _ in polys]
    pair = to_pair(tuple(np.array([[x[c] for x in col] for col in grid]).T for c in range(4)))
    z = np.array([[complex(x.w, x.abs_im()) for x in col] for col in grid]).T
    f1, f2 = _stem_parts(stack.stem_arrays(z))
    values, derivative = _stem_parts((stack.eval(pair), stack.slice_derivative().eval(pair)))
    sv, sd = _stem_parts((spherical_value(stack, pair), spherical_derivative(stack, pair)))
    for j, (f, col) in enumerate(zip(polys, grid)):
        for i, x in enumerate(col):
            assert _at(values, i, j) == f.eval(x)
            assert _at(derivative, i, j) == f.slice_derivative().eval(x)
            assert (_at(f1, i, j), _at(f2, i, j)) == f.stem_components(z[i, j].real, z[i, j].imag)
            assert _at(sv, i, j) == spherical_value(f, x)
            assert _at(sd, i, j) == spherical_derivative(f, x)


def quaternion_horner(f, x: Quaternion) -> Quaternion:
    """Oracle of ``eval``: the left Horner acc = x acc + a_m on Quaternions,
    one point at a time."""
    acc = ZERO
    for c in reversed(f.coeffs):
        acc = x * acc + c
    return acc


def _corpus_polynomials():
    """The polynomials of the corpus: each polynomial case, and the
    numerator and the denominator of each rational one."""
    from slicereg.io import load_function

    out = []
    for path in sorted(CORPUS.glob("*.json")):
        if path.name in ("polynomials.json", "rationals.json"):
            continue
        f = load_function(path)
        out += [f] if isinstance(f, SlicePolynomial) else [f.num, SlicePolynomial.from_real(f.den)]
    return out


def test_pair_horner_matches_the_quaternion_horner():
    """``eval``, the Horner on ``pmul``, against its oracle at seeded points
    on every corpus polynomial: within 4 ulps of sum |a_m| |x|^m, part by
    part (numpy fuses a complex product's multiply and add, and sums the
    pair product's parts in another order); and a ``SliceStack`` of the
    polynomials gives each centre its own polynomial's values, bit for bit."""
    from slicereg.verify import Stream, _random_poly

    rng, stream = np.random.default_rng(43), Stream(11)
    polys = _corpus_polynomials()
    assert len(polys) >= 22 and not all(f.is_slice_preserving() for f in polys)
    polys += [_random_poly(stream, lo, lo + 2) for lo in (0, 3, 6)]
    polys += [SlicePolynomial([]), SlicePolynomial([Quaternion(1, 2, 0, 0), ONE]), normal(polys[-1])]
    points = [Quaternion.from_array(rng.normal(size=4) * r) for r in rng.uniform(0.05, 2.0, 40)]
    points += [Quaternion.real(0.7), Quaternion(-0.4, 1e-9, 0.0, 0.0), Quaternion(0.2, 0.0, -1.3, 0.4)]
    pair = to_pair(tuple(np.array(points).T))
    worst = 0.0
    for f in polys:
        values = [np.broadcast_to(c, (len(points),)) for c in to_parts(f.eval(pair))]  # a constant is a scalar
        for k, x in enumerate(points):
            want, got = quaternion_horner(f, x), _at(values, k)
            assert got == f.eval(x)  # one point runs the array kernel
            ulp = np.spacing(f.stem_scale(x.abs()))
            worst = max(worst, max(abs(g - w) for g, w in zip(got, want)) / ulp)
    assert worst <= 4.0, worst
    stack = SliceStack(polys)
    grid = to_pair(tuple(np.repeat(np.array(points).T[:, :, None], len(polys), axis=2)))
    columns = to_parts(stack.eval(grid))
    for j, f in enumerate(polys):
        alone = to_parts(f.eval(pair))
        assert all(np.array_equal(c[:, j], np.broadcast_to(a, (len(points),))) for c, a in zip(columns, alone)), j


def test_semiregular_stems_are_the_one_point_case_of_its_arrays():
    num = SlicePolynomial([Quaternion(0.3, -0.2, 0.5, 0.1), I, Quaternion(0.4, 0.0, 0.2, -0.7), ONE])
    fs = SemiregularFunction(SlicePolynomial.from_real([2.0, -0.5, 1.0]), num)
    _, z = _kernel_case(0)
    f1, f2 = _stem_parts(fs.stem_arrays(z))
    for k, zk in enumerate(z):
        # the former scalar stems: CPython complex 1/d(z) times the num stems
        inv = 1.0 / horner(fs.den.tolist(), complex(zk))
        n1, n2 = _loop_stems(fs.num, zk.real, zk.imag)
        want = (n1 * inv.real - n2 * inv.imag, n1 * inv.imag + n2 * inv.real)
        assert tuple(_at(p) for p in _stem_parts(fs.stem_arrays(complex(zk)))) == want
        got = (_at(f1, k), _at(f2, k))
        assert all((g - w).abs() <= 1e-15 * (1.0 + w.abs()) for g, w in zip(got, want))


def _horner_with_temporaries(c, z):
    """The former array ``horner``: a fresh accumulator per coefficient."""
    acc = np.zeros_like(z)
    for coef in reversed(c):
        acc = acc * z + coef
    return acc


@pytest.mark.parametrize("kind", ["complex", "float", "int"])
def test_array_horner_in_place_matches_the_loop_with_temporaries(kind):
    rng = np.random.default_rng(7)
    z = {
        "complex": rng.uniform(-1.5, 1.5, 64) + 1j * rng.uniform(-1.5, 1.5, 64),
        "float": rng.uniform(-1.5, 1.5, 64),
        "int": rng.integers(-3, 4, 64),
    }[kind]
    for c in (rng.normal(size=9), list(rng.normal(size=4)), [2, -1, 3], np.array([0.5]), []):
        got, want = horner(c, z), _horner_with_temporaries(c, z)
        assert got.dtype == want.dtype and got.shape == z.shape
        assert got.tobytes() == want.tobytes()
        # the scalar path at every point: bitwise on the real line; numpy's
        # complex product may round differently from CPython's
        scalar = np.array([horner(c, zk.item()) for zk in z])
        if kind == "complex":
            bound = 1e-15 * (len(c) + 1) * horner(np.abs(c), np.abs(z))
            assert np.all(np.abs(got - scalar) <= bound)
        else:
            assert np.array_equal(got, scalar.real)
    square = z.reshape(8, 8)  # any shape: the column layout of the oracle and beyond
    assert horner([1.0, -2.0, 0.5], square).tobytes() == _horner_with_temporaries([1.0, -2.0, 0.5], square).tobytes()


def test_horner_runs_each_column_as_its_own_polynomial_bitwise():
    # degrees 0..6 zero-padded to (7, 6) columns; column j at z[..., j] is the
    # 1-D horner of its own coefficients there, bit for bit, at two points or
    # more (numpy multiplies a one-element complex array in place unfused)
    rng = np.random.default_rng(11)
    columns = [rng.normal(size=d + 1) * 10.0 ** rng.integers(-3, 4, d + 1) for d in (3, 0, 6, 1, 5, 2)]
    c = np.zeros((7, len(columns)))
    for column, cj in zip(c.T, columns):
        column[:len(cj)] = cj
    for shape in ((2, 6), (9, 6), (3, 4, 6)):
        z = rng.uniform(-1.5, 1.5, shape) + 1j * rng.uniform(-1.5, 1.5, shape)
        got = horner(c, z)
        assert got.shape == shape
        for j, cj in enumerate(columns):
            assert got[..., j].tobytes() == horner(cj, z[..., j].copy()).tobytes(), (shape, j)


def test_horner_from_the_leading_coefficient_matches_a_zero_start_bitwise():
    # finite z, real and complex, one polynomial or zero-padded columns;
    # 0 * z + c[-1] is c[-1] there
    rng = np.random.default_rng(13)
    for d in range(9):
        c = rng.normal(size=d + 1) * 10.0 ** rng.integers(-3, 4, d + 1)
        columns = np.zeros((d + 1, 5))
        for column in columns.T:
            n = rng.integers(1, d + 2)
            column[:n] = rng.normal(size=n)
        for z in (rng.uniform(-2, 2, 40) + 1j * rng.uniform(-2, 2, 40), rng.uniform(-2, 2, 40),
                  np.array([-1.5 - 0.0j, 0.0 - 0.0j, -0.0 + 1j]), rng.uniform(-2, 2, (8, 5)) + 0j):
            for coeffs in (c, list(c), columns) if z.shape[-1] == 5 else (c, list(c)):
                got, want = horner(coeffs, z), zero_start_horner(coeffs, z)
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (d, z.shape)


# -- slice product -------------------------------------------------------


def test_slice_product_convolution_example():
    prod = slice_product(SlicePolynomial.linear(I), SlicePolynomial.linear(J))
    assert prod.coefficient(0).isclose(K)
    assert prod.coefficient(1).isclose(-(I + J))
    assert prod.coefficient(2).isclose(ONE)


@pytest.mark.parametrize("deg", [0, 1, 2, 3, 5, 8, 13, 21, 32])
def test_slice_product_matches_the_quaternion_loop_bitwise(deg):
    # quaternionic coefficients over scales 1e-4..1e4, signed zeros and a
    # real factor; each degree against every other of the list
    rng = np.random.default_rng(deg)

    def poly(d):
        cs = rng.normal(size=(d + 1, 4)) * 10.0 ** rng.integers(-4, 5, (d + 1, 1))
        cs[rng.random(cs.shape) < 0.1] = -0.0
        cs[-1, 0] = 1.0
        return SlicePolynomial(map(Quaternion.from_array, cs))

    f = poly(deg)
    for g in [poly(d) for d in (0, 1, 2, 3, 5, 8, 13, 21, 32)] + [SlicePolynomial.from_real([0.5, -0.0, 2.0])]:
        for a, b in ((f, g), (g, f)):
            got, want = slice_product(a, b), quaternion_slice_product(a, b)
            assert all(type(q) is Quaternion for q in got.coeffs)
            assert np.array(got.coeffs).tobytes() == np.array(want.coeffs).tobytes()
    assert slice_product(f, SlicePolynomial([])).is_zero


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
        rebuilt = spherical_value(f, x) + Quaternion(0.0, x.x1, x.x2, x.x3) * spherical_derivative(f, x)
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
        gbar_x = g.eval(x).conj()
        gbar_xc = g.eval(x.conj()).conj()
        sd_bar = (Quaternion(0.0, x.x1, x.x2, x.x3).inverse() * (gbar_x - gbar_xc)) * 0.5
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


@pytest.mark.parametrize("rel, preserving", [(5e-11, True), (5e-10, False)])
def test_every_slice_preserving_decision_reads_one_tolerance(rel, preserving):
    # 2 - 3x + x^2 with an imaginary part rel * (1 + max|a_m|) on a_1
    coeffs = [2.0, [-3.0, 4.0 * rel, 0.0, 0.0], 1.0]
    den = parse_polynomial({"coeffs": coeffs})

    def accepts(build) -> bool:
        try:
            build()
        except (ValueError, InputFormatError):
            return False
        return True

    assert den.is_slice_preserving() is preserving
    assert accepts(den.real_coeffs) is preserving
    assert accepts(lambda: SemiregularFunction(den, SlicePolynomial.from_real([1.0]))) is preserving
    assert accepts(lambda: parse_function({"num": {"coeffs": [1.0]}, "den": {"coeffs": coeffs}})) is preserving
