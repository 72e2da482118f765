import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slicereg.quaternions import (
    I,
    J,
    K,
    ONE,
    InvalidUnitError,
    Quaternion,
    as_pair,
    eps_zero,
    over,
    pair_like,
    pconj,
    pinv,
    pmul,
    pnorm2,
    qmul_array,
    split,
    to_parts,
    unit_from_vector,
    validate_unit,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)
nonzero_quats = quats.filter(lambda q: q.abs() > 1e-3)


def slice_embed(alpha: float, beta: float, unit: Quaternion) -> Quaternion:
    """Oracle: Phi_J(alpha + i*beta) = alpha + J*beta, the inverse that
    ``split`` is checked against.  No command needs it."""
    if beta < 0.0:
        raise ValueError("beta must be >= 0")
    u = validate_unit(unit)
    return Quaternion(alpha, u.x1 * beta, u.x2 * beta, u.x3 * beta)


def to_pair(q):
    """The pair (w + i x1, x2 + i x3) of parts q: how the tests hand
    points to the pair kernels."""
    w, x1, x2, x3 = q
    return w + 1j * x1, x2 + 1j * x3


def split_point(x: Quaternion) -> tuple[float, float, Quaternion]:
    """``split`` of one point: alpha, beta as a float and the unit J as a
    Quaternion, as the scalar oracles of the tests take them."""
    alpha, beta, unit = split(x.pair())
    return alpha, float(beta), Quaternion(*map(float, to_parts(unit)))


def test_basis_relations():
    assert (I * J).isclose(K)
    assert (J * K).isclose(I)
    assert (K * I).isclose(J)
    assert (I * I).isclose(-ONE)
    assert (J * J).isclose(-ONE)
    assert (K * K).isclose(-ONE)
    assert (I * J * K).isclose(-ONE)
    # derived from the table: k*j = -i
    assert (K * J).isclose(-I)


def test_bilinear_expansion():
    assert ((ONE + I) * (ONE + J)).isclose(Quaternion(1, 1, 1, 1))


def test_inverse_examples():
    assert Quaternion.real(2.0).inverse().isclose(Quaternion.real(0.5))
    assert I.inverse().isclose(-I)
    q = Quaternion(1, 1, 1, 1)
    assert (q * q.inverse()).isclose(ONE)
    assert q.inverse().isclose(Quaternion(0.25, -0.25, -0.25, -0.25))


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Quaternion(0.0, 0.0, 0.0, 0.0).inverse()


@given(quats, quats)
def test_norm_multiplicative(p, q):
    lhs = (p * q).norm2()
    rhs = p.norm2() * q.norm2()
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))


@given(quats, quats)
def test_conj_antiinvolution(p, q):
    assert p.conj().conj().isclose(p)
    assert (p * q).conj().isclose(q.conj() * p.conj())


@given(quats)
def test_trace_and_norm(q):
    assert (q * q.conj()).isclose(Quaternion.real(q.norm2()))
    assert q.trace() == pytest.approx(2.0 * q.re())


@given(quats)
def test_scalar_square_identity(a):
    # -2|a|^2 + 4 Re(a)^2 = 2 Re(a^2)
    lhs = -2.0 * a.norm2() + 4.0 * a.re() ** 2
    rhs = 2.0 * (a * a).re()
    assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs) + abs(rhs))


@given(nonzero_quats)
def test_embed_decompose_roundtrip(q):
    back = slice_embed(*split_point(q))
    assert (back - q).abs() <= 1e-12 * (1.0 + q.abs())


def test_decompose_examples():
    alpha, beta, unit = split_point(Quaternion(2, 0, 3, 0))
    assert alpha == pytest.approx(2.0)
    assert beta == pytest.approx(3.0)
    assert unit.isclose(J)

    _, beta, unit = split_point(Quaternion.real(5.0))
    assert beta == 0.0  # the unit is then only a placeholder
    assert unit.isclose(I)

    alpha, beta, unit = split_point(Quaternion(1, 1, 1, 1))
    assert alpha == pytest.approx(1.0)
    assert beta == pytest.approx(math.sqrt(3.0))
    assert slice_embed(alpha, beta, unit).isclose(Quaternion(1, 1, 1, 1))


def _scalar_split(x: Quaternion) -> tuple:
    """Oracle: x = alpha + J beta in Python floats, one quaternion at a time,
    with J = Im x * (1 / beta), and beta = 0 and J = i within
    ``eps_zero(|x|)`` of the real axis."""
    beta = x.abs_im()
    if beta <= eps_zero(x.abs()):
        return x.w, 0.0, (0.0, 1.0, 0.0, 0.0)
    inv = 1.0 / beta
    return x.w, beta, (0.0, x.x1 * inv, x.x2 * inv, x.x3 * inv)


def test_split_matches_the_scalar_split_bit_for_bit():
    rng = np.random.default_rng(5)
    rows = rng.normal(size=(40, 4))
    # imaginary parts just below, at and above the real-axis threshold, and none
    near = rng.normal(size=(12, 4))
    im = near[:, 1:] / np.linalg.norm(near[:, 1:], axis=1, keepdims=True)
    scale = eps_zero(np.abs(near[:, 0]))  # |x| = |Re x| to rounding
    near[:, 1:] = im * (scale * np.repeat([0.0, 0.5, 1.0, 2.0], 3))[:, None]
    rows = np.vstack([rows, near])
    want = [_scalar_split(Quaternion.from_array(row)) for row in rows]
    assert sum(w[1] == 0.0 for w in want) >= 6  # the real-axis rule is taken
    alpha, beta, unit = split(to_pair(tuple(rows.T)))
    unit = to_parts(unit)
    assert np.array_equal(alpha, [w[0] for w in want]) and np.array_equal(beta, [w[1] for w in want])
    assert not unit[0].any() and all(np.array_equal(unit[k], [w[2][k] for w in want]) for k in (1, 2, 3))
    for row, (a, b, u) in zip(rows, want):  # a Quaternion is split as its complex pair
        alpha, beta, unit = split(Quaternion.from_array(row).pair())
        assert (alpha, beta, tuple(map(float, to_parts(unit)))) == (a, b, u)


def test_split_of_one_complex_pair_is_the_array_split_bitwise():
    # the Python-float path of one point against the same point as a pair
    # of shape-(1,) arrays: off the axis, on it, at the eps_zero threshold
    # and with signed zeros
    rng = np.random.default_rng(17)
    rows = rng.normal(size=(60, 4)) * 10.0 ** rng.integers(-6, 7, (60, 1))
    rows[:10, 1:] = 0.0
    rows[10:20, 1:] = -0.0
    rows[20:30, 1:] *= eps_zero(np.abs(rows[20:30, :1])) * rng.uniform(0.0, 2.0, (10, 1)) / np.abs(rows[20:30, 1:]).max()
    rows[30:35, 0] = -0.0
    for row in rows:
        a, b = complex(row[0], row[1]), complex(row[2], row[3])
        got = split((a, b))
        want = split((np.array([a]), np.array([b])))
        assert isinstance(got[1], float)
        assert np.float64(got[0]).tobytes() == want[0].tobytes() and np.float64(got[1]).tobytes() == want[1].tobytes()
        assert all(np.complex128(g).tobytes() == w.tobytes() for g, w in zip(got[2], want[2]))
    assert sum(split(Quaternion.from_array(row).pair())[1] == 0.0 for row in rows) >= 20


def test_products_and_sums_are_quaternions():
    p, q = Quaternion(1.5, -2.0, 0.25, 3.0), Quaternion(-0.5, 1.0, 2.0, -4.0)
    for value in (p * q, p + q, p + 2.0, 2.0 + p):
        assert type(value) is Quaternion
    assert I * J == K and (p + q).x3 == -1.0


def test_slice_embed_examples():
    assert slice_embed(0.0, 1.0, I).isclose(I)
    assert slice_embed(2.0, 3.0, J).isclose(Quaternion(2, 0, 3, 0))
    u = unit_from_vector(1.0, 1.0, 0.0)
    x = slice_embed(1.0, 1.0, u)
    assert x.norm2() == pytest.approx(2.0)
    assert x.re() == pytest.approx(1.0)


def test_validate_unit_renormalizes_and_rejects():
    near = Quaternion(0.0, 1.0 + 1e-8, 0.0, 0.0)
    fixed = validate_unit(near)
    assert abs(fixed.abs() - 1.0) <= 1e-15
    with pytest.raises(InvalidUnitError):
        validate_unit(Quaternion(0.3, 1.0, 0.0, 0.0))
    with pytest.raises(InvalidUnitError):
        slice_embed(1.0, 1.0, Quaternion(0.5, 0.5, 0.5, 0.5) * 1.2)


def test_array_ops_match_scalar():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(32, 4))
    b = rng.normal(size=(32, 4))
    prod = qmul_array(a, b)
    for k in range(32):
        expect = Quaternion.from_array(a[k]) * Quaternion.from_array(b[k])
        assert np.allclose(prod[k], expect, atol=1e-12)
    # the (n, 4) wrapper is ``pmul`` on the rows read as pairs, bit for bit,
    # and broadcasts one row against many
    assert np.array_equal(prod, np.stack(to_parts(pmul(to_pair(tuple(a.T)), to_pair(tuple(b.T)))), -1))
    for k in range(32):
        assert np.array_equal(qmul_array(a[k], b)[k], prod[k])


def _scaled_quaternions(rng, n):
    """n random quaternions whose moduli run over 2^-500 ... 2^500: the
    normal draws times 2^e, e uniform in -500 ... 500, the ends included."""
    e = np.concatenate([[-500, 500, -500, 500], rng.integers(-500, 501, n - 4)])
    return np.ldexp(rng.normal(size=(n, 4)), e[:, None])


def _within_ulps(got, want, scale, ulps=2):
    """|got - want| <= ulps units in the last place of scale, component by component."""
    return all(abs(g - w) <= ulps * np.spacing(scale) for g, w in zip(got, want))


def test_pair_kernels_match_the_quaternion_methods():
    """The pair kernels against their oracle, the Quaternion methods, at
    moduli 2^-500 ... 2^500: the product within 2 ulp of |p||q| and the
    inverse within 2 ulp of 1/|q|, as a complex product may fuse a
    multiply and an add where the parts product rounds each; the
    conjugate, and the norm, summed component by component as
    ``Quaternion.norm2`` sums, bit for bit."""
    rng = np.random.default_rng(41)
    a, b = _scaled_quaternions(rng, 2000), _scaled_quaternions(rng, 2000)
    prod, conj = to_parts(pmul(to_pair(tuple(a.T)), to_pair(tuple(b.T)))), to_parts(pconj(to_pair(tuple(a.T))))
    n2, inv = pnorm2(to_pair(tuple(a.T))), to_parts(pinv(to_pair(tuple(a.T))))
    for k in range(len(a)):
        q, p = Quaternion.from_array(a[k]), Quaternion.from_array(b[k])
        assert _within_ulps([c[k] for c in prod], q * p, q.abs() * p.abs()), (q, p)
        assert Quaternion(*(float(c[k]) for c in conj)) == q.conj()
        assert n2[k] == q.norm2()
        # Quaternion.inverse refuses a modulus below 1e-13; conj(q) / |q|^2 is its formula
        assert _within_ulps([c[k] for c in inv], q.conj() / q.norm2(), 1.0 / q.abs()), q
        if q.abs() > 1e-12:
            assert _within_ulps([c[k] for c in inv], q.inverse(), 1.0 / q.abs()), q


def test_pairs_are_parts_read_as_two_complex_numbers():
    rng = np.random.default_rng(42)
    rows = rng.normal(size=(50, 4))
    pair = to_pair(tuple(rows.T))
    assert all(np.array_equal(c, want) for c, want in zip(to_parts(pair), rows.T))
    assert all(np.array_equal(c, want) for c, want in zip(pair, rows.view(complex).T))
    q = Quaternion(0.5, -1.0, 2.0, 0.25)
    assert to_pair(q) == (0.5 - 1.0j, 2.0 + 0.25j)
    assert Quaternion(*map(float, to_parts(pmul(to_pair(q), to_pair(q.conj()))))) == Quaternion.real(q.norm2())


def test_one_point_runs_as_a_pair_of_arrays():
    """A Quaternion goes to the array kernels as a pair of arrays of shape
    (1,), and its value comes back as a Quaternion; a pair passes as it is."""
    q = Quaternion(0.5, -1.0, 2.0, 0.25)
    a, b = as_pair(q)
    assert a.shape == b.shape == (1,) and (a[0], b[0]) == q.pair() == (0.5 - 1.0j, 2.0 + 0.25j)
    assert pair_like(q, (a, b)) == q and pair_like(q, (a * 2.0, b)) == Quaternion(1.0, -2.0, 2.0, 0.25)
    pair = to_pair(tuple(np.random.default_rng(45).normal(size=(4, 3))))
    assert as_pair(pair) is pair and pair_like(pair, list(pair)) == pair


def test_over_divides_the_parts_as_floats():
    """c / d part by part, broadcasting; numpy's complex over real is c * (1 / d)."""
    rng = np.random.default_rng(44)
    c = rng.normal(size=(3, 200)) + 1j * rng.normal(size=(3, 200))
    d = rng.uniform(0.1, 3.0, 200)
    got = over(c, d)
    assert got.shape == c.shape and np.array_equal(got.real, c.real / d) and np.array_equal(got.imag, c.imag / d)
    zeros = over(np.array([complex(-0.0, 0.0), complex(0.0, -0.0)]), 2.0)
    assert np.signbit(zeros.real).tolist() == [True, False] and np.signbit(zeros.imag).tolist() == [False, True]


def test_numpy_scalars_call_the_reflected_operators():
    """``__array_ufunc__ = None``: a NumPy scalar on the left gives way to
    the Quaternion, instead of making an array of its components."""
    q = Quaternion(0.5, -1.0, 2.0, 0.25)
    for got, want in ((np.float64(2.0) * q, q * 2.0), (np.float64(1.0) + q, q + 1.0),
                      (np.float64(1.0) - q, Quaternion.real(1.0) - q)):
        assert type(got) is Quaternion and got == want


def test_quaternion_keys_hash_and_compare_by_value():
    """As dict keys, Quaternions hash and compare by their four components,
    as the frozen dataclass did: the multiplicity suite's ``built`` counts."""
    q = Quaternion(0.3, 0.7, 0.0, 0.0)
    built = {q: 1, Quaternion.real(-0.6): 2}
    built[Quaternion(0.3, 0.7, 0.0, 0.0)] += 1
    assert built == {q: 2, Quaternion.real(-0.6): 2}
    assert hash(q) == hash((0.3, 0.7, 0.0, 0.0))
    assert Quaternion(0, 0.7) == Quaternion(0.0, 0.7, 0.0, 0.0) and hash(Quaternion(-0.0)) == hash(Quaternion())
    assert q != q.conj() and Quaternion(0.3, 0.0, 0.7, 0.0) not in built
