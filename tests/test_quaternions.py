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
    _qconj_parts,
    _qinv_parts,
    _qnorm2_parts,
    decompose,
    qmul_array,
    qmul_parts,
    unit_from_vector,
    validate_unit,
)

finite = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
quats = st.builds(Quaternion, finite, finite, finite, finite)
nonzero_quats = quats.filter(lambda q: q.abs() > 1e-3)


def slice_embed(alpha: float, beta: float, unit: Quaternion) -> Quaternion:
    """Oracle: Phi_J(alpha + i*beta) = alpha + J*beta, the inverse that
    ``decompose`` is checked against.  No command needs it."""
    if beta < 0.0:
        raise ValueError("beta must be >= 0")
    u = validate_unit(unit)
    return Quaternion(alpha, u.x1 * beta, u.x2 * beta, u.x3 * beta)


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
    p = decompose(q)
    back = slice_embed(p.alpha, p.beta, p.unit)
    assert (back - q).abs() <= 1e-12 * (1.0 + q.abs())


def test_decompose_examples():
    p = decompose(Quaternion(2, 0, 3, 0))
    assert p.alpha == pytest.approx(2.0)
    assert p.beta == pytest.approx(3.0)
    assert p.unit.isclose(J)

    real = decompose(Quaternion.real(5.0))
    assert real.beta == 0.0  # the unit is then only a placeholder
    assert real.unit.isclose(I)

    p3 = decompose(Quaternion(1, 1, 1, 1))
    assert p3.alpha == pytest.approx(1.0)
    assert p3.beta == pytest.approx(math.sqrt(3.0))
    assert slice_embed(p3.alpha, p3.beta, p3.unit).isclose(Quaternion(1, 1, 1, 1))


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
        assert np.allclose(prod[k], expect.components(), atol=1e-12)
    # the parts routines, bit for bit against the scalar methods
    parts = tuple(a.T)
    prod, n2 = np.stack(qmul_parts(parts, tuple(b.T)), -1), _qnorm2_parts(parts)
    conj, inv = np.stack(_qconj_parts(parts), -1), np.stack(_qinv_parts(parts), -1)
    for k in range(32):
        q = Quaternion.from_array(a[k])
        assert Quaternion.from_array(prod[k]) == q * Quaternion.from_array(b[k])
        assert n2[k] == q.norm2()
        assert Quaternion.from_array(conj[k]) == q.conj()
        assert Quaternion.from_array(inv[k]) == q.inverse()
