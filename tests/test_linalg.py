import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ulamlab.linalg import (
    NormKind,
    OPERATOR,
    SingularInputError,
    ky_fan,
    op_norm,
    parse_norm,
    polar,
    schatten,
    unitary_exp,
)

from oracles import uinorm


def test_op_norm_diagonal():
    assert op_norm(np.diag([3.0, 4.0])) == pytest.approx(4.0)


def test_op_norm_rotation_is_one():
    c, s = np.cos(0.3), np.sin(0.3)
    assert op_norm(np.array([[c, -s], [s, c]])) == pytest.approx(1.0)


def test_schatten_values_on_diagonal():
    a = np.diag([3.0, 4.0])
    assert uinorm(a, schatten(1)) == pytest.approx(7.0)
    assert uinorm(a, schatten(2)) == pytest.approx(5.0)
    assert uinorm(a, schatten(np.inf)) == pytest.approx(4.0)


def test_normalized_schatten_divides_by_dimension_first():
    a = np.diag([3.0, 4.0])
    # weights are sigma / dim = (2.0, 1.5) before aggregation
    assert uinorm(a, schatten(1, normalized=True)) == pytest.approx(3.5)
    assert uinorm(a, schatten(2, normalized=True)) == pytest.approx(2.5)


def test_ky_fan_partial_sums():
    a = np.diag([3.0, 4.0, 1.0])
    assert uinorm(a, ky_fan(1)) == pytest.approx(4.0)
    assert uinorm(a, ky_fan(2)) == pytest.approx(7.0)
    assert uinorm(a, ky_fan(5)) == pytest.approx(8.0)  # k past rank saturates


def test_parse_norm_round_trips():
    for text in ["operator", "schatten:2", "schatten:1:normalized", "kyfan:3"]:
        kind = parse_norm(text)
        assert isinstance(kind, NormKind)
        assert kind.describe() == text


def test_parse_norm_rejects_garbage():
    for bad in ["", "spectral", "schatten:0.5", "kyfan:0", "kyfan:one"]:
        with pytest.raises(ValueError):
            parse_norm(bad)


def test_polar_factors_antidiagonal():
    a = np.array([[0.0, 2.0], [0.5, 0.0]])
    u, p = polar(a)
    assert_allclose(u, [[0, 1], [1, 0]], atol=1e-12)
    assert_allclose(p, [[0.5, 0], [0, 2.0]], atol=1e-12)
    assert_allclose(u @ p, a, atol=1e-12)


def test_polar_rejects_singular():
    with pytest.raises(SingularInputError):
        polar(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_unitary_exp_rejects_nonhermitian():
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="Hermitian"):
        unitary_exp(jordan)
    with pytest.raises(ValueError, match="Hermitian"):
        unitary_exp(np.stack([np.eye(2), jordan]))  # one bad matrix fails the stack


def test_unitary_exp_pauli_x():
    theta = 0.3
    h = theta * np.array([[0.0, 1.0], [1.0, 0.0]])
    u = unitary_exp(h)
    expected = np.cos(theta) * np.eye(2) + 1j * np.sin(theta) * np.array([[0, 1], [1, 0]])
    assert_allclose(u, expected, atol=1e-12)


def test_operator_norm_kind_is_default():
    a = np.diag([1.0, 2.0])
    assert uinorm(a) == uinorm(a, OPERATOR) == 2.0


@st.composite
def small_matrices(draw, dim=3):
    entries = draw(
        st.lists(
            st.floats(-2, 2, allow_nan=False, allow_infinity=False),
            min_size=2 * dim * dim,
            max_size=2 * dim * dim,
        )
    )
    flat = np.asarray(entries[: dim * dim]) + 1j * np.asarray(entries[dim * dim :])
    return flat.reshape(dim, dim)


@given(small_matrices(), small_matrices())
@settings(max_examples=50, deadline=None)
def test_uinorm_triangle_inequality(a, b):
    for kind in (OPERATOR, schatten(1), schatten(2), ky_fan(2)):
        lhs = uinorm(a + b, kind)
        assert lhs <= uinorm(a, kind) + uinorm(b, kind) + 1e-9


@given(small_matrices())
@settings(max_examples=50, deadline=None)
def test_uinorm_unitary_invariance(a):
    theta = 0.7
    u = unitary_exp(theta * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0.0]]))
    for kind in (OPERATOR, schatten(1), schatten(3), ky_fan(2)):
        assert uinorm(u @ a, kind) == pytest.approx(uinorm(a, kind), abs=1e-9)
        assert uinorm(a @ u, kind) == pytest.approx(uinorm(a, kind), abs=1e-9)


@given(small_matrices())
@settings(max_examples=50, deadline=None)
def test_polar_reconstructs_when_invertible(a):
    a = a + 3.0 * np.eye(3)  # push away from singularity
    if np.linalg.cond(a) > 1e6:
        return
    u, p = polar(a)
    assert_allclose(u @ p, a, atol=1e-8)
    assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-8)
    assert np.linalg.eigvalsh(p)[0] >= -1e-10
