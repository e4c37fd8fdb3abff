import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ulamlab.linalg import (
    HERMITIAN_TOL,
    NormKind,
    OPERATOR,
    SingularInputError,
    _frobenius_at_least,
    _frobenius_within,
    ky_fan,
    op_norm,
    parse_norm,
    polar,
    schatten,
    singular_values,
    unitary_exp,
)

from oracles import frobenius_skewed, spectral_stack, uinorm


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


def test_unitary_exp_refuses_an_asymmetry_its_frobenius_norm_hides():
    with pytest.raises(ValueError, match="needs a Hermitian matrix"):
        unitary_exp(frobenius_skewed(HERMITIAN_TOL))


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["rank_one", "tied", "flat"]),
    dim=st.sampled_from([1, 2, 3, 24, 257]),
    count=st.integers(1, 3),
    scale=st.sampled_from([2.0**-500, 1.0, 2.0**500]),
    rel=st.one_of(st.just(0.0), st.floats(-2e-6, 2e-6)),
    ulps=st.integers(-4, 4),
    bad=st.sampled_from([np.nan, np.inf]),
    seed=st.integers(0, 2**16),
)
# builtin max drops a NaN that follows a number: max([1.0, nan]) == 1.0
@example(kind="rank_one", dim=1, count=2, scale=1.0, rel=1.5e-6, ulps=0, bad=np.nan, seed=0)
def test_frobenius_rule_certifies_only_what_the_operator_norm_shows(
    kind, dim, count, scale, rel, ulps, bad, seed
):
    # tol lies within 2e-6 relative of the computed max, past the rule's
    # slack on either side, and a few ulps from it.  Near rank one, the
    # Frobenius norm is the operator norm; with every singular value tied it
    # is sqrt(d) times it: there each predicate is tight.
    stack = spectral_stack(seed, count, dim, kind, scale)
    sigma = singular_values(stack)[:, 0].max()
    tol = sigma * (1.0 + rel) + ulps * np.spacing(sigma)

    def largest_frobenius(mats):
        """As the callers compute it: whole, per matrix, and from the sum of squares."""
        flat = mats.reshape(len(mats), -1).view(np.float64)
        return (
            np.max([np.linalg.norm(m) for m in mats]),
            np.max(np.linalg.norm(mats, axis=(-2, -1))),
            np.sqrt(np.einsum("ij,ij->i", flat, flat).max()),
        )

    for frobenius in largest_frobenius(stack):
        if _frobenius_within(frobenius, tol):
            assert sigma <= tol, (frobenius, sigma, tol)
        if _frobenius_at_least(frobenius, dim, tol):
            assert sigma >= tol, (frobenius, sigma, tol)
    stack[-1, 0, -1] = bad
    with np.errstate(invalid="ignore"):  # inf times its conjugate has a NaN imaginary part
        broken = largest_frobenius(stack)
    for frobenius in broken:
        assert not _frobenius_within(frobenius, tol)
        assert not _frobenius_at_least(frobenius, dim, tol)


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
