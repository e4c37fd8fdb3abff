import numpy as np
import pytest
from numpy.testing import assert_allclose

import ulamlab.linalg
from ulamlab import (
    Bound,
    Certificate,
    GroupMap,
    OPERATOR,
    average_pd,
    constant_identity,
    cyclic,
    defect_report,
    dihedral,
    distance,
    free_ball,
    iso_defect,
    map_from_dict,
    map_to_dict,
    mult_defect,
    pd_min_eig,
    perturb_unitary,
    perturbation_bound_report,
    random_map,
    regular_rep,
    schatten,
    sup_norm,
    unit_defect,
)

TWO_SIN_TENTH = 0.1996668332936563  # |1 - exp(0.2i)|


def scalar_map(group, phases):
    values = np.array([[[p]] for p in phases], dtype=complex)
    return GroupMap(group, 1, values)


@pytest.fixture
def z2_phase():
    # phi(0) = 1, phi(1) = exp(0.1i): unitary scalars, small mult defect
    return scalar_map(cyclic(2), [1.0, np.exp(0.1j)])


def test_scalar_phase_mult_defect(z2_phase):
    eps, witness = mult_defect(z2_phase)
    assert eps == pytest.approx(TWO_SIN_TENTH, abs=1e-12)
    assert witness == (1, 1)


def test_scalar_phase_is_exactly_unitary(z2_phase):
    delta, _ = unit_defect(z2_phase)
    assert delta <= 1e-15
    assert iso_defect(z2_phase) <= 1e-15


def test_mult_defect_witness_recomputes(z2_phase):
    eps, (x, y) = mult_defect(z2_phase)
    g = z2_phase.domain
    xy = g.product(x, y)
    direct = abs(
        z2_phase.values[xy, 0, 0] - z2_phase.values[x, 0, 0] * z2_phase.values[y, 0, 0]
    )
    assert direct == pytest.approx(eps, abs=1e-15)


def test_regular_rep_has_zero_defects(group_pool):
    for g in group_pool:
        rho = regular_rep(g)
        eps, _ = mult_defect(rho)
        delta, _ = unit_defect(rho)
        assert eps == 0.0
        assert delta == 0.0


def test_constant_identity_defects():
    phi = constant_identity(cyclic(3), 2)
    eps, _ = mult_defect(phi)
    delta, _ = unit_defect(phi)
    assert eps == 0.0 and delta == 0.0
    assert sup_norm(phi) == 1.0


def test_unit_defect_sees_both_branches():
    # phi(1) is a strict isometry embedded in a rank-deficient square matrix:
    # phi* phi = diag(1, 0) and phi phi* = diag(1, 0), both branches defect 1
    g = cyclic(2)
    values = np.array([np.eye(2), [[1, 0], [0, 0]]], dtype=complex)
    phi = GroupMap(g, 2, values)
    delta, element = unit_defect(phi)
    assert delta == pytest.approx(1.0)
    assert element == 1


def test_iso_defect_tracks_only_one_branch():
    # a coisometry on the second element: phi phi* = I but phi* phi != I
    g = cyclic(2)
    v = np.zeros((2, 3, 3), dtype=complex)
    v[0] = np.eye(3)
    v[1, 0, 0] = 1.0
    v[1, 1, 1] = 1.0
    phi = GroupMap(g, 3, v)
    assert iso_defect(phi) == pytest.approx(1.0)


def test_distance_norm_dependence():
    g = cyclic(2)
    a = scalar_map(g, [1.0, 1.0])
    b = scalar_map(g, [1.0, 0.5])
    assert distance(a, b) == pytest.approx(0.5)
    phi = constant_identity(g, 2)
    shifted = GroupMap(g, 2, phi.values - 0.1 * np.eye(2))
    assert distance(phi, shifted, OPERATOR) == pytest.approx(0.1)
    assert distance(phi, shifted, schatten(1)) == pytest.approx(0.2)


def test_sup_norm_peak():
    g = cyclic(3)
    values = np.stack([np.eye(2), 2.0 * np.eye(2), 0.5 * np.eye(2)]).astype(complex)
    assert sup_norm(GroupMap(g, 2, values)) == pytest.approx(2.0)


def test_pd_min_eig_regular_rep_nonnegative(group_pool):
    for g in group_pool:
        if g.order > 8:
            continue
        assert pd_min_eig(regular_rep(g)) >= -1e-10


def test_pd_min_eig_scalar_counterexample():
    # phi(e) = 1, phi(g) = 2 on Z2: Gram [[1,2],[2,1]] has eigenvalue -1
    phi = scalar_map(cyclic(2), [1.0, 2.0])
    assert pd_min_eig(phi) == pytest.approx(-1.0, abs=1e-12)


def test_pd_min_eig_requires_adjoint_symmetry():
    # phi(g) not equal to phi(g^-1)* makes the Gram non-Hermitian
    phi = scalar_map(cyclic(2), [1.0, 2.0j])
    assert pd_min_eig(phi) == -np.inf


def test_pd_min_eig_checks_symmetry_by_frobenius_first(monkeypatch):
    sv_calls = []
    original = ulamlab.linalg.singular_values

    def counted(a):
        sv_calls.append(np.shape(a))
        return original(a)

    g = dihedral(4)
    averaged = average_pd(perturb_unitary(regular_rep(g), 0.03, seed=0))
    non_hermitian = random_map(g, 2, seed=0)
    monkeypatch.setattr(ulamlab.linalg, "singular_values", counted)
    assert pd_min_eig(averaged) >= -1e-9
    assert sv_calls == []
    # Off by 4e-9 * (P_g - P_g^T) (x) 1: operator norm at most 8e-9, within the
    # 1e-8 tolerance, Frobenius norm 4.5e-8 beyond it; one exact check passes it.
    g_index = 1
    assert g.inv[g_index] != g_index
    skewed = averaged.values.copy()
    skewed[g_index] += 4e-9 * np.eye(averaged.dim)
    assert np.isfinite(pd_min_eig(GroupMap(g, averaged.dim, skewed)))
    assert len(sv_calls) == 1
    # a non-Hermitian Gram is still refused
    assert pd_min_eig(non_hermitian) == -np.inf
    assert len(sv_calls) == 2


def test_group_map_validates_shapes():
    g = cyclic(2)
    with pytest.raises(ValueError):
        GroupMap(g, 2, np.zeros((2, 2, 3), dtype=complex))
    with pytest.raises(ValueError):
        GroupMap(g, 2, np.zeros((3, 2, 2), dtype=complex))
    with pytest.raises(ValueError):
        GroupMap(g, 2, np.full((2, 2, 2), np.nan, dtype=complex))


def test_defect_report_fields(z2_phase):
    rep = defect_report(z2_phase)
    assert rep.epsilon == pytest.approx(TWO_SIN_TENTH, abs=1e-12)
    assert rep.delta <= 1e-15
    assert rep.norm_kind == "operator"
    assert rep.restricted is False
    data = rep.to_dict()
    assert set(data) >= {"epsilon", "delta", "iso_delta", "sup_norm", "witness_pair"}


def test_defect_report_on_free_ball_is_restricted():
    ball = free_ball(2, 2)
    phi = constant_identity(ball, 2)
    rep = defect_report(phi)
    assert rep.restricted is True
    assert rep.epsilon == 0.0


def test_bound_margin_strict_and_pass_edge():
    b = Bound(0.3, 0.1, tol=1e-10)
    assert b.strict().margin == 0.1 + 1e-10 - 0.3  # bit-equal, not approximate
    assert b.strict().tol == 0.0
    edge = Bound(1.0 + 2.0**-20, 1.0, tol=2.0**-20)  # margin is exactly -tol
    assert edge.margin == -edge.tol
    assert edge.passed
    assert not Bound(np.nextafter(edge.measured, 2.0), 1.0, tol=2.0**-20).passed
    assert Certificate(a=edge, b=Bound(0.0, 1.0)).passed
    assert not Certificate(a=edge, b=Bound(2.0, 1.0)).passed


def test_perturbation_bounds_scalar_tightness():
    # phi = 1, psi = 0.9 on Z2: unit bound (|phi|+|psi|) eta = 0.19 is exact
    g = cyclic(2)
    phi = scalar_map(g, [1.0, 1.0])
    psi = scalar_map(g, [0.9, 0.9])
    rep = perturbation_bound_report(phi, psi)
    assert distance(phi, psi) == pytest.approx(0.1)
    assert rep["unit"].bound == pytest.approx(0.19)
    assert rep["unit"].measured == pytest.approx(0.19)
    assert rep["unit"].margin == pytest.approx(0.0, abs=1e-12)
    assert rep.passed


def test_perturbation_bounds_hold_for_random_pairs(rng):
    g = dihedral(3)
    rho = regular_rep(g)
    noise = rng.standard_normal(rho.values.shape) + 1j * rng.standard_normal(rho.values.shape)
    psi = GroupMap(g, rho.dim, rho.values + 0.05 * noise)
    rep = perturbation_bound_report(rho, psi)
    assert rep.passed
    assert set(rep) == {"iso", "unit", "mult"}
    assert all(b.margin >= -1e-10 for b in rep.values())


def test_map_round_trip_through_dict():
    g = dihedral(3)
    rho = regular_rep(g)
    data = map_to_dict(rho)
    assert data["group"] == g.label
    back = map_from_dict(data)
    assert back.domain.label == g.label
    assert_allclose(back.values, rho.values, atol=0)


def test_map_round_trip_preserves_complex_entries():
    g = cyclic(4)
    values = np.array([[[np.exp(0.25j * np.pi * k)]] for k in range(4)])
    phi = GroupMap(g, 1, values)
    back = map_from_dict(map_to_dict(phi))
    assert_allclose(back.values, phi.values, atol=0)


def test_map_from_dict_accepts_domain_override():
    g = cyclic(2)
    phi = constant_identity(g, 2)
    back = map_from_dict(map_to_dict(phi), domain=g)
    assert back.domain is g


def test_defect_report_schatten_kind():
    phi = constant_identity(cyclic(3), 2)
    rep = defect_report(phi, schatten(2, normalized=True))
    assert rep.norm_kind == "schatten:2:normalized"
    assert rep.epsilon == 0.0
