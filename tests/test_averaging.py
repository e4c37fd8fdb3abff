import numpy as np
import pytest
from numpy.testing import assert_allclose

from ulamlab import (
    GroupMap,
    UnsupportedDomainError,
    average_pd,
    condition_b_report,
    condition_c_check,
    cyclic,
    dihedral,
    distance,
    estimate_checks,
    form,
    free_ball,
    pd_min_eig,
    perturb_unitary,
    random_map,
    regular_rep,
    schatten,
    symmetric,
    translate_coefficient,
    unit_defect,
)
from ulamlab.averaging import translate_average, translate_coefficient as _tc

from oracles import mean

COS_TENTH = 0.9950041652780258
SIN_TENTH = 0.09983341664682815
SIN_SQ_TENTH = 0.009966711079379185
ONE_MINUS_COS_TENTH = 0.0049958347219741794


@pytest.fixture
def z2_phase():
    g = cyclic(2)
    values = np.array([[[1.0]], [[np.exp(0.1j)]]], dtype=complex)
    return GroupMap(g, 1, values)


def test_mean_of_regular_rep_is_uniform():
    g = cyclic(3)
    assert_allclose(mean(regular_rep(g)), np.full((3, 3), 1 / 3), atol=1e-15)


def test_mean_is_shift_invariant():
    phi = random_map(dihedral(3), 3, seed=7)
    shifted = translate_average(phi, lambda t, v: t.sum(axis=1))  # mean_y phi(x y)
    assert np.linalg.norm(shifted - mean(phi), 2, axis=(1, 2)).max() <= 1e-12


def test_mean_rejects_free_ball():
    phi = random_map(free_ball(2, 2), 2, seed=0)
    with pytest.raises(UnsupportedDomainError, match="invariant mean"):
        mean(phi)


def test_average_pd_rejects_free_ball():
    from ulamlab import constant_identity

    with pytest.raises(UnsupportedDomainError):
        average_pd(constant_identity(free_ball(2, 2), 2))


def test_average_pd_scalar_phase(z2_phase):
    psi = average_pd(z2_phase)
    assert psi.values[0, 0, 0] == pytest.approx(1.0, abs=1e-15)
    assert psi.values[1, 0, 0] == pytest.approx(COS_TENTH, abs=1e-12)
    delta, _ = unit_defect(psi)
    assert delta == pytest.approx(SIN_SQ_TENTH, abs=1e-12)
    assert distance(z2_phase, psi) == pytest.approx(SIN_TENTH, abs=1e-12)
    assert pd_min_eig(psi) == pytest.approx(ONE_MINUS_COS_TENTH, abs=1e-12)


def test_average_pd_fixes_representations(group_pool):
    for g in group_pool:
        rho = regular_rep(g)
        psi = average_pd(rho)
        assert_allclose(psi.values, rho.values, atol=1e-12)


def test_average_pd_is_positive_definite_for_unitary_inputs():
    for g in (cyclic(4), dihedral(3)):
        phi = perturb_unitary(regular_rep(g), 0.05, seed=3)
        psi = average_pd(phi)
        assert pd_min_eig(psi) >= -1e-9
        assert psi.values[g.identity] == pytest.approx(np.eye(g.order), abs=1e-12)


def test_form_of_representation_is_identity():
    g = dihedral(3)
    rho = regular_rep(g)
    assert_allclose(form(rho, rho), np.eye(g.order), atol=1e-14)


def test_translate_coefficient_inverts_abelian_rep():
    g = cyclic(3)
    rho = regular_rep(g)
    m = translate_coefficient(rho)
    assert_allclose(m.values, rho.values[g.inv], atol=1e-14)


def test_translate_coefficient_gram_psd_on_nonabelian():
    # mean-of-squares structure keeps the Gram positive on any group
    for g in (dihedral(3), symmetric(3)):
        for seed in range(4):
            phi = random_map(g, 2, seed=seed)
            assert pd_min_eig(translate_coefficient(phi)) >= -1e-9


def test_condition_b_report_passes(group_pool):
    for g in group_pool[:4]:
        rep = condition_b_report(g, dim=2, trials=4, seed=0)
        assert rep.passed
        assert rep["identity"].measured <= 1e-12
        assert rep["ratio"].measured <= 1.0 + 1e-10
        assert rep["pd"].bound >= -1e-9


def test_condition_b_report_dict_shape():
    rep = condition_b_report(cyclic(2), dim=1, trials=2, seed=5)
    assert rep.passed is True
    assert set(rep) == {"identity", "ratio", "pd"}
    assert rep["ratio"].bound == 1.0


def test_condition_c_zero_for_exact_reps():
    rho = regular_rep(dihedral(3))
    assert condition_c_check(rho, rho) <= 1e-12


def test_condition_c_for_averaged_perturbation():
    g = cyclic(4)
    phi = perturb_unitary(regular_rep(g), 0.02, seed=1)
    psi = average_pd(phi)
    assert condition_c_check(phi, psi) <= 1e-10


def test_closeness_bound_on_perturbed_rep():
    g = dihedral(3)
    phi = perturb_unitary(regular_rep(g), 0.02, seed=2)
    psi = average_pd(phi)
    checks, skipped, _ = estimate_checks(phi, psi)
    assert "closeness" not in skipped
    assert checks["closeness"].margin >= -1e-10
    assert checks["closeness"].passed


def test_closeness_bound_skips_nonunitary_input():
    phi = random_map(cyclic(3), 2, seed=0)
    psi = average_pd(phi)
    checks, skipped, _ = estimate_checks(phi, psi)
    assert "closeness" not in checks
    assert skipped["closeness"]
    assert checks.passed  # skipped checks do not fail


def test_norm_estimate_operator_and_normalized_schatten():
    g = cyclic(4)
    phi = perturb_unitary(regular_rep(g), 0.02, seed=4)
    psi = average_pd(phi)
    kinds = (schatten(1, normalized=True), schatten(2, normalized=True))
    checks, skipped, _ = estimate_checks(phi, psi, kinds)
    assert not skipped
    for kind in kinds:
        assert checks[f"norm_estimate[{kind.describe()}]"].margin >= -1e-10


def test_norm_estimate_skips_unnormalized_schatten():
    g = cyclic(4)
    phi = perturb_unitary(regular_rep(g), 0.02, seed=4)
    psi = average_pd(phi)
    checks, skipped, _ = estimate_checks(phi, psi, [schatten(1)])
    assert "norm_estimate[schatten:1]" not in checks
    assert "normalized" in skipped["norm_estimate[schatten:1]"]
