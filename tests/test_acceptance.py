"""End-to-end acceptance checks, one test per guaranteed behavior.

Each test asserts a contract of the full pipeline at desk scale; run with
``pytest -v tests/test_acceptance.py`` for one pass/fail line per item.
"""

import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from ulamlab import (
    GroupMap,
    UnsupportedDomainError,
    average_pd,
    condition_b_report,
    condition_c_check,
    constant_identity,
    contraction_series,
    cyclic,
    defect_report,
    derive_seed,
    dihedral,
    direct_product,
    distance,
    dixmier_unitarize,
    estimate_checks,
    free_ball,
    mult_defect,
    pd_min_eig,
    perturb_unitary,
    regular_rep,
    run_suite,
    schatten,
    similarity_twist,
    stabilize,
    symmetric,
    unit_defect,
)

from oracles import mean, product_constant

CORPUS_SIZE = 100
CORPUS_THETA_MAX = 0.03


@pytest.fixture(scope="module")
def corpus():
    """100 seeded small perturbations of exact representations.

    Groups cycle through orders 2, 12, 8, 24 (dims up to 24); every starting
    defect stays at or below 0.1 so quadratic contraction is guaranteed.
    """
    groups = [cyclic(2), cyclic(12), dihedral(4), symmetric(4)]
    start = time.monotonic()
    maps = []
    for seed in range(CORPUS_SIZE):
        g = groups[seed % len(groups)]
        rng = np.random.Generator(np.random.Philox(key=derive_seed(seed, "acceptance")))
        theta = CORPUS_THETA_MAX * rng.uniform(0.3, 1.0)
        phi = perturb_unitary(regular_rep(g), theta, seed)
        eps0, _ = mult_defect(phi)
        assert eps0 <= 0.1
        maps.append((phi, eps0))
    return maps, time.monotonic() - start


def test_criterion_1_stabilization_certified_corpus(corpus):
    maps, build_elapsed = corpus
    start = time.monotonic()
    for phi, eps0 in maps:
        result, trace = stabilize(phi, tol=1e-12, max_iter=30)
        assert trace.converged
        assert len(trace.iterations) <= 30
        assert trace.final_defect <= 1e-12
        assert trace.total_distance <= 2.0 * eps0 + 1e-9
        eps_final, _ = mult_defect(result)
        assert eps_final <= 1e-12
    elapsed = build_elapsed + (time.monotonic() - start)
    assert elapsed <= 60.0, f"stabilization corpus took {elapsed:.1f}s"


def test_criterion_2_averaging_sharp_and_crude_bounds(corpus):
    maps, _ = corpus
    for phi, eps0 in maps:
        psi = average_pd(phi)
        delta, _ = unit_defect(psi)
        assert delta <= eps0**2 + 1e-9
        assert delta <= 2.0 * eps0**2 + 1e-9
        assert distance(phi, psi) <= eps0 + 1e-9


def test_criterion_3_scalar_phase_closed_forms():
    start = time.monotonic()
    g = cyclic(2)
    phi = GroupMap(g, 1, np.array([[[1.0]], [[np.exp(0.1j)]]], dtype=complex))

    eps0, _ = mult_defect(phi)
    assert eps0 == pytest.approx(2 * np.sin(0.1), abs=1e-12)

    psi = average_pd(phi)
    assert psi.values[1, 0, 0] == pytest.approx(np.cos(0.1), abs=1e-12)
    delta, _ = unit_defect(psi)
    assert delta == pytest.approx(np.sin(0.1) ** 2, abs=1e-12)
    assert pd_min_eig(psi) == pytest.approx(1 - np.cos(0.1), abs=1e-12)

    _, trace = stabilize(phi)
    assert trace.total_distance == pytest.approx(2 * np.sin(0.05), abs=1e-12)
    assert time.monotonic() - start <= 1.0


def test_criterion_4_inequality_suites_five_hundred_seeds():
    seeds = range(500)
    start = time.monotonic()
    for name in (
        "stinespring_inequality",
        "square_inequality",
        "perturbation_bounds",
        "unital_defect_equivalence",
    ):
        result = run_suite(name, seeds)
        assert result.passed, (name, result.notes)
        assert result.trials == 500
    elapsed = time.monotonic() - start
    assert elapsed <= 120.0, f"suites took {elapsed:.1f}s"


def test_criterion_5_positive_forms_over_two_hundred_maps():
    pool = [
        cyclic(2),
        cyclic(3),
        cyclic(6),
        dihedral(3),
        dihedral(4),
        symmetric(3),
        direct_product(cyclic(2), cyclic(2)),
    ]
    for seed in range(40):  # 40 reports of 5 maps each
        g = pool[seed % len(pool)]
        report = condition_b_report(g, dim=1 + seed % 4, trials=5, seed=seed)
        assert report["identity"].measured <= 1e-12
        assert report["ratio"].measured <= 1.0 + 1e-10
        assert report["pd"].bound >= -1e-9  # the worst Gram minimum eigenvalue


def test_criterion_6_closeness_and_norm_estimates(corpus):
    maps, _ = corpus
    for phi, _ in maps:
        psi = average_pd(phi)
        assert condition_c_check(phi, psi) <= 1e-10
        kinds = (schatten(1, normalized=True), schatten(2, normalized=True))
        checks, skipped, _ = estimate_checks(phi, psi, kinds)
        assert not skipped
        assert len(checks) == 1 + len(kinds)  # closeness and one estimate per kind
        for check in checks.values():
            assert check.margin >= -1e-10


def test_criterion_7_unitarization_of_bounded_twists():
    groups = [cyclic(3), cyclic(8), dihedral(3), symmetric(3)]
    for seed in range(100):
        rho = regular_rep(groups[seed % len(groups)])
        psi, cond = similarity_twist(rho, bound=2.0, seed=seed)
        assert cond <= 2.0 + 1e-9
        pi, report = dixmier_unitarize(psi)
        delta, _ = unit_defect(pi)
        assert delta <= 1e-9
        assert report.certificate["distance"].margin >= -1e-8

    # hand-checked flip: psi(1) = [[0, 2], [0.5, 0]] unitarizes to the swap
    g = cyclic(2)
    psi = GroupMap(g, 2, np.array([np.eye(2), [[0.0, 2.0], [0.5, 0.0]]], dtype=complex))
    pi, report = dixmier_unitarize(psi)
    assert_allclose(pi.values[1], [[0, 1], [1, 0]], atol=1e-12)
    assert report.certificate["distance"].measured == pytest.approx(1.0, abs=1e-12)
    assert report.certificate["distance"].bound == pytest.approx(6.0, abs=1e-12)


def test_criterion_8_certificate_constants_against_direct_evaluation():
    series = contraction_series(1, 1, 2, 0.1)
    direct_series = 1.0 * (1 + sum(0.1 ** (2**n - 1) for n in range(1, 60)))
    assert series.series_constant == pytest.approx(direct_series, abs=1e-9)
    assert series.series_constant == pytest.approx(1.1010001, abs=1e-7)

    direct_product_value = 1.0
    for n in range(60):
        direct_product_value *= 1 + 0.1 ** (2**n)
    assert product_constant(1, 2, 0.1) == pytest.approx(direct_product_value, abs=1e-12)
    # binary-expansion telescoping gives the closed form 1/(1 - 0.1)
    assert product_constant(1, 2, 0.1) == pytest.approx(10.0 / 9.0, abs=1e-12)


def test_criterion_9_free_ball_guards_and_restricted_reports():
    ball = free_ball(2, 3)
    phi = constant_identity(ball, 2)
    with pytest.raises(UnsupportedDomainError):
        mean(phi)
    with pytest.raises(UnsupportedDomainError):
        average_pd(phi)
    with pytest.raises(UnsupportedDomainError):
        stabilize(phi)
    report = defect_report(phi)
    assert report.restricted is True
    assert report.epsilon == 0.0
