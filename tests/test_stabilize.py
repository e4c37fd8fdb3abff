import importlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from ulamlab import (
    CERTIFIED_EPSILON,
    GroupMap,
    NotRepairableError,
    PreconditionError,
    SizeLimitError,
    UnsupportedDomainError,
    contraction_series,
    cyclic,
    dihedral,
    distance,
    dixmier_unitarize,
    free_ball,
    kazhdan_step,
    linalg,
    mult_defect,
    pd_min_eig,
    perturb_unitary,
    polar_repair,
    random_map,
    regular_rep,
    similarity_twist,
    stabilize,
    symmetric,
    trivial_rep,
    unit_defect,
)
from ulamlab.cli import jsonify

from oracles import product_constant

stabilize_module = importlib.import_module("ulamlab.stabilize")
maps_module = importlib.import_module("ulamlab.maps")

TWO_SIN_TENTH = 0.1996668332936563
COS_TENTH = 0.9950041652780258
SIN_TENTH = 0.09983341664682815
SIN_SQ_TENTH = 0.009966711079379185
TWO_SIN_TWENTIETH = 0.09995833854135666  # |1 - exp(0.1i)|


def z2_phase():
    g = cyclic(2)
    values = np.array([[[1.0]], [[np.exp(0.1j)]]], dtype=complex)
    return GroupMap(g, 1, values)


class TestBoundCertificate:
    def test_frozen_series_values(self):
        assert contraction_series(1, 1, 2, 0.1).series_constant == pytest.approx(
            1.101000100000001, abs=1e-12
        )
        assert contraction_series(2, 1, 2, 0.5).series_constant == pytest.approx(
            1.3164215090218931, abs=1e-12
        )

    def test_matches_direct_partial_sum(self):
        k1, k2, p, d = 3.0, 1.5, 2.0, 0.3
        direct = k2 * (1 + k1 ** (-1 / (p - 1)) * sum(d ** (p**n - 1) for n in range(1, 60)))
        series = contraction_series(k1, k2, p, d)
        assert series.series_constant == pytest.approx(direct, abs=1e-12)
        assert series.truncation_error_bound <= 1e-12

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            contraction_series(0, 1, 2, 0.1)
        with pytest.raises(ValueError):
            contraction_series(1, 1, 1.0, 0.1)
        with pytest.raises(ValueError):
            contraction_series(1, 1, 2, 1.0)

    def test_certificate_serializes(self):
        data = jsonify(contraction_series(5, 1.1, 2, 0.5))
        assert data["kappa1"] == 5
        assert data["truncation_terms"] >= 1


class TestProductConstant:
    def test_binary_expansion_closed_form(self):
        # prod (1 + x^(2^n)) telescopes to 1/(1-x); at x = 0.1 that is 10/9
        assert product_constant(1, 2, 0.1) == pytest.approx(1.1111111111111112, abs=1e-14)
        assert product_constant(1, 2, 0.5) == pytest.approx(2.0, abs=1e-13)

    def test_matches_direct_product(self):
        c, p, d = 2.0, 3.0, 0.4
        direct = 1.0
        for n in range(40):
            direct *= 1 + c * d ** (p**n)
        assert product_constant(c, p, d) == pytest.approx(direct, abs=1e-12)

    def test_zero_delta_is_one_plus_c_free(self):
        # factor for n = 0 is 1 + c * delta; delta = 0 leaves the product at 1
        assert product_constant(3.0, 2, 0.0) == pytest.approx(1.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            product_constant(-1, 2, 0.1)
        with pytest.raises(ValueError):
            product_constant(1, 2, 1.0)


class TestPolarRepair:
    def test_scalar_contraction_repairs_to_phase(self):
        g = cyclic(2)
        psi = GroupMap(g, 1, np.array([[[1.0]], [[COS_TENTH]]], dtype=complex))
        repaired, report = polar_repair(psi)
        assert repaired.values[1, 0, 0] == pytest.approx(1.0, abs=1e-14)
        moved = report["distance"]
        assert moved.measured == pytest.approx(1 - COS_TENTH, abs=1e-12)
        assert moved.bound == pytest.approx(SIN_SQ_TENTH, abs=1e-12)  # the unit defect
        # the square-inequality route: 1 - cos <= sin^2 = delta
        assert moved.margin >= -1e-12
        assert report.passed

    def test_repair_output_is_unitary(self):
        g = dihedral(3)
        rho = regular_rep(g)
        shifted = GroupMap(g, rho.dim, rho.values * 0.9)
        repaired, report = polar_repair(shifted)
        delta, _ = unit_defect(repaired)
        assert delta <= 1e-12
        assert_allclose(repaired.values, rho.values, atol=1e-12)
        assert report.passed

    def test_repair_rejects_defect_at_one(self):
        g = cyclic(2)
        psi = GroupMap(g, 1, np.array([[[1.0]], [[0.0]]], dtype=complex))
        with pytest.raises(NotRepairableError):
            polar_repair(psi)

    def test_mult_defect_bound_after_repair(self):
        g = cyclic(3)
        phi = perturb_unitary(regular_rep(g), 0.05, seed=9)
        contracted = GroupMap(g, phi.dim, phi.values * 0.97)
        repaired, report = polar_repair(contracted)
        eps_out, _ = mult_defect(repaired)
        assert eps_out <= report["mult"].bound + 1e-9


class TestKazhdanStep:
    def test_scalar_phase_oracle(self):
        psi, report = kazhdan_step(z2_phase())
        assert report["distance"].bound == pytest.approx(TWO_SIN_TENTH, abs=1e-12)  # eps
        assert psi.values[1, 0, 0] == pytest.approx(COS_TENTH, abs=1e-12)
        assert report["distance"].measured == pytest.approx(SIN_TENTH, abs=1e-12)
        assert report["sharp"].measured == pytest.approx(SIN_SQ_TENTH, abs=1e-12)
        assert report["sharp"].margin >= -1e-12
        assert report.passed

    def test_requires_unitary_input(self):
        with pytest.raises(PreconditionError, match="unitary"):
            kazhdan_step(random_map(cyclic(3), 2, seed=0))

    def test_refuses_an_oversized_gram_before_averaging(self, monkeypatch):
        monkeypatch.setattr(maps_module, "MAX_GRAM_DIM", 8)
        # a free ball has no Gram: the averaging refuses it, whatever its size
        ball = trivial_rep(free_ball(2, 2))
        with pytest.raises(UnsupportedDomainError) as averaged:
            stabilize_module.average_pd(ball)
        with pytest.raises(UnsupportedDomainError) as stepped:
            kazhdan_step(ball)
        assert str(stepped.value) == str(averaged.value)

        def no_average(phi):
            raise AssertionError("average_pd ran")

        monkeypatch.setattr(stabilize_module, "average_pd", no_average)
        phi = perturb_unitary(regular_rep(cyclic(4)), 0.03, seed=0)
        with pytest.raises(SizeLimitError) as gram:
            pd_min_eig(phi)
        with pytest.raises(SizeLimitError) as step:
            kazhdan_step(phi)
        assert str(step.value) == str(gram.value) == "Gram dimension 16 exceeds MAX_GRAM_DIM = 8"

    def test_perturbed_rep_contract(self):
        for seed in range(3):
            phi = perturb_unitary(regular_rep(dihedral(3)), 0.04, seed=seed)
            psi, report = kazhdan_step(phi)
            assert report.passed
            assert set(report) == {"unital", "pd", "distance", "sharp", "crude"}
            assert report["unital"].measured <= 1e-11
            assert report["pd"].margin >= -1e-9


class TestStabilize:
    def test_scalar_phase_total_distance(self):
        result, trace = stabilize(z2_phase())
        assert trace.converged
        assert trace.final_defect <= 1e-12
        assert trace.total_distance == pytest.approx(TWO_SIN_TWENTIETH, abs=1e-12)
        assert result.values[1, 0, 0] == pytest.approx(1.0, abs=1e-12)
        assert trace.iterations[0].epsilon_n == pytest.approx(TWO_SIN_TENTH, abs=1e-12)

    def test_exact_rep_converges_immediately(self):
        rho = regular_rep(cyclic(4))
        result, trace = stabilize(rho)
        assert trace.converged
        assert trace.iterations == []
        assert trace.total_distance == 0.0
        assert_allclose(result.values, rho.values, atol=0)

    def test_certified_distance_bound(self):
        for seed in range(4):
            phi = perturb_unitary(regular_rep(dihedral(4)), 0.02, seed=seed)
            eps0, _ = mult_defect(phi)
            assert eps0 <= CERTIFIED_EPSILON
            result, trace = stabilize(phi)
            assert trace.converged
            assert trace.total_distance <= 2 * eps0 + 1e-9
            delta, _ = unit_defect(result)
            assert delta <= 1e-12

    def test_quadratic_decay_of_defects(self):
        phi = perturb_unitary(regular_rep(cyclic(6)), 0.03, seed=2)
        _, trace = stabilize(phi)
        eps = [rec.epsilon_n for rec in trace.iterations]
        for a, b in zip(eps, eps[1:]):
            assert b <= 5 * a * a + 1e-12

    def test_theory_certificate_attached(self):
        phi = perturb_unitary(regular_rep(cyclic(4)), 0.02, seed=0)
        _, trace = stabilize(phi)
        assert trace.theory is not None
        assert trace.theory.kappa1 == 5.0
        assert trace.theory.p == 2.0

    def test_rejects_free_ball(self):
        with pytest.raises(UnsupportedDomainError):
            stabilize(trivial_rep(free_ball(2, 2)))

    def test_rejects_nonunitary(self):
        with pytest.raises(PreconditionError):
            stabilize(random_map(cyclic(3), 2, seed=1))

    def test_rejects_bad_controls(self):
        phi = z2_phase()
        with pytest.raises(ValueError):
            stabilize(phi, tol=0.0)
        with pytest.raises(ValueError):
            stabilize(phi, max_iter=0)

    def test_certified_nonconvergence_returns_trace(self):
        # judging the run is the CLI's (diverged_certified); stabilize only computes
        phi = perturb_unitary(regular_rep(cyclic(4)), 0.02, seed=0)
        eps0, _ = mult_defect(phi)
        assert 0 < eps0 <= CERTIFIED_EPSILON
        for max_iter in (1, 2):
            last, trace = stabilize(phi, max_iter=max_iter)
            assert trace.converged is False and trace.rounds == max_iter
            assert trace.final_defect == mult_defect(last)[0]
            # an unmeasured run takes the exact defect after the last round allowed
            lean_last, lean = stabilize(phi, max_iter=max_iter, measure=False)
            assert np.array_equal(lean_last.values, last.values)
            assert not lean.converged and lean.rounds == max_iter
            assert lean.final_defect == trace.final_defect

    def test_uncertified_nonconvergence_reports_quietly(self):
        # seed picked so the starting defect sits just above the certified cut
        phi = perturb_unitary(regular_rep(cyclic(4)), 0.05, seed=1)
        eps0, _ = mult_defect(phi)
        assert eps0 > CERTIFIED_EPSILON
        _, trace = stabilize(phi, max_iter=1)
        assert trace.converged is False

    @pytest.mark.parametrize("measure", [True, False], ids=["measured", "unmeasured"])
    def test_each_round_is_one_average_and_one_scan(self, monkeypatch, measure):
        calls = Counter()

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for name in ("mult_defect", "unit_defect", "distance", "average_pd", "kazhdan_step",
                     "polar_repair"):
            counted(stabilize_module, name)
        # the scans maps._defect_bound falls back to, and the Gram kazhdan_step checks
        for name in ("mult_defect", "unit_defect", "pd_min_eig"):
            counted(maps_module, name)
        phi = perturb_unitary(regular_rep(dihedral(4)), 0.03, seed=0)
        _, trace = stabilize_module.stabilize(phi, measure=measure)
        rounds = trace.rounds
        assert rounds >= 2 and trace.converged
        assert len(trace.iterations) == rounds
        assert calls["average_pd"] == rounds
        assert calls["pd_min_eig"] == calls["kazhdan_step"] == calls["polar_repair"] == 0
        if measure:  # each round's epsilon, delta and step, then the total distance
            assert calls["mult_defect"] == rounds + 1
            assert calls["unit_defect"] == rounds
            assert calls["distance"] == rounds + 1
        else:  # epsilon_0, the closing defect and the total distance
            assert calls["mult_defect"] == 2
            assert calls["unit_defect"] == 0
            assert calls["distance"] == 1
            assert [rec.delta_n for rec in trace.iterations] == [None] * rounds
            assert trace.iterations[0].epsilon_n == trace.epsilon_0

    @pytest.mark.parametrize("group", [cyclic(6), dihedral(4), symmetric(3)], ids=lambda g: g.label)
    def test_loop_equals_certified_replay(self, group):
        for seed in range(3):
            phi = perturb_unitary(regular_rep(group), 0.03, seed=seed)
            result, trace = stabilize(phi)
            current, records = phi, []
            eps, _ = mult_defect(phi)
            while eps >= 1e-12:  # the default tol of stabilize
                averaged, step = kazhdan_step(current)
                repaired, repair = polar_repair(averaged)
                assert step.passed and repair.passed, (seed, len(records))
                records.append(
                    stabilize_module.IterationRecord(
                        eps, step["sharp"].measured, distance(current, repaired)
                    )
                )
                current = repaired
                eps, _ = mult_defect(current)
            assert np.array_equal(result.values, current.values)
            assert trace.iterations == records
            assert trace.epsilon_0 == mult_defect(phi)[0]
            assert trace.total_distance == distance(phi, current)
            # the certified decisions of an unmeasured run take the same steps
            lean_result, lean = stabilize(phi, measure=False)
            assert np.array_equal(lean_result.values, result.values)
            assert (lean.epsilon_0, lean.final_defect, lean.rounds, lean.total_distance) == (
                trace.epsilon_0, trace.final_defect, trace.rounds, trace.total_distance
            )

    def test_a_failing_witness_falls_back_to_the_exact_scan(self, monkeypatch):
        # Every scan names the identity pair, whose residual is at most rounding
        # once the map is unital: the witness never certifies, so every round
        # scans, and the unmeasured run still takes the measured run's steps.
        phi = perturb_unitary(regular_rep(dihedral(4)), 0.03, seed=0)
        result, trace = stabilize(phi)
        e, calls = phi.domain.identity, Counter()
        scan = stabilize_module.mult_defect

        def identity_pair(psi):
            calls["mult_defect"] += 1
            return scan(psi)[0], (e, e)

        monkeypatch.setattr(stabilize_module, "mult_defect", identity_pair)
        lean_result, lean = stabilize(phi, measure=False)
        assert trace.rounds >= 2 and calls["mult_defect"] == trace.rounds + 1
        assert np.array_equal(lean_result.values, result.values)
        assert (lean.epsilon_0, lean.final_defect, lean.rounds, lean.total_distance) == (
            trace.epsilon_0, trace.final_defect, trace.rounds, trace.total_distance
        )

    @pytest.mark.parametrize("group", [cyclic(6), dihedral(4), symmetric(3)], ids=lambda g: g.label)
    def test_unmeasured_rounds_make_no_full_pair_pass(self, monkeypatch, group):
        passes = []
        largest = maps_module._largest_residual

        def counted(phi, which):
            passes.append(which)
            return largest(phi, which)

        monkeypatch.setattr(maps_module, "_largest_residual", counted)
        _, trace = stabilize(perturb_unitary(regular_rep(group), 0.03, seed=0), measure=False)
        assert trace.rounds >= 2 and trace.converged
        assert "unit" in passes and "mult" not in passes  # the precondition's pass only


def witness_residual(phi, pair):
    """The residual ``phi(x)phi(y) - phi(xy)`` of one pair, as a one-matrix stack."""
    x, y = pair
    return maps_module._pair_defects(phi, np.array([x * phi.domain.order + y]))


@settings(max_examples=80, deadline=None)
@given(
    group=st.sampled_from([cyclic(2), cyclic(5), dihedral(3), dihedral(4)]),
    kind=st.sampled_from(["phase", "phase_regular", "perturbed"]),
    angle=st.floats(1e-9, 0.5),
    seed=st.integers(0, 2**16),
    rel=st.floats(-2e-6, 1e-6),
    drawn=st.none() | st.integers(0, 2**16),
)
def test_mult_certificate_never_claims_a_defect_below_tol(group, kind, angle, seed, rel, drawn):
    # tol lies within 1e-6 relative of the witness pair's exact defect, on
    # either side, and reaches past the certificate's own slack of 1e-6.  The
    # witness is the scan's pair, as in the loop, or a drawn one.  A phase,
    # and a phase times the regular representation, have pair defects that
    # are a scalar times a unitary, whose Frobenius norm is sqrt(d) times the
    # operator norm: there the certificate is tight.
    phases = np.exp(1j * angle * np.arange(group.order) ** 2 * (seed % 7 + 1))[:, None, None]
    if kind == "phase":
        phi = GroupMap(group, 1, phases)
    elif kind == "phase_regular":
        rho = regular_rep(group)
        phi = GroupMap(group, rho.dim, phases * rho.values)
    else:
        phi = perturb_unitary(regular_rep(group), angle, seed=seed)
    exact, pair = mult_defect(phi)
    if drawn is not None:
        pair = divmod(drawn % group.order**2, group.order)
    witness = linalg.singular_values(witness_residual(phi, pair))[0, 0]
    assume(witness > 0)
    tol = witness * (1.0 + rel)
    if stabilize_module._witness_at_least(phi, pair, tol):
        assert exact >= tol
        assert witness >= tol


def test_mult_certificate_refuses_nonfinite_norms():
    # The product at (1, 1) overflows: to inf, and with a complex value to
    # inf - inf = NaN in its real part.
    for big, norm in ((1e200, np.inf), (1e200 + 1e200j, np.nan)):
        phi = GroupMap(cyclic(2), 1, np.array([[[1.0]], [[big]]], dtype=complex))
        with np.errstate(over="ignore", invalid="ignore"):
            assert not np.isfinite(mult_defect(phi)[0])
            np.testing.assert_equal(np.linalg.norm(witness_residual(phi, (1, 1))), norm)
            assert not stabilize_module._witness_at_least(phi, (1, 1), 1.0)


class TestDixmier:
    def test_hand_example_flips_exactly(self):
        g = cyclic(2)
        psi = GroupMap(
            g, 2, np.array([np.eye(2), [[0.0, 2.0], [0.5, 0.0]]], dtype=complex)
        )
        pi, report = dixmier_unitarize(psi)
        assert_allclose(pi.values[1], [[0, 1], [1, 0]], atol=1e-12)
        assert report.certificate["distance"].measured == pytest.approx(1.0, abs=1e-12)
        assert report.certificate["distance"].bound == pytest.approx(6.0, abs=1e-12)
        assert report.passed

    def test_twisted_rep_recovers_unitary(self):
        rho = regular_rep(dihedral(3))
        for seed in range(3):
            psi, cond = similarity_twist(rho, bound=2.0, seed=seed)
            assert cond <= 2.0 + 1e-9
            pi, report = dixmier_unitarize(psi)
            delta, _ = unit_defect(pi)
            assert delta <= 1e-9
            eps, _ = mult_defect(pi)
            assert eps <= 1e-9
            assert report.passed

    def test_requires_multiplicative_input(self):
        with pytest.raises(PreconditionError):
            dixmier_unitarize(random_map(cyclic(3), 2, seed=0))

    def test_requires_invertible_values(self):
        g = cyclic(2)
        values = np.array([np.eye(2), np.diag([1.0, 0.0])], dtype=complex)
        with pytest.raises(PreconditionError):
            dixmier_unitarize(GroupMap(g, 2, values))
