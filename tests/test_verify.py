import json
import math
import sys
from collections import Counter

import numpy as np
import pytest

import ulamlab
from ulamlab import SUITES, Bound, Certificate, SuiteResult, run_suite
from ulamlab.generators import perturb_unitary, regular_rep
from ulamlab.groups import parse_group_spec
from ulamlab.stabilize import stabilize
from ulamlab.cli import ExperimentConfig, run
from ulamlab.verify import (
    POOL_SPECS,
    SMALL_POOL_SPECS,
    averaging_suite,
    condition_b_suite,
    dixmier_contract_suite,
    kazhdan_contract_suite,
    polar_repair_suite,
    perturbation_bounds_suite,
    square_inequality_suite,
    stinespring_inequality_suite,
    unital_equivalence_suite,
)

from oracles import run_all_suites

SEEDS = list(range(6))


@pytest.mark.parametrize("name", sorted(SUITES))
def test_each_suite_passes_on_small_seed_range(name):
    result = run_suite(name, SEEDS)
    assert result.passed, result.notes
    assert result.trials > 0
    assert result.name == name


def test_run_suite_rejects_unknown_name():
    with pytest.raises(KeyError):
        run_suite("nonsense", SEEDS)


def test_per_seed_results_merge_to_the_serial_run():
    # the one-seed jobs `verify` runs for each suite, merged in seed order
    serial = run_suite("square_inequality", SEEDS)
    merged = SuiteResult.merge([run_suite("square_inequality", [seed]) for seed in SEEDS])
    assert serial.trials == merged.trials
    assert serial.notes.keys() == merged.notes.keys()
    for key in serial.notes:
        assert serial.notes[key] == pytest.approx(merged.notes[key], abs=0)
    assert serial.to_dict() == merged.to_dict()


def test_merge_takes_worst_margin_and_sums_trials():
    a = SuiteResult("demo", trials=2, bounds=Certificate(m=Bound(0.0, 0.5)))
    b = SuiteResult("demo", trials=3, bounds=Certificate(m=Bound(0.0, -0.2)))
    merged = SuiteResult.merge([a, b])
    assert merged.trials == 5
    assert merged.notes["m"] == -0.2
    assert not merged.passed


def test_note_keeps_the_first_bound_of_smallest_margin():
    result = SuiteResult("demo", trials=1)
    first = Bound(0.0, 0.25, tol=1e-10)
    result.note("m", Bound(0.0, 0.5))
    result.note("m", first)
    result.note("m", Bound(0.0, 0.25, tol=1.0))  # a tie keeps the bound kept so far
    assert result.bounds["m"] is first
    assert result.to_dict()["tolerances"] == {"m": 1e-10}
    result.note("n", Bound(0.0, float("nan")))
    result.note("n", Bound(0.0, -1.0))  # nothing is below NaN
    assert result.notes["n"] != result.notes["n"]
    assert not result.passed


@pytest.mark.parametrize("nan_first", [True, False], ids=["nan-first", "nan-last"])
def test_a_nan_margin_ranks_worst_in_either_order(nan_first):
    margins = [0.5, 0.25, float("nan")]
    if nan_first:
        margins.reverse()
    noted = SuiteResult("demo", trials=len(margins))
    for margin in margins:
        noted.note("m", Bound(0.0, margin))
    merged = SuiteResult.merge(
        [SuiteResult("demo", 1, Certificate(m=Bound(0.0, margin))) for margin in margins]
    )
    for result in (noted, merged):
        assert math.isnan(result.notes["m"])
        assert result.passed is False


def test_suite_result_to_dict_carries_margins():
    result = square_inequality_suite(SEEDS[:2])
    data = result.to_dict()
    assert data["name"] == "square_inequality"
    assert data["passed"] is True
    assert set(data["notes"]) == set(data["tolerances"])


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_note_carries_its_tolerance(name):
    data = run_suite(name, [0, 1]).to_dict()
    assert data["notes"]
    assert set(data["notes"]) == set(data["tolerances"])


def test_run_all_suites_covers_registry():
    results = run_all_suites(SEEDS[:2])
    assert [r.name for r in results] == list(SUITES)
    assert all(r.passed for r in results)


def test_run_all_suites_accepts_subset():
    results = run_all_suites(SEEDS[:2], names=["condition_b"])
    assert [r.name for r in results] == ["condition_b"]


def test_averaging_suite_never_skips_on_unitary_corpus():
    result = averaging_suite(SEEDS[:4])
    assert result.notes["closeness_margin"] > -1e-10
    assert result.notes["norm_estimate_s1_margin"] > -1e-10
    assert result.notes["norm_estimate_s2_margin"] > -1e-10


def test_contract_suites_have_expected_margin_keys():
    assert "repair_distance_margin" in polar_repair_suite(SEEDS[:2]).notes
    assert "kazhdan_step_sharp_margin" in kazhdan_contract_suite(SEEDS[:2]).notes
    assert "dixmier_distance_margin" in dixmier_contract_suite(SEEDS[:2]).notes
    assert "stinespring_margin" in stinespring_inequality_suite(SEEDS[:2]).notes
    assert "square_margin" in square_inequality_suite(SEEDS[:2]).notes
    assert "unit_le_mult_margin" in unital_equivalence_suite(SEEDS[:2]).notes
    assert "perturbation_mult_margin" in perturbation_bounds_suite(SEEDS[:2]).notes
    assert "condition_b_pd_min_eig" in condition_b_suite(SEEDS[:2]).notes


def _count_kernels(monkeypatch) -> Counter:
    """Count the calls of the stack kernels, the averaging step and its Gram
    eigensolve, through every module binding of each, as the benchmark tracer
    patches them.

    ``_stack_norms`` and ``_op_argmax`` are keyed by the size of their stack.
    """
    calls = Counter()
    modules = [m for key, m in sys.modules.items() if key.startswith("ulamlab.")]
    counted_names = (
        (ulamlab.averaging, "condition_c_check"),
        (ulamlab.maps, "_stack_norms"),
        (ulamlab.maps, "_op_argmax"),
        (ulamlab.maps, "_op_bounds"),
        (ulamlab.maps, "pd_min_eig"),
        (sys.modules["ulamlab.stabilize"], "kazhdan_step"),  # ulamlab.stabilize is the function
    )
    for module, name in counted_names:
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            if _name in ("_stack_norms", "_op_argmax"):
                _name += f"[{args[0]}]"
            calls[_name] += 1
            return _original(*args, **kwargs)

        for target in modules:
            for attr, value in list(vars(target).items()):
                if value is original:
                    monkeypatch.setattr(target, attr, counted)
    return calls


def test_averaging_seed_decomposes_each_stack_once(monkeypatch):
    calls = _count_kernels(monkeypatch)
    result = averaging_suite([22])  # a seed that draws dihedral:4
    assert result.passed, result.notes
    # One full scan of the 64 pairs (the estimates read every defect) and one
    # filtered max over them (the mult defect of the averaging step); one
    # filtered unit defect over 16 sides (the averaged map's, which the sharp
    # bound reports), and one distance over 8 values, below the gate, that
    # decomposes every value.  The unit-defect preconditions of the
    # perturbation, the averaging step and the estimates are certified by
    # Frobenius norms and decompose nothing.  Of the 8 values, the estimates
    # also take the norms of phi - psi and condition_c_check those of its
    # residuals; the perturbation takes the norms of its 7 generators.  The
    # two filtered maxima decompose 1 and 0 survivors besides their tops.  The
    # suite takes one averaging step, through the name the tracer wraps, and
    # the step one Gram eigensolve.
    assert calls == {
        "condition_c_check": 1,
        "_stack_norms[64]": 1,
        "_stack_norms[8]": 3,
        "_stack_norms[7]": 1,
        "_stack_norms[1]": 1,
        "_stack_norms[0]": 1,
        "_op_argmax[64]": 1,
        "_op_argmax[16]": 1,
        "_op_argmax[8]": 1,
        "_op_bounds": 2,
        "pd_min_eig": 1,
        "kazhdan_step": 1,
    }


@pytest.mark.parametrize("seed", [2, 8])
def test_heavy_averaging_seed_is_the_same_at_every_budget(seed, monkeypatch):
    # At two kernel threads the 576 x 576 Gram eigensolve of the averaging
    # step runs on the spare core while the step's checks and the estimate
    # checks run; at one, after them on the same thread.
    grams = []
    pd_min_eig = ulamlab.maps.pd_min_eig

    def recorded(phi):
        grams.append(len(phi.values) * phi.dim)
        return pd_min_eig(phi)

    monkeypatch.setattr(ulamlab.maps, "pd_min_eig", recorded)
    rng = ulamlab.verify._suite_rng(seed, "averaging")
    assert POOL_SPECS[int(rng.integers(len(POOL_SPECS)))] == "symmetric:4"
    reports = []
    for budget in (1, 2):
        with ulamlab.executor._kernel_threads(budget):
            reports.append(json.dumps(averaging_suite([seed]).to_dict()))
    assert reports[0] == reports[1]
    assert grams == [576, 576]


def test_stabilize_seed_takes_operator_maxima_only_for_reported_values(monkeypatch):
    calls = _count_kernels(monkeypatch)
    _, trace = stabilize(perturb_unitary(regular_rep(parse_group_spec("dihedral:4")), 0.03, 0))
    rounds = len(trace.iterations)
    assert rounds >= 2 and trace.converged
    # Each round reports its epsilon_n, delta_n and step distance, and the run
    # its final defect and total distance: one mult defect over the 64 pairs
    # per epsilon, one unit defect per delta and one distance over 8 values
    # per distance.  A unit defect scans the sides of the elements its
    # snap's singular values leave as candidates: 2 and 1 of the 8 in the
    # first two rounds, all 8 (16 sides) in the last, whose unit defect is
    # rounding.  The unit-defect preconditions of the perturbation and of the
    # loop take none.
    maxima = {key: n for key, n in calls.items() if key.startswith("_op_argmax")}
    assert rounds == 3
    assert maxima == {
        "_op_argmax[64]": rounds + 1,
        "_op_argmax[4]": 1,
        "_op_argmax[2]": 1,
        "_op_argmax[16]": 1,
        "_op_argmax[8]": rounds + 1,
    }


def test_verify_builds_each_pool_base_once_and_leaves_it_unchanged(monkeypatch):
    built = Counter()
    real = ulamlab.verify.regular_rep
    monkeypatch.setattr(ulamlab.verify, "regular_rep", lambda g: built.update([g.label]) or real(g))
    ulamlab.verify.pool_regular.cache_clear()
    run(ExperimentConfig(command="verify", seeds=tuple(range(9))))
    assert built and max(built.values()) == 1
    drawn = set(built)
    for spec in sorted({*POOL_SPECS, *SMALL_POOL_SPECS}):
        base = ulamlab.verify.pool_regular(spec)
        fresh = real(parse_group_spec(spec))
        assert not base.values.flags.writeable
        assert base.values.tobytes() == fresh.values.tobytes(), spec
    # the suites drew these bases, each built once; asking again builds none of them
    assert all(built[label] == 1 for label in drawn)


def test_light_seed_forms_no_residual_of_a_permutation_representation(monkeypatch):
    formed = []
    real = ulamlab.maps._largest_residual

    def spied(phi, which):
        v = phi.values
        formed.append(bool(np.all((v == 0.0) | (v == 1.0))))
        return real(phi, which)

    monkeypatch.setattr(ulamlab.maps, "_largest_residual", spied)
    for name in SUITES:  # seed 0 draws no symmetric:4 averaging step
        assert run_suite(name, [0]).passed
    assert formed and not any(formed)
