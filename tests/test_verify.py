import sys
from collections import Counter

import pytest

import ulamlab
from ulamlab import SUITES, SuiteResult, run_all_suites, run_suite
from ulamlab.verify import (
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


def test_worker_chunking_merges_to_same_margins():
    serial = run_suite("square_inequality", SEEDS, workers=1)
    parallel = run_suite("square_inequality", SEEDS, workers=3)
    assert serial.trials == parallel.trials
    assert serial.notes.keys() == parallel.notes.keys()
    for key in serial.notes:
        assert serial.notes[key] == pytest.approx(parallel.notes[key], abs=0)


def test_merge_takes_worst_margin_and_sums_trials():
    a = SuiteResult("demo", trials=2, notes={"m": 0.5}, tolerances={"m": 0.0})
    b = SuiteResult("demo", trials=3, notes={"m": -0.2}, tolerances={"m": 0.0})
    merged = SuiteResult.merge([a, b])
    assert merged.trials == 5
    assert merged.notes["m"] == -0.2
    assert not merged.passed


def test_suite_result_to_dict_carries_margins():
    result = square_inequality_suite(SEEDS[:2])
    data = result.to_dict()
    assert data["name"] == "square_inequality"
    assert data["passed"] is True
    assert set(data["notes"]) == set(data["tolerances"])


@pytest.mark.parametrize("name", sorted(SUITES))
def test_every_note_carries_its_tolerance(name):
    result = run_suite(name, [0, 1])
    assert result.notes
    assert set(result.notes) == set(result.tolerances)


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


def test_averaging_seed_decomposes_each_stack_once(monkeypatch):
    # every module binding of the counted functions, as the benchmark tracer patches them
    calls = Counter()
    modules = [m for key, m in sys.modules.items() if key.startswith("ulamlab.")]
    for module, name in ((ulamlab.averaging, "condition_c_check"), (ulamlab.maps, "_pair_scan")):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for target in modules:
            for attr, value in list(vars(target).items()):
                if value is original:
                    monkeypatch.setattr(target, attr, counted)
    result = averaging_suite([0], group_specs=("dihedral:4",))
    assert result.passed, result.notes
    assert calls == {"condition_c_check": 1, "_pair_scan": 2}
