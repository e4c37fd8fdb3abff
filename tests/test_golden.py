"""The CLI's reports against the golden copies in ``tests/golden/``.

Re-record them with ``python tests/record_golden.py`` when a change moves
reported bits on purpose.
"""

import json

import pytest

from record_golden import COMMANDS, GOLDEN, PLATFORM, fingerprint, run_reports

# A reported float matches its golden value within 1e-9 + 1e-7 |golden|, the
# rule the benchmark's reference check also uses.
ABS_TOL = 1e-9
REL_TOL = 1e-7


@pytest.fixture(scope="module")
def reports():
    return run_reports()


def _golden(name: str) -> str:
    return (GOLDEN / f"{name}.json").read_text()


def _first_difference(got: str, want: str) -> str:
    for number, (a, b) in enumerate(zip(got.splitlines(), want.splitlines()), 1):
        if a != b:
            return f"line {number}: {a.strip()!r} != golden {b.strip()!r}"
    return "lengths differ"


def test_reports_are_byte_identical_on_the_recorded_platform(reports):
    recorded = json.loads(PLATFORM.read_text())
    here = fingerprint()
    if here != recorded:
        pytest.skip(f"platform {here} is not the recorded {recorded}; only the tolerance test compares")
    changed = {
        name: _first_difference(text, _golden(name))
        for name, text in reports.items()
        if text != _golden(name)
    }
    assert not changed, changed


def _mismatch(got, want, path: str) -> str | None:
    """Where ``got`` leaves ``want``: another structure, or a float out of tolerance."""
    if isinstance(want, float) and type(got) is float:
        return None if abs(got - want) <= ABS_TOL + REL_TOL * abs(want) else f"{path}: {got!r} != {want!r}"
    if type(got) is not type(want):
        return f"{path}: {type(got).__name__} != {type(want).__name__}"
    if isinstance(want, dict):
        if got.keys() != want.keys():
            return f"{path}: keys {sorted(got)} != {sorted(want)}"
        items = [(got[k], want[k], f"{path}.{k}") for k in want]
    elif isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: length {len(got)} != {len(want)}"
        items = [(g, w, f"{path}[{i}]") for i, (g, w) in enumerate(zip(got, want))]
    else:
        return None if got == want else f"{path}: {got!r} != {want!r}"
    return next((m for m in (_mismatch(*item) for item in items) if m), None)


def test_reports_match_within_tolerance(reports):
    assert reports.keys() == COMMANDS.keys()
    mismatches = {
        name: _mismatch(json.loads(text), json.loads(_golden(name)), name)
        for name, text in reports.items()
    }
    assert not any(mismatches.values()), {k: v for k, v in mismatches.items() if v}


def test_tolerance_rule_accepts_rounding_and_refuses_structure():
    assert _mismatch({"a": [1.0, "x"]}, {"a": [1.0 + 1e-12, "x"]}, "r") is None
    assert _mismatch({"a": [1.1, "x"]}, {"a": [1.0, "x"]}, "r") == "r.a[0]: 1.1 != 1.0"
    assert _mismatch({"a": [1, "x"]}, {"a": [1.0, "x"]}, "r") == "r.a[0]: int != float"
    assert _mismatch({"b": 1.0}, {"a": 1.0}, "r") == "r: keys ['b'] != ['a']"
    assert _mismatch([True], [False], "r") == "r[0]: True != False"
