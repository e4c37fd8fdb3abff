import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import ulamlab
from ulamlab.cli import (
    EXIT_DIVERGED,
    EXIT_FAIL,
    EXIT_PRECONDITION,
    ExperimentConfig,
    Report,
    jsonify,
    main,
)


@pytest.fixture
def runner():
    return CliRunner()


def invoke_json(runner, args, env=None):
    result = runner.invoke(main, args, env=env)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def strip_timings(payload):
    out = dict(payload)
    out.pop("timings")
    return out


class TestReportShape:
    def test_gen_report_structure(self, runner):
        data = invoke_json(runner, ["gen", "--group", "cyclic:3", "--seeds", "0..1"])
        assert data["schema_version"].startswith("ulamlab-report/")
        assert data["pass"] is True
        assert data["config"]["command"] == "gen"
        assert len(data["results"]["records"]) == 2
        first = data["results"]["records"][0]
        assert first["map"]["group"] == "cyclic:3"
        assert "epsilon" in first["defects"]

    def test_defects_includes_gram_minimum_for_small_maps(self, runner):
        data = invoke_json(runner, ["defects", "--group", "cyclic:2", "--seeds", "0"])
        record = data["results"]["records"][0]
        assert "pd_min_eig" in record

    def test_stabilize_report_runs_and_iterations(self, runner):
        data = invoke_json(
            runner, ["stabilize", "--group", "cyclic:4", "--theta", "0.02", "--seeds", "0..1"]
        )
        runs = data["results"]["summary"]["runs"]
        assert len(runs) == 2
        assert all(run["converged"] for run in runs)
        assert all(run["certified"] for run in runs)
        records = data["results"]["records"]
        assert records and all(r["record"] == "iteration" for r in records)

    def test_verify_report_lists_all_suites(self, runner):
        data = invoke_json(runner, ["verify", "--seeds", "0"])
        names = [r["name"] for r in data["results"]["records"]]
        assert len(names) == 9
        assert data["pass"] is True

    def test_sweep_covers_grid(self, runner):
        data = invoke_json(
            runner,
            ["sweep", "--group", "cyclic:3", "--theta", "0.01,0.03", "--seeds", "0..2",
             "--workers", "2"],
        )
        rows = data["results"]["records"]
        assert len(rows) == 6
        assert sorted({row["theta"] for row in rows}) == [0.01, 0.03]

    def test_dixmier_report_passes(self, runner):
        data = invoke_json(runner, ["dixmier", "--group", "cyclic:3", "--seeds", "0..1"])
        assert data["pass"] is True
        for record in data["results"]["records"]:
            assert record["report"]["passed"] is True


class TestDeterminism:
    def test_identical_runs_agree_except_timings(self, runner):
        args = ["gen", "--group", "dihedral:3", "--theta", "0.04", "--seeds", "3..5"]
        a = invoke_json(runner, args)
        b = invoke_json(runner, args)
        assert a["timings"] != {} and b["timings"] != {}
        assert strip_timings(a) == strip_timings(b)

    def test_seed_salt_changes_results_not_structure(self, runner):
        args = ["gen", "--group", "cyclic:3", "--seeds", "1"]
        plain = invoke_json(runner, args)
        salted = invoke_json(runner, args, env={"ULAMLAB_SEED_SALT": "99"})
        assert salted["config"]["salted"] is True
        assert plain["config"]["salted"] is False
        assert plain["results"] != salted["results"]
        assert plain["results"]["records"][0].keys() == salted["results"]["records"][0].keys()

    def test_salt_zero_still_salts(self, runner):
        args = ["gen", "--group", "cyclic:3", "--seeds", "1"]
        plain = invoke_json(runner, args)
        salted = invoke_json(runner, args, env={"ULAMLAB_SEED_SALT": "0"})
        assert plain["results"] != salted["results"]

    def test_workers_do_not_change_results(self, runner):
        base = ["sweep", "--group", "cyclic:3", "--theta", "0.02,0.04", "--seeds", "0..3"]
        serial = invoke_json(runner, base + ["--workers", "1"])
        threaded = invoke_json(runner, base + ["--workers", "4"])
        assert serial["results"] == threaded["results"]
        assert serial["pass"] == threaded["pass"]


class TestNdjson:
    def test_header_then_one_line_per_record(self, runner):
        result = runner.invoke(
            main, ["defects", "--group", "cyclic:3", "--seeds", "0..3", "--ndjson"]
        )
        assert result.exit_code == 0
        lines = result.output.strip().split("\n")
        assert len(lines) == 5
        header = json.loads(lines[0])
        assert "records" not in header["results"]
        for line in lines[1:]:
            assert json.loads(line)["seed"] in (0, 1, 2, 3)

    def test_out_writes_file_and_prints_status(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main, ["gen", "--group", "cyclic:2", "--seeds", "0", "--out", str(out)]
        )
        assert result.exit_code == 0
        assert "pass=true" in result.output
        payload = json.loads(out.read_text())
        assert payload["pass"] is True


class TestExitCodes:
    def test_config_errors_exit_two(self, runner, tmp_path):
        empty_table, list_table = tmp_path / "empty.json", tmp_path / "list.json"
        empty_table.write_text("{}")
        list_table.write_text("[[0]]")
        cases = [
            ["gen", "--group", "wat:3"],
            ["gen", "--seeds", "5..2"],
            ["gen", "--seeds", "abc"],
            ["gen", "--theta", "-0.5"],
            ["gen", "--norm", "spectral"],
            ["gen", "--genspec", '{"kind": "wat"}'],
            ["stabilize", "--tol", "0"],
            ["stabilize", "--max-iter", "0"],
            ["gen", "--group", "dihedral:3", "--genspec", '{"kind":"character","k":1}'],
            ["gen", "--genspec", '{"kind":"regular","group":"cyclic:300"}'],
            ["verify", "--theta", "nan", "--seeds", "0"],
            ["stabilize", "--tol", "inf", "--group", "cyclic:3"],
            ["stabilize", "--tol", "nan"],
            ["verify", "--genspec", '{"kind":"twisted","bound":NaN}'],
            ["dixmier", "--group", "cyclic:3", "--genspec", '{"kind":"twisted","bound":NaN}'],
            ["gen", "--group", f"table:{empty_table}"],
            ["gen", "--group", f"table:{list_table}"],
        ]
        for args in cases:
            result = runner.invoke(main, args)
            assert result.exit_code == 2, (args, result.output)

    def test_gram_size_limit_exits_two(self, runner, monkeypatch):
        monkeypatch.setattr("ulamlab.maps.MAX_GRAM_DIM", 8)
        for args in (["defects", "--group", "cyclic:4"], ["verify", "--seeds", "0"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, (args, result.output)
            assert "configuration error: Gram dimension" in result.output
            assert "MAX_GRAM_DIM = 8" in result.output

    def test_stabilize_builds_no_gram(self, runner, monkeypatch):
        args = ["stabilize", "--group", "cyclic:4"]
        unlimited = invoke_json(runner, args)
        monkeypatch.setattr("ulamlab.maps.MAX_GRAM_DIM", 8)
        assert strip_timings(invoke_json(runner, args)) == strip_timings(unlimited)

    def test_out_into_missing_directory_exits_two(self, runner, tmp_path):
        out = tmp_path / "missing" / "report.json"
        result = runner.invoke(main, ["gen", "--group", "cyclic:2", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("configuration error: output directory")
        assert "Traceback" not in result.output
        assert not out.parent.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_exits_two(self, runner):
        result = runner.invoke(main, ["gen", "--group", "cyclic:2", "--out", "/dev/full"])
        assert result.exit_code == 2, result.output
        assert result.output.startswith("configuration error:")
        assert "Traceback" not in result.output

    def test_bad_salt_exits_two(self, runner):
        result = runner.invoke(
            main, ["gen", "--group", "cyclic:2"], env={"ULAMLAB_SEED_SALT": "soup"}
        )
        assert result.exit_code == 2

    def test_precondition_exits_three(self, runner):
        result = runner.invoke(
            main,
            ["stabilize", "--group", "freeball:2:2", "--genspec", '{"kind": "trivial"}'],
        )
        assert result.exit_code == EXIT_PRECONDITION
        assert "precondition" in result.output

    def test_certified_divergence_exits_four(self, runner):
        result = runner.invoke(
            main,
            ["stabilize", "--group", "cyclic:4", "--theta", "0.02", "--seeds", "0",
             "--max-iter", "1"],
        )
        assert result.exit_code == EXIT_DIVERGED
        payload = json.loads(result.output)
        assert payload["pass"] is False
        run = payload["results"]["summary"]["runs"][0]
        assert run["certified"] is True
        assert run["converged"] is False

    def test_failed_bound_exits_one(self, runner, monkeypatch):
        import ulamlab.cli as cli_mod

        def failing(config):
            return Report(config, {"note": "forced"}, [], passed=False)

        monkeypatch.setitem(cli_mod._COMMANDS, "gen", failing)
        result = runner.invoke(main, ["gen", "--group", "cyclic:2"])
        assert result.exit_code == EXIT_FAIL


def test_module_entry_point_runs():
    src = str(Path(ulamlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "ulamlab.cli", "gen", "--group", "cyclic:2"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["schema_version"].startswith("ulamlab-report/")


class TestHelpers:
    def test_jsonify_complex_and_nonfinite(self):
        assert jsonify(1 + 2j) == [1.0, 2.0]
        assert jsonify(float("-inf")) == "-inf"
        assert jsonify({"a": (1, 2.5)}) == {"a": [1, 2.5]}

    def test_config_round_trip_excludes_salt_value(self):
        config = ExperimentConfig(command="gen", salt=123)
        data = config.to_dict()
        assert data["salted"] is True
        assert "salt" not in data

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(command="gen", tol=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(command="gen", seeds=())
        with pytest.raises(ValueError):
            ExperimentConfig(command="gen", workers=0)

    def test_effective_seeds_salting(self):
        plain = ExperimentConfig(command="gen", seeds=(1, 2))
        salted = ExperimentConfig(command="gen", seeds=(1, 2), salt=7)
        assert plain.effective_seeds() == [1, 2]
        assert salted.effective_seeds() != [1, 2]
        assert salted.effective_seeds() == salted.effective_seeds()
