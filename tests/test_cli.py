import json
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import ulamlab
from ulamlab import Bound, SuiteResult
from ulamlab.cli import (
    EXIT_CONFIG,
    EXIT_DIVERGED,
    EXIT_FAIL,
    EXIT_INTERNAL,
    EXIT_PRECONDITION,
    MAX_SEEDS,
    MAX_WORKERS,
    ExperimentConfig,
    Report,
    jsonify,
    main,
    run,
)
from ulamlab.executor import _parallel
from ulamlab.stabilize import IterationRecord


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

    def test_defects_leaves_out_gram_minimum_above_its_gate(self, runner, monkeypatch):
        args = ["defects", "--group", "cyclic:4"]  # order * dim = 16
        monkeypatch.setattr("ulamlab.cli.MAX_DEFECTS_GRAM", 16)
        assert "pd_min_eig" in invoke_json(runner, args)["results"]["records"][0]
        monkeypatch.setattr("ulamlab.cli.MAX_DEFECTS_GRAM", 15)
        assert "pd_min_eig" not in invoke_json(runner, args)["results"]["records"][0]

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
        # symmetric:4 at one worker splits its kernels across the cores; at two
        # workers on two cores they run serially.
        for base, workers in (
            (["sweep", "--group", "cyclic:3", "--theta", "0.02,0.04", "--seeds", "0..3"], "4"),
            (["verify", "--seeds", "0..8"], "4"),
            (["stabilize", "--group", "symmetric:4", "--seeds", "0..1"], "2"),
        ):
            serial = invoke_json(runner, base + ["--workers", "1"])
            threaded = invoke_json(runner, base + ["--workers", workers])
            assert serial["results"] == threaded["results"]
            assert serial["pass"] == threaded["pass"]

    def test_verify_ties_keep_the_smallest_seeds_bound_at_any_workers(self, runner, monkeypatch):
        def tie_suite(seeds):
            result = SuiteResult("tie", len(seeds))
            for seed in seeds:  # seeds 1..5 tie below seed 0, each with its own tol
                result.note("m", Bound(0.0, 1.0 if seed == 0 else 0.5, tol=seed / 100))
            return result

        table = {"tie": tie_suite}
        monkeypatch.setattr("ulamlab.cli.SUITES", table)
        monkeypatch.setattr("ulamlab.verify.SUITES", table)
        for workers in ("1", "3"):
            report = invoke_json(runner, ["verify", "--seeds", "0..5", "--workers", workers])
            assert report["results"]["records"][0]["tolerances"] == {"m": 0.01}, workers

    def test_blas_threads_do_not_change_results(self):
        # The threaded Gram eigvalsh of pd_min_eig moved the last bits of this
        # report before the CLI pinned BLAS to one thread.
        reports = [
            run_module(["verify", "--seeds", "2"], OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n)
            for n in ("1", "2")
        ]
        assert [proc.returncode for proc in reports] == [0, 0], reports[1].stderr
        payloads = [strip_timings(json.loads(proc.stdout)) for proc in reports]
        assert payloads[0] == payloads[1]

    def test_group_is_parsed_once_per_run(self, runner, monkeypatch, tmp_path):
        table = tmp_path / "cyclic6.json"
        table.write_text(json.dumps({"mul": ulamlab.cyclic(6).mul.tolist()}))
        calls = []
        real = ulamlab.groups.from_table

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr("ulamlab.groups.from_table", counting)
        invoke_json(runner, ["defects", "--group", f"table:{table}", "--seeds", "0..3"])
        assert len(calls) == 1  # the option check; the run reuses its domain

    def test_filtered_maxima_do_not_change_reports(self, runner, monkeypatch):
        # The reference path decomposes every matrix of every stack.
        cases = (
            ["stabilize", "--group", "symmetric:4", "--seeds", "0..1"],
            ["verify", "--seeds", "2"],
        )
        filtered = [strip_timings(invoke_json(runner, args)) for args in cases]
        monkeypatch.setattr("ulamlab.maps._MIN_FILTER_COUNT", 1 << 62)
        assert [strip_timings(invoke_json(runner, args)) for args in cases] == filtered


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
        missing = tmp_path / "missing.json"
        empty_table.write_text("{}")
        list_table.write_text("[[0]]")
        float_table, number_label = tmp_path / "float.json", tmp_path / "label.json"
        float_table.write_text('{"mul": [[0, 1.7], [1.2, 0]]}')
        number_label.write_text('{"label": 5, "mul": [[0, 1], [1, 0]]}')
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
            ["gen", "--theta", "nan", "--seeds", "0"],
            ["stabilize", "--tol", "inf", "--group", "cyclic:3"],
            ["stabilize", "--tol", "nan"],
            ["gen", "--genspec", '{"kind":"twisted","bound":NaN}'],
            ["dixmier", "--group", "cyclic:3", "--genspec", '{"kind":"twisted","bound":NaN}'],
            ["gen", "--group", f"table:{empty_table}"],
            ["gen", "--group", f"table:{list_table}"],
            ["defects", "--group", f"table:{float_table}"],
            ["defects", "--group", f"product:table:{number_label},cyclic:2"],
            ["gen", "--genspec", json.dumps({"kind": "regular", "group": f"table:{missing}"})],
        ]
        # a field of the wrong JSON type
        wrong_types = [
            {"kind": "perturbed", "theta": "0.1"},
            {"kind": "perturbed", "theta": None},
            {"kind": "twisted", "bound": "2"},
            {"kind": "compressed", "sub_dim": "2"},
            {"kind": "compressed", "sub_dim": 2.5},
            {"kind": "random_map", "sup": [1]},
            {"kind": "random_map", "dim": "3"},
            {"kind": "random_map", "dim": True},
            {"kind": "character", "k": "a"},
            {"kind": "character", "k": None},
            {"kind": "character", "k": 1.5},
            {"kind": "direct_sum", "parts": 5},
            {"kind": ["regular"]},
            {"kind": {}},
            {"kind": None},
        ]
        cases += [["gen", "--group", "cyclic:4", "--genspec", json.dumps(spec)] for spec in wrong_types]
        cases.append(["gen", "--genspec", '{"kind":"regular","group":5}'])
        for args in cases:
            result = runner.invoke(main, args)
            assert result.exit_code == 2, (args, result.output)
        # a field the kind does not read, named in the message
        unread = [
            ({"kind": "trivial", "base": {"kind": "regular"}}, "base"),
            ({"kind": "regular", "theta": 0.5}, "theta"),
            ({"kind": "direct_sum", "parts": [{"kind": "regular"}], "seed": 3}, "seed"),
        ]
        for spec, name in unread:
            args = ["gen", "--group", "cyclic:3", "--genspec", json.dumps(spec)]
            result = runner.invoke(main, args)
            assert result.exit_code == 2, (spec, result.output)
            assert f"does not read ['{name}']" in result.output, result.output

    def test_direct_sum_over_two_groups_exits_two(self, runner):
        parts = [{"kind": "regular"}, {"kind": "regular", "group": "dihedral:3"}]
        genspec = json.dumps({"kind": "direct_sum", "parts": parts})
        result = runner.invoke(main, ["gen", "--group", "cyclic:6", "--genspec", genspec])
        assert result.exit_code == 2, result.output
        assert "direct summands must share a domain" in result.output

    def test_sweep_of_a_recipe_theta_cannot_reach_exits_two(self, runner, monkeypatch):
        monkeypatch.setattr("ulamlab.cli.run", no_work)
        for genspec in ('{"kind":"conjugated"}', '{"kind":"regular"}'):
            args = ["sweep", "--group", "cyclic:3", "--genspec", genspec, "--seeds", "0..1"]
            result = runner.invoke(main, args)
            assert result.exit_code == 2, (args, result.output)
            assert "--genspec" in result.output

    def test_gram_size_limit_exits_two(self, runner, monkeypatch):
        monkeypatch.setattr("ulamlab.maps.MAX_GRAM_DIM", 8)
        for args in (["defects", "--group", "cyclic:4"], ["verify", "--seeds", "0"]):
            result = runner.invoke(main, args)
            assert result.exit_code == 2, (args, result.output)
            assert "configuration error: Gram dimension" in result.output
            assert "MAX_GRAM_DIM = 8" in result.output

    def test_worker_limit_exits_two_before_any_thread(self, runner, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr("ulamlab.executor.ThreadPoolExecutor", no_pool)
        monkeypatch.setattr("ulamlab.cli.run", no_pool)
        args = ["verify", "--seeds", "0..99999", "--workers", str(MAX_WORKERS + 1)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        assert f"MAX_WORKERS = {MAX_WORKERS}" in result.output
        with pytest.raises(ValueError, match="MAX_WORKERS"):
            ExperimentConfig(command="gen", workers=MAX_WORKERS + 1)
        assert ExperimentConfig(command="gen", workers=MAX_WORKERS).workers == MAX_WORKERS

    def test_oversized_sweep_grid_exits_two_before_any_row(self, runner, monkeypatch):
        # every (theta, seed) pair is a row; their count obeys the seed bound
        monkeypatch.setattr("ulamlab.cli.run", no_work)
        args = ["sweep", "--theta", "0.01,0.02", "--seeds", f"0..{MAX_SEEDS - 1}"]
        start = time.perf_counter()
        result = runner.invoke(main, args)
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2, result.output
        assert f"MAX_SEEDS = {MAX_SEEDS}" in result.stderr
        assert "Traceback" not in result.output
        half = tuple(range(MAX_SEEDS // 2))
        with pytest.raises(ValueError, match="MAX_SEEDS"):
            ExperimentConfig(command="sweep", theta=(0.01, 0.02), seeds=half + (-1,))
        assert len(ExperimentConfig(command="sweep", theta=(0.01, 0.02), seeds=half).seeds) == len(half)

    def test_theta_list_outside_sweep_exits_two(self, runner):
        for command in ("gen", "defects", "stabilize", "dixmier", "verify"):
            args = [command, "--theta", "0.01,0.05", "--seeds", "0"]
            result = runner.invoke(main, args)
            assert result.exit_code == 2, (args, result.output)
            if "--theta" in READS[command]:
                assert "only sweep takes a theta list" in result.output
            else:
                assert "No such option '--theta'" in result.output
        with pytest.raises(ValueError, match="only sweep"):
            ExperimentConfig(command="stabilize", theta=(0.01, 0.05))
        assert ExperimentConfig(command="sweep", theta=(0.01, 0.05)).theta == (0.01, 0.05)

    def test_oversized_random_map_exits_two_before_drawing(self, runner):
        genspec = json.dumps({"kind": "random_map", "dim": 65})
        start = time.perf_counter()
        result = runner.invoke(main, ["gen", "--group", "cyclic:4096", "--genspec", genspec])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2, result.output
        assert "MAX_REGULAR_ORDER**3 = 16777216" in result.stderr
        assert "Traceback" not in result.output

    def test_oversized_direct_sum_exits_two_before_stacking(self, runner):
        parts = [{"kind": "regular"}] * 3  # 128 * 384**2 entries, a 302 MB stack
        genspec = json.dumps({"kind": "direct_sum", "parts": parts})
        result = runner.invoke(main, ["gen", "--group", "cyclic:128", "--genspec", genspec])
        assert result.exit_code == 2, result.output
        assert "MAX_REGULAR_ORDER**3 = 16777216" in result.stderr
        assert "Traceback" not in result.output

    def test_table_order_limit_exits_two(self, runner, monkeypatch, tmp_path):
        table = tmp_path / "cyclic6.json"
        table.write_text(json.dumps({"mul": ulamlab.cyclic(6).mul.tolist()}))
        monkeypatch.setattr("ulamlab.groups.MAX_TABLE_ORDER", 4)
        result = runner.invoke(main, ["gen", "--group", f"table:{table}"])
        assert result.exit_code == 2, result.output
        assert "MAX_TABLE_ORDER = 4" in result.output

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
        assert run["diverged_certified"] is True
        assert run["ok"] is False

    def test_sweep_row_verdict_inside_and_outside_the_certified_regime(self, runner):
        # at seed 1, theta 0.02 starts certified and theta 0.05 (eps0 0.104) does not
        result = runner.invoke(
            main,
            ["sweep", "--group", "cyclic:4", "--theta", "0.02,0.05", "--seeds", "1",
             "--max-iter", "1"],
        )
        assert result.exit_code == EXIT_DIVERGED
        rows = json.loads(result.output)["results"]["records"]
        verdicts = [(r["theta"], r["certified"], r["diverged_certified"], r["ok"]) for r in rows]
        assert verdicts == [(0.02, True, True, False), (0.05, False, False, True)]
        assert rows[1]["epsilon_0"] == pytest.approx(0.104, abs=5e-4)

    def test_failed_bound_exits_one(self, runner, monkeypatch):
        import ulamlab.cli as cli_mod

        def failing(config, domains):
            return Report(config, {"note": "forced"}, [], passed=False)

        monkeypatch.setitem(cli_mod._CLI, "gen", (failing, *cli_mod._CLI["gen"][1:]))
        result = runner.invoke(main, ["gen", "--group", "cyclic:2"])
        assert result.exit_code == EXIT_FAIL

    def test_unexpected_error_exits_five(self, runner, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("forced fault")

        monkeypatch.setattr("ulamlab.cli.stabilize", broken)
        result = runner.invoke(main, ["stabilize", "--group", "cyclic:3"])
        assert result.exit_code == EXIT_INTERNAL
        assert result.stdout == ""
        assert result.stderr == "internal error: RuntimeError: forced fault\n"


# The options each command reads; click refuses every other flag.
READS = {
    "gen": {"--group", "--genspec", "--theta", "--norm", "--seeds", "--out", "--ndjson"},
    "defects": {"--group", "--genspec", "--theta", "--norm", "--seeds", "--out", "--ndjson"},
    "stabilize": {"--group", "--genspec", "--theta", "--tol", "--max-iter", "--seeds",
                  "--workers", "--out", "--ndjson"},
    "sweep": {"--group", "--genspec", "--theta", "--tol", "--max-iter", "--seeds",
              "--workers", "--out", "--ndjson"},
    "dixmier": {"--group", "--genspec", "--seeds", "--out", "--ndjson"},
    "verify": {"--seeds", "--workers", "--out", "--ndjson"},
}
FLAG_ARGS = {
    "--group": ["cyclic:3"],
    "--genspec": ['{"kind":"regular"}'],
    "--theta": ["0.1"],
    "--tol": ["1e-9"],
    "--max-iter": ["5"],
    "--norm": ["operator"],
    "--seeds": ["0"],
    "--workers": ["2"],
    "--out": ["report.json"],
    "--ndjson": [],
}
UNREAD = [(command, flag) for command in READS for flag in FLAG_ARGS if flag not in READS[command]]


def no_work(*args, **kwargs):
    raise AssertionError("work started")


class TestOptionTable:
    def test_table_accepts_forty_one_pairs(self):
        assert sum(map(len, READS.values())) == 41
        assert len(UNREAD) == 19

    @pytest.mark.parametrize("command", sorted(READS))
    def test_help_lists_exactly_the_options_read(self, runner, command):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0, result.output
        listed = set(re.findall(r"^  (--[\w-]+)", result.output, re.M))
        assert listed == READS[command] | {"--help"}

    @pytest.mark.parametrize("command,flag", UNREAD)
    def test_unread_flag_exits_two_before_any_work(self, runner, monkeypatch, command, flag):
        monkeypatch.setattr("ulamlab.cli.run", no_work)
        monkeypatch.setattr("ulamlab.cli.parse_group_spec", no_work)
        result = runner.invoke(main, [command, flag, *FLAG_ARGS[flag]])
        assert result.exit_code == 2, result.output
        assert f"No such option '{flag}'" in result.output

    def test_flags_a_genspec_overrides_exit_two(self, runner, monkeypatch):
        monkeypatch.setattr("ulamlab.cli.run", no_work)
        perturbed = '{"kind":"perturbed","theta":0.02}'
        cases = [
            (["gen", "--group", "cyclic:3", "--genspec", perturbed, "--theta", "0.01"], "--theta"),
            (["stabilize", "--genspec", perturbed, "--theta", "0.05"], "--theta"),
            (["sweep", "--genspec", '{"kind":"conjugated"}', "--theta", "0.01,0.05"], "--theta"),
            (["gen", "--group", "cyclic:5", "--genspec", '{"kind":"regular","group":"cyclic:3"}'],
             "--group"),
            (["dixmier", "--group", "cyclic:2", "--genspec", '{"kind":"twisted","group":"cyclic:3"}'],
             "--group"),
        ]
        for args, flag in cases:
            result = runner.invoke(main, args)
            assert result.exit_code == 2, (args, result.output)
            assert flag in result.output, (args, result.output)

    def test_flags_a_genspec_reads_are_kept(self, runner):
        perturbed = '{"kind":"perturbed","base":{"kind":"regular"},"theta":0.02}'
        args = ["sweep", "--group", "cyclic:3", "--genspec", perturbed, "--theta", "0.01,0.05"]
        rows = invoke_json(runner, args)["results"]["records"]
        assert rows[0]["epsilon_0"] != rows[1]["epsilon_0"]
        data = invoke_json(runner, ["gen", "--genspec", '{"kind":"regular","group":"cyclic:3"}'])
        assert data["results"]["records"][0]["group"] == "cyclic:3"
        invoke_json(runner, ["gen", "--group", "cyclic:3", "--genspec", perturbed])

    def test_readme_cli_lines_parse(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        lines = [line for line in readme.read_text().splitlines() if line.startswith("ulamlab ")]
        assert len(lines) >= len(READS)
        for line in lines:
            _, command, *args = shlex.split(line)
            main.commands[command].make_context(command, args)


def run_module(args, stdout=subprocess.PIPE, **env):
    """``python -m ulamlab.cli`` with ``args`` in a fresh interpreter."""
    src = str(Path(ulamlab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "ulamlab.cli", *args],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONPATH": path, **env},
        timeout=120,
    )


def test_module_entry_point_runs():
    proc = run_module(["gen", "--group", "cyclic:2"])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["schema_version"].startswith("ulamlab-report/")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "args",
    [["verify", "--seeds", "0..3"], ["gen", "--group", "cyclic:3", "--out", "{tmp}/r.json"]],
    ids=["report", "status-line"],
)
def test_failed_stdout_write_exits_two(args, tmp_path):
    # CliRunner's stdout never fails a write; a fresh interpreter's can
    with open("/dev/full", "w") as full:
        proc = run_module([a.format(tmp=tmp_path) for a in args], stdout=full)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("configuration error:"), proc.stderr


class TestRowDriver:
    @pytest.mark.parametrize("workers", [1, 3])
    def test_parallel_keeps_order_and_takes_few_jobs_ahead(self, workers):
        taken = []

        def jobs():
            for i in range(40):
                taken.append(i)
                yield partial(abs, -i)

        for i, result in enumerate(_parallel(jobs(), 40, workers)):
            assert result == i
            assert len(taken) <= i + 1 + 2 * workers

    def test_parallel_raises_the_first_failure_in_input_order(self):
        def job(i):
            time.sleep(0.02 if i == 3 else 0.0)  # the later failure finishes first
            if i in (3, 5):
                raise ValueError(f"job {i}")
            return i

        with pytest.raises(ValueError, match="job 3"):
            list(_parallel((partial(job, i) for i in range(8)), 8, 4))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_verify_fold_memory_does_not_grow_with_seeds(self, monkeypatch, workers):
        def one_seed(name, seeds):
            result = SuiteResult(name, len(seeds))
            for key in range(8):
                result.note(f"{name}_{key}", Bound(float(seeds[0] % 7), 10.0, tol=1e-9))
            return result

        monkeypatch.setattr("ulamlab.cli.run_suite", one_seed)
        peaks = {}
        for n in (100, 1000):
            config = ExperimentConfig(command="verify", seeds=tuple(range(n)), workers=workers)
            tracemalloc.start()
            report = run(config)
            peaks[n] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert report.summary["seed_count"] == n
            assert [r["trials"] for r in report.records] == [n] * len(report.records)
        # a kept one-seed result per (suite, seed) would add about 9 KB a seed;
        # the run's own list of seeds adds 8 bytes
        assert peaks[1000] - peaks[100] < 64 * 900, peaks


class TestSweepJobs:
    """A sweep runs one job per seed over its whole theta grid."""

    @pytest.fixture
    def base_checks(self, monkeypatch):
        """The labels of the perturbation bases whose unit precondition runs."""
        checks = []
        real = ulamlab.maps._require_defect

        def require(phi, which, tol, what):
            if what.startswith("perturbation base"):
                checks.append(phi.label)
            return real(phi, which, tol, what)

        monkeypatch.setattr("ulamlab.maps._require_defect", require)
        return checks

    def test_sweep_draws_and_checks_each_base_once_per_seed(
        self, runner, monkeypatch, base_checks
    ):
        draws = []
        real_rng = ulamlab.generators._rng

        def rng(seed, label):
            if label == "perturb":
                draws.append(seed)
            return real_rng(seed, label)

        monkeypatch.setattr("ulamlab.generators._rng", rng)
        args = ["sweep", "--group", "cyclic:4", "--theta", "0.01,0.02,0.03", "--seeds", "0..1"]
        rows = invoke_json(runner, args)["results"]["records"]
        assert [(r["theta"], r["seed"]) for r in rows] == [
            (theta, seed) for theta in (0.01, 0.02, 0.03) for seed in (0, 1)
        ]
        assert draws == [0, 1]
        assert base_checks == ["regular[cyclic:4]"] * 2

    def test_a_seed_failing_its_first_row_ends_the_sweep(self, runner, base_checks):
        # no later seed's row comes before it in theta-major order
        base = {"kind": "compressed", "sub_dim": 2}  # not unitary-valued
        genspec = json.dumps({"kind": "perturbed", "base": base})
        args = ["sweep", "--group", "cyclic:3", "--genspec", genspec, "--theta", "0.01,0.02",
                "--seeds", "0..9"]
        result = runner.invoke(main, args)
        assert result.exit_code == EXIT_PRECONDITION, result.output
        assert "perturbation base must be unitary-valued" in result.stderr
        assert len(base_checks) == 1

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_first_failure_in_theta_major_order_decides(self, runner, monkeypatch, workers):
        # Seed 0's job fails at its second grid point and seed 1's at its
        # first; theta-major, (0.02, seed 1) comes before (0.04, seed 0).
        rep = ulamlab.regular_rep(ulamlab.cyclic(3))
        failures = {
            (0.04, 0): ulamlab.PreconditionError("late row"),
            (0.02, 1): ulamlab.SizeLimitError("early row"),
        }
        values = {key: ulamlab.perturb_unitary(rep, *key).values for key in failures}
        real = ulamlab.cli.stabilize

        def failing(phi, **kwargs):
            for key, err in failures.items():
                if np.array_equal(phi.values, values[key]):
                    raise err
            return real(phi, **kwargs)

        monkeypatch.setattr("ulamlab.cli.stabilize", failing)
        args = ["sweep", "--group", "cyclic:3", "--theta", "0.02,0.04", "--seeds", "0..1"]
        result = runner.invoke(main, args + ["--workers", workers])
        assert result.exit_code == EXIT_CONFIG, result.output
        assert result.stdout == ""
        assert result.stderr == "configuration error: early row\n"

    def test_sweep_memory_does_not_grow_with_its_grid(self):
        # A seed's job holds its base and directions for the grid, one row's
        # map at a time; a map of cyclic:24 is 24**3 * 16 bytes.
        peaks = {}
        for points in (1, 8):
            config = ExperimentConfig(command="sweep", group="cyclic:24", theta=(0.02,) * points)
            tracemalloc.start()
            run(config)
            peaks[points] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
        assert peaks[8] - peaks[1] < 24**3 * 16 // 4, peaks


class TestErrorOrder:
    """Every command raises the first error in point-major order (by point,
    then seed), and a seed's job ends at its first error."""

    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_verify_raises_the_first_suites_error(self, runner, monkeypatch, workers):
        # The second suite fails at seed 0 and the first at seed 2; point-major,
        # (first suite, seed 2) comes before (second suite, seed 0).
        ran = []

        def suite(name, failing_seed, err):
            def run_seeds(seeds):
                ran.append((name, seeds[0]))
                if seeds[0] == failing_seed:
                    raise err
                return SuiteResult(name, len(seeds))

            return run_seeds

        table = {
            "first": suite("first", 2, ulamlab.PreconditionError("first suite, seed 2")),
            "second": suite("second", 0, ulamlab.SizeLimitError("second suite, seed 0")),
        }
        monkeypatch.setattr("ulamlab.cli.SUITES", table)
        monkeypatch.setattr("ulamlab.verify.SUITES", table)
        result = runner.invoke(main, ["verify", "--seeds", "0..3", "--workers", workers])
        assert result.exit_code == EXIT_PRECONDITION, result.output
        assert result.stdout == ""
        assert result.stderr == "precondition error: first suite, seed 2\n"
        assert ("first", 2) in ran and ("second", 2) not in ran

    @pytest.mark.parametrize("workers", ["1", "3"])
    def test_stabilize_raises_the_first_failing_seeds_error(self, runner, monkeypatch, workers):
        # seed 1 fails last, so a later seed's error is the first to arrive
        rep = ulamlab.regular_rep(ulamlab.cyclic(3))
        failures = {1: ulamlab.PreconditionError("seed 1"), 3: ulamlab.SizeLimitError("seed 3")}
        values = {seed: ulamlab.perturb_unitary(rep, 0.03, seed).values for seed in failures}
        real = ulamlab.cli.stabilize

        def failing(phi, **kwargs):
            for seed, err in failures.items():
                if np.array_equal(phi.values, values[seed]):
                    time.sleep(0.05 if seed == 1 else 0.0)
                    raise err
            return real(phi, **kwargs)

        monkeypatch.setattr("ulamlab.cli.stabilize", failing)
        args = ["stabilize", "--group", "cyclic:3", "--theta", "0.03", "--seeds", "0..3"]
        result = runner.invoke(main, args + ["--workers", workers])
        assert result.exit_code == EXIT_PRECONDITION, result.output
        assert result.stdout == ""
        assert result.stderr == "precondition error: seed 1\n"


class TestHelpers:
    def test_jsonify_nonfinite_and_tuples(self):
        assert jsonify(float("-inf")) == "-inf"
        assert jsonify({"a": (1, 2.5)}) == {"a": [1, 2.5]}

    def test_jsonify_dataclass_by_fields(self):
        record = IterationRecord(epsilon_n=0.5, delta_n=float("inf"), step_distance=0.25)
        assert jsonify(record) == {"epsilon_n": 0.5, "delta_n": "inf", "step_distance": 0.25}

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
