"""Check the benchmark itself at toy size, in about a minute.

    python3 bench/selfcheck.py

- BENCHMARK.json names the workloads and metrics that run.py and spans.py emit.
- Every workload emits every end-to-end metric with its unit, with no failure.
- Two traced runs emit every per-layer metric, and their counts repeat exactly.
- A deliberately wrong reference value shows up as a failed item.
- Without the sources beside it, run.py exits non-zero and prints no result.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import run
import spans

TOY_SECONDS = 0.5
# Per-layer metrics that count work rather than time it; they must repeat exactly.
COUNT_UNITS = ("count", "bytes")
COUNT_RATIOS = ("stabilize.useful_scan_ratio",)


class SelfCheckError(AssertionError):
    pass


def require(condition: bool, message) -> None:
    if not condition:
        raise SelfCheckError(message)


def bench_run(*args: str, cwd=run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, check=False)


def last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise SelfCheckError(f"exit code {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_spec() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    require([w["name"] for w in spec["workloads"]] == list(run.WORKLOADS), "workload names")
    require([(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END, "end_to_end")
    require([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER, "per_layer")


def check_metrics(result: dict, expected: list[tuple[str, str]], what: str) -> None:
    got = [(name, m["unit"]) for name, m in result["metrics"].items()]
    require(sorted(got) == sorted(expected), f"{what}: metrics {got}")
    require(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, f"{what}: {result}")


def check_workloads() -> None:
    per_layer = [(name, unit) for name, unit, _ in spans.PER_LAYER]
    for name in run.WORKLOADS:
        common = ("--workload", name, "--seed", "0", "--seconds", str(TOY_SECONDS))
        check_metrics(last_json(bench_run(*common, "--trace", "0")), run.END_TO_END, f"{name} end-to-end")
        first = last_json(bench_run(*common, "--trace", "1"))
        second = last_json(bench_run(*common, "--trace", "1"))
        check_metrics(first, per_layer, f"{name} traced")
        for metric, unit in per_layer:
            if unit in COUNT_UNITS or metric in COUNT_RATIOS:
                a, b = first["metrics"][metric]["value"], second["metrics"][metric]["value"]
                require(a == b, f"{name}: {metric} differs between traced runs: {a} != {b}")
        print(f"ok {name}")


def check_wrong_reference() -> None:
    run.pin_environment()
    main = run.load_cli()
    reference = json.loads(run.REFERENCE_PATH.read_text())
    workload = run.WORKLOADS["stabilize-s4"]
    key = next(workload.rounds(0, reference))[0].items[0]
    wrong = copy.deepcopy(reference)
    wrong["stabilize"][key]["iterations"] += 1
    outcome = run.run_end_to_end(main, workload, 0, TOY_SECONDS, wrong, {"dense": run.SpeedProbe("dense", 1)})
    require(outcome["failed"] >= 1 and outcome["info"]["fail_frac"] > 0, outcome["info"])
    require(any(f.startswith(f"{key}:") for f in outcome["info"]["failures"]), outcome["info"])
    print(f"ok wrong reference for item {key}: fail_frac {outcome['info']['fail_frac']:.3f}")


def check_bare_checkout() -> None:
    bare = run.OUT_DIR / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH_DIR, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    proc = bench_run("--workload", "stabilize-s4", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    require(proc.returncode != 0, "run.py succeeded without the sources")
    require('"metrics"' not in proc.stdout, "run.py printed a result without the sources")
    print(f"ok bare checkout: exit code {proc.returncode}")


def main() -> int:
    check_spec()
    check_bare_checkout()
    check_wrong_reference()
    check_workloads()
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
