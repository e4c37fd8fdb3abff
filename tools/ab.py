"""Same-session A/B timing of two commits of this repository.

    python tools/ab.py --base REV [--head REV] (--workload W | --cli "ARGS") --pairs N

Both commits are checked out with ``git worktree add`` into a temporary
directory (local git only) and removed afterwards.  The two trees run one
after the other, and which one goes first alternates from pair to pair, so a
drift of the host's speed falls on both sides alike.

``--workload W`` runs each tree's own ``bench/run.py --workload W`` unchanged,
with the pair's index as its ``--seed``, and reads the end-to-end metrics it
writes (rescaled by its speed probe) and the raw ones of its ``info``.
``--cli`` runs ``python -m ulamlab.cli ARGS`` in each tree, which must print
its report on stdout, and reads ``timings.run_ms`` and the sha256 of the
report with its timings dropped.  BLAS runs on one thread in every run.

The result goes to ``BENCH_<name>.json`` at the root of the repository: both
commit ids (and the ids of their ``src`` trees), the environment, each pair's
values, and per metric the medians and interquartile ranges of both sides and
the number of pairs the head wins.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
# raw (unrescaled) values bench/run.py records in its info, and the metric each mirrors
RAW = {"raw_items_per_s": "items_per_s", "raw_item_p50_ms": "item_p50_ms"}


def git(*args: str, cwd: Path = ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "blas_threads": BLAS,
    }


def run_workload(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    subprocess.run(cmd, cwd=tree, env={**os.environ, **BLAS}, check=True, capture_output=True)
    record = json.loads((tree / "bench" / "out" / f"{workload}-seed{seed}-trace0.json").read_text())
    values = {name: m["value"] for name, m in record["result"]["metrics"].items()}
    values.update({raw: record["info"][raw] for raw in RAW if raw in record["info"]})
    values["fail_frac"] = record["info"]["fail_frac"]
    return values


def run_cli(tree: Path, args: list[str]) -> dict:
    env = {**os.environ, **BLAS, "PYTHONPATH": str(tree / "src")}
    proc = subprocess.run([sys.executable, "-m", "ulamlab.cli", *args], cwd=tree, env=env, capture_output=True, text=True)
    report = json.loads(proc.stdout)
    run_ms = report.pop("timings")["run_ms"]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    return {"run_ms": run_ms, "exit_code": proc.returncode, "report_sha256": digest}


def better(head: float, base: float, direction: str) -> bool:
    return head > base if direction == "higher" else head < base


def directions(tree: Path, measured: list[str]) -> dict[str, str]:
    """Which way each measured metric improves, from the head's BENCHMARK.json."""
    declared = {m["name"]: m["better"] for m in json.loads((tree / "BENCHMARK.json").read_text())["end_to_end"]}
    declared.update({raw: declared[name] for raw, name in RAW.items() if name in declared})
    declared["run_ms"] = "lower"
    return {name: declared[name] for name in measured if name in declared}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "iqr": q3 - q1}


def summarize(pairs: list[dict], ways: dict[str, str]) -> dict:
    out = {}
    for name, way in ways.items():
        base = [p["base"][name] for p in pairs]
        head = [p["head"][name] for p in pairs]
        out[name] = {
            "better": way,
            "base": quartiles(base),
            "head": quartiles(head),
            "head_wins": sum(better(h, b, way) for h, b in zip(head, base)),
            "pairs": len(pairs),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="the commit to compare against")
    parser.add_argument("--head", default="HEAD", help="the commit measured (default HEAD)")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", help="a workload of BENCHMARK.json, run by each tree's bench/run.py")
    what.add_argument("--cli", help='arguments of one CLI call, e.g. "verify --seeds 0..89"')
    parser.add_argument("--pairs", type=int, default=10, help="base/head pairs to run")
    parser.add_argument("--seconds", type=float, default=20.0, help="bench/run.py --seconds of a workload run")
    parser.add_argument("--name", help="BENCH_<name>.json (default: the workload, or 'cli')")
    args = parser.parse_args(argv)
    name = args.name or args.workload or "cli"
    commits = {side: git("rev-parse", "--verify", f"{rev}^{{commit}}") for side, rev in (("base", args.base), ("head", args.head))}
    pairs: list[dict] = []
    with tempfile.TemporaryDirectory(prefix="ulamlab-ab-") as tmp:
        trees = {side: Path(tmp) / side for side in commits}
        try:
            for side, commit in commits.items():
                git("worktree", "add", "--detach", str(trees[side]), commit)
            for i in range(args.pairs):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                pair: dict = {"index": i, "first": order[0]}
                for side in order:
                    if args.workload:
                        pair[side] = run_workload(trees[side], args.workload, i, args.seconds)
                    else:
                        pair[side] = run_cli(trees[side], shlex.split(args.cli))
                pairs.append(pair)
                print(json.dumps(pair), file=sys.stderr)
            ways = directions(trees["head"], list(pairs[0]["head"]))
        finally:
            for tree in trees.values():
                if tree.exists():
                    git("worktree", "remove", "--force", str(tree))
            git("worktree", "prune")
    result = {
        "name": name,
        "command": {"workload": args.workload} if args.workload else {"cli": args.cli},
        "seconds": args.seconds if args.workload else None,
        "base": {"commit": commits["base"], "src_tree": git("rev-parse", f"{commits['base']}:src")},
        "head": {"commit": commits["head"], "src_tree": git("rev-parse", f"{commits['head']}:src")},
        "environment": environment(),
        "pairs": pairs,
        "summary": summarize(pairs, ways),
    }
    if args.cli:
        digests = {p[side]["report_sha256"] for p in pairs for side in commits}
        result["reports_equal"] = len(digests) == 1
    path = ROOT / f"BENCH_{name}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(f"wrote {path.name}")
    for metric, row in result["summary"].items():
        print(f"  {metric:18s} base {row['base']['median']:.6g} (IQR {row['base']['iqr']:.3g})"
              f"  head {row['head']['median']:.6g} (IQR {row['head']['iqr']:.3g})"
              f"  head wins {row['head_wins']}/{row['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
