"""Benchmark of the ulamlab command line: four workloads through ``ulamlab.cli.main``.

One workload per run:

    python3 bench/run.py --workload stabilize-s4 --seed 0 --seconds 20 --trace 0

Every workload in turn, one child process each, with a summary table:

    python3 bench/run.py --seed 0 --seconds 20 --trace 0

Each run calls the CLI in-process, one invocation at a time (a closed loop with
one client and no think time), checks every report against
``bench/reference.json``, and prints as its last line one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones, with every timing rescaled by a speed probe
run around each call (``SpeedProbe``); with ``--trace 1`` a fixed list of
invocations runs once untraced and once traced, and the metrics are the
per-layer ones of ``bench/spans.py``.  The full result, with the environment
record, is written to ``bench/out/``.  README.md beside this file says why
each workload exists.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, count, islice
from pathlib import Path
from typing import Callable

from spans import PER_LAYER, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE_PATH = BENCH_DIR / "reference.json"

# BLAS runs one thread per process, so worker threads never exceed the cores.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
BLAS_THREADS = "1"
SETUP_SPAWNS = 9  # fresh interpreters timed per run; setup_s is their median
# The speed probe (SpeedProbe): its reference time per kind, about its median
# on the machine the benchmark was written on, the seed of its fixed inputs,
# and warm-up probes.  A change to any of these rescales every timing.
PROBE_REF_S = {"small": 0.010, "dense": 0.200, "einsum": 0.140}
PROBE_SEED = 2022
PROBE_WARMUP = 3
# A report-shaped document for the small probe to render.
DOC = {"runs": [{"seed": i, "theta": 0.01 * i, "ok": True, "defects": [1.0 / (i + 1)] * 8} for i in range(24)]}

# Item seeds with stored reference values.  A run's --seed picks where in
# each pool it starts, so every item of every run is checked.
STABILIZE_POOL = 48
SWEEP_POOL = 400
VERIFY_POOL = 90
SWEEP_GROUPS = ("cyclic:6", "dihedral:3", "dihedral:4", "product:cyclic:2,cyclic:2")
SWEEP_THETAS = "0.01,0.04,0.08"
W2_BATCH = 2  # maps per --workers 2 invocation, one per worker
W2_WORKERS = 2

# Reference floats may move by reordered summation, never by more than this.
FLOAT_ATOL = 1e-9
FLOAT_RTOL = 1e-7

END_TO_END = [
    ("items_per_s", "items/s"),
    ("item_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
]


@dataclass(frozen=True)
class Invocation:
    """One CLI call, the reference keys of the items it produces, and the kind
    of SpeedProbe whose work is like the call's."""

    args: tuple[str, ...]
    items: tuple[str, ...]
    probe: str


def stabilize_invocation(seed: int) -> Invocation:
    args = ("stabilize", "--group", "symmetric:4", "--theta", "0.03", "--seeds", str(seed))
    return Invocation(args, (str(seed),), "dense")


def sweep_invocation(seed: int) -> Invocation:
    group = SWEEP_GROUPS[seed % len(SWEEP_GROUPS)]
    args = ("sweep", "--group", group, "--theta", SWEEP_THETAS, "--seeds", str(seed))
    items = tuple(f"{seed}@{theta}" for theta in SWEEP_THETAS.split(","))
    return Invocation(args, items, "small")


def verify_invocation(seed: int, heavy: bool) -> Invocation:
    return Invocation(("verify", "--seeds", str(seed)), (str(seed),), "einsum" if heavy else "small")


def w2_invocation(first: int) -> Invocation:
    last = first + W2_BATCH - 1
    args = (
        "stabilize", "--group", "symmetric:4", "--theta", "0.03",
        "--seeds", f"{first}..{last}", "--workers", str(W2_WORKERS),
    )
    return Invocation(args, tuple(str(s) for s in range(first, last + 1)), "dense")


def stabilize_rounds(rng: random.Random, reference: dict):
    start = rng.randrange(STABILIZE_POOL)
    for i in count(start):
        yield [stabilize_invocation(i % STABILIZE_POOL)]


def w2_rounds(rng: random.Random, reference: dict):
    batches = STABILIZE_POOL // W2_BATCH
    start = rng.randrange(batches)
    for i in count(start):
        yield [w2_invocation((i % batches) * W2_BATCH)]


def sweep_rounds(rng: random.Random, reference: dict):
    """One seed of each group per round, always in the same group order."""
    rounds = SWEEP_POOL // len(SWEEP_GROUPS)
    start = rng.randrange(rounds)
    for r in count(start):
        base = (r % rounds) * len(SWEEP_GROUPS)
        yield [sweep_invocation(base + j) for j in range(len(SWEEP_GROUPS))]


def verify_rounds(rng: random.Random, reference: dict):
    """Every light seed once (the first one warms up), then one heavy seed.

    A heavy seed is one whose averaging suite draws symmetric:4; it takes
    4-5 s, a light seed 10-40 ms.  A round holds the whole light pool, so
    every run takes its median call over the same light seeds.
    """
    heavy = reference["verify_heavy_seeds"]
    light = sorted(set(map(int, reference["verify"])) - set(heavy))
    h0, l0 = rng.randrange(len(heavy)), rng.randrange(len(light))
    for r in count():
        yield ([verify_invocation(light[(l0 + j) % len(light)], False) for j in range(len(light))]
               + [verify_invocation(heavy[(h0 + r) % len(heavy)], True)])


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # section of reference.json: stabilize, sweep or verify
    workers: int
    nominal_round_s: float  # sizes the fixed invocation list of a traced run
    round_source: Callable

    def rounds(self, seed: int, reference: dict):
        """Endless rounds of invocations; a run always ends on a whole round."""
        return self.round_source(random.Random(f"{self.name}:{seed}"), reference)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stabilize-s4", "stabilize", 1, 1.75, stabilize_rounds),
        Workload("sweep-small", "sweep", 1, 0.2, sweep_rounds),
        Workload("verify-suites", "verify", 1, 6.0, verify_rounds),
        Workload("stabilize-s4-w2", "stabilize", W2_WORKERS, 1.9, w2_rounds),
    )
}


# --- environment -------------------------------------------------------------


def pin_environment() -> None:
    """Pin BLAS threads and drop the seed salt before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    os.environ.pop("ULAMLAB_SEED_SALT", None)


def load_cli():
    """Import ``ulamlab.cli.main`` from ``src/`` the way the tier-1 tests do."""
    if not (SRC / "ulamlab" / "cli.py").is_file():
        raise SystemExit(f"error: no ulamlab sources at {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    from ulamlab.cli import main

    return main


def environment_record() -> dict:
    import importlib.metadata

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "click": importlib.metadata.version("click"),
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": None,
        "git_dirty": None,
    }
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, check=False)
        if head.returncode == 0:
            record["git_commit"] = head.stdout.strip()
            record["git_dirty"] = bool(status.stdout.strip())
    return record


# --- machine speed -----------------------------------------------------------


class SpeedProbe:
    """Fixed numpy and interpreter work, timed around every CLI call.

    The host's speed drifts by 10-30% within seconds on identical work, and
    kernels of different sizes drift differently.  A probe does the kind of
    work a call spends its time in, on as many threads as the workload runs:
    ``small`` is batched 8x8 products and SVDs, a 96x96 eigensolve and a JSON
    dump; ``dense`` is 576 24x24 products and their SVDs and a 576x576 SVD, as
    in one pair scan and one Gram check of ``stabilize`` on symmetric:4;
    ``einsum`` is the three-operand contraction of ``condition_c_check`` at
    n = 24, d = 16, where a heavy ``verify`` seed spends most of its time.
    Each call names its kind.  ``rescale`` runs the probe after a call and
    rescales the wall time of the call by the probe's reference time over the
    mean of the probes on either side, so a timing reads as it would at the
    probe's reference speed.  The probe's inputs are fixed: it does the same
    work on every run and every commit.
    """

    def __init__(self, kind: str, threads: int) -> None:
        import numpy as np

        self._np = np
        self.ref_s = PROBE_REF_S[kind]
        rng = np.random.default_rng(PROBE_SEED)
        cplx = lambda *shape: rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        if kind == "small":
            herm = lambda m: m + m.conj().T
            self._args = [(cplx(48, 8, 8), herm(cplx(96, 96)), DOC) for _ in range(threads)]
            self._work = self._small
        elif kind == "dense":
            self._args = [(cplx(576, 24, 24), cplx(576, 576)) for _ in range(threads)]
            self._work = self._dense
        else:
            self._args = [(cplx(24, 16, 16), cplx(24, 24, 16, 16)) for _ in range(threads)]
            self._work = self._einsum
        self._pool = ThreadPoolExecutor(threads) if threads > 1 else None
        for _ in range(PROBE_WARMUP):
            self.refresh()
        self.raw: list[float] = []

    def _small(self, batch, herm, doc) -> None:
        np = self._np
        for _ in range(5):
            np.linalg.svd(batch @ batch.conj().transpose(0, 2, 1), compute_uv=False)
            np.linalg.eigvalsh(herm)
            json.dumps(doc, sort_keys=True, indent=2)

    def _dense(self, batch, square) -> None:
        np = self._np
        np.linalg.svd(batch @ batch - batch, compute_uv=False)
        np.linalg.svd(square, compute_uv=False)

    def _einsum(self, values, translated) -> None:
        self._np.einsum("xji,xyjk,ylk->xil", values, translated, values)

    def time(self) -> float:
        start = time.perf_counter()
        if self._pool is None:
            self._work(*self._args[0])
        else:
            list(self._pool.map(lambda args: self._work(*args), self._args))
        return time.perf_counter() - start

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)

    def refresh(self) -> None:
        """Probe right before a call that follows other work."""
        self.last = self.time()

    def rescale(self, wall: float) -> float:
        """Probe once more and rescale ``wall``, just measured, to the reference speed."""
        probe = self.time()
        factor = self.ref_s / ((self.last + probe) / 2)
        self.last = probe
        self.raw.append(probe)
        return wall * factor


def measure_setup_s() -> tuple[float, float]:
    """Median time for a fresh interpreter to import ``ulamlab.cli``: (rescaled, raw).

    The import is interpreter-bound on one thread, so the small probe rescales it.
    """
    probe = SpeedProbe("small", 1)
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import ulamlab.cli"
    subprocess.run([sys.executable, "-c", code], check=True)  # fills the bytecode cache
    probe.refresh()
    raw, times = [], []
    for _ in range(SETUP_SPAWNS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        raw.append(time.perf_counter() - start)
        times.append(probe.rescale(raw[-1]))
    return statistics.median(times), statistics.median(raw)


# --- one invocation ----------------------------------------------------------


def call_cli(main, inv: Invocation) -> tuple[float, object, str]:
    """Run one CLI call in-process: (wall seconds, exit code, stdout)."""
    out = io.StringIO()
    code: object = 0
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            main(list(inv.args))
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
        except Exception:  # a crash fails the invocation's items; the run goes on
            code = "exception"
            traceback.print_exc()
    return time.perf_counter() - start, code, out.getvalue()


def extract(kind: str, report: dict) -> dict[str, dict]:
    """The checked values of each item in a report, keyed as in reference.json."""
    passed = report["pass"]
    if kind == "verify":
        summary = report["results"]["summary"]
        seed = report["config"]["seeds"][0]
        suites = {r["name"]: r["passed"] for r in report["results"]["records"]}
        return {str(seed): {"pass": passed, "suites": suites, "worst": summary["worst"]}}
    rows = report["results"]["summary"]["runs"] if kind == "stabilize" else report["results"]["records"]
    out = {}
    for row in rows:
        key = str(row["seed"]) if kind == "stabilize" else f"{row['seed']}@{row['theta']}"
        out[key] = {
            "pass": passed,
            "ok": row["ok"],
            "iterations": row["iterations"],
            "converged": row["converged"],
            "certified": row["certified"],
            "epsilon_0": row["epsilon_0"],
            "final_defect": row["final_defect"],
            "total_distance": row["total_distance"],
        }
    return out


def matches(observed, expected) -> bool:
    """Exact for flags, counts and strings; floats within FLOAT_ATOL + FLOAT_RTOL."""
    if isinstance(expected, dict):
        return (isinstance(observed, dict) and observed.keys() == expected.keys()
                and all(matches(observed[k], expected[k]) for k in expected))
    if isinstance(expected, float) and not isinstance(observed, bool) and isinstance(observed, (int, float)):
        return abs(observed - expected) <= FLOAT_ATOL + FLOAT_RTOL * abs(expected)
    return type(observed) is type(expected) and observed == expected


def check(kind: str, inv: Invocation, code, text: str, expected: dict) -> list[str]:
    """Items of the invocation that failed, each with its reason."""
    if code != 0:
        return [f"{key}: exit code {code}" for key in inv.items]
    try:
        observed = extract(kind, json.loads(text))
    except (ValueError, KeyError, IndexError, TypeError) as err:
        return [f"{key}: unreadable report ({err!r})" for key in inv.items]
    failures = []
    for key in inv.items:
        if key not in expected:
            failures.append(f"{key}: no reference value")
        elif not matches(observed.get(key), expected[key]):
            failures.append(f"{key}: differs from reference: {observed.get(key)} != {expected[key]}")
    return failures


def report_digest(text: str, digest) -> None:
    """Fold a report, with its timings removed, into a running sha256."""
    report = json.loads(text)
    report.pop("timings", None)
    digest.update(json.dumps(report, sort_keys=True).encode())


# --- runs --------------------------------------------------------------------


def run_end_to_end(main, workload: Workload, seed: int, seconds: float, reference: dict,
                   probes: dict[str, SpeedProbe]) -> dict:
    expected = reference[workload.kind]
    rounds = workload.rounds(seed, reference)
    first = next(rounds)
    attempted, failures = 0, []
    # warm-up: caches and lazy imports are filled before timing
    _, code, text = call_cli(main, first[0])
    attempted += len(first[0].items)
    failures += check(workload.kind, first[0], code, text, expected)

    latencies, raw, rounds_done, items, kind = [], [], 0, 0, None
    deadline = time.perf_counter() + seconds
    for round_ in chain([first], rounds):
        for inv in round_:
            probe = probes[inv.probe]
            if inv.probe != kind:
                probe.refresh()
                kind = inv.probe
            wall, code, text = call_cli(main, inv)
            raw.append(wall)
            latencies.append(probe.rescale(wall))
            items += len(inv.items)
            failures += check(workload.kind, inv, code, text, expected)
        rounds_done += 1
        if time.perf_counter() >= deadline:
            break
    attempted += items
    metrics = {
        "items_per_s": items / sum(latencies),
        "item_p50_ms": statistics.median(latencies) * 1000.0,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    p90 = statistics.quantiles(latencies, n=10)[-1] if len(latencies) > 1 else latencies[0]
    info = {
        "latency_samples": len(latencies),
        # as measured, before rescaling to the probe's reference speed
        "raw_items_per_s": items / sum(raw),
        "raw_item_p50_ms": statistics.median(raw) * 1000.0,
        "probe_p50_ms": {k: statistics.median(p.raw) * 1000.0 for k, p in probes.items()},
        # printed, not gated: most workloads leave fewer than ten samples beyond it
        "item_p90_ms": p90 * 1000.0,
        "samples_beyond_p90": sum(1 for w in latencies if w > p90),
        "items_per_invocation": len(first[0].items),
        "timed_items": items,
        "rounds": rounds_done,
        "busy_s": sum(raw),
        "fail_frac": len(failures) / attempted,
        "failures": failures[:20],
    }
    return {"metrics": metrics, "attempted": attempted, "failed": len(failures), "info": info}


def run_traced(main, workload: Workload, seed: int, seconds: float, reference: dict) -> dict:
    expected = reference[workload.kind]
    # A fixed list, not a deadline, so call counts repeat exactly between runs.
    n_rounds = max(1, round(seconds / 2 / workload.nominal_round_s))
    invocations = [inv for r in islice(workload.rounds(seed, reference), n_rounds) for inv in r]
    call_cli(main, invocations[0])  # warm-up, as in the end-to-end run

    failures, digest, untraced = [], hashlib.sha256(), 0.0
    for inv in invocations:
        wall, code, text = call_cli(main, inv)
        untraced += wall
        failures += check(workload.kind, inv, code, text, expected)
        if code == 0:
            report_digest(text, digest)
    traced_wall = 0.0
    with Tracer() as tracer:
        for inv in invocations:
            tracer.item = ",".join(inv.items)
            with tracer.span("cli.main") as span:
                _, code, text = call_cli(main, inv)
            traced_wall += span.duration
            failures += check(workload.kind, inv, code, text, expected)
    attempted = 2 * sum(len(inv.items) for inv in invocations)
    metrics = tracer.per_layer(workload.workers, traced_wall - untraced)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.json"
    spans_path.write_text(json.dumps(tracer.dump(), separators=(",", ":")))
    info = {
        "invocations": len(invocations),
        "items": attempted // 2,
        "untraced_s": untraced,
        "traced_s": traced_wall,
        "report_sha256": digest.hexdigest(),
        "spans": len(tracer.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "fail_frac": len(failures) / attempted,
        "failures": failures[:20],
    }
    return {"metrics": metrics, "attempted": attempted, "failed": len(failures), "info": info}


def run_one(workload: Workload, seed: int, seconds: float, traced: bool, reference: dict) -> dict:
    """One workload in this process; returns the full result record."""
    main = load_cli()
    env = environment_record()
    if traced:
        outcome = run_traced(main, workload, seed, seconds, reference)
    else:
        setup_s, raw_setup_s = measure_setup_s()
        kinds = sorted({inv.probe for inv in next(workload.rounds(seed, reference))})
        probes = {kind: SpeedProbe(kind, workload.workers) for kind in kinds}
        try:
            outcome = run_end_to_end(main, workload, seed, seconds, reference, probes)
        finally:
            for probe in probes.values():
                probe.close()
        outcome["metrics"]["setup_s"] = setup_s
        outcome["info"]["raw_setup_s"] = raw_setup_s
    units = {name: unit for name, unit, _ in PER_LAYER} if traced else dict(END_TO_END)
    metrics = {name: {"value": outcome["metrics"][name], "unit": unit} for name, unit in units.items()}
    result = {
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": metrics,
    }
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "env": env,
        "info": outcome["info"],
        "result": result,
    }


def print_record(record: dict) -> None:
    info = record["info"]
    print(f"env {json.dumps(record['env'], sort_keys=True)}")
    print(f"info {json.dumps(info, sort_keys=True)}")
    print(f"{record['workload']} seed={record['seed']} trace={record['trace']} "
          f"attempted={record['result']['attempted']} failed={record['result']['failed']}")
    for name, value, unit in table_rows(record):
        print(f"  {name:42s} {value:>16.6g} {unit}")
    print(json.dumps(record["result"], sort_keys=True))


def table_rows(record: dict) -> list[tuple[str, float, str]]:
    """Every metric of a run, with fail_frac and, untraced, the ungated p90."""
    info = record["info"]
    rows = [("fail_frac", info["fail_frac"], "ratio")]
    rows += [(name, m["value"], m["unit"]) for name, m in record["result"]["metrics"].items()]
    if "item_p90_ms" in info:
        rows.append((f"item_p90_ms ({info['samples_beyond_p90']} of "
                     f"{info['latency_samples']} beyond)", info["item_p90_ms"], "ms"))
    return rows


def run_all(args) -> int:
    """Every workload in its own child process, then one summary table."""
    records, status = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=False,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit code {proc.returncode}")
            status = 1
            continue
        path = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        records[name] = json.loads(path.read_text())
    print(f"{'workload':18s} {'metric':42s} {'value':>14s} unit")
    for name, record in records.items():
        for metric, value, unit in table_rows(record):
            print(f"{name:18s} {metric:42s} {value:>14.6g} {unit}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"summary-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({n: r["result"] for n, r in records.items()}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    return status


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                        help="one workload; every workload when left out")
    parser.add_argument("--seed", type=int, default=0, help="workload seed")
    parser.add_argument("--seconds", type=float, default=20.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_environment()
    if args.workload is None:
        return run_all(args)
    reference = json.loads(REFERENCE_PATH.read_text())
    record = run_one(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), reference)
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
