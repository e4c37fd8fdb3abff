"""Command line interface: seeded experiments emitting deterministic JSON.

Every command echoes its configuration, runs a deterministic computation
driven by the seed range, and writes a report whose payload is byte-stable
for identical configurations (timings excluded).  Exit codes: 0 pass,
1 clean run with a failed bound, 2 configuration errors, 3 precondition or
domain errors, 4 divergence inside the certified regime.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import click
import numpy as np

from .linalg import NotPSDError, SingularInputError, parse_norm
from .groups import FiniteGroup, NotAGroupError, UnsupportedDomainError, parse_group_spec
from .maps import PreconditionError, SizeLimitError, defect_report, map_to_dict, pd_min_eig
from .generators import GenSpec, build_map, derive_seed, parse_genspec
from .stabilize import (
    CERTIFIED_EPSILON,
    DivergedError,
    NotRepairableError,
    dixmier_unitarize,
    stabilize,
)
from .verify import SUITES, run_all_suites

SCHEMA_VERSION = "ulamlab-report/2"
SEED_SALT_ENV = "ULAMLAB_SEED_SALT"
MAX_SEEDS = 100000
MAX_EMBEDDED_MAP = 65536  # entries; larger maps are left out of gen reports

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_DIVERGED = 4

_PRECONDITION_ERRORS = (
    PreconditionError,
    UnsupportedDomainError,
    NotRepairableError,
    SingularInputError,
    NotPSDError,
)


class ConfigError(ValueError):
    """A recipe its domain cannot build, or a missing output directory."""


@dataclass
class ExperimentConfig:
    command: str
    group: str = "cyclic:2"
    genspec: dict | None = None
    theta: tuple[float, ...] = (0.05,)
    tol: float = 1e-12
    max_iter: int = 50
    norm: str = "operator"
    seeds: tuple[int, ...] = (0,)
    workers: int = 1
    out: str | None = None
    ndjson: bool = False
    salt: int | None = None

    def __post_init__(self) -> None:
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max-iter must be >= 1, got {self.max_iter}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if not self.seeds:
            raise ValueError("seed range is empty")
        if not all(t >= 0 and math.isfinite(t) for t in self.theta):
            raise ValueError("theta values must be nonnegative and finite")

    def effective_seeds(self) -> list[int]:
        if self.salt is None:
            return list(self.seeds)
        return [derive_seed(s, f"salt:{self.salt}") for s in self.seeds]

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["theta"] = list(self.theta)
        out["seeds"] = list(self.seeds)
        out["salted"] = self.salt is not None
        del out["salt"]  # the salt itself stays out of reports
        return out


@dataclass
class Report:
    config: ExperimentConfig
    summary: dict
    records: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)
    passed: bool = True
    diverged_certified: bool = False

    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "config": self.config.to_dict(),
            "results": {"summary": jsonify(self.summary), "records": jsonify(self.records)},
            "timings": jsonify(self.timings),
            "pass": self.passed,
        }


def jsonify(obj):
    """Reduce to JSON-safe types: complex as [re, im], matrices row-major."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if hasattr(obj, "to_dict"):
        return jsonify(obj.to_dict())
    if isinstance(obj, np.ndarray):
        return jsonify(obj.tolist())
    if isinstance(obj, (complex, np.complexfloating)):
        return [float(obj.real), float(obj.imag)]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if value != value or value in (float("inf"), float("-inf")):
            return repr(value)
        return value
    return obj


def render_report(report: Report, ndjson: bool) -> str:
    payload = report.to_dict()
    if not ndjson:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    records = payload["results"].pop("records")
    compact = lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    lines = [compact(payload)] + [compact(r) for r in records]
    return "\n".join(lines) + "\n"


def _default_genspec(config: ExperimentConfig, theta: float) -> dict:
    if config.command == "dixmier":
        return {"kind": "twisted", "base": {"kind": "regular"}, "bound": 2.0, "seed": 0}
    return {"kind": "perturbed", "base": {"kind": "regular"}, "theta": theta, "seed": 0}


def _spec_for_seed(config: ExperimentConfig, seed: int, theta: float | None = None) -> GenSpec:
    data = dict(config.genspec or _default_genspec(config, theta if theta is not None else config.theta[0]))
    spec = GenSpec.from_dict(data)
    if theta is not None and spec.kind == "perturbed":
        spec = dataclasses.replace(spec, theta=theta)
    # The corpus seed replaces the top-level seed; nested bases keep theirs.
    return dataclasses.replace(spec, seed=seed)


def _resolve_domain(config: ExperimentConfig, spec: GenSpec):
    if spec.group is not None:
        return parse_group_spec(spec.group)
    return parse_group_spec(config.group)


def _build(config: ExperimentConfig, spec: GenSpec):
    """Build the seeded map; a ``ValueError`` that is no precondition error is a config error."""
    try:
        return build_map(spec, _resolve_domain(config, spec))
    except _PRECONDITION_ERRORS:
        raise
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _parallel(jobs, workers: int) -> list:
    if workers <= 1 or len(jobs) <= 1:
        return [job() for job in jobs]
    with ThreadPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
        futures = [pool.submit(job) for job in jobs]
        return [f.result() for f in futures]


def _cmd_gen(config: ExperimentConfig) -> Report:
    kind = parse_norm(config.norm)
    records = []
    for seed in config.effective_seeds():
        spec = _spec_for_seed(config, seed)
        phi = _build(config, spec)
        row = {
            "seed": seed,
            "genspec": spec.to_dict(),
            "group": phi.domain.label,
            "dim": phi.dim,
            "defects": defect_report(phi, kind),
        }
        if len(phi.values) * phi.dim * phi.dim <= MAX_EMBEDDED_MAP:
            row["map"] = map_to_dict(phi)
        records.append(row)
    passed = all(
        r["defects"].iso_delta <= r["defects"].delta + 1e-12 for r in records
    )
    return Report(config, {"maps": len(records)}, records, passed=passed)


def _cmd_defects(config: ExperimentConfig) -> Report:
    kind = parse_norm(config.norm)
    records = []
    for seed in config.effective_seeds():
        spec = _spec_for_seed(config, seed)
        phi = _build(config, spec)
        row = {
            "seed": seed,
            "group": phi.domain.label,
            "dim": phi.dim,
            "defects": defect_report(phi, kind),
        }
        if isinstance(phi.domain, FiniteGroup) and phi.domain.order * phi.dim <= 2048:
            row["pd_min_eig"] = pd_min_eig(phi)
        records.append(row)
    passed = all(
        r["defects"].iso_delta <= r["defects"].delta + 1e-12 for r in records
    )
    return Report(config, {"maps": len(records)}, records, passed=passed)


def _stabilize_one(config: ExperimentConfig, seed: int, theta: float | None = None) -> dict:
    spec = _spec_for_seed(config, seed, theta)
    phi = _build(config, spec)
    row: dict = {"seed": seed, "group": phi.domain.label, "dim": phi.dim}
    if theta is not None:
        row["theta"] = theta
    try:
        result, trace = stabilize(phi, tol=config.tol, max_iter=config.max_iter)
        diverged = False
    except DivergedError as err:
        trace = err.trace
        diverged = True
    eps0 = trace.iterations[0].epsilon_n if trace.iterations else trace.final_defect
    certified = eps0 <= CERTIFIED_EPSILON
    row.update(
        {
            "epsilon_0": eps0,
            "iterations": len(trace.iterations),
            "converged": trace.converged,
            "final_defect": trace.final_defect,
            "total_distance": trace.total_distance,
            "certified": certified,
            "diverged_certified": diverged and certified,
            "theory": trace.theory,
            "iteration_records": [
                {
                    "record": "iteration",
                    "seed": seed,
                    "iteration": i,
                    **rec.to_dict(),
                }
                for i, rec in enumerate(trace.iterations)
            ],
        }
    )
    if certified:
        row["distance_bound"] = 2.0 * eps0 + 1e-9
        row["distance_ok"] = trace.total_distance <= row["distance_bound"]
        row["ok"] = trace.converged and row["distance_ok"]
    else:
        row["ok"] = True  # outside the certified regime nothing is promised
    return row


def _cmd_stabilize(config: ExperimentConfig) -> Report:
    seeds = config.effective_seeds()
    rows = _parallel(
        [lambda s=s: _stabilize_one(config, s) for s in seeds], config.workers
    )
    records = [rec for row in rows for rec in row.pop("iteration_records")]
    diverged = any(row["diverged_certified"] for row in rows)
    passed = all(row["ok"] for row in rows) and not diverged
    summary = {
        "runs": rows,
        "converged_runs": sum(1 for r in rows if r["converged"]),
    }
    return Report(config, summary, records, passed=passed, diverged_certified=diverged)


def _cmd_sweep(config: ExperimentConfig) -> Report:
    seeds = config.effective_seeds()
    jobs = [
        lambda t=t, s=s: _stabilize_one(config, s, theta=t)
        for t in config.theta
        for s in seeds
    ]
    rows = _parallel(jobs, config.workers)
    for row in rows:
        row.pop("iteration_records")
    diverged = any(row["diverged_certified"] for row in rows)
    passed = all(row["ok"] for row in rows) and not diverged
    summary = {"grid": list(config.theta), "seeds_per_point": len(seeds)}
    return Report(config, summary, rows, passed=passed, diverged_certified=diverged)


def _cmd_dixmier(config: ExperimentConfig) -> Report:
    records = []
    for seed in config.effective_seeds():
        spec = _spec_for_seed(config, seed)
        psi = _build(config, spec)
        _, report = dixmier_unitarize(psi)
        records.append({"seed": seed, "group": psi.domain.label, "dim": psi.dim, "report": report})
    passed = all(r["report"].passed for r in records)
    return Report(config, {"runs": len(records)}, records, passed=passed)


def _cmd_verify(config: ExperimentConfig) -> Report:
    seeds = config.effective_seeds()
    results = run_all_suites(seeds, workers=config.workers)
    passed = all(r.passed for r in results)
    summary = {
        "suites": list(SUITES),
        "seed_count": len(seeds),
        "worst": {
            key: value for r in results for key, value in sorted(r.notes.items())
        },
    }
    return Report(config, summary, [r.to_dict() for r in results], passed=passed)


_COMMANDS = {
    "gen": _cmd_gen,
    "defects": _cmd_defects,
    "stabilize": _cmd_stabilize,
    "dixmier": _cmd_dixmier,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def run(config: ExperimentConfig) -> Report:
    """Execute a validated configuration and return its report."""
    start = time.perf_counter()
    report = _COMMANDS[config.command](config)
    report.timings = {"run_ms": (time.perf_counter() - start) * 1000.0}
    return report


def _parse_seeds_opt(ctx, param, value: str) -> tuple[int, ...]:
    text = value.strip()
    try:
        if ".." in text:
            lo_s, _, hi_s = text.partition("..")
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise click.BadParameter(f"expected A..B or N, got {value!r}")
    if hi < lo:
        raise click.BadParameter(f"empty seed range {value!r}")
    if hi - lo + 1 > MAX_SEEDS:
        raise click.BadParameter(f"seed range larger than {MAX_SEEDS}")
    return tuple(range(lo, hi + 1))


def _parse_theta_opt(ctx, param, value: str) -> tuple[float, ...]:
    try:
        thetas = tuple(float(part) for part in value.split(",") if part.strip())
    except ValueError:
        raise click.BadParameter(f"expected a comma list of numbers, got {value!r}")
    if not thetas:
        raise click.BadParameter("theta list is empty")
    if any(t < 0 for t in thetas):
        raise click.BadParameter("theta values must be nonnegative")
    return thetas


def _parse_group_opt(ctx, param, value: str) -> str:
    try:
        parse_group_spec(value)
    except (ValueError, NotAGroupError, OSError, json.JSONDecodeError) as err:
        raise click.BadParameter(str(err))
    return value


def _parse_genspec_opt(ctx, param, value):
    if value is None:
        return None
    try:
        return parse_genspec(value).to_dict()
    except (ValueError, json.JSONDecodeError) as err:
        raise click.BadParameter(str(err))


def _parse_norm_opt(ctx, param, value: str) -> str:
    try:
        parse_norm(value)
    except ValueError as err:
        raise click.BadParameter(str(err))
    return value


def _read_salt() -> int | None:
    raw = os.environ.get(SEED_SALT_ENV)
    if raw is None or raw == "":
        return None
    try:
        return int(raw, 0)
    except ValueError:
        raise click.UsageError(f"{SEED_SALT_ENV} must be an integer, got {raw!r}")


def _common_options(f):
    options = [
        click.option("--group", default="cyclic:2", show_default=True,
                     callback=_parse_group_opt,
                     help="Domain spec: cyclic:N, dihedral:N, symmetric:N, "
                          "product:A,B, table:path.json, freeball:R:RAD."),
        click.option("--genspec", default=None, callback=_parse_genspec_opt,
                     help="Map recipe as inline JSON or a JSON file path; "
                          "--seeds overrides its top-level seed."),
        click.option("--theta", default="0.05", show_default=True,
                     callback=_parse_theta_opt,
                     help="Perturbation size; sweep takes a comma list."),
        click.option("--tol", default=1e-12, show_default=True, type=float,
                     help="Stabilization stopping tolerance."),
        click.option("--max-iter", default=50, show_default=True, type=int,
                     help="Iteration cap for stabilization."),
        click.option("--norm", default="operator", show_default=True,
                     callback=_parse_norm_opt,
                     help="Norm for defect scans: operator, schatten:p[:normalized], kyfan:k."),
        click.option("--seeds", default="0", show_default=True,
                     callback=_parse_seeds_opt,
                     help="Seed range A..B (inclusive) or a single seed."),
        click.option("--workers", default=1, show_default=True, type=int,
                     help="Parallelism across seeds and grid points."),
        click.option("--out", default=None, type=click.Path(dir_okay=False),
                     help="Write the report here instead of stdout."),
        click.option("--ndjson", is_flag=True, default=False,
                     help="Line-delimited output: header line, then one record per line."),
    ]
    for option in reversed(options):
        f = option(f)
    return f


def _finish(command: str, **kwargs) -> None:
    out = kwargs.pop("out")
    ndjson = kwargs.pop("ndjson")
    try:
        config = ExperimentConfig(
            command=command, out=out, ndjson=ndjson, salt=_read_salt(), **kwargs
        )
    except ValueError as err:
        raise click.UsageError(str(err))
    try:
        if config.out and not Path(config.out).parent.is_dir():
            raise ConfigError(f"output directory {Path(config.out).parent} does not exist")
        report = run(config)
    except _PRECONDITION_ERRORS as err:
        click.echo(f"precondition error: {err}", err=True)
        sys.exit(EXIT_PRECONDITION)
    except (ConfigError, SizeLimitError) as err:
        click.echo(f"configuration error: {err}", err=True)
        sys.exit(EXIT_CONFIG)
    text = render_report(report, config.ndjson)
    if config.out:
        try:
            Path(config.out).write_text(text)
        except OSError as err:
            click.echo(f"configuration error: {err}", err=True)
            sys.exit(EXIT_CONFIG)
        click.echo(f"pass={str(report.passed).lower()} -> {config.out}")
    else:
        click.echo(text, nl=False)
    if report.diverged_certified:
        sys.exit(EXIT_DIVERGED)
    sys.exit(EXIT_PASS if report.passed else EXIT_FAIL)


@click.group()
def main() -> None:
    """Deterministic experiments with almost-multiplicative matrix maps."""


@main.command(help="Generate a map from a recipe and report its defects.")
@_common_options
def gen(**kwargs):
    _finish("gen", **kwargs)


@main.command(help="Measure defect and positivity diagnostics of a map.")
@_common_options
def defects(**kwargs):
    _finish("defects", **kwargs)


@main.command(name="stabilize", help="Run the averaging/repair iteration on seeded maps.")
@_common_options
def stabilize_cmd(**kwargs):
    _finish("stabilize", **kwargs)


@main.command(help="Unitarize seeded similarity twists and certify distances.")
@_common_options
def dixmier(**kwargs):
    _finish("dixmier", **kwargs)


@main.command(help="Run every verification suite over the seed range.")
@_common_options
def verify(**kwargs):
    _finish("verify", **kwargs)


@main.command(help="Sweep perturbation sizes, stabilizing at every grid point.")
@_common_options
def sweep(**kwargs):
    _finish("sweep", **kwargs)


if __name__ == "__main__":
    main()
