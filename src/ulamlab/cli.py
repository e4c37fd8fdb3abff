"""Command line interface: seeded experiments emitting deterministic JSON.

Every command echoes its configuration, runs a deterministic computation
driven by the seed range, and writes a report whose payload is byte-stable
for identical configurations (timings excluded).  Exit codes: 0 pass,
1 clean run with a failed bound, 2 configuration errors, 3 precondition or
domain errors, 4 divergence inside the certified regime, 5 any other error.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: kernel threads are then the only
# parallelism inside a map, and LAPACK results do not depend on the core count.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import dataclasses
import json
import math
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Iterator

import click
from click.core import ParameterSource
import numpy as np

from .executor import _parallel
from .linalg import SingularInputError, parse_norm
from .groups import FiniteGroup, UnsupportedDomainError, parse_group_spec
from .maps import Bound, PreconditionError, SizeLimitError, defect_report, map_to_dict, pd_min_eig
from .generators import RECIPES, GenSpec, build_grid, build_map, derive_seed, parse_genspec
from .stabilize import CERTIFIED_EPSILON, NotRepairableError, dixmier_unitarize, stabilize
from .verify import SUITES, SuiteResult, run_suite

SCHEMA_VERSION = "ulamlab-report/2"
SEED_SALT_ENV = "ULAMLAB_SEED_SALT"
MAX_SEEDS = 100000
MAX_WORKERS = 64  # threads one run may start for seeds
MAX_EMBEDDED_MAP = 65536  # entries; larger maps are left out of gen reports
MAX_DEFECTS_GRAM = 2048  # order * dim; larger maps are left out of pd_min_eig in defects reports

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_PRECONDITION = 3
EXIT_DIVERGED = 4
EXIT_INTERNAL = 5

_PRECONDITION_ERRORS = (
    PreconditionError,
    UnsupportedDomainError,
    NotRepairableError,
    SingularInputError,
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
        if not 1 <= self.workers <= MAX_WORKERS:
            raise ValueError(
                f"workers must lie in [1, MAX_WORKERS = {MAX_WORKERS}], got {self.workers}"
            )
        if not self.seeds:
            raise ValueError("seed range is empty")
        parse_norm(self.norm)
        if not all(t >= 0 and math.isfinite(t) for t in self.theta):
            raise ValueError("theta values must be nonnegative and finite")
        if len(self.theta) > 1 and self.command != "sweep":
            raise ValueError(f"only sweep takes a theta list; {self.command} takes one theta")
        rows = len(self.theta) * len(self.seeds)
        if rows > MAX_SEEDS:
            raise ValueError(
                f"{len(self.theta)} theta values times {len(self.seeds)} seeds make {rows} rows, "
                f"more than MAX_SEEDS = {MAX_SEEDS}"
            )

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
    """Reduce to JSON-safe types: tuples as lists, numpy scalars as Python ones,
    an object by its ``to_dict``, else a dataclass by its fields.  Map values
    come already encoded by :func:`~ulamlab.maps.map_to_dict`."""
    if isinstance(obj, dict):
        return {str(k): jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonify(v) for v in obj]
    if hasattr(obj, "to_dict"):
        return jsonify(obj.to_dict())
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if value != value or value in (float("inf"), float("-inf")):
            return repr(value)
        return value
    if dataclasses.is_dataclass(obj):
        return jsonify({f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    return obj


def render_report(report: Report, ndjson: bool) -> str:
    payload = report.to_dict()
    if not ndjson:
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"
    records = payload["results"].pop("records")
    compact = lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)
    lines = [compact(payload)] + [compact(r) for r in records]
    return "\n".join(lines) + "\n"


def _default_genspec(config: ExperimentConfig) -> dict:
    if config.command == "dixmier":
        return {"kind": "twisted", "base": {"kind": "regular"}, "bound": 2.0, "seed": 0}
    return {"kind": "perturbed", "base": {"kind": "regular"}, "theta": config.theta[0], "seed": 0}


def _spec_for_seed(config: ExperimentConfig, seed: int) -> GenSpec:
    spec = GenSpec.from_dict(config.genspec or _default_genspec(config))
    # The corpus seed (and a grid point's theta) replace the top-level ones,
    # which reach the map only if its kind reads them; nested bases keep theirs.
    return dataclasses.replace(spec, seed=seed)


@contextlib.contextmanager
def _config_errors():
    """A ``ValueError`` that is no precondition error, or an ``OSError`` from
    reading a ``table:`` file, is a config error."""
    try:
        yield
    except _PRECONDITION_ERRORS:
        raise
    except (ValueError, OSError) as err:
        raise ConfigError(str(err)) from err


def _build(config: ExperimentConfig, spec: GenSpec, domains: dict, build):
    """``build`` (`build_map`, or `build_grid` for a sweep) of the seeded spec
    on its domain, parsed once per run into ``domains`` (keyed by group spec)."""
    group = spec.group if spec.group is not None else config.group
    with _config_errors():
        if group not in domains:
            domains[group] = parse_group_spec(group)
        return build(dataclasses.replace(spec, group=None), domains[group])


def _rows(config: ExperimentConfig, job) -> Iterator[tuple[int, object]]:
    """``(point, result)`` for the results of ``job(seed)``, a generator of
    the seed's results at its points in order, seed by seed, each seed's job
    run on one of up to ``config.workers`` threads.

    An exception ends its seed's results.  The first one in point-major
    order (by point, then seed) raises, whatever order the jobs ran in, once
    no earlier one can follow: after the last seed, or after a seed that
    failed at its first point.
    """

    def results(seed: int) -> list:
        out: list = []
        try:
            out.extend(job(seed))
        except Exception as err:  # raised in its place below
            out.append(err)
        return out

    seeds = config.effective_seeds()
    first = None  # (point, error) of the first failure so far
    for out in _parallel((partial(results, seed) for seed in seeds), len(seeds), config.workers):
        if out and isinstance(out[-1], Exception):
            err = out.pop()
            if first is None or len(out) < first[0]:
                first = (len(out), err)
        yield from enumerate(out)
        if first is not None and first[0] == 0:
            break
    if first is not None:
        raise first[1]


def _opening(seed: int, phi) -> dict:
    """The fields that open the row of ``seed``'s map ``phi``."""
    return {"seed": seed, "group": phi.domain.label, "dim": phi.dim}


def _seeded_map(config: ExperimentConfig, domains: dict, seed: int):
    """The spec and map of ``seed``, and the fields that open its row."""
    spec = _spec_for_seed(config, seed)
    phi = _build(config, spec, domains, build_map)
    return spec, phi, _opening(seed, phi)


def _defects_row(config: ExperimentConfig, domains: dict, seed: int) -> Iterator[dict]:
    spec, phi, row = _seeded_map(config, domains, seed)
    row["defects"] = defect_report(phi, parse_norm(config.norm))
    if config.command == "gen":
        row["genspec"] = spec.to_dict()
        if len(phi.values) * phi.dim * phi.dim <= MAX_EMBEDDED_MAP:
            row["map"] = map_to_dict(phi)
    elif isinstance(phi.domain, FiniteGroup) and phi.domain.order * phi.dim <= MAX_DEFECTS_GRAM:
        row["pd_min_eig"] = pd_min_eig(phi)
    yield row


def _cmd_defects(config: ExperimentConfig, domains: dict) -> Report:
    """``gen`` and ``defects``: each map passes when ``iso_delta <= delta``."""
    records = [row for _, row in _rows(config, partial(_defects_row, config, domains))]
    passed = all(r["defects"].iso_delta <= r["defects"].delta + 1e-12 for r in records)
    return Report(config, {"maps": len(records)}, records, passed=passed)


def _stabilize_rows(config: ExperimentConfig, domains: dict, seed: int) -> Iterator[dict]:
    """The rows of ``seed``: a sweep's at each theta of its grid, in grid
    order, and stabilize's one at its spec's theta, on one spec, one base and
    one draw of directions (`build_grid`)."""
    sweep = config.command == "sweep"
    spec = _spec_for_seed(config, seed)
    at = _build(config, spec, domains, build_grid)
    for theta in config.theta if sweep else (spec.theta,):
        with _config_errors():
            phi = at(theta)
        # a sweep row reports no round: its loop measures only what decides it
        trace = stabilize(phi, tol=config.tol, max_iter=config.max_iter, measure=not sweep)[1]
        eps0 = trace.epsilon_0
        certified = eps0 <= CERTIFIED_EPSILON
        row = {
            **_opening(seed, phi),
            "epsilon_0": eps0,
            "iterations": trace.rounds,
            "converged": trace.converged,
            "final_defect": trace.final_defect,
            "total_distance": trace.total_distance,
            "certified": certified,
            "diverged_certified": certified and not trace.converged,
            "theory": trace.theory,
        }
        if sweep:
            row["theta"] = theta
        else:
            row["iteration_records"] = [
                {"record": "iteration", "seed": seed, "iteration": i, **dataclasses.asdict(rec)}
                for i, rec in enumerate(trace.iterations)
            ]
        if certified:
            moved = Bound(trace.total_distance, 2.0 * eps0, tol=1e-9).strict()
            row["distance_bound"] = moved.bound
            row["distance_ok"] = moved.passed
            row["ok"] = trace.converged and row["distance_ok"]
        else:
            row["ok"] = True  # outside the certified regime nothing is promised
        yield row


def _cmd_stabilize(config: ExperimentConfig, domains: dict) -> Report:
    """``stabilize``, and ``sweep``, which reports its rows theta-major,
    without their iterations."""
    per_seed = _rows(config, partial(_stabilize_rows, config, domains))
    rows = [row for _, row in sorted(per_seed, key=lambda pair: pair[0])]
    diverged = any(row["diverged_certified"] for row in rows)
    passed = all(row["ok"] for row in rows) and not diverged
    if config.command == "sweep":
        summary, records = {"grid": list(config.theta), "seeds_per_point": len(config.seeds)}, rows
    else:
        records = [rec for row in rows for rec in row.pop("iteration_records")]
        summary = {"runs": rows, "converged_runs": sum(1 for r in rows if r["converged"])}
    return Report(config, summary, records, passed=passed, diverged_certified=diverged)


def _dixmier_row(config: ExperimentConfig, domains: dict, seed: int) -> Iterator[dict]:
    _, psi, row = _seeded_map(config, domains, seed)
    row["report"] = dixmier_unitarize(psi)[1]
    yield row


def _cmd_dixmier(config: ExperimentConfig, domains: dict) -> Report:
    records = [row for _, row in _rows(config, partial(_dixmier_row, config, domains))]
    passed = all(r["report"].passed for r in records)
    return Report(config, {"runs": len(records)}, records, passed=passed)


def _suite_results(seed: int) -> Iterator[SuiteResult]:
    """Every suite's one-seed result at ``seed``, in report order."""
    for name in SUITES:
        yield run_suite(name, [seed])


def _cmd_verify(config: ExperimentConfig, domains: dict) -> Report:
    # each one-seed result is folded into its suite as it arrives, in seed
    # order, which is SuiteResult.merge's, so each suite keeps the bound the
    # serial run keeps, whatever the workers
    folded: dict[int, SuiteResult] = {}
    for k, part in _rows(config, _suite_results):
        folded[k] = SuiteResult.merge([folded[k], part]) if k in folded else part
    results = list(folded.values())
    passed = all(r.passed for r in results)
    summary = {
        "suites": list(SUITES),
        "seed_count": len(config.seeds),
        "worst": {
            key: value for r in results for key, value in sorted(r.notes.items())
        },
    }
    return Report(config, summary, [r.to_dict() for r in results], passed=passed)


def run(config: ExperimentConfig, domains: dict | None = None) -> Report:
    """Execute a validated configuration and return its report.

    ``domains`` maps group specs to domains already parsed.
    """
    start = time.perf_counter()
    report = _CLI[config.command][0](config, {} if domains is None else domains)
    report.timings = {"run_ms": (time.perf_counter() - start) * 1000.0}
    return report


def _parse_seeds(value: str) -> tuple[int, ...]:
    text = value.strip()
    try:
        if ".." in text:
            lo_s, _, hi_s = text.partition("..")
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError:
        raise ValueError(f"expected A..B or N, got {value!r}")
    if hi - lo + 1 > MAX_SEEDS:
        raise ValueError(f"seed range larger than {MAX_SEEDS}")
    return tuple(range(lo, hi + 1))


def _parse_theta(value: str) -> tuple[float, ...]:
    try:
        thetas = tuple(float(part) for part in value.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"expected a comma list of numbers, got {value!r}")
    if not thetas:
        raise ValueError("theta list is empty")
    return thetas


def _checked(parse):
    """A click callback that reports ``parse``'s errors as a bad parameter."""

    def callback(ctx, param, value):
        if value is None:
            return None
        try:
            return parse(value)
        except (ValueError, OSError) as err:
            raise click.BadParameter(str(err))

    return callback


# Each option once, by the ExperimentConfig field it sets; its default is the
# field's, written as the text its callback reads back.
_OPTIONS = {
    # the spec and its domain, which the run reuses instead of parsing again
    "group": dict(callback=_checked(lambda text: (text, parse_group_spec(text))),
                  help="Domain spec: cyclic:N, dihedral:N, symmetric:N, "
                       "product:A,B, table:path.json, freeball:R:RAD."),
    "genspec": dict(callback=_checked(lambda text: parse_genspec(text).to_dict()),
                    help="Map recipe as inline JSON or a JSON file path; "
                         "--seeds overrides its top-level seed."),
    "theta": dict(callback=_checked(_parse_theta),
                  help="Perturbation size; sweep takes a comma list."),
    "tol": dict(type=float, help="Stabilization stopping tolerance."),
    "max_iter": dict(type=int, help="Iteration cap for stabilization."),
    "norm": dict(help="Norm for defect scans: operator, schatten:p[:normalized], kyfan:k."),
    "seeds": dict(callback=_checked(_parse_seeds),
                  help="Seed range A..B (inclusive) or a single seed."),
    "workers": dict(type=int, help="Parallelism across seeds; a sweep's job is a "
                                    "seed with its whole theta grid."),
    "out": dict(type=click.Path(dir_okay=False),
                help="Write the report here instead of stdout."),
    "ndjson": dict(is_flag=True,
                   help="Line-delimited output: header line, then one record per line."),
}

# Each command: the function it runs, its help and the options it reads.
# Click refuses any other.
_CLI = {
    "gen": (_cmd_defects, "Generate a map from a recipe and report its defects.",
            "group genspec theta norm seeds out ndjson"),
    "defects": (_cmd_defects, "Measure defect and positivity diagnostics of a map.",
                "group genspec theta norm seeds out ndjson"),
    "stabilize": (_cmd_stabilize, "Run the averaging/repair iteration on seeded maps.",
                  "group genspec theta tol max_iter seeds workers out ndjson"),
    "dixmier": (_cmd_dixmier, "Unitarize seeded similarity twists and certify distances.",
                "group genspec seeds out ndjson"),
    "verify": (_cmd_verify, "Run every verification suite over the seed range.",
               "seeds workers out ndjson"),
    "sweep": (_cmd_stabilize, "Sweep perturbation sizes, stabilizing at every grid point.",
              "group genspec theta tol max_iter seeds workers out ndjson"),
}


def _option(name: str) -> click.Option:
    default = next(f.default for f in dataclasses.fields(ExperimentConfig) if f.name == name)
    if isinstance(default, tuple):  # a one-seed range or a theta list
        default = ",".join(map(str, default))
    flag = "--" + name.replace("_", "-")
    return click.Option([flag], default=default, show_default=True, **_OPTIONS[name])


def _read_salt() -> int | None:
    raw = os.environ.get(SEED_SALT_ENV)
    if raw is None or raw == "":
        return None
    try:
        return int(raw, 0)
    except ValueError:
        raise click.UsageError(f"{SEED_SALT_ENV} must be an integer, got {raw!r}")


def _refuse_overridden(command: str, kwargs: dict) -> None:
    """Refuse a --theta or --group given next to a --genspec that overrides it,
    and a sweep whose --genspec its theta grid cannot reach."""
    genspec = kwargs.get("genspec")
    if genspec is None:
        return
    if command == "sweep" and "theta" not in RECIPES[genspec["kind"]].reads:
        raise click.UsageError(
            "sweep applies its --theta grid to a perturbed --genspec only, "
            f"not to a {genspec['kind']!r} one"
        )
    source = click.get_current_context().get_parameter_source
    if source("theta") is ParameterSource.COMMANDLINE and command != "sweep":
        raise click.UsageError(f"--theta does not reach a --genspec in {command}: only sweep applies it")
    if source("group") is ParameterSource.COMMANDLINE and "group" in genspec:
        raise click.UsageError(f"--group is overridden by the --genspec group {genspec['group']!r}")


def _finish(command: str, **kwargs) -> None:
    _refuse_overridden(command, kwargs)
    domains = {}
    if "group" in kwargs:  # verify's suites build their own maps
        kwargs["group"], domain = kwargs["group"]
        domains[kwargs["group"]] = domain
    try:
        config = ExperimentConfig(command=command, salt=_read_salt(), **kwargs)
    except ValueError as err:
        raise click.UsageError(str(err))
    try:
        if config.out and not Path(config.out).parent.is_dir():
            raise ConfigError(f"output directory {Path(config.out).parent} does not exist")
        report = run(config, domains)
        text = render_report(report, config.ndjson)
    except _PRECONDITION_ERRORS as err:
        click.echo(f"precondition error: {err}", err=True)
        sys.exit(EXIT_PRECONDITION)
    except (ConfigError, SizeLimitError) as err:
        click.echo(f"configuration error: {err}", err=True)
        sys.exit(EXIT_CONFIG)
    except Exception as err:  # exit 1 is kept for a failed bound
        click.echo(f"internal error: {type(err).__name__}: {err}", err=True)
        sys.exit(EXIT_INTERNAL)
    try:
        if config.out:
            Path(config.out).write_text(text)
            text = f"pass={str(report.passed).lower()} -> {config.out}\n"
        click.echo(text, nl=False)
    except OSError as err:  # a full disk, a closed pipe
        click.echo(f"configuration error: {err}", err=True)
        sys.exit(EXIT_CONFIG)
    if report.diverged_certified:
        sys.exit(EXIT_DIVERGED)
    sys.exit(EXIT_PASS if report.passed else EXIT_FAIL)


@click.group()
def main() -> None:
    """Deterministic experiments with almost-multiplicative matrix maps."""


for _name, (_, _help, _fields) in _CLI.items():
    _params = [_option(f) for f in _fields.split()]
    main.add_command(click.Command(_name, help=_help, params=_params, callback=partial(_finish, _name)))


if __name__ == "__main__":
    main()
