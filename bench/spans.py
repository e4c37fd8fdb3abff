"""Spans around the public functions of each ulamlab module, recorded from outside.

The tracer replaces a function by a wrapper in every loaded ``ulamlab`` module
that bound it: ``from .maps import mult_defect`` gives ``stabilize``,
``averaging``, ``verify``, ``generators`` and ``cli`` their own names for the
same function, and a call through a name left unpatched would be missed.
``ulamlab.stabilize`` is the re-exported function, so modules are reached
through ``sys.modules``.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time

# (module, function) pairs whose calls are recorded as spans named "module.function".
TRACED = (
    ("cli", "render_report"),
    ("groups", "parse_group_spec"),
    ("generators", "build_map"),
    ("generators", "perturb_unitary"),
    ("maps", "mult_defect"),
    ("maps", "unit_defect"),
    ("maps", "distance"),
    ("maps", "pd_min_eig"),
    ("averaging", "average_pd"),
    ("averaging", "condition_c_check"),
    ("averaging", "closeness_bound_check"),
    ("averaging", "norm_estimate_check"),
    ("linalg", "polar"),
    ("linalg", "singular_values"),
    ("stabilize", "stabilize"),
    ("stabilize", "kazhdan_step"),
    ("stabilize", "polar_repair"),
)

COMPLEX_BYTES = 16
# A pair product reads phi(x), phi(y) and phi(xy) and writes one difference.
MATRICES_PER_PAIR = 4

# name, unit, better: the per-layer metrics of a traced run, in report order.
PER_LAYER = [
    ("cli.main.ms", "ms", "lower"),
    ("cli.render_report.ms", "ms", "lower"),
    ("cli.report_bytes", "bytes", "lower"),
    ("groups.parse_group_spec.calls", "count", "lower"),
    ("groups.parse_group_spec.ms", "ms", "lower"),
    ("generators.build_map.ms", "ms", "lower"),
    ("generators.perturb_unitary.self_ms", "ms", "lower"),
    ("maps.mult_defect.calls", "count", "lower"),
    ("maps.mult_defect.self_ms", "ms", "lower"),
    ("maps.mult_defect.pairs", "count", "lower"),
    ("maps.mult_defect.bytes_computed", "bytes", "lower"),
    ("maps.unit_defect.calls", "count", "lower"),
    ("maps.unit_defect.self_ms", "ms", "lower"),
    ("maps.distance.calls", "count", "lower"),
    ("maps.distance.self_ms", "ms", "lower"),
    ("maps.pd_min_eig.calls", "count", "lower"),
    ("maps.pd_min_eig.self_ms", "ms", "lower"),
    ("maps.pd_min_eig.gram_dim", "count", "lower"),
    ("averaging.average_pd.calls", "count", "lower"),
    ("averaging.average_pd.self_ms", "ms", "lower"),
    ("averaging.condition_c_check.calls", "count", "lower"),
    ("averaging.condition_c_check.self_ms", "ms", "lower"),
    ("averaging.closeness_bound_check.self_ms", "ms", "lower"),
    ("averaging.norm_estimate_check.self_ms", "ms", "lower"),
    ("linalg.polar.calls", "count", "lower"),
    ("linalg.polar.self_ms", "ms", "lower"),
    ("linalg.singular_values.calls", "count", "lower"),
    ("linalg.singular_values.self_ms", "ms", "lower"),
    ("stabilize.stabilize.self_ms", "ms", "lower"),
    ("stabilize.kazhdan_step.calls", "count", "lower"),
    ("stabilize.kazhdan_step.self_ms", "ms", "lower"),
    ("stabilize.polar_repair.calls", "count", "lower"),
    ("stabilize.polar_repair.self_ms", "ms", "lower"),
    ("stabilize.iterations", "count", "lower"),
    ("stabilize.useful_scan_ratio", "ratio", "higher"),
    ("verify.square_inequality.ms", "ms", "lower"),
    ("verify.stinespring_inequality.ms", "ms", "lower"),
    ("verify.perturbation_bounds.ms", "ms", "lower"),
    ("verify.unital_defect_equivalence.ms", "ms", "lower"),
    ("verify.condition_b.ms", "ms", "lower"),
    ("verify.averaging_checks.ms", "ms", "lower"),
    ("verify.polar_repair_contract.ms", "ms", "lower"),
    ("verify.kazhdan_contract.ms", "ms", "lower"),
    ("verify.dixmier_contract.ms", "ms", "lower"),
    ("workers.utilization", "ratio", "higher"),
    ("tracing.overhead_s", "s", "lower"),
]


class Span:
    __slots__ = ("name", "parent", "thread", "item", "start", "end", "child_s", "index")

    def __init__(self, name: str, parent: "Span | None", item: str | None):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.item = item
        self.start = self.end = 0.0
        self.child_s = 0.0  # children run on the span's own thread, one at a time
        self.index = -1

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _mult_defect_counts(args, kwargs, result) -> dict[str, float]:
    phi = args[0] if args else kwargs["phi"]
    pair_index = getattr(phi.domain, "pair_index", None)
    n = len(phi.values)
    pairs = len(pair_index) if pair_index is not None else n * n
    return {
        "maps.mult_defect.pairs": pairs,
        "maps.mult_defect.bytes_computed": pairs * MATRICES_PER_PAIR * phi.dim**2 * COMPLEX_BYTES,
    }


def _pd_min_eig_counts(args, kwargs, result) -> dict[str, float]:
    phi = args[0] if args else kwargs["phi"]
    return {"maps.pd_min_eig.gram_dim": len(phi.values) * phi.dim}


def _stabilize_counts(args, kwargs, result) -> dict[str, float]:
    return {"stabilize.iterations": len(result[1].iterations)}


def _render_counts(args, kwargs, result) -> dict[str, float]:
    # Timing values change length from run to run; the rest of the report must not.
    report = args[0] if args else kwargs["report"]
    timing_bytes = sum(len(json.dumps(value)) for value in report.timings.values())
    return {"cli.report_bytes": len(result.encode()) - timing_bytes}


COUNTERS = {
    "maps.mult_defect": _mult_defect_counts,
    "maps.pd_min_eig": _pd_min_eig_counts,
    "stabilize.stabilize": _stabilize_counts,
    "cli.render_report": _render_counts,
}
# Counts that keep their largest value instead of a sum.
MAX_COUNTS = {"maps.pd_min_eig.gram_dim"}


class Tracer:
    """Records spans for the functions in ``TRACED`` and the suites in ``SUITES``.

    Use as a context manager: entering patches, leaving restores every name.
    ``item`` labels the spans of the invocation the caller is running; worker
    threads inherit it because the caller runs one invocation at a time.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = {}
        self.item: str | None = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: Span, extra: dict[str, float] | None) -> None:
        with self._lock:
            span.index = len(self.spans)
            self.spans.append(span)
            for key, value in (extra or {}).items():
                if key in MAX_COUNTS:
                    self.counts[key] = max(self.counts.get(key, 0), value)
                else:
                    self.counts[key] = self.counts.get(key, 0) + value

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the caller opens itself, such as the CLI call around a module's spans."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span, None)

    def _open(self, name: str) -> Span:
        stack = self._stack()
        span = Span(name, stack[-1] if stack else None, self.item)
        stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span, extra: dict[str, float] | None) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        if span.parent is not None:
            span.parent.child_s += span.duration
        self._record(span, extra)

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(name)
            extra = None
            try:
                result = fn(*args, **kwargs)
                if counter is not None:
                    extra = counter(args, kwargs, result)
                return result
            finally:
                tracer._close(span, extra)

        return traced

    def __enter__(self) -> "Tracer":
        modules = [m for key, m in sys.modules.items() if key == "ulamlab" or key.startswith("ulamlab.")]
        for module_name, fn_name in TRACED:
            original = getattr(sys.modules[f"ulamlab.{module_name}"], fn_name)
            wrapper = self.wrap(f"{module_name}.{fn_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))
        suites = sys.modules["ulamlab.verify"].SUITES
        for suite, fn in list(suites.items()):
            suites[suite] = self.wrap(f"verify.{suite}", fn)
            self._restore.append((suites, suite, fn))
        return self

    def __exit__(self, *exc) -> bool:
        for target, key, original in reversed(self._restore):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._restore.clear()
        return False

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms (outermost spans only) and self ms."""
        out: dict[str, dict[str, float]] = {}
        for span in self.spans:
            row = out.setdefault(span.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["self_ms"] += span.self_s * 1000.0
            if not self._has_ancestor(span, span.name):
                row["ms"] += span.duration * 1000.0
        return out

    @staticmethod
    def _has_ancestor(span: Span, name: str) -> bool:
        parent = span.parent
        while parent is not None:
            if parent.name == name:
                return True
            parent = parent.parent
        return False

    def per_layer(self, workers: int, overhead_s: float) -> dict[str, float]:
        """Values of every metric in ``PER_LAYER``; a layer never called reads 0."""
        rows = self.summary()
        values: dict[str, float] = {}
        for name, _, _ in PER_LAYER:
            span_name, _, field = name.rpartition(".")
            if field in ("calls", "ms", "self_ms") and span_name in rows:
                values[name] = rows[span_name][field]
        values.update(self.counts)
        scans_under_stabilize = sum(
            1
            for s in self.spans
            if s.name == "maps.mult_defect" and self._has_ancestor(s, "stabilize.stabilize")
        )
        iterations = self.counts.get("stabilize.iterations", 0)
        values["stabilize.useful_scan_ratio"] = (
            iterations / scans_under_stabilize if scans_under_stabilize else 0.0
        )
        main_ms = rows.get("cli.main", {}).get("ms", 0.0)
        stabilize_ms = rows.get("stabilize.stabilize", {}).get("ms", 0.0)
        values["workers.utilization"] = stabilize_ms / (main_ms * workers) if main_ms else 0.0
        values["tracing.overhead_s"] = overhead_s
        return {name: values.get(name, 0) for name, _, _ in PER_LAYER}

    def dump(self) -> dict:
        """Spans as rows of (name, start_s, end_s, parent index, thread id, item)."""
        return {
            "fields": ["name", "start_s", "end_s", "parent", "thread", "item"],
            "spans": [
                [
                    s.name,
                    round(s.start, 9),
                    round(s.end, 9),
                    s.parent.index if s.parent is not None else None,
                    s.thread,
                    s.item,
                ]
                for s in self.spans
            ],
        }
