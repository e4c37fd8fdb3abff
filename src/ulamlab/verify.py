"""Seeded verification suites for the library's quantitative guarantees.

Each suite is a check of one seed, registered with ``_suite``: it draws a
map from the seed's own stream and yields the guaranteed bounds on it as
:class:`~ulamlab.maps.Bound` records, and the suite reports the worst margin
of each over its seed list.  A margin compares a bound against a measurement,
so passing means every margin stays above minus its tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Callable, Iterator, Sequence

import numpy as np

from . import linalg
from .linalg import OPERATOR, ky_fan, schatten
from .averaging import condition_b_report, estimate_checks
from .generators import (
    _rng,
    compress_rep,
    perturb_unitary,
    random_map,
    regular_rep,
    similarity_twist,
)
from .groups import parse_group_spec
from .maps import (
    Bound,
    Certificate,
    GroupMap,
    adj,
    batch_norms,
    mult_defect,
    pair_defect_norms,
    perturbation_bound_report,
    unit_defect,
)
from .stabilize import dixmier_unitarize, kazhdan_step, polar_repair

POOL_SPECS = (
    "cyclic:2",
    "cyclic:3",
    "cyclic:6",
    "cyclic:12",
    "dihedral:3",
    "dihedral:4",
    "symmetric:3",
    "symmetric:4",
    "product:cyclic:2,cyclic:2",
)
# regular representations of these have dim <= 8
SMALL_POOL_SPECS = (
    "cyclic:2",
    "cyclic:3",
    "cyclic:4",
    "cyclic:6",
    "cyclic:8",
    "dihedral:3",
    "dihedral:4",
    "product:cyclic:2,cyclic:2",
)


@lru_cache(maxsize=None)
def pool_group(spec: str):
    return parse_group_spec(spec)


@lru_cache(maxsize=None)
def pool_regular(spec: str) -> GroupMap:
    """The regular representation of ``pool_group(spec)``, shared read-only by every suite."""
    return regular_rep(pool_group(spec))


def _suite_rng(seed: int, label: str) -> np.random.Generator:
    return _rng(seed, f"suite:{label}")


@dataclass
class SuiteResult:
    """Worst-case bounds of one suite over its corpus.

    ``bounds`` keeps, under each margin name, the observed :class:`Bound`
    of smallest margin; ``notes`` gives those margins.  A margin passes when
    it is at least minus the tolerance of its bound.
    """

    name: str
    trials: int
    bounds: Certificate = field(default_factory=Certificate)

    @property
    def notes(self) -> dict[str, float]:
        return {key: float(b.margin) for key, b in self.bounds.items()}

    @property
    def passed(self) -> bool:
        return self.bounds.passed

    def note(self, key: str, check: Bound) -> None:
        """Keep ``check`` under ``key`` when its margin is below the one kept so far.

        A NaN margin ranks below every other and, once kept, is never
        replaced, so the verdict does not depend on the order of the seeds.
        """
        kept = self.bounds.get(key)
        if kept is None or (
            not math.isnan(kept.margin)
            and (math.isnan(check.margin) or check.margin < kept.margin)
        ):
            self.bounds[key] = check

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "notes": self.notes,
            "tolerances": {key: b.tol for key, b in self.bounds.items()},
            "passed": self.passed,
        }

    @staticmethod
    def merge(parts: Sequence["SuiteResult"]) -> "SuiteResult":
        merged = SuiteResult(parts[0].name, sum(p.trials for p in parts))
        for part in parts:
            for key, check in part.bounds.items():
                merged.note(key, check)
        return merged


Check = Callable[[int, np.random.Generator], Iterator[tuple[str, Bound]]]
Suite = Callable[[Sequence[int]], SuiteResult]
SUITES: dict[str, Suite] = {}  # in report order


def _suite(name: str, label: str) -> Callable[[Check], Suite]:
    """Register a per-seed check as the suite ``name`` in ``SUITES``.

    The check gets each seed with its own stream, keyed by ``label``, and
    yields ``(key, bound)`` pairs, which the suite notes in order.
    """

    def register(check: Check) -> Suite:
        def suite(seeds: Sequence[int]) -> SuiteResult:
            result = SuiteResult(name, len(seeds))
            for seed in seeds:
                for key, bound in check(seed, _suite_rng(seed, label)):
                    result.note(key, bound)
            return result

        suite.__name__, suite.__doc__ = check.__name__, check.__doc__
        SUITES[name] = suite
        return suite

    return register


@_suite("square_inequality", "square")
def square_inequality_suite(seed: int, rng: np.random.Generator):
    """``||1 - a|| <= ||1 - a^2||`` for PSD ``a`` under every supported gauge."""
    d = int(rng.integers(2, 9))
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    a = z @ z.conj().T
    a *= rng.uniform(0.2, 2.0) / linalg.op_norm(a)
    eye = np.eye(d)
    kinds = [
        OPERATOR,
        schatten(1),
        schatten(2),
        schatten(float("inf")),
        schatten(1, normalized=True),
        schatten(2, normalized=True),
        ky_fan(int(rng.integers(1, d + 1))),
    ]
    lower, upper = linalg.singular_values(np.stack([eye - a, eye - a @ a]))
    for kind in kinds:
        yield "square_margin", Bound(
            float(linalg.gauge(lower, kind)), float(linalg.gauge(upper, kind)), tol=1e-10
        )


@_suite("stinespring_inequality", "stinespring")
def stinespring_inequality_suite(seed: int, rng: np.random.Generator):
    """Compression defect factors through the unit defects of both arguments."""
    pi = pool_regular(POOL_SPECS[int(rng.integers(len(POOL_SPECS)))])
    sub_dim = int(rng.integers(1, min(8, pi.domain.order) + 1))
    phi = compress_rep(pi, sub_dim, seed)
    v = phi.values
    e = phi.domain.identity
    left_defect = batch_norms(v[e][None] - v @ adj(v))
    right_defect = batch_norms(v[e][None] - adj(v) @ v)
    mults = pair_defect_norms(phi).reshape(pi.domain.order, pi.domain.order)
    bound = np.sqrt(left_defect[:, None] * right_defect[None, :])
    w = np.unravel_index(np.argmin(bound - mults), bound.shape)
    yield "stinespring_margin", Bound(float(mults[w]), float(bound[w]), tol=1e-10)


def _noisy_copy(phi: GroupMap, eta: float, rng: np.random.Generator) -> GroupMap:
    noise = rng.standard_normal(phi.values.shape) + 1j * rng.standard_normal(phi.values.shape)
    peak = float(batch_norms(noise).max())
    if peak > 0:
        noise *= eta / peak
    return GroupMap(phi.domain, phi.dim, phi.values + noise, label="noisy")


@_suite("perturbation_bounds", "perturbation")
def perturbation_bounds_suite(seed: int, rng: np.random.Generator):
    """Predicted defect growth under a uniform perturbation dominates measured."""
    spec = POOL_SPECS[int(rng.integers(len(POOL_SPECS)))]
    g = pool_group(spec)
    pick = int(rng.integers(3))
    if pick == 0:
        phi = random_map(g, int(rng.integers(1, 7)), sup=rng.uniform(0.5, 1.5), seed=seed)
    elif pick == 1:
        # regular reps stay at dim <= 8 here, matching the other draws
        small = pool_regular(SMALL_POOL_SPECS[int(rng.integers(len(SMALL_POOL_SPECS)))])
        phi = perturb_unitary(small, float(rng.uniform(0, 0.1)), seed)
    else:
        phi = compress_rep(pool_regular(spec), int(rng.integers(1, min(8, g.order) + 1)), seed)
    psi = _noisy_copy(phi, float(rng.uniform(0, 0.2)), rng)
    report = perturbation_bound_report(phi, psi)
    for name in ("iso", "unit", "mult"):
        yield f"perturbation_{name}_margin", report[name]


@_suite("unital_defect_equivalence", "unital")
def unital_equivalence_suite(seed: int, rng: np.random.Generator):
    """For unital positive definite maps the unit and mult defects coincide."""
    pi = pool_regular(POOL_SPECS[int(rng.integers(len(POOL_SPECS)))])
    sub_dim = int(rng.integers(1, min(8, pi.domain.order) + 1))
    z = rng.standard_normal((pi.dim, sub_dim)) + 1j * rng.standard_normal((pi.dim, sub_dim))
    q, _ = np.linalg.qr(z)  # exact isometry keeps the compression unital
    phi = GroupMap(pi.domain, sub_dim, q.conj().T @ (pi.values @ q), label="unital")
    eps, _ = mult_defect(phi)
    delta, _ = unit_defect(phi)
    yield "unit_le_mult_margin", Bound(delta, eps, tol=1e-9)
    yield "mult_le_unit_margin", Bound(eps, delta, tol=1e-9)


@_suite("condition_b", "condition_b")
def condition_b_suite(seed: int, rng: np.random.Generator):
    """Mean/form compatibility over random bounded maps on the group pool."""
    spec = POOL_SPECS[seed % len(POOL_SPECS)]
    dim = int(rng.integers(1, 5))
    report = condition_b_report(pool_group(spec), dim, trials=1, seed=seed)
    yield "condition_b_identity_margin", report["identity"].strict()
    yield "condition_b_ratio_margin", report["ratio"].strict()
    yield "condition_b_pd_min_eig", report["pd"]


AVERAGING_THETA_MAX = 0.03
# note -> the norm of its estimate, and note -> the certificate key it reads
_ESTIMATED = {
    "norm_estimate_s1_margin": schatten(1, normalized=True),
    "norm_estimate_s2_margin": schatten(2, normalized=True),
    "norm_estimate_operator_margin": OPERATOR,
}
_CHECKED = {
    "closeness_margin": "closeness",
    **{key: f"norm_estimate[{kind.describe()}]" for key, kind in _ESTIMATED.items()},
}
_SKIPPED = Bound(0.0, float("-inf"), tol=1e-10)  # a skipped check fails


@_suite("averaging_checks", "averaging")
def averaging_suite(seed: int, rng: np.random.Generator):
    """Averaging identity, closeness and norm estimates, and the sharp
    quadratic bound, over seeded unitary perturbations of regular
    representations."""
    pi = pool_regular(POOL_SPECS[int(rng.integers(len(POOL_SPECS)))])
    theta = float(rng.uniform(0.0, AVERAGING_THETA_MAX))
    phi = perturb_unitary(pi, theta, seed)
    estimates = partial(estimate_checks, phi, kinds=list(_ESTIMATED.values()))
    _, step, (checks, _, residual) = kazhdan_step(phi, estimates)
    yield "condition_c_margin", Bound(residual, 0.0, tol=1e-10).strict()
    for key, name in _CHECKED.items():
        yield key, checks.get(name, _SKIPPED)
    yield "kazhdan_sharp_margin", step["sharp"]
    yield "kazhdan_crude_margin", step["crude"]
    yield "kazhdan_distance_margin", step["distance"]
    yield "average_pd_min_eig", step["pd"]


@_suite("polar_repair_contract", "repair")
def polar_repair_suite(seed: int, rng: np.random.Generator):
    """Polar repair contract on near-unitary maps with sizable unit defect."""
    pi = pool_regular(SMALL_POOL_SPECS[int(rng.integers(len(SMALL_POOL_SPECS)))])
    rho = perturb_unitary(pi, float(rng.uniform(0, 0.02)), seed)
    amplitude = float(rng.uniform(0, 0.12))
    # a real part, then an imaginary part, per element
    parts = rng.standard_normal((len(rho.values), 2, rho.dim, rho.dim))
    b = parts[:, 0] + 1j * parts[:, 1]
    scale = linalg.singular_values(b)[:, 0]  # positive: b is Gaussian
    vals = rho.values @ (np.eye(rho.dim) + b * (amplitude / scale)[:, None, None])
    _, report = polar_repair(GroupMap(pi.domain, rho.dim, vals, label="near_unitary"))
    for name in ("unit", "distance", "mult"):
        yield f"repair_{name}_margin", report[name].strict()


@_suite("kazhdan_contract", "kazhdan")
def kazhdan_contract_suite(seed: int, rng: np.random.Generator):
    """Averaging-step certificate over seeded unitary perturbations."""
    pi = pool_regular(SMALL_POOL_SPECS[int(rng.integers(len(SMALL_POOL_SPECS)))])
    phi = perturb_unitary(pi, float(rng.uniform(0, 0.03)), seed)
    _, report = kazhdan_step(phi)
    yield "kazhdan_unital_margin", report["unital"].strict()
    yield "kazhdan_pd_min_eig", report["pd"]
    yield "kazhdan_step_distance_margin", report["distance"].strict()
    yield "kazhdan_step_sharp_margin", report["sharp"].strict()


TWIST_BOUND = 2.0  # the largest condition number of a twist


@_suite("dixmier_contract", "dixmier")
def dixmier_contract_suite(seed: int, rng: np.random.Generator):
    """Unitarization certificate over seeded similarity twists."""
    pi = pool_regular(SMALL_POOL_SPECS[int(rng.integers(len(SMALL_POOL_SPECS)))])
    psi, cond = similarity_twist(pi, TWIST_BOUND, seed)
    _, report = dixmier_unitarize(psi)
    yield "twist_condition_margin", Bound(cond, TWIST_BOUND, tol=1e-12)
    yield "dixmier_unit_margin", report.certificate["unit"].strict()
    yield "dixmier_distance_margin", report.certificate["distance"].strict()


def run_suite(name: str, seeds: Sequence[int]) -> SuiteResult:
    """Run the registered suite ``name`` over ``seeds``."""
    return SUITES[name](list(seeds))
