"""Seeded verification suites for the library's quantitative guarantees.

Each suite draws a deterministic corpus from its seed list, checks the
guaranteed bounds on it as :class:`~ulamlab.maps.Bound` records, and reports
the worst margin of each.  A margin compares a bound against a measurement,
so passing means every margin stays above minus its tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .linalg import OPERATOR, ky_fan, schatten
from .averaging import condition_b_report, estimate_checks
from .generators import (
    compress_rep,
    derive_seed,
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


def _suite_rng(seed: int, label: str) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=derive_seed(seed, f"suite:{label}")))


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
        """Keep ``check`` under ``key`` when its margin is below the one kept so far."""
        if key not in self.bounds or check.margin < self.bounds[key].margin:
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


def square_inequality_suite(seeds: Sequence[int]) -> SuiteResult:
    """``||1 - a|| <= ||1 - a^2||`` for PSD ``a`` under every supported gauge."""
    result = SuiteResult("square_inequality", len(seeds))
    for seed in seeds:
        rng = _suite_rng(seed, "square")
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
        for kind in kinds:
            lower, upper = linalg.uinorm(eye - a, kind), linalg.uinorm(eye - a @ a, kind)
            result.note("square_margin", Bound(lower, upper, tol=1e-10))
    return result


def stinespring_inequality_suite(seeds: Sequence[int]) -> SuiteResult:
    """Compression defect factors through the unit defects of both arguments."""
    result = SuiteResult("stinespring_inequality", len(seeds))
    for seed in seeds:
        rng = _suite_rng(seed, "stinespring")
        g = pool_group(POOL_SPECS[int(rng.integers(len(POOL_SPECS)))])
        sub_dim = int(rng.integers(1, min(8, g.order) + 1))
        phi = compress_rep(regular_rep(g), sub_dim, seed)
        v = phi.values
        e = phi.identity_index
        left_defect = batch_norms(v[e][None] - v @ adj(v))
        right_defect = batch_norms(v[e][None] - adj(v) @ v)
        mults = pair_defect_norms(phi).reshape(g.order, g.order)
        bound = np.sqrt(left_defect[:, None] * right_defect[None, :])
        w = np.unravel_index(np.argmin(bound - mults), bound.shape)
        result.note("stinespring_margin", Bound(float(mults[w]), float(bound[w]), tol=1e-10))
    return result


def _noisy_copy(phi: GroupMap, eta: float, rng: np.random.Generator) -> GroupMap:
    noise = rng.standard_normal(phi.values.shape) + 1j * rng.standard_normal(phi.values.shape)
    peak = float(batch_norms(noise).max())
    if peak > 0:
        noise *= eta / peak
    return GroupMap(phi.domain, phi.dim, phi.values + noise, label="noisy")


def perturbation_bounds_suite(seeds: Sequence[int]) -> SuiteResult:
    """Predicted defect growth under a uniform perturbation dominates measured."""
    result = SuiteResult("perturbation_bounds", len(seeds))
    for seed in seeds:
        rng = _suite_rng(seed, "perturbation")
        g = pool_group(POOL_SPECS[int(rng.integers(len(POOL_SPECS)))])
        pick = int(rng.integers(3))
        if pick == 0:
            phi = random_map(g, int(rng.integers(1, 7)), sup=rng.uniform(0.5, 1.5), seed=seed)
        elif pick == 1:
            # regular reps stay at dim <= 8 here, matching the other draws
            small = pool_group(SMALL_POOL_SPECS[int(rng.integers(len(SMALL_POOL_SPECS)))])
            phi = perturb_unitary(regular_rep(small), float(rng.uniform(0, 0.1)), seed)
        else:
            phi = compress_rep(regular_rep(g), int(rng.integers(1, min(8, g.order) + 1)), seed)
        psi = _noisy_copy(phi, float(rng.uniform(0, 0.2)), rng)
        report = perturbation_bound_report(phi, psi)
        for name in ("iso", "unit", "mult"):
            result.note(f"perturbation_{name}_margin", report[name])
    return result


def unital_equivalence_suite(seeds: Sequence[int]) -> SuiteResult:
    """For unital positive definite maps the unit and mult defects coincide."""
    result = SuiteResult("unital_defect_equivalence", len(seeds))
    for seed in seeds:
        rng = _suite_rng(seed, "unital")
        g = pool_group(POOL_SPECS[int(rng.integers(len(POOL_SPECS)))])
        sub_dim = int(rng.integers(1, min(8, g.order) + 1))
        pi = regular_rep(g)
        z = rng.standard_normal((pi.dim, sub_dim)) + 1j * rng.standard_normal(
            (pi.dim, sub_dim)
        )
        q, _ = np.linalg.qr(z)  # exact isometry keeps the compression unital
        phi = GroupMap(g, sub_dim, q.conj().T @ (pi.values @ q), label="unital")
        eps, _ = mult_defect(phi)
        delta, _ = unit_defect(phi)
        result.note("unit_le_mult_margin", Bound(delta, eps, tol=1e-9))
        result.note("mult_le_unit_margin", Bound(eps, delta, tol=1e-9))
    return result


def condition_b_suite(seeds: Sequence[int]) -> SuiteResult:
    """Mean/form compatibility over random bounded maps on the group pool."""
    result = SuiteResult("condition_b", len(seeds))
    for seed in seeds:
        rng = _suite_rng(seed, "condition_b")
        spec = POOL_SPECS[seed % len(POOL_SPECS)]
        dim = int(rng.integers(1, 5))
        report = condition_b_report(pool_group(spec), dim, trials=1, seed=seed)
        result.note("condition_b_identity_margin", report["identity"].strict())
        result.note("condition_b_ratio_margin", report["ratio"].strict())
        result.note("condition_b_pd_min_eig", report["pd"])
    return result


def averaging_suite(
    seeds: Sequence[int],
    group_specs: Sequence[str] = POOL_SPECS,
    theta_max: float = 0.03,
) -> SuiteResult:
    """Averaging identity, closeness and norm estimates, and the sharp
    quadratic bound, over seeded unitary perturbations of regular
    representations."""
    result = SuiteResult("averaging_checks", len(seeds))
    estimated = {
        "norm_estimate_s1_margin": schatten(1, normalized=True),
        "norm_estimate_s2_margin": schatten(2, normalized=True),
        "norm_estimate_operator_margin": OPERATOR,
    }
    checked = {"closeness_margin": "closeness"}
    checked.update({key: f"norm_estimate[{kind.describe()}]" for key, kind in estimated.items()})
    skipped = Bound(0.0, float("-inf"), tol=1e-10)  # a skipped check fails
    for seed in seeds:
        rng = _suite_rng(seed, "averaging")
        g = pool_group(group_specs[int(rng.integers(len(group_specs)))])
        theta = float(rng.uniform(0.0, theta_max))
        phi = perturb_unitary(regular_rep(g), theta, seed)
        psi, step = kazhdan_step(phi)
        checks, _, residual = estimate_checks(phi, psi, list(estimated.values()))
        result.note("condition_c_margin", Bound(residual, 0.0, tol=1e-10).strict())
        for key, name in checked.items():
            result.note(key, checks.get(name, skipped))
        result.note("kazhdan_sharp_margin", step["sharp"])
        result.note("kazhdan_crude_margin", step["crude"])
        result.note("kazhdan_distance_margin", step["distance"])
        result.note("average_pd_min_eig", step["pd"])
    return result


def polar_repair_suite(seeds: Sequence[int]) -> SuiteResult:
    """Polar repair contract on near-unitary maps with sizable unit defect."""
    result = SuiteResult("polar_repair_contract", len(seeds))
    for seed in seeds:
        rng = _suite_rng(seed, "repair")
        g = pool_group(SMALL_POOL_SPECS[int(rng.integers(len(SMALL_POOL_SPECS)))])
        rho = perturb_unitary(regular_rep(g), float(rng.uniform(0, 0.02)), seed)
        amplitude = float(rng.uniform(0, 0.12))
        vals = rho.values.copy()
        for x in range(len(vals)):
            b = rng.standard_normal((rho.dim, rho.dim)) + 1j * rng.standard_normal(
                (rho.dim, rho.dim)
            )
            scale = linalg.op_norm(b)
            if scale > 0:
                vals[x] = vals[x] @ (np.eye(rho.dim) + b * (amplitude / scale))
        phi = GroupMap(g, rho.dim, vals, label="near_unitary")
        _, report = polar_repair(phi)
        for name in ("unit", "distance", "mult"):
            result.note(f"repair_{name}_margin", report[name].strict())
    return result


def kazhdan_contract_suite(seeds: Sequence[int]) -> SuiteResult:
    """Averaging-step certificate over seeded unitary perturbations."""
    result = SuiteResult("kazhdan_contract", len(seeds))
    for seed in seeds:
        rng = _suite_rng(seed, "kazhdan")
        g = pool_group(SMALL_POOL_SPECS[int(rng.integers(len(SMALL_POOL_SPECS)))])
        phi = perturb_unitary(regular_rep(g), float(rng.uniform(0, 0.03)), seed)
        _, report = kazhdan_step(phi)
        result.note("kazhdan_unital_margin", report["unital"].strict())
        result.note("kazhdan_pd_min_eig", report["pd"])
        result.note("kazhdan_step_distance_margin", report["distance"].strict())
        result.note("kazhdan_step_sharp_margin", report["sharp"].strict())
    return result


def dixmier_contract_suite(seeds: Sequence[int], bound: float = 2.0) -> SuiteResult:
    """Unitarization certificate over seeded similarity twists."""
    result = SuiteResult("dixmier_contract", len(seeds))
    for seed in seeds:
        rng = _suite_rng(seed, "dixmier")
        g = pool_group(SMALL_POOL_SPECS[int(rng.integers(len(SMALL_POOL_SPECS)))])
        psi, cond = similarity_twist(regular_rep(g), bound, seed)
        _, report = dixmier_unitarize(psi)
        result.note("twist_condition_margin", Bound(cond, bound, tol=1e-12))
        result.note("dixmier_unit_margin", report.certificate["unit"].strict())
        result.note("dixmier_distance_margin", report.certificate["distance"].strict())
    return result


SUITES: dict[str, Callable[[Sequence[int]], SuiteResult]] = {
    "square_inequality": square_inequality_suite,
    "stinespring_inequality": stinespring_inequality_suite,
    "perturbation_bounds": perturbation_bounds_suite,
    "unital_defect_equivalence": unital_equivalence_suite,
    "condition_b": condition_b_suite,
    "averaging_checks": averaging_suite,
    "polar_repair_contract": polar_repair_suite,
    "kazhdan_contract": kazhdan_contract_suite,
    "dixmier_contract": dixmier_contract_suite,
}


def run_suite(name: str, seeds: Sequence[int]) -> SuiteResult:
    """Run the registered suite ``name`` over ``seeds``."""
    return SUITES[name](list(seeds))


def run_all_suites(seeds: Sequence[int], names: Sequence[str] | None = None) -> list[SuiteResult]:
    return [run_suite(name, seeds) for name in (names or SUITES)]
