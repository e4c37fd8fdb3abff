"""Iterative repair of almost-multiplicative maps on finite groups.

One round averages the map into a positive definite, unital replacement and
then snaps each value back to the unitary group through its polar part.  The
multiplicative defect contracts quadratically, so a map that starts close
enough to a representation converges to an exact one while moving at most on
the order of its initial defect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from . import linalg, maps
from .executor import _alongside, _for_blocks
from .groups import require_finite
from .maps import (
    UNITARY_TOL,
    Bound,
    Certificate,
    GroupMap,
    PreconditionError,
    distance,
    mult_defect,
    unit_defect,
)
from .averaging import average_pd, form

CERTIFIED_EPSILON = 0.1
EPSILON_CONTRACTION = 5.0  # measured quadratic-contraction factor of one round


class NotRepairableError(ValueError):
    """Unit defect is too large for the polar snap to be controlled."""


@dataclass
class ContractionSeries:
    """Closed-form constant for the quadratic-contraction series.

    ``series_constant`` evaluates
    ``kappa2 * (1 + kappa1^(-1/(p-1)) * sum_{n>=1} delta^(p^n - 1))``,
    truncated once the next term is negligible; ``truncation_error_bound``
    dominates the discarded tail.
    """

    kappa1: float
    kappa2: float
    p: float
    delta: float
    series_constant: float
    truncation_terms: int
    truncation_error_bound: float


def contraction_series(kappa1: float, kappa2: float, p: float, delta: float) -> ContractionSeries:
    if kappa1 <= 0 or kappa2 <= 0:
        raise ValueError("kappa1 and kappa2 must be positive")
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must lie in (0, 1), got {delta}")
    coeff = kappa1 ** (-1.0 / (p - 1.0))
    total = 0.0
    terms = 0
    n = 1
    while n <= 10000:
        term = delta ** (p**n - 1.0)
        if term == 0.0 or (terms > 0 and coeff * term < 1e-16 * (1.0 + coeff * total)):
            break
        total += term
        terms += 1
        n += 1
    next_term = delta ** (p**n - 1.0)
    ratio = delta ** ((p - 1.0) * p**n)
    tail = next_term / (1.0 - ratio) if ratio < 1.0 else float("inf")
    return ContractionSeries(
        kappa1=kappa1,
        kappa2=kappa2,
        p=p,
        delta=delta,
        series_constant=kappa2 * (1.0 + coeff * total),
        truncation_terms=terms,
        truncation_error_bound=kappa2 * coeff * tail,
    )


def _unitary_part(phi: GroupMap, measure: bool = True) -> tuple[GroupMap, float]:
    """The polar unitary factor of every value, and the unit defect it removed.

    One SVD of each value gives its polar factor and the singular values that
    narrow the exact unit-defect scan.  With ``measure=False`` the second value
    is only the bound those values give (``maps._unit_bounds``); the exact defect
    is taken when it reaches the limit, so the refusal and its message are the same.
    """
    limit = 1.0 - 1e-9
    repaired, sigma = np.empty_like(phi.values), np.empty((len(phi.values), phi.dim))

    def fill(block: slice) -> None:
        repaired[block], sigma[block], _ = linalg._polar_unitary(phi.values[block])

    _for_blocks(len(phi.values), phi.dim * phi.dim, fill)
    delta = float(np.max(maps._unit_bounds(phi.dim, sigma)[1]))
    if measure or not delta < limit:
        delta = unit_defect(phi, sigma)[0]
    if delta >= limit:
        raise NotRepairableError(f"unit defect {delta:.6g} is not strictly below 1")
    linalg._require_invertible(sigma)
    label = f"repair({phi.label})" if phi.label else "repair"
    return GroupMap(phi.domain, phi.dim, repaired, label=label), delta


def polar_repair(phi: GroupMap) -> tuple[GroupMap, Certificate]:
    """Replace each value by the unitary factor of its polar decomposition.

    The unit defect must be strictly below one; each value then moves by at
    most that defect (``distance``), the result is unitary (``unit``), and
    the multiplicative defect grows by at most four times the unit defect
    (``mult``).
    """
    psi, delta = _unitary_part(phi)
    eps, _ = mult_defect(phi)
    out_delta, _ = unit_defect(psi)
    out_eps, _ = mult_defect(psi)
    return psi, Certificate(
        unit=Bound(out_delta, 0.0, tol=1e-11),
        distance=Bound(distance(phi, psi), delta, tol=1e-10),
        mult=Bound(out_eps, eps + 4.0 * delta, tol=1e-9),
    )


def kazhdan_step(phi: GroupMap, *also: Callable[[GroupMap], object]) -> tuple:
    """One averaging round for a unitary-valued map: the averaged map, its
    certificate, then ``job(psi)`` for each ``job`` of ``also`` on the
    averaged map ``psi``.

    The averaged map is unital (``unital``) and positive definite (``pd``),
    sits within the multiplicative defect of the input (``distance``), and
    its unit defect drops to the square of that defect (``sharp``; ``crude``
    is twice the square).  A Gram above `maps.MAX_GRAM_DIM` is refused before
    averaging.  The checks run, then ``also``, then `maps.pd_min_eig`; for a
    Gram of dimension `maps._MIN_GRAM_ALONGSIDE` or more the eigensolve runs
    on the spare core beside the others (`executor._alongside`).
    """
    maps._require_defect(phi, "unit", UNITARY_TOL, "averaging step needs unitary values")
    maps._require_gram_dim(phi.domain, phi.dim)
    psi = average_pd(phi)
    eye = np.eye(phi.dim, dtype=np.complex128)
    jobs = (
        lambda: mult_defect(phi)[0],
        lambda: unit_defect(psi)[0],
        lambda: float(linalg.op_norm(psi.values[psi.domain.identity] - eye)),
        lambda: distance(phi, psi),
        *(partial(job, psi) for job in also),
        partial(maps.pd_min_eig, psi),  # the module's name, which a tracer may wrap
    )
    if psi.domain.order * psi.dim >= maps._MIN_GRAM_ALONGSIDE:
        results = _alongside(*jobs)
    else:
        results = [job() for job in jobs]
    eps, out_delta, unital_residual, moved, *rest, pd = results
    return psi, Certificate(
        unital=Bound(unital_residual, 0.0, tol=1e-11),
        pd=Bound(0.0, pd, tol=1e-9),
        distance=Bound(moved, eps, tol=1e-10),
        sharp=Bound(out_delta, eps**2, tol=1e-10),
        crude=Bound(out_delta, 2.0 * eps**2, tol=1e-10),
    ), *rest


@dataclass
class IterationRecord:
    """One round: the mult defect it started from, the unit defect its snap
    removed and how far it moved the map; ``None`` where the round did not
    measure the value (``stabilize(..., measure=False)``)."""

    epsilon_n: float | None
    delta_n: float | None
    step_distance: float | None


@dataclass
class StabilizationTrace:
    epsilon_0: float
    iterations: list[IterationRecord] = field(default_factory=list)
    total_distance: float = 0.0
    final_defect: float = 0.0
    converged: bool = False
    theory: ContractionSeries | None = None

    @property
    def rounds(self) -> int:
        return len(self.iterations)


def _theory_series(eps0: float) -> ContractionSeries:
    # the concrete loop contracts with kappa1 = 5, p = 2; delta = 5*eps0 keeps
    # 5*eps^2 = delta*eps, clamped into (0, 1) so the series stays valid
    delta = min(max(EPSILON_CONTRACTION * eps0, 1e-300), 1.0 - 1e-12)
    return contraction_series(EPSILON_CONTRACTION, 1.0 + eps0, 2.0, delta)


def _witness_at_least(phi: GroupMap, pair: tuple[int, int], tol: float) -> bool:
    """Whether the residual of ``pair`` alone, formed as the mult-defect scan
    forms it, certifies the mult defect of ``phi`` at least ``tol``."""
    residual = maps._pair_defects(phi, np.array([pair[0] * phi.domain.order + pair[1]]))
    return linalg._frobenius_at_least(float(np.linalg.norm(residual)), phi.dim, tol)


def stabilize(
    phi: GroupMap, tol: float = 1e-12, max_iter: int = 50, measure: bool = True
) -> tuple[GroupMap, StabilizationTrace]:
    """Iterate averaging and polar repair until the map is a representation.

    Each round computes only: ``average_pd``, the polar snap and one mult
    defect scan.  ``kazhdan_step`` and ``polar_repair`` certify the same two
    steps.  Every run returns its last map and its trace, converged or not.
    The distance certificate (total movement at most twice the starting
    defect) is guaranteed for starting defects up to ``CERTIFIED_EPSILON``;
    larger inputs still run but may legitimately fail to converge.  Judging
    a run is the caller's: the CLI reports one that did not converge inside
    the certified regime as ``diverged_certified`` (exit 4).

    With ``measure=False`` a round measures only what decides the loop, and
    its record holds ``None`` for the rest: the snap's precondition is
    settled by its singular values (``maps._unit_bounds``), no step distance
    is taken, and between rounds one witness pair, the last scan's, stands for
    the exact scan when its residual certifies the defect at least ``tol``
    (`_witness_at_least`).  The scan runs, and its pair becomes the witness,
    when that fails and after the last round allowed, so the last map,
    ``epsilon_0``, the round count, ``final_defect``, ``total_distance`` and
    every refusal are those of the measured run.
    """
    require_finite(phi.domain, "stabilization")
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    maps._require_defect(phi, "unit", UNITARY_TOL, "stabilization needs unitary values")
    eps0, pair = mult_defect(phi)
    current = phi
    eps_n: float | None = eps0  # None: certified to be at least tol, not measured
    trace = StabilizationTrace(epsilon_0=eps0, theory=_theory_series(eps0))
    for n in range(1, max_iter + 1):
        if eps_n is not None and eps_n < tol:
            break
        # averaging needs unitary input: the precondition checks round 1, the snap the rest
        repaired, delta_n = _unitary_part(average_pd(current), measure)
        moved = distance(current, repaired) if measure else None
        trace.iterations.append(IterationRecord(eps_n, delta_n if measure else None, moved))
        current = repaired
        certified = not measure and n < max_iter and _witness_at_least(current, pair, tol)
        eps_n, pair = (None, pair) if certified else mult_defect(current)
    trace.converged = eps_n < tol
    trace.final_defect = eps_n
    trace.total_distance = distance(phi, current)
    return current, trace


@dataclass
class DixmierReport:
    """Diagnostics of one unitarization and the certificate of its result.

    ``certificate`` holds ``unit`` (the result is unitary) and ``distance``
    (the movement is at most ``||psi|| (||psi||^2 - 1)``).
    """

    sup_norm_in: float
    condition: float
    certificate: Certificate

    @property
    def passed(self) -> bool:
        return self.certificate.passed

    def to_dict(self) -> dict:
        moved = self.certificate["distance"]
        return {
            "sup_norm_in": self.sup_norm_in,
            "condition": self.condition,
            "distance": moved.measured,
            "distance_bound": moved.bound,
            "unit_defect_out": self.certificate["unit"].measured,
            "passed": self.passed,
        }


def dixmier_unitarize(psi: GroupMap) -> tuple[GroupMap, DixmierReport]:
    """Conjugate an exact bounded representation to a unitary one.

    Averages ``psi(x)* psi(x)`` into an invariant positive operator, takes
    its square root ``S``, and conjugates: ``pi = S psi S^{-1}``.  The
    movement is at most ``||psi|| (||psi||^2 - 1)``.
    """
    require_finite(psi.domain, "unitarization")
    maps._require_defect(psi, "mult", UNITARY_TOL, "unitarization needs an exact representation")
    sigma = linalg.singular_values(psi.values)
    smallest = float(sigma[:, -1].min())
    if smallest < linalg.SIGMA_MIN_TOL:
        raise PreconditionError(
            f"unitarization needs invertible values; smallest singular value is {smallest:.3e}"
        )
    gram = form(psi, psi)
    gram = (gram + gram.conj().T) / 2.0
    w, v = np.linalg.eigh(gram)
    if w[0] < 1e-12:
        raise linalg.SingularInputError(
            f"averaged positive operator is singular (min eigenvalue {w[0]:.3e})"
        )
    s = (v * np.sqrt(w)) @ v.conj().T
    s_inv = (v / np.sqrt(w)) @ v.conj().T
    label = f"unitarized({psi.label})" if psi.label else "unitarized"
    pi = GroupMap(psi.domain, psi.dim, s @ psi.values @ s_inv, label=label)
    out_delta, _ = unit_defect(pi)
    norm = float(sigma[:, 0].max())
    certificate = Certificate(
        unit=Bound(out_delta, 0.0, tol=1e-9),
        distance=Bound(distance(psi, pi), norm * (norm**2 - 1.0), tol=1e-8),
    )
    return pi, DixmierReport(norm, float(np.sqrt(w[-1] / w[0])), certificate)
