"""Iterative repair of almost-multiplicative maps on finite groups.

One round averages the map into a positive definite, unital replacement and
then snaps each value back to the unitary group through its polar part.  The
multiplicative defect contracts quadratically, so a map that starts close
enough to a representation converges to an exact one while moving at most on
the order of its initial defect.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import linalg, maps
from .groups import FreeBall, UnsupportedDomainError
from .maps import (
    Bound,
    Certificate,
    GroupMap,
    PreconditionError,
    distance,
    mult_defect,
    pd_min_eig,
    sup_norm,
    unit_defect,
)
from .averaging import average_pd, form

UNITARY_TOL = 1e-9
CERTIFIED_EPSILON = 0.1
EPSILON_CONTRACTION = 5.0  # measured quadratic-contraction factor of one round


class NotRepairableError(ValueError):
    """Unit defect is too large for the polar snap to be controlled."""


class DivergedError(RuntimeError):
    """Stabilization failed to converge inside the certified regime."""

    def __init__(self, message: str, trace: "StabilizationTrace", last: GroupMap):
        super().__init__(message)
        self.trace = trace
        self.last = last


@dataclass
class BoundCertificate:
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

    def to_dict(self) -> dict:
        return asdict(self)


def bound_certificate(kappa1: float, kappa2: float, p: float, delta: float) -> BoundCertificate:
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
    return BoundCertificate(
        kappa1=kappa1,
        kappa2=kappa2,
        p=p,
        delta=delta,
        series_constant=kappa2 * (1.0 + coeff * total),
        truncation_terms=terms,
        truncation_error_bound=kappa2 * coeff * tail,
    )


def product_constant(c: float, p: float, delta: float) -> float:
    """Evaluate ``prod_{n>=0} (1 + c * delta^(p^n))`` to machine accuracy."""
    if c < 0:
        raise ValueError(f"c must be nonnegative, got {c}")
    if not p > 1:
        raise ValueError(f"p must exceed 1, got {p}")
    if not 0 <= delta < 1:
        raise ValueError(f"delta must lie in [0, 1), got {delta}")
    out = 1.0
    for n in range(10000):
        factor = c * delta ** (p**n)
        if factor < 1e-16 * out:
            break
        out *= 1.0 + factor
    return out


def _unitary_part(phi: GroupMap) -> tuple[GroupMap, float]:
    """The polar unitary factor of every value, and the unit defect it removed."""
    delta, _ = unit_defect(phi)
    if delta >= 1.0 - 1e-9:
        raise NotRepairableError(f"unit defect {delta:.6g} is not strictly below 1")
    repaired = np.empty_like(phi.values)
    for block in maps._blocks(len(phi.values), phi.dim * phi.dim):
        repaired[block] = linalg.polar(phi.values[block])[0]
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


def kazhdan_step(phi: GroupMap) -> tuple[GroupMap, Certificate]:
    """One averaging round for a unitary-valued map.

    The averaged map is unital (``unital``) and positive definite (``pd``),
    sits within the multiplicative defect of the input (``distance``), and
    its unit defect drops to the square of that defect (``sharp``; ``crude``
    is twice the square).
    """
    delta, _ = unit_defect(phi)
    if delta > UNITARY_TOL:
        raise PreconditionError(
            f"averaging step needs unitary values; unit defect is {delta:.3e}"
        )
    eps, _ = mult_defect(phi)
    psi = average_pd(phi)
    eye = np.eye(phi.dim, dtype=np.complex128)
    out_delta, _ = unit_defect(psi)
    unital_residual = float(linalg.op_norm(psi.values[psi.identity_index] - eye))
    return psi, Certificate(
        unital=Bound(unital_residual, 0.0, tol=1e-11),
        pd=Bound(0.0, pd_min_eig(psi), tol=1e-9),
        distance=Bound(distance(phi, psi), eps, tol=1e-10),
        sharp=Bound(out_delta, eps**2, tol=1e-10),
        crude=Bound(out_delta, 2.0 * eps**2, tol=1e-10),
    )


@dataclass
class IterationRecord:
    epsilon_n: float
    delta_n: float
    step_distance: float

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class StabilizationTrace:
    iterations: list[IterationRecord] = field(default_factory=list)
    total_distance: float = 0.0
    final_defect: float = 0.0
    converged: bool = False
    theory: BoundCertificate | None = None


def _theory_certificate(eps0: float) -> BoundCertificate:
    # the concrete loop contracts with kappa1 = 5, p = 2; delta = 5*eps0 keeps
    # 5*eps^2 = delta*eps, clamped into (0, 1) so the certificate stays valid
    delta = min(max(EPSILON_CONTRACTION * eps0, 1e-300), 1.0 - 1e-12)
    return bound_certificate(EPSILON_CONTRACTION, 1.0 + eps0, 2.0, delta)


def stabilize(
    phi: GroupMap, tol: float = 1e-12, max_iter: int = 50
) -> tuple[GroupMap, StabilizationTrace]:
    """Iterate averaging and polar repair until the map is a representation.

    Each round computes only: ``average_pd``, the polar snap and one mult
    defect scan.  ``kazhdan_step`` and ``polar_repair`` certify the same two
    steps.  The distance certificate (total movement at most twice the
    starting defect) is guaranteed for starting defects up to
    ``CERTIFIED_EPSILON``; larger inputs still run but may legitimately fail
    to converge, which the trace records instead of raising.
    """
    if isinstance(phi.domain, FreeBall):
        raise UnsupportedDomainError(
            "stabilization averages over the whole domain and needs a finite group; "
            "a free-ball domain carries no invariant mean"
        )
    if tol <= 0:
        raise ValueError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    delta0, _ = unit_defect(phi)
    if delta0 > UNITARY_TOL:
        raise PreconditionError(
            f"stabilization needs unitary values; unit defect is {delta0:.3e}"
        )
    eps0, _ = mult_defect(phi)
    certified = eps0 <= CERTIFIED_EPSILON
    current = phi
    eps_n = eps0
    trace = StabilizationTrace(theory=_theory_certificate(eps0))
    for _ in range(max_iter):
        if eps_n < tol:
            break
        # averaging needs unitary input: delta0 checks round 1, the snap the rest
        repaired, delta_n = _unitary_part(average_pd(current))
        trace.iterations.append(IterationRecord(eps_n, delta_n, distance(current, repaired)))
        current = repaired
        eps_n, _ = mult_defect(current)
    trace.converged = eps_n < tol
    trace.final_defect = eps_n
    trace.total_distance = distance(phi, current)
    if not trace.converged and certified:
        raise DivergedError(
            f"no convergence to {tol:g} within {max_iter} iterations "
            f"despite starting defect {eps0:.3e} inside the certified regime",
            trace,
            current,
        )
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
    if isinstance(psi.domain, FreeBall):
        raise UnsupportedDomainError(
            "unitarization averages over the whole domain and needs a finite group"
        )
    eps, _ = mult_defect(psi)
    if eps > UNITARY_TOL:
        raise PreconditionError(
            f"unitarization needs an exact representation; mult defect is {eps:.3e}"
        )
    smallest = float(linalg.singular_values(psi.values)[..., -1].min())
    if smallest < 1e-8:
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
    norm = sup_norm(psi)
    certificate = Certificate(
        unit=Bound(out_delta, 0.0, tol=1e-9),
        distance=Bound(distance(psi, pi), norm * (norm**2 - 1.0), tol=1e-8),
    )
    return pi, DixmierReport(norm, float(np.sqrt(w[-1] / w[0])), certificate)
