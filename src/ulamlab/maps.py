"""Matrix-valued maps on group domains and their defect measurements.

A :class:`GroupMap` assigns a ``dim x dim`` complex matrix to every element
of a finite group or free-ball domain.  The measurements quantify how far a
map is from being a multiplicative, unitary-valued representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import linalg
from .linalg import OPERATOR, NormKind, adj
from .groups import (
    FiniteGroup,
    FreeBall,
    UnsupportedDomainError,
    n_elements,
    parse_group_spec,
)

GRAM_HERMITIAN_TOL = 1e-8
MAX_GRAM_DIM = 8192
_PAIR_CHUNK = 1 << 22  # complex entries per batch of pair products


class PreconditionError(ValueError):
    """Input violates a documented precondition of the operation."""


class SizeLimitError(ValueError):
    """Input is larger than a limit that bounds the memory or time of a scan."""


@dataclass(frozen=True)
class Bound:
    """One certified inequality ``measured <= bound``, allowed ``tol`` of rounding.

    ``margin`` is ``bound - measured`` and the check passes while the margin
    is at least ``-tol``.  A lower bound ``value >= floor`` is written
    ``Bound(floor, value)``, so its margin is ``value - floor``.
    """

    measured: float
    bound: float
    tol: float = 0.0

    @property
    def margin(self) -> float:
        return self.bound - self.measured

    @property
    def passed(self) -> bool:
        return self.margin >= -self.tol

    def strict(self) -> "Bound":
        """The same check with ``tol`` moved into the bound and none left over."""
        return Bound(self.measured, self.bound + self.tol)


class Certificate(dict[str, Bound]):
    """Named bounds that together certify one result."""

    @property
    def passed(self) -> bool:
        return all(b.passed for b in self.values())


@dataclass(eq=False)
class GroupMap:
    domain: FiniteGroup | FreeBall
    dim: int
    values: np.ndarray  # (n_elements, dim, dim) complex
    label: str = ""

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128)
        n = n_elements(self.domain)
        if vals.shape != (n, self.dim, self.dim):
            raise ValueError(
                f"values must have shape ({n}, {self.dim}, {self.dim}), got {vals.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValueError("map values must be finite")
        self.values = vals

    @property
    def identity_index(self) -> int:
        return self.domain.identity

    @property
    def restricted(self) -> bool:
        """True when products are only defined on the domain's pair index."""
        return isinstance(self.domain, FreeBall)


def constant_identity(domain: FiniteGroup | FreeBall, dim: int) -> GroupMap:
    vals = np.broadcast_to(np.eye(dim, dtype=np.complex128), (n_elements(domain), dim, dim))
    return GroupMap(domain, dim, vals.copy(), label="one")


def same_domain(a: FiniteGroup | FreeBall, b: FiniteGroup | FreeBall) -> bool:
    if a is b:
        return True
    if isinstance(a, FiniteGroup) and isinstance(b, FiniteGroup):
        return a.order == b.order and np.array_equal(a.mul, b.mul)
    if isinstance(a, FreeBall) and isinstance(b, FreeBall):
        return a.rank == b.rank and a.radius == b.radius
    return False


def _require_compatible(phi: GroupMap, psi: GroupMap) -> None:
    if not same_domain(phi.domain, psi.domain):
        raise ValueError("maps live on different domains")
    if phi.dim != psi.dim:
        raise ValueError(f"maps have different dimensions ({phi.dim} vs {psi.dim})")


def _pair_arrays(domain: FiniteGroup | FreeBall) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices (x, y, xy) of every defined product."""
    if isinstance(domain, FiniteGroup):
        n = domain.order
        xs, ys = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
        return xs.ravel(), ys.ravel(), domain.mul[xs, ys].ravel()
    items = sorted(domain.pair_index.items())
    xs = np.array([x for (x, _), _ in items], dtype=np.int64)
    ys = np.array([y for (_, y), _ in items], dtype=np.int64)
    ks = np.array([k for _, k in items], dtype=np.int64)
    return xs, ys, ks


def batch_norms(mats: np.ndarray, kind: NormKind = OPERATOR) -> np.ndarray:
    """Norm of each matrix in a stack under ``kind``."""
    return np.atleast_1d(linalg.gauge(linalg.singular_values(mats), kind))


def _blocks(count: int, entries: int):
    """Slices of ``count`` items of ``entries`` complex entries each.

    A block holds at most ``_PAIR_CHUNK`` entries, or one item when an item
    is larger.
    """
    step = max(1, _PAIR_CHUNK // entries)
    for lo in range(0, count, step):
        yield slice(lo, lo + step)


def _pair_scan(
    phi: GroupMap, kinds: Sequence[NormKind]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``x`` and ``y`` of every defined pair and its defect norm under each kind.

    The norms have one row per kind; every defect is decomposed once.
    """
    xs, ys, ks = _pair_arrays(phi.domain)
    norms = np.empty((len(kinds), len(xs)))
    for sl in _blocks(len(xs), phi.dim * phi.dim):
        diff = phi.values[xs[sl]] @ phi.values[ys[sl]] - phi.values[ks[sl]]
        sigma = linalg.singular_values(diff)
        for row, kind in enumerate(kinds):
            norms[row, sl] = linalg.gauge(sigma, kind)
    return xs, ys, norms


def pair_defect_norms(
    phi: GroupMap, kind: NormKind | Sequence[NormKind] = OPERATOR
) -> np.ndarray:
    """Norm of ``phi(x)phi(y) - phi(xy)`` for every defined pair.

    Entries follow the order of ``_pair_arrays``, so a finite group's result
    reshapes to ``(n, n)`` indexed by ``[x, y]``.  A sequence of kinds gives
    one row per kind from a single scan.  Products are formed
    ``_PAIR_CHUNK`` complex entries at a time, which bounds the memory of the
    scan independently of the number of pairs.
    """
    if isinstance(kind, NormKind):
        return _pair_scan(phi, (kind,))[2][0]
    return _pair_scan(phi, tuple(kind))[2]


def mult_defect(phi: GroupMap, kind: NormKind = OPERATOR) -> tuple[float, tuple[int, int]]:
    """Worst deviation from multiplicativity and the first pair attaining it.

    Free-ball domains are scanned only over pairs whose product stays in the
    ball.
    """
    xs, ys, norms = _pair_scan(phi, (kind,))
    w = int(np.argmax(norms[0]))
    return float(norms[0, w]), (int(xs[w]), int(ys[w]))


def unit_defect(phi: GroupMap) -> tuple[float, int]:
    """Worst of ``1 - v v*`` and ``1 - v* v`` in operator norm, with witness."""
    v = phi.values
    eye = np.eye(phi.dim, dtype=np.complex128)
    left = batch_norms(eye - v @ adj(v))
    right = batch_norms(eye - adj(v) @ v)
    per_element = np.maximum(left, right)
    w = int(np.argmax(per_element))
    return float(per_element[w]), w


def iso_defect(phi: GroupMap) -> float:
    """Worst ``1 - v* v`` deviation alone (isometry defect)."""
    v = phi.values
    eye = np.eye(phi.dim, dtype=np.complex128)
    return float(batch_norms(eye - adj(v) @ v).max())


def sup_norm(phi: GroupMap) -> float:
    return float(batch_norms(phi.values).max())


def distance(phi: GroupMap, psi: GroupMap, kind: NormKind = OPERATOR) -> float:
    """Uniform distance ``max_x ||phi(x) - psi(x)||`` under ``kind``."""
    _require_compatible(phi, psi)
    return float(batch_norms(phi.values - psi.values, kind).max())


def pd_min_eig(phi: GroupMap) -> float:
    """Smallest eigenvalue of the full-group Gram block matrix.

    The Gram has blocks ``phi(inv(x_i) * x_j)``.  A Gram that is not
    Hermitian within ``GRAM_HERMITIAN_TOL`` (in operator norm, tested through
    the Frobenius norm first) is definitely not PSD and is reported as
    ``-inf``.
    """
    if isinstance(phi.domain, FreeBall):
        raise UnsupportedDomainError(
            "positive definiteness scans the full group Gram and needs a finite group"
        )
    g = phi.domain
    n, d = g.order, phi.dim
    if n * d > MAX_GRAM_DIM:
        raise SizeLimitError(f"Gram dimension {n * d} exceeds MAX_GRAM_DIM = {MAX_GRAM_DIM}")
    blocks = phi.values[g.mul[g.inv[:, None], np.arange(n)[None, :]]]
    big = blocks.transpose(0, 2, 1, 3).reshape(n * d, n * d)
    if linalg._asymmetry(big, GRAM_HERMITIAN_TOL) > GRAM_HERMITIAN_TOL:
        return float("-inf")
    return float(np.linalg.eigvalsh((big + big.conj().T) / 2.0)[0])


@dataclass
class DefectReport:
    epsilon: float
    delta: float
    iso_delta: float
    sup_norm: float
    norm_kind: str
    witness_pair: tuple[int, int]
    witness_element: int
    restricted: bool

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "delta": self.delta,
            "iso_delta": self.iso_delta,
            "sup_norm": self.sup_norm,
            "norm_kind": self.norm_kind,
            "witness_pair": list(self.witness_pair),
            "witness_element": self.witness_element,
            "restricted": self.restricted,
        }


def defect_report(phi: GroupMap, kind: NormKind = OPERATOR) -> DefectReport:
    """All defect measurements in one pass.

    ``epsilon`` uses the requested norm; ``delta`` and ``iso_delta`` are
    operator-norm quantities.
    """
    eps, pair = mult_defect(phi, kind)
    delta, element = unit_defect(phi)
    return DefectReport(
        epsilon=eps,
        delta=delta,
        iso_delta=iso_defect(phi),
        sup_norm=sup_norm(phi),
        norm_kind=kind.describe(),
        witness_pair=pair,
        witness_element=element,
        restricted=phi.restricted,
    )


def perturbation_bound_report(phi: GroupMap, psi: GroupMap) -> Certificate:
    """The defects of ``psi`` against bounds predicted from ``phi``.

    Each bound is the defect of ``phi`` plus the growth a uniform
    perturbation of size ``eta = distance(phi, psi)`` can cause.
    """
    _require_compatible(phi, psi)
    eta = distance(phi, psi)
    norms = sup_norm(phi) + sup_norm(psi)
    eps_phi, _ = mult_defect(phi)
    unit_phi, _ = unit_defect(phi)
    eps_psi, _ = mult_defect(psi)
    unit_psi, _ = unit_defect(psi)
    return Certificate(
        iso=Bound(iso_defect(psi), iso_defect(phi) + norms * eta, tol=1e-10),
        unit=Bound(unit_psi, unit_phi + norms * eta, tol=1e-10),
        mult=Bound(eps_psi, eps_phi + (1.0 + norms) * eta, tol=1e-10),
    )


def _encode_matrix(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _decode_matrix(rows: list) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in rows], dtype=np.complex128)


def map_to_dict(phi: GroupMap) -> dict:
    """JSON form: complex scalars as [re, im] pairs, matrices row-major."""
    return {
        "group": phi.domain.label,
        "dim": phi.dim,
        "values": {str(i): _encode_matrix(phi.values[i]) for i in range(len(phi.values))},
    }


def map_from_dict(data: dict, domain: FiniteGroup | FreeBall | None = None) -> GroupMap:
    if domain is None:
        domain = parse_group_spec(data["group"])
    dim = int(data["dim"])
    n = n_elements(domain)
    vals = np.zeros((n, dim, dim), dtype=np.complex128)
    for key, rows in data["values"].items():
        vals[int(key)] = _decode_matrix(rows)
    return GroupMap(domain, dim, vals, label=data.get("label", ""))
