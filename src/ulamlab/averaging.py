"""Uniform means over finite groups, pairing forms, and the compatibility
checks between them.

Everything here averages over the whole group, so free-ball domains are
rejected: without an invariant mean the constructions below have nothing to
average against.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import linalg, maps
from .executor import _collect, _for_blocks
from .linalg import OPERATOR, NormKind
from .generators import random_map
from .groups import FiniteGroup, require_finite
from .maps import (
    Bound,
    Certificate,
    GroupMap,
    adj,
    batch_norms,
    constant_identity,
    pair_defect_norms,
    pd_min_eig,
    sup_norm,
    _require_compatible,
)

PRECONDITION_TOL = 1e-10


def translate_average(
    phi: GroupMap, f: Callable[[np.ndarray, np.ndarray], np.ndarray]
) -> np.ndarray:
    """The translate-average ``E_y f(phi(x y), phi(y))`` for every ``x``.

    ``f(translated, values)`` receives a block of rows
    ``translated[x, y] = phi(x y)`` and ``phi.values``, and returns the sum
    over ``y`` for each row of the block.  Blocks hold at most
    ``executor._BLOCK`` complex entries a thread, split or not, or one row
    of ``n d^2`` when a row is larger, instead of the whole ``(n, n, d, d)``
    tensor.
    """
    g = require_finite(phi.domain, "translate averaging")
    sums = _collect(
        np.empty(phi.values.shape, dtype=np.complex128),
        g.order * phi.dim * phi.dim,
        lambda rows: f(phi.values[g.mul[rows]], phi.values),
    )
    return sums / g.order


def average_pd(phi: GroupMap) -> GroupMap:
    """The averaged map ``psi(x) = mean_y phi(x y) phi(y)*``.

    For unitary-valued ``phi`` this is the positive definite replacement that
    keeps ``psi(e) = 1`` and stays within the multiplicative defect of
    ``phi``.
    """
    psi = translate_average(phi, lambda t, v: np.einsum("xyij,ykj->xik", t, v.conj()))
    label = f"avg({phi.label})" if phi.label else "avg"
    return GroupMap(phi.domain, phi.dim, psi, label=label)


def form(phi: GroupMap, psi: GroupMap) -> np.ndarray:
    """Sesquilinear pairing ``mean_x phi(x)* psi(x)``, conjugate-linear on the left."""
    require_finite(phi.domain, "pairing form")
    _require_compatible(phi, psi)
    n = phi.values.shape[0]
    return np.einsum("xji,xjk->ik", phi.values.conj(), psi.values) / n


def translate_coefficient(phi: GroupMap) -> GroupMap:
    """The coefficient map ``m(x) = mean_y phi(x y)* phi(y)``.

    This is the pairing of ``phi`` against its inverse translates.  Under the
    Gram convention of :func:`ulamlab.maps.pd_min_eig` (blocks
    ``m(inv(x_i) x_j)``) its Gram is an exact mean of squares
    ``mean_z M(z)* M(z)`` with block columns ``phi(inv(x_i) z)``, hence PSD
    for every bounded ``phi``.  The direct-translate pairing
    ``mean_y phi(inv(x) y)* phi(y)`` produces the blockwise transpose
    instead, which fails positivity on nonabelian domains.
    """
    m = translate_average(phi, lambda t, v: np.einsum("xyji,yjk->xik", t.conj(), v))
    label = f"coeff({phi.label})" if phi.label else "coeff"
    return GroupMap(phi.domain, phi.dim, m, label=label)


def condition_b_report(
    group: FiniteGroup, dim: int, trials: int = 20, seed: int = 0
) -> Certificate:
    """Sample random bounded maps and certify that the mean and the form cooperate.

    ``identity``: the constant identity map paired with itself is the
    identity.  ``ratio``: ``||<phi, phi>|| / ||phi||^2`` is at most one over
    the sampled maps.  ``pd``: the Gram of every translate coefficient map is
    positive semidefinite (its worst minimum eigenvalue is at least zero).
    """
    ones = constant_identity(group, dim)
    identity_residual = float(linalg.op_norm(form(ones, ones) - np.eye(dim)))
    ratios = [0.0]
    eigs = []
    for t in range(trials):
        phi = random_map(group, dim, sup=1.0, seed=seed + t)
        norm = sup_norm(phi)
        if norm > 0:
            ratios.append(float(linalg.op_norm(form(phi, phi))) / norm**2)
        eigs.append(pd_min_eig(translate_coefficient(phi)))
    return Certificate(
        identity=Bound(identity_residual, 0.0, tol=1e-12),
        ratio=Bound(max(ratios), 1.0, tol=1e-10),
        pd=Bound(0.0, min(eigs, default=0.0), tol=1e-9),
    )


def condition_c_check(phi: GroupMap, psi: GroupMap) -> float:
    """Residual of the averaging identity that ties ``psi`` to ``phi``.

    Measures ``max_x || phi(x)* psi(x) - mean_y phi(x)* phi(x y) phi(y)* ||``;
    zero exactly when ``psi`` agrees with the averaged map against ``phi``.
    """
    g = require_finite(phi.domain, "averaging identity residual")
    _require_compatible(phi, psi)
    # Contracted directly rather than through translate_average: this check
    # certifies average_pd, which is built on that kernel.
    star = adj(phi.values)

    def worst(rows: slice) -> float:
        translated = phi.values[g.mul[rows]]  # translated[x, y] = phi(x y)
        right = ((star[rows, None] @ translated) @ star[None]).sum(axis=1) / g.order
        left = star[rows] @ psi.values[rows]
        return float(batch_norms(left - right).max())

    return max(_for_blocks(g.order, g.order * phi.dim * phi.dim, worst), default=0.0)


def estimate_checks(
    phi: GroupMap, psi: GroupMap, kinds: Sequence[NormKind] = ()
) -> tuple[Certificate, dict[str, str], float]:
    """The closeness bound and the mean-based norm estimates, from one pair scan.

    Closeness: ``||phi(x) - psi(x)|| <= max_y ||phi(x)phi(y) - phi(x y)||``.
    Estimate under each of ``kinds``:
    ``||phi(x) - psi(x)||_kind <= mean_y ||phi(x y) - phi(x)phi(y)||_kind``,
    the mean-based sharpening; Schatten norms must be trace normalized there
    (the bound lives in the normalized-trace setting) and are skipped
    otherwise.  Both need ``phi`` unitary-valued and ``psi`` tied to ``phi``
    by the averaging identity; when either fails every check is skipped
    rather than asserting a bound that does not apply.

    Returns a certificate with one :class:`~ulamlab.maps.Bound` per check
    that ran, taken at the element of smallest margin and keyed
    ``closeness`` and ``norm_estimate[<kind>]``; the reason of each skipped
    check under the same key; and the averaging-identity residual
    ``condition_c_check(phi, psi)``.
    """
    g = require_finite(phi.domain, "closeness and norm estimates")
    _require_compatible(phi, psi)
    residual = condition_c_check(phi, psi)
    delta = maps._defect_bound(phi, "unit", PRECONDITION_TOL)
    if delta > PRECONDITION_TOL:
        reason = f"unit defect {delta:.3e} exceeds {PRECONDITION_TOL:.0e}"
    elif residual > PRECONDITION_TOL:
        reason = f"averaging residual {residual:.3e} exceeds {PRECONDITION_TOL:.0e}"
    else:
        reason = ""
    # closeness takes the row max of the operator norms, each estimate its row mean
    planned = [("closeness", OPERATOR, np.max, reason)]
    for kind in kinds:
        why = reason
        if kind.kind == "schatten" and not kind.trace_normalized:
            why = "Schatten norms must be trace normalized for this estimate"
        planned.append((f"norm_estimate[{kind.describe()}]", kind, np.mean, why))
    skipped = {name: why for name, _, _, why in planned if why}
    if reason:
        return Certificate(), skipped, residual
    measured = [(name, kind, reduce) for name, kind, reduce, why in planned if not why]
    checks = Certificate()
    kinds = [kind for _, kind, _ in measured]
    norms = pair_defect_norms(phi, kinds)
    moved = maps._stack_norms(g.order, phi.dim, (phi.values - psi.values).__getitem__, kinds)
    for (name, _, reduce), row, lefts in zip(measured, norms, moved):
        bounds = reduce(row.reshape(g.order, g.order), axis=1)
        w = int(np.argmin(bounds - lefts))
        checks[name] = Bound(float(lefts[w]), float(bounds[w]), tol=1e-10)
    return checks, skipped, residual


def closeness_bound_check(phi: GroupMap, psi: GroupMap) -> Bound | None:
    """The closeness bound of :func:`estimate_checks`, or ``None`` when skipped.

    Kept under this name because the benchmark's tracer (``bench/spans.py``)
    looks it up; nothing in the package calls it.
    """
    return estimate_checks(phi, psi)[0].get("closeness")


def norm_estimate_check(
    phi: GroupMap, psi: GroupMap, kind: NormKind = OPERATOR
) -> Bound | None:
    """The estimate bound of :func:`estimate_checks` under ``kind``, or ``None`` when skipped.

    Kept under this name because the benchmark's tracer (``bench/spans.py``)
    looks it up; nothing in the package calls it.
    """
    return estimate_checks(phi, psi, (kind,))[0].get(f"norm_estimate[{kind.describe()}]")
