"""Reference implementations, closed forms and a suite driver that only the
tests use: the package computes each of them another way, or not at all.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ulamlab.groups import FiniteGroup, from_table, require_finite
from ulamlab.linalg import OPERATOR, NormKind, as_matrix, gauge, singular_values
from ulamlab.maps import GroupMap
from ulamlab.verify import SUITES, SuiteResult, run_suite


def reduce_word(word) -> tuple[int, ...]:
    """Cancel adjacent inverse letter pairs until the word is reduced."""
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def reversed_labels(g: FiniteGroup) -> FiniteGroup:
    """``g`` relabelled by ``x -> order - 1 - x``, so its identity is not index 0."""
    last = g.order - 1
    return from_table((last - g.mul)[::-1, ::-1], label=f"{g.label}:reversed")


def uinorm(a, kind: NormKind = OPERATOR) -> float:
    """Norm of ``a`` under the selected gauge."""
    return float(gauge(singular_values(as_matrix(a)), kind))


def frobenius_skewed(tol: float) -> np.ndarray:
    """A 2 x 2 ``h`` whose asymmetry ``h - h*`` has computed Frobenius norm at
    most ``tol`` (of the whole matrix and of a one-matrix stack) and computed
    operator norm above it, so only the Frobenius rule's slack sends it to
    the exact test.

    ``h = diag(r) + (0.5j tol / ||a||_F) a`` with ``a = w w*`` of rank one,
    whose operator and Frobenius norms agree; the draws of ``default_rng(1)``
    are searched for one whose rounding puts the Frobenius norm below.
    """
    rng = np.random.default_rng(1)
    for _ in range(100):
        r = rng.standard_normal(2)
        w = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        a = np.outer(w, w.conj())
        h = np.diag(r) + (0.5j * tol / np.linalg.norm(a)) * a
        diff = (h - h.conj().T)[None]
        frobenius = max(np.linalg.norm(diff), np.linalg.norm(diff, axis=(-2, -1))[0])
        if frobenius <= tol < singular_values(diff)[0, 0]:
            return h
    raise AssertionError(f"no draw skews the Frobenius norm at tol {tol}")


def spectral_stack(seed: int, count: int, dim: int, kind: str, top: float) -> np.ndarray:
    """``count`` matrices ``U diag(sigma) V*`` with random unitaries ``U``, ``V``.

    ``sigma`` is ``top`` times: ``"rank_one"``, 1 and the rest below 1e-3;
    ``"tied"``, 1 twice and the rest below 1; ``"flat"``, all 1 (a multiple
    of a unitary); ``"near_unitary"``, all within 1e-6 of 1.
    """
    rng = np.random.default_rng(seed)
    shape = (2, count, dim, dim)
    q = np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
    sigma = rng.random((count, dim))
    if kind == "rank_one":
        sigma *= 1e-3
    elif kind == "near_unitary":
        sigma = 1.0 + 1e-6 * (2.0 * sigma - 1.0)
    if kind != "near_unitary":
        sigma[:, : {"rank_one": 1, "tied": 2, "flat": dim}[kind]] = 1.0
    return (q[0] * (top * sigma)[:, None, :]) @ np.conj(np.swapaxes(q[1], -1, -2))


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


def mean(phi: GroupMap) -> np.ndarray:
    """Uniform average of the map's values."""
    require_finite(phi.domain, "uniform mean")
    return phi.values.mean(axis=0)


def run_all_suites(seeds: Sequence[int], names: Sequence[str] | None = None) -> list[SuiteResult]:
    """Every registered suite, or those in ``names``, over ``seeds``."""
    return [run_suite(name, seeds) for name in (names or SUITES)]
