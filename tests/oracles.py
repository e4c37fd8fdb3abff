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
