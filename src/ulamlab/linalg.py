"""Dense complex matrix helpers: unitarily invariant norms, polar form and
unitary exponentials.

Decompositions are delegated to LAPACK through numpy; the wrappers enforce
the tolerances and error taxonomy the rest of the library relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-10
SIGMA_MIN_TOL = 1e-8

# Rounding
#
# One model (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
# sec. 3.5) settles every skip of an exact operator norm.  The unit roundoff
# u is 2^-53 in double precision and 2^-24 in single.  A computed d x d
# complex product errs by at most gamma_2d |A||B| <= 2 d^2 u ||A|| ||B|| in
# operator norm.  A backward stable SVD returns the singular values of A + E,
# ||E|| <= p(d) u ||A|| with p(d) u about d 2^-52, so each is within p(d) u
# sigma_max(A) of the exact one (Weyl).  A computed Frobenius norm, the root
# of 2 d^2 squares, errs by at most d^2 u relative.  The slack S covers these
# two, together below 1e-8, for d up to 10^4 and tolerances from about
# 1e-150: below that, entries near tol square to subnormals or 0 (a 2 x 2
# stack of entries 1e-170 has Frobenius norm 0.0 and sigma_max 2e-170).
UNIT_ROUNDOFF = 2.0**-53
SINGLE_ROUNDOFF = 2.0**-24
FROBENIUS_SLACK = 1e-6  # S, relative, of every bound formed in double precision


def _frobenius_within(frobenius: float, tol: float) -> bool:
    """Whether the largest computed Frobenius norm of a stack certifies every
    computed operator norm in it at most ``tol`` (``sigma_max <= ||R||_F``)."""
    return frobenius <= tol / (1.0 + FROBENIUS_SLACK)


def _frobenius_at_least(frobenius: float, dim: int, tol: float) -> bool:
    """Whether the largest computed Frobenius norm of a stack of ``dim x dim``
    matrices certifies the largest computed operator norm at least ``tol``
    (``sigma_max >= ||R||_F / sqrt(d)``).  NaN and inf certify neither."""
    return math.isfinite(frobenius) and frobenius >= math.sqrt(dim) * tol * (1.0 + FROBENIUS_SLACK)


class SingularInputError(ValueError):
    """Input is singular beyond the configured tolerance."""


@dataclass(frozen=True)
class NormKind:
    """Selector for a unitarily invariant norm.

    ``kind`` is one of ``"operator"``, ``"schatten"`` or ``"ky_fan"``.
    Schatten norms take an order ``p >= 1``; Ky Fan norms take a rank
    ``k >= 1``.  With ``trace_normalized`` set, singular values are weighted
    by ``1/dim`` before aggregation; the flag only affects Schatten norms.
    """

    kind: str = "operator"
    p: float = 2.0
    k: int = 1
    trace_normalized: bool = False

    def __post_init__(self) -> None:
        if self.kind not in ("operator", "schatten", "ky_fan"):
            raise ValueError(f"unknown norm kind {self.kind!r}")
        if self.kind == "schatten" and not self.p >= 1.0:
            raise ValueError(f"Schatten order must be >= 1, got {self.p}")
        if self.kind == "ky_fan" and self.k < 1:
            raise ValueError(f"Ky Fan rank must be >= 1, got {self.k}")

    def describe(self) -> str:
        if self.kind == "operator":
            return "operator"
        if self.kind == "schatten":
            tag = f"schatten:{self.p:g}"
            return tag + ":normalized" if self.trace_normalized else tag
        return f"kyfan:{self.k}"


OPERATOR = NormKind("operator")


def schatten(p: float, normalized: bool = False) -> NormKind:
    return NormKind("schatten", p=float(p), trace_normalized=normalized)


def ky_fan(k: int) -> NormKind:
    return NormKind("ky_fan", k=int(k))


def parse_norm(text: str) -> NormKind:
    """Parse ``"operator"``, ``"schatten:p[:normalized]"`` or ``"kyfan:k"``."""
    parts = text.strip().lower().split(":")
    head = parts[0]
    if head == "operator" and len(parts) == 1:
        return OPERATOR
    if head == "schatten" and len(parts) in (2, 3):
        if len(parts) == 3 and parts[2] != "normalized":
            raise ValueError(f"bad norm spec {text!r}")
        try:
            p = float(parts[1])
        except ValueError:
            raise ValueError(f"bad norm spec {text!r}") from None
        return schatten(p, normalized=len(parts) == 3)
    if head in ("kyfan", "ky_fan") and len(parts) == 2:
        try:
            k = int(parts[1])
        except ValueError:
            raise ValueError(f"bad norm spec {text!r}") from None
        return ky_fan(k)
    raise ValueError(f"bad norm spec {text!r}")


def _as_matrices(a) -> np.ndarray:
    """Coerce to a square complex matrix or a stack of them, rejecting non-finite entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2] or m.shape[-1] == 0:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def as_matrix(a) -> np.ndarray:
    """Coerce to a square complex matrix, rejecting non-finite entries."""
    m = _as_matrices(a)
    if m.ndim != 2:
        raise ValueError(f"expected a nonempty square matrix, got shape {m.shape}")
    return m


def adj(values: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix or of each matrix in a stack."""
    return np.conj(np.swapaxes(values, -1, -2))


def singular_values(a: np.ndarray) -> np.ndarray:
    """Singular values in descending order; accepts a stack of matrices."""
    return np.linalg.svd(a, compute_uv=False)


def gauge(sigma: np.ndarray, kind: NormKind):
    """Apply the symmetric gauge function of ``kind`` along the last axis.

    ``sigma`` must hold singular values in descending order, as returned by
    :func:`singular_values`.
    """
    if not isinstance(kind, NormKind):
        raise ValueError(f"expected a NormKind, got {type(kind).__name__}")
    sigma = np.asarray(sigma, dtype=np.float64)
    if kind.kind == "operator":
        return sigma[..., 0]
    if kind.kind == "schatten":
        w = sigma / sigma.shape[-1] if kind.trace_normalized else sigma
        if np.isinf(kind.p):
            return w[..., 0]
        return (w**kind.p).sum(axis=-1) ** (1.0 / kind.p)
    k = min(kind.k, sigma.shape[-1])
    return sigma[..., :k].sum(axis=-1)


def op_norm(a) -> float:
    """Operator (spectral) norm."""
    return float(singular_values(as_matrix(a))[0])


def _require_hermitian(m: np.ndarray, what: str) -> np.ndarray:
    """``(m + m*) / 2``, refusing a stack whose worst ``||m - m*||`` (operator
    norm) exceeds ``HERMITIAN_TOL``.  The exact norm is taken only when the
    largest Frobenius norm does not certify it (`_frobenius_within`)."""
    diff = m - adj(m)
    defect = float(np.max(np.linalg.norm(diff, axis=(-2, -1)), initial=0.0))
    if not _frobenius_within(defect, HERMITIAN_TOL):
        defect = float(singular_values(diff)[..., 0].max(initial=0.0))
    if defect > HERMITIAN_TOL:
        raise ValueError(
            f"{what} needs a Hermitian matrix: asymmetry {defect:.3e} "
            f"exceeds {HERMITIAN_TOL:.0e}"
        )
    return (m + adj(m)) / 2.0


def _polar_unitary(a) -> tuple[np.ndarray, ...]:
    """``(u, s, vh)``: the unitary polar factor of ``a`` (or of each matrix of a
    stack) and the SVD parts it is formed from; :func:`_require_invertible`
    refuses as :func:`polar` does."""
    u_left, s, vh = np.linalg.svd(_as_matrices(a))
    return u_left @ vh, s, vh


def _require_invertible(s: np.ndarray) -> None:
    """Refuse singular values ``s`` (a row per matrix) whose smallest is below ``SIGMA_MIN_TOL``."""
    smallest = s[..., -1].ravel()
    low = np.flatnonzero(smallest < SIGMA_MIN_TOL)
    if low.size:
        raise SingularInputError(
            f"smallest singular value {smallest[low[0]]:.3e} is below {SIGMA_MIN_TOL:.3e}"
        )


def polar(a) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition ``a = u @ p`` with ``u`` unitary and ``p`` PSD.

    ``a`` may be a stack, decomposed matrix by matrix.  Raises
    :class:`SingularInputError` when a smallest singular value falls below
    ``SIGMA_MIN_TOL``, naming the first such matrix's.  The package's snap
    forms only ``u`` (:func:`_polar_unitary`); the tests and the benchmark's
    tracer (``bench/spans.py``) take this function as its reference.
    """
    u, s, vh = _polar_unitary(a)
    _require_invertible(s)
    p = adj(vh) @ (s[..., :, None] * vh)
    p = (p + adj(p)) / 2.0
    return u, p


def unitary_exp(h) -> np.ndarray:
    """``exp(i h)`` for Hermitian ``h``, or for each matrix of a stack; the result is unitary."""
    m = _require_hermitian(_as_matrices(h), "unitary exponential")
    w, v = np.linalg.eigh(m)
    return (v * np.exp(1j * w)[..., None, :]) @ adj(v)
