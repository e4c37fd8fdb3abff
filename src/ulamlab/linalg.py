"""Dense complex matrix helpers: unitarily invariant norms, polar form,
PSD square roots, and unitary exponentials.

Decompositions are delegated to LAPACK through numpy; the wrappers enforce
the tolerances and error taxonomy the rest of the library relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERMITIAN_TOL = 1e-10
PSD_TOL = 1e-10
DEFAULT_SIGMA_MIN_TOL = 1e-8


class SingularInputError(ValueError):
    """Input is singular beyond the configured tolerance."""


class NotPSDError(ValueError):
    """Hermitian input has an eigenvalue below the PSD tolerance."""


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


def uinorm(a, kind: NormKind = OPERATOR) -> float:
    """Norm of ``a`` under the selected gauge."""
    return float(gauge(singular_values(as_matrix(a)), kind))


def _asymmetry(m: np.ndarray, tol: float) -> float:
    """An upper bound on the worst ``||m - m*||`` (operator norm) over a stack.

    The Frobenius norm bounds the operator norm from above, so it is returned
    when it is within ``tol``; otherwise the exact operator norm is.
    """
    diff = m - adj(m)
    frobenius = float(np.max(np.linalg.norm(diff, axis=(-2, -1)), initial=0.0))
    if frobenius <= tol:
        return frobenius
    return float(singular_values(diff)[..., 0].max(initial=0.0))


def _require_hermitian(m: np.ndarray, what: str) -> np.ndarray:
    defect = _asymmetry(m, HERMITIAN_TOL)
    if defect > HERMITIAN_TOL:
        raise ValueError(
            f"{what} needs a Hermitian matrix: asymmetry {defect:.3e} "
            f"exceeds {HERMITIAN_TOL:.0e}"
        )
    return (m + adj(m)) / 2.0


def polar(a, sigma_min_tol: float = DEFAULT_SIGMA_MIN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Polar decomposition ``a = u @ p`` with ``u`` unitary and ``p`` PSD.

    ``a`` may be a stack, decomposed matrix by matrix.  Raises
    :class:`SingularInputError` when a smallest singular value falls below
    ``sigma_min_tol``, naming the first such matrix's.
    """
    m = _as_matrices(a)
    u_left, s, vh = np.linalg.svd(m)
    smallest = s[..., -1].ravel()
    low = np.flatnonzero(smallest < sigma_min_tol)
    if low.size:
        raise SingularInputError(
            f"smallest singular value {smallest[low[0]]:.3e} is below {sigma_min_tol:.3e}"
        )
    u = u_left @ vh
    p = adj(vh) @ (s[..., :, None] * vh)
    p = (p + adj(p)) / 2.0
    return u, p


def psd_sqrt(h) -> np.ndarray:
    """PSD square root; eigenvalues in ``[-PSD_TOL, 0)`` are clamped to zero."""
    m = _require_hermitian(as_matrix(h), "PSD square root")
    w, v = np.linalg.eigh(m)
    if w[0] < -PSD_TOL:
        raise NotPSDError(f"minimum eigenvalue {w[0]:.3e} is below -{PSD_TOL:.0e}")
    w = np.maximum(w, 0.0)
    return (v * np.sqrt(w)) @ v.conj().T


def unitary_exp(h) -> np.ndarray:
    """``exp(i h)`` for Hermitian ``h``, or for each matrix of a stack; the result is unitary."""
    m = _require_hermitian(_as_matrices(h), "unitary exponential")
    w, v = np.linalg.eigh(m)
    return (v * np.exp(1j * w)[..., None, :]) @ adj(v)
