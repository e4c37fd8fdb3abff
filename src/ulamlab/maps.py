"""Matrix-valued maps on group domains and their defect measurements.

A :class:`GroupMap` assigns a ``dim x dim`` complex matrix to every element
of a finite group or free-ball domain.  The measurements quantify how far a
map is from being a multiplicative, unitary-valued representation.
"""

from __future__ import annotations

import contextlib
import functools
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .linalg import OPERATOR, NormKind, adj
from .groups import (
    FiniteGroup,
    FreeBall,
    UnsupportedDomainError,
    n_elements,
)

GRAM_HERMITIAN_TOL = 1e-8
MAX_GRAM_DIM = 8192
_PAIR_CHUNK = 1 << 22  # complex entries per batch of pair products
# Complex entries each kernel thread must get before a split pays for waking
# it.  Measured on a 2-core VM at one BLAS thread: the unit defect of 24
# values of 24x24 (6,912 entries a thread) took 5.8 ms serial and 8.2 ms
# split; of 32 values of 32x32 (16,384) 13.1 ms serial and 8.7 ms split.
_MIN_SPLIT = 1 << 14
# Complex entries a kernel thread takes at a time.  A thread keeps the memory
# of its largest block in its own malloc arena, so whole shares raised the peak
# RSS of three symmetric:4 `verify` seeds by 10.5 MiB; blocks of 2^15 entries
# raise it by 2.3 MiB and run no slower.
_SPLIT_BLOCK = 1 << 15
# Complex entries the bound pass of `_op_argmax` takes at a time, serial or
# split.  A block's temporaries (128 KiB each) then stay below glibc's default
# mmap threshold and reuse heap pages: blocks of `_SPLIT_BLOCK` entries are
# mapped and faulted in afresh on every call, which doubled the time of the
# pass over the 576 pair defects of a symmetric:4 map (34 ms against 16 ms).
_BOUND_BLOCK = 1 << 13
# Smallest stack whose operator-norm max is filtered by an upper bound
# (`_op_argmax`): at least this many complex entries and this many matrices.
_MIN_FILTER = 1 << 10
_MIN_FILTER_COUNT = 16
_BOUND_SLACK = 1e-6  # relative; see `_op_argmax`


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
    return domain.pairs


def _blocks(count: int, entries: int, block: int | None = None):
    """Slices of ``count`` items of ``entries`` complex entries each.

    A block holds at most ``block`` (if given) and ``_PAIR_CHUNK`` entries,
    or one item when an item is larger.
    """
    step = max(1, min(block or _PAIR_CHUNK, _PAIR_CHUNK) // entries)
    for lo in range(0, count, step):
        yield slice(lo, lo + step)


@functools.cache
def _cores() -> int:
    """The cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


_budget = threading.local()  # .threads: kernel threads the calling thread may use
_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


@contextlib.contextmanager
def _kernel_threads(threads: int):
    """Let kernels called from this thread use ``threads`` threads (unset: every core)."""
    saved = getattr(_budget, "threads", None)
    _budget.threads = threads
    try:
        yield
    finally:
        _budget.threads = saved


def _executor() -> ThreadPoolExecutor:
    """The kernel pool, made on the first split; the caller runs one share itself."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, _cores() - 1), thread_name_prefix="ulamlab-kernel")
        return _pool


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: make a new pool on demand."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _run_share(fn: Callable[[slice], object], share: list[slice]) -> list:
    with _kernel_threads(1):  # a share never splits again
        return [fn(sl) for sl in share]


def _for_blocks(
    count: int, entries: int, fn: Callable[[slice], object], block: int | None = None
) -> list:
    """``fn`` of every block of ``count`` items of ``entries`` complex entries, in order.

    Serially the blocks are those of ``_blocks(count, entries, block)``.
    When the calling thread's budget allows ``t > 1`` threads and each gets
    at least ``_MIN_SPLIT`` entries, the items are cut into ``t`` contiguous
    shares and each share into blocks of at most ``block`` (by default
    ``_SPLIT_BLOCK``) and ``_PAIR_CHUNK / t`` entries (or one item), so the
    entries in flight stay within ``_PAIR_CHUNK``.
    ``fn`` must write only the rows of its block and compute each row
    independently of the others (batched products and decompositions do),
    which makes the result the same at every budget.  The exception of the
    first failing block is raised.
    """
    threads = min(count, count * entries // _MIN_SPLIT)
    if threads > 1:
        threads = min(threads, getattr(_budget, "threads", None) or _cores())
    if threads <= 1:
        return [fn(sl) for sl in _blocks(count, entries, block)]
    step = max(1, min(_PAIR_CHUNK // threads, block or _SPLIT_BLOCK) // entries)
    cuts = [count * i // threads for i in range(threads + 1)]
    shares = [
        [slice(lo, min(lo + step, hi)) for lo in range(start, hi, step)]
        for start, hi in zip(cuts, cuts[1:])
    ]
    futures = [_executor().submit(_run_share, fn, share) for share in shares[1:]]
    try:
        out = _run_share(fn, shares[0])
    finally:
        wait(futures)
    return out + [part for future in futures for part in future.result()]


def batch_norms(mats: np.ndarray, kind: NormKind = OPERATOR) -> np.ndarray:
    """Norm of each matrix in a ``(count, d, d)`` stack under ``kind``."""
    norms = np.empty(len(mats))

    def fill(sl: slice) -> None:
        norms[sl] = linalg.gauge(linalg.singular_values(mats[sl]), kind)

    _for_blocks(len(mats), mats.shape[-1] * mats.shape[-2], fill)
    return norms


def _op_bounds(mats: np.ndarray) -> np.ndarray:
    """An upper bound on the operator norm of each matrix of a stack.

    With ``s = max |a_ij|`` and ``b = a / s`` the bound is
    ``s ||(b* b)^4||_F^(1/8) = (sum_i sigma_i^16)^(1/16) >= sigma_max``, from
    three batched products.  Scaling by the largest entry keeps
    ``sigma_max(b)`` within ``[1, d]``, so the powers neither underflow nor
    overflow at any scale of ``a``; a zero matrix gets 0, and a matrix with
    a non-finite entry gets NaN or inf.
    """
    s = np.abs(mats).max(axis=(-2, -1))
    b = mats / np.where(s > 0.0, s, 1.0)[:, None, None]
    c = adj(b) @ b
    c = c @ c
    c = c @ c
    return s * np.linalg.norm(c, axis=(-2, -1)) ** 0.125


def _op_argmax(
    count: int, dim: int, take: Callable[[slice | np.ndarray], np.ndarray]
) -> tuple[float, int]:
    """The largest operator norm in a stack of ``count`` ``dim x dim``
    matrices, and the first index attaining it.

    ``take(index)`` returns the matrices at a slice or an index array.  The
    result is bit-identical to the max and the first argmax of
    ``linalg.singular_values(stack)[:, 0]``: each matrix's largest singular
    value is bounded from above by ``_op_bounds``, the matrix of the largest
    bound is decomposed, and only the matrices whose bound does not fall
    below that value are decomposed again with it.  A stack below the
    ``_MIN_FILTER`` gate decomposes every matrix.
    """
    entries = dim * dim
    if count < _MIN_FILTER_COUNT or count * entries < _MIN_FILTER:
        return _first_max(count, entries, take)
    bounds = np.empty(count)

    def bound(sl: slice) -> None:
        bounds[sl] = _op_bounds(take(sl))

    _for_blocks(count, entries, bound, _BOUND_BLOCK)
    top = int(np.argmax(bounds))
    best = linalg.singular_values(take(slice(top, top + 1)))[0, 0]
    if bounds[top] == 0.0:  # every matrix is zero, so is every norm
        return float(best), 0
    # The bound and the decomposition each carry a relative rounding error of
    # order dim^1.5 * 2^-52 (below 1e-9 up to dim 10^4).  A slack far above
    # that keeps every matrix whose computed norm could reach ``best``, ties
    # included; a NaN bound is never below ``best`` and stays.
    index = np.flatnonzero(~(bounds * (1.0 + _BOUND_SLACK) < best))
    value, w = _first_max(len(index), entries, lambda sl: take(index[sl]))
    return value, int(index[w])


def _first_max(
    count: int, entries: int, take: Callable[[slice], np.ndarray]
) -> tuple[float, int]:
    """The max and first argmax of the operator norms of every matrix of a stack."""
    norms = np.empty(count)

    def exact(sl: slice) -> None:
        norms[sl] = linalg.singular_values(take(sl))[:, 0]

    _for_blocks(count, entries, exact)
    w = int(np.argmax(norms))
    return float(norms[w]), w


def _pair_defects(phi: GroupMap, pairs: tuple[np.ndarray, np.ndarray, np.ndarray], at):
    """``phi(x)phi(y) - phi(xy)`` for the pairs of ``_pair_arrays`` at a slice or index array."""
    xs, ys, ks = pairs
    return phi.values[xs[at]] @ phi.values[ys[at]] - phi.values[ks[at]]


def _pair_scan(
    phi: GroupMap, kinds: Sequence[NormKind]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The ``x`` and ``y`` of every defined pair and its defect norm under each kind.

    The norms have one row per kind; every defect is decomposed once.
    """
    pairs = xs, ys, _ = _pair_arrays(phi.domain)
    norms = np.empty((len(kinds), len(xs)))

    def scan(sl: slice) -> None:
        sigma = linalg.singular_values(_pair_defects(phi, pairs, sl))
        for row, kind in enumerate(kinds):
            norms[row, sl] = linalg.gauge(sigma, kind)

    _for_blocks(len(xs), phi.dim * phi.dim, scan)
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
    ball.  The operator norm decomposes only the pairs that can attain the
    maximum (``_op_argmax``).
    """
    if kind.kind != "operator":
        xs, ys, norms = _pair_scan(phi, (kind,))
        w = int(np.argmax(norms[0]))
        return float(norms[0, w]), (int(xs[w]), int(ys[w]))
    pairs = xs, ys, _ = _pair_arrays(phi.domain)
    value, w = _op_argmax(len(xs), phi.dim, lambda at: _pair_defects(phi, pairs, at))
    return value, (int(xs[w]), int(ys[w]))


def unit_defect(phi: GroupMap) -> tuple[float, int]:
    """Worst of ``1 - v v*`` and ``1 - v* v`` in operator norm, with witness.

    The witness is the first element whose left or right defect is the worst.
    """
    v = phi.values
    eye = np.eye(phi.dim, dtype=np.complex128)
    # element x's left defect at row 2x, its right defect at 2x + 1, formed in
    # place block by block: whole-stack temporaries doubled the peak memory
    sides = np.empty((len(v), 2, phi.dim, phi.dim), dtype=np.complex128)

    def fill(sl: slice) -> None:
        np.matmul(v[sl], adj(v[sl]), out=sides[sl, 0])
        np.matmul(adj(v[sl]), v[sl], out=sides[sl, 1])
        np.subtract(eye, sides[sl], out=sides[sl])

    _for_blocks(len(v), 2 * phi.dim * phi.dim, fill, _BOUND_BLOCK)
    value, w = _op_argmax(2 * len(v), phi.dim, sides.reshape(-1, phi.dim, phi.dim).__getitem__)
    return value, w // 2


def iso_defect(phi: GroupMap) -> float:
    """Worst ``1 - v* v`` deviation alone (isometry defect)."""
    v = phi.values
    eye = np.eye(phi.dim, dtype=np.complex128)
    return _op_argmax(len(v), phi.dim, (eye - adj(v) @ v).__getitem__)[0]


def sup_norm(phi: GroupMap) -> float:
    # Not `_op_argmax`: every value of a unitary-valued map has norm 1 and
    # stays a candidate, and the filter then took 1.3-2.6 times as long as
    # decomposing every value (16 to 576 values of dimension 2 to 24).
    return float(batch_norms(phi.values).max())


def distance(phi: GroupMap, psi: GroupMap, kind: NormKind = OPERATOR) -> float:
    """Uniform distance ``max_x ||phi(x) - psi(x)||`` under ``kind``."""
    _require_compatible(phi, psi)
    if kind.kind != "operator":
        return float(batch_norms(phi.values - psi.values, kind).max())
    return _op_argmax(len(phi.values), phi.dim, (phi.values - psi.values).__getitem__)[0]


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


def map_to_dict(phi: GroupMap) -> dict:
    """JSON form: complex scalars as [re, im] pairs, matrices row-major."""
    return {
        "group": phi.domain.label,
        "dim": phi.dim,
        "values": {str(i): _encode_matrix(phi.values[i]) for i in range(len(phi.values))},
    }

