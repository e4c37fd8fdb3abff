"""Matrix-valued maps on group domains and their defect measurements.

A :class:`GroupMap` assigns a ``dim x dim`` complex matrix to every element
of a finite group or free-ball domain.  The measurements quantify how far a
map is from being a multiplicative, unitary-valued representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import linalg
from .executor import _blocks, _collect, _for_blocks
from .linalg import FROBENIUS_SLACK, OPERATOR, SINGLE_ROUNDOFF, UNIT_ROUNDOFF, NormKind, adj
from .groups import FiniteGroup, FreeBall, n_elements, require_finite

GRAM_HERMITIAN_TOL = 1e-8
MAX_GRAM_DIM = 8192
# Smallest Gram dimension whose eigensolve runs on the spare core beside
# the averaging step's other checks (`stabilize.kazhdan_step`).  numpy
# (2.4.6) lets go of the GIL in a linalg call only when its loop is longer
# than 500 (`eigvalsh`: the Gram dimension), so a smaller eigensolve stalls
# the caller's checks instead.
# Measured on a 2-core VM at one BLAS thread, the eigensolve beside the
# checks against inline: `kazhdan_step` with the estimate checks took
# 11.7 / 10.1 ms on cyclic:12 (144), 30.4 / 24.8 ms on cyclic:16 (256) and
# 76 / 61 ms on cyclic:20 (400); the averaging suite took 93 / 139 ms a
# symmetric:4 seed (576).
_MIN_GRAM_ALONGSIDE = 501
# Complex entries the bound passes of `_op_argmax` take at a time, serial or
# split.  The single-precision temporaries of a block (128 KiB each) stay
# below glibc's default mmap threshold and reuse heap pages, and a block of
# pair defects is formed into one array (`_pair_defects`).  The four scans of
# a symmetric:4 `stabilize` seed at two kernel threads took 62 ms at 2^13
# entries, 48-50 ms at 2^14 and 66-71 ms at 2^15, whose double-precision
# temporaries (512 KiB) were mapped and faulted in afresh: 10,300 page
# faults a seed against 180.
_BOUND_BLOCK = 1 << 14
# Complex entries of a row of pair products (n d^2) from which a block of
# a finite group's pair defects is formed row by row (`_pair_defects`), one
# matmul call a row, instead of from three gathered factors.  A block of
# dihedral:4's 64 pairs (rows of 512 entries) took 107 us row by row and 83
# us gathered; of cyclic:12's 113 (1,728) 215 us and 477 us.
_MIN_ROW = 1 << 10
# Smallest stack whose operator-norm max is filtered by an upper bound
# (`_op_argmax`): at least this many complex entries and this many matrices.
# The candidates of the first bound pass, the top matrix aside, are bounded
# again when at least `_MIN_FILTER_COUNT` of them remain.
_MIN_FILTER = 1 << 10
_MIN_FILTER_COUNT = 16
# Largest dimension whose first bound pass runs in single precision; its
# slack (`_bound_slack`) is derived in `_op_argmax`.
_SINGLE_MAX_DIM = 256


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


def _pair_count(domain: FiniteGroup | FreeBall) -> int:
    """The number of defined products."""
    if isinstance(domain, FiniteGroup):
        return domain.order**2
    return len(domain.pairs[0])


def _pair_arrays(
    domain: FiniteGroup | FreeBall, at: slice | np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Indices (x, y, xy) of every defined product, or of those at a slice or
    index array of them.

    A finite group's pairs are ``(x, y)`` in row-major order, derived from
    their flat indices; a free ball's are ``FreeBall.pairs``.
    """
    if isinstance(domain, FreeBall):
        return domain.pairs if at is None else tuple(a[at] for a in domain.pairs)
    n = domain.order
    if at is None or isinstance(at, slice):
        at = np.arange(*(at or slice(None)).indices(n * n))
    xs, ys = np.divmod(at, n)
    return xs, ys, domain.mul[xs, ys]


def _stack_norms(
    count: int,
    dim: int,
    take: Callable[[slice], np.ndarray],
    kinds: Sequence[NormKind] = (OPERATOR,),
) -> np.ndarray:
    """The norm of every matrix of a stack of ``count`` ``dim x dim`` matrices
    under each of ``kinds``, one row per kind.

    ``take(sl)`` returns the matrices at a slice.  Each matrix is decomposed
    once, in the blocks of ``_for_blocks``.
    """
    norms = np.empty((len(kinds), count))

    def fill(sl: slice) -> None:
        sigma = linalg.singular_values(take(sl))
        for row, kind in enumerate(kinds):
            norms[row, sl] = linalg.gauge(sigma, kind)

    _for_blocks(count, dim * dim, fill)
    return norms


def batch_norms(mats: np.ndarray) -> np.ndarray:
    """Operator norm of each matrix in a ``(count, d, d)`` stack."""
    return _stack_norms(len(mats), mats.shape[-1], mats.__getitem__)[0]


def _bound_slack(dim: int) -> float:
    """Relative slack of the first bound pass of `_op_argmax` at ``dim``."""
    if dim > _SINGLE_MAX_DIM:
        return FROBENIUS_SLACK
    return FROBENIUS_SLACK + 2.0 * dim * dim * SINGLE_ROUNDOFF


def _op_bounds(mats: np.ndarray, squarings: int = 2, single: bool | None = None) -> np.ndarray:
    """An upper bound on the operator norm of each matrix of a stack.

    With ``s = max(|Re a_ij|, |Im a_ij|)``, ``b = a / s`` and ``k =
    squarings`` the bound is ``s ||(b* b)^(2^k)||_F^(2^-k-1) = (sum_i
    sigma_i^(2^(k+2)))^(2^-k-2) >= sigma_max``, from ``k + 1`` batched
    products in single precision (by default up to `_SINGLE_MAX_DIM`) or
    double.  Scaling keeps ``sigma_max(b)`` within ``[1, sqrt(2) d]``, so the
    products neither underflow nor overflow at any scale of ``a``; only the
    single-precision sum of squares of a stack near rank one overflows (from
    ``d`` about 150), and its bound is inf.  A zero matrix gets 0, and a
    matrix with a non-finite entry gets NaN: ``s`` is taken over the entries
    that are not NaN, so a NaN entry does not leave its matrix unscaled.
    """
    if single is None:
        single = mats.shape[-1] <= _SINGLE_MAX_DIM
    real = np.float32 if single else np.float64
    parts = np.ascontiguousarray(mats).reshape(len(mats), -1).view(np.float64)
    s = np.fmax(np.fmax.reduce(parts, axis=1), -np.fmin.reduce(parts, axis=1))
    scaled = np.empty(parts.shape, real)  # b, written without a double copy
    with np.errstate(invalid="ignore"):  # an inf entry over s = inf gives NaN
        np.divide(parts, np.where(s > 0.0, s, 1.0)[:, None], out=scaled, casting="same_kind")
    b = scaled.view(np.complex64 if single else np.complex128).reshape(mats.shape)
    c = np.swapaxes(b, -1, -2) @ b.conj()  # conj(b* b): the same Frobenius norms
    for _ in range(squarings):
        c = c @ c
    flat = c.reshape(len(c), -1).view(real)
    squares = np.einsum("ij,ij->i", flat, flat).astype(np.float64)
    return s * squares ** (0.5 ** (squarings + 2))


def _op_argmax(
    count: int, dim: int, take: Callable[[slice | np.ndarray], np.ndarray]
) -> tuple[float, int]:
    """The largest operator norm in a stack of ``count`` ``dim x dim``
    matrices, and the first index attaining it.

    ``take(index)`` returns the matrices at a slice or an index array.  The
    result is bit-identical to the max and the first argmax of
    ``linalg.singular_values(stack)[:, 0]``: each matrix's largest singular
    value is bounded from above by ``_op_bounds``, the matrix of the largest
    bound (the top) is decomposed, and only the matrices whose bound does
    not fall below its value are kept.  When at least `_MIN_FILTER_COUNT`
    remain besides the top they are bounded again, four squarings deep in
    double precision, and the survivors are decomposed.  A stack below the
    ``_MIN_FILTER`` gate decomposes every matrix.  A stack of one bound block
    (`_BOUND_BLOCK` entries) is taken once, as one array, and bounded unsplit.
    """
    entries = dim * dim
    if count < _MIN_FILTER_COUNT or count * entries < _MIN_FILTER:
        norms = _stack_norms(count, dim, take)[0]
        w = int(np.argmax(norms))
        return float(norms[w]), w
    one_block = count * entries <= _BOUND_BLOCK
    if one_block:  # formed once, and its bound passes run unsplit
        take = take(slice(0, count)).__getitem__

    def bound(items: int, fn: Callable[[slice], np.ndarray]) -> np.ndarray:
        if one_block:
            return fn(slice(0, items))
        return _collect(np.empty(items), entries, fn, _BOUND_BLOCK)

    bounds = bound(count, lambda sl: _op_bounds(take(sl)))
    top = int(np.argmax(bounds))
    best = linalg.singular_values(take(slice(top, top + 1)))[0, 0]
    if bounds[top] == 0.0:  # every matrix is zero, so is every norm
        return float(best), 0
    # Rounding, to first order (`linalg`'s Rounding section, u = 2^-24): the
    # products of the single-precision pass make (b* b)^4 err by at most
    # (1 + 2 + 4) 2 d^2 u sigma^8, and the bound, its 8th root, by 7/4 d^2 u
    # sigma.  The sum of 2 d^2 squares adds d^2 u / 8 after its 16th root,
    # rounding b sqrt(d) u, and the SVD of ``best`` p(d) 2^-53.  Their sum stays
    # below `_bound_slack`, 2 d^2 u + S, and so does the remainder of higher
    # order up to d = 256: no matrix whose computed norm could reach ``best``,
    # ties included, has a bound below ``best / (1 + slack)``.  The double
    # pass, five products in 2^-53, errs by 31/32 2 d^2 2^-53 after its 32nd
    # root, below 1e-7 up to d = 2 10^4, within S.  A NaN bound stays.
    index = np.flatnonzero(~(bounds < best / (1.0 + _bound_slack(dim))))
    index = index[index != top]
    if len(index) >= _MIN_FILTER_COUNT:
        fine = bound(len(index), lambda sl: _op_bounds(take(index[sl]), 4, single=False))
        index = index[~(fine < best / (1.0 + FROBENIUS_SLACK))]
    # The norms go where the bounds were, the top's back in its place, and
    # every matrix left out ranks below them, so that argmax finds the first
    # max (or NaN).
    norms = bounds
    norms.fill(-np.inf)
    norms[index] = _stack_norms(len(index), dim, lambda sl: take(index[sl]))[0]
    norms[top] = best
    w = int(np.argmax(norms))
    return float(norms[w]), w


def _pair_defects(phi: GroupMap, at: slice | np.ndarray) -> np.ndarray:
    """``phi(x)phi(y) - phi(xy)`` for the pairs of ``_pair_arrays`` at a slice or index array.

    A slice of a finite group's pairs whose rows hold `_MIN_ROW` entries is
    formed row by row, ``phi(x)`` times a run of consecutive values, so
    neither factor is gathered.
    """
    v, domain = phi.values, phi.domain
    n = n_elements(domain)
    by_rows = isinstance(at, slice) and isinstance(domain, FiniteGroup)
    if not by_rows or n * phi.dim**2 < _MIN_ROW:
        xs, ys, ks = _pair_arrays(domain, at)
        return v[xs] @ v[ys] - v[ks]
    lo, hi, _ = at.indices(n * n)
    out = np.empty((hi - lo, phi.dim, phi.dim), dtype=v.dtype)
    for x in range(lo // n, -(-hi // n)):
        start, stop = max(lo, x * n), min(hi, x * n + n)
        np.matmul(v[x], v[start - x * n : stop - x * n], out=out[start - lo : stop - lo])
    return np.subtract(out, v[np.ravel(domain.mul)[lo:hi]], out=out)


def pair_defect_norms(
    phi: GroupMap, kind: NormKind | Sequence[NormKind] = OPERATOR
) -> np.ndarray:
    """Norm of ``phi(x)phi(y) - phi(xy)`` for every defined pair.

    Entries follow the order of ``_pair_arrays``, so a finite group's result
    reshapes to ``(n, n)`` indexed by ``[x, y]``.  A sequence of kinds gives
    one row per kind from a single scan.  Products are formed at most
    ``executor._BLOCK`` complex entries (or one pair) a thread at a time,
    which bounds the memory of the scan independently of the number of pairs.
    """
    kinds = (kind,) if isinstance(kind, NormKind) else tuple(kind)
    norms = _stack_norms(_pair_count(phi.domain), phi.dim, lambda sl: _pair_defects(phi, sl), kinds)
    return norms[0] if isinstance(kind, NormKind) else norms


def mult_defect(phi: GroupMap, kind: NormKind = OPERATOR) -> tuple[float, tuple[int, int]]:
    """Worst deviation from multiplicativity and the first pair attaining it.

    Free-ball domains are scanned only over pairs whose product stays in the
    ball.  The operator norm decomposes only the pairs that can attain the
    maximum (``_op_argmax``).
    """
    if kind.kind == "operator":
        count = _pair_count(phi.domain)
        value, w = _op_argmax(count, phi.dim, lambda at: _pair_defects(phi, at))
    else:
        norms = pair_defect_norms(phi, kind)
        w = int(np.argmax(norms))
        value = float(norms[w])
    xs, ys, _ = _pair_arrays(phi.domain, np.array([w]))
    return value, (int(xs[0]), int(ys[0]))


def unit_defect(phi: GroupMap, sigma: np.ndarray | None = None) -> tuple[float, int]:
    """Worst of ``1 - v v*`` and ``1 - v* v`` in operator norm, with witness.

    The witness is the first element whose left or right defect is the worst.
    Given ``sigma``, the values' singular values, only sides that can attain it are formed.
    """
    return _side_argmax(phi, sigma, 2)


def _unit_bounds(dim: int, sigma: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bounds on the computed norm of either side (`_unit_sides`) of each value
    about ``max_i |1 - sigma_i^2|``, the exact norm of both, from ``sigma``."""
    estimate = np.abs(1.0 - sigma * sigma).max(axis=1)
    # Rounding, to first order (`linalg`'s Rounding section, u = 2^-53), with
    # s = sigma_max(v): the SVD of v moves each sigma_i^2 by 2 p(d) u s^2 and
    # the estimate's arithmetic adds 2 u (1 + s^2).  The side formed, fl(1 -
    # fl(v v*)), is within 2 d^2 u s^2 + sqrt(d) u (1 + s^2) of 1 - v v*, and
    # its SVD errs by p(d) u (1 + s^2): in all (2 d^2 + 6 d + sqrt(d) + 2) u
    # (1 + s^2) <= 16 d^2 u (1 + s^2).  A NaN or inf estimate stays NaN or inf.
    slack = 16.0 * UNIT_ROUNDOFF * dim * dim * (1.0 + sigma[:, 0] ** 2)
    return estimate - slack, estimate + slack


def _side_argmax(phi: GroupMap, sigma: np.ndarray | None, sides: int) -> tuple[float, int]:
    """The largest norm of the ``sides`` (2, or 1: ``1 - v* v``) of `_unit_sides` and the
    first element attaining it, over the elements whose `_unit_bounds` can reach it."""
    d, keep = phi.dim, np.arange(len(phi.values))
    if sigma is not None:  # every element if a bound is NaN
        lower, upper = _unit_bounds(d, sigma)
        keep = np.flatnonzero(~(upper < np.max(lower)))
    # formed in place block by block: whole-stack temporaries doubled the peak memory
    stack = np.empty((len(keep), sides, d, d), dtype=np.complex128)
    _for_blocks(len(keep), sides * d * d, lambda sl: _unit_sides(phi, keep[sl], stack[sl]), _BOUND_BLOCK)
    value, w = _op_argmax(sides * len(keep), d, stack.reshape(-1, d, d).__getitem__)
    return value, int(keep[w // sides])


def _unit_sides(phi: GroupMap, at: slice | np.ndarray, out: np.ndarray | None = None):
    """``1 - v v*`` at ``[x, 0]`` and ``1 - v* v`` at ``[x, -1]`` for the values
    at a slice or index array; an ``out`` of one side per value takes the last."""
    v = phi.values[at]
    if out is None:
        out = np.empty((len(v), 2, phi.dim, phi.dim), dtype=np.complex128)
    if out.shape[1] == 2:
        np.matmul(v, adj(v), out=out[:, 0])
    np.matmul(adj(v), v, out=out[:, -1])
    return np.subtract(np.eye(phi.dim, dtype=np.complex128), out, out=out)


def _largest_residual(phi: GroupMap, which: str) -> float:
    """The largest Frobenius norm of the residuals whose operator norms the
    ``"unit"`` or ``"mult"`` defect of ``phi`` maximizes, formed as that
    defect forms them (`_unit_sides`, `_pair_defects`).  The norm is NaN if a
    residual has a NaN entry and inf if a product overflows.
    """
    d = phi.dim
    if which == "unit":
        count, entries, take = len(phi.values), 2 * d * d, _unit_sides
    else:
        count, entries, take = _pair_count(phi.domain), d * d, _pair_defects

    def worst(sl: slice) -> float:
        flat = take(phi, sl).reshape(-1, d * d).view(np.float64)
        return np.einsum("ij,ij->i", flat, flat).max(initial=0.0)

    return float(np.sqrt(np.max(_for_blocks(count, entries, worst, _BOUND_BLOCK))))


def _exact_permutations(phi: GroupMap, which: str) -> bool:
    """Whether every value of ``phi`` is a real 0/1 permutation matrix: ``d``
    nonzero real or imaginary parts (the last value's are counted first, to
    turn a dense map away at once), all real ones, in every row and column.
    For ``"mult"`` the values must also compose by the table: the ones of
    ``phi(x) phi(y)`` lie at ``p[y][p[x]]``, where ``phi(x)[i, p[x, i]] = 1``,
    and ``p[xy]`` must be that at every pair, checked a block at a time."""
    v, d = phi.values, phi.dim
    parts = np.ascontiguousarray(v).view(np.float64)  # a transposed map is strided
    if d == 0 or np.count_nonzero(v[-1]) != d or np.count_nonzero(parts) != len(v) * d:
        return False
    ones = v == 1.0
    if not (np.count_nonzero(ones) == len(v) * d
            and ones.any(axis=1).all() and ones.any(axis=2).all()):
        return False
    if which == "unit":
        return True
    p, blocks = np.argmax(ones, axis=2), _blocks(_pair_count(phi.domain), d, _BOUND_BLOCK)
    return all(
        (p[ys[:, None], p[xs]] == p[ks]).all()
        for xs, ys, ks in (_pair_arrays(phi.domain, sl) for sl in blocks)
    )


def _defect_bound(phi: GroupMap, which: str, tol: float) -> float:
    """An upper bound on the ``"unit"`` or ``"mult"`` defect of ``phi``: the
    largest Frobenius norm of its residuals when `linalg._frobenius_within`
    certifies it within ``tol``, else the exact defect, so ``bound > tol``
    refuses exactly what the exact test refuses, with the exact value.  A map
    of `_exact_permutations` gets 0.0, as `_largest_residual` would, with no
    residual formed: its products of 0/1 entries are exact, so each is zero."""
    if _exact_permutations(phi, which):
        return 0.0
    frobenius = _largest_residual(phi, which)
    if linalg._frobenius_within(frobenius, tol):
        return frobenius
    return (unit_defect if which == "unit" else mult_defect)(phi)[0]


UNITARY_TOL = 1e-9  # the defect allowed to a map unitary, or exact, by construction


def _require_defect(phi: GroupMap, which: str, tol: float, what: str) -> None:
    """Refuse ``phi`` with :class:`PreconditionError` unless its ``"unit"`` or
    ``"mult"`` defect is within ``tol``; ``what`` names the precondition."""
    value = _defect_bound(phi, which, tol)
    if value > tol:
        raise PreconditionError(f"{what}; {which} defect is {value:.3e}")


def iso_defect(phi: GroupMap, sigma: np.ndarray | None = None) -> float:
    """Worst ``1 - v* v`` deviation alone (isometry defect); ``sigma`` as in `unit_defect`."""
    return _side_argmax(phi, sigma, 1)[0]


def sup_norm(phi: GroupMap) -> float:
    # Not `_op_argmax`: every value of a unitary-valued map has norm 1 and
    # stays a candidate, and the filter then took 1.3-2.6 times as long as
    # decomposing every value (16 to 576 values of dimension 2 to 24).
    return float(batch_norms(phi.values).max())


def distance(phi: GroupMap, psi: GroupMap) -> float:
    """Uniform distance ``max_x ||phi(x) - psi(x)||`` in operator norm."""
    _require_compatible(phi, psi)
    return _op_argmax(len(phi.values), phi.dim, (phi.values - psi.values).__getitem__)[0]


def pd_min_eig(phi: GroupMap) -> float:
    """Smallest eigenvalue of the full-group Gram block matrix.

    The Gram ``G`` has blocks ``phi(inv(x_i) * x_j)``.  Block ``(i, j)`` of
    ``G*`` is ``phi(inv(x_j) * x_i)*``, and ``inv(x_j) * x_i`` is the
    inverse of ``inv(x_i) * x_j``, so with ``mirror(x) = phi(inv(x))*`` the
    Hermitian part ``(G + G*) / 2`` is the Gram of ``h = (phi + mirror) /
    2``, ``G - G*`` that of ``s = phi - mirror``, and ``||G - G*||_F^2 = n
    sum_x ||s(x)||_F^2``.  A Gram that is not Hermitian within
    ``GRAM_HERMITIAN_TOL`` in operator norm is definitely not PSD and is
    reported as ``-inf``; the exact norm, of the Gram of ``s``, is taken only
    when neither half of the Frobenius rule settles it from that norm.
    Each Gram is gathered into one ``(n d)^2`` array, a few block rows
    (``executor._BLOCK`` entries) at a time.  The eigensolve is one LAPACK
    call on one BLAS thread; this function schedules nothing, and
    `stabilize.kazhdan_step` runs it on the spare core beside its other checks.
    """
    g = require_finite(phi.domain, "the full-group Gram")
    _require_gram_dim(g, phi.dim)
    n, d = g.order, phi.dim
    v, cols = phi.values, np.arange(n)
    mirror = adj(v[g.inv])
    gram = np.empty((n, d, n, d), dtype=np.complex128)

    def fill(blocks: np.ndarray) -> np.ndarray:
        """The Gram of a per-element map: block ``(i, j)`` is ``blocks[inv(x_i) * x_j]``."""
        for sl in _blocks(n, n * d * d):
            gram[sl] = blocks[g.mul[g.inv[sl, None], cols]].transpose(0, 2, 1, 3)
        return gram.reshape(n * d, n * d)

    s = v - mirror
    frobenius = np.sqrt(n) * np.linalg.norm(s)
    # ||G - G*|| >= F / sqrt(n d) >= tol (1 + S), and S exceeds the rounding of F and
    # of the SVD for n d <= MAX_GRAM_DIM (`linalg`'s Rounding section): strictly above tol.
    if linalg._frobenius_at_least(frobenius, n * d, GRAM_HERMITIAN_TOL) or (
        not linalg._frobenius_within(frobenius, GRAM_HERMITIAN_TOL)
        and linalg.singular_values(fill(s))[0] > GRAM_HERMITIAN_TOL
    ):
        return float("-inf")
    return float(np.linalg.eigvalsh(fill((v + mirror) / 2.0))[0])


def _require_gram_dim(domain: FiniteGroup | FreeBall, dim: int) -> None:
    """Refuse a map of dimension ``dim`` on a finite ``domain`` whose full-group
    Gram exceeds `MAX_GRAM_DIM`; a free ball is left to its caller's refusal."""
    if isinstance(domain, FiniteGroup) and domain.order * dim > MAX_GRAM_DIM:
        raise SizeLimitError(
            f"Gram dimension {domain.order * dim} exceeds MAX_GRAM_DIM = {MAX_GRAM_DIM}"
        )


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


def defect_report(phi: GroupMap, kind: NormKind = OPERATOR) -> DefectReport:
    """All defect measurements in one pass.

    ``epsilon`` uses the requested norm; ``delta`` and ``iso_delta`` are
    operator-norm quantities.  The values are decomposed once, for
    ``sup_norm`` and to narrow the unit and isometry scans.
    """
    eps, pair = mult_defect(phi, kind)
    v, d = phi.values, phi.dim
    sigma = _collect(np.empty((len(v), d)), d * d, lambda sl: linalg.singular_values(v[sl]))
    delta, element = unit_defect(phi, sigma)
    return DefectReport(
        epsilon=eps,
        delta=delta,
        iso_delta=iso_defect(phi, sigma),
        sup_norm=float(sigma[:, 0].max()),
        norm_kind=kind.describe(),
        witness_pair=pair,
        witness_element=element,
        restricted=isinstance(phi.domain, FreeBall),
    )


def perturbation_bound_report(phi: GroupMap, psi: GroupMap) -> Certificate:
    """The defects of ``psi`` against bounds predicted from ``phi``.

    Each bound is the defect of ``phi`` plus the growth a uniform
    perturbation of size ``eta = distance(phi, psi)`` can cause.
    """
    eta = distance(phi, psi)
    a, b = defect_report(phi), defect_report(psi)
    norms = a.sup_norm + b.sup_norm
    return Certificate(
        iso=Bound(b.iso_delta, a.iso_delta + norms * eta, tol=1e-10),
        unit=Bound(b.delta, a.delta + norms * eta, tol=1e-10),
        mult=Bound(b.epsilon, a.epsilon + (1.0 + norms) * eta, tol=1e-10),
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

