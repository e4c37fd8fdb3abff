"""Finite group tables and free-group balls used as map domains.

Finite groups are explicit multiplication tables over element indices
``0..order-1``.  Free-group balls enumerate reduced words up to a radius and
record which pairs still multiply inside the ball; they stand in for
non-amenable domains, so averaging constructions reject them.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAX_CYCLIC = 4096
MAX_DIHEDRAL = 512
MAX_SYMMETRIC = 6
MAX_PRODUCT_ORDER = 4096
MAX_TABLE_ORDER = 1024  # validation makes n gathers of n^2 entries
MAX_BALL_WORDS = 20000
_BALL_BLOCK = 1 << 20  # int64 product-table entries a free ball folds at once


class NotAGroupError(ValueError):
    """Multiplication table fails a group axiom."""


class UnsupportedDomainError(ValueError):
    """Operation requires a finite group domain."""


def require_finite(domain: FiniteGroup | FreeBall, what: str) -> FiniteGroup:
    """``domain``, refused with :class:`UnsupportedDomainError` unless it is a
    finite group: ``what`` needs the whole group, or an average over it."""
    if not isinstance(domain, FiniteGroup):
        raise UnsupportedDomainError(
            f"{what} needs a finite group; a free-ball domain carries no invariant mean"
        )
    return domain


@dataclass(eq=False)
class FiniteGroup:
    order: int
    mul: np.ndarray  # (order, order) int table; mul[a, b] is the index of a*b
    identity: int
    inv: np.ndarray  # (order,) int table of inverses
    label: str


@dataclass(eq=False)
class FreeBall:
    """Reduced words of bounded length in a free group.

    ``words`` lists the ball in breadth-first order, the empty word first.
    ``pairs`` holds read-only int64 arrays ``(i, j, k)``, sorted by
    ``(i, j)``: one entry for every pair whose reduced product
    ``words[i] * words[j]`` stays inside the ball, ``k`` its index.
    """

    rank: int
    radius: int
    words: tuple[tuple[int, ...], ...]
    pairs: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)

    @property
    def identity(self) -> int:
        return 0

    @property
    def label(self) -> str:
        return f"freeball:{self.rank}:{self.radius}"


def n_elements(domain: FiniteGroup | FreeBall) -> int:
    if isinstance(domain, FiniteGroup):
        return domain.order
    return len(domain.words)


def cyclic(n: int) -> FiniteGroup:
    if not 1 <= n <= MAX_CYCLIC:
        raise ValueError(f"cyclic order must be in [1, {MAX_CYCLIC}], got {n}")
    idx = np.arange(n, dtype=np.int64)
    mul = np.add.outer(idx, idx)
    np.remainder(mul, n, out=mul)  # in place: the table is the only n^2 array
    return FiniteGroup(n, mul, 0, (-idx) % n, f"cyclic:{n}")


def dihedral(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n.

    Indices 0..n-1 are the rotations r^a, indices n..2n-1 the reflections
    s r^a.
    """
    if not 2 <= n <= MAX_DIHEDRAL:
        raise ValueError(f"dihedral parameter must be in [2, {MAX_DIHEDRAL}], got {n}")
    a = np.arange(n, dtype=np.int64)
    mul = np.empty((2 * n, 2 * n), dtype=np.int64)
    mul[:n, :n] = (a[:, None] + a[None, :]) % n
    mul[:n, n:] = n + (a[None, :] - a[:, None]) % n  # r^a (s r^b) = s r^{b-a}
    mul[n:, :n] = n + (a[:, None] + a[None, :]) % n  # (s r^a) r^b = s r^{a+b}
    mul[n:, n:] = (a[None, :] - a[:, None]) % n  # (s r^a)(s r^b) = r^{b-a}
    inv = np.concatenate([(-a) % n, n + a])
    return FiniteGroup(2 * n, mul, 0, inv, f"dihedral:{n}")


def symmetric(n: int) -> FiniteGroup:
    """Permutations of n letters in lexicographic order, composed right-to-left."""
    if not 1 <= n <= MAX_SYMMETRIC:
        raise ValueError(f"symmetric parameter must be in [1, {MAX_SYMMETRIC}], got {n}")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    weights = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    codes = perms @ weights  # strictly increasing in lex order
    comp = perms[:, perms]  # comp[i, j, k] = perms[i][perms[j][k]]
    mul = np.searchsorted(codes, comp @ weights)
    inv = np.searchsorted(codes, np.argsort(perms, axis=1) @ weights)
    return FiniteGroup(len(perms), mul, 0, inv, f"symmetric:{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product on row-major pair indices ``a * h.order + b``."""
    n = g.order * h.order
    if n > MAX_PRODUCT_ORDER:
        raise ValueError(f"product order {n} exceeds {MAX_PRODUCT_ORDER}")
    ia, ib = np.divmod(np.arange(n, dtype=np.int64), h.order)
    mul = g.mul[np.ix_(ia, ia)] * h.order + h.mul[np.ix_(ib, ib)]
    inv = g.inv[ia] * h.order + h.inv[ib]
    identity = g.identity * h.order + h.identity
    left = g.label.removeprefix("product:")
    right = h.label.removeprefix("product:")
    return FiniteGroup(n, mul, identity, inv, f"product:{left},{right}")


def from_table(mul, label: str = "table") -> FiniteGroup:
    """Validate a multiplication table and build the group it defines.

    Raises :class:`NotAGroupError` naming the failing entry, row, column,
    identity or triple, and ``ValueError`` for a label that is not a string
    or a table larger than ``MAX_TABLE_ORDER`` before validating it.
    """
    if not isinstance(label, str):
        raise ValueError(f"table 'label' must be a string, got {label!r}")
    cells = np.asarray(mul, dtype=object)  # the entries as given: a cast truncates a float
    if cells.ndim != 2 or cells.shape[0] != cells.shape[1] or cells.shape[0] == 0:
        raise NotAGroupError(f"table must be square and nonempty, got shape {cells.shape}")
    n = cells.shape[0]
    if n > MAX_TABLE_ORDER:
        raise ValueError(f"table order {n} exceeds MAX_TABLE_ORDER = {MAX_TABLE_ORDER}")
    wrong = sorted(
        kind.__name__
        for kind in set(map(type, cells.flat))
        if kind is bool or not issubclass(kind, (int, np.integer))
    )
    if wrong:
        raise NotAGroupError(f"table 'mul' entries must be integers, got {', '.join(wrong)}")
    t = np.asarray(mul)
    if t.min() < 0 or t.max() >= n:
        raise NotAGroupError("table entries must be element indices in [0, order)")
    t = t.astype(np.int64, copy=False)
    full = np.arange(n, dtype=np.int64)
    for a in range(n):
        if not np.array_equal(np.sort(t[a]), full):
            raise NotAGroupError(f"row {a} is not a permutation of the elements")
        if not np.array_equal(np.sort(t[:, a]), full):
            raise NotAGroupError(f"column {a} is not a permutation of the elements")
    identity = -1
    for e in range(n):
        if np.array_equal(t[e], full) and np.array_equal(t[:, e], full):
            identity = e
            break
    if identity < 0:
        raise NotAGroupError("no two-sided identity element")
    for a in range(n):
        left = t[t[a], :]  # left[b, c] = (a*b)*c
        right = t[a, t]  # right[b, c] = a*(b*c)
        if not np.array_equal(left, right):
            b, c = map(int, np.argwhere(left != right)[0])
            raise NotAGroupError(f"associativity fails at triple ({a}, {b}, {c})")
    inv = np.empty(n, dtype=np.int64)
    for a in range(n):
        candidates = np.nonzero(t[a] == identity)[0]
        if candidates.size != 1 or t[candidates[0], a] != identity:
            raise NotAGroupError(f"element {a} lacks a two-sided inverse")
        inv[a] = candidates[0]
    return FiniteGroup(n, t, identity, inv, label)


def free_ball(rank: int, radius: int) -> FreeBall:
    """The reduced words of length at most ``radius``, breadth first, and
    their products, folded through a letter step table without a Python loop
    over word pairs."""
    if rank not in (2, 3):
        raise ValueError(f"free rank must be 2 or 3, got {rank}")
    if radius < 1:
        raise ValueError(f"ball radius must be >= 1, got {radius}")
    letters = [s * g for g in range(1, rank + 1) for s in (1, -1)]  # letters[c ^ 1] = -letters[c]
    words: list[tuple[int, ...]] = [()]
    links = [(0, 0)]  # (parent, last): words[j] = words[parent] + (letters[last],)
    starts = [0, 1]  # the words of length r are words[starts[r]:starts[r + 1]]
    for _ in range(radius):
        for p in range(starts[-2], starts[-1]):
            for c, letter in enumerate(letters):
                if not words[p] or words[p][-1] != -letter:
                    words.append(words[p] + (letter,))
                    links.append((p, c))
        starts.append(len(words))
        if len(words) > MAX_BALL_WORDS:
            raise ValueError(f"ball size exceeds {MAX_BALL_WORDS} words")
    n = len(words)
    parent, last = np.array(links).T
    # step[k, c] is the index of words[k] * letters[c], or -1 outside the
    # ball; the extra row n lets -1 index itself
    step = np.full((n + 1, len(letters)), -1, dtype=np.int64)
    step[parent[1:], last[1:]] = np.arange(1, n)  # appending a letter gives a child
    step[np.arange(1, n), last[1:] ^ 1] = parent[1:]  # cancelling the last letter gives the parent
    # Folding words[j] onto words[i] letter by letter only shrinks the word
    # until the cancellation ends, then only grows it; so no intermediate
    # product is longer than max(len(words[i]), len(product)), and a product
    # inside the ball never passes outside it on the way (a -1 stays -1).
    rows = max(1, _BALL_BLOCK // n)
    blocks = []
    for lo in range(0, n, rows):
        prod = np.empty((min(rows, n - lo), n), dtype=np.int64)  # words[lo + r] * words[j]
        prod[:, 0] = np.arange(lo, lo + len(prod))
        for a, b in zip(starts[1:], starts[2:]):  # one word length at a time
            prod[:, a:b] = step[prod[:, parent[a:b]], last[a:b]]
        inside = prod >= 0
        xs, ys = np.nonzero(inside)  # row-major, so sorted by (i, j)
        blocks.append((xs + lo, ys, prod[inside]))
    pairs = tuple(np.concatenate(column) for column in zip(*blocks))
    for column in pairs:
        column.flags.writeable = False
    return FreeBall(rank, radius, tuple(words), pairs)


def parse_group_spec(spec: str) -> FiniteGroup | FreeBall:
    """Build a domain from a spec string.

    Forms: ``cyclic:N``, ``dihedral:N``, ``symmetric:N``,
    ``product:<spec>,<spec>[,...]`` (folded left), ``table:<path.json>``
    with ``{"label": ..., "mul": [[...]]}``, and ``freeball:RANK:RADIUS``.
    """
    s = spec.strip()
    head, _, rest = s.partition(":")
    try:
        if head == "cyclic":
            return cyclic(int(rest))
        if head == "dihedral":
            return dihedral(int(rest))
        if head == "symmetric":
            return symmetric(int(rest))
        if head == "freeball":
            rank_s, _, radius_s = rest.partition(":")
            return free_ball(int(rank_s), int(radius_s))
    except ValueError as err:
        raise ValueError(f"bad group spec {spec!r}: {err}") from None
    if head == "product":
        parts = [p for p in rest.split(",") if p.strip()]
        if len(parts) < 2:
            raise ValueError(f"bad group spec {spec!r}: product needs two factors")
        factors = []
        for part in parts:
            factor = parse_group_spec(part)
            if not isinstance(factor, FiniteGroup):
                raise ValueError(f"bad group spec {spec!r}: product factors must be finite")
            factors.append(factor)
        out = factors[0]
        for factor in factors[1:]:
            out = direct_product(out, factor)
        return out
    if head == "table":
        data = json.loads(Path(rest).read_text())
        if not isinstance(data, dict):
            raise ValueError(
                f"bad group spec {spec!r}: the table file must hold a JSON object, "
                f"not {type(data).__name__}"
            )
        if "mul" not in data:
            raise ValueError(f"bad group spec {spec!r}: the table file has no 'mul' field")
        return from_table(data["mul"], label=data.get("label", f"table:{rest}"))
    raise ValueError(f"unknown group spec {spec!r}")
