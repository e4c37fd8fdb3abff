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
MAX_BALL_WORDS = 20000


class NotAGroupError(ValueError):
    """Multiplication table fails a group axiom."""


class UnsupportedDomainError(ValueError):
    """Operation requires a finite group domain."""


@dataclass(eq=False)
class FiniteGroup:
    order: int
    mul: np.ndarray  # (order, order) int table; mul[a, b] is the index of a*b
    identity: int
    inv: np.ndarray  # (order,) int table of inverses
    label: str

    def product(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def to_dict(self) -> dict:
        return {"label": self.label, "mul": self.mul.tolist()}


@dataclass(eq=False)
class FreeBall:
    """Reduced words of bounded length in a free group.

    ``words`` lists the ball in breadth-first order, the empty word first.
    ``pair_index`` maps ``(i, j)`` to the index of the reduced product
    ``words[i] * words[j]`` whenever that product stays inside the ball.
    """

    rank: int
    radius: int
    words: tuple[tuple[int, ...], ...]
    index: dict[tuple[int, ...], int] = field(repr=False)
    pair_index: dict[tuple[int, int], int] = field(repr=False)

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
    mul = (idx[:, None] + idx[None, :]) % n
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

    Raises :class:`NotAGroupError` naming the failing row, column, identity
    or triple.
    """
    t = np.asarray(mul, dtype=np.int64)
    if t.ndim != 2 or t.shape[0] != t.shape[1] or t.shape[0] == 0:
        raise NotAGroupError(f"table must be square and nonempty, got shape {t.shape}")
    n = t.shape[0]
    if t.min() < 0 or t.max() >= n:
        raise NotAGroupError("table entries must be element indices in [0, order)")
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


def reduce_word(word) -> tuple[int, ...]:
    """Cancel adjacent inverse letter pairs until the word is reduced."""
    out: list[int] = []
    for letter in word:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def free_ball(rank: int, radius: int) -> FreeBall:
    if rank not in (2, 3):
        raise ValueError(f"free rank must be 2 or 3, got {rank}")
    if radius < 1:
        raise ValueError(f"ball radius must be >= 1, got {radius}")
    letters = [s * g for g in range(1, rank + 1) for s in (1, -1)]
    words: list[tuple[int, ...]] = [()]
    frontier: list[tuple[int, ...]] = [()]
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for letter in letters:
                if w and w[-1] == -letter:
                    continue
                nxt.append(w + (letter,))
        words.extend(nxt)
        frontier = nxt
        if len(words) > MAX_BALL_WORDS:
            raise ValueError(f"ball size exceeds {MAX_BALL_WORDS} words")
    index = {w: i for i, w in enumerate(words)}
    pair_index: dict[tuple[int, int], int] = {}
    for i, wi in enumerate(words):
        for j, wj in enumerate(words):
            if abs(len(wi) - len(wj)) > radius:
                continue  # reduced product is at least the length difference
            k = index.get(reduce_word(wi + wj))
            if k is not None:
                pair_index[i, j] = k
    return FreeBall(rank, radius, tuple(words), index, pair_index)


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
