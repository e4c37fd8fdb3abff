"""Seeded constructions of representations and structured test maps.

All randomness flows through Philox streams keyed by a 64-bit hash of the
seed and a purpose label, so every construction is bit-reproducible from its
parameters and independent of call order.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

import numpy as np

from . import linalg, maps
from .executor import _blocks, _for_blocks
from .groups import FiniteGroup, FreeBall, cyclic, n_elements, require_finite
from .maps import GroupMap, PreconditionError, SizeLimitError, mult_defect, unit_defect

MAX_REGULAR_ORDER = 256


def derive_seed(seed: int, label: str) -> int:
    """Stable 64-bit stream key from a base seed and a purpose label."""
    digest = hashlib.blake2s(f"{seed}:{label}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _rng(seed: int, label: str) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=derive_seed(seed, label)))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    phases = np.diagonal(r).copy()
    phases /= np.abs(phases)
    return q * phases


def regular_rep(g: FiniteGroup) -> GroupMap:
    """Left regular representation as permutation matrices, read-only so that
    constructions can share it as a base (`verify.pool_regular`).  Its unit and
    mult preconditions are settled from its entries (`maps._defect_bound`)."""
    require_finite(g, "the regular representation")
    if g.order > MAX_REGULAR_ORDER:
        raise ValueError(f"regular representation capped at order {MAX_REGULAR_ORDER}")
    n = g.order
    vals = np.zeros((n, n, n), dtype=np.complex128)
    cols = np.tile(np.arange(n), n)
    vals[np.repeat(np.arange(n), n), g.mul.ravel(), cols] = 1.0
    vals.flags.writeable = False
    return GroupMap(g, n, vals, label=f"regular[{g.label}]")


def trivial_rep(domain: FiniteGroup | FreeBall) -> GroupMap:
    vals = np.ones((n_elements(domain), 1, 1), dtype=np.complex128)
    return GroupMap(domain, 1, vals, label="trivial")


def character_rep(g: FiniteGroup, k: int) -> GroupMap:
    """One-dimensional character ``j -> exp(2 pi i j k / n)`` of a cyclic group.

    The exponent is the element index, so the table must be the canonical
    additive one; a relabeled isomorphic copy is rejected.
    """
    g = require_finite(g, "a character")
    if not np.array_equal(g.mul, cyclic(g.order).mul):
        raise ValueError(
            "characters need the canonical cyclic table (indices adding mod n)"
        )
    idx = np.arange(g.order, dtype=np.int64)
    vals = np.exp(2j * np.pi * k * idx / g.order).reshape(g.order, 1, 1)
    return GroupMap(g, 1, vals, label=f"character[{k}]")


def direct_sum(parts: list[GroupMap]) -> GroupMap:
    if not parts:
        raise ValueError("direct sum needs at least one summand")
    head = parts[0]
    if not all(maps.same_domain(p.domain, head.domain) for p in parts[1:]):
        raise ValueError("direct summands must share a domain")
    total = sum(p.dim for p in parts)
    n = n_elements(head.domain)
    vals = np.zeros((n, total, total), dtype=np.complex128)
    offset = 0
    for p in parts:
        vals[:, offset : offset + p.dim, offset : offset + p.dim] = p.values
        offset += p.dim
    return GroupMap(head.domain, total, vals, label="direct_sum")


def conjugate_rep(pi: GroupMap, seed: int) -> GroupMap:
    """Conjugate every value by one Haar-random unitary."""
    u = haar_unitary(pi.dim, _rng(seed, "conjugate"))
    return GroupMap(pi.domain, pi.dim, u @ pi.values @ u.conj().T, label="conjugated")


def perturb_unitary(pi: GroupMap, theta: float, seed: int) -> GroupMap:
    """Multiply each non-identity value by ``exp(i H_x)`` with ``||H_x|| = theta``.

    The result stays exactly unitary-valued; the multiplicative defect grows
    by at most ``3 * theta``.
    """
    _require_theta(theta)
    return _rotated(pi, _directions(pi, seed), theta)


def perturb_grid(pi: GroupMap, seed: int) -> Callable[[float], GroupMap]:
    """``theta -> perturb_unitary(pi, theta, seed)`` for the thetas of a grid.

    The base's unit precondition and the draw of the directions with their
    norms run once, at the first theta in range; the directions, one array
    the size of the map, are then held for the rest of the grid.
    """
    drawn: list = []

    def at(theta: float) -> GroupMap:
        _require_theta(theta)
        if not drawn:
            drawn.append(list(_directions(pi, seed)))
        return _rotated(pi, drawn[0], theta)

    return at


def _require_theta(theta: float) -> None:
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")


def _directions(pi: GroupMap, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The seeded directions of ``perturb_unitary``, a block of elements at a
    time: the non-identity elements ``xs``, a Hermitian ``H_x`` for each and
    its operator norm.  The base's unit precondition is checked first."""
    maps._require_defect(pi, "unit", maps.UNITARY_TOL, "perturbation base must be unitary-valued")
    rng = _rng(seed, "perturb")
    d = pi.dim
    # the stream of one (d, d) real part, then one imaginary part, per element
    others = np.delete(np.arange(len(pi.values)), pi.domain.identity)
    for block in _blocks(len(others), d * d):
        parts = rng.standard_normal((block.stop - block.start, 2, d, d))
        a = parts[:, 0] + 1j * parts[:, 1]
        h = a + linalg.adj(a)
        yield others[block], h, maps._stack_norms(len(h), d, h.__getitem__)[0]


def _rotated(pi: GroupMap, directions, theta: float) -> GroupMap:
    """``pi`` with each value ``x`` of ``directions`` multiplied by
    ``exp(i theta H_x / ||H_x||)``."""
    vals = pi.values.copy()
    d = pi.dim
    for xs, h, scale in directions:  # drawn at theta 0 too, which rotates nothing

        def rotate(sl: slice) -> None:
            keep = scale[sl] > 0.0
            ys = xs[sl][keep]
            step = h[sl][keep] * (theta / scale[sl][keep])[:, None, None]
            vals[ys] = vals[ys] @ linalg.unitary_exp(step)

        if theta > 0.0:
            _for_blocks(len(xs), d * d, rotate)
    return GroupMap(pi.domain, d, vals, label=f"perturbed[{theta:g}]")


def compress_rep(pi: GroupMap, sub_dim: int, seed: int) -> GroupMap:
    """Compress through a scaled random isometry: ``phi = W* pi W``.

    The scale factor lies in ``(0, 1]`` and is exactly 1 for half the seeds,
    so seeded corpora contain honest isometry compressions (the unital,
    positive definite population).
    """
    if not 1 <= sub_dim <= pi.dim:
        raise ValueError(f"sub_dim must lie in [1, {pi.dim}], got {sub_dim}")
    rng = _rng(seed, "compress")
    z = rng.standard_normal((pi.dim, sub_dim)) + 1j * rng.standard_normal((pi.dim, sub_dim))
    q, _ = np.linalg.qr(z)
    factor = 1.0 if rng.random() < 0.5 else rng.uniform(0.3, 1.0)
    w = factor * q
    vals = w.conj().T @ (pi.values @ w)
    return GroupMap(pi.domain, sub_dim, vals, label=f"compressed[{sub_dim}]")


def similarity_twist(pi: GroupMap, bound: float, seed: int) -> tuple[GroupMap, float]:
    """Conjugate an exact unitary representation by an invertible ``V``.

    ``cond(V)`` is drawn up to ``bound`` and returned alongside the twisted
    map; the result is an exact representation that is no longer unitary.
    """
    if bound < 1.0:
        raise ValueError(f"condition bound must be >= 1, got {bound}")
    eps = maps._defect_bound(pi, "mult", maps.UNITARY_TOL)
    delta = maps._defect_bound(pi, "unit", maps.UNITARY_TOL)
    if eps > maps.UNITARY_TOL or delta > maps.UNITARY_TOL:
        eps, delta = mult_defect(pi)[0], unit_defect(pi)[0]  # the message names both
        raise PreconditionError(
            "twist base must be an exact unitary representation; "
            f"defects are mult {eps:.3e}, unit {delta:.3e}"
        )
    rng = _rng(seed, "twist")
    u1 = haar_unitary(pi.dim, rng)
    u2 = haar_unitary(pi.dim, rng)
    target = rng.uniform(1.0, bound)
    if pi.dim == 1:
        sigma = np.ones(1)
    else:
        sigma = np.geomspace(np.sqrt(target), 1.0 / np.sqrt(target), pi.dim)
    v = (u1 * sigma) @ u2.conj().T
    v_inv = (u2 / sigma) @ u1.conj().T
    vals = v @ pi.values @ v_inv
    cond = float(sigma[0] / sigma[-1])
    return GroupMap(pi.domain, pi.dim, vals, label=f"twisted[{bound:g}]"), cond


def random_map(
    domain: FiniteGroup | FreeBall, dim: int, sup: float = 1.0, seed: int = 0
) -> GroupMap:
    """Gaussian values rescaled so the sup norm is exactly ``sup``."""
    if dim < 1:
        raise ValueError(f"dimension must be >= 1, got {dim}")
    if sup < 0:
        raise ValueError(f"sup bound must be nonnegative, got {sup}")
    n = n_elements(domain)
    _require_entries("random_map", n, dim)
    rng = _rng(seed, "random_map")
    vals = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    peak = float(maps.batch_norms(vals).max())
    if sup == 0.0 or peak == 0.0:
        vals = np.zeros_like(vals)
    else:
        vals *= sup / peak
    return GroupMap(domain, dim, vals, label=f"random[{sup:g}]")


def _require_entries(kind: str, n: int, dim: int) -> None:
    """Refuse a map of ``n`` values of dimension ``dim`` before it is built
    when it would hold more than ``MAX_REGULAR_ORDER**3`` entries."""
    if n * dim * dim > MAX_REGULAR_ORDER**3:
        raise SizeLimitError(
            f"{kind} of {n} values of dimension {dim} holds {n * dim * dim} entries, "
            f"more than MAX_REGULAR_ORDER**3 = {MAX_REGULAR_ORDER**3}"
        )


def _direct_sum_of(specs: tuple["GenSpec", ...], on) -> GroupMap:
    """The direct sum of the maps of ``specs``, built one at a time; refused as
    soon as the parts built so far would stack into too many entries."""
    parts: list[GroupMap] = []
    for spec in specs:
        parts.append(build_map(spec, on))
        _require_entries("direct_sum", len(parts[0].values), sum(p.dim for p in parts))
    return direct_sum(parts)


class Recipe(NamedTuple):
    reads: tuple[str, ...]  # the fields besides ``kind`` and ``group``
    build: Callable  # (spec, domain, or the map of its base if it reads one) -> GroupMap


# Each recipe kind: the fields it reads and how it is built.
RECIPES = {
    "regular": Recipe((), lambda spec, on: regular_rep(on)),
    "trivial": Recipe((), lambda spec, on: trivial_rep(on)),
    "character": Recipe(("k",), lambda spec, on: character_rep(on, spec.k)),
    "direct_sum": Recipe(("parts",), lambda spec, on: _direct_sum_of(spec.parts, on)),
    "conjugated": Recipe(("base", "seed"), lambda spec, on: conjugate_rep(on, spec.seed)),
    "perturbed": Recipe(
        ("base", "theta", "seed"), lambda spec, on: perturb_unitary(on, spec.theta, spec.seed)
    ),
    "compressed": Recipe(
        ("base", "sub_dim", "seed"), lambda spec, on: compress_rep(on, spec.sub_dim, spec.seed)
    ),
    "twisted": Recipe(
        ("base", "bound", "seed"), lambda spec, on: similarity_twist(on, spec.bound, spec.seed)[0]
    ),
    "random_map": Recipe(
        ("sup", "dim", "seed"), lambda spec, on: random_map(on, spec.dim, spec.sup, spec.seed)
    ),
}


def _recipe(kind: object) -> Recipe:
    if not isinstance(kind, str) or kind not in RECIPES:
        raise ValueError(f"unknown genspec kind {kind!r}")
    return RECIPES[kind]


@dataclass(frozen=True)
class GenSpec:
    """Declarative recipe for a seeded map construction.

    ``group`` is an optional group spec string; when absent the group must be
    supplied at build time.  Each kind reads the fields ``RECIPES`` lists
    for it, which are all that ``from_dict`` accepts and ``to_dict`` echoes.
    """

    kind: str
    group: str | None = None
    k: int = 0
    parts: tuple["GenSpec", ...] = ()
    base: "GenSpec | None" = None
    theta: float = 0.0
    seed: int = 0
    sub_dim: int = 1
    bound: float = 1.0
    sup: float = 1.0
    dim: int = 1

    def __post_init__(self) -> None:
        number = {int: numbers.Integral, float: numbers.Real}  # by the type of a field's default
        for f in fields(self):
            value, want = getattr(self, f.name), number.get(type(f.default))
            if want and (isinstance(value, bool) or not isinstance(value, want)):
                what = "an integer" if want is numbers.Integral else "a number"
                raise ValueError(f"{f.name} must be {what}, got {value!r}")
            if f.name == "group" and not (value is None or isinstance(value, str)):
                raise ValueError(f"group must be a group spec string, got {value!r}")
        _recipe(self.kind)
        for name in ("theta", "bound", "sup"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.theta < 0:
            raise ValueError(f"theta must be nonnegative, got {self.theta}")
        if self.bound < 1:
            raise ValueError(f"bound must be >= 1, got {self.bound}")
        if self.sup < 0:
            raise ValueError(f"sup must be nonnegative, got {self.sup}")
        if self.sub_dim < 1:
            raise ValueError(f"sub_dim must be >= 1, got {self.sub_dim}")
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")
        if self.kind == "direct_sum" and not self.parts:
            raise ValueError("direct_sum needs at least one part")

    def to_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        for name in ("group", *RECIPES[self.kind].reads):
            value = getattr(self, name)
            if isinstance(value, GenSpec):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = [p.to_dict() for p in value]
            if value is not None:  # an absent group or base
                out[name] = value
        return out

    @staticmethod
    def from_dict(data: dict) -> "GenSpec":
        if not isinstance(data, dict) or "kind" not in data:
            raise ValueError("genspec must be an object with a 'kind' field")
        unread = set(data) - {"kind", "group", *_recipe(data["kind"]).reads}
        if unread:
            raise ValueError(f"genspec kind {data['kind']!r} does not read {sorted(unread)}")
        kwargs = dict(data)
        if "parts" in kwargs:
            if not isinstance(kwargs["parts"], list):
                raise ValueError(f"parts must be a list of genspecs, got {kwargs['parts']!r}")
            kwargs["parts"] = tuple(GenSpec.from_dict(p) for p in kwargs["parts"])
        if kwargs.get("base") is not None:
            kwargs["base"] = GenSpec.from_dict(kwargs["base"])
        return GenSpec(**kwargs)


def parse_genspec(text: str) -> GenSpec:
    """Parse a genspec from inline JSON or from a JSON file path."""
    candidate = text.strip()
    if candidate.startswith("{"):
        return GenSpec.from_dict(json.loads(candidate))
    path = Path(candidate)
    if path.is_file():
        return GenSpec.from_dict(json.loads(path.read_text()))
    raise ValueError(f"genspec {text!r} is neither inline JSON nor an existing file")


def build_map(spec: GenSpec, domain: FiniteGroup | FreeBall | None = None) -> GroupMap:
    """Materialize a recipe into a map, resolving the domain if embedded."""
    return RECIPES[spec.kind].build(spec, _built_on(spec, domain))


def build_grid(
    spec: GenSpec, domain: FiniteGroup | FreeBall | None = None
) -> Callable[[float], GroupMap]:
    """``theta -> build_map(spec at that theta, domain)`` for the thetas of a grid.

    The domain and base are built once; a perturbed spec also draws its
    directions once (`perturb_grid`).
    """
    on = _built_on(spec, domain)
    if spec.kind == "perturbed":
        return perturb_grid(on, spec.seed)
    return lambda theta: RECIPES[spec.kind].build(spec, on)  # a kind that reads no theta


def _built_on(spec: GenSpec, domain: FiniteGroup | FreeBall | None):
    """What the recipe of ``spec`` builds on: its domain, or its base's map."""
    from .groups import parse_group_spec

    if spec.group is not None:
        domain = parse_group_spec(spec.group)
    if domain is None:
        raise ValueError("genspec has no group and none was provided")
    if "base" in RECIPES[spec.kind].reads:  # the regular representation by default
        domain = build_map(spec.base or GenSpec("regular"), domain)
    return domain
