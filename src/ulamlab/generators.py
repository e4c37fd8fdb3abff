"""Seeded constructions of representations and structured test maps.

All randomness flows through Philox streams keyed by a 64-bit hash of the
seed and a purpose label, so every construction is bit-reproducible from its
parameters and independent of call order.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import linalg, maps
from .groups import FiniteGroup, FreeBall, UnsupportedDomainError, n_elements
from .maps import GroupMap, PreconditionError, mult_defect, unit_defect

MAX_REGULAR_ORDER = 256

GENSPEC_KINDS = (
    "regular",
    "trivial",
    "character",
    "direct_sum",
    "conjugated",
    "perturbed",
    "compressed",
    "twisted",
    "random_map",
)


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
    """Left regular representation as permutation matrices."""
    if g.order > MAX_REGULAR_ORDER:
        raise ValueError(f"regular representation capped at order {MAX_REGULAR_ORDER}")
    n = g.order
    vals = np.zeros((n, n, n), dtype=np.complex128)
    cols = np.tile(np.arange(n), n)
    vals[np.repeat(np.arange(n), n), g.mul.ravel(), cols] = 1.0
    return GroupMap(g, n, vals, label=f"regular[{g.label}]")


def trivial_rep(domain: FiniteGroup | FreeBall) -> GroupMap:
    vals = np.ones((n_elements(domain), 1, 1), dtype=np.complex128)
    return GroupMap(domain, 1, vals, label="trivial")


def character_rep(g: FiniteGroup, k: int) -> GroupMap:
    """One-dimensional character ``j -> exp(2 pi i j k / n)`` of a cyclic group.

    The exponent is the element index, so the table must be the canonical
    additive one; a relabeled isomorphic copy is rejected.
    """
    if not isinstance(g, FiniteGroup):
        raise ValueError("characters need a finite group")
    idx = np.arange(g.order, dtype=np.int64)
    if not np.array_equal(g.mul, (idx[:, None] + idx[None, :]) % g.order):
        raise ValueError(
            "characters need the canonical cyclic table (indices adding mod n)"
        )
    vals = np.exp(2j * np.pi * k * idx / g.order).reshape(g.order, 1, 1)
    return GroupMap(g, 1, vals, label=f"character[{k}]")


def direct_sum(parts: list[GroupMap]) -> GroupMap:
    if not parts:
        raise ValueError("direct sum needs at least one summand")
    head = parts[0]
    for other in parts[1:]:
        if not (type(other.domain) is type(head.domain)) or n_elements(
            other.domain
        ) != n_elements(head.domain):
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
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must lie in [0, 1], got {theta}")
    delta, _ = unit_defect(pi)
    if delta > 1e-9:
        raise PreconditionError(
            f"perturbation base must be unitary-valued; unit defect is {delta:.3e}"
        )
    rng = _rng(seed, "perturb")
    vals = pi.values.copy()
    d = pi.dim
    # the stream of one (d, d) real part, then one imaginary part, per element
    others = np.delete(np.arange(len(vals)), pi.identity_index)
    for block in maps._blocks(len(others), d * d):
        xs = others[block]
        parts = rng.standard_normal((len(xs), 2, d, d))
        a = parts[:, 0] + 1j * parts[:, 1]
        h = a + linalg.adj(a)
        scale = linalg.singular_values(h)[:, 0]
        if theta > 0.0:
            keep = scale > 0.0
            xs, h, scale = xs[keep], h[keep], scale[keep]
            vals[xs] = vals[xs] @ linalg.unitary_exp(h * (theta / scale)[:, None, None])
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
    eps, _ = mult_defect(pi)
    delta, _ = unit_defect(pi)
    if eps > 1e-9 or delta > 1e-9:
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
    rng = _rng(seed, "random_map")
    n = n_elements(domain)
    vals = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    peak = float(linalg.singular_values(vals)[..., 0].max())
    if sup == 0.0 or peak == 0.0:
        vals = np.zeros_like(vals)
    else:
        vals *= sup / peak
    return GroupMap(domain, dim, vals, label=f"random[{sup:g}]")


@dataclass(frozen=True)
class GenSpec:
    """Declarative recipe for a seeded map construction.

    ``group`` is an optional group spec string; when absent the group must be
    supplied at build time.  Structured kinds carry a ``base`` recipe
    (defaulting to the regular representation) or summand ``parts``.
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
        if self.kind not in GENSPEC_KINDS:
            raise ValueError(f"unknown genspec kind {self.kind!r}")
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
        if self.group is not None:
            out["group"] = self.group
        if self.kind == "character":
            out["k"] = self.k
        if self.kind == "direct_sum":
            out["parts"] = [p.to_dict() for p in self.parts]
        if self.base is not None:
            out["base"] = self.base.to_dict()
        if self.kind == "perturbed":
            out["theta"] = self.theta
        if self.kind == "compressed":
            out["sub_dim"] = self.sub_dim
        if self.kind == "twisted":
            out["bound"] = self.bound
        if self.kind == "random_map":
            out["sup"] = self.sup
            out["dim"] = self.dim
        if self.kind in ("conjugated", "perturbed", "compressed", "twisted", "random_map"):
            out["seed"] = self.seed
        return out

    @staticmethod
    def from_dict(data: dict) -> "GenSpec":
        if not isinstance(data, dict) or "kind" not in data:
            raise ValueError("genspec must be an object with a 'kind' field")
        known = {
            "kind",
            "group",
            "k",
            "parts",
            "base",
            "theta",
            "seed",
            "sub_dim",
            "bound",
            "sup",
            "dim",
        }
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown genspec fields: {sorted(extra)}")
        kwargs = dict(data)
        if "parts" in kwargs:
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
    from .groups import parse_group_spec

    if spec.group is not None:
        domain = parse_group_spec(spec.group)
    if domain is None:
        raise ValueError("genspec has no group and none was provided")
    if spec.kind == "trivial":
        return trivial_rep(domain)
    if spec.kind == "random_map":
        return random_map(domain, spec.dim, spec.sup, spec.seed)
    if spec.kind == "direct_sum":
        return direct_sum([build_map(p, domain) for p in spec.parts])
    if spec.kind in ("regular", "character"):
        if not isinstance(domain, FiniteGroup):
            raise UnsupportedDomainError(f"{spec.kind} construction needs a finite group")
        if spec.kind == "regular":
            return regular_rep(domain)
        return character_rep(domain, spec.k)
    base = build_map(spec.base or GenSpec("regular"), domain)
    if spec.kind == "conjugated":
        return conjugate_rep(base, spec.seed)
    if spec.kind == "perturbed":
        return perturb_unitary(base, spec.theta, spec.seed)
    if spec.kind == "compressed":
        return compress_rep(base, spec.sub_dim, spec.seed)
    twisted, _ = similarity_twist(base, spec.bound, spec.seed)
    return twisted
