import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ulamlab.executor
import ulamlab.linalg
import ulamlab.maps
from ulamlab import (
    Bound,
    Certificate,
    GroupMap,
    PreconditionError,
    average_pd,
    constant_identity,
    cyclic,
    defect_report,
    dihedral,
    distance,
    dixmier_unitarize,
    estimate_checks,
    free_ball,
    iso_defect,
    kazhdan_step,
    mult_defect,
    pd_min_eig,
    perturb_unitary,
    perturbation_bound_report,
    random_map,
    regular_rep,
    schatten,
    similarity_twist,
    stabilize,
    sup_norm,
    symmetric,
    translate_coefficient,
    unit_defect,
)
from ulamlab.cli import jsonify
from ulamlab.generators import trivial_rep
from ulamlab.linalg import adj
from ulamlab.groups import parse_group_spec
from ulamlab.verify import POOL_SPECS, SMALL_POOL_SPECS

from oracles import frobenius_skewed, reversed_labels

TWO_SIN_TENTH = 0.1996668332936563  # |1 - exp(0.2i)|


def scalar_map(group, phases):
    values = np.array([[[p]] for p in phases], dtype=complex)
    return GroupMap(group, 1, values)


@pytest.fixture
def z2_phase():
    # phi(0) = 1, phi(1) = exp(0.1i): unitary scalars, small mult defect
    return scalar_map(cyclic(2), [1.0, np.exp(0.1j)])


def test_scalar_phase_mult_defect(z2_phase):
    eps, witness = mult_defect(z2_phase)
    assert eps == pytest.approx(TWO_SIN_TENTH, abs=1e-12)
    assert witness == (1, 1)


def test_scalar_phase_is_exactly_unitary(z2_phase):
    delta, _ = unit_defect(z2_phase)
    assert delta <= 1e-15
    assert iso_defect(z2_phase) <= 1e-15


def test_mult_defect_witness_recomputes(z2_phase):
    eps, (x, y) = mult_defect(z2_phase)
    g = z2_phase.domain
    xy = g.mul[x, y]
    direct = abs(
        z2_phase.values[xy, 0, 0] - z2_phase.values[x, 0, 0] * z2_phase.values[y, 0, 0]
    )
    assert direct == pytest.approx(eps, abs=1e-15)


def test_regular_rep_has_zero_defects(group_pool):
    for g in group_pool:
        rho = regular_rep(g)
        eps, _ = mult_defect(rho)
        delta, _ = unit_defect(rho)
        assert eps == 0.0
        assert delta == 0.0


def test_constant_identity_defects():
    phi = constant_identity(cyclic(3), 2)
    eps, _ = mult_defect(phi)
    delta, _ = unit_defect(phi)
    assert eps == 0.0 and delta == 0.0
    assert sup_norm(phi) == 1.0


def test_unit_defect_sees_both_branches():
    # phi(1) is a strict isometry embedded in a rank-deficient square matrix:
    # phi* phi = diag(1, 0) and phi phi* = diag(1, 0), both branches defect 1
    g = cyclic(2)
    values = np.array([np.eye(2), [[1, 0], [0, 0]]], dtype=complex)
    phi = GroupMap(g, 2, values)
    delta, element = unit_defect(phi)
    assert delta == pytest.approx(1.0)
    assert element == 1


def test_iso_defect_tracks_only_one_branch():
    # a coisometry on the second element: phi phi* = I but phi* phi != I
    g = cyclic(2)
    v = np.zeros((2, 3, 3), dtype=complex)
    v[0] = np.eye(3)
    v[1, 0, 0] = 1.0
    v[1, 1, 1] = 1.0
    phi = GroupMap(g, 3, v)
    assert iso_defect(phi) == pytest.approx(1.0)


def test_distance_norm_dependence():
    g = cyclic(2)
    a = scalar_map(g, [1.0, 1.0])
    b = scalar_map(g, [1.0, 0.5])
    assert distance(a, b) == pytest.approx(0.5)
    phi = constant_identity(g, 2)
    shifted = GroupMap(g, 2, phi.values - 0.1 * np.eye(2))
    assert distance(phi, shifted) == pytest.approx(0.1)


def test_sup_norm_peak():
    g = cyclic(3)
    values = np.stack([np.eye(2), 2.0 * np.eye(2), 0.5 * np.eye(2)]).astype(complex)
    assert sup_norm(GroupMap(g, 2, values)) == pytest.approx(2.0)


def test_pd_min_eig_regular_rep_nonnegative(group_pool):
    for g in group_pool:
        if g.order > 8:
            continue
        assert pd_min_eig(regular_rep(g)) >= -1e-10


def test_pd_min_eig_scalar_counterexample():
    # phi(e) = 1, phi(g) = 2 on Z2: Gram [[1,2],[2,1]] has eigenvalue -1
    phi = scalar_map(cyclic(2), [1.0, 2.0])
    assert pd_min_eig(phi) == pytest.approx(-1.0, abs=1e-12)


def test_pd_min_eig_requires_adjoint_symmetry():
    # phi(g) not equal to phi(g^-1)* makes the Gram non-Hermitian
    phi = scalar_map(cyclic(2), [1.0, 2.0j])
    assert pd_min_eig(phi) == -np.inf


def test_pd_min_eig_checks_symmetry_by_frobenius_first(monkeypatch):
    sv_calls = []
    original = ulamlab.linalg.singular_values

    def counted(a):
        sv_calls.append(np.shape(a))
        return original(a)

    g = dihedral(4)
    averaged = average_pd(perturb_unitary(regular_rep(g), 0.03, seed=0))
    non_hermitian = random_map(g, 2, seed=0)
    monkeypatch.setattr(ulamlab.linalg, "singular_values", counted)
    assert pd_min_eig(averaged) >= -1e-9
    assert sv_calls == []
    # Off by 4e-9 * (P_g - P_g^T) (x) 1: operator norm at most 8e-9, within the
    # 1e-8 tolerance, Frobenius norm 4.5e-8 beyond it; one exact check passes it.
    g_index = 1
    assert g.inv[g_index] != g_index
    skewed = averaged.values.copy()
    skewed[g_index] += 4e-9 * np.eye(averaged.dim)
    assert np.isfinite(pd_min_eig(GroupMap(g, averaged.dim, skewed)))
    assert len(sv_calls) == 1
    # a non-Hermitian Gram is still refused, by the Frobenius norm alone
    assert pd_min_eig(non_hermitian) == -np.inf
    assert len(sv_calls) == 1


def test_pd_min_eig_refuses_an_asymmetry_its_frobenius_norm_hides():
    h = frobenius_skewed(ulamlab.maps.GRAM_HERMITIAN_TOL)
    assert pd_min_eig(GroupMap(cyclic(1), 2, h[None])) == -np.inf


def test_pd_min_eig_refuses_a_far_asymmetry_without_a_gram(monkeypatch):
    # A perturbed symmetric:4 map (the default map of `defects`) is far from
    # adjoint-symmetric: the Frobenius norm of G - G* alone refuses it.
    phi = perturb_unitary(regular_rep(symmetric(4)), 0.03, seed=0)
    original, shapes = ulamlab.linalg.singular_values, []

    def counted(a):
        shapes.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(ulamlab.linalg, "singular_values", counted)
    assert pd_min_eig(phi) == -np.inf
    assert shapes == []


def dense_gram(phi, values):
    """The whole ``(n d) x (n d)`` Gram of a per-element map: block ``(i, j)``
    is ``values[inv(x_i) * x_j]``."""
    g, d = phi.domain, phi.dim
    blocks = values[g.mul[g.inv[:, None], np.arange(g.order)[None, :]]]
    return blocks.transpose(0, 2, 1, 3).reshape(g.order * d, g.order * d)


def exact_gram_verdict(phi):
    """Whether the exact test refuses: the computed operator norm of the Gram
    of ``s = phi - mirror`` exceeds the tolerance, or the SVD fails."""
    mirror = np.conj(np.swapaxes(phi.values[phi.domain.inv], -1, -2))
    try:
        sigma = np.linalg.svd(dense_gram(phi, phi.values - mirror), compute_uv=False)
    except np.linalg.LinAlgError:
        return "LinAlgError"
    return bool(sigma[0] > ulamlab.maps.GRAM_HERMITIAN_TOL)


@settings(max_examples=80, deadline=None)
@given(
    group=st.sampled_from([cyclic(1), cyclic(3), dihedral(3)]),
    kind=st.sampled_from(["skewed", "flat", "nan"]),
    at=st.integers(0, 5),
    rel=st.floats(-4e-6, 4e-6),
)
def test_gram_gate_takes_the_exact_verdict(group, kind, at, rel):
    # One value of the identity map is moved so that the asymmetry sits
    # within a few 1e-6 of a threshold of the gate.  "skewed": the rank-one
    # asymmetry of `frobenius_skewed`, scaled about the tolerance, straddles
    # the *within* half on cyclic:1; "flat": i c times the identity at the
    # identity element, whose Gram of s has all its singular values equal,
    # straddles the *at least* half; "nan" certifies neither, and the exact
    # test's SVD fails as the gate's does.
    tol = ulamlab.maps.GRAM_HERMITIAN_TOL
    h = frobenius_skewed(tol)
    hermitian, skew = (h + h.conj().T) / 2, (h - h.conj().T) / 2
    value = {
        "skewed": hermitian + (1.0 + rel) * skew,
        "flat": hermitian + 0.5j * tol * (1.0 + rel) * np.eye(2),
        "nan": hermitian + np.nan,
    }[kind]
    phi = constant_identity(group, 2)
    phi.values[at % group.order] = value  # set after the finite-value check
    expected = exact_gram_verdict(phi)
    try:
        refused = pd_min_eig(phi) == -np.inf
    except np.linalg.LinAlgError:
        refused = "LinAlgError"
    assert refused == expected


def dense_pd_min_eig(phi):
    """The Gram's smallest eigenvalue from the whole block matrix and its adjoint."""
    big = dense_gram(phi, phi.values)
    return np.linalg.eigvalsh((big + big.conj().T) / 2)[0]


@pytest.mark.parametrize(
    "g",
    [cyclic(2), cyclic(12), dihedral(4), symmetric(3), symmetric(4), reversed_labels(dihedral(4))],
    ids=lambda g: g.label,
)
def test_pd_min_eig_equals_the_dense_gram(g):
    # The Gram is built a few block rows at a time; the matrix handed to
    # eigvalsh must be the dense one bit for bit, on one block or many.
    phi = perturb_unitary(regular_rep(g), 0.03, seed=0)
    if g.label == "symmetric:4":
        assert (g.order * phi.dim) ** 2 > ulamlab.executor._BLOCK
    for psi in (average_pd(phi), translate_coefficient(phi)):
        expected = dense_pd_min_eig(psi)
        assert np.isfinite(expected)
        assert pd_min_eig(psi) == expected
    for seed in (0, 1):
        assert pd_min_eig(random_map(g, 2, seed=seed)) == -np.inf


def _near_representation(which: str, defect: float) -> GroupMap:
    """A map on cyclic:16 of dimension 16 whose exact ``which`` defect is
    ``defect``, with a Frobenius norm four times as large.

    ``"unit"``: ``c`` times the regular representation, ``|1 - c^2| =
    defect``.  ``"mult"``: the regular representation times ``exp(i t)`` off
    the identity, a unitary map whose worst pair defect is ``|exp(2 i t) -
    1| = 2 sin t = defect``.
    """
    pi = regular_rep(cyclic(16))
    if which == "unit":
        scale = np.full(16, np.sqrt(1.0 - defect))
    else:
        scale = np.full(16, np.exp(1j * np.arcsin(defect / 2.0)))
        scale[pi.domain.identity] = 1.0
    return GroupMap(pi.domain, 16, scale[:, None, None] * pi.values)


def _refused(run):
    """``run`` made to return the message of the refusal it raises, or None."""

    def refusal(phi: GroupMap) -> str | None:
        try:
            run(phi)
        except PreconditionError as err:
            return str(err)
        return None

    return refusal


def _estimates_refusal(phi: GroupMap) -> str | None:
    return estimate_checks(phi, average_pd(phi))[1].get("closeness")


_TWIST_REFUSAL = (
    "twist base must be an exact unitary representation; "
    "defects are mult {mult:.3e}, unit {unit:.3e}"
)
# site -> the defect it tests, its tolerance, its refusal, and the refusal's message
_PRECONDITIONS = {
    "perturb_unitary": (
        "unit", 1e-9, _refused(lambda phi: perturb_unitary(phi, 0.01, seed=0)),
        "perturbation base must be unitary-valued; unit defect is {unit:.3e}",
    ),
    "similarity_twist/unit": (
        "unit", 1e-9, _refused(lambda phi: similarity_twist(phi, 2.0, seed=0)), _TWIST_REFUSAL,
    ),
    "similarity_twist/mult": (
        "mult", 1e-9, _refused(lambda phi: similarity_twist(phi, 2.0, seed=0)), _TWIST_REFUSAL,
    ),
    "stabilize": (
        "unit", 1e-9, _refused(stabilize),
        "stabilization needs unitary values; unit defect is {unit:.3e}",
    ),
    "kazhdan_step": (
        "unit", 1e-9, _refused(kazhdan_step),
        "averaging step needs unitary values; unit defect is {unit:.3e}",
    ),
    "dixmier_unitarize": (
        "mult", 1e-9, _refused(dixmier_unitarize),
        "unitarization needs an exact representation; mult defect is {mult:.3e}",
    ),
    "estimate_checks": (
        "unit", 1e-10, _estimates_refusal, "unit defect {unit:.3e} exceeds 1e-10",
    ),
}


@pytest.mark.parametrize("factor", [0.9, 1.1])
@pytest.mark.parametrize("site", sorted(_PRECONDITIONS))
def test_defect_preconditions_refuse_exactly_as_the_exact_defect(site, factor):
    which, tol, refusal, message = _PRECONDITIONS[site]
    phi = _near_representation(which, factor * tol)
    exact = {"unit": unit_defect(phi)[0], "mult": mult_defect(phi)[0]}
    assert (exact[which] > tol) == (factor > 1.0)
    # the Frobenius certificate fails, so the exact defect decides
    assert ulamlab.maps._defect_bound(phi, which, tol) == exact[which]
    expected = message.format(**exact) if factor > 1.0 else None
    assert refusal(phi) == expected


@pytest.mark.parametrize("which", ["unit", "mult"])
def test_defect_bound_certifies_by_frobenius_norm(which, monkeypatch):
    exact_calls = []
    for name in ("unit_defect", "mult_defect"):
        original = getattr(ulamlab.maps, name)
        monkeypatch.setattr(
            ulamlab.maps, name, lambda phi, _f=original: exact_calls.append(1) or _f(phi)
        )
    phi = _near_representation(which, 1e-12)
    bound = ulamlab.maps._defect_bound(phi, which, 1e-9)
    assert exact_calls == []
    assert bound == pytest.approx(4e-12, rel=1e-3)  # sqrt(1 - 1e-12) rounds by 1e-4
    # an overflowing residual fails the certificate, and the exact defect reports it
    broken = GroupMap(phi.domain, 16, phi.values.copy())
    broken.values[3, 0, 0] = 1e200
    with np.errstate(all="ignore"):
        assert np.isnan(ulamlab.maps._defect_bound(broken, which, 1e-9))
    assert exact_calls == [1]


def _frobenius_path(phi: GroupMap, which: str, tol: float) -> float:
    """`_defect_bound` as it is for a map that is not a permutation representation."""
    frobenius = ulamlab.maps._largest_residual(phi, which)
    if ulamlab.linalg._frobenius_within(frobenius, tol):
        return frobenius
    return (unit_defect if which == "unit" else mult_defect)(phi)[0]


def _permutation_representations() -> list[GroupMap]:
    reps = [regular_rep(parse_group_spec(s)) for s in sorted({*POOL_SPECS, *SMALL_POOL_SPECS})]
    for domain in (cyclic(5), free_ball(2, 3)):
        reps += [trivial_rep(domain), constant_identity(domain, 3)]
    # an abelian group's transposed regular representation is one too, with strided values
    reps.append(_transposed(regular_rep(cyclic(6))))
    return reps


def _transposed(phi: GroupMap) -> GroupMap:
    return GroupMap(phi.domain, phi.dim, phi.values.transpose(0, 2, 1))


@pytest.mark.parametrize("which", ["unit", "mult"])
def test_permutation_representations_form_no_residual(which, monkeypatch):
    reps = _permutation_representations()
    residuals = [ulamlab.maps._largest_residual(phi, which) for phi in reps]
    assert residuals == [0.0] * len(reps)
    assert [ulamlab.maps._defect_bound(phi, which, 1e-9) for phi in reps] == residuals

    def formed(phi, which):
        raise AssertionError(f"the {which} residuals of {phi.label} were formed")

    monkeypatch.setattr(ulamlab.maps, "_largest_residual", formed)
    assert [ulamlab.maps._defect_bound(phi, which, 1e-9) for phi in reps] == residuals


def _with_entry(phi: GroupMap, value: complex) -> GroupMap:
    """``phi`` with the last 1 of its last value replaced by ``value``."""
    vals = phi.values.copy()
    row, col = np.argwhere(vals[-1] == 1.0)[-1]
    vals[-1, row, col] = value
    return GroupMap(phi.domain, phi.dim, vals)


def _misordered(phi: GroupMap) -> GroupMap:
    """Permutation matrices that do not compose by the table: the values of
    the identity and of element 1 swapped."""
    vals = phi.values[[1, 0, *range(2, len(phi.values))]]
    return GroupMap(phi.domain, phi.dim, vals)


def _with_last(phi: GroupMap, value: np.ndarray) -> GroupMap:
    return GroupMap(phi.domain, phi.dim, np.concatenate([phi.values[:-1], value[None]]))


_REGULAR_D3 = regular_rep(dihedral(3))
_ONE_COLUMN = np.zeros((6, 6))
_ONE_COLUMN[:, 0] = 1.0  # d ones, one in each row, all in one column
# name -> a map off the permutation path, and the defects it is tested on
_FROBENIUS_PATH = {
    "perturbed": (perturb_unitary(_REGULAR_D3, 0.02, seed=0), ("unit", "mult")),
    "signed": (_with_entry(_REGULAR_D3, -1.0), ("unit", "mult")),
    "misordered": (_misordered(_REGULAR_D3), ("mult",)),
    "transposed": (_transposed(_REGULAR_D3), ("mult",)),
    "adjoint": (GroupMap(dihedral(3), 6, adj(_REGULAR_D3.values)), ("mult",)),
    "one_column": (_with_last(_REGULAR_D3, _ONE_COLUMN), ("unit", "mult")),
    "one_row": (_with_last(_REGULAR_D3, _ONE_COLUMN.T), ("unit", "mult")),
    "one_ulp": (_with_entry(_REGULAR_D3, 1.0 + 2.0**-52), ("unit", "mult")),
    "imaginary": (_with_entry(_REGULAR_D3, 1j), ("unit", "mult")),
}


@pytest.mark.parametrize("name", sorted(_FROBENIUS_PATH))
def test_other_maps_keep_the_frobenius_path(name, monkeypatch):
    phi, defects = _FROBENIUS_PATH[name]
    expected = {which: _frobenius_path(phi, which, 1e-9) for which in defects}
    formed = []
    real = ulamlab.maps._largest_residual
    monkeypatch.setattr(
        ulamlab.maps, "_largest_residual", lambda phi, which: formed.append(which) or real(phi, which)
    )
    for which in defects:
        assert ulamlab.maps._defect_bound(phi, which, 1e-9) == expected[which]
    assert formed == list(defects)
    if name in ("misordered", "transposed", "adjoint"):
        assert expected["mult"] == mult_defect(phi)[0] > 0.0


@pytest.mark.parametrize("which", ["unit", "mult"])
def test_a_map_of_dimension_zero_is_no_permutation_map(which):
    phi = GroupMap(dihedral(3), 0, np.zeros((6, 0, 0)))
    assert not ulamlab.maps._exact_permutations(phi, which)


@st.composite
def permutation_maps(draw):
    """Per-element permutation matrices on cyclic:4 or dihedral:3: the regular
    representation, or each value drawn from its or from any permutation."""
    regular = regular_rep(parse_group_spec(draw(st.sampled_from(["cyclic:4", "dihedral:3"]))))
    if draw(st.booleans()):
        return regular
    n = regular.dim
    eye = np.eye(n, dtype=complex)
    vals = [
        value if draw(st.booleans()) else eye[list(draw(st.permutations(range(n))))]
        for value in regular.values
    ]
    return GroupMap(regular.domain, n, np.array(vals))


@settings(max_examples=60, deadline=None)
@given(phi=permutation_maps(), which=st.sampled_from(["unit", "mult"]))
def test_permutation_maps_get_the_frobenius_paths_bound(phi, which):
    tol = ulamlab.maps.UNITARY_TOL
    assert ulamlab.maps._defect_bound(phi, which, tol) == _frobenius_path(phi, which, tol)


def test_group_map_validates_shapes():
    g = cyclic(2)
    with pytest.raises(ValueError):
        GroupMap(g, 2, np.zeros((2, 2, 3), dtype=complex))
    with pytest.raises(ValueError):
        GroupMap(g, 2, np.zeros((3, 2, 2), dtype=complex))
    with pytest.raises(ValueError):
        GroupMap(g, 2, np.full((2, 2, 2), np.nan, dtype=complex))


def test_defect_report_fields(z2_phase):
    rep = defect_report(z2_phase)
    assert rep.epsilon == pytest.approx(TWO_SIN_TENTH, abs=1e-12)
    assert rep.delta <= 1e-15
    assert rep.norm_kind == "operator"
    assert rep.restricted is False
    data = jsonify(rep)
    assert set(data) == {
        "epsilon", "delta", "iso_delta", "sup_norm", "norm_kind", "witness_pair",
        "witness_element", "restricted",
    }
    assert data["witness_pair"] == list(rep.witness_pair)


def test_defect_report_on_free_ball_is_restricted():
    ball = free_ball(2, 2)
    phi = constant_identity(ball, 2)
    rep = defect_report(phi)
    assert rep.restricted is True
    assert rep.epsilon == 0.0


def test_bound_margin_strict_and_pass_edge():
    b = Bound(0.3, 0.1, tol=1e-10)
    assert b.strict().margin == 0.1 + 1e-10 - 0.3  # bit-equal, not approximate
    assert b.strict().tol == 0.0
    edge = Bound(1.0 + 2.0**-20, 1.0, tol=2.0**-20)  # margin is exactly -tol
    assert edge.margin == -edge.tol
    assert edge.passed
    assert not Bound(np.nextafter(edge.measured, 2.0), 1.0, tol=2.0**-20).passed
    assert Certificate(a=edge, b=Bound(0.0, 1.0)).passed
    assert not Certificate(a=edge, b=Bound(2.0, 1.0)).passed


def test_perturbation_bounds_scalar_tightness():
    # phi = 1, psi = 0.9 on Z2: unit bound (|phi|+|psi|) eta = 0.19 is exact
    g = cyclic(2)
    phi = scalar_map(g, [1.0, 1.0])
    psi = scalar_map(g, [0.9, 0.9])
    rep = perturbation_bound_report(phi, psi)
    assert distance(phi, psi) == pytest.approx(0.1)
    assert rep["unit"].bound == pytest.approx(0.19)
    assert rep["unit"].measured == pytest.approx(0.19)
    assert rep["unit"].margin == pytest.approx(0.0, abs=1e-12)
    assert rep.passed


def test_perturbation_bounds_hold_for_random_pairs(rng):
    g = dihedral(3)
    rho = regular_rep(g)
    noise = rng.standard_normal(rho.values.shape) + 1j * rng.standard_normal(rho.values.shape)
    psi = GroupMap(g, rho.dim, rho.values + 0.05 * noise)
    rep = perturbation_bound_report(rho, psi)
    assert rep.passed
    assert set(rep) == {"iso", "unit", "mult"}
    assert all(b.margin >= -1e-10 for b in rep.values())


def test_defect_report_schatten_kind():
    phi = constant_identity(cyclic(3), 2)
    rep = defect_report(phi, schatten(2, normalized=True))
    assert rep.norm_kind == "schatten:2:normalized"
    assert rep.epsilon == 0.0
